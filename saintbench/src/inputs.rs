//! Seeded input generation.
//!
//! Everything a workload feeds the program is generated here from the
//! seed, before anything is timed, and written under
//! `target/saintbench/<seed>/<scale>/`: loose `.sapk` files, the
//! update-wave versions, a frozen corpus image and a frozen framework
//! image. The program under test only ever sees these files. The same
//! seed always yields the same bytes, so a directory that already holds
//! a complete input set for its seed is reused.
//!
//! App sizes follow a heavy-tailed KLOC draw, so a plain seeded sample
//! of a few hundred apps varies by about 10% in total size from seed to
//! seed, and throughput with it. The generator therefore draws a pool
//! several times larger than needed and keeps an evenly spaced
//! selection by size rank (stratified sampling): every seed gets
//! different apps with the same size profile.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use saint_adf::{AndroidFramework, SynthConfig};
use saint_corpus::{churn_wave, InjectedCounts, RealWorldConfig, RealWorldCorpus};
use saint_ir::codec;
use saintdroid::engine::{default_jobs, par_map_indexed};
use serde::{Deserialize, Serialize};

/// Bumped whenever generation changes, so stale input sets regenerate.
const LAYOUT_VERSION: u32 = 3;

/// How much traffic each workload generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured benchmark.
    Full,
    /// A seconds-long run for tests: every workload and every metric,
    /// on about two dozen apps.
    Smoke,
}

impl Scale {
    /// Parses `full` or `smoke`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    /// The name `parse` accepts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    /// The sizes this scale generates.
    #[must_use]
    pub fn params(self) -> Params {
        match self {
            Scale::Full => Params {
                apps: 300,
                wave_apps: 100,
                max_waves: 120,
                rate: 60.0,
                daemon_setups: 5,
                min_passes: 3,
            },
            Scale::Smoke => Params {
                apps: 24,
                wave_apps: 12,
                max_waves: 8,
                rate: 40.0,
                daemon_setups: 2,
                min_passes: 1,
            },
        }
    }
}

/// Workload sizes of one [`Scale`].
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Distinct apps in the batch and vetting workloads.
    pub apps: usize,
    /// Apps in the update-wave workload.
    pub wave_apps: usize,
    /// Waves whose versions are generated; a run stops early at this
    /// many waves.
    pub max_waves: usize,
    /// Open-loop arrival rate of the vetting stream, per second.
    pub rate: f64,
    /// Daemons started per run (each gives one `setup_s` sample).
    pub daemon_setups: usize,
    /// Batch passes a run makes even when `--seconds` has run out.
    pub min_passes: usize,
}

/// Candidate apps generated per selected app. The selection's total
/// size varies with the pool's mean size, whose seed-to-seed spread
/// shrinks with the square root of the pool.
const POOL_FACTOR: usize = 10;
/// Share of the update-wave apps that ship a new version in each wave.
const WAVE_SHARE: f64 = 0.05;
/// Share of an updated app's classes one version changes.
const CHURN: f64 = 0.10;
/// Waves the traced update-wave pass replays.
pub const TRACED_WAVES: usize = 5;

/// The framework expansion every app is generated against and every
/// workload analyzes with (the medium real-world corpus setting).
#[must_use]
pub fn synth() -> SynthConfig {
    RealWorldConfig::medium().synth
}

/// One generated app.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppEntry {
    /// Path of its `.sapk` file, relative to the input directory.
    pub file: String,
    /// Its package name.
    pub package: String,
    /// What the generator planted in it.
    pub injected: InjectedCounts,
}

/// One app of the update-wave workload and its versions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WaveApp {
    /// Index into [`Index::apps`] of version 0.
    pub app: usize,
    /// Version files, relative to the input directory; `versions[0]`
    /// is the app's own file.
    pub versions: Vec<String>,
}

/// The manifest of one generated input set (`index.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Index {
    /// Generator layout version.
    pub layout: u32,
    /// The seed the set was generated from.
    pub seed: u64,
    /// Scale name.
    pub scale: String,
    /// The apps of the batch and vetting workloads, in submission order.
    pub apps: Vec<AppEntry>,
    /// The update-wave apps.
    pub wave_apps: Vec<WaveApp>,
}

/// A generated input set on disk.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The input directory.
    pub dir: PathBuf,
    /// Its manifest.
    pub index: Index,
    /// The scale it was generated at.
    pub scale: Scale,
}

impl Inputs {
    /// Absolute path of a file named in the index.
    #[must_use]
    pub fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }

    /// The frozen framework image.
    #[must_use]
    pub fn framework_image(&self) -> PathBuf {
        framework_image(&self.dir)
    }

    /// The frozen image of [`Index::apps`], in the same order.
    #[must_use]
    pub fn corpus_image(&self) -> PathBuf {
        self.dir.join("corpus.sfrz")
    }

    /// The planted ground truth of an input file (versions share their
    /// app's).
    #[must_use]
    pub fn injected(&self, file: &str) -> Option<&InjectedCounts> {
        if let Some(app) = self.index.apps.iter().find(|a| a.file == file) {
            return Some(&app.injected);
        }
        self.index
            .wave_apps
            .iter()
            .find(|w| w.versions.iter().any(|v| v == file))
            .map(|w| &self.index.apps[w.app].injected)
    }

    /// The update-wave schedule over these inputs.
    #[must_use]
    fn wave_plan(&self) -> WavePlan {
        WavePlan::new(self.index.wave_apps.len())
    }

    /// The file submitted for wave app `j` after `wave` waves.
    #[must_use]
    pub fn wave_file(&self, j: usize, wave: usize) -> &str {
        let version = self.wave_plan().version_after(j, wave);
        &self.index.wave_apps[j].versions[version]
    }

    /// Reads a previously generated input set.
    ///
    /// # Errors
    /// I/O errors and an unreadable index.
    pub fn open(dir: &Path) -> io::Result<Self> {
        let text = fs::read_to_string(dir.join("index.json"))?;
        let index: Index = serde_json::from_str(&text).map_err(io::Error::other)?;
        let scale = Scale::parse(&index.scale)
            .ok_or_else(|| io::Error::other(format!("unknown scale {}", index.scale)))?;
        Ok(Inputs {
            dir: dir.to_path_buf(),
            index,
            scale,
        })
    }
}

/// Which wave apps ship a new version in which wave: with a stride of
/// `1 / WAVE_SHARE`, wave `w` (from 1) updates every app `j` with
/// `j ≡ w - 1` modulo the stride. Each wave thus updates [`WAVE_SHARE`]
/// of the apps, spread evenly through the wave rather than bunched, and
/// every app is updated once per stride of waves.
#[derive(Debug, Clone, Copy)]
struct WavePlan {
    stride: usize,
}

impl WavePlan {
    /// The plan over `apps` apps.
    #[must_use]
    pub fn new(apps: usize) -> Self {
        let stride = (1.0 / WAVE_SHARE).round() as usize;
        WavePlan {
            stride: stride.min(apps).max(1),
        }
    }

    /// Whether wave `wave` (from 1) updates app `j`.
    #[must_use]
    pub fn updates(&self, wave: usize, j: usize) -> bool {
        wave > 0 && j % self.stride == (wave - 1) % self.stride
    }

    /// The version of app `j` after `wave` waves (0 before any wave).
    #[must_use]
    pub fn version_after(&self, j: usize, wave: usize) -> usize {
        (1..=wave).filter(|&w| self.updates(w, j)).count()
    }
}

/// Mixes the run seed with a salt into an independent generator seed.
fn mix(seed: u64, salt: u64) -> u64 {
    (seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .rotate_left(31)
}

/// Picks `k` of `ids` at evenly spaced ranks of `size`, returned in
/// ascending id order.
#[must_use]
fn stratify(ids: &[usize], size: impl Fn(usize) -> usize, k: usize) -> Vec<usize> {
    let mut by_size: Vec<usize> = ids.to_vec();
    by_size.sort_by_key(|&id| (size(id), id));
    let n = by_size.len();
    let mut picked: Vec<usize> = (0..k.min(n))
        .map(|i| by_size[((2 * i + 1) * n) / (2 * k.min(n))])
        .collect();
    picked.sort_unstable();
    picked
}

/// The frozen framework image of the input set in `dir`.
#[must_use]
pub fn framework_image(dir: &Path) -> PathBuf {
    dir.join("framework.sfrz")
}

/// The input directory of `seed` at `scale` under `root`.
#[must_use]
pub fn dir_for(root: &Path, seed: u64, scale: Scale) -> PathBuf {
    root.join(seed.to_string()).join(scale.name())
}

/// Generates the input set for `seed` at `scale` under `root`, or
/// reuses a complete one already there.
///
/// # Errors
/// I/O errors while writing the set.
pub fn prepare(root: &Path, seed: u64, scale: Scale) -> io::Result<Inputs> {
    let dir = dir_for(root, seed, scale);
    if let Ok(inputs) = Inputs::open(&dir) {
        if inputs.index.layout == LAYOUT_VERSION
            && inputs.index.seed == seed
            && inputs.scale == scale
        {
            return Ok(inputs);
        }
    }
    if dir.exists() {
        fs::remove_dir_all(&dir)?;
    }
    fs::create_dir_all(dir.join("apps"))?;
    fs::create_dir_all(dir.join("waves"))?;
    let params = scale.params();

    let mut cfg = RealWorldConfig::medium();
    cfg.apps = params.apps * POOL_FACTOR;
    cfg.seed = mix(seed, 1);
    let corpus = RealWorldCorpus::new(cfg);
    let pool: Vec<(String, InjectedCounts, Vec<u8>)> =
        par_map_indexed(default_jobs(), corpus.len(), |i| {
            let app = corpus.get(i);
            let bytes = codec::encode_apk(&app.apk);
            (app.apk.manifest.package.clone(), app.injected, bytes)
        });
    let ids: Vec<usize> = (0..pool.len()).collect();
    let chosen = stratify(&ids, |i| pool[i].2.len(), params.apps);

    let mut apps = Vec::with_capacity(chosen.len());
    for (k, &i) in chosen.iter().enumerate() {
        let file = format!("apps/{k:04}.sapk");
        fs::write(dir.join(&file), &pool[i].2)?;
        apps.push(AppEntry {
            file,
            package: pool[i].0.clone(),
            injected: pool[i].1,
        });
    }
    let image = saint_frozen::freeze_corpus(
        chosen
            .iter()
            .map(|&i| (pool[i].0.as_str(), pool[i].2.as_slice())),
    );
    fs::write(dir.join("corpus.sfrz"), image)?;

    let positions: Vec<usize> = (0..chosen.len()).collect();
    let wave_members = stratify(&positions, |k| pool[chosen[k]].2.len(), params.wave_apps);
    let plan = WavePlan::new(wave_members.len());
    let mut wave_apps = Vec::with_capacity(wave_members.len());
    for (j, &k) in wave_members.iter().enumerate() {
        let mut apk = codec::decode_apk(&pool[chosen[k]].2).map_err(io::Error::other)?;
        let mut versions = vec![apps[k].file.clone()];
        for v in 1..=plan.version_after(j, params.max_waves) {
            churn_wave(&mut apk, CHURN, mix(seed, ((j as u64) << 16) | v as u64));
            let file = format!("waves/{j:03}-v{v}.sapk");
            fs::write(dir.join(&file), codec::encode_apk(&apk))?;
            versions.push(file);
        }
        wave_apps.push(WaveApp { app: k, versions });
    }

    let framework = Arc::new(AndroidFramework::with_scale(&synth()));
    fs::write(
        framework_image(&dir),
        saint_frozen::freeze_framework(&framework),
    )?;

    let index = Index {
        layout: LAYOUT_VERSION,
        seed,
        scale: scale.name().to_string(),
        apps,
        wave_apps,
    };
    // The index goes last: its presence marks a complete set.
    let json = serde_json::to_string(&index).map_err(io::Error::other)?;
    fs::write(dir.join("index.json"), json)?;
    Ok(Inputs { dir, index, scale })
}
