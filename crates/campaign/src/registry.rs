//! The corpus registry: every package a campaign will scan, from
//! every source, behind one stable id space.
//!
//! Sources are frozen `.sfrz` corpus images (attached zero-copy via
//! [`FrozenCorpus`], so a multi-GB image contributes mapped pages, not
//! heap) and loose `.sapk` files from directories. Each package gets a
//! **campaign id**: FNV-1a over its package name and its exact
//! container bytes. The id is therefore stable across runs, across
//! machines, and across *sources* — the same app frozen into an image
//! or lying in a directory hashes identically, which is what lets
//! `campaign resume` match journal entries to work units without
//! trusting enumeration order, and lets the registry deduplicate a
//! package that appears in two images.
//!
//! The unit list is sorted by id: campaign order is a property of the
//! corpus *content*, never of filesystem iteration order.

use std::path::{Path, PathBuf};

use saint_frozen::{fnv1a, FrozenCorpus, FNV_OFFSET};
use saint_ir::codec;

use crate::error::CampaignError;

/// Where a work unit's container bytes live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// `images[image]`, package index `index` — read zero-copy.
    Frozen {
        /// Index into the registry's attached images.
        image: usize,
        /// Package index within that image.
        index: usize,
    },
    /// `loose[idx]` — bytes read from a `.sapk` file at registration.
    Loose {
        /// Index into the registry's loose-package table.
        idx: usize,
    },
}

/// One package a campaign will scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkUnit {
    /// Stable campaign id: FNV-1a over package name + container bytes.
    pub id: u64,
    /// The package id from the container's manifest.
    pub package: String,
    source: Source,
}

/// The campaign's complete work list. Build one with
/// [`add_image`](Self::add_image) / [`add_sapk_dir`](Self::add_sapk_dir),
/// then iterate [`units`](Self::units) (id-sorted, deduplicated) and
/// fetch container bytes per unit with [`bytes`](Self::bytes).
#[derive(Debug, Default)]
pub struct CorpusRegistry {
    images: Vec<(PathBuf, FrozenCorpus)>,
    loose: Vec<Vec<u8>>,
    units: Vec<WorkUnit>,
}

impl CorpusRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a frozen corpus image and registers every package in
    /// it. Returns how many units were added (excluding duplicates of
    /// already-registered content).
    ///
    /// # Errors
    /// Attach failures and any in-image read failure — the whole image
    /// is validated here so later [`bytes`](Self::bytes) calls on a
    /// registered unit cannot hit fresh corruption.
    pub fn add_image(&mut self, path: &Path) -> Result<usize, CampaignError> {
        let corpus = FrozenCorpus::open(path).map_err(|source| CampaignError::Frozen {
            image: path.to_path_buf(),
            source,
        })?;
        let image = self.images.len();
        let mut added = 0;
        for index in 0..corpus.len() {
            let (package, container) = read_entry(&corpus, path, index)?;
            let id = unit_id(&package, container);
            added += usize::from(self.register(WorkUnit {
                id,
                package,
                source: Source::Frozen { image, index },
            }));
        }
        self.images.push((path.to_path_buf(), corpus));
        Ok(added)
    }

    /// Registers every `*.sapk` file directly inside `dir` (file-name
    /// order — the order does not matter, ids do). Returns how many
    /// units were added.
    ///
    /// # Errors
    /// Directory read failures, unreadable files, and containers that
    /// do not decode.
    pub fn add_sapk_dir(&mut self, dir: &Path) -> Result<usize, CampaignError> {
        let entries = std::fs::read_dir(dir).map_err(|e| {
            CampaignError::io(format!("cannot read directory {}", dir.display()), e)
        })?;
        let mut paths: Vec<PathBuf> = Vec::new();
        for entry in entries {
            let entry = entry
                .map_err(|e| CampaignError::io(format!("cannot list {}", dir.display()), e))?;
            let path = entry.path();
            if path.extension().is_some_and(|ext| ext == "sapk") {
                paths.push(path);
            }
        }
        paths.sort();
        let mut added = 0;
        for path in paths {
            let bytes = std::fs::read(&path)
                .map_err(|e| CampaignError::io(format!("cannot read {}", path.display()), e))?;
            let apk = codec::decode_apk(&bytes).map_err(|source| CampaignError::BadSapk {
                path: path.clone(),
                source,
            })?;
            let id = unit_id(&apk.manifest.package, &bytes);
            let idx = self.loose.len();
            let registered = self.register(WorkUnit {
                id,
                package: apk.manifest.package.clone(),
                source: Source::Loose { idx },
            });
            if registered {
                self.loose.push(bytes);
                added += 1;
            }
        }
        Ok(added)
    }

    /// Inserts a unit at its id-sorted position; duplicates (identical
    /// package + content, wherever they came from) are dropped.
    fn register(&mut self, unit: WorkUnit) -> bool {
        match self.units.binary_search_by_key(&unit.id, |u| u.id) {
            Ok(_) => false,
            Err(at) => {
                self.units.insert(at, unit);
                true
            }
        }
    }

    /// Every work unit, sorted by campaign id.
    #[must_use]
    pub fn units(&self) -> &[WorkUnit] {
        &self.units
    }

    /// Number of distinct work units.
    #[must_use]
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the registry holds no work.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The unit with a given campaign id, if registered.
    #[must_use]
    pub fn find(&self, id: u64) -> Option<&WorkUnit> {
        self.units
            .binary_search_by_key(&id, |u| u.id)
            .ok()
            .map(|i| &self.units[i])
    }

    /// A unit's exact container bytes — zero-copy out of the mapped
    /// image for frozen units, a slice of the registration-time read
    /// for loose ones.
    ///
    /// # Errors
    /// Only on frozen-image corruption appearing *after* registration
    /// validated the entry (e.g. the file changed underneath the map).
    pub fn bytes(&self, unit: &WorkUnit) -> Result<&[u8], CampaignError> {
        match unit.source {
            Source::Frozen { image, index } => {
                let (path, corpus) = &self.images[image];
                corpus
                    .container(index)
                    .map_err(|source| CampaignError::Frozen {
                        image: path.clone(),
                        source,
                    })
            }
            Source::Loose { idx } => Ok(&self.loose[idx]),
        }
    }
}

/// Reads one `(package, container)` entry, wrapping errors with the
/// image path.
fn read_entry<'c>(
    corpus: &'c FrozenCorpus,
    path: &Path,
    index: usize,
) -> Result<(String, &'c [u8]), CampaignError> {
    let wrap = |source| CampaignError::Frozen {
        image: path.to_path_buf(),
        source,
    };
    let package = corpus.package(index).map_err(wrap)?.to_string();
    let container = corpus.container(index).map_err(wrap)?;
    Ok((package, container))
}

/// The stable campaign id of a `(package, container-bytes)` pair:
/// FNV-1a over the name, a `0` separator (package names never contain
/// NUL), and the exact bytes.
#[must_use]
pub fn unit_id(package: &str, container: &[u8]) -> u64 {
    let mut hash = fnv1a(package.as_bytes(), FNV_OFFSET);
    hash = fnv1a(&[0], hash);
    fnv1a(container, hash)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_ids_are_stable_and_content_addressed() {
        let a = unit_id("com.app.one", b"bytes-one");
        assert_eq!(a, unit_id("com.app.one", b"bytes-one"));
        assert_ne!(a, unit_id("com.app.one", b"bytes-two"));
        assert_ne!(a, unit_id("com.app.two", b"bytes-one"));
        // The separator keeps (name, bytes) framing unambiguous.
        assert_ne!(unit_id("a", b"bc"), unit_id("ab", b"c"));
        // Ids are content addresses persisted in journals: pin one so a
        // hash change can never silently re-key a resumed campaign.
        assert_eq!(a, 0x6ba4_d1f8_f31e_b707);
    }

    #[test]
    fn loose_dir_registration_dedups_and_sorts_by_id() {
        let dir = std::env::temp_dir().join(format!("saint-campaign-reg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut cfg = saint_corpus::RealWorldConfig::small();
        cfg.apps = 3;
        let corpus = saint_corpus::RealWorldCorpus::new(cfg);
        for i in 0..3 {
            let apk = corpus.get(i).apk;
            let bytes = codec::encode_apk(&apk);
            std::fs::write(dir.join(format!("app{i}.sapk")), &bytes).expect("write sapk");
        }
        // A byte-identical duplicate under another name must collapse.
        std::fs::copy(dir.join("app0.sapk"), dir.join("dup.sapk")).expect("copy");
        // A non-sapk file is ignored.
        std::fs::write(dir.join("README.txt"), b"not a package").expect("write txt");

        let mut reg = CorpusRegistry::new();
        let added = reg.add_sapk_dir(&dir).expect("register dir");
        assert_eq!(added, 3, "duplicate content registers once");
        assert_eq!(reg.len(), 3);
        let ids: Vec<u64> = reg.units().iter().map(|u| u.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "units are id-ordered");
        for unit in reg.units() {
            let bytes = reg.bytes(unit).expect("bytes");
            assert_eq!(unit.id, unit_id(&unit.package, bytes));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frozen_and_loose_sources_share_the_id_space() {
        let dir = std::env::temp_dir().join(format!("saint-campaign-mix-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut cfg = saint_corpus::RealWorldConfig::small();
        cfg.apps = 4;
        let corpus = saint_corpus::RealWorldCorpus::new(cfg);
        let apks: Vec<saint_ir::Apk> = (0..4).map(|i| corpus.get(i).apk).collect();
        // Apps 0..2 frozen into an image; apps 1..4 as loose files — the
        // overlap (1, 2) must register exactly once.
        let image_path = dir.join("part.sfrz");
        std::fs::write(&image_path, saint_frozen::freeze_apks(&apks[0..3])).expect("write image");
        for (i, apk) in apks.iter().enumerate().skip(1) {
            std::fs::write(dir.join(format!("loose{i}.sapk")), codec::encode_apk(apk))
                .expect("write sapk");
        }
        let mut reg = CorpusRegistry::new();
        reg.add_image(&image_path).expect("image registers");
        let added_loose = reg.add_sapk_dir(&dir).expect("dir registers");
        assert_eq!(reg.len(), 4, "union of both sources");
        assert_eq!(added_loose, 1, "only app 3 was new");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_image_is_a_typed_error() {
        let mut reg = CorpusRegistry::new();
        let err = reg
            .add_image(Path::new("/nonexistent/campaign.sfrz"))
            .expect_err("missing image");
        assert!(matches!(err, CampaignError::Frozen { .. }), "{err}");
    }
}
