//! Frozen-artifact boot: serving the engine from mmap'd images.
//!
//! [`ScanEngine::attach_frozen`] replaces the parse-everything startup
//! path with [`saint_frozen::load_or_freeze`]: the framework's API
//! database and permission map decode linearly out of one checksummed
//! image (no mining), class bodies are served zero-copy through a
//! [`FrozenClassSource`], and whole corpora scan straight out of a
//! mapped [`FrozenCorpus`] without per-app container buffers. The
//! attach records [`Phase::FrozenMap`] / [`Counter::FrozenBytesMapped`]
//! when a registry is present and leaves a [`FrozenBoot`] provenance
//! record behind for the daemon's `status` verb.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use saint_frozen::{
    load_or_freeze, BootSource, FrozenClassSource, FrozenCorpus, FrozenError, FrozenFramework,
};
use saint_ir::{codec, ClassDef, ClassName};
use saint_obs::{Counter, Phase};

use crate::detector::CompatDetector;
use crate::engine::{BatchScan, ScanEngine};
use crate::error::ScanError;
use crate::report::Report;

/// The engine's attached frozen image plus boot bookkeeping.
pub(crate) struct FrozenState {
    framework: Arc<FrozenFramework>,
    /// The provenance fixed at attach time (`classes_preloaded` is 0;
    /// the live count is `preloaded`).
    boot: FrozenBoot,
    preloaded: AtomicUsize,
}

/// How this engine obtained its framework model — the provenance the
/// daemon's `status` verb reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenBoot {
    /// `true` when a valid image already existed and was attached
    /// directly; `false` when this boot had to parse-and-freeze first
    /// (so the *next* boot attaches).
    pub attached: bool,
    /// Path of the image being served.
    pub image: PathBuf,
    /// Wall time of the whole attach (map + verify + table decode, or
    /// compile + write + map on a first run).
    pub startup: Duration,
    /// Image size made addressable, in bytes.
    pub bytes_mapped: u64,
    /// Whether the image is an actual page mapping (`false` means the
    /// owned-buffer fallback was used).
    pub page_mapped: bool,
    /// Framework class bodies bulk-loaded into the shared class cache
    /// at prewarm (0 until [`ScanEngine::prewarm`] runs).
    pub classes_preloaded: usize,
}

impl ScanEngine {
    /// Boots this engine from the frozen framework image at `path`:
    /// attaches (or compiles, on a first run or stale image) the image,
    /// seeds the framework's API database and permission map from its
    /// tables — so they are never mined — and installs a zero-copy
    /// class source serving class bodies straight from the mapping.
    /// An image is served only after its checksum, class-index walk and
    /// spec fingerprint all check out; one that fails any of them is
    /// recompiled from the engine's framework.
    ///
    /// Records a [`Phase::FrozenMap`] span and bumps
    /// [`Counter::FrozenBytesMapped`] when metrics are attached.
    /// Idempotent: a second call returns the existing provenance.
    ///
    /// # Errors
    ///
    /// Filesystem failures and image decode failures surface as
    /// [`FrozenError`]; the engine is left un-attached and fully
    /// usable on the parse path.
    pub fn attach_frozen(&self, path: &Path) -> Result<FrozenBoot, FrozenError> {
        if self.frozen.get().is_some() {
            return Ok(self.frozen_boot().expect("state just observed"));
        }
        let start = Instant::now();
        let framework = Arc::clone(self.tool().arm().framework());
        let attach = || -> Result<_, FrozenError> {
            let (frozen, source) = load_or_freeze(path, &framework)?;
            let db = Arc::new(frozen.database()?);
            let permissions = Arc::new(frozen.permission_map()?);
            Ok((frozen, source, db, permissions))
        };
        let (frozen, source, db, permissions) = match self.metrics() {
            Some(metrics) => metrics.time(Phase::FrozenMap, attach)?,
            None => attach()?,
        };
        framework.seed_database(db);
        framework.seed_permission_map(permissions);
        framework.install_class_source(Arc::new(FrozenClassSource::new(Arc::clone(&frozen))));
        if let Some(metrics) = self.metrics() {
            metrics.add(Counter::FrozenBytesMapped, frozen.bytes_len());
        }
        let state = FrozenState {
            boot: FrozenBoot {
                attached: source == BootSource::Attached,
                image: path.to_path_buf(),
                startup: start.elapsed(),
                bytes_mapped: frozen.bytes_len(),
                page_mapped: frozen.is_mapped(),
                classes_preloaded: 0,
            },
            framework: frozen,
            preloaded: AtomicUsize::new(0),
        };
        let _ = self.frozen.set(state);
        Ok(self.frozen_boot().expect("state just set"))
    }

    /// The frozen-boot provenance, if [`attach_frozen`] ran.
    ///
    /// [`attach_frozen`]: ScanEngine::attach_frozen
    #[must_use]
    pub fn frozen_boot(&self) -> Option<FrozenBoot> {
        let state = self.frozen.get()?;
        Some(FrozenBoot {
            classes_preloaded: state.preloaded.load(Ordering::Relaxed),
            ..state.boot.clone()
        })
    }

    /// Bulk-populates the shared class cache from the image's class
    /// blobs: each *unique* blob (identical per-level bodies are
    /// deduplicated at compile time, keyed by their offset) decodes
    /// exactly once and every `(level, class)` cache entry shares the
    /// resulting `Arc`. Entries go in through
    /// [`ShardedClassCache::insert`](saint_analysis::ShardedClassCache::insert),
    /// which counts no lookup, so the cache's hit rate describes scan
    /// traffic rather than the boot. After this, steady-state scans hit
    /// the cache for every framework class — the `clvm_load` phase
    /// records nothing. No-op without an image or a shared cache; a
    /// blob that fails to decode is simply skipped (scans fall back to
    /// spec materialization for that class).
    pub(crate) fn preload_frozen_classes(&self) {
        let Some(state) = self.frozen.get() else {
            return;
        };
        let Some(cache) = self.tool().shared_cache() else {
            return;
        };
        let mut decoded: HashMap<u64, Arc<ClassDef>> = HashMap::new();
        let mut count = 0usize;
        let _ = state
            .framework
            .for_each_class(|level, name, blob_off, blob| {
                let class = match decoded.entry(blob_off) {
                    Entry::Occupied(e) => Arc::clone(e.get()),
                    Entry::Vacant(v) => match codec::decode_class(blob) {
                        Ok(c) => Arc::clone(v.insert(Arc::new(c))),
                        Err(_) => return,
                    },
                };
                let name = ClassName::new(name);
                cache.insert(level, &name, Some(class));
                count += 1;
            });
        state.preloaded.store(count, Ordering::Relaxed);
    }

    /// Scans every package of a frozen corpus in input order — the
    /// zero-copy analogue of [`scan_batch`](ScanEngine::scan_batch).
    /// Workers decode their package straight out of the mapped image
    /// slice; no per-app file opens, no shared container buffers. A
    /// package that fails to decode yields an error-only report, like a
    /// panicking scan would.
    #[must_use]
    pub fn scan_frozen_batch(&self, corpus: &FrozenCorpus) -> Vec<Report> {
        self.scan_frozen_batch_timed(corpus).reports
    }

    /// [`scan_frozen_batch`](ScanEngine::scan_frozen_batch) with wall
    /// time and the worker count.
    #[must_use]
    pub fn scan_frozen_batch_timed(&self, corpus: &FrozenCorpus) -> BatchScan {
        self.drive_batch(corpus.len(), |i, per_app| match corpus.decode(i) {
            Ok(apk) => self.run_isolated(&apk, per_app),
            Err(err) => Report::from_error(
                corpus.package(i).unwrap_or("<unreadable>"),
                self.tool().name(),
                ScanError::Internal {
                    phase: "frozen_decode".into(),
                    payload: err.to_string(),
                },
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ScanEngine;
    use saint_adf::AndroidFramework;
    use saint_frozen::freeze_apks;
    use saint_ir::{ApiLevel, Apk, ApkBuilder, BodyBuilder, ClassBuilder, ClassOrigin};

    fn apk(pkg: &str, modern: bool) -> Apk {
        let main = ClassBuilder::new(format!("{pkg}.Main"), ClassOrigin::App)
            .extends("android.app.Activity")
            .method(
                "onCreate",
                "(Landroid/os/Bundle;)V",
                |b: &mut BodyBuilder| {
                    if modern {
                        b.invoke_virtual(
                            saint_adf::well_known::context_get_color_state_list(),
                            &[],
                            None,
                        );
                    }
                    b.ret_void();
                },
            )
            .unwrap()
            .build();
        ApkBuilder::new(pkg, ApiLevel::new(19), ApiLevel::new(28))
            .activity(format!("{pkg}.Main"))
            .class(main)
            .unwrap()
            .build()
    }

    fn temp_image(tag: &str) -> PathBuf {
        std::env::temp_dir()
            .join(format!("saint-core-frozen-{tag}-{}", std::process::id()))
            .join("framework.sfrz")
    }

    #[test]
    fn frozen_boot_reports_remain_identical_to_parsed() {
        let apks: Vec<Apk> = (0..4).map(|i| apk(&format!("p{i}"), i % 2 == 0)).collect();
        let parsed = ScanEngine::new(Arc::new(AndroidFramework::curated()))
            .jobs(2)
            .scan_batch(&apks);

        let path = temp_image("parity");
        let frozen_engine = ScanEngine::new(Arc::new(AndroidFramework::curated())).jobs(2);
        let boot = frozen_engine.attach_frozen(&path).unwrap();
        assert!(!boot.attached, "first run compiles");
        frozen_engine.prewarm();
        let boot = frozen_engine.frozen_boot().unwrap();
        assert!(boot.classes_preloaded > 0);
        assert!(boot.bytes_mapped > 0);
        // A preload fills the cache without probing it.
        let stats = frozen_engine.cache_stats().unwrap();
        assert_eq!(stats.lookups, 0);
        assert_eq!(stats.entries, boot.classes_preloaded as u64);

        let corpus = saint_frozen::FrozenCorpus::from_bytes(freeze_apks(&apks)).unwrap();
        let frozen_reports = frozen_engine.scan_frozen_batch(&corpus);
        assert_eq!(frozen_reports.len(), parsed.len());
        for (f, p) in frozen_reports.iter().zip(&parsed) {
            assert_eq!(f.package, p.package);
            assert_eq!(f.mismatches, p.mismatches);
            assert_eq!(f.meter, p.meter);
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn second_attach_is_idempotent_and_second_boot_attaches() {
        let path = temp_image("idem");
        let first = ScanEngine::new(Arc::new(AndroidFramework::curated()));
        let a = first.attach_frozen(&path).unwrap();
        let b = first.attach_frozen(&path).unwrap();
        assert_eq!(a.attached, b.attached);
        // A fresh engine over the now-existing image attaches directly.
        let second = ScanEngine::new(Arc::new(AndroidFramework::curated()));
        let boot = second.attach_frozen(&path).unwrap();
        assert!(boot.attached, "second boot must reuse the image");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn attach_records_metrics() {
        let path = temp_image("metrics");
        let engine = ScanEngine::new(Arc::new(AndroidFramework::curated())).ensure_metrics();
        let boot = engine.attach_frozen(&path).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(
            snap.registry.counter("frozen_bytes_mapped"),
            Some(boot.bytes_mapped)
        );
        let span = snap.registry.phase("frozen_map").expect("frozen_map span");
        assert_eq!(span.count, 1);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn frozen_scan_matches_scan_batch_over_same_apps() {
        let apks: Vec<Apk> = (0..3).map(|i| apk(&format!("q{i}"), true)).collect();
        let path = temp_image("scanparity");
        let engine = ScanEngine::new(Arc::new(AndroidFramework::curated())).jobs(3);
        engine.attach_frozen(&path).unwrap();
        engine.prewarm();
        let batch = engine.scan_batch(&apks);
        let corpus = saint_frozen::FrozenCorpus::from_bytes(freeze_apks(&apks)).unwrap();
        let frozen = engine.scan_frozen_batch(&corpus);
        for (f, p) in frozen.iter().zip(&batch) {
            assert_eq!(f.package, p.package);
            assert_eq!(f.mismatches, p.mismatches);
            assert_eq!(f.meter, p.meter);
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
