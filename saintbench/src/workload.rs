//! The four workloads and the analyzer configuration they share.

use std::sync::Arc;

use saint_adf::AndroidFramework;
use saint_analysis::{ArtifactCache, ShardedClassCache};
use saintdroid::amd::invocation::DeepScanCache;
use saintdroid::{DetectorSet, SaintDroid};

/// A workload of the benchmark (see `BENCHMARK.json` for why each one
/// is there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Loose `.sapk` files read, decoded and batch-scanned.
    BatchSapk,
    /// The same apps scanned from a frozen corpus image over a frozen
    /// framework image.
    BatchFrozen,
    /// Open-loop online vetting through a daemon, all four families.
    VettingStream,
    /// Update waves through a daemon's incremental store.
    UpdateWave,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::BatchSapk,
        Workload::BatchFrozen,
        Workload::VettingStream,
        Workload::UpdateWave,
    ];

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchSapk => "batch-sapk",
            Workload::BatchFrozen => "batch-frozen",
            Workload::VettingStream => "vetting-stream",
            Workload::UpdateWave => "update-wave",
        }
    }

    /// The detector families the workload runs.
    #[must_use]
    pub fn detectors(self) -> DetectorSet {
        match self {
            Workload::VettingStream => DetectorSet::all(),
            _ => DetectorSet::amd(),
        }
    }
}

/// The analyzer every workload scans with: the chosen families over
/// the three batch-wide caches, as `ScanEngine::new` builds it.
#[must_use]
pub fn tool_with_caches(framework: Arc<AndroidFramework>, detectors: DetectorSet) -> SaintDroid {
    SaintDroid::new(framework)
        .with_detectors(detectors)
        .with_shared_cache(Arc::new(ShardedClassCache::new()))
        .with_shared_artifact_cache(Arc::new(ArtifactCache::new()))
        .with_shared_scan_cache(Arc::new(DeepScanCache::new()))
}
