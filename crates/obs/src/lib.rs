//! # saint-obs — the observability layer
//!
//! The SAINTDroid reproduction's scalability story (the paper's
//! Tables III–IV and Fig. 4) is a claim about *where time goes*:
//! gradual class loading trades exploration breadth for per-class
//! materialization cost, and the batch/daemon layers amortize that
//! cost across apps. This crate gives every layer one shared,
//! lock-cheap vocabulary for substantiating that story:
//!
//! * [`MetricsRegistry`] — per-[`Phase`] span accounting (count, total
//!   time, log2 latency histogram) plus monotone [`Counter`]s, all on
//!   relaxed atomics so recording never perturbs what it measures.
//! * [`MetricsSnapshot`] — the unified read side: registry contents
//!   plus the three cache surfaces (class / artifact / deep-scan),
//!   load-meter byte totals, and daemon queue state, in one type that
//!   the NDJSON `metrics` request and tests share.
//! * [`TraceSink`] — Chrome-trace span export for
//!   `saint-cli scan --trace-json`.
//!
//! The crate is deliberately std-only: it sits under every other crate
//! in the workspace and must never drag serialization or locking
//! dependencies onto the per-class hot path.

mod registry;
mod trace;

pub use registry::{
    Counter, CounterSnapshot, LatencyHistogram, MetricsRegistry, Phase, PhaseMetrics,
    PhaseSnapshot, RegistrySnapshot, HIST_BUCKETS,
};
pub use trace::{TraceEvent, TraceSink};

/// Point-in-time view of one cache: the class cache, artifact cache,
/// or deep-scan cache. Maintains the invariant
/// `hits + misses == lookups` (each lookup resolves to exactly one of
/// the two outcomes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Total probes.
    pub lookups: u64,
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that had to materialize.
    pub misses: u64,
    /// Entries resident right now.
    pub entries: u64,
}

impl CacheSnapshot {
    /// Hit rate in `[0, 1]`; `0` when no lookups happened.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Unified load-meter totals (the paper's Fig. 4 byte accounting),
/// accumulated across every scanned app via the registry's monotone
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeterSnapshot {
    /// Classes materialized.
    pub classes_loaded: u64,
    /// Bytes of class metadata loaded.
    pub class_bytes: u64,
    /// Method bodies analyzed.
    pub methods_analyzed: u64,
    /// Bytes of graph/artifact storage built.
    pub graph_bytes: u64,
    /// Lookups no provider could resolve.
    pub unresolved_lookups: u64,
}

impl MeterSnapshot {
    /// Total bytes charged (class metadata + graphs).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.class_bytes + self.graph_bytes
    }
}

/// Point-in-time view of the daemon's job queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueSnapshot {
    /// Jobs waiting for a worker right now.
    pub depth: u64,
    /// Admission-control capacity.
    pub capacity: u64,
    /// Jobs currently being scanned.
    pub active: u64,
    /// Jobs completed since startup.
    pub served: u64,
    /// Jobs whose deadline expired while queued.
    pub timed_out: u64,
}

/// The one unified metrics view: everything the stack knows about
/// where time and memory went, assembled by the scan engine (and
/// extended with queue state by the daemon).
///
/// Cache fields are `None` when the corresponding cache is not
/// attached (e.g. a bare `SaintDroid` without shared caches); `queue`
/// is `None` outside the daemon.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Phase spans and monotone counters.
    pub registry: RegistrySnapshot,
    /// Class cache (`(ApiLevel, ClassName)` → class) state.
    pub class_cache: Option<CacheSnapshot>,
    /// Artifact cache (`(ApiLevel, MethodRef)` → artifacts) state.
    pub artifact_cache: Option<CacheSnapshot>,
    /// Deep-scan cache (subtree findings) state.
    pub deep_scan_cache: Option<CacheSnapshot>,
    /// Accumulated load-meter totals.
    pub meter: MeterSnapshot,
    /// Daemon queue state, when serving.
    pub queue: Option<QueueSnapshot>,
}

impl MetricsSnapshot {
    /// Derives the meter view from the registry's monotone counters.
    #[must_use]
    pub fn meter_from(registry: &RegistrySnapshot) -> MeterSnapshot {
        let get = |name: &str| registry.counter(name).unwrap_or(0);
        MeterSnapshot {
            classes_loaded: get("classes_loaded"),
            class_bytes: get("class_bytes"),
            methods_analyzed: get("methods_analyzed"),
            graph_bytes: get("graph_bytes"),
            unresolved_lookups: get("unresolved_lookups"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_snapshot_hit_rate() {
        let c = CacheSnapshot {
            lookups: 10,
            hits: 7,
            misses: 3,
            entries: 3,
        };
        assert!((c.hit_rate() - 0.7).abs() < 1e-12);
        assert_eq!(CacheSnapshot::default().hit_rate(), 0.0);
    }

    #[test]
    fn meter_derives_from_counters() {
        let reg = MetricsRegistry::new();
        reg.add(Counter::ClassesLoaded, 4);
        reg.add(Counter::ClassBytes, 1000);
        reg.add(Counter::GraphBytes, 24);
        let meter = MetricsSnapshot::meter_from(&reg.snapshot());
        assert_eq!(meter.classes_loaded, 4);
        assert_eq!(meter.total_bytes(), 1024);
    }
}
