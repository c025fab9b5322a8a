//! The metrics registry: per-phase latency accounting and monotone
//! named counters, all on relaxed atomics.
//!
//! Every recording operation is a handful of `fetch_add`s — no locks,
//! no allocation — so the registry can sit on the per-class hot path
//! of the CLVM without perturbing the timings it measures. Workers on
//! any `--jobs/--app-jobs` split write to the same shared atomics;
//! because every write is a pure increment, the merged totals are
//! exact once the scan quiesces, regardless of interleaving. Snapshots
//! taken *while* workers are still recording are monotone
//! lower bounds, never garbage.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The pipeline phases SAINTDroid accounts for, mirroring the paper's
/// per-stage measurements (Tables III–IV): gradual class loading
/// (Algorithm 1's materialization step), worklist exploration, API-map
/// mining, and the three mismatch detectors. `ScanTotal` brackets a
/// whole per-app scan; `QueueWait`, `Decode` and `Serialize` are
/// daemon-only admission latency, payload decoding and response
/// rendering. `DeltaStore` is the incremental scanner's artifact I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// One CLVM class materialization (cache-miss path of `load_class`).
    ClvmLoad = 0,
    /// One Algorithm-1 worklist exploration over an app.
    Explore = 1,
    /// One ARM database / permission-map acquisition.
    ArmMine = 2,
    /// One run of the API-invocation detector over an app model.
    DetectInvocation = 3,
    /// One run of the callback detector over an app model.
    DetectCallback = 4,
    /// One run of the permission detector over an app model.
    DetectPermission = 5,
    /// One whole per-app scan (model build + all detectors + merge).
    ScanTotal = 6,
    /// Time a daemon job spent queued before a worker picked it up.
    QueueWait = 7,
    /// One frozen-artifact attach: mmap + header/checksum verification
    /// + database/permission-map reconstruction.
    FrozenMap = 8,
    /// One run of the declared-SDK consistency detector over an app
    /// model (DSD overuse/underuse vetting).
    DetectDeclaredSdk = 9,
    /// One daemon request's payload decode: base64, plus the SAPK
    /// container decode unless the delta tier answered from the raw
    /// bytes first.
    Decode = 10,
    /// One daemon response rendered to its wire frame (the report or
    /// error serialized to one NDJSON line).
    Serialize = 11,
    /// One delta-store artifact read or write made by the incremental
    /// scanner (hits and misses alike).
    DeltaStore = 12,
}

impl Phase {
    /// Every phase, in wire order. Snapshot vectors follow this order.
    pub const ALL: [Phase; 13] = [
        Phase::ClvmLoad,
        Phase::Explore,
        Phase::ArmMine,
        Phase::DetectInvocation,
        Phase::DetectCallback,
        Phase::DetectPermission,
        Phase::ScanTotal,
        Phase::QueueWait,
        Phase::FrozenMap,
        Phase::DetectDeclaredSdk,
        Phase::Decode,
        Phase::Serialize,
        Phase::DeltaStore,
    ];

    /// Stable snake_case name used on every export surface (NDJSON
    /// `metrics` response, Chrome trace categories, bench columns).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Phase::ClvmLoad => "clvm_load",
            Phase::Explore => "explore",
            Phase::ArmMine => "arm_mine",
            Phase::DetectInvocation => "detect_invocation",
            Phase::DetectCallback => "detect_callback",
            Phase::DetectPermission => "detect_permission",
            Phase::ScanTotal => "scan_total",
            Phase::QueueWait => "queue_wait",
            Phase::FrozenMap => "frozen_map",
            Phase::DetectDeclaredSdk => "detect_declared_sdk",
            Phase::Decode => "decode",
            Phase::Serialize => "serialize",
            Phase::DeltaStore => "delta_store",
        }
    }
}

/// Monotone counters. These only ever increase (`add` is the sole
/// mutator), which is what makes cross-snapshot deltas meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Apps fully scanned (bumped once per completed report).
    AppsScanned = 0,
    /// Mismatches across all findings families, post-dedup.
    MismatchesFound = 1,
    /// Classes materialized by the CLVM (sum of per-app meters).
    ClassesLoaded = 2,
    /// Bytes of class metadata charged by the load meter.
    ClassBytes = 3,
    /// Method bodies pushed through the worklist.
    MethodsAnalyzed = 4,
    /// Bytes of graph/artifact storage charged by the load meter.
    GraphBytes = 5,
    /// Lookups the CLVM could not resolve against any provider.
    UnresolvedLookups = 6,
    /// Call sites inspected by the invocation detector.
    InvocationSitesScanned = 7,
    /// App-declared overrides checked by the callback detector.
    CallbackOverridesChecked = 8,
    /// Permission-protected API uses checked by the permission detector.
    PermissionChecksPerformed = 9,
    /// Scans that panicked and were converted to a typed
    /// `ScanError::Internal` by an isolation boundary (engine
    /// `catch_unwind`, daemon worker guard, handler-side decode).
    ScansPanicked = 10,
    /// Daemon scan workers that died and were respawned by the
    /// supervisor.
    WorkersRespawned = 11,
    /// Client-side retries of transient failures (connect/reset,
    /// `busy`, worker-crash `internal`).
    ClientRetries = 12,
    /// Bytes of frozen artifact images currently attached (mmapped or,
    /// on fallback, read into memory).
    FrozenBytesMapped = 13,
    /// Client connections accepted by the daemon's reactor.
    ConnectionsAccepted = 14,
    /// Times the reactor suspended reading a connection (its in-flight
    /// window filled, or the job queue was at capacity).
    BackpressureSuspends = 15,
    /// Response writes that hit a full socket buffer and had to wait
    /// for writability (slow or stalled readers).
    WriteStalls = 16,
    /// Campaign work units handed to a daemon shard by the driver
    /// (a unit dispatched twice after failover counts twice).
    AppsDispatched = 17,
    /// Campaign work units completed and journaled exactly once.
    AppsCompleted = 18,
    /// Campaign work units re-dispatched after a transient failure or
    /// a daemon loss (failover re-queues count here, once per unit).
    Resubmissions = 19,
    /// Daemons declared dead by the campaign driver, with their
    /// residual shard reassigned to survivors.
    DaemonFailovers = 20,
    /// Batched fsync checkpoints flushed by the campaign journal.
    CheckpointFlushes = 21,
    /// App classes whose cached delta artifacts were reused verbatim.
    DeltaHits = 22,
    /// App classes with no usable cached artifact (first sight, hash
    /// change, corrupt/skewed store entry). `hits + misses` equals the
    /// classes seen by the delta scanner.
    DeltaMisses = 23,
    /// App classes actually pushed through a fresh per-group analysis
    /// (equals `delta_misses` unless a fallback full rescan widened the
    /// re-analyzed slice).
    ClassesReanalyzed = 24,
    /// DSD-overuse findings (unguarded use of an API above the declared
    /// `minSdkVersion`) across all vetted apps, post-dedup.
    DsdOveruseFound = 25,
    /// DSD-underuse findings (declared SDK bounds inconsistent with
    /// actual API usage) across all vetted apps, post-dedup.
    DsdUnderuseFound = 26,
    /// Apps pushed through the declared-SDK vetting pass (bumped once
    /// per scan whose detector set enables the DSD family; always
    /// `<= apps_scanned`).
    AppsVetted = 27,
    /// Delta scans answered by a whole-app replay straight from the
    /// encoded container bytes, before any SAPK decode (always `<=` the
    /// app-key replays, which are `<= apps_scanned`).
    DeltaUndecodedReplays = 28,
}

impl Counter {
    /// Every counter, in wire order. Snapshot vectors follow this order.
    pub const ALL: [Counter; 29] = [
        Counter::AppsScanned,
        Counter::MismatchesFound,
        Counter::ClassesLoaded,
        Counter::ClassBytes,
        Counter::MethodsAnalyzed,
        Counter::GraphBytes,
        Counter::UnresolvedLookups,
        Counter::InvocationSitesScanned,
        Counter::CallbackOverridesChecked,
        Counter::PermissionChecksPerformed,
        Counter::ScansPanicked,
        Counter::WorkersRespawned,
        Counter::ClientRetries,
        Counter::FrozenBytesMapped,
        Counter::ConnectionsAccepted,
        Counter::BackpressureSuspends,
        Counter::WriteStalls,
        Counter::AppsDispatched,
        Counter::AppsCompleted,
        Counter::Resubmissions,
        Counter::DaemonFailovers,
        Counter::CheckpointFlushes,
        Counter::DeltaHits,
        Counter::DeltaMisses,
        Counter::ClassesReanalyzed,
        Counter::DsdOveruseFound,
        Counter::DsdUnderuseFound,
        Counter::AppsVetted,
        Counter::DeltaUndecodedReplays,
    ];

    /// Stable snake_case name used on every export surface.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Counter::AppsScanned => "apps_scanned",
            Counter::MismatchesFound => "mismatches_found",
            Counter::ClassesLoaded => "classes_loaded",
            Counter::ClassBytes => "class_bytes",
            Counter::MethodsAnalyzed => "methods_analyzed",
            Counter::GraphBytes => "graph_bytes",
            Counter::UnresolvedLookups => "unresolved_lookups",
            Counter::InvocationSitesScanned => "invocation_sites_scanned",
            Counter::CallbackOverridesChecked => "callback_overrides_checked",
            Counter::PermissionChecksPerformed => "permission_checks_performed",
            Counter::ScansPanicked => "scans_panicked",
            Counter::WorkersRespawned => "workers_respawned",
            Counter::ClientRetries => "client_retries",
            Counter::FrozenBytesMapped => "frozen_bytes_mapped",
            Counter::ConnectionsAccepted => "connections_accepted",
            Counter::BackpressureSuspends => "backpressure_suspends",
            Counter::WriteStalls => "write_stalls",
            Counter::AppsDispatched => "apps_dispatched",
            Counter::AppsCompleted => "apps_completed",
            Counter::Resubmissions => "resubmissions",
            Counter::DaemonFailovers => "daemon_failovers",
            Counter::CheckpointFlushes => "checkpoint_flushes",
            Counter::DeltaHits => "delta_hits",
            Counter::DeltaMisses => "delta_misses",
            Counter::ClassesReanalyzed => "classes_reanalyzed",
            Counter::DsdOveruseFound => "dsd_overuse_found",
            Counter::DsdUnderuseFound => "dsd_underuse_found",
            Counter::AppsVetted => "apps_vetted",
            Counter::DeltaUndecodedReplays => "delta_undecoded_replays",
        }
    }
}

/// Number of log2 latency buckets. Bucket `i` counts samples with
/// `2^(i-1) µs <= latency < 2^i µs` (bucket 0 is `< 1 µs`); the last
/// bucket absorbs everything from ~4.2 s up.
pub const HIST_BUCKETS: usize = 23;

/// A fixed-size log2 histogram of latencies in microseconds.
///
/// Log2 bucketing gives ~2× resolution across nine decades in 23
/// words, which is plenty to tell "the explore phase went from tens of
/// µs to tens of ms" — the regression shape that matters — without
/// per-sample storage.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl LatencyHistogram {
    /// Maps a duration to its bucket index.
    #[must_use]
    pub fn bucket_of(d: Duration) -> usize {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        if us == 0 {
            return 0;
        }
        // 1 µs → bucket 1, 2–3 µs → bucket 2, 4–7 µs → bucket 3, …
        let b = 64 - u64::leading_zeros(us) as usize;
        b.min(HIST_BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&self, d: Duration) {
        self.buckets[Self::bucket_of(d)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the bucket counts out.
    #[must_use]
    pub fn snapshot(&self) -> [u64; HIST_BUCKETS] {
        let mut out = [0u64; HIST_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }
}

/// Accumulated observations for one [`Phase`]: sample count, total
/// time, and a latency histogram.
#[derive(Debug, Default)]
pub struct PhaseMetrics {
    count: AtomicU64,
    total_ns: AtomicU64,
    hist: LatencyHistogram,
}

impl PhaseMetrics {
    /// Records one completed span of this phase.
    pub fn record(&self, elapsed: Duration) {
        self.count.fetch_add(1, Ordering::Relaxed);
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.hist.record(elapsed);
    }

    /// Number of spans recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total nanoseconds across all recorded spans.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }
}

/// Point-in-time copy of one phase's accumulators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Stable phase name (see [`Phase::name`]).
    pub name: &'static str,
    /// Spans recorded.
    pub count: u64,
    /// Total nanoseconds across those spans.
    pub total_ns: u64,
    /// Log2-µs latency buckets (see [`HIST_BUCKETS`]).
    pub buckets: Vec<u64>,
}

/// Point-in-time copy of one monotone counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Stable counter name (see [`Counter::name`]).
    pub name: &'static str,
    /// Current value.
    pub value: u64,
}

/// Point-in-time copy of the whole registry. Phases and counters
/// appear in `Phase::ALL` / `Counter::ALL` order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// All phase accumulators.
    pub phases: Vec<PhaseSnapshot>,
    /// All monotone counters.
    pub counters: Vec<CounterSnapshot>,
}

impl RegistrySnapshot {
    /// Looks up a phase by its stable name.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<&PhaseSnapshot> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Looks up a counter value by its stable name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }
}

/// The shared registry: one `PhaseMetrics` per [`Phase`] plus one
/// atomic per [`Counter`]. Cheap to share (`Arc`), cheap to write
/// (relaxed `fetch_add`), and impossible to reset — counters are
/// monotone by construction, which is what the test oracle leans on.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    phases: [PhaseMetrics; Phase::ALL.len()],
    counters: [AtomicU64; Counter::ALL.len()],
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulator for one phase.
    #[must_use]
    pub fn phase(&self, phase: Phase) -> &PhaseMetrics {
        &self.phases[phase as usize]
    }

    /// Records one completed span of `phase`.
    pub fn record(&self, phase: Phase, elapsed: Duration) {
        self.phase(phase).record(elapsed);
    }

    /// Times `f` and records it under `phase`.
    pub fn time<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(phase, start.elapsed());
        out
    }

    /// Adds `n` to a monotone counter.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of a monotone counter.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Copies every accumulator out. Exact once recording threads have
    /// quiesced; a monotone lower bound while they are still running.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            phases: Phase::ALL
                .iter()
                .map(|&p| {
                    let m = self.phase(p);
                    PhaseSnapshot {
                        name: p.name(),
                        count: m.count(),
                        total_ns: m.total_ns(),
                        buckets: m.hist.snapshot().to_vec(),
                    }
                })
                .collect(),
            counters: Counter::ALL
                .iter()
                .map(|&c| CounterSnapshot {
                    name: c.name(),
                    value: self.counter(c),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_follow_log2_microseconds() {
        assert_eq!(LatencyHistogram::bucket_of(Duration::ZERO), 0);
        assert_eq!(LatencyHistogram::bucket_of(Duration::from_nanos(999)), 0);
        assert_eq!(LatencyHistogram::bucket_of(Duration::from_micros(1)), 1);
        assert_eq!(LatencyHistogram::bucket_of(Duration::from_micros(2)), 2);
        assert_eq!(LatencyHistogram::bucket_of(Duration::from_micros(3)), 2);
        assert_eq!(LatencyHistogram::bucket_of(Duration::from_micros(4)), 3);
        assert_eq!(LatencyHistogram::bucket_of(Duration::from_micros(1023)), 10);
        assert_eq!(LatencyHistogram::bucket_of(Duration::from_micros(1024)), 11);
        // The last bucket absorbs arbitrarily long samples.
        assert_eq!(
            LatencyHistogram::bucket_of(Duration::from_secs(3600)),
            HIST_BUCKETS - 1
        );
    }

    #[test]
    fn histogram_count_equals_phase_count() {
        let reg = MetricsRegistry::new();
        for us in [0u64, 1, 5, 900, 4096, 1_000_000] {
            reg.record(Phase::Explore, Duration::from_micros(us));
        }
        let snap = reg.snapshot();
        let explore = snap.phase("explore").unwrap();
        assert_eq!(explore.count, 6);
        assert_eq!(explore.buckets.iter().sum::<u64>(), 6);
        // Untouched phases stay empty.
        assert_eq!(snap.phase("clvm_load").unwrap().count, 0);
    }

    #[test]
    fn counters_are_monotone_and_named() {
        let reg = MetricsRegistry::new();
        reg.add(Counter::AppsScanned, 3);
        reg.add(Counter::AppsScanned, 2);
        assert_eq!(reg.counter(Counter::AppsScanned), 5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("apps_scanned"), Some(5));
        assert_eq!(snap.counter("mismatches_found"), Some(0));
        assert_eq!(snap.counter("no_such_counter"), None);
    }

    #[test]
    fn concurrent_recording_merges_exactly() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reg = std::sync::Arc::clone(&reg);
                s.spawn(move || {
                    for _ in 0..1000 {
                        reg.add(Counter::MethodsAnalyzed, 1);
                        reg.record(Phase::ClvmLoad, Duration::from_micros(7));
                    }
                });
            }
        });
        assert_eq!(reg.counter(Counter::MethodsAnalyzed), 4000);
        let clvm = reg.snapshot();
        let clvm = clvm.phase("clvm_load").unwrap();
        assert_eq!(clvm.count, 4000);
        assert_eq!(clvm.buckets.iter().sum::<u64>(), 4000);
    }

    #[test]
    fn time_returns_closure_result_and_records() {
        let reg = MetricsRegistry::new();
        let out = reg.time(Phase::ArmMine, || 42);
        assert_eq!(out, 42);
        assert_eq!(reg.phase(Phase::ArmMine).count(), 1);
    }
}
