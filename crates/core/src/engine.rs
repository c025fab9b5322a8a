//! The batch scan engine: work-stealing parallelism over many APKs.
//!
//! The paper's RQ3 scalability claim rests on analyzing thousands of
//! apps; doing that one-at-a-time wastes both cores and the fact that
//! every app targeting level L materializes the same framework
//! classes. [`ScanEngine`] fixes both: it shares one
//! [`ShardedClassCache`] across the whole batch and drains the app
//! list with a pool of scoped worker threads pulling indices off an
//! atomic counter — natural work stealing, since a worker that drew a
//! small app simply comes back for the next index while a worker stuck
//! on a 300-KLOC app keeps crunching.
//!
//! Determinism: reports come back in input order, and each report is
//! bit-identical to what a sequential [`SaintDroid::run`] over the
//! same app produces (mismatches *and* per-app meter) — asserted by
//! the `engine_parity` integration tests. Timing fields naturally
//! differ run to run.
//!
//! The same primitive is exposed as [`par_map`] / [`par_map_indexed`]
//! for harnesses that interleave other per-app work (timing baseline
//! tools, reading corpus metadata) with the scan.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use saint_adf::AndroidFramework;
use saint_ir::Apk;
use saint_obs::{Counter, MetricsRegistry, MetricsSnapshot, TraceSink};

pub use crate::amd::invocation::DeepScanCache;
pub use saint_analysis::{ArtifactCache, CacheStats, ShardedClassCache};

use crate::detector::{CompatDetector, DetectorSet};
use crate::error::{self, ScanError, PHASE_UNKNOWN};
use crate::report::Report;
use crate::saintdroid::SaintDroid;

/// A parallel scanner over batches of APKs.
///
/// Scheduling is two-level: the global worker budget (`jobs`) is split
/// into corpus-level *app slots* and intra-app *task slots* — see
/// [`app_jobs`](ScanEngine::app_jobs). A batch of small apps saturates
/// cores via app parallelism; one huge app saturates them via intra-app
/// parallelism (shared-CLVM exploration, concurrent detectors, parallel
/// framework-subtree scans). Reports are byte-identical either way.
pub struct ScanEngine {
    tool: SaintDroid,
    jobs: usize,
    app_jobs: Option<usize>,
    pub(crate) frozen: OnceLock<crate::frozen::FrozenState>,
}

/// The outcome of [`ScanEngine::scan_batch_timed`] and
/// [`ScanEngine::scan_frozen_batch_timed`].
#[derive(Debug)]
pub struct BatchScan {
    /// One report per input APK, in input order.
    pub reports: Vec<Report>,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
    /// Worker threads the batch actually ran on.
    pub workers: usize,
}

impl BatchScan {
    /// Batch throughput in apps per second of wall time.
    #[must_use]
    pub fn apps_per_sec(&self) -> f64 {
        self.reports.len() as f64 / self.wall.as_secs_f64().max(f64::EPSILON)
    }

    /// The largest per-app materialized footprint in the batch — the
    /// deterministic stand-in for peak RSS (paper Figure 4).
    #[must_use]
    pub fn peak_loaded_bytes(&self) -> usize {
        self.reports
            .iter()
            .map(|r| r.meter.total_bytes())
            .max()
            .unwrap_or(0)
    }
}

/// The default worker count: one per available core, capped.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(4, |p| p.get().min(16))
}

/// Workers actually worth running for `n` CPU-bound items: never more
/// than requested, than items, or than hardware threads.
fn effective_workers(requested: usize, n: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(usize::MAX, |p| p.get());
    requested.min(n).min(cores).max(1)
}

impl ScanEngine {
    /// An engine over a framework model with [`default_jobs`] workers
    /// and fresh batch-wide caches: framework classes, framework-method
    /// artifacts, and framework subtree scans.
    #[must_use]
    pub fn new(framework: Arc<AndroidFramework>) -> Self {
        Self::from_tool(
            SaintDroid::new(framework)
                .with_shared_cache(Arc::new(ShardedClassCache::new()))
                .with_shared_artifact_cache(Arc::new(ArtifactCache::new()))
                .with_shared_scan_cache(Arc::new(DeepScanCache::new())),
        )
    }

    /// Wraps an already-configured tool (custom exploration policy,
    /// pre-warmed or absent cache). The tool is used as-is: pass one
    /// *without* a shared cache to get parallelism with strictly
    /// per-app materialization.
    #[must_use]
    pub fn from_tool(tool: SaintDroid) -> Self {
        ScanEngine {
            tool,
            jobs: default_jobs(),
            app_jobs: None,
            frozen: OnceLock::new(),
        }
    }

    /// Sets the requested worker count (clamped to at least 1).
    /// `jobs(1)` scans sequentially on the calling thread.
    ///
    /// The count actually used is additionally capped at the machine's
    /// available parallelism: analysis is CPU-bound, so threads beyond
    /// the core count only add context switching and lock handoff —
    /// on a single-core machine `jobs(4)` degrades to a sequential
    /// scan that still enjoys the batch-wide class cache.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The configured worker count.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.jobs
    }

    /// Sets an explicit intra-app worker count: every app slot analyzes
    /// its app with `m` intra-app tasks, and the number of concurrent
    /// app slots shrinks to `jobs / m` so the global budget holds. By
    /// default (auto) the split is derived from the batch size: as many
    /// app slots as there are apps (up to `jobs`), with the leftover
    /// budget handed to each slot as intra-app tasks.
    #[must_use]
    pub fn app_jobs(mut self, m: usize) -> Self {
        self.app_jobs = Some(m.max(1));
        self
    }

    /// The explicit intra-app worker count, if one was set.
    #[must_use]
    pub fn app_job_count(&self) -> Option<usize> {
        self.app_jobs
    }

    /// Splits the global budget into `(app slots, intra-app jobs)` for
    /// a batch of `n` apps, keeping `slots × per_app ≈ jobs`.
    ///
    /// Auto mode fills app slots first (whole-app units parallelize
    /// with zero coordination) and hands each slot the leftover budget
    /// as intra-app tasks, additionally capped by the machine's cores —
    /// analysis is CPU-bound, so intra-app threads beyond the hardware
    /// only add lock handoff. An explicit [`app_jobs`] count is honored
    /// as requested (clamped to the budget only).
    ///
    /// [`app_jobs`]: ScanEngine::app_jobs
    pub(crate) fn schedule(&self, n: usize) -> (usize, usize) {
        let budget = self.jobs.max(1);
        match self.app_jobs {
            Some(m) => {
                let per_app = m.min(budget);
                let slots = effective_workers(budget / per_app, n);
                (slots, per_app)
            }
            None => {
                let slots = effective_workers(budget, n).max(1);
                let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
                let per_app = (budget / slots).min((cores / slots).max(1)).max(1);
                (slots, per_app)
            }
        }
    }

    /// The underlying analyzer.
    #[must_use]
    pub fn tool(&self) -> &SaintDroid {
        &self.tool
    }

    /// Attaches a metrics registry: every scan through this engine
    /// records phase spans and counters into it. Reports stay
    /// byte-identical — recording is observation only.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.tool = self.tool.with_metrics(metrics);
        self
    }

    /// Sets the enabled detector families (see
    /// [`SaintDroid::with_detectors`]); the batch caches stay attached.
    #[must_use]
    pub fn with_detectors(mut self, detectors: DetectorSet) -> Self {
        self.tool = self.tool.with_detectors(detectors);
        self
    }

    /// Attaches a trace sink: every scan emits Chrome-trace span
    /// events into it (the `--trace-json` export).
    #[must_use]
    pub fn with_trace(mut self, trace: Arc<TraceSink>) -> Self {
        self.tool = self.tool.with_trace(trace);
        self
    }

    /// Attaches a fresh registry if the engine does not carry one yet.
    /// Long-lived consumers (the daemon) call this once at startup so a
    /// `metrics` request always has something to answer with; engines
    /// built without one keep the zero-overhead default.
    #[must_use]
    pub fn ensure_metrics(self) -> Self {
        if self.tool.metrics().is_some() {
            return self;
        }
        self.with_metrics(Arc::new(MetricsRegistry::new()))
    }

    /// The attached registry, if any.
    #[must_use]
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.tool.metrics()
    }

    /// The unified observability view: phase spans and counters from
    /// the registry (empty when none is attached), plus the three
    /// shared-cache surfaces and the accumulated meter totals. The
    /// queue field is filled in by the daemon, which owns queue state.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        // With no registry attached, snapshot a fresh one: consumers
        // get every phase and counter present (at zero) either way.
        let registry = self
            .tool
            .metrics()
            .map_or_else(|| MetricsRegistry::new().snapshot(), |m| m.snapshot());
        let meter = MetricsSnapshot::meter_from(&registry);
        MetricsSnapshot {
            registry,
            class_cache: self.cache_stats(),
            artifact_cache: self.artifact_cache_stats(),
            deep_scan_cache: self.scan_cache_stats(),
            meter,
            queue: None,
        }
    }

    /// Pays the one-time framework costs (API-database mining and
    /// permission-map construction) up front, so the first scan through
    /// this engine is as fast as every later one. Long-lived consumers
    /// — the scan-service daemon warms its engine before accepting
    /// connections — call this once at startup; it is idempotent.
    /// When a frozen image is attached, the once-per-framework
    /// artifacts come out of the image (linear decode instead of
    /// mining) and the shared class cache is bulk-populated from the
    /// image's deduplicated class blobs, so steady-state scans never
    /// materialize framework classes from the spec at all.
    pub fn prewarm(&self) {
        let arm = self.tool.arm();
        let _ = arm.database();
        let _ = arm.permission_map();
        self.preload_frozen_classes();
    }

    /// Scans a single package on the calling thread with this engine's
    /// warm shared caches and the configured intra-app budget
    /// ([`app_jobs`](Self::app_jobs), default 1). This is the reuse
    /// hook for services that schedule whole requests themselves: `N`
    /// threads calling `scan_one` concurrently get exactly the
    /// batch-engine sharing (one framework materialization per
    /// `(level, class)` across all requests) without batch ordering.
    /// The report is byte-identical (mismatches and meter) to
    /// `scan_batch` over the same package.
    #[must_use]
    pub fn scan_one(&self, apk: &Apk) -> Report {
        let per_app = self.app_jobs.unwrap_or(1);
        self.run_isolated(apk, per_app)
    }

    /// [`scan_one`](Self::scan_one) with the failure surfaced as a
    /// typed `Err` instead of folded into the report — the entry point
    /// for callers (the scan-service daemon) that map errors onto a
    /// wire protocol rather than a report stream.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::Internal`] when the scan panicked; the
    /// panic is caught here and never crosses this boundary.
    pub fn try_scan_one(&self, apk: &Apk) -> Result<Report, ScanError> {
        let per_app = self.app_jobs.unwrap_or(1);
        self.isolate(PHASE_UNKNOWN, || self.tool.run_with_jobs(apk, per_app))
    }

    /// The engine's panic-isolation boundary: runs `f` under
    /// `catch_unwind`, demoting a panic to a typed [`ScanError`] and
    /// bumping [`Counter::ScansPanicked`]. Every scan the engine
    /// performs — single, batch, sequential or pooled — funnels through
    /// here, and so does every step of a daemon request (decode, delta
    /// replay, incremental scan). The error names `phase` unless a
    /// pipeline phase inside `f` (`explore`, a detector family) was
    /// running when the unwind started.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::Internal`] when `f` panicked; the panic is
    /// caught here and never crosses this boundary.
    pub fn isolate<T>(&self, phase: &'static str, f: impl FnOnce() -> T) -> Result<T, ScanError> {
        // A stale marker from an earlier caught unwind on this worker
        // thread must not label this failure.
        error::reset_phase();
        catch_unwind(AssertUnwindSafe(|| error::in_phase(phase, f))).map_err(|payload| {
            if let Some(metrics) = self.metrics() {
                metrics.add(Counter::ScansPanicked, 1);
            }
            error::from_panic(payload)
        })
    }

    /// One isolated scan with the failure folded into an error-only
    /// report, so batch output keeps its one-report-per-input shape.
    pub(crate) fn run_isolated(&self, apk: &Apk, per_app: usize) -> Report {
        self.isolate(PHASE_UNKNOWN, || self.tool.run_with_jobs(apk, per_app))
            .unwrap_or_else(|err| {
                Report::from_error(apk.manifest.package.clone(), self.tool.name(), err)
            })
    }

    /// Activity counters of the batch class cache, if the tool carries
    /// one.
    #[must_use]
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.tool.shared_cache().map(|c| c.stats())
    }

    /// Activity counters of the batch framework-subtree scan cache, if
    /// the tool carries one.
    #[must_use]
    pub fn scan_cache_stats(&self) -> Option<CacheStats> {
        self.tool.shared_scan_cache().map(|c| c.stats())
    }

    /// Activity counters of the batch framework-artifact cache, if the
    /// tool carries one.
    #[must_use]
    pub fn artifact_cache_stats(&self) -> Option<CacheStats> {
        self.tool.shared_artifact_cache().map(|c| c.stats())
    }

    /// Scans a batch, returning one report per APK in input order.
    #[must_use]
    pub fn scan_batch(&self, apks: &[Apk]) -> Vec<Report> {
        self.scan_batch_timed(apks).reports
    }

    /// Scans a batch and reports wall time plus the worker count.
    #[must_use]
    pub fn scan_batch_timed(&self, apks: &[Apk]) -> BatchScan {
        self.drive_batch(apks.len(), |i, per_app| {
            self.run_isolated(&apks[i], per_app)
        })
    }

    /// The one batch driver behind every package source: splits the
    /// budget for `n` packages with [`schedule`](Self::schedule) and
    /// drains `scan_at(index, per_app_jobs)` over the app slots with
    /// [`par_map_indexed`]'s work stealing, reports in input order.
    pub(crate) fn drive_batch<F>(&self, n: usize, scan_at: F) -> BatchScan
    where
        F: Fn(usize, usize) -> Report + Sync,
    {
        let start = Instant::now();
        let (workers, per_app) = self.schedule(n);
        let reports = par_map_indexed(workers, n, |i| scan_at(i, per_app));
        BatchScan {
            reports,
            wall: start.elapsed(),
            workers,
        }
    }
}

impl std::fmt::Debug for ScanEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanEngine")
            .field("jobs", &self.jobs)
            .field("app_jobs", &self.app_jobs)
            .field("shared_cache", &self.tool.shared_cache().is_some())
            .finish()
    }
}

/// Applies `f(index)` for every index in `0..n` across `jobs` scoped
/// worker threads (work-stealing via an atomic index), collecting the
/// results in index order. With `jobs <= 1` or `n <= 1` it runs on the
/// calling thread.
///
/// This is the engine's scheduling core with the scan swapped out —
/// the experiment harnesses use it to time baseline tools and read
/// corpus metadata in the same pass as the SAINTDroid scan.
pub fn par_map_indexed<R, F>(jobs: usize, n: usize, f: F) -> Vec<R>
where
    R: Send + Sync,
    F: Fn(usize) -> R + Sync,
{
    let workers = effective_workers(jobs, n);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let _ = slots[i].set(f(i));
                })
            })
            .collect();
        for h in handles {
            h.join().expect("par_map worker panicked");
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index was mapped"))
        .collect()
}

/// [`par_map_indexed`] over a slice: `f(index, &items[index])`.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_indexed(jobs, items.len(), |i| f(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use saint_ir::{ApiLevel, ApkBuilder, BodyBuilder, ClassBuilder, ClassOrigin};

    fn apk(pkg: &str, call_modern_api: bool) -> Apk {
        let main = ClassBuilder::new(format!("{pkg}.Main"), ClassOrigin::App)
            .extends("android.app.Activity")
            .method(
                "onCreate",
                "(Landroid/os/Bundle;)V",
                |b: &mut BodyBuilder| {
                    if call_modern_api {
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

    fn small_batch() -> Vec<Apk> {
        (0..6).map(|i| apk(&format!("p{i}"), i % 2 == 0)).collect()
    }

    #[test]
    fn batch_matches_sequential_run() {
        let fw = Arc::new(AndroidFramework::curated());
        let apks = small_batch();
        let sequential: Vec<Report> = apks
            .iter()
            .map(|a| SaintDroid::new(Arc::clone(&fw)).run(a))
            .collect();
        let batch = ScanEngine::new(Arc::clone(&fw)).jobs(3).scan_batch(&apks);
        assert_eq!(batch.len(), sequential.len());
        for (b, s) in batch.iter().zip(&sequential) {
            assert_eq!(b.package, s.package);
            assert_eq!(b.mismatches, s.mismatches);
            assert_eq!(b.meter.total_bytes(), s.meter.total_bytes());
        }
    }

    #[test]
    fn batch_cache_deduplicates_materialization() {
        let fw = Arc::new(AndroidFramework::curated());
        let engine = ScanEngine::new(fw).jobs(2);
        let _ = engine.scan_batch(&small_batch());
        let stats = engine.cache_stats().expect("engine installs a cache");
        assert!(
            stats.hits > 0,
            "6 similar apps must share classes: {stats:?}"
        );
        assert!(stats.entries > 0);
    }

    #[test]
    fn timed_scan_accounts_every_app_once() {
        let fw = Arc::new(AndroidFramework::curated());
        let apks = small_batch();
        let outcome = ScanEngine::new(fw).jobs(4).scan_batch_timed(&apks);
        assert_eq!(outcome.reports.len(), apks.len());
        assert!((1..=apks.len()).contains(&outcome.workers));
        assert!(outcome.wall > Duration::ZERO);
        assert!(outcome.apps_per_sec() > 0.0);
        assert!(outcome.peak_loaded_bytes() > 0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let fw = Arc::new(AndroidFramework::curated());
        let outcome = ScanEngine::new(fw).scan_batch_timed(&[]);
        assert!(outcome.reports.is_empty());
        assert_eq!(outcome.peak_loaded_bytes(), 0);
    }

    #[test]
    fn par_map_preserves_order() {
        let squares = par_map_indexed(5, 100, |i| i * i);
        assert_eq!(squares.len(), 100);
        for (i, sq) in squares.iter().enumerate() {
            assert_eq!(*sq, i * i);
        }
        let items: Vec<usize> = (0..37).collect();
        let doubled = par_map(3, &items, |i, v| {
            assert_eq!(i, *v);
            v * 2
        });
        assert_eq!(doubled, items.iter().map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn two_level_schedule_splits_budget() {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let fw = Arc::new(AndroidFramework::curated());
        let engine = ScanEngine::new(Arc::clone(&fw)).jobs(8);
        // Auto: the split always respects the global budget.
        for n in [1, 2, 100] {
            let (slots, per_app) = engine.schedule(n);
            assert!(slots >= 1 && per_app >= 1);
            assert!(slots * per_app <= 8.max(cores));
            assert!(slots <= n.max(1));
        }
        // Auto: one app → every usable worker goes intra-app.
        let (slots, per_app) = engine.schedule(1);
        assert_eq!(slots, 1);
        assert_eq!(per_app, 8.min(cores));
        // Explicit --app-jobs 4 under a budget of 8: at most two app
        // slots, exactly four intra-app tasks each.
        let engine = ScanEngine::new(fw).jobs(8).app_jobs(4);
        let (slots, per_app) = engine.schedule(100);
        assert_eq!(per_app, 4);
        assert!((1..=2).contains(&slots));
    }

    #[test]
    fn intra_app_batch_matches_sequential_run() {
        let fw = Arc::new(AndroidFramework::curated());
        let apks = small_batch();
        let sequential: Vec<Report> = apks
            .iter()
            .map(|a| SaintDroid::new(Arc::clone(&fw)).run(a))
            .collect();
        let batch = ScanEngine::new(Arc::clone(&fw))
            .jobs(4)
            .app_jobs(2)
            .scan_batch(&apks);
        for (b, s) in batch.iter().zip(&sequential) {
            assert_eq!(b.package, s.package);
            assert_eq!(b.mismatches, s.mismatches);
            assert_eq!(b.meter, s.meter);
        }
    }

    #[test]
    fn jobs_zero_clamps_to_one() {
        let fw = Arc::new(AndroidFramework::curated());
        let engine = ScanEngine::new(Arc::clone(&fw)).jobs(0);
        assert_eq!(engine.job_count(), 1);
        let (slots, per_app) = engine.schedule(5);
        assert_eq!((slots, per_app), (1, 1));
        // app_jobs(0) likewise clamps instead of dividing by zero.
        let engine = ScanEngine::new(fw).jobs(0).app_jobs(0);
        assert_eq!(engine.app_job_count(), Some(1));
        let (slots, per_app) = engine.schedule(5);
        assert_eq!((slots, per_app), (1, 1));
    }

    #[test]
    fn app_jobs_larger_than_budget_is_clamped() {
        let fw = Arc::new(AndroidFramework::curated());
        let engine = ScanEngine::new(fw).jobs(2).app_jobs(16);
        // The explicit intra-app request cannot exceed the global
        // budget: per-app shrinks to the budget, leaving one app slot.
        let (slots, per_app) = engine.schedule(10);
        assert_eq!(per_app, 2);
        assert_eq!(slots, 1);
    }

    #[test]
    fn from_tool_engine_without_caches_reports_none() {
        let fw = Arc::new(AndroidFramework::curated());
        let engine = ScanEngine::from_tool(SaintDroid::new(fw));
        assert!(engine.cache_stats().is_none());
        assert!(engine.scan_cache_stats().is_none());
        assert!(engine.artifact_cache_stats().is_none());
        // The cache-less engine still scans (strictly per-app
        // materialization).
        let report = engine.scan_one(&apk("nocache", true));
        assert_eq!(report.package, "nocache");
    }

    #[test]
    fn scan_one_matches_batch_report() {
        let fw = Arc::new(AndroidFramework::curated());
        let apks = small_batch();
        let engine = ScanEngine::new(Arc::clone(&fw)).jobs(2);
        let batch = engine.scan_batch(&apks);
        let warm = ScanEngine::new(fw).jobs(2);
        warm.prewarm();
        for (apk, expected) in apks.iter().zip(&batch) {
            let one = warm.scan_one(apk);
            assert_eq!(one.package, expected.package);
            assert_eq!(one.mismatches, expected.mismatches);
            assert_eq!(one.meter, expected.meter);
        }
    }

    #[test]
    fn metrics_snapshot_reflects_scans_and_reports_stay_identical() {
        let fw = Arc::new(AndroidFramework::curated());
        let apks = small_batch();
        let plain = ScanEngine::new(Arc::clone(&fw)).jobs(2).scan_batch(&apks);
        let metered = ScanEngine::new(Arc::clone(&fw)).jobs(2).ensure_metrics();
        let reports = metered.scan_batch(&apks);
        // Observation never changes the analysis.
        for (m, p) in reports.iter().zip(&plain) {
            assert_eq!(m.mismatches, p.mismatches);
            assert_eq!(m.meter, p.meter);
        }
        let snap = metered.metrics_snapshot();
        assert_eq!(
            snap.registry.counter("apps_scanned"),
            Some(apks.len() as u64)
        );
        let scans = snap.registry.phase("scan_total").expect("scan spans");
        assert_eq!(scans.count, apks.len() as u64);
        assert!(scans.total_ns > 0);
        let cc = snap.class_cache.expect("engine installs a class cache");
        assert_eq!(cc.hits + cc.misses, cc.lookups);
        assert!(cc.lookups > 0);
        // Meter totals equal the sum of the per-app report meters.
        let bytes: u64 = reports.iter().map(|r| r.meter.total_bytes() as u64).sum();
        assert_eq!(snap.meter.total_bytes(), bytes);
        // No registry attached → empty but well-formed snapshot.
        let bare = ScanEngine::new(fw).metrics_snapshot();
        assert_eq!(bare.registry.counter("apps_scanned"), Some(0));
        assert!(bare.queue.is_none());
    }

    #[test]
    fn par_map_sequential_fallback() {
        assert_eq!(par_map_indexed(1, 4, |i| i + 1), vec![1, 2, 3, 4]);
        assert_eq!(par_map_indexed(8, 0, |i| i), Vec::<usize>::new());
    }
}
