//! **bench_summary** — headline numbers for the batch scan engine:
//! sequential `SaintDroid::run` (one plain tool, one app at a time)
//! vs `ScanEngine::scan_batch` with 4 workers and the batch-wide
//! caches, over the real-world corpus; plus the **large-app** pair —
//! few apps, several times the KLOC — where the same plain sequential
//! shape is measured against the intra-app-parallel pipeline
//! (shared-CLVM exploration, concurrent detectors, parallel
//! framework-subtree scans, batch caches) with a per-phase breakdown
//! (explore vs detect), so single-app latency is visible separately
//! from batch throughput; plus the **service regime** — the corpus
//! pushed through a warm `saint-service` event-loop daemon by a
//! ladder of concurrent pipelined connections (1 / 64 / 1000 clients,
//! id-tagged scans in flight, newline-delimited JSON), emitting
//! apps/s plus p50/p99 wire latency per rung and measured against the
//! in-process batch engine's throughput — the online-vetting shape,
//! where the daemon must hold batch-engine throughput under
//! store-scale ingest; plus the
//! **frozen regime** — the same batch read off pre-compiled, mmap'd
//! `.sfrz` images (framework artifacts attached instead of mined, the
//! corpus decoded in place) against the parsed batch, and the
//! parsed-vs-frozen time-to-first-scan pair a daemon pays at startup;
//! plus the **campaign regime** — the corpus sharded across local
//! fleets of 1 / 2 / 4 paced daemons by the campaign driver
//! (consistent hashing, checkpointed journal), emitting apps/s per
//! fleet size with per-daemon attribution and a fingerprint-parity
//! gate against the batch engine at every size.
//!
//! Each side is timed in a **fresh child process** (best of
//! `SAINT_REPS`, default 3, alternating sides) so neither side inherits
//! the other's heap: measuring both in one process lets allocator state
//! and retained memory from whichever side ran first distort the
//! second, burying the real difference under noise. Children also emit
//! a fingerprint over every report; the parent verifies the two sides
//! produced identical per-app reports (mismatches *and* metered bytes)
//! before writing `BENCH_scan.json` to the working directory.
//!
//! ```text
//! cargo run --release -p saint-bench --bin bench_summary
//! SAINT_SCALE=small SAINT_REPS=5 cargo run --release -p saint-bench --bin bench_summary
//! ```

use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use saint_analysis::{ArtifactCache, ShardedClassCache};
use saint_bench::{framework_at, Scale};
use saint_corpus::RealWorldCorpus;
use saint_frozen::{fnv1a, FNV_OFFSET};
use saint_ir::Apk;
use saint_obs::MetricsRegistry;
use saintdroid::amd::invocation::DeepScanCache;
use saintdroid::engine::default_jobs;
use saintdroid::{Report, SaintDroid, ScanEngine};
use serde::Serialize;

const SIDE_ENV: &str = "SAINT_BENCH_SIDE";
const OUT_ENV: &str = "SAINT_BENCH_OUT";
/// Directory of pre-encoded `.sapk` files for the service regime: the
/// client child submits them over the protocol, so corpus generation
/// is never inside a timed region.
const PKG_DIR_ENV: &str = "SAINT_BENCH_PKG_DIR";
/// How many concurrent pipelined clients a `service-clients` child
/// drives against its daemon.
const CLIENTS_ENV: &str = "SAINT_BENCH_CLIENTS";
/// Pre-compiled frozen framework image (`.sfrz`) for the frozen-regime
/// children: the parent compiles it once so no child pays freezing
/// inside its timed region — children only attach.
const FROZEN_FW_ENV: &str = "SAINT_BENCH_FROZEN_FW";
/// Pre-compiled frozen corpus image for the frozen-regime children.
const FROZEN_CORPUS_ENV: &str = "SAINT_BENCH_FROZEN_CORPUS";
/// The concurrent-clients ladder of the service regime: one pipelined
/// connection, a rackful, and store-scale ingest.
const SERVICE_CLIENT_COUNTS: [usize; 3] = [1, 64, 1000];
/// Per-client pipeline depth (clamped to the client's share of the
/// scans) for the service regime.
const SERVICE_WINDOW: usize = 32;
/// Daemon queue depth for the service regime: deep enough that a
/// thousand single-scan pipelines queue instead of parking.
const SERVICE_QUEUE_DEPTH: usize = 1024;
/// The campaign regime's fleet-size ladder.
const CAMPAIGN_FLEET_SIZES: [usize; 3] = [1, 2, 4];
/// Artificial per-scan service time for every campaign daemon
/// (`jobs=1` each): capacity emulation. A daemon's throughput is then
/// `1 / (pace + real scan cost)`, so adding daemons scales the fleet
/// the way adding *machines* would, even when the measuring host has
/// fewer cores than daemons — what the campaign driver distributes is
/// service capacity, not CPU. The real per-scan cost stays in the
/// denominator, so the numbers remain honest about the host
/// (`host_cores` is recorded alongside).
const CAMPAIGN_PACE_MS: u64 = 25;
/// Share of the corpus that ships an update in the incremental
/// regime's churn wave (5% — typical daily app-update traffic).
const INCREMENTAL_WAVE_PCT: f64 = 0.05;
/// Share of each updated app's classes the wave mutates.
const INCREMENTAL_CHURN: f64 = 0.10;

#[derive(Serialize)]
struct Summary {
    scale: String,
    apps: usize,
    jobs: usize,
    reps: usize,
    sequential_secs: f64,
    batch_secs: f64,
    sequential_apps_per_sec: f64,
    batch_apps_per_sec: f64,
    speedup: f64,
    peak_loaded_bytes: usize,
    cache_hits: u64,
    cache_misses: u64,
    cache_entries: usize,
    artifact_cache_hits: u64,
    artifact_cache_misses: u64,
    scan_cache_hits: u64,
    scan_cache_misses: u64,
    mismatches: usize,
    reports_identical: bool,
    metrics: MetricsOverheadSummary,
    large_app: LargeAppSummary,
    service: ServiceSummary,
    frozen: FrozenSummary,
    campaign: CampaignSummary,
    incremental: IncrementalSummary,
}

/// The incremental regime: the whole corpus rescanned after an
/// app-update wave — [`INCREMENTAL_WAVE_PCT`] of the apps ship a new
/// version with [`INCREMENTAL_CHURN`] of their classes mutated
/// (analysis-neutral, but content-hash-changing) — through the
/// `saint-delta` artifact store, against a plain full rescan of the
/// same updated corpus. The store was populated by the previous scan
/// of the corpus (outside the timed region — every store already paid
/// it), so unchanged apps ride the whole-app fast path and updated
/// apps re-analyze only their changed class groups. The fingerprint
/// gate holds the tentpole guarantee: both rescans must produce
/// byte-identical reports.
#[derive(Serialize)]
struct IncrementalSummary {
    apps: usize,
    /// Apps that shipped an update in the wave.
    updated_apps: usize,
    /// Share of each updated app's classes mutated.
    churn_pct: f64,
    full_rescan_secs: f64,
    incremental_rescan_secs: f64,
    full_apps_per_sec: f64,
    incremental_apps_per_sec: f64,
    /// Full-rescan wall over incremental wall (acceptance bound: >= 3x
    /// at the medium 400-app scale).
    speedup: f64,
    delta_hits: u64,
    delta_misses: u64,
    classes_reanalyzed: u64,
    /// `delta_hits / classes_seen` across the incremental rescan.
    hit_rate: f64,
    /// Rescans served entirely by the whole-app fast path.
    app_fast_path: usize,
    mismatches: usize,
    reports_identical: bool,
}

/// The campaign regime: the whole corpus pushed through
/// `saint_campaign::run_campaign` — consistent-hash sharding, one
/// pipelined connection per daemon, checkpointed journal — against
/// local fleets of 1 / 2 / 4 paced daemons ([`CAMPAIGN_PACE_MS`],
/// `jobs=1` each, so daemon *capacity* is the bottleneck and fleet
/// scaling is visible on any host). Every run's per-app results are
/// fingerprint-checked against the in-process batch engine's reports,
/// and the result-set fingerprint must be identical at every fleet
/// size — distribution must change nothing about the answer.
#[derive(Serialize)]
struct CampaignSummary {
    apps: usize,
    jobs_per_daemon: usize,
    window: usize,
    chunk: usize,
    /// Artificial per-scan service time added by every daemon.
    pace_ms: u64,
    /// Cores on the measuring host — context for reading the paced
    /// fleet numbers (4 daemons on 1 core share that core's real scan
    /// cost).
    host_cores: usize,
    reps: usize,
    mismatches: usize,
    reports_identical: bool,
    /// Fleet-2 throughput over fleet-1 (the acceptance bound: >= 1.5x).
    speedup_fleet2_over_fleet1: f64,
    fleets: Vec<CampaignFleetRegime>,
}

/// One rung of the campaign fleet ladder (best of `reps` runs).
#[derive(Serialize)]
struct CampaignFleetRegime {
    fleet: usize,
    secs: f64,
    apps_per_sec: f64,
    resubmissions: u64,
    daemon_failovers: u64,
    checkpoint_flushes: u64,
    /// Per-daemon completion attribution from the winning run.
    per_daemon: Vec<saint_campaign::DaemonStats>,
    /// FNV fingerprint of the campaign's result set (id-ordered per-app
    /// report fingerprints) — identical across every fleet size.
    report_fingerprint: String,
}

/// The frozen-artifact regime: the batch engine reading the mined
/// framework artifacts and the SAPK corpus off pre-compiled `.sfrz`
/// images (mmap'd, decoded in place) against the metrics-on parsed
/// batch; plus the time-to-first-scan pair — everything a fresh daemon
/// pays between exec and its first report, framework mined from spec on
/// one side vs attached from the image on the other. The clvm_load
/// shares come from the registry on both sides: the frozen side's
/// prewarm preloads every framework class from the image, so warm-path
/// materialization should all but vanish.
#[derive(Serialize)]
struct FrozenSummary {
    apps: usize,
    jobs: usize,
    framework_image_bytes: u64,
    corpus_image_bytes: u64,
    parsed_batch_secs: f64,
    frozen_batch_secs: f64,
    parsed_clvm_share_pct: f64,
    frozen_clvm_share_pct: f64,
    ttfs_parsed_secs: f64,
    ttfs_parsed_startup_secs: f64,
    ttfs_frozen_secs: f64,
    ttfs_frozen_startup_secs: f64,
    ttfs_speedup: f64,
    mismatches: usize,
    reports_identical: bool,
}

/// The observability regime: the same batch scan with the metrics
/// registry attached, against the plain batch side. `overhead_pct` is
/// the wall-clock cost of recording (acceptance bound: <= 2%); the
/// phase splits and hit rates are what the registry itself measured —
/// the paper's Tables III–IV per-phase story from live counters
/// instead of external stopwatches.
#[derive(Serialize)]
struct MetricsOverheadSummary {
    batch_secs: f64,
    batch_metrics_secs: f64,
    overhead_pct: f64,
    scan_spans: u64,
    clvm_load_secs: f64,
    explore_secs: f64,
    detect_secs: f64,
    scan_total_secs: f64,
    class_cache_hit_rate: f64,
    artifact_cache_hit_rate: f64,
    scan_cache_hit_rate: f64,
    reports_identical: bool,
}

/// The service regime: the warm event-loop daemon under a ladder of
/// concurrent pipelined clients (1 / 64 / 1000 connections), measured
/// against the in-process batch engine's throughput over the same
/// corpus. One warm daemon per client count (startup — framework
/// mining, cache prewarm, bind — is outside every timed region), then
/// [`service_reps`] measured passes with the best wall kept, frozen-
/// regime style. Every pass records each request's wire latency, so
/// p50/p99 come from the winning pass, and every pass's reports are
/// fingerprint-checked against the batch engine's.
#[derive(Serialize)]
struct ServiceSummary {
    apps: usize,
    jobs: usize,
    window: usize,
    queue_depth: usize,
    reps: usize,
    batch_apps_per_sec: f64,
    regimes: Vec<ClientsRegime>,
}

/// One rung of the concurrent-clients ladder.
#[derive(Serialize)]
struct ClientsRegime {
    clients: usize,
    scans: usize,
    warm_startup_secs: f64,
    secs: f64,
    apps_per_sec: f64,
    /// Warm pipelined throughput as a share of the in-process batch
    /// engine's (the tentpole acceptance bound: >= 90% at 1k clients).
    pct_of_batch: f64,
    p50_ms: f64,
    p99_ms: f64,
    mismatches: usize,
    reports_identical: bool,
}

/// What one `service-clients` child (one daemon, one client count,
/// best of [`service_reps`] passes) reports back.
#[derive(Serialize, serde::Deserialize)]
struct ClientsRun {
    clients: usize,
    scans: usize,
    startup_secs: f64,
    wall_secs: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// FNV-1a fingerprint over the first full corpus cycle of reports,
    /// in corpus order — directly comparable to the batch side's
    /// `reports_fingerprint` at any client count.
    corpus_fingerprint: String,
    mismatches: usize,
}

/// The large-app pair: few apps, several times the KLOC, so the run is
/// in the single-app-latency regime where batch-level app slots cannot
/// help and intra-app parallelism is the only lever. Per-phase seconds
/// separate Algorithm-1 exploration from AMD detection.
#[derive(Serialize)]
struct LargeAppSummary {
    apps: usize,
    app_jobs: usize,
    sequential_secs: f64,
    parallel_secs: f64,
    speedup: f64,
    sequential_explore_secs: f64,
    sequential_detect_secs: f64,
    parallel_explore_secs: f64,
    parallel_detect_secs: f64,
    mismatches: usize,
    reports_identical: bool,
}

/// What one timed child run reports back to the orchestrator.
#[derive(Serialize, serde::Deserialize)]
struct SideRun {
    wall_secs: f64,
    peak_loaded_bytes: usize,
    cache_hits: u64,
    cache_misses: u64,
    cache_entries: usize,
    artifact_cache_hits: u64,
    artifact_cache_misses: u64,
    scan_cache_hits: u64,
    scan_cache_misses: u64,
    /// FNV-1a fingerprint over one canonical JSON line per app (the
    /// mismatches plus the metered loading footprint). FNV is used
    /// because it is stable across processes, unlike the randomly-keyed
    /// std hasher; comparing the two sides' fingerprints
    /// is the report-parity check.
    reports_fingerprint: String,
    mismatches: usize,
    /// Seconds inside Algorithm-1 exploration (CLVM materialization
    /// included); only the large-app sides fill this in.
    explore_secs: f64,
    /// Seconds inside the detector families, summed over their phase
    /// spans (concurrent families overlap at `app_jobs > 1`); large-app
    /// sides only.
    detect_secs: f64,
    /// One-off cost paid before the timed region; only the
    /// `service-warm` side fills this in (framework mining, cache
    /// prewarm, daemon startup).
    startup_secs: f64,
    /// Registry-measured seconds in CLVM class materialization; only
    /// the `batch-metrics` side (observability on) fills these in.
    metrics_clvm_secs: f64,
    /// Registry-measured seconds in Algorithm-1 exploration.
    metrics_explore_secs: f64,
    /// Registry-measured seconds across the three AMD detectors.
    metrics_detect_secs: f64,
    /// Registry-measured seconds across whole per-app scans.
    metrics_scan_secs: f64,
    /// Number of `scan_total` spans (must equal the app count).
    metrics_scan_spans: u64,
    /// Class-cache hit rate from the unified snapshot.
    class_hit_rate: f64,
    /// Artifact-cache hit rate from the unified snapshot.
    artifact_hit_rate: f64,
    /// Deep-scan-cache hit rate from the unified snapshot.
    scan_hit_rate: f64,
}

fn corpus_apks(scale: Scale) -> Vec<Apk> {
    let corpus = RealWorldCorpus::new(scale.realworld_config());
    (0..corpus.len()).map(|i| corpus.get(i).apk).collect()
}

fn digest(report: &Report) -> String {
    let mismatches = serde_json::to_string(&report.mismatches).expect("mismatches serialize");
    format!(
        "{}|{}|{}|{}",
        report.package,
        mismatches,
        report.meter.total_bytes(),
        report.meter.classes_loaded
    )
}

/// Intra-app workers for the `large-par` side: the whole hardware
/// budget, exactly what the two-level scheduler grants in the latency
/// regime (one oversized app at a time, so every core goes intra-app).
/// On a single-core host that is 1 — parallel exploration and detector
/// threads would only timeslice one CPU, so the pipeline degrades to
/// its sequential paths and the measured gain is the shared-cache work
/// reduction; report parity at higher counts is enforced by the
/// `intra_app_parity` suite. Overridable via `SAINT_LARGE_JOBS`.
fn large_app_jobs() -> usize {
    std::env::var("SAINT_LARGE_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(default_jobs)
}

fn fingerprint_reports(reports: &[Report]) -> String {
    let mut hash = FNV_OFFSET;
    for report in reports {
        hash = fnv1a(digest(report).as_bytes(), hash);
        hash = fnv1a(b"\n", hash);
    }
    format!("{hash:016x}")
}

/// Child mode: run one side cold and write a [`SideRun`] JSON.
fn run_side(side: &str, out_path: &str) {
    let scale = Scale::from_env();
    if side == "service-clients" {
        run_service_clients(scale, out_path);
        return;
    }
    let run = match side {
        "sequential" | "batch" | "batch-metrics" => run_batch_side(side, scale),
        "large-seq" | "large-par" => run_large_side(side, scale),
        "frozen-batch" => run_frozen_batch(scale),
        "ttfs-parsed" | "ttfs-frozen" => run_ttfs_side(side, scale),
        other => panic!("unknown side {other}"),
    };
    let json = serde_json::to_string(&run).expect("side run serializes");
    std::fs::File::create(out_path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write side run");
}

fn run_batch_side(side: &str, scale: Scale) -> SideRun {
    let fw = framework_at(scale);
    let apks = corpus_apks(scale);
    let engine = match side {
        // The pre-engine shape: one plain tool, one app at a time,
        // strictly per-app materialization and analysis.
        "sequential" => ScanEngine::from_tool(SaintDroid::new(fw)).jobs(1),
        // The batch engine: worker threads (clamped to the core count)
        // plus the three batch-wide caches.
        "batch" => ScanEngine::new(fw).jobs(4),
        // The batch engine with the observability layer on: the delta
        // against `batch` is the measured metrics overhead.
        "batch-metrics" => ScanEngine::new(fw).jobs(4).ensure_metrics(),
        other => panic!("unknown batch side {other}"),
    };
    let start = Instant::now();
    let reports = engine.scan_batch(&apks);
    let wall_secs = start.elapsed().as_secs_f64();
    engine_side_run(&engine, &reports, wall_secs)
}

/// Folds an engine's cache stats, registry phases (when the metrics-on
/// side has one) and the report fingerprint into a [`SideRun`] — the
/// shared tail of the `batch*` and `frozen-batch` sides.
fn engine_side_run(engine: &ScanEngine, reports: &[Report], wall_secs: f64) -> SideRun {
    let zero = saint_analysis::CacheStats::default();
    let class = engine.cache_stats().unwrap_or(zero);
    let artifacts = engine.artifact_cache_stats().unwrap_or(zero);
    let scans = engine.scan_cache_stats().unwrap_or(zero);

    // Phase splits and hit rates, filled by the metrics-on sides only.
    let mut run = SideRun {
        wall_secs,
        peak_loaded_bytes: reports
            .iter()
            .map(|r| r.meter.total_bytes())
            .max()
            .unwrap_or(0),
        cache_hits: class.hits,
        cache_misses: class.misses,
        cache_entries: class.entries,
        artifact_cache_hits: artifacts.hits,
        artifact_cache_misses: artifacts.misses,
        scan_cache_hits: scans.hits,
        scan_cache_misses: scans.misses,
        reports_fingerprint: fingerprint_reports(reports),
        mismatches: reports.iter().map(Report::total).sum(),
        explore_secs: 0.0,
        detect_secs: 0.0,
        startup_secs: 0.0,
        metrics_clvm_secs: 0.0,
        metrics_explore_secs: 0.0,
        metrics_detect_secs: 0.0,
        metrics_scan_secs: 0.0,
        metrics_scan_spans: 0,
        class_hit_rate: 0.0,
        artifact_hit_rate: 0.0,
        scan_hit_rate: 0.0,
    };
    if engine.metrics().is_some() {
        let snap = engine.metrics_snapshot();
        let phase_secs = |name: &str| snap.registry.phase(name).map_or(0.0, |p| p.total_secs());
        run.metrics_clvm_secs = phase_secs("clvm_load");
        run.metrics_explore_secs = phase_secs("explore");
        run.metrics_detect_secs = phase_secs("detect_invocation")
            + phase_secs("detect_callback")
            + phase_secs("detect_permission");
        run.metrics_scan_secs = phase_secs("scan_total");
        run.metrics_scan_spans = snap.registry.phase("scan_total").map_or(0, |p| p.count);
        run.class_hit_rate = snap.class_cache.map_or(0.0, |c| c.hit_rate());
        run.artifact_hit_rate = snap.artifact_cache.map_or(0.0, |c| c.hit_rate());
        run.scan_hit_rate = snap.deep_scan_cache.map_or(0.0, |c| c.hit_rate());
    }
    run
}

/// The frozen warm-batch side: same worker count and registry as
/// `batch-metrics`, but the framework artifacts are attached from the
/// pre-compiled image (no mining — the engine gets an un-mined
/// framework on purpose), every framework class is preloaded off the
/// image before the clock starts, and the corpus is decoded package by
/// package from the mmap'd corpus image inside the workers.
fn run_frozen_batch(scale: Scale) -> SideRun {
    let fw_img = std::env::var(FROZEN_FW_ENV).expect("frozen side needs the framework image");
    let corpus_img = std::env::var(FROZEN_CORPUS_ENV).expect("frozen side needs the corpus image");
    let corpus = saint_frozen::FrozenCorpus::open(std::path::Path::new(&corpus_img))
        .expect("open frozen corpus image");
    let fw = Arc::new(saint_adf::AndroidFramework::with_scale(
        &scale.synth_config(),
    ));
    let engine = ScanEngine::new(fw).jobs(4).ensure_metrics();
    engine
        .attach_frozen(std::path::Path::new(&fw_img))
        .expect("attach frozen framework image");
    engine.prewarm();
    let start = Instant::now();
    let reports = engine.scan_frozen_batch(&corpus);
    let wall_secs = start.elapsed().as_secs_f64();
    engine_side_run(&engine, &reports, wall_secs)
}

/// Time-to-first-scan children: everything a fresh daemon pays between
/// exec and its first report — framework artifacts (mined from the spec
/// on the parsed side, attached from the image on the frozen side),
/// cache prewarm, then one scan. The corpus image is opened before the
/// clock starts on both sides (it is the shared input, not the
/// contested cost); `startup_secs` isolates the artifact step from the
/// scan itself.
fn run_ttfs_side(side: &str, scale: Scale) -> SideRun {
    let corpus_img = std::env::var(FROZEN_CORPUS_ENV).expect("ttfs side needs the corpus image");
    let corpus = saint_frozen::FrozenCorpus::open(std::path::Path::new(&corpus_img))
        .expect("open frozen corpus image");
    let start = Instant::now();
    let engine = if side == "ttfs-frozen" {
        // The daemon warm boot: the image — verified end to end when it
        // was compiled — *is* the framework. No spec synthesis, no
        // mining, no bulk preload; classes decode lazily out of the
        // mapping as the first scan touches them. The cross-side report
        // fingerprint assert in `run_frozen_regime` is the proof this
        // boot serves the same results as the parse path.
        let fw_img = std::env::var(FROZEN_FW_ENV).expect("ttfs-frozen needs the framework image");
        let fw = Arc::new(saint_adf::AndroidFramework::from_spec(
            saint_adf::FrameworkSpec::new(),
        ));
        let engine = ScanEngine::new(fw).jobs(1);
        engine
            .attach_frozen_trusted(std::path::Path::new(&fw_img))
            .expect("attach frozen framework image");
        engine
    } else {
        let fw = Arc::new(saint_adf::AndroidFramework::with_scale(
            &scale.synth_config(),
        ));
        let engine = ScanEngine::new(fw).jobs(1);
        engine.prewarm();
        engine
    };
    let startup_secs = start.elapsed().as_secs_f64();
    let apk = corpus.decode(0).expect("decode first package");
    let reports = vec![engine.scan_one(&apk)];
    let wall_secs = start.elapsed().as_secs_f64();
    let mut run = engine_side_run(&engine, &reports, wall_secs);
    run.startup_secs = startup_secs;
    run
}

/// The large-app sides analyze the few oversized apps one after the
/// other (there are not enough of them to fill app slots), so the two
/// shapes differ only in what happens *inside* one app: `large-seq`
/// is the plain single-threaded tool, `large-par` the intra-app
/// pipeline — shared-CLVM parallel exploration, concurrent detectors,
/// parallel framework-subtree scans — over the batch-wide caches.
fn run_large_side(side: &str, scale: Scale) -> SideRun {
    let cfg = scale.large_app_config();
    // The analyzed framework must match the corpus generator's synth
    // expansion (the large-app regime uses a tighter one — see
    // [`Scale::large_app_config`]); pre-mine it outside the timed
    // region like `framework_at` does.
    let fw = Arc::new(saint_adf::AndroidFramework::with_scale(&cfg.synth));
    let _ = fw.database();
    let _ = fw.permission_map();
    let corpus = RealWorldCorpus::new(cfg);
    let apks: Vec<Apk> = (0..corpus.len()).map(|i| corpus.get(i).apk).collect();
    let class_cache = Arc::new(ShardedClassCache::new());
    let artifact_cache = Arc::new(ArtifactCache::new());
    let scan_cache = Arc::new(DeepScanCache::new());
    let (tool, app_jobs) = match side {
        "large-seq" => (SaintDroid::new(fw), 1),
        "large-par" => (
            SaintDroid::new(fw)
                .with_shared_cache(Arc::clone(&class_cache))
                .with_shared_artifact_cache(Arc::clone(&artifact_cache))
                .with_shared_scan_cache(Arc::clone(&scan_cache)),
            large_app_jobs(),
        ),
        other => panic!("unknown large side {other}"),
    };
    // The phase split comes from the registry's spans. With concurrent
    // detector families the detect figure is a sum of spans, not the
    // wall time of the detection phase.
    let metrics = Arc::new(MetricsRegistry::new());
    let tool = tool.with_metrics(Arc::clone(&metrics));

    let start = Instant::now();
    let reports: Vec<Report> = apks
        .iter()
        .map(|apk| tool.run_with_jobs(apk, app_jobs))
        .collect();
    let wall_secs = start.elapsed().as_secs_f64();
    let snap = metrics.snapshot();
    let phase_secs = |name: &str| snap.phase(name).map_or(0.0, |p| p.total_secs());
    let explore_secs = phase_secs("explore");
    let detect_secs = phase_secs("detect_invocation")
        + phase_secs("detect_callback")
        + phase_secs("detect_permission")
        + phase_secs("detect_declared_sdk");

    let class = class_cache.stats();
    let artifacts = artifact_cache.stats();
    let scans = scan_cache.stats();
    SideRun {
        wall_secs,
        peak_loaded_bytes: reports
            .iter()
            .map(|r| r.meter.total_bytes())
            .max()
            .unwrap_or(0),
        cache_hits: class.hits,
        cache_misses: class.misses,
        cache_entries: class.entries,
        artifact_cache_hits: artifacts.hits,
        artifact_cache_misses: artifacts.misses,
        scan_cache_hits: scans.hits,
        scan_cache_misses: scans.misses,
        reports_fingerprint: fingerprint_reports(&reports),
        mismatches: reports.iter().map(Report::total).sum(),
        explore_secs,
        detect_secs,
        startup_secs: 0.0,
        metrics_clvm_secs: 0.0,
        metrics_explore_secs: 0.0,
        metrics_detect_secs: 0.0,
        metrics_scan_secs: 0.0,
        metrics_scan_spans: 0,
        class_hit_rate: 0.0,
        artifact_hit_rate: 0.0,
        scan_hit_rate: 0.0,
    }
}

/// Best-of count for the service regime's measured passes, frozen-
/// regime style; `SAINT_SERVICE_REPS` overrides the default 10.
fn service_reps() -> usize {
    std::env::var("SAINT_SERVICE_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
        .max(1)
}

/// One `service-clients` child: boot a warm daemon (startup outside
/// every timed region), then drive `SAINT_BENCH_CLIENTS` concurrent
/// pipelined connections through it for [`service_reps`] measured
/// passes, keeping the best. With more clients than packages the
/// corpus cycles so every client scans at least once — the first full
/// corpus cycle (global indices `0..apps`, which round-robin
/// assignment keeps in corpus order) is fingerprinted for the parity
/// check, and every repeat is asserted byte-identical to its first
/// incarnation in-process.
fn run_service_clients(scale: Scale, out_path: &str) {
    let clients: usize = std::env::var(CLIENTS_ENV)
        .expect("service child needs a client count")
        .parse()
        .expect("client count parses");
    let pkg_dir = std::env::var(PKG_DIR_ENV).expect("service child needs the package directory");
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&pkg_dir)
        .expect("read package dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    let sapks: Vec<Vec<u8>> = files
        .iter()
        .map(|p| std::fs::read(p).expect("read sapk"))
        .collect();

    let startup = Instant::now();
    let engine = ScanEngine::new(framework_at(scale));
    engine.prewarm();
    let cfg = saint_service::ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        jobs: default_jobs(),
        queue_depth: SERVICE_QUEUE_DEPTH,
        ..Default::default()
    };
    let handle = saint_service::start(engine, &cfg).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    let startup_secs = startup.elapsed().as_secs_f64();

    let mut best: Option<ClientsRun> = None;
    for _ in 0..service_reps() {
        let run = one_pipelined_pass(&addr, &sapks, clients, startup_secs);
        best = Some(match best {
            None => run,
            Some(b) => {
                if run.wall_secs < b.wall_secs {
                    run
                } else {
                    b
                }
            }
        });
    }
    let best = best.expect("at least one pass");

    let mut admin = saint_service::Client::connect(&addr).expect("connect admin");
    admin.shutdown().expect("shutdown ack");
    handle.wait();

    let json = serde_json::to_string(&best).expect("clients run serializes");
    std::fs::write(out_path, json).expect("write clients run");
}

/// One measured pass of the concurrent-clients regime: every client
/// owns the global scan indices congruent to its number, pipelines
/// them on one connection ([`SERVICE_WINDOW`] deep, clamped to its
/// share), and records each request's wire latency.
fn one_pipelined_pass(
    addr: &str,
    sapks: &[Vec<u8>],
    clients: usize,
    startup_secs: f64,
) -> ClientsRun {
    let apps = sapks.len();
    let total = apps.max(clients);
    let slots: Vec<std::sync::Mutex<Option<(String, usize)>>> =
        (0..total).map(|_| std::sync::Mutex::new(None)).collect();
    let latencies_ms = std::sync::Mutex::new(Vec::with_capacity(total));

    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let slots = &slots;
            let latencies_ms = &latencies_ms;
            s.spawn(move || {
                let mine: Vec<usize> = (c..total).step_by(clients).collect();
                let window = SERVICE_WINDOW.min(mine.len());
                let payloads: Vec<&[u8]> =
                    mine.iter().map(|&i| sapks[i % apps].as_slice()).collect();
                let mut client = saint_service::PipelinedClient::connect(addr, window)
                    .expect("connect pipelined client");
                let (responses, latencies) = client
                    .scan_all_timed(&payloads, None)
                    .expect("warm daemon serves every submission");
                let mut ms = Vec::with_capacity(mine.len());
                for (k, &i) in mine.iter().enumerate() {
                    let report = &responses[k].report;
                    *slots[i].lock().expect("slot lock") = Some((digest(report), report.total()));
                    ms.push(latencies[k].as_secs_f64() * 1000.0);
                }
                latencies_ms.lock().expect("latency lock").extend(ms);
            });
        }
    });
    let wall_secs = start.elapsed().as_secs_f64();

    let digests: Vec<(String, usize)> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every slot filled")
        })
        .collect();
    // Repeats beyond the first corpus cycle must be byte-identical to
    // their first incarnation — the warm daemon serves the same report
    // no matter how often a package comes around.
    for i in apps..total {
        assert_eq!(
            digests[i].0,
            digests[i % apps].0,
            "repeat scan of package {} diverged",
            i % apps
        );
    }
    let mut hash = FNV_OFFSET;
    let mut mismatches = 0usize;
    for (d, m) in &digests[..apps] {
        hash = fnv1a(d.as_bytes(), hash);
        hash = fnv1a(b"\n", hash);
        mismatches += m;
    }

    let mut ms = latencies_ms.into_inner().expect("latency lock");
    ms.sort_by(f64::total_cmp);
    let percentile = |p: f64| ms[((ms.len() - 1) as f64 * p).round() as usize];
    ClientsRun {
        clients,
        scans: total,
        startup_secs,
        wall_secs,
        p50_ms: percentile(0.50),
        p99_ms: percentile(0.99),
        corpus_fingerprint: format!("{hash:016x}"),
        mismatches,
    }
}

/// Spawns this binary in child mode and reads its result.
fn spawn_side(side: &str, out_path: &str) -> SideRun {
    spawn_side_with(side, out_path, &[])
}

/// Like [`spawn_side`], with extra environment for the child (package
/// directory, input path).
fn spawn_side_with(side: &str, out_path: &str, extra_env: &[(&str, &str)]) -> SideRun {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = std::process::Command::new(exe);
    cmd.env(SIDE_ENV, side).env(OUT_ENV, out_path);
    for (key, value) in extra_env {
        cmd.env(key, value);
    }
    let status = cmd.status().expect("spawn side child");
    assert!(status.success(), "{side} child failed");
    let text = std::fs::read_to_string(out_path).expect("read side run");
    serde_json::from_str(&text).expect("side run parses")
}

/// Runs the service regime: the concurrent-clients ladder
/// ([`SERVICE_CLIENT_COUNTS`]) of pipelined connections against a warm
/// event-loop daemon, each rung a fresh child process keeping the best
/// of [`service_reps`] passes, with every rung's reports fingerprint-
/// checked against the in-process batch engine's (`bat`).
fn run_service_regime(scale: Scale, out_dir: &std::path::Path, bat: &SideRun) -> ServiceSummary {
    let apks = corpus_apks(scale);
    let pkg_dir = out_dir.join(format!("saint_bench_pkgs_{}", std::process::id()));
    std::fs::create_dir_all(&pkg_dir).expect("create package dir");
    for (i, apk) in apks.iter().enumerate() {
        let path = pkg_dir.join(format!("pkg_{i:05}.sapk"));
        std::fs::write(&path, saint_ir::codec::encode_apk(apk)).expect("write sapk");
    }
    let apps = apks.len();
    let reps = service_reps();
    let batch_apps_per_sec = apps as f64 / bat.wall_secs.max(f64::EPSILON);
    eprintln!(
        "bench_summary: service regime — {apps} apps, pipelined clients x{SERVICE_CLIENT_COUNTS:?}, best of {reps} passes"
    );

    let mut regimes = Vec::new();
    for clients in SERVICE_CLIENT_COUNTS {
        let path = out_dir.join(format!("saint_bench_service_{clients}.json"));
        let run: ClientsRun = {
            let exe = std::env::current_exe().expect("own path");
            let status = std::process::Command::new(exe)
                .env(SIDE_ENV, "service-clients")
                .env(OUT_ENV, &path)
                .env(PKG_DIR_ENV, &pkg_dir)
                .env(CLIENTS_ENV, clients.to_string())
                .status()
                .expect("spawn service child");
            assert!(status.success(), "service child ({clients} clients) failed");
            let text = std::fs::read_to_string(&path).expect("read clients run");
            serde_json::from_str(&text).expect("clients run parses")
        };
        let _ = std::fs::remove_file(&path);

        assert_eq!(
            run.corpus_fingerprint, bat.reports_fingerprint,
            "pipelined reports at {clients} clients diverged from the batch engine — protocol parity is broken"
        );
        assert_eq!(run.mismatches, bat.mismatches);
        let apps_per_sec = run.scans as f64 / run.wall_secs.max(f64::EPSILON);
        eprintln!(
            "  {clients} clients: {} scans in {:.2}s — {:.1} apps/s ({:.0}% of batch), p50 {:.1}ms / p99 {:.1}ms",
            run.scans,
            run.wall_secs,
            apps_per_sec,
            apps_per_sec / batch_apps_per_sec * 100.0,
            run.p50_ms,
            run.p99_ms
        );
        regimes.push(ClientsRegime {
            clients,
            scans: run.scans,
            warm_startup_secs: run.startup_secs,
            secs: run.wall_secs,
            apps_per_sec,
            pct_of_batch: apps_per_sec / batch_apps_per_sec * 100.0,
            p50_ms: run.p50_ms,
            p99_ms: run.p99_ms,
            mismatches: run.mismatches,
            reports_identical: true,
        });
    }
    let _ = std::fs::remove_dir_all(&pkg_dir);

    ServiceSummary {
        apps,
        jobs: default_jobs(),
        window: SERVICE_WINDOW,
        queue_depth: SERVICE_QUEUE_DEPTH,
        reps,
        batch_apps_per_sec,
        regimes,
    }
}

/// Runs the frozen-artifact regime: compiles the framework and corpus
/// images once (outside every timed region), then times the frozen
/// warm batch against the parsed metrics-on batch (`met`) and the
/// parsed-vs-frozen time-to-first-scan pair, best of `reps` fresh
/// children per side with the same report-parity gate as the other
/// regimes — the image path must change *nothing* about the reports.
fn run_frozen_regime(
    scale: Scale,
    reps: usize,
    out_dir: &std::path::Path,
    met: &SideRun,
) -> FrozenSummary {
    let fw = framework_at(scale);
    let fw_bytes = saint_frozen::freeze_framework(&fw);
    let apks = corpus_apks(scale);
    let corpus_bytes = saint_frozen::freeze_apks(&apks);
    let pid = std::process::id();
    let fw_img = out_dir.join(format!("saint_bench_fw_{pid}.sfrz"));
    let corpus_img = out_dir.join(format!("saint_bench_corpus_{pid}.sfrz"));
    std::fs::write(&fw_img, &fw_bytes).expect("write framework image");
    std::fs::write(&corpus_img, &corpus_bytes).expect("write corpus image");
    eprintln!(
        "bench_summary: frozen regime — framework image {} bytes, corpus image {} bytes",
        fw_bytes.len(),
        corpus_bytes.len()
    );
    let env: Vec<(&str, &str)> = vec![
        (FROZEN_FW_ENV, fw_img.to_str().expect("utf-8 path")),
        (FROZEN_CORPUS_ENV, corpus_img.to_str().expect("utf-8 path")),
    ];

    let mut frozen_best: Option<SideRun> = None;
    for rep in 0..reps {
        let path = out_dir.join(format!("saint_bench_frozen_{rep}.json"));
        let run = spawn_side_with("frozen-batch", path.to_str().expect("utf-8 path"), &env);
        let _ = std::fs::remove_file(&path);
        eprintln!(
            "  rep {rep}: frozen batch {:.2}s (clvm {:.3}s of {:.2}s scan time)",
            run.wall_secs, run.metrics_clvm_secs, run.metrics_scan_secs
        );
        assert_eq!(
            run.reports_fingerprint, met.reports_fingerprint,
            "frozen-image reports diverged from parsed — the image is not a faithful artifact"
        );
        assert_eq!(run.mismatches, met.mismatches);
        frozen_best = Some(match frozen_best {
            None => run,
            Some(best) => {
                if run.wall_secs < best.wall_secs {
                    run
                } else {
                    best
                }
            }
        });
    }
    let frozen = frozen_best.expect("at least one rep");

    let mut ttfs_best: Option<(SideRun, SideRun)> = None;
    for rep in 0..reps {
        let par_path = out_dir.join(format!("saint_bench_ttfsp_{rep}.json"));
        let fro_path = out_dir.join(format!("saint_bench_ttfsf_{rep}.json"));
        // Alternate the order for the same page-cache fairness reason
        // as batch/batch-metrics.
        let (tp, tf) = if rep % 2 == 0 {
            let tp = spawn_side_with("ttfs-parsed", par_path.to_str().expect("utf-8 path"), &env);
            let tf = spawn_side_with("ttfs-frozen", fro_path.to_str().expect("utf-8 path"), &env);
            (tp, tf)
        } else {
            let tf = spawn_side_with("ttfs-frozen", fro_path.to_str().expect("utf-8 path"), &env);
            let tp = spawn_side_with("ttfs-parsed", par_path.to_str().expect("utf-8 path"), &env);
            (tp, tf)
        };
        let _ = std::fs::remove_file(&par_path);
        let _ = std::fs::remove_file(&fro_path);
        eprintln!(
            "  rep {rep}: time to first scan — parsed {:.3}s (artifacts {:.3}s) | frozen {:.3}s (attach {:.3}s)",
            tp.wall_secs, tp.startup_secs, tf.wall_secs, tf.startup_secs
        );
        assert_eq!(
            tp.reports_fingerprint, tf.reports_fingerprint,
            "first-scan reports diverged between parsed and frozen startup"
        );
        ttfs_best = Some(match ttfs_best {
            None => (tp, tf),
            Some((bp, bf)) => (
                if tp.wall_secs < bp.wall_secs { tp } else { bp },
                if tf.wall_secs < bf.wall_secs { tf } else { bf },
            ),
        });
    }
    let (ttfs_parsed, ttfs_frozen) = ttfs_best.expect("at least one rep");
    let _ = std::fs::remove_file(&fw_img);
    let _ = std::fs::remove_file(&corpus_img);

    let share =
        |run: &SideRun| run.metrics_clvm_secs / run.metrics_scan_secs.max(f64::EPSILON) * 100.0;
    FrozenSummary {
        apps: apks.len(),
        jobs: 4,
        framework_image_bytes: fw_bytes.len() as u64,
        corpus_image_bytes: corpus_bytes.len() as u64,
        parsed_batch_secs: met.wall_secs,
        frozen_batch_secs: frozen.wall_secs,
        parsed_clvm_share_pct: share(met),
        frozen_clvm_share_pct: share(&frozen),
        ttfs_parsed_secs: ttfs_parsed.wall_secs,
        ttfs_parsed_startup_secs: ttfs_parsed.startup_secs,
        ttfs_frozen_secs: ttfs_frozen.wall_secs,
        ttfs_frozen_startup_secs: ttfs_frozen.startup_secs,
        ttfs_speedup: ttfs_parsed.wall_secs / ttfs_frozen.wall_secs.max(f64::EPSILON),
        mismatches: frozen.mismatches,
        reports_identical: true,
    }
}

/// Runs the campaign regime: the corpus encoded once as loose `.sapk`
/// files, registered into a [`saint_campaign::CorpusRegistry`], then
/// driven through local fleets of [`CAMPAIGN_FLEET_SIZES`] paced
/// daemons, best of [`service_reps`] runs per fleet size. Parity is
/// checked two ways: every journal record's per-app fingerprint
/// against the in-process batch engine's report for that package, and
/// the result-set fingerprint across fleet sizes (sharding must not
/// change the answer).
fn run_campaign_regime(scale: Scale, out_dir: &std::path::Path) -> CampaignSummary {
    use std::time::Duration;

    let reps = service_reps();
    let fw = framework_at(scale);
    let apks = corpus_apks(scale);

    // Ground truth: the in-process batch engine over the same corpus.
    let batch_reports = ScanEngine::new(Arc::clone(&fw)).jobs(4).scan_batch(&apks);
    let expected: std::collections::HashMap<&str, String> = batch_reports
        .iter()
        .map(|r| (r.package.as_str(), saint_campaign::report_fingerprint(r)))
        .collect();
    let expected_mismatches: usize = batch_reports.iter().map(Report::total).sum();

    let pid = std::process::id();
    let pkg_dir = out_dir.join(format!("saint_bench_campaign_pkgs_{pid}"));
    std::fs::create_dir_all(&pkg_dir).expect("create campaign package dir");
    for (i, apk) in apks.iter().enumerate() {
        let path = pkg_dir.join(format!("pkg_{i:05}.sapk"));
        std::fs::write(&path, saint_ir::codec::encode_apk(apk)).expect("write sapk");
    }
    let mut registry = saint_campaign::CorpusRegistry::new();
    registry
        .add_sapk_dir(&pkg_dir)
        .expect("register campaign corpus");
    assert_eq!(registry.len(), apks.len(), "corpus registered in full");

    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!(
        "bench_summary: campaign regime — {} apps, fleet x{CAMPAIGN_FLEET_SIZES:?} paced daemons ({CAMPAIGN_PACE_MS}ms, jobs=1), best of {reps} runs",
        apks.len()
    );

    let cfg = saint_campaign::CampaignConfig::default();
    let mut fleets = Vec::new();
    let mut set_fingerprint: Option<String> = None;
    for count in CAMPAIGN_FLEET_SIZES {
        let fleet_cfg = saint_campaign::FleetConfig {
            jobs: 1,
            scan_pace: Some(Duration::from_millis(CAMPAIGN_PACE_MS)),
            ..saint_campaign::FleetConfig::default()
        };
        // Fleet startup (framework prewarm, binds) stays outside every
        // timed region, service-regime style.
        let mut fleet =
            saint_campaign::LocalFleet::start(&fw, count, &fleet_cfg).expect("start local fleet");
        let mut best: Option<saint_campaign::CampaignOutcome> = None;
        for rep in 0..reps {
            let journal = out_dir.join(format!("saint_bench_campaign_{pid}_{count}_{rep}.journal"));
            let outcome = saint_campaign::run_campaign(
                &registry,
                fleet.endpoints(),
                &journal,
                false,
                &cfg,
                None,
            )
            .expect("campaign completes against a healthy fleet");
            let _ = std::fs::remove_file(&journal);
            assert_eq!(outcome.completed, registry.len(), "every unit scanned");
            assert_eq!(
                outcome.runtime.daemon_failovers, 0,
                "healthy fleet lost a daemon"
            );
            for rec in outcome.store.records() {
                assert_eq!(
                    Some(&rec.fingerprint),
                    expected.get(rec.package.as_str()),
                    "campaign report for {} diverged from the batch engine",
                    rec.package
                );
            }
            match &set_fingerprint {
                None => set_fingerprint = Some(outcome.store.fingerprint()),
                Some(fp) => assert_eq!(
                    fp,
                    &outcome.store.fingerprint(),
                    "campaign result set diverged across fleet sizes"
                ),
            }
            best = Some(match best {
                Some(b) if b.runtime.wall_secs <= outcome.runtime.wall_secs => b,
                _ => outcome,
            });
        }
        fleet.shutdown();
        let outcome = best.expect("at least one run");
        assert_eq!(
            outcome.store.report(None).mismatches as usize,
            expected_mismatches,
            "campaign roll-up lost mismatches"
        );
        let per_daemon: Vec<String> = outcome
            .runtime
            .daemons
            .iter()
            .map(|d| format!("{:.1}", d.apps_per_sec))
            .collect();
        eprintln!(
            "  fleet {count}: {} apps in {:.2}s — {:.1} apps/s (per daemon: {})",
            outcome.completed,
            outcome.runtime.wall_secs,
            outcome.runtime.apps_per_sec,
            per_daemon.join(" + ")
        );
        fleets.push(CampaignFleetRegime {
            fleet: count,
            secs: outcome.runtime.wall_secs,
            apps_per_sec: outcome.runtime.apps_per_sec,
            resubmissions: outcome.runtime.resubmissions,
            daemon_failovers: outcome.runtime.daemon_failovers,
            checkpoint_flushes: outcome.runtime.checkpoint_flushes,
            report_fingerprint: outcome.store.fingerprint(),
            per_daemon: outcome.runtime.daemons,
        });
    }
    let _ = std::fs::remove_dir_all(&pkg_dir);

    CampaignSummary {
        apps: apks.len(),
        jobs_per_daemon: 1,
        window: cfg.window,
        chunk: cfg.chunk,
        pace_ms: CAMPAIGN_PACE_MS,
        host_cores,
        reps,
        mismatches: expected_mismatches,
        reports_identical: true,
        speedup_fleet2_over_fleet1: fleets[1].apps_per_sec
            / fleets[0].apps_per_sec.max(f64::EPSILON),
        fleets,
    }
}

/// Runs the incremental regime: populate the artifact store by
/// scanning the corpus once (untimed — the prior full scan every store
/// already paid for), apply the update wave, then time a plain full
/// rescan against the store-backed incremental rescan of the same
/// updated corpus. Both sides run the same warm tool one app at a time
/// (`app_jobs` 1), so the only variable is the store.
fn run_incremental_regime(scale: Scale, out_dir: &std::path::Path) -> IncrementalSummary {
    let fw = framework_at(scale);
    let mut apks = corpus_apks(scale);
    let apps = apks.len();
    let store_dir = out_dir.join(format!("saint_bench_delta_{}", std::process::id()));
    let scanner = saint_delta::DeltaScanner::new(&store_dir);
    let tool = SaintDroid::new(fw);

    // Store traffic arrives as encoded `.sapk` containers; encoding is
    // part of corpus preparation (the upload), not of either rescan, so
    // it stays untimed on both sides.
    eprintln!(
        "bench_summary: incremental regime — {apps} apps, populating the artifact store (untimed)"
    );
    let mut containers: Vec<Vec<u8>> = apks.iter().map(saint_ir::codec::encode_apk).collect();
    for (apk, sapk) in apks.iter().zip(&containers) {
        let _ = scanner.scan_encoded(&tool, sapk, apk, 1);
    }

    // The update wave: every 20th app ships a new version with 10% of
    // its classes mutated — deterministic, so the regime is repeatable.
    let stride = (1.0 / INCREMENTAL_WAVE_PCT).round() as usize;
    let mut updated_apps = 0usize;
    for (i, apk) in apks.iter_mut().enumerate() {
        if i % stride == 0 {
            saint_corpus::churn_wave(apk, INCREMENTAL_CHURN, 0x11EA6E ^ i as u64);
            containers[i] = saint_ir::codec::encode_apk(apk);
            updated_apps += 1;
        }
    }

    let start = Instant::now();
    let full_reports: Vec<Report> = apks.iter().map(|apk| tool.run(apk)).collect();
    let full_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut inc_reports = Vec::with_capacity(apps);
    let mut stats = saint_delta::DeltaStats::default();
    let mut classes_seen = 0u64;
    let mut app_fast_path = 0usize;
    for (apk, sapk) in apks.iter().zip(&containers) {
        let (report, s) = scanner.scan_encoded(&tool, sapk, apk, 1);
        stats.hits += s.hits;
        stats.misses += s.misses;
        stats.reanalyzed += s.reanalyzed;
        classes_seen += s.classes_seen;
        app_fast_path += usize::from(s.app_hit);
        inc_reports.push(report);
    }
    let inc_secs = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&store_dir);

    assert_eq!(
        fingerprint_reports(&full_reports),
        fingerprint_reports(&inc_reports),
        "incremental rescan diverged from the full rescan — splice correctness is broken"
    );
    let mismatches: usize = full_reports.iter().map(Report::total).sum();
    let speedup = full_secs / inc_secs.max(f64::EPSILON);
    eprintln!(
        "  full rescan {full_secs:.2}s | incremental {inc_secs:.2}s ({speedup:.1}x) — \
         {} hits / {} misses, {} reanalyzed, {app_fast_path}/{apps} app fast path",
        stats.hits, stats.misses, stats.reanalyzed
    );

    IncrementalSummary {
        apps,
        updated_apps,
        churn_pct: INCREMENTAL_CHURN * 100.0,
        full_rescan_secs: full_secs,
        incremental_rescan_secs: inc_secs,
        full_apps_per_sec: apps as f64 / full_secs.max(f64::EPSILON),
        incremental_apps_per_sec: apps as f64 / inc_secs.max(f64::EPSILON),
        speedup,
        delta_hits: stats.hits,
        delta_misses: stats.misses,
        classes_reanalyzed: stats.reanalyzed,
        hit_rate: stats.hits as f64 / (classes_seen as f64).max(1.0),
        app_fast_path,
        mismatches,
        reports_identical: true,
    }
}

fn main() {
    if let Ok(side) = std::env::var(SIDE_ENV) {
        let out = std::env::var(OUT_ENV).expect("child needs an output path");
        run_side(&side, &out);
        return;
    }

    // `SAINT_BENCH_REGIME=incremental` runs the incremental regime
    // alone (writing BENCH_incremental.json) — the store-update story
    // is self-contained, so iterating on it should not pay for the
    // batch/service/campaign ladders.
    if std::env::var("SAINT_BENCH_REGIME").as_deref() == Ok("incremental") {
        let incremental = run_incremental_regime(Scale::from_env(), &std::env::temp_dir());
        let json = serde_json::to_string_pretty(&incremental).expect("summary serializes");
        std::fs::write("BENCH_incremental.json", json).expect("write BENCH_incremental.json");
        eprintln!("json: BENCH_incremental.json");
        return;
    }

    let scale = Scale::from_env();
    let reps: usize = std::env::var("SAINT_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);
    let apps = scale.realworld_config().apps;
    let jobs = 4;
    eprintln!(
        "bench_summary: scale={} apps={apps} — timing each side in {reps} fresh processes",
        scale.label()
    );

    let out_dir = std::env::temp_dir();
    let mut best: Option<(SideRun, SideRun, SideRun)> = None;
    for rep in 0..reps {
        let seq_path = out_dir.join(format!("saint_bench_seq_{rep}.json"));
        let bat_path = out_dir.join(format!("saint_bench_bat_{rep}.json"));
        let met_path = out_dir.join(format!("saint_bench_met_{rep}.json"));
        let seq = spawn_side("sequential", seq_path.to_str().expect("utf-8 path"));
        // Alternate the batch/batch-metrics order across reps: the
        // later child in a rep runs against a warmer machine (page
        // cache, frequency scaling), and a fixed order would bias the
        // best-of comparison the overhead number is built from.
        let (bat, met) = if rep % 2 == 0 {
            let bat = spawn_side("batch", bat_path.to_str().expect("utf-8 path"));
            let met = spawn_side("batch-metrics", met_path.to_str().expect("utf-8 path"));
            (bat, met)
        } else {
            let met = spawn_side("batch-metrics", met_path.to_str().expect("utf-8 path"));
            let bat = spawn_side("batch", bat_path.to_str().expect("utf-8 path"));
            (bat, met)
        };
        eprintln!(
            "  rep {rep}: sequential {:.2}s | batch {:.2}s | batch+metrics {:.2}s",
            seq.wall_secs, bat.wall_secs, met.wall_secs
        );
        assert_eq!(
            seq.reports_fingerprint, bat.reports_fingerprint,
            "batch reports diverged from sequential — engine parity is broken"
        );
        assert_eq!(
            bat.reports_fingerprint, met.reports_fingerprint,
            "metrics-on reports diverged from metrics-off — observation perturbed the analysis"
        );
        assert_eq!(seq.mismatches, bat.mismatches);
        assert_eq!(bat.mismatches, met.mismatches);
        let _ = std::fs::remove_file(seq_path);
        let _ = std::fs::remove_file(bat_path);
        let _ = std::fs::remove_file(met_path);
        best = Some(match best {
            None => (seq, bat, met),
            Some((bs, bb, bm)) => (
                if seq.wall_secs < bs.wall_secs {
                    seq
                } else {
                    bs
                },
                if bat.wall_secs < bb.wall_secs {
                    bat
                } else {
                    bb
                },
                if met.wall_secs < bm.wall_secs {
                    met
                } else {
                    bm
                },
            ),
        });
    }
    let (seq, bat, met) = best.expect("at least one rep");

    let large_apps = scale.large_app_config().apps;
    let large_app_jobs = large_app_jobs();
    eprintln!(
        "bench_summary: large-app regime — {large_apps} oversized apps, app_jobs={large_app_jobs}"
    );
    let mut large_best: Option<(SideRun, SideRun)> = None;
    for rep in 0..reps {
        let seq_path = out_dir.join(format!("saint_bench_lseq_{rep}.json"));
        let par_path = out_dir.join(format!("saint_bench_lpar_{rep}.json"));
        let lseq = spawn_side("large-seq", seq_path.to_str().expect("utf-8 path"));
        let lpar = spawn_side("large-par", par_path.to_str().expect("utf-8 path"));
        eprintln!(
            "  rep {rep}: large-seq {:.2}s (explore {:.2}s / detect {:.2}s) | large-par {:.2}s (explore {:.2}s / detect {:.2}s)",
            lseq.wall_secs, lseq.explore_secs, lseq.detect_secs,
            lpar.wall_secs, lpar.explore_secs, lpar.detect_secs
        );
        assert_eq!(
            lseq.reports_fingerprint, lpar.reports_fingerprint,
            "intra-app-parallel reports diverged from sequential — parity is broken"
        );
        assert_eq!(lseq.mismatches, lpar.mismatches);
        let _ = std::fs::remove_file(seq_path);
        let _ = std::fs::remove_file(par_path);
        large_best = Some(match large_best {
            None => (lseq, lpar),
            Some((bs, bp)) => (
                if lseq.wall_secs < bs.wall_secs {
                    lseq
                } else {
                    bs
                },
                if lpar.wall_secs < bp.wall_secs {
                    lpar
                } else {
                    bp
                },
            ),
        });
    }
    let (lseq, lpar) = large_best.expect("at least one rep");

    // The service regime keeps its own best-of (`service_reps`, frozen-
    // regime style): each rung of the client ladder runs its measured
    // passes against one warm daemon inside a single child process.
    let service = run_service_regime(scale, &out_dir, &bat);

    // The frozen regime reuses the metrics-on parsed batch (`met`) as
    // its baseline: same worker count, same registry, same corpus —
    // the only variable is where the artifacts come from.
    let frozen = run_frozen_regime(scale, reps, &out_dir, &met);

    // The campaign regime is fully in-process (paced daemons, so wall
    // time is capacity-bound, not allocator-bound — child isolation
    // would buy nothing).
    let campaign = run_campaign_regime(scale, &out_dir);

    // The incremental regime is in-process for the same reason: wall
    // time is store-reuse-bound, and both sides share one warm tool by
    // design.
    let incremental = run_incremental_regime(scale, &out_dir);

    let summary = Summary {
        scale: scale.label().to_string(),
        apps,
        jobs,
        reps,
        sequential_secs: seq.wall_secs,
        batch_secs: bat.wall_secs,
        sequential_apps_per_sec: apps as f64 / seq.wall_secs.max(f64::EPSILON),
        batch_apps_per_sec: apps as f64 / bat.wall_secs.max(f64::EPSILON),
        speedup: seq.wall_secs / bat.wall_secs.max(f64::EPSILON),
        peak_loaded_bytes: bat.peak_loaded_bytes,
        cache_hits: bat.cache_hits,
        cache_misses: bat.cache_misses,
        cache_entries: bat.cache_entries,
        artifact_cache_hits: bat.artifact_cache_hits,
        artifact_cache_misses: bat.artifact_cache_misses,
        scan_cache_hits: bat.scan_cache_hits,
        scan_cache_misses: bat.scan_cache_misses,
        mismatches: bat.mismatches,
        reports_identical: true,
        metrics: MetricsOverheadSummary {
            batch_secs: bat.wall_secs,
            batch_metrics_secs: met.wall_secs,
            overhead_pct: (met.wall_secs - bat.wall_secs) / bat.wall_secs.max(f64::EPSILON) * 100.0,
            scan_spans: met.metrics_scan_spans,
            clvm_load_secs: met.metrics_clvm_secs,
            explore_secs: met.metrics_explore_secs,
            detect_secs: met.metrics_detect_secs,
            scan_total_secs: met.metrics_scan_secs,
            class_cache_hit_rate: met.class_hit_rate,
            artifact_cache_hit_rate: met.artifact_hit_rate,
            scan_cache_hit_rate: met.scan_hit_rate,
            reports_identical: true,
        },
        large_app: LargeAppSummary {
            apps: large_apps,
            app_jobs: large_app_jobs,
            sequential_secs: lseq.wall_secs,
            parallel_secs: lpar.wall_secs,
            speedup: lseq.wall_secs / lpar.wall_secs.max(f64::EPSILON),
            sequential_explore_secs: lseq.explore_secs,
            sequential_detect_secs: lseq.detect_secs,
            parallel_explore_secs: lpar.explore_secs,
            parallel_detect_secs: lpar.detect_secs,
            mismatches: lpar.mismatches,
            reports_identical: true,
        },
        service,
        frozen,
        campaign,
        incremental,
    };

    println!(
        "\nBatch scan engine summary ({} apps, {} scale, best of {} cold runs/side)\n",
        summary.apps, summary.scale, summary.reps
    );
    println!(
        "sequential: {:>8.2}s  {:>8.1} apps/s",
        summary.sequential_secs, summary.sequential_apps_per_sec
    );
    println!(
        "jobs={}:     {:>8.2}s  {:>8.1} apps/s  ({:.2}x)",
        summary.jobs, summary.batch_secs, summary.batch_apps_per_sec, summary.speedup
    );
    println!(
        "peak per-app loaded bytes: {} | class cache: {} hits / {} misses ({} entries)",
        summary.peak_loaded_bytes, summary.cache_hits, summary.cache_misses, summary.cache_entries
    );
    println!(
        "artifact cache: {} hits / {} misses | subtree scan cache: {} hits / {} misses",
        summary.artifact_cache_hits,
        summary.artifact_cache_misses,
        summary.scan_cache_hits,
        summary.scan_cache_misses
    );
    println!(
        "{} mismatches; per-app reports identical to sequential: {}",
        summary.mismatches, summary.reports_identical
    );
    let mx = &summary.metrics;
    println!("\nObservability overhead ({} scan spans)\n", mx.scan_spans);
    println!(
        "batch (metrics off): {:>8.2}s | batch (metrics on): {:>8.2}s | overhead {:+.2}%",
        mx.batch_secs, mx.batch_metrics_secs, mx.overhead_pct
    );
    println!(
        "phase split: clvm_load {:.2}s | explore {:.2}s | detect {:.2}s | scan_total {:.2}s",
        mx.clvm_load_secs, mx.explore_secs, mx.detect_secs, mx.scan_total_secs
    );
    println!(
        "hit rates: class {:.1}% | artifact {:.1}% | subtree scan {:.1}%",
        mx.class_cache_hit_rate * 100.0,
        mx.artifact_cache_hit_rate * 100.0,
        mx.scan_cache_hit_rate * 100.0
    );
    let la = &summary.large_app;
    println!(
        "\nLarge-app regime ({} oversized apps, app_jobs={})\n",
        la.apps, la.app_jobs
    );
    println!(
        "sequential: {:>8.2}s  (explore {:.2}s / detect {:.2}s)",
        la.sequential_secs, la.sequential_explore_secs, la.sequential_detect_secs
    );
    println!(
        "intra-app:  {:>8.2}s  (explore {:.2}s / detect {:.2}s)  ({:.2}x)",
        la.parallel_secs, la.parallel_explore_secs, la.parallel_detect_secs, la.speedup
    );
    println!(
        "{} mismatches; reports identical to sequential: {}",
        la.mismatches, la.reports_identical
    );
    let sv = &summary.service;
    println!(
        "\nScan service regime ({} apps, jobs={}, window={}, best of {} passes; batch engine {:.1} apps/s)\n",
        sv.apps, sv.jobs, sv.window, sv.reps, sv.batch_apps_per_sec
    );
    for r in &sv.regimes {
        println!(
            "{:>5} clients: {:>5} scans  {:>7.2}s  {:>7.1} apps/s  ({:>5.1}% of batch)  p50 {:>7.1}ms  p99 {:>8.1}ms",
            r.clients, r.scans, r.secs, r.apps_per_sec, r.pct_of_batch, r.p50_ms, r.p99_ms
        );
    }
    if let Some(r) = sv.regimes.last() {
        println!(
            "{} mismatches; reports identical to batch engine at every client count: {}",
            r.mismatches, r.reports_identical
        );
    }
    let fz = &summary.frozen;
    println!(
        "\nFrozen-artifact regime ({} apps, jobs={})\n",
        fz.apps, fz.jobs
    );
    println!(
        "parsed batch (metrics on): {:>8.2}s | frozen batch: {:>8.2}s",
        fz.parsed_batch_secs, fz.frozen_batch_secs
    );
    println!(
        "warm-path clvm_load share: parsed {:.1}% -> frozen {:.2}%",
        fz.parsed_clvm_share_pct, fz.frozen_clvm_share_pct
    );
    println!(
        "time to first scan: parsed {:.3}s (artifacts {:.3}s) | frozen {:.3}s (attach {:.3}s)  ({:.1}x)",
        fz.ttfs_parsed_secs,
        fz.ttfs_parsed_startup_secs,
        fz.ttfs_frozen_secs,
        fz.ttfs_frozen_startup_secs,
        fz.ttfs_speedup
    );
    println!(
        "images: framework {} bytes, corpus {} bytes | {} mismatches; reports identical to parsed: {}",
        fz.framework_image_bytes, fz.corpus_image_bytes, fz.mismatches, fz.reports_identical
    );
    let cp = &summary.campaign;
    println!(
        "\nCampaign fleet regime ({} apps, jobs={}/daemon, {}ms pace, {} host core(s), best of {} runs)\n",
        cp.apps, cp.jobs_per_daemon, cp.pace_ms, cp.host_cores, cp.reps
    );
    for f in &cp.fleets {
        let per_daemon: Vec<String> = f
            .per_daemon
            .iter()
            .map(|d| format!("{:.1}", d.apps_per_sec))
            .collect();
        println!(
            "fleet {}: {:>7.2}s  {:>6.1} apps/s  (per daemon: {})",
            f.fleet,
            f.secs,
            f.apps_per_sec,
            per_daemon.join(" + ")
        );
    }
    println!(
        "fleet-2 over fleet-1: {:.2}x | {} mismatches; reports identical to batch engine at every fleet size: {}",
        cp.speedup_fleet2_over_fleet1, cp.mismatches, cp.reports_identical
    );
    let inc = &summary.incremental;
    println!(
        "\nIncremental rescan regime ({} apps, {} updated at {:.0}% class churn)\n",
        inc.apps, inc.updated_apps, inc.churn_pct
    );
    println!(
        "full rescan:        {:>8.2}s  {:>8.1} apps/s",
        inc.full_rescan_secs, inc.full_apps_per_sec
    );
    println!(
        "incremental rescan: {:>8.2}s  {:>8.1} apps/s  ({:.1}x)",
        inc.incremental_rescan_secs, inc.incremental_apps_per_sec, inc.speedup
    );
    println!(
        "delta: {} hits / {} misses ({:.1}% hit rate), {} classes reanalyzed, {}/{} apps on the whole-app fast path",
        inc.delta_hits,
        inc.delta_misses,
        inc.hit_rate * 100.0,
        inc.classes_reanalyzed,
        inc.app_fast_path,
        inc.apps
    );
    println!(
        "{} mismatches; incremental reports identical to full rescan: {}",
        inc.mismatches, inc.reports_identical
    );

    let json = serde_json::to_string_pretty(&summary).expect("summary serializes");
    std::fs::write("BENCH_scan.json", json).expect("write BENCH_scan.json");
    eprintln!("json: BENCH_scan.json");
}
