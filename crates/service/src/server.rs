//! The daemon: a warm [`ScanEngine`] behind a nonblocking event loop.
//!
//! Thread model (std-only — no async runtime is vendored):
//!
//! ```text
//!            ┌────────────────────────────────────────────┐
//!            │   reactor (ONE thread, epoll event loop)   │
//!            │  listener + wake pipe + every client conn  │
//!            └──────┬──────────────────────────▲──────────┘
//!            submit │                          │ completions
//!            ┌──────▼─────────────────────┐    │ + wake byte
//!            │ JobQueue (bounded, typed   │    │
//!            │ admission, drain-to-empty) │    │
//!            └──────┬──────────────┬──────┘    │
//!              next │         next │           │
//!            ┌──────▼─────┐ ┌──────▼─────┐     │  `jobs` scan workers
//!            │  worker 0  │ │  worker …  ├─────┘  over ONE warm
//!            └────────────┘ └────────────┘        ScanEngine
//! ```
//!
//! The reactor (see [`crate::reactor`]) owns every socket: readiness-
//! driven reads, per-connection state machines, pipelined request ids,
//! backpressure by read suspension, and `writev` response flushing.
//! Workers own everything per-scan that is CPU: base64 decode, SAPK
//! decode and the scan itself, each step inside the engine's isolation
//! boundary ([`ScanEngine::isolate`]) — so the event loop never blocks
//! on payload work and scales scan throughput with the worker pool,
//! not with connection count.
//!
//! The engine is built once, [prewarmed](ScanEngine::prewarm), and
//! reused for the process lifetime: the framework model, the
//! [`ShardedClassCache`], [`ArtifactCache`], and `DeepScanCache` all
//! survive across requests — the amortization the batch engine gets
//! within one process, extended to a stream of requests (the paper's
//! RQ3 scalability claim in its deployed shape).
//!
//! [`ShardedClassCache`]: saint_analysis::ShardedClassCache
//! [`ArtifactCache`]: saint_analysis::ArtifactCache

use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use saint_delta::DeltaStats;
use saint_ir::codec;
use saint_obs::{Counter, MetricsRegistry, Phase};
use saint_sync::Mutex;
use saintdroid::{Report, ScanEngine, ScanError};

use crate::protocol::{
    self, error_code, ErrorResponse, MetricsResponse, ReactorStatus, ScanResponse, StatusResponse,
    PROTOCOL_VERSION,
};
use crate::queue::JobQueue;
use crate::reactor::{CompletionSink, Reactor, ReactorGauges};

/// How the daemon is shaped; see the crate docs for the CLI mapping.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7744`; port `0` binds an
    /// ephemeral port (the bound address is reported by
    /// [`ServerHandle::addr`]).
    pub listen: String,
    /// Concurrent scan workers over the warm engine.
    pub jobs: usize,
    /// Admission bound: scans queued beyond the workers (clamped to at
    /// least 1). Overflow parks under backpressure.
    pub queue_depth: usize,
    /// Per-connection pipeline window: scans one connection may have
    /// unanswered before its reads are suspended (backpressure).
    pub window: usize,
    /// Per-line byte ceiling; longer requests get `too_large`.
    pub max_line_bytes: usize,
    /// Operator-assigned daemon name, echoed in `status`/`metrics`
    /// provenance so fleet tooling can attribute results per daemon.
    pub name: Option<String>,
    /// Artificial per-scan service time: each worker sleeps this long
    /// after every scan. `None` (the default) disables it. This exists
    /// for capacity emulation in tests and CI smoke runs — on a host with
    /// fewer cores than daemons, CPU-bound scans cannot show fleet
    /// scaling, but paced daemons expose whether the campaign layer
    /// keeps N of them saturated.
    pub scan_pace: Option<Duration>,
    /// Root of the incremental artifact store served to `delta`
    /// requests (conventionally `.saint/delta`). `None` (the default)
    /// disables the verb: `delta` requests are answered with a plain
    /// full scan and no reuse accounting.
    pub delta_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:7744".to_string(),
            jobs: saintdroid::engine::default_jobs(),
            queue_depth: 64,
            window: DEFAULT_WINDOW,
            max_line_bytes: protocol::MAX_LINE_BYTES,
            name: None,
            scan_pace: None,
            delta_dir: None,
        }
    }
}

/// The default per-connection pipeline window, shared by the daemon
/// ([`ServerConfig::default`]) and the `submit --pipeline` client so
/// the two sides agree out of the box.
pub const DEFAULT_WINDOW: usize = 64;

/// How often the supervisor polls for dead scan workers.
const SUPERVISE_POLL: Duration = Duration::from_millis(25);

/// The phase a `delta` request's replay or incremental scan reports
/// when it panics outside any pipeline phase.
const DELTA_SCAN: &str = "delta_scan";

pub(crate) struct Shared {
    pub(crate) engine: ScanEngine,
    /// Operator-assigned daemon name (see [`ServerConfig::name`]).
    pub(crate) name: Option<String>,
    /// Post-scan worker sleep (see [`ServerConfig::scan_pace`]).
    pub(crate) scan_pace: Option<Duration>,
    /// Warm incremental scanner over the configured artifact store
    /// (see [`ServerConfig::delta_dir`]); `None` disables the verb.
    pub(crate) delta: Option<saint_delta::DeltaScanner>,
    pub(crate) queue: JobQueue,
    pub(crate) registry: Arc<MetricsRegistry>,
    pub(crate) started: Instant,
    pub(crate) shutting_down: AtomicBool,
    pub(crate) addr: SocketAddr,
    pub(crate) max_line_bytes: usize,
    /// Per-connection pipeline window (see [`ServerConfig::window`]).
    pub(crate) window: usize,
    /// Worker → reactor completion mailbox + wake pipe.
    pub(crate) sink: Arc<CompletionSink>,
    /// Live reactor state for `status`/`metrics`.
    pub(crate) gauges: ReactorGauges,
    /// Live scan-worker handles, owned by the supervisor (which reaps
    /// finished ones and respawns replacements) and read by `status`.
    pub(crate) scan_workers: Mutex<Vec<JoinHandle<()>>>,
    /// Monotone name counter so respawned workers get fresh names.
    next_worker_id: AtomicUsize,
}

impl Shared {
    fn reactor_status(&self) -> ReactorStatus {
        ReactorStatus {
            open_connections: self.gauges.open_conns.load(Ordering::Relaxed) as u64,
            inflight: self.gauges.inflight.load(Ordering::Relaxed) as u64,
            suspended_connections: self.gauges.suspended.load(Ordering::Relaxed) as u64,
            connections_accepted: self.registry.counter(Counter::ConnectionsAccepted),
            backpressure_suspends: self.registry.counter(Counter::BackpressureSuspends),
            write_stalls: self.registry.counter(Counter::WriteStalls),
        }
    }

    pub(crate) fn status(&self) -> StatusResponse {
        let q = self.queue.stats();
        StatusResponse {
            v: PROTOCOL_VERSION,
            kind: "status".to_string(),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            jobs_served: q.served,
            jobs_active: q.active,
            scan_workers: self
                .scan_workers
                .lock()
                .iter()
                .filter(|h| !h.is_finished())
                .count(),
            queue_depth: q.depth,
            queue_capacity: q.capacity,
            timed_out: q.timed_out,
            draining: q.draining,
            class_cache: self.engine.cache_stats().map(Into::into),
            artifact_cache: self.engine.artifact_cache_stats().map(Into::into),
            scan_cache: self.engine.scan_cache_stats().map(Into::into),
            frozen: self.engine.frozen_boot().map(Into::into),
            reactor: Some(self.reactor_status()),
            daemon: self.name.clone(),
            detectors: Some(self.engine.tool().detectors().to_string()),
        }
    }

    /// Checks a request's `detectors` assertion against the warm
    /// engine's enabled set. `None` means the assertion holds; `Some`
    /// carries the `detector_mismatch` message — a report computed by
    /// the wrong detector families must never be served silently.
    pub(crate) fn detector_mismatch(&self, requested: &str) -> Option<String> {
        let enabled = self.engine.tool().detectors();
        match saintdroid::DetectorSet::parse(requested) {
            Ok(set) if set == enabled => None,
            Ok(set) => Some(format!(
                "daemon runs detectors `{enabled}`, request asserts `{set}`"
            )),
            Err(e) => Some(format!("bad detectors spec `{requested}`: {e}")),
        }
    }

    /// The unified observability view: the engine's snapshot (phase
    /// spans, counters, caches, meter) extended with live queue and
    /// reactor state.
    pub(crate) fn metrics(&self) -> MetricsResponse {
        let mut snap = self.engine.metrics_snapshot();
        let q = self.queue.stats();
        snap.queue = Some(saint_obs::QueueSnapshot {
            depth: q.depth as u64,
            capacity: q.capacity as u64,
            active: q.active as u64,
            served: q.served,
            timed_out: q.timed_out,
        });
        MetricsResponse::new(snap)
            .with_frozen(self.engine.frozen_boot().map(Into::into))
            .with_reactor(Some(self.reactor_status()))
    }

    /// Flips the daemon into drain mode exactly once: admission closes,
    /// queued scans finish, and the reactor is woken so it closes the
    /// listener and quiesces connections.
    pub(crate) fn begin_shutdown(&self) {
        if self
            .shutting_down
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        self.queue.drain();
        self.sink.wake();
    }
}

/// A running daemon; dropped handles leave the threads running —
/// call [`wait`](Self::wait) to block until shutdown completes.
pub struct ServerHandle {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound listen address (resolves port `0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Triggers the same graceful drain a protocol `shutdown` request
    /// does (for embedders; remote clients use the protocol message).
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the reactor and every worker thread has exited —
    /// i.e. until a shutdown request arrived, the queue drained, and
    /// all connections flushed.
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Binds the listener, builds the reactor, spawns the worker pool, and
/// returns immediately. The engine should already be
/// [prewarmed](ScanEngine::prewarm) so the first request pays no
/// one-time framework cost.
///
/// # Errors
/// Propagates socket errors (bind/poller registration).
pub fn start(engine: ScanEngine, cfg: &ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.listen)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    // A daemon always carries a registry (engines built without one
    // get a fresh one here) so every `metrics` request has an answer
    // and queue waits are accounted from the first job.
    let engine = engine.ensure_metrics();
    let Some(registry) = engine.metrics().cloned() else {
        return Err(std::io::Error::other("engine lost its metrics registry"));
    };
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    let sink = Arc::new(CompletionSink::new(wake_tx));
    let shared = Arc::new(Shared {
        queue: JobQueue::new(cfg.queue_depth.max(1)).with_metrics(Arc::clone(&registry)),
        engine,
        name: cfg.name.clone(),
        scan_pace: cfg.scan_pace,
        delta: cfg.delta_dir.as_ref().map(saint_delta::DeltaScanner::new),
        registry,
        started: Instant::now(),
        shutting_down: AtomicBool::new(false),
        addr,
        max_line_bytes: cfg.max_line_bytes,
        window: cfg.window.max(1),
        sink,
        gauges: ReactorGauges::default(),
        scan_workers: Mutex::new(Vec::new()),
        next_worker_id: AtomicUsize::new(0),
    });

    let jobs = cfg.jobs.max(1);
    {
        let mut workers = shared.scan_workers.lock();
        for _ in 0..jobs {
            workers.push(spawn_scan_worker(Arc::clone(&shared))?);
        }
    }
    // Built before spawning so registration failures surface here.
    let reactor = Reactor::new(Arc::clone(&shared), listener, wake_rx)?;
    let mut threads = Vec::new();
    threads.push(
        std::thread::Builder::new()
            .name("saint-reactor".to_string())
            .spawn(move || reactor.run())?,
    );
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("saint-supervisor".to_string())
                .spawn(move || supervise_workers(&shared, jobs))?,
        );
    }
    Ok(ServerHandle { shared, threads })
}

/// Spawns one scan worker with a process-unique thread name.
fn spawn_scan_worker(shared: Arc<Shared>) -> std::io::Result<JoinHandle<()>> {
    let id = shared.next_worker_id.fetch_add(1, Ordering::Relaxed);
    std::thread::Builder::new()
        .name(format!("saint-scan-{id}"))
        .spawn(move || scan_worker(&shared))
}

/// The self-healing loop: scan workers are designed never to die (the
/// engine's boundary catches decode and scan panics), but a
/// bug between dequeue and hand-off — or an injected `queue_handoff`
/// fault — still kills one. The supervisor reaps finished workers and
/// respawns replacements, so a crash costs one request, never a
/// permanent slice of scan capacity. During drain it switches to
/// joining the survivors and exits.
fn supervise_workers(shared: &Arc<Shared>, pool_size: usize) {
    loop {
        if shared.shutting_down.load(Ordering::Acquire) {
            // Drain mode: workers exit normally once the queue is dry;
            // take and join whatever is left, then exit.
            let workers = std::mem::take(&mut *shared.scan_workers.lock());
            for handle in workers {
                let _ = handle.join();
            }
            return;
        }
        let dead: Vec<JoinHandle<()>> = {
            let mut workers = shared.scan_workers.lock();
            let mut dead = Vec::new();
            let mut i = 0;
            while i < workers.len() {
                if workers[i].is_finished() {
                    dead.push(workers.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            dead
        };
        for handle in dead {
            // A panicked join hands back the payload; it was already
            // accounted (ScansPanicked) by the dying worker's guard.
            let _ = handle.join();
        }
        // Top up to the configured pool size (spawn failures leave the
        // pool short; the next poll retries).
        loop {
            let live = shared
                .scan_workers
                .lock()
                .iter()
                .filter(|h| !h.is_finished())
                .count();
            if live >= pool_size || shared.shutting_down.load(Ordering::Acquire) {
                break;
            }
            let Ok(handle) = spawn_scan_worker(Arc::clone(shared)) else {
                break;
            };
            shared.scan_workers.lock().push(handle);
            shared.registry.add(Counter::WorkersRespawned, 1);
        }
        std::thread::sleep(SUPERVISE_POLL);
    }
}

/// Keeps per-job queue accounting truthful even when the worker thread
/// unwinds between dequeue and hand-off: a dropped (not completed)
/// guard releases the job's `active` slot and books the panic, so a
/// dying worker never leaves a phantom active job behind. The job's
/// [`Responder`](crate::reactor::Responder) is dropped by the same
/// unwind and answers the client `internal`/`queue_handoff`.
struct JobGuard<'a> {
    shared: &'a Shared,
    completed: bool,
}

impl JobGuard<'_> {
    fn complete(mut self) {
        self.completed = true;
        // Bookkeeping before the hand-off, mirroring `mark_served`: a
        // client that reads its report and immediately asks for
        // `status`/`metrics` must never see its own finished job still
        // counted as active.
        self.shared.queue.finish();
    }
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        if !self.completed {
            self.shared.queue.finish();
            self.shared.registry.add(Counter::ScansPanicked, 1);
        }
    }
}

/// Everything one scan can turn into, computed worker-side.
enum Outcome {
    /// A report, with reuse accounting when the incremental scanner
    /// answered.
    Report(Box<Report>, Option<DeltaStats>),
    BadBase64,
    BadPackage(saint_ir::CodecError),
    /// A panic the engine's isolation boundary caught.
    Failed(ScanError),
}

impl From<Result<(Report, Option<DeltaStats>), ScanError>> for Outcome {
    fn from(scan: Result<(Report, Option<DeltaStats>), ScanError>) -> Self {
        match scan {
            Ok((report, stats)) => Outcome::Report(Box::new(report), stats),
            Err(e) => Outcome::Failed(e),
        }
    }
}

/// One scan worker: drain the queue over the warm engine until told to
/// exit. The whole payload path runs here — base64, SAPK decode, scan —
/// so the reactor thread never touches package bytes.
fn scan_worker(shared: &Shared) {
    while let Some(job) = shared.queue.next() {
        let guard = JobGuard {
            shared,
            completed: false,
        };
        saint_faults::trip(saint_faults::FaultPoint::QueueHandoff);
        let outcome = run_scan(shared, &job.package_b64, job.delta);
        // Capacity emulation: hold the worker for the configured
        // service time before answering (off by default).
        if let Some(pace) = shared.scan_pace {
            std::thread::sleep(pace);
        }
        guard.complete();
        let mut responder = job.responder;
        // Losing the settle race means the reactor already answered
        // `timeout`; the outcome is discarded, unserialized.
        if responder.begin() {
            let id = responder.id();
            let (frame, served) = shared
                .registry
                .time(Phase::Serialize, || render(outcome, id));
            if served {
                shared.queue.mark_served();
            }
            responder.send(frame.into_bytes());
        }
    }
}

/// Decodes and scans one package on the worker thread. `delta`
/// requests route through the warm incremental scanner when the daemon
/// carries one ([`ServerConfig::delta_dir`]); without a store they
/// degrade to a plain full scan — same report, no reuse accounting.
///
/// A `delta` request whose container bytes the scanner has already
/// answered is replayed right after base64, before the SAPK decode
/// ([`DeltaScanner::replay_encoded`](saint_delta::DeltaScanner::replay_encoded)):
/// re-uploads of unchanged apps never pay for decoding. Everything else
/// decodes and takes the full tiered scan. The payload decode work is
/// recorded as one [`Phase::Decode`] span per request.
///
/// Every step runs inside the engine's isolation boundary
/// ([`ScanEngine::isolate`]), so a panic (or an injected fault) costs
/// this request an `internal` answer naming its phase — `decode`,
/// `delta_scan`, or the pipeline phase it hit — never the worker.
fn run_scan(shared: &Shared, package_b64: &str, delta: bool) -> Outcome {
    let decode_start = Instant::now();
    let Some(sapk) = protocol::base64_decode(package_b64) else {
        shared
            .registry
            .record(Phase::Decode, decode_start.elapsed());
        return Outcome::BadBase64;
    };
    let b64_time = decode_start.elapsed();
    let engine = &shared.engine;
    let tool = engine.tool();
    let scanner = shared.delta.as_ref().filter(|_| delta);
    if let Some(scanner) = scanner {
        let replayed = engine.isolate(DELTA_SCAN, || scanner.replay_encoded(tool, &sapk));
        if let Some(replayed) = replayed.transpose() {
            shared.registry.record(Phase::Decode, b64_time);
            return replayed.map(|(report, stats)| (report, Some(stats))).into();
        }
    }
    let sapk_start = Instant::now();
    let decoded = engine.isolate("decode", || codec::decode_apk(&sapk));
    shared
        .registry
        .record(Phase::Decode, b64_time + sapk_start.elapsed());
    let apk = match decoded {
        Ok(Ok(apk)) => apk,
        Ok(Err(e)) => return Outcome::BadPackage(e),
        Err(e) => return Outcome::Failed(e),
    };
    let scanned = match scanner {
        // The wire payload *is* the canonical container, so the
        // byte-keyed app key still applies on this path: a replay the
        // memo missed is served from the on-disk store.
        Some(scanner) => {
            let app_jobs = engine.app_job_count().unwrap_or(1);
            engine
                .isolate(DELTA_SCAN, || {
                    scanner.scan_encoded(tool, &sapk, &apk, app_jobs)
                })
                .map(|(report, stats)| (report, Some(stats)))
        }
        None => engine.try_scan_one(&apk).map(|report| (report, None)),
    };
    scanned.into()
}

/// Serializes the outcome exactly once — the returned string *is* the
/// frame the reactor writes from. The flag says whether a report
/// reached the client (drives `mark_served`). The worker records each
/// call as one [`Phase::Serialize`] span.
fn render(outcome: Outcome, id: Option<u64>) -> (String, bool) {
    match outcome {
        Outcome::Report(report, stats) => {
            let mut response = ScanResponse::new(*report).with_id(id);
            if let Some(stats) = stats {
                response = response.with_delta(stats.into());
            }
            (protocol::to_line(&response), true)
        }
        Outcome::BadBase64 => (
            protocol::to_line(
                &ErrorResponse::new(error_code::BAD_PACKAGE, "package_b64 is not valid base64")
                    .with_id(id),
            ),
            false,
        ),
        Outcome::BadPackage(e) => {
            let mut err = ErrorResponse::new(
                error_code::BAD_PACKAGE,
                format!("not a SAPK container: {e}"),
            )
            .with_id(id);
            // Point the client at the offending byte when the decoder
            // can name one — triage without re-running the decode.
            if let Some(offset) = e.offset() {
                err = err.with_offset(offset as u64);
            }
            (protocol::to_line(&err), false)
        }
        Outcome::Failed(e) => (
            protocol::to_line(
                &ErrorResponse::new(error_code::INTERNAL, e.to_string())
                    .with_phase(e.phase())
                    .with_id(id),
            ),
            false,
        ),
    }
}
