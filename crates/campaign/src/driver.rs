//! The campaign driver: one pipelined connection per daemon, shard
//! queues fed by the consistent-hash planner, failover on daemon loss,
//! and journaled completion.
//!
//! Threading model: one worker thread per endpoint inside a
//! [`std::thread::scope`]. Each worker owns its
//! [`PipelinedClient`] and drains its own shard queue in chunks; the
//! shared state (queues, planner, journal + store sink, progress
//! counters) is behind short critical sections, so the scan RPCs —
//! where all the time goes — run lock-free and fully parallel across
//! daemons.
//!
//! Failure taxonomy (the PR-5/PR-7 retry classes, applied fleet-wide):
//!
//! - **Transient** (transport loss, `busy`, `internal`): the client
//!   already retried against the same daemon with backoff; if the
//!   error still surfaces, the daemon is presumed dead. The worker
//!   *fails over*: the dead daemon leaves the ring (survivor shards do
//!   not move — see [`ShardPlanner`]), and its unscanned units are
//!   re-queued onto survivors as resubmissions. `draining` lands here
//!   too: a daemon announcing shutdown is a daemon leaving the fleet.
//! - **Permanent** (`bad_package`, `too_large`, `timeout`, …): retrying
//!   elsewhere would repeat the answer. Because a pipelined chunk fails
//!   as a unit, the worker first isolates the offender by re-scanning
//!   the chunk one unit at a time, journaling the innocent ones, then
//!   stops the campaign with a typed [`CampaignError::UnitRejected`].
//!
//! Crash safety: any worker panic (including injected
//! [`FaultPoint::CampaignDispatch`] faults) flips a shared abort flag
//! on unwind so sibling workers stop dispatching, the journal's Drop
//! flushes what it can, and the panic propagates out of the scope. The
//! journal is the only state that matters: `campaign resume` replays
//! it and re-scans exactly the units it does not cover.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use saint_faults::FaultPoint;
use saint_obs::{Counter, MetricsRegistry};
use saint_service::{ClientError, PipelinedClient, RetryPolicy, DEFAULT_WINDOW};
use saint_sync::Mutex;

use crate::error::CampaignError;
use crate::journal::{replay, JournalRecord, JournalWriter};
use crate::registry::CorpusRegistry;
use crate::shard::ShardPlanner;
use crate::store::{DaemonStats, ResultStore, RuntimeStats};

/// Knobs for one campaign execution.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// In-flight scans per daemon connection (the pipelining window).
    pub window: usize,
    /// Same-daemon retries before a worker declares its daemon lost.
    pub retries: u32,
    /// Journal records per fsync batch.
    pub checkpoint_every: usize,
    /// Optional per-scan deadline forwarded to the daemons.
    pub deadline_ms: Option<u64>,
    /// Units a worker claims from its shard queue per dispatch — the
    /// journal/checkpoint granularity, distinct from `window` (the
    /// wire-level pipelining within one dispatch).
    pub chunk: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            window: DEFAULT_WINDOW,
            retries: 3,
            checkpoint_every: 32,
            deadline_ms: None,
            chunk: 8,
        }
    }
}

/// What a finished campaign execution hands back.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Every recorded unit — replayed and freshly scanned alike.
    pub store: ResultStore,
    /// Units scanned by *this* execution.
    pub completed: usize,
    /// Units skipped because the journal already covered them.
    pub resumed: usize,
    /// Journal records ignored because their ids are not in this
    /// corpus (a journal from a different campaign, or a shrunk one).
    pub foreign: usize,
    /// Whether the replayed journal ended in a damaged tail.
    pub journal_truncated: bool,
    /// Wall-clock and fleet statistics for this execution.
    pub runtime: RuntimeStats,
}

/// Journal writer and result store behind one lock: a record is
/// journaled in the same critical section that admits it to the store,
/// so the two can never disagree about what is complete.
struct Sink {
    journal: JournalWriter,
    store: ResultStore,
}

/// Everything the workers share.
struct FleetState<'a> {
    registry: &'a CorpusRegistry,
    /// Per-endpoint shard queues of unit indices.
    queues: Vec<Mutex<VecDeque<usize>>>,
    planner: Mutex<ShardPlanner>,
    sink: Mutex<Sink>,
    /// Units neither journaled nor declared lost yet. The workers'
    /// termination condition.
    outstanding: AtomicUsize,
    /// Units that could not be dispatched anywhere (fleet exhausted).
    lost: AtomicUsize,
    /// Per-unit resubmission counts (indexed like `registry.units()`).
    resubmits: Vec<AtomicU64>,
    /// Per-endpoint completion counts.
    per_daemon: Vec<AtomicU64>,
    resubmissions: AtomicU64,
    failovers: AtomicU64,
    /// Set on fatal errors and worker panics: stop dispatching.
    aborted: AtomicBool,
    fatal: Mutex<Option<CampaignError>>,
}

impl FleetState<'_> {
    fn bump(&self, metrics: Option<&Arc<MetricsRegistry>>, counter: Counter, n: u64) {
        if let Some(m) = metrics {
            m.add(counter, n);
        }
    }

    fn abort_with(&self, err: CampaignError) {
        let mut fatal = self.fatal.lock();
        if fatal.is_none() {
            *fatal = Some(err);
        }
        self.aborted.store(true, Ordering::SeqCst);
    }
}

/// Flips the fleet abort flag when a worker unwinds, so an injected
/// panic in one worker cannot leave the others polling forever.
struct AbortOnUnwind<'a>(&'a AtomicBool);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

/// Whether an error means "this daemon is gone" (fail over) rather
/// than "this package is bad" (isolate and stop).
fn is_daemon_loss(err: &ClientError) -> bool {
    if err.is_transient() {
        return true;
    }
    matches!(err, ClientError::Rejected(e) if e.code == saint_service::protocol::error_code::DRAINING)
}

/// Runs (or resumes) a campaign over `registry` against `endpoints`.
///
/// With `resume`, the journal at `journal_path` is replayed first and
/// only uncovered units are dispatched; the final report is provably
/// the converged one because the store deduplicates by content-derived
/// id. Without `resume`, the journal is created fresh (truncating any
/// previous one).
///
/// # Errors
/// [`CampaignError::EmptyCorpus`] / [`CampaignError::NoDaemons`] on
/// empty inputs, journal errors per [`replay`], and the driver-level
/// failures ([`CampaignError::AllDaemonsLost`],
/// [`CampaignError::UnitRejected`]).
///
/// # Panics
/// Propagates worker panics (in practice: injected
/// [`FaultPoint::CampaignDispatch`] faults) after aborting the fleet;
/// the journal keeps every checkpointed completion.
pub fn run_campaign(
    registry: &CorpusRegistry,
    endpoints: &[String],
    journal_path: &Path,
    resume: bool,
    cfg: &CampaignConfig,
    metrics: Option<&Arc<MetricsRegistry>>,
) -> Result<CampaignOutcome, CampaignError> {
    if registry.is_empty() {
        return Err(CampaignError::EmptyCorpus);
    }
    if endpoints.is_empty() {
        return Err(CampaignError::NoDaemons);
    }

    // On resume, seed the store from the journal's valid prefix and append after it.
    let mut store = ResultStore::new();
    let mut resumed = 0_usize;
    let mut foreign = 0_usize;
    let mut journal_truncated = false;
    let mut journal = if resume {
        let replayed = replay(journal_path)?;
        journal_truncated = replayed.truncated;
        for record in replayed.records {
            if registry.find(record.id).is_some() {
                if store.insert(record) {
                    resumed += 1;
                }
            } else {
                foreign += 1;
            }
        }
        JournalWriter::append_to(journal_path, replayed.valid_len, cfg.checkpoint_every)?
    } else {
        JournalWriter::create(journal_path, cfg.checkpoint_every)?
    };
    if let Some(m) = metrics {
        journal = journal.with_metrics(Arc::clone(m));
    }

    // Shard the uncovered units across the fleet.
    let planner = ShardPlanner::new(endpoints);
    let mut queues: Vec<VecDeque<usize>> = endpoints.iter().map(|_| VecDeque::new()).collect();
    let mut remaining = 0_usize;
    for (idx, unit) in registry.units().iter().enumerate() {
        if store.contains(unit.id) {
            continue;
        }
        // A fresh planner always has a non-empty ring here.
        if let Some(owner) = planner.assign(unit.id) {
            queues[owner].push_back(idx);
            remaining += 1;
        }
    }

    let started = Instant::now();
    let state = FleetState {
        registry,
        queues: queues.into_iter().map(Mutex::new).collect(),
        planner: Mutex::new(planner),
        sink: Mutex::new(Sink { journal, store }),
        outstanding: AtomicUsize::new(remaining),
        lost: AtomicUsize::new(0),
        resubmits: registry.units().iter().map(|_| AtomicU64::new(0)).collect(),
        per_daemon: endpoints.iter().map(|_| AtomicU64::new(0)).collect(),
        resubmissions: AtomicU64::new(0),
        failovers: AtomicU64::new(0),
        aborted: AtomicBool::new(false),
        fatal: Mutex::new(None),
    };

    std::thread::scope(|scope| {
        for (idx, endpoint) in endpoints.iter().enumerate() {
            let state = &state;
            scope.spawn(move || worker(state, idx, endpoint, cfg, metrics));
        }
    });

    if let Some(err) = state.fatal.lock().take() {
        return Err(err);
    }
    let FleetState {
        sink,
        outstanding: _,
        lost,
        per_daemon,
        resubmissions,
        failovers,
        ..
    } = state;
    let mut sink = sink.into_inner();
    sink.journal.sync()?;
    let lost = lost.load(Ordering::SeqCst);
    if lost > 0 {
        return Err(CampaignError::AllDaemonsLost {
            completed: sink.store.len(),
            lost,
        });
    }

    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
    let completed = sink.store.len() - resumed;
    let runtime = RuntimeStats {
        wall_secs,
        apps_per_sec: completed as f64 / wall_secs,
        daemons: endpoints
            .iter()
            .enumerate()
            .map(|(i, endpoint)| {
                let apps = per_daemon[i].load(Ordering::SeqCst);
                DaemonStats {
                    endpoint: endpoint.clone(),
                    apps,
                    apps_per_sec: apps as f64 / wall_secs,
                }
            })
            .collect(),
        resubmissions: resubmissions.load(Ordering::SeqCst),
        daemon_failovers: failovers.load(Ordering::SeqCst),
        checkpoint_flushes: sink.journal.flushes(),
    };
    Ok(CampaignOutcome {
        store: sink.store,
        completed,
        resumed,
        foreign,
        journal_truncated,
        runtime,
    })
}

/// One endpoint's worker: drain the shard queue in chunks over a
/// pipelined connection, journal completions, fail over on loss.
fn worker(
    state: &FleetState<'_>,
    me: usize,
    endpoint: &str,
    cfg: &CampaignConfig,
    metrics: Option<&Arc<MetricsRegistry>>,
) {
    let _abort_guard = AbortOnUnwind(&state.aborted);
    let mut client = match PipelinedClient::connect(endpoint, cfg.window.max(1)) {
        Ok(client) => {
            let mut client = client.with_retry_policy(RetryPolicy::new(cfg.retries));
            if let Some(m) = metrics {
                client = client.with_metrics(Arc::clone(m));
            }
            client
        }
        Err(_) => {
            // Unreachable from the start — the daemon is already gone.
            fail_over(state, me, Vec::new(), metrics);
            return;
        }
    };

    loop {
        if state.aborted.load(Ordering::SeqCst) {
            return;
        }
        let batch: Vec<usize> = {
            let mut queue = state.queues[me].lock();
            let take = cfg.chunk.max(1).min(queue.len());
            queue.drain(..take).collect()
        };
        if batch.is_empty() {
            if state.outstanding.load(Ordering::SeqCst) == 0 || !state.planner.lock().is_alive(me) {
                return;
            }
            // Another daemon's shard may yet fail over to us.
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }

        saint_faults::trip(FaultPoint::CampaignDispatch);
        state.bump(metrics, Counter::AppsDispatched, batch.len() as u64);

        let mut payloads: Vec<&[u8]> = Vec::with_capacity(batch.len());
        for &unit_idx in &batch {
            match state.registry.bytes(&state.registry.units()[unit_idx]) {
                Ok(bytes) => payloads.push(bytes),
                Err(err) => {
                    // Local corpus corruption, not a fleet problem.
                    state.abort_with(err);
                    return;
                }
            }
        }

        match client.scan_all_timed(&payloads, cfg.deadline_ms) {
            Ok((responses, latencies)) => {
                if !complete_batch(state, me, endpoint, &batch, &responses, &latencies, metrics) {
                    return;
                }
            }
            Err(err) if is_daemon_loss(&err) => {
                fail_over(state, me, batch, metrics);
                return;
            }
            Err(err) => {
                // A permanent rejection hides somewhere in the chunk;
                // isolate it one unit at a time.
                if !isolate_rejection(state, me, endpoint, &mut client, batch, err, cfg, metrics) {
                    return;
                }
            }
        }
    }
}

/// Journals a completed batch. Returns `false` on a fatal journal
/// failure (the campaign aborts).
#[allow(clippy::too_many_arguments)]
fn complete_batch(
    state: &FleetState<'_>,
    me: usize,
    endpoint: &str,
    batch: &[usize],
    responses: &[saint_service::ScanResponse],
    latencies: &[Duration],
    metrics: Option<&Arc<MetricsRegistry>>,
) -> bool {
    let mut sink = state.sink.lock();
    for ((&unit_idx, response), latency) in batch.iter().zip(responses).zip(latencies) {
        let unit = &state.registry.units()[unit_idx];
        let record = JournalRecord::from_report(
            unit.id,
            &response.report,
            endpoint,
            u64::try_from(latency.as_micros()).unwrap_or(u64::MAX),
            u32::try_from(state.resubmits[unit_idx].load(Ordering::SeqCst)).unwrap_or(u32::MAX),
        );
        if sink.store.insert(record.clone()) {
            if let Err(err) = sink.journal.append(&record) {
                state.abort_with(err);
                return false;
            }
            state.bump(metrics, Counter::AppsCompleted, 1);
            state.per_daemon[me].fetch_add(1, Ordering::SeqCst);
        }
        state.outstanding.fetch_sub(1, Ordering::SeqCst);
    }
    true
}

/// Takes a lost daemon out of the ring and re-queues its orphaned
/// units onto the survivors (or declares them lost when there are
/// none).
fn fail_over(
    state: &FleetState<'_>,
    me: usize,
    mut orphans: Vec<usize>,
    metrics: Option<&Arc<MetricsRegistry>>,
) {
    let mut planner = state.planner.lock();
    if planner.is_alive(me) {
        planner.remove(me);
        state.failovers.fetch_add(1, Ordering::SeqCst);
        state.bump(metrics, Counter::DaemonFailovers, 1);
    }
    orphans.extend(state.queues[me].lock().drain(..));
    for unit_idx in orphans {
        let id = state.registry.units()[unit_idx].id;
        match planner.assign(id) {
            Some(target) => {
                state.queues[target].lock().push_back(unit_idx);
                state.resubmits[unit_idx].fetch_add(1, Ordering::SeqCst);
                state.resubmissions.fetch_add(1, Ordering::SeqCst);
                state.bump(metrics, Counter::Resubmissions, 1);
            }
            None => {
                // No survivors: account the unit as lost so the run
                // can terminate and report `AllDaemonsLost`.
                state.lost.fetch_add(1, Ordering::SeqCst);
                state.outstanding.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// Re-scans a rejected chunk one unit at a time so exactly one unit
/// takes the blame. Returns `false` when the worker must stop (fatal
/// rejection recorded, or the daemon died mid-isolation).
#[allow(clippy::too_many_arguments)]
fn isolate_rejection(
    state: &FleetState<'_>,
    me: usize,
    endpoint: &str,
    client: &mut PipelinedClient,
    batch: Vec<usize>,
    chunk_error: ClientError,
    cfg: &CampaignConfig,
    metrics: Option<&Arc<MetricsRegistry>>,
) -> bool {
    for (at, &unit_idx) in batch.iter().enumerate() {
        let unit = &state.registry.units()[unit_idx];
        let bytes = match state.registry.bytes(unit) {
            Ok(bytes) => bytes,
            Err(err) => {
                state.abort_with(err);
                return false;
            }
        };
        match client.scan_all_timed(&[bytes], cfg.deadline_ms) {
            Ok((responses, latencies)) => {
                if !complete_batch(
                    state,
                    me,
                    endpoint,
                    &batch[at..=at],
                    &responses,
                    &latencies,
                    metrics,
                ) {
                    return false;
                }
            }
            Err(err) if is_daemon_loss(&err) => {
                fail_over(state, me, batch[at..].to_vec(), metrics);
                return false;
            }
            Err(err) => {
                let (code, message) = match &err {
                    ClientError::Rejected(e) => (e.code.clone(), e.message.clone()),
                    other => ("io".to_string(), other.to_string()),
                };
                state.abort_with(CampaignError::UnitRejected {
                    package: unit.package.clone(),
                    code,
                    message,
                });
                return false;
            }
        }
    }
    // Every unit passed individually — the chunk-level error was a
    // one-off (e.g. a transient the client classified permanent). Log
    // nothing, keep going; the taxonomy gets another chance next chunk.
    let _ = chunk_error;
    true
}
