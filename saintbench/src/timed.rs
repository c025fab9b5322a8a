//! The timed child: one workload in a fresh process, measured for
//! `--seconds`, with tracing off.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use saint_adf::AndroidFramework;
use saint_frozen::FrozenCorpus;
use saint_ir::codec;
use saint_service::{MetricsResponse, ScanResponse};
use saintdroid::engine::default_jobs;
use saintdroid::{Report, ScanEngine};
use serde::{Deserialize, Serialize};

use crate::inputs::{synth, Inputs};
use crate::oracle::Output;
use crate::schedule::poisson_offsets;
use crate::stats::percentile;
use crate::wire::{self, Daemon, Exchange, RequestTemplate};
use crate::workload::{tool_with_caches, Workload};

/// Pipeline depth of the update-wave connection.
const WAVE_WINDOW: u64 = 64;

/// What one timed run measured.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct TimedRecord {
    /// Set-up times, one per set-up the run performed.
    pub setup_s: Vec<f64>,
    /// Throughput samples: one per batch pass or update wave, one for
    /// the whole vetting stream.
    pub apps_per_s: Vec<f64>,
    /// Per-scan latencies.
    pub latencies_ms: Vec<f64>,
    /// Peak resident set of the scanning process.
    pub peak_rss_kb: u64,
    /// Scans attempted.
    pub attempted: u64,
    /// Every scan's outcome.
    pub outputs: Vec<Output>,
    /// How late the open-loop generator sent, 99th percentile.
    pub late_p99_ms: f64,
    /// Throughput of the update-wave cold phase.
    pub cold_apps_per_s: f64,
    /// Size of the incremental store after the run.
    pub store_bytes: u64,
    /// Median time a scan waited in the daemon's queue.
    pub queue_wait_p50_ms: f64,
    /// 99th-percentile queue wait.
    pub queue_wait_p99_ms: f64,
    /// Connections the daemon suspended for backpressure.
    pub backpressure_suspends: u64,
    /// Response writes that stalled on a full socket.
    pub write_stalls: u64,
}

/// Runs `workload` over `inputs` for about `seconds`, using `work` for
/// scratch files.
///
/// # Errors
/// I/O failures, a daemon that cannot start, or unreadable inputs.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    seconds: f64,
    work: &Path,
) -> io::Result<TimedRecord> {
    match workload {
        Workload::BatchSapk => batch(inputs, seconds, false),
        Workload::BatchFrozen => batch(inputs, seconds, true),
        Workload::VettingStream => vetting_stream(inputs, seconds),
        Workload::UpdateWave => update_wave(inputs, seconds, work),
    }
}

/// The outcome of one scan; a report carrying errors is a failure.
fn output_of(file: &str, report: &Report) -> Output {
    if report.has_errors() {
        let why: Vec<String> = report.errors.iter().map(ToString::to_string).collect();
        Output::failed(file, why.join("; "))
    } else {
        Output::of(file, report)
    }
}

/// Batch passes until `seconds` have passed. Every pass is a complete
/// cold scan of the corpus, as one CLI invocation makes it: its own
/// framework and engine (set-up, timed apart), then the timed scan.
fn batch(inputs: &Inputs, seconds: f64, frozen: bool) -> io::Result<TimedRecord> {
    let params = inputs.scale.params();
    let jobs = default_jobs();
    let apps = &inputs.index.apps;
    let mut rec = TimedRecord::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = 0;
    while passes < params.min_passes || Instant::now() < deadline {
        let setup = Instant::now();
        let framework = Arc::new(AndroidFramework::with_scale(&synth()));
        let (reports, wall) = if frozen {
            let engine = ScanEngine::from_tool(tool_with_caches(
                framework,
                Workload::BatchFrozen.detectors(),
            ))
            .jobs(jobs);
            engine
                .attach_frozen(&inputs.framework_image())
                .map_err(io::Error::other)?;
            engine.prewarm();
            let corpus = FrozenCorpus::open(&inputs.corpus_image()).map_err(io::Error::other)?;
            rec.setup_s.push(setup.elapsed().as_secs_f64());
            let start = Instant::now();
            let reports = engine.scan_frozen_batch(&corpus);
            (reports, start.elapsed())
        } else {
            let _ = framework.database();
            let _ = framework.permission_map();
            let engine =
                ScanEngine::from_tool(tool_with_caches(framework, Workload::BatchSapk.detectors()))
                    .jobs(jobs);
            rec.setup_s.push(setup.elapsed().as_secs_f64());
            let start = Instant::now();
            let apks = apps
                .iter()
                .map(|a| {
                    let bytes = fs::read(inputs.path(&a.file))?;
                    codec::decode_apk(&bytes).map_err(io::Error::other)
                })
                .collect::<io::Result<Vec<_>>>()?;
            let reports = engine.scan_batch(&apks);
            (reports, start.elapsed())
        };
        rec.apps_per_s
            .push(reports.len() as f64 / wall.as_secs_f64().max(f64::EPSILON));
        for (app, report) in apps.iter().zip(&reports) {
            rec.latencies_ms.push(report.duration.as_secs_f64() * 1e3);
            rec.outputs.push(output_of(&app.file, report));
        }
        rec.attempted += apps.len() as u64;
        passes += 1;
    }
    rec.peak_rss_kb = wire::peak_rss_kb(std::process::id());
    Ok(rec)
}

/// Starts `count` daemons one after another, each timed from spawn to
/// its first `status` reply; all but the last are shut down again.
fn start_daemons(
    inputs: &Inputs,
    workload: Workload,
    delta_dir: Option<&Path>,
    setup: &mut Vec<f64>,
) -> io::Result<Daemon> {
    let count = inputs.scale.params().daemon_setups.max(1);
    let detectors = workload.detectors().to_string();
    for i in 1..=count {
        let start = Instant::now();
        let daemon = Daemon::spawn(&inputs.dir, &detectors, delta_dir)?;
        daemon.status()?;
        setup.push(start.elapsed().as_secs_f64());
        if i == count {
            return Ok(daemon);
        }
        daemon.shutdown()?;
    }
    unreachable!("the loop returns on its last iteration")
}

/// Parses a scan or delta response line into its report.
///
/// # Errors
/// The daemon's error message, or why the line is not a response.
pub fn parse_response(line: &str) -> Result<Report, String> {
    use serde::Deserialize as _;
    let value = serde_json::from_str_value(line).map_err(|e| format!("unparseable: {e}"))?;
    match value.get("kind").and_then(serde::Value::as_str) {
        Some("scan" | "delta") => ScanResponse::from_value(&value)
            .map(|r| r.report)
            .map_err(|e| format!("bad response: {e}")),
        Some("error") => Err(format!(
            "{}: {}",
            value
                .get("code")
                .and_then(serde::Value::as_str)
                .unwrap_or("?"),
            value
                .get("message")
                .and_then(serde::Value::as_str)
                .unwrap_or("")
        )),
        other => Err(format!("unexpected response kind {other:?}")),
    }
}

/// Quantile `q` of a log2-microsecond histogram, as the upper edge of
/// the bucket it falls in, in milliseconds.
fn histogram_quantile_ms(buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (i, count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= target {
            return (1u64 << i) as f64 / 1e3;
        }
    }
    (1u64 << (buckets.len() - 1)) as f64 / 1e3
}

/// Copies the daemon's queue and reactor accounting into the record.
fn daemon_counters(rec: &mut TimedRecord, metrics: &MetricsResponse) {
    if let Some(wait) = metrics.phase("queue_wait") {
        rec.queue_wait_p50_ms = histogram_quantile_ms(&wait.buckets, 0.5);
        rec.queue_wait_p99_ms = histogram_quantile_ms(&wait.buckets, 0.99);
    }
    rec.backpressure_suspends = metrics.counter("backpressure_suspends").unwrap_or(0);
    rec.write_stalls = metrics.counter("write_stalls").unwrap_or(0);
}

/// Seeded Poisson arrivals at the scale's rate for `seconds`, cycling
/// over the apps, on one connection: one thread sends each request at
/// its due time whatever the daemon is doing, another reads responses.
fn vetting_stream(inputs: &Inputs, seconds: f64) -> io::Result<TimedRecord> {
    let params = inputs.scale.params();
    let apps = &inputs.index.apps;
    let mut rec = TimedRecord::default();
    let daemon = start_daemons(inputs, Workload::VettingStream, None, &mut rec.setup_s)?;
    let templates = apps
        .iter()
        .map(|a| {
            Ok(RequestTemplate::new(
                &fs::read(inputs.path(&a.file))?,
                false,
            ))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let count = ((params.rate * seconds).round() as usize).max(1);
    let offsets = poisson_offsets(inputs.index.seed, params.rate, count);

    let exchange = Exchange::connect(daemon.addr())?;
    let start = Instant::now() + Duration::from_millis(50);
    let mut late_ms = Vec::with_capacity(count);
    let received = std::thread::scope(|s| {
        let receiver = s.spawn(|| exchange.receive_all());
        for (i, offset) in offsets.iter().enumerate() {
            let due = start + *offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late_ms.push(due.elapsed().as_secs_f64() * 1e3);
            if !exchange.send(&templates[i % apps.len()].line(i as u64)) {
                break;
            }
        }
        exchange.finish_sending();
        receiver.join().expect("receive loop does not panic")
    });
    late_ms.sort_by(f64::total_cmp);
    rec.late_p99_ms = percentile(&late_ms, 0.99);
    rec.attempted = count as u64;

    let mut answered = vec![false; count];
    let mut last = start;
    for r in &received {
        let Some(id) = r.id.map(|id| id as usize).filter(|&id| id < count) else {
            continue;
        };
        answered[id] = true;
        let file = &apps[id % apps.len()].file;
        match parse_response(&r.line) {
            Ok(report) => {
                rec.latencies_ms
                    .push((r.at - (start + offsets[id])).as_secs_f64() * 1e3);
                last = last.max(r.at);
                rec.outputs.push(output_of(file, &report));
            }
            Err(e) => rec.outputs.push(Output::failed(file, e)),
        }
    }
    for (id, _) in answered.iter().enumerate().filter(|(_, a)| !**a) {
        rec.outputs
            .push(Output::failed(&apps[id % apps.len()].file, "no response"));
    }
    let span = last.saturating_duration_since(start + offsets[0]);
    rec.apps_per_s
        .push(rec.latencies_ms.len() as f64 / span.as_secs_f64().max(f64::EPSILON));

    daemon_counters(&mut rec, &daemon.metrics()?);
    rec.peak_rss_kb = daemon.peak_rss_kb();
    daemon.shutdown()?;
    Ok(rec)
}

/// One submission of the update-wave stream.
struct Sent {
    file: String,
    at: Instant,
    wave: usize,
}

/// The cold phase (every app's first version) and then waves of
/// resubmissions through a daemon's incremental store, pipelined on
/// one connection with a window of [`WAVE_WINDOW`]. Waves continue
/// until `seconds` have passed since the cold phase began.
fn update_wave(inputs: &Inputs, seconds: f64, work: &Path) -> io::Result<TimedRecord> {
    let params = inputs.scale.params();
    let wave_apps = &inputs.index.wave_apps;
    let mut rec = TimedRecord::default();
    let store: PathBuf = wire::fresh_dir(work.join("delta"))?;
    let daemon = start_daemons(inputs, Workload::UpdateWave, Some(&store), &mut rec.setup_s)?;
    let mut templates: HashMap<&str, RequestTemplate> = HashMap::new();
    for app in wave_apps {
        for file in &app.versions {
            let bytes = fs::read(inputs.path(file))?;
            templates.insert(file.as_str(), RequestTemplate::new(&bytes, true));
        }
    }

    let exchange = Exchange::connect(daemon.addr())?;
    let mut sent: Vec<Sent> = Vec::new();
    let received = std::thread::scope(|s| {
        let receiver = s.spawn(|| exchange.receive_all());
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        'stream: for wave in 0..=params.max_waves {
            if wave > params.min_passes && Instant::now() >= deadline {
                break;
            }
            for j in 0..wave_apps.len() {
                if !exchange.wait_below(WAVE_WINDOW) {
                    break 'stream;
                }
                let file = inputs.wave_file(j, wave);
                let line = templates[file].line(sent.len() as u64);
                sent.push(Sent {
                    file: file.to_string(),
                    at: Instant::now(),
                    wave,
                });
                if !exchange.send(&line) {
                    break 'stream;
                }
            }
            // The cold phase is measured on its own: no wave request is
            // in flight with it.
            if wave == 0 && !exchange.wait_below(0) {
                break;
            }
        }
        exchange.finish_sending();
        receiver.join().expect("receive loop does not panic")
    });
    rec.attempted = sent.len() as u64;
    let waves = sent.last().map_or(0, |s| s.wave);

    let mut wave_end: Vec<Option<Instant>> = vec![None; waves + 1];
    let mut answered = vec![false; sent.len()];
    for r in &received {
        let Some(id) = r.id.map(|id| id as usize).filter(|&id| id < sent.len()) else {
            continue;
        };
        answered[id] = true;
        let req = &sent[id];
        match parse_response(&r.line) {
            Ok(report) => {
                if req.wave > 0 {
                    rec.latencies_ms.push((r.at - req.at).as_secs_f64() * 1e3);
                }
                let end = &mut wave_end[req.wave];
                *end = Some(end.map_or(r.at, |e| e.max(r.at)));
                rec.outputs.push(output_of(&req.file, &report));
            }
            Err(e) => rec.outputs.push(Output::failed(&req.file, e)),
        }
    }
    for (id, _) in answered.iter().enumerate().filter(|(_, a)| !**a) {
        rec.outputs
            .push(Output::failed(&sent[id].file, "no response"));
    }
    // A wave ends with its last answer, and never before the wave it
    // follows (pipelining lets a fast answer overtake a slow one).
    let mut latest = None;
    for end in &mut wave_end {
        latest = latest.max(*end);
        *end = latest;
    }
    let n = wave_apps.len() as f64;
    if let (Some(first), Some(Some(end))) = (sent.first(), wave_end.first()) {
        rec.cold_apps_per_s = n / (*end - first.at).as_secs_f64().max(f64::EPSILON);
    }
    for pair in wave_end.windows(2) {
        if let [Some(prev), Some(end)] = pair {
            rec.apps_per_s
                .push(n / (*end - *prev).as_secs_f64().max(f64::EPSILON));
        }
    }

    daemon_counters(&mut rec, &daemon.metrics()?);
    rec.peak_rss_kb = daemon.peak_rss_kb();
    daemon.shutdown()?;
    rec.store_bytes = wire::dir_bytes(&store);
    fs::remove_dir_all(&store)?;
    Ok(rec)
}
