//! The traced child: one single-threaded pass of a workload that calls
//! each layer's public function in turn and records one span per call.
//!
//! The spans go to a `saint_obs::TraceSink` (exported as a Chrome
//! trace, each span named `<row> <package>`) and add up, per row, into
//! a ledger. The ledger's rows are disjoint calls made one after
//! another, so rows plus the residual (loop bookkeeping between spans)
//! equal the traced wall time. Detail rows are measured separately and
//! are not part of that sum: `analysis.clvm_load` is the registry's
//! `clvm_load` phase inside `analysis.model`, and the `delta.key`,
//! `delta.partition` and `delta.store_*` rows are probes made after the
//! pass, replaying those steps of the incremental scan on the pass's
//! own inputs and store.
//!
//! The pass scans each input once; its reports are checked against
//! the reference like any other run's, which proves the decomposition
//! into layer calls computes exactly what the pipeline computes.

use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use saint_adf::{AndroidFramework, ApiDatabase, PermissionMap};
use saint_delta::{bundled_groups, hash, DeltaScanner, DeltaStats, DeltaStore};
use saint_frozen::FrozenCorpus;
use saint_ir::{codec, Apk, ClassDef};
use saint_obs::{MetricsRegistry, Phase, TraceSink};
use saint_service::protocol::{self, Envelope, ScanRequest};
use saint_service::ScanResponse;
use saintdroid::amd;
use saintdroid::{CompatDetector, DetectorSet, Report, SaintDroid, ScanEngine};
use serde::{Deserialize, Serialize};

use crate::inputs::{synth, Inputs, TRACED_WAVES};
use crate::oracle::Output;
use crate::timed::parse_response;
use crate::wire::{self, RequestTemplate};
use crate::workload::{tool_with_caches, Workload};

/// Time and call count of one ledger row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Row name, e.g. `ir.decode`.
    pub row: String,
    /// Total time in the row.
    pub ms: f64,
    /// Calls recorded.
    pub calls: u64,
}

/// A named count measured by the pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Count {
    /// Metric name.
    pub name: String,
    /// Its value.
    pub value: f64,
}

/// What one traced pass produced.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct TracedRecord {
    /// Wall time of the pass.
    pub wall_ms: f64,
    /// Ledger rows, in first-use order.
    pub rows: Vec<Row>,
    /// Detail rows (not part of the ledger sum).
    pub detail: Vec<Row>,
    /// Every scan's outcome (empty when timing is off).
    pub outputs: Vec<Output>,
    /// Counts the pass measured.
    pub counts: Vec<Count>,
}

impl TracedRecord {
    /// Wall time no row accounts for.
    #[must_use]
    pub fn residual_ms(&self) -> f64 {
        self.wall_ms - self.rows.iter().map(|r| r.ms).sum::<f64>()
    }
}

/// Span recorder; with timing off every call is made bare.
struct Recorder {
    timing: bool,
    sink: TraceSink,
    rows: Vec<(&'static str, Duration, u64)>,
    detail: Vec<(&'static str, Duration, u64)>,
}

fn add(rows: &mut Vec<(&'static str, Duration, u64)>, row: &'static str, elapsed: Duration) {
    match rows.iter_mut().find(|r| r.0 == row) {
        Some(r) => {
            r.1 += elapsed;
            r.2 += 1;
        }
        None => rows.push((row, elapsed, 1)),
    }
}

fn to_rows(rows: &[(&'static str, Duration, u64)]) -> Vec<Row> {
    rows.iter()
        .map(|(row, d, calls)| Row {
            row: (*row).to_string(),
            ms: d.as_secs_f64() * 1e3,
            calls: *calls,
        })
        .collect()
}

impl Recorder {
    fn new(timing: bool) -> Self {
        Recorder {
            timing,
            sink: TraceSink::new(),
            rows: Vec::new(),
            detail: Vec::new(),
        }
    }

    /// Runs `f` as one call of ledger row `row`.
    fn span<T>(&mut self, row: &'static str, package: &str, f: impl FnOnce() -> T) -> T {
        if !self.timing {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(row, package, start, start.elapsed());
        out
    }

    /// Books a call of ledger row `row` timed by the caller.
    fn record(&mut self, row: &'static str, package: &str, start: Instant, elapsed: Duration) {
        if self.timing {
            self.sink
                .complete(format!("{row} {package}"), row, start, elapsed);
            add(&mut self.rows, row, elapsed);
        }
    }

    /// Runs `f` as one call of detail row `row`.
    fn probe<T>(&mut self, row: &'static str, package: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.sink
            .complete(format!("{row} {package}"), row, start, elapsed);
        add(&mut self.detail, row, elapsed);
        out
    }
}

/// Runs the traced pass of `workload`. With `timing` off it makes the
/// same calls with no spans, no registry and no probes, and reports
/// only its wall time. With `trace` set, the spans are written there as
/// a Chrome trace.
///
/// # Errors
/// I/O failures and unreadable inputs.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    timing: bool,
    trace: Option<&Path>,
    work: &Path,
) -> io::Result<TracedRecord> {
    let mut rec = Recorder::new(timing);
    let registry = timing.then(|| Arc::new(MetricsRegistry::new()));
    let mut out = match workload {
        Workload::BatchSapk => batch_sapk(&mut rec, inputs, registry.as_ref())?,
        Workload::BatchFrozen => batch_frozen(&mut rec, inputs, registry.as_ref())?,
        Workload::VettingStream => vetting_stream(&mut rec, inputs, registry.as_ref())?,
        Workload::UpdateWave => update_wave(&mut rec, inputs, registry.as_ref(), work)?,
    };
    if let Some(registry) = &registry {
        let clvm = registry.phase(Phase::ClvmLoad);
        add(
            &mut rec.detail,
            "analysis.clvm_load",
            Duration::from_nanos(clvm.total_ns()),
        );
    }
    out.rows = to_rows(&rec.rows);
    out.detail = to_rows(&rec.detail);
    if let Some(path) = trace.filter(|_| timing) {
        fs::write(path, rec.sink.to_chrome_json())?;
    }
    Ok(out)
}

/// The analyzer of a pass, with the registry attached when timing.
fn traced_tool(
    framework: Arc<AndroidFramework>,
    detectors: DetectorSet,
    registry: Option<&Arc<MetricsRegistry>>,
) -> SaintDroid {
    let tool = tool_with_caches(framework, detectors);
    match registry {
        Some(r) => tool.with_metrics(Arc::clone(r)),
        None => tool,
    }
}

/// A frozen-booted engine, as the daemon and the frozen batch boot it.
fn frozen_engine(
    inputs: &Inputs,
    detectors: DetectorSet,
    registry: Option<&Arc<MetricsRegistry>>,
) -> io::Result<ScanEngine> {
    let framework = Arc::new(AndroidFramework::with_scale(&synth()));
    let engine = ScanEngine::from_tool(traced_tool(framework, detectors, registry)).jobs(1);
    engine
        .attach_frozen(&inputs.framework_image())
        .map_err(io::Error::other)?;
    engine.prewarm();
    Ok(engine)
}

/// The per-app pipeline of `SaintDroid::run_with_jobs(apk, 1)`, one
/// layer call per span: model, each enabled detector family, then the
/// merge into a report (which also frees the model and the package).
fn scan_layers(
    rec: &mut Recorder,
    tool: &SaintDroid,
    arm: &(Arc<ApiDatabase>, Arc<PermissionMap>),
    apk: Apk,
    package: &str,
) -> Report {
    let (db, pm) = arm;
    let d = tool.detectors();
    let model = rec.span("analysis.model", package, || tool.model_with(&apk, 1));
    let inv = if d.contains(DetectorSet::INVOCATION) {
        let cache = tool
            .shared_scan_cache()
            .expect("workload tools carry a scan cache");
        rec.span("core.detect_invocation", package, || {
            amd::invocation::detect_parallel(&model, db, cache, 1)
        })
    } else {
        Vec::new()
    };
    let cb = if d.contains(DetectorSet::CALLBACK) {
        rec.span("core.detect_callback", package, || {
            amd::callback::detect(&model, db)
        })
    } else {
        Vec::new()
    };
    let prm = if d.contains(DetectorSet::PERMISSION) {
        rec.span("core.detect_permission", package, || {
            amd::permission::detect(&model, pm)
        })
    } else {
        Vec::new()
    };
    let dsd = if d.contains(DetectorSet::DECLARED_SDK) {
        rec.span("core.detect_declared_sdk", package, || {
            amd::declared_sdk::detect(&model, db)
        })
    } else {
        Vec::new()
    };
    rec.span("core.merge", package, move || {
        let mut report = Report::new(apk.manifest.package.clone(), tool.name());
        report.extend_deduped(inv);
        report.extend_deduped(cb);
        report.extend_deduped(prm);
        report.extend_deduped(dsd);
        report.meter = model.clvm.meter();
        drop(model);
        drop(apk);
        report
    })
}

/// Cache hit ratios of the pass's tool and totals over its reports
/// (each input counted once).
fn analysis_counts(tool: &SaintDroid, reports: &[(String, Report)]) -> Vec<Count> {
    let ratio = |stats: Option<saint_analysis::CacheStats>| stats.map_or(0.0, |s| s.hit_rate());
    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<&Report> = reports
        .iter()
        .filter(|(file, _)| seen.insert(file.as_str()))
        .map(|(_, r)| r)
        .collect();
    let count = |name: &str, value: f64| Count {
        name: name.to_string(),
        value,
    };
    vec![
        count(
            "analysis.class_cache_hit_ratio",
            ratio(tool.shared_cache().map(|c| c.stats())),
        ),
        count(
            "analysis.artifact_cache_hit_ratio",
            ratio(tool.shared_artifact_cache().map(|c| c.stats())),
        ),
        count(
            "core.deep_scan_cache_hit_ratio",
            ratio(tool.shared_scan_cache().map(|c| c.stats())),
        ),
        count(
            "analysis.classes_loaded",
            distinct.iter().map(|r| r.meter.classes_loaded as f64).sum(),
        ),
        count(
            "analysis.loaded_mb",
            distinct
                .iter()
                .map(|r| r.meter.total_bytes() as f64)
                .sum::<f64>()
                / 1e6,
        ),
        count(
            "core.mismatches",
            distinct.iter().map(|r| r.total() as f64).sum(),
        ),
    ]
}

fn finish(
    rec: &Recorder,
    wall: Duration,
    tool: &SaintDroid,
    reports: &[(String, Report)],
) -> TracedRecord {
    TracedRecord {
        wall_ms: wall.as_secs_f64() * 1e3,
        outputs: if rec.timing {
            reports.iter().map(|(f, r)| Output::of(f, r)).collect()
        } else {
            Vec::new()
        },
        counts: analysis_counts(tool, reports),
        ..TracedRecord::default()
    }
}

/// Framework build and mining, then per app: read, decode, scan.
fn batch_sapk(
    rec: &mut Recorder,
    inputs: &Inputs,
    registry: Option<&Arc<MetricsRegistry>>,
) -> io::Result<TracedRecord> {
    let start = Instant::now();
    let framework = rec.span("adf.mine", "framework", || {
        let fw = Arc::new(AndroidFramework::with_scale(&synth()));
        let _ = fw.database();
        let _ = fw.permission_map();
        fw
    });
    let tool = traced_tool(framework, Workload::BatchSapk.detectors(), registry);
    let arm = (tool.arm().database(), tool.arm().permission_map());
    let mut reports = Vec::with_capacity(inputs.index.apps.len());
    for app in &inputs.index.apps {
        let path = inputs.path(&app.file);
        let bytes = rec.span("io.read", &app.package, || fs::read(&path))?;
        let apk = rec
            .span("ir.decode", &app.package, move || codec::decode_apk(&bytes))
            .map_err(io::Error::other)?;
        let report = scan_layers(rec, &tool, &arm, apk, &app.package);
        reports.push((app.file.clone(), report));
    }
    Ok(finish(rec, start.elapsed(), &tool, &reports))
}

/// Frozen attach, then per package: decode out of the corpus image,
/// scan.
fn batch_frozen(
    rec: &mut Recorder,
    inputs: &Inputs,
    registry: Option<&Arc<MetricsRegistry>>,
) -> io::Result<TracedRecord> {
    let start = Instant::now();
    let (engine, corpus) = rec.span("frozen.attach", "framework", || -> io::Result<_> {
        let engine = frozen_engine(inputs, Workload::BatchFrozen.detectors(), registry)?;
        let corpus = FrozenCorpus::open(&inputs.corpus_image()).map_err(io::Error::other)?;
        Ok((engine, corpus))
    })?;
    let tool = engine.tool();
    let arm = (tool.arm().database(), tool.arm().permission_map());
    let mut reports = Vec::with_capacity(corpus.len());
    for (i, app) in inputs.index.apps.iter().enumerate() {
        let apk = rec
            .span("frozen.decode", &app.package, || corpus.decode(i))
            .map_err(io::Error::other)?;
        let report = scan_layers(rec, tool, &arm, apk, &app.package);
        reports.push((app.file.clone(), report));
    }
    Ok(finish(rec, start.elapsed(), tool, &reports))
}

/// Daemon boot, then per request the worker path of a `scan`: parse,
/// base64, decode, scan, serialize the response.
fn vetting_stream(
    rec: &mut Recorder,
    inputs: &Inputs,
    registry: Option<&Arc<MetricsRegistry>>,
) -> io::Result<TracedRecord> {
    let apps = &inputs.index.apps;
    let lines = apps
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let bytes = fs::read(inputs.path(&a.file))?;
            Ok(RequestTemplate::new(&bytes, false).line(i as u64))
        })
        .collect::<io::Result<Vec<_>>>()?;

    let start = Instant::now();
    let engine = rec.span("frozen.attach", "framework", || {
        frozen_engine(inputs, Workload::VettingStream.detectors(), registry)
    })?;
    let tool = engine.tool();
    let arm = (tool.arm().database(), tool.arm().permission_map());
    let mut frames = Vec::with_capacity(lines.len());
    for (i, (app, line)) in apps.iter().zip(&lines).enumerate() {
        let pkg = app.package.as_str();
        let text = line.trim_end_matches('\n');
        let b64 = rec.span("service.parse", pkg, || {
            protocol::parse_scan_fast(text).map(|req| req.package_b64.to_owned())
        });
        let b64 = b64.ok_or_else(|| io::Error::other("request missed the fast parser"))?;
        let sapk = rec.span("service.b64_decode", pkg, move || {
            protocol::base64_decode(&b64)
        });
        let sapk = sapk.ok_or_else(|| io::Error::other("request payload is not base64"))?;
        let apk = rec
            .span("ir.decode", pkg, move || codec::decode_apk(&sapk))
            .map_err(io::Error::other)?;
        let report = scan_layers(rec, tool, &arm, apk, pkg);
        let frame = rec.span("core.serialize", pkg, move || {
            protocol::to_line(&ScanResponse::new(report).with_id(Some(i as u64)))
        });
        frames.push((app.file.clone(), frame));
    }
    let wall = start.elapsed();
    let reports = parsed(&frames)?;
    Ok(finish(rec, wall, tool, &reports))
}

/// Parses serialized response frames back into reports.
fn parsed(frames: &[(String, String)]) -> io::Result<Vec<(String, Report)>> {
    frames
        .iter()
        .map(|(file, frame)| {
            parse_response(frame.trim_end())
                .map(|report| (file.clone(), report))
                .map_err(io::Error::other)
        })
        .collect()
}

/// One request of the traced update-wave pass.
struct WaveRequest {
    file: String,
    package: String,
    line: String,
    wave: usize,
}

/// Daemon boot, then the cold phase and [`TRACED_WAVES`] waves, per
/// request the worker path of a `delta`: parse, base64, decode, the
/// incremental scan (booked by the tier that served it), serialize.
fn update_wave(
    rec: &mut Recorder,
    inputs: &Inputs,
    registry: Option<&Arc<MetricsRegistry>>,
    work: &Path,
) -> io::Result<TracedRecord> {
    let wave_apps = &inputs.index.wave_apps;
    let mut plan = Vec::new();
    for wave in 0..=TRACED_WAVES.min(inputs.scale.params().max_waves) {
        for (j, app) in wave_apps.iter().enumerate() {
            let file = inputs.wave_file(j, wave);
            let bytes = fs::read(inputs.path(file))?;
            plan.push(WaveRequest {
                file: file.to_string(),
                package: inputs.index.apps[app.app].package.clone(),
                line: RequestTemplate::new(&bytes, true).line(plan.len() as u64),
                wave,
            });
        }
    }
    let store = wire::fresh_dir(work.join("traced-delta"))?;

    let start = Instant::now();
    let engine = rec.span("frozen.attach", "framework", || {
        frozen_engine(inputs, Workload::UpdateWave.detectors(), registry)
    })?;
    let tool = engine.tool();
    let scanner = DeltaScanner::new(&store);
    let mut frames = Vec::with_capacity(plan.len());
    let mut stats: Vec<DeltaStats> = Vec::with_capacity(plan.len());
    for (id, req) in plan.iter().enumerate() {
        let pkg = req.package.as_str();
        let text = req.line.trim_end_matches('\n');
        let parsed = rec.span("service.parse", pkg, || -> Result<ScanRequest, String> {
            use serde::Deserialize as _;
            let value = serde_json::from_str_value(text).map_err(|e| e.to_string())?;
            Envelope::from_value(&value).map_err(|e| e.to_string())?;
            ScanRequest::from_value(&value).map_err(|e| e.to_string())
        });
        let b64 = parsed.map_err(io::Error::other)?.package_b64;
        let sapk = rec.span("service.b64_decode", pkg, move || {
            protocol::base64_decode(&b64)
        });
        let sapk = sapk.ok_or_else(|| io::Error::other("request payload is not base64"))?;
        let apk = rec
            .span("ir.decode", pkg, || codec::decode_apk(&sapk))
            .map_err(io::Error::other)?;
        let scan_start = Instant::now();
        let (report, s) = scanner.scan_encoded(tool, &sapk, &apk, 1);
        drop(apk);
        drop(sapk);
        let tier = if s.app_hit {
            "delta.replay"
        } else if s.hits == 0 {
            "delta.cold"
        } else {
            "delta.splice"
        };
        rec.record(tier, pkg, scan_start, scan_start.elapsed());
        let frame = rec.span("core.serialize", pkg, move || {
            protocol::to_line(
                &ScanResponse::new(report)
                    .with_delta(s.into())
                    .with_id(Some(id as u64)),
            )
        });
        frames.push((req.file.clone(), frame));
        stats.push(s);
    }
    let wall = start.elapsed();

    if rec.timing {
        probe_delta(rec, tool, &plan, &stats, &store, work)?;
    }
    fs::remove_dir_all(&store)?;
    let reports = parsed(&frames)?;
    let mut out = finish(rec, wall, tool, &reports);
    let waves: Vec<&DeltaStats> = plan
        .iter()
        .zip(&stats)
        .filter(|(r, _)| r.wave > 0)
        .map(|(_, s)| s)
        .collect();
    let seen: u64 = waves.iter().map(|s| s.classes_seen).sum();
    let hits: u64 = waves.iter().map(|s| s.hits).sum();
    out.counts.extend([
        Count {
            name: "delta.hit_ratio".to_string(),
            value: hits as f64 / (seen as f64).max(1.0),
        },
        Count {
            name: "delta.app_replays".to_string(),
            value: waves.iter().filter(|s| s.app_hit).count() as f64,
        },
        Count {
            name: "delta.classes_reanalyzed".to_string(),
            value: waves.iter().map(|s| s.reanalyzed).sum::<u64>() as f64,
        },
    ]);
    Ok(out)
}

/// Replays the keying, partitioning and store I/O of the pass's
/// incremental scans as separately timed detail rows: the whole-app key
/// of every request; for every request not served by a replay, the
/// partition into groups and the group keys; and one read and one
/// write of every artifact the pass left in its store.
fn probe_delta(
    rec: &mut Recorder,
    tool: &SaintDroid,
    plan: &[WaveRequest],
    stats: &[DeltaStats],
    store: &Path,
    work: &Path,
) -> io::Result<()> {
    let ctx = hash::context_fingerprint(tool);
    for (req, s) in plan.iter().zip(stats) {
        let pkg = req.package.as_str();
        let sapk = parse_payload(&req.line)?;
        rec.probe("delta.key", pkg, || hash::encoded_app_key(ctx, &sapk));
        if s.app_hit {
            continue;
        }
        let apk = codec::decode_apk(&sapk).map_err(io::Error::other)?;
        let groups = rec.probe("delta.partition", pkg, || bundled_groups(&apk));
        rec.probe("delta.key", pkg, || {
            let man = hash::manifest_fingerprint(&apk.manifest);
            for group in &groups {
                let members: Vec<(u32, &ClassDef)> = group
                    .iter()
                    .filter_map(|(slot, name)| {
                        let dex = match *slot {
                            0 => Some(&apk.primary),
                            s => apk.secondary.get(s as usize - 1),
                        };
                        dex.and_then(|d| d.class(name)).map(|c| (*slot, c))
                    })
                    .collect();
                std::hint::black_box(hash::group_key(ctx, man, &members));
            }
        });
    }

    let source = DeltaStore::new(store);
    let copy = DeltaStore::new(wire::fresh_dir(work.join("probe-delta"))?);
    let mut names: Vec<String> = fs::read_dir(store)?
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    for name in &names {
        let Some((kind, key)) = name
            .strip_suffix(".sdlt")
            .and_then(|stem| stem.split_once('-'))
        else {
            continue;
        };
        let Ok(key) = u64::from_str_radix(key, 16) else {
            continue;
        };
        match kind {
            "app" => {
                let art = rec
                    .probe("delta.store_read", name, || source.load_app(key))
                    .map_err(io::Error::other)?;
                rec.probe("delta.store_write", name, || copy.save_app(key, &art))
                    .map_err(io::Error::other)?;
            }
            "group" => {
                let art = rec
                    .probe("delta.store_read", name, || source.load_group(key))
                    .map_err(io::Error::other)?;
                rec.probe("delta.store_write", name, || copy.save_group(key, &art))
                    .map_err(io::Error::other)?;
            }
            _ => {}
        }
    }
    fs::remove_dir_all(copy.root())?;
    Ok(())
}

/// The package bytes of a request line.
fn parse_payload(line: &str) -> io::Result<Vec<u8>> {
    use serde::Deserialize as _;
    let value = serde_json::from_str_value(line.trim_end()).map_err(io::Error::other)?;
    let req = ScanRequest::from_value(&value).map_err(io::Error::other)?;
    protocol::base64_decode(&req.package_b64)
        .ok_or_else(|| io::Error::other("request payload is not base64"))
}
