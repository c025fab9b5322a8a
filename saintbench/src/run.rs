//! One run of one workload: inputs, fresh child processes, the verdict
//! check, and the metrics of `BENCHMARK.json`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::io;
use std::path::Path;
use std::process::Command;
use std::sync::Arc;

use saint_adf::AndroidFramework;
use saint_ir::codec;
use saintdroid::engine::default_jobs;
use serde::{Deserialize, Serialize};

use crate::inputs::{self, synth, Inputs, Scale};
use crate::oracle::{self, Output};
use crate::spec::contract;
use crate::stats::{median, percentile, tail_quantile};
use crate::timed::TimedRecord;
use crate::traced::{Row, TracedRecord};
use crate::workload::Workload;

/// Where input sets are generated, relative to the working directory.
pub const INPUT_ROOT: &str = "target/saintbench";

/// An open-loop generator whose 99th-percentile send delay exceeds
/// this did not offer the intended traffic; its run is flagged.
const LATE_LIMIT_MS: f64 = 10.0;

/// The ledger may leave at most this share of traced wall time
/// unattributed.
const RESIDUAL_LIMIT_PCT: f64 = 5.0;

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Per-layer metrics from a traced pass, instead of end-to-end.
    pub trace: bool,
    /// Input scale.
    pub scale: Scale,
}

/// One metric value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricValue {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// The ledger of a traced run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ledger {
    /// Traced wall time.
    pub wall_ms: f64,
    /// Rows that add up, with the residual, to the wall time.
    pub rows: Vec<Row>,
    /// Rows measured apart (not in the sum).
    pub detail: Vec<Row>,
    /// Wall time no row accounts for.
    pub residual_ms: f64,
    /// The residual as a share of the wall time.
    pub residual_pct: f64,
    /// Wall time of the same pass with timing off.
    pub untraced_wall_ms: f64,
    /// The Chrome trace of the pass.
    pub chrome_trace: String,
}

/// Everything one run found out.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was a traced run.
    pub trace: bool,
    /// Every output matched the reference and recall matched the
    /// reference path (and, traced, the ledger residual is in bounds).
    pub correct: bool,
    /// Scans attempted.
    pub attempted: u64,
    /// Scans that failed: errors, rejections, timeouts, lost requests
    /// and reports whose digest differs from the reference.
    pub failed: u64,
    /// `failed` as a share of `attempted`.
    pub failed_pct: f64,
    /// The open-loop generator ran late; the run's numbers describe
    /// less traffic than intended.
    pub late: bool,
    /// Latency samples behind `p50_ms` and `p99_ms`.
    pub latency_n: usize,
    /// The quantile `p99_ms` actually reports (lower when fewer than
    /// 1,000 samples leave ten beyond the 99th percentile).
    pub tail_quantile: f64,
    /// The metrics `BENCHMARK.json` lists for this kind of run.
    pub metrics: Vec<MetricValue>,
    /// The ledger, for traced runs.
    pub ledger: Option<Ledger>,
}

impl RunRecord {
    /// The run's result line: `correct`, `attempted`, `failed` and
    /// every metric with its unit, as one JSON object.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    m.value,
                    json_str(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// A metric's value.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// Runs this binary as a `--child <role>` over `workload` and reads the
/// JSON record it writes into `work`.
fn child<T: serde::Deserialize>(
    role: &str,
    workload: Workload,
    inputs: &Inputs,
    work: &Path,
    extra: &[String],
) -> io::Result<T> {
    let out = work.join(format!("{role}.json"));
    let status = Command::new(std::env::current_exe()?)
        .args(["--child", role, "--workload", workload.name()])
        .arg("--inputs")
        .arg(&inputs.dir)
        .arg("--work")
        .arg(work)
        .args(extra)
        .arg("--out")
        .arg(&out)
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "{role} child of {} failed with {status}",
            workload.name()
        )));
    }
    let text = fs::read_to_string(&out)?;
    fs::remove_file(&out)?;
    serde_json::from_str(&text).map_err(io::Error::other)
}

/// Reference digest and findings of every file in `files`.
fn reference(
    inputs: &Inputs,
    workload: Workload,
    files: &BTreeSet<String>,
) -> io::Result<HashMap<String, (String, [u64; 3])>> {
    let framework = Arc::new(AndroidFramework::with_scale(&synth()));
    let files: Vec<&String> = files.iter().collect();
    let apks = files
        .iter()
        .map(|f| {
            let bytes = fs::read(inputs.path(f))?;
            codec::decode_apk(&bytes).map_err(io::Error::other)
        })
        .collect::<io::Result<Vec<_>>>()?;
    let reports =
        oracle::reference_reports(&framework, workload.detectors(), &apks, default_jobs());
    Ok(files
        .into_iter()
        .zip(&reports)
        .map(|(f, r)| (f.clone(), (oracle::digest(r), oracle::findings(r))))
        .collect())
}

/// Outcome of checking outputs against the reference.
struct Verdict {
    failed: u64,
    recall_pct: f64,
    recall_matches: bool,
}

fn verify(
    inputs: &Inputs,
    outputs: &[&Output],
    reference: &HashMap<String, (String, [u64; 3])>,
) -> io::Result<Verdict> {
    let mut failed = 0;
    let mut first: BTreeMap<&str, [u64; 3]> = BTreeMap::new();
    for out in outputs {
        let expected = reference.get(&out.input);
        let ok = out.error.is_none() && expected.is_some_and(|(d, _)| *d == out.digest);
        if ok {
            let f = &out.findings;
            first
                .entry(out.input.as_str())
                .or_insert([f[0], f[1], f[2]]);
        } else {
            failed += 1;
            if failed <= 5 {
                eprintln!(
                    "saintbench: {} failed: {}",
                    out.input,
                    out.error
                        .as_deref()
                        .unwrap_or("report differs from the reference")
                );
            }
        }
    }
    let truth = |file: &str| {
        inputs
            .injected(file)
            .ok_or_else(|| io::Error::other(format!("{file} is not an input")))
    };
    let measured = first
        .iter()
        .map(|(file, f)| Ok((*f, *truth(file)?)))
        .collect::<io::Result<Vec<_>>>()?;
    let expected = reference
        .iter()
        .map(|(file, (_, f))| Ok((*f, *truth(file)?)))
        .collect::<io::Result<Vec<_>>>()?;
    let recall_pct = oracle::recall_pct(measured.iter().map(|(f, i)| (f, i)));
    let reference_pct = oracle::recall_pct(expected.iter().map(|(f, i)| (f, i)));
    Ok(Verdict {
        failed,
        recall_pct,
        recall_matches: first.len() == reference.len() && recall_pct == reference_pct,
    })
}

/// Performs one run: generates (or reuses) the inputs, measures in
/// fresh child processes, checks every verdict, and computes the
/// metrics.
///
/// # Errors
/// I/O failures, and children that fail.
pub fn run(args: &RunArgs) -> io::Result<RunRecord> {
    let inputs = inputs::prepare(Path::new(INPUT_ROOT), args.seed, args.scale)?;
    let name = args.workload.name();
    let work = inputs.dir.join(format!("work-{name}"));
    fs::create_dir_all(&work)?;
    let traced = if args.trace {
        let chrome = inputs.dir.join(format!("trace-{name}.json"));
        let on: TracedRecord = child(
            "traced",
            args.workload,
            &inputs,
            &work,
            &["--chrome".into(), chrome.to_string_lossy().into_owned()],
        )?;
        let off: TracedRecord = child(
            "traced",
            args.workload,
            &inputs,
            &work,
            &["--no-timing".into()],
        )?;
        Some((on, off, chrome))
    } else {
        None
    };
    let timed: TimedRecord = child(
        "timed",
        args.workload,
        &inputs,
        &work,
        &["--seconds".into(), args.seconds.to_string()],
    )?;
    fs::remove_dir_all(&work)?;

    let mut outputs: Vec<&Output> = timed.outputs.iter().collect();
    if let Some((on, _, _)) = &traced {
        outputs.extend(&on.outputs);
    }
    let files: BTreeSet<String> = outputs.iter().map(|o| o.input.clone()).collect();
    let reference = reference(&inputs, args.workload, &files)?;
    let verdict = verify(&inputs, &outputs, &reference)?;
    let attempted = timed.attempted
        + traced
            .as_ref()
            .map_or(0, |(on, ..)| on.outputs.len() as u64);

    let mut latencies = timed.latencies_ms.clone();
    latencies.sort_by(f64::total_cmp);
    let tail = tail_quantile(latencies.len()).min(0.99);
    let mut values = timed_values(&timed, &latencies, tail);
    values.insert("recall_pct".into(), verdict.recall_pct);
    let ledger = traced.map(|(on, off, chrome)| {
        for row in on.rows.iter().chain(&on.detail) {
            values.insert(format!("{}_ms", row.row), row.ms);
        }
        for count in &on.counts {
            values.insert(count.name.clone(), count.value);
        }
        let ledger = Ledger {
            wall_ms: on.wall_ms,
            residual_ms: on.residual_ms(),
            residual_pct: 100.0 * on.residual_ms() / on.wall_ms.max(f64::EPSILON),
            untraced_wall_ms: off.wall_ms,
            chrome_trace: chrome.to_string_lossy().into_owned(),
            rows: on.rows,
            detail: on.detail,
        };
        values.insert("ledger.wall_ms".into(), ledger.wall_ms);
        values.insert("ledger.residual_pct".into(), ledger.residual_pct);
        values.insert(
            "ledger.overhead_pct".into(),
            100.0 * (ledger.wall_ms - off.wall_ms) / off.wall_ms.max(f64::EPSILON),
        );
        ledger
    });

    let mut metrics = Vec::new();
    for spec in contract().metrics(args.trace) {
        let value = match values.get(&spec.name) {
            Some(v) => *v,
            // A layer the workload does not exercise did no work.
            None if args.trace => 0.0,
            None => return Err(io::Error::other(format!("{} was not measured", spec.name))),
        };
        metrics.push(MetricValue {
            name: spec.name.clone(),
            value,
            unit: spec.unit.clone(),
        });
    }
    let ledger_ok = ledger
        .as_ref()
        .is_none_or(|l| l.residual_pct.abs() <= RESIDUAL_LIMIT_PCT);
    let late = timed.late_p99_ms > LATE_LIMIT_MS;
    Ok(RunRecord {
        workload: name.to_string(),
        seed: args.seed,
        trace: args.trace,
        correct: verdict.failed == 0 && verdict.recall_matches && ledger_ok,
        attempted,
        failed: verdict.failed,
        failed_pct: 100.0 * verdict.failed as f64 / (attempted as f64).max(1.0),
        late,
        latency_n: latencies.len(),
        tail_quantile: tail,
        metrics,
        ledger,
    })
}

/// The metrics the timed child measured, by name. `latencies` is
/// sorted; `tail` is the quantile `p99_ms` reports.
fn timed_values(timed: &TimedRecord, latencies: &[f64], tail: f64) -> BTreeMap<String, f64> {
    let mut values = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    if !latencies.is_empty() {
        put("p50_ms", percentile(latencies, 0.5));
        put("p99_ms", percentile(latencies, tail));
    }
    if !timed.apps_per_s.is_empty() {
        put("apps_per_s", median(&timed.apps_per_s));
    }
    if !timed.setup_s.is_empty() {
        put("setup_s", median(&timed.setup_s));
    }
    put("peak_rss_mb", timed.peak_rss_kb as f64 * 1024.0 / 1e6);
    put("service.queue_wait_p50_ms", timed.queue_wait_p50_ms);
    put("service.queue_wait_p99_ms", timed.queue_wait_p99_ms);
    put(
        "service.backpressure_suspends",
        timed.backpressure_suspends as f64,
    );
    put("service.write_stalls", timed.write_stalls as f64);
    put("loadgen.late_p99_ms", timed.late_p99_ms);
    put("delta.cold_apps_per_s", timed.cold_apps_per_s);
    put("delta.store_mb", timed.store_bytes as f64 / 1e6);
    values
}

/// Prints a run's metrics and ledger for a reader, on stderr.
pub fn describe(rec: &RunRecord) {
    eprintln!(
        "saintbench: {} seed {}{}: {} attempted, {} failed ({:.2}%), correct: {}{}",
        rec.workload,
        rec.seed,
        if rec.trace { " (traced)" } else { "" },
        rec.attempted,
        rec.failed,
        rec.failed_pct,
        rec.correct,
        if rec.late {
            " — generator ran late, run flagged"
        } else {
            ""
        }
    );
    for m in &rec.metrics {
        eprintln!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if !rec.trace && rec.latency_n > 0 {
        eprintln!(
            "  (latency n = {}; p99_ms reports quantile {})",
            rec.latency_n, rec.tail_quantile
        );
    }
    if let Some(l) = &rec.ledger {
        eprintln!(
            "  ledger: traced wall {:.1} ms (untraced {:.1} ms), trace {}",
            l.wall_ms, l.untraced_wall_ms, l.chrome_trace
        );
        for r in &l.rows {
            eprintln!(
                "    {:<28} {:>10.1} ms {:>6.1}% {:>8} calls",
                r.row,
                r.ms,
                100.0 * r.ms / l.wall_ms.max(f64::EPSILON),
                r.calls
            );
        }
        eprintln!(
            "    {:<28} {:>10.1} ms {:>6.1}%",
            "(residual)", l.residual_ms, l.residual_pct
        );
        for r in &l.detail {
            eprintln!(
                "    detail {:<21} {:>10.1} ms {:>15} calls",
                r.row, r.ms, r.calls
            );
        }
    }
}
