//! Benchmark mode (repeated runs, bands, result file) and compare mode.

use std::fs;
use std::io;
use std::path::Path;
use std::process::Command;

use serde::{Deserialize, Serialize};

use crate::inputs::Scale;
use crate::run::{describe, RunArgs, RunRecord};
use crate::spec::{contract, MetricSpec};
use crate::stats::Band;
use crate::workload::Workload;

/// One end-to-end metric of one workload across the runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BandRow {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
    /// Allowed worsening, as a share of the median.
    pub bound: f64,
    /// Per-run values, in run order.
    pub values: Vec<f64>,
    /// Their median, quartiles and count.
    pub band: Band,
}

/// A result file: everything one benchmark invocation measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchResult {
    /// Cores of the measuring host.
    pub host_cores: usize,
    /// Input seed.
    pub seed: u64,
    /// Runs per workload.
    pub reps: usize,
    /// Seconds each run measured.
    pub seconds: f64,
    /// Input scale.
    pub scale: String,
    /// End-to-end bands, per workload and metric.
    pub bands: Vec<BandRow>,
    /// Every run's record, flagged runs included; the traced runs carry
    /// the per-layer metrics and ledgers.
    pub runs: Vec<RunRecord>,
}

/// Runs `workloads` `reps` times each, each run a fresh process, with
/// the workload order rotated every rep; then one traced run per
/// workload. Prints the bands and writes the result file to `out`.
/// Returns whether every run was correct.
///
/// # Errors
/// I/O failures and runs that produce no record.
pub fn bench(
    seed: u64,
    reps: usize,
    workloads: &[Workload],
    seconds: f64,
    scale: Scale,
    out: &Path,
) -> io::Result<bool> {
    let records_dir = out.with_extension("runs");
    fs::create_dir_all(&records_dir)?;
    let mut runs = Vec::new();
    let args = |workload, trace| RunArgs {
        workload,
        seed,
        seconds,
        trace,
        scale,
    };
    for rep in 0..reps {
        for k in 0..workloads.len() {
            let workload = workloads[(k + rep) % workloads.len()];
            runs.push(spawn_run(&args(workload, false), rep, &records_dir)?);
        }
    }
    for &workload in workloads {
        runs.push(spawn_run(&args(workload, true), 0, &records_dir)?);
    }
    fs::remove_dir_all(&records_dir)?;

    let mut bands = Vec::new();
    for &workload in workloads {
        let name = workload.name();
        let counted: Vec<&RunRecord> = runs
            .iter()
            .filter(|r| r.workload == name && !r.trace && !r.late)
            .collect();
        for spec in &contract().end_to_end {
            let values: Vec<f64> = counted
                .iter()
                .filter_map(|r| r.metric(&spec.name))
                .collect();
            if values.is_empty() {
                continue;
            }
            bands.push(BandRow {
                workload: name.to_string(),
                metric: spec.name.clone(),
                unit: spec.unit.clone(),
                better: spec.better.clone(),
                bound: spec.bound.unwrap_or(0.0),
                band: Band::of(&values),
                values,
            });
        }
    }
    let result = BenchResult {
        host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        seed,
        reps,
        seconds,
        scale: scale.name().to_string(),
        bands,
        runs,
    };
    print_result(&result);
    if let Some(parent) = out.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(
        out,
        serde_json::to_string_pretty(&result).map_err(io::Error::other)?,
    )?;
    println!("result file: {}", out.display());
    Ok(result.runs.iter().all(|r| r.correct))
}

/// Runs one workload once in a fresh process, the way the benchmark
/// contract runs it, and reads the record it leaves.
fn spawn_run(args: &RunArgs, rep: usize, dir: &Path) -> io::Result<RunRecord> {
    let record = dir.join(format!(
        "run-{}-{}-{rep}.json",
        args.workload.name(),
        if args.trace { "traced" } else { "timed" }
    ));
    let status = Command::new(std::env::current_exe()?)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--scale", args.scale.name()])
        .arg("--record")
        .arg(&record)
        .stdout(std::process::Stdio::null())
        .status()?;
    let text = fs::read_to_string(&record).map_err(|e| {
        io::Error::other(format!(
            "{} run left no record ({status}): {e}",
            args.workload.name()
        ))
    })?;
    serde_json::from_str(&text).map_err(io::Error::other)
}

fn print_result(result: &BenchResult) {
    println!(
        "\nsaintbench: seed {}, {} reps x {:.0}s, scale {}, {} host cores\n",
        result.seed, result.reps, result.seconds, result.scale, result.host_cores
    );
    println!(
        "{:<15} {:<12} {:>6} {:>12} {:>12} {:>12} {:>3} {:>7} {:>6}",
        "workload", "metric", "unit", "median", "q1", "q3", "n", "spread", "bound"
    );
    for b in &result.bands {
        println!(
            "{:<15} {:<12} {:>6} {:>12.4} {:>12.4} {:>12.4} {:>3} {:>6.1}% {:>5.0}%",
            b.workload,
            b.metric,
            b.unit,
            b.band.median,
            b.band.q1,
            b.band.q3,
            b.band.n,
            100.0 * b.band.spread(),
            100.0 * b.bound
        );
    }
    for r in &result.runs {
        if r.trace || !r.correct || r.late {
            describe(r);
        }
    }
    let failed: Vec<String> = result
        .runs
        .iter()
        .filter(|r| !r.trace)
        .map(|r| format!("{} {:.2}%", r.workload, r.failed_pct))
        .collect();
    println!("\nfailed_pct per run: {}", failed.join(", "));
}

/// How one (workload, metric) moved between two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Movement {
    /// Within the bound.
    Same,
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// A side's own spread exceeds the bound, so no move can be told
    /// from noise.
    Unresolved,
}

/// One line of a comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Baseline band.
    pub a: Band,
    /// Candidate band.
    pub b: Band,
    /// Change of the median, as a share of the baseline, signed so
    /// that positive is worse.
    pub worsening: f64,
    /// The bound it is held to.
    pub bound: f64,
    /// The verdict.
    pub movement: Movement,
}

/// Compares candidate `b` against baseline `a`, per workload and
/// end-to-end metric, with each metric's bound from `BENCHMARK.json`.
#[must_use]
pub fn compare(a: &BenchResult, b: &BenchResult) -> Vec<Comparison> {
    let mut out = Vec::new();
    for row_a in &a.bands {
        let Some(row_b) = b
            .bands
            .iter()
            .find(|r| r.workload == row_a.workload && r.metric == row_a.metric)
        else {
            continue;
        };
        let spec = contract().metric(&row_a.metric);
        let higher = spec.map_or(row_a.better == "higher", MetricSpec::higher_is_better);
        let bound = spec.and_then(|s| s.bound).unwrap_or(row_a.bound);
        let sign = if higher { -1.0 } else { 1.0 };
        let (ma, mb) = (row_a.band.median, row_b.band.median);
        let worsening = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
        let worse_than = |x: f64, y: f64| sign * (x - y) > 0.0;
        let all_better = row_b
            .values
            .iter()
            .all(|&vb| row_a.values.iter().all(|&va| worse_than(va, vb)));
        let all_worse = row_b
            .values
            .iter()
            .all(|&vb| row_a.values.iter().all(|&va| worse_than(vb, va)));
        let movement = if row_a.band.spread() > bound || row_b.band.spread() > bound {
            if all_better {
                Movement::Better
            } else if all_worse {
                Movement::Worse
            } else {
                Movement::Unresolved
            }
        } else if worsening > bound {
            Movement::Worse
        } else if worsening < -bound {
            Movement::Better
        } else {
            Movement::Same
        };
        out.push(Comparison {
            workload: row_a.workload.clone(),
            metric: row_a.metric.clone(),
            unit: row_a.unit.clone(),
            a: row_a.band,
            b: row_b.band,
            worsening,
            bound,
            movement,
        });
    }
    out
}

/// Prints a comparison; returns whether nothing got worse.
#[must_use]
pub fn print_comparison(rows: &[Comparison]) -> bool {
    println!(
        "{:<15} {:<12} {:>6} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    for c in rows {
        let side = |b: &Band| format!("{:.4} [{:.4}, {:.4}]", b.median, b.q1, b.q3);
        println!(
            "{:<15} {:<12} {:>6} {:>30} {:>30} {:>+7.1}% {:>5.0}%  {}",
            c.workload,
            c.metric,
            c.unit,
            side(&c.a),
            side(&c.b),
            100.0 * c.worsening,
            100.0 * c.bound,
            match c.movement {
                Movement::Same => "same",
                Movement::Better => "better",
                Movement::Worse => "WORSE (beyond bound)",
                Movement::Unresolved => "unresolved (spread exceeds bound)",
            }
        );
    }
    rows.iter().all(|c| c.movement != Movement::Worse)
}

/// Reads a result file.
///
/// # Errors
/// I/O failures and malformed files.
pub fn load(path: &Path) -> io::Result<BenchResult> {
    let text = fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(io::Error::other)
}
