//! `saintbench` — run, trace and compare the SAINTDroid-RS benchmark.
//!
//! ```text
//! # one run of one workload; the last stdout line is its JSON result
//! saintbench --workload batch-sapk --seed 7 --seconds 10 --trace 0
//! # the benchmark: every workload, fresh process per run, bands + result file
//! saintbench --seed 7 [--reps 5] [--workload W] [--seconds S] [--out F]
//! # noise-banded comparison of two result files
//! saintbench --compare A.json B.json
//! ```
//!
//! `--scale smoke` shrinks every workload to a few seconds. Run from
//! the repository root: inputs go to `target/saintbench/<seed>/`.

use std::error::Error;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use saint_adf::AndroidFramework;
use saint_service::ServerConfig;
use saintbench::inputs::{self, Inputs, Scale};
use saintbench::run::{self, RunArgs, INPUT_ROOT};
use saintbench::spec::contract;
use saintbench::workload::{tool_with_caches, Workload};
use saintbench::{bench, timed, traced};
use saintdroid::engine::default_jobs;
use saintdroid::{DetectorSet, ScanEngine};

type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// Default repetitions per workload in benchmark mode.
const DEFAULT_REPS: usize = 5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("saintbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn required<'a>(args: &'a [String], flag: &str) -> Result<&'a str> {
    value(args, flag).ok_or_else(|| format!("missing {flag}").into())
}

fn workload(args: &[String]) -> Result<Workload> {
    let name = required(args, "--workload")?;
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name}").into())
}

fn dispatch(args: &[String]) -> Result<ExitCode> {
    if let Some(role) = value(args, "--child") {
        return child(role, args);
    }
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
            return Err("--compare needs two result files".into());
        };
        let rows = bench::compare(&bench::load(Path::new(a))?, &bench::load(Path::new(b))?);
        let ok = bench::print_comparison(&rows);
        return Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let seed: u64 = required(args, "--seed")?.parse()?;
    let scale = match value(args, "--scale") {
        Some(s) => Scale::parse(s).ok_or_else(|| format!("unknown scale {s}"))?,
        None => Scale::Full,
    };
    let seconds: f64 = match value(args, "--seconds") {
        Some(s) => s.parse()?,
        None => contract().run_seconds as f64,
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }

    if let Some(trace) = value(args, "--trace") {
        let trace = match trace {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}").into()),
        };
        let record = run::run(&RunArgs {
            workload: workload(args)?,
            seed,
            seconds,
            trace,
            scale,
        })?;
        run::describe(&record);
        if let Some(path) = value(args, "--record") {
            std::fs::write(path, serde_json::to_string(&record)?)?;
        }
        println!("{}", record.result_line());
        return Ok(if record.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let reps: usize = value(args, "--reps").map_or(Ok(DEFAULT_REPS), str::parse)?;
    let workloads = match value(args, "--workload") {
        Some(_) => vec![workload(args)?],
        None => Workload::ALL.to_vec(),
    };
    let out = value(args, "--out").map_or_else(
        || inputs::dir_for(Path::new(INPUT_ROOT), seed, scale).join("result.json"),
        PathBuf::from,
    );
    let ok = bench::bench(seed, reps.max(1), &workloads, seconds, scale, &out)?;
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The child roles the benchmark runs in fresh processes.
fn child(role: &str, args: &[String]) -> Result<ExitCode> {
    match role {
        "timed" | "traced" => {
            let workload = workload(args)?;
            let inputs = Inputs::open(Path::new(required(args, "--inputs")?))?;
            let work = Path::new(required(args, "--work")?);
            let out = required(args, "--out")?;
            let json = if role == "timed" {
                let seconds: f64 = required(args, "--seconds")?.parse()?;
                serde_json::to_string(&timed::run(workload, &inputs, seconds, work)?)?
            } else {
                let chrome = value(args, "--chrome").map(Path::new);
                let timing = !has(args, "--no-timing");
                serde_json::to_string(&traced::run(workload, &inputs, timing, chrome, work)?)?
            };
            std::fs::write(out, json)?;
            Ok(ExitCode::SUCCESS)
        }
        "serve" => serve(args),
        other => Err(format!("unknown child role {other}").into()),
    }
}

/// A daemon booted the way `saintdroid serve` boots one: framework
/// model, frozen image attached, caches prewarmed, one scan worker per
/// core. Prints its address once it listens.
fn serve(args: &[String]) -> Result<ExitCode> {
    let detectors = DetectorSet::parse(required(args, "--detectors")?)?;
    let framework = Arc::new(AndroidFramework::with_scale(&inputs::synth()));
    let engine = ScanEngine::from_tool(tool_with_caches(framework, detectors)).ensure_metrics();
    engine.attach_frozen(&inputs::framework_image(Path::new(required(
        args, "--inputs",
    )?)))?;
    engine.prewarm();
    let cfg = ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        jobs: default_jobs(),
        delta_dir: value(args, "--delta-dir").map(PathBuf::from),
        ..ServerConfig::default()
    };
    let handle = saint_service::start(engine, &cfg)?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "listening on {}", handle.addr())?;
    stdout.flush()?;
    handle.wait();
    Ok(ExitCode::SUCCESS)
}
