//! `saintdroid` — the command-line front-end of the reproduction,
//! standing in for the tool the paper makes "publicly available to the
//! research and education community" (§I).
//!
//! ```text
//! saintdroid scan app.sapk [--json] [--synth N] [--detectors SET]
//! saintdroid compare [--suite planted|benchmark|all] [--out FILE]
//! saintdroid verify app.sapk
//! saintdroid repair app.sapk -o fixed.sapk [--manifest-fixes]
//! saintdroid disasm app.sapk
//! saintdroid serve [--listen ADDR] [--jobs N] [--queue-depth D]
//! saintdroid submit app.sapk... [--addr ADDR] [--timeout-ms T] [--pipeline [--window W]]
//! saintdroid status [--addr ADDR]
//! saintdroid metrics [--addr ADDR]
//! saintdroid help
//! ```
//!
//! Packages are `SAPK` containers (see `saint_ir::codec`); the
//! `realworld_audit` example and `saintdroid synth-pkg` show how to
//! produce one.
//!
//! Exit-code contract (`scan` and `submit`): **0** no mismatches,
//! **2** at least one mismatch, **1** operational error (unreadable
//! package, service unreachable, rejected request). Scripts can gate
//! on "clean" vs "findings" without parsing output.

use std::process::ExitCode;
use std::sync::Arc;

use saint_adf::{AndroidFramework, SynthConfig};
use saint_dynamic::Verifier;
use saint_ir::{codec, Apk};
use saint_service::{Client, ClientError, ServerConfig};
use saintdroid::repair::{repair, RepairOptions};
use saintdroid::{CompatDetector, SaintDroid, ScanEngine};

/// Where `submit`/`status`/`shutdown` look for the daemon unless
/// `--addr` says otherwise; matches `serve`'s default `--listen`.
const DEFAULT_ADDR: &str = "127.0.0.1:7744";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("saintdroid: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let Some(command) = args.first() else {
        print_help();
        return Ok(ExitCode::FAILURE);
    };
    check_flags(&args[1..])?;
    match command.as_str() {
        "help" | "--help" | "-h" => {
            print_help();
            Ok(ExitCode::SUCCESS)
        }
        "scan" => scan(&args[1..]),
        "compare" => compare_cli(&args[1..]),
        "verify" => verify(&args[1..]),
        "repair" => do_repair(&args[1..]),
        "disasm" => disasm(&args[1..]),
        "callgraph" => callgraph(&args[1..]),
        "serve" => serve(&args[1..]),
        "campaign" => campaign(&args[1..]),
        "submit" => submit(&args[1..]),
        "status" => status(&args[1..]),
        "metrics" => metrics(&args[1..]),
        "shutdown" => shutdown(&args[1..]),
        "synth-pkg" => synth_pkg(&args[1..]),
        "synth-lineage" => synth_lineage(&args[1..]),
        "compile-db" => compile_db(&args[1..]),
        "compile-corpus" => compile_corpus(&args[1..]),
        other => {
            eprintln!("unknown command `{other}`; try `saintdroid help`");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn print_help() {
    eprintln!(
        "SAINTDroid reproduction CLI\n\
         \n\
         usage:\n\
         \x20 saintdroid scan <app.sapk>... [--json] [--jobs N] [--app-jobs M] [--synth N]\n\
         \x20                [--trace-json <out.json>]\n\
         \x20                                                   detect compatibility mismatches; several\n\
         \x20                                                   packages are scanned as one parallel batch\n\
         \x20 saintdroid compare [--suite planted|benchmark|all] [--out FILE] [--json]\n\
         \x20                                                   run the full tool matrix (SAINTDroid with\n\
         \x20                                                   every family + CID/CIDER/Lint) against a\n\
         \x20                                                   labeled corpus and report per-family\n\
         \x20                                                   precision/recall/F1 (BENCH_compare.json)\n\
         \x20 saintdroid scan --history <dir> [--delta-dir D] [--json]\n\
         \x20                                                   scan a version lineage (the directory's\n\
         \x20                                                   .sapk files, oldest first by name) through\n\
         \x20                                                   the incremental store and report when each\n\
         \x20                                                   mismatch was introduced and fixed\n\
         \x20 saintdroid verify <app.sapk>                      scan, then dynamically verify findings\n\
         \x20 saintdroid repair <app.sapk> -o <out.sapk> [--manifest-fixes]\n\
         \x20                                                   synthesize fixes and write the patched app\n\
         \x20 saintdroid disasm <app.sapk>                      print manifest and smali-like listing\n\
         \x20 saintdroid callgraph <app.sapk>                   emit the explored call graph as Graphviz dot\n\
         \x20 saintdroid serve [--listen ADDR] [--jobs N] [--app-jobs M]\n\
         \x20                  [--queue-depth D] [--synth N]    run the persistent scan service: one warm\n\
         \x20                                                   engine (framework + caches built once),\n\
         \x20                                                   newline-delimited JSON over TCP\n\
         \x20 saintdroid submit <app.sapk>... [--addr ADDR] [--timeout-ms T]\n\
         \x20                  [--pipeline [--window W]]        scan packages through a running service\n\
         \x20 saintdroid status [--addr ADDR]                   daemon uptime, jobs, queue, cache hit rates\n\
         \x20 saintdroid metrics [--addr ADDR]                  full observability view: per-phase spans,\n\
         \x20                                                   counters, cache and queue state\n\
         \x20 saintdroid shutdown [--addr ADDR]                 gracefully drain and stop the daemon\n\
         \x20 saintdroid campaign run [--corpus IMG]... [--sapk-dir DIR]...\n\
         \x20                  [--daemon ADDR]... [--fleet N] [--journal J] [--out R] [--stable]\n\
         \x20                                                   scan a whole corpus across a daemon fleet:\n\
         \x20                                                   consistent-hash sharding, checkpointed\n\
         \x20                                                   journal, failover on daemon loss, one\n\
         \x20                                                   aggregated JSON report\n\
         \x20 saintdroid campaign resume [same flags]           replay the journal and scan only what is\n\
         \x20                                                   not covered; converges to the same report\n\
         \x20 saintdroid campaign report [--journal J] [--out R] [--stable]\n\
         \x20                                                   rebuild the aggregated report from the\n\
         \x20                                                   journal alone (no fleet, no re-scan)\n\
         \x20 saintdroid synth-pkg <out.sapk> [--index I]       write one synthesized package (for smoke\n\
         \x20                                                   tests and protocol experiments)\n\
         \x20 saintdroid synth-lineage <out-dir> [--versions N] [--churn-pct P] [--seed S]\n\
         \x20                                                   write a synthesized app-update lineage\n\
         \x20                                                   (v0.sapk...) with P% class churn per\n\
         \x20                                                   version, for `scan --history`\n\
         \x20 saintdroid compile-db <out.sfrz> [--synth N]      compile the framework model (API database,\n\
         \x20                                                   permission map, class bodies) into a frozen\n\
         \x20                                                   mmap-able image\n\
         \x20 saintdroid compile-corpus -o <out.sfrz> <app.sapk>... | --synth-corpus N\n\
         \x20                                                   pack SAPK packages into one frozen corpus\n\
         \x20                                                   image scanned zero-copy via `scan --corpus`\n\
         \n\
         exit codes (scan, submit, campaign): 0 = no mismatches, 2 =\n\
         mismatches found, 1 = error (unreadable package, service\n\
         unreachable or request rejected).\n\
         \n\
         --jobs N      scan batches on N worker threads sharing one\n\
         framework-class cache (default: one per core). For daemons\n\
         (`serve`, `campaign --fleet`): N concurrent scan workers over\n\
         the warm engine.\n\
         --app-jobs M  give each app M intra-app worker threads\n\
         (parallel exploration, detectors, and framework-subtree\n\
         scans); app slots shrink to N/M so the global budget holds.\n\
         Default: auto — derived from batch size and cores. Reports\n\
         are identical at any setting.\n\
         --synth N     grows the framework model with N synthetic\n\
         classes (default: curated surface only).\n\
         --detectors SET scan/serve/campaign --fleet: the detector\n\
         families to run — `amd` (api,apc,prm — the default), `all`,\n\
         or a comma list of api,apc,prm,dsd. The set is part of a\n\
         scan's identity: the incremental store keys fold it in, and a\n\
         daemon rejects submissions asserting a different set\n\
         (`detector_mismatch`).\n\
         --suite S     compare: the labeled corpus — `planted` (six\n\
         apps with exactly-known defects across all four families,\n\
         the default), `benchmark` (the 19-app CIDER/CID suite), or\n\
         `all` (both).\n\
         --out FILE    compare: where the JSON artifact goes (default\n\
         BENCH_compare.json); the human table always prints to stderr.\n\
         --listen ADDR serve: bind address (default {DEFAULT_ADDR};\n\
         port 0 picks an ephemeral port, printed on startup).\n\
         --queue-depth D serve/campaign --fleet: queued scans beyond\n\
         the workers before reads are suspended for backpressure\n\
         (default 64).\n\
         --name NAME   serve: operator-assigned daemon name, echoed in\n\
         status/metrics and campaign per-daemon attribution.\n\
         --scan-pace-ms P serve/campaign --fleet: artificial per-scan\n\
         service time (capacity emulation for fleet benches on hosts\n\
         with fewer cores than daemons; default: off).\n\
         --trace-json <out.json> scan: write per-phase spans as Chrome\n\
         trace JSON (load in chrome://tracing or Perfetto).\n\
         --delta-dir D scan --history/serve: the incremental artifact\n\
         store (default .saint/delta for --history; serve answers the\n\
         `delta` verb from it, and without the flag the verb degrades\n\
         to a plain full scan). Reports are byte-identical to a cold\n\
         scan either way — the store only changes what is recomputed.\n\
         --addr ADDR   submit/status/metrics/shutdown: daemon address\n\
         (default {DEFAULT_ADDR}).\n\
         --timeout-ms T submit: per-package deadline, queue wait\n\
         included (default: none).\n\
         --retries N   submit: retry transient failures (busy,\n\
         internal, connection reset) up to N times per package with\n\
         capped exponential backoff (default 0: fail fast; --pipeline\n\
         defaults to 3 and retries only the failed request).\n\
         --pipeline    submit: stream every package over one\n\
         connection with a window of scans in flight instead of\n\
         request/response lockstep; reports and exit codes are\n\
         identical to the lockstep path.\n\
         --window W    submit --pipeline: in-flight requests kept on\n\
         the wire (default 64, matching the server-side per-connection\n\
         window; the daemon suspends reads beyond its own window).\n\
         --corpus IMG  scan: analyze every package of a frozen corpus\n\
         image (see compile-corpus) straight out of the mapping.\n\
         --frozen-db PATH scan/serve/campaign --fleet: frozen framework\n\
         image to attach, after checking its checksum, class index and\n\
         spec fingerprint (default for daemons:\n\
         .saint/frozen/framework-<fingerprint>.sfrz; a missing or stale\n\
         image is compiled). For scan the flag opts in; for daemons it\n\
         overrides. A daemon that cannot attach parses the framework.\n\
         --corpus IMG / --sapk-dir DIR campaign: work sources, both\n\
         repeatable; packages are deduplicated by content across all\n\
         sources.\n\
         --daemon ADDR campaign: an already-running daemon to enlist\n\
         (repeatable).\n\
         --fleet N     campaign: spawn and supervise N local daemons\n\
         on ephemeral ports for the run (combines with --daemon).\n\
         --journal J   campaign: checkpointed completion journal\n\
         (default campaign.journal); `resume`/`report` read it back.\n\
         --checkpoint-every K campaign: journal records per fsync\n\
         batch (default 32; a crash loses at most the unsynced tail).\n\
         --out R       campaign: write the aggregated JSON report to R\n\
         instead of stdout.\n\
         --stable      campaign: omit runtime/throughput stats from\n\
         the report so converged runs compare byte-for-byte."
    );
}

/// Where daemons keep their frozen framework image unless
/// `--frozen-db` says otherwise: a fingerprint-named file under
/// `.saint/frozen/` — different framework scales get different images,
/// and a spec change simply compiles a sibling file.
fn default_frozen_path(fw: &AndroidFramework) -> std::path::PathBuf {
    let fp = saint_frozen::spec_fingerprint(fw.spec());
    std::path::PathBuf::from(".saint/frozen").join(format!("framework-{fp:016x}.sfrz"))
}

fn load_apk(path: &str) -> Result<Apk, Box<dyn std::error::Error>> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(codec::decode_apk(&bytes)?)
}

fn framework(args: &[String]) -> Arc<AndroidFramework> {
    match flag_value(args, "--synth") {
        Some(classes) => {
            let mut cfg = SynthConfig::medium();
            cfg.classes = classes;
            Arc::new(AndroidFramework::with_scale(&cfg))
        }
        None => Arc::new(AndroidFramework::curated()),
    }
}

/// The scan engine for `scan`, `scan --history` and every daemon, with
/// all three batch caches, honoring `--app-jobs` and `--detectors`:
/// without the latter the engine runs the default AMD families; with
/// it, exactly the requested set (which the incremental store and the
/// daemon's assertion check then treat as part of the scan's identity).
fn engine_for(fw: Arc<AndroidFramework>, args: &[String]) -> Result<ScanEngine, String> {
    let mut engine = ScanEngine::new(fw);
    if let Some(app_jobs) = flag_value(args, "--app-jobs") {
        engine = engine.app_jobs(app_jobs);
    }
    match string_flag(args, "--detectors") {
        Some(spec) => {
            let set = saintdroid::DetectorSet::parse(spec)
                .map_err(|e| format!("--detectors {spec}: {e}"))?;
            Ok(engine.with_detectors(set))
        }
        None => Ok(engine),
    }
}

/// The engine behind every daemon, `serve` and each `campaign --fleet`
/// daemon alike: [`engine_for`] with a metrics registry, the frozen
/// framework image attached (`--frozen-db`, else
/// [`default_frozen_path`]) and the caches prewarmed. A daemon that
/// cannot attach parses the framework instead, so it always comes up.
/// `who` prefixes the boot log line.
fn daemon_engine(
    fw: &Arc<AndroidFramework>,
    args: &[String],
    who: &str,
) -> Result<ScanEngine, String> {
    // The registry goes in before the attach so the attach itself is
    // recorded (frozen_map span, frozen_bytes_mapped).
    let engine = engine_for(Arc::clone(fw), args)?.ensure_metrics();
    let image = string_flag(args, "--frozen-db")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| default_frozen_path(fw));
    match engine.attach_frozen(&image) {
        Ok(boot) => eprintln!(
            "{who}: frozen image {} ({}, {} bytes, {:.3}s)",
            image.display(),
            if boot.attached {
                "attached"
            } else {
                "compiled on first run"
            },
            boot.bytes_mapped,
            boot.startup.as_secs_f64()
        ),
        Err(e) => eprintln!("{who}: frozen image unavailable ({e}); parsing framework instead"),
    }
    engine.prewarm();
    Ok(engine)
}

/// The daemon shape `serve` and every `campaign --fleet` daemon share
/// (a fleet daemon then listens on an ephemeral port under its own
/// name).
fn server_config(args: &[String]) -> ServerConfig {
    let mut cfg = ServerConfig {
        listen: string_flag(args, "--listen")
            .unwrap_or(DEFAULT_ADDR)
            .to_string(),
        name: string_flag(args, "--name").map(str::to_string),
        scan_pace: flag_value(args, "--scan-pace-ms")
            .map(|ms| std::time::Duration::from_millis(ms as u64)),
        // Opt-in incremental store: the daemon answers the `delta` verb
        // from warm artifacts; without the flag the verb degrades to a
        // plain full scan.
        delta_dir: string_flag(args, "--delta-dir").map(std::path::PathBuf::from),
        ..ServerConfig::default()
    };
    if let Some(jobs) = flag_value(args, "--jobs") {
        cfg.jobs = jobs.max(1);
    }
    if let Some(depth) = flag_value(args, "--queue-depth") {
        cfg.queue_depth = depth;
    }
    cfg
}

/// Flags that take a value (so the value is not a positional).
const VALUE_FLAGS: &[&str] = &[
    "--synth",
    "--detectors",
    "--suite",
    "--jobs",
    "--app-jobs",
    "--listen",
    "--queue-depth",
    "--addr",
    "--timeout-ms",
    "--retries",
    "--window",
    "--trace-json",
    "--index",
    "--corpus",
    "--frozen-db",
    "--synth-corpus",
    "--name",
    "--scan-pace-ms",
    "--sapk-dir",
    "--daemon",
    "--fleet",
    "--journal",
    "--out",
    "--checkpoint-every",
    "--history",
    "--delta-dir",
    "--versions",
    "--churn-pct",
    "--seed",
    "-o",
];

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["--json", "--manifest-fixes", "--pipeline", "--stable"];

/// The arguments left once every [`VALUE_FLAGS`] entry and its value
/// are dropped: positionals and boolean flags.
fn bare_args(args: &[String]) -> impl Iterator<Item = &String> {
    let mut skip_value = false;
    args.iter().filter(move |arg| {
        if std::mem::take(&mut skip_value) {
            return false;
        }
        skip_value = VALUE_FLAGS.contains(&arg.as_str());
        !skip_value
    })
}

/// Positional arguments: everything that is neither a flag nor the
/// value of a value-taking flag ([`VALUE_FLAGS`]).
fn positionals(args: &[String]) -> Vec<&String> {
    bare_args(args).filter(|a| !a.starts_with('-')).collect()
}

/// Rejects, by name, any flag that is in neither [`VALUE_FLAGS`] nor
/// [`BOOL_FLAGS`]: a typo or a retired flag must fail loudly rather
/// than be ignored.
fn check_flags(args: &[String]) -> Result<(), String> {
    match bare_args(args).find(|a| a.starts_with('-') && !BOOL_FLAGS.contains(&a.as_str())) {
        Some(flag) => Err(format!("unknown flag `{flag}`; try `saintdroid help`")),
        None => Ok(()),
    }
}

/// The single `<app.sapk>` positional of the one-package verbs
/// (`verify`, `repair`, `disasm`, `callgraph`); flags may appear in
/// any position.
fn sole_package<'a>(args: &'a [String], verb: &str) -> Result<&'a String, String> {
    positionals(args)
        .first()
        .copied()
        .ok_or_else(|| format!("{verb}: missing <app.sapk>"))
}

fn flag_value(args: &[String], flag: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|n| n.parse::<usize>().ok())
}

fn string_flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Every value of a repeatable value-taking flag, in argument order
/// (`campaign --corpus a.sfrz --corpus b.sfrz`).
fn string_flags<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    for (i, arg) in args.iter().enumerate() {
        if arg == flag {
            if let Some(value) = args.get(i + 1) {
                out.push(value.as_str());
            }
        }
    }
    out
}

/// The exit code the scan contract assigns to a set of reports.
fn scan_exit_code(reports: &[saintdroid::Report]) -> ExitCode {
    if reports.iter().all(saintdroid::Report::is_clean) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn scan(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    if let Some(dir) = string_flag(args, "--history") {
        return scan_history_cli(dir, args);
    }
    let paths = positionals(args);
    let corpus = string_flag(args, "--corpus")
        .map(|img| {
            saint_frozen::FrozenCorpus::open(std::path::Path::new(img))
                .map_err(|e| format!("cannot attach corpus image {img}: {e}"))
        })
        .transpose()?;
    if paths.is_empty() && corpus.is_none() {
        return Err("scan: missing <app.sapk> (or --corpus <image>)".into());
    }
    let apks = paths
        .iter()
        .map(|p| load_apk(p))
        .collect::<Result<Vec<_>, _>>()?;
    let mut engine = engine_for(framework(args), args)?;
    if let Some(jobs) = flag_value(args, "--jobs") {
        engine = engine.jobs(jobs);
    }
    let trace_path = string_flag(args, "--trace-json");
    let trace = trace_path.map(|_| Arc::new(saint_obs::TraceSink::new()));
    if let Some(trace) = &trace {
        engine = engine.with_trace(Arc::clone(trace)).ensure_metrics();
    }
    if let Some(db) = string_flag(args, "--frozen-db") {
        engine
            .attach_frozen(std::path::Path::new(db))
            .map_err(|e| format!("cannot attach frozen framework image {db}: {e}"))?;
        engine.prewarm();
    }
    let outcome = match &corpus {
        Some(corpus) => {
            let mut outcome = engine.scan_frozen_batch_timed(corpus);
            if !apks.is_empty() {
                // Mixed invocation: .sapk positionals after the corpus.
                let extra = engine.scan_batch_timed(&apks);
                outcome.reports.extend(extra.reports);
                outcome.wall += extra.wall;
            }
            outcome
        }
        None => engine.scan_batch_timed(&apks),
    };
    if let (Some(path), Some(trace)) = (trace_path, &trace) {
        let events = trace.len();
        std::fs::write(path, trace.to_chrome_json())
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
        eprintln!("wrote {events} trace events to {path}");
    }
    if args.iter().any(|a| a == "--json") {
        println!("{}", serde_json::to_string_pretty(&outcome.reports)?);
    } else {
        for report in &outcome.reports {
            print!("{report}");
        }
        if outcome.reports.len() > 1 {
            eprintln!(
                "scanned {} packages in {:.2}s on {} workers ({:.1} apps/s)",
                outcome.reports.len(),
                outcome.wall.as_secs_f64(),
                outcome.workers,
                outcome.apps_per_sec()
            );
        }
    }
    Ok(scan_exit_code(&outcome.reports))
}

/// `saintdroid compare`: run the full tool matrix (SAINTDroid with all
/// four detector families, then CID/CIDER/Lint as published) against a
/// labeled ground-truth corpus and report per-family and per-tool
/// precision/recall/F1. The human-readable table goes to stderr; the
/// JSON artifact goes to `--out` (default `BENCH_compare.json`), and
/// `--json` additionally prints it to stdout for piping.
fn compare_cli(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let suite = string_flag(args, "--suite").unwrap_or("planted");
    let (label, apps) = match suite {
        "planted" => ("planted", saint_corpus::planted_suite()),
        "benchmark" => ("benchmark", saint_corpus::benchmark_suite()),
        "all" => {
            let mut apps = saint_corpus::planted_suite();
            apps.extend(saint_corpus::benchmark_suite());
            ("planted+benchmark", apps)
        }
        other => {
            return Err(
                format!("compare: unknown --suite `{other}` (planted|benchmark|all)").into(),
            )
        }
    };
    let fw = framework(args);
    let cmp = saint_baselines::compare(label, &fw, &apps);
    eprint!("{cmp}");
    let mut json = serde_json::to_string_pretty(&cmp)?;
    json.push('\n');
    if args.iter().any(|a| a == "--json") {
        print!("{json}");
    }
    let out = string_flag(args, "--out").unwrap_or("BENCH_compare.json");
    std::fs::write(out, &json).map_err(|e| format!("compare: cannot write {out}: {e}"))?;
    eprintln!("wrote comparison artifact to {out}");
    Ok(ExitCode::SUCCESS)
}

/// `scan --history <dir>`: scan a version lineage oldest-first through
/// the incremental artifact store and report the version at which each
/// mismatch was introduced and, if ever, fixed.
///
/// Versions are the directory's `.sapk` files in lexicographic name
/// order (`v0.sapk`, `v1.sapk`, … — zero-pad past ten versions).
/// Reports go to stdout; reuse accounting and the evolution summary go
/// to stderr, so the report stream stays byte-comparable between cold
/// and warm runs.
fn scan_history_cli(dir: &str, args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("scan --history: cannot read {dir}: {e}"))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|x| x == "sapk"))
        .collect();
    if files.is_empty() {
        return Err(format!("scan --history: no .sapk files in {dir}").into());
    }
    files.sort();
    let mut versions = Vec::with_capacity(files.len());
    for path in &files {
        let label = path.file_stem().map_or_else(
            || path.display().to_string(),
            |s| s.to_string_lossy().into_owned(),
        );
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let apk = codec::decode_apk(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        versions.push((label, bytes, apk));
    }

    let store = string_flag(args, "--delta-dir").unwrap_or(".saint/delta");
    let scanner = saint_delta::DeltaScanner::new(store);
    let engine = engine_for(framework(args), args)?;
    let app_jobs = engine.app_job_count().unwrap_or(1);
    let evolution = saint_delta::scan_history(&scanner, engine.tool(), &versions, app_jobs);

    if args.iter().any(|a| a == "--json") {
        let reports: Vec<&saintdroid::Report> =
            evolution.versions.iter().map(|v| &v.report).collect();
        println!("{}", serde_json::to_string_pretty(&reports)?);
    } else {
        for v in &evolution.versions {
            print!("{}: {}", v.label, v.report);
        }
    }

    let (mut hits, mut misses, mut reanalyzed) = (0u64, 0u64, 0u64);
    for v in &evolution.versions {
        hits += v.stats.hits;
        misses += v.stats.misses;
        reanalyzed += v.stats.reanalyzed;
    }
    eprintln!(
        "delta: {hits} hits / {misses} misses / {reanalyzed} classes reanalyzed (store {store})"
    );
    for e in &evolution.entries {
        match &e.fixed {
            Some(fixed) => eprintln!("  {}: introduced {} fixed {fixed}", e.key, e.introduced),
            None => eprintln!("  {}: introduced {} still present", e.key, e.introduced),
        }
    }
    Ok(if evolution.current_mismatches() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn verify(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let path = sole_package(args, "verify")?;
    let apk = load_apk(path)?;
    let fw = framework(args);
    let tool = SaintDroid::new(Arc::clone(&fw));
    let report = tool.analyze(&apk).expect("SAINTDroid analyzes any APK");
    print!("{report}");
    if report.is_clean() {
        return Ok(ExitCode::SUCCESS);
    }
    let verification = Verifier::new(fw).verify(&apk, &report);
    println!(
        "dynamic verification: {} confirmed, {} refuted, {} undetermined",
        verification.confirmed.len(),
        verification.refuted.len(),
        verification.undetermined.len()
    );
    for m in &verification.refuted {
        println!("  refuted (likely false alarm): {m}");
    }
    Ok(ExitCode::from(2))
}

fn do_repair(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let path = sole_package(args, "repair")?;
    let out_path = string_flag(args, "-o").ok_or("repair: missing -o <out.sapk>")?;
    let opts = RepairOptions {
        apply_manifest_fixes: args.iter().any(|a| a == "--manifest-fixes"),
    };
    let apk = load_apk(path)?;
    let fw = framework(args);
    let tool = SaintDroid::new(Arc::clone(&fw));
    let report = tool.analyze(&apk).expect("SAINTDroid analyzes any APK");
    if report.is_clean() {
        println!("no mismatches; nothing to repair");
        std::fs::write(out_path, codec::encode_apk(&apk))?;
        return Ok(ExitCode::SUCCESS);
    }
    let outcome = repair(&apk, &report, &opts);
    for action in &outcome.actions {
        println!("{action:?}");
    }
    let after = tool
        .analyze(&outcome.apk)
        .expect("SAINTDroid analyzes any APK");
    println!(
        "findings: {} before, {} after repair",
        report.total(),
        after.total()
    );
    std::fs::write(out_path, codec::encode_apk(&outcome.apk))?;
    println!("patched package written to {out_path}");
    Ok(ExitCode::SUCCESS)
}

fn callgraph(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let path = sole_package(args, "callgraph")?;
    let apk = load_apk(path)?;
    let tool = SaintDroid::new(framework(args));
    let model = tool.model(&apk);
    let graph = saint_analysis::CallGraph::from_exploration(&model.exploration);
    print!("{}", graph.to_dot());
    Ok(ExitCode::SUCCESS)
}

fn disasm(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let path = sole_package(args, "disasm")?;
    let apk = load_apk(path)?;
    println!("{}", apk.manifest);
    for class in apk.all_classes() {
        println!("{class}");
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------
// Service verbs
// ---------------------------------------------------------------------

fn serve(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let cfg = server_config(args);
    eprintln!("saint-service: warming engine (framework model + shared caches)...");
    let engine = daemon_engine(&framework(args), args, "saint-service")?;
    let handle = saint_service::start(engine, &cfg)?;
    // Stdout, flushed: scripts (the CI smoke job among them) wait for
    // this line to learn the ephemeral port.
    println!("saint-service listening on {}", handle.addr());
    use std::io::Write as _;
    std::io::stdout().flush()?;
    eprintln!(
        "jobs={} queue-depth={} — submit with `saintdroid submit <app.sapk> --addr {}`",
        cfg.jobs,
        cfg.queue_depth,
        handle.addr()
    );
    handle.wait();
    eprintln!("saint-service: drained and stopped");
    Ok(ExitCode::SUCCESS)
}

fn submit(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let paths = positionals(args);
    if paths.is_empty() {
        return Err("submit: missing <app.sapk>".into());
    }
    let addr = string_flag(args, "--addr").unwrap_or(DEFAULT_ADDR);
    let deadline_ms = flag_value(args, "--timeout-ms").map(|t| t as u64);
    if args.iter().any(|a| a == "--pipeline") {
        return submit_pipelined(&paths, args, addr, deadline_ms);
    }
    let retries = flag_value(args, "--retries").map_or(0, |r| r as u32);
    let policy = saint_service::RetryPolicy::new(retries);
    let mut reports = Vec::new();
    for path in paths {
        let sapk = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        match saint_service::scan_with_retries(addr, &sapk, deadline_ms, policy, None) {
            Ok((response, used)) => {
                if used > 0 {
                    eprintln!("{path}: served after {used} retr{}", plural_y(used));
                }
                print!("{}", response.report);
                reports.push(response.report);
            }
            Err(ClientError::Rejected(err)) => {
                return Err(format!(
                    "{path}: service rejected scan: {} ({})",
                    err.code, err.message
                )
                .into())
            }
            Err(e) => return Err(format!("{path}: {e}").into()),
        }
    }
    Ok(scan_exit_code(&reports))
}

/// `submit --pipeline`: every package streamed over one connection
/// with a window of scans in flight; responses may come back out of
/// order and are reordered by request id, so printed reports — and the
/// exit code — match the lockstep path byte for byte.
fn submit_pipelined(
    paths: &[&String],
    args: &[String],
    addr: &str,
    deadline_ms: Option<u64>,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    // Default matches the server-side per-connection window
    // (`ServerConfig::default().window`): a smaller client window
    // under-fills the pipe, a larger one just gets suspended.
    let window = flag_value(args, "--window").unwrap_or(saint_service::DEFAULT_WINDOW);
    let mut client = saint_service::PipelinedClient::connect(addr, window)
        .map_err(|e| format!("cannot reach scan service at {addr}: {e}"))?;
    if let Some(retries) = flag_value(args, "--retries") {
        client = client.with_retry_policy(saint_service::RetryPolicy::new(retries as u32));
    }
    let mut sapks = Vec::with_capacity(paths.len());
    for path in paths {
        sapks.push(std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?);
    }
    let responses = match client.scan_all(&sapks, deadline_ms) {
        Ok(responses) => responses,
        Err(ClientError::Rejected(err)) => {
            return Err(format!("service rejected scan: {} ({})", err.code, err.message).into())
        }
        Err(e) => return Err(format!("pipelined submit: {e}").into()),
    };
    let reports: Vec<saintdroid::Report> = responses.into_iter().map(|r| r.report).collect();
    for report in &reports {
        print!("{report}");
    }
    Ok(scan_exit_code(&reports))
}

fn plural_y(n: u32) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}

fn plural_s(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// `campaign run|resume|report`: the fleet campaign runner
/// (`saint-campaign`) behind one verb.
fn campaign(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    match positionals(args).first().map(|s| s.as_str()) {
        Some("run") => campaign_execute(args, false),
        Some("resume") => campaign_execute(args, true),
        Some("report") => campaign_report(args),
        _ => Err("campaign: expected `run`, `resume` or `report` (see `saintdroid help`)".into()),
    }
}

/// The journal the campaign verbs operate on (`--journal`, default
/// `campaign.journal` in the working directory).
fn campaign_journal_path(args: &[String]) -> std::path::PathBuf {
    std::path::PathBuf::from(string_flag(args, "--journal").unwrap_or("campaign.journal"))
}

/// Renders a campaign report to `--out` or stdout and maps it onto the
/// scan exit-code contract (0 clean, 2 mismatches found).
fn emit_campaign_report(
    args: &[String],
    report: &saint_campaign::CampaignReport,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let rendered = if args.iter().any(|a| a == "--stable") {
        report.stable_json()
    } else {
        report.to_json()
    };
    match string_flag(args, "--out") {
        Some(path) => {
            std::fs::write(path, rendered + "\n")
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("campaign: report written to {path}");
        }
        None => println!("{rendered}"),
    }
    Ok(if report.mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// `campaign run` / `campaign resume`: build the corpus registry,
/// stand up (or address) the fleet, drive the campaign, emit the
/// aggregated report.
fn campaign_execute(args: &[String], resume: bool) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut registry = saint_campaign::CorpusRegistry::new();
    for image in string_flags(args, "--corpus") {
        let added = registry.add_image(std::path::Path::new(image))?;
        eprintln!("campaign: {added} package{} from {image}", plural_s(added));
    }
    for dir in string_flags(args, "--sapk-dir") {
        let added = registry.add_sapk_dir(std::path::Path::new(dir))?;
        eprintln!("campaign: {added} package{} from {dir}/", plural_s(added));
    }
    if registry.is_empty() {
        return Err("campaign: no work — pass --corpus <img.sfrz> and/or --sapk-dir <dir>".into());
    }

    let mut endpoints: Vec<String> = string_flags(args, "--daemon")
        .into_iter()
        .map(str::to_string)
        .collect();
    let mut fleet = None;
    if let Some(n) = flag_value(args, "--fleet").map(|n| n.max(1)) {
        eprintln!(
            "campaign: starting local fleet of {n} daemon{} (one warm engine each)...",
            plural_s(n)
        );
        // Every fleet daemon is built like `serve`'s; the framework
        // model is shared across the fleet.
        let fw = framework(args);
        let engines = (0..n)
            .map(|i| daemon_engine(&fw, args, &format!("campaign-{i}")))
            .collect::<Result<Vec<_>, _>>()?;
        let local = saint_campaign::LocalFleet::start(engines, &server_config(args))?;
        endpoints.extend(local.endpoints().iter().cloned());
        fleet = Some(local);
    }
    if endpoints.is_empty() {
        return Err("campaign: no daemons — pass --daemon <addr> and/or --fleet N".into());
    }

    let mut cfg = saint_campaign::CampaignConfig::default();
    if let Some(window) = flag_value(args, "--window") {
        cfg.window = window.max(1);
    }
    if let Some(retries) = flag_value(args, "--retries") {
        cfg.retries = retries as u32;
    }
    if let Some(every) = flag_value(args, "--checkpoint-every") {
        cfg.checkpoint_every = every.max(1);
    }
    cfg.deadline_ms = flag_value(args, "--timeout-ms").map(|t| t as u64);

    let metrics = Arc::new(saint_obs::MetricsRegistry::new());
    let journal = campaign_journal_path(args);
    let outcome = saint_campaign::run_campaign(
        &registry,
        &endpoints,
        &journal,
        resume,
        &cfg,
        Some(&metrics),
    )?;
    if let Some(mut local) = fleet {
        local.shutdown();
    }

    if outcome.journal_truncated {
        eprintln!("campaign: journal had a damaged tail; the affected units were re-scanned");
    }
    if outcome.foreign > 0 {
        eprintln!(
            "campaign: {} journal record{} ignored (not in this corpus)",
            outcome.foreign,
            plural_s(outcome.foreign)
        );
    }
    let r = &outcome.runtime;
    eprintln!(
        "campaign: {} app{} done ({} scanned now, {} resumed from journal) across {} daemon{} \
         in {:.1}s — {:.1} apps/s, {} resubmission{}, {} failover{}, {} checkpoint flush{}",
        outcome.store.len(),
        plural_s(outcome.store.len()),
        outcome.completed,
        outcome.resumed,
        endpoints.len(),
        plural_s(endpoints.len()),
        r.wall_secs,
        r.apps_per_sec,
        r.resubmissions,
        plural_s(r.resubmissions as usize),
        r.daemon_failovers,
        plural_s(r.daemon_failovers as usize),
        r.checkpoint_flushes,
        if r.checkpoint_flushes == 1 { "" } else { "es" },
    );
    let report = outcome.store.report(Some(outcome.runtime.clone()));
    emit_campaign_report(args, &report)
}

/// `campaign report`: rebuild the aggregated report from the journal
/// alone — no fleet, no corpus, no re-scan.
fn campaign_report(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let journal = campaign_journal_path(args);
    let replayed = saint_campaign::replay(&journal)?;
    if replayed.truncated {
        eprintln!(
            "campaign: journal has a damaged tail; reporting the {} salvaged record{} \
             (run `campaign resume` to finish)",
            replayed.records.len(),
            plural_s(replayed.records.len())
        );
    }
    let mut store = saint_campaign::ResultStore::new();
    for record in replayed.records {
        store.insert(record);
    }
    let report = store.report(None);
    emit_campaign_report(args, &report)
}

fn status(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let addr = string_flag(args, "--addr").unwrap_or(DEFAULT_ADDR);
    let mut client =
        Client::connect(addr).map_err(|e| format!("cannot reach scan service at {addr}: {e}"))?;
    let s = client.status()?;
    print_status(addr, &s);
    Ok(ExitCode::SUCCESS)
}

fn print_status(addr: &str, s: &saint_service::StatusResponse) {
    println!(
        "scan service at {addr}: up {:.1}s{}{}",
        s.uptime_ms as f64 / 1000.0,
        match &s.daemon {
            Some(name) => format!(" — daemon `{name}`"),
            None => String::new(),
        },
        if s.draining { " (draining)" } else { "" }
    );
    println!(
        "  jobs: {} served, {} active, {} queued (capacity {}), {} timed out",
        s.jobs_served, s.jobs_active, s.queue_depth, s.queue_capacity, s.timed_out
    );
    println!("  scan workers: {} live", s.scan_workers);
    if let Some(set) = &s.detectors {
        println!("  detectors: {set}");
    }
    print_reactor(s.reactor.as_ref());
    for (name, cache) in [
        ("class cache   ", &s.class_cache),
        ("artifact cache", &s.artifact_cache),
        ("scan cache    ", &s.scan_cache),
    ] {
        if let Some(c) = cache {
            println!(
                "  {name}: {} hits / {} misses ({:.1}% hit rate, {} entries)",
                c.hits,
                c.misses,
                c.hit_rate * 100.0,
                c.entries
            );
        }
    }
    print_frozen(s.frozen.as_ref());
}

/// Renders the event-loop state (shared by `status` and `metrics`):
/// live connection/in-flight gauges plus lifetime backpressure
/// counters.
fn print_reactor(reactor: Option<&saint_service::ReactorStatus>) {
    let Some(r) = reactor else {
        return;
    };
    println!(
        "  reactor: {} connections open ({} suspended), {} scans in flight; lifetime: {} accepted, {} backpressure suspends, {} write stalls",
        r.open_connections,
        r.suspended_connections,
        r.inflight,
        r.connections_accepted,
        r.backpressure_suspends,
        r.write_stalls
    );
}

/// Renders frozen-boot provenance (shared by `status` and `metrics`).
fn print_frozen(frozen: Option<&saint_service::FrozenStatus>) {
    let Some(f) = frozen else {
        println!("  frozen: false (framework parsed at startup)");
        return;
    };
    println!(
        "  frozen: true — image {} ({}), startup {:.3}s, {} bytes mapped{}, {} classes preloaded",
        f.image,
        if f.cached {
            "cached"
        } else {
            "compiled this boot"
        },
        f.startup_secs,
        f.bytes_mapped,
        if f.page_mapped {
            ""
        } else {
            " (owned-buffer fallback)"
        },
        f.classes_preloaded
    );
}

fn metrics(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let addr = string_flag(args, "--addr").unwrap_or(DEFAULT_ADDR);
    let mut client =
        Client::connect(addr).map_err(|e| format!("cannot reach scan service at {addr}: {e}"))?;
    let m = client.metrics()?;
    println!("scan service at {addr}: metrics");
    println!("  phases (count / total):");
    for p in &m.phases {
        if p.count == 0 {
            continue;
        }
        println!(
            "    {:<20} {:>8} spans  {:>10.3}s",
            p.name,
            p.count,
            p.total_ns as f64 / 1e9
        );
    }
    println!("  counters:");
    for c in &m.counters {
        println!("    {:<28} {}", c.name, c.value);
    }
    for (name, cache) in [
        ("class cache   ", &m.class_cache),
        ("artifact cache", &m.artifact_cache),
        ("scan cache    ", &m.scan_cache),
    ] {
        if let Some(c) = cache {
            println!(
                "  {name}: {} lookups, {} hits ({:.1}% hit rate, {} entries)",
                c.lookups,
                c.hits,
                c.hit_rate * 100.0,
                c.entries
            );
        }
    }
    if let Some(q) = &m.queue {
        println!(
            "  queue: {} deep (capacity {}), {} active, {} served, {} timed out",
            q.depth, q.capacity, q.active, q.served, q.timed_out
        );
    }
    print_reactor(m.reactor.as_ref());
    print_frozen(m.frozen.as_ref());
    Ok(ExitCode::SUCCESS)
}

fn shutdown(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let addr = string_flag(args, "--addr").unwrap_or(DEFAULT_ADDR);
    let mut client =
        Client::connect(addr).map_err(|e| format!("cannot reach scan service at {addr}: {e}"))?;
    let s = client.shutdown()?;
    println!("scan service at {addr} draining; final counters:");
    print_status(addr, &s);
    Ok(ExitCode::SUCCESS)
}

fn synth_pkg(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let out_path = *positionals(args)
        .first()
        .ok_or("synth-pkg: missing <out.sapk>")?;
    let index = flag_value(args, "--index").unwrap_or(0);
    let mut cfg = saint_corpus::RealWorldConfig::small();
    cfg.apps = index + 1;
    let corpus = saint_corpus::RealWorldCorpus::new(cfg);
    let apk = corpus.get(index).apk;
    std::fs::write(out_path, codec::encode_apk(&apk))?;
    println!(
        "wrote synthesized package {} to {out_path}",
        apk.manifest.package
    );
    Ok(ExitCode::SUCCESS)
}

/// `synth-lineage <out-dir>`: write a synthesized app-update lineage
/// (`v0.sapk` … `vN.sapk`) with controlled churn between versions — the
/// input `scan --history` and the CI incremental smoke consume.
fn synth_lineage(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let out_dir = *positionals(args)
        .first()
        .ok_or("synth-lineage: missing <out-dir>")?;
    let mut cfg = saint_corpus::LineageConfig::small();
    if let Some(versions) = flag_value(args, "--versions") {
        cfg.versions = versions.max(2);
        // Keep the canonical shape on shorter lineages: the issue is
        // introduced at v1 and fixed in the newest version.
        cfg.introduce_at = Some(1);
        cfg.fix_at = (cfg.versions > 2).then(|| cfg.versions - 1);
    }
    if let Some(pct) = flag_value(args, "--churn-pct") {
        cfg.churn = f64::from(u32::try_from(pct.min(100)).unwrap_or(100)) / 100.0;
    }
    if let Some(seed) = flag_value(args, "--seed") {
        cfg.seed = seed as u64;
    }
    std::fs::create_dir_all(out_dir)?;
    let lineage = saint_corpus::generate_lineage(&cfg);
    for (label, apk) in &lineage {
        let path = std::path::Path::new(out_dir).join(format!("{label}.sapk"));
        std::fs::write(&path, codec::encode_apk(apk))?;
    }
    println!(
        "wrote {}-version lineage of {} to {out_dir}/ ({:.0}% churn per version)",
        lineage.len(),
        lineage
            .first()
            .map_or("?", |(_, apk)| apk.manifest.package.as_str()),
        cfg.churn * 100.0
    );
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------
// Frozen-artifact verbs
// ---------------------------------------------------------------------

fn compile_db(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let out_path = *positionals(args)
        .first()
        .ok_or("compile-db: missing <out.sfrz>")?;
    let fw = framework(args);
    let bytes = saint_frozen::freeze_framework(&fw);
    if let Some(parent) = std::path::Path::new(out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(out_path, &bytes)?;
    // Attach what we just wrote: proves the image is readable and
    // reports the class count out of the image itself.
    let frozen = saint_frozen::FrozenFramework::open(std::path::Path::new(out_path))
        .map_err(|e| format!("compiled image failed to attach: {e}"))?;
    println!(
        "wrote frozen framework image to {out_path}: {} bytes, {} class entries, fingerprint {:016x}",
        bytes.len(),
        frozen.class_entry_count(),
        frozen.fingerprint()
    );
    Ok(ExitCode::SUCCESS)
}

fn compile_corpus(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let out_path = string_flag(args, "-o").ok_or("compile-corpus: missing -o <out.sfrz>")?;
    let paths = positionals(args);
    let image = if let Some(apps) = flag_value(args, "--synth-corpus") {
        if !paths.is_empty() {
            return Err("compile-corpus: give either <app.sapk> files or --synth-corpus N".into());
        }
        let mut cfg = saint_corpus::RealWorldConfig::small();
        cfg.apps = apps;
        let corpus = saint_corpus::RealWorldCorpus::new(cfg);
        let apks: Vec<Apk> = (0..apps).map(|i| corpus.get(i).apk).collect();
        saint_frozen::freeze_apks(&apks)
    } else {
        if paths.is_empty() {
            return Err("compile-corpus: missing <app.sapk> (or --synth-corpus N)".into());
        }
        // The image stores the exact container bytes: workers later
        // decode the same bytes they would have read from each file.
        let mut packages: Vec<(String, Vec<u8>)> = Vec::with_capacity(paths.len());
        for path in paths {
            let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let apk = codec::decode_apk(&bytes).map_err(|e| format!("{path}: {e}"))?;
            packages.push((apk.manifest.package.clone(), bytes));
        }
        saint_frozen::freeze_corpus(packages.iter().map(|(p, b)| (p.as_str(), b.as_slice())))
    };
    if let Some(parent) = std::path::Path::new(out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(out_path, &image)?;
    let corpus = saint_frozen::FrozenCorpus::open(std::path::Path::new(out_path))
        .map_err(|e| format!("compiled image failed to attach: {e}"))?;
    println!(
        "wrote frozen corpus image to {out_path}: {} packages, {} bytes",
        corpus.len(),
        image.len()
    );
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positionals_skip_flag_values_everywhere() {
        // The historical bug: `verify --synth 100 app.sapk` parsed
        // `--synth` as the package path because the verb used
        // `args.first()`.
        let a = args(&["--synth", "100", "app.sapk"]);
        assert_eq!(positionals(&a), [&"app.sapk".to_string()]);
        assert_eq!(sole_package(&a, "verify").unwrap(), "app.sapk");

        // Flags after the positional are equally fine.
        let a = args(&["app.sapk", "--jobs", "4"]);
        assert_eq!(sole_package(&a, "callgraph").unwrap(), "app.sapk");

        // Every value-taking flag is skipped with its value.
        let a = args(&[
            "--addr",
            "127.0.0.1:9999",
            "a.sapk",
            "--timeout-ms",
            "500",
            "b.sapk",
            "--queue-depth",
            "8",
        ]);
        assert_eq!(
            positionals(&a),
            [&"a.sapk".to_string(), &"b.sapk".to_string()]
        );
    }

    #[test]
    fn repair_output_flag_is_not_a_positional() {
        let a = args(&["broken.sapk", "-o", "fixed.sapk", "--manifest-fixes"]);
        assert_eq!(sole_package(&a, "repair").unwrap(), "broken.sapk");
        assert_eq!(string_flag(&a, "-o"), Some("fixed.sapk"));
        // Flag order must not matter either.
        let a = args(&["-o", "fixed.sapk", "broken.sapk"]);
        assert_eq!(sole_package(&a, "repair").unwrap(), "broken.sapk");
    }

    #[test]
    fn missing_package_is_reported_per_verb() {
        let a = args(&["--synth", "100"]);
        assert_eq!(
            sole_package(&a, "disasm").unwrap_err(),
            "disasm: missing <app.sapk>"
        );
    }

    #[test]
    fn value_flags_parse_numbers_and_strings() {
        let a = args(&["serve", "--listen", "127.0.0.1:0", "--jobs", "3"]);
        assert_eq!(string_flag(&a, "--listen"), Some("127.0.0.1:0"));
        assert_eq!(flag_value(&a, "--jobs"), Some(3));
        assert_eq!(flag_value(&a, "--queue-depth"), None);
        assert_eq!(string_flag(&a, "--addr"), None);
    }

    #[test]
    fn exit_code_contract_over_reports() {
        let clean = saintdroid::Report::new("p.clean", "saintdroid");
        assert_eq!(
            scan_exit_code(std::slice::from_ref(&clean)),
            ExitCode::SUCCESS
        );
        assert_eq!(scan_exit_code(&[]), ExitCode::SUCCESS);
        let mut dirty = saintdroid::Report::new("p.dirty", "saintdroid");
        dirty.extend_deduped([saintdroid::Mismatch {
            kind: saintdroid::MismatchKind::ApiInvocation,
            site: saint_ir::MethodRef::new("p.C", "m", "()V"),
            api: saint_ir::MethodRef::new("android.x.Y", "api", "()V"),
            api_life: None,
            missing_levels: vec![saint_ir::ApiLevel::new(21)],
            context: None,
            permission: None,
            via: Vec::new(),
        }]);
        assert_eq!(scan_exit_code(&[clean, dirty]), ExitCode::from(2));
    }

    #[test]
    fn engine_for_keeps_the_batch_caches_with_detectors() {
        use saintdroid::DetectorSet;
        let fw = Arc::new(AndroidFramework::with_scale(&SynthConfig::small()));
        let dir = std::env::temp_dir().join(format!("saint-cli-engine-{}", std::process::id()));
        let image = dir.join("framework.sfrz");
        let image_flags = ["--detectors", "all", "--frozen-db", image.to_str().unwrap()];
        // (flags, detector set, app jobs, built as a daemon engine)
        for (flags, set, app_jobs, daemon) in [
            (&[][..], DetectorSet::amd(), None, false),
            (&["--detectors", "all"][..], DetectorSet::all(), None, false),
            (
                &["--detectors", "all", "--app-jobs", "2"][..],
                DetectorSet::all(),
                Some(2),
                false,
            ),
            (&image_flags[..], DetectorSet::all(), None, true),
        ] {
            let engine = if daemon {
                daemon_engine(&fw, &args(flags), "test").unwrap()
            } else {
                engine_for(Arc::clone(&fw), &args(flags)).unwrap()
            };
            assert_eq!(engine.tool().detectors(), set, "{flags:?}");
            assert_eq!(engine.app_job_count(), app_jobs, "{flags:?}");
            assert!(engine.cache_stats().is_some(), "{flags:?}: class cache");
            assert!(
                engine.artifact_cache_stats().is_some(),
                "{flags:?}: artifact cache"
            );
            assert!(engine.scan_cache_stats().is_some(), "{flags:?}: scan cache");
            let boot = engine.frozen_boot();
            assert_eq!(boot.is_some(), daemon, "{flags:?}: frozen boot");
            if let Some(boot) = boot {
                assert_eq!(boot.image, image);
                assert!(boot.classes_preloaded > 0, "prewarm preloads the image");
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn unknown_and_retired_flags_are_rejected_by_name() {
        for (verb, flag) in [
            ("serve", "--frozen-trust"),
            ("serve", "--no-frozen"),
            ("scan", "--bogus"),
        ] {
            let err = run(&args(&[verb, flag])).unwrap_err().to_string();
            assert!(err.contains(&format!("`{flag}`")), "{verb} {flag}: {err}");
        }
        for flag in BOOL_FLAGS {
            assert_eq!(check_flags(&args(&[flag, "app.sapk"])), Ok(()), "{flag}");
        }
        for flag in VALUE_FLAGS {
            // A flag value may itself look like a flag.
            assert_eq!(check_flags(&args(&[flag, "-1"])), Ok(()), "{flag}");
        }
    }
}
