//! End-to-end smoke test: every workload and its traced run at the
//! smoke scale, through the benchmark command itself.

use std::path::Path;
use std::process::Command;

use saintbench::bench::load;
use saintbench::spec::contract;
use saintbench::workload::Workload;

#[test]
fn workload_names_match_the_contract() {
    let names: Vec<&str> = contract()
        .workloads
        .iter()
        .map(|w| w.name.as_str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn smoke_scale_emits_every_metric_with_clean_verdicts() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository");
    let out = root.join("target/saintbench/smoke-test/result.json");
    let status = Command::new(env!("CARGO_BIN_EXE_saintbench"))
        .current_dir(root)
        .args([
            "--seed",
            "4242",
            "--scale",
            "smoke",
            "--reps",
            "1",
            "--seconds",
            "1",
        ])
        .arg("--out")
        .arg(&out)
        .status()
        .expect("saintbench runs");
    assert!(status.success(), "smoke benchmark failed: {status}");
    let result = load(&out).expect("result file parses");
    let c = contract();
    for w in &c.workloads {
        for m in &c.end_to_end {
            assert!(
                result
                    .bands
                    .iter()
                    .any(|b| b.workload == w.name && b.metric == m.name),
                "{} misses end-to-end metric {}",
                w.name,
                m.name
            );
        }
        let traced = result
            .runs
            .iter()
            .find(|r| r.workload == w.name && r.trace)
            .unwrap_or_else(|| panic!("{} has no traced run", w.name));
        for m in &c.per_layer {
            assert!(
                traced.metric(&m.name).is_some(),
                "{} misses per-layer metric {}",
                w.name,
                m.name
            );
        }
        let ledger = traced.ledger.as_ref().expect("traced runs carry a ledger");
        assert!(!ledger.rows.is_empty());
        assert!(
            ledger.residual_pct.abs() <= 5.0,
            "{} ledger leaves {:.1}% unattributed",
            w.name,
            ledger.residual_pct
        );
        assert!(root.join(&ledger.chrome_trace).exists());
    }
    for run in &result.runs {
        assert_eq!(run.failed, 0, "{} run failed scans", run.workload);
        assert_eq!(run.failed_pct, 0.0);
        assert!(run.correct, "{} run is not correct", run.workload);
    }
}
