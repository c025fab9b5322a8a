//! Declared-SDK verdicts through the incremental layer.
//!
//! Two properties gate the fourth detector family's delta plumbing:
//!
//! 1. **Parity** — a DSD-enabled scan served by the delta store (cold
//!    splice, warm replay, and both ends of the `app_jobs` range) is
//!    byte-identical to the monolithic pipeline.
//! 2. **Key discipline** — a store populated by an AMD-only tool is a
//!    *miss* for a DSD-enabled tool (and vice versa): the detector set
//!    is folded into every content key, so enabling a family can never
//!    splice a cached report that silently lacks its findings.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use saint_adf::{well_known, AndroidFramework};
use saint_delta::DeltaScanner;
use saint_ir::{ApiLevel, Apk, ApkBuilder, ClassBuilder, ClassOrigin};
use saintdroid::{DetectorSet, MismatchKind, SaintDroid};

fn fresh_store_dir() -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "saint-dsd-delta-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// min 21, an unguarded call to an API introduced at 23: one DSD
/// overuse finding on a curated framework model.
fn overusing_apk() -> Apk {
    let main = ClassBuilder::new("p.Main", ClassOrigin::App)
        .extends("android.app.Activity")
        .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
            b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
            b.ret_void();
        })
        .unwrap()
        .build();
    ApkBuilder::new("p.dsd", ApiLevel::new(21), ApiLevel::new(28))
        .activity("p.Main")
        .class(main)
        .unwrap()
        .build()
}

fn canon(report: &saintdroid::Report) -> String {
    let mut r = report.clone();
    r.duration = std::time::Duration::ZERO;
    serde_json::to_string(&r).expect("serialize report")
}

#[test]
fn dsd_reports_are_byte_identical_through_the_delta_store() {
    let apk = overusing_apk();
    let tool =
        SaintDroid::new(Arc::new(AndroidFramework::curated())).with_detectors(DetectorSet::all());

    let sapk = saint_ir::codec::encode_apk(&apk);
    for app_jobs in [1usize, 8] {
        let dir = fresh_store_dir();
        let scanner = DeltaScanner::new(&dir);
        let full = tool.run_with_jobs(&apk, app_jobs);
        assert!(
            full.count(MismatchKind::DsdOveruse) > 0,
            "fixture must actually trip the DSD family"
        );

        let (cold, cold_stats) = scanner.scan_encoded(&tool, &sapk, &apk, app_jobs);
        assert!(!cold_stats.app_hit);
        assert_eq!(canon(&full), canon(&cold), "cold splice diverged");

        let (warm, warm_stats) = scanner.scan_encoded(&tool, &sapk, &apk, app_jobs);
        assert!(warm_stats.app_hit, "unchanged rescan must replay");
        assert_eq!(canon(&full), canon(&warm), "warm replay diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn amd_populated_store_is_a_miss_for_a_dsd_tool() {
    let apk = overusing_apk();
    let framework = Arc::new(AndroidFramework::curated());
    let amd = SaintDroid::new(Arc::clone(&framework));
    let dsd = SaintDroid::new(framework).with_detectors(DetectorSet::all());
    let sapk = saint_ir::codec::encode_apk(&apk);

    let dir = fresh_store_dir();
    let scanner = DeltaScanner::new(&dir);

    // Populate every artifact tier under the three-family keyspace.
    let (amd_report, _) = scanner.scan_encoded(&amd, &sapk, &apk, 1);
    let (_, amd_warm) = scanner.scan_encoded(&amd, &sapk, &apk, 1);
    assert!(amd_warm.app_hit, "the AMD keyspace must be warm");
    assert_eq!(amd_report.count(MismatchKind::DsdOveruse), 0);

    // The four-family tool must not replay any of it: the detector set
    // is part of the context fingerprint, so the app key *and* every
    // group key miss, and the fresh report carries the DSD findings a
    // spliced pre-DSD artifact would have dropped.
    let (dsd_report, dsd_stats) = scanner.scan_encoded(&dsd, &sapk, &apk, 1);
    assert!(!dsd_stats.app_hit, "AMD app artifact must not replay");
    assert_eq!(dsd_stats.hits, 0, "AMD group artifacts must not splice");
    assert_eq!(dsd_stats.reanalyzed, dsd_stats.classes_seen);
    assert!(
        dsd_report.count(MismatchKind::DsdOveruse) > 0,
        "the rescan must surface the previously-disabled family"
    );
    assert_eq!(canon(&dsd_report), canon(&dsd.run_with_jobs(&apk, 1)));

    // Both keyspaces coexist: the AMD tool still replays its own.
    let (_, amd_again) = scanner.scan_encoded(&amd, &sapk, &apk, 1);
    assert!(
        amd_again.app_hit,
        "the AMD artifacts must survive untouched"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
