//! Panic isolation end-to-end at the engine boundary: injected faults
//! in every pipeline phase are demoted to typed `ScanError::Internal`
//! entries with the right phase attribution, the engine keeps serving
//! afterwards with byte-identical reports, and a batch with one
//! poisoned scan still yields one report per input.
//!
//! Fault-injection state is process-global, so everything lives in one
//! `#[test]` function — cargo runs test *functions* of one binary
//! concurrently, but separate integration-test binaries are separate
//! processes and cannot interfere.

use std::sync::Arc;

use saint_adf::{well_known, AndroidFramework};
use saint_faults::FaultPoint;
use saint_ir::{ApiLevel, Apk, ApkBuilder, ClassBuilder, ClassOrigin};
use saint_obs::Counter;
use saintdroid::{DetectorSet, Family, Report, SaintDroid, ScanEngine, ScanError};

fn app() -> Apk {
    let main = ClassBuilder::new("com.x.Main", ClassOrigin::App)
        .extends("android.app.Activity")
        .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
            b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
            b.ret_void();
        })
        .expect("valid method")
        .build();
    ApkBuilder::new("com.x", ApiLevel::new(21), ApiLevel::new(28))
        .activity("com.x.Main")
        .class(main)
        .expect("valid class")
        .build()
}

fn engine(app_jobs: usize) -> ScanEngine {
    ScanEngine::new(Arc::new(AndroidFramework::curated()))
        .app_jobs(app_jobs)
        .ensure_metrics()
}

/// An engine running every detector family, DSD included.
fn all_families_engine(app_jobs: usize) -> ScanEngine {
    let tool =
        SaintDroid::new(Arc::new(AndroidFramework::curated())).with_detectors(DetectorSet::all());
    ScanEngine::from_tool(tool)
        .app_jobs(app_jobs)
        .ensure_metrics()
}

/// Mismatches + meter must match; timing fields naturally differ.
fn assert_same_findings(a: &Report, b: &Report) {
    assert_eq!(a.mismatches, b.mismatches);
    assert_eq!(a.meter, b.meter);
    assert!(!a.has_errors() && !b.has_errors());
}

fn panicked(engine: &ScanEngine) -> u64 {
    engine
        .metrics()
        .expect("ensure_metrics attached a registry")
        .counter(Counter::ScansPanicked)
}

#[test]
fn injected_faults_are_isolated_attributed_and_recoverable() {
    saint_faults::reset();
    let apk = app();

    // Sequential engine: detectors run inline, so the thread-local
    // phase marker does the attribution.
    let seq = engine(1);
    let baseline = seq.try_scan_one(&apk).expect("fault-free scan succeeds");
    assert!(!baseline.is_clean(), "the fixture app has a real mismatch");

    for (point, phase) in [
        (FaultPoint::Explore, "explore"),
        (FaultPoint::DetectInvocation, "detect_invocation"),
        (FaultPoint::DetectCallback, "detect_callback"),
        (FaultPoint::DetectPermission, "detect_permission"),
    ] {
        let before = panicked(&seq);
        saint_faults::arm(point, 1);
        let err = seq
            .try_scan_one(&apk)
            .expect_err("armed scan reports the injected panic");
        assert_eq!(err.phase(), phase, "wrong attribution for {point:?}");
        assert!(err.to_string().contains("injected panic"));
        assert_eq!(panicked(&seq), before + 1);
        // Recovery: the very next scan is clean and identical.
        let again = seq.try_scan_one(&apk).expect("engine recovered");
        assert_same_findings(&baseline, &again);
    }

    // Parallel engine: the callback detector panics on a scoped worker
    // thread (attribution crosses the join as a PhasePanic), and an
    // exploration-task panic is contained by the pool without wedging
    // its peers.
    let par = engine(8);
    let par_baseline = par.try_scan_one(&apk).expect("fault-free scan succeeds");
    assert_same_findings(&baseline, &par_baseline);
    for (point, phase) in [
        (FaultPoint::DetectCallback, "detect_callback"),
        (FaultPoint::ExploreTask, "explore"),
    ] {
        saint_faults::arm(point, 1);
        let err = par.try_scan_one(&apk).expect_err("injected panic surfaces");
        assert_eq!(err.phase(), phase, "wrong attribution for {point:?}");
        let again = par.try_scan_one(&apk).expect("engine recovered");
        assert_same_findings(&baseline, &again);
    }

    // scan_one folds the failure into an error-only report instead.
    saint_faults::arm(FaultPoint::DetectInvocation, 1);
    let folded = seq.scan_one(&apk);
    assert!(folded.has_errors());
    assert_eq!(folded.package, "com.x");
    assert_eq!(folded.errors.len(), 1);
    assert!(matches!(
        &folded.errors[0],
        ScanError::Internal { phase, .. } if phase == "detect_invocation"
    ));
    assert!(folded.to_string().contains("ERROR"));

    // A batch with one poisoned scan still returns one report per
    // input; exactly one carries the error, the rest are untouched.
    let before = panicked(&seq);
    saint_faults::arm(FaultPoint::DetectPermission, 1);
    let batch = seq.scan_batch(&[apk.clone(), apk.clone(), apk.clone()]);
    assert_eq!(batch.len(), 3);
    let errored = batch.iter().filter(|r| r.has_errors()).count();
    assert_eq!(errored, 1, "exactly one scan absorbed the fault");
    assert_eq!(panicked(&seq), before + 1);
    for report in batch.iter().filter(|r| !r.has_errors()) {
        assert_same_findings(&baseline, report);
    }

    // The DSD detector's point: the default `amd` engine never runs
    // that detector, so the armed point never trips there...
    saint_faults::arm(FaultPoint::DetectDeclaredSdk, 1);
    let amd_scan = seq
        .try_scan_one(&apk)
        .expect("amd scans skip the DSD point");
    assert_same_findings(&baseline, &amd_scan);
    assert_eq!(saint_faults::remaining(FaultPoint::DetectDeclaredSdk), 1);
    saint_faults::reset();
    // ...while an engine running every family attributes it to the DSD
    // phase, inline at app_jobs 1 and across the worker join at 8.
    for app_jobs in [1, 8] {
        let all = all_families_engine(app_jobs);
        let all_baseline = all.try_scan_one(&apk).expect("fault-free scan succeeds");
        assert!(all_baseline.family_count(Family::Dsd) > 0, "{all_baseline}");
        saint_faults::arm(FaultPoint::DetectDeclaredSdk, 1);
        let err = all
            .try_scan_one(&apk)
            .expect_err("armed DSD scan reports the injected panic");
        assert_eq!(err.phase(), "detect_declared_sdk", "app_jobs {app_jobs}");
        assert!(err
            .to_string()
            .contains("injected panic at detect_declared_sdk"));
        assert_eq!(panicked(&all), 1);
        let again = all.try_scan_one(&apk).expect("engine recovered");
        assert_same_findings(&all_baseline, &again);
    }

    assert_eq!(saint_faults::remaining(FaultPoint::Explore), 0);
    saint_faults::reset();
}
