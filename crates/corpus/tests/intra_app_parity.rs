//! Intra-app parallelism parity: a report produced with `app_jobs > 1`
//! (shared-CLVM parallel exploration, concurrent detectors, parallel
//! framework-subtree scans) must be byte-identical to the sequential
//! run — mismatches, their order, and the per-app meter. The worker
//! count may only change *when* work happens, never what is found.
//!
//! The sequential run is itself checked against a second reference
//! composed here from the four flat detectors and the CLVM's own meter,
//! which shares no code with `SaintDroid::assemble`.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use saint_adf::{AndroidFramework, SynthConfig};
use saint_corpus::{cider_bench, RealWorldConfig, RealWorldCorpus};
use saint_ir::Apk;
use saintdroid::{amd, CompatDetector, DetectorSet, Report, SaintDroid};

fn curated() -> Arc<AndroidFramework> {
    static FW: OnceLock<Arc<AndroidFramework>> = OnceLock::new();
    Arc::clone(FW.get_or_init(|| Arc::new(AndroidFramework::curated())))
}

fn synth_small() -> Arc<AndroidFramework> {
    static FW: OnceLock<Arc<AndroidFramework>> = OnceLock::new();
    Arc::clone(FW.get_or_init(|| Arc::new(AndroidFramework::with_scale(&SynthConfig::small()))))
}

/// The report's observable bytes: everything the parity suites
/// fingerprint (package, the full mismatch list in order, the meter),
/// serialized so any divergence — order included — changes the string.
fn fingerprint(report: &Report) -> String {
    format!(
        "{}|{}|{}|{}",
        report.package,
        serde_json::to_string(&report.mismatches).expect("mismatches serialize"),
        report.meter.total_bytes(),
        report.meter.classes_loaded,
    )
}

/// The report the flat detectors produce over one sequential model, in
/// the fixed invocation → callback → permission → declared-SDK order,
/// with the CLVM's meter taken as-is.
fn flat_reference(tool: &SaintDroid, apk: &Apk) -> Report {
    let model = tool.model_with(apk, 1);
    let (db, pm) = (tool.arm().database(), tool.arm().permission_map());
    let cache = amd::invocation::DeepScanCache::new();
    let d = tool.detectors();
    let mut report = Report::new(apk.manifest.package.clone(), tool.name());
    if d.contains(DetectorSet::INVOCATION) {
        report.extend_deduped(amd::invocation::detect_parallel(&model, &db, &cache, 1));
    }
    if d.contains(DetectorSet::CALLBACK) {
        report.extend_deduped(amd::callback::detect(&model, &db));
    }
    if d.contains(DetectorSet::PERMISSION) {
        report.extend_deduped(amd::permission::detect(&model, &pm));
    }
    if d.contains(DetectorSet::DECLARED_SDK) {
        report.extend_deduped(amd::declared_sdk::detect(&model, &db));
    }
    report.meter = model.clvm.meter();
    report
}

fn assert_parity_at(fw: &Arc<AndroidFramework>, apk: &Apk, jobs_list: &[usize]) {
    for set in [DetectorSet::amd(), DetectorSet::all()] {
        let tool = || SaintDroid::new(Arc::clone(fw)).with_detectors(set);
        let sequential = tool().run(apk);
        let flat = flat_reference(&tool(), apk);
        assert_eq!(
            fingerprint(&flat),
            fingerprint(&sequential),
            "{}: {set:?} run differs from the flat-detector reference",
            sequential.package
        );
        assert_eq!(flat.meter, sequential.meter);
        for &jobs in jobs_list {
            let parallel = tool().run_with_jobs(apk, jobs);
            assert_eq!(
                fingerprint(&sequential),
                fingerprint(&parallel),
                "{}: {set:?} app_jobs={jobs} changed the report",
                sequential.package
            );
            assert_eq!(sequential.meter, parallel.meter);
        }
    }
}

#[test]
fn cider_bench_intra_app_parity() {
    let fw = curated();
    for app in cider_bench() {
        assert_parity_at(&fw, &app.apk, &[1, 2, 8]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generated_apps_intra_app_parity(
        seed in 0u64..1_000_000,
        index in 0usize..24,
    ) {
        let cfg = RealWorldConfig {
            apps: 24,
            seed,
            ..RealWorldConfig::small()
        };
        let corpus = RealWorldCorpus::new(cfg);
        let apk = corpus.get(index).apk;
        assert_parity_at(&synth_small(), &apk, &[1, 2, 8]);
    }
}
