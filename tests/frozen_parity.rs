//! Acceptance gate for the frozen artifact layer: scanning a corpus
//! straight out of frozen images must produce **byte-identical**
//! reports to the classic parse path — same packages, same mismatches,
//! same meters, byte-for-byte equal JSON — at both ends of the
//! intra-app parallelism range (`app_jobs ∈ {1, 8}`). Two frozen legs
//! run against the parsed batch, neither prewarmed, so every class body
//! a scan touches is decoded lazily out of the mapping:
//!
//! - *image alone*: the image is installed into a framework with an
//!   **empty** spec (database, permission map and class source all come
//!   from the image), so no spec fallback can mask a class the image
//!   lacks;
//! - *production*: [`ScanEngine::attach_frozen`] over the matching
//!   spec, the verified attach every daemon boots through.
//!
//! If either leg changed a single report byte, this test is where it
//! surfaces.

use std::sync::{Arc, OnceLock};

use saint_adf::{AndroidFramework, FrameworkSpec, SynthConfig};
use saint_corpus::{RealWorldConfig, RealWorldCorpus};
use saint_frozen::{
    freeze_apks, freeze_framework, FrozenClassSource, FrozenCorpus, FrozenFramework,
};
use saint_ir::Apk;
use saintdroid::ScanEngine;

/// The full 400-app acceptance corpus in release builds; debug builds
/// (tier-1 `cargo test`) scan a 24-app slice of the same generator so
/// the gate stays fast without changing what it checks.
fn configs() -> (SynthConfig, RealWorldConfig) {
    if cfg!(debug_assertions) {
        let mut corpus = RealWorldConfig::small();
        corpus.apps = 24;
        (SynthConfig::small(), corpus)
    } else {
        (SynthConfig::medium(), RealWorldConfig::medium())
    }
}

/// Corpus apks plus both frozen images, built once across test cases.
fn artifacts() -> &'static (Vec<Apk>, Vec<u8>, Vec<u8>) {
    static ONCE: OnceLock<(Vec<Apk>, Vec<u8>, Vec<u8>)> = OnceLock::new();
    ONCE.get_or_init(|| {
        let (synth, corpus_cfg) = configs();
        let corpus = RealWorldCorpus::new(corpus_cfg);
        let apks: Vec<Apk> = (0..corpus.len()).map(|i| corpus.get(i).apk).collect();
        let corpus_image = freeze_apks(&apks);
        let framework_image = freeze_framework(&AndroidFramework::with_scale(&synth));
        (apks, framework_image, corpus_image)
    })
}

#[test]
fn frozen_scan_reports_are_byte_identical_to_parsed() {
    let (apks, framework_image, corpus_image) = artifacts();
    let (synth, _) = configs();
    let image_path =
        std::env::temp_dir().join(format!("saint-parity-fw-{}.sfrz", std::process::id()));
    std::fs::write(&image_path, framework_image).expect("write framework image");
    let corpus = FrozenCorpus::from_bytes(corpus_image.clone()).expect("attach corpus image");

    for app_jobs in [1usize, 8] {
        let parsed_engine = ScanEngine::new(Arc::new(AndroidFramework::with_scale(&synth)))
            .jobs(4)
            .app_jobs(app_jobs);
        parsed_engine.prewarm();
        let parsed = parsed_engine.scan_batch(apks);

        // Image alone: an empty-spec framework that knows only what
        // the image holds.
        let frozen = Arc::new(FrozenFramework::open(&image_path).expect("attach framework image"));
        let bare = Arc::new(AndroidFramework::from_spec(FrameworkSpec::new()));
        bare.seed_database(Arc::new(frozen.database().expect("image database")));
        bare.seed_permission_map(Arc::new(
            frozen.permission_map().expect("image permissions"),
        ));
        bare.install_class_source(Arc::new(FrozenClassSource::new(frozen)));
        let image_alone = ScanEngine::new(bare).jobs(4).app_jobs(app_jobs);

        // Production: the verified attach over the matching spec.
        let production = ScanEngine::new(Arc::new(AndroidFramework::with_scale(&synth)))
            .jobs(4)
            .app_jobs(app_jobs);
        let boot = production
            .attach_frozen(&image_path)
            .expect("verified attach");
        assert!(
            boot.attached,
            "the image matches the spec, so nothing recompiles"
        );

        for (leg, engine) in [("image alone", image_alone), ("production", production)] {
            let frozen = engine.scan_frozen_batch(&corpus);
            assert_eq!(
                parsed.len(),
                frozen.len(),
                "report count ({leg}, app_jobs={app_jobs})"
            );
            for (p, f) in parsed.iter().zip(&frozen) {
                // Wall time is the one legitimately nondeterministic
                // field; everything else must match to the byte.
                let mut p = p.clone();
                let mut f = f.clone();
                p.duration = std::time::Duration::ZERO;
                f.duration = std::time::Duration::ZERO;
                let pj = serde_json::to_string(&p).expect("serialize parsed report");
                let fj = serde_json::to_string(&f).expect("serialize frozen report");
                assert_eq!(
                    pj, fj,
                    "report for {} diverged between parsed and frozen scan ({leg}, app_jobs={app_jobs})",
                    p.package
                );
            }
        }
    }
    let _ = std::fs::remove_file(&image_path);
}
