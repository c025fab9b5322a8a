//! Differential-correctness gate for the incremental scan layer: over
//! random app lineages — random churn, random introduce/fix events,
//! random version counts — scanning each version *incrementally*
//! (splicing cached per-group artifacts from prior versions) must
//! produce **byte-identical** reports to a cold full scan of the same
//! version, at both ends of the intra-app parallelism range
//! (`app_jobs ∈ {1, 8}`). Any divergence between the spliced merge and
//! the monolithic pipeline — root ordering, callback interleaving,
//! permission gate recomputation, meter reconstruction — surfaces here
//! as a JSON byte diff.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use saint_adf::{AndroidFramework, SynthConfig};
use saint_corpus::{generate_lineage, LineageConfig, RealWorldConfig};
use saint_delta::{DeltaScanner, FrameworkDictionary};
use saintdroid::SaintDroid;

/// One framework model shared across cases: synthesis dominates the
/// per-case cost otherwise, and the tool itself is stateless between
/// scans (no scan cache attached).
fn tool() -> &'static SaintDroid {
    static TOOL: OnceLock<SaintDroid> = OnceLock::new();
    TOOL.get_or_init(|| {
        SaintDroid::new(Arc::new(
            AndroidFramework::with_scale(&SynthConfig::small()),
        ))
    })
}

fn fresh_store_dir() -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "saint-incr-parity-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn arb_lineage() -> impl Strategy<Value = LineageConfig> {
    (
        any::<u64>(),
        2usize..=4,
        // Churn percentage — the vendored proptest has no f64 ranges.
        2u32..40,
        0usize..6,
        proptest::option::of(1usize..4),
        proptest::option::of(1usize..4),
    )
        .prop_map(
            |(seed, versions, churn_pct, app_index, introduce_at, fix_at)| {
                let churn = f64::from(churn_pct) / 100.0;
                let mut base = RealWorldConfig::small();
                base.apps = 6;
                LineageConfig {
                    base,
                    app_index,
                    versions,
                    churn,
                    seed,
                    introduce_at: introduce_at.filter(|&v| v < versions),
                    // Only meaningful after an introduce; earlier fixes are
                    // no-ops, which is fine — the generator tolerates them.
                    fix_at: fix_at.filter(|&v| v < versions),
                }
            },
        )
}

/// Canonical report bytes with the one nondeterministic field zeroed.
fn canon(report: &saintdroid::Report) -> String {
    let mut r = report.clone();
    r.duration = std::time::Duration::ZERO;
    serde_json::to_string(&r).expect("serialize report")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn incremental_reports_are_byte_identical_to_full(cfg in arb_lineage()) {
        let lineage = generate_lineage(&cfg);
        let tool = tool();

        for app_jobs in [1usize, 8] {
            let dir = fresh_store_dir();
            let scanner = DeltaScanner::new(&dir);
            let mut hits_across_lineage = 0u64;

            for (label, apk) in &lineage {
                let full = tool.run_with_jobs(apk, app_jobs);
                let sapk = saint_ir::codec::encode_apk(apk);
                let (incremental, stats) = scanner.scan_encoded(tool, &sapk, apk, app_jobs);
                prop_assert_eq!(
                    canon(&full),
                    canon(&incremental),
                    "report for {} {} diverged (app_jobs={})",
                    apk.manifest.package,
                    label,
                    app_jobs
                );
                prop_assert_eq!(
                    stats.hits + stats.misses,
                    stats.classes_seen,
                    "delta counter conservation broke at {}",
                    label
                );
                hits_across_lineage += stats.hits;
            }

            // With bounded churn, rescanning a lineage must actually
            // reuse work — otherwise the layer is a no-op with extra
            // steps. (v1.. always share unchanged groups with v0.)
            prop_assert!(
                hits_across_lineage > 0,
                "no artifact was ever reused across {} versions",
                lineage.len()
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The pre-decode replay: once a version's container bytes have
    /// been scanned, `replay_encoded` answers from the bytes alone with
    /// the report `scan_encoded` replays and a cache-less full scan
    /// produces, and with the same reuse accounting.
    #[test]
    fn undecoded_replays_are_byte_identical_to_decoded_ones(cfg in arb_lineage()) {
        let lineage = generate_lineage(&cfg);
        let tool = tool();

        for app_jobs in [1usize, 8] {
            let dir = fresh_store_dir();
            let scanner = DeltaScanner::new(&dir);
            for (label, apk) in &lineage {
                let sapk = saint_ir::codec::encode_apk(apk);
                prop_assert!(scanner.replay_encoded(tool, &sapk).is_none(),
                    "{} replayed before it was ever scanned", label);
                let full = tool.run_with_jobs(apk, app_jobs);
                let _ = scanner.scan_encoded(tool, &sapk, apk, app_jobs);
                let (decoded, decoded_stats) = scanner.scan_encoded(tool, &sapk, apk, app_jobs);
                let (undecoded, undecoded_stats) = scanner
                    .replay_encoded(tool, &sapk)
                    .expect("scanned bytes replay before decode");
                prop_assert!(decoded_stats.app_hit);
                prop_assert_eq!(undecoded_stats, decoded_stats, "stats diverged at {}", label);
                prop_assert_eq!(canon(&undecoded), canon(&decoded),
                    "undecoded replay of {} diverged from scan_encoded (app_jobs={})",
                    label, app_jobs);
                prop_assert_eq!(canon(&undecoded), canon(&full),
                    "undecoded replay of {} diverged from a full scan (app_jobs={})",
                    label, app_jobs);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The whole-app fast path: scanning the *same* bytes twice must hit
/// the app-level artifact (no per-group work at all) and still replay
/// the identical report.
#[test]
fn unchanged_rescan_takes_the_app_fast_path() {
    let lineage = generate_lineage(&LineageConfig::small());
    let (_, apk) = &lineage[0];
    let tool = tool();
    let dir = fresh_store_dir();
    let scanner = DeltaScanner::new(&dir);

    let sapk = saint_ir::codec::encode_apk(apk);
    let (first, cold) = scanner.scan_encoded(tool, &sapk, apk, 1);
    assert!(!cold.app_hit, "cold scan cannot hit the app artifact");
    let (second, warm) = scanner.scan_encoded(tool, &sapk, apk, 1);
    assert!(
        warm.app_hit,
        "byte-identical rescan must take the fast path"
    );
    assert_eq!(warm.reanalyzed, 0, "fast path must not reanalyze classes");
    assert_eq!(warm.hits, warm.classes_seen);
    assert_eq!(canon(&first), canon(&second));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The byte-keyed fast path: scanning an app alongside its encoded
/// container must replay on identical bytes, degrade to the structural
/// splice on changed bytes, and stay byte-identical to a full scan in
/// both cases. A fresh scanner over the same store also replays —
/// the byte-keyed artifact is persisted, not just memoized.
#[test]
fn encoded_rescan_replays_and_churn_degrades_to_splice() {
    let lineage = generate_lineage(&LineageConfig::small());
    let tool = tool();
    let dir = fresh_store_dir();
    let scanner = DeltaScanner::new(&dir);

    let (_, v0) = &lineage[0];
    let (_, v1) = &lineage[1];
    let sapk0 = saint_ir::codec::encode_apk(v0);
    let sapk1 = saint_ir::codec::encode_apk(v1);

    let (first, cold) = scanner.scan_encoded(tool, &sapk0, v0, 1);
    assert!(!cold.app_hit, "cold byte-keyed scan cannot hit");
    assert_eq!(canon(&first), canon(&tool.run_with_jobs(v0, 1)));

    let (second, warm) = scanner.scan_encoded(tool, &sapk0, v0, 1);
    assert!(warm.app_hit, "identical container bytes must replay");
    assert_eq!(warm.hits, warm.classes_seen);
    assert_eq!(canon(&first), canon(&second));

    // A fresh process over the same store replays from disk.
    let (replayed, fresh) = DeltaScanner::new(&dir).scan_encoded(tool, &sapk0, v0, 1);
    assert!(
        fresh.app_hit,
        "byte-keyed artifact must persist across scanners"
    );
    assert_eq!(canon(&first), canon(&replayed));

    // The next version misses on bytes but splices structurally.
    let (evolved, churned) = scanner.scan_encoded(tool, &sapk1, v1, 1);
    assert!(!churned.app_hit, "changed bytes must not replay");
    assert!(churned.hits > 0, "unchanged groups must still splice");
    assert_eq!(canon(&evolved), canon(&tool.run_with_jobs(v1, 1)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The evolution report over the canned lineage: the injected
/// incompatibility must be attributed to its introduce version and its
/// fix version exactly.
#[test]
fn history_attributes_introduce_and_fix_versions() {
    let cfg = LineageConfig::small();
    let lineage = generate_lineage(&cfg);
    let tool = tool();
    let dir = fresh_store_dir();
    let scanner = DeltaScanner::new(&dir);

    let versions: Vec<_> = lineage
        .iter()
        .map(|(label, apk)| (label.clone(), saint_ir::codec::encode_apk(apk), apk.clone()))
        .collect();
    let evolution = saint_delta::scan_history(&scanner, tool, &versions, 1);
    assert_eq!(evolution.versions.len(), lineage.len());

    let evo_entries: Vec<_> = evolution
        .entries
        .iter()
        .filter(|e| e.key.contains(saint_corpus::EVO_CLASS))
        .collect();
    assert!(
        !evo_entries.is_empty(),
        "the injected mismatch never surfaced in the evolution report"
    );
    for entry in evo_entries {
        assert_eq!(entry.introduced, "v1", "wrong introduce version");
        assert_eq!(entry.fixed.as_deref(), Some("v3"), "wrong fix version");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One store across boot paths: a frozen-booted tool reads its API
/// database out of the framework image instead of mining it, and still
/// builds the same framework dictionary as a spec-built tool over the
/// same framework. So `scan --history` and `serve --frozen-db` share
/// one store: every group a spec-built scan wrote splices into the
/// frozen-booted tool's rescan, byte-identically.
#[test]
fn frozen_booted_tools_share_the_spec_built_store() {
    let image = fresh_store_dir().with_extension("sfrz");
    let synth = SynthConfig::small();
    std::fs::write(
        &image,
        saint_frozen::freeze_framework(&AndroidFramework::with_scale(&synth)),
    )
    .expect("write framework image");
    let engine = saintdroid::ScanEngine::new(Arc::new(AndroidFramework::with_scale(&synth)));
    let boot = engine
        .attach_frozen(&image)
        .expect("attach framework image");
    assert!(
        boot.attached,
        "the database comes from the image, not mining"
    );
    let frozen = engine.tool();
    assert_eq!(
        FrameworkDictionary::new(&tool().arm().database()),
        FrameworkDictionary::new(&frozen.arm().database())
    );

    let (_, apk) = &generate_lineage(&LineageConfig::small())[1];
    let sapk = saint_ir::codec::encode_apk(apk);
    let dir = fresh_store_dir();
    let (spec_report, _) = DeltaScanner::new(&dir).scan_encoded(tool(), &sapk, apk, 1);
    for entry in std::fs::read_dir(&dir).expect("read store dir").flatten() {
        if entry.file_name().to_string_lossy().starts_with("app-") {
            std::fs::remove_file(entry.path()).expect("remove app artifact");
        }
    }
    let (frozen_report, stats) = DeltaScanner::new(&dir).scan_encoded(frozen, &sapk, apk, 1);
    assert!(!stats.app_hit);
    assert_eq!(stats.hits, stats.classes_seen, "every group splices");
    assert_eq!(canon(&frozen_report), canon(&spec_report));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&image);
}
