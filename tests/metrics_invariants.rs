//! Observability invariants: the metrics layer must *observe* the
//! analysis, never perturb it. Over randomly chosen corpus slices and
//! every supported `app_jobs` split:
//!
//! - each cache's `hits + misses == lookups` — no lookup is dropped or
//!   double-counted, under any worker interleaving;
//! - `clvm_load` spans equal class-cache misses — the class cache is
//!   the only framework-class store, so each miss materializes once;
//! - registry counters and phase accumulators are monotone across
//!   scans — the registry is append-only by construction;
//! - per-app mismatches and `LoadMeter`s are byte-identical with
//!   metrics enabled vs disabled.

use std::sync::Arc;

use proptest::prelude::*;
use saint_adf::{AndroidFramework, SynthConfig};
use saint_corpus::{generate_lineage, LineageConfig, RealWorldConfig, RealWorldCorpus};
use saint_delta::DeltaScanner;
use saint_ir::Apk;
use saint_obs::{CacheSnapshot, Counter, MetricsRegistry, Phase};
use saintdroid::{SaintDroid, ScanEngine};

fn corpus_slice(start: usize, n: usize) -> Vec<Apk> {
    let corpus = RealWorldCorpus::new(RealWorldConfig::small());
    (start..start + n)
        .map(|i| corpus.get(i % corpus.len()).apk)
        .collect()
}

fn framework() -> Arc<AndroidFramework> {
    Arc::new(AndroidFramework::with_scale(&SynthConfig::small()))
}

fn assert_cache_conserves(label: &str, cache: &Option<CacheSnapshot>) -> Result<(), String> {
    if let Some(c) = cache {
        prop_assert_eq!(
            c.hits + c.misses,
            c.lookups,
            "{} cache: hits {} + misses {} != lookups {}",
            label,
            c.hits,
            c.misses,
            c.lookups
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn metrics_observe_without_perturbing(
        start in 0usize..40,
        n in 2usize..5,
        app_jobs in prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
    ) {
        let apks = corpus_slice(start, n);

        // Metrics OFF: the reference run.
        let plain = ScanEngine::new(framework()).jobs(2).app_jobs(app_jobs);
        let reference = plain.scan_batch(&apks);

        // Metrics ON: same engine shape plus a registry.
        let metered = ScanEngine::new(framework())
            .jobs(2)
            .app_jobs(app_jobs)
            .ensure_metrics();
        let observed = metered.scan_batch(&apks);

        // Observation must not perturb the analysis: mismatches and
        // per-app meters byte-identical with metrics on vs off.
        prop_assert_eq!(reference.len(), observed.len());
        for (a, b) in reference.iter().zip(&observed) {
            prop_assert_eq!(&a.package, &b.package);
            prop_assert_eq!(&a.mismatches, &b.mismatches,
                "mismatches diverged for {} with metrics enabled", a.package);
            prop_assert_eq!(a.meter, b.meter,
                "LoadMeter diverged for {} with metrics enabled", a.package);
        }

        // Conservation: every cache lookup is exactly one hit or miss,
        // under any `--jobs`/`--app-jobs` interleaving.
        let snap = metered.metrics_snapshot();
        assert_cache_conserves("class", &snap.class_cache)?;
        assert_cache_conserves("artifact", &snap.artifact_cache)?;
        assert_cache_conserves("deep-scan", &snap.deep_scan_cache)?;

        // One framework-class cache: each class-cache miss materializes
        // exactly once, and a hit records nothing, so the `clvm_load`
        // span count is the miss count.
        let class_misses = snap.class_cache.expect("engine carries a class cache").misses;
        let clvm_load = snap.registry.phase("clvm_load").expect("phase always present");
        prop_assert_eq!(clvm_load.count, class_misses,
            "clvm_load spans != class-cache misses");

        // The registry agrees with ground truth it can be checked
        // against: one scan_total span and one apps_scanned tick per
        // app, mismatch count equal to the reports' total.
        prop_assert_eq!(snap.registry.counter("apps_scanned"), Some(n as u64));
        let scan_total = snap.registry.phase("scan_total").expect("phase always present");
        prop_assert_eq!(scan_total.count, n as u64);
        let total_mismatches: u64 = observed.iter().map(|r| r.mismatches.len() as u64).sum();
        prop_assert_eq!(snap.registry.counter("mismatches_found"), Some(total_mismatches));

        // Monotonicity: scanning more apps never decreases any counter,
        // phase count, total or histogram bucket.
        let again = metered.scan_batch(&apks);
        prop_assert_eq!(again.len(), n);
        let snap2 = metered.metrics_snapshot();
        for (before, after) in snap.registry.counters.iter().zip(&snap2.registry.counters) {
            prop_assert_eq!(before.name, after.name);
            prop_assert!(after.value >= before.value,
                "counter {} went backwards: {} -> {}", before.name, before.value, after.value);
        }
        for (before, after) in snap.registry.phases.iter().zip(&snap2.registry.phases) {
            prop_assert_eq!(before.name, after.name);
            prop_assert!(after.count >= before.count,
                "phase {} count went backwards", before.name);
            prop_assert!(after.total_ns >= before.total_ns,
                "phase {} total went backwards", before.name);
            for (b0, b1) in before.buckets.iter().zip(&after.buckets) {
                prop_assert!(b1 >= b0, "phase {} histogram bucket went backwards", before.name);
            }
        }
    }
}

/// Delta-counter conservation: across an incremental lineage scan,
/// every bundled class the scanner considers is exactly one
/// `delta_hits` or one `delta_misses` tick — `hits + misses ==
/// classes_seen` — and `classes_reanalyzed` never exceeds the misses
/// that caused it. Holds per scan (via [`saint_delta::DeltaStats`])
/// and in the registry aggregate, whichever entry point answered —
/// including replays served before decode, which are counted by
/// `delta_undecoded_replays <= app-key replays <= apps_scanned`.
#[test]
fn delta_counters_conserve_across_a_lineage() {
    let lineage = generate_lineage(&LineageConfig::small());
    let registry = Arc::new(MetricsRegistry::new());
    let tool = SaintDroid::new(framework()).with_metrics(Arc::clone(&registry));
    let dir = std::env::temp_dir().join(format!("saint-delta-metrics-{}", std::process::id()));
    let scanner = DeltaScanner::new(&dir);

    let mut classes_seen = 0u64;
    let mut app_replays = 0u64;
    let mut scans = 0u64;
    for (label, apk) in &lineage {
        // Each version scanned cold, then twice as a decoded replay,
        // and — when the daemon would — answered from the container
        // bytes before decode.
        let sapk = saint_ir::codec::encode_apk(apk);
        let mut all = vec![
            scanner.scan_encoded(&tool, &sapk, apk, 2),
            scanner.scan_encoded(&tool, &sapk, apk, 2),
            scanner.scan_encoded(&tool, &sapk, apk, 2),
        ];
        all.extend(scanner.replay_encoded(&tool, &sapk));
        for (_, stats) in all {
            assert_eq!(
                stats.hits + stats.misses,
                stats.classes_seen,
                "per-scan conservation broke at {label}"
            );
            assert!(
                stats.reanalyzed <= stats.misses,
                "reanalysis without a miss at {label}"
            );
            classes_seen += stats.classes_seen;
            app_replays += u64::from(stats.app_hit);
            scans += 1;
        }
    }

    let hits = registry.counter(Counter::DeltaHits);
    let misses = registry.counter(Counter::DeltaMisses);
    let reanalyzed = registry.counter(Counter::ClassesReanalyzed);
    assert_eq!(
        hits + misses,
        classes_seen,
        "registry aggregate: {hits} hits + {misses} misses != {classes_seen} classes seen"
    );
    assert!(reanalyzed <= misses);
    assert!(hits > 0, "a lineage rescan must reuse artifacts");
    assert_eq!(
        registry.counter(Counter::AppsScanned),
        scans,
        "each scan counts as exactly one scanned app"
    );
    let undecoded = registry.counter(Counter::DeltaUndecodedReplays);
    assert_eq!(
        undecoded,
        lineage.len() as u64,
        "every memoized version replays before decode"
    );
    assert!(
        undecoded <= app_replays && app_replays <= scans,
        "undecoded replays {undecoded} <= app-key replays {app_replays} <= apps scanned {scans}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Delta-store I/O is a phase: a cold scan records one span per store
/// read and write it makes (the app-key miss, a read and a write per
/// group, the app write), a fresh scanner replaying from the written
/// store records exactly one read, and a replay from the in-process
/// memo records none.
#[test]
fn delta_store_io_is_recorded_as_spans() {
    let (_, apk) = generate_lineage(&LineageConfig::small()).swap_remove(0);
    let registry = Arc::new(MetricsRegistry::new());
    let tool = SaintDroid::new(framework()).with_metrics(Arc::clone(&registry));
    let dir = std::env::temp_dir().join(format!("saint-delta-spans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spans = || registry.phase(Phase::DeltaStore).count();

    let sapk = saint_ir::codec::encode_apk(&apk);
    let (_, cold) = DeltaScanner::new(&dir).scan_encoded(&tool, &sapk, &apk, 1);
    assert!(!cold.app_hit && cold.groups > 0);
    let written = spans();
    assert_eq!(written, 2 + 2 * cold.groups as u64, "cold store I/O");

    let fresh = DeltaScanner::new(&dir);
    let (_, disk) = fresh.scan_encoded(&tool, &sapk, &apk, 1);
    assert!(disk.app_hit);
    assert_eq!(spans(), written + 1, "a disk replay is one store read");
    let (_, memo) = fresh.scan_encoded(&tool, &sapk, &apk, 1);
    assert!(memo.app_hit);
    assert_eq!(spans(), written + 1, "a memo replay does no store I/O");
    let _ = std::fs::remove_dir_all(&dir);
}

/// DSD-counter conservation: with the declared-SDK family enabled,
/// every scanned app is vetted exactly once (`apps_vetted ==
/// apps_scanned`), the per-kind counters equal the reports' DSD
/// finding totals, and the DSD findings are a subset of
/// `mismatches_found`. With the family disabled (the default AMD
/// set), the whole DSD counter surface stays at zero.
#[test]
fn dsd_counters_conserve_and_stay_zero_when_disabled() {
    use saint_corpus::planted_suite;
    use saintdroid::{DetectorSet, MismatchKind};

    let registry = Arc::new(MetricsRegistry::new());
    let fw = Arc::new(AndroidFramework::curated());
    let tool = SaintDroid::new(Arc::clone(&fw))
        .with_detectors(DetectorSet::all())
        .with_metrics(Arc::clone(&registry));
    let apps = planted_suite();
    let (mut over, mut under) = (0u64, 0u64);
    for app in &apps {
        let report = tool.run(&app.apk);
        over += report.count(MismatchKind::DsdOveruse) as u64;
        under += report.count(MismatchKind::DsdUnderuse) as u64;
    }
    assert!(
        over > 0 && under > 0,
        "test premise: the planted corpus exercises both DSD kinds"
    );
    assert_eq!(registry.counter(Counter::AppsVetted), apps.len() as u64);
    assert_eq!(
        registry.counter(Counter::AppsVetted),
        registry.counter(Counter::AppsScanned),
        "every scanned app is vetted exactly once when DSD is enabled"
    );
    assert_eq!(registry.counter(Counter::DsdOveruseFound), over);
    assert_eq!(registry.counter(Counter::DsdUnderuseFound), under);
    assert!(
        over + under <= registry.counter(Counter::MismatchesFound),
        "DSD findings are a subset of all mismatches"
    );

    // The default AMD set: no vetting, no DSD ticks — the counters
    // observe the family, they never invent it.
    let amd_registry = Arc::new(MetricsRegistry::new());
    let amd = SaintDroid::new(fw).with_metrics(Arc::clone(&amd_registry));
    for app in &apps {
        let _ = amd.run(&app.apk);
    }
    assert_eq!(
        amd_registry.counter(Counter::AppsScanned),
        apps.len() as u64
    );
    assert_eq!(amd_registry.counter(Counter::AppsVetted), 0);
    assert_eq!(amd_registry.counter(Counter::DsdOveruseFound), 0);
    assert_eq!(amd_registry.counter(Counter::DsdUnderuseFound), 0);
}
