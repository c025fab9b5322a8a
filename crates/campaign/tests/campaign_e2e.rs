//! End-to-end fleet campaign tests: convergence of the aggregated
//! report across fleet sizes, daemon loss mid-campaign, and
//! crash/resume via injected driver faults.
//!
//! The convergence contract under test: however a campaign gets to
//! completion — one daemon or many, uninterrupted or resumed after a
//! crash, with or without failover — the stable report and campaign
//! fingerprint are identical, because scans are deterministic, units
//! are content-addressed, and the store deduplicates by id.
//!
//! `saint-faults` state is process-global, so every test serializes on
//! one lock (the same idiom as the engine's fault-isolation tests).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use saint_adf::AndroidFramework;
use saint_campaign::{
    report_fingerprint, run_campaign, CampaignConfig, CampaignOutcome, CorpusRegistry,
    JournalRecord, LocalFleet, ShardPlanner,
};
use saint_faults::FaultPoint;
use saint_ir::{codec, Apk};
use saint_service::ServerConfig;
use saintdroid::{DetectorSet, Family, ScanEngine};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One curated framework for every daemon in the file (the model is
/// immutable and reference-counted).
fn framework() -> Arc<AndroidFramework> {
    static FW: OnceLock<Arc<AndroidFramework>> = OnceLock::new();
    Arc::clone(FW.get_or_init(|| Arc::new(AndroidFramework::curated())))
}

const APPS: usize = 10;

/// The shared 10-app corpus.
fn corpus_apks() -> Vec<Apk> {
    let mut cfg = saint_corpus::RealWorldConfig::small();
    cfg.apps = APPS;
    let corpus = saint_corpus::RealWorldCorpus::new(cfg);
    (0..APPS).map(|i| corpus.get(i).apk).collect()
}

/// Writes the shared corpus as loose `.sapk` files, once.
fn corpus_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("saint-campaign-e2e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir corpus");
        for (i, apk) in corpus_apks().iter().enumerate() {
            let bytes = codec::encode_apk(apk);
            std::fs::write(dir.join(format!("app{i:02}.sapk")), bytes).expect("write sapk");
        }
        dir
    })
}

fn registry() -> CorpusRegistry {
    let mut reg = CorpusRegistry::new();
    reg.add_sapk_dir(corpus_dir()).expect("register corpus");
    assert_eq!(reg.len(), APPS);
    reg
}

fn fleet(count: usize, pace_ms: u64) -> LocalFleet {
    fleet_of(count, pace_ms, DetectorSet::amd())
}

/// `count` daemons over the shared framework, each running `detectors`.
fn fleet_of(count: usize, pace_ms: u64, detectors: DetectorSet) -> LocalFleet {
    let engines = (0..count)
        .map(|_| ScanEngine::new(framework()).with_detectors(detectors))
        .collect();
    let cfg = ServerConfig {
        jobs: 1,
        scan_pace: (pace_ms > 0).then(|| Duration::from_millis(pace_ms)),
        ..ServerConfig::default()
    };
    LocalFleet::start(engines, &cfg).expect("fleet starts")
}

fn journal_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "saint-campaign-e2e-{tag}-{}.journal",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    path
}

fn campaign_cfg() -> CampaignConfig {
    CampaignConfig {
        checkpoint_every: 1, // Every completion is durable — crash tests salvage everything.
        chunk: 2,
        ..CampaignConfig::default()
    }
}

/// One uninterrupted campaign over a single daemon running
/// `detectors`: its outcome and the journal's records as replayed from
/// disk.
fn single_daemon_campaign(
    detectors: DetectorSet,
    tag: &str,
) -> (CampaignOutcome, Vec<JournalRecord>) {
    let fleet = fleet_of(1, 0, detectors);
    let journal = journal_path(tag);
    let outcome = run_campaign(
        &registry(),
        fleet.endpoints(),
        &journal,
        false,
        &campaign_cfg(),
        None,
    )
    .expect("single-daemon campaign");
    assert_eq!(outcome.completed, APPS);
    let records = saint_campaign::replay(&journal)
        .expect("journal replays")
        .records;
    std::fs::remove_file(&journal).ok();
    (outcome, records)
}

/// The uninterrupted single-daemon answer every other execution shape
/// must reproduce: (stable report JSON, campaign fingerprint).
fn baseline() -> &'static (String, String) {
    static BASELINE: OnceLock<(String, String)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let (outcome, _) = single_daemon_campaign(DetectorSet::amd(), "baseline");
        (
            outcome.store.report(None).stable_json(),
            outcome.store.fingerprint(),
        )
    })
}

fn assert_converged(outcome: &CampaignOutcome) {
    let (stable, fingerprint) = baseline();
    assert_eq!(
        &outcome.store.fingerprint(),
        fingerprint,
        "campaign fingerprint diverged from the uninterrupted single-daemon run"
    );
    assert_eq!(
        &outcome.store.report(None).stable_json(),
        stable,
        "stable report diverged from the uninterrupted single-daemon run"
    );
}

/// Every journaled campaign report equals the in-process batch
/// engine's report for the same package, for the default AMD families
/// and for all four: a fleet daemon runs the detector set of the engine
/// it was given.
#[test]
fn campaign_records_match_the_in_process_engine() {
    let _guard = serial();
    saint_faults::reset();
    for detectors in [DetectorSet::amd(), DetectorSet::all()] {
        let (_, records) =
            single_daemon_campaign(detectors, &format!("engine-{}", detectors.bits()));
        let reports = ScanEngine::new(framework())
            .with_detectors(detectors)
            .scan_batch(&corpus_apks());
        let expected: HashMap<&str, String> = reports
            .iter()
            .map(|r| (r.package.as_str(), report_fingerprint(r)))
            .collect();
        assert_eq!(expected.len(), APPS, "package names are unique");
        assert_eq!(records.len(), APPS);
        for rec in &records {
            assert_eq!(
                Some(&rec.fingerprint),
                expected.get(rec.package.as_str()),
                "{detectors}: campaign report for {} diverged from the batch engine",
                rec.package
            );
        }
        if detectors.has(Family::Dsd) {
            let dsd = reports
                .iter()
                .flat_map(|r| &r.mismatches)
                .filter(|m| Family::Dsd.kinds().contains(&m.kind))
                .count();
            assert!(dsd > 0, "the corpus must exercise the DSD family");
        }
    }
}

#[test]
fn two_daemon_fleet_matches_single_daemon_report() {
    let _guard = serial();
    saint_faults::reset();
    let reg = registry();
    let fleet = fleet(2, 0);
    let journal = journal_path("fleet2");
    let outcome = run_campaign(
        &reg,
        fleet.endpoints(),
        &journal,
        false,
        &campaign_cfg(),
        None,
    )
    .expect("fleet-2 campaign");
    assert_eq!(outcome.completed, APPS);
    assert_eq!(outcome.runtime.daemon_failovers, 0);
    // Both daemons actually served their shard.
    let served: Vec<u64> = outcome.runtime.daemons.iter().map(|d| d.apps).collect();
    assert!(
        served.iter().all(|&n| n > 0),
        "a daemon sat idle: {served:?}"
    );
    assert_converged(&outcome);
    std::fs::remove_file(&journal).ok();
}

#[test]
fn daemon_loss_mid_campaign_fails_over_and_converges() {
    let _guard = serial();
    saint_faults::reset();
    let reg = registry();
    // Paced daemons stretch the campaign so the kill lands mid-run.
    let mut fleet = fleet(2, 25);
    let endpoints = fleet.endpoints().to_vec();
    // Kill the daemon the ring gives the most units. The ring is keyed
    // on ephemeral ports, so either daemon may own the larger share;
    // owning at least half, the victim still has unclaimed units when
    // the first completion lands (the driver claims two per dispatch).
    let planner = ShardPlanner::new(&endpoints);
    let mut shares = vec![0_usize; endpoints.len()];
    for unit in reg.units() {
        shares[planner.assign(unit.id).expect("ring is non-empty")] += 1;
    }
    let victim = (0..shares.len())
        .max_by_key(|&i| shares[i])
        .expect("fleet has daemons");
    let journal = journal_path("loss");
    let outcome = std::thread::scope(|scope| {
        let campaign =
            scope.spawn(|| run_campaign(&reg, &endpoints, &journal, false, &campaign_cfg(), None));
        // Wait for the first checkpointed completion, then take one
        // daemon out from under the driver.
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "no completion checkpointed within 60s"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        fleet.kill(victim);
        campaign.join().expect("campaign thread")
    })
    .expect("campaign survives daemon loss");
    assert_eq!(outcome.store.len(), APPS);
    // The dead daemon's unclaimed units moved to the survivor.
    assert!(
        outcome.runtime.daemon_failovers >= 1,
        "expected a failover, got {:?}",
        outcome.runtime
    );
    assert!(outcome.runtime.resubmissions >= 1);
    assert_converged(&outcome);
    std::fs::remove_file(&journal).ok();
}

#[test]
fn driver_crash_then_resume_is_fingerprint_identical() {
    let _guard = serial();
    saint_faults::reset();
    let reg = registry();
    let fleet = fleet(2, 25);
    let endpoints = fleet.endpoints().to_vec();
    let journal = journal_path("crash");

    // Phase 1: crash the driver mid-campaign via an injected fault in
    // the dispatch loop, after at least one completion is durable.
    let crashed = std::thread::scope(|scope| {
        let campaign = scope.spawn(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_campaign(&reg, &endpoints, &journal, false, &campaign_cfg(), None)
            }))
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "no completion checkpointed within 60s"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        saint_faults::arm(FaultPoint::CampaignDispatch, 1);
        campaign.join().expect("campaign thread")
    });
    let leftover = saint_faults::remaining(FaultPoint::CampaignDispatch);
    saint_faults::reset();
    let replayed = saint_campaign::replay(&journal).expect("journal readable after crash");
    let salvaged = replayed.records.len();
    match crashed {
        Err(_) => {
            // The injected `campaign_dispatch` panic propagated out of
            // the driver's thread scope (the scope re-wraps the
            // payload, so only the fact of the panic is asserted).
            assert!(salvaged < APPS, "crashed campaign cannot be complete");
            assert_eq!(leftover, 0, "the armed fault never fired");
        }
        // The fleet can outrun the arming on a fast machine; the
        // campaign then finished before the fault fired. Resume below
        // still must converge (as a no-op).
        Ok(result) => {
            result.expect("uninterrupted campaign");
        }
    }
    assert!(salvaged >= 1, "first checkpoint was polled before arming");

    // Phase 2: resume against the same fleet; only uncovered units are
    // re-scanned, and the result converges to the baseline.
    let outcome = run_campaign(&reg, &endpoints, &journal, true, &campaign_cfg(), None)
        .expect("resumed campaign");
    assert_eq!(outcome.resumed, salvaged);
    assert_eq!(outcome.completed, APPS - salvaged);
    assert_eq!(outcome.store.len(), APPS);
    assert_converged(&outcome);
    std::fs::remove_file(&journal).ok();
}

#[test]
fn resume_skips_journaled_units_deterministically() {
    let _guard = serial();
    saint_faults::reset();
    // Deterministic (timing-free) resume coverage: complete a campaign
    // over *half* the corpus, then resume over the full corpus with the
    // same journal. The resumed run must scan exactly the other half
    // and converge to the baseline.
    let full = registry();
    let half_dir =
        std::env::temp_dir().join(format!("saint-campaign-e2e-half-{}", std::process::id()));
    std::fs::create_dir_all(&half_dir).expect("mkdir half");
    let mut names: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("list corpus")
        .map(|e| e.expect("entry").path())
        .collect();
    names.sort();
    for path in names.iter().take(APPS / 2) {
        std::fs::copy(path, half_dir.join(path.file_name().expect("name"))).expect("copy");
    }
    let mut half = CorpusRegistry::new();
    half.add_sapk_dir(&half_dir).expect("register half");
    assert_eq!(half.len(), APPS / 2);

    let fleet = fleet(1, 0);
    let journal = journal_path("half");
    let first = run_campaign(
        &half,
        fleet.endpoints(),
        &journal,
        false,
        &campaign_cfg(),
        None,
    )
    .expect("half campaign");
    assert_eq!(first.completed, APPS / 2);

    let outcome = run_campaign(
        &full,
        fleet.endpoints(),
        &journal,
        true,
        &campaign_cfg(),
        None,
    )
    .expect("resumed full campaign");
    assert_eq!(outcome.resumed, APPS / 2);
    assert_eq!(outcome.completed, APPS - APPS / 2);
    assert_converged(&outcome);
    std::fs::remove_dir_all(&half_dir).ok();
    std::fs::remove_file(&journal).ok();
}

#[test]
fn empty_inputs_are_typed_errors() {
    let _guard = serial();
    saint_faults::reset();
    let reg = CorpusRegistry::new();
    let journal = journal_path("empty");
    let err = run_campaign(
        &reg,
        &["127.0.0.1:1".to_string()],
        &journal,
        false,
        &campaign_cfg(),
        None,
    )
    .expect_err("empty corpus");
    assert!(matches!(err, saint_campaign::CampaignError::EmptyCorpus));
    let reg = registry();
    let err =
        run_campaign(&reg, &[], &journal, false, &campaign_cfg(), None).expect_err("no daemons");
    assert!(matches!(err, saint_campaign::CampaignError::NoDaemons));
}

#[test]
fn unreachable_fleet_is_all_daemons_lost() {
    let _guard = serial();
    saint_faults::reset();
    let reg = registry();
    let journal = journal_path("unreachable");
    // Port 1 refuses connections: every daemon is lost before any unit
    // is scanned, and the typed error says so.
    let endpoints = vec!["127.0.0.1:1".to_string(), "127.0.0.1:1".to_string()];
    let err = run_campaign(&reg, &endpoints, &journal, false, &campaign_cfg(), None)
        .expect_err("unreachable fleet");
    match err {
        saint_campaign::CampaignError::AllDaemonsLost { completed, lost } => {
            assert_eq!(completed, 0);
            assert_eq!(lost, APPS);
        }
        other => panic!("expected AllDaemonsLost, got {other}"),
    }
    std::fs::remove_file(&journal).ok();
}
