//! Fault injection on the daemon's `delta` path: a panic in any step of
//! an incremental request — the SAPK decode, exploration, or a
//! detector family — is caught by the engine's isolation boundary,
//! answered `internal` naming the phase it hit, and counted in
//! `scans_panicked`. Afterwards every package scans through `delta`
//! with a report byte-identical to a local full scan.
//!
//! Fault state is process-global, so the whole scenario is one
//! `#[test]` function in its own integration-test binary.

use std::sync::Arc;
use std::time::Duration;

use saint_adf::AndroidFramework;
use saint_corpus::{RealWorldConfig, RealWorldCorpus};
use saint_faults::FaultPoint;
use saint_ir::{codec, Apk};
use saint_service::{protocol::error_code, Client, ClientError, ServerConfig};
use saintdroid::{Report, SaintDroid, ScanEngine};

const DEADLINE: Option<u64> = Some(120_000);

/// The stages armed in turn, each with the phase its answer must name.
const STAGES: [(FaultPoint, &str); 4] = [
    (FaultPoint::Decode, "decode"),
    (FaultPoint::Explore, "explore"),
    (FaultPoint::DetectInvocation, "detect_invocation"),
    (FaultPoint::DetectPermission, "detect_permission"),
];

fn canon(report: &Report) -> String {
    let mut stable = report.clone();
    stable.duration = Duration::ZERO;
    serde_json::to_string(&stable).expect("reports serialize")
}

#[test]
fn delta_path_panics_are_isolated_attributed_and_counted() {
    saint_faults::reset();
    let mut cfg = RealWorldConfig::small();
    cfg.apps = STAGES.len();
    let fw = Arc::new(AndroidFramework::with_scale(&cfg.synth));
    let corpus = RealWorldCorpus::new(cfg);
    let apks: Vec<Apk> = (0..corpus.len()).map(|i| corpus.get(i).apk).collect();
    let mut packages: Vec<&str> = apks.iter().map(|a| a.manifest.package.as_str()).collect();
    packages.sort_unstable();
    packages.dedup();
    assert_eq!(packages.len(), STAGES.len(), "one unseen package per stage");

    let store = std::env::temp_dir().join(format!("saint-delta-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let engine = ScanEngine::new(Arc::clone(&fw));
    engine.prewarm();
    let handle = saint_service::start(
        engine,
        &ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            jobs: 2,
            delta_dir: Some(store.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let sapks: Vec<Vec<u8>> = apks.iter().map(codec::encode_apk).collect();

    // One armed point per request, each for a package the store has
    // never seen, so the request goes through decode and the
    // incremental scan rather than a replay.
    for ((point, phase), sapk) in STAGES.into_iter().zip(&sapks) {
        saint_faults::arm(point, 1);
        match client.delta_sapk(sapk, DEADLINE) {
            Err(ClientError::Rejected(e)) => {
                assert_eq!(e.code, error_code::INTERNAL, "{phase}: {e:?}");
                assert_eq!(e.phase.as_deref(), Some(phase), "{e:?}");
            }
            other => panic!("{phase}: expected an internal rejection, got {other:?}"),
        }
        assert_eq!(saint_faults::remaining(point), 0, "{point:?} never fired");
    }
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.counter("scans_panicked"), Some(STAGES.len() as u64));

    // Every package now scans through `delta`, byte-identical to a
    // local full scan.
    let local = SaintDroid::new(Arc::clone(&fw));
    for (apk, sapk) in apks.iter().zip(&sapks) {
        let resp = client.delta_sapk(sapk, DEADLINE).expect("post-fault delta");
        assert!(resp.delta.is_some(), "answered by the incremental scanner");
        assert_eq!(
            canon(&resp.report),
            canon(&local.run(apk)),
            "report drifted"
        );
    }

    client.shutdown().expect("shutdown ack");
    handle.wait();
    let _ = std::fs::remove_dir_all(&store);
}
