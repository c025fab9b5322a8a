//! Pipelined end-to-end tests against a real daemon on an ephemeral
//! port, booted the way production boots: frozen framework image
//! attached. N concurrent clients each keep M scans in flight on one
//! connection; every report must be **byte-identical** — serialized
//! mismatches and the full meter — to what the in-process batch engine
//! produces for the same packages, and the reactor's gauges must
//! settle back to zero once the pipelines drain.

use std::sync::Arc;

use saint_adf::AndroidFramework;
use saint_corpus::{RealWorldConfig, RealWorldCorpus};
use saint_ir::{codec, Apk};
use saint_service::{Client, PipelinedClient, RetryPolicy, ServerConfig};
use saintdroid::{Report, ScanEngine};

fn corpus_and_framework() -> (Vec<Apk>, Arc<AndroidFramework>) {
    let mut cfg = RealWorldConfig::small();
    cfg.apps = 8;
    let fw = Arc::new(AndroidFramework::with_scale(&cfg.synth));
    let corpus = RealWorldCorpus::new(cfg);
    let apks = (0..corpus.len()).map(|i| corpus.get(i).apk).collect();
    (apks, fw)
}

/// Boots a daemon the production way: frozen framework image compiled
/// to a temp file and attached (no mining at startup), engine
/// prewarmed off the image. Returns the handle and the image path so
/// the caller can clean up.
fn start_frozen_server(
    fw: &Arc<AndroidFramework>,
    mut cfg: ServerConfig,
) -> (saint_service::ServerHandle, std::path::PathBuf) {
    cfg.listen = "127.0.0.1:0".to_string();
    let image = std::env::temp_dir().join(format!(
        "saint_pipeline_e2e_{}_{:p}.sfrz",
        std::process::id(),
        &cfg
    ));
    std::fs::write(&image, saint_frozen::freeze_framework(fw)).expect("write frozen image");
    let engine = ScanEngine::new(Arc::clone(fw));
    engine
        .attach_frozen(&image)
        .expect("attach frozen framework image");
    engine.prewarm();
    let handle = saint_service::start(engine, &cfg).expect("bind ephemeral port");
    (handle, image)
}

/// The parity digest: serialized mismatches plus serialized meter —
/// the same byte-level comparison `service_e2e` applies, minus the
/// timing fields that naturally differ.
fn digest(report: &Report) -> String {
    format!(
        "{}|{}|{}",
        report.package,
        serde_json::to_string(&report.mismatches).expect("mismatches serialize"),
        serde_json::to_string(&report.meter).expect("meter serializes"),
    )
}

#[test]
fn concurrent_pipelined_clients_match_batch_engine_byte_for_byte() {
    const CLIENTS: usize = 4;
    const WINDOW: usize = 8;
    const SCANS_PER_CLIENT: usize = 16; // the 8-app corpus, cycled twice

    let (apks, fw) = corpus_and_framework();
    let (handle, image) = start_frozen_server(
        &fw,
        ServerConfig {
            jobs: 2,
            queue_depth: 64,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr().to_string();

    // The ground truth: the in-process batch engine over the same
    // packages (scan_batch is itself parity-checked against the
    // sequential tool by the engine's own suite).
    let local_engine = ScanEngine::new(Arc::clone(&fw));
    let expected: Vec<String> = local_engine.scan_batch(&apks).iter().map(digest).collect();

    let sapks: Vec<Vec<u8>> = (0..SCANS_PER_CLIENT)
        .map(|i| codec::encode_apk(&apks[i % apks.len()]))
        .collect();

    // N clients, each pipelining M scans in flight on one connection.
    let digests: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let addr = addr.clone();
                let sapks = &sapks;
                s.spawn(move || {
                    let mut client =
                        PipelinedClient::connect(&addr, WINDOW).expect("connect pipelined");
                    let responses = client
                        .scan_all(sapks, Some(120_000))
                        .expect("pipelined batch serves");
                    responses.iter().map(|r| digest(&r.report)).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for per_client in &digests {
        assert_eq!(per_client.len(), SCANS_PER_CLIENT);
        for (i, got) in per_client.iter().enumerate() {
            assert_eq!(
                got,
                &expected[i % expected.len()],
                "pipelined report {i} diverged from the batch engine"
            );
        }
    }

    // The reactor's books balance once the pipelines drain: every scan
    // answered, no request still in flight, only the status connection
    // open.
    let mut admin = Client::connect(&addr).expect("connect admin");
    let status = admin.status().expect("status");
    assert_eq!(status.jobs_served, (CLIENTS * SCANS_PER_CLIENT) as u64);
    let reactor = status.reactor.expect("daemon reports its reactor");
    assert_eq!(reactor.inflight, 0, "all pipelines drained");
    assert_eq!(reactor.open_connections, 1, "only the admin connection");
    assert!(
        reactor.connections_accepted >= (CLIENTS + 1) as u64,
        "every pipelined client was accepted"
    );

    admin.shutdown().expect("shutdown ack");
    handle.wait();
    let _ = std::fs::remove_file(image);
}

#[test]
fn client_window_larger_than_server_window_backpressures_not_rejects() {
    let (apks, fw) = corpus_and_framework();
    // A deliberately tiny per-connection window: the client pushes 16
    // scans with all of them in flight, so the daemon must suspend the
    // connection's reads instead of answering `busy`.
    let (handle, image) = start_frozen_server(
        &fw,
        ServerConfig {
            jobs: 1,
            queue_depth: 64,
            window: 2,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr().to_string();

    let sapks: Vec<Vec<u8>> = (0..16)
        .map(|i| codec::encode_apk(&apks[i % apks.len()]))
        .collect();
    // No retry budget: any rejection fails the batch.
    let mut client = PipelinedClient::connect(&addr, 16)
        .expect("connect pipelined")
        .with_retry_policy(RetryPolicy::new(0));
    let responses = client
        .scan_all(&sapks, Some(120_000))
        .expect("overflow parks, never rejects");
    assert_eq!(responses.len(), 16);
    for (i, resp) in responses.iter().enumerate() {
        assert_eq!(resp.report.package, apks[i % apks.len()].manifest.package);
    }

    let mut admin = Client::connect(&addr).expect("connect admin");
    let status = admin.status().expect("status");
    assert_eq!(status.jobs_served, 16);
    let reactor = status.reactor.expect("daemon reports its reactor");
    assert!(
        reactor.backpressure_suspends > 0,
        "a 16-deep pipeline against a 2-deep window must suspend reads"
    );
    assert_eq!(reactor.suspended_connections, 0, "all resumed after drain");

    admin.shutdown().expect("shutdown ack");
    handle.wait();
    let _ = std::fs::remove_file(image);
}

#[test]
fn single_connection_pipeline_preserves_submission_order() {
    let (apks, fw) = corpus_and_framework();
    let (handle, image) = start_frozen_server(
        &fw,
        ServerConfig {
            jobs: 2,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr().to_string();

    // Each package distinct, the whole batch in flight at once: the
    // two workers may finish out of submission order, and scan_all must
    // still hand results back in submission order.
    let sapks: Vec<Vec<u8>> = apks.iter().map(codec::encode_apk).collect();
    let mut client = PipelinedClient::connect(&addr, sapks.len()).expect("connect pipelined");
    let responses = client.scan_all(&sapks, Some(120_000)).expect("serves");
    for (resp, apk) in responses.iter().zip(&apks) {
        assert_eq!(resp.report.package, apk.manifest.package);
    }

    let mut admin = Client::connect(&addr).expect("connect admin");
    admin.shutdown().expect("shutdown ack");
    handle.wait();
    let _ = std::fs::remove_file(image);
}
