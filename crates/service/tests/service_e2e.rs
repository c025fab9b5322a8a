//! End-to-end service tests against a real daemon on an ephemeral
//! port: report parity with a local scan, typed rejection of every
//! malformed-input class, deterministic admission-control behavior,
//! and graceful drain.
//!
//! Parity is the headline guarantee: a report fetched through the
//! protocol must be **byte-identical** — serialized mismatches and the
//! full meter — to what `saintdroid scan` (a plain local
//! `SaintDroid::run`) produces for the same `.sapk` bytes. Timing
//! fields naturally differ and are excluded, exactly as in the batch
//! engine's parity suite.

use std::sync::Arc;

use saint_adf::AndroidFramework;
use saint_corpus::{RealWorldConfig, RealWorldCorpus};
use saint_ir::{codec, Apk};
use saint_service::{
    Client, ClientError, MetricsResponse, PipelinedClient, RetryPolicy, ServerConfig,
};
use saintdroid::{Report, SaintDroid, ScanEngine};

fn corpus_and_framework() -> (Vec<Apk>, Arc<AndroidFramework>) {
    let mut cfg = RealWorldConfig::small();
    cfg.apps = 8;
    let fw = Arc::new(AndroidFramework::with_scale(&cfg.synth));
    let corpus = RealWorldCorpus::new(cfg);
    let apks = (0..corpus.len()).map(|i| corpus.get(i).apk).collect();
    (apks, fw)
}

fn start_server(fw: &Arc<AndroidFramework>, cfg: &ServerConfig) -> saint_service::ServerHandle {
    let engine = ScanEngine::new(Arc::clone(fw));
    engine.prewarm();
    saint_service::start(engine, cfg).expect("bind ephemeral port")
}

fn ephemeral(mut cfg: ServerConfig) -> ServerConfig {
    cfg.listen = "127.0.0.1:0".to_string();
    cfg
}

#[test]
fn submitted_reports_are_byte_identical_to_local_scan() {
    let (apks, fw) = corpus_and_framework();
    let handle = start_server(
        &fw,
        &ephemeral(ServerConfig {
            jobs: 2,
            ..ServerConfig::default()
        }),
    );
    let addr = handle.addr().to_string();

    let local_tool = SaintDroid::new(Arc::clone(&fw));
    let mut client = Client::connect(&addr).expect("connect");
    for apk in &apks {
        let sapk = codec::encode_apk(apk);
        let response = client
            .scan_sapk(&sapk, Some(120_000))
            .expect("scan succeeds");
        let local: Report = local_tool.run(apk);

        assert_eq!(response.report.package, local.package);
        // Byte-identical findings: compare the serialized form, not
        // just structural equality.
        assert_eq!(
            serde_json::to_string(&response.report.mismatches).unwrap(),
            serde_json::to_string(&local.mismatches).unwrap(),
            "{}: service findings diverged from local scan",
            local.package
        );
        assert_eq!(
            serde_json::to_string(&response.report.meter).unwrap(),
            serde_json::to_string(&local.meter).unwrap(),
            "{}: service meter diverged from local scan",
            local.package
        );
        // The response mirrors the CLI exit-code contract.
        let expected_code = if local.is_clean() { 0 } else { 2 };
        assert_eq!(response.exit_code, expected_code);
    }

    // The warm engine actually shared framework work across requests.
    let status = client.status().expect("status");
    assert_eq!(status.jobs_served, apks.len() as u64);
    let class = status.class_cache.expect("warm engine carries a cache");
    assert!(
        class.hits > 0,
        "8 similar apps through one warm engine must hit the class cache"
    );

    client.shutdown().expect("shutdown ack");
    handle.wait();
}

#[test]
fn malformed_inputs_get_typed_errors_and_daemon_survives() {
    let (apks, fw) = corpus_and_framework();
    let handle = start_server(&fw, &ephemeral(ServerConfig::default()));
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    // Not JSON at all.
    let raw = client.raw_roundtrip("this is not json").expect("reply");
    assert!(raw.contains("\"malformed\""), "{raw}");
    // JSON, but not a protocol message.
    let raw = client.raw_roundtrip("[1,2,3]").expect("reply");
    assert!(raw.contains("\"malformed\""), "{raw}");
    // Unknown kind.
    let raw = client
        .raw_roundtrip(r#"{"v":1,"kind":"frobnicate"}"#)
        .expect("reply");
    assert!(raw.contains("\"malformed\""), "{raw}");
    // Wrong protocol version.
    let raw = client
        .raw_roundtrip(r#"{"v":99,"kind":"status"}"#)
        .expect("reply");
    assert!(raw.contains("\"unsupported_version\""), "{raw}");
    // Scan with invalid base64.
    let raw = client
        .raw_roundtrip(r#"{"v":1,"kind":"scan","package_b64":"!!!not-base64!!!"}"#)
        .expect("reply");
    assert!(raw.contains("\"bad_package\""), "{raw}");
    // Scan with valid base64 that is not a SAPK container.
    let garbage = saint_service::protocol::base64_encode(b"definitely not a sapk");
    let raw = client
        .raw_roundtrip(&format!(
            r#"{{"v":1,"kind":"scan","package_b64":"{garbage}"}}"#
        ))
        .expect("reply");
    assert!(raw.contains("\"bad_package\""), "{raw}");

    // After all that abuse, the same connection still serves a real
    // scan.
    let sapk = codec::encode_apk(&apks[0]);
    let response = client.scan_sapk(&sapk, Some(120_000)).expect("scan");
    assert_eq!(response.report.package, apks[0].manifest.package);

    let mut admin = Client::connect(&addr).expect("connect");
    admin.shutdown().expect("shutdown ack");
    handle.wait();
}

#[test]
fn oversized_request_is_rejected_without_killing_daemon() {
    let (apks, fw) = corpus_and_framework();
    // A deliberately tiny line limit so a real package blows past it.
    let handle = start_server(
        &fw,
        &ephemeral(ServerConfig {
            max_line_bytes: 512,
            ..ServerConfig::default()
        }),
    );
    let addr = handle.addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    let sapk = codec::encode_apk(&apks[0]);
    assert!(
        sapk.len() > 512,
        "test premise: the package exceeds the limit"
    );
    match client.scan_sapk(&sapk, Some(120_000)) {
        Err(ClientError::Rejected(err)) => assert_eq!(err.code, "too_large"),
        other => panic!("expected too_large rejection, got {other:?}"),
    }

    // The oversized line cost that connection its framing, but the
    // daemon is alive: a fresh connection serves status fine.
    let mut fresh = Client::connect(&addr).expect("reconnect");
    let status = fresh.status().expect("status after oversized request");
    assert_eq!(status.jobs_served, 0);

    fresh.shutdown().expect("shutdown ack");
    handle.wait();
}

#[test]
fn zero_depth_queue_is_clamped_and_serves_scans() {
    let (apks, fw) = corpus_and_framework();
    // `queue_depth: 0` is clamped to one slot: overflow parks under
    // backpressure as at any other depth, so the daemon serves.
    let handle = start_server(
        &fw,
        &ephemeral(ServerConfig {
            jobs: 1,
            queue_depth: 0,
            ..ServerConfig::default()
        }),
    );
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let sapk = codec::encode_apk(&apks[0]);
    let response = client
        .scan_sapk(&sapk, Some(120_000))
        .expect("a zero-depth daemon serves");
    assert_eq!(response.report.package, apks[0].manifest.package);

    // A full window against the one slot parks; with no retry budget,
    // any rejection would fail the batch.
    let sapks: Vec<Vec<u8>> = apks.iter().take(4).map(codec::encode_apk).collect();
    let mut pipelined = PipelinedClient::connect(&addr, 4)
        .expect("connect pipelined")
        .with_retry_policy(RetryPolicy::new(0));
    let responses = pipelined
        .scan_all(&sapks, Some(120_000))
        .expect("overflow parks, never rejects");
    assert_eq!(responses.len(), 4);

    let status = client.status().expect("status");
    assert_eq!(status.jobs_served, 5);
    assert_eq!(status.queue_capacity, 1);

    client.shutdown().expect("shutdown ack");
    handle.wait();
}

#[test]
fn concurrent_burst_never_kills_daemon_and_every_reply_is_typed() {
    let (apks, fw) = corpus_and_framework();
    let handle = start_server(
        &fw,
        &ephemeral(ServerConfig {
            jobs: 1,
            queue_depth: 2,
            ..ServerConfig::default()
        }),
    );
    let addr = handle.addr().to_string();

    // 8 concurrent submissions against one worker and two queue slots:
    // overflow parks under backpressure — never a hang, never a dead
    // daemon.
    let outcomes: Vec<&'static str> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let addr = addr.clone();
                let apk = &apks[i % apks.len()];
                s.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    let sapk = codec::encode_apk(apk);
                    match client.scan_sapk(&sapk, Some(120_000)) {
                        Ok(_) => "scan",
                        Err(ClientError::Rejected(err)) if err.code == "busy" => "busy",
                        Err(other) => panic!("untyped burst outcome: {other:?}"),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let served = outcomes.iter().filter(|o| **o == "scan").count();
    assert!(served >= 1, "at least one burst member must be served");

    let mut client = Client::connect(&addr).expect("connect");
    let status = client.status().expect("daemon alive after burst");
    assert_eq!(status.jobs_served, served as u64);

    client.shutdown().expect("shutdown ack");
    handle.wait();
}

#[test]
fn zero_deadline_times_out_with_typed_error() {
    let (apks, fw) = corpus_and_framework();
    let handle = start_server(&fw, &ephemeral(ServerConfig::default()));
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let sapk = codec::encode_apk(&apks[0]);
    match client.scan_sapk(&sapk, Some(0)) {
        Err(ClientError::Rejected(err)) => assert_eq!(err.code, "timeout"),
        other => panic!("expected timeout rejection, got {other:?}"),
    }
    // The daemon survives the expired deadline and keeps serving.
    let response = client.scan_sapk(&sapk, Some(120_000)).expect("scan");
    assert_eq!(response.report.package, apks[0].manifest.package);

    client.shutdown().expect("shutdown ack");
    handle.wait();
}

#[test]
fn metrics_request_reports_warm_cache_and_drained_queue() {
    let (apks, fw) = corpus_and_framework();
    let handle = start_server(
        &fw,
        &ephemeral(ServerConfig {
            jobs: 2,
            ..ServerConfig::default()
        }),
    );
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    // First scan: cold caches populate, registry starts counting.
    let sapk = codec::encode_apk(&apks[0]);
    client.scan_sapk(&sapk, Some(120_000)).expect("first scan");
    let cold = client.metrics().expect("metrics after first scan");
    assert_eq!(cold.counter("apps_scanned"), Some(1));

    // Second scan of the same package: warm path. The class cache must
    // show hits, and every cache lookup is exactly one hit or miss.
    client.scan_sapk(&sapk, Some(120_000)).expect("second scan");
    let warm = client.metrics().expect("metrics after second scan");
    assert_eq!(warm.counter("apps_scanned"), Some(2));
    let class = warm
        .class_cache
        .as_ref()
        .expect("warm engine carries a cache");
    assert!(
        class.hits > 0,
        "second scan of the same package must hit the class cache"
    );
    assert_eq!(class.hits + class.misses, class.lookups);

    // One scan_total span per job served, and the queue is fully
    // drained: depth and active both back to zero.
    let scan_total = warm.phase("scan_total").expect("phase always present");
    assert_eq!(scan_total.count, 2);
    assert!(scan_total.total_ns > 0);
    let queue = warm.queue.as_ref().expect("daemon reports its queue");
    assert_eq!(queue.depth, 0, "queue must be drained after replies");
    assert_eq!(queue.active, 0, "no job may still be running");
    assert_eq!(queue.served, 2);
    // One serialize span per scan response the workers rendered.
    assert_eq!(warm.phase("serialize").map(|p| p.count), Some(2));

    // Counters only ever grow across requests.
    for (c0, c1) in cold.counters.iter().zip(&warm.counters) {
        assert_eq!(c0.name, c1.name);
        assert!(c1.value >= c0.value, "counter {} went backwards", c0.name);
    }

    // Wrong protocol version on a metrics request: typed error, daemon
    // stays up and keeps answering versioned metrics requests.
    let raw = client
        .raw_roundtrip(r#"{"v":99,"kind":"metrics"}"#)
        .expect("reply");
    assert!(raw.contains("\"unsupported_version\""), "{raw}");
    let after = client.metrics().expect("daemon alive after bad version");
    assert_eq!(after.counter("apps_scanned"), Some(2));
    assert_eq!(
        after.phase("serialize").map(|p| p.count),
        Some(2),
        "reactor-answered requests are not worker serializations"
    );

    client.shutdown().expect("shutdown ack");
    handle.wait();
}

#[test]
fn delta_verb_reuses_warm_artifacts_and_stays_byte_identical() {
    let (apks, fw) = corpus_and_framework();
    let store = std::env::temp_dir().join(format!("saint-delta-e2e-{}", std::process::id()));
    let handle = start_server(
        &fw,
        &ephemeral(ServerConfig {
            jobs: 2,
            delta_dir: Some(store.clone()),
            ..ServerConfig::default()
        }),
    );
    let addr = handle.addr().to_string();
    let local_tool = SaintDroid::new(Arc::clone(&fw));
    let mut client = Client::connect(&addr).expect("connect");

    let sapk = codec::encode_apk(&apks[0]);
    let local: Report = local_tool.run(&apks[0]);

    // Cold: every class-group is a miss, the store is populated.
    let cold = client.delta_sapk(&sapk, Some(120_000)).expect("cold delta");
    let cold_delta = cold.delta.expect("store-backed daemon reports reuse");
    assert!(!cold_delta.app_hit, "first sighting cannot hit the app key");
    assert_eq!(cold_delta.hits + cold_delta.misses, cold_delta.classes_seen);

    // Warm: the whole-app fast path answers from the store.
    let warm = client.delta_sapk(&sapk, Some(120_000)).expect("warm delta");
    let warm_delta = warm.delta.expect("delta accounting present");
    assert!(warm_delta.app_hit, "unchanged rescan must hit the app key");
    assert_eq!(warm_delta.reanalyzed, 0);

    // Both answers are byte-identical to a plain local scan.
    for (label, resp) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(
            serde_json::to_string(&resp.report.mismatches).unwrap(),
            serde_json::to_string(&local.mismatches).unwrap(),
            "{label} delta findings diverged from local scan"
        );
        assert_eq!(
            serde_json::to_string(&resp.report.meter).unwrap(),
            serde_json::to_string(&local.meter).unwrap(),
            "{label} delta meter diverged from local scan"
        );
    }

    client.shutdown().expect("shutdown ack");
    handle.wait();
    let _ = std::fs::remove_dir_all(&store);
}

/// Replays answered before decode stay sound: once a package is
/// memoized, a one-byte-corrupted copy (same manifest, broken body)
/// misses the byte key and gets the decoder's typed `bad_package`
/// answer with its offset — never the memoized report — while the
/// original bytes still replay byte-identically, and the daemon counts
/// exactly that replay as answered before decode.
#[test]
fn flipped_byte_is_a_typed_bad_package_never_a_replay() {
    let (apks, fw) = corpus_and_framework();
    let store = std::env::temp_dir().join(format!("saint-delta-flip-{}", std::process::id()));
    let handle = start_server(
        &fw,
        &ephemeral(ServerConfig {
            jobs: 2,
            delta_dir: Some(store.clone()),
            ..ServerConfig::default()
        }),
    );
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let sapk = codec::encode_apk(&apks[0]);
    // The first body byte whose flip the decoder rejects at a known
    // offset; the manifest in front of it still parses.
    let header_len = (0..sapk.len())
        .find(|&cut| codec::decode_manifest(&sapk[..cut]).is_ok())
        .expect("header is a strict prefix");
    let (flipped, offset) = (header_len..sapk.len())
        .find_map(|i| {
            let mut bytes = sapk.clone();
            bytes[i] ^= 0xff;
            let offset = codec::decode_apk(&bytes).err()?.offset()?;
            Some((bytes, offset as u64))
        })
        .expect("some body byte flip is rejected with an offset");
    assert_eq!(
        codec::decode_manifest(&flipped).map(|m| m.package),
        Ok(apks[0].manifest.package.clone()),
        "test premise: the corrupted copy names the same package"
    );

    let cold = client.delta_sapk(&sapk, Some(120_000)).expect("cold delta");
    let cold_delta = cold.delta.expect("store-backed daemon reports reuse");
    assert!(!cold_delta.app_hit);
    assert_eq!(cold_delta.hits + cold_delta.misses, cold_delta.classes_seen);
    // The cold scan read the store (the app key and at least one group
    // key miss) and wrote it (the missed groups, then the app).
    let store_spans = |m: &MetricsResponse| m.phase("delta_store").map(|p| p.count);
    let cold_io = store_spans(&client.metrics().expect("metrics")).expect("phase always present");
    assert!(cold_delta.misses > 0);
    assert!(
        cold_io >= 4,
        "a written store records its I/O: {cold_io} spans"
    );

    match client.delta_sapk(&flipped, Some(120_000)) {
        Err(ClientError::Rejected(err)) => {
            assert_eq!(err.code, "bad_package", "{}", err.message);
            assert_eq!(err.offset, Some(offset), "the decoder's offset is reported");
        }
        other => panic!("a corrupted container must be rejected, got {other:?}"),
    }

    let warm = client.delta_sapk(&sapk, Some(120_000)).expect("warm delta");
    let warm_delta = warm.delta.expect("delta accounting present");
    assert!(warm_delta.app_hit, "the original bytes still replay");
    assert_eq!(warm_delta.hits + warm_delta.misses, warm_delta.classes_seen);
    assert_eq!(warm_delta.classes_seen, cold_delta.classes_seen);
    let canon = |r: &Report| {
        let mut r = r.clone();
        r.duration = std::time::Duration::ZERO;
        serde_json::to_string(&r).unwrap()
    };
    assert_eq!(canon(&warm.report), canon(&cold.report));
    assert_eq!(warm.exit_code, cold.exit_code);

    // One request answered before decode; every request — the rejected
    // one included — books exactly one decode span.
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.counter("delta_undecoded_replays"), Some(1));
    assert_eq!(metrics.phase("decode").map(|p| p.count), Some(3));
    // Each of the three answers was rendered once, and the replay
    // before decode touched the store not at all.
    assert_eq!(metrics.phase("serialize").map(|p| p.count), Some(3));
    assert_eq!(store_spans(&metrics), Some(cold_io));

    client.shutdown().expect("shutdown ack");
    handle.wait();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn delta_verb_without_a_store_degrades_to_a_plain_scan() {
    let (apks, fw) = corpus_and_framework();
    let handle = start_server(&fw, &ephemeral(ServerConfig::default()));
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let sapk = codec::encode_apk(&apks[0]);
    let response = client.delta_sapk(&sapk, Some(120_000)).expect("delta");
    assert!(
        response.delta.is_none(),
        "a daemon without --delta-dir answers a plain full scan"
    );
    assert_eq!(response.report.package, apks[0].manifest.package);

    client.shutdown().expect("shutdown ack");
    handle.wait();
}

#[test]
fn shutdown_drains_and_joins_all_threads() {
    let (apks, fw) = corpus_and_framework();
    let handle = start_server(
        &fw,
        &ephemeral(ServerConfig {
            jobs: 2,
            window: 4,
            ..ServerConfig::default()
        }),
    );
    let addr = handle.addr().to_string();

    // Serve something first so the drain has real state behind it.
    let mut client = Client::connect(&addr).expect("connect");
    let sapk = codec::encode_apk(&apks[0]);
    client.scan_sapk(&sapk, Some(120_000)).expect("scan");

    let ack = client.shutdown().expect("shutdown ack");
    assert_eq!(ack.jobs_served, 1);
    // Every acceptor and worker joins: the daemon exits cleanly.
    handle.wait();
}

/// A DSD-enabled daemon serves reports byte-identical to a local
/// DSD-enabled scan, advertises its detector set in `status`, and
/// enforces the request-side `detectors` assertion with a typed
/// `detector_mismatch` on both the fast (scan) and slow (delta)
/// parse paths.
#[test]
fn dsd_daemon_matches_local_scan_and_checks_detector_assertions() {
    use saint_service::protocol::{self, ScanRequest};
    use saintdroid::DetectorSet;

    let fw = Arc::new(AndroidFramework::curated());
    let engine =
        ScanEngine::from_tool(SaintDroid::new(Arc::clone(&fw)).with_detectors(DetectorSet::all()));
    engine.prewarm();
    let handle = saint_service::start(engine, &ephemeral(ServerConfig::default()))
        .expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let status = client.status().expect("status");
    assert_eq!(
        status.detectors.as_deref(),
        Some("api,apc,prm,dsd"),
        "the daemon advertises its detector families"
    );

    let local_tool = SaintDroid::new(Arc::clone(&fw)).with_detectors(DetectorSet::all());
    let apps = saint_corpus::planted_suite();
    for app in &apps {
        let sapk = codec::encode_apk(&app.apk);
        let response = client
            .scan_sapk(&sapk, Some(120_000))
            .expect("scan succeeds");
        let local: Report = local_tool.run(&app.apk);
        assert_eq!(
            serde_json::to_string(&response.report.mismatches).unwrap(),
            serde_json::to_string(&local.mismatches).unwrap(),
            "{}: daemon findings diverged from local DSD scan",
            app.name
        );
    }
    // The planted corpus actually exercised the DSD family end to end.
    let overuse = apps.iter().find(|a| a.name == "Planted-Overuse").unwrap();
    let local = local_tool.run(&overuse.apk);
    assert!(!local.is_clean(), "test premise: planted overuse fires");

    let sapk = codec::encode_apk(&overuse.apk);
    // A matching assertion is served normally (fast parse path).
    let line = protocol::to_line(&ScanRequest::new(&sapk, Some(120_000)).with_detectors("all"));
    let raw = client.raw_roundtrip(line.trim_end()).expect("reply");
    assert!(raw.contains("\"exit_code\""), "asserted scan served: {raw}");
    // A stale AMD-era assertion is refused, typed (fast parse path).
    let line = protocol::to_line(&ScanRequest::new(&sapk, None).with_detectors("amd"));
    let raw = client.raw_roundtrip(line.trim_end()).expect("reply");
    assert!(raw.contains("\"detector_mismatch\""), "{raw}");
    // Same check on the slow parse path (the `delta` verb never takes
    // the zero-copy fast path).
    let line = protocol::to_line(
        &ScanRequest::new(&sapk, None)
            .with_detectors("amd")
            .into_delta(),
    );
    let raw = client.raw_roundtrip(line.trim_end()).expect("reply");
    assert!(raw.contains("\"detector_mismatch\""), "{raw}");
    // An unparseable spec is refused, not guessed at.
    let line = protocol::to_line(&ScanRequest::new(&sapk, None).with_detectors("warp-drive"));
    let raw = client.raw_roundtrip(line.trim_end()).expect("reply");
    assert!(raw.contains("\"detector_mismatch\""), "{raw}");

    // The daemon survived every rejection and still serves.
    client.scan_sapk(&sapk, Some(120_000)).expect("still alive");

    client.shutdown().expect("shutdown ack");
    handle.wait();
}
