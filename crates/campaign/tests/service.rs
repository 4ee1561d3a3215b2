//! Tentpole acceptance: the verdict store and the `gqed serve` loop.
//!
//! Pins the ISSUE's cache contract end to end: a cold campaign populates
//! the content-addressed store, resubmitting the identical batch re-solves
//! zero obligations (`cache_hits == jobs`) and reproduces the normalized
//! summary byte for byte at any worker count — while mutating a design's
//! IR invalidates exactly that design's entries.

use gqed_campaign::{
    derive_key, enumerate_obligations, serve, submit_batch, BatchRequest, Campaign, CampaignConfig,
    CampaignSummary, EngineId, FlowFilter, JsonValue, Obligation, ObligationKind, ObligationSpec,
    ReplayedRecord, ServeOptions, Telemetry, VerdictStore,
};
use gqed_campaign::{request_shutdown, JobVerdict};
use gqed_core::{build_model, model_fingerprint, CheckKind};
use gqed_ha::all_designs;
use std::net::TcpListener;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gqed-service-{}-{name}", std::process::id()))
}

/// Bounded-BMC-only keeps every verdict exactly deterministic (see
/// `determinism.rs`) and every relu obligation cheap.
fn bmc_config(jobs: usize) -> CampaignConfig {
    CampaignConfig::default()
        .with_jobs(jobs)
        .with_engines(vec![EngineId::Bmc])
}

fn relu_obligations() -> Vec<Obligation> {
    let obls = enumerate_obligations(FlowFilter::all(), &["relu".to_string()]);
    assert!(!obls.is_empty());
    obls
}

#[test]
fn resubmitted_campaign_is_fully_cached_at_any_worker_count() {
    let path = tmp("store.j1");
    std::fs::remove_file(&path).ok();
    let obls = relu_obligations();
    let n = obls.len() as u64;

    // Cold run: every obligation is a miss and lands in the store.
    let store = VerdictStore::open(&path).unwrap();
    let cold = Campaign::new(&obls)
        .config(bmc_config(1))
        .verdict_store(&store)
        .run(&Telemetry::null());
    assert!(cold.is_success(), "cold campaign failed: {cold:?}");
    assert_eq!((cold.cache_hits, cold.cache_misses), (0, n));
    assert_eq!(
        store.len() as u64,
        n,
        "every BMC verdict is conclusive, so every one must be stored"
    );
    drop(store);

    // Warm runs: zero obligations re-solved, byte-identical normalized
    // summary — independent of the worker count, and of whether the probe
    // reads the model cache's memoised fingerprint (warm start) or renders
    // a fresh build (cold): both must derive the same store keys.
    for (jobs, warm_start) in [(1, true), (4, true), (1, false)] {
        let store = VerdictStore::open(&path).unwrap();
        let warm = Campaign::new(&obls)
            .config(bmc_config(jobs).with_warm_start(warm_start))
            .verdict_store(&store)
            .run(&Telemetry::null());
        assert_eq!(
            (warm.cache_hits, warm.cache_misses),
            (n, 0),
            "warm run at {jobs} workers (warm start {warm_start}) re-solved something"
        );
        assert_eq!(
            warm.normalized_render(),
            cold.normalized_render(),
            "cached verdicts diverge from solved ones at {jobs} workers"
        );
        // The cached records keep their attribution.
        for r in &warm.records {
            assert!(
                r.cached,
                "{} was not served from the store",
                r.obligation.id
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// The scheduling half of the configuration must not partition the cache:
/// a verdict computed at one worker count / deadline is valid at another.
#[test]
fn store_keys_ignore_scheduling_but_track_solver_relevant_config() {
    let entry = all_designs()
        .into_iter()
        .find(|e| e.name == "relu")
        .unwrap();
    let fp = model_fingerprint(&build_model(&entry.build_clean(), CheckKind::GQed));
    let obl = Obligation {
        id: "relu/clean/gqed".to_string(),
        design: "relu",
        bug: None,
        mutation: None,
        kind: ObligationKind::Check {
            kind: CheckKind::GQed,
            bound: 6,
        },
        expect_violation: Some(false),
    };
    let base = CampaignConfig::default();
    let key = derive_key(fp, &obl, &base);
    assert_eq!(key, derive_key(fp, &obl, &base.clone().with_jobs(8)));
    assert_eq!(key, derive_key(fp, &obl, &base.clone().with_deadline_ms(5)));
    assert_eq!(
        key,
        derive_key(fp, &obl, &base.clone().with_warm_start(false))
    );
    assert_ne!(key, derive_key(fp, &obl, &base.clone().with_base_budget(7)));
    assert_ne!(
        key,
        derive_key(fp, &obl, &base.clone().with_max_attempts(9))
    );
    assert_ne!(
        key,
        derive_key(fp, &obl, &base.clone().with_engines(vec![EngineId::Bmc]))
    );
    let deeper = Obligation {
        kind: ObligationKind::Check {
            kind: CheckKind::GQed,
            bound: 7,
        },
        ..obl.clone()
    };
    assert_ne!(key, derive_key(fp, &deeper, &base));
}

#[test]
fn ir_mutation_invalidates_exactly_that_designs_entries() {
    let entry = |name: &str| all_designs().into_iter().find(|e| e.name == name).unwrap();
    let relu = entry("relu");
    let fp_clean = model_fingerprint(&build_model(&relu.build_clean(), CheckKind::GQed));
    let bug = (relu.bugs)().first().expect("relu has bugs").id;
    let fp_mutated = model_fingerprint(&build_model(&relu.build_buggy(bug), CheckKind::GQed));
    let vecadd = entry("vecadd");
    let fp_vecadd = model_fingerprint(&build_model(&vecadd.build_clean(), CheckKind::GQed));

    let check = |design: &'static str| Obligation {
        id: format!("{design}/clean/gqed"),
        design,
        bug: None,
        mutation: None,
        kind: ObligationKind::Check {
            kind: CheckKind::GQed,
            bound: 6,
        },
        expect_violation: Some(false),
    };
    let config = CampaignConfig::default();
    let record = ReplayedRecord {
        verdict: JobVerdict::Clean { bound: 6 },
        attempts: 1,
        engine: "bmc",
        frames_solved: 7,
        wall_ms: 1,
    };

    let store = VerdictStore::in_memory().unwrap();
    let k_relu = derive_key(fp_clean, &check("relu"), &config);
    let k_vecadd = derive_key(fp_vecadd, &check("vecadd"), &config);
    store.put(k_relu, &record).unwrap();
    store.put(k_vecadd, &record).unwrap();

    // The mutated relu build misses — its fingerprint changed — while the
    // untouched vecadd entry (and the unmutated relu entry) still hit.
    let k_mutated = derive_key(fp_mutated, &check("relu"), &config);
    assert_ne!(k_relu, k_mutated);
    assert!(store.get(k_mutated).is_none());
    assert!(store.get(k_relu).is_some());
    assert!(store.get(k_vecadd).is_some());
}

#[test]
fn served_batches_hit_the_cache_on_resubmission() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let opts = ServeOptions {
            config: bmc_config(2),
            store: None, // in-memory: shared across batches within the server
            ..ServeOptions::default()
        };
        serve(listener, &opts)
    });

    let obls = relu_obligations();
    let request = BatchRequest {
        batch: "service-test".to_string(),
        jobs: None,
        deadline_ms: None,
        budget: None,
        max_attempts: None,
        engines: None,
        obligations: obls
            .iter()
            .map(|o| ObligationSpec::from_obligation(o).unwrap())
            .collect(),
    };
    let n = obls.len() as u64;

    let first = submit_batch(&addr, &request, |_| {}).unwrap();
    assert_eq!(first.exit_code, 0, "cold batch failed: {first:?}");
    assert_eq!((first.cache_hits, first.cache_misses), (0, n));
    assert_eq!(first.obligations, n);

    // Resubmission: zero re-solves, a `job_cached` event per obligation,
    // and a byte-identical normalized summary.
    let mut cached_events = 0u64;
    let second = submit_batch(&addr, &request, |event| {
        if event.get("type").and_then(JsonValue::as_str) == Some("job_cached") {
            cached_events += 1;
        }
    })
    .unwrap();
    assert_eq!((second.cache_hits, second.cache_misses), (n, 0));
    assert_eq!(cached_events, n);
    assert_eq!(second.normalized, first.normalized);
    assert_eq!(second.exit_code, 0);

    // Batch-level failures are structured errors, not dropped connections
    // — and they leave the server alive for the next request.
    let mut bad = request.clone();
    bad.obligations[0].design = "no-such-design".to_string();
    let err = submit_batch(&addr, &bad, |_| {}).unwrap_err();
    assert_eq!(err.code, "unknown-design");
    let mut unknown_engine = request.clone();
    unknown_engine.engines = Some(vec!["zchaff".to_string()]);
    let err = submit_batch(&addr, &unknown_engine, |_| {}).unwrap_err();
    assert_eq!(err.code, "unknown-engine");

    let third = submit_batch(&addr, &request, |_| {}).unwrap();
    assert_eq!(third.cache_hits, n);

    request_shutdown(&addr).unwrap();
    server.join().unwrap().unwrap();
}

/// A client streaming an oversize request line gets a structured
/// `request-too-large` error and a clean close — and the server keeps
/// serving well-formed batches afterwards.
#[test]
fn oversize_request_gets_a_structured_error_and_the_server_survives() {
    use std::io::{BufRead, BufReader, Write};

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let opts = ServeOptions {
            config: bmc_config(1),
            // Big enough for a real relu batch request, far smaller than
            // the junk line below.
            max_request_bytes: 64 << 10,
            ..ServeOptions::default()
        };
        serve(listener, &opts)
    });

    // 256 KiB of junk on one line: four times the configured cap.
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.write_all(&vec![b'x'; 256 << 10]).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut line = String::new();
    BufReader::new(&stream).read_line(&mut line).unwrap();
    let answer = gqed_campaign::parse_json(&line).expect("structured error line");
    assert_eq!(
        answer.get("type").and_then(JsonValue::as_str),
        Some("error")
    );
    assert_eq!(
        answer.get("code").and_then(JsonValue::as_str),
        Some("request-too-large")
    );
    drop(stream);

    // The server is still alive and still answers real batches.
    let obls = relu_obligations();
    let request = BatchRequest {
        batch: "after-oversize".to_string(),
        jobs: None,
        deadline_ms: None,
        budget: None,
        max_attempts: None,
        engines: None,
        obligations: obls
            .iter()
            .map(|o| ObligationSpec::from_obligation(o).unwrap())
            .collect(),
    };
    let response = submit_batch(&addr, &request, |_| {}).unwrap();
    assert_eq!(response.exit_code, 0);

    request_shutdown(&addr).unwrap();
    let summary = server.join().unwrap().unwrap();
    assert_eq!(summary.oversize_requests, 1);
    assert_eq!(
        summary.connection_errors, 0,
        "a protocol error must not count as a connection error"
    );
    assert_eq!(summary.batches, 1);
}

/// A silent client hits the read timeout, gets a structured `timeout`
/// error, and is counted — without blocking the serve loop.
#[test]
fn silent_client_is_timed_out_with_a_structured_error() {
    use std::io::{BufRead, BufReader};

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let opts = ServeOptions {
            config: bmc_config(1),
            read_timeout: Some(std::time::Duration::from_millis(100)),
            ..ServeOptions::default()
        };
        serve(listener, &opts)
    });

    // Connect and send nothing: the server must answer, not hang.
    let stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut line = String::new();
    BufReader::new(&stream).read_line(&mut line).unwrap();
    let answer = gqed_campaign::parse_json(&line).expect("structured error line");
    assert_eq!(
        answer.get("code").and_then(JsonValue::as_str),
        Some("timeout")
    );
    drop(stream);

    request_shutdown(&addr).unwrap();
    let summary = server.join().unwrap().unwrap();
    assert_eq!(summary.timeouts, 1);
    assert_eq!(summary.connection_errors, 0);
}

/// Raising the interrupt flag stops an idle server blocked in `accept`:
/// the waker's connection unblocks it and is not counted as a client.
#[test]
fn interrupt_stops_an_idle_server_without_counting_the_wake_connection() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let interrupt = Arc::new(AtomicBool::new(false));
    let (telemetry, buffer) = Telemetry::buffer();
    let opts = ServeOptions {
        config: bmc_config(1).with_interrupt(Arc::clone(&interrupt)),
        telemetry,
        ..ServeOptions::default()
    };
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        let result = serve(listener, &opts);
        done_tx.send(()).unwrap();
        result
    });

    // Give the loop time to block in `accept`, the path under test. A
    // flag raised earlier stops it too, through the loop's first check.
    std::thread::sleep(Duration::from_millis(100));
    interrupt.store(true, Ordering::Relaxed);
    done_rx
        .recv_timeout(Duration::from_secs(2))
        .expect("serve must return within 2 s of the interrupt");
    let summary = server.join().unwrap().unwrap();
    assert_eq!(summary.connections, 0, "the wake connection was counted");
    assert!(
        buffer
            .lines()
            .iter()
            .any(|l| l.contains(r#""type":"serve_summary""#)),
        "no serve_summary event: {:?}",
        buffer.lines()
    );
}

/// Transport failures retry with an observable backoff schedule;
/// structured protocol errors do not.
#[test]
fn submit_retry_backs_off_on_refused_connections_only() {
    use gqed_campaign::submit_batch_with_retry;

    // Bind and immediately drop a listener: the port now refuses.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let request = BatchRequest {
        batch: "retry-test".to_string(),
        jobs: None,
        deadline_ms: None,
        budget: None,
        max_attempts: None,
        engines: None,
        obligations: Vec::new(),
    };
    let mut retries_seen = Vec::new();
    let err = submit_batch_with_retry(
        &dead_addr,
        &request,
        2,
        std::time::Duration::from_millis(1),
        |event| {
            if event.get("type").and_then(JsonValue::as_str) == Some("submit_retry") {
                retries_seen.push((
                    event.get("attempt").and_then(JsonValue::as_u64).unwrap(),
                    event.get("delay_ms").and_then(JsonValue::as_u64).unwrap(),
                ));
            }
        },
    )
    .unwrap_err();
    assert_eq!(err.code, "io");
    // Two retries, doubling delays: attempt 1 waits 1ms, attempt 2 waits 2ms.
    assert_eq!(retries_seen, vec![(1, 1), (2, 2)]);
}

/// Normalized summaries carry no wall-clock content, so a cold solve and
/// a fully cached replay of the same obligations must render identically
/// even across separate store files.
#[test]
fn normalized_summary_is_deterministic_across_cold_and_cached_runs() {
    let obls = relu_obligations();
    let render = |summary: &CampaignSummary| summary.normalized_render();

    let store = VerdictStore::in_memory().unwrap();
    let cold = Campaign::new(&obls)
        .config(bmc_config(2))
        .verdict_store(&store)
        .run(&Telemetry::null());
    let cached = Campaign::new(&obls)
        .config(bmc_config(2))
        .verdict_store(&store)
        .run(&Telemetry::null());
    assert_eq!(cached.cache_hits, obls.len() as u64);
    assert_eq!(render(&cold), render(&cached));

    // And without any store at all, the normalized render still matches:
    // the cache changes how verdicts are obtained, never what they are.
    let plain = Campaign::new(&obls)
        .config(bmc_config(2))
        .run(&Telemetry::null());
    assert_eq!(render(&plain), render(&cold));
}
