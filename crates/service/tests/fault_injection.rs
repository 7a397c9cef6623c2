//! Service-level fault-injection acceptance tests: the `worker/kill:*`,
//! `campaign/checkpoint:*`, and `http/response:*` sites, plus the
//! NDJSON stream-abort hardening (a follower that vanishes mid-stream
//! must release its handler slot and be counted, never wedge the pool).
//!
//! The fault plan is process-global, so every test here holds
//! [`serial`] for its whole body — plans installed by one test would
//! otherwise eat another test's HTTP requests.
#![allow(clippy::unwrap_used)] // integration tests assert by panicking

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use symbist_defects::DefectRecord;
use symbist_obs::FaultPlan;
use symbist_service::backend::{CampaignBackend, Gate, SyntheticBackend};
use symbist_service::client::{Client, ClientError, ServiceError};
use symbist_service::http::{Server, ServiceConfig};
use symbist_service::spec::JobSpec;
use symbist_service::Json;

const POLL: Duration = Duration::from_millis(10);

/// Serializes the whole binary: fault plans are process-global.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn start(config: ServiceConfig, backend: Arc<dyn CampaignBackend>) -> (Server, Client) {
    let server = Server::start(config, backend).expect("server starts");
    let client = Client::builder()
        .base_url(server.addr().to_string())
        .build();
    (server, client)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("symbist-fault-svc-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(POLL);
    }
}

/// The first sample value of an exact series in a Prometheus exposition.
fn metric_value(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

#[test]
fn dropped_follower_mid_stream_is_counted_and_releases_the_handler() {
    let _serial = serial();
    let gate = Gate::new();
    gate.hold();
    let backend = Arc::new(SyntheticBackend::new(6).with_gate(Arc::clone(&gate)));
    // One handler: if the abandoned follow wedged its slot, every later
    // request in this test would hang — slot release is load-bearing.
    let config = ServiceConfig {
        handlers: 1,
        ..ServiceConfig::default()
    };
    let (server, client) = start(config, backend);

    let id = client.submit(&JobSpec::default()).expect("submit");
    wait_until("job running", || {
        client
            .status(id)
            .is_ok_and(|s| s.get("state").and_then(Json::as_str) == Some("running"))
    });
    let before = metric_value(
        &client.metrics().expect("metrics"),
        "symbist_service_stream_aborts_total",
    )
    .unwrap_or(0.0);

    // Open a follow stream on the live (gate-held) job, then vanish.
    let stream = client.stream_results(id).expect("stream opens");
    drop(stream);
    // Let the RST land before records start flowing to the dead socket.
    std::thread::sleep(Duration::from_millis(100));
    gate.release();

    // The handler notices the dead peer, counts the abort, and frees its
    // slot — so this health probe (same single handler) must come back.
    wait_until("handler slot released", || client.health().is_ok());
    wait_until("stream abort counted", || {
        client.metrics().is_ok_and(|m| {
            metric_value(&m, "symbist_service_stream_aborts_total").unwrap_or(0.0) >= before + 1.0
        })
    });

    // The job itself is unaffected by its follower's death.
    let (state, _) = client.wait_terminal(id, POLL).expect("terminal");
    assert_eq!(state, "completed");
    server.request_shutdown();
    server.wait();
}

#[test]
fn worker_kill_after_k_records_fails_the_job_with_k_durable_records() {
    let _serial = serial();
    let (server, client) = start(ServiceConfig::default(), Arc::new(SyntheticBackend::new(6)));
    let plan = Arc::new(FaultPlan::parse("worker/kill:kchaos@3=panic").unwrap());
    let _guard = symbist_obs::fault::install(plan);

    let spec = JobSpec {
        tag: Some("kchaos".into()),
        ..JobSpec::default()
    };
    let id = client.submit(&spec).expect("submit");
    let (state, status) = client.wait_terminal(id, POLL).expect("terminal");
    assert_eq!(state, "failed");
    let error = status.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("fault-injected worker kill"), "{error}");

    // The kill fires *after* the third record is durable and published:
    // exactly 3 records, no torn or divergent fourth.
    let done = status
        .get("progress")
        .and_then(|p| p.get("done"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(done, 3);
    let records: Vec<DefectRecord> = client
        .stream_results(id)
        .expect("stream of failed job")
        .map(|r| r.expect("record parses"))
        .collect();
    assert_eq!(records.len(), 3);

    // The worker thread survived: an untagged job sails through.
    let ok = client.submit(&JobSpec::default()).expect("submit 2");
    let (state, _) = client.wait_terminal(ok, POLL).expect("terminal 2");
    assert_eq!(state, "completed");

    server.request_shutdown();
    server.wait();
}

#[test]
fn checkpoint_flush_panic_fails_the_job_not_the_worker() {
    let _serial = serial();
    let data_dir = temp_dir("ckpt-panic");
    let config = ServiceConfig {
        workers: 1,
        data_dir: Some(data_dir.clone()),
        ..ServiceConfig::default()
    };
    let (server, client) = start(config, Arc::new(SyntheticBackend::new(4)));

    {
        let plan = Arc::new(FaultPlan::parse("campaign/checkpoint:@2=panic").unwrap());
        let _guard = symbist_obs::fault::install(plan);
        let id = client.submit(&JobSpec::default()).expect("submit");
        let (state, status) = client.wait_terminal(id, POLL).expect("terminal");
        assert_eq!(state, "failed");
        let error = status.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("panicked"), "{error}");
        // The panic unwound before the second write: one durable line.
        let ckpt = std::fs::read_to_string(data_dir.join(format!("job-{id:06}.ckpt.jsonl")))
            .expect("checkpoint file");
        assert_eq!(ckpt.lines().count(), 1);
    }

    // Plan uninstalled: the single worker survived and keeps serving.
    let ok = client.submit(&JobSpec::default()).expect("submit 2");
    let (state, _) = client.wait_terminal(ok, POLL).expect("terminal 2");
    assert_eq!(state, "completed");

    server.request_shutdown();
    server.wait();
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn dropped_http_response_is_survived_by_client_retries() {
    let _serial = serial();
    let (server, _) = start(ServiceConfig::default(), Arc::new(SyntheticBackend::new(2)));

    // Without retries, the dropped response surfaces as a transport error.
    {
        let plan = Arc::new(FaultPlan::parse("http/response:GET /v1/healthz@1=drop").unwrap());
        let _guard = symbist_obs::fault::install(plan);
        let bare = Client::builder()
            .base_url(server.addr().to_string())
            .build();
        assert!(matches!(bare.health(), Err(ClientError::Io(_))));
    }

    // With retries and the seeded backoff, the same fault is absorbed.
    {
        let plan = Arc::new(FaultPlan::parse("http/response:GET /v1/healthz@1=drop").unwrap());
        let _guard = symbist_obs::fault::install(plan);
        let retrying = Client::builder()
            .base_url(server.addr().to_string())
            .retries(2)
            .backoff(Duration::from_millis(1), Duration::from_millis(5))
            .backoff_seed(7)
            .build();
        retrying
            .health()
            .expect("retry absorbs the dropped response");
    }

    server.request_shutdown();
    server.wait();
}

#[test]
fn rejected_submit_surfaces_as_typed_transient_error() {
    let _serial = serial();
    let (server, client) = start(ServiceConfig::default(), Arc::new(SyntheticBackend::new(2)));
    let plan = Arc::new(FaultPlan::parse("http/response:POST /v1/jobs@1=reject").unwrap());
    let _guard = symbist_obs::fault::install(plan);

    match client.submit(&JobSpec::default()) {
        Err(ClientError::Service(ServiceError::QueueFull {
            message,
            retry_after,
        })) => {
            assert!(message.contains("fault-injected"), "{message}");
            assert_eq!(retry_after, Some(1), "rejection carries a retry hint");
        }
        other => panic!("expected queue_full, got {other:?}"),
    }
    // The rule's occurrence window has passed: the next submit lands.
    let id = client.submit(&JobSpec::default()).expect("submit 2");
    let (state, _) = client.wait_terminal(id, POLL).expect("terminal");
    assert_eq!(state, "completed");

    server.request_shutdown();
    server.wait();
}
