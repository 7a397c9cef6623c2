//! End-to-end acceptance tests for the campaign job service, exercised
//! through the real TCP/HTTP stack: submit → poll → stream → report,
//! queue-full `503` backpressure, handler-pool `429` refusal, live NDJSON
//! streaming, cancellation, the `/v1` routing contract (404 outside
//! `/v1`, uniform error envelopes, Prometheus metrics, trace export),
//! and the drain/restart resume contract (the service-level version of
//! the campaign runner's kill-and-resume oracle).
#![allow(clippy::unwrap_used)] // integration tests assert by panicking

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use symbist_defects::{CampaignResult, DefectRecord};
use symbist_service::backend::{CampaignBackend, Gate, SyntheticBackend};
use symbist_service::client::{Client, ClientError, ServiceError};
use symbist_service::http::{Server, ServiceConfig};
use symbist_service::spec::JobSpec;
use symbist_service::Json;

const POLL: Duration = Duration::from_millis(10);

fn start(config: ServiceConfig, backend: Arc<dyn CampaignBackend>) -> (Server, Client) {
    let server = Server::start(config, backend).expect("server starts");
    let client = Client::builder()
        .base_url(server.addr().to_string())
        .build();
    (server, client)
}

/// Fresh scratch directory per test (the suite runs concurrently).
fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("symbist-service-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn progress_done(status: &Json) -> u64 {
    status
        .get("progress")
        .and_then(|p| p.get("done"))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Polls until `pred` holds, panicking after a generous deadline.
fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(POLL);
    }
}

#[test]
fn submit_poll_stream_report_lifecycle() {
    let backend = Arc::new(SyntheticBackend::new(6));
    let universe = backend.universe_len();
    let (server, client) = start(ServiceConfig::default(), backend);

    client.health().expect("healthz");
    let id = client.submit(&JobSpec::default()).expect("submit");
    let (state, status) = client.wait_terminal(id, POLL).expect("terminal");
    assert_eq!(state, "completed");
    assert_eq!(progress_done(&status) as usize, universe);

    let records: Vec<DefectRecord> = client
        .stream_results(id)
        .expect("stream")
        .map(|r| r.expect("record parses"))
        .collect();
    assert_eq!(records.len(), universe);

    let report = client.report(id).expect("report");
    let coverage = report.get("coverage").expect("coverage pair");
    let lower = coverage.get("lower").and_then(Json::as_f64).unwrap();
    let upper = coverage.get("upper").and_then(Json::as_f64).unwrap();
    assert!(
        (0.0..=1.0).contains(&lower) && lower <= upper,
        "{lower} <= {upper}"
    );

    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(1));

    server.request_shutdown();
    server.wait();
}

#[test]
fn bad_specs_are_rejected_with_400() {
    let (server, client) = start(ServiceConfig::default(), Arc::new(SyntheticBackend::new(3)));
    for spec in [
        JobSpec {
            sample_size: Some(10_000), // larger than the universe
            ..Default::default()
        },
        JobSpec {
            block: Some("No Such Block".into()),
            ..Default::default()
        },
    ] {
        match client.submit(&spec) {
            Err(ClientError::Service(ServiceError::BadRequest(_))) => {}
            other => panic!("expected bad_request, got {other:?}"),
        }
    }
    // A campaign would spawn one OS thread per requested thread: a spec
    // above `MAX_THREADS` is refused with the stable code before any job
    // exists.
    let (status, body) = raw_request(server.addr(), "POST", "/v1/jobs", r#"{"threads": 100000}"#);
    assert_eq!(status, 400, "{body}");
    assert_eq!(
        parse_envelope(&body).get("code").and_then(Json::as_str),
        Some("bad_request")
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("submitted").and_then(Json::as_u64), Some(0));
    // Unknown routes and jobs.
    assert!(matches!(
        client.status(999),
        Err(ClientError::Service(ServiceError::NotFound(_)))
    ));
    server.request_shutdown();
    server.wait();
}

#[test]
fn queue_full_returns_503_backpressure() {
    // Capacity 2, one worker wedged on a held gate: the queue fills and
    // further submissions must bounce with 503, not block or drop.
    let gate = Gate::new();
    gate.hold();
    let backend = Arc::new(SyntheticBackend::new(3).with_gate(Arc::clone(&gate)));
    let config = ServiceConfig {
        queue_capacity: 2,
        workers: 1,
        ..ServiceConfig::default()
    };
    let (server, client) = start(config, backend);

    let first = client.submit(&JobSpec::default()).expect("first submit");
    // Wait until the worker has claimed it so the queue is empty again.
    wait_until("first job running", || {
        client
            .status(first)
            .is_ok_and(|s| s.get("state").and_then(Json::as_str) == Some("running"))
    });
    client.submit(&JobSpec::default()).expect("fills slot 1");
    client.submit(&JobSpec::default()).expect("fills slot 2");

    let mut rejections = 0;
    for _ in 0..3 {
        match client.submit(&JobSpec::default()) {
            Err(ClientError::Service(ServiceError::QueueFull {
                message,
                retry_after,
            })) => {
                assert!(message.contains("queue full"), "{message}");
                assert_eq!(retry_after, Some(1), "503 carries a retry hint");
                rejections += 1;
            }
            other => panic!("expected queue_full, got {other:?}"),
        }
    }
    assert_eq!(rejections, 3);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("rejected").and_then(Json::as_u64), Some(3));
    assert_eq!(stats.get("queue_depth").and_then(Json::as_u64), Some(2));
    // On the wire the hint is also the `Retry-After` header.
    let (status, headers, body) = raw_request_full(server.addr(), "POST", "/v1/jobs", "{}");
    assert_eq!(status, 503, "{body}");
    assert_eq!(header(&headers, "retry-after"), Some("1"));

    gate.release();
    server.request_shutdown();
    server.wait();
}

#[test]
fn results_stream_follows_a_live_job() {
    // The stream is opened while the job is provably not terminal (its
    // first defect is wedged on the gate), then must deliver every record
    // and terminate when the job completes.
    let gate = Gate::new();
    gate.hold();
    let backend = Arc::new(SyntheticBackend::new(5).with_gate(Arc::clone(&gate)));
    let universe = backend.universe_len();
    let (server, client) = start(ServiceConfig::default(), backend);

    let id = client.submit(&JobSpec::default()).expect("submit");
    wait_until("job running", || {
        client
            .status(id)
            .is_ok_and(|s| s.get("state").and_then(Json::as_str) == Some("running"))
    });
    assert_eq!(
        progress_done(&client.status(id).unwrap()),
        0,
        "gate held: no records yet"
    );

    let stream = client.stream_results(id).expect("stream opens on live job");
    let collector = std::thread::spawn(move || {
        stream
            .map(|r| r.expect("record parses"))
            .collect::<Vec<DefectRecord>>()
    });
    gate.release();
    let records = collector.join().expect("collector thread");
    assert_eq!(records.len(), universe, "stream delivered every record");

    let (state, _) = client.wait_terminal(id, POLL).expect("terminal");
    assert_eq!(state, "completed");
    server.request_shutdown();
    server.wait();
}

#[test]
fn delete_cancels_a_running_job() {
    let gate = Gate::new();
    gate.hold();
    let backend = Arc::new(SyntheticBackend::new(6).with_gate(Arc::clone(&gate)));
    let universe = backend.universe_len();
    let (server, client) = start(ServiceConfig::default(), backend);

    let id = client.submit(&JobSpec::default()).expect("submit");
    wait_until("job running", || {
        client
            .status(id)
            .is_ok_and(|s| s.get("state").and_then(Json::as_str) == Some("running"))
    });
    client.cancel(id).expect("cancel accepted");
    gate.release(); // let the wedged defect finish; the campaign then stops

    let (state, status) = client.wait_terminal(id, POLL).expect("terminal");
    assert_eq!(state, "cancelled");
    assert!(
        (progress_done(&status) as usize) < universe,
        "cancellation must stop the campaign early"
    );
    // Cancelling a finished job is a conflict.
    assert!(matches!(
        client.cancel(id),
        Err(ClientError::Service(ServiceError::Conflict(_)))
    ));
    server.request_shutdown();
    server.wait();
}

#[test]
fn saturated_handler_pool_returns_429() {
    // One handler, backlog of one. Wedge the handler with a half-open
    // request and park a second connection in the backlog; the acceptor
    // must then refuse further connections inline with 429.
    let config = ServiceConfig {
        handlers: 1,
        backlog: 1,
        ..ServiceConfig::default()
    };
    let (server, client) = start(config, Arc::new(SyntheticBackend::new(2)));
    let addr = server.addr();

    // Three half-open requests against capacity two (one handler + one
    // backlog slot). Whatever the claim timing, the handler can block on
    // at most one of them, another occupies the backlog slot, and the
    // rest bounce — so the saturated state is stable, not a race. The
    // acceptor routes connections in accept order, so by the time it
    // sees the health probe below, all three are accounted for.
    let mut wedges: Vec<TcpStream> = (0..3)
        .map(|i| {
            let mut stream = TcpStream::connect(addr).expect("wedge connects");
            stream.write_all(b"GET").expect("partial request");
            if i < 2 {
                // Give the acceptor a beat so the first two land in the
                // handler + slot rather than all three racing one
                // try_send window.
                std::thread::sleep(Duration::from_millis(50));
            }
            stream
        })
        .collect();

    match client.health() {
        Err(ClientError::Service(ServiceError::Saturated { .. })) => {}
        other => panic!("expected saturated, got {other:?}"),
    }

    // Completing the half-open requests restores service: the handler
    // finishes the one it claimed, then drains the backlog slot. (The
    // write to the already-refused connection fails; that's fine.)
    for wedge in &mut wedges {
        let _ = wedge.write_all(b" /healthz HTTP/1.1\r\n\r\n");
    }
    wait_until("service recovers", || client.health().is_ok());
    drop(wedges);
    server.request_shutdown();
    server.wait();
}

#[test]
fn shutdown_mid_job_then_restart_resumes_bit_identically() {
    // The service-level kill-and-resume oracle: drain a server mid-
    // campaign, restart on the same data directory, and the finished
    // job's records must match an uninterrupted run bit-for-bit on every
    // deterministic field (wall times of re-simulated defects may
    // legitimately differ — same contract as the campaign runner's own
    // resume tests).
    let data_dir = temp_dir("resume");
    let spec = JobSpec::default(); // threads=1: deterministic record order
    let components = 12;

    // Reference: the same campaign, uninterrupted, straight through the
    // backend (no service, no checkpoint).
    let reference: CampaignResult = SyntheticBackend::new(components)
        .run(&spec, None, &())
        .expect("reference campaign");

    // Server #1: slow backend so the drain lands mid-campaign.
    let backend = Arc::new(SyntheticBackend::new(components).with_delay(Duration::from_millis(10)));
    let config = ServiceConfig {
        workers: 1,
        data_dir: Some(data_dir.clone()),
        ..ServiceConfig::default()
    };
    let (server, client) = start(config.clone(), backend);
    let id = client.submit(&spec).expect("submit");
    wait_until("some records completed", || {
        client.status(id).is_ok_and(|s| progress_done(&s) >= 3)
    });
    client.shutdown().expect("POST /shutdown accepted");
    server.wait();

    // The drain persisted the interrupted job as queued, with a partial
    // checkpoint holding every completed record.
    let meta = std::fs::read_to_string(data_dir.join(format!("job-{id:06}.json")))
        .expect("job metadata persisted");
    assert!(meta.contains("\"state\":\"queued\""), "{meta}");
    let ckpt = std::fs::read_to_string(data_dir.join(format!("job-{id:06}.ckpt.jsonl")))
        .expect("checkpoint persisted");
    let persisted = ckpt.lines().count();
    assert!(
        persisted >= 3 && persisted < reference.records.len(),
        "expected a partial checkpoint, got {persisted} records"
    );

    // Server #2: same data dir, fast backend. Recovery re-enqueues the
    // job and the campaign resumes from the checkpoint.
    let (server2, client2) = start(config, Arc::new(SyntheticBackend::new(components)));
    let (state, status) = client2
        .wait_terminal(id, POLL)
        .expect("resumed to terminal");
    assert_eq!(state, "completed");
    let resumed = status
        .get("progress")
        .and_then(|p| p.get("resumed"))
        .and_then(Json::as_u64)
        .expect("resumed counter");
    assert!(
        resumed >= 3,
        "must reload checkpointed records, got {resumed}"
    );

    let records: Vec<DefectRecord> = client2
        .stream_results(id)
        .expect("stream")
        .map(|r| r.expect("record parses"))
        .collect();
    assert_eq!(records.len(), reference.records.len());
    for (r, u) in records.iter().zip(&reference.records) {
        assert_eq!(r.defect_index, u.defect_index);
        assert_eq!(r.site, u.site);
        assert_eq!(r.likelihood.to_bits(), u.likelihood.to_bits());
        assert_eq!(r.outcome, u.outcome);
    }

    server2.request_shutdown();
    server2.wait();
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn draining_server_rejects_new_jobs_with_503() {
    let gate = Gate::new();
    gate.hold();
    let backend = Arc::new(SyntheticBackend::new(3).with_gate(Arc::clone(&gate)));
    let (server, client) = start(ServiceConfig::default(), backend);

    let id = client.submit(&JobSpec::default()).expect("submit");
    wait_until("job running", || {
        client
            .status(id)
            .is_ok_and(|s| s.get("state").and_then(Json::as_str) == Some("running"))
    });
    // Begin the drain without waiting: the server keeps answering while
    // the wedged job holds the worker.
    server.registry().begin_drain();
    match client.submit(&JobSpec::default()) {
        Err(ClientError::Service(ServiceError::Draining(message))) => {
            assert!(message.contains("draining"), "{message}");
        }
        other => panic!("expected draining, got {other:?}"),
    }
    gate.release();
    server.request_shutdown();
    server.wait();
}

/// One raw HTTP exchange, returning status, headers (lower-cased names),
/// and body — used where the typed client hides what the wire carries
/// (redirect headers, raw error envelopes).
fn raw_request_full(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    use std::io::{BufRead, BufReader, Read};
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let mut headers = Vec::new();
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let mut body = String::new();
    reader.read_to_string(&mut body).expect("body");
    (status, headers, body)
}

/// Status + body only; see [`raw_request_full`].
fn raw_request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = raw_request_full(addr, method, path, body);
    (status, body)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Parses `{"error": {...}}` and returns the envelope object, asserting
/// the two mandatory fields are present and non-empty.
fn parse_envelope(body: &str) -> Json {
    let doc = Json::parse(body).unwrap_or_else(|e| panic!("body is JSON ({e}): {body}"));
    let envelope = doc.get("error").expect("error envelope").clone();
    let code = envelope.get("code").and_then(Json::as_str).expect("code");
    let message = envelope
        .get("message")
        .and_then(Json::as_str)
        .expect("message");
    assert!(!code.is_empty() && !message.is_empty(), "{body}");
    envelope
}

#[test]
fn preflight_errors_reject_with_422_without_queueing() {
    use symbist_lint::{Diagnostic, LintReport, Rule};

    // A backend whose static pre-flight fails: one Error-level finding.
    let mut report = LintReport::new();
    report.push(Diagnostic::new(
        Rule::FloatingNode,
        "synthetic dut",
        "node island",
        "2 node(s) have no connection to ground",
    ));
    let backend = Arc::new(SyntheticBackend::new(3).with_lint_report(report));
    let (server, client) = start(ServiceConfig::default(), backend);

    // The raw 422 envelope carries machine-readable diagnostics.
    let spec_body = JobSpec::default().to_json().to_string();
    let (status, body) = raw_request(server.addr(), "POST", "/v1/jobs", &spec_body);
    assert_eq!(status, 422, "{body}");
    let envelope = parse_envelope(&body);
    assert_eq!(
        envelope.get("code").and_then(Json::as_str),
        Some("lint_failed")
    );
    let lint = envelope.get("diagnostics").expect("lint diagnostics");
    assert_eq!(lint.get("errors").and_then(Json::as_u64), Some(1), "{body}");
    let diags = lint
        .get("diagnostics")
        .and_then(Json::as_arr)
        .expect("diagnostics array");
    assert_eq!(diags.len(), 1);
    assert_eq!(
        diags[0].get("rule").and_then(Json::as_str),
        Some("SYM-L001")
    );
    assert_eq!(
        diags[0].get("severity").and_then(Json::as_str),
        Some("error")
    );

    // The typed client surfaces the same rejection, diagnostics included.
    match client.submit(&JobSpec::default()) {
        Err(ClientError::Service(ServiceError::LintFailed {
            message,
            diagnostics,
        })) => {
            assert!(message.contains("pre-flight"), "{message}");
            let lint = diagnostics.expect("client keeps the lint report");
            assert_eq!(lint.get("errors").and_then(Json::as_u64), Some(1));
        }
        other => panic!("expected lint_failed, got {other:?}"),
    }

    // The rejection happened at the front door: nothing was queued, no
    // worker slot was ever occupied, and no job id was minted.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("queue_depth").and_then(Json::as_u64), Some(0));
    assert_eq!(stats.get("running").and_then(Json::as_u64), Some(0));
    assert_eq!(stats.get("submitted").and_then(Json::as_u64), Some(0));

    server.request_shutdown();
    server.wait();
}

#[test]
fn lint_endpoint_reports_for_admitted_jobs() {
    // A clean backend admits the job; GET /lint/{id} then audits what the
    // submission gate saw (zero errors).
    let (server, client) = start(ServiceConfig::default(), Arc::new(SyntheticBackend::new(3)));
    let id = client.submit(&JobSpec::default()).expect("submit");
    let lint = client.lint(id).expect("lint report");
    assert_eq!(lint.get("errors").and_then(Json::as_u64), Some(0));
    assert_eq!(
        lint.get("diagnostics")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(0)
    );
    // Unknown job ids 404 like every other job-scoped endpoint.
    assert!(matches!(
        client.lint(9_999),
        Err(ClientError::Service(ServiceError::NotFound(_)))
    ));
    server.request_shutdown();
    server.wait();
}

/// `GET /v1/lint/{id}` serves the lint crate's own rendering of the
/// backend's pre-flight report, escapes included.
#[test]
fn lint_endpoint_serves_the_lint_crates_rendering() {
    use symbist_lint::{Diagnostic, LintReport, Rule};

    let mut report = LintReport::new();
    report.push(Diagnostic::new(
        Rule::DanglingNode,
        "synthetic dut",
        "node \"tap\\7\"",
        "one terminal only:\n\tR9 → nothing",
    ));
    report.push(Diagnostic::new(
        Rule::OrbitSummary,
        "synthetic dut",
        "orbits",
        "3 node orbits",
    ));
    let backend = SyntheticBackend::new(3).with_lint_report(report);
    let expected = Json::parse(&backend.preflight(&JobSpec::default()).to_json_string())
        .expect("the lint crate renders JSON");
    let (server, client) = start(ServiceConfig::default(), Arc::new(backend));
    let id = client
        .submit(&JobSpec::default())
        .expect("warnings admit the job");
    let (status, body) = raw_request(server.addr(), "GET", &format!("/v1/lint/{id}"), "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(Json::parse(&body).expect("lint body is JSON"), expected);
    assert_eq!(expected.get("warnings").and_then(Json::as_u64), Some(1));
    server.request_shutdown();
    server.wait();
}

// ------------------------------------------------------------- /v1 API

#[test]
fn unversioned_paths_answer_not_found() {
    let (server, _client) = start(ServiceConfig::default(), Arc::new(SyntheticBackend::new(2)));
    let addr = server.addr();

    // The pre-/v1 names of real routes get no redirect and no deprecation
    // signal: like any unknown path, they are a plain 404.
    for (method, path) in [
        ("GET", "/healthz"),
        ("GET", "/stats"),
        ("POST", "/jobs"),
        ("GET", "/jobs/1"),
        ("GET", "/jobs/1/results"),
        ("GET", "/report/1"),
        ("GET", "/lint/1"),
        ("POST", "/shutdown"),
        ("GET", "/nope"),
    ] {
        let (status, headers, body) = raw_request_full(addr, method, path, "");
        assert_eq!(status, 404, "{method} {path}: {body}");
        assert!(header(&headers, "location").is_none(), "{method} {path}");
        assert!(header(&headers, "deprecation").is_none(), "{method} {path}");
        assert_eq!(
            parse_envelope(&body).get("code").and_then(Json::as_str),
            Some("not_found"),
            "{method} {path}: {body}"
        );
    }

    server.request_shutdown();
    server.wait();
}

#[test]
fn error_envelope_is_uniform_across_statuses() {
    let (server, client) = start(ServiceConfig::default(), Arc::new(SyntheticBackend::new(2)));
    let addr = server.addr();

    // A finished job gives the 405/409 probes a real id to poke at.
    let id = client.submit(&JobSpec::default()).expect("submit");
    let (state, _) = client.wait_terminal(id, POLL).expect("terminal");
    assert_eq!(state, "completed");

    let job = format!("/v1/jobs/{id}");
    let spec_body = JobSpec::default().to_json().to_string();
    let cases: [(&str, &str, &str, u16, &str); 6] = [
        ("POST", "/v1/jobs", "not json", 400, "bad_request"),
        ("GET", "/v1/jobs/999", "", 404, "not_found"),
        ("PUT", &job, "", 405, "method_not_allowed"),
        ("DELETE", &job, "", 409, "conflict"),
        ("DELETE", "/v1/report/1", "", 405, "method_not_allowed"),
        ("GET", "/v1/what/is/this", "", 404, "not_found"),
    ];
    for (method, path, body, want_status, want_code) in cases {
        let (status, body) = raw_request(addr, method, path, body);
        assert_eq!(status, want_status, "{method} {path}: {body}");
        let envelope = parse_envelope(&body);
        assert_eq!(
            envelope.get("code").and_then(Json::as_str),
            Some(want_code),
            "{method} {path}: {body}"
        );
    }

    // Draining: the envelope carries the same shape at 503.
    server.registry().begin_drain();
    let (status, body) = raw_request(addr, "POST", "/v1/jobs", &spec_body);
    assert_eq!(status, 503, "{body}");
    assert_eq!(
        parse_envelope(&body).get("code").and_then(Json::as_str),
        Some("draining"),
        "{body}"
    );

    server.request_shutdown();
    server.wait();
}

/// Minimal Prometheus text-format validation: every sample line is
/// `series value`, every series belongs to a `# TYPE`-declared family
/// (histograms via their `_bucket`/`_sum`/`_count` suffixes), and every
/// family kind is one we emit.
fn assert_prometheus_valid(text: &str) {
    use std::collections::HashSet;
    let mut declared: HashSet<String> = HashSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("family name").to_string();
            let kind = parts.next().expect("family kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown kind: {line}"
            );
            declared.insert(name);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("malformed sample line: {line}"));
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("non-numeric sample value: {line}"));
        let name = series.split('{').next().expect("series name");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name: {line}"
        );
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|b| declared.contains(*b))
            .unwrap_or(name);
        assert!(declared.contains(base), "sample without # TYPE: {line}");
    }
}

/// The first sample value of an exact series (labels included).
fn metric_value(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

#[test]
fn metrics_endpoint_serves_prometheus_with_monotone_counters() {
    let (server, client) = start(ServiceConfig::default(), Arc::new(SyntheticBackend::new(3)));

    // The synthetic backend never touches the circuit solver, so drive
    // one real DC solve in-process: the obs registry is process-global,
    // and the solver families must show up in the same exposition.
    {
        use symbist_circuit::dc::DcSolver;
        use symbist_circuit::netlist::Netlist;
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource(a, Netlist::GND, 1.0);
        nl.resistor(a, b, 1e3);
        nl.resistor(b, Netlist::GND, 1e3);
        DcSolver::new().solve(&nl).expect("dc solve");
    }

    let id = client.submit(&JobSpec::default()).expect("job 1");
    client.wait_terminal(id, POLL).expect("terminal");
    let first = client.metrics().expect("metrics after job 1");
    assert_prometheus_valid(&first);

    for family in [
        // solver
        "symbist_solver_dc_solves_total",
        "symbist_solver_dc_solve_seconds",
        "symbist_solver_solves_total",
        "symbist_solver_newton_iterations",
        // campaign
        "symbist_campaign_runs_total",
        "symbist_campaign_defects_total",
        "symbist_campaign_defect_seconds",
        // service
        "symbist_service_queue_depth",
        "symbist_service_queue_wait_seconds",
        "symbist_service_jobs_total",
        "symbist_service_job_run_seconds",
        "symbist_service_requests_total",
        "symbist_service_request_seconds",
        "symbist_service_workers_total",
    ] {
        assert!(
            first.contains(&format!("# TYPE {family} ")),
            "missing family {family}"
        );
    }

    // A second job strictly advances the counters (other parallel tests
    // only ever increment, so >= is the race-free assertion).
    let completed_1 = metric_value(&first, r#"symbist_service_jobs_total{state="completed"}"#)
        .expect("completed counter");
    let campaigns_1 = metric_value(&first, "symbist_campaign_runs_total").expect("campaign runs");
    let id2 = client.submit(&JobSpec::default()).expect("job 2");
    client.wait_terminal(id2, POLL).expect("terminal");
    let second = client.metrics().expect("metrics after job 2");
    assert_prometheus_valid(&second);
    let completed_2 = metric_value(&second, r#"symbist_service_jobs_total{state="completed"}"#)
        .expect("completed counter");
    let campaigns_2 = metric_value(&second, "symbist_campaign_runs_total").expect("campaign runs");
    assert!(
        completed_2 >= completed_1 + 1.0,
        "jobs_total did not advance: {completed_1} -> {completed_2}"
    );
    assert!(
        campaigns_2 >= campaigns_1 + 1.0,
        "campaign_runs_total did not advance: {campaigns_1} -> {campaigns_2}"
    );

    // Histogram invariant on a live family: _count equals the +Inf bucket.
    let inf = metric_value(
        &second,
        r#"symbist_service_request_seconds_bucket{le="+Inf"}"#,
    )
    .expect("+Inf bucket");
    let count =
        metric_value(&second, "symbist_service_request_seconds_count").expect("histogram count");
    assert!(
        inf >= 1.0 && (inf - count).abs() < f64::EPSILON,
        "{inf} vs {count}"
    );

    server.request_shutdown();
    server.wait();
}

#[test]
fn trace_endpoint_returns_job_scoped_chrome_events() {
    let (server, client) = start(ServiceConfig::default(), Arc::new(SyntheticBackend::new(4)));

    let id = client.submit(&JobSpec::default()).expect("submit");
    let (state, _) = client.wait_terminal(id, POLL).expect("terminal");
    assert_eq!(state, "completed");

    let ndjson = client.trace(id).expect("trace body");
    let events: Vec<Json> = ndjson
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("trace line is JSON ({e}): {l}")))
        .collect();
    assert!(!events.is_empty(), "terminal job has captured spans");
    let mut names = Vec::new();
    for event in &events {
        // chrome://tracing complete-event shape.
        assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(event.get("cat").and_then(Json::as_str), Some("symbist"));
        assert!(event.get("ts").and_then(Json::as_u64).is_some());
        assert!(event.get("dur").and_then(Json::as_u64).is_some());
        assert!(event
            .get("args")
            .and_then(|a| a.get("span"))
            .and_then(Json::as_u64)
            .is_some());
        // Scope filtering: only this job's events come back.
        assert_eq!(
            event
                .get("args")
                .and_then(|a| a.get("scope"))
                .and_then(Json::as_str),
            Some(format!("job-{id}").as_str())
        );
        names.push(
            event
                .get("name")
                .and_then(Json::as_str)
                .expect("event name")
                .to_string(),
        );
    }
    assert!(names.iter().any(|n| n == "job_run"), "{names:?}");
    assert!(names.iter().any(|n| n == "campaign"), "{names:?}");

    // Parent linkage: the campaign span nests under job_run.
    let span_of = |name: &str| {
        events.iter().find_map(|e| {
            (e.get("name").and_then(Json::as_str) == Some(name))
                .then(|| {
                    e.get("args")
                        .and_then(|a| a.get("span"))
                        .and_then(Json::as_u64)
                })
                .flatten()
        })
    };
    let parent_of = |name: &str| {
        events.iter().find_map(|e| {
            (e.get("name").and_then(Json::as_str) == Some(name))
                .then(|| {
                    e.get("args")
                        .and_then(|a| a.get("parent"))
                        .and_then(Json::as_u64)
                })
                .flatten()
        })
    };
    assert_eq!(parent_of("campaign"), span_of("job_run"), "span nesting");

    // Unknown jobs 404 with the typed envelope.
    assert!(matches!(
        client.trace(9_999),
        Err(ClientError::Service(ServiceError::NotFound(_)))
    ));

    server.request_shutdown();
    server.wait();
}
