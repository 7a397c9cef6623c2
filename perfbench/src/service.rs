//! The job-service workloads: `service_adc` (LWRS and block jobs on the
//! SAR ADC) and `service_dut` (cap-array uploads, each followed by an
//! exhaustive job on the upload). Both drive an in-process
//! `GenericBackend` server with `data_dir` persistence from two client
//! threads, each with one job outstanding (a closed loop).

use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use symbist_adc::fault::Faultable;
use symbist_adc::BlockKind;
use symbist_circuit::rng::Rng;
use symbist_defects::{DefectRecord, SimOutcome};
use symbist_dut::{check_dut, CapArrayConfig, DutModel, DutRegistry, DutRegistryConfig, DutSpec};
use symbist_lint::{lint_netlist, lint_universe};
use symbist_service::{
    AdcBackend, CampaignBackend, Client, ClientError, GenericBackend, JobSpec, Json, Server,
    ServiceConfig, SyntheticBackend,
};

use crate::counters::{Snapshot, SolverCounts};
use crate::report::Report;
use crate::speed::{Bracketed, Probe};
use crate::stats::{self, Digest};
use crate::trace::{Recorder, Span};
use crate::Args;

/// Client threads, each with one job outstanding.
const CLIENTS: usize = 2;
/// Server campaign workers (the machine's two cores).
const WORKERS: usize = 2;
/// Setup repetitions for the `setup_s` median (the DUT stack starts in
/// tens of milliseconds, so it takes more samples).
const SETUP_REPS_ADC: usize = 5;
const SETUP_REPS_DUT: usize = 9;
/// LWRS sample size of the sampled ADC jobs.
const ADC_SAMPLE: usize = 24;
/// The block the exhaustive ADC jobs select (28 defects).
const ADC_BLOCK: BlockKind = BlockKind::VcmGenerator;
/// Jobs per client whose verdicts enter the digest (the first ones of its
/// seeded stream, so the digest does not depend on throughput).
const DIGEST_JOBS: usize = 4;
/// Per-tenant DUT quota, far above any run's distinct-spec count.
const DUT_QUOTA: usize = 100_000;
/// New specs per client that the traced run replays in-process.
const REPLAY_SPECS: usize = 6;
/// The server keeps every job and DUT it has seen, so its memory grows
/// with the history a run builds, which grows with throughput. Peak RSS is
/// therefore read when the run's jobs reach a fixed count (or at the end
/// of a run that completes fewer), so a faster program does not read as
/// a memory regression.
const RSS_AT_JOBS_ADC: usize = 100;
const RSS_AT_JOBS_DUT: usize = 400;
/// The untraced runs measure in rounds of this many seconds, each between
/// host-speed probes of about 100 ms per worker at reference speed; a
/// round's job latencies and throughput are taken to reference speed with
/// its own probes.
const ROUND_S: f64 = 1.25;
const PROBE: Probe = Probe {
    threads: WORKERS,
    passes: 250,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Adc,
    Dut,
}

/// A running server with its data directory.
struct Stack {
    server: Server,
    dir: PathBuf,
}

impl Stack {
    /// Starts a stack on the data directory `dir`, which the caller has
    /// prepared.
    fn start(kind: Kind, dir: PathBuf) -> Result<Stack, String> {
        let io = |e: std::io::Error| e.to_string();
        let registry = DutRegistry::open(DutRegistryConfig {
            dir: Some(dir.join("duts")),
            max_per_tenant: DUT_QUOTA,
        })
        .map_err(io)?;
        // The DUT stack keeps the ADC out of its setup: its jobs never
        // touch the inner backend, so an ADC-model change must read "no
        // change" there.
        let inner: Arc<dyn CampaignBackend> = match kind {
            Kind::Adc => Arc::new(AdcBackend::new(&crate::inproc::standard_config())),
            Kind::Dut => Arc::new(SyntheticBackend::new(8)),
        };
        let backend = GenericBackend::new(inner, Arc::new(registry));
        let server = Server::start(
            ServiceConfig {
                addr: "127.0.0.1:0".into(),
                workers: WORKERS,
                data_dir: Some(dir.join("jobs")),
                ..ServiceConfig::default()
            },
            Arc::new(backend),
        )
        .map_err(io)?;
        client(&server)
            .health()
            .map_err(|e| format!("health check: {e}"))?;
        Ok(Stack { server, dir })
    }

    fn stop(self) {
        self.server.request_shutdown();
        self.server.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn client(server: &Server) -> Client {
    Client::builder()
        .base_url(server.addr().to_string())
        .timeout(Duration::from_secs(60))
        .build()
}

/// Starts the stack `reps` times between host-speed probes, keeps the
/// last, and returns the median start time at reference speed. The DUT
/// stack starts as a server restarted on its data directory does: on a
/// registry of persisted DUTs it reloads (build, lint, orbit analysis).
fn start_repeated(kind: Kind, args: &Args, reps: usize) -> Result<(Stack, f64), String> {
    let persisted = match kind {
        Kind::Dut => Some(persist_duts(args)?),
        Kind::Adc => None,
    };
    let mut times = Vec::new();
    let mut raw = Vec::new();
    let mut last = None;
    let mut speed = Bracketed::start(PROBE);
    for rep in 0..reps {
        if let Some(stack) = last.take() {
            Stack::stop(stack);
        }
        let dir = args.out_dir.join(format!(
            "service-{}-{}-{rep}",
            args.workload,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(src) = &persisted {
            copy_files(src, &dir.join("duts")).map_err(|e| e.to_string())?;
        }
        let t = Instant::now();
        last = Some(Stack::start(kind, dir)?);
        let t = t.elapsed().as_secs_f64();
        raw.push(t);
        times.push(t * speed.close());
    }
    if let Some(src) = &persisted {
        let _ = std::fs::remove_dir_all(src);
    }
    let stack = last.expect("at least one setup");
    let setup_s = stats::median(&times).unwrap_or(0.0);
    println!(
        "setup: {setup_s:.4} s at reference speed, {:.4} s raw (medians of {reps})",
        stats::median(&raw).unwrap_or(0.0)
    );
    Ok((stack, setup_s))
}

/// Registers one DUT of every (family, width) pair, with seeded codes and
/// a calibration seed no client uses, in a registry of its own, and
/// returns that registry's directory.
fn persist_duts(args: &Args) -> Result<PathBuf, String> {
    let dir = args.out_dir.join(format!(
        "service-{}-{}-persisted",
        args.workload,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = DutRegistry::open(DutRegistryConfig {
        dir: Some(dir.clone()),
        max_per_tenant: DUT_QUOTA,
    })
    .map_err(|e| e.to_string())?;
    let mut traffic = Traffic::new(Kind::Dut, crate::inproc::program_seed(args.seed), 0);
    for _ in 0..traffic.shapes.len() {
        let upload = traffic.new_upload();
        traffic.pool.push(upload.clone());
        let outcome = registry
            .upload(upload.spec)
            .map_err(|e| format!("persist DUT {}: {e}", upload.id))?;
        if !outcome.created() {
            return Err(format!("persisted DUT {} was not new", upload.id));
        }
    }
    Ok(dir)
}

/// Copies the files of directory `from` into `to`, creating it.
fn copy_files(from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// One generated upload.
#[derive(Debug, Clone)]
struct Upload {
    spec: DutSpec,
    id: String,
    structure: &'static str,
    bits: usize,
}

/// What a client does next, drawn from its seeded stream.
#[derive(Debug, Clone)]
enum Step {
    AdcJob { spec: JobSpec, block: bool },
    Dut { upload: Upload, new: bool },
}

/// DUT families of the generated uploads.
const FAMILIES: [&str; 3] = ["binary", "radix-1.8", "split"];
/// Array widths of the generated uploads.
const WIDTHS: std::ops::RangeInclusive<usize> = 6..=13;

/// A client's seeded traffic: job specs for the ADC stack, uploads for
/// the DUT stack. The mix is balanced per client, so a run's share of
/// each kind does not wander with the seed: one ADC job in three selects
/// the block and the rest sample; one upload in four is a new spec and
/// the rest are identical re-uploads of this client's earlier specs; new
/// specs walk a seeded order of every (family, width) pair. Seeds, codes,
/// phases and re-upload picks come from the workload seed.
struct Traffic {
    kind: Kind,
    rng: Rng,
    client: u64,
    step: usize,
    phase: usize,
    shapes: Vec<(&'static str, usize)>,
    pool: Vec<Upload>,
    used: HashSet<String>,
}

impl Traffic {
    fn new(kind: Kind, seed: u64, client: u64) -> Traffic {
        let mut rng = Rng::seed_from_u64(seed ^ client);
        let mut shapes: Vec<(&'static str, usize)> = FAMILIES
            .iter()
            .flat_map(|&f| WIDTHS.map(move |w| (f, w)))
            .collect();
        rng.shuffle(&mut shapes);
        let phase = rng.below(12) as usize;
        Traffic {
            kind,
            rng,
            client,
            step: 0,
            phase,
            shapes,
            pool: Vec::new(),
            used: HashSet::new(),
        }
    }

    fn next(&mut self) -> Step {
        self.step += 1;
        let turn = self.step + self.phase;
        match self.kind {
            Kind::Adc => {
                let block = turn.is_multiple_of(3);
                let spec = JobSpec {
                    block: block.then(|| ADC_BLOCK.label().to_string()),
                    sample_size: (!block).then_some(ADC_SAMPLE),
                    seed: job_seed(&mut self.rng),
                    ..JobSpec::default()
                };
                Step::AdcJob { spec, block }
            }
            Kind::Dut => {
                if self.pool.is_empty() || turn.is_multiple_of(4) {
                    let upload = self.new_upload();
                    self.pool.push(upload.clone());
                    Step::Dut { upload, new: true }
                } else {
                    let pick = self.rng.below(self.pool.len() as u64) as usize;
                    Step::Dut {
                        upload: self.pool[pick].clone(),
                        new: false,
                    }
                }
            }
        }
    }

    /// A cap-array spec no client has uploaded yet, of the next (family,
    /// width) in this client's order, with a seeded code.
    fn new_upload(&mut self) -> Upload {
        let (structure, bits) = self.shapes[self.pool.len() % self.shapes.len()];
        loop {
            let mut config = match structure {
                "binary" => CapArrayConfig::binary(bits),
                "radix-1.8" => CapArrayConfig::conventional(bits, 1.8),
                _ => CapArrayConfig::split_array(bits, bits / 2),
            };
            config.code = (0..bits).map(|_| self.rng.bernoulli(0.5)).collect();
            // The calibration seed is part of the content id: a per-client
            // seed keeps the clients' specs distinct, so each client's
            // stream depends on the workload seed alone.
            config.calibration.seed = self.client;
            let spec = config.dut_spec();
            let id = spec.id();
            if self.used.insert(id.clone()) {
                return Upload {
                    spec,
                    id,
                    structure,
                    bits,
                };
            }
        }
    }
}

/// A job seed the JSON wire carries exactly (below 2^53).
fn job_seed(rng: &mut Rng) -> u64 {
    rng.next_u64() >> 11
}

/// One completed client job.
#[derive(Debug, Clone, Default)]
struct JobSample {
    latency: f64,
    submit: f64,
    first_record: f64,
    status: f64,
    report: f64,
    block: bool,
}

/// Everything one client thread saw.
#[derive(Debug, Default)]
struct ClientLog {
    jobs: Vec<JobSample>,
    uploads: Vec<(f64, bool)>,
    requests: u64,
    request_failures: u64,
    records: u64,
    unresolved: u64,
    detected: u64,
    defect_ms: Vec<f64>,
    checks: Vec<(String, bool)>,
    digest: Digest,
    digest_jobs: usize,
    /// First-job verdict digest per new DUT spec (replay cross-check).
    spec_digests: Vec<(Upload, u64)>,
    traffic_new: u64,
    traffic_structures: BTreeMap<&'static str, u64>,
    traffic_widths: BTreeMap<usize, u64>,
    spans: Vec<Span>,
}

impl ClientLog {
    fn check(&mut self, what: String, ok: bool) {
        self.checks.push((what, ok));
    }

    /// Counts one request; returns its value or records the failure.
    fn request<T>(&mut self, what: &str, r: Result<T, ClientError>) -> Option<T> {
        self.requests += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.request_failures += 1;
                if self.request_failures <= 10 {
                    println!("REQUEST FAILED: {what}: {e}");
                }
                None
            }
        }
    }
}

/// The verdict digest of one job's records, in defect order.
fn job_digest(records: &mut [DefectRecord]) -> Digest {
    records.sort_by_key(|r| r.defect_index);
    let mut d = Digest::default();
    for r in records.iter() {
        d.push_verdict(r.defect_index, &r.outcome);
    }
    d
}

/// Runs one job: submit, stream the NDJSON results, poll the status
/// once, fetch the report. Returns the sample and the records.
fn run_job(
    c: &Client,
    spec: &JobSpec,
    expected: usize,
    log: &mut ClientLog,
    rec: &mut Recorder,
) -> Option<(JobSample, Vec<DefectRecord>)> {
    let job = rec.id();
    let t0 = rec.now();
    let (id, submit) = rec.time("service.http.submit", job, || c.submit(spec));
    let id = log.request("POST /v1/jobs", id)?;

    let stream_start = rec.now();
    let stream = log.request("GET /v1/jobs/{id}/results", c.stream_results(id));
    let mut records = Vec::with_capacity(expected);
    let mut first = None;
    for item in stream.into_iter().flatten() {
        if let Some(r) = log.request("NDJSON record", item) {
            first.get_or_insert_with(|| rec.now());
            records.push(r);
        }
    }
    let stream_end = rec.now();
    let results_span = rec.id();
    rec.push(
        "service.http.results",
        results_span,
        job,
        stream_start,
        stream_end,
    );

    let (status, status_s) = rec.time("service.http.status", job, || c.status(id));
    let state = log
        .request("GET /v1/jobs/{id}", status)
        .and_then(|s| s.get("state").and_then(Json::as_str).map(str::to_string));
    let (report, report_s) = rec.time("service.http.report", job, || c.report(id));
    let report = log.request("GET /v1/report/{id}", report);
    let t1 = rec.now();
    rec.push("service.job", job, 0, t0, t1);

    log.check(
        format!("job {id} completed (state {state:?})"),
        state.as_deref() == Some("completed"),
    );
    log.check(
        format!("job {id} streamed {} of {expected} records", records.len()),
        records.len() == expected,
    );
    let simulated = report
        .as_ref()
        .and_then(|r| r.get("simulated"))
        .and_then(Json::as_u64);
    log.check(
        format!("job {id} report simulated {simulated:?} == {expected}"),
        simulated == Some(expected as u64),
    );
    for r in &records {
        log.records += 1;
        log.unresolved += u64::from(r.outcome.is_unresolved());
        log.detected += u64::from(r.outcome.detected());
        log.defect_ms.push(r.wall.as_secs_f64() * 1e3);
    }
    let sample = JobSample {
        latency: t1 - t0,
        submit,
        first_record: first.map_or(0.0, |f| f - t0),
        status: status_s,
        report: report_s,
        block: false,
    };
    Some((sample, records))
}

/// Shared between the client threads: jobs completed so far, and the
/// peak RSS read when they reached the fixed count.
struct JobCount {
    done: AtomicUsize,
    rss_at: usize,
    rss_mb: OnceLock<f64>,
}

impl JobCount {
    fn completed(&self) {
        if self.done.fetch_add(1, Ordering::Relaxed) + 1 == self.rss_at {
            let _ = self.rss_mb.set(crate::report::peak_rss_mb());
        }
    }
}

/// One client: its connection, its seeded traffic, what it saw so far
/// and its spans.
struct ClientState {
    c: Client,
    traffic: Traffic,
    log: ClientLog,
    rec: Recorder,
}

/// One client thread's closed loop until the deadline.
fn client_loop(
    state: &mut ClientState,
    deadline: Instant,
    (universe, block_size): (usize, usize),
    count: &JobCount,
) {
    let ClientState {
        c,
        traffic,
        log,
        rec,
    } = state;
    while Instant::now() < deadline {
        match traffic.next() {
            Step::AdcJob { spec, block } => {
                let expected = if block {
                    block_size
                } else {
                    ADC_SAMPLE.min(universe)
                };
                if let Some((mut sample, mut records)) = run_job(c, &spec, expected, log, rec) {
                    sample.block = block;
                    if log.digest_jobs < DIGEST_JOBS {
                        log.digest_jobs += 1;
                        log.digest.push(job_digest(&mut records).value());
                    }
                    log.jobs.push(sample);
                    count.completed();
                }
            }
            Step::Dut { upload, new } => {
                log.traffic_new += u64::from(new);
                *log.traffic_structures.entry(upload.structure).or_default() += 1;
                *log.traffic_widths.entry(upload.bits).or_default() += 1;
                let (doc, dt) = rec.time("service.http.upload", 0, || c.upload_dut(&upload.spec));
                let Some(doc) = log.request("POST /v1/duts", doc) else {
                    continue;
                };
                log.uploads.push((dt, new));
                let created = doc.get("created").and_then(Json::as_bool);
                log.check(
                    format!(
                        "upload of {} (new: {new}) answered created {created:?}",
                        upload.id
                    ),
                    created == Some(new),
                );
                let id = doc.get("id").and_then(Json::as_str).unwrap_or_default();
                log.check(
                    format!("upload id {id} == local content id {}", upload.id),
                    id == upload.id,
                );
                let expected = doc.get("defects").and_then(Json::as_u64).unwrap_or(0) as usize;
                let spec = JobSpec {
                    dut: Some(upload.id.clone()),
                    seed: job_seed(&mut traffic.rng),
                    ..JobSpec::default()
                };
                if let Some((sample, mut records)) = run_job(c, &spec, expected, log, rec) {
                    let digest = job_digest(&mut records).value();
                    if log.digest_jobs < DIGEST_JOBS {
                        log.digest_jobs += 1;
                        log.digest.push(digest);
                    }
                    if new && log.spec_digests.len() < REPLAY_SPECS {
                        log.spec_digests.push((upload, digest));
                    }
                    log.jobs.push(sample);
                    count.completed();
                }
            }
        }
    }
}

/// Server-side histogram figures over the measured window.
fn hist(delta: &Snapshot, family: &str) -> (f64, f64) {
    (
        delta.series(&format!("{family}_sum")),
        delta.series(&format!("{family}_count")),
    )
}

/// The `service_adc` workload.
pub fn run_adc(args: &Args, report: &mut Report) -> Result<(), String> {
    run(Kind::Adc, args, report)
}

/// The `service_dut` workload.
pub fn run_dut(args: &Args, report: &mut Report) -> Result<(), String> {
    run(Kind::Dut, args, report)
}

fn run(kind: Kind, args: &Args, report: &mut Report) -> Result<(), String> {
    let reps = match kind {
        Kind::Adc => SETUP_REPS_ADC,
        Kind::Dut => SETUP_REPS_DUT,
    };
    let (stack, setup_s) = start_repeated(kind, args, reps)?;
    report.set("setup_s", setup_s);
    let c = client(&stack.server);
    let universe = c.universe().map_err(|e| e.to_string())? as usize;
    let block_size = match kind {
        Kind::Adc => crate::inproc::block_size(ADC_BLOCK),
        Kind::Dut => 0,
    };
    println!(
        "inputs: {CLIENTS} closed-loop clients, {WORKERS} workers, seed {}; {}",
        args.seed,
        match kind {
            Kind::Adc => format!(
                "LWRS-{ADC_SAMPLE} jobs over {universe} defects and exhaustive {} jobs ({block_size}), 2 : 1",
                ADC_BLOCK.label()
            ),
            Kind::Dut => "cap-array uploads (1 in 4 new) each followed by an exhaustive job".into(),
        }
    );

    let before = c
        .metrics()
        .map(|m| Snapshot::parse(&m))
        .map_err(|e| e.to_string())?;
    let count = JobCount {
        done: AtomicUsize::new(0),
        rss_at: match kind {
            Kind::Adc => RSS_AT_JOBS_ADC,
            Kind::Dut => RSS_AT_JOBS_DUT,
        },
        rss_mb: OnceLock::new(),
    };
    let epoch = Instant::now();
    let end = epoch + Duration::from_secs_f64(args.seconds);
    let mut clients: Vec<ClientState> = (0..CLIENTS)
        .map(|i| ClientState {
            c: client(&stack.server),
            traffic: Traffic::new(kind, crate::inproc::program_seed(args.seed), i as u64 + 1),
            log: ClientLog::default(),
            rec: Recorder::new(epoch, i as u32 + 1),
        })
        .collect();
    // The traced run is one round without probes, so the server-side
    // deltas cover only client traffic.
    let mut speed = (!args.trace).then(|| Bracketed::start(PROBE));
    let mut latencies = Vec::new();
    let mut raw_latencies = Vec::new();
    let mut rounds_at_ref_s = 0.0;
    let mut factors = Vec::new();
    loop {
        let round = Instant::now();
        let deadline = match speed {
            Some(_) => end.min(round + Duration::from_secs_f64(ROUND_S)),
            None => end,
        };
        let marks: Vec<usize> = clients.iter().map(|c| c.log.jobs.len()).collect();
        std::thread::scope(|scope| {
            for state in clients.iter_mut() {
                let count = &count;
                scope.spawn(move || client_loop(state, deadline, (universe, block_size), count));
            }
        });
        let round_s = round.elapsed().as_secs_f64();
        let factor = speed.as_mut().map_or(1.0, Bracketed::close);
        factors.push(factor);
        rounds_at_ref_s += round_s * factor;
        for (state, mark) in clients.iter().zip(marks) {
            for job in &state.log.jobs[mark..] {
                latencies.push(job.latency * 1e3 * factor);
                raw_latencies.push(job.latency * 1e3);
            }
        }
        if Instant::now() >= end {
            break;
        }
    }
    let window = epoch.elapsed().as_secs_f64();
    let logs: Vec<ClientLog> = clients
        .into_iter()
        .map(|mut state| {
            state.log.spans = state.rec.spans;
            state.log
        })
        .collect();
    let after = c
        .metrics()
        .map(|m| Snapshot::parse(&m))
        .map_err(|e| e.to_string())?;
    stack.stop();
    let delta = after.since(&before);

    // Operations and checks.
    let mut all_jobs = Vec::new();
    let mut digest = Digest::default();
    for (i, log) in logs.iter().enumerate() {
        report.ops(
            log.requests + log.records,
            log.request_failures + log.unresolved,
        );
        for (what, ok) in &log.checks {
            report.check(what.clone(), *ok);
        }
        digest.push(i as u64);
        digest.push(log.digest_jobs as u64);
        digest.push(log.digest.value());
        all_jobs.extend(log.jobs.iter().cloned());
    }
    report.check("at least one job completed", !all_jobs.is_empty());
    println!(
        "verdict digest: {} (first {DIGEST_JOBS} jobs of each client)",
        digest.hex()
    );
    let new_specs: u64 = logs.iter().map(|l| l.traffic_new).sum();
    if kind == Kind::Dut {
        report.check(
            format!("{new_specs} distinct specs stay under the tenant quota {DUT_QUOTA}"),
            (new_specs as usize) < DUT_QUOTA,
        );
    }

    // End-to-end figures (also printed on traced runs).
    let peak_rss_mb = match count.rss_mb.get() {
        Some(mb) => {
            println!("peak RSS {mb:.2} MB at job {}", count.rss_at);
            *mb
        }
        None => crate::report::peak_rss_mb(),
    };
    report.set("peak_rss_mb", peak_rss_mb);
    let jobs = all_jobs.len() as f64;
    report.set("op_p50_ms", stats::median(&latencies).unwrap_or(0.0));
    report.set("ops_per_s", stats::share(jobs, rounds_at_ref_s));
    if speed.is_some() {
        println!(
            "host speed: {:.3} x reference (median over {} rounds); raw op p50 {:.1} ms, raw {:.3} jobs/s",
            stats::median(&factors).unwrap_or(0.0),
            factors.len(),
            stats::median(&raw_latencies).unwrap_or(0.0),
            jobs / window
        );
    }
    let tail = stats::tail(&raw_latencies);
    match tail {
        Some(t) => println!(
            "job latency (raw): p50 {:.3} ms, p{} {:.3} ms ({} of {} jobs beyond)",
            stats::median(&raw_latencies).unwrap_or(0.0),
            t.pct,
            t.value,
            t.beyond,
            t.n
        ),
        None => println!("job latency: fewer than 11 jobs, no tail"),
    }
    let uploads: Vec<(f64, bool)> = logs
        .iter()
        .flat_map(|l| l.uploads.iter().copied())
        .collect();
    let upload_ms: Vec<f64> = uploads.iter().map(|(t, _)| t * 1e3).collect();
    let upload_tail = stats::tail(&upload_ms);
    if kind == Kind::Dut {
        let new_ms: Vec<f64> = uploads.iter().filter(|u| u.1).map(|u| u.0 * 1e3).collect();
        let old_ms: Vec<f64> = uploads.iter().filter(|u| !u.1).map(|u| u.0 * 1e3).collect();
        println!(
            "uploads: {} (p50 {:.3} ms; new p50 {:.3} ms, re-upload p50 {:.3} ms){}",
            uploads.len(),
            stats::median(&upload_ms).unwrap_or(0.0),
            stats::median(&new_ms).unwrap_or(0.0),
            stats::median(&old_ms).unwrap_or(0.0),
            upload_tail.map_or(String::new(), |t| format!(
                ", p{} {:.3} ms ({} of {} beyond)",
                t.pct, t.value, t.beyond, t.n
            ))
        );
    }

    // Traffic shares this seed generated.
    let block_jobs = all_jobs.iter().filter(|j| j.block).count() as f64;
    let mut structures: BTreeMap<&str, u64> = BTreeMap::new();
    let mut widths: BTreeMap<usize, u64> = BTreeMap::new();
    for l in &logs {
        l.traffic_structures
            .iter()
            .for_each(|(k, v)| *structures.entry(k).or_default() += v);
        l.traffic_widths
            .iter()
            .for_each(|(k, v)| *widths.entry(*k).or_default() += v);
    }
    let steps = widths.values().sum::<u64>() as f64;
    let pct = |n: f64, of: f64| stats::share(n, of) * 100.0;
    match kind {
        Kind::Adc => println!(
            "traffic: {jobs} jobs, {:.1} % sampled, {:.1} % block",
            pct(jobs - block_jobs, jobs),
            pct(block_jobs, jobs)
        ),
        Kind::Dut => {
            let mix: Vec<String> = structures
                .iter()
                .map(|(k, v)| format!("{k} {:.1} %", pct(*v as f64, steps)))
                .collect();
            println!(
                "traffic: {steps} uploads, {:.1} % new, {:.1} % re-uploads; family {}; widths {widths:?}",
                pct(new_specs as f64, steps),
                pct(steps - new_specs as f64, steps),
                mix.join(", ")
            );
        }
    }

    if !args.trace {
        return Ok(());
    }
    report.set("service.job.tail_ms", tail.map_or(0.0, |t| t.value));
    report.set(
        "service.http.upload_ms",
        stats::median(&upload_ms).unwrap_or(0.0),
    );
    report.set(
        "service.http.upload_tail_ms",
        upload_tail.map_or(0.0, |t| t.value),
    );
    report_layers(&logs, &all_jobs, &delta, window, report);
    if kind == Kind::Adc {
        crate::inproc::time_adc_backend_setup(report);
    }
    if kind == Kind::Dut {
        let created = uploads.iter().filter(|u| u.1).count() as f64;
        report.set("dut.registry.created", created);
        report.set(
            "dut.registry.dedup_ratio",
            stats::share(uploads.len() as f64 - created, uploads.len() as f64),
        );
        let specs: Vec<(Upload, u64)> = logs
            .iter()
            .flat_map(|l| l.spec_digests.iter().cloned())
            .collect();
        replay_duts(&specs, report)?;
    }
    let spans: Vec<Span> = logs.iter().flat_map(|l| l.spans.iter().copied()).collect();
    crate::trace::write_run_trace(args, &spans);
    Ok(())
}

/// Per-layer figures of a traced service run: the per-route client
/// spans, the server's histogram and counter deltas over the window, and
/// the streamed records' per-defect walls.
fn report_layers(
    logs: &[ClientLog],
    all_jobs: &[JobSample],
    delta: &Snapshot,
    window: f64,
    report: &mut Report,
) {
    let p50 = |f: fn(&JobSample) -> f64| {
        stats::median(&all_jobs.iter().map(|j| f(j) * 1e3).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    report.set("service.http.submit_ms", p50(|j| j.submit));
    report.set("service.http.status_ms", p50(|j| j.status));
    report.set("service.http.first_record_ms", p50(|j| j.first_record));
    report.set("service.http.report_ms", p50(|j| j.report));
    let client_glue: f64 = logs
        .iter()
        .flat_map(|l| {
            l.spans
                .iter()
                .filter(|s| s.name == "service.job")
                .map(|job| {
                    let children: Vec<(f64, f64)> = l
                        .spans
                        .iter()
                        .filter(|s| s.parent == job.id)
                        .map(|s| (s.start, s.end))
                        .collect();
                    stats::self_time(job.start, job.end, &children)
                })
        })
        .sum();
    println!(
        "client spans: {} jobs, {:.4} s of client time outside the four routes",
        all_jobs.len(),
        client_glue
    );

    // The server's own histograms and counters over the window.
    let (wait_sum, wait_n) = hist(delta, "symbist_service_queue_wait_seconds");
    let (run_sum, run_n) = hist(delta, "symbist_service_job_run_seconds");
    let (ckpt_sum, ckpt_n) = hist(delta, "symbist_campaign_checkpoint_seconds");
    let (req_sum, req_n) = hist(delta, "symbist_service_request_seconds");
    report.set(
        "service.job.queue_wait_ms",
        stats::share(wait_sum, wait_n) * 1e3,
    );
    report.set("service.worker.run_ms", stats::share(run_sum, run_n) * 1e3);
    report.set(
        "service.worker.busy_ratio",
        stats::busy_ratio(run_sum, WORKERS, window),
    );
    let latency_sum: f64 = all_jobs.iter().map(|j| j.latency).sum();
    report.set(
        "service.outside_share",
        1.0 - stats::share(run_sum, latency_sum),
    );
    let rejected = delta.series(r#"symbist_service_requests_total{class="4xx"}"#)
        + delta.series(r#"symbist_service_requests_total{class="5xx"}"#);
    report.set("service.requests_rejected", rejected);
    report.set("defects.checkpoint.appends", ckpt_n);
    report.set(
        "defects.checkpoint.append_us",
        stats::share(ckpt_sum, ckpt_n) * 1e6,
    );
    println!(
        "server: {req_n} requests averaging {:.3} ms; {run_n} job runs; {ckpt_n} checkpoint appends",
        stats::share(req_sum, req_n) * 1e3
    );

    let records: u64 = logs.iter().map(|l| l.records).sum();
    let detected: u64 = logs.iter().map(|l| l.detected).sum();
    let unresolved: u64 = logs.iter().map(|l| l.unresolved).sum();
    let defect_ms: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.defect_ms.iter().copied())
        .collect();
    report.set(
        "core.session.defect_p50_ms",
        stats::median(&defect_ms).unwrap_or(0.0),
    );
    report.set(
        "core.session.defect_tail_ms",
        stats::tail(&defect_ms).map_or(0.0, |t| t.value),
    );
    report.set(
        "core.session.detected_frac",
        stats::share(detected as f64, records as f64),
    );
    report.set(
        "defects.campaign.runs",
        delta.family("symbist_campaign_runs_total"),
    );
    report.set("defects.campaign.defects", records as f64);
    report.set("defects.campaign.defects_per_s", records as f64 / window);
    report.set(
        "defects.campaign.busy_ratio",
        stats::busy_ratio(defect_ms.iter().sum::<f64>() / 1e3, WORKERS, window),
    );
    report.set("defects.campaign.unresolved", unresolved as f64);
    let counts = SolverCounts::from_delta(delta);
    report.set("circuit.transient.steps", counts.transient_steps);
    report.set("circuit.dc.solves", counts.dc_solves);
    report.set("circuit.dc.newton_iters", counts.newton_iters);
    report.set(
        "circuit.sparse.refactor_skip_ratio",
        counts.refactor_skip_ratio,
    );
    report.check(
        format!(
            "campaign counter saw {} defects, the clients {records}",
            counts.defects
        ),
        counts.defects as u64 == records,
    );
}

/// The in-process replay of registry admission and the campaign on the
/// run's generated specs: `DutModel::build`, the lint preflight, the
/// orbit analysis, `DutModel::calibrate`, and `check_dut` per defect.
/// Its verdicts must equal the service job's on the same spec.
fn replay_duts(specs: &[(Upload, u64)], report: &mut Report) -> Result<(), String> {
    let (mut build, mut lint, mut analysis, mut calibrate, mut check) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut defects = 0usize;
    for (upload, digest) in specs {
        let t = Instant::now();
        let model = DutModel::build(upload.spec.clone()).map_err(|e| e.to_string())?;
        build += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let context = format!("dut \"{}\"", model.spec.name);
        let mut diags = lint_netlist(&context, model.dut.template());
        diags.extend(lint_universe(&model.universe, model.dut.components()));
        lint += t.elapsed().as_secs_f64();
        report.check(
            format!("{} passes lint preflight", upload.id),
            !diags.has_errors(),
        );
        let t = Instant::now();
        let _ = std::hint::black_box(model.analysis());
        analysis += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let bist = model.calibrate().map_err(|e| e.to_string())?;
        calibrate += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut records = Vec::with_capacity(model.universe.len());
        for (i, d) in model.universe.defects().iter().enumerate() {
            let mut dut = model.dut.clone();
            dut.inject(d.site);
            let outcome: SimOutcome = check_dut(&bist, &dut).into();
            records.push(DefectRecord {
                defect_index: i,
                site: d.site,
                likelihood: d.likelihood,
                outcome,
                wall: Duration::ZERO,
            });
        }
        check += t.elapsed().as_secs_f64();
        defects += records.len();
        report.check(
            format!(
                "in-process check_dut verdicts equal the service job's on {}",
                upload.id
            ),
            job_digest(&mut records).value() == *digest,
        );
    }
    let n = specs.len().max(1) as f64;
    report.set("dut.model.build_ms", build / n * 1e3);
    report.set("lint.preflight_ms", lint / n * 1e3);
    report.set("dut.model.analysis_ms", analysis / n * 1e3);
    report.set("dut.model.calibrate_ms", calibrate / n * 1e3);
    report.set(
        "dut.check.us_per_defect",
        stats::share(check, defects as f64) * 1e6,
    );
    println!("dut replay: {} specs, {defects} defects", specs.len());
    Ok(())
}
