//! `symbist-coord` — fault-tolerant distributed campaign sharding.
//!
//! The coordinator splits a defect universe into contiguous catalog-index
//! ranges and drives one shard job per range across a fleet of ordinary
//! `serve` workers, speaking nothing but the public `/v1` API through the
//! existing [`Client`]. Robustness is the headline:
//!
//! * **Lease-based shard assignment with heartbeat liveness.** Each shard
//!   job holds a lease renewed by *progress watermarks*: the coordinator
//!   polls `GET /v1/jobs/{id}` and extends the lease whenever
//!   `progress.done` advances. A worker that stops making progress — dead
//!   process, stuck solve, network partition — lets its lease expire.
//! * **Automatic re-dispatch.** An expired lease (or a failed job — e.g.
//!   a worker killed mid-shard) triggers a best-effort cancel and a
//!   re-dispatch of the shard, rotated to the next worker. Records
//!   already streamed are kept in the shard's coordinator-side JSONL
//!   checkpoint, and the re-dispatched job covers only what is still
//!   missing — recovery resumes, it never restarts from zero.
//! * **Backoff with decorrelated jitter.** Transient submit/poll failures
//!   (connection refused, `429`, `503 queue_full`/`draining`) retry on
//!   the seeded [`Backoff`] schedule, honoring `Retry-After` as a floor.
//! * **Deterministic merge.** Records are keyed by catalog index; the
//!   merged result is the position-sorted union of the shard checkpoints,
//!   and the L-W coverage ± CI is recomputed through the *same*
//!   [`CampaignResult`] estimator path the 1-process oracle uses — so a
//!   3-shard chaos run is bit-identical to the uninterrupted oracle (see
//!   `tests/coord_chaos.rs`, the CI chaos gate).
//!
//! The merged artifact (`merged.jsonl`) uses
//! [`merged_line`](symbist_defects::checkpoint::merged_line) — the
//! checkpoint projection without the run-dependent `wall_ns` field — so
//! "bit-identical" is a byte comparison, not a field-by-field argument.
//!
//! Recovery is observable on `/v1/metrics` via the `symbist_coord_*`
//! Prometheus families: dispatches, re-dispatches, lease expiries,
//! transient-error retries, and merge latency.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use symbist_defects::checkpoint::{checkpoint_line, merged_line, parse_checkpoint_line};
use symbist_defects::{CampaignResult, Coverage, DefectRecord};
use symbist_dut::Json;

use crate::backoff::{Backoff, DEFAULT_BASE, DEFAULT_CAP};
use crate::client::{Client, ClientError, ServiceError};
use crate::job::JobId;
use crate::spec::JobSpec;

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// Worker addresses (`host:port`), each an ordinary `serve` instance.
    pub workers: Vec<String>,
    /// Number of contiguous index-range shards to split the universe into.
    pub shards: usize,
    /// Base job spec cloned per shard (the coordinator owns `index_lo`/
    /// `index_hi` and `tag`; `block` must be `None` — shard ranges address
    /// the full universe). Set `spec.dut` to shard a DUT the workers
    /// already have registered; leave it `None` for the baked-in ADC.
    pub spec: JobSpec,
    /// A DUT spec as JSON text to `POST /v1/duts` to **every** worker
    /// before sharding. Content addressing guarantees all workers derive
    /// the same id from the same text; the coordinator verifies they
    /// agree, then shards with `spec.dut` set to that id. Mutually
    /// exclusive with a pre-set `spec.dut`.
    pub dut_spec: Option<String>,
    /// Lease duration: a shard whose progress watermark does not advance
    /// for this long is declared dead and re-dispatched.
    pub lease_timeout: Duration,
    /// Status poll cadence while a shard runs.
    pub poll_interval: Duration,
    /// Dispatch attempts per shard before the run fails.
    pub max_attempts: u32,
    /// Backoff floor for transient-error retries.
    pub backoff_base: Duration,
    /// Backoff clamp (a `Retry-After` floor may still exceed it).
    pub backoff_cap: Duration,
    /// Transient-failure retries per request (submit/poll/fetch).
    pub request_retries: u32,
    /// Seed for the retry-jitter RNG (per-shard streams are derived).
    pub seed: u64,
    /// Directory for per-shard checkpoints and the merged artifact.
    pub data_dir: PathBuf,
    /// Per-request client read timeout (also bounds a post-expiry fetch
    /// from a wedged worker).
    pub client_timeout: Duration,
}

impl CoordConfig {
    /// A config with production-shaped defaults for the given fleet.
    pub fn new(workers: Vec<String>, shards: usize, data_dir: PathBuf) -> CoordConfig {
        CoordConfig {
            workers,
            shards,
            spec: JobSpec::default(),
            dut_spec: None,
            lease_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(50),
            max_attempts: 5,
            backoff_base: DEFAULT_BASE,
            backoff_cap: DEFAULT_CAP,
            request_retries: 8,
            seed: 0xC00D,
            data_dir,
            client_timeout: Duration::from_secs(30),
        }
    }
}

/// Why a coordinator run failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoordError {
    /// No worker addresses were configured.
    NoWorkers,
    /// The base spec cannot be sharded (e.g. a `block` restriction, or a
    /// pre-set index range).
    BadSpec(String),
    /// Workers derived different content ids from the same uploaded DUT
    /// spec — they are running incompatible registry builds, so their
    /// shard records could not describe the same catalog.
    DutMismatch {
        /// Content id derived by the first worker.
        expected: String,
        /// The disagreeing worker's address.
        worker: String,
        /// What that worker derived.
        got: String,
    },
    /// Workers disagree on the DUT's static-analysis orbit certificate —
    /// same content id, different analyzer verdicts — so any class-level
    /// extrapolation over merged shards would mix incompatible partitions.
    AnalysisMismatch {
        /// Certificate reported by the first worker.
        expected: String,
        /// The disagreeing worker's address.
        worker: String,
        /// What that worker reported.
        got: String,
    },
    /// Workers disagree on the universe size — they are not serving the
    /// same DUT build, so a merge would be meaningless.
    UniverseMismatch {
        /// Universe size reported by the first worker.
        expected: u64,
        /// The disagreeing worker's address.
        worker: String,
        /// What that worker reported.
        got: u64,
    },
    /// A worker could not be probed at startup.
    Probe {
        /// The unreachable worker's address.
        worker: String,
        /// The underlying client failure.
        reason: String,
    },
    /// A shard exhausted its dispatch attempts.
    ShardFailed {
        /// Shard number.
        shard: usize,
        /// Attempts spent.
        attempts: u32,
        /// Last per-attempt failure.
        last_error: String,
    },
    /// The merged record set does not cover the expected selection — a
    /// completeness invariant violation, never silently truncated output.
    Incomplete {
        /// Indices expected but absent from the merge.
        missing: usize,
    },
    /// Coordinator-side I/O (shard checkpoints, merged artifact).
    Io(std::io::Error),
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordError::NoWorkers => write!(f, "no workers configured"),
            CoordError::BadSpec(m) => write!(f, "spec cannot be sharded: {m}"),
            CoordError::DutMismatch {
                expected,
                worker,
                got,
            } => write!(
                f,
                "DUT id mismatch: worker {worker} derived {got}, expected {expected}"
            ),
            CoordError::AnalysisMismatch {
                expected,
                worker,
                got,
            } => write!(
                f,
                "analysis certificate mismatch: worker {worker} reported {got}, \
                 expected {expected}"
            ),
            CoordError::UniverseMismatch {
                expected,
                worker,
                got,
            } => write!(
                f,
                "universe mismatch: worker {worker} reports {got} defects, expected {expected}"
            ),
            CoordError::Probe { worker, reason } => {
                write!(f, "cannot probe worker {worker}: {reason}")
            }
            CoordError::ShardFailed {
                shard,
                attempts,
                last_error,
            } => write!(
                f,
                "shard {shard} failed after {attempts} attempts: {last_error}"
            ),
            CoordError::Incomplete { missing } => {
                write!(f, "merged result is missing {missing} records")
            }
            CoordError::Io(e) => write!(f, "coordinator I/O: {e}"),
        }
    }
}

impl std::error::Error for CoordError {}

impl From<std::io::Error> for CoordError {
    fn from(e: std::io::Error) -> Self {
        CoordError::Io(e)
    }
}

/// Per-shard summary in a [`CoordOutcome`].
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Shard number.
    pub shard: usize,
    /// Catalog-index range `[lo, hi)` this shard covered.
    pub range: (usize, usize),
    /// Dispatch attempts spent (1 = no recovery needed).
    pub attempts: u32,
    /// Records this shard contributed to the merge.
    pub records: usize,
    /// Leases that expired on this shard.
    pub lease_expiries: u32,
    /// Records recovered from the shard checkpoint across re-dispatches
    /// (work that did *not* have to be re-simulated).
    pub recovered: usize,
}

/// The merged result of a coordinator run.
#[derive(Debug, Clone)]
pub struct CoordOutcome {
    /// The recombined campaign result: position-sorted union of every
    /// shard's records, with coverage computed by the same estimator the
    /// 1-process oracle uses.
    pub result: CampaignResult,
    /// Coverage lower bound (unresolved counted as escapes).
    pub coverage_lower: Coverage,
    /// Coverage upper bound (unresolved counted as detected).
    pub coverage_upper: Coverage,
    /// Per-shard execution summaries.
    pub shards: Vec<ShardOutcome>,
    /// Total shard re-dispatches across the run.
    pub redispatches: u32,
    /// Path of the merged `merged_line` artifact.
    pub merged_path: PathBuf,
}

/// One shard's description: its number and index range.
#[derive(Debug, Clone, Copy)]
struct Shard {
    number: usize,
    lo: usize,
    hi: usize,
}

/// Whether a client failure is worth retrying: the request provably never
/// ran (transport error), or the worker refused it transiently (`429`,
/// `503 queue_full`/`draining`).
fn is_transient(error: &ClientError) -> bool {
    match error {
        ClientError::Io(_) => true,
        ClientError::Service(
            ServiceError::Saturated { .. }
            | ServiceError::QueueFull { .. }
            | ServiceError::Draining(_),
        ) => true,
        ClientError::Service(ServiceError::Other { status, .. }) => *status == 503,
        _ => false,
    }
}

fn retry_floor(error: &ClientError) -> Option<Duration> {
    match error {
        ClientError::Service(e) => e.retry_after().map(Duration::from_secs),
        _ => None,
    }
}

/// Runs `op` with transient-failure retries on the given backoff.
fn with_retries<T>(
    retries: u32,
    backoff: &mut Backoff,
    mut op: impl FnMut() -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let mut attempt = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && attempt < retries => {
                attempt += 1;
                symbist_obs::counter!(
                    "symbist_coord_retries_total",
                    "Transient worker errors retried by the coordinator"
                )
                .inc();
                std::thread::sleep(backoff.next(retry_floor(&e)));
            }
            Err(e) => return Err(e),
        }
    }
}

/// How one dispatch attempt ended.
enum AttemptEnd {
    /// The job reached `completed`.
    Completed,
    /// The job reached `failed`/`cancelled`, or its lease expired.
    Dead(String),
}

/// Runs the full coordinator flow: probe → shard → dispatch/recover →
/// merge. Blocking; returns when every shard merged or a shard exhausted
/// its attempts.
pub fn run_coordinator(config: &CoordConfig) -> Result<CoordOutcome, CoordError> {
    if config.workers.is_empty() {
        return Err(CoordError::NoWorkers);
    }
    if config.spec.block.is_some() {
        return Err(CoordError::BadSpec(
            "block-restricted specs are not shardable (ranges address the full universe)".into(),
        ));
    }
    if config.spec.index_lo.is_some() || config.spec.index_hi.is_some() {
        return Err(CoordError::BadSpec(
            "the coordinator owns index_lo/index_hi".into(),
        ));
    }
    if config.shards == 0 {
        return Err(CoordError::BadSpec("shards must be at least 1".into()));
    }
    if config.dut_spec.is_some() && config.spec.dut.is_some() {
        return Err(CoordError::BadSpec(
            "dut_spec and spec.dut are mutually exclusive (the upload decides the id)".into(),
        ));
    }
    std::fs::create_dir_all(&config.data_dir)?;

    let clients: Vec<Client> = config
        .workers
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            Client::builder()
                .base_url(addr.clone())
                .timeout(config.client_timeout)
                .backoff(config.backoff_base, config.backoff_cap)
                .backoff_seed(config.seed ^ (i as u64))
                .build()
        })
        .collect();

    // DUT distribution: upload the spec text to every worker. The id is
    // a pure function of the content (FNV over the canonical netlist +
    // invariances), so agreement is an integrity check on the fleet, not
    // a coordination protocol — a worker already holding the content
    // answers from its registry without consuming a quota slot.
    let mut spec = config.spec.clone();
    if let Some(text) = &config.dut_spec {
        let mut expected: Option<String> = None;
        for (client, addr) in clients.iter().zip(&config.workers) {
            let mut backoff = Backoff::new(config.seed, config.backoff_base, config.backoff_cap);
            let doc = with_retries(config.request_retries, &mut backoff, || {
                client.upload_dut_json(text)
            })
            .map_err(|e| CoordError::Probe {
                worker: addr.clone(),
                reason: format!("DUT upload: {e}"),
            })?;
            let id = doc
                .get("id")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            match &expected {
                None => expected = Some(id),
                Some(first) if *first != id => {
                    return Err(CoordError::DutMismatch {
                        expected: first.clone(),
                        worker: addr.clone(),
                        got: id,
                    })
                }
                Some(_) => {}
            }
        }
        spec.dut = expected;
    }
    let generic_dut = spec
        .dut
        .as_deref()
        .filter(|d| *d != symbist_dut::BUILTIN_ADC_DUT)
        .map(str::to_string);

    // Probe: every worker must serve the same universe, or a merge of
    // their shards would silently mix incompatible catalogs. Registered
    // DUTs expose their universe size on `GET /v1/duts/{id}`; the
    // baked-in ADC on `GET /v1/universe`.
    let mut universe = 0u64;
    for (client, addr) in clients.iter().zip(&config.workers) {
        let mut backoff = Backoff::new(config.seed, config.backoff_base, config.backoff_cap);
        let probe = || match &generic_dut {
            Some(id) => client
                .get_dut(id)?
                .get("defects")
                .and_then(Json::as_u64)
                .ok_or_else(|| ClientError::Protocol("DUT document missing defects".into())),
            None => client.universe(),
        };
        let n = with_retries(config.request_retries, &mut backoff, probe).map_err(|e| {
            CoordError::Probe {
                worker: addr.clone(),
                reason: e.to_string(),
            }
        })?;
        if universe == 0 {
            universe = n;
        } else if n != universe {
            return Err(CoordError::UniverseMismatch {
                expected: universe,
                worker: addr.clone(),
                got: n,
            });
        }
    }
    // Registered DUTs also carry a static-analysis certificate (a
    // canonical hash of the symmetry-orbit partition, deterministic per
    // content). Same content id + same analyzer ⇒ same certificate, so
    // agreement here extends the integrity check from "same netlist" to
    // "same defect-class partition" — the thing a class-level
    // extrapolation over the merged records would silently depend on.
    if let Some(id) = &generic_dut {
        let mut expected_cert: Option<String> = None;
        for (client, addr) in clients.iter().zip(&config.workers) {
            let mut backoff = Backoff::new(config.seed, config.backoff_base, config.backoff_cap);
            let cert = with_retries(config.request_retries, &mut backoff, || {
                client
                    .dut_analysis(id)?
                    .get("certificate")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| {
                        ClientError::Protocol("analysis document missing certificate".into())
                    })
            })
            .map_err(|e| CoordError::Probe {
                worker: addr.clone(),
                reason: format!("analysis probe: {e}"),
            })?;
            match &expected_cert {
                None => expected_cert = Some(cert),
                Some(first) if *first != cert => {
                    return Err(CoordError::AnalysisMismatch {
                        expected: first.clone(),
                        worker: addr.clone(),
                        got: cert,
                    })
                }
                Some(_) => {}
            }
        }
    }

    let n = universe as usize;
    if let Some(sample) = spec.sample_size {
        if sample > n {
            return Err(CoordError::BadSpec(format!(
                "sample_size {sample} exceeds the {n}-defect universe"
            )));
        }
    }

    // Contiguous balanced ranges; width-0 shards (more shards than
    // defects) are dropped.
    let shards: Vec<Shard> = (0..config.shards)
        .map(|s| Shard {
            number: s,
            lo: s * n / config.shards,
            hi: (s + 1) * n / config.shards,
        })
        .filter(|s| s.lo < s.hi)
        .collect();

    let redispatches = AtomicU32::new(0);
    let start = Instant::now();
    let shard_results: Vec<Result<ShardYield, CoordError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| {
                let clients = &clients;
                let redispatches = &redispatches;
                let spec = &spec;
                scope.spawn(move || run_shard(config, spec, clients, *shard, redispatches))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard driver panicked"))
            .collect()
    });

    let mut outcomes = Vec::with_capacity(shards.len());
    let mut merged: BTreeMap<usize, DefectRecord> = BTreeMap::new();
    for result in shard_results {
        let (outcome, records) = result?;
        outcomes.push(outcome);
        merged.extend(records);
    }

    let merge_start = Instant::now();
    // Completeness: exhaustive runs must cover every index of every
    // shard range. (Sampled selections are validated per shard: a shard
    // only reports success once its job completed and streamed fully.)
    if spec.sample_size.is_none() {
        let expected: usize = shards.iter().map(|s| s.hi - s.lo).sum();
        if merged.len() != expected {
            return Err(CoordError::Incomplete {
                missing: expected - merged.len(),
            });
        }
    }
    // BTreeMap iteration *is* the position sort: catalog-index order, the
    // same order the 1-process campaign assembles its records in.
    let records: Vec<DefectRecord> = merged.into_values().collect();
    let universe_likelihood: f64 = records.iter().map(|r| r.likelihood).sum();
    let result = CampaignResult {
        records,
        universe_size: n,
        universe_likelihood,
        sampled: spec.sample_size.is_some(),
        resumed: outcomes.iter().map(|o| o.recovered).sum(),
        total_wall: start.elapsed(),
    };
    // Same estimator entry points, same record order, same f64 summation
    // order as the oracle ⇒ bitwise-identical coverage ± CI.
    let coverage_lower = result.coverage();
    let coverage_upper = result.coverage_upper();

    let merged_path = config.data_dir.join("merged.jsonl");
    let mut artifact = String::with_capacity(result.records.len() * 96);
    for record in &result.records {
        artifact.push_str(&merged_line(record));
        artifact.push('\n');
    }
    std::fs::write(&merged_path, artifact)?;
    symbist_obs::histogram!(
        "symbist_coord_merge_seconds",
        "Latency of the deterministic position-sorted merge + recombination",
        symbist_obs::SECONDS_EDGES
    )
    .record(merge_start.elapsed().as_secs_f64());

    Ok(CoordOutcome {
        result,
        coverage_lower,
        coverage_upper,
        shards: outcomes,
        redispatches: redispatches.load(Ordering::SeqCst),
        merged_path,
    })
}

/// What one finished shard hands back to the merge: its outcome summary
/// plus its records keyed by catalog index.
type ShardYield = (ShardOutcome, BTreeMap<usize, DefectRecord>);

/// Drives one shard to completion: dispatch → lease loop → fetch →
/// (re-dispatch on death) until its records are all in.
fn run_shard(
    config: &CoordConfig,
    base_spec: &JobSpec,
    clients: &[Client],
    shard: Shard,
    redispatches: &AtomicU32,
) -> Result<ShardYield, CoordError> {
    let tag = format!("shard-{}", shard.number);
    let ckpt_path = config
        .data_dir
        .join(format!("shard-{:03}.jsonl", shard.number));
    // Coordinator-side shard checkpoint: records survive worker death
    // *and* coordinator death. Full checkpoint lines (with wall) so the
    // file is a valid campaign checkpoint in its own right.
    let mut received: BTreeMap<usize, DefectRecord> = BTreeMap::new();
    if let Ok(content) = std::fs::read_to_string(&ckpt_path) {
        for line in content.lines() {
            if let Some(rec) = parse_checkpoint_line(line) {
                if rec.defect_index >= shard.lo && rec.defect_index < shard.hi {
                    received.insert(rec.defect_index, rec);
                }
            }
        }
    }
    let mut ckpt = std::fs::File::options()
        .append(true)
        .create(true)
        .open(&ckpt_path)?;
    let recovered_at_start = received.len();

    let mut backoff = Backoff::new(
        config.seed ^ (0x5AD0 + shard.number as u64),
        config.backoff_base,
        config.backoff_cap,
    );
    let mut lease_expiries = 0u32;
    let mut last_error = String::from("never dispatched");

    for attempt in 0..config.max_attempts {
        // Exhaustive shards resume from the contiguous done-prefix; a
        // sampled shard resubmits its full range (the worker re-draws the
        // identical selection from the seed) and the coordinator dedups.
        let resume_lo = if base_spec.sample_size.is_none() {
            let mut lo = shard.lo;
            while lo < shard.hi && received.contains_key(&lo) {
                lo += 1;
            }
            if lo == shard.hi {
                break; // checkpoint already covers the shard
            }
            lo
        } else {
            shard.lo
        };

        let client = &clients[(shard.number + attempt as usize) % clients.len()];
        let mut spec = base_spec.clone();
        spec.index_lo = Some(resume_lo);
        spec.index_hi = Some(shard.hi);
        spec.tag = Some(tag.clone());

        if attempt > 0 {
            redispatches.fetch_add(1, Ordering::SeqCst);
            symbist_obs::counter!(
                "symbist_coord_redispatches_total",
                "Shards re-dispatched after a lease expiry or worker death"
            )
            .inc();
        }
        let id = match with_retries(config.request_retries, &mut backoff, || {
            client.submit(&spec)
        }) {
            Ok(id) => id,
            Err(e) => {
                last_error = format!("submit: {e}");
                continue;
            }
        };
        symbist_obs::counter!(
            "symbist_coord_dispatches_total",
            "Shard jobs submitted to workers (including re-dispatches)"
        )
        .inc();

        let end = lease_loop(config, client, id, &mut lease_expiries);

        // Post-mortem fetch: pull whatever the worker durably produced,
        // even from a failed attempt — that is what makes re-dispatch a
        // *resume*. The client's read timeout bounds a wedged worker.
        let fetch_error = fetch_records(client, id, shard, &mut received, &mut ckpt)
            .err()
            .map(|e| format!("fetch: {e}"));

        match end {
            AttemptEnd::Completed => {
                let done = base_spec.sample_size.is_some()
                    || (shard.lo..shard.hi).all(|i| received.contains_key(&i));
                if done {
                    let outcome = ShardOutcome {
                        shard: shard.number,
                        range: (shard.lo, shard.hi),
                        attempts: attempt + 1,
                        records: received.len(),
                        lease_expiries,
                        recovered: recovered_at_start,
                    };
                    record_shard_metrics("completed");
                    return Ok((outcome, received));
                }
                last_error =
                    fetch_error.unwrap_or_else(|| "job completed but records are missing".into());
            }
            AttemptEnd::Dead(reason) => {
                last_error = match fetch_error {
                    Some(fetch) => format!("{reason}; {fetch}"),
                    None => reason,
                };
            }
        }
    }

    // Exhaustive shards can also finish purely from checkpoint recovery
    // (the `break` above).
    if base_spec.sample_size.is_none() && (shard.lo..shard.hi).all(|i| received.contains_key(&i)) {
        let outcome = ShardOutcome {
            shard: shard.number,
            range: (shard.lo, shard.hi),
            attempts: 0,
            records: received.len(),
            lease_expiries,
            recovered: recovered_at_start,
        };
        record_shard_metrics("completed");
        return Ok((outcome, received));
    }
    record_shard_metrics("failed");
    Err(CoordError::ShardFailed {
        shard: shard.number,
        attempts: config.max_attempts,
        last_error,
    })
}

fn record_shard_metrics(state: &str) {
    const HELP: &str = "Shard outcomes across coordinator runs";
    let counter = match state {
        "completed" => {
            symbist_obs::counter!(r#"symbist_coord_shards_total{state="completed"}"#, HELP)
        }
        _ => symbist_obs::counter!(r#"symbist_coord_shards_total{state="failed"}"#, HELP),
    };
    counter.inc();
}

/// Polls the job until terminal or lease expiry. The lease renews on
/// progress-watermark advance, not on mere reachability — a worker that
/// answers polls but simulates nothing is as dead as one that vanished.
fn lease_loop(
    config: &CoordConfig,
    client: &Client,
    id: JobId,
    lease_expiries: &mut u32,
) -> AttemptEnd {
    let mut watermark = 0u64;
    let mut lease_deadline = Instant::now() + config.lease_timeout;
    loop {
        std::thread::sleep(config.poll_interval);
        match client.status(id) {
            Ok(doc) => {
                let state = doc
                    .get("state")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                let done = doc
                    .get("progress")
                    .and_then(|p| p.get("done"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                if done > watermark {
                    watermark = done;
                    lease_deadline = Instant::now() + config.lease_timeout;
                }
                match state.as_str() {
                    "completed" => return AttemptEnd::Completed,
                    "failed" | "cancelled" => {
                        let error = doc
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("no error detail")
                            .to_string();
                        return AttemptEnd::Dead(format!("job {state}: {error}"));
                    }
                    _ => {}
                }
            }
            Err(e) => {
                // Transport errors do not renew the lease; a partitioned
                // worker times out like a stalled one. Count the retry.
                symbist_obs::counter!(
                    "symbist_coord_retries_total",
                    "Transient worker errors retried by the coordinator"
                )
                .inc();
                if !is_transient(&e) {
                    return AttemptEnd::Dead(format!("poll: {e}"));
                }
            }
        }
        if Instant::now() > lease_deadline {
            *lease_expiries += 1;
            symbist_obs::counter!(
                "symbist_coord_lease_expiries_total",
                "Shard leases that expired without progress"
            )
            .inc();
            // Best-effort cancel so a merely-slow worker stops burning
            // cycles on a shard someone else now owns.
            let _ = client.cancel(id);
            return AttemptEnd::Dead(format!(
                "lease expired after {:?} without progress (watermark {watermark})",
                config.lease_timeout
            ));
        }
    }
}

/// Streams a job's records, appending previously-unseen in-range ones to
/// the shard checkpoint. Duplicates (a re-dispatched job re-simulating
/// records the checkpoint already holds) are dropped — first record wins,
/// which is also what checkpoint-resume semantics produce.
fn fetch_records(
    client: &Client,
    id: JobId,
    shard: Shard,
    received: &mut BTreeMap<usize, DefectRecord>,
    ckpt: &mut std::fs::File,
) -> Result<(), ClientError> {
    let stream = client.stream_results(id)?;
    for item in stream {
        let record = item?;
        if record.defect_index < shard.lo || record.defect_index >= shard.hi {
            continue;
        }
        if received.contains_key(&record.defect_index) {
            continue;
        }
        ckpt.write_all(checkpoint_line(&record).as_bytes())
            .and_then(|()| ckpt.write_all(b"\n"))
            .and_then(|()| ckpt.flush())
            .map_err(ClientError::Io)?;
        received.insert(record.defect_index, record);
    }
    Ok(())
}
