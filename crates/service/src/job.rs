//! Jobs and the job registry: IDs, the per-job state machine, the bounded
//! FIFO queue, progress tracking, cancellation, and crash-safe
//! persistence.
//!
//! # State machine
//!
//! ```text
//!            submit            claim             finish
//! (wire) ──► Queued ─────────► Running ────────► Completed
//!              │                  │        └───► Failed
//!              │ DELETE           │ DELETE / drain
//!              └────────────► Cancelled ◄┘
//! ```
//!
//! Only `Queued → Running`, `Running → {Completed, Failed, Cancelled}` and
//! `Queued → Cancelled` are legal; terminal states never transition again.
//!
//! # Persistence and drain
//!
//! With a data directory configured, each job owns two files:
//! `job-<id>.json` (id + spec + state, rewritten on every transition) and
//! `job-<id>.ckpt.jsonl` (the campaign checkpoint, appended per record by
//! the campaign runner). A drain (graceful shutdown) cancels running jobs
//! cooperatively — every completed record is already on disk — and
//! persists them as `queued`, so a restarted registry re-enqueues them and
//! the resumed campaign produces records bit-identical to an uninterrupted
//! run.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use symbist_defects::checkpoint::parse_checkpoint_line;
use symbist_defects::{CampaignMonitor, CampaignResult, DefectRecord, UnresolvedCounts};
use symbist_dut::Json;

use crate::spec::JobSpec;

/// Job identifier: dense integers assigned at submit time, stable across
/// restarts (recovery continues after the highest persisted id).
pub type JobId = u64;

/// The per-job lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting in the FIFO queue.
    Queued,
    /// Claimed by a worker; campaign in progress.
    Running,
    /// Campaign finished; results and report available.
    Completed,
    /// Campaign errored or the worker panicked.
    Failed,
    /// Cancelled by the client (or recovered as such).
    Cancelled,
}

impl JobState {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`label`](Self::label).
    pub fn from_label(label: &str) -> Option<JobState> {
        match label {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "completed" => Some(JobState::Completed),
            "failed" => Some(JobState::Failed),
            "cancelled" => Some(JobState::Cancelled),
            _ => None,
        }
    }

    /// Whether the state is final.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Cancelled
        )
    }
}

/// Live progress counters, updated per record by the campaign monitor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobProgress {
    /// Defects selected for simulation (sample or full universe); 0 until
    /// the campaign starts.
    pub selected: usize,
    /// Records reloaded from the checkpoint instead of re-simulated.
    pub resumed: usize,
    /// Records completed so far (including resumed ones).
    pub done: usize,
    /// Positively detected defects so far.
    pub detected: usize,
    /// Unresolved records so far, by reason.
    pub unresolved: UnresolvedCounts,
}

/// Summary of a finished campaign, served by `GET /report/{id}`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Defects simulated (including resumed records).
    pub simulated: usize,
    /// Positively detected defects.
    pub detected: usize,
    /// Unresolved records by reason.
    pub unresolved: UnresolvedCounts,
    /// L-W coverage lower bound (unresolved counted as escapes).
    pub coverage_lower: f64,
    /// CI half-width of the lower bound (sampled campaigns only).
    pub ci_lower: Option<f64>,
    /// L-W coverage upper bound (unresolved counted as detected).
    pub coverage_upper: f64,
    /// CI half-width of the upper bound (sampled campaigns only).
    pub ci_upper: Option<f64>,
    /// Campaign wall time in seconds.
    pub wall_s: f64,
}

impl JobReport {
    /// Builds a report from a finished campaign result. An empty result —
    /// a sampled shard whose index range drew no defects — reports zero
    /// coverage with no CI rather than panicking in the estimator.
    pub fn from_result(result: &CampaignResult) -> JobReport {
        if result.simulated() == 0 {
            return JobReport {
                simulated: 0,
                detected: 0,
                unresolved: UnresolvedCounts::default(),
                coverage_lower: 0.0,
                ci_lower: None,
                coverage_upper: 0.0,
                ci_upper: None,
                wall_s: result.total_wall.as_secs_f64(),
            };
        }
        let (lo, hi) = result.coverage_bounds();
        JobReport {
            simulated: result.simulated(),
            detected: result.detected(),
            unresolved: result.unresolved_by_reason(),
            coverage_lower: lo.value,
            ci_lower: lo.ci_half_width,
            coverage_upper: hi.value,
            ci_upper: hi.ci_half_width,
            wall_s: result.total_wall.as_secs_f64(),
        }
    }

    /// Serializes the report for the wire and the persistence layer.
    pub fn to_json(&self) -> Json {
        let ci = |v: Option<f64>| v.map(Json::num).unwrap_or(Json::Null);
        Json::obj([
            ("simulated", Json::num(self.simulated as f64)),
            ("detected", Json::num(self.detected as f64)),
            (
                "unresolved",
                Json::obj([
                    (
                        "no_convergence",
                        Json::num(self.unresolved.no_convergence as f64),
                    ),
                    ("timeout", Json::num(self.unresolved.timeout as f64)),
                    ("panic", Json::num(self.unresolved.panic as f64)),
                ]),
            ),
            (
                "coverage",
                Json::obj([
                    ("lower", Json::num(self.coverage_lower)),
                    ("lower_ci", ci(self.ci_lower)),
                    ("upper", Json::num(self.coverage_upper)),
                    ("upper_ci", ci(self.ci_upper)),
                ]),
            ),
            ("wall_s", Json::num(self.wall_s)),
        ])
    }

    /// Parses a persisted report.
    pub fn from_json(json: &Json) -> Option<JobReport> {
        let unresolved = json.get("unresolved")?;
        let coverage = json.get("coverage")?;
        let opt = |v: Option<&Json>| -> Option<f64> { v.and_then(Json::as_f64) };
        Some(JobReport {
            simulated: json.get("simulated")?.as_u64()? as usize,
            detected: json.get("detected")?.as_u64()? as usize,
            unresolved: UnresolvedCounts {
                no_convergence: unresolved.get("no_convergence")?.as_u64()? as usize,
                timeout: unresolved.get("timeout")?.as_u64()? as usize,
                panic: unresolved.get("panic")?.as_u64()? as usize,
            },
            coverage_lower: coverage.get("lower")?.as_f64()?,
            ci_lower: opt(coverage.get("lower_ci")),
            coverage_upper: coverage.get("upper")?.as_f64()?,
            ci_upper: opt(coverage.get("upper_ci")),
            wall_s: json.get("wall_s")?.as_f64()?,
        })
    }
}

/// A point-in-time view of a job, serializable for `GET /jobs/{id}`.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The job id.
    pub id: JobId,
    /// Current state.
    pub state: JobState,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Live progress counters.
    pub progress: JobProgress,
    /// Failure message, for failed jobs.
    pub error: Option<String>,
    /// Final report, for completed jobs.
    pub report: Option<JobReport>,
}

impl JobStatus {
    /// Serializes the status for the wire.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::num(self.id as f64)),
            ("state", Json::str(self.state.label())),
            ("spec", self.spec.to_json()),
            (
                "progress",
                Json::obj([
                    ("selected", Json::num(self.progress.selected as f64)),
                    ("resumed", Json::num(self.progress.resumed as f64)),
                    ("done", Json::num(self.progress.done as f64)),
                    ("detected", Json::num(self.progress.detected as f64)),
                    (
                        "no_convergence",
                        Json::num(self.progress.unresolved.no_convergence as f64),
                    ),
                    (
                        "timeout",
                        Json::num(self.progress.unresolved.timeout as f64),
                    ),
                    ("panic", Json::num(self.progress.unresolved.panic as f64)),
                ]),
            ),
            (
                "error",
                self.error
                    .as_ref()
                    .map(|e| Json::str(e.clone()))
                    .unwrap_or(Json::Null),
            ),
            (
                "report",
                self.report
                    .as_ref()
                    .map(JobReport::to_json)
                    .unwrap_or(Json::Null),
            ),
        ])
    }
}

#[derive(Debug)]
struct JobInner {
    state: JobState,
    progress: JobProgress,
    /// Completion-order record log: the NDJSON stream source. Resumed
    /// records land first (selection order), then fresh ones as workers
    /// finish them.
    records: Vec<DefectRecord>,
    error: Option<String>,
    report: Option<JobReport>,
    cancel_requested: bool,
    /// The cancellation came from a graceful drain, not a client DELETE:
    /// persist as `queued` so a restart resumes the job.
    drain: bool,
}

/// One job: spec, state, record log, and synchronization.
#[derive(Debug)]
pub struct Job {
    /// The job id.
    pub id: JobId,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Campaign checkpoint path (present when the registry has a data
    /// directory).
    pub checkpoint: Option<PathBuf>,
    /// When the job entered the queue (re-set on recovery), the reference
    /// point for the queue-wait histogram.
    enqueued_at: Instant,
    inner: Mutex<JobInner>,
    changed: Condvar,
}

impl Job {
    fn new(id: JobId, spec: JobSpec, checkpoint: Option<PathBuf>) -> Job {
        Job {
            id,
            spec,
            checkpoint,
            enqueued_at: Instant::now(),
            inner: Mutex::new(JobInner {
                state: JobState::Queued,
                progress: JobProgress::default(),
                records: Vec::new(),
                error: None,
                report: None,
                cancel_requested: false,
                drain: false,
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JobInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current state.
    pub fn state(&self) -> JobState {
        self.lock().state
    }

    /// A point-in-time status snapshot.
    pub fn status(&self) -> JobStatus {
        let inner = self.lock();
        JobStatus {
            id: self.id,
            state: inner.state,
            spec: self.spec.clone(),
            progress: inner.progress,
            error: inner.error.clone(),
            report: inner.report.clone(),
        }
    }

    /// The final report, for completed jobs.
    pub fn report(&self) -> Option<JobReport> {
        self.lock().report.clone()
    }

    /// Copies records `from..` out of the completion-order log, plus
    /// whether the job has reached a terminal state. The pair is read
    /// under one lock so a streamer can't miss records published between
    /// the copy and the terminal check.
    pub fn records_from(&self, from: usize) -> (Vec<DefectRecord>, bool) {
        let inner = self.lock();
        let records = inner.records.get(from..).unwrap_or_default().to_vec();
        (records, inner.state.is_terminal())
    }

    /// Blocks until the record log grows past `len` or the job ends, with
    /// a timeout tick so callers can poll for client disconnects.
    pub fn wait_progress(&self, len: usize, timeout: Duration) {
        let inner = self.lock();
        if inner.records.len() > len || inner.state.is_terminal() {
            return;
        }
        let _unused = self
            .changed
            .wait_timeout(inner, timeout)
            .unwrap_or_else(|e| e.into_inner());
    }

    /// Requests cooperative cancellation. `drain` marks a shutdown drain
    /// (persist as queued) rather than a client cancel.
    pub fn request_cancel(&self, drain: bool) {
        let mut inner = self.lock();
        inner.cancel_requested = true;
        inner.drain = inner.drain || drain;
        self.changed.notify_all();
    }

    /// Whether cancellation was requested (drain or client).
    pub fn cancel_requested(&self) -> bool {
        self.lock().cancel_requested
    }

    /// Whether the pending cancellation is a shutdown drain.
    pub fn is_drain(&self) -> bool {
        self.lock().drain
    }

    fn transition(&self, to: JobState) {
        let mut inner = self.lock();
        debug_assert!(
            !inner.state.is_terminal(),
            "illegal transition {:?} -> {to:?}",
            inner.state
        );
        inner.state = to;
        self.changed.notify_all();
    }

    fn complete(&self, result: &CampaignResult) {
        let mut inner = self.lock();
        inner.report = Some(JobReport::from_result(result));
        inner.state = JobState::Completed;
        self.changed.notify_all();
    }

    fn fail(&self, error: String) {
        let mut inner = self.lock();
        inner.error = Some(error);
        inner.state = JobState::Failed;
        self.changed.notify_all();
    }
}

/// [`CampaignMonitor`] adapter publishing a job's campaign progress into
/// the registry-visible job state.
pub struct JobMonitor<'a> {
    job: &'a Job,
}

impl<'a> JobMonitor<'a> {
    /// Wraps a job.
    pub fn new(job: &'a Job) -> JobMonitor<'a> {
        JobMonitor { job }
    }
}

impl CampaignMonitor for JobMonitor<'_> {
    fn on_start(&self, selected: usize, resumed: usize) {
        let mut inner = self.job.lock();
        // A resumed job replays its checkpoint records through on_record;
        // reset the log so the stream never duplicates them.
        inner.records.clear();
        inner.progress = JobProgress {
            selected,
            resumed,
            ..JobProgress::default()
        };
        self.job.changed.notify_all();
    }

    fn on_record(&self, record: &DefectRecord, _resumed: bool) {
        let mut inner = self.job.lock();
        inner.progress.done += 1;
        if record.outcome.detected() {
            inner.progress.detected += 1;
        }
        if let Some(reason) = record.outcome.unresolved_reason() {
            use symbist_defects::UnresolvedReason::*;
            match reason {
                NoConvergence => inner.progress.unresolved.no_convergence += 1,
                Timeout => inner.progress.unresolved.timeout += 1,
                Panic => inner.progress.unresolved.panic += 1,
            }
        }
        inner.records.push(*record);
        self.job.changed.notify_all();
    }

    fn cancelled(&self) -> bool {
        self.job.lock().cancel_requested
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The FIFO queue is at capacity — the `503` backpressure signal.
    QueueFull {
        /// The configured capacity the queue is at.
        capacity: usize,
    },
    /// The registry is draining for shutdown.
    Draining,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "job queue full (capacity {capacity})")
            }
            SubmitError::Draining => write!(f, "service is draining for shutdown"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Aggregate service counters for `GET /stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegistryStats {
    /// Jobs waiting in the queue.
    pub queue_depth: usize,
    /// Configured queue capacity.
    pub queue_capacity: usize,
    /// Jobs currently running.
    pub running: usize,
    /// Jobs accepted since startup (including recovered ones).
    pub submitted: u64,
    /// Jobs that reached `Completed`.
    pub completed: u64,
    /// Jobs that reached `Failed`.
    pub failed: u64,
    /// Jobs that reached `Cancelled`.
    pub cancelled: u64,
    /// Submissions refused with queue-full backpressure.
    pub rejected: u64,
}

#[derive(Debug, Default)]
struct RegistryInner {
    jobs: BTreeMap<JobId, Arc<Job>>,
    queue: VecDeque<JobId>,
    next_id: JobId,
    accepting: bool,
    stats: RegistryStats,
}

/// The shared job registry: bounded FIFO queue plus the job table.
#[derive(Debug)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
    queue_ready: Condvar,
    queue_capacity: usize,
    data_dir: Option<PathBuf>,
}

impl Registry {
    /// Creates a registry with the given queue capacity. With a data
    /// directory, previously persisted jobs are recovered: terminal jobs
    /// become queryable history (their record logs reload from their
    /// checkpoints), and queued/running jobs re-enter the queue in id
    /// order — the restart half of the drain-resume contract.
    pub fn new(queue_capacity: usize, data_dir: Option<PathBuf>) -> std::io::Result<Registry> {
        let registry = Registry {
            inner: Mutex::new(RegistryInner {
                accepting: true,
                next_id: 1,
                ..Default::default()
            }),
            queue_ready: Condvar::new(),
            queue_capacity: queue_capacity.max(1),
            data_dir,
        };
        if let Some(dir) = registry.data_dir.clone() {
            std::fs::create_dir_all(&dir)?;
            registry.recover(&dir)?;
        }
        Ok(registry)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn meta_path(dir: &Path, id: JobId) -> PathBuf {
        dir.join(format!("job-{id:06}.json"))
    }

    fn ckpt_path(dir: &Path, id: JobId) -> PathBuf {
        dir.join(format!("job-{id:06}.ckpt.jsonl"))
    }

    /// Rewrites a job's metadata file to reflect `state`.
    fn persist(&self, job: &Job, state: JobState) {
        let Some(dir) = &self.data_dir else {
            return;
        };
        let mut pairs = vec![
            ("id", Json::num(job.id as f64)),
            ("state", Json::str(state.label())),
            ("spec", job.spec.to_json()),
        ];
        if let Some(report) = job.report() {
            pairs.push(("report", report.to_json()));
        }
        let doc = Json::obj(pairs);
        // Write-then-rename so a kill mid-write never tears the metadata.
        let path = Self::meta_path(dir, job.id);
        let tmp = path.with_extension("json.tmp");
        if std::fs::write(&tmp, format!("{doc}\n")).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }

    fn recover(&self, dir: &Path) -> std::io::Result<()> {
        let mut metas: Vec<(JobId, Json)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !name.starts_with("job-") || !name.ends_with(".json") {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(entry.path()) else {
                continue;
            };
            let Ok(doc) = Json::parse(&text) else {
                continue; // torn metadata: the tmp-rename makes this rare
            };
            let Some(id) = doc.get("id").and_then(Json::as_u64) else {
                continue;
            };
            metas.push((id, doc));
        }
        metas.sort_unstable_by_key(|(id, _)| *id);

        let mut inner = self.lock();
        for (id, doc) in metas {
            let Some(spec) = doc.get("spec").and_then(|s| JobSpec::from_json(s).ok()) else {
                continue;
            };
            let state = doc
                .get("state")
                .and_then(Json::as_str)
                .and_then(JobState::from_label)
                .unwrap_or(JobState::Queued);
            let ckpt = Self::ckpt_path(dir, id);
            let job = Arc::new(Job::new(id, spec, Some(ckpt.clone())));
            inner.next_id = inner.next_id.max(id + 1);
            inner.stats.submitted += 1;
            match state {
                // Interrupted (queued, or running when the process died):
                // re-enqueue; the campaign resumes from the checkpoint.
                JobState::Queued | JobState::Running => {
                    inner.queue.push_back(id);
                }
                terminal => {
                    // Historical job: restore state, report, and record log
                    // so status/report/results stay serveable.
                    {
                        let mut jinner = job.lock();
                        jinner.state = terminal;
                        jinner.report = doc.get("report").and_then(JobReport::from_json);
                        if let Ok(content) = std::fs::read_to_string(&ckpt) {
                            jinner.records =
                                content.lines().filter_map(parse_checkpoint_line).collect();
                            jinner.progress.done = jinner.records.len();
                        }
                        match terminal {
                            JobState::Completed => inner.stats.completed += 1,
                            JobState::Failed => inner.stats.failed += 1,
                            JobState::Cancelled => inner.stats.cancelled += 1,
                            _ => unreachable!(),
                        }
                    }
                }
            }
            inner.jobs.insert(id, job);
        }
        drop(inner);
        self.queue_ready.notify_all();
        Ok(())
    }

    /// Submits a job. Fails fast with [`SubmitError::QueueFull`] when the
    /// bounded queue is at capacity — the server maps this to `503`.
    pub fn submit(&self, spec: JobSpec) -> Result<Arc<Job>, SubmitError> {
        let mut inner = self.lock();
        if !inner.accepting {
            return Err(SubmitError::Draining);
        }
        if inner.queue.len() >= self.queue_capacity {
            inner.stats.rejected += 1;
            return Err(SubmitError::QueueFull {
                capacity: self.queue_capacity,
            });
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let checkpoint = self.data_dir.as_deref().map(|d| Self::ckpt_path(d, id));
        let job = Arc::new(Job::new(id, spec, checkpoint));
        inner.jobs.insert(id, Arc::clone(&job));
        inner.queue.push_back(id);
        inner.stats.submitted += 1;
        note_queue_depth(inner.queue.len());
        drop(inner);
        self.persist(&job, JobState::Queued);
        self.queue_ready.notify_one();
        Ok(job)
    }

    /// Blocks until a queued job is available and claims it (marking it
    /// `Running`), or returns `None` once the registry is draining —
    /// the worker-pool exit signal. Draining leaves queued jobs queued:
    /// they persist as such and resume after restart.
    pub fn claim_next(&self) -> Option<Arc<Job>> {
        let mut inner = self.lock();
        loop {
            if !inner.accepting {
                return None;
            }
            if let Some(id) = inner.queue.pop_front() {
                let job = inner.jobs.get(&id).cloned()?;
                // A queued job cancelled before being claimed was already
                // transitioned; skip it.
                if job.state() != JobState::Queued {
                    continue;
                }
                inner.stats.running += 1;
                note_queue_depth(inner.queue.len());
                drop(inner);
                symbist_obs::histogram!(
                    "symbist_service_queue_wait_seconds",
                    "Time a job spent queued before a worker claimed it",
                    symbist_obs::SECONDS_EDGES
                )
                .record(job.enqueued_at.elapsed().as_secs_f64());
                job.transition(JobState::Running);
                self.persist(&job, JobState::Running);
                return Some(job);
            }
            inner = self
                .queue_ready
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Records a claimed job's outcome (worker-pool callback): applies the
    /// terminal transition, updates counters, and persists. A drain
    /// cancellation persists as `queued` so a restart resumes the job.
    pub fn finish(&self, job: &Job, outcome: Result<CampaignResult, String>) {
        let cancelled = job.cancel_requested();
        let drain = job.is_drain();
        let persist_state = match &outcome {
            Ok(result) => {
                job.complete(result);
                JobState::Completed
            }
            Err(_) if cancelled => {
                job.transition(JobState::Cancelled);
                if drain {
                    JobState::Queued
                } else {
                    JobState::Cancelled
                }
            }
            Err(error) => {
                job.fail(error.clone());
                JobState::Failed
            }
        };
        let mut inner = self.lock();
        inner.stats.running = inner.stats.running.saturating_sub(1);
        const HELP: &str = "Jobs finished, by terminal state";
        match job.state() {
            JobState::Completed => {
                inner.stats.completed += 1;
                symbist_obs::counter!(r#"symbist_service_jobs_total{state="completed"}"#, HELP)
                    .inc();
            }
            JobState::Failed => {
                inner.stats.failed += 1;
                symbist_obs::counter!(r#"symbist_service_jobs_total{state="failed"}"#, HELP).inc();
            }
            JobState::Cancelled => {
                inner.stats.cancelled += 1;
                symbist_obs::counter!(r#"symbist_service_jobs_total{state="cancelled"}"#, HELP)
                    .inc();
            }
            _ => {}
        }
        drop(inner);
        self.persist(job, persist_state);
    }

    /// Looks up a job.
    pub fn get(&self, id: JobId) -> Option<Arc<Job>> {
        self.lock().jobs.get(&id).cloned()
    }

    /// Cancels a job. Queued jobs transition immediately; running jobs
    /// get a cooperative cancel request (the campaign stops between
    /// defects). Returns `false` for unknown or already-terminal jobs.
    pub fn cancel(&self, id: JobId) -> bool {
        let Some(job) = self.get(id) else {
            return false;
        };
        match job.state() {
            JobState::Queued => {
                job.request_cancel(false);
                job.transition(JobState::Cancelled);
                let mut inner = self.lock();
                inner.queue.retain(|queued| *queued != id);
                inner.stats.cancelled += 1;
                symbist_obs::counter!(
                    r#"symbist_service_jobs_total{state="cancelled"}"#,
                    "Jobs finished, by terminal state"
                )
                .inc();
                note_queue_depth(inner.queue.len());
                drop(inner);
                self.persist(&job, JobState::Cancelled);
                true
            }
            JobState::Running => {
                job.request_cancel(false);
                true
            }
            _ => false,
        }
    }

    /// Begins a graceful drain: stop accepting submissions, wake idle
    /// workers so they exit, and cooperatively cancel running jobs (their
    /// checkpoints already hold every completed record). Queued jobs stay
    /// persisted as queued for the restarted server.
    pub fn begin_drain(&self) {
        let mut inner = self.lock();
        inner.accepting = false;
        let running: Vec<Arc<Job>> = inner
            .jobs
            .values()
            .filter(|j| j.state() == JobState::Running)
            .cloned()
            .collect();
        drop(inner);
        for job in running {
            job.request_cancel(true);
        }
        self.queue_ready.notify_all();
    }

    /// Whether the registry is still accepting submissions.
    pub fn accepting(&self) -> bool {
        self.lock().accepting
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.lock();
        RegistryStats {
            queue_depth: inner.queue.len(),
            queue_capacity: self.queue_capacity,
            ..inner.stats
        }
    }
}

/// Publishes the queue depth gauge after any queue mutation.
fn note_queue_depth(depth: usize) {
    symbist_obs::gauge!(
        "symbist_service_queue_depth",
        "Jobs currently waiting in the FIFO queue"
    )
    .set(i64::try_from(depth).unwrap_or(i64::MAX));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::default()
    }

    #[test]
    fn submit_claim_finish_lifecycle() {
        let reg = Registry::new(4, None).unwrap();
        let job = reg.submit(spec()).unwrap();
        assert_eq!(job.state(), JobState::Queued);
        let claimed = reg.claim_next().unwrap();
        assert_eq!(claimed.id, job.id);
        assert_eq!(claimed.state(), JobState::Running);
        reg.finish(&claimed, Err("boom".into()));
        assert_eq!(job.state(), JobState::Failed);
        assert_eq!(job.status().error.as_deref(), Some("boom"));
        let stats = reg.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.running, 0);
    }

    #[test]
    fn queue_capacity_backpressure() {
        let reg = Registry::new(2, None).unwrap();
        reg.submit(spec()).unwrap();
        reg.submit(spec()).unwrap();
        let err = reg.submit(spec()).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { capacity: 2 });
        assert_eq!(reg.stats().rejected, 1);
        // Claiming one frees a slot.
        let _job = reg.claim_next().unwrap();
        assert!(reg.submit(spec()).is_ok());
    }

    #[test]
    fn cancel_queued_job_skips_claim() {
        let reg = Registry::new(4, None).unwrap();
        let a = reg.submit(spec()).unwrap();
        let b = reg.submit(spec()).unwrap();
        assert!(reg.cancel(a.id));
        assert_eq!(a.state(), JobState::Cancelled);
        let claimed = reg.claim_next().unwrap();
        assert_eq!(claimed.id, b.id, "cancelled job must not be claimed");
        // Terminal jobs cannot be cancelled again.
        assert!(!reg.cancel(a.id));
    }

    #[test]
    fn drain_stops_accepting_and_unblocks_workers() {
        let reg = Arc::new(Registry::new(4, None).unwrap());
        let waiter = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || reg.claim_next())
        };
        std::thread::sleep(Duration::from_millis(20));
        reg.begin_drain();
        assert!(waiter.join().unwrap().is_none());
        assert!(matches!(
            reg.submit(spec()).unwrap_err(),
            SubmitError::Draining
        ));
    }

    #[test]
    fn ids_are_dense_and_fresh() {
        let reg = Registry::new(8, None).unwrap();
        let a = reg.submit(spec()).unwrap();
        let b = reg.submit(spec()).unwrap();
        assert_eq!(b.id, a.id + 1);
        assert!(reg.get(a.id).is_some());
        assert!(reg.get(999).is_none());
    }
}
