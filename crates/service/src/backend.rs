//! Campaign backends: how a [`JobSpec`] turns into an actual defect
//! campaign.
//!
//! The service core (registry, workers, HTTP front-end) is backend
//! agnostic. The production backend is [`AdcBackend`] — the paper's SAR
//! ADC IP under the calibrated SymBIST engine. [`SyntheticBackend`] is a
//! fast, deterministic stand-in for integration tests and throughput
//! benchmarks: its defects are scripted (shorts detected, everything else
//! not) and its per-defect cost is a configurable delay plus an optional
//! [`Gate`] tests can hold to freeze a campaign mid-flight.

use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use symbist::experiments::ExperimentConfig;
use symbist::session::{Schedule, SymBist};
use symbist_adc::fault::{check_site, ComponentInfo, ComponentKind, DefectSite, Faultable};
use symbist_adc::{BlockKind, SarAdc};
use symbist_defects::likelihood::LikelihoodModel;
use symbist_defects::{
    run_campaign_monitored, CampaignError, CampaignMonitor, CampaignResult, DefectUniverse,
    SimOutcome, TestOutcome,
};
use symbist_lint::{analyze_adc_with_universe, lint_adc_with_universe, AnalysisReport, LintReport};

use crate::spec::{JobSpec, SpecError};

/// Turns validated job specs into campaigns. Implementations are shared
/// across worker threads, so `run` must be re-entrant.
pub trait CampaignBackend: Send + Sync {
    /// Checks a spec against this backend's universe so a bad spec is
    /// rejected at submit time (`400`) instead of failing the job later.
    fn validate(&self, spec: &JobSpec) -> Result<(), SpecError>;

    /// Size of this backend's full defect universe: the catalog-index
    /// domain that `index_lo`/`index_hi` shard ranges address. Exposed on
    /// `GET /v1/universe` so a coordinator can split the range before
    /// submitting shard jobs.
    fn universe_len(&self) -> usize;

    /// Static pre-flight analysis for a spec: the lint report of the DUT
    /// and universe the job would run against. The front-end rejects
    /// submissions whose report carries Error-level diagnostics (`422`)
    /// before the job ever reaches the queue or a worker slot. The
    /// default is an empty (passing) report.
    fn preflight(&self, _spec: &JobSpec) -> LintReport {
        LintReport::default()
    }

    /// Runs the campaign described by `spec`, checkpointing to
    /// `checkpoint` and publishing every record through `monitor` (which
    /// may also cancel the campaign between defects).
    fn run(
        &self,
        spec: &JobSpec,
        checkpoint: Option<PathBuf>,
        monitor: &dyn CampaignMonitor,
    ) -> Result<CampaignResult, CampaignError>;

    /// Stage-two static analysis for the spec's DUT: symmetry orbits, the
    /// (orbit × defect kind) class partition, and cone-of-influence
    /// detectability. Served verbatim on `GET /v1/duts/{id}/analysis` and
    /// summarized inside `GET /v1/lint/{id}`. `None` (the default) means
    /// the backend has no analyzer for that DUT — the routes answer `404`
    /// and the lint response simply omits the summary.
    fn analysis(&self, _spec: &JobSpec) -> Option<AnalysisReport> {
        None
    }

    /// The DUT registry behind this backend, if it serves one. The HTTP
    /// front-end routes `/v1/duts` through this; backends without a
    /// registry (the synthetic test backend, a bare ADC server) answer
    /// `404` there. The default is `None`.
    fn dut_registry(&self) -> Option<&Arc<symbist_dut::DutRegistry>> {
        None
    }
}

/// Resolves a spec's block label against the backend's catalog.
fn resolve_block(spec: &JobSpec) -> Result<Option<BlockKind>, SpecError> {
    match &spec.block {
        None => Ok(None),
        Some(label) => BlockKind::ALL
            .into_iter()
            .find(|b| b.label() == label)
            .map(Some)
            .ok_or_else(|| {
                SpecError(format!(
                    "unknown block \"{label}\" (expected one of: {})",
                    BlockKind::ALL.map(BlockKind::label).join(", ")
                ))
            }),
    }
}

/// Checks the sampled/exhaustive choice against a universe size.
pub(crate) fn check_sample(spec: &JobSpec, universe_len: usize) -> Result<(), SpecError> {
    if let Some(n) = spec.sample_size {
        if n > universe_len {
            return Err(SpecError(format!(
                "sample_size {n} exceeds the {universe_len}-defect universe"
            )));
        }
    }
    Ok(())
}

/// Checks a spec's shard range against the universe it will run over.
pub(crate) fn check_range(spec: &JobSpec, universe_len: usize) -> Result<(), SpecError> {
    let lo = spec.index_lo.unwrap_or(0);
    let hi = spec.index_hi.unwrap_or(universe_len);
    if lo >= hi || hi > universe_len {
        return Err(SpecError(format!(
            "index range [{lo}, {hi}) invalid for the {universe_len}-defect universe"
        )));
    }
    Ok(())
}

/// Parses a spec's schedule label, defaulting to sequential.
fn resolve_schedule(spec: &JobSpec) -> Result<Schedule, SpecError> {
    match &spec.schedule {
        None => Ok(Schedule::Sequential),
        Some(label) => Schedule::from_label(label).ok_or_else(|| {
            SpecError(format!(
                "unknown schedule \"{label}\" (expected \"sequential\" or \"parallel\")"
            ))
        }),
    }
}

/// The production backend: the paper's SAR ADC IP with both SymBIST
/// comparator schedules calibrated once at startup.
pub struct AdcBackend {
    adc: SarAdc,
    universe: DefectUniverse,
    lint: LintReport,
    analysis: AnalysisReport,
    sequential: SymBist,
    parallel: SymBist,
}

impl AdcBackend {
    /// Builds the ADC, enumerates its defect universe, and calibrates a
    /// SymBIST engine per schedule (the expensive part — done once, not
    /// per job). The static lint report is also computed here: the DUT
    /// and universe are fixed for the backend's lifetime, so pre-flight
    /// per submission is a clone, not a re-analysis.
    pub fn new(xc: &ExperimentConfig) -> AdcBackend {
        let adc = SarAdc::new(xc.adc.clone());
        let universe = DefectUniverse::enumerate(&adc, &LikelihoodModel::default());
        let lint = lint_adc_with_universe(&adc, &universe);
        let analysis = analyze_adc_with_universe(&adc, &universe);
        let engine = |schedule| {
            let mut xc = xc.clone();
            xc.schedule = schedule;
            xc.build_engine()
        };
        AdcBackend {
            adc,
            universe,
            lint,
            analysis,
            sequential: engine(Schedule::Sequential),
            parallel: engine(Schedule::Parallel),
        }
    }

    /// Size of the full defect universe.
    pub fn universe_len(&self) -> usize {
        self.universe.len()
    }

    fn select(&self, block: Option<BlockKind>) -> DefectUniverse {
        match block {
            None => DefectUniverse::from_defects(self.universe.defects().to_vec()),
            Some(block) => self.universe.filter_block(block),
        }
    }
}

impl CampaignBackend for AdcBackend {
    fn preflight(&self, _spec: &JobSpec) -> LintReport {
        self.lint.clone()
    }

    fn analysis(&self, spec: &JobSpec) -> Option<AnalysisReport> {
        // Only answer for the baked-in DUT: a bare ADC server (no
        // registry decorator) must not serve its own analysis under an
        // arbitrary `/v1/duts/{id}/analysis` reference.
        matches!(
            spec.dut.as_deref(),
            None | Some(symbist_dut::BUILTIN_ADC_DUT)
        )
        .then(|| self.analysis.clone())
    }

    fn validate(&self, spec: &JobSpec) -> Result<(), SpecError> {
        let block = resolve_block(spec)?;
        resolve_schedule(spec)?;
        let universe = self.select(block);
        if universe.is_empty() {
            return Err(SpecError(format!(
                "block \"{}\" has no defects",
                spec.block.as_deref().unwrap_or("?")
            )));
        }
        check_sample(spec, universe.len())?;
        check_range(spec, universe.len())
    }

    fn universe_len(&self) -> usize {
        self.universe.len()
    }

    fn run(
        &self,
        spec: &JobSpec,
        checkpoint: Option<PathBuf>,
        monitor: &dyn CampaignMonitor,
    ) -> Result<CampaignResult, CampaignError> {
        let universe = self.select(resolve_block(spec).map_err(|_| CampaignError::EmptyUniverse)?);
        let engine = match resolve_schedule(spec).unwrap_or(Schedule::Sequential) {
            Schedule::Sequential => &self.sequential,
            Schedule::Parallel => &self.parallel,
        };
        let options = spec.campaign_options(checkpoint, universe.len());
        run_campaign_monitored(
            &self.adc,
            &universe,
            &options,
            |dut| engine.campaign_test(dut),
            monitor,
        )
    }
}

/// A barrier tests hold to freeze a synthetic campaign mid-defect: while
/// held, every in-flight defect simulation blocks in `Gate::pass` until
/// [`Gate::release`]. Lets tests deterministically observe a `running`
/// job with a known record count.
#[derive(Debug, Default)]
pub struct Gate {
    held: Mutex<bool>,
    released: Condvar,
}

impl Gate {
    /// Creates an open gate.
    pub fn new() -> Arc<Gate> {
        Arc::new(Gate::default())
    }

    /// Closes the gate: subsequent `pass` calls block.
    pub fn hold(&self) {
        *self.held.lock().unwrap_or_else(|e| e.into_inner()) = true;
    }

    /// Opens the gate, waking every blocked simulation.
    pub fn release(&self) {
        *self.held.lock().unwrap_or_else(|e| e.into_inner()) = false;
        self.released.notify_all();
    }

    fn pass(&self) {
        let mut held = self.held.lock().unwrap_or_else(|e| e.into_inner());
        while *held {
            held = self.released.wait(held).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The synthetic DUT behind [`SyntheticBackend`]: `n` resistors in the SC
/// Array block, scripted detection (short-class defects detected,
/// everything else an escape).
#[derive(Clone)]
pub struct SyntheticDut {
    catalog: Arc<Vec<ComponentInfo>>,
    injected: Option<DefectSite>,
}

impl SyntheticDut {
    fn new(components: usize) -> SyntheticDut {
        let catalog = (0..components)
            .map(|i| ComponentInfo {
                block: BlockKind::ScArray,
                name: format!("synthetic/r{i}"),
                kind: ComponentKind::Resistor,
                area: 1.0 + i as f64,
            })
            .collect();
        SyntheticDut {
            catalog: Arc::new(catalog),
            injected: None,
        }
    }
}

impl Faultable for SyntheticDut {
    fn components(&self) -> &[ComponentInfo] {
        &self.catalog
    }
    fn inject(&mut self, site: DefectSite) {
        check_site(&self.catalog, site);
        self.injected = Some(site);
    }
    fn clear_defects(&mut self) {
        self.injected = None;
    }
    fn injected(&self) -> Option<DefectSite> {
        self.injected
    }
}

/// Deterministic test/bench backend: a scripted universe with tunable
/// per-defect cost and an optional hold [`Gate`].
pub struct SyntheticBackend {
    dut: SyntheticDut,
    universe: DefectUniverse,
    defect_delay: Duration,
    gate: Option<Arc<Gate>>,
    lint: LintReport,
}

impl SyntheticBackend {
    /// Builds a backend over `components` resistors (each expands to its
    /// applicable defect kinds). Zero-delay, no gate.
    pub fn new(components: usize) -> SyntheticBackend {
        let dut = SyntheticDut::new(components);
        let universe = DefectUniverse::enumerate(&dut, &LikelihoodModel::default());
        SyntheticBackend {
            dut,
            universe,
            defect_delay: Duration::ZERO,
            gate: None,
            lint: LintReport::default(),
        }
    }

    /// Adds a fixed per-defect simulated cost.
    pub fn with_delay(mut self, delay: Duration) -> SyntheticBackend {
        self.defect_delay = delay;
        self
    }

    /// Attaches a hold gate every defect simulation must pass.
    pub fn with_gate(mut self, gate: Arc<Gate>) -> SyntheticBackend {
        self.gate = Some(gate);
        self
    }

    /// Scripts the pre-flight lint report (tests exercise the `422`
    /// rejection path without building a structurally broken DUT).
    pub fn with_lint_report(mut self, report: LintReport) -> SyntheticBackend {
        self.lint = report;
        self
    }

    /// Size of the synthetic defect universe.
    pub fn universe_len(&self) -> usize {
        self.universe.len()
    }
}

impl CampaignBackend for SyntheticBackend {
    fn preflight(&self, _spec: &JobSpec) -> LintReport {
        self.lint.clone()
    }

    fn validate(&self, spec: &JobSpec) -> Result<(), SpecError> {
        if let Some(block) = &spec.block {
            if block != BlockKind::ScArray.label() {
                return Err(SpecError(format!(
                    "unknown block \"{block}\" (synthetic backend has only \"{}\")",
                    BlockKind::ScArray.label()
                )));
            }
        }
        resolve_schedule(spec)?;
        check_sample(spec, self.universe.len())?;
        check_range(spec, self.universe.len())
    }

    fn universe_len(&self) -> usize {
        self.universe.len()
    }

    fn run(
        &self,
        spec: &JobSpec,
        checkpoint: Option<PathBuf>,
        monitor: &dyn CampaignMonitor,
    ) -> Result<CampaignResult, CampaignError> {
        let delay = self.defect_delay;
        let gate = self.gate.clone();
        run_campaign_monitored(
            &self.dut,
            &self.universe,
            &spec.campaign_options(checkpoint, self.universe.len()),
            move |dut: &SyntheticDut| {
                if let Some(gate) = &gate {
                    gate.pass();
                }
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                let detected = dut.injected().is_some_and(|site| site.kind.is_short());
                SimOutcome::Completed(TestOutcome {
                    detected,
                    detection_cycle: detected.then_some(3),
                    cycles_run: if detected { 3 } else { 192 },
                })
            },
            monitor,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_backend_runs_exhaustively() {
        let backend = SyntheticBackend::new(4);
        let spec = JobSpec::default();
        backend.validate(&spec).unwrap();
        let result = backend.run(&spec, None, &()).unwrap();
        assert_eq!(result.simulated(), backend.universe_len());
        // Resistors expand to short/open/±50%: exactly one in four is a
        // short, and only shorts are detected.
        assert_eq!(result.detected() * 4, result.simulated());
    }

    #[test]
    fn synthetic_backend_validates_specs() {
        let backend = SyntheticBackend::new(4);
        let huge = JobSpec {
            sample_size: Some(10_000),
            ..Default::default()
        };
        assert!(backend.validate(&huge).is_err());
        let bad_block = JobSpec {
            block: Some("BandGap".into()),
            ..Default::default()
        };
        assert!(backend.validate(&bad_block).is_err());
        let bad_schedule = JobSpec {
            schedule: Some("zigzag".into()),
            ..Default::default()
        };
        assert!(backend.validate(&bad_schedule).is_err());
        let good = JobSpec {
            block: Some("SC Array".into()),
            sample_size: Some(4),
            schedule: Some("parallel".into()),
            ..Default::default()
        };
        backend.validate(&good).unwrap();
    }

    #[test]
    fn gate_freezes_and_releases() {
        let gate = Gate::new();
        gate.hold();
        let backend = SyntheticBackend::new(2).with_gate(Arc::clone(&gate));
        let handle = {
            let spec = JobSpec::default();
            std::thread::spawn(move || backend.run(&spec, None, &()).unwrap())
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(!handle.is_finished(), "campaign must block on the gate");
        gate.release();
        let result = handle.join().unwrap();
        assert!(result.simulated() > 0);
    }
}
