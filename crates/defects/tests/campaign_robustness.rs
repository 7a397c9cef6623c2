//! Fault-tolerance acceptance tests for the campaign runner: panic
//! isolation, per-defect budgets, typed unresolved reasons, coverage
//! bounds, and checkpoint/resume bit-identity.
#![allow(clippy::unwrap_used)] // integration tests assert by panicking

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use symbist_adc::fault::{
    check_site, BlockKind, ComponentInfo, ComponentKind, DefectKind, DefectSite, Faultable,
};
use symbist_adc::{AdcConfig, SarAdc};
use symbist_circuit::dc::DcSolver;
use symbist_circuit::error::CircuitError;
use symbist_circuit::netlist::Netlist;
use symbist_defects::likelihood::LikelihoodModel;
use symbist_defects::{
    run_campaign, CampaignOptions, CampaignResult, DefectUniverse, SimOutcome, TestOutcome,
    UnresolvedReason,
};

/// A minimal Faultable DUT whose behavior is scripted per injected site.
#[derive(Clone)]
struct ToyDut {
    catalog: Vec<ComponentInfo>,
    injected: Option<DefectSite>,
}

impl ToyDut {
    fn new(n: usize) -> Self {
        let catalog = (0..n)
            .map(|i| ComponentInfo {
                block: BlockKind::ScArray,
                name: format!("toy/c{i}"),
                kind: ComponentKind::Resistor,
                area: 1.0 + i as f64,
            })
            .collect();
        Self {
            catalog,
            injected: None,
        }
    }
}

impl Faultable for ToyDut {
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

/// Defects drawn for the real-ADC budget test, and its per-defect Newton
/// budget: just above what a full 32-code sweep of the SC array takes, so
/// about half the sample (the defects that re-solve ladder codes or the
/// bandgap) runs out.
const NEWTON_BUDGET_SAMPLE: usize = 120;
const TIGHT_NEWTON_BUDGET: u64 = 3200;

fn universe(n: usize) -> (ToyDut, DefectUniverse) {
    let dut = ToyDut::new(n);
    let uni = DefectUniverse::enumerate(&dut, &LikelihoodModel::default());
    (dut, uni)
}

fn completed(detected: bool) -> TestOutcome {
    TestOutcome {
        detected,
        detection_cycle: detected.then_some(3),
        cycles_run: if detected { 3 } else { 192 },
    }
}

/// Is the injected site the scripted "bad" one?
fn is_target(dut: &ToyDut, component: usize, kind: DefectKind) -> bool {
    dut.injected() == Some(DefectSite { component, kind })
}

/// Fresh checkpoint path per test (the suite runs tests concurrently).
fn temp_checkpoint(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "symbist-ckpt-{}-{tag}-{n}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn panic_on_one_defect_is_isolated() {
    let (dut, uni) = universe(4);
    let res = run_campaign(&dut, &uni, &CampaignOptions::default(), |d: &ToyDut| {
        if is_target(d, 1, DefectKind::Short) {
            panic!("solver blew up on this defect");
        }
        completed(d.injected().map(|s| s.kind.is_short()).unwrap_or(false))
    })
    .expect("campaign must complete despite the panic");

    assert_eq!(res.simulated(), uni.len());
    assert_eq!(res.unresolved(), 1);
    let bad: Vec<_> = res
        .records
        .iter()
        .filter(|r| r.outcome.is_unresolved())
        .collect();
    assert_eq!(bad.len(), 1);
    assert_eq!(
        bad[0].outcome.unresolved_reason(),
        Some(UnresolvedReason::Panic)
    );
    assert_eq!(
        bad[0].site,
        DefectSite {
            component: 1,
            kind: DefectKind::Short
        }
    );
    // Every other record carries a real verdict.
    assert_eq!(
        res.records
            .iter()
            .filter(|r| r.outcome.completed().is_some())
            .count(),
        uni.len() - 1
    );
}

#[test]
fn deadline_times_out_spinning_defect() {
    let (dut, uni) = universe(3);
    let opts = CampaignOptions {
        defect_deadline: Some(Duration::from_millis(10)),
        ..Default::default()
    };
    let res = run_campaign(&dut, &uni, &opts, |d: &ToyDut| {
        if is_target(d, 0, DefectKind::Open) {
            // A test closure stuck well past the deadline without ever
            // entering the solver: only the post-hoc demotion can catch it.
            std::thread::sleep(Duration::from_millis(60));
        }
        completed(false)
    })
    .expect("campaign must complete despite the slow defect");

    let slow: Vec<_> = res
        .records
        .iter()
        .filter(|r| {
            r.site
                == DefectSite {
                    component: 0,
                    kind: DefectKind::Open,
                }
        })
        .collect();
    assert_eq!(slow.len(), 1);
    assert_eq!(
        slow[0].outcome.unresolved_reason(),
        Some(UnresolvedReason::Timeout)
    );
    assert!(slow[0].wall >= Duration::from_millis(10));
    // The fast defects keep their completed verdicts.
    assert_eq!(res.unresolved(), 1);
}

#[test]
fn no_convergence_is_recorded_and_bounds_bracket_truth() {
    let (dut, uni) = universe(6);
    // Scripted ground truth: shorts are detectable, everything else is an
    // escape — but ParamLow simulations "fail to converge".
    let truth_test =
        |d: &ToyDut| completed(d.injected().map(|s| s.kind.is_short()).unwrap_or(false));
    let truth = run_campaign(&dut, &uni, &CampaignOptions::default(), truth_test)
        .unwrap()
        .coverage()
        .value;

    let res = run_campaign(
        &dut,
        &uni,
        &CampaignOptions::default(),
        |d: &ToyDut| -> Result<TestOutcome, CircuitError> {
            if d.injected().map(|s| s.kind == DefectKind::ParamLow) == Some(true) {
                Err(CircuitError::NoConvergence {
                    analysis: "dc",
                    iterations: 200,
                })
            } else {
                Ok(completed(
                    d.injected().map(|s| s.kind.is_short()).unwrap_or(false),
                ))
            }
        },
    )
    .unwrap();

    assert_eq!(res.unresolved(), 6, "one ParamLow per component");
    for r in res.records.iter().filter(|r| r.outcome.is_unresolved()) {
        assert_eq!(
            r.outcome.unresolved_reason(),
            Some(UnresolvedReason::NoConvergence)
        );
        assert_eq!(r.site.kind, DefectKind::ParamLow);
    }
    let (lo, hi) = res.coverage_bounds();
    assert!(
        lo.value <= truth && truth <= hi.value,
        "bounds [{}, {}] must bracket true coverage {}",
        lo.value,
        hi.value,
        truth
    );
    assert!(lo.value < hi.value, "unresolved records must open the gap");
}

#[test]
fn newton_budget_exhaustion_is_deterministic_on_real_solver() {
    let (dut, uni) = universe(2);
    let opts = CampaignOptions {
        newton_budget: Some(1),
        ..Default::default()
    };
    // Every defect drives a genuinely nonlinear solve that cannot converge
    // in a single Newton iteration; the thread budget installed by the
    // campaign must cut it off and surface BudgetExhausted → Timeout.
    let solver_test = |_d: &ToyDut| -> Result<TestOutcome, CircuitError> {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let k = nl.node("k");
        nl.vsource(a, Netlist::GND, 2.0);
        nl.resistor(a, k, 100.0);
        nl.diode(k, Netlist::GND, 1e-14, 1.0);
        let _ = DcSolver::new().solve(&nl)?;
        Ok(completed(false))
    };
    let a = run_campaign(&dut, &uni, &opts, solver_test).unwrap();
    let b = run_campaign(&dut, &uni, &opts, solver_test).unwrap();

    assert_eq!(a.simulated(), uni.len());
    for r in &a.records {
        assert_eq!(
            r.outcome.unresolved_reason(),
            Some(UnresolvedReason::Timeout),
            "budget expiry must map to Timeout, got {:?}",
            r.outcome
        );
    }
    // Iteration budgets (unlike wall deadlines) are fully deterministic.
    let outcomes = |res: &CampaignResult| -> Vec<SimOutcome> {
        res.records.iter().map(|r| r.outcome).collect()
    };
    assert_eq!(outcomes(&a), outcomes(&b));

    // Without the budget the same circuit solves fine: proof that the
    // campaign cleared the thread budget after each defect.
    let clean = run_campaign(&dut, &uni, &CampaignOptions::default(), solver_test).unwrap();
    assert_eq!(clean.unresolved(), 0);
}

/// The real ADC under a Newton budget tight enough to cut some sweeps
/// short: the shared defect-free store is filled by whichever defect asks
/// first, on whichever thread, and charges nothing to its budget, so
/// every outcome is the same on 1 thread, on 3, and with the store filled
/// before the campaign starts.
#[test]
fn tight_newton_budget_gives_the_same_outcomes_on_any_thread_count() {
    let test = |adc: &SarAdc| -> Result<TestOutcome, CircuitError> {
        let obs = adc.try_symbist_observations(0.2)?;
        let detected = obs
            .iter()
            .any(|o| (o.m_plus + o.m_minus - o.vref32).abs() > 1e-3);
        Ok(completed(detected))
    };
    let outcomes = |threads: usize, prefill: bool| -> Vec<(usize, SimOutcome)> {
        // A fresh base per run, so the store fills inside the campaign
        // unless `prefill` fills it first.
        let adc = SarAdc::new(AdcConfig::default());
        if prefill {
            adc.clone().try_symbist_observations(0.2).unwrap();
        }
        let uni = DefectUniverse::enumerate(&adc, &LikelihoodModel::default());
        let opts = CampaignOptions {
            sample_size: Some(NEWTON_BUDGET_SAMPLE),
            threads,
            newton_budget: Some(TIGHT_NEWTON_BUDGET),
            ..Default::default()
        };
        let res = run_campaign(&adc, &uni, &opts, test).unwrap();
        let mut out: Vec<_> = res
            .records
            .iter()
            .map(|r| (r.defect_index, r.outcome))
            .collect();
        out.sort_by_key(|(i, _)| *i);
        out
    };
    let one = outcomes(1, false);
    assert_eq!(one, outcomes(3, false));
    assert_eq!(one, outcomes(1, true));
    let timeouts = one
        .iter()
        .filter(|(_, o)| o.unresolved_reason() == Some(UnresolvedReason::Timeout))
        .count();
    assert!(
        0 < timeouts && timeouts < one.len(),
        "{timeouts} of {}",
        one.len()
    );
}

#[test]
fn checkpoint_full_reload_is_bit_identical() {
    let (dut, uni) = universe(5);
    let path = temp_checkpoint("full");
    let opts = CampaignOptions {
        threads: 3,
        checkpoint: Some(path.clone()),
        ..Default::default()
    };
    let test = |d: &ToyDut| completed(d.injected().map(|s| s.kind.is_short()).unwrap_or(false));

    let first = run_campaign(&dut, &uni, &opts, test).unwrap();
    assert_eq!(first.resumed, 0);

    // Second run resumes everything: zero re-simulation, and the records —
    // including f64 likelihoods and nanosecond wall times — round-trip
    // bit-identically through the JSONL file.
    let second = run_campaign(&dut, &uni, &opts, |_: &ToyDut| -> TestOutcome {
        panic!("a fully-checkpointed campaign must not re-simulate anything")
    })
    .unwrap();
    assert_eq!(second.resumed, uni.len());
    assert_eq!(second.records, first.records);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn interrupted_campaign_resumes_without_redoing_work() {
    let (dut, uni) = universe(6);
    let path = temp_checkpoint("resume");
    let opts = CampaignOptions {
        threads: 2,
        checkpoint: Some(path.clone()),
        ..Default::default()
    };
    let test = |d: &ToyDut| completed(d.injected().map(|s| s.kind.is_short()).unwrap_or(false));

    let uninterrupted = run_campaign(&dut, &uni, &opts, test).unwrap();

    // Simulate a kill partway through: keep only the first few checkpoint
    // lines, plus a torn final line as a killed process would leave.
    let content = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = content.lines().collect();
    let keep = 3;
    let torn = &lines[keep][..lines[keep].len() / 2];
    std::fs::write(&path, format!("{}\n{torn}", lines[..keep].join("\n"))).unwrap();

    let resumed = run_campaign(&dut, &uni, &opts, test).unwrap();
    assert_eq!(resumed.resumed, keep, "torn line must not count");
    // Bit-identical final records, interrupted or not: same order, same
    // outcomes, same likelihood bits. (Wall times of re-simulated defects
    // legitimately differ; everything else must not.)
    assert_eq!(resumed.records.len(), uninterrupted.records.len());
    for (r, u) in resumed.records.iter().zip(&uninterrupted.records) {
        assert_eq!(r.defect_index, u.defect_index);
        assert_eq!(r.site, u.site);
        assert_eq!(r.likelihood.to_bits(), u.likelihood.to_bits());
        assert_eq!(r.outcome, u.outcome);
    }

    let _ = std::fs::remove_file(&path);
}

#[test]
fn stale_checkpoint_from_other_universe_is_ignored() {
    let (dut, uni) = universe(3);
    let (big_dut, big_uni) = universe(9);
    let path = temp_checkpoint("stale");
    let opts = CampaignOptions {
        checkpoint: Some(path.clone()),
        ..Default::default()
    };
    let test = |d: &ToyDut| completed(d.injected().map(|s| s.kind.is_short()).unwrap_or(false));

    // Populate the checkpoint from the *large* universe, then run the
    // small one against the same file: indices past the small universe
    // must be rejected, in-range ones only accepted when site and
    // likelihood match exactly.
    run_campaign(&big_dut, &big_uni, &opts, test).unwrap();
    let res = run_campaign(&dut, &uni, &opts, test).unwrap();
    assert_eq!(res.simulated(), uni.len());
    // The two universes agree on the leading components, so those records
    // resume; nothing out of range may leak in.
    assert!(res.resumed <= uni.len());
    assert!(res.records.iter().all(|r| r.defect_index < uni.len()));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn unwritable_checkpoint_path_fails_fast() {
    let (dut, uni) = universe(2);
    let opts = CampaignOptions {
        checkpoint: Some(PathBuf::from("/nonexistent-dir/ckpt.jsonl")),
        ..Default::default()
    };
    let err = run_campaign(&dut, &uni, &opts, |_: &ToyDut| completed(false)).unwrap_err();
    assert!(
        matches!(err, symbist_defects::CampaignError::Checkpoint { .. }),
        "got {err}"
    );
}
