//! Experiment drivers: one function per table/figure of the paper, shared
//! by the integration tests, the examples, and the `symbist-bench`
//! regeneration binaries. See DESIGN.md §3 for the experiment index.

use symbist_adc::baseline::{BandgapIp, PorIp};
use symbist_adc::fault::{DefectKind, DefectSite, Faultable};
use symbist_adc::sc_array::ScTraces;
use symbist_adc::{AdcConfig, AdcMismatch, BlockKind, SarAdc};
use symbist_circuit::rng::Rng;
use symbist_defects::{
    run_campaign, CampaignOptions, CampaignResult, Coverage, CoverageTable, DefectUniverse,
    LikelihoodModel, TestOutcome,
};

use crate::calibrate::Calibration;
use crate::escape::{escape_analysis, EscapeReport, SpecLimits};
use crate::invariance::{deviation, InvarianceId};
use crate::session::{Schedule, SymBist};
use crate::stimulus::StimulusSpec;

/// Shared experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// DUT electrical configuration.
    pub adc: AdcConfig,
    /// Monte-Carlo samples for window calibration.
    pub calibration_samples: usize,
    /// Window width multiplier (paper: k = 5).
    pub k: f64,
    /// Master seed.
    pub seed: u64,
    /// Campaign worker threads.
    pub threads: usize,
    /// Stimulus.
    pub stimulus: StimulusSpec,
    /// Comparator schedule for the built engine (paper experiments use
    /// the sequential, minimal-area schedule).
    pub schedule: Schedule,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            adc: AdcConfig::default(),
            calibration_samples: 10,
            k: 5.0,
            seed: 0xD47E_2020, // DATE 2020
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            stimulus: StimulusSpec::default(),
            schedule: Schedule::Sequential,
        }
    }
}

impl ExperimentConfig {
    /// Builds the calibrated SymBIST engine on the configured schedule.
    pub fn build_engine(&self) -> SymBist {
        let cal = Calibration::run(
            &self.adc,
            &self.stimulus,
            self.calibration_samples,
            self.k,
            self.seed,
        );
        SymBist::new(cal, self.stimulus, self.schedule)
    }
}

// ---------------------------------------------------------------------
// EXP-T1: Table I
// ---------------------------------------------------------------------

/// Options for the Table-I campaign.
#[derive(Debug, Clone, Copy)]
pub struct Table1Options {
    /// Blocks with at most this many defects are simulated exhaustively
    /// (the paper simulates BandGap 104/104, SC Array 44/44, Vcm 6/6).
    pub exhaustive_threshold: usize,
    /// LWRS sample size for larger blocks (the paper uses ~112 for the
    /// sub-DACs and 55 for the reference buffer).
    pub per_block_sample: usize,
    /// LWRS sample size for the whole-IP aggregate row (paper: 101).
    pub aggregate_sample: usize,
}

impl Default for Table1Options {
    fn default() -> Self {
        Self {
            exhaustive_threshold: 120,
            per_block_sample: 112,
            aggregate_sample: 101,
        }
    }
}

/// Regenerates Table I: per-block and aggregate L-W defect coverage of
/// SymBIST on the SAR ADC IP.
pub fn table1(xc: &ExperimentConfig, opts: &Table1Options) -> (CoverageTable, Vec<CampaignResult>) {
    let engine = xc.build_engine();
    let adc = SarAdc::new(xc.adc.clone());
    let universe = DefectUniverse::enumerate(&adc, &LikelihoodModel::default());

    let mut table = CoverageTable::new();
    let mut results = Vec::new();
    for (block_idx, block) in BlockKind::ALL.into_iter().enumerate() {
        let sub = universe.filter_block(block);
        let sample =
            (sub.len() > opts.exhaustive_threshold).then_some(opts.per_block_sample.min(sub.len()));
        let campaign = run_campaign(
            &adc,
            &sub,
            &CampaignOptions {
                sample_size: sample,
                seed: xc.seed.wrapping_add(block_idx as u64 * 0x9E37_79B9),
                threads: xc.threads,
                ..Default::default()
            },
            |dut| engine.campaign_test(dut),
        )
        .expect("table-1 block campaign is well-formed");
        table.push_block(block, &campaign);
        results.push(campaign);
    }
    // Aggregate row: LWRS over the complete A/M-S universe.
    let aggregate = run_campaign(
        &adc,
        &universe,
        &CampaignOptions {
            sample_size: Some(opts.aggregate_sample.min(universe.len())),
            seed: xc.seed ^ 0xA66,
            threads: xc.threads,
            ..Default::default()
        },
        |dut| engine.campaign_test(dut),
    )
    .expect("table-1 aggregate campaign is well-formed");
    table.push_aggregate("Complete A/M-S part of SAR ADC IP", &aggregate);
    results.push(aggregate);
    (table, results)
}

// ---------------------------------------------------------------------
// EXP-F5: Fig. 5
// ---------------------------------------------------------------------

/// One curve of the Fig. 5 reproduction.
#[derive(Debug, Clone)]
pub struct Fig5Case {
    /// Curve label.
    pub label: String,
    /// Full transient of the invariance-I3 signal `DAC+ + DAC−`.
    pub traces: ScTraces,
    /// Per-code settled deviations from the I3 reference.
    pub deviations: Vec<f64>,
    /// Per-code detection flags under the calibrated window.
    pub detected: Vec<bool>,
}

/// The Fig. 5 dataset: the comparison window and the four curves.
#[derive(Debug, Clone)]
pub struct Fig5Data {
    /// Window half-width δ = k·σ for invariance I3.
    pub delta: f64,
    /// Nominal invariance value `2·Vcm`.
    pub nominal: f64,
    /// Defect-free curve plus the three defect cases of the paper
    /// (SUBDAC1, SC array, Vcm generator).
    pub cases: Vec<Fig5Case>,
}

/// Regenerates Fig. 5: the invariance-I3 waveform for the defect-free DUT
/// and three defect cases, with the ±δ window.
///
/// # Panics
///
/// Panics if the named fig-5 components cannot be found in the catalog
/// (would indicate a catalog regression) or a case fails to simulate.
pub fn fig5(xc: &ExperimentConfig) -> Fig5Data {
    let engine = xc.build_engine();
    let delta = engine.calibration().deltas[InvarianceId::I3DacSum.index()];
    let base = SarAdc::new(xc.adc.clone());
    let find = |needle: &str| -> usize {
        base.components()
            .iter()
            .position(|c| c.name.contains(needle))
            .unwrap_or_else(|| panic!("component '{needle}' missing from catalog"))
    };

    let cases_spec: [(&str, Option<DefectSite>); 4] = [
        ("defect-free", None),
        (
            // A stuck decoder bit misroutes M+ only for counter codes with
            // that bit clear — half the sweep violates I1/I3, the other
            // half is clean ("specific conversion periods", Fig. 5).
            "SUBDAC1 defect (decoder bit stuck)",
            Some(DefectSite {
                component: find("subdac1/dec_p/bit3/p"),
                kind: DefectKind::ShortDs,
            }),
        ),
        (
            // A floating main-cap bottom plate: the error scales with how
            // far the stranded (sampled) charge is from the commanded M
            // level, crossing zero mid-sweep — so only part of the counter
            // sweep trips the window, the paper's "specific conversion
            // periods" case.
            "SC array defect (conv switch open)",
            Some(DefectSite {
                component: find("scarray/p/sw_conv_main"),
                kind: DefectKind::OpenDrain,
            }),
        ),
        (
            "Vcm generator defect (divider +50%)",
            Some(DefectSite {
                component: find("vcmgen/r_top"),
                kind: DefectKind::ParamHigh,
            }),
        ),
    ];

    let mut cases = Vec::new();
    for (label, site) in cases_spec {
        let mut dut = base.clone();
        if let Some(site) = site {
            dut.inject(site);
        }
        let traces = dut
            .try_invariance3_trace(xc.stimulus.din)
            .expect("fig-5 cases simulate to completion");
        let obs = dut
            .try_symbist_observations(xc.stimulus.din)
            .expect("fig-5 cases simulate to completion");
        let deviations: Vec<f64> = obs
            .iter()
            .map(|o| deviation(InvarianceId::I3DacSum, o, &engine.calibration().wiring))
            .collect();
        let detected = deviations
            .iter()
            .map(|d| {
                engine
                    .calibration()
                    .centered(InvarianceId::I3DacSum, *d)
                    .abs()
                    > delta
            })
            .collect();
        cases.push(Fig5Case {
            label: label.to_string(),
            traces,
            deviations,
            detected,
        });
    }
    Fig5Data {
        delta,
        nominal: 2.0 * xc.adc.vcm,
        cases,
    }
}

// ---------------------------------------------------------------------
// EXP-YL: yield-loss sweep over k
// ---------------------------------------------------------------------

/// One point of the yield-loss sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldPoint {
    /// Window multiplier.
    pub k: f64,
    /// Healthy Monte-Carlo instances flagged (false fails).
    pub flagged: usize,
    /// Instances simulated.
    pub instances: usize,
}

impl YieldPoint {
    /// The yield loss fraction.
    pub fn yield_loss(&self) -> f64 {
        self.flagged as f64 / self.instances as f64
    }
}

/// Sweeps the window multiplier k and measures yield loss on healthy
/// mismatched instances (paper §VI: k = 5 chosen so yield loss is
/// negligible).
pub fn yield_sweep(xc: &ExperimentConfig, ks: &[f64], instances: usize) -> Vec<YieldPoint> {
    let base_cal = Calibration::run(&xc.adc, &xc.stimulus, xc.calibration_samples, xc.k, xc.seed);
    // Fresh instances, *different* seed stream from calibration.
    let mut rng = Rng::seed_from_u64(xc.seed ^ 0x11E1D);
    let nominal = SarAdc::new(xc.adc.clone());
    let duts: Vec<SarAdc> = (0..instances)
        .map(|_| {
            let mut adc = nominal.clone();
            adc.apply_mismatch(&AdcMismatch::sample(&mut rng));
            adc
        })
        .collect();
    ks.iter()
        .map(|&k| {
            let engine = SymBist::new(base_cal.with_k(k), xc.stimulus, Schedule::Sequential);
            let flagged = duts
                .iter()
                .filter(|dut| {
                    !engine
                        .try_run(dut, true)
                        .expect("a defect-free mismatch instance simulates")
                        .pass
                })
                .count();
            YieldPoint {
                k,
                flagged,
                instances,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// EXP-BASE: baseline IPs from [9]
// ---------------------------------------------------------------------

/// Coverage of the two comparison IPs.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Standalone bandgap IP with the conventional DC test (paper quotes
    /// 74 % from \[9\]).
    pub bandgap: Coverage,
    /// Power-on-reset IP with the trip-voltage test (paper quotes 51 %).
    pub por: Coverage,
}

/// Runs the conventional defect-oriented tests on the baseline IPs.
pub fn baselines(xc: &ExperimentConfig) -> BaselineResult {
    let model = LikelihoodModel::default();

    let bg = BandgapIp::new(&xc.adc);
    let bg_uni = DefectUniverse::enumerate(&bg, &model);
    let bg_res = run_campaign(
        &bg,
        &bg_uni,
        &CampaignOptions {
            sample_size: None,
            seed: xc.seed,
            threads: xc.threads,
            ..Default::default()
        },
        |dut: &BandgapIp| {
            dut.try_passes_dc_test(0.05).map(|passes| {
                let detected = !passes;
                TestOutcome {
                    detected,
                    detection_cycle: detected.then_some(1),
                    cycles_run: 1,
                }
            })
        },
    )
    .expect("bandgap baseline campaign is well-formed");

    let por = PorIp::new(&xc.adc);
    let nominal_trip = por.trip_voltage().expect("healthy POR trips");
    let por_uni = DefectUniverse::enumerate(&por, &model);
    let por_res = run_campaign(
        &por,
        &por_uni,
        &CampaignOptions {
            sample_size: None,
            seed: xc.seed,
            threads: xc.threads,
            ..Default::default()
        },
        |dut: &PorIp| {
            let detected = !dut.passes_trip_test(nominal_trip, 0.1);
            TestOutcome {
                detected,
                detection_cycle: detected.then_some(1),
                cycles_run: 1,
            }
        },
    )
    .expect("POR baseline campaign is well-formed");

    BaselineResult {
        bandgap: bg_res.coverage(),
        por: por_res.coverage(),
    }
}

// ---------------------------------------------------------------------
// EXP-AC: AC-BIST extension
// ---------------------------------------------------------------------

/// Result of the AC-extension experiment on the Vcm generator block.
#[derive(Debug, Clone)]
pub struct AcExtensionResult {
    /// L-W coverage with the six DC invariances only.
    pub dc_only: Coverage,
    /// L-W coverage when a single AC ripple check on the Vcm node is added.
    pub with_ac: Coverage,
    /// Defects recovered by the AC check (previously escapes).
    pub recovered: usize,
    /// Defects simulated.
    pub simulated: usize,
}

/// EXP-AC: augments SymBIST with one AC ripple check at `probe_freq` on
/// the Vcm node, recovering the DC-benign decoupling-path defects that
/// dominate the Vcm generator's escapes.
///
/// The AC verdict compares the measured ripple attenuation against the
/// healthy value with a generous 3× guard band (passives vary much less
/// than that).
pub fn ac_extension(xc: &ExperimentConfig, probe_freq: f64) -> AcExtensionResult {
    let engine = xc.build_engine();
    let adc = SarAdc::new(xc.adc.clone());
    let healthy_att = adc
        .vcm_generator()
        .ripple_attenuation(probe_freq)
        .expect("healthy Vcm generator has a measurable ripple attenuation");
    let universe = DefectUniverse::enumerate(&adc, &LikelihoodModel::default())
        .filter_block(BlockKind::VcmGenerator);

    let mut outcomes_dc: Vec<(f64, bool)> = Vec::new();
    let mut outcomes_ac: Vec<(f64, bool)> = Vec::new();
    let mut recovered = 0;
    for d in universe.iter() {
        let mut dut = adc.clone();
        dut.inject(d.site);
        // A defective DUT that breaks the simulation outright is trivially
        // caught by the invariance checks, so an unresolved run counts as
        // detected here.
        let dc_detected = engine.try_run(&dut, true).map(|r| !r.pass).unwrap_or(true);
        // Likewise an unmeasurable ripple path (singular AC network) is a
        // detection for the AC check.
        let ac_detected = match dut.vcm_generator().ripple_attenuation(probe_freq) {
            Ok(att) => att > healthy_att * 3.0 || att < healthy_att / 3.0,
            Err(_) => true,
        };
        if !dc_detected && ac_detected {
            recovered += 1;
        }
        outcomes_dc.push((d.likelihood, dc_detected));
        outcomes_ac.push((d.likelihood, dc_detected || ac_detected));
    }
    AcExtensionResult {
        dc_only: symbist_defects::coverage::lw_coverage_exhaustive(&outcomes_dc),
        with_ac: symbist_defects::coverage::lw_coverage_exhaustive(&outcomes_ac),
        recovered,
        simulated: universe.len(),
    }
}

// ---------------------------------------------------------------------
// EXP-ESC: escape analysis
// ---------------------------------------------------------------------

/// Escape analysis over an LWRS sample of the whole universe: which
/// undetected defects violate at least one functional spec.
pub fn escapes_experiment(
    xc: &ExperimentConfig,
    sample_size: usize,
    limits: &SpecLimits,
) -> (EscapeReport, Vec<DefectSite>) {
    let engine = xc.build_engine();
    let adc = SarAdc::new(xc.adc.clone());
    let universe = DefectUniverse::enumerate(&adc, &LikelihoodModel::default());
    let campaign = run_campaign(
        &adc,
        &universe,
        &CampaignOptions {
            sample_size: Some(sample_size.min(universe.len())),
            seed: xc.seed ^ 0xE5C,
            threads: xc.threads,
            ..Default::default()
        },
        |dut| engine.campaign_test(dut),
    )
    .expect("escape campaign is well-formed");
    let escapes: Vec<DefectSite> = campaign.escapes().map(|r| r.site).collect();
    (escape_analysis(&xc.adc, &escapes, limits), escapes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_xc() -> ExperimentConfig {
        ExperimentConfig {
            calibration_samples: 12,
            ..Default::default()
        }
    }

    #[test]
    fn fig5_shapes() {
        let data = fig5(&quick_xc());
        assert_eq!(data.cases.len(), 4);
        assert!(data.delta > 0.0 && data.delta < 0.1);
        // Defect-free: no detections.
        assert!(data.cases[0].detected.iter().all(|d| !d));
        // Vcm case: detected at every code (paper: "during the entire test
        // duration").
        let vcm = &data.cases[3];
        assert!(
            vcm.detected.iter().all(|d| *d),
            "vcm devs: {:?}",
            vcm.deviations
        );
        // SUBDAC case: detected at some codes but not all ("specific
        // conversion periods").
        let sd = &data.cases[1];
        let hits = sd.detected.iter().filter(|d| **d).count();
        assert!(hits > 0 && hits < 32, "subdac hits {hits}");
        // Traces exist and span 33 cycles.
        for case in &data.cases {
            assert_eq!(case.traces.settled.len(), 32);
            assert!(!case.traces.sum.is_empty());
        }
    }

    #[test]
    fn yield_sweep_monotone_in_k() {
        let pts = yield_sweep(&quick_xc(), &[1.0, 3.0, 5.0], 6);
        assert_eq!(pts.len(), 3);
        // Yield loss can only shrink as the window widens.
        assert!(pts[0].yield_loss() >= pts[1].yield_loss());
        assert!(pts[1].yield_loss() >= pts[2].yield_loss());
        // Paper's operating point: k = 5 ⇒ negligible yield loss.
        assert_eq!(pts[2].flagged, 0, "k=5 must not flag healthy parts");
    }

    #[test]
    fn baselines_match_paper_band() {
        let res = baselines(&quick_xc());
        // [9] reports 74% (bandgap) and 51% (POR): check the *shape* —
        // both well below SymBIST's ADC coverage, bandgap above POR.
        assert!(
            res.bandgap.value > res.por.value,
            "bandgap {} vs por {}",
            res.bandgap.value,
            res.por.value
        );
        assert!(
            (0.45..0.95).contains(&res.bandgap.value),
            "bandgap {}",
            res.bandgap.value
        );
        assert!(
            (0.25..0.75).contains(&res.por.value),
            "por {}",
            res.por.value
        );
    }
}
