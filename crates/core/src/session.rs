//! The SymBIST controller: runs the stimulus, drives the window
//! comparators on the observed invariance signals, and produces the 1-bit
//! pass/fail decision (plus rich diagnostics for the campaign).
//!
//! Two schedules are supported, matching paper §IV-4:
//!
//! * [`Schedule::Sequential`] — a single window comparator multiplexed
//!   across the six invariances: 6·2⁵ = 192 clock cycles, minimal area.
//! * [`Schedule::Parallel`] — one comparator per invariance: 2⁵ = 32
//!   cycles, more area.
//!
//! The output interface is 2-pin digital (paper §IV-4): a serial command
//! starts the test, and the decision is one pass/fail bit.

use symbist_adc::SarAdc;
use symbist_circuit::error::CircuitError;
use symbist_defects::{SimOutcome, TestOutcome};

use crate::calibrate::Calibration;
use crate::invariance::{deviation, InvarianceId};
use crate::stimulus::StimulusSpec;

/// Comparator scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// One shared comparator, invariances checked one after another
    /// (6·2⁵ cycles). The paper's headline test-time figure.
    #[default]
    Sequential,
    /// One comparator per invariance, all checked together (2⁵ cycles).
    Parallel,
}

impl Schedule {
    /// Stable wire label, used by job specs and reports.
    pub fn label(self) -> &'static str {
        match self {
            Schedule::Sequential => "sequential",
            Schedule::Parallel => "parallel",
        }
    }

    /// Inverse of [`label`](Self::label).
    pub fn from_label(label: &str) -> Option<Schedule> {
        match label {
            "sequential" => Some(Schedule::Sequential),
            "parallel" => Some(Schedule::Parallel),
            _ => None,
        }
    }

    /// Total BIST cycles for the full (non-aborted) test.
    pub fn total_cycles(self) -> u32 {
        match self {
            Schedule::Sequential => 6 * StimulusSpec::CODES,
            Schedule::Parallel => StimulusSpec::CODES,
        }
    }

    /// The BIST cycle at which invariance `id` is checked for counter
    /// value `code`.
    pub fn cycle_of(self, id: InvarianceId, code: u8) -> u32 {
        match self {
            Schedule::Sequential => id.index() as u32 * StimulusSpec::CODES + code as u32,
            Schedule::Parallel => code as u32,
        }
    }
}

/// A detection event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Which invariance flagged.
    pub invariance: InvarianceId,
    /// Counter code at which it flagged.
    pub code: u8,
    /// BIST cycle (schedule-dependent).
    pub cycle: u32,
    /// The observed deviation.
    pub deviation: f64,
}

/// Result of one SymBIST run.
#[derive(Debug, Clone)]
pub struct BistResult {
    /// `true` when every check passed (the 1-bit output).
    pub pass: bool,
    /// All detections (only the first when stop-on-detection was used).
    pub detections: Vec<Detection>,
    /// Cycles actually executed.
    pub cycles_run: u32,
    /// Schedule that was used.
    pub schedule: Schedule,
}

impl BistResult {
    /// The earliest detection, if any.
    pub fn first_detection(&self) -> Option<&Detection> {
        self.detections.first()
    }

    /// Converts to the defect-campaign outcome type.
    pub fn to_test_outcome(&self) -> TestOutcome {
        TestOutcome {
            detected: !self.pass,
            detection_cycle: self.first_detection().map(|d| d.cycle),
            cycles_run: self.cycles_run,
        }
    }
}

/// The SymBIST engine: calibrated windows plus stimulus and schedule.
#[derive(Debug, Clone)]
pub struct SymBist {
    calibration: Calibration,
    stimulus: StimulusSpec,
    schedule: Schedule,
}

impl SymBist {
    /// Creates an engine from a calibration.
    pub fn new(calibration: Calibration, stimulus: StimulusSpec, schedule: Schedule) -> Self {
        Self {
            calibration,
            stimulus,
            schedule,
        }
    }

    /// The calibration in use.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// The stimulus in use.
    pub fn stimulus(&self) -> &StimulusSpec {
        &self.stimulus
    }

    /// The schedule in use.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Runs the BIST on a DUT.
    ///
    /// With `stop_on_detection` (paper §V) the run aborts at the first
    /// violation, which is what makes the defect campaign fast. Solver
    /// failures (defective DUT driven to singularity) and budget expiry
    /// surface as `Err`.
    pub fn try_run(
        &self,
        adc: &SarAdc,
        stop_on_detection: bool,
    ) -> Result<BistResult, CircuitError> {
        // Lazy stream: the analog simulation only advances as far as the
        // checks demand, so stop-on-detection shortens wall time the same
        // way it shortens the silicon test.
        let mut stream = adc.try_observation_stream(self.stimulus.din)?;
        let mut detections = Vec::new();
        let total = self.schedule.total_cycles();

        // Check in schedule order so that `cycle` is monotone and
        // stop-on-detection aborts at the true first violation.
        let mut checks: Vec<(u32, InvarianceId, u8)> = Vec::with_capacity(6 * 32);
        for id in InvarianceId::ALL {
            for code in 0..StimulusSpec::CODES as u8 {
                checks.push((self.schedule.cycle_of(id, code), id, code));
            }
        }
        checks.sort_unstable_by_key(|(cycle, id, _)| (*cycle, id.index()));

        let mut cycles_run = total;
        for (cycle, id, code) in checks {
            let obs = stream.try_observe(code)?;
            let dev = deviation(id, obs, &self.calibration.wiring);
            let pass = if id.is_digital() {
                dev < 0.5
            } else {
                self.calibration
                    .window(id)
                    .check(self.calibration.centered(id, dev))
            };
            if !pass {
                detections.push(Detection {
                    invariance: id,
                    code,
                    cycle,
                    deviation: dev,
                });
                if stop_on_detection {
                    cycles_run = cycle + 1;
                    break;
                }
            }
        }

        Ok(BistResult {
            pass: detections.is_empty(),
            detections,
            cycles_run,
            schedule: self.schedule,
        })
    }

    /// Convenience adapter for [`symbist_defects::run_campaign`]: runs with
    /// stop-on-detection and maps simulation failures into
    /// [`SimOutcome::Unresolved`] (budget expiry → `Timeout`, solver
    /// failure → `NoConvergence`) so a pathological defect is recorded
    /// instead of crashing a campaign worker.
    pub fn campaign_test(&self, adc: &SarAdc) -> SimOutcome {
        self.try_run(adc, true).map(|r| r.to_test_outcome()).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbist_adc::fault::{DefectKind, DefectSite, Faultable};
    use symbist_adc::SarAdc;
    use symbist_adc::{AdcConfig, BlockKind};

    fn engine(schedule: Schedule) -> SymBist {
        let cfg = AdcConfig::default();
        let cal = Calibration::run(&cfg, &StimulusSpec::default(), 6, 5.0, 7);
        SymBist::new(cal, StimulusSpec::default(), schedule)
    }

    #[test]
    fn healthy_adc_passes_both_schedules() -> Result<(), CircuitError> {
        let adc = SarAdc::new(AdcConfig::default());
        for schedule in [Schedule::Sequential, Schedule::Parallel] {
            let res = engine(schedule).try_run(&adc, false)?;
            assert!(res.pass, "{schedule:?}: {:?}", res.first_detection());
            assert_eq!(res.cycles_run, schedule.total_cycles());
        }
        Ok(())
    }

    #[test]
    fn vcm_defect_detected_by_i3_at_every_code() -> Result<(), CircuitError> {
        let mut adc = SarAdc::new(AdcConfig::default());
        let idx = adc
            .components()
            .iter()
            .position(|c| c.block == BlockKind::VcmGenerator)
            .unwrap();
        adc.inject(DefectSite {
            component: idx,
            kind: DefectKind::Short,
        });
        let res = engine(Schedule::Sequential).try_run(&adc, false)?;
        assert!(!res.pass);
        let i3: Vec<&Detection> = res
            .detections
            .iter()
            .filter(|d| d.invariance == InvarianceId::I3DacSum)
            .collect();
        // Fig. 5: the Vcm defect is detectable during the entire test.
        assert_eq!(i3.len(), 32, "I3 flags all 32 codes");
        Ok(())
    }

    #[test]
    fn stop_on_detection_aborts_early() -> Result<(), CircuitError> {
        let mut adc = SarAdc::new(AdcConfig::default());
        let idx = adc
            .components()
            .iter()
            .position(|c| c.block == BlockKind::VcmGenerator)
            .unwrap();
        adc.inject(DefectSite {
            component: idx,
            kind: DefectKind::Short,
        });
        let engine = engine(Schedule::Sequential);
        let full = engine.try_run(&adc, false)?;
        let aborted = engine.try_run(&adc, true)?;
        assert!(!aborted.pass);
        assert_eq!(aborted.detections.len(), 1);
        assert!(aborted.cycles_run < full.cycles_run);
        assert_eq!(
            aborted.first_detection().unwrap().cycle + 1,
            aborted.cycles_run
        );
        Ok(())
    }

    #[test]
    fn schedules_agree_on_detection() -> Result<(), CircuitError> {
        let mut adc = SarAdc::new(AdcConfig::default());
        // A cross-coupled latch short: I6 violation.
        let idx = adc
            .components()
            .iter()
            .position(|c| c.block == BlockKind::ComparatorLatch)
            .unwrap();
        adc.inject(DefectSite {
            component: idx + 2,
            kind: DefectKind::ShortDs,
        });
        let seq = engine(Schedule::Sequential).try_run(&adc, false)?;
        let par = engine(Schedule::Parallel).try_run(&adc, false)?;
        assert_eq!(seq.pass, par.pass);
        assert!(!seq.pass);
        // Same (invariance, code) set, different cycle stamps.
        let key = |d: &Detection| (d.invariance, d.code);
        let mut a: Vec<_> = seq.detections.iter().map(key).collect();
        let mut b: Vec<_> = par.detections.iter().map(key).collect();
        a.sort_unstable_by_key(|(id, c)| (id.index(), *c));
        b.sort_unstable_by_key(|(id, c)| (id.index(), *c));
        assert_eq!(a, b);
        Ok(())
    }

    #[test]
    fn parallel_schedule_is_six_times_faster() {
        assert_eq!(Schedule::Sequential.total_cycles(), 192);
        assert_eq!(Schedule::Parallel.total_cycles(), 32);
        assert_eq!(
            Schedule::Sequential.cycle_of(InvarianceId::I3DacSum, 4),
            2 * 32 + 4
        );
        assert_eq!(Schedule::Parallel.cycle_of(InvarianceId::I3DacSum, 4), 4);
    }

    #[test]
    fn campaign_adapter_maps_outcome() {
        let adc = SarAdc::new(AdcConfig::default());
        let sim = engine(Schedule::Sequential).campaign_test(&adc);
        let out = sim.completed().expect("healthy ADC run completes");
        assert!(!out.detected);
        assert_eq!(out.cycles_run, 192);
        assert!(out.detection_cycle.is_none());
        assert!(!sim.detected());
    }
}
