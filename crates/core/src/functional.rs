//! Functional BIST baseline (extension).
//!
//! The paper's introduction positions SymBIST against the existing ADC
//! BIST literature, which is *functional*: measure performances on-chip
//! (histogram linearity tests, spectral tests) and compare against
//! limits. This module implements the classic sinusoidal-histogram
//! linearity BIST (after Azaïs et al., cited as \[4\]) so the two
//! philosophies can be compared head-to-head on the same defect
//! universe: coverage per test time.
//!
//! The functional test drives a full-scale sine through real conversions,
//! accumulates the code histogram, corrects for the sine's probability
//! density, and flags the DUT when any estimated code width departs from
//! ideal by more than a DNL limit — or when codes at the range ends go
//! missing.

use std::f64::consts::PI;

use symbist_adc::SarAdc;
use symbist_circuit::error::CircuitError;
use symbist_defects::{SimOutcome, TestOutcome};

/// Configuration of the histogram test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramBist {
    /// Number of conversions per test.
    pub samples: usize,
    /// Sine amplitude as a fraction of differential full scale (slightly
    /// over-ranged, as the method requires).
    pub amplitude: f64,
    /// DNL pass limit in LSB for the binned estimate.
    pub dnl_limit: f64,
    /// Histogram bin width in codes (single-code histograms need far more
    /// samples than a BIST budget allows; binning trades resolution for
    /// test time, exactly as the low-cost literature does).
    pub bin_codes: usize,
}

impl Default for HistogramBist {
    fn default() -> Self {
        Self {
            samples: 2048,
            amplitude: 1.05,
            dnl_limit: 0.5,
            bin_codes: 32,
        }
    }
}

/// Result of one functional BIST run.
#[derive(Debug, Clone)]
pub struct HistogramResult {
    /// Overall verdict.
    pub pass: bool,
    /// Worst bin-DNL estimate in LSB.
    pub worst_dnl: f64,
    /// Conversion frames executed.
    pub frames: u32,
    /// Reasons for failure, if any.
    pub reasons: Vec<String>,
}

impl HistogramBist {
    /// Runs the test on a DUT. Solver failures and budget expiry surface
    /// as `Err`.
    pub fn try_run(&self, adc: &SarAdc) -> Result<HistogramResult, CircuitError> {
        let fs = adc.config().diff_full_scale() / 2.0;
        let ampl = fs * self.amplitude;
        let codes = adc.config().code_count() as usize;
        let mut counts = vec![0u32; codes];
        for i in 0..self.samples {
            // Incoherent sampling (odd cycle count keeps phases spread).
            let phase = 2.0 * PI * 7.0 * i as f64 / self.samples as f64 + PI * i as f64 / 977.0;
            let code = adc.try_convert(ampl * phase.sin())? as usize;
            counts[code.min(codes - 1)] += 1;
        }

        let mut reasons = Vec::new();

        // Range check: the over-ranged sine must saturate both end codes.
        if counts[0] == 0 || counts[codes - 1] == 0 {
            reasons.push("input range not exercised (gain/stuck failure)".into());
        }

        // Bin the interior histogram and normalize by the arcsine density.
        let interior: std::ops::Range<usize> = self.bin_codes..(codes - self.bin_codes);
        let mut worst_dnl: f64 = 0.0;
        let total: u32 = counts[interior.clone()].iter().sum();
        if total == 0 {
            reasons.push("no interior codes observed".into());
        } else {
            let nbins = interior.len() / self.bin_codes;
            for b in 0..nbins {
                let lo = interior.start + b * self.bin_codes;
                let hi = lo + self.bin_codes;
                let observed: u32 = counts[lo..hi].iter().sum();
                // Expected fraction of samples in [lo, hi) under the
                // arcsine distribution of a sine through an ideal ADC.
                let to_v = |c: usize| adc.ideal_level(c as u16);
                let cdf = |v: f64| {
                    let x = (v / ampl).clamp(-1.0, 1.0);
                    0.5 + x.asin() / PI
                };
                let expect_frac = cdf(to_v(hi)) - cdf(to_v(lo));
                let interior_frac = cdf(to_v(interior.end)) - cdf(to_v(interior.start));
                let expected = total as f64 * expect_frac / interior_frac.max(1e-12);
                if expected > 0.0 {
                    // Bin-average DNL in LSB.
                    let dnl = (observed as f64 / expected - 1.0).abs();
                    worst_dnl = worst_dnl.max(dnl);
                }
            }
            if worst_dnl > self.dnl_limit {
                reasons.push(format!("bin DNL {worst_dnl:.2} LSB over limit"));
            }
        }

        Ok(HistogramResult {
            pass: reasons.is_empty(),
            worst_dnl,
            frames: self.samples as u32,
            reasons,
        })
    }

    /// Adapter for the defect campaign (detection = functional fail).
    /// Simulation failures map into [`SimOutcome::Unresolved`] so the
    /// campaign records them instead of crashing a worker.
    pub fn campaign_test(&self, adc: &SarAdc) -> SimOutcome {
        self.try_run(adc)
            .map(|r| TestOutcome {
                detected: !r.pass,
                detection_cycle: (!r.pass).then_some(r.frames * 12),
                cycles_run: r.frames * 12,
            })
            .into()
    }

    /// Test time in seconds at the configured clock (each sample is one
    /// 12-cycle conversion frame).
    pub fn test_time(&self, cfg: &symbist_adc::AdcConfig) -> f64 {
        self.samples as f64 * cfg.conversion_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbist_adc::fault::{DefectKind, DefectSite, Faultable};
    use symbist_adc::{AdcConfig, BlockKind};

    fn quick() -> HistogramBist {
        HistogramBist {
            samples: 512,
            ..Default::default()
        }
    }

    #[test]
    fn healthy_adc_passes_functional_test() -> Result<(), CircuitError> {
        let adc = SarAdc::new(AdcConfig::default());
        let r = quick().try_run(&adc)?;
        assert!(r.pass, "reasons: {:?}", r.reasons);
        assert!(r.worst_dnl < 0.5, "worst bin DNL {}", r.worst_dnl);
        Ok(())
    }

    #[test]
    fn reference_collapse_detected_functionally() -> Result<(), CircuitError> {
        // The canonical SymBIST escape: a reference-buffer stuck output.
        // The functional test sees the gain failure immediately.
        let mut adc = SarAdc::new(AdcConfig::default());
        let mb5 = adc
            .components()
            .iter()
            .position(|c| c.name.contains("refbuf/amp/mb5"))
            .unwrap();
        adc.inject(DefectSite {
            component: mb5,
            kind: DefectKind::ShortDs,
        });
        let r = quick().try_run(&adc)?;
        assert!(!r.pass, "stuck reference must fail the histogram test");
        Ok(())
    }

    #[test]
    fn subdac_stuck_tap_detected() -> Result<(), CircuitError> {
        let mut adc = SarAdc::new(AdcConfig::default());
        let drv = adc
            .components()
            .iter()
            .position(|c| c.name.contains("subdac1/mux_p/tap20/drvp"))
            .unwrap();
        adc.inject(DefectSite {
            component: drv,
            kind: DefectKind::ShortDs,
        });
        let r = quick().try_run(&adc)?;
        assert!(!r.pass, "a stuck-on MSB tap wrecks linearity");
        Ok(())
    }

    #[test]
    fn benign_escape_also_passes_functional() -> Result<(), CircuitError> {
        let mut adc = SarAdc::new(AdcConfig::default());
        let esr = adc
            .components()
            .iter()
            .position(|c| c.name.contains("vcmgen/r_esr"))
            .unwrap();
        adc.inject(DefectSite {
            component: esr,
            kind: DefectKind::Open,
        });
        assert!(
            quick().try_run(&adc)?.pass,
            "DC-benign defect passes both tests"
        );
        Ok(())
    }

    #[test]
    fn test_time_vastly_exceeds_symbist() {
        let cfg = AdcConfig::default();
        let functional = HistogramBist::default().test_time(&cfg);
        let symbist =
            crate::testtime::test_time(&cfg, crate::session::Schedule::Sequential).seconds;
        assert!(
            functional / symbist > 100.0,
            "functional {functional} vs symbist {symbist}"
        );
    }

    #[test]
    fn campaign_adapter() {
        let adc = SarAdc::new(AdcConfig::default());
        let out = quick()
            .campaign_test(&adc)
            .completed()
            .expect("healthy ADC run completes");
        assert!(!out.detected);
        assert_eq!(out.cycles_run, 512 * 12);
        let _ = BlockKind::ALL;
    }
}
