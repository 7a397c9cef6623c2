//! Test-escape analysis (extension).
//!
//! The paper closes §VI noting that undetected defects "should be analysed
//! carefully and it is also interesting to report the percentage of
//! undetected defects that result in at least one specification being
//! violated" (after Gutiérrez Gil et al. \[14\]) — and leaves it as future
//! work. This module implements it: every escape is re-simulated through
//! the *functional* path (real conversions) and checked against datasheet
//! limits for offset, gain, and a mid-range linearity spot check.

use symbist_adc::fault::{DefectSite, Faultable};
use symbist_adc::{AdcConfig, SarAdc};

/// Functional specification limits, in LSB where applicable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecLimits {
    /// Maximum |offset| in codes.
    pub offset_codes: f64,
    /// Maximum |gain error| in codes over the checked span.
    pub gain_codes: f64,
    /// Maximum step error in a mid-range linearity spot check, in codes.
    pub step_codes: f64,
}

impl Default for SpecLimits {
    fn default() -> Self {
        Self {
            offset_codes: 4.0,
            gain_codes: 8.0,
            step_codes: 4.0,
        }
    }
}

/// Outcome of a functional specification check.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecCheck {
    /// `true` if any specification is violated.
    pub violated: bool,
    /// Human-readable reasons.
    pub reasons: Vec<String>,
    /// Measured offset in codes.
    pub offset_codes: f64,
    /// Measured gain error in codes over the checked span.
    pub gain_codes: f64,
}

/// Runs the (deliberately cheap — a dozen conversions) functional spec
/// check on an ADC instance.
///
/// # Panics
///
/// Panics if a conversion fails to simulate.
pub fn check_specs(adc: &SarAdc, limits: &SpecLimits) -> SpecCheck {
    let mut reasons = Vec::new();

    // Offset: the code at the architectural midpoint input (ΔIN = 0)
    // should be 528.
    let convert = |din: f64| {
        adc.try_convert(din)
            .expect("functional spec check needs a converting ADC") as f64
    };
    let mid = convert(0.0);
    let offset = mid - 528.0;
    if offset.abs() > limits.offset_codes {
        reasons.push(format!("offset {offset:+.1} codes"));
    }

    // Gain: codes at ±0.75 V should straddle the midpoint symmetrically;
    // their span measures the transfer slope.
    let hi = convert(0.75);
    let lo = convert(-0.75);
    let expect_span = 2.0 * 0.75 / adc.config().vref_fs * 528.0;
    let gain_err = (hi - lo) - expect_span;
    if gain_err.abs() > limits.gain_codes {
        reasons.push(format!("gain error {gain_err:+.1} codes over ±0.75 V"));
    }

    // Linearity spot check: four quarter-scale steps must land where an
    // ideal converter puts them.
    for target in [-0.6, -0.3, 0.3, 0.6] {
        let code = convert(target);
        let ideal = 528.0 + target / adc.config().vref_fs * 528.0;
        if (code - ideal).abs() > limits.step_codes + offset.abs() + gain_err.abs() {
            reasons.push(format!(
                "step at {target:+.1} V off by {:+.1} codes",
                code - ideal
            ));
        }
    }

    SpecCheck {
        violated: !reasons.is_empty(),
        reasons,
        offset_codes: offset,
        gain_codes: gain_err,
    }
}

/// Escape-analysis summary.
#[derive(Debug, Clone, PartialEq)]
pub struct EscapeReport {
    /// Number of escapes analysed.
    pub analysed: usize,
    /// Escapes violating at least one specification (true test escapes).
    pub spec_violating: usize,
    /// Escapes that are functionally benign (acceptable escapes).
    pub benign: usize,
}

impl EscapeReport {
    /// Fraction of escapes that violate a specification.
    pub fn violating_fraction(&self) -> f64 {
        if self.analysed == 0 {
            0.0
        } else {
            self.spec_violating as f64 / self.analysed as f64
        }
    }
}

/// Analyses a set of escaped defect sites on a fresh DUT per site.
pub fn escape_analysis(
    cfg: &AdcConfig,
    escapes: &[DefectSite],
    limits: &SpecLimits,
) -> EscapeReport {
    let base = SarAdc::new(cfg.clone());
    let mut spec_violating = 0;
    for site in escapes {
        let mut dut = base.clone();
        dut.inject(*site);
        if check_specs(&dut, limits).violated {
            spec_violating += 1;
        }
    }
    EscapeReport {
        analysed: escapes.len(),
        spec_violating,
        benign: escapes.len() - spec_violating,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbist_adc::fault::DefectKind;
    use symbist_adc::BlockKind;

    #[test]
    fn healthy_adc_meets_specs() {
        let adc = SarAdc::new(AdcConfig::default());
        let check = check_specs(&adc, &SpecLimits::default());
        assert!(!check.violated, "reasons: {:?}", check.reasons);
        assert!(check.offset_codes.abs() < 2.0);
        assert!(check.gain_codes.abs() < 4.0);
    }

    #[test]
    fn benign_escape_classified_benign() {
        // A Vcm decoupling-cap open has no DC signature at all.
        let base = SarAdc::new(AdcConfig::default());
        let cap = base
            .components()
            .iter()
            .position(|c| c.name.contains("vcmgen/c_dec"))
            .unwrap();
        let report = escape_analysis(
            &AdcConfig::default(),
            &[DefectSite {
                component: cap,
                kind: DefectKind::Open,
            }],
            &SpecLimits::default(),
        );
        assert_eq!(report.analysed, 1);
        assert_eq!(report.benign, 1);
        assert_eq!(report.violating_fraction(), 0.0);
    }

    #[test]
    fn harmful_defect_classified_violating() {
        // A reference-buffer input-pair short rescales every tap: it
        // escapes SymBIST (reference-tracking cancellation) but is a gross
        // gain-spec violation.
        let base = SarAdc::new(AdcConfig::default());
        let mb1 = base
            .components()
            .iter()
            .position(|c| c.block == BlockKind::ReferenceBuffer && c.name.contains("mb1"))
            .unwrap();
        let report = escape_analysis(
            &AdcConfig::default(),
            &[DefectSite {
                component: mb1,
                kind: DefectKind::ShortGs,
            }],
            &SpecLimits::default(),
        );
        assert_eq!(
            report.spec_violating, 1,
            "a 150 mV reference shift must violate specs"
        );
    }

    #[test]
    fn empty_escape_list() {
        let report = escape_analysis(&AdcConfig::default(), &[], &SpecLimits::default());
        assert_eq!(report.analysed, 0);
        assert_eq!(report.violating_fraction(), 0.0);
    }
}
