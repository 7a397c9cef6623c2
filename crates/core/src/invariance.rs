//! The six SymBIST invariances of the SAR ADC IP (paper Eqs. (2)–(5)).
//!
//! Each invariance is a signal that is constant by construction in
//! defect-free operation, together with the *on-chip reference* its window
//! comparator is wired to. The reference wiring is load-bearing for the
//! coverage results (see DESIGN.md §4): checkers I1/I2 compare against the
//! actual `VREF[32]` tap, so uniform reference-buffer errors cancel;
//! checker I3 compares against the ladder mid-tap (not the Vcm node), so
//! Vcm-generator defects are observable; checker I4 uses a BIST-local
//! supply divider, so bias-path (bandgap) defects are observable.

use symbist_adc::TestObservation;

/// Identifier of one invariance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InvarianceId {
    /// Eq. (2a): `M+ + M− = VREF[32]`.
    I1MSum,
    /// Eq. (2b): `L+ + L− = VREF[32]`.
    I2LSum,
    /// Eq. (3): `DAC+ + DAC− = 2·Vcm`.
    I3DacSum,
    /// Eq. (4): `LIN+ + LIN− = 2·Vcm2`.
    I4LinSum,
    /// Eq. (5a): `sgn(Q+ − Q−) = sgn(LIN+ − LIN−)`.
    I5SignConsistency,
    /// Eq. (5b): `Q+ + Q− = VDD`.
    I6QSum,
}

impl InvarianceId {
    /// All six, in paper order.
    pub const ALL: [InvarianceId; 6] = [
        InvarianceId::I1MSum,
        InvarianceId::I2LSum,
        InvarianceId::I3DacSum,
        InvarianceId::I4LinSum,
        InvarianceId::I5SignConsistency,
        InvarianceId::I6QSum,
    ];

    /// Zero-based index.
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|i| *i == self).unwrap()
    }

    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            InvarianceId::I1MSum => "I1: M+ + M- = VREF[32]",
            InvarianceId::I2LSum => "I2: L+ + L- = VREF[32]",
            InvarianceId::I3DacSum => "I3: DAC+ + DAC- = 2*Vcm",
            InvarianceId::I4LinSum => "I4: LIN+ + LIN- = 2*Vcm2",
            InvarianceId::I5SignConsistency => "I5: sgn(Q+-Q-) = sgn(LIN+-LIN-)",
            InvarianceId::I6QSum => "I6: Q+ + Q- = VDD",
        }
    }

    /// `true` for the digital consistency check (I5), which uses a fixed
    /// pass/fail decision instead of a calibrated analog window.
    pub fn is_digital(self) -> bool {
        matches!(self, InvarianceId::I5SignConsistency)
    }
}

impl std::fmt::Display for InvarianceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Checker wiring parameters that belong to the BIST (not the DUT).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckerWiring {
    /// Nominal `2·Vcm2` reference of the I4 checker, generated by a
    /// BIST-local supply divider (deliberately *not* tracking the preamp
    /// bias).
    pub vcm2_ref: f64,
    /// Input-referred offset of the BIST's own sign comparator used by I5
    /// (its decisions on near-zero differences follow this offset).
    pub sign_checker_offset: f64,
}

impl CheckerWiring {
    /// Wiring from an ADC configuration.
    pub fn from_config(cfg: &symbist_adc::AdcConfig) -> Self {
        Self {
            vcm2_ref: cfg.vcm2,
            sign_checker_offset: 0.001,
        }
    }
}

/// Deviation of one invariance signal from its reference for one observed
/// code. Analog invariances return volts; I5 returns `0.0` (consistent) or
/// `1.0` (inconsistent).
pub fn deviation(id: InvarianceId, obs: &TestObservation, wiring: &CheckerWiring) -> f64 {
    match id {
        InvarianceId::I1MSum => obs.m_plus + obs.m_minus - obs.vref32,
        InvarianceId::I2LSum => obs.l_plus + obs.l_minus - obs.vref32,
        InvarianceId::I3DacSum => obs.dac_plus + obs.dac_minus - 2.0 * obs.vref16,
        InvarianceId::I4LinSum => obs.lin_plus + obs.lin_minus - 2.0 * wiring.vcm2_ref,
        InvarianceId::I5SignConsistency => {
            let lin_diff = obs.lin_plus - obs.lin_minus + wiring.sign_checker_offset;
            let checker_sign = lin_diff > 0.0;
            let latch_sign = obs.q_plus > obs.q_minus;
            if checker_sign == latch_sign {
                0.0
            } else {
                1.0
            }
        }
        InvarianceId::I6QSum => obs.q_plus + obs.q_minus - obs.vdd,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbist_adc::{AdcConfig, SarAdc};
    use symbist_circuit::CircuitError;

    fn wiring() -> CheckerWiring {
        CheckerWiring::from_config(&AdcConfig::default())
    }

    #[test]
    fn six_invariances_in_paper_order() {
        assert_eq!(InvarianceId::ALL.len(), 6);
        for (i, id) in InvarianceId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
        assert!(InvarianceId::I5SignConsistency.is_digital());
        assert!(!InvarianceId::I3DacSum.is_digital());
    }

    #[test]
    fn healthy_adc_deviations_are_tiny() -> Result<(), CircuitError> {
        let adc = SarAdc::new(AdcConfig::default());
        let w = wiring();
        for obs in adc.try_symbist_observations(0.2)? {
            for id in InvarianceId::ALL {
                let dev = deviation(id, &obs, &w).abs();
                assert!(dev < 0.01, "{id} deviated {dev} at code {}", obs.code);
            }
        }
        Ok(())
    }

    #[test]
    fn i5_indicator_is_binary() -> Result<(), CircuitError> {
        let adc = SarAdc::new(AdcConfig::default());
        let w = wiring();
        for obs in adc.try_symbist_observations(0.1)? {
            let d = deviation(InvarianceId::I5SignConsistency, &obs, &w);
            assert!(d == 0.0 || d == 1.0);
        }
        Ok(())
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = InvarianceId::ALL.iter().map(|i| i.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 6);
    }
}
