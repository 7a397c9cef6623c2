//! Vcm Generator (Fig. 3): produces the common-mode voltage used inside the
//! DAC's switched-capacitor array.
//!
//! Structure: a two-resistor divider from the buffered reference, a
//! decoupling capacitor, and a two-transistor buffer. The divider and
//! capacitor are solved structurally; the buffer transistors map
//! behaviorally.
//!
//! Note the detectability split this creates (paper Table I reports only
//! 30.88 % L-W coverage for this block): divider and buffer defects shift
//! `Vcm` and are caught by invariance I3 — whose checker reference is the
//! *ladder* mid-tap, not the Vcm node — while a decoupling-capacitor open
//! has no DC signature at all and escapes with its full (large-area)
//! likelihood.

use symbist_circuit::dc::DcSolver;
use symbist_circuit::error::CircuitError;
use symbist_circuit::netlist::Netlist;

use crate::builder::{emit_capacitor, emit_resistor};
use crate::config::AdcConfig;
use crate::fault::{BlockKind, ComponentInfo, ComponentKind, DefectKind};

/// Divider resistor value.
const R_DIV: f64 = 20_000.0;

/// Mismatch knobs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VcmMismatch {
    /// Relative error of the top divider resistor.
    pub r_top: f64,
    /// Relative error of the bottom divider resistor.
    pub r_bot: f64,
    /// Buffer offset in volts.
    pub buf_offset: f64,
}

/// Component indices.
const R_TOP: usize = 0;
const R_BOT: usize = 1;
const C_DEC: usize = 2;
const M_BUF1: usize = 3;
const M_BUF2: usize = 4;
const R_ESR: usize = 5;
/// Total components.
pub(crate) const VCM_COMPONENTS: usize = 6;

/// The Vcm generator block.
///
/// The divider input is the *buffered reference* `VREFP` (not the raw
/// bandgap): `Vcm = VREFP/2` tracks the ladder, so the I3 checker — whose
/// reference is the ladder mid-tap — sees a near-zero nominal deviation
/// and its calibrated window stays millivolt-tight. This wiring choice is
/// what lets SymBIST catch small SC-array charge errors (paper Table I:
/// 97.7 % on the SC array).
#[derive(Debug, Clone)]
pub struct VcmGenerator {
    cfg: AdcConfig,
    defect: Option<(usize, DefectKind)>,
    mismatch: VcmMismatch,
}

impl VcmGenerator {
    /// Creates the block.
    pub fn new(cfg: &AdcConfig) -> Self {
        Self {
            cfg: cfg.clone(),
            defect: None,
            mismatch: VcmMismatch::default(),
        }
    }

    /// Builds the local component catalog.
    pub(crate) fn catalog(&self) -> Vec<ComponentInfo> {
        let mk = |name: &str, kind, area| ComponentInfo {
            block: BlockKind::VcmGenerator,
            name: format!("vcmgen/{name}"),
            kind,
            area,
        };
        let components = vec![
            mk("r_top", ComponentKind::Resistor, 3.0),
            mk("r_bot", ComponentKind::Resistor, 3.0),
            mk("c_dec", ComponentKind::Capacitor, 40.0),
            mk("buf/m1", ComponentKind::Mosfet, 2.0),
            mk("buf/m2", ComponentKind::Mosfet, 2.0),
            // Anti-ringing ESR in series with the decoupling cap: a long
            // poly snake whose own defects (even a short!) are DC-benign
            // because the capacitor blocks DC — high-likelihood escapes
            // that depress this block's L-W coverage, the paper's stated
            // mechanism for its 30.88 % figure.
            mk("r_esr", ComponentKind::Resistor, 20.0),
        ];
        debug_assert_eq!(components.len(), VCM_COMPONENTS);
        components
    }

    pub(crate) fn set_defect(&mut self, defect: Option<(usize, DefectKind)>) {
        self.defect = defect;
    }

    /// Sets the mismatch sample.
    pub fn set_mismatch(&mut self, m: VcmMismatch) {
        self.mismatch = m;
    }

    fn local_defect(&self, idx: usize) -> Option<DefectKind> {
        match self.defect {
            Some((i, kind)) if i == idx => Some(kind),
            _ => None,
        }
    }

    /// Builds the passive divider/decoupling network driven by `v_in`:
    /// `src → R_top → mid → R_bot → gnd`, with `mid → ESR → cap → gnd`.
    /// Shared by the DC solve, the AC ripple check, and the lint snapshot.
    fn build_divider(
        &self,
        v_in: f64,
    ) -> (Netlist, symbist_circuit::NodeId, symbist_circuit::DeviceId) {
        let mut nl = Netlist::new();
        let src = nl.node("src");
        let mid = nl.node("mid");
        let vs = nl.vsource(src, Netlist::GND, v_in);
        emit_resistor(
            &mut nl,
            src,
            mid,
            R_DIV * (1.0 + self.mismatch.r_top),
            self.local_defect(R_TOP),
            &self.cfg,
        );
        emit_resistor(
            &mut nl,
            mid,
            Netlist::GND,
            R_DIV * (1.0 + self.mismatch.r_bot),
            self.local_defect(R_BOT),
            &self.cfg,
        );
        // Decoupling: mid → ESR → cap → gnd.
        let esr = nl.node("esr");
        emit_resistor(
            &mut nl,
            mid,
            esr,
            200.0,
            self.local_defect(R_ESR),
            &self.cfg,
        );
        emit_capacitor(
            &mut nl,
            esr,
            Netlist::GND,
            100e-12,
            None,
            self.local_defect(C_DEC),
            &self.cfg,
        );
        (nl, mid, vs)
    }

    /// The structural netlist of the block (divider plus decoupling, at
    /// the nominal reference input) — the `symbist-lint` snapshot.
    pub fn netlist(&self) -> Netlist {
        self.build_divider(self.cfg.vref_fs).0
    }

    /// Solves the block: returns the generated common-mode voltage for a
    /// given buffered reference `vrefp` (nominally `vref_fs`, yielding
    /// `Vcm = vref_fs / 2`).
    ///
    /// Errs if an injected defect makes the divider singular or a thread
    /// solve budget expires.
    pub fn solve(&self, vrefp: f64) -> Result<f64, CircuitError> {
        let (nl, mid, _) = self.build_divider(vrefp);
        let v_mid = DcSolver::new().solve(&nl)?.voltage(mid);

        // Buffer: unity follower with possible behavioral corruption.
        let (offset, stuck) = match self.defect {
            Some((M_BUF1, DefectKind::ShortDs)) => (0.0, Some(self.cfg.vdda)),
            Some((M_BUF2, DefectKind::ShortDs)) => (0.0, Some(0.0)),
            Some((M_BUF1, k)) if k.is_short() => (0.08, None),
            Some((M_BUF2, k)) if k.is_short() => (-0.08, None),
            Some((M_BUF1, _)) => (0.03, None),
            Some((M_BUF2, _)) => (-0.03, None),
            _ => (0.0, None),
        };
        Ok(match stuck {
            Some(v) => v,
            None => (v_mid + offset + self.mismatch.buf_offset).clamp(0.0, self.cfg.vdda),
        })
    }

    /// AC-BIST extension: ripple attenuation from the reference input to
    /// the divider midpoint at `freq` (linear ratio, not dB).
    ///
    /// The decoupling network forms a low-pass: a healthy block attenuates
    /// high-frequency reference ripple strongly, while a decoupling-cap
    /// *open* — invisible to every DC invariance — leaves the ripple
    /// almost unattenuated. A single AC check on the Vcm node therefore
    /// recovers the largest class of escapes in this block.
    ///
    /// Errs if a defect makes the AC network singular.
    pub fn ripple_attenuation(&self, freq: f64) -> Result<f64, CircuitError> {
        use symbist_circuit::ac::AcSolver;
        let (nl, mid, vs) = self.build_divider(self.cfg.vref_fs);
        let sweep = AcSolver::new().solve(&nl, vs, &[freq])?;
        // Normalize to the healthy passive divider ratio (0.5).
        Ok(sweep.voltage(0, mid).abs() / 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VREFP: f64 = 1.2;

    fn gen() -> VcmGenerator {
        VcmGenerator::new(&AdcConfig::default())
    }

    #[test]
    fn nominal_vcm_is_half_reference() {
        let v = gen().solve(VREFP).unwrap();
        assert!((v - 0.6).abs() < 1e-6, "Vcm = {v}");
    }

    #[test]
    fn tracks_reference() {
        // 10% reference droop → 10% Vcm droop (the tracking that makes
        // reference-path errors invisible to the I3 checker).
        let v = gen().solve(VREFP * 0.9).unwrap();
        assert!((v - 0.54).abs() < 1e-6);
    }

    #[test]
    fn divider_defects_shift_vcm() {
        let mut g = gen();
        g.set_defect(Some((R_TOP, DefectKind::Short)));
        assert!(g.solve(VREFP).unwrap() > 1.1, "top short rails Vcm high");
        g.set_defect(Some((R_BOT, DefectKind::Short)));
        assert!(g.solve(VREFP).unwrap() < 0.01, "bottom short rails Vcm low");
        g.set_defect(Some((R_TOP, DefectKind::ParamHigh)));
        let v = g.solve(VREFP).unwrap();
        assert!((v - 0.48).abs() < 0.01, "+50% top → 0.48, got {v}");
    }

    #[test]
    fn cap_open_is_a_dc_escape() {
        let mut g = gen();
        let nominal = g.solve(VREFP).unwrap();
        g.set_defect(Some((C_DEC, DefectKind::Open)));
        assert!((g.solve(VREFP).unwrap() - nominal).abs() < 1e-9);
    }

    #[test]
    fn cap_short_collapses_vcm_through_esr() {
        let mut g = gen();
        g.set_defect(Some((C_DEC, DefectKind::Short)));
        let v = g.solve(VREFP).unwrap();
        assert!(v < 0.05, "Vcm with shorted decoupling = {v}");
    }

    #[test]
    fn esr_defects_are_dc_benign() {
        // Even a SHORT on the ESR resistor has no DC signature: the
        // capacitor still blocks DC. A high-likelihood true escape.
        let mut g = gen();
        let nominal = g.solve(VREFP).unwrap();
        for kind in [
            DefectKind::Short,
            DefectKind::Open,
            DefectKind::ParamLow,
            DefectKind::ParamHigh,
        ] {
            g.set_defect(Some((R_ESR, kind)));
            assert!((g.solve(VREFP).unwrap() - nominal).abs() < 1e-9, "{kind}");
        }
    }

    #[test]
    fn buffer_defects() {
        let mut g = gen();
        g.set_defect(Some((M_BUF1, DefectKind::ShortDs)));
        assert!((g.solve(VREFP).unwrap() - 1.8).abs() < 1e-9);
        g.set_defect(Some((M_BUF2, DefectKind::OpenGate)));
        let v = g.solve(VREFP).unwrap();
        assert!((v - 0.57).abs() < 1e-6);
    }

    #[test]
    fn catalog() {
        assert_eq!(gen().catalog().len(), VCM_COMPONENTS);
    }
}

#[cfg(test)]
mod ac_tests {
    use super::*;

    #[test]
    fn healthy_block_attenuates_ripple() {
        let g = VcmGenerator::new(&AdcConfig::default());
        // Pole at 1/(2π·(10k‖)·100p) ≈ 156 kHz; at 10 MHz ripple is crushed.
        let att = g.ripple_attenuation(10e6).unwrap();
        assert!(att < 0.1, "healthy attenuation {att}");
        // Well below the pole the divider passes the ripple.
        let low = g.ripple_attenuation(1e3).unwrap();
        assert!((low - 1.0).abs() < 0.05, "low-frequency ratio {low}");
    }

    #[test]
    fn cap_open_defeats_the_filter() {
        let mut g = VcmGenerator::new(&AdcConfig::default());
        g.set_defect(Some((C_DEC, DefectKind::Open)));
        let att = g.ripple_attenuation(10e6).unwrap();
        // The 2% fringe remnant barely filters: ripple nearly unattenuated.
        assert!(att > 0.5, "open-cap attenuation {att}");
    }

    #[test]
    fn esr_open_also_visible_in_ac() {
        // The ESR open disconnects the whole decoupling branch — another
        // DC-benign defect that the AC check catches.
        let mut g = VcmGenerator::new(&AdcConfig::default());
        g.set_defect(Some((R_ESR, DefectKind::Open)));
        let att = g.ripple_attenuation(10e6).unwrap();
        assert!(att > 0.3, "esr-open attenuation {att}");
    }

    #[test]
    fn param_shift_moves_the_pole() {
        let nominal = VcmGenerator::new(&AdcConfig::default())
            .ripple_attenuation(200e3)
            .unwrap();
        let mut g = VcmGenerator::new(&AdcConfig::default());
        g.set_defect(Some((C_DEC, DefectKind::ParamLow)));
        let low = g.ripple_attenuation(200e3).unwrap();
        assert!(
            low > nominal * 1.2,
            "pole shift visible: {low} vs {nominal}"
        );
    }
}
