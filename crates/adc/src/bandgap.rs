//! Bandgap reference (Fig. 2): creates the biasing for all ADC blocks.
//!
//! Modeled as the classic two-branch ΔVBE core solved at transistor/diode
//! level with the MNA engine: a PMOS mirror forces equal currents through a
//! unit diode and an 8× diode in series with `R1`; the error amplifier
//! (behavioral, with its five transistors kept as defect sites) servoes the
//! two branch voltages together; a third mirror leg drives `R2` in series
//! with a third diode, producing `VBG = VBE + (R2/R1)·ΔVBE ≈ 1.17 V`.
//!
//! Every physical component is a defect site. Core devices (diodes,
//! resistors, mirror PMOS) are corrupted directly in the netlist; error-amp
//! and start-up transistors map to behavioral corruptions of the amp
//! (offset, gain collapse, output stuck), which is how a defect simulator
//! abstracts a sub-block it cannot afford to flatten.

use symbist_circuit::dc::{DcOptions, DcSolver};
use symbist_circuit::error::CircuitError;
use symbist_circuit::netlist::{MosPolarity, Netlist};

use crate::builder::{emit_diode, emit_mosfet, emit_resistor};
use crate::config::AdcConfig;
use crate::fault::{BlockKind, ComponentInfo, ComponentKind, DefectKind};

/// Nominal ΔVBE resistor.
const R1_OHMS: f64 = 5_200.0;
/// Nominal PTAT gain resistor.
const R2_OHMS: f64 = 52_000.0;
/// Diode saturation current (unit device).
const I_SAT: f64 = 1e-16;
/// Area ratio of the second diode.
const DIODE_RATIO: f64 = 8.0;
/// Mirror PMOS threshold.
const P_VTH: f64 = 0.45;
/// Mirror PMOS transconductance factor.
const P_KP: f64 = 2e-4;
/// Error-amp nominal gain (VCVS).
const AMP_GAIN: f64 = 300.0;
/// Error-amp output bias relative to VDDA (sets the mirror gate region).
const AMP_BIAS_BELOW_VDDA: f64 = 1.0;

/// Process mismatch knobs for Monte-Carlo calibration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BandgapMismatch {
    /// Relative error on R1.
    pub r1: f64,
    /// Relative error on R2.
    pub r2: f64,
    /// Error-amp input offset in volts.
    pub amp_offset: f64,
    /// Relative mirror ratio error (M3 vs M1/M2).
    pub mirror: f64,
}

/// Behavioral corruption of the error amplifier derived from a defect in
/// one of its transistors.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AmpFault {
    /// Extra input-referred offset (volts).
    Offset(f64),
    /// Gain multiplied by this factor.
    GainScale(f64),
    /// Output stuck at a fixed voltage (gate rail).
    Stuck(f64),
    /// No observable DC effect (e.g. slow start-up): a true escape site.
    Benign,
}

/// The bandgap block.
#[derive(Debug, Clone)]
pub struct Bandgap {
    cfg: AdcConfig,
    components: Vec<ComponentInfo>,
    defect: Option<(usize, DefectKind)>,
    mismatch: BandgapMismatch,
}

/// Component layout (indices into the local catalog).
const D1: usize = 0;
const D2: usize = 1;
const D3: usize = 2;
const R1: usize = 3;
const R2: usize = 4;
const M1: usize = 5;
const M2: usize = 6;
const M3: usize = 7;
const AMP_BASE: usize = 8; // Ma1..Ma5 = 8..12
const STARTUP_BASE: usize = 13; // Ms1..Ms2 = 13..14
const C_DEC: usize = 15;
/// Total component count.
pub(crate) const BANDGAP_COMPONENTS: usize = 16;

impl Bandgap {
    /// Creates a defect-free, nominal bandgap.
    pub fn new(cfg: &AdcConfig) -> Self {
        let mut components = Vec::with_capacity(BANDGAP_COMPONENTS);
        let mut push = |name: &str, kind: ComponentKind, area: f64| {
            components.push(ComponentInfo {
                block: BlockKind::Bandgap,
                name: format!("bandgap/{name}"),
                kind,
                area,
            });
        };
        push("d1", ComponentKind::Diode, 4.0);
        push("d2", ComponentKind::Diode, 4.0 * DIODE_RATIO);
        push("d3", ComponentKind::Diode, 4.0);
        push("r1", ComponentKind::Resistor, 3.0);
        push("r2", ComponentKind::Resistor, 12.0);
        push("m1", ComponentKind::Mosfet, 2.0);
        push("m2", ComponentKind::Mosfet, 2.0);
        push("m3", ComponentKind::Mosfet, 2.0);
        for i in 1..=5 {
            push(&format!("amp/ma{i}"), ComponentKind::Mosfet, 1.0);
        }
        for i in 1..=2 {
            push(&format!("startup/ms{i}"), ComponentKind::Mosfet, 0.5);
        }
        // Output decoupling: by far the largest structure in the layout,
        // so its (benign) open carries a large likelihood — one of the
        // high-likelihood escapes that depress L-W coverage figures.
        push("c_dec", ComponentKind::Capacitor, 25.0);
        Self {
            cfg: cfg.clone(),
            components,
            defect: None,
            mismatch: BandgapMismatch::default(),
        }
    }

    /// The local component catalog.
    pub fn components(&self) -> &[ComponentInfo] {
        &self.components
    }

    /// Sets (or clears) the injected defect by local component index.
    pub(crate) fn set_defect(&mut self, defect: Option<(usize, DefectKind)>) {
        self.defect = defect;
    }

    /// Sets the mismatch sample.
    pub fn set_mismatch(&mut self, m: BandgapMismatch) {
        self.mismatch = m;
    }

    fn amp_fault(&self) -> AmpFault {
        let Some((idx, kind)) = self.defect else {
            return AmpFault::Benign;
        };
        if (AMP_BASE..AMP_BASE + 5).contains(&idx) {
            let which = idx - AMP_BASE; // 0,1 = diff pair; 2,3 = mirror; 4 = tail
            return match (which, kind) {
                // Diff-pair gate shorts couple the inputs: large offset.
                (0, DefectKind::ShortGd) | (0, DefectKind::ShortGs) => AmpFault::Offset(0.10),
                (1, DefectKind::ShortGd) | (1, DefectKind::ShortGs) => AmpFault::Offset(-0.10),
                // Diff-pair DS short: that side always wins.
                (0, DefectKind::ShortDs) => AmpFault::Stuck(0.0),
                (1, DefectKind::ShortDs) => AmpFault::Stuck(self.cfg.vdda),
                // Diff-pair opens: one leg weakened — a small systematic
                // offset, amplified ~10× into VBG. Big enough for the
                // millivolt-sensitive SymBIST windows, small enough to slip
                // through a ±5 % production DC test (the 94 % vs 74 %
                // contrast of paper §VI).
                (0, _) => AmpFault::Offset(0.004),
                (1, _) => AmpFault::Offset(-0.004),
                // Load-mirror shorts: systematic offset.
                (2, k) | (3, k) if k.is_short() => AmpFault::Offset(0.06),
                // Load-mirror opens: gain collapse.
                (2, _) | (3, _) => AmpFault::GainScale(0.05),
                // Tail DS short: amp becomes a follower — gain collapse.
                (4, DefectKind::ShortDs) => AmpFault::GainScale(0.1),
                // Tail opens/G shorts: amp dead, output parked at its bias.
                (_, _) => AmpFault::Stuck(self.cfg.vdda - AMP_BIAS_BELOW_VDDA),
            };
        }
        if (STARTUP_BASE..STARTUP_BASE + 2).contains(&idx) {
            // A shorted start-up device keeps injecting current into the
            // core; an open one only affects the (un-modeled) power-up
            // transient — a genuine escape.
            return if kind.is_short() {
                AmpFault::Stuck(0.0) // gate yanked low → mirrors fully on
            } else {
                AmpFault::Benign
            };
        }
        AmpFault::Benign
    }

    fn core_defect(&self, local: usize) -> Option<DefectKind> {
        match self.defect {
            Some((idx, kind)) if idx == local => Some(kind),
            _ => None,
        }
    }

    /// Solves the block and returns the produced bandgap voltage.
    ///
    /// The error-amp loop gain is too high for plain Newton from a cold
    /// start, so the solve runs a gain homotopy: the operating point is
    /// tracked from gain 0 up to the nominal gain, warm-starting each
    /// stage — the same continuation a SPICE user would script for a
    /// stubborn bandgap.
    ///
    /// Falls back to a railed output (0 V) if a defect makes the operating
    /// point unsolvable — silicon would also produce *some* DC value; 0 V
    /// is the conservative "block dead" abstraction.
    ///
    /// The only `Err` is [`CircuitError::BudgetExhausted`]: convergence
    /// failures are absorbed by the fallback (they model a dead block),
    /// but a budget expiry must surface so the campaign records the task
    /// as unresolved rather than mistaking an aborted solve for 0 V.
    pub fn solve(&self) -> Result<BandgapOutput, CircuitError> {
        self.solve_at(26.85) // 300 K, the device-model reference point
    }

    /// The structural netlist of the block at its target amplifier gain —
    /// the `symbist-lint` snapshot. Identical to the final stage the gain
    /// homotopy in [`Bandgap::solve`] converges on.
    pub fn netlist(&self) -> Netlist {
        let fault = self.amp_fault();
        let target_gain = match fault {
            AmpFault::GainScale(s) => AMP_GAIN * s,
            _ => AMP_GAIN,
        };
        self.build_netlist(target_gain, fault).0
    }

    /// Solves the block at a given junction temperature (°C).
    ///
    /// The diode `Is(T)`/`Vt(T)` scaling in the circuit engine gives the
    /// classic bandgap behaviour: the CTAT base-emitter drop and the PTAT
    /// `ΔVBE/R1` term cancel to first order, leaving a shallow parabola
    /// over temperature (see the `bandgap_tc` experiment).
    pub fn solve_at(&self, temperature_c: f64) -> Result<BandgapOutput, CircuitError> {
        let fault = self.amp_fault();
        let target_gain = match fault {
            AmpFault::GainScale(s) => AMP_GAIN * s,
            _ => AMP_GAIN,
        };
        // First try the gain homotopy directly at the requested
        // temperature.
        if let Some((vbg, _)) = self.gain_homotopy(temperature_c, fault, target_gain, None)? {
            return Ok(BandgapOutput { vbg });
        }
        // Narrow basin-boundary windows exist where Newton cannot track the
        // high-gain loop at some temperatures; continue along the
        // *temperature* axis instead: solve at the nominal point (known
        // good), then ramp T in shrinking steps, warm-starting each solve
        // at full gain.
        const T_NOM: f64 = 26.85;
        let Some((mut vbg, mut warm)) = self.gain_homotopy(T_NOM, fault, target_gain, None)? else {
            return Ok(BandgapOutput { vbg: 0.0 }); // block dead
        };
        let solve_full = |t: f64, warm: &[f64]| -> Result<Option<(f64, Vec<f64>)>, CircuitError> {
            let solver = DcSolver::with_options(DcOptions { temperature_c: t });
            let (nl, vbg_node) = self.build_netlist(target_gain, fault);
            match solver.solve_from(&nl, Some(warm)) {
                Ok(op) => Ok(Some((
                    op.voltage(vbg_node).clamp(0.0, self.cfg.vdda),
                    op.raw().to_vec(),
                ))),
                Err(e @ CircuitError::BudgetExhausted { .. }) => Err(e),
                Err(_) => Ok(None),
            }
        };
        let mut t = T_NOM;
        let mut step = 5.0f64 * (temperature_c - T_NOM).signum();
        while (temperature_c - t).abs() > 1e-9 {
            let next = if step > 0.0 {
                (t + step).min(temperature_c)
            } else {
                (t + step).max(temperature_c)
            };
            match solve_full(next, &warm)? {
                Some((v, w)) => {
                    vbg = v;
                    warm = w;
                    t = next;
                }
                None => {
                    if step.abs() < 0.1 {
                        // Give up: report the closest tracked point.
                        break;
                    }
                    step /= 2.0;
                }
            }
        }
        Ok(BandgapOutput { vbg })
    }

    /// Gain homotopy at a fixed temperature; `Ok(Some)` only when the
    /// target gain stage itself solved. Convergence failures at the finest
    /// step are reported as `Ok(None)` ("block dead"); only a budget
    /// expiry propagates as `Err`, so an aborted solve is never mistaken
    /// for an unsolvable circuit.
    fn gain_homotopy(
        &self,
        temperature_c: f64,
        fault: AmpFault,
        target_gain: f64,
        warm0: Option<Vec<f64>>,
    ) -> Result<Option<(f64, Vec<f64>)>, CircuitError> {
        let solver = DcSolver::with_options(DcOptions { temperature_c });
        let mut warm = warm0;
        let mut gain = 0.0;
        let mut step = 3.0;
        loop {
            let (nl, vbg_node) = self.build_netlist(gain, fault);
            match solver.solve_from(&nl, warm.as_deref()) {
                Ok(op) => {
                    let raw = op.raw().to_vec();
                    let vbg = op.voltage(vbg_node).clamp(0.0, self.cfg.vdda);
                    warm = Some(raw.clone());
                    if gain >= target_gain || matches!(fault, AmpFault::Stuck(_)) {
                        return Ok(Some((vbg, raw)));
                    }
                    gain = if gain == 0.0 {
                        1.0
                    } else {
                        (gain * step).min(target_gain)
                    };
                }
                Err(e @ CircuitError::BudgetExhausted { .. }) => return Err(e),
                Err(_) => {
                    // Retry the stage with a finer gain step.
                    if gain > 0.0 && step > 1.05 {
                        step = step.sqrt();
                        gain = (gain / step).max(1.0);
                        continue;
                    }
                    return Ok(None);
                }
            }
        }
    }

    /// Builds the core netlist at a given error-amp gain.
    fn build_netlist(
        &self,
        gain: f64,
        fault: AmpFault,
    ) -> (Netlist, symbist_circuit::netlist::NodeId) {
        let mut nl = Netlist::new();
        let cfg = &self.cfg;
        let vdda = nl.node("vdda");
        let va = nl.node("va");
        let vb = nl.node("vb");
        let vb2 = nl.node("vb2");
        let vg = nl.node("vg");
        let vbg = nl.node("vbg");
        let vd3 = nl.node("vd3");

        nl.vsource(vdda, Netlist::GND, cfg.vdda);

        // Mirror PMOS (defects injected in-netlist; open pulls toward VDDA).
        let kp_m3 = P_KP * (1.0 + self.mismatch.mirror);
        emit_mosfet(
            &mut nl,
            va,
            vg,
            vdda,
            MosPolarity::Pmos,
            P_VTH,
            P_KP,
            0.02,
            self.core_defect(M1),
            vdda,
            cfg,
        );
        emit_mosfet(
            &mut nl,
            vb,
            vg,
            vdda,
            MosPolarity::Pmos,
            P_VTH,
            P_KP,
            0.02,
            self.core_defect(M2),
            vdda,
            cfg,
        );
        emit_mosfet(
            &mut nl,
            vbg,
            vg,
            vdda,
            MosPolarity::Pmos,
            P_VTH,
            kp_m3,
            0.02,
            self.core_defect(M3),
            vdda,
            cfg,
        );

        // Branch A: unit diode. Branch B: R1 + 8× diode.
        emit_diode(&mut nl, va, Netlist::GND, I_SAT, self.core_defect(D1), cfg);
        emit_resistor(
            &mut nl,
            vb,
            vb2,
            R1_OHMS * (1.0 + self.mismatch.r1),
            self.core_defect(R1),
            cfg,
        );
        emit_diode(
            &mut nl,
            vb2,
            Netlist::GND,
            I_SAT * DIODE_RATIO,
            self.core_defect(D2),
            cfg,
        );

        // Output leg: R2 + diode → VBG at the mirror drain.
        emit_resistor(
            &mut nl,
            vbg,
            vd3,
            R2_OHMS * (1.0 + self.mismatch.r2),
            self.core_defect(R2),
            cfg,
        );
        emit_diode(&mut nl, vd3, Netlist::GND, I_SAT, self.core_defect(D3), cfg);
        // Light load keeps the leg defined even if the mirror dies.
        nl.resistor(vbg, Netlist::GND, 10e6);
        // Output decoupling capacitor (DC-invisible unless shorted).
        crate::builder::emit_capacitor(
            &mut nl,
            vbg,
            Netlist::GND,
            200e-12,
            None,
            self.core_defect(C_DEC),
            cfg,
        );

        // Error amplifier: vg = (VDDA − bias) + A·(v(vb) − v(va) + offset).
        // Sensing (vb − va) gives negative feedback: more mirror current
        // raises vb faster than va (the R1·I term), which raises vg and
        // throttles the PMOS mirror back.
        let bias = nl.node("amp_bias");
        match fault {
            AmpFault::Stuck(v) => {
                nl.vsource(vg, Netlist::GND, v);
                nl.vsource(bias, Netlist::GND, 0.0); // keep topology stable
            }
            _ => {
                let offset = match fault {
                    AmpFault::Offset(o) => o + self.mismatch.amp_offset,
                    _ => self.mismatch.amp_offset,
                };
                nl.vsource(
                    bias,
                    Netlist::GND,
                    cfg.vdda - AMP_BIAS_BELOW_VDDA + gain * offset,
                );
                nl.vcvs(vg, bias, vb, va, gain);
            }
        }
        (nl, vbg)
    }
}

/// Output of the bandgap block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandgapOutput {
    /// The reference voltage fed to the reference buffer, the Vcm
    /// generator, and the comparator bias chain.
    pub vbg: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::DefectKind;

    fn bg() -> Bandgap {
        Bandgap::new(&AdcConfig::default())
    }

    #[test]
    fn nominal_output_near_bandgap_voltage() {
        let out = bg().solve().unwrap();
        assert!(
            (1.0..1.35).contains(&out.vbg),
            "nominal VBG = {} should be near 1.17 V",
            out.vbg
        );
    }

    #[test]
    fn component_catalog_complete() {
        let b = bg();
        assert_eq!(b.components().len(), BANDGAP_COMPONENTS);
        assert!(b.components().iter().all(|c| c.block == BlockKind::Bandgap));
        // 3 diodes, 2 resistors, 10 transistors.
        let n_diodes = b
            .components()
            .iter()
            .filter(|c| c.kind == ComponentKind::Diode)
            .count();
        assert_eq!(n_diodes, 3);
    }

    #[test]
    fn diode_short_collapses_output() {
        let mut b = bg();
        let nominal = b.solve().unwrap().vbg;
        b.set_defect(Some((D3, DefectKind::Short)));
        let defective = b.solve().unwrap().vbg;
        // Output diode shorted: VBG loses its CTAT part (~0.6 V drop).
        assert!(
            (nominal - defective) > 0.3,
            "nominal {nominal} vs shorted {defective}"
        );
    }

    #[test]
    fn r1_variation_shifts_ptat() {
        let mut b = bg();
        let nominal = b.solve().unwrap().vbg;
        b.set_defect(Some((R1, DefectKind::ParamHigh)));
        let high = b.solve().unwrap().vbg;
        // +50% on R1 cuts the PTAT current by a third: VBG drops ~0.15 V.
        assert!(nominal - high > 0.08, "nominal {nominal} vs R1+50% {high}");
        b.set_defect(Some((R1, DefectKind::ParamLow)));
        let low = b.solve().unwrap().vbg;
        assert!(low - nominal > 0.1, "nominal {nominal} vs R1-50% {low}");
    }

    #[test]
    fn amp_dead_rails_output() {
        let mut b = bg();
        // Tail open: amp stuck at bias → mirrors fully on → VBG high.
        b.set_defect(Some((AMP_BASE + 4, DefectKind::OpenDrain)));
        let v = b.solve().unwrap().vbg;
        assert!(v > 1.5, "dead-amp VBG = {v}");
    }

    #[test]
    fn startup_open_is_benign() {
        let mut b = bg();
        let nominal = b.solve().unwrap().vbg;
        b.set_defect(Some((STARTUP_BASE, DefectKind::OpenDrain)));
        let v = b.solve().unwrap().vbg;
        assert!(
            (v - nominal).abs() < 1e-9,
            "start-up open must not shift DC"
        );
    }

    #[test]
    fn startup_short_is_catastrophic() {
        let mut b = bg();
        let nominal = b.solve().unwrap().vbg;
        b.set_defect(Some((STARTUP_BASE, DefectKind::ShortDs)));
        let v = b.solve().unwrap().vbg;
        assert!(
            (v - nominal).abs() > 0.2,
            "start-up short must shift VBG, got {v}"
        );
    }

    #[test]
    fn mismatch_shifts_moderately() {
        let mut b = bg();
        let nominal = b.solve().unwrap().vbg;
        b.set_mismatch(BandgapMismatch {
            r1: 0.01,
            r2: -0.01,
            amp_offset: 0.002,
            mirror: 0.01,
        });
        let v = b.solve().unwrap().vbg;
        let shift = (v - nominal).abs();
        assert!(shift > 1e-6 && shift < 0.1, "mismatch shift {shift}");
    }

    #[test]
    fn mirror_open_kills_output_leg() {
        let mut b = bg();
        b.set_defect(Some((M3, DefectKind::OpenDrain)));
        let v = b.solve().unwrap().vbg;
        assert!(v < 0.4, "open mirror leg VBG = {v}");
    }
}

#[cfg(test)]
mod temperature_tests {
    use super::*;

    #[test]
    fn bandgap_curvature_over_temperature() {
        let bg = Bandgap::new(&AdcConfig::default());
        let cold = bg.solve_at(-40.0).unwrap().vbg;
        let room = bg.solve_at(26.85).unwrap().vbg;
        let hot = bg.solve_at(125.0).unwrap().vbg;
        // First-order cancellation: total excursion over the automotive
        // range stays within tens of millivolts...
        let span = (cold.max(room).max(hot)) - (cold.min(room).min(hot));
        assert!(span < 0.08, "VBG span {span} V over -40..125 C");
        // ...with the classic concave shape (the compensated point sits
        // above at least one extreme by curvature).
        assert!(
            room >= cold.min(hot),
            "parabola: room {room} vs cold {cold}, hot {hot}"
        );
    }

    #[test]
    fn uncompensated_branch_is_strongly_ctat() {
        // Sanity of the temperature model itself: a bare diode drop at
        // constant current loses ~2 mV/K.
        use symbist_circuit::dc::{DcOptions, DcSolver};
        use symbist_circuit::netlist::Netlist;
        let drop_at = |t: f64| {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            nl.isource(Netlist::GND, a, 10e-6);
            nl.diode(a, Netlist::GND, 1e-16, 1.0);
            DcSolver::with_options(DcOptions { temperature_c: t })
                .solve(&nl)
                .unwrap()
                .voltage(a)
        };
        let slope = (drop_at(85.0) - drop_at(25.0)) / 60.0;
        assert!(
            (-0.0026..=-0.0014).contains(&slope),
            "VBE slope {slope} V/K"
        );
    }

    #[test]
    fn tc_is_much_better_than_a_raw_diode() {
        let bg = Bandgap::new(&AdcConfig::default());
        let v25 = bg.solve_at(25.0).unwrap().vbg;
        let v85 = bg.solve_at(85.0).unwrap().vbg;
        let tc = ((v85 - v25) / v25 / 60.0).abs();
        // A raw VBE drifts ~3000 ppm/K; the bandgap must be far better.
        assert!(tc < 4e-4, "bandgap TC {tc} /K");
    }
}
