//! Small-signal AC analysis.
//!
//! Linearizes the circuit around its DC operating point and solves
//! `(G + jωC)·x = e` at each requested frequency with a single designated
//! source excited at 1 V (all other independent sources zeroed). `G` is
//! the DC solver's own MNA matrix assembled at the operating point, where
//! diodes and MOSFETs stamp their small-signal conductances and
//! transconductances; `C` holds the capacitances. Each frequency is
//! solved as the real system `[G −ωC; ωC G]·[x_re; x_im] = [e; 0]` by the
//! one dense LU, so DC, transient and AC share one device model and one
//! factorization.
//!
//! In the reproduction this powers the AC-BIST extension experiment:
//! decoupling-capacitor opens are invisible to every DC invariance but
//! leave an unmistakable signature in the ripple transfer function.
//!
//! # Examples
//!
//! ```
//! use symbist_circuit::ac::AcSolver;
//! use symbist_circuit::netlist::Netlist;
//!
//! // RC low-pass: pole at 1/(2πRC) ≈ 159 kHz.
//! let mut nl = Netlist::new();
//! let src = nl.node("in");
//! let out = nl.node("out");
//! let vs = nl.vsource(src, Netlist::GND, 0.0);
//! nl.resistor(src, out, 1e3);
//! nl.capacitor(out, Netlist::GND, 1e-9);
//! let sweep = AcSolver::new().solve(&nl, vs, &[159.15e3])?;
//! let gain_db = sweep.magnitude_db(0, out);
//! assert!((gain_db + 3.01).abs() < 0.1, "-3 dB at the pole, got {gain_db}");
//! # Ok::<(), symbist_circuit::error::CircuitError>(())
//! ```

use std::f64::consts::PI;

use crate::dc::{DcSolver, GMIN};
use crate::error::CircuitError;
use crate::matrix::Matrix;
use crate::mna::{conductance, Assembler, AssemblyCtx, Thermal};
use crate::netlist::{Device, DeviceId, Netlist, NodeId};

/// A complex number (kept local: the circuit crate has no deps).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cplx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Cplx {
    /// Creates a complex number.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Phase in radians.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }
}

/// Result of an AC sweep: complex node voltages per frequency point.
#[derive(Debug, Clone)]
pub struct AcSweep {
    freqs: Vec<f64>,
    /// `solutions[f][unknown]` — node voltages then branch currents.
    solutions: Vec<Vec<Cplx>>,
    node_count: usize,
}

impl AcSweep {
    /// The swept frequencies.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Complex voltage of `node` at frequency point `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the point or node is out of range.
    pub fn voltage(&self, idx: usize, node: NodeId) -> Cplx {
        if node.is_ground() {
            return Cplx::default();
        }
        assert!(node.index() < self.node_count, "node out of range");
        self.solutions[idx][node.index() - 1]
    }

    /// Magnitude in dB (20·log10) of a node at a frequency point.
    pub fn magnitude_db(&self, idx: usize, node: NodeId) -> f64 {
        20.0 * self.voltage(idx, node).abs().max(1e-300).log10()
    }

    /// Phase in degrees of a node at a frequency point.
    pub fn phase_deg(&self, idx: usize, node: NodeId) -> f64 {
        self.voltage(idx, node).arg() * 180.0 / PI
    }
}

/// Small-signal AC solver.
#[derive(Debug, Clone, Default)]
pub struct AcSolver {
    dc: DcSolver,
}

impl AcSolver {
    /// Creates a solver with default DC options for the operating point.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sweeps the circuit at the given frequencies with `source` excited
    /// at 1 V AC.
    ///
    /// # Errors
    ///
    /// Returns an error if the DC operating point fails or the linearized
    /// system is singular.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a voltage source, or a frequency is not
    /// positive and finite.
    pub fn solve(
        &self,
        netlist: &Netlist,
        source: DeviceId,
        freqs: &[f64],
    ) -> Result<AcSweep, CircuitError> {
        assert!(
            matches!(netlist.device(source), Device::VSource { .. }),
            "AC excitation must be a voltage source"
        );
        assert!(
            freqs.iter().all(|f| f.is_finite() && *f > 0.0),
            "frequencies must be positive"
        );
        let op = self.dc.solve(netlist)?;
        // G: the DC system linearized at the operating point with every
        // independent source zeroed and every capacitor open. Its
        // right-hand side (companion currents) plays no part in AC.
        let mut asm = Assembler::new(netlist);
        asm.assemble(
            netlist,
            &AssemblyCtx {
                time: 0.0,
                source_scale: 0.0,
                gmin: GMIN,
                guess: op.raw(),
                cap_companion: &[],
                thermal: Thermal::new(self.dc.options().temperature_c + 273.15),
            },
        );
        let (layout, g) = (&asm.layout, &asm.matrix);
        let n = layout.dim;
        // C: the capacitances, stamped like conductances.
        let mut c = Matrix::zeros(n, n);
        for (_, dev) in netlist.iter() {
            if let Device::Capacitor { a, b, farads, .. } = dev {
                conductance(layout, *a, *b, *farads, &mut |r, k, v| c.add(r, k, v));
            }
        }
        // e: 1 V on the excited source's branch row; the imaginary half
        // of the right-hand side is zero.
        let mut e = vec![0.0; 2 * n];
        e[layout.branch_index(source)] = 1.0;

        let mut solutions = Vec::with_capacity(freqs.len());
        for &f in freqs {
            let omega = 2.0 * PI * f;
            let mut m = Matrix::zeros(2 * n, 2 * n);
            for r in 0..n {
                for k in 0..n {
                    let (gv, wc) = (g.get(r, k), omega * c.get(r, k));
                    m.set(r, k, gv);
                    m.set(r, n + k, -wc);
                    m.set(n + r, k, wc);
                    m.set(n + r, n + k, gv);
                }
            }
            // Pivot columns `k` and `n + k` both belong to unknown `k`.
            let x = m
                .lu()
                .map_err(|s| CircuitError::Singular {
                    column: s.column % n,
                })?
                .solve(&e);
            solutions.push((0..n).map(|i| Cplx::new(x[i], x[n + i])).collect());
        }
        Ok(AcSweep {
            freqs: freqs.to_vec(),
            solutions,
            node_count: layout.node_count,
        })
    }
}

/// Builds a logarithmically spaced frequency grid.
///
/// # Panics
///
/// Panics if bounds are not positive or `points < 2`.
pub fn log_space(f_start: f64, f_stop: f64, points: usize) -> Vec<f64> {
    assert!(
        f_start > 0.0 && f_stop > f_start,
        "invalid frequency bounds"
    );
    assert!(points >= 2, "need at least 2 points");
    let l0 = f_start.log10();
    let l1 = f_stop.log10();
    (0..points)
        .map(|i| 10f64.powf(l0 + (l1 - l0) * i as f64 / (points - 1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::sweep_vsource;
    use crate::netlist::{MosPolarity, SourceWave};

    fn rc_lowpass() -> (Netlist, DeviceId, NodeId) {
        let mut nl = Netlist::new();
        let s = nl.node("in");
        let o = nl.node("out");
        let vs = nl.vsource(s, Netlist::GND, 0.0);
        nl.resistor(s, o, 1e3);
        nl.capacitor(o, Netlist::GND, 1e-9);
        (nl, vs, o)
    }

    #[test]
    fn rc_pole_minus_3db_and_phase() {
        let (nl, vs, out) = rc_lowpass();
        let fp = 1.0 / (2.0 * PI * 1e3 * 1e-9);
        let sweep = AcSolver::new()
            .solve(&nl, vs, &[fp / 100.0, fp, fp * 100.0])
            .unwrap();
        // Far below the pole: 0 dB, ~0°.
        assert!(sweep.magnitude_db(0, out).abs() < 0.01);
        assert!(sweep.phase_deg(0, out).abs() < 1.0);
        // At the pole: −3.01 dB, −45°.
        assert!((sweep.magnitude_db(1, out) + 3.0103).abs() < 0.01);
        assert!((sweep.phase_deg(1, out) + 45.0).abs() < 0.5);
        // Two decades above: −40 dB, approaching −90°.
        assert!((sweep.magnitude_db(2, out) + 40.0).abs() < 0.1);
        assert!((sweep.phase_deg(2, out) + 90.0).abs() < 2.0);
    }

    #[test]
    fn highpass_blocks_low_frequencies() {
        let mut nl = Netlist::new();
        let s = nl.node("in");
        let o = nl.node("out");
        let vs = nl.vsource(s, Netlist::GND, 0.0);
        nl.capacitor(s, o, 1e-9);
        nl.resistor(o, Netlist::GND, 1e3);
        let fp = 1.0 / (2.0 * PI * 1e3 * 1e-9);
        let sweep = AcSolver::new()
            .solve(&nl, vs, &[fp / 100.0, fp * 100.0])
            .unwrap();
        assert!(sweep.magnitude_db(0, o) < -35.0);
        assert!(sweep.magnitude_db(1, o).abs() < 0.1);
    }

    #[test]
    fn resistive_divider_is_flat() {
        let mut nl = Netlist::new();
        let s = nl.node("in");
        let o = nl.node("out");
        let vs = nl.vsource(s, Netlist::GND, 0.0);
        nl.resistor(s, o, 2e3);
        nl.resistor(o, Netlist::GND, 1e3);
        let sweep = AcSolver::new()
            .solve(&nl, vs, &log_space(1.0, 1e9, 7))
            .unwrap();
        for i in 0..7 {
            assert!((sweep.magnitude_db(i, o) + 9.542).abs() < 0.01, "point {i}");
        }
    }

    #[test]
    fn common_source_gain_is_minus_gm_rl() {
        // NMOS in saturation: small-signal gain −gm·RL at low frequency.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let g = nl.node("g");
        let d = nl.node("d");
        nl.vsource(vdd, Netlist::GND, 3.0);
        let vin = nl.vsource(g, Netlist::GND, 1.0);
        nl.resistor(vdd, d, 10e3);
        nl.mosfet(d, g, Netlist::GND, MosPolarity::Nmos, 0.5, 2e-4, 0.0);
        let sweep = AcSolver::new().solve(&nl, vin, &[1e3]).unwrap();
        // gm = kp·vov = 2e-4·0.5 = 1e-4 S → gain = −1.0 (0 dB, 180°).
        let gain = sweep.voltage(0, d);
        assert!((gain.abs() - 1.0).abs() < 0.01, "|gain| {}", gain.abs());
        assert!((sweep.phase_deg(0, d).abs() - 180.0).abs() < 1.0);
    }

    /// Checks the 1 Hz AC gain from `source` to `node` against a central
    /// finite difference of two DC solves around the source's value: the
    /// AC system must linearize the very device model the operating point
    /// solves.
    fn assert_ac_gain_matches_dc(mut nl: Netlist, source: DeviceId, node: NodeId) {
        let ac = AcSolver::new()
            .solve(&nl, source, &[1.0])
            .unwrap()
            .voltage(0, node);
        let Device::VSource {
            wave: SourceWave::Dc(v0),
            ..
        } = *nl.device(source)
        else {
            panic!("the excited source must be a DC voltage source");
        };
        let h = 1e-4;
        let pts = sweep_vsource(&mut nl, source, v0 - h, v0 + h, 2).unwrap();
        let dc = (pts[1].1.voltage(node) - pts[0].1.voltage(node)) / (pts[1].0 - pts[0].0);
        assert!(
            (ac.re - dc).abs() <= 1e-4 * dc.abs() && ac.im.abs() <= 1e-4 * dc.abs(),
            "AC gain {ac:?} vs DC finite difference {dc}"
        );
    }

    #[test]
    fn mosfet_gain_matches_dc_below_the_vth_floor() {
        // vth = 5 mV sits below the device model's 10 mV threshold floor,
        // so gm differs unless AC applies the floor the DC solve applies.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let g = nl.node("g");
        let d = nl.node("d");
        nl.vsource(vdd, Netlist::GND, 3.0);
        let vin = nl.vsource(g, Netlist::GND, 0.2);
        nl.resistor(vdd, d, 10e3);
        nl.capacitor(d, Netlist::GND, 1e-12);
        nl.mosfet(d, g, Netlist::GND, MosPolarity::Nmos, 0.005, 2e-4, 0.05);
        assert_ac_gain_matches_dc(nl, vin, d);
    }

    #[test]
    fn diode_divider_gain_matches_dc() {
        let mut nl = Netlist::new();
        let s = nl.node("in");
        let o = nl.node("out");
        let vs = nl.vsource(s, Netlist::GND, 1.0);
        nl.resistor(s, o, 1e3);
        nl.diode(o, Netlist::GND, 1e-15, 1.0);
        nl.capacitor(o, Netlist::GND, 1e-12);
        assert_ac_gain_matches_dc(nl, vs, o);
    }

    #[test]
    fn second_source_is_zeroed() {
        // Two sources; only the excited one drives the AC solution.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        let o = nl.node("o");
        let v1 = nl.vsource(a, Netlist::GND, 1.0);
        nl.vsource(b, Netlist::GND, 2.0);
        nl.resistor(a, o, 1e3);
        nl.resistor(b, o, 1e3);
        let sweep = AcSolver::new().solve(&nl, v1, &[1e3]).unwrap();
        // v(o) = 0.5·v(a): the other source is an AC ground.
        assert!((sweep.voltage(0, o).abs() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn log_space_endpoints() {
        let f = log_space(10.0, 1e6, 6);
        assert_eq!(f.len(), 6);
        assert!((f[0] - 10.0).abs() < 1e-9);
        assert!((f[5] - 1e6).abs() < 1e-3);
        assert!(f.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    #[should_panic]
    fn non_source_excitation_panics() {
        let (nl, _, _) = rc_lowpass();
        // Device 1 is the resistor.
        AcSolver::new()
            .solve(&nl, crate::netlist::DeviceId(1), &[1e3])
            .unwrap();
    }
}
