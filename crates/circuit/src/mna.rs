//! Modified Nodal Analysis assembly and solve.
//!
//! This module turns a [`Netlist`] plus an evaluation context (time, source
//! scale, Newton guess, capacitor companion models) into the linear system
//! `A x = b`, where `x` stacks non-ground node voltages followed by branch
//! currents of voltage-defined elements, and solves it.
//!
//! The assembly is re-run at every Newton iteration / time step; the layout
//! (index assignment) is computed once per netlist. [`MnaEngine`] solves
//! every system by dense LU with partial pivoting.

use crate::matrix::{Lu, Matrix, SingularMatrixError};
use crate::netlist::{Device, DeviceId, MosPolarity, Netlist, NodeId};

/// Thermal voltage at room temperature, kT/q at 300 K.
pub const VT_THERMAL: f64 = 0.025852;
/// Reference temperature for device parameters (kelvin).
pub const T_NOMINAL_K: f64 = 300.0;
/// Boltzmann constant over electron charge, V/K — defined as
/// `VT_THERMAL / T_NOMINAL_K` so the nominal-temperature path is
/// bit-identical to the temperature-unaware model.
pub const K_OVER_Q: f64 = VT_THERMAL / T_NOMINAL_K;
/// Silicon bandgap energy in eV (for diode Is(T) scaling).
pub const SILICON_EG: f64 = 1.12;

/// Temperature-dependent device parameters.
///
/// * Diode: `Vt = kT/q`; `Is(T) = Is·(T/T0)³·exp(Eg/k·(1/T0 − 1/T))` — the
///   classic scaling that makes VBE complementary-to-absolute-temperature.
/// * MOSFET: `Vth(T) = Vth − 2 mV/K·(T − T0)`, `kp(T) = kp·(T0/T)^1.5`
///   (mobility degradation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Thermal {
    pub temp_k: f64,
}

impl Thermal {
    pub(crate) fn new(temp_k: f64) -> Self {
        debug_assert!(temp_k > 0.0);
        Self { temp_k }
    }

    pub(crate) fn vt(&self) -> f64 {
        K_OVER_Q * self.temp_k
    }

    pub(crate) fn diode_is(&self, i_sat_nominal: f64) -> f64 {
        let t = self.temp_k;
        let ratio = t / T_NOMINAL_K;
        i_sat_nominal
            * ratio.powi(3)
            * (SILICON_EG / K_OVER_Q * (1.0 / T_NOMINAL_K - 1.0 / t)).exp()
    }

    pub(crate) fn mos_vth(&self, vth_nominal: f64) -> f64 {
        (vth_nominal - 0.002 * (self.temp_k - T_NOMINAL_K)).max(0.01)
    }

    pub(crate) fn mos_kp(&self, kp_nominal: f64) -> f64 {
        kp_nominal * (T_NOMINAL_K / self.temp_k).powf(1.5)
    }
}

/// Maximum diode exponent before linear extrapolation, to keep the Jacobian
/// finite (`exp(40) ≈ 2.4e17`).
const DIODE_EXP_MAX: f64 = 40.0;

/// Index layout of the MNA unknown vector.
#[derive(Debug, Clone)]
pub(crate) struct MnaLayout {
    /// Number of circuit nodes including ground.
    pub node_count: usize,
    /// Branch index (offset after node voltages) per voltage-defined device,
    /// indexed by device id; `usize::MAX` when the device has no branch.
    pub branch_of: Vec<usize>,
    /// Total unknowns.
    pub dim: usize,
}

impl MnaLayout {
    pub(crate) fn new(netlist: &Netlist) -> Self {
        let node_count = netlist.node_count();
        let mut branch_of = vec![usize::MAX; netlist.device_count()];
        let mut next = node_count - 1;
        for (id, dev) in netlist.iter() {
            if dev.has_branch() {
                branch_of[id.index()] = next;
                next += 1;
            }
        }
        Self {
            node_count,
            branch_of,
            dim: next,
        }
    }

    /// Index of a node voltage in the unknown vector, `None` for ground.
    #[inline]
    pub(crate) fn node_index(&self, n: NodeId) -> Option<usize> {
        if n.is_ground() {
            None
        } else {
            Some(n.index() - 1)
        }
    }

    /// Branch-current index of a voltage-defined device.
    ///
    /// # Panics
    ///
    /// Panics if the device has no branch current.
    pub(crate) fn branch_index(&self, id: DeviceId) -> usize {
        let b = self.branch_of[id.index()];
        assert!(b != usize::MAX, "device {id:?} has no branch current");
        b
    }
}

/// Companion-model state for one capacitor during transient analysis.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CapCompanion {
    /// Equivalent conductance `C/h` (backward Euler).
    pub g: f64,
    /// Equivalent current source injected a → b.
    pub ieq: f64,
}

/// Evaluation context for one assembly pass.
#[derive(Debug)]
pub(crate) struct AssemblyCtx<'a> {
    /// Simulation time for waveform evaluation.
    pub time: f64,
    /// Scale factor on all independent sources (source stepping).
    pub source_scale: f64,
    /// Conductance added from every non-ground node to ground.
    pub gmin: f64,
    /// Current Newton guess (node voltages + branch currents).
    pub guess: &'a [f64],
    /// Per-device capacitor companion (indexed by device id); empty in DC
    /// analysis, in which case capacitors stamp only `gmin`-scale leakage.
    pub cap_companion: &'a [Option<CapCompanion>],
    /// Simulation temperature.
    pub thermal: Thermal,
}

/// Stamps a conductance `g` between nodes `a` and `b`.
#[inline]
pub(crate) fn conductance(
    layout: &MnaLayout,
    a: NodeId,
    b: NodeId,
    g: f64,
    add: &mut impl FnMut(usize, usize, f64),
) {
    let ia = layout.node_index(a);
    let ib = layout.node_index(b);
    if let Some(i) = ia {
        add(i, i, g);
    }
    if let Some(j) = ib {
        add(j, j, g);
    }
    if let (Some(i), Some(j)) = (ia, ib) {
        add(i, j, -g);
        add(j, i, -g);
    }
}

/// Stamps a transconductance: current `gm * (v(cp) − v(cn))` from `p`
/// through the element to `n`.
#[inline]
fn transconductance(
    layout: &MnaLayout,
    [p, n, cp, cn]: [NodeId; 4],
    gm: f64,
    add: &mut impl FnMut(usize, usize, f64),
) {
    for (row, sign) in [(p, gm), (n, -gm)] {
        let Some(r) = layout.node_index(row) else {
            continue;
        };
        if let Some(c) = layout.node_index(cp) {
            add(r, c, sign);
        }
        if let Some(c) = layout.node_index(cn) {
            add(r, c, -sign);
        }
    }
}

/// Stamps the ±1 incidence of branch `br` between nodes `p` and `n`.
#[inline]
fn incidence(
    layout: &MnaLayout,
    br: usize,
    p: NodeId,
    n: NodeId,
    add: &mut impl FnMut(usize, usize, f64),
) {
    if let Some(ip) = layout.node_index(p) {
        add(ip, br, 1.0);
        add(br, ip, 1.0);
    }
    if let Some(in_) = layout.node_index(n) {
        add(in_, br, -1.0);
        add(br, in_, -1.0);
    }
}

/// Stamps a current `i` flowing from node `p` through the element to
/// node `n` (KCL: `i` leaves `p`, enters `n`).
#[inline]
fn current(layout: &MnaLayout, p: NodeId, n: NodeId, i: f64, rhs: &mut [f64]) {
    if let Some(ip) = layout.node_index(p) {
        rhs[ip] -= i;
    }
    if let Some(in_) = layout.node_index(n) {
        rhs[in_] += i;
    }
}

/// Reusable dense assembly buffers.
#[derive(Debug)]
pub(crate) struct Assembler {
    pub layout: MnaLayout,
    pub matrix: Matrix,
    pub rhs: Vec<f64>,
}

impl Assembler {
    pub(crate) fn new(netlist: &Netlist) -> Self {
        let layout = MnaLayout::new(netlist);
        let dim = layout.dim;
        Self {
            layout,
            matrix: Matrix::zeros(dim, dim),
            rhs: vec![0.0; dim],
        }
    }

    /// Assembles the full MNA system for the given context, diodes and
    /// MOSFETs linearized at `ctx.guess`.
    pub(crate) fn assemble(&mut self, netlist: &Netlist, ctx: &AssemblyCtx<'_>) {
        self.matrix.clear();
        self.rhs.fill(0.0);
        let layout = &self.layout;
        let matrix = &mut self.matrix;
        let rhs = &mut self.rhs;
        let add = &mut |r: usize, c: usize, v: f64| matrix.add(r, c, v);
        let v = |n: NodeId| layout.node_index(n).map_or(0.0, |i| ctx.guess[i]);

        // gmin from every non-ground node to ground keeps otherwise floating
        // nodes (e.g. capacitor-only nodes in DC) solvable.
        if ctx.gmin > 0.0 {
            for i in 0..(layout.node_count - 1) {
                add(i, i, ctx.gmin);
            }
        }

        for (id, dev) in netlist.iter() {
            match dev {
                Device::Resistor { a, b, ohms } => conductance(layout, *a, *b, 1.0 / ohms, add),
                Device::Switch {
                    a,
                    b,
                    closed,
                    r_on,
                    r_off,
                } => {
                    let r = if *closed { *r_on } else { *r_off };
                    conductance(layout, *a, *b, 1.0 / r, add);
                }
                Device::Capacitor { a, b, .. } => {
                    // Open in DC (no companion). In a transient step ieq is
                    // injected from b to a (i.e. it *feeds* node a) so that
                    // i_cap = g·v − ieq.
                    if let Some(comp) = ctx.cap_companion.get(id.index()).and_then(Option::as_ref) {
                        conductance(layout, *a, *b, comp.g, add);
                        current(layout, *a, *b, -comp.ieq, rhs);
                    }
                }
                Device::VSource { p, n, wave } => {
                    let br = layout.branch_index(id);
                    incidence(layout, br, *p, *n, add);
                    rhs[br] += wave.at(ctx.time) * ctx.source_scale;
                }
                Device::ISource { p, n, wave } => {
                    current(layout, *p, *n, wave.at(ctx.time) * ctx.source_scale, rhs);
                }
                Device::Vcvs { p, n, cp, cn, gain } => {
                    let br = layout.branch_index(id);
                    incidence(layout, br, *p, *n, add);
                    if let Some(icp) = layout.node_index(*cp) {
                        add(br, icp, -gain);
                    }
                    if let Some(icn) = layout.node_index(*cn) {
                        add(br, icn, *gain);
                    }
                }
                Device::Vccs { p, n, cp, cn, gm } => {
                    transconductance(layout, [*p, *n, *cp, *cn], *gm, add);
                }
                Device::Diode {
                    anode,
                    cathode,
                    i_sat,
                    ideality,
                } => {
                    let vd = v(*anode) - v(*cathode);
                    let nvt = ideality * ctx.thermal.vt();
                    let (i, g) = diode_eval(vd, ctx.thermal.diode_is(*i_sat), nvt);
                    conductance(layout, *anode, *cathode, g, add);
                    current(layout, *anode, *cathode, i - g * vd, rhs);
                }
                Device::Mosfet {
                    d,
                    g,
                    s,
                    polarity,
                    vth,
                    kp,
                    lambda,
                } => {
                    // Normalize to NMOS-like voltages. For PMOS we flip every
                    // sign so that the same square-law expressions apply,
                    // then flip the resulting current direction back.
                    let sign = match polarity {
                        MosPolarity::Nmos => 1.0,
                        MosPolarity::Pmos => -1.0,
                    };
                    let (nvd, nvg, nvs) = (sign * v(*d), sign * v(*g), sign * v(*s));
                    // The MOS is symmetric: if the normalized drain is below
                    // the normalized source, exchange roles.
                    let (hd, hs, nhd, nhs) = if nvd < nvs {
                        (*s, *d, nvs, nvd)
                    } else {
                        (*d, *s, nvd, nvs)
                    };
                    let vgs = nvg - nhs;
                    let vds = nhd - nhs;
                    let (vth, kp) = (ctx.thermal.mos_vth(*vth), ctx.thermal.mos_kp(*kp));
                    let (ids, gm, gds) = nmos_eval(vgs, vds, vth, kp, *lambda);
                    // Companion: i(vgs, vds) ≈ ids + gm·Δvgs + gds·Δvds in
                    // normalized space. The real current hd → hs expands to
                    //   gm·(v(g) − v(hs)) + gds·(v(hd) − v(hs)) + sign·ieq
                    // because for PMOS both the control voltage and the
                    // output current flip sign (the two flips cancel in the
                    // gm/gds terms).
                    let ieq = ids - gm * vgs - gds * vds;
                    conductance(layout, hd, hs, gds, add);
                    transconductance(layout, [hd, hs, *g, hs], gm, add);
                    current(layout, hd, hs, sign * ieq, rhs);
                }
            }
        }
    }
}

/// Solver engine: assembles every system densely and solves it by LU with
/// partial pivoting, whatever the netlist holds.
#[derive(Debug)]
pub(crate) struct MnaEngine {
    asm: Assembler,
    /// The factorization of the last assembled matrix, kept so each solve
    /// refactors into the same buffers.
    lu: Lu,
    /// Solution of the last solve; [`MnaEngine::assemble_and_solve`] hands
    /// out a borrow of it.
    solution: Vec<f64>,
    stats: EngineStats,
}

/// Plain-integer solve tallies, accumulated per engine and flushed to the
/// shared `symbist-obs` registry once, on [`MnaEngine`] drop. Keeping the
/// per-solve cost at ordinary integer increments (no atomics, no clock
/// reads) is what holds the measured instrumentation overhead on the
/// transient hot loop under the 3% budget.
#[derive(Debug)]
struct EngineStats {
    solves: u64,
    /// Newton iterations per converged operating-point solve; local
    /// buckets, merged into the shared histogram on drop.
    newton_iters: symbist_obs::LocalHistogram,
}

impl EngineStats {
    fn new() -> Self {
        Self {
            solves: 0,
            newton_iters: symbist_obs::LocalHistogram::new(symbist_obs::histogram!(
                "symbist_solver_newton_iterations",
                "Newton iterations per converged operating-point solve",
                symbist_obs::ITERATION_EDGES
            )),
        }
    }

    fn flush(&mut self) {
        symbist_obs::counter!(
            "symbist_solver_solves_total",
            "MNA linear-system solves (dense LU)"
        )
        .add(self.solves);
        self.solves = 0;
        self.newton_iters.flush();
    }
}

impl MnaEngine {
    pub(crate) fn new(netlist: &Netlist) -> Self {
        let asm = Assembler::new(netlist);
        let solution = vec![0.0; asm.layout.dim];
        Self {
            asm,
            lu: Lu::default(),
            solution,
            stats: EngineStats::new(),
        }
    }

    /// Records the iteration count of one converged Newton solve into the
    /// engine-local histogram (flushed on drop).
    pub(crate) fn note_newton(&mut self, iterations: u64) {
        #[allow(clippy::cast_precision_loss)]
        self.stats.newton_iters.record(iterations as f64);
    }

    pub(crate) fn layout(&self) -> &MnaLayout {
        &self.asm.layout
    }

    /// Assembles and solves one MNA system, allocating nothing: the LU
    /// and the solution reuse the engine's buffers.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when the LU finds the matrix
    /// singular (a genuinely singular iterate).
    pub(crate) fn assemble_and_solve(
        &mut self,
        netlist: &Netlist,
        ctx: &AssemblyCtx<'_>,
    ) -> Result<&[f64], SingularMatrixError> {
        self.asm.assemble(netlist, ctx);
        self.asm.matrix.lu_into(&mut self.lu)?;
        self.lu.solve_into(&self.asm.rhs, &mut self.solution);
        self.stats.solves += 1;
        Ok(&self.solution)
    }
}

impl Drop for MnaEngine {
    fn drop(&mut self) {
        self.stats.flush();
    }
}

/// Shockley diode with exponent limiting: returns `(i, di/dv)`.
fn diode_eval(vd: f64, i_sat: f64, nvt: f64) -> (f64, f64) {
    let x = vd / nvt;
    if x > DIODE_EXP_MAX {
        // Linear extrapolation beyond the exponent cap.
        let e = DIODE_EXP_MAX.exp();
        let i_cap = i_sat * (e - 1.0);
        let g_cap = i_sat * e / nvt;
        (i_cap + g_cap * (vd - DIODE_EXP_MAX * nvt), g_cap)
    } else if x < -DIODE_EXP_MAX {
        // Deep reverse: saturation current with a tiny conductance to keep
        // the Jacobian nonsingular.
        (-i_sat, i_sat / nvt * (-DIODE_EXP_MAX).exp() + 1e-15)
    } else {
        let e = x.exp();
        (i_sat * (e - 1.0), i_sat * e / nvt)
    }
}

/// Level-1 NMOS square law: returns `(ids, gm, gds)` for `vds >= 0`.
fn nmos_eval(vgs: f64, vds: f64, vth: f64, kp: f64, lambda: f64) -> (f64, f64, f64) {
    debug_assert!(vds >= 0.0);
    let vov = vgs - vth;
    if vov <= 0.0 {
        // Cutoff: zero current; tiny gds keeps the node from floating.
        return (0.0, 0.0, 1e-12);
    }
    if vds < vov {
        // Triode.
        let ids = kp * (vov * vds - 0.5 * vds * vds);
        let gm = kp * vds;
        let gds = kp * (vov - vds) + 1e-12;
        (ids, gm, gds)
    } else {
        // Saturation with channel-length modulation.
        let ids0 = 0.5 * kp * vov * vov;
        let ids = ids0 * (1.0 + lambda * vds);
        let gm = kp * vov * (1.0 + lambda * vds);
        let gds = ids0 * lambda + 1e-12;
        (ids, gm, gds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    fn assemble_linear(netlist: &Netlist) -> (Matrix, Vec<f64>) {
        let mut asm = Assembler::new(netlist);
        let guess = vec![0.0; asm.layout.dim];
        let caps = vec![None; netlist.device_count()];
        let ctx = AssemblyCtx {
            time: 0.0,
            source_scale: 1.0,
            gmin: 0.0,
            guess: &guess,
            cap_companion: &caps,
            thermal: Thermal::new(T_NOMINAL_K),
        };
        asm.assemble(netlist, &ctx);
        (asm.matrix.clone(), asm.rhs.clone())
    }

    #[test]
    fn resistor_divider_system() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource(a, Netlist::GND, 2.0);
        nl.resistor(a, b, 1000.0);
        nl.resistor(b, Netlist::GND, 1000.0);
        let (m, rhs) = assemble_linear(&nl);
        // Unknowns: v(a), v(b), i(V1). Solve and check.
        let x = m.solve(&rhs).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        // Branch current = 2V across 2k = 1 mA flowing out of the source's
        // positive terminal into the divider, i.e. i(V) = −1 mA by MNA
        // convention (current p→n through the source).
        assert!((x[2] + 1e-3).abs() < 1e-9, "i = {}", x[2]);
    }

    #[test]
    fn isource_direction() {
        // 1 A source from gnd (p) to node (n) feeds the node; with a 1 Ω
        // resistor to ground the node must sit at +1 V.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.isource(Netlist::GND, a, 1.0);
        nl.resistor(a, Netlist::GND, 1.0);
        let (m, rhs) = assemble_linear(&nl);
        let x = m.solve(&rhs).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vccs_stamp() {
        // VCCS gm=2 S controlled by a 1 V source, output through 1 Ω.
        let mut nl = Netlist::new();
        let c = nl.node("c");
        let o = nl.node("o");
        nl.vsource(c, Netlist::GND, 1.0);
        // Current 2·v(c) flows o → gnd through the source ⇒ pulls o down.
        nl.vccs(o, Netlist::GND, c, Netlist::GND, 2.0);
        nl.resistor(o, Netlist::GND, 1.0);
        let (m, rhs) = assemble_linear(&nl);
        let x = m.solve(&rhs).unwrap();
        // KCL at o: v(o)/1 + 2·1 = 0 ⇒ v(o) = −2.
        assert!((x[1] + 2.0).abs() < 1e-12, "v(o) = {}", x[1]);
    }

    #[test]
    fn vcvs_gain() {
        let mut nl = Netlist::new();
        let c = nl.node("c");
        let o = nl.node("o");
        nl.vsource(c, Netlist::GND, 0.25);
        nl.vcvs(o, Netlist::GND, c, Netlist::GND, 8.0);
        nl.resistor(o, Netlist::GND, 50.0);
        let (m, rhs) = assemble_linear(&nl);
        let x = m.solve(&rhs).unwrap();
        assert!((x[1] - 2.0).abs() < 1e-12, "v(o) = {}", x[1]);
    }

    #[test]
    fn diode_eval_monotone() {
        let mut prev = f64::NEG_INFINITY;
        for mv in -100..=120 {
            let v = mv as f64 * 0.01;
            let (i, g) = diode_eval(v, 1e-14, VT_THERMAL);
            // Non-decreasing everywhere (deep reverse saturates to −Isat at
            // f64 precision), strictly increasing once forward biased.
            if v > 0.0 {
                assert!(
                    i > prev,
                    "forward current must be strictly increasing at v={v}"
                );
            } else {
                assert!(i >= prev, "current must never decrease at v={v}");
            }
            assert!(g > 0.0);
            prev = i;
        }
    }

    #[test]
    fn diode_eval_continuous_at_cap() {
        let nvt = VT_THERMAL;
        let vcap = DIODE_EXP_MAX * nvt;
        let (i_below, _) = diode_eval(vcap - 1e-9, 1e-14, nvt);
        let (i_above, _) = diode_eval(vcap + 1e-9, 1e-14, nvt);
        assert!((i_above - i_below) / i_below < 1e-3);
    }

    #[test]
    fn nmos_regions() {
        // Cutoff.
        let (i, gm, _) = nmos_eval(0.2, 1.0, 0.5, 1e-3, 0.0);
        assert_eq!(i, 0.0);
        assert_eq!(gm, 0.0);
        // Triode: vds < vov.
        let (i, _, gds) = nmos_eval(1.5, 0.2, 0.5, 1e-3, 0.0);
        let expect = 1e-3 * (1.0 * 0.2 - 0.5 * 0.04);
        assert!((i - expect).abs() < 1e-12);
        assert!(gds > 1e-6);
        // Saturation.
        let (i, gm, _) = nmos_eval(1.5, 2.0, 0.5, 1e-3, 0.0);
        assert!((i - 0.5e-3).abs() < 1e-12);
        assert!((gm - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn nmos_continuous_at_pinchoff() {
        let (i_tri, _, _) = nmos_eval(1.0, 0.5 - 1e-9, 0.5, 1e-3, 0.1);
        let (i_sat, _, _) = nmos_eval(1.0, 0.5 + 1e-9, 0.5, 1e-3, 0.1);
        // lambda introduces a small step at pinch-off in the level-1 model
        // (standard behaviour); with lambda·vds = 5% the step is bounded.
        assert!((i_sat - i_tri).abs() / i_tri < 0.06);
    }
}
