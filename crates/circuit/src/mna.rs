//! Modified Nodal Analysis assembly and solve.
//!
//! This module turns a [`Netlist`] plus an evaluation context (time, source
//! scale, Newton guess, capacitor companion models) into the linear system
//! `A x = b`, where `x` stacks non-ground node voltages followed by branch
//! currents of voltage-defined elements, and solves it.
//!
//! The assembly is re-run at every Newton iteration / time step; the layout
//! (index assignment) is computed once per topology. [`MnaEngine`] takes
//! its factorization from the netlist: dense LU when it holds a diode or a
//! MOSFET, sparse LU otherwise. One routine writes each linear device's
//! matrix entries for both paths, and one writes the right-hand side.

use crate::matrix::{Matrix, SingularMatrixError};
use crate::netlist::{Device, DeviceId, MosPolarity, Netlist, NodeId};
use crate::sparse::{Numeric, Symbolic};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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
    /// Equivalent conductance (C/h for BE, 2C/h for trapezoidal).
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

/// The value of a capacitor's companion in this context, `None` in DC.
#[inline]
fn companion<'a>(ctx: &AssemblyCtx<'a>, id: DeviceId) -> Option<&'a CapCompanion> {
    ctx.cap_companion.get(id.index()).and_then(Option::as_ref)
}

/// Stamps a conductance `g` between nodes `a` and `b`.
#[inline]
fn conductance(
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

/// Writes the matrix entries of one linear device through
/// `add(row, col, value)`: the one place they are spelled out, for the
/// dense [`Assembler`], the sparse pattern discovery and the sparse base.
///
/// `cap_g` is a capacitor's companion conductance; `None` leaves it open,
/// as in DC. Current sources, diodes and MOSFETs write nothing here.
fn stamp_linear(
    layout: &MnaLayout,
    id: DeviceId,
    dev: &Device,
    cap_g: Option<f64>,
    add: &mut impl FnMut(usize, usize, f64),
) {
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
            if let Some(g) = cap_g {
                conductance(layout, *a, *b, g, add);
            }
        }
        Device::VSource { p, n, .. } => incidence(layout, layout.branch_index(id), *p, *n, add),
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
        Device::Vccs { p, n, cp, cn, gm } => transconductance(layout, [*p, *n, *cp, *cn], *gm, add),
        Device::ISource { .. } | Device::Diode { .. } | Device::Mosfet { .. } => {}
    }
}

/// Adds one device's source terms to the right-hand side: independent
/// sources at `ctx.time` times `ctx.source_scale`, and the capacitor
/// companion currents. Both solve paths build their RHS through it.
#[inline]
fn stamp_sources(
    layout: &MnaLayout,
    id: DeviceId,
    dev: &Device,
    ctx: &AssemblyCtx<'_>,
    rhs: &mut [f64],
) {
    match dev {
        Device::VSource { wave, .. } => {
            rhs[layout.branch_index(id)] += wave.at(ctx.time) * ctx.source_scale;
        }
        Device::ISource { p, n, wave } => {
            current(layout, *p, *n, wave.at(ctx.time) * ctx.source_scale, rhs);
        }
        Device::Capacitor { a, b, .. } => {
            // ieq is injected from b to a (i.e. it *feeds* node a) so that
            // i_cap = g·v − ieq.
            if let Some(comp) = companion(ctx, id) {
                current(layout, *a, *b, -comp.ieq, rhs);
            }
        }
        _ => {}
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
                _ => {
                    stamp_linear(layout, id, dev, companion(ctx, id).map(|c| c.g), add);
                    stamp_sources(layout, id, dev, ctx, rhs);
                }
            }
        }
    }
}

/// FNV-1a-style hasher with a word-at-a-time fast path: the pool keys are
/// long integer vectors and the default SipHash costs more than the lookup
/// saves. Not DoS-resistant — fine for keys derived from our own netlists.
#[derive(Default)]
struct FnvHasher(u64);

impl FnvHasher {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    #[inline]
    fn mix(&mut self, v: u64) {
        let h = if self.0 == 0 { Self::SEED } else { self.0 };
        self.0 = (h ^ v).wrapping_mul(Self::PRIME);
    }
}

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Word-at-a-time: std hashes integer-slice keys as one big byte
        // write, and a per-byte loop over a kilobyte-sized key would cost
        // more than the cached assembler it guards.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.mix(u64::from_le_bytes(tail) ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Sparse MNA assembler for linear netlists.
///
/// The per-topology work — sparsity-pattern discovery, fill-reducing
/// ordering and symbolic factorization — happens once. The matrix values
/// (the *base*) are rebuilt only when a device value changed, and the
/// static-pattern numeric refactorization from [`crate::sparse`] is skipped
/// while the base is bit-identical to the values last factored; per solve
/// only the right-hand side is rebuilt.
///
/// Device values *can* change between solves (switches toggled by the SAR
/// controller, capacitor companions when `dt` changes, `gmin` stepping); a
/// per-device fingerprint detects that and rebuilds the base lazily.
#[derive(Debug)]
pub(crate) struct SparseAssembler {
    symbolic: Symbolic,
    numeric: Numeric,
    /// Matrix values in pattern-slot order.
    base: Vec<f64>,
    /// The values the current factorization was computed from (NaN when
    /// there is none); while `base` bit-matches them the refactorization
    /// is skipped.
    factored: Vec<f64>,
    rhs: Vec<f64>,
    /// Per-device matrix value the base was built from; a change forces a
    /// rebuild. Sources stay NaN: they only move the RHS.
    fingerprint: Vec<f64>,
    /// gmin the base was built with (NaN before the first build).
    base_gmin: f64,
    /// Structure key this assembler was built for; used to return it to the
    /// per-topology pool when the owning engine is dropped.
    key: Vec<u64>,
}

type AssemblerPool = HashMap<Vec<u64>, SparseAssembler, BuildHasherDefault<FnvHasher>>;

thread_local! {
    static ASSEMBLER_POOL: RefCell<AssemblerPool> = RefCell::new(HashMap::default());
}

/// Entry cap on the per-thread assembler pool (cleared on overflow). Sized
/// for the worst realistic topology count: a defect campaign injecting a
/// few hundred structural shorts/opens into one netlist.
const ASSEMBLER_POOL_CAP: usize = 256;

impl SparseAssembler {
    /// A cheap structural fingerprint of the netlist: per device, its stamp
    /// shape and node wiring, excluding every value (resistances, source
    /// levels, switch state) — those are handled per solve by the
    /// per-device value fingerprint and the RHS rebuild. Resistors,
    /// switches and capacitors all stamp a conductance between two nodes,
    /// so they share a shape: a switch opened into a resistor keeps its
    /// topology's assembler.
    fn structure_key(netlist: &Netlist, dim: usize) -> Vec<u64> {
        let mut key = Vec::with_capacity(1 + netlist.device_count() * 4);
        key.push(dim as u64);
        let node = |n: &NodeId| n.index() as u64;
        for (_, dev) in netlist.iter() {
            match dev {
                Device::Resistor { a, b, .. }
                | Device::Switch { a, b, .. }
                | Device::Capacitor { a, b, .. } => key.extend([1, node(a), node(b)]),
                Device::Diode { anode, cathode, .. } => {
                    key.extend([4, node(anode), node(cathode)]);
                }
                Device::VSource { p, n, .. } => key.extend([5, node(p), node(n)]),
                Device::ISource { p, n, .. } => key.extend([6, node(p), node(n)]),
                Device::Vcvs { p, n, cp, cn, .. } => {
                    key.extend([7, node(p), node(n), node(cp), node(cn)]);
                }
                Device::Vccs { p, n, cp, cn, .. } => {
                    key.extend([8, node(p), node(n), node(cp), node(cn)]);
                }
                Device::Mosfet { d, g, s, .. } => {
                    key.extend([9, node(d), node(g), node(s)]);
                }
            }
        }
        key
    }

    /// Checks the assembler for this topology out of the per-thread pool,
    /// or builds one on first sight. The caller owns it until
    /// [`Self::release`].
    ///
    /// A pooled assembler may carry state from a *different netlist* of the
    /// same structure (other Monte-Carlo sample, toggled switches); that is
    /// safe by construction — the value fingerprint rebuilds the base on
    /// mismatch, the RHS is rebuilt from the actual netlist every solve,
    /// and the numeric factorization is refreshed whenever the base
    /// changes.
    fn obtain(netlist: &Netlist, layout: &MnaLayout) -> Self {
        let key = Self::structure_key(netlist, layout.dim);
        let pooled = ASSEMBLER_POOL.with(|c| c.borrow_mut().remove(&key));
        let mut asm = pooled.unwrap_or_else(|| Self::new(netlist, layout));
        asm.key = key;
        asm
    }

    /// Returns the assembler to the per-thread pool for the next engine on
    /// the same topology.
    fn release(mut self) {
        let key = std::mem::take(&mut self.key);
        // `try_with`: drops during thread teardown must not panic.
        let _ = ASSEMBLER_POOL.try_with(|c| {
            let mut pool = c.borrow_mut();
            if pool.len() >= ASSEMBLER_POOL_CAP {
                pool.clear();
            }
            pool.insert(key, self);
        });
    }

    fn new(netlist: &Netlist, layout: &MnaLayout) -> Self {
        // Pooled assemblers serve DC and transient contexts alike, so the
        // pattern holds every position either can touch: capacitors count
        // as stamped, and `Symbolic::analyze` adds the gmin diagonal.
        let mut entries = Vec::new();
        for (id, dev) in netlist.iter() {
            stamp_linear(layout, id, dev, Some(0.0), &mut |r, c, _| {
                entries.push((r, c));
            });
        }
        let symbolic = Symbolic::analyze(layout.dim, &entries);
        let nnz = symbolic.nnz();
        Self {
            numeric: Numeric::new(&symbolic),
            symbolic,
            base: vec![0.0; nnz],
            factored: vec![f64::NAN; nnz],
            rhs: vec![0.0; layout.dim],
            fingerprint: vec![f64::NAN; netlist.device_count()],
            base_gmin: f64::NAN,
            key: Vec::new(),
        }
    }

    /// Rebuilds the base if any device value changed. Returns `false` when
    /// the netlist holds a diode or MOSFET, which this assembler cannot
    /// stamp.
    fn refresh_base(
        &mut self,
        netlist: &Netlist,
        layout: &MnaLayout,
        ctx: &AssemblyCtx<'_>,
    ) -> bool {
        let mut stale = self.base_gmin != ctx.gmin;
        for ((id, dev), seen) in netlist.iter().zip(&mut self.fingerprint) {
            let v = match dev {
                Device::Resistor { ohms, .. } => 1.0 / ohms,
                Device::Switch {
                    closed,
                    r_on,
                    r_off,
                    ..
                } => 1.0 / if *closed { *r_on } else { *r_off },
                Device::Capacitor { .. } => companion(ctx, id).map_or(0.0, |c| c.g),
                Device::Vcvs { gain, .. } => *gain,
                Device::Vccs { gm, .. } => *gm,
                Device::VSource { .. } | Device::ISource { .. } => continue,
                Device::Diode { .. } | Device::Mosfet { .. } => return false,
            };
            if seen.to_bits() != v.to_bits() {
                *seen = v;
                stale = true;
            }
        }
        if stale {
            self.base.fill(0.0);
            let (sym, base) = (&self.symbolic, &mut self.base);
            let add = &mut |r: usize, c: usize, v: f64| {
                base[sym.slot(r, c).expect("position in pattern")] += v;
            };
            if ctx.gmin > 0.0 {
                for i in 0..(layout.node_count - 1) {
                    add(i, i, ctx.gmin);
                }
            }
            for (id, dev) in netlist.iter() {
                stamp_linear(layout, id, dev, companion(ctx, id).map(|c| c.g), add);
            }
            self.base_gmin = ctx.gmin;
        }
        true
    }

    /// Assembles and solves the MNA system into `x_out`. Returns
    /// `Some(true)` when a numeric refactorization was performed,
    /// `Some(false)` when the bit-identical-base check allowed it to be
    /// skipped — the engine turns this into the refactor-skip metrics —
    /// and `None` when this path cannot solve the system: a static pivot
    /// vanished, or the netlist is not linear. The caller then solves it
    /// dense.
    fn assemble_and_solve(
        &mut self,
        netlist: &Netlist,
        layout: &MnaLayout,
        ctx: &AssemblyCtx<'_>,
        x_out: &mut [f64],
    ) -> Option<bool> {
        if !self.refresh_base(netlist, layout, ctx) {
            return None;
        }
        self.rhs.fill(0.0);
        for (id, dev) in netlist.iter() {
            stamp_sources(layout, id, dev, ctx, &mut self.rhs);
        }
        let same = self
            .base
            .iter()
            .zip(&self.factored)
            .all(|(b, f)| b.to_bits() == f.to_bits());
        if !same {
            if self.numeric.refactor(&self.symbolic, &self.base).is_err() {
                // The failed refactorization overwrote part of the factor.
                self.factored.fill(f64::NAN);
                return None;
            }
            self.factored.copy_from_slice(&self.base);
        }
        self.numeric.solve_into(&self.symbolic, &self.rhs, x_out);
        Some(!same)
    }
}

/// Solver engine. The netlist picks the factorization at construction: a
/// netlist with any diode or MOSFET solves every system by dense LU with
/// partial pivoting; a linear one solves sparse, and a solve whose static
/// pivot vanishes is retried dense.
#[derive(Debug)]
pub(crate) struct MnaEngine {
    dense: Assembler,
    /// The sparse path, `None` for nonlinear netlists.
    sparse: Option<SparseAssembler>,
    /// Solution buffer reused across iterations; [`MnaEngine::assemble_and_solve`]
    /// hands out a borrow of it so the hot loop never allocates.
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
    sparse_solves: u64,
    dense_solves: u64,
    refactors: u64,
    refactor_skips: u64,
    /// Newton iterations per converged operating-point solve; local
    /// buckets, merged into the shared histogram on drop.
    newton_iters: symbist_obs::LocalHistogram,
}

impl EngineStats {
    fn new() -> Self {
        Self {
            sparse_solves: 0,
            dense_solves: 0,
            refactors: 0,
            refactor_skips: 0,
            newton_iters: symbist_obs::LocalHistogram::new(symbist_obs::histogram!(
                "symbist_solver_newton_iterations",
                "Newton iterations per converged operating-point solve",
                symbist_obs::ITERATION_EDGES
            )),
        }
    }

    fn flush(&mut self) {
        symbist_obs::counter!(
            r#"symbist_solver_solves_total{path="sparse"}"#,
            "Linear MNA solves by assembly path"
        )
        .add(self.sparse_solves);
        symbist_obs::counter!(
            r#"symbist_solver_solves_total{path="dense"}"#,
            "Linear MNA solves by assembly path"
        )
        .add(self.dense_solves);
        symbist_obs::counter!(
            "symbist_solver_refactors_total",
            "Sparse numeric refactorizations performed"
        )
        .add(self.refactors);
        symbist_obs::counter!(
            "symbist_solver_refactor_skips_total",
            "Sparse refactorizations skipped via the bit-identical-matrix check"
        )
        .add(self.refactor_skips);
        self.sparse_solves = 0;
        self.dense_solves = 0;
        self.refactors = 0;
        self.refactor_skips = 0;
        self.newton_iters.flush();
    }
}

impl MnaEngine {
    pub(crate) fn new(netlist: &Netlist) -> Self {
        let dense = Assembler::new(netlist);
        let linear = !netlist.has_nonlinear();
        // The differential tests' oracle: every engine on the thread dense.
        #[cfg(test)]
        let linear = linear && !tests::DENSE_ONLY.get();
        let sparse = linear.then(|| SparseAssembler::obtain(netlist, &dense.layout));
        let solution = vec![0.0; dense.layout.dim];
        Self {
            dense,
            sparse,
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
        &self.dense.layout
    }

    /// Assembles and solves one MNA system on the engine's path.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] only when the dense factorization
    /// finds the matrix singular (a genuinely singular iterate).
    pub(crate) fn assemble_and_solve(
        &mut self,
        netlist: &Netlist,
        ctx: &AssemblyCtx<'_>,
    ) -> Result<&[f64], SingularMatrixError> {
        // Split borrows: the layout lives on the dense assembler.
        let sparse = self.sparse.as_mut().and_then(|sparse| {
            sparse.assemble_and_solve(netlist, &self.dense.layout, ctx, &mut self.solution)
        });
        match sparse {
            Some(refactored) => {
                self.stats.sparse_solves += 1;
                if refactored {
                    self.stats.refactors += 1;
                } else {
                    self.stats.refactor_skips += 1;
                }
            }
            None => {
                self.dense.assemble(netlist, ctx);
                self.solution = self.dense.matrix.solve(&self.dense.rhs)?;
                self.stats.dense_solves += 1;
            }
        }
        Ok(&self.solution)
    }
}

impl Drop for MnaEngine {
    fn drop(&mut self) {
        self.stats.flush();
        if let Some(sparse) = self.sparse.take() {
            sparse.release();
        }
    }
}

/// Shockley diode with exponent limiting: returns `(i, di/dv)`.
pub(crate) fn diode_eval(vd: f64, i_sat: f64, nvt: f64) -> (f64, f64) {
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
pub(crate) fn nmos_eval(vgs: f64, vds: f64, vth: f64, kp: f64, lambda: f64) -> (f64, f64, f64) {
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
pub(crate) mod tests {
    use super::*;
    use crate::netlist::Netlist;
    use std::cell::Cell;

    thread_local! {
        /// Set by [`dense`]; read by [`MnaEngine::new`].
        pub(super) static DENSE_ONLY: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `f` with every engine built on this thread solving dense: the
    /// oracle side of the differential tests.
    pub(crate) fn dense<T>(f: impl FnOnce() -> T) -> T {
        let prev = DENSE_ONLY.replace(true);
        let out = f();
        DENSE_ONLY.set(prev);
        out
    }

    /// Whether the DC solve of a linear `netlist` stays on the sparse path.
    pub(crate) fn solves_sparse(netlist: &Netlist) -> bool {
        let mut engine = MnaEngine::new(netlist);
        solve_once(&mut engine, netlist);
        engine.stats.sparse_solves == 1
    }

    /// One DC-context solve from the all-zero guess.
    fn solve_once(engine: &mut MnaEngine, netlist: &Netlist) -> Vec<f64> {
        let guess = vec![0.0; engine.layout().dim];
        let caps = vec![None; netlist.device_count()];
        let ctx = AssemblyCtx {
            time: 0.0,
            source_scale: 1.0,
            gmin: crate::dc::GMIN,
            guess: &guess,
            cap_companion: &caps,
            thermal: Thermal::new(T_NOMINAL_K),
        };
        engine.assemble_and_solve(netlist, &ctx).unwrap().to_vec()
    }

    #[test]
    fn nonlinear_netlists_solve_dense_and_leave_the_pool_alone() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let k = nl.node("k");
        nl.vsource(a, Netlist::GND, 2.0);
        nl.resistor(a, k, 1e3);
        nl.diode(k, Netlist::GND, 1e-14, 1.0);
        // Park an assembler under this topology's key: a checkout would
        // take it out of the pool.
        let layout = MnaLayout::new(&nl);
        let key = SparseAssembler::structure_key(&nl, layout.dim);
        let parked = SparseAssembler::new(&nl, &layout);
        ASSEMBLER_POOL.with(|p| p.borrow_mut().insert(key.clone(), parked));

        let mut engine = MnaEngine::new(&nl);
        assert!(engine.sparse.is_none());
        solve_once(&mut engine, &nl);
        solve_once(&mut engine, &nl);
        let stats = &engine.stats;
        assert_eq!((stats.sparse_solves, stats.dense_solves), (0, 2));
        drop(engine);
        assert!(ASSEMBLER_POOL.with(|p| p.borrow().contains_key(&key)));
    }

    #[test]
    fn linear_netlists_solve_sparse_and_skip_identical_refactors() {
        ASSEMBLER_POOL.with(|p| p.borrow_mut().clear());
        let mut nl = Netlist::new();
        let top = nl.node("top");
        nl.vsource(top, Netlist::GND, 1.2);
        let mut prev = top;
        for i in 0..32 {
            let n = nl.node(&format!("tap{i}"));
            nl.resistor(prev, n, 250.0);
            prev = n;
        }
        nl.resistor(prev, Netlist::GND, 250.0);

        let mut engine = MnaEngine::new(&nl);
        assert!(engine.sparse.is_some());
        let first = solve_once(&mut engine, &nl);
        let second = solve_once(&mut engine, &nl);
        assert_eq!(first, second);
        let s = &engine.stats;
        assert_eq!(
            (
                s.sparse_solves,
                s.dense_solves,
                s.refactors,
                s.refactor_skips
            ),
            (2, 0, 1, 1)
        );
    }

    /// A static pivot that vanishes after the first rows of the factor were
    /// rewritten must not leave those rows behind for a later solve of the
    /// values factored before.
    #[test]
    fn failed_refactor_never_leaves_a_stale_factorization() {
        // Elimination order c, a, b: c's row changes with `s_c`, and a's
        // pivot vanishes once both switches open, leaving only the
        // cross-coupled transconductances to pivot on.
        let mut nl = Netlist::new();
        let c = nl.node("c");
        let a = nl.node("a");
        let b = nl.node("b");
        nl.isource(Netlist::GND, a, 1e-3);
        nl.resistor(c, a, 1e3);
        let s_c = nl.switch(c, Netlist::GND, 100.0, 1e12);
        let s_a = nl.switch(a, Netlist::GND, 100.0, 1e12);
        nl.vccs(a, Netlist::GND, b, Netlist::GND, 1e3);
        nl.vccs(b, Netlist::GND, a, Netlist::GND, 1e3);
        let close = |nl: &mut Netlist, closed: bool| {
            nl.set_switch(s_c, closed);
            nl.set_switch(s_a, closed);
        };

        close(&mut nl, true);
        let mut engine = MnaEngine::new(&nl);
        let closed = solve_once(&mut engine, &nl);
        close(&mut nl, false);
        let open = solve_once(&mut engine, &nl);
        close(&mut nl, true);
        let again = solve_once(&mut engine, &nl);

        let s = &engine.stats;
        assert_eq!(
            (
                s.sparse_solves,
                s.dense_solves,
                s.refactors,
                s.refactor_skips
            ),
            (2, 1, 2, 0)
        );
        assert_eq!(closed, again);
        close(&mut nl, false);
        assert_eq!(open, dense(|| solve_once(&mut MnaEngine::new(&nl), &nl)));
    }

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
