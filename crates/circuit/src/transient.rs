//! Transient analysis with switch-event co-simulation.
//!
//! Capacitors are replaced by their backward-Euler companion models and
//! the resulting resistive circuit is solved per time step with the same
//! Newton engine as the DC analysis. The simulation object borrows the
//! netlist per step, so a digital controller can flip switches or retarget
//! sources between steps — this is how the SAR conversion loop and the
//! SymBIST stimulus drive the analog core.
//!
//! Linear decks (no diodes or MOSFETs) step faster through
//! [`LinearTransient`], which builds one affine step map per switch phase
//! and folds a run of steps under DC sources into one map
//! ([`LinearTransient::advance`]). Such a call checks the thread
//! [`crate::dc::SolveBudget`]'s deadline once, however many steps it takes.
//!
//! # Examples
//!
//! ```
//! use symbist_circuit::netlist::Netlist;
//! use symbist_circuit::transient::{TransientOptions, TransientSim};
//!
//! // RC charging step: v(t) = 1 − exp(−t/RC), RC = 1 µs.
//! let mut nl = Netlist::new();
//! let src = nl.node("src");
//! let out = nl.node("out");
//! nl.vsource(src, Netlist::GND, 1.0);
//! nl.resistor(src, out, 1e3);
//! nl.capacitor_with_ic(out, Netlist::GND, 1e-9, 0.0);
//! let opts = TransientOptions { dt: 1e-8, use_ic: true };
//! let mut sim = TransientSim::new(&nl, opts)?;
//! while sim.time() < 1e-6 {
//!     sim.step(&nl)?;
//! }
//! let v = sim.voltage(out);
//! assert!((v - (1.0 - (-1.0f64).exp())).abs() < 5e-3);
//! # Ok::<(), symbist_circuit::error::CircuitError>(())
//! ```

use std::sync::Arc;

use crate::dc::{charge_newton_iteration, charge_newton_iterations, DcSolver, GMIN, MAX_ITER};
use crate::error::CircuitError;
use crate::matrix::Lu;
use crate::mna::{Assembler, AssemblyCtx, CapCompanion, MnaEngine, Thermal, T_NOMINAL_K};
use crate::netlist::{Device, DeviceId, Netlist, NodeId, SourceWave};

/// Transient analysis options.
#[derive(Debug, Clone)]
pub struct TransientOptions {
    /// Fixed time step in seconds.
    pub dt: f64,
    /// When `true`, capacitors with an `ic` start from it instead of the DC
    /// operating point.
    pub use_ic: bool,
}

impl Default for TransientOptions {
    fn default() -> Self {
        Self {
            dt: 1e-10,
            use_ic: false,
        }
    }
}

/// A running backward-Euler transient simulation.
///
/// The netlist is borrowed per call rather than owned so that external
/// controllers can mutate switch states and source values between steps.
/// The topology (device and node counts) must not change between steps.
#[derive(Debug)]
pub struct TransientSim {
    asm: MnaEngine,
    solver: DcSolver,
    x: Vec<f64>,
    time: f64,
    dt: f64,
    /// Each capacitor's voltage at the previous step, by device index.
    cap_v: Vec<Option<f64>>,
    companions: Vec<Option<CapCompanion>>,
    device_count: usize,
    /// Steps taken by this sim, flushed to the registry once on drop so
    /// the per-step cost stays a plain integer increment.
    steps_taken: u64,
}

impl Drop for TransientSim {
    fn drop(&mut self) {
        symbist_obs::counter!(
            "symbist_solver_transient_steps_total",
            "Transient integration steps taken"
        )
        .add(self.steps_taken);
    }
}

impl TransientSim {
    /// Initializes the simulation at `t = 0`.
    ///
    /// The initial point is the DC operating point of the netlist (with all
    /// waveforms evaluated at `t = 0`); capacitors carrying an explicit
    /// initial condition override it when `options.use_ic` is set.
    ///
    /// # Errors
    ///
    /// Returns an error if the initial operating point cannot be solved or
    /// if `options.dt` is not strictly positive.
    pub fn new(netlist: &Netlist, options: TransientOptions) -> Result<Self, CircuitError> {
        if !(options.dt.is_finite() && options.dt > 0.0) {
            return Err(CircuitError::InvalidConfig {
                reason: format!("time step must be > 0, got {}", options.dt),
            });
        }
        let solver = DcSolver::new();
        let op = solver.solve(netlist)?;
        let asm = MnaEngine::new(netlist);
        let cap_v = netlist
            .iter()
            .map(|(_, dev)| match dev {
                Device::Capacitor { a, b, ic, .. } => Some(match (options.use_ic, ic) {
                    (true, Some(v)) => *v,
                    _ => op.voltage(*a) - op.voltage(*b),
                }),
                _ => None,
            })
            .collect();
        let device_count = netlist.device_count();
        Ok(Self {
            x: op.raw().to_vec(),
            asm,
            solver,
            time: 0.0,
            dt: options.dt,
            cap_v,
            companions: vec![None; device_count],
            device_count,
            steps_taken: 0,
        })
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Voltage of a node at the current time.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range for the simulated netlist.
    pub fn voltage(&self, n: NodeId) -> f64 {
        if n.is_ground() {
            return 0.0;
        }
        assert!(
            n.index() < self.asm.layout().node_count,
            "node {n} out of range"
        );
        self.x[n.index() - 1]
    }

    /// Advances one time step.
    ///
    /// The caller may have mutated switch states or source waveform values
    /// in `netlist` since the previous call; the topology must be unchanged.
    ///
    /// # Errors
    ///
    /// Returns an error if the step's Newton solve fails.
    ///
    /// # Panics
    ///
    /// Panics if the netlist's device count changed since construction.
    pub fn step(&mut self, netlist: &Netlist) -> Result<(), CircuitError> {
        assert_eq!(
            netlist.device_count(),
            self.device_count,
            "netlist topology changed mid-simulation"
        );
        let t_next = self.time + self.dt;

        // Build companion models from the previous step's state.
        for (id, dev) in netlist.iter() {
            if let Device::Capacitor { farads, .. } = dev {
                let v_prev = self.cap_v[id.index()].expect("capacitor state missing");
                let g = farads / self.dt;
                self.companions[id.index()] = Some(CapCompanion { g, ieq: g * v_prev });
            }
        }

        let converged = {
            let companions = std::mem::take(&mut self.companions);
            let result = self.solver.newton(
                netlist,
                &mut self.asm,
                &mut self.x,
                t_next,
                1.0,
                GMIN,
                &companions,
            );
            self.companions = companions;
            result?
        };
        if !converged {
            return Err(step_failed());
        }

        // Update capacitor states from the solved step.
        for (id, dev) in netlist.iter() {
            if let Device::Capacitor { a, b, .. } = dev {
                self.cap_v[id.index()] = Some(self.node_v(*a) - self.node_v(*b));
            }
        }
        self.time = t_next;
        self.steps_taken += 1;
        Ok(())
    }

    fn node_v(&self, n: NodeId) -> f64 {
        match self.asm.layout().node_index(n) {
            None => 0.0,
            Some(i) => self.x[i],
        }
    }
}

/// Backward-Euler transient stepping of a *linear* netlist through
/// per-phase step operators.
///
/// Without diodes or MOSFETs, one backward-Euler step solves
/// `A·x' = Bs·s + Bu·u`, where `s` holds the capacitor voltages of the
/// previous step (through their `C/dt` companions) and `u` the source
/// values at the new time. `A` depends only on the linear device values —
/// resistors, switch states, capacitors, controlled-source gains — and
/// `gmin`, so while none of them changes (one switch phase) a step is the
/// affine map
///
/// ```text
/// s' = Ks·s + Hs·u        x' = Kx·s + Hx·u
/// ```
///
/// The maps ([`StepMaps`]) come from one dense LU factorization of `A` and
/// one back-solve per capacitor and per source, and are rebuilt only when a
/// linear device value changed since the previous step. A step is then a
/// `k × (k + n_src)` mat-vec over the capacitor voltages; node voltages
/// are evaluated on demand from the last step's `(s, u)`.
///
/// [`LinearTransient::advance`] takes `n` steps in one call. While the
/// sources are DC, `u` is constant too, so the first `n − 1` steps are one
/// affine map, `[Ks^(n−1) | Σ_{i<n−1} Ks^i·Hs]`, built by square-and-multiply
/// on first use and kept with the phase's maps. The last step runs as an
/// ordinary step, so the node voltages read afterwards come from that
/// step's `(s, u)` exactly as after `n` single steps.
///
/// The contract is [`TransientSim`]'s with default options: the same DC
/// starting point and errors, one Newton iteration
/// charged to the thread [`crate::dc::SolveBudget`] per step, and the same
/// step counter. Between calls a controller may flip switches and change
/// device or source values; the device list and its connections must stay
/// fixed. `TransientSim` remains the general engine (nonlinear devices,
/// `use_ic`) and this type's differential oracle.
///
/// # Examples
///
/// ```
/// use symbist_circuit::netlist::{Netlist, SourceWave};
/// use symbist_circuit::transient::LinearTransient;
/// use symbist_circuit::Device;
///
/// // Starts at the 0 V operating point, then the source steps to 1 V:
/// // RC charging through 1 kΩ into 1 nF (τ = 1 µs), 100 steps of 10 ns.
/// let mut nl = Netlist::new();
/// let src = nl.node("src");
/// let out = nl.node("out");
/// let v = nl.vsource(src, Netlist::GND, 0.0);
/// nl.resistor(src, out, 1e3);
/// nl.capacitor(out, Netlist::GND, 1e-9);
/// let mut sim = LinearTransient::new(&nl, 1e-8)?;
/// if let Device::VSource { wave, .. } = nl.device_mut(v) {
///     *wave = SourceWave::Dc(1.0);
/// }
/// sim.advance(&nl, 100)?;
/// assert!((sim.voltage(out) - (1.0 - (-1.0f64).exp())).abs() < 5e-3);
/// # Ok::<(), symbist_circuit::error::CircuitError>(())
/// ```
#[derive(Debug)]
pub struct LinearTransient {
    asm: Assembler,
    /// Factorization buffer the maps are built in.
    lu: Lu,
    dt: f64,
    time: f64,
    /// Per-device linear value read at the last step (one per device, so
    /// its length is the device count the sim was built for).
    fingerprint: Vec<f64>,
    /// Set when a linear value changed and `maps` is not yet rebuilt.
    stale: bool,
    /// The current phase's maps; `None` before the first step.
    maps: Option<Arc<StepMaps>>,
    /// Maps offered through [`LinearTransient::reuse`].
    known: Vec<Arc<StepMaps>>,
    /// Capacitor voltages at the current time.
    s: Vec<f64>,
    /// Source values at the time being stepped to.
    u: Vec<f64>,
    /// `[s; u]` of the last step: the solution is `solution_map · z`.
    z: Vec<f64>,
    /// The DC operating point, which is the solution until the first step.
    initial: Option<Vec<f64>>,
    steps_taken: u64,
}

impl Drop for LinearTransient {
    fn drop(&mut self) {
        symbist_obs::counter!(
            "symbist_solver_transient_steps_total",
            "Transient integration steps taken"
        )
        .add(self.steps_taken);
    }
}

/// The step maps of one switch phase of a linear deck, with the folds
/// [`LinearTransient::advance`] has used in that phase.
///
/// They depend on the deck's linear device values, its connections, `gmin`
/// and `dt`, never on its source values. So sims of decks that differ only
/// in their sources can share one set through [`LinearTransient::reuse`],
/// and a set built by [`StepMaps::build`] is bit-identical to the one a sim
/// builds itself.
#[derive(Debug, Clone, PartialEq)]
pub struct StepMaps {
    dt: f64,
    /// Per-device linear value the maps were built from.
    fingerprint: Vec<f64>,
    /// Capacitor count `k`.
    caps: usize,
    /// Width of a map row, `k + n_src`.
    width: usize,
    /// `[Ks | Hs]`, row-major, `k × (k + n_src)`.
    state_map: Vec<f64>,
    /// `[Kx | Hx]`, row-major, `dim × (k + n_src)`.
    solution_map: Vec<f64>,
    /// `(m, [Ks^m | Σ_{i<m} Ks^i·Hs])` for each fold of `m ≥ 2` steps built
    /// so far.
    folds: Vec<(usize, Vec<f64>)>,
}

/// The value through which a device enters the MNA matrix; a change means
/// the step maps are stale. Sources only enter the right-hand side, so
/// theirs is 0.
fn linear_value(dev: &Device) -> f64 {
    match dev {
        Device::Resistor { ohms, .. } => *ohms,
        Device::Switch {
            closed,
            r_on,
            r_off,
            ..
        } => {
            if *closed {
                *r_on
            } else {
                *r_off
            }
        }
        Device::Capacitor { farads, .. } => *farads,
        Device::Vcvs { gain, .. } => *gain,
        Device::Vccs { gm, .. } => *gm,
        _ => 0.0,
    }
}

/// Reads the linear device values into `fingerprint` and the source values
/// at time `t` into `u`. Returns whether a linear value changed and whether
/// every source is DC.
fn read_devices(
    netlist: &Netlist,
    t: f64,
    fingerprint: &mut [f64],
    u: &mut [f64],
) -> Result<(bool, bool), CircuitError> {
    let (mut changed, mut dc_only) = (false, true);
    let mut src = 0;
    for ((id, dev), seen) in netlist.iter().zip(fingerprint.iter_mut()) {
        match dev {
            Device::VSource { wave, .. } | Device::ISource { wave, .. } => {
                u[src] = wave.at(t);
                dc_only &= matches!(wave, SourceWave::Dc(_));
                src += 1;
            }
            Device::Diode { .. } | Device::Mosfet { .. } => return Err(nonlinear_device(id)),
            _ => {}
        }
        let v = linear_value(dev);
        if seen.to_bits() != v.to_bits() {
            *seen = v;
            changed = true;
        }
    }
    Ok((changed, dc_only))
}

fn source_count(netlist: &Netlist) -> usize {
    netlist
        .iter()
        .filter(|(_, d)| matches!(d, Device::VSource { .. } | Device::ISource { .. }))
        .count()
}

fn nonlinear_device(id: DeviceId) -> CircuitError {
    CircuitError::InvalidConfig {
        reason: format!("linear transient cannot step nonlinear device {id:?}"),
    }
}

fn invalid_dt(dt: f64) -> Option<CircuitError> {
    (!(dt.is_finite() && dt > 0.0)).then(|| CircuitError::InvalidConfig {
        reason: format!("time step must be > 0, got {dt}"),
    })
}

/// How a transient step that fails to converge is reported.
fn step_failed() -> CircuitError {
    CircuitError::NoConvergence {
        analysis: "transient step",
        iterations: MAX_ITER,
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The affine map `a ∘ b` over `[s; u]`, both `k × w` row-major:
/// `[Ka·Kb | Ka·Hb + Ha]`.
fn compose(a: &[f64], b: &[f64], k: usize, w: usize) -> Vec<f64> {
    let mut out = vec![0.0; k * w];
    for (a_row, out_row) in a.chunks_exact(w).zip(out.chunks_exact_mut(w)) {
        for (c, o) in out_row.iter_mut().enumerate() {
            let mut v: f64 = (0..k).map(|j| a_row[j] * b[j * w + c]).sum();
            if c >= k {
                v += a_row[c];
            }
            *o = v;
        }
    }
    out
}

impl StepMaps {
    /// Builds the maps of the netlist's current phase for steps of `dt`, as
    /// a [`LinearTransient`] on this deck would on its first step in the
    /// phase.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidConfig`] if `dt` is not strictly positive or
    /// the netlist holds a diode or MOSFET, and
    /// [`CircuitError::NoConvergence`] if the step matrix is singular.
    pub fn build(netlist: &Netlist, dt: f64) -> Result<Self, CircuitError> {
        if let Some(e) = invalid_dt(dt) {
            return Err(e);
        }
        let mut fingerprint = vec![f64::NAN; netlist.device_count()];
        let mut u = vec![0.0; source_count(netlist)];
        read_devices(netlist, dt, &mut fingerprint, &mut u)?;
        Self::build_in(
            netlist,
            &mut Assembler::new(netlist),
            &mut Lu::default(),
            dt,
            fingerprint,
        )
    }

    /// Builds the fold [`LinearTransient::advance`] uses for a run of `n`
    /// steps in this phase, unless it is already here, so that sims
    /// sharing these maps need not build it.
    pub fn prepare(&mut self, n: usize) {
        let m = n.saturating_sub(1);
        // Without capacitors there is no state to carry.
        if m < 2 || self.caps == 0 || self.fold(m).is_some() {
            return;
        }
        let (k, w) = (self.caps, self.width);
        // Square-and-multiply over the affine map; powers of one map
        // commute, so the composition order does not matter.
        let mut base = self.state_map.clone();
        let mut power: Option<Vec<f64>> = None;
        let mut left = m;
        loop {
            if left & 1 == 1 {
                power = Some(match power {
                    None => base.clone(),
                    Some(p) => compose(&base, &p, k, w),
                });
            }
            left >>= 1;
            if left == 0 {
                break;
            }
            base = compose(&base, &base, k, w);
        }
        self.folds
            .push((m, power.expect("a fold spans at least two steps")));
    }

    /// `[Ks^m | Σ_{i<m} Ks^i·Hs]`, if built (`m = 1` is `[Ks | Hs]`).
    fn fold(&self, m: usize) -> Option<&[f64]> {
        if m == 1 {
            return Some(&self.state_map);
        }
        self.folds
            .iter()
            .find(|(len, _)| *len == m)
            .map(|(_, f)| f.as_slice())
    }

    /// Factors the step matrix with the netlist's current device values in
    /// the given buffers and solves one column of `[Kx | Hx]` per
    /// capacitor, then per source.
    fn build_in(
        netlist: &Netlist,
        asm: &mut Assembler,
        lu: &mut Lu,
        dt: f64,
        fingerprint: Vec<f64>,
    ) -> Result<Self, CircuitError> {
        let companions: Vec<Option<CapCompanion>> = netlist
            .iter()
            .map(|(_, dev)| match dev {
                Device::Capacitor { farads, .. } => Some(CapCompanion {
                    g: farads / dt,
                    ieq: 0.0,
                }),
                _ => None,
            })
            .collect();
        let ctx = AssemblyCtx {
            time: 0.0,
            source_scale: 0.0,
            gmin: GMIN,
            guess: &[],
            cap_companion: &companions,
            // Only diodes and MOSFETs depend on temperature.
            thermal: Thermal::new(T_NOMINAL_K),
        };
        asm.assemble(netlist, &ctx);
        asm.matrix.lu_into(lu).map_err(|_| step_failed())?;

        let layout = &asm.layout;
        let caps: Vec<_> = netlist
            .iter()
            .filter_map(|(_, dev)| match dev {
                Device::Capacitor { a, b, .. } => {
                    Some((layout.node_index(*a), layout.node_index(*b)))
                }
                _ => None,
            })
            .collect();
        let w = caps.len() + source_count(netlist);
        let mut solution_map = vec![0.0; layout.dim * w];
        let mut rhs = vec![0.0; layout.dim];
        let mut x = vec![0.0; layout.dim];
        let mut column = 0;
        let mut solve_column = |rhs: &mut [f64], map: &mut [f64]| {
            lu.solve_into(rhs, &mut x);
            for (r, v) in x.iter().enumerate() {
                map[r * w + column] = *v;
            }
            rhs.fill(0.0);
            column += 1;
        };
        // A companion injects `ieq = g·v_prev` into terminal `a` and draws
        // it from `b`.
        for ((_, dev), comp) in netlist.iter().zip(&companions) {
            if let (Device::Capacitor { a, b, .. }, Some(comp)) = (dev, comp) {
                if let Some(i) = layout.node_index(*a) {
                    rhs[i] += comp.g;
                }
                if let Some(i) = layout.node_index(*b) {
                    rhs[i] -= comp.g;
                }
                solve_column(&mut rhs, &mut solution_map);
            }
        }
        for (id, dev) in netlist.iter() {
            match dev {
                Device::VSource { .. } => rhs[layout.branch_index(id)] = 1.0,
                Device::ISource { p, n, .. } => {
                    if let Some(i) = layout.node_index(*p) {
                        rhs[i] -= 1.0;
                    }
                    if let Some(i) = layout.node_index(*n) {
                        rhs[i] += 1.0;
                    }
                }
                _ => continue,
            }
            solve_column(&mut rhs, &mut solution_map);
        }
        if !solution_map.iter().all(|v| v.is_finite()) {
            return Err(step_failed());
        }

        let row = |i: Option<usize>| i.map(|i| &solution_map[i * w..(i + 1) * w]);
        let mut state_map = vec![0.0; caps.len() * w];
        for (&(a, b), out) in caps.iter().zip(state_map.chunks_exact_mut(w.max(1))) {
            for (c, o) in out.iter_mut().enumerate() {
                *o = row(a).map_or(0.0, |r| r[c]) - row(b).map_or(0.0, |r| r[c]);
            }
        }
        Ok(Self {
            dt,
            fingerprint,
            caps: caps.len(),
            width: w,
            state_map,
            solution_map,
            folds: Vec::new(),
        })
    }
}

impl LinearTransient {
    /// Initializes the simulation at `t = 0` from the DC operating point,
    /// exactly as [`TransientSim::new`] does with default options.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] if `dt` is not strictly
    /// positive or the netlist holds a diode or MOSFET, and the DC
    /// solver's error if the operating point cannot be solved.
    pub fn new(netlist: &Netlist, dt: f64) -> Result<Self, CircuitError> {
        if let Some(e) = invalid_dt(dt) {
            return Err(e);
        }
        if let Some((id, _)) = netlist.iter().find(|(_, d)| d.is_nonlinear()) {
            return Err(nonlinear_device(id));
        }
        let op = DcSolver::new().solve(netlist)?;
        let asm = Assembler::new(netlist);
        let x = op.raw().to_vec();
        let at = |n: NodeId| asm.layout.node_index(n).map_or(0.0, |i| x[i]);
        let s: Vec<f64> = netlist
            .iter()
            .filter_map(|(_, dev)| match dev {
                Device::Capacitor { a, b, .. } => Some(at(*a) - at(*b)),
                _ => None,
            })
            .collect();
        let n_src = source_count(netlist);
        Ok(Self {
            dt,
            time: 0.0,
            fingerprint: vec![f64::NAN; netlist.device_count()],
            stale: true,
            maps: None,
            known: Vec::new(),
            lu: Lu::default(),
            u: vec![0.0; n_src],
            z: vec![0.0; s.len() + n_src],
            s,
            asm,
            initial: Some(x),
            steps_taken: 0,
        })
    }

    /// Offers step maps built for this deck — the same devices and
    /// connections, stepped at the same `dt` — by [`StepMaps::build`] or
    /// for a clone of the deck. A phase whose linear device values equal
    /// theirs bit for bit uses them, and the folds they carry, instead of
    /// building its own; the results are the same.
    pub fn reuse(&mut self, maps: Arc<StepMaps>) {
        self.known.push(maps);
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Voltage of a node at the current time.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range for the simulated netlist.
    pub fn voltage(&self, n: NodeId) -> f64 {
        if n.is_ground() {
            return 0.0;
        }
        assert!(
            n.index() < self.asm.layout.node_count,
            "node {n} out of range"
        );
        let i = n.index() - 1;
        match (&self.initial, &self.maps) {
            (Some(x), _) => x[i],
            (None, Some(maps)) => {
                let w = self.z.len();
                dot(&maps.solution_map[i * w..(i + 1) * w], &self.z)
            }
            (None, None) => unreachable!("a step builds the maps"),
        }
    }

    /// Advances one time step: `advance(netlist, 1)`.
    ///
    /// # Errors
    ///
    /// As [`LinearTransient::advance`].
    ///
    /// # Panics
    ///
    /// Panics if the netlist's device count changed since construction.
    pub fn step(&mut self, netlist: &Netlist) -> Result<(), CircuitError> {
        self.advance(netlist, 1)
    }

    /// Advances `n` time steps with the netlist as it is now.
    ///
    /// The caller may have flipped switches or changed device and source
    /// values in `netlist` since the previous call; the step maps are
    /// rebuilt only if a matrix value changed. The call reads the devices
    /// and the thread budget's deadline once and charges `n` Newton
    /// iterations, then folds the first `n − 1` steps into one affine map
    /// and takes the last as an ordinary step. Two cases take the `n` steps
    /// one at a time instead, so that values and budget exhaustion are
    /// those of `n` calls to [`LinearTransient::step`]: a source that is
    /// not DC (its value changes from step to step), and a thread budget
    /// with fewer than `n` Newton iterations left. The time advances by
    /// `n` repeated additions of `dt`, and `n` steps count on
    /// `symbist_solver_transient_steps_total`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::BudgetExhausted`] when the thread budget
    /// runs out, [`CircuitError::NoConvergence`] when the step matrix is
    /// singular or the run leaves non-finite values (as
    /// [`TransientSim::step`] reports a failed linear step), and
    /// [`CircuitError::InvalidConfig`] if a device became nonlinear.
    ///
    /// # Panics
    ///
    /// Panics if the netlist's device count changed since construction.
    pub fn advance(&mut self, netlist: &Netlist, n: usize) -> Result<(), CircuitError> {
        assert_eq!(
            netlist.device_count(),
            self.fingerprint.len(),
            "netlist topology changed mid-simulation"
        );
        if n == 0 {
            return Ok(());
        }
        let (changed, dc_only) = read_devices(
            netlist,
            self.time + self.dt,
            &mut self.fingerprint,
            &mut self.u,
        )?;
        self.stale |= changed;
        if n > 1 && !(dc_only && charge_newton_iterations(n as u64)?) {
            for _ in 0..n {
                self.advance(netlist, 1)?;
            }
            return Ok(());
        }
        if n == 1 {
            charge_newton_iteration()?;
        }
        if self.stale {
            self.maps = Some(self.phase_maps(netlist)?);
            self.stale = false;
        }
        let maps = self.maps.as_mut().expect("the phase maps are built");
        let k = self.s.len();
        let w = self.z.len();
        let mut apply = |map: &[f64]| {
            self.z[..k].copy_from_slice(&self.s);
            self.z[k..].copy_from_slice(&self.u);
            for (s, row) in self.s.iter_mut().zip(map.chunks_exact(w.max(1))) {
                *s = dot(row, &self.z);
            }
        };
        if n > 2 && k > 0 && maps.fold(n - 1).is_none() {
            Arc::make_mut(maps).prepare(n);
        }
        if let Some(fold) = maps.fold(n - 1) {
            apply(fold);
        }
        apply(&maps.state_map);
        if !self.s.iter().all(|v| v.is_finite()) {
            return Err(step_failed());
        }
        self.initial = None;
        for _ in 0..n {
            self.time += self.dt;
        }
        self.steps_taken += n as u64;
        Ok(())
    }

    /// The maps of the phase the netlist is in now: offered ones with the
    /// same values if there are any, else built.
    fn phase_maps(&mut self, netlist: &Netlist) -> Result<Arc<StepMaps>, CircuitError> {
        let same = |maps: &&Arc<StepMaps>| {
            maps.dt.to_bits() == self.dt.to_bits()
                && maps.fingerprint.len() == self.fingerprint.len()
                && maps
                    .fingerprint
                    .iter()
                    .zip(&self.fingerprint)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        };
        if let Some(maps) = self.known.iter().find(same) {
            return Ok(Arc::clone(maps));
        }
        StepMaps::build_in(
            netlist,
            &mut self.asm,
            &mut self.lu,
            self.dt,
            self.fingerprint.clone(),
        )
        .map(Arc::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::SourceWave;

    #[test]
    fn rc_step_response_be() {
        // R = 1k, C = 1n → τ = 1 µs.
        let mut nl = Netlist::new();
        let s = nl.node("s");
        let o = nl.node("o");
        nl.vsource(s, Netlist::GND, 1.0);
        nl.resistor(s, o, 1e3);
        nl.capacitor_with_ic(o, Netlist::GND, 1e-9, 0.0);
        let mut sim = TransientSim::new(
            &nl,
            TransientOptions {
                dt: 5e-9,
                use_ic: true,
            },
        )
        .unwrap();
        while sim.time() < 1e-6 {
            sim.step(&nl).unwrap();
        }
        let expect = 1.0 - (-1.0f64).exp();
        assert!(
            (sim.voltage(o) - expect).abs() < 2e-3,
            "v = {}",
            sim.voltage(o)
        );
    }

    #[test]
    fn starts_from_dc_when_no_ic() {
        // Divider holds the cap at 0.5 V; transient must start there.
        let mut nl = Netlist::new();
        let s = nl.node("s");
        let o = nl.node("o");
        nl.vsource(s, Netlist::GND, 1.0);
        nl.resistor(s, o, 1e3);
        nl.resistor(o, Netlist::GND, 1e3);
        nl.capacitor(o, Netlist::GND, 1e-9);
        let mut sim = TransientSim::new(&nl, TransientOptions::default()).unwrap();
        assert!((sim.voltage(o) - 0.5).abs() < 1e-6);
        sim.step(&nl).unwrap();
        assert!((sim.voltage(o) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn switch_discharge_mid_run() {
        // Charge a cap, then close a discharge switch at t = 1 µs.
        let mut nl = Netlist::new();
        let s = nl.node("s");
        let o = nl.node("o");
        nl.vsource(s, Netlist::GND, 1.0);
        nl.resistor(s, o, 1e6); // slow charge
        nl.capacitor_with_ic(o, Netlist::GND, 1e-9, 1.0);
        let sw = nl.switch(o, Netlist::GND, 10.0, 1e12);
        let mut sim = TransientSim::new(
            &nl,
            TransientOptions {
                dt: 1e-9,
                use_ic: true,
            },
        )
        .unwrap();
        while sim.time() < 1e-6 {
            sim.step(&nl).unwrap();
        }
        assert!(sim.voltage(o) > 0.9);
        nl.set_switch(sw, true);
        // τ = 10 Ω · 1 nF = 10 ns; after 200 ns the node is at ground.
        while sim.time() < 1.2e-6 {
            sim.step(&nl).unwrap();
        }
        assert!(sim.voltage(o).abs() < 1e-3, "v = {}", sim.voltage(o));
    }

    /// The engine picks its path from the netlist it was built for; a
    /// device swapped for a diode between steps must still be stamped.
    #[test]
    fn device_turned_nonlinear_mid_run_is_stamped() {
        let mut nl = Netlist::new();
        let s = nl.node("s");
        let o = nl.node("o");
        nl.vsource(s, Netlist::GND, 1.0);
        nl.resistor(s, o, 1e3);
        let load = nl.resistor(o, Netlist::GND, 1e9);
        nl.capacitor(o, Netlist::GND, 1e-12);
        let mut sim = TransientSim::new(&nl, TransientOptions::default()).unwrap();
        *nl.device_mut(load) = Device::Diode {
            anode: o,
            cathode: Netlist::GND,
            i_sat: 1e-14,
            ideality: 1.0,
        };
        for _ in 0..100 {
            sim.step(&nl).unwrap();
        }
        // The diode clamps what the 1 GΩ load left at the source level.
        assert!(
            (0.5..0.7).contains(&sim.voltage(o)),
            "v = {}",
            sim.voltage(o)
        );
    }

    #[test]
    fn pulse_source_toggles_output() {
        let mut nl = Netlist::new();
        let s = nl.node("s");
        nl.vsource_wave(
            s,
            Netlist::GND,
            SourceWave::Pulse {
                low: 0.0,
                high: 1.0,
                delay: 1e-7,
                rise: 1e-9,
                fall: 1e-9,
                width: 1e-7,
                period: 0.0,
            },
        );
        nl.resistor(s, Netlist::GND, 1e3);
        let mut sim = TransientSim::new(
            &nl,
            TransientOptions {
                dt: 1e-9,
                ..Default::default()
            },
        )
        .unwrap();
        let mut at = |t: f64| {
            while sim.time() < t - 0.5e-9 {
                sim.step(&nl).unwrap();
            }
            sim.voltage(s)
        };
        assert!(at(5e-8) < 0.01);
        assert!(at(1.5e-7) > 0.99);
        assert!(at(3.5e-7) < 0.01);
    }

    #[test]
    fn sc_charge_sharing() {
        // Two equal caps, one at 1 V one at 0 V, connected by a switch:
        // final voltage 0.5 V on both (charge conservation).
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.capacitor_with_ic(a, Netlist::GND, 1e-12, 1.0);
        nl.capacitor_with_ic(b, Netlist::GND, 1e-12, 0.0);
        let sw = nl.switch(a, b, 100.0, 1e15);
        nl.set_switch(sw, true);
        let mut sim = TransientSim::new(
            &nl,
            TransientOptions {
                dt: 1e-12,
                use_ic: true,
            },
        )
        .unwrap();
        while sim.time() < 5e-9 {
            sim.step(&nl).unwrap();
        }
        assert!(
            (sim.voltage(a) - 0.5).abs() < 1e-3,
            "va = {}",
            sim.voltage(a)
        );
        assert!(
            (sim.voltage(b) - 0.5).abs() < 1e-3,
            "vb = {}",
            sim.voltage(b)
        );
    }

    /// A deck with neither capacitors nor sources has empty step maps:
    /// stepping and folded runs leave it at its 0 V operating point.
    #[test]
    fn stateless_deck_steps_and_folds() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor(a, Netlist::GND, 1e3);
        let mut sim = LinearTransient::new(&nl, 1e-9).unwrap();
        sim.step(&nl).unwrap();
        sim.advance(&nl, 5).unwrap();
        assert_eq!(sim.voltage(a), 0.0);
        let mut maps = StepMaps::build(&nl, 1e-9).unwrap();
        maps.prepare(5);
        assert_eq!(sim.time(), (0..6).fold(0.0, |t, _| t + 1e-9));
    }

    #[test]
    fn invalid_dt_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor(a, Netlist::GND, 1e3);
        for dt in [0.0, -1e-9, f64::NAN] {
            let options = TransientOptions {
                dt,
                ..Default::default()
            };
            assert!(matches!(
                TransientSim::new(&nl, options),
                Err(CircuitError::InvalidConfig { .. })
            ));
            assert!(matches!(
                LinearTransient::new(&nl, dt),
                Err(CircuitError::InvalidConfig { .. })
            ));
        }
    }
}
