//! Transient analysis with switch-event co-simulation.
//!
//! Capacitors are replaced by their companion models (backward Euler or
//! trapezoidal) and the resulting resistive circuit is solved per time step
//! with the same Newton engine as the DC analysis. The simulation object
//! borrows the netlist per step, so a digital controller can flip switches
//! or retarget sources between steps — this is how the SAR conversion loop
//! and the SymBIST stimulus drive the analog core.
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
//! let opts = TransientOptions { dt: 1e-8, use_ic: true, ..Default::default() };
//! let mut sim = TransientSim::new(&nl, opts)?;
//! while sim.time() < 1e-6 {
//!     sim.step(&nl)?;
//! }
//! let v = sim.voltage(out);
//! assert!((v - (1.0 - (-1.0f64).exp())).abs() < 5e-3);
//! # Ok::<(), symbist_circuit::error::CircuitError>(())
//! ```

use crate::dc::{charge_newton_iteration, DcSolver, Operating, GMIN, MAX_ITER};
use crate::error::CircuitError;
use crate::mna::{Assembler, AssemblyCtx, CapCompanion, MnaEngine, Thermal, T_NOMINAL_K};
use crate::netlist::{Device, DeviceId, Netlist, NodeId};
use crate::waveform::{Trace, TraceSet};

/// Numerical integration method for capacitors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// Backward Euler: L-stable, first order, damps switching ringing —
    /// the default for switched-capacitor work.
    #[default]
    BackwardEuler,
    /// Trapezoidal: second order, energy preserving.
    Trapezoidal,
}

/// Transient analysis options.
#[derive(Debug, Clone)]
pub struct TransientOptions {
    /// Fixed time step in seconds.
    pub dt: f64,
    /// Integration method.
    pub integrator: Integrator,
    /// When `true`, capacitors with an `ic` start from it instead of the DC
    /// operating point.
    pub use_ic: bool,
}

impl Default for TransientOptions {
    fn default() -> Self {
        Self {
            dt: 1e-10,
            integrator: Integrator::default(),
            use_ic: false,
        }
    }
}

/// Per-capacitor dynamic state.
#[derive(Debug, Clone, Copy)]
struct CapState {
    v_prev: f64,
    i_prev: f64,
}

/// A running transient simulation.
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
    integrator: Integrator,
    cap_state: Vec<Option<CapState>>,
    companions: Vec<Option<CapCompanion>>,
    device_count: usize,
    /// Trapezoidal needs a consistent capacitor current to start from; the
    /// first step is always taken with backward Euler to provide one.
    first_step: bool,
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
        let mut cap_state = vec![None; netlist.device_count()];
        for (id, dev) in netlist.iter() {
            if let Device::Capacitor { a, b, ic, .. } = dev {
                let v0 = match (options.use_ic, ic) {
                    (true, Some(v)) => *v,
                    _ => op.voltage(*a) - op.voltage(*b),
                };
                cap_state[id.index()] = Some(CapState {
                    v_prev: v0,
                    i_prev: 0.0,
                });
            }
        }
        let device_count = netlist.device_count();
        Ok(Self {
            x: op.raw().to_vec(),
            asm,
            solver,
            time: 0.0,
            dt: options.dt,
            integrator: options.integrator,
            cap_state,
            companions: vec![None; device_count],
            device_count,
            first_step: true,
            steps_taken: 0,
        })
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Current time step.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Changes the time step for subsequent steps.
    ///
    /// # Errors
    ///
    /// Returns an error if `dt` is not strictly positive.
    pub fn set_dt(&mut self, dt: f64) -> Result<(), CircuitError> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(CircuitError::InvalidConfig {
                reason: format!("time step must be > 0, got {dt}"),
            });
        }
        self.dt = dt;
        Ok(())
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

    /// Differential voltage `v(a) − v(b)` at the current time.
    pub fn differential(&self, a: NodeId, b: NodeId) -> f64 {
        self.voltage(a) - self.voltage(b)
    }

    /// Branch current of a voltage-defined device at the current time.
    ///
    /// # Panics
    ///
    /// Panics if the device has no branch current.
    pub fn branch_current(&self, id: DeviceId) -> f64 {
        self.x[self.asm.layout().branch_index(id)]
    }

    /// A snapshot of the current solution as an [`Operating`] point.
    pub fn operating(&self) -> Operating {
        Operating {
            x: self.x.clone(),
            node_count: self.asm.layout().node_count,
            branch_of: self.asm.layout().branch_of.clone(),
        }
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
                let st = self.cap_state[id.index()].expect("capacitor state missing");
                let integrator = if self.first_step {
                    // Startup: i_prev is not yet consistent; BE ignores it.
                    Integrator::BackwardEuler
                } else {
                    self.integrator
                };
                let comp = match integrator {
                    Integrator::BackwardEuler => {
                        let g = farads / self.dt;
                        CapCompanion {
                            g,
                            ieq: g * st.v_prev,
                        }
                    }
                    Integrator::Trapezoidal => {
                        let g = 2.0 * farads / self.dt;
                        CapCompanion {
                            g,
                            ieq: g * st.v_prev + st.i_prev,
                        }
                    }
                };
                self.companions[id.index()] = Some(comp);
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
            return Err(CircuitError::NoConvergence {
                analysis: "transient step",
                iterations: MAX_ITER,
            });
        }

        // Update capacitor states from the solved step.
        for (id, dev) in netlist.iter() {
            if let Device::Capacitor { a, b, .. } = dev {
                let comp = self.companions[id.index()].expect("companion missing");
                let v = self.node_v(*a) - self.node_v(*b);
                let i = comp.g * v - comp.ieq;
                self.cap_state[id.index()] = Some(CapState {
                    v_prev: v,
                    i_prev: i,
                });
            }
        }
        self.time = t_next;
        self.first_step = false;
        self.steps_taken += 1;
        Ok(())
    }

    fn node_v(&self, n: NodeId) -> f64 {
        match self.asm.layout().node_index(n) {
            None => 0.0,
            Some(i) => self.x[i],
        }
    }

    /// Runs until `t_end`, recording the given probes at every step.
    ///
    /// # Errors
    ///
    /// Propagates step failures.
    pub fn run_until(
        &mut self,
        netlist: &Netlist,
        t_end: f64,
        probes: &[(&str, NodeId)],
    ) -> Result<TraceSet, CircuitError> {
        let mut traces: Vec<Trace> = probes.iter().map(|(name, _)| Trace::new(*name)).collect();
        for (trace, (_, node)) in traces.iter_mut().zip(probes) {
            trace.push(self.time, self.voltage(*node));
        }
        while self.time < t_end - 0.5 * self.dt {
            self.step(netlist)?;
            for (trace, (_, node)) in traces.iter_mut().zip(probes) {
                trace.push(self.time, self.voltage(*node));
            }
        }
        let mut set = TraceSet::new();
        for t in traces {
            set.insert(t);
        }
        Ok(set)
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
/// The maps come from one dense LU factorization of `A` and one back-solve
/// per capacitor and per source, and are rebuilt only when a linear device
/// value changed since the previous step. A step is then a
/// `k × (k + n_src)` mat-vec over the capacitor voltages; node voltages
/// are evaluated on demand from the last step's `(s, u)`.
///
/// The contract is [`TransientSim`]'s under backward Euler with default
/// options: the same DC starting point and errors, one Newton iteration
/// charged to the thread [`crate::dc::SolveBudget`] per step, and the same
/// step counter. Between steps a controller may flip switches and change
/// device or source values; the device list and its connections must stay
/// fixed. `TransientSim` remains the general engine (nonlinear devices,
/// trapezoidal integration, `use_ic`, variable `dt`) and this type's
/// differential oracle.
///
/// # Examples
///
/// ```
/// use symbist_circuit::netlist::{Netlist, SourceWave};
/// use symbist_circuit::transient::LinearTransient;
/// use symbist_circuit::Device;
///
/// // Starts at the 0 V operating point, then the source steps to 1 V:
/// // RC charging through 1 kΩ into 1 nF (τ = 1 µs).
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
/// while sim.time() < 1e-6 {
///     sim.step(&nl)?;
/// }
/// assert!((sim.voltage(out) - (1.0 - (-1.0f64).exp())).abs() < 5e-3);
/// # Ok::<(), symbist_circuit::error::CircuitError>(())
/// ```
#[derive(Debug)]
pub struct LinearTransient {
    asm: Assembler,
    dt: f64,
    time: f64,
    /// MNA indices of each capacitor's terminals (`None` for ground), in
    /// device order.
    caps: Vec<(Option<usize>, Option<usize>)>,
    /// Per-device linear value the maps were built from (one per device,
    /// so its length is the device count the sim was built for).
    fingerprint: Vec<f64>,
    /// Set when a linear value changed and the maps are not yet rebuilt.
    stale: bool,
    /// `[Ks | Hs]`, row-major, `k × (k + n_src)`.
    state_map: Vec<f64>,
    /// `[Kx | Hx]`, row-major, `dim × (k + n_src)`.
    solution_map: Vec<f64>,
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

/// The value through which a device enters the MNA matrix; a change means
/// the step maps are stale. Sources only enter the right-hand side.
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

fn nonlinear_device(id: DeviceId) -> CircuitError {
    CircuitError::InvalidConfig {
        reason: format!("linear transient cannot step nonlinear device {id:?}"),
    }
}

/// How [`TransientSim::step`] reports a failed linear step.
fn step_failed() -> CircuitError {
    CircuitError::NoConvergence {
        analysis: "transient step",
        iterations: MAX_ITER,
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
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
        if !(dt.is_finite() && dt > 0.0) {
            return Err(CircuitError::InvalidConfig {
                reason: format!("time step must be > 0, got {dt}"),
            });
        }
        if let Some((id, _)) = netlist.iter().find(|(_, d)| d.is_nonlinear()) {
            return Err(nonlinear_device(id));
        }
        let op = DcSolver::new().solve(netlist)?;
        let asm = Assembler::new(netlist);
        let caps: Vec<_> = netlist
            .iter()
            .filter_map(|(_, dev)| match dev {
                Device::Capacitor { a, b, .. } => {
                    Some((asm.layout.node_index(*a), asm.layout.node_index(*b)))
                }
                _ => None,
            })
            .collect();
        let n_src = netlist
            .iter()
            .filter(|(_, d)| matches!(d, Device::VSource { .. } | Device::ISource { .. }))
            .count();
        let x = op.raw().to_vec();
        let at = |i: Option<usize>| i.map_or(0.0, |i| x[i]);
        let s: Vec<f64> = caps.iter().map(|&(a, b)| at(a) - at(b)).collect();
        let width = caps.len() + n_src;
        Ok(Self {
            dt,
            time: 0.0,
            fingerprint: vec![f64::NAN; netlist.device_count()],
            stale: true,
            state_map: vec![0.0; caps.len() * width],
            solution_map: vec![0.0; asm.layout.dim * width],
            u: vec![0.0; n_src],
            z: vec![0.0; width],
            s,
            caps,
            asm,
            initial: Some(x),
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
            n.index() < self.asm.layout.node_count,
            "node {n} out of range"
        );
        let i = n.index() - 1;
        match &self.initial {
            Some(x) => x[i],
            None => {
                let w = self.z.len();
                dot(&self.solution_map[i * w..(i + 1) * w], &self.z)
            }
        }
    }

    /// Advances one time step.
    ///
    /// The caller may have flipped switches or changed device and source
    /// values in `netlist` since the previous call; the step maps are
    /// rebuilt only if a matrix value changed.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::BudgetExhausted`] when the thread budget
    /// runs out, [`CircuitError::NoConvergence`] when the step matrix is
    /// singular or the step leaves non-finite values (as
    /// [`TransientSim::step`] reports a failed linear step), and
    /// [`CircuitError::InvalidConfig`] if a device became nonlinear.
    ///
    /// # Panics
    ///
    /// Panics if the netlist's device count changed since construction.
    pub fn step(&mut self, netlist: &Netlist) -> Result<(), CircuitError> {
        assert_eq!(
            netlist.device_count(),
            self.fingerprint.len(),
            "netlist topology changed mid-simulation"
        );
        let t_next = self.time + self.dt;
        self.read_devices(netlist, t_next)?;
        charge_newton_iteration()?;
        if self.stale {
            self.rebuild(netlist, t_next)?;
        }
        let k = self.s.len();
        self.z[..k].copy_from_slice(&self.s);
        self.z[k..].copy_from_slice(&self.u);
        let w = self.z.len();
        for (s, row) in self.s.iter_mut().zip(self.state_map.chunks_exact(w)) {
            *s = dot(row, &self.z);
        }
        if !self.s.iter().all(|v| v.is_finite()) {
            return Err(step_failed());
        }
        self.initial = None;
        self.time = t_next;
        self.steps_taken += 1;
        Ok(())
    }

    /// Reads the source values at `t_next` and marks the maps stale if a
    /// matrix value changed.
    fn read_devices(&mut self, netlist: &Netlist, t_next: f64) -> Result<(), CircuitError> {
        let mut src = 0;
        for ((id, dev), seen) in netlist.iter().zip(self.fingerprint.iter_mut()) {
            let v = match dev {
                Device::VSource { wave, .. } | Device::ISource { wave, .. } => {
                    self.u[src] = wave.at(t_next);
                    src += 1;
                    continue;
                }
                Device::Diode { .. } | Device::Mosfet { .. } => return Err(nonlinear_device(id)),
                other => linear_value(other),
            };
            if seen.to_bits() != v.to_bits() {
                *seen = v;
                self.stale = true;
            }
        }
        Ok(())
    }

    /// Factors the step matrix with the current device values and solves
    /// one column of `[Kx | Hx]` per capacitor, then per source.
    fn rebuild(&mut self, netlist: &Netlist, t_next: f64) -> Result<(), CircuitError> {
        let companions: Vec<Option<CapCompanion>> = netlist
            .iter()
            .map(|(_, dev)| match dev {
                Device::Capacitor { farads, .. } => Some(CapCompanion {
                    g: farads / self.dt,
                    ieq: 0.0,
                }),
                _ => None,
            })
            .collect();
        let ctx = AssemblyCtx {
            time: t_next,
            source_scale: 0.0,
            gmin: GMIN,
            guess: &[],
            cap_companion: &companions,
            // Only diodes and MOSFETs depend on temperature.
            thermal: Thermal::new(T_NOMINAL_K),
        };
        self.asm.assemble(netlist, &ctx);
        let lu = self.asm.matrix.lu().map_err(|_| step_failed())?;

        let layout = &self.asm.layout;
        let w = self.z.len();
        let mut rhs = vec![0.0; layout.dim];
        let mut column = 0;
        let mut solve_column = |rhs: &mut Vec<f64>, map: &mut [f64]| {
            let x = lu.solve(rhs);
            for (r, v) in x.into_iter().enumerate() {
                map[r * w + column] = v;
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
                solve_column(&mut rhs, &mut self.solution_map);
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
            solve_column(&mut rhs, &mut self.solution_map);
        }

        let row = |i: Option<usize>| i.map(|i| &self.solution_map[i * w..(i + 1) * w]);
        for (&(a, b), out) in self.caps.iter().zip(self.state_map.chunks_exact_mut(w)) {
            for (c, o) in out.iter_mut().enumerate() {
                *o = row(a).map_or(0.0, |r| r[c]) - row(b).map_or(0.0, |r| r[c]);
            }
        }
        if !self.solution_map.iter().all(|v| v.is_finite()) {
            return Err(step_failed());
        }
        self.stale = false;
        Ok(())
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
                ..Default::default()
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
    fn rc_step_response_trapezoidal_more_accurate() {
        let run = |integrator: Integrator| {
            let mut nl = Netlist::new();
            let s = nl.node("s");
            let o = nl.node("o");
            nl.vsource(s, Netlist::GND, 1.0);
            nl.resistor(s, o, 1e3);
            nl.capacitor_with_ic(o, Netlist::GND, 1e-9, 0.0);
            let mut sim = TransientSim::new(
                &nl,
                TransientOptions {
                    dt: 2e-8,
                    integrator,
                    use_ic: true,
                },
            )
            .unwrap();
            while sim.time() < 1e-6 {
                sim.step(&nl).unwrap();
            }
            sim.voltage(o)
        };
        let expect = 1.0 - (-1.0f64).exp();
        let be_err = (run(Integrator::BackwardEuler) - expect).abs();
        let tr_err = (run(Integrator::Trapezoidal) - expect).abs();
        assert!(tr_err < be_err, "trap {tr_err} should beat BE {be_err}");
        assert!(tr_err < 1e-4);
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
                ..Default::default()
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
        let traces = sim
            .run_until(&nl, 4e-7, &[("s", nl.find_node("s").unwrap())])
            .unwrap();
        let tr = traces.trace("s").unwrap();
        assert!(tr.sample_at(5e-8) < 0.01);
        assert!(tr.sample_at(1.5e-7) > 0.99);
        assert!(tr.sample_at(3.5e-7) < 0.01);
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
                ..Default::default()
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

    #[test]
    fn invalid_dt_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor(a, Netlist::GND, 1e3);
        assert!(TransientSim::new(
            &nl,
            TransientOptions {
                dt: 0.0,
                ..Default::default()
            }
        )
        .is_err());
        let mut sim = TransientSim::new(&nl, TransientOptions::default()).unwrap();
        assert!(sim.set_dt(-1.0).is_err());
        assert!(sim.set_dt(1e-9).is_ok());
        for dt in [0.0, -1e-9, f64::NAN] {
            assert!(matches!(
                LinearTransient::new(&nl, dt),
                Err(CircuitError::InvalidConfig { .. })
            ));
        }
    }
}
