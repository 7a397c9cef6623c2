//! DC operating-point analysis.
//!
//! Solves the nonlinear MNA system `f(x) = 0` by damped Newton–Raphson.
//! When plain Newton fails to converge the solver falls back to gmin
//! stepping (start with a large conductance to ground everywhere, relax it
//! geometrically) and then to source stepping (ramp all independent sources
//! from zero), the same continuation strategies SPICE uses.
//!
//! # Examples
//!
//! ```
//! use symbist_circuit::netlist::Netlist;
//! use symbist_circuit::dc::DcSolver;
//!
//! let mut nl = Netlist::new();
//! let a = nl.node("a");
//! nl.vsource(a, Netlist::GND, 0.7);
//! // Diode to ground: nonlinear solve.
//! nl.diode(a, Netlist::GND, 1e-14, 1.0);
//! let op = DcSolver::new().solve(&nl)?;
//! assert!((op.voltage(a) - 0.7).abs() < 1e-9);
//! # Ok::<(), symbist_circuit::error::CircuitError>(())
//! ```

use crate::error::CircuitError;
use crate::mna::{AssemblyCtx, CapCompanion, MnaEngine};
use crate::netlist::{DeviceId, Netlist, NodeId};

/// Absolute node-voltage tolerance of the Newton convergence test, volts.
const VNTOL: f64 = 1e-9;
/// Relative tolerance of the Newton convergence test.
const RELTOL: f64 = 1e-9;
/// Maximum Newton iterations per solve attempt.
pub(crate) const MAX_ITER: usize = 200;
/// Baseline conductance to ground at every node.
pub(crate) const GMIN: f64 = 1e-12;
/// Largest per-iteration node-voltage update (damping).
const MAX_STEP: f64 = 1.0;
/// Number of gmin-stepping decades tried when plain Newton fails.
const GMIN_STEPS: usize = 10;
/// Number of source-stepping ramp points tried when gmin stepping fails.
const SOURCE_STEPS: usize = 20;

/// A per-thread bound on how much solver work one logical task may consume.
///
/// Installed per thread with [`set_thread_solve_budget`]: every Newton
/// iteration run on the thread — DC operating points, continuation stages,
/// transient steps, no matter how deeply buried inside higher-level models
/// — charges against it. When either resource runs out the innermost solve
/// returns [`CircuitError::BudgetExhausted`], which unwinds through
/// `?`-threaded call chains back to whoever installed the budget.
///
/// This is how the defect campaign keeps one pathological injected defect
/// (e.g. a short that sends gmin stepping into deep continuation) from
/// stalling a worker thread indefinitely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveBudget {
    /// Absolute wall-clock deadline. Checked once per Newton iteration, so
    /// enforcement granularity is one matrix assembly + factorization.
    pub deadline: Option<std::time::Instant>,
    /// Total Newton iterations allowed across every solve on the thread.
    /// Unlike the deadline this is deterministic: the same circuit and
    /// budget always fail (or pass) at the same iteration.
    pub newton_iters: Option<u64>,
}

impl SolveBudget {
    /// A budget with neither limit set (never exhausts).
    pub const UNLIMITED: SolveBudget = SolveBudget {
        deadline: None,
        newton_iters: None,
    };
}

thread_local! {
    static THREAD_BUDGET: std::cell::Cell<Option<SolveBudget>> =
        const { std::cell::Cell::new(None) };
}

/// Installs (or with `None` clears) the solve budget for the current thread
/// and returns the previous one — with `newton_iters` reflecting what was
/// still unspent, so budgets can be nested save/restore style.
pub fn set_thread_solve_budget(budget: Option<SolveBudget>) -> Option<SolveBudget> {
    THREAD_BUDGET.with(|b| b.replace(budget))
}

/// Charges one Newton iteration against the thread budget, if any.
pub(crate) fn charge_newton_iteration() -> Result<(), CircuitError> {
    THREAD_BUDGET.with(|b| {
        let Some(mut budget) = b.get() else {
            return Ok(());
        };
        if let Some(deadline) = budget.deadline {
            if std::time::Instant::now() >= deadline {
                return Err(CircuitError::BudgetExhausted {
                    resource: "deadline",
                });
            }
        }
        if let Some(iters) = budget.newton_iters {
            if iters == 0 {
                return Err(CircuitError::BudgetExhausted {
                    resource: "newton-iterations",
                });
            }
            budget.newton_iters = Some(iters - 1);
            b.set(Some(budget));
        }
        Ok(())
    })
}

/// Result of a DC (or single transient step) solve: the full MNA solution
/// with accessors by node.
#[derive(Debug, Clone)]
pub struct Operating {
    pub(crate) x: Vec<f64>,
    pub(crate) node_count: usize,
    pub(crate) branch_of: Vec<usize>,
}

impl Operating {
    /// Voltage of a node (0 for ground).
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the solved netlist.
    pub fn voltage(&self, n: NodeId) -> f64 {
        if n.is_ground() {
            return 0.0;
        }
        assert!(n.index() < self.node_count, "node {n} out of range");
        self.x[n.index() - 1]
    }

    /// Differential voltage `v(a) − v(b)`.
    pub fn differential(&self, a: NodeId, b: NodeId) -> f64 {
        self.voltage(a) - self.voltage(b)
    }

    /// Branch current of a voltage-defined device (V source or VCVS),
    /// positive flowing p → n *through* the device.
    ///
    /// # Panics
    ///
    /// Panics if the device has no branch current.
    pub fn branch_current(&self, id: DeviceId) -> f64 {
        let b = self.branch_of[id.index()];
        assert!(b != usize::MAX, "device {id:?} has no branch current");
        self.x[b]
    }

    /// The raw solution vector (node voltages then branch currents).
    pub fn raw(&self) -> &[f64] {
        &self.x
    }
}

/// DC solve options.
#[derive(Debug, Clone)]
pub struct DcOptions {
    /// Simulation temperature in °C. Device models are referenced to
    /// 300 K = 26.85 °C, which is also the default (so nominal solves are
    /// bit-identical to the temperature-unaware model).
    pub temperature_c: f64,
}

impl Default for DcOptions {
    fn default() -> Self {
        Self {
            temperature_c: 26.85,
        }
    }
}

/// DC operating-point solver.
#[derive(Debug, Clone, Default)]
pub struct DcSolver {
    options: DcOptions,
}

impl DcSolver {
    /// Creates a solver with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with explicit options.
    pub fn with_options(options: DcOptions) -> Self {
        Self { options }
    }

    /// Access to the options.
    pub fn options(&self) -> &DcOptions {
        &self.options
    }

    /// Solves the DC operating point.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Singular`] if the system matrix is singular
    /// even with gmin regularization, or [`CircuitError::NoConvergence`] if
    /// every continuation strategy fails.
    pub fn solve(&self, netlist: &Netlist) -> Result<Operating, CircuitError> {
        self.solve_from(netlist, None)
    }

    /// Solves the DC operating point starting from a previous solution
    /// (warm start), e.g. the previous point of a sweep.
    ///
    /// # Errors
    ///
    /// Same as [`DcSolver::solve`].
    pub fn solve_from(
        &self,
        netlist: &Netlist,
        initial: Option<&[f64]>,
    ) -> Result<Operating, CircuitError> {
        // Time the whole continuation ladder, not individual Newton
        // attempts: a solve that needed gmin stepping should show its
        // full cost in one histogram sample.
        let start = symbist_obs::enabled().then(std::time::Instant::now);
        let result = self.solve_from_inner(netlist, initial);
        if let Some(start) = start {
            symbist_obs::counter!(
                "symbist_solver_dc_solves_total",
                "DC operating-point solves (all continuation strategies included)"
            )
            .inc();
            symbist_obs::histogram!(
                "symbist_solver_dc_solve_seconds",
                "Wall time per DC operating-point solve",
                symbist_obs::SECONDS_EDGES
            )
            .record(start.elapsed().as_secs_f64());
        }
        result
    }

    fn solve_from_inner(
        &self,
        netlist: &Netlist,
        initial: Option<&[f64]>,
    ) -> Result<Operating, CircuitError> {
        let mut asm = MnaEngine::new(netlist);
        let dim = asm.layout().dim;
        let caps: Vec<Option<CapCompanion>> = vec![None; netlist.device_count()];
        let mut x = match initial {
            Some(x0) if x0.len() == dim => x0.to_vec(),
            _ => vec![0.0; dim],
        };

        // Strategy 1: plain Newton at nominal gmin.
        if self.newton(netlist, &mut asm, &mut x, 0.0, 1.0, GMIN, &caps)? {
            return Ok(self.finish(&asm, x));
        }

        // Strategy 2: gmin stepping — solve with a heavy shunt everywhere,
        // then relax geometrically, warm-starting each stage.
        let mut xg = vec![0.0; dim];
        let mut gmin = 1e-2;
        let mut ok = true;
        for _ in 0..=GMIN_STEPS {
            if !self.newton(netlist, &mut asm, &mut xg, 0.0, 1.0, gmin, &caps)? {
                ok = false;
                break;
            }
            if gmin <= GMIN {
                break;
            }
            gmin = (gmin * 0.1).max(GMIN);
        }
        if ok && gmin <= GMIN {
            return Ok(self.finish(&asm, xg));
        }

        // Strategy 3: source stepping — ramp all sources from 0 to 100%.
        let mut xs = vec![0.0; dim];
        let mut ok = true;
        for k in 1..=SOURCE_STEPS {
            let scale = k as f64 / SOURCE_STEPS as f64;
            if !self.newton(netlist, &mut asm, &mut xs, 0.0, scale, GMIN, &caps)? {
                ok = false;
                break;
            }
        }
        if ok {
            return Ok(self.finish(&asm, xs));
        }

        Err(CircuitError::NoConvergence {
            analysis: "dc operating point",
            iterations: MAX_ITER,
        })
    }

    /// One Newton solve at fixed (time, scale, gmin). Returns convergence.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn newton(
        &self,
        netlist: &Netlist,
        asm: &mut MnaEngine,
        x: &mut Vec<f64>,
        time: f64,
        source_scale: f64,
        gmin: f64,
        cap_companion: &[Option<CapCompanion>],
    ) -> Result<bool, CircuitError> {
        let linear = !netlist.has_nonlinear();
        let node_unknowns = asm.layout().node_count - 1;
        for iter in 0..MAX_ITER {
            charge_newton_iteration()?;
            // Progressive damping: halve the step cap every 50 iterations
            // to break Newton limit cycles on stiff feedback loops.
            let step_cap = MAX_STEP / f64::from(1 << (iter / 50).min(6) as u32);
            let ctx = AssemblyCtx {
                time,
                source_scale,
                gmin,
                guess: x,
                cap_companion,
                thermal: crate::mna::Thermal::new(self.options.temperature_c + 273.15),
            };
            // A singular iterate (e.g. every MOSFET in cutoff at a bad
            // guess) is a convergence failure, not a fatal topology error:
            // report non-convergence so the caller's continuation
            // strategies (gmin/source stepping) get their chance.
            let new_x = match asm.assemble_and_solve(netlist, &ctx) {
                Ok(x) => x,
                Err(_) => return Ok(false),
            };

            // Damped update with per-entry step limiting. Linear circuits
            // take the full Newton step — it is exact.
            let mut max_delta = 0.0f64;
            for i in 0..x.len() {
                let mut delta = new_x[i] - x[i];
                if !linear && delta.abs() > step_cap && i < node_unknowns {
                    delta = delta.signum() * step_cap;
                }
                x[i] += delta;
                if i < node_unknowns {
                    let tol = VNTOL + RELTOL * x[i].abs();
                    if delta.abs() > tol {
                        max_delta = max_delta.max(delta.abs() / tol);
                    }
                }
            }
            if !x.iter().all(|v| v.is_finite()) {
                return Ok(false);
            }
            if linear || max_delta == 0.0 {
                asm.note_newton(iter as u64 + 1);
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn finish(&self, asm: &MnaEngine, x: Vec<f64>) -> Operating {
        Operating {
            x,
            node_count: asm.layout().node_count,
            branch_of: asm.layout().branch_of.clone(),
        }
    }
}

/// DC sweep: repeatedly re-solve while varying one source.
///
/// # Examples
///
/// ```
/// use symbist_circuit::netlist::Netlist;
/// use symbist_circuit::dc::sweep_vsource;
///
/// let mut nl = Netlist::new();
/// let a = nl.node("a");
/// let src = nl.vsource(a, Netlist::GND, 0.0);
/// nl.resistor(a, Netlist::GND, 1000.0);
/// let pts = sweep_vsource(&mut nl, src, 0.0, 1.0, 5)?;
/// assert_eq!(pts.len(), 5);
/// assert!((pts[4].0 - 1.0).abs() < 1e-12);
/// # Ok::<(), symbist_circuit::error::CircuitError>(())
/// ```
///
/// # Errors
///
/// Propagates solver failures from any sweep point.
///
/// # Panics
///
/// Panics if `points < 2`, or if `source` is not a voltage source.
pub fn sweep_vsource(
    netlist: &mut Netlist,
    source: DeviceId,
    from: f64,
    to: f64,
    points: usize,
) -> Result<Vec<(f64, Operating)>, CircuitError> {
    assert!(points >= 2, "a sweep needs at least 2 points");
    let solver = DcSolver::new();
    let mut out = Vec::with_capacity(points);
    let mut warm: Option<Vec<f64>> = None;
    for k in 0..points {
        let v = from + (to - from) * k as f64 / (points - 1) as f64;
        match netlist.device_mut(source) {
            crate::netlist::Device::VSource { wave, .. } => {
                *wave = crate::netlist::SourceWave::Dc(v);
            }
            other => panic!("sweep target is not a voltage source: {other:?}"),
        }
        let op = solver.solve_from(netlist, warm.as_deref())?;
        warm = Some(op.x.clone());
        out.push((v, op));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{MosPolarity, Netlist};

    #[test]
    fn divider() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource(a, Netlist::GND, 3.0);
        nl.resistor(a, b, 2000.0);
        nl.resistor(b, Netlist::GND, 1000.0);
        let op = DcSolver::new().solve(&nl).unwrap();
        assert!((op.voltage(b) - 1.0).abs() < 1e-9);
        assert!((op.differential(a, b) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn wheatstone_bridge_balanced() {
        let mut nl = Netlist::new();
        let top = nl.node("top");
        let l = nl.node("l");
        let r = nl.node("r");
        nl.vsource(top, Netlist::GND, 5.0);
        nl.resistor(top, l, 1000.0);
        nl.resistor(top, r, 1000.0);
        nl.resistor(l, Netlist::GND, 2000.0);
        nl.resistor(r, Netlist::GND, 2000.0);
        nl.resistor(l, r, 500.0); // bridge; no current when balanced
        let op = DcSolver::new().solve(&nl).unwrap();
        assert!((op.voltage(l) - op.voltage(r)).abs() < 1e-9);
    }

    #[test]
    fn diode_drop() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let k = nl.node("k");
        nl.vsource(a, Netlist::GND, 5.0);
        nl.resistor(a, k, 1000.0);
        nl.diode(k, Netlist::GND, 1e-14, 1.0);
        let op = DcSolver::new().solve(&nl).unwrap();
        let vk = op.voltage(k);
        // Forward drop in the 0.6–0.8 V range at ~4.3 mA.
        assert!((0.6..0.85).contains(&vk), "v(k) = {vk}");
        // KCL consistency: resistor current equals diode current.
        let i_r = (5.0 - vk) / 1000.0;
        let i_d = 1e-14 * ((vk / 0.025852).exp() - 1.0);
        assert!((i_r - i_d).abs() / i_r < 1e-6);
    }

    #[test]
    fn nmos_common_source() {
        // NMOS with drain resistor: check saturation solution.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let g = nl.node("g");
        let d = nl.node("d");
        nl.vsource(vdd, Netlist::GND, 3.0);
        nl.vsource(g, Netlist::GND, 1.0);
        nl.resistor(vdd, d, 10_000.0);
        nl.mosfet(d, g, Netlist::GND, MosPolarity::Nmos, 0.5, 2e-4, 0.0);
        let op = DcSolver::new().solve(&nl).unwrap();
        // ids = 0.5·2e-4·(0.5)² = 25 µA; vd = 3 − 0.25 = 2.75 (saturation
        // holds since vds = 2.75 > vov = 0.5).
        assert!(
            (op.voltage(d) - 2.75).abs() < 1e-6,
            "v(d) = {}",
            op.voltage(d)
        );
    }

    #[test]
    fn pmos_common_source() {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let g = nl.node("g");
        let d = nl.node("d");
        nl.vsource(vdd, Netlist::GND, 3.0);
        nl.vsource(g, Netlist::GND, 2.0); // vsg = 1 V
        nl.resistor(d, Netlist::GND, 10_000.0);
        nl.mosfet(d, g, vdd, MosPolarity::Pmos, 0.5, 2e-4, 0.0);
        let op = DcSolver::new().solve(&nl).unwrap();
        // |ids| = 25 µA into the resistor: vd = 0.25 V.
        assert!(
            (op.voltage(d) - 0.25).abs() < 1e-6,
            "v(d) = {}",
            op.voltage(d)
        );
    }

    #[test]
    fn cmos_inverter_transfer() {
        // NMOS+PMOS inverter: low in → high out, high in → low out.
        let build = |vin: f64| {
            let mut nl = Netlist::new();
            let vdd = nl.node("vdd");
            let g = nl.node("g");
            let o = nl.node("o");
            nl.vsource(vdd, Netlist::GND, 1.2);
            nl.vsource(g, Netlist::GND, vin);
            nl.mosfet(o, g, Netlist::GND, MosPolarity::Nmos, 0.4, 4e-4, 0.05);
            nl.mosfet(o, g, vdd, MosPolarity::Pmos, 0.4, 4e-4, 0.05);
            nl
        };
        let lo = DcSolver::new().solve(&build(0.0)).unwrap();
        let hi = DcSolver::new().solve(&build(1.2)).unwrap();
        let out = crate::netlist::NodeId(3); // nodes: vdd=1, g=2, o=3
        let o_lo = lo.voltage(out);
        let o_hi = hi.voltage(out);
        assert!(o_lo > 1.1, "inverter out for low in: {o_lo}");
        assert!(o_hi < 0.1, "inverter out for high in: {o_hi}");
    }

    #[test]
    fn floating_node_regularized_by_gmin() {
        // A node connected only through a capacitor would be singular in DC
        // without gmin.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let f = nl.node("f");
        nl.vsource(a, Netlist::GND, 1.0);
        nl.capacitor(a, f, 1e-12);
        let op = DcSolver::new().solve(&nl).unwrap();
        assert!(op.voltage(f).abs() < 1e-6);
    }

    #[test]
    fn warm_start_sweep() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let k = nl.node("k");
        let src = nl.vsource(a, Netlist::GND, 0.0);
        nl.resistor(a, k, 100.0);
        nl.diode(k, Netlist::GND, 1e-14, 1.0);
        let pts = sweep_vsource(&mut nl, src, 0.0, 2.0, 11).unwrap();
        // Diode clamp: output monotone, saturating near 0.75 V.
        let volts: Vec<f64> = pts.iter().map(|(_, op)| op.voltage(k)).collect();
        assert!(volts.windows(2).all(|w| w[1] >= w[0] - 1e-12));
        assert!(volts[10] < 0.9);
    }

    #[test]
    fn current_mirror() {
        // Two matched NMOS: reference current mirrored into a load.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let ref_n = nl.node("ref");
        let out = nl.node("out");
        nl.vsource(vdd, Netlist::GND, 3.0);
        // 100 µA reference pushed into the diode-connected device.
        nl.isource(vdd, ref_n, 1e-4);
        nl.mosfet(
            ref_n,
            ref_n,
            Netlist::GND,
            MosPolarity::Nmos,
            0.5,
            4e-4,
            0.0,
        );
        nl.mosfet(out, ref_n, Netlist::GND, MosPolarity::Nmos, 0.5, 4e-4, 0.0);
        nl.resistor(vdd, out, 5_000.0);
        let op = DcSolver::new().solve(&nl).unwrap();
        // Mirrored 100 µA through 5k: v(out) = 3 − 0.5 = 2.5 V.
        assert!(
            (op.voltage(out) - 2.5).abs() < 0.01,
            "v(out) = {}",
            op.voltage(out)
        );
    }

    fn diode_clamp_netlist() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let k = nl.node("k");
        nl.vsource(a, Netlist::GND, 2.0);
        nl.resistor(a, k, 100.0);
        nl.diode(k, Netlist::GND, 1e-14, 1.0);
        nl
    }

    #[test]
    fn newton_budget_exhausts_deterministically() {
        let nl = diode_clamp_netlist();
        // A single iteration can never converge this nonlinear circuit.
        let prev = set_thread_solve_budget(Some(SolveBudget {
            deadline: None,
            newton_iters: Some(1),
        }));
        let starved = DcSolver::new().solve(&nl);
        set_thread_solve_budget(prev);
        assert_eq!(
            starved.unwrap_err(),
            CircuitError::BudgetExhausted {
                resource: "newton-iterations"
            }
        );
        // With the budget cleared the same circuit solves fine.
        assert!(DcSolver::new().solve(&nl).is_ok());
    }

    #[test]
    fn expired_deadline_fails_immediately() {
        let nl = diode_clamp_netlist();
        let prev = set_thread_solve_budget(Some(SolveBudget {
            deadline: Some(std::time::Instant::now()),
            newton_iters: None,
        }));
        let starved = DcSolver::new().solve(&nl);
        set_thread_solve_budget(prev);
        assert_eq!(
            starved.unwrap_err(),
            CircuitError::BudgetExhausted {
                resource: "deadline"
            }
        );
    }

    #[test]
    fn generous_budget_does_not_interfere() {
        let nl = diode_clamp_netlist();
        let prev = set_thread_solve_budget(Some(SolveBudget {
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(60)),
            newton_iters: Some(100_000),
        }));
        let op = DcSolver::new().solve(&nl);
        let spent = set_thread_solve_budget(prev).unwrap();
        assert!(op.is_ok());
        // The returned budget reflects what was actually consumed.
        assert!(spent.newton_iters.unwrap() < 100_000);
    }

    #[test]
    fn unlimited_budget_never_exhausts() {
        let nl = diode_clamp_netlist();
        let prev = set_thread_solve_budget(Some(SolveBudget::UNLIMITED));
        let op = DcSolver::new().solve(&nl);
        set_thread_solve_budget(prev);
        assert!(op.is_ok());
    }
}
