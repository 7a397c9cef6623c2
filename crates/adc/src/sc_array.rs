//! Switched-capacitor array (Fig. 4): sample-and-hold plus charge-domain
//! combination of the sub-DAC levels into the comparator inputs DAC+/DAC−.
//!
//! Per side, a main capacitor of 32 units and an interpolation capacitor of
//! 1 unit share a top plate. During sampling the bottom plates connect to
//! the input and the top plate to `Vcm`; during conversion the bottom
//! plates are switched to `M±` and `L±`. Charge conservation then gives
//!
//! ```text
//! DAC± = Vcm + (32·M± + L±)/33 − IN±
//! DAC+ + DAC− = 2·Vcm + VREF[32] − (IN+ + IN−)   (invariance I3, Eq. 3)
//! ```
//!
//! Each side is a linear netlist stepped in time with backward Euler —
//! switches have finite on-resistance, so code changes produce the settling
//! glitches visible in the paper's Fig. 5, and defects (stuck switches,
//! floating bottom plates, shorted capacitors) need no special-case
//! algebra. Within a switch phase a side's step is a fixed affine map over
//! its capacitor voltages, so [`LinearTransient`] factors it once per phase.
//! A session ([`ScSession`]) writes the clock cycle once, side by side;
//! each side's run of steps in it is folded into one affine map, or, when
//! the session records waveforms, stepped one time step at a time. The
//! defect-free array shares its phase maps and their folds across clones
//! ([`StepMaps`]). `TransientSim` on the same side circuits is the tests'
//! oracle.

use std::sync::{Arc, OnceLock};

use symbist_circuit::error::CircuitError;
use symbist_circuit::netlist::{Device, DeviceId, Netlist, NodeId, SourceWave};
use symbist_circuit::transient::{LinearTransient, StepMaps};
use symbist_circuit::waveform::Trace;

use crate::config::AdcConfig;
use crate::fault::{BlockKind, ComponentInfo, ComponentKind, DefectKind};

/// Steps the transient solver takes per clock cycle.
const STEPS_PER_CYCLE: usize = 48;

/// The two differential sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Positive half (produces DAC+).
    P,
    /// Negative half (produces DAC−).
    N,
}

/// Per-side component roles, in catalog order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    CMain,
    CInterp,
    SwSampleMain,
    SwConvMain,
    SwSampleInterp,
    SwConvInterp,
    SwCm,
}

const ROLES: [Role; 7] = [
    Role::CMain,
    Role::CInterp,
    Role::SwSampleMain,
    Role::SwConvMain,
    Role::SwSampleInterp,
    Role::SwConvInterp,
    Role::SwCm,
];

/// Components per side.
const PER_SIDE: usize = ROLES.len();
/// Total SC-array components.
pub(crate) const SC_COMPONENTS: usize = 2 * PER_SIDE;

/// Mismatch knobs (relative capacitor errors per side).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScMismatch {
    /// Main cap error, P side.
    pub cm_p: f64,
    /// Interp cap error, P side.
    pub cl_p: f64,
    /// Main cap error, N side.
    pub cm_n: f64,
    /// Interp cap error, N side.
    pub cl_n: f64,
}

/// Sub-DAC levels driven into one side for one code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SideLevels {
    /// M± level.
    pub m: f64,
    /// L± level.
    pub l: f64,
}

/// The SC array block.
#[derive(Debug, Clone)]
pub struct ScArray {
    cfg: AdcConfig,
    defect: Option<(usize, DefectKind)>,
    mismatch: ScMismatch,
    /// The step maps of the defect-free array at this mismatch, built on
    /// first use and shared by every clone (`None` inside when they do not
    /// build). A session of a defect-free instance uses them; one carrying
    /// a defect builds its own. [`ScArray::set_mismatch`] starts a fresh
    /// one.
    maps: Arc<OnceLock<Option<ArrayMaps>>>,
}

/// Per side (P, N), the sampling- and conversion-phase step maps, with the
/// folds a session that does not record uses.
pub(crate) type ArrayMaps = [[Arc<StepMaps>; 2]; 2];

/// How a switch site behaves after defect mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SwBehavior {
    /// Normal toggled switch with this on-resistance.
    Normal { ron: f64 },
    /// Permanently conducting with this resistance.
    StuckOn { r: f64 },
    /// Never conducts.
    StuckOff,
    /// Normal but with a permanent resistive load from terminal `a` to
    /// ground (gate-short control leakage).
    NormalLoaded { ron: f64, load_r: f64 },
    /// Terminal detached: the device connects through a floating internal
    /// node with a weak pull to ground.
    SeriesOpen,
}

/// Built netlist for one side plus the handles needed to drive it.
#[derive(Debug)]
struct SideCircuit {
    nl: Netlist,
    top: NodeId,
    src_m: DeviceId,
    src_l: DeviceId,
    sw_sample_main: Option<DeviceId>,
    sw_conv_main: Option<DeviceId>,
    sw_sample_interp: Option<DeviceId>,
    sw_conv_interp: Option<DeviceId>,
    sw_cm: Option<DeviceId>,
}

impl SideCircuit {
    fn set_source(&mut self, id: DeviceId, value: f64) {
        match self.nl.device_mut(id) {
            Device::VSource { wave, .. } => *wave = SourceWave::Dc(value),
            _ => unreachable!("source handle is always a VSource"),
        }
    }

    fn set_levels(&mut self, lv: SideLevels) {
        self.set_source(self.src_m, lv.m);
        self.set_source(self.src_l, lv.l);
    }

    fn set_phase(&mut self, sampling: bool) {
        let assign = [
            (self.sw_sample_main, sampling),
            (self.sw_sample_interp, sampling),
            (self.sw_cm, sampling),
            (self.sw_conv_main, !sampling),
            (self.sw_conv_interp, !sampling),
        ];
        for (sw, closed) in assign {
            if let Some(id) = sw {
                self.nl.set_switch(id, closed);
            }
        }
    }
}

impl ScArray {
    /// Creates a defect-free SC array.
    pub fn new(cfg: &AdcConfig) -> Self {
        Self {
            cfg: cfg.clone(),
            defect: None,
            mismatch: ScMismatch::default(),
            maps: Arc::default(),
        }
    }

    /// Builds the local component catalog (P side then N side).
    pub(crate) fn catalog(&self) -> Vec<ComponentInfo> {
        let mut components = Vec::with_capacity(SC_COMPONENTS);
        for side in ["p", "n"] {
            for role in ROLES {
                let (name, kind, area) = match role {
                    Role::CMain => ("c_main", ComponentKind::Capacitor, 32.0 * 6.0),
                    Role::CInterp => ("c_interp", ComponentKind::Capacitor, 6.0),
                    Role::SwSampleMain => ("sw_sample_main", ComponentKind::Mosfet, 1.5),
                    Role::SwConvMain => ("sw_conv_main", ComponentKind::Mosfet, 1.5),
                    Role::SwSampleInterp => ("sw_sample_interp", ComponentKind::Mosfet, 1.0),
                    Role::SwConvInterp => ("sw_conv_interp", ComponentKind::Mosfet, 1.0),
                    Role::SwCm => ("sw_cm", ComponentKind::Mosfet, 1.0),
                };
                components.push(ComponentInfo {
                    block: BlockKind::ScArray,
                    name: format!("scarray/{side}/{name}"),
                    kind,
                    area,
                });
            }
        }
        components
    }

    /// Sets or clears the defect. The shared defect-free maps stay: they
    /// depend on the mismatch only.
    pub(crate) fn set_defect(&mut self, defect: Option<(usize, DefectKind)>) {
        self.defect = defect;
    }

    /// Sets the mismatch sample.
    pub fn set_mismatch(&mut self, m: ScMismatch) {
        self.mismatch = m;
        self.maps = Arc::default();
    }

    /// The solver time step: [`STEPS_PER_CYCLE`] per clock cycle.
    fn dt(&self) -> f64 {
        self.cfg.clock_period() / STEPS_PER_CYCLE as f64
    }

    /// The defect-free array's step maps, built on first use. Sources are
    /// not in the maps, so the sides are built with any input.
    fn shared_maps(&self) -> Option<&ArrayMaps> {
        self.maps
            .get_or_init(|| {
                let mut healthy = self.clone();
                healthy.defect = None;
                let side = |side| -> Result<[Arc<StepMaps>; 2], CircuitError> {
                    let mut circuit = healthy.build_side(side, 0.0, 0.0);
                    let mut phase = |sampling: bool, runs: &[usize]| {
                        circuit.set_phase(sampling);
                        let mut maps = StepMaps::build(&circuit.nl, healthy.dt())?;
                        for &n in runs {
                            maps.prepare(n);
                        }
                        Ok::<_, CircuitError>(Arc::new(maps))
                    };
                    Ok([
                        phase(true, &[STEPS_PER_CYCLE])?,
                        phase(false, &[STEPS_PER_CYCLE, STEPS_PER_CYCLE - 1])?,
                    ])
                };
                Some([side(Side::P).ok()?, side(Side::N).ok()?])
            })
            .as_ref()
    }

    fn defect_for(&self, side: Side, role: Role) -> Option<DefectKind> {
        let base = match side {
            Side::P => 0,
            Side::N => PER_SIDE,
        };
        let role_idx = ROLES
            .iter()
            .position(|r| *r == role)
            .expect("role is a member of ROLES");
        match self.defect {
            Some((idx, kind)) if idx == base + role_idx => Some(kind),
            _ => None,
        }
    }

    fn switch_behavior(&self, side: Side, role: Role) -> SwBehavior {
        let ron = self.cfg.switch_ron;
        match self.defect_for(side, role) {
            None => SwBehavior::Normal { ron },
            Some(DefectKind::ShortDs) => SwBehavior::StuckOn {
                r: self.cfg.defect_rshort,
            },
            Some(DefectKind::ShortGd) | Some(DefectKind::ShortGs) => SwBehavior::NormalLoaded {
                ron: 2.0 * ron,
                load_r: 2_000.0,
            },
            Some(DefectKind::OpenGate) => SwBehavior::StuckOff,
            Some(DefectKind::OpenDrain) | Some(DefectKind::OpenSource) => SwBehavior::SeriesOpen,
            Some(other) => panic!("defect {other} not applicable to an SC switch"),
        }
    }

    /// Emits one switch site; returns a toggle handle when the site still
    /// responds to the phase control.
    fn emit_switch(
        &self,
        nl: &mut Netlist,
        a: NodeId,
        b: NodeId,
        side: Side,
        role: Role,
    ) -> Option<DeviceId> {
        let roff = self.cfg.switch_roff;
        match self.switch_behavior(side, role) {
            SwBehavior::Normal { ron } => Some(nl.switch(a, b, ron, roff)),
            SwBehavior::StuckOn { r } => {
                nl.resistor(a, b, r);
                None
            }
            SwBehavior::StuckOff => {
                nl.resistor(a, b, roff);
                None
            }
            SwBehavior::NormalLoaded { ron, load_r } => {
                let id = nl.switch(a, b, ron, roff);
                nl.resistor(a, Netlist::GND, load_r);
                Some(id)
            }
            SwBehavior::SeriesOpen => {
                let mid = nl.fresh_node();
                nl.resistor(mid, Netlist::GND, self.cfg.defect_rweak);
                Some(nl.switch(a, mid, self.cfg.switch_ron, roff))
            }
        }
    }

    fn build_side(&self, side: Side, vin: f64, vcm: f64) -> SideCircuit {
        let cfg = &self.cfg;
        let (cm_err, cl_err) = match side {
            Side::P => (self.mismatch.cm_p, self.mismatch.cl_p),
            Side::N => (self.mismatch.cm_n, self.mismatch.cl_n),
        };
        let mut nl = Netlist::new();
        let top = nl.node("top");
        let bm = nl.node("bm");
        let bl = nl.node("bl");
        let n_in = nl.node("in");
        let n_m = nl.node("m");
        let n_l = nl.node("l");
        let n_vcm = nl.node("vcm");

        nl.vsource(n_in, Netlist::GND, vin);
        let src_m = nl.vsource(n_m, Netlist::GND, 0.0);
        let src_l = nl.vsource(n_l, Netlist::GND, 0.0);
        nl.vsource(n_vcm, Netlist::GND, vcm);

        // Capacitors (with defects).
        let c_main = 32.0 * cfg.unit_cap * (1.0 + cm_err);
        let c_interp = cfg.unit_cap * (1.0 + cl_err);
        crate::builder::emit_capacitor(
            &mut nl,
            top,
            bm,
            c_main,
            None,
            self.defect_for(side, Role::CMain),
            cfg,
        );
        crate::builder::emit_capacitor(
            &mut nl,
            top,
            bl,
            c_interp,
            None,
            self.defect_for(side, Role::CInterp),
            cfg,
        );
        if cfg.top_parasitic > 0.0 {
            nl.capacitor(top, Netlist::GND, cfg.top_parasitic);
        }

        let sw_sample_main = self.emit_switch(&mut nl, bm, n_in, side, Role::SwSampleMain);
        let sw_conv_main = self.emit_switch(&mut nl, bm, n_m, side, Role::SwConvMain);
        let sw_sample_interp = self.emit_switch(&mut nl, bl, n_in, side, Role::SwSampleInterp);
        let sw_conv_interp = self.emit_switch(&mut nl, bl, n_l, side, Role::SwConvInterp);
        let sw_cm = self.emit_switch(&mut nl, top, n_vcm, side, Role::SwCm);

        SideCircuit {
            nl,
            top,
            src_m,
            src_l,
            sw_sample_main,
            sw_conv_main,
            sw_sample_interp,
            sw_conv_interp,
            sw_cm,
        }
    }

    /// Builds the declared FD pair of this array: both sides with
    /// identical nominal inputs (`vin = 0`, `vcm = vref_fs / 2`), so a
    /// healthy array yields bit-identical halves and any P/N divergence
    /// is an injected defect or a builder asymmetry.
    pub fn fd_pair(&self) -> crate::symmetry::FdPair {
        let vcm = self.cfg.vref_fs / 2.0;
        let p = self.build_side(Side::P, 0.0, vcm);
        let n = self.build_side(Side::N, 0.0, vcm);
        let seeds = crate::symmetry::seeds_by_name(&p.nl, &n.nl);
        crate::symmetry::FdPair {
            name: BlockKind::ScArray.label().to_string(),
            p: p.nl,
            n: n.nl,
            seeds,
        }
    }

    /// Starts an interactive session: builds both sides, runs one sampling
    /// cycle, and leaves the array ready for conversion cycles.
    ///
    /// `in_p`/`in_n` are the (externally supplied) FD input voltages and
    /// `vcm` is the Vcm-generator output. Set `record` to capture full
    /// waveforms (the paper's Fig. 5 signals).
    ///
    /// Errs if a side has no DC operating point (e.g. an injected open
    /// floats a plate) or the initial sampling cycle fails to settle.
    pub fn begin(
        &self,
        in_p: f64,
        in_n: f64,
        vcm: f64,
        record: bool,
    ) -> Result<ScSession, CircuitError> {
        let maps = self.defect.is_none().then(|| self.shared_maps()).flatten();
        self.begin_with(in_p, in_n, vcm, record, maps)
    }

    /// [`ScArray::begin`] with the step maps the sides may reuse.
    fn begin_with(
        &self,
        in_p: f64,
        in_n: f64,
        vcm: f64,
        record: bool,
        maps: Option<&ArrayMaps>,
    ) -> Result<ScSession, CircuitError> {
        let dt = self.dt();
        let circuits = [Side::P, Side::N].map(|side| {
            let vin = match side {
                Side::P => in_p,
                Side::N => in_n,
            };
            let mut circuit = self.build_side(side, vin, vcm);
            circuit.set_phase(true); // sampling
            circuit
        });
        let mut sims = [
            LinearTransient::new(&circuits[0].nl, dt)?,
            LinearTransient::new(&circuits[1].nl, dt)?,
        ];
        for (sim, phases) in sims.iter_mut().zip(maps.into_iter().flatten()) {
            for phase in phases {
                sim.reuse(Arc::clone(phase));
            }
        }

        let mut session = ScSession {
            circuits,
            sims,
            traces: ScTraces {
                dac_p: Trace::new("dac_p"),
                dac_n: Trace::new("dac_n"),
                sum: Trace::new("dac_sum"),
                settled: Vec::new(),
                cycle_time: self.cfg.clock_period(),
            },
            record,
        };
        session.cycle(None)?;
        for circuit in &mut session.circuits {
            circuit.set_phase(false); // conversion
        }
        Ok(session)
    }
}

#[cfg(test)]
impl ScArray {
    /// The store of the shared maps, for the sharing tests.
    pub(crate) fn maps_store(&self) -> &Arc<OnceLock<Option<ArrayMaps>>> {
        &self.maps
    }
}

/// An in-progress SC-array run: sampled input held on the caps, ready to
/// apply conversion codes one clock cycle at a time.
#[derive(Debug)]
pub struct ScSession {
    circuits: [SideCircuit; 2],
    sims: [LinearTransient; 2],
    traces: ScTraces,
    record: bool,
}

impl ScSession {
    /// Applies one pair of sub-DAC levels, advances one clock cycle, and
    /// returns the settled `(DAC+, DAC−)`.
    ///
    /// The N-side level update lags the P side by one solver step,
    /// modeling the clock skew between the complementary switch drivers —
    /// this is what produces the switching glitches on the `DAC+ + DAC−`
    /// sum that the paper's Fig. 5 shows (and that the clocked checker
    /// deliberately ignores by sampling at settled instants).
    pub fn apply_code(
        &mut self,
        lv_p: SideLevels,
        lv_n: SideLevels,
    ) -> Result<(f64, f64), CircuitError> {
        let out = self.cycle(Some([lv_p, lv_n]))?;
        self.traces.settled.push(out);
        Ok(out)
    }

    /// One clock cycle, side by side: the P side runs 48 steps at its new
    /// levels, the N side one step at its old levels and then 47 at the
    /// new ones. Without levels (the sampling cycle) each side runs 48
    /// steps. The sides are independent linear systems, so running one
    /// after the other changes no value; a recording session builds `sum`
    /// from the two side traces at the end of the cycle.
    fn cycle(&mut self, levels: Option<[SideLevels; 2]>) -> Result<(f64, f64), CircuitError> {
        let ScTraces {
            dac_p, dac_n, sum, ..
        } = &mut self.traces;
        let sides = self.circuits.iter_mut().zip(&mut self.sims);
        for (i, ((circuit, sim), trace)) in sides.zip([&mut *dac_p, &mut *dac_n]).enumerate() {
            let mut trace = self.record.then_some(trace);
            let skew = if levels.is_some() { i } else { 0 };
            run_side(sim, circuit, skew, trace.as_deref_mut())?;
            if let Some(levels) = levels {
                circuit.set_levels(levels[i]);
            }
            run_side(sim, circuit, STEPS_PER_CYCLE - skew, trace)?;
        }
        let start = sum.len();
        let p = dac_p.times()[start..].iter().zip(&dac_p.values()[start..]);
        for ((t, vp), vn) in p.zip(&dac_n.values()[start..]) {
            sum.push(*t, vp + vn);
        }
        Ok((
            self.sims[0].voltage(self.circuits[0].top),
            self.sims[1].voltage(self.circuits[1].top),
        ))
    }

    /// Ends the session and returns the accumulated traces.
    pub fn finish(self) -> ScTraces {
        self.traces
    }
}

/// Advances one side `n` time steps: folded into one affine map, or, when
/// recording, one step at a time with each step's top-plate voltage pushed
/// on `trace`.
fn run_side(
    sim: &mut LinearTransient,
    circuit: &SideCircuit,
    n: usize,
    trace: Option<&mut Trace>,
) -> Result<(), CircuitError> {
    let Some(trace) = trace else {
        return sim.advance(&circuit.nl, n);
    };
    for _ in 0..n {
        sim.step(&circuit.nl)?;
        trace.push(sim.time(), sim.voltage(circuit.top));
    }
    Ok(())
}

/// Output of an SC-array run.
#[derive(Debug, Clone)]
pub struct ScTraces {
    /// DAC+ waveform (empty unless tracing was requested).
    pub dac_p: Trace,
    /// DAC− waveform.
    pub dac_n: Trace,
    /// DAC+ + DAC− — the invariance-I3 signal of the paper's Fig. 5.
    pub sum: Trace,
    /// Settled `(DAC+, DAC−)` at the end of each code cycle.
    pub settled: Vec<(f64, f64)>,
    /// Duration of one code cycle in seconds.
    pub cycle_time: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdcConfig {
        AdcConfig::default()
    }

    /// Ideal levels for the counter stimulus code `i` (m = l = i).
    fn counter_levels(vref: f64, codes: std::ops::Range<u8>) -> (Vec<SideLevels>, Vec<SideLevels>) {
        let p: Vec<SideLevels> = codes
            .clone()
            .map(|i| SideLevels {
                m: i as f64 / 32.0 * vref,
                l: i as f64 / 32.0 * vref,
            })
            .collect();
        let n: Vec<SideLevels> = codes
            .map(|i| SideLevels {
                m: (32 - i) as f64 / 32.0 * vref,
                l: (32 - i) as f64 / 32.0 * vref,
            })
            .collect();
        (p, n)
    }

    /// A session over the counter stimulus `codes` at a 1.2 V reference:
    /// the sampling cycle at `(in_p, in_n, vcm)`, then one cycle per code.
    fn run_codes(
        sc: &ScArray,
        (in_p, in_n, vcm): (f64, f64, f64),
        codes: std::ops::Range<u8>,
        record: bool,
    ) -> Result<ScTraces, CircuitError> {
        let (lp, ln) = counter_levels(1.2, codes);
        let mut session = sc.begin(in_p, in_n, vcm, record)?;
        for (p, n) in lp.iter().zip(&ln) {
            session.apply_code(*p, *n)?;
        }
        Ok(session.finish())
    }

    /// The settled `(DAC+, DAC−)` per code of a session that does not
    /// record.
    fn settled(
        sc: &ScArray,
        inputs: (f64, f64, f64),
        codes: std::ops::Range<u8>,
    ) -> Vec<(f64, f64)> {
        run_codes(sc, inputs, codes, false)
            .expect("the session runs")
            .settled
    }

    #[test]
    fn charge_redistribution_matches_theory() {
        let c = cfg();
        let sc = ScArray::new(&c);
        let din = 0.2;
        let (in_p, in_n) = (0.6 + din / 2.0, 0.6 - din / 2.0);
        let out = settled(&sc, (in_p, in_n, 0.6), 4..8);
        for (i, (vp, vn)) in out.iter().enumerate() {
            let code = 4 + i as u8;
            let m = code as f64 / 32.0 * 1.2;
            let expect_p = 0.6 + (32.0 * m + m) / 33.0 - in_p;
            assert!(
                (vp - expect_p).abs() < 2e-3,
                "code {code}: DAC+ {vp} vs {expect_p}"
            );
            // Invariance I3: sum = 2·Vcm.
            assert!((vp + vn - 1.2).abs() < 3e-3, "sum {}", vp + vn);
        }
    }

    #[test]
    fn invariance_holds_for_any_fd_input() {
        let c = cfg();
        let sc = ScArray::new(&c);
        for din in [-0.5, -0.1, 0.0, 0.3, 0.8] {
            let out = settled(&sc, (0.6 + din / 2.0, 0.6 - din / 2.0, 0.6), 10..12);
            for (vp, vn) in out {
                assert!((vp + vn - 1.2).abs() < 3e-3, "din {din}: sum {}", vp + vn);
            }
        }
    }

    #[test]
    fn vcm_shift_moves_the_sum() {
        // A defective Vcm generator shifts the I3 signal for every code —
        // the always-detectable case of Fig. 5.
        let c = cfg();
        let sc = ScArray::new(&c);
        let out = settled(&sc, (0.6, 0.6, 0.45), 0..4);
        for (vp, vn) in out {
            assert!(
                (vp + vn - 1.2).abs() > 0.2,
                "shifted-Vcm sum {} must deviate",
                vp + vn
            );
        }
    }

    #[test]
    fn cap_short_breaks_sum() {
        // Note the nonzero DC input: with ΔIN = 0 and m = l the healthy
        // transfer degenerates to DAC+ = M+, which a shorted main cap also
        // produces — the defect would be invisible. The paper's "DC value
        // set arbitrarily" stimulus must be nonzero for exactly this
        // reason.
        let c = cfg();
        let mut sc = ScArray::new(&c);
        sc.set_defect(Some((0, DefectKind::Short))); // P-side main cap
        let out = settled(&sc, (0.6 + 0.15, 0.6 - 0.15, 0.6), 8..12);
        let worst = out
            .iter()
            .map(|(vp, vn)| (vp + vn - 1.2).abs())
            .fold(0.0f64, f64::max);
        assert!(worst > 0.05, "cap short worst deviation {worst}");
    }

    #[test]
    fn conv_switch_open_floats_bottom_plate() {
        let c = cfg();
        let mut sc = ScArray::new(&c);
        // P side, sw_conv_main open drain (index 3).
        sc.set_defect(Some((3, DefectKind::OpenDrain)));
        let out = settled(&sc, (0.6, 0.6, 0.6), 20..24);
        let worst = out
            .iter()
            .map(|(vp, vn)| (vp + vn - 1.2).abs())
            .fold(0.0f64, f64::max);
        assert!(worst > 0.05, "floating bottom plate deviation {worst}");
    }

    #[test]
    fn cm_switch_stuck_on_shorts_top_to_vcm() {
        let c = cfg();
        let mut sc = ScArray::new(&c);
        // P side sw_cm (index 6) stuck on: DAC+ pinned at Vcm.
        sc.set_defect(Some((6, DefectKind::ShortDs)));
        let out = settled(&sc, (0.6, 0.6, 0.6), 28..32);
        for (vp, _) in &out {
            assert!((vp - 0.6).abs() < 0.02, "pinned DAC+ = {vp}");
        }
        // The sum now misses the code-dependent part on one side → violated
        // at codes far from mid-scale.
        let worst = out
            .iter()
            .map(|(vp, vn)| (vp + vn - 1.2).abs())
            .fold(0.0f64, f64::max);
        assert!(worst > 0.1, "stuck-cm worst deviation {worst}");
    }

    #[test]
    fn traces_show_settling_glitches() {
        let c = cfg();
        let sc = ScArray::new(&c);
        let tr = run_codes(&sc, (0.6, 0.6, 0.6), 0..32, true).unwrap();
        assert_eq!(tr.settled.len(), 32);
        // The sum signal stays near 1.2 at cycle ends but must exhibit
        // excursions (glitches) somewhere mid-cycle.
        let (lo, hi) = (tr.sum.min(), tr.sum.max());
        assert!(hi - lo > 0.01, "glitch span {}", hi - lo);
        // Settled values obey the invariance.
        for (vp, vn) in &tr.settled {
            assert!((vp + vn - 1.2).abs() < 3e-3);
        }
    }

    #[test]
    fn mismatch_keeps_sum_within_mv() {
        let c = cfg();
        let mut sc = ScArray::new(&c);
        sc.set_mismatch(ScMismatch {
            cm_p: 0.002,
            cl_p: -0.003,
            cm_n: -0.001,
            cl_n: 0.002,
        });
        let out = settled(&sc, (0.65, 0.55, 0.6), 0..8);
        for (vp, vn) in out {
            let dev = (vp + vn - 1.2).abs();
            assert!(dev < 5e-3, "mismatch dev {dev}");
        }
    }

    /// The sequence `ScSession` runs, on the same side circuits, stepped
    /// by the general `TransientSim` engine (backward Euler, same `dt`).
    fn oracle_sequence(
        sc: &ScArray,
        (in_p, in_n, vcm): (f64, f64, f64),
        levels_p: &[SideLevels],
        levels_n: &[SideLevels],
    ) -> Result<ScTraces, CircuitError> {
        use symbist_circuit::transient::{TransientOptions, TransientSim};
        let options = TransientOptions {
            dt: sc.cfg.clock_period() / STEPS_PER_CYCLE as f64,
            ..Default::default()
        };
        let mut circuits = [(Side::P, in_p), (Side::N, in_n)].map(|(side, vin)| {
            let mut circuit = sc.build_side(side, vin, vcm);
            circuit.set_phase(true);
            circuit
        });
        let mut sims = [
            TransientSim::new(&circuits[0].nl, options.clone())?,
            TransientSim::new(&circuits[1].nl, options)?,
        ];
        let mut out = ScTraces {
            dac_p: Trace::new("dac_p"),
            dac_n: Trace::new("dac_n"),
            sum: Trace::new("dac_sum"),
            settled: Vec::new(),
            cycle_time: sc.cfg.clock_period(),
        };
        let mut run = |circuits: &[SideCircuit; 2], out: &mut ScTraces, steps: usize| {
            for _ in 0..steps {
                for (sim, circuit) in sims.iter_mut().zip(circuits) {
                    sim.step(&circuit.nl)?;
                }
                let (vp, vn) = (
                    sims[0].voltage(circuits[0].top),
                    sims[1].voltage(circuits[1].top),
                );
                out.dac_p.push(sims[0].time(), vp);
                out.dac_n.push(sims[0].time(), vn);
                out.sum.push(sims[0].time(), vp + vn);
            }
            Ok::<_, CircuitError>((
                sims[0].voltage(circuits[0].top),
                sims[1].voltage(circuits[1].top),
            ))
        };
        run(&circuits, &mut out, STEPS_PER_CYCLE)?;
        for circuit in circuits.iter_mut() {
            circuit.set_phase(false);
        }
        for (lp, ln) in levels_p.iter().zip(levels_n) {
            let p = &mut circuits[0];
            p.set_source(p.src_m, lp.m);
            p.set_source(p.src_l, lp.l);
            run(&circuits, &mut out, 1)?;
            let n = &mut circuits[1];
            n.set_source(n.src_m, ln.m);
            n.set_source(n.src_l, ln.l);
            let settled = run(&circuits, &mut out, STEPS_PER_CYCLE - 1)?;
            out.settled.push(settled);
        }
        Ok(out)
    }

    fn assert_close(what: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{what}: lengths differ");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() <= 1e-9, "{what}[{i}]: {g} vs {w}");
        }
    }

    /// The step operator reproduces `TransientSim` on the defect-free
    /// array, a mismatch sample and every one of the 76 SC-array defects,
    /// over the 32-code counter stimulus: settled values and full traces
    /// within 1e-9 V, and the same error where a side has no solution.
    #[test]
    fn step_operator_matches_transient_sim_on_every_defect() {
        let c = cfg();
        let nominal = ScArray::new(&c);
        let mut arrays = vec![("defect-free".to_string(), nominal.clone())];
        let mut mismatched = nominal.clone();
        mismatched.set_mismatch(ScMismatch {
            cm_p: 0.004,
            cl_p: -0.006,
            cm_n: -0.002,
            cl_n: 0.005,
        });
        arrays.push(("mismatch".to_string(), mismatched));
        for (idx, info) in nominal.catalog().iter().enumerate() {
            for &kind in info.kind.applicable_defects() {
                let mut sc = nominal.clone();
                sc.set_defect(Some((idx, kind)));
                arrays.push((format!("{} {kind}", info.name), sc));
            }
        }
        assert_eq!(arrays.len(), 2 + 76, "SC-array defect universe");

        let inputs = (0.75, 0.45, 0.6);
        let (lp, ln) = counter_levels(1.2, 0..32);
        for (name, sc) in &arrays {
            let want = oracle_sequence(sc, inputs, &lp, &ln);
            let folded = run_codes(sc, inputs, 0..32, false);
            let traced = run_codes(sc, inputs, 0..32, true);
            let want = match want {
                Ok(want) => want,
                Err(e) => {
                    assert_eq!(folded.err(), Some(e.clone()), "{name}: folded");
                    assert_eq!(traced.err(), Some(e), "{name}: traced");
                    continue;
                }
            };
            let flat = |pairs: &[(f64, f64)]| -> Vec<f64> {
                pairs.iter().flat_map(|&(p, n)| [p, n]).collect()
            };
            let folded = folded.unwrap_or_else(|e| panic!("{name}: folded: {e}"));
            assert_close(name, &flat(&folded.settled), &flat(&want.settled));
            let traced = traced.unwrap_or_else(|e| panic!("{name}: traced: {e}"));
            assert_close(name, &flat(&traced.settled), &flat(&want.settled));
            for (got, want) in [
                (&traced.dac_p, &want.dac_p),
                (&traced.dac_n, &want.dac_n),
                (&traced.sum, &want.sum),
            ] {
                assert_eq!(got.times(), want.times(), "{name}: {} times", got.name());
                assert_close(name, got.values(), want.values());
            }
        }
    }

    /// The shared maps of a mismatched array, against the maps a clone
    /// builds itself from its own side circuits (at other inputs, with the
    /// same folds): equal, fold for fold. Sessions that reuse them give
    /// the values of sessions that build their own, bit for bit.
    #[test]
    fn shared_maps_equal_the_maps_a_clone_builds_itself() -> Result<(), CircuitError> {
        let mut sc = ScArray::new(&cfg());
        sc.set_mismatch(ScMismatch {
            cm_p: 0.004,
            cl_p: -0.006,
            cm_n: -0.002,
            cl_n: 0.005,
        });
        let clone = sc.clone();
        let shared = clone.shared_maps().expect("the defect-free array builds");
        assert!(std::ptr::eq(shared, sc.shared_maps().unwrap()));
        for (side, phases) in [Side::P, Side::N].into_iter().zip(shared) {
            let mut circuit = clone.build_side(side, 0.75, 0.6);
            for ((sampling, runs), maps) in [(true, 1), (false, 2)].into_iter().zip(phases) {
                circuit.set_phase(sampling);
                let mut own = StepMaps::build(&circuit.nl, clone.dt())?;
                for n in [STEPS_PER_CYCLE, STEPS_PER_CYCLE - 1]
                    .into_iter()
                    .take(runs)
                {
                    own.prepare(n);
                }
                assert_eq!(**maps, own, "{side:?} side, sampling {sampling}");
            }
        }

        let (lp, ln) = counter_levels(1.2, 0..32);
        let run = |maps: Option<&ArrayMaps>| -> Result<Vec<(f64, f64)>, CircuitError> {
            let mut session = clone.begin_with(0.75, 0.45, 0.6, false, maps)?;
            for (p, n) in lp.iter().zip(&ln) {
                session.apply_code(*p, *n)?;
            }
            Ok(session.finish().settled)
        };
        let bits = |pairs: Vec<(f64, f64)>| -> Vec<[u64; 2]> {
            pairs
                .into_iter()
                .map(|(p, n)| [p.to_bits(), n.to_bits()])
                .collect()
        };
        assert_eq!(bits(run(Some(shared))?), bits(run(None)?));
        Ok(())
    }

    #[test]
    fn catalog() {
        let sc = ScArray::new(&cfg());
        assert_eq!(sc.catalog().len(), SC_COMPONENTS);
        assert_eq!(SC_COMPONENTS, 14);
    }
}
