//! Reference network: the Reference Buffer (Fig. 2) and the two sub-DACs
//! (Fig. 4), solved together because they are electrically coupled — a
//! defective mux switch loads the ladder and perturbs every tap.
//!
//! The reference buffer amplifies the bandgap voltage onto a 32-resistor
//! ladder that produces the comparison levels `VREF[0..=32]`. Each sub-DAC
//! is a pair of complementary 33:1 tap multiplexers built from transmission
//! gates with per-tap drivers plus a 5-bit decoder per mux:
//!
//! * SUBDAC1 routes `VREF[m]` to `M+` and `VREF[32−m]` to `M−`,
//! * SUBDAC2 routes `VREF[l]` to `L+` and `VREF[32−l]` to `L−`,
//!
//! which is exactly Eq. (1) of the paper, and yields the invariances
//! `M+ + M− = VREF[32]` and `L+ + L− = VREF[32]` (Eq. (2)).

use symbist_circuit::dc::DcSolver;
use symbist_circuit::error::CircuitError;
use symbist_circuit::netlist::{Netlist, NodeId};

use crate::builder::emit_resistor;
use crate::config::AdcConfig;
use crate::fault::{BlockKind, ComponentInfo, ComponentKind, DefectKind};

/// Taps on the ladder (VREF\[0\] is the grounded bottom).
pub const TAPS: usize = 33;
/// Ladder resistor count.
pub const LADDER_RESISTORS: usize = 32;
/// Buffer amplifier transistor count.
const BUFFER_TRANSISTORS: usize = 8;
/// Nominal buffer output resistance (closed-loop; the ladder draws ~94 µA,
/// so this must stay in the ohm range to keep the gain error below 1 LSB).
const BUFFER_ROUT: f64 = 5.0;
/// Resistance of a control-line load leaking through a gate short.
const CONTROL_LOAD_R: f64 = 2_000.0;

/// Mismatch knobs of the reference buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct RefBufMismatch {
    /// Buffer input offset in volts.
    pub offset: f64,
    /// Relative buffer gain error.
    pub gain_err: f64,
    /// Per-ladder-resistor relative errors.
    pub ladder: [f64; LADDER_RESISTORS],
}

impl Default for RefBufMismatch {
    fn default() -> Self {
        Self {
            offset: 0.0,
            gain_err: 0.0,
            ladder: [0.0; LADDER_RESISTORS],
        }
    }
}

/// Behavioral corruption of the buffer amplifier.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BufFault {
    Benign,
    /// Extra input offset (volts).
    Offset(f64),
    /// Relative gain error.
    GainErr(f64),
    /// Output stuck at a voltage.
    Stuck(f64),
    /// Output resistance multiplied (drive starved).
    RoutScale(f64),
}

/// The Reference Buffer block: buffer amp (behavioral transistors) plus the
/// resistor ladder (structural).
#[derive(Debug, Clone)]
pub struct ReferenceBuffer {
    cfg: AdcConfig,
    defect: Option<(usize, DefectKind)>,
    mismatch: RefBufMismatch,
    /// Nominal bandgap voltage, captured at construction so the buffer gain
    /// maps nominal VBG onto the configured full scale.
    vbg_nominal: f64,
}

impl ReferenceBuffer {
    /// Creates the block. `vbg_nominal` is the defect-free bandgap output.
    pub fn new(cfg: &AdcConfig, vbg_nominal: f64) -> Self {
        assert!(vbg_nominal > 0.1, "nominal bandgap voltage implausible");
        Self {
            cfg: cfg.clone(),
            defect: None,
            mismatch: RefBufMismatch::default(),
            vbg_nominal,
        }
    }

    /// Builds the local component catalog: 8 amp transistors, the output
    /// decoupling cap, then the 32 ladder resistors.
    ///
    /// Note the Table-I accounting: the resistor string is the *resistive
    /// part of the DAC* (Fig. 4: "resistive plus charge redistribution
    /// architecture"), so its components are attributed to `SubDac1` even
    /// though this struct owns them electrically — mirroring the paper's
    /// hierarchy, where the Reference Buffer row counts only the buffer
    /// amplifier (and shows ~1 % coverage precisely because amplifier
    /// faults rescale every tap coherently).
    pub(crate) fn catalog(&self) -> Vec<ComponentInfo> {
        let mut components = Vec::with_capacity(BUFFER_TRANSISTORS + 1 + LADDER_RESISTORS);
        for i in 1..=BUFFER_TRANSISTORS {
            components.push(ComponentInfo {
                block: BlockKind::ReferenceBuffer,
                name: format!("refbuf/amp/mb{i}"),
                kind: ComponentKind::Mosfet,
                area: 2.0,
            });
        }
        // Output decoupling of the buffer (large; DC-benign unless shorted).
        components.push(ComponentInfo {
            block: BlockKind::ReferenceBuffer,
            name: "refbuf/c_dec".into(),
            kind: ComponentKind::Capacitor,
            area: 30.0,
        });
        for i in 0..LADDER_RESISTORS {
            components.push(ComponentInfo {
                block: BlockKind::SubDac1,
                name: format!("refbuf/ladder/r{i}"),
                kind: ComponentKind::Resistor,
                area: 2.0,
            });
        }
        components
    }

    pub(crate) fn set_defect(&mut self, defect: Option<(usize, DefectKind)>) {
        self.defect = defect;
    }

    /// Sets the mismatch sample.
    pub fn set_mismatch(&mut self, m: RefBufMismatch) {
        self.mismatch = m;
    }

    fn buf_fault(&self) -> BufFault {
        let Some((idx, kind)) = self.defect else {
            return BufFault::Benign;
        };
        if idx >= BUFFER_TRANSISTORS {
            return BufFault::Benign; // ladder defect, handled structurally
        }
        match (idx, kind) {
            // mb1/mb2: input differential pair.
            (0, k) if k.is_short() => BufFault::Offset(0.15),
            (1, k) if k.is_short() => BufFault::Offset(-0.15),
            (0, _) => BufFault::Offset(0.04),
            (1, _) => BufFault::Offset(-0.04),
            // mb3/mb4: load mirror.
            (2, k) | (3, k) if k.is_short() => BufFault::Offset(0.08),
            (2, _) | (3, _) => BufFault::GainErr(-0.15),
            // mb5: output PMOS.
            (4, DefectKind::ShortDs) => BufFault::Stuck(self.cfg.vdda),
            (4, k) if k.is_short() => BufFault::Offset(0.1),
            (4, _) => BufFault::RoutScale(1e5),
            // mb6: output NMOS.
            (5, DefectKind::ShortDs) => BufFault::Stuck(0.0),
            (5, k) if k.is_short() => BufFault::Offset(-0.1),
            (5, _) => BufFault::RoutScale(1e5),
            // mb7/mb8: bias chain.
            (6, k) | (7, k) if k.is_short() => BufFault::GainErr(-0.05),
            _ => BufFault::Benign,
        }
    }

    /// The nominal bandgap voltage this buffer was calibrated against.
    pub(crate) fn vbg_nominal(&self) -> f64 {
        self.vbg_nominal
    }

    /// Local catalog index of the buffer decoupling cap.
    const C_DEC_INDEX: usize = BUFFER_TRANSISTORS;

    fn ladder_defect(&self, r_index: usize) -> Option<DefectKind> {
        match self.defect {
            Some((idx, kind)) if idx == Self::C_DEC_INDEX + 1 + r_index => Some(kind),
            _ => None,
        }
    }

    fn c_dec_defect(&self) -> Option<DefectKind> {
        match self.defect {
            Some((idx, kind)) if idx == Self::C_DEC_INDEX => Some(kind),
            _ => None,
        }
    }

    /// Buffer drive voltage and output resistance for a given bandgap input.
    fn buffer_drive(&self, vbg: f64) -> (f64, f64) {
        let gain_nominal = self.cfg.vref_fs / self.vbg_nominal;
        let (offset, gain_err, rout_scale, stuck) = match self.buf_fault() {
            BufFault::Benign => (0.0, 0.0, 1.0, None),
            BufFault::Offset(o) => (o, 0.0, 1.0, None),
            BufFault::GainErr(g) => (0.0, g, 1.0, None),
            BufFault::RoutScale(s) => (0.0, 0.0, s, None),
            BufFault::Stuck(v) => (0.0, 0.0, 1.0, Some(v)),
        };
        let v = match stuck {
            Some(v) => v,
            None => {
                let vin = vbg + offset + self.mismatch.offset;
                (vin * gain_nominal * (1.0 + gain_err + self.mismatch.gain_err))
                    .clamp(0.0, self.cfg.vdda)
            }
        };
        (v, BUFFER_ROUT * rout_scale)
    }
}

/// One of the four tap multiplexers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MuxSide {
    /// Positive output (M+ or L+).
    P,
    /// Negative output (M− or L−).
    N,
}

impl MuxSide {
    /// The ladder tap this mux selects at (effective) code `code`.
    fn tap(self, code: u8) -> usize {
        match self {
            MuxSide::P => code as usize,
            MuxSide::N => 32 - code as usize,
        }
    }
}

/// Electrical state of one tap switch after defect mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TapState {
    Off,
    On {
        r: f64,
    },
    /// Conducting, plus a resistive load from the tap to a rail through the
    /// corrupted control network.
    OnLoaded {
        r: f64,
        load_r: f64,
        to_vdda: bool,
    },
}

/// A sub-DAC: two complementary 33:1 muxes plus per-mux 5-bit decoders.
///
/// Component layout (local indices):
/// * taps of the P mux: `tap*4 + {0: swN, 1: swP, 2: drvN, 3: drvP}`
/// * taps of the N mux: `132 + tap*4 + ...`
/// * P decoder: `264 + bit*2 + {0: N device, 1: P device}`
/// * N decoder: `274 + bit*2 + ...`
#[derive(Debug, Clone)]
pub struct SubDac {
    block: BlockKind,
    defect: Option<(usize, DefectKind)>,
}

const PER_TAP: usize = 4;
const MUX_COMPONENTS: usize = TAPS * PER_TAP;
const DECODER_BITS: usize = 5;
const DECODER_COMPONENTS: usize = DECODER_BITS * 2;
/// Components per sub-DAC.
pub(crate) const SUBDAC_COMPONENTS: usize = 2 * MUX_COMPONENTS + 2 * DECODER_COMPONENTS;

impl SubDac {
    /// Creates a sub-DAC block. `block` must be `SubDac1` or `SubDac2`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not a sub-DAC kind.
    pub fn new(block: BlockKind) -> Self {
        assert!(
            matches!(block, BlockKind::SubDac1 | BlockKind::SubDac2),
            "not a sub-DAC block: {block:?}"
        );
        Self {
            block,
            defect: None,
        }
    }

    /// The block identity (SubDac1 or SubDac2).
    pub fn block(&self) -> BlockKind {
        self.block
    }

    /// Builds the local component catalog.
    pub(crate) fn catalog(&self) -> Vec<ComponentInfo> {
        let block = self.block;
        let prefix = match block {
            BlockKind::SubDac1 => "subdac1",
            _ => "subdac2",
        };
        let mut components = Vec::with_capacity(SUBDAC_COMPONENTS);
        for side in ["mux_p", "mux_n"] {
            for tap in 0..TAPS {
                for role in ["swn", "swp", "drvn", "drvp"] {
                    components.push(ComponentInfo {
                        block,
                        name: format!("{prefix}/{side}/tap{tap}/{role}"),
                        kind: ComponentKind::Mosfet,
                        area: if role.starts_with("sw") { 1.5 } else { 1.0 },
                    });
                }
            }
        }
        for side in ["dec_p", "dec_n"] {
            for bit in 0..DECODER_BITS {
                for role in ["n", "p"] {
                    components.push(ComponentInfo {
                        block,
                        name: format!("{prefix}/{side}/bit{bit}/{role}"),
                        kind: ComponentKind::Mosfet,
                        area: 0.8,
                    });
                }
            }
        }
        components
    }

    pub(crate) fn set_defect(&mut self, defect: Option<(usize, DefectKind)>) {
        self.defect = defect;
    }

    /// Applies decoder corruption to the 5-bit select code of one mux.
    fn effective_code(&self, side: MuxSide, code: u8) -> u8 {
        debug_assert!(code < 32);
        let Some((idx, kind)) = self.defect else {
            return code;
        };
        let base = match side {
            MuxSide::P => 2 * MUX_COMPONENTS,
            MuxSide::N => 2 * MUX_COMPONENTS + DECODER_COMPONENTS,
        };
        if !(base..base + DECODER_COMPONENTS).contains(&idx) {
            return code;
        }
        let local = idx - base;
        let bit = (local / 2) as u8;
        let is_p_device = local % 2 == 1;
        if kind.is_short() {
            // NMOS short pulls the decoded line low (bit stuck 0); PMOS
            // short pulls it high (bit stuck 1).
            if is_p_device {
                code | (1 << bit)
            } else {
                code & !(1 << bit)
            }
        } else {
            // Opens slow the decode but do not change its DC value: escape.
            code
        }
    }

    /// Whether the defect changes this sub-DAC's part of the reference
    /// network at counter code `code`: the effective select code or any
    /// tap state of either mux differs from a defect-free sub-DAC's.
    pub(crate) fn alters(&self, code: u8, cfg: &AdcConfig) -> bool {
        if self.defect.is_none() {
            return false;
        }
        let healthy = SubDac::new(self.block);
        [MuxSide::P, MuxSide::N].into_iter().any(|side| {
            let selected = side.tap(code);
            self.effective_code(side, code) != code
                || (0..TAPS).any(|tap| {
                    self.tap_state(side, tap, selected, cfg)
                        != healthy.tap_state(side, tap, selected, cfg)
                })
        })
    }

    /// Electrical state of tap `tap` of mux `side`, given the (corrupted)
    /// selected tap.
    fn tap_state(&self, side: MuxSide, tap: usize, selected: usize, cfg: &AdcConfig) -> TapState {
        let base = match side {
            MuxSide::P => tap * PER_TAP,
            MuxSide::N => MUX_COMPONENTS + tap * PER_TAP,
        };
        let defect = match self.defect {
            Some((idx, kind)) if (base..base + PER_TAP).contains(&idx) => Some((idx - base, kind)),
            _ => None,
        };
        let is_selected = tap == selected;
        let ron = cfg.switch_ron;
        match defect {
            None => {
                if is_selected {
                    TapState::On { r: ron }
                } else {
                    TapState::Off
                }
            }
            Some((role, kind)) => match (role, kind) {
                // Pass transistors (0 = NMOS, 1 = PMOS).
                (0 | 1, DefectKind::ShortDs) => TapState::On {
                    r: cfg.defect_rshort,
                },
                (0, DefectKind::ShortGd) | (0, DefectKind::ShortGs) => TapState::OnLoaded {
                    r: 2.0 * ron,
                    load_r: CONTROL_LOAD_R,
                    to_vdda: false,
                },
                (1, DefectKind::ShortGd) | (1, DefectKind::ShortGs) => TapState::OnLoaded {
                    r: 2.0 * ron,
                    load_r: CONTROL_LOAD_R,
                    to_vdda: true,
                },
                // One device of the transmission gate open: the other half
                // still conducts when selected — but only for tap voltages
                // inside its pass range (gates swing only to VDD, so an
                // NMOS alone cannot pass the top of the ladder and a PMOS
                // alone cannot pass the bottom). Near the rails the tap
                // becomes unreachable and the output floats — detected.
                (0, k) if k.is_open() => {
                    let tap_v = tap as f64 / 32.0 * cfg.vref_fs;
                    let pmos_passes = tap_v > 0.45;
                    if is_selected && pmos_passes {
                        TapState::On { r: 2.0 * ron }
                    } else {
                        TapState::Off
                    }
                }
                (1, k) if k.is_open() => {
                    let tap_v = tap as f64 / 32.0 * cfg.vref_fs;
                    let nmos_passes = tap_v < cfg.vdd - 0.45;
                    if is_selected && nmos_passes {
                        TapState::On { r: 2.0 * ron }
                    } else {
                        TapState::Off
                    }
                }
                // Drivers: 2 = NMOS (short → control stuck low → gate never
                // closes), 3 = PMOS (short → control stuck high → always
                // closed).
                (2, k) if k.is_short() => TapState::Off,
                (3, k) if k.is_short() => TapState::On { r: ron },
                // Driver opens: control still reaches its DC value.
                _ => {
                    if is_selected {
                        TapState::On { r: ron }
                    } else {
                        TapState::Off
                    }
                }
            },
        }
    }
}

/// Settled reference-network outputs for one pair of select codes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefOutputs {
    /// M+ (SUBDAC1 positive output).
    pub m_plus: f64,
    /// M− (SUBDAC1 negative output).
    pub m_minus: f64,
    /// L+ (SUBDAC2 positive output).
    pub l_plus: f64,
    /// L− (SUBDAC2 negative output).
    pub l_minus: f64,
    /// The on-chip mid tap VREF\[16\] (reference input of the I3 checker).
    pub vref16: f64,
    /// The on-chip top tap VREF\[32\] (reference input of the I1/I2 checkers).
    pub vref32: f64,
}

/// The shared ladder/buffer portion of the reference network, plus the
/// handles the mux emitters need.
struct LadderCore {
    nl: Netlist,
    tap_nodes: Vec<NodeId>,
    vdda: NodeId,
}

/// Builds the supply, resistor ladder, and buffer drive — the part of the
/// reference network shared by every mux and by the lint's half-circuit
/// snapshots.
fn build_ladder_core(refbuf: &ReferenceBuffer, vbg: f64) -> LadderCore {
    let cfg = &refbuf.cfg;
    let mut nl = Netlist::new();

    let vdda = nl.node("vdda");
    nl.vsource(vdda, Netlist::GND, cfg.vdda);

    // Ladder: tap 0 is ground, taps 1..=32 are nodes.
    let mut tap_nodes: Vec<NodeId> = Vec::with_capacity(TAPS);
    tap_nodes.push(Netlist::GND);
    for i in 1..TAPS {
        tap_nodes.push(nl.node(&format!("vref{i}")));
    }
    for r in 0..LADDER_RESISTORS {
        let ohms = cfg.ladder_r * (1.0 + refbuf.mismatch.ladder[r]);
        emit_resistor(
            &mut nl,
            tap_nodes[r],
            tap_nodes[r + 1],
            ohms,
            refbuf.ladder_defect(r),
            cfg,
        );
    }

    // Buffer drive into the ladder top, decoupled at the output.
    let (v_drive, rout) = refbuf.buffer_drive(vbg);
    let drv = nl.node("buf_drv");
    nl.vsource(drv, Netlist::GND, v_drive);
    nl.resistor(drv, tap_nodes[TAPS - 1], rout);
    crate::builder::emit_capacitor(
        &mut nl,
        tap_nodes[TAPS - 1],
        Netlist::GND,
        200e-12,
        None,
        refbuf.c_dec_defect(),
        cfg,
    );

    LadderCore {
        nl,
        tap_nodes,
        vdda,
    }
}

/// Emits one tap multiplexer of `sub` into the core, driving `out`.
fn emit_mux(
    core: &mut LadderCore,
    cfg: &AdcConfig,
    sub: &SubDac,
    side: MuxSide,
    code: u8,
    out: NodeId,
) {
    let selected = side.tap(sub.effective_code(side, code));
    for tap in 0..TAPS {
        let tap_node = core.tap_nodes[tap];
        match sub.tap_state(side, tap, selected, cfg) {
            TapState::Off => {}
            TapState::On { r } => {
                core.nl.resistor(tap_node, out, r);
            }
            TapState::OnLoaded { r, load_r, to_vdda } => {
                core.nl.resistor(tap_node, out, r);
                let rail = if to_vdda { core.vdda } else { Netlist::GND };
                core.nl.resistor(tap_node, rail, load_r);
            }
        }
    }
}

/// Builds the ladder plus *one* tap multiplexer of `sub` at select code
/// `code`, with the mux output on the node named `"mux_out"`.
///
/// This is the half-circuit snapshot the FD-symmetry lint compares: at the
/// mid-scale code 16 the P mux selects tap 16 and the N mux selects
/// tap 32 − 16 = 16, so a healthy sub-DAC yields structurally identical
/// halves — exactly the symmetry Eq. (2) of the paper relies on.
///
/// # Panics
///
/// Panics if `code` is out of range.
pub fn mux_half_netlist(
    refbuf: &ReferenceBuffer,
    sub: &SubDac,
    side: MuxSide,
    code: u8,
    vbg: f64,
) -> Netlist {
    assert!(code < 32, "select code must be 5-bit");
    let cfg = refbuf.cfg.clone();
    let mut core = build_ladder_core(refbuf, vbg);
    let out = core.nl.node("mux_out");
    emit_mux(&mut core, &cfg, sub, side, code, out);
    core.nl
}

/// Builds the full coupled reference network (ladder, buffer drive, and
/// all four tap muxes) for select codes `m` and `l` without solving it.
///
/// The mux outputs land on the nodes named `"m_plus"`, `"m_minus"`,
/// `"l_plus"`, `"l_minus"`; ladder taps are `"vref1"..="vref32"`. Used
/// both by [`solve_ref_network`] and by the `symbist-lint` netlist
/// snapshots.
///
/// # Panics
///
/// Panics if a code is out of range.
pub fn ref_network_netlist(
    refbuf: &ReferenceBuffer,
    sd1: &SubDac,
    sd2: &SubDac,
    vbg: f64,
    m: u8,
    l: u8,
) -> Netlist {
    assert!(m < 32 && l < 32, "select codes must be 5-bit");
    let cfg = refbuf.cfg.clone();
    let mut core = build_ladder_core(refbuf, vbg);

    // The four mux outputs.
    let m_plus = core.nl.node("m_plus");
    let m_minus = core.nl.node("m_minus");
    let l_plus = core.nl.node("l_plus");
    let l_minus = core.nl.node("l_minus");

    emit_mux(&mut core, &cfg, sd1, MuxSide::P, m, m_plus);
    emit_mux(&mut core, &cfg, sd1, MuxSide::N, m, m_minus);
    emit_mux(&mut core, &cfg, sd2, MuxSide::P, l, l_plus);
    emit_mux(&mut core, &cfg, sd2, MuxSide::N, l, l_minus);

    core.nl
}

/// Solves the coupled reference network for select codes `m` (SUBDAC1) and
/// `l` (SUBDAC2), both in `0..32`.
///
/// The nominal network is linear and always solvable, but an injected
/// defect can make it singular (e.g. an open that floats a mux output) or
/// a thread [`SolveBudget`](symbist_circuit::dc::SolveBudget) can expire
/// mid-solve — both surface as `Err` for the campaign to record.
///
/// # Panics
///
/// Panics if a code is out of range.
pub fn solve_ref_network(
    refbuf: &ReferenceBuffer,
    sd1: &SubDac,
    sd2: &SubDac,
    vbg: f64,
    m: u8,
    l: u8,
) -> Result<RefOutputs, CircuitError> {
    let nl = ref_network_netlist(refbuf, sd1, sd2, vbg, m, l);
    let op = DcSolver::new().solve(&nl)?;
    let volt = |name: &str| {
        let node = nl.find_node(name).expect("reference-network node");
        op.voltage(node)
    };
    Ok(RefOutputs {
        m_plus: volt("m_plus"),
        m_minus: volt("m_minus"),
        l_plus: volt("l_plus"),
        l_minus: volt("l_minus"),
        vref16: volt("vref16"),
        vref32: volt("vref32"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const VBG_NOM: f64 = 1.17;

    fn parts() -> (ReferenceBuffer, SubDac, SubDac) {
        let cfg = AdcConfig::default();
        (
            ReferenceBuffer::new(&cfg, VBG_NOM),
            SubDac::new(BlockKind::SubDac1),
            SubDac::new(BlockKind::SubDac2),
        )
    }

    #[test]
    fn nominal_taps_follow_eq1() {
        let (rb, s1, s2) = parts();
        for code in [0u8, 1, 7, 16, 31] {
            let out = solve_ref_network(&rb, &s1, &s2, VBG_NOM, code, 31 - code).unwrap();
            let vr = out.vref32;
            // Eq. (1): M+ = VREF[m] = m/32 · VREF[32].
            let expect_p = code as f64 / 32.0 * vr;
            let expect_n = (32 - code) as f64 / 32.0 * vr;
            assert!(
                (out.m_plus - expect_p).abs() < 1e-6,
                "code {code}: M+ = {} vs {}",
                out.m_plus,
                expect_p
            );
            assert!((out.m_minus - expect_n).abs() < 1e-6);
            // Invariance I1 (Eq. 2).
            assert!((out.m_plus + out.m_minus - vr).abs() < 1e-6);
            // SUBDAC2 complementary too (I2).
            assert!((out.l_plus + out.l_minus - vr).abs() < 1e-6);
        }
    }

    #[test]
    fn full_scale_near_config() {
        let (rb, s1, s2) = parts();
        let out = solve_ref_network(&rb, &s1, &s2, VBG_NOM, 0, 0).unwrap();
        let cfg = AdcConfig::default();
        // The buffer drives VREF[32] to the configured full scale (small
        // drop across Rout from the ladder current).
        assert!(
            (out.vref32 - cfg.vref_fs).abs() < 0.01,
            "VREF[32] = {}",
            out.vref32
        );
        assert!((out.vref16 - cfg.vref_fs / 2.0).abs() < 0.01);
    }

    #[test]
    fn ladder_short_breaks_complement_only_between_the_selected_taps() {
        // A shorted ladder resistor r5 removes one unit segment. For code
        // m, the complement M+ + M− misses VREF[32] only when the short
        // lies *between* the two selected taps (6 ≤ m ≤ 26): outside that
        // band the missing segment is counted once on each side and
        // cancels. This is exactly the "detectable during specific
        // conversion periods" behaviour of the paper's Fig. 5.
        let (mut rb, s1, s2) = parts();
        rb.set_defect(Some((BUFFER_TRANSISTORS + 1 + 5, DefectKind::Short)));
        let mid = solve_ref_network(&rb, &s1, &s2, VBG_NOM, 16, 0).unwrap();
        let viol_mid = (mid.m_plus + mid.m_minus - mid.vref32).abs();
        assert!(viol_mid > 0.02, "I1 violation at code 16: {viol_mid}");
        let near = solve_ref_network(&rb, &s1, &s2, VBG_NOM, 5, 0).unwrap();
        let viol_near = (near.m_plus + near.m_minus - near.vref32).abs();
        assert!(
            viol_near < viol_mid / 10.0,
            "code 5 cancels: {viol_near} vs {viol_mid}"
        );
    }

    #[test]
    fn buffer_offset_scales_all_taps_and_preserves_i1() {
        // The key escape mechanism of the paper: reference-buffer amp
        // offsets rescale every tap, so M+ + M− still equals the (shifted)
        // on-chip VREF[32]. The I1 checker compares against that same
        // on-chip tap → no violation.
        let (mut rb, s1, s2) = parts();
        rb.set_defect(Some((0, DefectKind::ShortGs))); // +150 mV input offset
        for code in [0u8, 5, 16, 27] {
            let out = solve_ref_network(&rb, &s1, &s2, VBG_NOM, code, code).unwrap();
            assert!((out.m_plus + out.m_minus - out.vref32).abs() < 1e-6);
            assert!((out.l_plus + out.l_minus - out.vref32).abs() < 1e-6);
        }
        // ...even though the absolute level is badly wrong.
        let out = solve_ref_network(&rb, &s1, &s2, VBG_NOM, 16, 16).unwrap();
        assert!((out.vref32 - AdcConfig::default().vref_fs).abs() > 0.1);
    }

    #[test]
    fn stuck_on_driver_makes_code_selective_error() {
        // PMOS driver short on tap 20 of SUBDAC1's P mux: tap 20 is always
        // connected. When code 4 is selected, M+ becomes a divider between
        // VREF[4] and VREF[20] → detected at that code. When code 20 is
        // selected the defect is invisible.
        let (rb, mut s1, s2) = parts();
        let idx = 20 * PER_TAP + 3; // tap 20, drvP
        s1.set_defect(Some((idx, DefectKind::ShortDs)));
        let bad = solve_ref_network(&rb, &s1, &s2, VBG_NOM, 4, 0).unwrap();
        let viol_bad = (bad.m_plus + bad.m_minus - bad.vref32).abs();
        assert!(viol_bad > 0.05, "violation at code 4: {viol_bad}");
        let good = solve_ref_network(&rb, &s1, &s2, VBG_NOM, 20, 0).unwrap();
        let viol_good = (good.m_plus + good.m_minus - good.vref32).abs();
        assert!(viol_good < 1e-3, "violation at code 20: {viol_good}");
    }

    #[test]
    fn stuck_off_driver_floats_output_at_its_code() {
        let (rb, mut s1, s2) = parts();
        let idx = 7 * PER_TAP + 2; // tap 7, drvN shorted → control stuck low
        s1.set_defect(Some((idx, DefectKind::ShortDs)));
        // Selecting tap 7: the switch never closes, M+ floats to ~0 (gmin).
        let out = solve_ref_network(&rb, &s1, &s2, VBG_NOM, 7, 0).unwrap();
        assert!(out.m_plus.abs() < 0.05, "floating M+ = {}", out.m_plus);
        // Other codes are unaffected.
        let ok = solve_ref_network(&rb, &s1, &s2, VBG_NOM, 8, 0).unwrap();
        assert!((ok.m_plus - 8.0 / 32.0 * ok.vref32).abs() < 1e-4);
    }

    #[test]
    fn decoder_stuck_bit_detected_via_one_sided_error() {
        let (rb, mut s1, s2) = parts();
        // P-decoder bit 3 PMOS short → bit stuck 1 → code 2 decodes as 10.
        let idx = 2 * MUX_COMPONENTS + 3 * 2 + 1;
        s1.set_defect(Some((idx, DefectKind::ShortDs)));
        let out = solve_ref_network(&rb, &s1, &s2, VBG_NOM, 2, 0).unwrap();
        // M+ selects tap 10 while M− correctly selects tap 30.
        assert!((out.m_plus - 10.0 / 32.0 * out.vref32).abs() < 1e-4);
        let violation = (out.m_plus + out.m_minus - out.vref32).abs();
        assert!(violation > 0.2, "decoder violation {violation}");
        // Codes that already have bit 3 set are unaffected.
        let ok = solve_ref_network(&rb, &s1, &s2, VBG_NOM, 10, 0).unwrap();
        assert!((ok.m_plus + ok.m_minus - ok.vref32).abs() < 1e-4);
    }

    #[test]
    fn tg_single_open_is_mild_mid_ladder() {
        let (rb, mut s1, s2) = parts();
        // One pass device open at a mid-ladder tap: the other polarity
        // still conducts at 2×Ron with zero DC error (no load current) —
        // a realistic analog escape.
        let idx = 20 * PER_TAP; // tap 20 (0.75 V), swN open → PMOS carries
        s1.set_defect(Some((idx, DefectKind::OpenSource)));
        let out = solve_ref_network(&rb, &s1, &s2, VBG_NOM, 20, 0).unwrap();
        assert!((out.m_plus + out.m_minus - out.vref32).abs() < 1e-5);
    }

    #[test]
    fn tg_single_open_floats_near_the_rail() {
        let (rb, mut s1, s2) = parts();
        // The same open at a bottom tap: a PMOS alone cannot pass 0.19 V,
        // so the selected tap is unreachable and M+ floats — detected.
        let idx = 5 * PER_TAP; // tap 5 (0.19 V), swN open
        s1.set_defect(Some((idx, DefectKind::OpenSource)));
        let out = solve_ref_network(&rb, &s1, &s2, VBG_NOM, 5, 0).unwrap();
        assert!(out.m_plus.abs() < 0.05, "floating M+ = {}", out.m_plus);
    }

    /// `SubDac::alters` is exact: over every sub-DAC site, MOSFET defect
    /// kind and counter code `c` it holds exactly when the reference-network
    /// netlist differs from the defect-free one, at `(c, c)` and with the
    /// other sub-DAC's code at 0, 16 and 31.
    #[test]
    fn alters_exactly_when_the_network_changes() {
        let cfg = AdcConfig::default();
        let (rb, s1, s2) = parts();
        let healthy: Vec<Netlist> = (0..32 * 32)
            .map(|i| ref_network_netlist(&rb, &s1, &s2, VBG_NOM, (i / 32) as u8, (i % 32) as u8))
            .collect();
        let (mut cases, mut altered) = (0, 0);
        for block in [BlockKind::SubDac1, BlockKind::SubDac2] {
            let mut sub = SubDac::new(block);
            for idx in 0..SUBDAC_COMPONENTS {
                for &kind in ComponentKind::Mosfet.applicable_defects() {
                    sub.set_defect(Some((idx, kind)));
                    for c in 0..32u8 {
                        for other in [c, 0, 16, 31] {
                            let (sd1, sd2, m, l) = match block {
                                BlockKind::SubDac1 => (&sub, &s2, c, other),
                                _ => (&s1, &sub, other, c),
                            };
                            let nl = ref_network_netlist(&rb, sd1, sd2, VBG_NOM, m, l);
                            let differs = nl != healthy[usize::from(m) * 32 + usize::from(l)];
                            assert_eq!(
                                sd1.alters(m, &cfg) || sd2.alters(l, &cfg),
                                differs,
                                "{block:?} component {idx} {kind:?} @ ({m}, {l})"
                            );
                            cases += 1;
                            altered += usize::from(differs);
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 2 * SUBDAC_COMPONENTS * 6 * 32 * 4);
        assert!(0 < altered && altered < cases, "{altered} of {cases}");
    }

    #[test]
    fn component_counts() {
        let (rb, s1, _) = parts();
        assert_eq!(
            rb.catalog().len(),
            BUFFER_TRANSISTORS + 1 + LADDER_RESISTORS
        );
        assert_eq!(s1.catalog().len(), SUBDAC_COMPONENTS);
        assert_eq!(SUBDAC_COMPONENTS, 284);
    }

    #[test]
    fn mismatch_ladder_keeps_approximate_complement() {
        let (mut rb, s1, s2) = parts();
        let mut mm = RefBufMismatch::default();
        for (i, slot) in mm.ladder.iter_mut().enumerate() {
            *slot = if i % 2 == 0 { 0.003 } else { -0.003 };
        }
        rb.set_mismatch(mm);
        let out = solve_ref_network(&rb, &s1, &s2, VBG_NOM, 5, 9).unwrap();
        // Complement holds to within a few mV under 0.3 % mismatch.
        let dev = (out.m_plus + out.m_minus - out.vref32).abs();
        assert!(dev < 5e-3, "mismatch deviation {dev}");
        assert!(dev > 0.0);
    }
}
