//! Comparator chain (Fig. 3): pre-amplifier, comparator latch, RS latch,
//! and the pre-amplifier offset-compensation circuit.
//!
//! The chain compares the two DAC outputs; its intermediate nodes carry two
//! of the paper's invariances:
//!
//! * I4 — `LIN+ + LIN− = 2·Vcm2` at the fully-differential preamp outputs,
//! * I5 — `sgn(Q+ − Q−) = sgn(LIN+ − LIN−)`,
//! * I6 — `Q+ + Q− = VDD` at the complementary latch outputs.
//!
//! Blocks are behavioral (gain/offset/clip models) with every transistor
//! and capacitor kept as an individually corruptible defect site. The
//! mapping rules follow the usual failure signatures: DS shorts rail a
//! node, gate shorts create large offsets or stuck controls, opens kill one
//! side or (for the auto-zero) silently disable the correction — the
//! latter being precisely why the paper measures only 15 % L-W coverage on
//! the offset-compensation circuit.

use crate::config::AdcConfig;
use crate::fault::{BlockKind, ComponentInfo, ComponentKind, DefectKind};

/// Preamp transistor count (diff pair, loads, tail).
const PREAMP_TRANSISTORS: usize = 5;
/// Comparator-latch transistor count.
const LATCH_TRANSISTORS: usize = 7;
/// RS-latch transistor count (two cross-coupled NANDs, minimized).
const RS_TRANSISTORS: usize = 8;
/// Offset-compensation sites: 4 switches + 2 storage caps.
const OFFSET_SWITCHES: usize = 4;
const OFFSET_CAPS: usize = 2;

/// Mismatch knobs of the comparator chain.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComparatorMismatch {
    /// Preamp raw input offset in volts (before auto-zero).
    pub preamp_offset: f64,
    /// Preamp output common-mode error in volts.
    pub vcm2_err: f64,
    /// Relative preamp gain error.
    pub gain_err: f64,
    /// Comparator-latch input offset in volts.
    pub latch_offset: f64,
}

/// Differential outputs of the preamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreampOut {
    /// LIN+ node voltage.
    pub lin_p: f64,
    /// LIN− node voltage.
    pub lin_n: f64,
}

/// Complementary latch outputs after the RS stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatchOut {
    /// Q+ voltage (VDD or 0 when healthy).
    pub q_p: f64,
    /// Q− voltage.
    pub q_n: f64,
    /// The captured decision bit (true when DAC+ > DAC− as seen by the
    /// latch).
    pub decision: bool,
}

/// Behavioral corruption classes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PreampFault {
    None,
    /// Gain multiplied.
    GainScale(f64),
    /// LIN+ stuck at a voltage.
    StuckP(f64),
    /// LIN− stuck at a voltage.
    StuckN(f64),
    /// Output common mode shifted (V).
    CmShift(f64),
    /// Gate short on an input device: the LIN output on that side is
    /// dragged to the DAC input through the 10 Ω short, wrecking the
    /// output common mode (caught by I4).
    FollowP,
    /// Same on the negative side.
    FollowN,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum LatchFault {
    None,
    /// Extra decision offset (V at the latch input).
    Offset(f64),
    /// Both outputs stuck at this voltage (I6 violated).
    BothStuck(f64),
    /// Output pair swapped polarity (cross-coupled short).
    Inverted,
    /// Q+ stuck at value while Q− still toggles.
    StuckP(f64),
    /// Input-device gate short: the LIN node on that side is dragged
    /// toward the latch's common source each strobe (I4 signature);
    /// `true` = positive side.
    DragLin(bool),
    /// Input device open: the latch only sees one side — its decision is
    /// forced regardless of the input sign (I5 signature).
    ForcedDecision(bool),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum RsFault {
    None,
    /// Both outputs at this voltage.
    BothStuck(f64),
    /// Q+ forced to this value.
    ForceP(f64),
    /// Q− forced to this value.
    ForceN(f64),
    /// Outputs weakened: levels pulled toward mid-rail by this amount (V).
    LevelDegraded(f64),
}

/// The comparator chain block group.
#[derive(Debug, Clone)]
pub struct ComparatorChain {
    cfg: AdcConfig,
    defect: Option<(usize, DefectKind)>,
    mismatch: ComparatorMismatch,
    /// Nominal bandgap voltage; preamp bias (gain, Vcm2) tracks VBG.
    vbg_nominal: f64,
}

/// Local component layout.
const PREAMP_BASE: usize = 0;
const LATCH_BASE: usize = PREAMP_BASE + PREAMP_TRANSISTORS;
const RS_BASE: usize = LATCH_BASE + LATCH_TRANSISTORS;
const OFFSET_BASE: usize = RS_BASE + RS_TRANSISTORS;
/// Total components across the four blocks.
pub(crate) const COMPARATOR_COMPONENTS: usize =
    PREAMP_TRANSISTORS + LATCH_TRANSISTORS + RS_TRANSISTORS + OFFSET_SWITCHES + OFFSET_CAPS;

impl ComparatorChain {
    /// Creates the chain.
    pub fn new(cfg: &AdcConfig, vbg_nominal: f64) -> Self {
        assert!(vbg_nominal > 0.1, "nominal bandgap voltage implausible");
        Self {
            cfg: cfg.clone(),
            defect: None,
            mismatch: ComparatorMismatch::default(),
            vbg_nominal,
        }
    }

    /// Builds the local component catalog (preamp, latch, RS, offset comp).
    pub(crate) fn catalog(&self) -> Vec<ComponentInfo> {
        let mut components = Vec::with_capacity(COMPARATOR_COMPONENTS);
        for i in 1..=PREAMP_TRANSISTORS {
            components.push(ComponentInfo {
                block: BlockKind::Preamplifier,
                name: format!("preamp/m{i}"),
                kind: ComponentKind::Mosfet,
                area: 2.0,
            });
        }
        for i in 1..=LATCH_TRANSISTORS {
            components.push(ComponentInfo {
                block: BlockKind::ComparatorLatch,
                name: format!("complatch/m{i}"),
                kind: ComponentKind::Mosfet,
                area: 1.0,
            });
        }
        for i in 1..=RS_TRANSISTORS {
            components.push(ComponentInfo {
                block: BlockKind::RsLatch,
                name: format!("rslatch/m{i}"),
                kind: ComponentKind::Mosfet,
                area: 1.0,
            });
        }
        for i in 1..=OFFSET_SWITCHES {
            components.push(ComponentInfo {
                block: BlockKind::OffsetCompensation,
                name: format!("offsetcomp/sw{i}"),
                kind: ComponentKind::Mosfet,
                area: 1.0,
            });
        }
        for i in 1..=OFFSET_CAPS {
            components.push(ComponentInfo {
                block: BlockKind::OffsetCompensation,
                name: format!("offsetcomp/c{i}"),
                kind: ComponentKind::Capacitor,
                area: 15.0,
            });
        }
        components
    }

    pub(crate) fn set_defect(&mut self, defect: Option<(usize, DefectKind)>) {
        self.defect = defect;
    }

    /// Sets the mismatch sample.
    pub fn set_mismatch(&mut self, m: ComparatorMismatch) {
        self.mismatch = m;
    }

    fn preamp_fault(&self) -> PreampFault {
        let Some((idx, kind)) = self.defect else {
            return PreampFault::None;
        };
        if !(PREAMP_BASE..PREAMP_BASE + PREAMP_TRANSISTORS).contains(&idx) {
            return PreampFault::None;
        }
        let vdda = self.cfg.vdda;
        match (idx - PREAMP_BASE, kind) {
            // m1/m2: input pair. Gate shorts tie the DAC input straight
            // into the output leg through 10 Ω — not a clean offset but an
            // output dragged to the input level (I4 signature).
            (0, DefectKind::ShortGd) | (0, DefectKind::ShortGs) => PreampFault::FollowP,
            (1, DefectKind::ShortGd) | (1, DefectKind::ShortGs) => PreampFault::FollowN,
            // DS short: the output node is tied to the tail (~0.35 V).
            (0, DefectKind::ShortDs) => PreampFault::StuckP(0.35),
            (1, DefectKind::ShortDs) => PreampFault::StuckN(0.35),
            (0, _) => PreampFault::StuckP(vdda), // open input device: that leg starves
            (1, _) => PreampFault::StuckN(vdda),
            // m3/m4: loads.
            (2, k) if k.is_short() => PreampFault::StuckP(vdda),
            (3, k) if k.is_short() => PreampFault::StuckN(vdda),
            (2, _) => PreampFault::StuckP(0.05),
            (3, _) => PreampFault::StuckN(0.05),
            // m5: tail current source.
            (4, DefectKind::ShortDs) => PreampFault::CmShift(0.25),
            // Gate short on the tail: only disturbs the (low-impedance)
            // bias line slightly — a realistic sub-window escape.
            (4, DefectKind::ShortGd) => PreampFault::CmShift(0.008),
            // Gate–source short degenerates the tail: reduced current,
            // reduced gain, sums intact — another realistic escape.
            (4, DefectKind::ShortGs) => PreampFault::GainScale(0.3),
            // Tail open: amp dead, both outputs at the supply.
            (4, _) => PreampFault::CmShift(vdda - self.vcm2_nominal()),
            _ => PreampFault::None,
        }
    }

    fn latch_fault(&self) -> LatchFault {
        let Some((idx, kind)) = self.defect else {
            return LatchFault::None;
        };
        if !(LATCH_BASE..LATCH_BASE + LATCH_TRANSISTORS).contains(&idx) {
            return LatchFault::None;
        }
        let vdd = self.cfg.vdd;
        match (idx - LATCH_BASE, kind) {
            // m1/m2: input devices. Gate shorts load the preamp output
            // (the latch internals rail on every strobe); a DS short makes
            // the input branch conduct permanently — a decision offset.
            (0, DefectKind::ShortGd) | (0, DefectKind::ShortGs) => LatchFault::DragLin(true),
            (1, DefectKind::ShortGd) | (1, DefectKind::ShortGs) => LatchFault::DragLin(false),
            (0, DefectKind::ShortDs) => LatchFault::Offset(0.5),
            (1, DefectKind::ShortDs) => LatchFault::Offset(-0.5),
            (0, _) => LatchFault::ForcedDecision(true),
            (1, _) => LatchFault::ForcedDecision(false),
            // m3/m4: cross-coupled pair.
            (2, DefectKind::ShortDs) => LatchFault::BothStuck(vdd),
            (3, DefectKind::ShortDs) => LatchFault::BothStuck(0.0),
            (2, k) | (3, k) if k.is_short() => LatchFault::Inverted,
            (2, _) => LatchFault::StuckP(vdd),
            (3, _) => LatchFault::StuckP(0.0),
            // m5: strobe device.
            (4, DefectKind::ShortDs) => LatchFault::Offset(0.05), // always regenerating
            (4, k) if k.is_short() => LatchFault::BothStuck(vdd), // strobe control corrupted
            (4, _) => LatchFault::BothStuck(vdd), // never strobes → precharge forever
            // m6/m7: reset devices.
            (5, k) if k.is_short() => LatchFault::BothStuck(vdd),
            (6, k) if k.is_short() => LatchFault::BothStuck(0.0),
            // Reset opens: node droops slightly; decision unaffected at DC.
            _ => LatchFault::None,
        }
    }

    fn rs_fault(&self) -> RsFault {
        let Some((idx, kind)) = self.defect else {
            return RsFault::None;
        };
        if !(RS_BASE..RS_BASE + RS_TRANSISTORS).contains(&idx) {
            return RsFault::None;
        }
        let vdd = self.cfg.vdd;
        match (idx - RS_BASE, kind) {
            // Cross-coupled NAND pull-ups.
            (0, DefectKind::ShortDs) => RsFault::ForceP(vdd),
            (1, DefectKind::ShortDs) => RsFault::ForceN(vdd),
            // Pull-downs.
            (2, DefectKind::ShortDs) => RsFault::ForceP(0.0),
            (3, DefectKind::ShortDs) => RsFault::ForceN(0.0),
            // Gate shorts on the coupling: both sides fight → degraded
            // complementary levels.
            (0..=3, k) if k.is_short() => RsFault::LevelDegraded(0.25),
            // Series input devices: opens leave the latch holding its
            // previous state — a timing fault with no DC signature at the
            // strobe instant we model → escape.
            (4..=7, k) if k.is_open() => RsFault::None,
            (4, k) if k.is_short() => RsFault::ForceP(vdd),
            (5, k) if k.is_short() => RsFault::ForceN(vdd),
            // A short across the shared enable ties both NAND outputs high.
            (6, k) if k.is_short() => RsFault::BothStuck(vdd),
            (7, k) if k.is_short() => RsFault::LevelDegraded(0.15),
            // Opens in the pull network: weakened but correct levels.
            (0..=3, _) => RsFault::LevelDegraded(0.05),
            _ => RsFault::None,
        }
    }

    /// Residual preamp offset after the auto-zero loop, including the
    /// effect of offset-compensation defects.
    fn residual_offset(&self) -> f64 {
        // Healthy auto-zero attenuates the raw offset by ~40×.
        const AZ_ATTENUATION: f64 = 40.0;
        let raw = self.mismatch.preamp_offset;
        let Some((idx, kind)) = self.defect else {
            return raw / AZ_ATTENUATION;
        };
        if !(OFFSET_BASE..OFFSET_BASE + OFFSET_SWITCHES + OFFSET_CAPS).contains(&idx) {
            return raw / AZ_ATTENUATION;
        }
        let local = idx - OFFSET_BASE;
        if local < OFFSET_SWITCHES {
            match kind {
                // A stuck-on sampling switch couples the storage node to the
                // signal path: the main signature is the common-mode
                // disturbance (see `offset_comp_cm_shift`), plus a small
                // residual offset.
                DefectKind::ShortDs => 0.002,
                DefectKind::ShortGd | DefectKind::ShortGs => 0.02,
                // Switch opens: auto-zero never refreshes → raw offset plus
                // a deterministic droop-induced residue. Small: escapes.
                _ => raw + 0.004,
            }
        } else {
            match kind {
                // Storage cap shorted: correction node held at zero → raw
                // offset fully visible plus injection error.
                DefectKind::Short => raw + 0.015,
                // Cap open/off-value: correction degraded.
                DefectKind::Open => raw + 0.005,
                DefectKind::ParamLow | DefectKind::ParamHigh => raw / (AZ_ATTENUATION / 3.0),
                _ => raw / AZ_ATTENUATION,
            }
        }
    }

    /// Disturbance injected by offset-comp switch shorts: the auto-zero
    /// storage node is tied into *one* preamp output leg, dragging LIN−
    /// down and breaking the I4 sum even when the differential path clips.
    fn offset_comp_cm_shift(&self) -> f64 {
        match self.defect {
            Some((idx, DefectKind::ShortDs))
                if (OFFSET_BASE..OFFSET_BASE + OFFSET_SWITCHES).contains(&idx) =>
            {
                -0.12
            }
            _ => 0.0,
        }
    }

    fn vcm2_nominal(&self) -> f64 {
        self.cfg.vcm2
    }

    /// Evaluates the pre-amplifier for given DAC outputs and bandgap bias.
    ///
    /// Gain and output common mode track the bias current, i.e. the bandgap
    /// voltage — a collapsed bandgap drags `Vcm2` away from its nominal
    /// value and is caught by invariance I4.
    pub fn preamp(&self, dac_p: f64, dac_n: f64, vbg: f64) -> PreampOut {
        let cfg = &self.cfg;
        let bias_ratio = (vbg / self.vbg_nominal).max(0.0);
        // Gain ∝ sqrt(Ibias); Vcm2 rises as bias starves (PMOS loads pull
        // the outputs toward VDDA when no current flows). The common-mode
        // feedback loop suppresses small bias-induced CM drift by ~3×, but
        // cannot hold the level once the bias has truly collapsed.
        const CMFB_RESIDUE: f64 = 0.3;
        let gain = cfg.preamp_gain * bias_ratio.sqrt() * (1.0 + self.mismatch.gain_err);
        let vcm2 = (self.vcm2_nominal()
            + CMFB_RESIDUE * (1.0 - bias_ratio) * (cfg.vdda - self.vcm2_nominal()))
            + self.mismatch.vcm2_err;

        let (gain, vcm2, stuck_p, stuck_n) = match self.preamp_fault() {
            PreampFault::None => (gain, vcm2, None, None),
            PreampFault::GainScale(s) => (gain * s, vcm2, None, None),
            PreampFault::StuckP(v) => (gain, vcm2, Some(v), None),
            PreampFault::StuckN(v) => (gain, vcm2, None, Some(v)),
            PreampFault::CmShift(d) => (gain, vcm2 + d, None, None),
            PreampFault::FollowP => (gain, vcm2, Some(dac_p), None),
            PreampFault::FollowN => (gain, vcm2, None, Some(dac_n)),
        };

        let diff_in = dac_p - dac_n + self.residual_offset();
        // Offset-comp switch shorts load one output leg only.
        let n_leg_shift = self.offset_comp_cm_shift();
        // Differential saturation: the swing is set by the tail current
        // through the loads (∝ bias), and saturation is symmetric about
        // the output common mode — so `LIN+ + LIN−` stays `2·Vcm2` even
        // when the amplifier is driven hard, and common-mode faults remain
        // visible to invariance I4 at every counter code.
        let swing = (0.6 * bias_ratio).max(0.02);
        let half = 0.5 * gain * diff_in;
        let half_limited = swing * (half / swing).tanh();
        let rail = |v: f64| v.clamp(0.0, cfg.vdda);
        let lin_p = stuck_p.unwrap_or_else(|| rail(vcm2 + half_limited));
        let lin_n = stuck_n.unwrap_or_else(|| rail(vcm2 + n_leg_shift - half_limited));
        PreampOut { lin_p, lin_n }
    }

    /// Evaluates the latch chain (comparator latch + RS latch) at the
    /// strobe instant.
    pub fn latch(&self, pre: PreampOut) -> LatchOut {
        let vdd = self.cfg.vdd;
        let diff = pre.lin_p - pre.lin_n + self.mismatch.latch_offset;
        let (decision, mut q_p, mut q_n) = match self.latch_fault() {
            LatchFault::DragLin(_) => {
                // The drag is applied to the observed LIN nodes in
                // `compare`; the decision itself follows the (corrupted)
                // difference.
                let d = diff > 0.0;
                (d, if d { vdd } else { 0.0 }, if d { 0.0 } else { vdd })
            }
            LatchFault::ForcedDecision(d) => {
                (d, if d { vdd } else { 0.0 }, if d { 0.0 } else { vdd })
            }
            LatchFault::None => {
                let d = diff > 0.0;
                (d, if d { vdd } else { 0.0 }, if d { 0.0 } else { vdd })
            }
            LatchFault::Offset(o) => {
                let d = diff + o > 0.0;
                (d, if d { vdd } else { 0.0 }, if d { 0.0 } else { vdd })
            }
            LatchFault::BothStuck(v) => (v > vdd / 2.0, v, v),
            LatchFault::Inverted => {
                let d = diff > 0.0;
                (d, if d { 0.0 } else { vdd }, if d { vdd } else { 0.0 })
            }
            LatchFault::StuckP(v) => {
                let d = diff > 0.0;
                (d, v, if d { 0.0 } else { vdd })
            }
        };

        match self.rs_fault() {
            RsFault::None => {}
            RsFault::BothStuck(v) => {
                q_p = v;
                q_n = v;
            }
            RsFault::ForceP(v) => q_p = v,
            RsFault::ForceN(v) => q_n = v,
            RsFault::LevelDegraded(d) => {
                // A weakened pull-up droops only the high output, so the
                // complementary sum misses VDD by `d` (I6 signature).
                if q_p > vdd / 2.0 {
                    q_p -= d;
                } else {
                    q_n -= d;
                }
            }
        }
        LatchOut { q_p, q_n, decision }
    }

    /// Full chain evaluation: preamp then latch. This is the canonical
    /// entry point: latch input-coupling defects feed back onto the
    /// observed LIN nodes here (a standalone [`ComparatorChain::preamp`]
    /// call cannot know about them).
    pub fn compare(&self, dac_p: f64, dac_n: f64, vbg: f64) -> (PreampOut, LatchOut) {
        let mut pre = self.preamp(dac_p, dac_n, vbg);
        match self.latch_fault() {
            LatchFault::DragLin(true) => pre.lin_p = (pre.lin_p - 0.35).max(0.0),
            LatchFault::DragLin(false) => pre.lin_n = (pre.lin_n - 0.35).max(0.0),
            _ => {}
        }
        let q = self.latch(pre);
        (pre, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VBG: f64 = 1.17;

    fn chain() -> ComparatorChain {
        ComparatorChain::new(&AdcConfig::default(), VBG)
    }

    #[test]
    fn nominal_invariances_hold() {
        let c = chain();
        for d in [-0.3, -0.01, 0.0, 0.004, 0.25] {
            let (pre, q) = c.compare(0.6 + d / 2.0, 0.6 - d / 2.0, VBG);
            // I4: LIN sum = 2·Vcm2 for any drive (symmetric saturation).
            assert!((pre.lin_p + pre.lin_n - 1.8).abs() < 1e-9, "I4 at d={d}");
            // I6: Q sum = VDD.
            assert!((q.q_p + q.q_n - 1.2).abs() < 1e-12, "I6 at d={d}");
            // I5: decision sign consistent.
            if d != 0.0 {
                assert_eq!(q.decision, d > 0.0, "I5 at d={d}");
                assert_eq!(q.q_p > q.q_n, pre.lin_p > pre.lin_n);
            }
        }
    }

    #[test]
    fn gain_is_applied() {
        let c = chain();
        // 2 mV input × gain 40 = 80 mV differential (small-signal region;
        // the tanh limiter compresses by < 0.3 % here).
        let pre = c.preamp(0.601, 0.599, VBG);
        assert!(
            (pre.lin_p - pre.lin_n - 0.08).abs() < 1e-3,
            "diff {}",
            pre.lin_p - pre.lin_n
        );
        // Large inputs saturate symmetrically.
        let sat = c.preamp(1.0, 0.2, VBG);
        assert!(sat.lin_p - sat.lin_n < 1.3);
        assert!((sat.lin_p + sat.lin_n - 1.8).abs() < 1e-9);
    }

    #[test]
    fn bandgap_collapse_shifts_vcm2() {
        let c = chain();
        let pre = c.preamp(0.6, 0.6, VBG * 0.3);
        let sum = pre.lin_p + pre.lin_n;
        // Bias starved: outputs ride toward VDDA (CMFB residue) → the I4
        // deviation is hundreds of millivolts, far outside the ~30 mV
        // calibrated window.
        assert!((sum - 1.8).abs() > 0.3, "I4 signal {sum}");
    }

    #[test]
    fn preamp_load_short_breaks_i4() {
        let mut c = chain();
        c.set_defect(Some((PREAMP_BASE + 2, DefectKind::ShortDs)));
        let pre = c.preamp(0.6, 0.6, VBG);
        assert!((pre.lin_p - 1.8).abs() < 1e-9);
        assert!((pre.lin_p + pre.lin_n - 1.8).abs() > 0.5);
    }

    #[test]
    fn input_pair_gate_short_drags_output_to_input() {
        // A gate short ties the LIN output to the DAC input through 10 Ω:
        // the output common mode is wrecked → I4 signature.
        let mut c = chain();
        c.set_defect(Some((PREAMP_BASE, DefectKind::ShortGs)));
        let pre = c.preamp(0.7, 0.5, VBG);
        assert!((pre.lin_p - 0.7).abs() < 1e-9, "LIN+ follows DAC+");
        assert!((pre.lin_p + pre.lin_n - 1.8).abs() > 0.2, "I4 broken");
    }

    #[test]
    fn latch_cross_couple_short_breaks_i6() {
        let mut c = chain();
        c.set_defect(Some((LATCH_BASE + 2, DefectKind::ShortDs)));
        let (_, q) = c.compare(0.7, 0.5, VBG);
        assert!(
            (q.q_p + q.q_n - 1.2).abs() > 0.5,
            "I6 signal {}",
            q.q_p + q.q_n
        );
    }

    #[test]
    fn latch_ds_short_offset_breaks_i5_near_threshold_only() {
        let mut c = chain();
        // Input-device DS short: the latch decides with a +0.5 V bias.
        c.set_defect(Some((LATCH_BASE, DefectKind::ShortDs)));
        // Small negative input: preamp says −, biased latch says + → I5
        // violated at this code.
        let (pre, q) = c.compare(0.5975, 0.6025, VBG); // −5 mV → LIN diff −0.2 V
        assert!(pre.lin_p < pre.lin_n);
        assert!(q.decision, "latch bias flips the decision");
        // Far from threshold the chain stays consistent.
        let (pre2, q2) = c.compare(0.4, 0.8, VBG); // LIN diff ≈ −1.2 V
        assert_eq!(q2.decision, pre2.lin_p > pre2.lin_n);
        assert!(!q2.decision);
    }

    #[test]
    fn latch_gate_short_drags_lin_node() {
        let mut c = chain();
        c.set_defect(Some((LATCH_BASE, DefectKind::ShortGs)));
        let (pre, _) = c.compare(0.6, 0.6, VBG);
        // The dragged LIN+ breaks the I4 sum.
        assert!((pre.lin_p + pre.lin_n - 1.8).abs() > 0.2);
    }

    #[test]
    fn latch_input_open_forces_decision() {
        let mut c = chain();
        c.set_defect(Some((LATCH_BASE + 1, DefectKind::OpenGate)));
        // Whatever the input sign, the decision is forced low → I5
        // violated whenever the preamp says +.
        let (pre, q) = c.compare(0.7, 0.5, VBG);
        assert!(pre.lin_p > pre.lin_n);
        assert!(!q.decision);
    }

    #[test]
    fn rs_force_breaks_complement() {
        let mut c = chain();
        c.set_defect(Some((RS_BASE, DefectKind::ShortDs)));
        let (_, q) = c.compare(0.5, 0.7, VBG); // decision low → q_p should be 0
        assert!((q.q_p - 1.2).abs() < 1e-12, "forced high");
        assert!((q.q_p + q.q_n - 1.2).abs() > 0.5);
    }

    #[test]
    fn rs_input_open_is_timing_escape() {
        let mut c = chain();
        c.set_defect(Some((RS_BASE + 4, DefectKind::OpenGate)));
        let (_, q) = c.compare(0.7, 0.5, VBG);
        assert!((q.q_p + q.q_n - 1.2).abs() < 1e-12, "no DC signature");
    }

    #[test]
    fn offset_comp_switch_open_leaves_raw_offset() {
        let mut c = chain();
        c.set_mismatch(ComparatorMismatch {
            preamp_offset: 0.006,
            ..Default::default()
        });
        let healthy_resid = c.residual_offset();
        assert!(
            healthy_resid.abs() < 5e-4,
            "auto-zero works: {healthy_resid}"
        );
        c.set_defect(Some((OFFSET_BASE, DefectKind::OpenGate)));
        let broken_resid = c.residual_offset();
        assert!(broken_resid.abs() > 5e-3, "auto-zero dead: {broken_resid}");
        // Even so, I4 still holds — the offset is differential.
        let pre = c.preamp(0.6, 0.6, VBG);
        assert!((pre.lin_p + pre.lin_n - 1.8).abs() < 1e-9);
    }

    #[test]
    fn offset_comp_switch_short_disturbs_cm() {
        let mut c = chain();
        c.set_defect(Some((OFFSET_BASE + 1, DefectKind::ShortDs)));
        let pre = c.preamp(0.6, 0.6, VBG);
        assert!((pre.lin_p + pre.lin_n - 1.8).abs() > 0.1, "CM disturbed");
    }

    #[test]
    fn catalog_counts() {
        let catalog = chain().catalog();
        assert_eq!(catalog.len(), COMPARATOR_COMPONENTS);
        let count = |b: BlockKind| catalog.iter().filter(|x| x.block == b).count();
        assert_eq!(count(BlockKind::Preamplifier), 5);
        assert_eq!(count(BlockKind::ComparatorLatch), 7);
        assert_eq!(count(BlockKind::RsLatch), 8);
        assert_eq!(count(BlockKind::OffsetCompensation), 6);
    }
}
