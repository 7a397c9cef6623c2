//! Whole-ADC static netlist for symmetry-orbit & detectability analysis.
//!
//! The runtime blocks deliberately mix structural netlists with
//! behavioral abstractions (error amps, decoders, switch drivers), and
//! the electrical netlists they emit are *state-dependent* — a mux at a
//! fixed code only contains the conducting tap switch. Neither shape
//! suits static analysis, which needs every defect site present at once
//! with the circuit's design symmetry intact. This module therefore emits
//! one merged, defect-free netlist of the full analog signal path at the
//! symmetric DAC code, where:
//!
//! * every physical catalog component of the bandgap, reference buffer,
//!   ladder, both sub-DAC muxes (all 33 taps, conducting or not, plus
//!   their select drivers and decoder bits), the SC array, and the Vcm
//!   generator is bound to a concrete device — except the dead end taps
//!   (P/tap32, N/tap0), which the conversion sweep never selects and
//!   whose sweep behavior a single-code netlist cannot express — and
//! * the P/N mirror of each differential branch is an *automorphism* of
//!   the graph — both mux sides decode the same symmetric code, both SC
//!   sides sample the same common-mode input — so an orbit analyzer can
//!   prove which defect sites are equivalent by symmetry.
//!
//! Comparator-chain components (pre-amp, latches, offset compensation)
//! stay unbound: they are behavioral all the way down in the runtime
//! model, and an honest static model must not invent detectability
//! claims for them. Sub-blocks that the runtime abstracts behaviorally
//! but that have a conventional transistor-level shape (the error amps,
//! the start-up pair, the mux drivers and decoders) are emitted as
//! plausible structural stand-ins: the exact operating point never
//! matters here — only connectivity, device kind, and the mirror
//! structure do.

use std::collections::BTreeMap;

use symbist_circuit::netlist::{DeviceId, MosPolarity, Netlist, NodeId};

use crate::adc::SarAdc;
use crate::config::AdcConfig;
use crate::fault::Faultable;
use crate::refnet::{LADDER_RESISTORS, TAPS};
use crate::symmetry::SYMMETRIC_CODE;

/// Synthetic NMOS threshold for structural stand-ins.
const N_VTH: f64 = 0.40;
/// Synthetic NMOS transconductance factor.
const N_KP: f64 = 3e-4;
/// Synthetic PMOS threshold (matches the bandgap mirror devices).
const P_VTH: f64 = 0.45;
/// Synthetic PMOS transconductance factor.
const P_KP: f64 = 2e-4;
/// Channel-length modulation for all stand-ins.
const LAMBDA: f64 = 0.02;
/// Bias-leg resistor for the structural amplifiers.
const R_BIAS: f64 = 100e3;
/// Unit resistor of the binary-weighted decoder summing leg.
const R_DECODE: f64 = 1e3;

/// One invariance as declared by the static model: a named set of
/// observed nodes plus the reference taps its window comparator uses.
#[derive(Debug, Clone)]
pub struct StaticObservation {
    /// Invariance name (`I1`, `I2`, `I3`).
    pub name: String,
    /// Kind tag (`complementary`, `dac-sum`).
    pub kind: String,
    /// Whether the observed nodes are claimed mutually symmetric (P/N
    /// mirror halves).
    pub symmetric: bool,
    /// Observed nodes.
    pub observed: Vec<NodeId>,
    /// Reference nodes.
    pub reference: Vec<NodeId>,
}

/// The whole-ADC static model: one merged netlist, the catalog-index →
/// device bindings, and the declared invariance observations.
#[derive(Debug)]
pub struct AdcStaticModel {
    /// The merged, defect-free analog netlist at the symmetric code.
    pub netlist: Netlist,
    /// `bindings[i]` is the device representing catalog component `i`,
    /// `None` for behavioral components with no structural stand-in.
    pub bindings: Vec<Option<DeviceId>>,
    /// The declared invariances over nodes of [`AdcStaticModel::netlist`].
    pub observations: Vec<StaticObservation>,
}

impl AdcStaticModel {
    /// Number of catalog components bound to a device.
    pub fn bound_count(&self) -> usize {
        self.bindings.iter().flatten().count()
    }
}

impl SarAdc {
    /// Builds the whole-ADC static model (see the module docs).
    pub fn analysis_model(&self) -> AdcStaticModel {
        build_model(self)
    }
}

/// Records `name → id`, panicking in debug builds on duplicate names
/// (a duplicate would silently steal another component's binding).
fn bind(bound: &mut BTreeMap<String, DeviceId>, name: String, id: DeviceId) {
    let prior = bound.insert(name, id);
    debug_assert!(prior.is_none(), "duplicate catalog binding");
}

/// Emits the bandgap core: mirror PMOS triple, the ΔVBE branches, the
/// output leg, a structural five-transistor error amp, and the start-up
/// pair. Returns the `vbg` node.
fn emit_bandgap(nl: &mut Netlist, bound: &mut BTreeMap<String, DeviceId>, vdda: NodeId) -> NodeId {
    let va = nl.node("bg_va");
    let vb = nl.node("bg_vb");
    let vb2 = nl.node("bg_vb2");
    let vg = nl.node("bg_vg");
    let vbg = nl.node("vbg");
    let vd3 = nl.node("bg_vd3");

    // Mirror PMOS (values from the runtime block).
    for (name, drain) in [("m1", va), ("m2", vb), ("m3", vbg)] {
        let id = nl.mosfet(drain, vg, vdda, MosPolarity::Pmos, P_VTH, P_KP, LAMBDA);
        bind(bound, format!("bandgap/{name}"), id);
    }
    // Branch A: unit diode. Branch B: R1 + 8× diode. Output leg: R2 + D3.
    let d1 = nl.diode(va, Netlist::GND, 1e-16, 1.0);
    bind(bound, "bandgap/d1".into(), d1);
    let r1 = nl.resistor(vb, vb2, 5_200.0);
    bind(bound, "bandgap/r1".into(), r1);
    let d2 = nl.diode(vb2, Netlist::GND, 8e-16, 1.0);
    bind(bound, "bandgap/d2".into(), d2);
    let r2 = nl.resistor(vbg, vd3, 52_000.0);
    bind(bound, "bandgap/r2".into(), r2);
    let d3 = nl.diode(vd3, Netlist::GND, 1e-16, 1.0);
    bind(bound, "bandgap/d3".into(), d3);
    let c_dec = nl.capacitor(vbg, Netlist::GND, 200e-12);
    bind(bound, "bandgap/c_dec".into(), c_dec);

    // Structural stand-in for the behavioral error amp: five-transistor
    // OTA sensing (vb − va), output driving the mirror gate.
    let x1 = nl.node("bg_amp_x1");
    let tail = nl.node("bg_amp_tail");
    let bias = nl.node("bg_amp_bias");
    let ma1 = nl.mosfet(x1, vb, tail, MosPolarity::Nmos, N_VTH, N_KP, LAMBDA);
    bind(bound, "bandgap/amp/ma1".into(), ma1);
    let ma2 = nl.mosfet(vg, va, tail, MosPolarity::Nmos, N_VTH, N_KP, LAMBDA);
    bind(bound, "bandgap/amp/ma2".into(), ma2);
    let ma3 = nl.mosfet(x1, x1, vdda, MosPolarity::Pmos, P_VTH, P_KP, LAMBDA);
    bind(bound, "bandgap/amp/ma3".into(), ma3);
    let ma4 = nl.mosfet(vg, x1, vdda, MosPolarity::Pmos, P_VTH, P_KP, LAMBDA);
    bind(bound, "bandgap/amp/ma4".into(), ma4);
    let ma5 = nl.mosfet(
        tail,
        bias,
        Netlist::GND,
        MosPolarity::Nmos,
        N_VTH,
        N_KP,
        LAMBDA,
    );
    bind(bound, "bandgap/amp/ma5".into(), ma5);
    nl.resistor(vdda, bias, R_BIAS);

    // Start-up pair: injects into the mirror gate until vbg comes up.
    let start = nl.node("bg_start");
    let ms1 = nl.mosfet(
        vg,
        start,
        Netlist::GND,
        MosPolarity::Nmos,
        N_VTH,
        N_KP,
        LAMBDA,
    );
    bind(bound, "bandgap/startup/ms1".into(), ms1);
    let ms2 = nl.mosfet(start, vbg, vdda, MosPolarity::Pmos, P_VTH, P_KP, LAMBDA);
    bind(bound, "bandgap/startup/ms2".into(), ms2);
    vbg
}

/// Emits the reference buffer (structural stand-in of the behavioral
/// eight-transistor amp, its decoupling cap) and the 32-resistor ladder.
/// Returns the tap nodes (`taps[0]` is ground, `taps[32]` is `VREF32`).
fn emit_refbuf(
    nl: &mut Netlist,
    bound: &mut BTreeMap<String, DeviceId>,
    cfg: &AdcConfig,
    vdda: NodeId,
    vbg: NodeId,
) -> Vec<NodeId> {
    let mut taps: Vec<NodeId> = Vec::with_capacity(TAPS);
    taps.push(Netlist::GND);
    for i in 1..TAPS {
        taps.push(nl.node(&format!("vref{i}")));
    }
    let vref32 = taps[TAPS - 1];

    // Two-stage buffer: diff pair (vbg vs the fed-back VREF32), mirror
    // load, tail, class-AB-ish output stage, bias diode.
    let x1 = nl.node("rb_x1");
    let out = nl.node("rb_out");
    let tail = nl.node("rb_tail");
    let bias = nl.node("rb_bias");
    let drv = nl.node("rb_drv");
    let mb1 = nl.mosfet(x1, vbg, tail, MosPolarity::Nmos, N_VTH, N_KP, LAMBDA);
    bind(bound, "refbuf/amp/mb1".into(), mb1);
    let mb2 = nl.mosfet(out, vref32, tail, MosPolarity::Nmos, N_VTH, N_KP, LAMBDA);
    bind(bound, "refbuf/amp/mb2".into(), mb2);
    let mb3 = nl.mosfet(x1, x1, vdda, MosPolarity::Pmos, P_VTH, P_KP, LAMBDA);
    bind(bound, "refbuf/amp/mb3".into(), mb3);
    let mb4 = nl.mosfet(out, x1, vdda, MosPolarity::Pmos, P_VTH, P_KP, LAMBDA);
    bind(bound, "refbuf/amp/mb4".into(), mb4);
    let mb5 = nl.mosfet(
        tail,
        bias,
        Netlist::GND,
        MosPolarity::Nmos,
        N_VTH,
        N_KP,
        LAMBDA,
    );
    bind(bound, "refbuf/amp/mb5".into(), mb5);
    let mb6 = nl.mosfet(drv, out, vdda, MosPolarity::Pmos, P_VTH, P_KP, LAMBDA);
    bind(bound, "refbuf/amp/mb6".into(), mb6);
    let mb7 = nl.mosfet(
        drv,
        bias,
        Netlist::GND,
        MosPolarity::Nmos,
        N_VTH,
        N_KP,
        LAMBDA,
    );
    bind(bound, "refbuf/amp/mb7".into(), mb7);
    let mb8 = nl.mosfet(
        bias,
        bias,
        Netlist::GND,
        MosPolarity::Nmos,
        N_VTH,
        N_KP,
        LAMBDA,
    );
    bind(bound, "refbuf/amp/mb8".into(), mb8);
    nl.resistor(vdda, bias, R_BIAS);
    // Buffer output impedance into the ladder top (as in the runtime
    // reference network), plus the output decoupling capacitor.
    nl.resistor(drv, vref32, 5.0);
    let c_dec = nl.capacitor(vref32, Netlist::GND, 200e-12);
    bind(bound, "refbuf/c_dec".into(), c_dec);

    for r in 0..LADDER_RESISTORS {
        let id = nl.resistor(taps[r], taps[r + 1], cfg.ladder_r);
        bind(bound, format!("refbuf/ladder/r{r}"), id);
    }
    taps
}

/// Emits one sub-DAC: two complementary 33:1 muxes (every tap present,
/// with its transmission gate and select driver) plus the two 5-bit
/// decoders, both sides decoding the same symmetric code so the P ↔ N
/// swap is an automorphism.
fn emit_subdac(
    nl: &mut Netlist,
    bound: &mut BTreeMap<String, DeviceId>,
    cfg: &AdcConfig,
    prefix: &str,
    taps: &[NodeId],
    vdd: NodeId,
    outs: (NodeId, NodeId),
) {
    for (side, dec, out) in [("mux_p", "dec_p", outs.0), ("mux_n", "dec_n", outs.1)] {
        // The decoders drive a per-side select bus through binary-weighted
        // summing legs — a structural abstraction of the 5→33 decode whose
        // per-bit weight keeps the bits in distinct orbits.
        let bus = nl.node(&format!("{prefix}_{side}_bus"));
        for bit in 0..5u8 {
            let input = nl.node(&format!("{prefix}_{dec}_in{bit}"));
            let mid = nl.node(&format!("{prefix}_{dec}_mid{bit}"));
            let level = if (SYMMETRIC_CODE >> bit) & 1 == 1 {
                cfg.vdd
            } else {
                0.0
            };
            nl.vsource(input, Netlist::GND, level);
            let n = nl.mosfet(
                mid,
                input,
                Netlist::GND,
                MosPolarity::Nmos,
                N_VTH,
                N_KP,
                LAMBDA,
            );
            bind(bound, format!("{prefix}/{dec}/bit{bit}/n"), n);
            let p = nl.mosfet(mid, input, vdd, MosPolarity::Pmos, P_VTH, P_KP, LAMBDA);
            bind(bound, format!("{prefix}/{dec}/bit{bit}/p"), p);
            nl.resistor(mid, bus, R_DECODE * f64::from(1u32 << bit));
        }
        // One end tap per side is dead over the conversion sweep: a 5-bit
        // code addresses taps 0..=31 on the P mux and 32−code = 1..=32 on
        // the N mux, so P/tap32 and N/tap0 are never selected. The static
        // netlist still emits them (removing them would break the P ↔ N
        // automorphism for every *live* tap), but their components stay
        // UNBOUND: at the frozen symmetric code a dead tap is graph-
        // identical to its live mirror, yet its defects can behave
        // differently over the sweep (a stuck-off select driver on a tap
        // that is never selected is invisible), so claiming orbit
        // equivalence for them would extrapolate a lie. Unbound components
        // fall into per-component singleton classes and are simulated
        // individually.
        let dead_tap = if side == "mux_p" { TAPS - 1 } else { 0 };
        for (tap, &tap_node) in taps.iter().enumerate() {
            let bind_live = |bound: &mut BTreeMap<String, DeviceId>, name, dev| {
                if tap != dead_tap {
                    bind(bound, name, dev);
                }
            };
            // Select driver (inverter off the bus) and transmission gate.
            let selb = nl.node(&format!("{prefix}_{side}_selb{tap}"));
            let drvn = nl.mosfet(
                selb,
                bus,
                Netlist::GND,
                MosPolarity::Nmos,
                N_VTH,
                N_KP,
                LAMBDA,
            );
            bind_live(bound, format!("{prefix}/{side}/tap{tap}/drvn"), drvn);
            let drvp = nl.mosfet(selb, bus, vdd, MosPolarity::Pmos, P_VTH, P_KP, LAMBDA);
            bind_live(bound, format!("{prefix}/{side}/tap{tap}/drvp"), drvp);
            let swn = nl.mosfet(tap_node, bus, out, MosPolarity::Nmos, N_VTH, N_KP, LAMBDA);
            bind_live(bound, format!("{prefix}/{side}/tap{tap}/swn"), swn);
            let swp = nl.mosfet(tap_node, selb, out, MosPolarity::Pmos, P_VTH, P_KP, LAMBDA);
            bind_live(bound, format!("{prefix}/{side}/tap{tap}/swp"), swp);
        }
    }
}

/// Emits one SC-array side in the sampling phase (sample switches closed,
/// conversion switches open, common-mode switch closed). Returns the
/// top-plate node.
#[allow(clippy::too_many_arguments)]
fn emit_sc_side(
    nl: &mut Netlist,
    bound: &mut BTreeMap<String, DeviceId>,
    cfg: &AdcConfig,
    side: &str,
    input: NodeId,
    m: NodeId,
    l: NodeId,
    vcm_out: NodeId,
) -> NodeId {
    let top = nl.node(&format!("sc_top_{side}"));
    let bm = nl.node(&format!("sc_bm_{side}"));
    let bl = nl.node(&format!("sc_bl_{side}"));
    let c_main = nl.capacitor(top, bm, 32.0 * cfg.unit_cap);
    bind(bound, format!("scarray/{side}/c_main"), c_main);
    let c_interp = nl.capacitor(top, bl, cfg.unit_cap);
    bind(bound, format!("scarray/{side}/c_interp"), c_interp);
    if cfg.top_parasitic > 0.0 {
        nl.capacitor(top, Netlist::GND, cfg.top_parasitic);
    }
    let (ron, roff) = (cfg.switch_ron, cfg.switch_roff);
    for (name, a, b, closed) in [
        ("sw_sample_main", bm, input, true),
        ("sw_conv_main", bm, m, false),
        ("sw_sample_interp", bl, input, true),
        ("sw_conv_interp", bl, l, false),
        ("sw_cm", top, vcm_out, true),
    ] {
        let id = nl.switch(a, b, ron, roff);
        nl.set_switch(id, closed);
        bind(bound, format!("scarray/{side}/{name}"), id);
    }
    top
}

/// Emits the Vcm generator: divider off the buffered reference, ESR +
/// decoupling, push-pull buffer. Returns the buffered `vcm` node.
fn emit_vcm(
    nl: &mut Netlist,
    bound: &mut BTreeMap<String, DeviceId>,
    vdda: NodeId,
    vref32: NodeId,
) -> NodeId {
    let mid = nl.node("vcm_mid");
    let esr = nl.node("vcm_esr");
    let out = nl.node("vcm_out");
    let r_top = nl.resistor(vref32, mid, 20_000.0);
    bind(bound, "vcmgen/r_top".into(), r_top);
    let r_bot = nl.resistor(mid, Netlist::GND, 20_000.0);
    bind(bound, "vcmgen/r_bot".into(), r_bot);
    let r_esr = nl.resistor(mid, esr, 200.0);
    bind(bound, "vcmgen/r_esr".into(), r_esr);
    let c_dec = nl.capacitor(esr, Netlist::GND, 100e-12);
    bind(bound, "vcmgen/c_dec".into(), c_dec);
    let m1 = nl.mosfet(out, mid, vdda, MosPolarity::Pmos, P_VTH, P_KP, LAMBDA);
    bind(bound, "vcmgen/buf/m1".into(), m1);
    let m2 = nl.mosfet(
        out,
        mid,
        Netlist::GND,
        MosPolarity::Nmos,
        N_VTH,
        N_KP,
        LAMBDA,
    );
    bind(bound, "vcmgen/buf/m2".into(), m2);
    out
}

fn build_model(adc: &SarAdc) -> AdcStaticModel {
    let cfg = adc.config();
    let mut nl = Netlist::new();
    let mut bound: BTreeMap<String, DeviceId> = BTreeMap::new();

    let vdda = nl.node("vdda");
    let vdd = nl.node("vdd");
    nl.vsource(vdda, Netlist::GND, cfg.vdda);
    nl.vsource(vdd, Netlist::GND, cfg.vdd);

    let vbg = emit_bandgap(&mut nl, &mut bound, vdda);
    let taps = emit_refbuf(&mut nl, &mut bound, cfg, vdda, vbg);
    let vref32 = taps[TAPS - 1];
    let vref16 = taps[TAPS / 2];

    let m_plus = nl.node("m_plus");
    let m_minus = nl.node("m_minus");
    let l_plus = nl.node("l_plus");
    let l_minus = nl.node("l_minus");
    emit_subdac(
        &mut nl,
        &mut bound,
        cfg,
        "subdac1",
        &taps,
        vdd,
        (m_plus, m_minus),
    );
    emit_subdac(
        &mut nl,
        &mut bound,
        cfg,
        "subdac2",
        &taps,
        vdd,
        (l_plus, l_minus),
    );

    let vcm_out = emit_vcm(&mut nl, &mut bound, vdda, vref32);
    // Common-mode sampling inputs: both sides see the same level, which
    // keeps the P ↔ N swap an automorphism (the orbit analysis is of the
    // *design*, whose differential input is zero-symmetric).
    let in_p = nl.node("sc_in_p");
    let in_n = nl.node("sc_in_n");
    nl.vsource(in_p, Netlist::GND, cfg.vcm);
    nl.vsource(in_n, Netlist::GND, cfg.vcm);
    let top_p = emit_sc_side(&mut nl, &mut bound, cfg, "p", in_p, m_plus, l_plus, vcm_out);
    let top_n = emit_sc_side(
        &mut nl, &mut bound, cfg, "n", in_n, m_minus, l_minus, vcm_out,
    );

    let observations = vec![
        StaticObservation {
            name: "I1".into(),
            kind: "complementary".into(),
            symmetric: true,
            observed: vec![m_plus, m_minus],
            reference: vec![vref32],
        },
        StaticObservation {
            name: "I2".into(),
            kind: "complementary".into(),
            symmetric: true,
            observed: vec![l_plus, l_minus],
            reference: vec![vref32],
        },
        StaticObservation {
            name: "I3".into(),
            kind: "dac-sum".into(),
            symmetric: true,
            observed: vec![top_p, top_n],
            reference: vec![vref16],
        },
    ];

    let bindings: Vec<Option<DeviceId>> = adc
        .components()
        .iter()
        .map(|c| bound.get(&c.name).copied())
        .collect();
    // Every emitted binding must land on a catalog name — an orphan means
    // a name drifted out of sync with a block's catalog.
    debug_assert_eq!(
        bindings.iter().flatten().count(),
        bound.len(),
        "static-model bindings out of sync with the component catalog"
    );
    AdcStaticModel {
        netlist: nl,
        bindings,
        observations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::BlockKind;

    fn model() -> (SarAdc, AdcStaticModel) {
        let adc = SarAdc::new(AdcConfig::default());
        let model = adc.analysis_model();
        (adc, model)
    }

    #[test]
    fn every_physical_component_is_bound() {
        let (adc, model) = model();
        assert_eq!(model.bindings.len(), adc.components().len());
        for (component, binding) in adc.components().iter().zip(&model.bindings) {
            let behavioral = matches!(
                component.block,
                BlockKind::Preamplifier
                    | BlockKind::ComparatorLatch
                    | BlockKind::RsLatch
                    | BlockKind::OffsetCompensation
            );
            // Dead end taps are emitted but deliberately unbound: the sweep
            // never selects them, so their defects are not orbit-equivalent
            // to their live mirror's.
            let dead_tap =
                component.name.contains("/mux_p/tap32/") || component.name.contains("/mux_n/tap0/");
            assert_eq!(
                binding.is_none(),
                behavioral || dead_tap,
                "binding mismatch for {}",
                component.name
            );
        }
        // 16 bandgap + 41 refbuf/ladder + 2×(284 − 8 dead-tap) sub-DAC
        // + 14 SC + 6 Vcm.
        assert_eq!(model.bound_count(), 16 + 41 + 2 * 276 + 14 + 6);
    }

    #[test]
    fn bindings_reference_valid_devices() {
        let (_, model) = model();
        for device in model.bindings.iter().flatten() {
            assert!(device.index() < model.netlist.device_count());
        }
        // No two components share one device.
        let mut seen: Vec<usize> = model.bindings.iter().flatten().map(|d| d.index()).collect();
        let total = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), total);
    }

    #[test]
    fn observations_cover_the_three_invariances() {
        let (_, model) = model();
        let names: Vec<&str> = model.observations.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["I1", "I2", "I3"]);
        assert!(model.observations.iter().all(|o| o.symmetric));
        assert!(model.observations.iter().all(|o| o.observed.len() == 2));
        assert!(model.observations.iter().all(|o| o.reference.len() == 1));
    }
}
