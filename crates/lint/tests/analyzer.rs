//! Adversarial fixtures: each deliberately broken design triggers exactly
//! the rule the ISSUE assigns to it, and the built-in healthy blocks pass
//! with zero Error-level diagnostics.

#![allow(clippy::unwrap_used)]

use symbist_adc::fault::Faultable;
use symbist_adc::{seeds_by_name, AdcConfig, FdPair, SarAdc};
use symbist_circuit::netlist::{Device, Netlist, SourceWave};
use symbist_defects::{DefectUniverse, LikelihoodModel};
use symbist_lint::{
    check_fd_symmetry, lint_adc_with_universe, lint_netlist, lint_universe, Severity,
};

/// Fixture: a two-resistor island with no path to ground.
#[test]
fn fixture_floating_node_sym_l001() {
    let mut nl = Netlist::new();
    let a = nl.node("a");
    nl.vsource(a, Netlist::GND, 1.0);
    nl.resistor(a, Netlist::GND, 1e3);
    let x = nl.node("island_x");
    let y = nl.node("island_y");
    nl.resistor(x, y, 1e3);
    nl.capacitor(x, y, 1e-12);
    let report = lint_netlist("fixture", &nl);
    assert!(report.has_rule("SYM-L001"), "{}", report.render_text());
    assert!(report.has_errors());
}

/// Fixture: two ideal sources forced in parallel (a V-source loop).
#[test]
fn fixture_vsource_loop_sym_l010() {
    let mut nl = Netlist::new();
    let a = nl.node("a");
    let b = nl.node("b");
    nl.vsource(a, Netlist::GND, 1.0);
    nl.vsource(b, Netlist::GND, 0.5);
    nl.vsource(a, b, 0.2); // closes the loop gnd → a → b → gnd
    nl.resistor(a, Netlist::GND, 1e3);
    nl.resistor(b, Netlist::GND, 1e3);
    let report = lint_netlist("fixture", &nl);
    assert!(report.has_rule("SYM-L010"), "{}", report.render_text());
}

/// Fixture: a node reachable only through capacitors — no DC path.
#[test]
fn fixture_cap_only_node_sym_l012() {
    let mut nl = Netlist::new();
    let drv = nl.node("drv");
    let plate = nl.node("plate");
    nl.vsource(drv, Netlist::GND, 1.0);
    nl.resistor(drv, Netlist::GND, 1e3);
    nl.capacitor(drv, plate, 1e-12);
    nl.capacitor(plate, Netlist::GND, 1e-12);
    let report = lint_netlist("fixture", &nl);
    assert!(report.has_rule("SYM-L012"), "{}", report.render_text());
    assert!(!report.has_rule("SYM-L001"), "attached, not floating");
}

/// Fixture: a declared FD pair whose N half carries a mismatched element.
#[test]
fn fixture_mismatched_fd_pair_sym_l030() {
    let build = |cap: f64| {
        let mut nl = Netlist::new();
        let top = nl.node("top");
        let out = nl.node("out");
        nl.vsource(top, Netlist::GND, 0.6);
        nl.resistor(top, out, 5e3);
        nl.capacitor(out, Netlist::GND, cap);
        nl
    };
    let p = build(1.0e-12);
    let n = build(1.3e-12); // 30 % asymmetry
    let seeds = seeds_by_name(&p, &n);
    let pair = FdPair {
        name: "fixture pair".to_string(),
        p,
        n,
        seeds,
    };
    let report = check_fd_symmetry(&pair);
    assert!(report.has_rule("SYM-L030"), "{}", report.render_text());
    assert!(report.has_errors());
}

/// Moves one parameter of `device` by 30 % (a zero value, such as the SC
/// array's grounded input source, moves to 0.3; a switch flips state
/// instead), so it no longer mirrors its partner in the other half.
fn perturb(device: &mut Device) {
    let bump = |x: &mut f64| *x = if *x == 0.0 { 0.3 } else { *x * 1.3 };
    match device {
        Device::Resistor { ohms, .. } => bump(ohms),
        Device::Capacitor { farads, .. } => bump(farads),
        Device::VSource { wave, .. } | Device::ISource { wave, .. } => match wave {
            SourceWave::Dc(v) => bump(v),
            other => panic!("no perturbation for source wave {other:?}"),
        },
        Device::Switch { closed, .. } => *closed = !*closed,
        Device::Diode { i_sat, .. } => bump(i_sat),
        Device::Mosfet { kp, .. } => bump(kp),
        Device::Vcvs { gain, .. } => bump(gain),
        Device::Vccs { gm, .. } => bump(gm),
    }
}

/// Every position of every shipped FD pair is covered by L030: breaking
/// the N instance of device #i fires SYM-L030 on exactly that position,
/// while the untouched pair passes.
#[test]
fn every_shipped_fd_pair_position_fires_sym_l030() {
    let adc = SarAdc::new(AdcConfig::default());
    let pairs = adc.fd_pairs();
    let sizes: Vec<usize> = pairs.iter().map(|pair| pair.p.device_count()).collect();
    assert_eq!(sizes, [12, 37, 37], "SC Array, SUBDAC1, SUBDAC2");
    for pair in &pairs {
        let clean = check_fd_symmetry(pair);
        assert!(clean.diagnostics().is_empty(), "{}", clean.render_text());
        for (id, device) in pair.n.iter() {
            let mut broken = pair.clone();
            perturb(broken.n.device_mut(id));
            let report = check_fd_symmetry(&broken);
            let subject = format!("device #{} ({})", id.index(), device.kind_name());
            assert!(
                report
                    .diagnostics()
                    .iter()
                    .all(|d| d.rule.code() == "SYM-L030" && d.subject == subject),
                "{}: {subject}\n{}",
                pair.name,
                report.render_text()
            );
            assert!(report.has_errors(), "{}: {subject} not flagged", pair.name);
        }
    }
}

/// Fixture: a defect universe whose first site references a component
/// index beyond the DUT catalog.
#[test]
fn fixture_dangling_defect_site_sym_l040() {
    let adc = SarAdc::new(AdcConfig::default());
    let universe = DefectUniverse::enumerate(&adc, &LikelihoodModel::default());
    let mut defects = universe.defects().to_vec();
    defects[0].site.component = adc.components().len() + 42;
    let universe = DefectUniverse::from_defects(defects);
    let report = lint_universe(&universe, adc.components());
    assert!(report.has_rule("SYM-L040"), "{}", report.render_text());
    assert!(report.has_errors());
}

/// Clean pass: the full suite over every built-in block, FD pair, and the
/// enumerated universe reports zero Error-level diagnostics. This is the
/// same run the `lint` binary and the service pre-flight perform.
#[test]
fn clean_pass_on_builtin_blocks() {
    let adc = SarAdc::new(AdcConfig::default());
    let universe = DefectUniverse::enumerate(&adc, &LikelihoodModel::default());
    let report = lint_adc_with_universe(&adc, &universe);
    assert_eq!(report.error_count(), 0, "{}", report.render_text());
    assert_eq!(
        report.count(Severity::Warning),
        0,
        "{}",
        report.render_text()
    );
}

/// An injected defect that floats a plate is *visible* to the analyzer:
/// linting the defective instance yields diagnostics the healthy one
/// lacks (the point of snapshotting the instance's current state).
#[test]
fn injected_open_shows_up_in_lint() {
    use symbist_adc::fault::{DefectKind, DefectSite};
    let healthy = SarAdc::new(AdcConfig::default());
    let healthy_report = symbist_lint::lint_adc(&healthy);

    let mut faulty = SarAdc::new(AdcConfig::default());
    // SC-array P-side main-cap open: the bottom plate loses its low-
    // impedance path and the FD pair diverges.
    let catalog = faulty.components();
    let site_idx = catalog
        .iter()
        .position(|c| c.name == "scarray/p/c_main")
        .unwrap();
    faulty.inject(DefectSite {
        component: site_idx,
        kind: DefectKind::Open,
    });
    let faulty_report = symbist_lint::lint_adc(&faulty);
    assert!(
        faulty_report.diagnostics().len() > healthy_report.diagnostics().len(),
        "defect must surface statically:\n{}",
        faulty_report.render_text()
    );
    assert!(
        faulty_report.has_rule("SYM-L030"),
        "{}",
        faulty_report.render_text()
    );
}
