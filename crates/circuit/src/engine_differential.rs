//! Differential tests: the sparse path that linear netlists solve on,
//! against the dense partially-pivoted oracle.
//!
//! The reference-ladder DC network, controlled sources, a switched-capacitor
//! sampling step, dividers and random linear netlists must agree between the
//! two paths to ≤ 1e-9 on every unknown. The oracle side runs under
//! [`dense`], which routes every engine on the thread to dense LU.

use crate::dc::DcSolver;
use crate::mc::{MismatchSpec, Param, Variation};
use crate::mna::tests::{dense, solves_sparse};
use crate::netlist::{Netlist, NodeId};
use crate::rng::Rng;
use crate::transient::{TransientOptions, TransientSim};

const TOL: f64 = 1e-9;

/// Solves `nl` on its own path and on the dense oracle and asserts the
/// full solution vectors agree. Returns whether the own path was sparse
/// (a static-pivot failure retries dense).
fn dc_agreement(nl: &Netlist, label: &str) -> bool {
    let own = DcSolver::new().solve(nl).unwrap();
    let oracle = dense(|| DcSolver::new().solve(nl).unwrap());
    assert_eq!(own.raw().len(), oracle.raw().len());
    for (i, (s, d)) in own.raw().iter().zip(oracle.raw()).enumerate() {
        assert!(
            (s - d).abs() <= TOL,
            "{label}: unknown {i} differs: own {s} vs dense {d}"
        );
    }
    solves_sparse(nl)
}

/// 32-segment resistor ladder with tap loads — the shape of the SAR ADC's
/// reference network (`refnet`), the hottest DC solve in the codebase.
#[test]
fn resistor_ladder_dc() {
    let mut nl = Netlist::new();
    let top = nl.node("top");
    nl.vsource(top, Netlist::GND, 1.2);
    let mut prev = top;
    let mut taps: Vec<NodeId> = Vec::new();
    for i in 0..32 {
        let n = nl.node(&format!("tap{i}"));
        nl.resistor(prev, n, 250.0);
        taps.push(n);
        prev = n;
    }
    nl.resistor(prev, Netlist::GND, 250.0);
    // Tap loads emulate the mux/buffer input impedance.
    for (i, tap) in taps.iter().enumerate() {
        if i % 4 == 0 {
            nl.resistor(*tap, Netlist::GND, 1e6);
        }
    }
    assert!(dc_agreement(&nl, "resistor ladder"));
}

/// Controlled sources (the comparator/buffer models): VCVS + VCCS mixed
/// with the resistive network — the structurally unsymmetric stamps. The
/// loop the VCVS closes gets its branch eliminated before its nodes, so
/// the static pivot vanishes and the dense retry must give the answer.
#[test]
fn controlled_sources_dc() {
    let mut nl = Netlist::new();
    let inp = nl.node("inp");
    let mid = nl.node("mid");
    let out = nl.node("out");
    nl.vsource(inp, Netlist::GND, 0.35);
    nl.resistor(inp, mid, 10e3);
    nl.vcvs(out, Netlist::GND, mid, Netlist::GND, 20.0);
    nl.resistor(out, mid, 100e3); // feedback
    nl.vccs(mid, Netlist::GND, out, Netlist::GND, 1e-5);
    nl.resistor(out, Netlist::GND, 5e3);
    assert!(!dc_agreement(&nl, "controlled sources"));
}

/// A switched-capacitor sampling step: caps with initial conditions, series
/// switches toggled mid-run. Both paths must track the whole trajectory,
/// including the switch-state change that invalidates the cached base.
#[test]
fn sc_array_step_transient() {
    let run = || {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let tops: Vec<NodeId> = (0..4).map(|i| nl.node(&format!("top{i}"))).collect();
        nl.vsource(vin, Netlist::GND, 0.8);
        let mut switches = Vec::new();
        for (i, top) in tops.iter().enumerate() {
            // Binary-weighted caps, as in the SAR DAC array.
            let c = 1e-12 * f64::from(1 << i);
            nl.capacitor_with_ic(*top, Netlist::GND, c, 0.0);
            let sw = nl.switch(vin, *top, 100.0, 1e12);
            nl.set_switch(sw, true);
            switches.push(sw);
        }
        let mut sim = TransientSim::new(
            &nl,
            TransientOptions {
                dt: 1e-10,
                use_ic: true,
            },
        )
        .unwrap();
        // Track phase: all switches closed.
        while sim.time() < 5e-9 {
            sim.step(&nl).unwrap();
        }
        // Hold phase: open every other switch mid-run.
        for sw in switches.iter().step_by(2) {
            nl.set_switch(*sw, false);
        }
        while sim.time() < 1e-8 {
            sim.step(&nl).unwrap();
        }
        tops.iter().map(|t| sim.voltage(*t)).collect::<Vec<f64>>()
    };

    let own = run();
    let oracle = dense(run);
    for (i, (s, d)) in own.iter().zip(&oracle).enumerate() {
        assert!(
            (s - d).abs() <= TOL,
            "sc step: cap {i} differs: own {s} vs dense {d}"
        );
        // Tracked caps should have charged towards the input.
        assert!(*s > 0.7, "cap {i} did not track: {s}");
    }
}

/// Random resistor trees with extra mesh edges, a grounded source and a
/// current injection: every one agrees with the oracle, and the trees
/// without mesh edges all solve sparse.
#[test]
#[cfg_attr(miri, ignore = "seeded loop; the native run covers it")]
fn random_linear_netlists_dc() {
    for seed in 0u64..40 {
        let mut rng = Rng::seed_from_u64(seed);
        let n_nodes = 4 + rng.below(20) as usize;
        let mut nl = Netlist::new();
        let nodes: Vec<NodeId> = (0..n_nodes).map(|i| nl.node(&format!("n{i}"))).collect();
        nl.vsource(nodes[0], Netlist::GND, rng.uniform(0.5, 3.0));
        // A random tree keeps every node connected.
        for i in 1..n_nodes {
            let parent = nodes[rng.below(i as u64) as usize];
            nl.resistor(parent, nodes[i], rng.uniform(100.0, 10e3));
        }
        nl.resistor(nodes[n_nodes - 1], Netlist::GND, rng.uniform(100.0, 10e3));
        let at = nodes[rng.below(n_nodes as u64) as usize];
        nl.isource(Netlist::GND, at, rng.uniform(-1e-4, 1e-4));
        let meshed = seed % 2 == 1;
        if meshed {
            for _ in 0..n_nodes / 4 {
                let a = nodes[rng.below(n_nodes as u64) as usize];
                let b = nodes[rng.below(n_nodes as u64) as usize];
                if a != b {
                    nl.resistor(a, b, rng.uniform(100.0, 100e3));
                }
            }
        }
        let sparse = dc_agreement(&nl, &format!("random netlist seed {seed}"));
        assert!(sparse || meshed, "seed {seed}: a tree fell back to dense");
    }
}

/// Resistive dividers over a wide range of values.
#[test]
#[cfg_attr(miri, ignore = "seeded loop; the native run covers it")]
fn divider_ratio() {
    for seed in 0u64..100 {
        let mut rng = Rng::seed_from_u64(seed);
        let mut nl = Netlist::new();
        let top = nl.node("top");
        let mid = nl.node("mid");
        nl.vsource(top, Netlist::GND, rng.uniform(-10.0, 10.0));
        nl.resistor(top, mid, rng.uniform(10.0, 1e6));
        nl.resistor(mid, Netlist::GND, rng.uniform(10.0, 1e6));
        assert!(dc_agreement(&nl, &format!("divider seed {seed}")));
    }
}

/// Monte-Carlo samples of one divider: every sample agrees.
#[test]
#[cfg_attr(miri, ignore = "seeded loop; the native run covers it")]
fn mc_divider() {
    let mut nl = Netlist::new();
    let top = nl.node("top");
    let mid = nl.node("mid");
    nl.vsource(top, Netlist::GND, 1.0);
    let r1 = nl.resistor(top, mid, 1e3);
    let r2 = nl.resistor(mid, Netlist::GND, 1e3);
    let spec = MismatchSpec::new(vec![
        Variation::relative(r1, Param::Resistance, 0.3),
        Variation::relative(r2, Param::Resistance, 0.3),
    ]);
    for seed in 0u64..200 {
        let sample = spec.perturb(&nl, &mut Rng::seed_from_u64(seed));
        assert!(dc_agreement(&sample, &format!("mc sample seed {seed}")));
    }
}
