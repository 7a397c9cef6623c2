//! Property-based tests for the circuit engine.
//!
//! Each property runs over a deterministic family of seeded random cases
//! (the repo's own [`Rng`] is the case generator, so no external
//! property-testing dependency is needed and every failure is reproducible
//! from the printed seed).
#![allow(clippy::unwrap_used)] // integration tests assert by panicking

use symbist_circuit::dc::{set_thread_solve_budget, DcSolver, SolveBudget};
use symbist_circuit::error::CircuitError;
use symbist_circuit::matrix::Matrix;
use symbist_circuit::mc::{MismatchSpec, Param, Variation};
use symbist_circuit::netlist::{Device, DeviceId, MosPolarity, Netlist, NodeId, SourceWave};
use symbist_circuit::rng::Rng;
use symbist_circuit::transient::{LinearTransient, TransientOptions, TransientSim};

/// LU solve round-trips: A·x recovered for random well-conditioned A.
#[test]
fn lu_roundtrip() {
    for seed in 0u64..64 {
        let mut rng = Rng::seed_from_u64(seed);
        let n = 1 + rng.below(11) as usize;
        let mut a = Matrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                a.set(r, c, rng.uniform(-1.0, 1.0));
            }
            // Diagonal dominance keeps the condition number small.
            a.add(r, r, 2.0 * n as f64);
        }
        let x_true: Vec<f64> = (0..n).map(|_| rng.uniform(-5.0, 5.0)).collect();
        let b = a.mul_vec(&x_true);
        let x = a.solve(&b).unwrap();
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8, "seed {seed}: {got} vs {want}");
        }
    }
}

/// A resistive divider's output is always between the rails and matches
/// the analytic ratio.
#[test]
fn divider_ratio() {
    for seed in 0u64..100 {
        let mut rng = Rng::seed_from_u64(seed);
        let r1 = rng.uniform(10.0, 1e6);
        let r2 = rng.uniform(10.0, 1e6);
        let v = rng.uniform(-10.0, 10.0);
        let mut nl = Netlist::new();
        let top = nl.node("top");
        let mid = nl.node("mid");
        nl.vsource(top, Netlist::GND, v);
        nl.resistor(top, mid, r1);
        nl.resistor(mid, Netlist::GND, r2);
        let op = DcSolver::new().solve(&nl).unwrap();
        let expect = v * r2 / (r1 + r2);
        // gmin (1e-12 S) to ground shifts high-impedance nodes by up to
        // |v|·gmin·(r1 ∥ r2); include that in the tolerance.
        let gmin_shift = v.abs() * 1e-12 * (r1 * r2 / (r1 + r2));
        assert!(
            (op.voltage(mid) - expect).abs() < 1e-9 + 2.0 * gmin_shift + 1e-9 * expect.abs(),
            "seed {seed}"
        );
    }
}

/// Superposition: a linear circuit's response to two sources is the sum
/// of the responses to each source alone.
#[test]
fn superposition() {
    for seed in 0u64..100 {
        let mut rng = Rng::seed_from_u64(seed);
        let v1 = rng.uniform(-5.0, 5.0);
        let v2 = rng.uniform(-5.0, 5.0);
        let build = |va: f64, vb: f64| {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            let b = nl.node("b");
            let m = nl.node("m");
            nl.vsource(a, Netlist::GND, va);
            nl.vsource(b, Netlist::GND, vb);
            nl.resistor(a, m, 1e3);
            nl.resistor(b, m, 2e3);
            nl.resistor(m, Netlist::GND, 3e3);
            (nl, m)
        };
        let solver = DcSolver::new();
        let (nl, m) = build(v1, v2);
        let both = solver.solve(&nl).unwrap().voltage(m);
        let (nl1, m1) = build(v1, 0.0);
        let only1 = solver.solve(&nl1).unwrap().voltage(m1);
        let (nl2, m2) = build(0.0, v2);
        let only2 = solver.solve(&nl2).unwrap().voltage(m2);
        assert!((both - (only1 + only2)).abs() < 1e-9, "seed {seed}");
    }
}

/// Charge conservation in capacitive charge sharing: total charge before
/// equals total charge after, for arbitrary cap sizes and voltages.
#[test]
fn charge_conservation() {
    for seed in 0u64..24 {
        let mut rng = Rng::seed_from_u64(seed);
        let c1 = rng.uniform(0.1, 10.0) * 1e-12;
        let c2 = rng.uniform(0.1, 10.0) * 1e-12;
        let va = rng.uniform(-1.0, 1.0);
        let vb = rng.uniform(-1.0, 1.0);
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.capacitor_with_ic(a, Netlist::GND, c1, va);
        nl.capacitor_with_ic(b, Netlist::GND, c2, vb);
        let sw = nl.switch(a, b, 50.0, 1e15);
        nl.set_switch(sw, true);
        let mut sim = TransientSim::new(
            &nl,
            TransientOptions {
                dt: 2e-12,
                use_ic: true,
                ..Default::default()
            },
        )
        .unwrap();
        while sim.time() < 5e-9 {
            sim.step(&nl).unwrap();
        }
        let v_final = sim.voltage(a);
        assert!((sim.voltage(b) - v_final).abs() < 1e-4, "seed {seed}");
        let expect = (c1 * va + c2 * vb) / (c1 + c2);
        assert!(
            (v_final - expect).abs() < 1e-3,
            "seed {seed}: v_final {v_final} expect {expect}"
        );
    }
}

/// The Monte-Carlo engine never produces an unsolvable divider and the
/// midpoint stays strictly between the rails.
#[test]
fn mc_divider_always_solvable() {
    for seed in 0u64..200 {
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
        let mut rng = Rng::seed_from_u64(seed);
        let sample = spec.perturb(&nl, &mut rng);
        let node = sample.find_node("mid").unwrap();
        let v = DcSolver::new().solve(&sample).unwrap().voltage(node);
        assert!(v > 0.0 && v < 1.0, "seed {seed}");
    }
}

/// RC settling: regardless of R, C in a broad range, after 10 time
/// constants the output is within 0.1% of the source.
#[test]
fn rc_settles() {
    for seed in 0u64..24 {
        let mut rng = Rng::seed_from_u64(seed);
        let r = rng.uniform(0.1, 100.0) * 1e3;
        let c = rng.uniform(0.1, 100.0) * 1e-12;
        let tau = r * c;
        let mut nl = Netlist::new();
        let s = nl.node("s");
        let o = nl.node("o");
        nl.vsource(s, Netlist::GND, 1.0);
        nl.resistor(s, o, r);
        nl.capacitor_with_ic(o, Netlist::GND, c, 0.0);
        let mut sim = TransientSim::new(
            &nl,
            TransientOptions {
                dt: tau / 50.0,
                use_ic: true,
                ..Default::default()
            },
        )
        .unwrap();
        while sim.time() < 10.0 * tau {
            sim.step(&nl).unwrap();
        }
        assert!((sim.voltage(o) - 1.0).abs() < 1e-3, "seed {seed}");
    }
}

fn log_uniform(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    rng.uniform(lo.ln(), hi.ln()).exp()
}

/// A random linear switched-RC deck and the handles a controller drives.
struct LinearDeck {
    nl: Netlist,
    nodes: Vec<NodeId>,
    switches: Vec<DeviceId>,
    sources: Vec<DeviceId>,
    dt: f64,
}

impl LinearDeck {
    /// A resistor tree gives every node a DC path (10 Ω–10 MΩ); on top
    /// sit 1–4 capacitors (grounded and floating), 1–3 switches with
    /// `r_off` = 1e12 Ω, 1–2 grounded V sources on distinct nodes and
    /// 0–2 I sources. Some V sources are sinusoids, so a step's inputs
    /// change even when the netlist does not.
    fn random(rng: &mut Rng) -> Self {
        let mut nl = Netlist::new();
        let n_nodes = 2 + rng.below(4) as usize;
        let nodes: Vec<NodeId> = (0..n_nodes).map(|i| nl.node(&format!("n{i}"))).collect();
        let any_node = |rng: &mut Rng| match rng.below(n_nodes as u64 + 1) as usize {
            0 => Netlist::GND,
            i => nodes[i - 1],
        };
        for (i, &n) in nodes.iter().enumerate() {
            let to = if i == 0 || rng.bernoulli(0.3) {
                Netlist::GND
            } else {
                nodes[rng.below(i as u64) as usize]
            };
            nl.resistor(n, to, log_uniform(rng, 10.0, 1e7));
        }
        for _ in 0..=rng.below(4) {
            let a = nodes[rng.below(n_nodes as u64) as usize];
            let mut b = any_node(rng);
            if b == a {
                b = Netlist::GND;
            }
            nl.capacitor(a, b, log_uniform(rng, 0.1e-12, 10e-12));
        }
        let mut switches = Vec::new();
        for _ in 0..=rng.below(3) {
            let a = nodes[rng.below(n_nodes as u64) as usize];
            let mut b = any_node(rng);
            if b == a {
                b = Netlist::GND;
            }
            let sw = nl.switch(a, b, log_uniform(rng, 10.0, 1e4), 1e12);
            nl.set_switch(sw, rng.bernoulli(0.5));
            switches.push(sw);
        }
        let dt = log_uniform(rng, 1e-10, 1e-7);
        let mut sources = Vec::new();
        let n_v = (1 + rng.below(2) as usize).min(n_nodes - 1);
        for &n in nodes.iter().rev().take(n_v) {
            let wave = if rng.bernoulli(0.3) {
                SourceWave::Sine {
                    offset: rng.uniform(-1.0, 1.0),
                    ampl: rng.uniform(0.1, 2.0),
                    freq: 1.0 / (dt * rng.uniform(5.0, 50.0)),
                    delay: 0.0,
                }
            } else {
                SourceWave::Dc(rng.uniform(-5.0, 5.0))
            };
            sources.push(nl.vsource_wave(n, Netlist::GND, wave));
        }
        for _ in 0..rng.below(3) {
            let p = nodes[rng.below(n_nodes as u64) as usize];
            sources.push(nl.isource(p, any_node(rng), rng.uniform(-1e-7, 1e-7)));
        }
        LinearDeck {
            nl,
            nodes,
            switches,
            sources,
            dt,
        }
    }

    /// Flips a switch or retargets a source, each with probability 0.1.
    fn perturb(&mut self, rng: &mut Rng) {
        if rng.bernoulli(0.1) {
            let sw = self.switches[rng.below(self.switches.len() as u64) as usize];
            let closed = self.nl.switch_state(sw);
            self.nl.set_switch(sw, !closed);
        }
        if rng.bernoulli(0.1) {
            let src = self.sources[rng.below(self.sources.len() as u64) as usize];
            let value = match self.nl.device(src) {
                Device::VSource { .. } => rng.uniform(-5.0, 5.0),
                _ => rng.uniform(-1e-7, 1e-7),
            };
            match self.nl.device_mut(src) {
                Device::VSource { wave, .. } | Device::ISource { wave, .. } => {
                    *wave = SourceWave::Dc(value);
                }
                other => panic!("source handle is {other:?}"),
            }
        }
    }

    fn oracle(&self) -> Result<TransientSim, CircuitError> {
        TransientSim::new(
            &self.nl,
            TransientOptions {
                dt: self.dt,
                ..Default::default()
            },
        )
    }
}

/// The step operator tracks backward-Euler `TransientSim` at every node
/// and every step, through switch flips and source changes.
#[test]
fn linear_transient_matches_transient_sim() {
    for seed in 0u64..200 {
        let mut rng = Rng::seed_from_u64(seed);
        let mut deck = LinearDeck::random(&mut rng);
        let mut oracle = deck.oracle().unwrap();
        let mut fast = LinearTransient::new(&deck.nl, deck.dt).unwrap();
        let nodes = deck.nodes.clone();
        let check = |oracle: &TransientSim, fast: &LinearTransient, step: usize| {
            for &n in &nodes {
                let (want, got) = (oracle.voltage(n), fast.voltage(n));
                assert!(
                    (got - want).abs() <= 1e-9,
                    "seed {seed} step {step} node {n}: {got} vs {want}"
                );
            }
            assert_eq!(fast.time().to_bits(), oracle.time().to_bits());
        };
        for step in 0..60 {
            check(&oracle, &fast, step);
            deck.perturb(&mut rng);
            oracle.step(&deck.nl).unwrap();
            fast.step(&deck.nl).unwrap();
        }
        check(&oracle, &fast, 60);
    }
}

/// A Newton-iteration budget runs out at the same step in both engines:
/// the operator charges one iteration per step, as a linear Newton step
/// does.
#[test]
fn linear_transient_exhausts_budget_like_transient_sim() {
    /// Steps completed before the budget ran out (`None`: at construction).
    fn steps_until_exhausted<S>(
        iters: u64,
        deck: &LinearDeck,
        new: impl FnOnce() -> Result<S, CircuitError>,
        mut step: impl FnMut(&mut S, &Netlist) -> Result<(), CircuitError>,
    ) -> Option<u64> {
        set_thread_solve_budget(Some(SolveBudget {
            deadline: None,
            newton_iters: Some(iters),
        }));
        let outcome = (|| {
            let mut sim = match new() {
                Ok(sim) => sim,
                Err(e) => return (None, e),
            };
            // Every step charges an iteration, so `iters` bounds the run.
            for n in 0..=iters {
                if let Err(e) = step(&mut sim, &deck.nl) {
                    return (Some(n), e);
                }
            }
            panic!("{iters} Newton iterations outlasted {} steps", iters + 1)
        })();
        set_thread_solve_budget(None);
        let (at, err) = outcome;
        assert_eq!(
            err,
            CircuitError::BudgetExhausted {
                resource: "newton-iterations"
            }
        );
        at
    }

    for seed in 0u64..50 {
        let mut rng = Rng::seed_from_u64(seed);
        let deck = LinearDeck::random(&mut rng);
        let iters = rng.below(40);
        let oracle = steps_until_exhausted(iters, &deck, || deck.oracle(), TransientSim::step);
        let fast = steps_until_exhausted(
            iters,
            &deck,
            || LinearTransient::new(&deck.nl, deck.dt),
            LinearTransient::step,
        );
        assert_eq!(fast, oracle, "seed {seed}, budget {iters}");
    }
}

/// A deck with a diode or a MOSFET is refused with `InvalidConfig`, never
/// a panic or a wrong answer.
#[test]
fn linear_transient_rejects_nonlinear_decks() {
    for seed in 0u64..50 {
        let mut rng = Rng::seed_from_u64(seed);
        let mut deck = LinearDeck::random(&mut rng);
        let a = deck.nodes[rng.below(deck.nodes.len() as u64) as usize];
        if rng.bernoulli(0.5) {
            deck.nl.diode(a, Netlist::GND, 1e-14, 1.0);
        } else {
            let g = deck.nodes[0];
            deck.nl
                .mosfet(a, g, Netlist::GND, MosPolarity::Nmos, 0.4, 2e-4, 0.0);
        }
        assert!(
            matches!(
                LinearTransient::new(&deck.nl, deck.dt),
                Err(CircuitError::InvalidConfig { .. })
            ),
            "seed {seed}"
        );
    }
}
