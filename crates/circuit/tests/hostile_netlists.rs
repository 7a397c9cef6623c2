//! Seeded hostile-netlist corpus: mutated SPICE decks through the parser
//! and the solvers.
//!
//! Two valid decks — a linear one and one with diodes and MOSFETs — are
//! mutated with dropped, duplicated and swapped tokens, renamed nodes,
//! extreme or zero magnitudes and duplicated cards. Every mutant goes
//! through `parse_netlist`, a DC solve, a few `TransientSim` steps and, on
//! linear parses, a few `LinearTransient` steps. A mutant may fail, but
//! only as a `ParseError` or a `CircuitError`: a panic anywhere fails the
//! test with the seed and the deck that caused it.
#![allow(clippy::unwrap_used)] // integration tests assert by panicking

use std::panic::{catch_unwind, AssertUnwindSafe};

use symbist_circuit::dc::{set_thread_solve_budget, DcSolver, SolveBudget};
use symbist_circuit::parser::parse_netlist;
use symbist_circuit::rng::Rng;
use symbist_circuit::transient::{LinearTransient, TransientOptions, TransientSim};
use symbist_circuit::Device;

/// A tree-shaped deck, like the ADC's reference ladder: it solves on the
/// sparse path unmutated. Card order matters: with the reference first,
/// the minimum-degree ordering would eliminate its branch before its node
/// and the static pivot would vanish.
const LINEAR_DECK: &str = "\
* buffered reference ladder with a sampling switch
E1 buf 0 t2 0 1
RB buf 0 1k
VREF top 0 1.2
R1 top t1 250
R2 t1 t2 250
R3 t2 0 250
RL t1 0 1meg
S1 t2 hold ON RON=100 ROFF=1e12
C1 hold 0 1p IC=0.1
G1 out 0 hold 0 1u
RO out 0 10k
CO out 0 2p
IB 0 out 1u
VS in 0 SIN(0.6 0.3 10meg)
RS in mid 10k
CM mid 0 1p
.tran 1n 20n
.end
";

const NONLINEAR_DECK: &str = "\
* bandgap-style core: ratioed diodes and MOS current legs
VDD vdd 0 1.8
R1 vdd a 20k
R2 vdd b 20k
D1 a 0 IS=1e-15 N=1
R3 b fb 5k
D2 fb 0 IS=8e-15
M1 a b 0 NMOS VTH=0.5 KP=1e-4 LAMBDA=0.02
M2 out a vdd PMOS VTH=0.4 KP=2e-4
RL out 0 10k
C1 out 0 1p
VP clk 0 PULSE(0 1.8 1n 0.1n 0.1n 5n 10n)
S1 out clk OFF
.tran 0.5n 10n
.op
.end
";

/// Stand-ins for a value token: zero, extreme, denormal and malformed.
const MAGNITUDES: &[&str] = &[
    "0",
    "-0",
    "-5",
    "1e300",
    "-1e300",
    "1e-300",
    "4.9e-324",
    "1e-320",
    "1e308meg",
    "1e308t",
    "-1e307k",
    "1.7976931348623157e308",
    "1e999",
    "1e-30f",
    "nan",
    "inf",
    "k",
    "1e",
    "=",
];

/// Stand-ins for a node name: ground spellings, fresh and reused names.
const NODE_NAMES: &[&str] = &["0", "gnd", "GND", "fresh", "x1", "top", "out", "a", "vdd"];

/// Mutants per deck.
const MUTANTS: u64 = 1000;

/// Transient steps taken per mutant on each engine.
const STEPS: usize = 4;

type Deck = Vec<Vec<String>>;

fn tokenize(deck: &str) -> Deck {
    deck.lines()
        .map(|line| line.split_whitespace().map(str::to_string).collect())
        .collect()
}

fn render(deck: &Deck) -> String {
    deck.iter()
        .map(|tokens| tokens.join(" "))
        .collect::<Vec<_>>()
        .join("\n")
}

fn pick(rng: &mut Rng, n: usize) -> usize {
    rng.below(n as u64) as usize
}

/// A random `(line, token)` position, if the deck has any token.
fn position(rng: &mut Rng, deck: &Deck) -> Option<(usize, usize)> {
    let lines: Vec<usize> = (0..deck.len()).filter(|&l| !deck[l].is_empty()).collect();
    if lines.is_empty() {
        return None;
    }
    let line = lines[pick(rng, lines.len())];
    Some((line, pick(rng, deck[line].len())))
}

/// Applies one random mutation in place.
fn mutate(rng: &mut Rng, deck: &mut Deck) {
    let Some((line, tok)) = position(rng, deck) else {
        return;
    };
    match rng.below(6) {
        // Dropped token.
        0 => {
            deck[line].remove(tok);
        }
        // Duplicated token.
        1 => {
            let t = deck[line][tok].clone();
            deck[line].insert(tok, t);
        }
        // Swapped tokens, within a card or across two.
        2 => {
            if let Some((other, otok)) = position(rng, deck) {
                let t = std::mem::take(&mut deck[line][tok]);
                deck[line][tok] = std::mem::replace(&mut deck[other][otok], t);
            }
        }
        // Renamed node: every use of the name changes.
        3 => {
            let from = deck[line][tok].clone();
            let to = NODE_NAMES[pick(rng, NODE_NAMES.len())];
            for tokens in deck.iter_mut() {
                for t in tokens.iter_mut().skip(1) {
                    if *t == from {
                        *t = to.to_string();
                    }
                }
            }
        }
        // Extreme or zero magnitude, as a bare value or a parameter.
        4 => {
            let value = MAGNITUDES[pick(rng, MAGNITUDES.len())];
            let t = &mut deck[line][tok];
            *t = match t.split_once('=') {
                Some((key, _)) => format!("{key}={value}"),
                None => value.to_string(),
            };
        }
        // Duplicated card, under its own name or a fresh one.
        _ => {
            let mut card = deck[line].clone();
            if rng.bernoulli(0.5) {
                card[0].push('X');
            }
            let at = pick(rng, deck.len() + 1);
            deck.insert(at, card);
        }
    }
}

/// What a deck's trip through the stack came to.
#[derive(Debug, Default)]
struct Tally {
    parse_errors: usize,
    circuit_errors: usize,
    clean: usize,
    linear_parses: usize,
    nonlinear_parses: usize,
}

/// Parses and simulates one deck. Every failure arrives here typed; the
/// caller catches anything that unwinds instead.
fn exercise(deck: &str, tally: &mut Tally) {
    let parsed = match parse_netlist(deck) {
        Ok(parsed) => parsed,
        Err(e) => {
            assert!(!e.to_string().is_empty());
            tally.parse_errors += 1;
            return;
        }
    };
    let nl = &parsed.netlist;
    let linear = !nl
        .iter()
        .any(|(_, d)| matches!(d, Device::Diode { .. } | Device::Mosfet { .. }));
    if linear {
        tally.linear_parses += 1;
    } else {
        tally.nonlinear_parses += 1;
    }
    let dt = parsed.directives.tran.map_or(1e-9, |(step, _)| step);
    let outcome = DcSolver::new().solve(nl).and_then(|_| {
        let mut sim = TransientSim::new(
            nl,
            TransientOptions {
                dt,
                ..Default::default()
            },
        )?;
        for _ in 0..STEPS {
            sim.step(nl)?;
        }
        if linear {
            let mut fast = LinearTransient::new(nl, dt)?;
            for _ in 0..STEPS {
                fast.step(nl)?;
            }
        }
        Ok(())
    });
    match outcome {
        Ok(()) => tally.clean += 1,
        Err(e) => {
            assert!(!e.to_string().is_empty());
            tally.circuit_errors += 1;
        }
    }
}

fn solves(path: &str) -> u64 {
    symbist_obs::registry()
        .counter(
            &format!("symbist_solver_solves_total{{path=\"{path}\"}}"),
            "Linear MNA solves by assembly path",
        )
        .get()
}

/// Runs `count` mutants of `deck`; returns the tally and every panicking
/// mutant as `(seed, deck)`.
fn corpus(deck: &str, seed_base: u64, count: u64) -> (Tally, Vec<(u64, String)>) {
    let mut tally = Tally::default();
    let mut panics = Vec::new();
    let base = tokenize(deck);
    for seed in seed_base..seed_base + count {
        let mut rng = Rng::seed_from_u64(seed);
        let mut mutant = base.clone();
        for _ in 0..=rng.below(3) {
            mutate(&mut rng, &mut mutant);
        }
        let text = render(&mutant);
        // A Newton budget keeps a deck that defeats every continuation
        // strategy from dominating the run; exhausting it is a typed error.
        let prev = set_thread_solve_budget(Some(SolveBudget {
            deadline: None,
            newton_iters: Some(20_000),
        }));
        let run = catch_unwind(AssertUnwindSafe(|| exercise(&text, &mut tally)));
        set_thread_solve_budget(prev);
        if run.is_err() {
            panics.push((seed, text));
        }
    }
    (tally, panics)
}

/// Sparse and dense solve counts across `f`. The global counters are
/// safe to difference here: this binary runs no other test.
fn solves_during<T>(f: impl FnOnce() -> T) -> (T, [u64; 2]) {
    let before = [solves("sparse"), solves("dense")];
    let out = f();
    (
        out,
        [solves("sparse") - before[0], solves("dense") - before[1]],
    )
}

#[test]
fn mutated_decks_fail_typed_never_panic() {
    // The unmutated decks run clean end to end, the linear one sparse and
    // the nonlinear one dense.
    for (deck, path) in [(LINEAR_DECK, 0), (NONLINEAR_DECK, 1)] {
        let mut tally = Tally::default();
        let ((), counts) = solves_during(|| exercise(deck, &mut tally));
        assert_eq!(tally.clean, 1, "{tally:?}");
        assert!(counts[path] > 0 && counts[1 - path] == 0, "{counts:?}");
    }

    let ((linear, mut panics), linear_solves) = solves_during(|| corpus(LINEAR_DECK, 0, MUTANTS));
    let ((nonlinear, more), nonlinear_solves) =
        solves_during(|| corpus(NONLINEAR_DECK, 1_000_000, MUTANTS));
    panics.extend(more);

    let report: Vec<String> = panics
        .iter()
        .map(|(seed, deck)| format!("seed {seed}:\n{deck}"))
        .collect();
    assert!(
        panics.is_empty(),
        "{} mutant(s) panicked:\n{}",
        panics.len(),
        report.join("\n---\n")
    );

    // Both decks reach the solvers, with and without failures. Linear
    // mutants solve sparse, and those that defeat static pivoting are
    // retried dense; diode/MOSFET mutants solve dense.
    for (name, tally) in [("linear", &linear), ("nonlinear", &nonlinear)] {
        assert!(tally.parse_errors > 0, "{name}: {tally:?}");
        assert!(tally.circuit_errors > 0, "{name}: {tally:?}");
        assert!(tally.clean > 0, "{name}: {tally:?}");
    }
    assert!(linear.linear_parses > 0, "{linear:?}");
    assert!(nonlinear.nonlinear_parses > 0, "{nonlinear:?}");
    assert!(linear_solves.iter().all(|&n| n > 0), "{linear_solves:?}");
    assert!(nonlinear_solves[1] > 0, "{nonlinear_solves:?}");
}
