//! A miniature SPICE: parse a netlist deck, run the analyses its
//! directives request (`.op`, `.tran`, `.ac dec`), and print the results —
//! the circuit engine of the reproduction as a standalone tool.
//!
//! ```sh
//! cargo run --release --example mini_spice               # built-in demo
//! cargo run --release --example mini_spice -- deck.cir   # your own deck
//! ```

use std::env;
use std::fs;

use symbist_repro::circuit::ac::{log_space, AcSolver};
use symbist_repro::circuit::dc::DcSolver;
use symbist_repro::circuit::netlist::Device;
use symbist_repro::circuit::parser::parse_netlist;
use symbist_repro::circuit::transient::{TransientOptions, TransientSim};
use symbist_repro::circuit::NodeId;

const DEMO: &str = "\
* Demo: diode-loaded divider with a pulse input and an output pole
VIN in 0 PULSE(0 1.8 0 2n 2n 40n 100n)
R1  in  mid 4.7k
D1  mid 0   IS=1e-14 N=1.0
R2  mid out 10k
C1  out 0   2p
.op
.tran 0.5n 60n
.ac dec 5 1k 1g
.end
";

fn main() {
    let (name, source) = match env::args().nth(1) {
        Some(path) => {
            let text =
                fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            (path, text)
        }
        None => ("<built-in demo>".to_string(), DEMO.to_string()),
    };
    let parsed = parse_netlist(&source).unwrap_or_else(|e| panic!("{e}"));
    let nl = &parsed.netlist;
    println!(
        "{name}: {} devices, {} nodes",
        nl.device_count(),
        nl.node_count() - 1
    );

    // Named nodes for reporting.
    let mut nodes: Vec<(String, NodeId)> = nl
        .nodes()
        .filter(|n| !n.is_ground())
        .filter_map(|n| nl.node_name(n).map(|s| (s.to_string(), n)))
        .collect();
    nodes.sort();

    if parsed.directives.op {
        let op = DcSolver::new().solve(nl).expect("operating point");
        println!("\n.op — DC operating point:");
        for (name, n) in &nodes {
            println!("  v({name}) = {:+.6} V", op.voltage(*n));
        }
    }

    if let Some((step, stop)) = parsed.directives.tran {
        println!("\n.tran {step:.3e} {stop:.3e} — final values:");
        let mut sim = TransientSim::new(
            nl,
            TransientOptions {
                dt: step,
                use_ic: true,
            },
        )
        .expect("transient start");
        while sim.time() < stop {
            sim.step(nl).expect("transient step");
        }
        for (name, n) in &nodes {
            println!("  v({name}) @ {stop:.2e}s = {:+.6} V", sim.voltage(*n));
        }
    }

    if let Some((points_per_dec, fstart, fstop)) = parsed.directives.ac {
        // Excite the first voltage source in the deck.
        let source = nl
            .iter()
            .find(|(_, d)| matches!(d, Device::VSource { .. }))
            .map(|(id, _)| id)
            .expect(".ac needs a voltage source");
        let decades = (fstop / fstart).log10();
        let n = ((decades * points_per_dec as f64).round() as usize).max(2);
        let freqs = log_space(fstart, fstop, n);
        let sweep = AcSolver::new().solve(nl, source, &freqs).expect("ac solve");
        let (last_name, last_node) = nodes.last().expect("a named node to probe");
        println!("\n.ac dec {points_per_dec} {fstart:.2e} {fstop:.2e} — v({last_name}):");
        for (i, f) in freqs.iter().enumerate() {
            println!(
                "  {f:>12.3e} Hz  {:>8.2} dB  {:>7.1}°",
                sweep.magnitude_db(i, *last_node),
                sweep.phase_deg(i, *last_node)
            );
        }
    }
}
