//! Benches of the simulation substrate: linear algebra, DC and transient
//! solves, and the ADC-level primitives every experiment rests on.
//!
//! `harness = false`: this is a plain program on the in-repo
//! [`symbist_bench::harness`]. Pass `--quick` for a fast smoke run.

use symbist_bench::{engine_suite, harness::Harness};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut h = if quick {
        Harness::quick()
    } else {
        Harness::new()
    };
    engine_suite::run(&mut h);
    print!("{}", h.report());
    for (name, value) in engine_suite::derived() {
        println!("{name}: {value:.2}");
    }
}
