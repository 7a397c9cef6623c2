//! Runs the engine and service benchmark suites and writes
//! `BENCH_engine.json` — the machine-readable perf record (kernel, solver
//! and ADC timings, the observability overhead, and job-service
//! throughput) tracked across commits.
//!
//! ```text
//! cargo run --release -p symbist-bench --bin bench_engine [-- --quick] [--no-obs] [out.json]
//! ```
//!
//! `--no-obs` disables the observability layer globally for the whole
//! run, giving uninstrumented baseline numbers. The default (obs on)
//! still times the 1000-step RC transient with the layer on and off, by
//! toggling it around that loop; the derived `obs_overhead_pct` is the CI
//! gate for the ≤ 3 % budget.

use symbist_bench::{engine_suite, harness::Harness, service_suite};

fn main() {
    let mut quick = false;
    let mut out_path = String::from("BENCH_engine.json");
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else if arg == "--no-obs" {
            symbist_obs::set_enabled(false);
        } else {
            out_path = arg;
        }
    }
    let mut h = if quick {
        Harness::quick()
    } else {
        Harness::new()
    };
    engine_suite::run(&mut h);
    service_suite::run(&mut h);
    let mut derived = engine_suite::derived();
    derived.extend(service_suite::derived(&h));
    print!("{}", h.report());
    for (name, value) in &derived {
        println!("{name}: {value:.2}");
    }
    let json = h.to_json("engine", &derived);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
