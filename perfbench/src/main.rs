//! The SymBIST benchmark: one command runs a seeded workload, checks its
//! outputs, and prints every metric by name and unit, ending with one JSON
//! line. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run it from the repository root: the `table1` workload compares its
//! default-seed output with the committed `table1.csv`, and every run
//! keeps its traces and counter records under `.bench_out/`.

mod counters;
mod inproc;
mod replay;
mod report;
mod service;
mod speed;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["table1", "class_universe", "service_adc", "service_dut"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where traces, counter records and service data go.
    pub out_dir: PathBuf,
}

const USAGE: &str =
    "usage: symbist-perfbench --workload <table1|class_universe|service_adc|service_dut> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    println!(
        "workload {} seed {} seconds {} trace {} on {} cores",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "table1" => inproc::run_table1(&args, &mut report),
        "class_universe" => inproc::run_class_universe(&args, &mut report),
        "service_adc" => service::run_adc(&args, &mut report),
        _ => service::run_dut(&args, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("workload {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    let line = if args.trace {
        println!("per-layer metrics:");
        report.finish(&PER_LAYER, false)
    } else {
        if report.get("peak_rss_mb").is_none() {
            report.set("peak_rss_mb", report::peak_rss_mb());
        }
        println!("end-to-end metrics:");
        report.finish(&END_TO_END, true)
    };
    println!(
        "operations: {} attempted, {} failed (failed_frac {})",
        report.attempted,
        report.failed,
        stats::failed_frac(report.failed, report.attempted)
    );
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload service_dut --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("service_dut", 7, 12.0, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload table1 --trace 2").is_err());
        assert!(parse("--workload table1 --seconds 0").is_err());
        assert!(parse("--workload table1 --seed").is_err());
        assert!(parse("--workload table1 --bogus 1").is_err());
    }
}
