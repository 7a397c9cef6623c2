//! The observability overhead gate: times the shipping observation sweep
//! with the `symbist-obs` layer live and globally disabled, prints
//! `obs_overhead_pct` and exits nonzero above the 3 % budget.
//!
//! ```text
//! cargo run --release -p symbist-bench --bin obs_overhead
//! ```
//!
//! One iteration runs `try_symbist_observations(0.2)` on a fresh clone of
//! the nominal ADC, as every campaign defect does: the bandgap Newton
//! solve, 33 reference-ladder DC solves on an empty ladder cache and about
//! 3,100 SC-array transient steps. Sequential whole-run timing lets host
//! drift dwarf a sub-3 % signal, so the two sides are measured *paired*:
//! each round times them back to back (alternating order to cancel
//! ordering bias) and yields one on/off ratio; the overhead is the median
//! ratio, which is immune to slow drift and to outlier rounds alike.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use symbist_adc::{AdcConfig, SarAdc};

/// Paired rounds, alternating which side runs first.
const ROUNDS: usize = 60;
/// Sweeps per side and round.
const ITERS: usize = 8;
/// The observability budget in percent of uninstrumented time.
const BUDGET_PCT: f64 = 3.0;

fn main() -> ExitCode {
    let base = SarAdc::new(AdcConfig::default());
    let sweep = || {
        base.clone()
            .try_symbist_observations(0.2)
            .expect("the nominal ADC simulates")
    };
    let mut ratios = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let order = if round % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        let mut timed = [0.0f64; 2]; // [obs, off]
        for on in order {
            let prev = symbist_obs::set_enabled(on);
            let start = Instant::now();
            for _ in 0..ITERS {
                black_box(sweep());
            }
            timed[usize::from(!on)] = start.elapsed().as_secs_f64();
            symbist_obs::set_enabled(prev);
        }
        ratios.push(timed[0] / timed[1]);
    }
    ratios.sort_by(f64::total_cmp);
    let pct = (ratios[ROUNDS / 2] - 1.0) * 100.0;
    println!("obs_overhead_pct = {pct:.2}");
    if pct > BUDGET_PCT {
        eprintln!("observability overhead {pct:.2} % exceeds the {BUDGET_PCT} % budget");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
