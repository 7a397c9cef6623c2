//! The observability overhead gate: times the shipping observation sweep
//! with the `symbist-obs` layer live and globally disabled, prints
//! `obs_overhead_pct` and exits nonzero above the 3 % budget.
//!
//! ```text
//! cargo run --release -p symbist-bench --bin obs_overhead
//! ```
//!
//! One iteration injects a SUBDAC1 pass-switch drain–source short into a
//! fresh clone of the defect-free ADC and runs `try_symbist_observations(0.2)`,
//! as a campaign runs its sub-DAC defects (90 % of the universe): the
//! bandgap comes from the shared defect-free store, which is filled
//! before timing, but the short alters every counter code, so the sweep
//! runs 32 reference-ladder DC solves in the fresh store of solves that
//! `inject` starts, the Vcm solve and the SC array's
//! 3,168 transient steps as 98 folded runs on the array's shared step maps
//! (one run per side for the sampling cycle, three per code). Sequential
//! whole-run timing lets host
//! drift dwarf a sub-3 % signal, so the two sides are measured *paired*:
//! each round times them back to back (alternating order to cancel
//! ordering bias) and yields one on/off ratio; the overhead is the median
//! ratio, which is immune to slow drift and to outlier rounds alike.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use symbist_adc::fault::{DefectKind, DefectSite, Faultable};
use symbist_adc::{AdcConfig, SarAdc};

/// Paired rounds, alternating which side runs first.
const ROUNDS: usize = 60;
/// Sweeps per side and round: at about 0.84 ms a sweep, each side of a
/// round times about 9 ms, which keeps host noise in the paired ratios
/// well under the budget.
const ITERS: usize = 11;
/// The observability budget in percent of uninstrumented time.
const BUDGET_PCT: f64 = 3.0;

/// The pass switch whose short the swept clone carries.
const SWEPT_SWITCH: &str = "subdac1/mux_p/tap16/swn";

fn main() -> ExitCode {
    let base = SarAdc::new(AdcConfig::default());
    let component = base
        .components()
        .iter()
        .position(|c| c.name == SWEPT_SWITCH)
        .expect("the catalog holds the swept switch");
    let site = DefectSite {
        component,
        kind: DefectKind::ShortDs,
    };
    // Clones share the store of solves of their state until `inject`
    // starts a fresh one, so every sweep injects into its own clone.
    let sweep = || {
        let mut adc = base.clone();
        adc.inject(site);
        adc.try_symbist_observations(0.2)
            .expect("the defective ADC simulates")
    };
    // Fill the shared defect-free store outside the timed rounds.
    black_box(sweep());
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
