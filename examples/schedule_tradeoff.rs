//! The sequential-vs-parallel checker trade-off of paper §IV-4: one shared
//! window comparator (6·2⁵ cycles, minimal area) against six parallel
//! comparators (2⁵ cycles, more area).
//!
//! ```sh
//! cargo run --release --example schedule_tradeoff
//! ```

use symbist_repro::adc::{AdcConfig, SarAdc};
use symbist_repro::bist::area::area_report;
use symbist_repro::bist::calibrate::Calibration;
use symbist_repro::bist::session::{Schedule, SymBist};
use symbist_repro::bist::stimulus::StimulusSpec;
use symbist_repro::bist::testtime::test_time;

fn main() {
    let cfg = AdcConfig::default();
    let adc = SarAdc::new(cfg.clone());
    let stimulus = StimulusSpec::default();
    let cal = Calibration::run(&cfg, &stimulus, 10, 5.0, 42);

    println!(
        "{:<12} {:>8} {:>12} {:>14} {:>12} {:>10}",
        "schedule", "cycles", "test time", "x conversion", "BIST area", "overhead"
    );
    for schedule in [Schedule::Sequential, Schedule::Parallel] {
        let tt = test_time(&cfg, schedule);
        let area = area_report(&adc, schedule);
        let engine = SymBist::new(cal.clone(), stimulus, schedule);
        let result = engine.try_run(&adc, true).expect("BIST run simulates");
        assert!(result.pass, "healthy device must pass under {schedule:?}");
        println!(
            "{:<12} {:>8} {:>9.2} µs {:>14.1} {:>12.0} {:>9.2}%",
            format!("{schedule:?}"),
            tt.cycles,
            tt.seconds * 1e6,
            tt.conversions_equivalent,
            area.bist,
            area.overhead * 100.0
        );
    }
    println!("\nBoth schedules reach the same verdicts; the paper picks the");
    println!("sequential one and reports 1.23 µs at < 5% area overhead.");
}
