//! EXP-FUNC (extension): the comparison the paper's introduction frames —
//! defect-oriented SymBIST versus the *functional* BIST tradition
//! (sinusoidal histogram linearity test, after \[4\]). Same defect sample,
//! two tests: coverage and test time head-to-head.
//!
//! ```sh
//! cargo run --release -p symbist-bench --bin functional_vs_symbist
//! ```

use symbist::functional::HistogramBist;
use symbist::session::Schedule;
use symbist::testtime::test_time;
use symbist_adc::SarAdc;
use symbist_bench::standard_config;
use symbist_defects::{run_campaign, CampaignOptions, DefectUniverse, LikelihoodModel};

fn main() {
    let xc = standard_config();
    let engine = xc.build_engine();
    let functional = HistogramBist::default();
    let base = SarAdc::new(xc.adc.clone());
    let universe = DefectUniverse::enumerate(&base, &LikelihoodModel::default());

    let sample = 48;
    eprintln!("Campaigning {sample} LWRS defects through BOTH tests (functional is slow)...");
    let opts = CampaignOptions {
        sample_size: Some(sample),
        seed: xc.seed ^ 0xF0C,
        threads: xc.threads,
        ..Default::default()
    };
    let sym = run_campaign(&base, &universe, &opts, |dut| engine.campaign_test(dut))
        .expect("SymBIST campaign is well-formed");
    let fun = run_campaign(&base, &universe, &opts, |dut| functional.campaign_test(dut))
        .expect("functional campaign is well-formed");

    let cfg = &xc.adc;
    let t_sym = test_time(cfg, Schedule::Sequential).seconds;
    let t_fun = functional.test_time(cfg);
    println!("\n{:<28} {:>16} {:>16}", "", "SymBIST", "functional [4]");
    println!(
        "{:<28} {:>16} {:>16}",
        "philosophy", "defect-oriented", "performance"
    );
    println!(
        "{:<28} {:>16} {:>16}",
        "L-W coverage (same sample)",
        sym.coverage().to_percent_string(),
        fun.coverage().to_percent_string()
    );
    println!(
        "{:<28} {:>13.2} µs {:>13.2} µs",
        "on-chip test time",
        t_sym * 1e6,
        t_fun * 1e6
    );
    println!(
        "{:<28} {:>16} {:>16}",
        "stimulus", "digital counter", "precise sine"
    );
    println!(
        "{:<28} {:>13.1} ms {:>13.1} ms",
        "defect-sim wall time",
        sym.total_wall.as_secs_f64() * 1e3,
        fun.total_wall.as_secs_f64() * 1e3
    );

    // Where the two tests disagree.
    let mut only_sym = 0;
    let mut only_fun = 0;
    for (a, b) in sym.records.iter().zip(&fun.records) {
        match (a.outcome.detected(), b.outcome.detected()) {
            (true, false) => only_sym += 1,
            (false, true) => only_fun += 1,
            _ => {}
        }
    }
    println!(
        "\nDisagreements on the sample: {only_sym} defects only SymBIST catches, \
         {only_fun} only the functional test catches."
    );
    println!(
        "The paper's argument in numbers: higher coverage at {}x less test\n\
         time, a trivial (all-digital) stimulus instead of a precise on-chip\n\
         sine, and — decisively — a {}x faster defect-simulation campaign,\n\
         which is what made Table I affordable at all (functional defect\n\
         simulation of a full ADC is 'typically in the order of hours' per\n\
         the paper's introduction).",
        (t_fun / t_sym).round(),
        (fun.total_wall.as_secs_f64() / sym.total_wall.as_secs_f64()).round()
    );
}
