//! EXP-ABL (extension): ablations of two SymBIST design choices called
//! out in DESIGN.md §4.
//!
//! 1. **Stimulus DC value** — the paper says ΔIN "can be set arbitrarily";
//!    the SC-array charge equations show that ΔIN = 0 (with the counter
//!    driving both sub-DACs identically) degenerates `DAC± = M±`, hiding
//!    every capacitor-ratio defect. The ablation measures SC-array
//!    coverage at ΔIN = 0 vs the default 0.2 V.
//! 2. **Stop-on-detection** — defect-simulation wall time with and without
//!    the early abort (paper §V uses it to make the campaign tractable).
//!
//! ```sh
//! cargo run --release -p symbist-bench --bin ablation
//! ```

use std::time::Instant;

use symbist::experiments::ExperimentConfig;
use symbist::stimulus::StimulusSpec;
use symbist_adc::{BlockKind, SarAdc};
use symbist_defects::{run_campaign, CampaignOptions, DefectUniverse, LikelihoodModel};

fn main() {
    // Ablation 1: stimulus DC value.
    println!("Ablation 1: SC-array coverage vs stimulus ΔIN\n");
    println!("{:>8} {:>14}", "ΔIN (V)", "L-W coverage");
    for din in [0.0, 0.05, 0.2] {
        let xc = ExperimentConfig {
            stimulus: StimulusSpec::new(din),
            ..Default::default()
        };
        let engine = xc.build_engine();
        let adc = SarAdc::new(xc.adc.clone());
        let uni = DefectUniverse::enumerate(&adc, &LikelihoodModel::default())
            .filter_block(BlockKind::ScArray);
        let res = run_campaign(&adc, &uni, &CampaignOptions::default(), |dut| {
            engine.campaign_test(dut)
        })
        .expect("ablation campaign is well-formed");
        println!("{:>8.2} {:>14}", din, res.coverage().to_percent_string());
    }
    println!(
        "\nΔIN = 0 degenerates the charge equation (DAC± = M±): capacitor\n\
         defects become invisible — the stimulus must be nonzero.\n"
    );

    // Ablation 2: stop-on-detection wall time.
    println!("Ablation 2: campaign wall time with/without stop-on-detection\n");
    let xc = ExperimentConfig::default();
    let engine = xc.build_engine();
    let adc = SarAdc::new(xc.adc.clone());
    let uni = DefectUniverse::enumerate(&adc, &LikelihoodModel::default())
        .filter_block(BlockKind::ScArray);
    for stop in [true, false] {
        let t0 = Instant::now();
        let mut cycles_total: u64 = 0;
        for d in uni.iter() {
            let mut dut = adc.clone();
            symbist_adc::fault::Faultable::inject(&mut dut, d.site);
            let r = engine
                .try_run(&dut, stop)
                .expect("SC-array defects simulate to completion");
            cycles_total += u64::from(r.cycles_run);
        }
        println!(
            "  stop-on-detection = {:<5}  wall {:>6.2} s, {:>7} BIST cycles simulated",
            stop,
            t0.elapsed().as_secs_f64(),
            cycles_total
        );
    }
    println!(
        "\nAs in Tessent DefectSim (§V), the early abort trims both the\n\
         modeled test cycles and the simulation wall time."
    );
}
