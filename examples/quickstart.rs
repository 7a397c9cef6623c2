//! Quickstart: build the SAR ADC IP, calibrate SymBIST, run the self-test
//! on a healthy device and on a defective one.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use symbist_repro::adc::fault::{DefectKind, DefectSite, Faultable};
use symbist_repro::adc::{AdcConfig, BlockKind, SarAdc};
use symbist_repro::bist::calibrate::Calibration;
use symbist_repro::bist::session::{Schedule, SymBist};
use symbist_repro::bist::stimulus::StimulusSpec;
use symbist_repro::bist::testtime::test_time;

fn main() {
    // 1. The DUT: the 65 nm 10-bit SAR ADC IP of the paper.
    let cfg = AdcConfig::default();
    let adc = SarAdc::new(cfg.clone());
    println!(
        "SAR ADC IP: {} bits, fclk = {} MHz, {} physical components",
        cfg.bits,
        cfg.fclk / 1e6,
        adc.components().len()
    );

    // 2. It converts: a quick three-point sanity sweep.
    for din in [-0.6, 0.0, 0.6] {
        println!(
            "  convert(ΔIN = {din:+.1} V) = code {}",
            adc.try_convert(din).expect("conversion simulates")
        );
    }

    // 3. Calibrate the SymBIST windows: δ = 5σ over a 10-sample Monte
    //    Carlo (paper §VI), then build the sequential-schedule engine.
    let stimulus = StimulusSpec::default();
    let calibration = Calibration::run(&cfg, &stimulus, 10, 5.0, 42);
    println!("\nCalibrated windows (δ = k·σ, k = 5):");
    for id in symbist_repro::bist::InvarianceId::ALL {
        println!(
            "  {:<34} δ = {:>8.3} mV",
            id.label(),
            calibration.deltas[id.index()] * 1e3
        );
    }
    let bist = SymBist::new(calibration, stimulus, Schedule::Sequential);

    // 4. A healthy device passes.
    let result = bist.try_run(&adc, true).expect("BIST run simulates");
    println!("\nHealthy DUT: pass = {}", result.pass);
    let tt = test_time(&cfg, Schedule::Sequential);
    println!(
        "Test time: {} cycles = {:.2} µs ({}x one conversion)",
        tt.cycles,
        tt.seconds * 1e6,
        tt.conversions_equivalent
    );

    // 5. Inject a defect from the paper's model (a shorted Vcm-generator
    //    divider resistor) and watch invariance I3 flag it.
    let mut bad = adc.clone();
    let site = bad
        .components()
        .iter()
        .position(|c| c.block == BlockKind::VcmGenerator)
        .expect("catalog has a Vcm generator");
    bad.inject(DefectSite {
        component: site,
        kind: DefectKind::Short,
    });
    let result = bist.try_run(&bad, true).expect("BIST run simulates");
    println!("\nDefective DUT: pass = {}", result.pass);
    if let Some(d) = result.first_detection() {
        println!(
            "  first detection: {} at counter code {} (BIST cycle {}), deviation {:+.1} mV",
            d.invariance,
            d.code,
            d.cycle,
            d.deviation * 1e3
        );
    }
}
