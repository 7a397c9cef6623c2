//! Functional characterization of the ADC substrate: static linearity from
//! a fine ramp plus dynamic performance from a sine capture — the checks
//! that validate the DUT model is a genuine 10-bit converter, and the
//! machinery behind the escape (spec-violation) analysis.
//!
//! ```sh
//! cargo run --release --example adc_linearity
//! ```

use symbist_repro::adc::{AdcConfig, SarAdc};
use symbist_repro::analysis::linearity::{transitions_from_ramp, LinearityReport};

fn main() {
    let cfg = AdcConfig::default();
    let adc = SarAdc::new(cfg.clone());

    // Static: ramp a 6-bit-wide window around mid-scale finely enough to
    // catch every transition (full 10-bit ramps are left to the benches).
    let lo_code = 496u32;
    let hi_code = 560u32;
    let lsb = cfg.lsb();
    let v_lo = adc.ideal_level(lo_code as u16) - 2.0 * lsb;
    let v_hi = adc.ideal_level(hi_code as u16) + 2.0 * lsb;
    let steps = 640;
    println!("Ramping {steps} points over codes {lo_code}..{hi_code}...");
    let samples: Vec<(f64, u32)> = (0..=steps)
        .map(|i| {
            let v = v_lo + (v_hi - v_lo) * i as f64 / steps as f64;
            (v, adc.try_convert(v).expect("conversion simulates") as u32)
        })
        .collect();

    let transitions = transitions_from_ramp(&samples, 1024);
    let window: Vec<f64> = transitions[(lo_code as usize)..(hi_code as usize)]
        .iter()
        .map(|t| t.expect("all transitions inside the ramp window observed"))
        .collect();
    let report = LinearityReport::from_transitions(&window);
    println!(
        "Static linearity over the window: max |DNL| = {:.3} LSB, max |INL| = {:.3} LSB, LSB = {:.3} mV",
        report.max_dnl,
        report.max_inl,
        report.lsb * 1e3
    );
    println!("Missing codes: {:?}", report.missing_codes());
    assert!(report.max_dnl < 0.9, "substrate must be monotone");

    // Dynamic: the SAR loop digitizes a slow sine; ENOB from the spectrum.
    let n = 256;
    println!("\nCapturing {n}-point sine for the dynamic test...");
    let captures: Vec<f64> = (0..n)
        .map(|i| {
            let phase = 2.0 * std::f64::consts::PI * 3.0 * i as f64 / n as f64;
            let din = 0.85 * phase.sin();
            let code = adc.try_convert(din).expect("conversion simulates") as f64;
            (code - 512.0) / 512.0
        })
        .collect();
    let rep = symbist_repro::analysis::analyze_sine(&captures);
    println!(
        "Dynamic: SNDR = {:.1} dB, ENOB = {:.1} bits, SFDR = {:.1} dB",
        rep.sndr_db, rep.enob, rep.sfdr_db
    );
}
