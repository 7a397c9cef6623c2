//! Integration: the ADC substrate behaves as a real 10-bit converter when
//! driven through the public API together with the analysis crate.

use symbist_repro::adc::{AdcConfig, SarAdc};
use symbist_repro::analysis::linearity::LinearityReport;
use symbist_repro::circuit::rng::Rng;
use symbist_repro::circuit::CircuitError;

#[test]
fn transfer_curve_is_monotone_and_full_range() -> Result<(), CircuitError> {
    let adc = SarAdc::new(AdcConfig::default());
    let mut prev = 0u16;
    for i in 0..=40 {
        let din = -1.1 + 2.2 * i as f64 / 40.0;
        let code = adc.try_convert(din)?;
        assert!(code >= prev, "non-monotone at din {din}: {code} < {prev}");
        prev = code;
    }
    assert!(adc.try_convert(-1.15)? < 25);
    assert!(adc.try_convert(1.1)? > 1000);
    Ok(())
}

#[test]
fn mid_scale_window_linearity() -> Result<(), CircuitError> {
    // Fine ramp over 16 codes around mid-scale: DNL bounded, no missing
    // codes — validates both the SC charge path and the SAR loop.
    let adc = SarAdc::new(AdcConfig::default());
    let lsb = adc.config().lsb();
    let v0 = adc.ideal_level(520);
    let mut transitions = Vec::new();
    let mut prev_code = adc.try_convert(v0 - 0.5 * lsb)? as i32;
    let steps = 320;
    for i in 1..=steps {
        let v = v0 - 0.5 * lsb + 17.0 * lsb * i as f64 / steps as f64;
        let code = adc.try_convert(v)? as i32;
        if code > prev_code {
            for _ in 0..(code - prev_code) {
                transitions.push(v);
            }
            prev_code = code;
        }
    }
    assert!(
        transitions.len() >= 15,
        "found {} transitions",
        transitions.len()
    );
    let report = LinearityReport::from_transitions(&transitions[..15]);
    assert!(report.max_dnl < 0.9, "DNL {}", report.max_dnl);
    assert!(report.missing_codes().is_empty());
    Ok(())
}

#[test]
fn mismatched_instances_still_convert_correctly() -> Result<(), CircuitError> {
    let mut rng = Rng::seed_from_u64(77);
    for _ in 0..3 {
        let adc = SarAdc::with_mismatch(AdcConfig::default(), &mut rng);
        let lo = adc.try_convert(-0.5)?;
        let mid = adc.try_convert(0.0)?;
        let hi = adc.try_convert(0.5)?;
        assert!(lo < mid && mid < hi);
        // Offset stays within a few codes of the architectural midpoint.
        assert!((mid as i32 - 528).abs() < 8, "mid code {mid}");
    }
    Ok(())
}

#[test]
fn conversion_agrees_with_ideal_levels_everywhere() -> Result<(), CircuitError> {
    let adc = SarAdc::new(AdcConfig::default());
    for target in (64..1024).step_by(192) {
        let t = target as u16;
        let din = (adc.ideal_level(t) + adc.ideal_level(t - 1)) / 2.0;
        let got = adc.try_convert(din)?;
        assert!((got as i32 - t as i32).abs() <= 1, "target {t}, got {got}");
    }
    Ok(())
}
