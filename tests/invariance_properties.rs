//! Property-based integration tests of the SymBIST invariances — the
//! paper's central claim is that these hold *by construction* for any FD
//! input and any process corner, and break only under defects.
//!
//! Cases are generated from the repo's deterministic [`Rng`]; failures
//! reproduce from the printed seed.

use symbist_repro::adc::{AdcConfig, AdcMismatch, SarAdc};
use symbist_repro::bist::invariance::{deviation, CheckerWiring, InvarianceId};
use symbist_repro::circuit::rng::Rng;
use symbist_repro::circuit::CircuitError;

/// Eqs. (2)–(5) hold for any FD DC input on the nominal device.
#[test]
fn invariances_hold_for_any_fd_input() -> Result<(), CircuitError> {
    let adc = SarAdc::new(AdcConfig::default());
    let wiring = CheckerWiring::from_config(adc.config());
    let mut rng = Rng::seed_from_u64(0x1D);
    for case in 0..8 {
        let din = rng.uniform(-0.9, 0.9);
        for obs in adc.try_symbist_observations(din)? {
            for id in InvarianceId::ALL {
                let dev = deviation(id, &obs, &wiring).abs();
                assert!(
                    dev < 0.012,
                    "case {case}: {id} deviated {dev} at code {} (din {din})",
                    obs.code
                );
            }
        }
    }
    Ok(())
}

/// The invariances also hold (within mismatch scale) on random process
/// corners — this is exactly why δ = k·σ windows avoid yield loss.
#[test]
fn invariances_bounded_under_mismatch() -> Result<(), CircuitError> {
    for case in 0u64..8 {
        let seed = case * 7; // spread over the original 0..50 corner space
        let mut rng = Rng::seed_from_u64(seed);
        let mut adc = SarAdc::new(AdcConfig::default());
        adc.apply_mismatch(&AdcMismatch::sample(&mut rng));
        let wiring = CheckerWiring::from_config(adc.config());
        for obs in adc.try_symbist_observations(0.2)? {
            for id in InvarianceId::ALL {
                let dev = deviation(id, &obs, &wiring).abs();
                let bound = match id {
                    InvarianceId::I5SignConsistency => 0.5,
                    InvarianceId::I4LinSum => 0.08,
                    _ => 0.05,
                };
                assert!(dev < bound, "{id} deviated {dev} on corner {seed}");
            }
        }
    }
    Ok(())
}

/// SAR conversion is reproducible and monotone for random input pairs.
#[test]
fn conversion_monotone_pairs() -> Result<(), CircuitError> {
    let adc = SarAdc::new(AdcConfig::default());
    let mut rng = Rng::seed_from_u64(0xC0DE);
    for case in 0..8 {
        let a = rng.uniform(-1.0, 1.0);
        let b = rng.uniform(-1.0, 1.0);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let c_lo = adc.try_convert(lo)?;
        let c_hi = adc.try_convert(hi)?;
        assert!(
            c_lo <= c_hi,
            "case {case}: codes {c_lo} > {c_hi} for inputs {lo} <= {hi}"
        );
        // Determinism.
        assert_eq!(adc.try_convert(lo)?, c_lo);
    }
    Ok(())
}
