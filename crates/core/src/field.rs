//! In-field periodic BIST and latent-defect detection latency (extension).
//!
//! The paper motivates SymBIST with functional safety: the test is "a
//! step towards guaranteeing functional safety if it is capable of
//! detecting latent defects, as well as defects that will be triggered in
//! the context of system operation in the field" (§I). Because the test
//! is transparent (1.23 µs, no design disturbance), it can be scheduled
//! periodically between conversions. This module quantifies that story in
//! ISO-26262 vocabulary: given a mission profile with a BIST every `P`
//! frames and a fault-tolerant time interval (FTTI), what fraction of
//! field-activated defects is caught, and with what latency?

use symbist_adc::fault::Faultable;
use symbist_adc::SarAdc;
use symbist_circuit::rng::Rng;

use crate::session::SymBist;

/// Mission scheduling parameters (times in conversion frames; one frame =
/// 12 clock cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissionProfile {
    /// The BIST runs every this many frames.
    pub bist_period_frames: u64,
    /// Frames the BIST itself occupies (sequential schedule: 192 cycles =
    /// 16 frames).
    pub bist_duration_frames: u64,
    /// Fault-tolerant time interval: a detection later than this after
    /// activation counts as a safety miss.
    pub ftti_frames: u64,
}

impl MissionProfile {
    /// A profile from a BIST period and FTTI, both in seconds, under a
    /// configuration.
    pub fn from_times(cfg: &symbist_adc::AdcConfig, period_s: f64, ftti_s: f64) -> Self {
        let frame = cfg.conversion_time();
        Self {
            bist_period_frames: (period_s / frame).max(1.0) as u64,
            bist_duration_frames: 16,
            ftti_frames: (ftti_s / frame).max(1.0) as u64,
        }
    }
}

/// Outcome for one latent defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldOutcome {
    /// Frame at which the defect became active.
    pub activated_at: u64,
    /// Frame at which the periodic BIST flagged it (if it can at all).
    pub detected_at: Option<u64>,
    /// `detected_at − activated_at`.
    pub latency_frames: Option<u64>,
    /// Whether the detection landed inside the FTTI.
    pub within_ftti: bool,
}

/// Aggregate field-safety report.
#[derive(Debug, Clone)]
pub struct FieldReport {
    /// Per-defect outcomes.
    pub outcomes: Vec<FieldOutcome>,
    /// Fraction of defects the periodic BIST detects at all (the
    /// diagnostic-coverage term of the safety metric).
    pub diagnostic_coverage: f64,
    /// Fraction detected within the FTTI.
    pub within_ftti_fraction: f64,
    /// Worst observed latency in frames (detected defects only).
    pub worst_latency_frames: Option<u64>,
}

/// Runs the field campaign: each defect activates at a random frame in
/// `[0, activation_span)`; the next scheduled BIST run catches it iff the
/// (deterministic) test detects that defect.
///
/// # Panics
///
/// Panics if `defects` is empty, the profile has a zero period, or a
/// defect's BIST run fails to simulate.
pub fn field_campaign(
    engine: &SymBist,
    base: &SarAdc,
    defects: &[symbist_adc::fault::DefectSite],
    profile: MissionProfile,
    activation_span: u64,
    seed: u64,
) -> FieldReport {
    assert!(!defects.is_empty(), "no defects to activate");
    assert!(profile.bist_period_frames > 0, "zero BIST period");
    let mut rng = Rng::seed_from_u64(seed);
    let mut outcomes = Vec::with_capacity(defects.len());
    for site in defects {
        let mut dut = base.clone();
        dut.inject(*site);
        let detectable = !engine
            .try_run(&dut, true)
            .expect("field-campaign defects simulate to completion")
            .pass;
        let activated_at = rng.below(activation_span.max(1));
        let outcome = if detectable {
            // Next scheduled run strictly after activation, plus the test
            // itself.
            let next_run =
                activated_at.div_ceil(profile.bist_period_frames) * profile.bist_period_frames;
            let next_run = if next_run <= activated_at {
                next_run + profile.bist_period_frames
            } else {
                next_run
            };
            let detected_at = next_run + profile.bist_duration_frames;
            let latency = detected_at - activated_at;
            FieldOutcome {
                activated_at,
                detected_at: Some(detected_at),
                latency_frames: Some(latency),
                within_ftti: latency <= profile.ftti_frames,
            }
        } else {
            FieldOutcome {
                activated_at,
                detected_at: None,
                latency_frames: None,
                within_ftti: false,
            }
        };
        outcomes.push(outcome);
    }
    let detected = outcomes.iter().filter(|o| o.detected_at.is_some()).count();
    let within = outcomes.iter().filter(|o| o.within_ftti).count();
    let worst = outcomes.iter().filter_map(|o| o.latency_frames).max();
    FieldReport {
        diagnostic_coverage: detected as f64 / defects.len() as f64,
        within_ftti_fraction: within as f64 / defects.len() as f64,
        worst_latency_frames: worst,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::Calibration;
    use crate::session::Schedule;
    use crate::stimulus::StimulusSpec;
    use symbist_adc::fault::{DefectKind, DefectSite};
    use symbist_adc::{AdcConfig, BlockKind};

    fn engine() -> SymBist {
        let cfg = AdcConfig::default();
        let stim = StimulusSpec::default();
        let cal = Calibration::run(&cfg, &stim, 6, 5.0, 99);
        SymBist::new(cal, stim, Schedule::Sequential)
    }

    fn sites(base: &SarAdc) -> Vec<DefectSite> {
        let vcm = base
            .components()
            .iter()
            .position(|c| c.block == BlockKind::VcmGenerator)
            .unwrap();
        let esr = base
            .components()
            .iter()
            .position(|c| c.name.contains("r_esr"))
            .unwrap();
        vec![
            DefectSite {
                component: vcm,
                kind: DefectKind::Short,
            }, // detectable
            DefectSite {
                component: esr,
                kind: DefectKind::Open,
            }, // escape
        ]
    }

    #[test]
    fn latency_bounded_by_period_plus_duration() {
        let engine = engine();
        let base = SarAdc::new(AdcConfig::default());
        let profile = MissionProfile {
            bist_period_frames: 1000,
            bist_duration_frames: 16,
            ftti_frames: 2000,
        };
        let report = field_campaign(&engine, &base, &sites(&base), profile, 100_000, 1);
        let detectable = &report.outcomes[0];
        let lat = detectable.latency_frames.unwrap();
        assert!((16..=1016).contains(&lat), "latency {lat}");
        assert!(detectable.within_ftti);
        // The escape is never caught by the periodic DC BIST.
        assert!(report.outcomes[1].detected_at.is_none());
        assert!((report.diagnostic_coverage - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tight_ftti_fails_slow_schedules() {
        let engine = engine();
        let base = SarAdc::new(AdcConfig::default());
        let site = vec![sites(&base)[0]];
        let slow = MissionProfile {
            bist_period_frames: 10_000,
            bist_duration_frames: 16,
            ftti_frames: 100,
        };
        let report = field_campaign(&engine, &base, &site, slow, 1_000_000, 5);
        // With P ≫ FTTI the detection almost surely misses the window.
        assert_eq!(report.within_ftti_fraction, 0.0);
        // The same defect under a fast schedule makes the window.
        let fast = MissionProfile {
            bist_period_frames: 50,
            bist_duration_frames: 16,
            ftti_frames: 100,
        };
        let report = field_campaign(&engine, &base, &site, fast, 1_000_000, 5);
        assert_eq!(report.within_ftti_fraction, 1.0);
    }

    #[test]
    fn profile_from_times() {
        let cfg = AdcConfig::default();
        // 1 ms period at 76.9 ns/frame ≈ 13000 frames.
        let p = MissionProfile::from_times(&cfg, 1e-3, 10e-3);
        assert!((p.bist_period_frames as i64 - 13000).abs() < 100);
        assert!(p.ftti_frames > p.bist_period_frames);
    }
}
