//! Monte-Carlo calibration of the comparison windows (paper §II, §VI).
//!
//! "The parameter δ can be set to k·σ, where σ is the standard deviation
//! of the invariant signal computed by a Monte Carlo analysis and k is set
//! accordingly so as to avoid yield loss." The paper uses k = 5.
//!
//! Calibration builds `n` mismatched defect-free ADC instances, runs the
//! counter stimulus on each, pools the per-code deviations of every analog
//! invariance, and sets `δ_i = k·σ_i` with the window *centered on the
//! pooled mean µ_i* (the checker's reference is trimmed to the systematic
//! residue, e.g. finite settling). The digital check I5 gets a fixed
//! decision and no window.

use symbist_adc::{AdcConfig, AdcMismatch, SarAdc};
use symbist_analysis::stats::summary;
use symbist_circuit::mc::run_parallel_seeded;
use symbist_circuit::rng::Rng;

use crate::invariance::{deviation, CheckerWiring, InvarianceId};
use crate::stimulus::StimulusSpec;
use crate::window::WindowComparator;

/// Calibrated windows for the six invariances.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// The `k` used (paper: 5).
    pub k: f64,
    /// Pooled per-invariance deviation means.
    pub means: [f64; 6],
    /// Pooled per-invariance deviation standard deviations.
    pub sigmas: [f64; 6],
    /// Window half-widths `δ_i = k·σ_i`; the window is centered on
    /// `means[i]` (unused slot for I5).
    pub deltas: [f64; 6],
    /// Monte-Carlo sample count.
    pub samples: usize,
    /// Checker wiring captured at calibration time.
    pub wiring: CheckerWiring,
}

impl Calibration {
    /// Runs the Monte-Carlo calibration, parallelized across the machine's
    /// cores. The per-sample RNG streams are forked from the seed in sample
    /// order, so the result is bit-identical for any level of parallelism.
    ///
    /// # Panics
    ///
    /// Panics if `samples < 2`, `k <= 0`, or a mismatch instance fails
    /// to simulate.
    pub fn run(
        cfg: &AdcConfig,
        stimulus: &StimulusSpec,
        samples: usize,
        k: f64,
        seed: u64,
    ) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::run_with_threads(cfg, stimulus, samples, k, seed, threads)
    }

    /// [`Calibration::run`] with an explicit worker-thread count.
    ///
    /// `threads = 1` is the sequential reference path; every other value
    /// produces bit-identical sigmas and deltas.
    ///
    /// # Panics
    ///
    /// Panics if `samples < 2`, `k <= 0`, or a mismatch instance fails
    /// to simulate.
    pub fn run_with_threads(
        cfg: &AdcConfig,
        stimulus: &StimulusSpec,
        samples: usize,
        k: f64,
        seed: u64,
        threads: usize,
    ) -> Self {
        // Every sample starts from one nominal instance: `SarAdc::new`
        // solves the nominal bandgap and builds the component catalog, the
        // same for every sample.
        let nominal = SarAdc::new(cfg.clone());
        Self::run_on(cfg, stimulus, samples, k, seed, threads, |rng| {
            let mut adc = nominal.clone();
            adc.apply_mismatch(&AdcMismatch::sample(rng));
            adc
        })
    }

    /// The calibration over the instances `instance` draws, one per sample
    /// from the sample's forked RNG stream.
    fn run_on(
        cfg: &AdcConfig,
        stimulus: &StimulusSpec,
        samples: usize,
        k: f64,
        seed: u64,
        threads: usize,
        instance: impl Fn(&mut Rng) -> SarAdc + Sync,
    ) -> Self {
        assert!(samples >= 2, "need at least 2 MC samples");
        assert!(k > 0.0, "k must be positive");
        let cal_start = symbist_obs::enabled().then(std::time::Instant::now);
        let _cal_span = symbist_obs::span!("calibration");
        let wiring = CheckerWiring::from_config(cfg);
        let mut rng = Rng::seed_from_u64(seed);
        // One deviation matrix per sample, evaluated in parallel; pooling
        // happens afterwards in sample order so the statistics cannot
        // depend on thread scheduling.
        let mc_span = symbist_obs::span!("calibration_mc_samples");
        let per_sample: Vec<[Vec<f64>; 6]> =
            run_parallel_seeded(samples, &mut rng, threads, |_, sample_rng| {
                let adc = instance(sample_rng);
                let mut devs: [Vec<f64>; 6] = Default::default();
                let observations = adc
                    .try_symbist_observations(stimulus.din)
                    .expect("a defect-free mismatch instance simulates");
                for obs in observations {
                    for id in InvarianceId::ALL {
                        if id.is_digital() {
                            continue;
                        }
                        devs[id.index()].push(deviation(id, &obs, &wiring));
                    }
                }
                devs
            });
        drop(mc_span);
        let pool_span = symbist_obs::span!("calibration_pooling");
        let mut pooled: [Vec<f64>; 6] = Default::default();
        for devs in per_sample {
            for (pool, mut dev) in pooled.iter_mut().zip(devs) {
                pool.append(&mut dev);
            }
        }
        let mut means = [0.0; 6];
        let mut sigmas = [0.0; 6];
        let mut deltas = [0.0; 6];
        for id in InvarianceId::ALL {
            let i = id.index();
            if id.is_digital() {
                // I5 is a 1-bit consistency check: any mismatch detects.
                deltas[i] = 0.5;
                continue;
            }
            let s = summary(&pooled[i]);
            means[i] = s.mean;
            sigmas[i] = s.std.max(1e-6); // floor keeps the window physical
            deltas[i] = k * sigmas[i];
        }
        drop(pool_span);
        if let Some(cal_start) = cal_start {
            symbist_obs::counter!(
                "symbist_calibration_runs_total",
                "Monte-Carlo calibrations performed"
            )
            .inc();
            symbist_obs::histogram!(
                "symbist_calibration_seconds",
                "Wall time per Monte-Carlo calibration (sampling + pooling)",
                symbist_obs::SECONDS_EDGES
            )
            .record(cal_start.elapsed().as_secs_f64());
        }
        Self {
            k,
            means,
            sigmas,
            deltas,
            samples,
            wiring,
        }
    }

    /// The window comparator for one invariance.
    pub fn window(&self, id: InvarianceId) -> WindowComparator {
        WindowComparator::new(self.deltas[id.index()])
    }

    /// Centers a raw deviation on the calibrated systematic residue; the
    /// returned value is what the window comparator sees.
    pub fn centered(&self, id: InvarianceId, raw_deviation: f64) -> f64 {
        if id.is_digital() {
            raw_deviation
        } else {
            raw_deviation - self.means[id.index()]
        }
    }

    /// Re-derives the windows for a different `k` without re-running the
    /// Monte Carlo (used by the yield-loss sweep).
    pub fn with_k(&self, k: f64) -> Calibration {
        assert!(k > 0.0, "k must be positive");
        let mut out = self.clone();
        out.k = k;
        for id in InvarianceId::ALL {
            let i = id.index();
            if id.is_digital() {
                continue;
            }
            out.deltas[i] = k * self.sigmas[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbist_circuit::CircuitError;

    fn quick_cal() -> Calibration {
        Calibration::run(&AdcConfig::default(), &StimulusSpec::default(), 8, 5.0, 42)
    }

    #[test]
    fn windows_are_positive_and_millivolt_scale() {
        let cal = quick_cal();
        for id in InvarianceId::ALL {
            let d = cal.deltas[id.index()];
            assert!(d > 0.0, "{id} window must be positive");
            if !id.is_digital() {
                // Mismatch-driven windows sit in the sub-100 mV range —
                // far below the defect signatures (hundreds of mV).
                assert!(d < 0.1, "{id} window {d} too wide");
                assert!(cal.sigmas[id.index()] > 0.0);
            }
        }
        assert_eq!(cal.samples, 8);
    }

    #[test]
    fn with_k_scales_analog_windows() {
        let cal = quick_cal();
        let tight = cal.with_k(3.0);
        for id in InvarianceId::ALL {
            let i = id.index();
            if id.is_digital() {
                assert_eq!(tight.deltas[i], cal.deltas[i]);
            } else {
                assert!(tight.deltas[i] < cal.deltas[i]);
            }
        }
    }

    #[test]
    fn calibration_is_deterministic() {
        let a = quick_cal();
        let b = quick_cal();
        assert_eq!(a.deltas, b.deltas);
    }

    #[test]
    fn parallel_calibration_bit_identical_to_sequential() {
        let cfg = AdcConfig::default();
        let stim = StimulusSpec::default();
        let seq = Calibration::run_with_threads(&cfg, &stim, 6, 5.0, 42, 1);
        for threads in [2, 4, 16] {
            let par = Calibration::run_with_threads(&cfg, &stim, 6, 5.0, 42, threads);
            assert_eq!(seq.sigmas, par.sigmas, "{threads} threads changed sigmas");
            assert_eq!(seq.deltas, par.deltas, "{threads} threads changed deltas");
            assert_eq!(seq.means, par.means, "{threads} threads changed means");
        }
    }

    /// Cloning one nominal instance per sample gives the calibration of
    /// building every sample with `SarAdc::new`, bit for bit.
    #[test]
    fn one_nominal_clone_per_sample_matches_a_new_adc_per_sample() {
        let cfg = AdcConfig::default();
        let stim = StimulusSpec::default();
        let cloned = Calibration::run_with_threads(&cfg, &stim, 6, 5.0, 42, 2);
        let built = Calibration::run_on(&cfg, &stim, 6, 5.0, 42, 2, |rng| {
            let mut adc = SarAdc::new(cfg.clone());
            adc.apply_mismatch(&AdcMismatch::sample(rng));
            adc
        });
        let bits = |v: [f64; 6]| v.map(f64::to_bits);
        assert_eq!(bits(cloned.means), bits(built.means));
        assert_eq!(bits(cloned.sigmas), bits(built.sigmas));
        assert_eq!(bits(cloned.deltas), bits(built.deltas));
    }

    #[test]
    fn healthy_instances_pass_their_own_windows() -> Result<(), CircuitError> {
        // k = 5 windows must not flag in-distribution healthy devices.
        let cal = quick_cal();
        let mut rng = Rng::seed_from_u64(999);
        let cfg = AdcConfig::default();
        let mut adc = SarAdc::new(cfg.clone());
        adc.apply_mismatch(&AdcMismatch::sample(&mut rng));
        for obs in adc.try_symbist_observations(StimulusSpec::default().din)? {
            for id in InvarianceId::ALL {
                let dev = deviation(id, &obs, &cal.wiring);
                assert!(
                    cal.window(id).check(dev),
                    "{id} flagged a healthy device (dev {dev}, δ {})",
                    cal.deltas[id.index()]
                );
            }
        }
        Ok(())
    }
}
