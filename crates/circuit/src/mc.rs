//! Monte-Carlo process-variation engine.
//!
//! SymBIST sets its window-comparator thresholds to `δ = k·σ`, where `σ` is
//! the standard deviation of each invariant signal over process variation
//! (paper §II). This module perturbs netlist parameters according to a
//! mismatch specification and hands back perturbed copies, one per MC
//! sample, using the deterministic [`Rng`].
//!
//! # Examples
//!
//! ```
//! use symbist_circuit::netlist::Netlist;
//! use symbist_circuit::mc::{MismatchSpec, Param, Variation};
//! use symbist_circuit::rng::Rng;
//!
//! let mut nl = Netlist::new();
//! let a = nl.node("a");
//! let r = nl.resistor(a, Netlist::GND, 1000.0);
//! let spec = MismatchSpec::new(vec![Variation::relative(r, Param::Resistance, 0.01)]);
//! let mut rng = Rng::seed_from_u64(1);
//! let sample = spec.perturb(&nl, &mut rng);
//! // The perturbed resistance is near, but not exactly, 1 kΩ.
//! if let symbist_circuit::netlist::Device::Resistor { ohms, .. } = sample.device(r) {
//!     assert!((ohms - 1000.0).abs() < 100.0);
//! }
//! ```

use crate::netlist::{Device, DeviceId, Netlist, SourceWave};
use crate::rng::Rng;

/// Which parameter of a device a variation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Param {
    /// Resistor value.
    Resistance,
    /// Capacitor value.
    Capacitance,
    /// MOSFET threshold voltage.
    Vth,
    /// MOSFET transconductance factor.
    Kp,
    /// Diode saturation current.
    ISat,
    /// VCVS gain.
    Gain,
    /// VCCS transconductance.
    Gm,
    /// DC value of a V or I source (models reference/offset variation).
    SourceValue,
}

/// A single mismatch contributor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Variation {
    /// Target device.
    pub device: DeviceId,
    /// Target parameter.
    pub param: Param,
    /// Standard deviation: relative (fraction of nominal) or absolute
    /// (parameter units) depending on `relative`.
    pub sigma: f64,
    /// Interpretation of `sigma`.
    pub relative: bool,
}

impl Variation {
    /// Relative variation: parameter scaled by `1 + N(0, sigma)`.
    pub fn relative(device: DeviceId, param: Param, sigma: f64) -> Self {
        Self {
            device,
            param,
            sigma,
            relative: true,
        }
    }

    /// Absolute variation: parameter shifted by `N(0, sigma)`.
    pub fn absolute(device: DeviceId, param: Param, sigma: f64) -> Self {
        Self {
            device,
            param,
            sigma,
            relative: false,
        }
    }
}

/// A set of mismatch contributors applied together per MC sample.
#[derive(Debug, Clone, Default)]
pub struct MismatchSpec {
    variations: Vec<Variation>,
}

impl MismatchSpec {
    /// Creates a spec from explicit variations.
    pub fn new(variations: Vec<Variation>) -> Self {
        Self { variations }
    }

    /// An empty spec (perturb returns exact copies).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Adds a variation.
    pub fn push(&mut self, v: Variation) {
        self.variations.push(v);
    }

    /// Adds a relative variation on every resistor in the netlist.
    pub fn vary_all_resistors(&mut self, netlist: &Netlist, sigma: f64) {
        for (id, dev) in netlist.iter() {
            if matches!(dev, Device::Resistor { .. }) {
                self.push(Variation::relative(id, Param::Resistance, sigma));
            }
        }
    }

    /// Adds a relative variation on every capacitor in the netlist.
    pub fn vary_all_capacitors(&mut self, netlist: &Netlist, sigma: f64) {
        for (id, dev) in netlist.iter() {
            if matches!(dev, Device::Capacitor { .. }) {
                self.push(Variation::relative(id, Param::Capacitance, sigma));
            }
        }
    }

    /// Adds an absolute Vth variation on every MOSFET in the netlist.
    pub fn vary_all_vth(&mut self, netlist: &Netlist, sigma_volts: f64) {
        for (id, dev) in netlist.iter() {
            if matches!(dev, Device::Mosfet { .. }) {
                self.push(Variation::absolute(id, Param::Vth, sigma_volts));
            }
        }
    }

    /// Number of contributors.
    pub fn len(&self) -> usize {
        self.variations.len()
    }

    /// Returns `true` if the spec has no contributors.
    pub fn is_empty(&self) -> bool {
        self.variations.is_empty()
    }

    /// Produces one perturbed copy of the netlist.
    ///
    /// Parameters with positivity constraints (R, C, Isat, kp) are clamped
    /// to 1 % of nominal so that a wild sample cannot produce an invalid
    /// device.
    ///
    /// # Panics
    ///
    /// Panics if a variation targets a device/parameter combination that
    /// does not exist (e.g. `Vth` on a resistor) — that is a programming
    /// error in the spec, not a data condition.
    pub fn perturb(&self, netlist: &Netlist, rng: &mut Rng) -> Netlist {
        let mut out = netlist.clone();
        for v in &self.variations {
            let noise = rng.normal(0.0, v.sigma);
            let apply = |nominal: f64| -> f64 {
                if v.relative {
                    nominal * (1.0 + noise)
                } else {
                    nominal + noise
                }
            };
            let dev = out.device_mut(v.device);
            match (v.param, dev) {
                (Param::Resistance, Device::Resistor { ohms, .. }) => {
                    *ohms = apply(*ohms).max(0.01 * *ohms);
                }
                (Param::Capacitance, Device::Capacitor { farads, .. }) => {
                    *farads = apply(*farads).max(0.01 * *farads);
                }
                (Param::Vth, Device::Mosfet { vth, .. }) => {
                    *vth = apply(*vth).max(0.01 * *vth);
                }
                (Param::Kp, Device::Mosfet { kp, .. }) => {
                    *kp = apply(*kp).max(0.01 * *kp);
                }
                (Param::ISat, Device::Diode { i_sat, .. }) => {
                    *i_sat = apply(*i_sat).max(0.01 * *i_sat);
                }
                (Param::Gain, Device::Vcvs { gain, .. }) => {
                    *gain = apply(*gain);
                }
                (Param::Gm, Device::Vccs { gm, .. }) => {
                    *gm = apply(*gm);
                }
                (Param::SourceValue, Device::VSource { wave, .. })
                | (Param::SourceValue, Device::ISource { wave, .. }) => {
                    if let SourceWave::Dc(val) = wave {
                        *val = apply(*val);
                    }
                }
                (param, dev) => {
                    panic!("variation {param:?} does not apply to device {dev:?}")
                }
            }
        }
        out
    }
}

/// Runs `samples` independent seeded evaluations across `threads` workers,
/// returning results in sample order.
///
/// Sample `i` receives its own RNG, forked from `rng` deterministically and
/// in order **before** any worker starts, so the output is bit-identical for
/// every thread count. This is the primitive behind parallel Monte-Carlo
/// calibration; anything of the shape "N independent seeded trials" can use
/// it directly.
///
/// `threads` is clamped to `[1, samples]`.
pub fn run_parallel_seeded<T: Send>(
    samples: usize,
    rng: &mut Rng,
    threads: usize,
    f: impl Fn(usize, &mut Rng) -> T + Sync,
) -> Vec<T> {
    let mut sample_rngs: Vec<Rng> = (0..samples).map(|i| rng.fork(i as u64)).collect();
    if samples == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, samples);
    if threads == 1 {
        return sample_rngs
            .iter_mut()
            .enumerate()
            .map(|(i, r)| f(i, r))
            .collect();
    }
    let chunk = samples.div_ceil(threads);
    let mut out: Vec<Option<T>> = (0..samples).map(|_| None).collect();
    std::thread::scope(|scope| {
        let f = &f;
        for (ci, (out_chunk, rng_chunk)) in out
            .chunks_mut(chunk)
            .zip(sample_rngs.chunks_mut(chunk))
            .enumerate()
        {
            scope.spawn(move || {
                for (j, (slot, sample_rng)) in
                    out_chunk.iter_mut().zip(rng_chunk.iter_mut()).enumerate()
                {
                    *slot = Some(f(ci * chunk + j, sample_rng));
                }
            });
        }
    });
    out.into_iter()
        .map(|o| o.expect("every sample slot is filled by its worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::DcSolver;

    fn divider() -> (Netlist, DeviceId, DeviceId) {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let m = nl.node("m");
        nl.vsource(a, Netlist::GND, 1.0);
        let r1 = nl.resistor(a, m, 1000.0);
        let r2 = nl.resistor(m, Netlist::GND, 1000.0);
        (nl, r1, r2)
    }

    #[test]
    fn empty_spec_is_identity() {
        let (nl, _, _) = divider();
        let mut rng = Rng::seed_from_u64(1);
        let copy = MismatchSpec::empty().perturb(&nl, &mut rng);
        assert_eq!(copy.device_count(), nl.device_count());
        for (id, dev) in nl.iter() {
            assert_eq!(copy.device(id), dev);
        }
    }

    #[test]
    fn divider_midpoint_statistics() {
        // 1% mismatch on both resistors: midpoint σ ≈ 0.5·√2·1% /2 = 0.35%.
        let (nl, r1, r2) = divider();
        let mut spec = MismatchSpec::empty();
        spec.push(Variation::relative(r1, Param::Resistance, 0.01));
        spec.push(Variation::relative(r2, Param::Resistance, 0.01));
        let mut rng = Rng::seed_from_u64(2);
        let mid = nl.find_node("m").unwrap();
        let solver = DcSolver::new();
        let vals: Vec<f64> = (0..2000)
            .map(|_| {
                let sample = spec.perturb(&nl, &mut rng);
                solver.solve(&sample).unwrap().voltage(mid)
            })
            .collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let sd =
            (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (vals.len() - 1) as f64).sqrt();
        assert!((mean - 0.5).abs() < 1e-3, "mean {mean}");
        // Analytic: dV/V = (dR2 − dR1)/2 per unit ⇒ σ = 0.5·0.01/√2·√2 ≈ 0.0035.
        assert!((sd - 0.00354).abs() < 5e-4, "sd {sd}");
    }

    #[test]
    fn clamping_prevents_nonpositive_values() {
        let (nl, r1, _) = divider();
        // Absurd 200% sigma: samples would go negative without clamping.
        let spec = MismatchSpec::new(vec![Variation::relative(r1, Param::Resistance, 2.0)]);
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..200 {
            let sample = spec.perturb(&nl, &mut rng);
            if let Device::Resistor { ohms, .. } = sample.device(r1) {
                assert!(*ohms > 0.0);
            }
        }
    }

    #[test]
    fn bulk_helpers_cover_all_devices() {
        let (nl, _, _) = divider();
        let mut spec = MismatchSpec::empty();
        spec.vary_all_resistors(&nl, 0.01);
        assert_eq!(spec.len(), 2);
    }

    #[test]
    fn absolute_variation_shifts() {
        let mut nl = Netlist::new();
        let d = nl.node("d");
        let g = nl.node("g");
        let m = nl.mosfet(
            d,
            g,
            Netlist::GND,
            crate::netlist::MosPolarity::Nmos,
            0.5,
            1e-4,
            0.0,
        );
        let spec = MismatchSpec::new(vec![Variation::absolute(m, Param::Vth, 0.02)]);
        let mut rng = Rng::seed_from_u64(4);
        let vals: Vec<f64> = (0..500)
            .map(|_| {
                let s = spec.perturb(&nl, &mut rng);
                match s.device(m) {
                    Device::Mosfet { vth, .. } => *vth,
                    _ => unreachable!(),
                }
            })
            .collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean - 0.5).abs() < 0.005);
        assert!(vals.iter().any(|v| *v > 0.52));
        assert!(vals.iter().any(|v| *v < 0.48));
    }

    #[test]
    #[should_panic]
    fn wrong_param_panics() {
        let (nl, r1, _) = divider();
        let spec = MismatchSpec::new(vec![Variation::absolute(r1, Param::Vth, 0.01)]);
        let mut rng = Rng::seed_from_u64(5);
        spec.perturb(&nl, &mut rng);
    }

    #[test]
    fn parallel_bit_identical_across_thread_counts() {
        let (nl, r1, r2) = divider();
        let mut spec = MismatchSpec::empty();
        spec.push(Variation::relative(r1, Param::Resistance, 0.01));
        spec.push(Variation::relative(r2, Param::Resistance, 0.01));
        let mid = nl.find_node("m").unwrap();
        let solver = DcSolver::new();
        let eval = |_: usize, rng: &mut Rng| {
            let sample = spec.perturb(&nl, rng);
            solver.solve(&sample).unwrap().voltage(mid)
        };
        let runs: Vec<Vec<f64>> = [1usize, 2, 3, 8, 64]
            .iter()
            .map(|&threads| {
                let mut rng = Rng::seed_from_u64(77);
                run_parallel_seeded(50, &mut rng, threads, eval)
            })
            .collect();
        for other in &runs[1..] {
            assert_eq!(&runs[0], other, "thread count changed the results");
        }
    }

    #[test]
    fn run_parallel_seeded_matches_sequential() {
        // threads = 1 is the sequential reference; higher counts must agree
        // bit-for-bit because the per-sample streams are forked in order.
        let results: Vec<Vec<f64>> = [1usize, 7]
            .iter()
            .map(|&threads| {
                let mut rng = Rng::seed_from_u64(123);
                super::run_parallel_seeded(40, &mut rng, threads, |i, r| r.normal(i as f64, 1.0))
            })
            .collect();
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn run_parallel_seeded_empty_and_oversubscribed() {
        let mut rng = Rng::seed_from_u64(9);
        let none: Vec<f64> = super::run_parallel_seeded(0, &mut rng, 8, |_, r| r.next_f64());
        assert!(none.is_empty());
        // More threads than samples must clamp, not panic.
        let few: Vec<f64> = super::run_parallel_seeded(3, &mut rng, 64, |_, r| r.next_f64());
        assert_eq!(few.len(), 3);
    }
}
