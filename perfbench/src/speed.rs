//! The host-speed reference. The benchmark gets a few cores of a shared
//! host whose speed swings by up to 2x within a minute, so raw wall times
//! of the same code spread further between runs than the changes they are
//! meant to show. A fixed reference kernel, which shares no code with the
//! program, therefore samples the host's speed beside every measured
//! interval, and end-to-end times are reported at reference speed: the
//! raw time scaled by the kernel's nominal time over its mean measured
//! time. A program change moves the interval and not the kernel, so it
//! shows; a slower host moves both.
//!
//! Set-ups and service rounds are bracketed: the kernel runs on every
//! worker thread right before and right after each one ([`Bracketed`]).
//! An in-process op lasts seconds, over which the host's speed moves, so
//! it is sampled all through instead: its campaign workers run a small
//! kernel chunk every so many defects ([`Chunks`]), and the chunks' time
//! is taken out of the op's.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Order of the dense system one kernel step factors and solves.
const N: usize = 24;
/// Kernel steps in one pass.
const STEPS_PER_PASS: usize = 64;
/// Seconds one pass takes at reference speed: about its median on the
/// 2-core Xeon host the benchmark was sized on, so figures at reference
/// speed read close to that host's wall times. It only scales the
/// reported figures; any fixed value would compare commits the same way.
pub const PASS_NOMINAL_S: f64 = 0.4e-3;

/// One kernel step: fill a fresh diagonally dominant `N`×`N` system, LU
/// factor it with partial pivoting and solve it, the dense arithmetic and
/// allocation pattern of a small circuit solve, with an `exp` per row in
/// place of a device model.
fn step(salt: f64) -> f64 {
    let mut a = vec![0.0f64; N * N];
    let mut b: Vec<f64> = (0..N).map(|i| (i as f64 + salt).sin()).collect();
    for i in 0..N {
        for j in 0..N {
            a[i * N + j] = 1.0 / (1.0 + (i as f64 - j as f64).abs()) + salt * 1e-9;
        }
        a[i * N + i] += N as f64 + (salt * (i as f64 + 1.0) * 1e-3).exp();
    }
    for k in 0..N {
        let p = (k..N)
            .max_by(|&r, &s| a[r * N + k].abs().total_cmp(&a[s * N + k].abs()))
            .unwrap_or(k);
        if p != k {
            for c in 0..N {
                a.swap(k * N + c, p * N + c);
            }
            b.swap(k, p);
        }
        let pivot = a[k * N + k];
        for r in k + 1..N {
            let f = a[r * N + k] / pivot;
            a[r * N + k] = f;
            for c in k + 1..N {
                a[r * N + c] -= f * a[k * N + c];
            }
            b[r] -= f * b[k];
        }
    }
    for k in (0..N).rev() {
        let mut s = b[k];
        for c in k + 1..N {
            s -= a[k * N + c] * b[c];
        }
        b[k] = s / a[k * N + k];
    }
    b.iter().sum()
}

/// Runs `passes` kernel passes on this thread and returns the seconds.
fn run_passes(passes: usize) -> f64 {
    let t = Instant::now();
    let mut acc = 0.0;
    for i in 0..passes * STEPS_PER_PASS {
        acc += step(black_box(i as f64 * 1e-3));
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// A probe of the host's speed: `passes` kernel passes on each of
/// `threads` threads at once, the way the measured work loads the cores.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub threads: usize,
    pub passes: usize,
}

impl Probe {
    /// Seconds the probe takes at reference speed.
    pub fn nominal_s(&self) -> f64 {
        self.passes as f64 * PASS_NOMINAL_S
    }

    /// Runs the probe; returns its mean seconds per thread.
    pub fn run(&self) -> f64 {
        let times: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|_| scope.spawn(|| run_passes(self.passes)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked"))
                .collect()
        });
        crate::stats::mean(&times)
    }

    /// The factor that takes a time measured between probes that took
    /// `before` and `after` seconds to reference speed.
    pub fn factor(&self, before: f64, after: f64) -> f64 {
        crate::stats::speed_factor(self.nominal_s(), before, after)
    }
}

/// Back-to-back intervals, each bracketed by probes: the probe that
/// closes one interval opens the next.
#[derive(Debug)]
pub struct Bracketed {
    probe: Probe,
    last: f64,
}

impl Bracketed {
    /// Runs the first probe.
    pub fn start(probe: Probe) -> Bracketed {
        Bracketed {
            probe,
            last: probe.run(),
        }
    }

    /// Closes the interval that began at the last probe: runs the next
    /// probe and returns the factor to reference speed for the interval.
    pub fn close(&mut self) -> f64 {
        let next = self.probe.run();
        let factor = self.probe.factor(self.last, next);
        self.last = next;
        factor
    }
}

/// Kernel chunks that a campaign's worker threads run between defects.
#[derive(Debug)]
pub struct Chunks {
    passes: usize,
    every: usize,
    workers: usize,
    ticks: AtomicUsize,
    times: Mutex<Vec<f64>>,
}

impl Chunks {
    /// A chunk of `passes` passes every `every` defects that a campaign
    /// on `workers` threads tests.
    pub fn new(passes: usize, every: usize, workers: usize) -> Chunks {
        Chunks {
            passes,
            every,
            workers,
            ticks: AtomicUsize::new(0),
            times: Mutex::new(Vec::new()),
        }
    }

    /// Called by a worker thread after each defect: every `every`-th call
    /// runs a chunk on the calling thread.
    pub fn tick(&self) {
        if self.ticks.fetch_add(1, Ordering::Relaxed) % self.every == self.every - 1 {
            let t = run_passes(self.passes);
            self.times.lock().expect("chunk lock poisoned").push(t);
        }
    }

    /// Takes the chunks run since the last call: the wall time they added
    /// to the campaign (their seconds split evenly over the work-stealing
    /// workers) and the factor to reference speed of the interval they
    /// sampled.
    pub fn take(&self) -> (f64, f64) {
        let times = std::mem::take(&mut *self.times.lock().expect("chunk lock poisoned"));
        self.ticks.store(0, Ordering::Relaxed);
        let mean = crate::stats::mean(&times);
        let nominal = self.passes as f64 * PASS_NOMINAL_S;
        (
            times.iter().sum::<f64>() / self.workers as f64,
            crate::stats::speed_factor(nominal, mean, mean),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_run_every_nth_tick_and_reset_on_take() {
        let chunks = Chunks::new(1, 3, 2);
        for _ in 0..7 {
            chunks.tick();
        }
        assert_eq!(chunks.times.lock().expect("lock").len(), 2);
        // Two chunks over two workers: the added wall time is one chunk's
        // mean, and the factor is the nominal time over it.
        let (added, factor) = chunks.take();
        assert!(added > 0.0 && factor > 0.0);
        assert!((factor * added - PASS_NOMINAL_S).abs() < 1e-12);
        assert_eq!(chunks.take(), (0.0, 0.0));
        chunks.tick();
        chunks.tick();
        assert!(chunks.times.lock().expect("lock").is_empty());
    }

    #[test]
    fn bracketed_factors_stay_positive() {
        let probe = Probe {
            threads: 2,
            passes: 1,
        };
        assert_eq!(probe.nominal_s(), PASS_NOMINAL_S);
        let mut speed = Bracketed::start(probe);
        assert!(speed.close() > 0.0);
    }
}
