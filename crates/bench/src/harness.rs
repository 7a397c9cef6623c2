//! Minimal self-contained benchmark harness.
//!
//! The workspace builds fully offline, so instead of an external bench
//! framework this module provides the small subset actually needed here:
//! warmup, batch-size calibration to a target measurement time, robust
//! (median-of-batches) per-iteration timing, a fixed-width report, and
//! machine-readable JSON for tracking the perf trajectory across PRs.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use symbist_obs::write_json_str;

/// Timing summary of one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Median per-iteration time in nanoseconds (median over batches).
    pub median_ns: f64,
    /// Mean per-iteration time in nanoseconds (mean over batches).
    pub mean_ns: f64,
    /// Fastest batch's per-iteration time in nanoseconds.
    pub min_ns: f64,
    /// Iterations per measured batch.
    pub iters_per_batch: u64,
    /// Number of measured batches.
    pub batches: usize,
}

/// Benchmark collector: run closures, accumulate [`BenchResult`]s.
#[derive(Debug)]
pub struct Harness {
    results: Vec<BenchResult>,
    /// Target wall time per measured batch, in seconds.
    batch_target_s: f64,
    /// Number of measured batches per benchmark.
    batches: usize,
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness {
    /// A harness with the default measurement plan (~7 batches of ~25 ms).
    pub fn new() -> Self {
        Self {
            results: Vec::new(),
            batch_target_s: 0.025,
            batches: 7,
        }
    }

    /// A faster plan for smoke-testing the benches themselves.
    pub fn quick() -> Self {
        Self {
            results: Vec::new(),
            batch_target_s: 0.002,
            batches: 3,
        }
    }

    /// Benchmarks `f`, recording its per-iteration time under `name`.
    ///
    /// The return value of `f` is passed through [`black_box`] so the work
    /// cannot be optimized away.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> &BenchResult {
        // Warmup + calibration: double the batch size until one batch takes
        // at least the target time.
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= self.batch_target_s || iters >= 1 << 30 {
                break;
            }
            // Jump close to the target once we have a usable estimate.
            iters = if elapsed > 1e-4 {
                ((iters as f64 * self.batch_target_s / elapsed) as u64)
                    .clamp(iters + 1, iters * 100)
            } else {
                iters * 10
            };
        }

        let mut per_iter: Vec<f64> = (0..self.batches)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed().as_secs_f64() * 1e9 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = per_iter[per_iter.len() / 2];
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        self.results.push(BenchResult {
            name: name.to_string(),
            median_ns: median,
            mean_ns: mean,
            min_ns: per_iter[0],
            iters_per_batch: iters,
            batches: self.batches,
        });
        self.results.last().expect("just pushed")
    }

    /// All results so far, in run order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// The result with the given name, if that benchmark has run.
    pub fn result(&self, name: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.name == name)
    }

    /// Ratio `median(a) / median(b)` — e.g. dense-over-sparse speedup.
    ///
    /// Returns `None` unless both benchmarks have run.
    pub fn speedup(&self, slow: &str, fast: &str) -> Option<f64> {
        Some(self.result(slow)?.median_ns / self.result(fast)?.median_ns)
    }

    /// Renders a fixed-width report table.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>14} {:>14} {:>12}",
            "benchmark", "median", "mean", "iters"
        );
        let _ = writeln!(out, "{}", "-".repeat(88));
        for r in &self.results {
            let _ = writeln!(
                out,
                "{:<44} {:>14} {:>14} {:>12}",
                r.name,
                format_ns(r.median_ns),
                format_ns(r.mean_ns),
                r.iters_per_batch * r.batches as u64,
            );
        }
        out
    }

    /// Serializes the results (plus optional derived ratios) to JSON.
    ///
    /// Hand-rolled on purpose: the schema is flat and a serde dependency is
    /// not available offline.
    pub fn to_json(&self, suite: &str, derived: &[(&str, f64)]) -> String {
        let mut out = String::from("{\n  \"suite\": ");
        let _ = write_json_str(&mut out, suite);
        out.push_str(",\n  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let comma = if i + 1 < self.results.len() { "," } else { "" };
            out.push_str("    {\"name\": ");
            let _ = write_json_str(&mut out, &r.name);
            let _ = writeln!(
                out,
                ", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \
                 \"min_ns\": {:.1}, \"iters_per_batch\": {}, \"batches\": {}}}{}",
                r.median_ns, r.mean_ns, r.min_ns, r.iters_per_batch, r.batches, comma
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"derived\": {");
        for (i, (k, v)) in derived.iter().enumerate() {
            let comma = if i + 1 < derived.len() { "," } else { "" };
            out.push_str("\n    ");
            let _ = write_json_str(&mut out, k);
            let _ = write!(out, ": {v:.4}{comma}");
        }
        if !derived.is_empty() {
            out.push('\n');
            out.push_str("  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

/// Human-readable nanosecond formatting (ns / µs / ms / s).
fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.3} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_result() {
        let mut h = Harness::quick();
        let r = h.bench("sum_1000", || (0..1000u64).sum::<u64>());
        assert_eq!(r.name, "sum_1000");
        assert!(r.median_ns > 0.0);
        assert_eq!(h.results().len(), 1);
    }

    #[test]
    fn speedup_needs_both_results() {
        let mut h = Harness::quick();
        h.bench("fast", || 1u64);
        assert!(h.speedup("missing", "fast").is_none());
        h.bench("slow", || (0..10_000u64).product::<u64>());
        let s = h.speedup("slow", "fast").unwrap();
        assert!(s > 0.0);
    }

    #[test]
    fn json_is_well_formed_ish() {
        let mut h = Harness::quick();
        h.bench("a", || 1u64);
        let json = h.to_json("engine", &[("ratio", 2.5)]);
        assert!(json.contains("\"suite\": \"engine\""));
        assert!(json.contains("\"name\": \"a\""));
        assert!(json.contains("\"ratio\": 2.5000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_escapes_names() {
        let mut h = Harness::quick();
        h.bench("a\"b\\c", || 1u64);
        let json = h.to_json("engine", &[("x\ty", 1.0)]);
        assert!(json.contains(r#""name": "a\"b\\c""#), "{json}");
        assert!(json.contains(r#""x\ty": 1.0000"#), "{json}");
    }

    #[test]
    fn format_ns_units() {
        assert!(format_ns(12.0).ends_with("ns"));
        assert!(format_ns(12_000.0).ends_with("µs"));
        assert!(format_ns(12_000_000.0).ends_with("ms"));
        assert!(format_ns(2e9).ends_with(" s"));
    }
}
