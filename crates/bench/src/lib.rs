//! # symbist-bench — experiment regeneration
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper — run them with
//! `cargo run --release -p symbist-bench --bin <name>`:
//!
//! | binary | paper artefact |
//! |---|---|
//! | `table1` | Table I (per-block L-W defect coverage) |
//! | `fig5` | Fig. 5 (invariance-I3 waveform, 4 cases + window) |
//! | `testtime` | §IV-5 (1.23 µs, 16× one conversion) |
//! | `area` | §IV-4 (< 5 % overhead) |
//! | `yield_sweep` | §VI (k = 5 yield-loss justification; extension) |
//! | `baselines` | §VI comparison IPs (bandgap 74 %, POR 51 % in \[9\]) |
//! | `escapes` | §VI follow-up: spec-violating escapes (extension) |
//!
//! One more binary is a CI gate, not an artefact: `obs_overhead` times the
//! shipping observation sweep with the observability layer on and off and
//! fails when it costs more than 3 %. End-to-end performance is measured
//! by the separate `perfbench/` package.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use symbist::experiments::ExperimentConfig;

/// The experiment configuration shared by all regeneration binaries so
/// their outputs are mutually consistent (same seed, same calibration).
pub fn standard_config() -> ExperimentConfig {
    ExperimentConfig::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_config_is_paper_config() {
        let xc = standard_config();
        assert_eq!(xc.k, 5.0);
        assert_eq!(xc.adc.bits, 10);
        assert!((xc.adc.fclk - 156e6).abs() < 1.0);
    }
}
