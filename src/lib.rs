//! # symbist-repro — reproduction of SymBIST (DATE 2020)
//!
//! Umbrella crate for the reproduction of *"Symmetry-based A/M-S BIST
//! (SymBIST): Demonstration on a SAR ADC IP"* (Pavlidis, Louërat, Faehn,
//! Kumar, Stratigopoulos — DATE 2020). It re-exports the workspace crates
//! so that examples and downstream users can depend on a single crate:
//!
//! * [`circuit`] — the analog simulation engine (MNA, DC, transient, MC),
//! * [`analysis`] — statistics and ADC performance metrics,
//! * [`adc`] — the 65 nm 10-bit SAR ADC IP model and baseline IPs,
//! * [`defects`] — the defect model and campaign simulator,
//! * [`digital`] — gate-level netlists, stuck-at ATPG (PODEM), and scan:
//!   the "standard digital BIST" half of the paper's Fig. 1,
//! * [`bist`] — SymBIST itself: invariances, windows, calibration,
//!   controller, and the experiment drivers for every table and figure.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ```no_run
//! use symbist_repro::adc::{AdcConfig, SarAdc};
//! use symbist_repro::bist::experiments::{table1, ExperimentConfig, Table1Options};
//!
//! // One call regenerates the paper's Table I.
//! let (table, _) = table1(&ExperimentConfig::default(), &Table1Options::default());
//! println!("{}", table.to_text());
//!
//! // Or drive the pieces directly.
//! let adc = SarAdc::new(AdcConfig::default());
//! assert!(adc.try_convert(0.4)? > adc.try_convert(-0.4)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use symbist as bist;
pub use symbist_adc as adc;
pub use symbist_analysis as analysis;
pub use symbist_circuit as circuit;
pub use symbist_defects as defects;
pub use symbist_digital as digital;
