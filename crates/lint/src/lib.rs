//! # symbist-lint — static netlist & symmetry analyzer
//!
//! Diagnostics for the SymBIST reproduction that require **no
//! simulation**: the analyzer inspects [`Netlist`] topology, the ADC's
//! declared FD-symmetry pairs, and [`DefectUniverse`] structure, and
//! predicts the failures the runtime engines would otherwise hit mid-
//! campaign — MNA singularities, invariance-breaking asymmetries, and
//! coverage-corrupting universes.
//!
//! Every finding carries a stable `SYM-Lxxx` rule ID (see [`Rule`]), a
//! severity, and device/node attribution. Error-level findings gate: the
//! `lint` binary exits nonzero on them (CI), and the BIST job service
//! rejects campaign submissions against a DUT that fails pre-flight.
//!
//! ```
//! use symbist_adc::{AdcConfig, SarAdc};
//! use symbist_lint::lint_adc;
//!
//! let report = lint_adc(&SarAdc::new(AdcConfig::default()));
//! assert_eq!(report.error_count(), 0);
//! ```
//!
//! Rule groups:
//!
//! - `SYM-L00x` connectivity: floating components, dangling terminals
//! - `SYM-L01x` singularity prediction: V-source loops, I-source
//!   cutsets, no-DC-path (gmin-only) islands
//! - `SYM-L02x` parameter sanity per device kind
//! - `SYM-L030` FD-symmetry of declared P/N half-circuits
//! - `SYM-L04x` defect-universe structure
//! - `SYM-L05x`/`SYM-L060` stage two — symmetry orbits & detectability
//!   (see [`orbit`] and [`analysis`])
//!
//! [`Netlist`]: symbist_circuit::netlist::Netlist
//! [`DefectUniverse`]: symbist_defects::DefectUniverse

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod diag;
pub mod orbit;
pub mod rules;
pub mod suite;
pub mod symmetry;
pub mod universe_rules;

pub use analysis::{
    analyze, analyze_adc, analyze_adc_with_universe, AnalysisModel, AnalysisReport, DefectClass,
    ObservedInvariance,
};
pub use diag::{Diagnostic, LintReport, Rule, Severity};
pub use orbit::{orbit_partition, OrbitPartition};
pub use rules::lint_netlist;
pub use suite::{lint_adc, lint_adc_with_universe};
pub use symmetry::check_fd_symmetry;
pub use universe_rules::lint_universe;
