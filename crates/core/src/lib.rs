//! # symbist — Symmetry-based A/M-S BIST (SymBIST)
//!
//! Rust reproduction of the core contribution of *"Symmetry-based A/M-S
//! BIST (SymBIST): Demonstration on a SAR ADC IP"* (Pavlidis, Louërat,
//! Faehn, Kumar, Stratigopoulos — DATE 2020).
//!
//! SymBIST is a defect-oriented built-in self-test paradigm for analog and
//! mixed-signal ICs: it exploits symmetries inherent to the design —
//! fully-differential signal processing, complementary outputs, replicated
//! blocks — to construct *invariant signals* that are constant by
//! construction in defect-free operation. Each invariant is monitored by a
//! clocked window comparator with half-width `δ = k·σ` calibrated over
//! process variation; any excursion outside the window flags a defect.
//!
//! On the 10-bit SAR ADC IP modeled in [`symbist_adc`], six invariances
//! cover the whole A/M-S part (paper Eqs. (2)–(5)):
//!
//! 1. `M+ + M− = VREF[32]` — SUBDAC1 complementary outputs,
//! 2. `L+ + L− = VREF[32]` — SUBDAC2 complementary outputs,
//! 3. `DAC+ + DAC− = 2·Vcm` — SC-array charge symmetry,
//! 4. `LIN+ + LIN− = 2·Vcm2` — preamp fully-differential symmetry,
//! 5. `sgn(Q+ − Q−) = sgn(LIN+ − LIN−)` — latch consistency,
//! 6. `Q+ + Q− = VDD` — complementary latch outputs.
//!
//! # Quick start
//!
//! ```no_run
//! use symbist::calibrate::Calibration;
//! use symbist::session::{Schedule, SymBist};
//! use symbist::stimulus::StimulusSpec;
//! use symbist_adc::{AdcConfig, SarAdc};
//!
//! let cfg = AdcConfig::default();
//! let stimulus = StimulusSpec::default();
//! // δ = 5σ windows from a 10-sample Monte Carlo (paper §VI).
//! let cal = Calibration::run(&cfg, &stimulus, 10, 5.0, 42);
//! let bist = SymBist::new(cal, stimulus, Schedule::Sequential);
//!
//! let adc = SarAdc::new(cfg);
//! let result = bist.try_run(&adc, true)?;
//! assert!(result.pass);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The [`experiments`] module regenerates every table and figure of the
//! paper's evaluation (Table I, Fig. 5, test time, area overhead) plus the
//! extensions (yield-loss sweep, baseline comparison, escape analysis).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod area;
pub mod calibrate;
pub mod diagnosis;
pub mod escape;
pub mod experiments;
pub mod field;
pub mod functional;
pub mod generic;
pub mod invariance;
pub mod session;
pub mod stimulus;
pub mod testtime;
pub mod window;

/// Deterministic, site-addressed fault injection (re-export of
/// [`symbist_obs::fault`]): seeded [`faultplan::FaultPlan`]s drive
/// replayable chaos runs through the campaign runner, job service, and
/// coordinator.
pub use symbist_obs::fault as faultplan;

pub use calibrate::Calibration;
pub use invariance::{deviation, CheckerWiring, InvarianceId};
pub use session::{BistResult, Detection, Schedule, SymBist};
pub use stimulus::StimulusSpec;
pub use window::WindowComparator;
