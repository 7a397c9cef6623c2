//! # symbist-dut — content-addressed DUT registry and generic ingestion
//!
//! The paper demonstrates SymBIST on one SAR ADC IP, but its premise is
//! that symmetry-based invariances generalize across A/M-S blocks. This
//! crate is the platform layer that makes the rest of the stack (campaign
//! runner, job service, coordinator, lint, obs) DUT-agnostic:
//!
//! * [`spec::DutSpec`] — a declarative upload: a SPICE-ish netlist (parsed
//!   by `symbist_circuit::parser`) plus invariance declarations (P/N node
//!   pairs, window-comparator calibration knobs, defect-universe weights).
//! * [`model::NetlistDut`] — a [`symbist_adc::fault::Faultable`] model
//!   built from any parsed netlist, so the existing likelihood-weighted
//!   campaign machinery runs unmodified over uploaded DUTs.
//! * [`registry::DutRegistry`] — content-addresses uploads with a stable
//!   FNV-1a hash over a canonical netlist form ("upload once, lint once,
//!   run many"), persists entries as crash-safe JSONL, enforces per-tenant
//!   quotas, and caches lint reports per content hash.
//! * [`cap_array`] — a programmatic sub-radix-2 / split-capacitor SAR
//!   cap-array DUT family (port of the classic `cap_array_generator`
//!   exemplar) used to demonstrate that redundancy shifts which defects
//!   each invariance observes.
//!
//! The crate sits *below* `symbist-service` in the dependency graph; the
//! service re-exports [`json`] (which moved here from the service so the
//! registry can persist specs without a dependency cycle).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cap_array;
pub mod json;
pub mod model;
pub mod registry;
pub mod spec;

pub use cap_array::{CapArrayConfig, CapArrayStructure};
pub use json::{Json, JsonError};
pub use model::{check_dut, DutModel, NetlistDut, OPEN_OHMS, SHORT_OHMS};
pub use registry::{
    DutEntry, DutRegistry, DutRegistryConfig, UploadError, UploadOutcome, BUILTIN_ADC_DUT,
};
pub use spec::{
    CalibrationSpec, DutSpec, DutSpecError, InvarianceKind, InvarianceSpec, LikelihoodSpec,
    MAX_CALIBRATION_SAMPLES,
};
