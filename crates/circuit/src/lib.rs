//! # symbist-circuit — analog circuit simulation engine
//!
//! A from-scratch analog circuit simulator purpose-built for the SymBIST
//! reproduction (Pavlidis et al., DATE 2020). It provides the substrate the
//! paper obtained from a commercial SPICE engine inside
//! Tessent®DefectSim: netlist capture, DC operating points, DC sweeps,
//! fixed-step transient analysis with switch-event co-simulation, and a
//! Monte-Carlo mismatch engine — everything the 10-bit SAR ADC model and the
//! defect simulator in the sibling crates need.
//!
//! ## Architecture
//!
//! * [`netlist`] — circuit capture: nodes, R/C, sources, switches, diodes,
//!   level-1 MOSFETs, controlled sources.
//! * `mna` (crate-internal) — Modified Nodal Analysis assembly and the
//!   solve engine.
//! * [`matrix`] — dense LU with partial pivoting: the one factorization,
//!   used by every DC, Newton, transient and AC solve and by the SC-array
//!   step operators.
//! * [`dc`] — Newton–Raphson operating point with gmin and source stepping.
//! * [`transient`] — backward-Euler integration; the netlist is borrowed
//!   per step so digital controllers can flip switches, which is how the
//!   SAR conversion loop drives the analog core. Linear decks step through
//!   per-phase step maps and fold runs of steps into one affine map.
//! * [`ac`] — small-signal frequency sweeps, linearized by the DC stamps
//!   at the operating point; the AC-BIST extension probes the Vcm
//!   generator's ripple transfer with it.
//! * [`mc`] — process-variation engine used to calibrate SymBIST's
//!   `δ = k·σ` comparison windows.
//! * [`rng`] — deterministic xoshiro256++; all experiments are reproducible
//!   from a seed.
//! * [`waveform`] — traces with the settle-detection the clocked BIST
//!   checker relies on.
//! * [`topology`] — read-only graph introspection (device adjacency,
//!   terminal degrees, connected components) consumed by the
//!   `symbist-lint` static analyzer.
//!
//! ## Quick start
//!
//! ```
//! use symbist_circuit::netlist::Netlist;
//! use symbist_circuit::dc::DcSolver;
//!
//! // A diode-clamped divider.
//! let mut nl = Netlist::new();
//! let vin = nl.node("in");
//! let out = nl.node("out");
//! nl.vsource(vin, Netlist::GND, 3.3);
//! nl.resistor(vin, out, 4.7e3);
//! nl.diode(out, Netlist::GND, 1e-14, 1.0);
//! let op = DcSolver::new().solve(&nl)?;
//! assert!(op.voltage(out) < 0.9);
//! # Ok::<(), symbist_circuit::error::CircuitError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ac;
pub mod dc;
pub mod error;
pub mod matrix;
pub mod mc;
pub(crate) mod mna;
pub mod netlist;
pub mod parser;
pub mod rng;
pub mod topology;
pub mod transient;
pub mod waveform;

pub use dc::{set_thread_solve_budget, DcOptions, DcSolver, Operating, SolveBudget};
pub use error::CircuitError;
pub use netlist::{device_param_issue, Device, DeviceId, MosPolarity, Netlist, NodeId, SourceWave};
pub use rng::Rng;
pub use topology::{DisjointSet, Topology};
pub use transient::{LinearTransient, StepMaps, TransientOptions, TransientSim};
pub use waveform::{Trace, TraceSet};
