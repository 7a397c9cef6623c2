//! # symbist-adc — the 65 nm 10-bit SAR ADC IP model
//!
//! Structural/behavioral model of the ST Microelectronics SAR ADC IP that
//! the SymBIST paper (Pavlidis et al., DATE 2020) uses as its case study,
//! built block-for-block after Figs. 2–4:
//!
//! | module | paper block |
//! |---|---|
//! | [`bandgap`] | Bandgap (biasing for all blocks) |
//! | [`refnet`] | Reference Buffer (VREF<0:32>) + SUBDAC1/2 tap muxes |
//! | [`sc_array`] | Switched-capacitor array (S&H + charge redistribution) |
//! | [`vcm`] | Vcm Generator |
//! | [`comparator`] | Pre-amp, comparator latch, RS latch, offset comp |
//! | [`digital`] | SAR Control (P<0:11>), Phase Generator, SAR Logic |
//! | [`adc`] | SARCELL + top level, conversion engine, BIST taps |
//! | [`baseline`] | comparison IPs from \[9\] (bandgap, power-on-reset) |
//!
//! Every analog block is built from explicit physical components
//! (resistors, capacitors, MOS devices, diodes) published through the
//! [`fault::Faultable`] trait, so the defect simulator can enumerate and
//! inject the paper's defect model (10 Ω shorts, weak-pull opens, ±50 %
//! passives) at any site. Resistive networks and the SC array are solved
//! with the `symbist-circuit` MNA engine — including full transient
//! waveforms for the paper's Fig. 5 — while amplifier-class sub-blocks use
//! parameterized behavioral models whose parameters are *derived from* the
//! defect sites.
//!
//! ```
//! use symbist_adc::{AdcConfig, SarAdc};
//! use symbist_adc::fault::{DefectKind, DefectSite, Faultable};
//!
//! let mut adc = SarAdc::new(AdcConfig::default());
//! assert!(adc.try_convert(0.3)? > adc.try_convert(-0.3)?);
//!
//! // Inject the paper's defect model at any catalog site.
//! let site = DefectSite { component: 0, kind: DefectKind::Short };
//! adc.inject(site);
//! assert_eq!(adc.injected(), Some(site));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adc;
pub mod analysis;
pub mod bandgap;
pub mod baseline;
mod builder;
pub mod comparator;
pub mod config;
pub mod digital;
pub mod fault;
pub mod refnet;
pub mod sc_array;
pub mod symmetry;
pub mod vcm;

pub use adc::{AdcMismatch, SarAdc, TestObservation};
pub use analysis::{AdcStaticModel, StaticObservation};
pub use config::AdcConfig;
pub use fault::{BlockKind, ComponentInfo, ComponentKind, DefectKind, DefectSite, Faultable};
pub use symmetry::{seeds_by_name, subdac_fd_pair, FdPair};
