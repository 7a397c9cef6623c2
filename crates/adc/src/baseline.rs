//! Baseline comparison IPs from the defect-simulation literature.
//!
//! Paper §VI compares SymBIST's coverage against two "considerably smaller
//! industrial A/M-S IPs" evaluated with conventional defect-oriented DC
//! tests in Sunter et al. \[9\]: a bandgap (74 %) and a power-on-reset
//! circuit (51 %). This module provides both IPs and the conventional test
//! (an output-range check against datasheet limits) so the comparison can
//! be regenerated.

use symbist_circuit::dc::DcSolver;
use symbist_circuit::error::CircuitError;
use symbist_circuit::netlist::{MosPolarity, Netlist};

use crate::bandgap::Bandgap;
use crate::builder::{emit_capacitor, emit_mosfet, emit_resistor};
use crate::config::AdcConfig;
use crate::fault::{
    check_site, BlockKind, ComponentInfo, ComponentKind, DefectKind, DefectSite, Faultable,
};

/// A standalone bandgap IP wrapped as a [`Faultable`] DUT with a DC
/// output-range test (the method of \[9\]).
#[derive(Debug, Clone)]
pub struct BandgapIp {
    inner: Bandgap,
    catalog: Vec<ComponentInfo>,
    injected: Option<DefectSite>,
    nominal: f64,
}

impl BandgapIp {
    /// Creates the IP.
    pub fn new(cfg: &AdcConfig) -> Self {
        let inner = Bandgap::new(cfg);
        let nominal = inner
            .solve()
            .expect("nominal bandgap solves without a budget")
            .vbg;
        let catalog = inner.catalog();
        Self {
            inner,
            catalog,
            injected: None,
            nominal,
        }
    }

    /// The conventional production test: the output must sit within
    /// ±`tolerance` (relative) of nominal. Returns `true` when the DUT
    /// passes (i.e. a defect *escapes* when this returns `true`). A solve
    /// cut short by a budget surfaces as `Err`.
    pub fn try_passes_dc_test(&self, tolerance: f64) -> Result<bool, CircuitError> {
        let v = self.inner.solve()?.vbg;
        Ok((v - self.nominal).abs() <= tolerance * self.nominal)
    }

    /// Nominal output voltage.
    pub fn nominal(&self) -> f64 {
        self.nominal
    }
}

impl Faultable for BandgapIp {
    fn components(&self) -> &[ComponentInfo] {
        &self.catalog
    }

    fn inject(&mut self, site: DefectSite) {
        check_site(&self.catalog, site);
        self.inner.set_defect(Some((site.component, site.kind)));
        self.injected = Some(site);
    }

    fn clear_defects(&mut self) {
        self.inner.set_defect(None);
        self.injected = None;
    }

    fn injected(&self) -> Option<DefectSite> {
        self.injected
    }
}

/// A power-on-reset (POR) IP: a supply divider, an RC delay, and a
/// two-transistor threshold detector driving a digital reset flag.
///
/// The conventional test checks the static trip threshold; timing-path
/// defects (the RC network that sets the reset pulse width) have no DC
/// signature, which is why this class of IP shows low defect coverage
/// (51 % in \[9\]).
#[derive(Debug, Clone)]
pub struct PorIp {
    cfg: AdcConfig,
    catalog: Vec<ComponentInfo>,
    defect: Option<(usize, DefectKind)>,
    injected: Option<DefectSite>,
}

/// Component indices.
const POR_R_TOP: usize = 0;
const POR_R_BOT: usize = 1;
const POR_R_DELAY: usize = 2;
const POR_C_DELAY: usize = 3;
const POR_M_SENSE: usize = 4;
const POR_M_OUT: usize = 5;
const POR_M_HYST: usize = 6;
/// Total POR components.
const POR_COMPONENTS: usize = 7;

impl PorIp {
    /// Creates the IP.
    pub fn new(cfg: &AdcConfig) -> Self {
        let mk = |name: &str, kind, area| ComponentInfo {
            block: BlockKind::Bandgap, // reported standalone; block tag unused
            name: format!("por/{name}"),
            kind,
            area,
        };
        let catalog = vec![
            mk("r_top", ComponentKind::Resistor, 4.0),
            mk("r_bot", ComponentKind::Resistor, 4.0),
            mk("r_delay", ComponentKind::Resistor, 2.0),
            mk("c_delay", ComponentKind::Capacitor, 8.0),
            mk("m_sense", ComponentKind::Mosfet, 1.5),
            mk("m_out", ComponentKind::Mosfet, 1.5),
            mk("m_hyst", ComponentKind::Mosfet, 0.8),
        ];
        debug_assert_eq!(catalog.len(), POR_COMPONENTS);
        Self {
            cfg: cfg.clone(),
            catalog,
            defect: None,
            injected: None,
        }
    }

    fn local(&self, idx: usize) -> Option<DefectKind> {
        match self.defect {
            Some((i, k)) if i == idx => Some(k),
            _ => None,
        }
    }

    /// Static trip test: sweeps the supply and returns the voltage at which
    /// the reset flag deasserts, or `None` if it never does.
    pub fn trip_voltage(&self) -> Option<f64> {
        let cfg = &self.cfg;
        for step in 0..=60 {
            let vdd = 0.03 * step as f64;
            if vdd > cfg.vdda {
                break;
            }
            if !self.reset_asserted_at(vdd) {
                return Some(vdd);
            }
        }
        None
    }

    /// Whether the reset output is asserted at a given supply voltage.
    pub fn reset_asserted_at(&self, vdd: f64) -> bool {
        if vdd < 0.05 {
            // No supply, no deassertion: the flag cannot be driven high.
            return true;
        }
        let cfg = &self.cfg;
        let mut nl = Netlist::new();
        let supply = nl.node("vdd");
        let mid = nl.node("mid");
        let sense_d = nl.node("sense_d");
        let out = nl.node("out");
        nl.vsource(supply, Netlist::GND, vdd.max(1e-6));
        // Supply divider.
        emit_resistor(&mut nl, supply, mid, 100e3, self.local(POR_R_TOP), cfg);
        emit_resistor(&mut nl, mid, Netlist::GND, 82e3, self.local(POR_R_BOT), cfg);
        // Sense transistor: pulls its drain low once the divider passes Vth.
        emit_resistor(&mut nl, supply, sense_d, 200e3, None, cfg);
        emit_mosfet(
            &mut nl,
            sense_d,
            mid,
            Netlist::GND,
            MosPolarity::Nmos,
            0.45,
            5e-4,
            0.01,
            self.local(POR_M_SENSE),
            Netlist::GND,
            cfg,
        );
        // Output inverter (PMOS pull-up modeled; reset = out high).
        emit_mosfet(
            &mut nl,
            out,
            sense_d,
            supply,
            MosPolarity::Pmos,
            0.45,
            5e-4,
            0.01,
            self.local(POR_M_OUT),
            supply,
            cfg,
        );
        nl.resistor(out, Netlist::GND, 500e3);
        // Hysteresis device: weak feedback from out to mid.
        emit_mosfet(
            &mut nl,
            mid,
            out,
            Netlist::GND,
            MosPolarity::Nmos,
            0.45,
            2e-5,
            0.01,
            self.local(POR_M_HYST),
            Netlist::GND,
            cfg,
        );
        // Delay RC hangs off the output; invisible to a DC trip test.
        let delay = nl.node("delay");
        emit_resistor(&mut nl, out, delay, 1e6, self.local(POR_R_DELAY), cfg);
        emit_capacitor(
            &mut nl,
            delay,
            Netlist::GND,
            50e-12,
            None,
            self.local(POR_C_DELAY),
            cfg,
        );

        match DcSolver::new().solve(&nl) {
            // `out` is the supply-good flag: reset is asserted while it is
            // still low (`<=` so a collapsed supply reads as asserted).
            Ok(op) => op.voltage(out) <= vdd * 0.5,
            Err(_) => true,
        }
    }

    /// The conventional production test: trip voltage within ±`tol_volts`
    /// of the defect-free trip point. Returns `true` on pass.
    pub fn passes_trip_test(&self, nominal_trip: f64, tol_volts: f64) -> bool {
        match self.trip_voltage() {
            Some(v) => (v - nominal_trip).abs() <= tol_volts,
            None => false,
        }
    }
}

impl Faultable for PorIp {
    fn components(&self) -> &[ComponentInfo] {
        &self.catalog
    }

    fn inject(&mut self, site: DefectSite) {
        check_site(&self.catalog, site);
        self.defect = Some((site.component, site.kind));
        self.injected = Some(site);
    }

    fn clear_defects(&mut self) {
        self.defect = None;
        self.injected = None;
    }

    fn injected(&self) -> Option<DefectSite> {
        self.injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdcConfig {
        AdcConfig::default()
    }

    #[test]
    fn bandgap_ip_dc_test_catches_shorts() -> Result<(), CircuitError> {
        let mut ip = BandgapIp::new(&cfg());
        assert!(ip.try_passes_dc_test(0.05)?, "healthy must pass");
        // Output-diode short collapses VBG → caught.
        ip.inject(DefectSite {
            component: 2,
            kind: DefectKind::Short,
        });
        assert!(!ip.try_passes_dc_test(0.05)?);
        ip.clear_defects();
        assert!(ip.try_passes_dc_test(0.05)?);
        Ok(())
    }

    #[test]
    fn bandgap_ip_startup_open_escapes() -> Result<(), CircuitError> {
        let mut ip = BandgapIp::new(&cfg());
        let startup = ip
            .components()
            .iter()
            .position(|c| c.name.contains("startup"))
            .unwrap();
        ip.inject(DefectSite {
            component: startup,
            kind: DefectKind::OpenDrain,
        });
        assert!(
            ip.try_passes_dc_test(0.05)?,
            "start-up open has no DC signature"
        );
        Ok(())
    }

    #[test]
    fn por_has_a_sane_trip_point() {
        let ip = PorIp::new(&cfg());
        let trip = ip.trip_voltage().expect("healthy POR must trip");
        assert!(
            (0.6..1.5).contains(&trip),
            "trip voltage {trip} out of plausible range"
        );
        // Below the trip: reset asserted. Above: deasserted.
        assert!(ip.reset_asserted_at(0.3));
        assert!(!ip.reset_asserted_at(1.7));
    }

    #[test]
    fn por_divider_short_shifts_trip() {
        let ip = PorIp::new(&cfg());
        let nominal = ip.trip_voltage().unwrap();
        let mut bad = ip.clone();
        bad.inject(DefectSite {
            component: POR_R_BOT,
            kind: DefectKind::Short,
        });
        // Divider bottom short: sense gate grounded → never trips.
        assert!(!bad.passes_trip_test(nominal, 0.1));
    }

    #[test]
    fn por_delay_defects_escape_dc_test() {
        let ip = PorIp::new(&cfg());
        let nominal = ip.trip_voltage().unwrap();
        for kind in [
            DefectKind::Open,
            DefectKind::ParamLow,
            DefectKind::ParamHigh,
        ] {
            let mut bad = ip.clone();
            bad.inject(DefectSite {
                component: POR_C_DELAY,
                kind,
            });
            assert!(
                bad.passes_trip_test(nominal, 0.1),
                "delay-cap {kind} must escape the DC trip test"
            );
        }
    }

    #[test]
    fn por_catalog() {
        assert_eq!(PorIp::new(&cfg()).components().len(), POR_COMPONENTS);
    }
}
