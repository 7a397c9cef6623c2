//! Circuit netlist: nodes, devices, and the builder API.
//!
//! A [`Netlist`] is a flat container of [`Device`]s connected between
//! [`NodeId`]s. Node `0` is always ground. The builder methods return the
//! created [`DeviceId`] so that callers (e.g. the defect injector) can later
//! mutate device parameters or switch states.
//!
//! # Examples
//!
//! ```
//! use symbist_circuit::netlist::Netlist;
//! use symbist_circuit::dc::DcSolver;
//!
//! // A 2:1 resistive divider from a 1 V source.
//! let mut nl = Netlist::new();
//! let vin = nl.node("in");
//! let mid = nl.node("mid");
//! nl.vsource(vin, Netlist::GND, 1.0);
//! nl.resistor(vin, mid, 1000.0);
//! nl.resistor(mid, Netlist::GND, 1000.0);
//! let op = DcSolver::new().solve(&nl)?;
//! assert!((op.voltage(mid) - 0.5).abs() < 1e-9);
//! # Ok::<(), symbist_circuit::error::CircuitError>(())
//! ```

use std::collections::HashMap;
use std::fmt;

/// Identifier of a circuit node. Node `0` is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The ground node.
    pub const GROUND: NodeId = NodeId(0);

    /// Returns the raw index (0 = ground).
    pub fn index(self) -> usize {
        self.0
    }

    /// Returns `true` if this is the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ground() {
            write!(f, "gnd")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// Identifier of a device within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub(crate) usize);

impl DeviceId {
    /// Returns the raw index into the netlist's device list.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Time-dependent source waveform.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceWave {
    /// Constant value.
    Dc(f64),
    /// Periodic pulse: `low` before `delay`, then rising to `high` over
    /// `rise`, staying for `width`, falling over `fall`, period `period`.
    Pulse {
        /// Value before the pulse and after the fall.
        low: f64,
        /// Value at the top of the pulse.
        high: f64,
        /// Time of the first rising edge.
        delay: f64,
        /// Rise time (0 allowed; treated as one solver step).
        rise: f64,
        /// Fall time.
        fall: f64,
        /// Time spent at `high`.
        width: f64,
        /// Repetition period (`0` means single-shot).
        period: f64,
    },
    /// Piece-wise linear: sorted `(time, value)` breakpoints; constant
    /// extrapolation outside the range.
    Pwl(Vec<(f64, f64)>),
    /// Sinusoid `offset + ampl * sin(2π f (t − delay))` for `t ≥ delay`.
    Sine {
        /// DC offset.
        offset: f64,
        /// Amplitude.
        ampl: f64,
        /// Frequency in hertz.
        freq: f64,
        /// Start delay in seconds.
        delay: f64,
    },
}

impl SourceWave {
    /// Evaluates the waveform at time `t` (seconds).
    pub fn at(&self, t: f64) -> f64 {
        match self {
            SourceWave::Dc(v) => *v,
            SourceWave::Pulse {
                low,
                high,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *low;
                }
                let mut tp = t - delay;
                if *period > 0.0 {
                    tp %= period;
                }
                let rise = rise.max(1e-15);
                let fall = fall.max(1e-15);
                if tp < rise {
                    low + (high - low) * (tp / rise)
                } else if tp < rise + width {
                    *high
                } else if tp < rise + width + fall {
                    high + (low - high) * ((tp - rise - width) / fall)
                } else {
                    *low
                }
            }
            SourceWave::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                let last = points[points.len() - 1];
                if t >= last.0 {
                    return last.1;
                }
                // Binary search for the surrounding segment.
                let idx = points.partition_point(|(pt, _)| *pt <= t);
                let (t0, v0) = points[idx - 1];
                let (t1, v1) = points[idx];
                if t1 == t0 {
                    v1
                } else {
                    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                }
            }
            SourceWave::Sine {
                offset,
                ampl,
                freq,
                delay,
            } => {
                if t < *delay {
                    *offset
                } else {
                    offset + ampl * (2.0 * std::f64::consts::PI * freq * (t - delay)).sin()
                }
            }
        }
    }
}

/// MOS transistor polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosPolarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

/// A circuit element.
///
/// All parameters are in base SI units. Fields are public within the crate so
/// the defect injector and solvers can access them; external construction
/// goes through the [`Netlist`] builder methods, which validate parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Device {
    /// Linear resistor.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms (> 0).
        ohms: f64,
    },
    /// Linear capacitor.
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads (> 0).
        farads: f64,
        /// Optional initial condition `v(a) − v(b)` used by the transient
        /// solver when `use_ic` is requested.
        ic: Option<f64>,
    },
    /// Independent voltage source (adds one MNA branch current).
    VSource {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Waveform.
        wave: SourceWave,
    },
    /// Independent current source (positive current flows p → n through the
    /// source, i.e. the source *draws* from `p` and *feeds* `n`).
    ISource {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Waveform.
        wave: SourceWave,
    },
    /// Logic-controlled switch modeled as a two-state resistor.
    Switch {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// `true` = closed (Ron), `false` = open (Roff).
        closed: bool,
        /// On resistance in ohms.
        r_on: f64,
        /// Off resistance in ohms.
        r_off: f64,
    },
    /// Junction diode, Shockley model with ideality factor.
    Diode {
        /// Anode.
        anode: NodeId,
        /// Cathode.
        cathode: NodeId,
        /// Saturation current in amps.
        i_sat: f64,
        /// Ideality factor (≥ 1).
        ideality: f64,
    },
    /// Level-1 (square-law) MOSFET.
    Mosfet {
        /// Drain.
        d: NodeId,
        /// Gate.
        g: NodeId,
        /// Source.
        s: NodeId,
        /// Polarity.
        polarity: MosPolarity,
        /// Threshold voltage (positive for NMOS, positive magnitude for
        /// PMOS; the model applies the sign).
        vth: f64,
        /// Transconductance factor `k' · W/L` in A/V².
        kp: f64,
        /// Channel-length modulation in 1/V.
        lambda: f64,
    },
    /// Voltage-controlled voltage source (adds one MNA branch current).
    Vcvs {
        /// Positive output terminal.
        p: NodeId,
        /// Negative output terminal.
        n: NodeId,
        /// Positive control terminal.
        cp: NodeId,
        /// Negative control terminal.
        cn: NodeId,
        /// Voltage gain.
        gain: f64,
    },
    /// Voltage-controlled current source.
    Vccs {
        /// Positive output terminal (current flows p → n through source).
        p: NodeId,
        /// Negative output terminal.
        n: NodeId,
        /// Positive control terminal.
        cp: NodeId,
        /// Negative control terminal.
        cn: NodeId,
        /// Transconductance in siemens.
        gm: f64,
    },
}

impl Device {
    /// Returns `true` if the device introduces an MNA branch current.
    pub(crate) fn has_branch(&self) -> bool {
        matches!(self, Device::VSource { .. } | Device::Vcvs { .. })
    }

    /// Returns `true` if the device is nonlinear (requires Newton–Raphson).
    pub(crate) fn is_nonlinear(&self) -> bool {
        matches!(self, Device::Diode { .. } | Device::Mosfet { .. })
    }
}

/// Returns a human-readable description of the first invalid parameter in
/// `device`, or `None` when all parameters are sane.
///
/// This is the single source of truth for "sane device parameters": the
/// [`Netlist`] builder methods consult it in debug builds (via
/// `Netlist::push`'s debug assertion) and the `symbist-lint`
/// parameter-sanity rule applies it to finished netlists, so a value the
/// linter would flag can never slip through a builder unnoticed in tests.
pub fn device_param_issue(device: &Device) -> Option<String> {
    fn wave_issue(wave: &SourceWave) -> Option<String> {
        match wave {
            SourceWave::Dc(v) => (!v.is_finite()).then(|| format!("non-finite DC value {v}")),
            SourceWave::Pulse {
                low,
                high,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                for (name, v) in [("low", low), ("high", high), ("delay", delay)] {
                    if !v.is_finite() {
                        return Some(format!("non-finite pulse {name} {v}"));
                    }
                }
                for (name, v) in [
                    ("rise", rise),
                    ("fall", fall),
                    ("width", width),
                    ("period", period),
                ] {
                    if !v.is_finite() || *v < 0.0 {
                        return Some(format!("pulse {name} must be finite and >= 0, got {v}"));
                    }
                }
                None
            }
            SourceWave::Pwl(points) => {
                for (t, v) in points {
                    if !t.is_finite() || !v.is_finite() {
                        return Some(format!("non-finite PWL breakpoint ({t}, {v})"));
                    }
                }
                if points.windows(2).any(|w| w[1].0 < w[0].0) {
                    return Some("PWL breakpoints not sorted by time".into());
                }
                None
            }
            SourceWave::Sine {
                offset,
                ampl,
                freq,
                delay,
            } => {
                for (name, v) in [
                    ("offset", offset),
                    ("ampl", ampl),
                    ("freq", freq),
                    ("delay", delay),
                ] {
                    if !v.is_finite() {
                        return Some(format!("non-finite sine {name} {v}"));
                    }
                }
                None
            }
        }
    }

    match device {
        Device::Resistor { ohms, .. } => (!ohms.is_finite() || *ohms <= 0.0)
            .then(|| format!("resistance must be finite and > 0, got {ohms}")),
        Device::Capacitor { farads, ic, .. } => {
            if !farads.is_finite() || *farads <= 0.0 {
                return Some(format!("capacitance must be finite and > 0, got {farads}"));
            }
            if let Some(ic) = ic {
                if !ic.is_finite() {
                    return Some(format!(
                        "capacitor initial condition must be finite, got {ic}"
                    ));
                }
            }
            None
        }
        Device::VSource { wave, .. } | Device::ISource { wave, .. } => wave_issue(wave),
        Device::Switch { r_on, r_off, .. } => {
            if !r_on.is_finite() || *r_on <= 0.0 {
                return Some(format!("switch r_on must be finite and > 0, got {r_on}"));
            }
            if !r_off.is_finite() || *r_off <= 0.0 {
                return Some(format!("switch r_off must be finite and > 0, got {r_off}"));
            }
            if r_on >= r_off {
                return Some(format!(
                    "switch r_on must be smaller than r_off, got r_on={r_on} r_off={r_off}"
                ));
            }
            None
        }
        Device::Diode {
            i_sat, ideality, ..
        } => {
            if !i_sat.is_finite() || *i_sat <= 0.0 {
                return Some(format!("diode i_sat must be finite and > 0, got {i_sat}"));
            }
            if !ideality.is_finite() || *ideality < 1.0 {
                return Some(format!(
                    "diode ideality must be finite and >= 1, got {ideality}"
                ));
            }
            None
        }
        Device::Mosfet {
            vth, kp, lambda, ..
        } => {
            if !vth.is_finite() || *vth <= 0.0 {
                return Some(format!(
                    "mosfet vth magnitude must be finite and > 0, got {vth}"
                ));
            }
            if !kp.is_finite() || *kp <= 0.0 {
                return Some(format!("mosfet kp must be finite and > 0, got {kp}"));
            }
            if !lambda.is_finite() || *lambda < 0.0 {
                return Some(format!(
                    "mosfet lambda must be finite and >= 0, got {lambda}"
                ));
            }
            None
        }
        Device::Vcvs { gain, .. } => {
            (!gain.is_finite()).then(|| format!("vcvs gain must be finite, got {gain}"))
        }
        Device::Vccs { gm, .. } => {
            (!gm.is_finite()).then(|| format!("vccs gm must be finite, got {gm}"))
        }
    }
}

/// A flat circuit description.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    devices: Vec<Device>,
    /// Number of nodes including ground.
    node_count: usize,
    names: HashMap<String, NodeId>,
}

impl Netlist {
    /// The ground node.
    pub const GND: NodeId = NodeId(0);

    /// Creates an empty netlist containing only the ground node.
    pub fn new() -> Self {
        Self {
            devices: Vec::new(),
            node_count: 1,
            names: HashMap::new(),
        }
    }

    /// Creates a fresh unnamed node.
    pub fn fresh_node(&mut self) -> NodeId {
        let id = NodeId(self.node_count);
        self.node_count += 1;
        id
    }

    /// Returns the node with the given name, creating it if needed.
    ///
    /// The name `"gnd"` (case-insensitive) and `"0"` always map to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if name.eq_ignore_ascii_case("gnd") || name == "0" {
            return Self::GND;
        }
        if let Some(&id) = self.names.get(name) {
            return id;
        }
        let id = self.fresh_node();
        self.names.insert(name.to_string(), id);
        id
    }

    /// Looks up a named node without creating it.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        if name.eq_ignore_ascii_case("gnd") || name == "0" {
            return Some(Self::GND);
        }
        self.names.get(name).copied()
    }

    /// Total number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Iterates over every node including ground.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count).map(NodeId)
    }

    /// The name of a node, if it was created through [`Netlist::node`].
    pub fn node_name(&self, node: NodeId) -> Option<&str> {
        self.names
            .iter()
            .find(|(_, n)| **n == node)
            .map(|(s, _)| s.as_str())
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Immutable access to a device.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.0]
    }

    /// Mutable access to a device (used by the defect injector).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn device_mut(&mut self, id: DeviceId) -> &mut Device {
        &mut self.devices[id.0]
    }

    /// Iterates over `(DeviceId, &Device)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, &Device)> {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, d)| (DeviceId(i), d))
    }

    fn push(&mut self, d: Device) -> DeviceId {
        // Debug-time mirror of the `symbist-lint` parameter-sanity rule:
        // anything the linter would flag as a bad parameter is a builder
        // bug, caught at construction in test/debug builds.
        #[cfg(debug_assertions)]
        if let Some(issue) = device_param_issue(&d) {
            panic!("invalid device parameters: {issue}");
        }
        let id = DeviceId(self.devices.len());
        self.devices.push(d);
        id
    }

    fn check_node(&self, n: NodeId) {
        assert!(
            n.0 < self.node_count,
            "node {n} does not exist in this netlist"
        );
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not strictly positive and finite, or a node is
    /// unknown.
    pub fn resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) -> DeviceId {
        self.check_node(a);
        self.check_node(b);
        assert!(
            ohms.is_finite() && ohms > 0.0,
            "resistance must be > 0, got {ohms}"
        );
        self.push(Device::Resistor { a, b, ohms })
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not strictly positive and finite.
    pub fn capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) -> DeviceId {
        self.check_node(a);
        self.check_node(b);
        assert!(
            farads.is_finite() && farads > 0.0,
            "capacitance must be > 0, got {farads}"
        );
        self.push(Device::Capacitor {
            a,
            b,
            farads,
            ic: None,
        })
    }

    /// Adds a capacitor with an initial condition `v(a) − v(b)`.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not strictly positive and finite, or (in
    /// debug builds) if `ic` is not finite.
    pub fn capacitor_with_ic(&mut self, a: NodeId, b: NodeId, farads: f64, ic: f64) -> DeviceId {
        self.check_node(a);
        self.check_node(b);
        assert!(
            farads.is_finite() && farads > 0.0,
            "capacitance must be > 0, got {farads}"
        );
        self.push(Device::Capacitor {
            a,
            b,
            farads,
            ic: Some(ic),
        })
    }

    /// Adds a DC voltage source.
    pub fn vsource(&mut self, p: NodeId, n: NodeId, volts: f64) -> DeviceId {
        self.vsource_wave(p, n, SourceWave::Dc(volts))
    }

    /// Adds a voltage source with an arbitrary waveform.
    pub fn vsource_wave(&mut self, p: NodeId, n: NodeId, wave: SourceWave) -> DeviceId {
        self.check_node(p);
        self.check_node(n);
        self.push(Device::VSource { p, n, wave })
    }

    /// Adds a DC current source (positive current p → n through the source).
    pub fn isource(&mut self, p: NodeId, n: NodeId, amps: f64) -> DeviceId {
        self.isource_wave(p, n, SourceWave::Dc(amps))
    }

    /// Adds a current source with an arbitrary waveform.
    pub fn isource_wave(&mut self, p: NodeId, n: NodeId, wave: SourceWave) -> DeviceId {
        self.check_node(p);
        self.check_node(n);
        self.push(Device::ISource { p, n, wave })
    }

    /// Adds a logic-controlled switch (initially open).
    ///
    /// # Panics
    ///
    /// Panics if `r_on` or `r_off` is not strictly positive, or if
    /// `r_on >= r_off`.
    pub fn switch(&mut self, a: NodeId, b: NodeId, r_on: f64, r_off: f64) -> DeviceId {
        self.check_node(a);
        self.check_node(b);
        assert!(r_on.is_finite() && r_on > 0.0, "r_on must be > 0");
        assert!(r_off.is_finite() && r_off > 0.0, "r_off must be > 0");
        assert!(r_on < r_off, "r_on must be smaller than r_off");
        self.push(Device::Switch {
            a,
            b,
            closed: false,
            r_on,
            r_off,
        })
    }

    /// Sets a switch state.
    ///
    /// # Panics
    ///
    /// Panics if the device is not a switch.
    pub fn set_switch(&mut self, id: DeviceId, closed: bool) {
        match &mut self.devices[id.0] {
            Device::Switch { closed: c, .. } => *c = closed,
            other => panic!("device {id:?} is not a switch: {other:?}"),
        }
    }

    /// Returns a switch state.
    ///
    /// # Panics
    ///
    /// Panics if the device is not a switch.
    pub fn switch_state(&self, id: DeviceId) -> bool {
        match &self.devices[id.0] {
            Device::Switch { closed, .. } => *closed,
            other => panic!("device {id:?} is not a switch: {other:?}"),
        }
    }

    /// Adds a diode.
    ///
    /// # Panics
    ///
    /// Panics if `i_sat <= 0` or `ideality < 1`.
    pub fn diode(&mut self, anode: NodeId, cathode: NodeId, i_sat: f64, ideality: f64) -> DeviceId {
        self.check_node(anode);
        self.check_node(cathode);
        assert!(i_sat.is_finite() && i_sat > 0.0, "i_sat must be > 0");
        assert!(
            ideality.is_finite() && ideality >= 1.0,
            "ideality must be >= 1"
        );
        self.push(Device::Diode {
            anode,
            cathode,
            i_sat,
            ideality,
        })
    }

    /// Adds a level-1 MOSFET.
    ///
    /// # Panics
    ///
    /// Panics if `kp <= 0`, `vth <= 0` (magnitude), or `lambda < 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn mosfet(
        &mut self,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        polarity: MosPolarity,
        vth: f64,
        kp: f64,
        lambda: f64,
    ) -> DeviceId {
        self.check_node(d);
        self.check_node(g);
        self.check_node(s);
        assert!(vth.is_finite() && vth > 0.0, "vth magnitude must be > 0");
        assert!(kp.is_finite() && kp > 0.0, "kp must be > 0");
        assert!(lambda.is_finite() && lambda >= 0.0, "lambda must be >= 0");
        self.push(Device::Mosfet {
            d,
            g,
            s,
            polarity,
            vth,
            kp,
            lambda,
        })
    }

    /// Adds a voltage-controlled voltage source.
    pub fn vcvs(&mut self, p: NodeId, n: NodeId, cp: NodeId, cn: NodeId, gain: f64) -> DeviceId {
        for node in [p, n, cp, cn] {
            self.check_node(node);
        }
        assert!(gain.is_finite(), "gain must be finite");
        self.push(Device::Vcvs { p, n, cp, cn, gain })
    }

    /// Adds a voltage-controlled current source.
    pub fn vccs(&mut self, p: NodeId, n: NodeId, cp: NodeId, cn: NodeId, gm: f64) -> DeviceId {
        for node in [p, n, cp, cn] {
            self.check_node(node);
        }
        assert!(gm.is_finite(), "gm must be finite");
        self.push(Device::Vccs { p, n, cp, cn, gm })
    }

    /// Number of MNA unknowns: non-ground nodes plus branch currents.
    pub fn mna_dim(&self) -> usize {
        let branches = self.devices.iter().filter(|d| d.has_branch()).count();
        (self.node_count - 1) + branches
    }

    /// Returns `true` if any device is nonlinear.
    pub(crate) fn has_nonlinear(&self) -> bool {
        self.devices.iter().any(|d| d.is_nonlinear())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_aliases() {
        let mut nl = Netlist::new();
        assert_eq!(nl.node("gnd"), Netlist::GND);
        assert_eq!(nl.node("GND"), Netlist::GND);
        assert_eq!(nl.node("0"), Netlist::GND);
    }

    #[test]
    fn named_nodes_are_stable() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        assert_ne!(a, b);
        assert_eq!(nl.node("a"), a);
        assert_eq!(nl.find_node("a"), Some(a));
        assert_eq!(nl.find_node("zzz"), None);
    }

    #[test]
    fn device_ids_sequential() {
        let mut nl = Netlist::new();
        let n = nl.fresh_node();
        let r1 = nl.resistor(n, Netlist::GND, 1.0);
        let r2 = nl.resistor(n, Netlist::GND, 2.0);
        assert_eq!(r1.index(), 0);
        assert_eq!(r2.index(), 1);
        assert_eq!(nl.device_count(), 2);
    }

    #[test]
    fn switch_toggles() {
        let mut nl = Netlist::new();
        let n = nl.fresh_node();
        let sw = nl.switch(n, Netlist::GND, 100.0, 1e12);
        assert!(!nl.switch_state(sw));
        nl.set_switch(sw, true);
        assert!(nl.switch_state(sw));
    }

    #[test]
    fn mna_dim_counts_branches() {
        let mut nl = Netlist::new();
        let a = nl.fresh_node();
        let b = nl.fresh_node();
        nl.vsource(a, Netlist::GND, 1.0);
        nl.resistor(a, b, 10.0);
        nl.vcvs(b, Netlist::GND, a, Netlist::GND, 2.0);
        // 2 nodes + 2 branch currents.
        assert_eq!(nl.mna_dim(), 4);
    }

    #[test]
    #[should_panic]
    fn negative_resistance_rejected() {
        let mut nl = Netlist::new();
        let n = nl.fresh_node();
        nl.resistor(n, Netlist::GND, -5.0);
    }

    #[test]
    #[should_panic]
    fn unknown_node_rejected() {
        let mut nl = Netlist::new();
        // NodeId forged beyond the netlist's node count.
        nl.resistor(NodeId(42), Netlist::GND, 5.0);
    }

    #[test]
    #[should_panic]
    fn non_finite_ic_rejected() {
        let mut nl = Netlist::new();
        let n = nl.fresh_node();
        nl.capacitor_with_ic(n, Netlist::GND, 1e-12, f64::NAN);
    }

    #[test]
    #[should_panic]
    fn non_finite_vsource_rejected() {
        let mut nl = Netlist::new();
        let n = nl.fresh_node();
        nl.vsource(n, Netlist::GND, f64::INFINITY);
    }

    #[test]
    fn device_param_issue_matches_builders() {
        // Bad parameters the builders reject are exactly those the
        // shared validator reports.
        let n = NodeId(0);
        let bad = [
            Device::Resistor {
                a: n,
                b: n,
                ohms: 0.0,
            },
            Device::Capacitor {
                a: n,
                b: n,
                farads: -1e-12,
                ic: None,
            },
            Device::Capacitor {
                a: n,
                b: n,
                farads: 1e-12,
                ic: Some(f64::NAN),
            },
            Device::Switch {
                a: n,
                b: n,
                closed: false,
                r_on: 10.0,
                r_off: 10.0,
            },
            Device::VSource {
                p: n,
                n,
                wave: SourceWave::Dc(f64::NAN),
            },
            Device::VSource {
                p: n,
                n,
                wave: SourceWave::Pwl(vec![(1.0, 0.0), (0.0, 1.0)]),
            },
            Device::Diode {
                anode: n,
                cathode: n,
                i_sat: 1e-15,
                ideality: 0.5,
            },
            Device::Mosfet {
                d: n,
                g: n,
                s: n,
                polarity: MosPolarity::Nmos,
                vth: 0.4,
                kp: 0.0,
                lambda: 0.0,
            },
            Device::Vcvs {
                p: n,
                n,
                cp: n,
                cn: n,
                gain: f64::INFINITY,
            },
        ];
        for device in &bad {
            assert!(
                device_param_issue(device).is_some(),
                "expected an issue for {device:?}"
            );
        }
        let good = Device::Resistor {
            a: n,
            b: n,
            ohms: 1e3,
        };
        assert_eq!(device_param_issue(&good), None);
    }

    #[test]
    fn pulse_wave_shape() {
        let w = SourceWave::Pulse {
            low: 0.0,
            high: 1.0,
            delay: 1e-9,
            rise: 1e-10,
            fall: 1e-10,
            width: 1e-9,
            period: 4e-9,
        };
        assert_eq!(w.at(0.0), 0.0);
        assert!((w.at(1.05e-9) - 0.5).abs() < 1e-9);
        assert_eq!(w.at(1.5e-9), 1.0);
        assert_eq!(w.at(3e-9), 0.0);
        // Periodic repeat.
        assert_eq!(w.at(5.5e-9), 1.0);
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = SourceWave::Pwl(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 2.0)]);
        assert_eq!(w.at(-1.0), 0.0);
        assert_eq!(w.at(0.5), 1.0);
        assert_eq!(w.at(1.5), 2.0);
        assert_eq!(w.at(5.0), 2.0);
    }

    #[test]
    fn sine_wave() {
        let w = SourceWave::Sine {
            offset: 1.0,
            ampl: 0.5,
            freq: 1.0,
            delay: 0.0,
        };
        assert!((w.at(0.25) - 1.5).abs() < 1e-12);
        assert!((w.at(0.75) - 0.5).abs() < 1e-12);
    }
}
