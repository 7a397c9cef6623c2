//! SPICE-style netlist parser.
//!
//! Accepts the classic card format so circuits can be described in text
//! files and fed straight to the DC/AC/transient solvers:
//!
//! ```text
//! * RC low-pass driven by a pulse
//! VIN in 0 PULSE(0 1.2 0 1n 1n 10n 20n)
//! R1  in out 10k
//! C1  out 0 1p
//! .tran 0.1n 50n
//! .end
//! ```
//!
//! Supported cards: `V` (DC / SIN / PULSE), `I` (DC), `R`, `C` (with
//! `IC=`), `D`, `M` (level-1, `NMOS`/`PMOS` with `VTH= KP= LAMBDA=`),
//! `S` (switch, `ON`/`OFF` with `RON= ROFF=`), `E` (VCVS), `G` (VCCS);
//! directives `.tran`, `.ac dec`, `.op`, `.end`; `*`/`;` comments and `+`
//! continuations. Values take the usual suffixes (`f p n u m k meg g t`).
//!
//! # Examples
//!
//! ```
//! use symbist_circuit::parser::parse_netlist;
//! use symbist_circuit::dc::DcSolver;
//!
//! let parsed = parse_netlist("
//!     V1 top 0 2.0
//!     R1 top mid 1k
//!     R2 mid 0 1k
//! ")?;
//! let op = DcSolver::new().solve(&parsed.netlist).unwrap();
//! let mid = parsed.netlist.find_node("mid").unwrap();
//! assert!((op.voltage(mid) - 1.0).abs() < 1e-9);
//! # Ok::<(), symbist_circuit::parser::ParseError>(())
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::netlist::{DeviceId, MosPolarity, Netlist, SourceWave};

/// A parse failure with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "netlist line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Analysis directives found in the deck.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Directives {
    /// `.tran step stop`.
    pub tran: Option<(f64, f64)>,
    /// `.ac dec points fstart fstop`.
    pub ac: Option<(usize, f64, f64)>,
    /// `.op` present.
    pub op: bool,
}

/// A parsed deck.
#[derive(Debug, Clone)]
pub struct ParsedNetlist {
    /// The circuit.
    pub netlist: Netlist,
    /// Device ids by card name (upper-cased).
    pub devices: HashMap<String, DeviceId>,
    /// Analysis directives.
    pub directives: Directives,
}

/// Parses an engineering-notation value (`10k`, `1.5meg`, `2p`, `0.5`).
///
/// Only finite numeric literals are values: `nan`, `inf`, overflowing
/// exponents (`1e999`) or suffixes (`1e308meg`), and bare suffixes with no
/// mantissa (`k`) are all errors — netlists arrive over the wire, and a NaN
/// that parses here would only blow up deep inside a solver.
///
/// # Errors
///
/// Returns a message when the token is not a finite number.
pub fn parse_value(token: &str) -> Result<f64, String> {
    let t = token.trim().to_ascii_lowercase();
    // Longest suffix first: "meg" before "m".
    const SUFFIXES: [(&str, f64); 9] = [
        ("meg", 1e6),
        ("f", 1e-15),
        ("p", 1e-12),
        ("n", 1e-9),
        ("u", 1e-6),
        ("m", 1e-3),
        ("k", 1e3),
        ("g", 1e9),
        ("t", 1e12),
    ];
    for (suffix, mult) in SUFFIXES {
        if let Some(num) = t.strip_suffix(suffix) {
            // Guard against stripping the exponent of "1e-3" ("g"/"t" can't
            // collide, but a bare "1e" + "g" could; require a parseable stem).
            if let Some(v) = parse_plain(num) {
                let scaled = v * mult;
                if !scaled.is_finite() {
                    return Err(format!("value '{token}' overflows"));
                }
                return Ok(scaled);
            }
        }
    }
    parse_plain(&t).ok_or_else(|| format!("cannot parse value '{token}'"))
}

/// `f64::from_str` minus its non-numeric acceptances: `from_str` happily
/// parses `nan`, `inf`, and `infinity`, none of which is a circuit value.
/// Requiring a digit also makes a suffix-only token (`k`, and the empty
/// stem it strips to) fail here instead of half-matching.
fn parse_plain(s: &str) -> Option<f64> {
    if !s.bytes().any(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse::<f64>().ok().filter(|v| v.is_finite())
}

fn kv(token: &str) -> Option<(&str, &str)> {
    token.split_once('=')
}

struct LineParser<'a> {
    netlist: Netlist,
    devices: HashMap<String, DeviceId>,
    directives: Directives,
    line_no: usize,
    line: &'a str,
}

impl LineParser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line_no,
            message: message.into(),
        }
    }

    fn value(&self, token: &str) -> Result<f64, ParseError> {
        parse_value(token).map_err(|m| self.err(m))
    }

    /// The [`Netlist`] constructors treat out-of-range device parameters
    /// as caller bugs and panic; a netlist from the wire must surface
    /// them as [`ParseError`]s instead, so every card checks its values
    /// here first. (`parse_value` already guarantees finiteness.)
    fn positive(&self, v: f64, what: &str) -> Result<f64, ParseError> {
        if v > 0.0 {
            Ok(v)
        } else {
            Err(self.err(format!("{what} must be > 0, got {v}")))
        }
    }

    fn node(&mut self, name: &str) -> crate::netlist::NodeId {
        self.netlist.node(name)
    }

    fn param(&self, tokens: &[&str], key: &str, default: Option<f64>) -> Result<f64, ParseError> {
        for t in tokens {
            if let Some((k, v)) = kv(t) {
                if k.eq_ignore_ascii_case(key) {
                    return self.value(v);
                }
            }
        }
        default.ok_or_else(|| self.err(format!("missing {key}= parameter")))
    }

    fn source_wave(&self, tokens: &[&str]) -> Result<SourceWave, ParseError> {
        // Re-join so `SIN(0.6 0.3 1k)` survives whitespace splitting.
        let joined = tokens.join(" ");
        let upper = joined.to_ascii_uppercase();
        let args_of = |prefix: &str| -> Option<Vec<String>> {
            let start = upper.find(prefix)?;
            let open = joined[start..].find('(')? + start;
            let close = joined[open..].find(')')? + open;
            Some(
                joined[open + 1..close]
                    .split_whitespace()
                    .map(str::to_string)
                    .collect(),
            )
        };
        if upper.contains("SIN") {
            let args = args_of("SIN").ok_or_else(|| self.err("malformed SIN(...)"))?;
            if args.len() < 3 {
                return Err(self.err("SIN needs (offset ampl freq [delay])"));
            }
            return Ok(SourceWave::Sine {
                offset: self.value(&args[0])?,
                ampl: self.value(&args[1])?,
                freq: self.value(&args[2])?,
                delay: args
                    .get(3)
                    .map(|a| self.value(a))
                    .transpose()?
                    .unwrap_or(0.0),
            });
        }
        if upper.contains("PULSE") {
            let args = args_of("PULSE").ok_or_else(|| self.err("malformed PULSE(...)"))?;
            if args.len() < 7 {
                return Err(self.err("PULSE needs (low high delay rise fall width period)"));
            }
            let timing = |arg: &str, what: &str| -> Result<f64, ParseError> {
                let v = self.value(arg)?;
                if v < 0.0 {
                    return Err(self.err(format!("pulse {what} must be >= 0, got {v}")));
                }
                Ok(v)
            };
            return Ok(SourceWave::Pulse {
                low: self.value(&args[0])?,
                high: self.value(&args[1])?,
                delay: self.value(&args[2])?,
                rise: timing(&args[3], "rise")?,
                fall: timing(&args[4], "fall")?,
                width: timing(&args[5], "width")?,
                period: timing(&args[6], "period")?,
            });
        }
        // DC: `DC 1.5` or a bare value.
        let dc_token = if tokens[0].eq_ignore_ascii_case("dc") {
            tokens
                .get(1)
                .copied()
                .ok_or_else(|| self.err("DC needs a value"))?
        } else {
            tokens[0]
        };
        Ok(SourceWave::Dc(self.value(dc_token)?))
    }

    fn card(&mut self, tokens: &[&str]) -> Result<(), ParseError> {
        let name = tokens[0].to_ascii_uppercase();
        let Some(kind) = name.chars().next() else {
            return Err(self.err("empty device name"));
        };
        let id = match kind {
            'R' => {
                if tokens.len() < 4 {
                    return Err(self.err("R needs: name n1 n2 value"));
                }
                let (a, b) = (self.node(tokens[1]), self.node(tokens[2]));
                let ohms = self.positive(self.value(tokens[3])?, "resistance")?;
                self.netlist.resistor(a, b, ohms)
            }
            'C' => {
                if tokens.len() < 4 {
                    return Err(self.err("C needs: name n1 n2 value [IC=v]"));
                }
                let (a, b) = (self.node(tokens[1]), self.node(tokens[2]));
                let farads = self.positive(self.value(tokens[3])?, "capacitance")?;
                match self.param(&tokens[4..], "IC", Some(f64::NAN)) {
                    Ok(ic) if !ic.is_nan() => self.netlist.capacitor_with_ic(a, b, farads, ic),
                    _ => self.netlist.capacitor(a, b, farads),
                }
            }
            'V' => {
                if tokens.len() < 4 {
                    return Err(self.err("V needs: name p n value/waveform"));
                }
                let (p, n) = (self.node(tokens[1]), self.node(tokens[2]));
                let wave = self.source_wave(&tokens[3..])?;
                self.netlist.vsource_wave(p, n, wave)
            }
            'I' => {
                if tokens.len() < 4 {
                    return Err(self.err("I needs: name p n value"));
                }
                let (p, n) = (self.node(tokens[1]), self.node(tokens[2]));
                let wave = self.source_wave(&tokens[3..])?;
                self.netlist.isource_wave(p, n, wave)
            }
            'D' => {
                if tokens.len() < 3 {
                    return Err(self.err("D needs: name anode cathode [IS= N=]"));
                }
                let (a, k) = (self.node(tokens[1]), self.node(tokens[2]));
                let i_sat = self.positive(self.param(&tokens[3..], "IS", Some(1e-14))?, "IS")?;
                let ideality = self.param(&tokens[3..], "N", Some(1.0))?;
                if ideality < 1.0 {
                    return Err(self.err(format!("diode N must be >= 1, got {ideality}")));
                }
                self.netlist.diode(a, k, i_sat, ideality)
            }
            'M' => {
                if tokens.len() < 5 {
                    return Err(self.err("M needs: name d g s NMOS|PMOS [VTH= KP= LAMBDA=]"));
                }
                let (d, g, s) = (
                    self.node(tokens[1]),
                    self.node(tokens[2]),
                    self.node(tokens[3]),
                );
                let polarity = match tokens[4].to_ascii_uppercase().as_str() {
                    "NMOS" => MosPolarity::Nmos,
                    "PMOS" => MosPolarity::Pmos,
                    other => return Err(self.err(format!("unknown MOS model '{other}'"))),
                };
                let vth = self.positive(self.param(&tokens[5..], "VTH", Some(0.4))?, "VTH")?;
                let kp = self.positive(self.param(&tokens[5..], "KP", Some(2e-4))?, "KP")?;
                let lambda = self.param(&tokens[5..], "LAMBDA", Some(0.0))?;
                if lambda < 0.0 {
                    return Err(self.err(format!("LAMBDA must be >= 0, got {lambda}")));
                }
                self.netlist.mosfet(d, g, s, polarity, vth, kp, lambda)
            }
            'S' => {
                if tokens.len() < 4 {
                    return Err(self.err("S needs: name n1 n2 ON|OFF [RON= ROFF=]"));
                }
                let (a, b) = (self.node(tokens[1]), self.node(tokens[2]));
                let closed = match tokens[3].to_ascii_uppercase().as_str() {
                    "ON" => true,
                    "OFF" => false,
                    other => return Err(self.err(format!("switch state '{other}' (want ON/OFF)"))),
                };
                let r_on = self.positive(self.param(&tokens[4..], "RON", Some(100.0))?, "RON")?;
                let r_off = self.positive(self.param(&tokens[4..], "ROFF", Some(1e12))?, "ROFF")?;
                if r_on >= r_off {
                    return Err(self.err(format!(
                        "switch needs RON < ROFF, got RON={r_on} ROFF={r_off}"
                    )));
                }
                let id = self.netlist.switch(a, b, r_on, r_off);
                self.netlist.set_switch(id, closed);
                id
            }
            'E' => {
                if tokens.len() < 6 {
                    return Err(self.err("E needs: name p n cp cn gain"));
                }
                let nodes: Vec<_> = tokens[1..=4].iter().map(|t| self.node(t)).collect();
                let gain = self.value(tokens[5])?;
                self.netlist
                    .vcvs(nodes[0], nodes[1], nodes[2], nodes[3], gain)
            }
            'G' => {
                if tokens.len() < 6 {
                    return Err(self.err("G needs: name p n cp cn gm"));
                }
                let nodes: Vec<_> = tokens[1..=4].iter().map(|t| self.node(t)).collect();
                let gm = self.value(tokens[5])?;
                self.netlist
                    .vccs(nodes[0], nodes[1], nodes[2], nodes[3], gm)
            }
            other => return Err(self.err(format!("unknown card type '{other}'"))),
        };
        if self.devices.insert(name.clone(), id).is_some() {
            return Err(self.err(format!("duplicate device name '{name}'")));
        }
        Ok(())
    }

    fn directive(&mut self, tokens: &[&str]) -> Result<(), ParseError> {
        match tokens[0].to_ascii_lowercase().as_str() {
            ".end" => Ok(()),
            ".op" => {
                self.directives.op = true;
                Ok(())
            }
            ".tran" => {
                if tokens.len() < 3 {
                    return Err(self.err(".tran needs: step stop"));
                }
                let step = self.value(tokens[1])?;
                let stop = self.value(tokens[2])?;
                self.directives.tran = Some((step, stop));
                Ok(())
            }
            ".ac" => {
                if tokens.len() < 5 || !tokens[1].eq_ignore_ascii_case("dec") {
                    return Err(self.err(".ac needs: dec points fstart fstop"));
                }
                let points = tokens[2]
                    .parse::<usize>()
                    .map_err(|_| self.err("bad .ac point count"))?;
                let fstart = self.value(tokens[3])?;
                let fstop = self.value(tokens[4])?;
                self.directives.ac = Some((points, fstart, fstop));
                Ok(())
            }
            other => Err(self.err(format!("unknown directive '{other}'"))),
        }
    }
}

/// Parses a netlist deck.
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered. A deck with no cards or
/// directives at all — empty, whitespace, or comments only — is an
/// error, not an empty circuit: every caller that feeds this from user
/// input (file, HTTP body) wants "you sent nothing" surfaced, and a
/// genuinely empty `Netlist` is constructed directly, never parsed.
pub fn parse_netlist(source: &str) -> Result<ParsedNetlist, ParseError> {
    // Merge '+' continuations, tracking original line numbers.
    let mut logical: Vec<(usize, String)> = Vec::new();
    for (i, raw) in source.lines().enumerate() {
        let line = raw.split(';').next().unwrap_or("").trim_end();
        let trimmed = line.trim_start();
        if trimmed.is_empty() || trimmed.starts_with('*') {
            continue;
        }
        if let Some(cont) = trimmed.strip_prefix('+') {
            match logical.last_mut() {
                Some((_, prev)) => {
                    prev.push(' ');
                    prev.push_str(cont.trim());
                }
                None => {
                    return Err(ParseError {
                        line: i + 1,
                        message: "continuation with no previous card".into(),
                    })
                }
            }
        } else {
            logical.push((i + 1, trimmed.to_string()));
        }
    }
    if logical.is_empty() {
        return Err(ParseError {
            line: 1,
            message: "empty netlist (no cards or directives)".into(),
        });
    }

    let mut p = LineParser {
        netlist: Netlist::new(),
        devices: HashMap::new(),
        directives: Directives::default(),
        line_no: 0,
        line: "",
    };
    for (line_no, line) in &logical {
        p.line_no = *line_no;
        p.line = line;
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.is_empty() {
            continue;
        }
        if tokens[0].starts_with('.') {
            p.directive(&tokens)?;
        } else {
            p.card(&tokens)?;
        }
    }
    Ok(ParsedNetlist {
        netlist: p.netlist,
        devices: p.devices,
        directives: p.directives,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::DcSolver;
    use crate::transient::{TransientOptions, TransientSim};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * b.abs().max(1.0)
    }

    #[test]
    fn values_with_suffixes() {
        assert!(close(parse_value("10k").unwrap(), 10e3));
        assert!(close(parse_value("1.5MEG").unwrap(), 1.5e6));
        assert!(close(parse_value("2p").unwrap(), 2e-12));
        assert!(close(parse_value("3N").unwrap(), 3e-9));
        assert!(close(parse_value("4u").unwrap(), 4e-6));
        assert!(close(parse_value("5m").unwrap(), 5e-3));
        assert!(close(parse_value("0.5").unwrap(), 0.5));
        assert!(close(parse_value("1e-3").unwrap(), 1e-3));
        assert!(close(parse_value("7f").unwrap(), 7e-15));
        assert!(parse_value("xyz").is_err());
    }

    #[test]
    fn divider_deck_solves() {
        let parsed =
            parse_netlist("* divider\nV1 top 0 DC 3.0\nR1 top mid 2k\nR2 mid 0 1k\n.op\n.end\n")
                .unwrap();
        assert!(parsed.directives.op);
        assert_eq!(parsed.devices.len(), 3);
        let op = DcSolver::new().solve(&parsed.netlist).unwrap();
        let mid = parsed.netlist.find_node("mid").unwrap();
        assert!((op.voltage(mid) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nonlinear_deck_with_params() {
        let parsed = parse_netlist(
            "VDD vdd 0 1.8
             R1 vdd a 100k
             D1 a 0 IS=1e-16 N=1.0
             M1 a g 0 NMOS VTH=0.5 KP=1e-4
             VG g 0 0.0",
        )
        .unwrap();
        let op = DcSolver::new().solve(&parsed.netlist).unwrap();
        let a = parsed.netlist.find_node("a").unwrap();
        assert!(
            (0.5..0.95).contains(&op.voltage(a)),
            "v(a) = {}",
            op.voltage(a)
        );
    }

    #[test]
    fn pulse_and_tran_directive() {
        let parsed = parse_netlist(
            "VIN in 0 PULSE(0 1.2 0 1n 1n 10n 20n)
             R1 in out 1k
             C1 out 0 1p IC=0
             .tran 0.1n 15n",
        )
        .unwrap();
        let (step, stop) = parsed.directives.tran.unwrap();
        assert!(close(stop, 15e-9));
        let mut sim = TransientSim::new(
            &parsed.netlist,
            TransientOptions {
                dt: step,
                use_ic: true,
            },
        )
        .unwrap();
        let out = parsed.netlist.find_node("out").unwrap();
        // Mid-pulse (high from 1 ns to 11 ns): the 1 ns-τ RC has settled.
        while sim.time() < 10e-9 {
            sim.step(&parsed.netlist).unwrap();
        }
        assert!(
            (sim.voltage(out) - 1.2).abs() < 0.01,
            "v = {}",
            sim.voltage(out)
        );
        // After the fall (12 ns) the output decays back toward zero.
        while sim.time() < stop {
            sim.step(&parsed.netlist).unwrap();
        }
        assert!(sim.voltage(out) < 0.1, "v = {}", sim.voltage(out));
    }

    #[test]
    fn continuations_and_comments() {
        let parsed = parse_netlist(
            "* a source split across lines
             V1 a 0
             +  SIN(0.6
             +  0.3 1k)
             R1 a 0 1k ; load",
        )
        .unwrap();
        match parsed.netlist.device(parsed.devices["V1"]) {
            crate::netlist::Device::VSource {
                wave:
                    SourceWave::Sine {
                        offset, ampl, freq, ..
                    },
                ..
            } => {
                assert_eq!(*offset, 0.6);
                assert_eq!(*ampl, 0.3);
                assert_eq!(*freq, 1e3);
            }
            other => panic!("wrong device: {other:?}"),
        }
    }

    #[test]
    fn switch_and_controlled_sources() {
        let parsed = parse_netlist(
            "V1 a 0 1.0
             S1 a b ON RON=10 ROFF=1e12
             R1 b 0 1k
             E1 c 0 b 0 2.0
             G1 d 0 b 0 1m
             R2 d 0 1k",
        )
        .unwrap();
        let op = DcSolver::new().solve(&parsed.netlist).unwrap();
        let b = parsed.netlist.find_node("b").unwrap();
        let c = parsed.netlist.find_node("c").unwrap();
        let d = parsed.netlist.find_node("d").unwrap();
        assert!((op.voltage(b) - 0.99).abs() < 0.01);
        assert!((op.voltage(c) - 2.0 * op.voltage(b)).abs() < 1e-9);
        // G pushes 1m·v(b) out of d: v(d) = −1 V per volt at b.
        assert!((op.voltage(d) + op.voltage(b)).abs() < 1e-9);
    }

    #[test]
    fn ac_directive() {
        let parsed = parse_netlist(".ac dec 10 1 1meg\nR1 a 0 1k\nV1 a 0 1").unwrap();
        assert_eq!(parsed.directives.ac, Some((10, 1.0, 1e6)));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_netlist("R1 a 0 1k\nQ1 a b c").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("unknown card"));
        let err = parse_netlist("R1 a 0 bogus").unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse_netlist("R1 a 0 1k\nR1 a 0 2k").unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn empty_decks_are_errors_not_empty_circuits() {
        for deck in ["", "   \n\t\n", "* only a comment\n; and another", "+"] {
            let err = parse_netlist(deck).unwrap_err();
            assert!(
                err.message.contains("empty netlist") || err.message.contains("continuation"),
                "deck {deck:?} gave {err}"
            );
        }
    }

    #[test]
    fn truncated_r_card_is_an_error_not_a_panic() {
        for deck in ["R1", "R1 a", "R1 a 0"] {
            let err = parse_netlist(deck).unwrap_err();
            assert!(err.message.contains("R needs"), "deck {deck:?} gave {err}");
        }
    }

    #[test]
    fn non_finite_and_mantissaless_values_are_rejected() {
        for bad in [
            "nan", "NaN", "inf", "-inf", "infinity", "1e999", "k", "meg", "nank", "infp",
            "1e308meg", "-1e307k", "1.7e308t",
        ] {
            assert!(parse_value(bad).is_err(), "{bad:?} parsed");
        }
        // The rejections must not eat legitimate exponent forms.
        assert!(close(parse_value("1e-3").unwrap(), 1e-3));
        assert!(close(parse_value("-2.5e2").unwrap(), -250.0));
    }

    #[test]
    fn out_of_range_device_params_are_parse_errors() {
        // Each of these would trip a Netlist constructor assert (a panic,
        // even in release) if the parser let it through.
        let bad = [
            ("R1 a 0 0", "resistance"),
            ("R1 a 0 -1k", "resistance"),
            ("C1 a 0 0", "capacitance"),
            ("S1 a b ON RON=10 ROFF=10", "RON < ROFF"),
            ("S1 a b ON RON=0", "RON"),
            ("D1 a 0 IS=0", "IS"),
            ("D1 a 0 N=0.5", "N must be >= 1"),
            ("M1 d g 0 NMOS VTH=0", "VTH"),
            ("M1 d g 0 NMOS KP=-1", "KP"),
            ("M1 d g 0 NMOS LAMBDA=-0.1", "LAMBDA"),
            ("V1 a 0 PULSE(0 1 0 -1n 1n 5n 10n)", "rise"),
        ];
        for (deck, needle) in bad {
            let err = parse_netlist(deck).unwrap_err();
            assert!(
                err.message.contains(needle),
                "deck {deck:?} gave {err:?}, wanted {needle:?}"
            );
        }
    }
}
