//! The declarative DUT upload: a netlist plus an invariance spec.
//!
//! A [`DutSpec`] is what a client `POST`s to `/v1/duts`: the SPICE-ish
//! netlist text (parsed by `symbist_circuit::parser`), the symmetry
//! invariances to monitor (paper §II: complementary sums `V1 + V2 = α`
//! and replica differences `V1 − V2 = 0` on named node pairs), the
//! window-comparator calibration knobs (`δ = k·σ` over Monte-Carlo
//! mismatch), and optional defect-universe likelihood weights:
//!
//! ```json
//! {"name": "subradix18",
//!  "netlist": "VREF vref 0 1.2\nR0 vref outp 10k\n...",
//!  "invariances": [
//!    {"name": "fd-sum", "kind": "complementary",
//!     "a": "outp", "b": "outn", "alpha": 1.2},
//!    {"name": "shadow", "kind": "replica", "a": "outp", "b": "outq"}],
//!  "calibration": {"k": 5.0, "samples": 100, "seed": 7,
//!                  "resistor_sigma": 0.005},
//!  "likelihood": {"short_weight": 3.0, "open_weight": 1.0,
//!                 "param_weight": 0.5}}
//! ```
//!
//! Everything but `name`, `netlist`, and `invariances` is optional.
//! Parsing is strict: unknown fields are rejected (all offending keys
//! listed), because a typo'd calibration knob that silently fell back to a
//! default would calibrate the wrong windows for every campaign run
//! against the DUT.

use std::fmt;

use crate::json::Json;

/// Why a DUT spec was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DutSpecError(pub String);

impl fmt::Display for DutSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DutSpecError {}

/// The symmetry class of one declared invariance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InvarianceKind {
    /// `v(a) + v(b) = alpha` (fully-differential / complementary pair).
    Complementary {
        /// The invariant sum.
        alpha: f64,
    },
    /// `v(a) − v(b) = 0` (identical duplicated blocks, same input).
    Replica,
}

/// One declared invariance between two named netlist nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct InvarianceSpec {
    /// Report label, e.g. `"fd-sum"`.
    pub name: String,
    /// First node name (must exist in the netlist).
    pub a: String,
    /// Second node name.
    pub b: String,
    /// Symmetry class.
    pub kind: InvarianceKind,
}

/// The most Monte-Carlo samples a calibration may ask for. An upload
/// calibrates inside the request handler, one DC solve per sample and one
/// stored deviation per sample and invariance, so a larger count is
/// rejected (`400`) before any of that work starts. It sits well above the
/// default of 100.
pub const MAX_CALIBRATION_SAMPLES: usize = 10_000;

/// Window-comparator calibration knobs (`δ = k·σ` over `samples`
/// Monte-Carlo mismatch instances drawn from `seed`).
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSpec {
    /// Window half-width in calibration sigmas.
    pub k: f64,
    /// Monte-Carlo sample count, 2 to [`MAX_CALIBRATION_SAMPLES`].
    pub samples: usize,
    /// Calibration RNG seed. Part of the content hash: two uploads that
    /// differ only in seed calibrate different windows and are distinct
    /// DUTs.
    pub seed: u64,
    /// Relative resistor mismatch sigma.
    pub resistor_sigma: f64,
    /// Relative capacitor mismatch sigma.
    pub capacitor_sigma: f64,
    /// Absolute MOS threshold mismatch sigma in volts.
    pub vth_sigma: f64,
}

impl Default for CalibrationSpec {
    fn default() -> Self {
        Self {
            k: 5.0,
            samples: 100,
            seed: 0xCA11B,
            resistor_sigma: 0.005,
            capacitor_sigma: 0.0,
            vth_sigma: 0.0,
        }
    }
}

/// Optional overrides of the defect-class likelihood weights (defaults
/// match `symbist_defects::LikelihoodModel`).
#[derive(Debug, Clone, PartialEq)]
pub struct LikelihoodSpec {
    /// Weight of short-class defects.
    pub short_weight: f64,
    /// Weight of open-class defects.
    pub open_weight: f64,
    /// Weight of ±50 % parameter defects.
    pub param_weight: f64,
}

/// A validated DUT upload.
#[derive(Debug, Clone, PartialEq)]
pub struct DutSpec {
    /// Registry name (also resolvable as a job-spec `dut` reference).
    pub name: String,
    /// Owning tenant for quota accounting.
    pub tenant: String,
    /// SPICE-ish netlist source text.
    pub netlist: String,
    /// Declared invariances (non-empty).
    pub invariances: Vec<InvarianceSpec>,
    /// Window calibration knobs.
    pub calibration: CalibrationSpec,
    /// Likelihood-weight overrides, if any.
    pub likelihood: Option<LikelihoodSpec>,
}

impl DutSpec {
    /// Parses and validates a spec from a JSON document.
    pub fn from_json(json: &Json) -> Result<DutSpec, DutSpecError> {
        let Json::Obj(map) = json else {
            return Err(DutSpecError("DUT spec must be a JSON object".into()));
        };
        let unknown = Json::unknown_keys(
            map,
            &[
                "name",
                "tenant",
                "netlist",
                "invariances",
                "calibration",
                "likelihood",
            ],
        );
        if !unknown.is_empty() {
            return Err(DutSpecError(format!(
                "unknown DUT spec field(s): {}",
                unknown.join(", ")
            )));
        }
        let name = req_string(json, "name")?;
        if name.is_empty() || !name.bytes().all(name_byte_ok) {
            return Err(DutSpecError(format!(
                "\"name\" must be non-empty and use only [A-Za-z0-9._-], got \"{name}\""
            )));
        }
        let tenant = match json.get("tenant") {
            None => "default".to_string(),
            Some(v) => match v.as_str() {
                Some(t) if !t.is_empty() => t.to_string(),
                _ => return Err(DutSpecError("\"tenant\" must be a non-empty string".into())),
            },
        };
        let netlist = req_string(json, "netlist")?;
        if netlist.trim().is_empty() {
            return Err(DutSpecError("\"netlist\" must not be empty".into()));
        }
        let inv_json = json
            .get("invariances")
            .and_then(Json::as_arr)
            .ok_or_else(|| DutSpecError("\"invariances\" must be an array".into()))?;
        if inv_json.is_empty() {
            return Err(DutSpecError(
                "at least one invariance must be declared".into(),
            ));
        }
        let invariances = inv_json
            .iter()
            .map(parse_invariance)
            .collect::<Result<Vec<_>, _>>()?;
        let calibration = match json.get("calibration") {
            None | Some(Json::Null) => CalibrationSpec::default(),
            Some(c) => parse_calibration(c)?,
        };
        let likelihood = match json.get("likelihood") {
            None | Some(Json::Null) => None,
            Some(l) => Some(parse_likelihood(l)?),
        };
        Ok(DutSpec {
            name,
            tenant,
            netlist,
            invariances,
            calibration,
            likelihood,
        })
    }

    /// Parses a spec from raw JSON text.
    pub fn from_json_text(text: &str) -> Result<DutSpec, DutSpecError> {
        let json = Json::parse(text).map_err(|e| DutSpecError(e.to_string()))?;
        Self::from_json(&json)
    }

    /// Serializes the spec back to JSON (round-trips through
    /// [`from_json`](Self::from_json); used by registry persistence and
    /// the coordinator's worker-upload path).
    pub fn to_json(&self) -> Json {
        let invariances: Vec<Json> = self
            .invariances
            .iter()
            .map(|inv| {
                let mut pairs = vec![
                    ("name", Json::str(inv.name.clone())),
                    ("a", Json::str(inv.a.clone())),
                    ("b", Json::str(inv.b.clone())),
                ];
                match inv.kind {
                    InvarianceKind::Complementary { alpha } => {
                        pairs.push(("kind", Json::str("complementary")));
                        pairs.push(("alpha", Json::num(alpha)));
                    }
                    InvarianceKind::Replica => pairs.push(("kind", Json::str("replica"))),
                }
                Json::obj(pairs)
            })
            .collect();
        let cal = &self.calibration;
        let mut pairs = vec![
            ("name", Json::str(self.name.clone())),
            ("tenant", Json::str(self.tenant.clone())),
            ("netlist", Json::str(self.netlist.clone())),
            ("invariances", Json::Arr(invariances)),
            (
                "calibration",
                Json::obj([
                    ("k", Json::num(cal.k)),
                    ("samples", Json::num(cal.samples as f64)),
                    ("seed", Json::num(cal.seed as f64)),
                    ("resistor_sigma", Json::num(cal.resistor_sigma)),
                    ("capacitor_sigma", Json::num(cal.capacitor_sigma)),
                    ("vth_sigma", Json::num(cal.vth_sigma)),
                ]),
            ),
        ];
        if let Some(lw) = &self.likelihood {
            pairs.push((
                "likelihood",
                Json::obj([
                    ("short_weight", Json::num(lw.short_weight)),
                    ("open_weight", Json::num(lw.open_weight)),
                    ("param_weight", Json::num(lw.param_weight)),
                ]),
            ));
        }
        Json::obj(pairs)
    }

    /// The canonical netlist form the content hash is computed over:
    /// comments and blank lines stripped, `+` continuations merged,
    /// whitespace runs collapsed — but **card order preserved**, because
    /// reordering cards renumbers the component catalog and therefore
    /// every defect index; that is a semantically different DUT.
    pub fn canonical_netlist(&self) -> String {
        canonical_netlist(&self.netlist)
    }

    /// Stable FNV-1a content hash over the canonical form of every field
    /// that affects campaign behavior. Two uploads with equal hashes run
    /// byte-identical campaigns, so lint reports and calibrations are
    /// cached per hash ("upload once, lint once, run many"). `tenant`
    /// deliberately does not participate: identity is defined by what the
    /// DUT *is*, not who uploaded it.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.eat(b"name\x1f");
        h.eat(self.name.as_bytes());
        h.eat(b"\x1fnetlist\x1f");
        h.eat(self.canonical_netlist().as_bytes());
        for inv in &self.invariances {
            h.eat(b"\x1finv\x1f");
            h.eat(inv.name.as_bytes());
            h.eat(b"\x1f");
            h.eat(inv.a.as_bytes());
            h.eat(b"\x1f");
            h.eat(inv.b.as_bytes());
            match inv.kind {
                InvarianceKind::Complementary { alpha } => {
                    h.eat(b"\x1fcomplementary\x1f");
                    h.eat(&alpha.to_bits().to_le_bytes());
                }
                InvarianceKind::Replica => h.eat(b"\x1freplica"),
            }
        }
        let cal = &self.calibration;
        h.eat(b"\x1fcal\x1f");
        h.eat(&cal.k.to_bits().to_le_bytes());
        h.eat(&(cal.samples as u64).to_le_bytes());
        h.eat(&cal.seed.to_le_bytes());
        h.eat(&cal.resistor_sigma.to_bits().to_le_bytes());
        h.eat(&cal.capacitor_sigma.to_bits().to_le_bytes());
        h.eat(&cal.vth_sigma.to_bits().to_le_bytes());
        if let Some(lw) = &self.likelihood {
            h.eat(b"\x1flw\x1f");
            h.eat(&lw.short_weight.to_bits().to_le_bytes());
            h.eat(&lw.open_weight.to_bits().to_le_bytes());
            h.eat(&lw.param_weight.to_bits().to_le_bytes());
        }
        h.finish()
    }

    /// The content hash as the registry's 16-hex-digit DUT id.
    pub fn id(&self) -> String {
        format!("{:016x}", self.content_hash())
    }
}

fn name_byte_ok(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-')
}

fn req_string(json: &Json, key: &str) -> Result<String, DutSpecError> {
    json.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| DutSpecError(format!("\"{key}\" must be a string and is required")))
}

fn parse_invariance(json: &Json) -> Result<InvarianceSpec, DutSpecError> {
    let Json::Obj(map) = json else {
        return Err(DutSpecError("each invariance must be a JSON object".into()));
    };
    let unknown = Json::unknown_keys(map, &["name", "kind", "a", "b", "alpha"]);
    if !unknown.is_empty() {
        return Err(DutSpecError(format!(
            "unknown invariance field(s): {}",
            unknown.join(", ")
        )));
    }
    let name = req_string(json, "name")?;
    let a = req_string(json, "a")?;
    let b = req_string(json, "b")?;
    let kind_label = req_string(json, "kind")?;
    let kind = match kind_label.as_str() {
        "complementary" => {
            let alpha = json
                .get("alpha")
                .and_then(Json::as_f64)
                .filter(|v| v.is_finite())
                .ok_or_else(|| {
                    DutSpecError(format!(
                        "invariance \"{name}\": complementary needs a finite \"alpha\""
                    ))
                })?;
            InvarianceKind::Complementary { alpha }
        }
        "replica" => {
            if json.get("alpha").is_some() {
                return Err(DutSpecError(format!(
                    "invariance \"{name}\": replica takes no \"alpha\""
                )));
            }
            InvarianceKind::Replica
        }
        other => {
            return Err(DutSpecError(format!(
                "invariance \"{name}\": unknown kind \"{other}\" (want complementary/replica)"
            )))
        }
    };
    Ok(InvarianceSpec { name, a, b, kind })
}

fn parse_calibration(json: &Json) -> Result<CalibrationSpec, DutSpecError> {
    let Json::Obj(map) = json else {
        return Err(DutSpecError("\"calibration\" must be a JSON object".into()));
    };
    let unknown = Json::unknown_keys(
        map,
        &[
            "k",
            "samples",
            "seed",
            "resistor_sigma",
            "capacitor_sigma",
            "vth_sigma",
        ],
    );
    if !unknown.is_empty() {
        return Err(DutSpecError(format!(
            "unknown calibration field(s): {}",
            unknown.join(", ")
        )));
    }
    let defaults = CalibrationSpec::default();
    let k = opt_f64(json, "k")?.unwrap_or(defaults.k);
    if !k.is_finite() || k <= 0.0 {
        return Err(DutSpecError(format!(
            "calibration \"k\" must be finite and > 0, got {k}"
        )));
    }
    let samples = match json.get("samples") {
        None | Some(Json::Null) => defaults.samples,
        Some(v) => v
            .as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .filter(|n| (2..=MAX_CALIBRATION_SAMPLES).contains(n))
            .ok_or_else(|| {
                DutSpecError(format!(
                    "calibration \"samples\" must be an integer from 2 to \
                     {MAX_CALIBRATION_SAMPLES}"
                ))
            })?,
    };
    let seed = match json.get("seed") {
        None | Some(Json::Null) => defaults.seed,
        Some(v) => v.as_u64().ok_or_else(|| {
            DutSpecError("calibration \"seed\" must be a non-negative integer".into())
        })?,
    };
    let mut sigmas = [
        defaults.resistor_sigma,
        defaults.capacitor_sigma,
        defaults.vth_sigma,
    ];
    for (i, key) in ["resistor_sigma", "capacitor_sigma", "vth_sigma"]
        .iter()
        .enumerate()
    {
        if let Some(v) = opt_f64(json, key)? {
            if !v.is_finite() || v < 0.0 {
                return Err(DutSpecError(format!(
                    "calibration \"{key}\" must be finite and >= 0, got {v}"
                )));
            }
            sigmas[i] = v;
        }
    }
    Ok(CalibrationSpec {
        k,
        samples,
        seed,
        resistor_sigma: sigmas[0],
        capacitor_sigma: sigmas[1],
        vth_sigma: sigmas[2],
    })
}

fn parse_likelihood(json: &Json) -> Result<LikelihoodSpec, DutSpecError> {
    let Json::Obj(map) = json else {
        return Err(DutSpecError("\"likelihood\" must be a JSON object".into()));
    };
    let unknown = Json::unknown_keys(map, &["short_weight", "open_weight", "param_weight"]);
    if !unknown.is_empty() {
        return Err(DutSpecError(format!(
            "unknown likelihood field(s): {}",
            unknown.join(", ")
        )));
    }
    let mut weights = [3.0, 1.0, 0.5];
    for (i, key) in ["short_weight", "open_weight", "param_weight"]
        .iter()
        .enumerate()
    {
        if let Some(v) = opt_f64(json, key)? {
            if !v.is_finite() || v < 0.0 {
                return Err(DutSpecError(format!(
                    "likelihood \"{key}\" must be finite and >= 0, got {v}"
                )));
            }
            weights[i] = v;
        }
    }
    if weights.iter().all(|w| *w == 0.0) {
        return Err(DutSpecError(
            "at least one likelihood weight must be positive".into(),
        ));
    }
    Ok(LikelihoodSpec {
        short_weight: weights[0],
        open_weight: weights[1],
        param_weight: weights[2],
    })
}

fn opt_f64(json: &Json, key: &str) -> Result<Option<f64>, DutSpecError> {
    match json.get(key) {
        None => Ok(None),
        Some(v) if v.is_null() => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| DutSpecError(format!("\"{key}\" must be a number"))),
    }
}

/// Canonicalizes netlist text for hashing: per logical line, whitespace
/// runs collapse to one space; `;`-suffix and `*` comment lines and blank
/// lines vanish; `+` continuations merge into their card. Card order and
/// token spelling are preserved.
fn canonical_netlist(source: &str) -> String {
    let mut logical: Vec<String> = Vec::new();
    for raw in source.lines() {
        let line = raw.split(';').next().unwrap_or("");
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('*') {
            continue;
        }
        if let Some(cont) = trimmed.strip_prefix('+') {
            let joined = cont.split_whitespace().collect::<Vec<_>>().join(" ");
            match logical.last_mut() {
                Some(prev) => {
                    prev.push(' ');
                    prev.push_str(&joined);
                }
                // A leading continuation is a parse error downstream;
                // keep it in the canonical form so the hash still covers
                // the (rejected) content.
                None => logical.push(format!("+ {joined}")),
            }
        } else {
            logical.push(trimmed.split_whitespace().collect::<Vec<_>>().join(" "));
        }
    }
    logical.join("\n")
}

/// FNV-1a, 64-bit. Stable across platforms and releases — the hash is a
/// persistence key, so it must never depend on `std::hash` internals.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_text() -> String {
        r#"{
            "name": "demo",
            "netlist": "V1 vref 0 1.2\nR1 vref outp 1k\nR2 outp 0 1k\nR3 vref outn 1k\nR4 outn 0 1k",
            "invariances": [
                {"name": "sum", "kind": "complementary", "a": "outp", "b": "outn", "alpha": 1.2}
            ]
        }"#
        .to_string()
    }

    #[test]
    fn minimal_spec_parses_with_defaults() {
        let spec = DutSpec::from_json_text(&demo_text()).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.tenant, "default");
        assert_eq!(spec.calibration, CalibrationSpec::default());
        assert!(spec.likelihood.is_none());
        assert_eq!(spec.invariances.len(), 1);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let mut spec = DutSpec::from_json_text(&demo_text()).unwrap();
        spec.tenant = "lab-a".into();
        spec.likelihood = Some(LikelihoodSpec {
            short_weight: 2.0,
            open_weight: 1.0,
            param_weight: 0.25,
        });
        spec.invariances.push(InvarianceSpec {
            name: "rep".into(),
            a: "outp".into(),
            b: "outn".into(),
            kind: InvarianceKind::Replica,
        });
        let back = DutSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.content_hash(), spec.content_hash());
    }

    #[test]
    fn unknown_fields_listed_in_error() {
        let err = DutSpec::from_json_text(
            r#"{"name": "x", "netlst": "R1 a 0 1", "invariance": [], "netlist": "R1 a 0 1"}"#,
        )
        .unwrap_err();
        assert!(err.0.contains("netlst"), "{err}");
        assert!(err.0.contains("invariance"), "{err}");
    }

    #[test]
    fn bad_specs_are_rejected() {
        for (label, text) in [
            (
                "no invariances",
                r#"{"name":"x","netlist":"R1 a 0 1","invariances":[]}"#,
            ),
            (
                "bad name",
                r#"{"name":"a b","netlist":"R1 a 0 1","invariances":[{"name":"i","kind":"replica","a":"a","b":"a"}]}"#,
            ),
            (
                "empty netlist",
                r#"{"name":"x","netlist":"  ","invariances":[{"name":"i","kind":"replica","a":"a","b":"a"}]}"#,
            ),
            (
                "alpha on replica",
                r#"{"name":"x","netlist":"R1 a 0 1","invariances":[{"name":"i","kind":"replica","a":"a","b":"a","alpha":1.0}]}"#,
            ),
            (
                "missing alpha",
                r#"{"name":"x","netlist":"R1 a 0 1","invariances":[{"name":"i","kind":"complementary","a":"a","b":"a"}]}"#,
            ),
            (
                "bad kind",
                r#"{"name":"x","netlist":"R1 a 0 1","invariances":[{"name":"i","kind":"mirror","a":"a","b":"a"}]}"#,
            ),
            (
                "bad k",
                r#"{"name":"x","netlist":"R1 a 0 1","invariances":[{"name":"i","kind":"replica","a":"a","b":"a"}],"calibration":{"k":0}}"#,
            ),
            (
                "one sample",
                r#"{"name":"x","netlist":"R1 a 0 1","invariances":[{"name":"i","kind":"replica","a":"a","b":"a"}],"calibration":{"samples":1}}"#,
            ),
            (
                "a trillion samples",
                r#"{"name":"x","netlist":"R1 a 0 1","invariances":[{"name":"i","kind":"replica","a":"a","b":"a"}],"calibration":{"samples":1000000000000}}"#,
            ),
            (
                "all-zero weights",
                r#"{"name":"x","netlist":"R1 a 0 1","invariances":[{"name":"i","kind":"replica","a":"a","b":"a"}],"likelihood":{"short_weight":0,"open_weight":0,"param_weight":0}}"#,
            ),
        ] {
            assert!(DutSpec::from_json_text(text).is_err(), "accepted: {label}");
        }
    }

    #[test]
    fn calibration_samples_are_bounded() {
        let with_samples = |n: usize| {
            DutSpec::from_json_text(&format!(
                r#"{{"name":"x","netlist":"R1 a 0 1","invariances":[{{"name":"i","kind":"replica","a":"a","b":"a"}}],"calibration":{{"samples":{n}}}}}"#
            ))
        };
        let at = with_samples(MAX_CALIBRATION_SAMPLES).unwrap();
        assert_eq!(at.calibration.samples, MAX_CALIBRATION_SAMPLES);
        let err = with_samples(MAX_CALIBRATION_SAMPLES + 1).unwrap_err();
        assert!(
            err.0.contains(&MAX_CALIBRATION_SAMPLES.to_string()),
            "{err}"
        );
    }

    #[test]
    fn hash_ignores_formatting_but_not_order() {
        let base = DutSpec::from_json_text(&demo_text()).unwrap();
        // Comments, indentation, blank lines, continuations: same content.
        let mut cosmetic = base.clone();
        cosmetic.netlist = "* header comment\n\n  V1 vref 0\n  +   1.2\nR1  vref\toutp 1k ; tail\nR2 outp 0 1k\nR3 vref outn 1k\nR4 outn 0 1k\n".into();
        assert_eq!(cosmetic.content_hash(), base.content_hash());
        // Reordered cards renumber the defect catalog: distinct content.
        let mut reordered = base.clone();
        reordered.netlist =
            "V1 vref 0 1.2\nR2 outp 0 1k\nR1 vref outp 1k\nR3 vref outn 1k\nR4 outn 0 1k".into();
        assert_ne!(reordered.content_hash(), base.content_hash());
        // A different calibration seed calibrates different windows.
        let mut reseeded = base.clone();
        reseeded.calibration.seed ^= 1;
        assert_ne!(reseeded.content_hash(), base.content_hash());
        // Tenant is ownership metadata, not content.
        let mut other_tenant = base.clone();
        other_tenant.tenant = "lab-b".into();
        assert_eq!(other_tenant.content_hash(), base.content_hash());
    }

    #[test]
    fn id_is_sixteen_hex_digits() {
        let spec = DutSpec::from_json_text(&demo_text()).unwrap();
        let id = spec.id();
        assert_eq!(id.len(), 16);
        assert!(id.bytes().all(|b| b.is_ascii_hexdigit()));
    }
}
