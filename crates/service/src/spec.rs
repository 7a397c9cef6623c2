//! The campaign job spec: what `POST /jobs` accepts.
//!
//! A spec is a flat JSON object selecting a defect population and the
//! campaign knobs the paper's evaluation flow exposes:
//!
//! ```json
//! {"block": "SC Array", "sample_size": 40, "seed": 7,
//!  "threads": 2, "newton_budget": 200000, "deadline_ms": 5000,
//!  "schedule": "sequential", "tag": "nightly"}
//! ```
//!
//! Every field is optional except that the sampled/exhaustive choice must
//! be valid against the backend's universe (checked at submit time so a
//! bad spec is a `400`, not a failed job).

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use symbist_defects::CampaignOptions;
use symbist_dut::Json;

/// The most campaign threads one job may ask for. A campaign spawns that
/// many scoped OS threads (at most one per selected defect), so a larger
/// value is rejected (`400`) at submit time. It is a fixed number, not the
/// host's core count, so every `coord` worker accepts the same specs.
pub const MAX_THREADS: usize = 64;

/// A validated campaign job specification.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Restrict the campaign to one block (a Table-I row label, e.g.
    /// `"SC Array"`). `None` runs the whole universe.
    pub block: Option<String>,
    /// LWRS sample size; `None` simulates the selected universe
    /// exhaustively.
    pub sample_size: Option<usize>,
    /// RNG seed for the LWRS draw.
    pub seed: u64,
    /// Worker threads *within* this job's campaign. Defaults to 1: the
    /// service's worker pool is the primary parallelism axis, so a single
    /// job does not hog every core. At most [`MAX_THREADS`].
    pub threads: usize,
    /// Per-defect Newton iteration budget (deterministic timeout).
    pub newton_budget: Option<u64>,
    /// Per-defect wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Comparator schedule label (`"sequential"` / `"parallel"`); backend
    /// specific, validated at submit time.
    pub schedule: Option<String>,
    /// Inclusive lower catalog index of the shard this job covers (the
    /// coordinator's range-sharding knob). `None` = 0.
    pub index_lo: Option<usize>,
    /// Exclusive upper catalog index of the shard. `None` = universe size.
    pub index_hi: Option<usize>,
    /// Free-form label echoed back in status responses.
    pub tag: Option<String>,
    /// Which DUT to campaign over: a registered DUT's content id or name,
    /// or `"sar-adc"` for the baked-in ADC. `None` selects the baked-in
    /// DUT (backward compatible with every pre-registry spec).
    pub dut: Option<String>,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            block: None,
            sample_size: None,
            seed: 0x5EED,
            threads: 1,
            newton_budget: None,
            deadline_ms: None,
            schedule: None,
            index_lo: None,
            index_hi: None,
            tag: None,
            dut: None,
        }
    }
}

/// Why a spec was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

impl JobSpec {
    /// Parses a spec from a JSON document, rejecting unknown fields (a
    /// typo'd knob silently ignored would run the wrong campaign).
    pub fn from_json(json: &Json) -> Result<JobSpec, SpecError> {
        let Json::Obj(map) = json else {
            return Err(SpecError("job spec must be a JSON object".into()));
        };
        const KNOWN: [&str; 11] = [
            "block",
            "sample_size",
            "seed",
            "threads",
            "newton_budget",
            "deadline_ms",
            "schedule",
            "index_lo",
            "index_hi",
            "tag",
            "dut",
        ];
        let unknown = Json::unknown_keys(map, &KNOWN);
        if !unknown.is_empty() {
            // Every offending key in one 400, so a client fixing typos
            // fixes them all in one round trip.
            return Err(SpecError(format!(
                "unknown spec field(s): {}",
                unknown.join(", ")
            )));
        }
        let defaults = JobSpec::default();
        let threads = match opt_u64(json, "threads")? {
            Some(n) if (1..=MAX_THREADS as u64).contains(&n) => n as usize,
            Some(_) => {
                return Err(SpecError(format!(
                    "\"threads\" must be from 1 to {MAX_THREADS}"
                )))
            }
            None => defaults.threads,
        };
        let sample_size = opt_u64(json, "sample_size")?.map(|n| n as usize);
        if sample_size == Some(0) {
            return Err(SpecError("\"sample_size\" must be nonzero".into()));
        }
        let index_lo = opt_u64(json, "index_lo")?.map(|n| n as usize);
        let index_hi = opt_u64(json, "index_hi")?.map(|n| n as usize);
        if let (Some(lo), Some(hi)) = (index_lo, index_hi) {
            if lo >= hi {
                return Err(SpecError(format!(
                    "\"index_lo\" ({lo}) must be below \"index_hi\" ({hi})"
                )));
            }
        }
        Ok(JobSpec {
            block: opt_string(json, "block")?,
            sample_size,
            seed: opt_u64(json, "seed")?.unwrap_or(defaults.seed),
            threads,
            newton_budget: opt_u64(json, "newton_budget")?,
            deadline_ms: opt_u64(json, "deadline_ms")?,
            schedule: opt_string(json, "schedule")?,
            index_lo,
            index_hi,
            tag: opt_string(json, "tag")?,
            dut: opt_string(json, "dut")?,
        })
    }

    /// Parses a spec from raw JSON text.
    pub fn from_json_text(text: &str) -> Result<JobSpec, SpecError> {
        let json = Json::parse(text).map_err(|e| SpecError(e.to_string()))?;
        Self::from_json(&json)
    }

    /// Serializes the spec back to JSON (round-trips through
    /// [`from_json`](Self::from_json); used by job persistence and the
    /// client).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&'static str, Json)> = vec![
            ("seed", Json::num(self.seed as f64)),
            ("threads", Json::num(self.threads as f64)),
        ];
        if let Some(block) = &self.block {
            pairs.push(("block", Json::str(block.clone())));
        }
        if let Some(n) = self.sample_size {
            pairs.push(("sample_size", Json::num(n as f64)));
        }
        if let Some(n) = self.newton_budget {
            pairs.push(("newton_budget", Json::num(n as f64)));
        }
        if let Some(n) = self.deadline_ms {
            pairs.push(("deadline_ms", Json::num(n as f64)));
        }
        if let Some(s) = &self.schedule {
            pairs.push(("schedule", Json::str(s.clone())));
        }
        if let Some(n) = self.index_lo {
            pairs.push(("index_lo", Json::num(n as f64)));
        }
        if let Some(n) = self.index_hi {
            pairs.push(("index_hi", Json::num(n as f64)));
        }
        if let Some(t) = &self.tag {
            pairs.push(("tag", Json::str(t.clone())));
        }
        if let Some(d) = &self.dut {
            pairs.push(("dut", Json::str(d.clone())));
        }
        Json::obj(pairs)
    }

    /// Builds the [`CampaignOptions`] this spec describes, wiring in the
    /// job's checkpoint path so cancellation/drain loses no work.
    /// `universe_len` resolves an open-ended shard range (`index_lo`
    /// without `index_hi`) against the universe the job runs over.
    pub fn campaign_options(
        &self,
        checkpoint: Option<PathBuf>,
        universe_len: usize,
    ) -> CampaignOptions {
        let index_range = match (self.index_lo, self.index_hi) {
            (None, None) => None,
            (lo, hi) => Some((lo.unwrap_or(0), hi.unwrap_or(universe_len))),
        };
        CampaignOptions {
            sample_size: self.sample_size,
            seed: self.seed,
            threads: self.threads,
            defect_deadline: self.deadline_ms.map(Duration::from_millis),
            newton_budget: self.newton_budget,
            index_range,
            checkpoint,
        }
    }
}

fn opt_string(json: &Json, key: &str) -> Result<Option<String>, SpecError> {
    match json.get(key) {
        None => Ok(None),
        Some(v) if v.is_null() => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(SpecError(format!("\"{key}\" must be a string"))),
    }
}

fn opt_u64(json: &Json, key: &str) -> Result<Option<u64>, SpecError> {
    match json.get(key) {
        None => Ok(None),
        Some(v) if v.is_null() => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| SpecError(format!("\"{key}\" must be a non-negative integer"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_round_trips() {
        let spec = JobSpec::default();
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn full_spec_round_trips() {
        let spec = JobSpec {
            block: Some("SC Array".into()),
            sample_size: Some(40),
            seed: 7,
            threads: 2,
            newton_budget: Some(200_000),
            deadline_ms: Some(5_000),
            schedule: Some("parallel".into()),
            index_lo: Some(10),
            index_hi: Some(90),
            tag: Some("nightly".into()),
            dut: Some("cap-array-b8-r1.8".into()),
        };
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err = JobSpec::from_json_text(r#"{"smaple_size": 40}"#).unwrap_err();
        assert!(err.0.contains("smaple_size"), "{err}");
    }

    #[test]
    fn all_unknown_fields_are_listed_at_once() {
        let err =
            JobSpec::from_json_text(r#"{"smaple_size": 40, "sede": 7, "threads": 2}"#).unwrap_err();
        assert!(err.0.contains("smaple_size"), "{err}");
        assert!(err.0.contains("sede"), "{err}");
        assert!(!err.0.contains("threads"), "{err}");
    }

    #[test]
    fn bad_types_are_rejected() {
        for bad in [
            r#"{"sample_size": "forty"}"#,
            r#"{"block": 3}"#,
            r#"{"threads": 0}"#,
            r#"{"threads": 100000}"#,
            r#"{"sample_size": 0}"#,
            r#"{"seed": -1}"#,
            r#"[1,2]"#,
        ] {
            assert!(JobSpec::from_json_text(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn threads_are_bounded_by_a_fixed_constant() {
        let at = format!(r#"{{"threads": {MAX_THREADS}}}"#);
        assert_eq!(JobSpec::from_json_text(&at).unwrap().threads, MAX_THREADS);
        let over = format!(r#"{{"threads": {}}}"#, MAX_THREADS + 1);
        let err = JobSpec::from_json_text(&over).unwrap_err();
        assert!(err.0.contains(&MAX_THREADS.to_string()), "{err}");
    }

    #[test]
    fn campaign_options_map_fields() {
        let spec = JobSpec {
            sample_size: Some(12),
            seed: 9,
            threads: 3,
            newton_budget: Some(100),
            deadline_ms: Some(250),
            ..Default::default()
        };
        let opts = spec.campaign_options(Some(PathBuf::from("/tmp/x.jsonl")), 100);
        assert_eq!(opts.sample_size, Some(12));
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.threads, 3);
        assert_eq!(opts.newton_budget, Some(100));
        assert_eq!(opts.defect_deadline, Some(Duration::from_millis(250)));
        assert_eq!(opts.index_range, None);
        assert_eq!(
            opts.checkpoint.as_deref(),
            Some(std::path::Path::new("/tmp/x.jsonl"))
        );
    }

    #[test]
    fn shard_range_round_trips_and_validates() {
        let spec = JobSpec {
            index_lo: Some(10),
            index_hi: Some(20),
            ..Default::default()
        };
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(spec.campaign_options(None, 100).index_range, Some((10, 20)));
        // Open-ended ranges resolve against the universe size.
        let lo_only = JobSpec {
            index_lo: Some(10),
            ..Default::default()
        };
        assert_eq!(
            lo_only.campaign_options(None, 100).index_range,
            Some((10, 100))
        );
        // Inverted ranges are a parse error, not a failed job.
        assert!(JobSpec::from_json_text(r#"{"index_lo": 5, "index_hi": 5}"#).is_err());
    }
}
