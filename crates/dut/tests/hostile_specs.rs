//! Seeded hostile DUT-spec corpus at the parser: mutated uploads through
//! `DutSpec::from_json_text`, as `POST /v1/duts` parses them.
//!
//! Two valid specs (a cap array and a bridge carrying every optional
//! field) are mutated with `support/spec_mutator.rs`. Every mutant must
//! parse or fail with a `DutSpecError`; a panic fails the test with the
//! seed and the body. An accepted spec must ask for at most
//! `MAX_CALIBRATION_SAMPLES` samples, round-trip through `to_json` and
//! hash. Nothing here calibrates or runs a campaign.
#![allow(clippy::unwrap_used)] // integration tests assert by panicking

#[path = "support/spec_mutator.rs"]
mod spec_mutator;

use std::panic::{catch_unwind, AssertUnwindSafe};

use symbist_dut::{CapArrayConfig, DutSpec, Json, MAX_CALIBRATION_SAMPLES};

/// Mutants per valid spec.
const MUTANTS: u64 = 1500;

/// Every field name a DUT spec knows, at any level.
const KEYS: &[&str] = &[
    "name",
    "tenant",
    "netlist",
    "invariances",
    "calibration",
    "likelihood",
    "kind",
    "a",
    "b",
    "alpha",
    "k",
    "samples",
    "seed",
    "resistor_sigma",
    "capacitor_sigma",
    "vth_sigma",
    "short_weight",
    "open_weight",
    "param_weight",
];

const BRIDGE: &str = r#"{"name":"bridge","tenant":"lab-a",
 "netlist":"VDD vdd 0 1.0\nRP1 vdd p 10k\nRP2 p 0 10k\nRN1 vdd n 10k\nRN2 n 0 10k\n",
 "invariances":[{"name":"fd-sum","a":"p","b":"n","kind":"complementary","alpha":1.0},
                {"name":"twin","a":"p","b":"n","kind":"replica"}],
 "calibration":{"k":4.0,"samples":8,"seed":3,"resistor_sigma":0.01,
                "capacitor_sigma":0.0,"vth_sigma":0.002},
 "likelihood":{"short_weight":3.0,"open_weight":1.0,"param_weight":0.5}}"#;

#[test]
fn hostile_dut_specs_get_typed_errors_and_stay_bounded() {
    let valid = [
        CapArrayConfig::binary(4).dut_spec().to_json(),
        Json::parse(BRIDGE).unwrap(),
    ];
    let (mut accepted, mut rejected) = (0, 0);
    let mut panics = Vec::new();
    for (i, doc) in valid.iter().enumerate() {
        DutSpec::from_json(doc).expect("the seed spec is valid");
        for seed in 0..MUTANTS {
            let seed = seed + i as u64 * MUTANTS;
            let body = spec_mutator::mutant(seed, doc, KEYS);
            let outcome = catch_unwind(AssertUnwindSafe(|| match DutSpec::from_json_text(&body) {
                Ok(spec) => {
                    assert!(
                        (2..=MAX_CALIBRATION_SAMPLES).contains(&spec.calibration.samples),
                        "accepted {} samples",
                        spec.calibration.samples
                    );
                    assert_eq!(DutSpec::from_json(&spec.to_json()).as_ref(), Ok(&spec));
                    assert_eq!(spec.id().len(), 16);
                    true
                }
                Err(e) => {
                    assert!(!e.0.is_empty());
                    false
                }
            }));
            match outcome {
                Ok(true) => accepted += 1,
                Ok(false) => rejected += 1,
                Err(_) => panics.push((seed, body)),
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} mutant(s) panicked, first: seed {} body {:.300}",
        panics.len(),
        panics[0].0,
        panics[0].1
    );
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
    eprintln!("hostile DUT specs: {accepted} accepted, {rejected} rejected");
}
