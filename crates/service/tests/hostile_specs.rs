//! Seeded hostile job-spec corpus at the parser and `validate`: mutated
//! bodies through `JobSpec::from_json_text` and the backend check that
//! `POST /v1/jobs` runs before it queues a job.
//!
//! Two valid specs (the default and one carrying every field) are mutated
//! with the DUT corpus's `spec_mutator.rs`. Every mutant must parse or
//! fail with a `SpecError`, then validate or fail with one, against a
//! registry-backed synthetic backend; a panic fails the test with the seed
//! and the body. An accepted spec must ask for at most `MAX_THREADS`
//! threads and round-trip through `to_json`. Nothing here starts a
//! campaign.
#![allow(clippy::unwrap_used)] // integration tests assert by panicking

#[path = "../../dut/tests/support/spec_mutator.rs"]
mod spec_mutator;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use symbist_dut::{DutRegistry, DutRegistryConfig};
use symbist_service::backend::{CampaignBackend, SyntheticBackend};
use symbist_service::dut_backend::GenericBackend;
use symbist_service::spec::{JobSpec, MAX_THREADS};

/// Mutants per valid spec.
const MUTANTS: u64 = 1500;

/// Every field name a job spec knows.
const KEYS: &[&str] = &[
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

#[test]
fn hostile_job_specs_get_typed_errors_and_stay_bounded() {
    let registry = DutRegistry::open(DutRegistryConfig {
        dir: None,
        max_per_tenant: 4,
    })
    .unwrap();
    let backend = GenericBackend::new(Arc::new(SyntheticBackend::new(40)), Arc::new(registry));
    let full = JobSpec {
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
        dut: None,
    };
    let valid = [JobSpec::default().to_json(), full.to_json()];
    let (mut parsed, mut validated, mut rejected) = (0, 0, 0);
    let mut panics = Vec::new();
    for (i, doc) in valid.iter().enumerate() {
        JobSpec::from_json(doc).expect("the seed spec is valid");
        for seed in 0..MUTANTS {
            let seed = seed + i as u64 * MUTANTS;
            let body = spec_mutator::mutant(seed, doc, KEYS);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let spec = match JobSpec::from_json_text(&body) {
                    Ok(spec) => spec,
                    Err(e) => {
                        assert!(!e.0.is_empty());
                        return None;
                    }
                };
                assert!(
                    (1..=MAX_THREADS).contains(&spec.threads),
                    "accepted {} threads",
                    spec.threads
                );
                assert_eq!(JobSpec::from_json(&spec.to_json()).as_ref(), Ok(&spec));
                Some(
                    backend
                        .validate(&spec)
                        .map_err(|e| assert!(!e.0.is_empty())),
                )
            }));
            match outcome {
                Ok(None) => rejected += 1,
                Ok(Some(Ok(()))) => validated += 1,
                Ok(Some(Err(()))) => parsed += 1,
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
        validated > 0 && parsed > 0 && rejected > 0,
        "{validated} validated, {parsed} parsed but invalid, {rejected} rejected"
    );
    eprintln!(
        "hostile job specs: {validated} validated, {parsed} parsed but invalid, {rejected} rejected"
    );
}
