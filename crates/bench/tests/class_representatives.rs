//! Proves class extrapolation on the shipped ADC against an exhaustive
//! campaign over the full Table-I universe: every member of every
//! (orbit × defect kind) class must get the verdict of its class's lowest
//! member, and the class-representative campaign must reproduce the
//! exhaustive L-W coverage while simulating measurably fewer defects.

use symbist::experiments::ExperimentConfig;
use symbist_adc::SarAdc;
use symbist_defects::{
    run_campaign, run_class_campaign, CampaignOptions, ClassCampaignOptions, DefectUniverse,
    LikelihoodModel,
};
use symbist_lint::analyze_adc_with_universe;

#[test]
fn class_representatives_agree_with_exhaustive_campaign() {
    let xc = ExperimentConfig::default();
    let engine = xc.build_engine();
    let adc = SarAdc::new(xc.adc.clone());
    let universe = DefectUniverse::enumerate(&adc, &LikelihoodModel::default());
    let analysis = analyze_adc_with_universe(&adc, &universe);
    assert!(
        !analysis.diagnostics.has_errors(),
        "{}",
        analysis.diagnostics.render_text()
    );
    let partition = analysis.partition();

    let exhaustive = run_campaign(
        &adc,
        &universe,
        &CampaignOptions {
            seed: xc.seed,
            threads: xc.threads,
            ..Default::default()
        },
        |dut| engine.campaign_test(dut),
    )
    .expect("exhaustive campaign is well-formed");
    assert_eq!(exhaustive.simulated(), universe.len());

    // The 100 % audit: a verdict is "detected", "escaped" or "unresolved"
    // (`None`), and it must be constant over every class.
    let mut verdict = vec![None; universe.len()];
    for r in &exhaustive.records {
        verdict[r.defect_index] = Some(r.outcome.completed().map(|o| o.detected));
    }
    assert!(verdict.iter().all(Option::is_some), "a defect went unrun");
    let disagreements: Vec<(usize, usize)> = partition
        .iter()
        .flat_map(|class| {
            let lowest = class.iter().copied().min().expect("classes are non-empty");
            let verdict = &verdict;
            class
                .iter()
                .filter(move |&&d| verdict[d] != verdict[lowest])
                .map(move |&d| (lowest, d))
        })
        .collect();
    assert!(
        disagreements.is_empty(),
        "{} (lowest member, disagreeing member) pairs: {disagreements:?}",
        disagreements.len()
    );

    let class = run_class_campaign(
        &adc,
        &universe,
        &partition,
        &ClassCampaignOptions {
            seed: xc.seed,
            threads: xc.threads,
            ..Default::default()
        },
        |dut| engine.campaign_test(dut),
    )
    .expect("analyzer partition is an exact cover");

    // The representative campaign must be measurably cheaper...
    assert!(
        class.simulated < universe.len(),
        "simulated {} of {} — no savings",
        class.simulated,
        universe.len()
    );
    assert!(class.defects_saved() > 0);
    // ...the sibling audit must not refute any class...
    assert_eq!(
        class.violation_count(),
        0,
        "violations: {:?}",
        class.violations().collect::<Vec<_>>()
    );
    // ...and the extrapolated coverage must agree with the exhaustive
    // figure. Both campaigns completed (or not) the same defect families,
    // so compare lower bounds against lower bounds.
    let lo = class.coverage().value;
    let xlo = exhaustive.coverage().value;
    assert!(
        (lo - xlo).abs() < 0.05,
        "extrapolated {lo} vs exhaustive {xlo}"
    );
    let hi = class.coverage_upper().value;
    let xhi = exhaustive.coverage_upper().value;
    assert!(
        (hi - xhi).abs() < 0.05,
        "extrapolated upper {hi} vs exhaustive upper {xhi}"
    );
}
