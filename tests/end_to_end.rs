//! Cross-crate integration: the full SymBIST pipeline from calibration
//! through defect campaign, exercising every workspace crate together.

use symbist_repro::adc::fault::{DefectKind, DefectSite, Faultable};
use symbist_repro::adc::{AdcConfig, BlockKind, SarAdc};
use symbist_repro::bist::calibrate::Calibration;
use symbist_repro::bist::invariance::InvarianceId;
use symbist_repro::bist::session::{Schedule, SymBist};
use symbist_repro::bist::stimulus::StimulusSpec;
use symbist_repro::circuit::CircuitError;
use symbist_repro::defects::{run_campaign, CampaignOptions, DefectUniverse, LikelihoodModel};

fn engine() -> SymBist {
    let cfg = AdcConfig::default();
    let stimulus = StimulusSpec::default();
    let cal = Calibration::run(&cfg, &stimulus, 8, 5.0, 2024);
    SymBist::new(cal, stimulus, Schedule::Sequential)
}

#[test]
fn healthy_device_passes_and_runs_full_length() -> Result<(), CircuitError> {
    let bist = engine();
    let adc = SarAdc::new(AdcConfig::default());
    let result = bist.try_run(&adc, true)?;
    assert!(
        result.pass,
        "healthy DUT flagged: {:?}",
        result.first_detection()
    );
    assert_eq!(result.cycles_run, 192);
    Ok(())
}

#[test]
fn every_block_has_at_least_one_detectable_defect() {
    // SymBIST covers all A/M-S blocks (paper §IV-3) — though with very
    // different L-W coverage; here we only require nonzero absolute
    // coverage per block except the reference buffer, whose faults are
    // architecturally invisible (every tap rescales coherently).
    let bist = engine();
    let adc = SarAdc::new(AdcConfig::default());
    let universe = DefectUniverse::enumerate(&adc, &LikelihoodModel::default());
    for block in BlockKind::ALL {
        if block == BlockKind::ReferenceBuffer {
            continue;
        }
        let sub = universe.filter_block(block);
        let detected = sub.iter().take(40).any(|d| {
            let mut dut = adc.clone();
            dut.inject(d.site);
            !bist.try_run(&dut, true).expect("BIST run simulates").pass
        });
        assert!(detected, "no detectable defect found in {block}");
    }
}

#[test]
fn no_defect_makes_the_pipeline_panic() -> Result<(), CircuitError> {
    // Failure injection: every defect class on a sample of sites across
    // all blocks must produce a verdict, never a crash.
    let bist = engine();
    let adc = SarAdc::new(AdcConfig::default());
    let universe = DefectUniverse::enumerate(&adc, &LikelihoodModel::default());
    let stride = universe.len() / 60;
    for d in universe.iter().step_by(stride.max(1)) {
        let mut dut = adc.clone();
        dut.inject(d.site);
        bist.try_run(&dut, true)?;
    }
    Ok(())
}

#[test]
fn campaign_pipeline_smoke() {
    let bist = engine();
    let adc = SarAdc::new(AdcConfig::default());
    let universe = DefectUniverse::enumerate(&adc, &LikelihoodModel::default())
        .filter_block(BlockKind::VcmGenerator);
    let res = run_campaign(
        &adc,
        &universe,
        &CampaignOptions {
            threads: 2,
            ..Default::default()
        },
        |dut| bist.campaign_test(dut),
    )
    .expect("smoke campaign is well-formed");
    assert_eq!(res.simulated(), universe.len());
    let cov = res.coverage();
    assert!(
        cov.value > 0.2 && cov.value < 0.95,
        "vcm coverage {}",
        cov.value
    );
    // Detected defects stopped early; escapes ran the full test. Every
    // Vcm-block simulation must produce a verdict (no unresolved records).
    assert_eq!(res.unresolved(), 0);
    for r in &res.records {
        let o = r.outcome.completed().expect("no unresolved records");
        if o.detected {
            assert!(o.cycles_run <= 192);
            assert!(o.detection_cycle.is_some());
        } else {
            assert_eq!(o.cycles_run, 192);
        }
    }
}

#[test]
fn detection_attributes_to_the_right_invariance() -> Result<(), CircuitError> {
    let bist = engine();
    let base = SarAdc::new(AdcConfig::default());
    // Latch cross-couple short → I6; find it by name for robustness.
    let mut dut = base.clone();
    let idx = dut
        .components()
        .iter()
        .position(|c| c.name.contains("complatch/m3"))
        .unwrap();
    dut.inject(DefectSite {
        component: idx,
        kind: DefectKind::ShortDs,
    });
    let res = bist.try_run(&dut, false)?;
    assert!(!res.pass);
    assert!(
        res.detections
            .iter()
            .any(|d| d.invariance == InvarianceId::I6QSum),
        "latch short must violate I6, got {:?}",
        res.detections.first()
    );
    Ok(())
}

#[test]
fn defect_free_after_clear_matches_pristine() -> Result<(), CircuitError> {
    let bist = engine();
    let pristine = SarAdc::new(AdcConfig::default());
    let mut reused = pristine.clone();
    reused.inject(DefectSite {
        component: 0,
        kind: DefectKind::Short,
    });
    assert!(!bist.try_run(&reused, true)?.pass || bist.try_run(&reused, true)?.pass); // any verdict
    reused.clear_defects();
    let a = bist.try_run(&reused, false)?;
    let b = bist.try_run(&pristine, false)?;
    assert_eq!(a.pass, b.pass);
    assert!(a.pass);
    Ok(())
}
