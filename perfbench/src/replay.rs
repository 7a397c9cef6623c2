//! Per-layer attribution of a defect's test time. Every defect a traced
//! campaign simulated is replayed on a fresh clone through the public
//! functions `SarAdc::try_observation_stream` calls, in its order, each
//! call under its own span, next to a re-run of `campaign_test` itself.
//! A guard then runs the observation stream and compares the replay bit
//! for bit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use symbist::session::{Schedule, SymBist};
use symbist_adc::fault::{DefectSite, Faultable};
use symbist_adc::refnet::{solve_ref_network, RefOutputs};
use symbist_adc::sc_array::SideLevels;
use symbist_adc::SarAdc;
use symbist_defects::SimOutcome;

use crate::trace::{Recorder, Span};

/// One `SymBist::campaign_test` call as the traced campaign saw it.
#[derive(Debug, Clone, Copy)]
pub struct DefectRun {
    pub site: DefectSite,
    pub outcome: SimOutcome,
    /// Id of its `campaign_test` span.
    pub span: u64,
    /// Duration of its `campaign_test` span in seconds.
    pub test_s: f64,
    /// Which of the op's campaigns ran it.
    pub campaign: usize,
}

/// Counter codes the sequential-schedule test observed: the detection
/// code + 1 when invariance I1 fired (cycles 0..32 are I1 at code =
/// cycle), else the whole sweep. `None` for an unresolved defect.
pub fn observed_codes(outcome: &SimOutcome) -> Option<u8> {
    let o = outcome.completed()?;
    Some(match o.detection_cycle {
        Some(c) if c < 32 => c as u8 + 1,
        _ => 32,
    })
}

/// Layer totals over the replayed defects (seconds and call counts).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub defects: u64,
    pub clone_inject_s: f64,
    pub bandgap_s: f64,
    pub bandgap_calls: u64,
    pub refnet_s: f64,
    pub refnet_calls: u64,
    pub vcm_s: f64,
    pub sc_begin_s: f64,
    pub sc_codes_s: f64,
    pub codes: u64,
    /// Replay self time: the glue between layer calls.
    pub glue_s: f64,
    /// `campaign_test` time of the same defects, re-measured back to back
    /// with the replay.
    pub retest_s: f64,
    /// Defects whose replay disagreed with the observation stream, failed
    /// where the campaign had completed, or whose re-test changed verdict.
    pub mismatches: u64,
}

impl LayerTotals {
    fn add(&mut self, o: &LayerTotals) {
        self.defects += o.defects;
        self.clone_inject_s += o.clone_inject_s;
        self.bandgap_s += o.bandgap_s;
        self.bandgap_calls += o.bandgap_calls;
        self.refnet_s += o.refnet_s;
        self.refnet_calls += o.refnet_calls;
        self.vcm_s += o.vcm_s;
        self.sc_begin_s += o.sc_begin_s;
        self.sc_codes_s += o.sc_codes_s;
        self.codes += o.codes;
        self.glue_s += o.glue_s;
        self.retest_s += o.retest_s;
        self.mismatches += o.mismatches;
    }

    /// Replayed layer time: bandgap, ladder, Vcm and SC array.
    pub fn layer_s(&self) -> f64 {
        self.bandgap_s + self.refnet_s + self.vcm_s + self.sc_begin_s + self.sc_codes_s
    }
}

/// What the replay produced for one defect, for the guard to compare.
struct Replayed {
    ladder: Vec<RefOutputs>,
    dac: Vec<(f64, f64)>,
}

/// Replays every run, campaign by campaign, each on `threads` fresh
/// workers: the campaign's own parallelism and thread lifetimes, so the
/// replay sees the same contention and the same cold per-thread solver
/// state at each campaign's start. Returns the totals and the spans.
pub fn replay_all(
    base: &SarAdc,
    engine: &SymBist,
    din: f64,
    runs: &[DefectRun],
    threads: usize,
    epoch: Instant,
) -> (LayerTotals, Vec<Span>) {
    assert_eq!(
        engine.schedule(),
        Schedule::Sequential,
        "observed codes follow the sequential schedule"
    );
    let merged = Mutex::new((LayerTotals::default(), Vec::new()));
    let campaigns = runs.iter().map(|r| r.campaign + 1).max().unwrap_or(0);
    for campaign in 0..campaigns {
        let group: Vec<&DefectRun> = runs.iter().filter(|r| r.campaign == campaign).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..threads.max(1) {
                let (cursor, merged, group) = (&cursor, &merged, &group);
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch, (100 + campaign * threads + t) as u32);
                    let mut totals = LayerTotals::default();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(run) = group.get(index) else { break };
                        replay_one(base, engine, din, (index, run), &mut rec, &mut totals);
                    }
                    let mut m = merged.lock().expect("replay worker panicked");
                    m.0.add(&totals);
                    m.1.append(&mut rec.spans);
                });
            }
        });
    }
    merged.into_inner().expect("replay worker panicked")
}

fn replay_one(
    base: &SarAdc,
    engine: &SymBist,
    din: f64,
    (index, run): (usize, &DefectRun),
    rec: &mut Recorder,
    totals: &mut LayerTotals,
) {
    let Some(codes) = observed_codes(&run.outcome) else {
        return;
    };
    totals.defects += 1;
    let clone = || {
        let mut fresh = base.clone();
        fresh.inject(run.site);
        fresh
    };
    let (fresh, dt) = rec.time("adc.fault.clone_inject", run.span, clone);
    totals.clone_inject_s += dt;

    // `campaign_test` again on its own clone, back to back with the layer
    // replay and in alternating order, so machine noise and warm-up hit
    // numerator and denominator of the attributed share alike.
    let retest = |rec: &mut Recorder, totals: &mut LayerTotals| {
        let dut = clone();
        let (outcome, dt) = rec.time("core.session.campaign_test", run.span, || {
            engine.campaign_test(&dut)
        });
        totals.retest_s += dt;
        if outcome != run.outcome {
            totals.mismatches += 1;
        }
    };
    if index % 2 == 0 {
        retest(rec, totals);
    }
    let root = rec.id();
    let start = rec.now();
    let mut layer = LayerTotals::default();
    let replayed = replay_layers(&fresh, din, codes, root, rec, &mut layer);
    let end = rec.now();
    rec.push("replay", root, run.span, start, end);
    layer.glue_s = (end - start) - layer.layer_s();
    totals.add(&layer);
    if index % 2 == 1 {
        retest(rec, totals);
    }

    let agrees = rec
        .time("guard", run.span, || {
            replayed
                .ok()
                .is_some_and(|r| matches_stream(&clone(), din, codes, &r))
        })
        .0;
    if !agrees {
        totals.mismatches += 1;
    }
}

/// The layer calls of `SarAdc::try_observation_stream` followed by
/// `codes` observations, each under a span parented to `root`.
fn replay_layers(
    adc: &SarAdc,
    din: f64,
    codes: u8,
    root: u64,
    rec: &mut Recorder,
    t: &mut LayerTotals,
) -> Result<Replayed, symbist_circuit::error::CircuitError> {
    let ladder_at = |rec: &mut Recorder, t: &mut LayerTotals, vbg: f64, c: u8| {
        let (r, dt) = rec.time("adc.refnet.solve", root, || {
            solve_ref_network(
                adc.reference_buffer(),
                adc.subdac1(),
                adc.subdac2(),
                vbg,
                c,
                c,
            )
        });
        t.refnet_s += dt;
        t.refnet_calls += 1;
        r
    };

    let (bg, dt) = rec.time("adc.bandgap.solve", root, || adc.bandgap().solve());
    t.bandgap_s += dt;
    t.bandgap_calls += 1;
    let vbg = bg?.vbg;
    let r0 = ladder_at(rec, t, vbg, 0)?;
    let (vcm, dt) = rec.time("adc.vcm.solve", root, || {
        adc.vcm_generator().solve(r0.vref32)
    });
    t.vcm_s += dt;
    let vcm = vcm?;
    let (in_p, in_n) = (r0.vref16 + din / 2.0, r0.vref16 - din / 2.0);
    let (session, dt) = rec.time("adc.sc_array.begin", root, || {
        adc.sc_array().begin(in_p, in_n, vcm, false)
    });
    t.sc_begin_s += dt;
    let mut session = session?;

    let mut out = Replayed {
        ladder: Vec::with_capacity(codes as usize),
        dac: Vec::with_capacity(codes as usize),
    };
    for c in 0..codes {
        // Code 0 reuses the (0, 0) solve, as the ADC's ladder cache does.
        let r = if c == 0 {
            r0
        } else {
            ladder_at(rec, t, vbg, c)?
        };
        let (dac, dt) = rec.time("adc.sc_array.apply_code", root, || {
            session.apply_code(
                SideLevels {
                    m: r.m_plus,
                    l: r.l_plus,
                },
                SideLevels {
                    m: r.m_minus,
                    l: r.l_minus,
                },
            )
        });
        t.sc_codes_s += dt;
        t.codes += 1;
        out.ladder.push(r);
        out.dac.push(dac?);
    }
    Ok(out)
}

/// The replay-equivalence guard: the ladder outputs (which carry vbg) and
/// the settled (DAC+, DAC−) (which carry Vcm) of every observed code must
/// equal, bit for bit, what the ADC's own observation stream yields.
fn matches_stream(adc: &SarAdc, din: f64, codes: u8, r: &Replayed) -> bool {
    let Ok(mut stream) = adc.try_observation_stream(din) else {
        return false;
    };
    (0..codes).all(|c| {
        let (Ok(o), Some(l), Some(d)) = (
            stream.try_observe(c),
            r.ladder.get(c as usize),
            r.dac.get(c as usize),
        ) else {
            return false;
        };
        let pairs = [
            (o.m_plus, l.m_plus),
            (o.m_minus, l.m_minus),
            (o.l_plus, l.l_plus),
            (o.l_minus, l.l_minus),
            (o.vref16, l.vref16),
            (o.vref32, l.vref32),
            (o.dac_plus, d.0),
            (o.dac_minus, d.1),
        ];
        pairs.iter().all(|(a, b)| a.to_bits() == b.to_bits())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbist_defects::{TestOutcome, UnresolvedReason};

    fn completed(cycle: Option<u32>) -> SimOutcome {
        SimOutcome::Completed(TestOutcome {
            detected: cycle.is_some(),
            detection_cycle: cycle,
            cycles_run: cycle.map_or(192, |c| c + 1),
        })
    }

    #[test]
    fn observed_codes_follow_the_verdict() {
        assert_eq!(observed_codes(&completed(None)), Some(32));
        assert_eq!(observed_codes(&completed(Some(0))), Some(1));
        assert_eq!(observed_codes(&completed(Some(31))), Some(32));
        // I2..I6 fire after I1 swept all 32 codes.
        assert_eq!(observed_codes(&completed(Some(40))), Some(32));
        assert_eq!(
            observed_codes(&SimOutcome::Unresolved(UnresolvedReason::Timeout)),
            None
        );
    }
}
