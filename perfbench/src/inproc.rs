//! The in-process ADC workloads: `table1` (the paper's Table I as
//! `symbist::experiments::table1` regenerates it) and `class_universe`
//! (the orbit analysis plus the class-representative campaign over the
//! full 3922-defect universe).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use symbist::experiments::{table1, ExperimentConfig, Table1Options};
use symbist::session::{Schedule, SymBist};
use symbist_adc::fault::Faultable;
use symbist_adc::{BlockKind, SarAdc};
use symbist_defects::{
    run_campaign, run_class_campaign, CampaignOptions, CampaignResult, ClassCampaignOptions,
    ClassCampaignResult, CoverageTable, DefectUniverse, LikelihoodModel, SimOutcome,
};
use symbist_lint::{analyze_adc_with_universe, lint_adc_with_universe};

use crate::counters::{check_repeat_across_runs, Snapshot, SolverCounts};
use crate::replay::{replay_all, DefectRun, LayerTotals};
use crate::report::Report;
use crate::speed::{Bracketed, Chunks, Probe};
use crate::stats::{self, Digest};
use crate::trace::{self, Span};
use crate::Args;

/// Campaign worker threads: the workloads are sized for two cores.
pub const THREADS: usize = 2;

/// The repository's standard experiment seed (`ExperimentConfig`).
const STANDARD_SEED: u64 = 0xD47E_2020;

/// How many times setup is repeated for the `setup_s` median.
const SETUP_REPS: usize = 5;

/// The host-speed probe bracketing every set-up, on each campaign thread
/// (about 120 ms at reference speed; shorter probes track the host too
/// loosely).
const PROBE: Probe = Probe {
    threads: THREADS,
    passes: 300,
};
/// An op takes seconds, too long for its ends to tell the host's speed
/// through it: its campaign workers run a kernel chunk of this many passes
/// every this many defects (about 3 % of their time).
const CHUNK_PASSES: usize = 10;
const CHUNK_EVERY: usize = 25;

/// The figures the class-representative campaign must reproduce on the
/// default seed (see `table1 --class-representatives`).
const CLASSES: usize = 2276;
const CLASS_SIMULATED_SEED0: usize = 2442;
const CLASS_COVERAGE: &str = "77.82%";

/// Maps the workload seed to the program's seed; seed 0 is the standard
/// configuration whose outputs are committed.
pub fn program_seed(seed: u64) -> u64 {
    STANDARD_SEED.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The standard experiment configuration on [`THREADS`] threads.
pub fn standard_config() -> ExperimentConfig {
    ExperimentConfig {
        threads: THREADS,
        ..ExperimentConfig::default()
    }
}

/// Defects of `block` in the standard ADC's universe.
pub fn block_size(block: BlockKind) -> usize {
    let adc = SarAdc::new(standard_config().adc);
    DefectUniverse::enumerate(&adc, &LikelihoodModel::default())
        .filter_block(block)
        .len()
}

/// Times, outside the measured window, the setup steps `AdcBackend::new`
/// runs: a calibration per comparator schedule, the lint report and the
/// orbit analysis.
pub fn time_adc_backend_setup(report: &mut Report) {
    let xc = standard_config();
    let t = Instant::now();
    for schedule in [Schedule::Sequential, Schedule::Parallel] {
        let _ = std::hint::black_box(
            ExperimentConfig {
                schedule,
                ..xc.clone()
            }
            .build_engine(),
        );
    }
    report.set("core.calibrate.s", t.elapsed().as_secs_f64());
    let adc = SarAdc::new(xc.adc.clone());
    let t = Instant::now();
    let universe = DefectUniverse::enumerate(&adc, &LikelihoodModel::default());
    report.set(
        "defects.universe.enumerate_ms",
        t.elapsed().as_secs_f64() * 1e3,
    );
    let t = Instant::now();
    let _ = std::hint::black_box(lint_adc_with_universe(&adc, &universe));
    report.set("lint.preflight_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let analysis = analyze_adc_with_universe(&adc, &universe);
    report.set("lint.analysis.s", t.elapsed().as_secs_f64());
    report.set("lint.analysis.classes", analysis.classes.len() as f64);
}

/// Everything set up before the first campaign.
struct Ctx {
    engine: SymBist,
    adc: SarAdc,
    universe: DefectUniverse,
    partition: Vec<Vec<usize>>,
}

/// Setup figures (seconds), medians over the repetitions.
#[derive(Debug, Default, Clone, Copy)]
struct SetupTimes {
    /// At reference speed.
    total: f64,
    raw: f64,
    calibrate: f64,
    enumerate: f64,
    analysis: f64,
}

fn set_up(xc: &ExperimentConfig, analyze: bool) -> Result<(Ctx, SetupTimes), String> {
    let t0 = Instant::now();
    let engine = xc.build_engine();
    let calibrate = t0.elapsed().as_secs_f64();
    let adc = SarAdc::new(xc.adc.clone());
    let t1 = Instant::now();
    let universe = DefectUniverse::enumerate(&adc, &LikelihoodModel::default());
    let enumerate = t1.elapsed().as_secs_f64();
    let (partition, analysis) = if analyze {
        let t2 = Instant::now();
        let report = analyze_adc_with_universe(&adc, &universe);
        if report.diagnostics.has_errors() {
            return Err(report.diagnostics.render_text());
        }
        (report.partition(), t2.elapsed().as_secs_f64())
    } else {
        (Vec::new(), 0.0)
    };
    let raw = t0.elapsed().as_secs_f64();
    let times = SetupTimes {
        total: raw,
        raw,
        calibrate,
        enumerate,
        analysis,
    };
    Ok((
        Ctx {
            engine,
            adc,
            universe,
            partition,
        },
        times,
    ))
}

/// Sets up [`SETUP_REPS`] times between host-speed probes and keeps the
/// last context.
fn set_up_repeated(xc: &ExperimentConfig, analyze: bool) -> Result<(Ctx, SetupTimes), String> {
    let mut samples = Vec::new();
    let mut ctx = None;
    let mut speed = Bracketed::start(PROBE);
    for _ in 0..SETUP_REPS {
        let (c, mut t) = set_up(xc, analyze)?;
        t.total = t.raw * speed.close();
        samples.push(t);
        ctx = Some(c);
    }
    let med = |f: fn(&SetupTimes) -> f64| {
        stats::median(&samples.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let times = SetupTimes {
        total: med(|t| t.total),
        raw: med(|t| t.raw),
        calibrate: med(|t| t.calibrate),
        enumerate: med(|t| t.enumerate),
        analysis: med(|t| t.analysis),
    };
    Ok((ctx.expect("at least one setup"), times))
}

fn record_setup(report: &mut Report, t: &SetupTimes) {
    println!(
        "setup: {:.4} s at reference speed, {:.4} s raw (medians of {SETUP_REPS})",
        t.total, t.raw
    );
    report.set("setup_s", t.total);
    report.set("core.calibrate.s", t.calibrate);
    report.set("defects.universe.enumerate_ms", t.enumerate * 1e3);
    report.set("lint.analysis.s", t.analysis);
}

/// The verdict digest of a Table-1 regeneration, campaign by campaign.
fn table1_digest(results: &[CampaignResult]) -> Digest {
    let mut d = Digest::default();
    for (i, r) in results.iter().enumerate() {
        d.push(i as u64);
        for rec in &r.records {
            d.push_verdict(rec.defect_index, &rec.outcome);
        }
    }
    d
}

/// Share of simulated defects that sit in the sub-DACs (short sweeps),
/// and how many defects were simulated.
fn subdac_share(blocks: impl Iterator<Item = BlockKind>) -> (f64, usize) {
    let (mut sub, mut n) = (0usize, 0usize);
    for block in blocks {
        n += 1;
        sub += usize::from(matches!(block, BlockKind::SubDac1 | BlockKind::SubDac2));
    }
    (stats::share(sub as f64, n as f64), n)
}

/// Blocks of every defect a Table-1 regeneration simulated: per-block
/// campaigns in `BlockKind::ALL` order, then the whole-universe aggregate.
fn table1_blocks<'a>(
    universe: &'a DefectUniverse,
    results: &'a [CampaignResult],
) -> impl Iterator<Item = BlockKind> + 'a {
    results.iter().enumerate().flat_map(move |(i, r)| {
        r.records
            .iter()
            .map(move |rec| match BlockKind::ALL.get(i) {
                Some(block) => *block,
                None => universe.defects()[rec.defect_index].block,
            })
    })
}

/// Result columns of a Table-1 CSV: every column but `sim_time_s`.
fn result_columns(csv: &str) -> Vec<String> {
    csv.lines()
        .map(|line| {
            line.split(',')
                .enumerate()
                .filter(|(i, _)| *i != 7)
                .map(|(_, c)| c)
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect()
}

/// Simulations each Table-1 campaign must run: exhaustive blocks at or
/// under the threshold, a capped LWRS sample otherwise, then the
/// aggregate.
fn expected_table1_counts(universe: &DefectUniverse, opts: &Table1Options) -> Vec<usize> {
    let mut out: Vec<usize> = BlockKind::ALL
        .into_iter()
        .map(|b| {
            let n = universe.filter_block(b).len();
            if n > opts.exhaustive_threshold {
                opts.per_block_sample.min(n)
            } else {
                n
            }
        })
        .collect();
    out.push(opts.aggregate_sample.min(universe.len()));
    out
}

/// Checks one Table-1 regeneration and returns its verdict digest.
fn check_table1(
    report: &mut Report,
    table: &CoverageTable,
    results: &[CampaignResult],
    expected: &[usize],
    committed: Option<&Result<String, String>>,
) -> Digest {
    let simulated: Vec<usize> = results.iter().map(CampaignResult::simulated).collect();
    report.check(
        format!("table1 simulations per campaign {simulated:?} == {expected:?}"),
        simulated == expected,
    );
    let unresolved: usize = results.iter().map(CampaignResult::unresolved).sum();
    report.ops(simulated.iter().sum::<usize>() as u64, unresolved as u64);
    if let Some(committed) = committed {
        match committed {
            Ok(csv) => report.check(
                "table1 result columns equal the committed table1.csv",
                result_columns(csv) == result_columns(&table.to_csv()),
            ),
            Err(e) => report.check(format!("read committed table1.csv: {e}"), false),
        }
    }
    table1_digest(results)
}

/// The `table1` workload.
pub fn run_table1(args: &Args, report: &mut Report) -> Result<(), String> {
    let xc = ExperimentConfig {
        seed: program_seed(args.seed),
        ..standard_config()
    };
    let opts = Table1Options::default();
    let (ctx, setup) = set_up_repeated(&xc, false)?;
    record_setup(report, &setup);
    let expected = expected_table1_counts(&ctx.universe, &opts);
    let committed = (args.seed == 0).then(|| {
        std::fs::read_to_string("table1.csv")
            .map_err(|e| format!("{e} (run from the repository root)"))
    });
    println!(
        "inputs: standard ADC, program seed {:#x}, {} simulations in {} campaigns on {THREADS} threads",
        xc.seed,
        expected.iter().sum::<usize>(),
        expected.len()
    );

    if args.trace {
        return traced_table1(
            args,
            &xc,
            &opts,
            &ctx,
            &expected,
            committed.as_ref(),
            report,
        );
    }

    // The op runs the campaigns of experiments::table1 itself, so that
    // their workers can sample the host; it must give the same table.
    let (plain_table, plain) = table1(&xc, &opts);
    let plain_digest = table1_digest(&plain).hex();
    let mut ops = Ops::start();
    let chunks = Chunks::new(CHUNK_PASSES, CHUNK_EVERY, THREADS);
    let mut digests = Vec::new();
    let mut counts = Vec::new();
    let mut subdac = (0.0, 0);
    while ops.next_fits(args.seconds) {
        let before = Snapshot::in_process();
        let t = Instant::now();
        // What experiments::table1 builds before its campaigns.
        let engine = xc.build_engine();
        let adc = SarAdc::new(xc.adc.clone());
        let universe = DefectUniverse::enumerate(&adc, &LikelihoodModel::default());
        let test = |dut: &SarAdc| {
            let outcome = engine.campaign_test(dut);
            chunks.tick();
            outcome
        };
        let (table, results) = table1_campaigns(&xc, &opts, &adc, &universe, &test, &|| {})?;
        let loop_s = t.elapsed().as_secs_f64();
        let (chunk_s, factor) = chunks.take();
        counts.push(Snapshot::in_process().since(&before).repeat_key());
        ops.push(
            results
                .iter()
                .map(|r| r.total_wall.as_secs_f64())
                .sum::<f64>()
                - chunk_s,
            loop_s - chunk_s,
            factor,
        );
        let digest = check_table1(report, &table, &results, &expected, committed.as_ref()).hex();
        if digests.is_empty() {
            report.check(
                "the op's campaigns reproduce experiments::table1 verdicts and table",
                digest == plain_digest
                    && result_columns(&table.to_csv()) == result_columns(&plain_table.to_csv()),
            );
        }
        digests.push(digest);
        subdac = subdac_share(table1_blocks(&ctx.universe, &results));
    }
    println!(
        "traffic: {:.1} % of {} simulations are sub-DAC defects (short sweeps)",
        subdac.0 * 100.0,
        subdac.1
    );
    finish_untraced(args, report, "table1", &ops, &digests, &counts);
    Ok(())
}

/// The measuring loop's ops.
struct Ops {
    start: Instant,
    /// Campaign seconds of each op, raw and at reference speed.
    raw: Vec<f64>,
    at_ref: Vec<f64>,
    /// Seconds of each op's whole loop iteration (a `table1` op also
    /// rebuilds its engine) at reference speed, host samples excluded.
    loop_at_ref: Vec<f64>,
    /// Each op's factor to reference speed: the host's relative speed.
    factors: Vec<f64>,
}

impl Ops {
    fn start() -> Ops {
        Ops {
            start: Instant::now(),
            raw: Vec::new(),
            at_ref: Vec::new(),
            loop_at_ref: Vec::new(),
            factors: Vec::new(),
        }
    }

    /// Whether one more op of the mean length (checks included) still
    /// ends inside the run; the first op always runs.
    fn next_fits(&self, seconds: f64) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        self.raw.is_empty() || elapsed + elapsed / self.raw.len() as f64 <= seconds
    }

    /// Records an op that took `campaign_s` of a loop iteration of
    /// `loop_s`, with its factor to reference speed.
    fn push(&mut self, campaign_s: f64, loop_s: f64, factor: f64) {
        self.factors.push(factor);
        self.raw.push(campaign_s);
        self.at_ref.push(campaign_s * factor);
        self.loop_at_ref.push(loop_s * factor);
    }
}

/// Shared tail of the untraced in-process runs: determinism checks,
/// the verdict digest and the end-to-end metrics.
fn finish_untraced(
    args: &Args,
    report: &mut Report,
    workload: &str,
    ops: &Ops,
    digests: &[String],
    counts: &[String],
) {
    report.check(
        "every op of the run gives the same verdicts",
        digests.windows(2).all(|w| w[0] == w[1]),
    );
    println!("verdict digest: {} ({} ops)", digests[0], digests.len());
    if counts.windows(2).all(|w| w[0] == w[1]) {
        println!("counters: repeat exactly between the run's ops");
    } else {
        println!("counters: DIFFER between ops of one seed: {counts:?}");
    }
    println!(
        "counters: {}",
        check_repeat_across_runs(&args.out_dir, workload, args.seed, &counts[0])
    );
    let n = ops.raw.len() as f64;
    report.set("op_p50_ms", stats::median(&ops.at_ref).unwrap_or(0.0) * 1e3);
    report.set("ops_per_s", stats::share(n, ops.loop_at_ref.iter().sum()));
    let ms = |v: &[f64]| {
        v.iter()
            .map(|s| (s * 1e4).round() / 10.0)
            .collect::<Vec<_>>()
    };
    println!(
        "ops: {n} in {:.2} s; campaign ms raw {:?}, at reference speed {:?}",
        ops.start.elapsed().as_secs_f64(),
        ms(&ops.raw),
        ms(&ops.at_ref)
    );
    println!(
        "host speed: {:.3} x reference (median over the ops); raw op p50 {:.1} ms",
        stats::median(&ops.factors).unwrap_or(0.0),
        stats::median(&ops.raw).unwrap_or(0.0) * 1e3
    );
}

/// A `campaign_test` closure that records one span per call.
struct TracedTest<'a> {
    engine: &'a SymBist,
    epoch: Instant,
    calls: Mutex<Vec<(DefectRun, f64)>>,
    /// Index of the campaign now running.
    campaign: AtomicUsize,
}

impl<'a> TracedTest<'a> {
    fn new(engine: &'a SymBist, epoch: Instant) -> Self {
        TracedTest {
            engine,
            epoch,
            calls: Mutex::new(Vec::new()),
            campaign: AtomicUsize::new(0),
        }
    }

    /// Marks the start of the op's next campaign.
    fn next_campaign(&self) {
        self.campaign.fetch_add(1, Ordering::Relaxed);
    }

    fn call(&self, dut: &SarAdc) -> SimOutcome {
        let start = self.epoch.elapsed().as_secs_f64();
        let outcome = self.engine.campaign_test(dut);
        let end = self.epoch.elapsed().as_secs_f64();
        let site = dut.injected().expect("campaigns test an injected defect");
        let mut calls = self.calls.lock().expect("campaign worker panicked");
        let span = (1u64 << 40) | (calls.len() as u64 + 1);
        calls.push((
            DefectRun {
                site,
                outcome,
                span,
                test_s: end - start,
                campaign: self.campaign.load(Ordering::Relaxed),
            },
            start,
        ));
        outcome
    }

    /// The op's runs and spans, for a campaign set of `campaigns`
    /// campaigns that took `campaign_s` with counter delta `counts`.
    fn finish(self, campaigns: usize, campaign_s: f64, counts: Snapshot) -> TracedCampaign {
        let calls = self.calls.into_inner().expect("campaign worker panicked");
        let spans = calls
            .iter()
            .map(|(run, start)| Span {
                name: "core.session.campaign_test",
                id: run.span,
                parent: 0,
                tid: 1,
                start: *start,
                end: start + run.test_s,
            })
            .collect();
        TracedCampaign {
            epoch: self.epoch,
            runs: calls.into_iter().map(|(run, _)| run).collect(),
            spans,
            campaigns,
            campaign_s,
            counts,
        }
    }
}

/// Campaign-level figures of a traced op.
struct TracedCampaign {
    epoch: Instant,
    runs: Vec<DefectRun>,
    spans: Vec<Span>,
    campaigns: usize,
    campaign_s: f64,
    counts: Snapshot,
}

impl TracedCampaign {
    /// Total `campaign_test` time of the op's defects.
    fn test_s(&self) -> f64 {
        self.runs.iter().map(|r| r.test_s).sum()
    }
}

/// Replays a traced op's defects and sets every ADC-side layer metric.
fn report_layers(
    args: &Args,
    ctx: &Ctx,
    xc: &ExperimentConfig,
    mut op: TracedCampaign,
    report: &mut Report,
) {
    let (t, mut spans) = replay_all(
        &ctx.adc,
        &ctx.engine,
        xc.stimulus.din,
        &op.runs,
        THREADS,
        op.epoch,
    );
    spans.append(&mut op.spans);
    set_layer_metrics(report, &t, &op);
    report.check(
        format!(
            "replay equals the observation stream bit for bit ({} of {} defects differ)",
            t.mismatches, t.defects
        ),
        t.mismatches == 0,
    );
    let attributed = report.get("core.session.attributed_share").unwrap_or(0.0);
    report.check(
        format!("attributed share {attributed:.4} >= 0.95 of campaign_test time"),
        attributed >= 0.95,
    );
    let cost = trace::span_cost_s();
    report.set(
        "bench.span_overhead_share",
        stats::share(op.runs.len() as f64 * cost, op.test_s()),
    );
    trace::write_run_trace(args, &spans);
}

fn set_layer_metrics(report: &mut Report, t: &LayerTotals, op: &TracedCampaign) {
    let defects = t.defects.max(1) as f64;
    report.set(
        "adc.sc_array.share",
        stats::share(t.sc_begin_s + t.sc_codes_s, t.retest_s),
    );
    report.set("adc.sc_array.begin_ms", t.sc_begin_s / defects * 1e3);
    report.set("adc.sc_array.codes", t.codes as f64);
    report.set(
        "adc.sc_array.us_per_code",
        stats::share(t.sc_codes_s, t.codes as f64) * 1e6,
    );
    report.set("adc.refnet.calls", t.refnet_calls as f64);
    report.set("adc.refnet.self_ms", t.refnet_s * 1e3);
    report.set("adc.refnet.share", stats::share(t.refnet_s, t.retest_s));
    report.set("adc.bandgap.calls", t.bandgap_calls as f64);
    report.set("adc.bandgap.self_ms", t.bandgap_s * 1e3);
    report.set("adc.bandgap.share", stats::share(t.bandgap_s, t.retest_s));
    report.set("adc.vcm.self_ms", t.vcm_s * 1e3);
    report.set(
        "adc.fault.clone_inject_ms",
        t.clone_inject_s / defects * 1e3,
    );

    let per_defect: Vec<f64> = op.runs.iter().map(|r| r.test_s * 1e3).collect();
    report.set(
        "core.session.defect_p50_ms",
        stats::median(&per_defect).unwrap_or(0.0),
    );
    match stats::tail(&per_defect) {
        Some(tail) => {
            report.set("core.session.defect_tail_ms", tail.value);
            println!(
                "defect tail: p{} = {:.3} ms ({} of {} defects beyond)",
                tail.pct, tail.value, tail.beyond, tail.n
            );
        }
        None => println!("defect tail: fewer than 11 defects"),
    }
    report.set(
        "core.session.attributed_share",
        stats::share(t.layer_s(), t.retest_s),
    );
    report.set(
        "core.session.sweep_fraction",
        stats::share(t.codes as f64, 32.0 * t.defects as f64),
    );
    let detected = op.runs.iter().filter(|r| r.outcome.detected()).count();
    report.set(
        "core.session.detected_frac",
        stats::share(detected as f64, op.runs.len() as f64),
    );
    println!(
        "replay: {} defects, layer time {:.3} s of {:.3} s campaign_test re-measured beside it \
         ({:.2} %; {:.3} s in the campaign itself), glue {:.4} s",
        t.defects,
        t.layer_s(),
        t.retest_s,
        stats::share(t.layer_s(), t.retest_s) * 100.0,
        op.test_s(),
        t.glue_s
    );

    report.set("defects.campaign.runs", op.campaigns as f64);
    report.set("defects.campaign.defects", op.runs.len() as f64);
    report.set(
        "defects.campaign.defects_per_s",
        stats::share(op.runs.len() as f64, op.campaign_s),
    );
    report.set(
        "defects.campaign.busy_ratio",
        stats::busy_ratio(op.test_s(), THREADS, op.campaign_s),
    );
    let unresolved = op.runs.iter().filter(|r| r.outcome.is_unresolved()).count();
    report.set("defects.campaign.unresolved", unresolved as f64);

    let c = SolverCounts::from_delta(&op.counts);
    report.set("circuit.transient.steps", c.transient_steps);
    report.set(
        "circuit.transient.us_per_step",
        stats::share(t.sc_begin_s + t.sc_codes_s, c.transient_steps) * 1e6,
    );
    report.set("circuit.dc.solves", c.dc_solves);
    report.set("circuit.dc.newton_iters", c.newton_iters);
    report.set("circuit.sparse.refactor_skip_ratio", c.refactor_skip_ratio);
    report.check(
        format!(
            "campaign counter saw {} defects, the traced campaign {}",
            c.defects,
            op.runs.len()
        ),
        c.defects as usize == op.runs.len(),
    );
}

/// The campaigns `experiments::table1` runs, in its order and with its
/// seeds and options, each defect through `test`; `between` runs after
/// each campaign.
fn table1_campaigns(
    xc: &ExperimentConfig,
    opts: &Table1Options,
    adc: &SarAdc,
    universe: &DefectUniverse,
    test: &(dyn Fn(&SarAdc) -> SimOutcome + Sync),
    between: &dyn Fn(),
) -> Result<(CoverageTable, Vec<CampaignResult>), String> {
    let campaign = |sub: &DefectUniverse, sample: Option<usize>, seed: u64| {
        let result = run_campaign(
            adc,
            sub,
            &CampaignOptions {
                sample_size: sample,
                seed,
                threads: xc.threads,
                ..Default::default()
            },
            test,
        )
        .map_err(|e| e.to_string());
        between();
        result
    };
    let mut table = CoverageTable::new();
    let mut results = Vec::new();
    for (block_idx, block) in BlockKind::ALL.into_iter().enumerate() {
        let sub = universe.filter_block(block);
        let sample =
            (sub.len() > opts.exhaustive_threshold).then_some(opts.per_block_sample.min(sub.len()));
        let r = campaign(
            &sub,
            sample,
            xc.seed.wrapping_add(block_idx as u64 * 0x9E37_79B9),
        )?;
        table.push_block(block, &r);
        results.push(r);
    }
    let r = campaign(
        universe,
        Some(opts.aggregate_sample.min(universe.len())),
        xc.seed ^ 0xA66,
    )?;
    table.push_aggregate("Complete A/M-S part of SAR ADC IP", &r);
    results.push(r);
    Ok((table, results))
}

/// The traced `table1` op: the same campaigns `experiments::table1`
/// runs, with a span around each `campaign_test` call.
fn traced_table1(
    args: &Args,
    xc: &ExperimentConfig,
    opts: &Table1Options,
    ctx: &Ctx,
    expected: &[usize],
    committed: Option<&Result<String, String>>,
    report: &mut Report,
) -> Result<(), String> {
    let test = TracedTest::new(&ctx.engine, Instant::now());
    let before = Snapshot::in_process();
    let (table, results) = table1_campaigns(
        xc,
        opts,
        &ctx.adc,
        &ctx.universe,
        &|dut| test.call(dut),
        &|| test.next_campaign(),
    )?;
    let counts = Snapshot::in_process().since(&before);
    let digest = check_table1(report, &table, &results, expected, committed);

    // The traced campaigns must be the ones experiments::table1 runs.
    let (plain_table, plain) = table1(xc, opts);
    report.check(
        "traced campaigns reproduce experiments::table1 verdicts and table",
        digest.hex() == table1_digest(&plain).hex()
            && result_columns(&table.to_csv()) == result_columns(&plain_table.to_csv()),
    );
    println!("verdict digest: {}", digest.hex());

    let campaign_s = results.iter().map(|r| r.total_wall.as_secs_f64()).sum();
    report_layers(
        args,
        ctx,
        xc,
        test.finish(results.len(), campaign_s, counts),
        report,
    );
    Ok(())
}

/// Checks one class campaign and returns its verdict digest.
fn check_classes(report: &mut Report, res: &ClassCampaignResult, seed: u64) -> Digest {
    let (lo, _) = res.coverage_bounds();
    let unresolved = res
        .classes
        .iter()
        .map(|c| {
            usize::from(c.outcome.is_unresolved())
                + usize::from(c.sibling_outcome.is_some_and(|o| o.is_unresolved()))
        })
        .sum::<usize>();
    report.ops(res.simulated as u64, unresolved as u64);
    report.check(
        format!("{} classes == {CLASSES}", res.representatives()),
        res.representatives() == CLASSES,
    );
    report.check(
        format!("{} class violations == 0", res.violation_count()),
        res.violation_count() == 0,
    );
    report.check(
        format!(
            "extrapolated coverage {} == {CLASS_COVERAGE}",
            lo.to_percent_string()
        ),
        lo.to_percent_string() == CLASS_COVERAGE,
    );
    if seed == 0 {
        report.check(
            format!(
                "{} of {} simulated == {CLASS_SIMULATED_SEED0}",
                res.simulated, res.universe_size
            ),
            res.simulated == CLASS_SIMULATED_SEED0,
        );
    }
    let mut d = Digest::default();
    for c in &res.classes {
        d.push_verdict(c.representative, &c.outcome);
        if let (Some(s), Some(o)) = (c.sibling, c.sibling_outcome) {
            d.push_verdict(s, &o);
        }
    }
    d
}

/// The `class_universe` workload.
pub fn run_class_universe(args: &Args, report: &mut Report) -> Result<(), String> {
    let xc = standard_config();
    let (ctx, setup) = set_up_repeated(&xc, true)?;
    record_setup(report, &setup);
    report.set("lint.analysis.classes", ctx.partition.len() as f64);
    let options = ClassCampaignOptions {
        seed: program_seed(args.seed),
        threads: THREADS,
        ..Default::default()
    };
    println!(
        "inputs: standard ADC, {} defects in {} classes, audit seed {:#x}, {THREADS} threads",
        ctx.universe.len(),
        ctx.partition.len(),
        options.seed
    );
    let run = |test: &(dyn Fn(&SarAdc) -> SimOutcome + Sync)| {
        run_class_campaign(&ctx.adc, &ctx.universe, &ctx.partition, &options, test)
            .map_err(|e| e.to_string())
    };

    if args.trace {
        let test = TracedTest::new(&ctx.engine, Instant::now());
        let before = Snapshot::in_process();
        let t = Instant::now();
        let res = run(&|dut| test.call(dut))?;
        let campaign_s = t.elapsed().as_secs_f64();
        let counts = Snapshot::in_process().since(&before);
        let digest = check_classes(report, &res, args.seed);
        println!("verdict digest: {}", digest.hex());
        report.set("defects.classes.simulated", res.simulated as f64);
        report.set("defects.classes.saved", res.defects_saved() as f64);
        report.set("defects.classes.violations", res.violation_count() as f64);
        report_layers(args, &ctx, &xc, test.finish(1, campaign_s, counts), report);
        return Ok(());
    }

    let mut ops = Ops::start();
    let chunks = Chunks::new(CHUNK_PASSES, CHUNK_EVERY, THREADS);
    let mut digests = Vec::new();
    let mut counts = Vec::new();
    while ops.next_fits(args.seconds) {
        let before = Snapshot::in_process();
        let t = Instant::now();
        let res = run(&|dut| {
            let outcome = ctx.engine.campaign_test(dut);
            chunks.tick();
            outcome
        })?;
        let (chunk_s, factor) = chunks.take();
        let campaign_s = t.elapsed().as_secs_f64() - chunk_s;
        let (lo, hi) = res.coverage_bounds();
        ops.push(campaign_s, campaign_s, factor);
        counts.push(Snapshot::in_process().since(&before).repeat_key());
        digests.push(check_classes(report, &res, args.seed).hex());
        if digests.len() == 1 {
            let selected = res
                .classes
                .iter()
                .flat_map(|c| std::iter::once(c.representative).chain(c.sibling))
                .map(|i| ctx.universe.defects()[i].block);
            let (share, n) = subdac_share(selected);
            println!(
                "traffic: {:.1} % of {n} simulations are sub-DAC defects; {} sibling audits; coverage [{}, {}]",
                share * 100.0,
                res.cross_checked(),
                lo.to_percent_string(),
                hi.to_percent_string()
            );
        }
    }
    finish_untraced(args, report, "class_universe", &ops, &digests, &counts);
    Ok(())
}
