//! Top-level SAR ADC IP: composition of every block in Figs. 2–4, the
//! conversion engine, and the SymBIST observation taps.
//!
//! The counter test (paper §IV-2), the Fig. 5 trace and the SAR
//! conversion all drive one analog step. [`SarAdc`] samples an input once
//! (bandgap, the ladder at code (0, 0), Vcm, the SC array's sampling
//! cycle), then runs one code cycle per code: the ladder at the select
//! codes `(m, l)`, one SC-array clock cycle, the comparator chain.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use symbist_circuit::dc::set_thread_solve_budget;
use symbist_circuit::error::CircuitError;
use symbist_circuit::netlist::Netlist;
use symbist_circuit::rng::Rng;

use crate::bandgap::{Bandgap, BandgapMismatch};
use crate::comparator::{ComparatorChain, ComparatorMismatch};
use crate::config::AdcConfig;
use crate::digital::{PhaseGenerator, Pulse, SarControl, SarLogic};
use crate::fault::{check_site, BlockKind, ComponentInfo, DefectSite, Faultable};
use crate::refnet::{solve_ref_network, RefBufMismatch, RefOutputs, ReferenceBuffer, SubDac};
use crate::sc_array::{ScArray, ScMismatch, ScSession, ScTraces, SideLevels};
use crate::vcm::{VcmGenerator, VcmMismatch};

/// Everything the SymBIST checkers observe for one counter code: the
/// signal nodes of Eqs. (2)–(5) plus the on-chip reference nodes each
/// window comparator is wired to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestObservation {
    /// The 5-bit counter code driving both sub-DACs.
    pub code: u8,
    /// SUBDAC1 outputs.
    pub m_plus: f64,
    /// SUBDAC1 complementary output.
    pub m_minus: f64,
    /// SUBDAC2 outputs.
    pub l_plus: f64,
    /// SUBDAC2 complementary output.
    pub l_minus: f64,
    /// SC-array outputs.
    pub dac_plus: f64,
    /// SC-array complementary output.
    pub dac_minus: f64,
    /// Preamp outputs.
    pub lin_plus: f64,
    /// Preamp complementary output.
    pub lin_minus: f64,
    /// Latch outputs.
    pub q_plus: f64,
    /// Latch complementary output.
    pub q_minus: f64,
    /// On-chip VREF\[32\] tap (reference of checkers I1/I2).
    pub vref32: f64,
    /// On-chip VREF\[16\] tap (reference of checker I3).
    pub vref16: f64,
    /// Digital supply (reference of checker I6).
    pub vdd: f64,
}

/// The 65 nm 10-bit SAR ADC IP model.
///
/// # Examples
///
/// ```
/// use symbist_adc::{AdcConfig, SarAdc};
///
/// let adc = SarAdc::new(AdcConfig::default());
/// // Convert a mid-scale differential input.
/// let code = adc.try_convert(0.0)?;
/// assert!((500..560).contains(&code), "mid-scale code {code}");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SarAdc {
    cfg: AdcConfig,
    bandgap: Bandgap,
    refbuf: ReferenceBuffer,
    sd1: SubDac,
    sd2: SubDac,
    sc: ScArray,
    chain: ComparatorChain,
    vcm: VcmGenerator,
    control: SarControl,
    phase: PhaseGenerator,
    /// The component catalog of every block, built once by [`SarAdc::new`]
    /// and shared by all clones: a campaign clones the DUT per defect.
    catalog: Arc<[ComponentInfo]>,
    /// Global component index ranges per sub-block, in catalog order.
    ranges: Vec<(SubBlock, std::ops::Range<usize>)>,
    injected: Option<DefectSite>,
    /// What the defect-free instance of this mismatch state has solved,
    /// shared by every clone and replaced by [`SarAdc::apply_mismatch`].
    nominal: Arc<Solves>,
    /// What this state has solved, shared by clones and replaced by
    /// [`SarAdc::apply_mismatch`] and [`Faultable::clear_defects`] (so
    /// also [`Faultable::inject`]).
    own: Arc<Solves>,
}

/// What one ADC state has solved: the sample bias (`vbg`, the ladder at
/// select codes (0, 0), the Vcm output) and a 32 × 32 ladder table by
/// `(m, l)`. A cell is filled on first use and never holds a failed
/// solve; a ladder row is allocated on first use.
#[derive(Debug, Default)]
struct Solves {
    vbg: OnceLock<f64>,
    /// Filled in own stores only; see [`SarAdc::sample`].
    vcm: OnceLock<f64>,
    ladder: [OnceLock<Box<LadderRow>>; 32],
    /// Held while a cell fills; reads take no lock. It guards no data, so
    /// a lock poisoned by a panicking fill is taken over as it is.
    filling: Mutex<()>,
}

/// One row of a ladder table: the solves on one diagonal `l − m`.
type LadderRow = [OnceLock<RefOutputs>; 32];

impl Solves {
    /// The ladder cell of select codes `(m, l)`, its row allocated on
    /// first use. Rows run along the diagonals `l − m (mod 32)`, so the 32
    /// counter codes `(c, c)` of an observation sweep share one row.
    fn ladder(&self, m: u8, l: u8) -> &OnceLock<RefOutputs> {
        let row = &self.ladder[usize::from(l.wrapping_sub(m) % 32)];
        &row.get_or_init(Box::default)[usize::from(m)]
    }
}

/// Internal addressing of the owning sub-block structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SubBlock {
    Bandgap,
    RefBuf,
    SubDac1,
    SubDac2,
    Sc,
    Vcm,
    Chain,
}

/// Mismatch sample for a whole ADC instance.
#[derive(Debug, Clone, PartialEq)]
pub struct AdcMismatch {
    /// Bandgap block mismatch.
    pub bandgap: BandgapMismatch,
    /// Reference buffer + ladder mismatch.
    pub refbuf: RefBufMismatch,
    /// SC array capacitor mismatch.
    pub sc: ScMismatch,
    /// Vcm generator mismatch.
    pub vcm: VcmMismatch,
    /// Comparator chain mismatch.
    pub chain: ComparatorMismatch,
}

impl AdcMismatch {
    /// Draws a process-plausible mismatch sample (65 nm-scale σ values).
    pub fn sample(rng: &mut Rng) -> Self {
        let mut ladder = [0.0; 32];
        for slot in &mut ladder {
            *slot = rng.normal(0.0, 0.0015);
        }
        Self {
            // Bandgap mismatch stays small: the amp offset is amplified by
            // R2/R1 ≈ 10 into VBG, and VBG feeds Vcm — an over-dispersed
            // bandgap would force the I3 window wide open.
            bandgap: BandgapMismatch {
                r1: rng.normal(0.0, 0.005),
                r2: rng.normal(0.0, 0.005),
                amp_offset: rng.normal(0.0, 0.0005),
                mirror: rng.normal(0.0, 0.003),
            },
            // Matched unit structures (common-centroid ladder, divider
            // pairs) sit well below 0.2 % in 65 nm — these σ values set
            // the I1–I3 window widths and thus the smallest detectable
            // charge error.
            refbuf: RefBufMismatch {
                offset: rng.normal(0.0, 0.002),
                gain_err: rng.normal(0.0, 0.003),
                ladder,
            },
            sc: ScMismatch {
                cm_p: rng.normal(0.0, 0.002),
                cl_p: rng.normal(0.0, 0.004),
                cm_n: rng.normal(0.0, 0.002),
                cl_n: rng.normal(0.0, 0.004),
            },
            vcm: VcmMismatch {
                r_top: rng.normal(0.0, 0.002),
                r_bot: rng.normal(0.0, 0.002),
                buf_offset: rng.normal(0.0, 0.001),
            },
            chain: ComparatorMismatch {
                preamp_offset: rng.normal(0.0, 0.004),
                vcm2_err: rng.normal(0.0, 0.002),
                gain_err: rng.normal(0.0, 0.03),
                latch_offset: rng.normal(0.0, 0.006),
            },
        }
    }
}

impl SarAdc {
    /// Builds a nominal (zero-mismatch, defect-free) ADC instance.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: AdcConfig) -> Self {
        cfg.validate();
        let bandgap = Bandgap::new(&cfg);
        let vbg_nominal = bandgap
            .solve()
            .expect("nominal bandgap solves without a budget")
            .vbg;
        let refbuf = ReferenceBuffer::new(&cfg, vbg_nominal);
        let sd1 = SubDac::new(BlockKind::SubDac1);
        let sd2 = SubDac::new(BlockKind::SubDac2);
        let sc = ScArray::new(&cfg);
        let chain = ComparatorChain::new(&cfg, vbg_nominal);
        let vcm = VcmGenerator::new(&cfg);

        let mut catalog = Vec::new();
        let mut ranges = Vec::new();
        for (sb, comps) in [
            (SubBlock::Bandgap, bandgap.catalog()),
            (SubBlock::RefBuf, refbuf.catalog()),
            (SubBlock::SubDac1, sd1.catalog()),
            (SubBlock::SubDac2, sd2.catalog()),
            (SubBlock::Sc, sc.catalog()),
            (SubBlock::Vcm, vcm.catalog()),
            (SubBlock::Chain, chain.catalog()),
        ] {
            let start = catalog.len();
            catalog.extend(comps);
            ranges.push((sb, start..catalog.len()));
        }

        Self {
            cfg,
            bandgap,
            refbuf,
            sd1,
            sd2,
            sc,
            chain,
            vcm,
            control: SarControl::new(),
            phase: PhaseGenerator::new(),
            catalog: catalog.into(),
            ranges,
            injected: None,
            nominal: Arc::default(),
            own: Arc::default(),
        }
    }

    /// Builds an instance with a random process-mismatch sample.
    pub fn with_mismatch(cfg: AdcConfig, rng: &mut Rng) -> Self {
        let mut adc = Self::new(cfg);
        adc.apply_mismatch(&AdcMismatch::sample(rng));
        adc
    }

    /// Applies an explicit mismatch sample.
    pub fn apply_mismatch(&mut self, m: &AdcMismatch) {
        self.bandgap.set_mismatch(m.bandgap);
        self.refbuf.set_mismatch(m.refbuf.clone());
        self.sc.set_mismatch(m.sc);
        self.vcm.set_mismatch(m.vcm);
        self.chain.set_mismatch(m.chain);
        self.nominal = Arc::default();
        self.own = Arc::default();
    }

    /// The electrical configuration.
    pub fn config(&self) -> &AdcConfig {
        &self.cfg
    }

    /// The SAR control block (digital; exposed for frame timing).
    pub fn control(&self) -> &SarControl {
        &self.control
    }

    /// The phase generator block.
    pub fn phase_generator(&self) -> &PhaseGenerator {
        &self.phase
    }

    /// The Vcm generator block (exposed for the AC-BIST extension, which
    /// probes its ripple-attenuation transfer function).
    pub fn vcm_generator(&self) -> &VcmGenerator {
        &self.vcm
    }

    /// The bandgap block.
    pub fn bandgap(&self) -> &Bandgap {
        &self.bandgap
    }

    /// The reference buffer (amp + ladder) block.
    pub fn reference_buffer(&self) -> &ReferenceBuffer {
        &self.refbuf
    }

    /// The SUBDAC1 block.
    pub fn subdac1(&self) -> &SubDac {
        &self.sd1
    }

    /// The SUBDAC2 block.
    pub fn subdac2(&self) -> &SubDac {
        &self.sd2
    }

    /// The switched-capacitor array block.
    pub fn sc_array(&self) -> &ScArray {
        &self.sc
    }

    /// The nominal (defect-free) bandgap voltage captured at construction.
    pub fn vbg_nominal(&self) -> f64 {
        self.refbuf.vbg_nominal()
    }

    /// Structural netlist snapshots of every analog block, labeled — the
    /// inputs of the `symbist-lint` netlist rules. Snapshots reflect the
    /// instance's current defect/mismatch state; a freshly constructed ADC
    /// yields the nominal circuits.
    ///
    /// The reference network appears at three (m, l) code pairs — both
    /// rails and mid-scale — because tap selection changes which mux
    /// resistors exist.
    pub fn lint_netlists(&self) -> Vec<(String, Netlist)> {
        let vbg = self.vbg_nominal();
        let mut out = vec![
            ("bandgap".to_string(), self.bandgap.netlist()),
            ("vcm generator".to_string(), self.vcm.netlist()),
        ];
        for (m, l) in [(0u8, 0u8), (16, 16), (31, 31)] {
            out.push((
                format!("reference network @ m={m} l={l}"),
                crate::refnet::ref_network_netlist(&self.refbuf, &self.sd1, &self.sd2, vbg, m, l),
            ));
        }
        let pair = self.sc.fd_pair();
        out.push(("sc array (P side)".to_string(), pair.p));
        out.push(("sc array (N side)".to_string(), pair.n));
        out
    }

    /// The sub-block owning catalog entry `component`, and the start of its
    /// catalog range.
    fn owner(&self, component: usize) -> (SubBlock, usize) {
        self.ranges
            .iter()
            .find(|(_, r)| r.contains(&component))
            .map(|(sb, r)| (*sb, r.start))
            .expect("ranges cover the catalog")
    }

    /// Whether the injected defect, if any, lies outside sub-block `sb`.
    fn healthy(&self, sb: SubBlock) -> bool {
        self.injected
            .is_none_or(|site| self.owner(site.component).0 != sb)
    }

    /// The value in `cell` of the nominal or this state's store, solved by
    /// `solve` on first use under the store's fill lock, so a clone on
    /// another thread waits instead of solving it again. A nominal fill
    /// runs with the thread `SolveBudget` suspended: charging it to
    /// whichever clone asks first would make verdicts depend on scheduling.
    fn solved<T: Copy>(
        &self,
        nominal: bool,
        cell: impl FnOnce(&Solves) -> &OnceLock<T>,
        solve: impl FnOnce() -> Result<T, CircuitError>,
    ) -> Result<T, CircuitError> {
        let store = if nominal { &self.nominal } else { &self.own };
        let cell = cell(store);
        if let Some(value) = cell.get() {
            return Ok(*value);
        }
        let _filling = store.filling.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(value) = cell.get() {
            return Ok(*value);
        }
        let budget = nominal.then(|| set_thread_solve_budget(None));
        let value = solve();
        if let Some(budget) = budget {
            set_thread_solve_budget(budget);
        }
        let value = value?;
        Ok(*cell.get_or_init(|| value))
    }

    /// The bandgap output, from the nominal store when `nominal` (solved
    /// on a defect-free copy of the bandgap, which a bandgap defect
    /// compares its own against) or else from this state's.
    fn vbg(&self, nominal: bool) -> Result<f64, CircuitError> {
        self.solved(
            nominal,
            |s| &s.vbg,
            || {
                let mut bandgap = self.bandgap.clone();
                if nominal {
                    bandgap.set_defect(None);
                }
                Ok(bandgap.solve()?.vbg)
            },
        )
    }

    /// Whether this instance builds the defect-free reference network at
    /// select codes `(m, l)`: the reference buffer is healthy, `vbg` is
    /// the nominal one bit for bit, and neither sub-DAC's defect alters
    /// its code.
    fn nominal_ladder(&self, vbg: f64, m: u8, l: u8) -> Result<bool, CircuitError> {
        Ok(self.healthy(SubBlock::RefBuf)
            && !self.sd1.alters(m, &self.cfg)
            && !self.sd2.alters(l, &self.cfg)
            && vbg.to_bits() == self.vbg(true)?.to_bits())
    }

    /// The ladder outputs at select codes `(m, l)`, from the store
    /// [`SarAdc::nominal_ladder`] picks; either way the solve runs on this
    /// instance's own blocks.
    fn ladder(&self, vbg: f64, m: u8, l: u8) -> Result<RefOutputs, CircuitError> {
        self.solved(
            self.nominal_ladder(vbg, m, l)?,
            |s| s.ladder(m, l),
            || solve_ref_network(&self.refbuf, &self.sd1, &self.sd2, vbg, m, l),
        )
    }

    /// Samples the FD input `din`: resolves the sample bias (`vbg`, the
    /// ladder at code (0, 0), the Vcm generator fed from that code's top
    /// tap `VREF[32]`), solved once per state, and starts an SC-array
    /// session (`record`: with full waveforms).
    ///
    /// The input is biased on the exported common-mode pin, the ladder
    /// mid-tap `VREF[16]`, as external circuitry (and the ATE during BIST)
    /// does. Referencing the stimulus to this pin keeps the I3 invariance
    /// immune to absolute reference-scale error while leaving
    /// Vcm-generator defects fully observable.
    fn sample(&self, din: f64, record: bool) -> Result<Sample<'_>, CircuitError> {
        let vbg = self.vbg(self.healthy(SubBlock::Bandgap))?;
        let zero = self.ladder(vbg, 0, 0)?;
        // Always this state's own: a nominal Vcm output would take its
        // Newton iteration out of every defect's budget charge and move
        // budget-limited verdicts.
        let vcm = self.solved(false, |s| &s.vcm, || self.vcm.solve(zero.vref32))?;
        let (in_p, in_n) = (zero.vref16 + din / 2.0, zero.vref16 - din / 2.0);
        Ok(Sample {
            adc: self,
            vbg,
            session: self.sc.begin(in_p, in_n, vcm, record)?,
        })
    }

    /// Runs the SymBIST counter stimulus (paper §IV-2): the FD input is
    /// held at the DC value `din` (externally supplied, common mode at the
    /// nominal `vcm`), a 5-bit counter sweeps all 32 codes onto both
    /// sub-DACs, and every invariance node is observed per code.
    pub fn try_symbist_observations(&self, din: f64) -> Result<Vec<TestObservation>, CircuitError> {
        let mut stream = self.try_observation_stream(din)?;
        (0..32u8).map(|c| stream.try_observe(c).copied()).collect()
    }

    /// Starts a lazy observation stream over the counter stimulus.
    ///
    /// The SC array holds charge across codes, so code `c` can only be
    /// observed after codes `0..c` have been applied; the stream advances
    /// the analog simulation exactly as far as requested. This is what
    /// makes stop-on-detection genuinely cheaper: a defect caught at
    /// counter code 3 costs 4 conversion cycles of simulation, not 32.
    ///
    /// An injected defect that leaves the reference network singular or
    /// the SC array without an operating point surfaces as `Err`.
    pub fn try_observation_stream(&self, din: f64) -> Result<ObservationStream<'_>, CircuitError> {
        Ok(ObservationStream {
            sample: self.sample(din, false)?,
            computed: Vec::with_capacity(32),
        })
    }

    /// Full-waveform run of the invariance-I3 signal `DAC+ + DAC−` over the
    /// counter stimulus — the paper's Fig. 5 trace.
    pub fn try_invariance3_trace(&self, din: f64) -> Result<ScTraces, CircuitError> {
        let mut sample = self.sample(din, true)?;
        for c in 0..32u8 {
            sample.cycle(c, c)?;
        }
        Ok(sample.session.finish())
    }

    /// Converts one differential input sample through the full 12-pulse
    /// frame: sample, ten comparator-in-the-loop bit decisions, capture.
    ///
    /// Returns the captured 10-bit output code.
    pub fn try_convert(&self, din: f64) -> Result<u16, CircuitError> {
        let mut sar = SarLogic::new(self.cfg.bits);
        let mut sample = None;
        for cycle in 0..self.cfg.pulses_per_conversion {
            match self.control.pulse(cycle) {
                Pulse::Sample => {
                    sar.begin();
                    sample = Some(self.sample(din, false)?);
                }
                Pulse::Bit(_) => {
                    let trial = sar.trial_code();
                    let sample = sample.as_mut().expect("sample pulse precedes bits");
                    let (_, decision) = sample.cycle((trial >> 5) as u8, (trial & 0x1F) as u8)?;
                    // decision true ⇔ DAC level above the input.
                    sar.apply_decision(decision);
                }
                Pulse::Capture => sar.capture(),
            }
        }
        Ok(sar.output().expect("capture pulse ran"))
    }

    /// The ideal decision level (differential volts) of code `c` for this
    /// architecture: `(c − 528)/528 · VREF_FS`.
    pub fn ideal_level(&self, code: u16) -> f64 {
        (code as f64 - 528.0) / 528.0 * self.cfg.vref_fs
    }
}

/// One sampled input: what its code cycles share, and the SC-array
/// session holding its charge; see [`SarAdc::sample`].
#[derive(Debug)]
struct Sample<'a> {
    adc: &'a SarAdc,
    vbg: f64,
    session: ScSession,
}

impl Sample<'_> {
    /// One code cycle: the ladder outputs at select codes `(m, l)` drive
    /// the sub-DACs into the SC array for one clock cycle, and the
    /// comparator chain reads the settled DAC±. Returns what the checkers
    /// observe (`code` is `m`) and the latch decision.
    fn cycle(&mut self, m: u8, l: u8) -> Result<(TestObservation, bool), CircuitError> {
        let r = self.adc.ladder(self.vbg, m, l)?;
        let (dac_p, dac_n) = self.session.apply_code(
            SideLevels {
                m: r.m_plus,
                l: r.l_plus,
            },
            SideLevels {
                m: r.m_minus,
                l: r.l_minus,
            },
        )?;
        let (pre, q) = self.adc.chain.compare(dac_p, dac_n, self.vbg);
        let obs = TestObservation {
            code: m,
            m_plus: r.m_plus,
            m_minus: r.m_minus,
            l_plus: r.l_plus,
            l_minus: r.l_minus,
            dac_plus: dac_p,
            dac_minus: dac_n,
            lin_plus: pre.lin_p,
            lin_minus: pre.lin_n,
            q_plus: q.q_p,
            q_minus: q.q_n,
            vref32: r.vref32,
            vref16: r.vref16,
            vdd: self.adc.cfg.vdd,
        };
        Ok((obs, q.decision))
    }
}

/// A lazily-advanced run of the counter stimulus; see
/// [`SarAdc::try_observation_stream`].
#[derive(Debug)]
pub struct ObservationStream<'a> {
    sample: Sample<'a>,
    computed: Vec<TestObservation>,
}

impl ObservationStream<'_> {
    /// Observes counter code `code`, advancing the analog simulation as
    /// needed. Earlier codes are computed (and cached) on the way.
    ///
    /// # Panics
    ///
    /// Panics if `code >= 32`.
    pub fn try_observe(&mut self, code: u8) -> Result<&TestObservation, CircuitError> {
        assert!(code < 32, "counter codes are 5-bit");
        while self.computed.len() <= code as usize {
            let c = self.computed.len() as u8;
            let (obs, _) = self.sample.cycle(c, c)?;
            self.computed.push(obs);
        }
        Ok(&self.computed[code as usize])
    }
}

impl Faultable for SarAdc {
    fn components(&self) -> &[ComponentInfo] {
        &self.catalog
    }

    fn inject(&mut self, site: DefectSite) {
        check_site(&self.catalog, site);
        self.clear_defects();
        let (sb, start) = self.owner(site.component);
        let local = site.component - start;
        let d = Some((local, site.kind));
        match sb {
            SubBlock::Bandgap => self.bandgap.set_defect(d),
            SubBlock::RefBuf => self.refbuf.set_defect(d),
            SubBlock::SubDac1 => self.sd1.set_defect(d),
            SubBlock::SubDac2 => self.sd2.set_defect(d),
            SubBlock::Sc => self.sc.set_defect(d),
            SubBlock::Vcm => self.vcm.set_defect(d),
            SubBlock::Chain => self.chain.set_defect(d),
        }
        self.injected = Some(site);
    }

    fn clear_defects(&mut self) {
        self.bandgap.set_defect(None);
        self.refbuf.set_defect(None);
        self.sd1.set_defect(None);
        self.sd2.set_defect(None);
        self.sc.set_defect(None);
        self.vcm.set_defect(None);
        self.chain.set_defect(None);
        self.injected = None;
        self.own = Arc::default();
    }

    fn injected(&self) -> Option<DefectSite> {
        self.injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ComponentKind, DefectKind};
    use symbist_circuit::dc::SolveBudget;

    fn adc() -> SarAdc {
        SarAdc::new(AdcConfig::default())
    }

    #[test]
    fn catalog_covers_all_blocks() {
        let a = adc();
        for block in BlockKind::ALL {
            assert!(
                a.components().iter().any(|c| c.block == block),
                "no components for {block}"
            );
        }
        // Order matches Table I grouping expectations.
        assert!(
            a.components().len() > 600,
            "catalog size {}",
            a.components().len()
        );
    }

    #[test]
    fn clones_share_one_catalog() {
        let base = adc();
        let mut clone = base.clone();
        assert!(std::ptr::eq(base.components(), clone.components()));
        clone.inject(DefectSite {
            component: 0,
            kind: DefectKind::Short,
        });
        assert!(std::ptr::eq(base.components(), clone.components()));
        assert_eq!(base.injected(), None);
        assert!(clone.injected().is_some());
    }

    #[test]
    fn observations_satisfy_all_invariances_when_healthy() -> Result<(), CircuitError> {
        let a = adc();
        let obs = a.try_symbist_observations(0.05)?;
        assert_eq!(obs.len(), 32);
        for o in &obs {
            assert!(
                (o.m_plus + o.m_minus - o.vref32).abs() < 1e-4,
                "I1 @ {}",
                o.code
            );
            assert!(
                (o.l_plus + o.l_minus - o.vref32).abs() < 1e-4,
                "I2 @ {}",
                o.code
            );
            assert!(
                (o.dac_plus + o.dac_minus - 2.0 * o.vref16).abs() < 5e-3,
                "I3 @ {}: {}",
                o.code,
                o.dac_plus + o.dac_minus
            );
            // I4 holds at every code: preamp saturation is symmetric.
            assert!(
                (o.lin_plus + o.lin_minus - 2.0 * a.config().vcm2).abs() < 5e-3,
                "I4 @ {}",
                o.code
            );
            // I5: latch decision consistent with the preamp sign.
            assert_eq!(
                o.q_plus > o.q_minus,
                o.lin_plus > o.lin_minus,
                "I5 @ {}",
                o.code
            );
            // I6.
            assert!(
                (o.q_plus + o.q_minus - o.vdd).abs() < 1e-9,
                "I6 @ {}",
                o.code
            );
        }
        Ok(())
    }

    #[test]
    fn conversion_is_monotone_and_centered() -> Result<(), CircuitError> {
        let a = adc();
        let codes = [-0.9, -0.5, -0.1, 0.0, 0.1, 0.5, 0.9]
            .iter()
            .map(|d| a.try_convert(*d))
            .collect::<Result<Vec<u16>, _>>()?;
        assert!(
            codes.windows(2).all(|w| w[1] >= w[0]),
            "monotone: {codes:?}"
        );
        // ΔIN = 0 → code near 528 (the architectural midpoint).
        assert!((codes[3] as i32 - 528).abs() <= 2, "mid code {}", codes[3]);
        Ok(())
    }

    #[test]
    fn conversion_matches_ideal_levels() -> Result<(), CircuitError> {
        let a = adc();
        for target in [100u16, 300, 528, 700, 1000] {
            // An input exactly between level(target−1) and level(target)
            // must convert to the target (within 1 LSB of settling error).
            let din = (a.ideal_level(target) + a.ideal_level(target.saturating_sub(1))) / 2.0;
            let got = a.try_convert(din)?;
            assert!(
                (got as i32 - target as i32).abs() <= 1,
                "target {target} got {got}"
            );
        }
        Ok(())
    }

    #[test]
    fn inject_routes_to_the_right_block() -> Result<(), CircuitError> {
        let mut a = adc();
        // Find a Vcm-generator resistor and short it.
        let idx = a
            .components()
            .iter()
            .position(|c| c.block == BlockKind::VcmGenerator && c.kind == ComponentKind::Resistor)
            .unwrap();
        a.inject(DefectSite {
            component: idx,
            kind: DefectKind::Short,
        });
        assert!(a.injected().is_some());
        let obs = a.try_symbist_observations(0.0)?;
        // Vcm defect: I3 deviates for every code (Fig. 5's always-detectable case).
        for o in &obs {
            assert!(
                (o.dac_plus + o.dac_minus - 2.0 * o.vref16).abs() > 0.2,
                "I3 must deviate at code {}",
                o.code
            );
        }
        a.clear_defects();
        let obs = a.try_symbist_observations(0.0)?;
        assert!((obs[5].dac_plus + obs[5].dac_minus - 2.0 * obs[5].vref16).abs() < 5e-3);
        Ok(())
    }

    #[test]
    fn injection_replaces_previous_defect() {
        let mut a = adc();
        a.inject(DefectSite {
            component: 0,
            kind: DefectKind::Short,
        });
        a.inject(DefectSite {
            component: 3,
            kind: DefectKind::Open,
        });
        assert_eq!(a.injected().unwrap().component, 3);
    }

    #[test]
    fn mismatch_instances_stay_within_window_scale() -> Result<(), CircuitError> {
        let mut rng = Rng::seed_from_u64(42);
        let a = SarAdc::with_mismatch(AdcConfig::default(), &mut rng);
        let obs = a.try_symbist_observations(0.0)?;
        for o in &obs {
            // Mismatch moves invariance signals by millivolts, not tenths.
            assert!((o.m_plus + o.m_minus - o.vref32).abs() < 0.02);
            assert!((o.dac_plus + o.dac_minus - 2.0 * o.vref16).abs() < 0.03);
        }
        Ok(())
    }

    /// Every state change starts a fresh own store (and `apply_mismatch` a
    /// fresh nominal one): an instance warmed by conversion sweeps
    /// converts, after each change, exactly as a fresh instance in the same
    /// state. Both defects alter ladder solves the sweep visits.
    #[test]
    fn state_changes_reset_the_ladder_memo() -> Result<(), CircuitError> {
        let sweep = |a: &SarAdc| -> Result<Vec<u16>, CircuitError> {
            (-16..=16)
                .map(|i| a.try_convert(f64::from(i) * 0.07))
                .collect()
        };
        let mut warm = adc();
        let nominal = sweep(&warm)?;
        for site in [
            site("subdac1/mux_p/tap20/swn", DefectKind::ShortDs),
            site("refbuf/ladder/r20", DefectKind::Short),
        ] {
            warm.inject(site);
            let mut fresh = adc();
            fresh.inject(site);
            let defective = sweep(&fresh)?;
            assert_ne!(defective, nominal, "{site:?} changes the sweep");
            assert_eq!(sweep(&warm)?, defective, "inject {site:?}");
        }
        warm.clear_defects();
        assert_eq!(sweep(&warm)?, nominal, "clear_defects");

        let mismatch = AdcMismatch::sample(&mut Rng::seed_from_u64(11));
        warm.apply_mismatch(&mismatch);
        let mut fresh = adc();
        fresh.apply_mismatch(&mismatch);
        let varied = sweep(&fresh)?;
        assert_ne!(varied, nominal, "the mismatch changes the sweep");
        assert_eq!(sweep(&warm)?, varied, "apply_mismatch");
        Ok(())
    }

    /// Ladder outputs as raw bits, for bit-for-bit comparison.
    fn ladder_bits(r: Result<RefOutputs, CircuitError>) -> Result<[u64; 6], CircuitError> {
        r.map(|o| [o.m_plus, o.m_minus, o.l_plus, o.l_minus, o.vref16, o.vref32].map(f64::to_bits))
    }

    /// The values an instance uses against a direct `Bandgap::solve`,
    /// `solve_ref_network` and `VcmGenerator::solve` on its own blocks: the
    /// sample bias, the 32 counter codes `(c, c)` of its observation stream
    /// and the select-code pairs `(c, 31 − c)`.
    fn assert_solves_match_direct(a: &SarAdc, label: &str) -> Result<(), CircuitError> {
        let direct_vbg = a.bandgap.solve()?.vbg;
        let direct_zero = solve_ref_network(&a.refbuf, &a.sd1, &a.sd2, direct_vbg, 0, 0)?;
        let mut stream = a.try_observation_stream(0.2)?;
        let vbg = stream.sample.vbg;
        assert_eq!(vbg.to_bits(), direct_vbg.to_bits(), "{label}: vbg");
        assert_eq!(
            a.own.vcm.get().copied().map(f64::to_bits),
            Some(a.vcm.solve(direct_zero.vref32)?.to_bits()),
            "{label}: vcm"
        );
        for c in 0..32u8 {
            let observed = stream.try_observe(c).map(|o| RefOutputs {
                m_plus: o.m_plus,
                m_minus: o.m_minus,
                l_plus: o.l_plus,
                l_minus: o.l_minus,
                vref16: o.vref16,
                vref32: o.vref32,
            });
            for ((m, l), used) in [((c, c), observed), ((c, 31 - c), a.ladder(vbg, c, 31 - c))] {
                let direct = solve_ref_network(&a.refbuf, &a.sd1, &a.sd2, direct_vbg, m, l);
                assert_eq!(
                    ladder_bits(used),
                    ladder_bits(direct),
                    "{label}: ladder @ ({m}, {l})"
                );
            }
        }
        Ok(())
    }

    /// The reuse oracle over the whole defect universe: whatever an
    /// instance takes from the shared nominal store equals what it would
    /// solve itself, bit for bit. The first instance to fill the nominal
    /// `vbg` carries a bandgap defect.
    #[test]
    fn every_defect_sees_its_own_upstream_values() -> Result<(), CircuitError> {
        let base = adc();
        let mut defects = 0;
        for (component, info) in base.components().iter().enumerate() {
            for &kind in info.kind.applicable_defects() {
                let mut a = base.clone();
                let site = DefectSite { component, kind };
                a.inject(site);
                assert_solves_match_direct(&a, &format!("{site:?}"))?;
                defects += 1;
            }
        }
        assert_eq!(defects, 3922);
        assert!(base.nominal.vbg.get().is_some());
        let filled = |m, l| base.nominal.ladder(m, l).get().is_some();
        assert!((0..32).all(|c| filled(c, c) && filled(c, 31 - c)));
        Ok(())
    }

    /// Newton iterations `run` charges to a fresh thread budget.
    fn newton_spent<T>(run: impl FnOnce() -> Result<T, CircuitError>) -> Result<u64, CircuitError> {
        const ALLOWANCE: u64 = 1_000_000;
        let prev = set_thread_solve_budget(Some(SolveBudget {
            deadline: None,
            newton_iters: Some(ALLOWANCE),
        }));
        let ran = run();
        let left = set_thread_solve_budget(prev).and_then(|b| b.newton_iters);
        ran?;
        Ok(ALLOWANCE - left.expect("the budget was installed"))
    }

    /// A catalog site by component name.
    fn site(name: &str, kind: DefectKind) -> DefectSite {
        DefectSite {
            component: adc()
                .components()
                .iter()
                .position(|c| c.name == name)
                .expect("a catalog component"),
            kind,
        }
    }

    /// Nominal cells fill outside the thread budget: with identical fresh
    /// own stores, an observation sweep and a conversion spend exactly as
    /// much on a cold nominal store as on a warm one, on the defect-free
    /// instance and on defects in the bandgap, the ladder, a sub-DAC and
    /// the SC array.
    #[test]
    fn nominal_fills_charge_nothing_to_the_thread_budget() -> Result<(), CircuitError> {
        let run = |base: &SarAdc, site: Option<DefectSite>| {
            let mut a = base.clone();
            match site {
                Some(site) => a.inject(site),
                None => a.clear_defects(),
            }
            newton_spent(|| {
                a.try_symbist_observations(0.2)?;
                a.try_convert(0.3)
            })
        };
        for site in [
            None,
            Some(site("bandgap/r2", DefectKind::ParamHigh)),
            Some(site("refbuf/ladder/r20", DefectKind::Short)),
            Some(site("subdac1/mux_p/tap20/swn", DefectKind::ShortDs)),
            Some(site("scarray/p/c_main", DefectKind::ParamLow)),
        ] {
            let (cold, warm) = (adc(), adc());
            run(&warm, None)?;
            assert!(cold.nominal.vbg.get().is_none());
            assert_eq!(run(&cold, site)?, run(&warm, site)?, "{site:?}");
            assert!(
                cold.nominal.vbg.get().is_some(),
                "the budgeted run filled it"
            );
        }
        Ok(())
    }

    /// A state solves its sample bias once: after the first conversion of
    /// a bandgap-defect instance, converting the same input again charges
    /// what a defect-free conversion charges, so no bandgap or Vcm Newton
    /// iteration.
    #[test]
    fn conversions_solve_the_sample_bias_once_per_state() -> Result<(), CircuitError> {
        let (healthy, mut defective) = (adc(), adc());
        defective.inject(site("bandgap/r2", DefectKind::ParamHigh));
        let din = 0.3;
        let first = newton_spent(|| defective.try_convert(din))?;
        let own_vbg = defective.own.vbg.get().expect("the conversion solved vbg");
        assert_ne!(
            Some(own_vbg),
            defective.nominal.vbg.get(),
            "the defect moves vbg"
        );
        healthy.try_convert(din)?;
        let again = newton_spent(|| defective.try_convert(din))?;
        assert!(first > again, "the first conversion solved the bias");
        assert_eq!(again, newton_spent(|| healthy.try_convert(din))?);
        Ok(())
    }

    /// Whether two instances share one store of SC-array step maps.
    fn share_sc_maps(a: &SarAdc, b: &SarAdc) -> bool {
        Arc::ptr_eq(a.sc.maps_store(), b.sc.maps_store())
    }

    #[test]
    fn clones_after_apply_mismatch_never_see_the_old_snapshot() -> Result<(), CircuitError> {
        let base = adc();
        let nominal = base.clone().try_symbist_observations(0.2)?;
        assert!(
            base.nominal.vbg.get().is_some(),
            "the sweep filled the nominal store"
        );
        let rows = base.nominal.ladder.iter().filter(|row| row.get().is_some());
        assert_eq!(rows.count(), 1, "the counter codes share one row");
        assert!(
            base.sc.maps_store().get().is_some_and(Option::is_some),
            "the sweep built the SC-array maps"
        );

        let mut varied = base.clone();
        varied.apply_mismatch(&AdcMismatch::sample(&mut Rng::seed_from_u64(3)));
        assert!(!Arc::ptr_eq(&varied.nominal, &base.nominal));
        assert!(!Arc::ptr_eq(&varied.own, &base.own));
        assert!(!share_sc_maps(&varied, &base));
        let clone = varied.clone();
        assert!(Arc::ptr_eq(&clone.nominal, &varied.nominal));
        assert!(share_sc_maps(&clone, &varied));
        assert_solves_match_direct(&clone, "clone of the mismatched instance")?;
        assert_ne!(clone.try_symbist_observations(0.2)?, nominal);
        assert_ne!(
            varied.sc.maps_store().get(),
            base.sc.maps_store().get(),
            "the mismatched maps are the mismatched array's own"
        );
        // The instance cloned from stays on the store of its own state.
        assert_eq!(base.clone().try_symbist_observations(0.2)?, nominal);
        Ok(())
    }

    /// `inject` clears every block's defect first, so the SC array's
    /// `set_defect(None)` runs on every defect clone: it must keep the
    /// shared maps. A clone carrying an SC-array defect never builds or
    /// uses them.
    #[test]
    fn sc_maps_are_shared_by_every_clone_without_an_sc_defect() -> Result<(), CircuitError> {
        let base = adc();
        let site_in = |block: BlockKind| {
            let component = base
                .components()
                .iter()
                .position(|c| c.block == block)
                .expect("every block has components");
            DefectSite {
                component,
                kind: base.components()[component].kind.applicable_defects()[0],
            }
        };
        let mut sc_defect = base.clone();
        sc_defect.inject(site_in(BlockKind::ScArray));
        assert!(share_sc_maps(&sc_defect, &base));
        sc_defect.try_symbist_observations(0.2)?;
        sc_defect.try_convert(0.1)?;
        assert!(
            base.sc.maps_store().get().is_none(),
            "an SC-array defect built the shared maps"
        );

        let mut vcm_defect = base.clone();
        vcm_defect.inject(site_in(BlockKind::VcmGenerator));
        vcm_defect.try_symbist_observations(0.2)?;
        assert!(share_sc_maps(&vcm_defect, &base));
        assert!(base.sc.maps_store().get().is_some_and(Option::is_some));
        sc_defect.clear_defects();
        vcm_defect.inject(site_in(BlockKind::ScArray));
        vcm_defect.clear_defects();
        for a in [&sc_defect, &vcm_defect] {
            assert!(share_sc_maps(a, &base));
        }
        Ok(())
    }

    /// The folded observation sweep against the stepped Fig. 5 path, which
    /// runs one time step at a time, on every defect of the universe: the
    /// settled DAC± within the step operator oracle's 1e-9 V, and the same
    /// error where a defect does not simulate.
    #[test]
    fn folded_sweeps_match_stepped_traces_on_every_defect() {
        let base = adc();
        let mut worst = 0.0f64;
        let mut defects = 0;
        for (component, info) in base.components().iter().enumerate() {
            for &kind in info.kind.applicable_defects() {
                let mut a = base.clone();
                let site = DefectSite { component, kind };
                a.inject(site);
                match (
                    a.try_symbist_observations(0.2),
                    a.try_invariance3_trace(0.2),
                ) {
                    (Ok(folded), Ok(stepped)) => {
                        assert_eq!(stepped.settled.len(), 32);
                        for (o, (p, n)) in folded.iter().zip(&stepped.settled) {
                            worst = worst.max((o.dac_plus - p).abs());
                            worst = worst.max((o.dac_minus - n).abs());
                        }
                    }
                    (folded, stepped) => {
                        assert_eq!(folded.err(), stepped.err(), "{site:?}");
                    }
                }
                defects += 1;
            }
        }
        assert_eq!(defects, 3922);
        assert!(worst <= 1e-9, "largest |folded - stepped| {worst:e} V");
        eprintln!("largest |folded - stepped| DAC±: {worst:e} V");
    }

    #[test]
    fn fig5_trace_has_32_conversion_cycles() -> Result<(), CircuitError> {
        let a = adc();
        let tr = a.try_invariance3_trace(0.1)?;
        assert_eq!(tr.settled.len(), 32);
        assert!(!tr.sum.is_empty());
        // Total time: 33 cycles (1 sample + 32 codes).
        let expect = 33.0 / a.config().fclk;
        let last = *tr.sum.times().last().unwrap();
        assert!((last - expect).abs() < 2.0 / a.config().fclk);
        Ok(())
    }
}
