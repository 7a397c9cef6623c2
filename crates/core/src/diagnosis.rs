//! Defect diagnosis from BIST signatures (extension).
//!
//! A SymBIST run yields more than one pass/fail bit: *which* invariance
//! fired at *which* counter codes is a signature that localizes the
//! defect. This module builds a fault dictionary — signature per defect,
//! computed once from the defect universe — and ranks candidate defects
//! for an observed signature by Hamming similarity, turning the BIST into
//! a diagnosis instrument (the classic dictionary method of digital test,
//! applied to the analog invariances).

use std::collections::HashMap;

use symbist_adc::fault::{DefectSite, Faultable};
use symbist_adc::SarAdc;

use crate::invariance::InvarianceId;
use crate::session::SymBist;
use crate::stimulus::StimulusSpec;

/// One signature position: clean, or fired with the violation polarity
/// and a coarse severity (the window comparator is really two comparators,
/// and a second, wider threshold pair costs almost nothing — real
/// diagnosis-oriented checkers are built exactly this way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fire {
    /// Inside the window.
    #[default]
    Clean,
    /// Below the lower bound (within 8δ).
    Low,
    /// Far below the lower bound (beyond 8δ).
    LowSevere,
    /// Above the upper bound (within 8δ; the only firing state for the
    /// digital I5).
    High,
    /// Far above the upper bound.
    HighSevere,
}

/// A detection signature: one tri-state per (invariance, counter code).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    bits: Vec<Fire>,
}

impl Signature {
    /// Number of signature positions (6 invariances × 2⁵ codes).
    pub const LEN: usize = 6 * StimulusSpec::CODES as usize;

    /// Builds a signature from a full (non-aborted) BIST result, using the
    /// calibration's window widths to band the severity.
    pub fn from_result(
        result: &crate::session::BistResult,
        calibration: &crate::calibrate::Calibration,
    ) -> Self {
        let mut bits = vec![Fire::Clean; Self::LEN];
        for d in &result.detections {
            let delta = calibration.deltas[d.invariance.index()].max(1e-12);
            let severe = d.deviation.abs() > 8.0 * delta;
            bits[Self::index(d.invariance, d.code)] = match (d.deviation < 0.0, severe) {
                (true, false) => Fire::Low,
                (true, true) => Fire::LowSevere,
                (false, false) => Fire::High,
                (false, true) => Fire::HighSevere,
            };
        }
        Self { bits }
    }

    fn index(id: InvarianceId, code: u8) -> usize {
        id.index() * StimulusSpec::CODES as usize + code as usize
    }

    /// Whether anything fired.
    pub fn is_clean(&self) -> bool {
        self.bits.iter().all(|b| *b == Fire::Clean)
    }

    /// Number of fired positions.
    pub fn weight(&self) -> usize {
        self.bits.iter().filter(|b| **b != Fire::Clean).count()
    }

    /// Number of differing positions.
    pub fn distance(&self, other: &Signature) -> usize {
        self.bits
            .iter()
            .zip(&other.bits)
            .filter(|(a, b)| a != b)
            .count()
    }
}

/// One dictionary entry.
#[derive(Debug, Clone)]
pub struct DictionaryEntry {
    /// The defect.
    pub site: DefectSite,
    /// Component name (for reports).
    pub component: String,
    /// Owning block label.
    pub block: String,
    /// Its signature.
    pub signature: Signature,
}

/// A fault dictionary over a set of defects.
#[derive(Debug, Clone, Default)]
pub struct FaultDictionary {
    entries: Vec<DictionaryEntry>,
}

/// A ranked diagnosis candidate.
#[derive(Debug, Clone)]
pub struct Candidate<'a> {
    /// Dictionary entry.
    pub entry: &'a DictionaryEntry,
    /// Hamming distance to the observed signature (0 = exact match).
    pub distance: usize,
}

impl FaultDictionary {
    /// Builds the dictionary by simulating each defect through the BIST
    /// (full runs, no stop-on-detection — diagnosis needs the complete
    /// signature).
    ///
    /// Defects whose signature is clean (escapes) are excluded: they are
    /// not diagnosable by this instrument.
    ///
    /// # Panics
    ///
    /// Panics if a defect's BIST run fails to simulate.
    pub fn build(engine: &SymBist, base: &SarAdc, defects: &[DefectSite]) -> Self {
        let mut entries = Vec::new();
        for site in defects {
            let mut dut = base.clone();
            dut.inject(*site);
            let result = engine
                .try_run(&dut, false)
                .expect("dictionary defects simulate to completion");
            let signature = Signature::from_result(&result, engine.calibration());
            if signature.is_clean() {
                continue;
            }
            let info = &base.components()[site.component];
            entries.push(DictionaryEntry {
                site: *site,
                component: info.name.clone(),
                block: info.block.label().to_string(),
                signature,
            });
        }
        Self { entries }
    }

    /// Number of diagnosable entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries.
    pub fn entries(&self) -> &[DictionaryEntry] {
        &self.entries
    }

    /// Ranks candidates for an observed signature, closest first; at most
    /// `top` returned.
    pub fn diagnose(&self, observed: &Signature, top: usize) -> Vec<Candidate<'_>> {
        let mut ranked: Vec<Candidate<'_>> = self
            .entries
            .iter()
            .map(|entry| Candidate {
                distance: entry.signature.distance(observed),
                entry,
            })
            .collect();
        ranked.sort_by_key(|c| c.distance);
        ranked.truncate(top);
        ranked
    }

    /// Diagnostic resolution statistics: how many entries share each
    /// signature (unique signatures pinpoint one defect; larger classes
    /// only localize to a set).
    pub fn ambiguity_classes(&self) -> Vec<usize> {
        let mut classes: HashMap<&Signature, usize> = HashMap::new();
        for e in &self.entries {
            *classes.entry(&e.signature).or_insert(0) += 1;
        }
        let mut sizes: Vec<usize> = classes.into_values().collect();
        sizes.sort_unstable();
        sizes
    }

    /// Fraction of entries whose signature localizes the defect to the
    /// correct *block* when diagnosed against the dictionary itself.
    pub fn block_resolution(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let hits = self
            .entries
            .iter()
            .filter(|e| {
                let best = self.diagnose(&e.signature, 1);
                best.first()
                    .map(|c| c.entry.block == e.block)
                    .unwrap_or(false)
            })
            .count();
        hits as f64 / self.entries.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::Calibration;
    use crate::session::Schedule;
    use symbist_adc::fault::DefectKind;
    use symbist_adc::{AdcConfig, BlockKind};
    use symbist_circuit::CircuitError;

    fn engine() -> SymBist {
        let cfg = AdcConfig::default();
        let stim = StimulusSpec::default();
        let cal = Calibration::run(&cfg, &stim, 6, 5.0, 77);
        SymBist::new(cal, stim, Schedule::Sequential)
    }

    fn some_defects(adc: &SarAdc) -> Vec<DefectSite> {
        // A spread of clearly-detectable defects across blocks.
        let find = |needle: &str| {
            adc.components()
                .iter()
                .position(|c| c.name.contains(needle))
                .unwrap()
        };
        vec![
            DefectSite {
                component: find("vcmgen/r_top"),
                kind: DefectKind::Short,
            },
            DefectSite {
                component: find("vcmgen/r_bot"),
                kind: DefectKind::Short,
            },
            DefectSite {
                component: find("scarray/p/c_main"),
                kind: DefectKind::Short,
            },
            DefectSite {
                component: find("subdac1/dec_p/bit3/p"),
                kind: DefectKind::ShortDs,
            },
            DefectSite {
                component: find("complatch/m3"),
                kind: DefectKind::ShortDs,
            },
            DefectSite {
                component: find("preamp/m3"),
                kind: DefectKind::ShortDs,
            },
        ]
    }

    #[test]
    fn dictionary_diagnoses_its_own_defects() {
        let engine = engine();
        let base = SarAdc::new(AdcConfig::default());
        let defects = some_defects(&base);
        let dict = FaultDictionary::build(&engine, &base, &defects);
        assert_eq!(dict.len(), defects.len(), "all six are detectable");
        for entry in dict.entries() {
            // The true defect must be among the exact-match candidates.
            // Ambiguity classes are real: e.g. a Vcm-rail short and an
            // SC main-cap short both saturate I3 at every code, and no
            // checker observes anything that separates them — the
            // dictionary can only localize to the class.
            let candidates = dict.diagnose(&entry.signature, dict.len());
            assert_eq!(candidates[0].distance, 0);
            assert!(
                candidates
                    .iter()
                    .take_while(|c| c.distance == 0)
                    .any(|c| c.entry.site == entry.site),
                "true site missing from the exact-match class of {}",
                entry.component
            );
        }
    }

    #[test]
    fn signatures_separate_blocks() {
        let engine = engine();
        let base = SarAdc::new(AdcConfig::default());
        let dict = FaultDictionary::build(&engine, &base, &some_defects(&base));
        // A latch fault's signature must not be confused with a Vcm fault's.
        let latch = dict
            .entries()
            .iter()
            .find(|e| e.block == BlockKind::ComparatorLatch.label())
            .unwrap();
        let vcm = dict
            .entries()
            .iter()
            .find(|e| e.block == BlockKind::VcmGenerator.label())
            .unwrap();
        assert!(latch.signature.distance(&vcm.signature) > 10);
        // Most (not all: cross-block ambiguity classes exist) entries
        // self-localize to the right block.
        assert!(dict.block_resolution() > 0.6, "{}", dict.block_resolution());
        // And the ambiguity-class histogram is dominated by singletons.
        let classes = dict.ambiguity_classes();
        assert!(classes.iter().filter(|c| **c == 1).count() >= classes.len() / 2);
    }

    #[test]
    fn unseen_signature_localizes_to_the_right_block() -> Result<(), CircuitError> {
        // Diagnose a defect that is NOT in the dictionary: the nearest
        // entry should still come from the same block.
        let engine = engine();
        let base = SarAdc::new(AdcConfig::default());
        let dict = FaultDictionary::build(&engine, &base, &some_defects(&base));
        let unknown = base
            .components()
            .iter()
            .position(|c| c.name.contains("vcmgen/buf/m1"))
            .unwrap();
        let mut dut = base.clone();
        dut.inject(DefectSite {
            component: unknown,
            kind: DefectKind::ShortDs,
        });
        let observed = Signature::from_result(&engine.try_run(&dut, false)?, engine.calibration());
        assert!(!observed.is_clean());
        let best = &dict.diagnose(&observed, 1)[0];
        assert_eq!(
            best.entry.block,
            BlockKind::VcmGenerator.label(),
            "nearest entry {} (d={})",
            best.entry.component,
            best.distance
        );
        Ok(())
    }

    #[test]
    fn escapes_are_excluded() {
        let engine = engine();
        let base = SarAdc::new(AdcConfig::default());
        let esc = base
            .components()
            .iter()
            .position(|c| c.name.contains("vcmgen/r_esr"))
            .unwrap();
        let dict = FaultDictionary::build(
            &engine,
            &base,
            &[DefectSite {
                component: esc,
                kind: DefectKind::Open,
            }],
        );
        assert!(dict.is_empty());
    }
}
