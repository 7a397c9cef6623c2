//! Stage-two static analysis: symmetry orbits, cone-of-influence
//! detectability, and the defect-class partition (rules `SYM-L050`,
//! `SYM-L051`, `SYM-L052`, `SYM-L060`).
//!
//! Where stage one ([`crate::rules`]) asks *"will this netlist simulate?"*,
//! this stage asks *"which defects can the declared invariances even
//! observe, and which are equivalent to each other?"* — all before a
//! single defect is injected. Two facts power it:
//!
//! * **Orbit equivalence.** If an automorphism of the colored netlist
//!   graph (colors: device kind + quantized parameters + per-invariance
//!   observation tags) maps device `u` onto device `v`, then any defect on
//!   `u` produces, up to that same relabeling, the *identical* faulty
//!   network — and because the automorphism fixes every invariance's
//!   observation structure, the invariance deviations coincide. Same-orbit
//!   defects of the same kind are therefore equivalence-class siblings:
//!   one representative simulation decides the whole class. (For DUTs
//!   whose campaign behavior goes through behavioral abstractions rather
//!   than the analyzed netlist, the claim is validated empirically by the
//!   class campaign's seeded sibling cross-check.)
//! * **Cone of influence.** A defect can only move an invariance's
//!   deviation if its component is topologically connected to the
//!   invariance's observed nodes. Connectivity is taken conservatively —
//!   switches conduct regardless of state, capacitors couple (transient),
//!   every MOSFET terminal couples, controlled sources couple their
//!   control pairs — so "outside the cone" is a *proof* of static
//!   undetectability, never a guess.

use std::collections::BTreeMap;

use symbist_adc::SarAdc;
use symbist_circuit::netlist::{DeviceId, Netlist, NodeId};
use symbist_circuit::topology::DisjointSet;
use symbist_defects::{DefectUniverse, LikelihoodModel};

use symbist_obs::write_json_str;

use crate::diag::{Diagnostic, LintReport, Rule};
use crate::orbit::{orbit_partition, OrbitPartition};

/// One invariance as the analyzer sees it: a named set of observed nodes
/// (mutually symmetric — the invariance reads them interchangeably, as
/// both `V_a + V_b` and `|V_a − V_b|` do) plus reference taps the checker
/// compares against.
#[derive(Debug, Clone)]
pub struct ObservedInvariance {
    /// Invariance name (stable; used in diagnostics and class reports).
    pub name: String,
    /// Kind tag, e.g. `"complementary"` or `"replica"`.
    pub kind: String,
    /// Whether the invariance *claims* structural symmetry between its
    /// observed nodes (replica/FD halves). Only claiming invariances are
    /// checked by `SYM-L052`.
    pub symmetric: bool,
    /// The observed nodes (interchangeable under the invariance).
    pub observed: Vec<NodeId>,
    /// Reference nodes (window-comparator references etc.).
    pub reference: Vec<NodeId>,
}

/// Input to the analyzer: a netlist, the defect-catalog bindings, and the
/// observed invariances.
///
/// `bindings[i]` is the netlist device representing catalog component `i`,
/// or `None` when the component is behavioral (not present in the static
/// netlist). Unbound components are handled conservatively: their defects
/// form singleton classes and are never claimed undetectable.
#[derive(Debug)]
pub struct AnalysisModel<'a> {
    /// Report context (DUT name).
    pub context: String,
    /// The healthy netlist under analysis.
    pub netlist: &'a Netlist,
    /// Catalog index → device binding.
    pub bindings: &'a [Option<DeviceId>],
    /// The declared invariances.
    pub invariances: &'a [ObservedInvariance],
}

/// One equivalence class of defects: same device orbit, same defect kind.
#[derive(Debug, Clone, PartialEq)]
pub struct DefectClass {
    /// Canonical orbit id of the class's devices (or a synthetic singleton
    /// id for unbound components).
    pub orbit: usize,
    /// Defect-kind label (`short`, `open-gate`, …).
    pub kind: String,
    /// Universe indices of the members, ascending. The first member is the
    /// class representative.
    pub members: Vec<usize>,
}

/// The full static-analysis result for one DUT.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisReport {
    /// Report context (DUT name).
    pub context: String,
    /// Universe size the classes partition.
    pub universe_size: usize,
    /// Catalog components bound to a netlist device.
    pub bound_components: usize,
    /// Catalog components with no binding (behavioral).
    pub unmodeled_components: usize,
    /// Distinct node orbits of the analyzed netlist.
    pub node_orbit_count: usize,
    /// Distinct device orbits of the analyzed netlist.
    pub device_orbit_count: usize,
    /// Canonical certificate hash (deck fingerprint, shuffle-invariant).
    pub certificate: u64,
    /// The defect-class partition, in deterministic (orbit, kind) order.
    pub classes: Vec<DefectClass>,
    /// Universe indices provably outside every invariance's cone.
    pub undetectable: Vec<usize>,
    /// L050/L051/L052/L060 findings.
    pub diagnostics: LintReport,
}

impl AnalysisReport {
    /// The class partition as plain member lists — the input shape of the
    /// class-representative campaign in `symbist-defects` (which must not
    /// depend on this crate).
    pub fn partition(&self) -> Vec<Vec<usize>> {
        self.classes.iter().map(|c| c.members.clone()).collect()
    }

    /// Number of classes with more than one member (the simulation-savings
    /// substrate).
    pub fn multi_member_classes(&self) -> usize {
        self.classes.iter().filter(|c| c.members.len() > 1).count()
    }

    /// Defects that a class-representative campaign would *not* simulate:
    /// `universe_size − classes.len()` (one representative per class).
    pub fn defects_saved(&self) -> usize {
        self.universe_size.saturating_sub(self.classes.len())
    }

    /// Machine-readable JSON rendering.
    pub fn to_json_string(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"context\":");
        let _ = write_json_str(&mut out, &self.context);
        let _ = write!(
            out,
            ",\"universe_size\":{},\"bound_components\":{},\
             \"unmodeled_components\":{},\"node_orbits\":{},\"device_orbits\":{},\
             \"certificate\":\"{:016x}\",\"class_count\":{},\"defects_saved\":{},\
             \"undetectable\":[",
            self.universe_size,
            self.bound_components,
            self.unmodeled_components,
            self.node_orbit_count,
            self.device_orbit_count,
            self.certificate,
            self.classes.len(),
            self.defects_saved(),
        );
        for (i, idx) in self.undetectable.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{idx}");
        }
        out.push_str("],\"classes\":[");
        for (i, class) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"orbit\":{},\"kind\":", class.orbit);
            let _ = write_json_str(&mut out, &class.kind);
            out.push_str(",\"members\":[");
            for (j, m) in class.members.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{m}");
            }
            out.push_str("]}");
        }
        out.push_str("],\"diagnostics\":");
        out.push_str(&self.diagnostics.to_json_string());
        out.push('}');
        out
    }

    /// Short JSON summary (counts only) — folded into `GET /v1/lint/{id}`.
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"node_orbits\":{},\"device_orbits\":{},\"class_count\":{},\
             \"defects_saved\":{},\"undetectable\":{},\"certificate\":\"{:016x}\",\
             \"errors\":{},\"warnings\":{}}}",
            self.node_orbit_count,
            self.device_orbit_count,
            self.classes.len(),
            self.defects_saved(),
            self.undetectable.len(),
            self.certificate,
            self.diagnostics.error_count(),
            self.diagnostics.count(crate::Severity::Warning),
        )
    }

    /// Human-readable rendering (the `lint --analysis` default output).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "static symmetry analysis: {}", self.context);
        let _ = writeln!(
            out,
            "  universe: {} defect(s) over {} bound + {} unmodeled component(s)",
            self.universe_size, self.bound_components, self.unmodeled_components
        );
        let _ = writeln!(
            out,
            "  orbits: {} node, {} device (certificate {:016x})",
            self.node_orbit_count, self.device_orbit_count, self.certificate
        );
        let _ = writeln!(
            out,
            "  classes: {} ({} multi-member) — a representative campaign \
             simulates {} instead of {}",
            self.classes.len(),
            self.multi_member_classes(),
            self.classes.len(),
            self.universe_size
        );
        let _ = writeln!(
            out,
            "  statically undetectable: {} defect(s)",
            self.undetectable.len()
        );
        out.push_str(&self.diagnostics.render_text());
        out
    }
}

/// Builds the observation coloring: every observed/reference node is
/// tagged with its invariance memberships, so automorphisms must fix each
/// invariance's observation structure (observed nodes of one invariance
/// stay interchangeable; reference nodes stay pinned to their role).
fn observation_colors(invariances: &[ObservedInvariance]) -> BTreeMap<usize, String> {
    let mut tags: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for inv in invariances {
        for &node in &inv.observed {
            tags.entry(node.index())
                .or_default()
                .push(format!("inv:{}:{}:obs", inv.name, inv.kind));
        }
        for &node in &inv.reference {
            tags.entry(node.index())
                .or_default()
                .push(format!("inv:{}:{}:ref", inv.name, inv.kind));
        }
    }
    tags.into_iter()
        .map(|(node, mut list)| {
            list.sort_unstable();
            list.dedup();
            (node, list.join("|"))
        })
        .collect()
}

/// Conservative influence closure: every device couples all its terminals
/// (switches regardless of state, capacitors, MOS gates, control pairs).
fn influence_components(nl: &Netlist) -> DisjointSet {
    let mut dsu = DisjointSet::new(nl.node_count());
    for (_, device) in nl.iter() {
        let terminals = device.terminals();
        if let Some((&first, rest)) = terminals.split_first() {
            for &t in rest {
                dsu.union(first.index(), t.index());
            }
        }
    }
    dsu
}

/// Runs the stage-two analysis.
///
/// # Panics
///
/// Panics if a binding references a device outside the netlist, or if a
/// universe defect references a component outside the bindings slice —
/// both are construction bugs of the caller, not data errors.
pub fn analyze(model: &AnalysisModel<'_>, universe: &DefectUniverse) -> AnalysisReport {
    let nl = model.netlist;
    let colors = observation_colors(model.invariances);
    let orbits: OrbitPartition = orbit_partition(nl, &colors);
    let mut report = LintReport::new();
    let context = model.context.clone();

    // --- Cone of influence per invariance ------------------------------
    let mut dsu = influence_components(nl);
    let inv_roots: Vec<Vec<usize>> = model
        .invariances
        .iter()
        .map(|inv| {
            let mut roots: Vec<usize> = inv
                .observed
                .iter()
                .chain(&inv.reference)
                .map(|n| dsu.find(n.index()))
                .collect();
            roots.sort_unstable();
            roots.dedup();
            roots
        })
        .collect();
    let device_in_cone = |device: DeviceId, roots: &[usize], dsu: &mut DisjointSet| {
        nl.device(device)
            .terminals()
            .iter()
            .any(|t| roots.binary_search(&dsu.find(t.index())).is_ok())
    };

    // Per-component reachability: in the cone of at least one invariance?
    let mut component_reachable: Vec<Option<bool>> = Vec::with_capacity(model.bindings.len());
    for binding in model.bindings {
        component_reachable.push(binding.map(|device| {
            inv_roots
                .iter()
                .any(|roots| device_in_cone(device, roots, &mut dsu))
        }));
    }

    // --- SYM-L051: invariance observing no defect site -----------------
    for (inv, roots) in model.invariances.iter().zip(&inv_roots) {
        let observes_any = model
            .bindings
            .iter()
            .flatten()
            .any(|&device| device_in_cone(device, roots, &mut dsu));
        if !observes_any {
            report.push(Diagnostic::new(
                Rule::DeadInvariance,
                context.clone(),
                format!("invariance {}", inv.name),
                "no defect site lies in this invariance's cone of influence \
                 — it can never detect anything"
                    .to_string(),
            ));
        }
    }

    // --- SYM-L052: symmetry-broken declared pair ------------------------
    // Checked against a partition colored by *this invariance alone*: the
    // claim is that the netlist (plus this invariance's own observation
    // structure) admits an automorphism exchanging the declared halves.
    // The global partition would be wrong here — a node observed by two
    // invariances gets a different color than its partner observed by one,
    // so any overlapping declarations would fail the check even on
    // perfectly mirrored structure.
    for inv in model.invariances {
        if !inv.symmetric || inv.observed.len() < 2 {
            continue;
        }
        let solo = orbit_partition(nl, &observation_colors(std::slice::from_ref(inv)));
        let first = inv.observed[0];
        for &other in &inv.observed[1..] {
            if solo.node_orbits[first.index()] != solo.node_orbits[other.index()] {
                report.push(Diagnostic::new(
                    Rule::SymmetryBrokenPair,
                    context.clone(),
                    format!("invariance {}", inv.name),
                    format!(
                        "declared symmetric nodes {} and {} lie in different \
                         structural orbits — the halves are not exchangeable \
                         by any netlist automorphism",
                        node_label(nl, first),
                        node_label(nl, other),
                    ),
                ));
                break;
            }
        }
    }

    // --- Defect classes + SYM-L050 --------------------------------------
    // Key: bound → (device orbit, kind); unbound → (synthetic singleton
    // orbit per component, kind). Synthetic ids start past the real ones.
    let singleton_base = orbits.orbit_count;
    let mut classes: BTreeMap<(usize, String), Vec<usize>> = BTreeMap::new();
    let mut undetectable: Vec<usize> = Vec::new();
    let mut undetectable_components: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (idx, defect) in universe.iter().enumerate() {
        let component = defect.site.component;
        let kind = defect.site.kind.to_string();
        let orbit = match model.bindings[component] {
            Some(device) => orbits.device_orbits[device.index()],
            None => singleton_base + component,
        };
        classes.entry((orbit, kind.clone())).or_default().push(idx);
        if component_reachable[component] == Some(false) {
            undetectable.push(idx);
            undetectable_components
                .entry(component)
                .or_default()
                .push(kind);
        }
    }
    for (component, kinds) in undetectable_components {
        let name = universe
            .iter()
            .find(|d| d.site.component == component)
            .map(|d| d.component_name.clone())
            .unwrap_or_else(|| format!("component#{component}"));
        report.push(Diagnostic::new(
            Rule::StaticallyUndetectable,
            context.clone(),
            name,
            format!(
                "outside every invariance's cone of influence — {} defect(s) \
                 ({}) cannot move any observed node",
                kinds.len(),
                kinds.join(", "),
            ),
        ));
    }

    let classes: Vec<DefectClass> = classes
        .into_iter()
        .map(|((orbit, kind), members)| DefectClass {
            orbit,
            kind,
            members,
        })
        .collect();

    let bound = model.bindings.iter().flatten().count();
    let mut out = AnalysisReport {
        context: context.clone(),
        universe_size: universe.len(),
        bound_components: bound,
        unmodeled_components: model.bindings.len() - bound,
        node_orbit_count: orbits.node_orbit_count(),
        device_orbit_count: orbits.device_orbit_count(),
        certificate: orbits.certificate,
        classes,
        undetectable,
        diagnostics: report,
    };

    // --- SYM-L060: orbit summary ----------------------------------------
    out.diagnostics.push(Diagnostic::new(
        Rule::OrbitSummary,
        context,
        "orbit summary",
        format!(
            "{} node orbit(s), {} device orbit(s), {} defect class(es) over \
             {} defect(s) ({} saved by class representatives); certificate \
             {:016x}",
            out.node_orbit_count,
            out.device_orbit_count,
            out.classes.len(),
            out.universe_size,
            out.defects_saved(),
            out.certificate,
        ),
    ));
    out
}

fn node_label(nl: &Netlist, node: NodeId) -> String {
    match nl.node_name(node) {
        Some(name) => name.to_string(),
        None if node.is_ground() => "gnd".to_string(),
        None => format!("n{}", node.index()),
    }
}

/// Runs the stage-two analysis over the built-in SAR ADC: the whole-ADC
/// static model through [`analyze`]. The declared FD pairs are checked
/// once, by `SYM-L030` ([`crate::check_fd_symmetry`], run by
/// [`crate::lint_adc`]).
pub fn analyze_adc(adc: &SarAdc) -> AnalysisReport {
    let universe = DefectUniverse::enumerate(adc, &LikelihoodModel::default());
    analyze_adc_with_universe(adc, &universe)
}

/// [`analyze_adc`] against a caller-supplied universe (which must have
/// been enumerated from the same component catalog).
pub fn analyze_adc_with_universe(adc: &SarAdc, universe: &DefectUniverse) -> AnalysisReport {
    let model = adc.analysis_model();
    let invariances: Vec<ObservedInvariance> = model
        .observations
        .iter()
        .map(|o| ObservedInvariance {
            name: o.name.clone(),
            kind: o.kind.clone(),
            symmetric: o.symmetric,
            observed: o.observed.clone(),
            reference: o.reference.clone(),
        })
        .collect();
    let analysis_model = AnalysisModel {
        context: "sar-adc".into(),
        netlist: &model.netlist,
        bindings: &model.bindings,
        invariances: &invariances,
    };
    analyze(&analysis_model, universe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbist_adc::fault::{BlockKind, ComponentInfo, ComponentKind, DefectSite, Faultable};
    use symbist_defects::LikelihoodModel;

    /// A minimal faultable DUT over an explicit catalog.
    struct CatalogDut(Vec<ComponentInfo>);
    impl Faultable for CatalogDut {
        fn components(&self) -> &[ComponentInfo] {
            &self.0
        }
        fn inject(&mut self, _site: DefectSite) {}
        fn clear_defects(&mut self) {}
        fn injected(&self) -> Option<DefectSite> {
            None
        }
    }

    fn resistor_info(name: &str) -> ComponentInfo {
        ComponentInfo {
            block: BlockKind::ScArray,
            name: name.to_string(),
            kind: ComponentKind::Resistor,
            area: 2.0,
        }
    }

    #[test]
    fn symmetric_divider_halves_classes() {
        // FD divider: 4 resistors, P/N mirror. Classes must pair them.
        let mut nl = Netlist::new();
        let vref = nl.node("vref");
        let outp = nl.node("outp");
        let outn = nl.node("outn");
        nl.vsource(vref, Netlist::GND, 1.2);
        let r1 = nl.resistor(vref, outp, 1e3);
        let r2 = nl.resistor(outp, Netlist::GND, 1e3);
        let r3 = nl.resistor(vref, outn, 1e3);
        let r4 = nl.resistor(outn, Netlist::GND, 1e3);
        let dut = CatalogDut(vec![
            resistor_info("RP1"),
            resistor_info("RP2"),
            resistor_info("RN1"),
            resistor_info("RN2"),
        ]);
        let universe = DefectUniverse::enumerate(&dut, &LikelihoodModel::default());
        assert_eq!(universe.len(), 16);
        let bindings = vec![Some(r1), Some(r2), Some(r3), Some(r4)];
        let invariances = vec![ObservedInvariance {
            name: "sum".into(),
            kind: "complementary".into(),
            symmetric: true,
            observed: vec![outp, outn],
            reference: vec![],
        }];
        let model = AnalysisModel {
            context: "divider".into(),
            netlist: &nl,
            bindings: &bindings,
            invariances: &invariances,
        };
        let analysis = analyze(&model, &universe);
        // 4 kinds × 2 orbit pairs = 8 classes, each of size 2.
        assert_eq!(analysis.classes.len(), 8, "{}", analysis.render_text());
        assert!(analysis.classes.iter().all(|c| c.members.len() == 2));
        assert_eq!(analysis.defects_saved(), 8);
        assert!(analysis.undetectable.is_empty());
        assert!(!analysis.diagnostics.has_errors());
        assert!(analysis.diagnostics.has_rule("SYM-L060"));
        // Partition covers the whole universe exactly once.
        let mut all: Vec<usize> = analysis.partition().into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn isolated_site_fires_l050() {
        let mut nl = Netlist::new();
        let vref = nl.node("vref");
        let out = nl.node("out");
        nl.vsource(vref, Netlist::GND, 1.0);
        let r_main = nl.resistor(vref, out, 1e3);
        // An island: two resistors chained off a floating net, no path to
        // the observed part.
        let island_a = nl.node("island_a");
        let island_b = nl.node("island_b");
        let r_island = nl.resistor(island_a, island_b, 1e3);
        let dut = CatalogDut(vec![resistor_info("RMAIN"), resistor_info("RISLAND")]);
        let universe = DefectUniverse::enumerate(&dut, &LikelihoodModel::default());
        let bindings = vec![Some(r_main), Some(r_island)];
        let invariances = vec![ObservedInvariance {
            name: "obs".into(),
            kind: "replica".into(),
            symmetric: false,
            observed: vec![out],
            reference: vec![],
        }];
        let model = AnalysisModel {
            context: "island".into(),
            netlist: &nl,
            bindings: &bindings,
            invariances: &invariances,
        };
        let analysis = analyze(&model, &universe);
        assert!(analysis.diagnostics.has_rule("SYM-L050"));
        // All 4 defects of RISLAND, none of RMAIN.
        assert_eq!(analysis.undetectable, vec![4, 5, 6, 7]);
    }

    #[test]
    fn dead_invariance_fires_l051() {
        let mut nl = Netlist::new();
        let vref = nl.node("vref");
        let out = nl.node("out");
        nl.vsource(vref, Netlist::GND, 1.0);
        let r = nl.resistor(vref, out, 1e3);
        // A second, disconnected observed net with no defect sites on it.
        let dead_a = nl.node("dead_a");
        let dead_b = nl.node("dead_b");
        nl.vsource(dead_a, dead_b, 0.5);
        let dut = CatalogDut(vec![resistor_info("R1")]);
        let universe = DefectUniverse::enumerate(&dut, &LikelihoodModel::default());
        let bindings = vec![Some(r)];
        let invariances = vec![
            ObservedInvariance {
                name: "live".into(),
                kind: "replica".into(),
                symmetric: false,
                observed: vec![out],
                reference: vec![],
            },
            ObservedInvariance {
                name: "dead".into(),
                kind: "replica".into(),
                symmetric: false,
                observed: vec![dead_a, dead_b],
                reference: vec![],
            },
        ];
        let model = AnalysisModel {
            context: "dead-inv".into(),
            netlist: &nl,
            bindings: &bindings,
            invariances: &invariances,
        };
        let analysis = analyze(&model, &universe);
        assert!(analysis.diagnostics.has_rule("SYM-L051"));
        let l051: Vec<_> = analysis
            .diagnostics
            .diagnostics()
            .iter()
            .filter(|d| d.rule == Rule::DeadInvariance)
            .collect();
        assert_eq!(l051.len(), 1);
        assert!(l051[0].subject.contains("dead"), "{}", l051[0].subject);
    }

    #[test]
    fn asymmetric_pair_fires_l052() {
        let mut nl = Netlist::new();
        let vref = nl.node("vref");
        let outp = nl.node("outp");
        let outn = nl.node("outn");
        nl.vsource(vref, Netlist::GND, 1.2);
        let r1 = nl.resistor(vref, outp, 1e3);
        let r2 = nl.resistor(outp, Netlist::GND, 1e3);
        let r3 = nl.resistor(vref, outn, 2e3); // asymmetric leg
        let r4 = nl.resistor(outn, Netlist::GND, 1e3);
        let dut = CatalogDut(vec![
            resistor_info("RP1"),
            resistor_info("RP2"),
            resistor_info("RN1"),
            resistor_info("RN2"),
        ]);
        let universe = DefectUniverse::enumerate(&dut, &LikelihoodModel::default());
        let bindings = vec![Some(r1), Some(r2), Some(r3), Some(r4)];
        let invariances = vec![ObservedInvariance {
            name: "rep".into(),
            kind: "replica".into(),
            symmetric: true,
            observed: vec![outp, outn],
            reference: vec![],
        }];
        let model = AnalysisModel {
            context: "broken".into(),
            netlist: &nl,
            bindings: &bindings,
            invariances: &invariances,
        };
        let analysis = analyze(&model, &universe);
        assert!(analysis.diagnostics.has_rule("SYM-L052"));
        assert!(analysis.diagnostics.has_errors());
        // No classes pair across the broken mirror.
        assert!(analysis.classes.iter().all(|c| c.members.len() == 1));
    }

    #[test]
    fn adc_analysis_pairs_differential_halves() {
        use symbist_adc::{AdcConfig, SarAdc};
        let report = analyze_adc(&SarAdc::new(AdcConfig::default()));
        // The P/N mirror must hold: no symmetry-broken pairs, and every
        // invariance observes defect sites.
        assert!(
            !report.diagnostics.has_errors(),
            "{}",
            report.diagnostics.render_text()
        );
        assert!(!report.diagnostics.has_rule("SYM-L051"));
        // 16 bandgap + 41 refbuf/ladder + 2×276 sub-DAC + 14 SC + 6 Vcm
        // bound; the behavioral comparator chain and the dead end taps
        // (P/tap32, N/tap0 — never selected by the 5-bit sweep) stay
        // unmodeled.
        assert_eq!(report.bound_components, 629);
        assert_eq!(report.unmodeled_components, 42);
        // Every mirrored component pair collapses its per-kind defects:
        // 268 sub-DAC MOSFET pairs ×6 kinds + 2 SC cap pairs ×4 + 5 SC
        // switch pairs ×6.
        assert_eq!(report.multi_member_classes(), 1646);
        assert_eq!(report.defects_saved(), 1646);
        // The partition covers the universe exactly.
        let covered: usize = report.classes.iter().map(|c| c.members.len()).sum();
        assert_eq!(covered, report.universe_size);
        // Deterministic across fresh constructions.
        let again = analyze_adc(&SarAdc::new(AdcConfig::default()));
        assert_eq!(report.certificate, again.certificate);
        assert_eq!(report.classes, again.classes);
    }

    #[test]
    fn json_and_summary_render() {
        let mut nl = Netlist::new();
        let out = nl.node("out");
        nl.vsource(out, Netlist::GND, 1.0);
        let r = nl.resistor(out, Netlist::GND, 1e3);
        let dut = CatalogDut(vec![resistor_info("R1")]);
        let universe = DefectUniverse::enumerate(&dut, &LikelihoodModel::default());
        let bindings = vec![Some(r)];
        let invariances = vec![ObservedInvariance {
            name: "obs".into(),
            kind: "replica".into(),
            symmetric: false,
            observed: vec![out],
            reference: vec![],
        }];
        let model = AnalysisModel {
            context: "tiny".into(),
            netlist: &nl,
            bindings: &bindings,
            invariances: &invariances,
        };
        let analysis = analyze(&model, &universe);
        let json = analysis.to_json_string();
        assert!(json.contains("\"class_count\":4"), "{json}");
        assert!(json.contains("\"context\":\"tiny\""), "{json}");
        assert!(json.contains("SYM-L060"), "{json}");
        let summary = analysis.summary_json();
        assert!(summary.contains("\"class_count\":4"), "{summary}");
    }
}
