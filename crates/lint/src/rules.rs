//! Netlist-level rules: connectivity, singularity prediction, and
//! parameter sanity.
//!
//! The singularity rules mirror the zero-pivot cases the MNA engine's LU
//! hits at runtime (`CircuitError::Singular`): a floating subcircuit, a
//! loop of ideal voltage constraints, a current source driving into a DC
//! cutset, and a node whose DC value exists only because the solver adds
//! gmin. Each is detected purely from the device graph — no matrix is
//! assembled.

use std::collections::BTreeMap;

use symbist_circuit::netlist::{device_param_issue, Device, Netlist, NodeId};
use symbist_circuit::topology::{DisjointSet, Topology};

use crate::diag::{Diagnostic, LintReport, Rule, Severity};

/// Renders a node for diagnostics: its name when it has one, else `n{idx}`.
fn node_label(nl: &Netlist, node: NodeId) -> String {
    match nl.node_name(node) {
        Some(name) => format!("node {name}"),
        None if node.is_ground() => "node gnd".to_string(),
        None => format!("node n{}", node.index()),
    }
}

/// Renders a device for diagnostics.
fn device_label(nl: &Netlist, id: symbist_circuit::DeviceId) -> String {
    format!("device #{} ({})", id.index(), nl.device(id).kind_name())
}

/// True when the device provides a DC-conductive (or DC-constraining)
/// edge between two terminals — the edge set of the DC-path analysis.
/// Capacitors block DC; current-source outputs and all control/gate
/// terminals inject no conductance into their nodes.
fn dc_edge(device: &Device) -> Option<(NodeId, NodeId)> {
    match *device {
        Device::Resistor { a, b, .. } | Device::Switch { a, b, .. } => Some((a, b)),
        Device::Diode { anode, cathode, .. } => Some((anode, cathode)),
        Device::Mosfet { d, s, .. } => Some((d, s)),
        Device::VSource { p, n, .. } | Device::Vcvs { p, n, .. } => Some((p, n)),
        Device::Capacitor { .. } | Device::ISource { .. } | Device::Vccs { .. } => None,
    }
}

/// True when the device forces an ideal voltage between two nodes —
/// the edge set of the voltage-loop analysis.
fn voltage_edge(device: &Device) -> Option<(NodeId, NodeId)> {
    match *device {
        Device::VSource { p, n, .. } | Device::Vcvs { p, n, .. } => Some((p, n)),
        _ => None,
    }
}

/// Runs every netlist rule on `nl`, labeling diagnostics with `context`.
pub fn lint_netlist(context: &str, nl: &Netlist) -> LintReport {
    let mut report = LintReport::new();
    let topo = Topology::of(nl);

    parameter_rules(context, nl, &mut report);
    floating_and_dangling(context, nl, &topo, &mut report);
    vsource_loops(context, nl, &mut report);
    dc_path_rules(context, nl, &topo, &mut report);
    report
}

/// SYM-L020..L025: one diagnostic per device whose parameters fail the
/// shared validator. `Netlist::push` applies the same check in every
/// build, so these rules catch values written afterwards through
/// `Netlist::device_mut` (the defect injector's path).
fn parameter_rules(context: &str, nl: &Netlist, report: &mut LintReport) {
    for (id, device) in nl.iter() {
        if let Some(issue) = device_param_issue(device) {
            let rule = match device {
                Device::Resistor { .. } => Rule::BadResistor,
                Device::Capacitor { .. } => Rule::BadCapacitor,
                Device::Switch { .. } => Rule::BadSwitch,
                Device::Mosfet { .. } => Rule::BadMosfet,
                Device::Diode { .. } => Rule::BadDiode,
                Device::VSource { .. }
                | Device::ISource { .. }
                | Device::Vcvs { .. }
                | Device::Vccs { .. } => Rule::BadSource,
            };
            report.push(Diagnostic::new(rule, context, device_label(nl, id), issue));
        }
    }
}

/// SYM-L001 (floating component) and SYM-L002 (dangling terminal).
fn floating_and_dangling(context: &str, nl: &Netlist, topo: &Topology, report: &mut LintReport) {
    // Group non-ground-connected nodes by component label.
    let mut islands: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
    for node in nl.nodes() {
        if !topo.connected_to_ground(node) {
            islands
                .entry(topo.component_label(node))
                .or_default()
                .push(node);
        }
    }
    for nodes in islands.values() {
        let labels: Vec<String> = nodes.iter().map(|&n| node_label(nl, n)).collect();
        report.push(Diagnostic::new(
            Rule::FloatingNode,
            context,
            labels.join(", "),
            format!(
                "{} node(s) have no connection to ground; their MNA rows are \
                 singular (or gmin-defined at best)",
                nodes.len()
            ),
        ));
    }
    // Dangling: exactly one terminal lands here and it is not an
    // independent source's (a source stub is deliberate drive, not a wiring
    // mistake). A *named* degree-1 node is a declared port — block outputs
    // like `m_plus` are observed by the solver, not loaded — so it is
    // reported at Info; an anonymous one is a likely unconnected wire.
    for node in nl.nodes() {
        if node.is_ground() || topo.degree(node) != 1 {
            continue;
        }
        let device = topo.devices_at(node)[0];
        if matches!(
            nl.device(device),
            Device::VSource { .. } | Device::ISource { .. }
        ) {
            continue;
        }
        let mut diag = Diagnostic::new(
            Rule::DanglingNode,
            context,
            node_label(nl, node),
            format!(
                "only one terminal ({}) lands on this node — likely an \
                 unconnected wire",
                device_label(nl, device)
            ),
        );
        if nl.node_name(node).is_some() {
            diag.severity = Severity::Info;
            diag.message = format!(
                "only one terminal ({}) lands on this named node — \
                 treated as a declared observation port",
                device_label(nl, device)
            );
        }
        report.push(diag);
    }
}

/// SYM-L010: a new ideal-voltage edge closing a cycle over the
/// voltage-constraint graph over-determines (or degenerates) the branch
/// equations. Includes the degenerate `p == n` self-loop.
fn vsource_loops(context: &str, nl: &Netlist, report: &mut LintReport) {
    let mut sets = DisjointSet::new(nl.node_count());
    for (id, device) in nl.iter() {
        let Some((p, n)) = voltage_edge(device) else {
            continue;
        };
        if !sets.union(p.index(), n.index()) {
            report.push(Diagnostic::new(
                Rule::VsourceLoop,
                context,
                device_label(nl, id),
                format!(
                    "closes a loop of ideal voltage constraints between {} \
                     and {}; the MNA branch equations become singular or \
                     contradictory",
                    node_label(nl, p),
                    node_label(nl, n)
                ),
            ));
        }
    }
}

/// SYM-L011 / SYM-L012: DC islands. Nodes that are attached to the circuit
/// (not floating) but have no DC-conductive path to ground either float
/// behind capacitors/controls (L012) or are driven only by a current
/// source, which cannot satisfy DC KCL (L011).
fn dc_path_rules(context: &str, nl: &Netlist, topo: &Topology, report: &mut LintReport) {
    let mut dc = DisjointSet::new(nl.node_count());
    for (_, device) in nl.iter() {
        if let Some((a, b)) = dc_edge(device) {
            dc.union(a.index(), b.index());
        }
    }
    let ground_root = dc.find(0);
    // Group DC-unreachable (but physically attached) nodes into islands.
    let mut islands: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
    for node in nl.nodes() {
        if dc.find(node.index()) != ground_root && topo.connected_to_ground(node) {
            islands.entry(dc.find(node.index())).or_default().push(node);
        }
    }
    for nodes in islands.values() {
        // Does a current source terminal land on this island?
        let has_isource = nodes.iter().any(|&node| {
            topo.devices_at(node).iter().any(|&id| match nl.device(id) {
                Device::ISource { p, n, .. } | Device::Vccs { p, n, .. } => {
                    *p == node || *n == node
                }
                _ => false,
            })
        });
        let labels: Vec<String> = nodes.iter().map(|&n| node_label(nl, n)).collect();
        if has_isource {
            report.push(Diagnostic::new(
                Rule::IsourceCutset,
                context,
                labels.join(", "),
                "a current source drives into an island with no DC return \
                 path; DC KCL cannot be satisfied"
                    .to_string(),
            ));
        } else {
            report.push(Diagnostic::new(
                Rule::NoDcPath,
                context,
                labels.join(", "),
                format!(
                    "{} node(s) reach ground only through capacitors or \
                     control terminals; their DC value is set by gmin \
                     regularization, not by the circuit",
                    nodes.len()
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbist_circuit::netlist::MosPolarity;

    fn lint(nl: &Netlist) -> LintReport {
        lint_netlist("test", nl)
    }

    #[test]
    fn clean_divider_is_clean() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource(a, Netlist::GND, 1.0);
        nl.resistor(a, b, 1e3);
        nl.resistor(b, Netlist::GND, 1e3);
        let report = lint(&nl);
        assert!(report.diagnostics().is_empty(), "{}", report.render_text());
    }

    #[test]
    fn floating_island_fires_l001() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let x = nl.node("x");
        let y = nl.node("y");
        nl.resistor(a, Netlist::GND, 1e3);
        nl.resistor(x, y, 1e3);
        let report = lint(&nl);
        assert!(report.has_rule("SYM-L001"), "{}", report.render_text());
    }

    #[test]
    fn vsource_loop_fires_l010() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource(a, Netlist::GND, 1.0);
        nl.vsource(a, Netlist::GND, 2.0); // parallel ideal sources
        let report = lint(&nl);
        assert!(report.has_rule("SYM-L010"), "{}", report.render_text());
    }

    #[test]
    fn cap_only_node_fires_l012() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource(a, Netlist::GND, 1.0);
        nl.capacitor(a, b, 1e-12);
        nl.capacitor(b, Netlist::GND, 1e-12);
        let report = lint(&nl);
        assert!(report.has_rule("SYM-L012"), "{}", report.render_text());
        assert!(!report.has_rule("SYM-L001"), "attached, not floating");
    }

    #[test]
    fn isource_into_cap_fires_l011() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.isource(a, Netlist::GND, 1e-6);
        nl.capacitor(a, Netlist::GND, 1e-12);
        let report = lint(&nl);
        assert!(report.has_rule("SYM-L011"), "{}", report.render_text());
    }

    #[test]
    fn mos_gate_only_node_fires_l012() {
        let mut nl = Netlist::new();
        let d = nl.node("d");
        let g = nl.node("g");
        nl.vsource(d, Netlist::GND, 1.0);
        nl.mosfet(d, g, Netlist::GND, MosPolarity::Nmos, 0.4, 1e-3, 0.0);
        nl.capacitor(g, Netlist::GND, 1e-12);
        let report = lint(&nl);
        // The gate node has no DC drive: its row is gmin-only.
        assert!(report.has_rule("SYM-L012"), "{}", report.render_text());
    }

    #[test]
    fn dangling_terminal_warns_l002() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let stub = nl.fresh_node(); // anonymous → suspicious
        nl.vsource(a, Netlist::GND, 1.0);
        nl.resistor(a, Netlist::GND, 1e3);
        nl.resistor(a, stub, 1e3); // goes nowhere
        let report = lint(&nl);
        assert!(report.has_rule("SYM-L002"), "{}", report.render_text());
        assert_eq!(report.count(Severity::Warning), 1);
        // Dangling is a warning, but the stub node is also DC-connected
        // through the resistor — it must NOT fire the island rules.
        assert!(!report.has_rule("SYM-L012"));
        assert!(!report.has_rule("SYM-L001"));
    }

    #[test]
    fn named_port_downgrades_to_info() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let out = nl.node("out"); // declared observation port
        nl.vsource(a, Netlist::GND, 1.0);
        nl.resistor(a, Netlist::GND, 1e3);
        nl.resistor(a, out, 1e3);
        let report = lint(&nl);
        assert!(report.has_rule("SYM-L002"));
        assert_eq!(report.count(Severity::Warning), 0);
        assert_eq!(report.count(Severity::Info), 1);
    }
}
