//! Diagnostics: rule identities, severities, and the report container.

use std::fmt;

use symbist_obs::write_json_str;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational — worth knowing, never actionable by a gate.
    Info,
    /// Suspicious but simulable; the circuit may still behave as intended.
    Warning,
    /// The netlist (or universe) is structurally broken: simulation would
    /// fail, produce regularization-dependent garbage, or corrupt
    /// coverage accounting. Gates reject on Errors.
    Error,
}

impl Severity {
    /// Lower-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Every rule the analyzer implements. The `SYM-Lxxx` codes are stable API:
/// tests assert on them, CI greps for them, and service clients key on
/// them — never renumber an existing rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// A connected component of the device graph with no path to ground.
    FloatingNode,
    /// A device terminal landing on a node nothing else touches.
    DanglingNode,
    /// A cycle of ideal voltage constraints (V sources / VCVS outputs).
    VsourceLoop,
    /// A DC island whose only drive is a current source — KCL cannot be
    /// satisfied at DC.
    IsourceCutset,
    /// A node (or island) with no DC-conductive path to ground: its DC
    /// value exists only by the solver's gmin regularization.
    NoDcPath,
    /// Non-positive or non-finite resistance.
    BadResistor,
    /// Non-positive/non-finite capacitance or non-finite initial condition.
    BadCapacitor,
    /// Switch with invalid r_on/r_off (including r_on ≥ r_off).
    BadSwitch,
    /// Degenerate MOS parameters (vth/kp/lambda out of range).
    BadMosfet,
    /// Degenerate diode parameters (i_sat/ideality out of range).
    BadDiode,
    /// Non-finite source value, waveform field, or controlled-source gain.
    BadSource,
    /// Declared P/N half-circuits are not isomorphic with matched values.
    FdAsymmetry,
    /// A defect site referencing a dead component index or a defect kind
    /// inapplicable to its component.
    DanglingDefectSite,
    /// A zero/negative/non-finite defect likelihood.
    BadLikelihood,
    /// The same injection listed twice in a universe.
    DuplicateDefect,
    /// A defect site outside every invariance's cone of influence — no
    /// invariance can ever observe it (an honest, provable escape).
    StaticallyUndetectable,
    /// An invariance whose cone of influence contains no defect site at
    /// all — it consumes checker area but can never detect anything.
    DeadInvariance,
    /// A symmetric invariance whose declared observed nodes land in
    /// different structural orbits — no automorphism of the analyzed
    /// netlist exchanges them.
    SymmetryBrokenPair,
    /// Informational orbit-partition summary for a netlist.
    OrbitSummary,
}

impl Rule {
    /// The stable rule ID.
    pub fn code(self) -> &'static str {
        match self {
            Rule::FloatingNode => "SYM-L001",
            Rule::DanglingNode => "SYM-L002",
            Rule::VsourceLoop => "SYM-L010",
            Rule::IsourceCutset => "SYM-L011",
            Rule::NoDcPath => "SYM-L012",
            Rule::BadResistor => "SYM-L020",
            Rule::BadCapacitor => "SYM-L021",
            Rule::BadSwitch => "SYM-L022",
            Rule::BadMosfet => "SYM-L023",
            Rule::BadDiode => "SYM-L024",
            Rule::BadSource => "SYM-L025",
            Rule::FdAsymmetry => "SYM-L030",
            Rule::DanglingDefectSite => "SYM-L040",
            Rule::BadLikelihood => "SYM-L041",
            Rule::DuplicateDefect => "SYM-L042",
            Rule::StaticallyUndetectable => "SYM-L050",
            Rule::DeadInvariance => "SYM-L051",
            Rule::SymmetryBrokenPair => "SYM-L052",
            Rule::OrbitSummary => "SYM-L060",
        }
    }

    /// Short kebab-case rule name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::FloatingNode => "floating-node",
            Rule::DanglingNode => "dangling-node",
            Rule::VsourceLoop => "vsource-loop",
            Rule::IsourceCutset => "isource-cutset",
            Rule::NoDcPath => "no-dc-path",
            Rule::BadResistor => "bad-resistor",
            Rule::BadCapacitor => "bad-capacitor",
            Rule::BadSwitch => "bad-switch",
            Rule::BadMosfet => "bad-mosfet",
            Rule::BadDiode => "bad-diode",
            Rule::BadSource => "bad-source",
            Rule::FdAsymmetry => "fd-asymmetry",
            Rule::DanglingDefectSite => "dangling-defect-site",
            Rule::BadLikelihood => "bad-likelihood",
            Rule::DuplicateDefect => "duplicate-defect",
            Rule::StaticallyUndetectable => "statically-undetectable",
            Rule::DeadInvariance => "dead-invariance",
            Rule::SymmetryBrokenPair => "symmetry-broken-pair",
            Rule::OrbitSummary => "orbit-summary",
        }
    }

    /// Default severity of the rule.
    pub fn severity(self) -> Severity {
        match self {
            // Undetectable defects and dead invariances are honest design
            // facts (e.g. decoupling-cap opens are expected escapes), not
            // structural breakage — they inform, they don't gate.
            Rule::DanglingNode | Rule::StaticallyUndetectable | Rule::DeadInvariance => {
                Severity::Warning
            }
            Rule::OrbitSummary => Severity::Info,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.code(), self.name())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// Severity (defaults to the rule's, but a producer may downgrade).
    pub severity: Severity,
    /// What was being analyzed (block/netlist label, e.g. `"sc array
    /// (P side)"` or `"defect universe"`).
    pub context: String,
    /// The offending device/node/site within the context, e.g.
    /// `"device #3 (switch)"` or `"node top"`.
    pub subject: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic at the rule's default severity.
    pub fn new(
        rule: Rule,
        context: impl Into<String>,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            rule,
            severity: rule.severity(),
            context: context.into(),
            subject: subject.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{}] {}: {}",
            self.severity,
            self.rule.code(),
            self.context,
            self.subject,
            self.message
        )
    }
}

/// An ordered collection of diagnostics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends another report's diagnostics.
    pub fn extend(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// All diagnostics in insertion order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of diagnostics at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Number of Error-level diagnostics.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Whether any Error-level diagnostic is present — the gate predicate.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Whether any rule with the given code fired.
    pub fn has_rule(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.rule.code() == code)
    }

    /// Human-readable multi-line rendering (one diagnostic per line plus a
    /// summary line).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        let _ = writeln!(
            out,
            "{} error(s), {} warning(s), {} info",
            self.error_count(),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        );
        out
    }

    /// Machine-readable JSON rendering:
    /// `{"errors": N, "warnings": N, "diagnostics": [...]}`.
    pub fn to_json_string(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            self.error_count(),
            self.count(Severity::Warning)
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let fields = [
                ("rule", d.rule.code()),
                ("name", d.rule.name()),
                ("severity", d.severity.label()),
                ("context", d.context.as_str()),
                ("subject", d.subject.as_str()),
                ("message", d.message.as_str()),
            ];
            for (j, (key, value)) in fields.into_iter().enumerate() {
                let _ = write!(out, "{}\"{key}\":", if j > 0 { ',' } else { '{' });
                let _ = write_json_str(&mut out, value);
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique() {
        let all = [
            Rule::FloatingNode,
            Rule::DanglingNode,
            Rule::VsourceLoop,
            Rule::IsourceCutset,
            Rule::NoDcPath,
            Rule::BadResistor,
            Rule::BadCapacitor,
            Rule::BadSwitch,
            Rule::BadMosfet,
            Rule::BadDiode,
            Rule::BadSource,
            Rule::FdAsymmetry,
            Rule::DanglingDefectSite,
            Rule::BadLikelihood,
            Rule::DuplicateDefect,
            Rule::StaticallyUndetectable,
            Rule::DeadInvariance,
            Rule::SymmetryBrokenPair,
            Rule::OrbitSummary,
        ];
        let mut codes: Vec<&str> = all.iter().map(|r| r.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len());
    }

    #[test]
    fn report_counts_and_gate() {
        let mut report = LintReport::new();
        assert!(!report.has_errors());
        report.push(Diagnostic::new(Rule::DanglingNode, "ctx", "node x", "m"));
        assert!(!report.has_errors(), "warnings do not gate");
        report.push(Diagnostic::new(Rule::FloatingNode, "ctx", "node y", "m"));
        assert!(report.has_errors());
        assert_eq!(report.error_count(), 1);
        assert!(report.has_rule("SYM-L001"));
        assert!(!report.has_rule("SYM-L030"));
    }

    #[test]
    fn json_escapes() {
        let mut report = LintReport::new();
        report.push(Diagnostic::new(Rule::BadResistor, "c\"x", "s\\t", "m\nn"));
        let json = report.to_json_string();
        assert_eq!(
            json,
            r#"{"errors":1,"warnings":0,"diagnostics":[{"rule":"SYM-L020","name":"bad-resistor","severity":"error","context":"c\"x","subject":"s\\t","message":"m\nn"}]}"#
        );
    }
}
