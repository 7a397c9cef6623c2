//! What one run reports: operation counts, output checks, metrics, and the
//! closing JSON line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off. An
/// "op" is the unit of work a user waits for: one campaign to its
/// coverage answer in-process, one job from submit to report over HTTP.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("adc.sc_array.share", "ratio"),
    ("adc.sc_array.begin_ms", "ms"),
    ("adc.sc_array.codes", "count"),
    ("adc.sc_array.us_per_code", "us"),
    ("adc.refnet.calls", "count"),
    ("adc.refnet.self_ms", "ms"),
    ("adc.refnet.share", "ratio"),
    ("adc.bandgap.calls", "count"),
    ("adc.bandgap.self_ms", "ms"),
    ("adc.bandgap.share", "ratio"),
    ("adc.vcm.self_ms", "ms"),
    ("adc.fault.clone_inject_ms", "ms"),
    ("core.session.defect_p50_ms", "ms"),
    ("core.session.defect_tail_ms", "ms"),
    ("core.session.attributed_share", "ratio"),
    ("core.session.sweep_fraction", "ratio"),
    ("core.session.detected_frac", "ratio"),
    ("core.calibrate.s", "s"),
    ("lint.analysis.s", "s"),
    ("lint.analysis.classes", "count"),
    ("lint.preflight_ms", "ms"),
    ("defects.universe.enumerate_ms", "ms"),
    ("defects.campaign.runs", "count"),
    ("defects.campaign.defects", "count"),
    ("defects.campaign.defects_per_s", "1/s"),
    ("defects.campaign.busy_ratio", "ratio"),
    ("defects.campaign.unresolved", "count"),
    ("defects.classes.simulated", "count"),
    ("defects.classes.saved", "count"),
    ("defects.classes.violations", "count"),
    ("defects.checkpoint.appends", "count"),
    ("defects.checkpoint.append_us", "us"),
    ("circuit.transient.steps", "count"),
    ("circuit.transient.us_per_step", "us"),
    ("circuit.dc.solves", "count"),
    ("circuit.dc.newton_iters", "count"),
    ("circuit.sparse.refactor_skip_ratio", "ratio"),
    ("service.http.submit_ms", "ms"),
    ("service.http.status_ms", "ms"),
    ("service.http.first_record_ms", "ms"),
    ("service.http.report_ms", "ms"),
    ("service.http.upload_ms", "ms"),
    ("service.http.upload_tail_ms", "ms"),
    ("service.job.queue_wait_ms", "ms"),
    ("service.job.tail_ms", "ms"),
    ("service.worker.run_ms", "ms"),
    ("service.worker.busy_ratio", "ratio"),
    ("service.outside_share", "ratio"),
    ("service.requests_rejected", "count"),
    ("dut.registry.created", "count"),
    ("dut.registry.dedup_ratio", "ratio"),
    ("dut.model.build_ms", "ms"),
    ("dut.model.analysis_ms", "ms"),
    ("dut.model.calibrate_ms", "ms"),
    ("dut.check.us_per_defect", "us"),
    ("bench.failed_frac", "ratio"),
    ("bench.span_overhead_share", "ratio"),
];

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    failed_checks: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one output check as an operation; a false check fails it.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let what = what.into();
            println!("CHECK FAILED: {what}");
            self.failed_checks.push(what);
        }
    }

    /// Counts program operations (defects simulated, requests made).
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failed_checks.is_empty()
    }

    /// Prints the metrics of `list` by name and unit, then returns the
    /// closing JSON line. Every end-to-end metric must have been set;
    /// a per-layer metric left unset is a layer the workload skips (0).
    pub fn finish(&mut self, list: &[(&'static str, &'static str)], all_required: bool) -> String {
        self.set(
            "bench.failed_frac",
            crate::stats::failed_frac(self.failed, self.attempted),
        );
        let mut json = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            let value = match self.get(name) {
                Some(v) => v,
                None if all_required => panic!("end-to-end metric {name} was not measured"),
                None => 0.0,
            };
            // `+ 0.0` turns an empty sum's -0.0 into 0.0.
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            println!("  {name:<36} {value:>14.6} {unit}");
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(value)
            ));
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Shortest round-trip decimal of a finite f64, always valid JSON.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Peak resident set size of this process in MB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closing_line_has_exactly_the_listed_metrics() {
        let mut r = Report::default();
        r.ops(10, 1);
        r.check("ok", true);
        r.set("setup_s", 0.5);
        r.set("op_p50_ms", 12.0);
        r.set("ops_per_s", 3.25);
        r.set("peak_rss_mb", 14.0);
        let line = r.finish(&END_TO_END, true);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":11,\"failed\":1,"));
        assert!(line.contains("\"op_p50_ms\":{\"value\":12.0,\"unit\":\"ms\"}"));
        assert!(!line.contains("bench.failed_frac"));
        assert_eq!(r.get("bench.failed_frac"), Some(1.0 / 11.0));
    }

    #[test]
    fn unset_layers_read_zero() {
        let mut r = Report::default();
        let line = r.finish(&PER_LAYER, false);
        assert!(line.contains("\"adc.refnet.calls\":{\"value\":0.0,\"unit\":\"count\"}"));
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
