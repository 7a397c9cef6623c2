//! The program's own counters, read from its Prometheus exposition before
//! and after a measured window: in-process through `symbist_obs`, for the
//! service workloads through `GET /v1/metrics`.

use std::collections::BTreeMap;
use std::path::Path;

/// One parsed exposition: series name (with labels) → value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot(BTreeMap<String, f64>);

/// The integer counters whose deltas must repeat exactly between runs of
/// one seed: solver work and campaign outcomes. Refactorizations and
/// skipped refactorizations are kept only as their sum: which one a solve
/// takes depends on the per-thread factorization a worker last used, so
/// the split follows work stealing while the sum does not.
const REPEATABLE: [&[&str]; 7] = [
    &["symbist_solver_transient_steps_total"],
    &["symbist_solver_dc_solves_total"],
    &["symbist_solver_newton_iterations_sum"],
    &["symbist_solver_newton_iterations_count"],
    &[
        "symbist_solver_refactors_total",
        "symbist_solver_refactor_skips_total",
    ],
    &["symbist_solver_solves_total"],
    &["symbist_campaign_defects_total"],
];

impl Snapshot {
    /// Parses Prometheus text (comments skipped, malformed lines ignored).
    pub fn parse(text: &str) -> Snapshot {
        let map = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_string(), value.parse::<f64>().ok()?))
            })
            .collect();
        Snapshot(map)
    }

    /// The in-process registry right now.
    pub fn in_process() -> Snapshot {
        Snapshot::parse(&symbist_obs::registry().render_prometheus())
    }

    /// Sum over every series of `family` (all label sets); 0 if absent.
    pub fn family(&self, family: &str) -> f64 {
        self.0
            .iter()
            .filter(|(name, _)| {
                name.as_str() == family
                    || name
                        .strip_prefix(family)
                        .is_some_and(|rest| rest.starts_with('{'))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// One exact series; 0 if absent.
    pub fn series(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `self − before`, series by series.
    pub fn since(&self, before: &Snapshot) -> Snapshot {
        Snapshot(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.series(k)))
                .collect(),
        )
    }

    /// The repeatable counter deltas as one comparable line.
    pub fn repeat_key(&self) -> String {
        REPEATABLE
            .iter()
            .map(|fs| {
                let sum: f64 = fs.iter().map(|f| self.family(f)).sum();
                format!("{}={sum}", fs.join("+"))
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Solver-level figures derived from a counter delta.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverCounts {
    pub transient_steps: f64,
    pub dc_solves: f64,
    pub newton_iters: f64,
    pub refactor_skip_ratio: f64,
    pub defects: f64,
}

impl SolverCounts {
    pub fn from_delta(d: &Snapshot) -> SolverCounts {
        let skips = d.family("symbist_solver_refactor_skips_total");
        let refactors = d.family("symbist_solver_refactors_total");
        SolverCounts {
            transient_steps: d.family("symbist_solver_transient_steps_total"),
            dc_solves: d.family("symbist_solver_dc_solves_total"),
            newton_iters: d.family("symbist_solver_newton_iterations_sum"),
            refactor_skip_ratio: crate::stats::share(skips, skips + refactors),
            defects: d.family("symbist_campaign_defects_total"),
        }
    }
}

/// Compares this run's repeatable counter line with the one the previous
/// run of the same workload and seed left in `dir`, then stores it.
/// Returns a human-readable verdict.
pub fn check_repeat_across_runs(dir: &Path, workload: &str, seed: u64, key: &str) -> String {
    let path = dir.join(format!("counts-{workload}-seed{seed}.txt"));
    let verdict = match std::fs::read_to_string(&path) {
        Ok(prev) if prev == key => "repeat exactly across runs of this seed".to_string(),
        Ok(prev) => {
            format!("DIFFER from the previous run of this seed:\n  was {prev}\n  now {key}")
        }
        Err(_) => "first run of this seed in this checkout".to_string(),
    };
    if let Err(e) = std::fs::write(&path, key) {
        return format!("{verdict} (could not store counts: {e})");
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_families_and_deltas() {
        let before = Snapshot::parse(
            "# HELP x y\n# TYPE x counter\n\
             symbist_solver_solves_total{path=\"dense\"} 3\n\
             symbist_solver_solves_total{path=\"sparse\"} 4\n\
             symbist_solver_solves_total_extra 100\n\
             symbist_solver_refactors_total 1\n",
        );
        let after = Snapshot::parse(
            "symbist_solver_solves_total{path=\"dense\"} 5\n\
             symbist_solver_solves_total{path=\"sparse\"} 10\n\
             symbist_solver_refactors_total 2\n\
             symbist_solver_refactor_skips_total 3\n\
             garbage line\n",
        );
        assert_eq!(before.family("symbist_solver_solves_total"), 7.0);
        let d = after.since(&before);
        assert_eq!(d.family("symbist_solver_solves_total"), 8.0);
        let s = SolverCounts::from_delta(&d);
        assert_eq!(s.refactor_skip_ratio, 0.75);
        assert_eq!(d.series("missing"), 0.0);
    }
}
