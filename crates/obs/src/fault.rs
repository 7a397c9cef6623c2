//! Deterministic, site-addressed fault injection.
//!
//! A [`FaultPlan`] is a seeded list of rules, each naming an injection
//! *site* (a hierarchical string such as `campaign/checkpoint:57` or
//! `http/response:POST /v1/jobs`), a 1-based occurrence window, and an
//! action. Production code calls [`fire`] at well-known sites; when no
//! plan is installed the call is a single relaxed atomic load, so the
//! hooks are free in normal operation. Because rules fire on exact
//! occurrence counts rather than random draws, a chaos run is replayable
//! from its plan string alone — the `seed` field exists so harnesses that
//! derive plans or jitter from randomness can record the generator seed
//! alongside the rules.
//!
//! The module lives in `symbist-obs` because every layer of the workspace
//! (circuit, defects, service) already depends on the observability crate,
//! and fault hooks must be visible from all of them without creating
//! dependency cycles; `crates/core` re-exports it as `symbist::faultplan`.
//!
//! ## Site vocabulary
//!
//! | site                              | actions        | effect |
//! |-----------------------------------|----------------|--------|
//! | `campaign/defect:{index}`         | `panic`, `stall` | panic inside the per-defect `catch_unwind` (→ `Unresolved(Panic)` record) or install a zero-iteration `SolveBudget` (→ solver stall → `Unresolved(Timeout)`) |
//! | `campaign/checkpoint:{index}`     | `torn`, `panic` | write a truncated checkpoint line then panic, or panic before the write — both fail the whole campaign |
//! | `worker/kill:{tag}`               | `panic`        | panic in the service worker after a record is durable — the job fails after k records |
//! | `http/response:{METHOD} {path}`   | `drop`, `reject` | close the connection without responding, or synthesize a 503 |

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// What an armed rule does when it fires at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultAction {
    /// Panic at the site (worker kill, panic-in-record, panic-in-flush).
    Panic,
    /// Write a deliberately truncated record then panic (torn checkpoint).
    Torn,
    /// Drop the in-flight response without answering (connection death).
    Drop,
    /// Synthesize a transient 503 rejection instead of serving.
    Reject,
    /// Exhaust the solver budget so the solve stalls out deterministically.
    Stall,
}

impl FaultAction {
    fn parse(label: &str) -> Option<FaultAction> {
        Some(match label {
            "panic" => FaultAction::Panic,
            "torn" => FaultAction::Torn,
            "drop" => FaultAction::Drop,
            "reject" => FaultAction::Reject,
            "stall" => FaultAction::Stall,
            _ => return None,
        })
    }

    fn label(self) -> &'static str {
        match self {
            FaultAction::Panic => "panic",
            FaultAction::Torn => "torn",
            FaultAction::Drop => "drop",
            FaultAction::Reject => "reject",
            FaultAction::Stall => "stall",
        }
    }
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One armed injection: fire `action` at occurrences `nth .. nth+count`
/// of any site that starts with `site`.
#[derive(Debug)]
pub struct FaultRule {
    /// Site prefix the rule matches (`campaign/defect:` matches them all).
    pub site: String,
    /// 1-based occurrence at which the rule starts firing.
    pub nth: u64,
    /// Number of consecutive occurrences the rule fires for.
    pub count: u64,
    /// Action taken while the rule is firing.
    pub action: FaultAction,
    hits: AtomicU64,
}

impl FaultRule {
    /// Builds a rule that fires once, at the `nth` matching occurrence.
    pub fn once(site: impl Into<String>, nth: u64, action: FaultAction) -> FaultRule {
        FaultRule {
            site: site.into(),
            nth: nth.max(1),
            count: 1,
            action,
            hits: AtomicU64::new(0),
        }
    }

    /// Records a matching occurrence; true if the rule fires for it.
    fn hit(&self) -> bool {
        let n = self.hits.fetch_add(1, Ordering::SeqCst) + 1;
        n >= self.nth && n < self.nth + self.count
    }

    /// How many matching occurrences this rule has observed so far.
    pub fn observed(&self) -> u64 {
        self.hits.load(Ordering::SeqCst)
    }
}

/// Error from [`FaultPlan::parse`]: the offending clause and a reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError {
    /// The clause that failed to parse.
    pub clause: String,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad fault-plan clause `{}`: {}",
            self.clause, self.reason
        )
    }
}

impl std::error::Error for FaultPlanError {}

/// A seeded, replayable set of [`FaultRule`]s.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Seed recorded for harnesses that pair the plan with derived RNG.
    pub seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Empty plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// The armed rules.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// True when the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Parses the CLI form: semicolon-separated clauses, each either
    /// `seed=N` or `SITE[@NTH[xCOUNT]]=ACTION`, e.g.
    /// `seed=42;worker/kill:shard-1@5=panic;http/response:POST /v1/jobs@1x2=reject`.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultPlanError> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let err = |reason: &str| FaultPlanError {
                clause: clause.to_string(),
                reason: reason.to_string(),
            };
            let (lhs, rhs) = clause
                .split_once('=')
                .ok_or_else(|| err("expected `key=value`"))?;
            if lhs.trim() == "seed" {
                plan.seed = rhs.trim().parse().map_err(|_| err("seed must be a u64"))?;
                continue;
            }
            let action = FaultAction::parse(rhs.trim())
                .ok_or_else(|| err("unknown action (panic|torn|drop|reject|stall)"))?;
            let (site, nth, count) = match lhs.rsplit_once('@') {
                None => (lhs.to_string(), 1, 1),
                Some((site, window)) => {
                    let (nth_s, count_s) = match window.split_once('x') {
                        None => (window, "1"),
                        Some((n, c)) => (n, c),
                    };
                    let nth: u64 = nth_s
                        .trim()
                        .parse()
                        .map_err(|_| err("occurrence must be a positive integer"))?;
                    let count: u64 = count_s
                        .trim()
                        .parse()
                        .map_err(|_| err("count must be a positive integer"))?;
                    if nth == 0 || count == 0 {
                        return Err(err("occurrence and count are 1-based, non-zero"));
                    }
                    (site.to_string(), nth, count)
                }
            };
            if site.is_empty() {
                return Err(err("empty site"));
            }
            plan.rules.push(FaultRule {
                site,
                nth,
                count,
                action,
                hits: AtomicU64::new(0),
            });
        }
        Ok(plan)
    }

    /// Records one occurrence of `site` against every matching rule
    /// (prefix match) and returns the action of the first rule whose
    /// firing window covers this occurrence, if any.
    pub fn fire(&self, site: &str) -> Option<FaultAction> {
        let mut fired = None;
        for rule in &self.rules {
            if site.starts_with(rule.site.as_str()) && rule.hit() && fired.is_none() {
                fired = Some(rule.action);
            }
        }
        if let Some(action) = fired {
            record_injection(action);
        }
        fired
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for rule in &self.rules {
            write!(
                f,
                ";{}@{}x{}={}",
                rule.site, rule.nth, rule.count, rule.action
            )?;
        }
        Ok(())
    }
}

/// Counts a fired injection under `symbist_fault_injections_total{action=..}`.
fn record_injection(action: FaultAction) {
    const HELP: &str = "Fault-plan injections fired, by action.";
    let counter = match action {
        FaultAction::Panic => {
            crate::counter!(r#"symbist_fault_injections_total{action="panic"}"#, HELP)
        }
        FaultAction::Torn => {
            crate::counter!(r#"symbist_fault_injections_total{action="torn"}"#, HELP)
        }
        FaultAction::Drop => {
            crate::counter!(r#"symbist_fault_injections_total{action="drop"}"#, HELP)
        }
        FaultAction::Reject => {
            crate::counter!(r#"symbist_fault_injections_total{action="reject"}"#, HELP)
        }
        FaultAction::Stall => {
            crate::counter!(r#"symbist_fault_injections_total{action="stall"}"#, HELP)
        }
    };
    counter.inc();
}

/// `true` while a plan is installed; keeps the disabled-path cost of
/// [`fire`] to one relaxed load.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn global() -> &'static RwLock<Option<Arc<FaultPlan>>> {
    static GLOBAL: OnceLock<RwLock<Option<Arc<FaultPlan>>>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(None))
}

/// Uninstalls the process-global plan when dropped, so tests cannot leak
/// chaos into each other even on panic.
#[must_use = "dropping the guard uninstalls the plan"]
#[derive(Debug)]
pub struct FaultPlanGuard {
    _private: (),
}

impl Drop for FaultPlanGuard {
    fn drop(&mut self) {
        uninstall();
    }
}

/// Installs `plan` as the process-global fault plan, replacing any
/// previous one. The returned guard uninstalls it on drop.
pub fn install(plan: Arc<FaultPlan>) -> FaultPlanGuard {
    let slot = global();
    *slot.write().unwrap_or_else(|e| e.into_inner()) = Some(plan);
    ACTIVE.store(true, Ordering::SeqCst);
    FaultPlanGuard { _private: () }
}

/// Removes the process-global plan; subsequent [`fire`] calls are inert.
pub fn uninstall() {
    ACTIVE.store(false, Ordering::SeqCst);
    *global().write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// True when a plan is installed.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Records one occurrence of `site` against the installed plan, if any,
/// returning the action to take. The no-plan fast path is one relaxed
/// atomic load.
pub fn fire(site: &str) -> Option<FaultAction> {
    if !active() {
        return None;
    }
    let slot = global().read().unwrap_or_else(|e| e.into_inner());
    slot.as_ref().and_then(|plan| plan.fire(site))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let plan = FaultPlan::parse(
            "seed=42; worker/kill:shard-1@5=panic ;http/response:POST /v1/jobs@2x3=reject;campaign/checkpoint:7=torn",
        )
        .expect("parse");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules().len(), 3);
        let r = &plan.rules()[1];
        assert_eq!(r.site, "http/response:POST /v1/jobs");
        assert_eq!((r.nth, r.count), (2, 3));
        assert_eq!(r.action, FaultAction::Reject);
        assert_eq!(plan.rules()[2].nth, 1);
    }

    #[test]
    fn parse_rejects_bad_clauses() {
        assert!(FaultPlan::parse("worker/kill").is_err());
        assert!(FaultPlan::parse("worker/kill=explode").is_err());
        assert!(FaultPlan::parse("worker/kill@0=panic").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(FaultPlan::parse("=panic").is_err());
    }

    #[test]
    fn display_round_trips() {
        let plan = FaultPlan::parse("seed=7;a/b:c@2x2=drop;x=stall").expect("parse");
        let again = FaultPlan::parse(&plan.to_string()).expect("reparse");
        assert_eq!(again.seed, 7);
        assert_eq!(again.rules().len(), 2);
        assert_eq!(again.rules()[0].site, "a/b:c");
        assert_eq!(again.rules()[1].action, FaultAction::Stall);
    }

    #[test]
    fn fires_in_occurrence_window_with_prefix_match() {
        let plan = FaultPlan::parse("campaign/defect:@3x2=panic").expect("parse");
        assert_eq!(plan.fire("campaign/defect:0"), None);
        assert_eq!(plan.fire("campaign/defect:1"), None);
        assert_eq!(plan.fire("campaign/defect:2"), Some(FaultAction::Panic));
        assert_eq!(plan.fire("campaign/defect:3"), Some(FaultAction::Panic));
        assert_eq!(plan.fire("campaign/defect:4"), None);
        assert_eq!(plan.fire("worker/kill:x"), None);
        assert_eq!(plan.rules()[0].observed(), 5);
    }

    #[test]
    fn exact_site_counts_only_matches() {
        let plan = FaultPlan::parse("campaign/checkpoint:7@1=torn").expect("parse");
        assert_eq!(plan.fire("campaign/checkpoint:6"), None);
        assert_eq!(plan.fire("campaign/checkpoint:70"), Some(FaultAction::Torn));
        // Prefix semantics: `:7` matches `:70`; exact addressing should
        // pick indices whose decimal form is not a prefix of another, or
        // rely on occurrence windows. Documented behavior, asserted here.
    }

    #[test]
    fn global_install_fire_uninstall() {
        // Site strings are namespaced to this test; the global slot is
        // shared across the whole test binary.
        let plan = Arc::new(FaultPlan::parse("test/global-site@1=drop").expect("parse"));
        {
            let _guard = install(Arc::clone(&plan));
            assert!(active());
            assert_eq!(fire("test/global-site:a"), Some(FaultAction::Drop));
            assert_eq!(fire("test/global-site:b"), None);
        }
        assert!(!active());
        assert_eq!(fire("test/global-site:c"), None);
    }
}
