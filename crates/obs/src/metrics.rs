//! The metrics registry and its three instrument kinds.
//!
//! Registration (cold path) takes the registry's one lock; recording (hot
//! path) touches only the instrument's own atomics.
//! Handles are `&'static`: the registry allocates each instrument once
//! and leaks it, which is the standard trade for process-lifetime metrics
//! — no reference counting, no lock, no lifetime threading through the
//! solver hot loops.
//!
//! Metric names follow Prometheus conventions and may embed a *fixed*
//! label set: `"symbist_campaign_defects_total{outcome=\"detected\"}"`.
//! The renderer groups such series into one family (shared `# HELP` /
//! `# TYPE` header), so a label dimension costs one registration per
//! value — deliberate: the label universes here (outcome, path, state)
//! are small closed enums, and static handles keep recording allocation-
//! free.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::enabled;

/// Log-decade time edges in seconds: 100 ns … 10 s. One decade per
/// bucket spans everything from a 3×3 linear solve to a full campaign
/// checkpoint flush; log spacing keeps relative resolution constant, and
/// fixed edges make expositions diffable across runs and commits.
pub const SECONDS_EDGES: &[f64] = &[1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// Power-of-two count edges: 1 … 256. Sized for Newton iteration counts,
/// whose interesting range is "converged immediately" (1–2) through "deep
/// continuation" (hundreds, the solver's own max_iter territory).
pub const ITERATION_EDGES: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. A no-op while recording is disabled, and for `n = 0`:
    /// drop-time flushes of per-solve tallies mostly add zeros.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 && enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge. A no-op while recording is disabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative). A no-op while recording is disabled.
    #[inline]
    pub fn add(&self, delta: i64) {
        if enabled() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram. Bucket `i` counts samples `v <= edges[i]`;
/// one extra bucket catches everything above the last edge (`+Inf`), so
/// the sample count is the buckets' total and is not stored apart.
/// The sum is an `f64` maintained by compare-and-swap on its bit pattern.
#[derive(Debug)]
pub struct Histogram {
    edges: &'static [f64],
    buckets: Box<[AtomicU64]>,
    sum_bits: AtomicU64,
}

/// Index of the bucket a value falls into for the given edge slice
/// (`edges.len()` = the overflow / `+Inf` bucket).
pub fn bucket_index(edges: &[f64], v: f64) -> usize {
    edges.iter().position(|e| v <= *e).unwrap_or(edges.len())
}

impl Histogram {
    fn new(edges: &'static [f64]) -> Histogram {
        let buckets = (0..=edges.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            edges,
            buckets,
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// The edge slice this histogram was registered with.
    pub fn edges(&self) -> &'static [f64] {
        self.edges
    }

    /// Records one sample. A no-op while recording is disabled.
    #[inline]
    pub fn record(&self, v: f64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_index(self.edges, v)].fetch_add(1, Ordering::Relaxed);
        self.add_sum(v);
    }

    /// Merges a batch of pre-bucketed samples (the [`LocalHistogram`]
    /// flush path). `counts` must use this histogram's edges and have
    /// `edges().len() + 1` entries. A no-op while recording is disabled.
    pub fn merge(&self, counts: &[u64], sum: f64) {
        if !enabled() {
            return;
        }
        for (bucket, n) in self.buckets.iter().zip(counts) {
            if *n > 0 {
                bucket.fetch_add(*n, Ordering::Relaxed);
            }
        }
        self.add_sum(sum);
    }

    fn add_sum(&self, delta: f64) {
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.bucket_counts().iter().sum()
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Per-bucket (non-cumulative) counts, `edges().len() + 1` entries.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// A thread-local (or struct-local) histogram accumulator: plain-integer
/// recording with a single atomic merge on [`flush`](Self::flush) or
/// drop. This is the per-Newton-iteration tool — the solver hot loop
/// increments a plain `u64`, and the shared histogram sees one `merge`
/// per engine lifetime.
#[derive(Debug)]
pub struct LocalHistogram {
    target: &'static Histogram,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl LocalHistogram {
    /// A local accumulator feeding `target`.
    pub fn new(target: &'static Histogram) -> LocalHistogram {
        LocalHistogram {
            target,
            counts: vec![0; target.edges().len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one sample locally (no atomics).
    #[inline]
    pub fn record(&mut self, v: f64) {
        self.counts[bucket_index(self.target.edges(), v)] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Pushes the accumulated samples to the shared histogram and resets.
    pub fn flush(&mut self) {
        if self.count == 0 {
            return;
        }
        self.target.merge(&self.counts, self.sum);
        self.counts.fill(0);
        self.sum = 0.0;
        self.count = 0;
    }
}

impl Drop for LocalHistogram {
    fn drop(&mut self) {
        self.flush();
    }
}

#[derive(Debug, Clone, Copy)]
enum Handle {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

/// The process-wide metric registry: name → (help, instrument) behind one
/// lock. Only registration (once per macro call site, whose `OnceLock`
/// caches the handle) and [`Registry::render_prometheus`] take it;
/// recording never does.
pub struct Registry {
    metrics: Mutex<HashMap<String, (String, Handle)>>,
}

/// The global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        metrics: Mutex::new(HashMap::new()),
    })
}

impl Registry {
    fn register(&self, name: &str, help: &str, make: impl FnOnce() -> Handle) -> Handle {
        let mut metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, handle)) = metrics.get(name) {
            return *handle;
        }
        let handle = make();
        metrics.insert(name.to_string(), (help.to_string(), handle));
        handle
    }

    /// Registers (or fetches) the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> &'static Counter {
        match self.register(name, help, || {
            Handle::Counter(Box::leak(Box::new(Counter::default())))
        }) {
            Handle::Counter(c) => c,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or fetches) the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> &'static Gauge {
        match self.register(name, help, || {
            Handle::Gauge(Box::leak(Box::new(Gauge::default())))
        }) {
            Handle::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or fetches) the histogram `name` with fixed bucket
    /// `edges` (ascending; an implicit `+Inf` bucket is appended).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str, help: &str, edges: &'static [f64]) -> &'static Histogram {
        match self.register(name, help, || {
            Handle::Histogram(Box::leak(Box::new(Histogram::new(edges))))
        }) {
            Handle::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Renders every registered metric in the Prometheus text exposition
    /// format (v0.0.4): `# HELP` / `# TYPE` once per family, series
    /// sorted by name, histograms as cumulative `_bucket`/`_sum`/`_count`.
    pub fn render_prometheus(&self) -> String {
        // family → (kind, help, Vec<(label part, handle)>)
        type Family = (&'static str, String, Vec<(String, Handle)>);
        let mut families: BTreeMap<String, Family> = BTreeMap::new();
        let metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        for (name, (help, handle)) in metrics.iter() {
            let (family, labels) = split_name(name);
            let entry = families
                .entry(family.to_string())
                .or_insert_with(|| (handle.kind(), help.clone(), Vec::new()));
            entry.2.push((labels.to_string(), *handle));
        }
        drop(metrics);
        let mut out = String::new();
        for (family, (kind, help, mut series)) in families {
            series.sort_by(|a, b| a.0.cmp(&b.0));
            let _ = writeln!(out, "# HELP {family} {}", escape_help(&help));
            let _ = writeln!(out, "# TYPE {family} {kind}");
            for (labels, handle) in series {
                match handle {
                    Handle::Counter(c) => {
                        let _ = writeln!(out, "{} {}", series_name(&family, &labels), c.get());
                    }
                    Handle::Gauge(g) => {
                        let _ = writeln!(out, "{} {}", series_name(&family, &labels), g.get());
                    }
                    Handle::Histogram(h) => render_histogram(&mut out, &family, &labels, h),
                }
            }
        }
        out
    }
}

/// Splits `family{label="x"}` into `("family", "label=\"x\"")`; the label
/// part is empty for plain names.
fn split_name(name: &str) -> (&str, &str) {
    match name.split_once('{') {
        Some((family, rest)) => (family, rest.trim_end_matches('}')),
        None => (name, ""),
    }
}

fn series_name(family: &str, labels: &str) -> String {
    if labels.is_empty() {
        family.to_string()
    } else {
        format!("{family}{{{labels}}}")
    }
}

/// A series name with one extra label appended (the histogram `le`).
fn with_extra_label(family: &str, suffix: &str, labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{family}{suffix}{{{extra}}}")
    } else {
        format!("{family}{suffix}{{{labels},{extra}}}")
    }
}

fn render_histogram(out: &mut String, family: &str, labels: &str, h: &Histogram) {
    let counts = h.bucket_counts();
    let mut cumulative = 0u64;
    for (edge, n) in h.edges().iter().zip(&counts) {
        cumulative += n;
        let _ = writeln!(
            out,
            "{} {cumulative}",
            with_extra_label(family, "_bucket", labels, &format!("le=\"{edge}\""))
        );
    }
    // The overflow bucket completes the snapshot, so `+Inf` and `_count`
    // agree with the finite buckets even while samples are landing.
    let count = cumulative + counts[h.edges().len()];
    let _ = writeln!(
        out,
        "{} {count}",
        with_extra_label(family, "_bucket", labels, "le=\"+Inf\"")
    );
    let sum = h.sum();
    let sum_name = series_name(&format!("{family}_sum"), labels);
    let count_name = series_name(&format!("{family}_count"), labels);
    let _ = writeln!(out, "{sum_name} {sum}");
    let _ = writeln!(out, "{count_name} {count}");
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = registry().counter("obs_test_counter_total", "test");
        c.inc();
        c.add(4);
        assert!(c.get() >= 5);
        let g = registry().gauge("obs_test_gauge", "test");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn registration_is_idempotent() {
        let a = registry().counter("obs_test_idem_total", "first help wins");
        let b = registry().counter("obs_test_idem_total", "ignored");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        registry().counter("obs_test_kind_clash", "as counter");
        registry().gauge("obs_test_kind_clash", "as gauge");
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let h = registry().histogram("obs_test_hist_seconds", "test", SECONDS_EDGES);
        h.record(5e-7); // bucket le=1e-6
        h.record(0.5); // bucket le=1.0
        h.record(100.0); // +Inf bucket
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 100.5000005).abs() < 1e-9);
        let counts = h.bucket_counts();
        assert_eq!(counts[bucket_index(SECONDS_EDGES, 5e-7)], 1);
        assert_eq!(counts[SECONDS_EDGES.len()], 1, "+Inf bucket");
    }

    #[test]
    fn bucket_index_edges_are_inclusive() {
        assert_eq!(bucket_index(ITERATION_EDGES, 1.0), 0);
        assert_eq!(bucket_index(ITERATION_EDGES, 2.0), 1);
        assert_eq!(bucket_index(ITERATION_EDGES, 3.0), 2);
        assert_eq!(bucket_index(ITERATION_EDGES, 1e9), ITERATION_EDGES.len());
    }

    #[test]
    fn local_histogram_flushes_on_drop() {
        let h = registry().histogram("obs_test_local_hist", "test", ITERATION_EDGES);
        let before = h.count();
        {
            let mut local = LocalHistogram::new(h);
            local.record(2.0);
            local.record(300.0);
        } // drop flushes
        assert_eq!(h.count(), before + 2);
    }

    #[test]
    fn render_groups_labeled_series_into_one_family() {
        registry()
            .counter(r#"obs_test_family_total{outcome="a"}"#, "family help")
            .inc();
        registry()
            .counter(r#"obs_test_family_total{outcome="b"}"#, "family help")
            .add(2);
        let text = registry().render_prometheus();
        let type_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("# TYPE obs_test_family_total "))
            .collect();
        assert_eq!(type_lines, ["# TYPE obs_test_family_total counter"]);
        assert!(text.contains(r#"obs_test_family_total{outcome="a"} "#));
        assert!(text.contains(r#"obs_test_family_total{outcome="b"} 2"#));
    }

    #[test]
    fn render_histogram_is_cumulative_with_inf() {
        let h = registry().histogram("obs_test_render_hist", "test", ITERATION_EDGES);
        h.record(1.0);
        h.record(2.0);
        let text = registry().render_prometheus();
        assert!(text.contains("obs_test_render_hist_bucket{le=\"1\"} 1"));
        assert!(text.contains("obs_test_render_hist_bucket{le=\"2\"} 2"));
        assert!(text.contains("obs_test_render_hist_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("obs_test_render_hist_sum 3"));
        assert!(text.contains("obs_test_render_hist_count 2"));
    }
}
