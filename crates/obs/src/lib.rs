//! # symbist-obs — zero-dependency observability
//!
//! The measurement substrate for the whole workspace: a **metrics
//! registry** (counters, gauges, fixed-bucket histograms) plus
//! **span-based tracing** with a bounded ring-buffer exporter. Hand-rolled
//! on `std` like everything else in the repo — no `prometheus`, no
//! `tracing`, no `opentelemetry`.
//!
//! ## Design constraints
//!
//! * **Hot-path recording is a few atomic ops.** Metric handles are
//!   `&'static` (the registry leaks them once at registration); the
//!   [`counter!`]/[`gauge!`]/[`histogram!`] macros cache the handle in a
//!   per-call-site `OnceLock`, so steady-state cost is one relaxed load
//!   plus the atomic update. Solver-grade call sites (per Newton
//!   iteration) go further and accumulate in plain integers via
//!   [`LocalHistogram`]/local counters, flushing once per solve.
//! * **Deterministic bucket edges.** Histograms take a fixed `&'static`
//!   edge slice at registration ([`SECONDS_EDGES`], [`ITERATION_EDGES`]),
//!   so two runs of the same workload land samples in the same buckets
//!   and the Prometheus exposition diffs cleanly across commits.
//! * **Bounded memory.** The trace ring buffer holds a fixed number of
//!   events (default 16384); overflow evicts the oldest event and counts
//!   the loss — tracing can stay on in production without growing without
//!   bound.
//! * **Globally disableable.** [`set_enabled`]`(false)` turns every
//!   recording path into a single relaxed load: the baseline the
//!   `obs_overhead` gate in `symbist-bench` compares the live layer
//!   against on the shipping observation sweep.
//!
//! ## Quick start
//!
//! ```
//! use symbist_obs as obs;
//!
//! // Metrics: macro caches the handle per call site.
//! obs::counter!("demo_requests_total", "Requests served").inc();
//! obs::histogram!("demo_latency_seconds", "Request latency", obs::SECONDS_EDGES)
//!     .record(0.0032);
//!
//! // Tracing: RAII span guards with parent/child linkage.
//! {
//!     let _outer = obs::span!("handle_request");
//!     let _inner = obs::span!("solve"); // child of handle_request
//! }
//!
//! let text = obs::registry().render_prometheus();
//! assert!(text.contains("demo_requests_total 1"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

pub mod fault;
pub mod metrics;
pub mod span;

pub use fault::{FaultAction, FaultPlan, FaultPlanGuard, FaultRule};
pub use metrics::{
    registry, Counter, Gauge, Histogram, LocalHistogram, Registry, ITERATION_EDGES, SECONDS_EDGES,
};
pub use span::{
    current_scope, enter_scope, enter_scope_opt, span, tracer, ScopeGuard, SpanGuard, TraceEvent,
    Tracer,
};

/// Global recording switch. `true` at startup.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns all metric recording and span capture on or off, returning the
/// previous state. With recording off every instrumentation point costs
/// one relaxed atomic load — the baseline the `obs_overhead` gate
/// compares against to price the instrumentation itself.
pub fn set_enabled(on: bool) -> bool {
    ENABLED.swap(on, Ordering::SeqCst)
}

/// Whether recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Registers (once) and returns a `&'static` [`Counter`], caching the
/// handle in a per-call-site `OnceLock` so repeated executions are one
/// pointer load. The name may carry a fixed Prometheus label set:
/// `counter!(r#"jobs_total{state="completed"}"#, "...")`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $help:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().counter($name, $help))
    }};
}

/// Registers (once) and returns a `&'static` [`Gauge`]; see [`counter!`].
#[macro_export]
macro_rules! gauge {
    ($name:expr, $help:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().gauge($name, $help))
    }};
}

/// Registers (once) and returns a `&'static` [`Histogram`] with the given
/// fixed bucket edges; see [`counter!`].
#[macro_export]
macro_rules! histogram {
    ($name:expr, $help:expr, $edges:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().histogram($name, $help, $edges))
    }};
}

/// Opens an RAII trace span: `let _g = span!("newton_solve");`. The span
/// closes (and its event is recorded) when the guard drops. Nested spans
/// on the same thread link parent → child automatically.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Writes `s` as a quoted JSON string literal. `"`, `\\`, newline,
/// carriage return and tab get their short escapes, every other control
/// character becomes `\u00XX`, and everything else (non-ASCII included)
/// passes through unchanged. The one string escaper behind span NDJSON,
/// `lint --json` and the DUT registry's JSON values.
pub fn write_json_str(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

#[cfg(test)]
mod tests {
    use super::write_json_str;

    #[test]
    fn json_str_escape_set() {
        for (raw, quoted) in [
            ("", r#""""#),
            ("a\"b\\c\nd", r#""a\"b\\c\nd""#),
            ("\r\t", r#""\r\t""#),
            ("\u{0}\u{1b}\u{1f}", r#""\u0000\u001b\u001f""#),
            ("uni → ∞ 😀 ~\u{7f}", "\"uni → ∞ 😀 ~\u{7f}\""),
        ] {
            let mut out = String::new();
            write_json_str(&mut out, raw).expect("writing to a String cannot fail");
            assert_eq!(out, quoted, "{raw:?}");
        }
    }
}
