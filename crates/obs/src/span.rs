//! Span-based tracing with a bounded ring-buffer exporter.
//!
//! A span is an RAII guard: [`span`]`("newton_solve")` opens it, dropping
//! the guard closes it and pushes one [`TraceEvent`] into the global
//! [`Tracer`] ring. Nesting on a thread is tracked by a thread-local span
//! stack, so a child event carries its parent's span id without any
//! caller plumbing. A thread-local *scope* string (e.g. `job-7`) tags
//! every event opened while it is installed — the service uses it to
//! slice one job's spans out of the shared ring for `/v1/jobs/{id}/trace`.
//!
//! The ring is bounded (default 16384 events): overflow evicts the oldest
//! event and increments a drop counter, so tracing can stay enabled for
//! arbitrarily long campaigns in constant memory. Export is NDJSON, one
//! complete (`"ph":"X"`) event per line in the Trace Event Format that
//! `chrome://tracing` / Perfetto load directly.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::{enabled, write_json_str};

/// Default ring capacity, in events.
pub const DEFAULT_RING_CAPACITY: usize = 16_384;

/// One closed span, ready for export.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span name (static: span names are code locations, not data).
    pub name: &'static str,
    /// Unique id of this span (process-wide, monotonically assigned).
    pub span_id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent_id: Option<u64>,
    /// Sequential id of the thread the span ran on.
    pub thread_id: u64,
    /// Scope label active when the span opened (e.g. `job-7`).
    pub scope: Option<Arc<str>>,
    /// Start time, microseconds since the process trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

impl TraceEvent {
    /// Renders the event as one line (no trailing newline) of
    /// `chrome://tracing` Trace Event Format JSON.
    pub fn to_json_line(&self) -> String {
        let mut line = String::with_capacity(128);
        line.push_str(r#"{"name":"#);
        let _ = write_json_str(&mut line, self.name);
        let _ = write!(
            line,
            r#","cat":"symbist","ph":"X","ts":{},"dur":{},"pid":1,"tid":{},"args":{{"span":{}"#,
            self.start_us, self.dur_us, self.thread_id, self.span_id
        );
        if let Some(parent) = self.parent_id {
            let _ = write!(line, r#","parent":{parent}"#);
        }
        if let Some(scope) = &self.scope {
            line.push_str(r#","scope":"#);
            let _ = write_json_str(&mut line, scope);
        }
        line.push_str("}}");
        line
    }
}

/// The bounded global event ring.
pub struct Tracer {
    ring: Mutex<VecDeque<TraceEvent>>,
    capacity: AtomicUsize,
    dropped: AtomicU64,
}

/// The global tracer.
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        ring: Mutex::new(VecDeque::with_capacity(256)),
        capacity: AtomicUsize::new(DEFAULT_RING_CAPACITY),
        dropped: AtomicU64::new(0),
    })
}

impl Tracer {
    /// Current ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Resizes the ring (min 1). If shrinking below the current length,
    /// the oldest events are evicted and counted as dropped.
    pub fn set_capacity(&self, capacity: usize) {
        let capacity = capacity.max(1);
        self.capacity.store(capacity, Ordering::Relaxed);
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        while ring.len() > capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn record(&self, event: TraceEvent) {
        let capacity = self.capacity.load(Ordering::Relaxed);
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        while ring.len() >= capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Number of events evicted to overflow since startup (or last
    /// [`clear`](Self::clear)).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out every buffered event, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Copies out the buffered events whose scope equals `scope`,
    /// oldest first.
    pub fn snapshot_scope(&self, scope: &str) -> Vec<TraceEvent> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|e| e.scope.as_deref() == Some(scope))
            .cloned()
            .collect()
    }

    /// Empties the ring and resets the drop counter.
    pub fn clear(&self) {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Writes every buffered event as NDJSON (one Trace Event Format
    /// object per line), oldest first.
    pub fn write_ndjson<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        for event in self.snapshot() {
            out.write_all(event.to_json_line().as_bytes())?;
            out.write_all(b"\n")?;
        }
        Ok(())
    }
}

/// Microseconds since the process trace epoch (lazily pinned on first
/// use, so all events share one time base).
fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static SCOPE: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// The scope label currently installed on this thread, if any. Campaign
/// code reads this before spawning worker threads and re-installs it in
/// each of them with [`enter_scope_opt`], so per-job scoping survives the
/// fan-out.
pub fn current_scope() -> Option<Arc<str>> {
    SCOPE.with(|s| s.borrow().clone())
}

/// Installs `scope` as this thread's scope label until the returned guard
/// drops (restoring whatever was installed before).
pub fn enter_scope(scope: &str) -> ScopeGuard {
    enter_scope_opt(Some(Arc::from(scope)))
}

/// [`enter_scope`] for an optional, already-shared label — the handoff
/// shape used when propagating a scope into spawned worker threads.
pub fn enter_scope_opt(scope: Option<Arc<str>>) -> ScopeGuard {
    let previous = SCOPE.with(|s| s.replace(scope));
    ScopeGuard { previous }
}

/// Restores the previous thread scope on drop; see [`enter_scope`].
#[must_use = "dropping the guard immediately uninstalls the scope"]
pub struct ScopeGuard {
    previous: Option<Arc<str>>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        SCOPE.with(|s| *s.borrow_mut() = previous);
    }
}

/// Opens a span; prefer the [`span!`](crate::span!) macro. Returns an
/// inert guard (no event on drop) while recording is disabled.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent_id = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied();
        stack.push(span_id);
        parent
    });
    SpanGuard {
        open: Some(OpenSpan {
            name,
            span_id,
            parent_id,
            scope: current_scope(),
            start_us: now_us(),
        }),
    }
}

struct OpenSpan {
    name: &'static str,
    span_id: u64,
    parent_id: Option<u64>,
    scope: Option<Arc<str>>,
    start_us: u64,
}

/// RAII guard for an open span; records a [`TraceEvent`] on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl SpanGuard {
    /// The span id, or `None` for an inert (recording-disabled) guard.
    pub fn id(&self) -> Option<u64> {
        self.open.as_ref().map(|o| o.span_id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Pop our own id. Guards drop in LIFO order within a thread,
            // so this is the top unless a guard was moved across threads;
            // retain() keeps the stack consistent even then.
            if stack.last() == Some(&open.span_id) {
                stack.pop();
            } else {
                stack.retain(|id| *id != open.span_id);
            }
        });
        let end_us = now_us();
        tracer().record(TraceEvent {
            name: open.name,
            span_id: open.span_id,
            parent_id: open.parent_id,
            thread_id: THREAD_ID.with(|t| *t),
            scope: open.scope,
            start_us: open.start_us,
            dur_us: end_us.saturating_sub(open.start_us),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tracer ring is global state shared with other tests in this
    // binary; serialize the tests that clear or resize it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn spans_nest_parent_child() {
        let _serial = lock();
        tracer().clear();
        let outer_id;
        let inner_id;
        {
            let outer = span("outer");
            outer_id = outer.id().expect("recording enabled");
            {
                let inner = span("inner");
                inner_id = inner.id().expect("recording enabled");
            }
        }
        let events = tracer().snapshot();
        let inner = events
            .iter()
            .find(|e| e.span_id == inner_id)
            .expect("inner recorded");
        let outer = events
            .iter()
            .find(|e| e.span_id == outer_id)
            .expect("outer recorded");
        assert_eq!(inner.parent_id, Some(outer_id));
        assert_eq!(outer.parent_id, None);
        assert_eq!(inner.name, "inner");
        // Children close before parents, so ordering in the ring is
        // inner first; and the parent's interval covers the child's.
        assert!(outer.start_us <= inner.start_us);
    }

    #[test]
    fn ring_overflow_evicts_oldest_and_counts() {
        let _serial = lock();
        tracer().clear();
        let saved = tracer().capacity();
        tracer().set_capacity(4);
        for _ in 0..10 {
            drop(span("overflow"));
        }
        assert_eq!(tracer().len(), 4);
        assert!(tracer().dropped() >= 6);
        let events = tracer().snapshot();
        // Oldest-first: ids strictly increase through the snapshot.
        assert!(events.windows(2).all(|w| w[0].span_id < w[1].span_id));
        tracer().set_capacity(saved);
        tracer().clear();
    }

    #[test]
    fn scope_tags_events_and_restores() {
        let _serial = lock();
        tracer().clear();
        assert!(current_scope().is_none());
        {
            let _outer_scope = enter_scope("job-1");
            drop(span("scoped"));
            {
                let _inner_scope = enter_scope("job-2");
                assert_eq!(current_scope().as_deref(), Some("job-2"));
            }
            assert_eq!(current_scope().as_deref(), Some("job-1"));
        }
        assert!(current_scope().is_none());
        let scoped = tracer().snapshot_scope("job-1");
        assert_eq!(scoped.len(), 1);
        assert_eq!(scoped[0].name, "scoped");
        assert!(tracer().snapshot_scope("job-9").is_empty());
        tracer().clear();
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _serial = lock();
        tracer().clear();
        let was = crate::set_enabled(false);
        {
            let guard = span("invisible");
            assert!(guard.id().is_none());
        }
        crate::set_enabled(was);
        assert!(tracer().snapshot().iter().all(|e| e.name != "invisible"));
    }

    #[test]
    fn json_line_is_chrome_trace_shape() {
        let event = TraceEvent {
            name: "solve",
            span_id: 42,
            parent_id: Some(7),
            thread_id: 3,
            scope: Some(Arc::from("job-1")),
            start_us: 10,
            dur_us: 25,
        };
        let line = event.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains(r#""name":"solve""#));
        assert!(line.contains(r#""ph":"X""#));
        assert!(line.contains(r#""ts":10"#));
        assert!(line.contains(r#""dur":25"#));
        assert!(line.contains(r#""tid":3"#));
        assert!(line.contains(r#""parent":7"#));
        assert!(line.contains(r#""scope":"job-1""#));
    }

    #[test]
    fn ndjson_export_is_one_object_per_line() {
        let _serial = lock();
        tracer().clear();
        drop(span("a"));
        drop(span("b"));
        let mut buf = Vec::new();
        tracer().write_ndjson(&mut buf).expect("write to Vec");
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        tracer().clear();
    }
}
