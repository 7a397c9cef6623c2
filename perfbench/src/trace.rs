//! In-memory span recording for the traced runs. Spans are taken by the
//! benchmark around its own calls into each layer's public functions,
//! kept in memory while the run measures, and written as NDJSON (the
//! `chrome://tracing` "complete event" shape) when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are seconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    pub tid: u32,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// A per-thread span buffer. Ids are unique across recorders that share
/// an epoch because the thread id occupies the high bits.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, tid: u32) -> Recorder {
        Recorder {
            epoch,
            tid,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// A fresh span id.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        (u64::from(self.tid) << 40) | self.next
    }

    /// Records a span that ran over `[start, end)` under `id`.
    pub fn push(&mut self, name: &'static str, id: u64, parent: u64, start: f64, end: f64) {
        self.spans.push(Span {
            name,
            id,
            parent,
            tid: self.tid,
            start,
            end,
        });
    }

    /// Runs `f` inside a new span and returns its result and duration.
    pub fn time<T>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.id();
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, id, parent, start, end);
        (out, end - start)
    }
}

/// Cost of recording one span with [`Recorder::time`], measured on this
/// machine by timing a batch of empty spans.
pub fn span_cost_s() -> f64 {
    const N: usize = 20_000;
    let mut rec = Recorder::new(Instant::now(), 0);
    rec.spans.reserve(N);
    let t = Instant::now();
    for _ in 0..N {
        rec.time("span_cost", 0, || std::hint::black_box(0u8));
    }
    t.elapsed().as_secs_f64() / N as f64
}

/// Writes a traced run's spans to `<out>/trace-<workload>-seed<n>.ndjson`
/// and says where; a write failure is reported, not fatal.
pub fn write_run_trace(args: &crate::Args, spans: &[Span]) {
    let path = args
        .out_dir
        .join(format!("trace-{}-seed{}.ndjson", args.workload, args.seed));
    match write_ndjson(&path, spans) {
        Ok(()) => println!("trace: {} spans written to {}", spans.len(), path.display()),
        Err(e) => println!("trace: could not write {}: {e}", path.display()),
    }
}

/// Writes spans as NDJSON complete events (microsecond timestamps).
fn write_ndjson(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"id\":{},\"parent\":{}}}",
            s.name,
            s.tid,
            s.start * 1e6,
            s.dur() * 1e6,
            s.id,
            s.parent
        )?;
    }
    out.flush()
}
