//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into the workspace's public
//! functions from the benchmark's own code (the library itself carries no
//! instrumentation). Each span records its name, start, end, parent span
//! and op id; counters record work at the same boundaries. Nothing is
//! written until the run ends.

use serde::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The repository modules the ledger attributes time to. A span's layer is
/// the part of its name before the first `.`.
pub const LAYERS: [&str; 12] = [
    "spec",
    "scenario",
    "exec",
    "sweep",
    "campaign",
    "event_backend",
    "faults",
    "aggregate",
    "hvt",
    "store",
    "wire",
    "serve",
];

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u32,
    pub thread: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's recorder. Recorders of concurrent threads share an epoch
/// and are merged with [`Tracer::absorb`] after the threads are joined.
pub struct Tracer {
    epoch: Instant,
    thread: u32,
    op: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

/// Handle of an open span.
#[must_use]
pub struct SpanId(usize);

impl Tracer {
    pub fn new(epoch: Instant, thread: u32) -> Self {
        Self {
            epoch,
            thread,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the op id the next spans belong to.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            thread: self.thread,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Closes span `id` under a name decided by what the call did (a cache
    /// lookup that compiled is a compile).
    pub fn close_as(&mut self, id: SpanId, name: &'static str) {
        self.spans[id.0].name = name;
        self.close(id);
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, counter: &'static str, n: f64) {
        *self.counters.entry(counter).or_insert(0.0) += n;
    }

    pub fn counter(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0.0)
    }

    /// Moves another thread's spans and counters into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed recorder has open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0.0) += v;
        }
    }

    /// Total duration of spans named `name`, ms.
    pub fn busy_ms(&self, name: &str) -> f64 {
        let ns: u64 = self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum();
        ns as f64 / 1e6
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Per-layer `(spans, busy ms, self ms)`. A span's self time is its
    /// duration minus the time its child spans cover; children are
    /// recorded on the parent's thread one after another, so they never
    /// overlap.
    pub fn layers(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        assert!(self.open.is_empty(), "ledger read with open spans");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> =
            LAYERS.iter().map(|&l| (l, (0, 0.0, 0.0))).collect();
        for (s, &kids) in self.spans.iter().zip(&child_ns) {
            let layer = s.name.split('.').next().unwrap_or_default();
            if let Some(e) = out.get_mut(layer) {
                e.0 += 1;
                e.1 += s.dur_ns() as f64 / 1e6;
                e.2 += s.dur_ns().saturating_sub(kids) as f64 / 1e6;
            }
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Value::Object(vec![
                ("id".into(), Value::U64(i as u64)),
                ("name".into(), Value::String(s.name.into())),
                ("start_ns".into(), Value::U64(s.start_ns)),
                ("end_ns".into(), Value::U64(s.end_ns)),
                ("parent".into(), s.parent.map_or(Value::Null, |p| Value::U64(p as u64))),
                ("op".into(), Value::U64(u64::from(s.op))),
                ("thread".into(), Value::U64(u64::from(s.thread))),
            ]);
            writeln!(w, "{}", serde_json::to_string(&line).expect("span serialises"))?;
        }
        w.flush()
    }
}
