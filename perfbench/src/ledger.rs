//! The per-layer ledger a traced run reports: per-stage times and counts
//! from the spans, the layers' span count / busy / self time, the ratio
//! metrics with their bases, and the tracing overhead.

use crate::trace::Tracer;
use crate::{median, Metrics};

/// Spans whose per-op busy time is reported as `<name>_ms`.
const STAGES: [&str; 12] = [
    "spec.parse",
    "spec.validate",
    "scenario.compile",
    "campaign.plan",
    "campaign.sample",
    "event_backend.sample",
    "faults.sample",
    "aggregate.fold",
    "hvt.build",
    "sweep.expand",
    "store.write",
    "exec.serialise",
];

/// Counters reported per op.
const COUNTS: [(&str, &str); 7] = [
    ("campaign.samples", "count"),
    ("event_backend.samples", "count"),
    ("faults.samples", "count"),
    ("sweep.variants", "count"),
    ("store.writes", "count"),
    ("store.bytes", "bytes"),
    ("exec.report_bytes", "bytes"),
];

/// Workload-specific values that do not come from the spans. Every field
/// defaults to 0: a layer the workload does not reach reads 0.
#[derive(Default)]
pub struct Extras {
    /// Traced replay ops: the base of every per-op metric except the
    /// `wire`/`serve` ones.
    pub ops: f64,
    /// Requests sent over the wire while traced: the base of the `wire`
    /// and `serve` layer metrics.
    pub requests: f64,
    pub cache_hits: f64,
    pub cache_lookups: f64,
    pub serve_wait_ms: f64,
    pub scaling_2t: f64,
    pub scaling_2t_base: f64,
    pub cost_ratio: f64,
    pub cost_ratio_base: f64,
    pub fold_share: f64,
    pub fold_share_base: f64,
    pub overhead_ms: f64,
    pub overhead_pct: f64,
}

fn per(total: f64, base: f64) -> f64 {
    if base > 0.0 {
        total / base
    } else {
        0.0
    }
}

/// Tracing overhead: the median traced replay op minus the median
/// untraced facade op, in ms and as a share of the untraced op, %.
pub fn overhead(untraced_ms: &[f64], traced_ms: &[f64]) -> (f64, f64) {
    if untraced_ms.is_empty() || traced_ms.is_empty() {
        return (0.0, 0.0);
    }
    let (u, t) = (median(untraced_ms), median(traced_ms));
    (t - u, (t - u) / u * 100.0)
}

pub fn metrics(tr: &Tracer, x: &Extras) -> Metrics {
    let mut m = Metrics::default();
    for stage in STAGES {
        m.put(format!("{stage}_ms"), per(tr.busy_ms(stage), x.ops), "ms");
    }
    m.put("scenario.compiles", per(tr.count("scenario.compile") as f64, x.ops), "count");
    for (counter, unit) in COUNTS {
        m.put(counter, per(tr.counter(counter), x.ops), unit);
    }
    m.put("wire.write_ms", per(tr.busy_ms("wire.write"), x.requests), "ms");
    m.put("wire.read_ms", per(tr.busy_ms("wire.read"), x.requests), "ms");
    m.put("wire.bytes_out", per(tr.counter("wire.bytes_out"), x.requests), "bytes");
    m.put("wire.bytes_in", per(tr.counter("wire.bytes_in"), x.requests), "bytes");
    m.put("wire.reconnects", tr.counter("wire.reconnects"), "count");
    m.put("serve.wait_ms", x.serve_wait_ms, "ms");
    m.put("exec.cache_hit_ratio", per(x.cache_hits, x.cache_lookups), "ratio");
    m.put("exec.cache_lookups", x.cache_lookups, "count");
    m.put("parallel.scaling_2t", x.scaling_2t, "ratio");
    m.put("parallel.scaling_2t_base", x.scaling_2t_base, "count");
    m.put("event_backend.cost_ratio", x.cost_ratio, "ratio");
    m.put("event_backend.cost_ratio_base", x.cost_ratio_base, "count");
    m.put("aggregate.fold_share", x.fold_share, "ratio");
    m.put("aggregate.fold_share_base", x.fold_share_base, "count");
    for (layer, (spans, busy, own)) in tr.layers() {
        let base = if layer == "wire" || layer == "serve" { x.requests } else { x.ops };
        m.put(format!("{layer}.spans"), per(spans as f64, base), "count");
        m.put(format!("{layer}.busy_ms"), per(busy, base), "ms");
        m.put(format!("{layer}.self_ms"), per(own, base), "ms");
    }
    m.put("trace.ops", x.ops, "count");
    m.put("trace.requests", x.requests, "count");
    m.put("trace.overhead_ms", x.overhead_ms, "ms");
    m.put("trace.overhead_pct", x.overhead_pct, "%");
    m
}
