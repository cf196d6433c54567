//! The repository benchmark: times the `sixg` pipeline end to end on three
//! workloads, checks every op's output, and in a separate traced run
//! attributes the time to the library's modules.
//!
//! ```text
//! sixg-perfbench --workload serve_mix|continental_run|fault_sweep \
//!     --seed N --seconds S --trace 0|1 [--spans FILE]
//! ```
//!
//! Prints one JSON object as the last line of standard output (see
//! `perfbench/README.md`). `perfbench/run.py` builds this package, runs it
//! and adds the host fingerprint. Exits 1 when any output check fails.

mod continental;
mod fault_sweep;
mod ledger;
mod replay;
mod serve_mix;
mod trace;

use serde::Value;
use std::path::PathBuf;
use std::time::Instant;

/// Times each workload's set-up is repeated; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its spans (one JSON object per line).
    pub spans: Option<PathBuf>,
}

/// Named metric values with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_value(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(name, v, unit)| {
                    // A failed request has infinite latency; JSON has no
                    // infinity, so it reads as the largest finite number.
                    let v = if v.is_finite() { *v } else { f64::MAX };
                    let entry = Value::Object(vec![
                        ("value".into(), Value::F64(v)),
                        ("unit".into(), Value::String((*unit).into())),
                    ]);
                    (name.clone(), entry)
                })
                .collect(),
        )
    }
}

/// What a workload run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Details kept with the result record (pool sizes, op counts, …).
    pub info: Vec<(String, Value)>,
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank - 1]
}

/// Median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs the workload's set-up [`SETUP_REPS`] times and keeps the last
/// state; returns it with the median set-up time in seconds.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(secs(t));
    }
    (state.expect("at least one set-up"), median(&times))
}

/// Resets the peak resident set to the current one, so the next
/// [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset the peak RSS");
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// A fresh directory under the checkout's `.bench_work`, for stores the
/// workloads write.
pub fn work_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(".bench_work").join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn parse_args() -> Result<(String, Args), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?.to_string();
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    let spans = get("--spans").ok().map(PathBuf::from);
    Ok((workload, Args { seed, seconds, trace, spans }))
}

fn main() {
    let (workload, args) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sixg-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match workload.as_str() {
        "serve_mix" => serve_mix::run(&args),
        "continental_run" => continental::run(&args),
        "fault_sweep" => fault_sweep::run(&args),
        other => {
            eprintln!("sixg-perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir(".bench_work");
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let record = Value::Object(vec![
        ("workload".into(), Value::String(workload)),
        ("seed".into(), Value::U64(args.seed)),
        ("trace".into(), Value::Bool(args.trace)),
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(outcome.attempted)),
        ("failed".into(), Value::U64(outcome.failed)),
        ("metrics".into(), outcome.metrics.to_value()),
        ("info".into(), Value::Object(outcome.info)),
    ]);
    println!("{}", serde_json::to_string(&record).expect("record serialises"));
    if !correct {
        std::process::exit(1);
    }
}
