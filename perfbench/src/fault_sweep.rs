//! `fault_sweep`: each op is one `exec::execute` of
//! `specs/sweeps/mega_klagenfurt.json` — the faulted Klagenfurt base plus
//! 120 event-backend variants on the live BGP control plane — checkpointed
//! into a fresh store directory. It is the only
//! workload through the event calendar with BGP speakers, sweep planning
//! with deduplicated compiles, and the fsync'd checkpoint store.

use crate::ledger::{self, Extras};
use crate::replay::{rounds, same_bits};
use crate::trace::Tracer;
use crate::{median, percentile, repeated_setup, secs, work_dir, Args, Metrics, Outcome};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use sixg_measure::exec::{execute, scenario_content_hash, ExecReport, ExecRequest};
use sixg_measure::faults::{FaultCampaign, FaultShard};
use sixg_measure::parallel::with_thread_count;
use sixg_measure::scenario::Scenario;
use sixg_measure::spec::{parse_backend, ExecBackend, ScenarioSpec};
use sixg_measure::store::{
    run_checkpointed_observed, sweep_content_hash, CheckpointConfig, CheckpointOutcome,
    CheckpointStore, StoreEvent, StoreMeta,
};
use sixg_measure::sweep::{AxisDef, Sweep, SweepRun, SweepSpec};
use sixg_measure::{CampaignConfig, CellField};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

const SWEEP: &str = "specs/sweeps/mega_klagenfurt.json";
/// Pool size of the timed ops: 1, for the reason `continental_run` gives.
const THREADS: usize = 1;
/// Pool size of the reference run, so the check also spans pool sizes.
const REFERENCE_THREADS: usize = 2;
/// Ops timed in a run even when `--seconds` has already elapsed.
const MIN_OPS: usize = 4;

struct Input {
    sweep_text: String,
    base_text: String,
    seeds_start: u64,
}

impl Input {
    /// The sweep document with the seeds axis starting at the workload's
    /// seeded start.
    fn spec(&self) -> Result<SweepSpec, String> {
        let mut spec = SweepSpec::from_json(&self.sweep_text).map_err(|e| e.to_string())?;
        for axis in &mut spec.axes {
            if let AxisDef::Seeds { start, .. } = axis {
                *start = self.seeds_start;
            }
        }
        Ok(spec)
    }

    fn base_value(&self) -> Result<Value, String> {
        serde_json::from_str(&self.base_text).map_err(|e| e.to_string())
    }
}

fn input(seed: u64) -> Input {
    let sweep_text = std::fs::read_to_string(SWEEP).unwrap_or_else(|e| panic!("read {SWEEP}: {e}"));
    let spec = SweepSpec::from_json(&sweep_text).unwrap_or_else(|e| panic!("{SWEEP}: {e}"));
    let base = Path::new(SWEEP).parent().expect("sweep directory").join(&spec.base);
    let base_text =
        std::fs::read_to_string(&base).unwrap_or_else(|e| panic!("read {}: {e}", base.display()));
    let seeds_start = SmallRng::seed_from_u64(seed).gen_range(1..1u64 << 40);
    Input { sweep_text, base_text, seeds_start }
}

/// Set-up: the generated input, then one untimed run of the sweep's base
/// scenario, which warms the compile and faulted-campaign paths.
fn setup(seed: u64) -> Input {
    let input = input(seed);
    let base = ScenarioSpec::from_json(&input.base_text).expect("base spec parses");
    match with_thread_count(THREADS, || execute(&ExecRequest::run(base))) {
        Ok(ExecReport::Run(_)) => input,
        _ => panic!("{SWEEP}: the base scenario does not run"),
    }
}

/// The report every op must reproduce: the same sweep run in memory,
/// without a store, at another pool size.
fn reference(input: &Input) -> String {
    let spec = input.spec().expect("sweep parses");
    let sweep = Sweep::new(spec, &input.base_text).unwrap_or_else(|e| panic!("{SWEEP}: {e}"));
    let run = with_thread_count(REFERENCE_THREADS, || sweep.run()).expect("in-memory sweep runs");
    run.report.to_json()
}

/// One op as `sixg-cli sweep --checkpoint DIR` performs it, into the fresh
/// store directory `dir`; returns the report and its rendering.
fn op(input: &Input, dir: &Path) -> Result<(Box<SweepRun>, String), String> {
    let mut req = ExecRequest::sweep(input.spec()?, input.base_value()?);
    req.checkpoint = Some(dir.to_string_lossy().into_owned());
    match with_thread_count(THREADS, || execute(&req)) {
        Ok(ExecReport::Sweep(run)) => {
            let text = run.report.to_json();
            Ok((run, text))
        }
        Ok(other) => Err(format!("sweep request answered {}", other.to_json())),
        Err(e) => Err(format!("sweep request failed: {e}")),
    }
}

fn samples(run: &SweepRun) -> u64 {
    run.report.base.total_samples + run.report.variants.iter().map(|v| v.total_samples).sum::<u64>()
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return traced(args);
    }
    let (input, setup_s) = repeated_setup(|| setup(args.seed));
    let (mut latencies, mut msps, mut vps, mut peaks) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Every op's report must equal the first op's, and that one the
    // reference, computed after the window so the timed ops see only this
    // single-threaded history.
    let mut first: Option<String> = None;
    let mut failed = 0;
    let window = Instant::now();
    while latencies.len() < MIN_OPS || secs(window) < args.seconds {
        let dir = work_dir("fault_sweep");
        crate::reset_peak_rss();
        let t = Instant::now();
        let result = op(&input, &dir);
        let dt = secs(t);
        peaks.push(crate::peak_rss_mb());
        let _ = std::fs::remove_dir_all(&dir);
        match result {
            Ok((run, text)) if first.as_ref().is_none_or(|f| *f == text) => {
                first.get_or_insert(text);
                latencies.push(dt * 1e3);
                msps.push(samples(&run) as f64 / dt / 1e6);
                vps.push((run.report.variant_count + 1) as f64 / dt);
            }
            outcome => {
                if let Err(e) = outcome {
                    eprintln!("fault_sweep: {e}");
                }
                failed += 1;
                latencies.push(f64::INFINITY);
                msps.push(0.0);
                vps.push(0.0);
            }
        }
    }
    let window_s = secs(window);
    let ops = latencies.len();
    if first.is_some_and(|f| f != reference(&input)) {
        failed = ops as u64;
    }
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("peak_rss_mb", median(&peaks), "MB");
    m.put("req_per_s", ops as f64 / window_s, "1/s");
    m.put("latency_p50_ms", percentile(&latencies, 50.0), "ms");
    m.put("latency_p90_ms", percentile(&latencies, 90.0), "ms");
    m.put("msamples_per_s", median(&msps), "Msamples/s");
    m.put("variants_per_s", median(&vps), "1/s");
    Outcome {
        attempted: ops as u64,
        failed,
        metrics: m,
        info: vec![
            ("threads".into(), Value::U64(THREADS as u64)),
            ("seeds_start".into(), Value::U64(input.seeds_start)),
            ("ops".into(), Value::U64(ops as u64)),
            ("window_s".into(), Value::F64(window_s)),
        ],
    }
}

/// The untraced twin of a traced op: the checkpointed run the facade
/// performs, with a store observer counting writes and bytes.
fn observed(input: &Input, tr: &mut Tracer) -> Result<Box<SweepRun>, String> {
    let spec = input.spec()?;
    let sweep = Sweep::new_unbounded(spec, &input.base_text).map_err(|e| e.to_string())?;
    let dir = work_dir("fault_sweep");
    let (mut writes, mut bytes) = (0u64, 0u64);
    let mut observe = |ev: StoreEvent<'_>| {
        let blob = match ev {
            StoreEvent::Opened { manifest } => manifest,
            StoreEvent::RunSpilled { blob, .. } => blob,
            StoreEvent::CursorCommitted { blob, .. } => blob,
        };
        writes += 1;
        bytes += blob.len() as u64;
        true
    };
    let cfg = CheckpointConfig::new(&dir);
    let outcome =
        with_thread_count(THREADS, || run_checkpointed_observed(&sweep, &cfg, &mut observe));
    let _ = std::fs::remove_dir_all(&dir);
    tr.add("store.writes", writes as f64);
    tr.add("store.bytes", bytes as f64);
    match outcome {
        Ok(CheckpointOutcome::Complete(run)) => Ok(run),
        Ok(_) => Err("checkpointed sweep stopped before completing".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// The traced op: the sweep replayed stage by stage — parse, validate,
/// expand, deduplicated compiles, per-run fault plans, parallel sampling
/// rounds with the ordered fold, and each completed run spilled to a
/// scratch store. Returns the base field followed by the variant fields.
fn replay(input: &Input, tr: &mut Tracer) -> Result<Vec<CellField>, String> {
    let (spec, base_value) =
        tr.span("spec.parse", || Ok::<_, String>((input.spec()?, input.base_value()?)))?;
    tr.span("spec.validate", || {
        let mut req = ExecRequest::sweep(spec.clone(), base_value.clone());
        req.checkpoint = Some("replay".into());
        req.validate()
    })
    .map_err(|e| e.to_string())?;
    let (sweep, variants) = tr
        .span("sweep.expand", || {
            let base_json = serde_json::to_string(&base_value).expect("value serialises");
            let sweep = Sweep::new_unbounded(spec, &base_json)?;
            let variants = sweep.variants()?;
            Ok::<_, sixg_measure::SpecError>((sweep, variants))
        })
        .map_err(|e| e.to_string())?;
    tr.add("sweep.variants", variants.len() as f64);

    let base_config = CampaignConfig {
        seed: sweep.base.campaign.seed,
        sample_interval_s: sweep.base.campaign.sample_interval_s,
        passes: sweep.base.campaign.passes,
    };
    let base_backend = parse_backend(&sweep.base.backend).map_err(|e| e.to_string())?;
    let runs: Vec<(&ScenarioSpec, CampaignConfig, ExecBackend)> =
        std::iter::once((&sweep.base, base_config, base_backend))
            .chain(variants.iter().map(|v| (&v.spec, v.config, v.backend)))
            .collect();

    let mut compiled: BTreeMap<u64, Scenario> = BTreeMap::new();
    for (spec, _, _) in &runs {
        let key = scenario_content_hash(spec);
        if let std::collections::btree_map::Entry::Vacant(slot) = compiled.entry(key) {
            let s = tr.span("scenario.compile", || Scenario::from_spec(spec));
            slot.insert(s.map_err(|e| e.to_string())?);
        }
    }

    let mut campaigns = Vec::with_capacity(runs.len());
    let mut items: Vec<(u32, FaultShard)> = Vec::new();
    for (ri, (spec, config, backend)) in runs.iter().enumerate() {
        let scenario = &compiled[&scenario_content_hash(spec)];
        if *backend != ExecBackend::Event || scenario.spec.faults.is_empty() {
            return Err(format!("run {ri} is not a fault-bearing event run"));
        }
        let (campaign, shards) = tr.span("faults.plan", || {
            let c = FaultCampaign::new(scenario, *config);
            let shards = c.shards();
            (c, shards)
        });
        items.extend(shards.into_iter().map(|fs| (ri as u32, fs)));
        campaigns.push((campaign, scenario.grid.clone()));
    }

    let dir = work_dir("fault_sweep_replay");
    let meta = StoreMeta {
        spec_hash: sweep_content_hash(&sweep),
        sweep: sweep.spec.name.clone(),
        total_runs: runs.len() as u64,
        total_items: items.len() as u64,
        shard_index: 0,
        shard_count: 1,
        runs_from: 0,
        runs_to: runs.len() as u64,
    };
    let store =
        tr.span("store.open", || CheckpointStore::open(&dir, &meta)).map_err(|e| e.to_string())?;
    let mut fields: Vec<CellField> =
        campaigns.iter().map(|(_, grid)| CellField::new(grid.clone())).collect();
    let mut spill_err = None;
    let mut spill = |tr: &mut Tracer, run: u32, field: &CellField| {
        if let Err(e) = tr.span("store.write", || store.write_run(run, field)) {
            spill_err.get_or_insert(e.to_string());
        }
    };
    let mut current = 0u32;
    let n = rounds(
        tr,
        &items,
        "faults.sample",
        |(ri, fs), buf| campaigns[ri as usize].0.collect_shard_into(fs, buf),
        |tr, (ri, fs), buf| {
            if ri != current {
                spill(tr, current, &fields[current as usize]);
                current = ri;
            }
            for &v in buf {
                fields[ri as usize].push(fs.shard.cell, v);
            }
        },
    );
    spill(tr, current, &fields[current as usize]);
    tr.add("faults.samples", n as f64);
    let _ = std::fs::remove_dir_all(&dir);
    match spill_err {
        Some(e) => Err(e),
        None => Ok(fields),
    }
}

/// The traced run: pairs of the observed checkpointed run (untraced) and
/// its stage-by-stage replay (traced), whose fields must equal the
/// checkpointed run's bit for bit.
fn traced(args: &Args) -> Outcome {
    let mut tr = Tracer::new(Instant::now(), 0);
    let input = input(args.seed);
    let reference = reference(&input);
    let (mut facade_ms, mut replay_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let window = Instant::now();
    while attempted == 0 || secs(window) < args.seconds {
        tr.set_op(attempted as u32);
        attempted += 1;
        let t = Instant::now();
        let run = observed(&input, &mut tr);
        let dt = secs(t) * 1e3;
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                eprintln!("fault_sweep: {e}");
                failed += 1;
                break;
            }
        };
        facade_ms.push(dt);
        let id = tr.open("exec.serialise");
        let text = run.report.to_json();
        tr.close(id);
        tr.add("exec.report_bytes", text.len() as f64);

        let t = Instant::now();
        let fields = with_thread_count(THREADS, || replay(&input, &mut tr));
        replay_ms.push(secs(t) * 1e3);
        let same = match &fields {
            Ok(fields) => {
                fields.len() == run.variant_fields.len() + 1
                    && same_bits(&fields[0], &run.base_field)
                    && fields[1..].iter().zip(&run.variant_fields).all(|(a, b)| same_bits(a, b))
            }
            Err(e) => {
                eprintln!("fault_sweep replay: {e}");
                false
            }
        };
        if !(same && text == reference) {
            failed += 1;
        }
    }
    if let Some(path) = &args.spans {
        tr.write_jsonl(path).expect("write spans");
    }
    let (overhead_ms, overhead_pct) = ledger::overhead(&facade_ms, &replay_ms);
    let extras =
        Extras { ops: replay_ms.len() as f64, overhead_ms, overhead_pct, ..Extras::default() };
    Outcome {
        attempted,
        failed,
        metrics: ledger::metrics(&tr, &extras),
        info: vec![
            ("threads".into(), Value::U64(THREADS as u64)),
            ("seeds_start".into(), Value::U64(input.seeds_start)),
            ("facade_op_ms".into(), Value::Array(facade_ms.into_iter().map(Value::F64).collect())),
            ("replay_op_ms".into(), Value::Array(replay_ms.into_iter().map(Value::F64).collect())),
        ],
    }
}
