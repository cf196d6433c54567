//! Stage-by-stage replays of the facade's work through the public API, one
//! span per call, for the traced run. Each replay folds its samples in the
//! facade's work-list order, so its fields must equal the facade's bit for
//! bit; the workloads check that on every traced op.

use crate::trace::Tracer;
use rayon::prelude::*;
use sixg_measure::campaign::{CampaignConfig, MobileCampaign, Shard};
use sixg_measure::event_backend::EventCampaign;
use sixg_measure::faults::{FaultCampaign, FaultShard};
use sixg_measure::hvt::{self, HvtConfig, HvtReport};
use sixg_measure::scenario::{KeyScheme, Scenario};
use sixg_measure::spec::ExecBackend;
use sixg_measure::CellField;

/// Work items sampled per parallel round before the ordered fold: the
/// library's streaming chunk and its default checkpoint interval.
pub const ROUND: usize = 1024;

/// Samples `items` in parallel rounds of [`ROUND`] and folds each round in
/// list order, as the library's streaming runner does. `sample` names the
/// span around each parallel round; each fold round is an
/// `aggregate.fold` span, and `fold` may open child spans inside it.
/// Returns the number of samples folded.
pub fn rounds<T: Copy + Send + Sync>(
    tr: &mut Tracer,
    items: &[T],
    sample: &'static str,
    collect: impl Fn(T, &mut Vec<f64>) + Sync,
    mut fold: impl FnMut(&mut Tracer, T, &[f64]),
) -> u64 {
    let mut bufs: Vec<(Option<T>, Vec<f64>)> = Vec::new();
    let mut samples = 0u64;
    for chunk in items.chunks(ROUND) {
        if bufs.len() < chunk.len() {
            bufs.resize_with(chunk.len(), || (None, Vec::new()));
        }
        let round = &mut bufs[..chunk.len()];
        for (slot, &item) in round.iter_mut().zip(chunk) {
            slot.0 = Some(item);
        }
        tr.span(sample, || {
            round.par_iter_mut().for_each(|(item, buf)| collect(item.expect("item set"), buf))
        });
        let id = tr.open("aggregate.fold");
        for (item, buf) in round.iter() {
            samples += buf.len() as u64;
            fold(tr, item.expect("item set"), buf);
        }
        tr.close(id);
    }
    samples
}

fn fold_into(field: &mut CellField) -> impl FnMut(&mut Tracer, Shard, &[f64]) + '_ {
    |_, shard, buf| {
        for &v in buf {
            field.push(shard.cell, v);
        }
    }
}

/// Replays one single-scenario run from plan to report aggregates: the
/// backend dispatch of `exec::run_field`, then the super-cell build a
/// wide-scheme report carries.
pub fn run(
    tr: &mut Tracer,
    scenario: &Scenario,
    config: CampaignConfig,
    backend: ExecBackend,
    requirement_ms: f64,
) -> (CellField, Option<HvtReport>) {
    let mut field = CellField::new(scenario.grid.clone());
    match backend {
        ExecBackend::Analytic => {
            let (c, shards) = tr.span("campaign.plan", || {
                let c = MobileCampaign::new(scenario, config);
                let shards = c.shards();
                (c, shards)
            });
            let n = rounds(
                tr,
                &shards,
                "campaign.sample",
                |s, buf| c.collect_shard_into(s, buf),
                fold_into(&mut field),
            );
            tr.add("campaign.samples", n as f64);
        }
        ExecBackend::Event if scenario.spec.faults.is_empty() => {
            let (c, shards) = tr.span("event_backend.plan", || {
                let c = EventCampaign::new(scenario, config);
                let shards = c.shards();
                (c, shards)
            });
            let n = rounds(
                tr,
                &shards,
                "event_backend.sample",
                |s, buf| c.collect_shard_into(s, buf),
                fold_into(&mut field),
            );
            tr.add("event_backend.samples", n as f64);
        }
        ExecBackend::Event => {
            let (c, shards) = tr.span("faults.plan", || {
                let c = FaultCampaign::new(scenario, config);
                let shards = c.shards();
                (c, shards)
            });
            let n = rounds(
                tr,
                &shards,
                "faults.sample",
                |fs, buf| c.collect_shard_into(fs, buf),
                |_, fs: FaultShard, buf| {
                    for &v in buf {
                        field.push(fs.shard.cell, v);
                    }
                },
            );
            tr.add("faults.samples", n as f64);
        }
    }
    let hvt = (KeyScheme::for_grid(&scenario.grid) == KeyScheme::Wide).then(|| {
        tr.span("hvt.build", || {
            hvt::build(&field, &HvtConfig::for_grid(&scenario.grid, requirement_ms))
        })
    });
    (field, hvt)
}

/// True when two fields hold bitwise-identical accumulators over the same
/// grid.
pub fn same_bits(a: &CellField, b: &CellField) -> bool {
    let grid = |f: &CellField| serde_json::to_string(f.grid()).expect("grid serialises");
    grid(a) == grid(b)
        && a.accumulators().len() == b.accumulators().len()
        && a.accumulators().iter().zip(b.accumulators()).all(|(x, y)| {
            let (xn, xm, xq, xl, xh) = x.raw_parts();
            let (yn, ym, yq, yl, yh) = y.raw_parts();
            xn == yn
                && xm.to_bits() == ym.to_bits()
                && xq.to_bits() == yq.to_bits()
                && xl.to_bits() == yl.to_bits()
                && xh.to_bits() == yh.to_bits()
        })
}
