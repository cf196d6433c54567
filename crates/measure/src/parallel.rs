//! Multi-threaded campaign execution on the rayon thread pool.
//!
//! Campaigns are embarrassingly parallel across [`Shard`]s — (pass, cell)
//! work items — because every shard draws from its own derived random
//! stream (see [`sixg_netsim::rng`]). The runner samples shards on the
//! pool's worker threads (`RAYON_NUM_THREADS` controls how many), then
//! merges the per-shard sample batches into a [`CellField`] **in work-list
//! order**, so the floating-point accumulation sequence is exactly the
//! sequential runner's and the result is bitwise identical for every pool
//! size — asserted by the `parallel_equals_sequential_bitwise` thread-count
//! matrix test.

use crate::aggregate::CellField;
use crate::campaign::{CampaignConfig, MobileCampaign, Shard};
use crate::scenario::Scenario;
use rayon::prelude::*;

/// Runs the campaign on the thread pool, sharding at (pass, cell)
/// granularity and merging batches in deterministic work-list order.
/// The analytic half of the [`crate::exec`] dispatch.
pub(crate) fn analytic_field(scenario: &Scenario, config: CampaignConfig) -> CellField {
    let campaign = MobileCampaign::new(scenario, config);
    run_shards(scenario, &campaign.shards(), |shard, buf| campaign.collect_shard_into(shard, buf))
}

/// Work items sampled per streaming round before folding — the memory
/// bound of [`run_items_streaming`]: at most this many sample buffers are
/// alive at once, however long the work list is. Large enough that the
/// pool stays saturated between the (cheap) fold barriers.
pub(crate) const STREAM_CHUNK: usize = 1024;

/// The shared streaming skeleton every parallel runner builds on: sample
/// each work item on the pool via `collect` (each item owns its random
/// stream, so execution order is free), in rounds of at most
/// [`STREAM_CHUNK`] items whose buffers are reused from round to round,
/// then fold every batch back **in work-list order** so the floating-point
/// accumulation sequence — and hence every bit of the result — matches a
/// sequential pass over the same list. Campaign runners instantiate `T =`
/// [`Shard`]; the sweep runner instantiates `T = (variant, Shard)` and
/// keeps whole campaign matrices inside the same fixed memory bound.
pub(crate) fn run_items_streaming<T: Copy + Send + Sync>(
    items: &[T],
    collect: impl Fn(T, &mut Vec<f64>) + Sync,
    mut fold: impl FnMut(T, &[f64]),
) {
    let mut batches: Vec<(Option<T>, Vec<f64>)> = Vec::new();
    for chunk in items.chunks(STREAM_CHUNK) {
        if batches.len() < chunk.len() {
            batches.resize_with(chunk.len(), || (None, Vec::new()));
        }
        let round = &mut batches[..chunk.len()];
        for (slot, &item) in round.iter_mut().zip(chunk) {
            slot.0 = Some(item);
        }
        round.par_iter_mut().for_each(|(item, buf)| collect(item.expect("item set above"), buf));
        for (item, buf) in round.iter() {
            fold(item.expect("item set above"), buf);
        }
    }
}

/// The shard-level parallel skeleton both execution backends use:
/// [`run_items_streaming`] over the campaign's own shard list, folding into
/// one [`CellField`].
pub(crate) fn run_shards(
    scenario: &Scenario,
    shards: &[Shard],
    collect: impl Fn(Shard, &mut Vec<f64>) + Sync,
) -> CellField {
    let mut field = CellField::new(scenario.grid.clone());
    run_items_streaming(shards, collect, |shard, buf| {
        for &v in buf {
            field.push(shard.cell, v);
        }
    });
    field
}

/// The sequential counterpart of [`run_shards`], shared by both backends'
/// `run()` methods: one reusable sample buffer, shards visited in
/// work-list order, samples pushed in cadence order — exactly the
/// accumulation sequence [`run_shards`] reproduces, so the pair stays
/// bitwise interchangeable by construction.
pub(crate) fn run_shards_sequential(
    scenario: &Scenario,
    shards: &[Shard],
    mut collect: impl FnMut(Shard, &mut Vec<f64>),
) -> CellField {
    let mut field = CellField::new(scenario.grid.clone());
    let mut buf = Vec::new();
    for &shard in shards {
        collect(shard, &mut buf);
        for &v in &buf {
            field.push(shard.cell, v);
        }
    }
    field
}

/// Result of one seed of a multi-seed sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Campaign seed.
    pub seed: u64,
    /// Grand mean over reported cells, ms.
    pub grand_mean_ms: f64,
    /// Reported mean range (min, max), ms.
    pub mean_range: (f64, f64),
}

/// Runs the campaign for many seeds on the thread pool (scenario shared;
/// results in input seed order).
pub fn seed_sweep(scenario: &Scenario, base: CampaignConfig, seeds: &[u64]) -> Vec<SweepPoint> {
    seeds
        .par_iter()
        .map(|&seed| {
            let field = MobileCampaign::new(scenario, CampaignConfig { seed, ..base }).run();
            let (min, max) = field.mean_extrema().expect("non-empty campaign");
            SweepPoint {
                seed,
                grand_mean_ms: field.grand_mean_ms(),
                mean_range: (min.mean_ms, max.mean_ms),
            }
        })
        .collect()
}

pub use rayon::with_thread_count;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::klagenfurt::KlagenfurtScenario;

    fn scenario() -> KlagenfurtScenario {
        KlagenfurtScenario::paper(0x6B6C_7531)
    }

    fn assert_fields_bitwise_equal(s: &Scenario, a: &CellField, b: &CellField, context: &str) {
        for cell in s.grid.cells() {
            let (x, y) = (a.stats(cell), b.stats(cell));
            assert_eq!(x.count, y.count, "{context}: cell {cell} count");
            assert_eq!(x.mean_ms.to_bits(), y.mean_ms.to_bits(), "{context}: cell {cell} mean");
            assert_eq!(x.std_ms.to_bits(), y.std_ms.to_bits(), "{context}: cell {cell} std");
        }
    }

    /// The determinism contract, as a thread-count matrix: for every pool
    /// size and several seeds, the parallel runner must reproduce the
    /// sequential runner bit for bit.
    #[test]
    fn parallel_equals_sequential_bitwise() {
        let s = scenario();
        for &seed in &[1u64, 7, 0xBEEF] {
            let config = CampaignConfig { seed, passes: 2, ..Default::default() };
            let seq = MobileCampaign::new(&s, config).run();
            for &threads in &[1usize, 2, 4, 8] {
                let par = with_thread_count(threads, || analytic_field(&s, config));
                assert_fields_bitwise_equal(
                    &s,
                    &seq,
                    &par,
                    &format!("seed {seed}, {threads} threads"),
                );
            }
        }
    }

    #[test]
    fn sweep_produces_stable_grand_means() {
        let s = scenario();
        let points = seed_sweep(&s, CampaignConfig::default(), &[1, 2, 3, 4]);
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!((p.grand_mean_ms - 74.1).abs() < 3.0, "seed {}: {}", p.seed, p.grand_mean_ms);
            assert!(p.mean_range.0 < p.mean_range.1);
        }
    }

    #[test]
    fn sweep_is_deterministic_across_pool_sizes() {
        let s = scenario();
        let a = with_thread_count(1, || seed_sweep(&s, CampaignConfig::default(), &[5, 6]));
        let b = with_thread_count(4, || seed_sweep(&s, CampaignConfig::default(), &[5, 6]));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed, "sweep must keep input seed order");
            assert_eq!(x.grand_mean_ms.to_bits(), y.grand_mean_ms.to_bits());
            assert_eq!(x.mean_range.0.to_bits(), y.mean_range.0.to_bits());
            assert_eq!(x.mean_range.1.to_bits(), y.mean_range.1.to_bits());
        }
    }
}
