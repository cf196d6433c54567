//! Per-hop latency decomposition and end-to-end path sampling.
//!
//! Every hop contributes four delay components, mirroring the textbook
//! decomposition the paper's analysis uses:
//!
//! 1. **Propagation** — geodesic link length × fibre-route factor at
//!    ~5 µs/km (deterministic);
//! 2. **Transmission** — packet size / link bandwidth (deterministic);
//! 3. **Queueing** — sampled exponential with the M/G/1 mean wait for the
//!    link's background utilisation (stochastic);
//! 4. **Processing** — lognormal around the node-class base figure
//!    (stochastic).
//!
//! The *expected* values of the same components provide the routing metric
//! ([`expected_link_ms`]) so that paths are chosen by the delays packets
//! will actually experience.

use crate::dist::{LogNormal, Sample};
use crate::packet::MEAN_PACKET_BYTES;
use crate::queueing::{mg1_wait, Load};
use crate::rng::SimRng;
use crate::time::SimDuration;
use crate::topology::{LinkId, NodeId, Topology};
use sixg_geo::coord::C_FIBRE_KM_S;
use sixg_geo::route::FIBRE_ROUTE_FACTOR;

/// Squared coefficient of variation of per-packet service time used for
/// the M/G/1 queueing model (mixed packet sizes ⇒ slightly sub-exponential).
pub const SERVICE_CS2: f64 = 0.8;

/// Coefficient of variation of node processing time.
pub const PROCESSING_CV: f64 = 0.35;

/// Deterministic propagation delay of a link, milliseconds.
pub fn propagation_ms(topo: &Topology, link: LinkId) -> f64 {
    topo.link_km(link) * FIBRE_ROUTE_FACTOR / C_FIBRE_KM_S * 1e3
}

/// Deterministic transmission delay for `size_bytes` on a link, ms.
pub fn transmission_ms(topo: &Topology, link: LinkId, size_bytes: u32) -> f64 {
    size_bytes as f64 * 8.0 / topo.link(link).params.bandwidth_bps * 1e3
}

/// The link's M/G/1 queueing [`Load`] given its background utilisation.
fn link_load(topo: &Topology, link: LinkId) -> Load {
    let p = topo.link(link).params;
    // Service rate in packets/s for MTU-sized cross traffic.
    let mu = p.bandwidth_bps / (MEAN_PACKET_BYTES * 8.0);
    Load::new(p.utilisation * mu, mu)
}

/// Mean queueing wait on a link, milliseconds.
pub fn mean_queue_ms(topo: &Topology, link: LinkId) -> f64 {
    mg1_wait(link_load(topo, link), SERVICE_CS2) * 1e3
}

/// Expected one-way latency of traversing `link` and being processed by
/// the node entered (`into`), milliseconds. This is the IGP metric.
pub fn expected_link_ms(topo: &Topology, link: LinkId, into: NodeId) -> f64 {
    let p = topo.link(link).params;
    propagation_ms(topo, link)
        + transmission_ms(topo, link, MEAN_PACKET_BYTES as u32)
        + mean_queue_ms(topo, link)
        + p.extra_ms
        + topo.node(into).kind.base_processing_ms()
}

/// The deterministic delay constants of one link, tabulated by
/// [`DelaySampler::new`].
#[derive(Debug, Clone, Copy)]
struct LinkConsts {
    propagation_ms: f64,
    mean_queue_ms: f64,
}

/// Stochastic sampler for path delays.
///
/// Construction tabulates every per-link and per-node constant of the
/// draw once — [`propagation_ms`], [`mean_queue_ms`] and the processing
/// [`LogNormal`] — from the free functions above, which stay their single
/// definition. The sampler borrows its topology immutably, so the table
/// cannot go stale. Removed links tabulate as NaN (a tombstone's poisoned
/// bandwidth has no M/G/1 load); a path never crosses one.
#[derive(Debug, Clone)]
pub struct DelaySampler<'a> {
    topo: &'a Topology,
    links: Vec<LinkConsts>,
    processing: Vec<LogNormal>,
}

impl<'a> DelaySampler<'a> {
    /// Creates a sampler over a topology.
    pub fn new(topo: &'a Topology) -> Self {
        let links = topo
            .links()
            .iter()
            .map(|l| {
                if topo.link_removed(l.id) {
                    LinkConsts { propagation_ms: f64::NAN, mean_queue_ms: f64::NAN }
                } else {
                    LinkConsts {
                        propagation_ms: propagation_ms(topo, l.id),
                        mean_queue_ms: mean_queue_ms(topo, l.id),
                    }
                }
            })
            .collect();
        let processing = topo
            .nodes()
            .iter()
            .map(|n| LogNormal::from_mean_cv(n.kind.base_processing_ms(), PROCESSING_CV))
            .collect();
        Self { topo, links, processing }
    }

    /// Deterministic propagation delay of a link, ms (tabulated
    /// [`propagation_ms`]).
    #[inline]
    pub fn propagation_ms(&self, link: LinkId) -> f64 {
        self.links[link.0 as usize].propagation_ms
    }

    /// Deterministic transmission delay for `size_bytes` on a link, ms
    /// ([`transmission_ms`]).
    #[inline]
    pub fn transmission_ms(&self, link: LinkId, size_bytes: u32) -> f64 {
        transmission_ms(self.topo, link, size_bytes)
    }

    /// Draws a link's background queueing wait, ms: exponential at the
    /// tabulated M/G/1 mean. An idle link (zero mean) draws nothing.
    #[inline]
    pub fn queue_ms(&self, link: LinkId, rng: &mut SimRng) -> f64 {
        let qmean = self.links[link.0 as usize].mean_queue_ms;
        // Waiting time in M/G/1 is approximately exponential at moderate
        // load; sampling it exponential with the P-K mean is the standard
        // fast abstraction.
        if qmean > 0.0 {
            -(1.0 - rng.unit()).ln() * qmean
        } else {
            0.0
        }
    }

    /// Draws the processing delay of the node entered, ms: lognormal
    /// around its class's base figure at [`PROCESSING_CV`].
    #[inline]
    pub fn processing_ms(&self, into: NodeId, rng: &mut SimRng) -> f64 {
        self.processing[into.0 as usize].sample(rng)
    }

    /// Samples the one-way delay of a single hop (traverse `link`, be
    /// processed by `into`), milliseconds.
    pub fn hop_ms(&self, link: LinkId, into: NodeId, size_bytes: u32, rng: &mut SimRng) -> f64 {
        let fixed = self.propagation_ms(link)
            + self.transmission_ms(link, size_bytes)
            + self.topo.link(link).params.extra_ms;
        let queue = self.queue_ms(link, rng);
        let proc = self.processing_ms(into, rng);
        fixed + queue + proc
    }

    /// Samples the one-way delay along a path (list of `(node_entered,
    /// via_link)` hops), milliseconds.
    pub fn one_way_ms(&self, hops: &[(NodeId, LinkId)], size_bytes: u32, rng: &mut SimRng) -> f64 {
        hops.iter().map(|&(into, link)| self.hop_ms(link, into, size_bytes, rng)).sum()
    }

    /// Samples a full round trip (forward and reverse sampled
    /// independently over the same hops), milliseconds.
    pub fn rtt_ms(&self, hops: &[(NodeId, LinkId)], size_bytes: u32, rng: &mut SimRng) -> f64 {
        self.one_way_ms(hops, size_bytes, rng) + self.one_way_ms(hops, size_bytes, rng)
    }

    /// Samples the one-way delay as a [`SimDuration`].
    pub fn one_way(
        &self,
        hops: &[(NodeId, LinkId)],
        size_bytes: u32,
        rng: &mut SimRng,
    ) -> SimDuration {
        SimDuration::from_millis_f64(self.one_way_ms(hops, size_bytes, rng))
    }

    /// Expected (mean) one-way latency along a path, milliseconds.
    pub fn expected_one_way_ms(&self, hops: &[(NodeId, LinkId)]) -> f64 {
        hops.iter().map(|&(into, link)| expected_link_ms(self.topo, link, into)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Welford;
    use crate::topology::{Asn, LinkParams, NodeKind};
    use sixg_geo::GeoPoint;

    fn two_node() -> (Topology, NodeId, NodeId, LinkId) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server, "a", GeoPoint::new(46.6, 14.3), Asn(1));
        let b = t.add_node(NodeKind::Server, "b", GeoPoint::new(48.2, 16.4), Asn(1));
        let l = t.add_link(a, b, LinkParams::backbone());
        (t, a, b, l)
    }

    #[test]
    fn propagation_matches_distance() {
        let (t, _, _, l) = two_node();
        let km = t.link_km(l);
        let ms = propagation_ms(&t, l);
        // ~5 µs/km with the route factor.
        let expect = km * 1.05 / C_FIBRE_KM_S * 1e3;
        assert!((ms - expect).abs() < 1e-9);
        assert!(ms > 1.0 && ms < 2.0, "Klagenfurt-Vienna leg ≈1.2ms, got {ms}");
    }

    #[test]
    fn transmission_scales_with_size() {
        let (t, _, _, l) = two_node();
        let t1 = transmission_ms(&t, l, 1250);
        let t2 = transmission_ms(&t, l, 2500);
        assert!((t2 - 2.0 * t1).abs() < 1e-12);
    }

    #[test]
    fn sampled_mean_tracks_expected() {
        let (t, b, _, l) = two_node();
        let sampler = DelaySampler::new(&t);
        let mut rng = SimRng::from_seed(3);
        let mut w = Welford::new();
        for _ in 0..50_000 {
            w.push(sampler.hop_ms(l, b, 1250, &mut rng));
        }
        let expect = expected_link_ms(&t, l, b);
        assert!(
            (w.mean() - expect).abs() / expect < 0.03,
            "sampled {} vs expected {expect}",
            w.mean()
        );
    }

    #[test]
    fn rtt_is_about_twice_one_way() {
        let (t, b, _a, l) = two_node();
        let sampler = DelaySampler::new(&t);
        let hops = vec![(b, l)];
        let mut rng = SimRng::from_seed(4);
        let mut ow = Welford::new();
        let mut rt = Welford::new();
        for _ in 0..20_000 {
            ow.push(sampler.one_way_ms(&hops, 100, &mut rng));
            rt.push(sampler.rtt_ms(&hops, 100, &mut rng));
        }
        assert!((rt.mean() - 2.0 * ow.mean()).abs() / rt.mean() < 0.03);
    }

    #[test]
    fn higher_utilisation_means_higher_delay() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server, "a", GeoPoint::new(46.6, 14.3), Asn(1));
        let b = t.add_node(NodeKind::Server, "b", GeoPoint::new(46.7, 14.4), Asn(1));
        let quiet =
            t.add_link(a, b, LinkParams { bandwidth_bps: 1e9, utilisation: 0.1, extra_ms: 0.0 });
        let busy =
            t.add_link(a, b, LinkParams { bandwidth_bps: 1e9, utilisation: 0.9, extra_ms: 0.0 });
        assert!(mean_queue_ms(&t, busy) > 10.0 * mean_queue_ms(&t, quiet));
        assert!(expected_link_ms(&t, busy, b) > expected_link_ms(&t, quiet, b));
    }

    /// The per-hop draw written out from the free functions: the reference
    /// every [`DelaySampler`] draw must equal bit for bit.
    fn reference_hop_ms(
        t: &Topology,
        link: LinkId,
        into: NodeId,
        size_bytes: u32,
        rng: &mut SimRng,
    ) -> f64 {
        let fixed = propagation_ms(t, link)
            + transmission_ms(t, link, size_bytes)
            + t.link(link).params.extra_ms;
        let qmean = mean_queue_ms(t, link);
        let queue = if qmean > 0.0 { -(1.0 - rng.unit()).ln() * qmean } else { 0.0 };
        let proc_mean = t.node(into).kind.base_processing_ms();
        let proc = LogNormal::from_mean_cv(proc_mean, PROCESSING_CV).sample(rng);
        fixed + queue + proc
    }

    #[test]
    fn draws_match_the_free_function_formula_bitwise() {
        use NodeKind::*;
        let kinds = [
            UserEquipment,
            GnB,
            Upf,
            EdgeServer,
            CoreRouter,
            BorderRouter,
            Ixp,
            CloudDc,
            Anchor,
            Server,
            UserEquipment,
        ];
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let pos = GeoPoint::new(46.6 + 0.13 * i as f64, 14.3 + 0.21 * i as f64);
                t.add_node(k, format!("n{i}"), pos, Asn(1 + i as u32 / 4))
            })
            .collect();
        let mut hops = Vec::new();
        for (i, w) in nodes.windows(2).enumerate() {
            let params = match i {
                // An idle link: the `qmean == 0` branch draws no queue.
                2 => LinkParams { bandwidth_bps: 1e9, utilisation: 0.0, extra_ms: 0.0 },
                // A tunnelled link with a fixed extra delay.
                5 => LinkParams { extra_ms: 1.75, ..LinkParams::transit_loaded() },
                i if i % 2 == 0 => LinkParams::metro(),
                _ => LinkParams::backbone(),
            };
            hops.push((w[1], t.add_link(w[0], w[1], params)));
        }
        assert_eq!(mean_queue_ms(&t, hops[2].1), 0.0);
        let sampler = DelaySampler::new(&t);
        let mut rng = SimRng::from_seed(0x5EED);
        let mut reference = rng.clone();
        for size in [64, 1500] {
            for &(into, link) in &hops {
                let got = sampler.hop_ms(link, into, size, &mut rng);
                let want = reference_hop_ms(&t, link, into, size, &mut reference);
                assert_eq!(got.to_bits(), want.to_bits(), "hop into {into:?} via {link:?}");
            }
            let got = sampler.rtt_ms(&hops, size, &mut rng);
            let mut want = 0.0;
            for _direction in 0..2 {
                let mut one_way = 0.0;
                for &(into, link) in &hops {
                    one_way += reference_hop_ms(&t, link, into, size, &mut reference);
                }
                want += one_way;
            }
            assert_eq!(got.to_bits(), want.to_bits(), "rtt at {size} B");
        }
        assert_eq!(rng.unit().to_bits(), reference.unit().to_bits(), "streams advanced equally");
    }

    #[test]
    fn empty_path_has_zero_delay() {
        let (t, _, _, _) = two_node();
        let sampler = DelaySampler::new(&t);
        let mut rng = SimRng::from_seed(5);
        assert_eq!(sampler.one_way_ms(&[], 100, &mut rng), 0.0);
        assert_eq!(sampler.expected_one_way_ms(&[]), 0.0);
    }
}
