//! Local-testbed configurations (paper §6.1): the `netem`-shaped dumbbell
//! used for Figs. 2, 15, 16 and Table 1.

use netsim::{Bandwidth, DumbbellSpec, LinkSpec};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Bottleneck bandwidth of every dumbbell (paper: 50 Mbps).
pub const BOTTLENECK: Bandwidth = Bandwidth::from_mbps(50);
/// One-way delay of the bottleneck link itself.
pub const BOTTLENECK_DELAY: Duration = Duration::from_millis(2);

/// Parameters of a dumbbell experiment over the [`BOTTLENECK`] link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DumbbellConfig {
    /// Bottleneck buffer size, in multiples of the *reference flow's* BDP.
    pub buffer_bdp: f64,
    /// Per-pair one-way edge delay: each flow's minRTT is
    /// `2 × (edge_delay[i] + BOTTLENECK_DELAY)`.
    pub edge_delay: Vec<Duration>,
    /// RTT used to size the buffer (the "reference" flow's minRTT).
    pub reference_rtt: Duration,
}

impl DumbbellConfig {
    /// The paper's fairness testbed (Fig. 15): five pairs, all flows with
    /// the same `min_rtt`, 50 Mbps bottleneck, buffer in BDP multiples.
    pub fn fairness(min_rtt: Duration, buffer_bdp: f64, pairs: usize) -> Self {
        let edge = (min_rtt / 2).saturating_sub(BOTTLENECK_DELAY);
        DumbbellConfig {
            buffer_bdp,
            edge_delay: vec![edge; pairs],
            reference_rtt: min_rtt,
        }
    }

    /// The paper's stability testbed (Fig. 16, Table 1): one large flow
    /// with `large_rtt`, plus `smalls` small-flow pairs with a spread of
    /// minRTTs (the paper initiates twelve 2 MB flows with different
    /// minRTTs).
    pub fn stability(large_rtt: Duration, buffer_bdp: f64, smalls: usize) -> Self {
        let mut edge_delay = vec![(large_rtt / 2).saturating_sub(BOTTLENECK_DELAY)];
        for i in 0..smalls {
            // Small-flow minRTTs spread over 20..=130 ms.
            let rtt_ms = 20 + (i as u64 * 10) % 120;
            edge_delay.push((Duration::from_millis(rtt_ms) / 2).saturating_sub(BOTTLENECK_DELAY));
        }
        DumbbellConfig {
            buffer_bdp,
            edge_delay,
            reference_rtt: large_rtt,
        }
    }

    /// Number of host pairs.
    pub fn pairs(&self) -> usize {
        self.edge_delay.len()
    }

    /// The minRTT of pair `i`.
    pub fn min_rtt(&self, i: usize) -> Duration {
        2 * (self.edge_delay[i] + BOTTLENECK_DELAY)
    }

    /// Buffer size in bytes (reference-BDP multiple).
    pub fn buffer_bytes(&self) -> u64 {
        let bdp = BOTTLENECK.bdp_bytes(self.reference_rtt);
        ((bdp as f64 * self.buffer_bdp) as u64).max(8 * 1500)
    }

    /// Materialize as a netsim [`DumbbellSpec`]. Servers on the right,
    /// clients on the left: the right→left bottleneck direction carries
    /// the download traffic and the buffer.
    pub fn to_spec(&self) -> DumbbellSpec {
        let edge_rate = Bandwidth::from_gbps(1);
        let bottleneck_r2l =
            LinkSpec::clean(BOTTLENECK, BOTTLENECK_DELAY).with_queue_bytes(self.buffer_bytes());
        // ACK direction: same rate, tiny queue pressure, unbounded buffer.
        let bottleneck_l2r = LinkSpec::clean(BOTTLENECK, BOTTLENECK_DELAY);
        DumbbellSpec {
            bottleneck_l2r,
            bottleneck_r2l,
            left_edges: self
                .edge_delay
                .iter()
                .map(|&d| LinkSpec::clean(edge_rate, d))
                .collect(),
            right_edges: self
                .edge_delay
                .iter()
                .map(|&d| LinkSpec::clean(edge_rate, d))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fairness_config_rtts() {
        let c = DumbbellConfig::fairness(Duration::from_millis(100), 1.5, 5);
        assert_eq!(c.pairs(), 5);
        for i in 0..5 {
            assert_eq!(c.min_rtt(i), Duration::from_millis(100));
        }
        // 50 Mbps × 100 ms = 625 kB; 1.5 BDP = 937.5 kB.
        assert_eq!(c.buffer_bytes(), 937_500);
    }

    #[test]
    fn stability_config_shapes() {
        let c = DumbbellConfig::stability(Duration::from_millis(200), 1.0, 12);
        assert_eq!(c.pairs(), 13);
        assert_eq!(c.min_rtt(0), Duration::from_millis(200));
        // Small flows have spread RTTs within [20, 140) ms.
        for i in 1..13 {
            let rtt = c.min_rtt(i);
            assert!(rtt >= Duration::from_millis(20) && rtt < Duration::from_millis(140));
        }
    }

    #[test]
    fn spec_materialization() {
        let c = DumbbellConfig::fairness(Duration::from_millis(50), 2.0, 3);
        let spec = c.to_spec();
        assert_eq!(spec.pairs(), 3);
        assert_eq!(spec.bottleneck_r2l.queue_bytes, c.buffer_bytes());
        assert_eq!(
            spec.bottleneck_r2l.rate.base_rate(),
            Bandwidth::from_mbps(50)
        );
    }

    #[test]
    fn buffer_has_floor() {
        let c = DumbbellConfig::fairness(Duration::from_millis(1), 0.01, 1);
        assert!(c.buffer_bytes() >= 8 * 1500);
    }
}
