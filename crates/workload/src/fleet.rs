//! Fleet workloads: open-loop flow arrivals over heavy-tailed sizes.
//!
//! A fleet cell models "many users behind one bottleneck": flows arrive
//! as an open-loop Poisson process (arrivals don't wait for earlier flows
//! to finish, exactly like independent users clicking links) and each
//! flow draws its size from a heavy-tailed distribution. The offered
//! load is calibrated analytically — `rate = load × bottleneck / mean
//! flow size` — so a `load = 0.6` cell offers 60% of the bottleneck's
//! capacity in expectation regardless of the size distribution chosen.
//!
//! Determinism: arrival gaps and flow sizes come from two *labelled* RNG
//! substreams forked off the cell seed ([`SimRng::fork_labeled`] depends
//! only on parent seed and label, not on draw order), so the generated
//! flow sequence is a pure function of `(workload, seed)` — byte-identical
//! at any worker count, any scheduler, any cache state.

use crate::flows::SizeDistribution;
use netsim::{Bandwidth, SimRng, SimTime};

/// Substream label for the arrival-gap draws.
const LABEL_ARRIVALS: u64 = 0x000F_1EE7_0001;
/// Substream label for the flow-size draws.
const LABEL_SIZES: u64 = 0x000F_1EE7_0002;

/// A fleet workload: how many flows arrive, how fast, and how big.
#[derive(Debug, Clone, Copy)]
pub struct FleetWorkload {
    /// Flow-size distribution.
    pub sizes: SizeDistribution,
    /// Offered load as a fraction of the bottleneck (0.0..1.0 for a
    /// stable system; values ≥ 1 overload it).
    pub load: f64,
    /// The bottleneck rate the load is calibrated against.
    pub bottleneck: Bandwidth,
    /// Total flows to generate.
    pub n_flows: u64,
}

impl FleetWorkload {
    /// A web-browsing fleet at `load` against `bottleneck`.
    pub fn web(load: f64, bottleneck: Bandwidth, n_flows: u64) -> Self {
        FleetWorkload {
            sizes: SizeDistribution::web(),
            load,
            bottleneck,
            n_flows,
        }
    }

    /// Mean flow arrival rate (flows per second) that offers
    /// `load × bottleneck` bytes per second in expectation.
    fn arrival_rate(&self) -> f64 {
        self.load * self.bottleneck.bytes_per_sec() / self.sizes.mean_bytes()
    }

    /// The lazy, deterministic arrival sequence for one cell seed.
    pub fn arrivals(&self, seed: u64) -> FleetArrivals {
        let root = SimRng::new(seed);
        FleetArrivals {
            gaps: root.fork_labeled(LABEL_ARRIVALS),
            sizes_rng: root.fork_labeled(LABEL_SIZES),
            sizes: self.sizes,
            mean_gap_secs: 1.0 / self.arrival_rate(),
            clock_secs: 0.0,
            remaining: self.n_flows,
        }
    }

    /// Canonical parameter string for cache identity: every field that
    /// influences the generated flow sequence.
    pub fn canonical_params(&self) -> String {
        let SizeDistribution { alpha, min, max } = self.sizes;
        format!(
            "fleet sizes=bpareto:a={alpha}:lo={min}:hi={max} load={} btlneck={}Mbps flows={}",
            self.load,
            self.bottleneck.as_mbps_f64(),
            self.n_flows
        )
    }
}

/// One flow arrival: when it starts and how many bytes it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowArrival {
    /// Arrival instant (relative to the cell's t = 0).
    pub at: SimTime,
    /// Flow size in bytes.
    pub bytes: u64,
}

/// Lazy iterator over a cell's flow arrivals — O(1) memory however many
/// flows the cell generates.
#[derive(Debug, Clone)]
pub struct FleetArrivals {
    gaps: SimRng,
    sizes_rng: SimRng,
    sizes: SizeDistribution,
    mean_gap_secs: f64,
    clock_secs: f64,
    remaining: u64,
}

impl Iterator for FleetArrivals {
    type Item = FlowArrival;

    fn next(&mut self) -> Option<FlowArrival> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.clock_secs += self.gaps.exponential(self.mean_gap_secs);
        Some(FlowArrival {
            at: SimTime::from_secs_f64(self.clock_secs),
            bytes: self.sizes.sample(&mut self.sizes_rng).max(1),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::{KB, MB};
    use std::time::Duration;

    fn demo() -> FleetWorkload {
        FleetWorkload::web(0.6, Bandwidth::from_mbps(45), 2_000)
    }

    #[test]
    fn arrival_rate_matches_load_calibration() {
        let w = demo();
        let expect = 0.6 * 45e6 / 8.0 / w.sizes.mean_bytes();
        assert!((w.arrival_rate() - expect).abs() < 1e-9);
        // ~47 KB mean web flow on 45 Mbps at 0.6 load ⇒ ~70 flows/s.
        assert!(w.arrival_rate() > 40.0 && w.arrival_rate() < 120.0);
    }

    #[test]
    fn arrivals_are_deterministic_and_ordered() {
        let w = demo();
        let a: Vec<FlowArrival> = w.arrivals(7).collect();
        let b: Vec<FlowArrival> = w.arrivals(7).collect();
        assert_eq!(a, b, "same seed must regenerate identically");
        assert_eq!(a.len(), 2_000);
        assert!(a.windows(2).all(|p| p[0].at <= p[1].at));
        assert!(a.iter().all(|f| (10 * KB..=20 * MB).contains(&f.bytes)));
        let c: Vec<FlowArrival> = w.arrivals(8).collect();
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn substreams_are_independent_of_draw_order() {
        // Consuming arrivals must not perturb the size stream: sizes come
        // from a labelled fork keyed only by (seed, label).
        let w = demo();
        let sizes_direct: Vec<u64> = {
            let mut rng = SimRng::new(7).fork_labeled(0x000F_1EE7_0002);
            (0..50).map(|_| w.sizes.sample(&mut rng).max(1)).collect()
        };
        let sizes_via_iter: Vec<u64> = w.arrivals(7).take(50).map(|f| f.bytes).collect();
        assert_eq!(sizes_direct, sizes_via_iter);
    }

    #[test]
    fn mean_interarrival_converges() {
        let w = demo();
        let arrivals: Vec<FlowArrival> = w.arrivals(3).collect();
        let span = arrivals.last().unwrap().at.saturating_since(SimTime::ZERO);
        let measured_rate = arrivals.len() as f64 / span.as_secs_f64();
        let rel = (measured_rate - w.arrival_rate()).abs() / w.arrival_rate();
        assert!(
            rel < 0.10,
            "measured {measured_rate} vs {}",
            w.arrival_rate()
        );
        assert!(span > Duration::from_secs(10), "cell spans real time");
    }
}
