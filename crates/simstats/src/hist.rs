//! Streaming FCT-percentile aggregation: a fixed-bin log-scale histogram.
//!
//! Fleet campaigns complete tens of thousands of flows per cell; holding
//! every flow-completion time to sort at the end is O(total flows) memory
//! and, worse, makes parallel aggregation order-sensitive. This sketch
//! fixes both: observations land in logarithmically spaced bins whose
//! edges are compile-time constants, so merging two histograms is plain
//! element-wise addition — commutative and associative — and percentiles
//! read off the cumulative counts with a bounded relative error set by
//! the bin width (32 bins per decade ⇒ every bin spans a factor of
//! 10^(1/32) ≈ 1.075, and reporting the geometric bin center keeps the
//! error within ±3.7%). Parallel campaigns therefore produce *exactly*
//! the percentiles a serial run would, regardless of worker count or
//! merge order.

use serde::{Deserialize, Serialize};

/// Bins per decade. 32 gives ±3.7% worst-case relative error at the
/// geometric bin center — far below the run-to-run variance of any FCT.
const BINS_PER_DECADE: usize = 32;
/// Lowest representable value (seconds): 100 µs, well under one LAN RTT.
const LO: f64 = 1e-4;
/// One past the highest representable value (seconds): ~2.8 hours.
const HI: f64 = 1e4;
/// Number of decades spanned.
const DECADES: usize = 8;
/// Total bin count.
const BINS: usize = BINS_PER_DECADE * DECADES;

/// A fixed-geometry log-scale histogram over positive values (seconds).
///
/// All instances share the same bin edges, so [`merge`](Self::merge) is
/// total: any two histograms can be combined, and `a.merge(b)` equals
/// `b.merge(a)` count-for-count. Values below the range are clamped into
/// an underflow bucket (reported as `LO`), values at or above the top
/// into an overflow bucket (reported as `HI`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogHistogram {
    /// Per-bin observation counts, lowest bin first.
    counts: Vec<u64>,
    /// Observations below `LO` (including zero and non-finite inputs).
    underflow: u64,
    /// Observations at or above `HI`.
    overflow: u64,
    /// Total observations, including under/overflow.
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; BINS],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Record one observation, in seconds.
    pub fn observe(&mut self, secs: f64) {
        self.total += 1;
        if secs.is_nan() || secs < LO {
            // NaN, negative, zero, and sub-range values all land here.
            self.underflow += 1;
        } else if secs >= HI {
            self.overflow += 1;
        } else {
            let idx = ((secs / LO).log10() * BINS_PER_DECADE as f64) as usize;
            // log10 rounding at a bin edge can land exactly on BINS.
            self.counts[idx.min(BINS - 1)] += 1;
        }
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Fold another histogram into this one. Element-wise addition over
    /// identical bin edges: commutative, associative, loss-free.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
    }

    /// The merged combination of two histograms.
    pub fn merged(&self, other: &LogHistogram) -> LogHistogram {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// The nearest-rank percentile (`p` in 0..=100), in seconds, reported
    /// at the geometric center of the bin holding that rank. Returns 0.0
    /// for an empty histogram.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.total);
        let mut seen = self.underflow;
        if rank <= seen {
            return LO;
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if rank <= seen {
                // Geometric bin center: sqrt(lower_edge × upper_edge).
                return LO * 10f64.powf((i as f64 + 0.5) / BINS_PER_DECADE as f64);
            }
        }
        HI
    }

    /// The (p50, p90, p99, p99.9) tuple, in seconds.
    pub fn quartet(&self) -> (f64, f64, f64, f64) {
        (
            self.percentile(50.0),
            self.percentile(90.0),
            self.percentile(99.0),
            self.percentile(99.9),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::percentile as exact_percentile;
    use proptest::prelude::*;

    /// Worst-case relative error of a geometric-center report: half a bin
    /// in log space, i.e. a factor of 10^(1/64) ≈ 1.0366.
    const MAX_REL_ERR: f64 = 0.04;

    fn lcg_values(seed: u64, n: usize) -> Vec<f64> {
        // Deterministic pseudo-random FCT-like values spanning ~4 decades.
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                1e-3 * 10f64.powf(4.0 * u)
            })
            .collect()
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(99.0), 0.0);
    }

    #[test]
    fn merge_is_commutative_and_matches_single_stream() {
        let vals = lcg_values(7, 4_000);
        let (left, right) = vals.split_at(1_500);
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut serial = LogHistogram::new();
        for &v in left {
            a.observe(v);
        }
        for &v in right {
            b.observe(v);
        }
        for &v in &vals {
            serial.observe(v);
        }
        let ab = a.merged(&b);
        let ba = b.merged(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab, serial, "split-stream merge must equal serial fill");
        assert_eq!(ab.count(), vals.len() as u64);
    }

    #[test]
    fn percentiles_match_exact_within_bin_error() {
        let vals = lcg_values(42, 10_000);
        let mut h = LogHistogram::new();
        for &v in &vals {
            h.observe(v);
        }
        for p in [10.0, 50.0, 90.0, 99.0, 99.9] {
            let exact = exact_percentile(&vals, p).expect("non-empty");
            let approx = h.percentile(p);
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel <= MAX_REL_ERR,
                "p{p}: approx {approx} vs exact {exact} (rel {rel})"
            );
        }
    }

    #[test]
    fn out_of_range_values_clamp() {
        let mut h = LogHistogram::new();
        h.observe(0.0);
        h.observe(-3.0);
        h.observe(f64::NAN);
        h.observe(1e9);
        assert_eq!(h.count(), 4);
        assert_eq!(h.percentile(1.0), 1e-4, "underflow reports the floor");
        assert_eq!(h.percentile(100.0), 1e4, "overflow reports the ceiling");
    }

    fn filled(vals: &[f64]) -> LogHistogram {
        let mut h = LogHistogram::new();
        for &v in vals {
            h.observe(v);
        }
        h
    }

    proptest! {
        #[test]
        fn merge_laws_hold_for_any_values_and_splits(
            vals in prop::collection::vec(
                prop_oneof![
                    (-4.0f64..4.0).prop_map(|e| 10f64.powf(e)),
                    (0..BINS).prop_map(|i| LO * 10f64.powf(i as f64 / BINS_PER_DECADE as f64)),
                    (0usize..5).prop_map(|i| [f64::NAN, 0.0, -0.0, f64::INFINITY, HI][i]),
                    -1e4f64..0.0,
                    HI..1e12,
                ],
                0..300,
            ),
            cuts in (0.0f64..1.0, 0.0f64..1.0),
        ) {
            let at = |f: f64| (f * vals.len() as f64) as usize;
            let (i, j) = (at(cuts.0.min(cuts.1)), at(cuts.0.max(cuts.1)));
            let (a, b, c) = (filled(&vals[..i]), filled(&vals[i..j]), filled(&vals[j..]));
            let serial = filled(&vals);
            prop_assert_eq!(a.merged(&b), b.merged(&a));
            prop_assert_eq!(a.merged(&b).merged(&c), a.merged(&b.merged(&c)));
            prop_assert_eq!(a.merged(&b).merged(&c), serial);
            prop_assert_eq!(serial.count(), vals.len() as u64);
        }
    }

    #[test]
    fn serde_roundtrip_preserves_equality() {
        let mut h = LogHistogram::new();
        for &v in &lcg_values(3, 500) {
            h.observe(v);
        }
        let json = serde::to_string(&h);
        let back: LogHistogram = serde::from_str(&json).expect("roundtrip");
        assert_eq!(h, back);
    }
}
