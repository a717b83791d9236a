//! Flow-size workloads: the paper's sweep grids and a heavy-tailed
//! web-traffic generator for extension experiments.

use netsim::SimRng;

/// One kibibyte-free constant: the paper reports sizes in MB (10^6).
pub const MB: u64 = 1_000_000;
/// Kilobytes (10^3).
pub const KB: u64 = 1_000;

/// The FCT sweep of Figs. 11/12/18: 64 kB up to 12 MB.
pub fn fct_sweep_sizes() -> Vec<u64> {
    vec![
        64 * KB,
        128 * KB,
        256 * KB,
        512 * KB,
        MB,
        2 * MB,
        3 * MB,
        4 * MB,
        5 * MB,
        6 * MB,
        8 * MB,
        10 * MB,
        12 * MB,
    ]
}

/// The loss-rate sweep of Fig. 14: 2 MB to 40 MB.
pub fn loss_sweep_sizes() -> Vec<u64> {
    vec![
        2 * MB,
        4 * MB,
        6 * MB,
        8 * MB,
        12 * MB,
        16 * MB,
        20 * MB,
        30 * MB,
        40 * MB,
    ]
}

/// The flow-size law of synthetic web-like workloads: a bounded Pareto
/// (heavy-tailed, "mice and elephants").
#[derive(Debug, Clone, Copy)]
pub struct SizeDistribution {
    /// Shape parameter (smaller = heavier tail).
    pub alpha: f64,
    /// Minimum flow size, bytes.
    pub min: u64,
    /// Maximum flow size, bytes.
    pub max: u64,
}

impl SizeDistribution {
    /// A web-browsing-like mix: mostly small objects, occasional large
    /// ones (motivated by the flow-size studies the paper cites, its
    /// reference 19).
    pub fn web() -> Self {
        SizeDistribution {
            alpha: 1.2,
            min: 10 * KB,
            max: 20 * MB,
        }
    }

    /// The analytic mean flow size in bytes. Offered-load calibration
    /// (`load × bottleneck = rate × mean size`) needs this in closed
    /// form; sampling-based estimates would make the arrival rate depend
    /// on how many draws were averaged.
    pub fn mean_bytes(&self) -> f64 {
        let (alpha, l, h) = (self.alpha, self.min as f64, self.max as f64);
        if (alpha - 1.0).abs() < 1e-9 {
            // α = 1 limit: L·ln(H/L) / (1 − L/H).
            l * (h / l).ln() / (1.0 - l / h)
        } else {
            let norm = 1.0 - (l / h).powf(alpha);
            (alpha * l.powf(alpha) / (alpha - 1.0)) * (l.powf(1.0 - alpha) - h.powf(1.0 - alpha))
                / norm
        }
    }

    /// Draw one flow size.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        rng.bounded_pareto(self.alpha, self.min as f64, self.max as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_sorted_and_in_paper_range() {
        let f = fct_sweep_sizes();
        assert!(f.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*f.first().unwrap(), 64 * KB);
        assert_eq!(*f.last().unwrap(), 12 * MB);
        let l = loss_sweep_sizes();
        assert_eq!(*l.first().unwrap(), 2 * MB);
        assert_eq!(*l.last().unwrap(), 40 * MB);
    }

    #[test]
    fn web_distribution_is_heavy_tailed() {
        let mut rng = SimRng::new(2);
        let d = SizeDistribution::web();
        let samples: Vec<u64> = (0..5_000).map(|_| d.sample(&mut rng)).collect();
        let small = samples.iter().filter(|&&s| s < 100 * KB).count();
        let large = samples.iter().filter(|&&s| s > 5 * MB).count();
        assert!(small > samples.len() / 2, "most flows should be mice");
        assert!(large > 0, "elephants must exist");
        assert!(samples.iter().all(|&s| (10 * KB..=20 * MB).contains(&s)));
    }

    #[test]
    fn analytic_means_match_empirical() {
        let mut rng = SimRng::new(11);
        let d = SizeDistribution::web();
        let n = 200_000u64;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng) as f64).sum();
        let empirical = sum / n as f64;
        let analytic = d.mean_bytes();
        let rel = (empirical - analytic).abs() / analytic;
        // Heavy tails converge slowly; 10% at 200k draws is plenty to
        // catch a wrong formula (which would be off by 2× or more).
        assert!(rel < 0.10, "{d:?}: empirical {empirical} vs {analytic}");
    }
}
