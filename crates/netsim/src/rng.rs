//! Deterministic random number generation for the simulator.
//!
//! Every stochastic element of the simulation (link jitter, random loss,
//! workload sizes, start-time staggering) draws from a [`SimRng`] that is
//! derived from a single experiment seed. Substreams are forked with
//! [`SimRng::fork`] so that adding a new consumer of randomness never
//! perturbs the draws seen by existing consumers — a prerequisite for
//! comparable A/B runs (e.g. SUSS on vs. off over identical paths).

/// SplitMix64 step, used to derive independent fork seeds.
///
/// This is the standard seeding recommendation for xoshiro-family
/// generators and gives well-decorrelated substreams from sequential ids.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ core (Blackman & Vigna), the same generator behind
/// `rand`'s 64-bit `SmallRng`. Implemented inline because the build
/// environment has no crates.io access.
#[derive(Debug, Clone)]
struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Seed the full 256-bit state from successive SplitMix64 outputs.
    fn seed_from_u64(mut seed: u64) -> Self {
        let mut s = [0u64; 4];
        for w in &mut s {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *w = z ^ (z >> 31);
        }
        // The all-zero state is the one fixed point; SplitMix64 cannot
        // produce four consecutive zeros from any seed, but guard anyway.
        if s == [0; 4] {
            s[0] = 1;
        }
        Xoshiro256PlusPlus { s }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A seeded, forkable RNG for simulation use.
///
/// Wraps an inline xoshiro256++ core and adds the distribution samplers
/// the link and workload models need (normal, exponential, bounded
/// Pareto) without pulling in extra dependencies.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: Xoshiro256PlusPlus,
    seed: u64,
    fork_counter: u64,
}

impl SimRng {
    /// Create a new RNG from an experiment seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: Xoshiro256PlusPlus::seed_from_u64(splitmix64(seed)),
            seed,
            fork_counter: 0,
        }
    }

    /// The seed this RNG was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fork an independent substream.
    ///
    /// Forks are keyed by (parent seed, fork index) so their draws are
    /// decorrelated from the parent and from each other, and stable across
    /// runs regardless of how much the parent has been consumed.
    pub fn fork(&mut self) -> SimRng {
        self.fork_counter += 1;
        let child_seed = splitmix64(self.seed ^ splitmix64(self.fork_counter));
        SimRng::new(child_seed)
    }

    /// Fork an independent substream identified by a stable label.
    ///
    /// Unlike [`fork`](Self::fork), the result depends only on the parent
    /// seed and the label, never on fork order.
    pub fn fork_labeled(&self, label: u64) -> SimRng {
        SimRng::new(splitmix64(
            self.seed ^ splitmix64(label ^ 0xA5A5_5A5A_C3C3_3C3C),
        ))
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform draw in `[0, 1)` (53-bit resolution).
    pub fn uniform(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is undefined");
        // Lemire's multiply-shift reduction. The modulo bias is at most
        // n/2^64 per draw — unobservable at simulation scales.
        ((self.inner.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Standard normal draw via the Box–Muller transform.
    fn standard_normal(&mut self) -> f64 {
        // Avoid ln(0) by sampling u1 from (0, 1].
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Exponential draw with the given mean (`mean = 1/lambda`).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.uniform();
        -mean * u.ln()
    }

    /// Bounded Pareto draw on `[lo, hi]` with shape `alpha`.
    ///
    /// Used for heavy-tailed flow-size distributions typical of Internet
    /// traffic (many mice, few elephants).
    pub fn bounded_pareto(&mut self, alpha: f64, lo: f64, hi: f64) -> f64 {
        assert!(
            alpha > 0.0 && lo > 0.0 && hi > lo,
            "invalid bounded Pareto parameters"
        );
        let u = self.uniform();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        // Inverse-CDF of the bounded Pareto.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_decorrelated_from_parent() {
        let mut parent = SimRng::new(7);
        let mut child = parent.fork();
        let p: Vec<u64> = (0..32).map(|_| parent.next_u64()).collect();
        let c: Vec<u64> = (0..32).map(|_| child.next_u64()).collect();
        assert_ne!(p, c);
    }

    #[test]
    fn labeled_fork_is_order_independent() {
        let mut a = SimRng::new(9);
        let _ = a.next_u64(); // consume some state
        let b = SimRng::new(9);
        let mut fa = a.fork_labeled(5);
        let mut fb = b.fork_labeled(5);
        for _ in 0..16 {
            assert_eq!(fa.next_u64(), fb.next_u64());
        }
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let x = r.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn normal_moments_roughly_match() {
        let mut r = SimRng::new(5);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn exponential_mean_roughly_matches() {
        let mut r = SimRng::new(6);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let mut r = SimRng::new(8);
        for _ in 0..5000 {
            let x = r.bounded_pareto(1.2, 10.0, 1000.0);
            assert!((10.0..=1000.0).contains(&x), "out of bounds: {x}");
        }
    }

    #[test]
    #[should_panic]
    fn below_zero_panics() {
        SimRng::new(1).below(0);
    }
}
