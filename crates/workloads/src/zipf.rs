//! Zipf-distributed key generator (the YCSB "ScrambledZipfian" core).
//!
//! Implements the Gray et al. rejection-free algorithm with precomputed
//! `zeta(n, θ)`, the same construction YCSB uses. `θ = 0` degenerates to a
//! uniform distribution.

use rand::Rng;

/// Zipf(θ) sampler over `[0, n)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `1 + 0.5^θ`: a draw whose `u · zetan` lies in `[1, rank1_below)` is
    /// rank 1.
    rank1_below: f64,
}

impl Zipf {
    /// Creates a sampler over `n` items with skew `theta` (YCSB default
    /// 0.99; 0 = uniform).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "need at least one item");
        assert!((0.0..1.0).contains(&theta), "theta in [0, 1)");
        if theta == 0.0 {
            return Zipf {
                n,
                theta,
                alpha: 0.0,
                zetan: 0.0,
                eta: 0.0,
                rank1_below: 0.0,
            };
        }
        let zetan = Self::zeta(n, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - Self::zeta(2, theta) / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
            rank1_below: 1.0 + 0.5f64.powf(theta),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact sum for small n; integral approximation beyond, accurate to
        // well under 1% for the sizes used here.
        const EXACT: u64 = 100_000;
        let exact_n = n.min(EXACT);
        let mut sum = 0.0;
        for i in 1..=exact_n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > EXACT {
            // ∫ x^-θ dx from EXACT to n
            let a = 1.0 - theta;
            sum += ((n as f64).powf(a) - (EXACT as f64).powf(a)) / a;
        }
        sum
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws one sample in `[0, n)`; rank 0 is the hottest item.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.theta == 0.0 {
            return rng.gen_range(0..self.n);
        }
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_below {
            return 1;
        }
        let v = ((self.eta * u) - self.eta + 1.0).powf(self.alpha);
        ((self.n as f64) * v) as u64 % self.n
    }

    /// Draws a sample scattered over the key space (YCSB's scrambled
    /// variant) so that hot items are spread rather than clustered at 0.
    pub fn sample_scrambled<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let rank = self.sample(rng);
        // Fibonacci hashing as a cheap permutation.
        rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_theta_zero() {
        let z = Zipf::new(100, 0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = [0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(
            max < min * 2,
            "uniform spread expected: min {min}, max {max}"
        );
    }

    #[test]
    fn skewed_distribution_concentrates_on_low_ranks() {
        let z = Zipf::new(10_000, 0.99);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut head = 0u32;
        const N: u32 = 50_000;
        for _ in 0..N {
            if z.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        // With θ=0.99, the hottest 1% of items draw far more than 1% of
        // accesses (YCSB reference: >50%).
        assert!(
            head as f64 / N as f64 > 0.4,
            "head share {}",
            head as f64 / N as f64
        );
    }

    #[test]
    fn samples_stay_in_range() {
        for theta in [0.0, 0.5, 0.8, 0.99] {
            let z = Zipf::new(37, theta);
            let mut rng = SmallRng::seed_from_u64(3);
            for _ in 0..10_000 {
                assert!(z.sample(&mut rng) < 37);
                assert!(z.sample_scrambled(&mut rng) < 37);
            }
        }
    }

    #[test]
    fn zeta_integral_extension_is_close() {
        // compare approximate zeta against exact for a size just over the
        // exact cutoff
        let approx = Zipf::new(150_000, 0.9);
        let mut exact = 0.0;
        for i in 1..=150_000u64 {
            exact += 1.0 / (i as f64).powf(0.9);
        }
        assert!((approx.zetan - exact).abs() / exact < 0.01);
        assert_eq!(Zipf::zeta(2, 0.9), 1.0 + 2f64.powf(-0.9));
    }

    #[test]
    #[should_panic(expected = "theta in [0, 1)")]
    fn theta_one_rejected() {
        let _ = Zipf::new(10, 1.0);
    }
}
