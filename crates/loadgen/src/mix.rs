//! Heavy-tailed job-size and user-population mixes.
//!
//! Production job runtimes are not exponential: most jobs are short,
//! but a fat tail of long jobs dominates wave durations (and therefore
//! queue waits, under wave-barrier time charging). [`BoundedPareto`]
//! models that tail with an inverse-CDF sampler — no distribution
//! crates needed — and its hard upper bound keeps any single draw from
//! stalling a simulated cluster forever.
//!
//! User activity is similarly skewed: a few power users submit most of
//! the load while the long tail of a million registered users submits
//! rarely. [`UserMix`] reproduces that with a power-law index map,
//! which is O(1) per draw at any population size.

use rand::rngs::StdRng;
use rand::Rng;

/// Pareto distribution truncated to `[xm, cap]`, sampled by inverting
/// the truncated CDF. Every draw satisfies `xm <= x <= cap`, so sizes
/// are never zero or negative and never unbounded.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundedPareto {
    /// Scale: the minimum (and modal) value. Must be positive.
    pub xm: f64,
    /// Hard upper truncation. Must be ≥ `xm`.
    pub cap: f64,
    /// Tail index: smaller α ⇒ heavier tail. Must be positive.
    pub alpha: f64,
}

impl BoundedPareto {
    /// One draw in `[xm, cap]`.
    pub fn sample(&self, rng: &mut StdRng) -> f64 {
        debug_assert!(self.xm > 0.0 && self.cap >= self.xm && self.alpha > 0.0);
        let u: f64 = rng.gen(); // [0, 1)
                                // Inverse CDF of the bounded Pareto: with r = (xm/cap)^α,
                                // F⁻¹(u) = xm · (1 − u·(1 − r))^(−1/α).
        let r = (self.xm / self.cap).powf(self.alpha);
        let x = self.xm / (1.0 - u * (1.0 - r)).powf(1.0 / self.alpha);
        // Clamp against floating-point drift at the edges.
        x.clamp(self.xm, self.cap)
    }
}

/// Skewed assignment of work to a (possibly huge) user population.
///
/// Sampling maps a uniform draw through `u^skew`: with `skew = 1` every
/// user is equally likely; larger skew concentrates submissions on the
/// low-index "power users" while still touching the whole population —
/// a cheap stand-in for a Zipf mix that needs no harmonic tables.
#[derive(Debug, Clone, PartialEq)]
pub struct UserMix {
    /// Population size. Must be positive.
    pub users: usize,
    /// Power-law skew exponent (≥ 1).
    pub skew: f64,
}

impl UserMix {
    /// One user index in `[0, users)`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        debug_assert!(self.users > 0 && self.skew >= 1.0);
        let u: f64 = rng.gen();
        ((self.users as f64 * u.powf(self.skew)) as usize).min(self.users - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    impl BoundedPareto {
        /// Analytic mean of the truncated distribution (α ≠ 1).
        fn mean(&self) -> f64 {
            let (xm, cap, a) = (self.xm, self.cap, self.alpha);
            if (a - 1.0).abs() < 1e-9 {
                // α = 1: mean = ln(cap/xm) / (1/xm − 1/cap).
                return (cap / xm).ln() / (1.0 / xm - 1.0 / cap);
            }
            let r = (xm / cap).powf(a);
            (a * xm / (a - 1.0)) * (1.0 - (xm / cap).powf(a - 1.0)) / (1.0 - r)
        }

        /// Tail probability P(X > x) of the truncated distribution.
        fn tail(&self, x: f64) -> f64 {
            if x <= self.xm {
                return 1.0;
            }
            if x >= self.cap {
                return 0.0;
            }
            let r = (self.xm / self.cap).powf(self.alpha);
            ((self.xm / x).powf(self.alpha) - r) / (1.0 - r)
        }
    }

    #[test]
    fn samples_stay_inside_the_bounds() {
        let dist = BoundedPareto { xm: 0.5, cap: 15.0, alpha: 1.6 };
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50_000 {
            let x = dist.sample(&mut rng);
            assert!((0.5..=15.0).contains(&x), "out-of-range draw {x}");
        }
    }

    #[test]
    fn empirical_mean_tracks_the_analytic_mean() {
        let dist = BoundedPareto { xm: 0.5, cap: 15.0, alpha: 1.6 };
        let mut rng = StdRng::seed_from_u64(9);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| dist.sample(&mut rng)).sum();
        let empirical = sum / n as f64;
        let analytic = dist.mean();
        assert!(
            (empirical - analytic).abs() / analytic < 0.05,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn tail_probability_matches_empirical_tail() {
        let dist = BoundedPareto { xm: 0.5, cap: 15.0, alpha: 1.6 };
        let mut rng = StdRng::seed_from_u64(4);
        let n = 100_000;
        let over = (0..n).filter(|_| dist.sample(&mut rng) > 5.0).count();
        let empirical = over as f64 / n as f64;
        let analytic = dist.tail(5.0);
        assert!((empirical - analytic).abs() < 0.01, "{empirical} vs {analytic}");
    }

    #[test]
    fn user_mix_concentrates_on_low_indices_but_covers_the_population() {
        let mix = UserMix { users: 10_000, skew: 2.5 };
        let mut rng = StdRng::seed_from_u64(5);
        let draws: Vec<usize> = (0..20_000).map(|_| mix.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&i| i < 10_000));
        let low = draws.iter().filter(|&&i| i < 1_000).count();
        // Under uniform assignment the low decile would get ~10%; the
        // skewed mix funnels a multiple of that onto the power users.
        assert!(low > 4_000, "only {low} of 20000 draws hit the low decile");
        let high = draws.iter().filter(|&&i| i >= 9_000).count();
        assert!(high > 0, "tail of the population never sampled");
    }

    #[test]
    fn uniform_skew_is_uniform() {
        let mix = UserMix { users: 100, skew: 1.0 };
        let mut rng = StdRng::seed_from_u64(6);
        let low = (0..20_000).filter(|_| mix.sample(&mut rng) < 50).count();
        assert!((low as f64 / 20_000.0 - 0.5).abs() < 0.03);
    }
}
