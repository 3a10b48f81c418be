//! Seeded non-homogeneous Poisson arrival processes.
//!
//! Real Galaxy servers see diurnal load — a sinusoidal swell over the
//! day — punctuated by bursts (a course assignment due, a pipeline
//! re-run). [`LoadProfile`] describes that shape as a time-varying rate
//! λ(t); [`ArrivalProcess`] samples it by *thinning*: candidate events
//! are drawn from a homogeneous Poisson process at the profile's peak
//! rate, and each candidate at time `t` is kept with probability
//! λ(t)/λ_peak. Thinning is exact (the kept events are a Poisson
//! process with intensity λ) and needs O(1) state, so a million-user
//! schedule streams without materializing anything but the output.
//!
//! Everything is deterministic from the seed: the same
//! `(profile, horizon, seed)` triple always yields the same event
//! stream, which is what makes a load-test failure reproducible from
//! `LOADTEST_SEED=<n>` alone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A window of elevated load: while `t ∈ [start_s, start_s + duration_s)`
/// the instantaneous rate is multiplied by `multiplier`.
#[derive(Debug, Clone, PartialEq)]
pub struct Burst {
    /// Window start (seconds on the virtual clock).
    pub start_s: f64,
    /// Window length in seconds.
    pub duration_s: f64,
    /// Rate multiplier while the window is open.
    pub multiplier: f64,
}

impl Burst {
    /// Whether `t` falls inside this burst window.
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start_s && t < self.start_s + self.duration_s
    }
}

/// Time-varying arrival rate: a base rate modulated by a diurnal
/// sinusoid and multiplied through any open burst windows.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadProfile {
    /// Mean arrival rate in jobs per virtual second. Must be positive.
    pub base_rate: f64,
    /// Diurnal swing as a fraction of the base rate (0 = flat, 0.6 =
    /// ±60% over the period). Clamped conceptually to `[0, 1)` so the
    /// rate never goes negative.
    pub diurnal_amplitude: f64,
    /// Period of the diurnal sinusoid in seconds (one "day").
    pub period_s: f64,
    /// Elevated-load windows; overlapping bursts multiply.
    pub bursts: Vec<Burst>,
}

impl LoadProfile {
    /// Instantaneous rate λ(t), never negative.
    pub fn rate_at(&self, t: f64) -> f64 {
        let mut rate = self.base_rate;
        if self.diurnal_amplitude > 0.0 && self.period_s > 0.0 {
            rate *=
                1.0 + self.diurnal_amplitude * (std::f64::consts::TAU * t / self.period_s).sin();
        }
        for burst in &self.bursts {
            if burst.contains(t) {
                rate *= burst.multiplier;
            }
        }
        rate.max(0.0)
    }

    /// An upper bound on λ(t) over all `t`: base × (1 + amplitude) ×
    /// the product of every burst multiplier (bursts may overlap, so
    /// the product — not the max — is the safe envelope for thinning).
    pub fn peak_rate(&self) -> f64 {
        let mut peak = self.base_rate * (1.0 + self.diurnal_amplitude.max(0.0));
        for burst in &self.bursts {
            if burst.multiplier > 1.0 {
                peak *= burst.multiplier;
            }
        }
        peak
    }
}

/// Streaming thinned-Poisson sampler over a [`LoadProfile`]. Iterating
/// yields strictly increasing arrival times in `[0, horizon_s)`.
#[derive(Debug)]
pub struct ArrivalProcess {
    profile: LoadProfile,
    horizon_s: f64,
    peak: f64,
    t: f64,
    rng: StdRng,
}

impl ArrivalProcess {
    /// A sampler over `[0, horizon_s)`, fully determined by `seed`.
    ///
    /// # Panics
    /// If the profile's base rate is not positive (the exponential gap
    /// draw would divide by zero).
    pub fn new(profile: LoadProfile, horizon_s: f64, seed: u64) -> Self {
        assert!(profile.base_rate > 0.0, "arrival profile needs a positive base rate");
        let peak = profile.peak_rate();
        ArrivalProcess { profile, horizon_s, peak, t: 0.0, rng: StdRng::seed_from_u64(seed) }
    }
}

impl Iterator for ArrivalProcess {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        loop {
            // Exponential gap at the peak rate: −ln(1−U)/λ_peak with
            // U ∈ [0, 1), so the argument to ln is always in (0, 1].
            let u: f64 = self.rng.gen();
            self.t += -(1.0 - u).ln() / self.peak;
            if self.t >= self.horizon_s {
                return None;
            }
            // Keep the candidate with probability λ(t)/λ_peak.
            let accept: f64 = self.rng.gen();
            if accept * self.peak < self.profile.rate_at(self.t) {
                return Some(self.t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_profile_matches_configured_rate() {
        let flat =
            LoadProfile { base_rate: 2.0, diurnal_amplitude: 0.0, period_s: 0.0, bursts: vec![] };
        let arrivals: Vec<f64> = ArrivalProcess::new(flat, 10_000.0, 7).collect();
        // 2 jobs/s over 10^4 s: the count concentrates around 20 000.
        let rate = arrivals.len() as f64 / 10_000.0;
        assert!((rate - 2.0).abs() < 0.1, "empirical rate {rate}");
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]), "times strictly increase");
        assert!(arrivals.iter().all(|t| (0.0..10_000.0).contains(t)));
    }

    #[test]
    fn same_seed_reproduces_the_stream() {
        let profile = LoadProfile {
            base_rate: 1.0,
            diurnal_amplitude: 0.5,
            period_s: 1_000.0,
            bursts: vec![Burst { start_s: 200.0, duration_s: 50.0, multiplier: 3.0 }],
        };
        let a: Vec<f64> = ArrivalProcess::new(profile.clone(), 2_000.0, 42).collect();
        let b: Vec<f64> = ArrivalProcess::new(profile, 2_000.0, 42).collect();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn burst_window_concentrates_arrivals() {
        let profile = LoadProfile {
            base_rate: 1.0,
            diurnal_amplitude: 0.0,
            period_s: 0.0,
            bursts: vec![Burst { start_s: 1_000.0, duration_s: 500.0, multiplier: 5.0 }],
        };
        let arrivals: Vec<f64> = ArrivalProcess::new(profile, 3_000.0, 11).collect();
        let in_burst = arrivals.iter().filter(|t| (1_000.0..1_500.0).contains(*t)).count();
        let before = arrivals.iter().filter(|t| **t < 500.0).count();
        // The burst window sees ~5× the density of a same-length quiet window.
        assert!(
            in_burst as f64 > 3.0 * before as f64,
            "burst {in_burst} vs quiet {before} arrivals"
        );
    }

    #[test]
    fn diurnal_rate_swings_about_the_base() {
        let profile = LoadProfile {
            base_rate: 10.0,
            diurnal_amplitude: 0.6,
            period_s: 86_400.0,
            bursts: Vec::new(),
        };
        // Peak at t = period/4, trough at 3·period/4.
        assert!((profile.rate_at(21_600.0) - 16.0).abs() < 1e-9);
        assert!((profile.rate_at(64_800.0) - 4.0).abs() < 1e-9);
        assert!((profile.peak_rate() - 16.0).abs() < 1e-9);
    }
}
