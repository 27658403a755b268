//! Discrete truncated power-law (Pareto-type) flow-size sampling.
//!
//! Flow sizes follow `P(S >= s) = s^(-a)` for `s = 1..cap` (truncated and
//! renormalized), the standard model for the skew the paper observes in all
//! four traces ("most flows are mice flows with a small number of packets,
//! while most of the traffic are from a small number of elephant flows").
//! The tail exponent `a` is calibrated numerically against a target mean.

use rand::Rng;

/// Mean of the truncated discrete power law `P(S >= s) = s^(-a)`,
/// `1 <= s <= cap`: `E[S] = Σ_{s=1..cap} P(S >= s)`.
///
/// # Panics
///
/// Panics if `a <= 0`, `a` is non-finite, or `cap == 0`.
pub fn truncated_power_law_mean(a: f64, cap: u64) -> f64 {
    assert!(a.is_finite() && a > 0.0, "tail exponent must be positive");
    assert!(cap >= 1, "cap must be at least 1");
    // Exact sum up to a cutoff, then an integral (Euler-Maclaurin leading
    // term) for the remainder, keeping calibration fast for caps near 10^6.
    const EXACT: u64 = 100_000;
    let cutoff = cap.min(EXACT);
    let mut sum = 0.0;
    for s in 1..=cutoff {
        sum += (s as f64).powf(-a);
    }
    if cap > cutoff {
        let lo = cutoff as f64 + 0.5;
        let hi = cap as f64 + 0.5;
        if (a - 1.0).abs() < 1e-9 {
            sum += (hi / lo).ln();
        } else {
            sum += (hi.powf(1.0 - a) - lo.powf(1.0 - a)) / (1.0 - a);
        }
    }
    sum
}

/// Finds the tail exponent `a` so that the truncated power law on
/// `[1, cap]` has the given mean, by bisection.
///
/// # Panics
///
/// Panics if `target_mean < 1` (impossible: sizes are at least 1) or
/// `cap == 0`, or if the target mean exceeds what the cap allows.
pub fn calibrate_tail_exponent(target_mean: f64, cap: u64) -> f64 {
    assert!(
        target_mean >= 1.0,
        "flow sizes are >= 1 packet, mean {target_mean} impossible"
    );
    let (mut lo, mut hi) = (0.05f64, 16.0f64);
    let max_mean = truncated_power_law_mean(lo, cap);
    assert!(
        target_mean <= max_mean,
        "target mean {target_mean} not reachable under cap {cap} (max {max_mean:.1})"
    );
    // Mean is decreasing in a: large a -> light tail -> mean ~ 1. Once a
    // step leaves (lo, hi) unchanged, every later step would too, so
    // stopping there returns what the full 80 steps would.
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        let next = if truncated_power_law_mean(mid, cap) > target_mean {
            (mid, hi)
        } else {
            (lo, mid)
        };
        if next == (lo, hi) {
            break;
        }
        (lo, hi) = next;
    }
    0.5 * (lo + hi)
}

/// Samples flow sizes from the truncated discrete power law by inverse
/// transform: `S = floor(U^(-1/a))`, clamped to `[1, cap]`.
///
/// # Examples
///
/// ```
/// use hashflow_trace::PowerLawSampler;
/// use rand::SeedableRng;
///
/// let sampler = PowerLawSampler::new(1.4, 10_000);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let size = sampler.sample(&mut rng);
/// assert!((1..=10_000).contains(&size));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawSampler {
    a: f64,
    cap: u64,
}

impl PowerLawSampler {
    /// Creates a sampler with tail exponent `a` and truncation `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `a <= 0` or `cap == 0`.
    pub fn new(a: f64, cap: u64) -> Self {
        assert!(a.is_finite() && a > 0.0, "tail exponent must be positive");
        assert!(cap >= 1, "cap must be at least 1");
        PowerLawSampler { a, cap }
    }

    /// Creates a sampler whose mean is calibrated to `target_mean`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`calibrate_tail_exponent`].
    pub fn with_mean(target_mean: f64, cap: u64) -> Self {
        PowerLawSampler::new(calibrate_tail_exponent(target_mean, cap), cap)
    }

    /// The tail exponent.
    pub const fn tail_exponent(&self) -> f64 {
        self.a
    }

    /// The truncation cap.
    pub const fn cap(&self) -> u64 {
        self.cap
    }

    /// Theoretical mean of the (untruncated-tail approximation of the)
    /// sampler's distribution.
    pub fn mean(&self) -> f64 {
        truncated_power_law_mean(self.a, self.cap)
    }

    /// Draws one flow size in `[1, cap]`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        self.quantile(rng.gen_range(f64::EPSILON..=1.0))
    }

    /// The flow size at tail-quantile `u ∈ (0, 1]`: the inverse transform
    /// behind [`Self::sample`].
    ///
    /// `P(S >= s) = s^{-a}  <=>  S = floor(u^{-1/a})` for `u ~ Uniform(0,1]`,
    /// with the (rare) over-cap values clamped to the cap, which is how the
    /// realized per-trace maxima of Table I behave as hard limits.
    pub fn quantile(&self, u: f64) -> u64 {
        assert!(u > 0.0 && u <= 1.0, "quantile argument {u} outside (0, 1]");
        let s = u.powf(-1.0 / self.a).floor();
        if s < 1.0 {
            1
        } else if s >= self.cap as f64 {
            self.cap
        } else {
            s as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mean_formula_matches_brute_force() {
        // Small cap: compare against the exact sum of P(S >= s).
        for a in [0.8, 1.0, 1.5, 2.5] {
            let exact: f64 = (1..=500u64).map(|s| (s as f64).powf(-a)).sum();
            let fast = truncated_power_law_mean(a, 500);
            assert!((exact - fast).abs() < 1e-9, "a = {a}");
        }
    }

    #[test]
    fn calibration_hits_target_mean() {
        for (mean, cap) in [
            (3.2, 110_900u64),
            (15.1, 289_877),
            (5.2, 84_357),
            (1.3, 2_441),
        ] {
            let a = calibrate_tail_exponent(mean, cap);
            let achieved = truncated_power_law_mean(a, cap);
            assert!(
                (achieved - mean).abs() / mean < 1e-6,
                "target {mean}, achieved {achieved}"
            );
        }
    }

    #[test]
    fn sample_mean_converges_to_target() {
        let sampler = PowerLawSampler::with_mean(3.2, 110_900);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 400_000;
        let total: u64 = (0..n).map(|_| sampler.sample(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        // The empirical mean of a heavy-tailed sample converges slowly;
        // 15 % tolerance at 400K draws.
        assert!(
            (mean - 3.2).abs() / 3.2 < 0.15,
            "sample mean {mean} too far from 3.2"
        );
    }

    #[test]
    fn samples_respect_support() {
        let sampler = PowerLawSampler::new(1.2, 1000);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let s = sampler.sample(&mut rng);
            assert!((1..=1000).contains(&s));
        }
    }

    #[test]
    fn light_tail_is_mostly_mice() {
        // ISP2-like: a ~ 2.4, >98% of flows below 5 packets.
        let sampler = PowerLawSampler::with_mean(1.3, 2_441);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let mice = (0..n).filter(|_| sampler.sample(&mut rng) < 5).count();
        assert!(
            mice as f64 / n as f64 > 0.97,
            "only {mice}/{n} flows below 5 packets"
        );
    }

    #[test]
    fn heavier_tail_for_larger_mean() {
        let a_small = calibrate_tail_exponent(1.3, 100_000);
        let a_large = calibrate_tail_exponent(15.1, 100_000);
        assert!(a_large < a_small, "larger mean needs heavier tail");
    }

    #[test]
    #[should_panic(expected = "not reachable")]
    fn unreachable_mean_panics() {
        calibrate_tail_exponent(1000.0, 10);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_exponent_panics() {
        PowerLawSampler::new(0.0, 10);
    }
}
