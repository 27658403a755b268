use crate::CounterArray;
use hashflow_hashing::{HashFamily, KeyHasher, XxHash64};
use hashflow_types::{ConfigError, FlowKey};

/// HyperLogLog cardinality estimator (Flajolet et al., 2007).
///
/// The paper's algorithms use *linear counting* (Whang et al.), which is
/// accurate while the backing table has empty cells but saturates once
/// occupancy hits 100 %. HyperLogLog trades a constant ~1.04/√m relative
/// error for an essentially unbounded range, making it the natural
/// replacement when a deployment must count far beyond its table size —
/// the comparison is exercised in this crate's tests and the workspace
/// ablations.
///
/// Registers are 6-bit (packed), enough for ranks up to 63.
///
/// # Examples
///
/// ```
/// use hashflow_primitives::HyperLogLog;
/// use hashflow_types::FlowKey;
///
/// let mut hll = HyperLogLog::new(12, 1)?; // 4096 registers, ~1.6% error
/// for i in 0..50_000u64 {
///     hll.observe(&FlowKey::from_index(i));
/// }
/// let est = hll.estimate();
/// assert!((est - 50_000.0).abs() / 50_000.0 < 0.05);
/// # Ok::<(), hashflow_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HyperLogLog {
    registers: CounterArray,
    precision: u32,
    hasher: XxHash64,
}

impl HyperLogLog {
    /// Creates an estimator with `2^precision` registers.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `precision` is outside `4..=18`.
    pub fn new(precision: u32, seed: u64) -> Result<Self, ConfigError> {
        if !(4..=18).contains(&precision) {
            return Err(ConfigError::new("hyperloglog precision must be in 4..=18"));
        }
        Ok(HyperLogLog {
            registers: CounterArray::new(1 << precision, 6)?,
            precision,
            hasher: {
                // Derive the single hash member deterministically from the
                // seed, consistent with the HashFamily convention.
                let family: HashFamily<XxHash64> = HashFamily::new(1, seed ^ 0x4177);
                let _ = &family;
                XxHash64::with_seed(seed ^ 0x4177_11aa)
            },
        })
    }

    /// Number of registers.
    pub fn registers(&self) -> usize {
        self.registers.len()
    }

    /// Records an observation of `key`.
    pub fn observe(&mut self, key: &FlowKey) {
        let hash = self.hasher.hash_key(key);
        let idx = (hash >> (64 - self.precision)) as usize;
        let remaining = hash << self.precision;
        // Rank: position of the leftmost 1-bit in the remaining bits, 1-based;
        // all-zero remainder gets the maximum rank.
        let rank = if remaining == 0 {
            (64 - self.precision + 1) as u64
        } else {
            u64::from(remaining.leading_zeros() + 1)
        };
        if rank > self.registers.get(idx) {
            self.registers.set(idx, rank);
        }
    }

    /// Current cardinality estimate, with the standard small-range
    /// (linear-counting) and bias corrections.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let mut sum = 0.0;
        let mut zeros = 0usize;
        for i in 0..self.registers.len() {
            let r = self.registers.get(i);
            sum += 1.0 / f64::from(1u32 << r.min(63) as u32);
            if r == 0 {
                zeros += 1;
            }
        }
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m && zeros > 0 {
            // Small-range correction: fall back to linear counting.
            crate::linear_counting_estimate(self.registers.len(), zeros)
        } else {
            raw
        }
    }

    /// Clears all registers.
    pub fn reset(&mut self) {
        self.registers.reset();
    }

    /// Logical memory footprint in bits.
    pub fn memory_bits(&self) -> usize {
        self.registers.logical_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearCounter;

    #[test]
    fn tracks_distinct_not_total() {
        let mut hll = HyperLogLog::new(12, 0).unwrap();
        for _ in 0..3 {
            for i in 0..10_000u64 {
                hll.observe(&FlowKey::from_index(i));
            }
        }
        let est = hll.estimate();
        assert!(
            (est - 10_000.0).abs() / 10_000.0 < 0.05,
            "estimate {est} vs 10000"
        );
    }

    #[test]
    fn accuracy_scales_with_precision() {
        // Relative error ~1.04/sqrt(m): precision 14 should beat 8 on a
        // large set, with slack for randomness.
        let truth = 200_000u64;
        let mut small = HyperLogLog::new(8, 5).unwrap();
        let mut large = HyperLogLog::new(14, 5).unwrap();
        for i in 0..truth {
            let k = FlowKey::from_index(i);
            small.observe(&k);
            large.observe(&k);
        }
        let err = |e: f64| (e - truth as f64).abs() / truth as f64;
        assert!(err(large.estimate()) < 0.03, "large {}", large.estimate());
        assert!(err(small.estimate()) < 0.20, "small {}", small.estimate());
    }

    #[test]
    fn small_range_uses_linear_counting() {
        let mut hll = HyperLogLog::new(12, 2).unwrap();
        for i in 0..100u64 {
            hll.observe(&FlowKey::from_index(i));
        }
        let est = hll.estimate();
        assert!((est - 100.0).abs() < 10.0, "estimate {est}");
    }

    #[test]
    fn survives_range_where_linear_counting_saturates() {
        // Same memory: 4096 six-bit HLL registers ~= 24576 linear-counting
        // bits. Count 1M flows: linear counting saturates, HLL stays
        // accurate.
        let mut hll = HyperLogLog::new(12, 3).unwrap();
        let mut lc = LinearCounter::new(hll.memory_bits(), 3);
        let truth = 1_000_000u64;
        for i in 0..truth {
            let k = FlowKey::from_index(i);
            hll.observe(&k);
            lc.observe(&k);
        }
        let hll_err = (hll.estimate() - truth as f64).abs() / truth as f64;
        assert!(hll_err < 0.05, "hll error {hll_err}");
        assert!(
            lc.estimate().is_infinite() || lc.estimate() < truth as f64 * 0.5,
            "linear counting should be useless here, got {}",
            lc.estimate()
        );
    }

    #[test]
    fn empty_estimates_zero() {
        let hll = HyperLogLog::new(10, 0).unwrap();
        assert_eq!(hll.estimate(), 0.0);
    }

    #[test]
    fn reset_clears() {
        let mut hll = HyperLogLog::new(10, 0).unwrap();
        hll.observe(&FlowKey::from_index(1));
        assert!(hll.estimate() > 0.0);
        hll.reset();
        assert_eq!(hll.estimate(), 0.0);
    }

    #[test]
    fn precision_bounds_enforced() {
        assert!(HyperLogLog::new(3, 0).is_err());
        assert!(HyperLogLog::new(19, 0).is_err());
        assert!(HyperLogLog::new(4, 0).is_ok());
    }

    #[test]
    fn memory_accounting() {
        let hll = HyperLogLog::new(10, 0).unwrap();
        assert_eq!(hll.memory_bits(), 1024 * 6);
        assert_eq!(hll.registers(), 1024);
    }
}
