use crate::BitVec;
use hashflow_hashing::{fast_range, HashFamily, XxHash64};
use hashflow_types::{ConfigError, FlowKey};

/// A classic Bloom filter over flow keys (Bloom, CACM 1970).
///
/// FlowRadar uses a Bloom filter to decide whether an arriving packet starts
/// a *new* flow (§II): only first packets update the flow-set fields of the
/// counting table. False positives make FlowRadar under-count flows; there
/// are no false negatives.
///
/// # Examples
///
/// ```
/// use hashflow_primitives::BloomFilter;
/// use hashflow_types::FlowKey;
///
/// let mut bf = BloomFilter::new(4096, 4, 1)?;
/// let k = FlowKey::from_index(9);
/// assert!(!bf.insert(&k), "first insert reports a new element");
/// assert!(bf.insert(&k), "second insert sees it present");
/// # Ok::<(), hashflow_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: BitVec,
    hashes: HashFamily<XxHash64>,
}

impl BloomFilter {
    /// Creates a filter with `bits` cells and `num_hashes` hash functions.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `bits == 0` or `num_hashes == 0`.
    pub fn new(bits: usize, num_hashes: usize, seed: u64) -> Result<Self, ConfigError> {
        if bits == 0 {
            return Err(ConfigError::new("bloom filter needs at least one bit"));
        }
        if num_hashes == 0 {
            return Err(ConfigError::new("bloom filter needs at least one hash"));
        }
        Ok(BloomFilter {
            bits: BitVec::new(bits),
            hashes: HashFamily::new(num_hashes, seed ^ 0xb100_0f11),
        })
    }

    /// Inserts `key`; returns `true` if it was (probably) already present.
    pub fn insert(&mut self, key: &FlowKey) -> bool {
        let mut present = true;
        for i in 0..self.hashes.len() {
            let idx = fast_range(self.hashes.hash(i, key), self.bits.len());
            if !self.bits.get(idx) {
                present = false;
                self.bits.set(idx);
            }
        }
        present
    }

    /// Membership query: `false` means definitely absent.
    pub fn contains(&self, key: &FlowKey) -> bool {
        (0..self.hashes.len()).all(|i| {
            self.bits
                .get(fast_range(self.hashes.hash(i, key), self.bits.len()))
        })
    }

    /// Number of bit cells.
    pub fn bits(&self) -> usize {
        self.bits.len()
    }

    /// Number of hash functions.
    pub fn num_hashes(&self) -> usize {
        self.hashes.len()
    }

    /// Fraction of bits currently set, in `[0, 1]`.
    pub fn fill_ratio(&self) -> f64 {
        self.bits.count_ones() as f64 / self.bits.len() as f64
    }

    /// Estimates the number of distinct inserted elements from the fill
    /// ratio: `m̂ = -(bits/k) * ln(1 - fill)`. Standard Bloom cardinality
    /// inversion; used in tests and diagnostics.
    pub fn estimate_cardinality(&self) -> f64 {
        let fill = self.fill_ratio();
        if fill >= 1.0 {
            return f64::INFINITY;
        }
        -(self.bits.len() as f64 / self.hashes.len() as f64) * (1.0 - fill).ln()
    }

    /// Clears the filter.
    pub fn reset(&mut self) {
        self.bits.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::new(1 << 14, 4, 3).unwrap();
        let keys: Vec<FlowKey> = (0..1000).map(FlowKey::from_index).collect();
        for k in &keys {
            bf.insert(k);
        }
        for k in &keys {
            assert!(bf.contains(k));
        }
    }

    #[test]
    fn false_positive_rate_is_near_theory() {
        // m = 2^14 bits, k = 4 hashes, n = 1000 elements:
        // p = (1 - e^{-kn/m})^k ~= (1 - e^{-0.244})^4 ~= 0.0022.
        let mut bf = BloomFilter::new(1 << 14, 4, 3).unwrap();
        for i in 0..1000 {
            bf.insert(&FlowKey::from_index(i));
        }
        let fp = (1_000_000..1_020_000)
            .filter(|&i| bf.contains(&FlowKey::from_index(i)))
            .count();
        let rate = fp as f64 / 20_000.0;
        assert!(rate < 0.01, "false positive rate {rate} too high");
    }

    #[test]
    fn insert_returns_presence() {
        let mut bf = BloomFilter::new(1 << 12, 4, 0).unwrap();
        let k = FlowKey::from_index(5);
        assert!(!bf.insert(&k));
        assert!(bf.insert(&k));
    }

    #[test]
    fn cardinality_estimate_tracks_inserts() {
        let mut bf = BloomFilter::new(1 << 16, 4, 1).unwrap();
        for i in 0..5000 {
            bf.insert(&FlowKey::from_index(i));
        }
        let est = bf.estimate_cardinality();
        assert!(
            (est - 5000.0).abs() / 5000.0 < 0.05,
            "estimate {est} too far from 5000"
        );
    }

    #[test]
    fn zero_config_rejected() {
        assert!(BloomFilter::new(0, 4, 0).is_err());
        assert!(BloomFilter::new(64, 0, 0).is_err());
    }

    #[test]
    fn reset_empties_filter() {
        let mut bf = BloomFilter::new(1024, 2, 0).unwrap();
        bf.insert(&FlowKey::from_index(1));
        bf.reset();
        assert_eq!(bf.fill_ratio(), 0.0);
        assert!(!bf.contains(&FlowKey::from_index(1)));
    }

    #[test]
    fn accessors() {
        let bf = BloomFilter::new(100, 3, 0).unwrap();
        assert_eq!(bf.bits(), 100);
        assert_eq!(bf.num_hashes(), 3);
    }
}
