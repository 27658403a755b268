use crate::CounterArray;
use hashflow_hashing::{fast_range, HashFamily, XxHash64};
use hashflow_types::{ConfigError, FlowKey};

/// A count-min sketch (Cormode & Muthukrishnan, 2005) with configurable
/// counter width.
///
/// ElasticSketch's *light part* is a count-min sketch; the paper's §IV-A
/// evaluation configures it as a **single array** of 8-bit counters, but the
/// structure is general (`rows x cols`). Queries return the minimum across
/// rows, an overestimate of the true count (never an underestimate, up to
/// counter saturation).
///
/// # Examples
///
/// ```
/// use hashflow_primitives::CountMinSketch;
/// use hashflow_types::FlowKey;
///
/// let mut cm = CountMinSketch::new(2, 2048, 32, 5)?;
/// let k = FlowKey::from_index(8);
/// cm.add(&k, 3);
/// assert!(cm.query(&k) >= 3);
/// # Ok::<(), hashflow_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    rows: Vec<CounterArray>,
    cols: usize,
    hashes: HashFamily<XxHash64>,
}

impl CountMinSketch {
    /// Creates a sketch of `rows x cols` counters of `counter_bits` each.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any dimension is zero or the counter width
    /// is outside `1..=64`.
    pub fn new(
        rows: usize,
        cols: usize,
        counter_bits: u32,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        if rows == 0 {
            return Err(ConfigError::new("count-min sketch needs at least one row"));
        }
        let arrays = (0..rows)
            .map(|_| CounterArray::new(cols, counter_bits))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CountMinSketch {
            rows: arrays,
            cols,
            hashes: HashFamily::new(rows, seed ^ 0xc0c0_c0c0),
        })
    }

    /// Number of rows (independent hash functions).
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of counters per row.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Counter width in bits.
    pub fn counter_bits(&self) -> u32 {
        self.rows[0].width()
    }

    /// Adds `delta` occurrences of `key`. Counters saturate at
    /// `2^counter_bits - 1`.
    pub fn add(&mut self, key: &FlowKey, delta: u64) {
        for (i, row) in self.rows.iter_mut().enumerate() {
            let idx = fast_range(self.hashes.hash(i, key), self.cols);
            row.add(idx, delta);
        }
    }

    /// Adds one occurrence of `key` and returns the new minimum estimate.
    pub fn increment(&mut self, key: &FlowKey) -> u64 {
        self.add(key, 1);
        self.query(key)
    }

    /// Point query: an overestimate of the number of additions for `key`
    /// (exact when no collisions occurred; capped by counter saturation).
    pub fn query(&self, key: &FlowKey) -> u64 {
        self.rows
            .iter()
            .enumerate()
            .map(|(i, row)| row.get(fast_range(self.hashes.hash(i, key), self.cols)))
            .min()
            .expect("sketch has at least one row")
    }

    /// Number of zero counters in the first row — the statistic linear
    /// counting uses for cardinality estimation over the sketch.
    pub fn first_row_zeros(&self) -> usize {
        self.rows[0].count_zeros()
    }

    /// Merges `other` into `self` by cell-wise saturating addition.
    ///
    /// Valid only for sketches of identical geometry *and* hash family
    /// (same master seed): only then does the merged sketch answer
    /// exactly as if one sketch had ingested both streams.
    ///
    /// # Panics
    ///
    /// Panics if the geometry or the hash seeds differ.
    pub fn merge_from(&mut self, other: &CountMinSketch) {
        assert_eq!(
            (self.rows.len(), self.cols, self.counter_bits()),
            (other.rows.len(), other.cols, other.counter_bits()),
            "cannot merge count-min sketches of different geometry"
        );
        assert_eq!(
            self.hashes.master_seed(),
            other.hashes.master_seed(),
            "cannot merge count-min sketches with different hash seeds"
        );
        for (row, other_row) in self.rows.iter_mut().zip(&other.rows) {
            row.merge_add(other_row);
        }
    }

    /// Resets every counter.
    pub fn reset(&mut self) {
        for row in &mut self.rows {
            row.reset();
        }
    }

    /// Logical memory footprint in bits.
    pub fn logical_bits(&self) -> usize {
        self.rows.iter().map(CounterArray::logical_bits).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_underestimates() {
        let mut cm = CountMinSketch::new(3, 1024, 32, 1).unwrap();
        let mut truth = std::collections::HashMap::new();
        for i in 0..500u64 {
            let k = FlowKey::from_index(i % 100);
            cm.add(&k, 1 + i % 3);
            *truth.entry(i % 100).or_insert(0u64) += 1 + i % 3;
        }
        for (i, &t) in &truth {
            assert!(cm.query(&FlowKey::from_index(*i)) >= t);
        }
    }

    #[test]
    fn exact_when_sparse() {
        let mut cm = CountMinSketch::new(4, 1 << 14, 32, 2).unwrap();
        for i in 0..50 {
            cm.add(&FlowKey::from_index(i), 7);
        }
        for i in 0..50 {
            assert_eq!(cm.query(&FlowKey::from_index(i)), 7);
        }
        assert_eq!(cm.query(&FlowKey::from_index(999)), 0);
    }

    #[test]
    fn narrow_counters_saturate() {
        let mut cm = CountMinSketch::new(1, 64, 8, 3).unwrap();
        let k = FlowKey::from_index(0);
        cm.add(&k, 1000);
        assert_eq!(cm.query(&k), 255);
    }

    #[test]
    fn increment_returns_estimate() {
        let mut cm = CountMinSketch::new(2, 256, 16, 4).unwrap();
        let k = FlowKey::from_index(3);
        assert_eq!(cm.increment(&k), 1);
        assert_eq!(cm.increment(&k), 2);
    }

    #[test]
    fn reset_and_accounting() {
        let mut cm = CountMinSketch::new(2, 100, 8, 0).unwrap();
        cm.add(&FlowKey::from_index(1), 5);
        assert_eq!(cm.logical_bits(), 2 * 100 * 8);
        assert!(cm.first_row_zeros() < 100);
        cm.reset();
        assert_eq!(cm.first_row_zeros(), 100);
        assert_eq!(cm.rows(), 2);
        assert_eq!(cm.cols(), 100);
        assert_eq!(cm.counter_bits(), 8);
    }

    #[test]
    fn merge_equals_single_sketch_over_union() {
        let mut single = CountMinSketch::new(3, 512, 32, 9).unwrap();
        let mut a = CountMinSketch::new(3, 512, 32, 9).unwrap();
        let mut b = CountMinSketch::new(3, 512, 32, 9).unwrap();
        for i in 0..400u64 {
            let k = FlowKey::from_index(i % 80);
            single.add(&k, 1 + i % 5);
            if i % 2 == 0 {
                a.add(&k, 1 + i % 5);
            } else {
                b.add(&k, 1 + i % 5);
            }
        }
        a.merge_from(&b);
        for i in 0..80u64 {
            let k = FlowKey::from_index(i);
            assert_eq!(a.query(&k), single.query(&k), "flow {i}");
        }
        assert_eq!(a.first_row_zeros(), single.first_row_zeros());
    }

    #[test]
    #[should_panic(expected = "different geometry")]
    fn merge_of_mismatched_geometry_panics() {
        let mut a = CountMinSketch::new(2, 64, 8, 0).unwrap();
        a.merge_from(&CountMinSketch::new(2, 128, 8, 0).unwrap());
    }

    #[test]
    #[should_panic(expected = "different hash seeds")]
    fn merge_of_mismatched_seeds_panics() {
        let mut a = CountMinSketch::new(2, 64, 8, 0).unwrap();
        a.merge_from(&CountMinSketch::new(2, 64, 8, 1).unwrap());
    }

    #[test]
    fn zero_rows_rejected() {
        assert!(CountMinSketch::new(0, 10, 8, 0).is_err());
        assert!(CountMinSketch::new(1, 0, 8, 0).is_err());
    }
}
