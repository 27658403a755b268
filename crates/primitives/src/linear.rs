use crate::BitVec;
use hashflow_hashing::{fast_range, HashFamily, XxHash64};
use hashflow_types::FlowKey;

/// Linear-counting cardinality estimate from an occupancy observation
/// (Whang, Vander-Zanden & Taylor, TODS 1990).
///
/// Given a hash table (or bitmap) of `cells` slots of which `zero_cells` are
/// still empty after hashing every element once, the maximum-likelihood
/// estimate of the number of distinct elements is `-cells * ln(zero/cells)`.
///
/// The paper uses this twice (§IV-A): ElasticSketch estimates total flow
/// cardinality by linear counting over its count-min array, and HashFlow by
/// linear counting over its ancillary table.
///
/// Returns `f64::INFINITY` when no cell is empty (the estimator diverges) and
/// `0.0` for an empty table.
///
/// # Examples
///
/// ```
/// use hashflow_primitives::linear_counting_estimate;
/// let estimate = linear_counting_estimate(1000, 368); // ~ e^-1 empty
/// assert!((estimate - 1000.0).abs() < 10.0);
/// ```
pub fn linear_counting_estimate(cells: usize, zero_cells: usize) -> f64 {
    assert!(
        zero_cells <= cells,
        "zero cells {zero_cells} exceed table size {cells}"
    );
    if cells == 0 || zero_cells == cells {
        return 0.0;
    }
    if zero_cells == 0 {
        return f64::INFINITY;
    }
    -(cells as f64) * (zero_cells as f64 / cells as f64).ln()
}

/// A standalone linear counter: a bitmap plus one hash function.
///
/// Not used inside HashFlow itself (which piggybacks on ancillary-table
/// occupancy) but provided as the textbook reference implementation so the
/// estimator math in [`linear_counting_estimate`] can be validated end to
/// end, and as a substrate for applications that only need cardinality.
///
/// # Examples
///
/// ```
/// use hashflow_primitives::LinearCounter;
/// use hashflow_types::FlowKey;
///
/// let mut lc = LinearCounter::new(4096, 3);
/// for i in 0..1000 {
///     lc.observe(&FlowKey::from_index(i));
/// }
/// let est = lc.estimate();
/// assert!((est - 1000.0).abs() / 1000.0 < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct LinearCounter {
    bits: BitVec,
    hash: HashFamily<XxHash64>,
}

impl LinearCounter {
    /// Creates a linear counter with `cells` bitmap bits.
    ///
    /// # Panics
    ///
    /// Panics if `cells == 0`.
    pub fn new(cells: usize, seed: u64) -> Self {
        assert!(cells > 0, "linear counter needs at least one cell");
        LinearCounter {
            bits: BitVec::new(cells),
            hash: HashFamily::new(1, seed ^ 0x11c0_11c0),
        }
    }

    /// Records an observation of `key`.
    pub fn observe(&mut self, key: &FlowKey) {
        let idx = fast_range(self.hash.hash(0, key), self.bits.len());
        self.bits.set(idx);
    }

    /// Current cardinality estimate.
    pub fn estimate(&self) -> f64 {
        linear_counting_estimate(self.bits.len(), self.bits.count_zeros())
    }

    /// Number of bitmap cells.
    pub fn cells(&self) -> usize {
        self.bits.len()
    }

    /// Clears all observations.
    pub fn reset(&mut self) {
        self.bits.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_edges() {
        assert_eq!(linear_counting_estimate(100, 100), 0.0);
        assert_eq!(linear_counting_estimate(0, 0), 0.0);
        assert!(linear_counting_estimate(100, 0).is_infinite());
    }

    #[test]
    #[should_panic(expected = "exceed table size")]
    fn inconsistent_observation_panics() {
        linear_counting_estimate(10, 11);
    }

    #[test]
    fn estimate_matches_closed_form() {
        // 1000 cells with 500 empty: estimate = 1000 ln 2 ~= 693.1
        let e = linear_counting_estimate(1000, 500);
        assert!((e - 693.147).abs() < 0.01);
    }

    #[test]
    fn counter_tracks_distinct_not_total() {
        let mut lc = LinearCounter::new(1 << 13, 9);
        for _ in 0..5 {
            for i in 0..2000 {
                lc.observe(&FlowKey::from_index(i));
            }
        }
        let est = lc.estimate();
        assert!(
            (est - 2000.0).abs() / 2000.0 < 0.1,
            "estimate {est} should track distinct count 2000"
        );
    }

    #[test]
    fn accuracy_improves_with_load_under_capacity() {
        // At load ~0.25 the standard error of linear counting is ~1-2 %.
        let mut lc = LinearCounter::new(40_000, 4);
        for i in 0..10_000 {
            lc.observe(&FlowKey::from_index(i));
        }
        let est = lc.estimate();
        assert!(
            (est - 10_000.0).abs() / 10_000.0 < 0.05,
            "estimate {est} off by more than 5%"
        );
    }

    #[test]
    fn reset_restores_zero() {
        let mut lc = LinearCounter::new(64, 0);
        lc.observe(&FlowKey::from_index(1));
        assert!(lc.estimate() > 0.0);
        lc.reset();
        assert_eq!(lc.estimate(), 0.0);
        assert_eq!(lc.cells(), 64);
    }
}
