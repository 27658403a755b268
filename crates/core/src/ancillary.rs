use hashflow_hashing::{digest_from_hash, fast_range, HashFamily, XxHash64};
use hashflow_primitives::{linear_counting_estimate, CounterArray};
use hashflow_types::{ConfigError, FlowKey};

/// The ancillary table `A`: summarized `(digest, count)` records for flows
/// the main table could not hold (§III-A).
///
/// Keys are short digests rather than full flow IDs to save memory ("this
/// may mix flows up, but with a small chance"), counts saturate at
/// `2^counter_bits - 1`, and a colliding new flow *replaces* the incumbent
/// (Algorithm 1, lines 16–17). Digest value `0` is reserved for empty cells;
/// [`digest_from_hash`] never produces it.
///
/// # Examples
///
/// ```
/// use hashflow_core::AncillaryTable;
/// use hashflow_types::FlowKey;
///
/// let mut anc = AncillaryTable::new(256, 8, 8, 1)?;
/// let key = FlowKey::from_index(4);
/// let digest = anc.digest_of(0x1234_5678);
/// let slot = anc.slot_of(&key);
/// anc.store(slot, digest); // (digest, 1)
/// assert_eq!(anc.count_if_match(slot, digest), Some(1));
/// # Ok::<(), hashflow_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AncillaryTable {
    digests: CounterArray,
    counts: CounterArray,
    digest_bits: u32,
    hash: HashFamily<XxHash64>,
    occupied: usize,
}

impl AncillaryTable {
    /// Creates an empty ancillary table of `cells` buckets with the given
    /// digest and counter widths (both 8 bits in §IV-A).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `cells == 0`, `cells` is too large for
    /// the 32-bit slots of a probe plan, or a width is outside `1..=32`.
    pub fn new(
        cells: usize,
        digest_bits: u32,
        counter_bits: u32,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        if u32::try_from(cells).is_err() {
            return Err(ConfigError::new(format!(
                "{cells} ancillary buckets exceed the 32-bit slot range"
            )));
        }
        Ok(AncillaryTable {
            digests: CounterArray::new(cells, digest_bits)?,
            counts: CounterArray::new(cells, counter_bits)?,
            digest_bits,
            hash: HashFamily::new(1, seed ^ 0xa4c1_11a5),
            occupied: 0,
        })
    }

    /// Number of buckets.
    #[inline]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Returns `true` if the table has zero buckets (construction forbids
    /// this).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Digest width in bits.
    pub const fn digest_bits(&self) -> u32 {
        self.digest_bits
    }

    /// Maximum count value before saturation.
    #[inline]
    pub fn max_count(&self) -> u64 {
        self.counts.max_value()
    }

    /// The bucket `g_1` maps `key` to (Algorithm 1, line 14).
    pub fn slot_of(&self, key: &FlowKey) -> usize {
        self.slot_from_hash(self.hash.hash(0, key))
    }

    /// The bucket for an already-computed `g_1` hash value — the batched
    /// counterpart of [`Self::slot_of`].
    #[inline]
    pub fn slot_from_hash(&self, g1_hash: u64) -> usize {
        fast_range(g1_hash, self.len())
    }

    /// The `g_1` hash family; batched callers feed it to
    /// [`hashflow_hashing::compute_lanes`] alongside the main table's.
    pub(crate) const fn hash_family(&self) -> &HashFamily<XxHash64> {
        &self.hash
    }

    /// Hints the CPU to pull `slot`'s digest and count words toward L1
    /// for a future access (advisory; see the batched ingestion path).
    #[inline]
    pub fn prefetch_slot(&self, slot: usize) {
        self.digests.prefetch(slot);
        self.counts.prefetch(slot);
    }

    /// Derives the digest of a flow from its `h_1` hash value (Algorithm 1,
    /// line 15: `digest = h1(flowID) % 2^digest_width`, folded away from the
    /// reserved empty value 0).
    #[inline]
    pub fn digest_of(&self, h1_hash: u64) -> u32 {
        digest_from_hash(h1_hash, self.digest_bits)
    }

    /// Returns the stored count at `slot` if its digest matches, `None` for
    /// an empty or differently-keyed bucket.
    #[inline]
    pub fn count_if_match(&self, slot: usize, digest: u32) -> Option<u32> {
        let count = self.counts.get(slot);
        if count > 0 && self.digests.get(slot) == u64::from(digest) {
            Some(count as u32)
        } else {
            None
        }
    }

    /// Returns `true` if `slot` currently holds no record.
    #[inline]
    pub fn is_vacant(&self, slot: usize) -> bool {
        self.counts.get(slot) == 0
    }

    /// Overwrites `slot` with a fresh `(digest, 1)` record — both the
    /// empty-bucket insert and the replace-on-collision of Algorithm 1,
    /// lines 16–17.
    #[inline]
    pub fn store(&mut self, slot: usize, digest: u32) {
        if self.counts.get(slot) == 0 {
            self.occupied += 1;
        }
        self.digests.set(slot, u64::from(digest));
        self.counts.set(slot, 1);
    }

    /// Increments the count at `slot` (Algorithm 1, line 19), saturating.
    /// Returns the new count.
    #[inline]
    pub fn increment(&mut self, slot: usize) -> u32 {
        debug_assert!(self.counts.get(slot) > 0, "incrementing an empty cell");
        self.counts.increment(slot) as u32
    }

    /// Overwrites `slot` with `(digest, count)` — the merge-time variant of
    /// [`Self::store`] for folding an already-accumulated summary in. The
    /// count is clamped to `1..=max_count`.
    pub fn store_counted(&mut self, slot: usize, digest: u32, count: u32) {
        if self.counts.get(slot) == 0 {
            self.occupied += 1;
        }
        self.digests.set(slot, u64::from(digest));
        self.counts
            .set(slot, u64::from(count.max(1)).min(self.max_count()));
    }

    /// Adds `delta` to the count at `slot`, saturating at
    /// [`Self::max_count`].
    pub fn add_count(&mut self, slot: usize, delta: u32) {
        debug_assert!(self.counts.get(slot) > 0, "boosting an empty cell");
        self.counts.add(slot, u64::from(delta));
    }

    /// The `(digest, count)` stored at `slot`, `None` when vacant.
    pub fn entry(&self, slot: usize) -> Option<(u32, u32)> {
        let count = self.counts.get(slot);
        if count == 0 {
            None
        } else {
            (self.digests.get(slot) as u32, count as u32).into()
        }
    }

    /// Folds `other`'s summaries into `self` slot-wise. Both tables must
    /// share geometry and seed (the [`crate::HashFlow`] merge contract):
    /// matching digests add their counts, and a digest conflict keeps the
    /// larger summary — the same "aggressive replacement" preference the
    /// live update applies (Algorithm 1, lines 16–17).
    ///
    /// # Panics
    ///
    /// Panics if the tables have different cell counts or digest widths.
    pub fn merge_from(&mut self, other: &AncillaryTable) {
        assert_eq!(
            (self.len(), self.digest_bits),
            (other.len(), other.digest_bits),
            "cannot merge ancillary tables of different geometry"
        );
        for slot in 0..self.len() {
            let Some((digest, count)) = other.entry(slot) else {
                continue;
            };
            match self.entry(slot) {
                None => self.store_counted(slot, digest, count),
                Some((mine, _)) if mine == digest => self.add_count(slot, count),
                Some((_, resident)) if resident < count => self.store_counted(slot, digest, count),
                Some(_) => {}
            }
        }
    }

    /// Number of non-empty buckets.
    pub const fn occupied(&self) -> usize {
        self.occupied
    }

    /// Linear-counting estimate of the number of distinct flows that were
    /// hashed into the table (§IV-A: "linear counting ... used by HashFlow
    /// to estimate the number of flows in its ancillary table").
    pub fn linear_counting_estimate(&self) -> f64 {
        linear_counting_estimate(self.len(), self.len() - self.occupied)
    }

    /// Clears the table.
    pub fn reset(&mut self) {
        self.digests.reset();
        self.counts.reset();
        self.occupied = 0;
    }

    /// Logical memory footprint in bits.
    pub fn memory_bits(&self) -> usize {
        self.digests.logical_bits() + self.counts.logical_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> AncillaryTable {
        AncillaryTable::new(64, 8, 8, 0).unwrap()
    }

    #[test]
    fn store_and_match() {
        let mut t = table();
        let d = t.digest_of(0xabcd);
        t.store(7, d);
        assert_eq!(t.count_if_match(7, d), Some(1));
        assert_eq!(t.count_if_match(7, d ^ 1), None);
        assert!(t.count_if_match(8, d).is_none());
        assert_eq!(t.occupied(), 1);
    }

    #[test]
    fn increment_saturates_at_counter_max() {
        let mut t = AncillaryTable::new(4, 8, 4, 0).unwrap();
        t.store(0, 5);
        for _ in 0..100 {
            t.increment(0);
        }
        assert_eq!(t.count_if_match(0, 5), Some(15));
    }

    #[test]
    fn replace_keeps_occupancy() {
        let mut t = table();
        t.store(3, 10);
        t.increment(3);
        t.store(3, 20); // replacement resets the count to 1
        assert_eq!(t.occupied(), 1);
        assert_eq!(t.count_if_match(3, 20), Some(1));
        assert_eq!(t.count_if_match(3, 10), None);
    }

    #[test]
    fn digest_zero_never_stored() {
        let t = table();
        // Any h1 hash whose low 8 bits are zero folds to digest 1.
        assert_eq!(t.digest_of(0xff00), 1);
        assert_ne!(t.digest_of(0x0100), 0);
    }

    #[test]
    fn linear_counting_on_occupancy() {
        let mut t = AncillaryTable::new(1000, 8, 8, 3).unwrap();
        // Insert 500 distinct flows through the real slot mapping.
        for i in 0..500u64 {
            let k = FlowKey::from_index(i);
            let slot = t.slot_of(&k);
            if t.is_vacant(slot) {
                t.store(slot, t.digest_of(i));
            }
        }
        // Occupancy-based estimate should be near 500 (collisions make
        // occupancy < 500, linear counting corrects upward).
        let est = t.linear_counting_estimate();
        assert!(
            (est - 500.0).abs() / 500.0 < 0.15,
            "estimate {est} too far from 500"
        );
    }

    #[test]
    fn memory_accounting() {
        let t = AncillaryTable::new(100, 8, 8, 0).unwrap();
        assert_eq!(t.memory_bits(), 100 * 16);
        let t = AncillaryTable::new(100, 12, 4, 0).unwrap();
        assert_eq!(t.memory_bits(), 100 * 16);
    }

    #[test]
    fn reset_clears_all() {
        let mut t = table();
        t.store(1, 9);
        t.reset();
        assert_eq!(t.occupied(), 0);
        assert!(t.is_vacant(1));
    }

    #[test]
    fn rejects_bad_config() {
        assert!(AncillaryTable::new(0, 8, 8, 0).is_err());
        assert!(AncillaryTable::new(8, 0, 8, 0).is_err());
        assert!(AncillaryTable::new(8, 8, 33, 0).is_err());
    }
}
