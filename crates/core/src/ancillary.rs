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
    // One `digest << counter_bits | count` cell per bucket, so a bucket is
    // read, written and prefetched as one word on one line. Count 0 means
    // *empty* (live counts start at 1).
    cells: CounterArray,
    digest_bits: u32,
    counter_bits: u32,
    hash: HashFamily<XxHash64>,
    occupied: usize,
}

/// What [`AncillaryTable::update`] did to its bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AncillaryOutcome {
    /// Overwritten with `(digest, 1)`, `evicted` another digest's summary.
    Stored { evicted: bool },
    /// The matching summary's count went up to the carried value.
    Incremented(u32),
    /// The matching summary's count (carried) has reached the bound;
    /// nothing was written.
    CaughtUp(u32),
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
        if !(1..=32).contains(&digest_bits) || !(1..=32).contains(&counter_bits) {
            return Err(ConfigError::new(
                "ancillary digest and counter widths must be in 1..=32 bits",
            ));
        }
        Ok(AncillaryTable {
            cells: CounterArray::new(cells, digest_bits + counter_bits)?,
            digest_bits,
            counter_bits,
            hash: HashFamily::new(1, seed ^ 0xa4c1_11a5),
            occupied: 0,
        })
    }

    /// Number of buckets.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if the table has zero buckets (construction forbids
    /// this).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Digest width in bits.
    pub const fn digest_bits(&self) -> u32 {
        self.digest_bits
    }

    /// Maximum count value before saturation.
    #[inline]
    pub const fn max_count(&self) -> u64 {
        u64::MAX >> (64 - self.counter_bits)
    }

    /// The bucket `g_1` maps `key` to (Algorithm 1, line 14).
    pub fn slot_of(&self, key: &FlowKey) -> usize {
        fast_range(self.hash.hash(0, key), self.len())
    }

    /// The `g_1` lane of a batch's probe plans
    /// ([`hashflow_hashing::HashLanes::fill_probes`]).
    pub(crate) fn probe_lane(&self) -> (&XxHash64, (u32, u32)) {
        // `new` checked that every slot fits 32 bits.
        (&self.hash.members()[0], (0, self.len() as u32))
    }

    /// Hints the CPU to pull `slot`'s cell toward L1 for a future access
    /// (advisory; see the batched ingestion path).
    #[inline]
    pub fn prefetch_slot(&self, slot: usize) {
        self.cells.prefetch(slot);
    }

    /// Derives the digest of a flow from its `h_1` hash value (Algorithm 1,
    /// line 15: `digest = h1(flowID) % 2^digest_width`, folded away from the
    /// reserved empty value 0).
    #[inline]
    pub fn digest_of(&self, h1_hash: u64) -> u32 {
        digest_from_hash(h1_hash, self.digest_bits)
    }

    #[inline]
    fn unpack(&self, cell: u64) -> (u32, u32) {
        (
            (cell >> self.counter_bits) as u32,
            (cell & self.max_count()) as u32,
        )
    }

    #[inline]
    fn write(&mut self, slot: usize, digest: u32, count: u32) {
        debug_assert!(
            u64::from(digest) >> self.digest_bits == 0,
            "digest too wide"
        );
        let cell = u64::from(digest) << self.counter_bits | u64::from(count);
        self.cells.set(slot, cell);
    }

    /// The `(digest, count)` stored at `slot`, `None` when vacant.
    #[inline]
    pub fn entry(&self, slot: usize) -> Option<(u32, u32)> {
        let (digest, count) = self.unpack(self.cells.get(slot));
        (count > 0).then_some((digest, count))
    }

    /// Returns the stored count at `slot` if its digest matches, `None` for
    /// an empty or differently-keyed bucket.
    #[inline]
    pub fn count_if_match(&self, slot: usize, digest: u32) -> Option<u32> {
        let (resident, count) = self.entry(slot)?;
        (resident == digest).then_some(count)
    }

    /// Algorithm 1, lines 16–20, on one bucket in one read and at most one
    /// write: an empty or differently-keyed bucket becomes `(digest, 1)`; a
    /// matching one is incremented while below `bound` (the sentinel's
    /// count) and the counter's ceiling, else left for the caller to promote.
    #[inline]
    pub(crate) fn update(&mut self, slot: usize, digest: u32, bound: u32) -> AncillaryOutcome {
        let cell = self.cells.get(slot);
        let (resident, count) = self.unpack(cell);
        if count == 0 || resident != digest {
            self.occupied += usize::from(count == 0);
            self.write(slot, digest, 1);
            AncillaryOutcome::Stored { evicted: count > 0 }
        } else if u64::from(count) < u64::from(bound).min(self.max_count()) {
            // Below the ceiling, so the carry stays inside the count field.
            self.cells.set(slot, cell + 1);
            AncillaryOutcome::Incremented(count + 1)
        } else {
            AncillaryOutcome::CaughtUp(count)
        }
    }

    /// Overwrites `slot` with a fresh `(digest, 1)` record — both the
    /// empty-bucket insert and the replace-on-collision of Algorithm 1,
    /// lines 16–17.
    pub fn store(&mut self, slot: usize, digest: u32) {
        self.store_counted(slot, digest, 1);
    }

    /// Increments the count at `slot` (Algorithm 1, line 19), saturating.
    /// Returns the new count.
    pub fn increment(&mut self, slot: usize) -> u32 {
        self.add_count(slot, 1)
    }

    /// Overwrites `slot` with `(digest, count)` — the merge-time variant of
    /// [`Self::store`] for folding an already-accumulated summary in. The
    /// count is clamped to `1..=max_count`.
    pub fn store_counted(&mut self, slot: usize, digest: u32, count: u32) {
        self.occupied += usize::from(self.entry(slot).is_none());
        let count = u64::from(count.max(1)).min(self.max_count()) as u32;
        self.write(slot, digest, count);
    }

    /// Adds `delta` to the count at `slot`, saturating at
    /// [`Self::max_count`]. Returns the new count.
    pub fn add_count(&mut self, slot: usize, delta: u32) -> u32 {
        let (digest, count) = self.unpack(self.cells.get(slot));
        debug_assert!(count > 0, "boosting an empty cell");
        let count = (u64::from(count) + u64::from(delta)).min(self.max_count()) as u32;
        self.write(slot, digest, count);
        count
    }

    /// Folds `other`'s summaries into `self` slot-wise. Both tables must
    /// share geometry and seed (the [`crate::HashFlow`] merge contract):
    /// matching digests add their counts, and a digest conflict keeps the
    /// larger summary — the same "aggressive replacement" preference the
    /// live update applies (Algorithm 1, lines 16–17).
    ///
    /// # Panics
    ///
    /// Panics if the tables have different cell counts or widths.
    pub fn merge_from(&mut self, other: &AncillaryTable) {
        assert_eq!(
            (self.len(), self.digest_bits, self.counter_bits),
            (other.len(), other.digest_bits, other.counter_bits),
            "cannot merge ancillary tables of different geometry"
        );
        for slot in 0..self.len() {
            let Some((digest, count)) = other.entry(slot) else {
                continue;
            };
            match self.entry(slot) {
                None => self.store_counted(slot, digest, count),
                Some((mine, _)) if mine == digest => {
                    self.add_count(slot, count);
                }
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
        self.cells.reset();
        self.occupied = 0;
    }

    /// Logical memory footprint in bits.
    pub fn memory_bits(&self) -> usize {
        self.cells.logical_bits()
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
            if t.entry(slot).is_none() {
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
        assert!(t.entry(1).is_none());
    }

    /// The table against a plain `Vec<(digest, count)>` under seeded
    /// random operations, for cells that straddle words (5+6, 12+12,
    /// 20+12) and the narrowest and widest ones.
    #[test]
    fn packed_cells_agree_with_a_pair_model() {
        const CELLS: usize = 37;
        for (digest_bits, counter_bits) in [(5, 6), (12, 12), (20, 12), (1, 1), (32, 32)] {
            let mut table = AncillaryTable::new(CELLS, digest_bits, counter_bits, 9).unwrap();
            let mut other = table.clone();
            let mut model = vec![(0u32, 0u32); CELLS];
            let max = table.max_count() as u32;
            assert_eq!(u64::from(max), (1u64 << counter_bits) - 1);
            assert_eq!(
                table.memory_bits(),
                CELLS * (digest_bits + counter_bits) as usize
            );
            let mut state = 0x5eed_u64 + u64::from(digest_bits);
            let mut next = move || {
                // SplitMix64.
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            for step in 0..6_000 {
                let slot = (next() % CELLS as u64) as usize;
                // Few distinct digests, so matches are as common as misses.
                let digest = table.digest_of(next() % 4);
                let (resident, count) = model[slot];
                match next() % 5 {
                    0 => {
                        table.store(slot, digest);
                        model[slot] = (digest, 1);
                    }
                    1 if count > 0 => {
                        let new = count.saturating_add(1).min(max);
                        assert_eq!(table.increment(slot), new, "step {step}");
                        model[slot].1 = new;
                    }
                    2 => {
                        let given = next() as u32;
                        table.store_counted(slot, digest, given);
                        model[slot] = (digest, given.clamp(1, max));
                    }
                    3 if count > 0 => {
                        let delta = (next() % 7) as u32;
                        let new = (u64::from(count) + u64::from(delta)).min(u64::from(max)) as u32;
                        assert_eq!(table.add_count(slot, delta), new, "step {step}");
                        model[slot].1 = new;
                    }
                    _ => {
                        let bound = (next() % 6) as u32;
                        let outcome = table.update(slot, digest, bound);
                        if count == 0 || resident != digest {
                            let evicted = count > 0;
                            assert_eq!(outcome, AncillaryOutcome::Stored { evicted });
                            model[slot] = (digest, 1);
                        } else if count < bound.min(max) {
                            assert_eq!(outcome, AncillaryOutcome::Incremented(count + 1));
                            model[slot].1 = count + 1;
                        } else {
                            assert_eq!(outcome, AncillaryOutcome::CaughtUp(count));
                        }
                    }
                }
                let expect = |(digest, count): (u32, u32)| (count > 0).then_some((digest, count));
                assert_eq!(table.entry(slot), expect(model[slot]), "step {step}");
                for near in [slot.wrapping_sub(1), slot + 1] {
                    if let Some(&cell) = model.get(near) {
                        assert_eq!(table.entry(near), expect(cell), "neighbour @ {step}");
                    }
                }
                assert_eq!(table.count_if_match(slot, digest), {
                    let (resident, count) = model[slot];
                    (count > 0 && resident == digest).then_some(count)
                });
                if step == 3_000 {
                    other = table.clone();
                }
            }
            let occupied = model.iter().filter(|cell| cell.1 > 0).count();
            assert_eq!(table.occupied(), occupied);

            // `other` is the table as it stood halfway: fold it in.
            let halfway: Vec<_> = (0..CELLS).map(|slot| other.entry(slot)).collect();
            table.merge_from(&other);
            for (slot, theirs) in halfway.into_iter().enumerate() {
                let (mine, count) = model[slot];
                let merged = match theirs {
                    None => (mine, count),
                    Some(cell) if count == 0 => cell,
                    Some((digest, more)) if digest == mine => (
                        mine,
                        (u64::from(count) + u64::from(more)).min(u64::from(max)) as u32,
                    ),
                    Some((digest, more)) if count < more => (digest, more),
                    Some(_) => (mine, count),
                };
                let expect = (merged.1 > 0).then_some(merged);
                assert_eq!(table.entry(slot), expect, "merged slot {slot}");
            }
        }
    }

    #[test]
    fn rejects_bad_config() {
        assert!(AncillaryTable::new(0, 8, 8, 0).is_err());
        assert!(AncillaryTable::new(8, 0, 8, 0).is_err());
        assert!(AncillaryTable::new(8, 8, 33, 0).is_err());
    }
}
