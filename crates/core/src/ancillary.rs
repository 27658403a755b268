use hashflow_hashing::{digest_from_hash, fast_range, prefetch_read, HashFamily, XxHash64};
use hashflow_primitives::linear_counting_estimate;
use hashflow_types::{ConfigError, FlowKey};
use std::hint::select_unpredictable;

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
    // One `digest << counter_bits | count` word per bucket, so a bucket is
    // read, written and prefetched as one aligned `u32` — which is why the
    // two widths must fit 32 bits together. Count 0 means *empty* (live
    // counts start at 1). `memory_bits` reports the logical widths, not
    // the word.
    cells: Vec<u32>,
    digest_bits: u32,
    counter_bits: u32,
    hash: HashFamily<XxHash64>,
    occupied: usize,
}

/// What [`AncillaryTable::update`] did to its bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AncillaryOutcome {
    /// The bucket now counts `count` packets of the digest: `(digest, 1)`
    /// after a store into an empty or differently-keyed bucket (`evicted`
    /// another digest's summary), or the matching summary incremented.
    Counted { count: u32, evicted: bool },
    /// The matching summary's count (carried) has reached the bound;
    /// nothing was written.
    CaughtUp(u32),
}

/// Refuses digest and counter widths that are not both positive or do not
/// fit one 32-bit cell together.
pub(crate) fn check_widths(digest_bits: u32, counter_bits: u32) -> Result<(), ConfigError> {
    if digest_bits == 0 || counter_bits == 0 || digest_bits + counter_bits > 32 {
        return Err(ConfigError::new(format!(
            "ancillary digest and counter widths must be at least 1 bit each \
             and fit one 32-bit cell together, got {digest_bits} + {counter_bits}"
        )));
    }
    Ok(())
}

impl AncillaryTable {
    /// Creates an empty ancillary table of `cells` buckets with the given
    /// digest and counter widths (both 8 bits in §IV-A).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `cells == 0`, `cells` is too large for
    /// the 32-bit slots of a probe plan, a width is 0, or the two widths
    /// add up to more than 32 bits.
    pub fn new(
        cells: usize,
        digest_bits: u32,
        counter_bits: u32,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        if cells == 0 {
            return Err(ConfigError::new("ancillary table needs at least one cell"));
        }
        if u32::try_from(cells).is_err() {
            return Err(ConfigError::new(format!(
                "{cells} ancillary buckets exceed the 32-bit slot range"
            )));
        }
        check_widths(digest_bits, counter_bits)?;
        Ok(AncillaryTable {
            cells: vec![0; cells],
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
        self.count_mask() as u64
    }

    /// The count field of a cell; also the largest count.
    #[inline]
    const fn count_mask(&self) -> u32 {
        // `new` keeps `counter_bits` in 1..=31.
        u32::MAX >> (32 - self.counter_bits)
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
        prefetch_read(&self.cells, slot);
    }

    /// Derives the digest of a flow from its `h_1` hash value (Algorithm 1,
    /// line 15: `digest = h1(flowID) % 2^digest_width`, folded away from the
    /// reserved empty value 0).
    #[inline]
    pub fn digest_of(&self, h1_hash: u64) -> u32 {
        digest_from_hash(h1_hash, self.digest_bits)
    }

    #[inline]
    fn cell(&self, digest: u32, count: u32) -> u32 {
        debug_assert!(digest >> self.digest_bits == 0, "digest too wide");
        digest << self.counter_bits | count
    }

    /// The `(digest, count)` stored at `slot`, `None` when vacant.
    #[inline]
    pub fn entry(&self, slot: usize) -> Option<(u32, u32)> {
        let cell = self.cells[slot];
        let count = cell & self.count_mask();
        (count > 0).then_some((cell >> self.counter_bits, count))
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
    /// count) and the counter's ceiling, else left for the caller to
    /// promote. Store and increment are one select and one write; only the
    /// caught-up case branches.
    #[inline(always)]
    pub(crate) fn update(&mut self, slot: usize, digest: u32, bound: u32) -> AncillaryOutcome {
        let cell = self.cells[slot];
        let count = cell & self.count_mask();
        // Caught up: the cell holds `digest` with a count of at least
        // `cap`, i.e. lies in `[(digest, cap), (digest, max)]` — one range
        // test, so one branch. (A cap of 0 would admit an empty cell, and
        // for a live one means the same as a cap of 1.)
        let cap = bound.clamp(1, self.count_mask());
        if cell.wrapping_sub(self.cell(digest, cap)) <= self.count_mask() - cap {
            return AncillaryOutcome::CaughtUp(count);
        }
        let matches = (count > 0) & (cell >> self.counter_bits == digest);
        // Below the ceiling, so the carry stays inside the count field.
        self.cells[slot] = select_unpredictable(matches, cell + 1, self.cell(digest, 1));
        self.occupied += usize::from(count == 0);
        AncillaryOutcome::Counted {
            count: select_unpredictable(matches, count + 1, 1),
            evicted: !matches & (count > 0),
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
        let count = count.clamp(1, self.count_mask());
        self.cells[slot] = self.cell(digest, count);
    }

    /// Adds `delta` to the count at `slot`, saturating at
    /// [`Self::max_count`]. Returns the new count.
    pub fn add_count(&mut self, slot: usize, delta: u32) -> u32 {
        let cell = self.cells[slot];
        let count = cell & self.count_mask();
        debug_assert!(count > 0, "boosting an empty cell");
        let count = count.saturating_add(delta).min(self.count_mask());
        self.cells[slot] = self.cell(cell >> self.counter_bits, count);
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
        self.cells.fill(0);
        self.occupied = 0;
    }

    /// Logical memory footprint in bits: `digest_bits + counter_bits` per
    /// bucket, the paper's accounting (§IV-A), not the 32-bit word a bucket
    /// is stored in.
    pub fn memory_bits(&self) -> usize {
        self.len() * (self.digest_bits + self.counter_bits) as usize
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
    /// random operations, for odd and even splits of the 32-bit cell
    /// (5+6, 12+12, 20+12, 16+16) and the narrowest one.
    #[test]
    fn packed_cells_agree_with_a_pair_model() {
        const CELLS: usize = 37;
        for (digest_bits, counter_bits) in [(5, 6), (12, 12), (20, 12), (1, 1), (16, 16)] {
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
                            let count = 1;
                            assert_eq!(outcome, AncillaryOutcome::Counted { count, evicted });
                            model[slot] = (digest, 1);
                        } else if count < bound.min(max) {
                            let (count, evicted) = (count + 1, false);
                            assert_eq!(outcome, AncillaryOutcome::Counted { count, evicted });
                            model[slot].1 = count;
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
        assert!(AncillaryTable::new(8, 8, 0, 0).is_err());
        assert!(AncillaryTable::new(8, 8, 33, 0).is_err());
    }

    /// A cell is one `u32`: digest and counter must fit it together, in
    /// the table and in the configuration that sizes it.
    #[test]
    fn widths_must_share_one_word() {
        for (digest_bits, counter_bits) in [(32, 32), (17, 16), (1, 32), (32, 1)] {
            assert!(
                AncillaryTable::new(8, digest_bits, counter_bits, 0).is_err(),
                "{digest_bits} + {counter_bits}"
            );
            let config = crate::HashFlowConfig::builder()
                .main_cells(8)
                .digest_bits(digest_bits)
                .ancillary_counter_bits(counter_bits)
                .build();
            assert!(config.is_err(), "config {digest_bits} + {counter_bits}");
        }
        for (digest_bits, counter_bits) in [(16, 16), (24, 8), (8, 24), (31, 1)] {
            assert!(AncillaryTable::new(8, digest_bits, counter_bits, 0).is_ok());
            let config = crate::HashFlowConfig::builder()
                .main_cells(8)
                .digest_bits(digest_bits)
                .ancillary_counter_bits(counter_bits)
                .build();
            assert!(config.is_ok(), "config {digest_bits} + {counter_bits}");
        }
    }
}
