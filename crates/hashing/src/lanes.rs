//! Lane-major hashing of whole batches.
//!
//! A table probe needs several hash values of one key — `h_1 .. h_d` and
//! `g_1` in HashFlow. Hashing a batch *lane by lane* — the seed-free part
//! once per key, then one loop per member over every key — leaves each
//! loop nothing but arithmetic on contiguous words, which the compiler
//! vectorises; [`crate::KernelCopy`] picks, once per batch, the widest
//! compiled copy of those loops the CPU runs. Values are bit for bit
//! those of `HashFamily::hash`.

use crate::{fast_range32, HashFamily, KernelCopy, KeyHasher};
use hashflow_types::FlowKey;

/// A lane-major slab of per-key hash values: lane `m` holds member `m`'s
/// value for every key, in key order. Made to be reused: [`compute_lanes`]
/// and [`Self::fill_probes`] overwrite it, keeping the allocations.
///
/// # Examples
///
/// ```
/// use hashflow_hashing::{compute_lanes, HashFamily, HashLanes, XxHash64};
/// use hashflow_types::FlowKey;
///
/// let main = HashFamily::<XxHash64>::new(3, 1);
/// let anc = HashFamily::<XxHash64>::new(1, 2);
/// let keys = [FlowKey::from_index(1), FlowKey::from_index(2)];
/// let mut lanes = HashLanes::default();
/// compute_lanes(&[&main, &anc], keys.iter().copied(), &mut lanes);
/// assert_eq!(lanes.lanes(), 4);
/// assert_eq!(lanes.rows(), 2);
/// assert_eq!(lanes.lane(0)[0], main.hash(0, &keys[0]));
/// assert_eq!(lanes.lane(3)[1], anc.hash(0, &keys[1]));
/// assert_eq!(lanes.word(3, 1), anc.hash(0, &keys[1]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct HashLanes {
    rows: usize,
    lanes: usize,
    // `KeyHasher::key_terms` of every key, one array per term.
    terms: [Vec<u64>; 3],
    values: Vec<u64>,
}

impl HashLanes {
    /// Number of keys currently held.
    #[inline]
    pub const fn rows(&self) -> usize {
        self.rows
    }

    /// Lanes per key (the members the slab was last filled with).
    #[inline]
    pub const fn lanes(&self) -> usize {
        self.lanes
    }

    /// Lane `m`: one value per key. Panics if `m >= self.lanes()`.
    #[inline]
    pub fn lane(&self, m: usize) -> &[u64] {
        assert!(m < self.lanes, "lane {m} out of range {}", self.lanes);
        &self.values[m * self.rows..(m + 1) * self.rows]
    }

    /// `self.lane(m)[i]` in one bounds check, for callers that walk one
    /// key's lanes. Panics outside the slab; the caller keeps
    /// `i < self.rows()`, as a larger `i` names a key of a later lane.
    #[inline]
    pub fn word(&self, m: usize, i: usize) -> u64 {
        debug_assert!(i < self.rows, "key {i} out of range {}", self.rows);
        self.values[m * self.rows + i]
    }

    /// Fills the slab, through compiled copy `copy` of the kernel
    /// ([`KernelCopy::best`], once per batch), with one *probe word* per
    /// lane and key. A lane is `(member, (offset, len))`: the word's low
    /// half is the table position `offset + fast_range(hash, len)`
    /// ([`probe_slot`]), its high half the hash's low 32 bits
    /// ([`probe_hash_low`]), where a digest comes from. The caller keeps
    /// `offset + len <= 2³²`. Always inlined, so that a caller whose batch
    /// length is a constant is compiled for it.
    #[inline(always)]
    pub fn fill_probes<'a, H: KeyHasher + 'a>(
        &mut self,
        copy: KernelCopy,
        keys: impl Iterator<Item = FlowKey>,
        lanes: impl Iterator<Item = (&'a H, (u32, u32))> + Clone,
    ) {
        copy.fill(self, keys, lanes, |hash, (offset, len)| {
            (hash << 32) | u64::from(offset + fast_range32(hash, len))
        });
    }

    /// The kernel: `values[m · rows + i] = finish(member_m(key_i), p_m)`.
    /// One source body, always inlined so that each [`KernelCopy`] is
    /// compiled whole with its caller's instruction set.
    #[inline(always)]
    pub(crate) fn fill_body<'a, H: KeyHasher + 'a, P: Copy>(
        &mut self,
        mut keys: impl Iterator<Item = FlowKey>,
        lanes: impl Iterator<Item = (&'a H, P)> + Clone,
        finish: impl Fn(u64, P) -> u64,
    ) {
        let (low, high) = keys.size_hint();
        self.lanes = lanes.clone().count();
        if high == Some(low) && low < SHORT_BATCH {
            // Too few keys to fill a vector: key by key, with no loop to
            // set up per lane and no term arrays in between.
            self.rows = low;
            self.values.resize(self.lanes * low, 0);
            let mut seen = 0;
            for key in keys {
                assert!(seen < low, "the key iterator understated its length");
                let terms = H::key_terms(&key);
                for (m, (member, p)) in lanes.clone().enumerate() {
                    self.values[m * low + seen] = finish(member.hash_terms(terms), p);
                }
                seen += 1;
            }
            assert_eq!(seen, low, "the key iterator overstated its length");
            return;
        }
        // Size the term arrays from the iterator's hint and write them in
        // place, over whatever the last batch left there; a hint that was
        // too long or too short is corrected afterwards.
        let hint = high.unwrap_or(low);
        self.terms.iter_mut().for_each(|t| t.resize(hint, 0));
        let [a, b, c] = &mut self.terms;
        let mut rows = 0;
        for (((a, b), c), key) in (a.iter_mut().zip(b.iter_mut()).zip(c.iter_mut())).zip(&mut keys)
        {
            [*a, *b, *c] = H::key_terms(&key);
            rows += 1;
        }
        self.terms.iter_mut().for_each(|t| t.truncate(rows));
        for key in keys {
            let terms = H::key_terms(&key);
            (self.terms.iter_mut().zip(terms)).for_each(|(t, term)| t.push(term));
            rows += 1;
        }
        self.rows = rows;
        // Every value is written below before it can be read.
        self.values.resize(self.lanes * rows, 0);
        let [a, b, c] = &self.terms;
        let mut rest = self.values.as_mut_slice();
        for (member, p) in lanes {
            let lane;
            (lane, rest) = rest.split_at_mut(rows);
            for (((value, &a), &b), &c) in lane.iter_mut().zip(a).zip(b).zip(c) {
                *value = finish(member.hash_terms([a, b, c]), p);
            }
        }
    }
}

/// Batches shorter than this — one AVX-512 vector of 64-bit words — are
/// hashed key by key, by the baseline copy.
pub(crate) const SHORT_BATCH: usize = 8;

/// The table position a probe word ([`HashLanes::fill_probes`]) names.
#[inline]
pub const fn probe_slot(word: u64) -> usize {
    word as u32 as usize
}

/// The low 32 bits of the hash a probe word was reduced from.
#[inline]
pub const fn probe_hash_low(word: u64) -> u32 {
    (word >> 32) as u32
}

/// Fills `lanes` with the hash of every key under every member of every
/// family: the members of `families[0]` first, then `families[1]`, and so
/// on — `[&main, &ancillary]` yields the lanes `h_1 .. h_d, g_1` — each
/// value bit for bit [`HashFamily::hash`]'s.
pub fn compute_lanes<H: KeyHasher>(
    families: &[&HashFamily<H>],
    keys: impl Iterator<Item = FlowKey>,
    lanes: &mut HashLanes,
) {
    let members = families.iter().flat_map(|f| f.members()).map(|m| (m, ()));
    KernelCopy::best().fill(lanes, keys, members, |hash, ()| hash);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::XxHash64;

    #[test]
    fn lanes_are_bit_identical_to_scalar_members() {
        let main = HashFamily::<XxHash64>::new(3, 0xfeed);
        let anc = HashFamily::<XxHash64>::new(1, 0xbead);
        let keys: Vec<FlowKey> = (0..100).map(FlowKey::from_index).collect();
        let mut lanes = HashLanes::default();
        compute_lanes(&[&main, &anc], keys.iter().copied(), &mut lanes);
        assert_eq!(lanes.lanes(), 4);
        assert_eq!(lanes.rows(), keys.len());
        for (i, key) in keys.iter().enumerate() {
            for m in 0..3 {
                assert_eq!(
                    lanes.lane(m)[i],
                    main.hash(m, key),
                    "main lane {m} of key {i}"
                );
            }
            assert_eq!(
                lanes.lane(3)[i],
                anc.hash(0, key),
                "ancillary lane of key {i}"
            );
            for m in 0..4 {
                assert_eq!(lanes.word(m, i), lanes.lane(m)[i], "lane {m} of key {i}");
            }
        }
    }

    #[test]
    fn refill_reuses_and_resizes() {
        let fam = HashFamily::<XxHash64>::new(2, 9);
        let mut lanes = HashLanes::default();
        compute_lanes(&[&fam], (0..10).map(FlowKey::from_index), &mut lanes);
        assert_eq!(lanes.rows(), 10);
        compute_lanes(&[&fam], (0..3).map(FlowKey::from_index), &mut lanes);
        assert_eq!(lanes.rows(), 3);
        assert_eq!(lanes.lane(0)[2], fam.hash(0, &FlowKey::from_index(2)));
        assert_eq!(lanes.lane(1).len(), 3);
    }

    #[test]
    fn empty_slab_has_no_rows() {
        let mut lanes = HashLanes::default();
        assert_eq!((lanes.rows(), lanes.lanes()), (0, 0));
        let fam = HashFamily::<XxHash64>::new(2, 9);
        compute_lanes(&[&fam], std::iter::empty(), &mut lanes);
        assert_eq!((lanes.rows(), lanes.lanes()), (0, 2));
        assert!(lanes.lane(1).is_empty());
    }
}
