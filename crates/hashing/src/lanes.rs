//! Lane-major hashing of whole batches.
//!
//! A table probe needs several hash values of one key — `h_1 .. h_d` and
//! `g_1` in HashFlow. Hashing a batch *lane by lane* — the seed-free part
//! once per key, then one loop per member over a block of keys — leaves
//! each loop nothing but arithmetic on contiguous words, which the
//! compiler vectorises; [`crate::KernelCopy`] picks, once per batch, the
//! widest compiled copy of those loops the CPU runs.
//!
//! HashFlow's probes are derived by double hashing: two members `a` and
//! `b` are hashed per key, and probe `i` is [`pair_hash`]`(a, b, i)`
//! (Kirsch and Mitzenmacher, "Less Hashing, Same Performance", ESA 2006),
//! so `d + 1` probes cost two xxHash64 evaluations, not `d + 1`.
//! [`compute_lanes`] runs through the same loop and returns every
//! member's own hash, bit for bit `HashFamily::hash`.

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
/// assert_eq!(lanes.lane(3).len(), lanes.rows());
/// ```
#[derive(Debug, Clone, Default)]
pub struct HashLanes {
    rows: usize,
    lanes: usize,
    values: Vec<u64>,
}

// The slab is its output and nothing else: no scratch rides in a plan.
const _: () = assert!(size_of::<HashLanes>() == 2 * size_of::<usize>() + size_of::<Vec<u64>>());

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

    /// Fills the slab, through compiled copy `copy` of the kernel
    /// ([`KernelCopy::best`], once per batch), with one *probe word* per
    /// range and key. Lane `i` derives hash `w_i =`
    /// [`pair_hash`]`(a, b, i)` from the key's hashes under the two
    /// members of `pair`, and reduces it into range `i = (offset, len)`:
    /// the word's low half is the table position
    /// `offset + fast_range(w_i, len)` ([`probe_slot`]), its high half
    /// `w_i`'s low 32 bits ([`probe_hash_low`]), where a digest comes
    /// from. The caller keeps `offset + len <= 2³²`. Always inlined, so
    /// that a caller whose batch length is a constant is compiled for it.
    #[inline(always)]
    pub fn fill_probes<'a, H: KeyHasher + 'a>(
        &mut self,
        copy: KernelCopy,
        keys: impl ExactSizeIterator<Item = FlowKey>,
        pair: [&'a H; 2],
        ranges: impl Iterator<Item = (u32, u32)> + Clone,
    ) {
        let lanes = ranges.map(move |range| (pair, range));
        copy.fill(self, keys, lanes, |hash, (offset, len)| {
            (hash << 32) | u64::from(offset + fast_range32(hash, len))
        });
    }

    /// The kernel: `values[m · rows + k] = finish(w, p_m)` for lane
    /// `m = ([a_m, b_m], p_m)`. A lane whose two members are one (by
    /// address) gets that member's hash, `w = a_m(key_k)`. Otherwise `w`
    /// is [`pair_hash`]`(a_m(key_k), b_m(key_k), i)`, where `i` counts the
    /// lanes since the last one that named another pair: a lane that
    /// names a new pair hashes both members and gets `w = a`, and each
    /// next lane adds `b | 1` to the word before it. One source
    /// body, always inlined so that each [`KernelCopy`] is compiled whole
    /// with its caller's instruction set; `opaque` is applied to every
    /// member hash as it is computed. Panics if `keys` yields more or
    /// fewer keys than its `len()`.
    #[inline(always)]
    pub(crate) fn fill_body<'a, H: KeyHasher + 'a, P: Copy>(
        &mut self,
        mut keys: impl ExactSizeIterator<Item = FlowKey>,
        lanes: impl Iterator<Item = ([&'a H; 2], P)> + Clone,
        opaque: impl Fn(u64) -> u64,
        finish: impl Fn(u64, P) -> u64,
    ) {
        let rows = keys.len();
        self.rows = rows;
        self.lanes = lanes.clone().count();
        // Every value is written below before it can be read.
        self.values.resize(self.lanes * rows, 0);
        let mut next_key = || keys.next().expect("fewer keys than their len()");
        // Whether `pair` is the pair the lane before hashed, `members`.
        let repeats = |members: Option<[&H; 2]>, pair: [&H; 2]| {
            members.is_some_and(|[a, b]| std::ptr::eq(a, pair[0]) && std::ptr::eq(b, pair[1]))
        };
        if rows < SHORT_BATCH {
            // Too few keys to fill a vector: key by key, with no loop to
            // set up per lane and no term arrays in between.
            for k in 0..rows {
                let terms = H::key_terms(&next_key());
                let (mut members, mut word, mut step) = (None, 0, 0);
                for (m, (pair, p)) in lanes.clone().enumerate() {
                    if std::ptr::eq(pair[0], pair[1]) {
                        word = opaque(pair[0].hash_terms(terms));
                        members = None;
                    } else if repeats(members, pair) {
                        word = pair_hash(word, step, 1);
                    } else {
                        word = opaque(pair[0].hash_terms(terms));
                        step = opaque(pair[1].hash_terms(terms));
                        members = Some(pair);
                    }
                    self.values[m * rows + k] = finish(word, p);
                }
            }
        } else {
            // A block of keys at a time: their terms on the stack, then
            // one loop per lane over the block, which hashes the members a
            // lane names anew, or else steps the block's words on, and
            // finishes them.
            let mut terms = [[0; BLOCK]; 3];
            let (mut words, mut steps) = ([0; BLOCK], [0; BLOCK]);
            for start in (0..rows).step_by(BLOCK) {
                let n = BLOCK.min(rows - start);
                let [x, y, z] = &mut terms;
                for ((x, y), z) in (x.iter_mut().zip(y.iter_mut()).zip(z.iter_mut())).take(n) {
                    [*x, *y, *z] = H::key_terms(&next_key());
                }
                let [x, y, z] = &terms;
                let terms = || x.iter().zip(y).zip(z).map(|((&x, &y), &z)| [x, y, z]);
                let mut members = None;
                for (m, (pair, p)) in lanes.clone().enumerate() {
                    let lane = &mut self.values[m * rows + start..][..n];
                    if std::ptr::eq(pair[0], pair[1]) {
                        for (value, terms) in lane.iter_mut().zip(terms()) {
                            *value = finish(opaque(pair[0].hash_terms(terms)), p);
                        }
                        members = None;
                    } else if repeats(members, pair) {
                        for ((value, word), &step) in lane.iter_mut().zip(&mut words).zip(&steps) {
                            *word = pair_hash(*word, step, 1);
                            *value = finish(*word, p);
                        }
                    } else {
                        let hashed = lane.iter_mut().zip(&mut words).zip(&mut steps);
                        for (((value, word), step), terms) in hashed.zip(terms()) {
                            *word = opaque(pair[0].hash_terms(terms));
                            *step = opaque(pair[1].hash_terms(terms));
                            *value = finish(*word, p);
                        }
                        members = Some(pair);
                    }
                }
            }
        }
        assert!(keys.next().is_none(), "more keys than their len()");
    }
}

/// Batches shorter than this — one AVX-512 vector of 64-bit words — are
/// hashed key by key, by the baseline copy.
pub(crate) const SHORT_BATCH: usize = 8;

/// Keys whose terms the kernel holds on the stack at once: half the
/// deployed 256-packet batch, so that a two-shard partition of one is a
/// single block (3 KiB of terms, 2 KiB of words and steps).
const BLOCK: usize = 128;

/// Hash `i` of the family that two hashes `a` and `b` of one key span by
/// double hashing: `a + i·(b | 1)`, wrapping. `b` is made odd so that no
/// two of the first 2⁶⁴ members coincide. Member 0 is `a` itself.
///
/// # Examples
///
/// ```
/// use hashflow_hashing::pair_hash;
/// assert_eq!(pair_hash(7, 10, 0), 7);
/// assert_eq!(pair_hash(7, 10, 2), 7 + 2 * 11);
/// assert_eq!(pair_hash(u64::MAX, 0, 1), 0);
/// ```
#[inline(always)]
pub const fn pair_hash(a: u64, b: u64, i: u64) -> u64 {
    a.wrapping_add(i.wrapping_mul(b | 1))
}

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
    keys: impl ExactSizeIterator<Item = FlowKey>,
    lanes: &mut HashLanes,
) {
    let members = families.iter().flat_map(|f| f.members());
    let members = members.map(|member| ([member, member], ()));
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
        assert!((0..4).all(|m| lanes.lane(m).len() == keys.len()));
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
        }
    }

    /// A member named twice in a row is hashed twice, not stepped on as
    /// a pair would be.
    #[test]
    fn a_repeated_member_yields_its_own_hash_each_time() {
        let one = HashFamily::<XxHash64>::new(1, 5);
        for n in [3u64, 130] {
            let keys: Vec<FlowKey> = (0..n).map(FlowKey::from_index).collect();
            let mut lanes = HashLanes::default();
            compute_lanes(&[&one, &one], keys.iter().copied(), &mut lanes);
            for (i, key) in keys.iter().enumerate() {
                assert_eq!(lanes.lane(0)[i], one.hash(0, key));
                assert_eq!(lanes.lane(1)[i], one.hash(0, key), "key {i} of {n}");
            }
        }
    }

    #[test]
    fn refill_reuses_and_resizes() {
        let fam = HashFamily::<XxHash64>::new(2, 9);
        let mut lanes = HashLanes::default();
        let keys: Vec<FlowKey> = (0..10).map(FlowKey::from_index).collect();
        compute_lanes(&[&fam], keys.iter().copied(), &mut lanes);
        assert_eq!(lanes.rows(), 10);
        compute_lanes(&[&fam], keys[..3].iter().copied(), &mut lanes);
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
