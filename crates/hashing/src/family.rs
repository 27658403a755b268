use crate::{fast_range, KeyHasher};
use hashflow_types::FlowKey;

/// A family of `d` independently seeded hash functions.
///
/// Every baseline hashes a key once per member of its own family. HashFlow
/// holds a family of two, `a` and `b`, and derives Algorithm 1's
/// `h_1 .. h_d` and `g_1` from them by double hashing
/// ([`crate::pair_hash`]): its probes are not independent functions, which
/// Kirsch and Mitzenmacher (ESA 2006) and Mitzenmacher (SPAA 2014) show
/// costs d-choice placement and Bloom-style probing nothing. A `HashFamily`
/// derives each member from `(master_seed, member_index)` with a SplitMix64
/// expansion, so one seed fully determines the behaviour of an algorithm
/// instance, and a family's first members do not change as it grows.
///
/// # Examples
///
/// ```
/// use hashflow_hashing::{HashFamily, XxHash64};
/// use hashflow_types::FlowKey;
///
/// let family = HashFamily::<XxHash64>::new(3, 42);
/// let key = FlowKey::from_index(10);
/// let idx = family.bucket(1, &key, 1000);
/// assert!(idx < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct HashFamily<H: KeyHasher> {
    members: Vec<H>,
}

impl<H: KeyHasher> HashFamily<H> {
    /// Creates a family of `members` independently seeded hash functions
    /// derived from `master_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `members == 0`; every algorithm needs at least one hash.
    pub fn new(members: usize, master_seed: u64) -> Self {
        assert!(members > 0, "a hash family needs at least one member");
        let members = (0..members)
            .map(|i| {
                // SplitMix64 the pair so member seeds are far apart even for
                // adjacent master seeds.
                let mut z =
                    master_seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1));
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                H::with_seed(z ^ (z >> 31))
            })
            .collect();
        HashFamily { members }
    }

    /// Number of hash functions in the family.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the family has no members (never true in practice;
    /// construction requires at least one).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Hashes `key` with member `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn hash(&self, i: usize, key: &FlowKey) -> u64 {
        self.members[i].hash_key(key)
    }

    /// The members in order, for callers that run one loop per member
    /// over many keys ([`crate::HashLanes`]).
    pub fn members(&self) -> &[H] {
        &self.members
    }

    /// Hashes raw bytes with member `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn hash_bytes(&self, i: usize, bytes: &[u8]) -> u64 {
        self.members[i].hash_bytes(bytes)
    }

    /// Maps `key` to a bucket index in `[0, n)` using member `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()` or `n == 0`.
    #[inline]
    pub fn bucket(&self, i: usize, key: &FlowKey, n: usize) -> usize {
        fast_range(self.hash(i, key), n)
    }
}

/// Extracts a `width`-bit digest of a flow key from a hash value.
///
/// §III-A: "a digest can be generated from the hashing result of the flow ID
/// with any `h_i`", and Algorithm 1 line 15 uses
/// `digest = h1(flowID) % 2^digest_width`. Digest 0 is reserved by callers to
/// mean "empty cell", so this maps the raw `width`-bit value into
/// `[1, 2^width)` by folding 0 to 1 — a 1/2^width bias that keeps the
/// empty-cell sentinel unambiguous.
///
/// # Panics
///
/// Panics if `width` is 0 or greater than 32.
///
/// # Examples
///
/// ```
/// use hashflow_hashing::digest_from_hash;
/// assert_eq!(digest_from_hash(0x100, 8), 1); // low 8 bits are 0 -> folded to 1
/// assert_eq!(digest_from_hash(0xab, 8), 0xab);
/// ```
#[inline]
pub fn digest_from_hash(hash: u64, width: u32) -> u32 {
    assert!((1..=32).contains(&width), "digest width must be in 1..=32");
    let mask = if width == 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    };
    let d = (hash as u32) & mask;
    if d == 0 {
        1
    } else {
        d
    }
}

/// Function type used by digest-keyed tables. See [`digest_from_hash`].
pub type DigestFn = fn(u64, u32) -> u32;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TabulationHash, XxHash64};

    #[test]
    fn members_are_independent() {
        let family = HashFamily::<XxHash64>::new(4, 0);
        let key = FlowKey::from_index(1);
        let values: Vec<u64> = (0..4).map(|i| family.hash(i, &key)).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(values[i], values[j], "members {i} and {j} collide");
            }
        }
    }

    #[test]
    fn adjacent_master_seeds_decorrelate() {
        let a = HashFamily::<XxHash64>::new(1, 100);
        let b = HashFamily::<XxHash64>::new(1, 101);
        let key = FlowKey::from_index(2);
        assert_ne!(a.hash(0, &key), b.hash(0, &key));
    }

    #[test]
    fn bucket_is_in_range_for_all_hashers() {
        let key = FlowKey::from_index(77);
        let xx = HashFamily::<XxHash64>::new(3, 5);
        let tb = HashFamily::<TabulationHash>::new(3, 5);
        for i in 0..3 {
            assert!(xx.bucket(i, &key, 17) < 17);
            assert!(tb.bucket(i, &key, 17) < 17);
        }
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_member_family_rejected() {
        let _ = HashFamily::<XxHash64>::new(0, 0);
    }

    #[test]
    fn digest_never_zero() {
        for h in 0..10_000u64 {
            let d = digest_from_hash(h << 8, 8);
            assert!((1..=0xff).contains(&d));
        }
        assert_eq!(digest_from_hash(u64::MAX, 32), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "digest width")]
    fn digest_width_zero_rejected() {
        digest_from_hash(1, 0);
    }

    #[test]
    fn len_and_seed_accessors() {
        let f = HashFamily::<XxHash64>::new(5, 9);
        assert_eq!(f.len(), 5);
        assert!(!f.is_empty());
    }
}
