//! Seeded, independent hash functions for flow keys.
//!
//! Every algorithm in the paper needs a family of *independent* hash
//! functions (`h_1..h_d` plus `g_1` in HashFlow's Algorithm 1). This crate
//! provides three from-scratch implementations — xxHash64, Murmur3 (x86
//! 32-bit variant), and Zobrist-style tabulation hashing — behind a common
//! [`KeyHasher`] trait, plus [`HashFamily`], which derives any number of
//! independent members from a single seed.
//!
//! All hashers are deterministic functions of `(seed, key bytes)` so that
//! every experiment in the workspace is reproducible.
//!
//! # Examples
//!
//! ```
//! use hashflow_hashing::{HashFamily, KeyHasher, XxHash64};
//! use hashflow_types::FlowKey;
//!
//! let family = HashFamily::<XxHash64>::new(4, 0xdead_beef);
//! let key = FlowKey::from_index(7);
//! let h0 = family.hash(0, &key);
//! let h1 = family.hash(1, &key);
//! assert_ne!(h0, h1, "members of the family are independent");
//! assert_eq!(h0, family.hash(0, &key), "hashing is deterministic");
//! ```

// `deny` rather than `forbid`: `prefetch` scopes one allow around the
// (side-effect-free) prefetch intrinsic, `dispatch` one around the call
// into the AVX-512 copy of the lane kernel.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod dispatch;
mod family;
mod lanes;
mod murmur3;
mod prefetch;
mod tabulation;
mod xxhash;

pub use dispatch::KernelCopy;
pub use family::{digest_from_hash, DigestFn, HashFamily};
pub use lanes::{compute_lanes, probe_hash_low, probe_slot, HashLanes};
pub use murmur3::Murmur3;
pub use prefetch::prefetch_read;
pub use tabulation::TabulationHash;
pub use xxhash::XxHash64;

use hashflow_types::{FlowKey, FLOW_KEY_BYTES};

/// A seeded hash function over flow keys.
///
/// Implementations must be pure functions of `(seed, key)`: the same inputs
/// always produce the same 64-bit output, and different seeds behave as
/// independent functions (the property the paper's ball-and-urn analysis in
/// §III-B relies on).
pub trait KeyHasher: Clone + std::fmt::Debug {
    /// Creates a hasher instance for a given seed.
    fn with_seed(seed: u64) -> Self;

    /// Hashes raw bytes to a 64-bit value.
    fn hash_bytes(&self, bytes: &[u8]) -> u64;

    /// Hashes a flow key (its canonical 13-byte serialization).
    ///
    /// This is what every table probe calls, so implementors may
    /// specialise it for the fixed 13-byte width (as [`XxHash64`] does),
    /// but the result must stay equal to
    /// `self.hash_bytes(&key.to_bytes())`: `hash_bytes` is the generic
    /// path and the oracle the property tests hold `hash_key` to.
    #[inline]
    fn hash_key(&self, key: &FlowKey) -> u64 {
        self.hash_bytes(&key.to_bytes())
    }

    /// The part of [`Self::hash_key`] that needs no seed, so that a batch
    /// hashed by several members does it once per key. By default the
    /// key's words ([`FlowKey::to_words`]).
    #[inline]
    fn key_terms(key: &FlowKey) -> KeyTerms {
        let (lo, hi) = key.to_words();
        [lo, hi, 0]
    }

    /// The seeded rest: `h.hash_terms(H::key_terms(k)) == h.hash_key(k)`.
    /// Implementors override the two together.
    #[inline]
    fn hash_terms(&self, [lo, hi, _]: KeyTerms) -> u64 {
        // The words read `to_bytes` little-endian; write them back.
        let mut bytes = [0; FLOW_KEY_BYTES];
        bytes[..8].copy_from_slice(&lo.to_le_bytes());
        bytes[8..].copy_from_slice(&hi.to_le_bytes()[..FLOW_KEY_BYTES - 8]);
        self.hash_bytes(&bytes)
    }
}

/// What [`KeyHasher::key_terms`] keeps of one flow key.
pub type KeyTerms = [u64; 3];

/// Maps a 64-bit hash uniformly onto `[0, n)` without modulo bias.
///
/// Uses the widening-multiply trick (Lemire's fast range reduction): the high
/// 64 bits of `hash * n` are uniform over `[0, n)` when `hash` is uniform
/// over `u64`.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// use hashflow_hashing::fast_range;
/// assert!(fast_range(u64::MAX, 10) < 10);
/// assert_eq!(fast_range(0, 10), 0);
/// ```
#[inline]
pub fn fast_range(hash: u64, n: usize) -> usize {
    assert!(n > 0, "range must be non-empty");
    (((hash as u128) * (n as u128)) >> 64) as usize
}

/// [`fast_range`] for ranges below 2³², the high word of `hash · n` put
/// together from 32-bit halves: no 128-bit multiply, so a loop over many
/// hashes vectorises. Exact — `hi · n` plus the carry out of `lo · n`
/// stays below 2⁶⁴.
#[inline]
pub fn fast_range32(hash: u64, n: u32) -> u32 {
    let n = u64::from(n);
    let (hi, lo) = (hash >> 32, hash & 0xffff_ffff);
    ((hi * n + ((lo * n) >> 32)) >> 32) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_range_in_bounds() {
        for h in [0u64, 1, 12345, u64::MAX / 2, u64::MAX] {
            for n in [1usize, 2, 7, 100, 1 << 20] {
                assert!(fast_range(h, n) < n);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn fast_range_rejects_zero() {
        fast_range(1, 0);
    }

    #[test]
    fn fast_range_is_roughly_uniform() {
        // Feed sequential hashes through a hasher then reduce to 8 buckets;
        // each bucket should get a fair share.
        let hasher = XxHash64::with_seed(99);
        let mut buckets = [0usize; 8];
        let trials = 80_000;
        for i in 0..trials {
            let h = hasher.hash_bytes(&(i as u64).to_le_bytes());
            buckets[fast_range(h, 8)] += 1;
        }
        let expect = trials / 8;
        for (i, &b) in buckets.iter().enumerate() {
            assert!(
                (b as f64 - expect as f64).abs() < expect as f64 * 0.05,
                "bucket {i} holds {b}, expected about {expect}"
            );
        }
    }
}
