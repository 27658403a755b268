//! One-pass multi-lane hashing for batched ingestion.
//!
//! A table probe needs several hash values of one key — the `d`
//! main-table members plus the ancillary member in HashFlow. Evaluating
//! them all in one pass per key, before any table is touched, keeps the
//! member chains independent (the compiler overlaps them and shares what
//! depends on the key alone) and lets the caller prefetch every slot it
//! is about to read. The values are bit-for-bit identical to
//! `HashFamily::hash` member by member.

use crate::{HashFamily, KeyHasher};
use hashflow_types::FlowKey;

/// A row-major slab of per-key hash values: row `i` holds every lane of
/// key `i`, in the family order they were computed with.
///
/// The buffer is designed to be reused across batches: [`compute_lanes`]
/// clears and refills it, keeping the allocation.
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
/// assert_eq!(lanes.stride(), 4);
/// assert_eq!(lanes.rows(), 2);
/// assert_eq!(lanes.row(0)[0], main.hash(0, &keys[0]));
/// assert_eq!(lanes.row(1)[3], anc.hash(0, &keys[1]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct HashLanes {
    stride: usize,
    values: Vec<u64>,
}

impl HashLanes {
    /// Lanes per key (the summed member counts of the families the slab
    /// was last filled with).
    #[inline]
    pub const fn stride(&self) -> usize {
        self.stride
    }

    /// Number of keys currently held.
    #[inline]
    pub fn rows(&self) -> usize {
        self.values.len().checked_div(self.stride).unwrap_or(0)
    }

    /// The hash lanes of key `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.values[i * self.stride..(i + 1) * self.stride]
    }
}

/// Fills `lanes` with every member of every family in `families`, for
/// every key of `keys`.
///
/// Row layout: the members of `families[0]` first, then `families[1]`,
/// and so on — e.g. `[&main, &ancillary]` yields rows of
/// `[h_1 .. h_d, g_1]`. Values are bit-for-bit identical to calling
/// [`HashFamily::hash`] member by member.
pub fn compute_lanes<H: KeyHasher>(
    families: &[&HashFamily<H>],
    mut keys: impl Iterator<Item = FlowKey>,
    lanes: &mut HashLanes,
) {
    let stride: usize = families.iter().map(|f| f.len()).sum();
    lanes.stride = stride;
    if stride == 0 {
        lanes.values.clear();
        return;
    }
    let fill = |row: &mut [u64], key: FlowKey| {
        let mut rest = row;
        for family in families {
            let (head, tail) = rest.split_at_mut(family.len());
            family.hash_all(&key, head);
            rest = tail;
        }
    };
    // Size the slab from the iterator's hint and write rows in place,
    // over whatever the last batch left there; a hint that was too short
    // or too long is corrected afterwards.
    let (low, high) = keys.size_hint();
    lanes.values.resize(high.unwrap_or(low) * stride, 0);
    let mut rows = 0;
    for (row, key) in lanes.values.chunks_exact_mut(stride).zip(&mut keys) {
        fill(row, key);
        rows += 1;
    }
    lanes.values.truncate(rows * stride);
    for key in keys {
        let filled = lanes.values.len();
        lanes.values.resize(filled + stride, 0);
        fill(&mut lanes.values[filled..], key);
    }
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
        assert_eq!(lanes.stride(), 4);
        assert_eq!(lanes.rows(), keys.len());
        for (i, key) in keys.iter().enumerate() {
            let row = lanes.row(i);
            for (m, lane) in row[..3].iter().enumerate() {
                assert_eq!(*lane, main.hash(m, key), "main lane {m} of key {i}");
            }
            assert_eq!(row[3], anc.hash(0, key), "ancillary lane of key {i}");
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
        assert_eq!(lanes.row(2)[0], fam.hash(0, &FlowKey::from_index(2)));
    }

    #[test]
    fn empty_slab_has_no_rows() {
        let lanes = HashLanes::default();
        assert_eq!(lanes.rows(), 0);
        assert_eq!(lanes.stride(), 0);
    }
}
