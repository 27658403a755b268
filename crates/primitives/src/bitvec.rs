/// A fixed-length bit vector packed into `u64` words.
///
/// Used as the backing store of the [`crate::BloomFilter`] and anywhere a
/// dense occupancy map is needed. The length is fixed at construction so the
/// memory footprint is exactly `ceil(len / 64) * 8` bytes, which the
/// equal-memory accounting of the evaluation relies on.
///
/// # Examples
///
/// ```
/// use hashflow_primitives::BitVec;
/// let mut bv = BitVec::new(100);
/// bv.set(31);
/// assert!(bv.get(31));
/// assert!(!bv.get(32));
/// assert_eq!(bv.count_ones(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an all-zero bit vector of `len` bits.
    pub fn new(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Sets bit `index` to one.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn set(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / 64] |= 1 << (index % 64);
    }

    /// Clears bit `index` to zero.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn clear(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / 64] &= !(1 << (index % 64));
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of zero bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Resets every bit to zero.
    pub fn reset(&mut self) {
        self.words.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        assert!(BitVec::new(0).is_empty());
        let mut bv = BitVec::new(130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!bv.get(i));
            bv.set(i);
            assert!(bv.get(i));
        }
        assert_eq!(bv.count_ones(), 8);
        bv.clear(64);
        assert!(!bv.get(64));
        assert_eq!(bv.count_ones(), 7);
    }

    #[test]
    fn counts_and_reset() {
        let mut bv = BitVec::new(200);
        for i in (0..200).step_by(3) {
            bv.set(i);
        }
        assert_eq!(bv.count_ones() + bv.count_zeros(), 200);
        bv.reset();
        assert_eq!(bv.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        BitVec::new(10).get(10);
    }
}
