use hashflow_types::ConfigError;

/// A dense array of fixed-width saturating counters (1..=64 bits each),
/// bit-packed into `u64` words.
///
/// ElasticSketch's light part and HashFlow's ancillary table both use 8-bit
/// counters (§IV-A); FlowRadar's FlowCount field uses 16 bits. Packing them
/// makes the equal-memory accounting exact instead of rounding every small
/// counter up to a machine word.
///
/// # Examples
///
/// ```
/// use hashflow_primitives::CounterArray;
/// let mut counters = CounterArray::new(100, 8)?;
/// counters.increment(3);
/// assert_eq!(counters.get(3), 1);
/// counters.set(3, 255);
/// counters.increment(3); // saturates at 2^8 - 1
/// assert_eq!(counters.get(3), 255);
/// # Ok::<(), hashflow_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterArray {
    words: Vec<u64>,
    len: usize,
    width: u32,
    max: u64,
}

impl CounterArray {
    /// Creates `len` zeroed counters of `width` bits each.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `width` is outside `1..=64` or `len == 0`.
    pub fn new(len: usize, width: u32) -> Result<Self, ConfigError> {
        if len == 0 {
            return Err(ConfigError::new("counter array needs at least one cell"));
        }
        if width == 0 || width > 64 {
            return Err(ConfigError::new("counter width must be in 1..=64 bits"));
        }
        let total_bits = len
            .checked_mul(width as usize)
            .ok_or_else(|| ConfigError::new("counter array size overflows"))?;
        Ok(CounterArray {
            words: vec![0; total_bits.div_ceil(64)],
            len,
            width,
            max: u64::MAX >> (64 - width),
        })
    }

    /// Number of counters.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the array holds zero counters (construction forbids
    /// this, so this is always `false` for constructed arrays).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Counter width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Maximum representable value (`2^width - 1`), at which counters
    /// saturate.
    #[inline]
    pub fn max_value(&self) -> u64 {
        self.max
    }

    #[inline]
    fn locate(&self, index: usize) -> (usize, u32, Option<(usize, u32)>) {
        let bit = index * self.width as usize;
        let word = bit / 64;
        let offset = (bit % 64) as u32;
        let first_bits = 64 - offset;
        if first_bits >= self.width {
            (word, offset, None)
        } else {
            (word, offset, Some((word + 1, self.width - first_bits)))
        }
    }

    /// Hints the CPU to pull the word backing counter `index` — and the
    /// spill word, for a counter that straddles two — toward L1 for a
    /// future access ([`hashflow_hashing::prefetch_read`]).
    /// Out-of-range indices are ignored — a prefetch is advisory.
    #[inline]
    pub fn prefetch(&self, index: usize) {
        if index < self.len {
            let (word, _, spill) = self.locate(index);
            hashflow_hashing::prefetch_read(&self.words, word);
            if let Some((next, _)) = spill {
                hashflow_hashing::prefetch_read(&self.words, next);
            }
        }
    }

    /// Reads counter `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn get(&self, index: usize) -> u64 {
        assert!(
            index < self.len,
            "counter index {index} out of range {}",
            self.len
        );
        let (word, offset, spill) = self.locate(index);
        let mut value = (self.words[word] >> offset) & self.max;
        if let Some((next, bits)) = spill {
            let lo_bits = self.width - bits;
            value |= (self.words[next] & ((1u64 << bits) - 1)) << lo_bits;
            value &= self.max;
        }
        value
    }

    /// Writes counter `index` (clamped to the representable range).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn set(&mut self, index: usize, value: u64) {
        assert!(
            index < self.len,
            "counter index {index} out of range {}",
            self.len
        );
        let value = value.min(self.max);
        let (word, offset, spill) = self.locate(index);
        match spill {
            None => {
                self.words[word] &= !(self.max << offset);
                self.words[word] |= value << offset;
            }
            Some((next, bits)) => {
                let lo_bits = self.width - bits;
                let lo_mask = (1u64 << lo_bits) - 1;
                self.words[word] &= !(lo_mask << offset);
                self.words[word] |= (value & lo_mask) << offset;
                let hi_mask = (1u64 << bits) - 1;
                self.words[next] &= !hi_mask;
                self.words[next] |= value >> lo_bits;
            }
        }
    }

    /// Adds one to counter `index`, saturating at [`Self::max_value`].
    /// Returns the new value.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn increment(&mut self, index: usize) -> u64 {
        self.add(index, 1)
    }

    /// Adds `delta` to counter `index`, saturating. Returns the new value.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn add(&mut self, index: usize, delta: u64) -> u64 {
        let value = self.get(index).saturating_add(delta).min(self.max);
        self.set(index, value);
        value
    }

    /// Takes the cell-wise maximum of `self` and `other` — the
    /// HyperLogLog-style register merge: after the merge every cell holds
    /// the larger of the two observations.
    ///
    /// # Panics
    ///
    /// Panics if lengths or widths differ.
    pub fn merge_max(&mut self, other: &CounterArray) {
        assert_eq!(
            (self.len, self.width),
            (other.len, other.width),
            "cannot merge counter arrays of different geometry"
        );
        for i in 0..self.len {
            let theirs = other.get(i);
            if theirs > self.get(i) {
                self.set(i, theirs);
            }
        }
    }

    /// Adds `other` cell-wise into `self`, saturating per cell — the merge
    /// for additive sketches (count-min rows, FlowRadar packet counters).
    ///
    /// # Panics
    ///
    /// Panics if lengths or widths differ.
    pub fn merge_add(&mut self, other: &CounterArray) {
        assert_eq!(
            (self.len, self.width),
            (other.len, other.width),
            "cannot merge counter arrays of different geometry"
        );
        for i in 0..self.len {
            let theirs = other.get(i);
            if theirs > 0 {
                self.add(i, theirs);
            }
        }
    }

    /// Number of counters currently equal to zero.
    pub fn count_zeros(&self) -> usize {
        (0..self.len).filter(|&i| self.get(i) == 0).count()
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        self.words.fill(0);
    }

    /// Memory footprint of the counters in bits (`len * width`, the logical
    /// footprint used by the equal-memory budget accounting).
    pub fn logical_bits(&self) -> usize {
        self.len * self.width as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_pack_and_unpack() {
        for width in [1u32, 3, 7, 8, 12, 16, 31, 32] {
            let mut c = CounterArray::new(77, width).unwrap();
            let max = c.max_value();
            for i in 0..77 {
                c.set(i, (i as u64 * 2654435761) & max);
            }
            for i in 0..77 {
                assert_eq!(
                    c.get(i),
                    (i as u64 * 2654435761) & max,
                    "width {width} cell {i}"
                );
            }
        }
    }

    #[test]
    fn wide_widths_pack_straddle_and_saturate() {
        for width in [33u32, 40, 47, 63, 64] {
            let mut c = CounterArray::new(77, width).unwrap();
            let max = c.max_value();
            assert_eq!(max, u64::MAX >> (64 - width));
            let pattern = |i: usize| (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) & max;
            for i in 0..77 {
                c.set(i, pattern(i));
            }
            for i in 0..77 {
                assert_eq!(c.get(i), pattern(i), "width {width} cell {i}");
            }
            // Rewriting a cell leaves both neighbours alone, whichever
            // word boundary it straddles.
            for i in 1..76 {
                c.set(i, max);
                assert_eq!(c.add(i, 5), max, "width {width} cell {i} saturates");
                c.set(i, 0);
                assert_eq!(
                    (c.get(i - 1), c.get(i), c.get(i + 1)),
                    (pattern(i - 1), 0, pattern(i + 1))
                );
                c.set(i, pattern(i));
            }
            assert_eq!(c.logical_bits(), 77 * width as usize);
        }
    }

    #[test]
    fn neighbours_do_not_interfere() {
        let mut c = CounterArray::new(9, 7).unwrap(); // 7 bits straddles words
        c.set(4, 0x55);
        c.set(3, 0x7f);
        c.set(5, 0);
        assert_eq!(c.get(4), 0x55);
        assert_eq!(c.get(3), 0x7f);
        assert_eq!(c.get(5), 0);
    }

    #[test]
    fn straddling_word_boundary() {
        // width 12: counter 5 spans bits 60..72, crossing the word boundary.
        let mut c = CounterArray::new(12, 12).unwrap();
        c.set(5, 0xabc);
        assert_eq!(c.get(5), 0xabc);
        c.set(4, 0xfff);
        c.set(6, 0x123);
        assert_eq!(c.get(5), 0xabc);
        assert_eq!(c.get(4), 0xfff);
        assert_eq!(c.get(6), 0x123);
    }

    #[test]
    fn saturating_increment() {
        let mut c = CounterArray::new(2, 4).unwrap();
        for _ in 0..20 {
            c.increment(0);
        }
        assert_eq!(c.get(0), 15);
        assert_eq!(c.get(1), 0);
    }

    #[test]
    fn add_and_set_clamp() {
        let mut c = CounterArray::new(1, 8).unwrap();
        c.set(0, 1000);
        assert_eq!(c.get(0), 255);
        c.reset();
        assert_eq!(c.add(0, 300), 255);
    }

    #[test]
    fn count_zeros_and_logical_bits() {
        let mut c = CounterArray::new(10, 8).unwrap();
        c.set(2, 1);
        c.set(7, 9);
        assert_eq!(c.count_zeros(), 8);
        assert_eq!(c.logical_bits(), 80);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(CounterArray::new(0, 8).is_err());
        assert!(CounterArray::new(8, 0).is_err());
        assert!(CounterArray::new(8, 65).is_err());
    }

    #[test]
    fn merge_max_takes_cellwise_maximum() {
        let mut a = CounterArray::new(5, 6).unwrap();
        let mut b = CounterArray::new(5, 6).unwrap();
        a.set(0, 3);
        a.set(1, 9);
        b.set(1, 4);
        b.set(2, 7);
        a.merge_max(&b);
        assert_eq!(a.get(0), 3);
        assert_eq!(a.get(1), 9);
        assert_eq!(a.get(2), 7);
        assert_eq!(a.get(3), 0);
    }

    #[test]
    fn merge_add_saturates_per_cell() {
        let mut a = CounterArray::new(3, 4).unwrap();
        let mut b = CounterArray::new(3, 4).unwrap();
        a.set(0, 10);
        b.set(0, 10); // 20 saturates at 15
        b.set(1, 2);
        a.merge_add(&b);
        assert_eq!(a.get(0), 15);
        assert_eq!(a.get(1), 2);
        assert_eq!(a.get(2), 0);
    }

    #[test]
    #[should_panic(expected = "different geometry")]
    fn merge_of_mismatched_geometry_panics() {
        let mut a = CounterArray::new(4, 8).unwrap();
        a.merge_max(&CounterArray::new(4, 7).unwrap());
    }
}
