use crate::{FlowKey, FLOW_KEY_BITS};
use std::fmt;

/// Width of the per-flow packet counter in bits (§IV-A).
pub const COUNTER_BITS: usize = 32;

/// Width of one full flow record in bits: 104-bit key + 32-bit counter.
///
/// §IV-A: "for each flow record, we use a flow ID of 104 bits and a counter
/// of 32 bits, so 1 MB memory approximately corresponds to 60K flow records."
pub const RECORD_BITS: usize = FLOW_KEY_BITS + COUNTER_BITS;

/// A reported flow record: `(key, count)` (§II).
///
/// Stored at the paper's width: the key's 13 bytes then the count's 4
/// little-endian bytes, 17 bytes ([`RECORD_BITS`] / 8) at alignment 1.
/// Reports, sealed epochs, exports and retained epochs are
/// `Vec<FlowRecord>`s, so each is sized by this; a live table is free to
/// keep its own bucket layout (HashFlow's main table keeps an aligned
/// 20-byte one) and build records only where they leave it.
///
/// # Examples
///
/// ```
/// use hashflow_types::{FlowKey, FlowRecord};
/// let mut rec = FlowRecord::new(FlowKey::from_index(1), 1);
/// rec.increment();
/// assert_eq!(rec.count(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
// Key bytes first, count bytes last: `new` writes them as one run.
#[repr(C)]
pub struct FlowRecord {
    key: FlowKey,
    count: [u8; 4],
}

const _: () = assert!(
    std::mem::size_of::<FlowRecord>() * 8 == RECORD_BITS && std::mem::align_of::<FlowRecord>() == 1
);

impl FlowRecord {
    /// Creates a record for `key` with an initial packet count.
    #[inline]
    pub const fn new(key: FlowKey, count: u32) -> Self {
        // Assembled as two words and a byte — the key's words with the
        // count's low three bytes shifted into the top of the second, and
        // the count's high byte: a table drain built this way costs what
        // the 20-byte one did, one that stores key and count apart 1.5×.
        let (lo, hi) = key.to_words();
        let a = lo.to_le_bytes();
        let b = (hi | (count as u64) << 40).to_le_bytes();
        FlowRecord {
            key: FlowKey::from_bytes([
                a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7], b[0], b[1], b[2], b[3], b[4],
            ]),
            count: [b[5], b[6], b[7], (count >> 24) as u8],
        }
    }

    /// The flow identifier.
    #[inline]
    pub const fn key(&self) -> FlowKey {
        self.key
    }

    /// Borrowed view of the flow identifier, for callers that hand out
    /// references into a stored record.
    pub const fn key_ref(&self) -> &FlowKey {
        &self.key
    }

    /// The recorded packet count.
    #[inline]
    pub const fn count(&self) -> u32 {
        u32::from_le_bytes(self.count)
    }

    /// Adds one packet to the record, saturating at `u32::MAX`.
    #[inline]
    pub fn increment(&mut self) {
        self.set_count(self.count().saturating_add(1));
    }

    /// Overwrites the packet count.
    #[inline]
    pub fn set_count(&mut self, count: u32) {
        self.count = count.to_le_bytes();
    }
}

impl From<(FlowKey, u32)> for FlowRecord {
    fn from((key, count): (FlowKey, u32)) -> Self {
        FlowRecord::new(key, count)
    }
}

impl From<FlowRecord> for (FlowKey, u32) {
    fn from(rec: FlowRecord) -> Self {
        (rec.key, rec.count())
    }
}

impl fmt::Debug for FlowRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FlowRecord({} x{})", self.key, self.count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_width_matches_paper_memory_budget() {
        assert_eq!(RECORD_BITS, 136);
        // 1 MB / 17 bytes ~= 61.7K records, the paper's "approximately 60K".
        let records_per_mb = (1 << 20) / (RECORD_BITS / 8);
        assert!((55_000..65_000).contains(&records_per_mb));
    }

    #[test]
    fn increment_saturates() {
        let mut r = FlowRecord::new(FlowKey::default(), u32::MAX - 1);
        r.increment();
        r.increment();
        assert_eq!(r.count(), u32::MAX);
    }

    #[test]
    fn tuple_conversions_round_trip() {
        let rec = FlowRecord::new(FlowKey::from_index(5), 77);
        let t: (FlowKey, u32) = rec.into();
        assert_eq!(FlowRecord::from(t), rec);
    }

    #[test]
    fn set_count_overwrites() {
        let mut r = FlowRecord::new(FlowKey::default(), 3);
        r.set_count(10);
        assert_eq!(r.count(), 10);
    }
}
