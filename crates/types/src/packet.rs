use crate::FlowKey;
use std::fmt;

/// A single observed packet: the unit every flow monitor ingests.
///
/// Only the fields the paper's algorithms consume are kept: the five-tuple
/// of the flow the packet belongs to, an arrival timestamp (nanoseconds
/// from the start of the measurement epoch; used by the trace tooling and
/// the switch simulator, not by the sketches themselves), and the on-wire
/// length in bytes (used by the pcap writer and throughput accounting).
///
/// The key is the 13-byte [`FlowKey`] itself, which has alignment 1, so
/// it sits beside the timestamp and length with one byte of padding: 23
/// bytes of information in 24, the size of the 23-byte HFW1 wire record
/// rounded up to the timestamp's alignment. Traces, replay buffers, queue
/// batches and shard partitions are `Vec<Packet>`s, so each is sized by
/// this.
///
/// # Examples
///
/// ```
/// use hashflow_types::{FlowKey, Packet};
/// let p = Packet::new(FlowKey::from_index(3), 1_000, 64);
/// assert_eq!(p.key(), FlowKey::from_index(3));
/// assert_eq!(p.timestamp_ns(), 1_000);
/// assert_eq!(p.wire_len(), 64);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Packet {
    timestamp_ns: u64,
    key: FlowKey,
    wire_len: u16,
}

const _: () = assert!(std::mem::size_of::<Packet>() == 24);

impl Packet {
    /// Creates a packet observation.
    pub const fn new(key: FlowKey, timestamp_ns: u64, wire_len: u16) -> Self {
        Packet {
            timestamp_ns,
            key,
            wire_len,
        }
    }

    /// The flow this packet belongs to.
    #[inline]
    pub const fn key(&self) -> FlowKey {
        self.key
    }

    /// Arrival time in nanoseconds since the epoch start.
    pub const fn timestamp_ns(&self) -> u64 {
        self.timestamp_ns
    }

    /// On-wire packet length in bytes.
    pub const fn wire_len(&self) -> u16 {
        self.wire_len
    }

    /// Returns a copy of this packet re-stamped at `timestamp_ns`.
    ///
    /// Interleavers reorder packets and must restore monotone timestamps.
    pub const fn with_timestamp(self, timestamp_ns: u64) -> Self {
        Packet {
            timestamp_ns,
            ..self
        }
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Packet({} @{}ns len={})",
            self.key, self.timestamp_ns, self.wire_len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowRecord;
    use std::mem::size_of;

    #[test]
    fn accessors() {
        let k = FlowKey::from_index(42);
        let p = Packet::new(k, 123, 1500);
        assert_eq!(p.key(), k);
        assert_eq!(p.timestamp_ns(), 123);
        assert_eq!(p.wire_len(), 1500);
    }

    #[test]
    fn with_timestamp_keeps_other_fields() {
        let p = Packet::new(FlowKey::from_index(1), 5, 60);
        let q = p.with_timestamp(99);
        assert_eq!(q.timestamp_ns(), 99);
        assert_eq!(q.key(), p.key());
        assert_eq!(q.wire_len(), p.wire_len());
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Packet::new(FlowKey::default(), 0, 0)).is_empty());
    }

    /// A layout change to any of the three hot types is a deliberate diff
    /// here, not a side effect.
    #[test]
    fn layout_sizes_are_pinned() {
        assert_eq!(size_of::<Packet>(), 24);
        assert_eq!(size_of::<FlowKey>(), 13);
        assert_eq!(size_of::<FlowRecord>(), 17);
    }
}
