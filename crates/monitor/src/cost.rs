use std::fmt;

/// Accumulates per-packet operation counts for one monitor instance.
///
/// Fig. 11(b) and 11(c) of the paper report the *average number of hash
/// operations* and *average number of memory accesses* per packet for each
/// algorithm; every algorithm in this workspace owns a `CostRecorder` and
/// bumps it as it touches its tables, so those figures can be regenerated
/// exactly rather than estimated.
///
/// # Examples
///
/// ```
/// use hashflow_monitor::CostRecorder;
/// let mut cost = CostRecorder::default();
/// cost.start_packet();
/// cost.record_hashes(2);
/// cost.record_reads(2);
/// cost.record_writes(1);
/// let snap = cost.snapshot();
/// assert_eq!(snap.avg_hashes_per_packet(), 2.0);
/// assert_eq!(snap.avg_memory_accesses_per_packet(), 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CostRecorder {
    packets: u64,
    hashes: u64,
    reads: u64,
    writes: u64,
}

impl CostRecorder {
    /// Creates a zeroed recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the start of a packet's processing (increments the packet
    /// denominator used by the per-packet averages).
    #[inline]
    pub fn start_packet(&mut self) {
        self.packets += 1;
    }

    /// Records `n` hash-function evaluations.
    #[inline]
    pub fn record_hashes(&mut self, n: u64) {
        self.hashes += n;
    }

    /// Records `n` memory (table cell) reads.
    #[inline]
    pub fn record_reads(&mut self, n: u64) {
        self.reads += n;
    }

    /// Records `n` memory (table cell) writes.
    #[inline]
    pub fn record_writes(&mut self, n: u64) {
        self.writes += n;
    }

    /// Folds a snapshot (e.g. a batch's tallied counters) into this
    /// recorder.
    pub fn absorb(&mut self, other: &CostSnapshot) {
        self.packets += other.packets;
        self.hashes += other.hashes;
        self.reads += other.reads;
        self.writes += other.writes;
    }

    /// Returns an immutable snapshot of the counters.
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            packets: self.packets,
            hashes: self.hashes,
            reads: self.reads,
            writes: self.writes,
        }
    }

    /// Zeroes all counters.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// An immutable view of accumulated operation counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostSnapshot {
    /// Packets processed.
    pub packets: u64,
    /// Hash-function evaluations.
    pub hashes: u64,
    /// Table-cell reads.
    pub reads: u64,
    /// Table-cell writes.
    pub writes: u64,
}

impl CostSnapshot {
    /// Total memory accesses (reads + writes).
    pub fn memory_accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Component-wise sum of `self` and `other` — the cost of a monitor
    /// whose work was split across the two.
    pub fn merged(&self, other: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            packets: self.packets + other.packets,
            hashes: self.hashes + other.hashes,
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
        }
    }

    /// Sums a collection of snapshots (per-shard costs into one view).
    pub fn sum<'a>(parts: impl IntoIterator<Item = &'a CostSnapshot>) -> CostSnapshot {
        parts
            .into_iter()
            .fold(CostSnapshot::default(), |acc, s| acc.merged(s))
    }

    /// Average hash operations per packet (Fig. 11(b)); `0` before any
    /// packet has been processed.
    pub fn avg_hashes_per_packet(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.hashes as f64 / self.packets as f64
        }
    }

    /// Average memory accesses per packet (Fig. 11(c)); `0` before any
    /// packet has been processed.
    pub fn avg_memory_accesses_per_packet(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.memory_accesses() as f64 / self.packets as f64
        }
    }
}

impl fmt::Display for CostSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pkts, {:.2} hashes/pkt, {:.2} mem-accesses/pkt",
            self.packets,
            self.avg_hashes_per_packet(),
            self.avg_memory_accesses_per_packet()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_divide_by_packets() {
        let mut c = CostRecorder::new();
        for _ in 0..4 {
            c.start_packet();
            c.record_hashes(3);
            c.record_reads(2);
            c.record_writes(1);
        }
        let s = c.snapshot();
        assert_eq!(s.packets, 4);
        assert_eq!(s.avg_hashes_per_packet(), 3.0);
        assert_eq!(s.memory_accesses(), 12);
        assert_eq!(s.avg_memory_accesses_per_packet(), 3.0);
    }

    #[test]
    fn zero_packets_yield_zero_averages() {
        let s = CostSnapshot::default();
        assert_eq!(s.avg_hashes_per_packet(), 0.0);
        assert_eq!(s.avg_memory_accesses_per_packet(), 0.0);
    }

    #[test]
    fn reset_zeroes() {
        let mut c = CostRecorder::new();
        c.start_packet();
        c.record_hashes(1);
        c.reset();
        assert_eq!(c.snapshot(), CostSnapshot::default());
    }

    #[test]
    fn merged_and_sum_add_componentwise() {
        let a = CostSnapshot {
            packets: 1,
            hashes: 2,
            reads: 3,
            writes: 4,
        };
        let b = CostSnapshot {
            packets: 10,
            hashes: 20,
            reads: 30,
            writes: 40,
        };
        let m = a.merged(&b);
        assert_eq!(m.packets, 11);
        assert_eq!(m.memory_accesses(), 77);
        assert_eq!(CostSnapshot::sum([&a, &b, &m]), m.merged(&m));
        assert_eq!(CostSnapshot::sum([]), CostSnapshot::default());
    }

    #[test]
    fn absorb_folds_snapshot_into_recorder() {
        let mut c = CostRecorder::new();
        c.start_packet();
        c.record_hashes(2);
        c.absorb(&CostSnapshot {
            packets: 4,
            hashes: 8,
            reads: 1,
            writes: 1,
        });
        let s = c.snapshot();
        assert_eq!(s.packets, 5);
        assert_eq!(s.hashes, 10);
        assert_eq!(s.memory_accesses(), 2);
    }

    #[test]
    fn display_mentions_packets() {
        let mut c = CostRecorder::new();
        c.start_packet();
        assert!(c.snapshot().to_string().contains("1 pkts"));
    }
}
