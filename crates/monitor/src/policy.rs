//! The two overflow rules of the pipeline's bounded buffers. Both
//! account every shed item on a [`DropStats`], so
//! `offered == delivered + dropped` holds by construction at every
//! buffer.
//!
//! - **Queues** have a live consumer: the sharded dispatcher's per-shard
//!   `BatchQueue`s (`hashflow-shard`) and the daemon's `IngestPort`
//!   (`hashflow-server`). They take a [`BackpressurePolicy`].
//! - **Sealed history** is filled by the seal path itself, so nothing
//!   could wait for room: the rotator's completed store, the
//!   `QueryMonitor` answer bank (`hashflow-query`: each seal runs the
//!   attached plans over the sealed epoch and pushes their answers) and
//!   the daemon's published epoch and answer rings. It keeps the newest N
//!   epochs, in an [`EpochRing`].

use crate::DropStats;

/// What a bounded queue does when a batch arrives and the queue is full.
///
/// | Policy | Behaviour at capacity |
/// |---|---|
/// | `Block` | the producer waits for the consumer to make room |
/// | `DropNewest` | the arriving batch is shed (counted) |
/// | `DropOldest` | the oldest queued batch is evicted (counted) to admit the new one |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackpressurePolicy {
    /// Wait for room.
    #[default]
    Block,
    /// Shed the arriving item whole, keeping what is already retained.
    DropNewest,
    /// Evict the oldest retained item(s) to make room for the arriving
    /// one — a sliding window over the most recent data.
    DropOldest,
}

impl BackpressurePolicy {
    /// All policies, for sweeps and property tests.
    pub const ALL: [BackpressurePolicy; 3] = [
        BackpressurePolicy::Block,
        BackpressurePolicy::DropNewest,
        BackpressurePolicy::DropOldest,
    ];

    /// Short lowercase label (`block` / `drop_newest` / `drop_oldest`)
    /// for metrics labels and experiment tables.
    pub const fn label(self) -> &'static str {
        match self {
            BackpressurePolicy::Block => "block",
            BackpressurePolicy::DropNewest => "drop_newest",
            BackpressurePolicy::DropOldest => "drop_oldest",
        }
    }
}

/// Sealed history: the newest `limit` epochs, oldest first, unbounded
/// until [`Self::set_limit`]. Every pushed epoch is offered to the
/// ring's ledger once; every epoch evicted to make room (with a limit of
/// 0, the pushed one itself) is dropped once. The ledger counts records
/// as weighed by the function the ring was built with.
///
/// # Examples
///
/// ```
/// use hashflow_monitor::EpochRing;
///
/// let mut ring = EpochRing::new(|records: &u64| *records);
/// ring.set_limit(2);
/// for records in [5, 6, 7] {
///     ring.push(records);
/// }
/// assert_eq!(ring.as_slice(), &[6, 7]);
/// assert_eq!(ring.drop_stats().dropped_epochs(), 1);
/// assert_eq!(ring.drop_stats().delivered_records(), 13);
/// ```
#[derive(Debug)]
pub struct EpochRing<T> {
    items: Vec<T>,
    limit: usize,
    records: fn(&T) -> u64,
    drops: DropStats,
}

impl<T> EpochRing<T> {
    /// An unbounded ring whose ledger weighs each epoch with `records`.
    pub fn new(records: fn(&T) -> u64) -> Self {
        EpochRing {
            items: Vec::new(),
            limit: usize::MAX,
            records,
            drops: DropStats::new(),
        }
    }

    /// Keeps at most `limit` epochs; an over-full ring sheds at the next
    /// push.
    pub fn set_limit(&mut self, limit: usize) {
        self.limit = limit;
    }

    /// Appends `item`, then evicts the oldest epochs beyond the limit.
    pub fn push(&mut self, item: T) {
        self.drops.record_offer((self.records)(&item));
        self.items.push(item);
        let excess = self.items.len().saturating_sub(self.limit);
        for evicted in self.items.drain(..excess) {
            self.drops.record_drop((self.records)(&evicted));
        }
    }

    /// The retained epochs, oldest first.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Takes every retained epoch; the ledger counts them delivered.
    pub fn drain(&mut self) -> Vec<T> {
        std::mem::take(&mut self.items)
    }

    /// Empties the ring and zeroes its ledger, for a fresh run.
    pub fn reset(&mut self) {
        self.items.clear();
        self.drops.reset();
    }

    /// The ring's ledger (shared handles, so it can be registered).
    pub fn drop_stats(&self) -> &DropStats {
        &self.drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = BackpressurePolicy::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn default_is_block() {
        assert_eq!(BackpressurePolicy::default(), BackpressurePolicy::Block);
    }

    #[test]
    fn ring_keeps_the_newest_and_ledgers_each_eviction() {
        let mut ring = EpochRing::new(|records: &u64| *records);
        for records in 1..=3 {
            ring.push(records);
        }
        assert_eq!(ring.as_slice(), &[1, 2, 3], "unbounded by default");
        // Lowering the limit sheds at the next push, oldest first.
        ring.set_limit(2);
        ring.push(4);
        assert_eq!(ring.as_slice(), &[3, 4]);
        let ledger = ring.drop_stats();
        assert_eq!((ledger.offered_epochs(), ledger.dropped_epochs()), (4, 2));
        assert_eq!(ledger.dropped_records(), 1 + 2);
        assert_eq!(ledger.delivered_records(), 3 + 4);
        // Draining hands the epochs over; the ledger counts them delivered.
        assert_eq!(ring.drain(), vec![3, 4]);
        assert!(ring.as_slice().is_empty());
        assert_eq!(ring.drop_stats().delivered_epochs(), 2);
        ring.reset();
        assert_eq!(ring.drop_stats().offered_epochs(), 0);
    }

    #[test]
    fn a_ring_of_zero_retains_nothing() {
        let mut ring = EpochRing::new(|records: &u64| *records);
        ring.set_limit(0);
        ring.push(7);
        ring.push(8);
        assert!(ring.as_slice().is_empty());
        let ledger = ring.drop_stats();
        assert_eq!((ledger.offered_epochs(), ledger.dropped_epochs()), (2, 2));
        assert_eq!(ledger.delivered_records(), 0);
    }
}
