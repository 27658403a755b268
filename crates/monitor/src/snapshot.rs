//! Sealed-epoch query engine.
//!
//! A live [`FlowMonitor`](crate::FlowMonitor) answers queries against
//! mutable tables, so every query races the ingest path and pays the
//! structure's own probe costs. Deployed collectors (NetFlow/IPFIX-style)
//! do the opposite: at each epoch boundary the data-plane state is
//! *sealed* into an immutable record store on the collector, queries run
//! against the sealed store, and the live side keeps ingesting into fresh
//! tables. [`EpochSnapshot`] is that sealed store.
//!
//! # Sealed query semantics
//!
//! The snapshot answers the four §IV-A application queries from the
//! **flow record report** alone:
//!
//! * **Flow record report** — [`EpochSnapshot::records`] iterates exactly
//!   the records the monitor reported at seal time, in report order.
//! * **Flow size estimation** — [`EpochSnapshot::estimate_size`] (and the
//!   batched [`EpochSnapshot::estimate_sizes`]) answers from the report;
//!   a flow absent from the report answers `0`, the paper's convention
//!   ("if no result can be reported, we use 0 as the default value",
//!   §IV-A). When a structure reports the same key more than once (e.g. a
//!   flow resident in two ElasticSketch heavy stages), the **first**
//!   record in report order wins — the same record the live structure's
//!   own lookup would have found first.
//! * **Heavy hitters** — [`EpochSnapshot::heavy_hitters`] filters the
//!   report exactly like the live default, and [`EpochSnapshot::top_k`]
//!   answers bounded-size queries with a bounded heap instead of sorting
//!   the whole report.
//! * **Cardinality** — the live estimator's answer is a scalar, captured
//!   at seal time.
//!
//! The one observable difference from live queries: monitors with an
//! auxiliary estimator (HashFlow's ancillary table, ElasticSketch's light
//! part) can answer *size* queries for flows they did not report; a sealed
//! report cannot, by design — those tables hold digests or shared
//! counters, not flow IDs, so their state cannot outlive the epoch.
//!
//! # One store, one index — built by its first reader
//!
//! A sealed epoch owns exactly one record store, at most one size-query
//! index and one introspection report, all behind `Arc`s: cloning a
//! snapshot (what [`crate::MemorySink`] and the rotator's completed-epoch
//! store do) shares them instead of copying.
//!
//! Sealing builds the store and nothing else. The index is built by the
//! first [`EpochSnapshot::estimate_size`] / [`EpochSnapshot::estimate_sizes`]
//! on any clone, on the thread that asked, through a shared
//! [`OnceLock`]: readers racing for it block until the one build is done
//! and then all use it; no clone ever builds a second. That first lookup
//! hashes every record (≈ 1.2 ms for the 54 k records of a 1 MiB
//! HashFlow, ≈ 10.6 ms for the 435 k of an 8 MiB one, on a 2-vCPU Xeon
//! host; `BENCH_query.json` reports it as `index_build_ms`) — in the
//! daemon, the first `/epochs/{n}/flows/{key}` on a fresh epoch pays it
//! on an HTTP worker instead of every seal paying it on the ingest
//! thread. Record scans ([`EpochSnapshot::records`],
//! [`EpochSnapshot::top_k`], [`EpochSnapshot::heavy_hitters`], sinks,
//! post-hoc query plans) never touch the index, so an epoch that is only
//! exported, ranked or scanned never has one.

use crate::{CostSnapshot, EpochReport, FlowMonitor, IntrospectMetric};
use hashflow_types::{FlowKey, FlowRecord};
use std::collections::BinaryHeap;
use std::hash::{BuildHasher, RandomState};
use std::sync::{Arc, OnceLock};

/// Marks a free slot of a [`KeyIndex`]; never a valid position, because
/// a store is limited to [`MAX_RECORDS`].
const EMPTY: u32 = u32::MAX;

/// The most records one sealed epoch can hold: positions, and the slots
/// of a table twice as large, must fit a `u32`.
const MAX_RECORDS: usize = 1 << 31;

/// The per-process seed of every [`KeyIndex`]: drawn once from the
/// standard library's randomly keyed hasher, so flow keys chosen to
/// collide under any fixed seed scatter here.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0u64))
}

/// First-occurrence index over a record store: an open-addressed table
/// of `u32` positions into the store, linear probing, at most half full.
///
/// Holding positions instead of keys keeps the table at 4 bytes per slot
/// (a key is compared in the store, which a hit reads anyway), and
/// never-deleting linear probing gives first-occurrence-wins for free:
/// of two records with one key the earlier is inserted first, so it sits
/// earlier on their shared probe path and every lookup meets it first.
struct KeyIndex {
    slots: Box<[u32]>,
    /// `64 - log2(slots.len())`: a hash's top bits pick its home slot.
    shift: u32,
    seed: u64,
}

impl KeyIndex {
    fn build(records: &[FlowRecord], seed: u64) -> Self {
        #[cfg(test)]
        BUILDS.with(|builds| builds.set(builds.get() + 1));
        assert!(
            records.len() <= MAX_RECORDS,
            "a sealed epoch holds at most 2^31 records"
        );
        // At least twice the records, so probe chains stay short and an
        // absent key always reaches a free slot.
        let capacity = (records.len() * 2).next_power_of_two().max(2);
        let mut index = KeyIndex {
            slots: vec![EMPTY; capacity].into_boxed_slice(),
            shift: 64 - capacity.trailing_zeros(),
            seed,
        };
        // Two passes — hash every key, then insert — so the sequential
        // scan of the store and the scattered writes into the table do
        // not wait on each other (a quarter faster than one fused loop
        // at 435 k records).
        let homes: Vec<u32> = records
            .iter()
            .map(|record| index.home(record.key_ref()) as u32)
            .collect();
        let mask = capacity - 1;
        for (position, &home) in homes.iter().enumerate() {
            let mut slot = home as usize;
            while index.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            index.slots[slot] = position as u32;
        }
        index
    }

    #[inline]
    fn home(&self, key: &FlowKey) -> usize {
        (key.mix64(self.seed) >> self.shift) as usize
    }

    /// The count of the first record of `records` (the store this index
    /// was built over) carrying `key`; `0` when none does (§IV-A).
    #[inline]
    fn count_of(&self, records: &[FlowRecord], key: &FlowKey) -> u32 {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(key);
        loop {
            // A free slot holds EMPTY, which is past the end of any
            // store: one bounds check ends the probe and guards the read.
            let Some(record) = records.get(self.slots[slot] as usize) else {
                return 0;
            };
            if record.key_ref() == key {
                return record.count();
            }
            slot = (slot + 1) & mask;
        }
    }
}

#[cfg(test)]
thread_local! {
    /// How many indexes the current thread has built: the tests' evidence
    /// that only a size query builds one, and only the first.
    static BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
impl KeyIndex {
    /// The longest probe any record of `records` (the indexed store)
    /// takes from its home slot to the slot holding it, in slots visited.
    fn longest_probe(&self, records: &[FlowRecord]) -> usize {
        let capacity = self.slots.len();
        (self.slots.iter().enumerate())
            .filter(|(_, &position)| position != EMPTY)
            .map(|(slot, &position)| {
                let home = self.home(records[position as usize].key_ref());
                (slot + capacity - home) % capacity + 1
            })
            .max()
            .unwrap_or(0)
    }
}

impl std::fmt::Debug for KeyIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyIndex")
            .field("slots", &self.slots.len())
            .finish_non_exhaustive()
    }
}

/// An immutable sealed measurement epoch: the flow record report plus the
/// scalar summaries captured when the epoch was sealed.
///
/// Build one with [`FlowMonitor::seal`] (drains the live monitor),
/// [`EpochSnapshot::capture`] (leaves it untouched), or
/// [`crate::EpochReport::into_snapshot`].
///
/// # Examples
///
/// ```
/// use hashflow_core::HashFlow;
/// use hashflow_monitor::{FlowMonitor, MemoryBudget};
/// use hashflow_types::{FlowKey, Packet};
///
/// let mut m = HashFlow::with_memory(MemoryBudget::from_kib(64)?)?;
/// for i in 0..100u64 {
///     m.process_packet(&Packet::new(FlowKey::from_index(i % 10), i, 64));
/// }
/// let snapshot = m.seal(); // live side is reset and keeps ingesting
/// assert_eq!(snapshot.len(), 10);
/// assert_eq!(snapshot.estimate_size(&FlowKey::from_index(3)), 10);
/// assert_eq!(snapshot.top_k(3).len(), 3);
/// assert!(m.flow_records().is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    epoch: u64,
    start_ns: Option<u64>,
    end_ns: Option<u64>,
    /// The epoch's one record store, shared by every clone.
    records: Arc<Vec<FlowRecord>>,
    /// First-occurrence index over `records`, for O(1) size queries;
    /// built by the first size query on any clone and shared by all.
    index: Arc<OnceLock<KeyIndex>>,
    cardinality: f64,
    cost: CostSnapshot,
    /// Whether any contributing shard lost data (e.g. a worker panic)
    /// before this epoch was sealed.
    partial: bool,
    /// Structure-internal saturation report captured at seal time
    /// (empty for monitors that don't opt into introspection), shared by
    /// every clone.
    introspection: Arc<[IntrospectMetric]>,
}

impl EpochSnapshot {
    /// Builds a snapshot from raw parts (used by
    /// [`crate::EpochReport::into_snapshot`] and the sealed paths): takes
    /// ownership of `records` as the epoch's store without copying or
    /// hashing it; the size-query index waits for its first reader.
    ///
    /// # Panics
    ///
    /// Panics if `records` holds more than 2^31 records.
    pub fn from_parts(
        epoch: u64,
        start_ns: Option<u64>,
        end_ns: Option<u64>,
        records: Vec<FlowRecord>,
        cardinality: f64,
        cost: CostSnapshot,
    ) -> Self {
        // Checked here so an oversized store is refused where it is
        // handed over, not by whichever reader first asks a size query.
        assert!(
            records.len() <= MAX_RECORDS,
            "a sealed epoch holds at most 2^31 records"
        );
        EpochSnapshot {
            epoch,
            start_ns,
            end_ns,
            records: Arc::new(records),
            index: Arc::default(),
            cardinality,
            cost,
            partial: false,
            introspection: Arc::new([]),
        }
    }

    /// Re-stamps the epoch number and observed timestamp span — the
    /// rotation layer's bookkeeping, which the monitor that sealed the
    /// snapshot does not know. Store and index are untouched.
    pub fn with_epoch_span(
        mut self,
        epoch: u64,
        start_ns: Option<u64>,
        end_ns: Option<u64>,
    ) -> Self {
        self.epoch = epoch;
        self.start_ns = start_ns;
        self.end_ns = end_ns;
        self
    }

    /// Sets the partial-data flag when `partial` holds and never clears
    /// it: a sharded seal whose worker lost data to a panic, or a rotator
    /// whose run ended mid-epoch, marks the epoch, and no later layer can
    /// make it look complete.
    pub(crate) fn with_partial(mut self, partial: bool) -> Self {
        self.partial |= partial;
        self
    }

    /// Whether this epoch is known to be missing data: a contributing
    /// shard was degraded when the epoch sealed, or the collection run
    /// ended before the epoch did ([`crate::EpochRotator::finish`]).
    pub const fn is_partial(&self) -> bool {
        self.partial
    }

    /// Attaches the monitor's structure-internal saturation report
    /// ([`FlowMonitor::introspection`]) captured when the epoch sealed.
    pub fn with_introspection(mut self, introspection: Vec<IntrospectMetric>) -> Self {
        self.introspection = introspection.into();
        self
    }

    /// The structure-internal saturation report sealed with this epoch
    /// (empty for monitors without introspection).
    pub fn introspection(&self) -> &[IntrospectMetric] {
        &self.introspection
    }

    /// Captures the monitor's current answers **without draining it** —
    /// the read-only counterpart of [`FlowMonitor::seal`].
    pub fn capture<M: FlowMonitor + ?Sized>(monitor: &M) -> Self {
        Self::from_parts(
            0,
            None,
            None,
            monitor.flow_records(),
            monitor.estimate_cardinality(),
            monitor.cost(),
        )
        .with_introspection(monitor.introspection())
    }

    /// Thaws the snapshot back into the plain, mutable [`EpochReport`] —
    /// the inverse of [`EpochReport::into_snapshot`], for code that
    /// merges or rewrites records (the sharded drain). The store moves
    /// out uncopied when this snapshot is its only holder and is cloned
    /// only when a sink or another clone still shares it; an index, if
    /// one was built, is left behind with the other holders.
    pub fn into_report(self) -> EpochReport {
        EpochReport {
            epoch: self.epoch,
            start_ns: self.start_ns,
            end_ns: self.end_ns,
            records: Arc::try_unwrap(self.records).unwrap_or_else(|shared| (*shared).clone()),
            cardinality: self.cardinality,
            cost: self.cost,
            partial: self.partial,
            introspection: self.introspection.to_vec(),
        }
    }

    /// Epoch sequence number (0 for direct captures).
    pub const fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Timestamp (ns) of the first packet in the epoch, if known.
    pub const fn start_ns(&self) -> Option<u64> {
        self.start_ns
    }

    /// Timestamp (ns) of the last packet in the epoch, if known.
    pub const fn end_ns(&self) -> Option<u64> {
        self.end_ns
    }

    /// Iterates the sealed flow records in report order.
    pub fn records(&self) -> impl ExactSizeIterator<Item = &FlowRecord> {
        self.records.iter()
    }

    /// The sealed record store as one contiguous slice, in report order.
    ///
    /// Post-hoc query executors (the `hashflow-query` plan evaluator)
    /// make repeated single passes over the whole report; the slice view
    /// lets them do so without re-creating iterators or copying records.
    pub fn as_records(&self) -> &[FlowRecord] {
        &self.records
    }

    /// Number of records in the report.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the report is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The epoch's size-query index, built here by whichever clone asks
    /// first; a reader arriving while another builds it waits for that
    /// build instead of starting its own.
    fn index(&self) -> &KeyIndex {
        self.index
            .get_or_init(|| KeyIndex::build(&self.records, process_seed()))
    }

    /// Sealed size estimate for one flow (`0` when unreported, §IV-A).
    ///
    /// The first size query on a sealed epoch (through any clone) builds
    /// its index — one hash per record; every later one is a probe.
    pub fn estimate_size(&self, key: &FlowKey) -> u32 {
        self.index().count_of(&self.records, key)
    }

    /// Batched size estimation: one answer per query key, in query order.
    ///
    /// The batched form exists for collector-side workloads (answering a
    /// monitoring dashboard's watchlist, joining against a ground-truth
    /// set): one call, one output allocation, no per-key virtual dispatch.
    pub fn estimate_sizes(&self, keys: &[FlowKey]) -> Vec<u32> {
        let index = self.index();
        keys.iter()
            .map(|key| index.count_of(&self.records, key))
            .collect()
    }

    /// Sealed cardinality estimate (captured from the live estimator).
    pub const fn cardinality(&self) -> f64 {
        self.cardinality
    }

    /// Cost counters accumulated during the sealed epoch.
    pub const fn cost(&self) -> &CostSnapshot {
        &self.cost
    }

    /// Flows with at least `threshold` packets, largest first (ties broken
    /// by key, like the live [`FlowMonitor::heavy_hitters`] default).
    pub fn heavy_hitters(&self, threshold: u32) -> Vec<FlowRecord> {
        let mut hh: Vec<FlowRecord> = self
            .records
            .iter()
            .filter(|r| r.count() >= threshold)
            .copied()
            .collect();
        hh.sort_unstable_by(heavy_hitter_order);
        hh
    }

    /// The `k` largest flows, largest first, without sorting the full
    /// report: a bounded min-heap of size `k` makes this O(n log k)
    /// instead of the O(n log n) full sort (at 800 K records and k = 100,
    /// the heap touches a ~100-element arena instead of re-ordering the
    /// whole record store).
    ///
    /// Ordering (count descending, then key ascending) matches
    /// [`Self::heavy_hitters`]: `top_k(k)` is exactly the first `k`
    /// entries of `heavy_hitters(0)`.
    pub fn top_k(&self, k: usize) -> Vec<FlowRecord> {
        if k == 0 {
            return Vec::new();
        }
        // BinaryHeap is a max-heap; HeapEntry reverses the report order so
        // the heap's root is the *smallest* retained record.
        struct HeapEntry(FlowRecord);
        impl PartialEq for HeapEntry {
            fn eq(&self, other: &Self) -> bool {
                heavy_hitter_order(&self.0, &other.0) == std::cmp::Ordering::Equal
            }
        }
        impl Eq for HeapEntry {}
        impl PartialOrd for HeapEntry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for HeapEntry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                heavy_hitter_order(&self.0, &other.0)
            }
        }
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
        for rec in self.records.iter() {
            if heap.len() < k {
                heap.push(HeapEntry(*rec));
            } else if let Some(worst) = heap.peek() {
                if heavy_hitter_order(rec, &worst.0) == std::cmp::Ordering::Less {
                    heap.pop();
                    heap.push(HeapEntry(*rec));
                }
            }
        }
        let mut out: Vec<FlowRecord> = heap.into_iter().map(|e| e.0).collect();
        out.sort_unstable_by(heavy_hitter_order);
        out
    }
}

/// The heavy-hitter report order: packet count descending, flow key
/// ascending on ties. Shared by the live default, the sealed filter, and
/// the bounded-heap top-k so all three agree record for record.
pub(crate) fn heavy_hitter_order(a: &FlowRecord, b: &FlowRecord) -> std::cmp::Ordering {
    b.count()
        .cmp(&a.count())
        .then_with(|| a.key_ref().cmp(b.key_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn rec(i: u64, count: u32) -> FlowRecord {
        FlowRecord::new(FlowKey::from_index(i), count)
    }

    fn snapshot(records: Vec<FlowRecord>) -> EpochSnapshot {
        EpochSnapshot::from_parts(
            3,
            Some(10),
            Some(20),
            records,
            42.0,
            CostSnapshot::default(),
        )
    }

    #[test]
    fn records_iterate_in_report_order() {
        let s = snapshot(vec![rec(5, 1), rec(2, 9), rec(7, 4)]);
        let order: Vec<u32> = s.records().map(|r| r.count()).collect();
        assert_eq!(order, vec![1, 9, 4]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.epoch(), 3);
        assert_eq!(s.start_ns(), Some(10));
        assert_eq!(s.end_ns(), Some(20));
        assert_eq!(s.cardinality(), 42.0);
    }

    #[test]
    fn size_queries_answer_zero_for_unreported_flows() {
        let s = snapshot(vec![rec(1, 3), rec(2, 8)]);
        assert_eq!(s.estimate_size(&FlowKey::from_index(1)), 3);
        assert_eq!(s.estimate_size(&FlowKey::from_index(9)), 0);
        assert_eq!(
            s.estimate_sizes(&[
                FlowKey::from_index(2),
                FlowKey::from_index(9),
                FlowKey::from_index(1),
            ]),
            vec![8, 0, 3]
        );
        assert!(s.estimate_sizes(&[]).is_empty());
    }

    #[test]
    fn duplicate_keys_resolve_to_first_report_entry() {
        // ElasticSketch can report one key from two heavy stages; the live
        // lookup finds the earlier stage, so the sealed answer must too.
        let s = snapshot(vec![rec(1, 7), rec(1, 2)]);
        assert_eq!(s.estimate_size(&FlowKey::from_index(1)), 7);
        assert_eq!(s.len(), 2, "the report itself keeps both records");
    }

    #[test]
    fn top_k_matches_full_sort_prefix() {
        let records: Vec<FlowRecord> = (0..200u64).map(|i| rec(i, (i * 37 % 101) as u32)).collect();
        let s = snapshot(records);
        let full = s.heavy_hitters(0);
        for k in [0usize, 1, 7, 100, 200, 500] {
            let top = s.top_k(k);
            assert_eq!(top.len(), k.min(200));
            assert_eq!(top.as_slice(), &full[..k.min(200)], "k = {k}");
        }
    }

    #[test]
    fn top_k_breaks_count_ties_by_key() {
        let tied = [rec(9, 5), rec(1, 5), rec(4, 5)];
        let smallest_key = tied.iter().copied().min_by_key(|r| r.key()).unwrap();
        let mut records = tied.to_vec();
        records.push(rec(2, 6));
        let s = snapshot(records);
        let top = s.top_k(2);
        assert_eq!(top[0], rec(2, 6));
        assert_eq!(top[1], smallest_key, "smallest key wins the tie");
    }

    #[test]
    fn heavy_hitters_filter_and_sort() {
        let s = snapshot(vec![rec(1, 5), rec(2, 1), rec(3, 9)]);
        let hh = s.heavy_hitters(5);
        assert_eq!(hh.len(), 2);
        assert_eq!(hh[0].count(), 9);
        assert_eq!(hh[1].count(), 5);
    }

    #[test]
    fn clones_share_the_store_and_a_report_moves_into_it() {
        let records = vec![rec(1, 3), rec(2, 8)];
        let store = records.as_ptr();
        // Freezing a report moves its records into the store uncopied.
        let s = crate::EpochReport {
            epoch: 0,
            start_ns: None,
            end_ns: None,
            cardinality: 2.0,
            cost: CostSnapshot::default(),
            records,
            partial: false,
            introspection: vec![IntrospectMetric::count("promotions", 3)],
        }
        .into_snapshot();
        assert!(std::ptr::eq(s.as_records().as_ptr(), store));
        let clone = s.clone();
        assert!(std::ptr::eq(clone.as_records().as_ptr(), store));
        assert!(
            std::ptr::eq(clone.introspection().as_ptr(), s.introspection().as_ptr()),
            "a clone shares the introspection report too"
        );
        assert_eq!(clone.estimate_size(&FlowKey::from_index(2)), 8);
    }

    fn builds_on_this_thread() -> usize {
        BUILDS.with(std::cell::Cell::get)
    }

    #[test]
    fn only_a_size_query_builds_the_index_and_only_the_first() {
        use crate::RecordSink;
        let before = builds_on_this_thread();
        let s = snapshot((0..500u64).map(|i| rec(i, i as u32 + 1)).collect());
        let clone = s.clone().with_epoch_span(4, None, Some(9));
        assert_eq!(s.records().len(), 500);
        // `as_records` is all a post-hoc plan reads:
        // `execute_snapshot(plan, s)` is `execute(plan, s.as_records())`.
        assert_eq!(s.as_records().len(), 500);
        assert_eq!(s.top_k(3)[0], rec(499, 500));
        assert_eq!(clone.heavy_hitters(400).len(), 101);
        let mut sink = crate::MemorySink::new();
        sink.export_epoch(&s).unwrap();
        assert_eq!(sink.epochs()[0].len(), 500);
        assert_eq!(
            builds_on_this_thread(),
            before,
            "sealing, cloning, scanning, ranking and exporting hash nothing"
        );

        for holder in [&s, &clone, &sink.epochs()[0], &s.clone()] {
            for i in [0u64, 77, 499, 500] {
                let expected = if i < 500 { i as u32 + 1 } else { 0 };
                assert_eq!(holder.estimate_size(&FlowKey::from_index(i)), expected);
            }
            assert_eq!(
                holder.estimate_sizes(&[FlowKey::from_index(1), FlowKey::from_index(900)]),
                vec![2, 0]
            );
        }
        assert_eq!(
            builds_on_this_thread(),
            before + 1,
            "every clone answers from the one index the first query built"
        );
    }

    #[test]
    fn racing_first_readers_share_one_build_and_agree_with_a_model() {
        const READERS: usize = 8;
        let records: Vec<FlowRecord> = (0..100_000u64)
            .map(|i| rec(i, (i % 977) as u32 + 1))
            .collect();
        let model: HashMap<FlowKey, u32> = records.iter().map(|r| (r.key(), r.count())).collect();
        let fresh = snapshot(records);
        let barrier = std::sync::Barrier::new(READERS);
        let builds: usize = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..READERS as u64)
                .map(|reader| {
                    let (clone, barrier, model) = (fresh.clone(), &barrier, &model);
                    scope.spawn(move || {
                        // Present and absent keys, a different stride
                        // per reader.
                        let keys: Vec<FlowKey> = (0..4_000u64)
                            .map(|i| FlowKey::from_index((i * (31 + reader)) % 120_000))
                            .collect();
                        barrier.wait();
                        let answers = clone.estimate_sizes(&keys);
                        for (key, answer) in keys.iter().zip(answers) {
                            assert_eq!(answer, model.get(key).copied().unwrap_or(0));
                            assert_eq!(clone.estimate_size(key), answer);
                        }
                        builds_on_this_thread()
                    })
                })
                .collect();
            readers
                .into_iter()
                .map(|reader| reader.join().expect("reader panicked"))
                .sum()
        });
        assert_eq!(builds, 1, "one of the racing readers built it, once");
    }

    fn report(records: Vec<FlowRecord>) -> EpochReport {
        EpochReport {
            epoch: 6,
            start_ns: Some(1),
            end_ns: Some(8),
            cardinality: 2.5,
            cost: CostSnapshot {
                packets: 11,
                hashes: 12,
                reads: 13,
                writes: 14,
            },
            records,
            partial: true,
            introspection: vec![IntrospectMetric::count("promotions", 3)],
        }
    }

    #[test]
    fn into_report_moves_a_unique_store_and_copies_a_shared_one() {
        let records = vec![rec(5, 1), rec(2, 9), rec(7, 4)];
        let carried = |r: &EpochReport| {
            assert_eq!((r.epoch, r.start_ns, r.end_ns), (6, Some(1), Some(8)));
            assert_eq!(r.cardinality, 2.5);
            assert_eq!(r.cost, report(Vec::new()).cost);
            assert!(r.partial);
            assert_eq!(r.introspection, report(Vec::new()).introspection);
        };

        // Unique: the round trip hands back the very same allocation,
        // even after a size query built the index beside it.
        let original = report(records.clone());
        let store = original.records.as_ptr();
        let sealed = original.into_snapshot();
        assert_eq!(Arc::strong_count(&sealed.records), 1);
        assert_eq!(sealed.estimate_size(&FlowKey::from_index(2)), 9);
        let back = sealed.into_report();
        assert!(std::ptr::eq(back.records.as_ptr(), store));
        assert_eq!(back.records, records, "report order survives");
        carried(&back);

        // Shared: the other holder keeps the store, the report gets a
        // copy in the same order.
        let sealed = back.into_snapshot();
        let holder = sealed.clone();
        assert_eq!(Arc::strong_count(&sealed.records), 2);
        let copy = sealed.into_report();
        assert!(!std::ptr::eq(copy.records.as_ptr(), store));
        assert_eq!(copy.records, records);
        carried(&copy);
        assert_eq!(Arc::strong_count(&holder.records), 1);
        assert!(std::ptr::eq(holder.as_records().as_ptr(), store));
        assert_eq!(holder.estimate_size(&FlowKey::from_index(7)), 4);
    }

    #[test]
    fn restamping_keeps_store_and_answers() {
        let s = snapshot(vec![rec(1, 3)]);
        let store = s.as_records().as_ptr();
        let s = s.with_epoch_span(9, Some(1), None);
        assert_eq!((s.epoch(), s.start_ns(), s.end_ns()), (9, Some(1), None));
        assert!(std::ptr::eq(s.as_records().as_ptr(), store));
        assert_eq!(s.estimate_size(&FlowKey::from_index(1)), 3);
    }

    /// `n` distinct keys sharing one 64-bit `mix64(seed)` value: the mix
    /// is `finish((lo ^ seed) * C1 ^ hi * C2)` with `finish` a bijection,
    /// so any `hi` can be paired with the `lo` that lands on a chosen
    /// pre-image.
    fn keys_colliding_under(seed: u64, n: u64) -> Vec<FlowKey> {
        const C1: u64 = 0x9e37_79b9_7f4a_7c15;
        const C2: u64 = 0xbf58_476d_1ce4_e5b9;
        // Newton iteration for C1's inverse modulo 2^64 (C1 is odd).
        let mut c1_inverse = C1;
        for _ in 0..6 {
            c1_inverse = c1_inverse.wrapping_mul(2u64.wrapping_sub(C1.wrapping_mul(c1_inverse)));
        }
        assert_eq!(C1.wrapping_mul(c1_inverse), 1);
        let pre_image = 0x0123_4567_89ab_cdef_u64;
        (0..n)
            .map(|hi| {
                let lo = (pre_image ^ hi.wrapping_mul(C2)).wrapping_mul(c1_inverse) ^ seed;
                let mut bytes = [0u8; 13];
                bytes[..8].copy_from_slice(&lo.to_le_bytes());
                bytes[8..].copy_from_slice(&hi.to_le_bytes()[..5]);
                FlowKey::from_bytes(bytes)
            })
            .collect()
    }

    /// Probe-chain bound for the hostile-key cases: generous against a
    /// half-full table with scattered keys (a few dozen at these sizes),
    /// far below the one-chain-per-store a lined-up attack produces.
    const PROBE_BOUND: usize = 256;

    #[test]
    fn keys_lined_up_against_a_known_seed_scatter_under_the_process_seed() {
        let known_seed = 0;
        let keys = keys_colliding_under(known_seed, 4096);
        let target = keys[0].mix64(known_seed);
        assert!(keys.iter().all(|k| k.mix64(known_seed) == target));
        let records: Vec<FlowRecord> = (keys.iter().zip(1u32..))
            .map(|(k, count)| FlowRecord::new(*k, count))
            .collect();
        // The attack is real: against the seed it was computed for,
        // every key probes through all earlier ones.
        let attacked = KeyIndex::build(&records, known_seed);
        assert_eq!(attacked.longest_probe(&records), records.len());
        // The index a snapshot actually builds is keyed per process.
        let sealed = snapshot(records.clone());
        let longest = sealed.index().longest_probe(&records);
        assert!(longest <= PROBE_BOUND, "longest probe {longest}");
        for r in &records {
            assert_eq!(sealed.estimate_size(r.key_ref()), r.count());
        }
    }

    #[test]
    fn collision_adversarial_regime_keeps_probe_chains_short() {
        let trace = hashflow_trace::TraceRegime::CollisionAdversarial.generate(11, 2_000);
        let records = trace.ground_truth().to_vec();
        let sealed = snapshot(records.clone());
        let longest = sealed.index().longest_probe(&records);
        assert!(longest <= PROBE_BOUND, "longest probe {longest}");
        for r in &records {
            assert_eq!(sealed.estimate_size(r.key_ref()), r.count());
        }
    }

    proptest! {
        /// The index against a `HashMap` reference model: arbitrary
        /// record lists (empty, single, duplicate keys), queries for
        /// present and absent keys, answers in query order.
        #[test]
        fn index_matches_a_hash_map_model(
            entries in prop::collection::vec((0u64..48, 1u32..1_000), 0..96),
            queries in prop::collection::vec(0u64..96, 0..64),
        ) {
            let records: Vec<FlowRecord> =
                entries.iter().map(|&(flow, count)| rec(flow, count)).collect();
            let mut model: HashMap<FlowKey, u32> = HashMap::new();
            for r in &records {
                // First occurrence wins.
                model.entry(r.key()).or_insert(r.count());
            }
            let sealed = snapshot(records.clone());
            prop_assert_eq!(sealed.as_records(), records.as_slice());
            for r in &records {
                prop_assert_eq!(sealed.estimate_size(r.key_ref()), model[r.key_ref()]);
            }
            let keys: Vec<FlowKey> = queries.iter().map(|&q| FlowKey::from_index(q)).collect();
            let expected: Vec<u32> =
                keys.iter().map(|k| model.get(k).copied().unwrap_or(0)).collect();
            prop_assert_eq!(sealed.estimate_sizes(&keys), expected);
        }
    }

    #[test]
    fn empty_snapshot_answers_empty() {
        let s = snapshot(Vec::new());
        assert!(s.is_empty());
        assert!(s.top_k(5).is_empty());
        assert!(s.heavy_hitters(0).is_empty());
        assert_eq!(s.estimate_size(&FlowKey::from_index(1)), 0);
    }
}
