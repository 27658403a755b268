//! Multi-core sharded ingestion for any flow monitor.
//!
//! The paper evaluates every algorithm on a single bmv2 core (§IV-D,
//! ~20 Kpps bare forwarding). Real collectors scale out the way
//! RSS-enabled NICs do: hash the flow key and pin each flow to one
//! worker, so the workers hold disjoint flows and no state is ever
//! folded together. This crate provides that scale-out layer for the
//! whole workspace:
//!
//! * [`ShardedMonitor<M>`] owns `N` inner monitors ("shards"). Packets are
//!   dispatched by a dedicated RSS hash over the flow key, so **one flow
//!   never splits across shards** — per-record exactness (the property
//!   HashFlow's non-evicting main table guarantees) is preserved end to
//!   end.
//! * There is one way in: one split (one dispatch hash per packet) and
//!   one guarded feed of each partition through its shard's batched hot
//!   path. [`FlowMonitor::process_batch`] runs them on the caller's
//!   thread, [`FlowMonitor::process_packet`] is that on a batch of one,
//!   and [`FlowMonitor::process_trace`] keeps the trait default, that
//!   chunk by chunk. [`ShardedMonitor::ingest`] is the one call that
//!   spawns threads: it runs the same split chunk by chunk in
//!   front of worker threads (`std::thread::scope`, no unsafe) fed through
//!   bounded [`BatchQueue`]s, so a slow shard back-pressures the
//!   dispatcher instead of buffering the trace; drained batch buffers
//!   recycle through a free-list.
//! * Queries need no merge: flow records concatenate across the
//!   disjoint partitions, size queries route to the owning shard, and
//!   cardinality estimates and costs sum.
//! * [`ShardedMonitor::seal_epoch`] drains all shards into **one**
//!   [`EpochReport`]. The monitor owns no sinks and no clock: the epoch's
//!   number, timestamp span and retained history belong to an
//!   `EpochRotator::new(sharded, epoch_len_ns)`, given sinks with
//!   `add_sink(..)`, which is what the `hashflow-collector` facade builds.
//! * The equal-memory discipline of §IV-A carries over:
//!   [`ShardedMonitor::with_budget`] splits one budget into `N` equal
//!   shard budgets that sum to at most the parent
//!   ([`MemoryBudget::split_shards`]).
//! * **Overload and fault behavior is a contract, not an accident.** The
//!   per-shard queues block: a slow shard back-pressures the dispatcher
//!   and loses nothing. A shard that panics — on a worker lane or on the
//!   caller's thread, through any entry — degrades **only itself**: the
//!   panic is caught (`shard_panic`), the batch it died on and all routed
//!   to it afterwards count as drops on a [`DropStats`] ledger
//!   ([`ShardedMonitor::queue_drop_stats`], exported as
//!   `component="shard_queue"`; one `batch_shed` event per degradation),
//!   the remaining shards keep ingesting, the sealed epoch is flagged
//!   [`EpochReport::partial`], and the shard recovers at the next epoch
//!   boundary when its state resets cleanly.
//!
//! # Examples
//!
//! ```
//! use hashflow_core::HashFlow;
//! use hashflow_monitor::{FlowMonitor, MemoryBudget};
//! use hashflow_shard::ShardedMonitor;
//! use hashflow_types::{FlowKey, Packet};
//!
//! let budget = MemoryBudget::from_kib(256)?;
//! // Each shard gets budget/4 and an identical configuration.
//! let mut sharded =
//!     ShardedMonitor::with_budget(4, budget, |_shard, b| HashFlow::with_memory(b))?;
//! let packets: Vec<Packet> = (0..1000u64)
//!     .map(|i| Packet::new(FlowKey::from_index(i % 100), i, 64))
//!     .collect();
//! let report = sharded.ingest(&packets);
//! assert_eq!(report.packets, 1000);
//! assert_eq!(sharded.flow_records().len(), 100);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;

pub use queue::{BatchQueue, BoundedQueue, PopOutcome, PushOutcome};

use hashflow_hashing::fast_range;
use hashflow_monitor::{
    merge_introspection, BackpressurePolicy, CostSnapshot, DropStats, EpochReport, EpochSnapshot,
    FlowMonitor, FlowTracer, Instruments, IntrospectMetric, MemoryBudget, StageTally,
};
use hashflow_obs::{Counter, FlightRecorder, Gauge, Histogram, MetricsRegistry, Severity};
use hashflow_types::{ConfigError, FlowKey, FlowRecord, Packet};
use std::time::Instant;

/// Parks shard `shard` after its code panicked: the payload becomes the
/// fault message (panics carry `&str` or `String` in practice), the
/// flight recorder gets a `shard_panic` error and dumps the recent
/// window — a shard dropping out is exactly the moment the events
/// leading up to it matter — and the shard sheds until a seal resets it.
/// A free function so the worker lanes, which hold `&mut` borrows of
/// their shard and its fault, can call it.
fn degrade(
    recorder: Option<&FlightRecorder>,
    shard: usize,
    fault: &mut Option<String>,
    payload: Box<dyn std::any::Any + Send>,
) {
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    };
    if let Some(r) = recorder {
        r.record_with(
            Severity::Error,
            "shard_panic",
            format!("shard {shard} worker panicked: {message}"),
            vec![("shard".to_string(), shard.to_string())],
        );
        r.dump("shard_panic");
    }
    *fault = Some(message);
}

/// Runs `batch` through shard `shard` under the panic guard — the only
/// place a shard ingests, on the caller's thread and on a worker lane
/// alike. Returns whether the batch is lost: the shard was already
/// degraded, or panicked on it just now and was [`degrade`]d.
fn feed_guarded<M: FlowMonitor>(
    recorder: Option<&FlightRecorder>,
    shard: usize,
    monitor: &mut M,
    fault: &mut Option<String>,
    batch: &[Packet],
) -> bool {
    if fault.is_none() {
        let worked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            monitor.process_batch(batch);
        }));
        if let Err(payload) = worked {
            degrade(recorder, shard, fault, payload);
        }
    }
    fault.is_some()
}

/// Records one `batch_shed` warning in the flight recorder: a degraded
/// shard's first shed ([`ShardedMonitor::announced`]).
fn record_batch_shed(recorder: Option<&FlightRecorder>, shard: usize, packets: u64) {
    if let Some(r) = recorder {
        r.record_with(
            Severity::Warn,
            "batch_shed",
            format!("shard {shard} shed {packets} packets (shard degraded)"),
            vec![
                ("shard".to_string(), shard.to_string()),
                ("packets".to_string(), packets.to_string()),
            ],
        );
    }
}

/// Accounts one partition as routed to `shard`, whatever becomes of it,
/// on the shard's packet counter.
fn note_routed(metrics: Option<&ShardMetrics>, shard: usize, part: &[Packet]) {
    if let Some(m) = metrics {
        m.lane_packets[shard].add(part.len() as u64);
    }
}

/// The dispatcher's half of flow tracing: a sampled flow's first packet
/// of each epoch records a `dispatch` span naming the shard that owns it.
#[derive(Debug)]
struct DispatchTrace {
    tracer: FlowTracer,
    /// Sampled flows that recorded their `dispatch` span this epoch.
    dispatched: StageTally<1>,
}

impl DispatchTrace {
    fn new(tracer: FlowTracer) -> Self {
        DispatchTrace {
            tracer,
            dispatched: StageTally::new(["dispatch"]),
        }
    }

    /// Checks the flow of one packet routed to `shard`.
    #[inline]
    fn note(&mut self, key: &FlowKey, shard: usize) {
        if self.tracer.is_sampled(key) {
            self.span(key, shard);
        }
    }

    /// Kept out of line: one packet in a thousand gets here.
    #[cold]
    #[inline(never)]
    fn span(&mut self, key: &FlowKey, shard: usize) {
        self.dispatched
            .note(&self.tracer, key, 0, || format!("shard {shard}"));
    }
}

/// Metric handles of an instrumented [`ShardedMonitor`] — registered
/// when [`FlowMonitor::instrument`] brings a registry.
///
/// | Metric | Type | Meaning |
/// |---|---|---|
/// | `hashflow_shard_packets_total{shard=i}` | counter | packets owned by shard `i` |
/// | `hashflow_shard_queue_depth{shard=i}` | gauge | in-flight batches on shard `i`'s queue |
/// | `hashflow_shard_dispatch_ns` | histogram | RSS split time per `process_batch` call (a batch of one included) |
/// | `hashflow_shard_merge_ns` | histogram | per-seal merge of shard reports |
/// | `hashflow_shard_seal_ns` | histogram | whole [`ShardedMonitor::seal_epoch`] |
///
/// Counter updates are batched (per published batch or per seal), so the
/// threaded ingest path pays a handful of relaxed atomics per thousand
/// packets, not per packet.
#[derive(Clone, Debug)]
pub struct ShardMetrics {
    dispatch_ns: Histogram,
    merge_ns: Histogram,
    seal_ns: Histogram,
    lane_packets: Vec<Counter>,
    queue_depth: Vec<Gauge>,
}

impl ShardMetrics {
    /// Registers the per-shard and per-stage metrics for a monitor of
    /// `shards` shards.
    pub fn register(registry: &MetricsRegistry, shards: usize) -> Self {
        ShardMetrics {
            dispatch_ns: registry.histogram("hashflow_shard_dispatch_ns", &[]),
            merge_ns: registry.histogram("hashflow_shard_merge_ns", &[]),
            seal_ns: registry.histogram("hashflow_shard_seal_ns", &[]),
            lane_packets: (0..shards)
                .map(|i| {
                    registry.counter("hashflow_shard_packets_total", &[("shard", &i.to_string())])
                })
                .collect(),
            queue_depth: (0..shards)
                .map(|i| registry.gauge("hashflow_shard_queue_depth", &[("shard", &i.to_string())]))
                .collect(),
        }
    }
}

/// Average packets per batch published to a shard's queue (amortizes one
/// lock round-trip over about this many packets): [`ShardedMonitor::ingest`]
/// splits the trace in chunks of this many packets per shard.
pub const BATCH_PACKETS: usize = 1024;

/// Batches that may be in flight per shard before the dispatcher blocks.
pub const QUEUE_DEPTH: usize = 8;

/// Seed of the dispatch hash. Deliberately distinct from every table seed
/// in the workspace so shard placement is independent of in-shard bucket
/// placement (the same independence RSS gives a NIC).
const DISPATCH_SEED: u64 = 0xd15b_a7c4_0b5e_55ed;

/// The RSS dispatch hash: [`FlowKey::mix64`] under [`DISPATCH_SEED`].
///
/// The dispatcher is the serial (Amdahl) term of the sharded pipeline —
/// every packet pays it before any shard can work — so it is specialized
/// rather than reusing the general [`hashflow_hashing`] families: the
/// 13-byte flow key is read as two words ([`FlowKey::to_words`]) and
/// mixed with three multiplies, a fraction of a full xxhash pass, while
/// still avalanching the high bits that [`fast_range`] consumes. It is a
/// pure function of the whole key, so one flow maps to exactly one
/// shard, and [`DispatchScratch::split`] evaluates it **exactly once**
/// per ingested packet.
#[inline]
fn dispatch_hash(key: &FlowKey) -> u64 {
    key.mix64(DISPATCH_SEED)
}

/// Result of one [`ShardedMonitor::ingest`] call.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Packets dispatched in this call (routed, whether or not their
    /// shard ultimately admitted them).
    pub packets: u64,
    /// Packets routed to each shard — the RSS load split.
    pub per_shard_packets: Vec<u64>,
    /// Wall-clock nanoseconds for the whole call (dispatch + workers).
    pub elapsed_ns: u128,
    /// Packets shed during this call: batches lost to a degraded shard
    /// (the one it died on, and all routed to it afterwards). Every
    /// one is also in the cumulative [`ShardedMonitor::queue_drop_stats`]
    /// ledger, so `packets == processed + dropped_packets` per call.
    pub dropped_packets: u64,
}

impl IngestReport {
    /// Load imbalance: the busiest shard's packet share divided by the
    /// ideal equal share (`1.0` = perfectly balanced). By convention `1.0`
    /// for an empty ingest.
    pub fn imbalance(&self) -> f64 {
        let max = self.per_shard_packets.iter().copied().max().unwrap_or(0);
        if self.packets == 0 {
            return 1.0;
        }
        let ideal = self.packets as f64 / self.per_shard_packets.len() as f64;
        max as f64 / ideal
    }
}

/// Reusable dispatch buffers: one dispatch-hash-derived owner per packet
/// plus the per-shard partitions. Holding these on the monitor keeps the
/// serial dispatch pass allocation-free (and, after the first batch,
/// page-fault-free) in steady state — the Amdahl term every packet pays.
#[derive(Debug, Clone, Default)]
struct DispatchScratch {
    owners: Vec<u32>,
    counts: Vec<usize>,
    parts: Vec<Vec<Packet>>,
}

impl DispatchScratch {
    /// Splits `packets` by owning shard, preserving arrival order within
    /// each partition — the only code that turns packets into per-shard
    /// partitions. Two passes, one dispatch hash per key: pass A
    /// evaluates the hash for every packet exactly once and keeps the
    /// derived owner alongside the batch; pass B scatters into
    /// exactly-sized partitions without re-hashing anything. With a
    /// `trace`, pass A also makes the dispatcher's sampling check, on the
    /// key it has already loaded.
    ///
    /// Returns the partitions in shard order, or `None` for a single
    /// shard: partition 0 is then the caller's slice itself — no dispatch
    /// hash, nothing copied.
    fn split(
        &mut self,
        shards: usize,
        packets: &[Packet],
        mut trace: Option<&mut DispatchTrace>,
    ) -> Option<&mut [Vec<Packet>]> {
        if shards == 1 {
            if let Some(t) = trace {
                for p in packets {
                    t.note(&p.key(), 0);
                }
            }
            return None;
        }
        self.counts.clear();
        self.counts.resize(shards, 0);
        self.owners.clear();
        self.owners.reserve(packets.len());
        for p in packets {
            let key = p.key();
            let s = fast_range(dispatch_hash(&key), shards);
            self.counts[s] += 1;
            self.owners.push(s as u32);
            if let Some(t) = trace.as_deref_mut() {
                t.note(&key, s);
            }
        }
        self.parts.resize_with(shards, Vec::new);
        for (part, &count) in self.parts.iter_mut().zip(&self.counts) {
            part.clear();
            part.reserve(count);
        }
        for (p, &s) in packets.iter().zip(&self.owners) {
            self.parts[s as usize].push(*p);
        }
        Some(&mut self.parts)
    }
}

/// `N` inner monitors behind an RSS-style flow dispatcher. See the crate
/// docs for the full contract.
pub struct ShardedMonitor<M> {
    shards: Vec<M>,
    /// Per-shard fault message; `Some` marks the shard degraded (its
    /// worker panicked) and shedding until an epoch-boundary recovery.
    faults: Vec<Option<String>>,
    /// Per shard: whether the current degradation has recorded its one
    /// `batch_shed` event — its first shed after the fault was set. Later
    /// ones are only counted (the `shard_queue` ledger has the totals), so
    /// a dead shard under load cannot turn the event ring over and push
    /// its own `shard_panic` out.
    announced: Vec<bool>,
    scratch: DispatchScratch,
    metrics: Option<ShardMetrics>,
    recorder: Option<FlightRecorder>,
    trace: Option<DispatchTrace>,
    queue_drops: DropStats,
}

impl<M: std::fmt::Debug> std::fmt::Debug for ShardedMonitor<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMonitor")
            .field("shards", &self.shards)
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

impl<M: FlowMonitor + Send> ShardedMonitor<M> {
    /// Wraps pre-built shards, normally configured identically — same
    /// geometry, per-shard budget *and* seeds. Identical seeds across
    /// shards are safe: shards hold disjoint flow partitions, and the
    /// dispatch hash is seeded independently of every table hash, so
    /// shard placement never correlates with in-shard bucket placement.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `shards` is empty.
    pub fn new(shards: Vec<M>) -> Result<Self, ConfigError> {
        if shards.is_empty() {
            return Err(ConfigError::new("sharded monitor needs at least one shard"));
        }
        let count = shards.len();
        Ok(ShardedMonitor {
            shards,
            faults: vec![None; count],
            announced: vec![false; count],
            scratch: DispatchScratch::default(),
            metrics: None,
            recorder: None,
            trace: None,
            queue_drops: DropStats::new(),
        })
    }

    /// The cumulative shard-queue ledger: batches offered to the worker
    /// queues ("epochs" = batches, "records" = packets) and batches lost
    /// to a degraded shard (whose share of the serial entries is offered
    /// and dropped in one step).
    /// Conservation (`offered == delivered + dropped`) holds by
    /// construction.
    pub fn queue_drop_stats(&self) -> &DropStats {
        &self.queue_drops
    }

    /// Per-shard fault state: `Some(message)` if the shard panicked and
    /// is currently degraded (shedding its share of the load), `None` if
    /// healthy. Degraded shards recover at the
    /// next [`Self::seal_epoch`] when their state resets cleanly.
    pub fn shard_faults(&self) -> &[Option<String>] {
        &self.faults
    }

    /// `true` if any shard is currently degraded.
    pub fn is_degraded(&self) -> bool {
        self.faults.iter().any(|f| f.is_some())
    }

    /// Builds `shards` monitors from one shared memory budget, split
    /// equally with no rounding inflation (see
    /// [`MemoryBudget::split_shards`]): the aggregate footprint never
    /// exceeds what a single monitor would have been granted.
    ///
    /// `build` receives `(shard_index, per_shard_budget)`; the index is
    /// for diagnostics and labels, **not** for seed derivation (see
    /// [`Self::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `shards == 0`, the per-shard budget is
    /// empty, or `build` fails.
    pub fn with_budget(
        shards: usize,
        budget: MemoryBudget,
        mut build: impl FnMut(usize, MemoryBudget) -> Result<M, ConfigError>,
    ) -> Result<Self, ConfigError> {
        let split = budget.split_shards(shards)?;
        let monitors = split
            .into_iter()
            .enumerate()
            .map(|(i, b)| build(i, b))
            .collect::<Result<Vec<M>, ConfigError>>()?;
        Self::new(monitors)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read-only view of the shards.
    pub fn shards(&self) -> &[M] {
        &self.shards
    }

    /// The shard that owns `key` under RSS dispatch. Stable for the
    /// lifetime of the monitor: every packet of a flow lands here.
    #[inline]
    pub fn shard_of(&self, key: &FlowKey) -> usize {
        fast_range(dispatch_hash(key), self.shards.len())
    }

    /// Hands shard `s` its partition on the caller's thread: routed,
    /// then the guarded feed, and a partition lost to a degraded shard is
    /// shed.
    fn feed(&mut self, s: usize, part: &[Packet]) {
        if part.is_empty() {
            return;
        }
        note_routed(self.metrics.as_ref(), s, part);
        let recorder = self.recorder.as_ref();
        if feed_guarded(recorder, s, &mut self.shards[s], &mut self.faults[s], part) {
            self.shed(s, part.len() as u64);
        }
    }

    /// Sheds `packets` routed to degraded shard `s` before any queue saw
    /// them: offered and dropped on the ledger in one step, evented by
    /// the once-per-degradation rule.
    fn shed(&mut self, s: usize, packets: u64) {
        self.queue_drops.record_offer(packets);
        self.queue_drops.record_drop(packets);
        if !std::mem::replace(&mut self.announced[s], true) {
            record_batch_shed(self.recorder.as_ref(), s, packets);
        }
    }

    /// The RSS split on its own: `packets` by owning shard, arrival order
    /// preserved within each partition (the order-preservation RSS
    /// guarantees per flow). The ingestion paths run the same split
    /// against reusable monitor-owned buffers instead of fresh allocations.
    pub fn partition(&self, packets: &[Packet]) -> Vec<Vec<Packet>> {
        let mut scratch = DispatchScratch::default();
        match scratch.split(self.shards.len(), packets, None) {
            Some(_) => scratch.parts,
            None => vec![packets.to_vec()],
        }
    }

    /// Drains every shard into one collector-side [`EpochReport`] and
    /// resets the shards for the next epoch: records concatenate (disjoint
    /// partitions — no key appears twice), and costs and cardinality
    /// estimates sum.
    /// [`FlowMonitor::seal`] freezes the same drain into the shared
    /// [`EpochSnapshot`], which costs nothing.
    ///
    /// Like every monitor's seal, the report carries epoch 0 and no
    /// timestamp span: the monitor keeps no clock. Under an
    /// `EpochRotator` (what the `hashflow-collector` facade builds) the
    /// rotator numbers the epoch and stamps the span it observed.
    ///
    /// Everything that runs a shard's own code runs under the panic
    /// guard: a healthy shard goes through its [`FlowMonitor::seal`] (for
    /// HashFlow, one sweep that copies and clears) and the records move
    /// out of the sealed snapshot uncopied. A degraded shard (it panicked
    /// mid-epoch, or panics here, mid-drain) contributes nothing — its
    /// post-panic state is not trusted — and sets [`EpochReport::partial`].
    /// Sealing is also the recovery point: a degraded shard is only
    /// reset, and a clean reset returns it to service for the next epoch.
    pub fn seal_epoch(&mut self) -> EpochReport {
        let _seal_timer = self.metrics.as_ref().map(|m| m.seal_ns.start_timer());
        let recorder = self.recorder.as_ref();
        let mut partial = false;
        // Cardinality estimates of the shards that sealed, in shard order.
        let mut estimates = Vec::with_capacity(self.shards.len());
        let lanes = self.shards.iter_mut().zip(self.faults.iter_mut());
        let reports: Vec<EpochReport> = lanes
            .enumerate()
            .filter_map(|(i, (shard, fault))| {
                let healthy = fault.is_none();
                let drained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if healthy {
                        Some(shard.seal())
                    } else {
                        shard.reset();
                        None
                    }
                }));
                let sealed = match drained {
                    Ok(sealed) => {
                        *fault = None;
                        sealed
                    }
                    Err(payload) => {
                        degrade(recorder, i, fault, payload);
                        None
                    }
                };
                partial |= sealed.is_none();
                sealed.map(|sealed| {
                    estimates.push(sealed.cardinality());
                    sealed.into_report()
                })
            })
            .collect();
        let cardinality = estimates.iter().sum();
        let merge_timer = self.metrics.as_ref().map(|m| m.merge_ns.start_timer());
        let mut report = EpochReport::merged(reports, cardinality);
        drop(merge_timer);
        report.partial |= partial;
        // Whatever is degraded from here on (a shard that panicked in the
        // drain) is a new degradation and announces its first shed.
        self.announced.fill(false);
        if let Some(t) = &mut self.trace {
            t.dispatched.clear();
        }
        report
    }

    /// Feeds `packets` through all shards in parallel: one scoped worker
    /// thread per shard, each owning its inner monitor, fed through a
    /// bounded [`BatchQueue`] by the dispatcher running on the calling
    /// thread. The dispatcher splits the trace a chunk at a time with the
    /// split [`FlowMonitor::process_batch`] uses and publishes each
    /// partition whole, so the call is equivalent to
    /// [`process_packet`](FlowMonitor::process_packet) for every packet in
    /// order — per-flow packet order is preserved because a flow has
    /// exactly one queue and queues are FIFO. A single shard gets no
    /// worker: it is the serial path, run on the caller's thread.
    ///
    /// # Fault isolation
    ///
    /// A shard that panics degrades **only itself**: the panic is caught,
    /// and its lane keeps draining its queue — so the dispatcher never
    /// blocks on it — counting the batch that died in flight and all that
    /// follow in [`Self::queue_drop_stats`], while the remaining shards
    /// keep ingesting. The call never panics and never deadlocks; check
    /// [`Self::shard_faults`] / [`IngestReport::dropped_packets`] for what
    /// was lost. The shard recovers at the next [`Self::seal_epoch`].
    pub fn ingest(&mut self, packets: &[Packet]) -> IngestReport {
        let start = Instant::now();
        let dropped_before = self.queue_drops.dropped_records();
        let per_shard = if self.shards.len() == 1 {
            for chunk in packets.chunks(BATCH_PACKETS) {
                self.process_batch(chunk);
            }
            vec![packets.len() as u64]
        } else {
            self.ingest_threaded(packets)
        };
        IngestReport {
            packets: packets.len() as u64,
            per_shard_packets: per_shard,
            elapsed_ns: start.elapsed().as_nanos(),
            dropped_packets: self.queue_drops.dropped_records() - dropped_before,
        }
    }

    /// The worker lanes and the dispatcher behind [`Self::ingest`];
    /// returns the packets routed to each shard.
    fn ingest_threaded(&mut self, packets: &[Packet]) -> Vec<u64> {
        let shard_count = self.shards.len();
        let mut per_shard = vec![0u64; shard_count];
        let metrics = self.metrics.as_ref();
        let queues: Vec<BatchQueue<Packet>> = (0..shard_count)
            .map(|_| BatchQueue::new(QUEUE_DEPTH))
            .collect();
        // Free-list of drained batch buffers: workers clear and return
        // their batches here for the dispatcher to reuse. Best-effort on
        // both sides (`try_*`): losing a buffer only costs an allocation
        // and is *not* data loss, so it stays out of the drop ledger.
        let free: BatchQueue<Packet> = BatchQueue::new(shard_count * QUEUE_DEPTH);
        let drops = &self.queue_drops;
        let recorder = self.recorder.as_ref();
        let mut trace = self.trace.as_mut();
        let scratch = &mut self.scratch;
        let lanes = (self.shards.iter_mut())
            .zip(self.faults.iter_mut())
            .zip(self.announced.iter_mut());
        std::thread::scope(|scope| {
            for (i, (((shard, fault), announced), queue)) in lanes.zip(&queues).enumerate() {
                let free = &free;
                // Both sides of a queue update its depth gauge.
                let depth = metrics.map(|m| &m.queue_depth[i]);
                scope.spawn(move || {
                    while let Some(mut batch) = queue.pop() {
                        if let Some(d) = depth {
                            d.set(queue.len() as i64);
                        }
                        let n = batch.len() as u64;
                        if feed_guarded(recorder, i, shard, fault, &batch) {
                            // Panic isolation: a dead lane — dead just now
                            // or since an earlier call — keeps popping, so
                            // the dispatcher never blocks on it, and drops
                            // what it pops, the batch that died in flight
                            // included (the dispatcher counted the offer).
                            drops.record_drop(n);
                            if !std::mem::replace(announced, true) {
                                record_batch_shed(recorder, i, n);
                            }
                        }
                        batch.clear();
                        let _ = free.try_push(batch);
                    }
                });
            }
            // Dispatcher: every published batch waits for room. A lane
            // pops until its queue closes, dead or alive, and the queues
            // close only after the last offer, so every offer enqueues.
            let publish = |s: usize, batch: Vec<Packet>| {
                drops.record_offer(batch.len() as u64);
                let outcome = queues[s].offer(batch, BackpressurePolicy::Block);
                assert!(
                    matches!(outcome, PushOutcome::Enqueued),
                    "shard queue {s} closed early"
                );
                if let Some(m) = metrics {
                    m.queue_depth[s].set(queues[s].len() as i64);
                }
            };
            for chunk in packets.chunks(shard_count * BATCH_PACKETS) {
                let parts = (scratch.split(shard_count, chunk, trace.as_deref_mut()))
                    .expect("several shards");
                for (s, part) in parts.iter_mut().enumerate() {
                    if part.is_empty() {
                        continue;
                    }
                    per_shard[s] += part.len() as u64;
                    note_routed(metrics, s, part);
                    let fresh = free.try_pop().unwrap_or_default();
                    publish(s, std::mem::replace(part, fresh));
                }
            }
            for queue in &queues {
                queue.close();
            }
        });
        per_shard
    }
}

impl<M: FlowMonitor + Send> FlowMonitor for ShardedMonitor<M> {
    /// A batch of one through [`Self::process_batch`]: the same split,
    /// the same guarded feed, the same shedding of a degraded shard.
    fn process_packet(&mut self, packet: &Packet) {
        self.process_batch(std::slice::from_ref(packet));
    }

    /// The serial path, behind every entry that runs on the caller's
    /// thread: split once (one dispatch hash per packet; none for a
    /// single shard) and feed each shard its partition through the
    /// shard's own batched hot path, under the panic guard. Per-flow
    /// order is preserved because a flow has exactly one partition. A
    /// shard that panics degrades alone, exactly as on the worker lanes
    /// of [`ShardedMonitor::ingest`]; the panic never reaches the caller.
    fn process_batch(&mut self, packets: &[Packet]) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let dispatch_timer = self.metrics.as_ref().map(|m| m.dispatch_ns.start_timer());
        let parts = scratch.split(self.shards.len(), packets, self.trace.as_mut());
        drop(dispatch_timer);
        match parts {
            None => self.feed(0, packets),
            Some(parts) => {
                for (s, part) in parts.iter().enumerate() {
                    self.feed(s, part);
                }
            }
        }
        self.scratch = scratch;
    }

    fn flow_records(&self) -> Vec<FlowRecord> {
        // Disjoint partitions: no key appears in two shards.
        self.shards.iter().flat_map(|s| s.flow_records()).collect()
    }

    fn estimate_size(&self, key: &FlowKey) -> u32 {
        self.shards[self.shard_of(key)].estimate_size(key)
    }

    /// Each shard's estimator saw only its own flows, so the sum is the
    /// estimate of the whole.
    fn estimate_cardinality(&self) -> f64 {
        self.shards.iter().map(|s| s.estimate_cardinality()).sum()
    }

    fn memory_bits(&self) -> usize {
        self.shards.iter().map(|s| s.memory_bits()).sum()
    }

    fn name(&self) -> &'static str {
        self.shards[0].name()
    }

    fn cost(&self) -> CostSnapshot {
        self.shards
            .iter()
            .fold(CostSnapshot::default(), |acc, s| acc.merged(&s.cost()))
    }

    /// Live-state introspection, folded across the shards exactly as a
    /// sealed epoch folds its per-shard reports (ratios average, counts
    /// sum, flags OR). Degraded shards still report — their tables exist
    /// even when their worker died.
    fn introspection(&self) -> Vec<IntrospectMetric> {
        let per_shard: Vec<_> = self.shards.iter().map(|s| s.introspection()).collect();
        merge_introspection(&per_shard)
    }

    /// One line per degraded shard (see [`ShardedMonitor::shard_faults`]);
    /// empty while every lane is live.
    fn faults(&self) -> Vec<String> {
        self.faults
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().map(|msg| format!("shard {i}: {msg}")))
            .collect()
    }

    fn reset(&mut self) {
        for s in &mut self.shards {
            s.reset();
        }
        self.faults.fill(None);
        self.announced.fill(false);
        self.queue_drops.reset();
        if let Some(t) = &mut self.trace {
            t.dispatched.clear();
        }
    }

    /// [`Self::seal_epoch`], frozen into the shared snapshot.
    fn seal(&mut self) -> EpochSnapshot {
        self.seal_epoch().into_snapshot()
    }

    /// Registers the per-shard counters, queue-depth gauges and
    /// dispatch/merge/seal histograms ([`ShardMetrics`] lists the
    /// catalog) and the shard-queue ledger (`component="shard_queue"`);
    /// with a recorder, shard panics record an error event and dump the
    /// recent window and shed batches record warnings; with a tracer, a
    /// sampled flow's first dispatch of each epoch records a `dispatch`
    /// span naming the owning shard. The shards themselves are instrumented with the
    /// same handles.
    fn instrument(&mut self, instruments: &Instruments) {
        self.metrics = instruments.registry.as_ref().map(|registry| {
            self.queue_drops.register(registry, "shard_queue");
            ShardMetrics::register(registry, self.shards.len())
        });
        self.recorder = instruments.recorder.clone();
        self.trace = instruments.tracer.clone().map(DispatchTrace::new);
        for shard in &mut self.shards {
            shard.instrument(instruments);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowradar::FlowRadar;
    use hashflow_core::HashFlow;
    use hashflow_trace::{TraceGenerator, TraceProfile};

    fn sharded_hashflow(shards: usize, kib: usize) -> ShardedMonitor<HashFlow> {
        let budget = MemoryBudget::from_kib(kib).unwrap();
        ShardedMonitor::with_budget(shards, budget, |_, b| HashFlow::with_memory(b)).unwrap()
    }

    fn pkt(flow: u64, ts: u64) -> Packet {
        Packet::new(FlowKey::from_index(flow), ts, 64)
    }

    /// A sampled flow's `dispatch` span is recorded on its first packet
    /// of each epoch, on the caller's thread and on the worker lanes
    /// alike, and names the shard that owns it.
    #[test]
    fn dispatch_spans_once_per_flow_and_epoch_on_both_paths() {
        let packets: Vec<Packet> = (0..2_000u64).map(|i| pkt(i % 50, i)).collect();
        for threaded in [false, true] {
            let recorder = FlightRecorder::with_capacity(1 << 14);
            let mut m = sharded_hashflow(4, 256);
            m.instrument(&Instruments {
                tracer: Some(FlowTracer::new(recorder.clone(), 1)),
                ..Instruments::default()
            });
            for epoch in 0..2 {
                let since = recorder.last_seq();
                if threaded {
                    let _ = m.ingest(&packets);
                } else {
                    m.process_batch(&packets);
                }
                let _ = m.seal_epoch();
                let mut flows = std::collections::BTreeSet::new();
                for e in recorder.events_since(since) {
                    if e.field("stage") != Some("dispatch") {
                        continue;
                    }
                    let flow = e.field("flow").unwrap().to_string();
                    let key = (0..50u64)
                        .map(FlowKey::from_index)
                        .find(|k| k.to_string() == flow)
                        .unwrap();
                    assert_eq!(e.message, format!("shard {}", m.shard_of(&key)));
                    assert!(flows.insert(flow), "threaded {threaded}, epoch {epoch}");
                }
                assert_eq!(flows.len(), 50, "threaded {threaded}, epoch {epoch}");
            }
        }
    }

    #[test]
    fn flows_never_split_across_shards() {
        let mut m = sharded_hashflow(4, 256);
        let trace = TraceGenerator::new(TraceProfile::Caida, 3).generate(2_000);
        m.ingest(trace.packets());
        // Every reported record lives in exactly one shard — the shard the
        // dispatcher owns it to.
        for rec in m.flow_records() {
            let owner = m.shard_of(&rec.key());
            for (i, shard) in m.shards().iter().enumerate() {
                if i != owner {
                    assert!(
                        !shard.flow_records().iter().any(|r| r.key() == rec.key()),
                        "flow found in shard {i} but owned by {owner}"
                    );
                }
            }
        }
    }

    #[test]
    fn ingest_matches_sequential_process_packet() {
        // The threaded path must be *observationally identical* to the
        // sequential dispatch path: same records, same counts, same costs.
        let trace = TraceGenerator::new(TraceProfile::Isp2, 7).generate(1_500);
        let mut threaded = sharded_hashflow(4, 128);
        let mut sequential = sharded_hashflow(4, 128);
        let report = threaded.ingest(trace.packets());
        for p in trace.packets() {
            sequential.process_packet(p);
        }
        assert_eq!(report.packets, trace.packets().len() as u64);
        assert_eq!(report.per_shard_packets.iter().sum::<u64>(), report.packets);
        let mut a = threaded.flow_records();
        let mut b = sequential.flow_records();
        a.sort_by_key(|r| r.key());
        b.sort_by_key(|r| r.key());
        assert_eq!(a, b);
        assert_eq!(threaded.cost(), sequential.cost());
    }

    #[test]
    fn queries_merge_across_shards() {
        let mut m = sharded_hashflow(4, 512);
        for flow in 0..500u64 {
            for _ in 0..=(flow % 3) {
                m.process_packet(&pkt(flow, flow));
            }
        }
        // Size queries route to the owning shard.
        for flow in 0..500u64 {
            assert_eq!(
                m.estimate_size(&FlowKey::from_index(flow)),
                (flow % 3 + 1) as u32
            );
        }
        assert_eq!(m.flow_records().len(), 500);
        let card = m.estimate_cardinality();
        assert!(
            (card - 500.0).abs() / 500.0 < 0.15,
            "combined cardinality {card}"
        );
        let heavy = m.heavy_hitters(3);
        assert!(heavy.iter().all(|r| r.count() >= 3));
        assert_eq!(
            m.cost().packets,
            (0..500u64).map(|f| f % 3 + 1).sum::<u64>()
        );
    }

    #[test]
    fn batched_dispatch_matches_sequential_dispatch() {
        // The serial batched path (partition + per-shard process_batch)
        // must be observationally identical to per-packet dispatch.
        let trace = TraceGenerator::new(TraceProfile::Caida, 21).generate(1_200);
        let mut batched = sharded_hashflow(4, 128);
        let mut sequential = sharded_hashflow(4, 128);
        for chunk in trace.packets().chunks(171) {
            batched.process_batch(chunk);
        }
        batched.process_batch(&[]);
        for p in trace.packets() {
            sequential.process_packet(p);
        }
        let mut a = batched.flow_records();
        let mut b = sequential.flow_records();
        a.sort_by_key(|r| r.key());
        b.sort_by_key(|r| r.key());
        assert_eq!(a, b);
        assert_eq!(batched.cost(), sequential.cost());
    }

    #[test]
    fn single_shard_is_transparent() {
        // N = 1 must behave exactly like the bare monitor: identical
        // records.
        let trace = TraceGenerator::new(TraceProfile::Campus, 1).generate(800);
        let budget = MemoryBudget::from_kib(64).unwrap();
        let mut bare = HashFlow::with_memory(budget).unwrap();
        let mut sharded = sharded_hashflow(1, 64);
        bare.process_trace(trace.packets());
        sharded.ingest(trace.packets());
        let mut a = bare.flow_records();
        let mut b = sharded.flow_records();
        a.sort_by_key(|r| r.key());
        b.sort_by_key(|r| r.key());
        assert_eq!(a, b);
    }

    #[test]
    fn seal_epoch_drains_all_shards_into_one_report() {
        let mut m = sharded_hashflow(4, 256);
        for flow in 0..300u64 {
            m.process_packet(&pkt(flow, 10 + flow));
        }
        let report = m.seal_epoch();
        assert_eq!(report.records.len(), 300);
        assert_eq!(report.cost.packets, 300);
        assert!((report.cardinality - 300.0).abs() / 300.0 < 0.2);
        // Shards are reset; the next epoch starts clean.
        assert_eq!(m.flow_records().len(), 0);
        m.process_packet(&pkt(1, 1000));
        let next = m.seal_epoch();
        assert_eq!(next.records.len(), 1);
        // The trait-level seal is the same drain, indexed.
        m.process_packet(&pkt(7, 2000));
        let snapshot = m.seal();
        assert_eq!(snapshot.estimate_size(&FlowKey::from_index(7)), 1);
    }

    #[test]
    fn span_is_the_observed_min_and_max_exactly_as_the_rotator_reports() {
        use hashflow_monitor::EpochRotator;

        // The shard layer keeps no clock: a sharded pipeline's span is
        // the one its rotator observes. Neither the first packet of the
        // first batch nor the last of the last batch is an extreme.
        let timestamps = [500u64, 120, 900, 40, 700, 300, 880, 60];
        let packets: Vec<Packet> = (timestamps.iter().zip(0u64..))
            .map(|(&ts, i)| pkt(i % 3, ts))
            .collect();
        for shards in [1, 2] {
            for batch in [1, 3, packets.len()] {
                let mut rotator = EpochRotator::new(sharded_hashflow(shards, 64), u64::MAX);
                for chunk in packets.chunks(batch) {
                    rotator.process_batch(chunk);
                }
                let sealed = rotator.rotate_now();
                assert_eq!(
                    (sealed.start_ns(), sealed.end_ns()),
                    (Some(40), Some(900)),
                    "{shards} shard(s), batch {batch}"
                );
                assert_eq!(sealed.len(), 3, "{shards} shard(s), batch {batch}");
            }
        }
    }

    #[test]
    fn works_for_flowradar_too() {
        // The shard layer is generic: FlowRadar shards decode their own
        // partitions and the concatenation reports every flow.
        let mut m = ShardedMonitor::new(
            (0..4)
                .map(|_| FlowRadar::new(500, 0xf1).unwrap())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let trace = TraceGenerator::new(TraceProfile::Isp2, 5).generate(600);
        m.ingest(trace.packets());
        let records = m.flow_records();
        assert_eq!(records.len(), 600, "all flows decode under sharded load");
    }

    #[test]
    fn imbalance_reports_load_split() {
        let mut m = sharded_hashflow(4, 128);
        let trace = TraceGenerator::new(TraceProfile::Caida, 11).generate(3_000);
        let report = m.ingest(trace.packets());
        let imb = report.imbalance();
        assert!(imb >= 1.0);
        assert!(
            imb < 2.5,
            "hash dispatch should spread heavy-tailed load, got {imb}"
        );
        assert_eq!(
            IngestReport {
                packets: 0,
                per_shard_packets: vec![0, 0],
                elapsed_ns: 0,
                dropped_packets: 0,
            }
            .imbalance(),
            1.0
        );
    }

    #[test]
    fn metrics_account_for_every_packet_on_all_paths() {
        use hashflow_obs::MetricsRegistry;

        let registry = MetricsRegistry::new();
        let mut m = sharded_hashflow(4, 256);
        m.instrument(&Instruments {
            registry: Some(registry.clone()),
            ..Instruments::default()
        });
        let trace = TraceGenerator::new(TraceProfile::Caida, 9).generate(5_000);
        let expected = trace.packets().len() as u64 + 300 + 50;
        m.ingest(trace.packets()); // threaded path
        m.process_batch(&trace.packets()[..300]); // serial batched path
        for p in &trace.packets()[..50] {
            m.process_packet(p); // scalar dispatch path
        }
        m.seal_epoch();
        let snap = registry.snapshot();
        // Every packet of every path lands in exactly one shard counter.
        assert_eq!(snap.counter_sum("hashflow_shard_packets_total"), expected);
        // Every `process_batch` call recorded one dispatch split — the
        // serial batch and each of the 50 batches of one; the seal
        // recorded one merge and one seal duration.
        let hist_count = |name: &str| {
            snap.samples()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| match &s.value {
                    hashflow_obs::SampleValue::Histogram(h) => h.count,
                    _ => 0,
                })
                .sum::<u64>()
        };
        assert_eq!(hist_count("hashflow_shard_dispatch_ns"), 51);
        assert_eq!(hist_count("hashflow_shard_merge_ns"), 1);
        assert_eq!(hist_count("hashflow_shard_seal_ns"), 1);
        // The shard-queue ledger is registered: the threaded path offered
        // every one of its packets, nothing dropped, and the healthy
        // serial paths bypass the ledger entirely.
        assert_eq!(
            snap.counter(
                "hashflow_offered_records_total",
                &[("component", "shard_queue")]
            ),
            Some(trace.packets().len() as u64)
        );
        assert_eq!(
            snap.counter(
                "hashflow_dropped_records_total",
                &[("component", "shard_queue")]
            ),
            Some(0)
        );
        // Queue-depth gauges exist for every shard (back to 0 once the
        // scope joins and the queues drain).
        for i in 0..4 {
            assert_eq!(
                snap.gauge("hashflow_shard_queue_depth", &[("shard", &i.to_string())]),
                Some(0)
            );
        }
    }

    #[test]
    fn empty_shard_vector_rejected() {
        assert!(ShardedMonitor::<HashFlow>::new(Vec::new()).is_err());
        let budget = MemoryBudget::from_bytes(64).unwrap();
        assert!(
            ShardedMonitor::<HashFlow>::with_budget(0, budget, |_, b| HashFlow::with_memory(b))
                .is_err()
        );
    }

    use hashflow_monitor::CostRecorder;

    /// A monitor that panics exactly once (on the first packet after it
    /// is armed) and behaves as a packet counter afterwards — the
    /// recovery-capable chaos probe.
    #[derive(Default)]
    struct Bomb {
        armed: bool,
        cost: CostRecorder,
    }
    impl Bomb {
        fn armed() -> Self {
            Bomb {
                armed: true,
                cost: CostRecorder::default(),
            }
        }
    }
    impl FlowMonitor for Bomb {
        fn process_packet(&mut self, _p: &Packet) {
            if self.armed {
                self.armed = false;
                panic!("bomb in shard");
            }
            self.cost.start_packet();
        }
        fn flow_records(&self) -> Vec<FlowRecord> {
            Vec::new()
        }
        fn estimate_size(&self, _k: &FlowKey) -> u32 {
            0
        }
        fn estimate_cardinality(&self) -> f64 {
            0.0
        }
        fn memory_bits(&self) -> usize {
            0
        }
        fn name(&self) -> &'static str {
            "Bomb"
        }
        fn cost(&self) -> CostSnapshot {
            self.cost.snapshot()
        }
        fn reset(&mut self) {
            self.cost.reset();
        }
    }

    #[test]
    fn worker_panic_degrades_only_its_shard_and_recovers_at_the_seal() {
        // Both workers blow up on their first batch. Historically this
        // propagated the panic out of `ingest` (after closing the queues
        // so the dispatcher would not deadlock); now the call must
        // *complete*, account every lost packet, flag the sealed epoch
        // partial, and return the shards to service at the epoch
        // boundary.
        let mut m = ShardedMonitor::new((0..2).map(|_| Bomb::armed()).collect::<Vec<_>>()).unwrap();
        // Far more than QUEUE_DEPTH * BATCH_PACKETS per shard: a dead lane
        // that stopped popping would block the dispatcher forever.
        let packets: Vec<Packet> = (0..40_000u64).map(|i| pkt(i, i)).collect();
        let report = m.ingest(&packets);
        assert_eq!(report.packets, 40_000);
        assert_eq!(
            report.dropped_packets, 40_000,
            "every packet of a dead shard is accounted"
        );
        assert!(m.is_degraded());
        assert!(m
            .shard_faults()
            .iter()
            .all(|f| f.as_deref() == Some("bomb in shard")));
        let drops = m.queue_drop_stats();
        assert_eq!(drops.offered_records(), 40_000);
        assert_eq!(drops.delivered_records(), 0);

        // Degraded shards shed (and account) the serial paths too.
        m.process_packet(&pkt(1, 50_000));
        m.process_batch(&[pkt(2, 50_001), pkt(3, 50_002)]);
        assert_eq!(m.queue_drop_stats().dropped_records(), 40_003);

        // The seal ships what little it has, flagged partial, and the
        // clean reset recovers both shards.
        let sealed = m.seal_epoch();
        assert!(sealed.partial);
        assert!(sealed.records.is_empty());
        assert!(!m.is_degraded(), "clean reset returns shards to service");

        // Next epoch: the bombs are spent, ingest is healthy again.
        let next = m.ingest(&packets[..1_000]);
        assert_eq!(next.dropped_packets, 0);
        assert_eq!(m.cost().packets, 1_000);
        let sealed = m.seal_epoch();
        assert!(!sealed.partial);
    }

    #[test]
    fn a_degraded_shard_still_counts_the_packets_routed_to_it() {
        use hashflow_obs::MetricsRegistry;

        // `hashflow_shard_packets_total` is packets *routed* to the
        // shard on every path; what a degraded shard sheds is the
        // queue ledger's to report.
        let registry = MetricsRegistry::new();
        let mut m = ShardedMonitor::new(vec![Bomb::armed()]).unwrap();
        m.instrument(&Instruments {
            registry: Some(registry.clone()),
            ..Instruments::default()
        });
        let packets: Vec<Packet> = (0..10u64).map(|i| pkt(i, i)).collect();
        m.ingest(&packets); // the bomb goes off: 10 routed, 10 shed
        assert!(m.is_degraded());
        m.ingest(&packets[..4]); // degraded: 4 routed, 4 shed
        m.process_batch(&packets[..3]);
        m.process_packet(&packets[0]);
        let routed = registry
            .snapshot()
            .counter("hashflow_shard_packets_total", &[("shard", "0")]);
        assert_eq!(routed, Some(10 + 4 + 3 + 1));
        assert_eq!(
            m.queue_drop_stats().dropped_records(),
            18 - m.cost().packets,
            "the ledger holds what was routed and not processed"
        );
    }

    #[test]
    fn a_slow_shard_backpressures_the_dispatcher_and_loses_nothing() {
        use std::time::Duration;

        // A deliberately slow consumer: the dispatcher outruns it by far,
        // so it waits on the bounded queues — and sheds nothing.
        #[derive(Default)]
        struct Slow {
            cost: CostRecorder,
        }
        impl FlowMonitor for Slow {
            fn process_packet(&mut self, _p: &Packet) {
                self.cost.start_packet();
            }
            fn process_batch(&mut self, packets: &[Packet]) {
                std::thread::sleep(Duration::from_millis(2));
                for p in packets {
                    self.process_packet(p);
                }
            }
            fn flow_records(&self) -> Vec<FlowRecord> {
                Vec::new()
            }
            fn estimate_size(&self, _k: &FlowKey) -> u32 {
                0
            }
            fn estimate_cardinality(&self) -> f64 {
                0.0
            }
            fn memory_bits(&self) -> usize {
                0
            }
            fn name(&self) -> &'static str {
                "Slow"
            }
            fn cost(&self) -> CostSnapshot {
                self.cost.snapshot()
            }
            fn reset(&mut self) {
                self.cost.reset();
            }
        }

        let mut m =
            ShardedMonitor::new((0..2).map(|_| Slow::default()).collect::<Vec<_>>()).unwrap();
        let packets: Vec<Packet> = (0..60_000u64).map(|i| pkt(i, i)).collect();
        let report = m.ingest(&packets);
        let drops = m.queue_drop_stats();
        assert_eq!(drops.offered_records(), 60_000);
        assert_eq!((report.dropped_packets, drops.dropped_records()), (0, 0));
        assert_eq!(drops.delivered_records(), m.cost().packets);
        assert_eq!(m.cost().packets, 60_000);
        assert!(!m.is_degraded());
    }

    #[test]
    fn reset_restores_pristine_state() {
        let mut m = sharded_hashflow(2, 64);
        m.process_packet(&pkt(1, 5));
        m.seal_epoch();
        m.process_packet(&pkt(2, 6));
        m.reset();
        assert_eq!(m.flow_records().len(), 0);
        assert_eq!(m.cost().packets, 0);
        assert!(m.seal_epoch().records.is_empty());
    }
}
