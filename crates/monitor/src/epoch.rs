//! Measurement-epoch management.
//!
//! NetFlow-style collection runs in epochs: the switch accumulates
//! records for an interval, the collector drains them, and the tables are
//! cleared for the next interval. The paper's evaluation is single-epoch;
//! its conclusion lists "make it adaptive to traffic variation" as future
//! work — [`EpochRotator`] provides the epoch scaffolding any such policy
//! needs: time-based rotation driven by packet timestamps. It seals and
//! numbers each epoch and hands it on ([`EpochRotator::drain_completed`]);
//! what happens to a sealed epoch next — export to the sinks, the
//! `epoch_sealed` event, the introspection gauges, the tracer's seal
//! spans, the query plans and the retained history — is the
//! `hashflow-collector` facade's.
//!
//! # Rotation contract
//!
//! The rotation rule is pinned down precisely, because collectors
//! disagree on the edge cases and silent differences corrupt epoch
//! accounting:
//!
//! 1. **Epochs are anchored per epoch, not globally.** The first packet
//!    of an epoch sets its base timestamp `base`; the epoch covers the
//!    half-open window `[base, base + epoch_len_ns)`.
//! 2. **The edge belongs to the next epoch.** A packet with timestamp
//!    exactly `base + epoch_len_ns` seals the current epoch first and is
//!    then counted in the new epoch (the window is half-open).
//! 3. **Quiet gaps produce no empty epochs.** A packet arriving several
//!    epoch lengths after `base` triggers exactly one rotation; the new
//!    epoch re-anchors at that packet's timestamp. Epoch sequence
//!    numbers therefore count *sealed* epochs, not elapsed wall-clock
//!    windows.
//! 4. **Out-of-order timestamps never rotate.** A packet with a
//!    timestamp before `base` (late arrival, clock skew) is counted in
//!    the **current** epoch: rotation only ever moves forward, and the
//!    epoch's reported `start_ns`/`end_ns` span the *observed* min/max
//!    timestamps, which may extend before `base`.

use crate::{
    merge_introspection, BatchPlan, BatchPlanner, CostSnapshot, EpochSnapshot, FlowMonitor,
    Instruments, IntrospectMetric, PipelineMetrics, SCALAR_FLUSH_PACKETS,
};
use hashflow_obs::{FlightRecorder, Severity};
use hashflow_types::{FlowKey, FlowRecord, Packet};

/// One epoch's drained records and bookkeeping as plain, mutable data —
/// the form per-shard drains are merged in ([`EpochReport::merged`])
/// before [`EpochReport::into_snapshot`] freezes the result into the
/// shared [`EpochSnapshot`] every downstream consumer holds
/// ([`EpochSnapshot::into_report`] goes back).
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch sequence number, starting at 0.
    pub epoch: u64,
    /// Timestamp (ns) of the first packet in the epoch, if any.
    pub start_ns: Option<u64>,
    /// Timestamp (ns) of the last packet in the epoch, if any.
    pub end_ns: Option<u64>,
    /// Flow records drained from the monitor at rotation.
    pub records: Vec<FlowRecord>,
    /// Estimated distinct flows in the epoch.
    pub cardinality: f64,
    /// Cost counters accumulated during the epoch.
    pub cost: CostSnapshot,
    /// Whether data contributing to this epoch is known to be missing
    /// (e.g. a shard worker panicked mid-epoch). Merges propagate the
    /// flag: a merged report is partial if any contributing shard was.
    pub partial: bool,
    /// Structure-internal saturation report captured when the epoch was
    /// sealed ([`crate::FlowMonitor::introspection`]); empty for monitors
    /// without introspection. Merges fold per-shard reports
    /// ([`merge_introspection`]).
    pub introspection: Vec<IntrospectMetric>,
}

impl EpochReport {
    /// Folds per-shard reports of the *same* epoch into one collector-side
    /// report: records concatenate (RSS partitions are disjoint, so no key
    /// appears twice) and costs sum. The merge reports epoch 0 and no
    /// span, like any monitor's seal: numbering an epoch and stamping its
    /// span is the rotation layer's job ([`EpochRotator`]).
    ///
    /// `cardinality` is supplied by the caller, the sum of the estimates
    /// of the shards that sealed.
    pub fn merged(reports: Vec<EpochReport>, cardinality: f64) -> EpochReport {
        let cost = CostSnapshot::sum(reports.iter().map(|r| &r.cost));
        let partial = reports.iter().any(|r| r.partial);
        let mut shard_introspection = Vec::with_capacity(reports.len());
        let mut records = Vec::new();
        for r in reports {
            shard_introspection.push(r.introspection);
            if records.is_empty() {
                // The first non-empty partition becomes the merged store
                // as it is; a one-shard merge copies nothing.
                records = r.records;
            } else {
                records.extend(r.records);
            }
        }
        let introspection = merge_introspection(&shard_introspection);
        EpochReport {
            epoch: 0,
            start_ns: None,
            end_ns: None,
            records,
            cardinality,
            cost,
            partial,
            introspection,
        }
    }

    /// Converts the report into the sealed query engine: an
    /// [`EpochSnapshot`] answering the four §IV-A queries (iterator
    /// records, batched size estimation, bounded-heap top-k) over this
    /// epoch's records. The records move into the snapshot's shared
    /// store uncopied and unhashed: freezing costs nothing, and the
    /// size-query index is built by the snapshot's first size query.
    pub fn into_snapshot(self) -> EpochSnapshot {
        EpochSnapshot::from_parts(
            self.epoch,
            self.start_ns,
            self.end_ns,
            self.records,
            self.cardinality,
            self.cost,
        )
        .with_partial(self.partial)
        .with_introspection(self.introspection)
    }
}

/// Wraps any [`FlowMonitor`] with fixed-length measurement epochs.
///
/// Packets are routed to the inner monitor; when a packet's timestamp
/// crosses the epoch boundary, the monitor is drained into an
/// [`EpochReport`] and reset before the packet is processed (see the
/// module docs above for the precise rotation contract). Queries
/// always reflect the *current* epoch. Each sealed epoch waits, as an
/// [`EpochSnapshot`] numbered and stamped with its span, in
/// [`Self::completed_epochs`] until the driving loop drains it — the
/// `Collector` does after every call, then exports it to its sinks.
///
/// # Examples
///
/// ```
/// use hashflow_core::HashFlow;
/// use hashflow_monitor::{EpochRotator, FlowMonitor, MemoryBudget};
/// use hashflow_types::{FlowKey, Packet};
///
/// let inner = HashFlow::with_memory(MemoryBudget::from_kib(32)?)?;
/// let mut rotator = EpochRotator::new(inner, 1_000_000); // 1 ms epochs
/// for t in 0..10u64 {
///     rotator.process_packet(&Packet::new(FlowKey::from_index(1), t * 300_000, 64));
/// }
/// // Packets spanned ~3 ms: at least two epochs have been sealed.
/// assert!(rotator.completed_epochs().len() >= 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct EpochRotator<M> {
    inner: M,
    epoch_len_ns: u64,
    current_epoch: u64,
    epoch_base_ns: Option<u64>,
    first_ns: Option<u64>,
    last_ns: Option<u64>,
    /// Epochs sealed and not yet drained, oldest first; unbounded, so
    /// whoever drives the rotator drains it.
    completed: Vec<EpochSnapshot>,
    /// Ingest metric handles, resolved once from the registry given to
    /// [`FlowMonitor::instrument`].
    metrics: Option<PipelineMetrics>,
    /// Where `rotation_gap` events go.
    recorder: Option<FlightRecorder>,
    // Packet/byte counts accumulated locally and flushed to the shared
    // atomic counters per batch (or per SCALAR_FLUSH_PACKETS packets on
    // the scalar path), keeping instrumentation off the per-packet path.
    pending_packets: u64,
    pending_bytes: u64,
}

impl<M: std::fmt::Debug> std::fmt::Debug for EpochRotator<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochRotator")
            .field("inner", &self.inner)
            .field("epoch_len_ns", &self.epoch_len_ns)
            .field("current_epoch", &self.current_epoch)
            .field("epoch_base_ns", &self.epoch_base_ns)
            .field("completed", &self.completed.len())
            .finish_non_exhaustive()
    }
}

impl<M: FlowMonitor> EpochRotator<M> {
    /// Wraps `inner` with epochs of `epoch_len_ns` nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len_ns == 0`.
    pub fn new(inner: M, epoch_len_ns: u64) -> Self {
        assert!(epoch_len_ns > 0, "epoch length must be positive");
        EpochRotator {
            inner,
            epoch_len_ns,
            current_epoch: 0,
            epoch_base_ns: None,
            first_ns: None,
            last_ns: None,
            completed: Vec::new(),
            metrics: None,
            recorder: None,
            pending_packets: 0,
            pending_bytes: 0,
        }
    }

    /// Pushes locally accumulated packet/byte counts into the shared
    /// counters, so a registry snapshot taken mid-epoch is current.
    /// Called automatically at batch boundaries and rotations.
    pub fn flush_metrics(&mut self) {
        if let Some(m) = &self.metrics {
            if self.pending_packets > 0 {
                m.packets.add(self.pending_packets);
                m.bytes.add(self.pending_bytes);
                self.pending_packets = 0;
                self.pending_bytes = 0;
            }
        }
    }

    /// The wrapped monitor (current-epoch state).
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Ends the collection run: seals the running epoch into
    /// [`Self::completed_epochs`] if it holds any packet, marked
    /// [partial](EpochSnapshot::is_partial) — the run cut it short, not
    /// its edge. After an explicit [`Self::rotate_now`] nothing is
    /// running and nothing more is sealed.
    pub fn finish(&mut self) {
        if self.first_ns.is_some() {
            self.rotate(true);
        }
    }

    /// Epoch length in nanoseconds.
    pub const fn epoch_len_ns(&self) -> u64 {
        self.epoch_len_ns
    }

    /// Every epoch sealed so far and not yet drained, oldest first. Each
    /// entry shares its record store and (lazily built) index with the
    /// snapshot the seal returned. The store is **unbounded**: a long
    /// run whose driving loop never calls [`Self::drain_completed`] keeps
    /// every epoch's records alive (the `Collector` drains it after every
    /// call that can seal, and bounds what it keeps).
    pub fn completed_epochs(&self) -> &[EpochSnapshot] {
        &self.completed
    }

    /// Seals the current epoch immediately (end-of-capture flush),
    /// retains it in [`Self::completed_epochs`] and returns it. Both hold
    /// the same record store and the same index slot: the records are
    /// copied once, out of the monitor's tables, and indexed at most
    /// once — by whichever holder first asks a size query, never here.
    ///
    /// Rotation drains the monitor through its own [`FlowMonitor::seal`]
    /// hook at **every** epoch boundary, not just explicit seals. For
    /// monitors with the default `seal` (capture + reset) this is the
    /// same drain as reading the report and resetting.
    pub fn rotate_now(&mut self) -> EpochSnapshot {
        self.rotate(false)
    }

    /// The one seal: numbers and stamps the drained epoch, marks it
    /// partial when the run `truncated` it (a flag the monitor may
    /// already have set stays set), counts it and hands it to the
    /// completed store.
    fn rotate(&mut self, truncated: bool) -> EpochSnapshot {
        self.flush_metrics();
        let snapshot = (self.inner.seal())
            .with_epoch_span(self.current_epoch, self.first_ns, self.last_ns)
            .with_partial(truncated);
        if let Some(m) = &self.metrics {
            m.epochs_sealed.inc();
        }
        self.completed.push(snapshot.clone());
        self.current_epoch += 1;
        self.epoch_base_ns = None;
        self.first_ns = None;
        self.last_ns = None;
        snapshot
    }

    /// Drains [`Self::completed_epochs`], leaving the current epoch
    /// running. The completed store grows without bound until this is
    /// called.
    pub fn drain_completed(&mut self) -> Vec<EpochSnapshot> {
        std::mem::take(&mut self.completed)
    }

    /// Records a rotation-gap event: the boundary packet skipped at
    /// least one whole quiet window beyond the epoch it sealed.
    fn note_rotation_gap(&self, base: u64, ts: u64) {
        if let Some(recorder) = &self.recorder {
            recorder.record_with(
                Severity::Warn,
                "rotation_gap",
                format!(
                    "quiet gap of {} ns before epoch {} sealed",
                    ts.saturating_sub(base),
                    self.current_epoch
                ),
                vec![("epoch".to_string(), self.current_epoch.to_string())],
            );
        }
    }

    /// The epoch-edge rule, stated once for both ingestion entries. The
    /// first packet ever anchors the epoch. After that the window is
    /// half-open, `[base, base + len)`: a timestamp at or past the edge
    /// rotates — one before `base` (an out-of-order arrival) never does,
    /// time only moves forward — and a boundary packet a whole quiet
    /// window or more past that edge is a rotation gap. `before`, what the
    /// caller has scanned but not yet fed (nothing, on the scalar entry),
    /// belongs to the closing epoch and is ingested ahead of the seal; the
    /// new epoch is anchored at the boundary packet. Returns whether it
    /// rotated.
    #[inline]
    fn rotate_if_due(&mut self, ts: u64, before: &[Packet]) -> bool {
        let Some(base) = self.epoch_base_ns else {
            self.epoch_base_ns = Some(ts);
            return false;
        };
        let due = ts >= base.saturating_add(self.epoch_len_ns);
        if due {
            if ts >= base.saturating_add(self.epoch_len_ns.saturating_mul(2)) {
                if let Some(m) = &self.metrics {
                    m.rotation_gaps.inc();
                }
                self.note_rotation_gap(base, ts);
            }
            self.ingest_run(before, span(before), None);
            self.rotate_now();
            self.epoch_base_ns = Some(ts);
        }
        due
    }

    /// Feeds one rotation-free run of packets to the inner monitor's
    /// batched hot path — planned by `plan` when the run is a whole
    /// planned batch — folding the run's [`span`] into the epoch's
    /// `start_ns`/`end_ns` first (so a rotation immediately after reports
    /// the same span the per-packet path would have).
    fn ingest_run(&mut self, run: &[Packet], (first, last): (u64, u64), plan: Option<&BatchPlan>) {
        if run.is_empty() {
            return;
        }
        self.first_ns = Some(self.first_ns.map_or(first, |x| x.min(first)));
        self.last_ns = Some(self.last_ns.map_or(last, |x| x.max(last)));
        match plan {
            Some(plan) => self.inner.process_planned(run, plan),
            None => self.inner.process_batch(run),
        }
    }

    /// The batch path for a batch that may cross an epoch edge: every
    /// packet is tested against the edge, and each rotation-free run
    /// between edges goes to [`Self::ingest_run`]. Only a batch that stays
    /// whole — it anchored an epoch, or its first packet rotated —
    /// keeps the inner monitor's `plan`; the runs of a batch split at an
    /// edge are planned in place.
    fn ingest_across_edges(&mut self, packets: &[Packet], plan: Option<&BatchPlan>) {
        let mut start = 0usize;
        for (i, p) in packets.iter().enumerate() {
            if self.rotate_if_due(p.timestamp_ns(), &packets[start..i]) {
                start = i;
            }
        }
        let plan = plan.filter(|_| start == 0);
        self.ingest_run(&packets[start..], span(&packets[start..]), plan);
    }

    /// The one batch body, on a batch's [`BatchFold`] and, when it was
    /// planned, the inner monitor's `plan`: a batch that stays inside the
    /// running epoch goes whole to [`Self::ingest_run`]; only one that
    /// reaches the epoch edge (or is the first ever) is scanned packet by
    /// packet for where to rotate.
    fn ingest_batch(&mut self, packets: &[Packet], fold: BatchFold, plan: Option<&BatchPlan>) {
        match self.epoch_base_ns {
            Some(base) if fold.span.1 < base.saturating_add(self.epoch_len_ns) => {
                self.ingest_run(packets, fold.span, plan);
            }
            _ => self.ingest_across_edges(packets, plan),
        }
        if let Some(m) = &self.metrics {
            m.batches.inc();
            self.pending_packets += packets.len() as u64;
            self.pending_bytes += fold.bytes;
            self.flush_metrics();
        }
    }
}

/// The observed timestamp span `(min, max)` of a run of packets, whatever
/// order they arrived in.
fn span(packets: &[Packet]) -> (u64, u64) {
    packets.iter().fold((u64::MAX, 0), |(first, last), p| {
        (first.min(p.timestamp_ns()), last.max(p.timestamp_ns()))
    })
}

/// What the rotation layer folds out of a batch before routing it: its
/// timestamp [`span`] and its wire bytes (0 when no registry counts them).
#[derive(Clone, Copy, Debug, Default)]
struct BatchFold {
    span: (u64, u64),
    bytes: u64,
}

impl BatchFold {
    fn of(packets: &[Packet], count_bytes: bool) -> BatchFold {
        BatchFold {
            span: span(packets),
            bytes: if count_bytes {
                packets.iter().map(|p| u64::from(p.wire_len())).sum()
            } else {
                0
            },
        }
    }
}

/// An [`EpochRotator`]'s plan: the batch's row count and [`BatchFold`],
/// around the inner monitor's plan.
#[derive(Debug, Default)]
struct RotatorPlan {
    rows: usize,
    fold: BatchFold,
    inner: BatchPlan,
}

/// An [`EpochRotator`]'s [`BatchPlanner`]: folds the batch, then plans it
/// with the inner monitor's planner.
struct RotatorPlanner(Box<dyn BatchPlanner>);

impl BatchPlanner for RotatorPlanner {
    fn plan(&self, packets: &[Packet], plan: &mut BatchPlan) {
        let plan = plan.refill::<RotatorPlan>();
        plan.rows = packets.len();
        plan.fold = BatchFold::of(packets, true);
        self.0.plan(packets, &mut plan.inner);
    }
}

impl<M: FlowMonitor> FlowMonitor for EpochRotator<M> {
    /// Routes one packet, rotating first when its timestamp reaches the
    /// epoch edge. See the module docs for the exact boundary rules
    /// (half-open window, forward-only rotation, per-epoch anchoring).
    fn process_packet(&mut self, packet: &Packet) {
        let ts = packet.timestamp_ns();
        self.rotate_if_due(ts, &[]);
        // The reported span covers *observed* timestamps: late arrivals
        // may extend start_ns before the epoch base.
        self.first_ns = Some(self.first_ns.map_or(ts, |f| f.min(ts)));
        self.last_ns = Some(self.last_ns.map_or(ts, |l| l.max(ts)));
        if self.metrics.is_some() {
            self.pending_packets += 1;
            self.pending_bytes += u64::from(packet.wire_len());
            if self.pending_packets >= SCALAR_FLUSH_PACKETS {
                self.flush_metrics();
            }
        }
        self.inner.process_packet(packet);
    }

    /// Batched ingestion with the rotation contract preserved: the batch
    /// is split at epoch boundaries and every rotation-free sub-slice
    /// flows through the inner monitor's own [`FlowMonitor::process_batch`]
    /// — so a rotator (and therefore the `Collector` facade) keeps the
    /// wrapped monitor's batched hot path (hash-lane precompute, software
    /// prefetch, threaded shard dispatch) instead of degrading to the
    /// scalar loop. Observationally identical to routing every packet
    /// through [`Self::process_packet`].
    fn process_batch(&mut self, packets: &[Packet]) {
        let fold = BatchFold::of(packets, self.metrics.is_some());
        self.ingest_batch(packets, fold, None);
    }

    /// The inner monitor's planner with the batch's span and bytes folded
    /// in front; `None` when the inner monitor plans nothing.
    fn planner(&self) -> Option<Box<dyn BatchPlanner>> {
        let inner = self.inner.planner()?;
        Some(Box::new(RotatorPlanner(inner)))
    }

    /// [`Self::process_batch`] on the fold the plan carries; the inner
    /// monitor checks its own part. A plan of another type or row count
    /// is ignored.
    fn process_planned(&mut self, packets: &[Packet], plan: &BatchPlan) {
        match plan.get::<RotatorPlan>() {
            Some(planned) if planned.rows == packets.len() => {
                self.ingest_batch(packets, planned.fold, Some(&planned.inner));
            }
            _ => self.process_batch(packets),
        }
    }

    fn flow_records(&self) -> Vec<FlowRecord> {
        self.inner.flow_records()
    }

    fn estimate_size(&self, key: &FlowKey) -> u32 {
        self.inner.estimate_size(key)
    }

    fn estimate_cardinality(&self) -> f64 {
        self.inner.estimate_cardinality()
    }

    fn memory_bits(&self) -> usize {
        self.inner.memory_bits()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cost(&self) -> CostSnapshot {
        self.inner.cost()
    }

    fn introspection(&self) -> Vec<IntrospectMetric> {
        self.inner.introspection()
    }

    /// Wires the rotation layer, then forwards inward. With a registry:
    /// the `hashflow_ingest_*`, `hashflow_epochs_sealed_total` and
    /// `hashflow_rotation_gaps_total` counters. With a
    /// recorder: `rotation_gap` events. The tracer only reaches the inner
    /// monitor.
    fn instrument(&mut self, instruments: &Instruments) {
        self.metrics = instruments.registry.as_ref().map(PipelineMetrics::register);
        self.recorder = instruments.recorder.clone();
        self.inner.instrument(instruments);
    }

    fn reset(&mut self) {
        self.flush_metrics();
        self.inner.reset();
        self.current_epoch = 0;
        self.epoch_base_ns = None;
        self.first_ns = None;
        self.last_ns = None;
        self.completed.clear();
    }

    /// Seals the *current epoch* (numbering it like any other boundary)
    /// rather than capture-and-wipe: sealed history in
    /// [`Self::completed_epochs`] is preserved and the epoch counter
    /// advances.
    fn seal(&mut self) -> crate::EpochSnapshot {
        self.rotate_now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostRecorder;
    use std::collections::HashMap;

    /// Minimal exact monitor for rotator tests.
    #[derive(Default, Debug, Clone)]
    struct Exact {
        flows: HashMap<FlowKey, u32>,
        cost: CostRecorder,
    }

    impl FlowMonitor for Exact {
        fn process_packet(&mut self, packet: &Packet) {
            self.cost.start_packet();
            *self.flows.entry(packet.key()).or_insert(0) += 1;
        }
        fn flow_records(&self) -> Vec<FlowRecord> {
            self.flows
                .iter()
                .map(|(k, c)| FlowRecord::new(*k, *c))
                .collect()
        }
        fn estimate_size(&self, key: &FlowKey) -> u32 {
            self.flows.get(key).copied().unwrap_or(0)
        }
        fn estimate_cardinality(&self) -> f64 {
            self.flows.len() as f64
        }
        fn memory_bits(&self) -> usize {
            0
        }
        fn name(&self) -> &'static str {
            "Exact"
        }
        fn cost(&self) -> CostSnapshot {
            self.cost.snapshot()
        }
        fn reset(&mut self) {
            self.flows.clear();
            self.cost.reset();
        }
    }

    fn pkt(flow: u64, ts: u64) -> Packet {
        Packet::new(FlowKey::from_index(flow), ts, 64)
    }

    /// A rotator over `Exact` registered in `registry`.
    fn metered(epoch_len_ns: u64, registry: &hashflow_obs::MetricsRegistry) -> EpochRotator<Exact> {
        let mut r = EpochRotator::new(Exact::default(), epoch_len_ns);
        r.instrument(&Instruments {
            registry: Some(registry.clone()),
            ..Instruments::default()
        });
        r
    }

    /// One shard's plain report, for the merge tests.
    fn report(records: Vec<FlowRecord>, span: Option<(u64, u64)>) -> EpochReport {
        EpochReport {
            epoch: 0,
            start_ns: span.map(|(start, _)| start),
            end_ns: span.map(|(_, end)| end),
            cardinality: records.len() as f64,
            cost: CostSnapshot {
                packets: records.iter().map(|r| u64::from(r.count())).sum(),
                ..CostSnapshot::default()
            },
            records,
            partial: false,
            introspection: Vec::new(),
        }
    }

    #[test]
    fn rotates_on_boundary() {
        let mut r = EpochRotator::new(Exact::default(), 1_000);
        r.process_packet(&pkt(1, 0));
        r.process_packet(&pkt(1, 999)); // same epoch
        assert!(r.completed_epochs().is_empty());
        r.process_packet(&pkt(2, 1_000)); // crosses
        assert_eq!(r.completed_epochs().len(), 1);
        let sealed = &r.completed_epochs()[0];
        assert_eq!(sealed.epoch(), 0);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed.as_records()[0].count(), 2);
        assert_eq!(sealed.start_ns(), Some(0));
        assert_eq!(sealed.end_ns(), Some(999));
        // Current epoch sees only flow 2.
        assert_eq!(r.estimate_size(&FlowKey::from_index(1)), 0);
        assert_eq!(r.estimate_size(&FlowKey::from_index(2)), 1);
    }

    #[test]
    fn epochs_are_time_anchored_per_epoch() {
        // Epoch base resets to the first packet after rotation, so quiet
        // gaps do not produce empty epochs.
        let mut r = EpochRotator::new(Exact::default(), 100);
        r.process_packet(&pkt(1, 0));
        r.process_packet(&pkt(1, 10_000)); // long gap: one rotation only
        assert_eq!(r.completed_epochs().len(), 1);
        r.process_packet(&pkt(1, 10_050)); // still in the new epoch
        assert_eq!(r.completed_epochs().len(), 1);
    }

    #[test]
    fn rotate_now_flushes() {
        let mut r = EpochRotator::new(Exact::default(), u64::MAX);
        r.process_packet(&pkt(1, 5));
        let report = r.rotate_now();
        assert_eq!(report.len(), 1);
        assert_eq!(report.cardinality(), 1.0);
        assert_eq!(r.flow_records().len(), 0);
        assert_eq!(r.completed_epochs().len(), 1);
    }

    #[test]
    fn drain_takes_reports() {
        let mut r = EpochRotator::new(Exact::default(), 10);
        for t in 0..5 {
            r.process_packet(&pkt(t, t * 10));
        }
        let drained = r.drain_completed();
        assert_eq!(drained.len(), 4);
        assert!(r.completed_epochs().is_empty());
    }

    #[test]
    fn reset_clears_history() {
        let mut r = EpochRotator::new(Exact::default(), 10);
        r.process_packet(&pkt(1, 0));
        r.process_packet(&pkt(1, 50));
        r.reset();
        assert!(r.completed_epochs().is_empty());
        assert_eq!(r.flow_records().len(), 0);
        assert_eq!(r.epoch_len_ns(), 10);
        assert_eq!(r.inner().flows.len(), 0);
    }

    #[test]
    #[should_panic(expected = "epoch length")]
    fn zero_epoch_rejected() {
        let _ = EpochRotator::new(Exact::default(), 0);
    }

    #[test]
    fn merged_report_unions_shard_reports() {
        let a = report(
            vec![FlowRecord::new(FlowKey::from_index(1), 2)],
            Some((10, 30)),
        );
        let b = report(
            vec![FlowRecord::new(FlowKey::from_index(2), 1)],
            Some((5, 5)),
        );
        let merged = EpochReport::merged(vec![a, b], 2.0);
        assert_eq!(merged.records.len(), 2);
        assert_eq!(merged.cost.packets, 3);
        assert_eq!(merged.cardinality, 2.0);
        // Numbering and the span are the rotator's to stamp.
        assert_eq!(
            (merged.epoch, merged.start_ns, merged.end_ns),
            (0, None, None)
        );
    }

    #[test]
    fn merged_report_of_nothing_is_empty() {
        let merged = EpochReport::merged(Vec::new(), 0.0);
        assert!(merged.records.is_empty());
        assert_eq!(merged.start_ns, None);
        assert_eq!(merged.cost, CostSnapshot::default());
    }

    #[test]
    fn edge_timestamp_belongs_to_the_next_epoch() {
        // Contract rule 2: the window is half-open; ts == base + len
        // seals the old epoch and is counted in the new one.
        let mut r = EpochRotator::new(Exact::default(), 1_000);
        r.process_packet(&pkt(1, 100)); // base = 100
        r.process_packet(&pkt(1, 1_099)); // inside [100, 1100)
        assert!(r.completed_epochs().is_empty());
        r.process_packet(&pkt(2, 1_100)); // exactly on the edge
        assert_eq!(r.completed_epochs().len(), 1);
        let sealed = &r.completed_epochs()[0];
        assert_eq!(sealed.len(), 1, "edge packet not in old epoch");
        assert_eq!(sealed.end_ns(), Some(1_099));
        assert_eq!(r.estimate_size(&FlowKey::from_index(2)), 1);
    }

    #[test]
    fn out_of_order_timestamps_never_rotate() {
        // Contract rule 4: late arrivals join the current epoch; rotation
        // only moves forward.
        let mut r = EpochRotator::new(Exact::default(), 1_000);
        r.process_packet(&pkt(1, 500)); // base = 500
        r.process_packet(&pkt(2, 120)); // late arrival, before the base
        r.process_packet(&pkt(3, 499));
        assert!(r.completed_epochs().is_empty(), "no backward rotation");
        // The observed span extends before the epoch base...
        let report = r.rotate_now();
        assert_eq!(report.start_ns(), Some(120));
        assert_eq!(report.end_ns(), Some(500));
        // ... and all three packets are in the sealed epoch.
        assert_eq!(report.len(), 3);
        // A late arrival also must not drag the *next* epoch's boundary
        // backwards: after re-anchoring at 2_000, a packet at 1_999 is
        // late (joins the epoch), and the boundary stays 2_000 + len.
        r.process_packet(&pkt(1, 2_000));
        r.process_packet(&pkt(2, 1_999));
        r.process_packet(&pkt(3, 2_999)); // < 3_000: still inside
        assert_eq!(r.completed_epochs().len(), 1);
        r.process_packet(&pkt(4, 3_000)); // edge of [2000, 3000)
        assert_eq!(r.completed_epochs().len(), 2);
        assert_eq!(r.completed_epochs()[1].start_ns(), Some(1_999));
    }

    #[test]
    fn span_covers_observed_min_and_max() {
        // end_ns is the max observed timestamp, not the last observed.
        let mut r = EpochRotator::new(Exact::default(), u64::MAX);
        r.process_packet(&pkt(1, 50));
        r.process_packet(&pkt(1, 400));
        r.process_packet(&pkt(1, 200)); // out of order, below the max
        let report = r.rotate_now();
        assert_eq!(report.start_ns(), Some(50));
        assert_eq!(report.end_ns(), Some(400));
    }

    #[test]
    fn merged_report_propagates_the_partial_flag() {
        let clean = EpochReport::merged(vec![report(Vec::new(), None)], 0.0);
        assert!(!clean.partial);
        let mut degraded = report(Vec::new(), None);
        degraded.partial = true;
        let merged = EpochReport::merged(vec![report(Vec::new(), None), degraded], 0.0);
        assert!(merged.partial, "any partial shard taints the merge");
        assert!(merged.into_snapshot().is_partial(), "snapshot carries it");
    }

    #[test]
    fn batched_rotation_matches_per_packet_rotation() {
        // The process_batch override must produce the same epochs —
        // numbers, spans, records, costs — as per-packet routing, for
        // batches that straddle boundaries, contain several boundaries,
        // and include out-of-order timestamps.
        let timestamps: Vec<u64> = vec![
            0, 40, 99, 100, 150, 90, 260, 255, 400, 401, 399, 950, 1000, 1001,
        ];
        let packets: Vec<Packet> = timestamps
            .iter()
            .enumerate()
            .map(|(i, &ts)| pkt(i as u64 % 5, ts))
            .collect();
        for batch_size in [1usize, 3, 5, packets.len()] {
            let mut scalar = EpochRotator::new(Exact::default(), 100);
            let mut batched = EpochRotator::new(Exact::default(), 100);
            for p in &packets {
                scalar.process_packet(p);
            }
            for chunk in packets.chunks(batch_size) {
                batched.process_batch(chunk);
            }
            batched.process_batch(&[]); // empty batches are no-ops
            scalar.rotate_now();
            batched.rotate_now();
            let a = scalar.completed_epochs();
            let b = batched.completed_epochs();
            assert_eq!(a.len(), b.len(), "epoch count @ batch {batch_size}");
            for (ea, eb) in a.iter().zip(b) {
                assert_eq!(ea.epoch(), eb.epoch());
                assert_eq!(ea.start_ns(), eb.start_ns(), "epoch {} start", ea.epoch());
                assert_eq!(ea.end_ns(), eb.end_ns(), "epoch {} end", ea.epoch());
                assert_eq!(ea.cost(), eb.cost());
                let mut ra = ea.as_records().to_vec();
                let mut rb = eb.as_records().to_vec();
                ra.sort_unstable_by_key(|r| (r.key(), r.count()));
                rb.sort_unstable_by_key(|r| (r.key(), r.count()));
                assert_eq!(ra, rb, "epoch {} records @ batch {batch_size}", ea.epoch());
            }
        }
    }

    #[test]
    fn batch_shape_never_moves_an_epoch_edge() {
        // The span pre-scan must send exactly the batches that reach the
        // edge down the per-packet path: the same packets as one batch, as
        // batches of one, and cut right before and right after the packet
        // on the edge (ts 100) seal the same epochs.
        let packets: Vec<Packet> = [0u64, 60, 99, 100, 130, 50, 199, 200, 201]
            .iter()
            .enumerate()
            .map(|(i, &ts)| pkt(i as u64 % 3, ts))
            .collect();
        let epochs = |cuts: &[usize]| {
            let mut rotator = EpochRotator::new(Exact::default(), 100);
            let mut rest = packets.as_slice();
            for &cut in cuts {
                let (batch, tail) = rest.split_at(cut);
                rotator.process_batch(batch);
                rest = tail;
            }
            rotator.process_batch(rest);
            rotator.rotate_now();
            let sealed: Vec<_> = rotator
                .completed_epochs()
                .iter()
                .map(|e| {
                    let mut records = e.as_records().to_vec();
                    records.sort_unstable_by_key(|r| (r.key(), r.count()));
                    (e.epoch(), e.start_ns(), e.end_ns(), *e.cost(), records)
                })
                .collect();
            sealed
        };
        let whole = epochs(&[]);
        assert_eq!(whole.len(), 3, "edges at ts 100 and ts 200");
        assert_eq!(whole[0].1..=whole[0].2, Some(0)..=Some(99));
        assert_eq!(whole[1].1..=whole[1].2, Some(50)..=Some(199));
        assert_eq!(epochs(&[1; 8]), whole, "batches of one");
        assert_eq!(epochs(&[3]), whole, "cut before the edge packet");
        assert_eq!(epochs(&[4]), whole, "cut after the edge packet");
        assert_eq!(epochs(&[3, 1]), whole, "the edge packet on its own");
    }

    #[test]
    fn seal_rotates_through_the_pipeline() {
        let mut r = EpochRotator::new(Exact::default(), u64::MAX);
        r.process_packet(&pkt(1, 10));
        r.process_packet(&pkt(1, 20));
        let snapshot = r.seal();
        assert_eq!(snapshot.epoch(), 0);
        assert_eq!(snapshot.len(), 1);
        assert_eq!(snapshot.estimate_size(&FlowKey::from_index(1)), 2);
        assert_eq!(snapshot.start_ns(), Some(10));
        // seal() preserved history (unlike a bare capture-and-wipe).
        assert_eq!(r.completed_epochs().len(), 1);
        r.process_packet(&pkt(2, 30));
        assert_eq!(r.seal().epoch(), 1);
    }

    #[test]
    fn metrics_track_ingest_seals_and_gaps() {
        use hashflow_obs::MetricsRegistry;

        let registry = MetricsRegistry::new();
        let mut r = metered(1_000, &registry);
        // Scalar path: 3 packets in epoch 0, then a quiet gap of several
        // windows (one rotation, one gap), then a boundary rotation
        // (no gap).
        r.process_packet(&pkt(1, 0));
        r.process_packet(&pkt(1, 10));
        r.process_packet(&pkt(2, 999));
        r.process_packet(&pkt(2, 50_000)); // gap: skipped many windows
        r.process_packet(&pkt(3, 51_000)); // plain boundary rotation
                                           // Batched path: one batch crossing one boundary.
        r.process_batch(&[pkt(4, 51_100), pkt(4, 52_000), pkt(5, 52_100)]);
        r.rotate_now();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("hashflow_ingest_packets_total", &[]), Some(8));
        assert_eq!(
            snap.counter("hashflow_ingest_bytes_total", &[]),
            Some(8 * 64)
        );
        assert_eq!(snap.counter("hashflow_epochs_sealed_total", &[]), Some(4));
        assert_eq!(snap.counter("hashflow_rotation_gaps_total", &[]), Some(1));
        assert_eq!(snap.counter("hashflow_ingest_batches_total", &[]), Some(1));
        // Un-flushed scalar counts appear after the next flush point.
        r.process_packet(&pkt(6, 60_000));
        assert_eq!(
            registry
                .snapshot()
                .counter("hashflow_ingest_packets_total", &[]),
            Some(8),
            "scalar counts are batched locally until a flush point"
        );
        r.flush_metrics();
        assert_eq!(
            registry
                .snapshot()
                .counter("hashflow_ingest_packets_total", &[]),
            Some(9)
        );
    }

    #[test]
    fn epoch_numbers_increment() {
        let mut r = EpochRotator::new(Exact::default(), 10);
        for t in 0..4 {
            r.process_packet(&pkt(1, t * 10));
        }
        let epochs: Vec<u64> = r.completed_epochs().iter().map(|e| e.epoch()).collect();
        assert_eq!(epochs, vec![0, 1, 2]);
    }
}
