//! Runtime self-telemetry for the rotation pipeline: the uniform drop
//! accounting every bounded buffer shares ([`DropStats`]) and the metric
//! handles the epoch layer updates ([`PipelineMetrics`]).
//!
//! These are thin compositions over `hashflow-obs` primitives. A pipeline
//! runs un-instrumented by default — stages hold `Option<PipelineMetrics>`
//! and the bare path pays only the `None` check. [`Instruments`] is how
//! the handles arrive: one [`crate::FlowMonitor::instrument`] call on the
//! outermost stage registers every layer into the same registry, so one
//! snapshot covers the whole pipeline.

use crate::FlowTracer;
use hashflow_obs::{Counter, FlightRecorder, Gauge, Histogram, MetricsRegistry};

/// The observability handles of a pipeline, handed to every stage by one
/// [`crate::FlowMonitor::instrument`] call. Each handle is optional and
/// independent; the default instruments nothing. A stage takes what it
/// uses and forwards the whole set inward, so no layer can be left bare.
/// Cloning shares the registry, the recorder's ring and the tracer.
///
/// # Examples
///
/// ```
/// use hashflow_monitor::{FlowTracer, Instruments};
/// use hashflow_obs::{FlightRecorder, MetricsRegistry};
///
/// let recorder = FlightRecorder::new();
/// let instruments = Instruments {
///     registry: Some(MetricsRegistry::new()),
///     tracer: Some(FlowTracer::new(recorder.clone(), 1024)),
///     recorder: Some(recorder),
/// };
/// assert!(Instruments::default().registry.is_none());
/// # let _ = instruments;
/// ```
#[derive(Clone, Debug, Default)]
pub struct Instruments {
    /// Where every stage registers its counters, gauges and histograms.
    /// Handles are resolved once, at `instrument` time, never per packet.
    pub registry: Option<MetricsRegistry>,
    /// Ring of structured events: epoch seals, rotation gaps, sink health
    /// transitions, shard panics and shed batches.
    pub recorder: Option<FlightRecorder>,
    /// Sampled flow-path tracer: `dispatch`, HashFlow placement,
    /// `epoch_seal` and `export` spans for the flows it samples, the
    /// per-packet stages once per flow and epoch.
    pub tracer: Option<FlowTracer>,
}

/// How many scalar-path packets may accumulate locally before the
/// pending counts are flushed into the shared atomic counters.
///
/// Batched paths flush per batch; the scalar path amortizes the two
/// atomic read-modify-writes over this many packets so per-packet
/// instrumentation stays far under the pipeline's 3% overhead budget.
/// Registry reads may therefore lag the scalar path by at most this many
/// packets until the next batch boundary, rotation or explicit flush.
pub const SCALAR_FLUSH_PACKETS: u64 = 4096;

/// Uniform offer/drop accounting for bounded buffers — the ledger behind
/// the pipeline's backpressure contract.
///
/// Every stage that sheds load under a capacity limit (the queues of the
/// sharded dispatcher and the daemon, and every [`crate::EpochRing`] of
/// sealed history) accounts the same way: each arriving unit (an epoch,
/// or a batch for a packet queue) is **offered** exactly once
/// ([`DropStats::record_offer`]), and every unit later lost — shed on
/// arrival, evicted to make room, or stranded in a dead worker — is
/// **dropped** exactly once ([`DropStats::record_drop`]). Delivered is
/// *derived*, never counted:
///
/// ```text
/// delivered == offered - dropped
/// ```
///
/// so the conservation invariant `offered == delivered + dropped` holds
/// by construction for **every** [`crate::BackpressurePolicy`] and every
/// ring — a sliding-window eviction cannot double-count, because an item
/// offered once is dropped at most once. The counters are shared atomic
/// handles, so the same `DropStats` can sit inside the buffer *and* be
/// registered in a [`MetricsRegistry`] for exposition.
///
/// # Examples
///
/// ```
/// use hashflow_monitor::DropStats;
/// use hashflow_obs::MetricsRegistry;
///
/// let drops = DropStats::new();
/// let registry = MetricsRegistry::new();
/// drops.register(&registry, "epoch_retention");
/// drops.record_offer(5); // one epoch of 5 records arrives (retained)
/// drops.record_offer(17); // another arrives...
/// drops.record_drop(17); // ...and is shed whole
/// assert_eq!(drops.dropped_epochs(), 1);
/// assert_eq!(drops.offered_records(), 22);
/// assert_eq!(drops.delivered_records(), 5);
/// assert_eq!(
///     registry.snapshot().counter(
///         "hashflow_dropped_records_total",
///         &[("component", "epoch_retention")],
///     ),
///     Some(17),
/// );
/// ```
#[derive(Clone, Debug, Default)]
pub struct DropStats {
    offered_epochs: Counter,
    offered_records: Counter,
    epochs: Counter,
    records: Counter,
}

impl DropStats {
    /// Fresh accounting with every counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one offered epoch (or batch) carrying `records` records —
    /// called exactly once per unit arriving at the buffer, before any
    /// admission decision.
    pub fn record_offer(&self, records: u64) {
        self.offered_epochs.inc();
        self.offered_records.add(records);
    }

    /// Counts one dropped epoch (or batch) carrying `records` records —
    /// a unit previously offered that will never reach the consumer
    /// (shed on arrival, evicted later, or lost in flight).
    pub fn record_drop(&self, records: u64) {
        self.epochs.inc();
        self.records.add(records);
    }

    /// Epochs dropped whole.
    pub fn dropped_epochs(&self) -> u64 {
        self.epochs.get()
    }

    /// Records (or answers, or packets) inside dropped epochs.
    pub fn dropped_records(&self) -> u64 {
        self.records.get()
    }

    /// Everything offered to the buffer, in epochs (or batches).
    pub fn offered_epochs(&self) -> u64 {
        self.offered_epochs.get()
    }

    /// Everything offered to the buffer, in records.
    pub fn offered_records(&self) -> u64 {
        self.offered_records.get()
    }

    /// Epochs delivered past (or still retained by) this buffer:
    /// `offered - dropped`, by construction.
    pub fn delivered_epochs(&self) -> u64 {
        self.offered_epochs().saturating_sub(self.dropped_epochs())
    }

    /// Records delivered past (or still retained by) this buffer.
    pub fn delivered_records(&self) -> u64 {
        self.offered_records()
            .saturating_sub(self.dropped_records())
    }

    /// Clears every counter, for buffers whose own `reset()` contract
    /// wipes accumulated state.
    pub fn reset(&self) {
        self.offered_epochs.reset();
        self.offered_records.reset();
        self.epochs.reset();
        self.records.reset();
    }

    /// Registers the primary counters under the uniform names
    /// `hashflow_offered_{epochs,records}_total` /
    /// `hashflow_dropped_{epochs,records}_total` with a `component`
    /// label identifying the buffer. Delivered counts are derived
    /// (`offered - dropped`) by exposition consumers.
    pub fn register(&self, registry: &MetricsRegistry, component: &str) {
        registry.register_counter(
            "hashflow_offered_epochs_total",
            &[("component", component)],
            self.offered_epochs.clone(),
        );
        registry.register_counter(
            "hashflow_offered_records_total",
            &[("component", component)],
            self.offered_records.clone(),
        );
        registry.register_counter(
            "hashflow_dropped_epochs_total",
            &[("component", component)],
            self.epochs.clone(),
        );
        registry.register_counter(
            "hashflow_dropped_records_total",
            &[("component", component)],
            self.records.clone(),
        );
    }
}

/// The metric handles an instrumented [`crate::EpochRotator`] updates.
///
/// | Metric | Type | Meaning |
/// |---|---|---|
/// | `hashflow_ingest_packets_total` | counter | packets ingested |
/// | `hashflow_ingest_bytes_total` | counter | wire bytes ingested |
/// | `hashflow_ingest_batches_total` | counter | `process_batch` calls |
/// | `hashflow_epochs_sealed_total` | counter | epochs sealed |
/// | `hashflow_rotation_gaps_total` | counter | rotations that skipped ≥ 1 quiet window |
/// | `hashflow_sink_export_ns` | histogram | sink fan-out time per sealed epoch |
/// | `hashflow_sink_errors_total` | counter | sink export/flush errors |
/// | `hashflow_sink_skipped_epochs_total` | counter | sealed epochs skipped past quarantined sinks |
/// | `hashflow_sinks_quarantined` | gauge | sinks currently quarantined |
#[derive(Clone, Debug)]
pub struct PipelineMetrics {
    pub(crate) packets: Counter,
    pub(crate) bytes: Counter,
    pub(crate) batches: Counter,
    pub(crate) epochs_sealed: Counter,
    pub(crate) rotation_gaps: Counter,
    pub(crate) export_ns: Histogram,
    pub(crate) sink_errors: Counter,
    pub(crate) sink_skipped_epochs: Counter,
    pub(crate) sinks_quarantined: Gauge,
}

impl PipelineMetrics {
    /// Creates the handles, registering every metric (unlabelled) in
    /// `registry`. Registration is get-or-create, so two pipeline stages
    /// given the same registry share the same counters.
    pub fn register(registry: &MetricsRegistry) -> Self {
        PipelineMetrics {
            packets: registry.counter("hashflow_ingest_packets_total", &[]),
            bytes: registry.counter("hashflow_ingest_bytes_total", &[]),
            batches: registry.counter("hashflow_ingest_batches_total", &[]),
            epochs_sealed: registry.counter("hashflow_epochs_sealed_total", &[]),
            rotation_gaps: registry.counter("hashflow_rotation_gaps_total", &[]),
            export_ns: registry.histogram("hashflow_sink_export_ns", &[]),
            sink_errors: registry.counter("hashflow_sink_errors_total", &[]),
            sink_skipped_epochs: registry.counter("hashflow_sink_skipped_epochs_total", &[]),
            sinks_quarantined: registry.gauge("hashflow_sinks_quarantined", &[]),
        }
    }

    /// Packets-ingested counter (shared handle).
    pub fn packets(&self) -> &Counter {
        &self.packets
    }

    /// Bytes-ingested counter (shared handle).
    pub fn bytes(&self) -> &Counter {
        &self.bytes
    }

    /// Epochs-sealed counter (shared handle).
    pub fn epochs_sealed(&self) -> &Counter {
        &self.epochs_sealed
    }

    /// Sink-error counter (shared handle).
    pub fn sink_errors(&self) -> &Counter {
        &self.sink_errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_stats_count_epochs_and_records() {
        let d = DropStats::new();
        d.record_drop(10);
        d.record_drop(0);
        assert_eq!(d.dropped_epochs(), 2);
        assert_eq!(d.dropped_records(), 10);
        d.reset();
        assert_eq!(d.dropped_epochs(), 0);
        assert_eq!(d.dropped_records(), 0);
    }

    #[test]
    fn drop_stats_register_under_component_label() {
        let registry = MetricsRegistry::new();
        let store = DropStats::new();
        let bank = DropStats::new();
        store.register(&registry, "epoch_retention");
        bank.register(&registry, "query_answers");
        store.record_drop(3);
        bank.record_drop(1);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(
                "hashflow_dropped_epochs_total",
                &[("component", "epoch_retention")]
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter(
                "hashflow_dropped_records_total",
                &[("component", "query_answers")]
            ),
            Some(1)
        );
        assert_eq!(snap.counter_sum("hashflow_dropped_records_total"), 4);
    }

    #[test]
    fn pipeline_metrics_share_a_registry() {
        let registry = MetricsRegistry::new();
        let a = PipelineMetrics::register(&registry);
        let b = PipelineMetrics::register(&registry);
        a.packets().add(5);
        b.packets().add(7);
        assert_eq!(
            registry
                .snapshot()
                .counter("hashflow_ingest_packets_total", &[]),
            Some(12)
        );
    }
}
