//! The common interface implemented by every flow-measurement algorithm in
//! this workspace, plus the cost accounting and equal-memory budgeting the
//! paper's evaluation methodology (§IV-A) requires.
//!
//! The four measurement applications of §IV-A map onto trait methods:
//!
//! | Application | Method | Metric |
//! |---|---|---|
//! | Flow record report | [`FlowMonitor::flow_records`] | FSC |
//! | Flow size estimation | [`FlowMonitor::estimate_size`] | ARE |
//! | Heavy hitter detection | [`FlowMonitor::heavy_hitters`] | F1 + ARE |
//! | Cardinality estimation | [`FlowMonitor::estimate_cardinality`] | RE |
//!
//! [`CostRecorder`] counts hash operations and memory accesses per packet —
//! the quantities Fig. 11(b)/(c) report.
//!
//! Beyond the paper's single-epoch evaluation, this crate also hosts the
//! collector pipeline's epoch machinery: [`FlowMonitor::seal`] hands the
//! current state off as an immutable [`EpochSnapshot`] (iterator records,
//! batched size estimation, bounded-heap top-k) while the live side keeps
//! ingesting, [`EpochRotator`] drives time-based rotation, and
//! [`RecordSink`]s ([`JsonLinesSink`], [`MemorySink`], NetFlow v5 in
//! `netflow-export`) stream every sealed epoch downstream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod cost;
mod epoch;
mod health;
mod introspect;
mod plan;
mod policy;
mod sink;
mod snapshot;
mod stats;
mod trace;

pub use budget::MemoryBudget;
pub use cost::{CostRecorder, CostSnapshot};
pub use epoch::{EpochReport, EpochRotator};
pub use health::{
    classify_io_error, ErrorClass, SinkErrors, SinkHealth, SinkStatus, SINK_PROBE_INTERVAL,
    SINK_QUARANTINE_AFTER,
};
pub use introspect::{merge_introspection, IntrospectMetric, IntrospectValue};
pub use plan::{BatchPlan, BatchPlanner};
pub use policy::{BackpressurePolicy, EpochRing};
pub use sink::{JsonLinesSink, MemorySink, RecordSink};
pub use snapshot::EpochSnapshot;
pub use stats::{DropStats, Instruments, PipelineMetrics, SCALAR_FLUSH_PACKETS};
pub use trace::{FlowTracer, StageTally, DEFAULT_TRACE_SAMPLING, FLOW_SPAN_KIND};

use hashflow_types::{FlowKey, FlowRecord, Packet};

/// Packets per batch on the default [`FlowMonitor::process_trace`] path.
///
/// Large enough to amortize per-batch bookkeeping (hash-lane fills, one
/// cost flush) and give prefetches time to land, small enough that a
/// batch's scratch state stays resident in L1/L2 while the second pass
/// walks it.
pub const INGEST_BATCH: usize = 256;

/// A streaming flow-record collector: the interface shared by HashFlow,
/// HashPipe, ElasticSketch and FlowRadar.
///
/// Implementations ingest packets one at a time and answer the four §IV-A
/// application queries at the end of the measurement epoch.
///
/// # Examples
///
/// Implementors are exercised uniformly; a trivial exact baseline looks like:
///
/// ```
/// use hashflow_monitor::{CostRecorder, CostSnapshot, FlowMonitor};
/// use hashflow_types::{FlowKey, FlowRecord, Packet};
/// use std::collections::HashMap;
///
/// #[derive(Default)]
/// struct Exact {
///     flows: HashMap<FlowKey, u32>,
///     cost: CostRecorder,
/// }
///
/// impl FlowMonitor for Exact {
///     fn process_packet(&mut self, packet: &Packet) {
///         self.cost.start_packet();
///         *self.flows.entry(packet.key()).or_insert(0) += 1;
///     }
///     fn flow_records(&self) -> Vec<FlowRecord> {
///         self.flows.iter().map(|(k, c)| FlowRecord::new(*k, *c)).collect()
///     }
///     fn estimate_size(&self, key: &FlowKey) -> u32 {
///         self.flows.get(key).copied().unwrap_or(0)
///     }
///     fn estimate_cardinality(&self) -> f64 { self.flows.len() as f64 }
///     fn memory_bits(&self) -> usize { 0 }
///     fn name(&self) -> &'static str { "Exact" }
///     fn cost(&self) -> CostSnapshot { self.cost.snapshot() }
///     fn reset(&mut self) { self.flows.clear(); self.cost.reset(); }
/// }
///
/// let mut m = Exact::default();
/// m.process_packet(&Packet::new(FlowKey::from_index(1), 0, 64));
/// assert_eq!(m.estimate_size(&FlowKey::from_index(1)), 1);
/// ```
pub trait FlowMonitor {
    /// Ingests one packet (the per-packet update of each algorithm).
    fn process_packet(&mut self, packet: &Packet);

    /// Ingests a batch of packets.
    ///
    /// **Contract:** observationally identical to calling
    /// [`Self::process_packet`] on each packet in order — same final
    /// state, same query answers, same [`CostSnapshot`]. The default does
    /// exactly that; implementations with a batched hot path (precomputed
    /// hash lanes, software prefetch, amortized cost flushes) override it,
    /// changing *when* work happens but never *what* is recorded.
    fn process_batch(&mut self, packets: &[Packet]) {
        for p in packets {
            self.process_packet(p);
        }
    }

    /// A handle that plans batches for this monitor on another thread
    /// ([`BatchPlanner`]): from the packets alone, it computes what
    /// [`Self::process_batch`] would compute before touching any state.
    /// `None`, the default, means the monitor has nothing to plan ahead;
    /// its batches go through [`Self::process_batch`]. A planner reflects
    /// the monitor as it was when taken (its hash functions, its tracer's
    /// sampling rate); [`Self::process_planned`] checks every plan against
    /// the monitor as it is.
    fn planner(&self) -> Option<Box<dyn BatchPlanner>> {
        None
    }

    /// Ingests a batch that a [`Self::planner`] handle planned into
    /// `plan`. **Contract:** observationally identical to
    /// [`Self::process_batch`] — the plan moves work to another thread,
    /// never changes what is recorded. A plan the monitor cannot use (from
    /// another monitor, of another type, for another row count) is
    /// ignored and the batch planned in place. `plan` must have been
    /// planned from `packets`. The default, for monitors without a
    /// planner, is [`Self::process_batch`].
    fn process_planned(&mut self, packets: &[Packet], _plan: &BatchPlan) {
        self.process_batch(packets);
    }

    /// Reports every flow record the structure can reconstruct, with the
    /// flow ID it believes and the packet count it recorded.
    ///
    /// For FlowRadar this triggers the decode phase; for the others it walks
    /// the tables.
    fn flow_records(&self) -> Vec<FlowRecord>;

    /// Estimates the packet count of `key`; `0` when the structure has no
    /// information about the flow (§IV-A: "if no result can be reported, we
    /// use 0 as the default value").
    fn estimate_size(&self, key: &FlowKey) -> u32;

    /// Estimates the number of distinct flows observed.
    fn estimate_cardinality(&self) -> f64;

    /// Reports flows with at least `threshold` packets, largest first
    /// (ties broken by flow key).
    ///
    /// The default implementation filters [`Self::flow_records`], which is
    /// how the paper queries all four algorithms. The result is ordered
    /// with an unstable sort — the (count, key) comparator is already a
    /// total order over distinct records, so stability buys nothing. For
    /// bounded top-k queries prefer [`EpochSnapshot::top_k`], which
    /// replaces the full sort with a bounded heap.
    fn heavy_hitters(&self, threshold: u32) -> Vec<FlowRecord> {
        let mut hh: Vec<FlowRecord> = self
            .flow_records()
            .into_iter()
            .filter(|r| r.count() >= threshold)
            .collect();
        hh.sort_unstable_by(snapshot::heavy_hitter_order);
        hh
    }

    /// Logical memory footprint in bits (the quantity the §IV-A equal-memory
    /// comparison budgets).
    fn memory_bits(&self) -> usize;

    /// Short human-readable algorithm name used in experiment output.
    fn name(&self) -> &'static str;

    /// Snapshot of per-packet cost counters accumulated so far.
    fn cost(&self) -> CostSnapshot;

    /// Clears all state (tables and cost counters) for a fresh epoch.
    fn reset(&mut self);

    /// Convenience: processes every packet of a slice in order, feeding
    /// [`Self::process_batch`] in [`INGEST_BATCH`]-sized chunks so
    /// monitors with a batched hot path get it automatically. No monitor
    /// overrides it: it runs on the caller's thread for every monitor,
    /// and a sharded monitor's threaded entry is its own
    /// `ShardedMonitor::ingest`.
    fn process_trace(&mut self, packets: &[Packet]) {
        for chunk in packets.chunks(INGEST_BATCH) {
            self.process_batch(chunk);
        }
    }

    /// Seals the current measurement state into an immutable
    /// [`EpochSnapshot`] and resets the monitor for the next epoch.
    ///
    /// This is the collector-side epoch handoff: queries run against the
    /// sealed snapshot (iterator records, batched size estimation,
    /// bounded-heap top-k) while the live side keeps ingesting via
    /// [`Self::process_batch`] into fresh tables. Use
    /// [`EpochSnapshot::capture`] for a non-draining snapshot of the same
    /// answers.
    fn seal(&mut self) -> EpochSnapshot {
        let snapshot = EpochSnapshot::capture(self);
        self.reset();
        snapshot
    }

    /// Active degradation in the monitor's machinery, one human-readable
    /// line per fault — e.g. a sharded monitor whose worker lane
    /// panicked mid-epoch and is shedding its partition. Empty means
    /// fully operational. Plain single-threaded monitors have no failure
    /// domains, hence the default; adapter layers forward the report of
    /// whatever they wrap so a health endpoint can ask the outermost
    /// facade.
    fn faults(&self) -> Vec<String> {
        Vec::new()
    }

    /// The monitor's structure-internal saturation report
    /// ([`IntrospectMetric`]s), sealed into every [`EpochSnapshot`] and
    /// exported as gauges at rotation. Names must be stable across epochs
    /// (gauges are keyed by them) and unique within one report. The
    /// default reports nothing: monitors without meaningful internals
    /// need not override it.
    fn introspection(&self) -> Vec<IntrospectMetric> {
        Vec::new()
    }

    /// Hands the monitor its observability handles ([`Instruments`]): it
    /// takes what it uses — registering metrics once, here, never per
    /// packet — and forwards the set to whatever it wraps, so one call
    /// on the outermost layer instruments the whole stack. Plain monitors
    /// with nothing to report keep the default, which ignores the call.
    fn instrument(&mut self, _instruments: &Instruments) {}
}

/// Boxed monitors are monitors: the registry
/// (`hashflow-collector`) hands out `Box<dyn FlowMonitor + Send>`, and
/// everything downstream — epoch rotators, switch pipelines, evaluation
/// harnesses — must accept the boxed form wherever a concrete monitor
/// fits. Every method a monitor overrides forwards, so a box wrapping a
/// monitor with a batched hot path keeps it; `heavy_hitters` and
/// `process_trace` keep their defaults, which no monitor overrides.
impl<M: FlowMonitor + ?Sized> FlowMonitor for Box<M> {
    fn process_packet(&mut self, packet: &Packet) {
        (**self).process_packet(packet);
    }
    fn process_batch(&mut self, packets: &[Packet]) {
        (**self).process_batch(packets);
    }
    fn planner(&self) -> Option<Box<dyn BatchPlanner>> {
        (**self).planner()
    }
    fn process_planned(&mut self, packets: &[Packet], plan: &BatchPlan) {
        (**self).process_planned(packets, plan);
    }
    fn flow_records(&self) -> Vec<FlowRecord> {
        (**self).flow_records()
    }
    fn estimate_size(&self, key: &FlowKey) -> u32 {
        (**self).estimate_size(key)
    }
    fn estimate_cardinality(&self) -> f64 {
        (**self).estimate_cardinality()
    }
    fn memory_bits(&self) -> usize {
        (**self).memory_bits()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn cost(&self) -> CostSnapshot {
        (**self).cost()
    }
    fn reset(&mut self) {
        (**self).reset();
    }
    fn seal(&mut self) -> EpochSnapshot {
        (**self).seal()
    }
    fn faults(&self) -> Vec<String> {
        (**self).faults()
    }
    fn introspection(&self) -> Vec<IntrospectMetric> {
        (**self).introspection()
    }
    fn instrument(&mut self, instruments: &Instruments) {
        (**self).instrument(instruments);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[derive(Default)]
    struct Exact {
        flows: HashMap<FlowKey, u32>,
        cost: CostRecorder,
    }

    impl FlowMonitor for Exact {
        fn process_packet(&mut self, packet: &Packet) {
            self.cost.start_packet();
            self.cost.record_hashes(1);
            self.cost.record_reads(1);
            self.cost.record_writes(1);
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
        fn instrument(&mut self, instruments: &Instruments) {
            if let Some(registry) = &instruments.registry {
                registry.counter("exact_instrumented_total", &[]).inc();
            }
        }
    }

    fn pkt(i: u64) -> Packet {
        Packet::new(FlowKey::from_index(i), 0, 64)
    }

    #[test]
    fn default_heavy_hitters_filters_and_sorts() {
        let mut m = Exact::default();
        for _ in 0..5 {
            m.process_packet(&pkt(1));
        }
        for _ in 0..3 {
            m.process_packet(&pkt(2));
        }
        m.process_packet(&pkt(3));
        let hh = m.heavy_hitters(3);
        assert_eq!(hh.len(), 2);
        assert_eq!(hh[0].count(), 5);
        assert_eq!(hh[1].count(), 3);
    }

    #[test]
    fn process_trace_feeds_all_packets() {
        let mut m = Exact::default();
        let trace: Vec<Packet> = (0..10).map(|i| pkt(i % 2)).collect();
        m.process_trace(&trace);
        assert_eq!(m.estimate_size(&FlowKey::from_index(0)), 5);
        assert_eq!(m.cost().packets, 10);
    }

    #[test]
    fn default_batch_matches_scalar_loop() {
        let trace: Vec<Packet> = (0..37).map(|i| pkt(i % 5)).collect();
        let mut scalar = Exact::default();
        for p in &trace {
            scalar.process_packet(p);
        }
        let mut batched = Exact::default();
        batched.process_batch(&trace);
        batched.process_batch(&[]); // empty batches are no-ops
        assert_eq!(batched.cost(), scalar.cost());
        assert_eq!(
            batched.estimate_size(&FlowKey::from_index(0)),
            scalar.estimate_size(&FlowKey::from_index(0))
        );
    }

    #[test]
    fn trait_is_object_safe() {
        let m: Box<dyn FlowMonitor> = Box::new(Exact::default());
        assert_eq!(m.name(), "Exact");
    }

    #[test]
    fn boxed_monitor_forwards_everything() {
        let mut m: Box<dyn FlowMonitor> = Box::new(Exact::default());
        let registry = hashflow_obs::MetricsRegistry::new();
        m.instrument(&Instruments {
            registry: Some(registry.clone()),
            ..Instruments::default()
        });
        assert_eq!(
            registry.snapshot().counter("exact_instrumented_total", &[]),
            Some(1),
            "instrument reaches the boxed monitor"
        );
        m.process_packet(&pkt(1));
        m.process_batch(&[pkt(1), pkt(2)]);
        m.process_trace(&[pkt(2)]);
        assert_eq!(m.estimate_size(&FlowKey::from_index(1)), 2);
        assert_eq!(m.flow_records().len(), 2);
        assert_eq!(m.estimate_cardinality(), 2.0);
        assert_eq!(m.heavy_hitters(2).len(), 2);
        assert_eq!(m.cost().packets, 4);
        let snapshot = m.seal();
        assert_eq!(snapshot.len(), 2);
        assert_eq!(m.cost().packets, 0, "seal resets through the box");
    }

    #[test]
    fn seal_drains_live_state_into_snapshot() {
        let mut m = Exact::default();
        for _ in 0..4 {
            m.process_packet(&pkt(7));
        }
        m.process_packet(&pkt(8));
        let snapshot = m.seal();
        // Sealed answers match what the live monitor reported...
        assert_eq!(snapshot.len(), 2);
        assert_eq!(snapshot.estimate_size(&FlowKey::from_index(7)), 4);
        assert_eq!(snapshot.cardinality(), 2.0);
        assert_eq!(snapshot.cost().packets, 5);
        // ... and the live side restarts clean.
        assert!(m.flow_records().is_empty());
        m.process_packet(&pkt(9));
        assert_eq!(m.cost().packets, 1);
        // The sealed snapshot is unaffected by post-seal ingestion.
        assert_eq!(snapshot.estimate_size(&FlowKey::from_index(9)), 0);
    }
}
