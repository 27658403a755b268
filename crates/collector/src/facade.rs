//! The `Collector` facade: a registry-built monitor behind an epoch
//! rotator with export sinks — the whole pipeline in one handle.

use crate::registry::{AlgorithmKind, MonitorBuilder};
use hashflow_monitor::{
    CostSnapshot, DropStats, EpochRotator, EpochSnapshot, FlowMonitor, HealthPolicy, Instruments,
    IntrospectMetric, MemoryBudget, RecordSink, SinkErrors, SinkStatus,
};
use hashflow_obs::{MetricsRegistry, MetricsSnapshot};
use hashflow_query::{QueryId, QueryMonitor, QueryPlan, QueryResult};
use hashflow_types::{ConfigError, FlowKey, FlowRecord, Packet};

/// A running collection pipeline: `monitor → queries → rotator → sinks`.
///
/// Built by [`Collector::builder`]. Ingestion goes through the monitor's
/// batched hot path; when a packet's timestamp crosses the epoch edge
/// (or [`Collector::seal`] is called) the epoch is sealed into an
/// immutable [`EpochSnapshot`], streamed to every attached sink, and
/// retained in [`Collector::completed_epochs`], while the live side keeps
/// ingesting into fresh tables.
///
/// Declarative telemetry queries ([`QueryPlan`]) attach to the pipeline
/// via [`CollectorBuilder::query`] or [`Collector::attach_query`]: each
/// rotation evaluates every attached plan once over the epoch it sealed
/// and banks the answers ([`Collector::drain_query_answers`]). Ingestion
/// pays nothing for them.
///
/// `Collector` itself implements [`FlowMonitor`], so anything that drives
/// a monitor — the software switch, the evaluation harness — can drive a
/// whole pipeline unchanged. Its observability handles are fixed at
/// build time ([`CollectorBuilder::instruments`]), when one call reaches
/// every layer; there is nothing to attach afterwards.
pub struct Collector {
    rotator: EpochRotator<QueryMonitor<Box<dyn FlowMonitor + Send>>>,
    /// The registered algorithm, whose records capability gates plans.
    kind: AlgorithmKind,
    /// Set by [`Collector::finish`]; the `Drop` impl flushes sinks
    /// best-effort when the pipeline is dropped without finishing.
    finished: bool,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("algorithm", &self.name())
            .field("epoch_len_ns", &self.rotator.epoch_len_ns())
            .field("completed", &self.rotator.completed_epochs().len())
            .finish_non_exhaustive()
    }
}

impl Collector {
    /// Starts building a pipeline around `kind`.
    pub fn builder(kind: AlgorithmKind) -> CollectorBuilder {
        CollectorBuilder {
            monitor: MonitorBuilder::new(kind),
            epoch_len_ns: u64::MAX,
            sinks: Vec::new(),
            queries: Vec::new(),
            instruments: Instruments::default(),
            answer_limit: None,
            retention: None,
            sink_health: None,
        }
    }

    /// Flushes locally accumulated counts and snapshots the attached
    /// registry — the single source every end-of-run report and export
    /// renders from, so printed and exported numbers cannot disagree.
    /// Returns `None` when no registry is attached.
    pub fn metrics_snapshot(&mut self) -> Option<MetricsSnapshot> {
        self.rotator.flush_metrics();
        let registry = self.rotator.instruments().registry.as_ref();
        registry.map(MetricsRegistry::snapshot)
    }

    /// Attaches a sink; every epoch sealed from now on streams to it.
    pub fn add_sink(&mut self, sink: Box<dyn RecordSink + Send>) {
        self.rotator.add_sink(sink);
    }

    /// Attaches a query plan to the pipeline; it is first answered when
    /// the running epoch seals, over that whole epoch. Returns the id
    /// addressing the plan's answers.
    ///
    /// # Errors
    ///
    /// The registry's records-capability error when the algorithm keeps
    /// no flow records (CountMin, FCM): a plan over it could only answer
    /// empty.
    pub fn attach_query(&mut self, plan: QueryPlan) -> Result<QueryId, ConfigError> {
        self.kind.check_records()?;
        Ok(self.rotator.inner_mut().attach(plan))
    }

    /// Number of attached query plans.
    pub fn query_count(&self) -> usize {
        self.rotator.inner().query_count()
    }

    /// Drains the per-epoch query answers banked at each rotation
    /// (oldest epoch first; inner vectors follow attach order).
    pub fn drain_query_answers(&mut self) -> Vec<Vec<QueryResult>> {
        self.rotator.inner_mut().drain_sealed_answers()
    }

    /// Seals the running epoch into an immutable [`EpochSnapshot`]
    /// (streaming it to the sinks, retaining it in
    /// [`Self::completed_epochs`]) and resets the live side for the next
    /// epoch. The records are copied once, out of the monitor's tables;
    /// every holder shares that store, and the size-query index its
    /// first `estimate_size` builds — sealing hashes nothing.
    pub fn seal(&mut self) -> EpochSnapshot {
        self.rotator.seal()
    }

    /// Every epoch sealed so far and not yet drained or evicted, oldest
    /// first; each shares its record store and index with the snapshot
    /// [`Self::seal`] returned and the one the sinks received. The store
    /// is **unbounded** unless [`CollectorBuilder::retention`] bounded it
    /// or a driving loop calls [`Self::drain_completed`]: a long run with
    /// neither keeps every epoch's records alive.
    pub fn completed_epochs(&self) -> &[EpochSnapshot] {
        self.rotator.completed_epochs()
    }

    /// Drains [`Self::completed_epochs`], leaving the current epoch
    /// running. The completed store grows without bound until this is
    /// called, unless [`CollectorBuilder::retention`] bounded it.
    pub fn drain_completed(&mut self) -> Vec<EpochSnapshot> {
        self.rotator.drain_completed()
    }

    /// The live monitor (current-epoch state), beneath the query layer.
    pub fn monitor(&self) -> &dyn FlowMonitor {
        self.rotator.inner().inner()
    }

    /// Per-sink health: state-machine position (healthy / degraded /
    /// quarantined), failure counts, epochs skipped while quarantined and
    /// the most recent error. Indexed in attach order.
    pub fn sink_health(&self) -> Vec<SinkStatus> {
        self.rotator.sink_health()
    }

    /// The completed-epoch retention ledger (offered / dropped /
    /// delivered, conserved by construction).
    pub fn retention_drop_stats(&self) -> DropStats {
        self.rotator.retention_drop_stats()
    }

    /// The query answer bank's drop ledger (see
    /// [`CollectorBuilder::answer_limit`]).
    pub fn answer_drop_stats(&self) -> DropStats {
        self.rotator.inner().answer_drop_stats().clone()
    }

    /// Ends the collection run: flushes every sink (quarantined ones
    /// included — a final flush is the last chance to drain buffers).
    ///
    /// # Errors
    ///
    /// Returns **every** sink error parked from earlier rotations plus
    /// any flush failures, as one [`SinkErrors`] bundle (which converts
    /// into `io::Error` via `?` where an `io::Result` is expected).
    pub fn finish(&mut self) -> Result<(), SinkErrors> {
        self.finished = true;
        self.rotator.finish_sinks()
    }
}

impl Drop for Collector {
    /// Best-effort sink flush for pipelines dropped without
    /// [`Collector::finish`]: buffered exports are not silently lost.
    /// Errors are discarded — panicking in `Drop` is never acceptable —
    /// so call `finish()` explicitly when you need to observe them.
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.rotator.finish_sinks();
        }
    }
}

impl FlowMonitor for Collector {
    fn process_packet(&mut self, packet: &Packet) {
        self.rotator.process_packet(packet);
    }

    fn process_batch(&mut self, packets: &[Packet]) {
        self.rotator.process_batch(packets);
    }

    fn flow_records(&self) -> Vec<FlowRecord> {
        self.rotator.flow_records()
    }

    fn estimate_size(&self, key: &FlowKey) -> u32 {
        self.rotator.estimate_size(key)
    }

    fn estimate_cardinality(&self) -> f64 {
        self.rotator.estimate_cardinality()
    }

    fn memory_bits(&self) -> usize {
        self.rotator.memory_bits()
    }

    fn name(&self) -> &'static str {
        self.rotator.name()
    }

    fn cost(&self) -> CostSnapshot {
        self.rotator.cost()
    }

    /// Degradation report of the wrapped pipeline — for a sharded build
    /// this surfaces any lane whose worker died mid-epoch, which is what
    /// a service health endpoint wants to know before trusting the
    /// current epoch's numbers.
    fn faults(&self) -> Vec<String> {
        self.rotator.faults()
    }

    /// Live-state introspection of the wrapped monitor (the sealed
    /// per-epoch report travels in each [`EpochSnapshot`]).
    fn introspection(&self) -> Vec<IntrospectMetric> {
        self.rotator.introspection()
    }

    fn reset(&mut self) {
        self.rotator.reset();
    }

    fn seal(&mut self) -> EpochSnapshot {
        Collector::seal(self)
    }
}

/// Builder for [`Collector`]: the registry's monitor knobs plus the
/// pipeline's epoch length, sinks and query plans.
pub struct CollectorBuilder {
    monitor: MonitorBuilder,
    epoch_len_ns: u64,
    sinks: Vec<Box<dyn RecordSink + Send>>,
    queries: Vec<QueryPlan>,
    instruments: Instruments,
    answer_limit: Option<usize>,
    retention: Option<usize>,
    sink_health: Option<HealthPolicy>,
}

impl CollectorBuilder {
    /// Sets the memory budget (required).
    #[must_use]
    pub fn budget(mut self, budget: MemoryBudget) -> Self {
        self.monitor = self.monitor.budget(budget);
        self
    }

    /// Sets an explicit master hash seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.monitor = self.monitor.seed(seed);
        self
    }

    /// Sets the shard count (merge-layer algorithms only).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.monitor = self.monitor.shards(shards);
        self
    }

    /// Sets NetFlow's 1-in-N sampling rate.
    #[must_use]
    pub fn sampling(mut self, n: u32) -> Self {
        self.monitor = self.monitor.sampling(n);
        self
    }

    /// Sets the epoch length in nanoseconds. The default (`u64::MAX`)
    /// never rotates on time — the paper's single-epoch mode, sealed
    /// explicitly via [`Collector::seal`].
    #[must_use]
    pub fn epoch_ns(mut self, epoch_len_ns: u64) -> Self {
        self.epoch_len_ns = epoch_len_ns;
        self
    }

    /// Attaches a sink.
    #[must_use]
    pub fn sink(mut self, sink: Box<dyn RecordSink + Send>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Attaches a query plan (ids follow attach order, starting at 0).
    /// [`Self::build`] refuses plans over an estimate-only algorithm with
    /// the [`Self::require_records`] error.
    #[must_use]
    pub fn query(mut self, plan: QueryPlan) -> Self {
        self.queries.push(plan);
        self
    }

    /// Declares that records-derived queries (flow report, heavy
    /// hitters, `top_k`) will be run, rejecting estimate-only sketches
    /// at build time ([`MonitorBuilder::require_records`]).
    #[must_use]
    pub fn require_records(mut self) -> Self {
        self.monitor = self.monitor.require_records();
        self
    }

    /// Sets the pipeline's observability handles. At build time one
    /// [`FlowMonitor::instrument`] call on the rotation layer hands them
    /// to **every** layer, so none can be left bare:
    ///
    /// * `registry` — the monitor's shards, the query plans, rotation
    ///   and the sinks register into it, the retention and answer-bank
    ///   ledgers are exported, and [`Collector::metrics_snapshot`]
    ///   exposes the combined state;
    /// * `recorder` — shard panics and shed batches (with a window dump
    ///   on panic), epoch seals and rotation gaps, and the sinks'
    ///   degrade/quarantine/recover transitions (quarantine entry also
    ///   dumps);
    /// * `tracer` — sampled flows record `dispatch` spans in the sharded
    ///   merge layer, placement-stage spans in HashFlow, and
    ///   `epoch_seal`/`export` spans at rotation.
    #[must_use]
    pub fn instruments(mut self, instruments: Instruments) -> Self {
        self.instruments = instruments;
        self
    }

    /// Keeps the banked query answers of the newest `max_epochs` epochs
    /// (see [`QueryMonitor::set_answer_limit`]).
    #[must_use]
    pub fn answer_limit(mut self, max_epochs: usize) -> Self {
        self.answer_limit = Some(max_epochs);
        self
    }

    /// Keeps the newest `max_epochs` epochs in the completed-epoch
    /// store; evictions are accounted in
    /// [`Collector::retention_drop_stats`].
    #[must_use]
    pub fn retention(mut self, max_epochs: usize) -> Self {
        self.retention = Some(max_epochs);
        self
    }

    /// Sets the sink health-state-machine thresholds (see
    /// [`HealthPolicy`]).
    #[must_use]
    pub fn sink_health_policy(mut self, policy: HealthPolicy) -> Self {
        self.sink_health = Some(policy);
        self
    }

    /// Builds the pipeline.
    ///
    /// # Errors
    ///
    /// Propagates every registry error ([`MonitorBuilder::build`]),
    /// including the records-capability error when plans are attached.
    pub fn build(self) -> Result<Collector, ConfigError> {
        let kind = self.monitor.kind();
        if !self.queries.is_empty() {
            kind.check_records()?;
        }
        let mut queries = QueryMonitor::new(self.monitor.build()?);
        if let Some(max_epochs) = self.answer_limit {
            queries.set_answer_limit(max_epochs);
        }
        for plan in self.queries {
            queries.attach(plan);
        }
        let mut rotator = EpochRotator::new(queries, self.epoch_len_ns);
        if let Some(max_epochs) = self.retention {
            rotator.set_retention(max_epochs);
        }
        if let Some(policy) = self.sink_health {
            rotator.set_sink_health_policy(policy);
        }
        for sink in self.sinks {
            rotator.add_sink(sink);
        }
        rotator.instrument(&self.instruments);
        Ok(Collector {
            rotator,
            kind,
            finished: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashflow_monitor::MemorySink;
    use hashflow_trace::{TraceGenerator, TraceProfile};
    use std::io;

    fn budget() -> MemoryBudget {
        MemoryBudget::from_kib(128).unwrap()
    }

    #[test]
    fn pipeline_rotates_and_streams() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        struct Counting(Arc<AtomicUsize>);
        impl RecordSink for Counting {
            fn export_epoch(&mut self, s: &EpochSnapshot) -> io::Result<()> {
                self.0.fetch_add(s.len(), Ordering::Relaxed);
                Ok(())
            }
        }

        let exported = Arc::new(AtomicUsize::new(0));
        let trace = TraceGenerator::new(TraceProfile::Isp2, 3).generate(2_000);
        let mut collector = Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget())
            .epoch_ns(500_000) // 0.5 ms: the ~1 us packet spacing spans several epochs
            .sink(Box::new(MemorySink::new()))
            .sink(Box::new(Counting(Arc::clone(&exported))))
            .build()
            .unwrap();
        collector.process_trace(trace.packets());
        collector.seal();
        assert!(collector.completed_epochs().len() >= 2);
        let retained: usize = collector.completed_epochs().iter().map(|e| e.len()).sum();
        assert_eq!(exported.load(Ordering::Relaxed), retained);
        assert!(collector.sink_health().iter().all(|s| s.total_errors == 0));
        collector.finish().unwrap();
    }

    #[test]
    fn a_sealed_epoch_is_one_store_for_caller_history_and_sinks() {
        use std::sync::{Arc, Mutex};

        /// A `MemorySink` the test can still read once the collector
        /// owns the boxed sink.
        struct Shared(Arc<Mutex<MemorySink>>);
        impl RecordSink for Shared {
            fn export_epoch(&mut self, s: &EpochSnapshot) -> io::Result<()> {
                self.0.lock().unwrap().export_epoch(s)
            }
        }

        let trace = TraceGenerator::new(TraceProfile::Isp2, 3).generate(2_000);
        for (shards, sink_count) in [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)] {
            let case = format!("{shards} shard(s), {sink_count} sink(s)");
            let sinks: Vec<Arc<Mutex<MemorySink>>> = (0..sink_count)
                .map(|_| Arc::new(Mutex::new(MemorySink::new())))
                .collect();
            let mut builder = Collector::builder(AlgorithmKind::HashFlow)
                .budget(budget())
                .shards(shards);
            for sink in &sinks {
                builder = builder.sink(Box::new(Shared(Arc::clone(sink))));
            }
            let mut collector = builder.build().unwrap();
            for epoch in 0..2 {
                collector.process_trace(trace.packets());
                let returned = collector.seal();
                assert_eq!(returned.epoch(), epoch, "{case}");
                assert!(!returned.is_empty(), "{case}");
                assert!(!returned.introspection().is_empty(), "{case}");
                assert_eq!(collector.completed_epochs().len() as u64, epoch + 1);
                let retained = collector.completed_epochs().last().unwrap().clone();
                let received = sinks.iter().map(|sink| {
                    let sink = sink.lock().unwrap();
                    assert_eq!(sink.epochs().len() as u64, epoch + 1, "{case}");
                    sink.epochs().last().unwrap().clone()
                });
                for held in std::iter::once(retained).chain(received) {
                    // One allocation, hence the same records in the same
                    // order; compared anyway, as the contract.
                    assert!(
                        std::ptr::eq(held.as_records().as_ptr(), returned.as_records().as_ptr()),
                        "{case}: a holder has its own copy of the records"
                    );
                    assert_eq!(held.as_records(), returned.as_records(), "{case}");
                    assert_eq!(held.epoch(), returned.epoch(), "{case}");
                    assert_eq!(held.start_ns(), returned.start_ns(), "{case}");
                    assert_eq!(held.end_ns(), returned.end_ns(), "{case}");
                    assert_eq!(held.cardinality(), returned.cardinality(), "{case}");
                    assert_eq!(held.cost(), returned.cost(), "{case}");
                    assert_eq!(held.is_partial(), returned.is_partial(), "{case}");
                    assert_eq!(held.introspection(), returned.introspection(), "{case}");
                    let probe = returned.as_records()[0];
                    assert_eq!(held.estimate_size(probe.key_ref()), probe.count());
                }
            }
        }
    }

    #[test]
    fn sink_faults_park_in_the_health_machine_and_finish_reports_all() {
        use hashflow_monitor::SinkHealth;
        use hashflow_types::{FlowKey, Packet};

        struct Broken;
        impl RecordSink for Broken {
            fn export_epoch(&mut self, _s: &EpochSnapshot) -> io::Result<()> {
                Err(io::Error::other("export target down"))
            }
        }

        let mut collector = Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget())
            .sink(Box::new(Broken))
            .sink_health_policy(HealthPolicy {
                quarantine_after: 2,
                probe_interval: 4,
            })
            .retention(1)
            .answer_limit(1)
            .query("map src | distinct dst | reduce count".parse().unwrap())
            .build()
            .unwrap();
        let key = FlowKey::new([10, 0, 0, 1].into(), [10, 0, 0, 2].into(), 1, 80, 6);
        for epoch in 0..3u64 {
            collector.process_packet(&Packet::new(key, epoch * 1_000, 64));
            collector.seal();
        }
        // Two consecutive failures quarantined the sink; the third seal
        // was skipped past it (counted, not exported).
        let health = collector.sink_health();
        assert_eq!(health.len(), 1);
        assert_eq!(health[0].health, SinkHealth::Quarantined);
        assert_eq!(health[0].total_errors, 2);
        assert_eq!(health[0].skipped_epochs, 1);
        // The retention window slid: one report kept, two evicted, ledger
        // conserved.
        assert_eq!(collector.completed_epochs().len(), 1);
        let retention = collector.retention_drop_stats();
        assert_eq!(retention.offered_epochs(), 3);
        assert_eq!(retention.dropped_epochs(), 2);
        // The answer bank slid the same way.
        assert_eq!(collector.drain_query_answers().len(), 1);
        // finish() reports every parked error, not just the first.
        let errors = collector.finish().unwrap_err();
        assert_eq!(errors.len(), 2);
    }

    #[test]
    fn dropping_an_unfinished_collector_flushes_sinks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        struct CountingFinish(Arc<AtomicUsize>);
        impl RecordSink for CountingFinish {
            fn export_epoch(&mut self, _s: &EpochSnapshot) -> io::Result<()> {
                Ok(())
            }
            fn finish(&mut self) -> io::Result<()> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }

        let build = |flushes: &Arc<AtomicUsize>| {
            Collector::builder(AlgorithmKind::HashFlow)
                .budget(budget())
                .sink(Box::new(CountingFinish(Arc::clone(flushes))))
                .build()
                .unwrap()
        };
        let flushes = Arc::new(AtomicUsize::new(0));
        drop(build(&flushes)); // dropped without finish()
        assert_eq!(flushes.load(Ordering::Relaxed), 1, "Drop flushes");
        let flushes = Arc::new(AtomicUsize::new(0));
        let mut finished = build(&flushes);
        finished.finish().unwrap();
        drop(finished);
        assert_eq!(
            flushes.load(Ordering::Relaxed),
            1,
            "an explicit finish() is not double-flushed by Drop"
        );
    }

    #[test]
    fn collector_is_a_flow_monitor() {
        let trace = TraceGenerator::new(TraceProfile::Caida, 5).generate(500);
        let mut collector = Collector::builder(AlgorithmKind::FlowRadar)
            .budget(budget())
            .build()
            .unwrap();
        let monitor: &mut dyn FlowMonitor = &mut collector;
        monitor.process_trace(trace.packets());
        assert_eq!(monitor.name(), "FlowRadar");
        assert!(monitor.cost().packets > 0);
        let snapshot = monitor.seal();
        assert_eq!(snapshot.epoch(), 0);
        assert!(!snapshot.is_empty());
        assert_eq!(collector.completed_epochs().len(), 1);
    }

    #[test]
    fn queries_ride_the_pipeline_across_epochs() {
        use hashflow_types::{FlowKey, Packet};

        // Two epochs, 1 ms apart; one source fans out to 5 destinations
        // in epoch 0 and to 2 in epoch 1.
        let fanout: QueryPlan = "map src | distinct dst | reduce count"
            .parse()
            .expect("valid plan");
        let mut collector = Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget())
            .epoch_ns(1_000_000)
            .query(fanout.clone())
            .build()
            .unwrap();
        assert_eq!(collector.query_count(), 1);
        let key = |d: u32| FlowKey::new([10, 0, 0, 1].into(), d.into(), 1, 80, 6);
        for d in 0..5u32 {
            collector.process_packet(&Packet::new(key(d), 10, 64));
        }
        for d in 0..2u32 {
            collector.process_packet(&Packet::new(key(d), 2_000_000, 64));
        }
        // A plan attached mid-epoch answers over that whole epoch.
        let second = collector.attach_query(fanout).unwrap();
        assert_eq!(second, 1);
        collector.process_packet(&Packet::new(key(9), 2_100_000, 64));
        collector.seal();
        let banked = collector.drain_query_answers();
        assert_eq!(banked.len(), 2, "one answer set per sealed epoch");
        assert_eq!(
            banked[0].len(),
            1,
            "the first epoch sealed before the attach"
        );
        assert_eq!(banked[0][0].rows()[0].value, 5);
        assert_eq!(banked[1][0].rows()[0].value, 3);
        assert_eq!(banked[1][second], banked[1][0]);
    }

    #[test]
    fn metrics_cover_every_pipeline_layer() {
        use hashflow_obs::MetricsRegistry;

        let registry = MetricsRegistry::new();
        let trace = TraceGenerator::new(TraceProfile::Isp2, 3).generate(2_000);
        let mut collector = Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget())
            .shards(2)
            .epoch_ns(500_000)
            .query("map src | distinct dst | reduce count".parse().unwrap())
            .sink(Box::new(MemorySink::new()))
            .instruments(Instruments {
                registry: Some(registry.clone()),
                ..Instruments::default()
            })
            .build()
            .unwrap();
        collector.process_trace(trace.packets());
        collector.seal();
        let packets = trace.packets().len() as u64;
        let snap = collector.metrics_snapshot().expect("registry attached");
        // Rotation layer: every packet counted, epochs sealed.
        assert_eq!(
            snap.counter("hashflow_ingest_packets_total", &[]),
            Some(packets)
        );
        let sealed = snap.counter("hashflow_epochs_sealed_total", &[]).unwrap();
        assert_eq!(sealed, collector.completed_epochs().len() as u64);
        assert!(sealed >= 2);
        // Query layer: one banked answer set per sealed epoch.
        assert_eq!(
            snap.counter(
                "hashflow_offered_epochs_total",
                &[("component", "query_answers")]
            ),
            Some(sealed)
        );
        // Monitor layer: the sharded merge layer split the same packets.
        assert_eq!(snap.counter_sum("hashflow_shard_packets_total"), packets);
        // No sink trouble on the happy path.
        assert_eq!(snap.counter("hashflow_sink_errors_total", &[]), Some(0));
    }

    #[test]
    fn shed_completed_epochs_show_on_the_registry() {
        use hashflow_obs::MetricsRegistry;
        use hashflow_types::{FlowKey, Packet};

        let registry = MetricsRegistry::new();
        let mut collector = Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget())
            .retention(1)
            .instruments(Instruments {
                registry: Some(registry.clone()),
                ..Instruments::default()
            })
            .build()
            .unwrap();
        for epoch in 0..3u64 {
            for flow in 0..=epoch {
                collector.process_packet(&Packet::new(FlowKey::from_index(flow), epoch, 64));
            }
            collector.seal();
        }
        let ledger = collector.retention_drop_stats();
        assert_eq!((ledger.offered_epochs(), ledger.dropped_epochs()), (3, 2));
        let snap = registry.snapshot();
        let exported = |name: &str| snap.counter(name, &[("component", "epoch_retention")]);
        assert_eq!(
            exported("hashflow_offered_epochs_total"),
            Some(ledger.offered_epochs())
        );
        assert_eq!(
            exported("hashflow_dropped_epochs_total"),
            Some(ledger.dropped_epochs())
        );
        assert_eq!(
            exported("hashflow_offered_records_total"),
            Some(ledger.offered_records())
        );
        assert_eq!(
            exported("hashflow_dropped_records_total"),
            Some(ledger.dropped_records())
        );
        assert_eq!(ledger.dropped_records(), 1 + 2, "epochs 0 and 1 evicted");
    }

    #[test]
    fn require_records_gate_reaches_the_builder() {
        let err = match Collector::builder(AlgorithmKind::CountMin)
            .budget(budget())
            .require_records()
            .build()
        {
            Err(e) => e,
            Ok(_) => panic!("estimate-only kind must be rejected"),
        };
        assert!(err.to_string().contains("estimate-only"), "{err}");
        // A query plan needs records too: refused at build, and at attach
        // with the same error.
        let plan: QueryPlan = "map src | reduce sum".parse().unwrap();
        for kind in [AlgorithmKind::CountMin, AlgorithmKind::Fcm] {
            let refused = match Collector::builder(kind)
                .budget(budget())
                .query(plan.clone())
                .build()
            {
                Err(e) => e,
                Ok(_) => panic!("{kind}: a plan over an estimate-only kind must be refused"),
            };
            let mut bare = Collector::builder(kind).budget(budget()).build().unwrap();
            let at_attach = bare.attach_query(plan.clone()).unwrap_err();
            assert_eq!(refused.to_string(), at_attach.to_string(), "{kind}");
            assert_eq!(bare.query_count(), 0, "{kind}: nothing attached");
        }
    }

    #[test]
    fn builder_knobs_reach_the_registry() {
        // Sharded + seeded through the facade.
        let collector = Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget())
            .seed(11)
            .shards(2)
            .build()
            .unwrap();
        assert!(collector.monitor().memory_bits() <= budget().bits());
        // Registry errors surface unchanged.
        let err = match Collector::builder(AlgorithmKind::Elastic)
            .budget(budget())
            .shards(2)
            .build()
        {
            Err(e) => e,
            Ok(_) => panic!("expected a merge-layer error"),
        };
        assert!(err.to_string().contains("merge layer"));
    }
}
