//! The `Collector` facade: a registry-built monitor behind an epoch
//! rotator, and everything that happens to a sealed epoch — the whole
//! pipeline in one handle.

use crate::registry::{AlgorithmKind, MonitorBuilder};
use hashflow_monitor::{
    BatchPlan, BatchPlanner, CostSnapshot, DropStats, EpochRing, EpochRotator, EpochSnapshot,
    FlowMonitor, Instruments, IntrospectMetric, MemoryBudget, RecordSink, SinkErrors, SinkSet,
    SinkStatus,
};
use hashflow_obs::{MetricsRegistry, MetricsSnapshot, Severity};
use hashflow_query::{execute_snapshot, QueryId, QueryPlan, QueryResult};
use hashflow_types::{ConfigError, FlowKey, FlowRecord, Packet};
use std::sync::Arc;

/// A running collection pipeline: `monitor → rotator → Collector →
/// sinks`. The rotator seals and numbers each epoch; the `Collector`
/// exports, announces, answers and retains it.
///
/// Built by [`Collector::builder`]. Ingestion goes through the monitor's
/// batched hot path; when a packet's timestamp crosses the epoch edge
/// (or [`Collector::seal`] is called) the rotator seals the epoch into an
/// immutable [`EpochSnapshot`] while the live side keeps ingesting into
/// fresh tables. When the call returns, the `Collector` streams the
/// epoch to every attached sink and retains it in
/// [`Collector::completed_epochs`].
///
/// Declarative telemetry queries ([`QueryPlan`]) attach to the pipeline
/// via [`CollectorBuilder::query`] or [`Collector::attach_query`]: after
/// every call that sealed an epoch, each attached plan is evaluated once
/// over it and the answers are retained beside it
/// ([`Collector::drain_query_answers`]). Ingestion pays one length check
/// per call for them.
///
/// `Collector` itself implements [`FlowMonitor`], so anything that drives
/// a monitor — the software switch, the evaluation harness — can drive a
/// whole pipeline unchanged. Its observability handles are fixed at
/// build time ([`CollectorBuilder::instruments`]), when one call reaches
/// every layer; there is nothing to attach afterwards.
pub struct Collector {
    rotator: EpochRotator<Box<dyn FlowMonitor + Send>>,
    /// The registered algorithm, whose records capability gates plans.
    kind: AlgorithmKind,
    /// Attached plans, in attach order ([`QueryId`] is the index).
    plans: Vec<QueryPlan>,
    /// Attached sinks, each with its health machine.
    sinks: SinkSet,
    /// The handles fixed at build time: the sealed side announces each
    /// epoch on them, and [`Collector::metrics_snapshot`] reads the
    /// registry.
    instruments: Instruments,
    /// Sealed epochs taken from the rotator, oldest first, under the one
    /// retention limit; its ledger is `component="epoch_retention"`.
    completed: EpochRing<EpochSnapshot>,
    /// One entry per retained epoch's seal, the plans' answers in attach
    /// order, under the same limit. Drained independently of `completed`.
    answers: Vec<Arc<[QueryResult]>>,
    /// Set by [`Collector::finish`]; the `Drop` impl flushes the sinks
    /// best-effort when the pipeline is dropped without finishing.
    finished: bool,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("algorithm", &self.name())
            .field("epoch_len_ns", &self.rotator.epoch_len_ns())
            .field("completed", &self.completed.as_slice().len())
            .field("sinks", &self.sinks)
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
            retention: usize::MAX,
        }
    }

    /// Flushes locally accumulated counts and snapshots the attached
    /// registry — the single source every end-of-run report and export
    /// renders from, so printed and exported numbers cannot disagree.
    /// Returns `None` when no registry is attached.
    pub fn metrics_snapshot(&mut self) -> Option<MetricsSnapshot> {
        self.rotator.flush_metrics();
        let registry = self.instruments.registry.as_ref();
        registry.map(MetricsRegistry::snapshot)
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
        self.plans.push(plan);
        Ok(self.plans.len() - 1)
    }

    /// The attached query plans, in attach order: entry `i` is the plan
    /// with [`QueryId`] `i`.
    pub fn queries(&self) -> &[QueryPlan] {
        &self.plans
    }

    /// The query answers of each sealed epoch not yet drained or evicted,
    /// oldest first, each entry in attach order. Until a caller drains
    /// either store, entry `i` answers `completed_epochs()[i]`: both are
    /// pushed at one site, under the one [`CollectorBuilder::retention`].
    pub fn query_answers(&self) -> &[Arc<[QueryResult]>] {
        &self.answers
    }

    /// Drains [`Self::query_answers`] (oldest epoch first; each entry
    /// follows attach order), leaving the retained epochs in place.
    pub fn drain_query_answers(&mut self) -> Vec<Arc<[QueryResult]>> {
        std::mem::take(&mut self.answers)
    }

    /// Takes whatever the rotator sealed during the last call (it rotates
    /// on packet timestamps, so any ingest call can seal): one length
    /// check when nothing was sealed.
    #[inline]
    fn take_sealed(&mut self) {
        if !self.rotator.completed_epochs().is_empty() {
            self.retain_sealed();
        }
    }

    /// The sealed side, and its one push site. For each epoch the
    /// rotator sealed, in order: export to the sinks, the `epoch_sealed`
    /// event, the introspection gauges, the tracer's seal spans, the
    /// plans' answers, and retention of the epoch with its answers,
    /// evicting both stores down to the retention limit.
    fn retain_sealed(&mut self) {
        for snapshot in self.rotator.drain_completed() {
            self.sinks.export(&snapshot);
            announce(&self.instruments, &snapshot, !self.sinks.is_empty());
            // Without plans the entry is the shared empty slice.
            let answers = if self.plans.is_empty() {
                Arc::default()
            } else {
                (self.plans.iter())
                    .map(|plan| execute_snapshot(plan, &snapshot))
                    .collect()
            };
            self.completed.push(snapshot);
            self.answers.push(answers);
            let excess = self.answers.len().saturating_sub(self.completed.limit());
            self.answers.drain(..excess);
        }
    }

    /// Seals the running epoch into an immutable [`EpochSnapshot`]
    /// (streaming it to the sinks, retaining it in
    /// [`Self::completed_epochs`]) and resets the live side for the next
    /// epoch. The records are copied once, out of the monitor's tables;
    /// every holder shares that store, and the size-query index its
    /// first `estimate_size` builds — sealing hashes nothing.
    pub fn seal(&mut self) -> EpochSnapshot {
        let snapshot = self.rotator.rotate_now();
        self.take_sealed();
        snapshot
    }

    /// Every epoch sealed so far and not yet drained or evicted, oldest
    /// first; each shares its record store and index with the snapshot
    /// [`Self::seal`] returned and the one the sinks received. The store
    /// is **unbounded** unless [`CollectorBuilder::retention`] bounded it
    /// or a driving loop calls [`Self::drain_completed`]: a long run with
    /// neither keeps every epoch's records alive.
    pub fn completed_epochs(&self) -> &[EpochSnapshot] {
        self.completed.as_slice()
    }

    /// Drains [`Self::completed_epochs`], leaving the current epoch
    /// running. The completed store grows without bound until this is
    /// called, unless [`CollectorBuilder::retention`] bounded it.
    pub fn drain_completed(&mut self) -> Vec<EpochSnapshot> {
        self.completed.drain()
    }

    /// The live monitor (current-epoch state).
    pub fn monitor(&self) -> &dyn FlowMonitor {
        self.rotator.inner()
    }

    /// Per-sink health: state-machine position (healthy / degraded /
    /// quarantined), failure counts, epochs skipped while quarantined and
    /// the most recent error. Indexed in attach order.
    pub fn sink_health(&self) -> Vec<SinkStatus> {
        self.sinks.health()
    }

    /// The completed-epoch retention ledger (offered / dropped /
    /// delivered, conserved by construction).
    pub fn retention_drop_stats(&self) -> DropStats {
        self.completed.drop_stats().clone()
    }

    /// Ends the collection run ([`EpochRotator::finish`]): seals a
    /// running epoch, marked [partial](EpochSnapshot::is_partial) before
    /// the sinks see it, exports and retains it, then flushes every sink,
    /// quarantined ones included. After [`Self::seal`] nothing is running
    /// to seal.
    ///
    /// # Errors
    ///
    /// Returns **every** sink error parked from earlier rotations plus
    /// any export or flush failures of this call, as one [`SinkErrors`]
    /// bundle (which converts into `io::Error` via `?` where an
    /// `io::Result` is expected).
    pub fn finish(&mut self) -> Result<(), SinkErrors> {
        self.finished = true;
        self.rotator.finish();
        self.take_sealed();
        self.sinks.finish()
    }
}

/// Announces one sealed epoch on the pipeline's handles: the
/// `epoch_sealed` event, the introspection report as
/// `hashflow_introspect_*` gauges (one per metric name), and an
/// `epoch_seal` span for each sampled flow, with an `export` span when
/// sinks are attached.
fn announce(instruments: &Instruments, snapshot: &EpochSnapshot, exported: bool) {
    if let Some(recorder) = &instruments.recorder {
        let partial = snapshot.is_partial();
        recorder.record_with(
            if partial {
                Severity::Warn
            } else {
                Severity::Info
            },
            "epoch_sealed",
            format!(
                "epoch {} sealed: {} records{}",
                snapshot.epoch(),
                snapshot.len(),
                if partial { " (partial)" } else { "" }
            ),
            vec![
                ("epoch".to_string(), snapshot.epoch().to_string()),
                ("records".to_string(), snapshot.len().to_string()),
                ("partial".to_string(), partial.to_string()),
            ],
        );
    }
    if let Some(registry) = &instruments.registry {
        for metric in snapshot.introspection() {
            registry
                .gauge(&metric.gauge_name(), &[])
                .set(metric.gauge_value());
        }
    }
    if let Some(tracer) = &instruments.tracer {
        for rec in snapshot.records() {
            let key = rec.key();
            if tracer.is_sampled(&key) {
                tracer.span(
                    &key,
                    "epoch_seal",
                    format!("epoch {} count {}", snapshot.epoch(), rec.count()),
                );
                if exported {
                    tracer.span(&key, "export", format!("epoch {}", snapshot.epoch()));
                }
            }
        }
    }
}

impl Drop for Collector {
    /// Best-effort sink flush for pipelines dropped without
    /// [`Collector::finish`]: buffered exports are not silently lost.
    /// It seals nothing: the running epoch is dropped with the pipeline.
    /// Errors are discarded — panicking in `Drop` is never acceptable —
    /// so call `finish()` explicitly when you need to observe them.
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.sinks.finish();
        }
    }
}

impl FlowMonitor for Collector {
    fn process_packet(&mut self, packet: &Packet) {
        self.rotator.process_packet(packet);
        self.take_sealed();
    }

    fn process_batch(&mut self, packets: &[Packet]) {
        self.rotator.process_batch(packets);
        self.take_sealed();
    }

    fn planner(&self) -> Option<Box<dyn BatchPlanner>> {
        self.rotator.planner()
    }

    fn process_planned(&mut self, packets: &[Packet], plan: &BatchPlan) {
        self.rotator.process_planned(packets, plan);
        self.take_sealed();
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

    /// Live-state introspection of the wrapped monitor (the sealed
    /// per-epoch report travels in each [`EpochSnapshot`]).
    fn introspection(&self) -> Vec<IntrospectMetric> {
        self.rotator.introspection()
    }

    /// Resets the live monitor **and** the retained epochs and answers:
    /// a reset is a fresh collection run, so stale epochs must not
    /// prepend themselves to its drains. The retention ledger restarts
    /// too, registered views included.
    fn reset(&mut self) {
        self.rotator.reset();
        self.completed.reset();
        self.answers.clear();
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
    retention: usize,
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
    /// to **every** layer below it, and the `Collector` keeps them for
    /// its sinks and its sealed side, so none can be left bare:
    ///
    /// * `registry` — the rotation layer and the sinks register into
    ///   it, each sealed epoch's introspection report
    ///   lands in `hashflow_introspect_*` gauges, the retention ledger is
    ///   exported under `component="epoch_retention"`, and
    ///   [`Collector::metrics_snapshot`] exposes the combined state;
    /// * `recorder` — rotation gaps, epoch seals, and the sinks'
    ///   degrade/quarantine/recover transitions (quarantine entry also
    ///   dumps);
    /// * `tracer` — sampled flows record placement-stage spans in
    ///   HashFlow (each once per flow, stage and epoch, then a
    ///   `placement` span with the stage counts at the seal), and
    ///   `epoch_seal`/`export` spans on the sealed side.
    #[must_use]
    pub fn instruments(mut self, instruments: Instruments) -> Self {
        self.instruments = instruments;
        self
    }

    /// Keeps the newest `max_epochs` sealed epochs, and the newest
    /// `max_epochs` entries of query answers; evicted epochs are
    /// accounted in [`Collector::retention_drop_stats`].
    #[must_use]
    pub fn retention(mut self, max_epochs: usize) -> Self {
        self.retention = max_epochs;
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
        let mut rotator = EpochRotator::new(self.monitor.build()?, self.epoch_len_ns);
        rotator.instrument(&self.instruments);
        let mut sinks = SinkSet::default();
        sinks.instrument(&self.instruments);
        for sink in self.sinks {
            sinks.add(sink);
        }
        let mut completed = EpochRing::new(|snapshot: &EpochSnapshot| snapshot.len() as u64);
        completed.set_limit(self.retention);
        if let Some(registry) = &self.instruments.registry {
            completed.drop_stats().register(registry, "epoch_retention");
        }
        Ok(Collector {
            rotator,
            kind,
            plans: self.queries,
            sinks,
            instruments: self.instruments,
            completed,
            answers: Vec::new(),
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
        for sink_count in 0..=2 {
            let case = format!("{sink_count} sink(s)");
            let sinks: Vec<Arc<Mutex<MemorySink>>> = (0..sink_count)
                .map(|_| Arc::new(Mutex::new(MemorySink::new())))
                .collect();
            let mut builder = Collector::builder(AlgorithmKind::HashFlow).budget(budget());
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
                    assert!(
                        std::ptr::eq(
                            held.introspection().as_ptr(),
                            returned.introspection().as_ptr()
                        ),
                        "{case}: a holder has its own copy of the introspection"
                    );
                    let probe = returned.as_records()[0];
                    assert_eq!(held.estimate_size(probe.key_ref()), probe.count());
                }
            }
        }
    }

    #[test]
    fn sink_faults_park_in_the_health_machine_and_finish_reports_all() {
        use hashflow_monitor::{SinkHealth, SINK_QUARANTINE_AFTER};
        use hashflow_types::{FlowKey, Packet};

        let mut collector = Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget())
            .sink(Box::new(Broken("export target down")))
            .retention(1)
            .query("map src | distinct dst | reduce count".parse().unwrap())
            .build()
            .unwrap();
        let key = FlowKey::new([10, 0, 0, 1].into(), [10, 0, 0, 2].into(), 1, 80, 6);
        let strikes = u64::from(SINK_QUARANTINE_AFTER);
        for epoch in 0..=strikes {
            collector.process_packet(&Packet::new(key, epoch * 1_000, 64));
            collector.seal();
        }
        // Consecutive failures quarantined the sink; the last seal was
        // skipped past it (counted, not exported).
        let health = collector.sink_health();
        assert_eq!(health.len(), 1);
        assert_eq!(health[0].health, SinkHealth::Quarantined);
        assert_eq!(health[0].total_errors, strikes);
        assert_eq!(health[0].skipped_epochs, 1);
        // The retention window slid: one report kept, the rest evicted,
        // ledger conserved.
        assert_eq!(collector.completed_epochs().len(), 1);
        let retention = collector.retention_drop_stats();
        assert_eq!(retention.offered_epochs(), strikes + 1);
        assert_eq!(retention.dropped_epochs(), strikes);
        // The answers slid the same way.
        assert_eq!(collector.drain_query_answers().len(), 1);
        // finish() reports every parked error, not just the first.
        let errors = collector.finish().unwrap_err();
        assert_eq!(errors.len() as u64, strikes);
    }

    /// A sink whose every export fails with `message`.
    struct Broken(&'static str);
    impl RecordSink for Broken {
        fn export_epoch(&mut self, _s: &EpochSnapshot) -> io::Result<()> {
            Err(io::Error::other(self.0))
        }
    }

    /// A never-rotating HashFlow collector over `registry`, exporting to
    /// a sink that always fails.
    fn metered(registry: &MetricsRegistry) -> Collector {
        Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget())
            .sink(Box::new(Broken("down")))
            .instruments(Instruments {
                registry: Some(registry.clone()),
                ..Instruments::default()
            })
            .build()
            .unwrap()
    }

    #[test]
    fn sinks_receive_every_sealed_epoch() {
        use hashflow_monitor::JsonLinesSink;

        let mut collector = Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget())
            .epoch_ns(1_000)
            .sink(Box::new(MemorySink::new()))
            .sink(Box::new(JsonLinesSink::new(Vec::new())))
            .build()
            .unwrap();
        assert_eq!(collector.sink_health().len(), 2);
        for t in 0..3u64 {
            collector.process_packet(&pkt(1, t as u8, t * 1_000)); // one epoch per packet
        }
        collector.seal(); // flush the tail
        assert!(collector.sink_health().iter().all(|s| s.total_errors == 0));
        assert!(collector.finish().is_ok());
        // Sealed history and the epoch counter agree with what streamed.
        assert_eq!(collector.completed_epochs().len(), 3);

        let mut broken = Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget())
            .sink(Box::new(Broken("wire cut")))
            .build()
            .unwrap();
        broken.process_packet(&pkt(1, 1, 0));
        broken.seal();
        broken.process_packet(&pkt(1, 2, 5));
        broken.seal();
        // Every failure is visible: per-sink health plus the full error
        // list from finish — not just the first parked error.
        let health = broken.sink_health();
        assert_eq!(health[0].total_errors, 2);
        assert_eq!(
            health[0].last_error.as_deref(),
            Some("wire cut"),
            "latest error message is surfaced"
        );
        let errors = broken.finish().unwrap_err();
        assert_eq!(errors.len(), 2);
        assert!(errors
            .iter()
            .all(|(i, e)| i == 0 && e.to_string().contains("wire cut")));
    }

    #[test]
    fn metrics_time_sink_exports_and_count_errors() {
        let registry = MetricsRegistry::new();
        let mut collector = metered(&registry);
        collector.process_packet(&pkt(1, 1, 0));
        collector.seal();
        collector.process_packet(&pkt(1, 2, 5));
        collector.seal();
        let snap = registry.snapshot();
        // Every failed export counts (not just the first parked error).
        assert_eq!(snap.counter("hashflow_sink_errors_total", &[]), Some(2));
        assert_eq!(collector.sink_health()[0].total_errors, 2);
        // Each sealed epoch's fan-out was timed once.
        let timed = snap.samples().iter().find_map(|s| match &s.value {
            hashflow_obs::SampleValue::Histogram(h) if s.name == "hashflow_sink_export_ns" => {
                Some(h.count)
            }
            _ => None,
        });
        assert_eq!(timed, Some(2));
    }

    #[test]
    fn quarantined_sink_skips_are_counted_in_metrics() {
        use hashflow_monitor::SINK_QUARANTINE_AFTER;

        let registry = MetricsRegistry::new();
        let mut collector = metered(&registry);
        collector.process_packet(&pkt(1, 1, 0));
        for _ in 0..SINK_QUARANTINE_AFTER {
            collector.seal(); // fails; the last failure quarantines
        }
        collector.seal(); // skipped
        collector.seal(); // skipped
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("hashflow_sink_errors_total", &[]),
            Some(u64::from(SINK_QUARANTINE_AFTER))
        );
        assert_eq!(
            snap.counter("hashflow_sink_skipped_epochs_total", &[]),
            Some(2)
        );
        assert_eq!(snap.gauge("hashflow_sinks_quarantined", &[]), Some(1));
        assert_eq!(collector.sink_health()[0].skipped_epochs, 2);
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
    fn finish_seals_a_running_epoch_partial_and_nothing_after_a_seal() {
        use std::sync::{Arc, Mutex};

        /// Records each exported epoch's partial flag.
        struct Flags(Arc<Mutex<Vec<bool>>>);
        impl RecordSink for Flags {
            fn export_epoch(&mut self, s: &EpochSnapshot) -> io::Result<()> {
                self.0.lock().unwrap().push(s.is_partial());
                Ok(())
            }
        }

        let trace = TraceGenerator::new(TraceProfile::Caida, 5).generate(500);
        for seal_first in [false, true] {
            let flags = Arc::new(Mutex::new(Vec::new()));
            let mut collector = Collector::builder(AlgorithmKind::HashFlow)
                .budget(budget())
                .sink(Box::new(Flags(Arc::clone(&flags))))
                .build()
                .unwrap();
            collector.process_trace(trace.packets());
            if seal_first {
                collector.seal();
            }
            collector.finish().unwrap();
            // Ingest then finish: the truncated epoch, marked partial.
            // Seal then finish: the sealed epoch, complete, and no other.
            assert_eq!(
                *flags.lock().unwrap(),
                [!seal_first],
                "seal first {seal_first}"
            );
            let retained = collector.completed_epochs();
            assert_eq!(retained.len(), 1, "seal first {seal_first}");
            assert_eq!(retained[0].is_partial(), !seal_first);
            assert!(!retained[0].is_empty());
        }
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
        assert_eq!(collector.queries().len(), 1);
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

    /// A packet from `10.0.0.src` to `10.0.0.dst` at `ts`.
    fn pkt(src: u8, dst: u8, ts: u64) -> Packet {
        let key = FlowKey::new([10, 0, 0, src].into(), [10, 0, 0, dst].into(), 1, 2, 6);
        Packet::new(key, ts, 64)
    }

    fn fanout() -> QueryPlan {
        "map src | distinct dst | reduce count".parse().unwrap()
    }

    /// The value of the first row of plan 0's answer in entry `epoch`.
    fn first_value(collector: &Collector, epoch: usize) -> u64 {
        collector.query_answers()[epoch][0].rows()[0].value
    }

    #[test]
    fn answers_track_every_ingestion_path() {
        let mut collector = Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget())
            .epoch_ns(100)
            .query(fanout())
            .build()
            .unwrap();
        // Each call's first packet crosses an epoch edge, so the scalar,
        // batched and planned paths each seal an epoch mid-call.
        collector.process_packet(&pkt(1, 1, 0));
        assert!(collector.query_answers().is_empty(), "nothing sealed yet");
        collector.process_batch(&[pkt(1, 1, 100), pkt(1, 2, 100)]);
        assert_eq!(collector.query_answers().len(), 1, "the batch sealed");
        let planned = [
            pkt(1, 1, 200),
            pkt(1, 2, 200),
            pkt(1, 3, 200),
            pkt(2, 1, 200),
        ];
        let planner = collector.planner().expect("HashFlow plans");
        let mut plan = BatchPlan::default();
        planner.plan(&planned, &mut plan);
        collector.process_planned(&planned, &plan);
        assert_eq!(
            collector.query_answers().len(),
            2,
            "the planned batch sealed"
        );
        collector.process_packet(&pkt(1, 9, 300));
        assert_eq!(collector.query_answers().len(), 3, "the packet sealed");
        collector.seal();
        let fanouts: Vec<u64> = (0..4).map(|e| first_value(&collector, e)).collect();
        assert_eq!(fanouts, [1, 2, 3, 1]);
        // src .2 contacted one destination in the planned epoch.
        assert_eq!(collector.query_answers()[2][0].rows()[1].value, 1);
    }

    #[test]
    fn each_seal_retains_one_answer_entry() {
        let mut collector = Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget())
            .query(fanout())
            .build()
            .unwrap();
        collector.process_batch(&[pkt(1, 1, 0), pkt(1, 2, 0)]);
        assert_eq!(collector.seal().len(), 2);
        collector.process_packet(&pkt(1, 7, 0));
        collector.seal();
        // An epoch without packets still gets one (empty) answer per plan.
        collector.seal();
        let answers = collector.drain_query_answers();
        assert_eq!(answers.len(), 3);
        assert_eq!(answers[0][0].rows()[0].value, 2);
        assert_eq!(
            answers[1][0].rows()[0].value,
            1,
            "the next epoch starts empty"
        );
        assert!(answers[2][0].is_empty());
        assert!(collector.query_answers().is_empty());
        // The two drains are independent.
        assert_eq!(collector.completed_epochs().len(), 3);
        assert_eq!(collector.drain_completed().len(), 3);
        collector.seal();
        assert_eq!(collector.query_answers().len(), 1);
    }

    #[test]
    fn reset_clears_epochs_and_answers() {
        let mut collector = Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget())
            .query(fanout())
            .build()
            .unwrap();
        collector.process_packet(&pkt(1, 1, 0));
        collector.seal();
        collector.process_packet(&pkt(1, 2, 0));
        collector.reset();
        assert!(collector.flow_records().is_empty());
        assert!(collector.completed_epochs().is_empty());
        assert!(
            collector.query_answers().is_empty(),
            "a reset run must not prepend stale epochs"
        );
        assert_eq!(collector.retention_drop_stats().offered_epochs(), 0);
        collector.seal();
        assert!(
            collector.query_answers()[0][0].is_empty(),
            "reset packets are gone"
        );
    }

    #[test]
    fn answers_pair_with_the_epochs_one_batch_sealed() {
        let plan = fanout();
        let mut collector = Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget())
            .epoch_ns(500)
            .retention(2)
            .query(plan.clone())
            .build()
            .unwrap();
        // 256 packets 10 ns apart span 2,550 ns: five edges of 500 ns.
        let batch: Vec<Packet> = (0..256u64)
            .map(|i| pkt(1 + (i % 3) as u8, (i % 7) as u8, i * 10))
            .collect();
        collector.process_batch(&batch);
        let ledger = collector.retention_drop_stats();
        assert!(
            ledger.offered_epochs() >= 3,
            "the batch crossed three edges"
        );
        let epochs = collector.completed_epochs();
        assert_eq!(epochs.len(), 2);
        assert_eq!(collector.query_answers().len(), 2);
        for (i, epoch) in epochs.iter().enumerate() {
            assert_eq!(epoch.epoch(), ledger.offered_epochs() - 2 + i as u64);
            assert_eq!(
                *collector.query_answers()[i],
                [execute_snapshot(&plan, epoch)],
                "entry {i}"
            );
        }
        let conserved = |l: &DropStats| {
            l.offered_epochs() == l.delivered_epochs() + l.dropped_epochs()
                && l.offered_records() == l.delivered_records() + l.dropped_records()
        };
        assert!(conserved(&ledger));
        assert_eq!(ledger.dropped_epochs(), ledger.offered_epochs() - 2);
        let retained: u64 = epochs.iter().map(|e| e.len() as u64).sum();
        assert_eq!(ledger.delivered_records(), retained);
        // Draining the answers leaves the epochs; the next seal evicts
        // one epoch and no answer.
        collector.drain_query_answers();
        collector.seal();
        assert_eq!(collector.completed_epochs().len(), 2);
        assert_eq!(collector.query_answers().len(), 1);
        assert!(conserved(&collector.retention_drop_stats()));
    }

    #[test]
    fn a_plan_attached_mid_epoch_answers_the_whole_epoch() {
        let mut collector = Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget())
            .build()
            .unwrap();
        collector.process_packet(&pkt(1, 1, 0));
        let id = collector.attach_query(fanout()).unwrap();
        collector.process_packet(&pkt(1, 2, 0));
        collector.seal();
        assert_eq!(
            collector.query_answers()[0][id].rows()[0].value,
            2,
            "pre-attach packets count"
        );
    }

    #[test]
    fn retention_evicts_whole_epochs_with_their_answers_and_counts_them() {
        let mut collector = Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget())
            .retention(2)
            .query(fanout())
            .build()
            .unwrap();
        for epoch in 0..4u8 {
            collector.process_packet(&pkt(1, epoch, 0));
            collector.seal();
        }
        assert_eq!(collector.query_answers().len(), 2);
        assert_eq!(collector.completed_epochs().len(), 2);
        assert_eq!(collector.retention_drop_stats().dropped_epochs(), 2);
        // Draining the answers empties them; the next seal evicts the
        // oldest retained epoch, and no answer with it.
        assert_eq!(collector.drain_query_answers().len(), 2);
        collector.process_packet(&pkt(1, 9, 0));
        collector.seal();
        assert_eq!(collector.query_answers().len(), 1);
        assert_eq!(first_value(&collector, 0), 1);
        assert_eq!(collector.completed_epochs().len(), 2);
        assert_eq!(collector.retention_drop_stats().dropped_epochs(), 3);
    }

    #[test]
    fn retention_keeps_the_answers_of_the_freshest_epochs() {
        let mut collector = Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget())
            .retention(2)
            .query(fanout())
            .build()
            .unwrap();
        for epoch in 0..4u8 {
            for dst in 0..=epoch {
                collector.process_packet(&pkt(1, dst, 0));
            }
            collector.seal();
        }
        // The window slid: the two freshest epochs (3 and 4 distinct
        // dsts) remain, the oldest were evicted and counted.
        assert_eq!(collector.query_answers().len(), 2);
        assert_eq!(first_value(&collector, 0), 3);
        assert_eq!(first_value(&collector, 1), 4);
        let drops = collector.retention_drop_stats();
        assert_eq!(drops.offered_epochs(), 4);
        assert_eq!(drops.dropped_epochs(), 2);
        assert_eq!(drops.delivered_epochs(), 2);
    }

    #[test]
    fn retention_bounds_the_completed_store() {
        // A sliding window over the most recent epochs.
        let mut collector = Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget())
            .epoch_ns(10)
            .retention(2)
            .build()
            .unwrap();
        for t in 0..5u64 {
            collector.process_packet(&pkt(1, t as u8, t * 10)); // seals epochs 0..=3
        }
        let retained: Vec<u64> = collector
            .completed_epochs()
            .iter()
            .map(|e| e.epoch())
            .collect();
        assert_eq!(retained, vec![2, 3]);
        let ledger = collector.retention_drop_stats();
        assert_eq!(ledger.offered_epochs(), 4, "each sealed epoch offered once");
        assert_eq!(ledger.dropped_epochs(), 2, "two evicted by the window");
        assert_eq!(ledger.delivered_epochs(), 2);
        // Conservation: delivered (derived) equals what is retained.
        assert_eq!(
            ledger.delivered_records(),
            collector
                .completed_epochs()
                .iter()
                .map(|e| e.len() as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn metrics_cover_every_pipeline_layer() {
        use hashflow_obs::MetricsRegistry;

        let registry = MetricsRegistry::new();
        let trace = TraceGenerator::new(TraceProfile::Isp2, 3).generate(2_000);
        let mut collector = Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget())
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
        // Retention: every sealed epoch offered once, with one answer
        // entry beside it.
        assert_eq!(
            snap.counter(
                "hashflow_offered_epochs_total",
                &[("component", "epoch_retention")]
            ),
            Some(sealed)
        );
        assert_eq!(collector.query_answers().len() as u64, sealed);
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
            assert_eq!(bare.queries().len(), 0, "{kind}: nothing attached");
        }
    }

    #[test]
    fn builder_knobs_reach_the_registry() {
        // Seeded through the facade.
        let collector = Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget())
            .seed(11)
            .build()
            .unwrap();
        assert!(collector.monitor().memory_bits() <= budget().bits());
        // Registry errors surface unchanged.
        let err = match Collector::builder(AlgorithmKind::Elastic).build() {
            Err(e) => e,
            Ok(_) => panic!("expected a missing-budget error"),
        };
        assert!(err.to_string().contains("memory budget"), "{err}");
    }
}
