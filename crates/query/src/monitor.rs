//! The [`QueryMonitor`] adapter: query plans riding the ingestion paths.
//!
//! `QueryMonitor<M>` wraps any [`FlowMonitor`] and implements
//! [`FlowMonitor`] itself, tee-ing every ingested packet into the
//! attached plans' [`StreamingQuery`] state while forwarding to the inner
//! monitor unchanged. Because it *is* a monitor, plans automatically ride
//! every existing ingestion path: the scalar `process_packet` loop, the
//! batched `process_batch` hot path, a `ShardedMonitor` wrapped inside,
//! and the `Collector`/`EpochRotator` pipeline outside (both drive the
//! adapter through the trait).
//!
//! Epoch semantics: plans are epoch-scoped like the tables themselves.
//! [`FlowMonitor::seal`] (and therefore every rotation layer) banks the
//! streaming answers of the closing epoch — retrievable via
//! [`QueryMonitor::sealed_answers`]/[`QueryMonitor::drain_sealed_answers`]
//! — and restarts the state alongside the fresh tables.

use crate::exec::{QueryResult, StreamingQuery};
use crate::plan::QueryPlan;
use hashflow_monitor::{
    CostSnapshot, DropStats, EpochRing, EpochSnapshot, FlowMonitor, Instruments, IntrospectMetric,
};
use hashflow_obs::{Counter, MetricsRegistry};
use hashflow_types::{FlowKey, FlowRecord, Packet};

/// Identifier of a plan attached to a [`QueryMonitor`] (its attach
/// order), used to address [`QueryMonitor::answer`].
pub type QueryId = usize;

/// A [`FlowMonitor`] wrapper evaluating attached query plans
/// incrementally against the live stream.
///
/// # Examples
///
/// ```
/// use hashflow_monitor::FlowMonitor;
/// use hashflow_query::{QueryMonitor, QueryPlan};
/// use hashflow_types::{FlowKey, Packet};
///
/// # use hashflow_monitor::CostSnapshot;
/// # #[derive(Default)]
/// # struct Null;
/// # impl FlowMonitor for Null {
/// #     fn process_packet(&mut self, _: &Packet) {}
/// #     fn flow_records(&self) -> Vec<hashflow_types::FlowRecord> { Vec::new() }
/// #     fn estimate_size(&self, _: &FlowKey) -> u32 { 0 }
/// #     fn estimate_cardinality(&self) -> f64 { 0.0 }
/// #     fn memory_bits(&self) -> usize { 0 }
/// #     fn name(&self) -> &'static str { "Null" }
/// #     fn cost(&self) -> CostSnapshot { CostSnapshot::default() }
/// #     fn reset(&mut self) {}
/// # }
/// let plan: QueryPlan = "map src | distinct dst | reduce count".parse()?;
/// let mut qm = QueryMonitor::new(Null);
/// let fanout = qm.attach(plan);
/// for dst in 0..5u32 {
///     let key = FlowKey::new([10, 0, 0, 1].into(), dst.into(), 1, 2, 6);
///     qm.process_packet(&Packet::new(key, 0, 64));
/// }
/// assert_eq!(qm.answer(fanout).rows()[0].value, 5);
/// # Ok::<(), hashflow_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct QueryMonitor<M> {
    inner: M,
    queries: Vec<StreamingQuery>,
    /// Packets evaluated per plan, parallel to `queries` — counters so
    /// the same handles can live in a [`MetricsRegistry`].
    eval_packets: Vec<Counter>,
    /// Streaming answers banked at each seal, oldest epoch first; one
    /// entry per attached plan, in attach order. Its ledger counts one
    /// record per answer (`component="query_answers"` when registered).
    sealed: EpochRing<Vec<QueryResult>>,
    /// Registry plans attached *after* [`FlowMonitor::instrument`]
    /// register into.
    metrics: Option<MetricsRegistry>,
}

impl<M: FlowMonitor> QueryMonitor<M> {
    /// Wraps a monitor with no plans attached (a transparent forwarder
    /// until [`Self::attach`] is called). Banked answers are unbounded;
    /// see [`Self::set_answer_limit`] for long-running pipelines.
    pub fn new(inner: M) -> Self {
        QueryMonitor {
            inner,
            queries: Vec::new(),
            eval_packets: Vec::new(),
            sealed: EpochRing::new(|answers: &Vec<QueryResult>| answers.len() as u64),
            metrics: None,
        }
    }

    /// Banks the answers of the newest `max_epochs` sealed epochs, so a
    /// long-running rotation pipeline that never (or rarely) calls
    /// [`Self::drain_sealed_answers`] cannot grow the bank without bound.
    /// Older epochs' answers are evicted **whole** and counted
    /// ([`Self::answer_drop_stats`]).
    pub fn set_answer_limit(&mut self, max_epochs: usize) {
        self.sealed.set_limit(max_epochs);
    }

    /// The full answer-bank ledger (offered/dropped/delivered epochs and
    /// per-plan answers; conservation holds by construction).
    pub fn answer_drop_stats(&self) -> &DropStats {
        self.sealed.drop_stats()
    }

    /// Attaches a plan; its streaming state starts empty **now** (packets
    /// ingested earlier in the epoch are not replayed). Returns the id
    /// addressing this plan's answers.
    pub fn attach(&mut self, plan: QueryPlan) -> QueryId {
        self.queries.push(StreamingQuery::new(plan));
        self.eval_packets.push(Counter::new());
        let id = self.queries.len() - 1;
        if let Some(registry) = &self.metrics {
            register_eval_counter(registry, id, &self.eval_packets[id]);
        }
        id
    }

    /// Number of attached plans.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// The current-epoch streaming answer of one attached plan.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Self::attach`].
    pub fn answer(&self, id: QueryId) -> QueryResult {
        self.queries[id].answer()
    }

    /// Current-epoch streaming answers of every attached plan, in attach
    /// order.
    pub fn answer_all(&self) -> Vec<QueryResult> {
        self.queries.iter().map(StreamingQuery::answer).collect()
    }

    /// Streaming answers banked by past seals (oldest epoch first; inner
    /// vectors follow attach order).
    pub fn sealed_answers(&self) -> &[Vec<QueryResult>] {
        self.sealed.as_slice()
    }

    /// Drains the banked per-epoch answers, leaving the running epoch's
    /// state untouched.
    pub fn drain_sealed_answers(&mut self) -> Vec<Vec<QueryResult>> {
        self.sealed.drain()
    }

    /// The wrapped monitor.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Mutable access to the wrapped monitor.
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.inner
    }

    /// Unwraps the adapter, discarding query state.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

/// Registers one plan's evaluation counter under its attach id.
fn register_eval_counter(registry: &MetricsRegistry, id: QueryId, counter: &Counter) {
    registry.register_counter(
        "hashflow_query_eval_packets_total",
        &[("plan", &id.to_string())],
        counter.clone(),
    );
}

impl<M: FlowMonitor> FlowMonitor for QueryMonitor<M> {
    fn process_packet(&mut self, packet: &Packet) {
        for (q, evals) in self.queries.iter_mut().zip(&self.eval_packets) {
            q.observe(packet);
            evals.inc();
        }
        self.inner.process_packet(packet);
    }

    fn process_batch(&mut self, packets: &[Packet]) {
        for (q, evals) in self.queries.iter_mut().zip(&self.eval_packets) {
            q.observe_batch(packets);
            evals.add(packets.len() as u64);
        }
        // The inner batched hot path (hash lanes, prefetch) is preserved.
        self.inner.process_batch(packets);
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

    fn faults(&self) -> Vec<String> {
        self.inner.faults()
    }

    fn introspection(&self) -> Vec<IntrospectMetric> {
        self.inner.introspection()
    }

    /// Registers this adapter's telemetry and remembers the registry so
    /// plans attached later register too, then forwards inward:
    ///
    /// | Metric | Type | Meaning |
    /// |---|---|---|
    /// | `hashflow_query_eval_packets_total{plan=i}` | counter | packets evaluated against plan `i` |
    /// | `hashflow_dropped_epochs_total{component="query_answers"}` | counter | answer epochs evicted at the bank limit |
    /// | `hashflow_dropped_records_total{component="query_answers"}` | counter | per-plan answers inside evicted epochs |
    fn instrument(&mut self, instruments: &Instruments) {
        if let Some(registry) = &instruments.registry {
            self.sealed.drop_stats().register(registry, "query_answers");
            for (id, counter) in self.eval_packets.iter().enumerate() {
                register_eval_counter(registry, id, counter);
            }
        }
        self.metrics = instruments.registry.clone();
        self.inner.instrument(instruments);
    }

    /// Resets the inner monitor, every plan's running state, **and** the
    /// banked per-epoch answers — a reset is a fresh collection run, so
    /// stale banked epochs must not prepend themselves to the next run's
    /// drains. The per-plan evaluation counters and drop accounting
    /// restart too (registered registry views included).
    fn reset(&mut self) {
        self.inner.reset();
        for q in &mut self.queries {
            q.reset();
        }
        for evals in &self.eval_packets {
            evals.reset();
        }
        self.sealed.reset();
    }

    /// Seals the inner monitor and banks this epoch's streaming answers
    /// (see [`QueryMonitor::sealed_answers`]) before restarting the query
    /// state for the next epoch.
    fn seal(&mut self) -> EpochSnapshot {
        self.sealed.push(self.answer_all());
        let snapshot = self.inner.seal();
        for q in &mut self.queries {
            q.reset();
        }
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashflow_monitor::CostRecorder;
    use std::collections::HashMap;

    /// Exact reference monitor (mirrors the `hashflow-monitor` doctest).
    #[derive(Default)]
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

    fn pkt(src: u8, dst: u8) -> Packet {
        let key = FlowKey::new([10, 0, 0, src].into(), [10, 0, 0, dst].into(), 1, 2, 6);
        Packet::new(key, 0, 64)
    }

    fn fanout_plan() -> QueryPlan {
        "map src | distinct dst | reduce count".parse().unwrap()
    }

    #[test]
    fn adapter_forwards_the_monitor_surface() {
        let mut qm = QueryMonitor::new(Exact::default());
        assert_eq!(qm.query_count(), 0);
        qm.process_packet(&pkt(1, 1));
        qm.process_batch(&[pkt(1, 2), pkt(1, 2)]);
        qm.process_trace(&[pkt(2, 1)]);
        assert_eq!(qm.name(), "Exact");
        assert_eq!(qm.flow_records().len(), 3);
        assert_eq!(qm.estimate_cardinality(), 3.0);
        assert_eq!(qm.estimate_size(&pkt(1, 2).key()), 2);
        assert_eq!(qm.heavy_hitters(2).len(), 1);
        assert_eq!(qm.cost().packets, 4);
        assert_eq!(qm.memory_bits(), 0);
        assert_eq!(qm.inner().flows.len(), 3);
        let _ = qm.inner_mut();
        assert_eq!(qm.into_inner().flows.len(), 3);
    }

    #[test]
    fn answers_track_all_ingestion_paths() {
        let mut qm = QueryMonitor::new(Exact::default());
        let id = qm.attach(fanout_plan());
        qm.process_packet(&pkt(1, 1));
        qm.process_batch(&[pkt(1, 2), pkt(1, 1)]);
        qm.process_trace(&[pkt(1, 3), pkt(2, 1)]);
        let answer = qm.answer(id);
        // src .1 contacted 3 distinct dsts, src .2 one.
        assert_eq!(answer.rows()[0].value, 3);
        assert_eq!(answer.rows()[1].value, 1);
        assert_eq!(qm.answer_all().len(), 1);
    }

    #[test]
    fn seal_banks_per_epoch_answers_and_restarts() {
        let mut qm = QueryMonitor::new(Exact::default());
        let id = qm.attach(fanout_plan());
        qm.process_batch(&[pkt(1, 1), pkt(1, 2)]);
        let snapshot = qm.seal();
        assert_eq!(snapshot.len(), 2, "inner sealed normally");
        assert!(qm.answer(id).is_empty(), "query state restarted");
        qm.process_packet(&pkt(1, 7));
        qm.seal();
        let banked = qm.drain_sealed_answers();
        assert_eq!(banked.len(), 2);
        assert_eq!(banked[0][0].rows()[0].value, 2);
        assert_eq!(banked[1][0].rows()[0].value, 1);
        assert!(qm.sealed_answers().is_empty());
    }

    #[test]
    fn reset_clears_query_state_too() {
        let mut qm = QueryMonitor::new(Exact::default());
        let id = qm.attach(fanout_plan());
        qm.process_packet(&pkt(1, 1));
        qm.seal();
        qm.process_packet(&pkt(1, 2));
        qm.reset();
        assert!(qm.answer(id).is_empty());
        assert!(qm.flow_records().is_empty());
        assert!(
            qm.sealed_answers().is_empty(),
            "a reset run must not prepend stale banked epochs"
        );
    }

    #[test]
    fn answer_limit_drops_whole_epochs_and_counts_them() {
        let mut qm = QueryMonitor::new(Exact::default());
        qm.set_answer_limit(2);
        qm.attach(fanout_plan());
        for epoch in 0..4u8 {
            qm.process_packet(&pkt(1, epoch));
            qm.seal();
        }
        assert_eq!(qm.sealed_answers().len(), 2);
        assert_eq!(qm.answer_drop_stats().dropped_epochs(), 2);
        // Draining empties the bank; the next seal evicts nothing.
        assert_eq!(qm.drain_sealed_answers().len(), 2);
        qm.process_packet(&pkt(1, 9));
        qm.seal();
        assert_eq!(qm.sealed_answers().len(), 1);
        assert_eq!(
            qm.answer_drop_stats().dropped_epochs(),
            2,
            "no further drops"
        );
    }

    #[test]
    fn drop_oldest_answer_policy_keeps_the_freshest_epochs() {
        let mut qm = QueryMonitor::new(Exact::default());
        qm.set_answer_limit(2);
        qm.attach(fanout_plan());
        for epoch in 0..4u8 {
            for dst in 0..=epoch {
                qm.process_packet(&pkt(1, dst));
            }
            qm.seal();
        }
        // The window slid: the two freshest epochs (3 and 4 distinct
        // dsts) remain, the oldest were evicted and counted.
        let banked = qm.sealed_answers();
        assert_eq!(banked.len(), 2);
        assert_eq!(banked[0][0].rows()[0].value, 3);
        assert_eq!(banked[1][0].rows()[0].value, 4);
        let drops = qm.answer_drop_stats();
        assert_eq!(drops.offered_epochs(), 4);
        assert_eq!(drops.dropped_epochs(), 2);
        assert_eq!(drops.delivered_epochs(), 2);
    }

    #[test]
    fn metrics_expose_per_plan_evals_and_answer_drops() {
        use hashflow_obs::MetricsRegistry;

        let registry = MetricsRegistry::new();
        let mut qm = QueryMonitor::new(Exact::default());
        qm.set_answer_limit(1);
        let early = qm.attach(fanout_plan()); // attached before the registry
        qm.process_packet(&pkt(1, 1));
        qm.instrument(&Instruments {
            registry: Some(registry.clone()),
            ..Instruments::default()
        });
        let late = qm.attach(fanout_plan()); // attached after the registry
        qm.process_batch(&[pkt(1, 2), pkt(1, 3)]);
        qm.seal(); // banked
        qm.seal(); // banked, evicting the first epoch whole
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(
                "hashflow_query_eval_packets_total",
                &[("plan", &early.to_string())]
            ),
            Some(3),
            "pre-registry counts carry over at registration"
        );
        assert_eq!(
            snap.counter(
                "hashflow_query_eval_packets_total",
                &[("plan", &late.to_string())]
            ),
            Some(2)
        );
        assert_eq!(
            snap.counter(
                "hashflow_dropped_epochs_total",
                &[("component", "query_answers")]
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter(
                "hashflow_dropped_records_total",
                &[("component", "query_answers")]
            ),
            Some(2),
            "the evicted epoch carried one answer per attached plan"
        );
        assert_eq!(qm.answer_drop_stats().dropped_epochs(), 1);
        qm.reset();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_sum("hashflow_query_eval_packets_total"),
            0,
            "reset restarts the registered counters too"
        );
    }

    #[test]
    fn attach_starts_counting_from_now() {
        let mut qm = QueryMonitor::new(Exact::default());
        qm.process_packet(&pkt(1, 1));
        let id = qm.attach(fanout_plan());
        qm.process_packet(&pkt(1, 2));
        assert_eq!(qm.answer(id).rows()[0].value, 1, "pre-attach not replayed");
    }
}
