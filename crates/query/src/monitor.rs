//! The [`QueryMonitor`] adapter: query plans answered at every seal.
//!
//! `QueryMonitor<M>` wraps any [`FlowMonitor`] and implements
//! [`FlowMonitor`] itself. Ingestion is a plain forward to the inner
//! monitor, so its batched hot path, a `ShardedMonitor` inside and the
//! `Collector`/`EpochRotator` outside all run unchanged. The plans cost
//! nothing per packet and hold no state of their own.
//!
//! [`FlowMonitor::seal`] (and therefore every rotation layer, timed or
//! explicit) evaluates each attached plan once with
//! [`execute_snapshot`] over the epoch it just sealed, and banks the
//! answers — retrievable via
//! [`QueryMonitor::sealed_answers`]/[`QueryMonitor::drain_sealed_answers`].
//! A plan therefore answers over whole epochs, including the one it was
//! attached in, and through an approximate monitor it inherits that
//! monitor's record-report error.

use crate::exec::{execute_snapshot, QueryResult};
use crate::plan::QueryPlan;
use hashflow_monitor::{
    CostSnapshot, DropStats, EpochRing, EpochSnapshot, FlowMonitor, Instruments, IntrospectMetric,
};
use hashflow_types::{FlowKey, FlowRecord, Packet};

/// Identifier of a plan attached to a [`QueryMonitor`] (its attach
/// order): the index of its answer in each banked epoch.
pub type QueryId = usize;

/// A [`FlowMonitor`] wrapper that answers its attached query plans over
/// every epoch it seals.
///
/// # Examples
///
/// ```
/// use hashflow_core::HashFlow;
/// use hashflow_monitor::{FlowMonitor, MemoryBudget};
/// use hashflow_query::{QueryMonitor, QueryPlan};
/// use hashflow_types::{FlowKey, Packet};
///
/// let plan: QueryPlan = "map src | distinct dst | reduce count".parse()?;
/// let mut qm = QueryMonitor::new(HashFlow::with_memory(MemoryBudget::from_kib(64)?)?);
/// let fanout = qm.attach(plan);
/// for dst in 0..5u32 {
///     let key = FlowKey::new([10, 0, 0, 1].into(), dst.into(), 1, 2, 6);
///     qm.process_packet(&Packet::new(key, 0, 64));
/// }
/// qm.seal();
/// assert_eq!(qm.sealed_answers()[0][fanout].rows()[0].value, 5);
/// # Ok::<(), hashflow_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct QueryMonitor<M> {
    inner: M,
    plans: Vec<QueryPlan>,
    /// Answers banked at each seal, oldest epoch first; one entry per
    /// attached plan, in attach order. Its ledger counts one record per
    /// answer (`component="query_answers"` when registered).
    sealed: EpochRing<Vec<QueryResult>>,
}

impl<M: FlowMonitor> QueryMonitor<M> {
    /// Wraps a monitor with no plans attached (a transparent forwarder
    /// until [`Self::attach`] is called). Banked answers are unbounded;
    /// see [`Self::set_answer_limit`] for long-running pipelines.
    pub fn new(inner: M) -> Self {
        QueryMonitor {
            inner,
            plans: Vec::new(),
            sealed: EpochRing::new(|answers: &Vec<QueryResult>| answers.len() as u64),
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

    /// Attaches a plan; it is first answered at the next seal, over that
    /// whole epoch. Returns the id addressing this plan's answers.
    pub fn attach(&mut self, plan: QueryPlan) -> QueryId {
        self.plans.push(plan);
        self.plans.len() - 1
    }

    /// Number of attached plans.
    pub fn query_count(&self) -> usize {
        self.plans.len()
    }

    /// Answers banked by past seals (oldest epoch first; inner vectors
    /// follow attach order).
    pub fn sealed_answers(&self) -> &[Vec<QueryResult>] {
        self.sealed.as_slice()
    }

    /// Drains the banked per-epoch answers.
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

    /// Unwraps the adapter, discarding plans and banked answers.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: FlowMonitor> FlowMonitor for QueryMonitor<M> {
    fn process_packet(&mut self, packet: &Packet) {
        self.inner.process_packet(packet);
    }

    fn process_batch(&mut self, packets: &[Packet]) {
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

    /// Registers the answer bank's ledger, then forwards inward:
    ///
    /// | Metric | Type | Meaning |
    /// |---|---|---|
    /// | `hashflow_offered_epochs_total{component="query_answers"}` | counter | epochs whose answers were banked (one per seal) |
    /// | `hashflow_dropped_epochs_total{component="query_answers"}` | counter | answer epochs evicted at the bank limit |
    /// | `hashflow_dropped_records_total{component="query_answers"}` | counter | per-plan answers inside evicted epochs |
    fn instrument(&mut self, instruments: &Instruments) {
        if let Some(registry) = &instruments.registry {
            self.sealed.drop_stats().register(registry, "query_answers");
        }
        self.inner.instrument(instruments);
    }

    /// Resets the inner monitor **and** the banked per-epoch answers — a
    /// reset is a fresh collection run, so stale banked epochs must not
    /// prepend themselves to the next run's drains. The drop accounting
    /// restarts too (registered registry views included).
    fn reset(&mut self) {
        self.inner.reset();
        self.sealed.reset();
    }

    /// Seals the inner monitor and banks every attached plan's answer
    /// over the sealed epoch (see [`QueryMonitor::sealed_answers`]).
    fn seal(&mut self) -> EpochSnapshot {
        let snapshot = self.inner.seal();
        let answers = self
            .plans
            .iter()
            .map(|plan| execute_snapshot(plan, &snapshot))
            .collect();
        self.sealed.push(answers);
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

    /// The value of plan `id`'s first row in banked epoch `epoch`.
    fn first_value(qm: &QueryMonitor<Exact>, epoch: usize, id: QueryId) -> u64 {
        qm.sealed_answers()[epoch][id].rows()[0].value
    }

    #[test]
    fn answers_track_all_ingestion_paths() {
        let mut qm = QueryMonitor::new(Exact::default());
        let id = qm.attach(fanout_plan());
        qm.process_packet(&pkt(1, 1));
        qm.process_batch(&[pkt(1, 2), pkt(1, 1)]);
        qm.process_trace(&[pkt(1, 3), pkt(2, 1)]);
        assert!(
            qm.sealed_answers().is_empty(),
            "nothing answers before a seal"
        );
        qm.seal();
        let answer = &qm.sealed_answers()[0][id];
        // src .1 contacted 3 distinct dsts, src .2 one.
        assert_eq!(answer.rows()[0].value, 3);
        assert_eq!(answer.rows()[1].value, 1);
    }

    #[test]
    fn seal_banks_per_epoch_answers_and_restarts() {
        let mut qm = QueryMonitor::new(Exact::default());
        let id = qm.attach(fanout_plan());
        qm.process_batch(&[pkt(1, 1), pkt(1, 2)]);
        let snapshot = qm.seal();
        assert_eq!(snapshot.len(), 2, "inner sealed normally");
        qm.process_packet(&pkt(1, 7));
        qm.seal();
        // An epoch without packets still banks one (empty) answer per plan.
        qm.seal();
        let banked = qm.drain_sealed_answers();
        assert_eq!(banked.len(), 3);
        assert_eq!(banked[0][id].rows()[0].value, 2);
        assert_eq!(
            banked[1][id].rows()[0].value,
            1,
            "the next epoch starts empty"
        );
        assert!(banked[2][id].is_empty());
        assert!(qm.sealed_answers().is_empty());
    }

    #[test]
    fn reset_clears_query_state_too() {
        let mut qm = QueryMonitor::new(Exact::default());
        qm.attach(fanout_plan());
        qm.process_packet(&pkt(1, 1));
        qm.seal();
        qm.process_packet(&pkt(1, 2));
        qm.reset();
        assert!(qm.flow_records().is_empty());
        assert!(
            qm.sealed_answers().is_empty(),
            "a reset run must not prepend stale banked epochs"
        );
        qm.seal();
        assert!(
            qm.sealed_answers()[0][0].is_empty(),
            "reset packets are gone"
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
        assert_eq!(qm.sealed_answers().len(), 2);
        assert_eq!(first_value(&qm, 0, 0), 3);
        assert_eq!(first_value(&qm, 1, 0), 4);
        let drops = qm.answer_drop_stats();
        assert_eq!(drops.offered_epochs(), 4);
        assert_eq!(drops.dropped_epochs(), 2);
        assert_eq!(drops.delivered_epochs(), 2);
    }

    #[test]
    fn metrics_expose_the_answer_bank_ledger() {
        use hashflow_obs::MetricsRegistry;

        let registry = MetricsRegistry::new();
        let mut qm = QueryMonitor::new(Exact::default());
        qm.set_answer_limit(1);
        qm.attach(fanout_plan()); // attached before the registry
        qm.process_packet(&pkt(1, 1));
        qm.instrument(&Instruments {
            registry: Some(registry.clone()),
            ..Instruments::default()
        });
        qm.attach(fanout_plan()); // attached after the registry
        qm.process_batch(&[pkt(1, 2), pkt(1, 3)]);
        qm.seal(); // banked
        qm.seal(); // banked, evicting the first epoch whole
        let snap = registry.snapshot();
        let ledger = |name: &str| snap.counter(name, &[("component", "query_answers")]);
        assert_eq!(
            ledger("hashflow_offered_epochs_total"),
            Some(2),
            "one per seal"
        );
        assert_eq!(ledger("hashflow_dropped_epochs_total"), Some(1));
        assert_eq!(
            ledger("hashflow_dropped_records_total"),
            Some(2),
            "the evicted epoch carried one answer per attached plan"
        );
        assert_eq!(qm.answer_drop_stats().dropped_epochs(), 1);
        qm.reset();
        assert_eq!(
            registry
                .snapshot()
                .counter_sum("hashflow_offered_epochs_total"),
            0,
            "reset restarts the registered ledger too"
        );
    }

    #[test]
    fn a_plan_attached_mid_epoch_answers_the_whole_epoch() {
        let mut qm = QueryMonitor::new(Exact::default());
        qm.process_packet(&pkt(1, 1));
        let id = qm.attach(fanout_plan());
        qm.process_packet(&pkt(1, 2));
        qm.seal();
        assert_eq!(first_value(&qm, 0, id), 2, "pre-attach packets count");
    }
}
