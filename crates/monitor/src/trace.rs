//! Sampled flow-path tracing: following individual flows through every
//! pipeline stage.
//!
//! Aggregate metrics say the pipeline is healthy; a trace says what
//! happened to *this flow*: which shard its packets dispatched to, which
//! HashFlow placement stage (§III Algorithm 1) each packet landed in —
//! main-table hit, digest promotion, ancillary fallback — which epochs it
//! was sealed into, and whether its records were exported. Tracing every
//! flow would dwarf the measurement itself, so the [`FlowTracer`] samples
//! deterministically: flow `k` is traced iff its key hash
//! ([`FlowKey::mix64`] under one fixed seed) falls in the first of `N`
//! equal slices of the hash space, so a sampled flow is sampled on
//! **every** path — scalar, batched and sharded stages all agree on the
//! same flow set, and its journey assembles into one coherent span
//! sequence in the shared [`FlightRecorder`].
//!
//! Span events carry `kind = "flow_span"`, a `flow` field holding the
//! canonical flow-key text (the `GET /debug/flows/{key}` join key) and a
//! `stage` field naming the pipeline stage.
//!
//! A trace follows a flow, not its packets. A per-packet stage records a
//! span on a sampled flow's first packet in that stage of an epoch and
//! from then on only counts, in a [`StageTally`]; the seal records one
//! summary span per sampled flow carrying every stage's count. An
//! elephant therefore leaves as many spans as a mouse, and cannot turn the
//! recorder's ring over on its own.

use hashflow_obs::{FlightRecorder, Severity};
use hashflow_types::FlowKey;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default sampling rate: one traced flow in 1024. The `overhead`
/// exhibit's `traced` arm prices the whole layer at this rate.
pub const DEFAULT_TRACE_SAMPLING: u64 = 1024;

/// Seed of the tracer's own hash draw. Deliberately distinct from the
/// shard dispatch seed so trace sampling never correlates with shard
/// placement.
const TRACE_SEED: u64 = 0x7ace_f10e_5a3b_9d41;

/// The event kind every trace span is recorded under.
pub const FLOW_SPAN_KIND: &str = "flow_span";

#[derive(Debug)]
struct TracerInner {
    recorder: FlightRecorder,
    sample_one_in: u64,
}

/// Deterministic 1-in-N flow sampler recording span events into a shared
/// [`FlightRecorder`] (see the module docs). Cloning shares the sampler
/// and the recorder, so every stage holds the same tracer.
#[derive(Clone, Debug)]
pub struct FlowTracer {
    inner: Arc<TracerInner>,
}

impl FlowTracer {
    /// A tracer sampling one flow in `sample_one_in` (at least 1 — a rate
    /// of 1 traces every flow, for tests and deep-dive sessions).
    pub fn new(recorder: FlightRecorder, sample_one_in: u64) -> Self {
        FlowTracer {
            inner: Arc::new(TracerInner {
                recorder,
                sample_one_in: sample_one_in.max(1),
            }),
        }
    }

    /// The configured sampling rate (`N` of 1-in-N).
    pub fn sample_one_in(&self) -> u64 {
        self.inner.sample_one_in
    }

    /// The recorder spans are written into.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.inner.recorder
    }

    /// Whether `key` is in the sampled set. Deterministic in the key
    /// alone, so every stage — scalar, batched, sharded — answers
    /// identically for the same flow.
    #[inline]
    pub fn is_sampled(&self, key: &FlowKey) -> bool {
        // hash * n / 2^64 is the slice the hash falls in: a multiply,
        // where `hash % n` with a runtime `n` is a divide per packet —
        // and every traced stage of a pipeline asks once per packet.
        let scaled = u128::from(key.mix64(TRACE_SEED)) * u128::from(self.inner.sample_one_in);
        scaled >> 64 == 0
    }

    /// Records one span for a flow the caller already knows is sampled
    /// (hot paths check [`Self::is_sampled`] once and reuse the answer).
    pub fn span(&self, key: &FlowKey, stage: &'static str, detail: impl Into<String>) {
        self.inner.recorder.record_with(
            Severity::Debug,
            FLOW_SPAN_KIND,
            detail,
            vec![
                ("flow".to_string(), key.to_string()),
                ("stage".to_string(), stage.to_string()),
            ],
        );
    }
}

/// One epoch's tally of the `N` per-packet stages each sampled flow
/// reached (see the module docs). Only sampled packets touch it, so it
/// holds about one key in [`FlowTracer::sample_one_in`] of the epoch's
/// flows.
#[derive(Clone, Debug)]
pub struct StageTally<const N: usize> {
    stages: [&'static str; N],
    flows: BTreeMap<FlowKey, [u64; N]>,
}

impl<const N: usize> StageTally<N> {
    /// An empty tally of the stages named `stages`.
    pub const fn new(stages: [&'static str; N]) -> Self {
        StageTally {
            stages,
            flows: BTreeMap::new(),
        }
    }

    /// Counts one packet of sampled flow `key` in stage `stage` (an index
    /// into the names), recording that stage's span through `tracer` if it
    /// is the flow's first packet there this epoch. `detail` is built only
    /// then.
    pub fn note(
        &mut self,
        tracer: &FlowTracer,
        key: &FlowKey,
        stage: usize,
        detail: impl FnOnce() -> String,
    ) {
        let count = &mut self.flows.entry(*key).or_insert([0; N])[stage];
        *count += 1;
        if *count == 1 {
            tracer.span(key, self.stages[stage], detail());
        }
    }

    /// Ends the epoch: records one `stage` span per tallied flow, in key
    /// order, whose detail lists each stage the flow reached with its
    /// packet count (`main_insert 1, main_hit 41`), and empties the tally.
    pub fn seal(&mut self, tracer: &FlowTracer, stage: &'static str) {
        for (key, counts) in std::mem::take(&mut self.flows) {
            let detail: Vec<String> = (self.stages.iter().zip(counts))
                .filter(|(_, n)| *n > 0)
                .map(|(name, n)| format!("{name} {n}"))
                .collect();
            tracer.span(&key, stage, detail.join(", "));
        }
    }

    /// Ends the epoch without a summary: a stage whose first-packet span
    /// says all there is to say, or an epoch that is discarded.
    pub fn clear(&mut self) {
        self.flows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_roughly_one_in_n() {
        let tracer = FlowTracer::new(FlightRecorder::with_capacity(4), 64);
        let sampled: Vec<u64> = (0..100_000u64)
            .filter(|i| tracer.is_sampled(&FlowKey::from_index(*i)))
            .collect();
        // Expected ≈ 1563; allow a generous band.
        assert!(
            (800..2600).contains(&sampled.len()),
            "one-in-64 over 100k flows sampled {}",
            sampled.len()
        );
        // A second tracer with the same rate samples the same set.
        let again = FlowTracer::new(FlightRecorder::with_capacity(4), 64);
        for i in &sampled[..20.min(sampled.len())] {
            assert!(again.is_sampled(&FlowKey::from_index(*i)));
        }
    }

    #[test]
    fn rate_one_samples_everything() {
        let tracer = FlowTracer::new(FlightRecorder::new(), 1);
        for i in 0..100u64 {
            assert!(tracer.is_sampled(&FlowKey::from_index(i)));
        }
        // Rate 0 clamps to 1.
        assert_eq!(FlowTracer::new(FlightRecorder::new(), 0).sample_one_in(), 1);
    }

    #[test]
    fn spans_carry_flow_and_stage_fields() {
        let recorder = FlightRecorder::with_capacity(16);
        let tracer = FlowTracer::new(recorder.clone(), 1);
        let key = FlowKey::from_index(7);
        assert!(tracer.is_sampled(&key));
        tracer.span(&key, "dispatch", "shard 3");
        tracer.span(&key, "main_hit", "count 2");
        let events = recorder.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, FLOW_SPAN_KIND);
        assert_eq!(events[0].field("flow"), Some(key.to_string().as_str()));
        assert_eq!(events[0].field("stage"), Some("dispatch"));
        assert_eq!(events[1].field("stage"), Some("main_hit"));
        assert_eq!(events[1].severity, Severity::Debug);
    }

    #[test]
    fn unsampled_flows_record_nothing() {
        let recorder = FlightRecorder::with_capacity(16);
        let tracer = FlowTracer::new(recorder.clone(), 1 << 40);
        let mut traced = 0;
        for i in 0..1000u64 {
            let key = FlowKey::from_index(i);
            if tracer.is_sampled(&key) {
                tracer.span(&key, "dispatch", "x");
                traced += 1;
            }
        }
        assert_eq!(recorder.len(), traced);
        assert!(traced <= 1, "1-in-2^40 over 1000 flows");
    }

    #[test]
    fn a_tally_spans_each_stage_once_per_epoch_and_sums_at_the_seal() {
        let recorder = FlightRecorder::with_capacity(64);
        let tracer = FlowTracer::new(recorder.clone(), 1);
        let mut tally = StageTally::new(["insert", "hit"]);
        let (a, b) = (FlowKey::from_index(1), FlowKey::from_index(2));
        tally.note(&tracer, &a, 0, || "count 1".to_string());
        for n in 2..=100 {
            tally.note(&tracer, &a, 1, || format!("count {n}"));
        }
        tally.note(&tracer, &b, 0, || "count 1".to_string());
        let stages = |events: &[hashflow_obs::Event]| -> Vec<(String, String)> {
            events
                .iter()
                .map(|e| (e.field("stage").unwrap().to_string(), e.message.clone()))
                .collect()
        };
        assert_eq!(
            stages(&recorder.snapshot()),
            [
                ("insert".to_string(), "count 1".to_string()),
                ("hit".to_string(), "count 2".to_string()),
                ("insert".to_string(), "count 1".to_string()),
            ],
            "one span per (flow, stage), however many packets"
        );

        tally.seal(&tracer, "summary");
        let events = recorder.snapshot();
        let summaries: Vec<_> = events[3..]
            .iter()
            .map(|e| (e.field("flow").unwrap().to_string(), e.message.clone()))
            .collect();
        assert_eq!(
            summaries,
            [
                (a.to_string(), "insert 1, hit 99".to_string()),
                (b.to_string(), "insert 1".to_string()),
            ]
        );

        // The seal emptied the tally; the next epoch spans its stages
        // afresh, and a cleared one sums nothing.
        tally.seal(&tracer, "summary");
        assert_eq!(recorder.len(), 5);
        tally.note(&tracer, &a, 1, || "count 101".to_string());
        assert_eq!(recorder.len(), 6);
        tally.clear();
        tally.seal(&tracer, "summary");
        assert_eq!(recorder.len(), 6);
    }
}
