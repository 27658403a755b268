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

use hashflow_obs::{FlightRecorder, Severity};
use hashflow_types::FlowKey;
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

    /// Checks sampling and records the span in one call; returns whether
    /// the flow was sampled. For paths that emit at most one span per
    /// packet.
    pub fn span_if_sampled(
        &self,
        key: &FlowKey,
        stage: &'static str,
        detail: impl Into<String>,
    ) -> bool {
        let sampled = self.is_sampled(key);
        if sampled {
            self.span(key, stage, detail);
        }
        sampled
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
        assert!(tracer.span_if_sampled(&key, "dispatch", "shard 3"));
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
            if tracer.span_if_sampled(&FlowKey::from_index(i), "dispatch", "x") {
                traced += 1;
            }
        }
        assert_eq!(recorder.len(), traced);
        assert!(traced <= 1, "1-in-2^40 over 1000 flows");
    }
}
