//! Property suite for the telemetry query subsystem: for each built-in
//! application (and a set of hand-picked plan shapes), the **streaming**
//! [`QueryMonitor`] answers over an exact-mode monitor must equal the
//! **snapshot-executor** answers over the same monitor's sealed records,
//! on the same trace.
//!
//! "Exact mode" means the monitor's record report equals the true flow
//! multiset — HashFlow with tables comfortably above the flow universe
//! (its main table never evicts silently, so light load is exact). The
//! streaming path folds raw packets; the post-hoc path folds sealed
//! records; they can only agree when both reductions see the same flows,
//! so this pins the whole chain: plan compilation, incremental state,
//! snapshot sealing and record-level evaluation. Covered monitors: both
//! HashFlow main-table schemes, the sharded merge path, and the
//! `Collector` pipeline with rotation.

use hashflow_suite::core::{HashFlowConfig, TableScheme};
use hashflow_suite::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

/// Plans covering every stage combination the executors branch on
/// (distinct / plain sum / count / max / threshold / key filters /
/// deferred count filters), plus every application plan.
fn covered_plans() -> Vec<QueryPlan> {
    let mut plans: Vec<QueryPlan> = [
        "map src | distinct dst | reduce count",
        "map dst | distinct src | reduce count | threshold 2",
        "map src | distinct dstport | reduce count",
        "filter proto=6 | map src | distinct dst | reduce count",
        "map flow | reduce sum",
        "map srcdst | reduce sum | threshold 3",
        "map dst | reduce count",
        "map src | reduce max",
        "reduce sum",
        "filter dstport>=8 proto=6 | map proto | reduce sum",
        "filter count>=2 | map src | reduce count",
        "filter count>3 | map flow | reduce sum | threshold 5",
    ]
    .into_iter()
    .map(|text| text.parse().expect("covered plan parses"))
    .collect();
    for app in TelemetryApp::standard_suite(3, 3, 3, 2) {
        plans.push(app.plan().clone());
    }
    plans
}

/// A packet stream over a small five-tuple universe with repetition, so
/// fan-outs, multi-packet flows and port sweeps all occur.
fn stream(max_packets: usize) -> impl Strategy<Value = Vec<Packet>> {
    let key =
        (0u8..6, 0u8..6, 0u16..4, 0u16..12, 0u8..2).prop_map(|(src, dst, sport, dport, tcp)| {
            FlowKey::new(
                [10, 0, 0, src].into(),
                [10, 9, 9, dst].into(),
                5_000 + sport,
                dport,
                if tcp == 0 { 6 } else { 17 },
            )
        });
    prop::collection::vec(key, 1..max_packets).prop_map(|keys| {
        keys.into_iter()
            .enumerate()
            .map(|(t, k)| Packet::new(k, t as u64, 64))
            .collect()
    })
}

/// Exact flow multiset of the stream (the reference the monitor must hit
/// for the property to be in contract).
fn exact_records(packets: &[Packet]) -> Vec<FlowRecord> {
    let mut counts: HashMap<FlowKey, u32> = HashMap::new();
    for p in packets {
        *counts.entry(p.key()).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .map(|(k, c)| FlowRecord::new(k, c))
        .collect()
}

/// Ingests the trace through a [`QueryMonitor`] wrapping `monitor` with
/// every covered plan attached, then asserts, per plan, streaming answer
/// == snapshot-executor answer over the sealed records.
fn assert_query_equivalent<M: FlowMonitor>(monitor: M, packets: &[Packet]) {
    let plans = covered_plans();
    let mut qm = QueryMonitor::new(monitor);
    let ids: Vec<usize> = plans.iter().map(|p| qm.attach(p.clone())).collect();
    qm.process_trace(packets);

    // Exact-mode precondition: the monitor's report is the true flow
    // multiset. At these loads HashFlow is exact; a violation would make
    // the property vacuous, so check it rather than assume it.
    let mut reported: Vec<(FlowKey, u32)> = qm
        .flow_records()
        .iter()
        .map(|r| (r.key(), r.count()))
        .collect();
    let mut truth: Vec<(FlowKey, u32)> = exact_records(packets)
        .iter()
        .map(|r| (r.key(), r.count()))
        .collect();
    reported.sort_unstable();
    truth.sort_unstable();
    prop_assert_eq!(reported, truth, "monitor not in exact mode at this load");

    let streaming: Vec<QueryResult> = ids.iter().map(|id| qm.answer(*id)).collect();
    let snapshot = qm.seal();
    for (plan, live) in plans.iter().zip(&streaming) {
        let sealed = execute_snapshot(plan, &snapshot);
        prop_assert_eq!(&sealed, live, "plan '{}' diverges", plan);
    }
    // Post-seal, streaming state restarted alongside the tables.
    for id in &ids {
        prop_assert!(qm.answer(*id).is_empty(), "state must reset at seal");
    }
}

fn hashflow_with(scheme: TableScheme) -> HashFlow {
    HashFlow::new(
        HashFlowConfig::builder()
            .main_cells(65_536)
            .ancillary_cells(8_192)
            .scheme(scheme)
            .build()
            .expect("valid config"),
    )
    .expect("valid geometry")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// HashFlow, multi-hash scheme, exact mode.
    #[test]
    fn multihash_streaming_matches_snapshot(packets in stream(600)) {
        assert_query_equivalent(
            hashflow_with(TableScheme::MultiHash { depth: 3 }),
            &packets,
        );
    }

    /// HashFlow, pipelined scheme (the paper's default), exact mode.
    #[test]
    fn pipelined_streaming_matches_snapshot(packets in stream(600)) {
        assert_query_equivalent(
            hashflow_with(TableScheme::Pipelined { depth: 3, alpha: 0.7 }),
            &packets,
        );
    }

    /// The sharded merge path: plans ride the RSS dispatch layer
    /// unchanged (the QueryMonitor wraps the whole ShardedMonitor).
    #[test]
    fn sharded_streaming_matches_snapshot(packets in stream(500)) {
        let budget = MemoryBudget::from_kib(512).expect("positive");
        let sharded = ShardedMonitor::with_budget(4, budget, |_, b| HashFlow::with_memory(b))
            .expect("split fits");
        assert_query_equivalent(sharded, &packets);
    }
}

/// The applications agree end to end across a rotating multi-epoch
/// pipeline: verdicts folded from the Collector's banked streaming
/// answers equal verdicts folded from plan execution over the sealed
/// epoch reports — including the heavy changer's cross-epoch deltas.
#[test]
fn applications_agree_across_rotated_epochs() {
    const EPOCH_NS: u64 = 1_000_000;
    let mut apps_stream = TelemetryApp::standard_suite(4, 4, 4, 3);
    let mut apps_sealed = TelemetryApp::standard_suite(4, 4, 4, 3);

    // Three epochs of deterministic traffic with drifting flow counts.
    let mut packets = Vec::new();
    for epoch in 0..3u64 {
        let base = epoch * EPOCH_NS;
        let mut at = base;
        for i in 0..800u64 {
            // Flow universe shifts per epoch so heavy deltas exist.
            let key = FlowKey::from_index(i % (40 + epoch * 17));
            packets.push(Packet::new(key, at, 64));
            at += 900;
        }
        // A fan-out source to trip the detection apps.
        for d in 0..6u32 {
            let key = FlowKey::new([10, 0, 0, 1].into(), d.into(), 9, 443, 6);
            packets.push(Packet::new(key, at, 64));
            at += 900;
        }
    }

    let mut builder = Collector::builder(AlgorithmKind::HashFlow)
        .budget(MemoryBudget::from_kib(512).expect("positive"))
        .epoch_ns(EPOCH_NS);
    for app in &apps_stream {
        builder = builder.query(app.plan().clone());
    }
    let mut collector = builder.build().expect("registry build");
    collector.process_trace(&packets);
    collector.seal();

    let banked = collector.drain_query_answers();
    let sealed_epochs = collector.completed_epochs();
    assert_eq!(banked.len(), sealed_epochs.len());
    assert!(banked.len() >= 3, "multi-epoch run expected");

    for (epoch_answers, snapshot) in banked.iter().zip(sealed_epochs) {
        for ((app_s, app_p), live) in apps_stream
            .iter_mut()
            .zip(apps_sealed.iter_mut())
            .zip(epoch_answers)
        {
            let sealed = execute_snapshot(app_p.plan(), snapshot);
            assert_eq!(&sealed, live, "{} epoch {}", app_p.kind(), snapshot.epoch());
            let vs = app_s.observe(live);
            let vp = app_p.observe(&sealed);
            assert_eq!(vs, vp, "{} verdicts diverge", app_p.kind());
        }
    }
}
