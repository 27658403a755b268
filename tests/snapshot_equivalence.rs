//! Cross-monitor property suite for the sealed-snapshot query engine:
//! an [`EpochSnapshot`] captured from a live monitor must answer the
//! §IV-A queries **identically to the live monitor** — same flow record
//! report (order included), same heavy hitters at every threshold, a
//! `top_k` that is exactly the prefix of the full-sort ranking, the same
//! cardinality estimate, and size estimates that agree on every reported
//! flow (and, for the monitors whose live lookup is record-derived, on
//! absent flows too — HashFlow and ElasticSketch keep auxiliary
//! estimators whose answers for *unreported* flows cannot outlive the
//! epoch, which the snapshot contract documents as answering 0, §IV-A's
//! default).
//!
//! Covered: all five monitors, both HashFlow main-table schemes, and the
//! sharded merge path. A second group pins the sink round-trip: NetFlow
//! v5 bytes re-parse to the sealed records, and the JSONL sink emits
//! exactly one line per record.

use hashflow_suite::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A packet stream over `flows` distinct flows with arbitrary
/// interleaving and multiplicities, timestamped in arrival order.
fn stream(flows: u64, max_packets: usize) -> impl Strategy<Value = Vec<Packet>> {
    prop::collection::vec(0..flows, 1..max_packets).prop_map(|ids| {
        ids.into_iter()
            .enumerate()
            .map(|(t, f)| Packet::new(FlowKey::from_index(f), t as u64, 64))
            .collect()
    })
}

/// Ingests `packets`, captures a snapshot, and asserts snapshot answers
/// equal live answers. `exact_unreported` marks monitors whose live size
/// lookup is itself record-derived (0 for unreported flows), where the
/// equality extends to flows absent from the report.
fn assert_snapshot_equivalent<M: FlowMonitor>(
    mut monitor: M,
    packets: &[Packet],
    exact_unreported: bool,
) {
    monitor.process_trace(packets);
    let snapshot = EpochSnapshot::capture(&monitor);

    // Flow record report: identical as a multiset (monitors that walk a
    // HashMap, like HashPipe's aggregation, report in arbitrary order;
    // the snapshot freezes whichever order it captured).
    let mut live_records = monitor.flow_records();
    let mut snap_records: Vec<FlowRecord> = snapshot.records().copied().collect();
    prop_assert_eq!(snapshot.len(), live_records.len());
    live_records.sort_unstable_by_key(|r| (r.key(), r.count()));
    snap_records.sort_unstable_by_key(|r| (r.key(), r.count()));
    prop_assert_eq!(snap_records, live_records, "record report diverges");

    // Heavy hitters at several thresholds.
    for threshold in [0u32, 1, 2, 4, 8] {
        prop_assert_eq!(
            snapshot.heavy_hitters(threshold),
            monitor.heavy_hitters(threshold),
            "heavy hitters diverge at threshold {}",
            threshold
        );
    }

    // Bounded-heap top-k == prefix of the full ranking.
    let full = monitor.heavy_hitters(0);
    for k in [0usize, 1, 3, 10, full.len(), full.len() + 7] {
        let top = snapshot.top_k(k);
        prop_assert_eq!(
            top.as_slice(),
            &full[..k.min(full.len())],
            "top_k({}) is not the full-sort prefix",
            k
        );
    }

    // Cardinality is the live estimator's answer, captured.
    let (cs, cl) = (snapshot.cardinality(), monitor.estimate_cardinality());
    prop_assert!((cs - cl).abs() < 1e-9, "cardinality diverges: {cs} vs {cl}");

    // Size estimation: batched == single-key == live, for every reported
    // flow; for absent flows when the live path is record-derived.
    let mut keys: Vec<FlowKey> = snapshot.records().map(|r| r.key()).collect();
    let absent: Vec<FlowKey> = (1_000_000..1_000_016u64).map(FlowKey::from_index).collect();
    if exact_unreported {
        keys.extend(packets.iter().map(|p| p.key()).collect::<BTreeSet<_>>());
        keys.extend(&absent);
    }
    let batched = snapshot.estimate_sizes(&keys);
    prop_assert_eq!(batched.len(), keys.len());
    for (key, est) in keys.iter().zip(batched) {
        prop_assert_eq!(
            est,
            snapshot.estimate_size(key),
            "batched and single-key sealed answers diverge for {:?}",
            key
        );
        prop_assert_eq!(
            est,
            monitor.estimate_size(key),
            "sealed size estimate diverges from live for {:?}",
            key
        );
    }
    for key in &absent {
        prop_assert_eq!(
            snapshot.estimate_size(key),
            0,
            "unreported flow must answer 0"
        );
    }

    // seal() produces the same sealed answers and drains the live side.
    let sealed = monitor.seal();
    let mut a: Vec<FlowRecord> = sealed.records().copied().collect();
    let mut b: Vec<FlowRecord> = snapshot.records().copied().collect();
    a.sort_unstable_by_key(|r| (r.key(), r.count()));
    b.sort_unstable_by_key(|r| (r.key(), r.count()));
    prop_assert_eq!(a, b, "seal() diverges from capture()");
    prop_assert_eq!(sealed.cost(), snapshot.cost());
    prop_assert!(monitor.flow_records().is_empty(), "seal() must reset");
    prop_assert_eq!(monitor.cost().packets, 0);
}

fn hashflow_with(scheme: TableScheme) -> HashFlow {
    HashFlow::new(
        HashFlowConfig::builder()
            .main_cells(256)
            .ancillary_cells(256)
            .scheme(scheme)
            .build()
            .expect("valid config"),
    )
    .expect("valid geometry")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// HashFlow, multi-hash scheme. Small tables so ancillary churn and
    /// promotions trigger; the ancillary estimator is why unreported-flow
    /// equality is out of contract here.
    #[test]
    fn hashflow_multihash_snapshot_equivalent(packets in stream(500, 900)) {
        let scheme = TableScheme::MultiHash { depth: 3 };
        assert_snapshot_equivalent(hashflow_with(scheme), &packets, false);
    }

    /// HashFlow, pipelined scheme (the paper's default).
    #[test]
    fn hashflow_pipelined_snapshot_equivalent(packets in stream(500, 900)) {
        let scheme = TableScheme::Pipelined { depth: 3, alpha: 0.7 };
        assert_snapshot_equivalent(hashflow_with(scheme), &packets, false);
    }

    /// FlowRadar: the decode map is the live query surface, so sealed
    /// answers match for absent flows too.
    #[test]
    fn flowradar_snapshot_equivalent(packets in stream(300, 700)) {
        assert_snapshot_equivalent(
            FlowRadar::new(600, 0xf1).expect("valid"),
            &packets,
            true,
        );
    }

    /// SampledNetFlow under eviction pressure and N > 1 sampling.
    #[test]
    fn sampled_netflow_snapshot_equivalent(packets in stream(400, 800)) {
        assert_snapshot_equivalent(
            SampledNetFlow::new(64, 4, 0x5a).expect("valid"),
            &packets,
            true,
        );
    }

    /// HashPipe: live lookups sum pipeline fragments, the report
    /// aggregates them — the sealed answers must coincide everywhere.
    #[test]
    fn hashpipe_snapshot_equivalent(packets in stream(400, 700)) {
        let budget = MemoryBudget::from_kib(8).expect("positive");
        assert_snapshot_equivalent(
            HashPipe::with_memory(budget).expect("fits"),
            &packets,
            true,
        );
    }

    /// ElasticSketch: duplicate heavy-stage residents make the
    /// first-record-wins rule load-bearing; the light part is an
    /// auxiliary estimator (no unreported-flow equality).
    #[test]
    fn elastic_sketch_snapshot_equivalent(packets in stream(400, 700)) {
        let budget = MemoryBudget::from_kib(8).expect("positive");
        assert_snapshot_equivalent(
            ElasticSketch::with_memory(budget).expect("fits"),
            &packets,
            false,
        );
    }

    /// The sharded merge path: sealed answers over the merged query
    /// surface (records concatenated across disjoint RSS partitions,
    /// size queries routed to the owning shard).
    #[test]
    fn sharded_snapshot_equivalent(packets in stream(300, 600)) {
        let budget = MemoryBudget::from_kib(64).expect("positive");
        let sharded =
            ShardedMonitor::with_budget(4, budget, |_, b| HashFlow::with_memory(b))
                .expect("split fits");
        assert_snapshot_equivalent(sharded, &packets, false);
    }

    /// Registry sweep: every registered algorithm — the paper's five plus
    /// the extended sketch zoo — seals snapshots that answer like the live
    /// monitor. Unreported-flow equality extends to the monitors whose
    /// live lookup is record-derived (FlowRadar, NetFlow, HashPipe,
    /// BeauCoup, Exact); HashFlow and ElasticSketch keep auxiliary
    /// estimators, and the estimate-only sketches answer live point
    /// queries no snapshot record can reproduce.
    #[test]
    fn every_registered_algorithm_snapshot_equivalent(packets in stream(300, 600)) {
        let budget = MemoryBudget::from_kib(64).expect("positive");
        for kind in AlgorithmKind::ALL {
            let monitor = MonitorBuilder::new(kind)
                .budget(budget)
                .seed(0x57a9)
                .build()
                .expect("fits");
            let exact_unreported = matches!(
                kind,
                AlgorithmKind::FlowRadar
                    | AlgorithmKind::NetFlow
                    | AlgorithmKind::HashPipe
                    | AlgorithmKind::BeauCoup
                    | AlgorithmKind::Exact
            );
            assert_snapshot_equivalent(monitor, &packets, exact_unreported);
        }
    }

    /// The registry path composes: a boxed registry-built monitor seals
    /// exactly like the concrete one.
    #[test]
    fn registry_built_monitor_snapshot_equivalent(packets in stream(300, 600)) {
        let budget = MemoryBudget::from_kib(64).expect("positive");
        let monitor = MonitorBuilder::new(AlgorithmKind::FlowRadar)
            .budget(budget)
            .seed(7)
            .build()
            .expect("fits");
        assert_snapshot_equivalent(monitor, &packets, true);
    }
}

// ---------------------------------------------------------------------
// seal() is capture() then reset(), whoever overrides it.
// ---------------------------------------------------------------------

fn sorted(mut records: Vec<FlowRecord>) -> Vec<FlowRecord> {
    records.sort_unstable_by_key(|r| (r.key(), r.count()));
    records
}

/// Two epochs through a monitor that is sealed and through a twin that
/// is captured and reset: the sealed epoch is the capture taken just
/// before it, in the same order, and afterwards nothing tells the two
/// monitors apart. `ordered` is false for a monitor whose report order is
/// not a function of its state. Returns the pair after the second epoch.
fn assert_seal_is_capture_then_reset<M: FlowMonitor>(
    build: impl Fn() -> M,
    ordered: bool,
    first: &[Packet],
    second: &[Packet],
) -> (M, M) {
    let (mut sealed_side, mut twin) = (build(), build());
    sealed_side.process_trace(first);
    twin.process_trace(first);
    let name = sealed_side.name();

    let captured = EpochSnapshot::capture(&sealed_side);
    let sealed = sealed_side.seal();
    if ordered {
        assert_eq!(sealed.as_records(), captured.as_records(), "{name}: report");
    } else {
        assert_eq!(
            sorted(sealed.as_records().to_vec()),
            sorted(captured.as_records().to_vec()),
            "{name}: report"
        );
    }
    assert_eq!(sealed.cardinality(), captured.cardinality(), "{name}");
    assert_eq!(sealed.cost(), captured.cost(), "{name}: cost");
    assert_eq!(sealed.introspection(), captured.introspection(), "{name}");
    assert_eq!(sealed.cost().packets, first.len() as u64);

    twin.reset();
    assert!(sealed_side.flow_records().is_empty(), "{name}: drained");
    assert_eq!(sealed_side.cost(), twin.cost(), "{name}: counters cleared");
    assert_eq!(sealed_side.introspection(), twin.introspection(), "{name}");
    sealed_side.process_trace(second);
    twin.process_trace(second);
    // Sorted: monitors that report out of a `HashMap` order each
    // instance's report differently.
    assert_eq!(
        sorted(sealed_side.flow_records()),
        sorted(twin.flow_records()),
        "{name}: second epoch"
    );
    assert_eq!(sealed_side.cost(), twin.cost(), "{name}: second epoch cost");
    assert_eq!(sealed_side.introspection(), twin.introspection(), "{name}");
    let (a, b) = (
        sealed_side.estimate_cardinality(),
        twin.estimate_cardinality(),
    );
    assert!((a - b).abs() < 1e-9, "{name}: cardinality {a} vs {b}");
    (sealed_side, twin)
}

/// Every kind the registry builds is held to the rule, so a monitor that
/// later overrides `seal` is too.
#[test]
fn every_registered_algorithm_seals_like_capture_then_reset() {
    let budget = MemoryBudget::from_kib(16).expect("positive");
    let first = TraceGenerator::new(TraceProfile::Caida, 41).generate(3_000);
    let second = TraceGenerator::new(TraceProfile::Campus, 42).generate(2_000);
    for kind in AlgorithmKind::ALL {
        let build = || {
            MonitorBuilder::new(kind)
                .budget(budget)
                .seed(0x5ea1)
                .build()
                .expect("fits")
        };
        // HashPipe aggregates its stages through a fresh `HashMap` per
        // report, so two reports of one state differ in order.
        let ordered = kind != AlgorithmKind::HashPipe;
        assert_seal_is_capture_then_reset(build, ordered, first.packets(), second.packets());
    }
}

/// HashFlow's one-sweep drain, both schemes at depth 1, 3 and 5, with
/// tables small enough that the first epoch promotes records and evicts
/// ancillary digests: the drained report is in table order and the
/// drained monitor is a reset one, down to the counters `reset` clears.
#[test]
fn hashflow_drain_matches_capture_and_leaves_a_reset_monitor() {
    let first = TraceGenerator::new(TraceProfile::Caida, 43).generate(3_000);
    let second = TraceGenerator::new(TraceProfile::Caida, 44).generate(2_500);
    for depth in [1usize, 3, 5] {
        for scheme in [
            TableScheme::MultiHash { depth },
            TableScheme::Pipelined { depth, alpha: 0.7 },
        ] {
            let mut probe = hashflow_with(scheme);
            probe.process_trace(first.packets());
            assert!(
                probe.promotions() > 0 && probe.ancillary_replacements() > 0,
                "{scheme}: the trace must exercise promotion and digest eviction"
            );
            let (sealed_side, twin) = assert_seal_is_capture_then_reset(
                || hashflow_with(scheme),
                true,
                first.packets(),
                second.packets(),
            );
            // Table order is deterministic, so here order must agree too.
            assert_eq!(sealed_side.flow_records(), twin.flow_records(), "{scheme}");
            assert_eq!(sealed_side.promotions(), twin.promotions(), "{scheme}");
            assert_eq!(
                sealed_side.ancillary_replacements(),
                twin.ancillary_replacements(),
                "{scheme}"
            );
            assert_eq!(
                sealed_side.main_table_utilization(),
                twin.main_table_utilization(),
                "{scheme}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Sink round-trips through the full pipeline.
// ---------------------------------------------------------------------

/// Runs a rotating collector over a multi-epoch trace with both sinks
/// attached and returns (collector, nf5 bytes, jsonl text).
fn run_export_pipeline() -> (Collector, Vec<u8>, String) {
    use hashflow_suite::netflow_export::NetFlowV5Sink;

    let trace = TraceGenerator::new(TraceProfile::Isp1, 77).generate(4_000);
    let mut collector = Collector::builder(AlgorithmKind::HashFlow)
        .budget(MemoryBudget::from_kib(256).expect("positive"))
        .epoch_ns(1_000_000) // ~1 us packet spacing => several epochs
        .sink(Box::new(NetFlowV5Sink::new(Vec::new())))
        .sink(Box::new(JsonLinesSink::new(Vec::new())))
        .build()
        .expect("registry build");
    collector.process_trace(trace.packets());
    collector.seal();
    collector.finish().expect("sinks flush");

    // Re-run the identical pipeline against owned sinks to read their
    // buffers back out (sinks attached to a collector are owned by it).
    let mut nf5 = NetFlowV5Sink::new(Vec::new());
    let mut jsonl = JsonLinesSink::new(Vec::new());
    for snapshot in collector.completed_epochs() {
        use hashflow_suite::monitor::RecordSink as _;
        nf5.export_epoch(snapshot).expect("in-memory write");
        jsonl.export_epoch(snapshot).expect("in-memory write");
    }
    let nf5_bytes = nf5.into_inner();
    let jsonl_text = String::from_utf8(jsonl.into_inner()).expect("utf8");
    (collector, nf5_bytes, jsonl_text)
}

#[test]
fn netflow_v5_sink_bytes_reparse_to_the_sealed_records() {
    use hashflow_suite::netflow_export::decode_stream;

    let (collector, bytes, _) = run_export_pipeline();
    assert!(collector.completed_epochs().len() >= 2, "multi-epoch run");

    // Walk the concatenated datagrams and decode each one.
    let decoded = decode_stream(&bytes).expect("valid v5 stream");

    // The decoded stream is exactly the sealed epochs' records, in epoch
    // order (v5 carries key + count; compare those).
    let sealed: Vec<(FlowKey, u32)> = collector
        .completed_epochs()
        .iter()
        .flat_map(|e| e.records().map(|r| (r.key(), r.count())))
        .collect();
    let parsed: Vec<(FlowKey, u32)> = decoded.iter().map(|r| (r.key(), r.count())).collect();
    assert_eq!(parsed, sealed);
}

#[test]
fn jsonl_sink_emits_one_line_per_sealed_record() {
    let (collector, _, text) = run_export_pipeline();
    let total_records: usize = collector.completed_epochs().iter().map(|e| e.len()).sum();
    assert!(total_records > 0);
    assert_eq!(text.lines().count(), total_records);
    // Every epoch number appears on its records' lines.
    for sealed in collector.completed_epochs() {
        let marker = format!("{{\"epoch\": {}, ", sealed.epoch());
        assert_eq!(
            text.lines().filter(|l| l.contains(&marker)).count(),
            sealed.len(),
            "epoch {} line count",
            sealed.epoch()
        );
    }
}
