//! Property tests for the sharded ingestion subsystem: a
//! `ShardedMonitor<HashFlow>` must answer the §IV-A query surface like a
//! single HashFlow over the same stream, up to the estimator variance the
//! paper's own evaluation tolerates.
//!
//! Both monitors get the *same* total memory: the sharded side splits it
//! into four equal shard budgets (`MemoryBudget::split_shards`), so the
//! comparison is the equal-memory discipline of §IV-A applied across the
//! scale-out dimension.

use hashflow_suite::fault::PanicInjector;
use hashflow_suite::obs::FlightRecorder;
use hashflow_suite::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

const SHARDS: usize = 4;

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

fn pair(kib: usize) -> (HashFlow, ShardedMonitor<HashFlow>) {
    let budget = MemoryBudget::from_kib(kib).expect("positive budget");
    let single = HashFlow::with_memory(budget).expect("budget fits");
    let sharded = ShardedMonitor::with_budget(SHARDS, budget, |_, b| HashFlow::with_memory(b))
        .expect("split budget fits");
    (single, sharded)
}

/// A four-shard monitor over chaos-wrapped HashFlows, instrumented with
/// its own registry and recorder. `dead` names a shard that panics on
/// the first packet routed to it, so it is degraded — shedding, counted —
/// for the rest of the stream, whichever entry delivers that packet.
fn instrumented(
    dead: Option<usize>,
) -> (
    ShardedMonitor<PanicInjector<HashFlow>>,
    MetricsRegistry,
    FlightRecorder,
) {
    let budget = MemoryBudget::from_kib(64).expect("positive budget");
    let mut sharded = ShardedMonitor::with_budget(SHARDS, budget, |i, b| {
        let threshold = if dead == Some(i) { 1 } else { u64::MAX };
        Ok(PanicInjector::new(HashFlow::with_memory(b)?, threshold))
    })
    .expect("split budget fits");
    let (registry, recorder) = (MetricsRegistry::new(), FlightRecorder::new());
    sharded.instrument(&Instruments {
        registry: Some(registry.clone()),
        recorder: Some(recorder.clone()),
        tracer: None,
    });
    (sharded, registry, recorder)
}

/// Everything the three entries must agree on: sorted records, merged
/// cost, packets routed per shard, packets the ledger dropped, and the
/// sorted kinds of the recorded events.
type Observed = (
    Vec<FlowRecord>,
    CostSnapshot,
    Vec<u64>,
    u64,
    Vec<&'static str>,
);

fn observe(
    sharded: &ShardedMonitor<PanicInjector<HashFlow>>,
    registry: &MetricsRegistry,
    recorder: &FlightRecorder,
) -> Observed {
    let mut records = sharded.flow_records();
    records.sort_by_key(|r| r.key());
    let metrics = registry.snapshot();
    let routed = (0..SHARDS)
        .map(|i| {
            let shard = i.to_string();
            metrics
                .counter("hashflow_shard_packets_total", &[("shard", &shard)])
                .expect("registered per shard")
        })
        .collect();
    let mut kinds: Vec<_> = recorder.snapshot().into_iter().map(|e| e.kind).collect();
    kinds.sort();
    let drops = sharded.queue_drop_stats();
    assert_eq!(
        drops.offered_records(),
        drops.delivered_records() + drops.dropped_records()
    );
    (
        records,
        sharded.cost(),
        routed,
        drops.dropped_records(),
        kinds,
    )
}

fn truth_of(packets: &[Packet]) -> HashMap<FlowKey, u32> {
    let mut truth = HashMap::new();
    for p in packets {
        *truth.entry(p.key()).or_insert(0u32) += 1;
    }
    truth
}

/// Shard 0 dies mid-epoch (mid-batch, even: the injector arms per
/// packet); every other shard's partition must come through the seal
/// byte-for-byte identical to an undisturbed run.
#[test]
fn panic_isolation_preserves_the_healthy_shards() {
    let budget = MemoryBudget::from_kib(256).unwrap();
    let mut m = ShardedMonitor::with_budget(SHARDS, budget, |i, b| {
        let threshold = if i == 0 { 64 } else { u64::MAX };
        Ok(PanicInjector::new(HashFlow::with_memory(b)?, threshold))
    })
    .unwrap();
    let (_, mut reference) = pair(256);
    let trace = TraceGenerator::new(TraceProfile::Caida, 29).generate(20_000);
    let report = m.ingest(trace.packets());
    reference.ingest(trace.packets());

    assert!(m.shard_faults()[0]
        .as_deref()
        .is_some_and(|msg| msg.contains("injected worker panic")));
    assert!(m.shard_faults()[1..].iter().all(|f| f.is_none()));
    assert!(report.dropped_packets > 0);
    assert!(
        report.dropped_packets <= report.per_shard_packets[0],
        "healthy lanes lose nothing"
    );

    let sealed = m.seal_epoch();
    assert!(sealed.partial);
    let mut got: Vec<_> = sealed
        .records
        .iter()
        .map(|r| (r.key(), r.count()))
        .collect();
    let mut expected: Vec<_> = reference
        .flow_records()
        .iter()
        .filter(|r| reference.shard_of(&r.key()) != 0)
        .map(|r| (r.key(), r.count()))
        .collect();
    got.sort_unstable();
    expected.sort_unstable();
    assert_eq!(got, expected, "surviving partitions are exact");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shared-key record equality: with ample memory (no promotions on
    /// either side, which the generous budget makes the overwhelming
    /// case), every flow reported by *both* the sharded and the single
    /// monitor carries the identical — exact — packet count. When
    /// promotions do occur, both sides must still never overcount.
    #[test]
    fn merged_records_match_single_run_on_shared_keys(packets in stream(400, 800)) {
        let (mut single, mut sharded) = pair(256);
        single.process_trace(&packets);
        sharded.ingest(&packets);
        let truth = truth_of(&packets);

        let single_records: HashMap<FlowKey, u32> = single
            .flow_records()
            .into_iter()
            .map(|r| (r.key(), r.count()))
            .collect();
        let promotion_free = single.promotions() == 0
            && sharded.shards().iter().all(|s| s.promotions() == 0);
        for rec in sharded.flow_records() {
            prop_assert!(rec.count() <= truth[&rec.key()], "sharded overcount");
            if let Some(&count) = single_records.get(&rec.key()) {
                prop_assert!(count <= truth[&rec.key()], "single overcount");
                if promotion_free {
                    prop_assert_eq!(
                        rec.count(),
                        count,
                        "shared key {:?} differs: sharded {} vs single {}",
                        rec.key(),
                        rec.count(),
                        count
                    );
                }
            }
        }
    }

    /// No flow is ever reported by two shards (RSS pinning), and the
    /// owning shard answers exactly like the merged query surface.
    #[test]
    fn sharded_records_are_disjoint_and_routable(packets in stream(600, 600)) {
        let (_, mut sharded) = pair(128);
        sharded.ingest(&packets);
        let mut seen = std::collections::HashSet::new();
        for rec in sharded.flow_records() {
            prop_assert!(seen.insert(rec.key()), "flow reported by two shards");
            prop_assert_eq!(sharded.estimate_size(&rec.key()), rec.count());
        }
    }

    /// Merged cardinality stays within the single-monitor estimator's
    /// error envelope: the combined estimate may not be meaningfully worse
    /// than what one linear-counting HashFlow reports at the same total
    /// budget (5% slack for split-estimator variance), and both remain
    /// inside the ballpark the paper's Fig. 7 operates in.
    #[test]
    fn merged_cardinality_within_single_monitor_error(packets in stream(2_000, 4_000)) {
        let (mut single, mut sharded) = pair(64);
        single.process_trace(&packets);
        sharded.ingest(&packets);
        let truth = truth_of(&packets).len() as f64;

        let single_err = (single.estimate_cardinality() - truth).abs() / truth;
        let sharded_err = (sharded.estimate_cardinality() - truth).abs() / truth;
        prop_assert!(
            sharded_err <= single_err + 0.05,
            "sharded RE {sharded_err:.4} vs single RE {single_err:.4} over {truth} flows"
        );
        prop_assert!(sharded_err < 0.15, "sharded RE {sharded_err:.4}");
    }

    /// The threaded ingest path and the one-packet-at-a-time dispatch path
    /// are observationally identical (same records, same merged costs), so
    /// the threaded rate the benchmark reports (`lib-caida-8m-s2`,
    /// `shard.ingest_ns_per_pkt`) times the same work as the serial path.
    #[test]
    fn threaded_and_sequential_ingest_agree(packets in stream(300, 500)) {
        let (_, mut threaded) = pair(64);
        let (_, mut sequential) = pair(64);
        threaded.ingest(&packets);
        for p in &packets {
            sequential.process_packet(p);
        }
        let mut a = threaded.flow_records();
        let mut b = sequential.flow_records();
        a.sort_by_key(|r| r.key());
        b.sort_by_key(|r| r.key());
        prop_assert_eq!(a, b);
        prop_assert_eq!(threaded.cost(), sequential.cost());
    }

    /// One way in: any interleaving of the three entries — a packet, a
    /// batch of any length, a threaded `ingest` — over the same stream
    /// leaves what the all-`process_packet` run leaves, with every shard
    /// healthy and with one shard degraded from its first packet on. (The
    /// ledger is compared on its drops: only `ingest` offers a healthy
    /// shard's packets to a queue, so what it delivered is counted apart.)
    #[test]
    fn any_interleaving_of_the_three_entries_equals_per_packet_dispatch(
        packets in stream(300, 600),
        steps in prop::collection::vec((0usize..3, 1usize..120), 1..12),
        dead in 0..=SHARDS,
    ) {
        // `SHARDS` itself stands for "every shard healthy".
        let dead = (dead < SHARDS).then_some(dead);
        let (mut scalar, scalar_registry, scalar_recorder) = instrumented(dead);
        for p in &packets {
            scalar.process_packet(p);
        }
        let (mut mixed, registry, recorder) = instrumented(dead);
        let mut rest = packets.as_slice();
        let mut queued_for_live_shards = 0u64;
        for &(entry, len) in steps.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let len = if entry == 0 { 1 } else { len.min(rest.len()) };
            let (run, tail) = rest.split_at(len);
            rest = tail;
            match entry {
                0 => mixed.process_packet(&run[0]),
                1 => mixed.process_batch(run),
                _ => {
                    mixed.ingest(run);
                    queued_for_live_shards +=
                        run.iter().filter(|p| Some(mixed.shard_of(&p.key())) != dead).count() as u64;
                }
            }
        }
        prop_assert_eq!(
            observe(&mixed, &registry, &recorder),
            observe(&scalar, &scalar_registry, &scalar_recorder)
        );
        prop_assert_eq!(mixed.queue_drop_stats().delivered_records(), queued_for_live_shards);
        prop_assert_eq!(mixed.shard_faults().iter().flatten().count(), usize::from(dead.is_some()));
    }

    /// Registry sweep: every algorithm runs sharded through the builder
    /// with scalar and batched dispatch observationally identical.
    #[test]
    fn registry_sharding_capability_is_honored(packets in stream(300, 500)) {
        let budget = MemoryBudget::from_kib(64).expect("positive");
        for kind in AlgorithmKind::ALL {
            let mut scalar = MonitorBuilder::new(kind)
                .budget(budget)
                .seed(0x5a5a)
                .shards(SHARDS)
                .build()
                .expect("split budget fits");
            let mut batched = MonitorBuilder::new(kind)
                .budget(budget)
                .seed(0x5a5a)
                .shards(SHARDS)
                .build()
                .expect("split budget fits");
            for p in &packets {
                scalar.process_packet(p);
            }
            batched.process_batch(&packets);
            prop_assert_eq!(batched.cost(), scalar.cost(), "{} cost diverges", kind);
            let mut a = scalar.flow_records();
            let mut b = batched.flow_records();
            a.sort_by_key(|r| (r.key(), r.count()));
            b.sort_by_key(|r| (r.key(), r.count()));
            prop_assert_eq!(a, b, "{} records diverge", kind);
            for key in packets.iter().map(|p| p.key()).collect::<std::collections::HashSet<_>>() {
                prop_assert_eq!(
                    batched.estimate_size(&key),
                    scalar.estimate_size(&key),
                    "{} size estimate diverges for {:?}",
                    kind,
                    key
                );
            }
            let (ca, cb) = (scalar.estimate_cardinality(), batched.estimate_cardinality());
            prop_assert!((ca - cb).abs() < 1e-9, "{} cardinality diverges: {} vs {}", kind, ca, cb);
        }
    }

    /// The partition oracle: for every kind, a sharded monitor is exactly
    /// its shards' partitions each run alone. Four standalone monitors
    /// from the same builder, each fed its part of `partition`, report
    /// the sharded records as a multiset, answer every size query the
    /// owning shard is asked, and sum to its cardinality and its cost.
    #[test]
    fn every_kind_shards_into_its_partitions_run_alone(packets in stream(300, 500)) {
        const SEED: u64 = 0x0a11_5ea1;
        let budget = MemoryBudget::from_kib(64).expect("positive");
        for kind in AlgorithmKind::ALL {
            let build = |b| MonitorBuilder::new(kind).budget(b).seed(SEED).build();
            let mut sharded = ShardedMonitor::with_budget(SHARDS, budget, |_, b| build(b))
                .expect("split budget fits");
            let mut alone: Vec<_> = budget
                .split_shards(SHARDS)
                .expect("four shards")
                .into_iter()
                .map(|b| build(b).expect("split budget fits"))
                .collect();
            for (monitor, part) in alone.iter_mut().zip(sharded.partition(&packets)) {
                monitor.process_trace(&part);
            }
            sharded.ingest(&packets);

            let mut expected: Vec<FlowRecord> =
                alone.iter().flat_map(|m| m.flow_records()).collect();
            let mut records = sharded.flow_records();
            expected.sort_by_key(|r| (r.key(), r.count()));
            records.sort_by_key(|r| (r.key(), r.count()));
            prop_assert_eq!(records, expected, "{} records", kind);
            // Every flow of the stream, and flows it never carried.
            for key in (0..310).map(FlowKey::from_index) {
                prop_assert_eq!(
                    sharded.estimate_size(&key),
                    alone[sharded.shard_of(&key)].estimate_size(&key),
                    "{} size of {:?}",
                    kind,
                    key
                );
            }
            let cardinality: f64 = alone.iter().map(|m| m.estimate_cardinality()).sum();
            prop_assert_eq!(sharded.estimate_cardinality(), cardinality, "{} cardinality", kind);
            let costs: Vec<CostSnapshot> = alone.iter().map(|m| m.cost()).collect();
            prop_assert_eq!(sharded.cost(), CostSnapshot::sum(&costs), "{} cost", kind);
        }
    }

    /// Epoch sealing drains every shard into one report whose records are
    /// the merged query surface at sealing time, and leaves the monitor
    /// clean for the next epoch.
    #[test]
    fn sealed_epoch_report_equals_merged_queries(packets in stream(200, 400)) {
        let (_, mut sharded) = pair(128);
        sharded.ingest(&packets);
        let mut live = sharded.flow_records();
        let expected_cost = sharded.cost();
        let mut report = sharded.seal_epoch();
        live.sort_by_key(|r| r.key());
        report.records.sort_by_key(|r| r.key());
        prop_assert_eq!(&live, &report.records);
        prop_assert_eq!(report.cost, expected_cost);
        prop_assert_eq!(sharded.flow_records().len(), 0);
        prop_assert_eq!(sharded.cost().packets, 0);
    }
}
