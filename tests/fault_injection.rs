//! Chaos suite: deterministic fault injection across the pipeline.
//!
//! Exercises the robustness contract end to end — seeded export faults
//! through the sink health state machine, injected worker panics through
//! the shard isolation path, and queue/buffer shedding under every
//! [`BackpressurePolicy`] — and checks the one invariant that makes
//! overload behavior auditable: every unit offered
//! to a bounded stage is either delivered or on a drop ledger,
//! `offered == delivered + dropped`, with the delivered side confirmed
//! against what actually came out the other end.
//!
//! Every fault schedule is seeded, so a failing case replays exactly.

use hashflow_server::{Server, ServerConfig};
use hashflow_suite::fault::{FaultInjectingSink, FaultPlan, PanicInjector};
use hashflow_suite::monitor::{
    BackpressurePolicy, SinkHealth, SINK_PROBE_INTERVAL, SINK_QUARANTINE_AFTER,
};
use hashflow_suite::prelude::*;
use hashflow_suite::shard::{BatchQueue, PushOutcome};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Terminal sink that counts delivered records through an [`Arc`], so
/// the count survives being boxed into a collector.
struct CountingSink {
    records: Arc<AtomicU64>,
}

impl RecordSink for CountingSink {
    fn export_epoch(&mut self, snapshot: &EpochSnapshot) -> io::Result<()> {
        self.records
            .fetch_add(snapshot.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

/// A [`MemorySink`] the test still reads once the pipeline owns the box.
struct SharedSink(Arc<Mutex<MemorySink>>);

impl RecordSink for SharedSink {
    fn export_epoch(&mut self, snapshot: &EpochSnapshot) -> io::Result<()> {
        self.0.lock().unwrap().export_epoch(snapshot)
    }
}

/// A collector exporting to `sink`, with the default sink health rules.
fn collector_with(sink: impl RecordSink + Send + 'static) -> Collector {
    Collector::builder(AlgorithmKind::HashFlow)
        .budget(MemoryBudget::from_kib(512).unwrap())
        .sink(Box::new(sink))
        .build()
        .unwrap()
}

/// A 40% transient-failure storm through the sink health machine: the
/// whole trajectory is deterministic in the seed, and every record is
/// delivered, failed or skipped past a quarantine, exactly once.
#[test]
fn transient_storms_replay_exactly_through_the_health_machine() {
    fn run(seed: u64) -> (Vec<SinkHealth>, u64, u64, u64) {
        let delivered = Arc::new(AtomicU64::new(0));
        let plan = FaultPlan::new(seed).with_failures(0.4);
        let mut collector = collector_with(FaultInjectingSink::new(
            CountingSink {
                records: Arc::clone(&delivered),
            },
            plan,
        ));
        let (mut states, mut offered, mut failed, mut errors_before) = (Vec::new(), 0, 0, 0);
        for epoch in 0..64 {
            collector.process_packet(&Packet::new(FlowKey::from_index(epoch), epoch, 64));
            let records = collector.seal().len() as u64;
            offered += records;
            let status = &collector.sink_health()[0];
            if status.total_errors > errors_before {
                failed += records;
                errors_before = status.total_errors;
            }
            states.push(status.health);
        }
        let skipped = collector.sink_health()[0].skipped_records;
        let delivered = delivered.load(Ordering::Relaxed);
        (states, offered, delivered, failed + skipped)
    }
    let first = run(11);
    assert_eq!(first, run(11), "seeded chaos must replay exactly");
    let (states, offered, delivered, dropped) = first;
    assert!(
        states.contains(&SinkHealth::Degraded),
        "a 40% storm degrades"
    );
    assert!(states.contains(&SinkHealth::Healthy), "and the sink heals");
    assert!(delivered > 0);
    assert_eq!(
        offered,
        delivered + dropped,
        "delivered + failed + skipped must equal offered"
    );
}

/// Fatal faults (malformed data, permission errors) fail fast: the first
/// one quarantines the sink, and the sealed epochs after it are skipped
/// rather than attempted, up to the probe.
#[test]
fn fatal_faults_quarantine_on_the_first_attempt() {
    let plan = FaultPlan::new(3).with_fatal(1.0);
    let mut collector = collector_with(FaultInjectingSink::new(MemorySink::new(), plan));
    for epoch in 0..=SINK_PROBE_INTERVAL {
        collector.process_packet(&Packet::new(FlowKey::from_index(epoch), epoch, 64));
        collector.seal();
    }
    let status = collector.sink_health().remove(0);
    assert_eq!(status.health, SinkHealth::Quarantined);
    assert_eq!(status.total_errors, 1, "fatal errors are not repeated");
    assert_eq!(status.skipped_epochs, SINK_PROBE_INTERVAL);
    let errors = collector.finish().unwrap_err();
    let kinds: Vec<io::ErrorKind> = errors.iter().map(|(_, e)| e.kind()).collect();
    assert_eq!(kinds, [io::ErrorKind::InvalidData]);
}

/// A hard outage one export wider than quarantine-after drives the full
/// health trajectory — degrade, quarantine, probe, re-quarantine,
/// recover — while every record stays in one of three audited buckets.
#[test]
fn outage_drives_quarantine_probing_and_recovery_with_conserved_records() {
    let delivered = Arc::new(AtomicU64::new(0));
    // Three clean seals, then every strike fails and so does the first
    // probe; the second probe finds the sink back.
    let strikes = u64::from(SINK_QUARANTINE_AFTER);
    let plan = FaultPlan::new(9).with_outage(3..3 + strikes + 1);
    let seals = 3 + strikes + 2 * (SINK_PROBE_INTERVAL + 1);
    let mut collector = collector_with(FaultInjectingSink::new(
        CountingSink {
            records: Arc::clone(&delivered),
        },
        plan,
    ));

    let trace = TraceGenerator::new(TraceProfile::Caida, 9).generate(1_500);
    let packets = trace.packets();
    let chunk = packets.len().div_ceil(seals as usize).max(1);

    let mut offered = 0u64;
    let mut failed_records = 0u64;
    let mut errors_before = 0u64;
    let mut states = Vec::new();
    for batch in packets.chunks(chunk) {
        collector.process_batch(batch);
        let epoch_records = collector.seal().len() as u64;
        offered += epoch_records;
        let status = &collector.sink_health()[0];
        if status.total_errors > errors_before {
            failed_records += epoch_records;
            errors_before = status.total_errors;
        }
        states.push(status.health);
    }
    assert_eq!(states.len() as u64, seals);
    assert!(states.contains(&SinkHealth::Degraded), "outage degrades");
    assert!(
        states.contains(&SinkHealth::Quarantined),
        "repeated failure quarantines"
    );
    let status = collector.sink_health().remove(0);
    assert_eq!(status.health, SinkHealth::Healthy, "the probe recovers");
    assert_eq!(status.recoveries, 1);
    assert_eq!(status.total_errors, strikes + 1, "the first probe failed");
    assert_eq!(
        status.skipped_epochs,
        2 * SINK_PROBE_INTERVAL,
        "quarantine skipped seals"
    );

    let dropped = failed_records + status.skipped_records;
    assert_eq!(
        offered,
        delivered.load(Ordering::Relaxed) + dropped,
        "delivered + failed + skipped must equal offered"
    );
    // Every parked outage error surfaces at finish, not just the first.
    let errors = collector.finish().unwrap_err();
    assert_eq!(errors.len() as u64, status.total_errors);
}

/// A sink that stalls on every export (a slow downstream collector)
/// delays each seal by the stall but loses and duplicates nothing: every
/// sealed record is delivered, the sink never degrades, and the
/// retention window sheds older epochs only on its ledger.
#[test]
fn stalled_exports_deliver_every_record() {
    const SEALS: u32 = 8;
    let stall = Duration::from_millis(1);
    let delivered = Arc::new(AtomicU64::new(0));
    let plan = FaultPlan::new(13).with_stalls(1.0, stall);
    let mut collector = Collector::builder(AlgorithmKind::HashFlow)
        .budget(MemoryBudget::from_kib(512).unwrap())
        .sink(Box::new(FaultInjectingSink::new(
            CountingSink {
                records: Arc::clone(&delivered),
            },
            plan,
        )))
        .retention(4)
        .build()
        .unwrap();

    let trace = TraceGenerator::new(TraceProfile::Caida, 13).generate(1_500);
    let packets = trace.packets();
    let chunk = packets.len().div_ceil(SEALS as usize);
    let mut sealed = 0u64;
    let mut sealing = Duration::ZERO;
    for batch in packets.chunks(chunk) {
        collector.process_batch(batch);
        let start = Instant::now();
        sealed += collector.seal().len() as u64;
        sealing += start.elapsed();
    }

    assert!(sealed > 0);
    assert_eq!(
        delivered.load(Ordering::Relaxed),
        sealed,
        "stalls delay exports, they never lose one"
    );
    let status = &collector.sink_health()[0];
    assert_eq!(status.health, SinkHealth::Healthy, "a stall is no error");
    assert_eq!(status.total_errors, 0);
    let retention = collector.retention_drop_stats();
    assert_eq!(retention.offered_epochs(), u64::from(SEALS));
    assert_eq!(retention.dropped_epochs(), u64::from(SEALS) - 4);
    assert_eq!(
        retention.offered_epochs(),
        retention.delivered_epochs() + retention.dropped_epochs()
    );
    collector.finish().expect("stalls surface no error");
    // `sleep` never returns early, so this shows every stall ran inside
    // a seal without bounding the run from above.
    assert!(sealing >= stall * SEALS, "seals took {sealing:?}");
}

/// An injected worker panic mid-ingest degrades only its own shard: the
/// in-flight and stranded batches land on the drop ledger, the healthy
/// shards' records stay exactly what a clean run produces, the merged
/// seal says `partial`, and sealing is the recovery point.
#[test]
fn worker_panic_is_isolated_ledgered_and_recovered_at_the_seal() {
    let budget = MemoryBudget::from_kib(256).unwrap();
    let chaos_shards: Vec<PanicInjector<HashFlow>> = (0..4)
        .map(|i| {
            PanicInjector::new(
                HashFlow::with_memory(budget).unwrap(),
                if i == 0 { 512 } else { u64::MAX },
            )
        })
        .collect();
    let mut chaos = ShardedMonitor::new(chaos_shards).unwrap();
    let clean_shards: Vec<HashFlow> = (0..4)
        .map(|_| HashFlow::with_memory(budget).unwrap())
        .collect();
    let mut clean = ShardedMonitor::new(clean_shards).unwrap();

    let trace = TraceGenerator::new(TraceProfile::Caida, 17).generate(5_000);
    let packets = trace.packets();
    let report = chaos.ingest(packets);
    clean.ingest(packets);

    assert!(chaos.is_degraded(), "shard 0 must die at packet 512");
    let faults = chaos.shard_faults();
    assert!(faults[0]
        .as_deref()
        .unwrap()
        .contains("injected worker panic"));
    assert!(
        faults[1..].iter().all(|f| f.is_none()),
        "one shard, one fault"
    );

    let drops = chaos.queue_drop_stats();
    assert_eq!(drops.offered_records(), packets.len() as u64);
    assert!(
        drops.dropped_records() > 0,
        "the dead lane sheds its backlog"
    );
    assert_eq!(report.dropped_packets, drops.dropped_records());
    assert_eq!(
        drops.delivered_records(),
        drops.offered_records() - drops.dropped_records()
    );

    // Healthy shards are untouched: every record the chaos run seals has
    // exactly the clean run's count for that key (shard 0's partition is
    // simply absent).
    let sealed = chaos.seal_epoch();
    assert!(sealed.partial, "a degraded shard taints the merged epoch");
    let reference: HashMap<FlowKey, u32> = clean
        .seal_epoch()
        .records
        .iter()
        .map(|r| (r.key(), r.count()))
        .collect();
    assert!(!sealed.records.is_empty(), "three shards kept ingesting");
    assert!(sealed.records.len() < reference.len(), "one partition lost");
    for record in &sealed.records {
        assert_eq!(
            reference.get(&record.key()),
            Some(&record.count()),
            "healthy-shard record diverged after the panic"
        );
    }

    // Sealing recovered the shard; the injector's countdown keeps
    // running (it models a deterministic bug, not a transient), so the
    // next epoch re-degrades — and the books must balance again.
    assert!(!chaos.is_degraded(), "seal is the recovery point");
    let before = chaos.queue_drop_stats().offered_records();
    let report = chaos.ingest(&packets[..2048.min(packets.len())]);
    assert!(chaos.is_degraded(), "the bug is still there next epoch");
    let drops = chaos.queue_drop_stats();
    assert_eq!(drops.offered_records() - before, report.packets);
    assert_eq!(
        drops.delivered_records(),
        drops.offered_records() - drops.dropped_records()
    );
}

/// Until it fires, the injector is transparent at the epoch boundary
/// too: a wrapped `HashFlow` goes through `HashFlow::seal` — the one-sweep
/// drain a deployment runs — and seals the snapshot its bare twin seals,
/// introspection included.
#[test]
fn an_unfired_panic_injector_seals_like_the_monitor_it_wraps() {
    let budget = MemoryBudget::from_kib(64).unwrap();
    let mut bare = HashFlow::with_memory(budget).unwrap();
    let mut wrapped = PanicInjector::new(HashFlow::with_memory(budget).unwrap(), u64::MAX);
    let trace = TraceGenerator::new(TraceProfile::Caida, 41).generate(3_000);
    bare.process_trace(trace.packets());
    wrapped.process_trace(trace.packets());
    assert!(!bare.introspection().is_empty());
    assert_eq!(wrapped.introspection(), bare.introspection());
    assert!(wrapped.faults().is_empty());

    let (sealed, expected) = (wrapped.seal(), bare.seal());
    assert!(!expected.is_empty());
    assert_eq!(sealed.as_records(), expected.as_records(), "same order");
    assert_eq!(sealed.cost(), expected.cost());
    assert_eq!(sealed.cardinality(), expected.cardinality());
    assert_eq!(sealed.introspection(), expected.introspection());
    assert!(wrapped.flow_records().is_empty(), "the seal drained it");
}

/// The isolation contract on the entries a deployment runs. Four shards
/// under an `EpochRotator`, fed only through `process_batch`, then only
/// through `process_packet`: shard 0's panic never reaches the caller and
/// degrades nothing else, the ledger balances, the recorder holds exactly
/// one `shard_panic` and one `batch_shed` for the dead shard however many
/// batches follow, the sealed epoch says `partial` to the caller and the
/// sinks alike, and the seal brings the shard back.
#[test]
fn a_panic_on_the_serial_entries_degrades_one_shard_and_announces_it_once() {
    let trace = TraceGenerator::new(TraceProfile::Caida, 37).generate(6_000);
    let packets = trace.packets();
    for per_packet in [false, true] {
        let budget = MemoryBudget::from_kib(256).unwrap();
        let sharded = ShardedMonitor::with_budget(4, budget, |i, b| {
            let threshold = if i == 0 { 300 } else { u64::MAX };
            Ok(PanicInjector::new(HashFlow::with_memory(b)?, threshold))
        })
        .unwrap();
        let recorder = hashflow_suite::obs::FlightRecorder::new();
        let mut rotator = EpochRotator::new(sharded, u64::MAX);
        rotator.instrument(&Instruments {
            recorder: Some(recorder.clone()),
            ..Instruments::default()
        });
        let exported = Arc::new(Mutex::new(MemorySink::new()));
        rotator.add_sink(Box::new(SharedSink(Arc::clone(&exported))));

        // Dozens of batches after the one that kills shard 0.
        for batch in packets.chunks(128) {
            if per_packet {
                batch.iter().for_each(|p| rotator.process_packet(p));
            } else {
                rotator.process_batch(batch);
            }
        }
        let sharded = rotator.inner();
        let faults = sharded.shard_faults();
        assert!(faults[0].as_deref().unwrap().contains("injected worker"));
        assert!(
            faults[1..].iter().all(|f| f.is_none()),
            "one shard, one fault"
        );
        let routed_to_0 = (packets.iter().filter(|p| sharded.shard_of(&p.key()) == 0)).count();
        let drops = sharded.queue_drop_stats();
        assert!(drops.dropped_records() > 0);
        assert!(
            drops.dropped_records() <= routed_to_0 as u64,
            "healthy shards lose nothing"
        );
        assert_eq!(
            drops.offered_records(),
            drops.delivered_records() + drops.dropped_records()
        );
        let count = |kind: &str| {
            let events = recorder.snapshot();
            let of_kind = events.iter().filter(|e| e.kind == kind);
            of_kind.filter(|e| e.field("shard") == Some("0")).count()
        };
        assert_eq!(count("shard_panic"), 1, "per_packet {per_packet}");
        assert_eq!(count("batch_shed"), 1, "per_packet {per_packet}");

        let sealed = rotator.rotate_now();
        assert!(sealed.is_partial());
        assert!(!sealed.is_empty(), "three shards kept ingesting");
        let exported = exported.lock().unwrap();
        assert!(
            exported.epochs()[0].is_partial(),
            "the sinks see it partial"
        );
        assert!(!rotator.inner().is_degraded(), "seal is the recovery point");
    }
}

/// A HashFlow whose report blows up once, the first time it is read
/// after arming: a bug in a shard's drain rather than in its ingest. It
/// keeps the trait's default `seal` (capture, then reset), so the panic
/// lands mid-drain with the tables still full.
struct DrainBomb {
    inner: HashFlow,
    armed: std::cell::Cell<bool>,
}

impl FlowMonitor for DrainBomb {
    fn process_packet(&mut self, packet: &Packet) {
        self.inner.process_packet(packet);
    }
    fn process_batch(&mut self, packets: &[Packet]) {
        self.inner.process_batch(packets);
    }
    fn flow_records(&self) -> Vec<FlowRecord> {
        if self.armed.replace(false) {
            panic!("injected drain panic");
        }
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
        "DrainBomb"
    }
    fn cost(&self) -> CostSnapshot {
        self.inner.cost()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// A shard that panics *while being drained* costs its own partition and
/// nothing else: the seal completes and says `partial`, the panic is
/// evented, the shard sits out (shedding on the ledger) until the next
/// seal's clean reset, and from then on the monitor is whole again.
#[test]
fn a_panic_mid_drain_yields_a_partial_epoch_and_recovers_at_the_next_seal() {
    let budget = MemoryBudget::from_kib(128).unwrap();
    let shard = |armed| DrainBomb {
        inner: HashFlow::with_memory(budget).unwrap(),
        armed: std::cell::Cell::new(armed),
    };
    let mut chaos = ShardedMonitor::new(vec![shard(true), shard(false)]).unwrap();
    let recorder = hashflow_suite::obs::FlightRecorder::new();
    chaos.instrument(&Instruments {
        recorder: Some(recorder.clone()),
        ..Instruments::default()
    });
    let mut clean = ShardedMonitor::new(vec![shard(false), shard(false)]).unwrap();

    let trace = TraceGenerator::new(TraceProfile::Caida, 23).generate(4_000);
    let packets = trace.packets();
    chaos.process_trace(packets);
    clean.process_trace(packets);
    assert!(
        !chaos.is_degraded(),
        "ingest was clean; the bug is in the drain"
    );

    // Epoch 0: shard 0 blows up inside the seal; shard 1's partition
    // comes through exactly as in the clean run.
    let sealed = chaos.seal_epoch();
    let reference = clean.seal_epoch();
    assert!(sealed.partial);
    let survivors: Vec<FlowRecord> = (reference.records.iter().copied())
        .filter(|r| chaos.shard_of(r.key_ref()) == 1)
        .collect();
    assert!(!survivors.is_empty() && survivors.len() < reference.records.len());
    assert_eq!(sealed.records, survivors);
    let events = recorder.snapshot();
    let panic_event = (events.iter().find(|e| e.kind == "shard_panic")).expect("evented");
    assert_eq!(panic_event.field("shard"), Some("0"));
    assert!(panic_event.message.contains("injected drain panic"));
    assert!(chaos.shard_faults()[0].is_some() && chaos.shard_faults()[1].is_none());

    // Epoch 1: the half-drained shard is not trusted; what is routed to
    // it is shed and counted, and the seal's clean reset brings it back.
    let before = chaos.queue_drop_stats().dropped_records();
    chaos.process_trace(packets);
    let routed_to_0 = (packets.iter().filter(|p| chaos.shard_of(&p.key()) == 0)).count() as u64;
    assert_eq!(
        chaos.queue_drop_stats().dropped_records() - before,
        routed_to_0
    );
    let sealed = chaos.seal_epoch();
    assert!(sealed.partial);
    assert_eq!(sealed.records, survivors);
    assert!(!chaos.is_degraded(), "seal is the recovery point");

    // Epoch 2: whole again, record for record.
    chaos.process_trace(packets);
    let sealed = chaos.seal_epoch();
    assert!(!sealed.partial);
    assert_eq!(sealed.records, reference.records);
    assert_eq!(sealed.cost, reference.cost);
}

/// The queue-level shedding contract, policy by policy: `DropNewest`
/// bounces the incoming batch back, and a closed queue rejects under
/// every policy so nothing vanishes without an outcome the caller can
/// count.
#[test]
fn batch_queue_offer_outcomes_shed_without_silent_loss() {
    let queue: BatchQueue<u32> = BatchQueue::new(2);
    assert!(matches!(
        queue.offer(vec![1], BackpressurePolicy::DropNewest),
        PushOutcome::Enqueued
    ));
    assert!(matches!(
        queue.offer(vec![2], BackpressurePolicy::DropNewest),
        PushOutcome::Enqueued
    ));
    // Full + DropNewest: the new batch comes straight back.
    match queue.offer(vec![3], BackpressurePolicy::DropNewest) {
        PushOutcome::Rejected(batch) => assert_eq!(batch, vec![3]),
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert_eq!(queue.try_pop(), Some(vec![1]));
    assert_eq!(queue.try_pop(), Some(vec![2]));
    // Closed: every policy rejects, including Block (no consumer will
    // ever come back for the batch).
    queue.close();
    for policy in BackpressurePolicy::ALL {
        match queue.offer(vec![9], policy) {
            PushOutcome::Rejected(batch) => assert_eq!(batch, vec![9]),
            other => panic!("closed queue must reject under {policy:?}, got {other:?}"),
        }
    }
}

fn zero_ts_packets() -> impl Strategy<Value = Vec<Packet>> {
    prop::collection::vec(0u64..48, 1..400).prop_map(|flows| {
        flows
            .into_iter()
            .map(|f| Packet::new(FlowKey::from_index(f), 0, 64))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The conservation invariant, property-tested across every bounded
    /// buffer and every ingest path (scalar, batched, sharded): the shard
    /// queues, the daemon's ingest queue under every backpressure policy,
    /// and the collector's retained epochs and answers under the one
    /// keep-newest rule. Each ledger's delivered side must equal what the stage
    /// actually holds or processed.
    #[test]
    fn conservation_holds_for_every_policy_buffer_and_ingest_path(
        packets in zero_ts_packets(),
        policy_idx in 0usize..2,
        path_idx in 0usize..3,
        cap in 1usize..5,
    ) {
        // Full pipeline: retained epochs and their answers in the
        // collector.
        let shards = [1usize, 1, 3][path_idx];
        let mut collector = Collector::builder(AlgorithmKind::HashFlow)
            .budget(MemoryBudget::from_kib(256).unwrap())
            .shards(shards)
            .retention(cap)
            .query("map src | distinct dst | reduce count".parse().unwrap())
            .build()
            .unwrap();

        let chunk = packets.len().div_ceil(4).max(1);
        let mut seals = 0u64;
        for batch in packets.chunks(chunk) {
            match path_idx {
                0 => batch.iter().for_each(|p| collector.process_packet(p)),
                _ => collector.process_batch(batch),
            }
            collector.seal();
            seals += 1;
        }

        // Epoch retention: ledger sees every seal, holds the newest
        // min(seals, cap).
        let retention = collector.retention_drop_stats();
        prop_assert_eq!(retention.offered_epochs(), seals);
        prop_assert_eq!(
            retention.delivered_epochs(),
            retention.offered_epochs() - retention.dropped_epochs()
        );
        prop_assert_eq!(
            collector.completed_epochs().len() as u64,
            retention.delivered_epochs()
        );
        prop_assert_eq!(retention.delivered_epochs(), seals.min(cap as u64));
        prop_assert_eq!(
            collector.completed_epochs().last().map(|e| e.epoch() + 1),
            Some(seals)
        );

        // Answers: one entry of one answer per retained epoch, under the
        // same bound.
        let answers = collector.drain_query_answers();
        prop_assert_eq!(answers.len() as u64, retention.delivered_epochs());
        prop_assert!(answers.iter().all(|entry| entry.len() == 1));

        // Shard queues, driven directly so the threaded dispatch path
        // runs: its lanes block, so nothing is shed.
        let budget = MemoryBudget::from_kib(192).unwrap();
        let mut sharded =
            ShardedMonitor::with_budget(3, budget, |_, b| HashFlow::with_memory(b)).unwrap();
        let report = sharded.ingest(&packets);
        let queue = sharded.queue_drop_stats();
        prop_assert_eq!(queue.offered_records(), packets.len() as u64);
        prop_assert_eq!((report.dropped_packets, queue.dropped_records()), (0, 0));
        prop_assert_eq!(queue.delivered_records(), sharded.cost().packets);

        // The daemon's ingest queue, `cap` batches deep, under each
        // policy, with its ingest thread consuming.
        let policy = BackpressurePolicy::ALL[policy_idx];
        let server = Server::start(ServerConfig {
            http_workers: 1,
            ingest_capacity: cap,
            ingest_policy: policy,
            ..ServerConfig::default()
        })
        .unwrap();
        let port = server.ingest_port();
        for batch in packets.chunks(chunk) {
            port.offer(batch.to_vec());
        }
        let report = server.shutdown();
        prop_assert_eq!(report.offered_records, packets.len() as u64);
        prop_assert!(report.conserved(), "{:?}", report);
        if policy == BackpressurePolicy::Block {
            prop_assert_eq!(report.dropped_records, 0);
        }
    }
}
