//! Per-layer probes of the traced run.
//!
//! Nested layers cannot be timed from outside one by one, so ingest self
//! time is obtained by *peeling*: the same packets go through
//! `compute_lanes` only → bare `HashFlow::process_batch` →
//! `EpochRotator<HashFlow>` → `Collector` → `Collector` + one plan, and a
//! layer's self time is the difference between adjacent rungs. Every
//! timing is that of the fastest passes ([`fast_time`]): a pass the host
//! slowed down says nothing about a layer.

use crate::stats::fast_time;
use crate::workload::{BATCH, PLAN};
use hashflow_collector::{AlgorithmKind, Collector};
use hashflow_core::{HashFlow, HashFlowConfig};
use hashflow_hashing::{compute_lanes, HashFamily, HashLanes, XxHash64};
use hashflow_monitor::{BackpressurePolicy, EpochRotator, FlowMonitor, MemoryBudget};
use hashflow_query::{execute_snapshot, QueryPlan};
use hashflow_server::wire;
use hashflow_shard::{BatchQueue, ShardedMonitor};
use hashflow_trace::Trace;
use hashflow_types::Packet;
use std::hint::black_box;
use std::str::FromStr;
use std::time::Instant;

/// `(name, value, sample count)` of each measured metric.
pub type Samples = Vec<(&'static str, f64, usize)>;

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let started = Instant::now();
    let result = f();
    (started.elapsed().as_secs_f64(), result)
}

fn fast(samples: &[f64]) -> f64 {
    fast_time(samples).unwrap_or(f64::NAN)
}

fn put(out: &mut Samples, name: &'static str, samples: &[f64]) {
    out.push((name, fast(samples), samples.len()));
}

/// The ingest ladder on the workload's own packets and memory size.
/// Returns the `Collector` rung's ns per packet (for the peel check).
pub fn ladder(trace: &Trace, memory_kib: usize, budget_s: f64, out: &mut Samples) -> f64 {
    let packets = trace.packets();
    let n = packets.len() as f64;
    let budget = MemoryBudget::from_kib(memory_kib).expect("workload budgets are valid");
    let config = HashFlowConfig::with_memory(budget).expect("HashFlow fits the budget");
    let plan = QueryPlan::from_str(PLAN).expect("the benchmark's plan parses");
    let collector = || Collector::builder(AlgorithmKind::HashFlow).budget(budget);

    // Four XxHash64 lanes per key, as HashFlow computes them: d main-table
    // members and the ancillary member.
    let main = HashFamily::<XxHash64>::new(config.scheme().depth(), config.seed());
    let ancillary = HashFamily::<XxHash64>::new(1, !config.seed());
    let mut lanes = HashLanes::default();
    let mut batched = HashFlow::new(config).expect("validated config");
    let mut scalar = HashFlow::new(config).expect("validated config");
    let mut rotator = EpochRotator::new(HashFlow::new(config).expect("validated config"), u64::MAX);
    let mut plain = collector().build().expect("validated budget");
    let mut planned = collector()
        .query(plan.clone())
        .build()
        .expect("validated budget");

    // One pass costs roughly 700 ns per packet over all rungs.
    let passes = ((budget_s / (n * 700e-9)).round() as usize).clamp(1, 5);
    let per_pkt = |seconds: f64| seconds * 1e9 / n;
    let mut rung: [Vec<f64>; 6] = Default::default();
    let (mut core_seal, mut rotate, mut collector_seal) = (Vec::new(), Vec::new(), Vec::new());
    let (mut topk, mut lookup, mut execute) = (Vec::new(), Vec::new(), Vec::new());
    let keys: Vec<_> = trace
        .ground_truth()
        .iter()
        .take(10_000)
        .map(|r| r.key())
        .collect();
    for pass in 0..passes {
        let (s, ()) = timed(|| {
            for chunk in packets.chunks(BATCH) {
                compute_lanes(
                    &[&main, &ancillary],
                    chunk.iter().map(|p| p.key()),
                    &mut lanes,
                );
                black_box(&lanes);
            }
        });
        rung[0].push(per_pkt(s));

        let (s, ()) = timed(|| packets.chunks(BATCH).for_each(|c| batched.process_batch(c)));
        rung[1].push(per_pkt(s));
        if pass == 0 {
            let cost = batched.cost();
            let per = |v: u64| v as f64 / cost.packets.max(1) as f64;
            out.push(("core.hashes_per_pkt", per(cost.hashes), 1));
            out.push(("core.reads_per_pkt", per(cost.reads), 1));
            out.push(("core.writes_per_pkt", per(cost.writes), 1));
            let probe = |name: &str| {
                batched
                    .introspection()
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(f64::NAN, |m| m.as_f64())
            };
            out.push(("core.main_table_load", probe("main_table_load"), 1));
            let per_k = |v: f64| v * 1e3 / n;
            out.push(("core.promotions_per_kpkt", per_k(probe("promotions")), 1));
            out.push((
                "core.digest_collisions_per_kpkt",
                per_k(probe("digest_collisions")),
                1,
            ));
        }
        let (s, sealed) = timed(|| batched.seal());
        core_seal.push(s * 1e3);
        drop(sealed);

        let (s, ()) = timed(|| packets.iter().for_each(|p| scalar.process_packet(p)));
        rung[2].push(per_pkt(s));
        scalar.reset();

        let (s, ()) = timed(|| packets.chunks(BATCH).for_each(|c| rotator.process_batch(c)));
        rung[3].push(per_pkt(s));
        let (s, report) = timed(|| rotator.rotate_now());
        rotate.push(s * 1e3);
        drop(report);
        rotator.drain_completed();

        let (s, ()) = timed(|| packets.chunks(BATCH).for_each(|c| plain.process_batch(c)));
        rung[4].push(per_pkt(s));
        let (s, snapshot) = timed(|| plain.seal());
        collector_seal.push(s * 1e3);
        plain.drain_completed();
        for _ in 0..3 {
            topk.push(timed(|| black_box(snapshot.top_k(10))).0 * 1e6);
        }
        let (s, hits) = timed(|| {
            keys.iter()
                .filter(|k| snapshot.estimate_size(k) > 0)
                .count()
        });
        black_box(hits);
        lookup.push(s * 1e9 / keys.len() as f64);
        execute.push(timed(|| black_box(execute_snapshot(&plan, &snapshot))).0 * 1e3);
        drop(snapshot);

        let (s, ()) = timed(|| packets.chunks(BATCH).for_each(|c| planned.process_batch(c)));
        rung[5].push(per_pkt(s));
        drop(planned.seal());
        planned.drain_completed();
        planned.drain_query_answers();
    }
    let mut self_time = |name, upper: usize, lower: usize| {
        out.push((name, fast(&rung[upper]) - fast(&rung[lower]), passes));
    };
    self_time("monitor.rotator_self_ns_per_pkt", 3, 1);
    self_time("collector.self_ns_per_pkt", 4, 3);
    self_time("query.stream_self_ns_per_pkt", 5, 4);
    put(out, "hashing.lanes_ns_per_pkt", &rung[0]);
    put(out, "core.batch_ns_per_pkt", &rung[1]);
    put(out, "core.scalar_ns_per_pkt", &rung[2]);
    put(out, "core.seal_ms", &core_seal);
    put(out, "monitor.rotate_ms", &rotate);
    put(out, "monitor.snapshot_topk_us", &topk);
    put(out, "monitor.snapshot_lookup_ns", &lookup);
    put(out, "collector.seal_ms", &collector_seal);
    put(out, "query.execute_snapshot_ms", &execute);
    fast(&rung[4])
}

/// The sharding layer on its own: two shards over the same packets.
pub fn shard(packets: &[Packet], memory_kib: usize, out: &mut Samples) {
    let budget = MemoryBudget::from_kib(memory_kib).expect("workload budgets are valid");
    let mut sharded = ShardedMonitor::with_budget(2, budget, |_, b| HashFlow::with_memory(b))
        .expect("two HashFlow shards fit the budget");
    let n = packets.len() as f64;
    let (mut ingest, mut seal, mut partition) = (Vec::new(), Vec::new(), Vec::new());
    let (mut imbalance, mut dropped) = (0.0, 0);
    // The first pass warms the tables and the dispatch buffers.
    for pass in 0..3 {
        let (s, report) = timed(|| sharded.ingest(packets));
        let (seal_s, sealed) = timed(|| sharded.seal_epoch());
        drop(sealed);
        if pass > 0 {
            ingest.push(s * 1e9 / n);
            seal.push(seal_s * 1e3);
            imbalance = report.imbalance();
            dropped += report.dropped_packets;
            partition.push(timed(|| black_box(sharded.partition(packets))).0 * 1e9 / n);
        }
    }
    put(out, "shard.ingest_ns_per_pkt", &ingest);
    put(out, "shard.partition_ns_per_pkt", &partition);
    out.push(("shard.imbalance", imbalance, 1));
    put(out, "shard.seal_ms", &seal);
    out.push(("shard.dropped_pkts", dropped as f64, ingest.len()));

    let queue = BatchQueue::<Packet>::new(64);
    let mut batch = packets[..packets.len().min(BATCH)].to_vec();
    let trips = 200_000;
    let (s, ()) = timed(|| {
        for _ in 0..trips {
            let _ = black_box(queue.offer(batch, BackpressurePolicy::Block));
            batch = queue.pop().expect("the batch just offered");
        }
    });
    out.push(("shard.queue_roundtrip_ns", s * 1e9 / trips as f64, trips));
}

/// The HFW1 codec on its own.
pub fn wire(packets: &[Packet], out: &mut Samples) {
    let packets = &packets[..packets.len().min(1_000_000)];
    let n = packets.len() as f64;
    let (s, datagrams) = timed(|| wire::encode_datagrams(packets));
    out.push(("server.wire.encode_ns_per_pkt", s * 1e9 / n, 1));
    let (s, decoded) = timed(|| {
        datagrams
            .iter()
            .map(|d| wire::decode_datagram(d).map_or(0, |p| black_box(p).len()))
            .sum::<usize>()
    });
    assert_eq!(decoded, packets.len(), "the codec round-trips every record");
    out.push(("server.wire.decode_ns_per_pkt", s * 1e9 / n, 1));
}
