//! Cross-monitor property suite for the batched ingestion contract:
//! [`FlowMonitor::process_batch`] must be **observationally identical**
//! to the scalar `process_packet` loop — same flow records, same size
//! estimates, same cardinality estimate, same `CostSnapshot` — for every
//! monitor in the workspace, both main-table schemes, and adversarial
//! batch shapes (size 1, odd tails, empty batches in the middle).
//!
//! HashFlow has one ingestion path (a packet is a batch of one; probe
//! plans are built and prefetched `PREFETCH_AHEAD` packets ahead), so for
//! it the suite checks that the window's bookkeeping never leaks into
//! the result, whatever the batch shape. FlowRadar overrides
//! `process_batch` with a batched hot path of its own, and HashPipe,
//! ElasticSketch and SampledNetFlow ride the default scalar-loop
//! implementation — the suite pins the contract for all of them so a
//! future override cannot silently diverge.
//!
//! Every HashFlow comparison is followed by the structural invariants of
//! Algorithm 1 ([`assert_hashflow_invariants`]), which also run over the
//! adversarial trace regimes.
//!
//! A batch planned on another thread ([`FlowMonitor::process_planned`])
//! is held to the same contract against `process_batch`: HashFlow and the
//! epoch rotator record the same records, costs, introspection, epochs and
//! flight-recorder spans from a plan as without one, and a plan they
//! cannot use — another monitor's, another row count's, one without the
//! sampled positions their tracer needs or with positions drawn at
//! another rate, another type — is planned in place. Tracing never
//! changes measurement: no tracer, 1-in-1 and 1-in-4 measure the same.

use hashflow_suite::core::PREFETCH_AHEAD;
use hashflow_suite::monitor::{BatchPlan, BatchPlanner, FlowTracer, IntrospectMetric};
use hashflow_suite::obs::FlightRecorder;
use hashflow_suite::prelude::*;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

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

/// Splits `packets` into batches of cycling sizes, so one replay
/// exercises singletons, odd tails, interleaved empty batches, batches
/// one short of, exactly and one past the prefetch window, and the
/// collector's own batch size.
fn batch_plan(packets: &[Packet]) -> Vec<&[Packet]> {
    let sizes = [
        1usize,
        7,
        0,
        64,
        3,
        0,
        129,
        PREFETCH_AHEAD - 1,
        PREFETCH_AHEAD,
        PREFETCH_AHEAD + 1,
        256,
    ];
    batches_of(packets, &sizes)
}

/// The lengths at which pass 1 changes gear: empty, one key, either side
/// of one vector of lanes, and either side of the collector's batch.
const KERNEL_LENGTHS: [usize; 8] = [0, 1, 7, 8, 9, 255, 256, 257];

/// Splits `packets` into batches of the given sizes, cycling.
fn batches_of<'a>(packets: &'a [Packet], sizes: &[usize]) -> Vec<&'a [Packet]> {
    let mut batches = Vec::new();
    let mut rest = packets;
    let mut i = 0;
    while !rest.is_empty() {
        let take = sizes[i % sizes.len()].min(rest.len());
        let (head, tail) = rest.split_at(take);
        batches.push(head);
        rest = tail;
        i += 1;
    }
    batches
}

/// Drives `scalar` packet-by-packet and `batched` through the batch
/// plan, then asserts the two are observationally identical. Hands both
/// back for further inspection.
fn assert_equivalent<M: FlowMonitor>(scalar: M, batched: M, packets: &[Packet]) -> (M, M) {
    assert_equivalent_over(scalar, batched, packets, batch_plan(packets))
}

/// [`assert_equivalent`] over a batch plan of the caller's.
fn assert_equivalent_over<M: FlowMonitor>(
    mut scalar: M,
    mut batched: M,
    packets: &[Packet],
    batches: Vec<&[Packet]>,
) -> (M, M) {
    for p in packets {
        scalar.process_packet(p);
    }
    for batch in batches {
        batched.process_batch(batch);
    }

    prop_assert_eq!(batched.cost(), scalar.cost(), "cost snapshots diverge");

    let mut a = scalar.flow_records();
    let mut b = batched.flow_records();
    a.sort_by_key(|r| (r.key(), r.count()));
    b.sort_by_key(|r| (r.key(), r.count()));
    prop_assert_eq!(a, b, "flow records diverge");

    let keys: BTreeSet<FlowKey> = packets.iter().map(|p| p.key()).collect();
    for key in keys {
        prop_assert_eq!(
            batched.estimate_size(&key),
            scalar.estimate_size(&key),
            "size estimate diverges for {key:?}"
        );
    }
    let (ca, cb) = (
        scalar.estimate_cardinality(),
        batched.estimate_cardinality(),
    );
    prop_assert!(
        (ca - cb).abs() < 1e-9,
        "cardinality estimates diverge: {ca} vs {cb}"
    );
    (scalar, batched)
}

/// The structural invariants of Algorithm 1 on a HashFlow that ingested
/// exactly `packets`:
///
/// * no key is resident in two of its own probe slots (and every record
///   sits in one of them, where `lookup` finds it);
/// * `occupied()` equals the number of non-empty buckets;
/// * every main-table count is at most that flow's true packet count —
///   or, for a flow whose ancillary identity (`HashFlow::ancillary_coords`) is
///   shared with others in the trace, theirs together: a promoted record
///   starts from the ancillary summary, which §III-A keys by digest
///   knowing it "may mix flows up, but with a small chance";
/// * promotions are at most the packets that reached the ancillary phase
///   (counted on a packet-by-packet twin: neither resident before the
///   packet nor given an empty bucket by it).
fn assert_hashflow_invariants(hf: &HashFlow, packets: &[Packet]) {
    let mut truth: HashMap<FlowKey, u32> = HashMap::new();
    for p in packets {
        *truth.entry(p.key()).or_default() += 1;
    }
    let table = hf.main_table();
    let mut sent_by_identity: HashMap<(usize, u32), u32> = HashMap::new();
    for (key, sent) in &truth {
        *sent_by_identity
            .entry(hf.ancillary_coords(key))
            .or_default() += sent;
    }
    let mut resident = HashMap::new();
    for record in table.records() {
        let key = record.key();
        prop_assert!(
            resident.insert(key, record.count()).is_none(),
            "{key:?} is resident twice"
        );
        prop_assert_eq!(
            table.lookup(&key),
            Some(record.count()),
            "{key:?} is not on its own probe path"
        );
        prop_assert!(truth.contains_key(&key), "{key:?} was never sent");
        let sent = sent_by_identity[&hf.ancillary_coords(&key)];
        prop_assert!(
            record.count() <= sent,
            "{key:?} counts {} of {sent} packets",
            record.count()
        );
    }
    prop_assert_eq!(table.occupied(), resident.len(), "occupied() drifted");

    let mut twin = HashFlow::new(*hf.config()).expect("the config built `hf`");
    let mut ancillary_phase = 0u64;
    for p in packets {
        let was_resident = twin.main_table().lookup(&p.key()).is_some();
        let occupied = twin.main_table().occupied();
        twin.process_packet(p);
        if !was_resident && twin.main_table().occupied() == occupied {
            ancillary_phase += 1;
        }
    }
    prop_assert_eq!(twin.promotions(), hf.promotions(), "twin diverged");
    prop_assert!(
        hf.promotions() <= ancillary_phase,
        "{} promotions out of {ancillary_phase} ancillary-phase packets",
        hf.promotions()
    );
}

/// Scalar ≡ batched, then the invariants on both sides.
fn assert_hashflow_equivalent(scheme: TableScheme, packets: &[Packet]) {
    let (scalar, batched) =
        assert_equivalent(hashflow_with(scheme), hashflow_with(scheme), packets);
    assert_hashflow_invariants(&scalar, packets);
    assert_hashflow_invariants(&batched, packets);
}

/// The same over the kernel's own batch lengths, largest first so that a
/// stream of any length meets the long ones.
fn assert_hashflow_equivalent_at_kernel_lengths(scheme: TableScheme, packets: &[Packet]) {
    let mut sizes = KERNEL_LENGTHS;
    sizes.reverse();
    let (scalar, batched) = assert_equivalent_over(
        hashflow_with(scheme),
        hashflow_with(scheme),
        packets,
        batches_of(packets, &sizes),
    );
    assert_hashflow_invariants(&scalar, packets);
    assert_hashflow_invariants(&batched, packets);
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

/// The adversarial regimes the invariants were written for — keys sieved
/// to collide, and mostly single-packet flows — under both main-table
/// schemes, with tables small enough that every phase of Algorithm 1 is
/// under pressure.
#[test]
fn hashflow_invariants_hold_under_adversarial_regimes() {
    for regime in [TraceRegime::CollisionAdversarial, TraceRegime::ChurnHeavy] {
        let trace = regime.generate(0x1a7, 2_000);
        for scheme in [
            TableScheme::MultiHash { depth: 3 },
            TableScheme::Pipelined {
                depth: 3,
                alpha: 0.7,
            },
        ] {
            assert_hashflow_equivalent(scheme, trace.packets());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// HashFlow's real batched hot path, multi-hash scheme. Small tables
    /// so collisions, ancillary churn and promotions all trigger.
    #[test]
    fn hashflow_multihash_batches_equivalently(packets in stream(500, 900)) {
        assert_hashflow_equivalent(TableScheme::MultiHash { depth: 3 }, &packets);
    }

    /// HashFlow's real batched hot path, pipelined scheme.
    #[test]
    fn hashflow_pipelined_batches_equivalently(packets in stream(500, 900)) {
        assert_hashflow_equivalent(TableScheme::Pipelined { depth: 3, alpha: 0.7 }, &packets);
    }

    /// One probe and five, in both organizations, over the batch lengths
    /// at which pass 1 changes gear (vector tails, the short-batch cut).
    #[test]
    fn hashflow_depths_one_and_five_batch_equivalently(packets in stream(500, 1_600)) {
        for depth in [1, 5] {
            assert_hashflow_equivalent_at_kernel_lengths(TableScheme::MultiHash { depth }, &packets);
            assert_hashflow_equivalent_at_kernel_lengths(
                TableScheme::Pipelined { depth, alpha: 0.7 },
                &packets,
            );
        }
    }

    /// FlowRadar's batched Bloom+counter path, including decode output
    /// (flow_records triggers the peeling decode on both sides).
    #[test]
    fn flowradar_batches_equivalently(packets in stream(300, 700)) {
        assert_equivalent(
            FlowRadar::new(600, 0xf1).expect("valid"),
            FlowRadar::new(600, 0xf1).expect("valid"),
            &packets,
        );
    }

    /// SampledNetFlow rides the default scalar-loop process_batch, here
    /// with eviction pressure (capacity far below the flow count) and
    /// N > 1 sampling.
    #[test]
    fn sampled_netflow_batches_equivalently(packets in stream(400, 800)) {
        let make = || SampledNetFlow::new(64, 4, 0x5a).expect("valid");
        assert_equivalent(make(), make(), &packets);
    }

    /// HashPipe rides the default scalar-loop process_batch; the contract
    /// must hold regardless.
    #[test]
    fn hashpipe_batches_equivalently(packets in stream(400, 700)) {
        let budget = MemoryBudget::from_kib(8).expect("positive");
        let make = || HashPipe::with_memory(budget).expect("fits");
        assert_equivalent(make(), make(), &packets);
    }

    /// ElasticSketch rides the default scalar-loop process_batch; the
    /// contract must hold regardless.
    #[test]
    fn elastic_sketch_batches_equivalently(packets in stream(400, 700)) {
        let budget = MemoryBudget::from_kib(8).expect("positive");
        let make = || ElasticSketch::with_memory(budget).expect("fits");
        assert_equivalent(make(), make(), &packets);
    }

    /// Registry sweep: every registered algorithm — including the
    /// estimate-only sketches, whose contract covers size and cardinality
    /// estimates rather than records — honors the batched-ingestion
    /// contract through the builder path.
    #[test]
    fn every_registered_algorithm_batches_equivalently(packets in stream(400, 700)) {
        let budget = MemoryBudget::from_kib(32).expect("positive");
        for kind in AlgorithmKind::ALL {
            let make = || {
                MonitorBuilder::new(kind)
                    .budget(budget)
                    .seed(0xba7c)
                    .build()
                    .expect("budget fits")
            };
            assert_equivalent(make(), make(), &packets);
        }
    }

    /// The chunked process_trace default is just another batch plan, and
    /// the sharded monitor's batched dispatch composes with HashFlow's
    /// batched hot path: both must match the scalar loop end to end.
    #[test]
    fn process_trace_and_sharded_batches_equivalently(packets in stream(300, 600)) {
        let budget = MemoryBudget::from_kib(64).expect("positive");
        let mut scalar = HashFlow::with_memory(budget).expect("fits");
        let mut traced = HashFlow::with_memory(budget).expect("fits");
        for p in &packets {
            scalar.process_packet(p);
        }
        traced.process_trace(&packets);
        prop_assert_eq!(traced.cost(), scalar.cost());
        prop_assert_eq!(traced.flow_records(), scalar.flow_records());

        let sharded_budget = MemoryBudget::from_kib(64).expect("positive");
        let make_sharded = || {
            ShardedMonitor::with_budget(4, sharded_budget, |_, b| HashFlow::with_memory(b))
                .expect("split fits")
        };
        let mut shard_scalar = make_sharded();
        let mut shard_batched = make_sharded();
        for p in &packets {
            shard_scalar.process_packet(p);
        }
        for batch in batch_plan(&packets) {
            shard_batched.process_batch(batch);
        }
        prop_assert_eq!(shard_batched.cost(), shard_scalar.cost());
        let mut a = shard_scalar.flow_records();
        let mut b = shard_batched.flow_records();
        a.sort_by_key(|r| r.key());
        b.sort_by_key(|r| r.key());
        prop_assert_eq!(a, b);
    }
}

/// Every main-table organization at depths 1 to 4.
fn schemes_of_depth_one_to_four() -> Vec<TableScheme> {
    (1..=4)
        .flat_map(|depth| {
            [
                TableScheme::MultiHash { depth },
                TableScheme::Pipelined { depth, alpha: 0.7 },
            ]
        })
        .collect()
}

fn hashflow_seeded(scheme: TableScheme, seed: u64) -> HashFlow {
    HashFlow::new(
        HashFlowConfig::builder()
            .main_cells(256)
            .ancillary_cells(256)
            .scheme(scheme)
            .seed(seed)
            .build()
            .expect("valid config"),
    )
    .expect("valid geometry")
}

/// Attaches a tracer sampling every flow into a recorder of its own, and
/// returns the recorder.
fn trace_every_flow<M: FlowMonitor>(monitor: &mut M) -> FlightRecorder {
    trace_one_in(monitor, 1)
}

/// Attaches a tracer sampling one flow in `one_in` into a recorder of its
/// own, and returns the recorder.
fn trace_one_in<M: FlowMonitor>(monitor: &mut M, one_in: u64) -> FlightRecorder {
    let recorder = FlightRecorder::with_capacity(1 << 16);
    monitor.instrument(&Instruments {
        tracer: Some(FlowTracer::new(recorder.clone(), one_in)),
        ..Instruments::default()
    });
    recorder
}

/// An event's kind, message and fields: what a recorder holds, less the
/// sequence numbers and clocks.
type Recorded = (&'static str, String, Vec<(String, String)>);

fn recorded(recorder: &FlightRecorder) -> Vec<Recorded> {
    (recorder.snapshot().into_iter())
        .map(|e| (e.kind, e.message, e.fields))
        .collect()
}

/// Feeds every batch to `monitor` planned by `planner`, into one plan
/// reused from batch to batch as the daemon reuses its plans.
fn feed_planned<M: FlowMonitor>(
    monitor: &mut M,
    planner: &dyn BatchPlanner,
    batches: &[&[Packet]],
) {
    let mut plan = BatchPlan::default();
    for batch in batches {
        planner.plan(batch, &mut plan);
        monitor.process_planned(batch, &plan);
    }
}

/// Asserts that two HashFlows, and what their recorders hold, are
/// observationally identical: records, cost, introspection and spans,
/// live and after a seal (which records the `placement` spans).
fn assert_same_hashflow(
    expected: &mut HashFlow,
    expected_spans: &FlightRecorder,
    got: &mut HashFlow,
    got_spans: &FlightRecorder,
    what: &str,
) {
    prop_assert_eq!(
        got.flow_records(),
        expected.flow_records(),
        "{}: records",
        what
    );
    prop_assert_eq!(got.cost(), expected.cost(), "{}: cost", what);
    prop_assert_eq!(
        got.introspection(),
        expected.introspection(),
        "{}: introspection",
        what
    );
    let (a, b) = (expected.seal(), got.seal());
    prop_assert_eq!(b.as_records(), a.as_records(), "{}: sealed records", what);
    prop_assert_eq!(
        recorded(got_spans),
        recorded(expected_spans),
        "{}: spans",
        what
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A plan from a clone's planner, at depths 1 to 4 under both
    /// schemes and every flow traced, records exactly what
    /// `process_batch` does.
    #[test]
    fn hashflow_records_the_same_from_a_plan(packets in stream(500, 900)) {
        let batches = batch_plan(&packets);
        for scheme in schemes_of_depth_one_to_four() {
            let mut inplace = hashflow_seeded(scheme, 0x51);
            let inplace_spans = trace_every_flow(&mut inplace);
            let mut planned = hashflow_seeded(scheme, 0x51);
            let planned_spans = trace_every_flow(&mut planned);
            let planner = planned.clone().planner().expect("HashFlow plans");
            for batch in &batches {
                inplace.process_batch(batch);
            }
            feed_planned(&mut planned, planner.as_ref(), &batches);
            let what = format!("{scheme:?}");
            assert_same_hashflow(&mut inplace, &inplace_spans, &mut planned, &planned_spans, &what);
        }
    }

    /// Plans a HashFlow must not use — another seed's, one for another
    /// row count, one without the verdicts its tracer needs, one of
    /// another type or none — are planned in place, with the same
    /// results as `process_batch`.
    #[test]
    fn hashflow_plans_in_place_what_it_cannot_use(packets in stream(500, 900)) {
        let scheme = TableScheme::Pipelined { depth: 3, alpha: 0.7 };
        let batches = batch_plan(&packets);
        let traced = || {
            let mut hf = hashflow_seeded(scheme, 0x51);
            let spans = trace_every_flow(&mut hf);
            (hf, spans)
        };
        // Each case against a fresh in-place twin: a seal records spans.
        let assert_in_place = |mut got: HashFlow, got_spans: FlightRecorder, what: &str| {
            let (mut expected, expected_spans) = traced();
            for batch in &batches {
                expected.process_batch(batch);
            }
            assert_same_hashflow(&mut expected, &expected_spans, &mut got, &got_spans, what);
        };

        // Taken before `instrument` attaches the tracer: no verdicts.
        let mut unsampled = hashflow_seeded(scheme, 0x51);
        let before_tracer = unsampled.planner().expect("HashFlow plans");
        let spans = trace_every_flow(&mut unsampled);
        feed_planned(&mut unsampled, before_tracer.as_ref(), &batches);
        assert_in_place(unsampled, spans, "no verdicts");

        let (mut reseeded, spans) = traced();
        let mut other = hashflow_seeded(scheme, 0x52);
        trace_every_flow(&mut other);
        let other_seed = other.planner().expect("HashFlow plans");
        feed_planned(&mut reseeded, other_seed.as_ref(), &batches);
        assert_in_place(reseeded, spans, "another seed");

        let (mut misrowed, spans) = traced();
        let planner = misrowed.planner().expect("HashFlow plans");
        let mut plan = BatchPlan::default();
        for batch in &batches {
            // One packet more than the batch holds.
            let longer: Vec<Packet> = batch.iter().chain(&packets[..1]).copied().collect();
            planner.plan(&longer, &mut plan);
            misrowed.process_planned(batch, &plan);
        }
        assert_in_place(misrowed, spans, "row count");

        let (mut untyped, spans) = traced();
        let mut foreign = BatchPlan::default();
        foreign.refill::<Vec<u64>>().push(7);
        for (i, batch) in batches.iter().enumerate() {
            let plan = if i % 2 == 0 { &foreign } else { &BatchPlan::default() };
            untyped.process_planned(batch, plan);
        }
        assert_in_place(untyped, spans, "another type");
    }

    /// An epoch rotator whose edges fall inside batches seals the same
    /// epochs — numbers, spans, records — and records the same spans from
    /// plans as from `process_batch`.
    #[test]
    fn rotator_seals_the_same_epochs_from_plans(packets in stream(500, 900), len in 40u64..300) {
        let scheme = TableScheme::MultiHash { depth: 3 };
        let mut inplace = EpochRotator::new(hashflow_seeded(scheme, 0x51), len);
        let inplace_spans = trace_every_flow(&mut inplace);
        let mut planned = EpochRotator::new(hashflow_seeded(scheme, 0x51), len);
        let planned_spans = trace_every_flow(&mut planned);
        let planner = planned.planner().expect("a rotator over HashFlow plans");
        let batches = batch_plan(&packets);
        for batch in &batches {
            inplace.process_batch(batch);
        }
        feed_planned(&mut planned, planner.as_ref(), &batches);
        inplace.rotate_now();
        planned.rotate_now();
        let epochs = |r: &EpochRotator<HashFlow>| -> Vec<_> {
            (r.completed_epochs().iter())
                .map(|e| (e.epoch(), e.start_ns(), e.end_ns(), e.as_records().to_vec(), *e.cost()))
                .collect()
        };
        prop_assert_eq!(epochs(&planned), epochs(&inplace));
        prop_assert_eq!(recorded(&planned_spans), recorded(&inplace_spans));
    }
}

/// Batch sizes to cycle through, empty batches among them, never all
/// empty.
fn batch_sizes() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..300, 1..8).prop_map(|mut sizes| {
        sizes[0] = sizes[0].max(1);
        sizes
    })
}

/// What a HashFlow measured: its records, cost and introspection, then
/// the records of the epoch it seals.
type Measured = (
    Vec<FlowRecord>,
    CostSnapshot,
    Vec<IntrospectMetric>,
    Vec<FlowRecord>,
);

fn measured(hf: &mut HashFlow) -> Measured {
    let live = (hf.flow_records(), hf.cost(), hf.introspection());
    let sealed = hf.seal().as_records().to_vec();
    (live.0, live.1, live.2, sealed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tracing never changes measurement: at depths 1 to 5 under both
    /// schemes, in arbitrary batch shapes, a HashFlow with no tracer,
    /// with a 1-in-1 and with a 1-in-4 tracer measures the same records,
    /// `CostSnapshot`, introspection and sealed records. And a 1-in-1
    /// HashFlow handed plans whose sampled positions were drawn at 1 in 4
    /// plans those batches in place: it measures and traces exactly what
    /// its `process_batch` twin does.
    #[test]
    fn tracing_never_changes_measurement(packets in stream(500, 900), sizes in batch_sizes()) {
        let batches = batches_of(&packets, &sizes);
        for depth in 1..=5 {
            for scheme in [
                TableScheme::MultiHash { depth },
                TableScheme::Pipelined { depth, alpha: 0.7 },
            ] {
                let mut untraced = hashflow_seeded(scheme, 0x51);
                let mut every = hashflow_seeded(scheme, 0x51);
                let every_spans = trace_every_flow(&mut every);
                let mut quarter = hashflow_seeded(scheme, 0x51);
                trace_one_in(&mut quarter, 4);
                let mut replanned = hashflow_seeded(scheme, 0x51);
                let replanned_spans = trace_every_flow(&mut replanned);
                let other_rate = quarter.planner().expect("HashFlow plans");
                for batch in &batches {
                    untraced.process_batch(batch);
                    every.process_batch(batch);
                    quarter.process_batch(batch);
                }
                feed_planned(&mut replanned, other_rate.as_ref(), &batches);
                let expected = measured(&mut untraced);
                prop_assert_eq!(&measured(&mut every), &expected, "{:?}: 1 in 1", scheme);
                prop_assert_eq!(&measured(&mut quarter), &expected, "{:?}: 1 in 4", scheme);
                prop_assert_eq!(&measured(&mut replanned), &expected, "{:?}: replanned", scheme);
                prop_assert_eq!(
                    recorded(&replanned_spans),
                    recorded(&every_spans),
                    "{:?}: replanned spans",
                    scheme
                );
            }
        }
    }
}
