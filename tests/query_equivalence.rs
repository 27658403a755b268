//! Property suite for the telemetry query subsystem: the one executor
//! against an independent oracle.
//!
//! Plans are answered at every seal, over the sealed records. For each
//! covered plan (hand-picked shapes plus every application plan), every
//! answer a pipeline banks for an epoch must equal the oracle: the same
//! plan over the **per-epoch flow multiset of the raw packets**, computed
//! twice — by [`execute`], and by [`reference`], a naive evaluator written
//! in this file from the plan semantics alone (no shared code with the
//! executor). The applications' verdicts, folded epoch by epoch from the
//! banked answers, must equal those folded from the truth, heavy changer
//! included.
//!
//! The oracle only holds where the record report equals the true flow
//! multiset ("exact mode"), so every case checks that precondition
//! rather than assuming it. Covered pipelines: HashFlow under both main-
//! table schemes with tables well above the flow universe, the 4-shard
//! merge path, `ExactBaselineMonitor`, and the rotating `Collector`.

use hashflow_suite::core::{HashFlowConfig, TableScheme};
use hashflow_suite::prelude::*;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Application thresholds low enough for the small test universe.
fn apps() -> Vec<TelemetryApp> {
    TelemetryApp::standard_suite(3, 3, 3, 2)
}

/// Plans covering every stage combination the executor branches on
/// (distinct / plain sum / count / max / threshold / key filters / count
/// filters), then every application plan, in [`apps`] order.
fn covered_plans() -> Vec<QueryPlan> {
    let mut plans: Vec<QueryPlan> = [
        "map src | distinct dst | reduce count",
        "map dst | distinct src | reduce count | threshold 2",
        "map src | distinct dstport | reduce count",
        "map src | distinct dst | reduce max",
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
    plans.extend(apps().iter().map(|app| app.plan().clone()));
    plans
}

/// The plan semantics, evaluated the slow and obvious way: collect each
/// group's items, then aggregate them. Items are whole flows, or the
/// deduplicated projected sub-keys after `distinct` (each worth 1).
fn reference(plan: &QueryPlan, truth: &[FlowRecord]) -> Vec<(FlowKey, u64)> {
    let mut flows: BTreeMap<FlowKey, Vec<u64>> = BTreeMap::new();
    let mut subkeys: BTreeMap<FlowKey, BTreeSet<FlowKey>> = BTreeMap::new();
    for record in truth {
        let (key, count) = (record.key(), u64::from(record.count()));
        if !plan.filters().all(|p| p.test(&key, count)) {
            continue;
        }
        let group = plan.group().project(&key);
        match plan.distinct() {
            Some(sub) => {
                subkeys.entry(group).or_default().insert(sub.project(&key));
            }
            None => flows.entry(group).or_default().push(count),
        }
    }
    let items = flows.into_iter().chain(
        subkeys
            .into_iter()
            .map(|(group, set)| (group, vec![1; set.len()])),
    );
    let mut rows: Vec<(FlowKey, u64)> = items
        .map(|(group, items)| {
            let value = match plan.aggregate() {
                Aggregate::Sum => items.iter().sum(),
                Aggregate::Count => items.len() as u64,
                Aggregate::Max => items.iter().copied().max().unwrap_or(0),
            };
            (group, value)
        })
        .filter(|(_, value)| *value >= plan.threshold().unwrap_or(0))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows
}

/// Exact flow multiset of some packets.
fn flow_multiset(packets: &[Packet]) -> Vec<FlowRecord> {
    let mut counts: HashMap<FlowKey, u32> = HashMap::new();
    for p in packets {
        *counts.entry(p.key()).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .map(|(k, c)| FlowRecord::new(k, c))
        .collect()
}

fn sorted(records: &[FlowRecord]) -> Vec<(FlowKey, u32)> {
    let mut pairs: Vec<(FlowKey, u32)> = records.iter().map(|r| (r.key(), r.count())).collect();
    pairs.sort_unstable();
    pairs
}

/// Checks one pipeline's banked answers, epoch by epoch, against the
/// oracle over `truth` (one flow multiset per sealed epoch), then folds
/// the application verdicts from both sides.
fn assert_banked_match_oracle(banked: &[Vec<QueryResult>], truth: &[Vec<FlowRecord>]) {
    let plans = covered_plans();
    assert_eq!(banked.len(), truth.len(), "one answer set per sealed epoch");
    let mut apps_banked = apps();
    let mut apps_truth = apps();
    let first_app = plans.len() - apps_banked.len();
    for (epoch, (answers, truth)) in banked.iter().zip(truth).enumerate() {
        assert_eq!(answers.len(), plans.len());
        for (plan, answer) in plans.iter().zip(answers) {
            let oracle = execute(plan, truth);
            assert_eq!(answer, &oracle, "plan '{plan}', epoch {epoch}");
            let rows: Vec<(FlowKey, u64)> =
                oracle.rows().iter().map(|r| (r.key, r.value)).collect();
            assert_eq!(
                rows,
                reference(plan, truth),
                "execute vs reference: '{plan}'"
            );
        }
        for (i, (app_b, app_t)) in apps_banked.iter_mut().zip(&mut apps_truth).enumerate() {
            let from_banked = app_b.observe(&answers[first_app + i]);
            let from_truth = app_t.observe(&execute(app_t.plan(), truth));
            assert_eq!(from_banked, from_truth, "{} epoch {epoch}", app_t.kind());
        }
    }
}

/// Runs each epoch's packets through a [`QueryMonitor`] wrapping
/// `monitor` with every covered plan attached, sealing after each, and
/// checks the banked answers against the oracle.
fn assert_answers_match_oracle<M: FlowMonitor>(monitor: M, epochs: &[Vec<Packet>]) {
    let mut qm = QueryMonitor::new(monitor);
    for plan in covered_plans() {
        qm.attach(plan);
    }
    let mut truth = Vec::new();
    for packets in epochs {
        qm.process_trace(packets);
        let epoch_truth = flow_multiset(packets);
        // Exact-mode precondition: a violation would make the property
        // vacuous, so check it rather than assume it.
        assert_eq!(
            sorted(&qm.flow_records()),
            sorted(&epoch_truth),
            "monitor not in exact mode at this load"
        );
        qm.seal();
        truth.push(epoch_truth);
    }
    assert_banked_match_oracle(&qm.drain_sealed_answers(), &truth);
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

/// Two epochs of traffic over the same universe, so the heavy changer
/// has a predecessor to diff against.
fn two_epochs(max_packets: usize) -> impl Strategy<Value = Vec<Vec<Packet>>> {
    (stream(max_packets), stream(max_packets)).prop_map(|(a, b)| vec![a, b])
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

fn budget() -> MemoryBudget {
    MemoryBudget::from_kib(512).expect("positive")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// HashFlow, multi-hash scheme, exact mode: the answers sealed from
    /// the snapshot equal the oracle over the raw stream.
    #[test]
    fn multihash_streaming_matches_snapshot(epochs in two_epochs(600)) {
        assert_answers_match_oracle(
            hashflow_with(TableScheme::MultiHash { depth: 3 }),
            &epochs,
        );
    }

    /// HashFlow, pipelined scheme (the paper's default), exact mode.
    #[test]
    fn pipelined_streaming_matches_snapshot(epochs in two_epochs(600)) {
        assert_answers_match_oracle(
            hashflow_with(TableScheme::Pipelined { depth: 3, alpha: 0.7 }),
            &epochs,
        );
    }

    /// The 4-shard merge path: the QueryMonitor wraps the whole
    /// ShardedMonitor and answers over its merged seal.
    #[test]
    fn sharded_streaming_matches_snapshot(epochs in two_epochs(500)) {
        let sharded = ShardedMonitor::with_budget(4, budget(), |_, b| HashFlow::with_memory(b))
            .expect("split fits");
        assert_answers_match_oracle(sharded, &epochs);
    }

    /// The budgeted exact baseline: the pipeline's source of exact
    /// answers.
    #[test]
    fn exact_baseline_answers_match_the_oracle(epochs in two_epochs(600)) {
        let exact = ExactBaselineMonitor::with_memory(budget()).expect("budget holds records");
        assert_answers_match_oracle(exact, &epochs);
    }
}

/// The rotating `Collector`: timed rotations answer every plan over each
/// sealed epoch, and the applications' verdicts (the heavy changer's
/// cross-epoch deltas included) equal those folded from the truth.
#[test]
fn applications_agree_across_rotated_epochs() {
    const EPOCH_NS: u64 = 1_000_000;

    // Three epochs of deterministic traffic with drifting flow counts,
    // each starting on its epoch edge.
    let mut packets = Vec::new();
    for epoch in 0..3u64 {
        let mut at = epoch * EPOCH_NS;
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
    let truth: Vec<Vec<FlowRecord>> = (0..3u64)
        .map(|epoch| {
            let in_epoch: Vec<Packet> = packets
                .iter()
                .filter(|p| p.timestamp_ns() / EPOCH_NS == epoch)
                .copied()
                .collect();
            flow_multiset(&in_epoch)
        })
        .collect();

    let mut builder = Collector::builder(AlgorithmKind::HashFlow)
        .budget(budget())
        .epoch_ns(EPOCH_NS);
    for plan in covered_plans() {
        builder = builder.query(plan);
    }
    let mut collector = builder.build().expect("registry build");
    collector.process_trace(&packets);
    collector.seal();

    for (sealed, truth) in collector.completed_epochs().iter().zip(&truth) {
        assert_eq!(sorted(sealed.as_records()), sorted(truth), "exact mode");
    }
    let banked = collector.drain_query_answers();
    assert_banked_match_oracle(&banked, &truth);
    // The planted fan-out source is the one superspreader of every epoch.
    let superspreader = covered_plans().len() - apps().len();
    assert!(banked
        .iter()
        .all(|answers| answers[superspreader].len() == 1));
}
