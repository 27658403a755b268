//! Sketch-introspection and flow-tracing suite.
//!
//! Every registered algorithm must expose structure-internal metrics
//! (`FlowMonitor::introspection`) and seal them into its epoch
//! snapshots, so the `/debug/introspect` endpoint and the
//! `hashflow_introspect_*` gauges
//! never go dark for any monitor the registry can build. The tracing
//! half pins the property the sampled flow-path tracer is built on:
//! sampling is a deterministic function of the flow key, so the same
//! flows are traced on the scalar, batched and sharded ingest paths.

use hashflow_suite::collector::{AlgorithmKind, Collector, MetricsRegistry, MonitorBuilder};
use hashflow_suite::monitor::{FlowTracer, IntrospectValue, FLOW_SPAN_KIND};
use hashflow_suite::obs::FlightRecorder;
use hashflow_suite::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn test_trace(seed: u64) -> hashflow_suite::trace::Trace {
    TraceGenerator::new(TraceProfile::Caida, seed).generate(1_500)
}

/// Registry sweep: every kind reports introspection from the live
/// monitor, seals it into the epoch snapshot, and exports it as gauges —
/// with names unique within one report and ratios already clamped.
#[test]
fn every_registered_kind_seals_introspection_into_its_snapshot() {
    let trace = test_trace(5);
    for kind in AlgorithmKind::ALL {
        let mut monitor = MonitorBuilder::new(kind)
            .budget(MemoryBudget::from_kib(64).expect("positive"))
            .seed(0x1717)
            .build()
            .expect("budget fits");
        monitor.process_batch(trace.packets());
        let live = monitor.introspection();
        assert!(!live.is_empty(), "{kind:?}: live introspection is empty");
        let names: BTreeSet<&str> = live.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names.len(), live.len(), "{kind:?}: duplicate metric names");
        for metric in &live {
            if let IntrospectValue::Ratio(r) = metric.value {
                assert!(
                    (0.0..=1.0).contains(&r),
                    "{kind:?}: {} ratio {r} outside [0, 1]",
                    metric.name
                );
            }
        }

        // The same metrics ride the sealed snapshot through the full
        // collector pipeline, and rotation exports them as gauges.
        let registry = MetricsRegistry::new();
        let mut collector = Collector::builder(kind)
            .budget(MemoryBudget::from_kib(64).expect("positive"))
            .seed(0x1717)
            .instruments(Instruments {
                registry: Some(registry.clone()),
                ..Instruments::default()
            })
            .build()
            .expect("collector builds");
        collector.process_batch(trace.packets());
        let snapshot = collector.seal();
        let sealed: BTreeSet<String> = snapshot
            .introspection()
            .iter()
            .map(|m| m.name.clone())
            .collect();
        assert!(
            !sealed.is_empty(),
            "{kind:?}: sealed snapshot carries no introspection"
        );
        let exposition = registry.snapshot().to_prometheus();
        for metric in snapshot.introspection() {
            assert!(
                exposition.contains(&metric.gauge_name()),
                "{kind:?}: gauge {} missing from /metrics",
                metric.gauge_name()
            );
        }
    }
}

/// Sharded construction merges per-shard introspection instead of
/// dropping it: ratios stay in range (mean over shards), counts sum,
/// and the merged report still has unique names.
#[test]
fn sharded_builds_merge_introspection_across_shards() {
    let trace = test_trace(9);
    for kind in AlgorithmKind::ALL {
        if !kind.supports_sharding() {
            continue;
        }
        let mut monitor = MonitorBuilder::new(kind)
            .budget(MemoryBudget::from_kib(128).expect("positive"))
            .seed(0x2323)
            .shards(4)
            .build()
            .expect("sharded build fits");
        monitor.process_batch(trace.packets());
        let merged = monitor.introspection();
        assert!(!merged.is_empty(), "{kind:?}: sharded introspection empty");
        let names: BTreeSet<&str> = merged.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names.len(),
            merged.len(),
            "{kind:?}: merge must collapse per-shard duplicates"
        );
        for metric in &merged {
            if let IntrospectValue::Ratio(r) = metric.value {
                assert!(
                    (0.0..=1.0).contains(&r),
                    "{kind:?}: merged {} ratio {r} outside [0, 1]",
                    metric.name
                );
            }
        }
    }
}

/// HashFlow's introspection exposes the Algorithm 1 placement machinery:
/// main/ancillary load factors and the promotion/digest-collision
/// counters that explain where flows landed.
#[test]
fn hashflow_introspection_names_the_placement_stages() {
    let mut monitor = HashFlow::with_memory(MemoryBudget::from_kib(32).unwrap()).unwrap();
    for p in test_trace(13).packets() {
        monitor.process_packet(p);
    }
    let report = monitor.introspection();
    let names: BTreeSet<&str> = report.iter().map(|m| m.name.as_str()).collect();
    for expected in [
        "main_table_load",
        "ancillary_load",
        "promotions",
        "digest_collisions",
    ] {
        assert!(names.contains(expected), "missing {expected}: {names:?}");
    }
}

/// The set of flows that leave spans is exactly the set the hash-based
/// sampler admits — on the scalar path and the batched path alike, so a
/// flow sampled anywhere is sampled everywhere.
#[test]
fn sampled_flows_are_traced_consistently_across_ingest_paths() {
    let trace = test_trace(17);
    let sampled_flows = |batched: bool| -> (BTreeSet<String>, FlowTracer) {
        let recorder = FlightRecorder::with_capacity(1 << 16);
        let tracer = FlowTracer::new(recorder.clone(), 8);
        let mut monitor = MonitorBuilder::new(AlgorithmKind::HashFlow)
            .budget(MemoryBudget::from_kib(64).expect("positive"))
            .seed(0x4242)
            .instruments(Instruments {
                tracer: Some(tracer.clone()),
                ..Instruments::default()
            })
            .build()
            .expect("budget fits");
        if batched {
            monitor.process_batch(trace.packets());
        } else {
            for p in trace.packets() {
                monitor.process_packet(p);
            }
        }
        let flows = recorder
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == FLOW_SPAN_KIND)
            .map(|e| e.field("flow").expect("spans carry the flow").to_string())
            .collect();
        (flows, tracer)
    };

    let (scalar, tracer) = sampled_flows(false);
    let (batched, _) = sampled_flows(true);
    assert!(!scalar.is_empty(), "1-in-8 sampling must trace some flows");
    assert_eq!(scalar, batched, "both paths trace the same flow set");

    // Every traced flow is one the sampler admits, and the sampler
    // admits a plausible 1-in-8 fraction of the trace's key space.
    let all_keys: BTreeSet<FlowKey> = trace.packets().iter().map(|p| p.key()).collect();
    for key in &all_keys {
        let traced = scalar.contains(&key.to_string());
        assert_eq!(
            traced,
            tracer.is_sampled(key),
            "{key}: traced iff sampled must hold"
        );
    }
}

/// A trace follows flows, not packets: whatever a flow sends, it leaves
/// at most one span per placement stage per epoch, and the seal's
/// `placement` span counts every packet it placed, stage by stage — on
/// the scalar and the batched path alike, span for span.
#[test]
fn placement_spans_are_one_per_flow_stage_and_epoch() {
    const ELEPHANTS: u64 = 4;
    let mut packets = Vec::new();
    for mouse in 0..2_000u64 {
        packets.push(Packet::new(FlowKey::from_index(1_000 + mouse), mouse, 64));
        // The elephants arrive once the mice have filled the table.
        if mouse >= 1_000 && mouse % 2 == 0 {
            for e in 0..ELEPHANTS {
                packets.push(Packet::new(FlowKey::from_index(e), mouse, 64));
            }
        }
    }
    let mut sent: BTreeMap<String, u64> = BTreeMap::new();
    for p in &packets {
        *sent.entry(p.key().to_string()).or_default() += 1;
    }
    // (flow, stage, detail) of every span, per epoch.
    let epochs = |batched: bool| -> Vec<Vec<(String, String, String)>> {
        let recorder = FlightRecorder::with_capacity(1 << 16);
        let mut monitor = MonitorBuilder::new(AlgorithmKind::HashFlow)
            // A small table: mice collide, elephants reach the ancillary
            // table and get promoted.
            .budget(MemoryBudget::from_kib(4).expect("positive"))
            .seed(0x5eed)
            .instruments(Instruments {
                tracer: Some(FlowTracer::new(recorder.clone(), 1)),
                ..Instruments::default()
            })
            .build()
            .expect("budget fits");
        (0..2)
            .map(|_| {
                let since = recorder.last_seq();
                if batched {
                    monitor.process_batch(&packets);
                } else {
                    for p in &packets {
                        monitor.process_packet(p);
                    }
                }
                let _ = monitor.seal();
                recorder
                    .events_since(since)
                    .into_iter()
                    .filter(|e| e.kind == FLOW_SPAN_KIND)
                    .map(|e| {
                        let field = |name| e.field(name).expect("span field").to_string();
                        (field("flow"), field("stage"), e.message.clone())
                    })
                    .collect()
            })
            .collect()
    };

    let scalar = epochs(false);
    assert_eq!(scalar, epochs(true), "both paths record the same spans");
    let mut staged = 0;
    for spans in &scalar {
        // flow → the stages it spanned on first arrival.
        let mut first: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        let mut summaries = BTreeMap::new();
        for (flow, stage, detail) in spans {
            if stage == "placement" {
                assert!(summaries.insert(flow.as_str(), detail).is_none());
            } else {
                assert!(
                    first.entry(flow).or_default().insert(stage),
                    "{flow}: a second {stage} span in one epoch"
                );
            }
        }
        assert_eq!(
            summaries.len(),
            2_000 + ELEPHANTS as usize,
            "one summary per flow"
        );
        for (flow, detail) in summaries {
            let mut total = 0;
            let mut stages = BTreeSet::new();
            for part in detail.split(", ") {
                let (stage, count) = part.split_once(' ').expect("`stage count`");
                stages.insert(stage);
                total += count.parse::<u64>().expect("count");
            }
            assert_eq!(total, sent[flow], "{flow}: {detail}");
            assert_eq!(stages, first[flow], "{flow}: {detail}");
            staged = staged.max(stages.len());
        }
    }
    assert!(staged >= 3, "some elephant crossed three stages");
}
