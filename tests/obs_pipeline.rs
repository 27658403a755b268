//! Integration: the runtime observability layer across the whole
//! pipeline — one [`Instruments`] handed to the builder reaching ingest,
//! the monitor, rotation, sinks and queries at once, with both exposition
//! formats rendered from the same sealed snapshot.

use hashflow_suite::monitor::{FlowTracer, FLOW_SPAN_KIND};
use hashflow_suite::obs::FlightRecorder;
use hashflow_suite::prelude::*;

/// ~1 us packet spacing in generated traces; 1 ms epochs give a
/// multi-epoch run on a few thousand flows.
const EPOCH_NS: u64 = 1_000_000;

fn collector_with(instruments: Instruments) -> Collector {
    let plan: QueryPlan = "map src | distinct dst | reduce count"
        .parse()
        .expect("valid plan");
    Collector::builder(AlgorithmKind::HashFlow)
        .budget(MemoryBudget::from_kib(256).expect("positive budget"))
        .epoch_ns(EPOCH_NS)
        .query(plan)
        .sink(Box::new(MemorySink::new()))
        .instruments(instruments)
        .build()
        .expect("256 KiB builds a HashFlow")
}

fn instrumented_collector(registry: &MetricsRegistry) -> Collector {
    collector_with(Instruments {
        registry: Some(registry.clone()),
        ..Instruments::default()
    })
}

#[test]
fn one_registry_watches_every_stage() {
    let trace = TraceGenerator::new(TraceProfile::Caida, 41).generate(4_000);
    let packets = trace.packets().len() as u64;

    let registry = MetricsRegistry::new();
    let mut collector = instrumented_collector(&registry);
    collector.process_trace(trace.packets());
    collector.seal();
    collector.finish().expect("memory sink never fails");

    let snapshot = collector.metrics_snapshot().expect("registry attached");

    // Ingest: the rotator saw every packet of the trace, exactly once.
    assert_eq!(
        snapshot.counter("hashflow_ingest_packets_total", &[]),
        Some(packets)
    );
    assert_eq!(
        snapshot.counter("hashflow_ingest_bytes_total", &[]),
        Some(
            trace
                .packets()
                .iter()
                .map(|p| u64::from(p.wire_len()))
                .sum()
        )
    );

    // Rotation: sealed-epoch count matches the pipeline's own history,
    // and a contiguous trace produces no gap epochs.
    assert_eq!(
        snapshot.counter("hashflow_epochs_sealed_total", &[]),
        Some(collector.completed_epochs().len() as u64)
    );
    assert!(collector.completed_epochs().len() >= 2, "multi-epoch run");
    assert_eq!(
        snapshot.counter("hashflow_rotation_gaps_total", &[]),
        Some(0)
    );

    // Retention and queries: every sealed epoch was offered to the
    // retention ledger once, and the attached plan answered it once.
    assert_eq!(
        snapshot.counter(
            "hashflow_offered_epochs_total",
            &[("component", "epoch_retention")]
        ),
        Some(collector.completed_epochs().len() as u64)
    );
    assert_eq!(
        collector.query_answers().len(),
        collector.completed_epochs().len()
    );

    // Sinks: a MemorySink export path reports zero errors.
    assert_eq!(snapshot.counter("hashflow_sink_errors_total", &[]), Some(0));
}

#[test]
fn expositions_render_the_same_sealed_numbers() {
    let trace = TraceGenerator::new(TraceProfile::Isp1, 42).generate(1_500);
    let registry = MetricsRegistry::new();
    let mut collector = instrumented_collector(&registry);
    collector.process_trace(trace.packets());
    collector.seal();

    let snapshot = collector.metrics_snapshot().expect("registry attached");
    let prom = snapshot.to_prometheus();
    let jsonl = snapshot.to_jsonl();

    // Both formats come from one snapshot, so every counter value printed
    // in one must appear verbatim in the other.
    let packets = snapshot
        .counter("hashflow_ingest_packets_total", &[])
        .expect("ingest counter registered");
    assert!(prom.contains(&format!("hashflow_ingest_packets_total {packets}")));
    assert!(jsonl.contains(&format!(
        "\"name\":\"hashflow_ingest_packets_total\",\"labels\":{{}},\"type\":\"counter\",\"value\":{packets}"
    )));

    // Further ingest after the snapshot must not retroactively change the
    // sealed renderings.
    collector.process_trace(trace.packets());
    assert_eq!(snapshot.to_prometheus(), prom);
    assert_eq!(snapshot.to_jsonl(), jsonl);
}

/// One `instruments(..)` call on the builder reaches every layer: each
/// answers in the registry, the recorder or the trace of one sampled
/// flow. A default-`Instruments` collector over the same trace registers
/// and records nothing.
#[test]
fn one_builder_call_instruments_every_layer() {
    let trace = TraceGenerator::new(TraceProfile::Caida, 43).generate(3_000);
    let packets = trace.packets().len() as u64;
    let registry = MetricsRegistry::new();
    let recorder = FlightRecorder::with_capacity(1 << 16);
    let tracer = FlowTracer::new(recorder.clone(), 64);

    let mut collector = collector_with(Instruments {
        registry: Some(registry.clone()),
        recorder: Some(recorder.clone()),
        tracer: Some(tracer.clone()),
    });
    collector.process_trace(trace.packets());
    collector.seal();
    let snapshot = collector.metrics_snapshot().expect("registry attached");

    // Rotation, query and sink layers, in the registry.
    assert_eq!(
        snapshot.counter("hashflow_ingest_packets_total", &[]),
        Some(packets)
    );
    assert_eq!(
        snapshot.counter("hashflow_epochs_sealed_total", &[]),
        Some(collector.completed_epochs().len() as u64)
    );
    assert_eq!(
        snapshot.counter(
            "hashflow_offered_epochs_total",
            &[("component", "epoch_retention")]
        ),
        Some(collector.completed_epochs().len() as u64)
    );
    assert_eq!(
        collector.query_answers().len(),
        collector.completed_epochs().len()
    );
    assert_eq!(snapshot.counter("hashflow_sink_errors_total", &[]), Some(0));

    // The Collector's sealed side, in the recorder.
    let events = recorder.snapshot();
    assert!(events.iter().any(|e| e.kind == "epoch_sealed"));

    // One sampled flow's journey: HashFlow's placement, the seal and the
    // export each left a span.
    let sampled = trace
        .packets()
        .iter()
        .map(|p| p.key())
        .find(|k| tracer.is_sampled(k))
        .expect("1-in-64 over 3000 flows samples some");
    let flow = sampled.to_string();
    let stages: Vec<&str> = events
        .iter()
        .filter(|e| e.kind == FLOW_SPAN_KIND && e.field("flow") == Some(flow.as_str()))
        .filter_map(|e| e.field("stage"))
        .collect();
    for stage in ["epoch_seal", "export"] {
        assert!(stages.contains(&stage), "no {stage} span in {stages:?}");
    }
    assert!(
        stages
            .iter()
            .any(|s| ["main_insert", "main_hit", "ancillary", "promotion"].contains(s)),
        "no HashFlow placement span in {stages:?}"
    );

    // The bare twin touches neither the registry nor the recorder.
    let (metrics_before, events_before) =
        (registry.snapshot().to_prometheus(), recorder.last_seq());
    let mut bare = collector_with(Instruments::default());
    bare.process_trace(trace.packets());
    bare.seal();
    assert!(bare.metrics_snapshot().is_none());
    assert_eq!(registry.snapshot().to_prometheus(), metrics_before);
    assert_eq!(recorder.last_seq(), events_before);
}
