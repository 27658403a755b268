//! Integration: a full collection deployment — HashFlow inside an epoch
//! rotator, with sealed epochs exported as NetFlow v5 datagrams and
//! decoded back (the operational loop the paper's introduction
//! describes).

use hashflow_suite::netflow_export::{decode_datagrams, ExportMeta, Exporter};
use hashflow_suite::prelude::*;
use std::collections::HashMap;

#[test]
fn epoch_rotation_slices_a_trace_cleanly() {
    let trace = TraceGenerator::new(TraceProfile::Caida, 31).generate(5_000);
    let inner = HashFlow::with_memory(MemoryBudget::from_kib(256).unwrap()).unwrap();
    // Packets are spaced ~1 us apart; 10 ms epochs => ~10K-packet slices.
    let mut rotator = EpochRotator::new(inner, 10_000_000);
    rotator.process_trace(trace.packets());
    let last = rotator.rotate_now();

    let epochs = rotator.drain_completed();
    assert!(epochs.len() >= 2, "trace should span multiple epochs");
    assert_eq!(epochs.last().unwrap().epoch(), last.epoch());

    // Epoch windows must be disjoint and ordered.
    for pair in epochs.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        assert!(
            a.end_ns().unwrap() <= b.start_ns().unwrap(),
            "epoch overlap"
        );
    }

    // Per-epoch record totals must not exceed the per-flow ground truth:
    // a flow's packets are partitioned across epochs.
    let mut per_flow: HashMap<FlowKey, u64> = HashMap::new();
    for e in &epochs {
        for rec in e.records() {
            *per_flow.entry(rec.key()).or_insert(0) += u64::from(rec.count());
        }
    }
    let truth = GroundTruth::from_records(trace.ground_truth());
    for (key, total) in per_flow {
        let real = u64::from(truth.size_of(&key).expect("reported flows are real"));
        assert!(
            total <= real,
            "flow {key:?}: epochs sum {total} > truth {real}"
        );
    }
}

#[test]
fn sealed_epochs_export_as_netflow_v5() {
    let trace = TraceGenerator::new(TraceProfile::Isp1, 32).generate(2_000);
    let inner = HashFlow::with_memory(MemoryBudget::from_kib(128).unwrap()).unwrap();
    let mut rotator = EpochRotator::new(inner, u64::MAX);
    rotator.process_trace(trace.packets());
    let epoch = rotator.rotate_now();

    let mut exporter = Exporter::new(ExportMeta::default());
    let datagrams = exporter.export(epoch.as_records());
    assert_eq!(exporter.flow_sequence() as usize, epoch.len());

    let decoded = decode_datagrams(datagrams.iter().map(Vec::as_slice)).unwrap();
    assert_eq!(decoded.len(), epoch.len());
    // Exported records round-trip byte-exactly on the fields v5 carries.
    let originals: HashMap<FlowKey, u32> = epoch.records().map(|r| (r.key(), r.count())).collect();
    for rec in decoded {
        assert_eq!(originals.get(&rec.key()), Some(&rec.count()));
    }
}
