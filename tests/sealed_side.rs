//! The sealed side's oracle: whatever the packets, the epoch length, the
//! batch shapes, the ingest entry and the seal points, every holder of a
//! sealed epoch holds the one snapshot the rotator sealed, and every
//! announcement counts it once.
//!
//! The rotator seals and numbers each epoch; the `Collector` exports it
//! to its sinks, announces it (`epoch_sealed`, gauges, tracer spans),
//! answers its plans over it and retains it. A sealed side that runs
//! elsewhere than inline must pass the same property.

use hashflow_suite::monitor::BatchPlan;
use hashflow_suite::obs::FlightRecorder;
use hashflow_suite::prelude::*;
use proptest::prelude::*;
use std::io;
use std::sync::{Arc, Mutex};

/// A [`MemorySink`] the test still reads once the collector owns the box.
struct SharedSink(Arc<Mutex<MemorySink>>);

impl RecordSink for SharedSink {
    fn export_epoch(&mut self, snapshot: &EpochSnapshot) -> io::Result<()> {
        self.0.lock().unwrap().export_epoch(snapshot)
    }
}

/// Packets of up to 64 flows whose timestamps climb by 0–39 ns each, so
/// any epoch length below the trace's span rotates, mid-batch included.
fn climbing_packets() -> impl Strategy<Value = Vec<Packet>> {
    prop::collection::vec((0u64..64, 0u64..40), 1..600).prop_map(|steps| {
        let mut ts = 0;
        (steps.into_iter())
            .map(|(flow, dt)| {
                ts += dt;
                Packet::new(FlowKey::from_index(flow), ts, 64)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Each call takes the next `len` packets through one of the three
    /// ingest entries (`process_packet`, `process_batch`, or
    /// `process_planned` on the collector's own planner) and, one call in
    /// four, seals after it; `finish` ends the run.
    #[test]
    fn every_holder_of_a_sealed_epoch_holds_the_sealed_snapshot(
        packets in climbing_packets(),
        epoch_len in 200u64..3_000,
        calls in prop::collection::vec((0usize..3, 1usize..80, 0u8..4), 1..40),
    ) {
        let plan: QueryPlan = "map src | distinct dst | reduce count".parse().unwrap();
        let registry = MetricsRegistry::new();
        let recorder = FlightRecorder::new();
        let sinks = [(); 2].map(|()| Arc::new(Mutex::new(MemorySink::new())));
        let mut builder = Collector::builder(AlgorithmKind::HashFlow)
            .budget(MemoryBudget::from_kib(32).unwrap())
            .epoch_ns(epoch_len)
            .query(plan.clone())
            .instruments(Instruments {
                registry: Some(registry.clone()),
                recorder: Some(recorder.clone()),
                ..Instruments::default()
            });
        for sink in &sinks {
            builder = builder.sink(Box::new(SharedSink(Arc::clone(sink))));
        }
        let mut collector = builder.build().unwrap();

        let mut rest = packets.as_slice();
        // Whether the running epoch holds a packet: only then does
        // `finish` seal it, marked partial.
        let mut running = false;
        for (entry, len, seal) in calls {
            let (call, tail) = rest.split_at(len.min(rest.len()));
            rest = tail;
            running |= !call.is_empty();
            match entry {
                0 => call.iter().for_each(|p| collector.process_packet(p)),
                1 => collector.process_batch(call),
                _ => {
                    let mut planned = BatchPlan::default();
                    collector.planner().expect("HashFlow plans").plan(call, &mut planned);
                    collector.process_planned(call, &planned);
                }
            }
            if seal == 0 {
                collector.seal();
                running = false;
            }
        }
        collector.process_batch(rest);
        running |= !rest.is_empty();
        collector.finish().unwrap();

        let snap = collector.metrics_snapshot().expect("registry attached");
        let sealed = collector.completed_epochs();
        prop_assert!(!sealed.is_empty());
        for (i, epoch) in sealed.iter().enumerate() {
            prop_assert_eq!(epoch.epoch(), i as u64);
            // Only `finish` truncates an epoch: the last, if it ran.
            prop_assert_eq!(epoch.is_partial(), running && i + 1 == sealed.len());
        }
        for sink in &sinks {
            let sink = sink.lock().unwrap();
            prop_assert_eq!(sink.epochs().len(), sealed.len());
            for (got, want) in sink.epochs().iter().zip(sealed) {
                prop_assert_eq!(got.epoch(), want.epoch());
                prop_assert!(
                    std::ptr::eq(got.as_records().as_ptr(), want.as_records().as_ptr()),
                    "epoch {}: the sink holds its own copy of the records",
                    want.epoch()
                );
                prop_assert_eq!(got.is_partial(), want.is_partial());
            }
        }
        prop_assert_eq!(collector.query_answers().len(), sealed.len());
        for (answers, epoch) in collector.query_answers().iter().zip(sealed) {
            prop_assert_eq!(&answers[..], &[execute_snapshot(&plan, epoch)][..]);
        }
        prop_assert_eq!(
            snap.counter("hashflow_epochs_sealed_total", &[]),
            Some(sealed.len() as u64)
        );
        prop_assert_eq!(recorder.overwritten(), 0);
        let announced = (recorder.snapshot().iter())
            .filter(|e| e.kind == "epoch_sealed")
            .count();
        prop_assert_eq!(announced, sealed.len());
    }
}
