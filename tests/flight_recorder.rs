//! Flight-recorder suite: the bounded event ring under concurrent
//! writers, and the automatic post-mortem dumps that fault transitions
//! trigger.
//!
//! The ring's contract is what makes `/debug/events` and the fault
//! dumps trustworthy: sequence numbers are strictly monotone and
//! gap-free however many threads record at once, overwrite-oldest never
//! tears an event (a message always agrees with its own structured
//! fields), and the bookkeeping identity
//! `recorded == retained + overwritten` holds at every size. On top of
//! that, the chaos half proves the dumps fire *at the fault transition*
//! with the window that led up to it: an injected sink outage must
//! produce exactly one dump whose error/degrade/quarantine sequence
//! matches the injected schedule, and an injected worker panic must
//! dump from the shard layer.

use hashflow_suite::collector::{AlgorithmKind, Collector};
use hashflow_suite::fault::{FaultInjectingSink, FaultPlan, PanicInjector};
use hashflow_suite::monitor::SINK_QUARANTINE_AFTER;
use hashflow_suite::obs::{FlightRecorder, Severity};
use hashflow_suite::prelude::*;
use hashflow_suite::shard::ShardedMonitor;
use proptest::prelude::*;
use std::io;
use std::sync::{Arc, Mutex};

/// A `Write` target the test can read back after the recorder (which
/// takes ownership of its dump writer) has written to it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("dumps are UTF-8 JSONL")
    }
}

impl io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Wraparound, monotonicity and tear-freedom under concurrent
    /// writers: whatever the thread interleaving, the retained window is
    /// a gap-free suffix of the recorded sequence and every event's
    /// message agrees with its own fields.
    #[test]
    fn ring_survives_concurrent_writers(
        writers in 1usize..5,
        per_writer in 1usize..60,
        capacity in 1usize..129,
    ) {
        let recorder = FlightRecorder::with_capacity(capacity);
        std::thread::scope(|scope| {
            for w in 0..writers {
                let r = recorder.clone();
                scope.spawn(move || {
                    for j in 0..per_writer {
                        r.record_with(
                            Severity::Info,
                            "prop_event",
                            format!("writer {w} event {j}"),
                            vec![
                                ("writer".to_string(), w.to_string()),
                                ("j".to_string(), j.to_string()),
                            ],
                        );
                    }
                });
            }
        });

        let total = (writers * per_writer) as u64;
        prop_assert_eq!(recorder.last_seq(), total, "every record got a seq");
        let events = recorder.snapshot();
        prop_assert_eq!(events.len(), (total as usize).min(capacity));
        prop_assert_eq!(
            recorder.overwritten(),
            total - events.len() as u64,
            "recorded == retained + overwritten"
        );

        // The window is a gap-free, strictly monotone suffix.
        for pair in events.windows(2) {
            prop_assert_eq!(pair[1].seq, pair[0].seq + 1, "seq gap in the ring");
        }
        prop_assert_eq!(events.last().map(|e| e.seq), Some(total));

        // No torn events: under the per-record lock a message can never
        // pair with another writer's fields.
        for e in &events {
            let w = e.field("writer").expect("writer field present");
            let j = e.field("j").expect("j field present");
            prop_assert_eq!(&e.message, &format!("writer {w} event {j}"));
        }

        // Cursor paging yields exactly the strictly-newer events.
        let mid = total / 2;
        let tail = recorder.events_since(mid);
        let expected = events.iter().filter(|e| e.seq > mid).count();
        prop_assert_eq!(tail.len(), expected);
        prop_assert!(tail.iter().all(|e| e.seq > mid));
    }
}

/// An injected sink outage drives the health machine through
/// error → degraded → quarantined, and the quarantine transition
/// auto-dumps a window that matches the injected schedule: exactly
/// `SINK_QUARANTINE_AFTER` export errors (consecutive 1, 2, …), one
/// degradation, one quarantine — in that order, under the dump header.
#[test]
fn sink_quarantine_dumps_the_window_matching_the_fault_schedule() {
    let buf = SharedBuf::default();
    let recorder = FlightRecorder::new();
    recorder.set_dump_writer(Box::new(buf.clone()));

    // Exports from the third on fail, one per strike: the last strike
    // latches the quarantine. One more seal is skipped past the sink, too
    // few to reach a probe.
    let strikes = u64::from(SINK_QUARANTINE_AFTER);
    let plan = FaultPlan::new(7).with_outage(2..2 + strikes);
    let seals = 2 + strikes as usize + 1;
    let mut collector = Collector::builder(AlgorithmKind::HashFlow)
        .budget(MemoryBudget::from_kib(256).unwrap())
        .sink(Box::new(FaultInjectingSink::new(MemorySink::new(), plan)))
        .instruments(Instruments {
            recorder: Some(recorder.clone()),
            ..Instruments::default()
        })
        .build()
        .unwrap();

    let trace = TraceGenerator::new(TraceProfile::Caida, 21).generate(1_200);
    let chunk = trace.packets().len() / seals + 1;
    for batch in trace.packets().chunks(chunk) {
        collector.process_batch(batch);
        collector.seal();
    }
    assert_eq!(collector.sink_health()[0].skipped_epochs, 1);

    assert_eq!(recorder.dumps(), 1, "exactly one fault transition dumped");
    let text = buf.text();
    let header = text.lines().next().expect("dump has a header line");
    assert!(
        header.contains("\"flight_recorder_dump\":\"sink_quarantined\""),
        "header names the dump reason: {header}"
    );

    // The window matches the injected schedule, in order.
    assert_eq!(text.matches("\"sink_error\"").count() as u64, strikes);
    assert_eq!(text.matches("\"sink_degraded\"").count(), 1);
    assert_eq!(text.matches("\"sink_quarantined\"").count(), 2); // header + event
    let first_error = text.find("\"sink_error\"").unwrap();
    let degraded = text.find("\"sink_degraded\"").unwrap();
    let quarantined = text.rfind("\"sink_quarantined\"").unwrap();
    assert!(
        first_error < degraded && degraded < quarantined,
        "error happens before degradation before quarantine"
    );
    for strike in 1..=strikes {
        assert!(text.contains(&format!("\"consecutive\":\"{strike}\"")));
    }

    // The ring itself serves the same history to /debug/events readers.
    let kinds: Vec<&str> = recorder
        .snapshot()
        .iter()
        .map(|e| e.kind)
        .filter(|k| k.starts_with("sink_"))
        .collect();
    let mut expected = vec!["sink_error", "sink_degraded"];
    expected.extend(std::iter::repeat_n("sink_error", strikes as usize - 1));
    expected.push("sink_quarantined");
    assert_eq!(kinds, expected);

    let _ = collector.finish();
}

/// An injected worker panic on the threaded ingest path records a
/// `shard_panic` event naming the dead lane and auto-dumps, while the
/// dead lane's shedding shows up as its one `batch_shed` event.
#[test]
fn shard_panic_records_events_and_dumps() {
    let buf = SharedBuf::default();
    let recorder = FlightRecorder::new();
    recorder.set_dump_writer(Box::new(buf.clone()));

    let budget = MemoryBudget::from_kib(256).unwrap();
    let shards: Vec<PanicInjector<HashFlow>> = (0..4)
        .map(|i| {
            PanicInjector::new(
                HashFlow::with_memory(budget).unwrap(),
                if i == 0 { 256 } else { u64::MAX },
            )
        })
        .collect();
    let mut monitor = ShardedMonitor::new(shards).unwrap();
    monitor.instrument(&Instruments {
        recorder: Some(recorder.clone()),
        ..Instruments::default()
    });

    let trace = TraceGenerator::new(TraceProfile::Caida, 31).generate(5_000);
    monitor.ingest(trace.packets());
    assert!(monitor.is_degraded(), "shard 0 must die at packet 256");
    // Ingest again while the lane is down: everything routed to the dead
    // shard is dropped and counted, and evented once per degradation.
    monitor.ingest(trace.packets());

    let events = recorder.snapshot();
    let panic_event = events
        .iter()
        .find(|e| e.kind == "shard_panic")
        .expect("the panic is recorded");
    assert_eq!(panic_event.severity, Severity::Error);
    assert_eq!(panic_event.field("shard"), Some("0"));
    assert!(panic_event.message.contains("injected worker panic"));
    assert!(
        events.iter().any(|e| e.kind == "batch_shed"),
        "the dead lane's shed backlog is evented"
    );

    assert_eq!(recorder.dumps(), 1, "the panic transition dumped");
    let text = buf.text();
    assert!(text.contains("\"flight_recorder_dump\":\"shard_panic\""));
    assert!(text.contains("\"shard_panic\""));
}
