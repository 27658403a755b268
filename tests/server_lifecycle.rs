//! Daemon lifecycle invariants: shutdown mid-epoch seals a final
//! *partial* epoch, sinks are flushed exactly once (never double-flushed
//! by `Drop`), and the drop ledger conserves
//! `offered == processed + dropped` across the whole run.

use hashflow_monitor::{EpochSnapshot, RecordSink};
use hashflow_server::{IngestPort, ReplayPace, Server, ServerConfig};
use hashflow_trace::{TraceGenerator, TraceProfile};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Aborts the whole process if a test hangs — a wedged daemon must fail
/// CI loudly, not stall it until the job-level timeout.
fn watchdog(limit: Duration) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("server_lifecycle watchdog fired after {limit:?} — aborting");
        std::process::abort();
    })
}

/// Polls the offer-side ledger until the whole replay has been offered.
fn wait_offered(port: &IngestPort, total: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while port.drop_stats().offered_records() < total {
        assert!(Instant::now() < deadline, "replay never finished");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A sink that counts what reaches it (shared handles survive the move
/// into the daemon).
#[derive(Default)]
struct Counters {
    epochs: AtomicU64,
    records: AtomicU64,
    finishes: AtomicU64,
    /// Each exported epoch's partial flag, in export order.
    partial: Mutex<Vec<bool>>,
}

struct CountingSink(Arc<Counters>);

impl RecordSink for CountingSink {
    fn export_epoch(&mut self, snapshot: &EpochSnapshot) -> io::Result<()> {
        self.0.epochs.fetch_add(1, Ordering::SeqCst);
        self.0
            .records
            .fetch_add(snapshot.len() as u64, Ordering::SeqCst);
        self.0.partial.lock().unwrap().push(snapshot.is_partial());
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.0.finishes.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

#[test]
fn shutdown_mid_epoch_seals_partial_and_flushes_once() {
    let _watchdog = watchdog(Duration::from_secs(120));
    let counters = Arc::new(Counters::default());
    let trace = TraceGenerator::new(TraceProfile::Caida, 11).generate(500);
    let total = trace.packets().len() as u64;

    // An epoch far longer than the test: the wall-clock timer never
    // fires, so everything the daemon seals is the shutdown's doing.
    let mut server = Server::start(ServerConfig {
        epoch_ms: 3_600_000,
        sinks: vec![Box::new(CountingSink(Arc::clone(&counters)))],
        ..ServerConfig::default()
    })
    .expect("daemon boots");
    let published = server.published();
    server.start_replay(trace.packets().to_vec(), ReplayPace::LineRate);
    wait_offered(&server.ingest_port(), total);
    assert_eq!(server.view().sealed_total, 0, "timer must not have fired");

    let report = server.shutdown();
    assert!(report.conserved(), "ledger must conserve: {report:?}");
    assert_eq!(report.offered_records, total);
    assert_eq!(report.packets_processed + report.dropped_records, total);
    assert_eq!(report.epochs_sealed, 1, "exactly the final partial seal");
    assert!(report.sink_errors.is_none());

    // The post-shutdown published view carries the truncated epoch,
    // explicitly marked partial, and the finished flag.
    let final_view = published.load();
    assert_eq!(final_view.sealed_total, 1);
    assert!(final_view.health.finished);
    let last = final_view.epochs.last().expect("final epoch published");
    assert!(
        last.is_partial(),
        "shutdown-truncated epoch must be partial"
    );
    assert!(!last.is_empty());

    // Exactly-once flush: the sink saw one epoch and one finish;
    // `Collector::finish` marked the pipeline finished inside the ingest
    // thread, so the collector's own `Drop` must NOT flush again. The
    // sink saw the epoch as readers do: partial.
    assert_eq!(counters.epochs.load(Ordering::SeqCst), 1);
    assert_eq!(
        *counters.partial.lock().unwrap(),
        [true],
        "the shutdown epoch reaches the sinks marked partial"
    );
    assert!(counters.records.load(Ordering::SeqCst) > 0);
    assert_eq!(counters.finishes.load(Ordering::SeqCst), 1);
}

#[test]
fn old_views_stay_frozen_across_shutdown() {
    let _watchdog = watchdog(Duration::from_secs(120));
    let trace = TraceGenerator::new(TraceProfile::Isp2, 23).generate(400);
    let total = trace.packets().len() as u64;
    let mut server = Server::start(ServerConfig {
        epoch_ms: 3_600_000,
        ..ServerConfig::default()
    })
    .expect("daemon boots");
    let before = server.view();
    assert!(before.epochs.is_empty());
    assert!(!before.health.finished);

    server.start_replay(trace.packets().to_vec(), ReplayPace::LineRate);
    wait_offered(&server.ingest_port(), total);
    let published = server.published();
    let report = server.shutdown();
    assert!(report.conserved());
    // A reader that loaded a view before the swap keeps its generation;
    // the swap cell itself moved on to the finished one.
    assert!(before.epochs.is_empty(), "old view is frozen");
    assert!(!before.health.finished);
    assert!(published.load().health.finished);
}

#[test]
fn published_rings_keep_the_newest_epochs_and_ledger_each_eviction() {
    let _watchdog = watchdog(Duration::from_secs(120));
    let trace = TraceGenerator::new(TraceProfile::Caida, 7).generate(2_000);
    let packets: Vec<_> = trace.packets().iter().take(4_000).copied().collect();
    assert_eq!(packets.len(), 4_000, "profile yields enough packets");
    let mut server = Server::start(ServerConfig {
        epoch_ms: 40,
        retention: 2,
        queries: vec!["map dst | reduce count | threshold 1".to_string()],
        ..ServerConfig::default()
    })
    .expect("daemon boots");
    let published = server.published();
    let registry = server.registry().clone();
    // 4 000 packets at 10 kpps span about ten 40 ms epochs.
    server.start_replay(packets, ReplayPace::Pps(10_000));
    assert!(
        server.wait_for_sealed(4, Duration::from_secs(60)),
        "four epochs never sealed"
    );
    server.shutdown();

    let view = published.load();
    let sealed = view.sealed_total;
    assert!(sealed >= 4, "sealed {sealed}");
    let newest = vec![sealed - 2, sealed - 1];
    let epochs: Vec<u64> = view.epochs.iter().map(|s| s.epoch()).collect();
    assert_eq!(epochs, newest, "the ring keeps the two newest epochs");
    let answered: Vec<u64> = view.answers.iter().map(|a| a.epoch).collect();
    assert_eq!(answered, newest, "answers cover the same two epochs");

    let snap = registry.snapshot();
    for component in ["epoch_retention", "query_answers"] {
        let ledger = |name: &str| snap.counter(name, &[("component", component)]);
        assert_eq!(
            ledger("hashflow_offered_epochs_total"),
            Some(sealed),
            "{component}: every seal offered once"
        );
        assert_eq!(
            ledger("hashflow_dropped_epochs_total"),
            Some(sealed - 2),
            "{component}: every eviction dropped once"
        );
    }
}

#[test]
fn ledger_accounts_shed_batches_under_overload() {
    let _watchdog = watchdog(Duration::from_secs(120));
    let trace = TraceGenerator::new(TraceProfile::Campus, 31).generate(2_000);
    let total = trace.packets().len() as u64;
    // A one-batch queue guarantees displacement under a line-rate replay:
    // conservation must hold exactly even when much of the trace sheds.
    let mut server = Server::start(ServerConfig {
        epoch_ms: 3_600_000,
        ingest_capacity: 1,
        ..ServerConfig::default()
    })
    .expect("daemon boots");
    server.start_replay(trace.packets().to_vec(), ReplayPace::LineRate);
    wait_offered(&server.ingest_port(), total);
    let report = server.shutdown();
    assert!(report.conserved(), "ledger must conserve: {report:?}");
    assert_eq!(report.offered_records, total);
}
