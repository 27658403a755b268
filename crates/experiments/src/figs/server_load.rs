//! Beyond the paper: the collector daemon under concurrent query load.
//!
//! The server PR turns the pipeline into a long-running daemon
//! ([`hashflow_server::Server`]): ingest front-ends feed one bounded
//! queue, a wall-clock timer seals epochs, and a fixed HTTP worker pool
//! serves sealed history from immutable `Arc`-swapped views. The design
//! claim worth measuring is *reader isolation*: the ingest path never
//! takes a lock a reader holds, so piling HTTP clients onto the query
//! API must not stall packet processing.
//!
//! For each reader count (0, 1, 2, 4, 8) this exhibit boots a fresh
//! daemon, replays the same CAIDA-profile trace token-bucket paced at
//! [`PACE_PPS`] (a sustained rate well inside single-thread capacity,
//! so any drop would be reader-induced), and hammers the query API
//! from that many concurrent reader threads (rotating `GET /epochs`,
//! `/epochs/{n}/top`, `/queries`, `/healthz`). Per row it reports
//! sustained ingest rate (kpps), query latency percentiles
//! (p50/p99/max µs), the health check, and the drop-ledger
//! conservation identity `offered == processed + dropped` — which must
//! hold exactly whatever the reader load, because every shed batch is
//! ledgered at the offer side. Reader isolation shows up as the
//! `dropped` column staying 0 from 0 readers through 8.
//!
//! [`check`] holds every row to conservation and health, and the
//! `server_load` binary exits 2 on a violation; the committed
//! `BENCH_server.json` carries the full-scale numbers.

use crate::bench::Bench;
use crate::output::{Cell, Output, Table};
use crate::RunConfig;
use hashflow_obs::Histogram;
use hashflow_server::{client, ReplayPace, Server, ServerConfig};
use hashflow_trace::{TraceGenerator, TraceProfile};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent HTTP reader counts, one daemon boot per entry. The
/// acceptance tier is the 8-reader row.
pub const READER_COUNTS: [usize; 5] = [0, 1, 2, 4, 8];

/// Wall-clock epoch length the daemon seals at. Short enough that every
/// run seals several epochs, long enough that sealing cost stays a small
/// fraction of the run.
pub const EPOCH_MS: u64 = 100;

/// Replay pacing in packets/s. Far below single-thread collector
/// capacity (several Mpps batched), so the daemon sustains it with
/// zero shed batches unless readers stall ingest — which is exactly
/// the failure this exhibit exists to catch. The bounded ingest queue
/// ([`INGEST_BATCHES`] × 256 records) additionally cushions ~500 ms of
/// this rate against scheduler gaps on small (even single-core) CI
/// machines.
pub const PACE_PPS: u64 = 250_000;

/// Ingest queue bound in batches for the exhibit's daemon.
pub const INGEST_BATCHES: usize = 512;

/// One reader-count measurement.
#[derive(Debug, Clone)]
pub struct ServerLoadRow {
    /// Concurrent HTTP reader threads.
    pub readers: usize,
    /// Flows in the replayed trace.
    pub flows: usize,
    /// Packets in the replayed trace.
    pub packets: u64,
    /// Records offered at the ingest port.
    pub offered: u64,
    /// Records the collector processed.
    pub processed: u64,
    /// Records shed by backpressure (ledgered).
    pub dropped: u64,
    /// Epochs sealed over the run.
    pub epochs: u64,
    /// Sustained ingest rate over the replay window (kilopackets/s).
    pub kpps: f64,
    /// HTTP requests completed by the readers.
    pub requests: u64,
    /// Median query latency in microseconds (0 without readers).
    pub p50_us: f64,
    /// 99th-percentile query latency in microseconds.
    pub p99_us: f64,
    /// Worst query latency in microseconds.
    pub max_us: f64,
    /// Whether `GET /healthz` reported healthy at end of run.
    pub healthz_ok: bool,
    /// Whether the drop ledger conserved.
    pub conserved: bool,
}

/// Think time between one reader's requests. Dashboard clients poll;
/// they don't busy-loop. Without this the readers degenerate into a
/// CPU-theft benchmark on small machines (a single-core runner spends
/// ~90% of its cycles in 8 spinning readers), which measures the OS
/// scheduler, not the daemon's reader isolation.
pub const READER_THINK: Duration = Duration::from_millis(1);

/// One reader thread's share of the query load: rotate the read-side
/// endpoints until told to stop, recording every request's latency (µs)
/// into the shared log2 [`Histogram`] — the same structure the daemon
/// itself uses for its per-route latency metrics, so the exhibit's
/// percentiles come from [`Histogram::value_at_quantile`] instead of a
/// private sort-and-index implementation.
fn run_reader(addr: SocketAddr, stop: Arc<AtomicBool>, latency: Histogram) {
    let paths = ["/epochs", "/healthz", "/queries"];
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        // Interleave a top-k against whatever epoch is currently the
        // oldest retained one — the realistic "dashboard" request.
        let dynamic;
        let path = if i % 4 == 3 {
            match client::get(addr, "/epochs") {
                Ok((_, body)) => match extract_first_epoch(&body) {
                    Some(n) => {
                        dynamic = format!("/epochs/{n}/top?k=10");
                        dynamic.as_str()
                    }
                    None => "/epochs",
                },
                Err(_) => "/epochs",
            }
        } else {
            paths[i % paths.len()]
        };
        let start = Instant::now();
        if client::get(addr, path).is_ok() {
            latency.observe(start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        }
        i += 1;
        std::thread::sleep(READER_THINK);
    }
}

/// Pulls the first `"epoch":N` out of an `/epochs` response without a
/// JSON parser (the field is emitted first in every epoch object).
fn extract_first_epoch(body: &str) -> Option<u64> {
    let at = body.find("\"epoch\":")? + "\"epoch\":".len();
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Boots a daemon, replays `packets` paced at [`PACE_PPS`] under
/// `readers` concurrent HTTP readers, and measures one row.
fn measure(readers: usize, flows: usize, packets: &[hashflow_types::Packet]) -> ServerLoadRow {
    let mut server = Server::start(ServerConfig {
        epoch_ms: EPOCH_MS,
        retention: 32,
        http_workers: 8,
        ingest_capacity: INGEST_BATCHES,
        queries: vec!["map dst | reduce count | threshold 1".to_string()],
        ..ServerConfig::default()
    })
    .expect("server boots on ephemeral loopback port");
    let addr = server.http_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let latency = Histogram::new();
    let reader_handles: Vec<_> = (0..readers)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let latency = latency.clone();
            std::thread::spawn(move || run_reader(addr, stop, latency))
        })
        .collect();

    let total = packets.len() as u64;
    server.start_replay(packets.to_vec(), ReplayPace::Pps(PACE_PPS));
    // The replay is done when every packet has been offered; give the
    // sealer one more epoch so the tail lands in a sealed snapshot.
    let port = server.ingest_port();
    let deadline = Instant::now() + Duration::from_secs(60);
    while port.drop_stats().offered_records() < total && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(EPOCH_MS + 20));

    let healthz_ok = matches!(client::get(addr, "/healthz"), Ok((200, _)));
    stop.store(true, Ordering::Relaxed);
    for h in reader_handles {
        h.join().expect("reader thread panicked");
    }
    let quantile_us = |q: f64| latency.value_at_quantile(q).unwrap_or(0) as f64;

    let report = server.shutdown();
    let elapsed = report
        .replays
        .first()
        .map(|r| r.elapsed.as_secs_f64())
        .unwrap_or(0.0);
    ServerLoadRow {
        readers,
        flows,
        packets: total,
        offered: report.offered_records,
        processed: report.packets_processed,
        dropped: report.dropped_records,
        epochs: report.epochs_sealed,
        kpps: if elapsed > 0.0 {
            report.packets_processed as f64 / elapsed / 1e3
        } else {
            0.0
        },
        requests: latency.count(),
        p50_us: quantile_us(0.50),
        p99_us: quantile_us(0.99),
        max_us: quantile_us(1.0),
        healthz_ok,
        conserved: report.conserved(),
    }
}

/// Runs the exhibit: one daemon boot + replay per reader count.
pub fn run(cfg: &RunConfig) -> Output {
    let flows = cfg.scaled(60_000, 1_000);
    let trace = TraceGenerator::new(TraceProfile::Caida, cfg.seed).generate(flows);
    println!(
        "server_load: CAIDA, {flows} flows, {} packets, epoch {EPOCH_MS} ms",
        trace.packets().len()
    );

    let rows: Vec<ServerLoadRow> = READER_COUNTS
        .iter()
        .map(|&readers| {
            let row = measure(readers, flows, trace.packets());
            println!(
                "  readers {:>2}: {:>9.1} kpps, {:>6} requests, p99 {:>8.1} us, \
                 conserved {}, healthz {}",
                row.readers, row.kpps, row.requests, row.p99_us, row.conserved, row.healthz_ok
            );
            row
        })
        .collect();

    let mut table = Table::new(
        "server_load",
        &[
            "readers",
            "flows",
            "packets",
            "offered",
            "processed",
            "dropped",
            "epochs",
            "kpps",
            "requests",
            "p50_us",
            "p99_us",
            "max_us",
            "healthz_ok",
            "conserved",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            Cell::Int(r.readers as i64),
            Cell::Int(r.flows as i64),
            Cell::Int(r.packets as i64),
            Cell::Int(r.offered as i64),
            Cell::Int(r.processed as i64),
            Cell::Int(r.dropped as i64),
            Cell::Int(r.epochs as i64),
            Cell::Float(r.kpps),
            Cell::Int(r.requests as i64),
            Cell::Float(r.p50_us),
            Cell::Float(r.p99_us),
            Cell::Float(r.max_us),
            Cell::Int(i64::from(r.healthz_ok)),
            Cell::Int(i64::from(r.conserved)),
        ]);
    }

    let bench = Bench::new("server", cfg, 1)
        .str("profile", "CAIDA")
        .field("epoch_ms", EPOCH_MS)
        .table("rows", &table);
    Output {
        tables: vec![table],
        bench: Some(bench),
        violations: check(&rows),
    }
}

/// The server gate: in every row the drop ledger conserves
/// `offered == processed + dropped`, `/healthz` answered 200, and a row
/// with readers completed requests.
pub fn check(rows: &[ServerLoadRow]) -> Vec<String> {
    let mut violations = Vec::new();
    for r in rows {
        let readers = r.readers;
        if !r.conserved {
            violations.push(format!(
                "readers {readers}: offered {} != processed {} + dropped {}",
                r.offered, r.processed, r.dropped
            ));
        }
        if !r.healthz_ok {
            violations.push(format!("readers {readers}: /healthz not 200"));
        }
        if readers > 0 && r.requests == 0 {
            violations.push(format!("readers {readers}: no request completed"));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_rows_conserve_and_stay_healthy() {
        let out = run(&RunConfig::for_tests(0.02));
        assert_eq!(out.tables[0].rows().len(), READER_COUNTS.len());
        assert_eq!(out.violations, Vec::<String>::new());
        let json = out.bench.expect("server_load writes a record").render();
        assert!(json.contains("\"exhibit\": \"server\""));
        assert_eq!(
            json.matches("\"healthz_ok\":1,").count(),
            READER_COUNTS.len()
        );
    }

    fn row(readers: usize) -> ServerLoadRow {
        ServerLoadRow {
            readers,
            flows: 10,
            packets: 100,
            offered: 100,
            processed: 100,
            dropped: 0,
            epochs: 3,
            kpps: 250.0,
            requests: 40,
            p50_us: 90.0,
            p99_us: 900.0,
            max_us: 1_000.0,
            healthz_ok: true,
            conserved: true,
        }
    }

    #[test]
    fn check_rejects_unhealthy_idle_or_leaky_rows() {
        assert!(check(&[row(0), row(8)]).is_empty());
        let idle_reader = ServerLoadRow {
            requests: 0,
            ..row(4)
        };
        // No requests is only a violation when there were readers.
        let no_readers = ServerLoadRow {
            requests: 0,
            ..row(0)
        };
        let unhealthy = ServerLoadRow {
            healthz_ok: false,
            ..row(1)
        };
        let leaky = ServerLoadRow {
            conserved: false,
            ..row(2)
        };
        let violations = check(&[idle_reader, no_readers, unhealthy, leaky]);
        assert_eq!(violations.len(), 3, "{violations:?}");
        assert!(violations[0].starts_with("readers 4: no request"));
        assert!(violations[1].starts_with("readers 1: /healthz"));
        assert!(violations[2].starts_with("readers 2: offered"));
    }

    #[test]
    fn first_epoch_extraction() {
        assert_eq!(
            extract_first_epoch("{\"epochs\":[{\"epoch\":17,\"flows\":3}]}"),
            Some(17)
        );
        assert_eq!(extract_first_epoch("{\"epochs\":[]}"), None);
    }
}
