//! End-to-end daemon smoke: boot on ephemeral ports, stream a trace over
//! real UDP in `HFW1` datagrams, and check the HTTP query API against
//! the in-process snapshot API — `/epochs/{n}/top` must serve exactly
//! what `EpochSnapshot::top_k` computes offline.
//!
//! The CI server-smoke job runs this test under a hard `timeout`; the
//! in-process watchdog aborts even earlier so a wedged daemon fails the
//! suite with a usable message instead of a job-level kill.

use hashflow_collector::AlgorithmKind;
use hashflow_server::{client, wire, SealedView, Server, ServerConfig};
use hashflow_trace::{TraceGenerator, TraceProfile};
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn watchdog(limit: Duration) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("server_smoke watchdog fired after {limit:?} — aborting");
        std::process::abort();
    })
}

/// Packets counted across every sealed epoch of a view (the exact
/// baseline counts each processed packet exactly once).
fn counted(view: &SealedView) -> u64 {
    view.epochs
        .iter()
        .flat_map(|s| s.as_records())
        .map(|r| u64::from(r.count()))
        .sum()
}

#[test]
fn udp_ingest_round_trips_to_the_query_api() {
    let _watchdog = watchdog(Duration::from_secs(120));
    // The exact baseline makes the check loss-proof *and* order-proof:
    // whatever subset of datagrams arrives, in whatever order, the
    // sealed snapshots count exactly the packets the daemon processed.
    let trace = TraceGenerator::new(TraceProfile::Caida, 42).generate(600);
    let packets = trace.packets();
    let total = packets.len() as u64;

    let server = Server::start(ServerConfig {
        algorithm: AlgorithmKind::Exact,
        epoch_ms: 150,
        retention: 256,
        udp_addr: Some("127.0.0.1:0".to_string()),
        queries: vec!["map dst | reduce count | threshold 1".to_string()],
        ..ServerConfig::default()
    })
    .expect("daemon boots");
    let http = server.http_addr();
    let udp = server.udp_addr().expect("udp front-end enabled");

    // Stream the trace as paced datagrams: ≤6 KiB frames with a pacing
    // gap keep loopback lossless in practice, and the retention window
    // comfortably covers every epoch the run can seal.
    let socket = UdpSocket::bind("127.0.0.1:0").expect("client socket");
    for datagram in wire::encode_datagrams(packets) {
        socket.send_to(&datagram, udp).expect("send datagram");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Junk datagrams must be counted and dropped, never ingested.
    socket.send_to(b"not hashflow", udp).expect("send junk");

    // Wait until every sent record has been received, processed and
    // sealed into the published history.
    let deadline = Instant::now() + Duration::from_secs(30);
    let view: Arc<SealedView> = loop {
        let view = server.view();
        if counted(&view) == total {
            break view;
        }
        assert!(
            Instant::now() < deadline,
            "ingest stalled: sealed {} of {total} packets (offered {})",
            counted(&view),
            server.ingest_port().drop_stats().offered_records()
        );
        std::thread::sleep(Duration::from_millis(10));
    };

    // /healthz reports healthy while the daemon runs.
    let (status, body) = client::get(http, "/healthz").expect("GET /healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"healthy\""), "{body}");

    // The wire-error counter saw exactly the junk datagram.
    let (status, metrics) = client::get(http, "/metrics").expect("GET /metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("hashflow_server_wire_errors_total 1"),
        "junk datagram must be counted:\n{metrics}"
    );

    // /epochs agrees with the view about what is sealed.
    let (status, listing) = client::get(http, "/epochs").expect("GET /epochs");
    assert_eq!(status, 200);
    assert!(listing.contains(&format!("\"sealed_total\":{}", view.sealed_total)));

    // The HTTP top-k of the busiest epoch must match the snapshot's own
    // `top_k` — same keys, same counts, same order. The view holds the
    // very `Arc`s the router serves from, so this is the offline truth.
    let snapshot = view
        .epochs
        .iter()
        .max_by_key(|s| s.len())
        .expect("at least one sealed epoch");
    let want = snapshot.top_k(5);
    assert!(!want.is_empty());
    let (status, top) =
        client::get(http, &format!("/epochs/{}/top?k=5", snapshot.epoch())).expect("GET top");
    assert_eq!(status, 200, "{top}");
    let mut expected = format!("{{\"epoch\":{},\"k\":5,\"flows\":[", snapshot.epoch());
    for (i, rec) in want.iter().enumerate() {
        if i > 0 {
            expected.push(',');
        }
        expected.push_str(&format!(
            "{{\"key\":\"{}\",\"count\":{}}}",
            rec.key(),
            rec.count()
        ));
    }
    expected.push_str("]}");
    assert_eq!(top, expected, "HTTP top-k must mirror EpochSnapshot::top_k");

    // Per-flow estimates agree as well (keys percent-encoded: the
    // Display form contains '/' and '>').
    let key = want[0].key();
    let encoded = key.to_string().replace('/', "%2F").replace('>', "%3E");
    let (status, flow) = client::get(
        http,
        &format!("/epochs/{}/flows/{}", snapshot.epoch(), encoded),
    )
    .expect("GET flow");
    assert_eq!(status, 200, "{flow}");
    assert!(
        flow.contains(&format!("\"estimate\":{}", want[0].count())),
        "{flow}"
    );

    // Clean shutdown with a conserved ledger.
    let report = server.shutdown();
    assert!(report.conserved(), "ledger must conserve: {report:?}");
    assert_eq!(report.offered_records, total);
    assert_eq!(report.packets_processed, total);
}

/// Whether metric family `name` matches a catalog entry, where a `*`
/// stands for any run of characters.
fn catalogued(entry: &str, name: &str) -> bool {
    match entry.split_once('*') {
        Some((head, tail)) => {
            name.len() >= head.len() + tail.len() && name.starts_with(head) && name.ends_with(tail)
        }
        None => entry == name,
    }
}

/// README's metric catalog and a daemon's `/metrics` agree in both
/// directions.
#[test]
fn every_exposed_metric_family_has_a_row_in_the_readme_catalog() {
    let _watchdog = watchdog(Duration::from_secs(120));
    let readme = include_str!("../README.md");
    let catalog = (readme.split("### Metric catalog").nth(1)).expect("README has a metric catalog");
    let entries: Vec<&str> = (catalog.lines())
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .filter_map(|row| row.split('|').nth(1))
        .flat_map(|cell| cell.split('`').skip(1).step_by(2))
        .filter(|name| name.starts_with("hashflow_"))
        .collect();
    assert!(entries.len() >= 20, "{entries:?}");

    // A HashFlow daemon with every front end it has: UDP
    // ingest (one junk datagram included), a standing query, sealed
    // epochs with their introspection gauges, and HTTP reads.
    let server = Server::start(ServerConfig {
        epoch_ms: 50,
        udp_addr: Some("127.0.0.1:0".to_string()),
        queries: vec!["map dst | reduce count | threshold 1".to_string()],
        ..ServerConfig::default()
    })
    .expect("daemon boots");
    let (http, udp) = (
        server.http_addr(),
        server.udp_addr().expect("udp front-end"),
    );
    let socket = UdpSocket::bind("127.0.0.1:0").expect("client socket");
    let trace = TraceGenerator::new(TraceProfile::Caida, 7).generate(300);
    for datagram in wire::encode_datagrams(trace.packets()) {
        socket.send_to(&datagram, udp).expect("send datagram");
    }
    socket.send_to(b"not hashflow", udp).expect("send junk");
    assert!(
        server.wait_for_sealed(1, Duration::from_secs(30)),
        "no epoch sealed"
    );
    for path in ["/epochs", "/healthz", "/queries"] {
        assert_eq!(client::get(http, path).expect("GET").0, 200, "{path}");
    }
    let (status, metrics) = client::get(http, "/metrics").expect("GET /metrics");
    assert_eq!(status, 200);
    server.shutdown();

    let families: Vec<&str> = (metrics.lines())
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|line| line.split(' ').next())
        .filter(|name| name.starts_with("hashflow_"))
        .collect();
    assert!(
        families
            .iter()
            .any(|f| f.starts_with("hashflow_introspect_")),
        "{metrics}"
    );
    let missing: Vec<&&str> = (families.iter())
        .filter(|family| !entries.iter().any(|entry| catalogued(entry, family)))
        .collect();
    assert!(
        missing.is_empty(),
        "not in README's metric catalog: {missing:?}"
    );
    // And back: every row names a family the daemon exposes, each
    // wildcard at least one.
    let unexposed: Vec<&&str> = (entries.iter())
        .filter(|entry| !families.iter().any(|family| catalogued(entry, family)))
        .collect();
    assert!(
        unexposed.is_empty(),
        "README's metric catalog names families the daemon does not expose: {unexposed:?}"
    );
}
