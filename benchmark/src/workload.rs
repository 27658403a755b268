//! The workloads: set-up, the timed window, and the checks.
//!
//! Every workload has the same shape. [`prepare`] makes the inputs from
//! the seed; [`boot`] builds the system under test and warms it up;
//! [`window`] drives it for a fixed time, recording per-epoch (or
//! per-window) samples; [`teardown`] shuts a daemon down and checks its
//! ledger. The traced run calls [`window`] several times on the same
//! system, in turn with the span recorder off and with it on.

use crate::pace::{sleep_until, Schedule};
use crate::span::Recorder;
use crate::spec::{Kind, Workload};
use crate::stats::{fast_rate, median};
use hashflow_collector::{AlgorithmKind, Collector};
use hashflow_core::HashFlow;
use hashflow_metrics::{flow_set_coverage, GroundTruth};
use hashflow_monitor::{BackpressurePolicy, EpochSnapshot, FlowMonitor, MemoryBudget};
use hashflow_obs::Counter;
use hashflow_server::json::{array, Obj};
use hashflow_server::{client, wire, Server, ServerConfig, ServerReport};
use hashflow_shard::ShardedMonitor;
use hashflow_trace::Trace;
use hashflow_types::{FlowKey, FlowRecord, Packet};
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Packets per `process_batch` / `offer` call and per datagram.
pub const BATCH: usize = 256;
/// Wall-clock epoch of the daemon workloads.
pub const EPOCH_MS: u64 = 250;
/// Open-loop packet rate of `daemon-udp-readers`.
pub const UDP_PPS: f64 = 250_000.0;
/// Open-loop request rate of `daemon-udp-readers`.
pub const READER_RPS: f64 = 50.0;
/// The plan attached in `daemon-udp-readers`.
pub const PLAN: &str = "map dst | reduce sum | threshold 5";
/// Epochs run before the timed window (cold tables, page faults).
const WARMUP_EPOCHS: u64 = 2;
/// A load generator that ran later than this measured the host's stall,
/// not the daemon.
pub const DISTURBED_LATE_MS: f64 = 50.0;
/// Daemons booted before giving up on a boot pass that lands in one epoch.
const BOOT_ATTEMPTS: u64 = 5;
/// Boot-pass size when only a warm-up is wanted.
const SHORT_BOOT_PACKETS: usize = 50_000;
/// Batches the `daemon-ceiling` generator keeps in flight: half the
/// daemon's default ingest queue, so `offer` finds room and neither thread
/// sleeps.
const IN_FLIGHT: usize = 32;
/// How long the generator waits for room without seeing the daemon's
/// packet counter move before it offers regardless.
const ROOM_PATIENCE: Duration = Duration::from_millis(100);

/// The routes the reader of `daemon-udp-readers` cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Epochs,
    Top10,
    Flow,
    Metrics,
    Queries,
}

/// 3×`/epochs`, 3×top-10, 2×flow, 1×`/metrics`, 1×`/queries`.
const MIX: [Route; 10] = [
    Route::Epochs,
    Route::Top10,
    Route::Flow,
    Route::Epochs,
    Route::Top10,
    Route::Metrics,
    Route::Flow,
    Route::Epochs,
    Route::Top10,
    Route::Queries,
];

impl Route {
    pub fn span_name(self) -> &'static str {
        match self {
            Route::Epochs => "http.get.epochs",
            Route::Top10 => "http.get.top10",
            Route::Flow => "http.get.flow",
            Route::Metrics => "http.get.metrics",
            Route::Queries => "http.get.queries",
        }
    }
}

/// One pass/fail line of the output.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// The seed-derived inputs of one workload.
pub struct Inputs {
    pub trace: Trace,
    /// The trace as HFW1 datagrams (only where UDP is driven).
    pub datagrams: Vec<Vec<u8>>,
}

pub fn prepare(w: &Workload, seed: u64, rec: &mut Recorder) -> Inputs {
    let span = rec.enter("trace.generate", 0);
    let trace = w.regime.generate(seed, w.flows);
    rec.exit(span);
    let datagrams = if w.kind == Kind::DaemonUdpReaders {
        encode(trace.packets(), usize::MAX, rec)
    } else {
        Vec::new()
    };
    Inputs { trace, datagrams }
}

/// Encodes at most `limit` packets as full datagrams.
pub fn encode(packets: &[Packet], limit: usize, rec: &mut Recorder) -> Vec<Vec<u8>> {
    let span = rec.enter("wire.encode", 0);
    let datagrams = wire::encode_datagrams(&packets[..packets.len().min(limit)]);
    rec.exit(span);
    datagrams
}

fn packets_in(datagram: &[u8]) -> u64 {
    ((datagram.len() - wire::HEADER_BYTES) / wire::RECORD_BYTES) as u64
}

/// A booted system under test.
pub enum Sut {
    Collector(Box<Collector>),
    Sharded(Box<ShardedMonitor<HashFlow>>),
    Daemon(Box<Daemon>),
}

pub struct Daemon {
    pub server: Server,
    pub kind: Kind,
    pub start_ms: f64,
    /// Packets offered by the boot pass.
    pub boot_packets: u64,
    /// Epoch 0, if it holds exactly one full pass of the trace.
    pub boot_epoch: Option<Arc<EpochSnapshot>>,
    /// Flow keys the reader asks about.
    keys: Vec<FlowKey>,
}

fn budget(kib: usize) -> MemoryBudget {
    MemoryBudget::from_kib(kib).expect("workload budgets are valid")
}

fn build_library(kind: Kind, kib: usize) -> Sut {
    match kind {
        Kind::Sharded => Sut::Sharded(Box::new(
            ShardedMonitor::with_budget(2, budget(kib), |_, b| HashFlow::with_memory(b))
                .expect("two HashFlow shards fit the budget"),
        )),
        _ => Sut::Collector(Box::new(
            Collector::builder(AlgorithmKind::HashFlow)
                .budget(budget(kib))
                .build()
                .expect("a HashFlow collector fits the budget"),
        )),
    }
}

/// Builds a system of `kind` and warms it up. `full_boot_pass` asks a
/// daemon to take one whole pass of the trace as its first epoch (the
/// accuracy epoch); otherwise a short pass only warms it up.
pub fn boot_kind(
    kind: Kind,
    kib: usize,
    inputs: &Inputs,
    full_boot_pass: bool,
    rec: &mut Recorder,
) -> Sut {
    match kind {
        Kind::Collector | Kind::Sharded => {
            let mut sut = build_library(kind, kib);
            for epoch in 0..WARMUP_EPOCHS {
                sut.ingest(inputs.trace.packets(), rec, epoch);
                sut.seal(rec, epoch);
            }
            sut
        }
        Kind::DaemonCeiling | Kind::DaemonUdpReaders => Sut::Daemon(Box::new(boot_daemon(
            kind,
            kib,
            inputs,
            full_boot_pass,
            rec,
        ))),
    }
}

impl Sut {
    /// One epoch's packets into a library system.
    fn ingest(&mut self, packets: &[Packet], rec: &mut Recorder, epoch: u64) {
        match self {
            Sut::Collector(c) => {
                for chunk in packets.chunks(BATCH) {
                    let span = rec.enter("collector.process_batch", epoch);
                    c.process_batch(chunk);
                    rec.exit(span);
                }
            }
            Sut::Sharded(s) => {
                let span = rec.enter("shard.ingest", epoch);
                s.ingest(packets);
                rec.exit(span);
            }
            Sut::Daemon(_) => unreachable!("daemons ingest through their front-ends"),
        }
    }

    /// Seals the epoch; the duration covers the seal call alone (for the
    /// sharded monitor, indexing the merged report comes after it).
    fn seal(&mut self, rec: &mut Recorder, epoch: u64) -> (Duration, EpochSnapshot) {
        match self {
            Sut::Collector(c) => {
                let span = rec.enter("collector.seal", epoch);
                let start = Instant::now();
                let snapshot = c.seal();
                let took = start.elapsed();
                rec.exit(span);
                // The collector keeps a copy of every sealed report until
                // it is drained; a long-running caller has to.
                c.drain_completed();
                (took, snapshot)
            }
            Sut::Sharded(s) => {
                let span = rec.enter("shard.seal_epoch", epoch);
                let start = Instant::now();
                let report = s.seal_epoch();
                let took = start.elapsed();
                rec.exit(span);
                (took, report.into_snapshot())
            }
            Sut::Daemon(_) => unreachable!("daemons seal on their own timer"),
        }
    }
}

/// What one timed window observed.
#[derive(Default)]
pub struct WindowStats {
    /// Mpackets/s: per epoch (library), per 0.5 s (ceiling), one value
    /// (UDP, pinned by the schedule).
    pub mpps: Vec<f64>,
    /// Per epoch (or 250 ms window): how long a seal blocked the caller.
    pub stall_ms: Vec<f64>,
    /// Latency of every HTTP request.
    pub reads_us: Vec<(Route, f64)>,
    pub reads_failed: u64,
    pub packets_sent: u64,
    pub packets_processed: u64,
    /// Wall time of the window, and the part of it spent inside ingest
    /// and seal calls (library workloads).
    pub wall_s: f64,
    pub busy_s: f64,
    /// The first sealed epoch of a library window.
    pub first_epoch: Option<EpochSnapshot>,
    // Daemon workloads only.
    /// Time the ceiling generator was held up: waiting for room, then
    /// inside `IngestPort::offer`.
    pub offer_wait_ns: u64,
    /// Packets that reached the ingest port, and those it shed.
    pub packets_arrived: u64,
    pub packets_shed: u64,
    /// How late each datagram left, and how long the sender was sending.
    pub late_ms: Vec<f64>,
    pub send_s: f64,
    pub queries_body_kib: Vec<f64>,
}

impl WindowStats {
    /// The rate of the fastest epochs (or slots).
    pub fn ingest_mpps(&self) -> f64 {
        fast_rate(&self.mpps).unwrap_or(0.0)
    }

    /// Whether the load generator itself was stalled by the host.
    pub fn disturbed(&self) -> bool {
        self.late_ms.iter().any(|&late| late > DISTURBED_LATE_MS)
    }

    pub fn packets_lost(&self) -> u64 {
        self.packets_sent.saturating_sub(self.packets_processed)
    }

    pub fn offer_wait_ns_per_pkt(&self) -> f64 {
        self.offer_wait_ns as f64 / self.packets_sent.max(1) as f64
    }

    /// Share of the packets sent that the kernel lost before the daemon
    /// read them.
    pub fn udp_lost_share(&self) -> f64 {
        self.packets_sent.saturating_sub(self.packets_arrived) as f64
            / self.packets_sent.max(1) as f64
    }

    /// Share of the packets that arrived which the ingest queue shed.
    pub fn shed_share(&self) -> f64 {
        self.packets_shed as f64 / self.packets_arrived.max(1) as f64
    }

    pub fn sent_kpps(&self) -> f64 {
        self.packets_sent as f64 / self.send_s.max(1e-9) / 1e3
    }

    /// Adds a later window on the same system to this one.
    pub fn absorb(&mut self, mut later: WindowStats) {
        self.mpps.append(&mut later.mpps);
        self.stall_ms.append(&mut later.stall_ms);
        self.reads_us.append(&mut later.reads_us);
        self.reads_failed += later.reads_failed;
        self.packets_sent += later.packets_sent;
        self.packets_processed += later.packets_processed;
        self.wall_s += later.wall_s;
        self.busy_s += later.busy_s;
        self.first_epoch = self.first_epoch.take().or(later.first_epoch);
        self.offer_wait_ns += later.offer_wait_ns;
        self.packets_arrived += later.packets_arrived;
        self.packets_shed += later.packets_shed;
        self.late_ms.append(&mut later.late_ms);
        self.send_s += later.send_s;
        self.queries_body_kib.append(&mut later.queries_body_kib);
    }

    pub fn latencies(&self, route: Option<Route>) -> Vec<f64> {
        self.reads_us
            .iter()
            .filter(|(r, _)| route.is_none_or(|want| want == *r))
            .map(|&(_, us)| us)
            .collect()
    }
}

/// Drives the booted system for `seconds`.
pub fn window(sut: &mut Sut, inputs: &Inputs, seconds: f64, rec: &mut Recorder) -> WindowStats {
    let span = rec.enter("window", 0);
    let started = Instant::now();
    let mut stats = match sut {
        Sut::Collector(_) | Sut::Sharded(_) => library_window(sut, inputs, seconds, rec),
        Sut::Daemon(d) if d.kind == Kind::DaemonCeiling => ceiling_window(d, inputs, seconds, rec),
        Sut::Daemon(d) => udp_window(d, inputs, seconds, rec),
    };
    stats.wall_s = started.elapsed().as_secs_f64();
    rec.exit(span);
    stats
}

fn library_window(sut: &mut Sut, inputs: &Inputs, seconds: f64, rec: &mut Recorder) -> WindowStats {
    let packets = inputs.trace.packets();
    let mut stats = WindowStats::default();
    let started = Instant::now();
    let mut epoch = WARMUP_EPOCHS;
    while stats.mpps.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let span = rec.enter("epoch", epoch);
        let ingest_started = Instant::now();
        sut.ingest(packets, rec, epoch);
        let ingest = ingest_started.elapsed();
        let (seal, snapshot) = sut.seal(rec, epoch);
        stats
            .mpps
            .push(packets.len() as f64 / (ingest + seal).as_secs_f64() / 1e6);
        stats.stall_ms.push(seal.as_secs_f64() * 1e3);
        stats.busy_s += (ingest + seal).as_secs_f64();
        stats.packets_sent += packets.len() as u64;
        // Packets a shard queue shed are missing from the sealed cost.
        stats.packets_processed += snapshot.cost().packets;
        if stats.first_epoch.is_none() {
            stats.first_epoch = Some(snapshot);
        }
        rec.exit(span);
        epoch += 1;
    }
    stats
}

/// The records of one epoch fed packet by packet through a second,
/// identically configured system (the scalar path).
pub fn scalar_twin_records(w: &Workload, packets: &[Packet]) -> Vec<(FlowKey, u32)> {
    let snapshot = match build_library(w.kind, w.memory_kib) {
        Sut::Collector(mut c) => {
            packets.iter().for_each(|p| c.process_packet(p));
            c.seal()
        }
        Sut::Sharded(mut s) => {
            packets.iter().for_each(|p| s.process_packet(p));
            s.seal_epoch().into_snapshot()
        }
        Sut::Daemon(_) => unreachable!("build_library builds no daemon"),
    };
    sorted_records(&snapshot)
}

pub fn sorted_records(snapshot: &EpochSnapshot) -> Vec<(FlowKey, u32)> {
    let mut records: Vec<(FlowKey, u32)> =
        snapshot.records().map(|r| (r.key(), r.count())).collect();
    records.sort_unstable();
    records
}

/// Flow-set coverage and size ARE (§IV-A) of a sealed epoch, as its
/// reader sees them: a flow without a record estimates to 0.
pub fn accuracy(snapshot: &EpochSnapshot, truth: &[FlowRecord]) -> (f64, f64) {
    let ground = GroundTruth::from_records(truth);
    let fsc = flow_set_coverage(snapshot.as_records(), &ground);
    let error: f64 = truth
        .iter()
        .map(|t| {
            (f64::from(snapshot.estimate_size(t.key_ref())) / f64::from(t.count()) - 1.0).abs()
        })
        .sum();
    (fsc, error / truth.len() as f64)
}

fn daemon_config(kind: Kind, kib: usize) -> ServerConfig {
    let base = ServerConfig {
        algorithm: AlgorithmKind::HashFlow,
        memory_kib: kib,
        epoch_ms: EPOCH_MS,
        ..ServerConfig::default()
    };
    match kind {
        Kind::DaemonCeiling => ServerConfig {
            ingest_policy: BackpressurePolicy::Block,
            ..base
        },
        _ => ServerConfig {
            retention: 8,
            udp_addr: Some("127.0.0.1:0".to_string()),
            queries: vec![PLAN.to_string()],
            ..base
        },
    }
}

/// Starts the daemon and offers the boot pass: packets through the
/// ingest port straight after start, so that they all land in epoch 0.
/// With `full` the pass is the whole trace and epoch 0 becomes the
/// accuracy epoch; a pass that a host stall split across two epochs is
/// retried on a fresh daemon.
fn boot_daemon(kind: Kind, kib: usize, inputs: &Inputs, full: bool, rec: &mut Recorder) -> Daemon {
    let packets = inputs.trace.packets();
    let pass = if full {
        packets
    } else {
        &packets[..packets.len().min(SHORT_BOOT_PACKETS)]
    };
    let keys = inputs
        .trace
        .ground_truth()
        .iter()
        .take(64)
        .map(|r| r.key())
        .collect();
    let mut attempt = 0;
    loop {
        attempt += 1;
        let span = rec.enter("server.start", attempt);
        let started = Instant::now();
        let server = Server::start(daemon_config(kind, kib)).expect("daemon boots on loopback");
        let start_ms = started.elapsed().as_secs_f64() * 1e3;
        rec.exit(span);

        let span = rec.enter("boot_pass", attempt);
        let port = server.ingest_port();
        let ledger = port.drop_stats();
        let processed = processed_counter(&server);
        for (i, chunk) in pass.chunks(BATCH).enumerate() {
            // Closed loop whatever the ingest policy: the generator stays
            // within its window, so `offer` finds room. Should it not,
            // `Block` waits inside `offer`, and a batch that a full queue
            // shed is offered again once the ingest thread has made room.
            wait_for_room((i * BATCH) as u64, || processed.get());
            loop {
                let shed_before = ledger.dropped_records();
                port.offer(chunk.to_vec());
                if ledger.dropped_records() == shed_before {
                    break;
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        let sealed = server.wait_for_sealed(1, Duration::from_secs(5));
        rec.exit(span);

        let first = server.view().epochs.first().cloned();
        let whole = first
            .as_ref()
            .is_some_and(|e| e.cost().packets == pass.len() as u64);
        if (sealed && (whole || !full)) || attempt == BOOT_ATTEMPTS {
            return Daemon {
                server,
                kind,
                start_ms,
                boot_packets: pass.len() as u64,
                boot_epoch: first.filter(|_| whole && full),
                keys,
            };
        }
        server.shutdown();
    }
}

impl Daemon {
    /// Records the daemon has accepted and not shed. Equals records
    /// processed once the ingest queue has drained.
    fn delivered(&self) -> (u64, u64) {
        let port = self.server.ingest_port();
        let ledger = port.drop_stats();
        (ledger.offered_records(), ledger.dropped_records())
    }

    /// Waits for the queue to drain and the last epoch to seal.
    fn settle(&self) {
        std::thread::sleep(Duration::from_millis(EPOCH_MS + 50));
    }

    /// Issues request `j` of the mix and checks the reply.
    fn get(&self, j: u64, stats: &mut WindowStats, rec: &mut Recorder) -> Route {
        let route = MIX[(j % MIX.len() as u64) as usize];
        let view = self.server.view();
        let latest = view.epochs.last().expect("the boot pass sealed an epoch");
        let n = latest.epoch();
        let path = match route {
            Route::Epochs => "/epochs".to_string(),
            Route::Metrics => "/metrics".to_string(),
            Route::Queries => "/queries".to_string(),
            Route::Top10 => format!("/epochs/{n}/top?k=10"),
            Route::Flow => {
                let key = self.keys[j as usize % self.keys.len()].to_string();
                let encoded = key.replace('/', "%2F").replace('>', "%3E");
                format!("/epochs/{n}/flows/{encoded}")
            }
        };
        let span = rec.enter(route.span_name(), j);
        let reply = client::get(self.server.http_addr(), &path);
        rec.exit(span);
        let ok = match reply {
            Ok((200, body)) => {
                if route == Route::Queries {
                    stats.queries_body_kib.push(body.len() as f64 / 1024.0);
                }
                // About one top-10 body in ten against the library's answer.
                route != Route::Top10 || j % 30 != 1 || body == top10_body(latest)
            }
            _ => false,
        };
        if !ok {
            stats.reads_failed += 1;
        }
        route
    }
}

fn top10_body(snapshot: &EpochSnapshot) -> String {
    let rows = snapshot.top_k(10);
    Obj::new()
        .u64("epoch", snapshot.epoch())
        .u64("k", 10)
        .raw(
            "flows",
            array(rows.iter().map(|r| {
                Obj::new()
                    .str("key", &r.key().to_string())
                    .u64("count", u64::from(r.count()))
                    .build()
            })),
        )
        .build()
}

/// The daemon's own count of packets through `process_batch`.
fn processed_counter(server: &Server) -> Counter {
    server
        .registry()
        .counter("hashflow_ingest_packets_total", &[])
}

/// Waits, yielding, until fewer than [`IN_FLIGHT`] batches of the `sent`
/// packets are still to be processed. Gives up after [`ROOM_PATIENCE`]
/// without progress, so that a daemon which stopped counting is offered to
/// under plain `Block` instead of hanging the run.
fn wait_for_room(sent: u64, processed: impl Fn() -> u64) {
    let limit = (IN_FLIGHT * BATCH) as u64;
    let mut seen = processed();
    let mut since = Instant::now();
    while sent.saturating_sub(seen) >= limit {
        // Not a spin: when the host has taken the other vCPU away, the
        // ingest thread may be waiting for this one.
        std::thread::yield_now();
        let now = processed();
        if now != seen {
            seen = now;
            since = Instant::now();
        } else if since.elapsed() > ROOM_PATIENCE {
            return;
        }
    }
}

/// Closed loop with a window: one thread offers batches as fast as the
/// daemon processes them, never more than [`IN_FLIGHT`] ahead of it.
fn ceiling_window(d: &Daemon, inputs: &Inputs, seconds: f64, rec: &mut Recorder) -> WindowStats {
    let packets = inputs.trace.packets();
    let port = d.server.ingest_port();
    let (offered_before, dropped_before) = d.delivered();
    // The queue is empty here: set-up and every window end with `settle`.
    let processed = processed_counter(&d.server);
    let processed_before = processed.get();
    let window_ns = (seconds * 1e9) as u64;
    // One slot per epoch length: packets accepted in it, and the longest
    // the generator was held up before one batch was accepted (waiting for
    // room, then `offer`). Each slot holds one timer seal.
    let slot_ns = EPOCH_MS * 1_000_000;
    let mut slots = vec![(0u64, 0u64); (window_ns / slot_ns) as usize + 1];
    let mut stats = WindowStats::default();
    let mut waited_ns = 0u64;
    let origin = Instant::now();
    let mut batch_no = 0u64;
    'window: loop {
        for chunk in packets.chunks(BATCH) {
            let batch = chunk.to_vec();
            let before = origin.elapsed().as_nanos() as u64;
            if before >= window_ns {
                break 'window;
            }
            wait_for_room(stats.packets_sent, || processed.get() - processed_before);
            let span = rec.enter("server.offer", batch_no);
            port.offer(batch);
            rec.exit(span);
            let wait = origin.elapsed().as_nanos() as u64 - before;
            waited_ns += wait;
            stats.packets_sent += chunk.len() as u64;
            let slot = &mut slots[(before / slot_ns) as usize];
            slot.0 += chunk.len() as u64;
            slot.1 = slot.1.max(wait);
            batch_no += 1;
        }
    }
    // Whole slots only; a run shorter than one slot reports its total.
    let whole = ((window_ns / slot_ns) as usize).max(1);
    let slot_s = (slot_ns.min(window_ns)) as f64 / 1e9;
    for &(accepted, longest_wait) in &slots[..whole] {
        stats.mpps.push(accepted as f64 / slot_s / 1e6);
        stats.stall_ms.push(longest_wait as f64 / 1e6);
    }
    stats.offer_wait_ns = waited_ns;

    d.settle();
    let (offered, dropped) = d.delivered();
    stats.packets_arrived = offered - offered_before;
    stats.packets_shed = dropped - dropped_before;
    stats.packets_processed = stats.packets_arrived - stats.packets_shed;
    stats
}

/// What the sender thread of the open loop reports.
struct Sent {
    packets: u64,
    late_ms: Vec<f64>,
    first_ns: u64,
    last_ns: u64,
    rec: Recorder,
}

fn send_datagrams(
    socket: &UdpSocket,
    datagrams: &[Vec<u8>],
    origin: Instant,
    window_ns: u64,
    rec: Recorder,
) -> Sent {
    let schedule = Schedule::per_second(UDP_PPS / BATCH as f64);
    let mut sent = Sent {
        packets: 0,
        late_ms: Vec::new(),
        first_ns: 0,
        last_ns: 0,
        rec,
    };
    let mut previous = None;
    for i in 0.. {
        let at = schedule.send_at_ns(i, previous);
        if at >= window_ns {
            break;
        }
        let now = sleep_until(origin, at);
        let datagram = &datagrams[i as usize % datagrams.len()];
        let span = sent.rec.enter("loadgen.send", i);
        // A datagram the kernel refuses is lost like one it drops later:
        // sent, never processed.
        let _ = socket.send(datagram);
        sent.rec.exit(span);
        sent.packets += packets_in(datagram);
        sent.late_ms
            .push(now.saturating_sub(schedule.due_ns(i)) as f64 / 1e6);
        if previous.is_none() {
            sent.first_ns = now;
        }
        sent.last_ns = now;
        previous = Some(now);
    }
    sent
}

/// Open loop: one thread sends datagrams on the 250 kpps schedule while
/// this one issues GETs on the 50 req/s schedule, each timed from when it
/// was due.
fn udp_window(d: &Daemon, inputs: &Inputs, seconds: f64, rec: &mut Recorder) -> WindowStats {
    let target = d.server.udp_addr().expect("the UDP front-end is enabled");
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind a loopback sender");
    socket.connect(target).expect("connect the sender");
    let (offered_before, dropped_before) = d.delivered();
    let window_ns = (seconds * 1e9) as u64;
    let mut stats = WindowStats::default();
    let origin = Instant::now();
    let sender_rec = rec.sibling();
    let sent = std::thread::scope(|scope| {
        let sender = scope
            .spawn(|| send_datagrams(&socket, &inputs.datagrams, origin, window_ns, sender_rec));
        let schedule = Schedule::per_second(READER_RPS);
        let mut previous = None;
        for j in 0.. {
            let at = schedule.send_at_ns(j, previous);
            if at >= window_ns {
                break;
            }
            previous = Some(sleep_until(origin, at));
            let route = d.get(j, &mut stats, rec);
            let done = origin.elapsed().as_nanos() as u64;
            stats
                .reads_us
                .push((route, (done - schedule.due_ns(j)) as f64 / 1e3));
        }
        sender.join().expect("the sender thread does not panic")
    });
    d.settle();
    let (offered, dropped) = d.delivered();
    stats.packets_sent = sent.packets;
    stats.packets_arrived = offered - offered_before;
    stats.packets_shed = dropped - dropped_before;
    stats.packets_processed = stats.packets_arrived - stats.packets_shed;
    stats.send_s = (sent.last_ns - sent.first_ns) as f64 / 1e9;
    stats.mpps = vec![stats.packets_processed as f64 / stats.send_s.max(1e-9) / 1e6];
    stats.late_ms = sent.late_ms;
    rec.absorb(sent.rec);
    stats
}

/// What tearing a daemon down reports.
pub struct Teardown {
    pub report: ServerReport,
    pub shutdown_ms: f64,
    pub render_prometheus_us: f64,
    pub checks: Vec<Check>,
}

/// Shuts the daemon down and checks its ledger. `sent` is every packet
/// the benchmark handed it, boot pass included.
pub fn teardown(d: Daemon, sent: u64, rec: &mut Recorder) -> Teardown {
    let renders: Vec<f64> = (0..20)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(d.server.registry().snapshot().to_prometheus());
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let span = rec.enter("server.shutdown", 0);
    let started = Instant::now();
    let report = d.server.shutdown();
    let shutdown_ms = started.elapsed().as_secs_f64() * 1e3;
    rec.exit(span);
    let mut checks = vec![check(
        "ServerReport::conserved()",
        report.conserved(),
        format!(
            "offered {} = processed {} + dropped {}",
            report.offered_records, report.packets_processed, report.dropped_records
        ),
    )];
    if d.kind == Kind::DaemonCeiling {
        checks.push(check(
            "processed == offered under Block",
            report.packets_processed == sent && report.offered_records == sent,
            format!(
                "sent {sent}, offered {}, processed {}",
                report.offered_records, report.packets_processed
            ),
        ));
    }
    Teardown {
        report,
        shutdown_ms,
        render_prometheus_us: median(&renders).unwrap_or(0.0),
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn the_generator_waits_for_room_but_not_for_a_counter_that_stands_still() {
        let limit = (IN_FLIGHT * BATCH) as u64;
        // Room already: no wait, the counter is read once.
        let reads = Cell::new(0u64);
        wait_for_room(limit - 1, || {
            reads.set(reads.get() + 1);
            0
        });
        assert_eq!(reads.get(), 1);
        // Full: waits until the daemon has processed one more batch.
        let reads = Cell::new(0u64);
        wait_for_room(limit + BATCH as u64, || {
            reads.set(reads.get() + 1);
            reads.get() / 100 * BATCH as u64
        });
        assert!(reads.get() >= 200, "returned after {} reads", reads.get());
        // A counter that never moves: gives up after the patience.
        let started = Instant::now();
        wait_for_room(limit, || 0);
        assert!(started.elapsed() >= ROOM_PATIENCE);
        assert!(started.elapsed() < ROOM_PATIENCE * 20);
    }
}
