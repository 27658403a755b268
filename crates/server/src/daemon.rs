//! The collector daemon: configuration, lifecycle and the HTTP routes.
//!
//! # Thread model
//!
//! ```text
//! UDP listener ──┐                       ┌── HTTP worker 0 ─┐
//! replay driver ─┼─▶ BatchQueue ─▶ ingest┤     ...          ├─▶ clients
//! replay driver ─┘    (bounded)    thread└── HTTP worker N ─┘
//!                                    │
//!                                    └─▶ Published (Arc swap)
//! ```
//!
//! Exactly one thread — the ingest loop — owns the
//! [`Collector`]; every front-end hands it packets through one bounded
//! [`BatchQueue`] via [`IngestPort::offer`] (the uniform backpressure
//! contract: shed batches come back and are ledgered on the spot), and
//! every reader sees only immutable [`SealedView`]s published behind an
//! `Arc` swap. There is no lock anywhere that both the ingest path and a
//! reader can hold, so slow or numerous HTTP clients cannot stall
//! ingest.
//!
//! # Endpoints
//!
//! | Method/path | Serves |
//! |---|---|
//! | `GET /` | endpoint index |
//! | `GET /epochs` | sealed-epoch summaries (retained window) |
//! | `GET /epochs/{n}` | one epoch's summary |
//! | `GET /epochs/{n}/top?k=K` | top-K flows of epoch `n` |
//! | `GET /epochs/{n}/flows/{key}` | size estimate of one flow (the first on an epoch builds its index) |
//! | `GET /queries` | attached plans + banked per-epoch answers |
//! | `POST /queries` | attach a plan (body = plan text) at runtime; `409` once [`MAX_QUERIES`] are attached |
//! | `GET /metrics` | Prometheus exposition of the runtime registry |
//! | `GET /healthz` | sink + shard health (`503` when unhealthy) |
//! | `GET /debug/events?since=N` | flight-recorder events after seq `N` |
//! | `GET /debug/flows/{key}` | sampling verdict + recorded spans of one flow |
//! | `GET /debug/introspect` | sketch-internal gauges of the latest epoch |
//! | `POST /shutdown` | trigger graceful shutdown |
//!
//! Every request is self-instrumented: the daemon counts
//! `hashflow_server_http_requests_total{route,status}` and feeds a
//! per-route latency histogram, both visible on its own `/metrics`.
//!
//! # Epochs
//!
//! Rotation here is **wall-clock** driven: the ingest loop seals every
//! [`ServerConfig::epoch_ms`] of real time, because a deployed collector
//! cannot wait for packet timestamps to cross an edge — a quiet link
//! would never seal. Epochs in which no packet arrived are skipped (no
//! empty snapshots), mirroring the timestamp-driven rotator's quiet-gap
//! rule. The final epoch sealed during shutdown is marked
//! [`EpochSnapshot::is_partial`]: it was truncated by the shutdown, not
//! by the timer. Each seal answers every attached plan over the epoch it
//! sealed, on the ingest thread, and publishes those answers with it.

use crate::http::{self, Request, Response};
use crate::json::{self, Obj};
use crate::state::{EpochAnswers, HealthView, Published, QueryInfo, SealedView};
use crate::{wire, ShutdownFlag};
use hashflow_collector::{AlgorithmKind, Collector};
use hashflow_monitor::{
    BackpressurePolicy, DropStats, EpochRing, EpochSnapshot, FlowMonitor, FlowTracer, Instruments,
    IntrospectValue, MemoryBudget, RecordSink, SinkErrors, DEFAULT_TRACE_SAMPLING, FLOW_SPAN_KIND,
};
use hashflow_obs::{FlightRecorder, MetricsRegistry, Severity, DEFAULT_RECORDER_CAPACITY};
use hashflow_query::{QueryId, QueryPlan};
use hashflow_shard::{BatchQueue, PopOutcome, PushOutcome};
use hashflow_types::{ConfigError, FlowKey, Packet};
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::str::FromStr;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Packets per batch offered by the replay driver and expected from
/// well-behaved UDP taps (one datagram ≈ one batch).
pub const REPLAY_BATCH: usize = 256;

/// How long the ingest loop waits on the queue before re-checking the
/// epoch timer and the command channel.
const INGEST_POLL: Duration = Duration::from_millis(50);

/// Most plans `POST /queries` lets clients attach (boot-time plans
/// count too). Every plan is evaluated over each sealed epoch on the
/// thread that seals, so the cap bounds the work an untrusted client can
/// add to every seal.
pub const MAX_QUERIES: usize = 16;

/// Daemon configuration. `Default` is a runnable single-shard HashFlow
/// collector on ephemeral loopback ports with no UDP front-end.
pub struct ServerConfig {
    /// Algorithm to build ([`AlgorithmKind`]).
    pub algorithm: AlgorithmKind,
    /// Monitor memory budget in KiB.
    pub memory_kib: usize,
    /// Shard count (>1 requires a merge-layer algorithm).
    pub shards: usize,
    /// Master hash seed.
    pub seed: u64,
    /// Wall-clock epoch length in milliseconds.
    pub epoch_ms: u64,
    /// Sealed epochs retained for the query API (older ones are
    /// evicted, drop-accounted, and `404`).
    pub retention: usize,
    /// HTTP bind address (e.g. `127.0.0.1:0` for an ephemeral port).
    pub http_addr: String,
    /// UDP ingest bind address; `None` disables the UDP front-end.
    pub udp_addr: Option<String>,
    /// HTTP worker threads.
    pub http_workers: usize,
    /// Ingest queue capacity in batches.
    pub ingest_capacity: usize,
    /// What a full ingest queue does to arriving batches. The default
    /// is [`BackpressurePolicy::DropNewest`]: a live collector sheds
    /// load rather than stalling its front-ends (`Block` is for replay
    /// rigs that prefer lossless ingest over pacing).
    pub ingest_policy: BackpressurePolicy,
    /// Query plans (text form) attached at startup.
    pub queries: Vec<String>,
    /// Export sinks attached at startup.
    pub sinks: Vec<Box<dyn RecordSink + Send>>,
    /// Flow-path tracing: `Some(n)` samples 1-in-`n` flows (by key hash,
    /// so the same flows are sampled on every path) and records their
    /// placement/dispatch/export spans in the flight recorder. `None`
    /// disables tracing entirely (zero per-packet cost beyond a branch).
    pub trace_sampling: Option<u64>,
    /// Flight-recorder ring capacity in events.
    pub recorder_capacity: usize,
    /// File that automatic fault dumps (sink quarantine, shard panic)
    /// append to as JSONL; `None` keeps dumps in-memory only (the ring
    /// is still served by `/debug/events`).
    pub dump_path: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            algorithm: AlgorithmKind::HashFlow,
            memory_kib: 256,
            shards: 1,
            seed: 0xC0FFEE,
            epoch_ms: 1_000,
            retention: 64,
            http_addr: "127.0.0.1:0".to_string(),
            udp_addr: None,
            http_workers: 4,
            ingest_capacity: 64,
            ingest_policy: BackpressurePolicy::DropNewest,
            queries: Vec::new(),
            sinks: Vec::new(),
            trace_sampling: Some(DEFAULT_TRACE_SAMPLING),
            recorder_capacity: DEFAULT_RECORDER_CAPACITY,
            dump_path: None,
        }
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("algorithm", &self.algorithm)
            .field("memory_kib", &self.memory_kib)
            .field("shards", &self.shards)
            .field("epoch_ms", &self.epoch_ms)
            .field("retention", &self.retention)
            .field("http_addr", &self.http_addr)
            .field("udp_addr", &self.udp_addr)
            .field("queries", &self.queries)
            .field("sinks", &self.sinks.len())
            .field("trace_sampling", &self.trace_sampling)
            .field("dump_path", &self.dump_path)
            .finish_non_exhaustive()
    }
}

/// Why the daemon failed to start.
#[derive(Debug)]
pub enum ServerError {
    /// A pipeline configuration error (bad algorithm/budget/plan).
    Config(ConfigError),
    /// A socket could not be bound or cloned.
    Io(std::io::Error),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Config(e) => write!(f, "configuration: {e}"),
            ServerError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<ConfigError> for ServerError {
    fn from(e: ConfigError) -> Self {
        ServerError::Config(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// The shared front-door every ingest source pushes through: the
/// bounded queue plus the offer-side conservation ledger.
///
/// [`IngestPort::offer`] applies the configured
/// [`BackpressurePolicy`] and accounts the outcome immediately — every
/// record is *offered* exactly once, and every record that the policy
/// sheds (the arriving batch under `DropNewest`, displaced older
/// batches under `DropOldest`, anything arriving after close) is
/// *dropped* exactly once, so at quiescence
/// `offered == processed + dropped`.
#[derive(Debug)]
pub struct IngestPort {
    queue: Arc<BatchQueue<Packet>>,
    policy: BackpressurePolicy,
    drops: DropStats,
    recorder: FlightRecorder,
}

impl IngestPort {
    /// Offers one batch under the port's policy, ledgering any shed.
    /// Shed batches also land in the flight recorder (one event per
    /// shed batch, never per packet, so a sustained overload cannot
    /// flood the ring faster than the queue turns over).
    pub fn offer(&self, batch: Vec<Packet>) {
        self.drops.record_offer(batch.len() as u64);
        match self.queue.offer(batch, self.policy) {
            PushOutcome::Enqueued => {}
            PushOutcome::Displaced(old) => {
                for b in old {
                    self.shed(b.len() as u64, "displaced");
                }
            }
            PushOutcome::Rejected(b) => self.shed(b.len() as u64, "rejected"),
        }
    }

    fn shed(&self, packets: u64, why: &str) {
        self.drops.record_drop(packets);
        self.recorder.record_with(
            Severity::Warn,
            "batch_shed",
            format!("ingest queue {why} a batch of {packets} packets"),
            vec![("packets".to_string(), packets.to_string())],
        );
    }

    /// The offer-side conservation ledger (shared handles).
    pub fn drop_stats(&self) -> &DropStats {
        &self.drops
    }
}

/// Pacing of a [`Server::start_replay`] driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayPace {
    /// Offer batches as fast as the queue accepts them.
    LineRate,
    /// Token-bucket paced to this many packets per second (burst
    /// capacity ≈ 10 ms of tokens).
    Pps(u64),
}

/// What one replay driver accomplished.
#[derive(Debug, Clone, Default)]
pub struct ReplayStats {
    /// Packets offered to the ingest port.
    pub packets: u64,
    /// Batches offered.
    pub batches: u64,
    /// Wall clock from first to last offer.
    pub elapsed: Duration,
}

/// What the ingest thread reports when it exits.
struct IngestReport {
    processed: u64,
    sealed: u64,
    finish: Result<(), SinkErrors>,
}

/// End-of-run summary returned by [`Server::shutdown`].
#[derive(Debug)]
pub struct ServerReport {
    /// Packets the collector actually processed.
    pub packets_processed: u64,
    /// Epochs sealed over the run (final partial epoch included).
    pub epochs_sealed: u64,
    /// Records offered at the ingest port (every front-end).
    pub offered_records: u64,
    /// Records shed by the backpressure policy, ledger-accounted.
    pub dropped_records: u64,
    /// Per-driver stats of every [`Server::start_replay`] call.
    pub replays: Vec<ReplayStats>,
    /// Sink errors collected by the final flush, if any.
    pub sink_errors: Option<SinkErrors>,
}

impl ServerReport {
    /// The pipeline-wide conservation invariant: every offered record
    /// was either processed or accounted as dropped.
    pub fn conserved(&self) -> bool {
        self.offered_records == self.packets_processed + self.dropped_records
    }
}

/// Commands the HTTP side sends to the ingest thread (which owns the
/// collector).
enum Command {
    AttachQuery {
        plan: QueryPlan,
        text: String,
        /// The plan's id, or the HTTP status and message refusing it.
        reply: mpsc::Sender<Result<QueryId, (u16, String)>>,
    },
}

/// A running daemon. Dropping it without [`Server::shutdown`] still
/// flushes sinks (the collector's own `Drop` does), but detached
/// threads are abandoned — call `shutdown` for the orderly path.
pub struct Server {
    http_addr: SocketAddr,
    udp_addr: Option<SocketAddr>,
    shutdown: Arc<ShutdownFlag>,
    queue: Arc<BatchQueue<Packet>>,
    port: Arc<IngestPort>,
    published: Arc<Published>,
    registry: MetricsRegistry,
    recorder: FlightRecorder,
    tracer: Option<FlowTracer>,
    pool: Option<http::HttpPool>,
    ingest: Option<JoinHandle<IngestReport>>,
    udp_thread: Option<JoinHandle<()>>,
    replays: Vec<JoinHandle<ReplayStats>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("http_addr", &self.http_addr)
            .field("udp_addr", &self.udp_addr)
            .field("replays", &self.replays.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Boots the daemon: builds the pipeline, binds the sockets, spawns
    /// the ingest loop, the UDP listener (if configured) and the HTTP
    /// worker pool.
    ///
    /// # Errors
    ///
    /// [`ServerError::Config`] for pipeline misconfiguration (unknown
    /// algorithm options, unparseable query plans),
    /// [`ServerError::Io`] when a socket cannot be bound.
    pub fn start(config: ServerConfig) -> Result<Server, ServerError> {
        let registry = MetricsRegistry::new();
        let boot = Instant::now();
        registry
            .gauge(
                "hashflow_build_info",
                &[("version", env!("CARGO_PKG_VERSION"))],
            )
            .set(1);
        let recorder = FlightRecorder::with_capacity(config.recorder_capacity.max(1));
        if let Some(path) = &config.dump_path {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            recorder.set_dump_writer(Box::new(file));
        }
        let tracer = config
            .trace_sampling
            .map(|n| FlowTracer::new(recorder.clone(), n));
        let mut builder = Collector::builder(config.algorithm)
            .budget(MemoryBudget::from_kib(config.memory_kib)?)
            .seed(config.seed)
            .instruments(Instruments {
                registry: Some(registry.clone()),
                recorder: Some(recorder.clone()),
                tracer: tracer.clone(),
            });
        if config.shards > 1 {
            builder = builder.shards(config.shards);
        }
        for sink in config.sinks {
            builder = builder.sink(sink);
        }
        let mut collector = builder.build()?;
        let mut queries = Vec::with_capacity(config.queries.len());
        for text in &config.queries {
            let plan = QueryPlan::from_str(text)?;
            let id = collector.attach_query(plan.clone())?;
            queries.push(QueryInfo {
                id,
                plan: plan.to_string(),
            });
        }

        let shutdown = Arc::new(ShutdownFlag::new());
        let published = Arc::new(Published::new());
        let queue = Arc::new(BatchQueue::new(config.ingest_capacity.max(1)));
        let port = Arc::new(IngestPort {
            queue: Arc::clone(&queue),
            policy: config.ingest_policy,
            drops: DropStats::new(),
            recorder: recorder.clone(),
        });
        port.drops.register(&registry, "server_ingest");

        let listener = TcpListener::bind(&config.http_addr)?;
        let http_addr = listener.local_addr()?;
        let udp_socket = match &config.udp_addr {
            Some(addr) => Some(UdpSocket::bind(addr)?),
            None => None,
        };
        let udp_addr = udp_socket.as_ref().map(|s| s.local_addr()).transpose()?;

        let (command_tx, command_rx) = mpsc::channel();
        let mut epochs = EpochRing::new(|s: &Arc<EpochSnapshot>| s.len() as u64);
        let mut answers = EpochRing::new(|a: &EpochAnswers| {
            a.answers.iter().map(|r| r.rows().len() as u64).sum()
        });
        epochs.set_limit(config.retention.max(1));
        answers.set_limit(config.retention.max(1));
        epochs.drop_stats().register(&registry, "server_epochs");
        answers.drop_stats().register(&registry, "server_answers");
        let ingest_loop = IngestLoop {
            collector,
            queue: Arc::clone(&queue),
            commands: command_rx,
            published: Arc::clone(&published),
            epoch_len: Duration::from_millis(config.epoch_ms.max(1)),
            epochs,
            answers,
            queries,
            sealed_total: 0,
            processed: 0,
            epoch_packets: 0,
        };
        let ingest = std::thread::Builder::new()
            .name("hf-ingest".to_string())
            .spawn(move || ingest_loop.run())
            .map_err(ServerError::Io)?;

        let udp_thread = match udp_socket {
            Some(socket) => {
                let port = Arc::clone(&port);
                let shutdown = Arc::clone(&shutdown);
                let wire_errors = registry.counter("hashflow_server_wire_errors_total", &[]);
                let recorder = recorder.clone();
                socket.set_read_timeout(Some(Duration::from_millis(100)))?;
                Some(
                    std::thread::Builder::new()
                        .name("hf-udp".to_string())
                        .spawn(move || run_udp(&socket, &port, &shutdown, &wire_errors, &recorder))
                        .map_err(ServerError::Io)?,
                )
            }
            None => None,
        };

        let router_state = Arc::new(RouterState {
            published: Arc::clone(&published),
            registry: registry.clone(),
            commands: Mutex::new(command_tx),
            shutdown: Arc::clone(&shutdown),
            recorder: recorder.clone(),
            tracer: tracer.clone(),
            boot,
        });
        let router: Arc<http::Router> = {
            let state = Arc::clone(&router_state);
            Arc::new(move |req: &Request| {
                let started = Instant::now();
                let response = route(&state, req);
                state.observe_http(req, &response, started.elapsed());
                response
            })
        };
        let pool = http::serve(listener, config.http_workers, Arc::clone(&shutdown), router)?;

        Ok(Server {
            http_addr,
            udp_addr,
            shutdown,
            queue,
            port,
            published,
            registry,
            recorder,
            tracer,
            pool: Some(pool),
            ingest: Some(ingest),
            udp_thread,
            replays: Vec::new(),
        })
    }

    /// The bound HTTP address (real port for `:0` binds).
    pub fn http_addr(&self) -> SocketAddr {
        self.http_addr
    }

    /// The bound UDP ingest address, if the front-end is enabled.
    pub fn udp_addr(&self) -> Option<SocketAddr> {
        self.udp_addr
    }

    /// The current published view (wait-free for the ingest path).
    pub fn view(&self) -> Arc<SealedView> {
        self.published.load()
    }

    /// The swap cell itself. A clone outlives [`Server::shutdown`], so
    /// harnesses can inspect the *final* published view (the one
    /// carrying the partial last epoch and `finished = true`).
    pub fn published(&self) -> Arc<Published> {
        Arc::clone(&self.published)
    }

    /// The daemon's metrics registry (shared handles).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The daemon's flight recorder (shared ring; every pipeline layer
    /// and the `/debug/events` endpoint read and write the same one).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The flow tracer, if [`ServerConfig::trace_sampling`] enabled one.
    pub fn tracer(&self) -> Option<&FlowTracer> {
        self.tracer.as_ref()
    }

    /// The shared ingest port, for embedding custom front-ends.
    pub fn ingest_port(&self) -> Arc<IngestPort> {
        Arc::clone(&self.port)
    }

    /// Requests shutdown without waiting (same flag `POST /shutdown`
    /// triggers). [`Server::shutdown`] still must run to join threads.
    pub fn trigger_shutdown(&self) {
        self.shutdown.trigger();
    }

    /// Whether shutdown has been requested (by any trigger).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.is_set()
    }

    /// Spawns a replay driver feeding `packets` through the ingest port
    /// in [`REPLAY_BATCH`]-sized batches at the requested pace. Several
    /// drivers may run concurrently; each stops early if shutdown
    /// triggers mid-replay.
    pub fn start_replay(&mut self, packets: Vec<Packet>, pace: ReplayPace) {
        let port = Arc::clone(&self.port);
        let shutdown = Arc::clone(&self.shutdown);
        let handle = std::thread::Builder::new()
            .name("hf-replay".to_string())
            .spawn(move || run_replay(&packets, pace, &port, &shutdown))
            .expect("spawn replay driver");
        self.replays.push(handle);
    }

    /// Blocks until at least `n` epochs have sealed or `timeout`
    /// elapses, woken by each publish. Returns whether the target was
    /// reached.
    pub fn wait_for_sealed(&self, n: u64, timeout: Duration) -> bool {
        self.published
            .wait_for(timeout, |view| view.sealed_total >= n)
    }

    /// Graceful shutdown: stops the front-ends, drains the queue, seals
    /// the final (partial) epoch, flushes every sink exactly once and
    /// joins every thread.
    pub fn shutdown(mut self) -> ServerReport {
        self.shutdown.trigger();
        // Front-ends first: once they stop offering, closing the queue
        // bounds the ingest thread's drain.
        let replays: Vec<ReplayStats> = self
            .replays
            .drain(..)
            .map(|h| h.join().unwrap_or_default())
            .collect();
        if let Some(udp) = self.udp_thread.take() {
            let _ = udp.join();
        }
        self.queue.close();
        let ingest = self
            .ingest
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("ingest thread panicked");
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
        let drops = self.port.drop_stats();
        ServerReport {
            packets_processed: ingest.processed,
            epochs_sealed: ingest.sealed,
            offered_records: drops.offered_records(),
            dropped_records: drops.dropped_records(),
            replays,
            sink_errors: ingest.finish.err(),
        }
    }
}

/// The replay driver loop: token-bucket paced batch offers.
fn run_replay(
    packets: &[Packet],
    pace: ReplayPace,
    port: &IngestPort,
    shutdown: &ShutdownFlag,
) -> ReplayStats {
    let start = Instant::now();
    let mut stats = ReplayStats::default();
    let mut tokens = 0f64;
    let mut last_refill = Instant::now();
    'batches: for chunk in packets.chunks(REPLAY_BATCH) {
        if shutdown.is_set() {
            break;
        }
        if let ReplayPace::Pps(rate) = pace {
            let rate = rate.max(1) as f64;
            let need = chunk.len() as f64;
            // Burst capacity: 10 ms of tokens (at least one batch, so
            // low rates still make progress).
            let burst = (rate * 0.01).max(need);
            loop {
                let now = Instant::now();
                tokens = (tokens + now.duration_since(last_refill).as_secs_f64() * rate).min(burst);
                last_refill = now;
                if tokens >= need {
                    tokens -= need;
                    break;
                }
                if shutdown.is_set() {
                    break 'batches;
                }
                let wait = ((need - tokens) / rate).clamp(0.000_2, 0.005);
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
        }
        port.offer(chunk.to_vec());
        stats.packets += chunk.len() as u64;
        stats.batches += 1;
    }
    stats.elapsed = start.elapsed();
    stats
}

/// The UDP front-end loop: decode datagrams, offer batches, count
/// malformed frames.
fn run_udp(
    socket: &UdpSocket,
    port: &IngestPort,
    shutdown: &ShutdownFlag,
    wire_errors: &hashflow_obs::Counter,
    recorder: &FlightRecorder,
) {
    let mut buf = vec![0u8; 64 * 1024];
    while !shutdown.is_set() {
        match socket.recv_from(&mut buf) {
            Ok((n, _)) => match wire::decode_datagram(&buf[..n]) {
                Ok(packets) => {
                    if !packets.is_empty() {
                        port.offer(packets);
                    }
                }
                Err(e) => {
                    wire_errors.inc();
                    recorder.record_with(
                        Severity::Warn,
                        "wire_junk",
                        format!("undecodable datagram ({n} bytes): {e}"),
                        vec![("bytes".to_string(), n.to_string())],
                    );
                }
            },
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
}

/// The writer side: owns the collector, services the queue and the
/// command channel, seals on the wall clock, publishes sealed views.
struct IngestLoop {
    collector: Collector,
    queue: Arc<BatchQueue<Packet>>,
    commands: mpsc::Receiver<Command>,
    published: Arc<Published>,
    epoch_len: Duration,
    /// The published rings, bounded at [`ServerConfig::retention`]
    /// (ledgers `server_epochs` and `server_answers`).
    epochs: EpochRing<Arc<EpochSnapshot>>,
    answers: EpochRing<EpochAnswers>,
    queries: Vec<QueryInfo>,
    sealed_total: u64,
    processed: u64,
    /// Packets ingested since the last seal: an epoch with none is
    /// skipped, not sealed empty.
    epoch_packets: u64,
}

impl IngestLoop {
    /// Runs until the queue is closed and drained, then seals the
    /// truncated final epoch and flushes the sinks.
    fn run(mut self) -> IngestReport {
        let mut next_seal = Instant::now() + self.epoch_len;
        self.publish(false);
        loop {
            while let Ok(Command::AttachQuery { plan, text, reply }) = self.commands.try_recv() {
                let _ = reply.send(self.attach(plan, text));
                self.publish(false);
            }
            let now = Instant::now();
            if now >= next_seal {
                self.seal(false);
                // Quiet epochs still refresh the published health view.
                self.publish(false);
                while next_seal <= now {
                    next_seal += self.epoch_len;
                }
                continue;
            }
            let wait = (next_seal - now).min(INGEST_POLL);
            match self.queue.pop_deadline(wait) {
                PopOutcome::Batch(batch) => {
                    let n = batch.len() as u64;
                    self.collector.process_batch(&batch);
                    self.processed += n;
                    self.epoch_packets += n;
                }
                PopOutcome::TimedOut => {}
                PopOutcome::Closed => break,
            }
        }
        // Shutdown: the queue is closed and fully drained. Seal whatever
        // the truncated final epoch holds, marked partial.
        self.seal(true);
        // Exactly-once flush: `finish` marks the collector finished, so its
        // own `Drop` (which flushes unfinished pipelines) becomes a no-op.
        let finish = self.collector.finish();
        self.publish(true);
        IngestReport {
            processed: self.processed,
            sealed: self.sealed_total,
            finish,
        }
    }

    /// Attaches a client's plan unless [`MAX_QUERIES`] are attached
    /// (`409`) or the collector refuses it (`400`).
    fn attach(&mut self, plan: QueryPlan, text: String) -> Result<QueryId, (u16, String)> {
        if self.queries.len() >= MAX_QUERIES {
            return Err((
                409,
                format!("at most {MAX_QUERIES} query plans may be attached"),
            ));
        }
        let id = self
            .collector
            .attach_query(plan)
            .map_err(|e| (400, e.to_string()))?;
        self.queries.push(QueryInfo { id, plan: text });
        Ok(id)
    }

    /// Seals the running epoch — unless no packet arrived in it — and
    /// pushes it and its answers onto the published rings.
    fn seal(&mut self, partial: bool) {
        if self.epoch_packets == 0 {
            return;
        }
        self.epoch_packets = 0;
        let snapshot = self.collector.seal().with_partial(partial);
        self.sealed_total += 1;
        // Drained at every seal, the collector's own stores never hold
        // more than this epoch: the published rings are the history.
        let _ = self.collector.drain_completed();
        let epoch = snapshot.epoch();
        for answers in self.collector.drain_query_answers() {
            self.answers.push(EpochAnswers { epoch, answers });
        }
        self.epochs.push(Arc::new(snapshot));
    }

    /// Rebuilds and swaps in a fresh [`SealedView`] (O(retention) `Arc`
    /// clones — never proportional to flow counts).
    fn publish(&self, finished: bool) {
        self.published.store(Arc::new(SealedView {
            epochs: self.epochs.as_slice().to_vec(),
            queries: self.queries.clone(),
            answers: self.answers.as_slice().to_vec(),
            health: HealthView {
                sinks: self.collector.sink_health(),
                faults: self.collector.faults(),
                finished,
            },
            sealed_total: self.sealed_total,
        }));
    }
}

/// Everything the HTTP routing closure needs.
struct RouterState {
    published: Arc<Published>,
    registry: MetricsRegistry,
    commands: Mutex<mpsc::Sender<Command>>,
    shutdown: Arc<ShutdownFlag>,
    recorder: FlightRecorder,
    tracer: Option<FlowTracer>,
    boot: Instant,
}

impl RouterState {
    /// Seconds since the daemon booted.
    fn uptime_s(&self) -> u64 {
        self.boot.elapsed().as_secs()
    }

    /// Counts the request and feeds the per-route latency histogram.
    /// Routes are recorded as their *pattern* (`/epochs/{n}/top`), never
    /// the raw path, so label cardinality stays bounded whatever clients
    /// request.
    fn observe_http(&self, req: &Request, response: &Response, elapsed: Duration) {
        let route = route_pattern(&req.path);
        let status = response.status.to_string();
        self.registry
            .counter(
                "hashflow_server_http_requests_total",
                &[("route", route), ("status", &status)],
            )
            .inc();
        self.registry
            .histogram("hashflow_server_http_latency_us", &[("route", route)])
            .observe(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }
}

/// Collapses a request path onto its route pattern (bounded label set).
fn route_pattern(path: &str) -> &'static str {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        [] => "/",
        ["epochs"] => "/epochs",
        ["epochs", _] => "/epochs/{n}",
        ["epochs", _, "top"] => "/epochs/{n}/top",
        ["epochs", _, "flows", ..] => "/epochs/{n}/flows/{key}",
        ["queries"] => "/queries",
        ["metrics"] => "/metrics",
        ["healthz"] => "/healthz",
        ["shutdown"] => "/shutdown",
        ["debug", "events"] => "/debug/events",
        ["debug", "flows", ..] => "/debug/flows/{key}",
        ["debug", "introspect"] => "/debug/introspect",
        _ => "other",
    }
}

fn not_found(what: &str) -> Response {
    Response::json(404, Obj::new().str("error", what).build())
}

fn method_not_allowed() -> Response {
    Response::json(405, Obj::new().str("error", "method not allowed").build())
}

/// Routes one request against the current published view.
fn route(state: &RouterState, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", []) => index(),
        ("GET", ["epochs"]) => list_epochs(&state.published.load()),
        ("GET", ["epochs", n]) => one_epoch(&state.published.load(), n),
        ("GET", ["epochs", n, "top"]) => top_flows(&state.published.load(), n, req),
        ("GET", ["epochs", n, "flows", rest @ ..]) => {
            // Flow keys contain `/` (the `/proto` suffix), so the key is
            // the joined remainder of the path.
            flow_estimate(&state.published.load(), n, &rest.join("/"))
        }
        ("GET", ["queries"]) => list_queries(&state.published.load()),
        ("POST", ["queries"]) => attach_query(state, req),
        ("GET", ["metrics"]) => {
            // Refresh the uptime gauge at scrape time so it is always
            // current without a background ticker.
            state
                .registry
                .gauge("hashflow_server_uptime_seconds", &[])
                .set(state.uptime_s().min(i64::MAX as u64) as i64);
            Response {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                body: state.registry.snapshot().to_prometheus().into_bytes(),
            }
        }
        ("GET", ["healthz"]) => healthz(&state.published.load(), state.uptime_s()),
        ("GET", ["debug", "events"]) => debug_events(state, req),
        ("GET", ["debug", "flows", rest @ ..]) => debug_flow(state, &rest.join("/")),
        ("GET", ["debug", "introspect"]) => debug_introspect(&state.published.load()),
        ("POST", ["shutdown"]) => {
            state.shutdown.trigger();
            Response::json(200, Obj::new().bool("shutting_down", true).build())
        }
        (
            _,
            []
            | ["epochs", ..]
            | ["queries"]
            | ["metrics"]
            | ["healthz"]
            | ["shutdown"]
            | ["debug", ..],
        ) => method_not_allowed(),
        _ => not_found("no such endpoint"),
    }
}

fn index() -> Response {
    let endpoints = [
        "GET /epochs",
        "GET /epochs/{n}",
        "GET /epochs/{n}/top?k=K",
        "GET /epochs/{n}/flows/{key}",
        "GET /queries",
        "POST /queries",
        "GET /metrics",
        "GET /healthz",
        "GET /debug/events?since=N",
        "GET /debug/flows/{key}",
        "GET /debug/introspect",
        "POST /shutdown",
    ];
    Response::json(
        200,
        Obj::new()
            .str("service", "hashflow-server")
            .raw(
                "endpoints",
                json::array(endpoints.iter().map(|e| json::string(e))),
            )
            .build(),
    )
}

fn epoch_summary(snapshot: &EpochSnapshot) -> String {
    Obj::new()
        .u64("epoch", snapshot.epoch())
        .opt_u64("start_ns", snapshot.start_ns())
        .opt_u64("end_ns", snapshot.end_ns())
        .u64("flows", snapshot.len() as u64)
        .f64("cardinality", snapshot.cardinality())
        .bool("partial", snapshot.is_partial())
        .build()
}

fn list_epochs(view: &SealedView) -> Response {
    Response::json(
        200,
        Obj::new()
            .u64("sealed_total", view.sealed_total)
            .u64("retained", view.epochs.len() as u64)
            .raw(
                "epochs",
                json::array(view.epochs.iter().map(|s| epoch_summary(s))),
            )
            .build(),
    )
}

fn parse_epoch<'v>(view: &'v SealedView, n: &str) -> Result<&'v Arc<EpochSnapshot>, Response> {
    let n: u64 = n.parse().map_err(|_| {
        Response::json(
            400,
            Obj::new().str("error", "epoch must be a number").build(),
        )
    })?;
    view.epoch(n)
        .ok_or_else(|| not_found("epoch not sealed or already evicted"))
}

fn one_epoch(view: &SealedView, n: &str) -> Response {
    match parse_epoch(view, n) {
        Ok(snapshot) => Response::json(200, epoch_summary(snapshot)),
        Err(resp) => resp,
    }
}

fn top_flows(view: &SealedView, n: &str, req: &Request) -> Response {
    let snapshot = match parse_epoch(view, n) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    let k = req
        .query_param("k")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(10)
        .min(10_000);
    let rows = snapshot.top_k(k);
    Response::json(
        200,
        Obj::new()
            .u64("epoch", snapshot.epoch())
            .u64("k", k as u64)
            .raw(
                "flows",
                json::array(rows.iter().map(|r| {
                    Obj::new()
                        .str("key", &r.key().to_string())
                        .u64("count", u64::from(r.count()))
                        .build()
                })),
            )
            .build(),
    )
}

fn flow_estimate(view: &SealedView, n: &str, key: &str) -> Response {
    let snapshot = match parse_epoch(view, n) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    match FlowKey::from_str(key) {
        Ok(flow) => Response::json(
            200,
            Obj::new()
                .u64("epoch", snapshot.epoch())
                .str("key", &flow.to_string())
                .u64("estimate", u64::from(snapshot.estimate_size(&flow)))
                .build(),
        ),
        Err(e) => Response::json(400, Obj::new().str("error", &e.to_string()).build()),
    }
}

fn list_queries(view: &SealedView) -> Response {
    Response::json(
        200,
        Obj::new()
            .raw(
                "queries",
                json::array(view.queries.iter().map(|q| {
                    Obj::new()
                        .u64("id", q.id as u64)
                        .str("plan", &q.plan)
                        .build()
                })),
            )
            .raw(
                "answers",
                json::array(view.answers.iter().map(|a| {
                    Obj::new()
                        .u64("epoch", a.epoch)
                        .raw(
                            "results",
                            json::array(a.answers.iter().enumerate().map(|(id, r)| {
                                Obj::new()
                                    .u64("query_id", id as u64)
                                    .str("group", &r.group().to_string())
                                    .raw(
                                        "rows",
                                        json::array(r.rows().iter().map(|row| {
                                            Obj::new()
                                                .str("key", &row.key.to_string())
                                                .u64("value", row.value)
                                                .build()
                                        })),
                                    )
                                    .build()
                            })),
                        )
                        .build()
                })),
            )
            .build(),
    )
}

fn attach_query(state: &RouterState, req: &Request) -> Response {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t.trim(),
        Err(_) => {
            return Response::json(400, Obj::new().str("error", "body must be UTF-8").build())
        }
    };
    let plan = match QueryPlan::from_str(text) {
        Ok(p) => p,
        Err(e) => return Response::json(400, Obj::new().str("error", &e.to_string()).build()),
    };
    let canonical = plan.to_string();
    let (reply_tx, reply_rx) = mpsc::channel();
    let sent = state
        .commands
        .lock()
        .expect("command sender poisoned")
        .send(Command::AttachQuery {
            plan,
            text: canonical.clone(),
            reply: reply_tx,
        })
        .is_ok();
    if !sent {
        return Response::json(
            503,
            Obj::new()
                .str("error", "collector is shutting down")
                .build(),
        );
    }
    match reply_rx.recv_timeout(Duration::from_secs(2)) {
        Ok(Ok(id)) => Response::json(
            201,
            Obj::new()
                .u64("id", id as u64)
                .str("plan", &canonical)
                .build(),
        ),
        Ok(Err((status, error))) => Response::json(status, Obj::new().str("error", &error).build()),
        Err(_) => Response::json(
            503,
            Obj::new().str("error", "collector did not confirm").build(),
        ),
    }
}

fn healthz(view: &SealedView, uptime_s: u64) -> Response {
    let health = &view.health;
    let status = if health.is_unhealthy() {
        "unhealthy"
    } else if health.is_degraded() {
        "degraded"
    } else {
        "healthy"
    };
    let body = Obj::new()
        .str("status", status)
        .u64("uptime_s", uptime_s)
        .u64("sealed_epochs", view.sealed_total)
        .bool("finished", health.finished)
        .raw(
            "sinks",
            json::array(health.sinks.iter().map(|s| {
                Obj::new()
                    .u64("index", s.index as u64)
                    .str("health", s.health.label())
                    .u64("consecutive_failures", u64::from(s.consecutive_failures))
                    .u64("total_errors", s.total_errors)
                    .u64("skipped_epochs", s.skipped_epochs)
                    .u64("skipped_records", s.skipped_records)
                    .u64("recoveries", s.recoveries)
                    .raw(
                        "last_error",
                        s.last_error
                            .as_deref()
                            .map(json::string)
                            .unwrap_or_else(|| "null".to_string()),
                    )
                    .build()
            })),
        )
        .raw(
            "faults",
            json::array(health.faults.iter().map(|f| json::string(f))),
        )
        .build();
    let code = if health.is_unhealthy() { 503 } else { 200 };
    Response::json(code, body)
}

/// `GET /debug/events?since=N`: pages the flight-recorder ring by
/// sequence number. `since=0` (the default) returns the whole retained
/// window; clients resume from the `last_seq` they saw.
fn debug_events(state: &RouterState, req: &Request) -> Response {
    let since = match req.query_param("since") {
        None => 0,
        Some(raw) => match raw.parse::<u64>() {
            Ok(n) => n,
            Err(_) => {
                return Response::json(
                    400,
                    Obj::new().str("error", "since must be a number").build(),
                )
            }
        },
    };
    let events = state.recorder.events_since(since);
    Response::json(
        200,
        Obj::new()
            .u64("last_seq", state.recorder.last_seq())
            .u64("overwritten", state.recorder.overwritten())
            .u64("dumps", state.recorder.dumps())
            .u64("returned", events.len() as u64)
            .raw("events", json::array(events.iter().map(|e| e.to_json())))
            .build(),
    )
}

/// `GET /debug/flows/{key}`: whether the tracer samples this flow, plus
/// every span the ring still holds for it.
fn debug_flow(state: &RouterState, key: &str) -> Response {
    let flow = match FlowKey::from_str(key) {
        Ok(f) => f,
        Err(e) => return Response::json(400, Obj::new().str("error", &e.to_string()).build()),
    };
    let mut obj = Obj::new().str("key", &flow.to_string());
    obj = match &state.tracer {
        Some(t) => obj
            .bool("sampled", t.is_sampled(&flow))
            .u64("sample_one_in", t.sample_one_in()),
        None => obj.raw("sampled", "null"),
    };
    let wanted = flow.to_string();
    let spans: Vec<String> = state
        .recorder
        .snapshot()
        .into_iter()
        .filter(|e| e.kind == FLOW_SPAN_KIND && e.field("flow") == Some(wanted.as_str()))
        .map(|e| e.to_json())
        .collect();
    Response::json(
        200,
        obj.u64("spans_retained", spans.len() as u64)
            .raw("spans", json::array(spans))
            .build(),
    )
}

/// `GET /debug/introspect`: the sketch-internal metrics the monitor
/// sealed into the newest retained epoch (load factors, collision
/// counters, escalations — see `FlowMonitor::introspection`).
fn debug_introspect(view: &SealedView) -> Response {
    let Some(snapshot) = view.epochs.last() else {
        return not_found("no epoch sealed yet");
    };
    Response::json(
        200,
        Obj::new()
            .u64("epoch", snapshot.epoch())
            .raw(
                "metrics",
                json::array(snapshot.introspection().iter().map(|m| {
                    let obj = Obj::new().str("name", &m.name);
                    let obj = match m.value {
                        IntrospectValue::Ratio(r) => obj.str("type", "ratio").f64("value", r),
                        IntrospectValue::Count(c) => obj.str("type", "count").u64("value", c),
                        IntrospectValue::Flag(f) => obj.str("type", "flag").bool("value", f),
                    };
                    obj.str("gauge", &m.gauge_name()).build()
                })),
            )
            .build(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use hashflow_trace::{TraceGenerator, TraceProfile};

    fn small_config() -> ServerConfig {
        ServerConfig {
            epoch_ms: 40,
            retention: 4,
            http_workers: 2,
            queries: vec!["map dst | reduce count | threshold 1".to_string()],
            ..ServerConfig::default()
        }
    }

    #[test]
    fn boots_replays_seals_and_shuts_down() {
        let trace = TraceGenerator::new(TraceProfile::Caida, 5).generate(1_000);
        let total = trace.packets().len() as u64;
        let mut server = Server::start(small_config()).expect("boot");
        server.start_replay(trace.packets().to_vec(), ReplayPace::LineRate);
        assert!(server.wait_for_sealed(1, Duration::from_secs(10)));
        let report = server.shutdown();
        assert!(report.conserved(), "ledger must conserve: {report:?}");
        assert_eq!(report.offered_records, total);
        assert!(report.epochs_sealed >= 1);
        assert!(report.sink_errors.is_none());
    }

    #[test]
    fn http_api_serves_epochs_queries_and_health() {
        let trace = TraceGenerator::new(TraceProfile::Campus, 9).generate(800);
        let mut server = Server::start(small_config()).expect("boot");
        let addr = server.http_addr();
        server.start_replay(trace.packets().to_vec(), ReplayPace::LineRate);
        assert!(server.wait_for_sealed(1, Duration::from_secs(10)));

        let (status, body) = client::get(addr, "/epochs").expect("GET /epochs");
        assert_eq!(status, 200);
        assert!(body.contains("\"sealed_total\""));

        let view = server.view();
        let first = view.epochs.first().expect("one sealed epoch").epoch();
        let (status, body) =
            client::get(addr, &format!("/epochs/{first}/top?k=3")).expect("GET top");
        assert_eq!(status, 200);
        assert!(body.contains("\"flows\""));

        // A flow key straight out of the sealed snapshot estimates > 0.
        let key = view.epochs.first().unwrap().as_records()[0].key();
        let encoded = key.to_string().replace('/', "%2F").replace('>', "%3E");
        let (status, body) =
            client::get(addr, &format!("/epochs/{first}/flows/{encoded}")).expect("GET flow");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"estimate\""));

        let (status, body) = client::get(addr, "/healthz").expect("GET healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"healthy\""));

        let (status, body) = client::get(addr, "/metrics").expect("GET metrics");
        assert_eq!(status, 200);
        assert!(body.contains("hashflow_ingest_packets_total"));

        let (status, body) = client::post(
            addr,
            "/queries",
            "filter proto=6 | map src | reduce count | threshold 1",
        )
        .expect("POST query");
        assert_eq!(status, 201, "{body}");
        assert!(body.contains("\"id\":1"));

        let (status, body) = client::get(addr, "/queries").expect("GET queries");
        assert_eq!(status, 200);
        assert!(body.contains("\"queries\""));

        let (status, _) = client::get(addr, "/nope").expect("GET unknown");
        assert_eq!(status, 404);
        let (status, _) = client::get(addr, "/epochs/999999/top").expect("GET evicted");
        assert_eq!(status, 404);

        let report = server.shutdown();
        assert!(report.conserved());
    }

    #[test]
    fn debug_endpoints_serve_events_flows_and_introspection() {
        let trace = TraceGenerator::new(TraceProfile::Caida, 11).generate(1_200);
        let mut server = Server::start(ServerConfig {
            trace_sampling: Some(1), // sample every flow
            // 1-in-1 sampling emits thousands of spans; keep the whole
            // run in the ring so lifecycle events survive for asserts.
            recorder_capacity: 16 * 1024,
            ..small_config()
        })
        .expect("boot");
        let addr = server.http_addr();
        server.start_replay(trace.packets().to_vec(), ReplayPace::LineRate);
        assert!(server.wait_for_sealed(1, Duration::from_secs(10)));

        let (status, body) = client::get(addr, "/debug/events").expect("GET events");
        assert_eq!(status, 200);
        assert!(body.contains("\"epoch_sealed\""), "{body}");
        assert!(body.contains("\"flow_span\""), "{body}");

        // Paging: nothing new after the cursor the recorder reports.
        let last = server.recorder().last_seq();
        let (status, body) =
            client::get(addr, &format!("/debug/events?since={last}")).expect("GET paged");
        assert_eq!(status, 200);
        assert!(body.contains("\"returned\":0"), "{body}");
        let (status, _) = client::get(addr, "/debug/events?since=bogus").expect("GET bad cursor");
        assert_eq!(status, 400);

        // Flow debug: with 1-in-1 sampling every key reports sampled.
        let view = server.view();
        let key = view.epochs.first().unwrap().as_records()[0].key();
        let encoded = key.to_string().replace('/', "%2F").replace('>', "%3E");
        let (status, body) =
            client::get(addr, &format!("/debug/flows/{encoded}")).expect("GET flow");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"sampled\":true"), "{body}");
        assert!(body.contains("\"sample_one_in\":1"));
        let (status, _) = client::get(addr, "/debug/flows/garbage").expect("GET bad flow");
        assert_eq!(status, 400);

        // Introspection of the newest sealed epoch (HashFlow gauges).
        let (status, body) = client::get(addr, "/debug/introspect").expect("GET introspect");
        assert_eq!(status, 200);
        assert!(body.contains("main_table_load"), "{body}");
        assert!(body.contains("ancillary_load"), "{body}");

        // Self-instrumentation + build info + uptime on /metrics.
        let (status, body) = client::get(addr, "/metrics").expect("GET metrics");
        assert_eq!(status, 200);
        assert!(body.contains("hashflow_build_info"), "{body}");
        assert!(body.contains("hashflow_server_uptime_seconds"));
        assert!(body.contains("hashflow_server_http_requests_total"));
        assert!(body.contains("route=\"/debug/events\""), "{body}");
        assert!(body.contains("hashflow_server_http_latency_us"));
        assert!(body.contains("hashflow_introspect_main_table_load_ppm"));

        let (status, body) = client::get(addr, "/healthz").expect("GET healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"uptime_s\""), "{body}");

        let report = server.shutdown();
        assert!(report.conserved());
    }

    #[test]
    fn post_queries_is_capped_and_refuses_estimate_only_kinds() {
        let server = Server::start(small_config()).expect("boot");
        let addr = server.http_addr();
        // One plan attached at boot; clients may add the rest.
        for id in 1..MAX_QUERIES {
            let (status, body) =
                client::post(addr, "/queries", "map src | reduce sum").expect("POST query");
            assert_eq!(status, 201, "{body}");
            assert!(body.contains(&format!("\"id\":{id}")), "{body}");
        }
        let (status, body) =
            client::post(addr, "/queries", "map src | reduce sum").expect("POST over the cap");
        assert_eq!(status, 409, "{body}");
        assert!(body.contains("\"error\""), "{body}");
        assert_eq!(server.view().queries.len(), MAX_QUERIES, "nothing attached");
        server.shutdown();

        let server = Server::start(ServerConfig {
            algorithm: AlgorithmKind::CountMin,
            queries: Vec::new(),
            ..small_config()
        })
        .expect("boot without plans");
        let (status, body) =
            client::post(server.http_addr(), "/queries", "map src | reduce sum").expect("POST");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("estimate-only"), "{body}");
        server.shutdown();
        let refused = Server::start(ServerConfig {
            algorithm: AlgorithmKind::CountMin,
            ..small_config()
        });
        assert!(
            refused.is_err(),
            "a boot-time plan over CountMin is refused"
        );
    }

    #[test]
    fn post_shutdown_triggers_the_flag() {
        let server = Server::start(small_config()).expect("boot");
        let addr = server.http_addr();
        let (status, _) = client::post(addr, "/shutdown", "").expect("POST shutdown");
        assert_eq!(status, 200);
        assert!(server.shutdown_requested());
        let report = server.shutdown();
        assert!(report.conserved());
        assert_eq!(report.packets_processed, 0);
    }

    #[test]
    fn paced_replay_is_slower_than_line_rate() {
        let trace = TraceGenerator::new(TraceProfile::Isp1, 3).generate(2_000);
        let packets: Vec<_> = trace.packets().iter().take(2_000).copied().collect();
        assert_eq!(packets.len(), 2_000, "profile yields enough packets");
        let mut server = Server::start(ServerConfig {
            epoch_ms: 10_000,
            ..small_config()
        })
        .expect("boot");
        server.start_replay(packets, ReplayPace::Pps(10_000));
        let report = {
            // Let the paced driver finish: 2 000 pkt at 10 kpps ≈ 200 ms.
            std::thread::sleep(Duration::from_millis(400));
            server.shutdown()
        };
        assert!(report.conserved());
        let replay = &report.replays[0];
        assert!(
            replay.elapsed >= Duration::from_millis(120),
            "token bucket should have paced ~200ms, took {:?}",
            replay.elapsed
        );
    }
}
