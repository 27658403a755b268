//! `hashflow-server`: the collector pipeline as a long-running network
//! service.
//!
//! Everything below this crate measures traffic it is *handed* — a trace
//! replayed through [`hashflow_collector::Collector`] inside one process,
//! sealed when the driver says so. This crate turns that pipeline into a
//! daemon with the three loops a deployed collector actually runs:
//!
//! 1. **Ingest front-ends** push packets in from outside: a UDP socket
//!    speaking the fixed-layout record format of [`wire`], and an
//!    in-process replay driver ([`Server::start_replay`]) that feeds a
//!    captured trace at line rate or token-bucket paced. Both plan each
//!    batch on their own thread ([`hashflow_monitor::BatchPlanner`]) and
//!    go through one bounded [`hashflow_shard::BoundedQueue`] under the
//!    workspace's uniform backpressure contract — a slow collector sheds
//!    (or stalls) by [`hashflow_monitor::BackpressurePolicy`], and every
//!    shed batch lands in a [`hashflow_monitor::DropStats`] ledger, so
//!    `offered == processed + dropped` holds for the whole run.
//! 2. **Wall-clock epoch rotation**: a deployed collector cannot wait for
//!    packet timestamps to cross an edge (quiet links would never seal),
//!    so the ingest loop seals every `epoch_ms` of *wall* time. Sealed
//!    epochs are published as immutable
//!    [`hashflow_monitor::EpochSnapshot`]s behind an
//!    atomically swapped [`std::sync::Arc`] ([`state::Published`]):
//!    readers clone a pointer and query frozen data, the writer never
//!    waits for a reader, and a bounded ring (again drop-accounted)
//!    keeps memory flat forever.
//! 3. **A concurrent query API**: a hand-rolled HTTP/1.1 server
//!    (`std::net` + a fixed worker pool, no external crates) exposing
//!    the sealed history, per-flow size estimates, the runtime metrics
//!    registry in Prometheus exposition format, sink/shard health and
//!    runtime query registration. See [`daemon`] for the endpoint table.
//!
//! Shutdown is cooperative: one [`ShutdownFlag`] is checked by every
//! loop. Triggering it (HTTP `POST /shutdown`, the CLI's `--duration-ms`
//! timer, or [`Server::shutdown`]) stops the front-ends, drains the
//! queue, seals the final — explicitly partial — epoch, flushes every
//! sink exactly once and reports the conservation ledger.
//!
//! The whole crate is `std`-only and `forbid(unsafe_code)`, like the
//! rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod http;
pub mod state;
pub mod wire;

/// The workspace's JSON writer (it lives in `hashflow-obs`, next to the
/// exposition that shares it), under the path the daemon's callers use.
pub use hashflow_obs::json;

pub use daemon::{
    IngestPort, ReplayPace, ReplayStats, Server, ServerConfig, ServerError, ServerReport,
};
pub use http::{Request, Response};
pub use state::{EpochAnswers, HealthView, Published, QueryInfo, SealedView};

use std::sync::atomic::{AtomicBool, Ordering};

/// A cooperative shutdown signal shared by every loop in the daemon.
///
/// Pure-`std` programs cannot install OS signal handlers, so this flag
/// *is* the shutdown mechanism: whatever wants the daemon down (an HTTP
/// `POST /shutdown`, a duration timer, a test harness) triggers it, and
/// the ingest loop, the UDP listener, the replay drivers and the HTTP
/// workers all poll it at their natural wakeup points (queue deadlines,
/// socket read timeouts).
#[derive(Debug, Default)]
pub struct ShutdownFlag(AtomicBool);

impl ShutdownFlag {
    /// A fresh, untriggered flag.
    pub const fn new() -> Self {
        ShutdownFlag(AtomicBool::new(false))
    }

    /// Requests shutdown. Idempotent; never blocks.
    pub fn trigger(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn is_set(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}
