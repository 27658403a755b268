//! The collector pipeline facade: one construction path and one
//! operational loop for every flow monitor in the workspace.
//!
//! The paper's evaluation is single-epoch and offline; a deployed
//! collector is neither. This crate assembles the workspace's pieces into
//! the pipeline a deployment actually runs:
//!
//! ```text
//! source ──> rotator ────────────> Collector (sealed side) ──> sinks
//!            EpochRotator around   exports, announces,         RecordSink
//!            a registry-built      answers, retains
//!            monitor
//! ```
//!
//! * [`AlgorithmKind`] + [`MonitorBuilder`] form the **algorithm
//!   registry**: the only place in the workspace that maps an algorithm
//!   name/config plus a [`MemoryBudget`] onto a constructed monitor.
//!   The CLI, the experiment harness, the daemon and the benchmark all
//!   build monitors here — there is no other string→constructor path
//!   to drift out of sync. A deployed collector
//!   runs one monitor; `hashflow_shard::ShardedMonitor` is the library
//!   type that splits a budget over flow-partitioned shards.
//! * [`Collector`] is the operational loop: a registry-built monitor
//!   behind an [`EpochRotator`](hashflow_monitor::EpochRotator),
//!   ingesting via the batched hot path. The rotator seals and numbers
//!   each epoch; the `Collector` exports it to its [`RecordSink`]s,
//!   announces it on its instruments, answers the declarative telemetry
//!   queries ([`QueryPlan`], from the `hashflow-query` crate, attached
//!   via [`CollectorBuilder::query`]) over it, and retains it with its
//!   answers, under one retention limit.
//!
//! # Examples
//!
//! ```
//! use hashflow_collector::{AlgorithmKind, Collector};
//! use hashflow_monitor::{FlowMonitor, MemoryBudget, MemorySink};
//! use hashflow_types::{FlowKey, Packet};
//!
//! let mut collector = Collector::builder(AlgorithmKind::HashFlow)
//!     .budget(MemoryBudget::from_kib(64)?)
//!     .epoch_ns(1_000_000) // 1 ms epochs
//!     .sink(Box::new(MemorySink::new()))
//!     .build()?;
//! for t in 0..3_000u64 {
//!     collector.process_packet(&Packet::new(FlowKey::from_index(t % 50), t * 1_000, 64));
//! }
//! let tail = collector.seal(); // flush the running epoch
//! assert!(collector.completed_epochs().len() >= 3);
//! assert_eq!(tail.epoch(), collector.completed_epochs().len() as u64 - 1);
//! collector.finish()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod facade;
mod registry;

pub use facade::{Collector, CollectorBuilder};
pub use registry::{AlgorithmKind, MonitorBuilder};

// Re-exported so registry users name budgets, sinks, instruments, query
// plans and metrics registries without a direct hashflow-monitor /
// hashflow-query / hashflow-obs dependency.
pub use hashflow_monitor::{
    EpochSnapshot, FlowMonitor, Instruments, JsonLinesSink, MemoryBudget, MemorySink, RecordSink,
};
pub use hashflow_obs::{MetricsRegistry, MetricsSnapshot};
pub use hashflow_query::{QueryId, QueryPlan, QueryResult};
pub use netflow_export::NetFlowV5Sink;
