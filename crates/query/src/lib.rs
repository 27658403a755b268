//! Declarative telemetry queries over the collector pipeline.
//!
//! The paper evaluates HashFlow through four fixed applications (flow
//! records, size estimation, heavy hitters, cardinality — §IV). A
//! production collector serves arbitrary operator questions; this crate
//! turns the pipeline into a general telemetry engine with Sonata-style
//! declarative query plans:
//!
//! ```text
//! filter proto=6 | map dst | distinct src | reduce count | threshold 40
//! ```
//!
//! * [`QueryPlan`] — the validated plan IR
//!   (`filter* → map → distinct? → reduce → threshold?`), built with a
//!   typed [builder](QueryPlan::builder) or parsed from the compact text
//!   form above.
//! * [`execute`] / [`execute_snapshot`] — the one executor, over flow
//!   record reports and sealed
//!   [`EpochSnapshot`](hashflow_monitor::EpochSnapshot)s.
//!   The `Collector` (`hashflow-collector`) runs it over every epoch it
//!   seals, for each plan attached to it, so plans ride every ingestion
//!   path (scalar, batched, planned, sharded) at no per-packet cost.
//! * [`TelemetryApp`] — the built-in application library (superspreader,
//!   DDoS victim, port scan, heavy changer, flow-size entropy) as plans
//!   plus cross-epoch state.
//!
//! An answer is exact for the record report it is computed from. Over an
//! exact-mode monitor that report is the true flow multiset
//! (`tests/query_equivalence.rs` checks this against an independent
//! oracle over the raw packets); over an approximate monitor the answer
//! inherits the monitor's record-report error — the trade-off the
//! `queryapps` experiment quantifies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apps;
mod exec;
mod parse;
mod plan;

pub use apps::{shannon_entropy_bits, AppKind, AppVerdict, TelemetryApp};
pub use exec::{execute, execute_snapshot, QueryId, QueryResult, QueryRow};
pub use plan::{Aggregate, CmpOp, Field, PlanBuilder, PlanOp, Predicate, Projection, QueryPlan};

// Doctests name error types from the types crate; re-export it so
// downstream examples need only this crate.
pub use hashflow_types;
