//! HashFlow: the paper's primary contribution.
//!
//! HashFlow (Zhao et al., ICDCS 2019) collects flow records with two
//! cooperating structures (§III-A):
//!
//! * a **main table** `M` holding exact `(flow ID, count)` records, probed
//!   with `d` hash functions (the paper's are independent; here they and
//!   the ancillary table's `g_1` are derived from one pair of hashes by
//!   double hashing, see [`MainTable`]) under a *non-evicting* collision
//!   resolution strategy — a record, once placed, is never split or displaced
//!   by the resolution procedure, so every main-table record is accurate;
//! * an **ancillary table** `A` holding `(digest, count)` summaries for the
//!   flows that could not be placed, with an aggressive replace-on-collision
//!   policy and a **record promotion** rule: when a flow's ancillary count
//!   reaches the smallest count among the main-table records it collided
//!   with (the *sentinel*), the flow is promoted into the main table,
//!   evicting the sentinel.
//!
//! The main table comes in two variants (§III-A/§III-B): a single
//! [`scheme::TableScheme::MultiHash`] table probed with `d` functions, and
//! [`scheme::TableScheme::Pipelined`] sub-tables with geometrically
//! decreasing sizes (weight `α`). The paper's analytical utilization model
//! for both variants (Equations 1–5) is implemented in [`model`].
//!
//! # Quick start
//!
//! ```
//! use hashflow_core::{HashFlow, HashFlowConfig};
//! use hashflow_monitor::{FlowMonitor, MemoryBudget};
//! use hashflow_types::{FlowKey, Packet};
//!
//! // The paper's default: d = 3 pipelined sub-tables, alpha = 0.7, and an
//! // ancillary table with the same number of cells as the main table.
//! let config = HashFlowConfig::with_memory(MemoryBudget::from_kib(64)?)?;
//! let mut hf = HashFlow::new(config)?;
//!
//! for i in 0..1000u64 {
//!     hf.process_packet(&Packet::new(FlowKey::from_index(i % 100), i, 64));
//! }
//!
//! assert_eq!(hf.estimate_size(&FlowKey::from_index(0)), 10);
//! assert_eq!(hf.flow_records().len(), 100);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod ancillary;
mod config;
pub mod model;
mod probes;
pub mod scheme;

pub use algorithm::{HashFlow, PREFETCH_AHEAD};
pub use ancillary::AncillaryTable;
pub use config::{
    HashFlowConfig, HashFlowConfigBuilder, DEFAULT_ALPHA, DEFAULT_ANCILLARY_COUNTER_BITS,
    DEFAULT_DEPTH, DEFAULT_DIGEST_BITS,
};
pub use scheme::{MainTable, TableScheme};
