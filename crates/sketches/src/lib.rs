//! The extended sketch zoo for the §IV accuracy comparison: baselines the
//! related multi-stage-telemetry literature measures against, ported onto
//! this workspace's [`FlowMonitor`](hashflow_monitor::FlowMonitor) /
//! [`MergeableMonitor`](hashflow_monitor::MergeableMonitor) contract so every
//! registry consumer (CLI, sharding, batching, epoch snapshots, sinks,
//! query plans) runs them with zero extra wiring.
//!
//! * [`CountMinMonitor`] — the textbook Count-Min sketch (Cormode &
//!   Muthukrishnan, 2005) as an *estimate-only* monitor: point queries
//!   never underestimate, but no flow keys are retained, so the record
//!   report is empty by design.
//! * [`FcmMonitor`] — the two-layer escalating-counter FCM sketch
//!   (SIGCOMM'21): narrow first-layer counters absorb the mice, overflow
//!   escalates into wide second-layer counters shared 8-to-1.
//! * [`BeauCoupMonitor`] — BeauCoup's coupon-collector design
//!   (SIGCOMM'20), specialized to per-flow packet counting: each packet
//!   draws at most one of `m` coupons per tracked key, and the collected
//!   coupon count inverts to a size estimate with O(1) memory accesses
//!   per packet.
//! * [`ExactBaselineMonitor`] — a plain hash map under the same
//!   [`MemoryBudget`](hashflow_monitor::MemoryBudget) accounting: the
//!   ground-truth row of every equal-memory accuracy table (ARE = 0 by
//!   construction).
//!
//! # Examples
//!
//! ```
//! use hashflow_monitor::{FlowMonitor, MemoryBudget};
//! use hashflow_sketches::CountMinMonitor;
//! use hashflow_types::{FlowKey, Packet};
//!
//! let mut cm = CountMinMonitor::with_memory(MemoryBudget::from_kib(64)?)?;
//! cm.process_packet(&Packet::new(FlowKey::from_index(1), 0, 64));
//! assert!(cm.estimate_size(&FlowKey::from_index(1)) >= 1);
//! assert!(cm.flow_records().is_empty(), "estimate-only: no keys kept");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod beaucoup;
mod count_min;
mod exact;
mod fcm;

pub use beaucoup::BeauCoupMonitor;
pub use count_min::CountMinMonitor;
pub use exact::ExactBaselineMonitor;
pub use fcm::FcmMonitor;
