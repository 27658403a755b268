//! Trace tooling: synthetic workloads calibrated to the paper's four
//! evaluation traces, trace statistics, and pcap I/O.
//!
//! The paper evaluates on four packet traces (Table I): a CAIDA backbone
//! trace, a campus-network trace, and two ISP access traces. Those traces
//! are proprietary, so this crate generates *synthetic equivalents*: each
//! [`TraceProfile`] is calibrated so the generated flow-size distribution
//! matches the published per-trace statistics (average and maximum flow
//! size, Table I) and the qualitative CDF shape of Fig. 3 (heavy-tailed:
//! most flows are mice, most packets belong to elephants; ISP2 is a
//! 1:5000-sampled trace where over 99 % of flows have fewer than 5
//! packets).
//!
//! Each profile's Table I tail exponent is tabled, and a unit test checks
//! its bits against [`calibrate_tail_exponent`]'s bisection. Generation
//! writes all packets into one flat vector, flow after flow, then orders
//! it in place or by walking per-flow ranges: no allocation per flow.
//!
//! Everything is deterministic given a seed, so experiments are exactly
//! reproducible; `tests/pinned_traces.rs` pins the output bit for bit.
//!
//! # Examples
//!
//! ```
//! use hashflow_trace::{TraceGenerator, TraceProfile};
//!
//! let trace = TraceGenerator::new(TraceProfile::Caida, 42).generate(1_000);
//! assert_eq!(trace.flow_count(), 1_000);
//! let stats = trace.stats();
//! assert!(stats.avg_flow_size > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversarial;
mod generator;
mod interleave;
mod pcap;
mod powerlaw;
mod profile;
mod stats;

pub use adversarial::{
    collision_bucket_of, TraceRegime, CHURN_SINGLETON_SHARE, COLLISION_BUCKETS, COLLISION_SEED,
    ELEPHANT_PACKET_SHARE, FLOOD_MAX_FLOW_SIZE, REGIME_MATRIX,
};
pub use generator::{Trace, TraceGenerator};
pub use interleave::InterleaveMode;
pub use pcap::{read_pcap, write_pcap, PcapError, PcapReader};
pub use powerlaw::{calibrate_tail_exponent, truncated_power_law_mean, PowerLawSampler};
pub use profile::{TraceProfile, ALL_PROFILES};
pub use stats::{SizeCdf, TraceStats};
