//! Substrate data structures the flow-measurement algorithms are built on.
//!
//! The paper's baselines depend on three classic probabilistic structures,
//! all reimplemented here from their original papers:
//!
//! * [`BloomFilter`] — FlowRadar's new-flow gate (Bloom, CACM 1970);
//! * [`CountMinSketch`] — ElasticSketch's "light part" (Cormode &
//!   Muthukrishnan, J. Algorithms 2005);
//! * [`LinearCounter`] — the cardinality estimator ElasticSketch and
//!   HashFlow use (Whang et al., TODS 1990).
//!
//! Plus two building blocks: a compact [`BitVec`] and a [`CounterArray`] of
//! configurable-width saturating counters (the 8-bit counters of
//! ElasticSketch's light part and HashFlow's ancillary table).
//!
//! # Examples
//!
//! ```
//! use hashflow_primitives::BloomFilter;
//! use hashflow_types::FlowKey;
//!
//! let mut bf = BloomFilter::new(1024, 4, 7)?;
//! let key = FlowKey::from_index(1);
//! assert!(!bf.contains(&key));
//! bf.insert(&key);
//! assert!(bf.contains(&key));
//! # Ok::<(), hashflow_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitvec;
mod bloom;
mod count_min;
mod counters;
mod linear;

pub use bitvec::BitVec;
pub use bloom::BloomFilter;
pub use count_min::CountMinSketch;
pub use counters::CounterArray;
pub use linear::{linear_counting_estimate, LinearCounter};
