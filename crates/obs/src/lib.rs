//! Runtime self-telemetry for the collector pipeline.
//!
//! This crate is the *runtime* counterpart of `hashflow-metrics` (which
//! scores measurement **accuracy**: ARE, FSC, F1). It answers the
//! operational questions a continuously-running collector gets asked —
//! how many packets and bytes were ingested, how long epoch seals and
//! sink exports take, how deep the shard queues run, what was dropped —
//! without perturbing the hot path it observes:
//!
//! * [`Counter`] / [`Gauge`] — one relaxed atomic read-modify-write per
//!   update, cloneable handles over shared state;
//! * [`Histogram`] — fixed-array log2 buckets, lock-free, fed directly
//!   or via the [`ScopedTimer`] drop guard;
//! * [`MetricsRegistry`] — label-aware get-or-create registration; the
//!   lock guards registration only, never the update path;
//! * [`MetricsSnapshot`] — a point-in-time capture rendered as
//!   Prometheus text ([`MetricsSnapshot::to_prometheus`]) or JSONL
//!   ([`MetricsSnapshot::to_jsonl`]); both formats read the same
//!   snapshot, so they can never disagree;
//! * [`FlightRecorder`] — a bounded overwrite-oldest ring of structured
//!   [`Event`]s (the *what happened, in what order* counterpart of the
//!   metrics above), with automatic JSONL dumps on fault transitions.
//!
//! The crate is dependency-free (std only) and sits below every pipeline
//! crate, so any stage — monitor, shard, rotator, sink, query, CLI — can
//! be instrumented without dependency cycles.
//!
//! # Examples
//!
//! ```
//! use hashflow_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let packets = registry.counter("ingest_packets_total", &[]);
//! let seal_ns = registry.histogram("seal_ns", &[]);
//!
//! packets.add(256);
//! {
//!     let _timer = seal_ns.start_timer();
//!     // ... seal an epoch ...
//! }
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("ingest_packets_total", &[]), Some(256));
//! println!("{}", snapshot.to_prometheus());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod expose;
pub mod json;
mod metric;
mod registry;

pub use event::{Event, FlightRecorder, Severity, DEFAULT_RECORDER_CAPACITY};
pub use metric::{Counter, Gauge, Histogram, ScopedTimer, HISTOGRAM_BUCKETS};
pub use registry::{
    HistogramSnapshot, LabelSet, MetricSample, MetricsRegistry, MetricsSnapshot, SampleValue,
};
