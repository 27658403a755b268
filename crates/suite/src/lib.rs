//! One-stop facade for the HashFlow reproduction.
//!
//! Re-exports the public API of every workspace crate under stable module
//! names, so downstream users depend on a single crate:
//!
//! ```
//! use hashflow_suite::prelude::*;
//!
//! let trace = TraceGenerator::new(TraceProfile::Caida, 1).generate(1_000);
//! let mut hf = HashFlow::with_memory(MemoryBudget::from_kib(64)?)?;
//! let report = evaluate(&mut hf, &trace, &[100]);
//! assert!(report.fsc > 0.9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The workspace-level `examples/` directory (run via
//! `cargo run -p hashflow-suite --example quickstart`) and `tests/`
//! integration suite are hosted by this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use elastic_sketch;
pub use flowradar;
pub use hashflow_collector as collector;
pub use hashflow_core as core;
pub use hashflow_hashing as hashing;
pub use hashflow_metrics as metrics;
pub use hashflow_monitor as monitor;
pub use hashflow_obs as obs;
pub use hashflow_primitives as primitives;
pub use hashflow_query as query;
pub use hashflow_shard as shard;
pub use hashflow_sketches as sketches;
pub use hashflow_trace as trace;
pub use hashflow_types as types;
pub use hashpipe;
pub use netflow_export;
pub use sampled_netflow;

/// The names most programs need, in one import.
pub mod prelude {
    pub use elastic_sketch::{BasicElasticSketch, ElasticSketch};
    pub use flowradar::FlowRadar;
    pub use hashflow_collector::{
        AlgorithmKind, Collector, MetricsRegistry, MetricsSnapshot, MonitorBuilder,
    };
    pub use hashflow_core::{model, HashFlow, HashFlowConfig, TableScheme};
    pub use hashflow_metrics::{evaluate, EvaluationReport, GroundTruth};
    pub use hashflow_monitor::{
        CostSnapshot, EpochReport, EpochRotator, EpochSnapshot, FlowMonitor, Instruments,
        JsonLinesSink, MemoryBudget, MemorySink, RecordSink,
    };
    pub use hashflow_query::{
        execute, execute_snapshot, Aggregate, AppKind, Predicate, Projection, QueryPlan,
        QueryResult, TelemetryApp,
    };
    pub use hashflow_shard::ShardedMonitor;
    pub use hashflow_sketches::{
        BeauCoupMonitor, CountMinMonitor, ExactBaselineMonitor, FcmMonitor,
    };
    pub use hashflow_trace::{
        Trace, TraceGenerator, TraceProfile, TraceRegime, ALL_PROFILES, REGIME_MATRIX,
    };
    pub use hashflow_types::{FlowKey, FlowRecord, Ipv4Addr, Packet};
    pub use hashpipe::HashPipe;
    pub use netflow_export::NetFlowV5Sink;
    pub use sampled_netflow::SampledNetFlow;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_names_resolve() {
        use crate::prelude::*;
        let _ = TraceProfile::Caida;
        let _ = MemoryBudget::from_kib(1).unwrap();
        fn assert_monitor<T: FlowMonitor>() {}
        assert_monitor::<HashFlow>();
        assert_monitor::<HashPipe>();
        assert_monitor::<ElasticSketch>();
        assert_monitor::<FlowRadar>();
        assert_monitor::<SampledNetFlow>();
        assert_monitor::<CountMinMonitor>();
        assert_monitor::<FcmMonitor>();
        assert_monitor::<BeauCoupMonitor>();
        assert_monitor::<ExactBaselineMonitor>();
        assert_monitor::<ShardedMonitor<HashFlow>>();
    }
}
