//! Shared helpers for the criterion micro-benchmarks.
//!
//! The benches time the primitives the paper's per-packet cost is built
//! from, on native hardware:
//!
//! * `hashing` — the three hash-function implementations on 13-byte keys,
//!   and the lane kernel that hashes a whole batch;
//! * `flowradar_decode` — decode cost below and above the decode cliff;
//! * `table_schemes` — multi-hash vs pipelined main-table probes
//!   (the design ablation of Fig. 2/5);
//! * `query_latency` — per-flow size queries for each algorithm.
//!
//! Whole-pipeline ingest rates (Fig. 11's native column, scalar vs
//! batched, shard scaling) are experiment exhibits, not benches:
//! `cargo run -p experiments --bin fig11_throughput|hotpath|scaling_shards`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hashflow_collector::{AlgorithmKind, MonitorBuilder};
use hashflow_monitor::{FlowMonitor, MemoryBudget};
use hashflow_trace::{Trace, TraceGenerator, TraceProfile};

/// Benchmark memory budget: 256 KiB keeps construction cheap while
/// preserving realistic table sizes (~15K records).
pub fn bench_budget() -> MemoryBudget {
    MemoryBudget::from_kib(256).expect("positive budget")
}

/// A benchmark trace: `flows` flows of the given profile, fixed seed.
pub fn bench_trace(profile: TraceProfile, flows: usize) -> Trace {
    TraceGenerator::new(profile, 0xbe7c).generate(flows)
}

/// The four comparison algorithms at the benchmark budget, built through
/// the registry (the workspace's single construction path).
pub fn bench_monitors() -> Vec<(&'static str, Box<dyn FlowMonitor + Send>)> {
    let budget = bench_budget();
    AlgorithmKind::COMPARISON
        .into_iter()
        .map(|kind| {
            let monitor = MonitorBuilder::new(kind)
                .budget(budget)
                .build()
                .expect("bench budget fits every algorithm");
            (monitor.name(), monitor)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_construct() {
        assert_eq!(bench_monitors().len(), 4);
        assert_eq!(bench_trace(TraceProfile::Isp2, 100).flow_count(), 100);
    }
}
