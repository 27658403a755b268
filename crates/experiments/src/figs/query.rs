//! Beyond the paper: live full-sort queries vs the sealed-snapshot query
//! engine.
//!
//! Before the collector pipeline API, every top-k question went through
//! `FlowMonitor::heavy_hitters` — walk the tables into a fresh `Vec`,
//! sort *all* records, truncate — and every size question was a
//! single-key virtual call that re-probed the live tables. The sealed
//! path amortizes the table walk into one `seal()` and then answers from
//! the immutable snapshot: `top_k` with a bounded heap (O(n log k)
//! instead of O(n log n), no re-walk), `estimate_sizes` with one batched
//! pass over the snapshot's compact index. That index is built by the
//! first size query on the sealed epoch, not by the seal, so the two are
//! reported apart: `seal_ms` and `index_build_ms`.
//!
//! Two workload tiers on the CAIDA profile, mirroring the `hotpath`
//! exhibit: `paper` (1 MB, 100 K flows) and `production` (8x both — the
//! tier the ROADMAP's production-scale direction cares about, where the
//! record store is far larger than L2 and the full sort hurts).
//!
//! The run's record is `BENCH_query.json`.

use crate::bench::{best_of, Bench};
use crate::output::{Cell, Output, Table};
use crate::{setup, RunConfig};
use hashflow_collector::{AlgorithmKind, MonitorBuilder};
use hashflow_monitor::{EpochSnapshot, FlowMonitor, MemoryBudget};
use hashflow_trace::TraceProfile;
use std::time::Instant;

/// Timed trials per query loop; each keeps its fastest ([`best_of`]).
pub const TRIALS: usize = 3;

/// Queries per timed loop (amortizes clock overhead).
const QUERIES: usize = 5;

/// Top-k size: a dashboard-scale ranking, far below the record count.
pub const TOP_K: usize = 100;

/// One live-vs-sealed query measurement.
#[derive(Debug, Clone)]
pub struct QueryRow {
    /// Workload tier (`paper` or `production`).
    pub workload: &'static str,
    /// Monitor under test.
    pub monitor: &'static str,
    /// Records in the sealed report.
    pub records: usize,
    /// One-time cost of sealing the epoch (ms): the report copied out
    /// of the tables, nothing hashed.
    pub seal_ms: f64,
    /// One-time cost of the first size query on the fresh snapshot (ms):
    /// it builds the epoch's index. Ranking and scanning never pay it.
    pub index_build_ms: f64,
    /// Per-query cost of the old path: live `heavy_hitters(0)` full sort,
    /// truncated to [`TOP_K`] (ms).
    pub fullsort_topk_ms: f64,
    /// Per-query cost of `EpochSnapshot::top_k(TOP_K)` (ms).
    pub snapshot_topk_ms: f64,
    /// Size-estimation batch size (keys per query).
    pub keys: usize,
    /// Per-batch cost of the old path: one live `estimate_size` call per
    /// key (ms).
    pub live_single_key_ms: f64,
    /// Per-batch cost of `EpochSnapshot::estimate_sizes` once the index
    /// exists (ms).
    pub snapshot_batched_ms: f64,
}

impl QueryRow {
    /// Full-sort over bounded-heap top-k speedup.
    pub fn topk_speedup(&self) -> f64 {
        self.fullsort_topk_ms / self.snapshot_topk_ms
    }

    /// Single-key-loop over batched estimation speedup.
    pub fn estimate_speedup(&self) -> f64 {
        self.live_single_key_ms / self.snapshot_batched_ms
    }
}

/// Times `f` run [`QUERIES`] times, in ms per query, best of [`TRIALS`].
fn time_query<T>(mut f: impl FnMut() -> T) -> f64 {
    let [ns] = best_of(TRIALS, || {
        let start = Instant::now();
        for _ in 0..QUERIES {
            std::hint::black_box(f());
        }
        [start.elapsed().as_nanos()]
    });
    ns as f64 / 1e6 / QUERIES as f64
}

fn measure(
    workload: &'static str,
    monitor: &mut (dyn FlowMonitor + Send),
    keys: &[hashflow_types::FlowKey],
) -> QueryRow {
    // The old top-k path: every query walks the live tables and sorts the
    // whole report (heavy_hitters(0) is the full ranking), then truncates.
    let fullsort_topk_ms = time_query(|| {
        let mut hh = monitor.heavy_hitters(0);
        hh.truncate(TOP_K);
        hh
    });
    // The old size path: one virtual table probe per key.
    let live_single_key_ms = time_query(|| {
        keys.iter()
            .map(|k| monitor.estimate_size(k))
            .collect::<Vec<u32>>()
    });

    // Seal once (timed), query the immutable snapshot many times.
    let start = Instant::now();
    let snapshot = EpochSnapshot::capture(&*monitor);
    let seal_ms = start.elapsed().as_secs_f64() * 1e3;
    let snapshot_topk_ms = time_query(|| snapshot.top_k(TOP_K));
    // The first lookup on the fresh snapshot builds its index; timed on
    // its own so the batches below measure lookups only.
    let start = Instant::now();
    std::hint::black_box(keys.first().map(|key| snapshot.estimate_size(key)));
    let index_build_ms = start.elapsed().as_secs_f64() * 1e3;
    let snapshot_batched_ms = time_query(|| snapshot.estimate_sizes(keys));

    QueryRow {
        workload,
        monitor: monitor.name(),
        records: snapshot.len(),
        seal_ms,
        index_build_ms,
        fullsort_topk_ms,
        snapshot_topk_ms,
        keys: keys.len(),
        live_single_key_ms,
        snapshot_batched_ms,
    }
}

/// Runs the live-vs-sealed query sweep on the CAIDA profile.
pub fn run(cfg: &RunConfig) -> Output {
    let paper_budget = setup::standard_budget(cfg);
    let production_budget =
        MemoryBudget::from_bytes(paper_budget.bytes() * 8).expect("8x standard budget is positive");
    let paper_flows = cfg.scaled(100_000, 2_000);
    let production_flows = cfg.scaled(800_000, 4_000);

    let mut rows: Vec<QueryRow> = Vec::new();
    for (workload, budget, flows) in [
        ("paper", paper_budget, paper_flows),
        ("production", production_budget, production_flows),
    ] {
        let trace = setup::trace_for(cfg, TraceProfile::Caida, flows);
        // A watchlist-style query batch: every 8th flow of the universe
        // (reported and unreported keys both included).
        let keys: Vec<hashflow_types::FlowKey> = trace
            .ground_truth()
            .iter()
            .step_by(8)
            .map(|r| r.key())
            .collect();
        for kind in [AlgorithmKind::HashFlow, AlgorithmKind::FlowRadar] {
            let mut monitor = MonitorBuilder::new(kind)
                .budget(budget)
                .build()
                .expect("exhibit budget fits");
            monitor.process_trace(trace.packets());
            rows.push(measure(workload, monitor.as_mut(), &keys));
        }
    }

    let mut table = Table::new(
        "query",
        &[
            "trace",
            "workload",
            "monitor",
            "records",
            "keys",
            "seal_ms",
            "index_build_ms",
            "fullsort_topk_ms",
            "snapshot_topk_ms",
            "topk_speedup",
            "live_single_key_ms",
            "snapshot_batched_ms",
            "estimate_speedup",
        ],
    );
    for row in &rows {
        table.push_row(vec![
            Cell::from("CAIDA"),
            Cell::from(row.workload),
            Cell::from(row.monitor),
            Cell::from(row.records),
            Cell::from(row.keys),
            Cell::Float(row.seal_ms),
            Cell::Float(row.index_build_ms),
            Cell::Float(row.fullsort_topk_ms),
            Cell::Float(row.snapshot_topk_ms),
            Cell::Float(row.topk_speedup()),
            Cell::Float(row.live_single_key_ms),
            Cell::Float(row.snapshot_batched_ms),
            Cell::Float(row.estimate_speedup()),
        ]);
    }

    let bench = Bench::new("query", cfg, TRIALS)
        .field("top_k", TOP_K)
        .table("rows", &table);
    Output {
        tables: vec![table],
        bench: Some(bench),
        violations: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_emits_rows_and_json() {
        let out = run(&RunConfig::for_tests(0.02));
        // 2 workloads x 2 monitors.
        assert_eq!(out.tables[0].len(), 4);
        let json = out.bench.expect("query writes a record").render();
        assert!(json.contains("\"exhibit\": \"query\""));
        assert!(json.contains("\"workload\":\"production\""));
        assert!(json.contains("topk_speedup"));
        assert_eq!(json.matches("\"index_build_ms\":").count(), 4);
    }

    #[test]
    fn snapshot_topk_is_no_slower_at_scale() {
        // The committed BENCH_query.json carries the full-scale
        // release-mode claim (snapshot top-k beats the full sort on the
        // CAIDA production tier); scaled-down smoke runs only enforce a
        // sanity floor, and only for HashFlow, whose record store is
        // large enough for the asymptotics to matter — FlowRadar's report
        // shrinks to a few hundred records at paper scale, where sorting
        // everything and a bounded heap cost the same handful of
        // microseconds either way.
        let tables = run(&RunConfig::for_tests(0.05)).tables;
        let hashflow_speedups: Vec<f64> = tables[0]
            .rows()
            .iter()
            .filter(|row| matches!(&row[2], Cell::Text(t) if t == "HashFlow"))
            .filter_map(|row| match &row[9] {
                Cell::Float(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(hashflow_speedups.len(), 2);
        for s in hashflow_speedups {
            if cfg!(debug_assertions) {
                assert!(s > 0.0, "unmeasured top-k query: {s}");
            } else {
                assert!(s > 0.8, "snapshot top-k regressed: {s}");
            }
        }
    }
}
