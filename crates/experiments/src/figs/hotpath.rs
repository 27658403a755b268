//! Beyond the paper: scalar vs batched single-core ingestion.
//!
//! The paper's efficiency claim (Fig. 11) is about *algorithmic* cost —
//! 1–4 hashes and at most 6 memory accesses per packet. This exhibit
//! measures what handing a monitor **whole batches** buys on top of
//! that, at equal algorithmic cost. HashFlow has one ingestion step; a
//! batch lets it build every packet's probe plan lane by lane (one
//! vectorised loop per hash member over the whole batch), prefetch each
//! plan's cells a few packets ahead of the step, and flush operation
//! counts once — a packet on its own gets the same step with nothing to
//! look ahead to. (FlowRadar still has a scalar and a batched
//! implementation.) Recorded `CostSnapshot`s are identical either way by
//! contract (the exhibit asserts it), so the speedup is pure schedule:
//! warm cache lines and amortized bookkeeping.
//!
//! Two workload tiers on the CAIDA profile:
//!
//! * `paper` — the §IV-A setup: 1 MB budget, 100 K flows. The main table
//!   mostly fits in L2, so batching pays mainly through lane-major
//!   hashing and amortized cost accounting.
//! * `production` — 8x the budget and flows (the ROADMAP's
//!   production-scale direction). The main table is several times larger
//!   than L2, every probe is a cache miss on the scalar path, and the
//!   prefetch window does the heavy lifting.
//!
//! A second table, `hotpath_flowradar_decode`, prices the collector-side
//! work FlowRadar defers (§II): its peeling decode at the `paper` budget,
//! loaded at [`DECODE_LOADS`] flows per counting cell. With three hashes
//! per flow the peel stops working near 0.82 flows per cell: recovery is
//! whole below that load and collapses above it, and the decode time
//! peaks at the cliff, then falls past it as the peel stops early.
//!
//! The run's record is `BENCH_hotpath.json` (`rows` and `decode_rows`).
//! Its stamp names the CPU and which compiled copy of the lane kernel
//! pass 1 ran through (`baseline` or `avx512`): the batched rate depends
//! on it.

use crate::bench::{best_of, kpps, timed_replay, Bench};
use crate::output::{Cell, Output, Table};
use crate::{setup, RunConfig};
use flowradar::FlowRadar;
use hashflow_core::{HashFlow, HashFlowConfig, TableScheme};
use hashflow_monitor::{FlowMonitor, MemoryBudget};
use hashflow_trace::TraceProfile;
use hashflow_types::{FlowKey, Packet};
use std::time::Instant;

/// Timed trials per row; each path keeps its fastest ([`best_of`]).
pub const TRIALS: usize = 3;

/// FlowRadar loads of the decode table, in flows per counting cell:
/// well below the peeling threshold, just below it, just past it, and
/// far past it.
pub const DECODE_LOADS: [f64; 4] = [0.5, 0.8, 0.85, 2.0];

/// One scalar-vs-batched measurement.
#[derive(Debug, Clone)]
pub struct HotpathRow {
    /// Workload tier (`paper` or `production`).
    pub workload: &'static str,
    /// Monitor under test.
    pub monitor: &'static str,
    /// Main-table scheme label (empty for non-HashFlow monitors).
    pub scheme: String,
    /// Memory budget in bytes.
    pub budget_bytes: usize,
    /// Distinct flows in the trace.
    pub flows: usize,
    /// Packets replayed.
    pub packets: u64,
    /// Scalar per-packet ingest rate (Kpps, best of [`TRIALS`]).
    pub scalar_kpps: f64,
    /// Batched ingest rate (Kpps, best of [`TRIALS`]).
    pub batched_kpps: f64,
}

impl HotpathRow {
    /// Batched over scalar throughput.
    pub fn speedup(&self) -> f64 {
        self.batched_kpps / self.scalar_kpps
    }
}

fn hashflow_with(budget: MemoryBudget, scheme: TableScheme) -> HashFlow {
    let config = HashFlowConfig::with_memory(budget)
        .expect("exhibit budget fits HashFlow")
        .rebuild()
        .scheme(scheme)
        .build()
        .expect("scheme variant fits the same budget");
    HashFlow::new(config).expect("valid config")
}

fn measure(
    workload: &'static str,
    monitor: &mut (impl FlowMonitor + ?Sized),
    scheme: String,
    budget: MemoryBudget,
    flows: usize,
    trace: &hashflow_trace::Trace,
) -> HotpathRow {
    let mut costs = None;
    let [scalar_ns, batched_ns] = best_of(TRIALS, || {
        let (scalar_ns, scalar) = timed_replay(monitor, trace, |m, packets| {
            for p in packets {
                m.process_packet(p);
            }
        });
        let (batched_ns, batched) = timed_replay(monitor, trace, |m, p| m.process_trace(p));
        // The process_batch contract, enforced at measurement time:
        // batching may change the schedule, never the recorded costs.
        assert_eq!(
            scalar,
            batched,
            "{}: batched cost diverged from scalar",
            monitor.name()
        );
        costs = Some(scalar);
        [scalar_ns, batched_ns]
    });
    let packets = costs.expect("at least one trial").packets;
    HotpathRow {
        workload,
        monitor: monitor.name(),
        scheme,
        budget_bytes: budget.bytes(),
        flows,
        packets,
        scalar_kpps: kpps(packets, scalar_ns),
        batched_kpps: kpps(packets, batched_ns),
    }
}

/// FlowRadar at `budget`, loaded with one packet per flow at each of
/// [`DECODE_LOADS`]: its decode time (best of [`TRIALS`], each on a fresh
/// clone, the clone outside the clock) and the share of flows the decode
/// recovers.
fn decode_table(budget: MemoryBudget) -> Table {
    let mut table = Table::new(
        "hotpath_flowradar_decode",
        &[
            "budget_bytes",
            "cells",
            "load",
            "flows",
            "decode_ms",
            "recovered",
        ],
    );
    for load in DECODE_LOADS {
        let mut fr = FlowRadar::with_memory(budget).expect("exhibit budget fits FlowRadar");
        let cells = fr.counting_cells();
        let flows = (cells as f64 * load).round() as usize;
        let packets: Vec<Packet> = (0..flows as u64)
            .map(|i| Packet::new(FlowKey::from_index(i), 0, 64))
            .collect();
        fr.process_trace(&packets);
        // `fr` itself decodes only after the trials, so no clone starts
        // with a cached decode; the map drops after the clock stops.
        let [decode_ns] = best_of(TRIALS, || {
            let fresh = fr.clone();
            let start = Instant::now();
            let _decoded = std::hint::black_box(fresh.decode());
            [start.elapsed().as_nanos()]
        });
        table.push_row(vec![
            Cell::from(budget.bytes()),
            Cell::from(cells),
            Cell::Float(load),
            Cell::from(flows),
            Cell::Float(decode_ns as f64 / 1e6),
            Cell::Float(fr.decode_success_ratio(flows)),
        ]);
    }
    table
}

/// Runs the scalar-vs-batched sweep on the CAIDA profile, then the
/// FlowRadar decode table at the `paper` budget.
pub fn run(cfg: &RunConfig) -> Output {
    let paper_budget = setup::standard_budget(cfg);
    let production_budget =
        MemoryBudget::from_bytes(paper_budget.bytes() * 8).expect("8x standard budget is positive");
    let paper_flows = cfg.scaled(100_000, 2_000);
    let production_flows = cfg.scaled(800_000, 4_000);

    let mut rows: Vec<HotpathRow> = Vec::new();
    for (workload, budget, flows) in [
        ("paper", paper_budget, paper_flows),
        ("production", production_budget, production_flows),
    ] {
        let trace = setup::trace_for(cfg, TraceProfile::Caida, flows);
        for scheme in [
            TableScheme::Pipelined {
                depth: 3,
                alpha: 0.7,
            },
            TableScheme::MultiHash { depth: 3 },
        ] {
            let mut hf = hashflow_with(budget, scheme);
            rows.push(measure(
                workload,
                &mut hf,
                scheme.to_string(),
                budget,
                flows,
                &trace,
            ));
        }
        let mut fr =
            flowradar::FlowRadar::with_memory(budget).expect("exhibit budget fits FlowRadar");
        rows.push(measure(
            workload,
            &mut fr,
            String::new(),
            budget,
            flows,
            &trace,
        ));
    }

    let mut table = Table::new(
        "hotpath",
        &[
            "trace",
            "workload",
            "monitor",
            "scheme",
            "budget_bytes",
            "flows",
            "packets",
            "scalar_kpps",
            "batched_kpps",
            "speedup",
        ],
    );
    for row in &rows {
        table.push_row(vec![
            Cell::from("CAIDA"),
            Cell::from(row.workload),
            Cell::from(row.monitor),
            Cell::from(row.scheme.clone()),
            Cell::from(row.budget_bytes),
            Cell::from(row.flows),
            Cell::from(row.packets),
            Cell::Float(row.scalar_kpps),
            Cell::Float(row.batched_kpps),
            Cell::Float(row.speedup()),
        ]);
    }

    let decode = decode_table(paper_budget);

    Output {
        bench: Some(
            Bench::new("hotpath", cfg, TRIALS)
                .table("rows", &table)
                .table("decode_rows", &decode),
        ),
        tables: vec![table, decode],
        violations: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_emits_rows_and_json() {
        let out = run(&RunConfig::for_tests(0.02));
        // 2 workloads x (2 HashFlow schemes + FlowRadar).
        assert_eq!(out.tables[0].len(), 6);
        for row in out.tables[0].rows() {
            if let Cell::Float(speedup) = &row[9] {
                assert!(*speedup > 0.0, "speedup must be positive");
            } else {
                panic!("speedup column must be a float");
            }
        }
        let json = out.bench.expect("hotpath writes a record").render();
        assert!(json.contains("\"exhibit\": \"hotpath\""));
        assert!(json.contains("\"kernel_copy\": \"") && json.contains("\"cpu\": \""));
        assert!(json.contains("\"workload\":\"production\""));
        assert_eq!(json.matches("\"batched_kpps\":").count(), 6);
        assert!(json.contains("\"decode_rows\": ["));
        assert_eq!(json.matches("\"decode_ms\":").count(), DECODE_LOADS.len());
    }

    #[test]
    fn decode_table_straddles_the_cliff() {
        let budget = setup::standard_budget(&RunConfig::for_tests(0.02));
        let table = decode_table(budget);
        assert_eq!(table.name(), "hotpath_flowradar_decode");
        assert_eq!(
            table.headers(),
            [
                "budget_bytes",
                "cells",
                "load",
                "flows",
                "decode_ms",
                "recovered"
            ]
        );
        let float = |cell: &Cell| match cell {
            Cell::Float(v) => *v,
            other => panic!("expected a float, got {other:?}"),
        };
        let loads: Vec<f64> = table.rows().iter().map(|row| float(&row[2])).collect();
        assert_eq!(loads, DECODE_LOADS);
        for row in table.rows() {
            assert!(float(&row[4]) >= 0.0, "decode time unmeasured");
        }
        let recovered = |i: usize| float(&table.rows()[i][5]);
        assert!(recovered(0) >= 0.999, "underloaded: {}", recovered(0));
        assert!(recovered(3) <= 0.1, "overloaded: {}", recovered(3));
    }

    #[test]
    fn batched_path_is_no_slower_at_scale() {
        // The committed BENCH_hotpath.json carries the full-scale
        // release-mode claim (>= 1.5x on the production tier); in debug
        // or scaled-down smoke runs only a sanity floor is enforced.
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
        assert_eq!(hashflow_speedups.len(), 4);
        for s in hashflow_speedups {
            if cfg!(debug_assertions) {
                // Unoptimized builds invert the comparison (the batched
                // path's abstractions cost more than they save without
                // inlining) and a contended runner adds noise on top;
                // only require a sane measurement there. The speedup
                // claim is about the release artifact.
                assert!(s > 0.0, "batched HashFlow ingest unmeasured: {s}");
            } else {
                assert!(s > 0.8, "batched HashFlow ingest regressed: {s}");
            }
        }
    }
}
