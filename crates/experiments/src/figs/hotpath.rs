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
//! Alongside the CSV table, the run writes `BENCH_hotpath.json` into the
//! output directory (the `hotpath` binary also copies it to the working
//! directory), extending the repository's machine-readable performance
//! trajectory started by `BENCH_shard.json`. The file names the CPU and,
//! beside it, which compiled copy of the lane kernel pass 1 ran through
//! (`baseline` or `avx512`): the batched rate depends on it.

use crate::output::{Cell, Table};
use crate::{setup, RunConfig};
use hashflow_core::{HashFlow, HashFlowConfig, TableScheme};
use hashflow_monitor::{FlowMonitor, MemoryBudget};
use hashflow_trace::TraceProfile;
use simswitch::SoftwareSwitch;
use std::fmt::Write as _;

/// Wall-clock repetitions per path; the fastest is kept (the standard
/// noise-robust estimator for short serial timings).
pub const TRIALS: usize = 3;

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
    let switch = SoftwareSwitch::default();
    let mut scalar_kpps = 0.0f64;
    let mut batched_kpps = 0.0f64;
    let mut costs = None;
    for _ in 0..TRIALS {
        let s = switch.replay_scalar(monitor, trace);
        let b = switch.replay(monitor, trace);
        // The process_batch contract, enforced at measurement time:
        // batching may change the schedule, never the recorded costs.
        assert_eq!(
            s.cost,
            b.cost,
            "{}: batched cost diverged from scalar",
            monitor.name()
        );
        costs = Some(s.cost);
        scalar_kpps = scalar_kpps.max(s.native_pps / 1e3);
        batched_kpps = batched_kpps.max(b.native_pps / 1e3);
    }
    HotpathRow {
        workload,
        monitor: monitor.name(),
        scheme,
        budget_bytes: budget.bytes(),
        flows,
        packets: costs.expect("at least one trial").packets,
        scalar_kpps,
        batched_kpps,
    }
}

/// Runs the scalar-vs-batched sweep on the CAIDA profile.
pub fn run(cfg: &RunConfig) -> Vec<Table> {
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
            Cell::Float(row.scalar_kpps),
            Cell::Float(row.batched_kpps),
            Cell::Float(row.speedup()),
        ]);
    }

    let json = bench_json(&rows);
    let path = cfg.out_dir.join("BENCH_hotpath.json");
    if std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::write(&path, &json))
        .is_err()
    {
        eprintln!("   !! failed to write {}", path.display());
    }

    vec![table]
}

/// The host's CPU model as `/proc/cpuinfo` names it, as a JSON string;
/// `"unknown"` where there is no such file.
fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let line = info.lines().find(|l| l.starts_with("model name"));
    let model = line.and_then(|l| l.split_once(':')).map(|(_, m)| m.trim());
    hashflow_obs::json::string(model.unwrap_or("unknown"))
}

/// Renders the machine-readable summary (hand-rolled flat JSON, like the
/// other `BENCH_*.json` emitters).
fn bench_json(rows: &[HotpathRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"exhibit\": \"hotpath\",");
    let _ = writeln!(out, "  \"profile\": \"CAIDA\",");
    let _ = writeln!(out, "  \"cpu\": {},", cpu_model());
    let copy = hashflow_hashing::KernelCopy::best().name();
    let _ = writeln!(out, "  \"kernel_copy\": \"{copy}\",");
    let _ = writeln!(out, "  \"trials\": {TRIALS},");
    let _ = writeln!(out, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"workload\": \"{}\", \"monitor\": \"{}\", \"scheme\": \"{}\", \
             \"budget_bytes\": {}, \"flows\": {}, \"packets\": {}, \
             \"scalar_kpps\": {:.3}, \"batched_kpps\": {:.3}, \"speedup\": {:.3}}}{comma}",
            r.workload,
            r.monitor,
            r.scheme,
            r.budget_bytes,
            r.flows,
            r.packets,
            r.scalar_kpps,
            r.batched_kpps,
            r.speedup(),
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_emits_rows_and_json() {
        let cfg = RunConfig::for_tests(0.02);
        let tables = run(&cfg);
        // 2 workloads x (2 HashFlow schemes + FlowRadar).
        assert_eq!(tables[0].len(), 6);
        for row in tables[0].rows() {
            if let Cell::Float(speedup) = &row[6] {
                assert!(*speedup > 0.0, "speedup must be positive");
            } else {
                panic!("speedup column must be a float");
            }
        }
        let json = std::fs::read_to_string(cfg.out_dir.join("BENCH_hotpath.json")).unwrap();
        assert!(json.contains("\"exhibit\": \"hotpath\""));
        assert!(json.contains("\"kernel_copy\": \"") && json.contains("\"cpu\": \""));
        assert!(json.contains("\"workload\": \"production\""));
        assert!(json.contains("batched_kpps"));
    }

    #[test]
    fn batched_path_is_no_slower_at_scale() {
        // The committed BENCH_hotpath.json carries the full-scale
        // release-mode claim (>= 1.5x on the production tier); in debug
        // or scaled-down smoke runs only a sanity floor is enforced.
        let cfg = RunConfig::for_tests(0.05);
        let tables = run(&cfg);
        let hashflow_speedups: Vec<f64> = tables[0]
            .rows()
            .iter()
            .filter(|row| matches!(&row[2], Cell::Text(t) if t == "HashFlow"))
            .filter_map(|row| match &row[6] {
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
