//! Beyond the paper: what the observability layer costs on the hot path.
//!
//! Two kinds of instrumentation ride every pipeline stage. A live
//! [`MetricsRegistry`] carries ingest counters and batch histograms in
//! the rotator, per-shard packet counters in the merge layer, per-plan
//! evaluation counters in the query engine. A [`FlightRecorder`] (a
//! bounded event ring) and a [`FlowTracer`] (deterministic 1-in-N flow
//! sampling) leave placement, dispatch and seal spans. Instrumentation a
//! collector cannot afford to leave on gets turned off, so this exhibit
//! prices both on the same monitor, CAIDA trace and production-tier
//! budget. Each trial replays three arms back to back:
//!
//! * `bare` — no instruments;
//! * `metered` — the registry alone;
//! * `traced` — the recorder plus a 1-in-[`SAMPLING`] tracer writing
//!   into it.
//!
//! Three ingest paths, because the accounting strategy differs on each:
//!
//! * `scalar` — one packet at a time through the full collector
//!   pipeline. The rotator amortizes counter traffic behind a local
//!   pending block, so the per-packet cost is a couple of integer adds.
//! * `batched` — the batched hot path; counters flush once per batch.
//! * `sharded4` — a 4-shard [`ShardedMonitor`] on the threaded ingest
//!   path, where the dispatcher and each shard make the sampling check and
//!   each worker owns its shard's counter.
//!
//! Every row also proves its instruments were live: the metered arm's
//! packet counter must read exactly `TRIALS x` the trace's packets (a
//! registry that drops counts under load would be worse than none), and
//! the recorder must hold events (a tracer that recorded nothing measured
//! a no-op).
//!
//! An arm replays at least [`MIN_ARM_PACKETS`] packets per trial — the
//! trace as many times over as that takes — so that it runs for tens of
//! milliseconds at any scale: a scaled-down smoke trace replayed once
//! finishes in a millisecond or two, where a scheduler hiccup alone
//! swings a ratio by ±20 %.
//!
//! The run's record is `BENCH_overhead.json`. [`check`] holds every path
//! to [`METERED_FLOOR`] and [`TRACED_FLOOR`] and the `overhead` binary
//! exits 2 below either — the CI gate. The ≤ 3 % and ≤ 5 % claims are the
//! committed full-scale record's.

use crate::bench::{best_of, kpps, Bench};
use crate::output::{Cell, Output, Table};
use crate::{setup, RunConfig};
use hashflow_collector::{AlgorithmKind, Collector, MetricsRegistry};
use hashflow_core::HashFlow;
use hashflow_monitor::{
    FlowMonitor, FlowTracer, Instruments, MemoryBudget, DEFAULT_TRACE_SAMPLING,
};
use hashflow_obs::FlightRecorder;
use hashflow_shard::ShardedMonitor;
use hashflow_trace::{Trace, TraceProfile};
use simswitch::SoftwareSwitch;

/// Timed trials per row; each arm keeps its fastest ([`best_of`]).
pub const TRIALS: usize = 7;

/// Shard count on the threaded path.
pub const SHARDS: usize = 4;

/// Flow-sampling rate of the traced arm: the production default.
pub const SAMPLING: u64 = DEFAULT_TRACE_SAMPLING;

/// Packets every arm replays per trial, at least: a shorter trace is
/// replayed whole as many times as it takes, the monitor reset before
/// each pass as before a single one. The full-scale trace (≈ 2.5 M
/// packets) is one pass.
pub const MIN_ARM_PACKETS: usize = 1_000_000;

/// Floor on `metered / bare`, on every path.
pub const METERED_FLOOR: f64 = 0.80;

/// Floor on `traced / bare`, on every path.
pub const TRACED_FLOOR: f64 = 0.90;

/// One path's bare, metered and traced throughput.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Ingest path (`scalar`, `batched`, or `sharded4`).
    pub path: &'static str,
    /// Memory budget in bytes.
    pub budget_bytes: usize,
    /// Distinct flows in the trace.
    pub flows: usize,
    /// Packets replayed per trial (`passes` times the trace's).
    pub packets: u64,
    /// Whole-trace replays per trial.
    pub passes: usize,
    /// Throughput with no instruments (Kpps).
    pub bare_kpps: f64,
    /// Throughput with the registry attached (Kpps).
    pub metered_kpps: f64,
    /// Throughput with the recorder and tracer attached (Kpps).
    pub traced_kpps: f64,
    /// Events the recorder held after the traced replays.
    pub events: u64,
}

impl OverheadRow {
    /// Metered over bare throughput; 1.0 = free, 0.97 = a 3 % tax.
    pub fn metered_ratio(&self) -> f64 {
        self.metered_kpps / self.bare_kpps
    }

    /// Traced over bare throughput; 1.0 = free, 0.95 = a 5 % tax.
    pub fn traced_ratio(&self) -> f64 {
        self.traced_kpps / self.bare_kpps
    }
}

/// The sinks one path's instrumented arms write into.
struct Sinks {
    registry: MetricsRegistry,
    recorder: FlightRecorder,
}

impl Sinks {
    fn new() -> Self {
        Sinks {
            registry: MetricsRegistry::new(),
            recorder: FlightRecorder::new(),
        }
    }

    /// The bare, metered and traced arms' instruments, in trial order.
    fn arms(&self) -> [Instruments; 3] {
        [
            Instruments::default(),
            Instruments {
                registry: Some(self.registry.clone()),
                ..Instruments::default()
            },
            Instruments {
                recorder: Some(self.recorder.clone()),
                tracer: Some(FlowTracer::new(self.recorder.clone(), SAMPLING)),
                ..Instruments::default()
            },
        ]
    }

    /// Checks both liveness claims and assembles the row.
    fn row(
        &self,
        path: &'static str,
        budget: MemoryBudget,
        trace: &Trace,
        passes: usize,
        [bare, metered, traced]: [u128; 3],
        counted: u64,
    ) -> OverheadRow {
        let packets = (passes * trace.packets().len()) as u64;
        assert_eq!(
            counted,
            TRIALS as u64 * packets,
            "{path}: the registry lost packets"
        );
        // Any trace of >= SAMPLING flows samples some; the smallest
        // exhibit trace has thousands.
        let events = self.recorder.last_seq();
        let flows = trace.flow_count();
        assert!(
            events > 0 || (flows as u64) < SAMPLING,
            "{path}: the traced arm recorded no events over {flows} flows"
        );
        OverheadRow {
            path,
            budget_bytes: budget.bytes(),
            flows,
            packets,
            passes,
            bare_kpps: kpps(packets, bare),
            metered_kpps: kpps(packets, metered),
            traced_kpps: kpps(packets, traced),
            events,
        }
    }
}

/// Best-of-[`TRIALS`] wall clock of each arm, the arms interleaved
/// within every trial and each trial of an arm `passes` replays.
fn time_arms<M>(arms: &mut [M; 3], passes: usize, replay: impl Fn(&mut M) -> u128) -> [u128; 3] {
    best_of(TRIALS, || {
        arms.each_mut()
            .map(|arm| (0..passes).map(|_| replay(arm)).sum())
    })
}

/// The `scalar` or `batched` path: a HashFlow `Collector` per arm.
fn measure_pipeline(
    path: &'static str,
    batched: bool,
    budget: MemoryBudget,
    trace: &Trace,
    passes: usize,
) -> OverheadRow {
    let sinks = Sinks::new();
    let mut arms = sinks.arms().map(|instruments| {
        Collector::builder(AlgorithmKind::HashFlow)
            .budget(budget)
            .instruments(instruments)
            .build()
            .expect("exhibit budget fits HashFlow")
    });
    let switch = SoftwareSwitch::default();
    let ns = time_arms(&mut arms, passes, |c| {
        let report = if batched {
            switch.replay(c, trace)
        } else {
            switch.replay_scalar(c, trace)
        };
        report.native_elapsed_ns
    });
    // The counter survives the per-trial resets; the snapshot flushes
    // the rotator's pending block first.
    let counted = arms[1]
        .metrics_snapshot()
        .and_then(|s| s.counter("hashflow_ingest_packets_total", &[]))
        .unwrap_or(0);
    sinks.row(path, budget, trace, passes, ns, counted)
}

/// The `sharded4` path: a [`ShardedMonitor`] per arm on threaded ingest.
fn measure_sharded(budget: MemoryBudget, trace: &Trace, passes: usize) -> OverheadRow {
    let sinks = Sinks::new();
    let mut arms = sinks.arms().map(|instruments| {
        let mut monitor =
            ShardedMonitor::with_budget(SHARDS, budget, |_, b| HashFlow::with_memory(b))
                .expect("exhibit budget splits across shards");
        monitor.instrument(&instruments);
        monitor
    });
    let ns = time_arms(&mut arms, passes, |m| {
        m.reset();
        m.ingest(trace.packets()).elapsed_ns
    });
    let counted = sinks
        .registry
        .snapshot()
        .counter_sum("hashflow_shard_packets_total");
    sinks.row("sharded4", budget, trace, passes, ns, counted)
}

/// Runs the bare / metered / traced sweep on the CAIDA production tier.
pub fn run(cfg: &RunConfig) -> Output {
    sweep(cfg, MIN_ARM_PACKETS)
}

/// [`run`] with every arm replaying at least `min_packets` per trial.
fn sweep(cfg: &RunConfig, min_packets: usize) -> Output {
    let budget = MemoryBudget::from_bytes(setup::standard_budget(cfg).bytes() * 8)
        .expect("8x standard budget is positive");
    let trace = setup::trace_for(cfg, TraceProfile::Caida, cfg.scaled(800_000, 4_000));
    let passes = min_packets.div_ceil(trace.packets().len()).max(1);
    let rows = [
        measure_pipeline("scalar", false, budget, &trace, passes),
        measure_pipeline("batched", true, budget, &trace, passes),
        measure_sharded(budget, &trace, passes),
    ];

    let mut table = Table::new(
        "overhead",
        &[
            "trace",
            "path",
            "budget_bytes",
            "flows",
            "packets",
            "bare_kpps",
            "metered_kpps",
            "traced_kpps",
            "metered_ratio",
            "traced_ratio",
            "events",
            "passes",
        ],
    );
    for row in &rows {
        table.push_row(vec![
            Cell::from("CAIDA"),
            Cell::from(row.path),
            Cell::from(row.budget_bytes),
            Cell::from(row.flows),
            Cell::from(row.packets),
            Cell::Float(row.bare_kpps),
            Cell::Float(row.metered_kpps),
            Cell::Float(row.traced_kpps),
            Cell::Float(row.metered_ratio()),
            Cell::Float(row.traced_ratio()),
            Cell::from(row.events),
            Cell::from(row.passes),
        ]);
    }

    let bench = Bench::new("overhead", cfg, TRIALS)
        .str("workload", "production")
        .field("sampling_one_in", SAMPLING)
        .field("min_arm_packets", MIN_ARM_PACKETS)
        .field("metered_floor", METERED_FLOOR)
        .field("traced_floor", TRACED_FLOOR)
        .table("rows", &table);
    Output {
        tables: vec![table],
        bench: Some(bench),
        violations: check(&rows),
    }
}

/// The overhead gate: on every path `metered / bare` must reach
/// [`METERED_FLOOR`] and `traced / bare` [`TRACED_FLOOR`].
pub fn check(rows: &[OverheadRow]) -> Vec<String> {
    let mut violations = Vec::new();
    for r in rows {
        for (arm, ratio, floor) in [
            ("metered", r.metered_ratio(), METERED_FLOOR),
            ("traced", r.traced_ratio(), TRACED_FLOOR),
        ] {
            if ratio < floor || ratio.is_nan() {
                violations.push(format!(
                    "{}: {arm}/bare {ratio:.3} below floor {floor:.2}",
                    r.path
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_three_paths_and_emits_json() {
        // One pass per arm: the minimum is for timing, and unoptimised
        // code would take minutes over it.
        let out = sweep(&RunConfig::for_tests(0.02), 0);
        let paths: Vec<Cell> = out.tables[0]
            .rows()
            .iter()
            .map(|row| row[1].clone())
            .collect();
        assert_eq!(paths, ["scalar", "batched", "sharded4"].map(Cell::from));
        for row in out.tables[0].rows() {
            // The measurement and its liveness asserts hold at any
            // scale; the throughput claims belong to the full-scale
            // release-mode record.
            for ratio in &row[8..10] {
                assert!(matches!(ratio, Cell::Float(r) if *r > 0.0), "{ratio:?}");
            }
            assert!(matches!(row[10], Cell::Int(events) if events > 0));
            assert_eq!(row[11], Cell::from(1usize));
        }
        let json = out.bench.expect("overhead writes a record").render();
        assert!(json.contains("\"exhibit\": \"overhead\""));
        assert!(json.contains("\"sampling_one_in\": 1024,"));
        for key in ["bare_kpps", "metered_kpps", "traced_kpps", "traced_ratio"] {
            assert_eq!(json.matches(&format!("\"{key}\":")).count(), 3, "{key}");
        }
    }

    fn row(metered_kpps: f64, traced_kpps: f64) -> OverheadRow {
        OverheadRow {
            path: "batched",
            budget_bytes: 1 << 23,
            flows: 10,
            packets: 100,
            passes: 1,
            bare_kpps: 1_000.0,
            metered_kpps,
            traced_kpps,
            events: 5,
        }
    }

    #[test]
    fn check_holds_each_arm_to_its_floor() {
        assert!(check(&[row(970.0, 950.0), row(800.0, 900.0)]).is_empty());
        let metered_low = check(&[row(799.0, 950.0)]);
        assert_eq!(
            metered_low,
            ["batched: metered/bare 0.799 below floor 0.80"]
        );
        let traced_low = check(&[row(970.0, 899.0)]);
        assert_eq!(traced_low, ["batched: traced/bare 0.899 below floor 0.90"]);
        assert_eq!(check(&[row(f64::NAN, f64::NAN)]).len(), 2);
    }
}
