//! Beyond the paper: the pipeline under overload and export faults.
//!
//! Every bounded buffer has a conserved drop ledger
//! (`offered == delivered + dropped`, by construction), the export path
//! has per-sink health states, and the shard workers isolate panics.
//! This exhibit turns those mechanisms on under deterministic injected
//! faults and measures what the paper's continuous-operation story needs
//! measured:
//!
//! * `stalled_sink` — every export stalls for [`STALL`] (a slow
//!   downstream collector). Ingest throughput is timed *around* the
//!   stalls: the packet path must not pay for a slow export path, and
//!   not one record may go missing.
//! * `shard_queue` / `block` — a deliberately slow consumer behind the
//!   bounded shard queues, which block: everything is delivered at the
//!   consumer's pace.
//! * `sink_outage` / `quarantine` — an outage of
//!   [`SINK_QUARANTINE_AFTER`] exports drives the sink health state
//!   machine: the sink degrades, quarantines, is probed and recovers;
//!   every record is either delivered, failed or
//!   skipped-while-quarantined, and the three buckets sum back to what
//!   was offered.
//!
//! Every row must satisfy the conservation identity
//! `offered == delivered + dropped`: [`check`] rejects a row that does
//! not, and the `overload` binary exits 2 on it — the CI smoke gate. The
//! committed `BENCH_overload.json` carries the full-scale CAIDA
//! production-tier numbers.

use crate::bench::Bench;
use crate::output::{Cell, Output, Table};
use crate::{setup, RunConfig};
use hashflow_collector::{AlgorithmKind, Collector};
use hashflow_core::HashFlow;
use hashflow_monitor::{
    BackpressurePolicy, CostSnapshot, EpochSnapshot, FaultInjectingSink, FaultPlan, FlowMonitor,
    MemoryBudget, RecordSink, SinkHealth, SINK_QUARANTINE_AFTER,
};
use hashflow_shard::ShardedMonitor;
use hashflow_trace::{Trace, TraceProfile};
use hashflow_types::{FlowKey, FlowRecord, Packet};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Epochs sealed in the export-path scenarios (`stalled_sink`,
/// `sink_outage`): enough seals for quarantine, probing and recovery to
/// all happen inside the run.
pub const EPOCHS: usize = 16;

/// Injected latency of every export in the `stalled_sink` scenario —
/// the "100 ms slow collector" tier from the acceptance criteria.
pub const STALL: Duration = Duration::from_millis(100);

/// Injected per-batch latency of the slow consumer in the `shard_queue`
/// scenario. One lane batch is [`hashflow_shard::BATCH_PACKETS`]
/// packets, so this makes the workers lag the dispatcher by orders of
/// magnitude — a sustained overload, not a blip.
pub const SLOW_BATCH: Duration = Duration::from_millis(1);

/// Shard count in the `shard_queue` scenario.
pub const SHARDS: usize = 4;

/// One scenario measurement.
#[derive(Debug, Clone)]
pub struct OverloadRow {
    /// Scenario (`stalled_sink`, `shard_queue`, `sink_outage`).
    pub scenario: &'static str,
    /// Backpressure policy or fault-handling mode exercised (`block`,
    /// `quarantine`).
    pub policy: &'static str,
    /// Distinct flows in the trace.
    pub flows: usize,
    /// Packets replayed.
    pub packets: u64,
    /// Units offered to the faulted stage (records or packets).
    pub offered: u64,
    /// Units that made it through.
    pub delivered: u64,
    /// Units shed — every one on a ledger, none silent.
    pub dropped: u64,
    /// Ingest throughput (Kpps) measured around the faulted stage.
    pub kpps: f64,
    /// Seals between the first export failure and the sink returning to
    /// `Healthy` (0 when no failure ever surfaced).
    pub recovery_epochs: u64,
}

impl OverloadRow {
    /// Fraction of offered units shed.
    pub fn drop_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped as f64 / self.offered as f64
        }
    }

    /// The conservation identity every row must satisfy.
    pub fn conserved(&self) -> bool {
        self.offered == self.delivered + self.dropped
    }
}

/// Terminal sink counting delivered records through an [`Arc`] so the
/// count stays readable after the sink is boxed into the collector.
struct CountingSink {
    records: Arc<AtomicU64>,
}

impl RecordSink for CountingSink {
    fn export_epoch(&mut self, snapshot: &EpochSnapshot) -> io::Result<()> {
        self.records
            .fetch_add(snapshot.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

/// A [`FlowMonitor`] decorator that sleeps [`SLOW_BATCH`] per batch —
/// the slow consumer driving the `shard_queue` scenario.
struct Slow<M> {
    inner: M,
}

impl<M: FlowMonitor> FlowMonitor for Slow<M> {
    fn process_packet(&mut self, packet: &Packet) {
        self.inner.process_packet(packet);
    }

    fn process_batch(&mut self, packets: &[Packet]) {
        std::thread::sleep(SLOW_BATCH);
        self.inner.process_batch(packets);
    }

    fn flow_records(&self) -> Vec<FlowRecord> {
        self.inner.flow_records()
    }

    fn estimate_size(&self, key: &FlowKey) -> u32 {
        self.inner.estimate_size(key)
    }

    fn estimate_cardinality(&self) -> f64 {
        self.inner.estimate_cardinality()
    }

    fn memory_bits(&self) -> usize {
        self.inner.memory_bits()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cost(&self) -> CostSnapshot {
        self.inner.cost()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Splits the trace into [`EPOCHS`] near-equal packet chunks.
fn epoch_chunks(trace: &Trace) -> impl Iterator<Item = &[Packet]> {
    let size = trace.packets().len().div_ceil(EPOCHS).max(1);
    trace.packets().chunks(size)
}

/// `stalled_sink`: every export sleeps [`STALL`]; ingest is timed
/// without the seals, proving the packet path does not pay for a slow
/// export path and the record stream stays lossless.
fn measure_stalled_sink(
    cfg: &RunConfig,
    budget: MemoryBudget,
    flows: usize,
    trace: &Trace,
) -> OverloadRow {
    let delivered = Arc::new(AtomicU64::new(0));
    let plan = FaultPlan::new(cfg.seed).with_stalls(1.0, STALL);
    let sink = FaultInjectingSink::new(
        CountingSink {
            records: Arc::clone(&delivered),
        },
        plan,
    );
    let mut collector = Collector::builder(AlgorithmKind::HashFlow)
        .budget(budget)
        .sink(Box::new(sink))
        .retention(4)
        .build()
        .expect("exhibit budget fits HashFlow");

    let mut offered = 0u64;
    let mut sealed = 0usize;
    let mut ingest_ns = 0u128;
    for chunk in epoch_chunks(trace) {
        let start = Instant::now();
        collector.process_batch(chunk);
        ingest_ns += start.elapsed().as_nanos();
        offered += collector.seal().len() as u64;
        sealed += 1;
    }
    // The retention window shed the older reports — on the ledger.
    let retention = collector.retention_drop_stats();
    assert_eq!(
        retention.offered_epochs(),
        sealed as u64,
        "stalled_sink: retention ledger must see every seal"
    );
    assert_eq!(
        retention.delivered_epochs(),
        retention.offered_epochs() - retention.dropped_epochs(),
        "stalled_sink: retention ledger must conserve"
    );
    // Stalls delay exports; they must never lose or duplicate them.
    collector
        .finish()
        .expect("stalls deliver, no errors surface");
    let delivered = delivered.load(Ordering::Relaxed);
    assert_eq!(delivered, offered, "stalled_sink: record stream lost data");

    let packets = trace.packets().len() as u64;
    OverloadRow {
        scenario: "stalled_sink",
        policy: "block",
        flows,
        packets,
        offered,
        delivered,
        dropped: 0,
        kpps: packets as f64 * 1e6 / ingest_ns.max(1) as f64,
        recovery_epochs: 0,
    }
}

/// `shard_queue`: dispatcher vs a consumer that is [`SLOW_BATCH`] slower
/// per batch, behind queues that block. Offered/delivered/dropped come
/// from the shard queue's own [`DropStats`] ledger and are cross-checked
/// against what the shards actually processed.
///
/// [`DropStats`]: hashflow_monitor::DropStats
fn measure_shard_queue(budget: MemoryBudget, flows: usize, trace: &Trace) -> OverloadRow {
    let mut monitor = ShardedMonitor::with_budget(SHARDS, budget, |_, b| {
        Ok(Slow {
            inner: HashFlow::with_memory(b)?,
        })
    })
    .expect("exhibit budget splits across shards");

    let report = monitor.ingest(trace.packets());
    let drops = monitor.queue_drop_stats();
    let (offered, delivered, dropped) = (
        drops.offered_records(),
        drops.delivered_records(),
        drops.dropped_records(),
    );

    let packets = trace.packets().len() as u64;
    assert_eq!(offered, packets, "shard_queue: every packet is offered");
    assert_eq!(
        report.dropped_packets, dropped,
        "shard_queue: ingest report and ledger must agree"
    );
    assert_eq!(
        delivered,
        monitor.cost().packets,
        "shard_queue: delivered packets must all reach a shard"
    );
    assert_eq!(dropped, 0, "shard_queue: blocking lanes never shed");
    assert!(!monitor.is_degraded(), "overload is not a fault");

    OverloadRow {
        scenario: "shard_queue",
        policy: BackpressurePolicy::Block.label(),
        flows,
        packets,
        offered,
        delivered,
        dropped,
        kpps: if report.elapsed_ns == 0 {
            f64::INFINITY
        } else {
            packets as f64 * 1e6 / report.elapsed_ns as f64
        },
        recovery_epochs: 0,
    }
}

/// `sink_outage` / `quarantine`: an outage of [`SINK_QUARANTINE_AFTER`]
/// exports, driven into the health machine. Tracks per-seal health to
/// measure recovery time and buckets every record as delivered, failed
/// or skipped — the three must sum back to offered.
fn measure_outage_quarantine(
    cfg: &RunConfig,
    budget: MemoryBudget,
    flows: usize,
    trace: &Trace,
) -> OverloadRow {
    let delivered = Arc::new(AtomicU64::new(0));
    let plan = FaultPlan::new(cfg.seed).with_outage(3..3 + u64::from(SINK_QUARANTINE_AFTER));
    let sink = FaultInjectingSink::new(
        CountingSink {
            records: Arc::clone(&delivered),
        },
        plan,
    );
    let mut collector = Collector::builder(AlgorithmKind::HashFlow)
        .budget(budget)
        .sink(Box::new(sink))
        .build()
        .expect("exhibit budget fits HashFlow");

    let mut offered = 0u64;
    let mut failed_records = 0u64;
    let mut errors_before = 0u64;
    let mut first_failure: Option<u64> = None;
    let mut recovered_at: Option<u64> = None;
    let start = Instant::now();
    for (i, chunk) in epoch_chunks(trace).enumerate() {
        collector.process_batch(chunk);
        let epoch_records = collector.seal().len() as u64;
        offered += epoch_records;
        let status = &collector.sink_health()[0];
        if status.total_errors > errors_before {
            // This seal's export failed: its records are lost, counted.
            failed_records += epoch_records;
            errors_before = status.total_errors;
            first_failure.get_or_insert(i as u64);
            recovered_at = None;
        } else if first_failure.is_some()
            && recovered_at.is_none()
            && status.health == SinkHealth::Healthy
        {
            recovered_at = Some(i as u64);
        }
    }
    let elapsed_ns = start.elapsed().as_nanos();
    let status = collector.sink_health().remove(0);
    assert_eq!(
        status.health,
        SinkHealth::Healthy,
        "outage_quarantine: the probe must bring the sink back"
    );
    assert!(
        status.recoveries >= 1,
        "outage_quarantine: recovery counted"
    );
    // Parked outage errors are all reported at finish — expected here.
    let errors = collector.finish().expect_err("outage errors must surface");
    assert_eq!(errors.len() as u64, status.total_errors);

    let delivered = delivered.load(Ordering::Relaxed);
    let dropped = failed_records + status.skipped_records;
    assert_eq!(
        offered,
        delivered + dropped,
        "outage_quarantine: delivered + failed + skipped must equal offered"
    );
    let recovery_epochs = match (first_failure, recovered_at) {
        (Some(f), Some(r)) => r - f,
        _ => 0,
    };
    assert!(
        recovery_epochs > 0,
        "outage_quarantine: recovery takes seals"
    );

    let packets = trace.packets().len() as u64;
    OverloadRow {
        scenario: "sink_outage",
        policy: "quarantine",
        flows,
        packets,
        offered,
        delivered,
        dropped,
        kpps: packets as f64 * 1e6 / elapsed_ns.max(1) as f64,
        recovery_epochs,
    }
}

/// Runs all overload/fault scenarios on the CAIDA production tier.
pub fn run(cfg: &RunConfig) -> Output {
    let paper_budget = setup::standard_budget(cfg);
    let budget =
        MemoryBudget::from_bytes(paper_budget.bytes() * 8).expect("8x standard budget is positive");
    let flows = cfg.scaled(800_000, 4_000);
    let trace = setup::trace_for(cfg, TraceProfile::Caida, flows);

    let rows = vec![
        measure_stalled_sink(cfg, budget, flows, &trace),
        measure_shard_queue(budget, flows, &trace),
        measure_outage_quarantine(cfg, budget, flows, &trace),
    ];
    let mut table = Table::new(
        "overload",
        &[
            "trace",
            "scenario",
            "policy",
            "flows",
            "packets",
            "offered",
            "delivered",
            "dropped",
            "drop_rate",
            "kpps",
            "recovery_epochs",
        ],
    );
    for row in &rows {
        table.push_row(vec![
            Cell::from("CAIDA"),
            Cell::from(row.scenario),
            Cell::from(row.policy),
            Cell::Int(row.flows as i64),
            Cell::Int(row.packets as i64),
            Cell::Int(row.offered as i64),
            Cell::Int(row.delivered as i64),
            Cell::Int(row.dropped as i64),
            Cell::Float(row.drop_rate()),
            Cell::Float(row.kpps),
            Cell::Int(row.recovery_epochs as i64),
        ]);
    }

    let bench = Bench::new("overload", cfg, 1)
        .str("workload", "production")
        .field("epochs", EPOCHS)
        .field("stall_ms", STALL.as_millis())
        .table("rows", &table);
    Output {
        tables: vec![table],
        bench: Some(bench),
        violations: check(&rows),
    }
}

/// The conservation gate: every row must satisfy
/// `offered == delivered + dropped` — every shed unit on a ledger.
pub fn check(rows: &[OverloadRow]) -> Vec<String> {
    rows.iter()
        .filter(|r| !r.conserved())
        .map(|r| {
            format!(
                "{}/{}: offered {} != delivered {} + dropped {}",
                r.scenario, r.policy, r.offered, r.delivered, r.dropped
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_run_and_conserve_at_smoke_scale() {
        let out = run(&RunConfig::for_tests(0.02));
        // stalled_sink + shard_queue + quarantine.
        assert_eq!(out.tables[0].len(), 3);
        assert_eq!(out.violations, Vec::<String>::new());
        let json = out.bench.expect("overload writes a record").render();
        assert!(json.contains("\"exhibit\": \"overload\""));
        assert!(json.contains("\"scenario\":\"stalled_sink\""));
        assert!(json.contains("\"scenario\":\"shard_queue\",\"policy\":\"block\""));
        assert!(json.contains("\"policy\":\"quarantine\""));
    }

    #[test]
    fn check_rejects_an_unconserved_row_and_accepts_a_clean_one() {
        let clean = OverloadRow {
            scenario: "sink_outage",
            policy: "quarantine",
            flows: 10,
            packets: 100,
            offered: 100,
            delivered: 70,
            dropped: 30,
            kpps: 1.0,
            recovery_epochs: 0,
        };
        assert!(check(std::slice::from_ref(&clean)).is_empty());
        let leaky = OverloadRow {
            dropped: 29,
            ..clean.clone()
        };
        let violations = check(&[clean, leaky]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("sink_outage/quarantine: offered 100"));
    }
}
