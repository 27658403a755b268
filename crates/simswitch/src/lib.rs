//! A deterministic software-switch substrate — the reproduction's stand-in
//! for the bmv2 P4 switch of §IV-D.
//!
//! The paper measures throughput by loading each algorithm into bmv2 on an
//! isolated CPU core, where baseline forwarding runs at about 20 Kpps and
//! every extra hash computation and table access costs measurable time
//! (Fig. 11). Rather than shipping a P4 toolchain, this crate:
//!
//! 1. replays traces through any [`FlowMonitor`] while its own cost
//!    recorder counts hash operations and memory accesses (exactly the
//!    quantities in Fig. 11(b)/(c)); and
//! 2. converts those counts into a modeled bmv2-like throughput with
//!    [`ThroughputModel`], calibrated so that baseline forwarding sits at
//!    ~20 Kpps — reproducing the *relative* ordering of Fig. 11(a); and
//! 3. measures the *native* Rust packet rate with a wall clock — the
//!    modern-hardware counterpart the experiment exhibits report.
//!
//! # Examples
//!
//! ```
//! use hashflow_collector::{AlgorithmKind, MonitorBuilder};
//! use hashflow_monitor::MemoryBudget;
//! use hashflow_trace::{TraceGenerator, TraceProfile};
//! use simswitch::SoftwareSwitch;
//!
//! let trace = TraceGenerator::new(TraceProfile::Caida, 0).generate(1_000);
//! // Monitors come from the registry; the switch replays any of them.
//! let mut hf = MonitorBuilder::new(AlgorithmKind::HashFlow)
//!     .budget(MemoryBudget::from_kib(64)?)
//!     .build()?;
//! let report = SoftwareSwitch::default().replay(&mut hf, &trace);
//! assert_eq!(report.packets, trace.packets().len() as u64);
//! assert!(report.modeled_kpps > 0.0 && report.modeled_kpps < 20.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hashflow_monitor::{CostSnapshot, FlowMonitor, MergeableMonitor, INGEST_BATCH};
use hashflow_shard::ShardedMonitor;
use hashflow_trace::Trace;
use std::time::Instant;

/// Cost model translating per-packet operation counts into a bmv2-like
/// packet rate.
///
/// `time_per_packet = base + hashes * hash_cost + accesses * access_cost`,
/// all in microseconds. Defaults are calibrated to the paper's testbed
/// (§IV-D: Core i5-4680K, isolcpus): 50 µs base (≈ 20 Kpps bare
/// forwarding), with hash and access costs that place the four algorithms
/// in the 1–6 Kpps band of Fig. 11(a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputModel {
    /// Fixed per-packet forwarding cost in µs (bmv2 parse + deparse).
    pub base_us: f64,
    /// Cost of one hash evaluation in µs.
    pub hash_us: f64,
    /// Cost of one table read or write in µs.
    pub access_us: f64,
}

impl Default for ThroughputModel {
    fn default() -> Self {
        ThroughputModel {
            base_us: 50.0,
            hash_us: 25.0,
            access_us: 20.0,
        }
    }
}

impl ThroughputModel {
    /// Modeled per-packet processing time in µs for the average operation
    /// counts of `cost`.
    pub fn packet_time_us(&self, cost: &CostSnapshot) -> f64 {
        self.base_us
            + cost.avg_hashes_per_packet() * self.hash_us
            + cost.avg_memory_accesses_per_packet() * self.access_us
    }

    /// Modeled throughput in Kpps.
    pub fn kpps(&self, cost: &CostSnapshot) -> f64 {
        1_000.0 / self.packet_time_us(cost)
    }

    /// Throughput of the bare switch with no measurement algorithm loaded.
    pub fn baseline_kpps(&self) -> f64 {
        1_000.0 / self.base_us
    }
}

/// Result of replaying one trace through one monitor.
#[derive(Debug, Clone, Copy)]
pub struct ReplayReport {
    /// Packets forwarded.
    pub packets: u64,
    /// Wall-clock nanoseconds the native Rust implementation took.
    pub native_elapsed_ns: u128,
    /// Native packets per second (modern-CPU number, not bmv2).
    pub native_pps: f64,
    /// Modeled bmv2-like throughput in Kpps (Fig. 11(a)).
    pub modeled_kpps: f64,
    /// Average hash operations per packet (Fig. 11(b)).
    pub avg_hashes: f64,
    /// Average memory accesses per packet (Fig. 11(c)).
    pub avg_accesses: f64,
    /// Raw cost counters.
    pub cost: CostSnapshot,
}

/// Result of replaying one trace through a [`ShardedMonitor`]: the
/// multi-core counterpart of [`ReplayReport`].
#[derive(Debug, Clone)]
pub struct ShardedReplayReport {
    /// Packets forwarded.
    pub packets: u64,
    /// Number of shards.
    pub shards: usize,
    /// Packets routed to each shard (RSS load split).
    pub per_shard_packets: Vec<u64>,
    /// Busiest shard's share over the ideal equal share (1.0 = balanced).
    pub imbalance: f64,
    /// Wall clock of the threaded ingest ([`ShardedMonitor::ingest`]) on
    /// this machine.
    pub native_elapsed_ns: u128,
    /// Threaded packets per second on this machine.
    pub native_pps: f64,
    /// Wall clock of the serial batched path
    /// ([`FlowMonitor::process_batch`] on the calling thread): dispatch
    /// plus every shard back-to-back, one core's time.
    pub serial_elapsed_ns: u128,
    /// Packets per second of the serial path.
    pub serial_pps: f64,
    /// Wall clock of the RSS split alone ([`ShardedMonitor::partition`]
    /// over the same batches; zero for a single shard, which skips
    /// dispatch) — the serial term no shard count removes.
    pub dispatch_elapsed_ns: u128,
    /// Modeled single-core bmv2 Kpps from merged in-shard costs
    /// (comparable to Fig. 11(a)).
    pub modeled_kpps: f64,
    /// Merged in-shard cost counters.
    pub cost: CostSnapshot,
}

/// The software switch: replays traces through monitors under a
/// [`ThroughputModel`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftwareSwitch {
    model: ThroughputModel,
}

impl SoftwareSwitch {
    /// Creates a switch with a custom cost model.
    pub const fn with_model(model: ThroughputModel) -> Self {
        SoftwareSwitch { model }
    }

    /// The active cost model.
    pub const fn model(&self) -> &ThroughputModel {
        &self.model
    }

    /// Replays `trace` through a sharded monitor and reports what was
    /// measured, alongside the usual modeled single-core bmv2 number.
    ///
    /// Three passes over the trace, each timed with a wall clock on this
    /// machine: the **serial** batched path
    /// ([`FlowMonitor::process_batch`] in [`INGEST_BATCH`] chunks), the
    /// RSS split alone ([`ShardedMonitor::partition`] of the same
    /// chunks), and last the
    /// **threaded** path ([`ShardedMonitor::ingest`]), which leaves the
    /// monitor holding exactly one replay's state. Nothing is
    /// extrapolated to cores this machine does not have.
    ///
    /// The modeled bmv2 Kpps uses the merged in-shard cost counters, i.e.
    /// it stays comparable to the paper's single-core Fig. 11 numbers.
    pub fn replay_sharded<M: MergeableMonitor + Send>(
        &self,
        monitor: &mut ShardedMonitor<M>,
        trace: &Trace,
    ) -> ShardedReplayReport {
        let packets = trace.packets();
        monitor.reset();
        let start = Instant::now();
        for chunk in packets.chunks(INGEST_BATCH) {
            monitor.process_batch(chunk);
        }
        let serial_elapsed_ns = start.elapsed().as_nanos();
        let dispatch_elapsed_ns = if monitor.shard_count() == 1 {
            0
        } else {
            let start = Instant::now();
            for chunk in packets.chunks(INGEST_BATCH) {
                std::hint::black_box(monitor.partition(chunk));
            }
            start.elapsed().as_nanos()
        };
        monitor.reset();
        let ingest = monitor.ingest(packets);
        let cost = monitor.cost();
        let pps = |ns: u128| {
            if ns == 0 {
                f64::INFINITY
            } else {
                cost.packets as f64 * 1e9 / ns as f64
            }
        };
        ShardedReplayReport {
            packets: cost.packets,
            shards: monitor.shard_count(),
            imbalance: ingest.imbalance(),
            per_shard_packets: ingest.per_shard_packets,
            native_elapsed_ns: ingest.elapsed_ns,
            native_pps: pps(ingest.elapsed_ns),
            serial_elapsed_ns,
            serial_pps: pps(serial_elapsed_ns),
            dispatch_elapsed_ns,
            modeled_kpps: self.model.kpps(&cost),
            cost,
        }
    }

    /// Resets `monitor`, replays every packet of `trace` through it, and
    /// reports native and modeled throughput.
    ///
    /// Ingestion goes through [`FlowMonitor::process_trace`], i.e. the
    /// monitor's **batched hot path** where one exists (precomputed hash
    /// lanes, software prefetch, amortized cost flushes). Recorded costs
    /// — and therefore the modeled bmv2 numbers — are identical to the
    /// scalar path by the `process_batch` contract; only `native_*`
    /// improves. Use [`Self::replay_scalar`] to measure the per-packet
    /// baseline.
    pub fn replay<M: FlowMonitor + ?Sized>(&self, monitor: &mut M, trace: &Trace) -> ReplayReport {
        self.replay_with(monitor, trace, |m, packets| m.process_trace(packets))
    }

    /// [`Self::replay`] forced down the scalar one-packet-at-a-time
    /// path, bypassing any batched override — the baseline the `hotpath`
    /// exhibit compares against.
    pub fn replay_scalar<M: FlowMonitor + ?Sized>(
        &self,
        monitor: &mut M,
        trace: &Trace,
    ) -> ReplayReport {
        self.replay_with(monitor, trace, |m, packets| {
            for p in packets {
                m.process_packet(p);
            }
        })
    }

    fn replay_with<M: FlowMonitor + ?Sized>(
        &self,
        monitor: &mut M,
        trace: &Trace,
        ingest: impl Fn(&mut M, &[hashflow_types::Packet]),
    ) -> ReplayReport {
        monitor.reset();
        let start = Instant::now();
        ingest(monitor, trace.packets());
        let elapsed = start.elapsed();
        let cost = monitor.cost();
        let packets = cost.packets;
        let secs = elapsed.as_secs_f64();
        ReplayReport {
            packets,
            native_elapsed_ns: elapsed.as_nanos(),
            native_pps: if secs > 0.0 {
                packets as f64 / secs
            } else {
                f64::INFINITY
            },
            modeled_kpps: self.model.kpps(&cost),
            avg_hashes: cost.avg_hashes_per_packet(),
            avg_accesses: cost.avg_memory_accesses_per_packet(),
            cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashflow_collector::{AlgorithmKind, MonitorBuilder};
    use hashflow_core::HashFlow;
    use hashflow_monitor::MemoryBudget;
    use hashflow_trace::{TraceGenerator, TraceProfile};

    /// Registry-built HashFlow: the single construction path, exercised
    /// from the switch's side.
    fn registry_hashflow(kib: usize) -> Box<dyn FlowMonitor + Send> {
        MonitorBuilder::new(AlgorithmKind::HashFlow)
            .budget(MemoryBudget::from_kib(kib).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn baseline_is_twenty_kpps() {
        let model = ThroughputModel::default();
        assert!((model.baseline_kpps() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn more_ops_means_less_throughput() {
        let model = ThroughputModel::default();
        let light = CostSnapshot {
            packets: 100,
            hashes: 100,
            reads: 100,
            writes: 100,
        };
        let heavy = CostSnapshot {
            packets: 100,
            hashes: 700,
            reads: 700,
            writes: 300,
        };
        assert!(model.kpps(&light) > model.kpps(&heavy));
        assert!(model.kpps(&light) < model.baseline_kpps());
    }

    #[test]
    fn replay_counts_all_packets() {
        let trace = TraceGenerator::new(TraceProfile::Isp2, 1).generate(500);
        let mut hf = registry_hashflow(32);
        let report = SoftwareSwitch::default().replay(&mut hf, &trace);
        assert_eq!(report.packets, trace.packets().len() as u64);
        assert!(report.native_pps > 0.0);
        assert!(report.avg_hashes >= 1.0);
        assert!(report.modeled_kpps < 20.0);
    }

    #[test]
    fn batched_and_scalar_replay_agree_on_costs() {
        // The batched default and the forced-scalar path must report the
        // same packets, per-packet averages and modeled throughput — the
        // process_batch contract seen from the switch.
        let trace = TraceGenerator::new(TraceProfile::Caida, 5).generate(1_000);
        let mut hf = registry_hashflow(32);
        let sw = SoftwareSwitch::default();
        let batched = sw.replay(&mut hf, &trace);
        let records_batched = hf.flow_records().len();
        let scalar = sw.replay_scalar(&mut hf, &trace);
        assert_eq!(batched.packets, scalar.packets);
        assert_eq!(batched.cost, scalar.cost);
        assert_eq!(batched.modeled_kpps, scalar.modeled_kpps);
        assert_eq!(records_batched, hf.flow_records().len());
    }

    #[test]
    fn replay_resets_monitor_first() {
        let trace = TraceGenerator::new(TraceProfile::Isp2, 2).generate(200);
        let mut hf = registry_hashflow(32);
        let sw = SoftwareSwitch::default();
        let first = sw.replay(&mut hf, &trace);
        let second = sw.replay(&mut hf, &trace);
        assert_eq!(first.packets, second.packets);
        assert_eq!(first.avg_hashes, second.avg_hashes);
    }

    #[test]
    fn sharded_replay_reports_scaling_picture() {
        let trace = TraceGenerator::new(TraceProfile::Caida, 3).generate(4_000);
        let budget = MemoryBudget::from_kib(256).unwrap();
        let mut sharded =
            ShardedMonitor::with_budget(4, budget, |_, b| HashFlow::with_memory(b)).unwrap();
        let report = SoftwareSwitch::default().replay_sharded(&mut sharded, &trace);
        assert_eq!(report.packets, trace.packets().len() as u64);
        assert_eq!(report.shards, 4);
        assert_eq!(report.per_shard_packets.iter().sum::<u64>(), report.packets);
        // Both wall clocks are measurements, and the split alone is a
        // part of the serial pass.
        assert!(report.native_pps > 0.0 && report.serial_pps > 0.0);
        assert!(report.dispatch_elapsed_ns > 0);
        // Merged in-shard costs stay in the paper's per-packet band, so the
        // modeled bmv2 number remains comparable to Fig. 11(a).
        assert!((1.0..=4.0).contains(&report.cost.avg_hashes_per_packet()));
        assert!(report.modeled_kpps < 20.0);
    }

    #[test]
    fn sharded_replay_single_shard_has_no_dispatch_cost() {
        let trace = TraceGenerator::new(TraceProfile::Isp2, 9).generate(1_000);
        let budget = MemoryBudget::from_kib(64).unwrap();
        let mut one =
            ShardedMonitor::with_budget(1, budget, |_, b| HashFlow::with_memory(b)).unwrap();
        let report = SoftwareSwitch::default().replay_sharded(&mut one, &trace);
        assert_eq!(report.dispatch_elapsed_ns, 0);
        assert_eq!(one.dispatch_hashes(), 0);
    }

    #[test]
    fn custom_model_applies() {
        let sw = SoftwareSwitch::with_model(ThroughputModel {
            base_us: 100.0,
            hash_us: 0.0,
            access_us: 0.0,
        });
        assert_eq!(sw.model().baseline_kpps(), 10.0);
        let cost = CostSnapshot {
            packets: 10,
            hashes: 100,
            reads: 0,
            writes: 0,
        };
        assert_eq!(sw.model().kpps(&cost), 10.0);
    }
}
