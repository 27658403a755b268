//! Evaluation metrics and harness for the §IV-A measurement applications.
//!
//! * **Flow Set Coverage (FSC)** — fraction of the `n` true flows for which
//!   an algorithm reports a record with the correct flow ID (Fig. 6).
//! * **Average Relative Error (ARE)** — mean of
//!   `|estimated/real - 1|` over queried flows, with missing estimates
//!   counting as 0 (Fig. 4, 5(b), 8, 10).
//! * **Relative Error (RE)** — `|estimated flows / n - 1|` for cardinality
//!   (Fig. 7).
//! * **F1 score** — harmonic mean of precision and recall for heavy-hitter
//!   detection (Fig. 9).
//!
//! [`evaluate`] runs one monitor over one trace and collects everything the
//! figures need in a single pass.
//!
//! # Examples
//!
//! ```
//! use hashflow_core::HashFlow;
//! use hashflow_metrics::{evaluate, GroundTruth};
//! use hashflow_monitor::MemoryBudget;
//! use hashflow_trace::{TraceGenerator, TraceProfile};
//!
//! let trace = TraceGenerator::new(TraceProfile::Caida, 1).generate(2_000);
//! let mut hf = HashFlow::with_memory(MemoryBudget::from_kib(64)?)?;
//! let report = evaluate(&mut hf, &trace, &[10]);
//! assert!(report.fsc > 0.9, "light load: almost all flows recorded");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hashflow_monitor::FlowMonitor;
use hashflow_trace::Trace;
use hashflow_types::{FlowKey, FlowRecord};
use std::collections::HashSet;

mod ground_truth;
pub use ground_truth::GroundTruth;

/// Flow Set Coverage: the fraction of true flows whose ID appears among the
/// reported records (§IV-A).
///
/// Reported records with IDs that are not true flows (e.g. digest aliases
/// or mis-decodes) do not count; duplicates of the same ID count once.
pub fn flow_set_coverage(reported: &[FlowRecord], truth: &GroundTruth) -> f64 {
    if truth.flow_count() == 0 {
        return 0.0;
    }
    let correct: HashSet<FlowKey> = reported
        .iter()
        .map(|r| r.key())
        .filter(|k| truth.contains(k))
        .collect();
    correct.len() as f64 / truth.flow_count() as f64
}

/// Average Relative Error of per-flow size estimates over **all** true
/// flows (§IV-A). A flow the algorithm knows nothing about contributes
/// `|0/real - 1| = 1`.
pub fn size_estimation_are<M: FlowMonitor + ?Sized>(monitor: &M, truth: &GroundTruth) -> f64 {
    if truth.flow_count() == 0 {
        return 0.0;
    }
    let total: f64 = truth
        .iter()
        .map(|(key, real)| {
            let est = monitor.estimate_size(key) as f64;
            (est / f64::from(real) - 1.0).abs()
        })
        .sum();
    total / truth.flow_count() as f64
}

/// Relative Error of a cardinality estimate against the true flow count
/// (§IV-A).
pub fn cardinality_relative_error(estimated: f64, true_flows: usize) -> f64 {
    if true_flows == 0 {
        return 0.0;
    }
    (estimated / true_flows as f64 - 1.0).abs()
}

/// Precision / recall / F1 / size-ARE of one heavy-hitter report
/// (Fig. 9/10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeavyHitterReport {
    /// Detection threshold `T` in packets.
    pub threshold: u32,
    /// Reported heavy hitters (`c1` in §IV-A).
    pub reported: usize,
    /// True heavy hitters (`c2`).
    pub actual: usize,
    /// Correctly reported heavy hitters (`c`).
    pub correct: usize,
    /// Precision `c / c1` (1 when nothing is reported and nothing exists).
    pub precision: f64,
    /// Recall `c / c2`.
    pub recall: f64,
    /// F1 = `2 * PR * RR / (PR + RR)`.
    pub f1: f64,
    /// ARE of the size estimates of the true heavy hitters.
    pub size_are: f64,
}

/// Evaluates heavy-hitter detection at one threshold.
///
/// The reported set is taken from [`FlowMonitor::heavy_hitters`]; the size
/// ARE is computed over the *true* heavy hitters, querying the monitor for
/// each (missing flows estimate 0, per §IV-A).
pub fn heavy_hitter_report<M: FlowMonitor + ?Sized>(
    monitor: &M,
    truth: &GroundTruth,
    threshold: u32,
) -> HeavyHitterReport {
    let reported = monitor.heavy_hitters(threshold);
    let true_hh: Vec<(FlowKey, u32)> = truth
        .iter()
        .filter(|&(_, count)| count >= threshold)
        .map(|(k, c)| (*k, c))
        .collect();
    let true_set: HashSet<FlowKey> = true_hh.iter().map(|(k, _)| *k).collect();
    let reported_keys: HashSet<FlowKey> = reported.iter().map(|r| r.key()).collect();
    let correct = reported_keys.intersection(&true_set).count();

    let precision = if reported_keys.is_empty() {
        if true_set.is_empty() {
            1.0
        } else {
            0.0
        }
    } else {
        correct as f64 / reported_keys.len() as f64
    };
    let recall = if true_set.is_empty() {
        1.0
    } else {
        correct as f64 / true_set.len() as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    let size_are = if true_hh.is_empty() {
        0.0
    } else {
        true_hh
            .iter()
            .map(|(key, real)| {
                let est = monitor.estimate_size(key) as f64;
                (est / f64::from(*real) - 1.0).abs()
            })
            .sum::<f64>()
            / true_hh.len() as f64
    };

    HeavyHitterReport {
        threshold,
        reported: reported_keys.len(),
        actual: true_set.len(),
        correct,
        precision,
        recall,
        f1,
        size_are,
    }
}

/// Everything one (monitor, trace) run produces, matching the four
/// applications of §IV-A.
#[derive(Debug, Clone)]
pub struct EvaluationReport {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Number of true flows fed.
    pub flows: usize,
    /// Packets fed.
    pub packets: usize,
    /// Flow Set Coverage (Fig. 6).
    pub fsc: f64,
    /// Size-estimation ARE (Fig. 8).
    pub size_are: f64,
    /// Cardinality RE (Fig. 7).
    pub cardinality_re: f64,
    /// Heavy-hitter reports, one per requested threshold (Fig. 9/10).
    pub heavy_hitters: Vec<HeavyHitterReport>,
    /// Per-packet cost counters (Fig. 11(b)/(c)).
    pub cost: hashflow_monitor::CostSnapshot,
}

/// Feeds `trace` to a **freshly reset** `monitor` and computes every
/// metric, with heavy hitters evaluated at each of `hh_thresholds`.
pub fn evaluate<M: FlowMonitor + ?Sized>(
    monitor: &mut M,
    trace: &Trace,
    hh_thresholds: &[u32],
) -> EvaluationReport {
    monitor.reset();
    monitor.process_trace(trace.packets());
    let truth = GroundTruth::from_records(trace.ground_truth());

    let records = monitor.flow_records();
    EvaluationReport {
        algorithm: monitor.name(),
        flows: truth.flow_count(),
        packets: trace.packets().len(),
        fsc: flow_set_coverage(&records, &truth),
        size_are: size_estimation_are(monitor, &truth),
        cardinality_re: cardinality_relative_error(
            monitor.estimate_cardinality(),
            truth.flow_count(),
        ),
        heavy_hitters: hh_thresholds
            .iter()
            .map(|&t| heavy_hitter_report(monitor, &truth, t))
            .collect(),
        cost: monitor.cost(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashflow_trace::{TraceGenerator, TraceProfile};
    use hashflow_types::Packet;
    use std::collections::HashMap;

    /// A perfect reference monitor (exact hash map) that the metric
    /// implementations are checked against.
    #[derive(Debug, Clone, Default)]
    struct ExactMonitor {
        flows: HashMap<FlowKey, u32>,
        cost: hashflow_monitor::CostRecorder,
    }

    impl ExactMonitor {
        fn new() -> Self {
            Self::default()
        }
    }

    impl FlowMonitor for ExactMonitor {
        fn process_packet(&mut self, packet: &Packet) {
            self.cost.start_packet();
            self.cost.record_hashes(1);
            self.cost.record_reads(1);
            self.cost.record_writes(1);
            *self.flows.entry(packet.key()).or_insert(0) += 1;
        }

        fn flow_records(&self) -> Vec<FlowRecord> {
            self.flows
                .iter()
                .map(|(k, c)| FlowRecord::new(*k, *c))
                .collect()
        }

        fn estimate_size(&self, key: &FlowKey) -> u32 {
            self.flows.get(key).copied().unwrap_or(0)
        }

        fn estimate_cardinality(&self) -> f64 {
            self.flows.len() as f64
        }

        fn memory_bits(&self) -> usize {
            self.flows.len() * hashflow_types::RECORD_BITS
        }

        fn name(&self) -> &'static str {
            "Exact"
        }

        fn cost(&self) -> hashflow_monitor::CostSnapshot {
            self.cost.snapshot()
        }

        fn reset(&mut self) {
            self.flows.clear();
            self.cost.reset();
        }
    }

    fn toy_truth() -> GroundTruth {
        GroundTruth::from_records(&[
            FlowRecord::new(FlowKey::from_index(1), 10),
            FlowRecord::new(FlowKey::from_index(2), 5),
            FlowRecord::new(FlowKey::from_index(3), 1),
        ])
    }

    #[test]
    fn fsc_counts_distinct_correct_ids() {
        let truth = toy_truth();
        let reported = vec![
            FlowRecord::new(FlowKey::from_index(1), 9),
            FlowRecord::new(FlowKey::from_index(1), 1), // duplicate: counts once
            FlowRecord::new(FlowKey::from_index(99), 4), // bogus: ignored
        ];
        assert!((flow_set_coverage(&reported, &truth) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(flow_set_coverage(&[], &truth), 0.0);
    }

    #[test]
    fn are_counts_missing_flows_as_one() {
        let truth = toy_truth();
        let mut exact = ExactMonitor::new();
        // Only flow 1 is known, with a perfect count.
        for _ in 0..10 {
            exact.process_packet(&Packet::new(FlowKey::from_index(1), 0, 64));
        }
        // flow1: 0 error; flows 2, 3: |0 - 1| = 1 each -> ARE = 2/3.
        let are = size_estimation_are(&exact, &truth);
        assert!((are - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cardinality_re_definition() {
        assert!((cardinality_relative_error(120.0, 100) - 0.2).abs() < 1e-12);
        assert!((cardinality_relative_error(80.0, 100) - 0.2).abs() < 1e-12);
        assert_eq!(cardinality_relative_error(100.0, 100), 0.0);
        assert_eq!(cardinality_relative_error(5.0, 0), 0.0);
    }

    #[test]
    fn heavy_hitter_f1_perfect_detection() {
        let mut exact = ExactMonitor::new();
        for rec in [
            FlowRecord::new(FlowKey::from_index(1), 10),
            FlowRecord::new(FlowKey::from_index(2), 5),
            FlowRecord::new(FlowKey::from_index(3), 1),
        ] {
            for _ in 0..rec.count() {
                exact.process_packet(&Packet::new(rec.key(), 0, 64));
            }
        }
        let truth = toy_truth();
        let report = heavy_hitter_report(&exact, &truth, 5);
        assert_eq!(report.actual, 2);
        assert_eq!(report.correct, 2);
        assert_eq!(report.f1, 1.0);
        assert_eq!(report.size_are, 0.0);
    }

    #[test]
    fn heavy_hitter_f1_partial_detection() {
        // Monitor that only knows flow 1.
        let mut exact = ExactMonitor::new();
        for _ in 0..10 {
            exact.process_packet(&Packet::new(FlowKey::from_index(1), 0, 64));
        }
        let truth = toy_truth();
        let report = heavy_hitter_report(&exact, &truth, 5);
        // reported = {1}, true = {1, 2}: PR = 1, RR = 0.5, F1 = 2/3.
        assert!((report.f1 - 2.0 / 3.0).abs() < 1e-12);
        // size ARE over true HH: flow1 exact (0), flow2 missing (1) -> 0.5.
        assert!((report.size_are - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_threshold_cases() {
        let exact = ExactMonitor::new();
        let truth = toy_truth();
        let report = heavy_hitter_report(&exact, &truth, 1000);
        assert_eq!(report.actual, 0);
        assert_eq!(report.recall, 1.0);
        assert_eq!(report.precision, 1.0);
    }

    #[test]
    fn evaluate_exact_monitor_is_perfect() {
        let trace = TraceGenerator::new(TraceProfile::Isp1, 3).generate(500);
        let mut exact = ExactMonitor::new();
        let report = evaluate(&mut exact, &trace, &[5, 50]);
        assert_eq!(report.fsc, 1.0);
        assert_eq!(report.size_are, 0.0);
        assert_eq!(report.cardinality_re, 0.0);
        assert!(report.heavy_hitters.iter().all(|h| h.f1 == 1.0));
        assert_eq!(report.packets, trace.packets().len());
        assert_eq!(report.flows, 500);
    }

    #[test]
    fn evaluate_resets_between_runs() {
        let trace = TraceGenerator::new(TraceProfile::Isp1, 4).generate(100);
        let mut exact = ExactMonitor::new();
        let first = evaluate(&mut exact, &trace, &[]);
        let second = evaluate(&mut exact, &trace, &[]);
        assert_eq!(first.fsc, second.fsc);
        assert_eq!(first.cost.packets, second.cost.packets);
    }
}
