//! Beyond the paper: the telemetry query subsystem's application library
//! (superspreader, DDoS victim, port scan, heavy changer, flow-size
//! entropy) evaluated over HashFlow and the §IV baselines.
//!
//! Two questions per `(algorithm, application)` pair:
//!
//! * **Accuracy** — every application plan is executed post hoc over the
//!   monitor's sealed epochs and compared against the same plan over the
//!   exact per-epoch flow multiset: precision/recall/F1 of the offender
//!   sets (relative error of the entropy scalar). This is the §IV
//!   methodology lifted from the four fixed reports to arbitrary
//!   declarative queries — what an operator's detection would actually
//!   see through each sketch.
//! * **Overhead** — the wall-clock time to evaluate the whole
//!   five-application suite over each sealed epoch (what a seal costs a
//!   `Collector` with the suite attached; ingestion itself pays one
//!   length check per call), next to the bare monitor's per-packet
//!   ingest cost (best of [`TRIALS`]).
//!
//! The trace spans two epochs (heavy-changer needs a predecessor), with
//! planted anomalies so every detection has true positives. The run's
//! record is `BENCH_queryapps.json`, both tables in one file.

use crate::bench::{best_of, Bench};
use crate::output::{Cell, Output, Table};
use crate::{setup, RunConfig};
use hashflow_collector::{AlgorithmKind, MonitorBuilder};
use hashflow_monitor::{EpochSnapshot, FlowMonitor};
use hashflow_obs::json::Obj;
use hashflow_query::{execute, execute_snapshot, AppKind, QueryPlan, QueryResult, TelemetryApp};
use hashflow_trace::{TraceGenerator, TraceProfile};
use hashflow_types::{FlowKey, FlowRecord, Packet};
use std::collections::HashSet;
use std::time::Instant;

/// Timed trials per ingestion measurement; each keeps its fastest
/// ([`best_of`]).
pub const TRIALS: usize = 3;

/// Detection thresholds of the planted-anomaly workload.
const FANOUT: u64 = 40;
const SOURCES: u64 = 40;
const PORTS: u64 = 30;
const DELTA: u64 = 200;

/// The algorithms under test: every registered monitor that retains flow
/// keys and can therefore answer the records-derived application plans
/// (the estimate-only sketches are excluded by their own capability
/// flag, the same gate `MonitorBuilder::require_records` enforces).
fn algorithms() -> impl Iterator<Item = AlgorithmKind> {
    AlgorithmKind::ALL
        .into_iter()
        .filter(AlgorithmKind::supports_records)
}

/// Accuracy of one `(algorithm, application)` pair.
#[derive(Debug, Clone)]
pub struct AppRow {
    /// Monitor under test.
    pub monitor: &'static str,
    /// Application evaluated.
    pub app: AppKind,
    /// True offenders across epochs (exact plan answers).
    pub true_offenders: usize,
    /// Offenders reported from the monitor's sealed records.
    pub reported_offenders: usize,
    /// Precision of the reported offender set (1.0 when both empty).
    pub precision: f64,
    /// Recall of the reported offender set (1.0 when both empty).
    pub recall: f64,
    /// Entropy only: relative error of the scalar, averaged over epochs.
    pub entropy_re: Option<f64>,
}

impl AppRow {
    /// Harmonic mean of precision and recall (0 when both are 0).
    pub fn f1(&self) -> f64 {
        if self.precision + self.recall == 0.0 {
            0.0
        } else {
            2.0 * self.precision * self.recall / (self.precision + self.recall)
        }
    }
}

/// Cost of the application suite for one algorithm: per sealed epoch,
/// next to bare ingestion.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Monitor under test.
    pub monitor: &'static str,
    /// Bare-monitor ingestion cost (ns/packet, best of [`TRIALS`]).
    pub bare_ns_per_pkt: f64,
    /// Records in each sealed epoch.
    pub records: [usize; 2],
    /// Time to evaluate all five application plans over each sealed
    /// epoch (ms, best of [`TRIALS`]).
    pub suite_ms: [f64; 2],
    /// Both epochs' suite time spread over the trace's packets (ns).
    pub suite_ns_per_pkt: f64,
}

/// Two-epoch workload: profile traffic re-stamped into the first epoch,
/// a drifted variant in the second, anomalies planted in both.
fn build_workload(cfg: &RunConfig, flows: usize) -> (Vec<Packet>, Vec<Vec<FlowRecord>>) {
    const EPOCH_NS: u64 = 1_000_000_000; // 1 s epochs
    let mut packets: Vec<Packet> = Vec::new();
    for epoch in 0..2u64 {
        let trace = TraceGenerator::new(TraceProfile::Caida, cfg.seed + epoch).generate(flows);
        let base = epoch * EPOCH_NS;
        let span = EPOCH_NS / 2; // leave headroom: anomalies follow
        let n = trace.packets().len() as u64;
        packets.extend(
            trace
                .packets()
                .iter()
                .enumerate()
                .map(|(i, p)| Packet::new(p.key(), base + (i as u64 * span) / n.max(1), 64)),
        );
        // The planted detection flows: a superspreader fanning out past
        // FANOUT, a vertical scan past PORTS, and one victim hit by more
        // than SOURCES sources.
        let mut planted: Vec<FlowKey> = Vec::new();
        for d in 0..(FANOUT + 20) as u8 {
            planted.push(FlowKey::new(
                [10, 1, 0, 1].into(),
                [10, 2, 0, d].into(),
                40_000,
                443,
                6,
            ));
        }
        for port in 0..(PORTS + 20) as u16 {
            planted.push(FlowKey::new(
                [10, 3, 0, 3].into(),
                [10, 4, 0, 4].into(),
                5,
                1_000 + port,
                6,
            ));
        }
        for s in 0..(SOURCES + 20) as u8 {
            planted.push(FlowKey::new(
                [10, 6, 1, s].into(),
                [10, 5, 0, 5].into(),
                1_234,
                80,
                6,
            ));
        }
        // Three packets per planted flow, round-robin: multi-packet
        // flows win HashFlow's promotion path even when the tables are
        // already busy, like real scan/flood traffic (which is rarely a
        // single packet per flow).
        let mut at = base + span;
        let mut push = |key: FlowKey, at: &mut u64| {
            packets.push(Packet::new(key, *at, 64));
            *at += 1_000;
        };
        for _round in 0..3 {
            for key in &planted {
                push(*key, &mut at);
            }
        }
        // ... and a flow that bursts only in the second epoch.
        let burst = if epoch == 0 { 10 } else { 10 + 2 * DELTA };
        let elephant = FlowKey::new([10, 7, 0, 7].into(), [10, 8, 0, 8].into(), 5_000, 443, 6);
        for _ in 0..burst {
            push(elephant, &mut at);
        }
    }
    // Exact per-epoch flow multisets (epoch edge at packet timestamps).
    let mut per_epoch: Vec<std::collections::HashMap<FlowKey, u32>> = vec![Default::default(); 2];
    for p in &packets {
        let e = (p.timestamp_ns() / EPOCH_NS).min(1) as usize;
        *per_epoch[e].entry(p.key()).or_insert(0) += 1;
    }
    let truth = per_epoch
        .into_iter()
        .map(|m| m.into_iter().map(|(k, c)| FlowRecord::new(k, c)).collect())
        .collect();
    (packets, truth)
}

/// Precision/recall of a reported offender set against the truth.
fn set_accuracy(reported: &HashSet<FlowKey>, truth: &HashSet<FlowKey>) -> (f64, f64) {
    if reported.is_empty() && truth.is_empty() {
        return (1.0, 1.0);
    }
    let hits = reported.intersection(truth).count() as f64;
    let precision = if reported.is_empty() {
        1.0
    } else {
        hits / reported.len() as f64
    };
    let recall = if truth.is_empty() {
        1.0
    } else {
        hits / truth.len() as f64
    };
    (precision, recall)
}

/// Folds per-epoch plan answers through a fresh instance of `kind`'s
/// application, returning the union of offender keys (and the entropy
/// series).
fn fold_app(kind: AppKind, answers: &[QueryResult]) -> (HashSet<FlowKey>, Vec<f64>) {
    let mut app = match kind {
        AppKind::Superspreader => TelemetryApp::superspreader(FANOUT),
        AppKind::DdosVictim => TelemetryApp::ddos_victim(SOURCES),
        AppKind::PortScan => TelemetryApp::port_scan(PORTS),
        AppKind::HeavyChanger => TelemetryApp::heavy_changer(DELTA),
        AppKind::Entropy => TelemetryApp::entropy(),
    };
    let mut offenders = HashSet::new();
    let mut entropy = Vec::new();
    for answer in answers {
        let verdict = app.observe(answer);
        offenders.extend(verdict.offenders.iter().map(|o| o.key));
        if let Some(h) = verdict.scalar {
            entropy.push(h);
        }
    }
    (offenders, entropy)
}

fn app_plan(kind: AppKind) -> QueryPlan {
    match kind {
        AppKind::Superspreader => TelemetryApp::superspreader(FANOUT),
        AppKind::DdosVictim => TelemetryApp::ddos_victim(SOURCES),
        AppKind::PortScan => TelemetryApp::port_scan(PORTS),
        AppKind::HeavyChanger => TelemetryApp::heavy_changer(DELTA),
        AppKind::Entropy => TelemetryApp::entropy(),
    }
    .plan()
    .clone()
}

/// Times one full-trace ingestion, ns/packet, best of [`TRIALS`].
fn time_ingest(mut build: impl FnMut() -> Box<dyn FlowMonitor + Send>, packets: &[Packet]) -> f64 {
    let [ns] = best_of(TRIALS, || {
        let mut monitor = build();
        let start = Instant::now();
        monitor.process_trace(packets);
        std::hint::black_box(monitor.flow_records().len());
        [start.elapsed().as_nanos()]
    });
    ns as f64 / packets.len() as f64
}

/// Times evaluating every plan of `suite` over one sealed epoch, ms,
/// best of [`TRIALS`].
fn time_suite(suite: &[QueryPlan], snapshot: &EpochSnapshot) -> f64 {
    let [ns] = best_of(TRIALS, || {
        let start = Instant::now();
        for plan in suite {
            std::hint::black_box(execute_snapshot(plan, snapshot));
        }
        [start.elapsed().as_nanos()]
    });
    ns as f64 / 1e6
}

/// Runs the application sweep and the overhead measurement.
pub fn run(cfg: &RunConfig) -> Output {
    let budget = setup::standard_budget(cfg);
    // ~60 K flows at the 1 MB standard budget is the paper's load ≈ 1;
    // the smoke floor keeps the scaled-down load below that so HashFlow
    // stays in its accurate regime (the committed full-scale JSON is the
    // claim of record).
    let flows = cfg.scaled(60_000, 900);
    let (packets, truth_epochs) = build_workload(cfg, flows);

    // Every application plan, and its exact per-epoch answers.
    let suite: Vec<QueryPlan> = AppKind::ALL.into_iter().map(app_plan).collect();
    let exact_answers: Vec<Vec<QueryResult>> = suite
        .iter()
        .map(|plan| truth_epochs.iter().map(|t| execute(plan, t)).collect())
        .collect();

    let mut app_rows: Vec<AppRow> = Vec::new();
    let mut overhead_rows: Vec<OverheadRow> = Vec::new();
    for algorithm in algorithms() {
        let build = || {
            MonitorBuilder::new(algorithm)
                .budget(budget)
                .seed(cfg.seed)
                .require_records()
                .build()
                .expect("exhibit budget fits")
        };
        // Sealed epochs: split at the 1 s edge like the exact truth.
        let mut monitor = build();
        let mut snapshots: Vec<EpochSnapshot> = Vec::new();
        let edge = packets
            .iter()
            .position(|p| p.timestamp_ns() >= 1_000_000_000)
            .unwrap_or(packets.len());
        monitor.process_trace(&packets[..edge]);
        snapshots.push(monitor.seal());
        monitor.process_trace(&packets[edge..]);
        snapshots.push(monitor.seal());
        let name = monitor.name();

        for ((kind, plan), exact) in AppKind::ALL.into_iter().zip(&suite).zip(&exact_answers) {
            let approx: Vec<QueryResult> = snapshots
                .iter()
                .map(|s| execute_snapshot(plan, s))
                .collect();
            let (true_off, true_h) = fold_app(kind, exact);
            let (rep_off, rep_h) = fold_app(kind, &approx);
            let (precision, recall) = set_accuracy(&rep_off, &true_off);
            let entropy_re = (kind == AppKind::Entropy).then(|| {
                true_h
                    .iter()
                    .zip(&rep_h)
                    .map(|(t, r)| if *t == 0.0 { 0.0 } else { (r / t - 1.0).abs() })
                    .sum::<f64>()
                    / true_h.len().max(1) as f64
            });
            app_rows.push(AppRow {
                monitor: name,
                app: kind,
                true_offenders: true_off.len(),
                reported_offenders: rep_off.len(),
                precision,
                recall,
                entropy_re,
            });
        }

        // The suite's cost per sealed epoch, next to bare ingestion.
        let suite_ms = [0, 1].map(|e| time_suite(&suite, &snapshots[e]));
        overhead_rows.push(OverheadRow {
            monitor: name,
            bare_ns_per_pkt: time_ingest(build, &packets),
            records: [0, 1].map(|e| snapshots[e].len()),
            suite_ms,
            suite_ns_per_pkt: suite_ms.iter().sum::<f64>() * 1e6 / packets.len() as f64,
        });
    }

    let mut apps_table = Table::new(
        "queryapps",
        &[
            "monitor",
            "app",
            "true_offenders",
            "reported",
            "precision",
            "recall",
            "f1",
            "entropy_re",
        ],
    );
    for row in &app_rows {
        apps_table.push_row(vec![
            Cell::from(row.monitor),
            Cell::from(row.app.name()),
            Cell::Int(row.true_offenders as i64),
            Cell::Int(row.reported_offenders as i64),
            Cell::Float(row.precision),
            Cell::Float(row.recall),
            Cell::Float(row.f1()),
            Cell::Float(row.entropy_re.unwrap_or(f64::NAN)),
        ]);
    }
    let mut overhead_table = Table::new(
        "queryapps_overhead",
        &[
            "monitor",
            "bare_ns_per_pkt",
            "epoch0_records",
            "epoch0_suite_ms",
            "epoch1_records",
            "epoch1_suite_ms",
            "suite_ns_per_pkt",
        ],
    );
    for row in &overhead_rows {
        overhead_table.push_row(vec![
            Cell::from(row.monitor),
            Cell::Float(row.bare_ns_per_pkt),
            Cell::Int(row.records[0] as i64),
            Cell::Float(row.suite_ms[0]),
            Cell::Int(row.records[1] as i64),
            Cell::Float(row.suite_ms[1]),
            Cell::Float(row.suite_ns_per_pkt),
        ]);
    }

    let thresholds = Obj::new()
        .u64("fanout", FANOUT)
        .u64("sources", SOURCES)
        .u64("ports", PORTS)
        .u64("delta", DELTA);
    let bench = Bench::new("queryapps", cfg, TRIALS)
        .str("profile", "CAIDA+planted-anomalies")
        .field("epochs", 2)
        .field("packets", packets.len())
        .field("thresholds", thresholds.build())
        .table("apps", &apps_table)
        .table("overhead", &overhead_table);
    Output {
        tables: vec![apps_table, overhead_table],
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
        // 7 records-capable algorithms x 5 apps; 7 overhead rows.
        let zoo = algorithms().count();
        assert_eq!(zoo, 7);
        assert_eq!(out.tables[0].len(), zoo * AppKind::ALL.len());
        assert_eq!(out.tables[1].len(), zoo);
        let json = out.bench.expect("queryapps writes a record").render();
        assert_eq!(json.matches("\"f1\":").count(), zoo * AppKind::ALL.len());
        assert_eq!(json.matches("\"epoch1_suite_ms\":").count(), zoo);
        assert!(json.contains("\"exhibit\": \"queryapps\""));
        for name in [
            "HashFlow",
            "HashPipe",
            "ElasticSketch",
            "FlowRadar",
            "SampledNetFlow",
            "BeauCoup",
            "ExactBaseline",
        ] {
            assert!(json.contains(name), "missing {name}");
        }
        for app in AppKind::ALL {
            assert!(json.contains(app.name()), "missing {app}");
        }
    }

    #[test]
    fn planted_anomalies_are_true_offenders_and_hashflow_finds_them() {
        let tables = run(&RunConfig::for_tests(0.02)).tables;
        for row in tables[0].rows() {
            let (monitor, app) = match (&row[0], &row[1]) {
                (Cell::Text(m), Cell::Text(a)) => (m.as_str(), a.as_str()),
                other => panic!("{other:?}"),
            };
            let true_offenders = match row[2] {
                Cell::Int(n) => n,
                ref other => panic!("{other:?}"),
            };
            if app != "entropy" {
                assert!(true_offenders >= 1, "{monitor}/{app}: no true offenders");
            }
            // HashFlow at the standard budget recalls the planted
            // anomalies (its record report is near-exact at this load).
            if monitor == "HashFlow" {
                let recall = match row[5] {
                    Cell::Float(v) => v,
                    ref other => panic!("{other:?}"),
                };
                assert!(recall > 0.5, "{monitor}/{app}: recall {recall}");
            }
        }
    }
}
