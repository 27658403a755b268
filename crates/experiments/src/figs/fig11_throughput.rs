//! Fig. 11 — throughput (modeled bmv2 Kpps, panel a), average hash
//! operations per packet (panel b) and average memory accesses per packet
//! (panel c), per trace and algorithm. Native Rust packet rates are
//! reported alongside.

use crate::output::{Cell, Table};
use crate::{setup, RunConfig};
use simswitch::SoftwareSwitch;

/// Runs the throughput/cost comparison.
pub fn run(cfg: &RunConfig) -> Vec<Table> {
    let flows = cfg.scaled(100_000, 2_000);
    let budget = setup::standard_budget(cfg);
    let switch = SoftwareSwitch::default();

    let results = setup::per_profile(|profile| {
        let trace = setup::trace_for(cfg, profile, flows);
        setup::comparison_monitors(budget, cfg.seed)
            .iter_mut()
            .map(|monitor| {
                let report = switch.replay(monitor.as_mut(), &trace);
                (monitor.name(), report)
            })
            .collect::<Vec<_>>()
    });

    let mut table = Table::new(
        "fig11_throughput_and_cost",
        &[
            "trace",
            "algorithm",
            "modeled_kpps",
            "avg_hashes",
            "avg_mem_accesses",
            "native_mpps",
        ],
    );
    for (profile, rows) in &results {
        for (name, report) in rows {
            table.push_row(vec![
                Cell::from(profile.name()),
                Cell::from(*name),
                Cell::Float(report.modeled_kpps),
                Cell::Float(report.avg_hashes),
                Cell::Float(report.avg_accesses),
                Cell::Float(report.native_pps / 1e6),
            ]);
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn by_algorithm(table: &Table, trace: &str, col: usize) -> HashMap<String, f64> {
        let mut out = HashMap::new();
        for row in table.rows() {
            if let (Cell::Text(t), Cell::Text(a), Cell::Float(v)) = (&row[0], &row[1], &row[col]) {
                if t == trace {
                    out.insert(a.clone(), *v);
                }
            }
        }
        out
    }

    #[test]
    fn flowradar_is_slowest_and_hashes_most() {
        let cfg = RunConfig::for_tests(0.05);
        let tables = run(&cfg);
        for trace in ["CAIDA", "Campus", "ISP1", "ISP2"] {
            let kpps = by_algorithm(&tables[0], trace, 2);
            let hashes = by_algorithm(&tables[0], trace, 3);
            assert!(
                (hashes["FlowRadar"] - 7.0).abs() < 1e-9,
                "FlowRadar 7 hashes"
            );
            for alg in ["HashFlow", "HashPipe", "ElasticSketch"] {
                assert!(
                    kpps[alg] > kpps["FlowRadar"],
                    "{trace}: {alg} {} vs FlowRadar {}",
                    kpps[alg],
                    kpps["FlowRadar"]
                );
                assert!(hashes[alg] < hashes["FlowRadar"]);
            }
        }
    }

    #[test]
    fn hashflow_comparable_to_hashpipe_and_elastic() {
        // §IV-D: "HashFlow will perform comparably to HashPipe and
        // ElasticSketch, and much better than FlowRadar."
        let cfg = RunConfig::for_tests(0.05);
        let tables = run(&cfg);
        for trace in ["CAIDA", "Campus", "ISP1", "ISP2"] {
            let kpps = by_algorithm(&tables[0], trace, 2);
            let hf = kpps["HashFlow"];
            for alg in ["HashPipe", "ElasticSketch"] {
                let ratio = hf / kpps[alg];
                assert!(
                    (0.6..=1.7).contains(&ratio),
                    "{trace}: HashFlow {hf} vs {alg} {} (ratio {ratio})",
                    kpps[alg]
                );
            }
            // All algorithms land in the single-digit Kpps band of
            // Fig. 11(a), below the ~20 Kpps bare-forwarding baseline.
            for v in kpps.values() {
                assert!((0.5..20.0).contains(v), "kpps {v}");
            }
        }
    }

    #[test]
    fn hashes_within_worst_case_bounds() {
        let cfg = RunConfig::for_tests(0.05);
        let tables = run(&cfg);
        for trace in ["CAIDA", "Campus", "ISP1", "ISP2"] {
            let hashes = by_algorithm(&tables[0], trace, 3);
            for alg in ["HashFlow", "HashPipe", "ElasticSketch"] {
                assert!(
                    hashes[alg] <= 4.0 + 1e-9,
                    "{trace}: {alg} avg hashes {}",
                    hashes[alg]
                );
            }
        }
    }
}
