//! Fig. 11 — throughput (panel a), average hash operations per packet
//! (panel b) and average memory accesses per packet (panel c), per trace
//! and algorithm.
//!
//! The paper measures panel (a) in bmv2 on one isolated core, at about
//! 20 Kpps of bare forwarding, and explains it by panels (b) and (c).
//! There is no bmv2 here: panel (a) is reproduced as `native_mpps`, the
//! native wall-clock rate of the fastest of [`TRIALS`] batched replays on
//! the host that ran the exhibit. Panels (b) and (c) are the counts every
//! monitor records, the same on any host.

use crate::bench::{best_of, kpps, timed_replay};
use crate::output::{Cell, Table};
use crate::{setup, RunConfig};
use hashflow_collector::AlgorithmKind;
use hashflow_monitor::CostSnapshot;
use hashflow_trace::ALL_PROFILES;

/// Timed trials per trace, as in `hotpath`. Each trial replays the four
/// monitors back to back, so host noise lands on all four, and each
/// monitor keeps its fastest replay ([`best_of`]). The traces run one
/// after another, not on `setup::per_profile`'s threads, so no trace's
/// clock runs while another trace competes for the cores.
pub const TRIALS: usize = 3;

/// Runs the throughput/cost comparison.
pub fn run(cfg: &RunConfig) -> Vec<Table> {
    let flows = cfg.scaled(100_000, 2_000);
    let budget = setup::standard_budget(cfg);

    let results = ALL_PROFILES.map(|profile| {
        let trace = setup::trace_for(cfg, profile, flows);
        let mut monitors = setup::comparison_monitors(budget, cfg.seed);
        let mut costs = [CostSnapshot::default(); AlgorithmKind::COMPARISON.len()];
        let best: [u128; AlgorithmKind::COMPARISON.len()] = best_of(TRIALS, || {
            std::array::from_fn(|i| {
                let (ns, cost) =
                    timed_replay(monitors[i].as_mut(), &trace, |m, p| m.process_trace(p));
                costs[i] = cost;
                ns
            })
        });
        let rows = (monitors.iter().zip(best).zip(costs))
            .map(|((monitor, ns), cost)| (monitor.name(), ns, cost))
            .collect::<Vec<_>>();
        (profile, rows)
    });

    let mut table = Table::new(
        "fig11_throughput_and_cost",
        &[
            "trace",
            "algorithm",
            "avg_hashes",
            "avg_mem_accesses",
            "native_mpps",
        ],
    );
    for (profile, rows) in &results {
        for (name, ns, cost) in rows {
            table.push_row(vec![
                Cell::from(profile.name()),
                Cell::from(*name),
                Cell::Float(cost.avg_hashes_per_packet()),
                Cell::Float(cost.avg_memory_accesses_per_packet()),
                Cell::Float(kpps(cost.packets, *ns) / 1e3),
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
    fn flowradar_hashes_and_accesses_most() {
        let cfg = RunConfig::for_tests(0.05);
        let tables = run(&cfg);
        for trace in ["CAIDA", "Campus", "ISP1", "ISP2"] {
            let hashes = by_algorithm(&tables[0], trace, 2);
            let accesses = by_algorithm(&tables[0], trace, 3);
            assert!(
                (hashes["FlowRadar"] - 7.0).abs() < 1e-9,
                "FlowRadar 7 hashes"
            );
            for alg in ["HashFlow", "HashPipe", "ElasticSketch"] {
                assert!(hashes[alg] < hashes["FlowRadar"], "{trace}: {alg} hashes");
                assert!(
                    accesses[alg] < accesses["FlowRadar"],
                    "{trace}: {alg} {} vs FlowRadar {} accesses",
                    accesses[alg],
                    accesses["FlowRadar"]
                );
            }
        }
    }

    #[test]
    fn hashflow_costs_no_more_than_hashpipe_and_elastic() {
        // §IV-D: "HashFlow will perform comparably to HashPipe and
        // ElasticSketch, and much better than FlowRadar." Stated on the
        // per-packet counts that explain Fig. 11(a), not on a rate.
        let cfg = RunConfig::for_tests(0.05);
        let tables = run(&cfg);
        for trace in ["CAIDA", "Campus", "ISP1", "ISP2"] {
            for (col, what) in [(2, "hashes"), (3, "accesses")] {
                let per_packet = by_algorithm(&tables[0], trace, col);
                let hf = per_packet["HashFlow"];
                for alg in ["HashPipe", "ElasticSketch"] {
                    assert!(
                        hf <= per_packet[alg],
                        "{trace}: HashFlow {hf} vs {alg} {} {what} per packet",
                        per_packet[alg]
                    );
                }
            }
        }
    }

    #[test]
    fn hashes_within_worst_case_bounds() {
        let cfg = RunConfig::for_tests(0.05);
        let tables = run(&cfg);
        for trace in ["CAIDA", "Campus", "ISP1", "ISP2"] {
            let hashes = by_algorithm(&tables[0], trace, 2);
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
