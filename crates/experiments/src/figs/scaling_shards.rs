//! Beyond the paper: multi-core shard scaling of HashFlow ingestion.
//!
//! The paper's throughput exhibit (Fig. 11) runs every algorithm on one
//! bmv2 core; this exhibit measures what the `hashflow-shard` scale-out
//! layer adds on top. A `ShardedMonitor<HashFlow>` at N = 1/2/4/8 shards
//! replays the CAIDA-profile trace under **one shared memory budget**
//! (split equally, summing to at most the single-monitor budget) and
//! reports, per shard count:
//!
//! * `native_kpps` — the threaded ingest (`ShardedMonitor::ingest`: one
//!   dispatcher, N workers) by this machine's wall clock;
//! * `serial_kpps` — the serial batched path (`process_batch` on one
//!   thread: split, then every shard in turn) by the same clock;
//! * `imbalance` — busiest shard's packet share over the ideal share;
//! * `dispatch_share` — the RSS split alone over the serial pass (the
//!   Amdahl term that bounds what more cores could buy).
//!
//! Every column is a measurement on the machine that ran it (the least
//! disturbed of [`TRIALS`] replays); nothing is extrapolated to cores it
//! does not have.
//!
//! The run's record is `BENCH_shard.json`. Its rows keep the whole
//! quietest replay rather than each column's best ([`crate::bench::best_of`]),
//! so every row's columns come from one run.

use crate::bench::Bench;
use crate::output::{Cell, Output, Table};
use crate::{setup, RunConfig};
use hashflow_core::HashFlow;
use hashflow_shard::ShardedMonitor;
use hashflow_trace::TraceProfile;
use simswitch::{ShardedReplayReport, SoftwareSwitch};

/// Shard counts of the scaling sweep.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Replays per shard count; the least disturbed one (shortest threaded
/// plus serial wall clock) is the row.
pub const TRIALS: usize = 3;

/// Runs the shard-scaling sweep on the CAIDA profile.
pub fn run(cfg: &RunConfig) -> Output {
    let flows = cfg.scaled(100_000, 2_000);
    let budget = setup::standard_budget(cfg);
    let switch = SoftwareSwitch::default();
    let trace = setup::trace_for(cfg, TraceProfile::Caida, flows);

    let reports: Vec<(usize, ShardedReplayReport)> = SHARD_COUNTS
        .iter()
        .map(|&shards| {
            let mut monitor =
                ShardedMonitor::with_budget(shards, budget, |_, b| HashFlow::with_memory(b))
                    .expect("standard budget splits across the sweep's shard counts");
            let quietest = (0..TRIALS)
                .map(|_| switch.replay_sharded(&mut monitor, &trace))
                .min_by_key(|r| r.native_elapsed_ns + r.serial_elapsed_ns)
                .expect("at least one trial");
            (shards, quietest)
        })
        .collect();

    let mut table = Table::new(
        "scaling_shards",
        &[
            "trace",
            "shards",
            "packets",
            "native_kpps",
            "serial_kpps",
            "imbalance",
            "dispatch_share",
        ],
    );
    for (shards, report) in &reports {
        table.push_row(vec![
            Cell::from("CAIDA"),
            Cell::from(*shards),
            Cell::from(report.packets),
            Cell::Float(report.native_pps / 1e3),
            Cell::Float(report.serial_pps / 1e3),
            Cell::Float(report.imbalance),
            Cell::Float(report.dispatch_elapsed_ns as f64 / report.serial_elapsed_ns as f64),
        ]);
    }

    let bench = Bench::new("shard", cfg, TRIALS)
        .field("flows", flows)
        .field("budget_bytes", budget.bytes())
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

    fn column(table: &Table, shards: i64, col: usize) -> f64 {
        for row in table.rows() {
            if let (Cell::Int(s), Cell::Float(v)) = (&row[1], &row[col]) {
                if *s == shards {
                    return *v;
                }
            }
        }
        panic!("no row for {shards} shards");
    }

    #[test]
    fn sweep_covers_all_shard_counts() {
        let tables = run(&RunConfig::for_tests(0.05)).tables;
        assert_eq!(tables[0].len(), SHARD_COUNTS.len());
        for &n in &SHARD_COUNTS {
            assert!(column(&tables[0], n as i64, 3) > 0.0, "threaded rate");
            assert!(column(&tables[0], n as i64, 4) > 0.0, "serial rate");
            assert!(column(&tables[0], n as i64, 5) >= 1.0, "imbalance");
        }
        // A single shard pays no dispatch at all.
        assert_eq!(column(&tables[0], 1, 6), 0.0);
    }

    #[test]
    fn dispatch_share_is_the_minor_term() {
        let tables = run(&RunConfig::for_tests(0.05)).tables;
        // Loose bar in debug builds: contended-runner noise and the lack
        // of inlining both inflate the dispatch share there.
        let bar = if cfg!(debug_assertions) { 0.9 } else { 0.5 };
        for &n in &[2usize, 4, 8] {
            let share = column(&tables[0], n as i64, 6);
            assert!(
                share < bar,
                "dispatch must stay cheaper than measurement, got {share} at N={n}"
            );
        }
    }

    #[test]
    fn bench_record_is_emitted_with_rows() {
        let out = run(&RunConfig::for_tests(0.05));
        let json = out.bench.expect("scaling_shards writes a record").render();
        assert!(json.contains("\"exhibit\": \"shard\""));
        assert!(json.contains("\"shards\":8,"));
        assert!(json.contains("native_kpps") && json.contains("serial_kpps"));
    }
}
