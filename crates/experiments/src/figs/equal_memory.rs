//! Beyond the paper: the §IV equal-memory comparison regenerated over
//! the *enlarged* monitor zoo and the adversarial trace-regime matrix.
//!
//! The paper's §IV ranks four algorithms at the same memory budget on
//! CAIDA-calibrated heavy-tailed selections. This exhibit widens both
//! axes: all nine registered monitors (the paper's five plus Count-Min,
//! FCM, BeauCoup and the exact baseline) × the six-regime trace matrix
//! ([`REGIME_MATRIX`]: two calibrated profiles plus the uniform-flood,
//! single-elephant, churn-heavy and hash-collision-adversarial
//! regimes). One row per `(monitor, regime)` cell: FSC, size-estimation
//! ARE, cardinality RE, heavy-hitter F1 at the regime's threshold, and
//! hash cost per packet.
//!
//! The exact baseline plays ground truth *in band*: it runs under the
//! same memory accounting as everyone else and must report zero size
//! ARE and perfect F1 in every cell — which the embedded tests pin, so
//! the harness itself is checked every CI run. The run's record is
//! `BENCH_equal_memory.json`.

use crate::bench::Bench;
use crate::output::{Cell, Output, Table};
use crate::{setup, RunConfig};
use hashflow_collector::{AlgorithmKind, MonitorBuilder};
use hashflow_trace::{TraceRegime, REGIME_MATRIX};

/// One `(monitor, regime)` cell of the comparison matrix.
#[derive(Debug, Clone)]
pub struct MatrixRow {
    /// Monitor under test.
    pub monitor: &'static str,
    /// Trace regime the cell was measured on.
    pub regime: &'static str,
    /// Heavy-hitter threshold used for the F1 column.
    pub threshold: u32,
    /// Flow Set Coverage (0 by design for the estimate-only sketches).
    pub fsc: f64,
    /// Size-estimation ARE over all true flows.
    pub size_are: f64,
    /// Cardinality relative error.
    pub cardinality_re: f64,
    /// Heavy-hitter F1 at `threshold`.
    pub hh_f1: f64,
    /// Hash computations per packet (cost model, Fig. 11(b)).
    pub hashes_per_pkt: f64,
}

/// Runs the full zoo × regime matrix at the standard budget.
pub fn run(cfg: &RunConfig) -> Output {
    let budget = setup::standard_budget(cfg);
    let flows = cfg.scaled(60_000, 800);

    // One worker per regime (the trace is the expensive shared input);
    // regime order is preserved in the output.
    let mut per_regime: Vec<Option<Vec<MatrixRow>>> = Vec::new();
    for _ in REGIME_MATRIX {
        per_regime.push(None);
    }
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, regime) in REGIME_MATRIX.into_iter().enumerate() {
            handles.push((
                i,
                scope.spawn(move || regime_rows(cfg, regime, budget, flows)),
            ));
        }
        for (i, h) in handles {
            per_regime[i] = Some(h.join().expect("exhibit worker panicked"));
        }
    });
    let rows: Vec<MatrixRow> = per_regime
        .into_iter()
        .flat_map(|r| r.expect("all regimes measured"))
        .collect();

    let mut table = Table::new(
        "equal_memory",
        &[
            "monitor",
            "regime",
            "hh_threshold",
            "fsc",
            "size_are",
            "cardinality_re",
            "hh_f1",
            "hashes_per_pkt",
        ],
    );
    for row in &rows {
        table.push_row(vec![
            Cell::from(row.monitor),
            Cell::from(row.regime),
            Cell::Int(i64::from(row.threshold)),
            Cell::Float(row.fsc),
            Cell::Float(row.size_are),
            Cell::Float(row.cardinality_re),
            Cell::Float(row.hh_f1),
            Cell::Float(row.hashes_per_pkt),
        ]);
    }

    let bench = Bench::new("equal_memory", cfg, 1)
        .field("budget_bits", budget.bits())
        .field("flows_per_regime", flows)
        .field("monitors", AlgorithmKind::ALL.len())
        .field("regimes", REGIME_MATRIX.len())
        .table("cells", &table);
    Output {
        tables: vec![table],
        bench: Some(bench),
        violations: Vec::new(),
    }
}

/// Measures every registered monitor on one regime's trace.
fn regime_rows(
    cfg: &RunConfig,
    regime: TraceRegime,
    budget: hashflow_monitor::MemoryBudget,
    flows: usize,
) -> Vec<MatrixRow> {
    let trace = regime.generate(cfg.seed, flows);
    let threshold = regime.heavy_hitter_threshold();
    AlgorithmKind::ALL
        .into_iter()
        .map(|kind| {
            let mut monitor = MonitorBuilder::new(kind)
                .budget(budget)
                .seed(cfg.seed)
                .build()
                .unwrap_or_else(|e| panic!("standard budget fits {kind}: {e}"));
            let report = hashflow_metrics::evaluate(monitor.as_mut(), &trace, &[threshold]);
            MatrixRow {
                monitor: report.algorithm,
                regime: regime.name(),
                threshold,
                fsc: report.fsc,
                size_are: report.size_are,
                cardinality_re: report.cardinality_re,
                hh_f1: report.heavy_hitters[0].f1,
                hashes_per_pkt: report.cost.hashes as f64 / report.cost.packets.max(1) as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_the_full_zoo_and_regime_axes() {
        let out = run(&RunConfig::for_tests(0.02));
        assert_eq!(out.tables.len(), 1);
        assert_eq!(
            out.tables[0].len(),
            AlgorithmKind::ALL.len() * REGIME_MATRIX.len()
        );
        let json = out.bench.expect("equal_memory writes a record").render();
        assert!(json.contains("\"exhibit\": \"equal_memory\""));
        for regime in REGIME_MATRIX {
            assert!(json.contains(regime.name()), "missing {regime}");
        }
        for name in ["HashFlow", "CountMin", "FCM", "BeauCoup", "ExactBaseline"] {
            assert!(json.contains(name), "missing {name}");
        }
    }

    #[test]
    fn exact_baseline_is_in_band_ground_truth_in_every_cell() {
        let tables = run(&RunConfig::for_tests(0.02)).tables;
        let mut exact_cells = 0;
        for row in tables[0].rows() {
            let monitor = match &row[0] {
                Cell::Text(m) => m.as_str(),
                other => panic!("{other:?}"),
            };
            if monitor != "ExactBaseline" {
                continue;
            }
            exact_cells += 1;
            let (size_are, cardinality_re, f1) = match (&row[4], &row[5], &row[6]) {
                (Cell::Float(a), Cell::Float(c), Cell::Float(f)) => (*a, *c, *f),
                other => panic!("{other:?}"),
            };
            assert_eq!(size_are, 0.0, "exact baseline must have zero ARE");
            assert_eq!(cardinality_re, 0.0, "exact baseline cardinality");
            assert_eq!(f1, 1.0, "exact baseline heavy-hitter F1");
        }
        assert_eq!(exact_cells, REGIME_MATRIX.len());
    }
}
