//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§IV) from the workspace's implementations.
//!
//! Each module under [`figs`] corresponds to one exhibit, listed in
//! [`figs::EXHIBITS`]; every binary under `src/bin` is one call to
//! [`main`] with its own name, and `run_all` is [`run_all`] over the whole
//! list. Output goes to stdout (aligned, human-readable) and to
//! `target/experiments/*.csv`; the perf exhibits also write their
//! `BENCH_*.json` record there ([`mod@bench`]).
//!
//! Scale: set `HF_SCALE` (default `1.0`, full paper scale) to shrink both
//! the traffic and the memory budget proportionally — load factors, and
//! therefore every qualitative result, are preserved. `HF_SCALE=0.1` runs
//! the whole suite in well under a minute.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod chart;
pub mod figs;
pub mod output;
pub mod report;
pub mod setup;

use figs::{Exhibit, EXHIBITS};
use std::path::PathBuf;
use std::time::Instant;

/// The entry of every exhibit binary: reads the [`RunConfig`], runs the
/// exhibit called `name`, prints and saves its tables and record, copies
/// the record to the working directory, and exits with status 2 if the
/// exhibit's `check` rejected a row.
///
/// # Panics
///
/// Panics if no exhibit is called `name`.
pub fn main(name: &str) {
    let exhibit = EXHIBITS
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no exhibit called {name}"));
    let cfg = RunConfig::from_env();
    println!("running {name} (scale {}, seed {})\n", cfg.scale, cfg.seed);
    let output = regenerate(&cfg, exhibit);
    if let Some(bench) = &output.bench {
        bench.publish(&cfg.out_dir);
    }
    gate(&output.violations);
}

/// Regenerates every exhibit of [`EXHIBITS`] in order under `HF_OUT_DIR`
/// (`BENCH_*.json` records included, left there rather than copied) plus
/// a `REPORT.md` of all their tables, then exits with status 2 if any
/// exhibit's `check` rejected a row.
pub fn run_all() {
    let cfg = RunConfig::from_env();
    println!(
        "regenerating all exhibits (scale {}, seed {}) -> {}\n",
        cfg.scale,
        cfg.seed,
        cfg.out_dir.display()
    );
    let mut tables = Vec::new();
    let mut violations = Vec::new();
    for exhibit in &EXHIBITS {
        let start = Instant::now();
        let output = regenerate(&cfg, exhibit);
        println!("[{}] done in {:.1?}\n", exhibit.name, start.elapsed());
        tables.extend(output.tables);
        violations.extend(output.violations);
    }
    match report::save_report(&tables, &cfg.out_dir) {
        Ok(path) => println!("report -> {}", path.display()),
        Err(e) => eprintln!("failed to write report: {e}"),
    }
    gate(&violations);
}

fn regenerate(cfg: &RunConfig, exhibit: &Exhibit) -> output::Output {
    let output = (exhibit.run)(cfg);
    output::emit(&output, &cfg.out_dir);
    output
}

/// Exits with status 2 after naming each violation, if there are any.
fn gate(violations: &[String]) {
    for v in violations {
        eprintln!("check failed: {v}");
    }
    if !violations.is_empty() {
        std::process::exit(2);
    }
}

/// Shared run parameters for all experiments.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Multiplier on trace sizes and memory budgets (1.0 = paper scale).
    pub scale: f64,
    /// Directory CSV series are written to.
    pub out_dir: PathBuf,
    /// Base RNG seed; vary to re-run trials with fresh hash functions and
    /// traces.
    pub seed: u64,
    /// Independent trials per data point (distinct seeds, metrics
    /// averaged). The paper plots single runs; trials > 1 averages away
    /// seed noise.
    pub trials: usize,
}

impl RunConfig {
    /// Reads the configuration from the environment (`HF_SCALE`, `HF_SEED`,
    /// `HF_OUT_DIR`, `HF_TRIALS`), falling back to paper-scale defaults.
    pub fn from_env() -> Self {
        let scale = std::env::var("HF_SCALE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| *s > 0.0 && s.is_finite())
            .unwrap_or(1.0);
        let seed = std::env::var("HF_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(20_190_707);
        let out_dir = std::env::var("HF_OUT_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/experiments"));
        let trials = std::env::var("HF_TRIALS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|t| *t >= 1)
            .unwrap_or(1);
        RunConfig {
            scale,
            out_dir,
            seed,
            trials,
        }
    }

    /// Seed for trial `t` (trial 0 is the base seed).
    pub fn trial_seed(&self, t: usize) -> u64 {
        self.seed.wrapping_add((t as u64).wrapping_mul(0x9e37_79b9))
    }

    /// A configuration for tests: small scale, temp-less (unsaved) output.
    pub fn for_tests(scale: f64) -> Self {
        RunConfig {
            scale,
            out_dir: std::env::temp_dir().join("hashflow-experiments-test"),
            seed: 7,
            trials: 1,
        }
    }

    /// Scales a paper-sized quantity, keeping at least `min`.
    pub fn scaled(&self, paper_value: usize, min: usize) -> usize {
        ((paper_value as f64 * self.scale).round() as usize).max(min)
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scale: 1.0,
            out_dir: PathBuf::from("target/experiments"),
            seed: 20_190_707,
            trials: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_respects_minimum() {
        let cfg = RunConfig::for_tests(0.001);
        assert_eq!(cfg.scaled(250_000, 500), 500);
        assert_eq!(cfg.scaled(1_000_000, 1), 1_000);
    }

    #[test]
    fn default_is_paper_scale() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.scale, 1.0);
        assert_eq!(cfg.scaled(250_000, 1), 250_000);
        assert_eq!(cfg.trials, 1);
    }

    #[test]
    fn every_binary_is_one_exhibit() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut bins: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                e.unwrap()
                    .path()
                    .file_stem()
                    .unwrap()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|name| name != "run_all")
            .collect();
        bins.sort();
        let mut names: Vec<&str> = EXHIBITS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        assert_eq!(bins, names);
    }

    #[test]
    fn trial_seeds_are_distinct() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.trial_seed(0), cfg.seed);
        assert_ne!(cfg.trial_seed(1), cfg.trial_seed(2));
    }
}
