//! The one harness behind every perf exhibit: how a number is timed
//! ([`best_of`]), stamped ([`Bench::new`]) and written
//! ([`Bench::write`], [`Bench::publish`]).
//!
//! A `BENCH_<name>.json` file is one object: the stamp (`exhibit`, `cpu`,
//! `kernel_copy`, `scale`, `trials`), the exhibit's own setup fields, and
//! one or more row lists — each row an exhibit table's row, one per line
//! so a regenerated file diffs row by row. Values go through
//! [`hashflow_obs::json`], so a non-finite rate is `null`, never `inf`.

use crate::output::{Cell, Table};
use crate::RunConfig;
use hashflow_obs::json::{self, Obj};
use std::fmt::Display;
use std::path::{Path, PathBuf};

/// Runs `trial` `trials` times and keeps, arm by arm, the shortest wall
/// clock (nanoseconds) — the noise-robust estimator for short serial
/// timings. A trial measures its arms back to back, so transient machine
/// noise lands on every arm of a comparison instead of biasing whichever
/// ran later.
pub fn best_of<const N: usize>(trials: usize, mut trial: impl FnMut() -> [u128; N]) -> [u128; N] {
    let mut best = [u128::MAX; N];
    for _ in 0..trials {
        for (best, ns) in best.iter_mut().zip(trial()) {
            *best = (*best).min(ns);
        }
    }
    best
}

/// `packets` over `ns` nanoseconds in Kpps; infinite for a zero clock
/// (written as `null`).
pub fn kpps(packets: u64, ns: u128) -> f64 {
    if ns == 0 {
        f64::INFINITY
    } else {
        packets as f64 * 1e6 / ns as f64
    }
}

/// A `BENCH_<name>.json` document under construction.
#[derive(Debug)]
pub struct Bench {
    name: &'static str,
    fields: Vec<(&'static str, String)>,
}

impl Bench {
    /// A stamped document for exhibit `name`: the CPU, the lane-kernel
    /// copy pass 1 runs through on it, the run's scale, and how many
    /// timed trials each number is the best of.
    pub fn new(name: &'static str, cfg: &RunConfig, trials: usize) -> Self {
        Bench {
            name,
            fields: Vec::new(),
        }
        .str("exhibit", name)
        .str("cpu", &cpu_model())
        .str("kernel_copy", hashflow_hashing::KernelCopy::best().name())
        .field("scale", cfg.scale)
        .field("trials", trials)
    }

    /// Adds a setup field whose value is a number or rendered JSON.
    #[must_use]
    pub fn field(mut self, key: &'static str, value: impl Display) -> Self {
        self.fields.push((key, value.to_string()));
        self
    }

    /// Adds a string setup field.
    #[must_use]
    pub fn str(self, key: &'static str, value: &str) -> Self {
        self.field(key, json::string(value))
    }

    /// Adds `table`'s rows as the list `key`: one object per row, keyed
    /// by the table's headers.
    #[must_use]
    pub fn table(self, key: &'static str, table: &Table) -> Self {
        let rows: Vec<String> = table
            .rows()
            .iter()
            .map(|row| {
                let obj = table
                    .headers()
                    .iter()
                    .zip(row)
                    .fold(Obj::new(), |obj, (h, cell)| match cell {
                        Cell::Text(s) => obj.str(h, s),
                        Cell::Int(v) => obj.raw(h, v.to_string()),
                        Cell::Float(v) => obj.f64(h, *v),
                    });
                format!("    {}", obj.build())
            })
            .collect();
        self.field(key, format!("[\n{}\n  ]", rows.join(",\n")))
    }

    /// The document, one field per line and one row per line.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(key, value)| format!("  {}: {value}", json::string(key)))
            .collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }

    /// Writes `BENCH_<name>.json` under `dir`, creating it as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.render())?;
        Ok(path)
    }

    /// Copies the file [`Self::write`] left under `dir` to the working
    /// directory, where the committed perf trajectory lives.
    pub fn publish(&self, dir: &Path) {
        let file = self.file_name();
        match std::fs::copy(dir.join(&file), &file) {
            Ok(_) => println!("   -> {file}"),
            Err(e) => eprintln!("   !! failed to copy {file}: {e}"),
        }
    }

    fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }
}

/// The host's CPU model as `/proc/cpuinfo` names it; `"unknown"` where
/// there is no such file.
fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let line = info.lines().find(|l| l.starts_with("model name"));
    let model = line.and_then(|l| l.split_once(':')).map(|(_, m)| m.trim());
    model.unwrap_or("unknown").to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Bench {
        let mut table = Table::new("t", &["path", "packets", "kpps"]);
        table.push_row(vec!["scalar".into(), 10u64.into(), kpps(10, 0).into()]);
        table.push_row(vec!["batched".into(), 10u64.into(), kpps(10, 2_000).into()]);
        Bench::new("unit", &RunConfig::for_tests(0.5), 3)
            .field("top_k", 100)
            .table("rows", &table)
    }

    #[test]
    fn best_of_keeps_each_arms_shortest_clock() {
        let mut clocks = [[5, 9], [7, 4], [6, 6]].into_iter();
        assert_eq!(best_of(3, || clocks.next().unwrap()), [5, 4]);
    }

    #[test]
    fn non_finite_rates_are_null_not_inf() {
        let text = sample().render();
        assert!(text.contains("{\"path\":\"scalar\",\"packets\":10,\"kpps\":null}"));
        assert!(text.contains("\"kpps\":5000}"));
        assert!(!text.contains(":inf"), "{text}");
    }

    #[test]
    fn one_field_and_one_row_per_line() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{");
        assert_eq!(lines[1], "  \"exhibit\": \"unit\",");
        assert!(lines.contains(&"  \"top_k\": 100,"));
        assert_eq!(lines.iter().filter(|l| l.starts_with("    {")).count(), 2);
        assert_eq!(lines.last(), Some(&"}"));
    }

    #[test]
    fn written_file_carries_the_stamp() {
        let dir = std::env::temp_dir().join("hashflow-bench-writer-test");
        let path = sample().write(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "BENCH_unit.json");
        let text = std::fs::read_to_string(path).unwrap();
        for key in ["cpu", "kernel_copy", "scale", "trials"] {
            assert!(text.contains(&format!("  \"{key}\": ")), "missing {key}");
        }
        assert!(text.contains("\"scale\": 0.5,") && text.contains("\"trials\": 3,"));
    }
}
