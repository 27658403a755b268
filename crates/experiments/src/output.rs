//! Tabular experiment output: aligned stdout rendering plus CSV export,
//! and [`Output`], everything one exhibit run hands the shared entry.

use crate::bench::Bench;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// One cell of a result table.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label (trace name, algorithm name, ...).
    Text(String),
    /// An integer quantity (flow counts, thresholds, ...).
    Int(i64),
    /// A floating-point metric, rendered with four decimals.
    Float(f64),
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_owned())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Int(v as i64)
    }
}

impl From<u32> for Cell {
    fn from(v: u32) -> Self {
        Cell::Int(i64::from(v))
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Int(v as i64)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Float(v)
    }
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Int(v) => v.to_string(),
            Cell::Float(v) => format!("{v:.4}"),
        }
    }

    fn render_csv(&self) -> String {
        match self {
            Cell::Text(s) => {
                if s.contains(',') || s.contains('"') {
                    format!("\"{}\"", s.replace('"', "\"\""))
                } else {
                    s.clone()
                }
            }
            Cell::Int(v) => v.to_string(),
            Cell::Float(v) => format!("{v}"),
        }
    }
}

/// A named result table: one per figure panel or table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates an empty table called `name` with the given column headers.
    pub fn new(name: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            name: name.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// The table's name (used as the CSV file stem).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header count.
    pub fn push_row(&mut self, row: Vec<Cell>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {} in table {}",
            row.len(),
            self.headers.len(),
            self.name
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Returns rendered rows for assertions in tests.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// Renders an aligned, human-readable view.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::render).collect())
            .collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.name);
        let header_line: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        let _ = writeln!(out, "{}", header_line.join("  "));
        for row in &rendered {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Renders the CSV form.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(Cell::render_csv).collect();
            let _ = writeln!(out, "{}", line.join(","));
        }
        out
    }

    /// Writes `<dir>/<name>.csv`, creating the directory as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_csv(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// What one exhibit run hands the shared entry.
#[derive(Debug, Default)]
pub struct Output {
    /// Result tables: printed, and saved as CSV.
    pub tables: Vec<Table>,
    /// The perf exhibits' machine-readable record (`BENCH_<name>.json`).
    pub bench: Option<Bench>,
    /// What the exhibit's `check` rejected; any entry fails the binary.
    pub violations: Vec<String>,
}

impl From<Vec<Table>> for Output {
    fn from(tables: Vec<Table>) -> Self {
        Output {
            tables,
            ..Output::default()
        }
    }
}

/// Prints each table and saves it, and the `BENCH_*.json` record if
/// there is one, under `dir`.
pub fn emit(output: &Output, dir: &Path) {
    for t in &output.tables {
        println!("{}", t.render());
        match t.save_csv(dir) {
            Ok(path) => println!("   -> {}\n", path.display()),
            Err(e) => eprintln!("   !! failed to save {}: {e}\n", t.name()),
        }
    }
    if let Some(bench) = &output.bench {
        match bench.write(dir) {
            Ok(path) => println!("   -> {}\n", path.display()),
            Err(e) => eprintln!("   !! failed to write the bench record: {e}\n"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("unit", &["trace", "flows", "fsc"]);
        t.push_row(vec!["CAIDA".into(), 250_000usize.into(), 0.2184f64.into()]);
        t
    }

    #[test]
    fn render_contains_all_cells() {
        let r = sample().render();
        assert!(r.contains("CAIDA"));
        assert!(r.contains("250000"));
        assert!(r.contains("0.2184"));
        assert!(r.contains("== unit =="));
    }

    #[test]
    fn csv_round_layout() {
        let csv = sample().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("trace,flows,fsc"));
        assert_eq!(lines.next(), Some("CAIDA,250000,0.2184"));
    }

    #[test]
    fn csv_quotes_commas() {
        let mut t = Table::new("q", &["a"]);
        t.push_row(vec!["x,y".into()]);
        assert!(t.to_csv().contains("\"x,y\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("bad", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn save_csv_writes_file() {
        let dir = std::env::temp_dir().join("hashflow-output-test");
        let path = sample().save_csv(&dir).unwrap();
        let content = fs::read_to_string(path).unwrap();
        assert!(content.starts_with("trace,flows,fsc"));
    }
}
