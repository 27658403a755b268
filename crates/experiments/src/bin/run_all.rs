//! Regenerates every exhibit under `HF_OUT_DIR` (default
//! `target/experiments/`) plus a `REPORT.md`; `HF_SCALE=0.1` makes it a
//! fast smoke run. See `experiments::run_all`.
fn main() {
    experiments::run_all();
}
