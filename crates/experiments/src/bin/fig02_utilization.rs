//! Regenerates the `fig02_utilization` exhibit: see `experiments::figs::fig02_utilization`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
