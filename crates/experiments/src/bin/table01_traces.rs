//! Regenerates the `table01_traces` exhibit: see `experiments::figs::table01_traces`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
