//! Regenerates the `query` exhibit: see `experiments::figs::query`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
