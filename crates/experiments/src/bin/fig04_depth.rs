//! Regenerates the `fig04_depth` exhibit: see `experiments::figs::fig04_depth`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
