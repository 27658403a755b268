//! Regenerates the `fig06_fsc` exhibit: see `experiments::figs::fig06_fsc`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
