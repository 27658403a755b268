//! Regenerates the `fig05_weights` exhibit: see `experiments::figs::fig05_weights`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
