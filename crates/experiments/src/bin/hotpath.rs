//! Regenerates the `hotpath` exhibit: see `experiments::figs::hotpath`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
