//! Regenerates the `overload` exhibit: see `experiments::figs::overload`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
