//! Regenerates the `overhead` exhibit: see `experiments::figs::overhead`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
