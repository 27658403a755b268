//! Regenerates the `fig08_size_are` exhibit: see `experiments::figs::fig08_size_are`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
