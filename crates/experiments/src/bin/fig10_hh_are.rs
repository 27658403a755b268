//! Regenerates the `fig10_hh_are` exhibit: see `experiments::figs::fig10_hh_are`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
