//! Regenerates the `fig09_hh_f1` exhibit: see `experiments::figs::fig09_hh_f1`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
