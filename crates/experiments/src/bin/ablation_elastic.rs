//! Regenerates the `ablation_elastic` exhibit: see `experiments::figs::ablation_elastic`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
