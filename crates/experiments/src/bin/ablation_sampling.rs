//! Regenerates the `ablation_sampling` exhibit: see `experiments::figs::ablation_sampling`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
