//! Regenerates the `ablation_promotion` exhibit: see `experiments::figs::ablation_promotion`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
