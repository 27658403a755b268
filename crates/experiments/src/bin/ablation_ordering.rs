//! Regenerates the `ablation_ordering` exhibit: see `experiments::figs::ablation_ordering`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
