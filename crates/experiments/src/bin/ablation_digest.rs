//! Regenerates the `ablation_digest` exhibit: see `experiments::figs::ablation_digest`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
