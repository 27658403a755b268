//! Regenerates the `fig11_throughput` exhibit: see `experiments::figs::fig11_throughput`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
