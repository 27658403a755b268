//! Regenerates the `scaling_shards` exhibit: see `experiments::figs::scaling_shards`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
