//! Regenerates the `equal_memory` exhibit: see `experiments::figs::equal_memory`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
