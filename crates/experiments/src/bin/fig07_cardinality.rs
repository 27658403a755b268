//! Regenerates the `fig07_cardinality` exhibit: see `experiments::figs::fig07_cardinality`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
