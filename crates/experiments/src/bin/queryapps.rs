//! Regenerates the `queryapps` exhibit: see `experiments::figs::queryapps`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
