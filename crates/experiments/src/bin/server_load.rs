//! Regenerates the `server_load` exhibit: see `experiments::figs::server_load`.
fn main() {
    experiments::main(env!("CARGO_BIN_NAME"));
}
