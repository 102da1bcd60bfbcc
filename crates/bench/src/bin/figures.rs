//! Regenerates every table and figure (or a named subset):
//! `cargo run -p dca-bench --release --bin figures -- [ids...] [--scale smoke|default|full]`.
fn main() {
    dca_bench::run_cli();
}
