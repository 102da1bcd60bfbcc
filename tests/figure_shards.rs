//! The CI `figures-paper-sharded` matrix lists figure ids by hand. Its
//! shards must partition `figures::all` exactly: every id in one shard,
//! none missing, none twice, none unknown.

use std::path::Path;

use dca_bench::figures;

#[test]
fn ci_shards_partition_the_figure_table() {
    let ci = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join(".github/workflows/ci.yml"),
    )
    .expect("CI workflow readable");
    let job = ci
        .split_once("\n  figures-paper-sharded:")
        .expect("figures-paper-sharded job")
        .1;
    let shards: Vec<&str> = job
        .lines()
        .filter_map(|l| l.trim().strip_prefix("ids:"))
        .collect();
    assert_eq!(shards.len(), 4, "expected four shards");
    let mut sharded: Vec<&str> = shards.iter().flat_map(|l| l.split_whitespace()).collect();
    sharded.sort_unstable();
    let mut want: Vec<&str> = figures::all_ids().collect();
    want.sort_unstable();
    assert_eq!(sharded, want, "CI shard ids must list every `figures all` id exactly once");
}
