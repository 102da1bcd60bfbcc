//! Smoke goldens: every report `dca figures` writes, pinned byte for
//! byte.
//!
//! `tests/golden/figures/<id>.md` holds the report of every figure in
//! `figures::all` plus `nclusters`, rendered at a small smoke budget
//! with no store. This test renders each one in-process with the same
//! options and compares [`Figure::document`] with the file, so a change
//! that shifts any report fails here rather than in a hand check.
//!
//! A change that means to move timing or a report updates the files in
//! the same commit and says why. To regenerate them, from the repo root:
//!
//! ```text
//! cargo run --release -p dca-cli -- figures all nclusters --scale smoke --max-insts 20000 --no-store -q
//! cp results/*.md tests/golden/figures/
//! ```

use std::collections::BTreeSet;
use std::path::Path;

use dca_bench::figures::{self, Figure};
use dca_bench::{Lab, RunOpts};

const ARGS: [&str; 5] = ["--scale", "smoke", "--max-insts", "20000", "--no-store"];

/// The first line on which `got` and `want` differ, 1-based, with both
/// sides.
fn first_difference(got: &str, want: &str) -> String {
    let (mut g, mut w) = (got.lines(), want.lines());
    for n in 1.. {
        match (g.next(), w.next()) {
            (Some(a), Some(b)) if a == b => {}
            (None, None) => return "the line endings differ".into(),
            (a, b) => {
                return format!(
                    "line {n}:\n  rendered: {}\n  golden:   {}",
                    a.unwrap_or("<end of report>"),
                    b.unwrap_or("<end of report>")
                )
            }
        }
    }
    unreachable!()
}

#[test]
fn smoke_reports_match_the_goldens() {
    let (opts, rest) = RunOpts::parse(ARGS.map(String::from)).expect("valid options");
    assert!(rest.is_empty());
    let mut lab = Lab::new(opts);
    let mut rendered: Vec<Figure> = figures::all(&mut lab);
    rendered.push(figures::by_name("nclusters").expect("nclusters is a figure")(&mut lab));

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/figures");
    let mut mismatches = Vec::new();
    for fig in &rendered {
        let path = dir.join(format!("{}.md", fig.id));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: no golden at {}: {e}", fig.id, path.display()));
        let got = fig.document();
        if got != want {
            mismatches.push(format!("{}: {}", fig.id, first_difference(&got, &want)));
        }
    }
    assert!(mismatches.is_empty(), "reports drifted from the goldens:\n{}", mismatches.join("\n"));

    // No golden outlives its figure.
    let ids: BTreeSet<String> = rendered.iter().map(|f| format!("{}.md", f.id)).collect();
    let files: BTreeSet<String> = std::fs::read_dir(&dir)
        .expect("golden dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(files, ids, "golden files and rendered figure ids differ");
}
