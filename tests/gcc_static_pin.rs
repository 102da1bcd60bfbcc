//! Pins the static analysis of the paper-scale gcc analogue: the RDG
//! edge count, the LdSt slice and the Sastry-style static partition
//! (§3.3) that the `static` scheme steers by. The values were recorded
//! from the dense reaching-definitions builder; any RDG rewrite must
//! reproduce them exactly.

use dca::prog::{ldst_slice, Rdg};
use dca::steer::StaticPartition;
use dca::workloads::{build, Scale};

/// FNV-1a over the per-instruction cluster indices.
fn assignment_hash(part: &StaticPartition, len: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for sidx in 0..len as u32 {
        h ^= part.assignment(sidx).index() as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn gcc_static_analysis_is_pinned() {
    let w = build("gcc", Scale::Paper);
    let prog = &w.program;
    let rdg = Rdg::build(prog);
    let edges: usize = rdg.nodes().map(|n| rdg.parents(n).len()).sum();
    let back_edges: usize = rdg.nodes().map(|n| rdg.children(n).len()).sum();
    let slice = ldst_slice(prog, &rdg);
    let part = StaticPartition::analyze(prog);
    assert_eq!((prog.len(), prog.blocks().len()), (16_550, 2_303));
    assert_eq!(edges, 21_822, "RDG edge count");
    assert_eq!(back_edges, edges, "children mirror parents");
    assert_eq!(slice.inst_count(), 2_974, "LdSt slice instructions");
    assert_eq!(
        assignment_hash(&part, prog.len()),
        0x58ce_49a5_f037_bd9f,
        "static partition assignment"
    );
    assert_eq!(part.int_share(), 5_274.0 / 16_550.0, "integer share");
}
