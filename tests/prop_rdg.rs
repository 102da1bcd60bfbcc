//! The register dependence graph against an independent reference on
//! random multi-block control flow.
//!
//! `Rdg::build` computes reaching definitions per block and links uses
//! inside each block. The oracle here shares none of that: for every
//! register use it walks the instruction-level CFG backwards from the
//! using instruction and stops each path at the first definition of
//! the register. The def sites it stops at are exactly the definitions
//! that reach the use along some path, i.e. the use's RDG parents.
//! Random programs cover joins, partial kills across blocks, nested
//! back edges, redefinitions, loads, stores and `r0` operands.

use dca::isa::{Inst, Label, Reg};
use dca::prog::{Block, NodeId, Program, Rdg, StaticInst};
use proptest::prelude::*;

/// Integer register pool: `r0` (never a dependence) and `r1`–`r4`,
/// so redefinitions and cross-block kills are frequent.
fn ireg(i: u8) -> Reg {
    match i % 5 {
        0 => Reg::ZERO,
        n => Reg::int(n),
    }
}

/// FP register pool `f0`–`f2` (flat indices past the integer bank).
fn freg(i: u8) -> Reg {
    Reg::fp(i % 3)
}

/// Random programs of 1–8 blocks. Each block has up to 5 body
/// instructions and ends in a fallthrough, a conditional branch, a
/// jump or `halt`; branch and jump targets are any block, so both
/// forward edges and (nested) back edges appear.
fn arb_cfg_program() -> impl Strategy<Value = Program> {
    let body = proptest::collection::vec((0u8..11, 0u8..5, 0u8..5, 0u8..5), 0..6);
    proptest::collection::vec((body, 0u8..5, 0u32..16, 0u8..5, 0u8..5), 1..9).prop_map(|specs| {
        let nblocks = specs.len();
        let blocks = specs
            .into_iter()
            .enumerate()
            .map(|(bi, (body, term, tgt, a, b))| {
                let mut insts: Vec<Inst> = body
                    .into_iter()
                    .map(|(kind, d, x, y)| match kind {
                        0 => Inst::add(ireg(d), ireg(x), ireg(y)),
                        1 => Inst::xor(ireg(d), ireg(x), ireg(y)),
                        2 => Inst::ld(ireg(d), ireg(x), 8),
                        3 => Inst::st(ireg(x), ireg(y), 16),
                        4 => Inst::li(ireg(d), 7),
                        5 => Inst::addi(ireg(d), ireg(x), 1),
                        6 => Inst::fadd(freg(d), freg(x), freg(y)),
                        7 => Inst::fld(freg(d), ireg(x), 24),
                        8 => Inst::fst(freg(x), ireg(y), 32),
                        9 => Inst::cvtif(freg(d), ireg(x)),
                        _ => Inst::cvtfi(ireg(d), freg(x)),
                    })
                    .collect();
                let target = Label(tgt % nblocks as u32);
                // The last block must not fall through past the end.
                let last = bi + 1 == nblocks;
                let term = if last && term != 4 { 3 } else { term };
                match term {
                    0 if insts.is_empty() => insts.push(Inst::nop()),
                    0 => {}
                    1 => insts.push(Inst::beq(ireg(a), ireg(b), target)),
                    2 => insts.push(Inst::bne(ireg(a), ireg(b), target)),
                    3 => insts.push(Inst::j(target)),
                    _ => insts.push(Inst::halt()),
                }
                Block::new(format!("b{bi}"), insts)
            })
            .collect();
        Program::from_blocks(blocks).expect("valid random CFG program")
    })
}

/// The node defining `si`'s destination register, if any.
fn def_of(si: &StaticInst) -> Option<(Reg, NodeId)> {
    let node = if si.inst.op.is_load() {
        NodeId::access(si.sidx)
    } else {
        NodeId::main(si.sidx)
    };
    si.inst.effective_dst().map(|r| (r, node))
}

/// The `(use node, register)` pairs of `si`.
fn uses_of(si: &StaticInst) -> Vec<(NodeId, Reg)> {
    let nonzero = |r: Option<Reg>| r.filter(|r| !r.is_zero());
    let mut out = Vec::new();
    if si.inst.op.is_mem() {
        if let Some(base) = nonzero(si.inst.src1) {
            out.push((NodeId::main(si.sidx), base));
        }
        if si.inst.op.is_store() {
            if let Some(data) = nonzero(si.inst.src2) {
                out.push((NodeId::access(si.sidx), data));
            }
        }
    } else {
        for r in [si.inst.src1, si.inst.src2] {
            if let Some(r) = nonzero(r) {
                out.push((NodeId::main(si.sidx), r));
            }
        }
    }
    out
}

/// Brute-force RDG: `(parents, children)` per node index, sorted and
/// deduplicated.
fn oracle(prog: &Program) -> (Vec<Vec<NodeId>>, Vec<Vec<NodeId>>) {
    let insts = prog.static_insts();
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); insts.len()];
    for si in insts {
        for s in [si.fallthrough, si.target].into_iter().flatten() {
            preds[s as usize].push(si.sidx);
        }
    }
    let mut parents = vec![Vec::new(); insts.len() * 2];
    let mut children = vec![Vec::new(); insts.len() * 2];
    for si in insts {
        for (node, r) in uses_of(si) {
            // Backward search from the instruction's predecessors: its
            // own def (if any) happens after its reads, and reaches
            // them only around a loop.
            let mut seen = vec![false; insts.len()];
            let mut stack = preds[si.sidx as usize].clone();
            while let Some(j) = stack.pop() {
                if std::mem::replace(&mut seen[j as usize], true) {
                    continue;
                }
                match def_of(&insts[j as usize]) {
                    Some((d, def)) if d == r => {
                        parents[node.index()].push(def);
                        children[def.index()].push(node);
                    }
                    _ => stack.extend(&preds[j as usize]),
                }
            }
        }
    }
    for v in parents.iter_mut().chain(children.iter_mut()) {
        v.sort_unstable();
        v.dedup();
    }
    (parents, children)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every node's parents and children equal the path-search oracle's.
    #[test]
    fn rdg_matches_path_search_oracle(prog in arb_cfg_program()) {
        let rdg = Rdg::build(&prog);
        let (parents, children) = oracle(&prog);
        prop_assert_eq!(rdg.node_count(), parents.len());
        for node in rdg.nodes() {
            prop_assert_eq!(
                rdg.parents(node),
                parents[node.index()].as_slice(),
                "parents of {:?} in\n{:?}",
                node,
                prog.blocks()
            );
            prop_assert_eq!(
                rdg.children(node),
                children[node.index()].as_slice(),
                "children of {:?}",
                node
            );
        }
    }
}
