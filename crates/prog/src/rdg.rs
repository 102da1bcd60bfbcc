//! The register dependence graph (RDG) of the paper's §3.1.
//!
//! > "The register dependence graph represents all register dependences
//! > in a program. It is a directed graph that has a node associated to
//! > each static instruction and an edge for every data dependence
//! > (true dependence) through a register. Memory instructions are
//! > special cases since they are split into two **disconnected**
//! > nodes, one representing the address calculation and the other the
//! > memory access."
//!
//! An edge `d -> u` exists iff the definition of register `r` at node
//! `d` reaches the use of `r` at node `u` along some control-flow path.
//! [`Rdg::build`] computes this with a sparse reaching-definitions
//! pass over basic blocks:
//!
//! - **Register-grouped def ids.** Def sites are numbered so that each
//!   register's defs form one contiguous id range, in program order
//!   within it. "Every def of `r`" is then a bit range, not a list.
//! - **Kill masks.** A block is summarised by a `u64` mask of the
//!   registers it defines ([`Reg::FLAT_COUNT`] is 64) and its last def
//!   of each. Its transfer function clears the killed registers' ranges
//!   word by word and sets those last defs; the fixpoint iterates it
//!   over one flat `out` bitset per block.
//! - **Local-def shortcut.** Inside a block, a use whose register was
//!   already defined earlier in the block has exactly that one parent.
//!   Only the other uses walk the set bits of the block's live-in set
//!   within their register's range.
//!
//! No def or use scans the other defs of its register, so gcc's 16.5k
//! static instructions build in milliseconds.

use std::ops::Range;

use dca_isa::Reg;

use crate::{Program, StaticInst};

/// Which half of a static instruction a node represents.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum NodePart {
    /// The instruction itself — for memory instructions, the
    /// effective-address calculation.
    Main,
    /// The memory access of a load/store (a load's access *defines*
    /// the destination register; a store's access *uses* the data
    /// register). Disconnected from the [`NodePart::Main`] node.
    Access,
}

/// A node of the [`Rdg`]: a `(static instruction, part)` pair with a
/// dense `u32` encoding (`sidx * 2 + part`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Node for the main part (or EA calculation) of instruction `sidx`.
    pub fn main(sidx: u32) -> NodeId {
        NodeId(sidx * 2)
    }

    /// Node for the memory-access part of instruction `sidx`.
    pub fn access(sidx: u32) -> NodeId {
        NodeId(sidx * 2 + 1)
    }

    /// The static instruction index this node belongs to.
    pub fn sidx(self) -> u32 {
        self.0 / 2
    }

    /// Which part of the instruction this node is.
    pub fn part(self) -> NodePart {
        if self.0.is_multiple_of(2) {
            NodePart::Main
        } else {
            NodePart::Access
        }
    }

    /// Dense index, suitable for `Vec` lookup tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Marks an empty def-id slot.
const NO_DEF: u32 = u32::MAX;

// A block's kill set is a `u64` with one bit per register.
const _: () = assert!(Reg::FLAT_COUNT <= 64);

/// Def sites numbered so that each register's defs form one contiguous
/// id range, `start[r]..start[r + 1]`.
struct DefIds {
    start: [usize; Reg::FLAT_COUNT + 1],
    /// The defining node, by def id.
    node: Vec<NodeId>,
    /// The def id of each static instruction, or [`NO_DEF`].
    at: Vec<u32>,
}

impl DefIds {
    fn number(insts: &[StaticInst]) -> DefIds {
        let mut start = [0usize; Reg::FLAT_COUNT + 1];
        for si in insts {
            if let Some(dst) = si.inst.effective_dst() {
                start[dst.flat_index() + 1] += 1;
            }
        }
        for r in 0..Reg::FLAT_COUNT {
            start[r + 1] += start[r];
        }
        let mut next = start;
        let mut node = vec![NodeId(0); start[Reg::FLAT_COUNT]];
        let mut at = vec![NO_DEF; insts.len()];
        for si in insts {
            if let Some(dst) = si.inst.effective_dst() {
                let id = next[dst.flat_index()];
                next[dst.flat_index()] += 1;
                // A load's destination is written by its access node.
                node[id] = if si.inst.op.is_load() {
                    NodeId::access(si.sidx)
                } else {
                    NodeId::main(si.sidx)
                };
                at[si.sidx as usize] = id as u32;
            }
        }
        DefIds { start, node, at }
    }

    /// The id range of register `r`'s defs.
    fn of_reg(&self, r: usize) -> Range<usize> {
        self.start[r]..self.start[r + 1]
    }
}

/// A block's reaching-definitions transfer function.
struct Transfer {
    /// Registers the block defines (bit = flat register index).
    kill: u64,
    /// The block's last def id of each register in `kill`.
    gen: Vec<u32>,
}

impl Transfer {
    /// `set = gen ∪ (set − kill)`.
    fn apply(&self, set: &mut [u64], defs: &DefIds) {
        let mut kill = self.kill;
        while kill != 0 {
            clear_range(set, defs.of_reg(kill.trailing_zeros() as usize));
            kill &= kill - 1;
        }
        for &d in &self.gen {
            set[d as usize / 64] |= 1 << (d % 64);
        }
    }
}

/// Clears bits `r` of `set`.
fn clear_range(set: &mut [u64], r: Range<usize>) {
    if r.is_empty() {
        return;
    }
    let (first, last) = (r.start / 64, (r.end - 1) / 64);
    let head = !0u64 << (r.start % 64);
    let tail = !0u64 >> (63 - (r.end - 1) % 64);
    if first == last {
        set[first] &= !(head & tail);
    } else {
        set[first] &= !head;
        set[first + 1..last].fill(0);
        set[last] &= !tail;
    }
}

/// Calls `f` with every set bit of `set` within `r`, in order.
fn for_each_set(set: &[u64], r: Range<usize>, mut f: impl FnMut(usize)) {
    if r.is_empty() {
        return;
    }
    let (first, last) = (r.start / 64, (r.end - 1) / 64);
    for (w, &word) in set.iter().enumerate().take(last + 1).skip(first) {
        let mut bits = word;
        if w == first {
            bits &= !0u64 << (r.start % 64);
        }
        if w == last {
            bits &= !0u64 >> (63 - (r.end - 1) % 64);
        }
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// `set = ∪ out[p]` over the predecessors `preds`, where block `p`'s
/// set is the `p`-th `set.len()`-word row of `out`.
fn union_of(set: &mut [u64], preds: &[usize], out: &[u64]) {
    set.fill(0);
    let words = set.len();
    for &p in preds {
        for (a, b) in set.iter_mut().zip(&out[p * words..(p + 1) * words]) {
            *a |= b;
        }
    }
}

/// The register dependence graph of a [`Program`].
///
/// # Example
///
/// ```
/// use dca_prog::{parse_asm, NodeId, Rdg};
///
/// let p = parse_asm(
///     "e:
///         li r1, #4096
///         ld r2, 0(r1)
///         add r3, r2, r2
///         halt",
/// )?;
/// let rdg = Rdg::build(&p);
/// // The add (sidx 2) depends on the load's *access* node, while the
/// // load's address calculation depends on the li.
/// let add_parents = rdg.parents(NodeId::main(2));
/// assert_eq!(add_parents, &[NodeId::access(1)]);
/// let ea_parents = rdg.parents(NodeId::main(1));
/// assert_eq!(ea_parents, &[NodeId::main(0)]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Rdg {
    node_count: usize,
    parents: Vec<Vec<NodeId>>,
    children: Vec<Vec<NodeId>>,
}

impl Rdg {
    /// Builds the RDG of `prog` by reaching-definitions analysis.
    pub fn build(prog: &Program) -> Rdg {
        let insts = prog.static_insts();
        let node_count = insts.len() * 2;
        let defs = DefIds::number(insts);
        let block_insts = |bi: usize| {
            let entry = prog.block_entry(bi as u32) as usize;
            &insts[entry..entry + prog.blocks()[bi].insts.len()]
        };

        // --- block-level CFG and transfer functions -------------------
        let nblocks = prog.blocks().len();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nblocks];
        let mut transfer: Vec<Transfer> = Vec::with_capacity(nblocks);
        let mut last_def = [NO_DEF; Reg::FLAT_COUNT];
        for (bi, ss) in succs.iter_mut().enumerate() {
            let body = block_insts(bi);
            let last = body.last().expect("blocks are non-empty");
            for s in [last.target, last.fallthrough].into_iter().flatten() {
                ss.push(insts[s as usize].block as usize);
            }
            let mut kill = 0u64;
            for si in body {
                if let Some(dst) = si.inst.effective_dst() {
                    kill |= 1 << dst.flat_index();
                    last_def[dst.flat_index()] = defs.at[si.sidx as usize];
                }
            }
            let mut gen = Vec::with_capacity(kill.count_ones() as usize);
            let mut regs = kill;
            while regs != 0 {
                gen.push(last_def[regs.trailing_zeros() as usize]);
                regs &= regs - 1;
            }
            transfer.push(Transfer { kill, gen });
        }
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nblocks];
        for (b, ss) in succs.iter().enumerate() {
            for &s in ss {
                preds[s].push(b);
            }
        }

        // --- fixpoint: reaching definitions ----------------------------
        // `out` holds one `words`-word row per block.
        let words = defs.node.len().div_ceil(64);
        let mut out = vec![0u64; nblocks * words];
        let mut set = vec![0u64; words];
        let mut work: Vec<usize> = (0..nblocks).rev().collect();
        let mut queued = vec![true; nblocks];
        while let Some(b) = work.pop() {
            queued[b] = false;
            union_of(&mut set, &preds[b], &out);
            transfer[b].apply(&mut set, &defs);
            let row = &mut out[b * words..(b + 1) * words];
            if *row != *set {
                row.copy_from_slice(&set);
                for &s in &succs[b] {
                    if !queued[s] {
                        queued[s] = true;
                        work.push(s);
                    }
                }
            }
        }

        // --- per-use edges ----------------------------------------------
        let mut parents: Vec<Vec<NodeId>> = vec![Vec::new(); node_count];
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); node_count];
        for (bi, preds) in preds.iter().enumerate() {
            union_of(&mut set, preds, &out);
            // The last def of each register so far in this block.
            let mut local = [NO_DEF; Reg::FLAT_COUNT];
            for si in block_insts(bi) {
                let mut link_use = |node: NodeId, reg: Reg| {
                    let mut add_edge = |d: usize| {
                        parents[node.index()].push(defs.node[d]);
                        children[defs.node[d].index()].push(node);
                    };
                    match local[reg.flat_index()] {
                        NO_DEF => for_each_set(&set, defs.of_reg(reg.flat_index()), add_edge),
                        d => add_edge(d as usize),
                    }
                };
                let (inst, sidx) = (&si.inst, si.sidx);
                if inst.op.is_mem() {
                    // EA node uses the base register.
                    if let Some(base) = inst.src1.filter(|r| !r.is_zero()) {
                        link_use(NodeId::main(sidx), base);
                    }
                    // Store access uses the data register.
                    if inst.op.is_store() {
                        if let Some(data) = inst.src2.filter(|r| !r.is_zero()) {
                            link_use(NodeId::access(sidx), data);
                        }
                    }
                } else {
                    for reg in inst.srcs() {
                        link_use(NodeId::main(sidx), reg);
                    }
                }
                if let Some(dst) = inst.effective_dst() {
                    local[dst.flat_index()] = defs.at[sidx as usize];
                }
            }
        }

        // Deduplicate (a def can reach a use along several paths, and
        // an instruction may use the same register twice).
        for v in parents.iter_mut().chain(children.iter_mut()) {
            v.sort_unstable();
            v.dedup();
        }

        Rdg {
            node_count,
            parents,
            children,
        }
    }

    /// Number of nodes (2 per static instruction; the access node of a
    /// non-memory instruction exists but has no edges).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Definition nodes this node's register reads depend on.
    pub fn parents(&self, node: NodeId) -> &[NodeId] {
        &self.parents[node.index()]
    }

    /// Use nodes that read this node's defined register.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node.index()]
    }

    /// Iterator over all node ids (including edge-less ones).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count as u32).map(NodeId)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::parse_asm;

    /// The paper's Figure 2 example, transcribed into our ISA.
    ///
    /// ```text
    /// for (i=0;i<N;i++) {
    ///   if (C[i]!=0) A[i]=B[i]/C[i]; else A[i]=0;
    /// }
    /// ```
    pub(crate) fn figure2_program() -> crate::Program {
        parse_asm(
            "init:
                 li r1, #0
                 li r5, #80
             for:
                 ld r6, 4096(r1)
                 ld r7, 8192(r1)
                 beq r7, r0, l1
             divblk:
                 div r8, r6, r7
                 j l2
             l1:
                 li r8, #0
             l2:
                 st r8, 12288(r1)
                 add r1, r1, #8
                 bne r1, r5, for
                 halt",
        )
        .unwrap()
    }

    #[test]
    fn figure2_edges_match_paper_structure() {
        let p = figure2_program();
        let rdg = Rdg::build(&p);
        // sidx: 0 li r1,#0 | 1 li r5 | 2 ld r6 | 3 ld r7 | 4 beq | 5 div
        //       6 j | 7 li r8 | 8 st r8 | 9 add r1 | 10 bne | 11 halt
        // The div (5) depends on the two load *access* nodes.
        let div_parents = rdg.parents(NodeId::main(5));
        assert!(div_parents.contains(&NodeId::access(2)));
        assert!(div_parents.contains(&NodeId::access(3)));
        // The store's access uses r8 defined by div (5) or li (7).
        let st_access = rdg.parents(NodeId::access(8));
        assert!(st_access.contains(&NodeId::main(5)));
        assert!(st_access.contains(&NodeId::main(7)));
        // The store's EA uses r1 defined by li (0) or add (9).
        let st_ea = rdg.parents(NodeId::main(8));
        assert!(st_ea.contains(&NodeId::main(0)));
        assert!(st_ea.contains(&NodeId::main(9)));
        // EA and access of the same load are disconnected.
        assert!(!rdg.parents(NodeId::access(2)).contains(&NodeId::main(2)));
        assert!(rdg.children(NodeId::main(2)).is_empty());
        // Loop-carried: add (9) is its own grandparent via the back edge.
        assert!(rdg.parents(NodeId::main(9)).contains(&NodeId::main(9)));
    }

    #[test]
    fn straight_line_chain() {
        let p = parse_asm(
            "e:
                li r1, #1
                add r2, r1, r1
                add r3, r2, r1
                halt",
        )
        .unwrap();
        let rdg = Rdg::build(&p);
        assert_eq!(rdg.parents(NodeId::main(1)), &[NodeId::main(0)]);
        let p3 = rdg.parents(NodeId::main(2));
        assert_eq!(p3, &[NodeId::main(0), NodeId::main(1)]);
        assert_eq!(
            rdg.children(NodeId::main(0)),
            &[NodeId::main(1), NodeId::main(2)]
        );
    }

    #[test]
    fn kill_blocks_stale_defs() {
        let p = parse_asm(
            "e:
                li r1, #1
                li r1, #2
                add r2, r1, r1
                halt",
        )
        .unwrap();
        let rdg = Rdg::build(&p);
        // add must depend only on the second li.
        assert_eq!(rdg.parents(NodeId::main(2)), &[NodeId::main(1)]);
        assert!(rdg.children(NodeId::main(0)).is_empty());
    }

    #[test]
    fn merge_point_sees_both_defs() {
        let p = parse_asm(
            "e:
                beq r9, r0, other
             a:
                li r1, #1
                j join
             other:
                li r1, #2
             join:
                add r2, r1, r1
                halt",
        )
        .unwrap();
        let rdg = Rdg::build(&p);
        let add_sidx = 4;
        let parents = rdg.parents(NodeId::main(add_sidx));
        assert_eq!(parents.len(), 2);
    }

    #[test]
    fn bit_range_helpers_match_a_naive_model() {
        // Ranges within one word, across a boundary and over several
        // whole words, against a `Vec<bool>` model.
        let seed: Vec<u64> = (0..4u64)
            .map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1))
            .collect();
        let bit = |set: &[u64], i: usize| set[i / 64] >> (i % 64) & 1 == 1;
        for lo in 0..256 {
            for hi in lo..=256 {
                let mut seen = Vec::new();
                for_each_set(&seed, lo..hi, |i| seen.push(i));
                let want: Vec<usize> = (lo..hi).filter(|&i| bit(&seed, i)).collect();
                assert_eq!(seen, want, "for_each_set {lo}..{hi}");
                let mut cleared = seed.clone();
                clear_range(&mut cleared, lo..hi);
                for i in 0..256 {
                    assert_eq!(bit(&cleared, i), bit(&seed, i) && !(lo..hi).contains(&i));
                }
            }
        }
    }

    #[test]
    fn uses_before_any_def_have_no_parents() {
        let p = parse_asm("e:\n add r1, r2, r3\n halt").unwrap();
        let rdg = Rdg::build(&p);
        assert!(rdg.parents(NodeId::main(0)).is_empty());
    }
}
