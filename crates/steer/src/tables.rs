//! The hardware tables of §3.3 and Figure 10.
//!
//! All tables are indexed by *static instruction index* — the paper
//! indexes them by PC; with 4-byte instructions the two are isomorphic
//! and the tables here are simply modelled unaliased (the paper does
//! not give sizes).

use crate::slice_steer::SliceKind;
use dca_isa::{Inst, Reg};
use dca_sim::ClusterId;

/// "An additional table that holds for each logical register the PC of
/// the last decoded instruction that uses it as a destination register"
/// (§3.3) — the *parent table* of Figure 10.
#[derive(Clone, Debug)]
pub struct ParentTable {
    last_writer: [Option<u32>; Reg::FLAT_COUNT],
}

impl Default for ParentTable {
    fn default() -> ParentTable {
        ParentTable {
            last_writer: [None; Reg::FLAT_COUNT],
        }
    }
}

impl ParentTable {
    /// Creates an empty table.
    pub fn new() -> ParentTable {
        ParentTable::default()
    }

    /// The last decoded writer of `reg`, if any.
    pub fn parent_of(&self, reg: Reg) -> Option<u32> {
        self.last_writer[reg.flat_index()]
    }

    /// Records `sidx` as the writer of the instruction's destination.
    /// Call *after* propagation queries for the same instruction.
    pub fn record(&mut self, sidx: u32, inst: &Inst) {
        if let Some(dst) = inst.effective_dst() {
            self.last_writer[dst.flat_index()] = Some(sidx);
        }
    }
}

/// Which source operands propagate slice membership towards parents.
///
/// The RDG splits a memory instruction into two *disconnected* nodes
/// (address calculation and memory access, §3.1), and the PC-indexed
/// tables hold one entry for both halves, so the propagation rule
/// depends on which half the slice kind can actually mark:
///
/// * **LdSt slice** — the flag on a memory PC means its *address
///   calculation* is a slice root, so membership propagates through the
///   base register (the EA operand). The store-data operand feeds the
///   access half, which is never part of an address backward slice.
/// * **Br slice** — a memory PC can only be flagged through its
///   *access* half (a branch consuming a loaded value). The access half
///   has no register parents — its input is memory — so a flagged
///   memory instruction propagates through **nothing**. Propagating
///   through the base register here would leak the address chain into
///   the Br slice, which the static analysis (and the paper's Figure 2)
///   excludes.
///
/// Non-memory instructions propagate through all sources in both kinds.
fn propagating_srcs(inst: &Inst, kind: SliceKind) -> impl Iterator<Item = Reg> + '_ {
    let (none, base_only) = if inst.op.is_mem() {
        match kind {
            SliceKind::LdSt => (false, true),
            SliceKind::Br => (true, false),
        }
    } else {
        (false, false)
    };
    inst.srcs()
        .enumerate()
        .filter(move |(k, _)| !none && (!base_only || *k == 0))
        .map(|(_, r)| r)
}

/// The one-bit flag table of §3.3: `flags[sidx]` is set when the
/// instruction has been observed to belong to the slice. Membership
/// accrues at run time and converges towards the static slice.
#[derive(Clone, Debug, Default)]
pub struct SliceFlags {
    flags: Vec<bool>,
    parents: ParentTable,
}

impl SliceFlags {
    /// Creates an empty flag table.
    pub fn new() -> SliceFlags {
        SliceFlags::default()
    }

    /// `true` if `sidx` is currently known to belong to the slice.
    pub fn contains(&self, sidx: u32) -> bool {
        self.flags.get(sidx as usize).copied().unwrap_or(false)
    }

    fn set(&mut self, sidx: u32) {
        if self.flags.len() <= sidx as usize {
            self.flags.resize(sidx as usize + 1, false);
        }
        self.flags[sidx as usize] = true;
    }

    /// Observes one decoded instruction in program order, implementing
    /// the §3.3 rule: slice-defining instructions (memory instructions
    /// for [`SliceKind::LdSt`], branches for [`SliceKind::Br`]) set
    /// their own flag; flagged instructions set their parents' flags.
    pub fn observe(&mut self, sidx: u32, inst: &Inst, kind: SliceKind) {
        if kind.defines(inst) {
            self.set(sidx);
        }
        if self.contains(sidx) {
            for r in propagating_srcs(inst, kind) {
                if let Some(p) = self.parents.parent_of(r) {
                    self.set(p);
                }
            }
        }
        self.parents.record(sidx, inst);
    }

    /// Number of flagged static instructions (diagnostics).
    pub fn len(&self) -> usize {
        self.flags.iter().filter(|&&f| f).count()
    }

    /// `true` if nothing is flagged yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The *slice table* of Figure 10: identifies, for each instruction,
/// the slice it belongs to. A slice is named by the static index of its
/// defining instruction. Propagation overwrites: the most recent
/// execution wins, as in the paper's description.
#[derive(Clone, Debug, Default)]
pub struct SliceIds {
    slice_of: Vec<Option<u32>>,
    parents: ParentTable,
}

impl SliceIds {
    /// Creates an empty slice table.
    pub fn new() -> SliceIds {
        SliceIds::default()
    }

    /// The slice `sidx` currently belongs to.
    pub fn slice_of(&self, sidx: u32) -> Option<u32> {
        self.slice_of.get(sidx as usize).copied().flatten()
    }

    fn set(&mut self, sidx: u32, slice: u32) {
        if self.slice_of.len() <= sidx as usize {
            self.slice_of.resize(sidx as usize + 1, None);
        }
        self.slice_of[sidx as usize] = Some(slice);
    }

    /// Observes one decoded instruction in program order (§3.6):
    /// slice-defining instructions start their own slice; instructions
    /// in a slice propagate its ID to their parents.
    pub fn observe(&mut self, sidx: u32, inst: &Inst, kind: SliceKind) {
        if kind.defines(inst) {
            self.set(sidx, sidx);
        }
        if let Some(s) = self.slice_of(sidx) {
            for r in propagating_srcs(inst, kind) {
                if let Some(p) = self.parents.parent_of(r) {
                    self.set(p, s);
                }
            }
        }
        self.parents.record(sidx, inst);
    }
}

/// The *cluster table* of Figure 10 (augmented for §3.7): per slice,
/// the cluster it is currently mapped to plus the criticality counter
/// (cache misses or mispredictions of the defining instruction).
/// Slices are named by dense static indices, so the table is a vector
/// indexed by slice, like [`SliceIds`].
#[derive(Clone, Debug, Default)]
pub struct ClusterTable {
    entries: Vec<Option<ClusterAssign>>,
}

/// One cluster-table entry.
#[derive(Copy, Clone, Debug)]
pub struct ClusterAssign {
    /// Cluster the slice is mapped to.
    pub cluster: ClusterId,
    /// Criticality events of the defining instruction (§3.7).
    pub crit_events: u32,
}

impl ClusterTable {
    /// Creates an empty table.
    pub fn new() -> ClusterTable {
        ClusterTable::default()
    }

    fn get(&self, slice: u32) -> Option<&ClusterAssign> {
        self.entries.get(slice as usize).and_then(Option::as_ref)
    }

    /// The entry of `slice`, created as `fresh` if absent.
    fn entry(&mut self, slice: u32, fresh: ClusterAssign) -> &mut ClusterAssign {
        let i = slice as usize;
        if self.entries.len() <= i {
            self.entries.resize(i + 1, None);
        }
        self.entries[i].get_or_insert(fresh)
    }

    /// Current assignment of `slice`, if any.
    pub fn assignment(&self, slice: u32) -> Option<ClusterId> {
        self.get(slice).map(|e| e.cluster)
    }

    /// Assigns (or re-assigns) `slice` to `cluster`.
    pub fn assign(&mut self, slice: u32, cluster: ClusterId) {
        let fresh = ClusterAssign {
            cluster,
            crit_events: 0,
        };
        self.entry(slice, fresh).cluster = cluster;
    }

    /// Records a criticality event (cache miss / misprediction) for the
    /// slice defined by `defining_sidx`. A slice not yet assigned is
    /// entered on the integer cluster.
    pub fn record_crit_event(&mut self, defining_sidx: u32) {
        let fresh = ClusterAssign {
            cluster: ClusterId::INT,
            crit_events: 0,
        };
        self.entry(defining_sidx, fresh).crit_events += 1;
    }

    /// Criticality events recorded for `slice`.
    pub fn crit_events(&self, slice: u32) -> u32 {
        self.get(slice).map_or(0, |e| e.crit_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_isa::{Inst, Label};

    #[test]
    fn parent_table_tracks_last_writer() {
        let mut t = ParentTable::new();
        let r1 = Reg::int(1);
        assert_eq!(t.parent_of(r1), None);
        t.record(3, &Inst::li(r1, 0));
        assert_eq!(t.parent_of(r1), Some(3));
        t.record(9, &Inst::addi(r1, r1, 1));
        assert_eq!(t.parent_of(r1), Some(9));
        // Stores define nothing.
        t.record(11, &Inst::st(r1, Reg::int(2), 0));
        assert_eq!(t.parent_of(r1), Some(9));
    }

    #[test]
    fn ldst_flags_propagate_up_the_address_chain() {
        // sidx0: li r1  (address base)
        // sidx1: li r2  (unrelated data)
        // sidx2: ld r3, 0(r1)
        let mut f = SliceFlags::new();
        let li1 = Inst::li(Reg::int(1), 4096);
        let li2 = Inst::li(Reg::int(2), 7);
        let ld = Inst::ld(Reg::int(3), Reg::int(1), 0);
        // First pass: ld sets its own flag; li1 not yet flagged
        // (flag was clear when ld was decoded — propagation happens on
        // the *next* observation, as in the hardware).
        f.observe(0, &li1, SliceKind::LdSt);
        f.observe(1, &li2, SliceKind::LdSt);
        f.observe(2, &ld, SliceKind::LdSt);
        assert!(f.contains(2));
        assert!(f.contains(0), "base writer flagged via parent table");
        assert!(!f.contains(1), "unrelated writer unflagged");
    }

    #[test]
    fn flags_converge_over_iterations() {
        // A two-level chain needs two observations to flag the root:
        // add feeds the load's base; li feeds the add.
        let li = Inst::li(Reg::int(1), 4096);
        let add = Inst::addi(Reg::int(2), Reg::int(1), 8);
        let ld = Inst::ld(Reg::int(3), Reg::int(2), 0);
        let mut f = SliceFlags::new();
        for _ in 0..2 {
            f.observe(0, &li, SliceKind::LdSt);
            f.observe(1, &add, SliceKind::LdSt);
            f.observe(2, &ld, SliceKind::LdSt);
        }
        assert!(f.contains(1));
        assert!(f.contains(0), "root reached on the second iteration");
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn store_propagates_through_base_not_data() {
        // li r1 (base writer), li r2 (data writer), st r2, 0(r1)
        let li_base = Inst::li(Reg::int(1), 4096);
        let li_data = Inst::li(Reg::int(2), 5);
        let st = Inst::st(Reg::int(2), Reg::int(1), 0);
        let mut f = SliceFlags::new();
        for _ in 0..3 {
            f.observe(0, &li_base, SliceKind::LdSt);
            f.observe(1, &li_data, SliceKind::LdSt);
            f.observe(2, &st, SliceKind::LdSt);
        }
        assert!(f.contains(0), "address chain flagged");
        assert!(!f.contains(1), "store data is not in the LdSt slice");
    }

    #[test]
    fn br_slice_uses_branch_roots() {
        // li r1; add r2 <- r1; beq r2. Branch defines; propagates
        // through compare sources.
        let li = Inst::li(Reg::int(1), 3);
        let add = Inst::addi(Reg::int(2), Reg::int(1), -1);
        let beq = Inst::beq(Reg::int(2), Reg::ZERO, Label(0));
        let mut f = SliceFlags::new();
        for _ in 0..2 {
            f.observe(0, &li, SliceKind::Br);
            f.observe(1, &add, SliceKind::Br);
            f.observe(2, &beq, SliceKind::Br);
        }
        assert!(f.contains(2) && f.contains(1) && f.contains(0));
    }

    #[test]
    fn br_slice_stops_at_loads() {
        // li r1 (address base); ld r2, 0(r1); beq r2. The branch pulls
        // in the load's *access* half, but the access half is
        // disconnected from the address calculation (§3.1), so the base
        // writer must stay out of the Br slice.
        let li = Inst::li(Reg::int(1), 4096);
        let ld = Inst::ld(Reg::int(2), Reg::int(1), 0);
        let beq = Inst::beq(Reg::int(2), Reg::ZERO, Label(0));
        let mut f = SliceFlags::new();
        for _ in 0..3 {
            f.observe(0, &li, SliceKind::Br);
            f.observe(1, &ld, SliceKind::Br);
            f.observe(2, &beq, SliceKind::Br);
        }
        assert!(f.contains(2), "branch defines its own slice");
        assert!(f.contains(1), "load access half feeds the branch");
        assert!(!f.contains(0), "address chain excluded from the Br slice");
    }

    #[test]
    fn slice_ids_latest_execution_wins() {
        let li = Inst::li(Reg::int(1), 0);
        let ld_a = Inst::ld(Reg::int(2), Reg::int(1), 0);
        let ld_b = Inst::ld(Reg::int(3), Reg::int(1), 8);
        let mut s = SliceIds::new();
        s.observe(0, &li, SliceKind::LdSt);
        s.observe(1, &ld_a, SliceKind::LdSt);
        s.observe(2, &ld_b, SliceKind::LdSt);
        assert_eq!(s.slice_of(1), Some(1));
        assert_eq!(s.slice_of(2), Some(2));
        // After round 1, li carries ld_b's slice (it propagated last).
        s.observe(0, &li, SliceKind::LdSt);
        assert_eq!(s.slice_of(0), Some(2), "ld_b propagated last in round 1");
        // Round 2: each load's observation overwrites the parent again.
        s.observe(1, &ld_a, SliceKind::LdSt);
        assert_eq!(s.slice_of(0), Some(1), "ld_a overwrote");
        s.observe(2, &ld_b, SliceKind::LdSt);
        assert_eq!(s.slice_of(0), Some(2), "ld_b overwrote again");
    }

    #[test]
    fn cluster_table_assign_and_crit() {
        let mut t = ClusterTable::new();
        assert_eq!(t.assignment(5), None);
        t.assign(5, ClusterId::FP);
        assert_eq!(t.assignment(5), Some(ClusterId::FP));
        t.assign(5, ClusterId::INT);
        assert_eq!(t.assignment(5), Some(ClusterId::INT));
        assert_eq!(t.crit_events(5), 0);
        t.record_crit_event(5);
        t.record_crit_event(5);
        assert_eq!(t.crit_events(5), 2);
        // Criticality for a slice seen only through events.
        t.record_crit_event(9);
        assert_eq!(t.crit_events(9), 1);
        assert_eq!(t.assignment(9), Some(ClusterId::INT), "entered on the integer cluster");
        assert_eq!(t.assignment(7), None, "a gap below a later slice stays empty");
    }
}
