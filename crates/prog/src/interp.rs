//! Functional (architectural) execution.
//!
//! The interpreter executes a [`Program`] with exact architectural
//! semantics and yields the **dynamic instruction stream** consumed by
//! the timing simulator. This mirrors the SimpleScalar organisation the
//! paper used: a functional core produces committed-path instructions;
//! the timing core charges cycles to them.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use dca_isa::{ExecClass, Inst, Opcode, Reg};

use crate::checkpoint::Checkpoint;
use crate::Program;

pub(crate) const PAGE_SHIFT: u64 = 12;
pub(crate) const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

/// Hash of a page index: one multiply by the 64-bit golden ratio.
/// Every interpreted load and store looks its page up, and a page index
/// needs no flooding resistance, so SipHash would be wasted work. The
/// multiplier is odd, so indices that differ in their low bits still
/// differ in the hash's low bits, which choose the bucket, and the
/// product mixes them into the high bits, which the table keeps as a
/// tag. Iteration order is not part of any output: everything that
/// serializes or hashes memory goes through the sorted `page_entries`.
#[derive(Default)]
struct PageHash(u64);

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for PageHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(GOLDEN);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(GOLDEN);
    }
}

/// Sparse byte-addressable memory. Uninitialised bytes read as zero.
///
/// Pages are reference-counted and copied on write, so cloning a
/// `Memory` is O(pages) pointer copies — this is what makes interpreter
/// [`Checkpoint`]s cheap: a snapshot shares every page with the live
/// image and only diverging pages are ever duplicated (the "memory
/// delta" of the sampled-simulation design, DESIGN.md §7).
///
/// # Example
///
/// ```
/// use dca_prog::Memory;
/// let mut m = Memory::new();
/// m.write_u64(0x2000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x2000), 0xdead_beef);
/// assert_eq!(m.read_u64(0x9000), 0); // untouched memory is zero
/// ```
#[derive(Clone, Debug, Default)]
pub struct Memory {
    pages: HashMap<u64, Arc<[u8; PAGE_BYTES]>, BuildHasherDefault<PageHash>>,
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_BYTES] {
        Arc::make_mut(
            self.pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Arc::new([0u8; PAGE_BYTES])),
        )
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr as usize) & (PAGE_BYTES - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_BYTES - 1)] = value;
    }

    /// Reads a little-endian 64-bit word (may straddle pages).
    pub fn read_u64(&self, addr: u64) -> u64 {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off <= PAGE_BYTES - 8 {
            // Word within one page: a single lookup.
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes")),
                None => 0,
            }
        } else {
            let mut bytes = [0u8; 8];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u64));
            }
            u64::from_le_bytes(bytes)
        }
    }

    /// Writes a little-endian 64-bit word (may straddle pages).
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off <= PAGE_BYTES - 8 {
            // Word within one page: one lookup and one copy-on-write
            // check, instead of eight of each.
            self.page_mut(addr)[off..off + 8].copy_from_slice(&value.to_le_bytes());
        } else {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u64), *b);
            }
        }
    }

    /// Reads a signed 64-bit word.
    pub fn read_i64(&self, addr: u64) -> i64 {
        self.read_u64(addr) as i64
    }

    /// Writes a signed 64-bit word.
    pub fn write_i64(&mut self, addr: u64, value: i64) {
        self.write_u64(addr, value as u64);
    }

    /// Reads an IEEE double.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an IEEE double.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Number of 4 KiB pages touched so far (for tests).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The page table, sorted by page index — the deterministic
    /// iteration order the checkpoint codec serializes in.
    pub(crate) fn page_entries(&self) -> Vec<(u64, &Arc<[u8; PAGE_BYTES]>)> {
        let mut v: Vec<_> = self.pages.iter().map(|(k, p)| (*k, p)).collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    /// Rebuilds a memory image from `(page_index, page)` pairs,
    /// sharing the given `Arc`s (the decode half of the codec).
    pub(crate) fn from_page_entries(
        entries: impl IntoIterator<Item = (u64, Arc<[u8; PAGE_BYTES]>)>,
    ) -> Memory {
        Memory {
            pages: entries.into_iter().collect(),
        }
    }

    /// FNV-1a hash of the full memory content (page indices and
    /// bytes, in page-index order). Deterministic across runs; used as
    /// part of the workload fingerprint that keys the persistent
    /// checkpoint store.
    pub fn content_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (idx, page) in self.page_entries() {
            h ^= idx;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
            for &b in page.iter() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// One instruction of the dynamic (committed-path) stream.
///
/// Produced by [`Interp`]; consumed by the timing simulator, which
/// never re-executes semantics — it only charges time.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct DynInst {
    /// Position in the dynamic stream (0-based).
    pub seq: u64,
    /// Static instruction index within the program.
    pub sidx: u32,
    /// Program counter of the instruction.
    pub pc: u64,
    /// The instruction.
    pub inst: Inst,
    /// Effective address, for loads and stores.
    pub ea: Option<u64>,
    /// Branch outcome, for conditional branches.
    pub taken: Option<bool>,
}

impl DynInst {
    /// `true` if this dynamic instruction is a conditional branch that
    /// was taken.
    pub fn is_taken_branch(&self) -> bool {
        self.taken == Some(true)
    }
}

/// Aggregate statistics of a functional run, used to calibrate the
/// synthetic workloads against their SpecInt95 models.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecSummary {
    /// Dynamic instruction count (committed path).
    pub dyn_insts: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
    /// Dynamic conditional branches.
    pub cond_branches: u64,
    /// Taken conditional branches.
    pub taken_branches: u64,
    /// Dynamic complex-integer operations (mul/div/rem).
    pub complex_int: u64,
    /// Dynamic floating-point operations.
    pub fp_ops: u64,
    /// Whether the program reached `halt` before the fuel limit.
    pub halted: bool,
}

impl ExecSummary {
    /// Fraction of dynamic instructions that are loads.
    pub fn load_ratio(&self) -> f64 {
        self.loads as f64 / self.dyn_insts.max(1) as f64
    }

    /// Fraction of dynamic instructions that are stores.
    pub fn store_ratio(&self) -> f64 {
        self.stores as f64 / self.dyn_insts.max(1) as f64
    }

    /// Fraction of dynamic instructions that are conditional branches.
    pub fn branch_ratio(&self) -> f64 {
        self.cond_branches as f64 / self.dyn_insts.max(1) as f64
    }
}

/// The functional interpreter. Implements [`Iterator`] over
/// [`DynInst`]s; iteration ends at `halt` or when the optional fuel
/// limit is exhausted.
///
/// `halt` itself is *not* emitted: the stream contains exactly the
/// instructions the timing simulator must fetch, rename, execute and
/// commit.
///
/// # Example
///
/// ```
/// use dca_prog::{parse_asm, Interp, Memory};
/// let p = parse_asm("e:\n li r1, #2\n mul r2, r1, r1\n halt")?;
/// let insts: Vec<_> = Interp::new(&p, Memory::new()).collect();
/// assert_eq!(insts.len(), 2);
/// assert_eq!(insts[1].inst.op, dca_isa::Opcode::Mul);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Interp<'p> {
    prog: &'p Program,
    int_regs: [i64; 32],
    fp_regs: [f64; 32],
    mem: Memory,
    cursor: Option<u32>,
    seq: u64,
    fuel: Option<u64>,
    halted: bool,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter at the program entry with the given
    /// initial memory image. All registers start at zero.
    pub fn new(prog: &'p Program, mem: Memory) -> Interp<'p> {
        Interp {
            prog,
            int_regs: [0; 32],
            fp_regs: [0.0; 32],
            mem,
            cursor: Some(prog.entry()),
            seq: 0,
            fuel: None,
            halted: false,
        }
    }

    /// Limits the run to at most `max` dynamic instructions. The
    /// iterator simply ends when the budget is exhausted, mirroring the
    /// paper's fixed 100M-instruction simulation windows.
    pub fn with_fuel(mut self, max: u64) -> Interp<'p> {
        self.fuel = Some(max);
        self
    }

    /// Reads an integer register (for tests and examples).
    pub fn int_reg(&self, n: u8) -> i64 {
        self.int_regs[n as usize]
    }

    /// Reads an FP register (for tests and examples).
    pub fn fp_reg(&self, n: u8) -> f64 {
        self.fp_regs[n as usize]
    }

    /// The memory image (borrowed; useful after the run).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// `true` once `halt` has been reached.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Dynamic instructions executed so far. Note that [`Interp::with_fuel`]
    /// compares against this *absolute* count, so an interpreter resumed
    /// from a [`Checkpoint`] at N instructions needs `with_fuel(N + k)`
    /// to run `k` further instructions.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Takes a cheap architectural snapshot: registers, memory (shared
    /// copy-on-write pages), the PC cursor and the dynamic-instruction
    /// count. Resuming from it reproduces the remaining stream exactly
    /// (see `tests/prop_checkpoint.rs`).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            int_regs: self.int_regs,
            fp_regs: self.fp_regs,
            mem: self.mem.clone(),
            cursor: self.cursor,
            seq: self.seq,
            halted: self.halted,
            uarch: None,
        }
    }

    /// Rebuilds an interpreter from a snapshot of `prog`. The restored
    /// interpreter has no fuel limit; callers wanting a bounded interval
    /// chain [`Interp::with_fuel`] with an absolute budget
    /// (`ckpt.seq() + interval`).
    pub fn resume(prog: &'p Program, ckpt: &Checkpoint) -> Interp<'p> {
        Interp {
            prog,
            int_regs: ckpt.int_regs,
            fp_regs: ckpt.fp_regs,
            mem: ckpt.mem.clone(),
            cursor: ckpt.cursor,
            seq: ckpt.seq,
            fuel: None,
            halted: ckpt.halted,
        }
    }

    fn read_int(&self, r: Option<Reg>) -> i64 {
        match r {
            Some(Reg::Int(n)) => {
                if n == 0 {
                    0
                } else {
                    self.int_regs[n as usize]
                }
            }
            Some(Reg::Fp(_)) => panic!("integer read of FP register"),
            None => 0,
        }
    }

    fn read_fp(&self, r: Option<Reg>) -> f64 {
        match r {
            Some(Reg::Fp(n)) => self.fp_regs[n as usize],
            _ => panic!("FP read of non-FP register"),
        }
    }

    fn write_reg(&mut self, r: Option<Reg>, int_val: i64, fp_val: f64) {
        match r {
            Some(Reg::Int(0)) | None => {}
            Some(Reg::Int(n)) => self.int_regs[n as usize] = int_val,
            Some(Reg::Fp(n)) => self.fp_regs[n as usize] = fp_val,
        }
    }

    /// Executes the instruction at the cursor and advances. Returns the
    /// emitted dynamic instruction, or `None` on `halt`.
    fn step(&mut self) -> Option<DynInst> {
        let sidx = self.cursor?;
        let si = *self.prog.static_inst(sidx);
        let inst = si.inst;
        let mut ea = None;
        let mut taken = None;
        let mut next = si.fallthrough;

        use Opcode::*;
        match inst.op {
            Halt => {
                self.halted = true;
                self.cursor = None;
                return None;
            }
            Nop => {}
            Li => self.write_reg(inst.dst, inst.imm, 0.0),
            Mov => {
                let v = self.read_int(inst.src1);
                self.write_reg(inst.dst, v, 0.0);
            }
            Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Seq | Mul | Div | Rem => {
                let a = self.read_int(inst.src1);
                let b = match inst.src2 {
                    Some(_) => self.read_int(inst.src2),
                    None => inst.imm,
                };
                let v = match inst.op {
                    Add => a.wrapping_add(b),
                    Sub => a.wrapping_sub(b),
                    And => a & b,
                    Or => a | b,
                    Xor => a ^ b,
                    Sll => ((a as u64) << (b as u64 & 63)) as i64,
                    Srl => ((a as u64) >> (b as u64 & 63)) as i64,
                    Sra => a >> (b as u64 & 63),
                    Slt => i64::from(a < b),
                    Seq => i64::from(a == b),
                    Mul => a.wrapping_mul(b),
                    Div => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_div(b)
                        }
                    }
                    Rem => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_rem(b)
                        }
                    }
                    _ => unreachable!(),
                };
                self.write_reg(inst.dst, v, 0.0);
            }
            FMov => {
                let v = self.read_fp(inst.src1);
                self.write_reg(inst.dst, 0, v);
            }
            FAdd | FSub | FMul | FDiv => {
                let a = self.read_fp(inst.src1);
                let b = self.read_fp(inst.src2);
                let v = match inst.op {
                    FAdd => a + b,
                    FSub => a - b,
                    FMul => a * b,
                    FDiv => a / b,
                    _ => unreachable!(),
                };
                self.write_reg(inst.dst, 0, v);
            }
            FCmpLt => {
                let a = self.read_fp(inst.src1);
                let b = self.read_fp(inst.src2);
                self.write_reg(inst.dst, i64::from(a < b), 0.0);
            }
            CvtIf => {
                let a = self.read_int(inst.src1);
                self.write_reg(inst.dst, 0, a as f64);
            }
            CvtFi => {
                let a = self.read_fp(inst.src1);
                self.write_reg(inst.dst, a as i64, 0.0);
            }
            Ld | FLd => {
                let base = self.read_int(inst.src1);
                let addr = base.wrapping_add(inst.imm) as u64;
                ea = Some(addr);
                if inst.op == Ld {
                    let v = self.mem.read_i64(addr);
                    self.write_reg(inst.dst, v, 0.0);
                } else {
                    let v = self.mem.read_f64(addr);
                    self.write_reg(inst.dst, 0, v);
                }
            }
            St | FSt => {
                let base = self.read_int(inst.src1);
                let addr = base.wrapping_add(inst.imm) as u64;
                ea = Some(addr);
                if inst.op == St {
                    let v = self.read_int(inst.src2);
                    self.mem.write_i64(addr, v);
                } else {
                    let v = self.read_fp(inst.src2);
                    self.mem.write_f64(addr, v);
                }
            }
            Beq | Bne | Blt | Bge => {
                let a = self.read_int(inst.src1);
                let b = match inst.src2 {
                    Some(_) => self.read_int(inst.src2),
                    None => inst.imm,
                };
                let t = match inst.op {
                    Beq => a == b,
                    Bne => a != b,
                    Blt => a < b,
                    Bge => a >= b,
                    _ => unreachable!(),
                };
                taken = Some(t);
                if t {
                    next = si.target;
                }
            }
            J => {
                next = si.target;
            }
        }

        self.cursor = next;
        let d = DynInst {
            seq: self.seq,
            sidx,
            pc: si.pc,
            inst,
            ea,
            taken,
        };
        self.seq += 1;
        Some(d)
    }

    /// Runs to completion (or fuel exhaustion), returning aggregate
    /// statistics. Consumes the iterator position but the interpreter
    /// can still be inspected afterwards.
    pub fn run_summary(&mut self) -> ExecSummary {
        let mut s = ExecSummary::default();
        for d in self.by_ref() {
            s.dyn_insts += 1;
            match d.inst.class() {
                ExecClass::Load => s.loads += 1,
                ExecClass::Store => s.stores += 1,
                ExecClass::IntMul | ExecClass::IntDiv => s.complex_int += 1,
                ExecClass::FpAlu | ExecClass::FpMul | ExecClass::FpDiv => s.fp_ops += 1,
                _ => {}
            }
            if d.inst.op.is_cond_branch() {
                s.cond_branches += 1;
                if d.taken == Some(true) {
                    s.taken_branches += 1;
                }
            }
        }
        s.halted = self.halted;
        s
    }
}

impl Iterator for Interp<'_> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        if let Some(f) = self.fuel {
            if self.seq >= f {
                return None;
            }
        }
        self.step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_asm;

    fn run(src: &str) -> (Vec<DynInst>, ExecSummary) {
        let p = parse_asm(src).unwrap();
        let i = Interp::new(&p, Memory::new());
        // Collect while also computing the summary by a second run.
        let v: Vec<DynInst> = i.collect();
        let p2 = parse_asm(src).unwrap();
        let s = Interp::new(&p2, Memory::new()).run_summary();
        (v, s)
    }

    #[test]
    fn arithmetic_semantics() {
        let src = "e:
            li r1, #6
            li r2, #4
            add r3, r1, r2
            sub r4, r1, r2
            mul r5, r1, r2
            div r6, r1, r2
            rem r7, r1, r2
            slt r8, r2, r1
            seq r9, r1, r1
            xor r10, r1, r2
            sll r11, r1, #2
            halt";
        let p = parse_asm(src).unwrap();
        let mut i = Interp::new(&p, Memory::new());
        while i.next().is_some() {}
        assert_eq!(i.int_reg(3), 10);
        assert_eq!(i.int_reg(4), 2);
        assert_eq!(i.int_reg(5), 24);
        assert_eq!(i.int_reg(6), 1);
        assert_eq!(i.int_reg(7), 2);
        assert_eq!(i.int_reg(8), 1);
        assert_eq!(i.int_reg(9), 1);
        assert_eq!(i.int_reg(10), 2);
        assert_eq!(i.int_reg(11), 24);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let p = parse_asm("e:\n li r1, #5\n div r2, r1, r0\n rem r3, r1, r0\n halt").unwrap();
        let mut i = Interp::new(&p, Memory::new());
        while i.next().is_some() {}
        assert_eq!(i.int_reg(2), 0);
        assert_eq!(i.int_reg(3), 0);
    }

    #[test]
    fn zero_register_is_immutable() {
        let p = parse_asm("e:\n li r0, #7\n add r1, r0, #1\n halt").unwrap();
        let mut i = Interp::new(&p, Memory::new());
        while i.next().is_some() {}
        assert_eq!(i.int_reg(0), 0);
        assert_eq!(i.int_reg(1), 1);
    }

    #[test]
    fn loads_and_stores_round_trip_through_memory() {
        let src = "e:
            li r1, #8192
            li r2, #-77
            st r2, 16(r1)
            ld r3, 16(r1)
            halt";
        let p = parse_asm(src).unwrap();
        let mut i = Interp::new(&p, Memory::new());
        let dyns: Vec<_> = (&mut i).collect();
        assert_eq!(i.int_reg(3), -77);
        let st = &dyns[2];
        assert_eq!(st.ea, Some(8208));
        let ld = &dyns[3];
        assert_eq!(ld.ea, Some(8208));
    }

    #[test]
    fn fp_semantics() {
        let src = "e:
            li r1, #8192
            li r2, #3
            cvtif f1, r2
            fadd f2, f1, f1
            fmul f3, f2, f1
            fcmplt r3, f1, f3
            cvtfi r4, f3
            fst f3, 0(r1)
            fld f4, 0(r1)
            halt";
        let p = parse_asm(src).unwrap();
        let mut i = Interp::new(&p, Memory::new());
        while i.next().is_some() {}
        assert_eq!(i.fp_reg(2), 6.0);
        assert_eq!(i.fp_reg(3), 18.0);
        assert_eq!(i.int_reg(3), 1);
        assert_eq!(i.int_reg(4), 18);
        assert_eq!(i.fp_reg(4), 18.0);
    }

    #[test]
    fn loop_emits_expected_stream_and_outcomes() {
        let (v, s) = run("e:
            li r1, #3
        loop:
            add r1, r1, #-1
            bne r1, r0, loop
            halt");
        // li + 3 * (add, bne)
        assert_eq!(v.len(), 7);
        assert_eq!(s.dyn_insts, 7);
        assert_eq!(s.cond_branches, 3);
        assert_eq!(s.taken_branches, 2);
        assert!(s.halted);
        // branch outcomes: taken, taken, not-taken
        let outcomes: Vec<_> = v.iter().filter_map(|d| d.taken).collect();
        assert_eq!(outcomes, vec![true, true, false]);
    }

    #[test]
    fn fuel_limit_stops_infinite_loops() {
        let p = parse_asm("spin:\n j spin").unwrap();
        let n = Interp::new(&p, Memory::new()).with_fuel(100).count();
        assert_eq!(n, 100);
        let mut i = Interp::new(&p, Memory::new()).with_fuel(5);
        while i.next().is_some() {}
        assert!(!i.halted());
    }

    #[test]
    fn seq_numbers_are_dense() {
        let (v, _) = run("e:\n li r1, #2\nl:\n add r1, r1, #-1\n bne r1, r0, l\n halt");
        for (k, d) in v.iter().enumerate() {
            assert_eq!(d.seq, k as u64);
        }
    }

    #[test]
    fn memory_pages_are_sparse() {
        let mut m = Memory::new();
        m.write_u64(0, 1);
        m.write_u64(1 << 30, 2);
        assert_eq!(m.page_count(), 2);
        assert_eq!(m.read_u64(1 << 30), 2);
    }

    #[test]
    fn memory_word_straddles_page_boundary() {
        let mut m = Memory::new();
        let addr = (1 << PAGE_SHIFT) - 4;
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
    }
}
