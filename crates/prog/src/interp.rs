//! Functional (architectural) execution.
//!
//! The interpreter executes a [`Program`] with exact architectural
//! semantics and yields the **dynamic instruction stream** consumed by
//! the timing simulator. This mirrors the SimpleScalar organisation the
//! paper used: a functional core produces committed-path instructions;
//! the timing core charges cycles to them.
//!
//! A program is decoded once, by [`Program::from_blocks`], into an
//! execution table of [`Exec`] records: register operands resolved to
//! slots of one flat register file (reads of `r0` to a slot that stays
//! zero, writes of `r0` and absent destinations to a slot nobody
//! reads), the immediate folded into the second operand, and both
//! successors as instruction indices. [`Interp`] runs the dynamic
//! stream from that table.

use dca_isa::{ExecClass, Inst, Opcode, Reg};

use crate::checkpoint::Checkpoint;
use crate::memory::PageHints;
use crate::program::{StaticInst, INST_BYTES, TEXT_BASE};
use crate::{Memory, Program};

/// Register-file slot of FP register `f0`; integer register `rN` is
/// slot `N`. FP values are held as their IEEE bit patterns.
const FP_BASE: u8 = 32;
/// A slot that is never written: what `r0` and absent operands read.
const ZERO_SLOT: u8 = 64;
/// A slot that is never read: where writes of `r0`, and the results
/// of instructions without a destination, go.
const SINK_SLOT: u8 = 65;
/// The register file is indexed by a `u8` slot, so it has 256 entries
/// and a read or write needs no bounds check.
type RegFile = [u64; 256];

/// The cursor after `halt` or `j` has no fall-through successor.
const NO_SIDX: u32 = u32::MAX;

/// One instruction of a program's execution table: everything
/// [`Interp`] needs to execute it and to emit its [`DynInst`].
#[derive(Copy, Clone, Debug)]
pub(crate) struct Exec {
    /// The instruction, as emitted in the dynamic stream.
    inst: Inst,
    /// The operation executed. Moves and `li` execute as `add` (a move
    /// adds the zero slot, `li` adds its immediate to it), a jump as
    /// `nop` whose successor is its target, and the FP loads and stores
    /// as the integer ones, since registers hold raw bits.
    op: Opcode,
    dst: u8,
    src1: u8,
    src2: u8,
    /// Added to the `src2` slot: the ALU or branch immediate when it
    /// replaces `src2` (whose slot is then the zero slot), zero when
    /// `src2` is a register, and the displacement of loads and stores.
    imm: i64,
    /// `sidx` of the fall-through successor (`NO_SIDX` for `j` and
    /// `halt`).
    next: u32,
    /// `sidx` of the taken successor of a branch or jump.
    target: u32,
}

/// Slot of an integer source register (`None` reads zero).
fn int_src(r: Option<Reg>) -> Option<u8> {
    match r {
        None | Some(Reg::Int(0)) => Some(ZERO_SLOT),
        Some(Reg::Int(n)) if n < FP_BASE => Some(n),
        _ => None,
    }
}

/// Slot of an FP source register.
fn fp_src(r: Option<Reg>) -> Option<u8> {
    match r {
        Some(Reg::Fp(n)) if n < FP_BASE => Some(FP_BASE + n),
        _ => None,
    }
}

/// Slot a destination register is written to.
fn dst_slot(r: Option<Reg>) -> Option<u8> {
    match r {
        None | Some(Reg::Int(0)) => Some(SINK_SLOT),
        Some(Reg::Int(n)) if n < FP_BASE => Some(n),
        Some(Reg::Fp(n)) if n < FP_BASE => Some(FP_BASE + n),
        _ => None,
    }
}

impl Exec {
    /// Decodes one laid-out instruction.
    ///
    /// # Errors
    ///
    /// Rejects an instruction with an operand no register-file slot
    /// holds: an FP operation with an immediate in place of its second
    /// source (which `Inst::validate` accepts) or a register index
    /// beyond 31.
    pub(crate) fn decode(si: &StaticInst) -> Result<Exec, &'static str> {
        let inst = si.inst;
        let (imm_b, int_b) = match inst.src2 {
            Some(_) => (0, int_src(inst.src2)),
            None => (inst.imm, Some(ZERO_SLOT)),
        };
        use Opcode::*;
        let zero = Some(ZERO_SLOT);
        let (op, src1, src2, imm) = match inst.op {
            Li => (Add, zero, zero, inst.imm),
            Mov => (Add, int_src(inst.src1), zero, 0),
            FMov => (Add, fp_src(inst.src1), zero, 0),
            FAdd | FSub | FMul | FDiv | FCmpLt => {
                (inst.op, fp_src(inst.src1), fp_src(inst.src2), 0)
            }
            CvtIf => (CvtIf, int_src(inst.src1), zero, 0),
            CvtFi => (CvtFi, fp_src(inst.src1), zero, 0),
            Ld | FLd => (Ld, int_src(inst.src1), zero, inst.imm),
            St => (St, int_src(inst.src1), int_src(inst.src2), inst.imm),
            FSt => (St, int_src(inst.src1), fp_src(inst.src2), inst.imm),
            J => (Nop, zero, zero, 0),
            Nop | Halt => (inst.op, zero, zero, 0),
            // Integer ALU operations and conditional branches.
            Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Seq | Mul | Div | Rem | Beq
            | Bne | Blt | Bge => (inst.op, int_src(inst.src1), int_b, imm_b),
        };
        let target = si.target.unwrap_or(NO_SIDX);
        let next = if inst.op == J {
            target
        } else {
            si.fallthrough.unwrap_or(NO_SIDX)
        };
        match (src1, src2, dst_slot(inst.dst)) {
            (Some(src1), Some(src2), Some(dst)) => Ok(Exec {
                inst,
                op,
                dst,
                src1,
                src2,
                imm,
                next,
                target,
            }),
            _ => {
                Err("FP operations take two FP register sources, and register indices are below 32")
            }
        }
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
    regs: RegFile,
    mem: Memory,
    hints: PageHints,
    /// `sidx` of the next instruction; `NO_SIDX` once halted.
    cursor: u32,
    seq: u64,
    /// Absolute instruction budget (`u64::MAX` when unlimited).
    fuel: u64,
    halted: bool,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter at the program entry with the given
    /// initial memory image. All registers start at zero.
    pub fn new(prog: &'p Program, mem: Memory) -> Interp<'p> {
        Interp {
            prog,
            regs: [0; 256],
            mem,
            hints: PageHints::default(),
            cursor: prog.entry(),
            seq: 0,
            fuel: u64::MAX,
            halted: false,
        }
    }

    /// Limits the run to at most `max` dynamic instructions. The
    /// iterator simply ends when the budget is exhausted, mirroring the
    /// paper's fixed 100M-instruction simulation windows.
    pub fn with_fuel(mut self, max: u64) -> Interp<'p> {
        self.fuel = max;
        self
    }

    /// Reads an integer register (for tests and examples).
    pub fn int_reg(&self, n: u8) -> i64 {
        assert!(n < FP_BASE, "integer register index {n} out of range");
        self.regs[usize::from(n)] as i64
    }

    /// Reads an FP register (for tests and examples).
    pub fn fp_reg(&self, n: u8) -> f64 {
        assert!(n < FP_BASE, "FP register index {n} out of range");
        f64::from_bits(self.regs[usize::from(FP_BASE + n)])
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
            int_regs: std::array::from_fn(|n| self.int_reg(n as u8)),
            fp_regs: std::array::from_fn(|n| self.fp_reg(n as u8)),
            mem: self.mem.clone(),
            cursor: (self.cursor != NO_SIDX).then_some(self.cursor),
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
        let mut regs = [0; 256];
        for n in 0..usize::from(FP_BASE) {
            regs[n] = ckpt.int_regs[n] as u64;
            regs[usize::from(FP_BASE) + n] = ckpt.fp_regs[n].to_bits();
        }
        Interp {
            prog,
            regs,
            mem: ckpt.mem.clone(),
            hints: PageHints::default(),
            cursor: ckpt.cursor.unwrap_or(NO_SIDX),
            seq: ckpt.seq,
            fuel: u64::MAX,
            halted: ckpt.halted,
        }
    }

    /// Executes the instruction at the cursor and advances. Returns the
    /// emitted dynamic instruction, or `None` on `halt`.
    #[inline(always)]
    fn step(&mut self) -> Option<DynInst> {
        let sidx = self.cursor;
        let x = self.prog.exec().get(sidx as usize)?;
        let a = self.regs[usize::from(x.src1)];
        let b = self.regs[usize::from(x.src2)];
        // The integer second operand: a register, or the immediate
        // added to the zero slot.
        let (ai, bi) = (a as i64, (b as i64).wrapping_add(x.imm));
        let fp = f64::from_bits;
        let mut ea = None;
        let mut taken = None;
        let mut next = x.next;
        let mut branch = |t: bool| {
            taken = Some(t);
            if t {
                next = x.target;
            }
            0
        };
        use Opcode::*;
        let v: u64 = match x.op {
            Add => ai.wrapping_add(bi) as u64,
            Sub => ai.wrapping_sub(bi) as u64,
            And => (ai & bi) as u64,
            Or => (ai | bi) as u64,
            Xor => (ai ^ bi) as u64,
            Sll => a << (bi as u64 & 63),
            Srl => a >> (bi as u64 & 63),
            Sra => (ai >> (bi as u64 & 63)) as u64,
            Slt => u64::from(ai < bi),
            Seq => u64::from(ai == bi),
            Mul => ai.wrapping_mul(bi) as u64,
            Div => match bi {
                0 => 0,
                _ => ai.wrapping_div(bi) as u64,
            },
            Rem => match bi {
                0 => 0,
                _ => ai.wrapping_rem(bi) as u64,
            },
            FAdd => (fp(a) + fp(b)).to_bits(),
            FSub => (fp(a) - fp(b)).to_bits(),
            FMul => (fp(a) * fp(b)).to_bits(),
            FDiv => (fp(a) / fp(b)).to_bits(),
            FCmpLt => u64::from(fp(a) < fp(b)),
            CvtIf => (ai as f64).to_bits(),
            CvtFi => fp(a) as i64 as u64,
            Ld => {
                let addr = ai.wrapping_add(x.imm) as u64;
                ea = Some(addr);
                self.mem.read_u64_hinted(addr, &mut self.hints)
            }
            St => {
                let addr = ai.wrapping_add(x.imm) as u64;
                ea = Some(addr);
                self.mem.write_u64_hinted(addr, b, &mut self.hints);
                0
            }
            Beq => branch(ai == bi),
            Bne => branch(ai != bi),
            Blt => branch(ai < bi),
            Bge => branch(ai >= bi),
            Nop => 0,
            Halt => {
                self.halted = true;
                self.cursor = NO_SIDX;
                return None;
            }
            Li | Mov | FMov | FLd | FSt | J => unreachable!("decoded into other operations"),
        };
        // Instructions without a destination write the sink slot.
        self.regs[usize::from(x.dst)] = v;
        self.cursor = next;
        let d = DynInst {
            seq: self.seq,
            sidx,
            pc: TEXT_BASE + u64::from(sidx) * INST_BYTES,
            inst: x.inst,
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

    #[inline]
    fn next(&mut self) -> Option<DynInst> {
        if self.seq >= self.fuel {
            return None;
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
            li r12, #-16
            sra r13, r12, #2
            srl r14, r12, #60
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
        assert_eq!(i.int_reg(13), -4, "sra keeps the sign");
        assert_eq!(i.int_reg(14), 15, "srl shifts in zeros");
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
}
