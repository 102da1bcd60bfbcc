//! Programs: basic blocks, validation and PC layout.

use std::fmt;

use dca_isa::{Inst, Label};

use crate::interp::Exec;

/// Base address of the first instruction, mimicking a text segment that
/// does not start at zero.
pub(crate) const TEXT_BASE: u64 = 0x1000;
/// Instruction size in bytes (fixed-width encoding, like Alpha).
pub(crate) const INST_BYTES: u64 = 4;

/// A basic block: a named straight-line run of instructions.
///
/// Control-transfer instructions (branches, jumps, `halt`) may appear
/// only as the *last* instruction; a block whose last instruction is not
/// a control transfer falls through to the next block in program order.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// Human-readable label, unique within a program.
    pub name: String,
    /// The instructions of the block; must be non-empty.
    pub insts: Vec<Inst>,
}

impl Block {
    /// Creates a block with the given name and body.
    pub fn new(name: impl Into<String>, insts: Vec<Inst>) -> Block {
        Block {
            name: name.into(),
            insts,
        }
    }
}

/// One instruction of the laid-out program, with its address and
/// control-flow successors resolved.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct StaticInst {
    /// Dense index of this instruction within the program (0-based).
    pub sidx: u32,
    /// Program counter (byte address).
    pub pc: u64,
    /// Index of the containing block.
    pub block: u32,
    /// The instruction itself.
    pub inst: Inst,
    /// `sidx` of the fall-through successor (next instruction), if any.
    pub fallthrough: Option<u32>,
    /// `sidx` of the branch/jump target (first instruction of the
    /// target block), if the instruction has a target.
    pub target: Option<u32>,
}

/// Error produced while validating a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The program has no blocks.
    Empty,
    /// A block has no instructions.
    EmptyBlock(String),
    /// Two blocks share a name.
    DuplicateBlock(String),
    /// A control transfer appears before the end of a block.
    MidBlockControl {
        /// Block name.
        block: String,
        /// Instruction position within the block.
        pos: usize,
    },
    /// A label refers to a block index that does not exist.
    DanglingLabel {
        /// Block name.
        block: String,
        /// The unresolved label.
        label: Label,
    },
    /// An instruction failed `Inst::validate`.
    InvalidInst {
        /// Block name.
        block: String,
        /// Description from the ISA-level validation.
        detail: String,
    },
    /// The last block can fall through past the end of the program.
    FallsOffEnd(String),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Empty => write!(f, "program has no blocks"),
            ProgramError::EmptyBlock(b) => write!(f, "block `{b}` is empty"),
            ProgramError::DuplicateBlock(b) => write!(f, "duplicate block name `{b}`"),
            ProgramError::MidBlockControl { block, pos } => write!(
                f,
                "control transfer in the middle of block `{block}` (position {pos})"
            ),
            ProgramError::DanglingLabel { block, label } => {
                write!(f, "block `{block}` references unknown label {label}")
            }
            ProgramError::InvalidInst { block, detail } => {
                write!(f, "invalid instruction in block `{block}`: {detail}")
            }
            ProgramError::FallsOffEnd(b) => {
                write!(f, "last block `{b}` may fall through past the program end")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A validated, laid-out program.
///
/// Construction performs full validation (see [`ProgramError`]) and
/// computes the flat instruction layout used by the dependence analysis
/// and the interpreter. Labels in instructions are block indices
/// (`Label(i)` refers to `blocks[i]`).
///
/// # Example
///
/// ```
/// use dca_isa::{Inst, Label, Reg};
/// use dca_prog::{Block, Program};
///
/// let prog = Program::from_blocks(vec![
///     Block::new("entry", vec![Inst::li(Reg::int(1), 3)]),
///     Block::new(
///         "loop",
///         vec![
///             Inst::addi(Reg::int(1), Reg::int(1), -1),
///             Inst::bne(Reg::int(1), Reg::ZERO, Label(1)),
///         ],
///     ),
///     Block::new("exit", vec![Inst::halt()]),
/// ])?;
/// assert_eq!(prog.len(), 4);
/// assert_eq!(prog.static_inst(0).pc, 0x1000);
/// # Ok::<(), dca_prog::ProgramError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Program {
    blocks: Vec<Block>,
    layout: Vec<StaticInst>,
    /// The interpreter's decoded form of `layout`, one record per
    /// instruction.
    exec: Vec<Exec>,
    block_start: Vec<u32>,
    /// [`Program::content_hash`], computed once by
    /// [`Program::from_blocks`].
    id: u64,
}

impl Program {
    /// Validates and lays out a program from its basic blocks.
    /// `blocks[0]` is the entry block.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] describing the first violated
    /// structural invariant.
    pub fn from_blocks(blocks: Vec<Block>) -> Result<Program, ProgramError> {
        if blocks.is_empty() {
            return Err(ProgramError::Empty);
        }
        let mut names = std::collections::HashSet::new();
        for b in &blocks {
            if b.insts.is_empty() {
                return Err(ProgramError::EmptyBlock(b.name.clone()));
            }
            if !names.insert(b.name.clone()) {
                return Err(ProgramError::DuplicateBlock(b.name.clone()));
            }
        }
        // Per-instruction validation.
        for b in &blocks {
            for (pos, inst) in b.insts.iter().enumerate() {
                if let Err(e) = inst.validate() {
                    return Err(ProgramError::InvalidInst {
                        block: b.name.clone(),
                        detail: e.to_string(),
                    });
                }
                let is_ctrl = inst.op.is_branch() || inst.op == dca_isa::Opcode::Halt;
                if is_ctrl && pos + 1 != b.insts.len() {
                    return Err(ProgramError::MidBlockControl {
                        block: b.name.clone(),
                        pos,
                    });
                }
                if let Some(label) = inst.target {
                    if label.0 as usize >= blocks.len() {
                        return Err(ProgramError::DanglingLabel {
                            block: b.name.clone(),
                            label,
                        });
                    }
                }
            }
        }
        // The last block must not fall through past the end: its last
        // instruction has to be an unconditional transfer or halt.
        {
            let last = blocks.last().expect("non-empty");
            let op = last.insts.last().expect("non-empty block").op;
            let safe = op == dca_isa::Opcode::J || op == dca_isa::Opcode::Halt;
            if !safe {
                return Err(ProgramError::FallsOffEnd(last.name.clone()));
            }
        }
        // Layout.
        let mut block_start = Vec::with_capacity(blocks.len());
        let mut count: u32 = 0;
        for b in &blocks {
            block_start.push(count);
            count += b.insts.len() as u32;
        }
        let mut layout = Vec::with_capacity(count as usize);
        let mut sidx: u32 = 0;
        for (bi, b) in blocks.iter().enumerate() {
            for (pos, &inst) in b.insts.iter().enumerate() {
                let last = pos + 1 == b.insts.len();
                let fallthrough = if inst.op == dca_isa::Opcode::J || inst.op == dca_isa::Opcode::Halt
                {
                    None
                } else if !last || sidx + 1 < count {
                    Some(sidx + 1)
                } else {
                    None
                };
                let target = inst.target.map(|l| block_start[l.0 as usize]);
                layout.push(StaticInst {
                    sidx,
                    pc: TEXT_BASE + u64::from(sidx) * INST_BYTES,
                    block: bi as u32,
                    inst,
                    fallthrough,
                    target,
                });
                sidx += 1;
            }
        }
        let mut exec = Vec::with_capacity(layout.len());
        let mut id: u64 = 0xcbf2_9ce4_8422_2325;
        for si in &layout {
            exec.push(Exec::decode(si).map_err(|why| ProgramError::InvalidInst {
                block: blocks[si.block as usize].name.clone(),
                detail: format!("`{}`: {why}", si.inst),
            })?);
            id = fold_inst(id, si);
        }
        Ok(Program {
            blocks,
            layout,
            exec,
            block_start,
            id,
        })
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.layout.len()
    }

    /// `true` if the program has no instructions (never true for a
    /// validated program, provided for completeness).
    pub fn is_empty(&self) -> bool {
        self.layout.is_empty()
    }

    /// The laid-out instruction at `sidx`.
    ///
    /// # Panics
    ///
    /// Panics if `sidx` is out of range.
    pub fn static_inst(&self, sidx: u32) -> &StaticInst {
        &self.layout[sidx as usize]
    }

    /// The execution table: `exec()[sidx]` decodes `static_inst(sidx)`.
    pub(crate) fn exec(&self) -> &[Exec] {
        &self.exec
    }

    /// All laid-out instructions in address order.
    pub fn static_insts(&self) -> &[StaticInst] {
        &self.layout
    }

    /// The basic blocks, in layout order (block 0 is the entry).
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// `sidx` of the first instruction of block `bi`.
    ///
    /// # Panics
    ///
    /// Panics if `bi` is out of range.
    pub fn block_entry(&self, bi: u32) -> u32 {
        self.block_start[bi as usize]
    }

    /// `sidx` of the program entry point.
    pub fn entry(&self) -> u32 {
        0
    }

    /// Looks up a block index by name.
    pub fn block_by_name(&self, name: &str) -> Option<u32> {
        self.blocks
            .iter()
            .position(|b| b.name == name)
            .map(|i| i as u32)
    }

    /// Total byte size of the text segment (for I-cache footprint
    /// reasoning in tests and workload design).
    pub fn text_bytes(&self) -> u64 {
        self.layout.len() as u64 * INST_BYTES
    }

    /// The program's identity, computed once when it is built: an
    /// FNV-1a hash of the laid-out program in a fixed byte encoding,
    /// stable across toolchains, that any change to the instructions,
    /// layout or CFG changes. It keys the persistent store (in the
    /// workload fingerprint) and per-program analysis caches.
    pub fn content_hash(&self) -> u64 {
        self.id
    }
}

/// Folds one laid-out instruction into an FNV-1a program id: address,
/// block, declared opcode (not the interpreter's normalized one: `li`
/// and `add` execute alike but time differently), registers,
/// immediate and successors, with absent operands as all-ones.
fn fold_inst(h: u64, si: &StaticInst) -> u64 {
    let reg = |r: Option<dca_isa::Reg>| r.map_or(u8::MAX, |r| r.flat_index() as u8);
    let succ = |s: Option<u32>| s.unwrap_or(u32::MAX).to_le_bytes();
    let i = &si.inst;
    let ops = [i.op as u8, reg(i.dst), reg(i.src1), reg(i.src2)];
    si.pc
        .to_le_bytes()
        .into_iter()
        .chain(si.block.to_le_bytes())
        .chain(ops)
        .chain(i.imm.to_le_bytes())
        .chain(succ(si.fallthrough))
        .chain(succ(si.target))
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_isa::{Opcode, Reg};

    fn halt_block() -> Block {
        Block::new("exit", vec![Inst::halt()])
    }

    #[test]
    fn rejects_empty_program() {
        assert!(matches!(
            Program::from_blocks(vec![]),
            Err(ProgramError::Empty)
        ));
    }

    #[test]
    fn rejects_empty_block() {
        let r = Program::from_blocks(vec![Block::new("a", vec![])]);
        assert!(matches!(r, Err(ProgramError::EmptyBlock(_))));
    }

    #[test]
    fn rejects_duplicate_names() {
        let r = Program::from_blocks(vec![
            Block::new("a", vec![Inst::nop()]),
            Block::new("a", vec![Inst::halt()]),
        ]);
        assert!(matches!(r, Err(ProgramError::DuplicateBlock(_))));
    }

    #[test]
    fn rejects_mid_block_control() {
        let r = Program::from_blocks(vec![Block::new(
            "a",
            vec![Inst::j(Label(0)), Inst::halt()],
        )]);
        assert!(matches!(r, Err(ProgramError::MidBlockControl { .. })));
    }

    #[test]
    fn rejects_dangling_label() {
        let r = Program::from_blocks(vec![Block::new("a", vec![Inst::j(Label(9))])]);
        assert!(matches!(r, Err(ProgramError::DanglingLabel { .. })));
    }

    #[test]
    fn rejects_fall_off_end() {
        let r = Program::from_blocks(vec![Block::new("a", vec![Inst::nop()])]);
        assert!(matches!(r, Err(ProgramError::FallsOffEnd(_))));
    }

    #[test]
    fn layout_assigns_sequential_pcs_and_links() {
        let p = Program::from_blocks(vec![
            Block::new(
                "entry",
                vec![
                    Inst::li(Reg::int(1), 5),
                    Inst::beq(Reg::int(1), Reg::ZERO, Label(1)),
                ],
            ),
            halt_block(),
        ])
        .unwrap();
        assert_eq!(p.len(), 3);
        let li = p.static_inst(0);
        assert_eq!(li.pc, TEXT_BASE);
        assert_eq!(li.fallthrough, Some(1));
        assert_eq!(li.target, None);
        let beq = p.static_inst(1);
        assert_eq!(beq.pc, TEXT_BASE + 4);
        assert_eq!(beq.fallthrough, Some(2));
        assert_eq!(beq.target, Some(2)); // first inst of block 1
        let halt = p.static_inst(2);
        assert_eq!(halt.inst.op, Opcode::Halt);
        assert_eq!(halt.fallthrough, None);
    }

    /// `Inst::validate` lets an FP operation take an immediate, but no
    /// register-file slot holds one: the program is rejected when it is
    /// built, not when the instruction runs.
    #[test]
    fn rejects_fp_operation_with_an_immediate() {
        let fadd_imm = Inst {
            src2: None,
            imm: 3,
            ..Inst::fadd(Reg::fp(1), Reg::fp(2), Reg::fp(3))
        };
        assert!(fadd_imm.validate().is_ok());
        let r = Program::from_blocks(vec![Block::new("a", vec![fadd_imm, Inst::halt()])]);
        assert!(
            matches!(&r, Err(ProgramError::InvalidInst { block, detail })
                if block == "a" && detail.starts_with("`fadd f1, f2, #3`: FP operations")),
            "{r:?}"
        );
        assert!(crate::parse_asm("e:\n fcmplt r1, f2, #0\n halt").is_err());
    }

    #[test]
    fn jump_has_no_fallthrough() {
        let p = Program::from_blocks(vec![
            Block::new("a", vec![Inst::j(Label(1))]),
            halt_block(),
        ])
        .unwrap();
        assert_eq!(p.static_inst(0).fallthrough, None);
        assert_eq!(p.static_inst(0).target, Some(1));
    }

    #[test]
    fn block_lookup() {
        let p = Program::from_blocks(vec![
            Block::new("a", vec![Inst::nop()]),
            Block::new("b", vec![Inst::halt()]),
        ])
        .unwrap();
        assert_eq!(p.block_by_name("b"), Some(1));
        assert_eq!(p.block_by_name("zz"), None);
        assert_eq!(p.block_entry(1), 1);
        assert_eq!(p.text_bytes(), 8);
    }
}
