//! `Program::content_hash` is the program's identity: it keys the
//! persistent store and the per-process static-partition cache, so it
//! must be a function of the laid-out program alone, and no two
//! programs that differ in one emitted field may share it.
//!
//! On random multi-block programs: the id is equal for a program
//! disassembled and parsed twice, and it changes under every
//! single-field mutation of one instruction (opcode, destination, each
//! source, immediate, branch target) and under a moved block boundary.
//! The opcode mutations include `mov` → `add #0`, which the
//! interpreter decodes to the same operation: the two time
//! differently, so the id must tell them apart.

use dca::isa::{Inst, Label, Opcode, Reg};
use dca::prog::{disassemble, parse_asm, Block, Program};
use proptest::prelude::*;

fn ireg(i: u8) -> Reg {
    Reg::int(1 + i % 6)
}

fn freg(i: u8) -> Reg {
    Reg::fp(i % 4)
}

/// Random valid programs of 1–6 blocks: each block has 1–5 body
/// instructions and ends in a fallthrough, a conditional branch, a
/// jump or `halt`.
fn arb_blocks() -> impl Strategy<Value = Vec<Block>> {
    let body = proptest::collection::vec((0u8..9, 0u8..8, 0u8..8, 0u8..8, 0u8..64), 1..6);
    proptest::collection::vec((body, 0u8..5, 0u32..16, 0u8..8, 0u8..8), 1..7).prop_map(|specs| {
        let nblocks = specs.len();
        specs
            .into_iter()
            .enumerate()
            .map(|(bi, (body, term, tgt, a, b))| {
                let mut insts: Vec<Inst> = body
                    .into_iter()
                    .map(|(kind, d, x, y, imm)| {
                        let imm = i64::from(imm);
                        match kind {
                            0 => Inst::add(ireg(d), ireg(x), ireg(y)),
                            1 => Inst::xor(ireg(d), ireg(x), ireg(y)),
                            2 => Inst::ld(ireg(d), ireg(x), imm),
                            3 => Inst::st(ireg(x), ireg(y), imm),
                            4 => Inst::li(ireg(d), imm),
                            5 => Inst::addi(ireg(d), ireg(x), imm),
                            6 => Inst::mov(ireg(d), ireg(x)),
                            7 => Inst::fadd(freg(d), freg(x), freg(y)),
                            _ => Inst::fld(freg(d), ireg(x), imm),
                        }
                    })
                    .collect();
                let target = Label(tgt % nblocks as u32);
                let last = bi + 1 == nblocks;
                let term = if last && term < 3 { 3 } else { term };
                match term {
                    0 => {}
                    1 => insts.push(Inst::beq(ireg(a), ireg(b), target)),
                    2 => insts.push(Inst::bne(ireg(a), ireg(b), target)),
                    3 => insts.push(Inst::j(target)),
                    _ => insts.push(Inst::halt()),
                }
                Block::new(format!("b{bi}"), insts)
            })
            .collect()
    })
}

/// Every valid instruction that differs from `inst` in exactly one
/// field, given the program's block count.
fn single_field_mutations(inst: Inst, nblocks: u32) -> Vec<Inst> {
    let mut out = Vec::new();
    let other_reg = |r: Reg| {
        if r.is_fp() {
            Reg::fp((r.index() + 1) % 4)
        } else {
            Reg::int(1 + r.index() % 6)
        }
    };
    out.push(Inst {
        op: match inst.op {
            // `mov d, s` and `add d, s, #0` decode to one operation.
            Opcode::Mov => Opcode::Add,
            Opcode::Add => Opcode::Sub,
            Opcode::Xor => Opcode::Or,
            Opcode::Beq => Opcode::Bne,
            Opcode::Bne => Opcode::Beq,
            Opcode::FAdd => Opcode::FMul,
            op => op,
        },
        ..inst
    });
    if let Some(r) = inst.dst {
        out.push(Inst {
            dst: Some(other_reg(r)),
            ..inst
        });
    }
    if let Some(r) = inst.src1 {
        out.push(Inst {
            src1: Some(other_reg(r)),
            ..inst
        });
    }
    if let Some(r) = inst.src2 {
        out.push(Inst {
            src2: Some(other_reg(r)),
            ..inst
        });
    }
    if !matches!(
        inst.op,
        Opcode::Halt | Opcode::J | Opcode::Nop | Opcode::Mov
    ) {
        out.push(Inst {
            imm: inst.imm + 1,
            ..inst
        });
    }
    if let Some(Label(t)) = inst.target {
        if nblocks > 1 {
            out.push(Inst {
                target: Some(Label((t + 1) % nblocks)),
                ..inst
            });
        }
    }
    out.retain(|m| *m != inst && m.validate().is_ok());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn program_id_is_stable_and_changes_under_every_single_field_mutation(
        blocks in arb_blocks(),
        pick in 0u32..64,
    ) {
        let prog = Program::from_blocks(blocks.clone()).expect("valid random program");
        let id = prog.content_hash();

        // Parsed twice from the same text: one identity, the built
        // program's.
        let text = disassemble(&prog);
        let a = parse_asm(&text).expect("disassembly parses");
        let b = parse_asm(&text).expect("disassembly parses");
        prop_assert_eq!(a.content_hash(), b.content_hash());
        prop_assert_eq!(a.content_hash(), id);

        // One instruction, every single-field mutation of it.
        let n = prog.len() as u32;
        let si = *prog.static_inst(pick % n);
        let (bi, pos) = (si.block as usize, (si.sidx - prog.block_entry(si.block)) as usize);
        for m in single_field_mutations(si.inst, blocks.len() as u32) {
            let mut mutated = blocks.clone();
            mutated[bi].insts[pos] = m;
            if let Ok(q) = Program::from_blocks(mutated) {
                prop_assert_ne!(q.content_hash(), id, "`{}` -> `{}`", si.inst, m);
            }
        }

        // A block boundary moved: block `split` becomes two blocks
        // after its first instruction, labels past it shift by one.
        // Every instruction, address and successor stays; only the
        // block structure differs.
        if let Some(split) = blocks.iter().position(|b| b.insts.len() > 1) {
            let mut moved = blocks.clone();
            for b in &mut moved {
                for inst in &mut b.insts {
                    if let Some(Label(t)) = inst.target {
                        if t as usize > split {
                            inst.target = Some(Label(t + 1));
                        }
                    }
                }
            }
            let tail = moved[split].insts.split_off(1);
            moved.insert(split + 1, Block::new(format!("b{split}_tail"), tail));
            let q = Program::from_blocks(moved).expect("a split keeps the program valid");
            let edges = |p: &Program| -> Vec<_> {
                p.static_insts().iter().map(|s| (s.pc, s.fallthrough, s.target)).collect()
            };
            prop_assert_eq!(edges(&q), edges(&prog));
            prop_assert_ne!(q.content_hash(), id);
        }
    }
}

/// `mov` and `add #0` execute alike; the identity still tells them
/// apart. The byte encoding is fixed, so the ids are pinned: a new
/// toolchain or a reordered struct cannot move them.
#[test]
fn program_id_is_pinned_and_separates_alike_opcodes() {
    let mov = parse_asm("e:\n mov r1, r2\n halt").unwrap();
    let add = parse_asm("e:\n add r1, r2, #0\n halt").unwrap();
    assert_eq!(
        mov.static_inst(0).inst,
        Inst {
            op: Opcode::Mov,
            ..add.static_inst(0).inst
        }
    );
    assert_eq!(
        format!("{:#018x}", mov.content_hash()),
        "0x29f208799a7e438d"
    );
    assert_eq!(
        format!("{:#018x}", add.content_hash()),
        "0xa2559249cfec98bf"
    );
}
