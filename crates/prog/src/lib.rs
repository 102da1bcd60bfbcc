//! # dca-prog — programs, dependence analysis and functional execution
//!
//! This crate provides everything "above" the ISA and "below" the timing
//! simulator:
//!
//! * [`Program`]: a control-flow graph of basic blocks over `dca-isa`
//!   instructions, laid out at fixed PCs (4 bytes per instruction, like
//!   Alpha) so the I-cache model sees realistic addresses.
//! * [`ProgramBuilder`]: an ergonomic way to construct programs from
//!   code (used by the SpecInt95-analogue workload generators).
//! * [`parse_asm`]: a small textual assembler, convenient for tests and
//!   examples.
//! * [`Rdg`]: the **register dependence graph** of the paper's §3.1 —
//!   one node per static instruction, memory instructions split into a
//!   disconnected effective-address node and access node — plus the
//!   backward-slice computations that define the *LdSt slice* and
//!   *Br slice*.
//! * [`Interp`]: a functional (architecturally correct) interpreter that
//!   turns a program plus initial memory into the dynamic instruction
//!   stream ([`DynInst`]) consumed by the cycle-level simulator.
//! * [`Checkpoint`] / [`fast_forward`]: cheap architectural snapshots
//!   (copy-on-write memory pages) taken every K instructions during a
//!   functional fast-forward — the substrate of the sampled-simulation
//!   harness (DESIGN.md §7) that makes paper-scale (100M-instruction)
//!   runs affordable.
//!
//! # Example
//!
//! ```
//! use dca_prog::{parse_asm, Interp, Memory};
//!
//! let prog = parse_asm(
//!     "entry:
//!         li r1, #0
//!         li r2, #10
//!      loop:
//!         add r1, r1, #1
//!         bne r1, r2, loop
//!         halt",
//! )?;
//! let stream: Vec<_> = Interp::new(&prog, Memory::new()).collect();
//! // 2 setup instructions + 10 iterations of (add, bne)
//! assert_eq!(stream.len(), 22);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod builder;
mod checkpoint;
mod interp;
mod memory;
mod program;
mod rdg;
mod slice;

pub use asm::{disassemble, parse_asm, AsmError};
pub use builder::ProgramBuilder;
pub use checkpoint::{
    fast_forward, fast_forward_streaming, fast_forward_with, Checkpoint, CheckpointDecoder,
    CheckpointEncoder, CodecError, FastForward, NoWarmHook, WarmHook, INTERP_VERSION,
};
pub use interp::{DynInst, ExecSummary, Interp};
pub use memory::Memory;
pub use program::{Block, Program, ProgramError, StaticInst};
pub use rdg::{NodeId, NodePart, Rdg};
pub use slice::{br_slice, ldst_slice, SliceSet};
