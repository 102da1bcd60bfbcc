//! Continuous (SMARTS-style) microarchitectural warming.
//!
//! [`ContinuousWarmer`] is the canonical [`WarmHook`] implementation:
//! during the functional fast-forward it streams every retired
//! instruction's instruction-fetch and data accesses through live cache
//! models and every conditional branch through a live predictor —
//! exactly the updates [`Simulator::warm_functional`] would make — so
//! the [`UarchSnapshot`] attached to each checkpoint carries the
//! steady-state microarchitectural state of the *entire* stream prefix,
//! not just a bounded detached-warming window (DESIGN.md §9).
//!
//! [`Simulator::warm_functional`]: crate::Simulator::warm_functional

use dca_prog::{DynInst, WarmHook};
use dca_uarch::{Combined, CombinedConfig, HierarchyConfig, MemHierarchy, UarchSnapshot};

use crate::SimConfig;

/// A [`WarmHook`] carrying live cache/predictor models through the
/// functional fast-forward.
///
/// # Example
///
/// ```
/// use dca_prog::{fast_forward_with, parse_asm, Memory};
/// use dca_sim::{warm::ContinuousWarmer, SimConfig};
///
/// let p = parse_asm("e:\n li r1, #40\nl:\n add r1, r1, #-1\n bne r1, r0, l\n halt")?;
/// let mut hook = ContinuousWarmer::new(&SimConfig::paper_clustered());
/// let ff = fast_forward_with(&p, Memory::new(), 30, u64::MAX, &mut hook);
/// assert!(ff.checkpoints.iter().all(|c| c.uarch().is_some()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ContinuousWarmer {
    hierarchy: MemHierarchy,
    bpred: Combined,
}

impl ContinuousWarmer {
    /// A warmer with `cfg`'s cache hierarchy and predictor geometry.
    /// Every paper machine preset shares the Table 2 front end, so one
    /// warmed stream serves all of them; [`Simulator::restore_uarch`]
    /// rejects a snapshot whose geometry does not match its machine.
    ///
    /// [`Simulator::restore_uarch`]: crate::Simulator::restore_uarch
    pub fn new(cfg: &SimConfig) -> ContinuousWarmer {
        ContinuousWarmer::with_geometry(cfg.hierarchy, cfg.bpred)
    }

    /// A warmer with explicit geometry (tests use small caches).
    pub fn with_geometry(hierarchy: HierarchyConfig, bpred: CombinedConfig) -> ContinuousWarmer {
        ContinuousWarmer {
            hierarchy: MemHierarchy::new(hierarchy),
            bpred: Combined::new(bpred),
        }
    }

    /// The warmer's current state as a snapshot (what [`WarmHook::snapshot`]
    /// encodes).
    pub fn state(&self) -> UarchSnapshot {
        UarchSnapshot::capture(&self.hierarchy, &self.bpred)
    }
}

impl WarmHook for ContinuousWarmer {
    #[inline]
    fn observe(&mut self, d: &DynInst) {
        // Mirrors `Simulator::warm_functional_inner`: one I-fetch per
        // instruction, the data access of loads/stores, and predictor
        // training on the committed direction of conditional branches.
        self.hierarchy.access_inst(d.pc);
        if let Some(ea) = d.ea {
            self.hierarchy.access_data(ea);
        }
        if d.inst.op.is_cond_branch() {
            use dca_uarch::BranchPredictor as _;
            self.bpred
                .update(d.pc, d.taken.expect("cond branches have outcomes"));
        }
    }

    fn snapshot(&mut self) -> Option<Vec<u8>> {
        Some(self.state().encode())
    }
}
