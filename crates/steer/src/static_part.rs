//! Static LdSt-slice partitioning (§3.3), after Sastry, Palacharla &
//! Smith, *Exploiting Idle Floating-Point Resources for Integer
//! Execution* \[18\].
//!
//! The partition is computed **offline** over the register dependence
//! graph: the static LdSt slice goes to the integer cluster and the
//! rest to the FP cluster. A per-static-instruction assignment is less
//! flexible than any dynamic scheme — all dynamic instances of an
//! instruction execute in the same cluster — which is exactly the
//! hypothesis the paper's Figure 3 tests.
//!
//! \[18\]'s slice-extension heuristics (they grow the integer
//! partition with "neighbour" instructions to trade communication for
//! balance) are approximated by one refinement pass: a non-slice
//! instruction whose RDG neighbours are mostly in the integer
//! partition is pulled in, unless the integer side already holds more
//! than `max_int_share` of all instructions. DESIGN.md documents this
//! substitution.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use dca_prog::{ldst_slice, NodeId, Program, Rdg};
use dca_sim::{Allowed, ClusterId, DecodedView, SteerCtx, Steering};

/// Distinct programs whose partitions [`StaticPartition::shared`]
/// keeps. A process analyses a handful of workloads; past this many
/// (only randomized tests get there) the cache starts over.
const SHARED_PROGRAMS: usize = 64;

/// Offline static partitioning.
///
/// # Example
///
/// ```
/// use dca_prog::parse_asm;
/// use dca_steer::StaticPartition;
/// use dca_sim::{ClusterId, Steering};
///
/// let p = parse_asm(
///     "e:
///         li r1, #4096      ; address chain -> INT
///         li r2, #1         ; pure value chain -> FP
///         ld r3, 0(r1)
///         xor r4, r2, r2
///         halt",
/// )?;
/// let part = StaticPartition::analyze(&p);
/// assert_eq!(part.assignment(0), ClusterId::INT);
/// assert_eq!(part.name(), "static-ldst");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct StaticPartition {
    /// Shared, so clones of one analysis cost a reference count.
    assign: Arc<[ClusterId]>,
}

impl StaticPartition {
    /// Analyzes `prog` with the default balance cap (75% integer
    /// share).
    pub fn analyze(prog: &Program) -> StaticPartition {
        StaticPartition::analyze_with(prog, 0.75)
    }

    /// [`StaticPartition::analyze`], run once per distinct program in
    /// a process: later calls for a program with the same
    /// [`Program::content_hash`] share the first call's result. The
    /// Lab instantiates the `static` scheme once per interval, so this
    /// makes the analysis one per program instead of one per interval.
    pub fn shared(prog: &Program) -> StaticPartition {
        type Slots = Vec<(u64, Arc<OnceLock<StaticPartition>>)>;
        static CACHE: Mutex<Slots> = Mutex::new(Vec::new());
        let id = prog.content_hash();
        let slot = {
            // Each update under the lock is one `clear` or one push,
            // so the list is valid even if a holder panicked.
            let mut cache = CACHE.lock().unwrap_or_else(PoisonError::into_inner);
            match cache.iter().find(|(seen, _)| *seen == id) {
                Some((_, slot)) => Arc::clone(slot),
                None => {
                    if cache.len() >= SHARED_PROGRAMS {
                        cache.clear();
                    }
                    let slot = Arc::new(OnceLock::new());
                    cache.push((id, Arc::clone(&slot)));
                    slot
                }
            }
        };
        // Analyse outside the lock: other programs proceed, and a
        // second caller for this one waits for the first's result.
        slot.get_or_init(|| StaticPartition::analyze(prog)).clone()
    }

    /// Analyzes `prog`, allowing the refinement pass to grow the
    /// integer partition up to `max_int_share` of all instructions.
    ///
    /// # Panics
    ///
    /// Panics if `max_int_share` is not within `[0, 1]`.
    pub fn analyze_with(prog: &Program, max_int_share: f64) -> StaticPartition {
        assert!(
            (0.0..=1.0).contains(&max_int_share),
            "max_int_share must be a fraction"
        );
        let rdg = Rdg::build(prog);
        let slice = ldst_slice(prog, &rdg);
        let n = prog.len();
        let mut assign: Vec<ClusterId> = (0..n as u32)
            .map(|sidx| {
                if slice.contains_sidx(sidx) {
                    ClusterId::INT
                } else {
                    ClusterId::FP
                }
            })
            .collect();
        // Refinement: pull non-slice instructions whose neighbours are
        // mostly integer-side into the integer cluster (approximates
        // [18]'s communication-reducing extension).
        let mut int_count = assign.iter().filter(|&&c| c == ClusterId::INT).count();
        let cap = (n as f64 * max_int_share) as usize;
        let initial: Vec<ClusterId> = assign.clone();
        for sidx in 0..n as u32 {
            if initial[sidx as usize] == ClusterId::INT || int_count >= cap {
                continue;
            }
            let mut int_neigh = 0usize;
            let mut total_neigh = 0usize;
            for node in [NodeId::main(sidx), NodeId::access(sidx)] {
                for &n2 in rdg.parents(node).iter().chain(rdg.children(node)) {
                    total_neigh += 1;
                    if initial[n2.sidx() as usize] == ClusterId::INT {
                        int_neigh += 1;
                    }
                }
            }
            if total_neigh > 0 && int_neigh * 2 >= total_neigh {
                assign[sidx as usize] = ClusterId::INT;
                int_count += 1;
            }
        }
        StaticPartition {
            assign: assign.into(),
        }
    }

    /// The cluster statically assigned to instruction `sidx`.
    ///
    /// # Panics
    ///
    /// Panics if `sidx` is out of range for the analyzed program.
    pub fn assignment(&self, sidx: u32) -> ClusterId {
        self.assign[sidx as usize]
    }

    /// Fraction of static instructions assigned to the integer cluster.
    pub fn int_share(&self) -> f64 {
        if self.assign.is_empty() {
            return 0.0;
        }
        self.assign.iter().filter(|&&c| c == ClusterId::INT).count() as f64
            / self.assign.len() as f64
    }
}

impl Steering for StaticPartition {
    fn name(&self) -> String {
        "static-ldst".into()
    }

    fn steer(
        &mut self,
        d: &DecodedView<'_>,
        allowed: Allowed,
        ctx: &SteerCtx,
    ) -> Option<ClusterId> {
        // The offline analysis is two-valued (slice vs rest). On an
        // N-way machine the non-slice partition is spread statically
        // over the non-integer clusters by instruction index, keeping
        // the per-static-instruction property (all dynamic instances in
        // one cluster).
        let c = match self.assignment(d.sidx) {
            ClusterId::INT => ClusterId::INT,
            _ => {
                let n = u32::from(ctx.n.max(2));
                ClusterId::from_index_unchecked((1 + d.sidx % (n - 1)) as usize)
            }
        };
        Some(allowed.clamp(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_prog::{parse_asm, Interp, Memory};
    use dca_sim::{SimConfig, Simulator};

    #[test]
    fn slice_goes_to_int_values_to_fp() {
        let p = parse_asm(
            "e:
                li r1, #4096     ; 0: address base -> INT
                li r2, #3        ; 1: value -> FP (no neighbours on INT)
             l:
                ld r3, 0(r1)     ; 2: INT (slice root)
                add r4, r4, r2   ; 3: value chain
                add r1, r1, #8   ; 4: address increment -> INT
                add r2, r2, #-1  ; 5: feeds the branch and itself
                bne r2, r0, l    ; 6: branch, not in LdSt slice
                halt",
        )
        .unwrap();
        let part = StaticPartition::analyze_with(&p, 0.5);
        assert_eq!(part.assignment(0), ClusterId::INT);
        assert_eq!(part.assignment(2), ClusterId::INT);
        assert_eq!(part.assignment(4), ClusterId::INT);
        assert_eq!(part.assignment(3), ClusterId::FP, "pure value chain stays FP");
        assert!(part.int_share() <= 0.75);
    }

    #[test]
    fn refinement_respects_cap() {
        let p = parse_asm(
            "e:
                li r1, #4096
                ld r2, 0(r1)
                add r3, r2, r2
                add r4, r3, r3
                halt",
        )
        .unwrap();
        let tight = StaticPartition::analyze_with(&p, 0.0);
        // With a zero cap, refinement cannot grow the integer side at
        // all — only the true slice is INT.
        assert_eq!(tight.assignment(2), ClusterId::FP);
        let loose = StaticPartition::analyze_with(&p, 1.0);
        // With no cap, the add chained to the load value gets pulled in
        // (its only neighbours include the INT-side load).
        assert_eq!(loose.assignment(2), ClusterId::INT);
    }

    #[test]
    fn every_dynamic_instance_same_cluster() {
        let p = parse_asm(
            "e:
                li r1, #50
                li r2, #4096
             l:
                ld r3, 0(r2)
                add r4, r4, r3
                add r2, r2, #8
                add r1, r1, #-1
                bne r1, r0, l
                halt",
        )
        .unwrap();
        let expected = Interp::new(&p, Memory::new()).count() as u64;
        let mut part = StaticPartition::analyze(&p);
        let stats = Simulator::new(&SimConfig::paper_clustered(), &p, Memory::new())
            .run(&mut part, 100_000);
        assert_eq!(stats.committed, expected);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn share_validation() {
        let p = parse_asm("e:\n halt").unwrap();
        let _ = StaticPartition::analyze_with(&p, 1.5);
    }

    /// Repeated requests for one program run one analysis, keyed by
    /// content: a separately built copy of the program shares it, and
    /// a different program gets its own.
    #[test]
    fn shared_analysis_runs_once_per_program() {
        let src = "e:\n li r1, #4096\n li r2, #7\n ld r3, 0(r1)\n add r9, r2, r3\n halt";
        let p = parse_asm(src).unwrap();
        let first = StaticPartition::shared(&p);
        let again = StaticPartition::shared(&p);
        assert!(Arc::ptr_eq(&first.assign, &again.assign), "second call reuses the analysis");
        let copy = parse_asm(src).unwrap();
        let by_content = StaticPartition::shared(&copy);
        assert!(Arc::ptr_eq(&first.assign, &by_content.assign), "keyed by content, not address");
        assert_eq!(first.assign, StaticPartition::analyze(&p).assign, "same partition as analyze");
        let other = parse_asm("e:\n li r1, #4096\n ld r3, 0(r1)\n halt").unwrap();
        assert!(!Arc::ptr_eq(&first.assign, &StaticPartition::shared(&other).assign));
    }
}
