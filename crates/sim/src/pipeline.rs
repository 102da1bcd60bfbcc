//! The cycle-level pipeline: fetch → decode/rename/steer → issue →
//! execute → commit.
//!
//! ## Modelling decisions (also summarised in DESIGN.md §6)
//!
//! * **Trace-driven wrong path**: the functional stream contains only
//!   committed-path instructions, so a mispredicted branch stalls fetch
//!   until it resolves instead of fetching wrong-path work. No ROB
//!   squash ever happens, which also means µop sequence numbers in the
//!   ROB are contiguous.
//! * **Copies are ROB entries**: a consumer and the copies it needs are
//!   allocated atomically at dispatch, which makes physical-register
//!   freeing uniform (displaced mappings are released when the
//!   displacing µop commits) and rules out rename deadlock.
//! * **Local bypass 0 cycles / remote 1 cycle**: an ALU result produced
//!   by a µop issued at cycle *t* with latency *L* is usable by local
//!   consumers issuing at *t+L* and, through a copy issued at *t′*, by
//!   remote consumers at *t′+1+copy_latency*.
//! * **Store data**: integer store data must reside in the store's
//!   cluster (a copy is inserted if needed, per §2 of the paper); FP
//!   store data is read from the FP register file at commit without a
//!   copy, since FP values are never replicated.
//!
//! ## Performance notes (DESIGN.md §6)
//!
//! The backend offers two issue engines selected by
//! [`SimConfig::engine`]; both are **bit-for-bit stat-identical**
//! (enforced by `tests/engine_equivalence.rs` across every steering
//! scheme):
//!
//! * [`Engine::Scan`] — the executable specification: every cycle
//!   re-checks every IQ entry's every source register
//!   ([`Simulator::entry_ready`]), both for the [`SteerCtx`] ready
//!   counts and for the issue scan. O(IQ × sources) per cycle.
//! * [`Engine::Event`] — the default, event-driven engine:
//!   - each cluster's [`RegFile`] keeps a **waiter list** per physical
//!     register; a dispatching µop whose source is still in flight
//!     registers itself and carries a pending-operand counter;
//!   - when `set_ready`/`set_ready_from_copy` fires (the producer's
//!     ready cycle becomes known), waiters decrement their counter and,
//!     at zero, push a `(cycle, seq)` event onto the cluster's
//!     **timeline** (a min-heap) for `max(dispatch+1, max src ready)`;
//!   - at the start of each cycle due events drain onto the cluster's
//!     **ready list**, kept sorted by µop seq (a per-[`ExecClass`]
//!     breakdown is derivable on demand for diagnostics), so the
//!     [`SteerCtx`] ready counts are O(1) reads and the issue stage
//!     pops oldest-first instead of scanning the queue;
//!   - **skip-ahead**: when the machine is quiescent (no ready entry,
//!     empty fetch buffer, no load awaiting disambiguation), the main
//!     loop jumps to the next timeline / completion / fetch event,
//!     performing only the per-cycle bookkeeping (balance sample,
//!     replication integral, [`Steering::on_cycle`]) for the skipped
//!     cycles — those cycles are provably no-ops in the scan engine.
//!
//!   The invariant that keeps the engines identical is **order
//!   preservation**: the ready list enumerates exactly the entries the
//!   scan would have found ready, in the same oldest-first (by µop
//!   seq) order, so FU/bus/port arbitration sees the same request
//!   sequence every cycle. Wakeup events never fire retroactively:
//!   every `set_ready` cycle lies strictly in the future at the time
//!   it is announced (latencies are ≥ 1).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use dca_isa::{ClusterNeed, ExecClass, Opcode, Reg};
use dca_prog::{Checkpoint, DynInst, Interp, Memory, Program};
use dca_uarch::{
    latency_of, BranchPredictor, CacheStats, Combined, FuPool, FuPoolConfig, MemHierarchy,
    MemLevel, PortMeter, PredictorStats, SnapshotError, UarchSnapshot,
};

use crate::config::{ClusterId, ClusterSet, Engine, SimConfig, MAX_CLUSTERS};
use crate::lsq::{LoadState, Lsq, LsqEntry};
use crate::rename::{Displaced, PhysReg, RegFile, RenameMap, IN_FLIGHT};
use crate::stats::SimStats;
use crate::steering::{rank_clusters, Allowed, DecodedView, SrcView, SteerCtx, Steering};

/// Cycles without a single commit (with work in flight) after which the
/// simulator declares a livelock (a model bug, not a program property).
const NO_PROGRESS_LIMIT: u64 = 100_000;

#[derive(Copy, Clone, Debug)]
struct Fetched {
    d: DynInst,
    available_at: u64,
    mispredicted: bool,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum UopKind {
    /// ALU/branch/jump/nop work executed in a cluster.
    Normal,
    /// Inter-cluster copy (dense id for critical-communication stats;
    /// 64-bit because the id counts *every* copy of a run and a
    /// paper-scale-or-longer run is not bounded by 2^32 of them).
    Copy { id: u64 },
    /// Load (EA µop + memory access via the LSQ).
    Load,
    /// Store (EA µop; writes memory at commit).
    Store,
}

#[derive(Clone, Debug)]
struct RobEntry {
    seq: u64,
    dyn_seq: u64,
    /// Static index of the program instruction (for copies: of the
    /// consumer the copy was inserted for) — the trace resolves the
    /// instruction text through it, keeping this entry small.
    sidx: u32,
    pc: u64,
    cluster: ClusterId,
    kind: UopKind,
    is_program: bool,
    /// Destination mapping installed at rename.
    dst: Option<(ClusterId, PhysReg)>,
    /// Mappings displaced at rename (at most one per cluster, held
    /// inline), freed at commit.
    displaced: Displaced,
    /// Cycle the instruction entered the fetch buffer.
    fetch_at: u64,
    /// Cycle the µop was dispatched.
    dispatch_at: u64,
    /// Cycle the µop left its instruction queue (nops never do).
    issue_at: Option<u64>,
    /// Cycle the µop's result is architecturally complete.
    complete_at: Option<u64>,
    mispredicted: bool,
    is_cond_branch: bool,
}

#[derive(Clone, Debug)]
struct IqEntry {
    seq: u64,
    /// Dynamic *program-instruction* sequence (what `DecodedView::seq`
    /// carried at steering time); copies inherit their consumer's.
    dyn_seq: u64,
    sidx: u32,
    /// Cluster whose queue holds this entry (copies sit in the *source*
    /// cluster and write into `copy_dst`).
    cluster: ClusterId,
    issue_class: ExecClass,
    kind: UopKind,
    srcs: [Option<PhysReg>; 2],
    /// For copies: destination cluster/register (sources are local).
    copy_dst: Option<(ClusterId, PhysReg)>,
    dst: Option<PhysReg>,
    ea: Option<u64>,
    dispatched_at: u64,
    mispredicted: bool,
    /// Event engine: source operands whose ready cycle is still
    /// unknown (producer not yet issued). The entry is scheduled onto
    /// the timeline when this reaches zero.
    pending: u8,
    /// Event engine: latest known source-ready cycle.
    ready_cycle: u64,
}

/// Dense index for the per-[`ExecClass`] ready counters.
fn class_index(c: ExecClass) -> usize {
    match c {
        ExecClass::IntAlu => 0,
        ExecClass::IntMul => 1,
        ExecClass::IntDiv => 2,
        ExecClass::FpAlu => 3,
        ExecClass::FpMul => 4,
        ExecClass::FpDiv => 5,
        ExecClass::Load => 6,
        ExecClass::Store => 7,
        ExecClass::Ctrl => 8,
        ExecClass::Nop => 9,
    }
}

/// Number of [`ExecClass`] slots tracked by [`IqBuf::ready_by_class`].
const N_CLASSES: usize = 10;

/// One cluster's instruction queue plus the event-engine wakeup
/// structures.
///
/// Entries live in a sequence-indexed ring: every queued µop is also
/// in the ROB, so in-flight sequence numbers span less than `rob_size`
/// and `seq & mask` (capacity rounded up to a power of two) can never
/// collide. All queue operations are O(1); program-order iteration
/// walks the ROB's sequence window.
struct IqBuf {
    /// Ring of queued entries, indexed by `seq & mask`.
    slots: Box<[Option<IqEntry>]>,
    mask: usize,
    len: usize,
    /// Sequences of entries with all operands ready, sorted oldest
    /// first. The issue stage pops from the front; [`SteerCtx::ready`]
    /// is this list's length (event engine).
    ready: Vec<u64>,
    /// Future wakeups as `(cycle, seq)` in a min-heap: entries whose
    /// operands are all known move here until their ready cycle is due.
    timeline: BinaryHeap<Reverse<(u64, u64)>>,
    /// High-watermark of `timeline` depth over the run (observability;
    /// reported as the `event_queue_peak` gauge after each run).
    timeline_peak: u64,
}

impl IqBuf {
    /// A queue able to hold every µop of a `rob_size`-entry window.
    fn for_rob(rob_size: u32) -> IqBuf {
        let cap = (rob_size as usize).next_power_of_two();
        IqBuf {
            slots: (0..cap).map(|_| None).collect(),
            mask: cap - 1,
            len: 0,
            ready: Vec::with_capacity(cap),
            timeline: BinaryHeap::with_capacity(cap),
            timeline_peak: 0,
        }
    }

    /// Schedules a wakeup at `when`, tracking the high-watermark.
    fn push_event(&mut self, when: u64, seq: u64) {
        self.timeline.push(Reverse((when, seq)));
        self.timeline_peak = self.timeline_peak.max(self.timeline.len() as u64);
    }

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, seq: u64) -> Option<&IqEntry> {
        self.slots[seq as usize & self.mask]
            .as_ref()
            .filter(|e| e.seq == seq)
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut IqEntry> {
        self.slots[seq as usize & self.mask]
            .as_mut()
            .filter(|e| e.seq == seq)
    }

    fn insert(&mut self, e: IqEntry) {
        let slot = &mut self.slots[e.seq as usize & self.mask];
        debug_assert!(slot.is_none(), "IQ ring slot collision");
        *slot = Some(e);
        self.len += 1;
    }

    fn remove(&mut self, seq: u64) -> Option<IqEntry> {
        let slot = &mut self.slots[seq as usize & self.mask];
        if slot.as_ref().is_some_and(|e| e.seq == seq) {
            self.len -= 1;
            slot.take()
        } else {
            None
        }
    }

    /// Moves every timeline event due at or before `now` onto the
    /// ready list, restoring oldest-first order.
    fn drain_due(&mut self, now: u64) {
        let before = self.ready.len();
        while let Some(&Reverse((cycle, seq))) = self.timeline.peek() {
            if cycle > now {
                break;
            }
            self.timeline.pop();
            debug_assert!(self.get(seq).is_some(), "scheduled entry is queued");
            self.ready.push(seq);
        }
        if self.ready.len() > before {
            self.ready.sort_unstable();
        }
    }

    /// Removes the `i`-th ready entry (by position) from both the
    /// ready list and the queue.
    fn take_ready(&mut self, i: usize) -> IqEntry {
        let seq = self.ready.remove(i);
        self.remove(seq).expect("ready entry is queued")
    }

    /// Cycle of the earliest pending timeline event.
    fn next_event(&self) -> Option<u64> {
        self.timeline.peek().map(|&Reverse((cycle, _))| cycle)
    }

    /// Ready-entry counts per execution class, computed on demand
    /// (diagnostics only — the hot path carries no per-class state).
    fn ready_class_histogram(&self) -> [u32; N_CLASSES] {
        let mut counts = [0u32; N_CLASSES];
        for &seq in &self.ready {
            if let Some(e) = self.get(seq) {
                counts[class_index(e.issue_class)] += 1;
            }
        }
        counts
    }
}

/// Fetch-stall state while a mispredicted branch is in flight. Only one
/// can be outstanding because fetch stops at the first one.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum BranchWait {
    /// No outstanding mispredicted branch.
    None,
    /// Fetched but not yet dispatched (µop seq unknown).
    Fetched,
    /// Dispatched; waiting for this µop to issue and resolve.
    Dispatched(u64),
}

/// The simulator: owns the machine state and drives one program's
/// dynamic stream through the timing model.
///
/// See the crate-level docs for an end-to-end example.
pub struct Simulator<'p> {
    cfg: SimConfig,
    prog: &'p Program,
    interp: Option<Interp<'p>>,
    // frontend
    fetch_buf: VecDeque<Fetched>,
    pending: Option<DynInst>,
    icache_ready_at: u64,
    resume_at: u64,
    branch_wait: BranchWait,
    stream_done: bool,
    bpred: Combined,
    // backend
    rob: VecDeque<RobEntry>,
    rob_head_seq: u64,
    /// Per-cluster backend state, stored inline so the hot loops index
    /// at fixed offsets with no heap indirection (and, with
    /// [`ClusterId::index`]'s mask, no bounds checks). Entries past
    /// `n` are empty placeholders; live loops slice to `[..self.n]`.
    iq: [IqBuf; MAX_CLUSTERS],
    regs: [RegFile; MAX_CLUSTERS],
    map: RenameMap,
    lsq: Lsq,
    fus: [FuPool; MAX_CLUSTERS],
    hierarchy: MemHierarchy,
    dports: PortMeter,
    bus_used: [u32; MAX_CLUSTERS],
    rf_reads_used: [u32; MAX_CLUSTERS],
    rf_writes_used: [u32; MAX_CLUSTERS],
    now: u64,
    last_progress_cycle: u64,
    uop_seq: u64,
    copy_critical: Vec<bool>,
    /// Reused buffer of candidate load sequences (memory stage).
    load_scratch: Vec<u64>,
    /// Reused buffer of woken waiter sequences (event engine).
    wake_scratch: Vec<u64>,
    /// Reused buffer of I-cache lines touched by one fetch group.
    fetch_lines: Vec<u64>,
    /// Steering decision for the instruction at the head of the fetch
    /// buffer, kept across resource-stall retries so [`Steering::steer`]
    /// is called exactly once per decoded instruction (the documented
    /// contract — re-steering would let stateful schemes advance their
    /// state once per *retry cycle* instead of once per instruction).
    steer_cache: Option<(u64, ClusterId)>,
    /// Per-µop pipeline trace, collected only when enabled.
    trace: Option<crate::Trace>,
    stats: SimStats,
    /// Number of live clusters (`cfg.n()`, cached for the hot loops).
    n: usize,
    fp_cluster: ClusterId,
    /// Clusters able to execute complex integer work (mul/div units).
    int_complex_set: ClusterSet,
    /// FP-capable clusters.
    fp_set: ClusterSet,
    /// Clusters with simple integer ALUs (candidates for free
    /// instructions).
    simple_set: ClusterSet,
    /// Cache/predictor counter snapshot taken at the end of
    /// [`Simulator::warm_functional`], so the reported statistics cover
    /// only the measured (detailed) part of the run.
    warm_baseline: WarmBaseline,
}

/// Hierarchy/predictor counters at the warming→measurement boundary.
#[derive(Copy, Clone, Debug, Default)]
struct WarmBaseline {
    l1i: CacheStats,
    l1d: CacheStats,
    l2: CacheStats,
    bpred: PredictorStats,
}

impl<'p> Simulator<'p> {
    /// Builds a simulator for `prog` with the given initial memory.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SimConfig::validate`].
    pub fn new(cfg: &SimConfig, prog: &'p Program, mem: Memory) -> Simulator<'p> {
        if let Err(e) = cfg.validate() {
            panic!("invalid simulator configuration: {e}");
        }
        let n = cfg.n();
        let fp_cluster = cfg.fp_cluster();
        // Capability masks steering decisions are clamped to: which
        // clusters hold the FU kind an instruction needs. On the paper
        // machines these reduce to the original rules (complex integer
        // → cluster 0, FP → cluster 1, free → both — or cluster 0 only
        // on the base machine, whose FP cluster has no simple ALUs).
        let mut int_complex_set = ClusterSet::EMPTY;
        let mut fp_set = ClusterSet::EMPTY;
        let mut simple_set = ClusterSet::EMPTY;
        for c in cfg.clusters() {
            let f = &cfg.fus[c.index()];
            if f.int_muldiv > 0 {
                int_complex_set.insert(c);
            }
            if f.fp_alu > 0 || f.fp_muldiv > 0 {
                fp_set.insert(c);
            }
            if f.int_alu > 0 {
                simple_set.insert(c);
            }
        }
        let mut regs: [RegFile; MAX_CLUSTERS] =
            std::array::from_fn(|c| RegFile::new(if c < n { cfg.phys_regs[c] as usize } else { 0 }));
        let mut map = RenameMap::new(fp_cluster);
        // Architectural state: integer registers live in the integer
        // cluster, FP registers in the FP cluster; everything ready.
        for r in 1..32u8 {
            let p = regs[ClusterId::INT.index()]
                .alloc()
                .expect("config validated: enough int registers");
            map.define(Reg::int(r), ClusterId::INT, p);
            regs[ClusterId::INT.index()].set_ready(p, 0);
        }
        for r in 0..32u8 {
            let p = regs[fp_cluster.index()]
                .alloc()
                .expect("config validated: enough fp registers");
            map.define(Reg::fp(r), fp_cluster, p);
            regs[fp_cluster.index()].set_ready(p, 0);
        }
        Simulator {
            prog,
            interp: Some(Interp::new(prog, mem)),
            fetch_buf: VecDeque::with_capacity(cfg.fetch_buffer as usize),
            pending: None,
            icache_ready_at: 0,
            resume_at: 0,
            branch_wait: BranchWait::None,
            stream_done: false,
            bpred: Combined::new(cfg.bpred),
            rob: VecDeque::with_capacity(cfg.rob_size as usize),
            rob_head_seq: 0,
            iq: std::array::from_fn(|c| IqBuf::for_rob(if c < n { cfg.rob_size } else { 1 })),
            regs,
            map,
            lsq: Lsq::new(),
            fus: std::array::from_fn(|c| {
                FuPool::new(if c < n {
                    cfg.fus[c]
                } else {
                    FuPoolConfig {
                        int_alu: 0,
                        int_muldiv: 0,
                        fp_alu: 0,
                        fp_muldiv: 0,
                    }
                })
            }),
            hierarchy: MemHierarchy::new(cfg.hierarchy),
            dports: PortMeter::new(cfg.dcache_ports),
            bus_used: [0; MAX_CLUSTERS],
            rf_reads_used: [0; MAX_CLUSTERS],
            rf_writes_used: [0; MAX_CLUSTERS],
            now: 0,
            last_progress_cycle: 0,
            uop_seq: 0,
            copy_critical: Vec::new(),
            load_scratch: Vec::new(),
            wake_scratch: Vec::new(),
            fetch_lines: Vec::new(),
            steer_cache: None,
            trace: None,
            stats: SimStats::default(),
            n,
            fp_cluster,
            int_complex_set,
            fp_set,
            simple_set,
            warm_baseline: WarmBaseline::default(),
            cfg: cfg.clone(),
        }
    }

    /// Builds a simulator warm-started from an interpreter
    /// [`Checkpoint`]: the functional stream resumes at the snapshot's
    /// architectural state (registers, memory, PC) while the timing
    /// machine — caches, predictor, queues — starts cold. Follow with
    /// [`Simulator::warm_functional`] to warm the memory structures
    /// before measuring, and remember that [`Simulator::run_mut`]'s
    /// `max_insts` is an *absolute* dynamic-instruction budget
    /// (`ckpt.seq() + interval` runs an `interval`-long slice).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SimConfig::validate`].
    pub fn resume_from(cfg: &SimConfig, prog: &'p Program, ckpt: &Checkpoint) -> Simulator<'p> {
        let _span = dca_obs::span("sim", "sim.resume");
        let mut sim = Simulator::new(cfg, prog, Memory::new());
        sim.interp = Some(Interp::resume(prog, ckpt));
        sim
    }

    /// Captures the simulator's current cache-hierarchy and
    /// branch-predictor state (e.g. right after
    /// [`Simulator::warm_functional`], to compare detached and
    /// continuous warming — `tests/warming_equivalence.rs`).
    pub fn uarch_snapshot(&self) -> UarchSnapshot {
        UarchSnapshot::capture(&self.hierarchy, &self.bpred)
    }

    /// Restores a continuously-warmed [`UarchSnapshot`] into the
    /// machine and makes its counters the warming baseline, so the
    /// reported statistics cover only the measured interval — the
    /// continuous-warming replacement for [`Simulator::warm_functional`]
    /// (DESIGN.md §9). Call right after [`Simulator::resume_from`],
    /// before any detailed cycle runs.
    ///
    /// # Errors
    ///
    /// Fails, leaving the machine untouched, when the snapshot's cache
    /// or predictor geometry does not match this machine's
    /// configuration.
    pub fn restore_uarch(&mut self, snap: &UarchSnapshot) -> Result<(), SnapshotError> {
        let _span = dca_obs::span("sim", "sim.restore");
        snap.restore(&mut self.hierarchy, &mut self.bpred)?;
        let (l1i, l1d, l2, bpred) = snap.counters();
        self.warm_baseline = WarmBaseline { l1i, l1d, l2, bpred };
        Ok(())
    }

    /// Functional-warming mode of the sampled-simulation harness
    /// (DESIGN.md §7): advances the functional stream by at most
    /// `insts` instructions, updating the cache hierarchy and the
    /// branch predictor — but not the backend — exactly as fetch,
    /// the memory stage and branch resolution eventually would. The
    /// warming accesses are excluded from the run's reported
    /// statistics. Returns the number of instructions consumed (less
    /// than `insts` only if the stream ended).
    ///
    /// Call before [`Simulator::run_mut`]; the warmed instructions
    /// still count against that call's absolute `max_insts` budget.
    pub fn warm_functional(&mut self, insts: u64) -> u64 {
        self.warm_functional_inner(insts, None)
    }

    /// Like [`Simulator::warm_functional`], but additionally presents
    /// every warmed instruction to `steering` through
    /// [`Steering::warm_observe`], so schemes with decode-time state
    /// (slice tables) start the measured interval warm. The steering
    /// scheme's *decisions* are not consulted — warming only replays
    /// the committed-path stream.
    pub fn warm_functional_steered(&mut self, insts: u64, steering: &mut dyn Steering) -> u64 {
        self.warm_functional_inner(insts, Some(steering))
    }

    fn warm_functional_inner(
        &mut self,
        insts: u64,
        mut steering: Option<&mut dyn Steering>,
    ) -> u64 {
        let interp = self.interp.as_mut().expect("interpreter present");
        let mut done = 0;
        while done < insts {
            let Some(d) = interp.next() else { break };
            self.hierarchy.access_inst(d.pc);
            if let Some(ea) = d.ea {
                self.hierarchy.access_data(ea);
            }
            if d.inst.op.is_cond_branch() {
                self.bpred
                    .update(d.pc, d.taken.expect("cond branches have outcomes"));
            }
            if let Some(s) = steering.as_deref_mut() {
                s.warm_observe(d.sidx, &d.inst);
            }
            done += 1;
        }
        self.warm_baseline = WarmBaseline {
            l1i: self.hierarchy.l1i_stats(),
            l1d: self.hierarchy.l1d_stats(),
            l2: self.hierarchy.l2_stats(),
            bpred: self.bpred.stats(),
        };
        done
    }

    /// Runs at most `max_insts` dynamic instructions to completion
    /// (stream exhausted and pipeline drained) and returns the
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline livelocks (a simulator bug) or if the
    /// workload requires an inter-cluster register transfer on a
    /// machine without bypasses (`cfg.intercluster == false` with a
    /// bank-crossing workload).
    pub fn run(mut self, steering: &mut dyn Steering, max_insts: u64) -> SimStats {
        self.run_mut(steering, max_insts)
    }

    /// Like [`Simulator::run`], but borrows the simulator, so post-run
    /// state — notably a collected [`Trace`](crate::Trace) — remains
    /// accessible through [`Simulator::take_trace`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Simulator::run`].
    pub fn run_mut(&mut self, steering: &mut dyn Steering, max_insts: u64) -> SimStats {
        let mut span = dca_obs::span("sim", "sim.run").arg("max_insts", max_insts);
        self.interp = Some(
            self.interp
                .take()
                .expect("interpreter present")
                .with_fuel(max_insts),
        );
        while !self.done() {
            self.step(steering);
            assert!(
                self.now < self.last_progress_cycle + NO_PROGRESS_LIMIT,
                "pipeline livelock: cycle {} ({} max instructions)\n\
                 rob head: {:?}\niq heads: {:?}\n\
                 ready: {:?} by class {:?}\n\
                 lsq: {:?}\nbranch_wait: {:?} resume_at {}\n\
                 fetch_buf {} pending {:?} stream_done {}",
                self.now,
                max_insts,
                self.rob.front(),
                self.cfg.clusters().map(|c| self.iq_first(c)).collect::<Vec<_>>(),
                self.iq[..self.n].iter().map(|q| &q.ready).collect::<Vec<_>>(),
                self.iq[..self.n].iter().map(IqBuf::ready_class_histogram).collect::<Vec<_>>(),
                self.lsq.entries().first(),
                self.branch_wait,
                self.resume_at,
                self.fetch_buf.len(),
                self.pending.map(|d| d.seq),
                self.stream_done,
            );
        }
        self.stats.cycles = self.now;
        self.stats.critical_copies = self.copy_critical.iter().filter(|&&c| c).count() as u64;
        self.stats.l1i = self.hierarchy.l1i_stats().since(&self.warm_baseline.l1i);
        self.stats.l1d = self.hierarchy.l1d_stats().since(&self.warm_baseline.l1d);
        self.stats.l2 = self.hierarchy.l2_stats().since(&self.warm_baseline.l2);
        self.stats.bpred = self.bpred.stats().since(&self.warm_baseline.bpred);
        span.add_arg("committed", self.stats.committed);
        span.add_arg("cycles", self.stats.cycles);
        let m = dca_obs::metrics();
        m.detailed_insts_total.add(self.stats.committed);
        let peak = self.iq[..self.n].iter().map(|q| q.timeline_peak).max();
        m.event_queue_peak.set_max(peak.unwrap_or(0));
        self.stats.clone()
    }

    /// Starts recording a [`Trace`](crate::Trace) of at most `capacity`
    /// committed µops. Call before [`Simulator::run_mut`]; retrieve the
    /// result with [`Simulator::take_trace`]. Enabling tracing does not
    /// change any timing.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(crate::Trace::with_capacity(capacity));
    }

    /// Takes the collected trace, leaving tracing disabled. Returns
    /// `None` if [`Simulator::enable_trace`] was never called.
    pub fn take_trace(&mut self) -> Option<crate::Trace> {
        self.trace.take()
    }

    fn done(&self) -> bool {
        self.stream_done
            && self.pending.is_none()
            && self.fetch_buf.is_empty()
            && self.rob.is_empty()
    }

    fn rob_index_of(&self, seq: u64) -> Option<usize> {
        let idx = seq.checked_sub(self.rob_head_seq)? as usize;
        (idx < self.rob.len()).then_some(idx)
    }

    /// Queue occupancies as the `u32`s `SteerCtx` carries. The narrowing
    /// is audited (ISSUE 2): occupancy is bounded by the *configured*
    /// queue size — dispatch checks free space before inserting — never
    /// by run length, so paper-scale (100M-instruction) runs cannot
    /// overflow it. Counters that do grow with run length
    /// (cycles, committed, copy ids) are all 64-bit.
    fn iq_lens(&self) -> [u32; MAX_CLUSTERS] {
        let mut lens = [0u32; MAX_CLUSTERS];
        for (c, q) in self.iq[..self.n].iter().enumerate() {
            debug_assert!(
                q.len() <= self.cfg.iq_size[c] as usize,
                "IQ occupancy exceeds the configured queue size"
            );
            lens[c] = q.len() as u32;
        }
        lens
    }

    /// Oldest entry queued in cluster `c` (diagnostics).
    fn iq_first(&self, c: ClusterId) -> Option<&IqEntry> {
        (self.rob_head_seq..self.uop_seq).find_map(|seq| self.iq[c.index()].get(seq))
    }

    // ------------------------------------------------------------------
    // cycle
    // ------------------------------------------------------------------

    fn step(&mut self, steering: &mut dyn Steering) {
        let now = self.now;
        for f in &mut self.fus[..self.n] {
            f.begin_cycle(now);
        }
        self.dports.begin_cycle();
        self.bus_used.fill(0);
        self.rf_reads_used.fill(0);
        self.rf_writes_used.fill(0);

        let ctx = self.make_ctx();
        self.stats.balance.record(self.balance_sample(&ctx.ready));
        self.stats.replication_reg_cycles += u64::from(self.map.replication_count());
        steering.on_cycle(&ctx);

        self.commit();
        self.memory_stage(steering);
        self.issue(steering);
        self.dispatch(steering, ctx);
        self.fetch();

        self.now += 1;
        self.skip_ahead(steering);
    }

    /// Fast-forwards `now` to the next cycle at which any stage can
    /// make progress, performing only the per-cycle bookkeeping
    /// (balance sample, replication integral, [`Steering::on_cycle`])
    /// for the skipped cycles. Only legal when the machine is
    /// *quiescent* — no ready IQ entry, an empty fetch buffer and no
    /// load awaiting disambiguation — because then commit, memory,
    /// issue, dispatch and fetch all provably no-op until the next
    /// timeline / completion / fetch event, making the skipped cycles
    /// bit-identical to stepping through them.
    fn skip_ahead(&mut self, steering: &mut dyn Steering) {
        if self.cfg.engine != Engine::Event {
            return;
        }
        if self.iq[..self.n].iter().any(|q| !q.ready.is_empty()) {
            return;
        }
        if !self.fetch_buf.is_empty() {
            return;
        }
        if self.done() {
            return;
        }
        fn consider(wake: &mut Option<u64>, t: u64) {
            *wake = Some(wake.map_or(t, |w| w.min(t)));
        }
        let mut wake: Option<u64> = None;
        for q in &self.iq[..self.n] {
            if let Some(t) = q.next_event() {
                consider(&mut wake, t);
            }
        }
        // Memory gate: a waiting load could first act (disambiguate)
        // once its own and every older store's address timer is due —
        // all known cycles. Unknown addresses resolve only through an
        // EA issue, which can only happen at a non-skipped cycle, so
        // loads behind one add no candidate. The candidate may be
        // earlier than the true action cycle (store-data forwarding
        // delays, D-port contention); waking early merely shortens the
        // skip and the real step re-arbitrates.
        if self.lsq.waiting_loads() > 0 {
            let mut older_store_addrs_known = true;
            let mut older_store_addr_at = 0u64;
            for en in self.lsq.entries() {
                if en.is_store {
                    match en.addr {
                        Some(_) => older_store_addr_at = older_store_addr_at.max(en.addr_at),
                        None => older_store_addrs_known = false,
                    }
                    continue;
                }
                if en.state != LoadState::Waiting {
                    continue;
                }
                if en.addr.is_some() && older_store_addrs_known {
                    consider(&mut wake, en.addr_at.max(older_store_addr_at));
                }
            }
        }
        // Commit gate: the earliest cycle the ROB head could retire.
        // Gates that are still event-driven (un-issued EA µop, in-flight
        // store data) contribute nothing — they resolve via an issue,
        // which can only happen at a non-skipped cycle.
        if let Some(head) = self.rob.front() {
            let gate = match head.kind {
                UopKind::Store => {
                    let entry = self.lsq.entries().first();
                    match (head.complete_at, entry) {
                        (Some(c), Some(en)) if en.addr.is_some() => {
                            debug_assert_eq!(en.seq, head.seq);
                            let data_known = en.data.map_or(Some(0), |(dc, dp)| {
                                let at = self.regs[dc.index()].ready_at(dp);
                                (at != IN_FLIGHT).then_some(at)
                            });
                            data_known.map(|d| c.max(en.addr_at).max(d))
                        }
                        _ => None,
                    }
                }
                _ => head.complete_at,
            };
            if let Some(t) = gate {
                consider(&mut wake, t);
            }
        }
        // Fetch gate: only when fetch is waiting on a timer (I-cache
        // fill or mispredict redirect). While a mispredicted branch is
        // unresolved, resolution itself is an issue event.
        if !(self.stream_done && self.pending.is_none())
            && self.branch_wait == BranchWait::None
        {
            consider(&mut wake, self.icache_ready_at.max(self.resume_at));
        }
        let Some(wake) = wake else { return };
        if wake <= self.now {
            return;
        }
        let iq_len = self.iq_lens();
        for cycle in self.now..wake {
            // Mirrors the bookkeeping prefix of `step` for a cycle in
            // which every stage no-ops: zero entries are ready in
            // any cluster and the rename map is untouched.
            self.stats.balance.record(0);
            self.stats.replication_reg_cycles += u64::from(self.map.replication_count());
            steering.on_cycle(&SteerCtx {
                now: cycle,
                n: self.cfg.n_clusters,
                ready: [0; MAX_CLUSTERS],
                iq_len,
                issue_width: self.cfg.issue_width,
            });
        }
        self.now = wake;
    }

    /// The balance-histogram sample for this cycle's ready counts: the
    /// paper's signed FP−INT difference on 2-cluster machines, the
    /// max−min spread (always ≥ 0) on wider ones.
    fn balance_sample(&self, ready: &[u32; MAX_CLUSTERS]) -> i64 {
        if self.n == 2 {
            i64::from(ready[1]) - i64::from(ready[0])
        } else {
            let live = &ready[..self.n];
            let max = live.iter().max().copied().unwrap_or(0);
            let min = live.iter().min().copied().unwrap_or(0);
            i64::from(max) - i64::from(min)
        }
    }

    fn make_ctx(&mut self) -> SteerCtx {
        let mut ready = [0u32; MAX_CLUSTERS];
        match self.cfg.engine {
            Engine::Event => {
                let now = self.now;
                for (k, q) in self.iq[..self.n].iter_mut().enumerate() {
                    q.drain_due(now);
                    ready[k] = q.ready.len() as u32;
                }
            }
            Engine::Scan => {
                for (k, q) in self.iq[..self.n].iter().enumerate() {
                    ready[k] = (self.rob_head_seq..self.uop_seq)
                        .filter_map(|seq| q.get(seq))
                        .filter(|e| self.entry_ready(e))
                        .count() as u32;
                }
            }
        }
        SteerCtx {
            now: self.now,
            n: self.cfg.n_clusters,
            ready,
            iq_len: self.iq_lens(),
            issue_width: self.cfg.issue_width,
        }
    }

    fn entry_ready(&self, e: &IqEntry) -> bool {
        if e.dispatched_at >= self.now {
            return false;
        }
        e.srcs
            .iter()
            .flatten()
            .all(|&p| self.regs[e.cluster.index()].is_ready(p, self.now))
    }

    // ------------------------------------------------------------------
    // commit
    // ------------------------------------------------------------------

    fn commit(&mut self) {
        let mut budget = self.cfg.retire_width;
        while budget > 0 {
            let Some(head) = self.rob.front() else { break };
            match head.kind {
                UopKind::Store => {
                    // Needs: EA complete, data ready, and a D-cache port.
                    if head.complete_at.is_none_or(|c| c > self.now) {
                        break;
                    }
                    let entry = self
                        .lsq
                        .entries()
                        .first()
                        .expect("store at ROB head is oldest in LSQ");
                    debug_assert_eq!(entry.seq, head.seq);
                    let addr = match entry.addr {
                        Some(a) if entry.addr_at <= self.now => a,
                        _ => break,
                    };
                    // `None` data means the store writes r0 (constant
                    // zero) — always ready.
                    if let Some((dc, dp)) = entry.data {
                        if !self.regs[dc.index()].is_ready(dp, self.now) {
                            break;
                        }
                    }
                    if !self.dports.try_acquire() {
                        break;
                    }
                    self.hierarchy.access_data(addr);
                    let seq = head.seq;
                    self.lsq.retire(seq);
                }
                UopKind::Load => {
                    if head.complete_at.is_none_or(|c| c > self.now) {
                        break;
                    }
                    let seq = head.seq;
                    self.lsq.retire(seq);
                }
                UopKind::Normal | UopKind::Copy { .. } => {
                    if head.complete_at.is_none_or(|c| c > self.now) {
                        break;
                    }
                }
            }
            let head = self.rob.pop_front().expect("checked non-empty");
            debug_assert!(
                head.sidx as usize * 2 < usize::MAX && head.cluster.index() < self.n,
                "ROB entry metadata intact"
            );
            if let Some(tr) = self.trace.as_mut() {
                tr.push(crate::trace::UopRecord {
                    seq: head.seq,
                    dyn_seq: head.dyn_seq,
                    sidx: head.sidx,
                    pc: head.pc,
                    text: crate::trace::record_text(&self.prog.static_insts()[head.sidx as usize].inst),
                    cluster: head.cluster,
                    kind: match head.kind {
                        UopKind::Normal => crate::TracedKind::Normal,
                        UopKind::Load => crate::TracedKind::Load,
                        UopKind::Store => crate::TracedKind::Store,
                        UopKind::Copy { .. } => crate::TracedKind::Copy,
                    },
                    fetch_at: head.fetch_at,
                    dispatch_at: head.dispatch_at,
                    issue_at: head.issue_at,
                    complete_at: head.complete_at.unwrap_or(self.now),
                    commit_at: self.now,
                    mispredicted: head.mispredicted && head.is_cond_branch,
                });
            }
            self.rob_head_seq = head.seq + 1;
            self.last_progress_cycle = self.now;
            for (c, p) in head.displaced.iter() {
                self.regs[c.index()].release(p);
            }
            self.stats.committed_uops += 1;
            if head.is_program {
                self.stats.committed += 1;
                match head.kind {
                    UopKind::Load => self.stats.loads += 1,
                    UopKind::Store => self.stats.stores += 1,
                    _ => {}
                }
                if head.is_cond_branch {
                    self.stats.branches += 1;
                    if head.mispredicted {
                        self.stats.mispredicts += 1;
                    }
                }
            }
            budget -= 1;
        }
    }

    // ------------------------------------------------------------------
    // memory (unified disambiguation logic)
    // ------------------------------------------------------------------

    fn memory_stage(&mut self, steering: &mut dyn Steering) {
        // Collect candidate loads in program order (into a reused
        // buffer); issue while ports remain.
        if self.lsq.waiting_loads() == 0 {
            return;
        }
        let now = self.now;
        let mut candidates = std::mem::take(&mut self.load_scratch);
        candidates.clear();
        candidates.extend(
            self.lsq
                .entries()
                .iter()
                .filter(|e| {
                    !e.is_store && e.state == LoadState::Waiting && e.retry_at <= now
                })
                .map(|e| e.seq),
        );
        for &seq in &candidates {
            let regs = &self.regs;
            let verdict = self.lsq.load_disambiguate(seq, now, |c, p| {
                regs[c.index()].is_ready(p, now)
            });
            let forward = match verdict {
                Ok(f) => f,
                Err(retry_at) => {
                    // Sleep until the blocking timer (or parked until
                    // the blocking store address arrives).
                    let e = self.lsq.entry_mut(seq).expect("entry exists");
                    e.retry_at = retry_at;
                    continue;
                }
            };
            let (done_at, missed) = match forward {
                Some(_store_seq) => {
                    self.stats.forwarded_loads += 1;
                    (now + 1, false)
                }
                None => {
                    if !self.dports.try_acquire() {
                        continue; // retry next cycle
                    }
                    let addr = self.lsq.entry_mut(seq).and_then(|e| e.addr).expect("addr known");
                    let (lat, lvl) = self.hierarchy.access_data(addr);
                    (now + u64::from(lat), lvl != MemLevel::L1)
                }
            };
            let sidx = self.lsq.mark_load_issued(seq);
            let rob_idx = self.rob_index_of(seq).expect("load in ROB");
            let (dc, dp) = self.rob[rob_idx].dst.expect("loads have destinations");
            self.rob[rob_idx].complete_at = Some(done_at);
            self.announce_ready(dc, dp, done_at, None);
            if missed {
                steering.on_load_miss(sidx);
            }
        }
        self.load_scratch = candidates;
    }

    // ------------------------------------------------------------------
    // issue / execute
    // ------------------------------------------------------------------

    /// The register-file port demand of an IQ entry issuing from
    /// `cluster`: reads in its own cluster, the write in the
    /// destination's cluster (for copies, the remote one).
    fn rf_port_demand(e: &IqEntry, cluster: ClusterId) -> (u32, Option<ClusterId>) {
        let reads = e.srcs.iter().flatten().count() as u32;
        let write_cluster = match e.kind {
            UopKind::Copy { .. } => e.copy_dst.map(|(dc, _)| dc),
            _ => e.dst.map(|_| cluster),
        };
        (reads, write_cluster)
    }

    /// Register-file port arbitration at issue. Returns `false` when a
    /// port limit is exceeded; otherwise reserves the ports.
    fn try_rf_ports(&mut self, reads: u32, write_cluster: Option<ClusterId>, cluster: ClusterId) -> bool {
        let read_cap = self.cfg.rf_read_ports[cluster.index()];
        if read_cap != 0 && self.rf_reads_used[cluster.index()] + reads > read_cap {
            return false;
        }
        if let Some(wc) = write_cluster {
            let write_cap = self.cfg.rf_write_ports[wc.index()];
            if write_cap != 0 && self.rf_writes_used[wc.index()] + 1 > write_cap {
                return false;
            }
            self.rf_writes_used[wc.index()] += 1;
        }
        self.rf_reads_used[cluster.index()] += reads;
        true
    }

    /// Structural-resource gauntlet shared by both engines: bus slot
    /// for copies, FU slot otherwise. Reservations stick for the cycle
    /// even if the µop is later port-rejected (see `try_rf_ports`).
    fn try_structural(&mut self, kind: UopKind, issue_class: ExecClass, c: ClusterId) -> bool {
        match kind {
            UopKind::Copy { .. } => {
                // Buses are provisioned per *source* cluster; a copy
                // issues from the cluster whose queue holds it.
                let dir = c.index();
                if self.bus_used[dir] < self.cfg.buses_per_dir {
                    self.bus_used[dir] += 1;
                    true
                } else {
                    false
                }
            }
            _ => self.fus[c.index()].try_issue(issue_class, self.now),
        }
    }

    fn issue(&mut self, steering: &mut dyn Steering) {
        match self.cfg.engine {
            Engine::Event => self.issue_event(steering),
            Engine::Scan => self.issue_scan(steering),
        }
    }

    /// Event-engine issue: pops oldest-first from the ready list. The
    /// list holds exactly the entries the scan would have found ready,
    /// in the same seq order, so arbitration behaves identically.
    fn issue_event(&mut self, steering: &mut dyn Steering) {
        for ci in 0..self.n {
            let c = ClusterId::from_index_unchecked(ci);
            let mut budget = self.cfg.issue_width[c.index()];
            let mut i = 0;
            while budget > 0 && i < self.iq[c.index()].ready.len() {
                let seq = self.iq[c.index()].ready[i];
                let (kind, issue_class, reads, write_cluster) = {
                    let e = self.iq[c.index()].get(seq).expect("ready entry is queued");
                    debug_assert!(self.entry_ready(e), "ready list ahead of operands");
                    let (reads, wc) = Self::rf_port_demand(e, c);
                    (e.kind, e.issue_class, reads, wc)
                };
                if !self.try_structural(kind, issue_class, c) {
                    i += 1;
                    continue;
                }
                if !self.try_rf_ports(reads, write_cluster, c) {
                    // FU/bus reservations for this µop are only logical
                    // within the cycle; skipping it leaves them charged,
                    // which conservatively models a port-starved issue
                    // slot that could not be reclaimed this cycle.
                    i += 1;
                    continue;
                }
                let e = self.iq[c.index()].take_ready(i);
                debug_assert_eq!(e.cluster, c, "IQ entry in the wrong queue");
                self.execute_uop(&e, c, steering);
                budget -= 1;
            }
        }
    }

    /// Scan-engine issue: the original full walk of the queue in
    /// program order, re-checking operand readiness per entry.
    fn issue_scan(&mut self, steering: &mut dyn Steering) {
        for ci in 0..self.n {
            let c = ClusterId::from_index_unchecked(ci);
            let mut budget = self.cfg.issue_width[c.index()];
            if budget == 0 {
                continue;
            }
            for seq in self.rob_head_seq..self.uop_seq {
                if budget == 0 {
                    break;
                }
                let Some(e) = self.iq[c.index()].get(seq) else { continue };
                let (ready, kind, issue_class) = (self.entry_ready(e), e.kind, e.issue_class);
                let (reads, write_cluster) = Self::rf_port_demand(e, c);
                if !ready {
                    continue;
                }
                if !self.try_structural(kind, issue_class, c) {
                    continue;
                }
                if !self.try_rf_ports(reads, write_cluster, c) {
                    continue;
                }
                let e = self
                    .iq[c.index()]
                    .remove(seq)
                    .expect("scanned entry is queued");
                debug_assert_eq!(e.cluster, c, "IQ entry in the wrong queue");
                self.execute_uop(&e, c, steering);
                budget -= 1;
            }
        }
    }

    /// Announces that register `p` of `cluster` becomes readable at
    /// `at` (with copy provenance when `copy` is set) and, under the
    /// event engine, wakes its waiters: each waiter's pending-operand
    /// counter drops and, at zero, the entry is scheduled on its
    /// cluster's timeline for `max(dispatch+1, max src ready)`. The
    /// waiter lists drain through a reused scratch buffer, so the
    /// steady state allocates nothing.
    fn announce_ready(&mut self, cluster: ClusterId, p: PhysReg, at: u64, copy: Option<u64>) {
        let rf = &mut self.regs[cluster.index()];
        match copy {
            Some(id) => rf.set_ready_from_copy(p, at, id),
            None => rf.set_ready(p, at),
        }
        if !rf.has_waiters(p) {
            return;
        }
        debug_assert_eq!(self.cfg.engine, Engine::Event, "scan engine registers no waiters");
        let mut woken = std::mem::take(&mut self.wake_scratch);
        woken.clear();
        self.regs[cluster.index()].drain_waiters_into(p, &mut woken);
        let buf = &mut self.iq[cluster.index()];
        for &seq in &woken {
            let e = buf.get_mut(seq).expect("waiting µop is queued");
            debug_assert!(e.pending > 0);
            e.pending -= 1;
            e.ready_cycle = e.ready_cycle.max(at);
            if e.pending == 0 {
                let when = e.ready_cycle.max(e.dispatched_at + 1);
                debug_assert!(when > self.now, "wakeups never fire retroactively");
                buf.push_event(when, seq);
            }
        }
        self.wake_scratch = woken;
    }

    /// Detects whether the last-arriving source of an issuing consumer
    /// was delivered by a copy that actually delayed it (the paper's
    /// critical-communication definition).
    fn note_critical_sources(&mut self, e: &IqEntry, cluster: ClusterId) {
        let rf = &self.regs[cluster.index()];
        // Track the last-arriving source (ties resolved in favour of
        // the later operand slot, matching the stable order the former
        // sort produced) and the runner-up arrival time.
        let mut any = false;
        let mut last_t = 0u64;
        let mut last_copy: Option<u64> = None;
        let mut second_t = 0u64;
        for &p in e.srcs.iter().flatten() {
            let t = rf.ready_at(p);
            let copy = rf.copy_id(p);
            if !any || t >= last_t {
                second_t = if any { last_t } else { 0 };
                last_t = t;
                last_copy = copy;
            } else if t > second_t {
                second_t = t;
            }
            any = true;
        }
        if !any {
            return;
        }
        let Some(copy_id) = last_copy else { return };
        let earliest_otherwise = second_t.max(e.dispatched_at + 1);
        if last_t > earliest_otherwise {
            self.copy_critical[copy_id as usize] = true;
        }
    }

    fn execute_uop(&mut self, e: &IqEntry, cluster: ClusterId, steering: &mut dyn Steering) {
        let now = self.now;
        self.note_critical_sources(e, cluster);
        if !matches!(e.kind, UopKind::Copy { .. }) {
            steering.on_issued(e.dyn_seq, cluster);
        }
        let rob_idx = self.rob_index_of(e.seq).expect("µop in ROB");
        self.rob[rob_idx].issue_at = Some(now);
        match e.kind {
            UopKind::Copy { id } => {
                // The copy reads its source through the local bypass
                // (0 cycles, like any FU) and drives the inter-cluster
                // bus for `copy_latency` cycles (plus the pair's extra
                // distance on non-flat topologies): a remote consumer
                // issues exactly that many cycles after a local one
                // could have.
                let (dst_cluster, dst) = e.copy_dst.expect("copies have destinations");
                let dist = self.cfg.extra_distance[cluster.index()][dst_cluster.index()];
                let at = now + u64::from(self.cfg.copy_latency.max(1)) + u64::from(dist);
                self.rob[rob_idx].complete_at = Some(at);
                self.announce_ready(dst_cluster, dst, at, Some(id));
            }
            UopKind::Load | UopKind::Store => {
                // EA micro-op: the address becomes usable next cycle.
                let addr = e.ea.expect("memory µops carry their effective address");
                self.lsq.set_addr(e.seq, addr, now + 1);
                if e.kind == UopKind::Store {
                    self.rob[rob_idx].complete_at = Some(now + 1);
                }
                // Loads complete when the access returns (memory_stage).
            }
            UopKind::Normal => {
                let lat = u64::from(latency_of(e.issue_class));
                let done = now + lat;
                if let Some(p) = e.dst {
                    let dst_cluster = self.rob[rob_idx]
                        .dst
                        .map(|(c, _)| c)
                        .unwrap_or(cluster);
                    self.announce_ready(dst_cluster, p, done, None);
                }
                self.rob[rob_idx].complete_at = Some(done);
                if e.mispredicted && self.branch_wait == BranchWait::Dispatched(e.seq) {
                    self.resume_at = done;
                    self.branch_wait = BranchWait::None;
                    steering.on_mispredict(e.sidx);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // dispatch (decode / steer / rename)
    // ------------------------------------------------------------------

    fn allowed_clusters(&self, op: Opcode) -> Allowed {
        if self.cfg.unified {
            return Allowed::only(ClusterId::INT);
        }
        // Capability masks, precomputed from the FU mix at
        // construction. On the base machine the FP cluster has no
        // simple ALUs, so `simple_set` collapses to cluster 0 — the
        // naive partitioning falls out of the mask rule.
        match op.cluster_need() {
            ClusterNeed::IntOnly => Allowed::from_set(self.int_complex_set),
            ClusterNeed::FpOnly => Allowed::from_set(self.fp_set),
            ClusterNeed::Either => Allowed::from_set(self.simple_set),
        }
    }

    /// Integer source registers that participate in renaming for the
    /// *cluster-local* part of the instruction (EA base and integer
    /// store data; FP operands are never replicated). At most two,
    /// returned inline and densely from slot 0.
    fn renamed_srcs(inst: &dca_isa::Inst) -> [Option<Reg>; 2] {
        let mut v = [None, None];
        match inst.op {
            Opcode::FSt => {
                // base (int) renames locally; FP data read at commit.
                v[0] = inst.src1.filter(|r| !r.is_zero());
            }
            _ => {
                for (k, r) in inst.srcs().take(2).enumerate() {
                    v[k] = Some(r);
                }
            }
        }
        v
    }

    fn dispatch(&mut self, steering: &mut dyn Steering, mut ctx: SteerCtx) {
        let mut budget = self.cfg.decode_width;
        let mut stalled = false;
        while budget > 0 {
            let Some(front) = self.fetch_buf.front() else { break };
            if front.available_at > self.now {
                break;
            }
            let f = *front;
            let d = &f.d;
            let inst = d.inst;
            // Build the steering view *before* inserting copies.
            let mut srcs: [Option<SrcView>; 2] = [None, None];
            for (k, r) in inst.srcs().take(2).enumerate() {
                srcs[k] = Some(SrcView {
                    reg: r,
                    mapped: self.map.mapped_set(r),
                });
            }
            let view = DecodedView {
                seq: d.seq,
                sidx: d.sidx,
                pc: d.pc,
                inst: &inst,
                class: inst.op.class(),
                srcs,
            };
            let allowed = self.allowed_clusters(inst.op);
            let cluster = if self.cfg.unified {
                ClusterId::INT
            } else if let Some((_, c)) = self.steer_cache.filter(|&(s, _)| s == d.seq) {
                // Decision already made when this instruction first
                // reached dispatch; a resource stall must not re-steer.
                c
            } else {
                match steering.steer(&view, allowed, &ctx) {
                    Some(c) => {
                        let c = allowed.clamp(c);
                        self.steer_cache = Some((d.seq, c));
                        c
                    }
                    None => {
                        stalled = true;
                        break;
                    }
                }
            };

            // ---- resource accounting -------------------------------
            // A copy is sourced from the mapped cluster *closest* to
            // the consumer (smallest extra distance, ties towards the
            // lowest index) — on 2-cluster machines necessarily the
            // other cluster. The copy µop occupies the source cluster's
            // queue and allocates its destination register locally.
            let mut needs_copy: [Option<(Reg, ClusterId)>; 2] = [None, None];
            let mut n_copies = 0u32;
            for r in Self::renamed_srcs(&inst).into_iter().flatten() {
                if self.map.lookup(r, cluster).is_none() {
                    let src = rank_clusters(self.map.mapped_set(r), |s| {
                        -i64::from(self.cfg.extra_distance[s.index()][cluster.index()])
                    })
                    .expect("a live operand is mapped in some cluster");
                    needs_copy[n_copies as usize] = Some((r, src));
                    n_copies += 1;
                }
            }
            if n_copies > 0 && !self.cfg.intercluster {
                panic!(
                    "machine without inter-cluster bypasses needs a copy of {:?} \
                     for `{inst}` — workload and configuration are inconsistent",
                    needs_copy
                );
            }
            let dst_cluster = inst.effective_dst().map(|r| {
                if r.is_fp() {
                    self.fp_cluster
                } else {
                    cluster
                }
            });
            let rob_free = self.cfg.rob_size - self.rob.len() as u32;
            let mut iq_needed = [0u32; MAX_CLUSTERS];
            iq_needed[cluster.index()] += 1;
            for &(_, src) in needs_copy.iter().flatten() {
                iq_needed[src.index()] += 1;
            }
            let mut regs_needed = [0u32; MAX_CLUSTERS];
            regs_needed[cluster.index()] += n_copies; // copy destinations are local
            if let Some(dc) = dst_cluster {
                regs_needed[dc.index()] += 1;
            }
            let enough = rob_free > n_copies
                && (0..self.n).all(|k| {
                    self.cfg.iq_size[k] - self.iq[k].len() as u32 >= iq_needed[k]
                        && self.regs[k].free_count() >= regs_needed[k] as usize
                });
            if !enough {
                stalled = true;
                break;
            }

            // ---- allocate copies -----------------------------------
            for (r, src) in needs_copy.into_iter().flatten() {
                let src_preg = self
                    .map
                    .lookup(r, src)
                    .expect("operand is mapped in the source cluster");
                let q = self.regs[cluster.index()].alloc().expect("checked");
                let mut displaced = Displaced::default();
                if let Some((dc, dp)) = self.map.replicate(r, cluster, q) {
                    displaced.push(dc, dp);
                }
                let id = self.copy_critical.len() as u64;
                self.copy_critical.push(false);
                let seq = self.next_uop_seq();
                self.rob.push_back(RobEntry {
                    seq,
                    dyn_seq: d.seq,
                    sidx: d.sidx,
                    pc: d.pc,
                    cluster: src,
                    kind: UopKind::Copy { id },
                    is_program: false,
                    dst: Some((cluster, q)),
                    displaced,
                    fetch_at: f.available_at.saturating_sub(1),
                    dispatch_at: self.now,
                    issue_at: None,
                    complete_at: None,
                    mispredicted: false,
                    is_cond_branch: false,
                });
                self.iq_insert(IqEntry {
                    seq,
                    dyn_seq: d.seq,
                    sidx: d.sidx,
                    cluster: src,
                    issue_class: ExecClass::IntAlu,
                    kind: UopKind::Copy { id },
                    srcs: [Some(src_preg), None],
                    copy_dst: Some((cluster, q)),
                    dst: None,
                    ea: None,
                    dispatched_at: self.now,
                    mispredicted: false,
                    pending: 0,
                    ready_cycle: 0,
                });
                self.stats.copies += 1;
                self.stats.copies_by_dir[src.index()] += 1;
            }

            // ---- main µop -------------------------------------------
            // Sources are renamed *before* the destination is defined,
            // so an instruction reading and writing the same logical
            // register sees the previous mapping.
            let seq = self.next_uop_seq();
            let kind = match inst.op.class() {
                ExecClass::Load => UopKind::Load,
                ExecClass::Store => UopKind::Store,
                _ => UopKind::Normal,
            };
            // IQ sources: EA base for memory ops, all sources otherwise.
            let mut iq_srcs: [Option<PhysReg>; 2] = [None, None];
            if inst.op.is_mem() {
                if let Some(b) = inst.src1.filter(|r| !r.is_zero()) {
                    iq_srcs[0] = Some(
                        self.map
                            .lookup(b, cluster)
                            .expect("base register mapped locally"),
                    );
                }
            } else {
                for (k, r) in Self::renamed_srcs(&inst).into_iter().flatten().enumerate() {
                    iq_srcs[k] = Some(
                        self.map
                            .lookup(r, cluster)
                            .expect("sources mapped locally after copies"),
                    );
                }
                // FP-bank sources of FP ops rename in the FP cluster.
                if matches!(
                    inst.op,
                    Opcode::FAdd
                        | Opcode::FSub
                        | Opcode::FMul
                        | Opcode::FDiv
                        | Opcode::FMov
                        | Opcode::FCmpLt
                        | Opcode::CvtFi
                ) {
                    for (k, r) in inst.srcs().take(2).enumerate() {
                        iq_srcs[k] = Some(
                            self.map
                                .lookup(r, self.fp_cluster)
                                .expect("FP sources mapped in the FP cluster"),
                        );
                    }
                }
            }
            // Store data operand is also a *source*: resolve before the
            // destination rename (stores have no destination, but keep
            // the ordering uniform and before `define`).
            let store_data = if inst.op.is_store() {
                let data_reg = inst.src2.expect("stores have data registers");
                if data_reg.is_zero() {
                    None
                } else if data_reg.is_fp() {
                    Some((
                        self.fp_cluster,
                        self.map
                            .lookup(data_reg, self.fp_cluster)
                            .expect("FP data mapped"),
                    ))
                } else {
                    Some((
                        cluster,
                        self.map
                            .lookup(data_reg, cluster)
                            .expect("integer data mapped locally"),
                    ))
                }
            } else {
                None
            };
            let (dst_map, displaced) = match (inst.effective_dst(), dst_cluster) {
                (Some(r), Some(dc)) => {
                    let p = self.regs[dc.index()].alloc().expect("checked");
                    (Some((dc, p)), self.map.define(r, dc, p))
                }
                _ => (None, Displaced::default()),
            };
            let issue_class = if inst.op.is_mem() {
                ExecClass::IntAlu
            } else {
                inst.op.class()
            };
            self.rob.push_back(RobEntry {
                seq,
                dyn_seq: d.seq,
                sidx: d.sidx,
                pc: d.pc,
                cluster,
                kind,
                is_program: true,
                dst: dst_map,
                displaced,
                fetch_at: f.available_at.saturating_sub(1),
                dispatch_at: self.now,
                issue_at: None,
                complete_at: if inst.op.class() == ExecClass::Nop {
                    Some(self.now + 1)
                } else {
                    None
                },
                mispredicted: f.mispredicted,
                is_cond_branch: inst.op.is_cond_branch(),
            });
            if inst.op.is_mem() {
                self.lsq.push(LsqEntry {
                    seq,
                    is_store: inst.op.is_store(),
                    addr: None,
                    addr_at: 0,
                    data: store_data,
                    state: LoadState::Waiting,
                    sidx: d.sidx,
                    retry_at: 0,
                });
            }
            if inst.op.class() != ExecClass::Nop {
                self.iq_insert(IqEntry {
                    seq,
                    dyn_seq: d.seq,
                    sidx: d.sidx,
                    cluster,
                    issue_class,
                    kind,
                    srcs: iq_srcs,
                    copy_dst: None,
                    dst: dst_map.map(|(_, p)| p),
                    ea: d.ea,
                    dispatched_at: self.now,
                    mispredicted: f.mispredicted,
                    pending: 0,
                    ready_cycle: 0,
                });
            }
            if f.mispredicted {
                debug_assert_eq!(self.branch_wait, BranchWait::Fetched);
                self.branch_wait = BranchWait::Dispatched(seq);
            }
            if inst.op.class() == ExecClass::Nop {
                // Nops bypass the instruction queues; tell the scheme
                // the slot is gone so occupancy-tracking schemes (FIFO)
                // stay consistent.
                steering.on_issued(d.seq, cluster);
            }
            self.stats.steered[cluster.index()] += 1;
            steering.on_steered(&view, cluster, &ctx);
            ctx.iq_len[cluster.index()] += 1;
            self.steer_cache = None;
            self.fetch_buf.pop_front();
            budget -= 1;
        }
        if stalled && !self.fetch_buf.is_empty() {
            self.stats.dispatch_stall_cycles += 1;
        }
    }

    fn next_uop_seq(&mut self) -> u64 {
        let s = self.uop_seq;
        self.uop_seq += 1;
        s
    }

    /// Inserts a freshly dispatched entry into its cluster's queue.
    /// Under the event engine this also takes the wakeup census:
    /// sources with a known ready cycle fold into `ready_cycle`,
    /// in-flight sources register the entry on the producer register's
    /// waiter list, and an entry with no outstanding operands goes
    /// straight onto the timeline (earliest issue is dispatch + 1).
    fn iq_insert(&mut self, mut e: IqEntry) {
        let c = e.cluster.index();
        if self.cfg.engine == Engine::Event {
            e.pending = 0;
            e.ready_cycle = 0;
            for k in 0..e.srcs.len() {
                let Some(p) = e.srcs[k] else { continue };
                let at = self.regs[c].ready_at(p);
                if at == IN_FLIGHT {
                    self.regs[c].add_waiter(p, e.seq);
                    e.pending += 1;
                } else {
                    e.ready_cycle = e.ready_cycle.max(at);
                }
            }
            if e.pending == 0 {
                let when = e.ready_cycle.max(e.dispatched_at + 1);
                self.iq[c].push_event(when, e.seq);
            }
        }
        self.iq[c].insert(e);
    }

    // ------------------------------------------------------------------
    // fetch
    // ------------------------------------------------------------------

    fn fetch(&mut self) {
        if self.branch_wait != BranchWait::None || self.now < self.resume_at {
            return;
        }
        if self.now < self.icache_ready_at {
            return;
        }
        let room = self.cfg.fetch_buffer as usize - self.fetch_buf.len();
        let width = (self.cfg.fetch_width as usize).min(room);
        if width == 0 {
            return;
        }
        let line_mask = !(self.cfg.hierarchy.l1i.line_bytes as u64 - 1);
        let mut fetched = 0usize;
        // Reused line-tracking buffer: a fetch group touches at most
        // `fetch_width` I-cache lines, so the capacity stabilises and
        // the steady state allocates nothing.
        let mut lines_touched = std::mem::take(&mut self.fetch_lines);
        lines_touched.clear();
        while fetched < width {
            let d = match self
                .pending
                .take()
                .or_else(|| self.interp.as_mut().expect("interpreter present").next())
            {
                Some(d) => d,
                None => {
                    self.stream_done = true;
                    break;
                }
            };
            let line = d.pc & line_mask;
            if !lines_touched.contains(&line) {
                let (lat, _lvl) = self.hierarchy.access_inst(d.pc);
                lines_touched.push(line);
                if lat > self.cfg.hierarchy.l1_hit {
                    // Miss: instructions from this line arrive after the
                    // fill; anything already fetched this cycle stands.
                    self.icache_ready_at = self.now + u64::from(lat);
                    self.pending = Some(d);
                    break;
                }
            }
            let mut mispredicted = false;
            let mut fetch_break = false;
            if d.inst.op.is_cond_branch() {
                let taken = d.taken.expect("cond branches have outcomes");
                let predicted = self.bpred.predict(d.pc);
                self.bpred.update(d.pc, taken);
                mispredicted = predicted != taken;
                if mispredicted {
                    // Trace-driven wrong path: stall fetch until the
                    // branch resolves.
                    self.branch_wait = BranchWait::Fetched;
                    fetch_break = true;
                } else if taken {
                    fetch_break = true; // taken-branch fetch break
                }
            } else if d.inst.op == Opcode::J {
                fetch_break = true;
            }
            self.fetch_buf.push_back(Fetched {
                d,
                available_at: self.now + 1,
                mispredicted,
            });
            fetched += 1;
            if fetch_break {
                break;
            }
        }
        self.fetch_lines = lines_touched;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steering::RoundRobin;
    use dca_prog::parse_asm;

    fn loop_prog() -> Program {
        parse_asm(
            "e:
                li r1, #50
                li r5, #8192
             l:
                ld r2, 0(r5)
                add r2, r2, r1
                st r2, 0(r5)
                add r5, r5, #8
                add r1, r1, #-1
                bne r1, r0, l
                halt",
        )
        .unwrap()
    }

    #[test]
    fn commits_exactly_the_dynamic_stream() {
        let p = loop_prog();
        let expected = Interp::new(&p, Memory::new()).count() as u64;
        let stats = Simulator::new(&SimConfig::paper_clustered(), &p, Memory::new())
            .run(&mut RoundRobin::new(), 1_000_000);
        assert_eq!(stats.committed, expected);
        assert!(stats.cycles > 0);
        assert!(stats.ipc() > 0.1, "ipc {}", stats.ipc());
    }

    #[test]
    fn base_machine_runs_without_copies() {
        let p = loop_prog();
        let stats = Simulator::new(&SimConfig::paper_base(), &p, Memory::new())
            .run(&mut RoundRobin::new(), 1_000_000);
        assert_eq!(stats.copies, 0, "no bypasses in the base machine");
        assert_eq!(stats.steered[1], 0, "integer code cannot enter the base FP cluster");
        assert_eq!(stats.avg_replication(), 0.0);
    }

    #[test]
    fn upper_bound_machine_at_least_as_fast_as_base() {
        let p = loop_prog();
        let base = Simulator::new(&SimConfig::paper_base(), &p, Memory::new())
            .run(&mut RoundRobin::new(), 1_000_000);
        let ub = Simulator::new(&SimConfig::paper_upper_bound(), &p, Memory::new())
            .run(&mut RoundRobin::new(), 1_000_000);
        assert_eq!(ub.committed, base.committed);
        assert!(ub.cycles <= base.cycles, "UB {} vs base {}", ub.cycles, base.cycles);
    }

    #[test]
    fn round_robin_on_clustered_machine_generates_copies() {
        let p = loop_prog();
        let stats = Simulator::new(&SimConfig::paper_clustered(), &p, Memory::new())
            .run(&mut RoundRobin::new(), 1_000_000);
        assert!(stats.copies > 0, "modulo steering must communicate");
        assert!(stats.comms_per_inst() > 0.05);
        assert!(stats.steered[0] > 0 && stats.steered[1] > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let p = loop_prog();
        let a = Simulator::new(&SimConfig::paper_clustered(), &p, Memory::new())
            .run(&mut RoundRobin::new(), 1_000_000);
        let b = Simulator::new(&SimConfig::paper_clustered(), &p, Memory::new())
            .run(&mut RoundRobin::new(), 1_000_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.copies, b.copies);
        assert_eq!(a.critical_copies, b.critical_copies);
        assert_eq!(a.balance, b.balance);
    }

    #[test]
    fn resumed_intervals_tile_the_full_stream() {
        let p = loop_prog();
        let cfg = SimConfig::paper_clustered();
        let full = Simulator::new(&cfg, &p, Memory::new()).run(&mut RoundRobin::new(), 1_000_000);
        let ff = dca_prog::fast_forward(&p, Memory::new(), 60, u64::MAX);
        assert!(ff.checkpoints.len() > 2, "needs several intervals");
        let mut merged = SimStats::default();
        for (k, c) in ff.checkpoints.iter().enumerate() {
            let end = ff
                .checkpoints
                .get(k + 1)
                .map_or(u64::MAX, dca_prog::Checkpoint::seq);
            let s = Simulator::resume_from(&cfg, &p, c).run(&mut RoundRobin::new(), end);
            assert!(s.committed > 0, "interval {k} is non-empty");
            merged.merge(&s);
        }
        // Warm-starting re-runs the exact functional stream: the tiled
        // intervals commit precisely the full run's instructions (the
        // cycle count differs — each interval restarts a cold backend).
        assert_eq!(merged.committed, full.committed);
        assert_eq!(merged.loads, full.loads);
        assert_eq!(merged.stores, full.stores);
        assert_eq!(merged.branches, full.branches);
    }

    #[test]
    fn functional_warming_is_excluded_from_stats() {
        let p = loop_prog();
        let cfg = SimConfig::paper_clustered();
        let mut sim = Simulator::new(&cfg, &p, Memory::new());
        let warmed = sim.warm_functional(100);
        assert_eq!(warmed, 100);
        // The fuel budget is absolute, so a budget equal to the warmed
        // count leaves nothing to measure — and the warming accesses
        // must not leak into the reported counters.
        let stats = sim.run_mut(&mut RoundRobin::new(), 100);
        assert_eq!(stats.committed, 0);
        assert_eq!(stats.l1i.accesses, 0);
        assert_eq!(stats.l1d.accesses, 0);
        assert_eq!(stats.bpred.lookups, 0);
    }

    #[test]
    fn warming_seeds_caches_and_predictor() {
        let p = loop_prog();
        let cfg = SimConfig::paper_clustered();
        // Cold interval vs the same interval warmed by its prefix.
        let ff = dca_prog::fast_forward(&p, Memory::new(), 120, u64::MAX);
        let c = &ff.checkpoints[1];
        let cold = Simulator::resume_from(&cfg, &p, c).run(&mut RoundRobin::new(), c.seq() + 60);
        let mut warm_sim = Simulator::new(&cfg, &p, Memory::new());
        let consumed = warm_sim.warm_functional(c.seq());
        assert_eq!(consumed, c.seq());
        let warm = warm_sim.run_mut(&mut RoundRobin::new(), c.seq() + 60);
        assert_eq!(warm.committed, cold.committed);
        assert!(
            warm.l1d.hits >= cold.l1d.hits,
            "warming cannot lose D-cache hits on this loop: {} vs {}",
            warm.l1d.hits,
            cold.l1d.hits
        );
    }

    #[test]
    fn fuel_truncates_long_runs() {
        let p = loop_prog();
        let stats = Simulator::new(&SimConfig::paper_clustered(), &p, Memory::new())
            .run(&mut RoundRobin::new(), 10);
        assert_eq!(stats.committed, 10);
    }

    #[test]
    fn small_machine_survives_structural_pressure() {
        let p = loop_prog();
        let stats = Simulator::new(&SimConfig::small_test(), &p, Memory::new())
            .run(&mut RoundRobin::new(), 1_000_000);
        let expected = Interp::new(&p, Memory::new()).count() as u64;
        assert_eq!(stats.committed, expected);
    }

    #[test]
    fn store_load_forwarding_is_exercised() {
        // The div keeps the ROB head busy for ~20 cycles, so the store
        // is still in the LSQ when the younger load disambiguates.
        let p = parse_asm(
            "e:
                li r1, #4096
                li r2, #7
                li r8, #1000
                li r9, #3
                div r8, r8, r9
                st r2, 0(r1)
                ld r3, 0(r1)
                add r4, r3, r3
                halt",
        )
        .unwrap();
        let stats = Simulator::new(&SimConfig::paper_clustered(), &p, Memory::new())
            .run(&mut RoundRobin::new(), 100);
        assert_eq!(stats.forwarded_loads, 1);
    }

    #[test]
    fn mispredicts_are_counted() {
        // A data-dependent branch pattern the predictor cannot learn
        // perfectly: alternating short runs.
        let p = parse_asm(
            "e:
                li r1, #200
             l:
                and r2, r1, #3
                beq r2, r0, skip
                add r3, r3, #1
             skip:
                add r1, r1, #-1
                bne r1, r0, l
                halt",
        )
        .unwrap();
        let stats = Simulator::new(&SimConfig::paper_clustered(), &p, Memory::new())
            .run(&mut RoundRobin::new(), 1_000_000);
        assert!(stats.branches >= 400);
        assert!(stats.bpred.lookups >= 400);
    }

    #[test]
    fn fp_workload_uses_fp_cluster() {
        let p = parse_asm(
            "e:
                li r1, #4096
                li r2, #30
                cvtif f1, r2
                fmov f2, f1
             l:
                fadd f2, f2, f1
                fmul f3, f2, f1
                fst f3, 0(r1)
                add r1, r1, #8
                add r2, r2, #-1
                bne r2, r0, l
                halt",
        )
        .unwrap();
        let expected = Interp::new(&p, Memory::new()).count() as u64;
        let stats = Simulator::new(&SimConfig::paper_clustered(), &p, Memory::new())
            .run(&mut RoundRobin::new(), 1_000_000);
        assert_eq!(stats.committed, expected);
        assert!(stats.steered[1] > 0, "FP ops must run in the FP cluster");
    }
}
