//! # dca-bench — the experiment harness
//!
//! Regenerates **every table and figure** of the paper's evaluation
//! (§3) as text artefacts: `dca figures [ID ...]` ([`run_cli_with`])
//! regenerates the named figures, or all of them, and writes
//! `results/*.md`.
//!
//! The heart of the crate is [`Lab`], which memoises simulation runs:
//! several figures share the same (benchmark, machine, scheme) runs —
//! e.g. Figure 4 (speed-ups), Figure 5 (communications) and Figure 6
//! (workload balance) all come from the same LdSt/Br slice-steering
//! simulations — so each combination is simulated exactly once per
//! invocation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
mod opts;
mod sampling;

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dca_obs::progress;
use dca_prog::{fast_forward_streaming, Checkpoint, FastForward, Program};
use dca_sim::{ContinuousWarmer, MachineDesc, SimConfig, SimStats, Simulator, Steering};
use dca_uarch::UarchSnapshot;
use dca_store::{CheckpointKey, IntervalRecord, ResultKey, Store};
use dca_steer::{
    FifoSteering, GeneralBalance, ImbalanceConfig, ImbalanceMetric, Modulo, Naive,
    NonSliceBalance, PrioritySliceBalance, SliceBalance, SliceKind, SliceSteering,
    StaticPartition,
};
use dca_workloads::Workload;

pub use opts::{RunOpts, SampleOpts, Warming, SERVER_SIDE_FLAGS};
pub use sampling::SampleInfo;
use sampling::{merge_outcomes, IntervalOutcome, Pipeline, RunPlan};

/// Which machine configuration a run uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Machine {
    /// The conventional base machine (no int units in the FP cluster,
    /// no bypasses) — the denominator of every speed-up.
    Base,
    /// The paper's clustered machine.
    Clustered,
    /// Clustered with one bus per direction (§3.8 ablation).
    OneBus,
    /// The 16-way upper bound ("UB arch").
    UpperBound,
    /// Homogeneous N-cluster extension of the paper machine
    /// ([`SimConfig::n_clustered`]). `NClusters(2)` is the paper's
    /// clustered machine geometry, cached/stored under its own key.
    NClusters(u8),
    /// The heterogeneous 4-cluster preset
    /// ([`dca_sim::MachineDesc::hetero4`]): the two paper clusters
    /// plus two narrow satellites on a linear topology.
    Hetero4,
    /// A custom geometry registered with [`Lab::register_machine`].
    /// The payload is the config's [`SimConfig::config_hash`]; only
    /// the registering lab can resolve it.
    Custom(u64),
}

impl Machine {
    /// The corresponding configuration.
    ///
    /// # Panics
    ///
    /// Panics on [`Machine::Custom`] (resolved through the [`Lab`]
    /// that registered it) and on an out-of-range cluster count.
    pub fn config(self) -> SimConfig {
        match self {
            Machine::Base => SimConfig::paper_base(),
            Machine::Clustered => SimConfig::paper_clustered(),
            Machine::OneBus => SimConfig::one_bus(),
            Machine::UpperBound => SimConfig::paper_upper_bound(),
            Machine::NClusters(n) => {
                SimConfig::n_clustered(usize::from(n)).unwrap_or_else(|e| panic!("{e}"))
            }
            Machine::Hetero4 => MachineDesc::hetero4()
                .apply(&SimConfig::paper_clustered())
                .expect("hetero4 preset validates"),
            Machine::Custom(h) => panic!(
                "custom machine {h:#018x} has no preset config; use the Lab that registered it"
            ),
        }
    }

    /// Parses a machine name as used on the command line.
    ///
    /// # Errors
    ///
    /// Returns the list of valid names on an unknown input, and the
    /// valid range on a `homo<N>` cluster count outside it.
    pub fn from_name(name: &str) -> Result<Machine, String> {
        if let Some(n) = name.strip_prefix("homo") {
            let n: u8 = n
                .parse()
                .map_err(|_| format!("bad cluster count in `{name}`"))?;
            return SimConfig::n_clustered(usize::from(n)).map(|_| Machine::NClusters(n));
        }
        Ok(match name {
            "base" => Machine::Base,
            "clustered" => Machine::Clustered,
            "one-bus" | "onebus" => Machine::OneBus,
            "ub" | "upper-bound" => Machine::UpperBound,
            "hetero4" => Machine::Hetero4,
            other => {
                return Err(format!(
                    "unknown machine `{other}` (base|clustered|one-bus|ub|homo<N>|hetero4)"
                ))
            }
        })
    }

    /// Stable key for memoisation and result-store file names.
    pub fn key(self) -> String {
        match self {
            Machine::Base => "base".into(),
            Machine::Clustered => "clustered".into(),
            Machine::OneBus => "onebus".into(),
            Machine::UpperBound => "ub".into(),
            Machine::NClusters(n) => format!("homo{n}"),
            Machine::Hetero4 => "hetero4".into(),
            Machine::Custom(h) => format!("custom{h:016x}"),
        }
    }
}

/// Every steering scheme the evaluation exercises.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names mirror the paper's scheme names
pub enum SchemeKind {
    Naive,
    Modulo,
    StaticLdSt,
    LdStSlice,
    BrSlice,
    LdStNonSliceBalance,
    BrNonSliceBalance,
    LdStSliceBalance,
    BrSliceBalance,
    LdStPriority,
    BrPriority,
    GeneralBalance,
    Fifo,
    /// LdSt non-slice balance steering weighing imbalance metric I1
    /// alone (the §3.5 metric ablation; [`SchemeKind::LdStNonSliceBalance`]
    /// is the I1+I2 combination).
    LdStNonSliceI1,
    /// LdSt non-slice balance steering weighing imbalance metric I2
    /// alone.
    LdStNonSliceI2,
}

/// The paper's scheme kinds, in presentation order: what `dca compare`,
/// `dca list` and `--scheme` offer. The metric-ablation variants
/// [`SchemeKind::LdStNonSliceI1`] and [`SchemeKind::LdStNonSliceI2`]
/// exist only for `figures ablate_imbalance`.
pub const ALL_SCHEMES: [SchemeKind; 13] = [
    SchemeKind::Naive,
    SchemeKind::Modulo,
    SchemeKind::StaticLdSt,
    SchemeKind::LdStSlice,
    SchemeKind::BrSlice,
    SchemeKind::LdStNonSliceBalance,
    SchemeKind::BrNonSliceBalance,
    SchemeKind::LdStSliceBalance,
    SchemeKind::BrSliceBalance,
    SchemeKind::LdStPriority,
    SchemeKind::BrPriority,
    SchemeKind::GeneralBalance,
    SchemeKind::Fifo,
];

impl SchemeKind {
    /// Human label used in figure rows/legends (matches the paper's).
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Naive => "naive",
            SchemeKind::Modulo => "Modulo",
            SchemeKind::StaticLdSt => "Static (Sastry et al.)",
            SchemeKind::LdStSlice => "LdSt slice",
            SchemeKind::BrSlice => "Br slice",
            SchemeKind::LdStNonSliceBalance => "LdSt non-slice",
            SchemeKind::BrNonSliceBalance => "Br non-slice",
            SchemeKind::LdStSliceBalance => "LdSt slice bal.",
            SchemeKind::BrSliceBalance => "Br slice bal.",
            SchemeKind::LdStPriority => "LdSt p. slice",
            SchemeKind::BrPriority => "Br p. slice",
            SchemeKind::GeneralBalance => "General bal.",
            SchemeKind::Fifo => "FIFO-based",
            SchemeKind::LdStNonSliceI1 => "LdSt non-slice (I1)",
            SchemeKind::LdStNonSliceI2 => "LdSt non-slice (I2)",
        }
    }

    /// Instantiates the scheme (some need the program for offline
    /// analysis), inside a `steer.instantiate` span.
    pub fn instantiate(self, prog: &Program) -> Box<dyn Steering> {
        let _span = dca_obs::span("steer", "steer.instantiate").arg("scheme", self.name());
        match self {
            SchemeKind::Naive => Box::new(Naive::new()),
            SchemeKind::Modulo => Box::new(Modulo::new()),
            SchemeKind::StaticLdSt => Box::new(StaticPartition::analyze(prog)),
            SchemeKind::LdStSlice => Box::new(SliceSteering::new(SliceKind::LdSt)),
            SchemeKind::BrSlice => Box::new(SliceSteering::new(SliceKind::Br)),
            SchemeKind::LdStNonSliceBalance => {
                Box::new(NonSliceBalance::new(SliceKind::LdSt))
            }
            SchemeKind::BrNonSliceBalance => Box::new(NonSliceBalance::new(SliceKind::Br)),
            SchemeKind::LdStSliceBalance => Box::new(SliceBalance::new(SliceKind::LdSt)),
            SchemeKind::BrSliceBalance => Box::new(SliceBalance::new(SliceKind::Br)),
            SchemeKind::LdStPriority => Box::new(PrioritySliceBalance::new(SliceKind::LdSt)),
            SchemeKind::BrPriority => Box::new(PrioritySliceBalance::new(SliceKind::Br)),
            SchemeKind::GeneralBalance => Box::new(GeneralBalance::new()),
            SchemeKind::Fifo => Box::new(FifoSteering::paper()),
            SchemeKind::LdStNonSliceI1 => ldst_non_slice(ImbalanceMetric::I1Only),
            SchemeKind::LdStNonSliceI2 => ldst_non_slice(ImbalanceMetric::I2Only),
        }
    }

    /// Short machine-readable name accepted by [`SchemeKind::from_name`].
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Naive => "naive",
            SchemeKind::Modulo => "modulo",
            SchemeKind::StaticLdSt => "static",
            SchemeKind::LdStSlice => "ldst-slice",
            SchemeKind::BrSlice => "br-slice",
            SchemeKind::LdStNonSliceBalance => "ldst-nonslice",
            SchemeKind::BrNonSliceBalance => "br-nonslice",
            SchemeKind::LdStSliceBalance => "ldst-slicebal",
            SchemeKind::BrSliceBalance => "br-slicebal",
            SchemeKind::LdStPriority => "ldst-priority",
            SchemeKind::BrPriority => "br-priority",
            SchemeKind::GeneralBalance => "general",
            SchemeKind::Fifo => "fifo",
            SchemeKind::LdStNonSliceI1 => "ldst-nonslice-i1",
            SchemeKind::LdStNonSliceI2 => "ldst-nonslice-i2",
        }
    }

    /// Parses a scheme name as used on the command line (the inverse of
    /// [`SchemeKind::name`]).
    ///
    /// # Errors
    ///
    /// Returns the list of valid names on an unknown input.
    pub fn from_name(name: &str) -> Result<SchemeKind, String> {
        ALL_SCHEMES
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| {
                let valid: Vec<&str> = ALL_SCHEMES.iter().map(|s| s.name()).collect();
                format!("unknown scheme `{name}` (valid: {})", valid.join("|"))
            })
    }

    fn key(self) -> String {
        format!("{self:?}")
    }
}

/// LdSt non-slice balance steering under one imbalance metric.
fn ldst_non_slice(metric: ImbalanceMetric) -> Box<dyn Steering> {
    let cfg = ImbalanceConfig {
        metric,
        ..ImbalanceConfig::default()
    };
    Box::new(NonSliceBalance::with_config(SliceKind::LdSt, cfg))
}

/// One simulation request: `(benchmark, machine, scheme)` — the unit
/// of work [`Lab::ensure`] distributes across worker threads.
pub type Run = (&'static str, Machine, SchemeKind);

/// Diagnostics of one benchmark's functional fast-forward pass.
#[derive(Clone, Debug)]
pub struct FastForwardInfo {
    /// Dynamic instructions the checkpoint stream covers (the whole
    /// sampled window).
    pub insts: u64,
    /// Checkpoints recorded.
    pub checkpoints: u64,
    /// Wall-clock seconds of the pass (load time when the stream came
    /// from the store).
    pub secs: f64,
    /// `true` when the stream was loaded from the persistent store
    /// instead of being recomputed.
    pub from_store: bool,
}

impl FastForwardInfo {
    /// Fast-forward instructions actually *executed* by this process —
    /// 0 on a store hit (the warm-store acceptance criterion of
    /// ISSUE 3).
    pub fn executed_insts(&self) -> u64 {
        if self.from_store {
            0
        } else {
            self.insts
        }
    }
}

/// Memoising experiment driver: builds workloads once and simulates
/// each (benchmark, machine, scheme) combination at most once.
///
/// Batch interface: [`Lab::ensure`] takes a figure's whole run-set and
/// fans the missing combinations across `std::thread::scope` workers
/// (simulations are independent; the memoisation cache is merged after
/// the join), so `figures` saturates every core instead of simulating
/// one combination at a time.
///
/// With [`RunOpts::sampling`] set, a run is no longer the unit of
/// parallel work: each combination's dynamic window is fast-forwarded
/// once per benchmark (checkpointing every `period` instructions) and
/// the **sample intervals** of all requested combinations run on the
/// same worker pool as soon as their checkpoints exist, then merge per
/// combination in checkpoint order (deterministic). This is what makes
/// `figures --scale paper` — 100M instructions per benchmark — run in
/// minutes instead of hours.
///
/// The memoisation cache is an ordered map, and everything rendered
/// from it iterates in key order, so repeated invocations produce
/// byte-identical artefacts (asserted by `figures::tests`; the
/// sampling report's wall-clock rate lines are the one deliberate
/// exception — its measurement rows are still byte-identical).
///
/// # Example
///
/// ```
/// use dca_bench::{Lab, Machine, RunOpts, SchemeKind};
/// use dca_workloads::Scale;
///
/// let mut lab = Lab::new(RunOpts {
///     scale: Scale::Smoke,
///     max_insts: 30_000,
///     ..RunOpts::default()
/// });
/// let s = lab.stats("li", Machine::Clustered, SchemeKind::GeneralBalance);
/// assert!(s.committed > 0);
/// ```
pub struct Lab {
    opts: RunOpts,
    workloads: HashMap<&'static str, Workload>,
    cache: BTreeMap<(String, String, String), SimStats>,
    /// Per-benchmark checkpoint streams (sampled mode only).
    ffs: HashMap<&'static str, FastForward>,
    ff_info: BTreeMap<&'static str, FastForwardInfo>,
    sample_info: BTreeMap<(String, String, String), SampleInfo>,
    /// Custom machine geometries ([`Lab::register_machine`]), keyed by
    /// [`SimConfig::config_hash`].
    custom: HashMap<u64, SimConfig>,
    /// Persistent checkpoint/result store ([`RunOpts::store_dir`]).
    store: Option<Store>,
    /// Cooperative cancellation token ([`Lab::set_cancel`]): checked
    /// before each chunk of intervals is queued, never mid-interval.
    cancel: Option<Arc<AtomicBool>>,
    /// Per-chunk progress callback ([`Lab::set_round_hook`]): invoked
    /// each time a chunk of sample intervals is queued.
    round_hook: Option<RoundHook>,
    /// Work attribution tally ([`Lab::work`]). Shared (same `Arc`)
    /// with labs that [`Lab::adopt_from`] this one, so side
    /// measurements a figure spawns internally are attributed to the
    /// same logical job.
    tally: Arc<WorkTally>,
}

/// Atomic work counters owned by one [`Lab`] (and the labs adopted
/// from it). Unlike the process-wide metrics registry, these
/// attribute work to *one lab*, which is what makes per-job deltas
/// exact when a serve dispatcher runs several jobs concurrently.
#[derive(Debug, Default)]
struct WorkTally {
    ff_insts: AtomicU64,
    intervals_computed: AtomicU64,
    intervals_from_store: AtomicU64,
    straight_runs: AtomicU64,
}

/// Snapshot of a lab's work counters ([`Lab::work`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Fast-forward instructions executed (0 when every checkpoint
    /// stream came from the store).
    pub ff_insts: u64,
    /// Sample intervals simulated in detail.
    pub intervals_computed: u64,
    /// Sample intervals served from the store.
    pub intervals_from_store: u64,
    /// Straight (unsampled) detailed passes executed.
    pub straight_runs: u64,
}

impl WorkCounts {
    /// Component-wise delta against an earlier snapshot.
    pub fn since(&self, before: &WorkCounts) -> WorkCounts {
        WorkCounts {
            ff_insts: self.ff_insts - before.ff_insts,
            intervals_computed: self.intervals_computed - before.intervals_computed,
            intervals_from_store: self.intervals_from_store - before.intervals_from_store,
            straight_runs: self.straight_runs - before.straight_runs,
        }
    }

    /// Did this span of work touch a simulator at all? A warm span
    /// fast-forwarded nothing and simulated nothing — every result
    /// came from the store or a memo.
    pub fn is_warm(&self) -> bool {
        self.ff_insts == 0 && self.intervals_computed == 0 && self.straight_runs == 0
    }
}

/// A per-chunk progress callback (see [`Lab::set_round_hook`]).
pub type RoundHook = Box<dyn Fn(&RoundProgress) + Send>;

/// What [`Lab::ensure`] just queued — one combination's next chunk of
/// sample intervals — handed to the hook installed with
/// [`Lab::set_round_hook`]: the attachment point for live progress
/// streaming (`dca serve` forwards these, plus the insts/sec gauges,
/// to its subscribed clients).
#[derive(Clone, Copy, Debug)]
pub struct RoundProgress {
    /// Chunks queued so far in this ensure, starting at 1.
    pub round: u64,
    /// Intervals in this chunk.
    pub batch: u64,
    /// Worst-case intervals still to simulate, this chunk included
    /// (every undecided run exhausts its budget).
    pub remaining: u64,
    /// Live sampling throughput, milli-intervals per second of
    /// pipeline wall-clock (the `intervals_per_sec_milli` gauge; 0
    /// until the first interval lands).
    pub intervals_per_sec_milli: u64,
}

impl Lab {
    /// Creates a lab.
    pub fn new(opts: RunOpts) -> Lab {
        let store = opts.store_dir.as_ref().map(Store::open);
        Lab {
            opts,
            workloads: HashMap::new(),
            cache: BTreeMap::new(),
            ffs: HashMap::new(),
            ff_info: BTreeMap::new(),
            sample_info: BTreeMap::new(),
            custom: HashMap::new(),
            store,
            cancel: None,
            round_hook: None,
            tally: Arc::new(WorkTally::default()),
        }
    }

    /// Snapshot of the work this lab (and every lab adopted from it)
    /// has performed: fast-forward instructions, intervals computed
    /// fresh vs served from the store, straight detailed passes.
    /// Deltas of two snapshots attribute work to a span exactly, even
    /// while other labs run concurrently in the same process — this
    /// is what the serve dispatcher reports per job.
    pub fn work(&self) -> WorkCounts {
        WorkCounts {
            ff_insts: self.tally.ff_insts.load(Ordering::Relaxed),
            intervals_computed: self.tally.intervals_computed.load(Ordering::Relaxed),
            intervals_from_store: self.tally.intervals_from_store.load(Ordering::Relaxed),
            straight_runs: self.tally.straight_runs.load(Ordering::Relaxed),
        }
    }

    /// Installs a cooperative cancellation token (`None` clears it).
    ///
    /// [`Lab::ensure`] checks the token before queuing each chunk of
    /// sample intervals — the natural preemption points of the sampled
    /// driver — and stops scheduling further work once it is set
    /// (a fast-forward already under way still completes). Cancellation
    /// is *total*, like store degradation: every requested combination
    /// still receives an entry (merged from whatever contiguous prefix
    /// of intervals finished in time, possibly empty), so no caller
    /// panics; the caller that set the token is expected to check
    /// [`Lab::cancelled`] and discard this lab, whose caches now hold
    /// partial results. Intervals that did complete are still saved to
    /// the store — they form a valid checkpoint-order prefix a future
    /// run extends.
    pub fn set_cancel(&mut self, token: Option<Arc<AtomicBool>>) {
        self.cancel = token;
    }

    /// `true` once the installed cancellation token has been set.
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|t| t.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// Installs a per-chunk progress hook (`None` clears it): called
    /// each time a chunk of sample intervals is queued — on the driving
    /// thread for first chunks, on a worker for later ones — with the
    /// chunk's [`RoundProgress`]. `dca serve` uses this to stream
    /// progress events to its clients.
    pub fn set_round_hook(&mut self, hook: Option<RoundHook>) {
        self.round_hook = hook;
    }

    /// Registers a custom machine geometry and returns the
    /// [`Machine::Custom`] selector to use with [`Lab::stats`] /
    /// [`Lab::ensure`]. Custom runs go through the same memoisation,
    /// sampling and persistent-store paths as the presets — results
    /// are keyed by the config's [`SimConfig::config_hash`], so two
    /// ablated configs can never collide in the store. Registering the
    /// same config twice is idempotent.
    ///
    /// # Panics
    ///
    /// Panics when the config fails [`SimConfig::validate`].
    pub fn register_machine(&mut self, cfg: SimConfig) -> Machine {
        cfg.validate().unwrap_or_else(|e| panic!("custom machine: {e}"));
        let h = cfg.config_hash();
        self.custom.insert(h, cfg);
        Machine::Custom(h)
    }

    /// Resolves a selector to its configuration (presets directly,
    /// custom machines through the registry).
    ///
    /// # Panics
    ///
    /// Panics on a [`Machine::Custom`] this lab never registered.
    fn config_of(&self, machine: Machine) -> SimConfig {
        match machine {
            Machine::Custom(h) => self
                .custom
                .get(&h)
                .unwrap_or_else(|| panic!("machine {h:#018x} was never registered"))
                .clone(),
            preset => preset.config(),
        }
    }

    /// Creates a lab over an explicitly constructed [`Store`] instead
    /// of opening one from [`RunOpts::store_dir`]. This is the
    /// injection point for fault-plan stores
    /// ([`dca_store::io::FaultIo`]) in robustness tests.
    pub fn with_store(opts: RunOpts, store: Store) -> Lab {
        let mut lab = Lab::new(opts);
        lab.store = Some(store);
        lab
    }

    /// The options in use.
    pub fn opts(&self) -> RunOpts {
        self.opts.clone()
    }

    /// Builds a run manifest stamping this Lab's configuration: engine
    /// versions, scale and instruction budget, sampling parameters,
    /// store directory, and the fingerprints of every workload
    /// materialised so far. Callers add per-invocation entries (phase
    /// timings, metrics snapshot) before saving.
    pub fn manifest(&self, command: &str) -> dca_obs::manifest::Manifest {
        use dca_obs::json::Json;
        let mut m = dca_obs::manifest::Manifest::new(command);
        m.set_u64("interp_version", u64::from(dca_prog::INTERP_VERSION))
            .set_u64("timing_version", u64::from(dca_sim::TIMING_VERSION))
            .set_u64(
                "format_version",
                u64::from(dca_store::file::FORMAT_VERSION),
            )
            .set_str("scale", self.opts.scale.name())
            .set_u64("max_insts", self.opts.max_insts);
        match &self.opts.sampling {
            Some(s) => {
                m.set(
                    "sampling",
                    Json::Obj(vec![
                        ("period".to_string(), Json::U64(s.period)),
                        ("warmup".to_string(), Json::U64(s.warmup)),
                        ("interval".to_string(), Json::U64(s.interval)),
                        (
                            "target_stderr".to_string(),
                            match s.target_stderr {
                                Some(v) => Json::F64(v),
                                None => Json::Null,
                            },
                        ),
                        (
                            "warming".to_string(),
                            Json::Str(s.warming.name().to_string()),
                        ),
                    ]),
                );
            }
            None => {
                m.set("sampling", Json::Null);
            }
        }
        m.set(
            "store_dir",
            match &self.opts.store_dir {
                Some(d) => Json::Str(d.display().to_string()),
                None => Json::Null,
            },
        );
        let mut fps: Vec<(String, Json)> = self
            .workloads
            .iter()
            .map(|(name, w)| {
                (
                    name.to_string(),
                    Json::Str(format!("{:#018x}", w.fingerprint())),
                )
            })
            .collect();
        fps.sort_by(|a, b| a.0.cmp(&b.0));
        m.set("workload_fingerprints", Json::Obj(fps));
        m
    }

    /// Shares another lab's built workloads and checkpoint streams
    /// with this one (cheap: programs and copy-on-write memory pages
    /// clone by reference). Short-lived side measurements — the
    /// sampling report's warm-steering delta — use this to skip
    /// workload construction and the functional fast-forward even
    /// when no store is configured. Only valid between labs with the
    /// same scale, window and checkpoint period.
    pub(crate) fn adopt_from(&mut self, other: &Lab) {
        assert_eq!(self.opts.scale, other.opts.scale, "adopting across scales");
        assert_eq!(self.opts.max_insts, other.opts.max_insts, "adopting across windows");
        assert_eq!(
            self.opts.sampling.map(|s| s.period),
            other.opts.sampling.map(|s| s.period),
            "adopting across checkpoint grids"
        );
        for (&bench, w) in &other.workloads {
            self.workloads.entry(bench).or_insert_with(|| w.clone());
        }
        for (&bench, ff) in &other.ffs {
            self.ffs.entry(bench).or_insert_with(|| ff.clone());
        }
        for (&bench, info) in &other.ff_info {
            self.ff_info.entry(bench).or_insert_with(|| info.clone());
        }
        // A child with no store of its own shares the parent's handle
        // (`Store` clones share the instrumented I/O). Matters when
        // the parent was built via [`Lab::with_store`] — e.g. by the
        // serve dispatcher — where `opts.store_dir` is unset and a
        // side lab built from `parent.opts()` would otherwise lose
        // persistence and recompute warm intervals.
        if self.store.is_none() {
            self.store = other.store.clone();
        }
        // Work done by this side lab counts against the adopting
        // job's tally: "warm" must keep meaning "zero simulation
        // anywhere in the figure", side measurements included.
        self.tally = Arc::clone(&other.tally);
    }

    fn bench_name(bench: &str) -> &'static str {
        dca_workloads::NAMES
            .iter()
            .copied()
            .find(|n| *n == bench)
            .unwrap_or_else(|| panic!("unknown benchmark `{bench}`"))
    }

    fn workload(&mut self, bench: &str) -> &Workload {
        let scale = self.opts.scale;
        let name = Self::bench_name(bench);
        self.workloads
            .entry(name)
            .or_insert_with(|| dca_workloads::build(name, scale))
    }

    fn cache_key(bench: &str, machine: Machine, scheme: SchemeKind) -> (String, String, String) {
        (bench.to_owned(), machine.key(), scheme.key())
    }

    /// Runs one combination (no cache involved).
    fn simulate(w: &Workload, cfg: &SimConfig, scheme: SchemeKind, max_insts: u64) -> SimStats {
        let mut steering = scheme.instantiate(&w.program);
        Simulator::new(cfg, &w.program, w.memory.clone()).run(steering.as_mut(), max_insts)
    }

    /// Precomputes every not-yet-cached combination of `runs` in
    /// parallel, fanning the work across `std::thread::scope` workers
    /// (one per core, capped by the number of missing runs). Workload
    /// construction is parallelised the same way first. Results merge
    /// into the memoisation cache after the join, so subsequent
    /// [`Lab::stats`] calls are pure lookups.
    ///
    /// In sampled mode ([`RunOpts::sampling`]) the units of parallel
    /// work are one fast-forward per benchmark and one *sample
    /// interval*, not one run (DESIGN.md §7).
    pub fn ensure(&mut self, runs: &[(&str, Machine, SchemeKind)]) {
        self.ensure_on(runs, None);
    }

    /// [`Lab::ensure`] with a fixed number of sampling workers (`None`:
    /// a claim on the process-wide budget), so tests can drive the
    /// interval pipeline at any width.
    fn ensure_on(&mut self, runs: &[(&str, Machine, SchemeKind)], workers: Option<usize>) {
        // Distinct missing combinations, first-seen order.
        let mut todo: Vec<Run> = Vec::new();
        for &(bench, machine, scheme) in runs {
            let run = (Self::bench_name(bench), machine, scheme);
            if !self.cache.contains_key(&Self::cache_key(run.0, machine, scheme))
                && !todo.contains(&run)
            {
                todo.push(run);
            }
        }
        if todo.is_empty() {
            return;
        }
        // Cancellation before any work: every requested combination
        // still gets a (empty) cache entry so downstream lookups stay
        // total; the cancelling caller discards this lab.
        if self.cancelled() {
            for &(bench, machine, scheme) in &todo {
                self.cache
                    .insert(Self::cache_key(bench, machine, scheme), SimStats::default());
            }
            return;
        }
        let _span = dca_obs::span("lab", "lab.ensure").arg("runs", todo.len());
        let benches: Vec<&'static str> = todo.iter().map(|&(b, _, _)| b).collect();
        self.build_workloads(&benches);

        if let Some(sampling) = self.opts.sampling {
            self.ensure_sampled(&todo, sampling, workers);
            return;
        }
        progress::detail(format!(
            "[lab] running {} combinations in parallel",
            todo.len()
        ));
        let max_insts = self.opts.max_insts;
        let cfgs: Vec<SimConfig> = todo.iter().map(|&(_, m, _)| self.config_of(m)).collect();
        let workloads = &self.workloads;
        let tally = &self.tally;
        let jobs: Vec<usize> = (0..todo.len()).collect();
        let results = Self::fan_out(&jobs, |&i| {
            let (bench, machine, scheme) = todo[i];
            let w = &workloads[bench];
            let stats = Self::simulate(w, &cfgs[i], scheme, max_insts);
            tally.straight_runs.fetch_add(1, Ordering::Relaxed);
            (Self::cache_key(bench, machine, scheme), stats)
        });
        self.cache.extend(results);
    }

    /// Sampled-mode batch driver: one produce → schedule → merge
    /// [`Pipeline`] over every missing combination, on one worker pool.
    ///
    /// Each distinct benchmark without a checkpoint stream becomes a
    /// producer task, taken before any interval: it loads the stream
    /// from the persistent store when one holds a current entry (and
    /// publishes it at once), or fast-forwards, publishing each
    /// checkpoint the moment it is taken, and saves the stream after.
    /// Interval *k* starts as soon as checkpoint *k* exists, so the
    /// fast-forward overlaps the detailed simulation.
    ///
    /// With [`SampleOpts::target_stderr`] set, intervals are drawn in
    /// checkpoint-order **chunks** per combination and a combination
    /// stops as soon as the deterministic prefix rule
    /// (`sampling::adaptive_prefix`) fires — so a low-variance
    /// combination costs a handful of intervals, not the full budget.
    /// The rule is evaluated on checkpoint-ordered prefixes only, which
    /// makes the merged statistics (and every artefact rendered from
    /// them) independent of worker count, completion order and of
    /// whether intervals came from the store or from fresh simulation.
    fn ensure_sampled(&mut self, todo: &[Run], sampling: SampleOpts, workers: Option<usize>) {
        assert!(
            sampling.interval <= sampling.period,
            "sample interval ({}) exceeds the checkpoint period ({}): successive \
             measured windows would overlap and multiply-count instructions",
            sampling.interval,
            sampling.period
        );
        let max_insts = self.opts.max_insts;
        let scale = self.opts.scale.name();
        let warming = sampling.warming;
        // Steering-table warm-up rides on the detached warming window;
        // under continuous warming there is no such window to replay,
        // so the flag is inert (and excluded from the result keys).
        let warm_steering = self.opts.warm_steering && warming == Warming::Detached;
        let continuous = warming == Warming::Continuous;
        // The warmup budget is equally inert under continuous warming
        // (zero detached-warming instructions run): normalise it out
        // of the result keys so a warm store survives `--sample-warmup`
        // changes that cannot affect the stored intervals.
        let key_warmup = if continuous { 0 } else { sampling.warmup };
        // Resolved machine configs, one per run: the store keys carry
        // their `config_hash` (results) so ablated/custom geometries
        // never collide, and the warming substrate's `uarch_hash`
        // (checkpoint streams) so snapshots only restore onto the
        // geometry that produced them.
        let cfgs: Vec<SimConfig> = todo.iter().map(|&(_, m, _)| self.config_of(m)).collect();
        let warm_uarch = SimConfig::default().uarch_hash();

        // Workload fingerprints for the store keys, once per benchmark.
        let mut fingerprints: HashMap<&'static str, u64> = HashMap::new();
        if self.store.is_some() {
            for &(bench, _, _) in todo {
                let w = &self.workloads[bench];
                fingerprints.entry(bench).or_insert_with(|| w.fingerprint());
            }
        }
        let names: Vec<(String, String)> =
            todo.iter().map(|&(_, m, s)| (m.key(), s.key())).collect();
        let result_key = |i: usize| ResultKey {
            workload: todo[i].0,
            scale,
            machine: &names[i].0,
            geometry: cfgs[i].config_hash(),
            scheme: &names[i].1,
            period: sampling.period,
            warmup: key_warmup,
            interval: sampling.interval,
            max_insts,
            warm_steering,
            continuous_warming: continuous,
            fingerprint: fingerprints[todo[i].0],
        };

        // One checkpoint feed per distinct benchmark: the stream this
        // lab already holds, or a producer task. No stream can hold
        // more than `max_budget` checkpoints; the real count is known
        // once its producer returns (a program may halt early).
        let mut benches: Vec<&'static str> = Vec::new();
        for &(bench, _, _) in todo {
            if !benches.contains(&bench) {
                benches.push(bench);
            }
        }
        let max_budget = usize::try_from(max_insts.div_ceil(sampling.period).max(1))
            .unwrap_or(usize::MAX);

        // Per-run interval prefixes, prefilled from the store.
        let mut plans: Vec<RunPlan> = Vec::with_capacity(todo.len());
        let mut prefilled: Vec<usize> = Vec::with_capacity(todo.len());
        for (i, &(bench, _, _)) in todo.iter().enumerate() {
            let mut outcomes: Vec<IntervalOutcome> = Vec::new();
            if let Some(store) = &self.store {
                let budget = self.ffs.get(bench).map_or(max_budget, |ff| ff.checkpoints.len());
                match store.load_intervals(&result_key(i)) {
                    Ok(records) => {
                        outcomes = records
                            .into_iter()
                            .take(budget)
                            .map(|r| IntervalOutcome {
                                stats: r.stats,
                                warmed: r.warmed_insts,
                                restored: continuous,
                                warm_secs: 0.0,
                                detailed_secs: 0.0,
                                from_store: true,
                            })
                            .collect();
                        let m = dca_obs::metrics();
                        m.store_hits_total.inc();
                        m.intervals_from_store_total.add(outcomes.len() as u64);
                        self.tally
                            .intervals_from_store
                            .fetch_add(outcomes.len() as u64, Ordering::Relaxed);
                    }
                    Err(e) if e.is_not_found() => {
                        dca_obs::metrics().store_misses_total.inc();
                    }
                    Err(e) => {
                        dca_obs::metrics().store_misses_total.inc();
                        progress::warn(format!("[lab] store: {e}; recomputing"));
                    }
                }
            }
            prefilled.push(outcomes.len());
            plans.push(RunPlan {
                feed: benches.iter().position(|&b| b == bench).expect("listed above"),
                prefilled: outcomes,
            });
        }

        let feeds: Vec<Option<&[Checkpoint]>> = benches
            .iter()
            .map(|b| self.ffs.get(b).map(|ff| ff.checkpoints.as_slice()))
            .collect();
        let pipeline = Pipeline::new(
            feeds,
            plans,
            max_budget,
            sampling.target_stderr,
            self.cancel.as_deref(),
            self.round_hook.as_mut(),
        );
        // One claim on the worker budget for the whole pipeline,
        // returned when `claim` drops (also on unwind).
        let pending = pipeline.pending_tasks();
        let desired = workers.unwrap_or_else(|| default_parallelism().min(pending));
        let claim = (workers.is_none() && desired > 1).then(|| WorkerClaim::take(desired));
        let workers = claim.as_ref().map_or(desired, |c| c.workers);
        if pending > 0 {
            dca_obs::metrics().lab_workers.set(workers as u64);
        }

        let workloads = &self.workloads;
        let store = self.store.as_ref();
        let tally = &self.tally;
        let out = pipeline.run(
            workers,
            |f, publisher| {
                let bench = benches[f];
                let _span = dca_obs::span("lab", "lab.fast_forward").arg("bench", bench);
                progress::detail(format!(
                    "[lab] fast-forwarding {bench} ({max_insts} insts, checkpoint every {})",
                    sampling.period
                ));
                let w = &workloads[bench];
                let t0 = Instant::now();
                // The pass always streams through a [`ContinuousWarmer`],
                // so every stream carries per-checkpoint
                // `UarchSnapshot`s whichever warming mode this
                // invocation uses — both modes then share one stream
                // file per benchmark. All machine presets share the
                // Table 2 front end, so one warmed stream serves them
                // all.
                let compute = || {
                    let mut hook = ContinuousWarmer::new(&SimConfig::default());
                    fast_forward_streaming(
                        &w.program,
                        w.memory.clone(),
                        sampling.period,
                        max_insts,
                        &mut hook,
                        &mut |ckpt| publisher.publish(ckpt.clone()),
                    )
                };
                let (ff, from_store) = match store {
                    // Shared store: one computer per stream shard, so N
                    // concurrent labs on one `--store-dir` fast-forward
                    // each benchmark once (DESIGN.md §10).
                    Some(store) => store.fetch_or_compute_checkpoints(
                        &CheckpointKey {
                            workload: bench,
                            scale,
                            period: sampling.period,
                            max_insts,
                            fingerprint: fingerprints[bench],
                            uarch: warm_uarch,
                        },
                        compute,
                    ),
                    None => (compute(), false),
                };
                // A stream loaded from the store was never streamed.
                for ckpt in &ff.checkpoints[publisher.published()..] {
                    publisher.publish(ckpt.clone());
                }
                (ff, t0.elapsed().as_secs_f64(), from_store)
            },
            |i, idx, ckpt| {
                let (bench, machine, scheme) = todo[i];
                let _span = dca_obs::span("lab", "lab.interval")
                    .arg("bench", bench)
                    .arg("checkpoint", idx);
                let w = &workloads[bench];
                let cfg = &cfgs[i];
                let mut steering = scheme.instantiate(&w.program);
                let mut sim = Simulator::resume_from(cfg, &w.program, ckpt);
                let t0 = Instant::now();
                // Continuous warming restores the checkpoint's carried
                // snapshot — zero detached-warming instructions (the
                // acceptance counter of the warming work); detached
                // warming replays `warmup` instructions as before.
                let warmed = match warming {
                    Warming::Continuous => {
                        let blob = ckpt.uarch().unwrap_or_else(|| {
                            panic!(
                                "continuous warming: checkpoint at {} of {bench} carries no \
                                 uarch snapshot (stream computed without a warm hook?)",
                                ckpt.seq()
                            )
                        });
                        let snap = UarchSnapshot::decode(blob).unwrap_or_else(|e| {
                            panic!("continuous warming: {bench} @ {}: {e}", ckpt.seq())
                        });
                        sim.restore_uarch(&snap).unwrap_or_else(|e| {
                            panic!(
                                "continuous warming: {bench} @ {} on {}: {e}",
                                ckpt.seq(),
                                machine.key()
                            )
                        });
                        0
                    }
                    Warming::Detached if warm_steering => {
                        sim.warm_functional_steered(sampling.warmup, steering.as_mut())
                    }
                    Warming::Detached => sim.warm_functional(sampling.warmup),
                };
                let warm_secs = t0.elapsed().as_secs_f64();
                let budget = (ckpt.seq() + warmed + sampling.interval).min(max_insts);
                let t1 = Instant::now();
                let stats = sim.run_mut(steering.as_mut(), budget);
                let detailed_secs = t1.elapsed().as_secs_f64();
                let m = dca_obs::metrics();
                m.intervals_computed_total.inc();
                tally.intervals_computed.fetch_add(1, Ordering::Relaxed);
                m.warm_insts_total.add(warmed);
                m.interval_ns.record((detailed_secs * 1e9) as u64);
                IntervalOutcome {
                    stats,
                    warmed,
                    restored: warming == Warming::Continuous,
                    warm_secs,
                    detailed_secs,
                    from_store: false,
                }
            },
        );
        if out.cancelled {
            progress::warn("[lab] sampling cancelled; merging completed prefixes");
        }

        let (mut ff_executed, mut ff_secs) = (0u64, 0.0f64);
        for (bench, produced) in benches.iter().zip(out.produced) {
            let Some((ff, secs, from_store)) = produced else {
                continue; // the lab already held this stream
            };
            let info = FastForwardInfo {
                insts: ff.total_insts,
                checkpoints: ff.checkpoints.len() as u64,
                secs,
                from_store,
            };
            ff_executed += info.executed_insts();
            ff_secs += secs;
            self.ff_info.insert(bench, info);
            self.ffs.insert(bench, ff);
        }
        self.tally.ff_insts.fetch_add(ff_executed, Ordering::Relaxed);
        if ff_executed > 0 && ff_secs > 0.0 {
            dca_obs::metrics()
                .ff_insts_per_sec
                .set((ff_executed as f64 / ff_secs) as u64);
        }

        // Merge each run's decided prefix, persist newly computed
        // intervals, and fill the caches.
        let (mut all_det_insts, mut all_det_secs) = (0u64, 0.0f64);
        for (i, run) in out.runs.into_iter().enumerate() {
            let (bench, machine, scheme) = todo[i];
            let (merged, info) = merge_outcomes(&run.outcomes, run.used, run.budget as u64);
            {
                let m = dca_obs::metrics();
                if info.early_stop {
                    m.early_stops_total.inc();
                }
                m.restored_snapshots_total.add(info.restored_snapshots);
                all_det_insts += info.detailed_insts;
                all_det_secs += info.detailed_secs;
            }
            if let Some(store) = &self.store {
                if run.outcomes.len() > prefilled[i] {
                    let records: Vec<IntervalRecord> = run
                        .outcomes
                        .iter()
                        .map(|o| IntervalRecord {
                            stats: o.stats.clone(),
                            warmed_insts: o.warmed,
                        })
                        .collect();
                    store.extend_intervals(&result_key(i), &records);
                }
            }
            let key = Self::cache_key(bench, machine, scheme);
            self.sample_info.insert(key.clone(), info);
            self.cache.insert(key, merged);
        }
        if all_det_insts > 0 && all_det_secs > 0.0 {
            dca_obs::metrics()
                .detailed_insts_per_sec
                .set((all_det_insts as f64 / all_det_secs) as u64);
        }
    }

    /// Sampling diagnostics of a combination simulated in sampled mode
    /// (`None` for unsampled runs).
    pub fn sample_info(&self, bench: &str, machine: Machine, scheme: SchemeKind) -> Option<&SampleInfo> {
        self.sample_info.get(&Self::cache_key(bench, machine, scheme))
    }

    /// Fast-forward diagnostics of a benchmark's checkpoint pass
    /// (`None` before the benchmark was sampled).
    pub fn fast_forward_info(&self, bench: &str) -> Option<&FastForwardInfo> {
        self.ff_info.get(Self::bench_name(bench))
    }

    /// Builds (in parallel) every listed workload not yet cached and
    /// returns the cache, so callers can hand out `&Workload`
    /// references without rebuilding. Duplicates are fine.
    pub(crate) fn build_workloads(
        &mut self,
        benches: &[&'static str],
    ) -> &HashMap<&'static str, Workload> {
        let scale = self.opts.scale;
        let mut missing: Vec<&'static str> = Vec::new();
        for &bench in benches {
            if !self.workloads.contains_key(bench) && !missing.contains(&bench) {
                missing.push(bench);
            }
        }
        let built: Vec<(&'static str, Workload)> =
            Self::fan_out(&missing, |&name| (name, dca_workloads::build(name, scale)));
        self.workloads.extend(built);
        &self.workloads
    }

    /// Maps `f` over `items` on scoped worker threads (work-stealing
    /// via a shared atomic index) and returns the results; their order
    /// is unspecified. Runs inline when a single worker suffices.
    ///
    /// Worker threads are drawn from the process-wide budget
    /// ([`set_worker_budget`]): concurrent fan-outs — e.g. K serve
    /// jobs sampling at once — split the machine between them instead
    /// of each spawning a full complement. A fan-out always gets at
    /// least one worker (progress is never blocked on the budget), so
    /// momentary oversubscription is bounded by the number of
    /// concurrent fan-outs, never multiplicative.
    fn fan_out<T: Sync, R: Send>(
        items: &[T],
        f: impl Fn(&T) -> R + Sync,
    ) -> Vec<R> {
        use std::sync::atomic::AtomicUsize;
        let desired = default_parallelism().min(items.len());
        if desired <= 1 {
            dca_obs::metrics().lab_workers.set(1);
            let _span = dca_obs::span("lab", "lab.worker").arg("items", items.len());
            return items.iter().map(f).collect();
        }
        // Returned to the budget when dropped, also on unwind.
        let claim = WorkerClaim::take(desired);
        let workers = claim.workers;
        dca_obs::metrics().lab_workers.set(workers as u64);
        if workers <= 1 {
            let _span = dca_obs::span("lab", "lab.worker").arg("items", items.len());
            return items.iter().map(f).collect();
        }
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut span = dca_obs::span("lab", "lab.worker");
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            out.push(f(item));
                        }
                        span.add_arg("items", out.len());
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("lab worker panicked"))
                .collect()
        })
    }

    /// Simulates (or returns the memoised result of) one combination.
    pub fn stats(&mut self, bench: &str, machine: Machine, scheme: SchemeKind) -> SimStats {
        let key = Self::cache_key(bench, machine, scheme);
        if let Some(s) = self.cache.get(&key) {
            return s.clone();
        }
        progress::detail(format!(
            "[lab] {bench} / {} / {}",
            machine.key(),
            scheme.label()
        ));
        if self.opts.sampling.is_some() {
            // Sampled runs always go through the batch driver: even a
            // single combination fans its intervals across the pool.
            self.ensure(&[(bench, machine, scheme)]);
            return self.cache[&key].clone();
        }
        let max = self.opts.max_insts;
        let cfg = self.config_of(machine);
        let w = self.workload(bench);
        let stats = Self::simulate(w, &cfg, scheme, max);
        self.tally.straight_runs.fetch_add(1, Ordering::Relaxed);
        self.cache.insert(key, stats.clone());
        stats
    }

    /// Base-machine run for `bench` (the speed-up denominator).
    pub fn base(&mut self, bench: &str) -> SimStats {
        self.stats(bench, Machine::Base, SchemeKind::Naive)
    }

    /// Speed-up (percent) of a combination over the base machine.
    pub fn speedup(&mut self, bench: &str, machine: Machine, scheme: SchemeKind) -> f64 {
        let s = self.stats(bench, machine, scheme);
        let b = self.base(bench);
        s.speedup_over(&b)
    }

    /// Number of simulations performed so far (for tests).
    pub fn runs(&self) -> usize {
        self.cache.len()
    }
}

/// One worker per core, read once: `available_parallelism` re-reads
/// the cgroup quota files on every call (tens of µs), and every
/// ensure asks at least once — four times per warm served request.
fn default_parallelism() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The process-wide worker budget every [`Lab`] fan-out draws from.
/// Signed: a fan-out that finds the budget exhausted still takes one
/// worker (progress guarantee), briefly driving the balance negative.
fn worker_budget() -> &'static AtomicI64 {
    static BUDGET: std::sync::OnceLock<AtomicI64> = std::sync::OnceLock::new();
    BUDGET.get_or_init(|| AtomicI64::new(default_parallelism() as i64))
}

/// Sets the process-wide Lab worker budget (default: one per core).
/// Concurrent fan-outs — K serve jobs sampling at once — share this
/// pool instead of each assuming it owns the machine. Call while no
/// fan-out is in flight (at startup, or between jobs): the budget is
/// set absolutely, not adjusted relative to outstanding claims.
pub fn set_worker_budget(n: usize) {
    worker_budget().store(n.max(1) as i64, Ordering::SeqCst);
}

/// Workers claimed from a budget ([`set_worker_budget`]) and handed
/// back when the claim drops — on return and on unwind alike, so a
/// panicking fan-out never shrinks the pool of a long-lived process.
struct WorkerClaim {
    budget: &'static AtomicI64,
    workers: usize,
}

impl WorkerClaim {
    /// Claims between 1 and `desired` workers from the process budget.
    fn take(desired: usize) -> WorkerClaim {
        WorkerClaim::take_from(worker_budget(), desired)
    }

    fn take_from(budget: &'static AtomicI64, desired: usize) -> WorkerClaim {
        let mut avail = budget.load(Ordering::Relaxed);
        loop {
            let take = avail.min(desired as i64).max(1);
            match budget.compare_exchange_weak(
                avail,
                avail - take,
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return WorkerClaim {
                        budget,
                        workers: take as usize,
                    }
                }
                Err(cur) => avail = cur,
            }
        }
    }
}

impl Drop for WorkerClaim {
    fn drop(&mut self) {
        self.budget.fetch_add(self.workers as i64, Ordering::SeqCst);
    }
}

/// `dca figures [ID ...] [options]`: parses the common options,
/// regenerates the requested artefacts (no id: everything), prints
/// them and saves them under `results/`. `args` is the command line
/// after the `figures` subcommand.
///
/// # Errors
///
/// A malformed option value or an unknown figure id, reported before
/// any work starts.
pub fn run_cli_with(args: impl Iterator<Item = String>) -> Result<(), String> {
    let (opts, rest) = RunOpts::parse(args)?;
    let selected = if rest.is_empty() { vec!["all".to_string()] } else { rest };
    if let Some(bad) = selected
        .iter()
        .find(|sel| *sel != "all" && figures::by_name(sel).is_none())
    {
        return Err(format!("unknown figure `{bad}`; try `all`"));
    }
    opts.apply_observability();
    let mut lab = Lab::new(opts.clone());
    let out = std::path::PathBuf::from("results");
    let t0 = std::time::Instant::now();
    let mut generated = Vec::new();
    for sel in &selected {
        if sel == "all" {
            for fig in figures::all(&mut lab) {
                emit(&fig, &out);
                generated.push(fig.id.to_string());
            }
        } else {
            let fig = figures::by_name(sel).expect("validated above")(&mut lab);
            emit(&fig, &out);
            generated.push(fig.id.to_string());
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    progress::info(format!(
        "[lab] {} simulation runs, {elapsed:.1}s",
        lab.runs()
    ));
    let mut manifest = lab.manifest("figures");
    manifest.set(
        "figures",
        dca_obs::json::Json::Arr(
            generated
                .iter()
                .map(|id| dca_obs::json::Json::Str(id.clone()))
                .collect(),
        ),
    );
    manifest.phase_secs("figures", elapsed);
    manifest.set_metrics(&dca_obs::metrics().snapshot());
    let manifest_path = out.join("run_manifest.json");
    if let Err(e) = manifest.save(&manifest_path) {
        progress::warn(format!(
            "[lab] could not write manifest {}: {e}",
            manifest_path.display()
        ));
    } else {
        progress::info(format!("[lab] wrote {}", manifest_path.display()));
    }
    opts.write_observability();
    Ok(())
}

fn emit(fig: &figures::Figure, out: &std::path::Path) {
    println!("# {}\n\n{}", fig.title, fig.body);
    if let Some(timing) = &fig.timing {
        progress::info(timing.clone());
    }
    match fig.save(out) {
        Ok(p) => progress::info(format!("[lab] wrote {}", p.display())),
        Err(e) => progress::warn(format!("[lab] could not write {}: {e}", fig.id)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::INTERVAL_CHUNK;
    use dca_workloads::Scale;

    fn smoke_opts() -> RunOpts {
        RunOpts {
            scale: Scale::Smoke,
            max_insts: 60_000,
            sampling: None,
            ..RunOpts::default()
        }
    }

    #[test]
    fn lab_memoises_runs() {
        let mut lab = Lab::new(smoke_opts());
        let a = lab.stats("compress", Machine::Clustered, SchemeKind::GeneralBalance);
        assert_eq!(lab.runs(), 1);
        let b = lab.stats("compress", Machine::Clustered, SchemeKind::GeneralBalance);
        assert_eq!(lab.runs(), 1, "second call must hit the cache");
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn speedup_is_relative_to_base() {
        let mut lab = Lab::new(smoke_opts());
        let s = lab.speedup("compress", Machine::Clustered, SchemeKind::GeneralBalance);
        // Any steering on the clustered machine should not be
        // dramatically slower than the base machine.
        assert!(s > -30.0, "speedup {s}");
        assert_eq!(lab.runs(), 2, "scheme + base");
    }

    /// Smoke-scale *detached* sampling: the window is tiny, so warming
    /// must cover the workload's cache footprint for the IPC estimate
    /// to converge (detached warming rebuilds cache/predictor state
    /// per interval — DESIGN.md §7 discusses the bias; §9 removes it).
    /// Tests that pin the PR 2/3 detached behaviour use these options;
    /// continuous-warming behaviour has its own tests below.
    fn sampled_opts() -> RunOpts {
        RunOpts {
            scale: Scale::Smoke,
            max_insts: 60_000,
            verbose: false,
            sampling: Some(SampleOpts {
                period: 10_000,
                warmup: 8_000,
                interval: 6_000,
                target_stderr: None,
                warming: Warming::Detached,
            }),
            ..RunOpts::default()
        }
    }

    /// The continuous-warming twin of [`sampled_opts`].
    fn continuous_opts() -> RunOpts {
        let mut opts = sampled_opts();
        opts.sampling.as_mut().expect("sampled").warming = Warming::Continuous;
        opts
    }

    /// Per-lab work attribution: each lab tallies its own simulation
    /// work, labs are independent of one another, and memoised
    /// lookups add nothing — the invariant serve's per-job deltas
    /// are built on.
    #[test]
    fn work_tally_is_per_lab_and_exact() {
        let mut a = Lab::new(sampled_opts());
        let mut b = Lab::new(smoke_opts());
        assert_eq!(a.work(), WorkCounts::default());
        let _ = a.stats("compress", Machine::Clustered, SchemeKind::Modulo);
        let wa = a.work();
        assert!(wa.ff_insts > 0, "cold sampled run fast-forwards");
        assert!(wa.intervals_computed > 0, "cold sampled run simulates intervals");
        assert_eq!(wa.straight_runs, 0);
        assert!(!wa.is_warm());
        assert_eq!(b.work(), WorkCounts::default(), "other labs are untouched");
        // A straight (unsampled) pass counts as a run, so a fresh
        // non-sampled figure can never report itself warm.
        let _ = b.stats("compress", Machine::Base, SchemeKind::Naive);
        assert_eq!(b.work().straight_runs, 1);
        assert!(!b.work().is_warm());
        // Memoised lookups do no work.
        let before = a.work();
        let _ = a.stats("compress", Machine::Clustered, SchemeKind::Modulo);
        assert_eq!(a.work().since(&before), WorkCounts::default());
    }

    /// `adopt_from` shares the parent's tally: side labs a figure
    /// spawns internally attribute their work to the same job.
    #[test]
    fn adopted_labs_share_the_work_tally() {
        let mut parent = Lab::new(sampled_opts());
        let _ = parent.stats("compress", Machine::Clustered, SchemeKind::Modulo);
        let before = parent.work();
        let mut child = Lab::new(parent.opts());
        child.adopt_from(&parent);
        assert_eq!(child.work(), before, "shared tally, same snapshot");
        let _ = child.stats("compress", Machine::Clustered, SchemeKind::GeneralBalance);
        let delta = parent.work().since(&before);
        assert!(
            delta.intervals_computed > 0,
            "child work shows up on the parent's tally"
        );
        assert_eq!(delta.ff_insts, 0, "adopted checkpoint streams are reused");
    }

    /// The worker-budget primitives keep their progress guarantee: a
    /// claim always yields at least one worker and never more than
    /// asked for.
    #[test]
    fn worker_budget_claims_are_bounded() {
        let got = WorkerClaim::take(4);
        assert!((1..=4).contains(&got.workers));
        drop(got);
        assert_eq!(WorkerClaim::take(1).workers, 1);
    }

    /// A claim held by a panicking fan-out goes back to its budget as
    /// the panic unwinds, so a long-lived process keeps its full pool.
    /// (A private budget: the process one is shared with concurrently
    /// running tests.)
    #[test]
    fn a_claim_dropped_during_unwind_restores_the_budget() {
        static BUDGET: AtomicI64 = AtomicI64::new(3);
        let unwound = std::panic::catch_unwind(|| {
            let claim = WorkerClaim::take_from(&BUDGET, 2);
            assert_eq!(claim.workers, 2);
            assert_eq!(BUDGET.load(Ordering::SeqCst), 1);
            panic!("worker failed");
        });
        assert!(unwound.is_err());
        assert_eq!(BUDGET.load(Ordering::SeqCst), 3, "claim returned on unwind");
    }

    #[test]
    #[should_panic(expected = "exceeds the checkpoint period")]
    fn overlapping_sample_intervals_are_rejected() {
        let mut lab = Lab::new(RunOpts {
            sampling: Some(SampleOpts {
                period: 1_000,
                warmup: 0,
                interval: 2_000,
                target_stderr: None,
                warming: Warming::Detached,
            }),
            ..smoke_opts()
        });
        let _ = lab.stats("compress", Machine::Clustered, SchemeKind::Modulo);
    }

    #[test]
    fn sampled_runs_record_interval_diagnostics() {
        let mut lab = Lab::new(sampled_opts());
        let s = lab.stats("compress", Machine::Clustered, SchemeKind::GeneralBalance);
        assert!(s.committed > 0);
        let info = lab
            .sample_info("compress", Machine::Clustered, SchemeKind::GeneralBalance)
            .expect("sampled run has diagnostics");
        assert!(info.intervals > 1, "smoke window yields several intervals");
        assert_eq!(info.detailed_insts, s.committed);
        assert_eq!(info.detailed_cycles, s.cycles);
        assert!(info.ipc_stderr >= 0.0);
        let ff = lab.fast_forward_info("compress").expect("fast-forwarded");
        // A trailing checkpoint whose warmup exhausts the stream
        // contributes no measured interval.
        assert!(ff.checkpoints >= info.intervals, "checkpoints cover the intervals");
        assert!(ff.insts <= 60_000);
    }

    #[test]
    fn sampled_runs_are_deterministic() {
        let run = ("compress", Machine::Clustered, SchemeKind::Modulo);
        let mut a = Lab::new(sampled_opts());
        let mut b = Lab::new(sampled_opts());
        let (sa, sb) = (a.stats(run.0, run.1, run.2), b.stats(run.0, run.1, run.2));
        assert_eq!(sa.cycles, sb.cycles);
        assert_eq!(sa.committed, sb.committed);
        assert_eq!(sa.copies, sb.copies);
        assert_eq!(sa.balance, sb.balance);
        let (ia, ib) = (
            a.sample_info(run.0, run.1, run.2).unwrap(),
            b.sample_info(run.0, run.1, run.2).unwrap(),
        );
        assert_eq!(ia.intervals, ib.intervals);
        assert!((ia.ipc_mean - ib.ipc_mean).abs() < 1e-15);
        assert!((ia.ipc_stderr - ib.ipc_stderr).abs() < 1e-15);
    }

    /// ISSUE 2 acceptance: the sampled IPC estimate must track the full
    /// detailed run. At smoke scale a full run is cheap, so the
    /// convergence is pinned here (the per-interval cold-backend
    /// ramp-up biases sampled IPC slightly low; 10% is comfortably
    /// above the observed error and far below scheme-ranking deltas).
    #[test]
    fn sampled_ipc_converges_to_the_full_run() {
        let full_opts = RunOpts {
            scale: Scale::Smoke,
            max_insts: 60_000,
            sampling: None,
            ..RunOpts::default()
        };
        for (machine, scheme) in [
            (Machine::Base, SchemeKind::Naive),
            (Machine::Clustered, SchemeKind::GeneralBalance),
        ] {
            let full = Lab::new(full_opts.clone()).stats("compress", machine, scheme);
            let sampled = Lab::new(sampled_opts()).stats("compress", machine, scheme);
            let rel = (sampled.ipc() - full.ipc()).abs() / full.ipc();
            assert!(
                rel < 0.10,
                "{machine:?}/{scheme:?}: sampled {} vs full {} ({}% off)",
                sampled.ipc(),
                full.ipc(),
                (rel * 100.0).round()
            );
        }
    }

    /// ISSUE 3: the early exit stops at the 2-interval floor with a
    /// loose target — and never below it.
    #[test]
    fn adaptive_early_exit_stops_at_the_two_interval_floor() {
        let mut opts = sampled_opts();
        opts.sampling.as_mut().expect("sampled").target_stderr = Some(1000.0);
        let mut lab = Lab::new(opts);
        let s = lab.stats("compress", Machine::Clustered, SchemeKind::Modulo);
        let info = lab
            .sample_info("compress", Machine::Clustered, SchemeKind::Modulo)
            .expect("sampled");
        assert_eq!(info.intervals, 2, "loose target stops at the floor");
        assert!(info.early_stop);
        assert!(info.intervals < info.budget, "budget {} left unused", info.budget);
        assert_eq!(info.detailed_insts, s.committed, "stats cover exactly the prefix");

        // The full-budget run of the same combination merges more.
        let full = Lab::new(sampled_opts()).stats("compress", Machine::Clustered, SchemeKind::Modulo);
        assert!(full.committed > s.committed);
    }

    fn store_opts(tag: &str) -> (RunOpts, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("dca-bench-store-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        let mut opts = sampled_opts();
        opts.store_dir = Some(dir.clone());
        (opts, dir)
    }

    /// Every shard in a store directory (the v3 layout keeps
    /// checkpoint shards under `ck/` and result shards under `rs/`).
    fn shard_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        let mut out = Vec::new();
        for sub in ["ck", "rs"] {
            if let Ok(rd) = std::fs::read_dir(dir.join(sub)) {
                out.extend(rd.flatten().map(|e| e.path()));
            }
        }
        out
    }

    /// ISSUE 6 tentpole acceptance: ≥4 concurrent labs sharing one
    /// store directory produce statistics identical to a storeless
    /// run, and the shard-lock election lets exactly one of them
    /// fast-forward (first-writer-wins); the rest are served from the
    /// store. All locks are released afterwards.
    #[test]
    fn concurrent_labs_share_one_store_first_writer_wins() {
        let (opts, dir) = store_opts("concurrent-labs");
        let run = ("compress", Machine::Clustered, SchemeKind::GeneralBalance);
        let mut cold_opts = opts.clone();
        cold_opts.store_dir = None;
        let reference = Lab::new(cold_opts).stats(run.0, run.1, run.2);

        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let opts = opts.clone();
                    s.spawn(move || {
                        let mut lab = Lab::new(opts);
                        let stats = lab.stats(run.0, run.1, run.2);
                        let from_store = lab.fast_forward_info(run.0).unwrap().from_store;
                        (stats, from_store)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let fresh = results.iter().filter(|(_, from_store)| !from_store).count();
        assert_eq!(fresh, 1, "exactly one lab fast-forwards; peers hit the store");
        for (stats, _) in &results {
            assert_eq!(stats.cycles, reference.cycles, "identical across workers");
            assert_eq!(stats.committed, reference.committed);
            assert_eq!(stats.balance, reference.balance);
            assert_eq!(stats.l1d.hits, reference.l1d.hits);
        }
        let store = Store::open(&dir);
        assert_eq!(store.stat().live_locks, 0, "all shard locks released");
        for r in store.verify() {
            assert!(
                matches!(r.status, dca_store::FileStatus::Ok { .. }),
                "{}: {:?}",
                r.path.display(),
                r.status
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// ISSUE 6 degradation: a `--store-dir` that turns out to be a
    /// regular file (so every store I/O fails) must never fail the
    /// run — the lab warns, computes in memory, reports
    /// `from_store = false`, and leaves the file untouched.
    #[test]
    fn unusable_store_dir_degrades_to_in_memory_compute() {
        let file = std::env::temp_dir().join("dca-bench-store-not-a-dir");
        std::fs::write(&file, b"not a directory").unwrap();
        let mut opts = sampled_opts();
        opts.store_dir = Some(file.clone());
        let run = ("compress", Machine::Clustered, SchemeKind::Modulo);
        let mut lab = Lab::new(opts);
        let s = lab.stats(run.0, run.1, run.2);
        assert!(!lab.fast_forward_info(run.0).expect("ran").from_store);
        let reference = Lab::new(sampled_opts()).stats(run.0, run.1, run.2);
        assert_eq!(s.cycles, reference.cycles, "degraded run is still correct");
        assert_eq!(s.committed, reference.committed);
        assert_eq!(
            std::fs::read(&file).unwrap(),
            b"not a directory",
            "the file standing where the store should be is untouched"
        );
        std::fs::remove_file(&file).ok();
    }

    /// ISSUE 6 degradation, injected flavour: a store whose device
    /// dies on the very first operation (fault plan kills every op,
    /// including lock acquisition) still yields correct statistics.
    #[test]
    fn dead_store_io_never_fails_a_run() {
        use dca_store::io::{FaultIo, FaultPlan};
        let dir = std::env::temp_dir().join("dca-bench-store-dead-io");
        std::fs::remove_dir_all(&dir).ok();
        let mut opts = sampled_opts();
        opts.store_dir = Some(dir.clone());
        let io = std::sync::Arc::new(FaultIo::new(FaultPlan::kill_at(0)));
        let store = Store::open_with_io(&dir, io);
        let run = ("compress", Machine::Clustered, SchemeKind::Modulo);
        let mut lab = Lab::with_store(opts, store);
        let s = lab.stats(run.0, run.1, run.2);
        assert!(!lab.fast_forward_info(run.0).expect("ran").from_store);
        let reference = Lab::new(sampled_opts()).stats(run.0, run.1, run.2);
        assert_eq!(s.cycles, reference.cycles, "dead store never fails a run");
        assert_eq!(s.balance, reference.balance);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// ISSUE 3 acceptance (smoke-scale twin of the CI benchmark): a
    /// second lab over a warm store executes zero fast-forward
    /// instructions and zero detailed simulation, yet reproduces the
    /// cold run's statistics exactly.
    #[test]
    fn warm_store_reproduces_cold_results_with_zero_fast_forward() {
        let (opts, dir) = store_opts("warm");
        let run = ("compress", Machine::Clustered, SchemeKind::GeneralBalance);

        let mut cold = Lab::new(opts.clone());
        let sc = cold.stats(run.0, run.1, run.2);
        let ffc = cold.fast_forward_info(run.0).expect("fast-forwarded");
        assert!(!ffc.from_store);
        assert!(ffc.executed_insts() > 0);

        let mut warm = Lab::new(opts.clone());
        let sw = warm.stats(run.0, run.1, run.2);
        let ffw = warm.fast_forward_info(run.0).expect("loaded");
        assert!(ffw.from_store, "second lab must hit the store");
        assert_eq!(ffw.executed_insts(), 0, "zero fast-forward instructions");
        assert_eq!(ffw.insts, ffc.insts, "stream covers the same window");

        assert_eq!(sc.cycles, sw.cycles);
        assert_eq!(sc.committed, sw.committed);
        assert_eq!(sc.copies, sw.copies);
        assert_eq!(sc.balance, sw.balance);
        assert_eq!(sc.l1d.hits, sw.l1d.hits);
        let iw = warm.sample_info(run.0, run.1, run.2).expect("sampled");
        let ic = cold.sample_info(run.0, run.1, run.2).expect("sampled");
        assert!(iw.from_store > 0, "intervals served from the store");
        assert_eq!(ic.from_store, 0);
        assert_eq!(iw.intervals, ic.intervals);
        assert_eq!(iw.detailed_secs, 0.0, "no detailed simulation on the warm path");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// ISSUE 3: a corrupt store entry produces a warning and a clean
    /// fall back to recomputation — and the recomputed entry heals the
    /// store.
    #[test]
    fn corrupt_store_falls_back_to_recomputation() {
        let (opts, dir) = store_opts("corrupt");
        let run = ("compress", Machine::Clustered, SchemeKind::Modulo);
        let baseline = Lab::new(opts.clone()).stats(run.0, run.1, run.2);

        // Flip a byte in the middle of every shard (shards live in the
        // ck/ and rs/ subdirectories since the v3 sharded layout).
        let mut flipped = 0;
        for path in shard_files(&dir) {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&path, bytes).unwrap();
            flipped += 1;
        }
        assert!(flipped >= 2, "checkpoints + results were persisted");

        let mut healed = Lab::new(opts.clone());
        let s = healed.stats(run.0, run.1, run.2);
        assert_eq!(s.cycles, baseline.cycles, "recomputation matches");
        assert!(!healed.fast_forward_info(run.0).unwrap().from_store);

        // The store was rewritten: a third lab hits it again.
        let mut third = Lab::new(opts.clone());
        let s3 = third.stats(run.0, run.1, run.2);
        assert_eq!(s3.cycles, baseline.cycles);
        assert!(third.fast_forward_info(run.0).unwrap().from_store);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// ISSUE 3: a warm store whose result prefix is shorter than the
    /// current request (tighter target ⇒ more intervals) is *extended*,
    /// and the merge over mixed store/fresh intervals is identical to
    /// an all-cold run.
    #[test]
    fn adaptive_results_extend_a_stored_prefix() {
        let (mut opts, dir) = store_opts("extend");
        // Many checkpoints, so the first adaptive chunk does not cover
        // the whole budget.
        opts.sampling = Some(SampleOpts {
            period: 2_000,
            warmup: 1_500,
            interval: 1_000,
            target_stderr: Some(1000.0), // stops at 2, stores one chunk
            warming: Warming::Detached,
        });
        let run = ("compress", Machine::Clustered, SchemeKind::Modulo);
        let _ = Lab::new(opts.clone()).stats(run.0, run.1, run.2);

        // Same key, but now the full budget is required.
        let mut full_opts = opts.clone();
        full_opts.sampling.as_mut().unwrap().target_stderr = None;
        let mut warm = Lab::new(full_opts.clone());
        let sw = warm.stats(run.0, run.1, run.2);
        let iw = warm.sample_info(run.0, run.1, run.2).expect("sampled");
        assert!(iw.budget > INTERVAL_CHUNK as u64, "scenario exercises extension");
        assert!(iw.from_store > 0, "stored prefix reused");
        assert!(
            iw.from_store < iw.budget,
            "extension actually simulated new intervals"
        );

        // All-cold reference with the same (full-budget) parameters.
        let mut cold_opts = full_opts.clone();
        cold_opts.store_dir = None;
        let sc = Lab::new(cold_opts).stats(run.0, run.1, run.2);
        assert_eq!(sw.cycles, sc.cycles, "mixed store/fresh merge is exact");
        assert_eq!(sw.committed, sc.committed);
        assert_eq!(sw.balance, sc.balance);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Steering-state warm-up (`--warm-steering`) changes only
    /// decode-time tables: the measured windows are identical, so
    /// committed counts match; results are keyed separately in the
    /// store and deterministic per flag value.
    #[test]
    fn warm_steering_is_deterministic_and_preserves_windows() {
        let run = ("compress", Machine::Clustered, SchemeKind::LdStSliceBalance);
        let mut warm_opts = sampled_opts();
        warm_opts.warm_steering = true;
        let a = Lab::new(warm_opts.clone()).stats(run.0, run.1, run.2);
        let b = Lab::new(warm_opts).stats(run.0, run.1, run.2);
        assert_eq!(a.cycles, b.cycles, "warm-steering runs are deterministic");
        let cold = Lab::new(sampled_opts()).stats(run.0, run.1, run.2);
        assert_eq!(a.committed, cold.committed, "same measured windows");
    }

    /// Continuous-warming acceptance (the counter test of the ISSUE 4
    /// criterion): every interval of a `--warming continuous` run
    /// starts from a restored `UarchSnapshot` and executes **zero**
    /// detached-warming instructions.
    #[test]
    fn continuous_warming_restores_snapshots_and_runs_zero_detached_warming() {
        let run = ("compress", Machine::Clustered, SchemeKind::GeneralBalance);
        let mut lab = Lab::new(continuous_opts());
        let s = lab.stats(run.0, run.1, run.2);
        assert!(s.committed > 0);
        let info = lab.sample_info(run.0, run.1, run.2).expect("sampled");
        assert_eq!(info.warmed_insts, 0, "zero detached-warming instructions");
        assert!(info.intervals > 1, "smoke window yields several intervals");
        assert!(
            info.restored_snapshots >= info.intervals,
            "every merged interval started from a restored snapshot \
             ({} restored, {} intervals)",
            info.restored_snapshots,
            info.intervals
        );

        // Deterministic, like every other sampled mode.
        let s2 = Lab::new(continuous_opts()).stats(run.0, run.1, run.2);
        assert_eq!(s.cycles, s2.cycles);
        assert_eq!(s.committed, s2.committed);
        assert_eq!(s.balance, s2.balance);

        // And genuinely warmer than detached warming: the detached run
        // pays a cold-start transient that continuous warming removes,
        // so the two modes must not be accidentally wired to the same
        // path (their stats differ).
        let mut det = Lab::new(sampled_opts());
        let sd = det.stats(run.0, run.1, run.2);
        let id = det.sample_info(run.0, run.1, run.2).expect("sampled");
        assert!(id.warmed_insts > 0, "detached mode still warms functionally");
        assert_eq!(id.restored_snapshots, 0);
        assert_ne!(
            (s.cycles, s.l1d.hits),
            (sd.cycles, sd.l1d.hits),
            "continuous and detached warming measure different microarchitectural state"
        );
    }

    /// Continuous sampled IPC tracks the full detailed run at least as
    /// well as the detached harness does (same bound as
    /// `sampled_ipc_converges_to_the_full_run`).
    #[test]
    fn continuous_sampling_converges_to_the_full_run() {
        let full_opts = RunOpts {
            scale: Scale::Smoke,
            max_insts: 60_000,
            sampling: None,
            ..RunOpts::default()
        };
        for (machine, scheme) in [
            (Machine::Base, SchemeKind::Naive),
            (Machine::Clustered, SchemeKind::GeneralBalance),
        ] {
            let full = Lab::new(full_opts.clone()).stats("compress", machine, scheme);
            let sampled = Lab::new(continuous_opts()).stats("compress", machine, scheme);
            let rel = (sampled.ipc() - full.ipc()).abs() / full.ipc();
            assert!(
                rel < 0.10,
                "{machine:?}/{scheme:?}: sampled {} vs full {} ({}% off)",
                sampled.ipc(),
                full.ipc(),
                (rel * 100.0).round()
            );
        }
    }

    /// The continuous-warming twin of
    /// `warm_store_reproduces_cold_results_with_zero_fast_forward`:
    /// snapshots survive the store and the warm run still executes
    /// zero fast-forward and zero detached-warming instructions.
    #[test]
    fn continuous_warm_store_reproduces_cold_results() {
        let (mut opts, dir) = store_opts("warm-continuous");
        opts.sampling.as_mut().expect("sampled").warming = Warming::Continuous;
        let run = ("compress", Machine::Clustered, SchemeKind::GeneralBalance);

        let mut cold = Lab::new(opts.clone());
        let sc = cold.stats(run.0, run.1, run.2);
        assert!(!cold.fast_forward_info(run.0).expect("ran").from_store);

        let mut warm = Lab::new(opts.clone());
        let sw = warm.stats(run.0, run.1, run.2);
        let ffw = warm.fast_forward_info(run.0).expect("loaded");
        assert!(ffw.from_store, "second lab must hit the store");
        assert_eq!(ffw.executed_insts(), 0, "zero fast-forward instructions");

        assert_eq!(sc.cycles, sw.cycles);
        assert_eq!(sc.committed, sw.committed);
        assert_eq!(sc.balance, sw.balance);
        assert_eq!(sc.l1d.hits, sw.l1d.hits);
        let iw = warm.sample_info(run.0, run.1, run.2).expect("sampled");
        assert!(iw.from_store > 0, "intervals served from the store");
        assert_eq!(iw.warmed_insts, 0, "still zero detached warming");
        assert!(iw.restored_snapshots >= iw.intervals);

        // The warmup budget is inert under continuous warming, so a
        // different `--sample-warmup` must still hit the same result
        // entries (warmup is normalised out of the key).
        let mut rewarm_opts = opts.clone();
        rewarm_opts.sampling.as_mut().expect("sampled").warmup = 123;
        let mut rewarm = Lab::new(rewarm_opts);
        let sr = rewarm.stats(run.0, run.1, run.2);
        assert_eq!(sr.cycles, sc.cycles);
        let ir = rewarm.sample_info(run.0, run.1, run.2).expect("sampled");
        assert!(
            ir.from_store > 0,
            "changed warmup must not invalidate continuous-warming results"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Cross-scale checkpoint reuse at the Lab level (ROADMAP item): a
    /// request for a shorter window is served from the prefix of the
    /// longer stored stream — zero fast-forward instructions executed —
    /// and reproduces a cold shorter run exactly.
    #[test]
    fn shorter_window_request_reuses_the_longer_stored_stream() {
        let (mut opts, dir) = store_opts("window-prefix");
        opts.sampling.as_mut().expect("sampled").warming = Warming::Continuous;
        let run = ("compress", Machine::Clustered, SchemeKind::Modulo);

        // Long window populates the store.
        let _ = Lab::new(opts.clone()).stats(run.0, run.1, run.2);

        // Shorter window over the same stream: served from the prefix.
        let mut short_opts = opts.clone();
        short_opts.max_insts = 30_000;
        let mut short = Lab::new(short_opts.clone());
        let s = short.stats(run.0, run.1, run.2);
        let ff = short.fast_forward_info(run.0).expect("served");
        assert!(ff.from_store, "prefix of the longer stream serves the request");
        assert_eq!(ff.executed_insts(), 0, "zero fast-forward instructions");
        assert_eq!(ff.insts, 30_000, "stream truncated to the requested window");

        // Identical to a cold run of the short window without a store.
        let mut cold_opts = short_opts;
        cold_opts.store_dir = None;
        let sc = Lab::new(cold_opts).stats(run.0, run.1, run.2);
        assert_eq!(s.cycles, sc.cycles, "prefix-served run is exact");
        assert_eq!(s.committed, sc.committed);
        assert_eq!(s.balance, sc.balance);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Version-invalidation satellite, Lab side: store files whose
    /// headers carry older interpreter/timing versions are rejected as
    /// a unit and transparently recomputed (the store-level error
    /// classes are pinned in `dca-store`'s tests).
    #[test]
    fn stale_version_store_entries_are_recomputed() {
        use dca_store::file::{fnv64, TRAILER_BYTES};
        use dca_store::shard::{HEADER_BYTES, HEADER_SUM_OFFSET};
        let (opts, dir) = store_opts("stale-version");
        let run = ("compress", Machine::Clustered, SchemeKind::Modulo);
        let baseline = Lab::new(opts.clone()).stats(run.0, run.1, run.2);

        // Age every shard: checkpoint streams get an older interpreter
        // version, result shards an older timing version; the header
        // and file checksums are fixed up so *only* the version field
        // is stale.
        let mut aged = 0;
        for path in shard_files(&dir) {
            let mut bytes = std::fs::read(&path).unwrap();
            match path.extension().and_then(|e| e.to_str()) {
                Some("dcc") => bytes[16..20]
                    .copy_from_slice(&(dca_prog::INTERP_VERSION - 1).to_le_bytes()),
                Some("dcr") => bytes[20..24]
                    .copy_from_slice(&(dca_sim::TIMING_VERSION - 1).to_le_bytes()),
                _ => continue,
            }
            let hsum = fnv64(&bytes[..HEADER_SUM_OFFSET]);
            bytes[HEADER_SUM_OFFSET..HEADER_BYTES].copy_from_slice(&hsum.to_le_bytes());
            let body = bytes.len() - TRAILER_BYTES;
            let sum = fnv64(&bytes[..body]);
            let len = bytes.len();
            bytes[body..len].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            aged += 1;
        }
        assert!(aged >= 2, "checkpoints + results were persisted");

        let mut healed = Lab::new(opts.clone());
        let s = healed.stats(run.0, run.1, run.2);
        assert_eq!(s.cycles, baseline.cycles, "recomputation matches");
        assert!(
            !healed.fast_forward_info(run.0).expect("ran").from_store,
            "stale stream was rejected, not half-read"
        );

        // The rewritten entries serve the next lab again.
        let mut third = Lab::new(opts.clone());
        assert_eq!(third.stats(run.0, run.1, run.2).cycles, baseline.cycles);
        assert!(third.fast_forward_info(run.0).expect("hit").from_store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ensure_prefills_cache_and_matches_serial() {
        let mut lab = Lab::new(smoke_opts());
        lab.ensure(&[
            ("compress", Machine::Clustered, SchemeKind::Modulo),
            ("compress", Machine::Clustered, SchemeKind::Modulo), // duplicates collapse
            ("li", Machine::Clustered, SchemeKind::Modulo),
        ]);
        assert_eq!(lab.runs(), 2, "two distinct combinations");
        let a = lab.stats("compress", Machine::Clustered, SchemeKind::Modulo);
        assert_eq!(lab.runs(), 2, "ensure pre-filled the cache");
        let mut serial = Lab::new(smoke_opts());
        let b = serial.stats("compress", Machine::Clustered, SchemeKind::Modulo);
        assert_eq!(a.cycles, b.cycles, "parallel and serial runs are identical");
        assert_eq!(a.copies, b.copies);
        assert_eq!(a.balance, b.balance);
    }

    #[test]
    fn every_scheme_instantiates() {
        let w = dca_workloads::build("compress", Scale::Smoke);
        for k in ALL_SCHEMES {
            let s = k.instantiate(&w.program);
            assert!(!s.name().is_empty());
            assert!(!k.label().is_empty());
        }
    }

    /// Chunk-round cancellation (the `dca serve` disconnect path):
    /// setting the token between rounds freezes every run at its
    /// completed prefix — total (no panic, every combination gets an
    /// entry), partial (fewer intervals than the budget), and flagged
    /// (`Lab::cancelled`). The round hook observes the rounds.
    #[test]
    fn cancellation_between_rounds_is_total_and_flagged() {
        use std::sync::atomic::Ordering;
        use std::sync::Mutex;
        let opts = RunOpts {
            scale: Scale::Smoke,
            max_insts: 60_000,
            sampling: Some(SampleOpts {
                // Many checkpoints, so the budget spans several chunk
                // rounds and a cancellation lands between two of them.
                period: 2_000,
                warmup: 1_500,
                interval: 1_000,
                // A target no run can reach keeps the driver in
                // chunked rounds for the whole budget.
                target_stderr: Some(1e-12),
                warming: Warming::Detached,
            }),
            ..RunOpts::default()
        };
        let run = ("compress", Machine::Clustered, SchemeKind::GeneralBalance);
        let reference = Lab::new(opts.clone()).stats(run.0, run.1, run.2);

        let token = Arc::new(AtomicBool::new(false));
        let seen: Arc<Mutex<Vec<RoundProgress>>> = Arc::new(Mutex::new(Vec::new()));
        let mut lab = Lab::new(opts.clone());
        lab.set_cancel(Some(token.clone()));
        let (t, s) = (token.clone(), seen.clone());
        lab.set_round_hook(Some(Box::new(move |p| {
            s.lock().unwrap().push(*p);
            // Cancel after the first round fans out: the check at the
            // next round boundary freezes the prefix.
            t.store(true, Ordering::Relaxed);
        })));
        let stats = lab.stats(run.0, run.1, run.2);
        assert!(lab.cancelled(), "token observed");
        let rounds = seen.lock().unwrap();
        assert_eq!(rounds.len(), 1, "cancelled before round 2");
        assert_eq!(rounds[0].round, 1);
        assert!(rounds[0].batch > 0 && rounds[0].batch <= INTERVAL_CHUNK as u64);
        let info = lab.sample_info(run.0, run.1, run.2).expect("total: info exists");
        assert!(
            info.intervals < info.budget,
            "frozen at a partial prefix ({} of {})",
            info.intervals,
            info.budget
        );
        assert!(stats.committed > 0, "completed prefix merged");
        assert!(
            stats.committed < reference.committed,
            "partial ({} insts) vs complete ({})",
            stats.committed,
            reference.committed
        );

        // A token set before any work: still total, empty entries.
        let mut lab = Lab::new(opts);
        lab.set_cancel(Some(Arc::new(AtomicBool::new(true))));
        let stats = lab.stats(run.0, run.1, run.2);
        assert!(lab.cancelled());
        assert_eq!(stats.committed, 0, "no work scheduled after cancellation");
    }

    /// Smoke-scale continuous sampling over `compress` (which halts
    /// after about 32K instructions) with a 2K checkpoint period.
    fn pipeline_opts(max_insts: u64, target_stderr: Option<f64>) -> RunOpts {
        RunOpts {
            scale: Scale::Smoke,
            max_insts,
            sampling: Some(SampleOpts {
                period: 2_000,
                warmup: 1_500,
                interval: 1_000,
                target_stderr,
                warming: Warming::Continuous,
            }),
            ..RunOpts::default()
        }
    }

    const PIPELINE_RUNS: [Run; 3] = [
        ("compress", Machine::Base, SchemeKind::Naive),
        ("compress", Machine::Clustered, SchemeKind::GeneralBalance),
        ("compress", Machine::Clustered, SchemeKind::Modulo),
    ];

    /// Everything deterministic a lab reports for `runs`: the merged
    /// `SimStats` field by field (its `Debug` rendering) and every
    /// `SampleInfo` field except the two wall-clock sums.
    fn sampled_results(lab: &Lab, runs: &[Run]) -> Vec<String> {
        runs.iter()
            .map(|&(b, m, s)| {
                let key = Lab::cache_key(b, m, s);
                let i = &lab.sample_info[&key];
                format!(
                    "{:?} | {} {} {} {} {} {} {} {:?} {:?} {}",
                    lab.cache[&key],
                    i.intervals,
                    i.budget,
                    i.early_stop,
                    i.from_store,
                    i.restored_snapshots,
                    i.detailed_insts,
                    i.detailed_cycles,
                    i.ipc_mean,
                    i.ipc_stderr,
                    i.warmed_insts
                )
            })
            .collect()
    }

    /// Streamed equivalence: a lab that runs intervals while its own
    /// fast-forward is still publishing checkpoints merges exactly
    /// what a lab sampling an adopted, complete stream merges, and does
    /// the same work — for adaptive and fixed budgets, and for a window
    /// the program halts inside (final budget 17, below the upper bound
    /// of 30 the pipeline assumes until the stream ends).
    #[test]
    fn streamed_checkpoints_match_an_adopted_stream() {
        for (max_insts, target) in
            [(30_000, Some(0.02)), (30_000, None), (60_000, Some(0.02)), (60_000, None)]
        {
            let opts = pipeline_opts(max_insts, target);
            let what = format!("window {max_insts}, target {target:?}");
            let mut streamed = Lab::new(opts.clone());
            streamed.ensure_on(&PIPELINE_RUNS, Some(2));

            let mut parent = Lab::new(opts.clone());
            parent.ensure_on(&PIPELINE_RUNS[..1], Some(1));
            let ff = parent.fast_forward_info("compress").expect("fast-forwarded").clone();
            let mut adopted = Lab::new(opts);
            adopted.adopt_from(&parent);
            let before = adopted.work();
            adopted.ensure_on(&PIPELINE_RUNS, Some(2));
            let delta = adopted.work().since(&before);

            assert_eq!(
                sampled_results(&streamed, &PIPELINE_RUNS),
                sampled_results(&adopted, &PIPELINE_RUNS),
                "{what}"
            );
            assert_eq!(delta.ff_insts, 0, "{what}: the adopted stream is reused");
            assert_eq!(
                streamed.work(),
                WorkCounts { ff_insts: ff.insts, ..delta },
                "{what}: same intervals, one fast-forward"
            );
            let (b, m, s) = PIPELINE_RUNS[0];
            let budget = streamed.sample_info(b, m, s).expect("sampled").budget;
            assert_eq!(budget, ff.checkpoints, "{what}");
            assert_eq!(budget, if max_insts == 60_000 { 17 } else { 15 }, "{what}");
        }
    }

    /// The pipeline at 1, 2 and 3 workers: no deadlock at one (the
    /// producer finishes before any interval runs) and identical
    /// results and work at every width.
    #[test]
    fn pipeline_width_leaves_results_unchanged() {
        let opts = pipeline_opts(60_000, Some(0.02));
        let mut reference = Lab::new(opts.clone());
        reference.ensure_on(&PIPELINE_RUNS, Some(1));
        for workers in 2..=3 {
            let mut lab = Lab::new(opts.clone());
            lab.ensure_on(&PIPELINE_RUNS, Some(workers));
            assert_eq!(
                sampled_results(&lab, &PIPELINE_RUNS),
                sampled_results(&reference, &PIPELINE_RUNS),
                "{workers} workers"
            );
            assert_eq!(lab.work(), reference.work(), "{workers} workers");
        }
    }

    #[test]
    fn custom_machines_register_idempotently() {
        let mut lab = Lab::new(smoke_opts());
        let mut cfg = Machine::Clustered.config();
        cfg.copy_latency = 4;
        let a = lab.register_machine(cfg.clone());
        let b = lab.register_machine(cfg.clone());
        assert_eq!(a, b, "same config registers to the same machine");
        assert_eq!(a.key(), format!("custom{:016x}", cfg.config_hash()));
        // The registered machine simulates under its own key and its
        // stats differ from the preset it was derived from.
        let s = lab.stats("compress", a, SchemeKind::GeneralBalance);
        let preset = lab.stats("compress", Machine::Clustered, SchemeKind::GeneralBalance);
        assert!(s.committed > 0);
        assert_ne!(s.cycles, preset.cycles, "copy latency 4 changes timing");
    }
}
