//! # dca-bench — the experiment harness
//!
//! Regenerates **every table and figure** of the paper's evaluation
//! (§3) as text artefacts: `dca figures [ID ...]` (or the `figures`
//! binary) regenerates the named figures, or all of them, and writes
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

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dca_obs::progress;
use dca_prog::{fast_forward_with, FastForward, Program};
use dca_sim::{ContinuousWarmer, MachineDesc, SimConfig, SimStats, Simulator, Steering};
use dca_uarch::UarchSnapshot;
use dca_store::{CheckpointKey, FileKind, IntervalRecord, LockAttempt, ResultKey, Store, StoreError};
use dca_steer::{
    FifoSteering, GeneralBalance, Modulo, Naive, NonSliceBalance, PrioritySliceBalance,
    SliceBalance, SliceKind, SliceSteering, StaticPartition,
};
use dca_workloads::{Scale, Workload};

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
    /// Returns the list of valid names on an unknown input.
    pub fn from_name(name: &str) -> Result<Machine, String> {
        if let Some(n) = name.strip_prefix("homo") {
            let n: u8 = n
                .parse()
                .map_err(|_| format!("bad cluster count in `{name}`"))?;
            return Ok(Machine::NClusters(n));
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
}

/// All scheme kinds, in presentation order.
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
        }
    }

    /// Instantiates the scheme (some need the program for offline
    /// analysis).
    pub fn instantiate(self, prog: &Program) -> Box<dyn Steering> {
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

/// How a sampled interval's caches and branch predictor get warm
/// before measurement starts (DESIGN.md §9).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Warming {
    /// Detached functional warming: each interval replays `warmup`
    /// instructions through cold cache/predictor models before
    /// measuring (the PR 2 behaviour). Bounded warmth — state older
    /// than the warmup window is lost.
    Detached,
    /// Continuous (SMARTS-style) warming: the fast-forward pass streams
    /// every retired instruction through live cache/predictor models
    /// and each checkpoint carries a [`UarchSnapshot`]; intervals
    /// restore it and execute **zero** detached-warming instructions.
    /// The paper-scale default.
    #[default]
    Continuous,
}

impl Warming {
    /// Stable machine-readable name (the `--warming` argument).
    pub fn name(self) -> &'static str {
        match self {
            Warming::Detached => "detached",
            Warming::Continuous => "continuous",
        }
    }

    /// Parses a warming-mode name (the inverse of [`Warming::name`]).
    ///
    /// # Errors
    ///
    /// Returns the list of valid names on an unknown input.
    pub fn from_name(name: &str) -> Result<Warming, String> {
        Ok(match name {
            "detached" => Warming::Detached,
            "continuous" => Warming::Continuous,
            other => return Err(format!("unknown warming mode `{other}` (detached|continuous)")),
        })
    }
}

/// Sampled-simulation parameters (DESIGN.md §7): the run's dynamic
/// window is fast-forwarded functionally, checkpointed every `period`
/// instructions, and each checkpoint seeds one measured interval —
/// warmed per [`Warming`], then `interval` instructions of detailed
/// simulation.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SampleOpts {
    /// Distance between interval starts, in dynamic instructions.
    pub period: u64,
    /// Functional-warming instructions before each measured interval.
    /// Warming may overlap the next period — it updates only caches
    /// and the predictor, never the merged statistics.
    pub warmup: u64,
    /// Detailed (measured) instructions per interval. Must not exceed
    /// `period`, or successive measured windows would overlap and the
    /// merged counters would multiply-count instructions.
    pub interval: u64,
    /// Confidence-driven early exit (DESIGN.md §8): a combination
    /// stops drawing intervals once the 95% confidence half-width
    /// (Student-t quantile × standard error) of its per-interval IPC
    /// mean falls to or below this value (in IPC). The decision is
    /// evaluated deterministically on checkpoint-ordered prefixes with
    /// at least 2 measured intervals; the t factor keeps a lucky
    /// 2-sample variance estimate from stopping a run prematurely.
    /// `None` runs the full checkpoint budget.
    pub target_stderr: Option<f64>,
    /// Interval warming scheme. With [`Warming::Continuous`] the
    /// `warmup` budget is irrelevant — intervals start from restored
    /// snapshots and execute zero detached-warming instructions.
    pub warming: Warming,
}

impl Default for SampleOpts {
    /// 100M instructions → up to 50 intervals of 100K detailed
    /// instructions each, continuous warming (each interval starts
    /// from the restored steady-state snapshot of its checkpoint;
    /// `warmup` applies only under `--warming detached`), adaptive
    /// early exit at 0.01 IPC standard error.
    fn default() -> SampleOpts {
        SampleOpts {
            period: 2_000_000,
            warmup: 100_000,
            interval: 100_000,
            target_stderr: Some(0.01),
            warming: Warming::Continuous,
        }
    }
}

/// Harness options (scale, instruction budget, sampling, store).
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Workload scale.
    pub scale: Scale,
    /// Instruction budget per run (the paper's "100M after skipping
    /// 100M" becomes "everything the workload executes, capped here").
    pub max_insts: u64,
    /// Print progress lines to stderr.
    pub verbose: bool,
    /// When set, every [`Lab`] run is simulated by checkpointed
    /// sampling instead of one straight detailed pass.
    pub sampling: Option<SampleOpts>,
    /// Directory of the persistent checkpoint/result store
    /// (`dca-store`; DESIGN.md §8). `None` disables persistence.
    /// Sampled CLI invocations default to `.dca-store` unless
    /// `--no-store` is given; the library default is off.
    pub store_dir: Option<PathBuf>,
    /// Warm steering decode-time state (slice tables) during the
    /// functional warming of every sampled interval
    /// (`--warm-steering`; ROADMAP "steering-state warm-up").
    pub warm_steering: bool,
    /// How long the Lab waits for another process's shard lock before
    /// degrading to storeless computation (`--lock-wait-secs`; `None`
    /// keeps the store default of 120 s). CI and tests set this low so
    /// a wedged peer cannot stall a run for minutes.
    pub lock_wait_secs: Option<u64>,
    /// Staleness threshold for the store's lock-takeover and
    /// orphaned-temp sweeps (`--stale-secs`; `None` keeps the shared
    /// default of [`dca_store::lock::DEFAULT_STALE_AFTER`], 600 s).
    /// One knob for both, so the two ages cannot drift apart.
    pub stale_secs: Option<u64>,
    /// Suppress progress lines (`-q`/`--quiet`); warnings still print.
    pub quiet: bool,
    /// Write this invocation's spans as Chrome trace-event JSON here
    /// (`--trace-out`). Enables span recording.
    pub trace_out: Option<PathBuf>,
    /// Write a Prometheus text exposition of the metrics registry here
    /// (`--metrics-out`).
    pub metrics_out: Option<PathBuf>,
}

impl Default for RunOpts {
    fn default() -> RunOpts {
        RunOpts {
            scale: Scale::Default,
            max_insts: 5_000_000,
            verbose: false,
            sampling: None,
            store_dir: None,
            warm_steering: false,
            lock_wait_secs: None,
            stale_secs: None,
            quiet: false,
            trace_out: None,
            metrics_out: None,
        }
    }
}

/// Flags of the [`RunOpts::parse`] grammar that configure the
/// *process* — persistence placement, lock patience, observability
/// sinks, verbosity — rather than the simulation. A serve daemon
/// refuses them on the wire (they belong to whoever started the
/// daemon), and both serve fronts share this one table so the
/// refusal list cannot drift from the parser. Each entry is
/// `(flag, takes_value)`.
pub const SERVER_SIDE_FLAGS: &[(&str, bool)] = &[
    ("--store-dir", true),
    ("--no-store", false),
    ("--lock-wait-secs", true),
    ("--stale-secs", true),
    ("--trace-out", true),
    ("--metrics-out", true),
    ("--verbose", false),
    ("--quiet", false),
    ("-q", false),
];

impl RunOpts {
    /// Parses harness options from command-line arguments
    /// (`--scale smoke|default|full|paper`, `--max-insts N`,
    /// `--sample-period N`, `--sample-warmup N`, `--sample-interval N`,
    /// `--target-stderr X`, `--warming detached|continuous`,
    /// `--store-dir DIR`, `--no-store`, `--lock-wait-secs N`,
    /// `--stale-secs N`,
    /// `--warm-steering`, `--verbose`, `-q`/`--quiet`,
    /// `--trace-out FILE`, `--metrics-out FILE`). Unrecognised
    /// arguments are returned for the caller.
    ///
    /// `--scale paper` selects [`Scale::Paper`], widens the default
    /// instruction budget to the paper's 100M window and turns on
    /// sampling with the [`SampleOpts`] defaults; the `--sample-*` and
    /// `--target-stderr` flags tune (or, at other scales, enable)
    /// sampling explicitly (`--target-stderr 0` disables the adaptive
    /// early exit). Sampled invocations use the persistent store at
    /// `.dca-store` unless `--store-dir` chooses another directory or
    /// `--no-store` disables it.
    ///
    /// # Errors
    ///
    /// A message naming the flag on a missing or malformed value
    /// (unknown scale, non-numeric instruction budget, zero sampling
    /// period).
    pub fn parse(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(RunOpts, Vec<String>), String> {
        fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
            args.next().ok_or_else(|| format!("{flag} needs a value"))
        }
        fn number<T: std::str::FromStr>(
            args: &mut impl Iterator<Item = String>,
            flag: &str,
        ) -> Result<T, String> {
            let v = value(args, flag)?;
            v.parse()
                .map_err(|_| format!("{flag} needs a number, got `{v}`"))
        }
        let mut opts = RunOpts::default();
        let mut rest = Vec::new();
        let mut args = args.into_iter();
        let mut explicit_max = false;
        let mut no_store = false;
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => {
                    opts.scale =
                        Scale::from_name(&value(&mut args, &a)?).map_err(|e| format!("{a}: {e}"))?;
                }
                "--max-insts" => {
                    opts.max_insts = number(&mut args, &a)?;
                    explicit_max = true;
                }
                "--sample-period" | "--sample-warmup" | "--sample-interval" => {
                    let v: u64 = number(&mut args, &a)?;
                    if v == 0 && a != "--sample-warmup" {
                        return Err(format!("{a} must be non-zero"));
                    }
                    let s = opts.sampling.get_or_insert_with(SampleOpts::default);
                    match a.as_str() {
                        "--sample-period" => s.period = v,
                        "--sample-warmup" => s.warmup = v,
                        _ => s.interval = v,
                    }
                }
                "--target-stderr" => {
                    let v: f64 = number(&mut args, &a)?;
                    if v.is_nan() || v < 0.0 {
                        return Err(format!("{a} must be non-negative (IPC; 0 disables)"));
                    }
                    let s = opts.sampling.get_or_insert_with(SampleOpts::default);
                    s.target_stderr = (v > 0.0).then_some(v);
                }
                "--warming" => {
                    let w = Warming::from_name(&value(&mut args, &a)?)
                        .map_err(|e| format!("{a}: {e}"))?;
                    opts.sampling.get_or_insert_with(SampleOpts::default).warming = w;
                }
                "--store-dir" => opts.store_dir = Some(PathBuf::from(value(&mut args, &a)?)),
                "--lock-wait-secs" => opts.lock_wait_secs = Some(number(&mut args, &a)?),
                "--stale-secs" => opts.stale_secs = Some(number(&mut args, &a)?),
                "--no-store" => no_store = true,
                "--warm-steering" => opts.warm_steering = true,
                "--verbose" => opts.verbose = true,
                "--quiet" | "-q" => opts.quiet = true,
                "--trace-out" => opts.trace_out = Some(PathBuf::from(value(&mut args, &a)?)),
                "--metrics-out" => opts.metrics_out = Some(PathBuf::from(value(&mut args, &a)?)),
                _ => rest.push(a),
            }
        }
        if opts.scale == Scale::Paper {
            if !explicit_max {
                opts.max_insts = Scale::PAPER_INSTS;
            }
            let _ = opts.sampling.get_or_insert_with(SampleOpts::default);
        }
        if no_store {
            opts.store_dir = None;
        } else if opts.store_dir.is_none() && opts.sampling.is_some() {
            opts.store_dir = Some(PathBuf::from(".dca-store"));
        }
        Ok((opts, rest))
    }

    /// [`RunOpts::parse`] for callers that treat a malformed value as
    /// a bug; kept with this signature for the standalone benchmark
    /// replay (`perfbench/replay`), which links it.
    ///
    /// # Panics
    ///
    /// Panics with [`RunOpts::parse`]'s message on a malformed value.
    pub fn from_args(args: impl Iterator<Item = String>) -> (RunOpts, Vec<String>) {
        Self::parse(args).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Applies the observability options process-wide: the progress
    /// sink's verbosity and span recording. CLI entry points call this
    /// once, before any work; library users who never call it keep the
    /// defaults (normal verbosity, tracing off).
    pub fn apply_observability(&self) {
        dca_obs::progress::set_verbosity(if self.quiet {
            dca_obs::Verbosity::Quiet
        } else if self.verbose {
            dca_obs::Verbosity::Verbose
        } else {
            dca_obs::Verbosity::Normal
        });
        if self.trace_out.is_some() {
            dca_obs::span::set_enabled(true);
        }
    }

    /// Writes the requested observability artefacts — the Chrome
    /// trace-event JSON (`--trace-out`) and the Prometheus metrics
    /// exposition (`--metrics-out`). Called once at the end of a CLI
    /// invocation; a no-op when neither flag was given. Strictly
    /// separate from `results/` report bytes.
    pub fn write_observability(&self) {
        fn write_artefact(path: &Path, what: &str, bytes: &str) {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                let _ = std::fs::create_dir_all(parent);
            }
            match std::fs::write(path, bytes) {
                Ok(()) => dca_obs::progress::info(format!("[lab] wrote {}", path.display())),
                Err(e) => {
                    dca_obs::progress::warn(format!(
                        "[lab] could not write {what} {}: {e}",
                        path.display()
                    ));
                }
            }
        }
        if let Some(path) = &self.trace_out {
            let events = dca_obs::span::drain();
            write_artefact(path, "trace", &dca_obs::span::chrome_trace(&events));
        }
        if let Some(path) = &self.metrics_out {
            write_artefact(path, "metrics", &dca_obs::metrics().snapshot().prometheus());
        }
    }
}

/// One simulation request: `(benchmark, machine, scheme)` — the unit
/// of work [`Lab::ensure`] distributes across worker threads.
pub type Run = (&'static str, Machine, SchemeKind);

/// Diagnostics of one sampled run (per `(benchmark, machine, scheme)`
/// combination): interval count, measured volume and the dispersion of
/// the per-interval IPCs.
#[derive(Clone, Debug, Default)]
pub struct SampleInfo {
    /// Measured intervals merged into the reported statistics.
    pub intervals: u64,
    /// Checkpoints available to this combination (the full interval
    /// budget; `intervals < budget` when the adaptive early exit
    /// stopped first or trailing intervals were empty).
    pub budget: u64,
    /// `true` when the confidence-driven early exit stopped the
    /// combination before its checkpoint budget was exhausted.
    pub early_stop: bool,
    /// Intervals of the merged prefix that were served from the
    /// persistent store instead of being simulated in this process.
    pub from_store: u64,
    /// Outcomes of the merged prefix (measured or empty) that started
    /// from a restored continuously-warmed [`UarchSnapshot`] — covers
    /// every merged interval (and pairs with `warmed_insts == 0`)
    /// under [`Warming::Continuous`], 0 under [`Warming::Detached`].
    pub restored_snapshots: u64,
    /// Detailed (measured) dynamic instructions across all intervals.
    pub detailed_insts: u64,
    /// Detailed cycles across all intervals.
    pub detailed_cycles: u64,
    /// Mean of the per-interval IPCs.
    pub ipc_mean: f64,
    /// Standard error of that mean (0 with fewer than two intervals).
    pub ipc_stderr: f64,
    /// Functional-warming instructions actually executed (can be less
    /// than `intervals × warmup` where the stream ended mid-warming).
    pub warmed_insts: u64,
    /// Wall-clock seconds spent functionally warming, summed over the
    /// workers that ran this combination's intervals (0 for
    /// store-served intervals).
    pub warm_secs: f64,
    /// Wall-clock seconds spent in detailed simulation, summed over
    /// workers (≈ the serial cost of the measured intervals; 0 for
    /// store-served intervals).
    pub detailed_secs: f64,
}

impl SampleInfo {
    /// The sampled-IPC estimate as `mean ± stderr` text.
    pub fn ipc_text(&self) -> String {
        format!("{:.3} ± {:.3}", self.ipc_mean, self.ipc_stderr)
    }
}

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

/// Intervals requested per combination per adaptive scheduling round.
/// Small enough that an early-stopping combination wastes at most a
/// chunk of intervals, large enough that a 50-interval budget needs
/// only a handful of rounds.
const INTERVAL_CHUNK: usize = 8;

/// One interval of a sampled run: its detailed statistics plus
/// bookkeeping. Store-served intervals carry zero wall-clock.
#[derive(Clone, Debug)]
struct IntervalOutcome {
    stats: SimStats,
    /// Detached functional-warming instructions actually executed
    /// (always 0 under continuous warming).
    warmed: u64,
    /// Whether the interval started from a restored [`UarchSnapshot`].
    restored: bool,
    warm_secs: f64,
    detailed_secs: f64,
    from_store: bool,
}

/// Standard error of the mean of `xs` (0 with fewer than two samples).
fn stderr_of(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (var / n).sqrt()
}

/// Two-sided 95% Student-t quantiles by degrees of freedom (index =
/// df − 1); beyond the table the normal quantile is close enough.
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// 95% confidence half-width of the mean of `xs`: Student-t quantile ×
/// standard error. The t factor is what keeps a lucky 2-sample
/// variance estimate from stopping a combination prematurely (t₁ ≈
/// 12.7); infinite below two samples.
fn confidence_half_width(xs: &[f64]) -> f64 {
    match xs.len() {
        0 | 1 => f64::INFINITY,
        n if n - 1 <= T95.len() => T95[n - 2] * stderr_of(xs),
        _ => 1.96 * stderr_of(xs),
    }
}

/// The deterministic early-exit rule of adaptive sampling (DESIGN.md
/// §8): the prefix used for a combination is the **shortest
/// checkpoint-ordered prefix** containing at least 2 measured
/// (non-empty) intervals whose 95% confidence half-width
/// ([`confidence_half_width`]) is ≤ `target`; without such a prefix,
/// the full budget.
///
/// Returns `Some(prefix_len)` once the decision is possible from the
/// available prefix — either the rule fired, or all `budget` intervals
/// are present — and `None` when more intervals are needed. Because
/// the rule scans prefixes from the front, its answer never changes
/// when *more* intervals become available beyond the stopping point:
/// the merged statistics are independent of worker completion order,
/// chunk sizes, and how many extra intervals a previous run left in
/// the store.
fn adaptive_prefix(
    outcomes: &[IntervalOutcome],
    budget: usize,
    target: Option<f64>,
) -> Option<usize> {
    if let Some(target) = target {
        let mut ipcs: Vec<f64> = Vec::new();
        for (i, o) in outcomes.iter().enumerate() {
            if o.stats.committed == 0 {
                continue;
            }
            ipcs.push(o.stats.ipc());
            if ipcs.len() >= 2 && confidence_half_width(&ipcs) <= target {
                return Some(i + 1);
            }
        }
    }
    (outcomes.len() >= budget).then_some(budget)
}

/// Merges the decided prefix `outcomes[..used]` into one `SimStats`
/// plus sampling diagnostics. Checkpoints whose stream ended before
/// the measured window opened contribute warming cost but no
/// statistics, exactly as in the non-adaptive harness.
fn merge_outcomes(outcomes: &[IntervalOutcome], used: usize, budget: u64) -> (SimStats, SampleInfo) {
    let mut merged = SimStats::default();
    let mut info = SampleInfo {
        budget,
        early_stop: (used as u64) < budget,
        ..SampleInfo::default()
    };
    let mut ipcs: Vec<f64> = Vec::new();
    for o in &outcomes[..used] {
        info.warmed_insts += o.warmed;
        info.warm_secs += o.warm_secs;
        if o.from_store {
            info.from_store += 1;
        }
        if o.restored {
            info.restored_snapshots += 1;
        }
        if o.stats.committed == 0 {
            continue;
        }
        ipcs.push(o.stats.ipc());
        merged.merge(&o.stats);
        info.intervals += 1;
        info.detailed_insts += o.stats.committed;
        info.detailed_cycles += o.stats.cycles;
        info.detailed_secs += o.detailed_secs;
    }
    let n = ipcs.len() as f64;
    if n > 0.0 {
        info.ipc_mean = ipcs.iter().sum::<f64>() / n;
    }
    info.ipc_stderr = stderr_of(&ipcs);
    (merged, info)
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
/// the **sample intervals** of all requested combinations are fanned
/// across the same worker pool, then merged per combination in
/// checkpoint order (deterministic). This is what makes
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
    /// between chunk-scheduling rounds, never mid-interval.
    cancel: Option<Arc<AtomicBool>>,
    /// Per-round progress callback ([`Lab::set_round_hook`]): invoked
    /// on the driving thread before each sampling round fans out.
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

/// A per-round progress callback (see [`Lab::set_round_hook`]).
pub type RoundHook = Box<dyn Fn(&RoundProgress) + Send>;

/// What [`Lab::ensure`] is about to do in one chunk-scheduling round,
/// handed to the hook installed with [`Lab::set_round_hook`] — the
/// attachment point for live progress streaming (`dca serve` forwards
/// these, plus the insts/sec gauges, to its subscribed clients).
#[derive(Clone, Copy, Debug)]
pub struct RoundProgress {
    /// Scheduling round number, starting at 1.
    pub round: u64,
    /// Intervals fanning out in this round.
    pub batch: u64,
    /// Worst-case intervals still to simulate after this round's batch
    /// was drawn (every undecided run exhausts its budget).
    pub remaining: u64,
    /// Live sampling throughput, milli-intervals per second (the
    /// `intervals_per_sec_milli` gauge; 0 until the first round lands).
    pub intervals_per_sec_milli: u64,
}

impl Lab {
    /// Creates a lab.
    pub fn new(opts: RunOpts) -> Lab {
        let store = opts.store_dir.as_ref().map(|dir| {
            let mut s = Store::open(dir);
            if let Some(secs) = opts.lock_wait_secs {
                s = s.with_lock_wait(Duration::from_secs(secs));
            }
            if let Some(secs) = opts.stale_secs {
                s = s.with_stale_after(Duration::from_secs(secs));
            }
            s
        });
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
    /// [`Lab::ensure`] checks the token between chunk-scheduling
    /// rounds — the natural preemption points of the sampled driver —
    /// and stops scheduling further work once it is set. Cancellation
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

    /// Installs a per-round progress hook (`None` clears it): called
    /// on the driving thread just before each sampling round fans out,
    /// with the round's [`RoundProgress`]. `dca serve` uses this to
    /// stream progress events to its clients.
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

    /// First-writer-wins shard acquisition against a shared store.
    ///
    /// Fast path: the shard is already published — return it. On a
    /// miss, race the other workers for the shard lock; the winner
    /// re-checks under the lock (a peer may have published while it
    /// waited), computes, saves and releases. Losers poll the shard
    /// with exponential backoff (10ms doubling, capped at 250ms) until
    /// the winner publishes or [`Store::lock_wait`] elapses.
    ///
    /// Degradation rule (ISSUE 6): a store that is unreadable, not
    /// lockable, or whose lock never frees must never fail the run —
    /// every such path computes in memory, skips the save, warns on
    /// stderr, and reports `from_store = false`.
    fn locked_fetch_or_compute<T>(
        store: &Store,
        name: &str,
        what: &str,
        load: impl Fn() -> Result<T, StoreError>,
        mut compute: impl FnMut() -> T,
        save: impl Fn(&T) -> Result<(), StoreError>,
    ) -> (T, bool) {
        // A stale or corrupt entry is *not* a reason to abandon the
        // store: fall through to the lock loop so the winner heals it
        // (recompute + save). Only an unusable store — lock directory
        // unreachable, or a lock that never frees — degrades.
        let m = dca_obs::metrics();
        match load() {
            Ok(v) => {
                m.store_hits_total.inc();
                return (v, true);
            }
            Err(e) if e.is_not_found() => m.store_misses_total.inc(),
            Err(e) => {
                m.store_misses_total.inc();
                progress::warn(format!("[lab] store: {what}: {e}; recomputing"));
            }
        }
        let wait_t0 = Instant::now();
        let deadline = wait_t0 + store.lock_wait();
        let mut backoff = Duration::from_millis(10);
        let waited_ns = || wait_t0.elapsed().as_nanos() as u64;
        loop {
            match store.try_lock(FileKind::Checkpoints, name) {
                LockAttempt::Acquired(_guard) => {
                    m.lock_elections_won_total.inc();
                    m.lock_wait_ns.record(waited_ns());
                    match load() {
                        Ok(v) => return (v, true),
                        Err(e) if e.is_not_found() => {}
                        Err(e) => {
                            progress::warn(format!("[lab] store: {what}: {e}; recomputing"));
                        }
                    }
                    let v = compute();
                    if let Err(e) = save(&v) {
                        progress::warn(format!("[lab] store: could not save {what}: {e}"));
                    }
                    return (v, false);
                }
                LockAttempt::Busy => {
                    // The holder is computing (or healing) this shard:
                    // poll for its publication, quietly treating
                    // not-yet-healed errors as misses.
                    if let Ok(v) = load() {
                        m.lock_elections_lost_total.inc();
                        m.lock_wait_ns.record(waited_ns());
                        return (v, true);
                    }
                    if Instant::now() >= deadline {
                        // The loser's degradation is part of the total-
                        // degradation invariant (a permanently held
                        // lock must never fail a run) — counted, so a
                        // fleet of serve workers wedging on one lock is
                        // visible in the metrics, not just in stderr.
                        m.lock_deadline_expired_total.inc();
                        m.lock_wait_ns.record(waited_ns());
                        progress::warn(format!(
                            "[lab] store: lock on {name} still held after {:?}; \
                             computing {what} without the store",
                            store.lock_wait()
                        ));
                        return (compute(), false);
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(250));
                }
                LockAttempt::Unavailable(e) => {
                    m.lock_wait_ns.record(waited_ns());
                    progress::warn(format!(
                        "[lab] store: lock unavailable ({e}); computing {what} without the store"
                    ));
                    return (compute(), false);
                }
            }
        }
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
    /// In sampled mode ([`RunOpts::sampling`]) the unit of parallel
    /// work is one *sample interval*, not one run; see
    /// [`Lab::ensure_sampled`].
    pub fn ensure(&mut self, runs: &[(&str, Machine, SchemeKind)]) {
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
            self.ensure_sampled(&todo, sampling);
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

    /// Sampled-mode batch driver: obtains each distinct benchmark's
    /// checkpoint stream — from the persistent store when one is
    /// configured and holds a current entry, otherwise by
    /// fast-forwarding once (and saving) — then schedules the sample
    /// intervals of every missing combination across the worker pool.
    ///
    /// With [`SampleOpts::target_stderr`] set, intervals are drawn in
    /// checkpoint-order **chunks** per combination and a combination
    /// stops as soon as the deterministic prefix rule
    /// ([`adaptive_prefix`]) fires — so a low-variance combination
    /// costs a handful of intervals, not the full budget. The rule is
    /// evaluated on checkpoint-ordered prefixes only, which makes the
    /// merged statistics (and every artefact rendered from them)
    /// independent of worker completion order and of whether intervals
    /// came from the store or from fresh simulation.
    fn ensure_sampled(&mut self, todo: &[Run], sampling: SampleOpts) {
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

        // Checkpoint streams for benchmarks not yet fast-forwarded:
        // consult the store first (a shorter window may be served from
        // the prefix of a longer stored stream — cross-scale reuse,
        // DESIGN.md §9), recompute (and save) on a miss. The pass
        // always streams through a [`ContinuousWarmer`], so every
        // stream carries per-checkpoint `UarchSnapshot`s whichever
        // warming mode this invocation uses — both modes then share
        // one stream file per benchmark. All machine presets share the
        // Table 2 front end, so one warmed stream serves them all.
        let mut missing: Vec<&'static str> = Vec::new();
        for &(bench, _, _) in todo {
            if !self.ffs.contains_key(bench) && !missing.contains(&bench) {
                missing.push(bench);
            }
        }
        if !missing.is_empty() {
            let _ff_span = dca_obs::span("lab", "lab.fast_forward_phase")
                .arg("benchmarks", missing.len());
            progress::detail(format!(
                "[lab] fast-forwarding {} benchmark(s) ({} insts, checkpoint every {})",
                missing.len(),
                max_insts,
                sampling.period
            ));
            let workloads = &self.workloads;
            let store = self.store.as_ref();
            let fps = &fingerprints;
            let passes = Self::fan_out(&missing, |&bench| {
                let w = &workloads[bench];
                let key = store.map(|_| CheckpointKey {
                    workload: bench,
                    scale,
                    period: sampling.period,
                    max_insts,
                    fingerprint: fps[bench],
                    uarch: warm_uarch,
                });
                let t0 = Instant::now();
                let compute = || {
                    let mut hook = ContinuousWarmer::new(&SimConfig::default());
                    fast_forward_with(
                        &w.program,
                        w.memory.clone(),
                        sampling.period,
                        max_insts,
                        &mut hook,
                    )
                };
                let (ff, from_store) = match (store, key.as_ref()) {
                    // Shared store: elect one computer per stream shard
                    // (first-writer-wins) so N concurrent labs on one
                    // `--store-dir` fast-forward each benchmark once.
                    (Some(store), Some(key)) => Self::locked_fetch_or_compute(
                        store,
                        &key.file_name(),
                        &format!("checkpoints for {bench}"),
                        || store.load_checkpoints_covering(key),
                        compute,
                        |ff| store.save_checkpoints(key, ff).map(|_| ()),
                    ),
                    _ => (compute(), false), // no store configured
                };
                (bench, ff, t0.elapsed().as_secs_f64(), from_store)
            });
            let (mut ff_executed, mut ff_secs) = (0u64, 0.0f64);
            for (bench, ff, secs, from_store) in passes {
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
        }

        // Per-run interval state, prefilled from the store. Outcomes
        // always form a contiguous checkpoint-order prefix.
        struct RunState {
            outcomes: Vec<IntervalOutcome>,
            /// Decided prefix length, once the rule fires.
            used: Option<usize>,
            /// Outcomes that came from the store (a prefix).
            prefilled: usize,
        }
        let budgets: Vec<usize> = todo
            .iter()
            .map(|&(bench, _, _)| self.ffs[bench].checkpoints.len())
            .collect();
        let mut states: Vec<RunState> = Vec::with_capacity(todo.len());
        for (i, &(bench, machine, scheme)) in todo.iter().enumerate() {
            let mut outcomes: Vec<IntervalOutcome> = Vec::new();
            if let Some(store) = &self.store {
                let scheme_key = scheme.key();
                let machine_key = machine.key();
                let key = ResultKey {
                    workload: bench,
                    scale,
                    machine: &machine_key,
                    geometry: cfgs[i].config_hash(),
                    scheme: &scheme_key,
                    period: sampling.period,
                    warmup: key_warmup,
                    interval: sampling.interval,
                    max_insts,
                    warm_steering,
                    continuous_warming: continuous,
                    fingerprint: fingerprints[bench],
                };
                match store.load_intervals(&key) {
                    Ok(records) => {
                        outcomes = records
                            .into_iter()
                            .take(budgets[i])
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
            let used = adaptive_prefix(&outcomes, budgets[i], sampling.target_stderr);
            states.push(RunState {
                prefilled: outcomes.len(),
                outcomes,
                used,
            });
        }

        // Chunked scheduling rounds: every undecided run contributes
        // its next chunk of checkpoint indices; all chunks of a round
        // fan out together. Without a stderr target a run's first
        // chunk is its whole budget (no adaptivity — one round).
        let mut round = 0u64;
        loop {
            // Round boundaries are the cancellation points: a set
            // token freezes every undecided run at its contiguous
            // prefix (possibly empty) so the merge below stays total.
            if self.cancelled() {
                for st in states.iter_mut() {
                    if st.used.is_none() {
                        st.used = Some(st.outcomes.len());
                    }
                }
                progress::warn("[lab] sampling cancelled; merging completed prefixes");
                break;
            }
            let mut batch: Vec<(usize, usize)> = Vec::new();
            for (i, st) in states.iter().enumerate() {
                if st.used.is_some() {
                    continue;
                }
                let have = st.outcomes.len();
                let until = if sampling.target_stderr.is_some() {
                    (have + INTERVAL_CHUNK).min(budgets[i])
                } else {
                    budgets[i]
                };
                batch.extend((have..until).map(|idx| (i, idx)));
            }
            if batch.is_empty() {
                break;
            }
            // Worst-case work remaining (every undecided run exhausts
            // its budget), for the ETA off the live intervals/sec rate.
            let remaining: u64 = states
                .iter()
                .zip(&budgets)
                .filter(|(st, _)| st.used.is_none())
                .map(|(st, &b)| (b - st.outcomes.len()) as u64)
                .sum();
            progress::detail(format!(
                "[lab] sampling round: {} intervals ({} worst-case, {})",
                batch.len(),
                remaining,
                progress::eta(
                    remaining,
                    dca_obs::metrics().intervals_per_sec_milli.get()
                )
            ));
            round += 1;
            if let Some(hook) = &self.round_hook {
                hook(&RoundProgress {
                    round,
                    batch: batch.len() as u64,
                    remaining,
                    intervals_per_sec_milli: dca_obs::metrics().intervals_per_sec_milli.get(),
                });
            }
            let round_t0 = Instant::now();
            let workloads = &self.workloads;
            let ffs = &self.ffs;
            let tally = &self.tally;
            let results = Self::fan_out(&batch, |&(i, idx)| {
                let (bench, machine, scheme) = todo[i];
                let _span = dca_obs::span("lab", "lab.interval")
                    .arg("bench", bench)
                    .arg("checkpoint", idx);
                let w = &workloads[bench];
                let ckpt = &ffs[bench].checkpoints[idx];
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
                (
                    (i, idx),
                    IntervalOutcome {
                        stats,
                        warmed,
                        restored: warming == Warming::Continuous,
                        warm_secs,
                        detailed_secs,
                        from_store: false,
                    },
                )
            });
            // Live sampling throughput for the next round's ETA line.
            let round_secs = round_t0.elapsed().as_secs_f64();
            if round_secs > 0.0 {
                dca_obs::metrics()
                    .intervals_per_sec_milli
                    .set((batch.len() as f64 * 1000.0 / round_secs) as u64);
            }
            // Deterministic append: checkpoint order per run, whatever
            // order the workers finished in.
            let ordered: BTreeMap<(usize, usize), IntervalOutcome> =
                results.into_iter().collect();
            for ((i, idx), outcome) in ordered {
                debug_assert_eq!(states[i].outcomes.len(), idx, "contiguous prefix");
                states[i].outcomes.push(outcome);
            }
            for (i, st) in states.iter_mut().enumerate() {
                if st.used.is_none() {
                    st.used = adaptive_prefix(&st.outcomes, budgets[i], sampling.target_stderr);
                }
            }
        }

        // Merge each run's decided prefix, persist newly computed
        // intervals, and fill the caches.
        let (mut all_det_insts, mut all_det_secs) = (0u64, 0.0f64);
        for (i, &(bench, machine, scheme)) in todo.iter().enumerate() {
            let st = &states[i];
            let used = st.used.expect("scheduling loop decides every run");
            let (merged, info) = merge_outcomes(&st.outcomes, used, budgets[i] as u64);
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
                if st.outcomes.len() > st.prefilled {
                    let scheme_key = scheme.key();
                    let machine_key = machine.key();
                    let key = ResultKey {
                        workload: bench,
                        scale,
                        machine: &machine_key,
                        geometry: cfgs[i].config_hash(),
                        scheme: &scheme_key,
                        period: sampling.period,
                        warmup: key_warmup,
                        interval: sampling.interval,
                        max_insts,
                        warm_steering,
                        continuous_warming: continuous,
                        fingerprint: fingerprints[bench],
                    };
                    let records: Vec<IntervalRecord> = st
                        .outcomes
                        .iter()
                        .map(|o| IntervalRecord {
                            stats: o.stats.clone(),
                            warmed_insts: o.warmed,
                        })
                        .collect();
                    // One lock attempt, no retry: interval shards are an
                    // optimisation, and a peer holding the lock is
                    // writing its own (equal or longer) prefix anyway.
                    // Under the lock, never shrink a longer stored
                    // prefix — concurrent labs may decide different
                    // adaptive budgets for the same combination.
                    match store.try_lock(FileKind::Results, &key.file_name()) {
                        LockAttempt::Acquired(_guard) => {
                            let existing = match store.load_intervals(&key) {
                                Ok(stored) => stored.len(),
                                Err(_) => 0,
                            };
                            if existing < records.len() {
                                if let Err(e) = store.save_intervals(&key, &records) {
                                    progress::warn(format!(
                                        "[lab] store: could not save intervals: {e}"
                                    ));
                                }
                            }
                        }
                        LockAttempt::Busy => {} // a peer is writing this shard
                        LockAttempt::Unavailable(e) => {
                            progress::warn(format!(
                                "[lab] store: could not save intervals: {e}"
                            ));
                        }
                    }
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
        let workers = claim_workers(desired);
        dca_obs::metrics().lab_workers.set(workers as u64);
        if workers <= 1 {
            let _span = dca_obs::span("lab", "lab.worker").arg("items", items.len());
            let out = items.iter().map(f).collect();
            release_workers(workers);
            return out;
        }
        let next = AtomicUsize::new(0);
        let out = std::thread::scope(|s| {
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
        });
        release_workers(workers);
        out
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

fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
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

/// Claims between 1 and `desired` workers from the budget.
fn claim_workers(desired: usize) -> usize {
    let b = worker_budget();
    let mut avail = b.load(Ordering::Relaxed);
    loop {
        let take = avail.min(desired as i64).max(1);
        match b.compare_exchange_weak(avail, avail - take, Ordering::SeqCst, Ordering::Relaxed) {
            Ok(_) => return take as usize,
            Err(cur) => avail = cur,
        }
    }
}

fn release_workers(n: usize) {
    worker_budget().fetch_add(n as i64, Ordering::SeqCst);
}

/// Shared `main` for the `figures` binary: [`run_cli_with`] over the
/// process arguments; on a malformed option or unknown figure id it
/// prints `error: …` and exits with status 1.
pub fn run_cli() {
    if let Err(e) = run_cli_with(std::env::args().skip(1)) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Parses common options, regenerates the requested artefacts (no id:
/// everything), prints them and saves them under `results/`. Callers
/// that already consumed part of the command line (the `dca figures`
/// subcommand) pass the remainder.
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

    #[test]
    fn opts_parse() {
        let (o, rest) = RunOpts::from_args(
            ["--scale", "smoke", "fig03", "--max-insts", "1234", "--verbose"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(o.scale, Scale::Smoke);
        assert_eq!(o.max_insts, 1234);
        assert!(o.verbose);
        assert!(o.sampling.is_none());
        assert_eq!(rest, vec!["fig03"]);
    }

    #[test]
    fn paper_scale_enables_sampling_with_the_paper_window() {
        let (o, rest) =
            RunOpts::from_args(["--scale", "paper"].iter().map(|s| s.to_string()));
        assert_eq!(o.scale, Scale::Paper);
        assert_eq!(o.max_insts, Scale::PAPER_INSTS);
        assert_eq!(o.sampling, Some(SampleOpts::default()));
        assert!(rest.is_empty());

        let (o, _) = RunOpts::from_args(
            ["--scale", "paper", "--max-insts", "500000", "--sample-period", "50000",
             "--sample-warmup", "0", "--sample-interval", "10000"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(o.max_insts, 500_000, "explicit budget wins");
        assert_eq!(
            o.sampling,
            Some(SampleOpts {
                period: 50_000,
                warmup: 0,
                interval: 10_000,
                target_stderr: Some(0.01),
                warming: Warming::Continuous,
            })
        );
    }

    /// A malformed value is an error naming its flag — never a panic
    /// (the serve front maps it to a 400, the CLI to exit 1).
    #[test]
    fn malformed_values_are_errors_naming_the_flag() {
        for argv in [
            &["--scale", "huge"][..],
            &["--max-insts", "lots"],
            &["--sample-period", "0"],
            &["--sample-interval", "0"],
            &["--target-stderr", "-1"],
            &["--warming", "tepid"],
            &["--stale-secs", "soon"],
            &["--store-dir"],
        ] {
            let err = RunOpts::parse(argv.iter().map(|s| s.to_string())).unwrap_err();
            assert!(err.contains(argv[0]), "{argv:?}: {err:?}");
        }
    }

    #[test]
    fn sample_flags_enable_sampling_at_any_scale() {
        let (o, _) = RunOpts::from_args(
            ["--sample-period", "8000"].iter().map(|s| s.to_string()),
        );
        assert_eq!(o.scale, Scale::Default);
        assert_eq!(o.sampling.expect("enabled").period, 8_000);
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

    /// The serve refusal table cannot drift from the parser: every
    /// flag listed as server-side is actually a flag `parse`
    /// consumes (with a value exactly when the table says so).
    #[test]
    fn server_side_flags_match_the_parser() {
        for &(flag, takes_value) in SERVER_SIDE_FLAGS {
            let mut argv = vec![flag.to_string()];
            if takes_value {
                argv.push("1".to_string());
            }
            let (_, rest) = RunOpts::parse(argv).unwrap();
            assert!(
                rest.is_empty(),
                "`{flag}` is listed in SERVER_SIDE_FLAGS but the parser left {rest:?}"
            );
        }
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
        let got = claim_workers(4);
        assert!((1..=4).contains(&got));
        release_workers(got);
        let one = claim_workers(1);
        assert_eq!(one, 1);
        release_workers(one);
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

    #[test]
    fn opts_parse_store_and_adaptive_flags() {
        // --target-stderr enables sampling, and a sampled CLI run gets
        // the default store directory.
        let (o, _) = RunOpts::from_args(
            ["--target-stderr", "0.05"].iter().map(|s| s.to_string()),
        );
        assert_eq!(o.sampling.expect("enabled").target_stderr, Some(0.05));
        assert_eq!(o.store_dir.as_deref(), Some(std::path::Path::new(".dca-store")));

        // 0 disables the early exit; explicit dir and warm-steering.
        let (o, _) = RunOpts::from_args(
            ["--scale", "paper", "--target-stderr", "0", "--store-dir", "/tmp/s", "--warm-steering"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(o.sampling.expect("enabled").target_stderr, None);
        assert_eq!(o.store_dir.as_deref(), Some(std::path::Path::new("/tmp/s")));
        assert!(o.warm_steering);

        // --no-store wins over the sampled default.
        let (o, _) = RunOpts::from_args(
            ["--scale", "paper", "--no-store"].iter().map(|s| s.to_string()),
        );
        assert!(o.store_dir.is_none());

        // Unsampled runs never get a store by default.
        let (o, _) = RunOpts::from_args(std::iter::empty());
        assert!(o.store_dir.is_none());
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

    fn synthetic_outcome(committed: u64, cycles: u64) -> IntervalOutcome {
        IntervalOutcome {
            stats: SimStats {
                committed,
                cycles,
                ..SimStats::default()
            },
            warmed: 0,
            restored: false,
            warm_secs: 0.0,
            detailed_secs: 0.0,
            from_store: false,
        }
    }

    /// ISSUE 3 determinism: once the prefix rule can decide, its answer
    /// never changes when more intervals become available — which is
    /// exactly why figures are identical whether workers finish in
    /// forward, reverse or shuffled order, and whatever overshoot a
    /// previous run left in the store.
    #[test]
    fn adaptive_prefix_decision_is_stable_under_longer_prefixes() {
        // IPCs: 1.0, 1.0, then noise — the rule fires at n = 2.
        let outcomes: Vec<IntervalOutcome> = [1.0f64, 1.0, 1.4, 0.6, 1.2, 0.8, 1.1, 0.9]
            .iter()
            .map(|ipc| synthetic_outcome((ipc * 1000.0) as u64, 1000))
            .collect();
        let budget = outcomes.len();
        let target = Some(0.01);
        assert_eq!(adaptive_prefix(&outcomes[..0], budget, target), None);
        assert_eq!(adaptive_prefix(&outcomes[..1], budget, target), None);
        for have in 2..=budget {
            assert_eq!(
                adaptive_prefix(&outcomes[..have], budget, target),
                Some(2),
                "decision must not drift with {have} intervals available"
            );
        }
        // Merges over any availability ≥ the decision are identical.
        let (m2, i2) = merge_outcomes(&outcomes[..2], 2, budget as u64);
        let (m8, i8) = merge_outcomes(&outcomes, 2, budget as u64);
        assert_eq!(m2.committed, m8.committed);
        assert_eq!(m2.cycles, m8.cycles);
        assert_eq!(i2.intervals, i8.intervals);
        assert!(i2.early_stop);

        // High variance: no early stop, full budget once available.
        let noisy: Vec<IntervalOutcome> = [2.0f64, 0.5, 3.0, 0.2, 2.5, 0.4]
            .iter()
            .map(|ipc| synthetic_outcome((ipc * 1000.0) as u64, 1000))
            .collect();
        assert_eq!(adaptive_prefix(&noisy[..4], noisy.len(), target), None);
        assert_eq!(adaptive_prefix(&noisy, noisy.len(), target), Some(noisy.len()));
        // Without a target the rule always wants the full budget.
        assert_eq!(adaptive_prefix(&noisy[..4], noisy.len(), None), None);
        assert_eq!(adaptive_prefix(&noisy, noisy.len(), None), Some(noisy.len()));
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

    #[test]
    fn lock_wait_secs_flag_reaches_the_store() {
        let dir = std::env::temp_dir().join("dca-bench-lockwait");
        let argv = ["--lock-wait-secs", "3", "--store-dir"]
            .iter()
            .map(ToString::to_string)
            .chain(std::iter::once(dir.display().to_string()));
        let (opts, rest) = RunOpts::from_args(argv);
        assert!(rest.is_empty());
        assert_eq!(opts.lock_wait_secs, Some(3));
        let lab = Lab::new(opts);
        assert_eq!(
            lab.store.as_ref().expect("store configured").lock_wait(),
            Duration::from_secs(3),
            "--lock-wait-secs overrides the store's lock patience"
        );
        // Without the flag the store keeps its default.
        let lab = Lab::new(RunOpts {
            store_dir: Some(dir.clone()),
            ..RunOpts::default()
        });
        assert_eq!(
            lab.store.as_ref().expect("store configured").lock_wait(),
            Duration::from_secs(120)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_secs_flag_reaches_the_store() {
        let dir = std::env::temp_dir().join("dca-bench-stalesecs");
        let argv = ["--stale-secs", "7", "--store-dir"]
            .iter()
            .map(ToString::to_string)
            .chain(std::iter::once(dir.display().to_string()));
        let (opts, rest) = RunOpts::from_args(argv);
        assert!(rest.is_empty());
        assert_eq!(opts.stale_secs, Some(7));
        let lab = Lab::new(opts);
        assert_eq!(
            lab.store.as_ref().expect("store configured").stale_after(),
            Duration::from_secs(7),
            "--stale-secs overrides the shared lock/temp staleness threshold"
        );
        // Without the flag both thresholds keep the one shared default.
        let lab = Lab::new(RunOpts {
            store_dir: Some(dir.clone()),
            ..RunOpts::default()
        });
        assert_eq!(
            lab.store.as_ref().expect("store configured").stale_after(),
            dca_store::lock::DEFAULT_STALE_AFTER
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// ISSUE 9 regression: a permanently held shard lock (live owner
    /// that never publishes) must expire the lock-wait deadline into
    /// in-memory compute with `from_store = false` and a counted
    /// metric — never an error, never a hung run. The contending lab
    /// runs through a `FaultIo` store (armed, non-firing plan) so the
    /// degradation path is exercised under the injection layer used by
    /// the crash sweeps.
    #[test]
    fn permanently_held_lock_degrades_with_a_counted_metric() {
        use dca_store::io::{FaultIo, FaultKind, FaultPlan};
        let (opts, dir) = store_opts("held-lock");
        let run = ("compress", Machine::Clustered, SchemeKind::Modulo);

        // The wedged peer: holds the checkpoint-shard lock this lab
        // will want, from a live pid (ours), and never releases it.
        let key = CheckpointKey {
            workload: run.0,
            scale: opts.scale.name(),
            period: opts.sampling.unwrap().period,
            max_insts: opts.max_insts,
            fingerprint: dca_workloads::build(run.0, opts.scale).fingerprint(),
            uarch: SimConfig::default().uarch_hash(),
        };
        let holder = Store::open(&dir);
        let _guard = match holder.try_lock(FileKind::Checkpoints, &key.file_name()) {
            LockAttempt::Acquired(g) => g,
            other => panic!("could not stage the held lock: {other:?}"),
        };

        let m = dca_obs::metrics();
        let expired_before = m.lock_deadline_expired_total.get();
        let io = std::sync::Arc::new(FaultIo::new(FaultPlan::fail_at(u64::MAX, FaultKind::Fail)));
        let store = Store::open_with_io(&dir, io).with_lock_wait(Duration::from_millis(300));
        let mut lab = Lab::with_store(opts, store);
        let s = lab.stats(run.0, run.1, run.2);
        assert!(
            !lab.fast_forward_info(run.0).expect("ran").from_store,
            "deadline loser reports from_store = false"
        );
        assert!(
            m.lock_deadline_expired_total.get() > expired_before,
            "the expiry is counted, not just logged"
        );
        let reference = Lab::new(sampled_opts()).stats(run.0, run.1, run.2);
        assert_eq!(s.cycles, reference.cycles, "degraded run is still correct");
        assert_eq!(s.committed, reference.committed);
        // The loser computed without the lock, so it must not have
        // published the checkpoint shard behind the holder's back.
        assert!(
            !dir.join("ck").join(key.file_name()).exists(),
            "no shard written without holding its lock"
        );
        drop(_guard);
        std::fs::remove_dir_all(&dir).ok();
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
