//! The harness option grammar: [`RunOpts`] (scale, budget, sampling,
//! store and observability flags), its sampling half [`SampleOpts`] /
//! [`Warming`], and [`SERVER_SIDE_FLAGS`], the process-level flags a
//! serve daemon refuses on the wire.

use std::path::{Path, PathBuf};

use dca_workloads::Scale;

/// How a sampled interval's caches and branch predictor get warm
/// before measurement starts (DESIGN.md §9).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Warming {
    /// Detached functional warming: each interval replays `warmup`
    /// instructions through cold cache/predictor models before
    /// measuring (the original sampling mode). Bounded warmth — state older
    /// than the warmup window is lost.
    Detached,
    /// Continuous (SMARTS-style) warming: the fast-forward pass streams
    /// every retired instruction through live cache/predictor models
    /// and each checkpoint carries a `UarchSnapshot`; intervals
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
    /// When set, every [`crate::Lab`] run is simulated by checkpointed
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
            quiet: false,
            trace_out: None,
            metrics_out: None,
        }
    }
}

/// Flags of the [`RunOpts::parse`] grammar that configure the
/// *process* — persistence placement, observability sinks, verbosity
/// — rather than the simulation. A serve daemon refuses them on the
/// wire (they belong to whoever started the daemon), and both serve
/// fronts share this one table so the refusal list cannot drift from
/// the parser. Each entry is `(flag, takes_value)`.
pub const SERVER_SIDE_FLAGS: &[(&str, bool)] = &[
    ("--store-dir", true),
    ("--no-store", false),
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
    /// `--store-dir DIR`, `--no-store`, `--warm-steering`, `--verbose`,
    /// `-q`/`--quiet`, `--trace-out FILE`, `--metrics-out FILE`).
    /// Unrecognised arguments are returned for the caller.
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
    /// period), and one naming both flags when the sample interval
    /// exceeds the sample period.
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
        if let Some(s) = &opts.sampling {
            if s.interval > s.period {
                return Err(format!(
                    "--sample-interval ({}) exceeds --sample-period ({}): successive \
                     measured windows would overlap",
                    s.interval, s.period
                ));
            }
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

#[cfg(test)]
mod tests {
    use super::*;

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
            &["--sample-period", "1000"],
            &["--sample-interval", "2000001"],
            &["--target-stderr", "-1"],
            &["--warming", "tepid"],
            &["--store-dir"],
        ] {
            let err = RunOpts::parse(argv.iter().map(|s| s.to_string())).unwrap_err();
            assert!(err.contains(argv[0]), "{argv:?}: {err:?}");
        }
    }

    #[test]
    fn sample_flags_enable_sampling_at_any_scale() {
        let (o, _) = RunOpts::from_args(
            ["--sample-period", "8000", "--sample-interval", "4000"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(o.scale, Scale::Default);
        let s = o.sampling.expect("enabled");
        assert_eq!((s.period, s.interval), (8_000, 4_000));
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
}
