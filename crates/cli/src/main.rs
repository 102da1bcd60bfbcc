//! `dca` — command-line driver for the clustered-superscalar simulator.
//!
//! ```text
//! dca run --bench li --scheme general              # simulate a benchmark
//! dca run --asm kernel.s --scheme modulo --trace 40
//! dca compare --bench all                          # scheme × benchmark speedups
//! dca slices --bench compress                      # static slice report
//! dca list                                         # benchmarks and schemes
//! dca figures fig14                                # regenerate paper artefacts
//! ```
//!
//! The binary is a thin shell over the library crates: every number it
//! prints is reproducible through the public API (see the crate-level
//! docs of `dca-sim` and `dca-bench`).

mod report;

use std::process::ExitCode;

use dca_bench::{Lab, Machine, RunOpts, SchemeKind, ALL_SCHEMES};
use dca_prog::{parse_asm, Memory, Program};
use dca_sim::Simulator;
use dca_stats::Table;

fn usage() -> &'static str {
    "dca — dynamic cluster assignment simulator (HPCA 2000 reproduction)

USAGE:
    dca run     [--bench NAME | --kernel NAME | --asm FILE] [--scheme NAME]
                [--machine NAME] [--geometry SPEC]
                [--scale smoke|default|full|paper] [--max-insts N]
                [--trace N] [--pipe FROM:TO]
    dca compare [--bench NAME|all] [--schemes a,b,...] [--scale ...]
    dca slices  [--bench NAME | --kernel NAME | --asm FILE]
    dca list
    dca figures [ID ...]          (no ID: regenerate everything)
    dca store   stat|verify|gc [--store-dir DIR]
    dca serve   [--listen ADDR] [--http-addr ADDR] [--jobs K]
                [--store-dir DIR | --no-store]
    dca client  [--addr ADDR] (--figure ID [-- OPTS...] |
                --ping | --stats | --shutdown) [--out FILE] [--json]
                [--json-out FILE]

Observability (run, figures, store): --verbose prints per-step detail,
-q/--quiet suppresses progress (warnings still print),
--trace-out FILE records hierarchical spans as Chrome trace-event JSON
(load in Perfetto), --metrics-out FILE writes a Prometheus text
exposition of the session counters. `dca run` and `dca figures` also
stamp results/run_manifest.json with versions, fingerprints, budgets
and per-phase wall-clock. None of this touches report bytes.

`--scale paper` runs the paper's 100M-instruction window per benchmark
via checkpointed sampled simulation (compare/figures only; tune with
--sample-period N, --sample-warmup N, --sample-interval N — the flags
also enable sampling at other scales). Intervals stop early once the
IPC standard error reaches --target-stderr X (default 0.01; 0 runs the
full budget). --warming continuous (the default) starts every interval
from the restored cache/predictor snapshot its checkpoint carries
(SMARTS-style continuous warming, zero detached-warming instructions);
--warming detached replays --sample-warmup instructions into cold
structures instead, and --warm-steering then additionally rebuilds
steering slice tables during that replay. `figures sampling`
regenerates the sampling methodology report.

Sampled runs persist checkpoint streams and per-interval results in a
store directory (default .dca-store; --store-dir DIR overrides,
--no-store disables), so repeated invocations skip the fast-forward
and finished intervals. Shards carry per-shard checksums, writes are
temp+atomic-rename, and concurrent processes coordinate through
advisory shard locks, so several runs may share one --store-dir: one
of them fast-forwards each benchmark while the others wait for its
stream (for up to 2 minutes, then they compute without the store).
The store is a recomputable cache: `dca store stat` summarises the
directory, `verify` checksums every file and names the first damaged
record (read-only; exit 0 clean, 1 corrupt/stale, 2 I/O error), and
`gc` — the only verb that writes — deletes corrupt or stale-version
files, including any an older store format left in the root
(skipping shards a live writer holds locked), orphaned temp files
and dead-owner locks.

`dca serve` runs the harness as a daemon speaking HTTP/1.1 (POST
/v1/figures, job polling, chunked progress streams, Prometheus
/v1/metrics) on --listen ADDR, a Unix socket path (default
.dca-serve.sock) or host:port, and additionally on the TCP address
--http-addr ADDR. Identical in-flight requests are deduplicated onto
one computation across listeners, scheduling is round-robin across
clients, progress streams per queued chunk of intervals, and results in
the store are served warm with zero recompute. --jobs K runs up to K
jobs concurrently on one shared worker budget, keeping per-job
accounting exact. `dca client --addr ADDR` talks to either kind of
address; `--figure ID -- --scale paper ...` forwards everything after
`--` as harness options, --json prints the serving summary as JSON on
stdout; --ping, --stats and --shutdown probe and manage the daemon.

Machines: base | clustered | one-bus | ub | homo<N> (N in 2..=8) | hetero4
`--geometry SPEC` builds an arbitrary machine on the --machine preset's
caches, predictor and front end: a preset geometry
(homo2|homo4|homo8|hetero4) or comma-separated cluster specs
`i<issue>q<iq>r<regs>[a<alus>][m][f]` (a = simple integer ALUs, default
3; m = an integer mul/div unit; f = FP units), with an optional `@line`
suffix for a line topology, e.g.
`--geometry i4q64r96a3mf,i2q32r48a2,i2q32r48a2@line`. The base preset
has no inter-cluster bypasses, so it takes only geometries whose
integer code all runs in cluster 0; ub, one unified cluster, takes
none.
Run `dca list` for benchmark and scheme names."
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "run" => cmd_run(args),
        "compare" => cmd_compare(args),
        "slices" => cmd_slices(args),
        "list" => cmd_list(),
        // `store` owns its exit code (verify: 0 clean, 1 corrupt,
        // 2 I/O error) rather than the shared ok/fail mapping.
        "store" => {
            return match cmd_store(args) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "serve" => dca_serve::cmd_serve(args),
        "client" => dca_serve::cmd_client(args),
        // Every table and figure of the paper, written to results/.
        "figures" => dca_bench::run_cli_with(args.into_iter()),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A `--flag value` puller over the argument list.
struct Flags(Vec<String>);

impl Flags {
    fn take(&mut self, flag: &str) -> Option<String> {
        let i = self.0.iter().position(|a| a == flag)?;
        if i + 1 >= self.0.len() {
            // Treated as a parse error by callers needing a value.
            self.0.remove(i);
            return Some(String::new());
        }
        self.0.remove(i);
        Some(self.0.remove(i))
    }

    fn finish(self, context: &str) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(format!("unrecognised arguments for {context}: {:?}", self.0))
        }
    }
}

/// The program under test: a built-in benchmark, a micro-kernel, or an
/// assembled file.
fn load_program(
    bench: Option<&str>,
    kernel: Option<&str>,
    asm: Option<&str>,
    scale: dca_workloads::Scale,
) -> Result<(String, Program, Memory, Option<u64>), String> {
    if [bench.is_some(), kernel.is_some(), asm.is_some()]
        .iter()
        .filter(|&&x| x)
        .count()
        > 1
    {
        return Err("--bench, --kernel and --asm are mutually exclusive".into());
    }
    match (bench, kernel, asm) {
        (Some(b), None, None) => {
            if !dca_workloads::NAMES.contains(&b) {
                return Err(format!(
                    "unknown benchmark `{b}` (valid: {})",
                    dca_workloads::NAMES.join(", ")
                ));
            }
            let w = dca_bench::build_workload(b, scale);
            let fp = w.fingerprint();
            Ok((b.to_string(), w.program, w.memory, Some(fp)))
        }
        (None, Some(k), None) => {
            let w = dca_workloads::kernels::by_name(k).ok_or_else(|| {
                format!(
                    "unknown kernel `{k}` (valid: {})",
                    dca_workloads::kernels::NAMES.join(", ")
                )
            })?;
            let fp = w.fingerprint();
            Ok((k.to_string(), w.program, w.memory, Some(fp)))
        }
        (None, None, Some(path)) => {
            let src = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let prog = parse_asm(&src).map_err(|e| format!("{path}: {e}"))?;
            Ok((path.to_string(), prog, Memory::new(), None))
        }
        _ => Err("need --bench NAME, --kernel NAME or --asm FILE (try `dca list`)".into()),
    }
}

/// Parses a `--pipe FROM:TO` cycle window.
fn parse_pipe(win: &str) -> Result<(u64, u64), String> {
    let (from, to) = win
        .split_once(':')
        .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)))
        .ok_or("--pipe expects FROM:TO cycle numbers")?;
    if from > to {
        return Err(format!("--pipe {win}: window is reversed (FROM exceeds TO)"));
    }
    Ok((from, to))
}

fn parse_opts(args: Vec<String>) -> Result<(RunOpts, Flags), String> {
    let (opts, rest) = RunOpts::parse(args)?;
    opts.apply_observability();
    Ok((opts, Flags(rest)))
}

fn cmd_run(args: Vec<String>) -> Result<(), String> {
    let (opts, mut flags) = parse_opts(args)?;
    let bench = flags.take("--bench");
    let kernel = flags.take("--kernel");
    let asm = flags.take("--asm");
    let scheme = SchemeKind::from_name(&flags.take("--scheme").unwrap_or_else(|| "general".into()))?;
    let machine = Machine::from_name(&flags.take("--machine").unwrap_or_else(|| "clustered".into()))?;
    let geometry = flags.take("--geometry");
    let trace_cap: usize = match flags.take("--trace") {
        Some(v) => v.parse().map_err(|_| "--trace needs a number")?,
        None => 0,
    };
    let pipe = flags.take("--pipe").map(|w| parse_pipe(&w)).transpose()?;
    flags.finish("run")?;

    // The header and manifest name what was simulated: the preset, or
    // the geometry built on it (whose substrates — caches, predictor,
    // front end — come from the preset).
    let (cfg, header_machine, manifest_machine) = match geometry {
        Some(spec) => {
            let cfg = dca_sim::MachineDesc::parse(&spec)
                .and_then(|desc| desc.apply(&machine.config()))
                .map_err(|e| format!("--geometry {spec}: {e}"))?;
            (cfg, spec.clone(), spec)
        }
        None => (machine.config(), format!("{machine:?}"), machine.key()),
    };
    let (name, prog, mem, fingerprint) =
        load_program(bench.as_deref(), kernel.as_deref(), asm.as_deref(), opts.scale)?;
    let mut steering = scheme.instantiate(&prog);
    let mut sim = Simulator::new(&cfg, &prog, mem);
    if trace_cap > 0 {
        sim.enable_trace(trace_cap);
    }
    let t0 = std::time::Instant::now();
    let stats = sim.run_mut(steering.as_mut(), opts.max_insts);
    let sim_secs = t0.elapsed().as_secs_f64();
    println!(
        "{}",
        report::run_report(&name, &header_machine, scheme.label(), &stats)
    );
    if let Some(trace) = sim.take_trace() {
        println!("{}", trace.render_table());
        if let Some((from, to)) = pipe {
            println!("{}", trace.render_pipe(from, to));
        }
    } else if pipe.is_some() {
        return Err("--pipe needs --trace N".into());
    }
    save_run_manifest(&opts, &name, &manifest_machine, scheme, fingerprint, sim_secs);
    opts.write_observability();
    Ok(())
}

/// Stamps `results/run_manifest.json` for a `dca run` invocation:
/// engine versions, program identity, budgets and wall-clock, plus the
/// final metrics snapshot (DESIGN.md §12). Best-effort — a run on a
/// read-only filesystem still prints its report.
fn save_run_manifest(
    opts: &RunOpts,
    program: &str,
    machine: &str,
    scheme: SchemeKind,
    fingerprint: Option<u64>,
    sim_secs: f64,
) {
    use dca_obs::json::Json;
    let mut m = dca_obs::manifest::Manifest::new("run");
    m.set_u64("interp_version", u64::from(dca_prog::INTERP_VERSION))
        .set_u64("timing_version", u64::from(dca_sim::TIMING_VERSION))
        .set_u64(
            "format_version",
            u64::from(dca_store::file::FORMAT_VERSION),
        )
        .set_str("program", program)
        .set_str("machine", machine)
        .set_str("scheme", scheme.name())
        .set_str("scale", opts.scale.name())
        .set_u64("max_insts", opts.max_insts);
    m.set(
        "workload_fingerprint",
        match fingerprint {
            Some(fp) => Json::Str(format!("{fp:#018x}")),
            None => Json::Null,
        },
    );
    m.phase_secs("detailed", sim_secs);
    m.set_metrics(&dca_obs::metrics().snapshot());
    let path = std::path::Path::new("results").join("run_manifest.json");
    match m.save(&path) {
        Ok(()) => dca_obs::progress::detail(format!("[dca] wrote {}", path.display())),
        Err(e) => dca_obs::progress::detail(format!(
            "[dca] could not write manifest {}: {e}",
            path.display()
        )),
    }
}

fn cmd_compare(args: Vec<String>) -> Result<(), String> {
    let (opts, mut flags) = parse_opts(args)?;
    let bench = flags.take("--bench").unwrap_or_else(|| "all".into());
    let schemes: Vec<SchemeKind> = match flags.take("--schemes") {
        Some(list) => list
            .split(',')
            .map(SchemeKind::from_name)
            .collect::<Result<_, _>>()?,
        None => ALL_SCHEMES
            .into_iter()
            .filter(|s| *s != SchemeKind::Naive)
            .collect(),
    };
    flags.finish("compare")?;

    let benches: Vec<&str> = if bench == "all" {
        dca_workloads::NAMES.to_vec()
    } else if dca_workloads::NAMES.contains(&bench.as_str()) {
        // The Lab keys workloads by their static name.
        vec![dca_workloads::NAMES
            .iter()
            .find(|n| **n == bench)
            .copied()
            .expect("checked")]
    } else {
        return Err(format!(
            "unknown benchmark `{bench}` (valid: all, {})",
            dca_workloads::NAMES.join(", ")
        ));
    };

    // The whole run-set in one batch — every base run next to every
    // scheme run — so the Lab spreads all of it over its worker pool
    // (a sampled run overlaps the fast-forward with every interval).
    let mut runs: Vec<(&str, Machine, SchemeKind)> = Vec::new();
    for &b in &benches {
        runs.push((b, Machine::Base, SchemeKind::Naive));
        runs.extend(schemes.iter().map(|&s| (b, Machine::Clustered, s)));
    }
    let mut lab = Lab::new(opts.clone());
    lab.ensure(&runs);
    let mut headers = vec!["scheme"];
    headers.extend(benches.iter().copied());
    if benches.len() > 1 {
        headers.push("H-mean");
    }
    let mut t = Table::new(&headers);
    for s in schemes {
        let mut row = vec![s.label().to_string()];
        let mut ratios = Vec::new();
        for &b in &benches {
            let sp = lab.speedup(b, Machine::Clustered, s);
            ratios.push(1.0 + sp / 100.0);
            row.push(format!("{sp:.1}"));
        }
        if benches.len() > 1 {
            let hm = dca_stats::harmonic_mean(&ratios);
            row.push(format!("{:.1}", (hm - 1.0) * 100.0));
        }
        t.row(&row);
    }
    println!("Speed-up (%) over the base machine, clustered machine runs\n");
    println!("{}", t.to_aligned());
    opts.write_observability();
    Ok(())
}

fn cmd_slices(args: Vec<String>) -> Result<(), String> {
    let (opts, mut flags) = parse_opts(args)?;
    let bench = flags.take("--bench");
    let kernel = flags.take("--kernel");
    let asm = flags.take("--asm");
    flags.finish("slices")?;
    let (name, prog, _, _) =
        load_program(bench.as_deref(), kernel.as_deref(), asm.as_deref(), opts.scale)?;
    println!("{}", report::slice_report(&name, &prog));
    Ok(())
}

/// Prints one `verify` status line and returns the exit
/// code the report implies (0 clean, 1 corrupt/stale, 2 I/O error).
fn print_file_report(r: &dca_store::FileReport) -> u8 {
    use dca_store::FileStatus;
    let name = r
        .path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    match &r.status {
        FileStatus::Ok { records } => {
            println!("ok       {name} ({} bytes, {records} records)", r.bytes);
            0
        }
        FileStatus::StaleVersion { what, found, expected } => {
            println!("stale    {name} ({what} version {found}, current {expected})");
            1
        }
        FileStatus::Corrupt { reason } => {
            println!("corrupt  {name} ({reason})");
            1
        }
        FileStatus::IoError { reason } => {
            println!("io-error {name} ({reason})");
            2
        }
    }
}

fn cmd_store(args: Vec<String>) -> Result<ExitCode, String> {
    use dca_store::Store;

    // `store` predates RunOpts and keeps its own flag handling, but
    // shares the observability switches with run/figures.
    let mut obs = RunOpts::default();
    let mut flags = Flags(args);
    for q in ["-q", "--quiet"] {
        if let Some(i) = flags.0.iter().position(|a| a == q) {
            flags.0.remove(i);
            obs.quiet = true;
        }
    }
    if let Some(i) = flags.0.iter().position(|a| a == "--verbose") {
        flags.0.remove(i);
        obs.verbose = true;
    }
    obs.trace_out = flags.take("--trace-out").map(std::path::PathBuf::from);
    obs.metrics_out = flags.take("--metrics-out").map(std::path::PathBuf::from);
    obs.apply_observability();
    let dir = match flags.take("--store-dir") {
        Some(d) if d.is_empty() => return Err("--store-dir needs a directory".into()),
        Some(d) => d,
        None => ".dca-store".into(),
    };
    let sub = if flags.0.is_empty() {
        "stat".to_string()
    } else {
        flags.0.remove(0)
    };
    flags.finish("store")?;
    let code = cmd_store_sub(&Store::open(&dir), &dir, &sub)?;
    // Every store op runs through the instrumented I/O layer, so the
    // session counters are exactly this maintenance op's footprint.
    let m = dca_obs::metrics();
    dca_obs::progress::info(format!(
        "  io: {} reads / {} bytes in, {} writes / {} bytes out, {} meta ops",
        m.store_reads_total.get(),
        m.store_read_bytes_total.get(),
        m.store_writes_total.get(),
        m.store_written_bytes_total.get(),
        m.store_meta_ops_total.get(),
    ));
    obs.write_observability();
    Ok(code)
}

fn cmd_store_sub(store: &dca_store::Store, dir: &str, sub: &str) -> Result<ExitCode, String> {
    match sub {
        "stat" => {
            let s = store.stat();
            println!("store {dir}");
            println!(
                "  checkpoint shards:  {:>4} files, {:>10} bytes",
                s.checkpoint_files.0, s.checkpoint_files.1
            );
            println!(
                "  result shards:      {:>4} files, {:>10} bytes",
                s.result_files.0, s.result_files.1
            );
            for sh in &s.shards {
                let kind = match sh.kind {
                    Some(dca_store::FileKind::Checkpoints) => "checkpoints",
                    Some(dca_store::FileKind::Results) => "results",
                    None => "unknown",
                };
                println!(
                    "    {:<40} {kind:<11} {:>10} bytes, {:>5} records",
                    sh.name, sh.bytes, sh.records
                );
            }
            for l in &s.locks {
                println!(
                    "    {:<40} lock        owner {} age {} ({})",
                    l.name,
                    l.pid.map_or("?".to_string(), |p| p.to_string()),
                    l.age_secs.map_or("?".to_string(), |a| format!("{a}s")),
                    if l.live { "live" } else { "stale" },
                );
            }
            if s.stale_files > 0 {
                println!("  stale-version shards: {} (run `dca store gc`)", s.stale_files);
            }
            if s.unreadable_files > 0 {
                println!("  unreadable shards:  {} (run `dca store gc`)", s.unreadable_files);
            }
            if s.live_locks > 0 {
                println!("  live shard locks:   {} (writers in flight)", s.live_locks);
            }
            if s.stale_locks > 0 {
                println!("  stale shard locks:  {} (run `dca store gc`)", s.stale_locks);
            }
            println!(
                "  versions: interpreter {}, timing model {}, container {}",
                dca_prog::INTERP_VERSION,
                dca_sim::TIMING_VERSION,
                dca_store::file::FORMAT_VERSION
            );
            Ok(ExitCode::SUCCESS)
        }
        "verify" => {
            let reports = store.verify();
            if reports.is_empty() {
                println!("store {dir}: empty");
                return Ok(ExitCode::SUCCESS);
            }
            // Full sweep, no first-bad bail; the worst status wins the
            // exit code (0 clean, 1 corrupt/stale, 2 I/O error).
            let mut code = 0u8;
            let mut bad = 0u64;
            for r in &reports {
                let c = print_file_report(r);
                code = code.max(c);
                bad += u64::from(c != 0);
            }
            if bad > 0 {
                eprintln!("{bad} file(s) failed verification (run `dca store gc`)");
            }
            Ok(ExitCode::from(code))
        }
        "gc" => {
            let r = store.gc();
            println!(
                "store {dir}: removed {} file(s), freed {} bytes, kept {}",
                r.removed, r.freed_bytes, r.kept
            );
            if r.skipped_locked > 0 {
                println!(
                    "  skipped {} damaged shard(s) under a live writer lock",
                    r.skipped_locked
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown store subcommand `{other}` (stat|verify|gc)")),
    }
}

fn cmd_list() -> Result<(), String> {
    println!("benchmarks (SpecInt95 analogues):");
    for name in dca_workloads::NAMES {
        let w = dca_workloads::build(name, dca_workloads::Scale::Smoke);
        println!("  {name:10} {} (paper input: {})", w.description, w.paper_input);
    }
    println!("\nmicro-kernels (dca-workloads::kernels):");
    for name in dca_workloads::kernels::NAMES {
        let w = dca_workloads::kernels::by_name(name).expect("registered");
        println!("  {name:16} {}", w.description);
    }
    println!("\nsteering schemes:");
    for s in ALL_SCHEMES {
        println!("  {:15} {}", s.name(), s.label());
    }
    println!("\nmachines: base | clustered | one-bus | ub | homo<N> | hetero4");
    Ok(())
}
