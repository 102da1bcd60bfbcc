//! `dca-replay`: the traced run of the perfbench benchmark.
//!
//! Replays one workload's work by calling each layer's public functions
//! in the order `dca`'s Lab calls them, every call inside a span
//! (`trace.rs`), and prints one JSON object on stdout: per-span-name
//! aggregates (count, total, self and max seconds), work counts, and
//! the rendered report so the caller can check it against the pinned
//! values. The spans themselves go to `--trace-out` as Chrome
//! trace-event JSON.
//!
//! ```text
//! dca-replay sampling --store-dir DIR --trace-out FILE  # figures sampling --scale paper, empty store
//! dca-replay gcc      --store-dir DIR --trace-out FILE  # compare --bench gcc --schemes static, empty store
//! dca-replay served   --store-dir DIR --trace-out FILE  # one warm served sampling job, populated store
//! ```
//!
//! Spans named `probe.*` measure something the replayed workload does
//! not do (a hook-free interpretation pass, the memo fill that precedes
//! a warm render, repeated renders); they are reported but excluded
//! from `covered_ns`, the traced time that stands for the workload.

mod trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dca_bench::figures;
use dca_bench::{Lab, Machine, RunOpts, SchemeKind};
use dca_obs::json::Json;
use dca_prog::{fast_forward, fast_forward_with, Checkpoint, FastForward};
use dca_sim::{ContinuousWarmer, SimConfig, Simulator};
use dca_stats::Table;
use dca_store::{CheckpointKey, IntervalRecord, ResultKey, Store};
use dca_uarch::UarchSnapshot;
use dca_workloads::{Scale, Workload};

use trace::{Lane, Tracer};

/// `--scale paper` sampling parameters (`dca_bench::SampleOpts`
/// defaults over the paper's 100M-instruction window).
const SCALE: &str = "paper";
const WINDOW: u64 = 100_000_000;
const PERIOD: u64 = 2_000_000;
const INTERVAL: u64 = 100_000;
const WARMUP: u64 = 100_000;

/// How an interval's caches and predictor get warm.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Warm {
    /// Restore the checkpoint's continuously-warmed snapshot.
    Continuous,
    /// Replay `WARMUP` instructions into cold models.
    Detached,
    /// Detached, also warming the steering scheme's tables.
    DetachedSteered,
}

/// One (machine, scheme, warming) combination of sampled intervals.
#[derive(Clone, Copy)]
struct Combo {
    machine: Machine,
    scheme: SchemeKind,
    warm: Warm,
}

const fn combo(machine: Machine, scheme: SchemeKind, warm: Warm) -> Combo {
    Combo {
        machine,
        scheme,
        warm,
    }
}

/// The combinations `figures::sampling` asks its main Lab for.
const SAMPLING_MAIN: [Combo; 4] = [
    combo(Machine::Base, SchemeKind::Naive, Warm::Continuous),
    combo(Machine::Base, SchemeKind::GeneralBalance, Warm::Continuous),
    combo(Machine::Clustered, SchemeKind::Naive, Warm::Continuous),
    combo(
        Machine::Clustered,
        SchemeKind::GeneralBalance,
        Warm::Continuous,
    ),
];

/// The side labs `figures::sampling` runs after the main table, in
/// order: the warming transient (detached, then continuous) and the
/// steering-state warm-up (cold tables, then warmed tables).
const SAMPLING_SIDES: [Combo; 4] = [
    combo(
        Machine::Clustered,
        SchemeKind::GeneralBalance,
        Warm::Detached,
    ),
    combo(
        Machine::Clustered,
        SchemeKind::GeneralBalance,
        Warm::Continuous,
    ),
    combo(
        Machine::Clustered,
        SchemeKind::LdStSliceBalance,
        Warm::Detached,
    ),
    combo(
        Machine::Clustered,
        SchemeKind::LdStSliceBalance,
        Warm::DetachedSteered,
    ),
];

/// Work counts of one replay.
#[derive(Default)]
struct Counts {
    ff_insts: u64,
    ckpts: u64,
    ckpt_bytes: u64,
    snapshot_bytes: u64,
    detailed_insts: u64,
    interp_insts: u64,
    intervals_computed: u64,
    intervals_from_store: u64,
    intervals_merged: u64,
    records_loaded: u64,
    store_errors: u64,
}

/// What a replay shares across its phases.
struct Ctx<'t> {
    tracer: &'t Tracer,
    store: Store,
    store_dir: String,
    counts: Counts,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(mode), Some(store_dir), Some(trace_out)) = (
        args.first().cloned(),
        flag("--store-dir"),
        flag("--trace-out"),
    ) else {
        eprintln!("usage: dca-replay <sampling|gcc|served> --store-dir DIR --trace-out FILE");
        std::process::exit(2);
    };
    let tracer = Tracer::new();
    let mut ctx = Ctx {
        tracer: &tracer,
        store: Store::open(&store_dir),
        store_dir,
        counts: Counts::default(),
    };
    let t0 = Instant::now();
    let report = {
        let mut lane = tracer.lane();
        match mode.as_str() {
            "sampling" => replay_sampling(&mut ctx, &mut lane),
            "gcc" => replay_gcc(&mut ctx, &mut lane),
            "served" => replay_served(&mut ctx, &mut lane),
            other => {
                eprintln!("unknown replay `{other}` (sampling|gcc|served)");
                std::process::exit(2);
            }
        }
    };
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let (aggs, chrome) = tracer.finish();
    if let Err(e) = std::fs::write(&trace_out, chrome) {
        eprintln!("dca-replay: cannot write {trace_out}: {e}");
        std::process::exit(1);
    }

    let probe_ns: u64 = aggs
        .iter()
        .filter(|(name, _)| name.starts_with("probe."))
        .map(|(_, a)| a.total_ns)
        .sum();
    let covered_ns: u64 = aggs
        .iter()
        .filter(|(name, _)| !name.starts_with("probe."))
        .map(|(_, a)| a.self_ns)
        .sum();
    let layers = aggs
        .iter()
        .map(|(name, a)| {
            let obj = Json::Obj(vec![
                ("count".into(), Json::U64(a.count)),
                ("total_ns".into(), Json::U64(a.total_ns)),
                ("self_ns".into(), Json::U64(a.self_ns)),
                ("max_ns".into(), Json::U64(a.max_ns)),
            ]);
            (name.to_string(), obj)
        })
        .collect();
    let c = &ctx.counts;
    let counts = [
        ("ff_insts", c.ff_insts),
        ("ckpts", c.ckpts),
        ("ckpt_bytes", c.ckpt_bytes),
        ("snapshot_bytes", c.snapshot_bytes),
        ("detailed_insts", c.detailed_insts),
        ("interp_insts", c.interp_insts),
        ("intervals_computed", c.intervals_computed),
        ("intervals_from_store", c.intervals_from_store),
        ("intervals_merged", c.intervals_merged),
        ("records_loaded", c.records_loaded),
        ("store_errors", c.store_errors),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), Json::U64(v)))
    .collect();
    let out = Json::Obj(vec![
        ("workload".into(), Json::Str(mode)),
        ("layers".into(), Json::Obj(layers)),
        ("counts".into(), Json::Obj(counts)),
        ("covered_ns".into(), Json::U64(covered_ns)),
        (
            "work_wall_ns".into(),
            Json::U64(wall_ns.saturating_sub(probe_ns)),
        ),
        ("report".into(), Json::Obj(report)),
    ]);
    println!("{}", out.render());
}

/// Builds a `--scale paper` workload and its store fingerprint.
fn build(lane: &mut Lane<'_>, bench: &'static str) -> (Workload, u64) {
    let w = lane.span("workloads.build", |_| {
        dca_workloads::build(bench, Scale::Paper)
    });
    let fp = lane.span("workloads.fingerprint", |_| w.fingerprint());
    (w, fp)
}

fn checkpoint_key(bench: &str, fp: u64) -> CheckpointKey<'_> {
    CheckpointKey {
        workload: bench,
        scale: SCALE,
        period: PERIOD,
        max_insts: WINDOW,
        fingerprint: fp,
        uarch: SimConfig::default().uarch_hash(),
    }
}

fn result_key<'a>(
    bench: &'a str,
    fp: u64,
    c: &Combo,
    machine: &'a str,
    scheme: &'a str,
) -> ResultKey<'a> {
    ResultKey {
        workload: bench,
        scale: SCALE,
        machine,
        geometry: c.machine.config().config_hash(),
        scheme,
        period: PERIOD,
        // The Lab normalises the inert warmup budget out of
        // continuous-warming keys.
        warmup: if c.warm == Warm::Continuous {
            0
        } else {
            WARMUP
        },
        interval: INTERVAL,
        max_insts: WINDOW,
        warm_steering: c.warm == Warm::DetachedSteered,
        continuous_warming: c.warm == Warm::Continuous,
        fingerprint: fp,
    }
}

/// The checkpoint stream: a store lookup (a miss on a cold store), the
/// continuously-warmed fast-forward, and the save — as the Lab's
/// fast-forward phase does it.
fn checkpoints(
    ctx: &mut Ctx<'_>,
    lane: &mut Lane<'_>,
    bench: &str,
    w: &Workload,
    fp: u64,
) -> FastForward {
    let key = checkpoint_key(bench, fp);
    if let Some(ff) = load_checkpoints(ctx, lane, &key) {
        return ff;
    }
    let ff = lane.span("prog.fast_forward", |_| {
        let mut hook = ContinuousWarmer::new(&SimConfig::default());
        fast_forward_with(&w.program, w.memory.clone(), PERIOD, WINDOW, &mut hook)
    });
    ctx.counts.ff_insts += ff.total_insts;
    ctx.counts.ckpts += ff.checkpoints.len() as u64;
    match lane.span("store.ckpt_save", |_| ctx.store.save_checkpoints(&key, &ff)) {
        Ok(bytes) => ctx.counts.ckpt_bytes += bytes,
        Err(e) => store_error(ctx, &e),
    }
    ff
}

fn load_checkpoints(
    ctx: &mut Ctx<'_>,
    lane: &mut Lane<'_>,
    key: &CheckpointKey<'_>,
) -> Option<FastForward> {
    match lane.span("store.ckpt_load", |_| {
        ctx.store.load_checkpoints_covering(key)
    }) {
        Ok(ff) => {
            ctx.counts.records_loaded += ff.checkpoints.len() as u64;
            Some(ff)
        }
        Err(e) if e.is_not_found() => None,
        Err(e) => {
            store_error(ctx, &e);
            None
        }
    }
}

fn store_error(ctx: &mut Ctx<'_>, e: &dca_store::StoreError) {
    eprintln!("dca-replay: store {}: {e}", ctx.store_dir);
    ctx.counts.store_errors += 1;
}

/// Samples `combos` as one Lab batch: look each up in the store, fan
/// the missing intervals across the workers, save what was computed.
fn sample(
    ctx: &mut Ctx<'_>,
    lane: &mut Lane<'_>,
    bench: &str,
    w: &Workload,
    fp: u64,
    ff: &FastForward,
    combos: &[Combo],
) {
    let budget = ff.checkpoints.len();
    let mut missing = Vec::new();
    for (i, c) in combos.iter().enumerate() {
        let (mk, sk) = (c.machine.key(), format!("{:?}", c.scheme));
        let key = result_key(bench, fp, c, &mk, &sk);
        match lane.span("store.intervals_load", |_| ctx.store.load_intervals(&key)) {
            Ok(recs) if recs.len() >= budget => {
                ctx.counts.records_loaded += budget as u64;
                ctx.counts.intervals_from_store += budget as u64;
            }
            Ok(_) => missing.push(i),
            Err(e) if e.is_not_found() => missing.push(i),
            Err(e) => {
                store_error(ctx, &e);
                missing.push(i);
            }
        }
    }

    let cfgs: Vec<SimConfig> = combos.iter().map(|c| c.machine.config()).collect();
    let jobs: Vec<(usize, usize)> = missing
        .iter()
        .flat_map(|&i| (0..budget).map(move |idx| (i, idx)))
        .collect();
    let computed = fan_out(ctx.tracer, &jobs, |l, &(i, idx)| {
        l.span("bench.interval", |l| {
            interval(l, w, &ff.checkpoints[idx], &cfgs[i], combos[i])
        })
    });
    let mut fresh: BTreeMap<usize, Vec<IntervalRecord>> = BTreeMap::new();
    for (&(i, _), (record, snapshot_bytes)) in jobs.iter().zip(computed) {
        ctx.counts.intervals_computed += 1;
        ctx.counts.detailed_insts += record.stats.committed;
        ctx.counts.snapshot_bytes += snapshot_bytes;
        fresh.entry(i).or_default().push(record);
    }

    for (i, recs) in fresh {
        let c = &combos[i];
        let (mk, sk) = (c.machine.key(), format!("{:?}", c.scheme));
        let key = result_key(bench, fp, c, &mk, &sk);
        if let Err(e) = lane.span("store.intervals_save", |_| {
            ctx.store.save_intervals(&key, &recs)
        }) {
            store_error(ctx, &e);
        }
    }
}

/// One sampled interval, as a Lab worker runs it: scheme setup,
/// resume, warm (snapshot restore or functional replay), detailed run.
/// Returns the interval's record and the snapshot bytes decoded.
fn interval(
    l: &mut Lane<'_>,
    w: &Workload,
    ckpt: &Checkpoint,
    cfg: &SimConfig,
    c: Combo,
) -> (IntervalRecord, u64) {
    let mut steering = l.span("steer.instantiate", |_| c.scheme.instantiate(&w.program));
    let mut sim = l.span("sim.resume", |_| {
        Simulator::resume_from(cfg, &w.program, ckpt)
    });
    let mut snapshot_bytes = 0;
    let warmed = match c.warm {
        Warm::Continuous => {
            let blob = ckpt
                .uarch()
                .expect("continuously-warmed stream carries snapshots");
            snapshot_bytes = blob.len() as u64;
            let snap = l
                .span("uarch.snapshot_decode", |_| UarchSnapshot::decode(blob))
                .expect("freshly encoded snapshot decodes");
            l.span("sim.restore", |_| sim.restore_uarch(&snap))
                .expect("snapshot geometry matches the machine");
            0
        }
        Warm::Detached => l.span("sim.warm_functional", |_| sim.warm_functional(WARMUP)),
        Warm::DetachedSteered => l.span("sim.warm_functional", |_| {
            sim.warm_functional_steered(WARMUP, steering.as_mut())
        }),
    };
    let budget = (ckpt.seq() + warmed + INTERVAL).min(WINDOW);
    let stats = l.span("sim.run", |_| sim.run_mut(steering.as_mut(), budget));
    (
        IntervalRecord {
            stats,
            warmed_insts: warmed,
        },
        snapshot_bytes,
    )
}

/// Runs `f` over `items` on one worker per core (the Lab's fan-out),
/// each worker recording on its own lane. Results come back in item
/// order.
fn fan_out<T: Sync, R: Send>(
    tracer: &Tracer,
    items: &[T],
    f: impl Fn(&mut Lane<'_>, &T) -> R + Sync,
) -> Vec<R> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(items.len())
        .max(1);
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut lane = tracer.lane();
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        got.push((i, f(&mut lane, item)));
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// The hook-free interpretation of the same window: the baseline the
/// warm hook's cost is measured against.
fn probe_interp(ctx: &mut Ctx<'_>, lane: &mut Lane<'_>, w: &Workload) {
    let ff = lane.span("probe.interp", |_| {
        fast_forward(&w.program, w.memory.clone(), PERIOD, WINDOW)
    });
    ctx.counts.interp_insts = ff.total_insts;
}

/// A Lab over the replay's store, as `dca` would build it.
fn open_lab(ctx: &Ctx<'_>) -> Lab {
    let args = ["--scale", SCALE, "--store-dir", &ctx.store_dir, "-q"];
    let (opts, rest) = RunOpts::from_args(args.into_iter().map(String::from));
    assert!(rest.is_empty(), "harness options parse: {rest:?}");
    Lab::new(opts)
}

/// Renders `render` five times on a Lab whose memo is already full:
/// the first render stands for the workload's own, the rest are probes
/// for a median. Returns the last output and the median nanoseconds.
fn renders(lane: &mut Lane<'_>, mut render: impl FnMut() -> String) -> (String, u64) {
    let mut ns = Vec::new();
    let mut out = String::new();
    for rep in 0..5 {
        let name = if rep == 0 {
            "bench.render"
        } else {
            "probe.render"
        };
        let t0 = Instant::now();
        out = lane.span(name, |_| render());
        ns.push(t0.elapsed().as_nanos() as u64);
    }
    ns.sort_unstable();
    (out, ns[ns.len() / 2])
}

/// The rendered report (checked by the caller against the pinned
/// values; a Lab renders it from the intervals this replay stored) and
/// the median render time.
fn report(render_ns: u64, document: String) -> Vec<(String, Json)> {
    vec![
        ("render_ns".into(), Json::U64(render_ns)),
        ("document".into(), Json::Str(document)),
    ]
}

/// `dca figures sampling --scale paper` on an empty store.
fn replay_sampling(ctx: &mut Ctx<'_>, lane: &mut Lane<'_>) -> Vec<(String, Json)> {
    let bench = "compress";
    let (w, fp) = build(lane, bench);
    let ff = checkpoints(ctx, lane, bench, &w, fp);
    sample(ctx, lane, bench, &w, fp, &ff, &SAMPLING_MAIN);
    ctx.counts.intervals_merged += (SAMPLING_MAIN.len() * ff.checkpoints.len()) as u64;
    for side in &SAMPLING_SIDES {
        sample(ctx, lane, bench, &w, fp, &ff, std::slice::from_ref(side));
    }
    let mut lab = open_lab(ctx);
    lane.span("probe.memo_fill", |_| figures::sampling(&mut lab));
    let (document, render_ns) = renders(lane, || figures::sampling(&mut lab).document());
    probe_interp(ctx, lane, &w);
    report(render_ns, document)
}

/// `dca compare --bench gcc --schemes static --scale paper` on an
/// empty store: `Lab::speedup` ensures the static run, then the base.
fn replay_gcc(ctx: &mut Ctx<'_>, lane: &mut Lane<'_>) -> Vec<(String, Json)> {
    let bench = "gcc";
    let (w, fp) = build(lane, bench);
    let ff = checkpoints(ctx, lane, bench, &w, fp);
    sample(
        ctx,
        lane,
        bench,
        &w,
        fp,
        &ff,
        &[combo(
            Machine::Clustered,
            SchemeKind::StaticLdSt,
            Warm::Continuous,
        )],
    );
    sample(
        ctx,
        lane,
        bench,
        &w,
        fp,
        &ff,
        &[combo(Machine::Base, SchemeKind::Naive, Warm::Continuous)],
    );
    ctx.counts.intervals_merged += 2 * ff.checkpoints.len() as u64;
    let mut lab = open_lab(ctx);
    let speedup = |lab: &mut Lab| lab.speedup(bench, Machine::Clustered, SchemeKind::StaticLdSt);
    lane.span("probe.memo_fill", |_| speedup(&mut lab));
    let (document, render_ns) = renders(lane, || {
        let mut t = Table::new(&["scheme", bench]);
        t.row(&[
            SchemeKind::StaticLdSt.label().to_string(),
            format!("{:.1}", speedup(&mut lab)),
        ]);
        format!(
            "Speed-up (%) over the base machine, clustered machine runs\n\n{}\n",
            t.to_aligned()
        )
    });
    probe_interp(ctx, lane, &w);
    report(render_ns, document)
}

/// One warm served sampling job on the store a `dca serve` daemon
/// populated: the store reads a pooled Lab's job performs (the
/// checkpoint stream once per Lab, the four side-lab interval shards
/// per job) and the render on a memo-full Lab.
fn replay_served(ctx: &mut Ctx<'_>, lane: &mut Lane<'_>) -> Vec<(String, Json)> {
    let bench = "compress";
    let (_, fp) = build(lane, bench);
    if load_checkpoints(ctx, lane, &checkpoint_key(bench, fp)).is_none() {
        store_error(ctx, &dca_store::StoreError::NotFound);
    }
    for side in &SAMPLING_SIDES {
        let (mk, sk) = (side.machine.key(), format!("{:?}", side.scheme));
        let key = result_key(bench, fp, side, &mk, &sk);
        match lane.span("store.intervals_load", |_| ctx.store.load_intervals(&key)) {
            Ok(recs) => {
                ctx.counts.records_loaded += recs.len() as u64;
                ctx.counts.intervals_from_store += recs.len() as u64;
            }
            Err(e) => store_error(ctx, &e),
        }
    }
    let mut lab = open_lab(ctx);
    lane.span("probe.memo_fill", |_| figures::sampling(&mut lab));
    let (document, render_ns) = renders(lane, || figures::sampling(&mut lab).document());
    report(render_ns, document)
}
