//! Criterion micro-benchmarks for the substrate components: branch
//! predictors, caches, the RDG analysis, the functional interpreter and
//! the continuously-warmed fast-forward built on it.
//!
//! These measure the *simulator's* wall-clock performance (host-side),
//! complementing the figure binaries that measure the *simulated*
//! machine.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dca_prog::{fast_forward_with, Interp, Rdg};
use dca_sim::{ContinuousWarmer, SimConfig};
use dca_stats::Rng64;
use dca_uarch::{Bimodal, BranchPredictor, Cache, CacheConfig, Combined, Gshare};
use dca_workloads::{build, Scale};

fn bench_predictors(c: &mut Criterion) {
    let mut g = c.benchmark_group("bpred");
    g.throughput(Throughput::Elements(1024));
    let mut rng = Rng64::seeded(1);
    let stimuli: Vec<(u64, bool)> = (0..1024)
        .map(|_| (0x1000 + rng.range(0, 256) * 4, rng.chance(0.6)))
        .collect();
    g.bench_function("bimodal_2k", |b| {
        let mut p = Bimodal::new(2048);
        b.iter(|| {
            for &(pc, t) in &stimuli {
                black_box(p.predict(pc));
                p.update(pc, t);
            }
        })
    });
    g.bench_function("gshare_64k", |b| {
        let mut p = Gshare::new(64 * 1024, 16);
        b.iter(|| {
            for &(pc, t) in &stimuli {
                black_box(p.predict(pc));
                p.update(pc, t);
            }
        })
    });
    g.bench_function("combined_paper", |b| {
        let mut p = Combined::paper();
        b.iter(|| {
            for &(pc, t) in &stimuli {
                black_box(p.predict(pc));
                p.update(pc, t);
            }
        })
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.throughput(Throughput::Elements(1024));
    let mut rng = Rng64::seeded(2);
    let addrs: Vec<u64> = (0..1024).map(|_| rng.range(0, 1 << 20)).collect();
    g.bench_function("l1_64k_2way", |b| {
        let mut cache = Cache::new(CacheConfig::paper_l1());
        b.iter(|| {
            for &a in &addrs {
                black_box(cache.access(a));
            }
        })
    });
    g.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let mut g = c.benchmark_group("analysis");
    let w = build("compress", Scale::Smoke);
    g.bench_function("rdg_build_compress", |b| {
        b.iter(|| black_box(Rdg::build(&w.program)))
    });
    let gcc = build("gcc", Scale::Smoke);
    g.bench_function("rdg_build_gcc_17k_insts", |b| {
        b.iter(|| black_box(Rdg::build(&gcc.program)))
    });
    g.finish();
}

fn bench_interp(c: &mut Criterion) {
    let mut g = c.benchmark_group("interp");
    let w = build("compress", Scale::Smoke);
    let n = w.execute_functional().dyn_insts;
    g.throughput(Throughput::Elements(n));
    g.bench_function("functional_compress", |b| {
        b.iter(|| {
            let count = Interp::new(&w.program, w.memory.clone()).count();
            black_box(count)
        })
    });
    // The same stream through the warm hook. The only checkpoint is the
    // initial one (at paper scale there is one per 2M instructions), so
    // the gap to `functional_compress` is the hook's per-instruction
    // cost plus one snapshot.
    g.bench_function("fast_forward_warm_compress", |b| {
        let mut hook = ContinuousWarmer::new(&SimConfig::default());
        b.iter(|| {
            let ff = fast_forward_with(&w.program, w.memory.clone(), u64::MAX, u64::MAX, &mut hook);
            black_box(ff.total_insts)
        })
    });
    // A prefix of the paper-scale gcc analogue: its 16.5k-instruction
    // text is the largest in the suite, so this is where decoding each
    // instruction once, rather than on every execution, shows.
    let gcc = build("gcc", Scale::Paper);
    g.throughput(Throughput::Elements(GCC_PREFIX));
    g.bench_function("functional_gcc", |b| {
        b.iter(|| {
            let count = Interp::new(&gcc.program, gcc.memory.clone())
                .with_fuel(GCC_PREFIX)
                .count();
            black_box(count)
        })
    });
    g.bench_function("fast_forward_warm_gcc", |b| {
        let mut hook = ContinuousWarmer::new(&SimConfig::default());
        b.iter(|| {
            let ff = fast_forward_with(
                &gcc.program,
                gcc.memory.clone(),
                u64::MAX,
                GCC_PREFIX,
                &mut hook,
            );
            black_box(ff.total_insts)
        })
    });
    g.finish();
}

/// Instructions per iteration of the gcc rows.
const GCC_PREFIX: u64 = 1_000_000;

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_predictors, bench_cache, bench_analysis, bench_interp
}
criterion_main!(benches);
