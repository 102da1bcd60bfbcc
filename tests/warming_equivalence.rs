//! Snapshot-restore equivalence (the acceptance gate of the
//! continuous-warming work): for **every** steering scheme, restoring a
//! [`UarchSnapshot`] captured after a warming prefix and then
//! simulating an interval must be **bit-identical** — statistics *and*
//! per-µop trace — to streaming the same prefix through
//! `warm_functional` inline and simulating the same interval.
//!
//! Two independent state paths are pinned against each other:
//!
//! * **inline** — `Simulator::resume_from(ckpt)` + `warm_functional(W)`
//!   builds cache/predictor state inside the simulator (raw LRU
//!   stamps, live tick counter), then measures;
//! * **snapshot** — a detached [`ContinuousWarmer`] replays the same
//!   `W` instructions, its snapshot is **encoded, decoded and
//!   restored** (rank-normalised LRU, rebased tick) into a fresh
//!   simulator resumed at the warmed position, which then measures.
//!
//! Bit-identical output proves the codec's rank normalisation loses
//! nothing observable, and that `restore_uarch`'s baseline handling
//! matches `warm_functional`'s — which is exactly what lets the
//! paper-scale harness swap detached warming for restored snapshots.

use dca::prog::{fast_forward, Interp, WarmHook as _};
use dca::sim::{ContinuousWarmer, SimConfig, SimStats, Simulator};
use dca::uarch::UarchSnapshot;
use dca_bench::{SchemeKind, ALL_SCHEMES};
use dca_workloads::{build, Scale};

const PERIOD: u64 = 10_000;
const WARMUP: u64 = 6_000;
const INTERVAL: u64 = 5_000;

fn assert_identical(a: &SimStats, b: &SimStats, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles diverge");
    assert_eq!(a.committed, b.committed, "{what}: committed diverge");
    assert_eq!(a.committed_uops, b.committed_uops, "{what}: µops diverge");
    assert_eq!(a.copies, b.copies, "{what}: copies diverge");
    assert_eq!(a.critical_copies, b.critical_copies, "{what}: critical copies diverge");
    assert_eq!(a.copies_by_dir, b.copies_by_dir, "{what}: copy directions diverge");
    assert_eq!(a.steered, b.steered, "{what}: issue distribution diverges");
    assert_eq!(a.balance, b.balance, "{what}: balance histogram diverges");
    assert_eq!(
        a.replication_reg_cycles, b.replication_reg_cycles,
        "{what}: replication integral diverges"
    );
    assert_eq!(a.loads, b.loads, "{what}: loads diverge");
    assert_eq!(a.stores, b.stores, "{what}: stores diverge");
    assert_eq!(a.forwarded_loads, b.forwarded_loads, "{what}: forwarding diverges");
    assert_eq!(a.branches, b.branches, "{what}: branches diverge");
    assert_eq!(a.mispredicts, b.mispredicts, "{what}: mispredicts diverge");
    assert_eq!(a.l1i, b.l1i, "{what}: L1I diverges");
    assert_eq!(a.l1d, b.l1d, "{what}: L1D diverges");
    assert_eq!(a.l2, b.l2, "{what}: L2 diverges");
    assert_eq!(a.bpred, b.bpred, "{what}: predictor diverges");
    assert_eq!(
        a.dispatch_stall_cycles, b.dispatch_stall_cycles,
        "{what}: dispatch stalls diverge"
    );
    assert_eq!(a.slice_hits, b.slice_hits, "{what}: slice hits diverge");
}

/// All 13 schemes on the clustered machine at smoke scale, from a
/// mid-stream checkpoint of `compress`.
#[test]
fn snapshot_restore_is_bit_identical_to_inline_warming_for_all_schemes() {
    let cfg = SimConfig::paper_clustered();
    let w = build("compress", Scale::Smoke);
    let ff = fast_forward(&w.program, w.memory.clone(), PERIOD, 40_000);
    let ckpt = &ff.checkpoints[1];
    assert_eq!(ckpt.seq(), PERIOD, "mid-stream checkpoint");

    for scheme in ALL_SCHEMES {
        let what = format!("compress/{scheme:?}");

        // Inline path: cold resume, detached warm_functional, measure.
        let mut steer_a = scheme.instantiate(&w.program);
        let mut sim_a = Simulator::resume_from(&cfg, &w.program, ckpt);
        let warmed = sim_a.warm_functional(WARMUP);
        assert_eq!(warmed, WARMUP, "{what}: stream covers the warming prefix");
        sim_a.enable_trace(4096);
        let stats_a = sim_a.run_mut(steer_a.as_mut(), ckpt.seq() + warmed + INTERVAL);

        // Snapshot path: a detached warmer replays the same prefix,
        // its state survives an encode→decode round trip, and the
        // restored simulator measures the same window with *zero*
        // warm_functional instructions.
        let mut warmer = ContinuousWarmer::new(&cfg);
        let mut it = Interp::resume(&w.program, ckpt).with_fuel(ckpt.seq() + WARMUP);
        let mut replayed = 0;
        for d in it.by_ref() {
            warmer.observe(&d);
            replayed += 1;
        }
        assert_eq!(replayed, WARMUP, "{what}: warmer saw the same prefix");
        let warm_ckpt = it
            .checkpoint()
            .with_uarch(warmer.snapshot().expect("warmer always snapshots"));
        let snap = UarchSnapshot::decode(warm_ckpt.uarch().expect("attached"))
            .expect("snapshot decodes");
        let mut steer_b = scheme.instantiate(&w.program);
        let mut sim_b = Simulator::resume_from(&cfg, &w.program, &warm_ckpt);
        sim_b.restore_uarch(&snap).expect("geometry matches");
        sim_b.enable_trace(4096);
        let stats_b = sim_b.run_mut(steer_b.as_mut(), warm_ckpt.seq() + INTERVAL);

        assert_identical(&stats_a, &stats_b, &what);
        assert!(stats_a.committed > 0, "{what}: interval measured nothing");

        // Traces are bit-identical too: same µops, same stage
        // timestamps, cycle for cycle.
        let trace_a = sim_a.take_trace().expect("trace enabled");
        let trace_b = sim_b.take_trace().expect("trace enabled");
        assert_eq!(
            trace_a.render_table(),
            trace_b.render_table(),
            "{what}: traces diverge"
        );
    }
}

/// The same equivalence holds on the base machine (no bypasses) — the
/// warming path is machine-independent but the measured backend is
/// not, so pin the other extreme too.
#[test]
fn snapshot_restore_matches_inline_on_the_base_machine() {
    let cfg = SimConfig::paper_base();
    let w = build("li", Scale::Smoke);
    let ff = fast_forward(&w.program, w.memory.clone(), PERIOD, 40_000);
    let ckpt = &ff.checkpoints[1];

    let mut steer_a = SchemeKind::Naive.instantiate(&w.program);
    let mut sim_a = Simulator::resume_from(&cfg, &w.program, ckpt);
    let warmed = sim_a.warm_functional(WARMUP);
    let stats_a = sim_a.run_mut(steer_a.as_mut(), ckpt.seq() + warmed + INTERVAL);

    let mut warmer = ContinuousWarmer::new(&cfg);
    let mut it = Interp::resume(&w.program, ckpt).with_fuel(ckpt.seq() + WARMUP);
    for d in it.by_ref() {
        warmer.observe(&d);
    }
    let warm_ckpt = it.checkpoint().with_uarch(warmer.snapshot().expect("snapshot"));
    let snap = UarchSnapshot::decode(warm_ckpt.uarch().expect("attached")).expect("decodes");
    let mut steer_b = SchemeKind::Naive.instantiate(&w.program);
    let mut sim_b = Simulator::resume_from(&cfg, &w.program, &warm_ckpt);
    sim_b.restore_uarch(&snap).expect("geometry matches");
    let stats_b = sim_b.run_mut(steer_b.as_mut(), warm_ckpt.seq() + INTERVAL);

    assert_identical(&stats_a, &stats_b, "li/base/Naive");
}

/// The Lab runs an unsampled combination as a one-interval sample:
/// the initial checkpoint (taken before the first step), zero
/// warming instructions, then one detailed interval over the whole
/// window. That is only the same run as a straight
/// `Simulator::new(..).run` if resuming from the initial state and
/// warming for nothing leave the machine exactly as a fresh one, so
/// pin it for every scheme on both the base and the clustered
/// machine, with the trace compared cycle for cycle.
#[test]
fn initial_checkpoint_with_zero_warming_is_bit_identical_to_a_fresh_run() {
    const WINDOW: u64 = 20_000;
    let w = build("compress", Scale::Smoke);
    let ckpt = Interp::new(&w.program, w.memory.clone()).checkpoint();
    assert_eq!(ckpt.seq(), 0, "initial state");
    for (machine, cfg) in [
        ("base", SimConfig::paper_base()),
        ("clustered", SimConfig::paper_clustered()),
    ] {
        for scheme in ALL_SCHEMES {
            let what = format!("compress/{machine}/{scheme:?}");

            let mut steer_a = scheme.instantiate(&w.program);
            let mut sim_a = Simulator::new(&cfg, &w.program, w.memory.clone());
            sim_a.enable_trace(4096);
            let stats_a = sim_a.run_mut(steer_a.as_mut(), WINDOW);

            let mut steer_b = scheme.instantiate(&w.program);
            let mut sim_b = Simulator::resume_from(&cfg, &w.program, &ckpt);
            assert_eq!(sim_b.warm_functional(0), 0, "{what}: nothing warmed");
            sim_b.enable_trace(4096);
            let stats_b = sim_b.run_mut(steer_b.as_mut(), ckpt.seq() + WINDOW);

            assert_identical(&stats_a, &stats_b, &what);
            assert!(stats_a.committed > 0, "{what}: the window measured nothing");
            assert_eq!(
                sim_a.take_trace().expect("trace enabled").render_table(),
                sim_b.take_trace().expect("trace enabled").render_table(),
                "{what}: traces diverge"
            );
        }
    }
}
