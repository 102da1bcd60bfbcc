//! Crash-recovery suite (ISSUE 6 tentpole): drives the store's write
//! path through [`FaultIo`] and proves, for **every** operation index
//! a process could die at and for every fault kind (fail, short
//! write, torn rename, ENOSPC), that reopening the store yields either
//! the complete old state or the complete new state of the written
//! shard — never a half state, never an error, and never damage to an
//! unrelated shard.

use std::path::Path;
use std::sync::Arc;

use dca_prog::{fast_forward, parse_asm, Memory};
use dca_store::io::{FaultIo, FaultKind, FaultPlan};
use dca_store::{CheckpointKey, FileKind, FileStatus, Store, StoreError};

fn arena(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("dca-store-crash-{name}"));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// A fast-forward pass over `iters` loop iterations — different
/// `iters` give streams with different checkpoint counts, so "old
/// state" and "new state" are distinguishable after recovery.
fn stream(iters: u64) -> dca_prog::FastForward {
    let p = parse_asm(&format!(
        "e:\n li r1, #{iters}\n li r2, #8192\nl:\n st r1, 0(r2)\n add r2, r2, #8\n add r1, r1, #-1\n bne r1, r0, l\n halt",
    ))
    .unwrap();
    fast_forward(&p, Memory::new(), 20, u64::MAX)
}

fn target_key() -> CheckpointKey<'static> {
    CheckpointKey {
        workload: "target",
        scale: "smoke",
        period: 20,
        max_insts: u64::MAX,
        fingerprint: 1,
        uarch: 0,
    }
}

fn neighbour_key() -> CheckpointKey<'static> {
    CheckpointKey {
        workload: "neighbour",
        scale: "smoke",
        period: 20,
        max_insts: u64::MAX,
        fingerprint: 2,
        uarch: 0,
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for e in std::fs::read_dir(from).unwrap().flatten() {
        let dest = to.join(e.file_name());
        if e.file_type().unwrap().is_dir() {
            copy_dir(&e.path(), &dest);
        } else {
            std::fs::copy(e.path(), &dest).unwrap();
        }
    }
}

/// The recovery invariant, checked after every injected crash:
/// reopening with the real filesystem sees a store whose every entry
/// verifies clean, whose neighbour shard is intact, and whose target
/// entry is either the complete old stream, the complete new stream,
/// or (when there was no old stream) absent.
fn assert_recovered(
    dir: &Path,
    old: Option<&dca_prog::FastForward>,
    new: &dca_prog::FastForward,
    ctx: &str,
) {
    let store = Store::open(dir); // sweeps temps on open
    for r in store.verify() {
        assert!(
            matches!(r.status, FileStatus::Ok { .. }),
            "{ctx}: {} not clean after recovery: {:?}",
            r.path.display(),
            r.status
        );
    }
    let n = store.load_checkpoints(&neighbour_key()).expect("neighbour survives");
    assert_eq!(n.checkpoints.len(), stream(30).checkpoints.len(), "{ctx}: neighbour content");
    match store.load_checkpoints(&target_key()) {
        Ok(got) => {
            let matches_old = old.is_some_and(|o| {
                got.checkpoints.len() == o.checkpoints.len() && got.total_insts == o.total_insts
            });
            let matches_new =
                got.checkpoints.len() == new.checkpoints.len() && got.total_insts == new.total_insts;
            assert!(
                matches_old || matches_new,
                "{ctx}: target is neither complete-old nor complete-new \
                 ({} checkpoints, {} insts)",
                got.checkpoints.len(),
                got.total_insts
            );
        }
        Err(StoreError::NotFound) => {
            assert!(old.is_none(), "{ctx}: pre-existing target vanished");
        }
        Err(e) => panic!("{ctx}: target load must never error after recovery: {e}"),
    }
    // No temp litter survives the reopen (owner pid in our temps is
    // this live process, so craft none here — the sweep-specific test
    // covers dead-pid temps; what we assert is no *undead* litter
    // breaks entries()).
    for kind in [FileKind::Checkpoints, FileKind::Results] {
        if let Ok(rd) = std::fs::read_dir(dir.join(kind.dir())) {
            for e in rd.flatten() {
                let name = e.file_name().to_string_lossy().into_owned();
                assert!(
                    !name.ends_with(".partial"),
                    "{ctx}: partial file leaked: {name}"
                );
            }
        }
    }
}

/// How many `StoreIo` operations one open+save of the target costs
/// (measured against a fault-free plan on a pristine copy of the
/// baseline) — the sweep bound.
fn count_ops(baseline: &Path, new: &dca_prog::FastForward) -> u64 {
    // One arena per baseline: tests run concurrently, and a shared
    // directory lets one test delete another's half-written store.
    let name = baseline.file_name().expect("arena path").to_string_lossy();
    let dir = arena(&format!("countops-{name}"));
    copy_dir(baseline, &dir);
    let io = Arc::new(FaultIo::new(FaultPlan::default()));
    let counter: Arc<FaultIo> = Arc::clone(&io);
    let store = Store::open_with_io(&dir, io);
    store.save_checkpoints(&target_key(), new).expect("fault-free save");
    counter.ops()
}

/// Builds the baseline directory: neighbour shard always present,
/// target shard present iff `with_old`.
fn baseline(name: &str, with_old: bool) -> std::path::PathBuf {
    let dir = arena(name);
    let store = Store::open(&dir);
    store.save_checkpoints(&neighbour_key(), &stream(30)).unwrap();
    if with_old {
        store.save_checkpoints(&target_key(), &stream(10)).unwrap();
    }
    dir
}

/// Kill-at-every-point sweep, with and without pre-existing old state:
/// the process dies at operation k (k and everything after fails) for
/// every k up to one past the fault-free operation count.
#[test]
fn kill_at_every_operation_recovers_old_or_new() {
    for with_old in [false, true] {
        let base = baseline(&format!("kill-base-{with_old}"), with_old);
        let new = stream(60);
        let old = with_old.then(|| stream(10));
        let total = count_ops(&base, &new);
        assert!(total >= 4, "expected at least open+mkdir+write+rename, got {total}");
        for k in 0..=total {
            let dir = arena(&format!("kill-{with_old}-{k}"));
            copy_dir(&base, &dir);
            let io = Arc::new(FaultIo::new(FaultPlan::kill_at(k)));
            let store = Store::open_with_io(&dir, io);
            // The save may fail — the "process" is dying — but must
            // never panic and never corrupt.
            let _ = store.save_checkpoints(&target_key(), &new);
            drop(store);
            assert_recovered(&dir, old.as_ref(), &new, &format!("kill_at({k}), with_old={with_old}"));
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Every fault kind at every operation index, process surviving: the
/// save reports an error (or absorbed it in best-effort housekeeping),
/// the store stays consistent, and — because the process lives — an
/// immediate retry lands the new state.
#[test]
fn every_fault_kind_at_every_operation_is_survivable() {
    let base = baseline("kinds-base", true);
    let new = stream(60);
    let old = stream(10);
    let total = count_ops(&base, &new);
    let kinds = [
        FaultKind::Fail,
        FaultKind::ShortWrite(7),
        FaultKind::TornRename,
        FaultKind::Enospc,
    ];
    for kind in kinds {
        for k in 0..total {
            let dir = arena("kinds-run");
            copy_dir(&base, &dir);
            let io = Arc::new(FaultIo::new(FaultPlan::fail_at(k, kind)));
            let store = Store::open_with_io(&dir, io);
            let first = store.save_checkpoints(&target_key(), &new);
            // Retry with the one-shot fault consumed: must succeed and
            // land the complete new state via the same store handle.
            if first.is_err() {
                store
                    .save_checkpoints(&target_key(), &new)
                    .unwrap_or_else(|e| panic!("retry after {kind:?}@{k} failed: {e}"));
            }
            let got = store.load_checkpoints(&target_key()).expect("post-retry load");
            assert_eq!(got.checkpoints.len(), new.checkpoints.len());
            drop(store);
            assert_recovered(&dir, Some(&old), &new, &format!("{kind:?}@{k}"));
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// ENOSPC on the shard write surfaces as the dedicated
/// [`StoreError::Full`] with no partial destination file and no temp
/// litter.
#[test]
fn enospc_is_full_and_leaves_nothing_behind() {
    let base = baseline("enospc-base", false);
    let new = stream(60);
    let total = count_ops(&base, &new);
    let mut saw_full = false;
    for k in 0..total {
        let dir = arena("enospc-run");
        copy_dir(&base, &dir);
        let io = Arc::new(FaultIo::new(FaultPlan::fail_at(k, FaultKind::Enospc)));
        let store = Store::open_with_io(&dir, io);
        match store.save_checkpoints(&target_key(), &new) {
            Err(StoreError::Full { path }) => {
                saw_full = true;
                assert!(!path.exists(), "no partial destination on ENOSPC");
                let ck = dir.join(FileKind::Checkpoints.dir());
                if let Ok(rd) = std::fs::read_dir(&ck) {
                    for e in rd.flatten() {
                        assert!(
                            !e.file_name().to_string_lossy().starts_with(".tmp-"),
                            "temp cleaned up after ENOSPC"
                        );
                    }
                }
            }
            Err(StoreError::Io(_)) | Ok(_) => {} // fault hit housekeeping ops
            Err(e) => panic!("unexpected error class on ENOSPC@{k}: {e}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(saw_full, "the sweep must hit the write path at least once");
}

/// Seeded deterministic fault plans: a quick randomized layer over the
/// same invariant, reproducible from the printed seed.
#[test]
fn seeded_fault_plans_recover() {
    let base = baseline("seeded-base", true);
    let new = stream(60);
    let old = stream(10);
    let total = count_ops(&base, &new);
    for seed in 0..48u64 {
        let dir = arena("seeded-run");
        copy_dir(&base, &dir);
        let plan = FaultPlan::seeded(seed, total);
        let io = Arc::new(FaultIo::new(plan.clone()));
        let store = Store::open_with_io(&dir, io);
        let _ = store.save_checkpoints(&target_key(), &new);
        drop(store);
        assert_recovered(&dir, Some(&old), &new, &format!("seed {seed} ({plan:?})"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A crash's leftover temp (owner pid dead) is swept at the next open;
/// a live writer's temp is not.
#[test]
fn reopen_sweeps_dead_owner_temps() {
    let dir = baseline("sweep", true);
    let ck = dir.join(FileKind::Checkpoints.dir());
    let dead = ck.join(".tmp-999999999-0-ck_crash.dcc");
    std::fs::write(&dead, b"torn").unwrap();
    let live = ck.join(format!(".tmp-{}-0-ck_inflight.dcc", std::process::id()));
    std::fs::write(&live, b"in flight").unwrap();
    let store = Store::open(&dir);
    assert!(!dead.exists(), "dead-owner temp swept at open");
    assert!(live.exists(), "live writer's temp untouched");
    assert!(store.load_checkpoints(&target_key()).is_ok());
    std::fs::remove_file(&live).ok();
}

/// A store whose directory is actually a regular *file* (maximally
/// broken) still opens, loads answer NotFound-or-Io, saves fail with a
/// clean error — nothing panics.
#[test]
fn broken_store_root_degrades_cleanly() {
    let path = std::env::temp_dir().join("dca-store-crash-notadir");
    std::fs::remove_dir_all(&path).ok();
    std::fs::remove_file(&path).ok();
    std::fs::write(&path, b"i am a file, not a directory").unwrap();
    let store = Store::open(&path);
    assert!(store.load_checkpoints(&target_key()).is_err());
    assert!(store.save_checkpoints(&target_key(), &stream(5)).is_err());
    assert_eq!(store.verify().len(), 0);
    let s = store.stat();
    assert_eq!(s.checkpoint_files.0 + s.result_files.0, 0);
    std::fs::remove_file(&path).ok();
}

/// An always-failing filesystem (every operation dead from op 0):
/// open, load, save, verify, stat, gc — everything returns, with
/// errors where errors are due, and nothing panics.
#[test]
fn dead_filesystem_never_panics() {
    let dir = arena("deadfs");
    let io = Arc::new(FaultIo::new(FaultPlan::kill_at(0)));
    let store = Store::open_with_io(&dir, io);
    assert!(store.load_checkpoints(&target_key()).is_err());
    assert!(store.save_checkpoints(&target_key(), &stream(5)).is_err());
    assert!(store.load_checkpoints_covering(&target_key()).is_err());
    assert_eq!(store.verify().len(), 0);
    store.stat();
    store.gc();
    assert!(matches!(
        store.try_lock(FileKind::Checkpoints, "x.dcc"),
        dca_store::LockAttempt::Unavailable(_)
    ));
}
