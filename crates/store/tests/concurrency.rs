//! Concurrency suite (ISSUE 6 tentpole): independent `Store` handles —
//! standing in for separate processes — hammer one directory with
//! mixed readers, writers, verifiers and collectors, and the store
//! must stay byte-consistent throughout: a reader sees a complete old
//! shard, a complete new shard, or a miss; never corruption. The
//! sharing protocol must elect exactly one computer per shard
//! (first-writer-wins), degrade when a lock never frees, never shrink
//! a stored interval prefix, and take dead-owner locks over.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dca_prog::{fast_forward, parse_asm, Memory};
use dca_store::io::{FaultIo, FaultKind, FaultPlan};
use dca_store::{
    CheckpointKey, FileStatus, IntervalRecord, LockAttempt, ResultKey, Store, StoreError,
};

fn arena(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("dca-store-conc-{name}"));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn stream(iters: u64) -> dca_prog::FastForward {
    let p = parse_asm(&format!(
        "e:\n li r1, #{iters}\n li r2, #8192\nl:\n st r1, 0(r2)\n add r2, r2, #8\n add r1, r1, #-1\n bne r1, r0, l\n halt",
    ))
    .unwrap();
    fast_forward(&p, Memory::new(), 25, u64::MAX)
}

fn key(workload: &str) -> CheckpointKey<'_> {
    CheckpointKey {
        workload,
        scale: "smoke",
        period: 25,
        max_insts: u64::MAX,
        fingerprint: 9,
        uarch: 0,
    }
}

/// ≥4 writers racing on the *same* shard (no locks — raw atomic-rename
/// semantics) while readers poll it: every read is a complete stream
/// or a miss, never an error; every entry verifies clean at the end.
#[test]
fn unlocked_racing_writers_never_corrupt_a_reader() {
    let dir = arena("race");
    let content = stream(40);
    let deadline = Instant::now() + Duration::from_millis(800);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let store = Store::open(&dir); // own handle, like a process
                while Instant::now() < deadline {
                    store.save_checkpoints(&key("shared"), &content).expect("save");
                }
            });
        }
        for _ in 0..3 {
            s.spawn(|| {
                let store = Store::open(&dir);
                while Instant::now() < deadline {
                    match store.load_checkpoints(&key("shared")) {
                        Ok(got) => {
                            assert_eq!(got.checkpoints.len(), content.checkpoints.len());
                            assert_eq!(got.total_insts, content.total_insts);
                        }
                        Err(StoreError::NotFound) => {} // before first rename lands
                        Err(e) => panic!("reader saw a torn shard: {e}"),
                    }
                }
            });
        }
    });
    let store = Store::open(&dir);
    for r in store.verify() {
        assert!(matches!(r.status, FileStatus::Ok { .. }), "{:?}", r.status);
    }
}

/// The checkpoint election: 6 handles race for one cold shard through
/// [`Store::fetch_or_compute_checkpoints`]; exactly one computes,
/// everyone ends with identical content, and no lock outlives it.
#[test]
fn lock_protocol_elects_exactly_one_computer() {
    let dir = arena("elect");
    let computes = AtomicU64::new(0);
    let content = stream(40);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                s.spawn(|| {
                    let store = Store::open(&dir); // own handle, like a process
                    let (got, _) = store.fetch_or_compute_checkpoints(&key("elected"), || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(30)); // "compute"
                        content.clone()
                    });
                    got.checkpoints.len()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), content.checkpoints.len());
        }
    });
    assert_eq!(computes.load(Ordering::SeqCst), 1, "first-writer-wins: one compute");
    // The winner's guard released its lock on drop.
    assert_eq!(Store::open(&dir).stat().live_locks, 0);
}

/// A permanently held shard lock (live owner that never publishes)
/// expires the lock-wait deadline into in-memory compute with
/// `from_store = false` and a counted metric — never an error, never a
/// hung run. The contender runs through a `FaultIo` store (armed,
/// non-firing plan), the injection layer of the crash sweeps.
#[test]
fn permanently_held_lock_degrades_with_a_counted_metric() {
    let dir = arena("held-lock");
    let name = key("wedged").file_name();
    // The wedged peer: holds the shard lock from a live pid (ours) and
    // never releases it.
    let holder = Store::open(&dir);
    let _guard = match holder.try_lock(&name) {
        LockAttempt::Acquired(g) => g,
        other => panic!("could not stage the held lock: {other:?}"),
    };

    let m = dca_obs::metrics();
    let expired_before = m.lock_deadline_expired_total.get();
    let io = Arc::new(FaultIo::new(FaultPlan::fail_at(u64::MAX, FaultKind::Fail)));
    let store = Store::open_with_io(&dir, io).with_lock_wait(Duration::from_millis(300));
    let content = stream(40);
    let computes = AtomicU64::new(0);
    let (got, from_store) = store.fetch_or_compute_checkpoints(&key("wedged"), || {
        computes.fetch_add(1, Ordering::SeqCst);
        content.clone()
    });
    assert!(!from_store, "deadline loser reports from_store = false");
    assert_eq!(computes.load(Ordering::SeqCst), 1);
    assert_eq!(got.checkpoints.len(), content.checkpoints.len());
    assert!(
        m.lock_deadline_expired_total.get() > expired_before,
        "the expiry is counted, not just logged"
    );
    // The loser computed without the lock, so it must not have
    // published the shard behind the holder's back.
    assert!(
        store.load_checkpoints(&key("wedged")).unwrap_err().is_not_found(),
        "no shard written without holding its lock"
    );
}

/// A stored interval prefix never shrinks: concurrent labs may decide
/// different adaptive budgets for one combination, and the shorter
/// save must not replace the longer one.
#[test]
fn stored_interval_prefix_survives_a_shorter_extend() {
    let dir = arena("never-shrink");
    let store = Store::open(&dir);
    let rkey = ResultKey {
        workload: "compress",
        scale: "smoke",
        machine: "clustered",
        geometry: 1,
        scheme: "Modulo",
        period: 25,
        warmup: 5,
        interval: 5,
        max_insts: 1000,
        warm_steering: false,
        continuous_warming: true,
        fingerprint: 9,
    };
    let records = |n: u64| -> Vec<IntervalRecord> {
        (0..n)
            .map(|i| IntervalRecord {
                warmed_insts: i,
                ..IntervalRecord::default()
            })
            .collect()
    };
    store.extend_intervals(&rkey, &records(5));
    store.extend_intervals(&rkey, &records(3));
    let stored = store.load_intervals(&rkey).unwrap();
    assert_eq!(stored.len(), 5, "the longer prefix survives");
    // A longer prefix still extends it.
    store.extend_intervals(&rkey, &records(7));
    assert_eq!(store.load_intervals(&rkey).unwrap().len(), 7);
    assert_eq!(store.stat().live_locks, 0);
}

/// A lock whose owner died (pid provably gone) is taken over rather
/// than waited on forever.
#[test]
fn dead_owner_lock_is_taken_over() {
    let dir = arena("takeover");
    let store = Store::open(&dir);
    let name = key("orphaned").file_name();
    let locks = dir.join("locks");
    std::fs::create_dir_all(&locks).unwrap();
    std::fs::write(
        locks.join(format!("{name}.lock")),
        b"DCALOCK1 pid=999999999 ts=0 seq=0\n",
    )
    .unwrap();
    assert_eq!(store.stat().stale_locks, 1);
    match store.try_lock(&name) {
        LockAttempt::Acquired(_g) => {}
        other => panic!("expected takeover of dead-owner lock, got {other:?}"),
    }
}

/// Mixed chaos: writers, readers, verify/gc and temp-droppers all
/// at once, across several shards; nothing panics, and the directory
/// verifies clean afterwards.
#[test]
fn mixed_readers_writers_and_maintenance() {
    let dir = arena("chaos");
    let contents: Vec<_> = (0..3).map(|i| stream(20 + i * 15)).collect();
    let names = ["w0", "w1", "w2"];
    let deadline = Instant::now() + Duration::from_millis(700);
    let dir = &dir;
    let contents = &contents;
    std::thread::scope(|s| {
        for (i, name) in names.iter().enumerate() {
            let content = &contents[i];
            s.spawn(move || {
                let store = Store::open(dir);
                while Instant::now() < deadline {
                    store.save_checkpoints(&key(name), content).expect("save");
                    std::thread::sleep(Duration::from_millis(3));
                }
            });
        }
        s.spawn(|| {
            let store = Store::open(dir);
            while Instant::now() < deadline {
                for (i, name) in names.iter().enumerate() {
                    match store.load_checkpoints(&key(name)) {
                        Ok(got) => assert_eq!(got.checkpoints.len(), contents[i].checkpoints.len()),
                        Err(StoreError::NotFound) => {}
                        Err(e) => panic!("torn read of {name}: {e}"),
                    }
                }
            }
        });
        s.spawn(|| {
            let store = Store::open(dir);
            while Instant::now() < deadline {
                // Maintenance passes must not delete healthy shards or
                // live-writer temps out from under the writers.
                for r in store.verify() {
                    assert!(
                        !matches!(r.status, FileStatus::Corrupt { .. }),
                        "verify saw corruption mid-run: {:?}",
                        r.status
                    );
                }
                store.gc();
                std::thread::sleep(Duration::from_millis(11));
            }
        });
    });
    let store = Store::open(dir);
    let reports = store.verify();
    assert_eq!(reports.len(), 3);
    for r in reports {
        assert!(matches!(r.status, FileStatus::Ok { .. }), "{:?}", r.status);
    }
    for (i, name) in names.iter().enumerate() {
        let got = store.load_checkpoints(&key(name)).unwrap();
        assert_eq!(got.checkpoints.len(), contents[i].checkpoints.len());
    }
}
