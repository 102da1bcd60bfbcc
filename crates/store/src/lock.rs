//! Advisory per-shard file locks.
//!
//! The protocol (DESIGN.md §10): a writer creates
//! `locks/<shard-file-name>.lock` exclusively and atomically with its
//! content ([`crate::io::StoreIo::create_exclusive`]: a private temp
//! hard-linked into place) — a token of the owner pid, a timestamp and
//! a per-process sequence number. Readers never
//! lock (shard renames are atomic, so a reader sees the old or the new
//! shard, never a mix); writers hold the lock across the
//! read-check/compute/write critical section so that N concurrent
//! `Lab` processes elect exactly one computer per shard
//! (first-writer-wins).
//!
//! Stale locks — left by a writer that died without unlinking — are
//! detected by owner liveness (`/proc/<pid>` on Linux) with a
//! timestamp-age fallback, and broken by deleting the lock file and
//! retrying the exclusive create. The guard's `Drop` re-reads the lock
//! and only unlinks it when the content is still its own token, so a
//! broken-and-retaken lock is never stolen back.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use crate::io::StoreIo;

/// Age past which an artefact whose owner's liveness cannot be
/// determined is presumed abandoned (the pid-liveness probe is
/// authoritative when it works; this bounds the damage when it does
/// not). This is the **single** staleness threshold of the store: lock
/// takeover and the orphaned-temp sweep ([`crate::shard::sweep_temps`])
/// both use it, and [`crate::Store::with_stale_after`] overrides both
/// together — they cannot drift apart.
pub const DEFAULT_STALE_AFTER: Duration = Duration::from_secs(600);

/// Magic first token of every lock file.
const LOCK_MAGIC: &str = "DCALOCK1";

/// Per-process sequence number, so two locks taken by the same pid are
/// distinguishable (guards each drop only their own token).
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Parsed content of a lock file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockInfo {
    /// Owner process id.
    pub pid: u32,
    /// Unix timestamp (seconds) at acquisition.
    pub ts_secs: u64,
}

/// `Some(alive?)` when the platform can probe pid liveness, `None`
/// when it cannot (callers then fall back to timestamp age).
pub fn pid_alive(pid: u32) -> Option<bool> {
    if cfg!(target_os = "linux") {
        Some(Path::new(&format!("/proc/{pid}")).exists())
    } else {
        None
    }
}

fn make_token() -> String {
    let pid = std::process::id();
    let ts = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    format!("{LOCK_MAGIC} pid={pid} ts={ts} seq={seq}\n")
}

/// Parses a lock file's content; `None` on garbage (a garbage lock is
/// treated as stale).
pub fn parse(bytes: &[u8]) -> Option<LockInfo> {
    let s = std::str::from_utf8(bytes).ok()?;
    let mut words = s.split_whitespace();
    if words.next()? != LOCK_MAGIC {
        return None;
    }
    let mut pid = None;
    let mut ts = None;
    for w in words {
        if let Some(v) = w.strip_prefix("pid=") {
            pid = v.parse().ok();
        } else if let Some(v) = w.strip_prefix("ts=") {
            ts = v.parse().ok();
        }
    }
    Some(LockInfo {
        pid: pid?,
        ts_secs: ts?,
    })
}

/// Outcome of a single, non-blocking lock attempt.
#[derive(Debug)]
pub enum LockAttempt {
    /// We hold the lock; dropping the guard releases it.
    Acquired(StoreLock),
    /// Another live owner holds it — retry later or degrade.
    Busy,
    /// The lock directory itself cannot be used (read-only or dead
    /// filesystem) — degrade immediately, waiting will not help.
    Unavailable(String),
}

/// An acquired advisory lock; released (content-checked unlink) on
/// drop.
#[derive(Debug)]
pub struct StoreLock {
    io: Arc<dyn StoreIo>,
    path: PathBuf,
    token: String,
}

impl StoreLock {
    /// The lock file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        // Unlink only if the file still holds our token: if a peer
        // (wrongly) judged us dead and took the lock over, deleting
        // *their* lock here would let a third writer in.
        if let Ok(bytes) = self.io.read(&self.path) {
            if bytes == self.token.as_bytes() {
                let _ = self.io.remove_file(&self.path);
            }
        }
    }
}

/// Is this lock's owner live? Liveness probe first, timestamp age as
/// the fallback when probing is impossible.
fn holder_live(info: &LockInfo, mtime: Option<SystemTime>, stale_after: Duration) -> bool {
    if let Some(alive) = pid_alive(info.pid) {
        return alive;
    }
    let age_from_ts = SystemTime::UNIX_EPOCH
        .checked_add(Duration::from_secs(info.ts_secs))
        .and_then(|t| SystemTime::now().duration_since(t).ok());
    let age = age_from_ts.or_else(|| {
        mtime.and_then(|m| SystemTime::now().duration_since(m).ok())
    });
    match age {
        Some(a) => a < stale_after,
        None => true, // unknowable: presume live, never steal
    }
}

/// One non-blocking attempt to take the lock at `path` (the parent
/// directory must already exist). Detects and breaks stale locks:
/// owner provably dead, or unparseable/ancient content.
pub(crate) fn try_acquire(
    io: &Arc<dyn StoreIo>,
    path: &Path,
    stale_after: Duration,
) -> LockAttempt {
    let token = make_token();
    // Two rounds: the second only after breaking a stale lock (or when
    // the holder vanished between our probe and our create).
    for round in 0..2 {
        match io.create_exclusive(path, token.as_bytes()) {
            Ok(()) => {
                return LockAttempt::Acquired(StoreLock {
                    io: Arc::clone(io),
                    path: path.to_path_buf(),
                    token,
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                if round == 1 {
                    return LockAttempt::Busy;
                }
                let stale = match io.read(path) {
                    Ok(bytes) => {
                        let mtime = io.metadata(path).ok().and_then(|(_, m)| m);
                        match parse(&bytes) {
                            Some(info) => !holder_live(&info, mtime, stale_after),
                            None => true, // garbage content: abandoned
                        }
                    }
                    // Holder released between create and read — the
                    // path is free now, go straight to round 2. Never
                    // unlink here: a peer may already have re-created
                    // the lock, and it is live.
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                    Err(e) => return LockAttempt::Unavailable(e.to_string()),
                };
                if !stale {
                    return LockAttempt::Busy;
                }
                // Takeover: unlink the stale lock, retry the create.
                // Between our unlink and our create another process may
                // do the same and win — then round 2 reports Busy,
                // which is correct (someone *live* holds it). One
                // window remains: two breakers of the *same* dead lock,
                // where the slower unlinks the faster's fresh lock; it
                // needs a dead owner, and costs one duplicate compute.
                dca_obs::metrics().lock_takeovers_total.inc();
                let _ = io.remove_file(path);
            }
            Err(e) => return LockAttempt::Unavailable(e.to_string()),
        }
    }
    LockAttempt::Busy
}

/// Reads who holds the lock at `path`, and whether that owner is live.
/// `None` when the lock does not exist or cannot be read.
pub(crate) fn holder(
    io: &Arc<dyn StoreIo>,
    path: &Path,
    stale_after: Duration,
) -> Option<(LockInfo, bool)> {
    let bytes = io.read(path).ok()?;
    let info = parse(&bytes)?;
    let mtime = io.metadata(path).ok().and_then(|(_, m)| m);
    let live = holder_live(&info, mtime, stale_after);
    Some((info, live))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::RealIo;

    fn arena(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dca-store-lock-{name}"));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn io() -> Arc<dyn StoreIo> {
        Arc::new(RealIo)
    }

    #[test]
    fn token_round_trips_through_parse() {
        let t = make_token();
        let info = parse(t.as_bytes()).unwrap();
        assert_eq!(info.pid, std::process::id());
        assert!(parse(b"garbage").is_none());
        assert!(parse(b"DCALOCK1 pid=x ts=y").is_none());
    }

    #[test]
    fn acquire_release_reacquire() {
        let d = arena("cycle");
        let p = d.join("s.lock");
        let io = io();
        let g = match try_acquire(&io, &p, DEFAULT_STALE_AFTER) {
            LockAttempt::Acquired(g) => g,
            other => panic!("expected acquire, got {other:?}"),
        };
        assert!(p.exists());
        // Same live pid (us) holds it: busy.
        assert!(matches!(
            try_acquire(&io, &p, DEFAULT_STALE_AFTER),
            LockAttempt::Busy
        ));
        let (info, live) = holder(&io, &p, DEFAULT_STALE_AFTER).unwrap();
        assert_eq!(info.pid, std::process::id());
        assert!(live);
        drop(g);
        assert!(!p.exists(), "drop releases");
        assert!(matches!(
            try_acquire(&io, &p, DEFAULT_STALE_AFTER),
            LockAttempt::Acquired(_)
        ));
    }

    #[test]
    fn dead_owner_lock_is_taken_over() {
        let d = arena("stale");
        let p = d.join("s.lock");
        let io = io();
        // A pid far beyond any real pid space: provably dead on Linux.
        std::fs::write(&p, b"DCALOCK1 pid=999999999 ts=0 seq=0\n").unwrap();
        match try_acquire(&io, &p, DEFAULT_STALE_AFTER) {
            LockAttempt::Acquired(g) => {
                let (info, live) = holder(&io, &p, DEFAULT_STALE_AFTER).unwrap();
                assert_eq!(info.pid, std::process::id());
                assert!(live);
                drop(g);
            }
            other => panic!("expected takeover, got {other:?}"),
        }
    }

    #[test]
    fn garbage_lock_is_taken_over() {
        let d = arena("garbage");
        let p = d.join("s.lock");
        let io = io();
        std::fs::write(&p, b"not a lock at all").unwrap();
        assert!(matches!(
            try_acquire(&io, &p, DEFAULT_STALE_AFTER),
            LockAttempt::Acquired(_)
        ));
    }

    #[test]
    fn taken_over_lock_is_not_stolen_back_on_drop() {
        let d = arena("steal");
        let p = d.join("s.lock");
        let io = io();
        let g = match try_acquire(&io, &p, DEFAULT_STALE_AFTER) {
            LockAttempt::Acquired(g) => g,
            other => panic!("{other:?}"),
        };
        // Simulate a peer breaking our lock and writing its own.
        std::fs::write(&p, b"DCALOCK1 pid=999999998 ts=0 seq=0\n").unwrap();
        drop(g); // must NOT unlink the peer's lock
        assert!(p.exists());
        assert_eq!(parse(&std::fs::read(&p).unwrap()).unwrap().pid, 999999998);
    }

    /// Sees every file as already gone on read — the holder released
    /// between a failed create and the read that follows it.
    #[derive(Debug)]
    struct ReadsVanished;

    impl StoreIo for ReadsVanished {
        fn read(&self, _: &Path) -> std::io::Result<Vec<u8>> {
            Err(std::io::ErrorKind::NotFound.into())
        }
        fn write_all(&self, p: &Path, b: &[u8]) -> std::io::Result<()> {
            RealIo.write_all(p, b)
        }
        fn create_exclusive(&self, p: &Path, b: &[u8]) -> std::io::Result<()> {
            RealIo.create_exclusive(p, b)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            RealIo.rename(from, to)
        }
        fn remove_file(&self, p: &Path) -> std::io::Result<()> {
            RealIo.remove_file(p)
        }
        fn create_dir_all(&self, p: &Path) -> std::io::Result<()> {
            RealIo.create_dir_all(p)
        }
        fn read_dir(&self, p: &Path) -> std::io::Result<Vec<(PathBuf, u64)>> {
            RealIo.read_dir(p)
        }
        fn metadata(&self, p: &Path) -> std::io::Result<(u64, Option<SystemTime>)> {
            RealIo.metadata(p)
        }
    }

    /// The holder released and a peer re-took the lock before we read
    /// it: the vanished read must not unlink the peer's live lock.
    #[test]
    fn vanished_holder_never_unlinks_a_peers_lock() {
        let d = arena("vanished");
        let p = d.join("s.lock");
        let _peer = match try_acquire(&io(), &p, DEFAULT_STALE_AFTER) {
            LockAttempt::Acquired(g) => g,
            other => panic!("{other:?}"),
        };
        let racing: Arc<dyn StoreIo> = Arc::new(ReadsVanished);
        assert!(matches!(
            try_acquire(&racing, &p, DEFAULT_STALE_AFTER),
            LockAttempt::Busy
        ));
        assert_eq!(
            parse(&std::fs::read(&p).unwrap()).unwrap().pid,
            std::process::id(),
            "the peer's lock is intact"
        );
    }

    /// Racing acquirers never hold the lock together: neither a lock
    /// read mid-create (empty) nor a holder that vanished before the
    /// read makes a peer's live lock look abandoned.
    #[test]
    fn racing_acquirers_never_hold_the_lock_together() {
        let d = arena("race");
        let p = d.join("s.lock");
        let holders = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let io = io();
                    for _ in 0..500 {
                        if let LockAttempt::Acquired(g) = try_acquire(&io, &p, DEFAULT_STALE_AFTER) {
                            let before = holders.fetch_add(1, Ordering::SeqCst);
                            std::thread::yield_now();
                            holders.fetch_sub(1, Ordering::SeqCst);
                            drop(g);
                            assert_eq!(before, 0, "two holders at once");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn missing_lock_dir_is_unavailable() {
        let d = arena("nodir");
        let p = d.join("absent-subdir").join("s.lock");
        assert!(matches!(
            try_acquire(&io(), &p, DEFAULT_STALE_AFTER),
            LockAttempt::Unavailable(_)
        ));
    }
}
