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
//! timestamp-age fallback, and broken by a rename-based takeover: the
//! breaker renames the lock to a private name, and deletes it only when
//! the moved file holds exactly the content it judged stale. Anything
//! else — a fresh lock a faster breaker created in the meantime — is
//! put back, so two breakers of one dead lock never both hold it. The
//! guard's `Drop` re-reads the lock and only unlinks it when the content
//! is still its own token, so a broken-and-retaken lock is never stolen
//! back.

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
/// both use it, so they cannot drift apart.
pub const STALE_AFTER: Duration = Duration::from_secs(600);

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
fn holder_live(info: &LockInfo, mtime: Option<SystemTime>) -> bool {
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
        Some(a) => a < STALE_AFTER,
        None => true, // unknowable: presume live, never steal
    }
}

/// Parses the lock at `path`, read as `bytes`, with whether its owner
/// is live. `None` on garbage content.
fn judge(io: &Arc<dyn StoreIo>, path: &Path, bytes: &[u8]) -> Option<(LockInfo, bool)> {
    let info = parse(bytes)?;
    let mtime = io.metadata(path).ok().and_then(|(_, m)| m);
    let live = holder_live(&info, mtime);
    Some((info, live))
}

/// Is the lock at `path`, read as `bytes`, abandoned? Garbage content
/// is; parsed content is when its owner is not live.
fn is_stale(io: &Arc<dyn StoreIo>, path: &Path, bytes: &[u8]) -> bool {
    !judge(io, path, bytes).is_some_and(|(_, live)| live)
}

/// What [`break_stale`] found at the lock path.
#[derive(Debug, PartialEq, Eq)]
enum Takeover {
    /// The judged lock was there, and this call deleted it.
    Broken,
    /// The path was already empty: a peer moved the lock away first.
    Gone,
    /// The path held another lock, which stays in place.
    Held,
}

/// Breaks the lock at `path` that its caller read as `judged` and found
/// stale.
///
/// A plain unlink here would race a second breaker of the same dead
/// lock: the faster one unlinks it and creates its own fresh lock, and
/// the slower one then unlinks *that*. So the breaker renames the lock
/// to a private name first (only one breaker can move any given file)
/// and deletes the moved file only when it is still the content it
/// judged; a fresh lock it moved by mistake goes back, with its
/// content, under an exclusive create.
fn break_stale(io: &Arc<dyn StoreIo>, path: &Path, judged: &[u8]) -> Takeover {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("lock");
    let aside = path.with_file_name(crate::shard::temp_name(name));
    match io.rename(path, &aside) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Takeover::Gone,
        Err(_) => return Takeover::Held,
    }
    match io.read(&aside) {
        Ok(moved) if moved == judged => {
            dca_obs::metrics().lock_takeovers_total.inc();
            let _ = io.remove_file(&aside);
            Takeover::Broken
        }
        Ok(moved) => {
            let _ = io.create_exclusive(path, &moved);
            let _ = io.remove_file(&aside);
            Takeover::Held
        }
        Err(_) => {
            let _ = io.rename(&aside, path);
            Takeover::Held
        }
    }
}

/// One non-blocking attempt to take the lock at `path` (the parent
/// directory must already exist). Detects and breaks stale locks:
/// owner provably dead, or unparseable/ancient content.
pub(crate) fn try_acquire(io: &Arc<dyn StoreIo>, path: &Path) -> LockAttempt {
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
                let judged = match io.read(path) {
                    Ok(bytes) => bytes,
                    // Holder released between create and read — the
                    // path is free now, go straight to round 2. Never
                    // unlink here: a peer may already have re-created
                    // the lock, and it is live.
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                    Err(e) => return LockAttempt::Unavailable(e.to_string()),
                };
                // Between the break and our create another process may
                // take the free path — then round 2 reports Busy, which
                // is correct (someone *live* holds it).
                let freed =
                    is_stale(io, path, &judged) && break_stale(io, path, &judged) != Takeover::Held;
                if !freed {
                    return LockAttempt::Busy;
                }
            }
            Err(e) => return LockAttempt::Unavailable(e.to_string()),
        }
    }
    LockAttempt::Busy
}

/// Removes the lock at `path` if it is abandoned (the gc sweep), by the
/// same takeover as [`try_acquire`]. Returns whether this call removed
/// it.
pub(crate) fn sweep(io: &Arc<dyn StoreIo>, path: &Path) -> bool {
    let Ok(bytes) = io.read(path) else {
        return false;
    };
    is_stale(io, path, &bytes) && break_stale(io, path, &bytes) == Takeover::Broken
}

/// Reads who holds the lock at `path`, and whether that owner is live.
/// `None` when the lock does not exist or cannot be read.
pub(crate) fn holder(io: &Arc<dyn StoreIo>, path: &Path) -> Option<(LockInfo, bool)> {
    judge(io, path, &io.read(path).ok()?)
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
        let g = match try_acquire(&io, &p) {
            LockAttempt::Acquired(g) => g,
            other => panic!("expected acquire, got {other:?}"),
        };
        assert!(p.exists());
        // Same live pid (us) holds it: busy.
        assert!(matches!(try_acquire(&io, &p), LockAttempt::Busy));
        let (info, live) = holder(&io, &p).unwrap();
        assert_eq!(info.pid, std::process::id());
        assert!(live);
        drop(g);
        assert!(!p.exists(), "drop releases");
        assert!(matches!(try_acquire(&io, &p), LockAttempt::Acquired(_)));
    }

    #[test]
    fn dead_owner_lock_is_taken_over() {
        let d = arena("stale");
        let p = d.join("s.lock");
        let io = io();
        // A pid far beyond any real pid space: provably dead on Linux.
        std::fs::write(&p, b"DCALOCK1 pid=999999999 ts=0 seq=0\n").unwrap();
        match try_acquire(&io, &p) {
            LockAttempt::Acquired(g) => {
                let (info, live) = holder(&io, &p).unwrap();
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
        assert!(matches!(try_acquire(&io, &p), LockAttempt::Acquired(_)));
    }

    #[test]
    fn taken_over_lock_is_not_stolen_back_on_drop() {
        let d = arena("steal");
        let p = d.join("s.lock");
        let io = io();
        let g = match try_acquire(&io, &p) {
            LockAttempt::Acquired(g) => g,
            other => panic!("{other:?}"),
        };
        // Simulate a peer breaking our lock and writing its own.
        std::fs::write(&p, b"DCALOCK1 pid=999999998 ts=0 seq=0\n").unwrap();
        drop(g); // must NOT unlink the peer's lock
        assert!(p.exists());
        assert_eq!(parse(&std::fs::read(&p).unwrap()).unwrap().pid, 999999998);
    }

    /// The real filesystem with a scripted `read`: deterministic
    /// interleavings of racing lock takers.
    struct ScriptedRead<F>(F);

    impl<F> std::fmt::Debug for ScriptedRead<F> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("ScriptedRead")
        }
    }

    impl<F: Fn(&Path) -> std::io::Result<Vec<u8>> + Send + Sync> StoreIo for ScriptedRead<F> {
        fn read(&self, p: &Path) -> std::io::Result<Vec<u8>> {
            (self.0)(p)
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
        let _peer = match try_acquire(&io(), &p) {
            LockAttempt::Acquired(g) => g,
            other => panic!("{other:?}"),
        };
        let racing: Arc<dyn StoreIo> =
            Arc::new(ScriptedRead(|_: &Path| Err(std::io::ErrorKind::NotFound.into())));
        assert!(matches!(try_acquire(&racing, &p), LockAttempt::Busy));
        assert_eq!(
            parse(&std::fs::read(&p).unwrap()).unwrap().pid,
            std::process::id(),
            "the peer's lock is intact"
        );
    }

    /// Two breakers of one dead lock: ours reads the dead content, then
    /// — before it acts on what it read — a peer breaks the same lock
    /// and takes it. Returns our I/O and the peer's guard (set once the
    /// script has run).
    fn peer_breaks_after_our_read(
        p: &Path,
    ) -> (Arc<dyn StoreIo>, Arc<std::sync::Mutex<Option<StoreLock>>>) {
        std::fs::write(p, b"DCALOCK1 pid=999999999 ts=0 seq=0\n").unwrap();
        let peer = Arc::new(std::sync::Mutex::new(None));
        let (lock, slot) = (p.to_path_buf(), Arc::clone(&peer));
        let ours = ScriptedRead(move |path: &Path| {
            let bytes = RealIo.read(path)?;
            let mut slot = slot.lock().unwrap();
            if path == lock && slot.is_none() {
                match try_acquire(&io(), path) {
                    LockAttempt::Acquired(g) => *slot = Some(g),
                    other => panic!("the peer could not break the dead lock: {other:?}"),
                }
            }
            Ok(bytes)
        });
        (Arc::new(ours), peer)
    }

    /// The slower breaker of a dead lock finds the faster one's fresh
    /// lock where the dead one was: it must leave it in place and
    /// report Busy, not take it over as well.
    #[test]
    fn second_breaker_of_a_dead_lock_leaves_the_first_ones_lock() {
        let d = arena("double-takeover");
        let p = d.join("s.lock");
        let (ours, peer) = peer_breaks_after_our_read(&p);
        assert!(matches!(try_acquire(&ours, &p), LockAttempt::Busy));
        let guard = peer.lock().unwrap().take().expect("the script ran");
        assert_eq!(std::fs::read(&p).unwrap(), guard.token.as_bytes(), "peer still holds it");
        let names: Vec<_> = std::fs::read_dir(&d).unwrap().flatten().map(|e| e.file_name()).collect();
        assert_eq!(names, ["s.lock"], "nothing left aside");
        drop(guard);
        assert!(!p.exists(), "the peer's guard still releases its lock");
    }

    /// The gc sweep judges a lock by the same rule: a dead lock a peer
    /// broke and re-took after the sweep read it survives the sweep.
    #[test]
    fn sweep_leaves_a_lock_retaken_after_its_read() {
        let d = arena("sweep-retaken");
        let p = d.join("s.lock");
        let (ours, peer) = peer_breaks_after_our_read(&p);
        assert!(!sweep(&ours, &p));
        let guard = peer.lock().unwrap().take().expect("the script ran");
        assert_eq!(std::fs::read(&p).unwrap(), guard.token.as_bytes());
        // A dead lock nobody races for is swept.
        drop(guard);
        std::fs::write(&p, b"DCALOCK1 pid=999999999 ts=0 seq=0\n").unwrap();
        assert!(sweep(&io(), &p));
        assert!(!p.exists());
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
                        if let LockAttempt::Acquired(g) = try_acquire(&io, &p) {
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
        assert!(matches!(try_acquire(&io(), &p), LockAttempt::Unavailable(_)));
    }
}
