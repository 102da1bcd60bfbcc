//! # dca-store — crash-safe concurrent checkpoint & result store
//!
//! PR 2's sampled-simulation harness (DESIGN.md §7) made paper-scale
//! runs affordable *within one process*; this crate makes them cheap
//! **across** processes — and, since the sharded rebuild (DESIGN.md
//! §10), safe across *concurrent* processes and crashes. It persists,
//! as versioned binary shard files under per-kind subdirectories:
//!
//! * **checkpoint streams** (`ck/ck_*.dcc`) — the per-benchmark
//!   functional fast-forward output, keyed by `(workload, scale,
//!   period, max_insts)` plus the workload fingerprint and the
//!   interpreter version, with copy-on-write pages deduplicated; and
//! * **interval results** (`rs/rs_*.dcr`) — the per-interval
//!   `SimStats` of one `(workload, scale, machine, scheme, sampling
//!   parameters)` combination, in checkpoint order, exact to the
//!   counter.
//!
//! Serialization is hand-rolled little-endian (the build environment
//! has no crates.io access): every shard carries a checksummed header,
//! checksummed length-framed records and a whole-file FNV-1a checksum,
//! so a truncated or bit-flipped shard is rejected as a unit — callers
//! fall back to recomputation for *that shard only*, never to half a
//! stream and never at the cost of its neighbours (see
//! `tests/store_robustness.rs` and `tests/crash_recovery.rs`).
//!
//! Durability and concurrency (DESIGN.md §10):
//!
//! * all filesystem access goes through an injectable [`io::StoreIo`]
//!   — tests drive deterministic fault plans ([`io::FaultIo`]) through
//!   every write to prove each crash point recovers;
//! * writes are crash-atomic (unique temp sibling + fsync + rename);
//!   orphaned temps are swept at [`Store::open`];
//! * writers coordinate through advisory per-shard lock files
//!   ([`Store::try_lock`]) with dead-owner takeover, and the store owns
//!   the sharing protocol built on them:
//!   [`Store::fetch_or_compute_checkpoints`] elects one computer per
//!   checkpoint shard across N concurrent `Lab`/CLI processes, and
//!   [`Store::extend_intervals`] never shrinks a stored result prefix;
//! * a full disk surfaces as [`StoreError::Full`], a damaged shard as
//!   [`StoreError::Corrupt`] — both degrade to in-memory recompute in
//!   callers, never into a failed run.
//!
//! Invalidation is by *versions in the header* plus *fingerprints in
//! the meta record* (DESIGN.md §8): `dca_prog::INTERP_VERSION` guards
//! the functional semantics both file kinds depend on,
//! `dca_sim::TIMING_VERSION` guards result files, and the workload
//! fingerprint guards against generator changes. The store is a
//! recomputable cache, so there is one on-disk format: [`Store::verify`]
//! reports whatever no longer matches — including root-level files an
//! older, pre-shard store left behind — and [`Store::gc`] deletes it.
//!
//! # Example
//!
//! ```
//! use dca_prog::{fast_forward, parse_asm, Memory};
//! use dca_store::{CheckpointKey, Store};
//!
//! let dir = std::env::temp_dir().join("dca-store-doc");
//! let store = Store::open(&dir);
//! let prog = parse_asm("e:\n li r1, #9\nl:\n add r1, r1, #-1\n bne r1, r0, l\n halt")?;
//! let ff = fast_forward(&prog, Memory::new(), 5, u64::MAX);
//! let key = CheckpointKey {
//!     workload: "doc", scale: "smoke", period: 5, max_insts: u64::MAX, fingerprint: 42,
//!     uarch: 0,
//! };
//! store.save_checkpoints(&key, &ff)?;
//! let restored = store.load_checkpoints(&key)?;
//! assert_eq!(restored.checkpoints.len(), ff.checkpoints.len());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoints;
pub mod file;
pub mod io;
pub mod lock;
mod results;
pub mod shard;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use dca_obs::progress;
use dca_prog::FastForward;

pub use checkpoints::CheckpointKey;
pub use file::FileKind;
pub use lock::{LockAttempt, StoreLock};
pub use results::{IntervalRecord, ResultKey};

use file::FileHeader;
use io::{RealIo, StoreIo};

/// Why a store entry could not be used.
#[derive(Debug)]
pub enum StoreError {
    /// No entry for the key — the ordinary cold-store case.
    NotFound,
    /// The filesystem failed underneath the store.
    Io(std::io::Error),
    /// The device is out of space (`ENOSPC`). The atomic write path
    /// guarantees no partial destination file exists; callers keep the
    /// computed value in memory and carry on.
    Full {
        /// Destination that could not be written.
        path: PathBuf,
    },
    /// The file is structurally damaged (bad magic, checksum mismatch,
    /// truncated record, malformed payload). Never partially decoded.
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// What failed.
        reason: String,
    },
    /// The file was produced by a different code version (container
    /// format, interpreter or timing model).
    Version {
        /// Offending file.
        path: PathBuf,
        /// Which version field mismatched.
        what: &'static str,
        /// Version recorded in the file.
        found: u32,
        /// Version the running code expects.
        expected: u32,
    },
    /// The file is structurally sound but keyed to content that no
    /// longer exists (e.g. a workload generator changed its output).
    Stale {
        /// Offending file.
        path: PathBuf,
        /// What went stale.
        reason: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound => write!(f, "no store entry"),
            StoreError::Io(e) => write!(f, "store I/O: {e}"),
            StoreError::Full { path } => {
                write!(f, "store device full (ENOSPC) writing {}", path.display())
            }
            StoreError::Corrupt { path, reason } => {
                write!(f, "corrupt store file {}: {reason}", path.display())
            }
            StoreError::Version {
                path,
                what,
                found,
                expected,
            } => write!(
                f,
                "store file {} has {what} version {found}, current is {expected}",
                path.display()
            ),
            StoreError::Stale { path, reason } => {
                write!(f, "stale store file {}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    /// `true` for the ordinary miss (no entry yet) — callers recompute
    /// silently; every other variant is worth a warning.
    pub fn is_not_found(&self) -> bool {
        matches!(self, StoreError::NotFound)
    }
}

/// Health of one store file, as reported by [`Store::verify`].
#[derive(Debug)]
pub enum FileStatus {
    /// Structurally sound and current.
    Ok {
        /// Number of records in the file.
        records: usize,
    },
    /// Structurally sound but produced under other code versions
    /// (including older container formats); GC removes it.
    StaleVersion {
        /// Which version field mismatched.
        what: &'static str,
        /// Version recorded in the file.
        found: u32,
        /// Version the running code expects.
        expected: u32,
    },
    /// Structural damage; GC removes it.
    Corrupt {
        /// What failed.
        reason: String,
    },
    /// The file could not be read at all (permissions, dying disk) —
    /// its health is unknown, so GC leaves it alone.
    IoError {
        /// The I/O failure.
        reason: String,
    },
}

/// One store file with its health.
#[derive(Debug)]
pub struct FileReport {
    /// Path of the file.
    pub path: PathBuf,
    /// Size in bytes.
    pub bytes: u64,
    /// Payload kind, when the header was readable.
    pub kind: Option<FileKind>,
    /// Verification outcome.
    pub status: FileStatus,
}

/// Per-shard detail row of [`Store::stat`].
#[derive(Debug)]
pub struct ShardStat {
    /// Shard file name (within `ck/` or `rs/`).
    pub name: String,
    /// Payload kind, when the header was readable.
    pub kind: Option<FileKind>,
    /// Size in bytes.
    pub bytes: u64,
    /// Intact records in the shard (frame-walk count).
    pub records: u64,
}

/// Per-lock detail row of [`Store::stat`].
#[derive(Debug)]
pub struct LockStat {
    /// Lock file name (within `locks/`).
    pub name: String,
    /// Owning process id, when the lock file parsed.
    pub pid: Option<u32>,
    /// Lock age in seconds (from its recorded acquisition time).
    pub age_secs: Option<u64>,
    /// Whether the owner is provably live.
    pub live: bool,
}

/// Aggregate directory statistics, as reported by [`Store::stat`].
#[derive(Debug, Default)]
pub struct StoreStat {
    /// Checkpoint-stream shards (count, total bytes).
    pub checkpoint_files: (u64, u64),
    /// Result shards (count, total bytes).
    pub result_files: (u64, u64),
    /// Shards whose header carries a non-current version.
    pub stale_files: u64,
    /// Shards whose header could not be read at all.
    pub unreadable_files: u64,
    /// Advisory locks currently held by live owners.
    pub live_locks: u64,
    /// Advisory locks whose owner is dead (swept by gc).
    pub stale_locks: u64,
    /// Per-shard detail (name order, readable shards only).
    pub shards: Vec<ShardStat>,
    /// Per-lock detail (name order).
    pub locks: Vec<LockStat>,
}

/// Result of a [`Store::gc`] pass.
#[derive(Debug, Default)]
pub struct GcReport {
    /// Files removed (corrupt, stale-version or orphaned temps).
    pub removed: u64,
    /// Bytes freed.
    pub freed_bytes: u64,
    /// Healthy files kept.
    pub kept: u64,
    /// Damaged shards *not* removed because a live writer holds their
    /// lock (its in-flight rename may already have healed them).
    pub skipped_locked: u64,
}

/// Handle on a store directory. All methods take `&self` and the
/// handle is `Send + Sync`, so one `Store` can be shared across the
/// Lab's worker threads; independent `Store`s (and processes) sharing
/// one directory coordinate through shard locks and atomic renames.
///
/// The handle is also `Clone` — the read-mostly concurrent access
/// path: a long-lived service (`dca serve`) opens the directory once
/// (paying the startup sweep once) and hands cheap clones,
/// which share the same instrumented I/O layer and settings, to every
/// `Lab` it constructs.
#[derive(Clone, Debug)]
pub struct Store {
    root: PathBuf,
    io: Arc<dyn StoreIo>,
    lock_wait: Duration,
}

impl Store {
    /// Opens a store rooted at `root` on the real filesystem. Startup
    /// housekeeping (best-effort, silent on a missing directory)
    /// sweeps orphaned temp files; nothing else on disk is touched —
    /// files of another format stay until [`Store::gc`] deletes them.
    /// The directory is created on first write.
    pub fn open(root: impl Into<PathBuf>) -> Store {
        Self::open_with_io(root, Arc::new(RealIo))
    }

    /// Opens a store whose every filesystem operation goes through
    /// `io` — the fault-injection entry point (see [`io::FaultIo`]).
    /// The given `io` is wrapped in an [`io::InstrumentedIo`], so every
    /// operation is traced and metered (a pass-through decorator: it
    /// does not perturb an inner [`io::FaultIo`]'s operation indices).
    pub fn open_with_io(root: impl Into<PathBuf>, io: Arc<dyn StoreIo>) -> Store {
        let store = Store {
            root: root.into(),
            io: Arc::new(io::InstrumentedIo::new(io)),
            lock_wait: Duration::from_secs(120),
        };
        store.startup();
        store
    }

    /// Sets how long [`Store::fetch_or_compute_checkpoints`] waits on
    /// a shard another live process holds locked before it computes
    /// without the store (default 120 s). A test seam: tests shorten
    /// it to reach the deadline path quickly.
    pub fn with_lock_wait(mut self, wait: Duration) -> Store {
        self.lock_wait = wait;
        self
    }

    /// The store directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where the shard for `name` of `kind` lives:
    /// `<root>/<ck|rs>/<name>`.
    pub fn shard_path(&self, kind: FileKind, name: &str) -> PathBuf {
        self.root.join(kind.dir()).join(name)
    }

    fn lock_path(&self, name: &str) -> PathBuf {
        self.root.join("locks").join(format!("{name}.lock"))
    }

    /// Best-effort open-time housekeeping: sweep orphaned temps
    /// everywhere we write them.
    fn startup(&self) {
        if self.io.metadata(&self.root).is_err() {
            return; // nothing on disk yet
        }
        for dir in [
            self.root.clone(),
            self.root.join(FileKind::Checkpoints.dir()),
            self.root.join(FileKind::Results.dir()),
        ] {
            shard::sweep_temps(&self.io, &dir);
        }
    }

    /// One non-blocking attempt to take the writer lock for the shard
    /// `name`. [`LockAttempt::Busy`] means a live writer is ahead;
    /// [`LockAttempt::Unavailable`] means the lock directory itself
    /// cannot be used (read-only store) — waiting will not help.
    pub fn try_lock(&self, name: &str) -> LockAttempt {
        let path = self.lock_path(name);
        if let Some(dir) = path.parent() {
            if let Err(e) = self.io.create_dir_all(dir) {
                return LockAttempt::Unavailable(e.to_string());
            }
        }
        let attempt = lock::try_acquire(&self.io, &path);
        if matches!(attempt, LockAttempt::Busy) {
            dca_obs::metrics().lock_busy_polls_total.inc();
        }
        attempt
    }

    /// `true` when a live process holds the writer lock for `name`.
    fn live_locked(&self, name: &str) -> bool {
        lock::holder(&self.io, &self.lock_path(name))
            .map(|(_, live)| live)
            .unwrap_or(false)
    }

    fn header_for(&self, kind: FileKind) -> FileHeader {
        FileHeader {
            kind,
            format_version: file::FORMAT_VERSION,
            interp_version: dca_prog::INTERP_VERSION,
            timing_version: match kind {
                FileKind::Checkpoints => 0,
                FileKind::Results => dca_sim::TIMING_VERSION,
            },
        }
    }

    fn check_versions(path: &Path, header: &FileHeader) -> Result<(), StoreError> {
        if header.interp_version != dca_prog::INTERP_VERSION {
            return Err(StoreError::Version {
                path: path.to_path_buf(),
                what: "interpreter",
                found: header.interp_version,
                expected: dca_prog::INTERP_VERSION,
            });
        }
        if header.kind == FileKind::Results && header.timing_version != dca_sim::TIMING_VERSION {
            return Err(StoreError::Version {
                path: path.to_path_buf(),
                what: "timing model",
                found: header.timing_version,
                expected: dca_sim::TIMING_VERSION,
            });
        }
        Ok(())
    }

    fn save(&self, name: &str, kind: FileKind, records: &[Vec<u8>]) -> Result<u64, StoreError> {
        let path = self.shard_path(kind, name);
        let dir = self.root.join(kind.dir());
        if let Err(e) = self.io.create_dir_all(&dir) {
            return Err(if io::is_enospc(&e) {
                StoreError::Full { path }
            } else {
                StoreError::Io(e)
            });
        }
        shard::write_shard(&self.io, &path, &self.header_for(kind), records)
    }

    fn load(&self, name: &str, kind: FileKind) -> Result<Vec<Vec<u8>>, StoreError> {
        let path = self.shard_path(kind, name);
        let bytes = match self.io.read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::NotFound)
            }
            Err(e) => return Err(StoreError::Io(e)),
        };
        let (header, records) = shard::read_shard(&bytes, &path)?;
        Self::check_versions(&path, &header)?;
        if header.kind != kind {
            return Err(StoreError::Corrupt {
                path,
                reason: "file kind does not match its extension".into(),
            });
        }
        Ok(records)
    }

    /// Persists a checkpoint stream, returning the bytes written.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure, [`StoreError::Full`]
    /// on `ENOSPC` — in both cases no partial shard is left behind.
    pub fn save_checkpoints(
        &self,
        key: &CheckpointKey<'_>,
        ff: &FastForward,
    ) -> Result<u64, StoreError> {
        self.save(&key.file_name(), FileKind::Checkpoints, &checkpoints::encode(key, ff))
    }

    /// Loads the checkpoint stream for `key`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] on a cold store; [`StoreError::Corrupt`] /
    /// [`StoreError::Version`] / [`StoreError::Stale`] when the entry
    /// cannot be used (callers recompute and overwrite).
    pub fn load_checkpoints(&self, key: &CheckpointKey<'_>) -> Result<FastForward, StoreError> {
        let name = key.file_name();
        let records = self.load(&name, FileKind::Checkpoints)?;
        checkpoints::decode(&self.shard_path(FileKind::Checkpoints, &name), key, &records)
    }

    /// Like [`Store::load_checkpoints`], but an exact-key miss may be
    /// served from the **prefix of a longer stored stream**: any entry
    /// with the same workload, period and fingerprint whose window
    /// covers `key.max_insts` — whatever scale name it was stored
    /// under — is truncated to the requested window (cross-scale
    /// checkpoint reuse, DESIGN.md §9). Sound because the fingerprint
    /// pins the exact program and initial memory, so the donor's
    /// dynamic stream *is* the requested stream continued; scales that
    /// generate different programs have different fingerprints and
    /// never alias. Donors are tried smallest covering window first
    /// (deterministic); unusable donors (corrupt, stale, other
    /// fingerprint) are skipped, never surfaced.
    ///
    /// # Errors
    ///
    /// Same classes as [`Store::load_checkpoints`];
    /// [`StoreError::NotFound`] when neither the exact key nor any
    /// covering prefix can serve it.
    pub fn load_checkpoints_covering(
        &self,
        key: &CheckpointKey<'_>,
    ) -> Result<FastForward, StoreError> {
        match self.load_checkpoints(key) {
            Err(e) if e.is_not_found() => {}
            other => return other,
        }
        let mut donors: Vec<(u64, String)> = Vec::new();
        for (path, _) in self.kind_entries(FileKind::Checkpoints) {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some((workload, scale, period, max, uarch)) = CheckpointKey::parse_file_name(name)
            else {
                continue;
            };
            // `>=`, not `>`: an equal window stored under a different
            // scale *name* (same fingerprint) serves the request as-is.
            // Streams warmed on a different microarchitectural substrate
            // carry incompatible embedded snapshots, so they never donate.
            if workload == key.workload
                && period == key.period
                && max >= key.max_insts
                && uarch == key.uarch
            {
                donors.push((max, scale.to_owned()));
            }
        }
        donors.sort();
        for (max_insts, scale) in &donors {
            let donor = CheckpointKey {
                scale,
                max_insts: *max_insts,
                ..*key
            };
            if let Ok(ff) = self.load_checkpoints(&donor) {
                return Ok(checkpoints::truncate_to_window(ff, key.max_insts));
            }
        }
        Err(StoreError::NotFound)
    }

    /// The checkpoint stream for `key`, from the store or from
    /// `compute`, with one computer per shard across every process
    /// sharing the directory (first-writer-wins). Returns the stream
    /// and whether it came from the store.
    ///
    /// The stream is loaded through [`Store::load_checkpoints_covering`]
    /// (a longer stored window serves a shorter request). On a miss the
    /// caller races its peers for the shard lock; the winner re-checks
    /// under the lock (a peer may have published while it waited),
    /// computes, saves and releases. Losers poll the shard with
    /// exponential backoff (10 ms doubling, capped at 250 ms) until the
    /// winner publishes or [`Store::with_lock_wait`]'s deadline passes.
    ///
    /// Never fails: a stale or corrupt entry goes through the election
    /// and the winner heals it; a lock directory that cannot be used,
    /// or a lock that never frees, computes in memory without saving,
    /// warns on stderr and reports `false`.
    pub fn fetch_or_compute_checkpoints(
        &self,
        key: &CheckpointKey<'_>,
        compute: impl FnOnce() -> FastForward,
    ) -> (FastForward, bool) {
        let what = format!("checkpoints for {}", key.workload);
        let name = key.file_name();
        let m = dca_obs::metrics();
        match self.load_checkpoints_covering(key) {
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
        let deadline = wait_t0 + self.lock_wait;
        let mut backoff = Duration::from_millis(10);
        let waited_ns = || wait_t0.elapsed().as_nanos() as u64;
        loop {
            match self.try_lock(&name) {
                LockAttempt::Acquired(_guard) => {
                    m.lock_elections_won_total.inc();
                    m.lock_wait_ns.record(waited_ns());
                    match self.load_checkpoints_covering(key) {
                        Ok(v) => return (v, true),
                        Err(e) if e.is_not_found() => {}
                        Err(e) => {
                            progress::warn(format!("[lab] store: {what}: {e}; recomputing"));
                        }
                    }
                    let v = compute();
                    if let Err(e) = self.save_checkpoints(key, &v) {
                        progress::warn(format!("[lab] store: could not save {what}: {e}"));
                    }
                    return (v, false);
                }
                LockAttempt::Busy => {
                    // The holder is computing (or healing) this shard:
                    // poll for its publication, quietly treating
                    // not-yet-healed errors as misses.
                    if let Ok(v) = self.load_checkpoints_covering(key) {
                        m.lock_elections_lost_total.inc();
                        m.lock_wait_ns.record(waited_ns());
                        return (v, true);
                    }
                    if Instant::now() >= deadline {
                        // Counted, so a fleet of serve workers wedging
                        // on one lock is visible in the metrics, not
                        // just in stderr.
                        m.lock_deadline_expired_total.inc();
                        m.lock_wait_ns.record(waited_ns());
                        progress::warn(format!(
                            "[lab] store: lock on {name} still held after {:?}; \
                             computing {what} without the store",
                            self.lock_wait
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

    /// Persists a combination's per-interval results (a contiguous
    /// checkpoint-order prefix), returning the bytes written.
    ///
    /// # Errors
    ///
    /// Same classes as [`Store::save_checkpoints`].
    pub fn save_intervals(
        &self,
        key: &ResultKey<'_>,
        intervals: &[IntervalRecord],
    ) -> Result<u64, StoreError> {
        self.save(&key.file_name(), FileKind::Results, &results::encode(key, intervals))
    }

    /// Saves `records` as the stored interval prefix of `key` unless
    /// the store already holds one at least as long. Concurrent labs
    /// may decide different adaptive budgets for one combination, so a
    /// stored prefix never shrinks. One lock attempt, no retry: result
    /// shards are an optimisation, and a peer holding the lock is
    /// writing its own prefix anyway. Failures warn on stderr and are
    /// otherwise ignored.
    pub fn extend_intervals(&self, key: &ResultKey<'_>, records: &[IntervalRecord]) {
        match self.try_lock(&key.file_name()) {
            LockAttempt::Acquired(_guard) => {
                let stored = self.load_intervals(key).map_or(0, |r| r.len());
                if stored < records.len() {
                    if let Err(e) = self.save_intervals(key, records) {
                        progress::warn(format!("[lab] store: could not save intervals: {e}"));
                    }
                }
            }
            LockAttempt::Busy => {}
            LockAttempt::Unavailable(e) => {
                progress::warn(format!("[lab] store: could not save intervals: {e}"));
            }
        }
    }

    /// Loads a combination's per-interval results.
    ///
    /// # Errors
    ///
    /// Same classes as [`Store::load_checkpoints`].
    pub fn load_intervals(&self, key: &ResultKey<'_>) -> Result<Vec<IntervalRecord>, StoreError> {
        let name = key.file_name();
        let records = self.load(&name, FileKind::Results)?;
        results::decode(&self.shard_path(FileKind::Results, &name), key, &records)
    }

    /// Store files (`.dcc`/`.dcr`) in `dir` whose kind passes `keep`,
    /// in deterministic (name) order. `.tmp-*` are in-flight (or
    /// orphaned) atomic-write temporaries — never store entries.
    /// Missing directory ⇒ empty.
    fn files_in(&self, dir: &Path, keep: impl Fn(FileKind) -> bool) -> Vec<(PathBuf, u64)> {
        let Ok(entries) = self.io.read_dir(dir) else {
            return Vec::new();
        };
        entries
            .into_iter()
            .filter(|(p, _)| {
                p.file_name().and_then(|n| n.to_str()).is_some_and(|name| {
                    !name.starts_with(".tmp-") && shard::kind_of_name(name).is_some_and(&keep)
                })
            })
            .collect()
    }

    /// Shard files of one kind, in name order.
    fn kind_entries(&self, kind: FileKind) -> Vec<(PathBuf, u64)> {
        self.files_in(&self.root.join(kind.dir()), |k| k == kind)
    }

    /// All store files: checkpoint shards, result shards, then files in
    /// the root — what a pre-shard store left behind, never read by a
    /// load, so `verify` reports them and `gc` deletes them.
    fn entries(&self) -> Vec<(PathBuf, u64)> {
        let mut v = self.kind_entries(FileKind::Checkpoints);
        v.extend(self.kind_entries(FileKind::Results));
        v.extend(self.files_in(&self.root, |_| true));
        v
    }

    /// Directory summary: header reads plus a checksum-free record
    /// frame-walk per shard (for the per-shard record counts), and a
    /// parse of each lock file (for owner pid / age detail).
    pub fn stat(&self) -> StoreStat {
        let now_secs = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut s = StoreStat::default();
        for (path, bytes) in self.entries() {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            match self
                .io
                .read(&path)
                .map_err(StoreError::Io)
                .map(|b| {
                    let header = shard::read_shard_header(&b, &path);
                    let (intact, _) = shard::deep_check_records(&b);
                    (header, intact as u64)
                })
            {
                Ok((Ok(h), records)) => {
                    match h.kind {
                        FileKind::Checkpoints => {
                            s.checkpoint_files.0 += 1;
                            s.checkpoint_files.1 += bytes;
                        }
                        FileKind::Results => {
                            s.result_files.0 += 1;
                            s.result_files.1 += bytes;
                        }
                    }
                    if Self::check_versions(&path, &h).is_err() {
                        s.stale_files += 1;
                    }
                    s.shards.push(ShardStat {
                        name,
                        kind: Some(h.kind),
                        bytes,
                        records,
                    });
                }
                Ok((Err(StoreError::Version { .. }), _)) => s.stale_files += 1,
                Ok((Err(_), _)) | Err(_) => s.unreadable_files += 1,
            }
        }
        if let Ok(locks) = self.io.read_dir(&self.root.join("locks")) {
            for (path, _) in locks {
                let name = path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                match lock::holder(&self.io, &path) {
                    Some((info, live)) => {
                        if live {
                            s.live_locks += 1;
                        } else {
                            s.stale_locks += 1;
                        }
                        s.locks.push(LockStat {
                            name,
                            pid: Some(info.pid),
                            age_secs: now_secs.checked_sub(info.ts_secs),
                            live,
                        });
                    }
                    None => {
                        s.stale_locks += 1;
                        s.locks.push(LockStat {
                            name,
                            pid: None,
                            age_secs: None,
                            live: false,
                        });
                    }
                }
            }
        }
        s
    }

    fn report_shard(&self, path: PathBuf, bytes: u64) -> FileReport {
        let (kind, status) = match self.io.read(&path) {
            Err(e) => (
                path.file_name()
                    .and_then(|n| n.to_str())
                    .and_then(shard::kind_of_name),
                FileStatus::IoError {
                    reason: e.to_string(),
                },
            ),
            Ok(b) => match shard::read_shard(&b, &path) {
                Ok((header, records)) => match Self::check_versions(&path, &header) {
                    Ok(()) => (
                        Some(header.kind),
                        FileStatus::Ok {
                            records: records.len(),
                        },
                    ),
                    Err(StoreError::Version {
                        what,
                        found,
                        expected,
                        ..
                    }) => (
                        Some(header.kind),
                        FileStatus::StaleVersion {
                            what,
                            found,
                            expected,
                        },
                    ),
                    Err(e) => (
                        Some(header.kind),
                        FileStatus::Corrupt {
                            reason: e.to_string(),
                        },
                    ),
                },
                Err(StoreError::Version {
                    what,
                    found,
                    expected,
                    ..
                }) => (
                    None,
                    FileStatus::StaleVersion {
                        what,
                        found,
                        expected,
                    },
                ),
                Err(e) => {
                    // Deep per-record sweep so the report says how much
                    // of the shard is still intact, not just "bad".
                    let (intact, first_bad) = shard::deep_check_records(&b);
                    let detail = match first_bad {
                        Some(i) => format!("; {intact} record(s) intact, damage at record {i}"),
                        None => format!("; all {intact} record(s) intact"),
                    };
                    (
                        path.file_name()
                            .and_then(|n| n.to_str())
                            .and_then(shard::kind_of_name),
                        FileStatus::Corrupt {
                            reason: format!("{e}{detail}"),
                        },
                    )
                }
            },
        };
        FileReport {
            path,
            bytes,
            kind,
            status,
        }
    }

    /// Full validation of every file — checkpoint shards, result
    /// shards, then root-level leftovers, each in name order. Checks
    /// checksums, framing, per-record integrity and version currency;
    /// a damaged shard's report names how many records are intact and
    /// where damage starts. Never bails early and does not modify
    /// anything.
    pub fn verify(&self) -> Vec<FileReport> {
        self.entries()
            .into_iter()
            .map(|(path, bytes)| self.report_shard(path, bytes))
            .collect()
    }

    /// Deletes every file [`Store::verify`] flags as corrupt or
    /// stale-version — except shards whose writer lock is held by a
    /// live process (their damage may be an in-flight write about to be
    /// healed by rename) — plus orphaned temp files and stale locks.
    /// Unreadable ([`FileStatus::IoError`]) files are left alone: their
    /// health is unknown. Fingerprint staleness is *not* detected here
    /// (it needs the workload built); those entries are overwritten the
    /// next time their key is computed.
    pub fn gc(&self) -> GcReport {
        let mut report = GcReport::default();
        for fr in self.verify() {
            match fr.status {
                FileStatus::Ok { .. } | FileStatus::IoError { .. } => report.kept += 1,
                FileStatus::StaleVersion { .. } | FileStatus::Corrupt { .. } => {
                    let name = fr.path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                    if self.live_locked(name) {
                        report.skipped_locked += 1;
                        continue;
                    }
                    if self.io.remove_file(&fr.path).is_ok() {
                        report.removed += 1;
                        report.freed_bytes += fr.bytes;
                    }
                }
            }
        }
        for dir in [
            self.root.clone(),
            self.root.join(FileKind::Checkpoints.dir()),
            self.root.join(FileKind::Results.dir()),
        ] {
            let (n, bytes) = shard::sweep_temps(&self.io, &dir);
            report.removed += n;
            report.freed_bytes += bytes;
        }
        report.removed += self.sweep_stale_locks();
        report
    }

    /// Removes dead-owner lock files; returns how many.
    fn sweep_stale_locks(&self) -> u64 {
        let Ok(locks) = self.io.read_dir(&self.root.join("locks")) else {
            return 0;
        };
        locks
            .iter()
            .filter(|(path, _)| lock::sweep(&self.io, path))
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_prog::{fast_forward, parse_asm, Memory};

    fn tmp_store(name: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("dca-store-lib-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        Store::open(dir)
    }

    fn sample_ff() -> dca_prog::FastForward {
        let p = parse_asm(
            "e:\n li r1, #50\n li r2, #8192\nl:\n st r1, 0(r2)\n add r2, r2, #8\n add r1, r1, #-1\n bne r1, r0, l\n halt",
        )
        .unwrap();
        fast_forward(&p, Memory::new(), 40, u64::MAX)
    }

    fn key() -> CheckpointKey<'static> {
        CheckpointKey {
            workload: "compress",
            scale: "smoke",
            period: 40,
            max_insts: u64::MAX,
            fingerprint: 0xfeed,
            uarch: 0x1234,
        }
    }

    fn rkey() -> ResultKey<'static> {
        ResultKey {
            workload: "compress",
            scale: "smoke",
            machine: "clustered",
            geometry: 0x5678,
            scheme: "Modulo",
            period: 40,
            warmup: 10,
            interval: 10,
            max_insts: 1000,
            warm_steering: false,
            continuous_warming: false,
            fingerprint: 0xfeed,
        }
    }

    #[test]
    fn checkpoint_save_load_roundtrip() {
        let store = tmp_store("ck-roundtrip");
        let ff = sample_ff();
        store.save_checkpoints(&key(), &ff).unwrap();
        assert!(
            store.shard_path(FileKind::Checkpoints, &key().file_name()).exists(),
            "shard lives under the ck/ subdirectory"
        );
        let back = store.load_checkpoints(&key()).unwrap();
        assert_eq!(back.total_insts, ff.total_insts);
        assert_eq!(back.halted, ff.halted);
        assert_eq!(back.checkpoints.len(), ff.checkpoints.len());
        for (a, b) in back.checkpoints.iter().zip(&ff.checkpoints) {
            assert_eq!(a.seq(), b.seq());
            assert_eq!(a.memory().page_count(), b.memory().page_count());
        }
    }

    #[test]
    fn missing_entry_is_not_found() {
        let store = tmp_store("ck-missing");
        assert!(store.load_checkpoints(&key()).unwrap_err().is_not_found());
    }

    #[test]
    fn fingerprint_mismatch_is_stale() {
        let store = tmp_store("ck-stale");
        store.save_checkpoints(&key(), &sample_ff()).unwrap();
        let other = CheckpointKey {
            fingerprint: 0xdead,
            ..key()
        };
        assert!(matches!(
            store.load_checkpoints(&other),
            Err(StoreError::Stale { .. })
        ));
    }

    #[test]
    fn stat_verify_gc_lifecycle() {
        let store = tmp_store("lifecycle");
        store.save_checkpoints(&key(), &sample_ff()).unwrap();
        store
            .save_intervals(&rkey(), &[IntervalRecord::default(), IntervalRecord::default()])
            .unwrap();
        let s = store.stat();
        assert_eq!(s.checkpoint_files.0, 1);
        assert_eq!(s.result_files.0, 1);
        assert_eq!(s.stale_files, 0);
        assert!(s.checkpoint_files.1 > 0 && s.result_files.1 > 0);

        let loaded = store.load_intervals(&rkey()).unwrap();
        assert_eq!(loaded.len(), 2);

        // An orphaned atomic-write temporary is never an entry (even
        // with a store extension in its name) but gc sweeps it.
        let orphan = store.root().join("ck").join(".tmp-ck_orphan.dcc");
        std::fs::write(&orphan, b"half-written").unwrap();
        assert_eq!(store.stat().checkpoint_files.0, 1, "tmp file is not an entry");
        assert_eq!(store.verify().len(), 2, "tmp file is not verified");

        // Corrupt the result shard: verify flags it (quarantined to
        // the shard), gc removes it (plus the orphan); the checkpoint
        // shard is untouched.
        let rs_path = store.shard_path(FileKind::Results, &rkey().file_name());
        let mut bytes = std::fs::read(&rs_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&rs_path, &bytes).unwrap();
        let reports = store.verify();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().any(|r| matches!(r.status, FileStatus::Corrupt { .. })));
        let gc = store.gc();
        assert_eq!(gc.removed, 2, "corrupt shard + tmp orphan");
        assert_eq!(gc.kept, 1);
        assert_eq!(gc.skipped_locked, 0);
        assert!(gc.freed_bytes > 0);
        assert!(!orphan.exists());
        assert!(store.load_intervals(&rkey()).unwrap_err().is_not_found());
        assert!(store.load_checkpoints(&key()).is_ok(), "healthy shard survives gc");
    }

    #[test]
    fn gc_skips_shards_under_a_live_lock() {
        let store = tmp_store("gc-locked");
        store.save_checkpoints(&key(), &sample_ff()).unwrap();
        let name = key().file_name();
        let path = store.shard_path(FileKind::Checkpoints, &name);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        // We (a live process) hold the shard's writer lock.
        let _guard = match store.try_lock(&name) {
            LockAttempt::Acquired(g) => g,
            other => panic!("expected lock, got {other:?}"),
        };
        let gc = store.gc();
        assert_eq!(gc.skipped_locked, 1);
        assert_eq!(gc.removed, 0);
        assert!(path.exists(), "locked shard survives gc");
        drop(_guard);
        let gc = store.gc();
        assert_eq!(gc.removed, 1, "unlocked damaged shard is reaped");
    }

    #[test]
    fn gc_sweeps_dead_locks_temps_and_damaged_shards() {
        let store = tmp_store("gc-sweep");
        store.save_checkpoints(&key(), &sample_ff()).unwrap();
        store.save_intervals(&rkey(), &[IntervalRecord::default()]).unwrap();
        // A stale lock (dead owner), an orphan temp, a damaged shard.
        let locks = store.root().join("locks");
        std::fs::create_dir_all(&locks).unwrap();
        let dead_lock = locks.join("x.lock");
        std::fs::write(&dead_lock, b"DCALOCK1 pid=999999999 ts=0 seq=0\n").unwrap();
        let temp = store.root().join("rs").join(".tmp-dead");
        std::fs::write(&temp, b"x").unwrap();
        let rs_path = store.shard_path(FileKind::Results, &rkey().file_name());
        let mut bytes = std::fs::read(&rs_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&rs_path, &bytes).unwrap();
        assert_eq!(store.stat().stale_locks, 1);

        let gc = store.gc();
        assert_eq!(gc.removed, 3, "damaged shard + orphan temp + dead-owner lock");
        assert_eq!(gc.kept, 1);
        assert!(!dead_lock.exists() && !temp.exists() && !rs_path.exists());
        assert!(store.load_checkpoints(&key()).is_ok(), "healthy shard survives gc");
        assert_eq!(store.stat().stale_locks, 0);
    }

    #[test]
    fn enospc_surfaces_as_full_with_no_partial_shard() {
        use crate::io::{FaultIo, FaultKind, FaultPlan};
        let dir = std::env::temp_dir().join("dca-store-lib-full");
        std::fs::remove_dir_all(&dir).ok();
        // Opening on an empty dir costs 1 op (the root metadata probe);
        // the save then does create_dir_all, write, rename. Fail the
        // write with ENOSPC.
        let io = Arc::new(FaultIo::new(FaultPlan::fail_at(2, FaultKind::Enospc)));
        let store = Store::open_with_io(&dir, io);
        match store.save_checkpoints(&key(), &sample_ff()) {
            Err(StoreError::Full { .. }) => {}
            other => panic!("expected Full, got {other:?}"),
        }
        let name = key().file_name();
        assert!(!store.shard_path(FileKind::Checkpoints, &name).exists());
        assert!(
            !std::fs::read_dir(dir.join("ck")).map(|d| d.count() > 0).unwrap_or(false),
            "no partial file or temp left behind"
        );
    }

    #[test]
    fn root_level_v2_file_is_stale_until_gc() {
        let dir = std::env::temp_dir().join("dca-store-lib-v2-root");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // What a pre-shard store left behind: a flat v2 file (magic,
        // version 2, kind, interpreter and timing versions, …) in the
        // store root, under the name the current key would use.
        let k = key();
        let mut v2 = file::MAGIC.to_vec();
        for word in [2, FileKind::Checkpoints.tag(), dca_prog::INTERP_VERSION, 0, 0, 0] {
            v2.extend_from_slice(&u32::to_le_bytes(word));
        }
        let flat = dir.join(k.file_name());
        std::fs::write(&flat, &v2).unwrap();

        let store = Store::open(&dir);
        assert_eq!(std::fs::read(&flat).unwrap(), v2, "open leaves it alone");
        assert!(store.load_checkpoints(&k).unwrap_err().is_not_found());
        let reports = store.verify();
        assert_eq!(reports.len(), 1);
        assert!(matches!(
            reports[0].status,
            FileStatus::StaleVersion { found: 2, expected: file::FORMAT_VERSION, .. }
        ));
        let s = store.stat();
        assert_eq!(s.stale_files, 1);
        assert_eq!(s.checkpoint_files.0, 0);
        let gc = store.gc();
        assert_eq!(gc.removed, 1);
        assert_eq!(gc.freed_bytes, v2.len() as u64);
        assert!(!flat.exists());
        assert!(store.verify().is_empty());
    }

    #[test]
    fn interval_records_roundtrip_exactly() {
        let store = tmp_store("rs-roundtrip");
        let mut stats = dca_sim::SimStats {
            cycles: 123,
            committed: 456,
            committed_uops: 500,
            copies: 7,
            critical_copies: 3,
            copies_by_dir: dca_sim::per_cluster(&[4, 3, 2, 1]),
            steered: dca_sim::per_cluster(&[300, 156, 80, 20]),
            replication_reg_cycles: 99,
            loads: 50,
            stores: 20,
            forwarded_loads: 5,
            branches: 60,
            mispredicts: 6,
            dispatch_stall_cycles: 11,
            slice_hits: 13,
            ..dca_sim::SimStats::default()
        };
        stats.balance.record(3);
        stats.balance.record(-2);
        stats.l1d.accesses = 70;
        stats.l1d.hits = 65;
        stats.bpred.lookups = 60;
        stats.bpred.correct = 54;
        let rkey = ResultKey {
            workload: "li",
            scale: "smoke",
            machine: "base",
            geometry: 0xabcd,
            scheme: "Naive",
            period: 10,
            warmup: 2,
            interval: 5,
            max_insts: 100,
            warm_steering: true,
            continuous_warming: true,
            fingerprint: 1,
        };
        store
            .save_intervals(&rkey, &[IntervalRecord { stats: stats.clone(), warmed_insts: 17 }])
            .unwrap();
        let back = store.load_intervals(&rkey).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].warmed_insts, 17);
        let b = &back[0].stats;
        assert_eq!(b.cycles, stats.cycles);
        assert_eq!(b.committed, stats.committed);
        assert_eq!(b.copies_by_dir, stats.copies_by_dir);
        assert_eq!(b.steered, stats.steered);
        assert_eq!(b.balance, stats.balance);
        assert_eq!(b.l1d.hits, stats.l1d.hits);
        assert_eq!(b.bpred.correct, stats.bpred.correct);
        assert_eq!(b.slice_hits, stats.slice_hits);
    }
}
