//! The v3 **shard** container and its crash-atomic write path.
//!
//! A shard is one store entry in its own file (checkpoint streams in
//! `ck/`, result sets in `rs/`), so damage quarantines to the shard:
//! one corrupt file costs one recompute, never the directory. The
//! header is *itself* checksummed (a torn write inside the header is
//! distinguishable from a foreign file) and carries a record count, and
//! every record has its own checksum so `verify` can say *which* record
//! died:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"DCASTORE"
//! 8       4     format_version (u32 LE) — 3
//! 12      4     kind           (u32 LE) — 1 checkpoints, 2 results
//! 16      4     interp_version (u32 LE) — dca_prog::INTERP_VERSION
//! 20      4     timing_version (u32 LE) — 0 for checkpoint shards
//! 24      4     record_count   (u32 LE)
//! 28      4     reserved (0)
//! 32      8     FNV-1a 64 of bytes 0..32 (u64 LE) — header checksum
//! 40      …     records: [len: u32 LE][FNV-1a 64 of payload][payload]…
//! end-8   8     FNV-1a 64 of every preceding byte (u64 LE)
//! ```
//!
//! Writes go through [`write_shard`]: encode fully in memory, write to
//! a uniquely named `.tmp-<pid>-<seq>-<name>` sibling, fsync, rename
//! over the destination. Every crash point therefore leaves either the
//! complete old shard or the complete new shard at the destination —
//! plus possibly a temp file, which [`sweep_temps`] removes at store
//! open once its owner pid is dead. ENOSPC at any point surfaces as
//! [`StoreError::Full`] with no partial destination.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::file::{FileHeader, FileKind, fnv64, MAGIC, FORMAT_VERSION, TRAILER_BYTES};
use crate::io::{self, StoreIo};
use crate::lock::pid_alive;
use crate::StoreError;

/// v3 header length in bytes.
pub const HEADER_BYTES: usize = 40;

/// The header checksum at [`HEADER_SUM_OFFSET`] covers bytes
/// `0..HEADER_SUM_OFFSET`.
pub const HEADER_SUM_OFFSET: usize = 32;

/// Per-record frame overhead: length (u32) + payload checksum (u64).
pub const RECORD_FRAME_BYTES: usize = 12;

/// Distinguishes same-pid writers racing on one shard (threads of one
/// process must not share a temp file).
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn corrupt(path: &Path, reason: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        path: path.to_path_buf(),
        reason: reason.into(),
    }
}

/// Serializes header + records + checksums into one buffer.
pub fn encode_shard(header: &FileHeader, records: &[Vec<u8>]) -> Vec<u8> {
    let body: usize = records.iter().map(|r| RECORD_FRAME_BYTES + r.len()).sum();
    let mut out = Vec::with_capacity(HEADER_BYTES + body + TRAILER_BYTES);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&header.format_version.to_le_bytes());
    out.extend_from_slice(&header.kind.tag().to_le_bytes());
    out.extend_from_slice(&header.interp_version.to_le_bytes());
    out.extend_from_slice(&header.timing_version.to_le_bytes());
    out.extend_from_slice(
        &(u32::try_from(records.len()).expect("record count fits u32")).to_le_bytes(),
    );
    out.extend_from_slice(&0u32.to_le_bytes()); // reserved
    let hsum = fnv64(&out[..HEADER_SUM_OFFSET]);
    out.extend_from_slice(&hsum.to_le_bytes());
    for r in records {
        out.extend_from_slice(&(u32::try_from(r.len()).expect("record fits u32")).to_le_bytes());
        out.extend_from_slice(&fnv64(r).to_le_bytes());
        out.extend_from_slice(r);
    }
    let sum = fnv64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validates the fixed header of an in-memory shard image (or its
/// first [`HEADER_BYTES`] bytes): magic, format version, header
/// checksum, kind tag. Does **not** look at records — the cheap path
/// `stat` uses.
///
/// # Errors
///
/// [`StoreError::Corrupt`] on structural damage;
/// [`StoreError::Version`] when the container format is not v3 (older
/// containers land here, before any checksum check — their header had
/// no checksum at these offsets).
pub fn read_shard_header(bytes: &[u8], path: &Path) -> Result<FileHeader, StoreError> {
    // Magic and format version first, before the v3 length gate: a
    // (possibly tiny) older container must classify as a *version*
    // problem, not corruption.
    if bytes.len() < 12 {
        return Err(corrupt(path, "shorter than magic + version"));
    }
    if bytes[..8] != MAGIC {
        return Err(corrupt(path, "bad magic"));
    }
    let word = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().expect("4 bytes"));
    let format_version = word(8);
    if format_version != FORMAT_VERSION {
        return Err(StoreError::Version {
            path: path.to_path_buf(),
            what: "container format",
            found: format_version,
            expected: FORMAT_VERSION,
        });
    }
    if bytes.len() < HEADER_BYTES {
        return Err(corrupt(path, "shorter than header"));
    }
    let expect = u64::from_le_bytes(
        bytes[HEADER_SUM_OFFSET..HEADER_BYTES]
            .try_into()
            .expect("8 bytes"),
    );
    let actual = fnv64(&bytes[..HEADER_SUM_OFFSET]);
    if expect != actual {
        return Err(corrupt(
            path,
            format!("header checksum mismatch (stored {expect:#018x}, computed {actual:#018x})"),
        ));
    }
    let kind = FileKind::from_tag(word(12)).ok_or_else(|| corrupt(path, "unknown file kind"))?;
    Ok(FileHeader {
        kind,
        format_version,
        interp_version: word(16),
        timing_version: word(20),
    })
}

/// Validates and splits a whole shard image: header, whole-file
/// checksum, then record framing with per-record checksums and the
/// header's record count. Semantic version checks (interpreter/timing)
/// are the caller's responsibility.
///
/// # Errors
///
/// [`StoreError::Corrupt`] on any structural violation;
/// [`StoreError::Version`] when the container format is not v3.
pub fn read_shard(bytes: &[u8], path: &Path) -> Result<(FileHeader, Vec<Vec<u8>>), StoreError> {
    let header = read_shard_header(bytes, path)?;
    if bytes.len() < HEADER_BYTES + TRAILER_BYTES {
        return Err(corrupt(path, "shorter than header + checksum"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER_BYTES);
    let expect = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    let actual = fnv64(body);
    if expect != actual {
        return Err(corrupt(
            path,
            format!("checksum mismatch (stored {expect:#018x}, computed {actual:#018x})"),
        ));
    }
    let count =
        u32::from_le_bytes(bytes[24..28].try_into().expect("4 bytes")) as usize;
    let records = split_records(&body[HEADER_BYTES..], path)?;
    if records.len() != count {
        return Err(corrupt(
            path,
            format!("record count mismatch (header says {count}, found {})", records.len()),
        ));
    }
    Ok((header, records))
}

/// Splits the record region, checking each frame and per-record
/// checksum; errors name the failing record index.
fn split_records(mut rest: &[u8], path: &Path) -> Result<Vec<Vec<u8>>, StoreError> {
    let mut records = Vec::new();
    while !rest.is_empty() {
        let i = records.len();
        if rest.len() < RECORD_FRAME_BYTES {
            return Err(corrupt(path, format!("record {i}: dangling frame")));
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let expect = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
        rest = &rest[RECORD_FRAME_BYTES..];
        if rest.len() < len {
            return Err(corrupt(path, format!("record {i}: overruns file")));
        }
        let payload = &rest[..len];
        let actual = fnv64(payload);
        if expect != actual {
            return Err(corrupt(
                path,
                format!(
                    "record {i}: checksum mismatch (stored {expect:#018x}, computed {actual:#018x})"
                ),
            ));
        }
        records.push(payload.to_vec());
        rest = &rest[len..];
    }
    Ok(records)
}

/// Per-record deep check for `verify`: walks the record region even when
/// the whole-file checksum already failed, reporting how many records
/// are intact and the index where damage starts (if any). Returns
/// `(intact_records, first_bad)`.
pub fn deep_check_records(bytes: &[u8]) -> (usize, Option<usize>) {
    if bytes.len() < HEADER_BYTES + TRAILER_BYTES {
        return (0, Some(0));
    }
    let mut rest = &bytes[HEADER_BYTES..bytes.len() - TRAILER_BYTES];
    let mut intact = 0usize;
    while !rest.is_empty() {
        if rest.len() < RECORD_FRAME_BYTES {
            return (intact, Some(intact));
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let expect = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
        rest = &rest[RECORD_FRAME_BYTES..];
        if rest.len() < len || fnv64(&rest[..len]) != expect {
            return (intact, Some(intact));
        }
        intact += 1;
        rest = &rest[len..];
    }
    (intact, None)
}

/// The unique temp-file name a write to `name` uses.
pub fn temp_name(name: &str) -> String {
    format!(
        ".tmp-{}-{}-{name}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

/// Extracts the owner pid from a temp-file name (current or legacy
/// `.tmp-<name>` form, which has no pid and yields `None`'s inner).
pub fn temp_owner(file_name: &str) -> Option<u32> {
    let rest = file_name.strip_prefix(".tmp-")?;
    let (pid, _) = rest.split_once('-')?;
    pid.parse().ok()
}

/// Classifies a raw I/O failure from a write path.
fn classify_write(path: &Path, e: std::io::Error) -> StoreError {
    if io::is_enospc(&e) {
        StoreError::Full {
            path: path.to_path_buf(),
        }
    } else {
        StoreError::Io(e)
    }
}

/// Writes a shard crash-atomically: full encode in memory, unique temp
/// sibling, fsync, rename. On any failure the temp is removed
/// (best-effort — a dead process cannot, which is what
/// [`sweep_temps`] is for) and the destination is untouched.
///
/// # Errors
///
/// [`StoreError::Full`] when the device is out of space;
/// [`StoreError::Io`] for any other filesystem failure.
pub fn write_shard(
    io: &Arc<dyn StoreIo>,
    path: &Path,
    header: &FileHeader,
    records: &[Vec<u8>],
) -> Result<u64, StoreError> {
    let bytes = encode_shard(header, records);
    let (dir, name) = match (path.parent(), path.file_name().and_then(|n| n.to_str())) {
        (Some(dir), Some(name)) => (dir, name),
        _ => {
            return Err(StoreError::Io(std::io::Error::other(
                "store path has no parent/file name",
            )))
        }
    };
    let tmp = dir.join(temp_name(name));
    if let Err(e) = io.write_all(&tmp, &bytes) {
        let _ = io.remove_file(&tmp);
        return Err(classify_write(path, e));
    }
    if let Err(e) = io.rename(&tmp, path) {
        let _ = io.remove_file(&tmp);
        return Err(classify_write(path, e));
    }
    Ok(bytes.len() as u64)
}

/// Removes orphaned `.tmp-*` files from `dir`: temps whose owner pid
/// is provably dead (or unknowable), and legacy pid-less temps. Temps
/// of live processes — a concurrent writer mid-save — are left alone.
/// [`crate::lock::STALE_AFTER`] bounds the pid-unknowable fallback —
/// one constant for locks and temps alike. Returns `(files removed,
/// bytes freed)`. Missing directory ⇒ 0.
pub fn sweep_temps(io: &Arc<dyn StoreIo>, dir: &Path) -> (u64, u64) {
    let Ok(entries) = io.read_dir(dir) else {
        return (0, 0);
    };
    let (mut removed, mut freed) = (0, 0);
    for (path, len) in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !name.starts_with(".tmp-") {
            continue;
        }
        let orphaned = match temp_owner(name) {
            // Live owner: in-flight write, not ours to touch. An
            // unknowable probe falls back to "old enough to be dead":
            // a real in-flight temp lives for milliseconds.
            Some(pid) => !pid_alive(pid).unwrap_or_else(|| {
                io.metadata(&path)
                    .ok()
                    .and_then(|(_, m)| m)
                    .and_then(|m| std::time::SystemTime::now().duration_since(m).ok())
                    .is_none_or(|age| age < crate::lock::STALE_AFTER)
            }),
            None => true, // pid-less legacy temp: always orphaned
        };
        if orphaned && io.remove_file(&path).is_ok() {
            removed += 1;
            freed += len;
        }
    }
    (removed, freed)
}

/// The shard kind a store file name implies, from its extension.
pub fn kind_of_name(name: &str) -> Option<FileKind> {
    let ext = Path::new(name).extension()?.to_str()?;
    [FileKind::Checkpoints, FileKind::Results]
        .into_iter()
        .find(|k| k.extension() == ext)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::RealIo;
    use std::path::PathBuf;

    fn arena(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dca-store-shard-{name}"));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn io() -> Arc<dyn StoreIo> {
        Arc::new(RealIo)
    }

    fn header() -> FileHeader {
        FileHeader {
            kind: FileKind::Checkpoints,
            format_version: FORMAT_VERSION,
            interp_version: 7,
            timing_version: 0,
        }
    }

    #[test]
    fn round_trips_records() {
        let d = arena("roundtrip");
        let p = d.join("r.dcc");
        let records = vec![vec![1, 2, 3], vec![], vec![0xff; 1000]];
        write_shard(&io(), &p, &header(), &records).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        let (h, got) = read_shard(&bytes, &p).unwrap();
        assert_eq!(h, header());
        assert_eq!(got, records);
        assert_eq!(read_shard_header(&bytes, &p).unwrap(), header());
        assert_eq!(deep_check_records(&bytes), (3, None));
        assert!(
            std::fs::read_dir(&d).unwrap().count() == 1,
            "no temp left behind"
        );
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let d = arena("flips");
        let p = d.join("f.dcc");
        write_shard(&io(), &p, &header(), &[vec![9u8; 40], vec![7u8; 12]]).unwrap();
        let good = std::fs::read(&p).unwrap();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            assert!(
                read_shard(&bad, &p).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        // And truncation at every length.
        for l in 0..good.len() {
            assert!(read_shard(&good[..l], &p).is_err(), "truncation to {l}");
        }
    }

    #[test]
    fn record_count_mismatch_is_corrupt() {
        let p = PathBuf::from("count.dcc");
        let mut bytes = encode_shard(&header(), &[vec![1], vec![2]]);
        // Claim 3 records, fix both checksums.
        bytes[24..28].copy_from_slice(&3u32.to_le_bytes());
        let hsum = fnv64(&bytes[..HEADER_SUM_OFFSET]);
        bytes[HEADER_SUM_OFFSET..HEADER_BYTES].copy_from_slice(&hsum.to_le_bytes());
        let body = bytes.len() - TRAILER_BYTES;
        let sum = fnv64(&bytes[..body]);
        let e = bytes.len();
        bytes[body..e].copy_from_slice(&sum.to_le_bytes());
        match read_shard(&bytes, &p) {
            Err(StoreError::Corrupt { reason, .. }) => {
                assert!(reason.contains("record count mismatch"), "{reason}")
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn legacy_v2_image_is_a_version_error() {
        // A flat v2 image: magic, version 2, kind, interpreter and
        // timing versions, one framed record, whole-file checksum.
        let p = PathBuf::from("old.dcc");
        let mut legacy = MAGIC.to_vec();
        for word in [2u32, FileKind::Checkpoints.tag(), 7, 0, 2] {
            legacy.extend_from_slice(&word.to_le_bytes());
        }
        legacy.extend_from_slice(&[1, 2]);
        let sum = fnv64(&legacy);
        legacy.extend_from_slice(&sum.to_le_bytes());
        match read_shard(&legacy, &p) {
            Err(StoreError::Version { found, expected, .. }) => {
                assert_eq!(found, 2);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn deep_check_pinpoints_the_damaged_record() {
        let records = vec![vec![1u8; 10], vec![2u8; 10], vec![3u8; 10]];
        let mut bytes = encode_shard(&header(), &records);
        // Damage the *second* record's payload.
        let off = HEADER_BYTES + RECORD_FRAME_BYTES + 10 + RECORD_FRAME_BYTES + 4;
        bytes[off] ^= 0xff;
        assert_eq!(deep_check_records(&bytes), (1, Some(1)));
    }

    #[test]
    fn sweep_removes_only_orphaned_temps() {
        let d = arena("sweep");
        let mine = d.join(temp_name("live.dcc"));
        std::fs::write(&mine, b"in flight").unwrap();
        let dead = d.join(".tmp-999999999-0-dead.dcc");
        std::fs::write(&dead, b"orphan").unwrap();
        let legacy = d.join(".tmp-ck_old.dcc");
        std::fs::write(&legacy, b"pid-less").unwrap();
        let (removed, freed) = sweep_temps(&io(), &d);
        assert_eq!(removed, 2);
        assert!(freed > 0);
        assert!(mine.exists(), "live-pid temp kept");
        assert!(!dead.exists() && !legacy.exists());
    }
}
