//! Shared container primitives: magic, format version, file kinds,
//! header fields, the FNV-1a checksum, and little-endian record
//! readers. The shard layout itself lives in [`crate::shard`].

/// File magic.
pub const MAGIC: [u8; 8] = *b"DCASTORE";

/// Version of the container structure itself (header layout, framing,
/// checksums) *and* of the typed record layouts inside it. Bump on any
/// change to the shard byte layout or to a record codec.
///
/// History: 2 — checkpoint streams gained the microarchitectural
/// snapshot record kind (continuous warming) and result metas the
/// warming-mode flag. 3 — sharded store: per-kind subdirectories,
/// checksummed 40-byte header with record count, per-record checksums.
/// Files of any other version are stale: `verify` reports them, `gc`
/// deletes them and the next run recomputes them.
pub const FORMAT_VERSION: u32 = 3;

/// Trailing whole-file checksum length in bytes.
pub const TRAILER_BYTES: usize = 8;

/// What a store file contains.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// A per-benchmark checkpoint stream (`.dcc`).
    Checkpoints,
    /// Per-interval simulation results of one combination (`.dcr`).
    Results,
}

impl FileKind {
    /// The header tag.
    pub fn tag(self) -> u32 {
        match self {
            FileKind::Checkpoints => 1,
            FileKind::Results => 2,
        }
    }

    /// Parses a header tag.
    pub fn from_tag(tag: u32) -> Option<FileKind> {
        match tag {
            1 => Some(FileKind::Checkpoints),
            2 => Some(FileKind::Results),
            _ => None,
        }
    }

    /// The file extension used in the store directory.
    pub fn extension(self) -> &'static str {
        match self {
            FileKind::Checkpoints => "dcc",
            FileKind::Results => "dcr",
        }
    }

    /// The per-kind shard subdirectory under the store root.
    pub fn dir(self) -> &'static str {
        match self {
            FileKind::Checkpoints => "ck",
            FileKind::Results => "rs",
        }
    }
}

/// Parsed header of a store file.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FileHeader {
    /// Payload kind.
    pub kind: FileKind,
    /// Container format version ([`FORMAT_VERSION`] at write time).
    pub format_version: u32,
    /// Functional-interpreter version the payload was produced under.
    pub interp_version: u32,
    /// Timing-model version (0 in checkpoint files, where timing does
    /// not apply).
    pub timing_version: u32,
}

/// FNV-1a 64-bit hash — the store's checksum everywhere (headers,
/// records, whole files).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian reader over one record payload, shared by the typed
/// codecs.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| "length overflow".to_string())?;
        if end > self.buf.len() {
            return Err("record truncated".into());
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.bytes(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn str(&mut self) -> Result<&'a str, String> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.bytes(len)?).map_err(|_| "invalid utf-8".to_string())
    }

    pub(crate) fn finish(self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err("trailing bytes in record".into())
        }
    }
}

/// Appends a length-prefixed string.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(u32::try_from(s.len()).expect("string fits u32")).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips() {
        for k in [FileKind::Checkpoints, FileKind::Results] {
            assert_eq!(FileKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(FileKind::from_tag(9), None);
        assert_eq!(FileKind::Checkpoints.dir(), "ck");
        assert_eq!(FileKind::Results.dir(), "rs");
    }
}
