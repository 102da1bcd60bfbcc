//! Sparse, copy-on-write, byte-addressable memory: the architectural
//! memory image of the functional interpreter and of its checkpoints.

use std::sync::Arc;

pub(crate) const PAGE_SHIFT: u64 = 12;
pub(crate) const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

type Page = [u8; PAGE_BYTES];

/// Sparse byte-addressable memory. Uninitialised bytes read as zero.
///
/// Pages are reference-counted and copied on write, so cloning a
/// `Memory` is O(pages) pointer copies — this is what makes interpreter
/// [`Checkpoint`](crate::Checkpoint)s cheap: a snapshot shares every
/// page with the live image and only diverging pages are ever
/// duplicated (the "memory delta" of the sampled-simulation design,
/// DESIGN.md §7).
///
/// The page table is a vector sorted by page index, so lookups hash
/// nothing and `page_entries` (the order the checkpoint codec and
/// `content_hash` walk) needs no sort. The interpreter keeps a few
/// hints of where it last found pages, checked before a binary search.
///
/// # Example
///
/// ```
/// use dca_prog::Memory;
/// let mut m = Memory::new();
/// m.write_u64(0x2000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x2000), 0xdead_beef);
/// assert_eq!(m.read_u64(0x9000), 0); // untouched memory is zero
/// ```
#[derive(Clone, Debug, Default)]
pub struct Memory {
    /// Indices of the allocated pages, strictly increasing.
    index: Vec<u64>,
    /// `pages[i]` holds the bytes of page `index[i]`.
    pages: Vec<Arc<Page>>,
}

const HINTS: usize = 16;

/// Direct-mapped guesses at where pages sit in a [`Memory`]'s sorted
/// table, one per low-order page-index bucket. A guess is checked
/// against the table before it is used, so a stale one (a page
/// inserted below it shifted the table) only costs the binary search
/// it would have saved: hints never change what is read or written.
#[derive(Clone, Debug, Default)]
pub(crate) struct PageHints([u32; HINTS]);

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Position of `page` in the table, trying the hint first.
    #[inline]
    fn find(&self, page: u64, hints: &mut PageHints) -> Option<usize> {
        let hint = &mut hints.0[page as usize % HINTS];
        if self.index.get(*hint as usize) == Some(&page) {
            return Some(*hint as usize);
        }
        let i = self.index.binary_search(&page).ok()?;
        *hint = i as u32;
        Some(i)
    }

    /// Writable bytes of `page`, allocating a zero page on first touch
    /// and copying a shared one.
    #[inline]
    fn page_mut(&mut self, page: u64, hints: &mut PageHints) -> &mut Page {
        let i = match self.find(page, hints) {
            Some(i) => i,
            None => {
                let i = self.index.partition_point(|&p| p < page);
                self.index.insert(i, page);
                self.pages.insert(i, Arc::new([0u8; PAGE_BYTES]));
                hints.0[page as usize % HINTS] = i as u32;
                i
            }
        };
        Arc::make_mut(&mut self.pages[i])
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.find(addr >> PAGE_SHIFT, &mut PageHints::default()) {
            Some(i) => self.pages[i][(addr as usize) & (PAGE_BYTES - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr >> PAGE_SHIFT, &mut PageHints::default())
            [(addr as usize) & (PAGE_BYTES - 1)] = value;
    }

    /// Reads a little-endian 64-bit word (may straddle pages).
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_u64_hinted(addr, &mut PageHints::default())
    }

    /// [`Memory::read_u64`] for the interpreter, which carries its
    /// page hints from access to access.
    #[inline]
    pub(crate) fn read_u64_hinted(&self, addr: u64, hints: &mut PageHints) -> u64 {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off <= PAGE_BYTES - 8 {
            // Word within one page: a single lookup.
            match self.find(addr >> PAGE_SHIFT, hints) {
                Some(i) => {
                    u64::from_le_bytes(self.pages[i][off..off + 8].try_into().expect("8 bytes"))
                }
                None => 0,
            }
        } else {
            let mut bytes = [0u8; 8];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u64));
            }
            u64::from_le_bytes(bytes)
        }
    }

    /// Writes a little-endian 64-bit word (may straddle pages).
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_u64_hinted(addr, value, &mut PageHints::default());
    }

    /// [`Memory::write_u64`] for the interpreter (see
    /// [`Memory::read_u64_hinted`]).
    #[inline]
    pub(crate) fn write_u64_hinted(&mut self, addr: u64, value: u64, hints: &mut PageHints) {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off <= PAGE_BYTES - 8 {
            // Word within one page: one lookup and one copy-on-write
            // check, instead of eight of each.
            self.page_mut(addr >> PAGE_SHIFT, hints)[off..off + 8]
                .copy_from_slice(&value.to_le_bytes());
        } else {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u64), *b);
            }
        }
    }

    /// Reads a signed 64-bit word.
    pub fn read_i64(&self, addr: u64) -> i64 {
        self.read_u64(addr) as i64
    }

    /// Writes a signed 64-bit word.
    pub fn write_i64(&mut self, addr: u64, value: i64) {
        self.write_u64(addr, value as u64);
    }

    /// Reads an IEEE double.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an IEEE double.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Number of 4 KiB pages touched so far (for tests).
    pub fn page_count(&self) -> usize {
        self.index.len()
    }

    /// The page table, sorted by page index — the deterministic
    /// iteration order the checkpoint codec serializes in.
    pub(crate) fn page_entries(&self) -> Vec<(u64, &Arc<Page>)> {
        self.index.iter().copied().zip(&self.pages).collect()
    }

    /// Rebuilds a memory image from `(page_index, page)` pairs,
    /// sharing the given `Arc`s (the decode half of the codec). A
    /// repeated index keeps its last page.
    pub(crate) fn from_page_entries(entries: impl IntoIterator<Item = (u64, Arc<Page>)>) -> Memory {
        let mut m = Memory::default();
        for (idx, page) in entries {
            match m.index.binary_search(&idx) {
                Ok(i) => m.pages[i] = page,
                Err(i) => {
                    m.index.insert(i, idx);
                    m.pages.insert(i, page);
                }
            }
        }
        m
    }

    /// FNV-1a hash of the full memory content (page indices and
    /// bytes, in page-index order). Deterministic across runs; used as
    /// part of the workload fingerprint that keys the persistent
    /// checkpoint store.
    pub fn content_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (idx, page) in self.page_entries() {
            h ^= idx;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
            for &b in page.iter() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_pages_are_sparse() {
        let mut m = Memory::new();
        m.write_u64(0, 1);
        m.write_u64(1 << 30, 2);
        assert_eq!(m.page_count(), 2);
        assert_eq!(m.read_u64(1 << 30), 2);
    }

    #[test]
    fn memory_word_straddles_page_boundary() {
        let mut m = Memory::new();
        let addr = (1 << PAGE_SHIFT) - 4;
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
    }

    mod oracle {
        use super::*;
        use proptest::prelude::*;
        use std::collections::{BTreeMap, BTreeSet};

        /// The reference memory: one map entry per written byte, plus
        /// the set of pages a write has touched (a write of zero still
        /// allocates its page, and `content_hash` covers it).
        #[derive(Clone, Default)]
        struct ByteMap {
            bytes: BTreeMap<u64, u8>,
            pages: BTreeSet<u64>,
        }

        impl ByteMap {
            fn read_u8(&self, addr: u64) -> u8 {
                self.bytes.get(&addr).copied().unwrap_or(0)
            }

            fn write_u8(&mut self, addr: u64, v: u8) {
                self.bytes.insert(addr, v);
                self.pages.insert(addr >> PAGE_SHIFT);
            }

            fn read_u64(&self, addr: u64) -> u64 {
                let b: Vec<u8> = (0..8).map(|i| self.read_u8(addr.wrapping_add(i))).collect();
                u64::from_le_bytes(b.try_into().expect("8 bytes"))
            }

            fn write_u64(&mut self, addr: u64, v: u64) {
                for (i, b) in v.to_le_bytes().into_iter().enumerate() {
                    self.write_u8(addr.wrapping_add(i as u64), b);
                }
            }

            fn content_hash(&self) -> u64 {
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for &idx in &self.pages {
                    h ^= idx;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                    let base = idx << PAGE_SHIFT;
                    let mut page = [0u8; PAGE_BYTES];
                    for (&addr, &b) in self.bytes.range(base..=base + (PAGE_BYTES as u64 - 1)) {
                        page[(addr - base) as usize] = b;
                    }
                    for b in page {
                        h ^= u64::from(b);
                        h = h.wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
                h
            }
        }

        /// Addresses that exercise the page table: a handful of pages
        /// near zero, bytes just below a page boundary (so words
        /// straddle it), the top of the address space (so words wrap
        /// to address 0) and arbitrary 64-bit addresses.
        fn address((kind, page, off, raw): (u8, u64, u64, u64)) -> u64 {
            match kind {
                0 => (page << PAGE_SHIFT) + off % PAGE_BYTES as u64,
                1 => ((page + 1) << PAGE_SHIFT) - 1 - off % 8,
                2 => u64::MAX - off % 16,
                _ => raw,
            }
        }

        /// Every memory agrees with its oracle: the bytes each oracle
        /// wrote (and the bytes around them), the page set, the page
        /// order and the content hash.
        fn assert_matches(m: &Memory, o: &ByteMap) {
            for &addr in o.bytes.keys() {
                assert_eq!(m.read_u8(addr), o.read_u8(addr), "byte at {addr:#x}");
                let word = addr.wrapping_sub(3);
                assert_eq!(m.read_u64(word), o.read_u64(word), "word at {word:#x}");
            }
            let idx: Vec<u64> = m.page_entries().iter().map(|&(i, _)| i).collect();
            assert!(
                idx.windows(2).all(|w| w[0] < w[1]),
                "page_entries sorted: {idx:?}"
            );
            assert_eq!(idx, o.pages.iter().copied().collect::<Vec<_>>(), "page set");
            assert_eq!(m.page_count(), o.pages.len());
            assert_eq!(m.content_hash(), o.content_hash(), "content_hash");
            let rebuilt = Memory::from_page_entries(
                m.page_entries()
                    .into_iter()
                    .map(|(i, p)| (i, Arc::clone(p))),
            );
            assert_eq!(rebuilt.content_hash(), m.content_hash(), "codec round trip");
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn memory_matches_a_byte_map(
                ops in proptest::collection::vec(
                    (0u8..10, (0u8..4, 0u64..6, any::<u64>(), any::<u64>()), any::<u64>()),
                    1..200,
                ),
            ) {
                let mut m = Memory::new();
                let mut o = ByteMap::default();
                // Snapshots taken along the way, each with the oracle
                // state at the moment it was cloned.
                let mut snaps: Vec<(Memory, ByteMap)> = Vec::new();
                for &(op, a, v) in &ops {
                    let addr = address(a);
                    match op {
                        0 | 1 => {
                            m.write_u8(addr, v as u8);
                            o.write_u8(addr, v as u8);
                        }
                        2..=4 => {
                            m.write_u64(addr, v);
                            o.write_u64(addr, v);
                        }
                        5 | 6 => prop_assert_eq!(m.read_u8(addr), o.read_u8(addr), "read_u8 {:#x}", addr),
                        7 | 8 => prop_assert_eq!(m.read_u64(addr), o.read_u64(addr), "read_u64 {:#x}", addr),
                        _ => snaps.push((m.clone(), o.clone())),
                    }
                }
                assert_matches(&m, &o);
                // Copy-on-write: writes after a clone never reach it.
                for (snap, at) in &snaps {
                    assert_matches(snap, at);
                }
            }
        }
    }
}
