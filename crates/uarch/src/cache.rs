//! Set-associative caches and the two-level memory hierarchy.
//!
//! Latency model (Table 2 of the paper):
//!
//! * L1 I/D: 64 KB, 2-way, 32-byte lines, 1-cycle hit, 6-cycle miss
//!   penalty into the L2;
//! * L2 (shared): 256 KB, 4-way, 64-byte lines, 6-cycle hit;
//! * main memory: 16-byte bus, 16 cycles for the first chunk and 2 per
//!   additional chunk (a 64-byte L2 line costs 16 + 3·2 = 22 cycles).
//!
//! Misses are blocking from the perspective of the requesting
//! instruction (latency is charged up front); the simulator overlaps
//! them with independent work through out-of-order issue, which is the
//! same simplification SimpleScalar's default `cache_access` makes.

/// Geometry of one cache level.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
}

impl CacheConfig {
    /// The paper's L1 configuration (both I and D).
    pub fn paper_l1() -> CacheConfig {
        CacheConfig {
            size_bytes: 64 * 1024,
            ways: 2,
            line_bytes: 32,
        }
    }

    /// The paper's shared L2 configuration.
    pub fn paper_l2() -> CacheConfig {
        CacheConfig {
            size_bytes: 256 * 1024,
            ways: 4,
            line_bytes: 64,
        }
    }

    fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// Hit/miss counters of one cache.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
}

impl CacheStats {
    /// Number of misses.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio (0.0 when no accesses yet).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }

    /// Accumulates `other` (used when merging per-interval statistics
    /// of a sampled run).
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
    }

    /// Counters accumulated since `baseline` was captured (used to
    /// exclude functional-warming accesses from a measured interval).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `baseline` is not a prefix of `self`.
    pub fn since(&self, baseline: &CacheStats) -> CacheStats {
        debug_assert!(self.accesses >= baseline.accesses && self.hits >= baseline.hits);
        CacheStats {
            accesses: self.accesses - baseline.accesses,
            hits: self.hits - baseline.hits,
        }
    }
}

/// A set-associative cache with true-LRU replacement and
/// write-allocate behaviour.
///
/// Only tags are modelled (data values live in the functional
/// interpreter's memory).
///
/// # Example
///
/// ```
/// use dca_uarch::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig { size_bytes: 128, ways: 2, line_bytes: 32 });
/// assert!(!c.access(0x1000)); // cold miss
/// assert!(c.access(0x1004));  // same 32-byte line: hit
/// assert!(!c.access(0x2000)); // 2 sets: another line of set 0, a miss
/// assert!(c.access(0x1000));  // both lines fit in set 0's two ways
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// `log2(line_bytes)`: `addr >> line_shift` is the line address,
    /// which is also the stored tag.
    line_shift: u32,
    /// `sets - 1`: `line & set_mask` is the set index (the set count is
    /// a power of two), so an access divides by nothing.
    set_mask: usize,
    /// `tags[set * ways + way]`; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU stamps, larger = more recent.
    stamps: Vec<u64>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, non-power-of-two
    /// line size, or a capacity not divisible into sets).
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.ways > 0, "cache needs at least one way");
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            cfg.size_bytes.is_multiple_of(cfg.ways * cfg.line_bytes) && cfg.sets() > 0,
            "capacity must divide into whole sets"
        );
        assert!(cfg.sets().is_power_of_two(), "set count must be a power of two");
        let slots = cfg.sets() * cfg.ways;
        Cache {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: cfg.sets() - 1,
            tags: vec![u64::MAX; slots],
            stamps: vec![0; slots],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// First slot of `addr`'s set, and its tag (the line address).
    #[inline]
    fn base_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line as usize & self.set_mask) * self.cfg.ways, line)
    }

    /// Accesses `addr`; returns `true` on hit. On a miss the line is
    /// allocated, evicting the LRU way (write-allocate: reads and
    /// writes behave identically for tag state).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let (base, tag) = self.base_and_tag(addr);
        let ways = &mut self.tags[base..base + self.cfg.ways];
        if let Some(w) = ways.iter().position(|&t| t == tag) {
            self.stamps[base + w] = self.tick;
            self.stats.hits += 1;
            return true;
        }
        // Miss: fill LRU way.
        let lru = (0..self.cfg.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("ways > 0");
        self.tags[base + lru] = tag;
        self.stamps[base + lru] = self.tick;
        false
    }

    /// Probes without updating LRU or stats (for tests/diagnostics).
    pub fn probe(&self, addr: u64) -> bool {
        let (base, tag) = self.base_and_tag(addr);
        self.tags[base..base + self.cfg.ways].contains(&tag)
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Per-slot (`set * ways + way`) LRU ranks: 0 for an invalid way,
    /// 1..=ways for valid ways in ascending recency (1 = LRU). Ranks
    /// are the *normalised* form of the internal stamps — replacement
    /// compares stamps only within a set, so relative order is all a
    /// snapshot must preserve (see `snapshot.rs`).
    pub(crate) fn lru_ranks(&self) -> Vec<u8> {
        let ways = self.cfg.ways;
        let mut ranks = vec![0u8; self.tags.len()];
        let mut order: Vec<usize> = Vec::with_capacity(ways);
        for set in 0..self.cfg.sets() {
            let base = set * ways;
            order.clear();
            order.extend((0..ways).filter(|&w| self.tags[base + w] != u64::MAX));
            order.sort_by_key(|&w| self.stamps[base + w]);
            for (r, &w) in order.iter().enumerate() {
                ranks[base + w] = u8::try_from(r + 1).expect("ways fit u8");
            }
        }
        ranks
    }

    /// Per-slot tags (`u64::MAX` = invalid way).
    pub(crate) fn tag_slots(&self) -> &[u64] {
        &self.tags
    }

    /// Restores tag/LRU/counter state captured by [`Cache::lru_ranks`]
    /// and [`Cache::tag_slots`]. Stamps become the ranks themselves and
    /// the tick restarts just above them — future accesses are stamped
    /// strictly newer, so every subsequent replacement decision is
    /// identical to the pre-snapshot machine's (stamps are only ever
    /// compared within a set).
    pub(crate) fn restore_state(
        &mut self,
        tags: &[u64],
        ranks: &[u8],
        stats: CacheStats,
    ) -> Result<(), String> {
        if tags.len() != self.tags.len() || ranks.len() != self.tags.len() {
            return Err(format!(
                "cache snapshot has {} slots, geometry needs {}",
                tags.len(),
                self.tags.len()
            ));
        }
        for (slot, (&t, &r)) in tags.iter().zip(ranks).enumerate() {
            let valid = t != u64::MAX;
            if valid != (r > 0) || usize::from(r) > self.cfg.ways {
                return Err(format!("inconsistent snapshot slot {slot} (tag {t:#x}, rank {r})"));
            }
        }
        self.tags.copy_from_slice(tags);
        for (s, &r) in self.stamps.iter_mut().zip(ranks) {
            *s = u64::from(r);
        }
        self.tick = self.cfg.ways as u64;
        self.stats = stats;
        Ok(())
    }
}

/// Which level served an access (for statistics and tests).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MemLevel {
    /// Served by the L1 (hit).
    L1,
    /// L1 miss, L2 hit.
    L2,
    /// Missed both caches; served by main memory.
    Memory,
}

/// Latency parameters of the hierarchy.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Shared L2 geometry.
    pub l2: CacheConfig,
    /// L1 hit time in cycles (paper: 1).
    pub l1_hit: u32,
    /// Additional penalty for an L1 miss that hits in L2 (paper: 6).
    pub l1_miss_penalty: u32,
    /// Memory bus width in bytes (paper: 16).
    pub bus_bytes: u32,
    /// Cycles for the first chunk from memory (paper: 16).
    pub mem_first_chunk: u32,
    /// Cycles per additional chunk (paper: 2).
    pub mem_inter_chunk: u32,
}

impl Default for HierarchyConfig {
    fn default() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig::paper_l1(),
            l1d: CacheConfig::paper_l1(),
            l2: CacheConfig::paper_l2(),
            l1_hit: 1,
            l1_miss_penalty: 6,
            bus_bytes: 16,
            mem_first_chunk: 16,
            mem_inter_chunk: 2,
        }
    }
}

/// The full memory hierarchy: split L1s over a shared L2 over a
/// chunked memory bus.
///
/// # Example
///
/// ```
/// use dca_uarch::{HierarchyConfig, MemHierarchy, MemLevel};
/// let mut m = MemHierarchy::new(HierarchyConfig::default());
/// let (lat, lvl) = m.access_data(0x8000);
/// assert_eq!(lvl, MemLevel::Memory);    // cold miss
/// assert_eq!(lat, 1 + 6 + 16 + 3 * 2);  // L1 + L2 lookup + 4 chunks
/// let (lat, lvl) = m.access_data(0x8000);
/// assert_eq!((lat, lvl), (1, MemLevel::L1));
/// ```
#[derive(Clone, Debug)]
pub struct MemHierarchy {
    cfg: HierarchyConfig,
    /// Cycles to fetch one L2 line from memory, fixed by `cfg`.
    mem_lat: u32,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
}

impl MemHierarchy {
    /// Builds an empty hierarchy.
    pub fn new(cfg: HierarchyConfig) -> MemHierarchy {
        MemHierarchy {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            mem_lat: Self::mem_latency(&cfg),
            cfg,
        }
    }

    fn mem_latency(cfg: &HierarchyConfig) -> u32 {
        let line = cfg.l2.line_bytes as u32;
        let chunks = line.div_ceil(cfg.bus_bytes).max(1);
        cfg.mem_first_chunk + (chunks - 1) * cfg.mem_inter_chunk
    }

    #[inline]
    fn access(l1: &mut Cache, l2: &mut Cache, cfg: &HierarchyConfig, mem_lat: u32, addr: u64) -> (u32, MemLevel) {
        if l1.access(addr) {
            return (cfg.l1_hit, MemLevel::L1);
        }
        if l2.access(addr) {
            return (cfg.l1_hit + cfg.l1_miss_penalty, MemLevel::L2);
        }
        (cfg.l1_hit + cfg.l1_miss_penalty + mem_lat, MemLevel::Memory)
    }

    /// Instruction-fetch access: returns `(latency, serving level)`.
    #[inline]
    pub fn access_inst(&mut self, addr: u64) -> (u32, MemLevel) {
        Self::access(&mut self.l1i, &mut self.l2, &self.cfg, self.mem_lat, addr)
    }

    /// Data access (loads and committed stores): returns
    /// `(latency, serving level)`.
    #[inline]
    pub fn access_data(&mut self, addr: u64) -> (u32, MemLevel) {
        Self::access(&mut self.l1d, &mut self.l2, &self.cfg, self.mem_lat, addr)
    }

    /// L1 instruction-cache counters.
    pub fn l1i_stats(&self) -> CacheStats {
        self.l1i.stats()
    }

    /// L1 data-cache counters.
    pub fn l1d_stats(&self) -> CacheStats {
        self.l1d.stats()
    }

    /// Shared L2 counters.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// The configuration used to build the hierarchy.
    pub fn config(&self) -> HierarchyConfig {
        self.cfg
    }

    /// The three caches, for the snapshot codec.
    pub(crate) fn caches(&self) -> [&Cache; 3] {
        [&self.l1i, &self.l1d, &self.l2]
    }

    /// Mutable access to the three caches, for snapshot restore.
    pub(crate) fn caches_mut(&mut self) -> [&mut Cache; 3] {
        [&mut self.l1i, &mut self.l1d, &mut self.l2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 32B lines = 128 B
        Cache::new(CacheConfig {
            size_bytes: 128,
            ways: 2,
            line_bytes: 32,
        })
    }

    #[test]
    fn same_line_hits_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x11f)); // last byte of the same 32B line
        assert!(!c.access(0x120)); // next line
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = 64 bytes).
        let a = 0x000;
        let b = 0x040;
        let d = 0x080;
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // a is now MRU
        assert!(!c.access(d)); // evicts b (LRU)
        assert!(c.access(a), "a must survive");
        assert!(!c.access(b), "b must have been evicted");
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        c.access(64);
        let s = c.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses(), 2);
        assert!((s.miss_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = tiny();
        c.access(0);
        let s = c.stats();
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert_eq!(c.stats(), s);
    }

    #[test]
    fn paper_l1_geometry() {
        let c = Cache::new(CacheConfig::paper_l1());
        assert_eq!(c.config().sets(), 1024);
    }

    #[test]
    fn hierarchy_latencies_match_table2() {
        let mut m = MemHierarchy::new(HierarchyConfig::default());
        // Cold: L1 miss + L2 miss -> 1 + 6 + (16 + 3*2) = 29
        let (lat, lvl) = m.access_data(0x4000);
        assert_eq!((lat, lvl), (29, MemLevel::Memory));
        // Now in both caches.
        assert_eq!(m.access_data(0x4000), (1, MemLevel::L1));
        // A different L1 line within the same (already fetched) 64B L2
        // line: L1 misses, L2 hits -> 1 + 6.
        let (lat, lvl) = m.access_data(0x4020);
        assert_eq!((lat, lvl), (7, MemLevel::L2));
    }

    #[test]
    fn split_l1s_share_l2() {
        let mut m = MemHierarchy::new(HierarchyConfig::default());
        let (_, lvl) = m.access_inst(0x9000);
        assert_eq!(lvl, MemLevel::Memory);
        // Same line through the *data* path: L1D misses but L2 has it.
        let (_, lvl) = m.access_data(0x9000);
        assert_eq!(lvl, MemLevel::L2);
        assert_eq!(m.l1i_stats().accesses, 1);
        assert_eq!(m.l1d_stats().accesses, 1);
        assert_eq!(m.l2_stats().accesses, 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_line_size() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 96,
            ways: 1,
            line_bytes: 24,
        });
    }

    /// Reference model: the same tag/stamp cache, indexed by division
    /// and modulo instead of a shift and a mask.
    struct DivCache {
        cfg: CacheConfig,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        tick: u64,
        stats: CacheStats,
    }

    impl DivCache {
        fn new(cfg: CacheConfig) -> DivCache {
            let slots = cfg.size_bytes / cfg.line_bytes;
            DivCache {
                cfg,
                tags: vec![u64::MAX; slots],
                stamps: vec![0; slots],
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.tick += 1;
            self.stats.accesses += 1;
            let sets = (self.cfg.size_bytes / (self.cfg.ways * self.cfg.line_bytes)) as u64;
            let tag = addr / self.cfg.line_bytes as u64;
            let base = (tag % sets) as usize * self.cfg.ways;
            let slots = base..base + self.cfg.ways;
            if let Some(s) = slots.clone().find(|&s| self.tags[s] == tag) {
                self.stamps[s] = self.tick;
                self.stats.hits += 1;
                return true;
            }
            let lru = slots.min_by_key(|&s| self.stamps[s]).expect("ways > 0");
            self.tags[lru] = tag;
            self.stamps[lru] = self.tick;
            false
        }

        fn lru_ranks(&self) -> Vec<u8> {
            let mut ranks = vec![0u8; self.tags.len()];
            for set in (0..self.tags.len()).step_by(self.cfg.ways) {
                let mut valid: Vec<usize> =
                    (set..set + self.cfg.ways).filter(|&s| self.tags[s] != u64::MAX).collect();
                valid.sort_by_key(|&s| self.stamps[s]);
                for (r, s) in valid.into_iter().enumerate() {
                    ranks[s] = r as u8 + 1;
                }
            }
            ranks
        }
    }

    mod reference {
        use super::*;
        use proptest::prelude::*;

        fn geometries() -> [CacheConfig; 4] {
            [
                CacheConfig { size_bytes: 1024, ways: 1, line_bytes: 16 },
                CacheConfig { size_bytes: 128, ways: 2, line_bytes: 32 },
                CacheConfig::paper_l1(),
                CacheConfig::paper_l2(),
            ]
        }

        /// Addresses that collide: a few sets of the geometry, more
        /// tags than ways per set, any byte of the line; one in four
        /// is an arbitrary 64-bit address instead.
        fn address(cfg: CacheConfig, (kind, raw, tag, set): (u8, u64, u64, u64)) -> u64 {
            if kind == 0 {
                return raw;
            }
            let way_bytes = (cfg.size_bytes / cfg.ways) as u64;
            tag * way_bytes + set * cfg.line_bytes as u64 + raw % cfg.line_bytes as u64
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn shift_and_mask_indexing_matches_the_division_oracle(
                geometry in 0usize..4,
                stream in proptest::collection::vec(
                    (0u8..4, any::<u64>(), 0u64..12, 0u64..3),
                    1..600,
                ),
            ) {
                let cfg = geometries()[geometry];
                let mut dut = Cache::new(cfg);
                let mut oracle = DivCache::new(cfg);
                for (i, &a) in stream.iter().enumerate() {
                    let addr = address(cfg, a);
                    prop_assert_eq!(
                        dut.access(addr),
                        oracle.access(addr),
                        "{:?}: access {} ({:#x})",
                        cfg,
                        i,
                        addr
                    );
                }
                prop_assert_eq!(dut.stats(), oracle.stats);
                prop_assert_eq!(dut.tag_slots(), &oracle.tags[..]);
                prop_assert_eq!(dut.lru_ranks(), oracle.lru_ranks());
            }
        }
    }
}
