//! Machine configuration (the paper's Table 2) and its presets,
//! generalised to N-way (and heterogeneous) clustered machines.
//!
//! The paper evaluates exactly two clusters; this module keeps those
//! machines as presets (and the 2-cluster geometry is pinned
//! bit-identical by `tests/n2_golden.rs`) while the machine description
//! itself — [`MachineDesc`] — carries an arbitrary number of clusters
//! with per-cluster issue width, IQ size, register-file size, FU mix,
//! and an inter-cluster distance matrix.

use dca_uarch::{CombinedConfig, FuPoolConfig, HierarchyConfig};

/// Hard upper bound on clusters a single machine can have. Per-cluster
/// state in hot structures ([`SimStats`](crate::SimStats) counters,
/// steering contexts) is stored in fixed `[T; MAX_CLUSTERS]` arrays so
/// the hot paths stay alloc-free regardless of N.
pub const MAX_CLUSTERS: usize = 8;

/// Dense cluster index. The paper's two machines use cluster 0 as the
/// *integer cluster* (it owns the complex integer units — the paper's
/// "cluster 1" / C1) and cluster 1 as the *FP cluster* (the paper's
/// "cluster 2" / C2); N-way machines simply use indices `0..n`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(u8);

impl ClusterId {
    /// The integer cluster of the 2-cluster paper machines (index 0).
    pub const INT: ClusterId = ClusterId(0);
    /// The FP cluster of the 2-cluster paper machines (index 1).
    pub const FP: ClusterId = ClusterId(1);

    /// The two paper clusters, in index order. Only meaningful for
    /// 2-cluster machines and tests; N-aware code iterates
    /// [`SimConfig::clusters`] instead.
    pub const BOTH: [ClusterId; 2] = [ClusterId::INT, ClusterId::FP];

    /// Dense index. Masked to `MAX_CLUSTERS - 1` (a no-op for every id
    /// this crate constructs) so indexing a `[T; MAX_CLUSTERS]` array
    /// compiles without a bounds check.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize & (MAX_CLUSTERS - 1)
    }

    /// Cluster from a dense index; `None` if `i >= MAX_CLUSTERS`.
    #[inline]
    pub fn from_index(i: usize) -> Option<ClusterId> {
        if i < MAX_CLUSTERS {
            Some(ClusterId(i as u8))
        } else {
            None
        }
    }

    /// Cluster from a dense index the caller has already bounds-checked
    /// (hot paths: loop indices over `0..n_clusters`). Debug builds
    /// still assert.
    #[inline]
    pub fn from_index_unchecked(i: usize) -> ClusterId {
        debug_assert!(i < MAX_CLUSTERS, "cluster index {i} out of range");
        ClusterId(i as u8)
    }

    /// The other cluster of a 2-cluster machine. Meaningless for N>2 —
    /// N-aware code ranks candidates instead of flipping.
    #[inline]
    pub fn other(self) -> ClusterId {
        ClusterId(self.0 ^ 1)
    }
}

impl std::fmt::Display for ClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The historical names for the two paper clusters (kept so
        // 2-cluster traces render identically); higher indices are
        // plain "C2", "C3", ...
        match self.0 {
            0 => f.write_str("INT"),
            1 => f.write_str("FP"),
            n => write!(f, "C{n}"),
        }
    }
}

/// A small set of clusters (bitmask over dense indices). Replaces the
/// old pair-of-bools in steering interfaces.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct ClusterSet(u8);

impl ClusterSet {
    /// The empty set.
    pub const EMPTY: ClusterSet = ClusterSet(0);

    /// The set `{0, 1, ..., n-1}`.
    #[inline]
    pub fn first_n(n: usize) -> ClusterSet {
        debug_assert!(n <= MAX_CLUSTERS);
        ClusterSet(if n >= 8 { u8::MAX } else { (1u8 << n) - 1 })
    }

    /// The singleton set `{c}`.
    #[inline]
    pub fn only(c: ClusterId) -> ClusterSet {
        ClusterSet(1 << c.0)
    }

    /// Adds `c` to the set.
    #[inline]
    pub fn insert(&mut self, c: ClusterId) {
        self.0 |= 1 << c.0;
    }

    /// Removes `c` from the set.
    #[inline]
    pub fn remove(&mut self, c: ClusterId) {
        self.0 &= !(1 << c.0);
    }

    /// `true` if `c` is a member.
    #[inline]
    pub fn contains(self, c: ClusterId) -> bool {
        self.0 & (1 << c.0) != 0
    }

    /// `true` if no cluster is a member.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of clusters in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Members in ascending index order.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = ClusterId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let i = bits.trailing_zeros() as u8;
            bits &= bits - 1;
            Some(ClusterId(i))
        })
    }

    /// The lowest-index member, if any.
    #[inline]
    pub fn first(self) -> Option<ClusterId> {
        if self.0 == 0 {
            None
        } else {
            Some(ClusterId(self.0.trailing_zeros() as u8))
        }
    }
}

/// Which issue-engine implementation drives the backend. Both produce
/// **bit-for-bit identical** [`SimStats`](crate::SimStats) (enforced by
/// `tests/engine_equivalence.rs`); they differ only in host-side cost.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Event-driven wakeup lists: per-register waiter lists, per-cluster
    /// ready lists, O(1) ready counts and idle-cycle skip-ahead. The
    /// default.
    #[default]
    Event,
    /// The original per-cycle linear scan over every IQ entry and
    /// source register. Kept as the executable specification the event
    /// engine is checked against.
    Scan,
}

/// Full machine configuration. Public fields in the spirit of a plain
/// parameter record; [`SimConfig::validate`] checks consistency and the
/// presets encode the paper's machines. Per-cluster arrays are
/// `MAX_CLUSTERS` long with entries `n_clusters..` unused (zero).
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Number of live clusters (2 for every paper machine).
    pub n_clusters: u8,
    /// Instructions fetched per cycle (paper: 8).
    pub fetch_width: u32,
    /// Instructions decoded/renamed per cycle (paper: 8).
    pub decode_width: u32,
    /// Instructions retired per cycle (paper: 8).
    pub retire_width: u32,
    /// Reorder-buffer entries = max in-flight instructions (paper: 64).
    pub rob_size: u32,
    /// Instruction-queue entries per cluster (paper: 64 + 64).
    pub iq_size: [u32; MAX_CLUSTERS],
    /// Issue width per cluster (paper: 4 + 4).
    pub issue_width: [u32; MAX_CLUSTERS],
    /// Physical registers per cluster (paper: 96 + 96).
    pub phys_regs: [u32; MAX_CLUSTERS],
    /// Functional units per cluster.
    pub fus: [FuPoolConfig; MAX_CLUSTERS],
    /// Inter-cluster transfers per cycle per *source* cluster
    /// (paper: 3).
    pub buses_per_dir: u32,
    /// Extra cycles an inter-cluster bypass adds over a local bypass
    /// (paper: 1).
    pub copy_latency: u32,
    /// Additional copy latency between specific cluster pairs on top of
    /// [`SimConfig::copy_latency`] — the inter-cluster *distance*
    /// matrix, `extra_distance[src][dst]` cycles. All-zero for the
    /// paper machines (a flat crossbar).
    pub extra_distance: [[u8; MAX_CLUSTERS]; MAX_CLUSTERS],
    /// D-cache read/write ports shared by loads and committing stores
    /// (paper: 3).
    pub dcache_ports: u32,
    /// Register-file read ports per cluster consumed at issue; `0`
    /// models unconstrained ports (the default — Table 2 does not give
    /// port counts, but §2 says copies "compete for … register file
    /// ports as any other instruction", which this knob exposes for
    /// ablation).
    pub rf_read_ports: [u32; MAX_CLUSTERS],
    /// Register-file write ports per cluster consumed at issue (result
    /// and copy-destination writes); `0` = unconstrained.
    pub rf_write_ports: [u32; MAX_CLUSTERS],
    /// Cache/memory hierarchy parameters.
    pub hierarchy: HierarchyConfig,
    /// Branch predictor geometry.
    pub bpred: CombinedConfig,
    /// Whether the inter-cluster bypasses exist. `false` reproduces the
    /// *base* (conventional) machine, which communicates only through
    /// memory.
    pub intercluster: bool,
    /// Upper-bound machine: a single unified cluster (index 0) holding
    /// the union of all resources; steering is ignored.
    pub unified: bool,
    /// Fetch-buffer capacity in instructions.
    pub fetch_buffer: u32,
    /// Issue-engine implementation (host-side choice; no timing effect).
    pub engine: Engine,
}

/// Fills a `MAX_CLUSTERS`-long per-cluster array from the given prefix,
/// zeroing (defaulting) the rest — the convenient way to write ablated
/// configs without spelling out all eight slots.
pub fn per_cluster<T: Copy + Default>(prefix: &[T]) -> [T; MAX_CLUSTERS] {
    let mut a = [T::default(); MAX_CLUSTERS];
    a[..prefix.len()].copy_from_slice(prefix);
    a
}

/// An empty FU pool for unused cluster slots.
fn no_fus() -> FuPoolConfig {
    FuPoolConfig {
        int_alu: 0,
        int_muldiv: 0,
        fp_alu: 0,
        fp_muldiv: 0,
    }
}

fn fus_from(prefix: &[FuPoolConfig]) -> [FuPoolConfig; MAX_CLUSTERS] {
    let mut a = [no_fus(); MAX_CLUSTERS];
    a[..prefix.len()].copy_from_slice(prefix);
    a
}

impl SimConfig {
    /// The paper's clustered machine (Table 2).
    pub fn paper_clustered() -> SimConfig {
        SimConfig {
            n_clusters: 2,
            fetch_width: 8,
            decode_width: 8,
            retire_width: 8,
            rob_size: 64,
            iq_size: per_cluster(&[64, 64]),
            issue_width: per_cluster(&[4, 4]),
            phys_regs: per_cluster(&[96, 96]),
            fus: fus_from(&[
                FuPoolConfig::paper_int_cluster(),
                FuPoolConfig::paper_fp_cluster(),
            ]),
            buses_per_dir: 3,
            copy_latency: 1,
            extra_distance: [[0; MAX_CLUSTERS]; MAX_CLUSTERS],
            dcache_ports: 3,
            rf_read_ports: [0; MAX_CLUSTERS],
            rf_write_ports: [0; MAX_CLUSTERS],
            hierarchy: HierarchyConfig::default(),
            bpred: CombinedConfig::default(),
            intercluster: true,
            unified: false,
            fetch_buffer: 16,
            engine: Engine::default(),
        }
    }

    /// The *base* conventional machine the paper reports speed-ups
    /// against: identical parameters, but the FP cluster has **no**
    /// simple integer units and there are **no** inter-cluster
    /// bypasses.
    pub fn paper_base() -> SimConfig {
        SimConfig {
            fus: fus_from(&[
                FuPoolConfig::paper_int_cluster(),
                FuPoolConfig::base_fp_cluster(),
            ]),
            intercluster: false,
            ..SimConfig::paper_clustered()
        }
    }

    /// The paper's upper bound ("UB arch"): a 16-way issue processor
    /// (8 integer + 8 FP) with no communication penalty, modelled as a
    /// single unified cluster with 8-wide issue on the integer side —
    /// the binding constraint for SpecInt workloads — and the union of
    /// all functional units.
    pub fn paper_upper_bound() -> SimConfig {
        SimConfig {
            iq_size: per_cluster(&[128, 0]),
            issue_width: per_cluster(&[8, 0]),
            phys_regs: per_cluster(&[192, 0]),
            fus: fus_from(&[FuPoolConfig::paper_unified(), FuPoolConfig::base_fp_cluster()]),
            unified: true,
            intercluster: false,
            ..SimConfig::paper_clustered()
        }
    }

    /// The clustered machine with a single bus each way (§3.8 claims
    /// performance is unchanged).
    pub fn one_bus() -> SimConfig {
        SimConfig {
            buses_per_dir: 1,
            ..SimConfig::paper_clustered()
        }
    }

    /// A deliberately tiny machine for stress tests: 2-wide everything,
    /// small queues — surfaces structural-hazard bugs quickly.
    pub fn small_test() -> SimConfig {
        SimConfig {
            fetch_width: 2,
            decode_width: 2,
            retire_width: 2,
            rob_size: 8,
            iq_size: per_cluster(&[4, 4]),
            issue_width: per_cluster(&[2, 2]),
            phys_regs: per_cluster(&[48, 72]),
            buses_per_dir: 1,
            fetch_buffer: 4,
            ..SimConfig::paper_clustered()
        }
    }

    /// A homogeneous N-cluster extension of the paper machine:
    /// cluster 0 keeps the complex integer units, cluster 1 keeps the
    /// FP units (plus its 3 simple ALUs), and clusters `2..n` are
    /// simple integer clusters (3 ALUs) with the same queue/register/
    /// issue geometry. `n_clustered(2)` *is* the paper's clustered
    /// machine, bit for bit.
    ///
    /// # Errors
    ///
    /// Rejects `n` outside `2..=MAX_CLUSTERS`.
    pub fn n_clustered(n: usize) -> Result<SimConfig, String> {
        if !(2..=MAX_CLUSTERS).contains(&n) {
            return Err(format!("cluster count {n} outside 2..={MAX_CLUSTERS}"));
        }
        let mut cfg = SimConfig::paper_clustered();
        cfg.n_clusters = n as u8;
        let simple = FuPoolConfig {
            int_alu: 3,
            int_muldiv: 0,
            fp_alu: 0,
            fp_muldiv: 0,
        };
        for c in 2..n {
            cfg.iq_size[c] = 64;
            cfg.issue_width[c] = 4;
            cfg.phys_regs[c] = 96;
            cfg.fus[c] = simple;
        }
        Ok(cfg)
    }

    /// Number of live clusters as a `usize`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n_clusters as usize
    }

    /// The live clusters, in index order.
    #[inline]
    pub fn clusters(&self) -> impl Iterator<Item = ClusterId> {
        (0..self.n_clusters).map(ClusterId)
    }

    /// The cluster owning the FP register bank: the first cluster with
    /// FP units (cluster 1 on the paper machines, cluster 0 on the
    /// unified upper bound).
    pub fn fp_cluster(&self) -> ClusterId {
        self.clusters()
            .find(|c| self.fus[c.index()].fp_alu > 0 || self.fus[c.index()].fp_muldiv > 0)
            .unwrap_or(ClusterId::INT)
    }

    /// A stable hash of every *timing-relevant* field (the engine
    /// choice is excluded — both engines are bit-identical). Used to
    /// key stored results so runs on different geometries or ablated
    /// configs can never collide. Derived from the `Debug` rendering,
    /// so any field addition/change also changes the hash — exactly
    /// the staleness behaviour a persistent store wants.
    pub fn config_hash(&self) -> u64 {
        let mut canon = self.clone();
        canon.engine = Engine::Event;
        fnv64(format!("{canon:?}").as_bytes())
    }

    /// A stable hash of the warming-relevant subset (cache hierarchy +
    /// branch predictor geometry). Checkpoint streams carry functional
    /// state plus µarch warming snapshots; two configs with equal
    /// `uarch_hash` can share a stream even if their cluster geometry
    /// differs.
    pub fn uarch_hash(&self) -> u64 {
        fnv64(format!("{:?}/{:?}", self.hierarchy, self.bpred).as_bytes())
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint (e.g. fewer physical registers than architectural
    /// state requires).
    pub fn validate(&self) -> Result<(), String> {
        if !(2..=MAX_CLUSTERS as u8).contains(&self.n_clusters) {
            return Err(format!(
                "cluster count {} outside 2..={MAX_CLUSTERS}",
                self.n_clusters
            ));
        }
        if self.fetch_width == 0 || self.decode_width == 0 || self.retire_width == 0 {
            return Err("pipeline widths must be non-zero".into());
        }
        if self.rob_size == 0 {
            return Err("ROB must have at least one entry".into());
        }
        // Architectural mappings: 31 int regs in cluster 0 (r0 is not
        // renamed), 32 FP regs in the FP cluster. With inter-cluster
        // bypasses any cluster can additionally hold a live *replica*
        // of every integer register (the paper's replication, Figure
        // 15), so each register file must cover its long-lived
        // mappings plus at least one in-flight allocation — undersizing
        // it deadlocks dispatch once replicas accumulate. The paper's
        // 96 registers satisfy this comfortably.
        if self.phys_regs[0] < 31 + 1 {
            return Err("cluster 0 needs at least 32 physical registers".into());
        }
        let fp_cluster = self.fp_cluster().index();
        // Unified: 31 int + 32 FP architectural mappings share the one
        // file. Clustered with bypasses: 32 FP plus up to 31 integer
        // *replicas*. Both compositions need the same 63 long-lived
        // mappings; without bypasses only the FP bank lives there.
        let fp_need = if self.unified || self.intercluster {
            31 + 32 + 1
        } else {
            32 + 1
        };
        if self.phys_regs[fp_cluster] < fp_need {
            return Err(format!(
                "cluster {fp_cluster} needs at least {fp_need} physical registers                  (architectural state + possible replicas + one in flight)"
            ));
        }
        if self.unified && self.intercluster {
            return Err("a unified machine has no inter-cluster buses".into());
        }
        // Without bypasses values cross clusters only through memory,
        // so integer code must all run in cluster 0, beside the integer
        // registers, and FP code in the one FP cluster (the base
        // machine). Otherwise steering needs a copy the machine cannot
        // make.
        if !self.unified && !self.intercluster {
            for c in 1..self.n() {
                let f = &self.fus[c];
                if f.int_alu > 0 || f.int_muldiv > 0 {
                    return Err(format!(
                        "cluster {c} has integer units, but a machine without \
                         inter-cluster bypasses runs all integer code in cluster 0"
                    ));
                }
                if f.fp_alu > 0 && c != fp_cluster {
                    return Err(format!(
                        "cluster {c} is a second FP cluster, but a machine without \
                         inter-cluster bypasses has only one"
                    ));
                }
            }
        }
        if self.intercluster && self.buses_per_dir == 0 {
            return Err("clustered machine needs at least one bus per direction".into());
        }
        for c in 2..self.n() {
            if self.intercluster && self.phys_regs[c] < 31 + 1 {
                return Err(format!(
                    "cluster {c} needs at least 32 physical registers to hold replicas"
                ));
            }
            if !self.unified && self.iq_size[c] == 0 {
                return Err(format!("cluster {c} has no instruction-queue entries"));
            }
        }
        for c in 0..self.n() {
            if self.rf_read_ports[c] == 1 {
                return Err(format!(
                    "cluster {c}: 1 RF read port cannot issue two-source \
                     instructions (use 0 for unconstrained or >= 2)"
                ));
            }
            let f = &self.fus[c];
            if (f.fp_alu > 0) != (f.fp_muldiv > 0) {
                return Err(format!(
                    "cluster {c}: FP-capable clusters need both FP ALU and FP \
                     mul/div units (steering treats FP capability as atomic)"
                ));
            }
        }
        if self.fetch_buffer < self.fetch_width {
            return Err("fetch buffer must hold at least one fetch group".into());
        }
        Ok(())
    }
}

impl Default for SimConfig {
    /// Defaults to the paper's clustered machine.
    fn default() -> SimConfig {
        SimConfig::paper_clustered()
    }
}

/// FNV-1a over a byte string — the store's stable, dependency-free
/// content hash.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Geometry of one cluster, as carried by a [`MachineDesc`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ClusterDesc {
    /// Instructions issued per cycle.
    pub issue_width: u32,
    /// Instruction-queue entries.
    pub iq_size: u32,
    /// Physical registers.
    pub phys_regs: u32,
    /// Functional-unit mix.
    pub fus: FuPoolConfig,
}

/// A machine *geometry*: the per-cluster shape plus the inter-cluster
/// distance matrix, independent of the front-end/memory parameters it
/// is applied on top of. Parsed from `--geometry` specs, produced by
/// the N-cluster presets, and applied to a base [`SimConfig`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineDesc {
    /// Per-cluster geometry, index order.
    pub clusters: Vec<ClusterDesc>,
    /// `extra_distance[src][dst]` extra copy cycles (row-major,
    /// `n*n` entries).
    pub extra_distance: Vec<u8>,
}

impl MachineDesc {
    /// The geometry of an existing config.
    pub fn from_config(cfg: &SimConfig) -> MachineDesc {
        let n = cfg.n();
        let clusters = (0..n)
            .map(|c| ClusterDesc {
                issue_width: cfg.issue_width[c],
                iq_size: cfg.iq_size[c],
                phys_regs: cfg.phys_regs[c],
                fus: cfg.fus[c],
            })
            .collect();
        let mut extra_distance = Vec::with_capacity(n * n);
        for s in 0..n {
            for d in 0..n {
                extra_distance.push(cfg.extra_distance[s][d]);
            }
        }
        MachineDesc {
            clusters,
            extra_distance,
        }
    }

    /// The homogeneous N-cluster preset (see
    /// [`SimConfig::n_clustered`]).
    ///
    /// # Errors
    ///
    /// Rejects `n` outside `2..=MAX_CLUSTERS`.
    pub fn homogeneous(n: usize) -> Result<MachineDesc, String> {
        Ok(MachineDesc::from_config(&SimConfig::n_clustered(n)?))
    }

    /// The heterogeneous 4-cluster preset: the two paper clusters plus
    /// two narrow satellites (2-wide, half-size queues and register
    /// files, 2 simple ALUs) on a linear topology where each hop past
    /// an adjacent cluster costs one extra copy cycle.
    pub fn hetero4() -> MachineDesc {
        let narrow = ClusterDesc {
            issue_width: 2,
            iq_size: 32,
            phys_regs: 48,
            fus: FuPoolConfig {
                int_alu: 2,
                int_muldiv: 0,
                fp_alu: 0,
                fp_muldiv: 0,
            },
        };
        let mut desc = MachineDesc::from_config(&SimConfig::paper_clustered());
        desc.clusters.push(narrow);
        desc.clusters.push(narrow);
        desc.extra_distance = MachineDesc::line_distance(4);
        desc
    }

    /// Linear-topology distance: adjacent clusters are free, each
    /// further hop adds one cycle.
    fn line_distance(n: usize) -> Vec<u8> {
        let mut m = Vec::with_capacity(n * n);
        for s in 0..n {
            for d in 0..n {
                m.push((s as i32 - d as i32).unsigned_abs().saturating_sub(1) as u8);
            }
        }
        m
    }

    /// Parses a geometry spec: either a named preset (`homo2`, `homo4`,
    /// `homo8`, `hetero4`) or a comma-separated list of per-cluster
    /// descriptors `i<issue>q<iq>r<regs>[a<alus>][m][f]` where `m`
    /// grants the integer mul/div unit, `f` the FP units (3 ALU +
    /// 1 mul/div), and `a` overrides the simple-ALU count (default 3).
    /// An optional `@line` suffix selects the linear-topology distance
    /// matrix (default: flat, all-zero).
    ///
    /// # Errors
    ///
    /// Describes the first malformed token.
    pub fn parse(spec: &str) -> Result<MachineDesc, String> {
        match spec {
            "homo2" => return MachineDesc::homogeneous(2),
            "homo4" => return MachineDesc::homogeneous(4),
            "homo8" => return MachineDesc::homogeneous(8),
            "hetero4" => return Ok(MachineDesc::hetero4()),
            _ => {}
        }
        let (body, line) = match spec.strip_suffix("@line") {
            Some(b) => (b, true),
            None => (spec, false),
        };
        let mut clusters = Vec::new();
        for tok in body.split(',') {
            clusters.push(parse_cluster_desc(tok.trim())?);
        }
        let n = clusters.len();
        if !(2..=MAX_CLUSTERS).contains(&n) {
            return Err(format!("geometry has {n} clusters, need 2..={MAX_CLUSTERS}"));
        }
        let extra_distance = if line {
            MachineDesc::line_distance(n)
        } else {
            vec![0; n * n]
        };
        Ok(MachineDesc {
            clusters,
            extra_distance,
        })
    }

    /// Applies this geometry on top of `base` (front-end widths, memory
    /// hierarchy, bus count etc. are retained) and validates the
    /// result.
    ///
    /// # Errors
    ///
    /// Propagates [`SimConfig::validate`] failures and rejects
    /// out-of-range cluster counts and a unified `base`.
    pub fn apply(&self, base: &SimConfig) -> Result<SimConfig, String> {
        if base.unified {
            return Err("the upper-bound machine is one unified cluster; \
                        a geometry needs a clustered preset"
                .into());
        }
        let n = self.clusters.len();
        if !(2..=MAX_CLUSTERS).contains(&n) {
            return Err(format!("geometry has {n} clusters, need 2..={MAX_CLUSTERS}"));
        }
        if self.extra_distance.len() != n * n {
            return Err(format!(
                "distance matrix has {} entries, need {}",
                self.extra_distance.len(),
                n * n
            ));
        }
        let mut cfg = base.clone();
        cfg.n_clusters = n as u8;
        cfg.iq_size = [0; MAX_CLUSTERS];
        cfg.issue_width = [0; MAX_CLUSTERS];
        cfg.phys_regs = [0; MAX_CLUSTERS];
        cfg.fus = [no_fus(); MAX_CLUSTERS];
        cfg.extra_distance = [[0; MAX_CLUSTERS]; MAX_CLUSTERS];
        for (c, d) in self.clusters.iter().enumerate() {
            cfg.iq_size[c] = d.iq_size;
            cfg.issue_width[c] = d.issue_width;
            cfg.phys_regs[c] = d.phys_regs;
            cfg.fus[c] = d.fus;
        }
        for s in 0..n {
            for d in 0..n {
                cfg.extra_distance[s][d] = self.extra_distance[s * n + d];
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

fn parse_cluster_desc(tok: &str) -> Result<ClusterDesc, String> {
    let bad = |why: &str| format!("bad cluster descriptor {tok:?}: {why}");
    let mut issue = None;
    let mut iq = None;
    let mut regs = None;
    let mut alus: Option<u32> = None;
    let mut muldiv = false;
    let mut fp = false;
    let bytes = tok.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let key = bytes[i] as char;
        i += 1;
        match key {
            'm' => {
                muldiv = true;
                continue;
            }
            'f' => {
                fp = true;
                continue;
            }
            'i' | 'q' | 'r' | 'a' => {}
            other => return Err(bad(&format!("unknown key {other:?}"))),
        }
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        let v: u32 = tok[start..i]
            .parse()
            .map_err(|_| bad(&format!("key {key:?} needs a number")))?;
        match key {
            'i' => issue = Some(v),
            'q' => iq = Some(v),
            'r' => regs = Some(v),
            'a' => alus = Some(v),
            _ => unreachable!(),
        }
    }
    let issue = issue.ok_or_else(|| bad("missing issue width (i<n>)"))?;
    let iq = iq.ok_or_else(|| bad("missing IQ size (q<n>)"))?;
    let regs = regs.ok_or_else(|| bad("missing register count (r<n>)"))?;
    Ok(ClusterDesc {
        issue_width: issue,
        iq_size: iq,
        phys_regs: regs,
        fus: FuPoolConfig {
            int_alu: alus.unwrap_or(3),
            int_muldiv: u32::from(muldiv),
            fp_alu: if fp { 3 } else { 0 },
            fp_muldiv: u32::from(fp),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for cfg in [
            SimConfig::paper_clustered(),
            SimConfig::paper_base(),
            SimConfig::paper_upper_bound(),
            SimConfig::one_bus(),
            SimConfig::small_test(),
            SimConfig::n_clustered(4).unwrap(),
            SimConfig::n_clustered(8).unwrap(),
            MachineDesc::hetero4()
                .apply(&SimConfig::paper_clustered())
                .unwrap(),
        ] {
            cfg.validate().expect("preset must be valid");
        }
    }

    #[test]
    fn cluster_id_round_trips() {
        for c in ClusterId::BOTH {
            assert_eq!(ClusterId::from_index(c.index()), Some(c));
            assert_ne!(c.other(), c);
            assert_eq!(c.other().other(), c);
        }
        assert_eq!(ClusterId::from_index(MAX_CLUSTERS), None);
        assert_eq!(ClusterId::from_index(7).unwrap().to_string(), "C7");
        assert_eq!(ClusterId::INT.to_string(), "INT");
        assert_eq!(ClusterId::FP.to_string(), "FP");
    }

    #[test]
    fn cluster_sets() {
        let mut s = ClusterSet::first_n(3);
        assert_eq!(s.len(), 3);
        assert!(s.contains(ClusterId::INT));
        s.remove(ClusterId::INT);
        assert_eq!(s.first(), Some(ClusterId::FP));
        assert_eq!(
            s.iter().map(|c| c.index()).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert!(ClusterSet::EMPTY.is_empty());
        assert_eq!(ClusterSet::first_n(MAX_CLUSTERS).len(), MAX_CLUSTERS);
    }

    #[test]
    fn n2_preset_is_the_paper_machine() {
        assert_eq!(SimConfig::n_clustered(2).unwrap(), SimConfig::paper_clustered());
        assert_eq!(
            MachineDesc::homogeneous(2)
                .unwrap()
                .apply(&SimConfig::paper_clustered())
                .unwrap(),
            SimConfig::paper_clustered()
        );
    }

    #[test]
    fn geometry_hash_separates_machines() {
        let a = SimConfig::paper_clustered();
        let b = SimConfig::n_clustered(4).unwrap();
        let c = SimConfig {
            copy_latency: 2,
            ..SimConfig::paper_clustered()
        };
        assert_ne!(a.config_hash(), b.config_hash());
        assert_ne!(a.config_hash(), c.config_hash());
        // The engine choice must not affect the hash (both engines are
        // bit-identical).
        let d = SimConfig {
            engine: Engine::Scan,
            ..SimConfig::paper_clustered()
        };
        assert_eq!(a.config_hash(), d.config_hash());
        // Warming hash ignores cluster geometry.
        assert_eq!(a.uarch_hash(), b.uarch_hash());
    }

    #[test]
    fn geometry_spec_parses() {
        let d = MachineDesc::parse("i4q64r96m,i4q64r96f,i2q32r48a2,i2q32r48a2@line").unwrap();
        assert_eq!(d.clusters.len(), 4);
        assert_eq!(d.clusters[0].fus.int_muldiv, 1);
        assert_eq!(d.clusters[1].fus.fp_alu, 3);
        assert_eq!(d.clusters[2].fus.int_alu, 2);
        // line distance: 0<->2 is one extra hop.
        assert_eq!(d.extra_distance[2], 1);
        assert_eq!(d.extra_distance[1], 0);
        assert!(MachineDesc::parse("i4q64").is_err());
        assert!(MachineDesc::parse("x9").is_err());
        assert_eq!(
            MachineDesc::parse("homo4").unwrap(),
            MachineDesc::homogeneous(4).unwrap()
        );
    }

    #[test]
    fn base_machine_has_no_int_units_in_fp_cluster() {
        let base = SimConfig::paper_base();
        assert_eq!(base.fus[1].int_alu, 0);
        assert!(!base.intercluster);
    }

    #[test]
    fn fp_cluster_follows_fu_mix() {
        assert_eq!(SimConfig::paper_clustered().fp_cluster(), ClusterId::FP);
        assert_eq!(SimConfig::paper_base().fp_cluster(), ClusterId::FP);
        assert_eq!(SimConfig::paper_upper_bound().fp_cluster(), ClusterId::INT);
    }

    #[test]
    fn validate_rejects_tiny_regfiles() {
        let cfg = SimConfig {
            phys_regs: per_cluster(&[16, 96]),
            ..SimConfig::paper_clustered()
        };
        assert!(cfg.validate().is_err());
        // A clustered FP register file must also cover integer replicas.
        let cfg = SimConfig {
            phys_regs: per_cluster(&[96, 40]),
            ..SimConfig::paper_clustered()
        };
        assert!(cfg.validate().is_err());
        // ... unless the machine has no bypasses (no replication).
        let cfg = SimConfig {
            phys_regs: per_cluster(&[96, 40]),
            ..SimConfig::paper_base()
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bypassless_geometries_that_need_copies() {
        // Integer units outside cluster 0 (the hetero4 and homo4 pairs
        // on the base machine's substrates).
        for spec in ["hetero4", "homo4", "homo2"] {
            let err = MachineDesc::parse(spec)
                .unwrap()
                .apply(&SimConfig::paper_base())
                .unwrap_err();
            assert!(err.contains("integer units"), "{spec}: {err}");
        }
        // A second FP cluster.
        let err = MachineDesc::parse("i4q64r96a3m,i4q64r96a0f,i4q64r96a0f")
            .unwrap()
            .apply(&SimConfig::paper_base())
            .unwrap_err();
        assert!(err.contains("second FP cluster"), "{err}");
        // A unified machine has no clusters to lay out.
        assert!(MachineDesc::parse("hetero4")
            .unwrap()
            .apply(&SimConfig::paper_upper_bound())
            .is_err());
        // The base machine's own shape stays valid.
        assert!(MachineDesc::parse("i4q64r96a3m,i4q64r96a0f")
            .unwrap()
            .apply(&SimConfig::paper_base())
            .is_ok());
    }

    #[test]
    fn validate_rejects_unified_with_buses() {
        let cfg = SimConfig {
            unified: true,
            intercluster: true,
            phys_regs: per_cluster(&[192, 0]),
            ..SimConfig::paper_clustered()
        };
        assert!(cfg.validate().is_err());
    }
}
