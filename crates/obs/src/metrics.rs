//! Process-wide metrics registry: atomic counters, gauges and log₂
//! histograms.
//!
//! Recording is lock-free (`Relaxed` atomics — metrics are
//! statistical, not synchronisation). The registry is snapshotted on
//! demand into a plain-data [`MetricsSnapshot`] that can be merged
//! with others (counters add, gauges max, histogram buckets add) and
//! rendered as Prometheus text exposition.
//!
//! All metric names carry the `dca_` prefix and a unit suffix per the
//! Prometheus conventions (`_total`, `_bytes_total`, `_ns`); the full
//! table lives in DESIGN.md §12.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write or high-watermark gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is higher than the current value
    /// (high-watermark semantics, e.g. peak queue depth).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets; bucket `i` counts values whose bit length
/// is `i` (so bucket 0 holds zero, bucket 1 holds 1, bucket 11 holds
/// 1024..=2047 ns, …). 40 buckets cover up to ~9 minutes in ns.
pub const HIST_BUCKETS: usize = 40;

/// A log₂-bucketed histogram of `u64` observations (typically
/// nanoseconds).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let idx = (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (slot, b) in buckets.iter_mut().zip(&self.buckets) {
            *slot = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data snapshot of one [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (bucket `i` = bit length `i`).
    pub buckets: [u64; HIST_BUCKETS],
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

macro_rules! registry {
    (
        counters { $($(#[doc = $cdoc:literal])* $counter:ident),* $(,)? }
        gauges   { $($(#[doc = $gdoc:literal])* $gauge:ident),* $(,)? }
        histograms { $($(#[doc = $hdoc:literal])* $hist:ident),* $(,)? }
    ) => {
        /// The metrics registry. One global instance lives behind
        /// [`metrics`]; tests construct their own to stay isolated.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $($(#[doc = $cdoc])* pub $counter: Counter,)*
            $($(#[doc = $gdoc])* pub $gauge: Gauge,)*
            $($(#[doc = $hdoc])* pub $hist: Histogram,)*
        }

        /// Plain-data snapshot of a [`Metrics`] registry, suitable for
        /// merging and export. Field order matches the registry and is
        /// the export order.
        #[derive(Clone, Debug, Default, PartialEq)]
        pub struct MetricsSnapshot {
            /// `(name, value)` for every counter.
            pub counters: Vec<(&'static str, u64)>,
            /// `(name, value)` for every gauge.
            pub gauges: Vec<(&'static str, u64)>,
            /// `(name, snapshot)` for every histogram.
            pub histograms: Vec<(&'static str, HistogramSnapshot)>,
        }

        impl Metrics {
            /// Fresh all-zero registry (for tests; production code
            /// uses the [`metrics`] global).
            pub fn new() -> Metrics {
                Metrics::default()
            }

            /// Captures the current values. Not atomic across
            /// metrics — each value is individually consistent.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    counters: vec![$((stringify!($counter), self.$counter.get()),)*],
                    gauges: vec![$((stringify!($gauge), self.$gauge.get()),)*],
                    histograms: vec![$((stringify!($hist), self.$hist.snapshot()),)*],
                }
            }
        }
    };
}

registry! {
    counters {
        /// Store read operations (checkpoint + result files).
        store_reads_total,
        /// Bytes read from the store.
        store_read_bytes_total,
        /// Store write operations (including create-exclusive).
        store_writes_total,
        /// Bytes written to the store.
        store_written_bytes_total,
        /// Other store I/O ops (rename, remove, mkdir, readdir, stat).
        store_meta_ops_total,
        /// Result-record lookups that hit the store.
        store_hits_total,
        /// Result-record lookups that missed the store.
        store_misses_total,
        /// Lock elections won (acquired the shard lock first).
        lock_elections_won_total,
        /// Lock elections lost (another process computed the prefix).
        lock_elections_lost_total,
        /// Stale-lock takeovers.
        lock_takeovers_total,
        /// Lock-busy poll rounds while waiting for another holder.
        lock_busy_polls_total,
        /// Intervals simulated in detail this process.
        intervals_computed_total,
        /// Intervals served from the store instead of simulated.
        intervals_from_store_total,
        /// Sampling runs that stopped early on a converged stderr.
        early_stops_total,
        /// Microarchitectural snapshots restored before interval sim.
        restored_snapshots_total,
        /// Instructions retired by the fast-forward interpreter.
        ff_insts_total,
        /// Instructions committed by the detailed simulator.
        detailed_insts_total,
        /// Instructions executed through continuous-warming hooks.
        warm_insts_total,
        /// Lock-wait deadlines that expired with the holder still
        /// live: the Lab degraded to in-memory compute
        /// (`from_store = false`) instead of failing the run.
        lock_deadline_expired_total,
        /// Requests accepted by `dca serve` (figure + run, all clients).
        serve_requests_total,
        /// Requests attached to an identical in-flight job instead of
        /// spawning their own computation (N clients, 1 computation).
        serve_dedup_hits_total,
        /// Results broadcast to serve clients.
        serve_results_total,
        /// Serve jobs cancelled (`DELETE /v1/jobs/<id>` or shutdown).
        serve_cancelled_jobs_total,
        /// HTTP requests accepted by the serve HTTP front (all
        /// endpoints, before routing).
        serve_http_requests_total,
        /// HTTP requests rejected by the parser or the router
        /// (malformed head, oversized body, unknown endpoint).
        serve_http_rejected_total,
        /// Bytes received on the serve HTTP front.
        serve_http_bytes_in_total,
        /// Bytes sent on the serve HTTP front.
        serve_http_bytes_out_total,
    }
    gauges {
        /// Fast-forward throughput, instructions per second.
        ff_insts_per_sec,
        /// Detailed-simulation throughput, instructions per second.
        detailed_insts_per_sec,
        /// Live sampling throughput, milli-intervals per second
        /// (×1000 fixed point; feeds progress-line ETAs).
        intervals_per_sec_milli,
        /// Peak event-engine timeline queue depth observed.
        event_queue_peak,
        /// Lab worker threads in the current fan-out.
        lab_workers,
        /// Progress streams currently open on `dca serve`.
        serve_clients,
        /// Jobs queued (not yet executing) across all serve clients.
        serve_queue_depth,
        /// Jobs currently executing in the serve dispatcher (bounded
        /// by `dca serve --jobs`).
        serve_active_jobs,
    }
    histograms {
        /// Per-interval detailed simulation time, nanoseconds.
        interval_ns,
        /// Per-operation store I/O time, nanoseconds.
        store_op_ns,
        /// Lock wait time per acquisition attempt, nanoseconds.
        lock_wait_ns,
    }
}

/// The process-wide registry.
pub fn metrics() -> &'static Metrics {
    static GLOBAL: OnceLock<Metrics> = OnceLock::new();
    GLOBAL.get_or_init(Metrics::default)
}

impl MetricsSnapshot {
    /// Merges `other` into `self`: counters and histogram buckets
    /// add, gauges take the maximum. Metric sets must match (both
    /// come from [`Metrics::snapshot`]); entries only in `other` are
    /// appended.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for &(name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name, v)),
            }
        }
        for &(name, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| *n == name) {
                Some((_, mine)) => *mine = (*mine).max(v),
                None => self.gauges.push((name, v)),
            }
        }
        for (name, h) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => {
                    for (m, o) in mine.buckets.iter_mut().zip(&h.buckets) {
                        *m += o;
                    }
                    mine.sum += h.sum;
                }
                None => self.histograms.push((name, h.clone())),
            }
        }
    }

    /// Value of a counter by field name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Value of a gauge by field name (0 if absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Renders Prometheus text exposition. Counter names gain a
    /// `dca_` prefix (they already carry `_total`); histograms render
    /// cumulative `_bucket{le="…"}` series with power-of-two bounds
    /// plus `_sum` and `_count`.
    pub fn prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for &(name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE dca_{name} counter\ndca_{name} {v}");
        }
        for &(name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE dca_{name} gauge\ndca_{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE dca_{name} histogram");
            let mut cum = 0u64;
            for (i, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cum += n;
                // Bucket i holds values of bit length i, i.e. <= 2^i - 1.
                let le = (1u128 << i) - 1;
                let _ = writeln!(out, "dca_{name}_bucket{{le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "dca_{name}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "dca_{name}_sum {}", h.sum);
            let _ = writeln!(out, "dca_{name}_count {}", h.count());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counters_gauges_histograms_record() {
        let m = Metrics::new();
        m.store_reads_total.inc();
        m.store_read_bytes_total.add(4096);
        m.event_queue_peak.set_max(5);
        m.event_queue_peak.set_max(3);
        m.interval_ns.record(0);
        m.interval_ns.record(1500);
        let snap = m.snapshot();
        assert_eq!(snap.counter("store_reads_total"), 1);
        assert_eq!(snap.counter("store_read_bytes_total"), 4096);
        assert_eq!(snap.gauge("event_queue_peak"), 5);
        let (_, hist) = snap
            .histograms
            .iter()
            .find(|(n, _)| *n == "interval_ns")
            .unwrap();
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.sum, 1500);
        assert_eq!(hist.buckets[0], 1, "zero lands in bucket 0");
        assert_eq!(hist.buckets[11], 1, "1500 has bit length 11");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let m = Metrics::new();
        m.store_hits_total.add(3);
        m.lab_workers.set(8);
        m.store_op_ns.record(100);
        let text = m.snapshot().prometheus();
        assert!(text.contains("# TYPE dca_store_hits_total counter"));
        assert!(text.contains("dca_store_hits_total 3"));
        assert!(text.contains("dca_lab_workers 8"));
        assert!(text.contains("dca_store_op_ns_bucket{le=\"127\"} 1"));
        assert!(text.contains("dca_store_op_ns_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("dca_store_op_ns_sum 100"));
        assert!(text.contains("dca_store_op_ns_count 1"));
    }

    fn apply(m: &Metrics, ops: &[(u8, u64)]) {
        for &(kind, v) in ops {
            match kind % 5 {
                0 => m.intervals_computed_total.add(v),
                1 => m.store_read_bytes_total.add(v),
                2 => m.event_queue_peak.set_max(v),
                3 => m.interval_ns.record(v),
                _ => m.lock_wait_ns.record(v),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Merging per-worker snapshots equals one registry that saw
        /// every operation: counters/histograms are order-independent
        /// sums, gauges are maxima.
        fn merge_equals_combined_recording(
            a in proptest::collection::vec((0u8..5, 0u64..1_000_000), 0..24),
            b in proptest::collection::vec((0u8..5, 0u64..1_000_000), 0..24),
        ) {
            let (ma, mb, all) = (Metrics::new(), Metrics::new(), Metrics::new());
            apply(&ma, &a);
            apply(&mb, &b);
            apply(&all, &a);
            apply(&all, &b);
            let mut merged = ma.snapshot();
            merged.merge(&mb.snapshot());
            prop_assert_eq!(&merged, &all.snapshot());

            // Merge with an empty snapshot is the identity.
            let mut id = ma.snapshot();
            id.merge(&Metrics::new().snapshot());
            prop_assert_eq!(&id, &ma.snapshot());
        }
    }
}
