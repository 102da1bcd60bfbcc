//! Sampled-run statistics and the interval pipeline (DESIGN.md §7–§8).
//!
//! The pure half is the prefix/merge math: per-interval outcomes, the
//! deterministic early-exit rule ([`adaptive_prefix`]) and the
//! checkpoint-ordered merge ([`merge_outcomes`]). The other half is the
//! [`Pipeline`], which produces checkpoints, schedules intervals on
//! them as they appear and hands back each combination's decided
//! prefix: one pool of workers, where a producer (the functional
//! fast-forward of one benchmark) is just another task, taken before
//! any interval.

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use dca_obs::progress;
use dca_sim::SimStats;

use crate::{RoundHook, RoundProgress};

/// Intervals queued per combination per chunk. Small enough that an
/// early-stopping combination wastes at most a chunk of intervals,
/// large enough that a 50-interval budget needs only a handful of
/// adaptive decisions.
pub(crate) const INTERVAL_CHUNK: usize = 8;

/// One interval of a sampled run: its detailed statistics plus
/// bookkeeping. Store-served intervals carry zero wall-clock.
#[derive(Clone, Debug)]
pub(crate) struct IntervalOutcome {
    pub(crate) stats: SimStats,
    /// Detached functional-warming instructions actually executed
    /// (always 0 under continuous warming).
    pub(crate) warmed: u64,
    /// Whether the interval started from a restored `UarchSnapshot`.
    pub(crate) restored: bool,
    pub(crate) warm_secs: f64,
    pub(crate) detailed_secs: f64,
    pub(crate) from_store: bool,
}

/// Diagnostics of one sampled run (per `(benchmark, machine, scheme)`
/// combination): interval count, measured volume and the dispersion of
/// the per-interval IPCs.
#[derive(Clone, Debug, Default)]
pub struct SampleInfo {
    /// Measured intervals merged into the reported statistics.
    pub intervals: u64,
    /// Checkpoints available to this combination (the full interval
    /// budget; `intervals < budget` when the adaptive early exit
    /// stopped first or trailing intervals were empty).
    pub budget: u64,
    /// `true` when the confidence-driven early exit stopped the
    /// combination before its checkpoint budget was exhausted.
    pub early_stop: bool,
    /// Intervals of the merged prefix that were served from the
    /// persistent store instead of being simulated in this process.
    pub from_store: u64,
    /// Outcomes of the merged prefix (measured or empty) that started
    /// from a restored continuously-warmed `UarchSnapshot` — covers
    /// every merged interval (and pairs with `warmed_insts == 0`)
    /// under [`crate::Warming::Continuous`], 0 under
    /// [`crate::Warming::Detached`].
    pub restored_snapshots: u64,
    /// Detailed (measured) dynamic instructions across all intervals.
    pub detailed_insts: u64,
    /// Detailed cycles across all intervals.
    pub detailed_cycles: u64,
    /// Mean of the per-interval IPCs.
    pub ipc_mean: f64,
    /// Standard error of that mean (0 with fewer than two intervals).
    pub ipc_stderr: f64,
    /// Functional-warming instructions actually executed (can be less
    /// than `intervals × warmup` where the stream ended mid-warming).
    pub warmed_insts: u64,
    /// Wall-clock seconds spent functionally warming, summed over the
    /// workers that ran this combination's intervals (0 for
    /// store-served intervals).
    pub warm_secs: f64,
    /// Wall-clock seconds spent in detailed simulation, summed over
    /// workers (≈ the serial cost of the measured intervals; 0 for
    /// store-served intervals).
    pub detailed_secs: f64,
}

impl SampleInfo {
    /// The sampled-IPC estimate as `mean ± stderr` text.
    pub fn ipc_text(&self) -> String {
        format!("{:.3} ± {:.3}", self.ipc_mean, self.ipc_stderr)
    }
}

/// Standard error of the mean of `xs` (0 with fewer than two samples).
fn stderr_of(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (var / n).sqrt()
}

/// Two-sided 95% Student-t quantiles by degrees of freedom (index =
/// df − 1); beyond the table the normal quantile is close enough.
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// 95% confidence half-width of the mean of `xs`: Student-t quantile ×
/// standard error. The t factor is what keeps a lucky 2-sample
/// variance estimate from stopping a combination prematurely (t₁ ≈
/// 12.7); infinite below two samples.
fn confidence_half_width(xs: &[f64]) -> f64 {
    match xs.len() {
        0 | 1 => f64::INFINITY,
        n if n - 1 <= T95.len() => T95[n - 2] * stderr_of(xs),
        _ => 1.96 * stderr_of(xs),
    }
}

/// The deterministic early-exit rule of adaptive sampling (DESIGN.md
/// §8): the prefix used for a combination is the **shortest
/// checkpoint-ordered prefix** containing at least 2 measured
/// (non-empty) intervals whose 95% confidence half-width
/// ([`confidence_half_width`]) is ≤ `target`; without such a prefix,
/// the full budget.
///
/// Returns `Some(prefix_len)` once the decision is possible from the
/// available prefix — either the rule fired, or all `budget` intervals
/// are present — and `None` when more intervals are needed. Because
/// the rule scans prefixes from the front, its answer never changes
/// when *more* intervals become available beyond the stopping point:
/// the merged statistics are independent of worker completion order,
/// chunk sizes, and how many extra intervals a previous run left in
/// the store.
pub(crate) fn adaptive_prefix(
    outcomes: &[IntervalOutcome],
    budget: usize,
    target: Option<f64>,
) -> Option<usize> {
    if let Some(target) = target {
        let mut ipcs: Vec<f64> = Vec::new();
        for (i, o) in outcomes.iter().enumerate() {
            if o.stats.committed == 0 {
                continue;
            }
            ipcs.push(o.stats.ipc());
            if ipcs.len() >= 2 && confidence_half_width(&ipcs) <= target {
                return Some(i + 1);
            }
        }
    }
    (outcomes.len() >= budget).then_some(budget)
}

/// Merges the decided prefix `outcomes[..used]` into one `SimStats`
/// plus sampling diagnostics. Checkpoints whose stream ended before
/// the measured window opened contribute warming cost but no
/// statistics, exactly as in the non-adaptive harness.
pub(crate) fn merge_outcomes(
    outcomes: &[IntervalOutcome],
    used: usize,
    budget: u64,
) -> (SimStats, SampleInfo) {
    let _span = dca_obs::span("lab", "lab.merge");
    let mut merged = SimStats::default();
    let mut info = SampleInfo {
        budget,
        early_stop: (used as u64) < budget,
        ..SampleInfo::default()
    };
    let mut ipcs: Vec<f64> = Vec::new();
    for o in &outcomes[..used] {
        info.warmed_insts += o.warmed;
        info.warm_secs += o.warm_secs;
        if o.from_store {
            info.from_store += 1;
        }
        if o.restored {
            info.restored_snapshots += 1;
        }
        if o.stats.committed == 0 {
            continue;
        }
        ipcs.push(o.stats.ipc());
        merged.merge(&o.stats);
        info.intervals += 1;
        info.detailed_insts += o.stats.committed;
        info.detailed_cycles += o.stats.cycles;
        info.detailed_secs += o.detailed_secs;
    }
    let n = ipcs.len() as f64;
    if n > 0.0 {
        info.ipc_mean = ipcs.iter().sum::<f64>() / n;
    }
    info.ipc_stderr = stderr_of(&ipcs);
    (merged, info)
}

// ---------------------------------------------------------------------
// The produce → schedule → merge pipeline
// ---------------------------------------------------------------------

/// One combination's entry into a [`Pipeline`]: the checkpoint feed it
/// samples and the checkpoint-order prefix of outcomes already known
/// (served from the store).
pub(crate) struct RunPlan {
    pub(crate) feed: usize,
    pub(crate) prefilled: Vec<IntervalOutcome>,
}

/// What the pipeline decided for one combination: its contiguous
/// outcomes, the prefix the merge uses, and the feed's final length.
pub(crate) struct RunResult {
    pub(crate) outcomes: Vec<IntervalOutcome>,
    pub(crate) used: usize,
    pub(crate) budget: usize,
}

/// Everything a finished [`Pipeline::run`] hands back.
pub(crate) struct PipelineOutput<R> {
    /// One per [`RunPlan`], in plan order.
    pub(crate) runs: Vec<RunResult>,
    /// The producer's return value per feed (`None` for ready feeds).
    pub(crate) produced: Vec<Option<R>>,
    /// `true` when the cancellation token froze at least one run.
    pub(crate) cancelled: bool,
}

/// The checkpoint handed to an interval task: borrowed from a ready
/// stream, or shared with a feed that is still being produced.
enum Ckpt<'a, T> {
    Ready(&'a T),
    Live(Arc<T>),
}

impl<T> Deref for Ckpt<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            Ckpt::Ready(t) => t,
            Ckpt::Live(t) => t,
        }
    }
}

/// One benchmark's checkpoint stream as far as it is published.
struct Feed<'a, T> {
    ready: Option<&'a [T]>,
    live: Vec<Arc<T>>,
    /// Final checkpoint count, once the stream is complete.
    len: Option<usize>,
    /// A producer task for this feed is waiting to be claimed.
    unclaimed: bool,
}

impl<'a, T> Feed<'a, T> {
    fn published(&self) -> usize {
        self.ready.map_or(self.live.len(), <[T]>::len)
    }

    fn get(&self, idx: usize) -> Ckpt<'a, T> {
        match self.ready {
            Some(s) => Ckpt::Ready(&s[idx]),
            None => Ckpt::Live(Arc::clone(&self.live[idx])),
        }
    }
}

/// One combination's scheduling state. Its queued chunk is the index
/// range `next..end`; a chunk has *landed* once every index of it is
/// claimed (`next == end`) and finished (`running == 0`).
struct RunSlot {
    feed: usize,
    /// Contiguous checkpoint-order prefix of landed outcomes.
    outcomes: Vec<IntervalOutcome>,
    /// Finished outcomes of the current chunk, by checkpoint index.
    landing: BTreeMap<usize, IntervalOutcome>,
    next: usize,
    end: usize,
    running: usize,
    /// Decided prefix length, once the rule fires (or cancellation).
    used: Option<usize>,
}

enum Task<'a, T> {
    Produce(usize),
    Interval(usize, usize, Ckpt<'a, T>),
}

/// The scheduler state every worker shares under one mutex.
struct Sched<'a, T> {
    feeds: Vec<Feed<'a, T>>,
    runs: Vec<RunSlot>,
    /// Checkpoint count no feed can exceed: the budget a run assumes
    /// while its feed is still being produced.
    max_budget: usize,
    target: Option<f64>,
    cancel: Option<&'a AtomicBool>,
    hook: Option<&'a mut RoundHook>,
    cancelled: bool,
    /// Chunks queued so far (the [`RoundProgress::round`] counter).
    chunks: u64,
    /// Intervals finished so far, and since when.
    completed: u64,
    t0: Instant,
    /// A worker unwound: everybody stops.
    aborted: bool,
}

impl<'a, T> Sched<'a, T> {
    fn budget(&self, feed: usize) -> usize {
        self.feeds[feed].len.unwrap_or(self.max_budget)
    }

    /// Updates the live-throughput gauge — finished intervals per
    /// second of pipeline wall-clock, in milli-units — once an interval
    /// has finished, and returns its value.
    fn update_rate(&self) -> u64 {
        let gauge = &dca_obs::metrics().intervals_per_sec_milli;
        let secs = self.t0.elapsed().as_secs_f64();
        if self.completed > 0 && secs > 0.0 {
            gauge.set((self.completed as f64 * 1000.0 / secs) as u64);
        }
        gauge.get()
    }

    /// Decides run `r` from its landed prefix, or queues its next
    /// chunk. Cancellation is checked here, before each chunk, and
    /// freezes the run at its landed prefix.
    fn decide_or_queue(&mut self, r: usize) {
        let budget = self.budget(self.runs[r].feed);
        let run = &mut self.runs[r];
        run.used = adaptive_prefix(&run.outcomes, budget, self.target);
        if run.used.is_some() {
            return;
        }
        if self.cancel.is_some_and(|t| t.load(Ordering::Relaxed)) {
            run.used = Some(run.outcomes.len());
            self.cancelled = true;
            return;
        }
        let have = run.outcomes.len();
        run.next = have;
        run.end = match self.target {
            Some(_) => (have + INTERVAL_CHUNK).min(budget),
            None => budget,
        };
        let batch = (run.end - have) as u64;
        self.chunks += 1;
        // Worst-case work remaining (every undecided run exhausts its
        // budget), for the ETA off the live intervals/sec rate.
        let remaining: u64 = self
            .runs
            .iter()
            .filter(|run| run.used.is_none())
            .map(|run| (self.budget(run.feed) - run.outcomes.len()) as u64)
            .sum();
        let rate = self.update_rate();
        progress::detail(format!(
            "[lab] chunk {}: {batch} intervals ({remaining} worst-case, {})",
            self.chunks,
            progress::eta(remaining, rate)
        ));
        if let Some(hook) = self.hook.as_mut() {
            hook(&RoundProgress {
                round: self.chunks,
                batch,
                remaining,
                intervals_per_sec_milli: rate,
            });
        }
    }

    /// Appends run `r`'s chunk to its prefix once the chunk has landed,
    /// then decides the run or queues its next chunk.
    fn settle(&mut self, r: usize) {
        let run = &mut self.runs[r];
        if run.used.is_some() || run.next < run.end || run.running > 0 {
            return;
        }
        for (idx, o) in std::mem::take(&mut run.landing) {
            debug_assert_eq!(run.outcomes.len(), idx, "contiguous prefix");
            run.outcomes.push(o);
        }
        self.decide_or_queue(r);
    }

    /// Feed `f` is complete: its length becomes every run's final
    /// budget, and queued indices past the end are dropped uncounted.
    fn finish_feed(&mut self, f: usize) {
        let len = self.feeds[f].published();
        self.feeds[f].len = Some(len);
        for r in 0..self.runs.len() {
            let run = &mut self.runs[r];
            if run.feed != f {
                continue;
            }
            run.end = run.end.min(len);
            run.next = run.next.min(run.end);
            if run.outcomes.len() > len {
                // A stored prefix longer than the stream (never written
                // by a consistent store): keep what the stream covers.
                run.outcomes.truncate(len);
                if run.used.is_some_and(|u| u > len) {
                    run.used = adaptive_prefix(&run.outcomes, len, self.target);
                }
            }
            self.settle(r);
        }
    }

    /// The next task in priority order: an unclaimed producer, else the
    /// checkpoint-major first queued interval whose checkpoint is
    /// published.
    fn claim(&mut self) -> Option<Task<'a, T>> {
        if let Some(f) = self.feeds.iter().position(|f| f.unclaimed) {
            self.feeds[f].unclaimed = false;
            return Some(Task::Produce(f));
        }
        let (r, idx) = self
            .runs
            .iter()
            .enumerate()
            .filter(|(_, run)| run.next < run.end && run.next < self.feeds[run.feed].published())
            .map(|(r, run)| (r, run.next))
            .min_by_key(|&(r, idx)| (idx, r))?;
        let run = &mut self.runs[r];
        run.next += 1;
        run.running += 1;
        Some(Task::Interval(r, idx, self.feeds[run.feed].get(idx)))
    }

    fn queued(&self) -> bool {
        self.runs.iter().any(|run| run.next < run.end)
    }

    /// Nothing is queued, nothing runs that could queue more, and no
    /// producer waits: a worker may leave.
    fn drained(&self) -> bool {
        !self.queued()
            && self.runs.iter().all(|run| run.running == 0)
            && self.feeds.iter().all(|f| !f.unclaimed)
    }
}

/// The shared half of a running pipeline.
struct Shared<'a, T> {
    sched: Mutex<Sched<'a, T>>,
    cv: Condvar,
}

impl<'a, T> Shared<'a, T> {
    /// The scheduler lock. A hook that panicked under it poisons it;
    /// the state stays consistent (the abort flag takes over), so the
    /// poison is ignored.
    fn lock(&self) -> MutexGuard<'_, Sched<'a, T>> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The producer's handle on its feed: [`Publisher::publish`] makes one
/// more checkpoint available to interval tasks.
pub(crate) struct Publisher<'s, 'a, T> {
    shared: &'s Shared<'a, T>,
    feed: usize,
}

impl<T> Publisher<'_, '_, T> {
    /// Appends the next checkpoint of the stream and wakes waiters.
    pub(crate) fn publish(&self, item: T) {
        self.shared.lock().feeds[self.feed].live.push(Arc::new(item));
        self.shared.cv.notify_all();
    }

    /// Checkpoints published so far.
    pub(crate) fn published(&self) -> usize {
        self.shared.lock().feeds[self.feed].published()
    }
}

/// Sets the abort flag and wakes every waiter if its worker unwinds,
/// so a panic in one task never leaves another worker blocked on the
/// condvar.
struct AbortOnUnwind<'s, 'a, T>(&'s Shared<'a, T>);

impl<T> Drop for AbortOnUnwind<'_, '_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().aborted = true;
            self.0.cv.notify_all();
        }
    }
}

/// The produce → schedule → merge pipeline of one sampled ensure.
///
/// Every combination draws its intervals in checkpoint-order chunks of
/// [`INTERVAL_CHUNK`] (the whole budget without a target); its next
/// chunk is queued only after the previous one has landed and
/// [`adaptive_prefix`] has been re-evaluated on the contiguous prefix,
/// so the set of intervals a combination computes — and everything
/// merged from it — is independent of worker count and timing. Feeds
/// without a stream get a producer task that publishes checkpoints as
/// it makes them; until it returns, runs assume `max_budget` and
/// indices past the stream's real end are dropped uncounted.
pub(crate) struct Pipeline<'a, T> {
    sched: Sched<'a, T>,
}

impl<'a, T: Send + Sync> Pipeline<'a, T> {
    /// Sets up the feeds (`Some(stream)`: complete; `None`: produced by
    /// a task) and queues each undecided run's first chunk, firing
    /// `hook` per chunk.
    pub(crate) fn new(
        feeds: Vec<Option<&'a [T]>>,
        runs: Vec<RunPlan>,
        max_budget: usize,
        target: Option<f64>,
        cancel: Option<&'a AtomicBool>,
        hook: Option<&'a mut RoundHook>,
    ) -> Pipeline<'a, T> {
        let feeds: Vec<Feed<'a, T>> = feeds
            .into_iter()
            .map(|ready| Feed {
                ready,
                live: Vec::new(),
                len: ready.map(<[T]>::len),
                unclaimed: ready.is_none(),
            })
            .collect();
        let runs = runs
            .into_iter()
            .map(|plan| {
                let mut outcomes = plan.prefilled;
                outcomes.truncate(feeds[plan.feed].len.unwrap_or(max_budget));
                RunSlot {
                    feed: plan.feed,
                    outcomes,
                    landing: BTreeMap::new(),
                    next: 0,
                    end: 0,
                    running: 0,
                    used: None,
                }
            })
            .collect();
        let mut sched = Sched {
            feeds,
            runs,
            max_budget,
            target,
            cancel,
            hook,
            cancelled: false,
            chunks: 0,
            completed: 0,
            t0: Instant::now(),
            aborted: false,
        };
        for r in 0..sched.runs.len() {
            sched.decide_or_queue(r);
        }
        Pipeline { sched }
    }

    /// Tasks ready to hand out right now: producers plus the queued
    /// first chunks. Zero means [`Pipeline::run`] has nothing to do
    /// beyond merging, and spawns no thread.
    pub(crate) fn pending_tasks(&self) -> usize {
        let producers = self.sched.feeds.iter().filter(|f| f.unclaimed).count();
        let intervals: usize = self.sched.runs.iter().map(|run| run.end - run.next).sum();
        producers + intervals
    }

    /// Runs every task on `workers` threads (inline on the calling
    /// thread for one, or when nothing is pending; inline never blocks,
    /// because a producer is always taken before any interval) and
    /// returns the decided runs. `produce(f, publisher)` must publish
    /// feed `f`'s checkpoints in stream order; `interval(r, idx, ckpt)`
    /// simulates run `r` from checkpoint `idx`. A panic in either
    /// propagates, with its own payload, once every worker has stopped.
    pub(crate) fn run<R: Send>(
        self,
        workers: usize,
        produce: impl Fn(usize, &Publisher<'_, 'a, T>) -> R + Sync,
        interval: impl Fn(usize, usize, &T) -> IntervalOutcome + Sync,
    ) -> PipelineOutput<R> {
        let feeds = self.sched.feeds.len();
        let pending = self.pending_tasks();
        let shared = Shared {
            sched: Mutex::new(self.sched),
            cv: Condvar::new(),
        };
        let produced: Mutex<Vec<Option<R>>> = Mutex::new((0..feeds).map(|_| None).collect());
        let work = || {
            let _abort = AbortOnUnwind(&shared);
            let mut span = dca_obs::span("lab", "lab.worker");
            let mut items = 0usize;
            let mut st = shared.lock();
            while !st.aborted {
                match st.claim() {
                    Some(Task::Produce(f)) => {
                        drop(st);
                        let out = produce(f, &Publisher { shared: &shared, feed: f });
                        produced.lock().unwrap_or_else(PoisonError::into_inner)[f] = Some(out);
                        st = shared.lock();
                        st.finish_feed(f);
                    }
                    Some(Task::Interval(r, idx, ckpt)) => {
                        drop(st);
                        let outcome = interval(r, idx, &ckpt);
                        st = shared.lock();
                        st.completed += 1;
                        let run = &mut st.runs[r];
                        run.running -= 1;
                        run.landing.insert(idx, outcome);
                        st.settle(r);
                    }
                    None if st.drained() => break,
                    None => {
                        let _wait = st.queued().then(|| dca_obs::span("lab", "lab.ckpt_wait"));
                        st = shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                        continue;
                    }
                }
                items += 1;
                shared.cv.notify_all();
            }
            span.add_arg("items", items);
        };
        if workers <= 1 || pending == 0 {
            work();
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
                let mut panic = None;
                for h in handles {
                    if let Err(payload) = h.join() {
                        panic.get_or_insert(payload);
                    }
                }
                if let Some(payload) = panic {
                    std::panic::resume_unwind(payload);
                }
            });
        }
        let sched = shared.sched.into_inner().unwrap_or_else(PoisonError::into_inner);
        sched.update_rate();
        let runs = sched
            .runs
            .into_iter()
            .map(|run| RunResult {
                budget: sched.feeds[run.feed].len.expect("every feed completes"),
                used: run.used.expect("the pipeline decides every run"),
                outcomes: run.outcomes,
            })
            .collect();
        PipelineOutput {
            runs,
            produced: produced.into_inner().unwrap_or_else(PoisonError::into_inner),
            cancelled: sched.cancelled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_outcome(committed: u64, cycles: u64) -> IntervalOutcome {
        IntervalOutcome {
            stats: SimStats {
                committed,
                cycles,
                ..SimStats::default()
            },
            warmed: 0,
            restored: false,
            warm_secs: 0.0,
            detailed_secs: 0.0,
            from_store: false,
        }
    }

    /// Adaptive determinism: once the prefix rule can decide, its answer
    /// never changes when more intervals become available — which is
    /// exactly why figures are identical whether workers finish in
    /// forward, reverse or shuffled order, and whatever overshoot a
    /// previous run left in the store.
    #[test]
    fn adaptive_prefix_decision_is_stable_under_longer_prefixes() {
        // IPCs: 1.0, 1.0, then noise — the rule fires at n = 2.
        let outcomes: Vec<IntervalOutcome> = [1.0f64, 1.0, 1.4, 0.6, 1.2, 0.8, 1.1, 0.9]
            .iter()
            .map(|ipc| synthetic_outcome((ipc * 1000.0) as u64, 1000))
            .collect();
        let budget = outcomes.len();
        let target = Some(0.01);
        assert_eq!(adaptive_prefix(&outcomes[..0], budget, target), None);
        assert_eq!(adaptive_prefix(&outcomes[..1], budget, target), None);
        for have in 2..=budget {
            assert_eq!(
                adaptive_prefix(&outcomes[..have], budget, target),
                Some(2),
                "decision must not drift with {have} intervals available"
            );
        }
        // Merges over any availability ≥ the decision are identical.
        let (m2, i2) = merge_outcomes(&outcomes[..2], 2, budget as u64);
        let (m8, i8) = merge_outcomes(&outcomes, 2, budget as u64);
        assert_eq!(m2.committed, m8.committed);
        assert_eq!(m2.cycles, m8.cycles);
        assert_eq!(i2.intervals, i8.intervals);
        assert!(i2.early_stop);

        // High variance: no early stop, full budget once available.
        let noisy: Vec<IntervalOutcome> = [2.0f64, 0.5, 3.0, 0.2, 2.5, 0.4]
            .iter()
            .map(|ipc| synthetic_outcome((ipc * 1000.0) as u64, 1000))
            .collect();
        assert_eq!(adaptive_prefix(&noisy[..4], noisy.len(), target), None);
        assert_eq!(adaptive_prefix(&noisy, noisy.len(), target), Some(noisy.len()));
        // Without a target the rule always wants the full budget.
        assert_eq!(adaptive_prefix(&noisy[..4], noisy.len(), None), None);
        assert_eq!(adaptive_prefix(&noisy, noisy.len(), None), Some(noisy.len()));
    }

    /// A synthetic interval whose IPC depends only on its checkpoint,
    /// so results are comparable across schedules.
    fn synthetic_interval(ckpt: u64) -> IntervalOutcome {
        synthetic_outcome(600 + (ckpt * 397) % 900, 1000)
    }

    /// Per run: decided prefix, final budget and the committed count
    /// of every outcome.
    type Decided = Vec<(usize, usize, Vec<u64>)>;

    /// Drives three runs over one feed — produced (`ready == None`,
    /// `len` checkpoints) or complete — on `workers` workers; returns
    /// the decisions and how many intervals ran.
    fn drive(
        workers: usize,
        len: usize,
        max_budget: usize,
        target: Option<f64>,
        ready: bool,
    ) -> (Decided, usize) {
        let stream: Vec<u64> = (0..len as u64).collect();
        let feeds = vec![ready.then_some(stream.as_slice())];
        let plans = (0..3).map(|_| RunPlan { feed: 0, prefilled: Vec::new() }).collect();
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let out = Pipeline::new(feeds, plans, max_budget, target, None, None).run(
            workers,
            |_, publisher| {
                for &k in &stream {
                    publisher.publish(k);
                }
            },
            |_, idx, &ckpt| {
                assert_eq!(idx as u64, ckpt, "the task gets its own checkpoint");
                assert!(idx < len, "no interval past the end of the stream");
                calls.fetch_add(1, Ordering::Relaxed);
                synthetic_interval(ckpt)
            },
        );
        let decided = out
            .runs
            .iter()
            .map(|r| (r.used, r.budget, r.outcomes.iter().map(|o| o.stats.committed).collect()))
            .collect();
        (decided, calls.into_inner())
    }

    /// The schedule never shows in the results: produced or complete
    /// streams, any worker count, adaptive or fixed budgets give the
    /// same decisions from the same intervals. A stream that ends
    /// before the upper bound (a halting program) fixes the budget at
    /// its real length, and the intervals queued past its end are
    /// dropped without running.
    #[test]
    fn pipeline_results_do_not_depend_on_the_schedule() {
        for target in [Some(0.05), Some(1e-12), None] {
            for (len, max_budget) in [(20, 20), (13, 20), (1, 5)] {
                let (reference, ref_calls) = drive(1, len, max_budget, target, true);
                for (used, budget, outcomes) in &reference {
                    assert_eq!(*budget, len);
                    assert!(*used <= len && outcomes.len() <= len);
                }
                for workers in 1..=3 {
                    for ready in [false, true] {
                        let (got, calls) = drive(workers, len, max_budget, target, ready);
                        let what =
                            format!("{target:?} len {len}/{max_budget} x{workers} ready {ready}");
                        assert_eq!(got, reference, "{what}");
                        assert_eq!(calls, ref_calls, "{what}: same intervals computed");
                    }
                }
            }
        }
        // Fixed budgets run everything; a loose target stops at the
        // 2-interval floor after the first chunk.
        let (fixed, calls) = drive(2, 13, 20, None, false);
        assert!(fixed.iter().all(|(used, _, o)| *used == 13 && o.len() == 13));
        assert_eq!(calls, 3 * 13);
        let (loose, calls) = drive(2, 13, 20, Some(1e9), false);
        assert!(loose.iter().all(|(used, _, o)| *used == 2 && o.len() == INTERVAL_CHUNK));
        assert_eq!(calls, 3 * INTERVAL_CHUNK);
    }

    /// A panic in the producer or in an interval propagates out of the
    /// pipeline with its own payload, at every width, and never leaves
    /// a worker blocked on the condvar waiting for a checkpoint that
    /// will not come (the test would hang).
    #[test]
    fn panics_propagate_and_release_waiting_workers() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for workers in 1..=3 {
            for failing in ["producer", "interval"] {
                let plans = (0..2).map(|_| RunPlan { feed: 0, prefilled: Vec::new() }).collect();
                let pipeline = Pipeline::<u64>::new(vec![None], plans, 16, None, None, None);
                let unwound = catch_unwind(AssertUnwindSafe(|| {
                    pipeline.run(
                        workers,
                        |_, publisher| {
                            for k in 0..16 {
                                if failing == "producer" && k == 3 {
                                    panic!("producer failed");
                                }
                                publisher.publish(k);
                                std::thread::sleep(std::time::Duration::from_millis(2));
                            }
                        },
                        |_, idx, &ckpt| {
                            if failing == "interval" && idx == 2 {
                                panic!("interval failed");
                            }
                            synthetic_interval(ckpt)
                        },
                    )
                }));
                let payload =
                    unwound.err().unwrap_or_else(|| panic!("{failing} x{workers}: no panic"));
                assert_eq!(
                    payload.downcast_ref::<&str>(),
                    Some(&format!("{failing} failed").as_str()),
                    "x{workers}: the original panic propagates"
                );
            }
        }
    }

    /// A worker that runs out of published checkpoints blocks inside a
    /// `lab.ckpt_wait` span. The producer here holds checkpoint 1 back
    /// until interval 0 has finished, so the other worker must wait.
    #[test]
    fn blocking_on_an_unpublished_checkpoint_is_a_named_span() {
        use std::sync::atomic::AtomicBool;
        dca_obs::span::set_enabled(true);
        let first_done = AtomicBool::new(false);
        let plans = vec![RunPlan { feed: 0, prefilled: Vec::new() }];
        let out = Pipeline::<u64>::new(vec![None], plans, 4, None, None, None).run(
            2,
            |_, publisher| {
                publisher.publish(0);
                while !first_done.load(Ordering::Acquire) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                for k in 1..4 {
                    publisher.publish(k);
                }
            },
            |_, idx, &ckpt| {
                if idx == 0 {
                    first_done.store(true, Ordering::Release);
                }
                synthetic_interval(ckpt)
            },
        );
        assert_eq!(out.runs[0].used, 4);
        let waits = dca_obs::span::drain()
            .into_iter()
            .filter(|e| e.name == "lab.ckpt_wait")
            .count();
        assert!(waits >= 1, "the idle worker's wait is traced");
    }
}
