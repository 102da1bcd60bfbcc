//! In-memory span recorder for the replay.
//!
//! Every span records its name, start, end, parent and thread. Spans
//! stay in memory until [`Tracer::finish`], which aggregates per-name
//! totals and self time (span time minus the time its children cover)
//! and renders the whole set as Chrome trace-event JSON through
//! `dca_obs`'s renderer, so the file opens in Perfetto.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dca_obs::SpanEvent;

/// One finished span.
struct Rec {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    tid: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Process-wide span sink shared by every [`Lane`].
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    next_tid: AtomicU64,
    done: Mutex<Vec<Rec>>,
}

/// Per-name aggregate over every recorded span.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub max_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_tid: AtomicU64::new(0),
            done: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A recording lane for the calling thread.
    pub fn lane(&self) -> Lane<'_> {
        Lane {
            tracer: self,
            tid: self.next_tid.fetch_add(1, Ordering::Relaxed),
            stack: Vec::new(),
            recs: Vec::new(),
        }
    }

    /// Aggregates every span by name and returns the aggregates plus
    /// the Chrome trace-event JSON of all spans. Call after every lane
    /// has been dropped.
    pub fn finish(&self) -> (BTreeMap<&'static str, Agg>, String) {
        let recs = self.done.lock().expect("no lane panicked while publishing");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for r in recs.iter() {
            if let Some(p) = r.parent {
                *child_ns.entry(p).or_default() += r.end_ns - r.start_ns;
            }
        }
        let mut aggs: BTreeMap<&'static str, Agg> = BTreeMap::new();
        let mut events = Vec::with_capacity(recs.len());
        for r in recs.iter() {
            let dur = r.end_ns - r.start_ns;
            let own = dur - child_ns.get(&r.id).copied().unwrap_or(0);
            let a = aggs.entry(r.name).or_default();
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += own;
            a.max_ns = a.max_ns.max(dur);
            let mut args = vec![("id", r.id.to_string())];
            if let Some(p) = r.parent {
                args.push(("parent", p.to_string()));
            }
            events.push(SpanEvent {
                name: Cow::Borrowed(r.name),
                cat: r.name.split('.').next().unwrap_or(r.name),
                tid: r.tid,
                ts_ns: r.start_ns,
                dur_ns: dur,
                args,
            });
        }
        events.sort_by_key(|e| (e.tid, e.ts_ns, std::cmp::Reverse(e.dur_ns)));
        (aggs, dca_obs::span::chrome_trace(&events))
    }
}

/// One thread's view of the tracer: a stack of open spans (the parent
/// of a new span is the innermost open one) and a local buffer that is
/// published to the tracer when the lane drops.
pub struct Lane<'t> {
    tracer: &'t Tracer,
    tid: u64,
    stack: Vec<u64>,
    recs: Vec<Rec>,
}

impl Lane<'_> {
    /// Runs `f` inside a span named `name` (`layer.operation`).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.stack.last().copied();
        let start_ns = self.tracer.now_ns();
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.tracer.now_ns();
        self.recs.push(Rec {
            id,
            parent,
            name,
            tid: self.tid,
            start_ns,
            end_ns,
        });
        out
    }
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        // A poisoned sink only loses this lane's spans; never panic in
        // drop.
        if let Ok(mut done) = self.tracer.done.lock() {
            done.append(&mut self.recs);
        }
    }
}
