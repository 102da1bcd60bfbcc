//! Hierarchical span tracing with per-thread append-only buffers.
//!
//! Recording protocol: a scope opens a [`Span`] (RAII); when the guard
//! drops, one *complete* event (`ph: "X"` in the Chrome trace-event
//! vocabulary) is appended to the recording thread's buffer. Buffers
//! are only ever appended to by their own thread and drained under the
//! global registry lock, so the hot path takes one uncontended mutex.
//!
//! When tracing is disabled (the default) [`span`] is a single relaxed
//! atomic load returning an inert guard — no clock read, no
//! allocation, no lock — so instrumentation can stay in release
//! builds.
//!
//! Timestamps come from one process-wide monotonic epoch
//! ([`now_ns`]), so events from different threads share a timeline.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Global tracing switch. Off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotonic process epoch; all span timestamps are nanoseconds since
/// this instant.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Next trace-local thread id (small dense ids render better in
/// Perfetto than the kernel's).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// One thread's event buffer, shared between that thread and [`drain`].
type SharedBuf = Arc<Mutex<Vec<SpanEvent>>>;

/// Registry of every thread's buffer, for draining.
static REGISTRY: Mutex<Vec<(u64, SharedBuf)>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: (u64, SharedBuf) = {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let buf = Arc::new(Mutex::new(Vec::new()));
        if let Ok(mut reg) = REGISTRY.lock() {
            reg.push((tid, Arc::clone(&buf)));
        }
        (tid, buf)
    };
}

/// Enables or disables span recording process-wide. Enabling pins the
/// process epoch (idempotent). Disabling does not discard what was
/// already recorded — [`drain`] still returns it.
pub fn set_enabled(on: bool) {
    if on {
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are currently being recorded.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the process trace epoch (pinned at the first
/// [`set_enabled`]`(true)` or first use).
pub fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// One completed span, as recorded in a thread buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEvent {
    /// Span name (`layer.operation`, e.g. `store.read`).
    pub name: Cow<'static, str>,
    /// Category — the layer taxonomy (`workloads`, `lab`, `prog`, `sim`,
    /// `steer`, `store`).
    pub cat: &'static str,
    /// Trace-local id of the recording thread.
    pub tid: u64,
    /// Start, nanoseconds since the process epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Key → value annotations (`args` in the trace-event format).
    pub args: Vec<(&'static str, String)>,
}

/// RAII span guard: records one [`SpanEvent`] covering its lifetime
/// when dropped. Inert (a no-op) when tracing was disabled at open.
#[must_use = "a span measures the scope it is bound to; drop it to record"]
#[derive(Debug)]
pub struct Span {
    /// `None` when tracing was off at open time — the drop is free.
    live: Option<Box<SpanBody>>,
}

#[derive(Debug)]
struct SpanBody {
    name: Cow<'static, str>,
    cat: &'static str,
    ts_ns: u64,
    args: Vec<(&'static str, String)>,
}

/// Opens a span named `name` in category `cat`. The returned guard
/// records the span when dropped; bind it (`let _span = …`) for the
/// scope being measured.
#[inline]
pub fn span(cat: &'static str, name: impl Into<Cow<'static, str>>) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    Span {
        live: Some(Box::new(SpanBody {
            name: name.into(),
            cat,
            ts_ns: now_ns(),
            args: Vec::new(),
        })),
    }
}

impl Span {
    /// Attaches a `key: value` annotation (builder style). Free when
    /// the span is inert.
    pub fn arg(mut self, key: &'static str, value: impl ToString) -> Span {
        if let Some(body) = &mut self.live {
            body.args.push((key, value.to_string()));
        }
        self
    }

    /// Attaches an annotation to an already-bound span.
    pub fn add_arg(&mut self, key: &'static str, value: impl ToString) {
        if let Some(body) = &mut self.live {
            body.args.push((key, value.to_string()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(body) = self.live.take() else { return };
        let end = now_ns();
        LOCAL.with(|(tid, buf)| {
            if let Ok(mut events) = buf.lock() {
                events.push(SpanEvent {
                    name: body.name,
                    cat: body.cat,
                    tid: *tid,
                    ts_ns: body.ts_ns,
                    dur_ns: end.saturating_sub(body.ts_ns),
                    args: body.args,
                });
            }
        });
    }
}

/// Takes every recorded event out of every thread buffer (including
/// buffers of threads that have exited — the registry keeps them
/// alive). Events are returned sorted by `(tid, ts, -dur)`, so a
/// parent span always precedes the children it encloses.
pub fn drain() -> Vec<SpanEvent> {
    let mut out = Vec::new();
    if let Ok(reg) = REGISTRY.lock() {
        for (_, buf) in reg.iter() {
            if let Ok(mut events) = buf.lock() {
                out.append(&mut events);
            }
        }
    }
    out.sort_by(|a, b| {
        (a.tid, a.ts_ns, std::cmp::Reverse(a.dur_ns))
            .cmp(&(b.tid, b.ts_ns, std::cmp::Reverse(b.dur_ns)))
    });
    out
}

/// Renders events as Chrome trace-event JSON (the object form with a
/// `traceEvents` array of complete `ph: "X"` events), loadable in
/// Perfetto and `chrome://tracing`. Timestamps are microseconds with
/// nanosecond decimals; every event carries the process pid.
pub fn chrome_trace(events: &[SpanEvent]) -> String {
    let pid = std::process::id();
    let evs: Vec<Json> = events
        .iter()
        .map(|e| {
            let mut obj = vec![
                ("name".to_string(), Json::Str(e.name.to_string())),
                ("cat".to_string(), Json::Str(e.cat.to_string())),
                ("ph".to_string(), Json::Str("X".to_string())),
                ("ts".to_string(), Json::F64(e.ts_ns as f64 / 1000.0)),
                ("dur".to_string(), Json::F64(e.dur_ns as f64 / 1000.0)),
                ("pid".to_string(), Json::U64(u64::from(pid))),
                ("tid".to_string(), Json::U64(e.tid)),
            ];
            if !e.args.is_empty() {
                let args = e
                    .args
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), Json::Str(v.clone())))
                    .collect();
                obj.push(("args".to_string(), Json::Obj(args)));
            }
            Json::Obj(obj)
        })
        .collect();
    Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(evs)),
        ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
    ])
    .render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The suite shares the process-global switch, so tests that need
    /// it serialize on this lock (the public API has no per-recorder
    /// state by design — production threads must not have to pass a
    /// handle around).
    pub(crate) static TEST_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = TEST_GUARD.lock().unwrap();
        set_enabled(false);
        drop(span("test", "disabled-span").arg("k", 1));
        assert!(
            !drain().iter().any(|e| e.name == "disabled-span"),
            "disabled span must not record"
        );
    }

    #[test]
    fn spans_nest_and_drain_in_parent_first_order() {
        let _g = TEST_GUARD.lock().unwrap();
        set_enabled(true);
        {
            let _outer = span("test", "outer-span").arg("n", 2);
            let _inner = span("test", "inner-span");
        }
        set_enabled(false);
        let events = drain();
        let outer = events.iter().position(|e| e.name == "outer-span").unwrap();
        let inner = events.iter().position(|e| e.name == "inner-span").unwrap();
        assert!(outer < inner, "parent precedes child after the sort");
        let (o, i) = (&events[outer], &events[inner]);
        assert_eq!(o.tid, i.tid);
        assert!(o.ts_ns <= i.ts_ns);
        assert!(
            o.ts_ns + o.dur_ns >= i.ts_ns + i.dur_ns,
            "outer span encloses inner"
        );
        assert_eq!(o.args, vec![("n", "2".to_string())]);
    }

    #[test]
    fn threads_get_distinct_tids_and_their_events_survive_exit() {
        let _g = TEST_GUARD.lock().unwrap();
        set_enabled(true);
        std::thread::scope(|s| {
            for i in 0..3 {
                s.spawn(move || drop(span("test", format!("thread-span-{i}"))));
            }
        });
        set_enabled(false);
        let events = drain();
        let mine: Vec<_> = events
            .iter()
            .filter(|e| e.name.starts_with("thread-span-"))
            .collect();
        assert_eq!(mine.len(), 3, "events of exited threads are retained");
        let tids: std::collections::BTreeSet<u64> = mine.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 3, "each thread has its own tid");
    }

    #[test]
    fn chrome_trace_renders_parseable_json() {
        let events = vec![SpanEvent {
            name: "a".into(),
            cat: "test",
            tid: 7,
            ts_ns: 1500,
            dur_ns: 2500,
            args: vec![("key", "va\"lue".to_string())],
        }];
        let text = chrome_trace(&events);
        let parsed = crate::json::parse(&text).expect("chrome trace parses");
        let evs = parsed.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(evs[0].get("tid").and_then(Json::as_u64), Some(7));
        assert_eq!(evs[0].get("ts").and_then(Json::as_f64), Some(1.5));
        assert_eq!(
            evs[0].get("args").and_then(|a| a.get("key")).and_then(Json::as_str),
            Some("va\"lue")
        );
    }
}
