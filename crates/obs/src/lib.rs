//! # dca-obs — observability for the DCA lab
//!
//! Zero-dependency tracing, metrics and run manifests (DESIGN.md §12),
//! shared by every layer of the workspace:
//!
//! * [`mod@span`] — hierarchical span tracing into per-thread append-only
//!   buffers, drained into Chrome trace-event JSON loadable in
//!   Perfetto / `chrome://tracing`. Disabled by default; a disabled
//!   [`span::span`] call is one relaxed atomic load (~ns).
//! * [`mod@metrics`] — a process-wide registry of atomic counters, gauges
//!   and log₂ histograms, snapshotted on demand and exported as
//!   Prometheus-style text exposition.
//! * [`progress`] — the one stderr progress sink (`--verbose` /
//!   `--quiet`), replacing scattered `eprintln!` lines, with ETA
//!   helpers fed by the live intervals/sec gauge.
//! * [`json`] — a hand-rolled JSON value, writer and parser (the
//!   container has no serde; the parser also powers the trace-schema
//!   validity tests).
//! * [`manifest`] — the `results/run_manifest.json` builder stamping
//!   every figures/run invocation with versions, fingerprints, budgets
//!   and per-phase wall-clock.
//!
//! Everything here is strictly *observational*: enabling or disabling
//! any of it must never change a simulation result or a report byte
//! (asserted by `dca-bench`'s determinism tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod manifest;
pub mod metrics;
pub mod progress;
pub mod span;

pub use metrics::{metrics, Metrics, MetricsSnapshot};
pub use progress::Verbosity;
pub use span::{span, Span, SpanEvent};
