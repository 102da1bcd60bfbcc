//! The single stderr progress sink.
//!
//! All human-facing progress lines in the workspace go through
//! [`info`] / [`detail`] / [`warn`] instead of raw `eprintln!`, so one
//! verbosity flag (`--verbose` / `-q`) governs them all. Output goes
//! to stderr only — stdout and `results/` stay report-clean.

use std::sync::atomic::{AtomicU8, Ordering};

/// How chatty progress output is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verbosity {
    /// Warnings only (`-q`).
    Quiet,
    /// Default: phase-level progress lines.
    Normal,
    /// `--verbose`: per-step details (rounds, lock traffic, store ops).
    Verbose,
}

static LEVEL: AtomicU8 = AtomicU8::new(1);

/// Sets the process verbosity.
pub fn set_verbosity(v: Verbosity) {
    LEVEL.store(v as u8, Ordering::Relaxed);
}

/// Current process verbosity.
pub fn verbosity() -> Verbosity {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Verbosity::Quiet,
        1 => Verbosity::Normal,
        _ => Verbosity::Verbose,
    }
}

/// Phase-level progress line; shown at `Normal` and above.
pub fn info(msg: impl AsRef<str>) {
    if verbosity() >= Verbosity::Normal {
        eprintln!("{}", msg.as_ref());
    }
}

/// Fine-grained progress line; shown only with `--verbose`.
pub fn detail(msg: impl AsRef<str>) {
    if verbosity() >= Verbosity::Verbose {
        eprintln!("{}", msg.as_ref());
    }
}

/// Warning; always shown, `-q` included.
pub fn warn(msg: impl AsRef<str>) {
    eprintln!("{}", msg.as_ref());
}

/// Formats an ETA suffix from work remaining and a live rate in
/// milli-units per second (the [`fn@crate::metrics`] `intervals_per_sec_milli`
/// gauge). Returns `"eta --"` until the rate is warm.
pub fn eta(remaining: u64, rate_milli_per_sec: u64) -> String {
    if rate_milli_per_sec == 0 {
        return "eta --".to_string();
    }
    let secs = (remaining.saturating_mul(1000)).div_ceil(rate_milli_per_sec);
    if secs >= 120 {
        format!("eta {}m{:02}s", secs / 60, secs % 60)
    } else {
        format!("eta {secs}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbosity_round_trips_and_orders() {
        assert!(Verbosity::Quiet < Verbosity::Normal);
        assert!(Verbosity::Normal < Verbosity::Verbose);
        for v in [Verbosity::Quiet, Verbosity::Verbose, Verbosity::Normal] {
            set_verbosity(v);
            assert_eq!(verbosity(), v);
        }
    }

    #[test]
    fn eta_formats_by_magnitude() {
        assert_eq!(eta(100, 0), "eta --");
        assert_eq!(eta(10, 2000), "eta 5s");
        assert_eq!(eta(0, 1000), "eta 0s");
        assert_eq!(eta(150, 1000), "eta 2m30s");
        // Rounds up: 1 interval at 0.4/s is 2.5s → 3s.
        assert_eq!(eta(1, 400), "eta 3s");
    }
}
