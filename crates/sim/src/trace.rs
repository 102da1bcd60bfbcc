//! Per-µop pipeline tracing and text rendering.
//!
//! When enabled with [`Simulator::enable_trace`], the simulator records
//! one [`UopRecord`] per *committed* µop — program instructions and the
//! copy µops dispatch inserted for them — carrying the cycle each
//! pipeline stage happened. The collected [`Trace`] renders either as a
//! stage-timestamp table ([`Trace::render_table`]) or as a classic
//! pipetrace diagram with one column per cycle
//! ([`Trace::render_pipe`]), the format SimpleScalar users know from
//! `-ptrace`.
//!
//! Records are only appended up to the configured capacity; the
//! simulation itself is unaffected (timestamps are tracked in the ROB
//! whether or not tracing is on). `dropped()` reports how many µops
//! committed after the trace filled up.
//!
//! [`Simulator::enable_trace`]: crate::Simulator::enable_trace
//!
//! # Example
//!
//! ```
//! use dca_prog::{parse_asm, Memory};
//! use dca_sim::{steering::RoundRobin, SimConfig, Simulator};
//!
//! let prog = parse_asm(
//!     "e:
//!         li r1, #2
//!      l:
//!         add r2, r2, #1
//!         add r1, r1, #-1
//!         bne r1, r0, l
//!         halt",
//! )?;
//! let mut sim = Simulator::new(&SimConfig::paper_clustered(), &prog, Memory::new());
//! sim.enable_trace(64);
//! let mut scheme = RoundRobin::new();
//! let _stats = sim.run_mut(&mut scheme, 1_000);
//! let trace = sim.take_trace().expect("tracing was enabled");
//! assert!(!trace.is_empty());
//! println!("{}", trace.render_table());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::ClusterId;
use dca_isa::Inst;

/// What kind of µop a trace record describes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TracedKind {
    /// ALU / branch / jump / nop work.
    Normal,
    /// Load (effective-address µop plus the tracked memory access).
    Load,
    /// Store (effective-address µop; memory written at commit).
    Store,
    /// Inter-cluster copy inserted by dispatch. `text` carries the
    /// consumer instruction the copy was created for.
    Copy,
}

impl TracedKind {
    /// One-letter tag used by the renderers.
    fn tag(self) -> char {
        match self {
            TracedKind::Normal => ' ',
            TracedKind::Load => 'L',
            TracedKind::Store => 'S',
            TracedKind::Copy => '>',
        }
    }
}

/// Stage timestamps of one committed µop.
///
/// All cycles are absolute simulation cycles. `issue_at` is `None` for
/// µops that never pass through an instruction queue (nops).
#[derive(Clone, Debug)]
pub struct UopRecord {
    /// ROB sequence number (program *and* copy µops, in commit order).
    pub seq: u64,
    /// Dynamic program-instruction number (copies inherit their
    /// consumer's).
    pub dyn_seq: u64,
    /// Static instruction index.
    pub sidx: u32,
    /// Program counter.
    pub pc: u64,
    /// Disassembly of the instruction (for copies: the consumer).
    pub text: String,
    /// Cluster the µop executed in (for copies: the *source* cluster
    /// driving the bus).
    pub cluster: ClusterId,
    /// µop kind.
    pub kind: TracedKind,
    /// Cycle the instruction entered the fetch buffer.
    pub fetch_at: u64,
    /// Cycle it was decoded/renamed/steered into the queues.
    pub dispatch_at: u64,
    /// Cycle it left the instruction queue, if it ever sat in one.
    pub issue_at: Option<u64>,
    /// Cycle its result was architecturally complete.
    pub complete_at: u64,
    /// Cycle it retired from the ROB.
    pub commit_at: u64,
    /// `true` if this was a mispredicted conditional branch.
    pub mispredicted: bool,
}

impl UopRecord {
    /// Cycles spent waiting in an instruction queue (dispatch→issue).
    pub fn queue_wait(&self) -> u64 {
        self.issue_at
            .map_or(0, |i| i.saturating_sub(self.dispatch_at))
    }

    /// Total fetch-to-commit latency in cycles.
    pub fn lifetime(&self) -> u64 {
        self.commit_at.saturating_sub(self.fetch_at)
    }
}

/// A bounded log of committed µops with rendering helpers.
///
/// Construct indirectly through [`Simulator::enable_trace`]; the filled
/// trace is retrieved with [`Simulator::take_trace`] after the run.
///
/// [`Simulator::enable_trace`]: crate::Simulator::enable_trace
/// [`Simulator::take_trace`]: crate::Simulator::take_trace
#[derive(Clone, Debug, Default)]
pub struct Trace {
    records: Vec<UopRecord>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// Creates an empty trace holding at most `capacity` records.
    pub fn with_capacity(capacity: usize) -> Trace {
        Trace {
            records: Vec::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Appends a record, or counts it as dropped once full.
    pub(crate) fn push(&mut self, r: UopRecord) {
        if self.records.len() < self.capacity {
            self.records.push(r);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded µops, in commit order.
    pub fn records(&self) -> &[UopRecord] {
        &self.records
    }

    /// Number of µops that committed after the trace filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of recorded µops.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Mean dispatch→issue wait over recorded µops of `cluster`.
    pub fn mean_queue_wait(&self, cluster: ClusterId) -> f64 {
        let (sum, n) = self
            .records
            .iter()
            .filter(|r| r.cluster == cluster && r.issue_at.is_some())
            .fold((0u64, 0u64), |(s, n), r| (s + r.queue_wait(), n + 1));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Renders a stage-timestamp table:
    ///
    /// ```text
    ///  seq |     pc |  C  | µop              |   F    D    I    W    C
    ///    4 | 0x1010 | INT | add r2, r2, #1   |   2    3    5    6    8
    ///    5 | 0x1010 | INT>| copy (for add…)  |   2    3    4    5    8
    /// ```
    ///
    /// `F` fetch, `D` dispatch, `I` issue, `W` result complete,
    /// `C` commit. A `>` after the cluster marks a copy µop; `!` marks
    /// a mispredicted branch.
    pub fn render_table(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 80 + 80);
        out.push_str(
            "  seq |       pc |  C   | uop                        |     F     D     I     W     C\n",
        );
        out.push_str(
            "------+----------+------+----------------------------+------------------------------\n",
        );
        for r in &self.records {
            let mark = if r.mispredicted { '!' } else { r.kind.tag() };
            let issue = r
                .issue_at
                .map_or_else(|| "    -".into(), |i| format!("{i:5}"));
            let text = if r.kind == TracedKind::Copy {
                format!("copy (for {})", r.text)
            } else {
                r.text.clone()
            };
            out.push_str(&format!(
                "{:5} | {:#8x} | {:>4}{} | {:26} | {:5} {:5} {} {:5} {:5}\n",
                r.seq,
                r.pc,
                r.cluster.to_string(),
                mark,
                truncate(&text, 26),
                r.fetch_at,
                r.dispatch_at,
                issue,
                r.complete_at,
                r.commit_at,
            ));
        }
        if self.dropped > 0 {
            out.push_str(&format!("... {} more uops not recorded\n", self.dropped));
        }
        out
    }

    /// Renders a pipetrace diagram for cycles `[from, to)`: one row per
    /// recorded µop alive in the window, one column per cycle.
    ///
    /// Stage letters: `f` in the fetch buffer, `d` waiting in an
    /// instruction queue, `e` issued and executing, `w` complete but
    /// not yet retired, `C` commit. Copies render in lower-case with a
    /// `>` prefix on the label.
    ///
    /// The window is clamped to the cycles the recorded µops span
    /// (first fetch to last commit), so its width is bounded by the
    /// trace however large `to` is; the ruler names the clamped window.
    pub fn render_pipe(&self, from: u64, to: u64) -> String {
        assert!(from <= to, "cycle window is reversed");
        let first = self.records.iter().map(|r| r.fetch_at).min().unwrap_or(from);
        let end = self.records.iter().map(|r| r.commit_at + 1).max().unwrap_or(from);
        let from = from.max(first);
        let to = to.min(end).max(from);
        let width = (to - from) as usize;
        let mut out = String::new();
        // Cycle ruler (mod 10).
        out.push_str(&format!("{:32} |", format!("cycle {from}..{to}")));
        for c in from..to {
            out.push(char::from_digit((c % 10) as u32, 10).expect("digit"));
        }
        out.push('\n');
        for r in &self.records {
            if r.commit_at < from || r.fetch_at >= to {
                continue;
            }
            let label = if r.kind == TracedKind::Copy {
                format!("> copy {}", truncate(&r.text, 23))
            } else {
                truncate(&r.text, 30).to_string()
            };
            out.push_str(&format!("{label:32} |"));
            let mut row = vec![' '; width];
            let mut put = |cycle: u64, ch: char| {
                if cycle >= from && cycle < to {
                    row[(cycle - from) as usize] = ch;
                }
            };
            for c in r.fetch_at..r.dispatch_at {
                put(c, 'f');
            }
            let issue = r.issue_at.unwrap_or(r.dispatch_at);
            for c in r.dispatch_at..issue {
                put(c, 'd');
            }
            for c in issue..r.complete_at {
                put(c, 'e');
            }
            for c in r.complete_at..r.commit_at {
                put(c, 'w');
            }
            put(r.commit_at, 'C');
            out.extend(row);
            out.push('\n');
        }
        out
    }
}

/// Builds the display text for a µop (used by the simulator when
/// recording).
pub(crate) fn record_text(inst: &Inst) -> String {
    inst.to_string()
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, kind: TracedKind) -> UopRecord {
        UopRecord {
            seq,
            dyn_seq: seq,
            sidx: 0,
            pc: 0x1000 + seq * 4,
            text: "add r1, r1, #1".into(),
            cluster: ClusterId::INT,
            kind,
            fetch_at: seq,
            dispatch_at: seq + 1,
            issue_at: Some(seq + 3),
            complete_at: seq + 4,
            commit_at: seq + 6,
            mispredicted: false,
        }
    }

    #[test]
    fn capacity_bounds_recording() {
        let mut t = Trace::with_capacity(2);
        for i in 0..5 {
            t.push(rec(i, TracedKind::Normal));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        assert!(t.render_table().contains("3 more uops"));
    }

    #[test]
    fn queue_wait_and_lifetime() {
        let r = rec(10, TracedKind::Normal);
        assert_eq!(r.queue_wait(), 2);
        assert_eq!(r.lifetime(), 6);
        let mut t = Trace::with_capacity(8);
        t.push(rec(0, TracedKind::Normal));
        t.push(rec(2, TracedKind::Normal));
        assert!((t.mean_queue_wait(ClusterId::INT) - 2.0).abs() < 1e-9);
        assert_eq!(t.mean_queue_wait(ClusterId::FP), 0.0);
    }

    #[test]
    fn table_marks_copies_and_mispredicts() {
        let mut t = Trace::with_capacity(8);
        t.push(rec(0, TracedKind::Copy));
        let mut m = rec(1, TracedKind::Normal);
        m.mispredicted = true;
        t.push(m);
        let s = t.render_table();
        assert!(s.contains("copy (for add r1, r1, #1)"));
        assert!(s.contains('!'));
    }

    #[test]
    fn pipe_diagram_letters_land_in_window() {
        let mut t = Trace::with_capacity(8);
        t.push(rec(0, TracedKind::Normal)); // f@0 d@1..3 e@3 w@4..6 C@6
        let s = t.render_pipe(0, 10);
        let row = s.lines().nth(1).expect("one record row");
        let cells: String = row.split('|').nth(1).expect("cells").into();
        assert_eq!(&cells[0..1], "f");
        assert_eq!(&cells[6..7], "C");
        // Out-of-window records are skipped entirely.
        let empty = t.render_pipe(100, 110);
        assert_eq!(empty.lines().count(), 1, "ruler only");
    }

    #[test]
    fn pipe_window_is_clamped_to_the_recorded_span() {
        let mut t = Trace::with_capacity(8);
        t.push(rec(3, TracedKind::Normal)); // f@3 .. C@9
        t.push(rec(5, TracedKind::Normal)); // f@5 .. C@11
        // A window of 10^11 cycles renders the 9 cycles the µops span.
        let s = t.render_pipe(0, 100_000_000_000);
        assert!(s.len() < 200, "bounded rendering: {} bytes", s.len());
        let ruler = s.lines().next().expect("ruler");
        assert!(ruler.starts_with("cycle 3..12 "), "{ruler}");
        assert!(ruler.ends_with("|345678901"), "{ruler}");
        let rows: Vec<&str> = s.lines().skip(1).collect();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].ends_with("|fddewwC  "), "{}", rows[0]);
        // An empty trace renders an empty window.
        let none = Trace::with_capacity(1).render_pipe(0, u64::MAX);
        assert_eq!(none.lines().count(), 1);
        assert!(none.len() < 64);
    }

    #[test]
    #[should_panic(expected = "reversed")]
    fn reversed_window_panics() {
        let t = Trace::with_capacity(1);
        let _ = t.render_pipe(5, 2);
    }
}
