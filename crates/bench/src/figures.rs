//! One function per table/figure of the paper's evaluation section.
//!
//! Every function renders a [`Figure`]: a markdown document containing
//! the regenerated table/series plus an ASCII rendition of the plot.
//! `dca figures` prints it and stores it under `results/`; [`FIGURES`]
//! lists every figure by id.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use dca_sim::BalanceHistogram;
use dca_stats::{ascii_bars, ascii_series, geometric_mean, harmonic_mean, Table};
use dca_workloads::{Workload, FIGURE3_NAMES, NAMES};

use crate::{Lab, Machine, SchemeKind, Warming};

/// The full run-set of a figure over `series` × `benches` (plus the
/// base runs every speed-up needs), handed to [`Lab::ensure`] so the
/// whole figure simulates in parallel before any cell is rendered.
fn ensure_series(
    lab: &mut Lab,
    series: &[Series<'_>],
    benches: &[&str],
    with_base: bool,
) {
    let mut runs: Vec<(&str, Machine, SchemeKind)> = Vec::new();
    for &bench in benches {
        if with_base {
            runs.push((bench, Machine::Base, SchemeKind::Naive));
        }
        for &(_, machine, scheme) in series {
            runs.push((bench, machine, scheme));
        }
    }
    lab.ensure(&runs);
}

/// Runs `per_bench` for every suite benchmark on worker threads and
/// returns the results in suite order. Workloads come from the lab's
/// cache (built in parallel if missing), so a figure never rebuilds
/// what an earlier one already constructed. Used by the two figures
/// that read per-workload state the Lab does not cache: `table1`'s
/// functional instruction mix and `ablate_threshold`'s adaptive
/// threshold.
fn suite_parallel<R: Send>(
    lab: &mut Lab,
    per_bench: impl Fn(&'static str, &Workload) -> R + Sync,
) -> Vec<(&'static str, R)> {
    let workloads = lab.build_workloads(&NAMES);
    let results = Lab::fan_out(&NAMES, |&bench| {
        (bench, per_bench(bench, &workloads[bench]))
    });
    let mut by_name: HashMap<&'static str, R> = results.into_iter().collect();
    NAMES
        .iter()
        .map(|&n| (n, by_name.remove(n).expect("every benchmark ran")))
        .collect()
}

/// A regenerated artefact.
#[derive(Clone, Debug, Default)]
pub struct Figure {
    /// Stable identifier (`fig03`, `table1`, `ablate_buses`, …).
    pub id: &'static str,
    /// Title, matching the paper's caption.
    pub title: String,
    /// Markdown body. Byte-identical across invocations for the same
    /// inputs (asserted by `figures::tests`): anything wall-clock-
    /// dependent belongs in [`Figure::timing`].
    pub body: String,
    /// Optional wall-clock footer (simulation rates, end-to-end
    /// speed-ups). Saved separately as `<id>.timing` so the report
    /// itself stays reproducible byte for byte.
    pub timing: Option<String>,
}

impl Figure {
    /// The full report document — the exact bytes [`Figure::save`]
    /// writes to `<id>.md`. Serve fronts return this same rendering,
    /// so a report fetched over the wire is byte-identical to one
    /// generated offline by `dca figures`.
    pub fn document(&self) -> String {
        format!("# {}\n\n{}", self.title, self.body)
    }

    /// Writes the figure to `<dir>/<id>.md` (and any timing footer to
    /// `<dir>/<id>.timing`) and returns the report path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating the directory or files.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.md", self.id));
        std::fs::write(&path, self.document())?;
        let timing_path = dir.join(format!("{}.timing", self.id));
        match &self.timing {
            Some(timing) => std::fs::write(timing_path, timing)?,
            // A regeneration without a footer must not leave a stale
            // one beside the fresh report.
            None => match std::fs::remove_file(timing_path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            },
        }
        Ok(path)
    }
}

/// Which suite mean a figure reports (the paper uses G-mean in
/// Figure 3 and H-mean elsewhere; the ablation sweeps report the
/// arithmetic mean of the percentages).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Mean {
    Geometric,
    Harmonic,
    Arithmetic,
}

impl Mean {
    fn label(self) -> &'static str {
        match self {
            Mean::Geometric => "G-mean",
            Mean::Harmonic => "H-mean",
            Mean::Arithmetic => "mean",
        }
    }

    /// Mean over speed-up percentages, computed on ratios as the paper
    /// does (the arithmetic mean directly on the percentages).
    fn of_percents(self, percents: &[f64]) -> f64 {
        let ratios: Vec<f64> = percents.iter().map(|p| 1.0 + p / 100.0).collect();
        let m = match self {
            Mean::Geometric => geometric_mean(&ratios),
            Mean::Harmonic => harmonic_mean(&ratios),
            Mean::Arithmetic => return percents.iter().sum::<f64>() / percents.len() as f64,
        };
        (m - 1.0) * 100.0
    }
}

/// A named series of a speed-up figure.
type Series<'a> = (&'a str, Machine, SchemeKind);

/// The speed-up (%) over the base machine of every series for each of
/// `benches`, then the `mean` row, with base and series ensured as one
/// batch. Returns the table and each series' mean.
fn speedup_table(
    lab: &mut Lab,
    series: &[Series<'_>],
    benches: &[&str],
    mean: Mean,
) -> (Table, Vec<f64>) {
    ensure_series(lab, series, benches, true);
    let mut headers: Vec<&str> = vec!["benchmark"];
    headers.extend(series.iter().map(|(l, _, _)| *l));
    let mut table = Table::new(&headers);
    let mut per_series: Vec<Vec<f64>> = vec![Vec::new(); series.len()];
    for &bench in benches {
        let mut row = vec![bench.to_string()];
        for (k, &(_, machine, scheme)) in series.iter().enumerate() {
            let s = lab.speedup(bench, machine, scheme);
            per_series[k].push(s);
            row.push(format!("{s:.1}"));
        }
        table.row(&row);
    }
    let means: Vec<f64> = per_series.iter().map(|p| mean.of_percents(p)).collect();
    let mut mean_row = vec![mean.label().to_string()];
    mean_row.extend(means.iter().map(|m| format!("{m:.1}")));
    table.row(&mean_row);
    (table, means)
}

fn speedup_figure(
    lab: &mut Lab,
    id: &'static str,
    title: &str,
    series: &[Series<'_>],
    benches: &[&str],
    mean: Mean,
) -> Figure {
    let (table, means) = speedup_table(lab, series, benches, mean);
    let bars: Vec<(String, f64)> =
        series.iter().zip(means).map(|(&(label, _, _), m)| (label.to_string(), m)).collect();
    let mut body = String::new();
    let _ = writeln!(body, "Performance improvement (%) over the base machine.\n");
    let _ = writeln!(body, "{}", table.to_markdown());
    let _ = writeln!(body, "```\nsuite {}:\n{}```", mean.label(), ascii_bars(&bars, 40));
    Figure {
        id,
        title: title.to_string(),
        body,
        timing: None,
    }
}

fn comm_figure(
    lab: &mut Lab,
    id: &'static str,
    title: &str,
    series: &[Series<'_>],
    benches: &[&str],
    per_benchmark: bool,
) -> Figure {
    ensure_series(lab, series, benches, false);
    let mut body = String::new();
    let _ = writeln!(
        body,
        "Inter-cluster communications per dynamic instruction, split into\n\
         critical and non-critical (a communication is critical when it\n\
         delayed a consumer in the destination cluster).\n"
    );
    let mut table = Table::new(&["scheme", "benchmark", "comm/instr", "critical", "non-critical"]);
    let mut bars = Vec::new();
    for &(label, machine, scheme) in series {
        let mut totals = Vec::new();
        let mut crits = Vec::new();
        for &bench in benches {
            let s = lab.stats(bench, machine, scheme);
            let total = s.comms_per_inst();
            let crit = s.critical_comms_per_inst();
            totals.push(total);
            crits.push(crit);
            if per_benchmark {
                table.row(&[
                    label.to_string(),
                    bench.to_string(),
                    format!("{total:.3}"),
                    format!("{crit:.3}"),
                    format!("{:.3}", total - crit),
                ]);
            }
        }
        let avg: f64 = totals.iter().sum::<f64>() / totals.len() as f64;
        let avg_crit: f64 = crits.iter().sum::<f64>() / crits.len() as f64;
        table.row(&[
            label.to_string(),
            "average".to_string(),
            format!("{avg:.3}"),
            format!("{avg_crit:.3}"),
            format!("{:.3}", avg - avg_crit),
        ]);
        bars.push((format!("{label} (total)"), avg));
        bars.push((format!("{label} (critical)"), avg_crit));
    }
    let _ = writeln!(body, "{}", table.to_markdown());
    let _ = writeln!(body, "```\n{}```", ascii_bars(&bars, 40));
    Figure {
        id,
        title: title.to_string(),
        body,
        timing: None,
    }
}

fn balance_figure(
    lab: &mut Lab,
    id: &'static str,
    title: &str,
    series: &[Series<'_>],
    benches: &[&str],
) -> Figure {
    ensure_series(lab, series, benches, false);
    let xs: Vec<i64> = (-10..=10).collect();
    let mut rendered = Vec::new();
    let mut table = Table::new(
        &std::iter::once("#ready FP − #ready INT")
            .chain(series.iter().map(|(l, _, _)| *l))
            .collect::<Vec<_>>(),
    );
    let mut columns: Vec<[f64; 21]> = Vec::new();
    for &(label, machine, scheme) in series {
        let mut merged = BalanceHistogram::new();
        for &bench in benches {
            let s = lab.stats(bench, machine, scheme);
            merged.merge(&s.balance);
        }
        let pct = merged.percent_series();
        rendered.push((label.to_string(), pct.to_vec()));
        columns.push(pct);
    }
    for (row_idx, &x) in xs.iter().enumerate() {
        let mut row = vec![x.to_string()];
        for col in &columns {
            row.push(format!("{:.1}", col[row_idx]));
        }
        table.row(&row);
    }
    let mut body = String::new();
    let _ = writeln!(
        body,
        "Distribution of the difference in ready instructions between the\n\
         clusters, % of cycles (SpecInt-analogue suite average).\n"
    );
    let _ = writeln!(body, "{}", table.to_markdown());
    let _ = writeln!(body, "```\n{}```", ascii_series(&xs, &rendered));
    Figure {
        id,
        title: title.to_string(),
        body,
        timing: None,
    }
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/// Table 1: benchmarks and their inputs (plus the analogue's measured
/// functional character, which stands in for the original binaries).
pub fn table1(lab: &mut Lab) -> Figure {
    let mut t = Table::new(&[
        "benchmark",
        "paper input",
        "analogue behaviour",
        "dyn. insts",
        "loads",
        "stores",
        "branches",
    ]);
    for (name, (paper_input, description, s)) in suite_parallel(lab, |_, w| {
        (w.paper_input, w.description, w.execute_functional())
    }) {
        t.row(&[
            name.to_string(),
            paper_input.to_string(),
            description.to_string(),
            s.dyn_insts.to_string(),
            format!("{:.1}%", s.load_ratio() * 100.0),
            format!("{:.1}%", s.store_ratio() * 100.0),
            format!("{:.1}%", s.branch_ratio() * 100.0),
        ]);
    }
    Figure {
        id: "table1",
        title: "Table 1: Benchmarks and their inputs (SpecInt95 analogues)".into(),
        body: t.to_markdown(),
        timing: None,
    }
}

/// Table 2: machine parameters, read back from the configuration
/// structs so the document cannot drift from the code.
pub fn table2(_lab: &mut Lab) -> Figure {
    let c = Machine::Clustered.config();
    let h = c.hierarchy;
    let mut t = Table::new(&["parameter", "configuration"]);
    let mut row = |k: &str, v: String| {
        t.row(&[k.to_string(), v]);
    };
    row("Fetch width", format!("{} instructions", c.fetch_width));
    row(
        "I-cache",
        format!(
            "{}KB, {}-way, {}-byte lines, {}-cycle hit, {}-cycle miss penalty",
            h.l1i.size_bytes / 1024,
            h.l1i.ways,
            h.l1i.line_bytes,
            h.l1_hit,
            h.l1_miss_penalty
        ),
    );
    row(
        "Branch predictor",
        format!(
            "combined: {}-entry selector, gshare {}K 2-bit counters / {}-bit history, bimodal {}K",
            c.bpred.selector_entries,
            c.bpred.gshare_entries / 1024,
            c.bpred.history_bits,
            c.bpred.bimodal_entries / 1024
        ),
    );
    row("Decode/rename width", format!("{} instructions", c.decode_width));
    row(
        "Instruction queues",
        format!("{} + {}", c.iq_size[0], c.iq_size[1]),
    );
    row("Max in-flight", format!("{}", c.rob_size));
    row("Retire width", format!("{} instructions", c.retire_width));
    row(
        "Functional units (C1)",
        format!(
            "{} intALU + {} int mul/div",
            c.fus[0].int_alu, c.fus[0].int_muldiv
        ),
    );
    row(
        "Functional units (C2)",
        format!(
            "{} intALU + {} fpALU + {} fp mul/div",
            c.fus[1].int_alu, c.fus[1].fp_alu, c.fus[1].fp_muldiv
        ),
    );
    row(
        "Inter-cluster buses",
        format!(
            "{}/cycle each way, {} extra cycle(s); copies consume issue width",
            c.buses_per_dir, c.copy_latency
        ),
    );
    row(
        "Issue",
        format!(
            "{} + {} out-of-order; loads execute when prior store addresses known",
            c.issue_width[0], c.issue_width[1]
        ),
    );
    row(
        "Physical registers",
        format!("{} + {}", c.phys_regs[0], c.phys_regs[1]),
    );
    row(
        "D-cache L1",
        format!(
            "{}KB, {}-way, {}-byte lines, {}-cycle hit, {} R/W ports",
            h.l1d.size_bytes / 1024,
            h.l1d.ways,
            h.l1d.line_bytes,
            h.l1_hit,
            c.dcache_ports
        ),
    );
    row(
        "L2 (shared)",
        format!(
            "{}KB, {}-way, {}-byte lines, {}-cycle hit",
            h.l2.size_bytes / 1024,
            h.l2.ways,
            h.l2.line_bytes,
            h.l1_miss_penalty
        ),
    );
    row(
        "Main memory",
        format!(
            "{}-byte bus, {} cycles first chunk, {} inter-chunk",
            h.bus_bytes, h.mem_first_chunk, h.mem_inter_chunk
        ),
    );
    Figure {
        id: "table2",
        title: "Table 2: Machine parameters".into(),
        body: t.to_markdown(),
        timing: None,
    }
}

// ---------------------------------------------------------------------
// Figures 3–16
// ---------------------------------------------------------------------

/// Figure 3: static partitioning (Sastry et al.) versus the dynamic
/// LdSt slice steering; G-mean over seven benchmarks (no vortex).
pub fn fig03(lab: &mut Lab) -> Figure {
    speedup_figure(
        lab,
        "fig03",
        "Figure 3: Static versus dynamic partitioning",
        &[
            ("Static (Sastry et al.)", Machine::Clustered, SchemeKind::StaticLdSt),
            ("LdSt slice", Machine::Clustered, SchemeKind::LdStSlice),
        ],
        &FIGURE3_NAMES,
        Mean::Geometric,
    )
}

/// Figure 4: LdSt slice versus Br slice steering.
pub fn fig04(lab: &mut Lab) -> Figure {
    speedup_figure(
        lab,
        "fig04",
        "Figure 4: LdSt slice versus Br slice steering",
        &[
            ("LdSt slice", Machine::Clustered, SchemeKind::LdStSlice),
            ("Br slice", Machine::Clustered, SchemeKind::BrSlice),
        ],
        &NAMES,
        Mean::Harmonic,
    )
}

/// Figure 5: communications per dynamic instruction for the slice
/// steering schemes, split critical / non-critical, per benchmark.
pub fn fig05(lab: &mut Lab) -> Figure {
    comm_figure(
        lab,
        "fig05",
        "Figure 5: Communications per dynamic instruction (slice steering)",
        &[
            ("LdSt slice", Machine::Clustered, SchemeKind::LdStSlice),
            ("Br slice", Machine::Clustered, SchemeKind::BrSlice),
        ],
        &NAMES,
        true,
    )
}

/// Figure 6: workload-balance distribution for the slice steering
/// schemes.
pub fn fig06(lab: &mut Lab) -> Figure {
    balance_figure(
        lab,
        "fig06",
        "Figure 6: Distribution of ready-instruction imbalance (slice steering)",
        &[
            ("Ld/St slice", Machine::Clustered, SchemeKind::LdStSlice),
            ("Br slice", Machine::Clustered, SchemeKind::BrSlice),
        ],
        &NAMES,
    )
}

/// Figure 7: non-slice balance steering versus plain slice steering.
pub fn fig07(lab: &mut Lab) -> Figure {
    speedup_figure(
        lab,
        "fig07",
        "Figure 7: Non-slice balance steering versus slice steering",
        &[
            ("LdSt slice", Machine::Clustered, SchemeKind::LdStSlice),
            ("Br slice", Machine::Clustered, SchemeKind::BrSlice),
            ("LdSt non-slice", Machine::Clustered, SchemeKind::LdStNonSliceBalance),
            ("Br non-slice", Machine::Clustered, SchemeKind::BrNonSliceBalance),
        ],
        &NAMES,
        Mean::Harmonic,
    )
}

/// Figure 8: suite-average communications for the four schemes of
/// Figure 7.
pub fn fig08(lab: &mut Lab) -> Figure {
    comm_figure(
        lab,
        "fig08",
        "Figure 8: Communications per instruction (suite average)",
        &[
            ("LdSt slice", Machine::Clustered, SchemeKind::LdStSlice),
            ("Br slice", Machine::Clustered, SchemeKind::BrSlice),
            ("LdSt non-slice", Machine::Clustered, SchemeKind::LdStNonSliceBalance),
            ("Br non-slice", Machine::Clustered, SchemeKind::BrNonSliceBalance),
        ],
        &NAMES,
        false,
    )
}

/// Figure 9: workload-balance distribution for non-slice balance
/// steering.
pub fn fig09(lab: &mut Lab) -> Figure {
    balance_figure(
        lab,
        "fig09",
        "Figure 9: Ready-instruction imbalance (non-slice balance steering)",
        &[
            ("Ld/St non-slice", Machine::Clustered, SchemeKind::LdStNonSliceBalance),
            ("Br non-slice", Machine::Clustered, SchemeKind::BrNonSliceBalance),
        ],
        &NAMES,
    )
}

/// Figure 11: slice balance steering performance.
pub fn fig11(lab: &mut Lab) -> Figure {
    speedup_figure(
        lab,
        "fig11",
        "Figure 11: Slice balance steering performance",
        &[
            ("LdSt slice bal.", Machine::Clustered, SchemeKind::LdStSliceBalance),
            ("Br slice bal.", Machine::Clustered, SchemeKind::BrSliceBalance),
        ],
        &NAMES,
        Mean::Harmonic,
    )
}

/// Figure 12: balance distribution of modulo versus slice balance.
pub fn fig12(lab: &mut Lab) -> Figure {
    balance_figure(
        lab,
        "fig12",
        "Figure 12: Ready-instruction imbalance (modulo vs slice balance)",
        &[
            ("Modulo", Machine::Clustered, SchemeKind::Modulo),
            ("Ld/St slice bal.", Machine::Clustered, SchemeKind::LdStSliceBalance),
            ("Br slice bal.", Machine::Clustered, SchemeKind::BrSliceBalance),
        ],
        &NAMES,
    )
}

/// Figure 13: priority slice balance steering performance (plus the
/// critical-communication deltas the paper quotes in §3.7).
pub fn fig13(lab: &mut Lab) -> Figure {
    let mut fig = speedup_figure(
        lab,
        "fig13",
        "Figure 13: Priority slice balance steering performance",
        &[
            ("LdSt p. slice", Machine::Clustered, SchemeKind::LdStPriority),
            ("Br p. slice", Machine::Clustered, SchemeKind::BrPriority),
        ],
        &NAMES,
        Mean::Harmonic,
    );
    // §3.7 quotes the reduction in *critical* communications versus the
    // plain slice-balance schemes — append the measured values.
    ensure_series(
        lab,
        &[
            ("", Machine::Clustered, SchemeKind::LdStSliceBalance),
            ("", Machine::Clustered, SchemeKind::BrSliceBalance),
        ],
        &NAMES,
        false,
    );
    let mut extra = String::new();
    for (label, plain, prio) in [
        ("LdSt", SchemeKind::LdStSliceBalance, SchemeKind::LdStPriority),
        ("Br", SchemeKind::BrSliceBalance, SchemeKind::BrPriority),
    ] {
        let (mut c_plain, mut c_prio) = (0.0, 0.0);
        for &bench in &NAMES {
            c_plain += lab
                .stats(bench, Machine::Clustered, plain)
                .critical_comms_per_inst();
            c_prio += lab
                .stats(bench, Machine::Clustered, prio)
                .critical_comms_per_inst();
        }
        c_plain /= NAMES.len() as f64;
        c_prio /= NAMES.len() as f64;
        let _ = writeln!(
            extra,
            "- {label}: critical comms/instr {c_plain:.3} (slice bal.) → {c_prio:.3} (priority)",
        );
    }
    fig.body.push_str("\nCritical-communication change (§3.7):\n\n");
    fig.body.push_str(&extra);
    fig
}

/// Figure 14: modulo, general balance and the 16-way upper bound.
pub fn fig14(lab: &mut Lab) -> Figure {
    speedup_figure(
        lab,
        "fig14",
        "Figure 14: General balance steering",
        &[
            ("Modulo", Machine::Clustered, SchemeKind::Modulo),
            ("General bal.", Machine::Clustered, SchemeKind::GeneralBalance),
            ("UB arch.", Machine::UpperBound, SchemeKind::Naive),
        ],
        &NAMES,
        Mean::Harmonic,
    )
}

/// Figure 15: register replication under general balance steering.
pub fn fig15(lab: &mut Lab) -> Figure {
    ensure_series(
        lab,
        &[("", Machine::Clustered, SchemeKind::GeneralBalance)],
        &NAMES,
        false,
    );
    let mut t = Table::new(&["benchmark", "avg replicated regs/cycle"]);
    let mut bars = Vec::new();
    let mut vals = Vec::new();
    for &bench in &NAMES {
        let s = lab.stats(bench, Machine::Clustered, SchemeKind::GeneralBalance);
        let r = s.avg_replication();
        vals.push(r);
        t.row(&[bench.to_string(), format!("{r:.2}")]);
        bars.push((bench.to_string(), r));
    }
    let hmean = harmonic_mean(&vals.iter().map(|v| v.max(1e-9)).collect::<Vec<_>>());
    t.row(&["H-mean".into(), format!("{hmean:.2}")]);
    let mut body = String::new();
    let _ = writeln!(
        body,
        "Average number of integer logical registers with a physical\n\
         register allocated in both clusters, per cycle (the paper reports\n\
         3.1 on average versus full replication of the Alpha 21264).\n"
    );
    let _ = writeln!(body, "{}", t.to_markdown());
    let _ = writeln!(body, "```\n{}```", ascii_bars(&bars, 40));
    Figure {
        id: "fig15",
        title: "Figure 15: Register replication (general balance steering)".into(),
        body,
        timing: None,
    }
}

/// Figure 16: FIFO-based steering (Palacharla et al.) versus general
/// balance, including the communication comparison quoted in §3.9.
pub fn fig16(lab: &mut Lab) -> Figure {
    let mut fig = speedup_figure(
        lab,
        "fig16",
        "Figure 16: General balance versus FIFO-based steering",
        &[
            ("FIFO-based", Machine::Clustered, SchemeKind::Fifo),
            ("General bal.", Machine::Clustered, SchemeKind::GeneralBalance),
        ],
        &NAMES,
        Mean::Harmonic,
    );
    let mut comm = String::new();
    for (label, scheme) in [
        ("FIFO-based", SchemeKind::Fifo),
        ("General bal.", SchemeKind::GeneralBalance),
    ] {
        let avg: f64 = NAMES
            .iter()
            .map(|b| lab.stats(b, Machine::Clustered, scheme).comms_per_inst())
            .sum::<f64>()
            / NAMES.len() as f64;
        let _ = writeln!(comm, "- {label}: {avg:.3} communications/instruction");
    }
    fig.body
        .push_str("\nCommunication comparison (§3.9: 0.162 vs 0.042 in the paper):\n\n");
    fig.body.push_str(&comm);
    fig
}

// ---------------------------------------------------------------------
// Ablations (claims made in the text)
// ---------------------------------------------------------------------

/// §3.8 claim: general balance performs the same with one bus per
/// direction.
pub fn ablate_buses(lab: &mut Lab) -> Figure {
    speedup_figure(
        lab,
        "ablate_buses",
        "Ablation: general balance with 3 vs 1 buses per direction (§3.8)",
        &[
            ("3 buses", Machine::Clustered, SchemeKind::GeneralBalance),
            ("1 bus", Machine::OneBus, SchemeKind::GeneralBalance),
        ],
        &NAMES,
        Mean::Harmonic,
    )
}

/// One column of an ablation sweep: header, machine and scheme.
type Column = (String, Machine, SchemeKind);

/// An ablation sweep: `intro`, then the speed-up (%) of every column
/// over the base machine for each suite benchmark and their arithmetic
/// mean. Going through [`speedup_table`], a sweep is ensured, sampled
/// and stored like every other figure. Columns on ablated
/// configurations come from [`clustered_variant`]: their results are
/// keyed by geometry ([`dca_sim::SimConfig::config_hash`]), so sweep
/// points never collide with each other or with the presets.
fn sweep_figure(
    lab: &mut Lab,
    id: &'static str,
    title: &str,
    intro: &str,
    columns: &[Column],
) -> Figure {
    let series: Vec<Series<'_>> = columns.iter().map(|(l, m, s)| (l.as_str(), *m, *s)).collect();
    let (table, _) = speedup_table(lab, &series, &NAMES, Mean::Arithmetic);
    Figure {
        id,
        title: title.to_string(),
        body: format!("{intro}\n\n{}", table.to_markdown()),
        timing: None,
    }
}

/// The paper's clustered machine with `edit` applied, registered with
/// the lab as a custom machine.
fn clustered_variant(lab: &mut Lab, edit: impl FnOnce(&mut dca_sim::SimConfig)) -> Machine {
    let mut cfg = Machine::Clustered.config();
    edit(&mut cfg);
    lab.register_machine(cfg)
}

/// §3.5 claim: metric I1 alone performs close to the I1+I2 combination.
/// Each metric is a scheme of its own ([`SchemeKind::LdStNonSliceI1`],
/// [`SchemeKind::LdStNonSliceI2`]); the combined column is the paper's
/// [`SchemeKind::LdStNonSliceBalance`] of Figures 7–9.
pub fn ablate_imbalance(lab: &mut Lab) -> Figure {
    let column = |label: &str, scheme| (label.to_string(), Machine::Clustered, scheme);
    sweep_figure(
        lab,
        "ablate_imbalance",
        "Ablation: imbalance metrics I1 / I2 / combined (§3.5)",
        "Speed-up (%) of LdSt non-slice balance steering by imbalance metric.",
        &[
            column("I1 only", SchemeKind::LdStNonSliceI1),
            column("I2 only", SchemeKind::LdStNonSliceI2),
            column("combined", SchemeKind::LdStNonSliceBalance),
        ],
    )
}

/// §3.7 design point: the criticality threshold adapts towards ~50% of
/// instructions in critical slices.
///
/// The one figure that simulates outside [`Lab::ensure`]: it reads the
/// scheme's adaptive threshold after a full unsampled run per
/// benchmark, state the lab does not cache. Each run still counts as a
/// straight run in [`Lab::work`], so a re-run never passes for warm.
pub fn ablate_threshold(lab: &mut Lab) -> Figure {
    use dca_sim::Simulator;
    use dca_steer::{PriorityConfig, PrioritySliceBalance, SliceKind};

    let mut t = Table::new(&["benchmark", "final threshold", "critical fraction (window)"]);
    let max = lab.opts().max_insts;
    let tally = Arc::clone(&lab.tally);
    for (bench, (threshold, critical)) in suite_parallel(lab, |_, w| {
        let mut scheme =
            PrioritySliceBalance::with_config(SliceKind::LdSt, PriorityConfig::default());
        let _ = Simulator::new(&Machine::Clustered.config(), &w.program, w.memory.clone())
            .run(&mut scheme, max);
        tally.straight_runs.fetch_add(1, Ordering::Relaxed);
        (scheme.threshold(), scheme.critical_percent())
    }) {
        t.row(&[
            bench.to_string(),
            threshold.to_string(),
            format!("{critical:.0}%"),
        ]);
    }
    Figure {
        id: "ablate_threshold",
        title: "Ablation: adaptive criticality threshold (§3.7)".into(),
        body: t.to_markdown(),
        timing: None,
    }
}

/// Wire-delay sensitivity: the paper's whole premise is that
/// inter-cluster bypasses cost one extra cycle. This sweep shows how
/// the best scheme (general balance) degrades as that wire delay grows,
/// and that the naive partitioning is insensitive (it never
/// communicates).
pub fn ablate_copy_latency(lab: &mut Lab) -> Figure {
    let columns: Vec<Column> = [1u32, 2, 4, 8]
        .into_iter()
        .map(|lat| {
            let m = clustered_variant(lab, |cfg| cfg.copy_latency = lat);
            (format!("{lat} cycle(s)"), m, SchemeKind::GeneralBalance)
        })
        .collect();
    sweep_figure(
        lab,
        "ablate_copy_latency",
        "Ablation: inter-cluster bypass latency (wire-delay premise, §1/§2)",
        "Speed-up (%) of general balance steering over the base machine as \
         the inter-cluster bypass latency grows. The paper assumes 1 cycle; \
         steering quality matters *more* as wires get slower — the gap to \
         the naive partitioning shrinks but stays positive while \
         communications are rare enough.",
        &columns,
    )
}

/// Per-cluster issue width sweep: how much of the upper bound's
/// advantage is raw width versus the absence of communication.
pub fn ablate_issue_width(lab: &mut Lab) -> Figure {
    let mut columns: Vec<Column> = [2u32, 4, 8]
        .into_iter()
        .map(|iw| {
            let m = clustered_variant(lab, |cfg| {
                cfg.issue_width = dca_sim::per_cluster(&[iw, iw]);
            });
            (format!("{iw}+{iw} wide"), m, SchemeKind::GeneralBalance)
        })
        .collect();
    columns.push(("UB 8-wide".into(), Machine::UpperBound, SchemeKind::Naive));
    sweep_figure(
        lab,
        "ablate_issue_width",
        "Ablation: per-cluster issue width under general balance",
        "Speed-up (%) over the base machine. 4+4 is the paper's clustered \
         machine; the unified 8-wide upper bound shows what removing the \
         communication penalty (not just adding width) buys.",
        &columns,
    )
}

/// Instruction-window (ROB) sweep on the paper's clustered machine.
pub fn ablate_window(lab: &mut Lab) -> Figure {
    let columns: Vec<Column> = [32u32, 64, 128]
        .into_iter()
        .map(|rob| {
            let m = clustered_variant(lab, |cfg| cfg.rob_size = rob);
            (format!("ROB {rob}"), m, SchemeKind::GeneralBalance)
        })
        .collect();
    sweep_figure(
        lab,
        "ablate_window",
        "Ablation: instruction window size (Table 2's 64 in-flight)",
        "Speed-up (%) of general balance over the (ROB-64) base machine as \
         the window grows. Both clusters share the window; the paper fixes \
         it at 64 in-flight instructions.",
        &columns,
    )
}

/// Register-file port sweep: §2 says copies compete for register-file
/// ports like any other instruction; Table 2 gives no port counts, so
/// the reproduction defaults to unconstrained ports. This sweep shows
/// what the claim costs if ports are scarce.
pub fn ablate_rf_ports(lab: &mut Lab) -> Figure {
    // (read, write) ports per cluster; 0 = unconstrained.
    let configs = [(0u32, 0u32, "unconstrained"), (8, 4, "8r4w"), (6, 3, "6r3w"), (4, 2, "4r2w")];
    let columns: Vec<Column> = configs
        .into_iter()
        .map(|(r, w, label)| {
            let m = clustered_variant(lab, |cfg| {
                cfg.rf_read_ports = dca_sim::per_cluster(&[r, r]);
                cfg.rf_write_ports = dca_sim::per_cluster(&[w, w]);
            });
            (label.to_string(), m, SchemeKind::GeneralBalance)
        })
        .collect();
    sweep_figure(
        lab,
        "ablate_rf_ports",
        "Ablation: register-file ports per cluster (§2's copy-competition claim)",
        "Speed-up (%) of general balance over the base machine as register-\n\
         file ports shrink (reads/writes per cluster per cycle, consumed at\n\
         issue; copies read in the source cluster and write in the\n\
         destination cluster). 8r4w matches the 4-wide issue demand;\n\
         tighter configurations throttle copies and computation alike.",
        &columns,
    )
}

// ---------------------------------------------------------------------
// Sampled-simulation report (DESIGN.md §7)
// ---------------------------------------------------------------------

/// The run-set of the sampling report: one benchmark × {Base,
/// Clustered} × {Naive, GeneralBalance} — the acceptance quartet of the
/// paper-scale sampling work (ISSUE 2).
const SAMPLING_BENCH: &str = "compress";
const SAMPLING_SERIES: [(&str, Machine, SchemeKind); 4] = [
    ("Base / naive", Machine::Base, SchemeKind::Naive),
    ("Base / general bal.", Machine::Base, SchemeKind::GeneralBalance),
    ("Clustered / naive", Machine::Clustered, SchemeKind::Naive),
    ("Clustered / general bal.", Machine::Clustered, SchemeKind::GeneralBalance),
];

/// The stateful scheme whose steering-state warm-up delta the report
/// quantifies (slice-id tables rebuilt at decode time).
const WARM_STEERING_SCHEME: SchemeKind = SchemeKind::LdStSliceBalance;

/// Sampling methodology report: sampled IPC with interval count and
/// standard error for the acceptance quartet, the adaptive-budget
/// outcome per combination, and the steering-state warm-up delta for
/// one stateful scheme.
///
/// Everything in the report body is deterministic — byte-identical
/// across invocations, worker schedules and store temperature. The
/// wall-clock rate lines (fast-forward/detailed rates, store hits and
/// the end-to-end speed-up over an extrapolated straight pass) go into
/// the `results/sampling.timing` footer instead.
///
/// At `--scale paper` this is the paper's full 100M-instruction
/// operating point; at other scales (or without sampling) it reports
/// the straight runs and says so.
pub fn sampling(lab: &mut Lab) -> Figure {
    ensure_series(lab, &SAMPLING_SERIES, &[SAMPLING_BENCH], true);
    let opts = lab.opts();
    let sampled = opts.sampling.is_some();

    let mut t = Table::new(&[
        "machine / scheme",
        "IPC",
        "intervals",
        "interval IPC (mean ± stderr)",
        "speed-up vs base (%)",
    ]);
    let base = lab.stats(SAMPLING_BENCH, Machine::Base, SchemeKind::Naive);
    for &(label, machine, scheme) in &SAMPLING_SERIES {
        let s = lab.stats(SAMPLING_BENCH, machine, scheme);
        let (intervals, interval_ipc) = match lab.sample_info(SAMPLING_BENCH, machine, scheme) {
            Some(info) => (
                format!(
                    "{}/{}{}",
                    info.intervals,
                    info.budget,
                    if info.early_stop { " (early stop)" } else { "" }
                ),
                info.ipc_text(),
            ),
            None => ("1 (unsampled)".into(), format!("{:.3}", s.ipc())),
        };
        t.row(&[
            label.to_string(),
            format!("{:.3}", s.ipc()),
            intervals,
            interval_ipc,
            format!("{:+.1}", s.speedup_over(&base)),
        ]);
    }

    let mut body = String::new();
    let _ = writeln!(
        body,
        "Checkpointed sampled simulation of `{SAMPLING_BENCH}` (DESIGN.md §7/§8):\n\
         the dynamic window is fast-forwarded functionally with a checkpoint\n\
         every `period` instructions; each checkpoint seeds one measured\n\
         interval (functional cache/predictor warming, then detailed\n\
         simulation), and intervals of all combinations fan across the\n\
         worker pool. Reported IPC is the ratio of summed committed\n\
         instructions to summed cycles over the merged intervals.\n"
    );
    if let Some(s) = opts.sampling {
        let stop = match s.target_stderr {
            Some(t) => format!(
                "adaptive early exit at 95% CI half-width ≤ {t} IPC (min 2 intervals)"
            ),
            None => "fixed full-budget intervals".to_string(),
        };
        let warmth = match s.warming {
            Warming::Continuous => "continuous warming (every interval starts from its \
                                    checkpoint's restored uarch snapshot; zero detached-warming \
                                    instructions)"
                .to_string(),
            Warming::Detached => format!("detached warming ({} insts per interval)", s.warmup),
        };
        let _ = writeln!(
            body,
            "Parameters: window {} insts, period {}, detailed interval {},\n{warmth},\n{stop}.\n",
            opts.max_insts, s.period, s.interval
        );
    } else {
        let _ = writeln!(
            body,
            "Sampling inactive at this scale — straight detailed runs of at\n\
             most {} instructions are reported.\n",
            opts.max_insts
        );
    }
    let _ = writeln!(body, "{}", t.to_markdown());

    // Warming-transient delta (the acceptance measurement of the
    // continuous-warming work, DESIGN.md §9): one combination measured
    // at both warming operating points, full fixed budget over the
    // parent's checkpoint stream. Two things differ between the sides:
    // the microarchitectural state intervals start from (the
    // transient proper — dominant; the window-matched control is the
    // bit-identical equivalence suite) and, inherently, the measured
    // windows themselves (detached measures [seq+warmup, …), having
    // consumed its warming replay; continuous measures [seq, …) —
    // a `warmup`-per-`period` shift). The delta is the end-to-end
    // movement of the reported number between the two modes.
    // Deterministic, so it lives in the report body.
    if sampled {
        let warming_side = |warming: Warming, parent: &Lab| {
            let mut o = opts.clone();
            o.warm_steering = false;
            if let Some(s) = o.sampling.as_mut() {
                s.target_stderr = None;
                s.warming = warming;
            }
            let mut l = Lab::new(o);
            l.adopt_from(parent);
            l.stats(SAMPLING_BENCH, Machine::Clustered, SchemeKind::GeneralBalance)
        };
        let (detached, continuous) = (
            warming_side(Warming::Detached, lab),
            warming_side(Warming::Continuous, lab),
        );
        let tdelta = (continuous.ipc() / detached.ipc() - 1.0) * 100.0;
        let _ = writeln!(
            body,
            "Warming transient (`--warming`): {} on the clustered machine measures\n\
             {:.3} IPC with detached warming and {:.3} IPC with continuous\n\
             (snapshot-restored) warming ({:+.2}%). Detached intervals replay a\n\
             bounded warming window into cold caches, so state older than the\n\
             window is lost; continuous warming carries the whole stream prefix\n\
             into every interval and removes that bias (DESIGN.md §9). The two\n\
             modes necessarily measure windows offset by the warmup replay\n\
             (detached starts at checkpoint+warmup), so this delta is the\n\
             end-to-end movement between the operating points; the\n\
             window-matched control is the bit-identical warming-equivalence\n\
             suite.\n",
            SchemeKind::GeneralBalance.label(),
            detached.ipc(),
            continuous.ipc(),
            tdelta,
        );
    }

    // Steering-state warm-up delta (ROADMAP item): one stateful scheme
    // measured with cold versus functionally warmed slice tables. Both
    // sides run the full fixed interval budget — never the adaptive
    // early exit — so the delta compares identical measured windows
    // and is purely the table-warmth effect. The comparison is only
    // meaningful under *detached* warming (the tables ride on its
    // replay window), so both sides pin that mode. Deterministic, so
    // it lives in the report body.
    if sampled {
        let side = |warm_steering: bool, parent: &Lab| {
            let mut o = opts.clone();
            o.warm_steering = warm_steering;
            if let Some(s) = o.sampling.as_mut() {
                s.target_stderr = None;
                s.warming = Warming::Detached;
            }
            let mut l = Lab::new(o);
            // Reuse the parent's workloads and checkpoint stream: the
            // side measurement must never pay a second fast-forward,
            // store or no store.
            l.adopt_from(parent);
            l.stats(SAMPLING_BENCH, Machine::Clustered, WARM_STEERING_SCHEME)
        };
        let (cold, warm) = (side(false, lab), side(true, lab));
        let delta = (warm.ipc() / cold.ipc() - 1.0) * 100.0;
        let _ = writeln!(
            body,
            "Steering-state warm-up (`--warm-steering`): {} with cold slice\n\
             tables {:.3} IPC, with tables rebuilt during functional warming\n\
             {:.3} IPC ({:+.2}%). Slice tables relearn within an interval, so\n\
             the delta bounds the per-interval cold-table transient; FIFO\n\
             occupancy and imbalance windows are issue-/cycle-coupled timing\n\
             state and cannot be reconstructed from the functional stream\n\
             (DESIGN.md §8).\n",
            WARM_STEERING_SCHEME.label(),
            cold.ipc(),
            warm.ipc(),
            delta,
        );
    }

    // Wall-clock rates and end-to-end economics: nondeterministic by
    // nature, so they go to the `.timing` footer, never the report.
    let mut timing = None;
    if sampled {
        let ff = lab
            .fast_forward_info(SAMPLING_BENCH)
            .expect("sampled run fast-forwarded");
        let (mut det_insts, mut det_secs, mut warm_insts, mut warm_secs) =
            (0u64, 0.0f64, 0u64, 0.0f64);
        let mut stored_intervals = 0u64;
        let (mut restored, mut early_stops) = (0u64, 0u64);
        for &(_, machine, scheme) in &SAMPLING_SERIES {
            let info = lab
                .sample_info(SAMPLING_BENCH, machine, scheme)
                .expect("sampled run recorded");
            det_insts += info.detailed_insts;
            det_secs += info.detailed_secs;
            warm_insts += info.warmed_insts;
            warm_secs += info.warm_secs;
            stored_intervals += info.from_store;
            restored += info.restored_snapshots;
            early_stops += u64::from(info.early_stop);
        }
        let ff_rate = ff.insts as f64 / ff.secs.max(1e-9);
        let mut foot = String::new();
        let _ = writeln!(
            foot,
            "Wall-clock footer of results/sampling.md (regenerated every run;\n\
             deliberately outside the byte-identical report).\n"
        );
        let mut rates = Table::new(&["stage", "instructions", "seconds", "insts/sec"]);
        rates.row(&[
            format!(
                "functional fast-forward{}",
                if ff.from_store { " (store hit)" } else { "" }
            ),
            ff.executed_insts().to_string(),
            format!("{:.2}", ff.secs),
            if ff.from_store {
                "-".into()
            } else {
                format!("{ff_rate:.2e}")
            },
        ]);
        rates.row(&[
            "functional warming".into(),
            warm_insts.to_string(),
            format!("{warm_secs:.2}"),
            "-".into(),
        ]);
        let det_rate = det_insts as f64 / det_secs.max(1e-9);
        rates.row(&[
            "detailed (measured)".into(),
            det_insts.to_string(),
            format!("{det_secs:.2}"),
            if det_secs > 0.0 {
                format!("{det_rate:.2e}")
            } else {
                "-".into()
            },
        ]);
        let _ = writeln!(foot, "{}", rates.to_markdown());
        if stored_intervals > 0 {
            let _ = writeln!(
                foot,
                "{stored_intervals} merged intervals were served from the store \
                 ({}).",
                opts.store_dir
                    .as_deref()
                    .map_or("store dir unknown".into(), |p| p.display().to_string())
            );
        }
        // Session counters (PR 4/5 observables, now first-class in the
        // metrics registry): snapshot restores and adaptive early stops
        // come from the per-combination sample diagnostics; lock
        // elections from the process-wide registry (they are per
        // process, not per combination).
        let m = dca_obs::metrics();
        let _ = writeln!(
            foot,
            "Counters: {restored} restored snapshots, {early_stops}/{} combinations\n\
             early-stopped, {} lock elections won / {} lost this process.",
            SAMPLING_SERIES.len(),
            m.lock_elections_won_total.get(),
            m.lock_elections_lost_total.get(),
        );
        if det_secs > 0.0 {
            // A straight detailed pass would simulate the whole window
            // for every combination at the measured detailed rate;
            // compare against the recorded serial-equivalent cost of
            // the sampled runs (fast-forward + warming + detailed,
            // summed over workers) — not this invocation's wall clock,
            // which is ~0 whenever earlier figures already ensured
            // these combinations.
            let extrapolated = SAMPLING_SERIES.len() as f64 * ff.insts as f64 / det_rate;
            let sampled_secs = ff.secs + warm_secs + det_secs;
            let speedup = extrapolated / sampled_secs.max(1e-9);
            let _ = writeln!(
                foot,
                "Sampled cost (serial-equivalent): {sampled_secs:.1}s for {} combinations; a\n\
                 straight detailed pass over the same windows extrapolates to\n\
                 {extrapolated:.0}s (×{speedup:.0} speed-up).",
                SAMPLING_SERIES.len()
            );
        } else {
            let _ = writeln!(
                foot,
                "No detailed simulation ran this invocation — every merged\n\
                 interval came from the warm store."
            );
        }
        timing = Some(foot);
    }

    Figure {
        id: "sampling",
        title: "Sampled simulation at the paper's operating point (DESIGN.md §7)".into(),
        body,
        timing,
    }
}

/// Scaling sweep beyond the paper's two-cluster machine: homogeneous
/// N ∈ {2, 4, 8} plus the `hetero4` preset (the paper pair flanked by
/// two narrow satellites on a line topology).
///
/// Deliberately *not* part of [`all`]: the default `figures` run
/// reproduces the paper's two-cluster evaluation, and this sweep
/// multiplies the run-set by 4 machines × 3 schemes. It is its own
/// artefact (`figures nclusters`), exercised by the CI `nclusters`
/// smoke job.
pub fn nclusters(lab: &mut Lab) -> Figure {
    let machines: [(&str, Machine); 4] = [
        ("homo2", Machine::NClusters(2)),
        ("homo4", Machine::NClusters(4)),
        ("homo8", Machine::NClusters(8)),
        ("hetero4", Machine::Hetero4),
    ];
    let schemes: [(&str, SchemeKind); 3] = [
        ("modulo", SchemeKind::Modulo),
        ("balance", SchemeKind::GeneralBalance),
        ("fifo", SchemeKind::Fifo),
    ];
    let mut runs: Vec<(&str, Machine, SchemeKind)> = Vec::new();
    for &bench in &NAMES {
        for &(_, m) in &machines {
            for &(_, s) in &schemes {
                runs.push((bench, m, s));
            }
        }
    }
    lab.ensure(&runs);

    let mut body = String::new();
    let _ = writeln!(
        body,
        "IPC scaling as clusters are added while the paper's Table 2 front\n\
         end is held fixed. `homoN` is N copies of the paper's cluster on a\n\
         line topology; `hetero4` flanks the paper pair with two narrow\n\
         satellites. Speed-ups are % over the two-cluster machine under the\n\
         *same* scheme, so each column isolates what the extra clusters buy\n\
         (or cost, once communication outweighs the added issue slots).\n"
    );

    // Per-benchmark detail under the balance scheme.
    let mut headers = vec!["benchmark".to_string(), "homo2 IPC".to_string()];
    headers.extend(machines.iter().skip(1).map(|&(l, _)| format!("{l} (%)")));
    let mut t = Table::new(&headers.iter().map(String::as_str).collect::<Vec<_>>());
    for &bench in &NAMES {
        let base = lab.stats(bench, machines[0].1, SchemeKind::GeneralBalance);
        let mut row = vec![bench.to_string(), format!("{:.3}", base.ipc())];
        for &(_, m) in machines.iter().skip(1) {
            let s = lab.stats(bench, m, SchemeKind::GeneralBalance);
            row.push(format!("{:.1}", s.speedup_over(&base)));
        }
        t.row(&row);
    }
    let _ = writeln!(body, "Per benchmark, balance scheme:\n\n{}", t.to_markdown());

    // Scheme × machine summary: suite H-mean speed-up over homo2 under
    // the same scheme, plus communications per instruction.
    let mut headers = vec!["scheme".to_string()];
    headers.extend(machines.iter().skip(1).map(|&(l, _)| format!("{l} (%)")));
    headers.push("homo2 comm/i".into());
    headers.push("homo8 comm/i".into());
    let mut summary = Table::new(&headers.iter().map(String::as_str).collect::<Vec<_>>());
    let mut bars = Vec::new();
    for &(label, scheme) in &schemes {
        let mut row = vec![label.to_string()];
        for &(mlabel, m) in machines.iter().skip(1) {
            let sps: Vec<f64> = NAMES
                .iter()
                .map(|&bench| {
                    let base = lab.stats(bench, machines[0].1, scheme);
                    lab.stats(bench, m, scheme).speedup_over(&base)
                })
                .collect();
            let mean = Mean::Harmonic.of_percents(&sps);
            row.push(format!("{mean:.1}"));
            if scheme == SchemeKind::GeneralBalance {
                bars.push((mlabel.to_string(), mean));
            }
        }
        for &m in &[machines[0].1, machines[2].1] {
            let mean: f64 = NAMES
                .iter()
                .map(|&bench| lab.stats(bench, m, scheme).comms_per_inst())
                .sum::<f64>()
                / NAMES.len() as f64;
            row.push(format!("{mean:.3}"));
        }
        summary.row(&row);
    }
    let _ = writeln!(
        body,
        "Suite H-mean speed-up over homo2, same scheme:\n\n{}",
        summary.to_markdown()
    );
    let _ = writeln!(
        body,
        "```\nbalance H-mean over homo2:\n{}```",
        ascii_bars(&bars, 40)
    );

    Figure {
        id: "nclusters",
        title: "Cluster-count scaling beyond the paper's two-cluster machine".into(),
        body,
        timing: None,
    }
}

/// A figure generator.
pub type Render = fn(&mut Lab) -> Figure;

/// Every artefact `dca figures` regenerates, by id, in paper order:
/// the one list of figure ids. [`all`] renders every entry but
/// `nclusters` (see [`nclusters`] for why).
pub const FIGURES: [(&str, Render); 24] = [
    ("table1", table1),
    ("table2", table2),
    ("fig03", fig03),
    ("fig04", fig04),
    ("fig05", fig05),
    ("fig06", fig06),
    ("fig07", fig07),
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("ablate_buses", ablate_buses),
    ("ablate_imbalance", ablate_imbalance),
    ("ablate_threshold", ablate_threshold),
    ("ablate_copy_latency", ablate_copy_latency),
    ("ablate_issue_width", ablate_issue_width),
    ("ablate_window", ablate_window),
    ("ablate_rf_ports", ablate_rf_ports),
    ("sampling", sampling),
    ("nclusters", nclusters),
];

/// Looks up a figure generator by its artefact id.
pub fn by_name(name: &str) -> Option<Render> {
    FIGURES.iter().find(|&&(id, _)| id == name).map(|&(_, render)| render)
}

/// The ids [`all`] renders, in paper order.
pub fn all_ids() -> impl Iterator<Item = &'static str> {
    FIGURES.iter().map(|&(id, _)| id).filter(|&id| id != "nclusters")
}

/// Every paper artefact in paper order.
pub fn all(lab: &mut Lab) -> Vec<Figure> {
    all_ids()
        .map(|id| by_name(id).expect("listed in FIGURES")(lab))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunOpts;
    use dca_workloads::Scale;

    fn tiny_lab() -> Lab {
        Lab::new(RunOpts {
            scale: Scale::Smoke,
            max_insts: 25_000,
            sampling: None,
            ..RunOpts::default()
        })
    }

    #[test]
    fn table2_reflects_config() {
        let f = table2(&mut tiny_lab());
        assert!(f.body.contains("64KB"));
        assert!(f.body.contains("96 + 96"));
        assert!(f.body.contains("3 intALU"));
    }

    #[test]
    fn fig03_runs_on_two_benchmarks_worth_of_cache() {
        // Smoke-level integration: one speed-up figure end to end on a
        // reduced bench list via the internal helper.
        let mut lab = tiny_lab();
        let fig = speedup_figure(
            &mut lab,
            "fig03",
            "test",
            &[
                ("Static", Machine::Clustered, SchemeKind::StaticLdSt),
                ("LdSt slice", Machine::Clustered, SchemeKind::LdStSlice),
            ],
            &["compress", "li"],
            Mean::Geometric,
        );
        assert!(fig.body.contains("compress"));
        assert!(fig.body.contains("G-mean"));
        // 2 benchmarks x (2 schemes + base) = 6 runs
        assert_eq!(lab.runs(), 6);
    }

    #[test]
    fn balance_figure_percentages_are_finite() {
        let mut lab = tiny_lab();
        let fig = balance_figure(
            &mut lab,
            "fig06",
            "test",
            &[("Modulo", Machine::Clustered, SchemeKind::Modulo)],
            &["compress"],
        );
        assert!(fig.body.contains("Modulo"));
        assert!(!fig.body.contains("NaN"));
    }

    #[test]
    fn figure_saves_to_disk() {
        let dir = std::env::temp_dir().join("dca-bench-test");
        let f = Figure {
            id: "table2",
            title: "t".into(),
            body: "b".into(),
            timing: Some("wall clock".into()),
        };
        let p = f.save(&dir).unwrap();
        assert!(p.exists());
        let t = dir.join("table2.timing");
        assert_eq!(std::fs::read_to_string(&t).unwrap(), "wall clock");
        std::fs::remove_file(p).ok();
        std::fs::remove_file(t).ok();
    }

    /// ISSUE 2: `results/*.md` must not depend on map iteration order
    /// or thread scheduling — two invocations of the same figure (each
    /// with a fresh lab, exercising the parallel ensure + cache merge)
    /// must produce byte-identical artefacts.
    #[test]
    fn figures_are_byte_identical_across_invocations() {
        let render = || {
            let mut lab = tiny_lab();
            let f = comm_figure(
                &mut lab,
                "fig05",
                "test",
                &[
                    ("LdSt slice", Machine::Clustered, SchemeKind::LdStSlice),
                    ("Br slice", Machine::Clustered, SchemeKind::BrSlice),
                ],
                &["compress", "li"],
                true,
            );
            format!("# {}\n\n{}", f.title, f.body)
        };
        assert_eq!(render(), render(), "comm figure must render identically");

        // ISSUE 3: the whole sampling report body is byte-identical —
        // the wall-clock rate lines moved to the `.timing` footer, so
        // no filtering is needed any more.
        let render_sampled = || {
            let mut lab = Lab::new(RunOpts {
                scale: Scale::Smoke,
                max_insts: 40_000,
                sampling: Some(crate::SampleOpts {
                    period: 10_000,
                    warmup: 1_000,
                    interval: 2_000,
                    target_stderr: None,
                    warming: crate::Warming::Continuous,
                }),
                ..RunOpts::default()
            });
            let f = sampling(&mut lab);
            assert!(f.body.contains("Clustered / general bal."));
            assert!(
                f.timing.as_deref().is_some_and(|t| t.contains("insts/sec")),
                "wall-clock rates live in the timing footer"
            );
            assert!(
                !f.body.contains("insts/sec"),
                "no wall-clock rates in the report body"
            );
            format!("# {}\n\n{}", f.title, f.body)
        };
        assert_eq!(
            render_sampled(),
            render_sampled(),
            "sampling report must render identically, whole body"
        );
    }

    /// The one figure outside `Lab::ensure` still accounts for its
    /// work: a served job re-running it is never reported warm.
    #[test]
    fn ablate_threshold_counts_its_direct_runs() {
        let mut lab = tiny_lab();
        let _ = ablate_threshold(&mut lab);
        let work = lab.work();
        assert_eq!(work.straight_runs, NAMES.len() as u64);
        assert!(!work.is_warm());
    }

    #[test]
    fn mean_of_percents_matches_paper_arithmetic() {
        // A 36% mean speed-up corresponds to ratios of 1.36.
        let m = Mean::Harmonic.of_percents(&[36.0, 36.0]);
        assert!((m - 36.0).abs() < 1e-9);
        let g = Mean::Geometric.of_percents(&[0.0, 0.0]);
        assert!(g.abs() < 1e-9);
    }
}
