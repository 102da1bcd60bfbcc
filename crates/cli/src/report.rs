//! Human-readable reports assembled from library results.

use dca_prog::{br_slice, ldst_slice, Program, Rdg};
use dca_sim::SimStats;

/// One-run summary: the counters a SimpleScalar user expects, grouped.
pub fn run_report(name: &str, machine: &str, scheme: &str, s: &SimStats) -> String {
    let mut out = String::new();
    let p = |out: &mut String, k: &str, v: String| {
        out.push_str(&format!("  {k:<26} {v}\n"));
    };
    out.push_str(&format!("== {name} on {machine} under {scheme} ==\n"));
    p(&mut out, "cycles", s.cycles.to_string());
    p(&mut out, "instructions committed", s.committed.to_string());
    p(&mut out, "IPC", format!("{:.3}", s.ipc()));
    p(
        &mut out,
        "uops committed (w/ copies)",
        s.committed_uops.to_string(),
    );
    p(
        &mut out,
        "copies (critical)",
        format!("{} ({})", s.copies, s.critical_copies),
    );
    p(
        &mut out,
        "comms / instruction",
        format!("{:.4}", s.comms_per_inst()),
    );
    // SimStats does not record the cluster count, so render every
    // cluster that saw an instruction (at least the two the paper
    // machine always has — keeping the two-cluster line byte-stable,
    // which the warm-store identity checks rely on).
    let live = s.steered.iter().rposition(|&x| x != 0).map_or(2, |i| (i + 1).max(2));
    if live == 2 {
        p(
            &mut out,
            "steered INT / FP",
            format!("{} / {}", s.steered[0], s.steered[1]),
        );
    } else {
        let per: Vec<String> = s.steered[..live].iter().map(u64::to_string).collect();
        p(&mut out, "steered per cluster", per.join(" / "));
    }
    p(
        &mut out,
        "avg replicated registers",
        format!("{:.2}", s.avg_replication()),
    );
    p(
        &mut out,
        "loads / stores",
        format!("{} / {}", s.loads, s.stores),
    );
    p(
        &mut out,
        "branches (mispredicted)",
        format!("{} ({})", s.branches, s.mispredicts),
    );
    p(
        &mut out,
        "branch accuracy",
        format!("{:.1}%", s.bpred.accuracy() * 100.0),
    );
    p(
        &mut out,
        "L1I / L1D / L2 miss",
        format!(
            "{:.2}% / {:.2}% / {:.2}%",
            s.l1i.miss_ratio() * 100.0,
            s.l1d.miss_ratio() * 100.0,
            s.l2.miss_ratio() * 100.0
        ),
    );
    p(
        &mut out,
        "dispatch stall cycles",
        format!(
            "{} ({:.1}%)",
            s.dispatch_stall_cycles,
            s.dispatch_stall_cycles as f64 * 100.0 / s.cycles.max(1) as f64
        ),
    );
    out
}

/// Static slice report for a program (Figure 2 style).
pub fn slice_report(name: &str, prog: &Program) -> String {
    let rdg = Rdg::build(prog);
    let ldst = ldst_slice(prog, &rdg);
    let br = br_slice(prog, &rdg);
    let mut out = format!(
        "== static slices of {name} ({} static instructions) ==\n\
         LdSt slice: {} instructions; Br slice: {} instructions\n\n\
         sidx  inst                               LdSt  Br\n\
         ----  ---------------------------------  ----  --\n",
        prog.len(),
        ldst.inst_count(),
        br.inst_count()
    );
    for si in prog.static_insts() {
        out.push_str(&format!(
            "{:4}  {:33}  {:^4}  {:^2}\n",
            si.sidx,
            si.inst.to_string(),
            if ldst.contains_sidx(si.sidx) { "x" } else { "" },
            if br.contains_sidx(si.sidx) { "x" } else { "" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_prog::parse_asm;

    #[test]
    fn run_report_contains_key_counters() {
        let s = SimStats {
            cycles: 100,
            committed: 250,
            committed_uops: 260,
            copies: 10,
            ..SimStats::default()
        };
        let r = run_report("li", "Clustered", "General bal.", &s);
        assert!(r.contains("li on Clustered under General bal."));
        assert!(r.contains("2.500"), "IPC rendered");
        assert!(r.contains("10 (0)"), "copies rendered");
    }

    #[test]
    fn slice_report_marks_members() {
        let p = parse_asm(
            "e:
                li r1, #4096
                ld r2, 0(r1)
                add r3, r2, r2
                beq r3, r0, e
                halt",
        )
        .unwrap();
        let r = slice_report("t", &p);
        assert!(r.contains("LdSt slice: 2 instructions"));
        // The load (access half) and the add feed the branch.
        assert!(r.contains("Br slice: 3 instructions"));
    }
}
