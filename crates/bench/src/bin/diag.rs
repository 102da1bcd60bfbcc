//! Diagnostic dump: per-benchmark pipeline statistics for the base,
//! clustered (general balance) and upper-bound machines — used to
//! understand where cycles go when calibrating the workloads.

use dca_bench::{Lab, Machine, RunOpts, SchemeKind};
use dca_stats::Table;

fn main() {
    let opts = match RunOpts::parse(std::env::args().skip(1)) {
        Ok((opts, _)) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let mut lab = Lab::new(opts);
    let mut t = Table::new(&[
        "bench",
        "machine",
        "IPC",
        "cycles",
        "insts",
        "mispred%",
        "L1D miss%",
        "L1I miss%",
        "comms/i",
        "crit/i",
        "disp-stall%",
        "steered I/F",
        "repl",
    ]);
    for bench in dca_workloads::NAMES {
        for (label, machine, scheme) in [
            ("base", Machine::Base, SchemeKind::Naive),
            ("general", Machine::Clustered, SchemeKind::GeneralBalance),
            ("ub", Machine::UpperBound, SchemeKind::Naive),
        ] {
            let s = lab.stats(bench, machine, scheme);
            t.row(&[
                bench.to_string(),
                label.to_string(),
                format!("{:.3}", s.ipc()),
                s.cycles.to_string(),
                s.committed.to_string(),
                format!("{:.1}", s.mispredict_ratio() * 100.0),
                format!("{:.1}", s.l1d.miss_ratio() * 100.0),
                format!("{:.1}", s.l1i.miss_ratio() * 100.0),
                format!("{:.3}", s.comms_per_inst()),
                format!("{:.3}", s.critical_comms_per_inst()),
                format!("{:.1}", s.dispatch_stall_cycles as f64 * 100.0 / s.cycles as f64),
                format!("{}/{}", s.steered[0] * 100 / s.committed.max(1), s.steered[1] * 100 / s.committed.max(1)),
                format!("{:.1}", s.avg_replication()),
            ]);
        }
    }
    println!("{}", t.to_aligned());
}
