//! End-to-end tests of the `dca` binary: each subcommand, plus the
//! error paths a user will actually hit.

use std::path::Path;
use std::process::{Command, Output, Stdio};

fn dca(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dca"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

/// The value of counter `name` in a Prometheus exposition.
fn counter(prom: &str, name: &str) -> u64 {
    prom.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("{name} missing:\n{prom}"))
}

/// A small sampled `figures <figure>` run against `store`: big enough
/// to persist checkpoint and result shards, small enough for seconds.
fn small_sampling_args(figure: &str, store: &Path) -> Vec<String> {
    let mut args: Vec<String> = [
        "figures",
        figure,
        "--scale",
        "smoke",
        "--max-insts",
        "40000",
        "--sample-period",
        "10000",
        "--sample-warmup",
        "1000",
        "--sample-interval",
        "2000",
        "--store-dir",
    ]
    .map(String::from)
    .to_vec();
    args.push(store.to_str().unwrap().to_string());
    args
}

#[test]
fn list_names_everything() {
    let o = dca(&["list"]);
    assert!(o.status.success());
    let s = stdout(&o);
    for b in dca_workloads::NAMES {
        assert!(s.contains(b), "missing benchmark {b}");
    }
    for scheme in ["naive", "modulo", "general", "fifo", "ldst-slicebal"] {
        assert!(s.contains(scheme), "missing scheme {scheme}");
    }
}

#[test]
fn run_benchmark_prints_counters() {
    let o = dca(&["run", "--bench", "li", "--scheme", "general", "--scale", "smoke"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let s = stdout(&o);
    assert!(s.contains("li on Clustered under General bal."));
    assert!(s.contains("IPC"));
    assert!(s.contains("copies (critical)"));
}

#[test]
fn run_asm_with_trace_and_pipe() {
    let dir = std::env::temp_dir().join("dca-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("kernel.s");
    std::fs::write(
        &path,
        "e:\n li r1, #3\nl:\n add r2, r2, #1\n add r1, r1, #-1\n bne r1, r0, l\n halt\n",
    )
    .unwrap();
    let o = dca(&[
        "run",
        "--asm",
        path.to_str().unwrap(),
        "--scheme",
        "modulo",
        "--trace",
        "8",
        "--pipe",
        "0:48",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let s = stdout(&o);
    assert!(s.contains("uop"), "trace table rendered");
    assert!(s.contains("cycle 0..48"), "pipe diagram rendered");
}

#[test]
fn run_kernel_by_name() {
    let o = dca(&["run", "--kernel", "serial-chain", "--scheme", "modulo"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let s = stdout(&o);
    assert!(s.contains("serial-chain on Clustered under Modulo"));
    // Modulo on a serial chain must communicate heavily.
    assert!(s.contains("comms / instruction"));
    let bad = dca(&["run", "--kernel", "nosuch"]);
    assert!(!bad.status.success());
    assert!(stderr(&bad).contains("unknown kernel"));
    let both = dca(&["run", "--kernel", "branchy", "--bench", "li"]);
    assert!(!both.status.success());
    assert!(stderr(&both).contains("mutually exclusive"));
}

#[test]
fn compare_prints_speedup_table() {
    let o = dca(&[
        "compare",
        "--bench",
        "compress",
        "--schemes",
        "modulo,general",
        "--scale",
        "smoke",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let s = stdout(&o);
    assert!(s.contains("Modulo"));
    assert!(s.contains("General bal."));
    assert!(s.contains("compress"));
}

/// `dca compare` ensures its whole run-set (base plus every scheme,
/// every benchmark) in one batch. Sampled, it must print the table
/// and do the work of the one-combination-at-a-time order.
#[test]
fn batched_compare_matches_the_per_combination_order() {
    use dca_bench::{Lab, Machine, RunOpts, SchemeKind};
    let dir = std::env::temp_dir().join("dca-cli-compare-batch");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.prom");
    let sampled = [
        "--scale",
        "smoke",
        "--sample-period",
        "20000",
        "--sample-interval",
        "5000",
        "--no-store",
    ];
    let mut args = vec!["compare", "--bench", "all", "--schemes", "general,static", "-q"];
    args.extend(sampled);
    args.extend(["--metrics-out", metrics.to_str().unwrap()]);
    let o = dca(&args);
    assert!(o.status.success(), "{}", stderr(&o));

    // The per-combination order: one `Lab::speedup` per cell.
    let (opts, _) = RunOpts::parse(sampled.map(String::from)).unwrap();
    let mut lab = Lab::new(opts);
    let mut headers = vec!["scheme"];
    headers.extend(dca_workloads::NAMES);
    headers.push("H-mean");
    let mut t = dca_stats::Table::new(&headers);
    for s in [SchemeKind::GeneralBalance, SchemeKind::StaticLdSt] {
        let mut row = vec![s.label().to_string()];
        let mut ratios = Vec::new();
        for b in dca_workloads::NAMES {
            let sp = lab.speedup(b, Machine::Clustered, s);
            ratios.push(1.0 + sp / 100.0);
            row.push(format!("{sp:.1}"));
        }
        row.push(format!("{:.1}", (dca_stats::harmonic_mean(&ratios) - 1.0) * 100.0));
        t.row(&row);
    }
    assert_eq!(
        stdout(&o),
        format!(
            "Speed-up (%) over the base machine, clustered machine runs\n\n{}\n",
            t.to_aligned()
        )
    );

    let prom = std::fs::read_to_string(&metrics).expect("metrics written");
    let work = lab.work();
    assert!(work.intervals_computed > 0);
    assert_eq!(counter(&prom, "dca_intervals_computed_total"), work.intervals_computed);
    assert_eq!(counter(&prom, "dca_ff_insts_total"), work.ff_insts);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slices_reports_both_slices() {
    let o = dca(&["slices", "--bench", "compress", "--scale", "smoke"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let s = stdout(&o);
    assert!(s.contains("LdSt slice:"));
    assert!(s.contains("Br slice:"));
}

#[test]
fn error_paths_fail_with_diagnostics() {
    let cases: &[(&[&str], &str)] = &[
        (&["run", "--bench", "nosuch", "--scale", "smoke"], "unknown benchmark"),
        (&["run", "--bench", "li", "--scheme", "nosuch"], "unknown scheme"),
        (&["run"], "need --bench NAME, --kernel NAME or --asm FILE"),
        (
            &["run", "--bench", "li", "--asm", "x.s"],
            "mutually exclusive",
        ),
        (
            &["run", "--bench", "li", "--pipe", "0:9", "--scale", "smoke"],
            "--pipe needs --trace",
        ),
        (&["nosuch"], "unknown command"),
        (
            &["run", "--bench", "li", "--machine", "warp", "--scale", "smoke"],
            "unknown machine",
        ),
        // Malformed option values and unknown figure ids are clean
        // errors too, not panics.
        (&["figures", "nope"], "unknown figure `nope`"),
        (&["run", "--bench", "li", "--scale", "huge"], "--scale: unknown scale `huge`"),
        (&["compare", "--max-insts", "lots"], "--max-insts needs a number"),
        (&["figures", "sampling", "--sample-period", "0"], "--sample-period must be non-zero"),
        (&["run", "--bench", "li", "--machine", "homo9", "--scale", "smoke"], "cluster count 9 outside 2..=8"),
        (&["run", "--bench", "li", "--machine", "homo1", "--scale", "smoke"], "cluster count 1 outside 2..=8"),
        (
            &["run", "--bench", "li", "--machine", "base", "--geometry", "hetero4", "--scale", "smoke"],
            "--geometry hetero4: cluster 1 has integer units",
        ),
        (&["run", "--bench", "li", "--clusters", "4", "--scale", "smoke"], "unrecognised arguments"),
        (
            &["run", "--bench", "li", "--machine", "ub", "--geometry", "hetero4", "--scale", "smoke"],
            "--geometry hetero4: the upper-bound machine is one unified cluster",
        ),
    ];
    for (args, needle) in cases {
        let o = dca(args);
        assert_eq!(o.status.code(), Some(1), "{args:?} must exit 1: {}", stderr(&o));
        assert!(!stderr(&o).contains("panicked"), "{args:?} panicked: {}", stderr(&o));
        assert!(
            stderr(&o).contains(needle),
            "{args:?}: stderr {:?} missing {needle:?}",
            stderr(&o)
        );
    }
}

#[test]
fn help_exits_cleanly() {
    let o = dca(&["--help"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("USAGE"));
}

#[test]
fn figures_subcommand_writes_artefacts() {
    let dir = std::env::temp_dir().join("dca-cli-figures");
    std::fs::create_dir_all(&dir).unwrap();
    let o = Command::new(env!("CARGO_BIN_EXE_dca"))
        .args(["figures", "table2", "--scale", "smoke"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(o.status.success(), "{}", stderr(&o));
    let written = dir.join("results").join("table2.md");
    assert!(written.exists(), "artefact written to results/");
    let body = std::fs::read_to_string(written).unwrap();
    assert!(body.contains("Fetch width"), "Table 2 content present");
}

/// The observability acceptance criteria in one end-to-end pass: the
/// same sampled figures run with and without `--trace-out` /
/// `--metrics-out` produces byte-identical reports; the trace is valid
/// Chrome trace-event JSON with spans from all five layers (Lab
/// worker, fast-forward, interval simulation, scheme setup, store
/// I/O); the metrics
/// file is a Prometheus exposition; and the run manifest stamps the
/// invocation.
#[test]
fn observability_artefacts_leave_reports_byte_identical() {
    use dca_obs::json::Json;

    let base = std::env::temp_dir().join("dca-cli-obs");
    std::fs::remove_dir_all(&base).ok();

    // Plain run: no observability flags.
    let plain = base.join("plain");
    std::fs::create_dir_all(&plain).unwrap();
    let o = Command::new(env!("CARGO_BIN_EXE_dca"))
        .args(small_sampling_args("sampling", &plain.join("store")))
        .current_dir(&plain)
        .output()
        .expect("binary runs");
    assert!(o.status.success(), "{}", stderr(&o));

    // Instrumented run: spans + metrics on, everything else equal.
    let traced = base.join("traced");
    std::fs::create_dir_all(&traced).unwrap();
    let mut args = small_sampling_args("sampling", &traced.join("store"));
    args.extend(
        ["--trace-out", "obs/trace.json", "--metrics-out", "obs/metrics.prom"]
            .map(String::from),
    );
    let o = Command::new(env!("CARGO_BIN_EXE_dca"))
        .args(&args)
        .current_dir(&traced)
        .output()
        .expect("binary runs");
    assert!(o.status.success(), "{}", stderr(&o));

    // Report bytes are identical with tracing on vs off.
    let report = |d: &std::path::Path| {
        std::fs::read(d.join("results").join("sampling.md")).expect("report written")
    };
    assert_eq!(
        report(&plain),
        report(&traced),
        "tracing/metrics must not perturb report bytes"
    );

    // The trace parses as Chrome trace-event JSON and carries spans
    // from every instrumented layer.
    let trace =
        std::fs::read_to_string(traced.join("obs").join("trace.json")).expect("trace written");
    let doc = dca_obs::json::parse(&trace).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "spans recorded");
    for (i, e) in events.iter().enumerate() {
        let name = e.get("name").and_then(Json::as_str);
        assert!(name.is_some_and(|n| !n.is_empty()), "event {i} has no name");
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"), "event {i} is not ph:X");
        for field in ["ts", "dur"] {
            assert!(
                e.get(field).and_then(Json::as_f64).is_some(),
                "event {i} lacks numeric {field}"
            );
        }
    }
    for want in ["lab", "prog", "sim", "steer", "store"] {
        assert!(
            events.iter().any(|e| {
                e.get("cat").and_then(Json::as_str) == Some(want)
                    && e.get("ph").and_then(Json::as_str) == Some("X")
            }),
            "no `{want}` span in trace"
        );
    }
    // Each benchmark's fast-forward is a task of the interval pool
    // with its own span; the serial phase span is gone.
    let named = |name: &str| {
        events.iter().any(|e| e.get("name").and_then(Json::as_str) == Some(name))
    };
    assert!(named("lab.fast_forward"), "no `lab.fast_forward` span");
    assert!(!named("lab.fast_forward_phase"), "the fast-forward phase no longer exists");
    // Scheme setup (the static analysis of §3.3) is its own span.
    assert!(
        events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("steer.instantiate")
                && e.get("args")
                    .and_then(|a| a.get("scheme"))
                    .and_then(Json::as_str)
                    .is_some()
        }),
        "no `steer.instantiate` span tagged with its scheme"
    );

    // The metrics file is a Prometheus text exposition with the core
    // session counters.
    let prom = std::fs::read_to_string(traced.join("obs").join("metrics.prom"))
        .expect("metrics written");
    for needle in [
        "# TYPE dca_intervals_computed_total counter",
        "# TYPE dca_store_reads_total counter",
        "dca_store_writes_total",
        "# TYPE dca_interval_ns histogram",
        "dca_interval_ns_bucket",
        "dca_lab_workers",
    ] {
        assert!(prom.contains(needle), "metrics missing {needle}:\n{prom}");
    }

    // The run manifest stamps the invocation.
    let manifest = std::fs::read_to_string(traced.join("results").join("run_manifest.json"))
        .expect("manifest written");
    let doc = dca_obs::json::parse(&manifest).expect("manifest is valid JSON");
    assert_eq!(doc.get("command").and_then(Json::as_str), Some("figures"));
    for key in ["interp_version", "timing_version", "format_version"] {
        assert!(doc.get(key).and_then(Json::as_u64).is_some(), "missing {key}");
    }
    assert!(
        doc.get("workload_fingerprints")
            .and_then(|f| f.get("compress"))
            .and_then(Json::as_str)
            .is_some(),
        "workload fingerprint stamped"
    );
    assert!(
        doc.get("counters")
            .and_then(|c| c.get("intervals_computed_total"))
            .and_then(Json::as_u64)
            .is_some_and(|v| v > 0),
        "metrics snapshot embedded"
    );

    // `-q` silences progress lines entirely (warnings excepted).
    let o = Command::new(env!("CARGO_BIN_EXE_dca"))
        .args(["figures", "table2", "--scale", "smoke", "-q"])
        .current_dir(&plain)
        .output()
        .expect("binary runs");
    assert!(o.status.success());
    assert_eq!(stderr(&o), "", "quiet run must not print progress");

    std::fs::remove_dir_all(&base).ok();
}

/// Four real processes race on one cold `--store-dir`. The shard
/// locks elect one writer per shard: exactly one process fast-forwards
/// and the others are served from the store. Every report is
/// byte-identical to a single-process reference, and the shared store
/// verifies clean with no lock left behind.
#[test]
fn concurrent_processes_share_one_store() {
    const PROCS: usize = 4;
    let dir = std::env::temp_dir().join(format!("dca-cli-stress-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let run_in = |wd: &Path, store: &Path| {
        std::fs::create_dir_all(wd).unwrap();
        Command::new(env!("CARGO_BIN_EXE_dca"))
            .args(small_sampling_args("sampling", store))
            .args(["-q", "--metrics-out"])
            .arg(wd.join("metrics.prom"))
            .current_dir(wd)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs")
    };
    let report = |wd: &Path| std::fs::read(wd.join("results").join("sampling.md")).unwrap();

    let reference = dir.join("ref");
    let o = run_in(&reference, &dir.join("ref-store")).wait_with_output().unwrap();
    assert!(o.status.success(), "{}", stderr(&o));

    let store = dir.join("shared-store");
    let workers: Vec<_> = (0..PROCS).map(|i| dir.join(format!("w{i}"))).collect();
    let children: Vec<_> = workers.iter().map(|wd| run_in(wd, &store)).collect();
    for child in children {
        let o = child.wait_with_output().unwrap();
        assert!(o.status.success(), "a concurrent worker failed: {}", stderr(&o));
    }
    let mut fast_forwarded = 0;
    for wd in &workers {
        assert!(report(wd) == report(&reference), "{wd:?}: report differs from the reference");
        let prom = std::fs::read_to_string(wd.join("metrics.prom")).expect("metrics written");
        fast_forwarded += usize::from(counter(&prom, "dca_ff_insts_total") > 0);
    }
    assert_eq!(fast_forwarded, 1, "exactly one process fast-forwards the shared shard");

    let o = dca(&["store", "verify", "--store-dir", store.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(0), "{}", stdout(&o));
    for sub in ["ck", "rs"] {
        let n = std::fs::read_dir(store.join(sub)).unwrap().count();
        assert!(n > 0, "{sub}/ is empty");
    }
    let locks: Vec<_> = std::fs::read_dir(store.join("locks"))
        .map(|d| d.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    assert!(
        !locks.iter().any(|p| p.extension().is_some_and(|x| x == "lock")),
        "shard locks left behind: {locks:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `figures ablate_imbalance` goes through the Lab like every sweep: a
/// second invocation on the same store simulates nothing and writes
/// the same report.
#[test]
fn warm_ablate_imbalance_simulates_nothing() {
    let dir = std::env::temp_dir().join(format!("dca-cli-imbalance-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = dir.join("store");
    let run = |wd: &Path| {
        std::fs::create_dir_all(wd).unwrap();
        let o = Command::new(env!("CARGO_BIN_EXE_dca"))
            .args(small_sampling_args("ablate_imbalance", &store))
            .args(["-q", "--metrics-out"])
            .arg(wd.join("metrics.prom"))
            .current_dir(wd)
            .output()
            .expect("binary runs");
        assert!(o.status.success(), "{}", stderr(&o));
        let prom = std::fs::read_to_string(wd.join("metrics.prom")).expect("metrics written");
        let report = std::fs::read(wd.join("results").join("ablate_imbalance.md")).unwrap();
        (prom, report)
    };
    let (cold_prom, cold) = run(&dir.join("cold"));
    assert!(counter(&cold_prom, "dca_detailed_insts_total") > 0);
    let (warm_prom, warm) = run(&dir.join("warm"));
    assert_eq!(counter(&warm_prom, "dca_detailed_insts_total"), 0, "warm run simulated");
    assert_eq!(counter(&warm_prom, "dca_ff_insts_total"), 0, "warm run fast-forwarded");
    assert!(warm == cold, "warm report differs from the cold one");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_lifecycle_stat_verify_gc() {
    let dir = std::env::temp_dir().join("dca-cli-store");
    std::fs::remove_dir_all(&dir).ok();
    let store_dir = dir.join("store");
    std::fs::create_dir_all(&dir).unwrap();
    let store_arg = store_dir.to_str().unwrap();

    // Empty store: stat works, verify reports empty.
    let o = dca(&["store", "stat", "--store-dir", store_arg]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("checkpoint shards"));
    let o = dca(&["store", "verify", "--store-dir", store_arg]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("empty"));

    // A sampled figures run fills the store.
    let o = Command::new(env!("CARGO_BIN_EXE_dca"))
        .args(small_sampling_args("sampling", &store_dir))
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(o.status.success(), "{}", stderr(&o));

    let o = dca(&["store", "verify", "--store-dir", store_arg]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("ck_compress_smoke"), "{}", stdout(&o));

    // Corrupt one shard (the v3 layout keeps results under rs/):
    // verify fails with exit 1 and reports *every* shard — no
    // first-bad bail — then gc heals and verify passes again.
    let victim = std::fs::read_dir(store_dir.join("rs"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "dcr"))
        .expect("result shard persisted");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x55;
    std::fs::write(&victim, bytes).unwrap();
    let o = dca(&["store", "verify", "--store-dir", store_arg]);
    assert_eq!(o.status.code(), Some(1), "corrupt shard exits 1");
    assert!(stdout(&o).contains("corrupt"));
    assert!(
        stdout(&o).contains("ck_compress_smoke"),
        "full sweep still lists the healthy shards: {}",
        stdout(&o)
    );
    let o = dca(&["store", "gc", "--store-dir", store_arg]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("removed 1"));
    let o = dca(&["store", "verify", "--store-dir", store_arg]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));

    // An unreadable entry (a directory posing as a shard) is an I/O
    // error: exit 2, and gc leaves it alone (removal could lose data).
    let imposter = store_dir.join("rs").join("imposter.dcr");
    std::fs::create_dir_all(&imposter).unwrap();
    let o = dca(&["store", "verify", "--store-dir", store_arg]);
    assert_eq!(o.status.code(), Some(2), "I/O error exits 2");
    assert!(stdout(&o).contains("io-error"));
    std::fs::remove_dir_all(&imposter).unwrap();

    // gc is the one cleanup verb: it reaps an orphaned temp, a
    // dead-owner lock, a damaged shard and a file an older store
    // format left in the root, and keeps every healthy shard.
    let temp = store_dir.join("ck").join(".tmp-999999999-0-ck_orphan.dcc");
    std::fs::write(&temp, b"half-written").unwrap();
    let locks = store_dir.join("locks");
    std::fs::create_dir_all(&locks).unwrap();
    let dead_lock = locks.join("ck_orphan.dcc.lock");
    std::fs::write(&dead_lock, b"DCALOCK1 pid=999999999 ts=0 seq=0\n").unwrap();
    let victim = std::fs::read_dir(store_dir.join("rs"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "dcr"))
        .expect("another result shard persisted");
    let mut bytes = std::fs::read(&victim).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x55;
    std::fs::write(&victim, bytes).unwrap();
    let mut v2 = b"DCASTORE".to_vec();
    for word in [2u32, 1, 0, 0] {
        v2.extend_from_slice(&word.to_le_bytes());
    }
    v2.extend_from_slice(&[0; 8]);
    let flat = store_dir.join("ck_old_smoke_p1_m2.dcc");
    std::fs::write(&flat, &v2).unwrap();
    let o = dca(&["store", "stat", "--store-dir", store_arg]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(
        stdout(&o).contains("stale shard locks:  1 (run `dca store gc`)"),
        "{}",
        stdout(&o)
    );
    let o = dca(&["store", "verify", "--store-dir", store_arg]);
    assert_eq!(o.status.code(), Some(1), "damaged and stale files exit 1");
    assert!(
        stdout(&o).contains("stale    ck_old_smoke_p1_m2.dcc (container format version 2, current 3)"),
        "{}",
        stdout(&o)
    );
    let o = dca(&["store", "gc", "--store-dir", store_arg]);
    assert!(o.status.success(), "{}", stderr(&o));
    // The dead-owner temp may already fall to the startup sweep that
    // `Store::open` runs; either way it is gone.
    assert!(!temp.exists(), "orphaned temp removed");
    assert!(!dead_lock.exists(), "dead-owner lock removed");
    assert!(!victim.exists(), "damaged shard removed");
    assert!(!flat.exists(), "older-format file removed");
    let o = dca(&["store", "verify", "--store-dir", store_arg]);
    assert_eq!(o.status.code(), Some(0), "{}", stdout(&o));
    assert!(stdout(&o).contains("ck_compress_smoke"), "healthy shards kept");

    // Unknown subcommands — `fsck` among them — are clean errors.
    for sub in ["frobnicate", "fsck"] {
        let o = dca(&["store", sub, "--store-dir", store_arg]);
        assert_eq!(o.status.code(), Some(1), "{sub}");
        assert!(
            stderr(&o).contains(&format!("unknown store subcommand `{sub}`")),
            "{}",
            stderr(&o)
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// `dca serve` and `dca client` with no address agree on the default
/// `.dca-serve.sock` in the working directory: the daemon binds it,
/// answers a ping, shuts down on request and unlinks it.
#[test]
fn serve_and_client_work_on_the_default_socket() {
    let dir = std::env::temp_dir().join(format!("dca-cli-serve-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let client = |flag: &str| {
        Command::new(env!("CARGO_BIN_EXE_dca"))
            .args(["client", flag])
            .current_dir(&dir)
            .output()
            .expect("binary runs")
    };
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_dca"))
        .args(["serve", "--no-store", "-q"])
        .current_dir(&dir)
        .spawn()
        .expect("daemon starts");
    let sock = dir.join(".dca-serve.sock");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !sock.exists() {
        if let Some(status) = daemon.try_wait().unwrap() {
            panic!("daemon exited early: {status}");
        }
        assert!(std::time::Instant::now() < deadline, "daemon never bound {sock:?}");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let o = client("--ping");
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("\"server_proto\":2"), "{}", stdout(&o));
    let o = client("--shutdown");
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(daemon.wait().unwrap().success(), "clean exit");
    assert!(!sock.exists(), "socket unlinked");
    std::fs::remove_dir_all(&dir).ok();
}
