//! K-way dispatch determinism (ISSUE 10, satellite d): with
//! `--jobs 2` two distinct jobs execute concurrently, yet every
//! report stays byte-identical to a `--jobs 1` run and the per-job
//! work deltas stay *exact* — concurrent jobs must not bleed
//! fast-forward instructions or interval counts into each other's
//! accounting. Cancelling one job never disturbs its neighbour.

use std::net::TcpStream;
use std::path::PathBuf;
use std::thread::JoinHandle;

use dca_obs::json::{self, Json};
use dca_serve::http::{write_request, HttpReader};
use dca_serve::{run_client, serve_with, ClientOpts, Mode, ServeOpts};

/// Serialises the tests in this binary: each starts its own daemon
/// and measures wall-clock-sensitive concurrency.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Starts a daemon on a fresh unix socket plus an ephemeral TCP port;
/// returns `(socket_addr, tcp_addr, handle)`.
fn start(jobs: usize) -> (String, String, JoinHandle<Result<(), String>>) {
    static N: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let sock = std::env::temp_dir().join(format!(
        "dca-dispatch-{}-{}.sock",
        std::process::id(),
        N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let (tx, rx) = std::sync::mpsc::channel();
    let opts = ServeOpts {
        listen: sock.to_str().unwrap().to_string(),
        http_addr: Some("127.0.0.1:0".to_string()),
        jobs,
        store_dir: None,
    };
    let handle = std::thread::spawn(move || {
        serve_with(opts, |bound| {
            let _ = tx.send((bound[0].clone(), bound[1].clone()));
        })
    });
    let (sock, tcp) = rx.recv().expect("server bound");
    (sock, tcp, handle)
}

fn shutdown(sock: &str, handle: JoinHandle<Result<(), String>>) {
    run_client(&client_opts(sock, Mode::Shutdown, None, None)).expect("shutdown");
    handle.join().expect("serve thread").expect("clean exit");
}

fn client_opts(
    addr: &str,
    mode: Mode,
    out: Option<PathBuf>,
    json_out: Option<PathBuf>,
) -> ClientOpts {
    ClientOpts {
        addr: addr.to_string(),
        mode,
        out,
        json: false,
        json_out,
        quiet: true,
    }
}

fn figure_mode(max_insts: &str) -> Mode {
    Mode::Figure {
        figure: "fig03".to_string(),
        args: ["--scale", "smoke", "--max-insts", max_insts]
            .iter()
            .map(ToString::to_string)
            .collect(),
    }
}

/// The sampling figure fast-forwards and computes intervals, so its
/// work deltas discriminate between jobs (fig03 is a straight run —
/// every delta but `straight_runs` is zero). The sampling period is
/// the variable: halving it doubles the checkpoint count, so the two
/// jobs tally different `intervals_computed`.
fn sampling_mode(period: &str) -> Mode {
    Mode::Figure {
        figure: "sampling".to_string(),
        args: [
            "--scale", "smoke", "--max-insts", "60000", "--sample-period", period,
            "--sample-warmup", "2000", "--sample-interval", "2000", "--target-stderr", "0",
        ]
        .iter()
        .map(ToString::to_string)
        .collect(),
    }
}

/// Runs two distinct jobs (different `--sample-period`, so different
/// options keys) concurrently against a `--jobs K` daemon, one
/// subscriber each, returning `(body, summary)` per job.
fn run_pair(base: &std::path::Path, k: usize) -> Vec<(String, Json)> {
    let (sock, _tcp, handle) = start(k);
    let results: Vec<(String, Json)> = std::thread::scope(|s| {
        let handles: Vec<_> = ["10000", "5000"]
            .iter()
            .enumerate()
            .map(|(i, period)| {
                let addr = sock.clone();
                let out = base.join(format!("k{k}-job{i}.md"));
                let summary = base.join(format!("k{k}-job{i}.json"));
                s.spawn(move || {
                    run_client(&client_opts(
                        &addr,
                        sampling_mode(period),
                        Some(out.clone()),
                        Some(summary.clone()),
                    ))
                    .expect("figure request");
                    let body = std::fs::read_to_string(&out).unwrap();
                    let doc =
                        json::parse(&std::fs::read_to_string(&summary).unwrap()).unwrap();
                    (body, doc)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    shutdown(&sock, handle);
    results
}

#[test]
fn k2_matches_k1_byte_for_byte_with_exact_per_job_deltas() {
    let _serial = serial();
    let base = std::env::temp_dir().join(format!("dca-dispatch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();

    let k1 = run_pair(&base, 1);
    let k2 = run_pair(&base, 2);
    let delta = |d: &Json, k: &str| d.get(k).and_then(Json::as_u64).unwrap();
    for (i, ((b1, d1), (b2, d2))) in k1.iter().zip(&k2).enumerate() {
        assert!(!b1.is_empty());
        assert_eq!(b1, b2, "job {i}: K=2 report byte-identical to K=1");
        // Exact attribution: the cold simulation is deterministic, so
        // a concurrent neighbour changing any of these counts would
        // mean its work leaked into this job's Lab tally.
        for key in ["ff_insts", "intervals_computed", "intervals_from_store", "straight_runs"] {
            assert_eq!(
                delta(d1, key),
                delta(d2, key),
                "job {i}: `{key}` exact under K=2"
            );
        }
        assert!(delta(d1, "ff_insts") > 0, "job {i}: cold run fast-forwards");
        assert_eq!(delta(d1, "intervals_from_store"), 0, "job {i}: storeless");
    }
    // The two jobs are genuinely different work, so equal deltas
    // above cannot be a coincidence of symmetric inputs.
    assert_ne!(k2[0].0, k2[1].0, "distinct jobs produce distinct reports");
    assert_ne!(
        delta(&k2[0].1, "intervals_computed"),
        delta(&k2[1].1, "intervals_computed"),
        "distinct jobs compute different interval counts"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn four_subscribers_per_job_all_get_the_same_bytes_at_k2() {
    let _serial = serial();
    let (sock, tcp, handle) = start(2);
    let base = std::env::temp_dir().join(format!("dca-dispatch-subs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    // 2 jobs × 4 subscribers, alternating listeners: identical
    // requests coalesce (or rerun deterministically); either way all
    // four must see one byte sequence per job.
    let bodies: Vec<(usize, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|n| {
                let job = n % 2;
                let insts = if job == 0 { "40000" } else { "30000" };
                let addr = if n % 4 < 2 { sock.clone() } else { tcp.clone() };
                let out = base.join(format!("sub{n}.md"));
                s.spawn(move || {
                    run_client(&client_opts(&addr, figure_mode(insts), Some(out.clone()), None))
                        .expect("figure request");
                    (job, std::fs::read_to_string(&out).unwrap())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for job in 0..2 {
        let per_job: Vec<&String> =
            bodies.iter().filter(|(j, _)| *j == job).map(|(_, b)| b).collect();
        assert_eq!(per_job.len(), 4);
        assert!(
            per_job.iter().all(|b| *b == per_job[0]),
            "job {job}: all four subscribers get identical bytes"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
    shutdown(&sock, handle);
}

#[test]
fn cancelling_one_job_never_disturbs_its_neighbour() {
    let _serial = serial();
    let (sock, http_addr, handle) = start(2);
    let base = std::env::temp_dir().join(format!("dca-dispatch-cxl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();

    // The victim: a job submitted over TCP, cancelled while the
    // survivor (submitted over the unix socket) runs next to it on
    // the second dispatcher.
    let mut conn = TcpStream::connect(&http_addr).unwrap();
    let mut reader = HttpReader::new(conn.try_clone().unwrap());
    let payload = dca_serve::proto::FigureRequest::render_payload(
        "fig03",
        &["--scale".to_string(), "smoke".to_string(),
          "--max-insts".to_string(), "90000".to_string()],
    );
    write_request(&mut conn, "POST", "/v1/figures",
        Some(("application/json", &payload))).unwrap();
    let resp = reader.read_response().unwrap();
    assert_eq!(resp.status, 202);
    let job = json::parse(&String::from_utf8_lossy(&resp.body))
        .unwrap()
        .get("job")
        .and_then(Json::as_u64)
        .unwrap();

    // The survivor starts while the victim is queued or executing.
    let survivor = {
        let addr = sock.clone();
        let out = base.join("survivor.md");
        std::thread::spawn(move || {
            run_client(&client_opts(&addr, figure_mode("60000"), Some(out.clone()), None))
                .expect("survivor completes");
            std::fs::read_to_string(&out).unwrap()
        })
    };
    write_request(&mut conn, "DELETE", &format!("/v1/jobs/{job}"), None).unwrap();
    let resp = reader.read_response().unwrap();
    assert_eq!(resp.status, 200, "victim cancelled");
    let survivor_body = survivor.join().unwrap();
    assert!(!survivor_body.is_empty());

    // The survivor's bytes match an undisturbed rerun.
    let out = base.join("rerun.md");
    run_client(&client_opts(&sock, figure_mode("60000"),
        Some(out.clone()), None)).expect("rerun");
    assert_eq!(
        std::fs::read_to_string(&out).unwrap(),
        survivor_body,
        "cancellation left the neighbour's result untouched"
    );
    let _ = std::fs::remove_dir_all(&base);
    shutdown(&sock, handle);
}
