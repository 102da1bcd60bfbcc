//! End-to-end serving over real sockets, on both listeners: the unix
//! socket of `--listen` and the TCP address of `--http-addr` speak
//! the same HTTP/1.1.
//!
//! - Totality: truncated heads, oversized bodies, split CRLFs,
//!   pipelined garbage and mid-body disconnects map to named error
//!   responses (or a quiet close) without panicking the server or
//!   poisoning other sessions — proven by a healthy canary connection
//!   on each listener, pinged after every abuse.
//! - Serving semantics: the server-side-flag refusal table, dedup
//!   across listeners, byte-identical reports that match offline
//!   `dca figures`, warm restarts, clients that vanish mid-stream, a
//!   second daemon refused on a live socket, and clean shutdowns
//!   (requested on either listener) that close both listeners and
//!   leave no lock or temp file in the store.

use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;

use dca_obs::json::{self, Json};
use dca_serve::http::{write_request, HttpReader, HttpResponse};
use dca_serve::net::{self, Conn};
use dca_serve::proto::FigureRequest;
use dca_serve::{run_client, serve_with, ClientOpts, Mode, ServeOpts};

/// Serialises the tests in this binary: each starts its own daemon
/// and the process shares one metrics registry (the dedup and stats
/// assertions read it).
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dca-serve-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A running daemon: `sock` is the unix listener, `tcp` the TCP one.
struct Daemon {
    sock: String,
    tcp: String,
    store_dir: Option<PathBuf>,
    handle: JoinHandle<Result<(), String>>,
}

impl Daemon {
    /// Starts a daemon listening on `sock` and an ephemeral TCP port.
    fn start(sock: &Path, store_dir: Option<PathBuf>) -> Daemon {
        let (tx, rx) = std::sync::mpsc::channel();
        let opts = ServeOpts {
            listen: sock.to_str().unwrap().to_string(),
            http_addr: Some("127.0.0.1:0".to_string()),
            store_dir: store_dir.clone(),
            ..ServeOpts::default()
        };
        let handle = std::thread::spawn(move || {
            serve_with(opts, |bound| {
                let _ = tx.send(bound.clone());
            })
        });
        let bound = rx.recv().expect("server bound");
        Daemon {
            sock: bound[0].clone(),
            tcp: bound[1].clone(),
            store_dir,
            handle,
        }
    }

    /// Shuts the daemon down with `dca client` over the unix socket.
    fn shutdown(self) {
        run_client(&client_opts(&self.sock, Mode::Shutdown)).expect("shutdown accepted");
        self.assert_clean_exit();
    }

    /// Shuts the daemon down with `POST /v1/shutdown` over TCP.
    fn shutdown_over_tcp(self) {
        assert_eq!(round(&self.tcp, "POST", "/v1/shutdown", None).status, 200);
        self.assert_clean_exit();
    }

    /// Asserts a clean exit: the socket is unlinked, the TCP listener
    /// refuses connections, and the store holds no lock or temp file.
    fn assert_clean_exit(self) {
        self.handle
            .join()
            .expect("serve thread")
            .expect("clean exit");
        assert!(
            !Path::new(&self.sock).exists(),
            "socket unlinked on shutdown"
        );
        assert!(
            TcpStream::connect(&self.tcp).is_err(),
            "TCP listener closed on shutdown"
        );
        if let Some(store) = &self.store_dir {
            let leaked = leftovers(store);
            assert!(leaked.is_empty(), "leaked lock/temp files: {leaked:?}");
        }
    }
}

/// Every `*.lock` and `.tmp-*` file under `dir`.
fn leftovers(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            found.extend(leftovers(&path));
        } else if name.ends_with(".lock") || name.starts_with(".tmp-") {
            found.push(path);
        }
    }
    found
}

fn client_opts(addr: &str, mode: Mode) -> ClientOpts {
    ClientOpts {
        addr: addr.to_string(),
        mode,
        out: None,
        json: false,
        json_out: None,
        quiet: true,
    }
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(ToString::to_string).collect()
}

/// Connects to either listener with a read timeout, so a server that
/// never answers fails the test instead of hanging it.
fn connect(addr: &str) -> Box<dyn Conn> {
    let timeout = Some(std::time::Duration::from_secs(60));
    if net::is_unix(addr) {
        let s = std::os::unix::net::UnixStream::connect(addr).unwrap();
        s.set_read_timeout(timeout).unwrap();
        Box::new(s)
    } else {
        let s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(timeout).unwrap();
        Box::new(s)
    }
}

/// One request on a fresh connection to either listener.
fn round(addr: &str, method: &str, target: &str, body: Option<&[u8]>) -> HttpResponse {
    let mut conn = connect(addr);
    let mut reader = HttpReader::new(conn.try_clone_conn().unwrap());
    write_request(
        &mut conn,
        method,
        target,
        body.map(|b| ("application/json", b)),
    )
    .unwrap();
    reader.read_response().unwrap()
}

fn stat(addr: &str, key: &str) -> u64 {
    let resp = round(addr, "GET", "/v1/stats", None);
    let doc = json::parse(&String::from_utf8_lossy(&resp.body)).unwrap();
    doc.get(key).and_then(Json::as_u64).unwrap()
}

/// Runs one figure request through `dca client`; returns the report
/// and the serving summary.
fn fetch(addr: &str, dir: &Path, tag: &str, figure: &str, fig_args: &[String]) -> (String, Json) {
    let out = dir.join(format!("{tag}.md"));
    let summary = dir.join(format!("{tag}.json"));
    run_client(&ClientOpts {
        out: Some(out.clone()),
        json_out: Some(summary.clone()),
        ..client_opts(
            addr,
            Mode::Figure {
                figure: figure.to_string(),
                args: fig_args.to_vec(),
            },
        )
    })
    .expect("figure request");
    let body = std::fs::read_to_string(&out).unwrap();
    let doc = json::parse(&std::fs::read_to_string(&summary).unwrap()).unwrap();
    (body, doc)
}

/// One raw HTTP exchange on a fresh TCP connection: send `bytes`,
/// read one response (`None` if the server closed without one).
fn raw_round(http_addr: &str, bytes: &[u8]) -> Option<HttpResponse> {
    let mut conn = TcpStream::connect(http_addr).unwrap();
    conn.write_all(bytes).unwrap();
    conn.flush().unwrap();
    let mut reader = HttpReader::new(conn.try_clone().unwrap());
    reader.read_response().ok()
}

/// A keep-alive session that must outlive every abuse.
struct Canary {
    conn: Box<dyn Conn>,
    reader: HttpReader<Box<dyn Conn>>,
}

impl Canary {
    fn open(addr: &str) -> Canary {
        let conn = net::connect(addr).unwrap();
        let reader = HttpReader::new(conn.try_clone_conn().unwrap());
        Canary { conn, reader }
    }

    /// The canary's keep-alive session must still answer a ping.
    fn check(&mut self, after: &str) {
        write_request(&mut self.conn, "GET", "/v1/ping", None).unwrap();
        let resp = self.reader.read_response().unwrap_or_else(|e| {
            panic!("canary died after {after}: {e}");
        });
        assert_eq!(resp.status, 200, "canary ping after {after}");
    }
}

#[test]
fn malformed_http_poisons_only_its_own_connection() {
    let _serial = serial();
    let dir = scratch("abuse");
    let d = Daemon::start(&dir.join("d.sock"), None);
    let http_addr = d.tcp.clone();
    // One canary on each listener: the abused one and the other.
    let mut canaries = [Canary::open(&d.tcp), Canary::open(&d.sock)];
    let mut check = |after: &str| canaries.iter_mut().for_each(|c| c.check(after));
    check("connect");

    // 1. Garbage request line → 400, close.
    let resp = raw_round(&http_addr, b"NOT A REQUEST AT ALL\r\n\r\n").unwrap();
    assert_eq!(resp.status, 400, "garbage request line");
    check("garbage request line");

    // 2. Unsupported HTTP version → 505.
    let resp = raw_round(&http_addr, b"GET /v1/ping HTTP/2.0\r\n\r\n").unwrap();
    assert_eq!(resp.status, 505, "HTTP/2.0");
    check("unsupported version");

    // 3. Oversized Content-Length: refused before any allocation.
    let resp = raw_round(
        &http_addr,
        b"POST /v1/figures HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n",
    )
    .unwrap();
    assert_eq!(resp.status, 413, "oversized Content-Length");
    check("oversized Content-Length");

    // 4. Unparseable and conflicting Content-Length → 400.
    let resp = raw_round(
        &http_addr,
        b"POST /v1/figures HTTP/1.1\r\ncontent-length: abc\r\n\r\n",
    )
    .unwrap();
    assert_eq!(resp.status, 400, "bad Content-Length");
    let resp = raw_round(
        &http_addr,
        b"POST /v1/figures HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 3\r\n\r\nhi",
    )
    .unwrap();
    assert_eq!(resp.status, 400, "conflicting Content-Length");
    check("Content-Length abuse");

    // 5. Request bodies with Transfer-Encoding are not implemented,
    //    and say so.
    let resp = raw_round(
        &http_addr,
        b"POST /v1/figures HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
    )
    .unwrap();
    assert_eq!(resp.status, 501, "chunked request body");
    check("Transfer-Encoding");

    // 6. Oversized head: a header section that never ends → 431.
    let mut conn = TcpStream::connect(&http_addr).unwrap();
    conn.write_all(b"GET /v1/ping HTTP/1.1\r\n").unwrap();
    let filler = format!("x-filler: {}\r\n", "y".repeat(1000));
    for _ in 0..20 {
        if conn.write_all(filler.as_bytes()).is_err() {
            break; // server already rejected and closed
        }
    }
    let mut reader = HttpReader::new(conn.try_clone().unwrap());
    if let Ok(resp) = reader.read_response() {
        assert_eq!(resp.status, 431, "oversized head");
    }
    drop(conn);
    check("oversized head");

    // 7. Truncated head: half a request line, then hang up.
    let mut conn = TcpStream::connect(&http_addr).unwrap();
    conn.write_all(b"GET /v1/pi").unwrap();
    conn.flush().unwrap();
    drop(conn);
    check("truncated head");

    // 8. Mid-body disconnect: promise 100 bytes, send 10, vanish.
    let mut conn = TcpStream::connect(&http_addr).unwrap();
    conn.write_all(b"POST /v1/figures HTTP/1.1\r\ncontent-length: 100\r\n\r\n0123456789")
        .unwrap();
    conn.flush().unwrap();
    drop(conn);
    check("mid-body disconnect");

    // 9. Split CRLFs: a valid request dribbled one byte at a time
    //    still parses.
    let mut conn = TcpStream::connect(&http_addr).unwrap();
    for b in b"GET /v1/ping HTTP/1.1\r\nconnection: close\r\n\r\n" {
        conn.write_all(&[*b]).unwrap();
        conn.flush().unwrap();
    }
    let mut reader = HttpReader::new(conn.try_clone().unwrap());
    assert_eq!(reader.read_response().unwrap().status, 200, "split CRLFs");
    check("split CRLFs");

    // 10. Pipelined garbage: a valid request followed by junk on the
    //     same connection. The valid one is answered; the junk gets a
    //     400 and the close poisons only that connection.
    let mut conn = TcpStream::connect(&http_addr).unwrap();
    conn.write_all(b"GET /v1/ping HTTP/1.1\r\n\r\n\x00\xff garbage\r\n\r\n")
        .unwrap();
    conn.flush().unwrap();
    let mut reader = HttpReader::new(conn.try_clone().unwrap());
    assert_eq!(
        reader.read_response().unwrap().status,
        200,
        "pipelined: valid first"
    );
    assert_eq!(
        reader.read_response().unwrap().status,
        400,
        "pipelined: junk second"
    );
    check("pipelined garbage");

    // 11. Wrong method / unknown path are application errors, not
    //     session errors: the connection survives.
    let mut conn = TcpStream::connect(&http_addr).unwrap();
    let mut reader = HttpReader::new(conn.try_clone().unwrap());
    write_request(&mut conn, "PUT", "/v1/figures", None).unwrap();
    let resp = reader.read_response().unwrap();
    assert_eq!(resp.status, 405, "PUT /v1/figures");
    write_request(&mut conn, "GET", "/v1/nowhere", None).unwrap();
    assert_eq!(reader.read_response().unwrap().status, 404, "unknown path");
    write_request(&mut conn, "GET", "/v1/ping", None).unwrap();
    assert_eq!(
        reader.read_response().unwrap().status,
        200,
        "same connection lives on"
    );
    check("application errors");

    drop(canaries);
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_server_side_flag_is_refused_over_both_listeners() {
    let _serial = serial();
    let dir = scratch("refuse");
    let d = Daemon::start(&dir.join("d.sock"), None);
    for &(flag, takes_value) in dca_bench::SERVER_SIDE_FLAGS {
        let mut args = vec![flag.to_string()];
        if takes_value {
            args.push("x".to_string());
        }
        let payload = FigureRequest::render_payload("fig03", &args);
        for addr in [&d.sock, &d.tcp] {
            let resp = round(addr, "POST", "/v1/figures", Some(&payload));
            assert_eq!(resp.status, 400, "{addr} refuses {flag}");
            let text = String::from_utf8_lossy(&resp.body);
            assert!(text.contains(flag), "{addr}: error names {flag}: {text}");
        }
    }
    // A malformed value is refused the same way — a 400 naming the
    // flag, never a dropped connection. A sample period shorter than
    // the default sample interval is one too: the dispatcher never
    // sees it.
    for bad in [
        ["--scale", "huge"],
        ["--max-insts", "lots"],
        ["--max-insts", "0"],
        ["--sample-period", "0"],
        ["--sample-period", "1000"],
    ] {
        let payload = FigureRequest::render_payload("fig03", &args(&bad));
        for addr in [&d.sock, &d.tcp] {
            let resp = round(addr, "POST", "/v1/figures", Some(&payload));
            assert_eq!(resp.status, 400, "{addr} refuses {bad:?}");
            let text = String::from_utf8_lossy(&resp.body);
            assert!(text.contains(bad[0]), "{addr}: error names {}: {text}", bad[0]);
        }
    }
    assert_eq!(round(&d.tcp, "GET", "/v1/ping", None).status, 200, "daemon still serving");
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn both_listeners_serve_byte_identical_reports() {
    let _serial = serial();
    let dir = scratch("identical");
    let d = Daemon::start(&dir.join("d.sock"), None);
    let fig_args = args(&["--scale", "smoke", "--max-insts", "60000"]);
    let (unix_body, unix_doc) = fetch(&d.sock, &dir, "unix", "fig03", &fig_args);
    let (tcp_body, tcp_doc) = fetch(&d.tcp, &dir, "tcp", "fig03", &fig_args);
    assert!(!unix_body.is_empty());
    assert_eq!(
        tcp_body, unix_body,
        "reports are byte-identical across listeners"
    );
    assert!(unix_body.starts_with("# "), "document carries its title");
    // ...and identical to what offline `dca figures` renders.
    let (opts, _) = dca_bench::RunOpts::parse(fig_args.iter().cloned()).unwrap();
    let fig = dca_bench::figures::by_name("fig03").unwrap()(&mut dca_bench::Lab::new(opts));
    assert_eq!(unix_body, fig.document(), "served report matches offline `dca figures`");
    for key in ["figure", "key", "title"] {
        assert_eq!(
            tcp_doc.get(key).and_then(Json::as_str),
            unix_doc.get(key).and_then(Json::as_str),
            "summary `{key}` agrees across listeners"
        );
    }

    // The job stayed pollable after delivery, from either listener:
    // the done map still serves the result, byte-identical again.
    let job = tcp_doc.get("job").and_then(Json::as_u64).unwrap();
    let resp = round(&d.sock, "GET", &format!("/v1/jobs/{job}/result"), None);
    assert_eq!(resp.status, 200);
    assert_eq!(String::from_utf8_lossy(&resp.body), unix_body);

    // The metrics endpoint renders Prometheus text including the HTTP
    // front's own counters.
    let resp = round(&d.tcp, "GET", "/v1/metrics", None);
    assert_eq!(resp.status, 200);
    let text = String::from_utf8_lossy(&resp.body).into_owned();
    assert!(
        text.contains("serve_http_requests_total"),
        "metrics: {text}"
    );

    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Four clients, two per listener, ask for the same figure at once:
/// one computation, three dedup hits, four byte-identical reports.
#[test]
fn concurrent_identical_requests_compute_once_across_listeners() {
    let _serial = serial();
    let dir = scratch("dedup");
    let d = Daemon::start(&dir.join("d.sock"), None);
    let requests0 = stat(&d.sock, "requests");
    let dedup0 = stat(&d.sock, "dedup_hits");
    let fig_args = args(&["--scale", "smoke", "--max-insts", "60000"]);
    let addrs = [&d.sock, &d.tcp, &d.sock, &d.tcp];
    let bodies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = addrs
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                let (dir, fig_args) = (&dir, &fig_args);
                s.spawn(move || fetch(addr, dir, &format!("c{i}"), "fig03", fig_args).0)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(!bodies[0].is_empty());
    assert!(
        bodies.iter().all(|b| b == &bodies[0]),
        "all clients get the byte-identical report"
    );
    assert_eq!(stat(&d.sock, "requests") - requests0, 4);
    assert_eq!(
        stat(&d.tcp, "dedup_hits") - dedup0,
        3,
        "one computation: three requests coalesced across listeners"
    );
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_restart_serves_from_the_store_with_zero_fast_forward() {
    let _serial = serial();
    let dir = scratch("warm");
    let store = dir.join("store");
    let sock = dir.join("d.sock");
    let fig_args = args(&[
        "--scale",
        "smoke",
        "--max-insts",
        "60000",
        "--sample-period",
        "10000",
        "--sample-warmup",
        "8000",
        "--sample-interval",
        "6000",
        "--target-stderr",
        "0",
    ]);

    let d = Daemon::start(&sock, Some(store.clone()));
    let (cold_body, cold) = fetch(&d.sock, &dir, "cold", "sampling", &fig_args);
    d.shutdown_over_tcp();
    let get = |doc: &Json, k: &str| doc.get(k).and_then(Json::as_u64);
    assert!(
        get(&cold, "ff_insts").unwrap() > 0,
        "cold run fast-forwards"
    );

    // A fresh daemon on the same socket and store: no in-memory caches
    // survive the restart, so a warm result can only come from the
    // store.
    let d = Daemon::start(&sock, Some(store));
    let (warm_body, warm) = fetch(&d.sock, &dir, "warm", "sampling", &fig_args);
    d.shutdown();
    assert_eq!(
        get(&warm, "ff_insts"),
        Some(0),
        "zero fast-forward instructions"
    );
    assert_eq!(get(&warm, "intervals_computed"), Some(0), "zero recompute");
    assert!(
        get(&warm, "intervals_from_store").unwrap() > 0,
        "intervals replayed from the store"
    );
    assert!(matches!(warm.get("warm"), Some(Json::Bool(true))));
    assert_eq!(warm_body, cold_body, "warm report is byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that opens a progress stream and vanishes neither wedges
/// the server nor cancels the job: it finishes, stays pollable, and
/// other clients keep getting full service.
#[test]
fn client_disconnect_mid_stream_leaves_the_server_fully_serving() {
    let _serial = serial();
    let dir = scratch("vanish");
    let d = Daemon::start(&dir.join("d.sock"), None);
    let fig_args = args(&["--scale", "smoke", "--max-insts", "60000"]);
    let payload = FigureRequest::render_payload("fig03", &fig_args);
    let resp = round(&d.sock, "POST", "/v1/figures", Some(&payload));
    assert_eq!(resp.status, 202);
    let job = json::parse(&String::from_utf8_lossy(&resp.body))
        .unwrap()
        .get("job")
        .and_then(Json::as_u64)
        .unwrap();
    let mut conn = net::connect(&d.sock).unwrap();
    let mut reader = HttpReader::new(conn.try_clone_conn().unwrap());
    write_request(&mut conn, "GET", &format!("/v1/jobs/{job}?stream=1"), None).unwrap();
    let (status, _) = reader.read_response_head().unwrap();
    assert_eq!(status, 200, "stream opened");
    drop((conn, reader));

    assert_eq!(round(&d.sock, "GET", "/v1/ping", None).status, 200);
    let (body, _) = fetch(&d.tcp, &dir, "after", "fig03", &fig_args);
    assert!(
        !body.is_empty(),
        "full service after a mid-stream disconnect"
    );
    // The abandoned job ran to completion: only DELETE cancels.
    let resp = round(&d.sock, "GET", &format!("/v1/jobs/{job}/result"), None);
    assert_eq!(resp.status, 200, "the abandoned job finished");
    assert_eq!(String::from_utf8_lossy(&resp.body), body);
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second daemon on a live daemon's socket path is refused; the
/// first keeps its socket, answers, and shuts down cleanly.
#[test]
fn second_daemon_on_a_live_socket_is_refused() {
    let _serial = serial();
    let dir = scratch("twice");
    let sock = dir.join("d.sock");
    let d = Daemon::start(&sock, None);
    let second = serve_with(
        ServeOpts {
            listen: d.sock.clone(),
            store_dir: None,
            ..ServeOpts::default()
        },
        |_| panic!("the second daemon must not bind"),
    );
    let err = second.expect_err("second daemon refused");
    assert!(err.contains("already serving on"), "{err}");
    let resp = round(&d.sock, "GET", "/v1/ping", None);
    assert_eq!(resp.status, 200, "first daemon still answers");
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
