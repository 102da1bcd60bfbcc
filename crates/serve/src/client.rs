//! The request side: `dca client`.
//!
//! One request, a stream of progress events, one result, over HTTP/1.1
//! to either a unix socket path or `host:port`: submit → follow the
//! chunked progress stream → fetch the result. The report is
//! [`Figure::document`]-rendered markdown, byte-identical to what
//! offline `dca figures` saves.
//!
//! The report goes to stdout (or `--out FILE`). The serving summary —
//! job id, canonical key, dedup/warm flags, per-job work deltas,
//! wall-clock — is structured JSON: `--json` prints it to stdout
//! (instead of the report), `--json-out FILE` writes it to a file;
//! the serve tests assert on it.
//!
//! [`Figure::document`]: dca_bench::figures::Figure::document

use std::path::PathBuf;

use dca_obs::json::{self, Json};
use dca_obs::progress;

use crate::http::{write_request, HttpReader, HttpResponse};
use crate::net::{self, Conn};
use crate::proto::FigureRequest;

/// What one `dca client` invocation asks of the server.
#[derive(Clone, Debug)]
pub enum Mode {
    /// Request one figure with harness arguments.
    Figure {
        /// Figure id.
        figure: String,
        /// `RunOpts::parse`-grammar options forwarded verbatim.
        args: Vec<String>,
    },
    /// Liveness probe (reports the protocol version).
    Ping,
    /// Fetch server counters.
    Stats,
    /// Ask the server to shut down.
    Shutdown,
}

/// Client configuration.
#[derive(Clone, Debug)]
pub struct ClientOpts {
    /// Server address (Unix socket path or `host:port`).
    pub addr: String,
    /// The request.
    pub mode: Mode,
    /// Write the report here instead of stdout.
    pub out: Option<PathBuf>,
    /// Print the serving summary as JSON on stdout (the report then
    /// only goes to `--out`, keeping stdout machine-parseable).
    pub json: bool,
    /// Write the serving summary (JSON) here.
    pub json_out: Option<PathBuf>,
    /// Suppress progress lines.
    pub quiet: bool,
}

/// One connection to the daemon: the write half plus a buffered
/// reader on a clone of the same socket.
struct Link {
    conn: Box<dyn Conn>,
    reader: HttpReader<Box<dyn Conn>>,
}

impl Link {
    fn open(addr: &str) -> Result<Link, String> {
        let conn = net::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let rd = conn
            .try_clone_conn()
            .map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Link {
            conn,
            reader: HttpReader::new(rd),
        })
    }

    /// Writes one request.
    fn send(
        &mut self,
        method: &str,
        target: &str,
        body: Option<(&str, &[u8])>,
    ) -> Result<(), String> {
        write_request(&mut self.conn, method, target, body)
            .map(drop)
            .map_err(|e| format!("send: {e}"))
    }

    /// One exchange on the kept-alive connection.
    fn round(
        &mut self,
        method: &str,
        target: &str,
        body: Option<(&str, &[u8])>,
    ) -> Result<HttpResponse, String> {
        self.send(method, target, body)?;
        self.reader.read_response().map_err(|e| e.to_string())
    }
}

/// Runs one request against a serve daemon.
pub fn run_client(opts: &ClientOpts) -> Result<(), String> {
    let mut link = Link::open(&opts.addr)?;
    match &opts.mode {
        Mode::Ping => {
            let resp = link.round("GET", "/v1/ping", None)?;
            println!("{}", String::from_utf8_lossy(&resp.body));
            Ok(())
        }
        Mode::Stats => {
            let resp = link.round("GET", "/v1/stats", None)?;
            let doc = json::parse(&String::from_utf8_lossy(&resp.body))?;
            println!("{}", doc.render_pretty());
            Ok(())
        }
        Mode::Shutdown => {
            let resp = link.round("POST", "/v1/shutdown", None)?;
            println!("{}", String::from_utf8_lossy(&resp.body));
            Ok(())
        }
        Mode::Figure { figure, args } => {
            let payload = FigureRequest::render_payload(figure, args);
            let resp = link.round("POST", "/v1/figures", Some(("application/json", &payload)))?;
            let body = String::from_utf8_lossy(&resp.body).into_owned();
            if resp.status != 202 {
                let doc = json::parse(&body).unwrap_or(Json::Null);
                let msg = doc.get("error").and_then(Json::as_str).unwrap_or(&body);
                return Err(format!("server: {msg}"));
            }
            let doc = json::parse(&body)?;
            let job = doc
                .get("job")
                .and_then(Json::as_u64)
                .ok_or("submit reply lacks a job id")?;
            // Follow the chunked progress stream on its own
            // connection (the server closes streaming connections).
            let summary = follow_stream(opts, job)?;
            if let Some(msg) = summary.get("error").and_then(Json::as_str) {
                return Err(format!("server: {msg}"));
            }
            // The summary's dedup flag describes the *stream*
            // subscription (always an attach); what the caller wants
            // is whether the POST itself coalesced.
            let submitted_dedup = matches!(doc.get("dedup"), Some(Json::Bool(true)));
            let summary = match summary {
                Json::Obj(mut members) => {
                    for (k, v) in members.iter_mut() {
                        if k == "dedup" {
                            *v = Json::Bool(submitted_dedup);
                        }
                    }
                    Json::Obj(members)
                }
                other => other,
            };
            // The report itself: byte-identical to offline
            // `dca figures` output.
            let resp = link.round("GET", &format!("/v1/jobs/{job}/result"), None)?;
            if resp.status != 200 {
                return Err(format!(
                    "server: result fetch returned {}: {}",
                    resp.status,
                    String::from_utf8_lossy(&resp.body)
                ));
            }
            let document = String::from_utf8_lossy(&resp.body).into_owned();
            deliver_result(opts, &summary, &document)
        }
    }
}

/// Follows `GET /v1/jobs/<id>?stream=1`, printing progress lines and
/// returning the final summary document.
fn follow_stream(opts: &ClientOpts, job: u64) -> Result<Json, String> {
    let mut link = Link::open(&opts.addr)?;
    link.send("GET", &format!("/v1/jobs/{job}?stream=1"), None)?;
    let (status, _) = link.reader.read_response_head().map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("server: stream open returned {status}"));
    }
    let mut pending = String::new();
    let mut last = Json::Null;
    while let Some(chunk) = link.reader.next_chunk().map_err(|e| e.to_string())? {
        pending.push_str(&String::from_utf8_lossy(&chunk));
        while let Some(i) = pending.find('\n') {
            let line: String = pending.drain(..=i).collect();
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let doc = json::parse(line).unwrap_or(Json::Null);
            if doc.get("round").is_some() {
                print_progress(opts, &doc);
            } else if doc.get("state").is_none() || doc.get("dedup").is_some() {
                // Result summaries and errors; plain status echoes of
                // a still-running job are skipped.
                last = doc;
            }
        }
    }
    match last {
        Json::Null => Err("stream ended without a result".to_string()),
        doc => Ok(doc),
    }
}

fn print_progress(opts: &ClientOpts, doc: &Json) {
    if opts.quiet {
        return;
    }
    let g = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
    progress::info(format!(
        "  round {} ({} intervals, {} remaining, {:.1} intervals/s, queue {})",
        g("round"),
        g("batch"),
        g("remaining"),
        g("intervals_per_sec_milli") as f64 / 1000.0,
        g("queue_depth"),
    ));
}

/// Delivers one finished figure: the report to `--out`/stdout, the
/// summary to stdout (`--json`) and/or a file (`--json-out`).
fn deliver_result(opts: &ClientOpts, summary: &Json, document: &str) -> Result<(), String> {
    match &opts.out {
        Some(path) => std::fs::write(path, document)
            .map_err(|e| format!("write {}: {e}", path.display()))?,
        None if !opts.json => print!("{document}"),
        None => {} // --json owns stdout
    }
    if opts.json {
        println!("{}", summary.render_pretty());
    }
    if let Some(path) = &opts.json_out {
        std::fs::write(path, summary.render_pretty())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if !opts.quiet {
        let flag = |k: &str| {
            summary.get(k).and_then(|v| match v {
                Json::Bool(b) => Some(*b),
                _ => None,
            }) == Some(true)
        };
        progress::info(format!(
            "  {} in {} ms{}{}",
            summary.get("figure").and_then(Json::as_str).unwrap_or("?"),
            summary.get("elapsed_ms").and_then(Json::as_u64).unwrap_or(0),
            if flag("dedup") { " (deduplicated)" } else { "" },
            if flag("warm") { " (warm, zero recompute)" } else { "" },
        ));
    }
    Ok(())
}
