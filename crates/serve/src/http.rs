//! The daemon's one protocol: a hand-rolled, totality-swept HTTP/1.1
//! parser and a poll-style REST surface over the core [`Service`]
//! (DESIGN.md §14), served on every listener — unix socket and TCP
//! alike.
//!
//! The parser is written to be *total*: every byte sequence a peer
//! can send — truncations, split CRLFs, oversized heads and bodies,
//! absurd Content-Lengths, pipelined garbage, mid-body disconnects —
//! lands in a named [`HttpError`], never a panic, and poisons only its
//! own connection (`tests/http.rs` sweeps this with a concurrent
//! canary session). No dependency is added: ~300 lines of HTTP/1.1.
//!
//! ## Endpoints (all under `/v1`)
//!
//! | Method + path             | Reply                                       |
//! |---------------------------|---------------------------------------------|
//! | `POST /v1/figures`        | `202` job id + canonical key + dedup flag   |
//! | `GET /v1/jobs/<id>`       | `200` status/progress JSON                  |
//! | `GET /v1/jobs/<id>?stream=1` | `200` chunked ndjson progress stream     |
//! | `GET /v1/jobs/<id>/result`| `200` report markdown, `202` while pending  |
//! | `DELETE /v1/jobs/<id>`    | `200` cancel, `404` unknown/finished        |
//! | `GET /v1/metrics`         | `200` Prometheus text exposition            |
//! | `GET /v1/stats`           | `200` server counters JSON                  |
//! | `GET /v1/ping`            | `200` protocol version                      |
//! | `POST /v1/shutdown`       | `200`, then the daemon drains and exits     |
//!
//! The result body is [`dca_bench::figures::Figure::document`] —
//! byte-identical to what `dca client --out` writes and what offline
//! `dca figures` saves (asserted end to end by `tests/http.rs`).
//!
//! Submitted jobs run even though no connection follows them, and
//! their outcome is retained (bounded) for polling. Everything else —
//! dedup across listeners, fairness, K-way dispatch — is the core's
//! business; this file only translates.

use std::io::{self, Read, Write};
use std::sync::Arc;

use dca_obs::progress;

use crate::net::{self, Conn};
use crate::proto::{self, FigureRequest};
use crate::service::{Event, JobStatus, Service};

/// Cap on the request/response head (request line + headers).
pub const MAX_HEAD: usize = 16 * 1024;
/// Cap on bodies. Figure reports are a few KiB; 8 MiB leaves two
/// orders of magnitude of headroom while keeping a garbage
/// Content-Length harmless.
pub const MAX_BODY: u64 = 8 * 1024 * 1024;
/// Cap on header count (far above any legitimate client).
const MAX_HEADERS: usize = 100;

/// Every way an HTTP peer can fail us, named. `Closed`, `Truncated`
/// and `Io` mean the socket is unusable (no error response possible);
/// the rest map onto 4xx/5xx statuses via [`HttpError::status`].
#[derive(Debug)]
pub enum HttpError {
    /// Clean EOF between messages.
    Closed,
    /// EOF mid-message; the payload names what was being read.
    Truncated(&'static str),
    /// Transport error.
    Io(String),
    /// No end-of-head within [`MAX_HEAD`] bytes.
    OversizedHead,
    /// Unparseable request/status line.
    BadRequestLine(String),
    /// Unparseable or oversupplied header field.
    BadHeader(String),
    /// Missing, conflicting, or non-numeric Content-Length.
    BadContentLength(String),
    /// Content-Length above [`MAX_BODY`].
    OversizedBody(u64),
    /// Not HTTP/1.0 or HTTP/1.1.
    UnsupportedVersion(String),
    /// A body framing we refuse (request Transfer-Encoding).
    UnsupportedBody(&'static str),
    /// Malformed chunked-encoding framing (client side).
    BadChunk(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Truncated(what) => write!(f, "connection closed mid-{what}"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::OversizedHead => {
                write!(f, "request head exceeds {MAX_HEAD} bytes")
            }
            HttpError::BadRequestLine(l) => write!(f, "malformed request line: {l:?}"),
            HttpError::BadHeader(h) => write!(f, "malformed header: {h}"),
            HttpError::BadContentLength(v) => {
                write!(f, "bad content-length: {v:?}")
            }
            HttpError::OversizedBody(n) => {
                write!(f, "body of {n} bytes exceeds the {MAX_BODY}-byte cap")
            }
            HttpError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v:?}")
            }
            HttpError::UnsupportedBody(what) => write!(f, "unsupported body framing: {what}"),
            HttpError::BadChunk(l) => write!(f, "malformed chunk framing: {l:?}"),
        }
    }
}

impl HttpError {
    /// The status an error response should carry, or `None` when the
    /// connection is too far gone to answer on.
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            HttpError::Closed | HttpError::Truncated(_) | HttpError::Io(_) => None,
            HttpError::OversizedHead => Some((431, "Request Header Fields Too Large")),
            HttpError::OversizedBody(_) => Some((413, "Content Too Large")),
            HttpError::UnsupportedVersion(_) => Some((505, "HTTP Version Not Supported")),
            HttpError::UnsupportedBody(_) => Some((501, "Not Implemented")),
            HttpError::BadRequestLine(_)
            | HttpError::BadHeader(_)
            | HttpError::BadContentLength(_)
            | HttpError::BadChunk(_) => Some((400, "Bad Request")),
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct HttpRequest {
    /// Request method, verbatim (`GET`, `POST`, …).
    pub method: String,
    /// Request target, verbatim (path plus optional query).
    pub target: String,
    /// Header fields in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty without Content-Length).
    pub body: Vec<u8>,
    /// Whether the connection persists after this exchange.
    pub keep_alive: bool,
}

impl HttpRequest {
    /// First value of `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target's path component.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The target's query component, if any.
    pub fn query(&self) -> &str {
        self.target.split_once('?').map_or("", |(_, q)| q)
    }
}

/// One parsed response (client side).
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Header fields, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, de-chunked if need be.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First value of `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A buffered, totality-swept HTTP message reader. Tolerates split
/// CRLFs and pipelined messages (leftover bytes stay buffered for the
/// next call); refuses oversized and malformed input with named
/// errors.
pub struct HttpReader<R> {
    inner: R,
    buf: Vec<u8>,
    pos: usize,
    taken: u64,
}

impl<R: Read> HttpReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> HttpReader<R> {
        HttpReader {
            inner,
            buf: Vec::new(),
            pos: 0,
            taken: 0,
        }
    }

    /// Bytes consumed so far (for the transfer counters).
    pub fn bytes_taken(&self) -> u64 {
        self.taken
    }

    fn buffered(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    fn consume(&mut self, n: usize) -> Vec<u8> {
        let out = self.buf[self.pos..self.pos + n].to_vec();
        self.pos += n;
        self.taken += n as u64;
        if self.pos > 64 * 1024 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        out
    }

    /// Reads more bytes; `Ok(0)` is EOF.
    fn fill(&mut self) -> Result<usize, HttpError> {
        let mut chunk = [0u8; 4096];
        let n = self
            .inner
            .read(&mut chunk)
            .map_err(|e| HttpError::Io(e.to_string()))?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Consumes up to and including the first `\r\n\r\n`.
    fn read_head(&mut self, what: &'static str) -> Result<Vec<u8>, HttpError> {
        loop {
            if let Some(i) = find(self.buffered(), b"\r\n\r\n") {
                return Ok(self.consume(i + 4));
            }
            if self.buffered().len() > MAX_HEAD {
                return Err(HttpError::OversizedHead);
            }
            if self.fill()? == 0 {
                return Err(if self.buffered().is_empty() {
                    HttpError::Closed
                } else {
                    HttpError::Truncated(what)
                });
            }
        }
    }

    /// Consumes exactly `n` body bytes.
    fn read_body(&mut self, n: u64) -> Result<Vec<u8>, HttpError> {
        while (self.buffered().len() as u64) < n {
            if self.fill()? == 0 {
                return Err(HttpError::Truncated("body"));
            }
        }
        Ok(self.consume(n as usize))
    }

    /// Consumes one CRLF-terminated line (without the CRLF).
    fn read_line(&mut self, what: &'static str) -> Result<String, HttpError> {
        loop {
            if let Some(i) = find(self.buffered(), b"\r\n") {
                let line = self.consume(i + 2);
                return String::from_utf8(line[..i].to_vec())
                    .map_err(|_| HttpError::BadChunk("non-UTF-8 line".to_string()));
            }
            if self.buffered().len() > MAX_HEAD {
                return Err(HttpError::BadChunk("unterminated line".to_string()));
            }
            if self.fill()? == 0 {
                return Err(HttpError::Truncated(what));
            }
        }
    }

    /// Reads one request. Split CRLFs, pipelining and slow peers are
    /// fine; everything malformed is a named error.
    pub fn read_request(&mut self) -> Result<HttpRequest, HttpError> {
        let head = self.read_head("request head")?;
        let head = std::str::from_utf8(&head)
            .map_err(|_| HttpError::BadHeader("non-UTF-8 request head".to_string()))?;
        let mut lines = head.trim_end_matches("\r\n").split("\r\n");
        // Tolerate blank line(s) before the request line (RFC 9112 §2.2).
        let request_line = loop {
            match lines.next() {
                Some("") => continue,
                Some(l) => break l,
                None => return Err(HttpError::BadRequestLine("empty head".to_string())),
            }
        };
        let mut parts = request_line.split(' ');
        let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
        {
            (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
            _ => return Err(HttpError::BadRequestLine(request_line.to_string())),
        };
        if !method.bytes().all(|b| b.is_ascii_alphanumeric()) {
            return Err(HttpError::BadRequestLine(request_line.to_string()));
        }
        let version_11 = match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            _ => return Err(HttpError::UnsupportedVersion(version.to_string())),
        };
        let headers = parse_headers(lines)?;
        let get = |name: &str| -> Vec<&str> {
            headers
                .iter()
                .filter(|(n, _)| n == name)
                .map(|(_, v)| v.as_str())
                .collect()
        };
        if !get("transfer-encoding").is_empty() {
            return Err(HttpError::UnsupportedBody("transfer-encoding on a request"));
        }
        let lens = get("content-length");
        let body_len = match lens.as_slice() {
            [] => 0,
            [v] => v
                .parse::<u64>()
                .map_err(|_| HttpError::BadContentLength(v.to_string()))?,
            many => {
                let first = many[0];
                if many.iter().any(|v| *v != first) {
                    return Err(HttpError::BadContentLength(many.join(", ")));
                }
                first
                    .parse::<u64>()
                    .map_err(|_| HttpError::BadContentLength(first.to_string()))?
            }
        };
        if body_len > MAX_BODY {
            return Err(HttpError::OversizedBody(body_len));
        }
        let connection = get("connection")
            .first()
            .map(|v| v.to_ascii_lowercase())
            .unwrap_or_default();
        let keep_alive = if version_11 {
            connection != "close"
        } else {
            connection == "keep-alive"
        };
        let body = self.read_body(body_len)?;
        Ok(HttpRequest {
            method: method.to_string(),
            target: target.to_string(),
            headers,
            body,
            keep_alive,
        })
    }

    /// Reads one response head: status code plus headers, leaving the
    /// body (sized or chunked) unread — a chunked body then streams
    /// through [`HttpReader::next_chunk`].
    pub fn read_response_head(&mut self) -> Result<(u16, Vec<(String, String)>), HttpError> {
        let head = self.read_head("response head")?;
        let head = std::str::from_utf8(&head)
            .map_err(|_| HttpError::BadHeader("non-UTF-8 response head".to_string()))?;
        let mut lines = head.trim_end_matches("\r\n").split("\r\n");
        let status_line = lines
            .next()
            .ok_or_else(|| HttpError::BadRequestLine("empty head".to_string()))?;
        let mut parts = status_line.splitn(3, ' ');
        let (version, code) = match (parts.next(), parts.next()) {
            (Some(v), Some(c)) => (v, c),
            _ => return Err(HttpError::BadRequestLine(status_line.to_string())),
        };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::UnsupportedVersion(version.to_string()));
        }
        let status = code
            .parse::<u16>()
            .map_err(|_| HttpError::BadRequestLine(status_line.to_string()))?;
        Ok((status, parse_headers(lines)?))
    }

    /// Reads one full response, de-chunking if need be.
    pub fn read_response(&mut self) -> Result<HttpResponse, HttpError> {
        let (status, headers) = self.read_response_head()?;
        let header = |name: &str| -> Option<&str> {
            headers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str())
        };
        let body = if header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
        {
            let mut body = Vec::new();
            while let Some(chunk) = self.next_chunk()? {
                body.extend_from_slice(&chunk);
            }
            body
        } else if let Some(v) = header("content-length") {
            let n = v
                .parse::<u64>()
                .map_err(|_| HttpError::BadContentLength(v.to_string()))?;
            if n > MAX_BODY {
                return Err(HttpError::OversizedBody(n));
            }
            self.read_body(n)?
        } else {
            Vec::new()
        };
        Ok(HttpResponse {
            status,
            headers,
            body,
        })
    }

    /// Reads the next chunk of a chunked body; `None` is the terminal
    /// chunk (trailers consumed). Incremental, so progress streams can
    /// be followed live.
    pub fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, HttpError> {
        let line = self.read_line("chunk size")?;
        let size_hex = line.split(';').next().unwrap_or("").trim();
        let size = u64::from_str_radix(size_hex, 16)
            .map_err(|_| HttpError::BadChunk(line.clone()))?;
        if size > MAX_BODY {
            return Err(HttpError::OversizedBody(size));
        }
        if size == 0 {
            loop {
                if self.read_line("chunk trailer")?.is_empty() {
                    return Ok(None);
                }
            }
        }
        let data = self.read_body(size)?;
        match self.read_line("chunk terminator")?.as_str() {
            "" => Ok(Some(data)),
            other => Err(HttpError::BadChunk(other.to_string())),
        }
    }
}

fn parse_headers<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadHeader(line.to_string()))?;
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Err(HttpError::BadHeader(line.to_string()));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        if headers.len() > MAX_HEADERS {
            return Err(HttpError::BadHeader("too many header fields".to_string()));
        }
    }
    Ok(headers)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|w| w == needle)
}

/// Writes one sized response; returns bytes written.
pub fn write_response(
    w: &mut dyn Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> io::Result<u64> {
    use std::fmt::Write as _;
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    let _ = write!(
        head,
        "Connection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    );
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    Ok((head.len() + body.len()) as u64)
}

/// Writes one client request; returns bytes written.
pub fn write_request(
    w: &mut dyn Write,
    method: &str,
    target: &str,
    body: Option<(&str, &[u8])>,
) -> io::Result<u64> {
    let head = match body {
        Some((ctype, b)) => format!(
            "{method} {target} HTTP/1.1\r\nHost: dca\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\n\r\n",
            b.len()
        ),
        None => format!("{method} {target} HTTP/1.1\r\nHost: dca\r\n\r\n"),
    };
    w.write_all(head.as_bytes())?;
    let mut n = head.len() as u64;
    if let Some((_, b)) = body {
        w.write_all(b)?;
        n += b.len() as u64;
    }
    w.flush()?;
    Ok(n)
}

fn write_chunk(w: &mut dyn Write, data: &[u8]) -> io::Result<u64> {
    let head = format!("{:x}\r\n", data.len());
    w.write_all(head.as_bytes())?;
    w.write_all(data)?;
    w.write_all(b"\r\n")?;
    w.flush()?;
    Ok((head.len() + data.len() + 2) as u64)
}

fn finish_chunks(w: &mut dyn Write) -> io::Result<u64> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()?;
    Ok(5)
}

enum Outcome {
    KeepAlive,
    Close,
    Shutdown,
}

/// One HTTP connection: a keep-alive loop of request → route →
/// response. `client_no` seeds the fairness key (`http/<n>`);
/// `wake_addrs` are self-connected on shutdown so every accept loop
/// observes the flag.
pub(crate) fn http_session(
    service: &Arc<Service>,
    mut conn: Box<dyn Conn>,
    client_no: u64,
    wake_addrs: &[String],
) {
    let m = dca_obs::metrics();
    let reader_conn = match conn.try_clone_conn() {
        Ok(c) => c,
        Err(e) => {
            progress::warn(format!("serve: http client {client_no}: clone failed: {e}"));
            return;
        }
    };
    // Register a socket-shutdown hook so server shutdown can unblock
    // a keep-alive connection parked in read_request.
    let unblock_id = service.alloc_id();
    if let Ok(h) = conn.try_clone_conn() {
        service.set_unblocker(unblock_id, Box::new(move || h.shutdown_conn()));
    }
    let mut reader = HttpReader::new(reader_conn);
    let mut taken = 0u64;
    let mut want_shutdown = false;
    loop {
        let req = match reader.read_request() {
            Ok(r) => r,
            Err(HttpError::Closed) => break,
            Err(e) => {
                // The byte stream is no longer request-aligned: answer
                // if the socket allows it, then close only this
                // connection.
                m.serve_http_rejected_total.inc();
                if let Some((status, reason)) = e.status() {
                    let body = proto::error_payload(None, &e.to_string());
                    if let Ok(n) = write_response(
                        &mut conn,
                        status,
                        reason,
                        "application/json",
                        &body,
                        false,
                        &[],
                    ) {
                        m.serve_http_bytes_out_total.add(n);
                    }
                }
                break;
            }
        };
        m.serve_http_requests_total.inc();
        m.serve_http_bytes_in_total.add(reader.bytes_taken() - taken);
        taken = reader.bytes_taken();
        let keep = req.keep_alive;
        match route(service, &mut conn, &req, client_no) {
            Ok(Outcome::KeepAlive) if keep => continue,
            Ok(Outcome::KeepAlive) | Ok(Outcome::Close) => break,
            Ok(Outcome::Shutdown) => {
                want_shutdown = true;
                break;
            }
            Err(_) => break, // write failed: peer is gone
        }
    }
    service.drop_unblocker(unblock_id);
    conn.shutdown_conn();
    if want_shutdown {
        service.begin_shutdown();
        for addr in wake_addrs {
            let _ = net::connect(addr);
        }
    }
}

/// Writes one routed response, keeping the transfer counter honest.
fn send(
    conn: &mut Box<dyn Conn>,
    keep: bool,
    status: u16,
    reason: &str,
    ctype: &str,
    body: &[u8],
    extra: &[(&str, &str)],
) -> io::Result<()> {
    let n = write_response(conn, status, reason, ctype, body, keep, extra)?;
    dca_obs::metrics().serve_http_bytes_out_total.add(n);
    Ok(())
}

/// Routes one request. `Err` means the response write failed.
fn route(
    service: &Arc<Service>,
    conn: &mut Box<dyn Conn>,
    req: &HttpRequest,
    client_no: u64,
) -> io::Result<Outcome> {
    let m = dca_obs::metrics();
    let keep = req.keep_alive;
    let segs: Vec<&str> = req.path().trim_matches('/').split('/').collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("POST", ["v1", "figures"]) => match FigureRequest::parse(&req.body) {
            Ok(freq) => {
                let sub = service.submit(&format!("http/{client_no}"), freq);
                let location = format!("/v1/jobs/{}", sub.job);
                send(conn, keep, 202, "Accepted", "application/json",
                    &proto::submit_payload(&sub), &[("Location", &location)])?;
            }
            Err(e) => {
                m.serve_http_rejected_total.inc();
                send(conn, keep, 400, "Bad Request", "application/json",
                    &proto::error_payload(None, &e), &[])?;
            }
        },
        (_, ["v1", "figures"]) => {
            send(conn, keep, 405, "Method Not Allowed", "application/json",
                &proto::error_payload(None, "submit figures with POST"),
                &[("Allow", "POST")])?;
        }
        ("GET", ["v1", "jobs", id]) => match id.parse::<u64>() {
            Err(_) => {
                m.serve_http_rejected_total.inc();
                send(conn, keep, 400, "Bad Request", "application/json",
                    &proto::error_payload(None, &format!("bad job id {id:?}")), &[])?;
            }
            Ok(jid) if req.query().split('&').any(|kv| kv == "stream=1") => {
                return stream_job(service, conn, jid);
            }
            Ok(jid) => match service.job_status(jid) {
                Some(status) => {
                    send(conn, keep, 200, "OK", "application/json",
                        &proto::status_payload(jid, &status), &[])?;
                }
                None => {
                    send(conn, keep, 404, "Not Found", "application/json",
                        &proto::error_payload(Some(jid), "unknown job"), &[])?;
                }
            },
        },
        ("GET", ["v1", "jobs", id, "result"]) => match id.parse::<u64>() {
            Err(_) => {
                m.serve_http_rejected_total.inc();
                send(conn, keep, 400, "Bad Request", "application/json",
                    &proto::error_payload(None, &format!("bad job id {id:?}")), &[])?;
            }
            Ok(jid) => match service.job_status(jid) {
                None => {
                    send(conn, keep, 404, "Not Found", "application/json",
                        &proto::error_payload(Some(jid), "unknown job"), &[])?;
                }
                Some(JobStatus::Done(outcome)) => match &outcome.result {
                    Ok(figure) => {
                        send(conn, keep, 200, "OK", "text/markdown; charset=utf-8",
                            figure.document().as_bytes(), &[])?;
                    }
                    Err(reason) => {
                        send(conn, keep, 410, "Gone", "application/json",
                            &proto::error_payload(Some(jid), reason), &[])?;
                    }
                },
                Some(status) => {
                    // Not done yet: poll-friendly 202 carrying the
                    // same status document as /v1/jobs/<id>.
                    send(conn, keep, 202, "Accepted", "application/json",
                        &proto::status_payload(jid, &status), &[])?;
                }
            },
        },
        ("DELETE", ["v1", "jobs", id]) => match id.parse::<u64>() {
            Err(_) => {
                m.serve_http_rejected_total.inc();
                send(conn, keep, 400, "Bad Request", "application/json",
                    &proto::error_payload(None, &format!("bad job id {id:?}")), &[])?;
            }
            Ok(jid) => {
                if service.cancel_job(jid) {
                    send(conn, keep, 200, "OK", "application/json",
                        &proto::error_payload(Some(jid), "cancelled"), &[])?;
                } else {
                    send(conn, keep, 404, "Not Found", "application/json",
                        &proto::error_payload(Some(jid), "unknown or finished job"), &[])?;
                }
            }
        },
        ("GET", ["v1", "metrics"]) => {
            let text = dca_obs::metrics().snapshot().prometheus();
            send(conn, keep, 200, "OK", "text/plain; version=0.0.4", text.as_bytes(), &[])?;
        }
        ("GET", ["v1", "stats"]) => {
            send(conn, keep, 200, "OK", "application/json", &proto::stats_payload(), &[])?;
        }
        ("GET", ["v1", "ping"]) => {
            send(conn, keep, 200, "OK", "application/json", &proto::ping_payload(), &[])?;
        }
        ("POST", ["v1", "shutdown"]) => {
            send(conn, keep, 200, "OK", "application/json",
                &proto::error_payload(None, "shutting down"), &[])?;
            return Ok(Outcome::Shutdown);
        }
        _ => {
            m.serve_http_rejected_total.inc();
            send(conn, keep, 404, "Not Found", "application/json",
                &proto::error_payload(None, &format!("no route for {} {}", req.method, req.path())),
                &[])?;
        }
    }
    Ok(Outcome::KeepAlive)
}

/// Streams a job's progress as chunked ndjson: the current status
/// first, then one line per queued chunk of sample intervals, then the final result
/// summary (without the body — that stays on `/result`).
fn stream_job(service: &Arc<Service>, conn: &mut Box<dyn Conn>, jid: u64) -> io::Result<Outcome> {
    let m = dca_obs::metrics();
    let (sess, rx) = service.open_session();
    if !service.subscribe(&sess, jid) {
        service.close_session(&sess);
        let n = write_response(
            conn,
            404,
            "Not Found",
            "application/json",
            &proto::error_payload(Some(jid), "unknown job"),
            false,
            &[],
        )?;
        m.serve_http_bytes_out_total.add(n);
        return Ok(Outcome::Close);
    }
    let run = (|| -> io::Result<()> {
        let head = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                    Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
        conn.write_all(head.as_bytes())?;
        m.serve_http_bytes_out_total.add(head.len() as u64);
        let mut line = |payload: Vec<u8>| -> io::Result<()> {
            let mut data = payload;
            data.push(b'\n');
            let n = write_chunk(conn, &data)?;
            m.serve_http_bytes_out_total.add(n);
            Ok(())
        };
        if let Some(status) = service.job_status(jid) {
            line(proto::status_payload(jid, &status))?;
        }
        loop {
            match rx.recv() {
                Ok(Event::Progress {
                    job,
                    figure,
                    round,
                    queue_depth,
                }) if job == jid => {
                    line(proto::progress_payload(job, &figure, &round, queue_depth))?;
                }
                Ok(Event::Result { outcome, .. }) => {
                    line(proto::result_payload(&outcome))?;
                    break;
                }
                Ok(Event::Error { job, message }) => {
                    line(proto::error_payload(Some(job), &message))?;
                    break;
                }
                Ok(Event::Shutdown) | Err(_) => break,
                Ok(_) => continue,
            }
        }
        let n = finish_chunks(conn)?;
        m.serve_http_bytes_out_total.add(n);
        Ok(())
    })();
    service.close_session(&sess);
    run?;
    Ok(Outcome::Close)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_one(input: &[u8]) -> Result<HttpRequest, HttpError> {
        HttpReader::new(input).read_request()
    }

    #[test]
    fn parses_requests_with_split_crlfs_and_pipelining() {
        // A reader fed one byte at a time still assembles the message.
        struct Trickle<'a>(&'a [u8]);
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                match self.0.split_first() {
                    Some((b, rest)) => {
                        buf[0] = *b;
                        self.0 = rest;
                        Ok(1)
                    }
                    None => Ok(0),
                }
            }
        }
        let wire = b"POST /v1/figures HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /v1/ping HTTP/1.1\r\n\r\n";
        let mut r = HttpReader::new(Trickle(wire));
        let first = r.read_request().unwrap();
        assert_eq!(first.method, "POST");
        assert_eq!(first.body, b"hi");
        let second = r.read_request().unwrap();
        assert_eq!((second.method.as_str(), second.target.as_str()), ("GET", "/v1/ping"));
        assert!(matches!(r.read_request(), Err(HttpError::Closed)));
        assert_eq!(r.bytes_taken(), wire.len() as u64);
    }

    #[test]
    fn header_lookup_is_case_insensitive_and_targets_split() {
        let req = read_one(b"GET /v1/jobs/7?stream=1 HTTP/1.1\r\nX-Thing: yes\r\n\r\n").unwrap();
        assert_eq!(req.header("x-THING"), Some("yes"));
        assert_eq!(req.path(), "/v1/jobs/7");
        assert_eq!(req.query(), "stream=1");
        assert!(req.keep_alive, "1.1 defaults to keep-alive");
        let req = read_one(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive, "1.0 defaults to close");
    }

    #[test]
    fn every_malformation_is_a_named_error() {
        let cases: &[(&[u8], &str)] = &[
            (b"GET /x\r\n\r\n", "request line"),
            (b"GET /x HTTP/1.1 extra\r\n\r\n", "request line"),
            (b"GET /x HTTP/2\r\n\r\n", "version"),
            (b"GET /x HTTP/1.1\r\nNo colon here\r\n\r\n", "header"),
            (b"GET /x HTTP/1.1\r\nBad name: v\r\n\r\n", "header"),
            (b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", "content-length"),
            (b"GET /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n", "content-length"),
            (b"GET /x HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n", "content-length"),
            (b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", "body framing"),
            (b"GET /x HTTP/1.1\r\nTrunca", "mid-request head"),
            (b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort", "mid-body"),
        ];
        for (wire, needle) in cases {
            let err = read_one(wire).expect_err("must fail");
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "{wire:?}: {msg:?} should mention {needle:?}"
            );
        }
        // Oversized Content-Length is refused by the cap, not read.
        let wire = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(matches!(
            read_one(wire.as_bytes()),
            Err(HttpError::OversizedBody(_))
        ));
        // A head that never ends is refused at MAX_HEAD.
        let mut junk = b"GET /x HTTP/1.1\r\n".to_vec();
        junk.extend(std::iter::repeat_n(b'a', MAX_HEAD + 64));
        assert!(matches!(read_one(&junk), Err(HttpError::OversizedHead)));
    }

    #[test]
    fn responses_round_trip_including_chunked() {
        let mut wire = Vec::new();
        write_response(&mut wire, 202, "Accepted", "application/json", b"{}", true, &[("Location", "/v1/jobs/3")]).unwrap();
        let resp = HttpReader::new(wire.as_slice()).read_response().unwrap();
        assert_eq!(resp.status, 202);
        assert_eq!(resp.header("location"), Some("/v1/jobs/3"));
        assert_eq!(resp.body, b"{}");

        let mut wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        write_chunk(&mut wire, b"hello ").unwrap();
        write_chunk(&mut wire, b"world").unwrap();
        finish_chunks(&mut wire).unwrap();
        let resp = HttpReader::new(wire.as_slice()).read_response().unwrap();
        assert_eq!(resp.body, b"hello world");

        // Chunk framing failures are named, not panics.
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n";
        let err = HttpReader::new(&wire[..]).read_response().unwrap_err();
        assert!(err.to_string().contains("chunk"));
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab";
        assert!(matches!(
            HttpReader::new(&wire[..]).read_response(),
            Err(HttpError::Truncated(_))
        ));
    }
}
