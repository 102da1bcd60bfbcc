//! Request/event payloads and canonical request keys.
//!
//! Payloads are JSON documents built with `dca_obs::json` — the same
//! hand-rolled parser/renderer the manifests use, so the protocol
//! adds no dependency. A figure request carries the figure id plus
//! harness options in the *CLI's own argument grammar*
//! (`--scale paper`, `--target-stderr 0`, …), which the server parses
//! with [`dca_bench::RunOpts::parse`] — serve requests and shell
//! invocations cannot drift apart because they share one parser.
//!
//! Deduplication needs a canonical identity for "the same request":
//! two clients asking for `sampling` with reordered but equivalent
//! flags must collide. [`FigureRequest::canonical_key`] therefore
//! renders the *parsed* options — scale name, budget, sampling
//! parameters — not the raw argument strings.
//!
//! The HTTP front returns these payloads as response bodies and
//! progress-stream lines.

use dca_bench::RunOpts;
use dca_obs::json::{self, Json};

use crate::service::{JobOutcome, JobStatus, SubmitOutcome};

/// The protocol version this daemon speaks, reported by
/// `GET /v1/ping` and `GET /v1/stats`.
pub const PROTO_VERSION: u64 = 2;

/// Exact per-job work attribution, measured by the executing Lab's
/// own tally ([`dca_bench::Lab::work`]) — not by global-counter
/// snapshots, which would bleed across jobs under K-way dispatch.
pub use dca_bench::WorkCounts as JobDeltas;

/// A parsed, validated figure request.
#[derive(Clone, Debug)]
pub struct FigureRequest {
    /// Figure id (`fig03`, `table1`, `sampling`, …).
    pub figure: String,
    /// Harness options, already parsed from the request's `args`.
    pub opts: RunOpts,
}

impl FigureRequest {
    /// Parses a `POST /v1/figures` body:
    /// `{"figure": "fig03", "args": ["--scale", "paper", ...]}`.
    ///
    /// Rejects unknown figures, malformed option values (naming the
    /// flag), unparsed leftover arguments, and any
    /// attempt to steer the server's own store or observability from
    /// a request (`--store-dir`, `--trace-out`, …) — those belong to
    /// whoever started the daemon.
    pub fn parse(payload: &[u8]) -> Result<FigureRequest, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
        let doc = json::parse(text)?;
        let figure = doc
            .get("figure")
            .and_then(Json::as_str)
            .ok_or("missing `figure`")?
            .to_string();
        if dca_bench::figures::by_name(&figure).is_none() {
            return Err(format!("unknown figure `{figure}`"));
        }
        let args: Vec<String> = match doc.get("args") {
            None => Vec::new(),
            Some(a) => a
                .as_array()
                .ok_or("`args` must be an array")?
                .iter()
                .map(|v| v.as_str().map(str::to_string).ok_or("`args` must hold strings"))
                .collect::<Result<_, _>>()?,
        };
        for &(forbidden, _) in dca_bench::SERVER_SIDE_FLAGS {
            if args.iter().any(|a| a == forbidden) {
                return Err(format!("`{forbidden}` is a server-side option"));
            }
        }
        let (opts, rest) = RunOpts::parse(args)?;
        if !rest.is_empty() {
            return Err(format!("unrecognised request options: {rest:?}"));
        }
        Ok(FigureRequest { figure, opts })
    }

    /// Renders a request payload (the client-side inverse of
    /// [`FigureRequest::parse`]).
    pub fn render_payload(figure: &str, args: &[String]) -> Vec<u8> {
        Json::Obj(vec![
            ("figure".to_string(), Json::Str(figure.to_string())),
            (
                "args".to_string(),
                Json::Arr(args.iter().map(|a| Json::Str(a.clone())).collect()),
            ),
        ])
        .render()
        .into_bytes()
    }

    /// Canonical identity of this request: figure id plus the
    /// *simulation-relevant* parsed options. Flag order, whitespace
    /// and client-side switches (verbosity) do not change the key.
    pub fn canonical_key(&self) -> String {
        format!("{}\u{1f}{}", self.figure, opts_key(&self.opts))
    }
}

/// Canonical rendering of the options that change simulation results
/// (and therefore Lab-cache identity). Everything else — quiet flags,
/// lock patience, store placement — is serving policy, not identity.
pub fn opts_key(o: &RunOpts) -> String {
    let sampling = match &o.sampling {
        None => Json::Null,
        Some(s) => Json::Obj(vec![
            ("period".to_string(), Json::U64(s.period)),
            ("warmup".to_string(), Json::U64(s.warmup)),
            ("interval".to_string(), Json::U64(s.interval)),
            (
                "target_stderr".to_string(),
                match s.target_stderr {
                    None => Json::Null,
                    Some(x) => Json::F64(x),
                },
            ),
            ("warming".to_string(), Json::Str(s.warming.name().to_string())),
        ]),
    };
    Json::Obj(vec![
        ("scale".to_string(), Json::Str(o.scale.name().to_string())),
        ("max_insts".to_string(), Json::U64(o.max_insts)),
        ("sampling".to_string(), sampling),
        ("warm_steering".to_string(), Json::Bool(o.warm_steering)),
    ])
    .render()
}

/// Builds one progress-stream line (one queued chunk of sample intervals).
pub fn progress_payload(
    job: u64,
    figure: &str,
    p: &dca_bench::RoundProgress,
    queue_depth: u64,
) -> Vec<u8> {
    Json::Obj(vec![
        ("job".to_string(), Json::U64(job)),
        ("figure".to_string(), Json::Str(figure.to_string())),
        ("round".to_string(), Json::U64(p.round)),
        ("batch".to_string(), Json::U64(p.batch)),
        ("remaining".to_string(), Json::U64(p.remaining)),
        (
            "intervals_per_sec_milli".to_string(),
            Json::U64(p.intervals_per_sec_milli),
        ),
        ("queue_depth".to_string(), Json::U64(queue_depth)),
    ])
    .render()
    .into_bytes()
}

/// The `GET /v1/ping` body: `{"proto":2,"server_proto":2}`.
pub fn ping_payload() -> Vec<u8> {
    Json::Obj(vec![
        ("proto".to_string(), Json::U64(PROTO_VERSION)),
        ("server_proto".to_string(), Json::U64(PROTO_VERSION)),
    ])
    .render()
    .into_bytes()
}

fn deltas_members(deltas: &JobDeltas) -> Vec<(String, Json)> {
    vec![
        ("warm".to_string(), Json::Bool(deltas.is_warm())),
        ("ff_insts".to_string(), Json::U64(deltas.ff_insts)),
        (
            "intervals_computed".to_string(),
            Json::U64(deltas.intervals_computed),
        ),
        (
            "intervals_from_store".to_string(),
            Json::U64(deltas.intervals_from_store),
        ),
        ("straight_runs".to_string(), Json::U64(deltas.straight_runs)),
    ]
}

/// Builds the final line of a progress stream: the job's summary
/// without the report (that comes from `/result`). Its `dedup` is
/// always `true`: a stream follows a job that was already submitted.
pub fn result_payload(outcome: &JobOutcome) -> Vec<u8> {
    let mut members = vec![("job".to_string(), Json::U64(outcome.job))];
    members.extend(outcome_members(outcome, true));
    Json::Obj(members).render().into_bytes()
}

fn outcome_members(outcome: &JobOutcome, dedup: bool) -> Vec<(String, Json)> {
    let mut members = vec![("key".to_string(), Json::Str(outcome.key.clone()))];
    match &outcome.result {
        Ok(figure) => {
            members.push(("figure".to_string(), Json::Str(figure.id.to_string())));
            members.push(("title".to_string(), Json::Str(figure.title.clone())));
        }
        Err(reason) => {
            members.push(("figure".to_string(), Json::Str(outcome.figure_name.clone())));
            members.push(("error".to_string(), Json::Str(reason.clone())));
        }
    }
    members.push(("dedup".to_string(), Json::Bool(dedup)));
    members.extend(deltas_members(&outcome.deltas));
    members.push(("elapsed_ms".to_string(), Json::U64(outcome.elapsed_ms)));
    members
}

/// Builds the HTTP submit response: the job id to poll, the canonical
/// key the request was deduplicated by, and whether it coalesced onto
/// an in-flight computation.
pub fn submit_payload(s: &SubmitOutcome) -> Vec<u8> {
    Json::Obj(vec![
        ("job".to_string(), Json::U64(s.job)),
        ("key".to_string(), Json::Str(s.key.clone())),
        ("dedup".to_string(), Json::Bool(s.dedup)),
        ("state".to_string(), Json::Str("queued".to_string())),
    ])
    .render()
    .into_bytes()
}

/// Builds the poll-style job-status body (`GET /v1/jobs/<id>`).
pub fn status_payload(job: u64, status: &JobStatus) -> Vec<u8> {
    match status {
        JobStatus::Queued { figure } => Json::Obj(vec![
            ("job".to_string(), Json::U64(job)),
            ("state".to_string(), Json::Str("queued".to_string())),
            ("figure".to_string(), Json::Str(figure.clone())),
        ])
        .render()
        .into_bytes(),
        JobStatus::Executing { figure, progress } => {
            let progress = match progress {
                None => Json::Null,
                Some((p, depth)) => Json::Obj(vec![
                    ("round".to_string(), Json::U64(p.round)),
                    ("batch".to_string(), Json::U64(p.batch)),
                    ("remaining".to_string(), Json::U64(p.remaining)),
                    (
                        "intervals_per_sec_milli".to_string(),
                        Json::U64(p.intervals_per_sec_milli),
                    ),
                    ("queue_depth".to_string(), Json::U64(*depth)),
                ]),
            };
            Json::Obj(vec![
                ("job".to_string(), Json::U64(job)),
                ("state".to_string(), Json::Str("executing".to_string())),
                ("figure".to_string(), Json::Str(figure.clone())),
                ("progress".to_string(), progress),
            ])
            .render()
            .into_bytes()
        }
        JobStatus::Done(outcome) => {
            let mut members = vec![
                ("job".to_string(), Json::U64(job)),
                ("state".to_string(), Json::Str("done".to_string())),
            ];
            members.extend(outcome_members(outcome, false));
            Json::Obj(members).render().into_bytes()
        }
    }
}

/// Builds an error body (and the error line of a progress stream).
pub fn error_payload(job: Option<u64>, message: &str) -> Vec<u8> {
    let mut members = Vec::new();
    if let Some(j) = job {
        members.push(("job".to_string(), Json::U64(j)));
    }
    members.push(("error".to_string(), Json::Str(message.to_string())));
    Json::Obj(members).render().into_bytes()
}

/// Builds the `GET /v1/stats` body from the live registry.
pub fn stats_payload() -> Vec<u8> {
    let m = dca_obs::metrics();
    Json::Obj(vec![
        ("requests".to_string(), Json::U64(m.serve_requests_total.get())),
        ("dedup_hits".to_string(), Json::U64(m.serve_dedup_hits_total.get())),
        ("results".to_string(), Json::U64(m.serve_results_total.get())),
        (
            "cancelled_jobs".to_string(),
            Json::U64(m.serve_cancelled_jobs_total.get()),
        ),
        ("clients".to_string(), Json::U64(m.serve_clients.get())),
        ("queue_depth".to_string(), Json::U64(m.serve_queue_depth.get())),
        ("active_jobs".to_string(), Json::U64(m.serve_active_jobs.get())),
        (
            "http_requests".to_string(),
            Json::U64(m.serve_http_requests_total.get()),
        ),
        (
            "http_rejected".to_string(),
            Json::U64(m.serve_http_rejected_total.get()),
        ),
        ("proto".to_string(), Json::U64(PROTO_VERSION)),
    ])
    .render()
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivalent_requests_share_a_key() {
        let a = FigureRequest::parse(
            br#"{"figure": "sampling", "args": ["--scale", "smoke", "--max-insts", "60000"]}"#,
        )
        .unwrap();
        let b = FigureRequest::parse(
            br#"{"figure": "sampling", "args": ["--max-insts", "60000", "--scale", "smoke"]}"#,
        )
        .unwrap();
        assert_eq!(a.canonical_key(), b.canonical_key(), "flag order is not identity");
        let c = FigureRequest::parse(
            br#"{"figure": "sampling", "args": ["--scale", "smoke", "--max-insts", "50000"]}"#,
        )
        .unwrap();
        assert_ne!(a.canonical_key(), c.canonical_key(), "budget is identity");
        let d = FigureRequest::parse(br#"{"figure": "fig03", "args": ["--scale", "smoke", "--max-insts", "60000"]}"#)
            .unwrap();
        assert_ne!(a.canonical_key(), d.canonical_key(), "figure is identity");
    }

    #[test]
    fn bad_requests_are_rejected_with_reasons() {
        for (payload, needle) in [
            (&b"\xff\xfe"[..], "UTF-8"),
            (br#"{"args": []}"#, "figure"),
            (br#"{"figure": "nope"}"#, "unknown figure"),
            (br#"{"figure": "sampling", "args": ["--bogus"]}"#, "unrecognised"),
            (
                br#"{"figure": "sampling", "args": ["--store-dir", "/tmp/x"]}"#,
                "server-side",
            ),
            (br#"{"figure": "sampling", "args": ["--scale", "huge"]}"#, "--scale"),
            (br#"{"figure": "sampling", "args": ["--max-insts", "lots"]}"#, "--max-insts"),
            (br#"{"figure": "sampling", "args": ["--sample-period", "0"]}"#, "--sample-period"),
        ] {
            let err = FigureRequest::parse(payload).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    /// Every entry of the shared refusal table is refused on the
    /// wire, with a message naming the flag and the reason, while the
    /// same flag still parses fine locally (the table is shared with
    /// `RunOpts::parse`, which accepts them).
    #[test]
    fn every_server_side_flag_is_refused_on_the_wire() {
        for &(flag, takes_value) in dca_bench::SERVER_SIDE_FLAGS {
            let mut args = vec![flag.to_string()];
            if takes_value {
                args.push("1".to_string());
            }
            let payload = FigureRequest::render_payload("sampling", &args);
            let err = FigureRequest::parse(&payload).unwrap_err();
            assert!(
                err.contains(flag) && err.contains("server-side"),
                "{flag}: got {err:?}"
            );
        }
    }

    /// The ping body is pinned byte for byte: clients and the
    /// benchmark read it as the daemon's version.
    #[test]
    fn ping_reports_the_protocol_version() {
        assert_eq!(ping_payload(), br#"{"proto":2,"server_proto":2}"#);
    }

    #[test]
    fn render_parse_round_trip() {
        let payload = FigureRequest::render_payload(
            "sampling",
            &["--scale".to_string(), "smoke".to_string()],
        );
        let req = FigureRequest::parse(&payload).unwrap();
        assert_eq!(req.figure, "sampling");
        assert_eq!(req.opts.scale.name(), "smoke");
    }
}
