//! `dca-serve` — a long-lived simulation service (DESIGN.md §13–14).
//!
//! `dca serve` turns the experiment harness into a daemon that speaks
//! one protocol, HTTP/1.1, on every listener: the unix socket or TCP
//! address of `--listen` and the TCP address of `--http-addr`. The
//! crate is layered so the protocol and the policy stay independent:
//!
//! - [`service`] — the transport-neutral core: canonical job keys,
//!   progress subscribers, fair scheduling, K-way dispatch with
//!   per-options-key Lab exclusivity, bounded retention of finished
//!   jobs.
//! - [`http`] — a hand-rolled, totality-swept HTTP/1.1 front over the
//!   core: `POST /v1/figures`, job polling, chunked progress streams,
//!   Prometheus `/v1/metrics`.
//! - [`net`] — listeners and connections over unix and TCP sockets.
//! - [`server`] — binds the listeners and runs one accept loop each.
//! - [`proto`] — the JSON payload codecs (`dca_obs::json`).
//! - [`client`] — `dca client`.
//!
//! The core gives every listener the same guarantees:
//!
//! - **deduplication** — identical in-flight requests coalesce onto
//!   one computation whichever listener they arrived on, and every
//!   client gets the byte-identical report;
//! - **fair scheduling** — round-robin across clients, so a batch
//!   client queueing many figures cannot starve an interactive one;
//! - **progress streams** — per-chunk sampling events carrying the
//!   live intervals/second gauge from `dca-obs`;
//! - **warm results** with zero recompute — the shared
//!   [`dca_store::Store`] (one handle, cloned per Lab) makes a repeat
//!   of yesterday's figure a pure read path, and the result summary
//!   says so (`warm: true`, `ff_insts: 0`).
//!
//! No dependencies are added: HTTP and JSON are hand-rolled in the
//! style of the store container (explicit error taxonomies, totality
//! sweeps in the test suite).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod net;
pub mod proto;
pub mod server;
pub mod service;

pub use client::{run_client, ClientOpts, Mode};
pub use server::{serve, serve_with, Bound, ServeOpts};
pub use service::{Event, Service};

/// `dca serve [--listen ADDR] [--http-addr ADDR] [--jobs K]
/// [--store-dir DIR | --no-store] [-q|--verbose]`.
pub fn cmd_serve(args: Vec<String>) -> Result<(), String> {
    let mut opts = ServeOpts::default();
    let mut obs = dca_bench::RunOpts::default();
    let mut args = args;
    opts.listen = take(&mut args, "--listen")?.unwrap_or_else(|| ".dca-serve.sock".into());
    opts.http_addr = take(&mut args, "--http-addr")?;
    if let Some(k) = take_u64(&mut args, "--jobs")? {
        if k == 0 {
            return Err("--jobs needs at least 1".into());
        }
        opts.jobs = k as usize;
    }
    if let Some(dir) = take(&mut args, "--store-dir")? {
        opts.store_dir = Some(dir.into());
    }
    if switch(&mut args, "--no-store") {
        opts.store_dir = None;
    }
    obs.quiet = switch(&mut args, "-q") || switch(&mut args, "--quiet");
    obs.verbose = switch(&mut args, "--verbose");
    finish(args, "serve")?;
    obs.apply_observability();
    serve(opts)
}

/// `dca client [--addr ADDR] (--figure ID [-- ARGS..] |
/// --ping | --stats | --shutdown) [--out FILE] [--json]
/// [--json-out FILE] [-q]`.
pub fn cmd_client(args: Vec<String>) -> Result<(), String> {
    let mut args = args;
    // Everything after `--` is forwarded to the server as harness
    // options for the requested figure.
    let fwd = match args.iter().position(|a| a == "--") {
        Some(i) => {
            let tail = args.split_off(i + 1);
            args.pop();
            tail
        }
        None => Vec::new(),
    };
    let addr = take(&mut args, "--addr")?.unwrap_or_else(|| ".dca-serve.sock".into());
    let out = take(&mut args, "--out")?.map(Into::into);
    let json = switch(&mut args, "--json");
    let json_out = take(&mut args, "--json-out")?.map(Into::into);
    let quiet = switch(&mut args, "-q") || switch(&mut args, "--quiet");
    let figure = take(&mut args, "--figure")?;
    let mode = if let Some(figure) = figure {
        Mode::Figure { figure, args: fwd }
    } else if switch(&mut args, "--ping") {
        Mode::Ping
    } else if switch(&mut args, "--stats") {
        Mode::Stats
    } else if switch(&mut args, "--shutdown") {
        Mode::Shutdown
    } else {
        return Err("need --figure ID, --ping, --stats or --shutdown".into());
    };
    finish(args, "client")?;
    let obs = dca_bench::RunOpts {
        quiet,
        ..Default::default()
    };
    obs.apply_observability();
    run_client(&ClientOpts {
        addr,
        mode,
        out,
        json,
        json_out,
        quiet,
    })
}

fn take(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    args.remove(i);
    Ok(Some(args.remove(i)))
}

fn take_u64(args: &mut Vec<String>, flag: &str) -> Result<Option<u64>, String> {
    take(args, flag)?
        .map(|v| v.parse().map_err(|_| format!("{flag} needs a number, got `{v}`")))
        .transpose()
}

fn switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn finish(args: Vec<String>, context: &str) -> Result<(), String> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(format!("unrecognised arguments for {context}: {args:?}"))
    }
}
