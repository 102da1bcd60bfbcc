//! Daemon assembly: bind the listeners, spawn the accept loops and
//! the dispatchers, wire them all to one [`Service`] core.
//!
//! ## Threads
//!
//! - **one accept loop per listener** — the unix socket or TCP
//!   address of `--listen`, plus the TCP address of `--http-addr` when
//!   set. Every listener speaks HTTP/1.1: each accepted connection
//!   gets one session thread of the [`crate::http`] front.
//! - **K dispatchers** (`--jobs K`): each runs
//!   [`crate::service::dispatcher`] against the shared Lab pool. The
//!   core never hands two dispatchers jobs with the same options key,
//!   so a Lab is owned by at most one job at a time; all jobs share
//!   one process-wide Lab *worker* budget
//!   ([`dca_bench::set_worker_budget`]), so `--jobs 4` does not
//!   quadruple thread pressure.
//!
//! Shutdown (`POST /v1/shutdown` on any listener) flips the core's
//! flag, wakes every accept loop by self-connection, shuts every
//! parked session socket down, and joins everything — no leaked
//! sockets, locks, or temp files (asserted after every shutdown in
//! `tests/http.rs`).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use dca_obs::progress;
use dca_store::Store;

use crate::http;
use crate::net::Listener;
use crate::service::{dispatcher, Service};

/// Server configuration (the `dca serve` flags).
#[derive(Clone, Debug)]
pub struct ServeOpts {
    /// Listen address: a Unix socket path or `host:port`
    /// (see [`crate::net::is_unix`]).
    pub listen: String,
    /// Additional TCP listen address (`--http-addr`).
    pub http_addr: Option<String>,
    /// Concurrent jobs (`--jobs`); clamped to at least 1.
    pub jobs: usize,
    /// Store directory shared by every job; `None` serves storeless.
    pub store_dir: Option<PathBuf>,
}

impl Default for ServeOpts {
    fn default() -> ServeOpts {
        ServeOpts {
            listen: "127.0.0.1:0".to_string(),
            http_addr: None,
            jobs: 1,
            store_dir: Some(PathBuf::from(".dca-store")),
        }
    }
}

/// The daemon's bound addresses in connectable form (`:0` TCP ports
/// resolved): `--listen` first, then `--http-addr` when set.
pub type Bound = Vec<String>;

/// What every accept loop shares.
struct Front {
    service: Arc<Service>,
    /// Session threads from every listener, joined after shutdown.
    sessions: Mutex<Vec<JoinHandle<()>>>,
    /// Connection counter shared by every listener so client keys
    /// stay unique daemon-wide.
    next_client: AtomicU64,
    /// Self-connect targets that wake the accept loops at shutdown.
    wake_addrs: Bound,
}

/// Accepts connections on one listener until shutdown, one HTTP
/// session thread each. Dropping the listener on return unlinks a
/// unix socket.
fn accept_loop(listener: Listener, front: Arc<Front>) {
    loop {
        let conn = match listener.accept() {
            Ok(c) => c,
            Err(e) => {
                if front.service.is_shutdown() {
                    return;
                }
                progress::warn(format!("serve: accept on {}: {e}", listener.local_addr()));
                continue;
            }
        };
        if front.service.is_shutdown() {
            return; // the shutdown self-connection
        }
        let client = front.next_client.fetch_add(1, Ordering::Relaxed) + 1;
        let f = Arc::clone(&front);
        front
            .sessions
            .lock()
            .unwrap()
            .push(std::thread::spawn(move || {
                http::http_session(&f.service, conn, client, &f.wake_addrs)
            }));
    }
}

/// Runs the daemon until a client asks for shutdown
/// (`POST /v1/shutdown`). Bound addresses are reported via `on_bound`
/// before the first accept (tests bind `127.0.0.1:0` and need the
/// resolved ports).
pub fn serve_with(opts: ServeOpts, on_bound: impl FnOnce(&Bound)) -> Result<(), String> {
    let listeners = std::iter::once(&opts.listen)
        .chain(&opts.http_addr)
        .map(|addr| Listener::bind(addr).map_err(|e| format!("bind {addr}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let bound: Bound = listeners.iter().map(Listener::local_addr).collect();
    on_bound(&bound);
    let store = opts.store_dir.as_ref().map(Store::open);
    progress::info(format!(
        "serve: listening on {} (store: {}, jobs: {})",
        bound[0],
        opts.store_dir
            .as_ref()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "disabled".to_string()),
        opts.jobs.max(1),
    ));
    if let Some(http) = bound.get(1) {
        progress::info(format!("serve: http on {http}"));
    }
    let service = Arc::new(Service::new());
    let labs = Arc::new(Mutex::new(HashMap::new()));
    let dispatchers: Vec<_> = (0..opts.jobs.max(1))
        .map(|_| {
            let service = Arc::clone(&service);
            let store = store.clone();
            let labs = Arc::clone(&labs);
            std::thread::spawn(move || dispatcher(service, store, labs))
        })
        .collect();
    let front = Arc::new(Front {
        service: Arc::clone(&service),
        sessions: Mutex::new(Vec::new()),
        next_client: AtomicU64::new(0),
        wake_addrs: bound,
    });
    let accepts: Vec<_> = listeners
        .into_iter()
        .map(|l| {
            let front = Arc::clone(&front);
            std::thread::spawn(move || accept_loop(l, front))
        })
        .collect();
    for a in accepts {
        let _ = a.join();
    }
    // Unblock every session still parked in a read, then join all.
    service.unblock_all();
    let handles: Vec<_> = std::mem::take(&mut *front.sessions.lock().unwrap());
    for s in handles {
        let _ = s.join();
    }
    for d in dispatchers {
        let _ = d.join();
    }
    progress::info("serve: clean shutdown");
    Ok(())
}

/// [`serve_with`] without the bound-address callback.
pub fn serve(opts: ServeOpts) -> Result<(), String> {
    serve_with(opts, |_| {})
}
