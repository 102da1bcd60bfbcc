//! The transport-neutral serving core (DESIGN.md §14).
//!
//! Everything a front end needs to serve figure requests lives here,
//! with no knowledge of sockets or codecs:
//!
//! - [`Event`] — what a job tells its followers: progress rounds,
//!   the result, or the error that ended it.
//! - [`Session`] — one event-stream subscriber: a channel the core
//!   pushes [`Event`]s into. HTTP `?stream=1` requests are sessions;
//!   polling is not (it reads job state directly).
//! - [`Service`] — the scheduler: canonical-key dedup across every
//!   listener, per-client FIFO queues drained round-robin, K-way
//!   dispatch with per-options-key exclusivity, cancellation, and a
//!   bounded retention buffer of finished jobs for poll-style fronts.
//! - [`dispatcher`] — the execution loop, K instances of which run
//!   concurrently against one shared Lab pool. Per-job work deltas
//!   come from each Lab's own tally ([`Lab::work`]), so attribution
//!   stays exact no matter how many jobs run at once.
//!
//! ## Dedup and job identity
//!
//! Jobs are keyed by [`FigureRequest::canonical_key`]. A request
//! whose key matches a queued or executing job *attaches* to that job
//! instead of enqueueing a new one — one computation, N byte-identical
//! results — whichever listener the requests arrived on.
//!
//! ## K-way dispatch
//!
//! Up to K [`dispatcher`] loops pull from [`Service::next_job`]. Two
//! jobs whose options render to the same key
//! ([`crate::proto::opts_key`]) would need the same `&mut Lab`, so
//! `next_job` never dispatches a job whose options key is already
//! executing; everything else runs concurrently, sharing one
//! process-wide Lab worker budget ([`dca_bench::set_worker_budget`]).
//! Fairness is unchanged from the single-dispatcher design: the
//! eligible client at the front of the rotation is served and rotates
//! to the back.
//!
//! ## Cancellation and retention
//!
//! Every submit is detached: the job runs to completion whether or not
//! anyone follows it, and a session that disconnects is merely
//! unsubscribed. [`Service::cancel_job`] (`DELETE /v1/jobs/<id>`) is
//! the one way to cancel. Finished jobs are retained (bounded, FIFO
//! eviction) so pollers can fetch status and result after the fact.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dca_bench::{figures, Lab, RoundProgress};
use dca_store::Store;

use crate::proto::{self, FigureRequest, JobDeltas};

/// Job identifier, unique per daemon lifetime.
pub type JobId = u64;
/// Session identifier, unique per daemon lifetime.
pub type SessionId = u64;

/// Finished jobs kept for poll-style fronts (FIFO eviction).
const DONE_RETENTION: usize = 256;

/// A job event, pushed to every session following the job.
#[derive(Clone)]
pub enum Event {
    /// A sampling round is about to fan out on a subscribed job.
    Progress {
        /// The job making progress.
        job: JobId,
        /// Its figure id.
        figure: String,
        /// The Lab's round report.
        round: RoundProgress,
        /// Jobs queued behind this one, daemon-wide.
        queue_depth: u64,
    },
    /// A subscribed job finished successfully.
    Result {
        /// The finished job.
        job: JobId,
        /// Its outcome (shared with the retention buffer).
        outcome: Arc<JobOutcome>,
    },
    /// A subscribed job was cancelled.
    Error {
        /// The cancelled job.
        job: JobId,
        /// Human-readable reason.
        message: String,
    },
    /// The daemon is shutting down; the session's event stream ends
    /// here. Unblocks fronts parked in a channel receive.
    Shutdown,
}

/// Everything known about a finished job.
pub struct JobOutcome {
    /// The job id.
    pub job: JobId,
    /// Its canonical request key.
    pub key: String,
    /// The requested figure id.
    pub figure_name: String,
    /// The figure, or the reason the job died (cancellation).
    pub result: Result<figures::Figure, String>,
    /// Exact work attributed to this job (from the Lab's own tally).
    pub deltas: JobDeltas,
    /// Wall-clock execution time.
    pub elapsed_ms: u64,
}

/// Poll-style view of a job ([`Service::job_status`]).
pub enum JobStatus {
    /// Waiting in a client queue.
    Queued {
        /// The requested figure id.
        figure: String,
    },
    /// Executing in a dispatcher.
    Executing {
        /// The requested figure id.
        figure: String,
        /// Latest round progress, if any round has started.
        progress: Option<(RoundProgress, u64)>,
    },
    /// Finished (successfully or cancelled), still retained.
    Done(Arc<JobOutcome>),
}

/// One event-stream subscriber.
pub struct Session {
    id: SessionId,
    tx: Sender<Event>,
}

/// What a dispatcher runs.
pub struct Dispatch {
    /// The job id.
    pub job: JobId,
    /// The validated request.
    pub req: FigureRequest,
    /// The options key (Lab-pool slot; exclusive while executing).
    pub okey: String,
    /// Cooperative cancel token, checked by the Lab between rounds.
    pub cancel: Arc<AtomicBool>,
}

/// The result of a submit: job id, canonical key, dedup flag.
pub struct SubmitOutcome {
    /// The job this request landed on (new or attached).
    pub job: JobId,
    /// The request's canonical key.
    pub key: String,
    /// `true` when the request attached to an in-flight computation.
    pub dedup: bool,
}

struct Job {
    key: String,
    okey: String,
    /// The client key the job was queued under (fairness slot).
    client: String,
    req: FigureRequest,
    /// Event-stream subscribers in attach order.
    subs: Vec<(SessionId, Sender<Event>)>,
    cancel: Arc<AtomicBool>,
    executing: bool,
    progress: Option<(RoundProgress, u64)>,
}

#[derive(Default)]
struct State {
    sessions: HashMap<SessionId, Sender<Event>>,
    /// Round-robin rotation; invariant: exactly the clients with
    /// non-empty queues.
    rr: VecDeque<String>,
    /// Per-client FIFO of *queued* jobs (executing jobs live only in
    /// `jobs`).
    queues: HashMap<String, VecDeque<JobId>>,
    jobs: HashMap<JobId, Job>,
    /// Canonical key → queued-or-executing job (the dedup index).
    inflight: HashMap<String, JobId>,
    /// Options keys currently executing (Lab exclusivity).
    busy: HashSet<String>,
    /// Finished jobs, bounded by [`DONE_RETENTION`].
    done: HashMap<JobId, Arc<JobOutcome>>,
    done_order: VecDeque<JobId>,
    next_job: JobId,
    next_session: SessionId,
    shutdown: bool,
}

impl State {
    fn queue_depth(&self) -> u64 {
        self.queues.values().map(|q| q.len() as u64).sum()
    }

    fn publish_gauges(&self) {
        let m = dca_obs::metrics();
        m.serve_clients.set(self.sessions.len() as u64);
        m.serve_queue_depth.set(self.queue_depth());
        m.serve_active_jobs.set(self.busy.len() as u64);
    }

    /// Removes `jid` from its queue, maintaining the rotation
    /// invariant.
    fn unqueue(&mut self, jid: JobId, client: &str) {
        if let Some(q) = self.queues.get_mut(client) {
            q.retain(|&j| j != jid);
            if q.is_empty() {
                self.queues.remove(client);
                self.rr.retain(|c| c != client);
            }
        }
    }

    /// Retires a job into the bounded done buffer.
    fn retire(&mut self, outcome: Arc<JobOutcome>) {
        let jid = outcome.job;
        self.done.insert(jid, outcome);
        self.done_order.push_back(jid);
        while self.done_order.len() > DONE_RETENTION {
            if let Some(old) = self.done_order.pop_front() {
                self.done.remove(&old);
            }
        }
    }
}

/// The scheduling core. See the module docs for the model.
pub struct Service {
    state: Mutex<State>,
    cv: Condvar,
    /// Per-session unblock hooks (socket shutdowns) so server
    /// shutdown can interrupt fronts parked in blocking reads.
    unblockers: Mutex<HashMap<SessionId, Box<dyn Fn() + Send>>>,
}

impl Default for Service {
    fn default() -> Service {
        Service::new()
    }
}

impl Service {
    /// A fresh service with no sessions and no jobs.
    pub fn new() -> Service {
        Service {
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
            unblockers: Mutex::new(HashMap::new()),
        }
    }

    /// Opens an event-stream session. Events for every job the
    /// session subscribes to arrive on the returned receiver.
    pub fn open_session(&self) -> (Session, Receiver<Event>) {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut st = self.state.lock().unwrap();
        st.next_session += 1;
        let id = st.next_session;
        st.sessions.insert(id, tx.clone());
        st.publish_gauges();
        (Session { id, tx }, rx)
    }

    /// Closes a session: unsubscribes it from every job. The jobs
    /// themselves run on — only [`Service::cancel_job`] cancels.
    pub fn close_session(&self, sess: &Session) {
        let mut st = self.state.lock().unwrap();
        st.sessions.remove(&sess.id);
        for job in st.jobs.values_mut() {
            job.subs.retain(|(sid, _)| *sid != sess.id);
        }
        st.publish_gauges();
    }

    /// Cancels `jid` inside the lock: an executing job gets its token
    /// set (the dispatcher finishes it); a queued one is removed and
    /// retired as cancelled, its subscribers notified.
    fn abort_job(st: &mut State, jid: JobId, reason: &str) {
        let Some(job) = st.jobs.get(&jid) else { return };
        if job.executing {
            job.cancel.store(true, Ordering::Relaxed);
            return;
        }
        let job = st.jobs.remove(&jid).unwrap();
        st.inflight.remove(&job.key);
        let client = job.client.clone();
        st.unqueue(jid, &client);
        dca_obs::metrics().serve_cancelled_jobs_total.inc();
        for (_, tx) in &job.subs {
            let _ = tx.send(Event::Error {
                job: jid,
                message: reason.to_string(),
            });
        }
        st.retire(Arc::new(JobOutcome {
            job: jid,
            key: job.key,
            figure_name: job.req.figure,
            result: Err(reason.to_string()),
            deltas: JobDeltas::default(),
            elapsed_ms: 0,
        }));
    }

    /// Submits a figure request under the fairness key `client`. The
    /// job runs even when nobody follows it, and its outcome is
    /// retained for polling. A request whose canonical key matches a
    /// queued or executing job attaches to it instead (a dedup hit).
    pub fn submit(&self, client: &str, req: FigureRequest) -> SubmitOutcome {
        let key = req.canonical_key();
        let m = dca_obs::metrics();
        m.serve_requests_total.inc();
        let mut st = self.state.lock().unwrap();
        if let Some(&jid) = st.inflight.get(&key) {
            m.serve_dedup_hits_total.inc();
            return SubmitOutcome {
                job: jid,
                key,
                dedup: true,
            };
        }
        st.next_job += 1;
        let jid = st.next_job;
        let okey = proto::opts_key(&req.opts);
        st.jobs.insert(
            jid,
            Job {
                key: key.clone(),
                okey,
                client: client.to_string(),
                req,
                subs: Vec::new(),
                cancel: Arc::new(AtomicBool::new(false)),
                executing: false,
                progress: None,
            },
        );
        st.inflight.insert(key.clone(), jid);
        st.queues
            .entry(client.to_string())
            .or_default()
            .push_back(jid);
        if !st.rr.iter().any(|c| c == client) {
            st.rr.push_back(client.to_string());
        }
        st.publish_gauges();
        self.cv.notify_all();
        SubmitOutcome {
            job: jid,
            key,
            dedup: false,
        }
    }

    /// Attaches a session to an existing job's event stream (the HTTP
    /// `?stream=1` path). Not a dedup hit — it is a request following
    /// a job that was already submitted. A job already finished delivers
    /// its result (or cancellation error) immediately; unknown jobs
    /// return `false`.
    pub fn subscribe(&self, sess: &Session, jid: JobId) -> bool {
        let mut st = self.state.lock().unwrap();
        if let Some(job) = st.jobs.get_mut(&jid) {
            job.subs.push((sess.id, sess.tx.clone()));
            return true;
        }
        if let Some(outcome) = st.done.get(&jid) {
            let ev = match &outcome.result {
                Ok(_) => Event::Result {
                    job: jid,
                    outcome: Arc::clone(outcome),
                },
                Err(e) => Event::Error {
                    job: jid,
                    message: e.clone(),
                },
            };
            let _ = sess.tx.send(ev);
            return true;
        }
        false
    }

    /// Poll-style job state (queued / executing+progress / done), or
    /// `None` for ids never seen or evicted from retention.
    pub fn job_status(&self, jid: JobId) -> Option<JobStatus> {
        let st = self.state.lock().unwrap();
        if let Some(job) = st.jobs.get(&jid) {
            let figure = job.req.figure.clone();
            return Some(if job.executing {
                JobStatus::Executing {
                    figure,
                    progress: job.progress,
                }
            } else {
                JobStatus::Queued { figure }
            });
        }
        st.done.get(&jid).map(|o| JobStatus::Done(Arc::clone(o)))
    }

    /// Cancels a job: queued jobs are dropped and retired as
    /// cancelled, executing jobs get their token set. Returns `false`
    /// for jobs already finished or never seen.
    pub fn cancel_job(&self, jid: JobId) -> bool {
        let mut st = self.state.lock().unwrap();
        if !st.jobs.contains_key(&jid) {
            return false;
        }
        Self::abort_job(&mut st, jid, "cancelled");
        st.publish_gauges();
        self.cv.notify_all();
        true
    }

    /// Blocks until a job is ready or shutdown. Round-robin across
    /// client queues, FIFO within one client, skipping clients whose
    /// front job needs an options key that is already executing
    /// (Lab exclusivity under K-way dispatch).
    pub fn next_job(&self) -> Option<Dispatch> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.shutdown {
                return None;
            }
            let mut found = None;
            for (i, client) in st.rr.iter().enumerate() {
                let Some(&jid) = st.queues.get(client).and_then(|q| q.front()) else {
                    continue;
                };
                if st.busy.contains(&st.jobs[&jid].okey) {
                    continue;
                }
                found = Some(i);
                break;
            }
            match found {
                Some(i) => {
                    let client = st.rr.remove(i).expect("index from enumerate");
                    let q = st.queues.get_mut(&client).expect("rotation invariant");
                    let jid = q.pop_front().expect("checked front above");
                    if q.is_empty() {
                        st.queues.remove(&client);
                    } else {
                        // Served: rotate to the back.
                        st.rr.push_back(client);
                    }
                    let job = st.jobs.get_mut(&jid).expect("queued job exists");
                    job.executing = true;
                    let d = Dispatch {
                        job: jid,
                        req: job.req.clone(),
                        okey: job.okey.clone(),
                        cancel: Arc::clone(&job.cancel),
                    };
                    st.busy.insert(d.okey.clone());
                    st.publish_gauges();
                    return Some(d);
                }
                None => st = self.cv.wait(st).unwrap(),
            }
        }
    }

    /// Publishes round progress for an executing job: remembers it
    /// for pollers and fans it to every subscriber.
    pub fn publish_progress(&self, jid: JobId, p: &RoundProgress) {
        let mut st = self.state.lock().unwrap();
        let depth = st.queue_depth();
        let Some(job) = st.jobs.get_mut(&jid) else { return };
        job.progress = Some((*p, depth));
        let figure = job.req.figure.clone();
        let subs: Vec<Sender<Event>> = job.subs.iter().map(|(_, tx)| tx.clone()).collect();
        drop(st);
        for tx in subs {
            let _ = tx.send(Event::Progress {
                job: jid,
                figure: figure.clone(),
                round: *p,
                queue_depth: depth,
            });
        }
    }

    /// Completes a job: frees its options key, retires the outcome
    /// into the poll buffer, and fans the result (or the cancellation
    /// error) to every subscriber.
    pub fn finish_job(
        &self,
        jid: JobId,
        result: Result<figures::Figure, String>,
        deltas: JobDeltas,
        elapsed: Duration,
    ) {
        let mut st = self.state.lock().unwrap();
        let Some(job) = st.jobs.remove(&jid) else { return };
        st.inflight.remove(&job.key);
        st.busy.remove(&job.okey);
        let outcome = Arc::new(JobOutcome {
            job: jid,
            key: job.key.clone(),
            figure_name: job.req.figure.clone(),
            result,
            deltas,
            elapsed_ms: elapsed.as_millis() as u64,
        });
        st.retire(Arc::clone(&outcome));
        st.publish_gauges();
        // The freed options key may unblock a queued job.
        self.cv.notify_all();
        drop(st);
        let m = dca_obs::metrics();
        match &outcome.result {
            Err(reason) => {
                m.serve_cancelled_jobs_total.inc();
                for (_, tx) in &job.subs {
                    let _ = tx.send(Event::Error {
                        job: jid,
                        message: reason.clone(),
                    });
                }
            }
            Ok(_) => {
                for (_, tx) in &job.subs {
                    m.serve_results_total.inc();
                    let _ = tx.send(Event::Result {
                        job: jid,
                        outcome: Arc::clone(&outcome),
                    });
                }
            }
        }
    }

    /// Starts shutdown: wakes the dispatchers (which then drain and
    /// exit), cancels executing jobs at their next round boundary,
    /// and ends every session's event stream with [`Event::Shutdown`].
    pub fn begin_shutdown(&self) {
        let mut st = self.state.lock().unwrap();
        st.shutdown = true;
        for job in st.jobs.values() {
            if job.executing {
                job.cancel.store(true, Ordering::Relaxed);
            }
        }
        for tx in st.sessions.values() {
            let _ = tx.send(Event::Shutdown);
        }
        self.cv.notify_all();
    }

    /// Has [`Service::begin_shutdown`] run?
    pub fn is_shutdown(&self) -> bool {
        self.state.lock().unwrap().shutdown
    }

    /// Allocates a unique id from the session counter — for
    /// connections that need an unblocker slot without an event
    /// stream (HTTP keep-alive connections between requests).
    pub fn alloc_id(&self) -> u64 {
        let mut st = self.state.lock().unwrap();
        st.next_session += 1;
        st.next_session
    }

    /// Registers a hook that unblocks `sid`'s front if it is parked
    /// in a blocking socket read (typically a socket-shutdown
    /// closure). Cleared with [`Service::drop_unblocker`].
    pub fn set_unblocker(&self, sid: SessionId, f: Box<dyn Fn() + Send>) {
        self.unblockers.lock().unwrap().insert(sid, f);
    }

    /// Removes a session's unblock hook.
    pub fn drop_unblocker(&self, sid: SessionId) {
        self.unblockers.lock().unwrap().remove(&sid);
    }

    /// Runs every registered unblock hook (server shutdown).
    pub fn unblock_all(&self) {
        for f in self.unblockers.lock().unwrap().values() {
            f();
        }
    }
}

/// One dispatcher loop: pulls jobs, runs them against the shared Lab
/// pool, reports exact per-job deltas from the Lab's own work tally.
/// `dca serve --jobs K` runs K of these concurrently; [`Service`]
/// guarantees no two hold the same options key at once, so taking a
/// Lab *out* of the pool for the duration of a job is race-free.
pub fn dispatcher(
    service: Arc<Service>,
    store: Option<Store>,
    labs: Arc<Mutex<HashMap<String, Lab>>>,
) {
    while let Some(d) = service.next_job() {
        let mut lab = labs.lock().unwrap().remove(&d.okey).unwrap_or_else(|| {
            let mut opts = d.req.opts.clone();
            // The daemon owns persistence and output: one shared Store
            // handle (cloned, same instrumented I/O), no per-job
            // stdout/trace noise, whatever the client asked for.
            opts.store_dir = None;
            opts.quiet = true;
            opts.verbose = false;
            opts.trace_out = None;
            opts.metrics_out = None;
            match &store {
                Some(s) => Lab::with_store(opts, s.clone()),
                None => Lab::new(opts),
            }
        });
        lab.set_cancel(Some(Arc::clone(&d.cancel)));
        let hook_service = Arc::clone(&service);
        let jid = d.job;
        lab.set_round_hook(Some(Box::new(move |p| hook_service.publish_progress(jid, p))));
        let figfn = figures::by_name(&d.req.figure).expect("validated at parse");
        let before = lab.work();
        let t0 = Instant::now();
        let figure = figfn(&mut lab);
        let deltas = lab.work().since(&before);
        lab.set_round_hook(None);
        lab.set_cancel(None);
        let cancelled = d.cancel.load(Ordering::Relaxed);
        if !cancelled {
            // The Lab (with its warmed memo) goes back in the pool; a
            // cancelled Lab's caches hold partial merges and are
            // dropped — completed intervals already live in the store
            // as a reusable prefix.
            labs.lock().unwrap().insert(d.okey.clone(), lab);
        }
        let result = if cancelled {
            Err("cancelled".to_string())
        } else {
            Ok(figure)
        };
        service.finish_job(d.job, result, deltas, t0.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

    fn req(figure: &str, args: &[&str]) -> FigureRequest {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        FigureRequest::parse(&FigureRequest::render_payload(figure, &args)).unwrap()
    }

    /// Dedup at the Service layer, across clients: identical
    /// canonical requests collapse onto one job whatever client key
    /// (connection) they arrived under.
    #[test]
    fn identical_inflight_requests_share_one_job() {
        let svc = Service::new();
        let r = req("sampling", &["--scale", "smoke"]);
        let s1 = svc.submit("http/1", r.clone());
        let s2 = svc.submit("http/2", r.clone());
        assert_eq!(s1.job, s2.job, "same canonical request: same job");
        assert!(!s1.dedup && s2.dedup);
        let s3 = svc.submit("http/9", r);
        assert_eq!(s3.job, s1.job);
        assert!(s3.dedup);
        let s4 = svc.submit("http/1", req("sampling", &["--scale", "default"]));
        assert_ne!(s4.job, s1.job);
        assert!(!s4.dedup);
        let st = svc.state.lock().unwrap();
        assert_eq!(st.queue_depth(), 2, "two distinct jobs queued");
    }

    /// Round-robin fairness across client keys: with client 1
    /// queueing two jobs before client 2's single job arrives,
    /// dispatch interleaves (1, 2, 1). Distinct budgets keep the
    /// options keys distinct, so dispatch order is pure fairness, not
    /// exclusivity.
    #[test]
    fn dispatch_interleaves_clients() {
        let svc = Service::new();
        let a = svc
            .submit("http/1", req("fig03", &["--scale", "smoke", "--max-insts", "60000"]))
            .job;
        let b = svc
            .submit("http/1", req("fig04", &["--scale", "smoke", "--max-insts", "50000"]))
            .job;
        let c = svc
            .submit("http/2", req("fig05", &["--scale", "smoke", "--max-insts", "40000"]))
            .job;
        let order: Vec<JobId> = (0..3).map(|_| svc.next_job().unwrap().job).collect();
        assert_eq!(order, vec![a, c, b], "second client is not starved");
    }

    /// Two queued jobs that share an options key never execute
    /// concurrently: the second dispatch blocks until the first
    /// finishes, then proceeds (Lab exclusivity under K-way dispatch).
    #[test]
    fn same_options_key_is_exclusive() {
        let svc = Arc::new(Service::new());
        // Same opts → same okey; different figures → different jobs.
        let a = svc.submit("http/1", req("fig03", &["--scale", "smoke"]));
        let b = svc.submit("http/2", req("fig04", &["--scale", "smoke"]));
        assert_ne!(a.job, b.job);
        let first = svc.next_job().unwrap();
        assert_eq!(first.job, a.job);
        // A second dispatcher must not receive b while a executes.
        let (tx, rx) = std::sync::mpsc::channel();
        let svc2 = Arc::clone(&svc);
        let t = std::thread::spawn(move || {
            let d = svc2.next_job();
            let _ = tx.send(d.as_ref().map(|d| d.job));
        });
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(200)),
            Err(RecvTimeoutError::Timeout),
            "job with a busy options key must wait"
        );
        svc.finish_job(
            first.job,
            Ok(figures::Figure::default()),
            JobDeltas::default(),
            Duration::ZERO,
        );
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Some(b.job),
            "freed options key unblocks the waiter"
        );
        t.join().unwrap();
    }

    /// A stream subscriber that disconnects is only unsubscribed: its
    /// job stays queued, dispatches, and still delivers its result to
    /// the subscribers that remain.
    #[test]
    fn closing_a_session_never_cancels_its_job() {
        let svc = Service::new();
        let jid = svc.submit("http/1", req("fig03", &["--scale", "smoke"])).job;
        let (gone, _rx_gone) = svc.open_session();
        let (stays, rx_stays) = svc.open_session();
        assert!(svc.subscribe(&gone, jid) && svc.subscribe(&stays, jid));
        svc.close_session(&gone);
        let d = svc.next_job().expect("job survives its follower");
        assert_eq!(d.job, jid);
        assert!(!d.cancel.load(Ordering::Relaxed), "no cancel on disconnect");
        svc.finish_job(jid, Ok(figures::Figure::default()), JobDeltas::default(), Duration::ZERO);
        assert!(matches!(
            rx_stays.recv_timeout(Duration::from_secs(5)),
            Ok(Event::Result { job, .. }) if job == jid
        ));
        assert!(!svc.subscribe(&stays, 99_999), "unknown jobs are refused");
    }

    /// An executing job cancelled explicitly gets its cancel token set
    /// rather than being dropped mid-flight; the dispatcher reaps it
    /// via `finish_job(Err)` and pollers see the cancellation.
    #[test]
    fn executing_job_is_cancelled_not_dropped() {
        let svc = Service::new();
        let jid = svc.submit("http/1", req("sampling", &["--scale", "smoke"])).job;
        let d = svc.next_job().unwrap();
        assert_eq!(d.job, jid);
        assert!(!d.cancel.load(Ordering::Relaxed));
        assert!(svc.cancel_job(jid));
        assert!(d.cancel.load(Ordering::Relaxed), "token set by cancel");
        assert!(
            svc.state.lock().unwrap().jobs.contains_key(&jid),
            "reaped by the dispatcher, not here"
        );
        svc.finish_job(jid, Err("cancelled".into()), JobDeltas::default(), Duration::ZERO);
        match svc.job_status(jid) {
            Some(JobStatus::Done(o)) => assert_eq!(o.result.as_ref().unwrap_err(), "cancelled"),
            _ => panic!("finished job should be retained"),
        }
    }

    /// The job lifecycle end to end at the state level: submit, poll
    /// queued → executing → done, fetch the outcome, and explicit
    /// cancel of a queued job.
    #[test]
    fn jobs_poll_through_their_lifecycle() {
        let svc = Service::new();
        let sub = svc.submit("http/1", req("fig03", &["--scale", "smoke"]));
        assert!(matches!(
            svc.job_status(sub.job),
            Some(JobStatus::Queued { .. })
        ));
        let d = svc.next_job().unwrap();
        assert!(matches!(
            svc.job_status(sub.job),
            Some(JobStatus::Executing { .. })
        ));
        let fig = figures::Figure {
            id: "fig03",
            title: "t".into(),
            body: "b".into(),
            timing: None,
        };
        svc.finish_job(d.job, Ok(fig), JobDeltas::default(), Duration::ZERO);
        match svc.job_status(sub.job) {
            Some(JobStatus::Done(o)) => {
                assert_eq!(o.key, sub.key);
                assert_eq!(o.result.as_ref().unwrap().body, "b");
            }
            _ => panic!("outcome retained for polling"),
        }
        // Explicit cancel of a fresh queued job.
        let j2 = svc.submit("http/1", req("fig04", &["--scale", "smoke"]));
        assert!(svc.cancel_job(j2.job));
        match svc.job_status(j2.job) {
            Some(JobStatus::Done(o)) => assert!(o.result.is_err()),
            _ => panic!("cancelled job should be retained as done"),
        }
        assert!(!svc.cancel_job(j2.job), "already finished");
        assert!(!svc.cancel_job(99_999), "unknown job");
    }
}
