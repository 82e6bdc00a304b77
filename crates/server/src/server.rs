//! The resident server: listeners, connection handlers, the scheduler
//! thread, quotas, counters, and graceful shutdown.
//!
//! Threading model: one acceptor thread per listener (unix socket, loopback
//! TCP), one short-lived handler thread per connection, and a single
//! scheduler thread that pops the [`SubmissionQueue`] and drives the engine
//! via [`engine::execute`], forwarding each result frame through the
//! submission's channel as it completes.  One scheduler means queued
//! submissions run strictly in priority order and each one gets the
//! server's full worker budget — throughput *within* a submission comes
//! from the engine's own worker pool, not from racing submissions.

use crate::cache::ResultCache;
use crate::protocol::{
    read_line, write_line, Accepted, Done, ErrorFrame, Frame, JobFrame, Request, ShutdownAck,
    SubmitRequest,
};
use crate::queue::{Event, Queued, Submission, SubmissionQueue};
use engine::{CancelToken, JobList, Registry, RunOptions};
use metrics::{Histogram, MetricsReport};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tracelog::Trace;

/// Report kind tag of the server's counters payload.
pub const REPORT_KIND: &str = "server";

/// How long an acceptor sleeps between polls of a quiet listener (also the
/// shutdown-latency bound of an idle acceptor).
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// How long a connection may sit idle before sending its request.  The
/// protocol is one request per connection, sent immediately; the timeout
/// only guards shutdown against a stuck peer.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Configuration of a [`Server`].
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Unix-domain socket path to listen on (a stale file at the path is
    /// replaced).
    pub unix_socket: Option<PathBuf>,
    /// Loopback TCP address to listen on, e.g. `127.0.0.1:7807` (port `0`
    /// picks a free port — see [`Server::tcp_addr`]).  Non-loopback
    /// addresses are refused: the protocol has no authentication.
    pub tcp: Option<String>,
    /// Per-client job quota: the maximum jobs a client may have queued or
    /// running at once (`0` = unlimited).  Cache hits never count — they
    /// consume no engine capacity.
    pub quota: usize,
    /// Default engine worker count for submissions that do not name one
    /// (`0` = one per available hardware thread).
    pub workers: usize,
    /// Result-cache entry budget: least recently used entries are evicted
    /// past this many (`0` = unlimited).
    pub cache_max_entries: usize,
    /// Result-cache byte budget, in serialized frame bytes (`0` =
    /// unlimited).
    pub cache_max_bytes: u64,
    /// Directory the result cache persists into (`None` = memory only).
    /// Attached at startup: surviving entries are reloaded, corrupt ones
    /// skipped and counted — see [`ResultCache::attach_dir`].
    pub cache_dir: Option<PathBuf>,
    /// Submission-queue bound for load shedding (`0` = unbounded).  A
    /// submission arriving while this many are already queued is refused
    /// with a terminal [`ErrorFrame::OVERLOADED`]; cache hits are never
    /// shed — they bypass the queue entirely.
    pub queue_max: usize,
    /// Plugin registry the scheduler resolves prefetcher specs through
    /// (`None` = the built-ins).  Lets embedders and the chaos harness
    /// serve custom plugins.
    pub registry: Option<Arc<Registry>>,
    /// Pipeline trace the server records into: per-submission lifecycle
    /// spans, cache hit/miss events and a queue-depth counter, plus the
    /// engine's own spans for every scheduled run.  Disabled by default, and
    /// then it records nothing (see `tracelog`).
    pub trace: Trace,
}

impl ServerConfig {
    /// The registry specs resolve through: [`registry`](Self::registry) or
    /// the built-ins.
    fn plugins(&self) -> &Registry {
        self.registry
            .as_deref()
            .unwrap_or_else(|| Registry::builtin())
    }
}

/// An error starting a [`Server`].
#[derive(Debug)]
pub enum ServerError {
    /// The configuration is unusable (no endpoint, non-loopback TCP, ...).
    Config(String),
    /// A listener failed to bind.
    Io(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Config(message) => write!(f, "server configuration: {message}"),
            ServerError::Io(message) => write!(f, "server I/O: {message}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// One client's live quota usage, reported in [`ServerMetrics::clients`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientUsage {
    /// Client identity as given at submission.
    pub client: String,
    /// Jobs this client currently has queued or running.
    pub active_jobs: u64,
}

/// The server's counters, exported through the standard [`MetricsReport`]
/// envelope as kind [`REPORT_KIND`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ServerMetrics {
    /// Submissions currently waiting in the queue.
    pub queue_depth: u64,
    /// Highest queue depth observed.
    pub max_queue_depth: u64,
    /// Submissions currently being executed by the scheduler (0 or 1).
    pub running: u64,
    /// Submit requests accepted (cache hits included).
    pub submissions: u64,
    /// Jobs executed by the engine on behalf of submissions.
    pub jobs_served: u64,
    /// Result frames streamed to clients (engine runs plus cache replays).
    pub results_streamed: u64,
    /// Submissions answered from the result cache.
    pub cache_hits: u64,
    /// Submissions that missed the cache and ran.
    pub cache_misses: u64,
    /// Distinct fingerprints currently resident in the cache.
    pub cache_entries: u64,
    /// Serialized bytes currently resident in the cache.
    pub cache_bytes: u64,
    /// Cache entries evicted to hold the configured budgets.
    pub cache_evictions: u64,
    /// Serialized bytes reclaimed by cache evictions.
    pub cache_evicted_bytes: u64,
    /// Cache entries reloaded from the persistence directory at startup.
    pub cache_loaded: u64,
    /// Corrupt or truncated cache files skipped at startup.
    pub cache_load_skipped: u64,
    /// Cache entry writes that failed (persistence is best-effort).
    pub cache_persist_failures: u64,
    /// Submissions refused because they would exceed the client's quota.
    pub quota_rejections: u64,
    /// Submissions shed because the queue was at its configured bound.
    pub overload_rejections: u64,
    /// Submissions cancelled because their deadline passed.
    pub deadline_cancellations: u64,
    /// Submissions cancelled because their client disconnected mid-stream.
    pub disconnect_cancellations: u64,
    /// Queue-wait latency distribution: microseconds from admission to the
    /// scheduler starting the submission (cache hits never queue and never
    /// land here).
    pub queue_wait_us: Histogram,
    /// Per-client live quota usage, sorted by client identity.
    pub clients: Vec<ClientUsage>,
}

impl ServerMetrics {
    /// Wraps the counters in the standard envelope.
    pub fn report(&self) -> MetricsReport {
        MetricsReport::new(REPORT_KIND, self)
    }
}

/// Mutable server state behind the state mutex.
#[derive(Debug, Default)]
struct State {
    queue: SubmissionQueue,
    next_seq: u64,
    shutting_down: bool,
    /// Jobs queued or running per client, for quota accounting.
    active: HashMap<String, u64>,
    submissions: u64,
    jobs_served: u64,
    results_streamed: u64,
    quota_rejections: u64,
    overload_rejections: u64,
    deadline_cancellations: u64,
    disconnect_cancellations: u64,
    max_queue_depth: u64,
    /// Submissions the scheduler is currently executing (0 or 1).
    running: u64,
    /// Admission-to-start queue-wait latency, microseconds.
    queue_wait_us: Histogram,
}

/// State shared by every server thread.
struct Shared {
    config: ServerConfig,
    state: Mutex<State>,
    queue_cv: Condvar,
    cache: Mutex<ResultCache>,
    /// Lock-free mirror of `State::shutting_down` for acceptor polling.
    shutdown: AtomicBool,
    /// Connection handler threads, joined on shutdown so in-flight replies
    /// finish before the process exits.
    connections: Mutex<Vec<JoinHandle<()>>>,
}

impl fmt::Debug for Shared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Shared {
    fn metrics(&self) -> ServerMetrics {
        let state = self.state.lock().expect("state mutex poisoned");
        let cache = self.cache.lock().expect("cache mutex poisoned");
        let mut clients: Vec<ClientUsage> = state
            .active
            .iter()
            .map(|(client, &active_jobs)| ClientUsage {
                client: client.clone(),
                active_jobs,
            })
            .collect();
        clients.sort_by(|a, b| a.client.cmp(&b.client));
        ServerMetrics {
            queue_depth: state.queue.len() as u64,
            max_queue_depth: state.max_queue_depth,
            running: state.running,
            submissions: state.submissions,
            jobs_served: state.jobs_served,
            results_streamed: state.results_streamed,
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_entries: cache.entries(),
            cache_bytes: cache.bytes(),
            cache_evictions: cache.evictions(),
            cache_evicted_bytes: cache.evicted_bytes(),
            cache_loaded: cache.loaded(),
            cache_load_skipped: cache.load_skipped(),
            cache_persist_failures: cache.persist_failures(),
            quota_rejections: state.quota_rejections,
            overload_rejections: state.overload_rejections,
            deadline_cancellations: state.deadline_cancellations,
            disconnect_cancellations: state.disconnect_cancellations,
            queue_wait_us: state.queue_wait_us,
            clients,
        }
    }

    fn initiate_shutdown(&self) -> u64 {
        let mut state = self.state.lock().expect("state mutex poisoned");
        state.shutting_down = true;
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        state.queue.len() as u64
    }
}

/// A running job server.
///
/// Start with [`Server::start`], stop with a [`Request::Shutdown`] over any
/// endpoint or programmatically with [`Server::shutdown`]; either way the
/// queue drains before [`Server::wait`] returns.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    unix_socket: Option<PathBuf>,
    tcp_addr: Option<SocketAddr>,
}

impl Server {
    /// Binds the configured endpoints and spawns the acceptor and scheduler
    /// threads.
    ///
    /// # Errors
    ///
    /// [`ServerError::Config`] when no endpoint is configured or the TCP
    /// address is not loopback; [`ServerError::Io`] when a bind fails.
    pub fn start(config: ServerConfig) -> Result<Self, ServerError> {
        if config.unix_socket.is_none() && config.tcp.is_none() {
            return Err(ServerError::Config(
                "at least one endpoint (unix socket or loopback TCP) is required".to_string(),
            ));
        }
        let unix_socket = config.unix_socket.clone();
        let unix_listener = match &unix_socket {
            Some(path) => {
                // A stale socket file from a dead server would fail the
                // bind; replacing it is safe because connecting to it can
                // only ever have raised ECONNREFUSED.
                if path.exists() {
                    std::fs::remove_file(path)
                        .map_err(|e| ServerError::Io(format!("remove stale {path:?}: {e}")))?;
                }
                let listener = UnixListener::bind(path)
                    .map_err(|e| ServerError::Io(format!("bind {path:?}: {e}")))?;
                listener
                    .set_nonblocking(true)
                    .map_err(|e| ServerError::Io(e.to_string()))?;
                Some(listener)
            }
            None => None,
        };
        let tcp_listener = match &config.tcp {
            Some(addr) => {
                let parsed: SocketAddr = addr
                    .parse()
                    .map_err(|e| ServerError::Config(format!("TCP address {addr:?}: {e}")))?;
                if !parsed.ip().is_loopback() {
                    return Err(ServerError::Config(format!(
                        "TCP endpoint {addr:?} is not loopback; the protocol has no \
                         authentication and must not face a network"
                    )));
                }
                let listener = TcpListener::bind(parsed)
                    .map_err(|e| ServerError::Io(format!("bind {addr:?}: {e}")))?;
                listener
                    .set_nonblocking(true)
                    .map_err(|e| ServerError::Io(e.to_string()))?;
                Some(listener)
            }
            None => None,
        };
        let tcp_addr = match &tcp_listener {
            Some(listener) => Some(
                listener
                    .local_addr()
                    .map_err(|e| ServerError::Io(e.to_string()))?,
            ),
            None => None,
        };

        let mut cache = ResultCache::with_budget(config.cache_max_entries, config.cache_max_bytes);
        if let Some(dir) = &config.cache_dir {
            cache
                .attach_dir(dir)
                .map_err(|e| ServerError::Io(format!("cache dir {dir:?}: {e}")))?;
        }
        let shared = Arc::new(Shared {
            config,
            state: Mutex::new(State::default()),
            queue_cv: Condvar::new(),
            cache: Mutex::new(cache),
            shutdown: AtomicBool::new(false),
            connections: Mutex::new(Vec::new()),
        });

        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || scheduler(&shared)));
        }
        if let Some(listener) = unix_listener {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || accept_unix(&shared, &listener)));
        }
        if let Some(listener) = tcp_listener {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || accept_tcp(&shared, &listener)));
        }
        Ok(Self {
            shared,
            threads,
            unix_socket,
            tcp_addr,
        })
    }

    /// The unix socket path the server listens on, if configured.
    pub fn unix_socket(&self) -> Option<&Path> {
        self.unix_socket.as_deref()
    }

    /// The bound TCP address, if configured (the actual port when the
    /// configuration asked for port `0`).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// A snapshot of the server's counters.
    pub fn metrics(&self) -> ServerMetrics {
        self.shared.metrics()
    }

    /// Begins graceful shutdown without blocking: new submissions are
    /// refused, the queue keeps draining.
    pub fn initiate_shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Blocks until the server has fully stopped — queue drained, in-flight
    /// replies flushed, listeners closed — and returns the final counters.
    /// Shutdown must have been initiated (by [`Server::initiate_shutdown`]
    /// or a client's [`Request::Shutdown`]); otherwise this blocks until it
    /// is.
    pub fn wait(self) -> ServerMetrics {
        for thread in self.threads {
            thread.join().expect("server thread panicked");
        }
        let connections = std::mem::take(
            &mut *self
                .shared
                .connections
                .lock()
                .expect("connections mutex poisoned"),
        );
        for connection in connections {
            // A handler that panicked already failed its own connection;
            // tearing down the rest of the server must not panic with it.
            connection.join().ok();
        }
        if let Some(path) = &self.unix_socket {
            std::fs::remove_file(path).ok();
        }
        self.shared.metrics()
    }

    /// [`Server::initiate_shutdown`] then [`Server::wait`].
    pub fn shutdown(self) -> ServerMetrics {
        self.initiate_shutdown();
        self.wait()
    }
}

/// The scheduler: pops submissions in priority order and streams each one
/// through the engine, draining the queue even during shutdown.
fn scheduler(shared: &Arc<Shared>) {
    let registry = shared.config.plugins();
    let trace = &shared.config.trace;
    let recorder = trace.recorder("scheduler");
    loop {
        let (queued, queue_depth) = {
            let mut state = shared.state.lock().expect("state mutex poisoned");
            loop {
                if let Some(queued) = state.queue.pop() {
                    let waited = queued.submission.queued_at.elapsed();
                    state.queue_wait_us.record(waited.as_micros() as u64);
                    state.running += 1;
                    break (queued, state.queue.len() as u64);
                }
                if state.shutting_down {
                    return;
                }
                state = shared.queue_cv.wait(state).expect("state mutex poisoned");
            }
        };
        recorder.counter("queue_depth", queue_depth as f64);
        let Submission {
            client,
            jobs,
            workers,
            fingerprint,
            reply,
            queued_at,
            cancel,
            deadline,
        } = queued.submission;
        let job_count = jobs.len() as u64;

        // A deadline that expired while the submission sat in the queue:
        // answer it without burning engine time on a client that has
        // already given up on the result.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            recorder.instant("deadline_expired_in_queue", |args| {
                args.u64("seq", queued.seq);
            });
            let _ = reply.send(Event::Error(deadline_error()));
            let mut state = shared.state.lock().expect("state mutex poisoned");
            state.deadline_cancellations += 1;
            state.running -= 1;
            release_quota(&mut state, &client, job_count);
            continue;
        }

        let mut span = recorder.span("submission");
        span.arg_u64("seq", queued.seq);
        span.arg_u64("jobs", job_count);
        span.arg_text("client", &client);
        span.arg_f64("queue_wait_seconds", queued_at.elapsed().as_secs_f64());

        // The cancel token carries the deadline: the engine, which checks
        // the token between jobs, stops claiming jobs once it passes, and
        // the delivered results stay a clean in-order prefix.
        let mut recorded: Vec<JobFrame> = Vec::new();
        let options = RunOptions {
            workers,
            registry,
            trace,
            cancel: Some(&cancel),
        };
        let outcome = engine::execute(&jobs, &options, &mut |result| {
            let frame = JobFrame { result };
            recorded.push(frame.clone());
            // A vanished client must not kill the run: the frames are still
            // recorded into the cache.
            let _ = reply.send(Event::Result(Box::new(frame)));
        });
        drop(span);

        let streamed = recorded.len() as u64;
        let mut deadline_cancelled = false;
        match outcome {
            // A cancelled run returns Ok with a short prefix; only a run
            // that delivered every job is complete, cacheable and `Done`.
            Ok(delivered) if (delivered as u64) == job_count => {
                shared
                    .cache
                    .lock()
                    .expect("cache mutex poisoned")
                    .insert(fingerprint, recorded);
                let _ = reply.send(Event::Done {
                    jobs: delivered as u64,
                });
            }
            Ok(delivered) => {
                // Cut short: by the deadline, or by the connection
                // handler of a disconnected client (which already counted
                // itself).  Partial results are never cached.
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    deadline_cancelled = true;
                    recorder.instant("deadline_exceeded", |args| {
                        args.u64("seq", queued.seq);
                        args.u64("delivered", delivered as u64);
                    });
                    let _ = reply.send(Event::Error(deadline_error()));
                } else {
                    recorder.instant("run_abandoned", |args| {
                        args.u64("seq", queued.seq);
                        args.u64("delivered", delivered as u64);
                    });
                }
            }
            Err(e) => {
                // Failures are not cached: the error may be environmental
                // (a trace file missing today can exist tomorrow).
                let _ = reply.send(Event::Error(ErrorFrame::new(
                    ErrorFrame::ENGINE,
                    e.to_string(),
                )));
            }
        }
        let mut state = shared.state.lock().expect("state mutex poisoned");
        state.jobs_served += streamed;
        state.results_streamed += streamed;
        state.running -= 1;
        if deadline_cancelled {
            state.deadline_cancellations += 1;
        }
        release_quota(&mut state, &client, job_count);
    }
}

/// The terminal frame of a submission whose deadline passed.
fn deadline_error() -> ErrorFrame {
    ErrorFrame::new(
        ErrorFrame::DEADLINE_EXCEEDED,
        "submission deadline passed before completion; results streamed so far stand",
    )
}

/// Returns a client's jobs to its quota budget.
fn release_quota(state: &mut State, client: &str, jobs: u64) {
    if let Some(active) = state.active.get_mut(client) {
        *active = active.saturating_sub(jobs);
        if *active == 0 {
            state.active.remove(client);
        }
    }
}

fn accept_unix(shared: &Arc<Shared>, listener: &UnixListener) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).ok();
                stream.set_read_timeout(Some(REQUEST_TIMEOUT)).ok();
                spawn_handler(shared, stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn accept_tcp(shared: &Arc<Shared>, listener: &TcpListener) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).ok();
                stream.set_read_timeout(Some(REQUEST_TIMEOUT)).ok();
                spawn_handler(shared, stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn spawn_handler<S: Read + Write + Send + 'static>(shared: &Arc<Shared>, stream: S) {
    let handler_shared = Arc::clone(shared);
    let handle = std::thread::spawn(move || {
        // Write errors mean the client hung up; nothing useful to do.
        let _ = handle_connection(&handler_shared, stream);
    });
    shared
        .connections
        .lock()
        .expect("connections mutex poisoned")
        .push(handle);
}

/// Serves one connection: one request in, a stream of frames out.
fn handle_connection<S: Read + Write>(shared: &Arc<Shared>, mut stream: S) -> io::Result<()> {
    let request: Request = {
        let mut reader = BufReader::new(&mut stream);
        match read_line(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                return write_line(
                    &mut stream,
                    &Frame::Error(ErrorFrame::new(ErrorFrame::BAD_REQUEST, e.to_string())),
                );
            }
            Err(e) => return Err(e),
        }
    };
    match request {
        Request::Submit(submit) => handle_submit(shared, &mut stream, submit),
        Request::Status => write_line(&mut stream, &Frame::Metrics(shared.metrics().report())),
        Request::Shutdown => {
            let draining = shared.initiate_shutdown();
            write_line(&mut stream, &Frame::ShutdownAck(ShutdownAck { draining }))
        }
    }
}

/// Outcome of admission control for a submission.
enum Admission {
    /// Replay these recorded frames; the submission never queues.
    CacheHit(Vec<JobFrame>),
    /// Queued; stream events from this receiver.
    Queued {
        receiver: std::sync::mpsc::Receiver<Event>,
        queue_depth: u64,
        /// The submission's cancel token: tripped by this handler when the
        /// client disconnects mid-stream, so the scheduler stops spending
        /// engine time on a reply nobody is reading.
        cancel: CancelToken,
    },
    /// Refused with a terminal error.
    Refused(ErrorFrame),
}

fn handle_submit<S: Write>(
    shared: &Arc<Shared>,
    stream: &mut S,
    submit: SubmitRequest,
) -> io::Result<()> {
    // Re-render and load the spec through the exact `run --spec` path so
    // version handling (including the lenient old-version migration), the
    // prefetcher-parameter check and error messages match the CLI's byte for
    // byte.  A spec the check refuses never queues.
    let spec_text =
        serde_json::to_string(&submit.spec).expect("value-tree serialization cannot fail");
    let list = match JobList::from_json(&spec_text).and_then(|list| {
        list.check(shared.config.plugins())?;
        Ok(list)
    }) {
        Ok(list) => list,
        Err(e) => {
            return write_line(
                stream,
                &Frame::Error(ErrorFrame::new(ErrorFrame::BAD_SPEC, e.to_string())),
            );
        }
    };
    if submit.client.is_empty() {
        return write_line(
            stream,
            &Frame::Error(ErrorFrame::new(
                ErrorFrame::BAD_REQUEST,
                "client identity must not be empty",
            )),
        );
    }
    let workers = if submit.workers > 0 {
        submit.workers
    } else {
        shared.config.workers
    };
    let fingerprint = engine::spec_fingerprint(&list.jobs);
    let job_count = list.jobs.len() as u64;

    let recorder = shared.config.trace.recorder("server.conn");
    let admission = {
        let mut accept_span = recorder.span("submit.accept");
        accept_span.arg_u64("jobs", job_count);
        accept_span.arg_text("client", &submit.client);
        let mut state = shared.state.lock().expect("state mutex poisoned");
        // Cache admission happens under the state lock so an identical
        // concurrent submission cannot double-run ahead of the insert.  It
        // comes before every refusal: a hit consumes no engine capacity, so
        // it is served even while draining or shedding load.
        let cached = shared
            .cache
            .lock()
            .expect("cache mutex poisoned")
            .lookup(&fingerprint);
        match cached {
            Some(frames) => {
                recorder.instant("cache.hit", |args| {
                    args.u64("jobs", job_count);
                });
                state.submissions += 1;
                state.results_streamed += frames.len() as u64;
                Admission::CacheHit(frames)
            }
            None if state.shutting_down => Admission::Refused(ErrorFrame::new(
                ErrorFrame::SHUTTING_DOWN,
                "server is draining for shutdown and accepts no new submissions",
            )),
            None => {
                recorder.instant("cache.miss", |args| {
                    args.u64("jobs", job_count);
                });
                let queue_max = shared.config.queue_max;
                let quota = shared.config.quota as u64;
                let active = state.active.get(&submit.client).copied().unwrap_or(0);
                if queue_max > 0 && state.queue.len() >= queue_max {
                    state.overload_rejections += 1;
                    recorder.instant("overloaded", |args| {
                        args.u64("queue_depth", state.queue.len() as u64);
                    });
                    Admission::Refused(ErrorFrame::new(
                        ErrorFrame::OVERLOADED,
                        format!("submission queue is at its bound of {queue_max}; resubmit later"),
                    ))
                } else if quota > 0 && active + job_count > quota {
                    state.quota_rejections += 1;
                    Admission::Refused(ErrorFrame::new(
                        ErrorFrame::QUOTA_EXCEEDED,
                        format!(
                            "client {:?} has {active} jobs outstanding; {job_count} more \
                             would exceed the quota of {quota}",
                            submit.client
                        ),
                    ))
                } else {
                    let (reply, receiver) = std::sync::mpsc::channel();
                    let deadline = submit
                        .timeout_ms
                        .filter(|&ms| ms > 0)
                        .map(|ms| Instant::now() + Duration::from_millis(ms));
                    let cancel = deadline.map_or_else(CancelToken::new, CancelToken::with_deadline);
                    let seq = state.next_seq;
                    state.next_seq += 1;
                    state.submissions += 1;
                    *state.active.entry(submit.client.clone()).or_default() += job_count;
                    state.queue.push(Queued {
                        seq,
                        priority: submit.priority,
                        submission: Submission {
                            client: submit.client.clone(),
                            jobs: list.jobs,
                            workers,
                            fingerprint,
                            reply,
                            queued_at: Instant::now(),
                            cancel: cancel.clone(),
                            deadline,
                        },
                    });
                    let queue_depth = state.queue.len() as u64;
                    state.max_queue_depth = state.max_queue_depth.max(queue_depth);
                    recorder.counter("queue_depth", queue_depth as f64);
                    shared.queue_cv.notify_one();
                    Admission::Queued {
                        receiver,
                        queue_depth,
                        cancel,
                    }
                }
            }
        }
    };

    match admission {
        Admission::Refused(error) => write_line(stream, &Frame::Error(error)),
        Admission::CacheHit(frames) => {
            write_line(
                stream,
                &Frame::Accepted(Accepted {
                    jobs: job_count,
                    queue_depth: 0,
                    cache_hit: true,
                }),
            )?;
            let mut stream_span = recorder.span("submit.stream");
            stream_span.arg_u64("jobs", job_count);
            stream_span.arg_u64("cache_hit", 1);
            let jobs = frames.len() as u64;
            for frame in frames {
                write_line(stream, &Frame::Result(Box::new(frame)))?;
            }
            write_line(
                stream,
                &Frame::Done(Done {
                    jobs,
                    cache_hit: true,
                }),
            )
        }
        Admission::Queued {
            receiver,
            queue_depth,
            cancel,
        } => {
            // Forward events until the terminal frame.  A failed write means
            // the client hung up: trip the submission's cancel token so the
            // scheduler stops the run at the next job boundary and the
            // client's quota frees promptly, instead of finishing a reply
            // nobody is reading.
            let mut forward = || -> io::Result<()> {
                write_line(
                    stream,
                    &Frame::Accepted(Accepted {
                        jobs: job_count,
                        queue_depth,
                        cache_hit: false,
                    }),
                )?;
                let mut stream_span = recorder.span("submit.stream");
                stream_span.arg_u64("jobs", job_count);
                stream_span.arg_u64("cache_hit", 0);
                for event in receiver.iter() {
                    match event {
                        Event::Result(frame) => write_line(stream, &Frame::Result(frame))?,
                        Event::Done { jobs } => {
                            return write_line(
                                stream,
                                &Frame::Done(Done {
                                    jobs,
                                    cache_hit: false,
                                }),
                            );
                        }
                        Event::Error(error) => return write_line(stream, &Frame::Error(error)),
                    }
                }
                Ok(())
            };
            let outcome = forward();
            if outcome.is_err() {
                cancel.cancel();
                recorder.instant("client_disconnected", |args| {
                    args.u64("jobs", job_count);
                });
                let mut state = shared.state.lock().expect("state mutex poisoned");
                state.disconnect_cancellations += 1;
            }
            outcome
        }
    }
}
