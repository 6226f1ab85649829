//! The daemon: a hand-rolled non-blocking event loop multiplexing many
//! client connections onto one shared [`AtomStore`] and a small pool of
//! session-runner threads.
//!
//! # Architecture
//!
//! One **IO thread** owns the listener and every socket, all in
//! non-blocking mode. Each loop iteration accepts new connections, reads
//! request bytes, parses complete frames, admits sessions, and flushes
//! per-connection write buffers. There are no callbacks and no `unsafe`
//! (the workspace forbids it, which also rules out `poll(2)`): readiness
//! is discovered by attempting the syscall and treating `WouldBlock` as
//! "not ready", with a sub-millisecond sleep when an iteration made no
//! progress.
//!
//! **Session runners** (N worker threads) pop admitted sessions from a
//! two-level queue — warm before cold — and drive the enumeration
//! engines, pushing response frames into the connection's shared write
//! buffer. The buffer enforces backpressure: past the high-water mark the
//! runner blocks (stops demanding results from the engine — the anytime
//! guarantee means no work is wasted) until the IO thread drains the
//! socket below the low-water mark.
//!
//! **Cache-aware admission**: at admission the request's graph is
//! decomposed into atoms and their canonical keys are probed —
//! non-perturbing [`AtomStore::probe`] — against the shared store. A
//! request with at least one warm atom goes to the warm queue and is
//! served first: it will stream its first results almost immediately,
//! which maximizes throughput under mixed workloads without starving
//! cold requests (runners fall back to the cold queue whenever the warm
//! one is empty).
//!
//! **Cancellation and shutdown**: a disconnect observed by the IO thread
//! raises the session's [`CancelFlag`]; every engine bails at its next
//! demand boundary ([`StopReason::Cancelled`]) and partial per-atom
//! prefixes are still published to the store (marked incomplete). A
//! graceful shutdown — [`ServerHandle::shutdown`] or a client `shutdown`
//! frame — stops accepting connections, drains every admitted session to
//! completion, flushes all buffers, then exits.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mtr_cache::{AtomKey, AtomStore, DEFAULT_BYTE_BUDGET};
use mtr_core::cost::named_cost;
use mtr_core::{CancelFlag, Enumerate, StopReason};
use mtr_graph::Graph;
use mtr_reduce::{decompose, EnumerateReduceExt, ReductionLevel};

use crate::json::Json;
use crate::protocol::{self, EnumerateRequest, ProtocolError, Request, WIRE_VERSION};

/// Handles into the [`mtr_obs`] registry for the daemon's own counters,
/// resolved once. Per-tenant counters live in [`Shared::tenant_metrics`]
/// (bounded — tenant names are client-controlled input).
struct ServeMetrics {
    /// `serve.connections`: connections accepted.
    connections: mtr_obs::Counter,
    /// `serve.requests`: enumerate requests that passed stage-one
    /// admission (quota refusals excluded).
    requests: mtr_obs::Counter,
    /// `serve.warm` / `serve.cold`: admission classification outcomes.
    warm: mtr_obs::Counter,
    /// See [`ServeMetrics::warm`].
    cold: mtr_obs::Counter,
    /// `serve.admission_wait_ns`: accept-to-runner-pop latency.
    admission_wait_ns: mtr_obs::Histogram,
    /// `serve.first_result_ns`: accept-to-first-result-frame latency.
    first_result_ns: mtr_obs::Histogram,
    /// `serve.backpressure_stalls`: times a session runner blocked on a
    /// connection's high-water mark.
    backpressure_stalls: mtr_obs::Counter,
}

fn serve_metrics() -> &'static ServeMetrics {
    static METRICS: std::sync::OnceLock<ServeMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| ServeMetrics {
        connections: mtr_obs::counter("serve.connections"),
        requests: mtr_obs::counter("serve.requests"),
        warm: mtr_obs::counter("serve.warm"),
        cold: mtr_obs::counter("serve.cold"),
        admission_wait_ns: mtr_obs::histogram("serve.admission_wait_ns"),
        first_result_ns: mtr_obs::histogram("serve.first_result_ns"),
        backpressure_stalls: mtr_obs::counter("serve.backpressure_stalls"),
    })
}

/// Cap on distinct per-tenant counter entries — tenant names are
/// client-controlled, so without a cap a hostile client could grow the
/// tenant table without bound. Requests beyond the cap are counted under
/// the synthetic tenant `"other"`.
const MAX_TENANT_METRICS: usize = 64;

/// Worker blocks when a connection's write buffer exceeds this.
const HIGH_WATER: usize = 256 * 1024;
/// ... and resumes once the IO thread drains it below this.
const LOW_WATER: usize = 64 * 1024;
/// Idle-iteration sleep of the event loop.
const IDLE_SLEEP: Duration = Duration::from_micros(500);
/// Cap on a connection's unparsed input. A single protocol line longer
/// than this is refused (`frame-too-large`, connection closed); while a
/// session is in flight the IO thread simply stops reading past the cap,
/// leaving further pipelined bytes in the kernel buffer, so a client can
/// never grow the daemon's memory without bound.
pub const MAX_INBUF: usize = 1024 * 1024;
/// During graceful shutdown, a draining connection whose client has
/// stopped reading (write buffer full, no flush progress) is dropped
/// after this long — `mark_disconnected` cancels its session cleanly —
/// so `shutdown()`/`wait()` cannot hang on a stalled client.
const SHUTDOWN_STALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Per-tenant admission quotas. A value of `None` means "uncapped".
#[derive(Clone, Debug)]
pub struct TenantQuota {
    /// Maximum in-flight (queued or running) sessions per tenant;
    /// requests beyond it are refused with a `quota-exceeded` error
    /// frame (the connection stays usable).
    pub max_concurrent_sessions: usize,
    /// Hard cap on `max_results`; requests asking for more (or for an
    /// unbounded stream, when set) are clamped.
    pub max_results_cap: Option<usize>,
    /// Hard cap on the per-session deadline, clamped likewise.
    pub deadline_cap: Option<Duration>,
    /// Hard cap on the Lawler–Murty node budget, clamped likewise.
    pub node_budget_cap: Option<u64>,
    /// Hard cap on a request's vertex count `n`; larger requests are
    /// refused with `quota-exceeded` (the graph is never materialized,
    /// so a hostile `"n": 4000000000` cannot allocate anything).
    pub max_vertices: Option<u32>,
    /// Hard cap on a request's edge count, refused likewise.
    pub max_edges: Option<usize>,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_concurrent_sessions: 4,
            max_results_cap: None,
            deadline_cap: None,
            node_budget_cap: None,
            max_vertices: Some(65_536),
            max_edges: Some(1 << 20),
        }
    }
}

/// Daemon configuration.
#[derive(Clone, Debug, Default)]
pub struct ServerConfig {
    /// Session-runner threads (0 = one per available core, capped at 8).
    pub workers: usize,
    /// Byte budget of the shared in-memory atom store (0 = the cache
    /// crate's default budget). Ignored when `store` is set.
    pub byte_budget: usize,
    /// Persist the shared store into this directory (cross-restart warm
    /// starts). Ignored when `store` is set.
    pub cache_dir: Option<PathBuf>,
    /// Use this store instead of creating one — lets tests and in-process
    /// embedders share a store with direct sessions.
    pub store: Option<Arc<AtomStore>>,
    /// Per-tenant quotas.
    pub quota: TenantQuota,
    /// Honor the wire `shutdown` frame (on by default in the CLI; tests
    /// may disable it so a client cannot stop a shared fixture).
    pub allow_remote_shutdown: bool,
    /// Log any request whose first-result latency exceeds this many
    /// milliseconds (one JSON line on stderr with the full timing
    /// breakdown). `None` disables the slow-request log.
    pub slow_ms: Option<u64>,
    /// Daemon-side watchdog: cancel any session still running after this
    /// many milliseconds (via its [`CancelFlag`], so the anytime
    /// guarantee holds — results streamed so far are kept and the done
    /// frame reports `cancelled`). `None` disables the watchdog.
    pub max_session_ms: Option<u64>,
}

/// Where to listen.
#[derive(Clone, Debug)]
pub enum BindAddr {
    /// A TCP address like `127.0.0.1:7171` (port 0 picks an ephemeral
    /// port, reported by [`ServerHandle::local_addr`]).
    Tcp(String),
    /// A Unix-domain socket path (removed and re-created on bind).
    #[cfg(unix)]
    Unix(PathBuf),
}

enum NetListener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl NetListener {
    fn accept(&self) -> std::io::Result<Option<NetStream>> {
        match self {
            NetListener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(true)?;
                    s.set_nodelay(true).ok();
                    Ok(Some(NetStream::Tcp(s)))
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            #[cfg(unix)]
            NetListener::Unix(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(true)?;
                    Ok(Some(NetStream::Unix(s)))
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

enum NetStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl NetStream {
    fn read_some(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            NetStream::Unix(s) => s.read(buf),
        }
    }

    fn write_some(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            NetStream::Unix(s) => s.write(buf),
        }
    }
}

/// The write side of one connection, shared between the IO thread (which
/// drains it into the socket) and the session runner (which fills it and
/// blocks on the high-water mark).
struct ConnOut {
    state: Mutex<OutState>,
    cv: Condvar,
}

struct OutState {
    buf: VecDeque<u8>,
    /// The running session's cancel flag (raised on disconnect).
    cancel: Option<CancelFlag>,
    /// Session runner is done writing frames for the current request.
    finished: bool,
    /// The IO thread observed a disconnect; drop writes, stop blocking.
    disconnected: bool,
}

impl ConnOut {
    fn new() -> Arc<ConnOut> {
        Arc::new(ConnOut {
            state: Mutex::new(OutState {
                buf: VecDeque::new(),
                cancel: None,
                finished: false,
                disconnected: false,
            }),
            cv: Condvar::new(),
        })
    }

    /// Appends frame bytes, blocking while the buffer is above the
    /// high-water mark — the backpressure that stops the runner from
    /// demanding results a slow client cannot absorb. Returns `false`
    /// when the connection is gone (the caller should stop streaming).
    fn push(&self, bytes: &[u8]) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.buf.len() >= HIGH_WATER && !state.disconnected {
            serve_metrics().backpressure_stalls.incr();
        }
        while state.buf.len() >= HIGH_WATER && !state.disconnected {
            let (next, _timeout) = self
                .cv
                .wait_timeout(state, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            state = next;
        }
        if state.disconnected {
            return false;
        }
        state.buf.extend(bytes);
        true
    }

    /// Marks the current request's stream complete.
    fn finish(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.finished = true;
        state.cancel = None;
        drop(state);
        self.cv.notify_all();
    }

    fn mark_disconnected(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.disconnected = true;
        if let Some(flag) = &state.cancel {
            flag.cancel();
        }
        drop(state);
        self.cv.notify_all();
    }
}

/// A validated request handed off by the IO thread, waiting for the
/// admission worker to build its graph and classify it warm/cold. Kept
/// off the IO thread because `Graph::from_edges` + `decompose` + the
/// canonical-form probe are CPU work that would head-of-line block every
/// other connection's reads, writes, and accepts.
struct Pending {
    req: EnumerateRequest,
    out: Arc<ConnOut>,
    cancel: CancelFlag,
    tenant: String,
    /// When stage-one admission accepted the request (`None` only if the
    /// metrics level was somehow off — the daemon raises it at startup).
    accepted_at: Option<Instant>,
}

/// One admitted session, waiting in (or popped from) the scheduler.
struct Job {
    req: EnumerateRequest,
    graph: Graph,
    out: Arc<ConnOut>,
    cancel: CancelFlag,
    tenant: String,
    /// Which queue admission chose (`true` = warm).
    warm: bool,
    /// See [`Pending::accepted_at`].
    accepted_at: Option<Instant>,
}

#[derive(Default)]
struct Sched {
    warm: VecDeque<Job>,
    cold: VecDeque<Job>,
}

struct Shared {
    store: Arc<AtomStore>,
    /// Requests accepted by the IO thread, awaiting classification.
    admission: Mutex<VecDeque<Pending>>,
    admission_cv: Condvar,
    sched: Mutex<Sched>,
    sched_cv: Condvar,
    /// In-flight (queued + running) session count per tenant.
    tenants: Mutex<HashMap<String, usize>>,
    /// Cumulative requests per tenant (bounded at [`MAX_TENANT_METRICS`]
    /// distinct names; overflow folds into `"other"`). Also published to
    /// the obs registry as `serve.tenant.<name>.requests`.
    tenant_metrics: Mutex<HashMap<String, mtr_obs::Counter>>,
    /// Slow-request log threshold (see [`ServerConfig::slow_ms`]).
    slow_ms: Option<u64>,
    /// Sessions admitted but not yet finished (pending, queued, or
    /// running).
    in_flight: AtomicUsize,
    shutting_down: AtomicBool,
    quota: TenantQuota,
    /// See [`ServerConfig::max_session_ms`].
    max_session_ms: Option<u64>,
    /// Sessions under watchdog supervision: registration id, the instant
    /// past which the session is overdue, and its cancel flag.
    watchdog: Mutex<WatchdogState>,
    watchdog_cv: Condvar,
}

#[derive(Default)]
struct WatchdogState {
    next_id: u64,
    entries: Vec<(u64, Instant, CancelFlag)>,
}

impl Shared {
    /// Counts one request for `tenant`, folding names past the table cap
    /// into `"other"` so client-chosen tenant strings cannot grow the
    /// daemon's memory (or the obs registry) without bound.
    fn count_tenant_request(&self, tenant: &str) {
        let mut table = self
            .tenant_metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let key = if table.contains_key(tenant) || table.len() < MAX_TENANT_METRICS {
            tenant
        } else {
            "other"
        };
        table
            .entry(key.to_string())
            .or_insert_with(|| mtr_obs::counter(&format!("serve.tenant.{key}.requests")))
            .incr();
    }

    fn release_tenant(&self, tenant: &str) {
        let mut tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(count) = tenants.get_mut(tenant) {
            *count -= 1;
            if *count == 0 {
                tenants.remove(tenant);
            }
        }
    }

    /// Retires one in-flight session: tenant slot and drain counter.
    fn retire(&self, tenant: &str) {
        self.release_tenant(tenant);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Raises the shutdown flag and wakes every parked thread (admission
    /// worker, session runners, and watchdog) so they can observe it.
    fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.admission_cv.notify_all();
        self.sched_cv.notify_all();
        self.watchdog_cv.notify_all();
    }

    /// Puts a session under watchdog supervision; returns the token to
    /// pass to [`Shared::unwatch`] when the session finishes.
    fn watch(&self, deadline: Instant, cancel: CancelFlag) -> u64 {
        let mut state = self.watchdog.lock().unwrap_or_else(|e| e.into_inner());
        let id = state.next_id;
        state.next_id += 1;
        state.entries.push((id, deadline, cancel));
        drop(state);
        self.watchdog_cv.notify_all();
        id
    }

    fn unwatch(&self, id: u64) {
        let mut state = self.watchdog.lock().unwrap_or_else(|e| e.into_inner());
        state.entries.retain(|(entry_id, _, _)| *entry_id != id);
    }
}

/// The watchdog thread: cancels any supervised session still running
/// past its per-session deadline ([`ServerConfig::max_session_ms`]).
/// Sleeps until the earliest registered deadline; parks on the condvar
/// while nothing is supervised.
fn run_watchdog(shared: &Arc<Shared>) {
    let mut state = shared.watchdog.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        let now = Instant::now();
        state.entries.retain(|(_, deadline, cancel)| {
            if *deadline <= now {
                cancel.cancel();
                false
            } else {
                true
            }
        });
        if shared.shutting_down.load(Ordering::SeqCst) && state.entries.is_empty() {
            return;
        }
        let next = state.entries.iter().map(|(_, at, _)| *at).min();
        state = match next {
            Some(at) => {
                let wait = at.saturating_duration_since(Instant::now());
                let (next_state, _timeout) = shared
                    .watchdog_cv
                    .wait_timeout(state, wait)
                    .unwrap_or_else(|e| e.into_inner());
                next_state
            }
            None => shared
                .watchdog_cv
                .wait(state)
                .unwrap_or_else(|e| e.into_inner()),
        };
    }
}

/// A running daemon. Dropping the handle without calling
/// [`ServerHandle::shutdown`] detaches the threads (they keep serving);
/// call [`ServerHandle::shutdown`] for a graceful drain or
/// [`ServerHandle::wait`] to block until a wire `shutdown` frame stops
/// the daemon.
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: Option<SocketAddr>,
    io_thread: Option<JoinHandle<()>>,
    admission_thread: Option<JoinHandle<()>>,
    watchdog_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound TCP address (None for Unix sockets) — the way tests
    /// discover an ephemeral port.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// The shared atom store (for probing warmth from tests/benches).
    pub fn store(&self) -> Arc<AtomStore> {
        Arc::clone(&self.shared.store)
    }

    /// Graceful shutdown: stop accepting, drain every admitted session,
    /// flush every connection, join all threads.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        self.join();
    }

    /// Blocks until the daemon exits on its own (a wire `shutdown`
    /// frame). The CLI `mtr serve` foreground mode.
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        // A panicked thread must not take the join (and with it the
        // owning process) down: the daemon's threads all run inside
        // respawn loops, so a `join` Err means the loop itself died on
        // its final iteration — report it and keep joining the rest.
        if let Some(io) = self.io_thread.take() {
            if io.join().is_err() {
                eprintln!("[mtr-serve] io thread panicked during shutdown");
            }
        }
        if let Some(admission) = self.admission_thread.take() {
            if admission.join().is_err() {
                eprintln!("[mtr-serve] admission worker panicked during shutdown");
            }
        }
        if let Some(watchdog) = self.watchdog_thread.take() {
            if watchdog.join().is_err() {
                eprintln!("[mtr-serve] watchdog thread panicked during shutdown");
            }
        }
        for worker in self.workers.drain(..) {
            if worker.join().is_err() {
                eprintln!("[mtr-serve] session runner panicked during shutdown");
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Detached: threads keep running. Explicit shutdown()/wait() are
        // the supported exits; this keeps drop non-blocking.
    }
}

/// Binds and starts the daemon.
pub fn serve(addr: &BindAddr, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let (listener, local_addr) = match addr {
        BindAddr::Tcp(spec) => {
            let l = TcpListener::bind(spec.as_str())?;
            l.set_nonblocking(true)?;
            let bound = l.local_addr()?;
            (NetListener::Tcp(l), Some(bound))
        }
        #[cfg(unix)]
        BindAddr::Unix(path) => {
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            (NetListener::Unix(l), None)
        }
    };

    let store = match (&config.store, &config.cache_dir) {
        (Some(store), _) => Arc::clone(store),
        (None, Some(dir)) => AtomStore::persistent(dir, effective_budget(config.byte_budget))?,
        (None, None) => AtomStore::in_memory(effective_budget(config.byte_budget)),
    };

    // The daemon always runs with live metrics: the `metrics` frame is
    // part of the wire protocol, so its counters must be counting from
    // the first request. (Never *lowers* an ambient Trace level.)
    mtr_obs::raise_level(mtr_obs::Level::Metrics);

    let shared = Arc::new(Shared {
        store,
        admission: Mutex::new(VecDeque::new()),
        admission_cv: Condvar::new(),
        sched: Mutex::new(Sched::default()),
        sched_cv: Condvar::new(),
        tenants: Mutex::new(HashMap::new()),
        tenant_metrics: Mutex::new(HashMap::new()),
        slow_ms: config.slow_ms,
        in_flight: AtomicUsize::new(0),
        shutting_down: AtomicBool::new(false),
        quota: config.quota.clone(),
        max_session_ms: config.max_session_ms,
        watchdog: Mutex::new(WatchdogState::default()),
        watchdog_cv: Condvar::new(),
    });

    let worker_count = if config.workers == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get().min(8))
            .unwrap_or(2)
    } else {
        config.workers
    };
    let workers = (0..worker_count)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("mtr-serve-runner-{i}"))
                .spawn(move || supervise("session runner", || run_sessions(&shared)))
                .expect("spawn session runner")
        })
        .collect();

    let admission_shared = Arc::clone(&shared);
    let admission_thread = std::thread::Builder::new()
        .name("mtr-serve-admission".into())
        .spawn(move || supervise("admission worker", || run_admission(&admission_shared)))
        .expect("spawn admission worker");

    let watchdog_thread = config.max_session_ms.map(|_| {
        let watchdog_shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("mtr-serve-watchdog".into())
            .spawn(move || supervise("watchdog", || run_watchdog(&watchdog_shared)))
            .expect("spawn watchdog thread")
    });

    let io_shared = Arc::clone(&shared);
    let allow_remote_shutdown = config.allow_remote_shutdown;
    let io_thread = std::thread::Builder::new()
        .name("mtr-serve-io".into())
        .spawn(move || event_loop(listener, &io_shared, allow_remote_shutdown))
        .expect("spawn io thread");

    Ok(ServerHandle {
        shared,
        local_addr,
        io_thread: Some(io_thread),
        admission_thread: Some(admission_thread),
        watchdog_thread,
        workers,
    })
}

/// Runs a daemon thread body inside a respawn loop: a panic is reported
/// and the body re-entered (shared state is poison-recovered on the next
/// lock, see the `unwrap_or_else(into_inner)` sites), so one wedged
/// request can never silently kill a session runner or the admission
/// worker. A normal return (shutdown observed) exits the loop.
fn supervise(role: &str, mut body: impl FnMut()) {
    loop {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut body)) {
            Ok(()) => return,
            Err(payload) => {
                eprintln!(
                    "[mtr-serve] {role} thread panicked ({}); respawning",
                    mtr_core::panic_message(payload)
                );
            }
        }
    }
}

fn effective_budget(requested: usize) -> usize {
    if requested == 0 {
        DEFAULT_BYTE_BUDGET
    } else {
        requested
    }
}

/// Connection lifecycle stages.
enum Stage {
    /// Waiting for the client hello.
    AwaitHello,
    /// Handshake done; ready for a request.
    Idle,
    /// A session is queued or running for this connection.
    Busy,
}

struct Conn {
    stream: NetStream,
    inbuf: Vec<u8>,
    out: Arc<ConnOut>,
    stage: Stage,
    close_after_flush: bool,
    /// When the write buffer stopped making flush progress (client not
    /// reading); `None` while draining or empty. Drives the shutdown
    /// stall timeout.
    stalled_since: Option<Instant>,
}

impl Conn {
    fn queue_text(&self, frame: String) {
        let mut state = self.out.state.lock().unwrap_or_else(|e| e.into_inner());
        state.buf.extend(frame.as_bytes());
    }
}

/// The IO thread body.
fn event_loop(listener: NetListener, shared: &Arc<Shared>, allow_remote_shutdown: bool) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut read_buf = [0u8; 16 * 1024];
    let mut shutdown_since: Option<Instant> = None;
    let mut last_drain_report: Option<Instant> = None;
    loop {
        let shutting_down = shared.shutting_down.load(Ordering::SeqCst);
        if shutting_down && shutdown_since.is_none() {
            shutdown_since = Some(Instant::now());
        }
        let mut progressed = false;

        // Accept (never during shutdown — the listener drains instead).
        if !shutting_down {
            while let Ok(Some(stream)) = listener.accept() {
                serve_metrics().connections.incr();
                conns.push(Conn {
                    stream,
                    inbuf: Vec::new(),
                    out: ConnOut::new(),
                    stage: Stage::AwaitHello,
                    close_after_flush: false,
                    stalled_since: None,
                });
                progressed = true;
            }
        }

        let mut i = 0;
        while i < conns.len() {
            let mut drop_conn = false;

            // Read whatever the client sent; 0 bytes = disconnect. Stop
            // at the input cap — excess bytes wait in the kernel buffer
            // (TCP backpressure), so a flooding client cannot grow the
            // daemon's memory.
            while conns[i].inbuf.len() < MAX_INBUF {
                match conns[i].stream.read_some(&mut read_buf) {
                    Ok(0) => {
                        drop_conn = true;
                        break;
                    }
                    Ok(k) => {
                        conns[i].inbuf.extend_from_slice(&read_buf[..k]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        drop_conn = true;
                        break;
                    }
                }
            }

            // Parse complete lines unless a session is in flight (frames
            // arriving meanwhile stay buffered — pipelining).
            while !drop_conn
                && !conns[i].close_after_flush
                && !matches!(conns[i].stage, Stage::Busy)
            {
                let Some(nl) = conns[i].inbuf.iter().position(|&b| b == b'\n') else {
                    break;
                };
                let line: Vec<u8> = conns[i].inbuf.drain(..=nl).collect();
                let line = String::from_utf8_lossy(&line[..nl]).into_owned();
                if line.trim().is_empty() {
                    continue;
                }
                progressed = true;
                handle_line(&mut conns[i], &line, shared, allow_remote_shutdown);
            }

            // A full inbuf with no newline can never complete: refuse the
            // oversized line. (While Busy the bytes may hold well-formed
            // pipelined frames — those parse once the session finishes.)
            if !drop_conn
                && !conns[i].close_after_flush
                && !matches!(conns[i].stage, Stage::Busy)
                && conns[i].inbuf.len() >= MAX_INBUF
            {
                conns[i].queue_text(protocol::error_frame(&ProtocolError {
                    code: "frame-too-large",
                    message: format!("protocol line exceeds {MAX_INBUF} bytes"),
                }));
                conns[i].close_after_flush = true;
            }

            // Flush the write buffer into the socket.
            let mut wrote_any = false;
            loop {
                let chunk: Vec<u8> = {
                    let state = conns[i].out.state.lock().unwrap_or_else(|e| e.into_inner());
                    if state.buf.is_empty() {
                        break;
                    }
                    state.buf.iter().take(16 * 1024).copied().collect()
                };
                match conns[i].stream.write_some(&chunk) {
                    Ok(0) => {
                        drop_conn = true;
                        break;
                    }
                    Ok(k) => {
                        let mut state =
                            conns[i].out.state.lock().unwrap_or_else(|e| e.into_inner());
                        state.buf.drain(..k);
                        let below_low = state.buf.len() < LOW_WATER;
                        drop(state);
                        if below_low {
                            // Wake a runner blocked on the high-water mark.
                            conns[i].out.cv.notify_all();
                        }
                        wrote_any = true;
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        drop_conn = true;
                        break;
                    }
                }
            }

            // Session finished and its frames are flushed → back to Idle
            // (buffered pipelined requests get parsed next iteration).
            if matches!(conns[i].stage, Stage::Busy) {
                let state = conns[i].out.state.lock().unwrap_or_else(|e| e.into_inner());
                if state.finished && state.buf.is_empty() {
                    drop(state);
                    conns[i].stage = Stage::Idle;
                    progressed = true;
                }
            }

            let flushed = {
                let state = conns[i].out.state.lock().unwrap_or_else(|e| e.into_inner());
                state.buf.is_empty()
            };
            // Stall tracking: a non-empty buffer that made no flush
            // progress this iteration means the client is not reading.
            if flushed || wrote_any {
                conns[i].stalled_since = None;
            } else if conns[i].stalled_since.is_none() {
                conns[i].stalled_since = Some(Instant::now());
            }
            if conns[i].close_after_flush && flushed {
                drop_conn = true;
            }
            // During shutdown, idle connections are closed once flushed;
            // busy ones stay until their session drains — unless the
            // client has stopped reading, in which case waiting is
            // hopeless (the runner is parked on the high-water mark) and
            // the connection is dropped so the drain can finish.
            if shutting_down && flushed && !matches!(conns[i].stage, Stage::Busy) {
                drop_conn = true;
            }
            if shutdown_since.is_some_and(|at| at.elapsed() >= SHUTDOWN_STALL_TIMEOUT)
                && conns[i]
                    .stalled_since
                    .is_some_and(|since| since.elapsed() >= SHUTDOWN_STALL_TIMEOUT)
            {
                drop_conn = true;
            }

            if drop_conn {
                conns[i].out.mark_disconnected();
                conns.swap_remove(i);
                progressed = true;
            } else {
                i += 1;
            }
        }

        if shutting_down {
            let (warm_depth, cold_depth) = {
                let sched = shared.sched.lock().unwrap_or_else(|e| e.into_inner());
                (sched.warm.len(), sched.cold.len())
            };
            let queues_empty = warm_depth == 0 && cold_depth == 0;
            let in_flight = shared.in_flight.load(Ordering::SeqCst);
            // Drain progress, once a second: the scheduler's queue depths
            // and in-flight session count, so an operator watching a slow
            // graceful shutdown can see it is actually moving.
            if !(conns.is_empty() && queues_empty && in_flight == 0)
                && last_drain_report.is_none_or(|at| at.elapsed() >= Duration::from_secs(1))
            {
                eprintln!(
                    "[mtr-serve] draining: warm={warm_depth} cold={cold_depth} \
                     in_flight={in_flight} connections={}",
                    conns.len()
                );
                last_drain_report = Some(Instant::now());
            }
            if conns.is_empty() && queues_empty && in_flight == 0 {
                // Wake the admission worker and any runner still parked
                // on their condvars so they observe the flag and exit.
                // Each notify is sent under its lock, so a thread between
                // its exit check and its wait cannot miss it.
                let admission = shared.admission.lock().unwrap_or_else(|e| e.into_inner());
                shared.admission_cv.notify_all();
                drop(admission);
                let sched = shared.sched.lock().unwrap_or_else(|e| e.into_inner());
                shared.sched_cv.notify_all();
                drop(sched);
                return;
            }
        }

        if !progressed {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

/// Processes one parsed protocol line on a connection.
fn handle_line(conn: &mut Conn, line: &str, shared: &Arc<Shared>, allow_remote_shutdown: bool) {
    let request = match protocol::parse_request(line) {
        Ok(request) => request,
        Err(err) => {
            conn.queue_text(protocol::error_frame(&err));
            conn.close_after_flush = true;
            return;
        }
    };
    match (&conn.stage, request) {
        (Stage::AwaitHello, Request::Hello { magic, version }) => {
            if magic != "MTRW" || version != u64::from(WIRE_VERSION) {
                conn.queue_text(protocol::error_frame(&ProtocolError {
                    code: "version-mismatch",
                    message: format!(
                        "server speaks MTRW v{WIRE_VERSION}, client sent {magic} v{version}"
                    ),
                }));
                conn.close_after_flush = true;
                return;
            }
            conn.queue_text(protocol::hello_ack_frame());
            conn.stage = Stage::Idle;
        }
        (Stage::AwaitHello, _) => {
            conn.queue_text(protocol::error_frame(&ProtocolError {
                code: "bad-request",
                message: "expected hello frame".into(),
            }));
            conn.close_after_flush = true;
        }
        (Stage::Idle, Request::Hello { .. }) => {
            conn.queue_text(protocol::error_frame(&ProtocolError {
                code: "bad-request",
                message: "duplicate hello".into(),
            }));
        }
        (Stage::Idle, Request::Metrics) => {
            conn.queue_text(metrics_response(shared));
        }
        (Stage::Idle, Request::Shutdown) => {
            if allow_remote_shutdown {
                conn.queue_text(protocol::bye_frame());
                conn.close_after_flush = true;
                shared.begin_shutdown();
            } else {
                conn.queue_text(protocol::error_frame(&ProtocolError {
                    code: "bad-request",
                    message: "remote shutdown is disabled".into(),
                }));
            }
        }
        (Stage::Idle, Request::Enumerate(req)) => admit(conn, *req, shared),
        (Stage::Busy, _) => unreachable!("lines are not parsed while busy"),
    }
}

/// Builds the `metrics` response frame: the full observability registry
/// (counters and gauges as numbers, histograms as
/// `{count, sum, buckets: [[le, n], ...]}`), store-wide cache statistics,
/// and the per-tenant request table. Rendered through [`Json`], so keys
/// come out sorted and the frame is deterministic for a given state.
fn metrics_response(shared: &Arc<Shared>) -> String {
    use std::collections::BTreeMap;

    let num = Json::Num;
    let mut registry = BTreeMap::new();
    for metric in mtr_obs::snapshot() {
        let value = match metric.value {
            mtr_obs::MetricValue::Counter(v) => num(v as f64),
            mtr_obs::MetricValue::Gauge(v) => num(v as f64),
            mtr_obs::MetricValue::Histogram(h) => {
                let buckets = h
                    .buckets
                    .iter()
                    .map(|&(le, n)| Json::Arr(vec![num(le as f64), num(n as f64)]))
                    .collect();
                let mut obj = BTreeMap::new();
                obj.insert("count".to_string(), num(h.count as f64));
                obj.insert("sum".to_string(), num(h.sum as f64));
                obj.insert("buckets".to_string(), Json::Arr(buckets));
                Json::Obj(obj)
            }
        };
        registry.insert(metric.name, value);
    }

    let stats = shared.store.stats();
    let mut store = BTreeMap::new();
    store.insert("entries".to_string(), num(stats.entries as f64));
    store.insert("bytes".to_string(), num(stats.bytes as f64));
    store.insert("hits".to_string(), num(stats.hits as f64));
    store.insert("misses".to_string(), num(stats.misses as f64));
    store.insert("publishes".to_string(), num(stats.publishes as f64));
    store.insert("evictions".to_string(), num(stats.evictions as f64));
    store.insert("disk_loads".to_string(), num(stats.disk_loads as f64));
    store.insert("disk_errors".to_string(), num(stats.disk_errors as f64));

    let tenants: BTreeMap<String, Json> = {
        let table = shared
            .tenant_metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        table
            .iter()
            .map(|(name, counter)| (name.clone(), num(counter.get() as f64)))
            .collect()
    };

    let mut frame = BTreeMap::new();
    frame.insert("frame".to_string(), Json::Str("metrics".to_string()));
    frame.insert("metrics".to_string(), Json::Obj(registry));
    frame.insert("store".to_string(), Json::Obj(store));
    frame.insert("tenants".to_string(), Json::Obj(tenants));
    let mut line = Json::Obj(frame).render();
    line.push('\n');
    line
}

/// Admission control, stage one (IO thread): validate and enforce
/// quotas — all O(request size) — then hand off to the admission worker,
/// which does the CPU-heavy graph build and warm/cold classification.
/// Refusals are per-request error frames; the connection stays open and
/// usable.
fn admit(conn: &mut Conn, mut req: EnumerateRequest, shared: &Arc<Shared>) {
    if shared.shutting_down.load(Ordering::SeqCst) {
        conn.queue_text(protocol::error_frame(&ProtocolError {
            code: "shutting-down",
            message: "daemon is draining".into(),
        }));
        return;
    }
    if named_cost(&req.cost).is_none() {
        conn.queue_text(protocol::error_frame(&ProtocolError {
            code: "unknown-cost",
            message: format!("no cost named \"{}\"", req.cost),
        }));
        return;
    }

    // Graph-size quotas, checked before anything is materialized.
    if let Some(cap) = shared.quota.max_vertices {
        if req.n > cap {
            conn.queue_text(protocol::error_frame(&ProtocolError {
                code: "quota-exceeded",
                message: format!("graph has {} vertices, cap is {cap}", req.n),
            }));
            return;
        }
    }
    if let Some(cap) = shared.quota.max_edges {
        if req.edges.len() > cap {
            conn.queue_text(protocol::error_frame(&ProtocolError {
                code: "quota-exceeded",
                message: format!("graph has {} edges, cap is {cap}", req.edges.len()),
            }));
            return;
        }
    }

    // Per-tenant concurrency quota.
    {
        let mut tenants = shared.tenants.lock().unwrap_or_else(|e| e.into_inner());
        let count = tenants.entry(req.tenant.clone()).or_insert(0);
        if *count >= shared.quota.max_concurrent_sessions {
            drop(tenants);
            conn.queue_text(protocol::error_frame(&ProtocolError {
                code: "quota-exceeded",
                message: format!(
                    "tenant \"{}\" already has {} in-flight sessions",
                    req.tenant, shared.quota.max_concurrent_sessions
                ),
            }));
            return;
        }
        *count += 1;
    }

    // Clamp budgets to the configured caps.
    if let Some(cap) = shared.quota.max_results_cap {
        req.max_results = Some(req.max_results.map_or(cap, |v| v.min(cap)));
    }
    if let Some(cap) = shared.quota.deadline_cap {
        let cap_ms = cap.as_millis().min(u128::from(u64::MAX)) as u64;
        req.deadline_ms = Some(req.deadline_ms.map_or(cap_ms, |v| v.min(cap_ms)));
    }
    if let Some(cap) = shared.quota.node_budget_cap {
        req.node_budget = Some(req.node_budget.map_or(cap, |v| v.min(cap)));
    }

    serve_metrics().requests.incr();
    shared.count_tenant_request(&req.tenant);
    let cancel = CancelFlag::new();
    let tenant = req.tenant.clone();
    let pending = Pending {
        req,
        out: Arc::clone(&conn.out),
        cancel: cancel.clone(),
        tenant,
        accepted_at: mtr_obs::clock(),
    };
    {
        // Re-check the shutdown flag under the admission lock: the
        // worker exits once it observes (shutting-down ∧ empty queue)
        // under this same lock, so a request pushed here is guaranteed
        // to be processed — without the re-check it could be stranded,
        // wedging the drain with a phantom in-flight session.
        let mut admission = shared.admission.lock().unwrap_or_else(|e| e.into_inner());
        if shared.shutting_down.load(Ordering::SeqCst) {
            drop(admission);
            shared.release_tenant(&pending.tenant);
            conn.queue_text(protocol::error_frame(&ProtocolError {
                code: "shutting-down",
                message: "daemon is draining".into(),
            }));
            return;
        }
        let mut state = conn.out.state.lock().unwrap_or_else(|e| e.into_inner());
        state.finished = false;
        state.cancel = Some(cancel);
        drop(state);
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        admission.push_back(pending);
    }
    conn.stage = Stage::Busy;
    shared.admission_cv.notify_one();
}

/// The admission worker: pops validated requests, builds their graphs,
/// classifies warm/cold against the shared store, and enqueues them for
/// the session runners. Dedicated thread so `Graph::from_edges` +
/// `decompose` + canonical-form probing never run on the IO thread.
fn run_admission(shared: &Arc<Shared>) {
    loop {
        let pending = {
            let mut admission = shared.admission.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(pending) = admission.pop_front() {
                    break pending;
                }
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                admission = shared
                    .admission_cv
                    .wait(admission)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        classify_and_enqueue(pending, shared);
    }
}

/// Admission control, stage two (admission worker): the CPU-heavy part.
fn classify_and_enqueue(pending: Pending, shared: &Arc<Shared>) {
    // The client may have vanished while the request sat in the
    // admission queue; skip the graph work entirely.
    if pending.cancel.is_cancelled() {
        pending.out.finish();
        shared.retire(&pending.tenant);
        return;
    }

    let req = &pending.req;
    let graph = Graph::from_edges(req.n, &req.edges);

    // Cache-aware classification: probe the atoms' canonical keys
    // without perturbing the store. Only cached sessions can actually
    // hit the store, so direct requests are always cold.
    let warm = req.cache && {
        let cost_id = named_cost(&req.cost)
            .expect("validated at stage one")
            .name();
        decompose(&graph, ReductionLevel::Full)
            .atoms
            .iter()
            .any(|atom| {
                shared.store.probe(&AtomKey {
                    graph: atom.graph.canonical_form().key,
                    cost_id: cost_id.clone(),
                    width_bound: req.width_bound,
                })
            })
    };

    let metrics = serve_metrics();
    if warm {
        metrics.warm.incr();
    } else {
        metrics.cold.incr();
    }

    let accepted = format!(
        "{{\"frame\": \"accepted\", \"queue\": \"{}\"}}\n",
        if warm { "warm" } else { "cold" }
    );
    if !pending.out.push(accepted.as_bytes()) {
        pending.out.finish();
        shared.retire(&pending.tenant);
        return;
    }

    let job = Job {
        req: pending.req,
        graph,
        out: pending.out,
        cancel: pending.cancel,
        tenant: pending.tenant,
        warm,
        accepted_at: pending.accepted_at,
    };
    {
        let mut sched = shared.sched.lock().unwrap_or_else(|e| e.into_inner());
        if warm {
            sched.warm.push_back(job);
        } else {
            sched.cold.push_back(job);
        }
    }
    shared.sched_cv.notify_one();
}

/// A session-runner thread: pop warm-first, drive the engines, stream.
fn run_sessions(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut sched = shared.sched.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = sched.warm.pop_front().or_else(|| sched.cold.pop_front()) {
                    break job;
                }
                // An empty queue is not enough to exit on: a session
                // admitted just before the shutdown signal may still be
                // with the admission worker, and would be stranded in the
                // queue with no runner left. Exit once nothing is in flight.
                if shared.shutting_down.load(Ordering::SeqCst)
                    && shared.in_flight.load(Ordering::SeqCst) == 0
                {
                    return;
                }
                sched = shared
                    .sched_cv
                    .wait(sched)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        // Watchdog supervision: a session still running past the cap is
        // cancelled through its CancelFlag — the engines observe it at
        // their next demand boundary and stop with `cancelled`.
        let watch_token = shared.max_session_ms.map(|ms| {
            shared.watch(
                Instant::now() + Duration::from_millis(ms),
                job.cancel.clone(),
            )
        });
        // Panic isolation: a panicking session (a cost-function bug, a
        // fault-injected panic) must fail *this* request, not the
        // daemon. The client gets a typed `internal-error` frame; every
        // other connection is untouched.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_one(&job, shared);
        }));
        if let Err(payload) = outcome {
            let message = mtr_core::panic_message(payload);
            job.out.push(
                protocol::error_frame(&ProtocolError {
                    code: "internal-error",
                    message: format!("session panicked: {message}"),
                })
                .as_bytes(),
            );
            job.out.finish();
        }
        if let Some(token) = watch_token {
            shared.unwatch(token);
        }
        shared.retire(&job.tenant);
    }
}

/// Nanoseconds in `d`, saturating at `u64::MAX`.
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one admitted session and streams its frames.
fn run_one(job: &Job, shared: &Arc<Shared>) {
    let req = &job.req;
    let queue = if job.warm { "warm" } else { "cold" };
    let admission_wait = job.accepted_at.map(|at| at.elapsed());
    if let Some(wait) = admission_wait {
        serve_metrics().admission_wait_ns.record(duration_ns(wait));
    }
    let mut req_span = mtr_obs::span("serve.request");
    req_span.attr("tenant", job.tenant.clone());
    req_span.attr("queue", queue.to_string());
    // Chaos hook: `error` surfaces as a typed internal-error frame,
    // `panic` exercises the catch_unwind isolation in the caller.
    if let Err(fault) = mtr_fault::check("serve.session.run") {
        job.out.push(
            protocol::error_frame(&ProtocolError {
                code: "internal-error",
                message: fault.to_string(),
            })
            .as_bytes(),
        );
        job.out.finish();
        return;
    }
    if req.binary {
        job.out.push(&protocol::binary_stream_header());
    }

    let mut session = match Enumerate::on(&job.graph).cost_named(&req.cost) {
        Ok(session) => session,
        Err(e) => {
            job.out.push(
                protocol::error_frame(&ProtocolError {
                    code: "unknown-cost",
                    message: e.to_string(),
                })
                .as_bytes(),
            );
            job.out.finish();
            return;
        }
    };
    session = session.threads(req.threads).cancel_flag(job.cancel.clone());
    if let Some(bound) = req.width_bound {
        session = session.width_bound(bound);
    }
    if let Some(k) = req.max_results {
        session = session.max_results(k);
    }
    if let Some(ms) = req.deadline_ms {
        session = session.deadline(Duration::from_millis(ms));
    }
    if let Some(nodes) = req.node_budget {
        session = session.node_budget(usize::try_from(nodes).unwrap_or(usize::MAX));
    }

    let mut rank = 0u64;
    let mut first_result: Option<Duration> = None;
    let out = Arc::clone(&job.out);
    let graph = &job.graph;
    let binary = req.binary;
    let accepted_at = job.accepted_at;
    let mut emit = |r: mtr_core::RankedTriangulation| {
        let fill = graph.fill_edges_of(&r.triangulation);
        let ok = if binary {
            out.push(&protocol::result_frame_binary(rank, r.cost.value(), &fill))
        } else {
            out.push(protocol::result_frame(rank, r.cost.value(), &fill).as_bytes())
        };
        if ok {
            // Count only frames actually delivered, so the done frame's
            // `results` field matches what the client received.
            rank += 1;
            if first_result.is_none() {
                first_result = accepted_at.map(|at| at.elapsed());
                if let Some(latency) = first_result {
                    serve_metrics().first_result_ns.record(duration_ns(latency));
                }
            }
            std::ops::ControlFlow::Continue(())
        } else {
            std::ops::ControlFlow::Break(())
        }
    };

    // Cached sessions run through the reduction layer against the shared
    // store (the warm path); direct ones run the plain engine and are
    // bit-for-bit equal to `Enumerate::on` — the equivalence tests rely
    // on exactly that split.
    let outcome = if req.cache {
        session
            .reduce(ReductionLevel::Full)
            .store(Arc::clone(&shared.store))
            .drive(&mut emit)
    } else {
        session.drive(&mut emit)
    };

    let stop_label = match outcome {
        Ok(report) => {
            let stop_reason = if report.stop_reason == StopReason::Stopped {
                // The only Break in the callback is a disconnect.
                StopReason::Cancelled
            } else {
                report.stop_reason
            };
            let stats = report.stats.to_json(stop_reason);
            job.out
                .push(protocol::done_frame(stop_reason, rank as usize, &stats).as_bytes());
            stop_reason.to_string()
        }
        Err(e) => {
            // A contained worker panic is the daemon's fault, not the
            // request's: distinguish it on the wire so clients can
            // decide to retry (`internal-error`) vs give up
            // (`session-error`).
            let code = match &e {
                mtr_core::EnumerationError::WorkerPanicked(_) => "internal-error",
                _ => "session-error",
            };
            job.out.push(
                protocol::error_frame(&ProtocolError {
                    code,
                    message: e.to_string(),
                })
                .as_bytes(),
            );
            "error".to_string()
        }
    };
    job.out.finish();

    if req_span.is_active() {
        req_span.attr("results", rank.to_string());
        req_span.attr("stop", stop_label.clone());
    }
    drop(req_span);

    // The slow-request log: one stderr JSON line with the full timing
    // breakdown whenever the first result took longer than the threshold
    // (a request that produced no result is judged by its total time).
    if let (Some(threshold), Some(at)) = (shared.slow_ms, job.accepted_at) {
        let total = at.elapsed();
        let first = first_result.unwrap_or(total);
        if first >= Duration::from_millis(threshold) {
            let ms = |d: Duration| d.as_nanos() as f64 / 1_000_000.0;
            eprintln!(
                concat!(
                    "{{\"slow_request\": {{\"tenant\": \"{}\", \"queue\": \"{}\", ",
                    "\"admission_wait_ms\": {:.3}, \"first_result_ms\": {:.3}, ",
                    "\"total_ms\": {:.3}, \"results\": {}, \"stop_reason\": \"{}\"}}}}"
                ),
                crate::json::escape(&job.tenant),
                queue,
                ms(admission_wait.unwrap_or_default()),
                ms(first),
                ms(total),
                rank,
                stop_label,
            );
        }
    }
}

/// Convenience: bind a TCP daemon on `127.0.0.1` with an ephemeral port
/// (the test fixture path).
pub fn serve_ephemeral(config: ServerConfig) -> std::io::Result<ServerHandle> {
    serve(&BindAddr::Tcp("127.0.0.1:0".into()), config)
}

/// Removes a stale Unix socket file (ignores missing).
pub fn cleanup_unix_socket(path: &Path) {
    let _ = std::fs::remove_file(path);
}
