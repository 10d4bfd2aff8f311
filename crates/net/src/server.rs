//! The TCP serving front-end: connections mapped onto [`ServingEngine`]
//! sessions, multiplexed by a single-threaded readiness event loop.
//!
//! One [`NetServer`] wraps one engine. The thread layout is a fixed set —
//! one event-loop thread plus the engine's worker pool, which is the only
//! compute in the process whatever the frame type — so a thousand
//! mostly-idle clients cost a thousand registered fds, not two thousand
//! parked threads:
//!
//! ```text
//!             ┌───────────────────────────────────────────────┐
//!  clients ──►│ event loop (run() thread, epoll/poll shim)    │
//!             │                                               │
//!             │  listener ──accept──► Conn state machine      │
//!             │                        ├ rbuf: incremental    │
//!             │                        │   frame reassembly   │
//!             │                        ├ pipeline: decoded    │
//!             │                        │   requests, FIFO     │
//!             │                        └ out: bounded write   │
//!             │                            backlog            │
//!             │      ▲ wakeup pipe                            │
//!             └──────┼────────────────────────────────────────┘
//!                    │ notify per completed batch
//!             ┌──────┴────────────────────────────────────────┐
//!             │ ServingEngine: fair queue ──► worker pool     │
//!             │ (`EngineConfig::workers` threads; every       │
//!             │  ClassifyPacked *and* Candidates batch)       │
//!             └───────────────────────────────────────────────┘
//! ```
//!
//! Each connection is a small state machine driven only by readiness:
//!
//! * **Read-readiness** appends to `rbuf`; complete frames are parsed into
//!   a FIFO `pipeline` of decoded requests. Parsing (and reading) stops —
//!   and TCP flow control pushes back on the client — once the connection
//!   holds enough undispatched work or its outbound backlog passes
//!   [`ServerConfig::outbound_high_water`].
//! * **The engine side is non-blocking, and there is one request path.**
//!   Requests are chunked into session batches via `try_submit_owned`,
//!   each batch tagged with the output its frame type asks for
//!   (`ClassifyPacked` → classifications, `Candidates` → candidate lists);
//!   admission, shedding, credits, lanes, replay across a reload and the
//!   `Internal` answer to a worker panic are the same code for both — only
//!   the reply encoder differs. Completed batches re-enter
//!   the loop through a wakeup pipe (the session's delivery notifier) and
//!   are matched back to their request by submission order. Consecutive
//!   requests on one connection overlap in the engine — the writer no
//!   longer drains the session at each request boundary, so there is no
//!   pipeline bubble between back-to-back requests.
//! * **Responses are emitted strictly in request order** from the front of
//!   the pipeline (`Results`, `Pong`, `Busy` and error frames alike), into
//!   a per-connection outbound buffer flushed on write-readiness.
//! * **Deadlines are a timer heap over the loop**, not socket timeouts:
//!   handshake, whole-frame, idle and write-stall deadlines each schedule
//!   a wakeup; lazy cancellation keeps rescheduling O(log n).
//!
//! The PR 6/7 guarantees carry over unchanged: credit-based backpressure
//! announced in the handshake, errors as frames, per-connection failure
//! isolation, `Ping`/`Pong` liveness, `Busy` connection and request
//! shedding, constant-time auth — and graceful drain:
//! [`ServerHandle::shutdown`] wakes the loop, which stops accepting and
//! half-closes every read side; already-decoded requests still classify
//! and their results still reach the client, then [`NetServer::run`]
//! returns. Because the server borrows the engine, a following
//! [`ServingEngine::shutdown`] is guaranteed to see an idle engine — the
//! two drains compose.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use mc_seqio::SequenceRecord;
use metacache::serving::{OutputKind, ServingEngine, Session, SessionConfig};
use metacache::{Candidate, Classification};

use crate::poll::{self, Event, Interest, Poller, TimerHeap, Waker, WAKE_TOKEN};
use crate::protocol::{
    constant_time_eq, decode_classify_into, encode_candidate_results_into, encode_results_into,
    frame_type, write_frame, ErrorCode, Frame, ProtocolError, BUSY_CONNECTION, MAGIC,
    MAX_FRAME_LEN, PROTOCOL_VERSION,
};

/// Poll token of the listening socket (connection tokens start at 1;
/// [`WAKE_TOKEN`] is reserved by the poller).
const LISTENER_TOKEN: u64 = 0;

/// Bytes read per `read(2)` into a connection's reassembly buffer.
const READ_CHUNK: usize = 64 * 1024;

/// Decoded-but-undispatched requests buffered per connection (in addition
/// to the engine-side credit bound) — the pipelining depth the loop parses
/// ahead. Past it the loop stops parsing — and reading — that connection
/// until dispatch catches up. Two keeps a session busy across request
/// boundaries; more only grows the per-connection memory bound.
const PENDING_REQUESTS: usize = 2;

/// Per-connection record-vector pool bound: one per buffered request plus
/// the one being submitted.
const POOL_CAP: usize = PENDING_REQUESTS + 1;

/// Write-stall bound for a connection refused with a connection-level
/// `Busy`: a peer that will not read its refusal is simply dropped.
const REFUSE_WRITE_WINDOW: Duration = Duration::from_secs(2);

/// The server-side half of a `Reload`: builds the next database state
/// and swaps it into the engine (typically via
/// [`ServingEngine::reload_backend`]), returning the new generation. The
/// hook runs on a dedicated worker thread — it may block on I/O (re-reading
/// references from disk, reloading downstream shards) without stalling the
/// event loop. An `Err` is answered with [`ErrorCode::Internal`] and the
/// requesting connection is closed; the serving state is whatever the hook
/// left behind.
pub type ReloadHook = Arc<dyn Fn(&ServingEngine) -> Result<u64, String> + Send + Sync>;

/// Tuning knobs of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-connection session overrides (`0` fields = engine defaults).
    /// `session.class` picks the fair-queue lane every connection of this
    /// server schedules in (interactive by default).
    pub session: SessionConfig,
    /// Write-stall deadline per connection. A client that stops *reading*
    /// while keeping the connection open would otherwise pin its outbound
    /// backlog — and the graceful drain of [`NetServer::run`] — forever.
    /// The deadline re-arms on every successful write, so it bounds time
    /// *without progress*; when it fires the connection is torn down and
    /// counted in [`ServerStats::write_stalls`]. `None` disables the bound
    /// (not recommended for untrusted clients).
    pub write_timeout: Option<Duration>,
    /// Deadline for completing one frame once its first byte has arrived.
    /// The deadline is fixed at frame start, so a slow-loris peer dribbling
    /// bytes cannot extend it — the whole frame lands within this bound or
    /// the connection is torn down with [`ErrorCode::TimedOut`]. `None`
    /// disables the bound (not recommended for untrusted clients).
    pub read_timeout: Option<Duration>,
    /// Idle reaping: the longest a connection may sit at a frame boundary
    /// with no traffic at all. Any frame resets the clock — an idle-but-
    /// alive client stays off the reaper by sending [`Frame::Ping`]
    /// within this window. `None` keeps idle connections forever.
    pub idle_timeout: Option<Duration>,
    /// Deadline from accept to a complete `Hello` (covers both the wait
    /// for the first byte and a dribbled handshake). `None` disables it.
    pub handshake_timeout: Option<Duration>,
    /// Cap on simultaneously served connections (`0` = unbounded). Past
    /// the cap, an accepted connection is answered with a connection-level
    /// [`Frame::Busy`] and closed instead of being served.
    pub max_connections: usize,
    /// Cap on reads being classified across all connections at once
    /// (`0` = unbounded). A request that would push past it is shed with
    /// a request-level [`Frame::Busy`] instead of queueing — one policy
    /// for every peer. Setting the cap also arms high-water admission: a
    /// brand-new session is shed while the engine's fair queue is
    /// saturated. `0` disables request shedding entirely: requests queue
    /// behind the credit window and TCP backpressure.
    pub max_inflight_records: usize,
    /// The retry hint carried by every [`Frame::Busy`] this server sends.
    pub retry_after_ms: u32,
    /// Require this pre-shared token in every `Hello` (compared in
    /// constant time); a missing or wrong token is answered with
    /// [`ErrorCode::Unauthorized`]. `None` disables auth.
    pub auth_token: Option<String>,
    /// Slow-reader bound: bytes of encoded responses allowed to queue on
    /// one connection before the loop stops reading (and admitting) more
    /// of its requests, withholding the session's engine credits instead
    /// of pinning unbounded result memory. The backlog itself stays
    /// bounded by the credit window; [`ServerConfig::write_timeout`] then
    /// bounds how long it may sit unflushed. `0` disables the bound.
    pub outbound_high_water: usize,
    /// Pin accepted sockets' kernel send buffer (`SO_SNDBUF`) to roughly
    /// this many bytes (`0` = leave kernel autotuning on). Pinning makes
    /// slow-reader backpressure deterministic — tests use it to fill the
    /// pipe quickly.
    pub send_buffer: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            session: SessionConfig::default(),
            write_timeout: Some(Duration::from_secs(30)),
            read_timeout: Some(Duration::from_secs(30)),
            idle_timeout: Some(Duration::from_secs(300)),
            handshake_timeout: Some(Duration::from_secs(10)),
            max_connections: 0,
            max_inflight_records: 0,
            retry_after_ms: 100,
            auth_token: None,
            outbound_high_water: 4 * 1024 * 1024,
            send_buffer: 0,
        }
    }
}

/// Lifetime counters of a server, returned by [`NetServer::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted (including ones that failed the handshake).
    pub connections: u64,
    /// Requests answered with `Results` / `CandidateResults`.
    pub requests: u64,
    /// Reads classified across all connections.
    pub reads: u64,
    /// Connections terminated with a protocol error frame.
    pub protocol_errors: u64,
    /// Requests lost to an internal failure (backend worker panic).
    pub internal_errors: u64,
    /// Requests refused with a request-level [`Frame::Busy`] (load shed).
    pub shed_requests: u64,
    /// Connections refused with a connection-level [`Frame::Busy`].
    pub shed_connections: u64,
    /// Connections torn down by a read/idle/handshake deadline.
    pub timeouts: u64,
    /// Handshakes rejected for a missing or wrong auth token.
    pub auth_failures: u64,
    /// Connections torn down because a stalled reader left the outbound
    /// backlog unflushed past [`ServerConfig::write_timeout`].
    pub write_stalls: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    reads: AtomicU64,
    protocol_errors: AtomicU64,
    internal_errors: AtomicU64,
    shed_requests: AtomicU64,
    shed_connections: AtomicU64,
    timeouts: AtomicU64,
    auth_failures: AtomicU64,
    write_stalls: AtomicU64,
}

/// State shared between the event loop, the engine's delivery notifiers
/// and every [`ServerHandle`].
struct Shared {
    shutting_down: AtomicBool,
    /// Interrupts a blocked poll wait from any thread.
    waker: Waker,
    /// Connection tokens whose session has results ready to drain; pushed
    /// by the per-session delivery notifier (on engine worker threads).
    completions: Mutex<Vec<u64>>,
    /// Set by the engine's queue-space watcher: some shared-queue slot
    /// freed, connections with stashed submissions should retry.
    queue_space: AtomicBool,
    /// Reads currently admitted for classification across all connections
    /// — the gauge behind [`ServerConfig::max_inflight_records`].
    inflight_records: AtomicU64,
    counters: Counters,
    addr: SocketAddr,
}

/// A cloneable remote control of a running [`NetServer`]: triggers the
/// graceful drain from any thread.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The address the server is listening on (useful with an ephemeral
    /// port bind like `127.0.0.1:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Begin the graceful drain: stop accepting, half-close every live
    /// connection's read side so in-flight requests finish and their
    /// results are delivered, then let [`NetServer::run`] return.
    /// Idempotent — the loop is interrupted through its wakeup pipe, so
    /// no connectable address or spare fd is needed.
    pub fn shutdown(&self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.waker.wake();
    }
}

/// A TCP front-end serving one [`ServingEngine`]: each accepted connection
/// becomes one engine [`Session`], served by
/// a single event-loop thread (see the module docs).
///
/// The server borrows the engine, so the borrow checker proves the engine
/// outlives every connection — and that [`ServingEngine::shutdown`] can only
/// run after the server has fully drained.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use mc_net::{NetClient, NetServer};
/// use mc_seqio::SequenceRecord;
/// use mc_taxonomy::{Rank, Taxonomy};
/// use metacache::serving::{EngineConfig, ServingEngine};
/// use metacache::{build::CpuBuilder, HostBackend, MetaCacheConfig};
///
/// # let mut taxonomy = Taxonomy::with_root();
/// # taxonomy.add_node(100, 1, Rank::Species, "Species A").unwrap();
/// # let mut state = 5u64;
/// # let genome: Vec<u8> = (0..8000).map(|_| {
/// #     state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
/// #     b"ACGT"[(state >> 33) as usize % 4]
/// # }).collect();
/// # let mut builder = CpuBuilder::new(MetaCacheConfig::default(), taxonomy);
/// # builder.add_target(SequenceRecord::new("refA", genome.clone()), 100).unwrap();
/// let backend = HostBackend::new(Arc::new(builder.finish()));
/// let engine = ServingEngine::new(backend, EngineConfig::default());
/// let server = NetServer::bind(&engine, "127.0.0.1:0").unwrap();
/// let handle = server.handle();
///
/// std::thread::scope(|scope| {
///     scope.spawn(|| server.run());
///     let mut client = NetClient::connect(handle.local_addr()).unwrap();
///     let reads = vec![SequenceRecord::new("r0", genome[200..350].to_vec())];
///     let classifications = client.classify_batch(&reads).unwrap();
///     assert_eq!(classifications[0].taxon, 100);
///     drop(client);
///     handle.shutdown(); // graceful drain; run() returns
/// });
/// let stats = engine.shutdown(); // engine drain composes with the server's
/// assert_eq!(stats.records_classified, 1);
/// ```
pub struct NetServer<'e> {
    engine: &'e ServingEngine,
    listener: TcpListener,
    config: ServerConfig,
    shared: Arc<Shared>,
    poller: Poller,
    reload: Option<ReloadHook>,
}

impl<'e> NetServer<'e> {
    /// Bind a server for `engine` on `addr` (use port `0` for an ephemeral
    /// port, then [`ServerHandle::local_addr`]). Default [`ServerConfig`].
    pub fn bind(engine: &'e ServingEngine, addr: impl std::net::ToSocketAddrs) -> io::Result<Self> {
        Self::bind_with(engine, addr, ServerConfig::default())
    }

    /// Bind with an explicit configuration.
    pub fn bind_with(
        engine: &'e ServingEngine,
        addr: impl std::net::ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        let shared = Arc::new(Shared {
            shutting_down: AtomicBool::new(false),
            waker: poller.waker(),
            completions: Mutex::new(Vec::new()),
            queue_space: AtomicBool::new(false),
            inflight_records: AtomicU64::new(0),
            counters: Counters::default(),
            addr: listener.local_addr()?,
        });
        Ok(Self {
            engine,
            listener,
            config,
            shared,
            poller,
            reload: None,
        })
    }

    /// Enable the `Reload` admin frame: `hook` is invoked (on a
    /// dedicated worker thread, serially) for each accepted `Reload`, and
    /// its returned generation is answered with a `ReloadAck`. Without a
    /// hook, `Reload` frames are refused with [`ErrorCode::Internal`].
    pub fn with_reload(mut self, hook: ReloadHook) -> Self {
        self.reload = Some(hook);
        self
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle for triggering the graceful drain from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serve until [`ServerHandle::shutdown`] is called: the calling thread
    /// becomes the event loop (accept, frame reassembly, dispatch, write
    /// flushing); the engine's workers do the classifying. Returns after
    /// every live connection has drained and closed.
    pub fn run(self) -> io::Result<ServerStats> {
        let NetServer {
            engine,
            listener,
            config,
            shared,
            poller,
            reload,
        } = self;
        {
            // Queue-space pops re-arm stashed submissions. The watcher
            // outlives this run (the engine keeps it); stale wakes after
            // the poller is gone write into a closed pipe and are ignored.
            let watch = Arc::clone(&shared);
            engine.watch_queue_space(Arc::new(move || {
                watch.queue_space.store(true, Ordering::Release);
                watch.waker.wake();
            }));
        }
        let mut ctx = LoopCtx {
            engine,
            config: &config,
            shared: Arc::clone(&shared),
            poller,
            timers: TimerHeap::new(),
            scratch: Vec::new(),
            reload_jobs: Vec::new(),
            reload_enabled: reload.is_some(),
            space_waiters: HashSet::new(),
            serving: 0,
            high_water: match config.outbound_high_water {
                0 => usize::MAX,
                hw => hw,
            },
        };
        std::thread::scope(|scope| -> io::Result<()> {
            let mut conns: HashMap<u64, Conn<'_>> = HashMap::new();
            let mut events: Vec<Event> = Vec::new();
            let mut next_token: u64 = 1;
            let mut listener = Some(listener);
            let mut draining = false;
            // Reloads run on a single lazily-spawned worker — the only
            // thread this server ever spawns: the hook may block on
            // disk/network I/O, and serialising reloads gives each one a
            // well-defined generation to acknowledge.
            let (reload_tx, reload_rx) = mpsc::channel::<u64>();
            let (reload_done_tx, reload_done_rx) = mpsc::channel::<ReloadDone>();
            let mut reload_rx = Some(reload_rx);
            loop {
                if draining && conns.is_empty() {
                    break;
                }
                let timeout = ctx
                    .timers
                    .next_deadline()
                    .map(|d| d.saturating_duration_since(Instant::now()));
                ctx.poller.wait(&mut events, timeout)?;
                if !draining && ctx.shared.shutting_down.load(Ordering::SeqCst) {
                    draining = true;
                    if let Some(l) = listener.take() {
                        let _ = ctx.poller.deregister(l.as_raw_fd());
                    }
                    let tokens: Vec<u64> = conns.keys().copied().collect();
                    for token in tokens {
                        if let Some(conn) = conns.get_mut(&token) {
                            // Half-close: discard unparsed input, serve what
                            // is already decoded, flush, then close — the
                            // same EOF semantics a clean client disconnect
                            // gets.
                            let _ = conn.stream.shutdown(Shutdown::Read);
                            conn.close_read();
                            conn.rbuf.clear();
                            conn.roff = 0;
                            ctx.advance(token, conn);
                        }
                        ctx.finish(&mut conns, token);
                    }
                }
                for &ev in &events {
                    match ev.token {
                        WAKE_TOKEN => {}
                        LISTENER_TOKEN => {
                            if let Some(l) = listener.as_ref() {
                                ctx.accept_all(l, &mut conns, &mut next_token);
                            }
                        }
                        token => {
                            if let Some(conn) = conns.get_mut(&token) {
                                ctx.advance(token, conn);
                            }
                            ctx.finish(&mut conns, token);
                        }
                    }
                }
                // Engine deliveries: one entry per completed batch; dedupe
                // so a burst of completions advances each connection once.
                let mut done: Vec<u64> = {
                    let mut queue = ctx
                        .shared
                        .completions
                        .lock()
                        .unwrap_or_else(|e| e.into_inner());
                    std::mem::take(&mut *queue)
                };
                done.sort_unstable();
                done.dedup();
                for token in done {
                    if let Some(conn) = conns.get_mut(&token) {
                        ctx.advance(token, conn);
                    }
                    ctx.finish(&mut conns, token);
                }
                while let Ok(result) = reload_done_rx.try_recv() {
                    let token = result.conn;
                    if let Some(conn) = conns.get_mut(&token) {
                        ctx.apply_reload_result(conn, result);
                        ctx.advance(token, conn);
                    }
                    ctx.finish(&mut conns, token);
                }
                if ctx.shared.queue_space.swap(false, Ordering::AcqRel) {
                    let waiters: Vec<u64> = ctx.space_waiters.drain().collect();
                    for token in waiters {
                        if let Some(conn) = conns.get_mut(&token) {
                            ctx.advance(token, conn);
                        }
                        ctx.finish(&mut conns, token);
                    }
                }
                let now = Instant::now();
                while let Some((at, token)) = ctx.timers.pop_due(now) {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    if conn.timer_at == Some(at) {
                        conn.timer_at = None;
                    }
                    ctx.fire_deadlines(conn, now);
                    ctx.advance(token, conn);
                    ctx.finish(&mut conns, token);
                }
                let pending_reloads = std::mem::take(&mut ctx.reload_jobs);
                for token in pending_reloads {
                    if let Some(rx) = reload_rx.take() {
                        let hook = reload
                            .clone()
                            .expect("reload jobs are only queued with a hook installed");
                        let done_tx = reload_done_tx.clone();
                        let waker = ctx.shared.waker.clone();
                        scope.spawn(move || reload_worker(engine, hook, rx, done_tx, waker));
                    }
                    let _ = reload_tx.send(token);
                }
            }
            // Dropping the job sender here (closure scope end) unblocks the
            // reload worker; the scope joins it.
            Ok(())
        })?;
        let c = &shared.counters;
        Ok(ServerStats {
            connections: c.connections.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            reads: c.reads.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            internal_errors: c.internal_errors.load(Ordering::Relaxed),
            shed_requests: c.shed_requests.load(Ordering::Relaxed),
            shed_connections: c.shed_connections.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            auth_failures: c.auth_failures.load(Ordering::Relaxed),
            write_stalls: c.write_stalls.load(Ordering::Relaxed),
        })
    }
}

/// Connection phase: waiting for the `Hello`, or serving requests.
#[derive(PartialEq, Eq, Clone, Copy)]
enum Phase {
    Handshake,
    Open,
}

/// Undispatched reads of a request, chunked lazily into session batches.
enum Pending {
    /// Single-batch request: the decoded vector rides to the engine whole
    /// (zero copies, same as the old blocking fast path).
    Whole(Vec<SequenceRecord>),
    /// Multi-batch request: drained `batch_records` at a time.
    Chunks(std::vec::IntoIter<SequenceRecord>),
}

/// A decoded read-carrying request (`ClassifyPacked` or `Candidates`) in
/// flight.
struct Request {
    request_id: u64,
    /// What the frame type asks back per read; tags every engine batch of
    /// this request and picks the reply encoder.
    output: OutputKind,
    read_count: u64,
    /// Passed admission (gauge reserved, shed decision made).
    admitted: bool,
    total_batches: usize,
    completed: usize,
    /// A backend worker panicked on one of this request's batches.
    failed: bool,
    pending: Option<Pending>,
    /// A batch the engine refused (queue full / out of credits), waiting
    /// for space or a freed credit.
    stashed: Option<Vec<SequenceRecord>>,
    /// The answer so far, in read order (only `output`'s vector fills).
    classifications: Vec<Classification>,
    candidates: Vec<Vec<Candidate>>,
    /// Database generation of the first completed batch. The whole request
    /// is answered under one generation: if a reload lands between two of
    /// its batches, the request is replayed entirely on the new epoch.
    generation: Option<u64>,
    /// Some completed batch saw a different generation than the first —
    /// the request straddled a reload and must replay.
    mixed: bool,
    /// Drained batch records held back for a possible replay (multi-batch
    /// requests only; a single-batch request can never straddle a reload).
    drained: Vec<Vec<SequenceRecord>>,
}

/// One entry of a connection's FIFO response pipeline. Responses are
/// emitted strictly in request order from the front.
enum Item {
    Request(Box<Request>),
    /// A liveness probe, answered with `Pong` in order.
    Ping {
        nonce: u64,
    },
    /// A shed request's in-order `Busy` answer.
    Busy {
        request_id: u64,
    },
    /// A `Reload` admin request, answered in order with `ReloadAck`.
    Reload {
        /// Handed to the reload worker (at most once).
        started: bool,
        /// `Some(Ok(generation))` = swapped; `Some(Err)` = the hook failed
        /// (or none is installed) and the connection closes with an error.
        done: Option<Result<u64, String>>,
    },
    /// Undecodable input: report and close (terminal).
    Fail(ProtocolError),
    /// A pre-counted terminal error (auth failure, deadline expiry).
    Deny {
        code: ErrorCode,
        message: String,
    },
}

impl Item {
    /// Whether this item still holds undispatched input — the measure
    /// behind the parse gate (decoded-but-undispatched request bound).
    fn holds_input(&self) -> bool {
        match self {
            Item::Request(r) => !r.admitted || r.pending.is_some() || r.stashed.is_some(),
            _ => false,
        }
    }
}

/// Per-connection state machine (see module docs).
struct Conn<'e> {
    stream: TcpStream,
    token: u64,
    phase: Phase,
    session: Option<Session<'e>>,
    /// Frame reassembly buffer; `roff` marks the parse offset.
    rbuf: Vec<u8>,
    roff: usize,
    /// A partial frame sits in `rbuf` (selects the frame-stall deadline
    /// and its timeout message over the idle one).
    in_frame: bool,
    /// Parse/read gate state as of the last advance (for deadline
    /// suspension while backpressured).
    gated: bool,
    read_closed: bool,
    /// Stop parsing and discard input (terminal answer queued or clean
    /// goodbye).
    poisoned: bool,
    /// Terminal response emitted: flush `out`, then tear down.
    closing: bool,
    /// Tear down immediately (I/O error, write stall).
    dead: bool,
    /// Outbound byte backlog; `ooff` marks the flushed prefix.
    out: Vec<u8>,
    ooff: usize,
    pipeline: VecDeque<Item>,
    /// Request id per submitted engine batch, in submission order —
    /// completed batches are matched back to their request through this.
    submit_order: VecDeque<u64>,
    last_request_id: Option<u64>,
    served_any: bool,
    read_deadline: Option<Instant>,
    write_deadline: Option<Instant>,
    /// Progress window re-armed on every successful write.
    write_window: Option<Duration>,
    /// Earliest instant currently scheduled in the timer heap for this
    /// connection (lazy cancellation: stale pops are ignored).
    timer_at: Option<Instant>,
    interest: Interest,
    /// Recycled record vectors (decode targets / drained batches).
    pool: Vec<Vec<SequenceRecord>>,
    /// This connection's share of the global in-flight record gauge.
    gauge: u64,
    /// Counted against `max_connections` (false for refused connections).
    counted: bool,
}

impl Conn<'_> {
    fn new(stream: TcpStream, token: u64) -> Self {
        Self {
            stream,
            token,
            phase: Phase::Handshake,
            session: None,
            rbuf: Vec::new(),
            roff: 0,
            in_frame: false,
            gated: false,
            read_closed: false,
            poisoned: false,
            closing: false,
            dead: false,
            out: Vec::new(),
            ooff: 0,
            pipeline: VecDeque::new(),
            submit_order: VecDeque::new(),
            last_request_id: None,
            served_any: false,
            read_deadline: None,
            write_deadline: None,
            write_window: None,
            timer_at: None,
            interest: Interest::READ,
            pool: Vec::new(),
            gauge: 0,
            counted: false,
        }
    }

    /// The read side is finished (EOF, goodbye, drain): any armed read
    /// deadline must not fire over the remaining writes.
    fn close_read(&mut self) {
        self.read_closed = true;
        self.read_deadline = None;
    }

    /// A terminal response was emitted: stop reading, flush, tear down.
    fn begin_close(&mut self) {
        self.closing = true;
        self.poisoned = true;
        self.rbuf.clear();
        self.roff = 0;
        self.read_deadline = None;
    }

    /// Whether the connection has nothing left to do and can be torn down.
    fn finished(&self) -> bool {
        if self.dead {
            return true;
        }
        let drained = self.out.len() == self.ooff;
        if self.closing {
            return drained;
        }
        drained && self.read_closed && self.pipeline.is_empty()
    }
}

/// A reload outcome returning from the reload worker to the loop.
struct ReloadDone {
    conn: u64,
    result: Result<u64, String>,
}

/// The event loop's non-connection state, threaded through every pump.
struct LoopCtx<'e, 'c> {
    engine: &'e ServingEngine,
    config: &'c ServerConfig,
    shared: Arc<Shared>,
    poller: Poller,
    timers: TimerHeap,
    /// Reusable response-encoding buffer (one frame at a time).
    scratch: Vec<u8>,
    /// Connections whose `Reload` request awaits the reload worker.
    reload_jobs: Vec<u64>,
    /// A [`ReloadHook`] is installed (reloads without one fail fast).
    reload_enabled: bool,
    /// Connections with a stashed submission waiting for queue space.
    space_waiters: HashSet<u64>,
    /// Connections currently counted against `max_connections`.
    serving: usize,
    /// Resolved outbound-buffer gate (usize::MAX = unbounded).
    high_water: usize,
}

impl<'e> LoopCtx<'e, '_> {
    // --- accept ---------------------------------------------------------

    fn accept_all(
        &mut self,
        listener: &TcpListener,
        conns: &mut HashMap<u64, Conn<'e>>,
        next_token: &mut u64,
    ) {
        loop {
            let (stream, _peer) = match listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // Transient accept failures (per-connection resource
                // errors, fd exhaustion) must not kill the server — but
                // must not busy-spin the loop either.
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(5));
                    break;
                }
            };
            self.shared
                .counters
                .connections
                .fetch_add(1, Ordering::Relaxed);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // Request/response traffic is latency-bound.
            let _ = stream.set_nodelay(true);
            if self.config.send_buffer > 0 {
                let _ = poll::set_send_buffer(&stream, self.config.send_buffer);
            }
            let token = *next_token;
            *next_token += 1;
            let now = Instant::now();
            // The flag is re-checked per accepted connection, not once per
            // loop entry: shutdown() can land while this very loop drains
            // the backlog, and a connection accepted after the flag must
            // get a typed refusal, never a served handshake.
            let draining = self.shared.shutting_down.load(Ordering::SeqCst);
            let refused =
                self.config.max_connections > 0 && self.serving >= self.config.max_connections;
            let mut conn = Conn::new(stream, token);
            if draining {
                conn.close_read();
                conn.poisoned = true;
                conn.closing = true;
                conn.write_window = Some(REFUSE_WRITE_WINDOW);
                conn.write_deadline = Some(now + REFUSE_WRITE_WINDOW);
                push_frame(
                    &mut conn.out,
                    &Frame::Error {
                        code: ErrorCode::ShuttingDown,
                        message: "server is draining".into(),
                    },
                );
                conn.interest = Interest::WRITE;
            } else if refused {
                // Shed at the door: a connection-level Busy instead of an
                // unbounded accept backlog, flushed on write-readiness
                // under a tight stall bound.
                self.shared
                    .counters
                    .shed_connections
                    .fetch_add(1, Ordering::Relaxed);
                conn.close_read();
                conn.poisoned = true;
                conn.closing = true;
                conn.write_window = Some(REFUSE_WRITE_WINDOW);
                conn.write_deadline = Some(now + REFUSE_WRITE_WINDOW);
                push_frame(
                    &mut conn.out,
                    &Frame::Busy {
                        request_id: BUSY_CONNECTION,
                        retry_after_ms: self.config.retry_after_ms,
                    },
                );
                conn.interest = Interest::WRITE;
            } else {
                conn.counted = true;
                self.serving += 1;
                conn.write_window = self.config.write_timeout;
                conn.read_deadline = self.config.handshake_timeout.map(|t| now + t);
                conn.interest = Interest::READ;
            }
            if self
                .poller
                .register(conn.stream.as_raw_fd(), token, conn.interest)
                .is_err()
            {
                if conn.counted {
                    self.serving -= 1;
                }
                continue;
            }
            conns.insert(token, conn);
            if let Some(conn) = conns.get_mut(&token) {
                self.advance(token, conn);
            }
            self.finish(conns, token);
        }
    }

    // --- the per-connection fixpoint ------------------------------------

    /// Drive one connection as far as it will go without blocking: drain
    /// engine results, read + parse, dispatch, emit, flush — repeated to a
    /// fixpoint (every pump is monotone, so this terminates) — then
    /// refresh poll interest and deadlines.
    fn advance(&mut self, token: u64, conn: &mut Conn<'e>) {
        loop {
            let mut progress = false;
            progress |= self.pump_drain(conn);
            progress |= self.pump_io_in(conn);
            progress |= self.pump_submit(token, conn);
            progress |= self.pump_emit(conn);
            progress |= self.pump_write(conn);
            if conn.dead || !progress {
                break;
            }
        }
        self.refresh_registration(token, conn);
        self.refresh_timers(token, conn);
    }

    /// Tear the connection down if it has nothing left to do.
    fn finish(&mut self, conns: &mut HashMap<u64, Conn<'e>>, token: u64) {
        if conns.get(&token).is_some_and(|c| c.finished()) {
            if let Some(conn) = conns.remove(&token) {
                self.teardown(conn);
            }
        }
    }

    fn teardown(&mut self, conn: Conn<'e>) {
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        if conn.gauge > 0 {
            self.shared
                .inflight_records
                .fetch_sub(conn.gauge, Ordering::Relaxed);
        }
        if conn.counted {
            self.serving -= 1;
        }
        self.space_waiters.remove(&conn.token);
        // Dropping the connection drops its session: the engine purges any
        // batches still in flight for it.
    }

    // --- engine results -------------------------------------------------

    fn pump_drain(&mut self, conn: &mut Conn<'e>) -> bool {
        let Some(session) = conn.session.as_mut() else {
            return false;
        };
        let mut progress = false;
        while let Some(done) = session.try_drain_owned() {
            progress = true;
            let rid = conn
                .submit_order
                .pop_front()
                .expect("engine result without a submitted batch");
            let req = conn
                .pipeline
                .iter_mut()
                .find_map(|item| match item {
                    Item::Request(r) if r.request_id == rid => Some(r),
                    _ => None,
                })
                .expect("completed batch for an unknown request");
            req.completed += 1;
            match req.generation {
                None => req.generation = Some(done.generation),
                Some(first) if first != done.generation => req.mixed = true,
                Some(_) => {}
            }
            if done.panicked {
                req.failed = true;
            } else if req.total_batches == 1 {
                req.classifications = done.classifications;
                req.candidates = done.candidates;
            } else {
                req.classifications.extend(done.classifications);
                req.candidates.extend(done.candidates);
            }
            // Multi-batch requests hold their drained records until the
            // whole request has completed under one generation: if a
            // reload lands between two of its batches, the request replays
            // entirely on the new epoch — a response is never a
            // mixed-epoch merge. (A single-batch request cannot straddle a
            // reload; its records are recycled immediately.)
            let mut spare = None;
            if req.total_batches > 1 && !req.failed {
                req.drained.push(done.records);
            } else {
                spare = Some(done.records);
            }
            if req.completed == req.total_batches {
                if req.mixed && !req.failed {
                    let all: Vec<SequenceRecord> = req.drained.drain(..).flatten().collect();
                    req.completed = 0;
                    req.classifications.clear();
                    req.candidates.clear();
                    req.generation = None;
                    req.mixed = false;
                    req.pending = Some(Pending::Chunks(all.into_iter()));
                    // The gauge reservation is kept: the reads are back in
                    // flight, not done.
                } else {
                    if req.read_count > 0 {
                        conn.gauge -= req.read_count;
                        self.shared
                            .inflight_records
                            .fetch_sub(req.read_count, Ordering::Relaxed);
                    }
                    for records in req.drained.drain(..) {
                        recycle_into(&mut conn.pool, records);
                    }
                }
            }
            if let Some(records) = spare {
                recycle_into(&mut conn.pool, records);
            }
        }
        progress
    }

    // --- read + parse ---------------------------------------------------

    /// The parse/read gate: stop consuming input while the connection
    /// holds enough undispatched work or its outbound backlog is past the
    /// high-water mark — TCP flow control then pushes back on the client,
    /// and (for a reader that stalled on its own results) the engine sees
    /// no new submissions: its credits are effectively withheld.
    fn gate(&self, conn: &Conn<'e>) -> bool {
        if conn.out.len() - conn.ooff >= self.high_water {
            return true;
        }
        let waiting = conn.pipeline.iter().filter(|i| i.holds_input()).count();
        waiting > PENDING_REQUESTS
    }

    fn pump_io_in(&mut self, conn: &mut Conn<'e>) -> bool {
        if conn.dead || conn.poisoned || conn.closing {
            return false;
        }
        let mut progress = false;
        let mut consumed_any = false;
        loop {
            consumed_any |= self.parse(conn);
            if conn.dead || conn.poisoned || conn.closing {
                break;
            }
            if conn.read_closed || self.gate(conn) {
                break;
            }
            match read_chunk(&mut conn.stream, &mut conn.rbuf) {
                ReadOutcome::Data => progress = true,
                ReadOutcome::Eof => {
                    // Complete frames already buffered still get served;
                    // a partial frame at EOF is discarded silently (the
                    // peer walked away mid-frame — same as before).
                    conn.close_read();
                    progress = true;
                }
                ReadOutcome::WouldBlock => break,
                ReadOutcome::Error => {
                    conn.dead = true;
                    break;
                }
            }
        }
        // Deadline bookkeeping: idle-vs-frame windows while the read side
        // is live, suspended entirely while gated (backpressure is not a
        // client stall).
        if !conn.dead && !conn.poisoned && !conn.closing && !conn.read_closed {
            if self.gate(conn) {
                if !conn.gated {
                    conn.gated = true;
                    conn.read_deadline = None;
                    conn.in_frame = false;
                }
            } else {
                let was_gated = conn.gated;
                conn.gated = false;
                let leftover = conn.rbuf.len() - conn.roff;
                let now = Instant::now();
                match conn.phase {
                    Phase::Handshake => {
                        // Fresh whole-frame window from the first byte; the
                        // accept-time deadline covers the wait before it.
                        if leftover > 0 && !conn.in_frame {
                            conn.in_frame = true;
                            if let Some(t) = self.config.handshake_timeout {
                                conn.read_deadline = Some(now + t);
                            }
                        }
                    }
                    Phase::Open => {
                        // Re-arm only on progress (or gate release): the
                        // deadline of a partial frame stays fixed at its
                        // first byte, so dribbling cannot extend it.
                        if consumed_any || was_gated || (leftover > 0 && !conn.in_frame) {
                            if leftover > 0 {
                                conn.in_frame = true;
                                conn.read_deadline = self.config.read_timeout.map(|t| now + t);
                            } else {
                                conn.in_frame = false;
                                conn.read_deadline = self.config.idle_timeout.map(|t| now + t);
                            }
                        }
                    }
                }
            }
        }
        progress || consumed_any
    }

    /// Consume every complete frame buffered in `rbuf`. Returns whether at
    /// least one frame was consumed.
    fn parse(&mut self, conn: &mut Conn<'e>) -> bool {
        let mut consumed = false;
        loop {
            if conn.dead || conn.poisoned || conn.closing || self.gate(conn) {
                break;
            }
            let avail = conn.rbuf.len() - conn.roff;
            if avail < 4 {
                break;
            }
            let len = u32::from_le_bytes(
                conn.rbuf[conn.roff..conn.roff + 4]
                    .try_into()
                    .expect("4-byte slice"),
            );
            if len == 0 || len > MAX_FRAME_LEN {
                self.reject(conn, ProtocolError::FrameTooLarge(len));
                break;
            }
            let total = 4 + len as usize;
            if avail < total {
                break;
            }
            let tag = conn.rbuf[conn.roff + 4];
            let span = (conn.roff + 5)..(conn.roff + total);
            conn.roff += total;
            consumed = true;
            match conn.phase {
                Phase::Handshake => self.handle_hello(conn, tag, span),
                Phase::Open => self.handle_frame(conn, tag, span),
            }
        }
        if conn.poisoned || conn.roff == conn.rbuf.len() {
            conn.rbuf.clear();
            conn.roff = 0;
        } else if conn.roff >= READ_CHUNK {
            conn.rbuf.drain(..conn.roff);
            conn.roff = 0;
        }
        consumed
    }

    /// Queue the in-order terminal answer for undecodable input.
    fn reject(&mut self, conn: &mut Conn<'e>, error: ProtocolError) {
        conn.pipeline.push_back(Item::Fail(error));
        conn.poisoned = true;
        conn.read_deadline = None;
    }

    fn handle_hello(&mut self, conn: &mut Conn<'e>, tag: u8, span: Range<usize>) {
        let frame = match Frame::decode(tag, &conn.rbuf[span]) {
            Ok(frame) => frame,
            Err(e) => {
                self.reject(conn, e);
                return;
            }
        };
        let Frame::Hello {
            magic,
            version,
            batch_records,
            max_in_flight,
            auth_token,
        } = frame
        else {
            self.reject(conn, ProtocolError::Malformed("expected Hello"));
            return;
        };
        if magic != MAGIC {
            self.reject(conn, ProtocolError::BadMagic(magic));
            return;
        }
        if version < PROTOCOL_VERSION {
            self.reject(conn, ProtocolError::UnsupportedVersion(version));
            return;
        }
        if let Some(required) = self.config.auth_token.as_deref() {
            // Constant-time compare; an absent token compares as empty
            // (same timing as a wrong one).
            let supplied = auth_token.as_deref().unwrap_or("");
            if !constant_time_eq(required.as_bytes(), supplied.as_bytes()) {
                self.shared
                    .counters
                    .auth_failures
                    .fetch_add(1, Ordering::Relaxed);
                conn.pipeline.push_back(Item::Deny {
                    code: ErrorCode::Unauthorized,
                    message: "invalid auth token".into(),
                });
                conn.poisoned = true;
                conn.read_deadline = None;
                return;
            }
        }
        // Resolve the session shape: client hints can shrink, never grow,
        // the server-side bounds (the engine's credit bound is the
        // protocol's credit bound — one resident engine batch per credit).
        let server_batch = if self.config.session.batch_records > 0 {
            self.config.session.batch_records
        } else {
            self.engine.config().batch_records
        };
        let server_credit = if self.config.session.max_in_flight > 0 {
            self.config.session.max_in_flight
        } else {
            self.engine.config().effective_session_in_flight()
        };
        let batch = match batch_records as usize {
            0 => server_batch,
            requested => requested.min(server_batch.max(1)),
        };
        // The engine clamps session credits at MAX_SESSION_IN_FLIGHT (the
        // result channel is pre-sized to the credit); announce the clamped
        // value so the client's window matches the session's real bound.
        let credits = match max_in_flight as usize {
            0 => server_credit,
            requested => requested.clamp(1, server_credit),
        }
        .min(metacache::serving::MAX_SESSION_IN_FLIGHT);
        // The delivery notifier re-enters the loop through the wakeup
        // pipe: it runs on engine worker threads after each batch lands in
        // the session's channel.
        let token = conn.token;
        let shared = Arc::clone(&self.shared);
        let notify: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
            shared
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(token);
            shared.waker.wake();
        });
        conn.session = Some(self.engine.session_with_notify(
            SessionConfig {
                batch_records: batch,
                max_in_flight: credits,
                class: self.config.session.class,
            },
            notify,
        ));
        // One dialect: a higher announcement is answered with our version
        // instead of rejected.
        conn.phase = Phase::Open;
        push_frame(
            &mut conn.out,
            &Frame::HelloAck {
                version: PROTOCOL_VERSION,
                // Saturate, never wrap: a server configured beyond u32
                // range must announce u32::MAX, not a truncated credit.
                credits: u32::try_from(credits).unwrap_or(u32::MAX),
                batch_records: u32::try_from(batch).unwrap_or(u32::MAX),
                backend: self.engine.backend_name().to_string(),
            },
        );
    }

    fn handle_frame(&mut self, conn: &mut Conn<'e>, tag: u8, span: Range<usize>) {
        match tag {
            t if t == frame_type::CLASSIFY_PACKED || t == frame_type::CANDIDATES => {
                let mut reads = conn.pool.pop().unwrap_or_default();
                let decoded = match decode_classify_into(t, &conn.rbuf[span], &mut reads) {
                    Ok(id) if conn.last_request_id.is_some_and(|last| id <= last) => {
                        Err(ProtocolError::Malformed("request ids must increase"))
                    }
                    other => other,
                };
                let request_id = match decoded {
                    Ok(request_id) => request_id,
                    Err(e) => {
                        recycle_into(&mut conn.pool, reads);
                        self.reject(conn, e);
                        return;
                    }
                };
                conn.last_request_id = Some(request_id);
                let read_count = reads.len() as u64;
                let batch = conn
                    .session
                    .as_ref()
                    .expect("session exists after handshake")
                    .batch_records()
                    .max(1);
                let total_batches = reads.len().div_ceil(batch);
                let pending = if reads.is_empty() {
                    recycle_into(&mut conn.pool, reads);
                    None
                } else if total_batches == 1 {
                    Some(Pending::Whole(reads))
                } else {
                    Some(Pending::Chunks(reads.into_iter()))
                };
                conn.pipeline.push_back(Item::Request(Box::new(Request {
                    request_id,
                    // The one place the output kind is chosen: the frame
                    // type.
                    output: if t == frame_type::CANDIDATES {
                        OutputKind::Candidates
                    } else {
                        OutputKind::Classifications
                    },
                    read_count,
                    admitted: false,
                    total_batches,
                    completed: 0,
                    failed: false,
                    pending,
                    stashed: None,
                    classifications: Vec::new(),
                    candidates: Vec::new(),
                    generation: None,
                    mixed: false,
                    drained: Vec::new(),
                })));
            }
            t if t == frame_type::PING => match Frame::decode(t, &conn.rbuf[span]) {
                Ok(Frame::Ping { nonce }) => conn.pipeline.push_back(Item::Ping { nonce }),
                Ok(_) => unreachable!("PING tag decodes to Frame::Ping"),
                Err(e) => self.reject(conn, e),
            },
            t if t == frame_type::RELOAD => match Frame::decode(t, &conn.rbuf[span]) {
                Ok(Frame::Reload) => conn.pipeline.push_back(Item::Reload {
                    started: false,
                    done: None,
                }),
                Ok(_) => unreachable!("RELOAD tag decodes to Frame::Reload"),
                Err(e) => self.reject(conn, e),
            },
            t if t == frame_type::GOODBYE && span.is_empty() => {
                // Clean end of stream: stop reading, discard anything the
                // peer pipelined after its goodbye, serve what is queued.
                conn.close_read();
                conn.poisoned = true;
            }
            t => {
                // Control frames and garbage: decode only to classify the
                // failure precisely (unknown tag, trailing bytes, …).
                let error = match Frame::decode(t, &conn.rbuf[span]) {
                    Ok(_) => ProtocolError::Malformed("unexpected frame after handshake"),
                    Err(e) => e,
                };
                self.reject(conn, error);
            }
        }
    }

    // --- dispatch -------------------------------------------------------

    /// Admit and dispatch decoded requests in pipeline order: their batches
    /// go to the engine session (as many as credits and queue space allow —
    /// consecutive requests overlap). Stops at the first submission-blocked
    /// item so engine submission order always matches request order.
    fn pump_submit(&mut self, token: u64, conn: &mut Conn<'e>) -> bool {
        if conn.dead || conn.closing || conn.session.is_none() {
            return false;
        }
        let mut progress = false;
        let mut idx = 0;
        while let Some(item) = conn.pipeline.get_mut(idx) {
            if let Item::Request(req) = item {
                if !req.admitted {
                    progress = true;
                    let session = conn.session.as_ref().expect("session exists");
                    if self.admit(req.read_count, session, &mut conn.served_any) {
                        req.admitted = true;
                        conn.gauge += req.read_count;
                    } else {
                        // A request-level Busy is this request's (in-order)
                        // answer.
                        if let Some(pending) = req.pending.take() {
                            let reads = match pending {
                                Pending::Whole(reads) => reads,
                                Pending::Chunks(rest) => rest.collect(),
                            };
                            recycle_into(&mut conn.pool, reads);
                        }
                        let request_id = req.request_id;
                        *item = Item::Busy { request_id };
                    }
                }
            }
            match item {
                Item::Request(req) if req.pending.is_some() || req.stashed.is_some() => {
                    let session = conn.session.as_mut().expect("session exists");
                    let batch = session.batch_records().max(1);
                    loop {
                        let chunk = match req.stashed.take() {
                            Some(chunk) => chunk,
                            None => match next_chunk(&mut req.pending, batch) {
                                Some(chunk) => chunk,
                                None => break,
                            },
                        };
                        match session.try_submit_owned(chunk, req.output) {
                            Ok(()) => {
                                conn.submit_order.push_back(req.request_id);
                                progress = true;
                            }
                            Err(back) => {
                                // Out of credits or queue space: park until
                                // a drain or a queue-space wake, and stop
                                // the walk (order!).
                                req.stashed = Some(back);
                                self.space_waiters.insert(token);
                                return progress;
                            }
                        }
                    }
                }
                Item::Reload { started, done } if !*started => {
                    *started = true;
                    progress = true;
                    if self.reload_enabled {
                        self.reload_jobs.push(token);
                    } else {
                        *done = Some(Err("live reload is not enabled on this server".to_string()));
                    }
                }
                _ => {}
            }
            idx += 1;
        }
        progress
    }

    /// Admission: reserve `read_count` records in the global gauge, or shed
    /// the request (returning `false`) when that would push past
    /// [`ServerConfig::max_inflight_records`] — or, high-water admission,
    /// when a brand-new stream arrives while the fair queue is saturated,
    /// so a flood of fresh sessions cannot starve established ones.
    fn admit(&self, read_count: u64, session: &Session<'e>, served_any: &mut bool) -> bool {
        let cap = self.config.max_inflight_records as u64;
        let inflight = self
            .shared
            .inflight_records
            .fetch_add(read_count, Ordering::Relaxed)
            + read_count;
        if cap > 0 && (inflight > cap || (!*served_any && session.over_high_water())) {
            self.shared
                .inflight_records
                .fetch_sub(read_count, Ordering::Relaxed);
            self.shared
                .counters
                .shed_requests
                .fetch_add(1, Ordering::Relaxed);
            return false;
        }
        *served_any = true;
        true
    }

    /// Record a reload outcome arriving from the reload worker: it resolves
    /// the connection's oldest dispatched-but-unanswered `Reload` item
    /// (reloads are dispatched and resolved in FIFO order through the
    /// single worker).
    fn apply_reload_result(&mut self, conn: &mut Conn<'e>, result: ReloadDone) {
        let slot = conn.pipeline.iter_mut().find_map(|item| match item {
            Item::Reload { started, done } if *started && done.is_none() => Some(done),
            _ => None,
        });
        if let Some(done) = slot {
            *done = Some(result.result);
        }
    }

    // --- emission -------------------------------------------------------

    /// Encode completed responses from the front of the pipeline, strictly
    /// in request order, into the outbound buffer.
    fn pump_emit(&mut self, conn: &mut Conn<'e>) -> bool {
        let mut progress = false;
        while !conn.closing && !conn.dead {
            let ready = match conn.pipeline.front() {
                None => break,
                Some(Item::Request(r)) => {
                    r.admitted
                        && r.pending.is_none()
                        && r.stashed.is_none()
                        && r.completed == r.total_batches
                }
                Some(Item::Reload { done, .. }) => done.is_some(),
                Some(Item::Ping { .. })
                | Some(Item::Busy { .. })
                | Some(Item::Fail(_))
                | Some(Item::Deny { .. }) => true,
            };
            if !ready {
                break;
            }
            let item = conn.pipeline.pop_front().expect("front checked above");
            progress = true;
            match item {
                Item::Request(req) => {
                    if req.failed {
                        // A backend worker panic is isolated to the owning
                        // session; answer with an error frame instead of a
                        // torn connection without a goodbye.
                        self.shared
                            .counters
                            .internal_errors
                            .fetch_add(1, Ordering::Relaxed);
                        push_frame(
                            &mut conn.out,
                            &Frame::Error {
                                code: ErrorCode::Internal,
                                message: format!("request {} failed", req.request_id),
                            },
                        );
                        conn.begin_close();
                    } else {
                        self.shared
                            .counters
                            .requests
                            .fetch_add(1, Ordering::Relaxed);
                        self.shared
                            .counters
                            .reads
                            .fetch_add(req.read_count, Ordering::Relaxed);
                        // An empty request never touched the table — it
                        // reports the current generation.
                        let generation = req.generation.unwrap_or_else(|| self.engine.generation());
                        let encoded = match req.output {
                            OutputKind::Classifications => encode_results_into(
                                &mut self.scratch,
                                req.request_id,
                                &req.classifications,
                                Some(generation),
                            ),
                            OutputKind::Candidates => encode_candidate_results_into(
                                &mut self.scratch,
                                req.request_id,
                                &req.candidates,
                                Some(generation),
                            ),
                        };
                        if encoded.is_ok() {
                            conn.out.extend_from_slice(&self.scratch);
                        } else {
                            conn.dead = true;
                        }
                    }
                }
                Item::Reload { done, .. } => match done.expect("readiness checked") {
                    Ok(generation) => {
                        push_frame(&mut conn.out, &Frame::ReloadAck { generation });
                    }
                    Err(message) => {
                        self.shared
                            .counters
                            .internal_errors
                            .fetch_add(1, Ordering::Relaxed);
                        push_frame(
                            &mut conn.out,
                            &Frame::Error {
                                code: ErrorCode::Internal,
                                message,
                            },
                        );
                        conn.begin_close();
                    }
                },
                Item::Ping { nonce } => push_frame(&mut conn.out, &Frame::Pong { nonce }),
                Item::Busy { request_id } => push_frame(
                    &mut conn.out,
                    &Frame::Busy {
                        request_id,
                        retry_after_ms: self.config.retry_after_ms,
                    },
                ),
                Item::Fail(error) => {
                    self.shared
                        .counters
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    push_frame(
                        &mut conn.out,
                        &Frame::Error {
                            code: error.code(),
                            message: error.to_string(),
                        },
                    );
                    conn.begin_close();
                }
                Item::Deny { code, message } => {
                    push_frame(&mut conn.out, &Frame::Error { code, message });
                    conn.begin_close();
                }
            }
        }
        progress
    }

    // --- write ----------------------------------------------------------

    fn pump_write(&mut self, conn: &mut Conn<'e>) -> bool {
        if conn.dead || conn.out.len() == conn.ooff {
            return false;
        }
        if conn.write_deadline.is_none() {
            if let Some(window) = conn.write_window {
                conn.write_deadline = Some(Instant::now() + window);
            }
        }
        let mut progress = false;
        loop {
            match conn.stream.write(&conn.out[conn.ooff..]) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => {
                    progress = true;
                    conn.ooff += n;
                    if conn.ooff == conn.out.len() {
                        conn.out.clear();
                        conn.ooff = 0;
                        conn.write_deadline = None;
                        break;
                    }
                    // Progress re-arms the stall window: the deadline
                    // bounds time without a single flushed byte.
                    if let Some(window) = conn.write_window {
                        conn.write_deadline = Some(Instant::now() + window);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        // A drained buffer that ballooned (one huge response) should not
        // stay pinned for the connection's lifetime.
        if conn.out.is_empty() && conn.out.capacity() > MAX_POOLED_BYTES {
            conn.out.shrink_to(READ_CHUNK);
        }
        progress
    }

    // --- readiness + timers ---------------------------------------------

    fn refresh_registration(&mut self, token: u64, conn: &mut Conn<'e>) {
        if conn.dead {
            return;
        }
        let want_read = !conn.read_closed && !conn.poisoned && !conn.closing && !self.gate(conn);
        let want_write = conn.out.len() > conn.ooff;
        let interest = Interest {
            readable: want_read,
            writable: want_write,
        };
        if interest != conn.interest {
            if self
                .poller
                .reregister(conn.stream.as_raw_fd(), token, interest)
                .is_err()
            {
                conn.dead = true;
                return;
            }
            conn.interest = interest;
        }
    }

    fn refresh_timers(&mut self, token: u64, conn: &mut Conn<'e>) {
        if conn.dead {
            return;
        }
        let earliest = match (conn.read_deadline, conn.write_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        };
        if let Some(at) = earliest {
            if conn.timer_at.is_none_or(|scheduled| at < scheduled) {
                self.timers.schedule(at, token);
                conn.timer_at = Some(at);
            }
        }
    }

    /// A timer entry popped for this connection: fire whichever real
    /// deadlines are actually due (lazy cancellation skips stale entries).
    fn fire_deadlines(&mut self, conn: &mut Conn<'e>, now: Instant) {
        if conn.write_deadline.is_some_and(|d| d <= now) {
            // A stalled reader with an unflushed backlog: no error frame
            // could reach it anyway — tear down and count the stall.
            self.shared
                .counters
                .write_stalls
                .fetch_add(1, Ordering::Relaxed);
            conn.dead = true;
            return;
        }
        if conn.read_deadline.is_some_and(|d| d <= now) {
            conn.read_deadline = None;
            self.shared
                .counters
                .timeouts
                .fetch_add(1, Ordering::Relaxed);
            let message = match (conn.phase, conn.in_frame) {
                (Phase::Handshake, _) => "handshake deadline elapsed",
                (Phase::Open, true) => "frame read deadline elapsed",
                (Phase::Open, false) => "idle timeout",
            };
            // The timeout answer is appended *behind* already-decoded
            // requests: they still classify and answer first, exactly like
            // the old reader→writer channel ordering.
            conn.pipeline.push_back(Item::Deny {
                code: ErrorCode::TimedOut,
                message: message.into(),
            });
            conn.poisoned = true;
            conn.rbuf.clear();
            conn.roff = 0;
        }
    }
}

/// One nonblocking read into the reassembly buffer.
enum ReadOutcome {
    Data,
    Eof,
    WouldBlock,
    Error,
}

fn read_chunk(stream: &mut TcpStream, rbuf: &mut Vec<u8>) -> ReadOutcome {
    let old = rbuf.len();
    rbuf.resize(old + READ_CHUNK, 0);
    loop {
        match stream.read(&mut rbuf[old..]) {
            Ok(0) => {
                rbuf.truncate(old);
                return ReadOutcome::Eof;
            }
            Ok(n) => {
                rbuf.truncate(old + n);
                return ReadOutcome::Data;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                rbuf.truncate(old);
                return ReadOutcome::WouldBlock;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                rbuf.truncate(old);
                return ReadOutcome::Error;
            }
        }
    }
}

/// Take the next engine batch off a request's undispatched reads.
fn next_chunk(pending: &mut Option<Pending>, batch: usize) -> Option<Vec<SequenceRecord>> {
    match pending.take() {
        None => None,
        Some(Pending::Whole(records)) => Some(records),
        Some(Pending::Chunks(mut iter)) => {
            let chunk: Vec<SequenceRecord> = iter.by_ref().take(batch).collect();
            if iter.len() > 0 {
                *pending = Some(Pending::Chunks(iter));
            }
            if chunk.is_empty() {
                None
            } else {
                Some(chunk)
            }
        }
    }
}

/// Encode a control frame straight into a connection's outbound buffer
/// (writes into a `Vec` cannot fail; the server's control frames always
/// encode).
fn push_frame(out: &mut Vec<u8>, frame: &Frame) {
    let _ = write_frame(out, frame);
}

/// Heap bytes a pooled record vector would keep alive: the spine plus every
/// record's retained *capacities* (not lengths — `clear_for_reuse` keeps
/// capacity, which is exactly what pooling preserves).
fn retained_bytes(records: &Vec<SequenceRecord>) -> usize {
    fn record_bytes(r: &SequenceRecord) -> usize {
        r.header.capacity()
            + r.sequence.capacity()
            + r.quality.capacity()
            + r.mate.as_ref().map_or(0, |m| record_bytes(m))
    }
    records.capacity() * std::mem::size_of::<SequenceRecord>()
        + records.iter().map(record_bytes).sum::<usize>()
}

/// Upper bound on the heap a single pooled record vector may retain. A
/// normal request (hundreds of reads, a few hundred bases each) is well
/// under 1 MiB; one maximum-size packed frame can legally decode to
/// ~256 MiB of sequence, which must not stay pinned for the connection's
/// lifetime.
const MAX_POOLED_BYTES: usize = 8 * 1024 * 1024;

/// Hand a drained record vector back to the connection's reuse pool,
/// bounding both the entry count and the retained bytes so a one-off giant
/// request cannot pin its buffers forever.
fn recycle_into(pool: &mut Vec<Vec<SequenceRecord>>, records: Vec<SequenceRecord>) {
    if retained_bytes(&records) > MAX_POOLED_BYTES {
        return;
    }
    if pool.len() < POOL_CAP {
        pool.push(records);
    }
}

/// The reload worker: runs the installed [`ReloadHook`] for each queued
/// `Reload` request, serially. A panicking hook is answered like a failing
/// one — the worker stays alive for later reloads.
fn reload_worker(
    engine: &ServingEngine,
    hook: ReloadHook,
    jobs: mpsc::Receiver<u64>,
    done: mpsc::Sender<ReloadDone>,
    waker: Waker,
) {
    while let Ok(conn) = jobs.recv() {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hook(engine)));
        let result = match outcome {
            Ok(result) => result,
            Err(_) => Err("reload hook panicked".to_string()),
        };
        if done.send(ReloadDone { conn, result }).is_err() {
            break;
        }
        waker.wake();
    }
}
