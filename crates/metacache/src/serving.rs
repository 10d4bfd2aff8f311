//! The persistent serving engine: a long-lived worker pool multiplexing many
//! concurrent classification streams over one shared database.
//!
//! This is the crate's one streaming core — the paper's pipelined query
//! architecture (§5, Figure 2: parse → bounded batch queue → classify →
//! ordered merge). A serving front-end handles many small concurrent
//! requests, where per-call thread spawns (~0.2 ms) plus cold scratch
//! buffers would dominate short streams, so the [`ServingEngine`] keeps the
//! pipeline *resident*; [`crate::pipeline::StreamingClassifier`] is the
//! one-stream-at-a-time front over the same engine:
//!
//! ```text
//!                 session A ──┐ tagged batches             ┌──► session A results
//!   (per-session  session B ──┤──► bounded fair ──► worker ├──► session B results
//!    credits +    session C ──┘    queue (DRR pop)   pool  └──► session C results
//!    seq numbers)                                 (N threads,   (per-session channel,
//!                                                  1 Backend     reordered client-side
//!                                                  worker each,  by session_seq)
//!                                                  live forever)
//! ```
//!
//! * **Workers are long-lived.** Each worker thread mints one
//!   [`Backend`] worker at startup and reuses it for every batch it ever
//!   classifies — scratch buffers stay warm across requests, and request
//!   latency no longer pays thread spawn/join.
//! * **One loop, two outputs.** A backend worker yields each read's
//!   candidate list; the worker loop turns it into what the batch was
//!   submitted for ([`OutputKind`]): a classification, or the list itself
//!   (the shard-server role of `mc-net`). Both kinds are the same queue
//!   entries to everything below.
//! * **The database is shared — and swappable.** The engine owns an
//!   [`EpochStore`]: a generation-tagged slot holding the current
//!   `Arc<dyn Backend>` (which co-owns the `Arc<Database>`). Workers pin an
//!   epoch *per batch*, so [`ServingEngine::reload_backend`] hot-swaps the
//!   reference set with zero downtime: in-flight batches finish on the old
//!   database, subsequent batches observe the new one, and the old epoch is
//!   freed as soon as its last worker releases it (idle workers release on
//!   the swap itself). Every [`CompletedBatch`] reports the generation that
//!   classified it.
//! * **Sessions multiplex.** Every [`Session`] tags its batches with a
//!   session id and a per-session sequence number; workers route completed
//!   batches to the owning session's channel, and the session restores *its
//!   own* input order from the sequence numbers — exact-order emission per
//!   stream, independent of other streams.
//! * **Three properties hold per session.** *Equivalence*: results are
//!   bit-identical to
//!   [`Classifier::classify_batch`][crate::query::Classifier::classify_batch].
//!   *Ordered emission*: they arrive in exact input order. *Bounded memory*:
//!   a per-session credit bound caps that session's resident batches at
//!   `max_in_flight`. Teardown is panic-safe (a panicking sink only kills
//!   its own session, a panicking backend worker is replaced and reported
//!   without deadlocking anyone).
//! * **The pop is fair across sessions.** The shared queue is not FIFO: a
//!   deficit-round-robin scan (the internal `FairQueue`) across the
//!   sessions with queued work decides which batch a worker takes next. A session streaming
//!   thousands of queued batches cannot push another session's two-batch
//!   request to the back of the line — every session receives its share of
//!   worker attention per scheduling round (weighted by records, so small
//!   batches are not penalised), bounding small-request latency under a
//!   heavy concurrent stream.
//! * **Shutdown drains.** [`ServingEngine::shutdown`] (or drop) closes the
//!   queue, lets workers finish everything in flight and joins them.
//!   Sessions borrow the engine, so the borrow checker proves the engine is
//!   idle before it can shut down.
//!
//! Deadlock freedom: a session's result channel is sized to its credit
//! total, and a session never holds more than `max_in_flight` batches
//! anywhere in the engine, so workers can always deliver without blocking;
//! the shared queue therefore always drains, and a client blocked on a
//! credit always has an in-flight batch that will complete.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;

use mc_seqio::SequenceRecord;

use crate::backend::{Backend, BackendWorker, HostBackend};
use crate::candidate::Candidate;
use crate::classify::{classify_candidates, Classification};
use crate::database::Database;
use crate::error::MetaCacheError;
use crate::pipeline::StreamingSummary;

/// Shape of a serving engine: worker count, queue depth and the per-session
/// defaults handed to [`ServingEngine::session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of long-lived worker threads.
    pub workers: usize,
    /// Bounded capacity of the shared submission queue (batches).
    pub queue_capacity: usize,
    /// Default records per batch for sessions.
    pub batch_records: usize,
    /// Default per-session bound on resident batches (credits). `0` means
    /// `queue_capacity + workers`.
    pub session_max_in_flight: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            queue_capacity: 4,
            // Large enough that per-batch queue/condvar handoffs amortise
            // to noise (<0.1% of classify time at ~3 µs/read), small enough
            // that queue_capacity + workers batches stay modest in memory.
            batch_records: 1024,
            session_max_in_flight: 0,
        }
    }
}

impl EngineConfig {
    /// Clamp every knob to a workable value.
    fn normalized(mut self) -> Self {
        self.workers = self.workers.max(1);
        self.queue_capacity = self.queue_capacity.max(1);
        self.batch_records = self.batch_records.max(1);
        self
    }

    /// The per-session resident-batch bound sessions are created with:
    /// `session_max_in_flight`, or `queue_capacity + workers` when 0.
    pub fn effective_session_in_flight(&self) -> usize {
        if self.session_max_in_flight > 0 {
            self.session_max_in_flight
        } else {
            self.queue_capacity.max(1) + self.workers.max(1)
        }
    }
}

/// Per-session overrides of the engine's defaults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionConfig {
    /// Records per batch (`0` = engine default).
    pub batch_records: usize,
    /// Bound on this session's resident batches (`0` = engine default;
    /// clamped to [`MAX_SESSION_IN_FLIGHT`]).
    pub max_in_flight: usize,
}

/// Hard ceiling on a session's `max_in_flight`. The per-session result
/// channel is *pre-sized* to the credit total (that sizing is what makes
/// worker delivery non-blocking, the engine's deadlock-freedom invariant),
/// so an absurd configured credit would otherwise translate into an absurd
/// allocation. 65 536 in-flight batches is far beyond any useful pipeline
/// depth.
pub const MAX_SESSION_IN_FLIGHT: usize = 1 << 16;

/// Lifetime counters of a [`ServingEngine`], snapshotted by
/// [`ServingEngine::stats`] and returned by [`ServingEngine::shutdown`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Worker threads in the pool.
    pub workers: u64,
    /// Sessions opened over the engine's lifetime.
    pub sessions_opened: u64,
    /// Batches classified by the pool.
    pub batches_classified: u64,
    /// Records classified by the pool.
    pub records_classified: u64,
    /// Backend workers replaced after a panic while classifying.
    pub worker_panics: u64,
    /// High-water mark of the shared fair queue's occupancy (bounded by
    /// `queue_capacity`).
    pub peak_queue_batches: u64,
}

/// What a submitted batch's request wants back for each record. Every
/// backend worker produces candidate lists; the engine worker loop turns
/// them into this, so both kinds share the queue, the lanes, the credits,
/// the epoch pin, the panic isolation and the [`EngineStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OutputKind {
    /// One [`Classification`] per record (the final LCA decision).
    #[default]
    Classifications,
    /// Each record's top-candidate list itself — what a scatter-gather
    /// router merges across shard servers before deciding.
    Candidates,
}

/// One completed (or failed) engine batch: what a worker sends back to the
/// owning session, and what [`Session::try_drain_owned`] hands out in
/// submission order — the records that went in (by move, heap buffers
/// intact — recycle them) plus, per record, the output the batch was
/// submitted for (the other output vector stays empty).
pub struct CompletedBatch {
    /// The batch's records, exactly as submitted.
    pub records: Vec<SequenceRecord>,
    /// [`OutputKind::Classifications`]: one classification per record, in
    /// record order. Empty if `panicked`.
    pub classifications: Vec<Classification>,
    /// [`OutputKind::Candidates`]: one top-candidate list per record, in
    /// record order. Empty if `panicked`.
    pub candidates: Vec<Vec<Candidate>>,
    /// The backend worker panicked while classifying this batch. The
    /// blocking drain paths re-raise; a non-blocking caller decides itself
    /// (the net server answers the request with an `Internal` error).
    pub panicked: bool,
    /// The database generation (see [`EpochStore`]) this batch was
    /// classified against. A whole batch is always classified under one
    /// epoch; a front-end wanting one generation per *request* compares the
    /// tags of the request's batches and replays on mismatch.
    pub generation: u64,
}

/// One pinned database state: a generation number plus the backend (and
/// therefore the `Arc<Database>`) serving it. Handed out by
/// [`EpochStore::pin`]; holders keep the whole state alive, so the previous
/// database is freed exactly when the last holder of its epoch lets go.
pub struct Epoch {
    generation: u64,
    backend: Arc<dyn Backend + 'static>,
}

impl Epoch {
    /// The epoch's generation number (0 for the state the engine started
    /// with, +1 per [`EpochStore::swap`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The backend serving this epoch.
    pub fn backend(&self) -> &Arc<dyn Backend + 'static> {
        &self.backend
    }

    /// The database of this epoch.
    pub fn database(&self) -> &Database {
        self.backend.database()
    }
}

/// A generation-tagged slot holding the engine's current database state —
/// the hand-rolled `ArcSwap` stand-in of this crate (consistent with the
/// repo's vendored-shim approach: a `RwLock<Arc<_>>` swap plus a lock-free
/// generation counter, not a full lock-free pointer swap).
///
/// * [`EpochStore::pin`] takes the read lock briefly and clones the `Arc` —
///   readers never block each other and never block a swap for longer than
///   one clone.
/// * [`EpochStore::swap`] publishes a new backend under the next generation.
///   Existing pins are untouched: in-flight work finishes on the epoch it
///   pinned, and the old database drops when its last pin is released.
/// * [`EpochStore::generation`] is a lock-free `Acquire` load — the cheap
///   "did the world change since I pinned?" probe workers use per batch.
pub struct EpochStore {
    slot: RwLock<Arc<Epoch>>,
    generation: AtomicU64,
}

impl EpochStore {
    /// Create a store at generation 0.
    pub fn new(backend: Arc<dyn Backend + 'static>) -> Self {
        Self {
            slot: RwLock::new(Arc::new(Epoch {
                generation: 0,
                backend,
            })),
            generation: AtomicU64::new(0),
        }
    }

    /// Pin the current epoch: the returned handle keeps its database alive
    /// until dropped, regardless of later swaps.
    pub fn pin(&self) -> Arc<Epoch> {
        Arc::clone(&self.slot.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The current generation (lock-free).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Publish `backend` as the next generation and return it. Readers that
    /// pinned before the swap keep serving their epoch; readers that pin
    /// after observe the new one.
    pub fn swap(&self, backend: Arc<dyn Backend + 'static>) -> u64 {
        let mut slot = self.slot.write().unwrap_or_else(|e| e.into_inner());
        let generation = slot.generation + 1;
        *slot = Arc::new(Epoch {
            generation,
            backend,
        });
        // Publish after the slot holds the new epoch, so a reader seeing
        // the new generation can always pin (at least) that epoch.
        self.generation.store(generation, Ordering::Release);
        generation
    }
}

/// One submitted batch on its way through the fair queue to a worker.
#[derive(Debug)]
struct Job {
    /// The owning session (its lane in the fair queue).
    session: u64,
    /// Position within the session's stream; the session reorders by it.
    session_seq: u64,
    records: Vec<SequenceRecord>,
    output: OutputKind,
}

/// The one place a candidate list becomes an answer, for every backend and
/// both output kinds: each list `worker` yields is decided against `db`
/// (the pinned epoch's database) or copied out as is. Returns
/// `(classifications, candidates)`; only `output`'s vector fills.
fn answer_batch(
    worker: &mut dyn BackendWorker,
    db: &Database,
    records: &[SequenceRecord],
    output: OutputKind,
) -> (Vec<Classification>, Vec<Vec<Candidate>>) {
    let mut classifications = Vec::new();
    let mut candidates = Vec::new();
    match output {
        OutputKind::Classifications => {
            classifications.reserve(records.len());
            worker.candidates_each(records, &mut |list| {
                classifications.push(classify_candidates(db, &db.config, list))
            });
        }
        OutputKind::Candidates => {
            candidates.reserve(records.len());
            worker.candidates_each(records, &mut |list| {
                candidates.push(list.as_slice().to_vec())
            });
        }
    }
    (classifications, candidates)
}

/// Routing entry of one live session.
struct SessionState {
    /// Worker → session result channel of `(session_seq, batch)`; sized to
    /// the session's credit total so workers never block on delivery.
    out_tx: mpsc::SyncSender<(u64, CompletedBatch)>,
    /// Invoked (post-delivery) for every result sent to this session. An
    /// event-loop front-end parks a waker here so completions re-enter its
    /// loop; must never block.
    notify: Option<Arc<dyn Fn() + Send + Sync>>,
}

/// Counters shared between the engine handle and its workers.
#[derive(Default)]
struct EngineCounters {
    sessions_opened: AtomicU64,
    batches: AtomicU64,
    records: AtomicU64,
    panics: AtomicU64,
}

/// The engine's bounded submission queue with a **deficit-round-robin**
/// (DRR) pop across sessions.
///
/// Each session gets its own FIFO lane; workers pop by scanning the active
/// lanes round-robin, giving every visited lane a `quantum` of service
/// credit (in records) and taking its head batch once the accumulated
/// credit covers the batch's record count. Consequences:
///
/// * **Per-session order is untouched** — a lane is a FIFO, and sessions
///   re-order by `session_seq` anyway.
/// * **No cross-session starvation** — a session with thousands of queued
///   batches cannot delay another session's batch by more than one
///   scheduling round (≈ one batch per other active session), the classic
///   DRR latency bound. A plain FIFO pop made small-request latency
///   proportional to the *largest* competing backlog.
/// * **Record weighting** — lanes with big batches spend more credit per
///   pop, so sessions submitting oversized batches get proportionally
///   fewer pops; byte-fairness, not turn-fairness.
///
/// Capacity bounds the *total* queued batches across all lanes, exactly
/// like the bounded channel it replaces: `push` blocks while full, so the
/// engine-wide memory bound and the deadlock-freedom argument are
/// unchanged.
struct FairQueue {
    state: Mutex<FairState>,
    /// Consumers wait here for work.
    ready: Condvar,
    /// Producers wait here for capacity.
    space: Condvar,
    capacity: usize,
    /// Service credit (records) granted to a lane per round-robin visit:
    /// the engine's `batch_records`, the same for every lane.
    quantum: u64,
    /// Callbacks fired whenever capacity frees (pop or purge): non-blocking
    /// front-ends park a waker here instead of blocking on `space`.
    space_watchers: Mutex<Vec<Arc<dyn Fn() + Send + Sync>>>,
    /// Mirror of the engine's current database generation, bumped by
    /// [`FairQueue::note_reload`]. An *idle* worker blocked in
    /// [`FairQueue::pop_pinned`] compares this against the generation it has
    /// pinned and wakes to release the stale epoch — without it, an old
    /// database would stay alive until every idle worker happened to
    /// classify one more batch.
    reload_generation: AtomicU64,
}

/// What [`FairQueue::pop_pinned`] hands a worker.
enum Popped {
    /// The next batch by deficit round robin.
    Batch(Job),
    /// No work, and the engine swapped epochs: drop the pinned epoch,
    /// re-pin and pop again.
    Reload,
    /// Queue closed and drained: the worker exits.
    Closed,
}

#[derive(Default)]
struct FairState {
    /// Per-session FIFO of submitted batches.
    lanes: HashMap<u64, VecDeque<Job>>,
    /// Sessions with a non-empty lane, in round-robin visit order.
    active: VecDeque<u64>,
    /// Unspent service credit of each active session.
    deficit: HashMap<u64, u64>,
    /// Total batches across all lanes.
    len: usize,
    /// High-water mark of `len`.
    peak: u64,
    closed: bool,
}

impl FairState {
    /// Take the next batch by deficit round robin. Caller guarantees
    /// `len > 0`.
    fn pop_drr(&mut self, quantum: u64) -> Job {
        loop {
            let session = *self.active.front().expect("non-empty fair queue");
            let lane = self.lanes.get_mut(&session).expect("active lane exists");
            let cost = (lane.front().expect("active lane non-empty").records.len() as u64).max(1);
            let deficit = self.deficit.entry(session).or_insert(0);
            if *deficit >= cost {
                *deficit -= cost;
                let batch = lane.pop_front().expect("active lane non-empty");
                if lane.is_empty() {
                    // An emptied lane leaves the rotation and forfeits its
                    // leftover credit (classic DRR: only backlogged flows
                    // accumulate deficit).
                    self.lanes.remove(&session);
                    self.deficit.remove(&session);
                    self.active.pop_front();
                }
                self.len -= 1;
                return batch;
            }
            // Not enough credit for this lane's head batch: grant the
            // quantum and move on. Credit grows monotonically, so the scan
            // terminates in at most ⌈cost/quantum⌉ rounds.
            *deficit += quantum;
            self.active.rotate_left(1);
        }
    }

    /// Insert a batch into its session's lane. Caller has checked capacity.
    fn enqueue(&mut self, batch: Job) {
        let session = batch.session;
        let newly_active = {
            let lane = self.lanes.entry(session).or_default();
            let was_empty = lane.is_empty();
            lane.push_back(batch);
            was_empty
        };
        if newly_active {
            self.active.push_back(session);
        }
        self.len += 1;
        self.peak = self.peak.max(self.len as u64);
    }
}

impl FairQueue {
    fn new(capacity: usize, quantum: usize) -> Self {
        Self {
            state: Mutex::new(FairState::default()),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
            quantum: quantum.max(1) as u64,
            space_watchers: Mutex::new(Vec::new()),
            reload_generation: AtomicU64::new(0),
        }
    }

    /// Enqueue a session-tagged batch, blocking while the queue is at
    /// capacity. Fails (returning the batch) only on a closed queue.
    fn push(&self, batch: Job) -> Result<(), Job> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.closed {
                return Err(batch);
            }
            if state.len < self.capacity {
                break;
            }
            state = self.space.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.enqueue(batch);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Non-blocking [`FairQueue::push`]: `Err(batch)` when the queue is at
    /// capacity — the caller parks on a space watcher and retries. Panics
    /// on a closed queue (sessions borrow the engine, so a live session
    /// over a closed queue is a bug, matching `Session::submit`).
    fn try_push(&self, batch: Job) -> Result<(), Job> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        assert!(
            !state.closed,
            "serving engine queue closed while session alive"
        );
        if state.len >= self.capacity {
            return Err(batch);
        }
        state.enqueue(batch);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Register a callback fired (from consumer threads) every time queue
    /// capacity frees. Watchers live as long as the queue; they must be
    /// cheap and non-blocking (a pipe-waker write, not work).
    fn watch_space(&self, watcher: Arc<dyn Fn() + Send + Sync>) {
        self.space_watchers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(watcher);
    }

    fn notify_space_watchers(&self) {
        let watchers = self
            .space_watchers
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        for watcher in watchers.iter() {
            watcher();
        }
    }

    /// Dequeue the next batch by deficit round robin, blocking while the
    /// queue is empty. The caller passes the database generation it has
    /// pinned; if the engine swaps epochs while the caller is blocked here,
    /// [`Popped::Reload`] sends it back to release the stale epoch and
    /// re-pin (work, when present, always wins over the reload check — a
    /// queued batch is popped and classified under whatever the caller has
    /// pinned *now*, which the worker loop re-validates). Returns
    /// [`Popped::Closed`] once the queue is closed **and** drained —
    /// workers finish everything already submitted.
    fn pop_pinned(&self, pinned_generation: u64) -> Popped {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.len > 0 {
                let batch = state.pop_drr(self.quantum);
                drop(state);
                self.space.notify_one();
                self.notify_space_watchers();
                return Popped::Batch(batch);
            }
            if state.closed {
                return Popped::Closed;
            }
            if self.reload_generation.load(Ordering::Acquire) != pinned_generation {
                return Popped::Reload;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Tell idle consumers the engine's epoch changed: store the new
    /// generation (under the state lock, so a consumer between its check
    /// and its wait cannot miss the wake) and wake everyone blocked in
    /// [`FairQueue::pop_pinned`].
    fn note_reload(&self, generation: u64) {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.reload_generation.store(generation, Ordering::Release);
        drop(state);
        self.ready.notify_all();
    }

    /// Drop every batch a dead session still has queued: remove its lane,
    /// deficit and rotation slot, and wake producers blocked on capacity.
    /// Returns how many batches were discarded.
    ///
    /// Without this, a session unregistering with queued work left its lane
    /// alive until workers classified the orphaned batches and dropped the
    /// results — wasted backend time, and queue capacity held hostage
    /// against every live session's `push`.
    fn purge_session(&self, session: u64) -> usize {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let Some(lane) = state.lanes.remove(&session) else {
            return 0;
        };
        state.deficit.remove(&session);
        state.active.retain(|&s| s != session);
        let purged = lane.len();
        state.len -= purged;
        drop(state);
        if purged > 0 {
            self.space.notify_all();
            self.notify_space_watchers();
        }
        purged
    }

    /// Close the queue: producers fail fast, consumers drain what is left
    /// and then observe the end of stream. Idempotent.
    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        drop(state);
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// Batches currently queued (excluding ones being classified).
    #[cfg(test)]
    fn queued(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).len as u64
    }

    /// The high-water admission check: `true` while the queue is full *and*
    /// `session` has no lane in it — i.e. the session would be a brand-new
    /// entrant competing with established streams for capacity that does
    /// not exist. A front-end uses this to *shed* a newcomer's first
    /// request instead of letting its `push` pile onto the blocked-producer
    /// queue, where a flood of new sessions would starve established
    /// streams of push slots. Established sessions (lane present) are never
    /// refused — they block on `push` exactly as before.
    fn over_high_water(&self, session: u64) -> bool {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.len >= self.capacity && !state.lanes.contains_key(&session)
    }

    /// High-water mark of [`FairQueue::queued`] (at most `capacity`).
    fn peak_queued(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).peak
    }
}

/// State shared by the engine handle, its worker threads and its sessions.
struct EngineShared {
    epochs: EpochStore,
    sessions: Mutex<HashMap<u64, Arc<SessionState>>>,
    next_session: AtomicU64,
    counters: EngineCounters,
    queue: FairQueue,
}

/// A long-lived classification service: a pool of worker threads over one
/// shared [`Backend`] (and therefore one shared `Arc<Database>`), serving
/// any number of concurrent client [`Session`]s.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use metacache::{HostBackend, MetaCacheConfig, build::CpuBuilder};
/// use metacache::serving::{EngineConfig, ServingEngine};
/// use mc_seqio::SequenceRecord;
/// use mc_taxonomy::{Rank, Taxonomy};
///
/// # let mut taxonomy = Taxonomy::with_root();
/// # taxonomy.add_node(100, 1, Rank::Species, "Species A").unwrap();
/// # let mut state = 7u64;
/// # let genome: Vec<u8> = (0..8000).map(|_| {
/// #     state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
/// #     b"ACGT"[(state >> 33) as usize % 4]
/// # }).collect();
/// # let mut builder = CpuBuilder::new(MetaCacheConfig::default(), taxonomy);
/// # builder.add_target(SequenceRecord::new("refA", genome.clone()), 100).unwrap();
/// let db = Arc::new(builder.finish());
///
/// // One resident engine; sessions come and go per client request.
/// let engine = ServingEngine::new(HostBackend::new(Arc::clone(&db)), EngineConfig::default());
/// let mut session = engine.session();
/// let reads = (0..20).map(|i| {
///     SequenceRecord::new(format!("r{i}"), genome[i * 100..i * 100 + 150].to_vec())
/// });
/// let (classifications, summary) = session.classify_iter(reads);
/// assert_eq!(summary.records, 20);
/// assert!(classifications.iter().all(|c| c.taxon == 100));
/// drop(session);
/// let stats = engine.shutdown();
/// assert_eq!(stats.records_classified, 20);
/// ```
pub struct ServingEngine {
    shared: Arc<EngineShared>,
    workers: Vec<JoinHandle<()>>,
    config: EngineConfig,
}

impl ServingEngine {
    /// Start an engine over a backend: [`HostBackend`] over a database —
    /// one built, loaded or [repartitioned][crate::Database::repartition]
    /// (every partition probed in process, bit-identical to the unsplit
    /// engine) — or the simulated
    /// multi-GPU [`crate::backend::GpuBackend`] (batches issue round-robin
    /// across devices).
    pub fn new<B>(backend: B, config: EngineConfig) -> Self
    where
        B: Backend + 'static,
    {
        let config = config.normalized();
        let backend: Arc<dyn Backend + 'static> = Arc::new(backend);
        let shared = Arc::new(EngineShared {
            epochs: EpochStore::new(backend),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            counters: EngineCounters::default(),
            queue: FairQueue::new(config.queue_capacity, config.batch_records),
        });

        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serving-worker-{i}"))
                    .spawn(move || {
                        // A batch popped just as a swap landed is carried
                        // over to the re-pinned (new) epoch instead of
                        // running on the stale one.
                        let mut carried: Option<Job> = None;
                        'epoch: loop {
                            // Pin the current epoch; `epoch` and `worker`
                            // both co-own its database, and both drop on
                            // every trip back to this point — an idle or
                            // re-pinning worker never keeps an old epoch
                            // alive.
                            let epoch = shared.epochs.pin();
                            let generation = epoch.generation();
                            let db = epoch.database();
                            let mut worker = epoch.backend().worker();
                            loop {
                                let batch = match carried.take() {
                                    Some(batch) => batch,
                                    None => match shared.queue.pop_pinned(generation) {
                                        Popped::Batch(batch) => batch,
                                        Popped::Reload => continue 'epoch,
                                        Popped::Closed => return,
                                    },
                                };
                                if shared.epochs.generation() != generation {
                                    // Swap landed between pin and pop: this
                                    // batch is *new* work and must observe
                                    // the new epoch.
                                    carried = Some(batch);
                                    continue 'epoch;
                                }
                                let Job {
                                    session,
                                    session_seq,
                                    records,
                                    output,
                                } = batch;
                                // Route to the owning session; a dropped
                                // session leaves no registry entry and its
                                // batch is discarded.
                                let target = shared
                                    .sessions
                                    .lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .get(&session)
                                    .cloned();
                                let Some(target) = target else { continue };
                                let answered =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        answer_batch(&mut *worker, db, &records, output)
                                    }));
                                let panicked = answered.is_err();
                                let (classifications, candidates) = answered.unwrap_or_default();
                                if panicked {
                                    // The worker's scratch state may be torn
                                    // mid-update; replace it (same epoch) and
                                    // keep serving.
                                    worker = epoch.backend().worker();
                                    shared.counters.panics.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    shared.counters.batches.fetch_add(1, Ordering::Relaxed);
                                    shared
                                        .counters
                                        .records
                                        .fetch_add(records.len() as u64, Ordering::Relaxed);
                                }
                                // Sized-to-credits channel: never blocks. A
                                // session that died mid-flight just drops the
                                // result.
                                let _ = target.out_tx.send((
                                    session_seq,
                                    CompletedBatch {
                                        records,
                                        classifications,
                                        candidates,
                                        panicked,
                                        generation,
                                    },
                                ));
                                if let Some(notify) = &target.notify {
                                    notify();
                                }
                            }
                        }
                    })
                    .expect("spawn serving worker")
            })
            .collect();

        Self {
            shared,
            workers,
            config,
        }
    }

    /// `Self::new(HostBackend::new(db), config)`, spelled out. Kept only
    /// because the frozen `benchmark/` package calls it; goes when that
    /// package next changes (ROADMAP item 1(c)).
    pub fn host_with_config(db: Arc<Database>, config: EngineConfig) -> Self {
        Self::new(HostBackend::new(db), config)
    }

    /// The engine's (normalised) shape.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The current backend's short label (`"host"`, `"gpu-sim"`, …).
    pub fn backend_name(&self) -> &'static str {
        self.shared.epochs.pin().backend().name()
    }

    /// Pin the engine's current epoch: a handle on the database (and
    /// backend) that stays valid — and keeps that database alive — across
    /// any number of [`ServingEngine::reload_backend`] calls. A caller
    /// that reads the database directly (serving metadata) pins per use
    /// instead of caching a borrow.
    pub fn pin_epoch(&self) -> Arc<Epoch> {
        self.shared.epochs.pin()
    }

    /// The current database generation (0 until the first reload).
    pub fn generation(&self) -> u64 {
        self.shared.epochs.generation()
    }

    /// Hot-swap the engine's backend (and database): publish `backend` as
    /// the next generation and return it. Zero downtime — batches already
    /// being classified finish on the old epoch (their results carry its
    /// generation tag), every batch popped after the swap observes the new
    /// one, and idle workers wake to release the old epoch immediately, so
    /// the old `Arc<Database>` is freed as soon as the last in-flight batch
    /// of the old generation completes.
    pub fn reload_backend<B>(&self, backend: B) -> u64
    where
        B: Backend + 'static,
    {
        let generation = self.shared.epochs.swap(Arc::new(backend));
        self.shared.queue.note_reload(generation);
        generation
    }

    /// Open a client session with the engine's default shape. Sessions are
    /// cheap (one registry entry + one channel): open one per request
    /// stream, from any thread.
    pub fn session(&self) -> Session<'_> {
        self.session_with(SessionConfig::default())
    }

    /// Open a client session with explicit overrides.
    pub fn session_with(&self, config: SessionConfig) -> Session<'_> {
        self.session_inner(config, None)
    }

    /// Open a client session whose result deliveries additionally invoke
    /// `notify` (after the result is in the session's channel). This is the
    /// hook for non-blocking front-ends: park a poll-loop waker in `notify`
    /// and use [`Session::try_drain_owned`] when it fires, instead of
    /// blocking in the `classify_*` entry points. `notify` runs on worker
    /// threads and must never block.
    pub fn session_with_notify(
        &self,
        config: SessionConfig,
        notify: Arc<dyn Fn() + Send + Sync>,
    ) -> Session<'_> {
        self.session_inner(config, Some(notify))
    }

    fn session_inner(
        &self,
        config: SessionConfig,
        notify: Option<Arc<dyn Fn() + Send + Sync>>,
    ) -> Session<'_> {
        let id = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
        let batch_records = if config.batch_records > 0 {
            config.batch_records
        } else {
            self.config.batch_records
        };
        let max_in_flight = if config.max_in_flight > 0 {
            config.max_in_flight
        } else {
            self.config.effective_session_in_flight()
        }
        .min(MAX_SESSION_IN_FLIGHT);
        let (out_tx, out_rx) = mpsc::sync_channel(max_in_flight);
        self.shared
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id, Arc::new(SessionState { out_tx, notify }));
        self.shared
            .counters
            .sessions_opened
            .fetch_add(1, Ordering::Relaxed);
        Session {
            engine: self,
            id,
            out_rx,
            pending: BTreeMap::new(),
            next_submit_seq: 0,
            next_emit_seq: 0,
            in_flight: 0,
            peak_in_flight: 0,
            batch_records,
            max_in_flight,
            last_generation: self.shared.epochs.generation(),
        }
    }

    /// Register a callback fired every time shared-queue capacity frees
    /// (a batch popped or purged). The non-blocking counterpart of the
    /// blocking `push`: an event-loop front-end whose
    /// [`Session::try_submit_owned`] hit a full queue parks its waker here
    /// and retries on the callback. Watchers live for the engine's
    /// lifetime, run on worker threads, and must never block.
    pub fn watch_queue_space(&self, watcher: Arc<dyn Fn() + Send + Sync>) {
        self.shared.queue.watch_space(watcher);
    }

    /// Sessions currently registered (created and not yet dropped) — the
    /// front-end's leak gauge: after every connection of a drained server
    /// has closed, this must be back to its pre-traffic value.
    pub fn live_sessions(&self) -> usize {
        self.shared
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// The fair queue's high-water admission check for `session` (see
    /// [`Session::over_high_water`]): `true` while the shared queue is at
    /// capacity and the session has no queued work of its own. A serving
    /// front-end sheds such a request (answering "busy, retry later")
    /// instead of queueing it unboundedly behind established streams.
    pub fn over_high_water(&self, session: u64) -> bool {
        self.shared.queue.over_high_water(session)
    }

    /// Snapshot the engine's lifetime counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            workers: self.workers.len() as u64,
            sessions_opened: self.shared.counters.sessions_opened.load(Ordering::Relaxed),
            batches_classified: self.shared.counters.batches.load(Ordering::Relaxed),
            records_classified: self.shared.counters.records.load(Ordering::Relaxed),
            worker_panics: self.shared.counters.panics.load(Ordering::Relaxed),
            peak_queue_batches: self.shared.queue.peak_queued(),
        }
    }

    /// Gracefully shut the engine down: close the submission queue, let the
    /// workers drain everything already queued (idle drain) and join them.
    /// Consumes the engine — and because sessions borrow it, all sessions
    /// must have been dropped first, so nothing can be lost mid-stream.
    pub fn shutdown(mut self) -> EngineStats {
        let workers = self.workers.len() as u64;
        self.teardown();
        EngineStats {
            workers,
            ..self.stats()
        }
    }

    fn teardown(&mut self) {
        // Closing the queue ends the workers once they have drained it;
        // sessions borrow the engine, so none can still be submitting.
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServingEngine {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// One client stream multiplexed over a [`ServingEngine`].
///
/// A session is single-owner (`&mut self` entry points) and cheap; its
/// borrow of the engine guarantees the worker pool outlives it. Batches are
/// submitted with per-session sequence numbers and the session restores its
/// own input order in a client-side reorder buffer, releasing one credit per
/// emitted batch: a credit is taken *before* a batch is submitted and
/// returned only when the batch has been emitted in order, so the batches
/// resident anywhere (queue + workers + completed-but-unordered reorder
/// buffer) never exceed `max_in_flight`.
///
/// Dropping a session (including mid-panic of the caller's sink) removes
/// its routing entry and purges its still-queued batches from the fair
/// queue: workers never waste time on orphaned work, the freed capacity
/// immediately unblocks other sessions' producers, and batches already on
/// a worker are discarded on completion — one misbehaving client cannot
/// stall the pool or other sessions.
///
/// # Example
///
/// ```
/// # use std::sync::Arc;
/// # use metacache::{HostBackend, MetaCacheConfig, build::CpuBuilder};
/// # use metacache::serving::{EngineConfig, ServingEngine};
/// # use mc_seqio::SequenceRecord;
/// # use mc_taxonomy::{Rank, Taxonomy};
/// # let mut taxonomy = Taxonomy::with_root();
/// # taxonomy.add_node(100, 1, Rank::Species, "Species A").unwrap();
/// # let mut state = 9u64;
/// # let genome: Vec<u8> = (0..8000).map(|_| {
/// #     state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
/// #     b"ACGT"[(state >> 33) as usize % 4]
/// # }).collect();
/// # let mut builder = CpuBuilder::new(MetaCacheConfig::default(), taxonomy);
/// # builder.add_target(SequenceRecord::new("refA", genome.clone()), 100).unwrap();
/// # let backend = HostBackend::new(Arc::new(builder.finish()));
/// # let engine = ServingEngine::new(backend, EngineConfig::default());
/// let mut session = engine.session();
/// // Request-shaped: one call per request, results in input order.
/// let reads = vec![SequenceRecord::new("r0", genome[100..250].to_vec())];
/// let classifications = session.classify_batch(&reads);
/// assert_eq!(classifications[0].taxon, 100);
/// // Stream-shaped: the sink sees (index, read, classification) in exact
/// // input order while the warm pool classifies concurrently.
/// let summary = session
///     .classify_stream(
///         (0..5).map(|i| {
///             Ok::<_, std::convert::Infallible>(SequenceRecord::new(
///                 format!("s{i}"),
///                 genome[i * 50..i * 50 + 150].to_vec(),
///             ))
///         }),
///         |index, _read, c| assert!(index < 5 && c.taxon == 100),
///     )
///     .unwrap();
/// assert_eq!(summary.records, 5);
/// ```
pub struct Session<'e> {
    engine: &'e ServingEngine,
    id: u64,
    out_rx: mpsc::Receiver<(u64, CompletedBatch)>,
    /// Reorder buffer: completed batches that arrived ahead of
    /// `next_emit_seq`.
    pending: BTreeMap<u64, CompletedBatch>,
    next_submit_seq: u64,
    next_emit_seq: u64,
    in_flight: usize,
    peak_in_flight: u64,
    batch_records: usize,
    max_in_flight: usize,
    last_generation: u64,
}

impl Session<'_> {
    /// The session's engine-unique id (the tag its batches carry).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The database generation of the most recently drained batch (the
    /// engine's generation at session open until the first drain). A client
    /// streaming across a [`ServingEngine::reload_backend`] watches this to
    /// detect the mid-stream upgrade.
    pub fn database_generation(&self) -> u64 {
        self.last_generation
    }

    /// The engine this session is served by.
    pub fn engine(&self) -> &ServingEngine {
        self.engine
    }

    /// The high-water admission check for this session: `true` while the
    /// engine's shared queue is full and this session has nothing queued —
    /// the moment a load-shedding front-end answers "busy" instead of
    /// submitting. Sessions with queued work are exempt (they hold a lane
    /// and drain it), so established streams keep their throughput while
    /// a flood of newcomers is shed.
    pub fn over_high_water(&self) -> bool {
        self.engine.shared.queue.over_high_water(self.id)
    }

    /// Stream a fallible record source through the engine, calling `sink`
    /// with `(record_index, record, classification)` in exact input order.
    ///
    /// The caller's thread parses and assembles batches while the engine's
    /// resident workers classify concurrently; the session never holds more
    /// than its `max_in_flight` batches anywhere in the engine. On a source
    /// error, everything already submitted still drains to the sink, then
    /// the error is returned. A session can run any number of streams back
    /// to back — the warm worker pool is reused across all of them — and a
    /// stream abandoned mid-flight (sink panic, re-raised worker failure)
    /// is fully discarded before the next one starts, so stale batches
    /// never leak into a later sink.
    pub fn classify_stream<I, E, F>(
        &mut self,
        records: I,
        mut sink: F,
    ) -> std::result::Result<StreamingSummary, E>
    where
        I: IntoIterator<Item = std::result::Result<SequenceRecord, E>>,
        F: FnMut(u64, &SequenceRecord, &Classification),
    {
        // A previous stream on this session may have been abandoned
        // mid-flight (sink panic unwinding through us, or the panic re-raised
        // for a failed batch): its leftover batches must never leak into this
        // stream's sink.
        self.discard_stale();

        let mut summary = StreamingSummary::default();
        let mut record_index: u64 = 0;
        let mut error: Option<E> = None;
        // Cap the eager allocation: batch_records is caller-configured and
        // may be huge; the vector grows past this only if records really
        // arrive.
        let prealloc = self.batch_records.min(64 * 1024);
        let mut current: Vec<SequenceRecord> = Vec::with_capacity(prealloc);
        let start_peak = self.peak_in_flight;
        self.peak_in_flight = self.in_flight as u64;

        for item in records {
            match item {
                Ok(record) => {
                    current.push(record);
                    if current.len() >= self.batch_records {
                        let batch = std::mem::replace(&mut current, Vec::with_capacity(prealloc));
                        self.submit(batch, &mut summary, &mut sink, &mut record_index);
                    }
                }
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        if !current.is_empty() {
            self.submit(current, &mut summary, &mut sink, &mut record_index);
        }
        // Drain everything still in flight — also the prefix before a source
        // error: every record parsed before it still reaches the sink.
        while self.in_flight > 0 {
            self.emit_one(&mut summary, &mut sink, &mut record_index);
        }

        summary.peak_resident_batches = self.peak_in_flight;
        self.peak_in_flight = start_peak.max(self.peak_in_flight);
        // The queue gauge is engine-wide (all sessions share the queue).
        summary.peak_queue_batches = self.engine.shared.queue.peak_queued();
        match error {
            Some(e) => Err(e),
            None => Ok(summary),
        }
    }

    /// Stream an infallible record source and collect the classifications in
    /// input order. Convenience form of [`Session::classify_stream`].
    pub fn classify_iter<I>(&mut self, records: I) -> (Vec<Classification>, StreamingSummary)
    where
        I: IntoIterator<Item = SequenceRecord>,
    {
        let mut out = Vec::new();
        let result = self.classify_stream(
            records.into_iter().map(Ok::<_, std::convert::Infallible>),
            |_, _, c| out.push(*c),
        );
        let summary = match result {
            Ok(summary) => summary,
            Err(infallible) => match infallible {},
        };
        (out, summary)
    }

    /// Stream a FASTA/FASTQ file (auto-detected) from disk through the
    /// engine without materialising it, collecting the classifications in
    /// file order.
    pub fn classify_file(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> crate::Result<(Vec<Classification>, StreamingSummary)> {
        let stream = mc_seqio::SequenceReader::open(path).map_err(MetaCacheError::from)?;
        let mut out = Vec::new();
        let summary = self.classify_stream(stream, |_, _, c| out.push(*c))?;
        Ok((out, summary))
    }

    /// Classify a slice of reads through the engine, returning one
    /// classification per read in input order — the request-shaped entry
    /// point for serving front-ends. Convenience form of
    /// [`Session::classify_iter`].
    pub fn classify_batch(&mut self, records: &[SequenceRecord]) -> Vec<Classification> {
        self.classify_iter(records.iter().cloned()).0
    }

    /// Records per engine batch this session was opened with.
    pub fn batch_records(&self) -> usize {
        self.batch_records
    }

    /// The session's credit bound (resident batches).
    pub fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    /// Batches currently in flight (submitted, not yet drained).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Whether a credit is free, i.e. [`Session::try_submit_owned`] could
    /// accept a batch (queue capacity permitting).
    pub fn can_submit(&self) -> bool {
        self.in_flight < self.max_in_flight
    }

    /// Non-blocking submit of one owned batch, to come back as `output`:
    /// `Err(records)` hands the batch straight back when the session is out
    /// of credits or the shared queue is at capacity. Credits free via
    /// [`Session::try_drain_owned`];
    /// queue capacity frees via [`ServingEngine::watch_queue_space`] — an
    /// event-loop caller parks on those signals instead of blocking here.
    ///
    /// Must not be interleaved with the blocking `classify_*` entry points
    /// on the same session (both consume the same in-flight credits and
    /// result channel; the blocking paths assume exclusive use).
    pub fn try_submit_owned(
        &mut self,
        records: Vec<SequenceRecord>,
        output: OutputKind,
    ) -> Result<(), Vec<SequenceRecord>> {
        if self.in_flight >= self.max_in_flight {
            return Err(records);
        }
        let batch = self.next_job(records, output);
        match self.engine.shared.queue.try_push(batch) {
            Ok(()) => {
                self.next_submit_seq += 1;
                self.in_flight += 1;
                self.peak_in_flight = self.peak_in_flight.max(self.in_flight as u64);
                Ok(())
            }
            Err(batch) => Err(batch.records),
        }
    }

    /// Non-blocking drain: the next completed batch in submission order, if
    /// it has arrived. Never blocks and never panics on a failed batch —
    /// the [`CompletedBatch::panicked`] flag carries worker failure out to
    /// the caller instead (unlike the blocking paths, which re-raise).
    /// Returns `None` while the next-in-order batch is still in flight,
    /// even if later batches have already finished (they wait in the
    /// reorder buffer).
    pub fn try_drain_owned(&mut self) -> Option<CompletedBatch> {
        self.next_completed(false)
    }

    /// The one drain primitive — the only place this session's reorder
    /// buffer advances, a credit is released and `last_generation` is set:
    /// take the next batch in submission order, receiving results (into the
    /// reorder buffer) until it has arrived. With `block`, waits for it —
    /// the caller guarantees `in_flight > 0`; without, returns `None` as
    /// soon as the result channel runs dry.
    fn next_completed(&mut self, block: bool) -> Option<CompletedBatch> {
        loop {
            if let Some(done) = self.pending.remove(&self.next_emit_seq) {
                self.next_emit_seq += 1;
                self.in_flight -= 1;
                self.last_generation = done.generation;
                return Some(done);
            }
            let (seq, result) = if block {
                self.out_rx
                    .recv()
                    .expect("serving engine workers gone while session in flight")
            } else {
                self.out_rx.try_recv().ok()?
            };
            self.pending.insert(seq, result);
        }
    }

    /// Blocking drain of the next batch in submission order; a batch whose
    /// backend worker panicked is re-raised here, on the client's thread.
    fn drain_blocking(&mut self) -> CompletedBatch {
        let done = self
            .next_completed(true)
            .expect("a blocking drain always yields a batch");
        if done.panicked {
            panic!(
                "serving engine worker panicked while classifying \
                 session {} batch {}",
                self.id,
                self.next_emit_seq - 1
            );
        }
        done
    }

    /// Tag `records` as this session's next batch.
    fn next_job(&self, records: Vec<SequenceRecord>, output: OutputKind) -> Job {
        Job {
            session: self.id,
            session_seq: self.next_submit_seq,
            records,
            output,
        }
    }

    /// Discard every in-flight batch of an abandoned previous stream:
    /// purge what is still queued (so no worker wastes time on it), receive
    /// (and drop) the results owed for batches already being classified,
    /// clear the reorder buffer and resynchronise the emit cursor. Safe to
    /// block: a registered session's outstanding batches either get purged
    /// here or always complete (the sized result channel means workers
    /// never block delivering them).
    fn discard_stale(&mut self) {
        if self.in_flight == 0 && self.pending.is_empty() {
            return;
        }
        let purged = self.engine.shared.queue.purge_session(self.id);
        // Results already received sit in `pending`; purged batches will
        // never produce one; the rest are with workers or in our channel.
        let mut to_recv = self.in_flight.saturating_sub(self.pending.len() + purged);
        while to_recv > 0 {
            if self.out_rx.recv().is_err() {
                break;
            }
            to_recv -= 1;
        }
        self.pending.clear();
        self.in_flight = 0;
        self.next_emit_seq = self.next_submit_seq;
    }

    /// Submit one assembled batch (to be classified) under this session's
    /// next sequence number: block on this session's credit bound (draining
    /// our own completed batches while waiting), then enqueue.
    fn submit<F>(
        &mut self,
        records: Vec<SequenceRecord>,
        summary: &mut StreamingSummary,
        sink: &mut F,
        record_index: &mut u64,
    ) where
        F: FnMut(u64, &SequenceRecord, &Classification),
    {
        while self.in_flight >= self.max_in_flight {
            self.emit_one(summary, sink, record_index);
        }
        let batch = self.next_job(records, OutputKind::Classifications);
        self.engine
            .shared
            .queue
            .push(batch)
            .unwrap_or_else(|_| panic!("serving engine queue closed while session alive"));
        self.next_submit_seq += 1;
        self.in_flight += 1;
        self.peak_in_flight = self.peak_in_flight.max(self.in_flight as u64);
    }

    /// Drain the next batch in order and emit its records to the sink.
    fn emit_one<F>(&mut self, summary: &mut StreamingSummary, sink: &mut F, record_index: &mut u64)
    where
        F: FnMut(u64, &SequenceRecord, &Classification),
    {
        let done = self.drain_blocking();
        for (record, classification) in done.records.iter().zip(&done.classifications) {
            sink(*record_index, record, classification);
            summary.bases += record.total_len() as u64;
            *record_index += 1;
        }
        summary.records += done.records.len() as u64;
        summary.batches += 1;
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        // Unregister first so workers stop routing to our channel; anything
        // a worker already holds is discarded on completion.
        self.engine
            .shared
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.id);
        // Then purge what never reached a worker: a dead session must not
        // burn backend time on orphaned batches or hold queue capacity
        // hostage against live sessions.
        self.engine.shared.queue.purge_session(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::CpuBuilder;
    use crate::config::MetaCacheConfig;
    use crate::query::Classifier;
    use mc_taxonomy::{Rank, Taxonomy};

    fn make_seq(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect()
    }

    fn serving_db() -> (Arc<Database>, Vec<SequenceRecord>) {
        let mut taxonomy = Taxonomy::with_root();
        taxonomy.add_node(100, 1, Rank::Species, "a").unwrap();
        taxonomy.add_node(101, 1, Rank::Species, "b").unwrap();
        let genome_a = make_seq(12_000, 1);
        let genome_b = make_seq(12_000, 2);
        let mut builder = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy);
        builder
            .add_target(SequenceRecord::new("a", genome_a.clone()), 100)
            .unwrap();
        builder
            .add_target(SequenceRecord::new("b", genome_b.clone()), 101)
            .unwrap();
        let reads = (0..40)
            .map(|i| {
                let g = if i % 2 == 0 { &genome_a } else { &genome_b };
                SequenceRecord::new(
                    format!("r{i}"),
                    g[100 + i * 37..100 + i * 37 + 120].to_vec(),
                )
            })
            .collect();
        (Arc::new(builder.finish()), reads)
    }

    #[test]
    fn single_session_matches_classify_batch() {
        let (db, reads) = serving_db();
        let expected = Classifier::new(Arc::clone(&db)).classify_batch(&reads);
        let engine = ServingEngine::host_with_config(
            Arc::clone(&db),
            EngineConfig {
                workers: 3,
                queue_capacity: 2,
                batch_records: 4,
                session_max_in_flight: 0,
            },
        );
        let mut session = engine.session();
        let (got, summary) = session.classify_iter(reads.iter().cloned());
        assert_eq!(got, expected);
        assert_eq!(summary.records, reads.len() as u64);
        assert_eq!(summary.batches, (reads.len() as u64).div_ceil(4));
        assert!(summary.peak_resident_batches <= 2 + 3);
        drop(session);
        let stats = engine.shutdown();
        assert_eq!(stats.records_classified, reads.len() as u64);
        assert_eq!(stats.sessions_opened, 1);
        assert_eq!(stats.worker_panics, 0);
    }

    #[test]
    fn session_reuse_across_requests_keeps_order() {
        let (db, reads) = serving_db();
        let expected = Classifier::new(Arc::clone(&db)).classify_batch(&reads);
        let engine = ServingEngine::host_with_config(
            Arc::clone(&db),
            EngineConfig {
                workers: 2,
                queue_capacity: 2,
                batch_records: 3,
                session_max_in_flight: 0,
            },
        );
        let mut session = engine.session();
        // Many small "requests" through one warm session.
        for chunk in reads.chunks(7) {
            let expected_chunk: Vec<_> = chunk
                .iter()
                .map(|r| Classifier::new(Arc::clone(&db)).classify(r))
                .collect();
            let got = session.classify_batch(chunk);
            assert_eq!(got, expected_chunk);
        }
        // One big request on the same session still matches.
        let (got, _) = session.classify_iter(reads.iter().cloned());
        assert_eq!(got, expected);
    }

    #[test]
    fn sink_sees_exact_input_order_with_tiny_batches() {
        let (db, reads) = serving_db();
        let engine = ServingEngine::host_with_config(
            Arc::clone(&db),
            EngineConfig {
                workers: 4,
                queue_capacity: 2,
                batch_records: 1,
                session_max_in_flight: 0,
            },
        );
        let mut session = engine.session();
        let mut seen = Vec::new();
        let summary = session
            .classify_stream(
                reads.iter().cloned().map(Ok::<_, std::convert::Infallible>),
                |index, record, _| seen.push((index, record.header.clone())),
            )
            .unwrap();
        assert_eq!(seen.len(), reads.len());
        for (i, (index, header)) in seen.iter().enumerate() {
            assert_eq!(*index, i as u64);
            assert_eq!(header, &reads[i].header);
        }
        assert!(summary.bases > 0);
    }

    #[test]
    fn source_error_drains_prefix_and_propagates() {
        let (db, reads) = serving_db();
        let engine = ServingEngine::new(HostBackend::new(Arc::clone(&db)), EngineConfig::default());
        let mut session = engine.session_with(SessionConfig {
            batch_records: 3,
            max_in_flight: 2,
        });
        let mut emitted = 0u64;
        let source =
            reads
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, r)| if i < 10 { Ok(r) } else { Err("boom") });
        let err = session
            .classify_stream(source, |_, _, _| emitted += 1)
            .unwrap_err();
        assert_eq!(err, "boom");
        assert_eq!(emitted, 10);
    }

    #[test]
    fn empty_stream_is_a_noop() {
        let (db, _) = serving_db();
        let engine = ServingEngine::new(HostBackend::new(Arc::clone(&db)), EngineConfig::default());
        let mut session = engine.session();
        let (out, summary) = session.classify_iter(std::iter::empty());
        assert!(out.is_empty());
        assert_eq!(summary.records, 0);
        assert_eq!(summary.batches, 0);
    }

    #[test]
    fn session_in_flight_stays_within_bound() {
        let (db, reads) = serving_db();
        let engine = ServingEngine::host_with_config(
            Arc::clone(&db),
            EngineConfig {
                workers: 2,
                queue_capacity: 1,
                batch_records: 1,
                session_max_in_flight: 3,
            },
        );
        let mut session = engine.session();
        let (_, summary) = session.classify_iter(reads.iter().cloned());
        assert!(
            summary.peak_resident_batches <= 3,
            "peak {} exceeds session bound 3",
            summary.peak_resident_batches
        );
    }

    #[test]
    fn drop_without_shutdown_joins_workers() {
        let (db, reads) = serving_db();
        let engine = ServingEngine::new(HostBackend::new(Arc::clone(&db)), EngineConfig::default());
        let mut session = engine.session();
        let _ = session.classify_iter(reads.iter().cloned());
        drop(session);
        drop(engine); // Drop impl must join without hanging.
    }

    fn batch_of(session: u64, seq: u64, records: usize) -> Job {
        Job {
            session,
            session_seq: seq,
            records: (0..records)
                .map(|i| SequenceRecord::new(format!("s{session}b{seq}r{i}"), b"ACGT".to_vec()))
                .collect(),
            output: OutputKind::Classifications,
        }
    }

    /// Test shim over the epoch-aware pop: pops as a worker pinned at the
    /// queue's current reload generation (so it never sees a reload wake).
    fn pop_batch(queue: &FairQueue) -> Option<Job> {
        match queue.pop_pinned(queue.reload_generation.load(Ordering::Acquire)) {
            Popped::Batch(batch) => Some(batch),
            Popped::Reload => panic!("pop at the current generation saw a reload wake"),
            Popped::Closed => None,
        }
    }

    /// The starvation regression test (queue level): with a FIFO pop, a
    /// small session's lone batch submitted behind a big session's backlog
    /// waits for the *entire* backlog. The DRR pop must serve it within one
    /// scheduling round.
    #[test]
    fn drr_pop_does_not_starve_small_sessions_behind_a_backlog() {
        let queue = FairQueue::new(64, 4);
        // Session 1: a big backlog of 8 batches, 4 records each.
        for seq in 0..8 {
            queue.push(batch_of(1, seq, 4)).unwrap();
        }
        // Session 2: one small batch, queued dead last.
        queue.push(batch_of(2, 0, 2)).unwrap();

        let order: Vec<u64> = (0..9).map(|_| pop_batch(&queue).unwrap().session).collect();
        let small_position = order.iter().position(|&s| s == 2).unwrap();
        assert!(
            small_position <= 2,
            "small session served at position {small_position} of {order:?}; \
             FIFO would serve it last"
        );
        // Per-session FIFO order is preserved by the fair pop.
        queue.push(batch_of(3, 0, 1)).unwrap();
        queue.push(batch_of(3, 1, 1)).unwrap();
        queue.push(batch_of(3, 2, 1)).unwrap();
        let seqs: Vec<u64> = (0..3)
            .map(|_| pop_batch(&queue).unwrap().session_seq)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    /// Record weighting: a session submitting few large batches and one
    /// submitting many small batches interleave by records, not turns —
    /// the small-batch session is not starved of pops.
    #[test]
    fn drr_pop_interleaves_sessions_with_queued_work() {
        let queue = FairQueue::new(64, 4);
        for seq in 0..4 {
            queue.push(batch_of(1, seq, 4)).unwrap(); // 16 records in 4 batches
        }
        for seq in 0..8 {
            queue.push(batch_of(2, seq, 2)).unwrap(); // 16 records in 8 batches
        }
        let order: Vec<u64> = (0..12)
            .map(|_| pop_batch(&queue).unwrap().session)
            .collect();
        // Within the first half of the pops, both sessions must appear.
        assert!(
            order[..4].contains(&1) && order[..4].contains(&2),
            "{order:?}"
        );
        // And the queue drains completely and closes cleanly.
        queue.close();
        assert!(pop_batch(&queue).is_none());
        assert!(queue.push(batch_of(9, 0, 1)).is_err());
    }

    /// Satellite regression: purging a dead session's lane frees its queue
    /// capacity immediately and wakes producers blocked on `space`.
    #[test]
    fn purge_session_removes_lane_and_wakes_blocked_producers() {
        let queue = FairQueue::new(4, 1);
        for seq in 0..4 {
            queue.push(batch_of(1, seq, 1)).unwrap(); // dead session fills the queue
        }
        assert_eq!(queue.queued(), 4);
        // A producer for a live session blocks on the full queue.
        let queue_ref = &queue;
        std::thread::scope(|scope| {
            let blocked = scope.spawn(move || queue_ref.push(batch_of(2, 0, 1)).is_ok());
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert!(!blocked.is_finished(), "push must block on a full queue");
            // Purging the dead session's lane unblocks it without any worker
            // classifying the orphans.
            assert_eq!(queue.purge_session(1), 4);
            assert!(blocked.join().unwrap());
        });
        assert_eq!(queue.queued(), 1);
        // Only the live session's batch remains.
        assert_eq!(pop_batch(&queue).unwrap().session, 2);
        // Purging an unknown session is a no-op.
        assert_eq!(queue.purge_session(99), 0);
    }

    /// High-water admission: a full queue refuses only sessions without a
    /// lane; sessions with queued work are never refused, and capacity
    /// freeing up re-admits newcomers.
    #[test]
    fn over_high_water_spares_established_lanes() {
        let queue = FairQueue::new(3, 1);
        assert!(!queue.over_high_water(1), "empty queue admits anyone");
        queue.push(batch_of(1, 0, 1)).unwrap();
        queue.push(batch_of(1, 1, 1)).unwrap();
        queue.push(batch_of(2, 0, 1)).unwrap();
        // Full: session 3 (no lane) is over the high water, 1 and 2 are not.
        assert!(queue.over_high_water(3));
        assert!(!queue.over_high_water(1));
        assert!(!queue.over_high_water(2));
        // Draining one batch re-opens admission.
        let _ = pop_batch(&queue).unwrap();
        assert!(!queue.over_high_water(3));
    }

    #[test]
    fn live_sessions_tracks_session_lifetimes() {
        let (db, _) = serving_db();
        let engine = ServingEngine::new(HostBackend::new(Arc::clone(&db)), EngineConfig::default());
        assert_eq!(engine.live_sessions(), 0);
        let a = engine.session();
        let b = engine.session();
        assert_eq!(engine.live_sessions(), 2);
        assert!(!a.over_high_water(), "idle engine is under the high water");
        drop(a);
        assert_eq!(engine.live_sessions(), 1);
        drop(b);
        assert_eq!(engine.live_sessions(), 0);
        engine.shutdown();
    }

    #[test]
    fn fair_queue_close_drains_remaining_batches() {
        let queue = FairQueue::new(8, 1);
        queue.push(batch_of(1, 0, 1)).unwrap();
        queue.push(batch_of(2, 0, 1)).unwrap();
        queue.close();
        assert!(pop_batch(&queue).is_some());
        assert!(pop_batch(&queue).is_some());
        assert!(pop_batch(&queue).is_none());
        assert_eq!(queue.queued(), 0);
        assert_eq!(queue.peak_queued(), 2);
    }

    /// A backend gate that blocks workers until the test releases them and
    /// records the order in which batches reach the backend.
    struct GatedBackend {
        inner: HostBackend<Arc<Database>>,
        open: Arc<(Mutex<bool>, std::sync::Condvar)>,
        log: Arc<Mutex<Vec<String>>>,
    }

    struct GatedWorker<'b> {
        backend: &'b GatedBackend,
        inner: Box<dyn crate::backend::BackendWorker + 'b>,
    }

    impl Backend for GatedBackend {
        fn database(&self) -> &Database {
            self.inner.database()
        }

        fn name(&self) -> &'static str {
            "gated-host"
        }

        fn worker(&self) -> Box<dyn crate::backend::BackendWorker + '_> {
            Box::new(GatedWorker {
                backend: self,
                inner: self.inner.worker(),
            })
        }
    }

    impl crate::backend::BackendWorker for GatedWorker<'_> {
        fn candidates_each(
            &mut self,
            records: &[SequenceRecord],
            emit: &mut dyn FnMut(&crate::candidate::CandidateList),
        ) {
            let (lock, condvar) = &*self.backend.open;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = condvar.wait(open).unwrap();
            }
            drop(open);
            if let Some(first) = records.first() {
                self.backend.log.lock().unwrap().push(first.header.clone());
            }
            self.inner.candidates_each(records, emit);
        }
    }

    /// The starvation regression test (engine level): a single worker, a
    /// big session's backlog queued ahead of a small session's lone
    /// request — once the worker runs, the small request must be served
    /// within one DRR round, not after the whole backlog.
    #[test]
    fn small_request_is_not_starved_behind_a_big_stream() {
        let (db, _) = serving_db();
        let open = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
        let log = Arc::new(Mutex::new(Vec::new()));
        let engine = ServingEngine::new(
            GatedBackend {
                inner: HostBackend::new(Arc::clone(&db)),
                open: Arc::clone(&open),
                log: Arc::clone(&log),
            },
            EngineConfig {
                workers: 1,
                queue_capacity: 8,
                batch_records: 1,
                session_max_in_flight: 0,
            },
        );
        let genome = make_seq(2_000, 99);
        let read = |name: &str| SequenceRecord::new(name, genome[0..150].to_vec());

        let wait_for_queue = |want: u64| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
            while engine.shared.queue.queued() != want {
                assert!(
                    std::time::Instant::now() < deadline,
                    "queue never reached {want} batches (at {})",
                    engine.shared.queue.queued()
                );
                std::thread::yield_now();
            }
        };

        std::thread::scope(|scope| {
            // Big session: 7 one-record batches. The gated worker takes the
            // first and blocks; 6 remain queued.
            let engine_ref = &engine;
            let big = scope.spawn({
                let reads: Vec<_> = (0..7).map(|i| read(&format!("big{i}"))).collect();
                move || {
                    let mut session = engine_ref.session();
                    session.classify_batch(&reads)
                }
            });
            wait_for_queue(6);
            // Small session: one batch, queued dead last.
            let small = scope.spawn(move || {
                let mut session = engine_ref.session();
                session.classify_batch(&[read("small")])
            });
            wait_for_queue(7);
            // Release the worker and let everything drain.
            {
                let (lock, condvar) = &*open;
                *lock.lock().unwrap() = true;
                condvar.notify_all();
            }
            assert_eq!(big.join().unwrap().len(), 7);
            assert_eq!(small.join().unwrap().len(), 1);
        });

        let order = log.lock().unwrap().clone();
        let position = order
            .iter()
            .position(|h| h == "small")
            .expect("small request classified");
        assert!(
            position <= 3,
            "small request served at position {position} of {order:?}; \
             a FIFO pop would serve it last (position 7)"
        );
        engine.shutdown();
    }

    /// A backend whose workers consume one permit per batch and block while
    /// none are available, logging what actually reached the backend.
    struct PermitBackend {
        inner: HostBackend<Arc<Database>>,
        permits: Arc<(Mutex<usize>, std::sync::Condvar)>,
        log: Arc<Mutex<Vec<String>>>,
    }

    struct PermitWorker<'b> {
        backend: &'b PermitBackend,
        inner: Box<dyn crate::backend::BackendWorker + 'b>,
    }

    impl Backend for PermitBackend {
        fn database(&self) -> &Database {
            self.inner.database()
        }

        fn name(&self) -> &'static str {
            "permit-host"
        }

        fn worker(&self) -> Box<dyn crate::backend::BackendWorker + '_> {
            Box::new(PermitWorker {
                backend: self,
                inner: self.inner.worker(),
            })
        }
    }

    impl crate::backend::BackendWorker for PermitWorker<'_> {
        fn candidates_each(
            &mut self,
            records: &[SequenceRecord],
            emit: &mut dyn FnMut(&crate::candidate::CandidateList),
        ) {
            let (lock, condvar) = &*self.backend.permits;
            let mut permits = lock.lock().unwrap();
            while *permits == 0 {
                permits = condvar.wait(permits).unwrap();
            }
            *permits -= 1;
            drop(permits);
            if let Some(first) = records.first() {
                self.backend.log.lock().unwrap().push(first.header.clone());
            }
            self.inner.candidates_each(records, emit);
        }
    }

    /// Satellite regression (engine level): a session abandoned with
    /// batches still queued must not keep its lane alive — the orphans are
    /// purged on unregister (no wasted backend work), the queue capacity
    /// frees up immediately, and other sessions keep going.
    #[test]
    fn dropping_a_session_purges_its_queued_batches() {
        let (db, _) = serving_db();
        let permits = Arc::new((Mutex::new(1usize), std::sync::Condvar::new()));
        let log = Arc::new(Mutex::new(Vec::new()));
        let engine = ServingEngine::new(
            PermitBackend {
                inner: HostBackend::new(Arc::clone(&db)),
                permits: Arc::clone(&permits),
                log: Arc::clone(&log),
            },
            EngineConfig {
                workers: 1,
                queue_capacity: 8,
                batch_records: 1,
                session_max_in_flight: 0,
            },
        );
        let genome = make_seq(2_000, 7);
        let read = |name: &str| SequenceRecord::new(name, genome[0..150].to_vec());

        let deadline = || std::time::Instant::now() + std::time::Duration::from_secs(20);
        std::thread::scope(|scope| {
            let engine_ref = &engine;
            // The abandoned session: 6 one-record batches; the single
            // permit lets the worker classify a0 only, then the sink panic
            // on a0's result drops the session with a2..a5 still queued
            // (the worker sits blocked holding a1).
            let abandoned = scope.spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut session = engine_ref.session();
                    let reads: Vec<_> = (0..6).map(|i| read(&format!("a{i}"))).collect();
                    session
                        .classify_stream(
                            reads.into_iter().map(Ok::<_, std::convert::Infallible>),
                            |_, _, _| panic!("sink abandons the stream"),
                        )
                        .ok();
                }));
                assert!(result.is_err(), "sink panic must propagate");
            });
            abandoned.join().unwrap();

            // The purge must empty the queue *without* any further permits:
            // no worker may classify the orphaned batches.
            let stop = deadline();
            while engine.shared.queue.queued() > 0 {
                assert!(
                    std::time::Instant::now() < stop,
                    "orphaned batches were not purged (queued {})",
                    engine.shared.queue.queued()
                );
                std::thread::yield_now();
            }

            // Free the worker (it still holds a1) and serve another session.
            {
                let (lock, condvar) = &*permits;
                *lock.lock().unwrap() = 1_000;
                condvar.notify_all();
            }
            let small = scope.spawn(move || {
                let mut session = engine_ref.session();
                session.classify_batch(&[read("b0")])
            });
            assert_eq!(small.join().unwrap().len(), 1);
        });
        engine.shutdown();

        let classified = log.lock().unwrap().clone();
        assert!(classified.contains(&"a0".to_string()));
        assert!(classified.contains(&"b0".to_string()));
        for orphan in ["a2", "a3", "a4", "a5"] {
            assert!(
                !classified.contains(&orphan.to_string()),
                "purged batch {orphan} still reached the backend: {classified:?}"
            );
        }
    }

    #[test]
    fn config_normalization_and_defaults() {
        let config = EngineConfig {
            workers: 0,
            queue_capacity: 0,
            batch_records: 0,
            session_max_in_flight: 0,
        }
        .normalized();
        assert_eq!(config.workers, 1);
        assert_eq!(config.queue_capacity, 1);
        assert_eq!(config.batch_records, 1);
        assert_eq!(config.effective_session_in_flight(), 2);
        let explicit = EngineConfig {
            session_max_in_flight: 7,
            ..EngineConfig::default()
        };
        assert_eq!(explicit.effective_session_in_flight(), 7);
    }

    /// The non-blocking session API: `try_submit_owned` refuses instead of
    /// blocking (no credit / full queue), `try_drain_owned` hands back
    /// completed batches in submission order without blocking, the
    /// session-notify and queue-space watchers fire, and the results are
    /// bit-identical to the blocking path.
    #[test]
    fn try_submit_and_try_drain_are_nonblocking_and_in_order() {
        let (db, reads) = serving_db();
        let expected = Classifier::new(Arc::clone(&db)).classify_batch(&reads);
        let engine = ServingEngine::host_with_config(
            Arc::clone(&db),
            EngineConfig {
                workers: 2,
                queue_capacity: 2,
                batch_records: 4,
                session_max_in_flight: 3,
            },
        );
        let space_wakes = Arc::new(AtomicU64::new(0));
        engine.watch_queue_space({
            let space_wakes = Arc::clone(&space_wakes);
            Arc::new(move || {
                space_wakes.fetch_add(1, Ordering::Relaxed);
            })
        });
        let notifies = Arc::new(AtomicU64::new(0));
        let mut session = engine.session_with_notify(
            SessionConfig::default(),
            Arc::new({
                let notifies = Arc::clone(&notifies);
                move || {
                    notifies.fetch_add(1, Ordering::Relaxed);
                }
            }),
        );

        assert!(session.can_submit());
        assert_eq!(session.in_flight(), 0);
        assert_eq!(session.batch_records(), 4);
        assert_eq!(session.max_in_flight(), 3);

        // Submit every 4-read chunk; park on refusal and drain instead of
        // blocking. The credit bound (3) is below chunk count (10), so
        // refusals are guaranteed along the way.
        let mut chunks: std::collections::VecDeque<Vec<SequenceRecord>> =
            reads.chunks(4).map(<[SequenceRecord]>::to_vec).collect();
        let total_batches = chunks.len() as u64;
        let mut got: Vec<Classification> = Vec::new();
        let mut refusals = 0u64;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while got.len() < reads.len() {
            assert!(
                std::time::Instant::now() < deadline,
                "nonblocking pump wedged at {} of {} results",
                got.len(),
                reads.len()
            );
            if let Some(chunk) = chunks.pop_front() {
                if let Err(back) = session.try_submit_owned(chunk, OutputKind::Classifications) {
                    refusals += 1;
                    chunks.push_front(back); // refused: records come back intact
                }
            }
            while let Some(done) = session.try_drain_owned() {
                assert!(!done.panicked);
                assert_eq!(done.records.len(), done.classifications.len());
                got.extend(done.classifications);
            }
        }
        assert_eq!(got, expected, "nonblocking path must stay bit-identical");
        assert!(refusals > 0, "credit bound 3 over 10 chunks must refuse");
        assert!(session.try_drain_owned().is_none());
        assert!(session.can_submit());
        assert_eq!(session.in_flight(), 0);
        assert_eq!(notifies.load(Ordering::Relaxed), total_batches);
        assert!(space_wakes.load(Ordering::Relaxed) >= total_batches);
        drop(session);
        engine.shutdown();
    }
}
