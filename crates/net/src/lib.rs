//! # mc-net — the network serving front-end of the MetaCache reproduction
//!
//! Maps TCP connections onto [`metacache::serving::ServingEngine`] sessions:
//! the engine's `Session` API is request-shaped (`classify_batch`,
//! `classify_stream`), so the network layer is a thin shim — framing,
//! handshake and error reporting, with every classification guarantee
//! inherited from the engine:
//!
//! * **Bit-identity.** A read classified over the wire gets exactly the
//!   result `Classifier::classify_batch` produces in process, in the same
//!   order (`tests/net.rs` proves round-trip equality).
//! * **Bounded memory.** The engine's per-session `max_in_flight` credit
//!   bound becomes the connection's credit window, announced in the
//!   handshake; a slow client stalls only itself (TCP backpressure), a fast
//!   client cannot make the server buffer unboundedly.
//! * **Isolation.** One connection = one session: a disconnect, a malformed
//!   frame or a backend panic tears down that session alone.
//!
//! * **Fault tolerance.** Deadlines bound every server-side wait
//!   (handshake, frame read, idle, write), overload is answered with typed
//!   `Busy` frames instead of unbounded queueing, and [`RetryClient`]
//!   absorbs transient failures with reconnect + replay — results stay
//!   bit-identical even under injected faults (`tests/net_chaos.rs`).
//!
//! The crate splits into six layers:
//!
//! * [`protocol`] — the length-prefixed binary wire format (pure
//!   encode/decode, property-tested), specified in `docs/SERVING.md`;
//! * [`poll`] — the readiness shim: epoll (thin FFI, `poll(2)` fallback),
//!   a pipe [`Waker`](poll::Waker) and a lazy-cancel timer heap;
//! * [`server`] — [`NetServer`]: a single-threaded readiness event loop
//!   over nonblocking sockets — per-connection state machines reassemble
//!   frames incrementally, pipeline consecutive requests through the
//!   engine, and flush bounded outbound buffers on write-readiness —
//!   with graceful drain composing with
//!   [`ServingEngine::shutdown`](metacache::serving::ServingEngine::shutdown);
//! * [`client`] — [`NetClient`]: blocking connect / `classify_batch` /
//!   pipelined `classify_iter`;
//! * [`retry`] — [`RetryClient`]: capped-exponential-backoff reconnect and
//!   safe replay on top of [`NetClient`];
//! * [`router`] — [`RouterBackend`]: scatter-gather classification over N
//!   shard servers (candidate queries per shard, lossless merge, one final
//!   classification step), served back out through the same protocol;
//! * [`chaos`] — [`ChaosProxy`]: a deterministic fault-injection proxy
//!   (delays, slow-loris dribble, truncation, stalls, resets, half-closes)
//!   that turns failure-mode testing into seeded regression tests.
//!
//! The `mc-serve` binary wraps all of it: `mc-serve build` builds a
//! database once and saves it as `.meta` plus one `.cacheK` per part,
//! `mc-serve serve` loads and exposes it (or one part of it, `--part K`)
//! on a socket, `mc-serve route` loads the `.meta` alone and fronts the
//! part servers with a scatter-gather router, `mc-serve classify` is a
//! command-line client, `mc-serve reload` makes a server load its files
//! again, and `mc-serve smoke` runs a self-contained loopback round-trip
//! (used by CI; `--chaos` adds a fault-injected pass, and a routed pass
//! serves a saved 2-part split).

pub mod chaos;
pub mod client;
pub mod poll;
pub mod protocol;
pub mod retry;
pub mod router;
pub mod server;

pub use chaos::{ChaosProxy, ConnPlan, Fault, PASSTHROUGH};
pub use client::{ClientConfig, NetClient, NetSummary};
pub use protocol::{ErrorCode, Frame, NetError, ProtocolError, ResultEntry};
pub use retry::{RetryClient, RetryPolicy, RetryStats};
pub use router::{RouterBackend, RouterConfig};
pub use server::{NetServer, ReloadHook, ServerConfig, ServerHandle, ServerStats};
