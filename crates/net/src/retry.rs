//! Backoff-retry layer over [`NetClient`]: reconnects, resends, and
//! overload (`Busy`) handling.
//!
//! [`RetryClient`] owns a target address plus a [`RetryPolicy`] and keeps a
//! [`NetClient`] connection behind the scenes. Every operation retries
//! [retryable](NetError::is_retryable) failures with capped exponential
//! backoff and deterministic jitter, reconnecting when the connection died
//! and honoring the server's `retry_after_ms` hint on [`NetError::Busy`].
//!
//! **Replay is safe by construction.** Classification is deterministic and
//! a request's results are only handed to the caller once the whole call
//! succeeds, so resending a not-yet-acknowledged request (on the same or a
//! fresh connection, under a fresh request id) cannot duplicate or reorder
//! results: execution is at-least-once, result delivery exactly-once, and
//! the output is bit-identical to a fault-free run (asserted against the
//! in-process engine by `tests/net_chaos.rs`).

use std::collections::VecDeque;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

use mc_seqio::SequenceRecord;
use metacache::{Candidate, Classification};

use crate::client::{resolve_addrs, ClientConfig, NetClient, NetSummary};
use crate::protocol::{frame_type, NetError};

/// Backoff schedule of a [`RetryClient`].
///
/// Retry `n` (0-based) sleeps `min(max_delay, base_delay · 2ⁿ)` scaled by a
/// jitter factor drawn uniformly from `[0.5, 1.0)` — jitter decorrelates a
/// fleet of clients that were all shed at the same instant. For
/// [`NetError::Busy`] the server's `retry_after_ms` hint acts as a floor on
/// the sleep. The jitter sequence is a seeded xorshift, so a given
/// (policy, fault schedule) replays identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Consecutive retryable failures tolerated before giving up (the
    /// total attempt count is `max_retries + 1`). Progress — any
    /// successfully answered request — resets the count.
    pub max_retries: u32,
    /// First retry's nominal delay.
    pub base_delay: Duration,
    /// Ceiling on the exponential schedule.
    pub max_delay: Duration,
    /// Seed of the deterministic jitter sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 4,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            seed: 0x5DEE_CE66_D513_7F2E,
        }
    }
}

impl RetryPolicy {
    /// The sleep before 0-based retry `attempt`, threading the jitter rng
    /// state and applying `floor` (a server `retry_after_ms` hint).
    fn delay(&self, attempt: u32, rng: &mut u64, floor: Option<Duration>) -> Duration {
        let nominal = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX))
            .min(self.max_delay);
        let nanos = u64::try_from(nominal.as_nanos()).unwrap_or(u64::MAX);
        // Jitter factor in [0.5, 1.0): half fixed, half random.
        let half = nanos / 2;
        let jittered = Duration::from_nanos(half + xorshift(rng) % half.max(1));
        jittered.max(floor.unwrap_or(Duration::ZERO))
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = state.wrapping_add(1); // a zero seed must not stick at zero
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Lifetime counters of a [`RetryClient`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Connections established (1 on a fault-free run).
    pub connects: u64,
    /// Backoff sleeps taken (reconnects and resends combined).
    pub retries: u64,
    /// Requests (or connections) the server answered with `Busy`.
    pub busy_sheds: u64,
}

/// A fault-tolerant classification client: [`NetClient`] semantics, but
/// transient failures are absorbed by reconnect + replay instead of
/// surfacing to the caller.
///
/// The target address is resolved once at construction; the connection is
/// established lazily and re-established whenever it dies. Results are
/// bit-identical to a fault-free [`NetClient`] run (see the module docs for
/// why replay is safe).
pub struct RetryClient {
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    policy: RetryPolicy,
    rng: u64,
    conn: Option<NetClient>,
    stats: RetryStats,
}

impl RetryClient {
    /// Default [`ClientConfig`] and [`RetryPolicy`]. Resolves `addr` now;
    /// connects on first use.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        Self::connect_with(addr, ClientConfig::default(), RetryPolicy::default())
    }

    /// Explicit configuration and policy.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
        policy: RetryPolicy,
    ) -> Result<Self, NetError> {
        Ok(Self {
            addrs: resolve_addrs(addr)?,
            config,
            rng: policy.seed,
            policy,
            conn: None,
            stats: RetryStats::default(),
        })
    }

    /// Lifetime counters (connects, retries, sheds).
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// The active policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Take the live connection, establishing one if needed. The caller
    /// puts it back when done (or drops it on death) — taking it out keeps
    /// the borrow checker out of the retry loops below.
    fn take_conn(&mut self) -> Result<NetClient, NetError> {
        match self.conn.take() {
            Some(conn) if !conn.is_dead() => Ok(conn),
            _ => {
                let conn = NetClient::connect_with(&self.addrs[..], self.config.clone())?;
                self.stats.connects += 1;
                Ok(conn)
            }
        }
    }

    /// Sleep out retry `attempt` (honoring a `Busy` floor), or fail with
    /// `error` once the policy is exhausted.
    fn backoff(&mut self, attempt: &mut u32, error: NetError) -> Result<(), NetError> {
        if matches!(error, NetError::Busy { .. }) {
            self.stats.busy_sheds += 1;
        }
        if !error.is_retryable() || *attempt >= self.policy.max_retries {
            return Err(error);
        }
        let floor = match error {
            NetError::Busy { retry_after_ms } => {
                Some(Duration::from_millis(u64::from(retry_after_ms)))
            }
            _ => None,
        };
        self.stats.retries += 1;
        std::thread::sleep(self.policy.delay(*attempt, &mut self.rng, floor));
        *attempt += 1;
        Ok(())
    }

    /// Run one request/response exchange, resent (reconnecting if needed)
    /// until it succeeds or the policy is exhausted.
    fn exchange<T>(
        &mut self,
        mut op: impl FnMut(&mut NetClient) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let mut attempt = 0u32;
        loop {
            let mut conn = match self.take_conn() {
                Ok(conn) => conn,
                Err(e) => {
                    self.backoff(&mut attempt, e)?;
                    continue;
                }
            };
            let outcome = op(&mut conn);
            if !conn.is_dead() {
                // Success, a request-level Busy or a local encode failure:
                // the connection itself is fine — keep it.
                self.conn = Some(conn);
            }
            match outcome {
                Ok(answer) => return Ok(answer),
                Err(e) => self.backoff(&mut attempt, e)?,
            }
        }
    }

    /// [`NetClient::classify_batch`] with retries.
    pub fn classify_batch(
        &mut self,
        reads: &[SequenceRecord],
    ) -> Result<Vec<Classification>, NetError> {
        self.exchange(|conn| conn.classify_batch(reads))
    }

    /// [`NetClient::candidates_batch_tagged`] with retries — the router's
    /// per-shard scatter leg: the candidate lists plus the database
    /// generation they were computed under (the router compares the tags
    /// of its legs and re-queries on disagreement). Replay is safe for
    /// exactly the reason classification replay is: a candidate query is
    /// deterministic and read-only, and its lists are only handed to the
    /// caller once the whole exchange succeeds.
    pub fn candidates_batch_tagged(
        &mut self,
        reads: &[SequenceRecord],
    ) -> Result<(Vec<Vec<Candidate>>, u64), NetError> {
        self.exchange(|conn| conn.candidates_batch_tagged(reads))
    }

    /// [`NetClient::classify_iter`] with retries: stream reads through the
    /// credit window; chunks whose requests are shed or lose their
    /// connection are replayed (fresh request ids, same payload) until
    /// every chunk is answered. Results come back in input order and
    /// bit-identical to a fault-free run.
    ///
    /// `NetSummary::requests` counts requests actually sent, so it exceeds
    /// the chunk count exactly by the number of replays.
    pub fn classify_iter(
        &mut self,
        reads: impl IntoIterator<Item = SequenceRecord>,
    ) -> Result<(Vec<Classification>, NetSummary), NetError> {
        let mut source = reads.into_iter();
        let mut source_done = false;
        let mut summary = NetSummary::default();
        // Chunks are tracked by index from the moment they are cut off the
        // source until their results land in `done[idx]`; a chunk awaiting
        // (re)send sits in `pending`, a sent-but-unanswered one in
        // `window` (send order = response order on one connection).
        let mut next_chunk = 0usize;
        let mut done: Vec<Option<Vec<Classification>>> = Vec::new();
        let mut pending: VecDeque<(usize, Vec<SequenceRecord>)> = VecDeque::new();
        let mut window: VecDeque<(usize, Vec<SequenceRecord>, u64)> = VecDeque::new();
        let mut attempt = 0u32;
        loop {
            let mut conn = match self.take_conn() {
                Ok(conn) => conn,
                Err(e) => {
                    self.backoff(&mut attempt, e)?;
                    continue;
                }
            };
            debug_assert!(
                window.is_empty(),
                "in-flight requests cannot outlive their connection"
            );
            let chunk_size = conn.batch_records() as usize;
            let credits = conn.credits() as usize;
            // One connection's lifetime: keep the window full, drain
            // responses, replay on failure.
            let failure = 'conn: loop {
                while window.len() < credits {
                    let next = pending.pop_front().or_else(|| {
                        if source_done {
                            return None;
                        }
                        let chunk: Vec<SequenceRecord> = source.by_ref().take(chunk_size).collect();
                        if chunk.is_empty() {
                            source_done = true;
                            return None;
                        }
                        let idx = next_chunk;
                        next_chunk += 1;
                        done.push(None);
                        Some((idx, chunk))
                    });
                    let Some((idx, chunk)) = next else { break };
                    match conn.send_request(frame_type::CLASSIFY_PACKED, &chunk) {
                        Ok(id) => {
                            summary.requests += 1;
                            window.push_back((idx, chunk, id));
                            summary.peak_in_flight =
                                summary.peak_in_flight.max(window.len() as u64);
                        }
                        Err(e) => {
                            pending.push_front((idx, chunk));
                            break 'conn Some(e);
                        }
                    }
                }
                let Some((idx, chunk, id)) = window.pop_front() else {
                    break 'conn None; // everything sent and answered
                };
                match conn.recv_results(id) {
                    Ok(results) => {
                        done[idx] = Some(results);
                        attempt = 0; // progress resets the failure budget
                    }
                    Err(e @ NetError::Busy { .. }) if !conn.is_dead() => {
                        // Request-level shed: only this chunk needs a
                        // resend; the rest of the window is still owed
                        // in-order responses on this same connection.
                        pending.push_front((idx, chunk));
                        // On exhaustion the error propagates and `conn`
                        // drops with its window unanswered.
                        self.backoff(&mut attempt, e)?;
                    }
                    Err(e) => {
                        pending.push_front((idx, chunk));
                        break 'conn Some(e);
                    }
                }
            };
            match failure {
                None => {
                    self.conn = Some(conn); // park the healthy connection
                    break;
                }
                Some(e) => {
                    // The connection is gone (or out of sync): every
                    // unanswered request must be replayed. Spill the window
                    // back into `pending`, oldest first.
                    while let Some((idx, chunk, _)) = window.pop_back() {
                        pending.push_front((idx, chunk));
                    }
                    drop(conn); // even if alive it is out of sync now
                    self.backoff(&mut attempt, e)?;
                }
            }
        }
        let mut out = Vec::new();
        for results in done {
            out.extend(results.expect("every chunk is answered before the loop exits"));
        }
        summary.reads = out.len() as u64;
        Ok((out, summary))
    }
}
