//! Scatter-gather routing: a [`metacache::Backend`] that fans every batch
//! out to N shard servers over the wire and merges their candidate lists.
//!
//! A [`RouterBackend`] fronts shard servers that each hold one part of a
//! [`Database::repartition`] (typically `mc-serve serve --db P --part K`
//! processes, each loading `.meta` and its own `.cacheK` of a split saved
//! once by `mc-serve build --parts N`: the [`Database::into_parts`] part).
//! The router's own database is the `.meta` file alone. One batch runs in
//! two steps here and a third in the engine, mirroring the in-process
//! [`metacache::Classifier`] over the repartitioned database:
//!
//! 1. **Scatter**: the batch goes to every shard as one
//!    [`Frame::Candidates`](crate::Frame::Candidates) request, through a
//!    per-worker [`RetryClient`] — deadlines, reconnect/replay and `Busy`
//!    backoff compose per shard leg.
//! 2. **Merge**: each read's per-shard top-hit lists are merged into one
//!    [`CandidateList`]. Shards partition the *targets*, so their candidate
//!    lists are disjoint by target and the merge is lossless: the result is
//!    bit-identical to querying the unsharded table (the argument lives in
//!    `metacache::shard`'s module docs and is enforced by
//!    `tests/sharding.rs`).
//! 3. **Emit**: the merged list is the worker's product, like every other
//!    backend's. The engine worker loop turns it into what the request
//!    asked for: a classification (`classify_candidates` against the
//!    router's metadata-only database — targets, taxonomy and lineages
//!    loaded from `.meta`, no hash table — the same final step the
//!    unsharded path runs) or the list itself,
//!    so a router answers `Candidates` frames too and routers nest.
//!
//! Because [`RouterBackend`] is just a [`Backend`], a
//! [`ServingEngine`](metacache::serving::ServingEngine) +
//! [`NetServer`](crate::NetServer) over it is a drop-in classification
//! server: clients speak the ordinary protocol and cannot tell a routed
//! topology from a single process — and its shard servers are the same
//! engine + server pair, answering the router's `Candidates` frames on the
//! same worker pool, fair queue and credits as any other request. A shard
//! leg whose retry policy is
//! exhausted panics the worker; the engine replaces the worker and re-raises
//! in the owning session only, which the server answers with a typed
//! `Internal` error frame — healthy sessions and healthy shards are
//! unaffected (`tests/net_chaos.rs` covers the routed topology).

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use mc_seqio::SequenceRecord;
use metacache::{Backend, BackendWorker, CandidateList, Database};

use crate::client::{resolve_addrs, ClientConfig};
use crate::protocol::NetError;
use crate::retry::{RetryClient, RetryPolicy};

/// Connection settings of a [`RouterBackend`]: how each worker talks to
/// each shard server.
#[derive(Debug, Clone, Default)]
pub struct RouterConfig {
    /// Per-shard-connection client preferences.
    pub client: ClientConfig,
    /// Per-shard-leg retry policy (reconnect, replay, `Busy` backoff).
    pub policy: RetryPolicy,
}

/// A [`Backend`] that classifies by scattering candidate queries to N shard
/// servers and merging their per-read top-hit lists (see the module docs).
///
/// Engine worker threads each mint their own [`BackendWorker`], so every
/// worker owns one [`RetryClient`] per shard: N shards × W workers
/// connections, with no cross-worker locking on the hot path.
pub struct RouterBackend {
    meta: Arc<Database>,
    shards: Vec<Vec<SocketAddr>>,
    config: RouterConfig,
}

impl RouterBackend {
    /// Create a router over `meta` (the full database's metadata — config,
    /// targets, taxonomy, lineages; its hash table is never queried) and
    /// one address per shard server. Addresses are resolved once, here;
    /// connections are established lazily by each worker's first batch.
    ///
    /// `meta` must describe the same reference set the shard servers were
    /// split from — shard servers answer with *global* target ids, which
    /// are only meaningful against the shared target table.
    pub fn new(
        meta: Arc<Database>,
        shard_addrs: &[impl ToSocketAddrs],
        config: RouterConfig,
    ) -> Result<Self, NetError> {
        let shards = shard_addrs
            .iter()
            .map(resolve_addrs)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            meta,
            shards,
            config,
        })
    }

    /// Number of shard servers this router scatters to.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

impl Backend for RouterBackend {
    fn database(&self) -> &Database {
        &self.meta
    }

    fn name(&self) -> &'static str {
        "router"
    }

    fn worker(&self) -> Box<dyn BackendWorker + '_> {
        let legs = self
            .shards
            .iter()
            .map(|addrs| {
                RetryClient::connect_with(
                    &addrs[..],
                    self.config.client.clone(),
                    self.config.policy.clone(),
                )
                .expect("addresses were resolved at router construction")
            })
            .collect();
        Box::new(RouterWorker {
            top_candidates: self.meta.config.top_candidates,
            legs,
            merged: CandidateList::new(self.meta.config.top_candidates),
        })
    }
}

/// Scatter rounds tolerated while shard legs report different database
/// generations (a reload sweep is still propagating across the shard
/// servers); past this bound the worker panics, exactly like an exhausted
/// retry policy.
const MAX_GENERATION_REQUERIES: usize = 8;

/// Pause between generation re-queries, giving a propagating reload sweep
/// time to reach every shard server.
const GENERATION_REQUERY_PAUSE: Duration = Duration::from_millis(25);

/// One engine worker's routing state: a retrying connection per shard plus
/// the merge scratch.
struct RouterWorker {
    top_candidates: usize,
    legs: Vec<RetryClient>,
    merged: CandidateList,
}

impl BackendWorker for RouterWorker {
    fn candidates_each(
        &mut self,
        records: &[SequenceRecord],
        emit: &mut dyn FnMut(&CandidateList),
    ) {
        // Scatter: one candidates exchange per shard. A leg that stays down
        // past its retry policy panics the worker — the engine's contract
        // for a broken execution substrate: the owning session re-raises,
        // the engine mints a replacement worker (with fresh connections),
        // and every other session keeps streaming.
        //
        // Every shard tags its lists with a database generation (a leg
        // answering without one fails as a protocol error, like any other
        // broken leg). A batch merged from two different generations would
        // be a torn response no single database ever produced, so on
        // disagreement (a reload sweep caught mid-propagation) the whole
        // scatter is re-queried until the shards converge.
        let mut round = 0usize;
        let per_shard: Vec<Vec<Vec<metacache::Candidate>>> = loop {
            let mut generation: Option<u64> = None;
            let mut agreed = true;
            let lists_per_shard: Vec<Vec<Vec<metacache::Candidate>>> = self
                .legs
                .iter_mut()
                .enumerate()
                .map(|(shard, leg)| match leg.candidates_batch_tagged(records) {
                    Ok((lists, tag)) => {
                        assert_eq!(
                            lists.len(),
                            records.len(),
                            "shard {shard} answered {} candidate lists for {} reads",
                            lists.len(),
                            records.len(),
                        );
                        agreed &= *generation.get_or_insert(tag) == tag;
                        lists
                    }
                    Err(e) => panic!("shard leg {shard} failed beyond its retry policy: {e}"),
                })
                .collect();
            if agreed {
                break lists_per_shard;
            }
            round += 1;
            assert!(
                round <= MAX_GENERATION_REQUERIES,
                "shard legs still disagree on their database generation \
                 after {MAX_GENERATION_REQUERIES} re-queries"
            );
            std::thread::sleep(GENERATION_REQUERY_PAUSE);
        };
        // Gather: merge each read's disjoint per-shard lists into the one
        // list the unsharded table would have produced.
        for read in 0..records.len() {
            self.merged.reset(self.top_candidates);
            for lists in &per_shard {
                self.merged.merge(&lists[read]);
            }
            emit(&self.merged);
        }
    }
}
