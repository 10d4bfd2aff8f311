//! Execution backends: every backend is a *candidate source* — the host
//! (over a whole or a sharded database), simulated-GPU and (in `mc-net`)
//! routed paths behind one interface.
//!
//! The serving engine ([`crate::serving::ServingEngine`]) — and with it the
//! streaming front [`crate::pipeline::StreamingClassifier`] — is written
//! once against [`Backend`]: a backend owns (or borrows) the database plus any
//! execution substrate and can mint [`BackendWorker`]s — the per-thread
//! execution contexts that hold whatever mutable state the path needs
//! ([`QueryScratch`] for the host path, the round-robin device cursor for the
//! simulated GPU path). Workers are long-lived: a serving worker thread
//! creates one worker and reuses it for every batch it ever serves, so
//! scratch buffers stay warm across requests.
//!
//! A worker's one product is the top-candidate list of each read (the
//! paper's per-part output, §5.6). What becomes of a list — a
//! classification via [`crate::classify::classify_candidates`], or the
//! list itself for a scatter-gather router — is decided once, by the engine
//! worker loop, from what the batch's request asked for.
//!
//! All backends produce identical candidate lists for the same database
//! (asserted by `tests/cross_backend.rs`, `tests/serving.rs` and
//! `tests/net.rs`); they differ only in scheduling and in the simulated
//! cost model.

use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mc_gpu_sim::MultiGpuSystem;
use mc_seqio::SequenceRecord;

use crate::candidate::CandidateList;
use crate::database::Database;
use crate::gpu::GpuClassifier;
use crate::query::{Classifier, FeatureIndex, QueryScratch};

/// A classification execution path: the host rayon/scratch path or the
/// simulated multi-GPU path, behind one interface.
///
/// Backends are shared (`&self`) across worker threads; all per-thread
/// mutable state lives in the [`BackendWorker`]s they mint. A backend is
/// generic over how it holds the database (`Deref<Target = Database>`), so
/// the same type serves borrowed one-shot use and `Arc`-owning long-lived
/// engines.
pub trait Backend: Send + Sync {
    /// The database this backend serves: what the engine decides
    /// classifications against (config, targets, taxonomy, lineages) — the
    /// full database for a table-owning backend, the table-free metadata
    /// view for a sharded or routed one.
    fn database(&self) -> &Database;

    /// Short label used in reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Mint a fresh worker. Called once per worker thread; the worker then
    /// persists for that thread's lifetime, reusing its scratch state across
    /// every batch. (Also called to replace a worker whose state may have
    /// been poisoned by a panic.)
    fn worker(&self) -> Box<dyn BackendWorker + '_>;
}

/// A per-thread execution context of a [`Backend`]: owns the mutable scratch
/// state one worker thread needs and computes candidate lists with it.
pub trait BackendWorker: Send {
    /// Compute the top-candidate list of every record and hand each to
    /// `emit`, exactly once per record, in record order. The list is only
    /// borrowed for the call (it lives in the worker's scratch), so a path
    /// that allocates nothing per read stays that way. Lists must be
    /// bit-identical to [`Classifier::candidates_with`] on the unsharded
    /// database.
    fn candidates_each(&mut self, records: &[SequenceRecord], emit: &mut dyn FnMut(&CandidateList));
}

/// The host execution path: per-worker [`QueryScratch`] over the rayon-style
/// zero-allocation hot path of [`crate::query`]. The one host backend for a
/// whole [`Database`] and a [`ShardedDatabase`][crate::shard::ShardedDatabase]
/// alike — workers of the latter probe all shards in-process — announcing
/// itself as `"host"` or `"sharded-host"` ([`FeatureIndex::BACKEND_NAME`]).
pub struct HostBackend<D = Arc<Database>>
where
    D: Deref + Clone + Send + Sync,
    D::Target: FeatureIndex,
{
    db: D,
}

impl<D> HostBackend<D>
where
    D: Deref + Clone + Send + Sync,
    D::Target: FeatureIndex,
{
    /// Create a host backend over a borrowed or owned database handle.
    pub fn new(db: D) -> Self {
        Self { db }
    }
}

impl<D> Backend for HostBackend<D>
where
    D: Deref + Clone + Send + Sync,
    D::Target: FeatureIndex,
{
    fn database(&self) -> &Database {
        self.db.metadata()
    }

    fn name(&self) -> &'static str {
        D::Target::BACKEND_NAME
    }

    fn worker(&self) -> Box<dyn BackendWorker + '_> {
        Box::new(HostWorker {
            classifier: Classifier::new(self.db.clone()),
            scratch: QueryScratch::new(),
        })
    }
}

struct HostWorker<D>
where
    D: Deref,
    D::Target: FeatureIndex,
{
    classifier: Classifier<D>,
    scratch: QueryScratch,
}

impl<D> BackendWorker for HostWorker<D>
where
    D: Deref + Send,
    D::Target: FeatureIndex,
{
    fn candidates_each(
        &mut self,
        records: &[SequenceRecord],
        emit: &mut dyn FnMut(&CandidateList),
    ) {
        for record in records {
            emit(self.classifier.candidates_with(record, &mut self.scratch));
        }
    }
}

/// The simulated multi-GPU execution path: batches are issued round-robin
/// across the system's devices (one stream per device, modelling the paper's
/// per-GPU copy/compute overlap), sharing one [`GpuClassifier`] whose
/// partitioned database is resident across all devices.
pub struct GpuBackend<D = Arc<Database>, S = Arc<MultiGpuSystem>>
where
    D: Deref<Target = Database> + Send + Sync,
    S: Deref<Target = MultiGpuSystem> + Send + Sync,
{
    classifier: GpuClassifier<D, S>,
    next_issue: AtomicUsize,
}

impl<D, S> GpuBackend<D, S>
where
    D: Deref<Target = Database> + Send + Sync,
    S: Deref<Target = MultiGpuSystem> + Send + Sync,
{
    /// Create a GPU backend over a database partitioned across the devices
    /// of `system`.
    pub fn new(db: D, system: S) -> Self {
        Self {
            classifier: GpuClassifier::new(db, system),
            next_issue: AtomicUsize::new(0),
        }
    }

    /// The underlying classifier (per-stage breakdown access).
    pub fn classifier(&self) -> &GpuClassifier<D, S> {
        &self.classifier
    }
}

impl<D, S> Backend for GpuBackend<D, S>
where
    D: Deref<Target = Database> + Send + Sync,
    S: Deref<Target = MultiGpuSystem> + Send + Sync,
{
    fn database(&self) -> &Database {
        self.classifier.database()
    }

    fn name(&self) -> &'static str {
        "gpu-sim"
    }

    fn worker(&self) -> Box<dyn BackendWorker + '_> {
        Box::new(GpuWorker { backend: self })
    }
}

struct GpuWorker<'b, D, S>
where
    D: Deref<Target = Database> + Send + Sync,
    S: Deref<Target = MultiGpuSystem> + Send + Sync,
{
    backend: &'b GpuBackend<D, S>,
}

impl<D, S> BackendWorker for GpuWorker<'_, D, S>
where
    D: Deref<Target = Database> + Send + Sync,
    S: Deref<Target = MultiGpuSystem> + Send + Sync,
{
    fn candidates_each(
        &mut self,
        records: &[SequenceRecord],
        emit: &mut dyn FnMut(&CandidateList),
    ) {
        // One shared cursor across all workers: successive batches rotate
        // over the devices, whichever worker issues them.
        let issue = self.backend.next_issue.fetch_add(1, Ordering::Relaxed);
        let (lists, _) = self.backend.classifier.candidates_batch_on(records, issue);
        lists.iter().for_each(emit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::CpuBuilder;
    use crate::classify::{classify_candidates, Classification};
    use crate::config::MetaCacheConfig;
    use mc_taxonomy::{Rank, Taxonomy};

    /// Classify through a worker the way the engine does: one
    /// `classify_candidates` per emitted list.
    fn classify_through(
        worker: &mut dyn BackendWorker,
        db: &Database,
        records: &[SequenceRecord],
        out: &mut Vec<Classification>,
    ) {
        worker.candidates_each(records, &mut |list| {
            out.push(classify_candidates(db, &db.config, list))
        });
    }

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

    fn small_db() -> (Database, Vec<SequenceRecord>) {
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
        let reads = (0..30)
            .map(|i| {
                let g = if i % 2 == 0 { &genome_a } else { &genome_b };
                SequenceRecord::new(
                    format!("r{i}"),
                    g[100 + i * 37..100 + i * 37 + 120].to_vec(),
                )
            })
            .collect();
        (builder.finish(), reads)
    }

    #[test]
    fn host_backend_worker_matches_classify_batch() {
        let (db, reads) = small_db();
        let expected = Classifier::new(&db).classify_batch(&reads);
        let backend = HostBackend::new(&db);
        let mut worker = backend.worker();
        let mut out = Vec::new();
        // Two batches through one persistent worker (scratch reuse).
        classify_through(&mut *worker, &db, &reads[..11], &mut out);
        classify_through(&mut *worker, &db, &reads[11..], &mut out);
        assert_eq!(out, expected);
        assert_eq!(backend.name(), "host");
        assert_eq!(backend.database().target_count(), 2);
    }

    #[test]
    fn gpu_backend_rotates_issue_devices_and_matches_host() {
        let (db, reads) = small_db();
        let expected = Classifier::new(&db).classify_batch(&reads);
        let system = MultiGpuSystem::dgx1(2);
        let backend = GpuBackend::new(&db, &system);
        let mut out = Vec::new();
        let mut worker = backend.worker();
        for chunk in reads.chunks(7) {
            classify_through(&mut *worker, &db, chunk, &mut out);
        }
        assert_eq!(out, expected);
        // The cursor advanced once per batch.
        assert_eq!(
            backend.next_issue.load(Ordering::Relaxed),
            reads.chunks(7).count()
        );
        assert_eq!(backend.name(), "gpu-sim");
    }

    #[test]
    fn arc_backends_are_static() {
        // An Arc-owning backend can outlive the scope that built the
        // database — the property the serving engine relies on.
        let (db, reads) = small_db();
        let expected = Classifier::new(&db).classify_batch(&reads);
        let db = Arc::new(db);
        let backend: Box<dyn Backend> = Box::new(HostBackend::new(Arc::clone(&db)));
        let handle = std::thread::spawn({
            let db = Arc::clone(&db);
            move || {
                let backend = HostBackend::new(db);
                let mut out = Vec::new();
                classify_through(&mut *backend.worker(), backend.database(), &reads, &mut out);
                out
            }
        });
        assert_eq!(handle.join().unwrap(), expected);
        assert_eq!(backend.name(), "host");
    }
}
