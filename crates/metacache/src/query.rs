//! The host query path: sketch → table lookup → window count statistic →
//! top candidates → classification.
//!
//! This is the CPU MetaCache query phase of §4.2. The GPU pipeline in
//! [`crate::gpu`] runs the same algorithm batched over simulated devices; the
//! two paths produce identical classifications (asserted by integration
//! tests), differing only in how the work is scheduled and costed.
//!
//! # Three stages, one body
//!
//! A read's candidates are computed in three stages, each a method of
//! [`QueryScratch`] over the buffers it owns:
//!
//! 1. [`sketch`][QueryScratch::sketch]`(record) → features` — the read's
//!    (and its mate's) windows, min-hashed into one flat feature list;
//! 2. [`probe`][QueryScratch::probe]`(features) → locations` — the only
//!    stage that touches hash tables, and the only one that differs between
//!    deployments: it asks a [`FeatureIndex`], which a whole [`Database`]
//!    answers from its partitions and a
//!    [`ShardedDatabase`][crate::shard::ShardedDatabase] from every shard's
//!    partitions, appending to the same list;
//! 3. [`accumulate`][QueryScratch::accumulate]`(locations) → CandidateList`
//!    — count hits per window, order the distinct windows, scan for the top
//!    candidates ([`WindowCounter`]).
//!
//! [`QueryScratch::candidates_with`] chains them and is the body of
//! [`Classifier::candidates_with`]. There is one classifier: the index is a
//! type parameter bound, never a trait object, so the probe is monomorphised
//! and inlined and the unsharded loop compiles as if written by hand. This
//! is the paper's multi-GPU query shape (§5.4–5.6): a database *is* its
//! parts — sketch once, let every part answer the same features, count and
//! scan once.
//!
//! # The zero-allocation hot path
//!
//! Mirroring the paper's device pipeline — which keeps hashes in warp
//! registers and compacts location lists in pre-allocated device buffers
//! (§5.2–§5.5) — the host path performs no steady-state heap allocation:
//!
//! * every per-read buffer (sketch hash buffers, flat feature list, gathered
//!   locations, the window counter's table and count list, candidate list)
//!   lives in a reusable [`QueryScratch`];
//! * [`Classifier::classify_batch`] threads one scratch per worker through
//!   `rayon`'s `map_init`, so a batch of millions of reads allocates a
//!   handful of scratches total;
//! * the gathered locations are never sorted: a long read gathers several
//!   times more locations than it has distinct ones, so [`WindowCounter`]
//!   counts them by key in a hash table first and sorts only the distinct
//!   ones — the host's form of the paper's segmented device sort and window
//!   scan (§5.5–5.6).
//!
//! # Database ownership
//!
//! [`Classifier`] is generic over *how it holds the database* and over
//! *which kind it holds*: any `Deref` to a [`FeatureIndex`] works. Borrow
//! for one-shot use (`Classifier::new(&db)`), or hand it an `Arc<Database>`
//! (the default type parameter) or an `Arc<ShardedDatabase>` so long-lived
//! serving components — the
//! [`ServingEngine`][crate::serving::ServingEngine] worker pool, backends
//! shared across threads — can co-own the database without a borrow tying
//! them to a caller's stack frame.

use std::ops::Deref;
use std::sync::Arc;

use rayon::prelude::*;

use mc_kmer::{Feature, Location};
use mc_seqio::SequenceRecord;

use crate::candidate::{CandidateList, WindowCounter};
use crate::classify::{classify_candidates, Classification};
use crate::config::MetaCacheConfig;
use crate::database::Database;
use crate::sketch::{SketchScratch, Sketcher};

/// What a classifier queries: a feature → location index together with the
/// metadata its answers are decided against. The one seam between a whole
/// and a sharded database — everything before the probe (sketching) and
/// after it (count, sort, scan, LCA) is the same code on the same data.
pub trait FeatureIndex {
    /// The label a host backend over this index announces
    /// ([`Backend::name`][crate::backend::Backend::name], and through it the
    /// `backend` field of the wire handshake).
    const BACKEND_NAME: &'static str;

    /// The database to decide against: config, targets, taxonomy, lineages.
    /// Its own tables need not be the ones [`Self::locations_into`] reads.
    fn metadata(&self) -> &Database;

    /// Append the locations of every feature to `locations`, in any order
    /// ([`QueryScratch::accumulate`] counts them by key).
    fn locations_into(&self, features: &[Feature], locations: &mut Vec<Location>);
}

impl FeatureIndex for Database {
    const BACKEND_NAME: &'static str = "host";

    fn metadata(&self) -> &Database {
        self
    }

    /// One batched call per partition (amortises the store's per-lookup
    /// overhead).
    #[inline]
    fn locations_into(&self, features: &[Feature], locations: &mut Vec<Location>) {
        self.query_features_into(features, locations);
    }
}

/// Reusable per-worker scratch state for allocation-free classification.
///
/// Create one per worker (or reuse one across a sequential read stream) and
/// pass it to [`Classifier::classify_with`] / [`Classifier::candidates_with`].
/// All buffers grow to the high-water mark of the workload and are then
/// reused; steady-state classification performs zero heap allocations.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    /// The sketch kernel's hash and survivor buffers.
    sketch: SketchScratch,
    /// Flat feature list of the read's windows.
    features: Vec<Feature>,
    /// Locations gathered from all partitions for all features.
    locations: Vec<Location>,
    /// Count table and sparse window count statistic of stage 3.
    counter: WindowCounter,
    /// The read's candidate list.
    candidates: CandidateList,
}

impl QueryScratch {
    /// Create an empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stage 1 — sketch all windows of the read (and its mate) into one
    /// flat feature list.
    #[inline]
    pub fn sketch(&mut self, sketcher: &Sketcher, record: &SequenceRecord) -> &[Feature] {
        self.features.clear();
        sketcher.sketch_record_into(record, &mut self.sketch, &mut self.features);
        &self.features
    }

    /// Stage 2 — gather the locations of the sketched features: `index`
    /// appends them to the (cleared) location list, in any order. The tables
    /// behind `index` are the only thing that differs between an unsharded
    /// and a sharded query.
    #[inline]
    pub fn probe(&mut self, index: &(impl FeatureIndex + ?Sized)) -> &[Location] {
        self.locations.clear();
        index.locations_into(&self.features, &mut self.locations);
        &self.locations
    }

    /// Stage 3 — count the gathered locations by `(target, window)` into the
    /// window count statistic, sort its distinct entries and scan them once
    /// for the top candidates of a read of `read_len` bases
    /// ([`WindowCounter`]).
    #[inline]
    pub fn accumulate(&mut self, config: &MetaCacheConfig, read_len: usize) -> &CandidateList {
        self.candidates.reset(config.top_candidates);
        self.counter.top_candidates_into(
            &self.locations,
            config.sliding_window_size(read_len),
            &mut self.candidates,
        );
        &self.candidates
    }

    /// The whole per-read pipeline — [`sketch`][Self::sketch] →
    /// [`probe`][Self::probe] → [`accumulate`][Self::accumulate] — reusing
    /// every buffer. This is the body of [`Classifier::candidates_with`];
    /// the index's probe is inlined into it.
    #[inline]
    pub fn candidates_with(
        &mut self,
        sketcher: &Sketcher,
        index: &(impl FeatureIndex + ?Sized),
        record: &SequenceRecord,
    ) -> &CandidateList {
        self.sketch(sketcher, record);
        self.probe(index);
        self.accumulate(&index.metadata().config, record.total_len())
    }
}

/// Per-read classifier bound to a database — whole ([`Database`]) or
/// sharded ([`ShardedDatabase`][crate::shard::ShardedDatabase]); both run
/// this one body and produce bit-identical results (`shard`'s module docs
/// give the argument).
///
/// The entry points trade convenience against allocation control:
/// [`Classifier::classify`] allocates a fresh [`QueryScratch`] per call,
/// [`Classifier::classify_with`] reuses a caller-owned scratch (the
/// zero-allocation hot path), and [`Classifier::classify_batch`] fans a slice
/// of reads across rayon workers with one scratch per worker. For inputs too
/// large to materialise, use
/// [`StreamingClassifier`][crate::pipeline::StreamingClassifier] (or a
/// [`Session`][crate::serving::Session] of an engine you already run), which
/// produces bit-identical results.
///
/// # Example
///
/// ```
/// use metacache::{MetaCacheConfig, build::CpuBuilder, query::{Classifier, QueryScratch}};
/// use mc_seqio::SequenceRecord;
/// use mc_taxonomy::{Rank, Taxonomy};
///
/// let mut taxonomy = Taxonomy::with_root();
/// taxonomy.add_node(100, 1, Rank::Species, "Species A").unwrap();
/// let mut state = 5u64;
/// let genome: Vec<u8> = (0..6000)
///     .map(|_| {
///         state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
///         b"ACGT"[(state >> 33) as usize % 4]
///     })
///     .collect();
/// let mut builder = CpuBuilder::new(MetaCacheConfig::default(), taxonomy);
/// builder.add_target(SequenceRecord::new("refA", genome.clone()), 100).unwrap();
/// let db = builder.finish();
///
/// let classifier = Classifier::new(&db);
/// let mut scratch = QueryScratch::new();
/// let read = SequenceRecord::new("read", genome[500..650].to_vec());
/// let result = classifier.classify_with(&read, &mut scratch);
/// assert_eq!(result.taxon, 100);
///
/// // A read shorter than k sketches to nothing and stays unclassified.
/// let tiny = SequenceRecord::new("tiny", genome[..8].to_vec());
/// assert!(!classifier.classify_with(&tiny, &mut scratch).is_classified());
/// ```
pub struct Classifier<D = Arc<Database>>
where
    D: Deref,
    D::Target: FeatureIndex,
{
    db: D,
    sketcher: Sketcher,
}

impl<D> Classifier<D>
where
    D: Deref,
    D::Target: FeatureIndex,
{
    /// Create a classifier for a database. `db` can be a borrow
    /// (`&Database`) for one-shot use or an owning handle (`Arc<Database>`,
    /// `Arc<ShardedDatabase>`) for long-lived serving components.
    pub fn new(db: D) -> Self {
        let sketcher = Sketcher::new(&db.metadata().config)
            .expect("database config was validated at build or load");
        Self { db, sketcher }
    }

    /// The database this classifier queries.
    pub fn database(&self) -> &D::Target {
        &self.db
    }

    /// The sketcher used by this classifier.
    pub fn sketcher(&self) -> &Sketcher {
        &self.sketcher
    }

    /// Compute the candidate list of one read (or read pair) into
    /// `scratch.candidates`, reusing every buffer — the allocation-free hot
    /// path. Returns a reference to the computed list.
    pub fn candidates_with<'s>(
        &self,
        record: &SequenceRecord,
        scratch: &'s mut QueryScratch,
    ) -> &'s CandidateList {
        scratch.candidates_with(&self.sketcher, &*self.db, record)
    }

    /// Compute the candidate list of one read (or read pair). Convenience
    /// form of [`Self::candidates_with`] that allocates a fresh scratch.
    pub fn candidates(&self, record: &SequenceRecord) -> CandidateList {
        let mut scratch = QueryScratch::new();
        self.candidates_with(record, &mut scratch);
        scratch.candidates
    }

    /// Classify one read (or read pair) reusing `scratch` — the hot path.
    pub fn classify_with(
        &self,
        record: &SequenceRecord,
        scratch: &mut QueryScratch,
    ) -> Classification {
        let meta = self.db.metadata();
        let candidates = self.candidates_with(record, scratch);
        classify_candidates(meta, &meta.config, candidates)
    }

    /// Classify one read (or read pair).
    pub fn classify(&self, record: &SequenceRecord) -> Classification {
        let mut scratch = QueryScratch::new();
        self.classify_with(record, &mut scratch)
    }

    /// Classify reads sequentially with a single reused scratch (useful for
    /// deterministic profiling).
    pub fn classify_all_sequential(&self, records: &[SequenceRecord]) -> Vec<Classification> {
        let mut scratch = QueryScratch::new();
        records
            .iter()
            .map(|r| self.classify_with(r, &mut scratch))
            .collect()
    }
}

impl<D> Classifier<D>
where
    D: Deref + Sync,
    D::Target: FeatureIndex,
{
    /// Classify a batch of reads in parallel. One [`QueryScratch`] is created
    /// per rayon worker and reused for every read that worker processes.
    pub fn classify_batch(&self, records: &[SequenceRecord]) -> Vec<Classification> {
        records
            .par_iter()
            .map_init(QueryScratch::new, |scratch, r| {
                self.classify_with(r, scratch)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::CpuBuilder;
    use crate::candidate::{accumulate_locations_into, top_candidates_into};
    use crate::config::MetaCacheConfig;
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

    fn two_species_database() -> (Database, Vec<u8>, Vec<u8>) {
        let mut taxonomy = Taxonomy::with_root();
        taxonomy.add_node(10, 1, Rank::Genus, "G").unwrap();
        taxonomy.add_node(100, 10, Rank::Species, "G a").unwrap();
        taxonomy.add_node(101, 10, Rank::Species, "G b").unwrap();
        let genome_a = make_seq(20_000, 1);
        let genome_b = make_seq(20_000, 2);
        let mut builder = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy);
        builder
            .add_target(SequenceRecord::new("refA", genome_a.clone()), 100)
            .unwrap();
        builder
            .add_target(SequenceRecord::new("refB", genome_b.clone()), 101)
            .unwrap();
        (builder.finish(), genome_a, genome_b)
    }

    #[test]
    fn reads_classify_to_their_source_species() {
        let (db, genome_a, genome_b) = two_species_database();
        let classifier = Classifier::new(&db);
        for (start, genome, expected) in [
            (500usize, &genome_a, 100u32),
            (7_000, &genome_b, 101),
            (12_345, &genome_a, 100),
        ] {
            let read = SequenceRecord::new("read", genome[start..start + 120].to_vec());
            let c = classifier.classify(&read);
            assert_eq!(c.taxon, expected, "read from offset {start}");
            assert!(c.best_hits >= db.config.min_hits);
        }
    }

    #[test]
    fn foreign_read_is_unclassified() {
        let (db, _, _) = two_species_database();
        let classifier = Classifier::new(&db);
        let foreign = make_seq(150, 99);
        let c = classifier.classify(&SequenceRecord::new("alien", foreign));
        assert!(
            !c.is_classified(),
            "unrelated read must stay unclassified, got {c:?}"
        );
    }

    #[test]
    fn too_short_read_is_unclassified() {
        let (db, genome_a, _) = two_species_database();
        let classifier = Classifier::new(&db);
        let c = classifier.classify(&SequenceRecord::new("tiny", genome_a[..10].to_vec()));
        assert!(!c.is_classified());
    }

    #[test]
    fn batch_and_sequential_agree() {
        let (db, genome_a, genome_b) = two_species_database();
        let classifier = Classifier::new(&db);
        let reads: Vec<SequenceRecord> = (0..40)
            .map(|i| {
                let (genome, offset) = if i % 2 == 0 {
                    (&genome_a, 100 + i * 37)
                } else {
                    (&genome_b, 200 + i * 41)
                };
                SequenceRecord::new(format!("r{i}"), genome[offset..offset + 110].to_vec())
            })
            .collect();
        let parallel = classifier.classify_batch(&reads);
        let sequential = classifier.classify_all_sequential(&reads);
        assert_eq!(parallel, sequential);
        let correct = parallel
            .iter()
            .enumerate()
            .filter(|(i, c)| c.taxon == if i % 2 == 0 { 100 } else { 101 })
            .count();
        assert!(
            correct >= 38,
            "only {correct}/40 reads classified correctly"
        );
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch_per_read() {
        let (db, genome_a, genome_b) = two_species_database();
        let classifier = Classifier::new(&db);
        let mut reused = QueryScratch::new();
        for i in 0..30usize {
            let (genome, offset) = if i % 2 == 0 {
                (&genome_a, 150 + i * 53)
            } else {
                (&genome_b, 250 + i * 59)
            };
            let read = SequenceRecord::new(format!("r{i}"), genome[offset..offset + 120].to_vec());
            let with_reuse = classifier.classify_with(&read, &mut reused);
            let fresh = classifier.classify(&read);
            assert_eq!(with_reuse, fresh, "read {i}");
        }
    }

    /// Stage 3 on the locations real reads gather — one and several
    /// windows, both species in one read, a mate — equals sorting them and
    /// running the reference accumulate and scan, list for list.
    #[test]
    fn accumulate_equals_the_reference_scan_on_probed_locations() {
        let (db, genome_a, genome_b) = two_species_database();
        let sketcher = Sketcher::new(&db.config).unwrap();
        let mut scratch = QueryScratch::new();
        let (mut sorted, mut counts) = (Vec::new(), Vec::new());
        let mut expected = CandidateList::new(db.config.top_candidates);
        for i in 0..40usize {
            let (offset, len) = (113 * i, 60 + 17 * i);
            let mut bases = genome_a[offset..offset + len].to_vec();
            if i % 3 == 0 {
                bases.extend_from_slice(&genome_b[offset..offset + len]);
            }
            let mut read = SequenceRecord::new("r", bases);
            if i % 4 == 0 {
                read = read.with_mate(SequenceRecord::new("m", genome_b[offset..][..150].to_vec()));
            }
            scratch.sketch(&sketcher, &read);
            sorted.clear();
            sorted.extend_from_slice(scratch.probe(&db));
            sorted.sort_unstable();
            accumulate_locations_into(&sorted, &mut counts);
            let sliding = db.config.sliding_window_size(read.total_len());
            top_candidates_into(&counts, sliding, &mut expected);
            assert_eq!(
                scratch.accumulate(&db.config, read.total_len()),
                &expected,
                "read {i}"
            );
        }
    }

    #[test]
    fn paired_reads_use_both_mates() {
        let (db, genome_a, _) = two_species_database();
        let classifier = Classifier::new(&db);
        let r1 = genome_a[3_000..3_101].to_vec();
        let r2 = mc_kmer::reverse_complement(&genome_a[3_300..3_401]);
        let paired = SequenceRecord::new("p/1", r1).with_mate(SequenceRecord::new("p/2", r2));
        let single_hits = classifier
            .candidates(&SequenceRecord::new("s", genome_a[3_000..3_101].to_vec()))
            .best()
            .unwrap()
            .hits;
        let c = classifier.candidates(&paired);
        assert_eq!(classify_candidates(&db, &db.config, &c).taxon, 100);
        assert!(
            c.best().unwrap().hits > single_hits,
            "paired read should accumulate more hits than a single mate"
        );
    }
}
