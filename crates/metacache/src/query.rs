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
//!    — order the locations, count hits per window, scan for the top
//!    candidates.
//!
//! [`QueryScratch::candidates_with`] chains them and is the body of
//! [`Classifier::candidates_with`]. There is one classifier: the index is a
//! type parameter bound, never a trait object, so the probe is monomorphised
//! and inlined and the unsharded loop compiles as if written by hand. This
//! is the paper's multi-GPU query shape (§5.4–5.6): a database *is* its
//! parts — sketch once, let every part answer the same features, sort and
//! scan once.
//!
//! # The zero-allocation hot path
//!
//! Mirroring the paper's device pipeline — which keeps hashes in warp
//! registers and compacts location lists in pre-allocated device buffers
//! (§5.2–§5.5) — the host path performs no steady-state heap allocation:
//!
//! * every per-read buffer (sketch hash buffers, flat feature list, gathered
//!   locations, merge buffer, window count statistic, candidate list) lives
//!   in a reusable [`QueryScratch`];
//! * [`Classifier::classify_batch`] threads one scratch per worker through
//!   `rayon`'s `map_init`, so a batch of millions of reads allocates a
//!   handful of scratches total;
//! * the gathered location list is a concatenation of per-bucket sorted runs
//!   (buckets store locations in insertion order, which is ascending
//!   `(target, window)` during the sequential build), so instead of a global
//!   `sort_unstable` the hot path detects the natural runs in one O(n) scan
//!   and merges them bottom-up in the scratch's ping-pong buffer — O(n log r)
//!   for `r` runs, and a plain pass-through when the list is already sorted.
//!   Lists with more than `MAX_MERGE_RUNS` runs (heavily fragmented location
//!   lists of repetitive references) fall back to an LSD radix sort over the
//!   packed `(target, window)` keys in the same ping-pong buffer — the CPU
//!   analogue of the paper's segmented device sort (§5.5), O(n) per varying
//!   key byte instead of O(n log n) comparisons.
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

use crate::candidate::{accumulate_locations_into, top_candidates_into, CandidateList};
use crate::classify::{classify_candidates, Classification};
use crate::config::MetaCacheConfig;
use crate::database::Database;
use crate::sketch::{SketchScratch, Sketcher};

/// Location lists with more natural runs than this are radix-sorted instead
/// of merged (each merge pass costs one full copy over the list; beyond ~64
/// runs the fixed number of radix passes wins).
const MAX_MERGE_RUNS: usize = 64;

/// What a classifier queries: a feature → location index together with the
/// metadata its answers are decided against. The one seam between a whole
/// and a sharded database — everything before the probe (sketching) and
/// after it (sort, count, scan, LCA) is the same code on the same data.
pub trait FeatureIndex {
    /// The label a host backend over this index announces
    /// ([`Backend::name`][crate::backend::Backend::name], and through it the
    /// `backend` field of the wire handshake).
    const BACKEND_NAME: &'static str;

    /// The database to decide against: config, targets, taxonomy, lineages.
    /// Its own tables need not be the ones [`Self::locations_into`] reads.
    fn metadata(&self) -> &Database;

    /// Append the locations of every feature to `locations`, in any order
    /// ([`QueryScratch::accumulate`] sorts).
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
    /// Ping-pong buffer for the natural-run merge.
    merge_buf: Vec<Location>,
    /// Natural-run boundaries detected in `locations`.
    run_bounds: Vec<usize>,
    /// The sparse window count statistic.
    counts: Vec<(Location, u32)>,
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

    /// Stage 3 — order the gathered locations (merge the per-bucket sorted
    /// runs, radix-sort when they are too fragmented), accumulate them into
    /// the window count statistic and scan it for the top candidates of a
    /// read of `read_len` bases.
    #[inline]
    pub fn accumulate(&mut self, config: &MetaCacheConfig, read_len: usize) -> &CandidateList {
        sort_location_runs(
            &mut self.locations,
            &mut self.merge_buf,
            &mut self.run_bounds,
        );
        accumulate_locations_into(&self.locations, &mut self.counts);
        self.candidates.reset(config.top_candidates);
        top_candidates_into(
            &self.counts,
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

/// Sort `locations` by packed `(target, window)` key using its natural sorted
/// runs: detect run boundaries in one scan, then merge adjacent runs
/// bottom-up, ping-ponging between `locations` and `buf`. Falls back to an
/// LSD radix sort in the same ping-pong buffer when more than
/// [`MAX_MERGE_RUNS`] runs are found.
///
/// `buf` and `bounds` are caller-owned so repeated calls reuse their
/// allocations.
pub(crate) fn sort_location_runs(
    locations: &mut [Location],
    buf: &mut Vec<Location>,
    bounds: &mut Vec<usize>,
) {
    bounds.clear();
    if locations.len() < 2 {
        return;
    }
    bounds.push(0);
    for i in 1..locations.len() {
        if locations[i].pack() < locations[i - 1].pack() {
            bounds.push(i);
        }
    }
    bounds.push(locations.len());
    if bounds.len() == 2 {
        return; // already sorted — the common case for single-window reads
    }
    if bounds.len() - 1 > MAX_MERGE_RUNS {
        radix_sort_locations(locations, buf);
        return;
    }

    // Size the ping-pong buffer without clearing first: every merge pass
    // overwrites all `n` slots, so stale contents never leak, and skipping
    // the clear avoids re-filling the whole buffer on every call.
    buf.resize(locations.len(), Location::new(0, 0));
    let mut in_main = true;
    while bounds.len() > 2 {
        if in_main {
            merge_pass(locations, buf, bounds);
        } else {
            merge_pass(buf, locations, bounds);
        }
        in_main = !in_main;
    }
    if !in_main {
        locations.copy_from_slice(buf);
    }
}

/// LSD radix sort of `locations` by packed `(target, window)` key,
/// ping-ponging between `locations` and the caller's scratch `buf` — the
/// fragmented-list fallback of [`sort_location_runs`] and the CPU analogue
/// of the paper's segmented device sort (§5.5).
///
/// One counting pass per *varying* key byte (a pre-scan XORs every key
/// against the first, so lists whose locations share the high target bytes —
/// the common case — run in two or three passes instead of eight). Each pass
/// is a stable counting sort, so processing bytes least-significant first
/// yields a total order over the full 64-bit key.
pub(crate) fn radix_sort_locations(locations: &mut [Location], buf: &mut Vec<Location>) {
    if locations.len() < 2 {
        return;
    }
    // Like the merge path: every executed pass overwrites all `n` slots of
    // the destination, so the buffer is resized without clearing.
    buf.resize(locations.len(), Location::new(0, 0));
    let first = locations[0].pack();
    let mut varying = 0u64;
    for l in locations.iter() {
        varying |= l.pack() ^ first;
    }
    let mut in_main = true;
    for shift in (0..64).step_by(8) {
        if (varying >> shift) & 0xFF == 0 {
            continue; // all keys share this byte — the pass is the identity
        }
        if in_main {
            radix_pass(locations, buf, shift);
        } else {
            radix_pass(buf, locations, shift);
        }
        in_main = !in_main;
    }
    if !in_main {
        locations.copy_from_slice(buf);
    }
}

/// One stable counting-sort pass of the LSD radix sort: scatter `src` into
/// `dst` ordered by the key byte at `shift`.
fn radix_pass(src: &[Location], dst: &mut [Location], shift: usize) {
    let mut counts = [0usize; 256];
    for l in src {
        counts[((l.pack() >> shift) & 0xFF) as usize] += 1;
    }
    let mut offset = 0usize;
    for c in counts.iter_mut() {
        let n = *c;
        *c = offset;
        offset += n;
    }
    for l in src {
        let d = ((l.pack() >> shift) & 0xFF) as usize;
        dst[counts[d]] = *l;
        counts[d] += 1;
    }
}

/// One bottom-up merge pass: adjacent run pairs of `src` are merged into
/// `dst` and `bounds` is compacted to the surviving boundaries.
fn merge_pass(src: &[Location], dst: &mut [Location], bounds: &mut Vec<usize>) {
    let mut write = 0usize;
    let mut pair = 0usize;
    let mut kept = 1usize; // bounds[0] == 0 stays
    while pair + 2 < bounds.len() {
        let (a, b, c) = (bounds[pair], bounds[pair + 1], bounds[pair + 2]);
        let (mut i, mut j) = (a, b);
        while i < b && j < c {
            if src[j].pack() < src[i].pack() {
                dst[write] = src[j];
                j += 1;
            } else {
                dst[write] = src[i];
                i += 1;
            }
            write += 1;
        }
        while i < b {
            dst[write] = src[i];
            i += 1;
            write += 1;
        }
        while j < c {
            dst[write] = src[j];
            j += 1;
            write += 1;
        }
        bounds[kept] = c;
        kept += 1;
        pair += 2;
    }
    if pair + 2 == bounds.len() {
        // Odd run count: the last run passes through unchanged.
        let (a, b) = (bounds[pair], bounds[pair + 1]);
        dst[write..write + (b - a)].copy_from_slice(&src[a..b]);
        bounds[kept] = b;
        kept += 1;
    }
    bounds.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::CpuBuilder;
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

    fn pack_locs(pairs: &[(u32, u32)]) -> Vec<Location> {
        pairs.iter().map(|&(t, w)| Location::new(t, w)).collect()
    }

    fn assert_run_sort(input: Vec<Location>) {
        let mut expected = input.clone();
        expected.sort_unstable_by_key(|l| l.pack());
        let mut got = input;
        let mut buf = Vec::new();
        let mut bounds = Vec::new();
        sort_location_runs(&mut got, &mut buf, &mut bounds);
        assert_eq!(got, expected);
    }

    #[test]
    fn run_merge_sorts_arbitrary_run_shapes() {
        // Already sorted.
        assert_run_sort(pack_locs(&[(0, 1), (0, 2), (1, 0), (2, 5)]));
        // Two runs.
        assert_run_sort(pack_locs(&[(1, 0), (1, 5), (0, 0), (0, 9)]));
        // Odd number of runs, with duplicates across runs.
        assert_run_sort(pack_locs(&[(3, 1), (3, 2), (1, 1), (2, 2), (0, 0), (3, 1)]));
        // Empty and singleton.
        assert_run_sort(Vec::new());
        assert_run_sort(pack_locs(&[(7, 7)]));
        // Fully descending (n runs of length 1 — exercises the fallback
        // threshold boundary both below and above MAX_MERGE_RUNS).
        for n in [MAX_MERGE_RUNS - 1, MAX_MERGE_RUNS + 5, 300] {
            let desc: Vec<Location> = (0..n).map(|i| Location::new((n - i) as u32, 0)).collect();
            assert_run_sort(desc);
        }
    }

    #[test]
    fn radix_fallback_matches_global_sort_on_fragmented_lists() {
        // Wide keys (large targets and windows, so all eight key bytes can
        // vary) across many short runs — the shape that triggers the radix
        // fallback in sort_location_runs.
        let mut state = 0xDEAD_BEEFu64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 31) % bound
        };
        for n in [65usize, 200, 1000, 4096] {
            let locs: Vec<Location> = (0..n)
                .map(|_| Location::new(next(u32::MAX as u64) as u32, next(u32::MAX as u64) as u32))
                .collect();
            assert_run_sort(locs);
        }
        // Keys sharing their high bytes (small targets): most radix passes
        // are skipped by the varying-byte pre-scan.
        let locs: Vec<Location> = (0..500)
            .map(|_| Location::new(next(3) as u32, next(100) as u32))
            .collect();
        assert_run_sort(locs);
        // All-equal keys: zero varying bytes, zero passes.
        let mut equal = vec![Location::new(42, 7); 100];
        equal.push(Location::new(42, 6)); // two runs, still one distinct pass shape
        assert_run_sort(equal);
    }

    #[test]
    fn radix_sort_direct_invocation() {
        let mut state = 1u64;
        let mut locs: Vec<Location> = (0..777)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Location::new((state >> 32) as u32, state as u32)
            })
            .collect();
        let mut expected = locs.clone();
        expected.sort_unstable_by_key(|l| l.pack());
        let mut buf = Vec::new();
        radix_sort_locations(&mut locs, &mut buf);
        assert_eq!(locs, expected);
        // Odd number of executed passes leaves the result in `locations` too.
        let mut one_byte: Vec<Location> = (0..300)
            .map(|i| Location::new(0, (300 - i) % 256))
            .collect();
        let mut expected = one_byte.clone();
        expected.sort_unstable_by_key(|l| l.pack());
        radix_sort_locations(&mut one_byte, &mut buf);
        assert_eq!(one_byte, expected);
    }

    #[test]
    fn run_merge_matches_global_sort_on_random_inputs() {
        let mut state = 0x1234_5678u64;
        for case in 0..200 {
            let len = (case % 37) * 7;
            let locs: Vec<Location> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    Location::new((state >> 33) as u32 % 8, (state >> 20) as u32 % 16)
                })
                .collect();
            assert_run_sort(locs);
        }
    }
}
