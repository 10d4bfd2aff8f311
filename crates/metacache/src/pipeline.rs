//! High-level pipelines: the single-stream front of the streaming query
//! pipeline, plus the separate build/query runs vs the on-the-fly mode.
//!
//! # The streaming query pipeline
//!
//! The paper's headline throughput comes from *pipelining*: reads stream from
//! disk through parsing, sketching and table lookup without the whole input
//! ever being materialised (§5, Figure 2). The crate has one implementation
//! of that architecture — the resident [`ServingEngine`] (bounded fair
//! queue, long-lived worker pool, per-session credits and reorder buffer;
//! see [`crate::serving`] for the stage diagram). [`StreamingClassifier`] is
//! its one-stream-at-a-time front: it owns an engine and runs every call as
//! one [`crate::serving::Session`] on it, the caller's thread parsing and
//! assembling batches while the pool classifies.
//!
//! The session's three properties are therefore the streaming pipeline's:
//! results are bit-identical to
//! [`Classifier::classify_batch`][crate::query::Classifier::classify_batch]
//! on the same records, they reach the sink in exact input order, and a
//! credit scheme caps the batches alive anywhere in the pipeline (queue +
//! workers + reorder buffer) at `queue_capacity + workers`, so memory is
//! O(`batch_records` × (`queue_capacity` + `workers`)) regardless of input
//! size (property-tested in `tests/streaming.rs`).
//!
//! # W+L vs OTF
//!
//! The paper's Table 5 and Figure 4 compare two ways of getting from raw
//! reference genomes to classified reads:
//!
//! * **W+L (write + load)**: build the database, write it to the file system,
//!   load it back (into the condensed layout) and then query — the
//!   traditional index-based workflow.
//! * **OTF (on the fly)**: query the in-memory hash table directly after
//!   building, skipping the write and load phases entirely. The paper notes
//!   the build-time table queries about 20% slower than the condensed layout,
//!   but the saved I/O makes the time-to-query dramatically shorter.
//!
//! The runners here execute both workflows end to end on the simulated
//! multi-GPU system, returning per-phase simulated times plus the actual
//! classifications.

use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

use mc_gpu_sim::{MultiGpuSystem, SimDuration};
use mc_seqio::SequenceRecord;
use mc_taxonomy::{TaxonId, Taxonomy};

use crate::backend::HostBackend;
use crate::build::{estimate_locations, GpuBuilder};
use crate::classify::Classification;
use crate::config::MetaCacheConfig;
use crate::database::Database;
use crate::error::MetaCacheError;
use crate::gpu::GpuClassifier;
use crate::serialize;
use crate::serving::{EngineConfig, ServingEngine};

/// Counters reported by a completed streaming run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamingSummary {
    /// Records classified and emitted to the sink.
    pub records: u64,
    /// Batches that flowed through the pipeline.
    pub batches: u64,
    /// Sequence bases consumed (both mates of paired reads).
    pub bases: u64,
    /// High-water mark of the engine's shared submission queue. The gauge is
    /// engine-wide and engine-lifetime — it covers every session the engine
    /// has served, not just this run — and is bounded by the engine's
    /// `queue_capacity`.
    pub peak_queue_batches: u64,
    /// High-water mark of this run's batches alive anywhere in the pipeline
    /// (bounded by [`EngineConfig::effective_session_in_flight`]).
    pub peak_resident_batches: u64,
}

/// Streaming classification: parse → bounded batch queue → parallel
/// classification → in-order emission, overlapping all stages across threads.
///
/// A front over a resident [`ServingEngine`]: the worker pool is spawned
/// once, at construction, and every `classify_*` call runs as one session on
/// it — so calls may come from several threads at once, and a call that
/// unwinds (a panicking sink) leaves the classifier ready for the next.
/// Produces classifications bit-identical to
/// [`Classifier::classify_batch`][crate::query::Classifier::classify_batch]
/// on the same record sequence while holding at most
/// [`EngineConfig::effective_session_in_flight`] batches in memory, so
/// inputs of any size stream through in O(`batch_records` ×
/// (`queue_capacity` + `workers`)) space.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use metacache::{MetaCacheConfig, build::CpuBuilder};
/// use metacache::pipeline::StreamingClassifier;
/// use mc_seqio::SequenceRecord;
/// use mc_taxonomy::{Rank, Taxonomy};
///
/// // Build a one-species database from a pseudo-random genome.
/// let mut taxonomy = Taxonomy::with_root();
/// taxonomy.add_node(100, 1, Rank::Species, "Species A").unwrap();
/// let mut state = 7u64;
/// let genome: Vec<u8> = (0..8000)
///     .map(|_| {
///         state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
///         b"ACGT"[(state >> 33) as usize % 4]
///     })
///     .collect();
/// let mut builder = CpuBuilder::new(MetaCacheConfig::default(), taxonomy);
/// builder.add_target(SequenceRecord::new("refA", genome.clone()), 100).unwrap();
/// let db = Arc::new(builder.finish());
///
/// // Stream reads drawn from the genome through the pipeline.
/// let streaming = StreamingClassifier::new(db);
/// let reads = (0..40).map(|i| {
///     SequenceRecord::new(format!("r{i}"), genome[i * 50..i * 50 + 150].to_vec())
/// });
/// let (classifications, summary) = streaming.classify_iter(reads);
/// assert_eq!(classifications.len(), 40);
/// assert!(classifications.iter().all(|c| c.taxon == 100));
/// assert_eq!(summary.records, 40);
/// ```
pub struct StreamingClassifier {
    engine: ServingEngine,
}

impl StreamingClassifier {
    /// Create a host-path streaming classifier with the default pipeline
    /// shape. The worker pool outlives the caller's stack frame, so `db` is
    /// an owning or `'static` handle (`Arc<Database>`, `&'static Database`).
    pub fn new<D>(db: D) -> Self
    where
        D: Deref<Target = Database> + Clone + Send + Sync + 'static,
    {
        Self::with_config(db, EngineConfig::default())
    }

    /// Create a host-path streaming classifier with an explicit pipeline
    /// shape.
    pub fn with_config<D>(db: D, config: EngineConfig) -> Self
    where
        D: Deref<Target = Database> + Clone + Send + Sync + 'static,
    {
        Self {
            engine: ServingEngine::new(HostBackend::new(db), config),
        }
    }

    /// The engine every call opens its session on.
    pub fn engine(&self) -> &ServingEngine {
        &self.engine
    }

    /// The (normalised) pipeline shape.
    pub fn config(&self) -> &EngineConfig {
        self.engine.config()
    }

    /// Stream a fallible record source through the pipeline, calling `sink`
    /// with `(record_index, record, classification)` in exact input order.
    ///
    /// The source iterator runs on the calling thread, overlapping parsing
    /// with the pool's classification. On a source error the pipeline drains
    /// what was already submitted (those records still reach the sink) and
    /// then returns the error.
    pub fn classify_stream<I, E, F>(
        &self,
        records: I,
        sink: F,
    ) -> std::result::Result<StreamingSummary, E>
    where
        I: IntoIterator<Item = std::result::Result<SequenceRecord, E>>,
        F: FnMut(u64, &SequenceRecord, &Classification),
    {
        self.engine.session().classify_stream(records, sink)
    }

    /// Stream an infallible record source and collect the classifications in
    /// input order. Convenience form of [`Self::classify_stream`].
    pub fn classify_iter<I>(&self, records: I) -> (Vec<Classification>, StreamingSummary)
    where
        I: IntoIterator<Item = SequenceRecord>,
    {
        self.engine.session().classify_iter(records)
    }

    /// Stream a FASTA/FASTQ file (auto-detected) from disk through the
    /// pipeline without materialising it, collecting the classifications in
    /// file order.
    pub fn classify_file(
        &self,
        path: impl AsRef<Path>,
    ) -> crate::Result<(Vec<Classification>, StreamingSummary)> {
        self.engine.session().classify_file(path)
    }
}

/// Throughput model of the file system holding the database files.
///
/// The paper loads everything from a RAM drive; writing the 88–176 GB GPU
/// databases still dominates the build phase of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Sequential write bandwidth in bytes/second.
    pub write_bandwidth: f64,
    /// Sequential read bandwidth in bytes/second.
    pub read_bandwidth: f64,
}

impl Default for DiskModel {
    fn default() -> Self {
        Self {
            write_bandwidth: 1.8e9,
            read_bandwidth: 2.2e9,
        }
    }
}

impl DiskModel {
    /// Time to write `bytes` to the file system.
    pub fn write_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.write_bandwidth)
    }

    /// Time to read `bytes` from the file system.
    pub fn read_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.read_bandwidth)
    }
}

/// Simulated duration of each phase of a pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Database construction (device makespan).
    pub build: SimDuration,
    /// Writing the database files ([`SimDuration::ZERO`] in OTF mode).
    pub write: SimDuration,
    /// Loading the database files ([`SimDuration::ZERO`] in OTF mode).
    pub load: SimDuration,
    /// Query execution.
    pub query: SimDuration,
}

impl PhaseTimes {
    /// Time until the first query can be executed (Table 5's TTQ column):
    /// build + write + load.
    pub fn time_to_query(&self) -> SimDuration {
        self.build + self.write + self.load
    }

    /// Total end-to-end time.
    pub fn total(&self) -> SimDuration {
        self.time_to_query() + self.query
    }
}

/// The result of an end-to-end pipeline run. The database is returned behind
/// an [`Arc`] so callers can hand it straight to serving components
/// ([`crate::serving::ServingEngine`], backends) without a copy.
pub struct PipelineReport {
    /// The constructed (or reloaded) database.
    pub database: Arc<Database>,
    /// Per-phase simulated times.
    pub phases: PhaseTimes,
    /// Classifications of the query reads.
    pub classifications: Vec<Classification>,
    /// Serialized database size in bytes (0 in OTF mode).
    pub db_file_bytes: u64,
}

/// Build on the simulated devices and query **on the fly** (no disk I/O).
pub fn run_on_the_fly(
    config: MetaCacheConfig,
    taxonomy: Taxonomy,
    references: &[(SequenceRecord, TaxonId)],
    reads: &[SequenceRecord],
    system: &MultiGpuSystem,
) -> Result<PipelineReport, MetaCacheError> {
    system.reset_clocks();
    let records: Vec<SequenceRecord> = references.iter().map(|(r, _)| r.clone()).collect();
    let expected = estimate_locations(&config, &records) / system.device_count().max(1) + 1024;
    let mut builder = GpuBuilder::new(config, taxonomy, system, expected)?;
    for (record, taxon) in references {
        builder.add_target(record.clone(), *taxon)?;
    }
    let build_time = system.makespan();
    let database = Arc::new(builder.finish());

    system.reset_clocks();
    let classifier = GpuClassifier::new(Arc::clone(&database), system);
    let (classifications, _) = classifier.classify_all(reads);
    // Models the §6.3 device table, which is not compacted, so OTF queries of
    // it run ~20% slower than of the condensed layout (the host copy is packed).
    let query_time = SimDuration::from_nanos((system.makespan().as_nanos() as f64 * 1.25) as u64);

    Ok(PipelineReport {
        database,
        phases: PhaseTimes {
            build: build_time,
            write: SimDuration::ZERO,
            load: SimDuration::ZERO,
            query: query_time,
        },
        classifications,
        db_file_bytes: 0,
    })
}

/// Build, write the database to `dir`, load it back (condensed layout) and
/// query — the traditional W+L workflow.
#[allow(clippy::too_many_arguments)] // mirrors the phases of the W+L workflow
pub fn run_write_load_query(
    config: MetaCacheConfig,
    taxonomy: Taxonomy,
    references: &[(SequenceRecord, TaxonId)],
    reads: &[SequenceRecord],
    system: &MultiGpuSystem,
    disk: DiskModel,
    dir: impl AsRef<std::path::Path>,
    name: &str,
) -> Result<PipelineReport, MetaCacheError> {
    system.reset_clocks();
    let records: Vec<SequenceRecord> = references.iter().map(|(r, _)| r.clone()).collect();
    let expected = estimate_locations(&config, &records) / system.device_count().max(1) + 1024;
    let mut builder = GpuBuilder::new(config, taxonomy, system, expected)?;
    for (record, taxon) in references {
        builder.add_target(record.clone(), *taxon)?;
    }
    let build_time = system.makespan();
    let database = builder.finish();

    // Write phase: serialize to disk; the simulated write time is derived
    // from the written byte count through the disk model.
    let report = serialize::save(&database, &dir, name)?;
    let write_time = disk.write_time(report.total_bytes);

    // Load phase: read the files back into the condensed layout.
    let loaded = serialize::load(&dir, name)?;
    let load_time = disk.read_time(report.total_bytes);

    // Query phase against the condensed database.
    system.reset_clocks();
    let classifier = GpuClassifier::new(Arc::clone(&loaded), system);
    let (classifications, _) = classifier.classify_all(reads);
    let query_time = system.makespan();

    Ok(PipelineReport {
        database: loaded,
        phases: PhaseTimes {
            build: build_time,
            write: write_time,
            load: load_time,
            query: query_time,
        },
        classifications,
        db_file_bytes: report.total_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Classifier;
    use mc_taxonomy::Rank;

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

    fn setup() -> (
        Taxonomy,
        Vec<(SequenceRecord, TaxonId)>,
        Vec<SequenceRecord>,
    ) {
        let mut taxonomy = Taxonomy::with_root();
        taxonomy.add_node(10, 1, Rank::Genus, "G").unwrap();
        taxonomy.add_node(100, 10, Rank::Species, "a").unwrap();
        taxonomy.add_node(101, 10, Rank::Species, "b").unwrap();
        let genome_a = make_seq(10_000, 1);
        let genome_b = make_seq(10_000, 2);
        let reads: Vec<SequenceRecord> = (0..20)
            .map(|i| {
                let (g, o) = if i % 2 == 0 {
                    (&genome_a, 100 + i * 61)
                } else {
                    (&genome_b, 300 + i * 83)
                };
                SequenceRecord::new(format!("r{i}"), g[o..o + 110].to_vec())
            })
            .collect();
        let references = vec![
            (SequenceRecord::new("a", genome_a), 100),
            (SequenceRecord::new("b", genome_b), 101),
        ];
        (taxonomy, references, reads)
    }

    #[test]
    fn otf_skips_disk_phases_and_wl_does_not() {
        let (taxonomy, references, reads) = setup();
        let system = MultiGpuSystem::dgx1(2);
        let otf = run_on_the_fly(
            MetaCacheConfig::for_tests(),
            taxonomy.clone(),
            &references,
            &reads,
            &system,
        )
        .unwrap();
        assert_eq!(otf.phases.write, SimDuration::ZERO);
        assert_eq!(otf.phases.load, SimDuration::ZERO);
        assert!(otf.phases.build > SimDuration::ZERO);
        assert!(otf.phases.query > SimDuration::ZERO);
        assert_eq!(otf.db_file_bytes, 0);

        let dir = std::env::temp_dir().join("metacache_pipeline_test");
        let wl = run_write_load_query(
            MetaCacheConfig::for_tests(),
            taxonomy,
            &references,
            &reads,
            &system,
            DiskModel::default(),
            &dir,
            "wl",
        )
        .unwrap();
        assert!(wl.phases.write > SimDuration::ZERO);
        assert!(wl.phases.load > SimDuration::ZERO);
        assert!(wl.db_file_bytes > 0);
        // The core claim of Table 5: OTF time-to-query is strictly shorter.
        assert!(otf.phases.time_to_query() < wl.phases.time_to_query());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn otf_and_wl_classifications_agree() {
        let (taxonomy, references, reads) = setup();
        let system = MultiGpuSystem::dgx1(2);
        let otf = run_on_the_fly(
            MetaCacheConfig::for_tests(),
            taxonomy.clone(),
            &references,
            &reads,
            &system,
        )
        .unwrap();
        let dir = std::env::temp_dir().join("metacache_pipeline_agree");
        let wl = run_write_load_query(
            MetaCacheConfig::for_tests(),
            taxonomy,
            &references,
            &reads,
            &system,
            DiskModel::default(),
            &dir,
            "wl",
        )
        .unwrap();
        assert_eq!(otf.classifications, wl.classifications);
        let correct = otf
            .classifications
            .iter()
            .enumerate()
            .filter(|(i, c)| c.taxon == if i % 2 == 0 { 100 } else { 101 })
            .count();
        assert!(correct >= 18, "only {correct}/20 classified correctly");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn streaming_db() -> (Arc<Database>, Vec<SequenceRecord>) {
        use crate::build::CpuBuilder;
        let (taxonomy, references, _) = setup();
        let mut builder = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy);
        for (record, taxon) in &references {
            builder.add_target(record.clone(), *taxon).unwrap();
        }
        let db = Arc::new(builder.finish());
        let reads: Vec<SequenceRecord> = (0..50)
            .map(|i| {
                let genome = &references[i % 2].0.sequence;
                let offset = 100 + i * 53;
                SequenceRecord::new(format!("r{i}"), genome[offset..offset + 120].to_vec())
            })
            .collect();
        (db, reads)
    }

    #[test]
    fn streaming_matches_materialised_batch() {
        let (db, reads) = streaming_db();
        let materialised = Classifier::new(Arc::clone(&db)).classify_batch(&reads);
        for (batch_records, workers) in [(1, 1), (3, 2), (7, 4), (64, 2), (200, 3)] {
            let streaming = StreamingClassifier::with_config(
                Arc::clone(&db),
                EngineConfig {
                    batch_records,
                    queue_capacity: 2,
                    workers,
                    ..EngineConfig::default()
                },
            );
            let (streamed, summary) = streaming.classify_iter(reads.iter().cloned());
            assert_eq!(
                streamed, materialised,
                "batch_records={batch_records} workers={workers}"
            );
            assert_eq!(summary.records, reads.len() as u64);
            assert_eq!(
                summary.batches,
                (reads.len() as u64).div_ceil(batch_records as u64)
            );
        }
    }

    #[test]
    fn streaming_sink_sees_records_in_input_order() {
        let (db, reads) = streaming_db();
        let streaming = StreamingClassifier::with_config(
            db,
            EngineConfig {
                batch_records: 4,
                queue_capacity: 2,
                workers: 4,
                ..EngineConfig::default()
            },
        );
        let mut seen = Vec::new();
        let summary = streaming
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
    fn streaming_respects_in_flight_bounds() {
        let (db, reads) = streaming_db();
        let config = EngineConfig {
            batch_records: 2,
            queue_capacity: 2,
            workers: 2,
            ..EngineConfig::default()
        };
        let streaming = StreamingClassifier::with_config(db, config);
        let (_, summary) = streaming.classify_iter(reads.iter().cloned());
        assert!(
            summary.peak_queue_batches <= config.queue_capacity as u64,
            "queue peak {} exceeds capacity {}",
            summary.peak_queue_batches,
            config.queue_capacity
        );
        assert!(
            summary.peak_resident_batches <= config.effective_session_in_flight() as u64,
            "resident peak {} exceeds credit total {}",
            summary.peak_resident_batches,
            config.effective_session_in_flight()
        );
    }

    #[test]
    fn streaming_source_error_drains_prefix_and_propagates() {
        let (db, reads) = streaming_db();
        let streaming = StreamingClassifier::with_config(
            db,
            EngineConfig {
                batch_records: 3,
                queue_capacity: 2,
                workers: 2,
                ..EngineConfig::default()
            },
        );
        let mut emitted = 0u64;
        let source =
            reads.iter().cloned().enumerate().map(
                |(i, r)| {
                    if i < 10 {
                        Ok(r)
                    } else {
                        Err("boom")
                    }
                },
            );
        let err = streaming
            .classify_stream(source, |_, _, _| emitted += 1)
            .unwrap_err();
        assert_eq!(err, "boom");
        // Every record parsed before the error — including the partial final
        // batch — was still classified and emitted.
        assert_eq!(emitted, 10, "records before the error are drained");
    }

    #[test]
    fn sink_panic_propagates_instead_of_deadlocking() {
        // More batches than the in-flight bound, so the panic unwinds
        // through a session with batches queued, on a worker and in the
        // reorder buffer; its drop must purge them, not hang on them.
        let (db, reads) = streaming_db();
        let streaming = StreamingClassifier::with_config(
            db,
            EngineConfig {
                batch_records: 1,
                queue_capacity: 1,
                workers: 1,
                ..EngineConfig::default()
            },
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            streaming.classify_stream(
                reads.iter().cloned().map(Ok::<_, std::convert::Infallible>),
                |index, _, _| {
                    if index == 5 {
                        panic!("sink failure");
                    }
                },
            )
        }));
        assert!(result.is_err(), "sink panic must propagate to the caller");
    }

    #[test]
    fn streaming_empty_input() {
        let (db, _) = streaming_db();
        let streaming = StreamingClassifier::new(db);
        let (out, summary) = streaming.classify_iter(std::iter::empty());
        assert!(out.is_empty());
        assert_eq!(summary, StreamingSummary::default());
    }

    #[test]
    fn phase_times_arithmetic() {
        let phases = PhaseTimes {
            build: SimDuration::from_secs_f64(10.0),
            write: SimDuration::from_secs_f64(50.0),
            load: SimDuration::from_secs_f64(40.0),
            query: SimDuration::from_secs_f64(5.0),
        };
        assert!((phases.time_to_query().as_secs_f64() - 100.0).abs() < 1e-9);
        assert!((phases.total().as_secs_f64() - 105.0).abs() < 1e-9);
    }

    #[test]
    fn disk_model_times_scale_with_bytes() {
        let disk = DiskModel::default();
        assert!(disk.write_time(10_000_000_000) > disk.write_time(1_000_000_000));
        assert!(disk.read_time(0) == SimDuration::ZERO);
    }
}
