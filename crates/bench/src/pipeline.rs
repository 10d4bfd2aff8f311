//! The two end-to-end workflows of Table 5 and Figure 4: W+L against OTF.
//!
//! The paper compares two ways of getting from raw reference genomes to
//! classified reads:
//!
//! * **W+L (write + load)**: build the database, write it to the file system,
//!   load it back (into the condensed layout) and then query — the
//!   traditional index-based workflow.
//! * **OTF (on the fly)**: query the in-memory hash table directly after
//!   building, skipping the write and load phases entirely. The paper notes
//!   the build-time table queries about 20% slower than the condensed layout,
//!   but the saved I/O makes the time-to-query dramatically shorter.
//!
//! [`run_write_load_query`] and [`run_on_the_fly`] execute both workflows end
//! to end on the simulated multi-GPU system, returning per-phase simulated
//! times plus the actual classifications. Both build through one helper, so
//! their databases are the same.

use std::path::Path;
use std::sync::Arc;

use mc_gpu_sim::{MultiGpuSystem, SimDuration};
use mc_seqio::SequenceRecord;
use mc_taxonomy::{TaxonId, Taxonomy};
use metacache::build::{estimate_locations, GpuBuilder};
use metacache::gpu::GpuClassifier;
use metacache::{serialize, Classification, Database, MetaCacheConfig, MetaCacheError};

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

/// The result of an end-to-end pipeline run.
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
    let (database, build) = gpu_build(config, taxonomy, references, system)?;
    let database = Arc::new(database);
    let (classifications, query) = gpu_query(&database, reads, system);
    // Models the §6.3 device table, which is not compacted, so OTF queries of
    // it run ~20% slower than of the condensed layout (the host copy is packed).
    let query = SimDuration::from_nanos((query.as_nanos() as f64 * 1.25) as u64);

    Ok(PipelineReport {
        database,
        phases: PhaseTimes {
            build,
            write: SimDuration::ZERO,
            load: SimDuration::ZERO,
            query,
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
    dir: impl AsRef<Path>,
    name: &str,
) -> Result<PipelineReport, MetaCacheError> {
    let (database, build) = gpu_build(config, taxonomy, references, system)?;

    // Write phase: serialize to disk; the simulated write time is derived
    // from the written byte count through the disk model.
    let report = serialize::save(&database, &dir, name)?;
    let write = disk.write_time(report.total_bytes);

    // Load phase: read the files back into the condensed layout.
    let loaded = serialize::load(&dir, name)?;
    let load = disk.read_time(report.total_bytes);

    let (classifications, query) = gpu_query(&loaded, reads, system);

    Ok(PipelineReport {
        database: loaded,
        phases: PhaseTimes {
            build,
            write,
            load,
            query,
        },
        classifications,
        db_file_bytes: report.total_bytes,
    })
}

/// Build `references` on the devices of `system`, its clocks reset first,
/// returning the database and the build's simulated time (the makespan).
fn gpu_build(
    config: MetaCacheConfig,
    taxonomy: Taxonomy,
    references: &[(SequenceRecord, TaxonId)],
    system: &MultiGpuSystem,
) -> Result<(Database, SimDuration), MetaCacheError> {
    system.reset_clocks();
    let lengths = references.iter().map(|(record, _)| record.sequence.len());
    let expected = estimate_locations(&config, lengths)? / system.device_count().max(1) + 1024;
    let mut builder = GpuBuilder::new(config, taxonomy, system, expected)?;
    for (record, taxon) in references {
        builder.add_target(record, *taxon)?;
    }
    let build_time = system.makespan();
    Ok((builder.finish(), build_time))
}

/// Classify `reads` on `system` from reset clocks, returning the
/// classifications and the query's simulated time (the makespan).
fn gpu_query(
    database: &Arc<Database>,
    reads: &[SequenceRecord],
    system: &MultiGpuSystem,
) -> (Vec<Classification>, SimDuration) {
    system.reset_clocks();
    let (classifications, _) = GpuClassifier::new(Arc::clone(database), system).classify_all(reads);
    (classifications, system.makespan())
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn runners_return_the_builders_config_error() {
        let (taxonomy, references, reads) = setup();
        let system = MultiGpuSystem::dgx1(2);
        let invalid = MetaCacheConfig {
            sketch_size: 0,
            ..MetaCacheConfig::for_tests()
        };
        // The first call of the build, `estimate_locations`, refuses it as
        // `GpuBuilder::new` does.
        assert!(matches!(
            run_on_the_fly(invalid, taxonomy.clone(), &references, &reads, &system),
            Err(MetaCacheError::Config(_))
        ));
        let dir = std::env::temp_dir().join("metacache_pipeline_invalid");
        assert!(matches!(
            run_write_load_query(
                invalid,
                taxonomy,
                &references,
                &reads,
                &system,
                DiskModel::default(),
                &dir,
                "wl",
            ),
            Err(MetaCacheError::Config(_))
        ));
        // The build failed before the write phase: no file was written.
        assert!(!dir.exists());
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
