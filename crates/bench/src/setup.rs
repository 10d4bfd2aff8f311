//! Shared experiment setup: reference collections, read workloads and
//! database construction helpers used by several experiments.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mc_datagen::community::ReferenceCollection;
use mc_datagen::profiles::DatasetProfile;
use mc_datagen::reads::{ReadSimulator, SimulatedReadSet};
use mc_gpu_sim::{MultiGpuSystem, SimDuration};
use mc_kraken2::{Kraken2Builder, Kraken2Config, Kraken2Database};
use mc_seqio::SequenceRecord;
use mc_taxonomy::TaxonId;
use metacache::build::{estimate_locations, CpuBuilder, GpuBuilder};
use metacache::{Database, MetaCacheConfig};

use crate::scale::ExperimentScale;

/// The two reference databases of Table 1 at the configured scale.
pub struct ReferenceSetup {
    /// The RefSeq-like collection ("RefSeq 202" analogue).
    pub refseq: ReferenceCollection,
    /// RefSeq-like plus the AFS-like large genomes ("AFS 31 + RefSeq 202").
    pub afs_refseq: ReferenceCollection,
}

impl ReferenceSetup {
    /// Generate both collections for a scale.
    pub fn generate(scale: &ExperimentScale) -> Self {
        let refseq = ReferenceCollection::refseq_like(scale.refseq);
        let afs_refseq = ReferenceCollection::refseq_like(scale.refseq).with_afs_like(scale.afs);
        Self { refseq, afs_refseq }
    }
}

/// The three read datasets of Table 2 at the configured scale, simulated from
/// a reference collection with known ground truth.
pub struct Workloads {
    /// HiSeq-like single-end FASTA reads.
    pub hiseq: SimulatedReadSet,
    /// MiSeq-like single-end FASTA reads.
    pub miseq: SimulatedReadSet,
    /// KAL_D-like paired-end FASTQ reads with known component abundances.
    pub kal_d: SimulatedReadSet,
    /// The true species abundances used for the KAL_D-like sample.
    pub kal_d_truth: Vec<(TaxonId, f64)>,
}

impl Workloads {
    /// Simulate all three read sets. HiSeq/MiSeq reads are drawn from the
    /// `community` collection (mock community with per-read truth); the
    /// KAL_D-like reads are drawn from `food_components` species of the AFS
    /// collection with fixed abundance ratios (beef/pork/horse/mutton-style).
    pub fn generate(
        scale: &ExperimentScale,
        community: &ReferenceCollection,
        food: &ReferenceCollection,
    ) -> Self {
        let hiseq = ReadSimulator::new(DatasetProfile::hiseq(), scale.reads_per_dataset)
            .with_seed(101)
            .simulate(community);
        let miseq = ReadSimulator::new(DatasetProfile::miseq(), scale.reads_per_dataset)
            .with_seed(102)
            .simulate(community);
        // Food components: the AFS-like species (taxa >= 600_000) with the
        // KAL_D sausage ratios from the AFS paper (beef 50%, pork 25%,
        // horse 15%, mutton 10%), truncated to the species that exist.
        let mut food_species: Vec<TaxonId> = food
            .targets
            .iter()
            .map(|t| t.taxon)
            .filter(|t| *t >= 600_000)
            .collect();
        food_species.sort_unstable();
        food_species.dedup();
        let ratios = [0.50, 0.25, 0.15, 0.10];
        let mut kal_d_truth: Vec<(TaxonId, f64)> = food_species
            .iter()
            .zip(ratios.iter())
            .map(|(t, r)| (*t, *r))
            .collect();
        // Renormalise if fewer than 4 food species exist at this scale.
        let total: f64 = kal_d_truth.iter().map(|(_, r)| r).sum();
        for (_, r) in &mut kal_d_truth {
            *r /= total;
        }
        let kal_d = ReadSimulator::new(DatasetProfile::kal_d(), scale.reads_per_dataset)
            .with_seed(103)
            .with_abundance(kal_d_truth.clone())
            .simulate(food);
        Self {
            hiseq,
            miseq,
            kal_d,
            kal_d_truth,
        }
    }

    /// The three datasets with their names, in paper order.
    pub fn all(&self) -> [(&'static str, &SimulatedReadSet); 3] {
        [
            ("HiSeq", &self.hiseq),
            ("MiSeq", &self.miseq),
            ("KAL_D", &self.kal_d),
        ]
    }
}

/// Reference records paired with their taxa, as consumed by the builders.
pub fn records_with_taxa(collection: &ReferenceCollection) -> Vec<(SequenceRecord, TaxonId)> {
    collection
        .targets
        .iter()
        .map(|t| (t.to_record(), t.taxon))
        .collect()
}

/// Result of building a database with one method: the database handle plus
/// the timing/size measurements reported in Table 3.
///
/// The MetaCache database is held behind an [`Arc`]: experiments hand it to
/// classifiers, streaming pipelines and serving engines, all of which co-own
/// the shared database exactly as the production serving path does.
pub struct BuiltDatabase {
    /// The constructed MetaCache database (None for the Kraken2 baseline).
    pub metacache: Option<Arc<Database>>,
    /// The constructed Kraken2-style database (None for MetaCache builds).
    pub kraken2: Option<Kraken2Database>,
    /// Wall-clock time of the build on this machine.
    pub wall_time: Duration,
    /// Simulated device time (zero for CPU builds).
    pub sim_time: SimDuration,
    /// Total bytes of the hash tables ("DB size").
    pub table_bytes: usize,
    /// Approximate host RAM used ("RAM").
    pub host_bytes: usize,
}

/// Build a single-partition CPU MetaCache database.
pub fn build_metacache_cpu(
    config: MetaCacheConfig,
    collection: &ReferenceCollection,
) -> BuiltDatabase {
    let start = Instant::now();
    let mut builder = CpuBuilder::new(config, collection.taxonomy.clone());
    for target in &collection.targets {
        builder
            .add_target(target.to_record(), target.taxon)
            .expect("valid target");
    }
    let db = builder.finish();
    let wall_time = start.elapsed();
    BuiltDatabase {
        table_bytes: db.table_bytes(),
        host_bytes: db.table_bytes() + db.host_metadata_bytes(),
        metacache: Some(Arc::new(db)),
        kraken2: None,
        wall_time,
        sim_time: SimDuration::ZERO,
    }
}

/// Build a multi-partition GPU MetaCache database on `devices` simulated GPUs.
pub fn build_metacache_gpu(
    config: MetaCacheConfig,
    collection: &ReferenceCollection,
    system: &MultiGpuSystem,
) -> BuiltDatabase {
    system.reset_clocks();
    let start = Instant::now();
    let lengths = collection.targets.iter().map(|t| t.sequence.len());
    let expected = estimate_locations(&config, lengths).expect("valid config")
        / system.device_count().max(1)
        + 4096;
    let mut builder = GpuBuilder::new(config, collection.taxonomy.clone(), system, expected)
        .expect("device memory suffices at experiment scale");
    for target in &collection.targets {
        builder
            .add_target(&target.to_record(), target.taxon)
            .expect("valid target");
    }
    let sim_time = builder.stats().sim_build_time;
    let db = builder.finish();
    let wall_time = start.elapsed();
    BuiltDatabase {
        table_bytes: db.table_bytes(),
        host_bytes: db.host_metadata_bytes(),
        metacache: Some(Arc::new(db)),
        kraken2: None,
        wall_time,
        sim_time,
    }
}

/// Build a Kraken2-style database.
pub fn build_kraken2(collection: &ReferenceCollection) -> BuiltDatabase {
    let start = Instant::now();
    let mut builder = Kraken2Builder::new(Kraken2Config::default(), collection.taxonomy.clone())
        .expect("valid config");
    for target in &collection.targets {
        builder
            .add_target(&target.to_record(), target.taxon)
            .expect("valid target");
    }
    let db = builder.finish();
    let wall_time = start.elapsed();
    BuiltDatabase {
        table_bytes: db.bytes(),
        host_bytes: db.bytes(),
        metacache: None,
        kraken2: Some(db),
        wall_time,
        sim_time: SimDuration::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_generates_consistent_collections_and_workloads() {
        let scale = ExperimentScale::tiny();
        let refs = ReferenceSetup::generate(&scale);
        assert!(refs.afs_refseq.target_count() > refs.refseq.target_count());
        assert!(refs.afs_refseq.total_bases() > refs.refseq.total_bases());
        let workloads = Workloads::generate(&scale, &refs.refseq, &refs.afs_refseq);
        assert_eq!(workloads.hiseq.len(), scale.reads_per_dataset);
        assert_eq!(workloads.miseq.len(), scale.reads_per_dataset);
        assert_eq!(workloads.kal_d.len(), scale.reads_per_dataset);
        assert!(!workloads.kal_d_truth.is_empty());
        let total: f64 = workloads.kal_d_truth.iter().map(|(_, r)| r).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(workloads.kal_d.reads.iter().all(|r| r.is_paired()));
    }

    #[test]
    fn all_three_builders_produce_usable_databases() {
        let scale = ExperimentScale::tiny();
        let refs = ReferenceSetup::generate(&scale);
        let cpu = build_metacache_cpu(MetaCacheConfig::for_tests(), &refs.refseq);
        assert!(cpu.metacache.as_ref().unwrap().total_locations() > 0);
        assert!(cpu.table_bytes > 0);

        let system = MultiGpuSystem::dgx1(scale.small_gpu_count);
        let gpu = build_metacache_gpu(MetaCacheConfig::for_tests(), &refs.refseq, &system);
        let gpu_db = gpu.metacache.as_ref().unwrap();
        assert_eq!(gpu_db.partition_count(), scale.small_gpu_count);
        assert!(gpu.sim_time > SimDuration::ZERO);

        let kraken = build_kraken2(&refs.refseq);
        assert!(kraken.kraken2.as_ref().unwrap().minimizer_count() > 1000);
    }
}
