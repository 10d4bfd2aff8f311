//! Cross-backend consistency tests: the same workload run through different
//! table variants, device counts and builders must produce consistent
//! classifications, and the experiment harness must run end to end at tiny
//! scale.

use mc_bench::experiments::{breakdown, build_perf, datasets, ttq};
use mc_bench::ExperimentScale;
use mc_datagen::community::{RefSeqLikeSpec, ReferenceCollection};
use mc_datagen::profiles::DatasetProfile;
use mc_datagen::reads::ReadSimulator;
use mc_datagen::taxonomy_gen::TaxonomySpec;
use mc_gpu_sim::MultiGpuSystem;
use mc_kraken2::{Kraken2Builder, Kraken2Classifier, Kraken2Config};
use mc_taxonomy::TaxonId;
use metacache::build::{estimate_locations, CpuBuilder, GpuBuilder};
use metacache::gpu::GpuClassifier;
use metacache::query::Classifier;
use metacache::MetaCacheConfig;

fn collection() -> ReferenceCollection {
    ReferenceCollection::refseq_like(RefSeqLikeSpec {
        taxonomy: TaxonomySpec {
            genera: 3,
            species_per_genus: 2,
            families: 2,
        },
        genome_length: 20_000,
        strains_per_species: 1,
        seed: 99,
    })
}

#[test]
fn partition_count_does_not_change_classifications_without_capping() {
    let collection = collection();
    let reads = ReadSimulator::new(DatasetProfile::hiseq(), 150)
        .with_seed(10)
        .simulate(&collection);
    let config = MetaCacheConfig::default();
    let lengths = || collection.targets.iter().map(|t| t.sequence.len());

    let mut calls_per_devices = Vec::new();
    for devices in [1usize, 2, 4] {
        let system = MultiGpuSystem::dgx1(devices);
        let expected = estimate_locations(&config, lengths()).unwrap() / devices + 4096;
        let mut builder =
            GpuBuilder::new(config, collection.taxonomy.clone(), &system, expected).unwrap();
        for t in &collection.targets {
            builder.add_target(t.to_record(), t.taxon).unwrap();
        }
        let db = builder.finish();
        assert_eq!(db.partition_count(), devices);
        let (calls, _) = GpuClassifier::new(&db, &system).classify_all(&reads.reads);
        calls_per_devices.push(calls);
    }
    // The reference set is small enough that no bucket cap is hit, so the
    // partition count must not affect any classification.
    assert_eq!(calls_per_devices[0], calls_per_devices[1]);
    assert_eq!(calls_per_devices[1], calls_per_devices[2]);
}

#[test]
fn cpu_and_gpu_builders_lead_to_agreeing_classifiers() {
    let collection = collection();
    let reads = ReadSimulator::new(DatasetProfile::hiseq(), 150)
        .with_seed(11)
        .simulate(&collection);
    let truth: Vec<TaxonId> = reads.truth.iter().map(|t| t.taxon).collect();
    let config = MetaCacheConfig::default();

    let mut cpu_builder = CpuBuilder::new(config, collection.taxonomy.clone());
    for t in &collection.targets {
        cpu_builder.add_target(t.to_record(), t.taxon).unwrap();
    }
    let cpu_db = cpu_builder.finish();
    let cpu_calls = Classifier::new(&cpu_db).classify_batch(&reads.reads);

    let system = MultiGpuSystem::dgx1(2);
    let lengths = collection.targets.iter().map(|t| t.sequence.len());
    let expected = estimate_locations(&config, lengths).unwrap() / 2 + 4096;
    let mut gpu_builder =
        GpuBuilder::new(config, collection.taxonomy.clone(), &system, expected).unwrap();
    for t in &collection.targets {
        gpu_builder.add_target(t.to_record(), t.taxon).unwrap();
    }
    let gpu_db = gpu_builder.finish();
    let gpu_calls = Classifier::new(&gpu_db).classify_batch(&reads.reads);

    // Taxon assignments agree read by read (hit counts may differ only if a
    // cap were reached, which this workload does not trigger).
    let agreements = cpu_calls
        .iter()
        .zip(&gpu_calls)
        .filter(|(a, b)| a.taxon == b.taxon)
        .count();
    assert_eq!(agreements, reads.len());

    // Both are accurate against the ground truth.
    let correct = cpu_calls
        .iter()
        .zip(&truth)
        .filter(|(c, t)| c.taxon == **t)
        .count();
    assert!(
        correct * 2 > reads.len(),
        "only {correct}/{} correct",
        reads.len()
    );
}

#[test]
fn kraken2_and_metacache_agree_on_easy_reads() {
    let collection = collection();
    let reads = ReadSimulator::new(DatasetProfile::miseq(), 100)
        .with_seed(12)
        .simulate(&collection);
    let truth: Vec<TaxonId> = reads.truth.iter().map(|t| t.taxon).collect();

    let mut mc_builder = CpuBuilder::new(MetaCacheConfig::default(), collection.taxonomy.clone());
    let mut kr_builder =
        Kraken2Builder::new(Kraken2Config::default(), collection.taxonomy.clone()).unwrap();
    for t in &collection.targets {
        mc_builder.add_target(t.to_record(), t.taxon).unwrap();
        kr_builder.add_target(&t.to_record(), t.taxon).unwrap();
    }
    let mc_db = mc_builder.finish();
    let kr_db = kr_builder.finish();
    let mc_calls = Classifier::new(&mc_db).classify_batch(&reads.reads);
    let kr_calls = Kraken2Classifier::new(&kr_db).classify_batch(&reads.reads);

    // Both tools should be right on the vast majority of these clean reads.
    let mc_correct = mc_calls
        .iter()
        .zip(&truth)
        .filter(|(c, t)| c.taxon == **t)
        .count();
    let kr_correct = kr_calls
        .iter()
        .zip(&truth)
        .filter(|(c, t)| c.taxon == **t)
        .count();
    assert!(
        mc_correct * 10 >= reads.len() * 7,
        "MetaCache correct: {mc_correct}"
    );
    assert!(
        kr_correct * 10 >= reads.len() * 7,
        "Kraken2 correct: {kr_correct}"
    );
}

#[test]
fn experiment_harness_runs_at_tiny_scale() {
    let scale = ExperimentScale::tiny();
    let ds = datasets::run(&scale);
    assert_eq!(ds.references.len(), 2);
    let bp = build_perf::run(&scale);
    assert!(bp.gpu_speedup_over("RefSeq-like", "MC CPU").unwrap() > 1.0);
    let bd = breakdown::run(&scale);
    assert_eq!(bd.rows.len(), 3);
    let t5 = ttq::run(&scale);
    assert_eq!(t5.bars.len(), 4);
}
