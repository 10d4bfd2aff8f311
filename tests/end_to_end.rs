//! End-to-end integration tests spanning the whole stack: synthetic data
//! generation → database build → (serialization) → classification →
//! evaluation, for both execution back ends.

use mc_bench::pipeline::{run_on_the_fly, run_write_load_query, DiskModel};
use mc_datagen::community::{RefSeqLikeSpec, ReferenceCollection};
use mc_datagen::profiles::DatasetProfile;
use mc_datagen::reads::ReadSimulator;
use mc_datagen::taxonomy_gen::TaxonomySpec;
use mc_gpu_sim::MultiGpuSystem;
use mc_taxonomy::TaxonId;
use metacache::build::{estimate_locations, CpuBuilder, GpuBuilder};
use metacache::candidate::{accumulate_locations_into, top_candidates_into};
use metacache::classify::{classify_candidates, ClassificationEvaluation};
use metacache::gpu::GpuClassifier;
use metacache::query::Classifier;
use metacache::{serialize, CandidateList, MetaCacheConfig};

fn community() -> ReferenceCollection {
    ReferenceCollection::refseq_like(RefSeqLikeSpec {
        taxonomy: TaxonomySpec {
            genera: 4,
            species_per_genus: 2,
            families: 2,
        },
        genome_length: 25_000,
        strains_per_species: 1,
        seed: 77,
    })
}

#[test]
fn cpu_pipeline_classifies_mock_community_accurately() {
    let collection = community();
    let reads = ReadSimulator::new(DatasetProfile::hiseq(), 400)
        .with_seed(1)
        .simulate(&collection);
    let truth: Vec<TaxonId> = reads.truth.iter().map(|t| t.taxon).collect();

    let mut builder = CpuBuilder::new(MetaCacheConfig::default(), collection.taxonomy.clone());
    for t in &collection.targets {
        builder.add_target(t.to_record(), t.taxon).unwrap();
    }
    let db = builder.finish();
    let calls = Classifier::new(&db).classify_batch(&reads.reads);
    let eval = ClassificationEvaluation::evaluate(&db, &calls, &truth);
    assert!(
        eval.species.sensitivity() > 0.6,
        "species sensitivity {:.2}",
        eval.species.sensitivity()
    );
    assert!(
        eval.species.precision() > 0.8,
        "species precision {:.2}",
        eval.species.precision()
    );
    assert!(eval.genus.sensitivity() >= eval.species.sensitivity());
}

/// The zero-allocation hot path (hash → cut → sort sketching, count → sort
/// distinct → scan, reused scratch) classifies exactly like the seed query
/// path assembled from the retained oracle pieces: collect→sort→dedup
/// sketches, fresh vectors per read, one global comparison sort, the
/// reference accumulate and scan.
#[test]
fn scratch_hot_path_matches_the_collect_sort_baseline() {
    let collection = community();
    let reads = ReadSimulator::new(DatasetProfile::hiseq(), 400)
        .with_seed(7)
        .simulate(&collection)
        .reads;
    let mut builder = CpuBuilder::new(MetaCacheConfig::default(), collection.taxonomy.clone());
    for t in &collection.targets {
        builder.add_target(t.to_record(), t.taxon).unwrap();
    }
    let db = builder.finish();
    let classifier = Classifier::new(&db);

    let baseline: Vec<_> = reads
        .iter()
        .map(|read| {
            let features = classifier.sketcher().sketch_record_baseline(read);
            let mut locations = Vec::new();
            for feature in features {
                db.query_feature_into(feature, &mut locations);
            }
            locations.sort_unstable_by_key(|l| l.pack());
            let mut counts = Vec::new();
            accumulate_locations_into(&locations, &mut counts);
            let sws = db.config.sliding_window_size(read.total_len());
            let mut candidates = CandidateList::new(db.config.top_candidates);
            top_candidates_into(&counts, sws, &mut candidates);
            classify_candidates(&db, &db.config, &candidates)
        })
        .collect();
    assert!(baseline.iter().filter(|c| c.is_classified()).count() > 200);
    assert_eq!(classifier.classify_all_sequential(&reads), baseline);
}

#[test]
fn gpu_pipeline_matches_cpu_classifications_on_same_database() {
    let collection = community();
    let reads = ReadSimulator::new(DatasetProfile::miseq(), 200)
        .with_seed(2)
        .simulate(&collection);
    let config = MetaCacheConfig::default();

    // Build one multi-partition database and classify with both paths.
    let system = MultiGpuSystem::dgx1(3);
    let lengths = collection.targets.iter().map(|t| t.sequence.len());
    let expected = estimate_locations(&config, lengths).unwrap() / 3 + 4096;
    let mut builder =
        GpuBuilder::new(config, collection.taxonomy.clone(), &system, expected).unwrap();
    for t in &collection.targets {
        builder.add_target(&t.to_record(), t.taxon).unwrap();
    }
    let db = builder.finish();

    let cpu_calls = Classifier::new(&db).classify_batch(&reads.reads);
    let (gpu_calls, breakdown) = GpuClassifier::new(&db, &system).classify_all(&reads.reads);
    assert_eq!(cpu_calls, gpu_calls, "both query paths must agree exactly");
    assert!(breakdown.total().as_nanos() > 0);
}

#[test]
fn database_roundtrips_through_disk_with_identical_results() {
    let collection = community();
    let reads = ReadSimulator::new(DatasetProfile::hiseq(), 150)
        .with_seed(3)
        .simulate(&collection);

    let mut builder = CpuBuilder::new(MetaCacheConfig::default(), collection.taxonomy.clone());
    for t in &collection.targets {
        builder.add_target(t.to_record(), t.taxon).unwrap();
    }
    let db = builder.finish();
    let before = Classifier::new(&db).classify_batch(&reads.reads);

    let dir = std::env::temp_dir().join("metacache_integration_roundtrip");
    serialize::save(&db, &dir, "e2e").unwrap();
    let loaded = serialize::load(&dir, "e2e").unwrap();
    let after = Classifier::new(loaded.clone()).classify_batch(&reads.reads);
    assert_eq!(before, after);
    assert_eq!(db.total_locations(), loaded.total_locations());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn on_the_fly_reaches_first_query_faster_than_write_load() {
    let collection = community();
    let reads = ReadSimulator::new(DatasetProfile::kal_d(), 100)
        .with_seed(4)
        .simulate(&collection);
    let references: Vec<_> = collection
        .targets
        .iter()
        .map(|t| (t.to_record(), t.taxon))
        .collect();
    let system = MultiGpuSystem::dgx1(2);
    let otf = run_on_the_fly(
        MetaCacheConfig::default(),
        collection.taxonomy.clone(),
        &references,
        &reads.reads,
        &system,
    )
    .unwrap();
    let dir = std::env::temp_dir().join("metacache_integration_ttq");
    let wl = run_write_load_query(
        MetaCacheConfig::default(),
        collection.taxonomy.clone(),
        &references,
        &reads.reads,
        &system,
        DiskModel::default(),
        &dir,
        "e2e",
    )
    .unwrap();
    assert!(otf.phases.time_to_query() < wl.phases.time_to_query());
    assert_eq!(otf.classifications, wl.classifications);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn paired_end_reads_classify_at_least_as_well_as_single_end() {
    let collection = community();
    let paired = ReadSimulator::new(DatasetProfile::kal_d(), 200)
        .with_seed(5)
        .simulate(&collection);
    let truth: Vec<TaxonId> = paired.truth.iter().map(|t| t.taxon).collect();
    let mut builder = CpuBuilder::new(MetaCacheConfig::default(), collection.taxonomy.clone());
    for t in &collection.targets {
        builder.add_target(t.to_record(), t.taxon).unwrap();
    }
    let db = builder.finish();
    let classifier = Classifier::new(&db);

    let paired_calls = classifier.classify_batch(&paired.reads);
    let single_reads: Vec<_> = paired
        .reads
        .iter()
        .map(|r| mc_seqio::SequenceRecord::new(r.header.clone(), r.sequence.clone()))
        .collect();
    let single_calls = classifier.classify_batch(&single_reads);

    let eval_paired = ClassificationEvaluation::evaluate(&db, &paired_calls, &truth);
    let eval_single = ClassificationEvaluation::evaluate(&db, &single_calls, &truth);
    assert!(
        eval_paired.species.sensitivity() >= eval_single.species.sensitivity(),
        "paired {:.3} vs single {:.3}",
        eval_paired.species.sensitivity(),
        eval_single.species.sensitivity()
    );
}
