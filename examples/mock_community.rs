//! Mock-community accuracy analysis: the HiSeq/MiSeq-style experiment of
//! Table 6 on a synthetic bacterial community, comparing the MetaCache CPU
//! path, the simulated-GPU path and the Kraken2-style baseline.
//!
//! Run with: `cargo run --release --example mock_community`

use mc_datagen::community::{RefSeqLikeSpec, ReferenceCollection};
use mc_datagen::profiles::DatasetProfile;
use mc_datagen::reads::ReadSimulator;
use mc_datagen::taxonomy_gen::TaxonomySpec;
use mc_gpu_sim::MultiGpuSystem;
use mc_kraken2::{Kraken2Builder, Kraken2Classifier, Kraken2Config};
use mc_taxonomy::TaxonId;
use metacache::build::{estimate_locations, CpuBuilder, GpuBuilder};
use metacache::classify::{Classification, ClassificationEvaluation};
use metacache::gpu::GpuClassifier;
use metacache::query::Classifier;
use metacache::MetaCacheConfig;

fn main() {
    // A mock community: 6 genera × 3 species.
    let collection = ReferenceCollection::refseq_like(RefSeqLikeSpec {
        taxonomy: TaxonomySpec {
            genera: 6,
            species_per_genus: 3,
            families: 3,
        },
        genome_length: 40_000,
        strains_per_species: 1,
        seed: 7,
    });
    println!(
        "reference collection: {} species, {} targets, {} bases",
        collection.species_count(),
        collection.target_count(),
        collection.total_bases()
    );

    // Simulate a HiSeq-like read set with per-read ground truth.
    let reads = ReadSimulator::new(DatasetProfile::hiseq(), 2_000)
        .with_seed(11)
        .simulate(&collection);
    let truth: Vec<TaxonId> = reads.truth.iter().map(|t| t.taxon).collect();
    let (min, max, avg) = reads.length_stats();
    println!(
        "simulated {} reads (len {min}-{max}, avg {avg:.1})",
        reads.len()
    );

    let config = MetaCacheConfig::default();

    // MetaCache CPU.
    let mut cpu_builder = CpuBuilder::new(config, collection.taxonomy.clone());
    for t in &collection.targets {
        cpu_builder.add_target(t.to_record(), t.taxon).unwrap();
    }
    let cpu_db = cpu_builder.finish();
    let cpu_calls = Classifier::new(&cpu_db).classify_batch(&reads.reads);
    report("MetaCache CPU", &cpu_db, &cpu_calls, &truth);

    // MetaCache GPU (4 simulated devices).
    let system = MultiGpuSystem::dgx1(4);
    let lengths = collection.targets.iter().map(|t| t.sequence.len());
    let expected = estimate_locations(&config, lengths).expect("valid config") / 4 + 4096;
    let mut gpu_builder =
        GpuBuilder::new(config, collection.taxonomy.clone(), &system, expected).unwrap();
    for t in &collection.targets {
        gpu_builder.add_target(&t.to_record(), t.taxon).unwrap();
    }
    println!(
        "GPU build simulated device time: {}",
        gpu_builder.stats().sim_build_time
    );
    let gpu_db = gpu_builder.finish();
    let (gpu_calls, breakdown) = GpuClassifier::new(&gpu_db, &system).classify_all(&reads.reads);
    report("MetaCache GPU (4 devices)", &gpu_db, &gpu_calls, &truth);
    println!(
        "  query stage shares: transfer {:.1}%, sketch+query {:.1}%, compact {:.1}%, sort {:.1}%, top-candidates {:.1}%",
        breakdown.shares()[0] * 100.0,
        breakdown.shares()[1] * 100.0,
        breakdown.shares()[2] * 100.0,
        breakdown.shares()[3] * 100.0,
        breakdown.shares()[4] * 100.0,
    );

    // Kraken2-style baseline.
    let mut kraken_builder =
        Kraken2Builder::new(Kraken2Config::default(), collection.taxonomy.clone()).unwrap();
    for t in &collection.targets {
        kraken_builder.add_target(&t.to_record(), t.taxon).unwrap();
    }
    let kraken_db = kraken_builder.finish();
    let kraken_calls = Kraken2Classifier::new(&kraken_db).classify_batch(&reads.reads);
    let as_metacache: Vec<Classification> = kraken_calls
        .iter()
        .map(|c| {
            if c.is_classified() {
                Classification {
                    taxon: c.taxon,
                    rank: cpu_db.lineages.rank_of(c.taxon),
                    best_target: None,
                    best_hits: c.score as u32,
                }
            } else {
                Classification::unclassified()
            }
        })
        .collect();
    report("Kraken2-style baseline", &cpu_db, &as_metacache, &truth);
}

fn report(name: &str, db: &metacache::Database, calls: &[Classification], truth: &[TaxonId]) {
    let eval = ClassificationEvaluation::evaluate(db, calls, truth);
    println!(
        "{name}: species precision {:.2}% / sensitivity {:.2}%, genus precision {:.2}% / sensitivity {:.2}%",
        eval.species.precision() * 100.0,
        eval.species.sensitivity() * 100.0,
        eval.genus.precision() * 100.0,
        eval.genus.sensitivity() * 100.0
    );
}
