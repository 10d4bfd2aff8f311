//! Food-ingredient analysis: the KAL_D-style abundance experiment (§6.5).
//!
//! A "sausage" sample with known meat fractions is sequenced (paired-end,
//! FASTQ) and quantified against an AFS-like database of large, scaffolded
//! food genomes merged with a RefSeq-like bacterial background — the use case
//! that motivates MetaCache-GPU's support for custom, on-demand databases.
//!
//! Run with: `cargo run --release --example food_analysis`

use mc_bench::pipeline::run_on_the_fly;
use mc_datagen::community::{AfsLikeSpec, RefSeqLikeSpec, ReferenceCollection};
use mc_datagen::profiles::DatasetProfile;
use mc_datagen::reads::ReadSimulator;
use mc_datagen::taxonomy_gen::TaxonomySpec;
use mc_gpu_sim::MultiGpuSystem;
use mc_taxonomy::TaxonId;
use metacache::abundance::AbundanceProfile;
use metacache::MetaCacheConfig;

fn main() {
    // Reference database: bacterial background + 4 large food genomes at
    // scaffold level (the AFS-like part).
    let collection = ReferenceCollection::refseq_like(RefSeqLikeSpec {
        taxonomy: TaxonomySpec {
            genera: 5,
            species_per_genus: 2,
            families: 2,
        },
        genome_length: 30_000,
        strains_per_species: 1,
        seed: 21,
    })
    .with_afs_like(AfsLikeSpec {
        genomes: 4,
        genome_length: 200_000,
        scaffolds_per_genome: 40,
        seed: 22,
    });
    println!(
        "database '{}': {} species, {} targets, {} bases",
        collection.name,
        collection.species_count(),
        collection.target_count(),
        collection.total_bases()
    );

    // The sample: beef 50%, pork 25%, horse 15%, mutton 10% (the KAL_D ratios).
    let mut food_species: Vec<TaxonId> = collection
        .targets
        .iter()
        .map(|t| t.taxon)
        .filter(|t| *t >= 600_000)
        .collect();
    food_species.sort_unstable();
    food_species.dedup();
    let truth: Vec<(TaxonId, f64)> = food_species
        .iter()
        .zip([0.50, 0.25, 0.15, 0.10])
        .map(|(t, r)| (*t, r))
        .collect();
    let reads = ReadSimulator::new(DatasetProfile::kal_d(), 3_000)
        .with_abundance(truth.clone())
        .with_seed(23)
        .simulate(&collection);
    println!("sample: {} read pairs", reads.len());

    // On-the-fly pipeline on 4 simulated GPUs: build, then query immediately.
    let references: Vec<_> = collection
        .targets
        .iter()
        .map(|t| (t.to_record(), t.taxon))
        .collect();
    let system = MultiGpuSystem::dgx1(4);
    let report = run_on_the_fly(
        MetaCacheConfig::default(),
        collection.taxonomy.clone(),
        &references,
        &reads.reads,
        &system,
    )
    .expect("pipeline runs");
    println!(
        "on-the-fly pipeline: build {} (time-to-query {}), query {}",
        report.phases.build,
        report.phases.time_to_query(),
        report.phases.query
    );

    // Abundance estimation vs the known composition.
    let profile = AbundanceProfile::estimate(&report.database, &report.classifications);
    println!("component quantification (estimated vs true):");
    for (taxon, expected) in &truth {
        let name = report
            .database
            .taxonomy
            .name(*taxon)
            .unwrap_or("unknown")
            .to_string();
        println!(
            "  {name:<20} estimated {:>5.1}%   true {:>5.1}%",
            profile.fraction(*taxon) * 100.0,
            expected * 100.0
        );
    }
    println!(
        "accumulated deviation {:.1}%, false positives {:.1}%",
        profile.deviation_from(&truth) * 100.0,
        profile.false_positive_fraction(&truth) * 100.0
    );
}
