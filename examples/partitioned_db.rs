//! Multi-GPU database partitioning and the write/load vs on-the-fly
//! trade-off (paper §4.3, §6.3): build the same reference set on different
//! device counts, inspect per-device memory, save/load the database, and
//! compare the time-to-query of both workflows.
//!
//! Run with: `cargo run --release --example partitioned_db`

use mc_bench::pipeline::{run_on_the_fly, run_write_load_query, DiskModel};
use mc_datagen::community::{RefSeqLikeSpec, ReferenceCollection};
use mc_datagen::profiles::DatasetProfile;
use mc_datagen::reads::ReadSimulator;
use mc_datagen::taxonomy_gen::TaxonomySpec;
use mc_gpu_sim::MultiGpuSystem;
use metacache::MetaCacheConfig;

fn main() {
    let collection = ReferenceCollection::refseq_like(RefSeqLikeSpec {
        taxonomy: TaxonomySpec {
            genera: 8,
            species_per_genus: 3,
            families: 4,
        },
        genome_length: 40_000,
        strains_per_species: 1,
        seed: 5,
    });
    let references: Vec<_> = collection
        .targets
        .iter()
        .map(|t| (t.to_record(), t.taxon))
        .collect();
    let reads = ReadSimulator::new(DatasetProfile::hiseq(), 1_000)
        .with_seed(6)
        .simulate(&collection);
    let config = MetaCacheConfig::default();

    for devices in [2usize, 4, 8] {
        let system = MultiGpuSystem::dgx1(devices);
        let otf = run_on_the_fly(
            config,
            collection.taxonomy.clone(),
            &references,
            &reads.reads,
            &system,
        )
        .expect("build fits on the simulated devices");
        println!("=== {devices} simulated V100 devices ===");
        println!(
            "partitions: {}, total table bytes: {:.1} MiB",
            otf.database.partition_count(),
            otf.database.table_bytes() as f64 / (1 << 20) as f64
        );
        for (i, partition) in otf.database.partitions.iter().enumerate() {
            println!(
                "  device {i}: {} targets, {:.1} MiB",
                partition.targets.len(),
                partition.bytes() as f64 / (1 << 20) as f64,
            );
        }
        println!(
            "on-the-fly: build {}, time-to-query {}",
            otf.phases.build,
            otf.phases.time_to_query()
        );

        let dir = std::env::temp_dir().join(format!("metacache_example_partitioned_{devices}"));
        let wl = run_write_load_query(
            config,
            collection.taxonomy.clone(),
            &references,
            &reads.reads,
            &system,
            DiskModel::default(),
            &dir,
            "example_db",
        )
        .expect("write+load pipeline runs");
        println!(
            "write+load:  build {}, write {}, load {}, time-to-query {} ({} of DB files)",
            wl.phases.build,
            wl.phases.write,
            wl.phases.load,
            wl.phases.time_to_query(),
            format_args!("{:.1} MiB", wl.db_file_bytes as f64 / (1 << 20) as f64)
        );
        // A device's table is packed at the end of the build (§4.2's
        // condensed form), so the loaded copy is exactly as large.
        assert_eq!(
            otf.database.partition_count(),
            wl.database.partition_count()
        );
        for (i, (built, loaded)) in otf
            .database
            .partitions
            .iter()
            .zip(&wl.database.partitions)
            .enumerate()
        {
            println!(
                "  loaded partition {i}: {:.1} MiB",
                loaded.bytes() as f64 / (1 << 20) as f64,
            );
            assert_eq!(
                built.bytes(),
                loaded.bytes(),
                "device {i}: built and loaded tables differ in size"
            );
        }
        let classified_otf = otf
            .classifications
            .iter()
            .filter(|c| c.is_classified())
            .count();
        let classified_wl = wl
            .classifications
            .iter()
            .filter(|c| c.is_classified())
            .count();
        let identical = otf.classifications == wl.classifications;
        println!(
            "classified reads: OTF {classified_otf}/{} vs W+L {classified_wl}/{} (identical: {identical})",
            reads.len(),
            reads.len(),
        );
        assert!(
            identical,
            "on-the-fly and write+load classifications differ"
        );
        std::fs::remove_dir_all(&dir).ok();
        println!();
    }
}
