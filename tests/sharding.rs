//! Sharding oracle suite: classification over a [`Database::repartition`]
//! must be **bit-identical** to the unsharded path — same candidates, same
//! scores, same order, same classifications — for every reference set,
//! shard count, partition skew and read shape.
//!
//! The argument for why this holds lives in `metacache::shard`'s module
//! docs: the partitions' probes, concatenated, are a permutation of the
//! unsharded probe, and the stage after the probe counts locations by key,
//! which no permutation changes. This suite is the proof by property, at
//! both levels — the probed locations
//! as multisets, and the candidate lists and classifications entry for
//! entry: random reference sets, shard counts {1, 2, 3, 7}, random
//! skewed/empty explicit plans, and messy reads (empty, short, N-runs,
//! foreign DNA, pairs). The top-m merge lemma a *router* needs (it sees
//! per-shard candidate lists, not locations) has its exhaustive oracle with
//! `CandidateList` in `crates/metacache/src/candidate.rs`.

use proptest::collection::vec;
use proptest::prelude::*;

use mc_kmer::{Feature, Location};
use mc_seqio::SequenceRecord;
use mc_taxonomy::{Rank, Taxonomy};
use metacache::build::CpuBuilder;
use metacache::query::{Classifier, QueryScratch};
use metacache::{Candidate, Database, MetaCacheConfig, ShardPlan, SketchScratch};

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

/// Deterministically build a reference database: `n_targets` random genomes,
/// one species each, split across two genera (so near-ties exercise the LCA
/// fallback).
fn build_db(n_targets: usize, genome_len: usize, seed: u64) -> (Database, Vec<Vec<u8>>) {
    let mut taxonomy = Taxonomy::with_root();
    taxonomy.add_node(10, 1, Rank::Genus, "G even").unwrap();
    taxonomy.add_node(11, 1, Rank::Genus, "G odd").unwrap();
    for i in 0..n_targets as u32 {
        taxonomy
            .add_node(100 + i, 10 + i % 2, Rank::Species, format!("sp{i}"))
            .unwrap();
    }
    let genomes: Vec<Vec<u8>> = (0..n_targets)
        .map(|i| make_seq(genome_len, seed.wrapping_mul(31).wrapping_add(i as u64)))
        .collect();
    let mut builder = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy);
    for (i, g) in genomes.iter().enumerate() {
        builder
            .add_target(
                SequenceRecord::new(format!("t{i}"), g.clone()),
                100 + i as u32,
            )
            .unwrap();
    }
    (builder.finish(), genomes)
}

/// Messy reads deterministically derived from `seed`: empty records, too
/// short to sketch, foreign DNA, N-runs, all-N, read pairs and ordinary
/// genome windows — every shape the serving stack accepts.
fn messy_reads(genomes: &[Vec<u8>], n: usize, seed: u64) -> Vec<SequenceRecord> {
    let mut state = seed | 1;
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let genome = &genomes[i % genomes.len()];
            match (state >> 33) % 10 {
                0 => SequenceRecord::new(format!("empty{i}"), Vec::new()),
                1 => SequenceRecord::new(format!("tiny{i}"), genome[..6].to_vec()),
                2 => SequenceRecord::new(format!("alien{i}"), make_seq(130, state)),
                3 => {
                    let offset = (state as usize >> 7) % (genome.len() - 300);
                    SequenceRecord::new(format!("pair{i}"), genome[offset..offset + 140].to_vec())
                        .with_mate(SequenceRecord::new(
                            format!("pair{i}/2"),
                            genome[offset + 150..offset + 290].to_vec(),
                        ))
                }
                4 => {
                    let mut seq = genome[200..350].to_vec();
                    let n_start = 20 + (state as usize >> 9) % 100;
                    let n_len = 1 + (state as usize >> 17) % 25;
                    seq[n_start..n_start + n_len].fill(b'N');
                    SequenceRecord::new(format!("nrun{i}"), seq)
                }
                5 => SequenceRecord::new(format!("alln{i}"), vec![b'N'; 80]),
                _ => {
                    let offset = (state as usize >> 7) % (genome.len() - 150);
                    SequenceRecord::new(format!("r{i}"), genome[offset..offset + 150].to_vec())
                }
            }
        })
        .collect()
}

/// The oracle check: repartition the database with `plan` and assert the
/// split reproduces the unsharded path bit for bit — the candidate lists
/// (entries *and* order) and the final classifications.
fn assert_bit_identical(db: &Database, plan: ShardPlan, reads: &[SequenceRecord]) {
    let oracle = Classifier::new(db);
    let expected_candidates = candidate_lists(db, reads);
    let expected = oracle.classify_batch(reads);

    // What the in-process design rests on: per read, the locations the
    // shards return for its features are, together, exactly the locations
    // the unsharded database returns — as sorted lists, i.e. as multisets.
    let sketcher = oracle.sketcher();
    let mut sketch_scratch = SketchScratch::new();
    let probes: Vec<(Vec<Feature>, Vec<Location>)> = reads
        .iter()
        .map(|r| {
            let mut features = Vec::new();
            sketcher.sketch_record_into(r, &mut sketch_scratch, &mut features);
            let mut locations = Vec::new();
            db.query_features_into(&features, &mut locations);
            locations.sort_unstable();
            (features, locations)
        })
        .collect();

    let shard_count = plan.shard_count();
    let split = db.repartition(&plan).unwrap();
    assert_eq!(split.partition_count(), shard_count);
    for (i, (features, unsharded)) in probes.iter().enumerate() {
        let mut gathered = Vec::new();
        let returned: usize = split
            .partitions
            .iter()
            .map(|partition| partition.query_batch_into(features, &mut gathered))
            .sum();
        assert_eq!(returned, gathered.len());
        gathered.sort_unstable();
        assert_eq!(
            &gathered, unsharded,
            "shard probes of read {i} are not a permutation of the unsharded probe ({shard_count} shards)"
        );
    }
    let classifier = Classifier::new(&split);
    let mut sharded_scratch = QueryScratch::new();
    for (i, read) in reads.iter().enumerate() {
        let merged = classifier.candidates_with(read, &mut sharded_scratch);
        assert_eq!(
            merged.as_slice(),
            &expected_candidates[i][..],
            "candidates diverged for read {i} ({} shards)",
            shard_count
        );
    }
    assert_eq!(
        classifier.classify_batch(reads),
        expected,
        "classifications diverged ({shard_count} shards)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random reference sets × shard counts {1, 2, 3, 7} × messy reads:
    /// round-robin sharding is bit-identical to the unsharded oracle.
    /// With 7 shards and ≤ 5 targets, at least two shards are empty —
    /// the degenerate plans fall out of the same property.
    #[test]
    fn round_robin_sharding_is_bit_identical(
        n_targets in 2usize..=5,
        db_seed in 1u64..1_000,
        read_seed in any::<u64>(),
        shard_count in prop_oneof![Just(1usize), Just(2), Just(3), Just(7)],
    ) {
        let (db, genomes) = build_db(n_targets, 4_000, db_seed);
        let reads = messy_reads(&genomes, 24, read_seed);
        let plan = ShardPlan::round_robin(n_targets, shard_count).unwrap();
        assert_bit_identical(&db, plan, &reads);
    }

    /// Random *explicit* plans — arbitrarily skewed, shards with zero
    /// targets — are bit-identical too: equivalence cannot depend on how
    /// evenly the targets are spread.
    #[test]
    fn arbitrary_explicit_plans_are_bit_identical(
        db_seed in 1u64..1_000,
        read_seed in any::<u64>(),
        assignment in vec(0usize..3, 4..5),
    ) {
        let n_targets = assignment.len();
        let (db, genomes) = build_db(n_targets, 4_000, db_seed);
        let reads = messy_reads(&genomes, 24, read_seed);
        let plan = ShardPlan::explicit(assignment, 3).unwrap();
        assert_bit_identical(&db, plan, &reads);
    }
}

/// The 90 % skew case called out by the growth plan: one shard owns 9 of 10
/// targets, the other owns 1. The fat shard's candidate lists dominate every
/// merge; the thin shard must still win exactly the reads it would win
/// unsharded.
#[test]
fn ninety_percent_skewed_partition_is_bit_identical() {
    let n_targets = 10;
    let (db, genomes) = build_db(n_targets, 3_000, 42);
    let mut assignment = vec![0usize; n_targets];
    assignment[9] = 1;
    let plan = ShardPlan::explicit(assignment, 2).unwrap();
    assert_eq!(
        plan.assignment().iter().filter(|&&s| s == 0).count(),
        9,
        "shard 0 should own 90% of the targets"
    );
    let reads = messy_reads(&genomes, 48, 7);
    assert_bit_identical(&db, plan, &reads);
}

/// A shard with zero targets serves an empty (but well-formed) table and
/// contributes nothing to any merge; classification is unchanged.
#[test]
fn zero_target_shard_is_bit_identical() {
    let n_targets = 4;
    let (db, genomes) = build_db(n_targets, 3_000, 7);
    let reads = messy_reads(&genomes, 48, 99);
    // Shard 1 of 3 gets no targets at all.
    let plan = ShardPlan::explicit(vec![0, 2, 0, 2], 3).unwrap();
    let empty = db.repartition(&plan).unwrap().into_parts().swap_remove(1);
    assert_eq!(empty.total_locations(), 0);
    // Empty shards still expose one (empty) partition — a shard server over
    // one keeps answering candidate queries instead of being mistaken for a
    // table-free metadata view.
    assert_eq!(empty.partition_count(), 1);
    assert_bit_identical(&db, plan, &reads);
}

/// Candidate lists of every read, through one reused scratch.
fn candidate_lists(db: &Database, reads: &[SequenceRecord]) -> Vec<Vec<Candidate>> {
    let classifier = Classifier::new(db);
    let mut scratch = QueryScratch::new();
    reads
        .iter()
        .map(|r| {
            classifier
                .candidates_with(r, &mut scratch)
                .as_slice()
                .to_vec()
        })
        .collect()
}

/// `save` of a repartitioned database writes the paper's layout — one
/// `.meta` and one `.cache<i>` per shard — and `load` gives back the S
/// partitions, which classify like the unsharded database.
#[test]
fn saved_repartition_loads_as_its_partitions() {
    let (db, genomes) = build_db(5, 4_000, 11);
    let reads = messy_reads(&genomes, 48, 5);
    let split = db
        .repartition(&ShardPlan::round_robin(5, 3).unwrap())
        .unwrap();
    let dir = std::env::temp_dir().join(format!("metacache_split_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    metacache::serialize::save(&split, &dir, "split").unwrap();
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    let loaded = metacache::serialize::load(&dir, "split").unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(
        files,
        ["split.cache0", "split.cache1", "split.cache2", "split.meta"]
    );
    assert_eq!(loaded.partition_count(), 3);
    for (got, want) in loaded.partitions.iter().zip(&split.partitions) {
        assert_eq!(got.targets, want.targets);
    }
    assert_eq!(loaded.total_locations(), db.total_locations());
    assert_eq!(
        candidate_lists(&loaded, &reads),
        candidate_lists(&db, &reads)
    );
    assert_eq!(
        Classifier::new(&*loaded).classify_batch(&reads),
        Classifier::new(&db).classify_batch(&reads)
    );
}

/// A 2-device GPU build holds one table per device, and a feature of
/// target 1's genome that repeats target 0's lives in both. Repartitioned
/// into 3 tables with targets 0 and 1 on one shard, those buckets merge
/// into one — and the candidate lists and location count are the source's.
#[test]
fn repartition_of_a_two_device_build_is_bit_identical() {
    let mut genomes: Vec<Vec<u8>> = (0..4).map(|i| make_seq(6_000, 500 + i)).collect();
    let shared = genomes[0][1_000..3_000].to_vec();
    genomes[1].splice(2_000..2_000, shared);
    let mut taxonomy = Taxonomy::with_root();
    taxonomy.add_node(10, 1, Rank::Genus, "G").unwrap();
    for i in 0..4u32 {
        taxonomy
            .add_node(100 + i, 10, Rank::Species, format!("sp{i}"))
            .unwrap();
    }
    let system = mc_gpu_sim::MultiGpuSystem::dgx1(2);
    let mut builder =
        metacache::build::GpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy, &system, 200_000)
            .unwrap();
    for (i, g) in genomes.iter().enumerate() {
        builder
            .add_target(
                SequenceRecord::new(format!("t{i}"), g.clone()),
                100 + i as u32,
            )
            .unwrap();
    }
    let gpu_db = builder.finish();
    assert_eq!(gpu_db.partition_count(), 2);

    let plan = ShardPlan::explicit(vec![0, 0, 1, 2], 3).unwrap();
    let split = gpu_db.repartition(&plan).unwrap();
    assert_eq!(split.partition_count(), 3);
    assert_eq!(split.total_locations(), gpu_db.total_locations());
    // The shared features were counted once per device, and are now one
    // bucket on shard 0.
    assert!(split.total_features() < gpu_db.total_features());

    let mut reads = messy_reads(&genomes, 48, 17);
    reads.push(SequenceRecord::new(
        "shared",
        genomes[0][1_500..1_650].to_vec(),
    ));
    assert_eq!(
        candidate_lists(&split, &reads),
        candidate_lists(&gpu_db, &reads)
    );
}
