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
use mc_kmer::{Feature, Location};
use mc_kraken2::{Kraken2Builder, Kraken2Classifier, Kraken2Config};
use mc_seqio::SequenceRecord;
use mc_taxonomy::TaxonId;
use metacache::build::{estimate_locations, CpuBuilder, GpuBuilder};
use metacache::candidate::{accumulate_locations_into, top_candidates_into};
use metacache::gpu::GpuClassifier;
use metacache::query::Classifier;
use metacache::{
    Backend, CandidateList, Database, GpuBackend, MetaCacheConfig, ShardPlan, Sketcher,
};

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
            builder.add_target(&t.to_record(), t.taxon).unwrap();
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
        gpu_builder.add_target(&t.to_record(), t.taxon).unwrap();
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

/// The seed's reference stages over a flat feature list: probe every
/// feature, one comparison sort, accumulate, scan.
fn oracle_candidates(db: &Database, features: &[Feature], read_len: usize) -> CandidateList {
    let mut locations: Vec<Location> = Vec::new();
    for &feature in features {
        db.query_feature_into(feature, &mut locations);
    }
    locations.sort_unstable_by_key(|l| l.pack());
    let mut counts = Vec::new();
    accumulate_locations_into(&locations, &mut counts);
    let mut candidates = CandidateList::new(db.config.top_candidates);
    top_candidates_into(
        &counts,
        db.config.sliding_window_size(read_len),
        &mut candidates,
    );
    candidates
}

/// Reads of k − 1, k, w, w + 1 and w + stride bases, each alone and with a
/// mate, give one candidate list through the host classifier, the GPU
/// pipeline and the baseline oracle, and that list is the one of the windows
/// the read split is specified to give, written out here by hand.
fn read_split_edges_agree_across_backends(stride: usize) {
    const K: usize = 16;
    const W: usize = 127;
    let config = MetaCacheConfig {
        window_stride: stride as u32,
        ..MetaCacheConfig::default()
    };
    let collection = collection();
    let mut builder = CpuBuilder::new(config, collection.taxonomy.clone());
    for t in &collection.targets {
        builder.add_target(t.to_record(), t.taxon).unwrap();
    }
    let db = builder.finish();
    let sketcher = Sketcher::new(&config).unwrap();

    // Under k bases no window; up to w bases the whole read — also at
    // stride 100, where the reference split would give a read of w bases
    // two windows; beyond w the reference windows, the last one cut short.
    let longest = match stride {
        112 => vec![(0, W), (112, W + 112)],
        100 => vec![(0, W), (100, W + 100), (200, W + 100)],
        _ => unreachable!("windows spelled out for strides 112 and 100"),
    };
    let cases: Vec<(usize, Vec<(usize, usize)>)> = vec![
        (K - 1, vec![]),
        (K, vec![(0, K)]),
        (W, vec![(0, W)]),
        (W + 1, vec![(0, W), (stride, W + 1)]),
        (W + stride, longest),
    ];

    let genome = |i: usize| &collection.targets[i % collection.targets.len()].sequence;
    let mut reads = Vec::new();
    let mut expected = Vec::new();
    // A read of k bases has one k-mer: start it, and its mate, where that
    // k-mer is in the database so that its list is not empty either (a read
    // under k bases has no k-mer and starts at `from`).
    let hits = |seq: &[u8]| {
        let mut locations = Vec::new();
        for feature in sketcher.sketch_window_baseline(seq) {
            db.query_feature_into(feature, &mut locations);
        }
        !locations.is_empty()
    };
    let start_at = |genome: &[u8], from: usize, len: usize| {
        (from..genome.len() - len)
            .find(|&start| hits(&genome[start..start + len]))
            .unwrap_or(from)
    };
    for (i, (len, windows)) in cases.iter().enumerate() {
        let genome = genome(i);
        let (read_start, mate_start) =
            (start_at(genome, 1_000, *len), start_at(genome, 5_000, *len));
        let read = genome[read_start..read_start + len].to_vec();
        let mate = genome[mate_start..mate_start + len].to_vec();
        let features = |seq: &[u8]| -> Vec<Feature> {
            windows
                .iter()
                .flat_map(|&(start, end)| sketcher.sketch_window_baseline(&seq[start..end]))
                .collect()
        };
        let alone = features(&read);
        let paired = [alone.clone(), features(&mate)].concat();
        expected.push(oracle_candidates(&db, &alone, *len));
        expected.push(oracle_candidates(&db, &paired, 2 * len));
        reads.push(SequenceRecord::new(format!("r{i}"), read.clone()));
        reads.push(
            SequenceRecord::new(format!("r{i}/1"), read)
                .with_mate(SequenceRecord::new(format!("r{i}/2"), mate)),
        );
    }
    assert!(expected[0].is_empty() && expected[1].is_empty());
    assert!(expected[2..].iter().all(|list| !list.is_empty()));
    // The rule this test holds the split to shows: at stride 100 the
    // reference windows of a read of w bases give another list.
    if stride == 100 {
        let read = &reads[4].sequence;
        let two_windows = [&read[..], &read[100..]].map(|w| sketcher.sketch_window_baseline(w));
        assert_ne!(
            oracle_candidates(&db, &two_windows.concat(), W),
            expected[4]
        );
    }

    let host = Classifier::new(&db);
    let system = MultiGpuSystem::dgx1(2);
    let mut gpu = Vec::new();
    GpuClassifier::new(&db, &system)
        .candidates_batch_on(&reads, 0, &mut |list| gpu.push(list.clone()));
    for ((read, expected), gpu) in reads.iter().zip(&expected).zip(&gpu) {
        let len = read.sequence.len();
        let baseline = host.sketcher().sketch_record_baseline(read);
        let baseline = oracle_candidates(&db, &baseline, read.total_len());
        assert_eq!(&host.candidates(read), expected, "host, {len} bases");
        assert_eq!(gpu, expected, "GPU, {len} bases");
        assert_eq!(&baseline, expected, "baseline oracle, {len} bases");
    }
}

#[test]
fn read_split_edges_agree_across_backends_at_the_default_stride() {
    read_split_edges_agree_across_backends(112);
}

#[test]
fn read_split_edges_agree_across_backends_at_stride_100() {
    read_split_edges_agree_across_backends(100);
}

/// The GPU model's figures on one seeded workload, pinned in simulated
/// nanoseconds: every stage of each batch's `StageBreakdown`, the system's
/// makespan and every device's clock, at 1, 2 and 4 devices over
/// a database of five partitions (more partitions than devices), for two
/// successive batches issued on devices 0 and 1. The batches hold reads
/// shorter than k, a read with no hits, a chimera whose hits span several
/// partitions, a read long enough for the sort's global class and a pair;
/// the GPU worker's candidate lists must equal the host's.
#[test]
fn gpu_model_figures_are_pinned() {
    let collection = collection();
    let mut builder = CpuBuilder::new(MetaCacheConfig::default(), collection.taxonomy.clone());
    for t in &collection.targets {
        builder.add_target(t.to_record(), t.taxon).unwrap();
    }
    let whole = builder.finish();
    let plan = ShardPlan::round_robin(whole.target_count(), 5).unwrap();
    let db = whole.repartition(&plan).unwrap();
    assert_eq!(db.partition_count(), 5);

    let genome = |i: usize| &collection.targets[i % collection.targets.len()].sequence[..];
    let mut state = 0x9E37_79B9_u64;
    let mut alien = |len: usize| -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect()
    };
    let batches: Vec<Vec<SequenceRecord>> = (0..2usize)
        .map(|b| {
            let mut reads: Vec<SequenceRecord> = (0..12usize)
                .map(|i| {
                    let at = 500 + 997 * i + 3001 * b;
                    let len = [100, 150, 260][i % 3];
                    let seq = genome(i + b)[at..at + len].to_vec();
                    SequenceRecord::new(format!("b{b}r{i}"), seq)
                })
                .collect();
            let chimera: Vec<u8> = (0..4)
                .flat_map(|t| genome(t + b)[1_000..1_130].iter().copied())
                .collect();
            reads.push(SequenceRecord::new("short", genome(b)[..10].to_vec()));
            reads.push(SequenceRecord::new("alien", alien(150 + 50 * b)));
            reads.push(SequenceRecord::new("chimera", chimera));
            reads.push(SequenceRecord::new(
                "long",
                genome(b + 3)[2_000..11_000].to_vec(),
            ));
            reads.push(
                SequenceRecord::new("pair/1", genome(b + 1)[7_000..7_150].to_vec()).with_mate(
                    SequenceRecord::new("pair/2", genome(b + 2)[9_000..9_150].to_vec()),
                ),
            );
            reads
        })
        .collect();

    // The batches reach what the workload is built to reach.
    let host = Classifier::new(&db);
    for batch in &batches {
        let lists: Vec<CandidateList> = batch.iter().map(|r| host.candidates(r)).collect();
        let named = |name: &str| &lists[batch.iter().position(|r| r.header == name).unwrap()];
        assert!(named("short").is_empty() && named("alien").is_empty());
        let parts: std::collections::BTreeSet<u32> = named("chimera")
            .as_slice()
            .iter()
            .map(|c| c.target % 5)
            .collect();
        assert!(parts.len() >= 3, "chimera hits partitions {parts:?}");
    }

    let mut figures = Vec::new();
    for devices in [1usize, 2, 4] {
        let system = MultiGpuSystem::dgx1(devices);
        let gpu = GpuClassifier::new(&db, &system);
        for (issue, batch) in batches.iter().enumerate() {
            let (calls, b) = gpu.classify_batch_on(batch, issue);
            assert_eq!(calls, host.classify_batch(batch));
            let mut row = vec![devices as u64, issue as u64];
            row.extend(
                [
                    b.transfer,
                    b.sketch_query,
                    b.compact,
                    b.sort,
                    b.top_candidates,
                ]
                .map(|t| t.as_nanos()),
            );
            row.push(system.makespan().as_nanos());
            row.extend(system.devices().iter().map(|d| d.clock().now().as_nanos()));
            figures.push(row);
        }

        // The serving worker answers with the host's lists.
        let backend_system = MultiGpuSystem::dgx1(devices);
        let backend = GpuBackend::new(&db, &backend_system);
        let mut worker = backend.worker();
        for batch in &batches {
            let mut lists = Vec::new();
            worker.candidates_each(batch, &mut |list| lists.push(list.clone()));
            let expected: Vec<CandidateList> = batch.iter().map(|r| host.candidates(r)).collect();
            assert_eq!(lists, expected, "{devices} devices");
        }
    }
    // (devices, issue, transfer, sketch+query, compact, sort, top
    // candidates, makespan, device clocks…), all in nanoseconds.
    let pinned: Vec<Vec<u64>> = vec![
        vec![1, 0, 6001, 10284, 5035, 15106, 10062, 46488, 46488],
        vec![1, 1, 6005, 10285, 5036, 15109, 10063, 92986, 92986],
        vec![2, 0, 6001, 10233, 5008, 10017, 5004, 46326, 46326, 45277],
        vec![2, 1, 6005, 10213, 5003, 10004, 5001, 91655, 91655, 91566],
        vec![
            4, 0, 6001, 10212, 5002, 10004, 5001, 46283, 46283, 40147, 45165, 40251,
        ],
        vec![
            4, 1, 6005, 10193, 5000, 5000, 9042, 91586, 91586, 81408, 85312, 85401,
        ],
    ];
    assert_eq!(figures, pinned, "{figures:?}");
}
