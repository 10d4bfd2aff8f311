//! Live-update battery: incremental reference insertion and epoch-swapped
//! serving.
//!
//! Two property suites prove the **data** half of live updates — inserting
//! targets into an already-built (or saved and loaded) database is
//! bit-identical to rebuilding from the extended reference set — and a set
//! of concurrency tests proves the **serving** half: `reload_backend`
//! swaps epochs with zero downtime, every completed batch is bit-identical
//! to a single-epoch oracle for its reported generation, and the old
//! `Arc<Database>` is actually freed once its last in-flight batch drains.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use mc_seqio::SequenceRecord;
use mc_taxonomy::{Rank, TaxonId, Taxonomy};
use metacache::build::CpuBuilder;
use metacache::query::Classifier;
use metacache::serialize;
use metacache::serving::{CompletedBatch, EngineConfig, OutputKind, ServingEngine, SessionConfig};
use metacache::{Database, DatabaseDelta, HostBackend, MetaCacheConfig, ShardPlan};

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

/// One reference target: name, genome, species taxon.
#[derive(Clone)]
struct RefSpec {
    name: String,
    genome: Vec<u8>,
    taxon: TaxonId,
}

/// Deterministic reference set: `n` genomes derived from `seed`, one
/// species each (ids `100 + base_species`, `100 + base_species + 1`, …).
fn ref_set(n: usize, base_species: usize, seed: u64) -> Vec<RefSpec> {
    (0..n)
        .map(|i| {
            let g_seed = seed
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(i as u64 + 1);
            let len = 2_500 + (g_seed % 2_000) as usize;
            RefSpec {
                name: format!("ref{}", base_species + i),
                genome: make_seq(len, g_seed),
                taxon: 100 + (base_species + i) as TaxonId,
            }
        })
        .collect()
}

/// Taxonomy with one genus and the given species ids under it.
fn taxonomy_for(species: &[TaxonId]) -> Taxonomy {
    let mut taxonomy = Taxonomy::with_root();
    taxonomy.add_node(10, 1, Rank::Genus, "G").unwrap();
    for &s in species {
        taxonomy
            .add_node(s, 10, Rank::Species, format!("G sp{s}"))
            .unwrap();
    }
    taxonomy
}

/// Fresh single-pass build over `targets` in order, with `species`
/// pre-registered.
fn build_db(species: &[TaxonId], targets: &[RefSpec]) -> Database {
    let mut builder = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy_for(species));
    for t in targets {
        builder
            .add_target(
                SequenceRecord::new(t.name.clone(), t.genome.clone()),
                t.taxon,
            )
            .unwrap();
    }
    builder.finish()
}

/// Messy read set over `genomes`: genome substrings plus empty, tiny and
/// alien reads, deterministically derived from `seed`.
fn messy_reads(genomes: &[&[u8]], n: usize, seed: u64) -> Vec<SequenceRecord> {
    let mut state = seed | 1;
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match (state >> 33) % 10 {
                0 => SequenceRecord::new(format!("empty{i}"), Vec::new()),
                1 => SequenceRecord::new(format!("tiny{i}"), genomes[0][..6].to_vec()),
                2 => SequenceRecord::new(format!("alien{i}"), make_seq(130, state)),
                _ => {
                    let genome = genomes[i % genomes.len()];
                    let offset = (state as usize >> 7) % (genome.len() - 150);
                    SequenceRecord::new(
                        format!("s{seed}_r{i}"),
                        genome[offset..offset + 150].to_vec(),
                    )
                }
            }
        })
        .collect()
}

/// In-place Fisher–Yates driven by an LCG — a deterministic "random
/// insertion order" for the second wave of targets.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed | 1;
    for i in (1..items.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        items.swap(i, (state >> 33) as usize % (i + 1));
    }
}

fn species_of(targets: &[RefSpec]) -> Vec<TaxonId> {
    targets.iter().map(|t| t.taxon).collect()
}

/// Messy reads over both reference waves.
fn equivalence_reads(t1: &[RefSpec], t2: &[RefSpec], n: usize, seed: u64) -> Vec<SequenceRecord> {
    let genomes: Vec<&[u8]> = t1
        .iter()
        .chain(t2.iter())
        .map(|t| t.genome.as_slice())
        .collect();
    messy_reads(&genomes, n, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole data property: inserting a second reference wave into a
    /// database built from the first is bit-identical to a single fresh
    /// build over both waves — for random reference sets, random insertion
    /// orders and both the `insert_target` and `apply_delta` paths (the
    /// delta path also adds the second wave's *taxa* post-build).
    #[test]
    fn incremental_insert_matches_fresh_build(
        n1 in 1usize..4,
        n2 in 1usize..4,
        seed in any::<u64>(),
        order_seed in any::<u64>(),
        reads_seed in any::<u64>(),
        use_delta in any::<bool>(),
    ) {
        let t1 = ref_set(n1, 0, seed);
        let mut t2 = ref_set(n2, n1, seed.wrapping_add(0xdead));
        shuffle(&mut t2, order_seed);

        let all: Vec<RefSpec> = t1.iter().chain(t2.iter()).cloned().collect();
        let fresh = build_db(&species_of(&all), &all);

        let incremental = if use_delta {
            // Second-wave taxa are *not* pre-registered: the delta carries
            // them, so taxonomy extension and target insertion land as one
            // new database state.
            let mut db = build_db(&species_of(&t1), &t1);
            let mut delta = DatabaseDelta::new();
            for t in &t2 {
                delta.add_taxon(t.taxon, 10, Rank::Species, format!("G sp{}", t.taxon));
            }
            for t in &t2 {
                delta.add_target(
                    SequenceRecord::new(t.name.clone(), t.genome.clone()),
                    t.taxon,
                );
            }
            let stats = db.apply_delta(delta).unwrap();
            prop_assert_eq!(stats.targets_added, t2.len());
            db
        } else {
            let mut db = build_db(&species_of(&all), &t1);
            for t in &t2 {
                db.insert_target(
                    SequenceRecord::new(t.name.clone(), t.genome.clone()),
                    t.taxon,
                )
                .unwrap();
            }
            db
        };

        prop_assert_eq!(incremental.target_count(), fresh.target_count());
        prop_assert_eq!(incremental.total_locations(), fresh.total_locations());
        prop_assert_eq!(incremental.total_features(), fresh.total_features());
        let reads = equivalence_reads(&t1, &t2, 48, reads_seed);
        let got = Classifier::new(&incremental).classify_batch(&reads);
        let want = Classifier::new(&fresh).classify_batch(&reads);
        prop_assert_eq!(got, want, "classifications diverged after incremental insert");
    }

    /// The same property through the loaded-database path: a save/load
    /// round-trip leaves the table a fresh build has — the one host table in
    /// its packed (condensed) state — so `apply_delta` simply inserts, and the
    /// result must still be bit-identical to the single fresh build.
    #[test]
    fn insert_into_loaded_condensed_database_matches_fresh_build(
        n1 in 1usize..3,
        n2 in 1usize..3,
        seed in any::<u64>(),
        reads_seed in any::<u64>(),
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let t1 = ref_set(n1, 0, seed);
        let t2 = ref_set(n2, n1, seed.wrapping_add(0xbeef));
        let all: Vec<RefSpec> = t1.iter().chain(t2.iter()).cloned().collect();
        let fresh = build_db(&species_of(&all), &all);

        let dir = std::env::temp_dir().join(format!(
            "metacache_epoch_loaded_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed),
        ));
        let built = build_db(&species_of(&all), &t1);
        serialize::save(&built, &dir, "epoch").unwrap();
        let loaded = serialize::load(&dir, "epoch").unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let mut db = Arc::try_unwrap(loaded).ok().expect("sole owner of loaded db");

        let mut delta = DatabaseDelta::new();
        for t in &t2 {
            delta.add_target(
                SequenceRecord::new(t.name.clone(), t.genome.clone()),
                t.taxon,
            );
        }
        db.apply_delta(delta).unwrap();

        prop_assert_eq!(db.target_count(), fresh.target_count());
        prop_assert_eq!(db.total_locations(), fresh.total_locations());
        let reads = equivalence_reads(&t1, &t2, 48, reads_seed);
        let got = Classifier::new(&db).classify_batch(&reads);
        let want = Classifier::new(&fresh).classify_batch(&reads);
        prop_assert_eq!(got, want, "insert-onto-loaded classifications diverged");
    }
}

/// The reference waves and per-generation databases shared by the serving
/// tests: generation g serves the first `1 + g` waves.
fn generation_databases(generations: usize) -> (Vec<Vec<RefSpec>>, Vec<Arc<Database>>) {
    let waves: Vec<Vec<RefSpec>> = (0..generations)
        .map(|g| ref_set(2, 2 * g, 7_000 + g as u64))
        .collect();
    let dbs = (0..generations)
        .map(|g| {
            let all: Vec<RefSpec> = waves[..=g].iter().flatten().cloned().collect();
            Arc::new(build_db(&species_of(&all), &all))
        })
        .collect();
    (waves, dbs)
}

/// A pinned epoch outlives any number of swaps; unpinned readers observe
/// each swap immediately.
#[test]
fn pinned_epoch_survives_reload() {
    let (_, dbs) = generation_databases(2);
    let engine = ServingEngine::new(
        HostBackend::new(Arc::clone(&dbs[0])),
        EngineConfig::default(),
    );
    let pinned = engine.pin_epoch();
    assert_eq!(pinned.generation(), 0);
    assert_eq!(pinned.database().target_count(), dbs[0].target_count());

    let generation = engine.reload_backend(HostBackend::new(Arc::clone(&dbs[1])));
    assert_eq!(generation, 1);
    assert_eq!(engine.generation(), 1);

    // The pre-swap pin still serves the old epoch, bit-identically.
    assert_eq!(pinned.generation(), 0);
    assert_eq!(pinned.database().target_count(), dbs[0].target_count());
    // A fresh pin observes the new one.
    let fresh = engine.pin_epoch();
    assert_eq!(fresh.generation(), 1);
    assert_eq!(fresh.database().target_count(), dbs[1].target_count());
}

/// Submit `reads` in fixed-size batches through `session`, never blocking
/// (the non-blocking submit/drain pair the net server uses), and return
/// every completed batch in submission order.
fn pump_session(
    session: &mut metacache::serving::Session<'_>,
    reads: &[SequenceRecord],
    batch_records: usize,
) -> Vec<CompletedBatch> {
    let mut drained = Vec::new();
    for chunk in reads.chunks(batch_records) {
        let mut chunk = chunk.to_vec();
        loop {
            match session.try_submit_owned(chunk, OutputKind::Classifications) {
                Ok(()) => break,
                Err(back) => {
                    chunk = back;
                    match session.try_drain_owned() {
                        Some(batch) => drained.push(batch),
                        None => std::thread::yield_now(),
                    }
                }
            }
        }
    }
    while session.in_flight() > 0 {
        match session.try_drain_owned() {
            Some(batch) => drained.push(batch),
            None => std::thread::yield_now(),
        }
    }
    drained
}

/// The acceptance criterion: 4 sessions stream while reloads fire
/// concurrently. Zero failed batches, per-session generations are
/// monotone, and **every** batch's classifications are bit-identical to a
/// single-epoch oracle classifier for the generation the batch reports.
#[test]
fn concurrent_streams_across_reloads_match_single_epoch_oracles() {
    const GENERATIONS: usize = 3;
    const SESSIONS: usize = 4;
    const BATCH: usize = 5;
    let (waves, dbs) = generation_databases(GENERATIONS);
    let engine = ServingEngine::host_with_config(
        Arc::clone(&dbs[0]),
        EngineConfig {
            workers: 4,
            queue_capacity: 2,
            batch_records: BATCH,
            ..EngineConfig::default()
        },
    );

    // Reads sampled only from the first wave's genomes, so every
    // generation's database can classify them (later generations add
    // targets, which may change results — exactly what the per-generation
    // oracle accounts for).
    let first_wave: Vec<&[u8]> = waves[0].iter().map(|t| t.genome.as_slice()).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|s| {
                let engine = &engine;
                let dbs = &dbs;
                let reads = messy_reads(&first_wave, 300, 5_000 + s as u64);
                scope.spawn(move || {
                    let oracles: Vec<_> = dbs
                        .iter()
                        .map(|db| Classifier::new(Arc::clone(db)))
                        .collect();
                    let mut session = engine.session_with(SessionConfig {
                        batch_records: BATCH,
                        ..SessionConfig::default()
                    });
                    let drained = pump_session(&mut session, &reads, BATCH);
                    assert_eq!(
                        drained.len(),
                        reads.len().div_ceil(BATCH),
                        "session {s} lost batches across the reloads"
                    );
                    let mut last_generation = 0;
                    let mut replayed = 0usize;
                    for (b, batch) in drained.iter().enumerate() {
                        assert!(!batch.panicked, "session {s} batch {b} failed");
                        assert!(
                            batch.generation >= last_generation,
                            "session {s} generation went backwards at batch {b}"
                        );
                        last_generation = batch.generation;
                        let oracle = &oracles[batch.generation as usize];
                        assert_eq!(
                            batch.classifications,
                            oracle.classify_batch(&batch.records),
                            "session {s} batch {b} diverged from the \
                             generation-{} oracle",
                            batch.generation
                        );
                        replayed += batch.records.len();
                    }
                    assert_eq!(replayed, reads.len());
                    assert_eq!(session.database_generation(), last_generation);
                })
            })
            .collect();

        // Fire the reloads while the sessions stream.
        for (g, db) in dbs.iter().enumerate().skip(1) {
            std::thread::sleep(Duration::from_millis(20));
            let generation = engine.reload_backend(HostBackend::new(Arc::clone(db)));
            assert_eq!(generation, g as u64);
        }
        for handle in handles {
            handle.join().unwrap();
        }
    });
    assert_eq!(engine.generation(), (GENERATIONS - 1) as u64);
}

/// The old epoch is really *freed* after a reload — not just hidden: a weak
/// probe on the generation-0 database loses its last strong reference
/// within a drain interval of the swap, even though idle workers were
/// parked on the queue when the swap happened.
#[test]
fn old_epoch_database_is_freed_after_reload() {
    let (_, dbs) = generation_databases(2);
    let db0 = Arc::clone(&dbs[0]);
    let weak = Arc::downgrade(&db0);
    let engine = ServingEngine::new(HostBackend::new(db0), EngineConfig::default());
    drop(dbs); // the test's own strong handles must not mask a leak

    let reads = {
        let wave = ref_set(2, 0, 7_000);
        let genomes: Vec<&[u8]> = wave.iter().map(|t| t.genome.as_slice()).collect();
        messy_reads(&genomes, 40, 99)
    };
    let mut session = engine.session();
    let before = session.classify_batch(&reads);
    assert_eq!(before.len(), reads.len());
    assert!(
        weak.upgrade().is_some(),
        "generation 0 must be alive pre-swap"
    );

    let wave2: Vec<RefSpec> = ref_set(2, 0, 7_000)
        .into_iter()
        .chain(ref_set(2, 2, 7_001))
        .collect();
    let db1 = Arc::new(build_db(&species_of(&wave2), &wave2));
    assert_eq!(engine.reload_backend(HostBackend::new(db1)), 1);

    // Idle workers wake on the reload notification, release their pins and
    // re-pin the new epoch; no further traffic is required. Allow a
    // generous scheduling window before declaring a leak.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while weak.upgrade().is_some() {
        assert!(
            std::time::Instant::now() < deadline,
            "generation-0 database still alive 5s after the swap"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // And the engine still serves — on the new epoch.
    let after = session.classify_batch(&reads);
    assert_eq!(after.len(), reads.len());
    assert_eq!(session.database_generation(), 1);
}

/// Sharded composition: one `reload_backend` call swaps *all* shards
/// atomically (a host backend over a split is one backend), and post-swap results
/// are bit-identical to the unsharded classifier over the new reference
/// set — even when the shard count changes across the swap.
#[test]
fn sharded_backend_reload_swaps_all_shards_atomically() {
    let t1 = ref_set(3, 0, 4_400);
    let t2 = ref_set(2, 3, 4_401);
    let all: Vec<RefSpec> = t1.iter().chain(t2.iter()).cloned().collect();

    let oracle0 = build_db(&species_of(&t1), &t1);
    let plan0 = ShardPlan::round_robin(t1.len(), 2).unwrap();
    let engine = ServingEngine::new(
        HostBackend::new(Arc::new(oracle0.repartition(&plan0).unwrap())),
        EngineConfig {
            workers: 2,
            batch_records: 7,
            ..EngineConfig::default()
        },
    );

    let genomes: Vec<&[u8]> = all.iter().map(|t| t.genome.as_slice()).collect();
    let reads = messy_reads(&genomes, 60, 321);

    let mut session = engine.session();
    assert_eq!(
        session.classify_batch(&reads),
        Classifier::new(&oracle0).classify_batch(&reads),
        "sharded serving diverged from the unsharded oracle pre-swap"
    );
    assert_eq!(session.database_generation(), 0);

    // Swap to the grown reference set, resharded three ways.
    let oracle1 = build_db(&species_of(&all), &all);
    let plan1 = ShardPlan::round_robin(all.len(), 3).unwrap();
    assert_eq!(
        engine.reload_backend(HostBackend::new(Arc::new(
            oracle1.repartition(&plan1).unwrap()
        ))),
        1
    );

    assert_eq!(
        session.classify_batch(&reads),
        Classifier::new(&oracle1).classify_batch(&reads),
        "sharded serving diverged from the unsharded oracle post-swap"
    );
    assert_eq!(session.database_generation(), 1);
}
