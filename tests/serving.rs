//! Integration tests of the persistent serving engine: many concurrent
//! sessions over one shared `Arc<Database>` and one long-lived worker pool,
//! each bit-identical (including order) to `Classifier::classify_batch`;
//! panic isolation (a panicking sink or a panicking backend worker never
//! deadlocks other sessions); graceful shutdown with idle drain.

use std::sync::Arc;

use mc_gpu_sim::MultiGpuSystem;
use mc_seqio::SequenceRecord;
use mc_taxonomy::{Rank, Taxonomy};
use metacache::backend::{Backend, BackendWorker, GpuBackend, HostBackend};
use metacache::build::{CpuBuilder, GpuBuilder};
use metacache::classify::Classification;
use metacache::query::Classifier;
use metacache::serving::{EngineConfig, OutputKind, ServingEngine, SessionConfig};
use metacache::{Database, MetaCacheConfig};

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

/// One shared two-species database plus its genomes.
fn shared_database() -> (Arc<Database>, &'static [Vec<u8>]) {
    use std::sync::OnceLock;
    static DB: OnceLock<(Arc<Database>, Vec<Vec<u8>>)> = OnceLock::new();
    let (db, genomes) = DB.get_or_init(|| {
        let mut taxonomy = Taxonomy::with_root();
        taxonomy.add_node(10, 1, Rank::Genus, "G").unwrap();
        taxonomy.add_node(100, 10, Rank::Species, "G a").unwrap();
        taxonomy.add_node(101, 10, Rank::Species, "G b").unwrap();
        let genomes = vec![make_seq(18_000, 31), make_seq(18_000, 32)];
        let mut builder = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy);
        builder
            .add_target(SequenceRecord::new("refA", genomes[0].clone()), 100)
            .unwrap();
        builder
            .add_target(SequenceRecord::new("refB", genomes[1].clone()), 101)
            .unwrap();
        (Arc::new(builder.finish()), genomes)
    });
    (Arc::clone(db), genomes)
}

/// A mixed per-session read set (genome reads, foreign reads, short reads,
/// empty records), deterministically derived from `seed`.
fn mixed_reads(n: usize, seed: u64) -> Vec<SequenceRecord> {
    let (_, genomes) = shared_database();
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
                    let genome = &genomes[i % 2];
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

/// The acceptance criterion: one engine, ≥ 4 concurrent sessions with
/// interleaving batches, every session's results bit-identical (including
/// order) to `classify_batch` on its own reads.
#[test]
fn concurrent_sessions_are_bit_identical_to_classify_batch() {
    let (db, _) = shared_database();
    let engine = ServingEngine::host_with_config(
        Arc::clone(&db),
        EngineConfig {
            workers: 4,
            queue_capacity: 2,
            batch_records: 5, // small batches force interleaving across sessions
            session_max_in_flight: 0,
        },
    );
    let sessions = 6;
    let classifier = Classifier::new(Arc::clone(&db));
    let expected: Vec<(Vec<SequenceRecord>, Vec<Classification>)> = (0..sessions)
        .map(|s| {
            let reads = mixed_reads(60 + s * 7, 1000 + s as u64);
            let want = classifier.classify_batch(&reads);
            (reads, want)
        })
        .collect();

    std::thread::scope(|scope| {
        for (s, (reads, want)) in expected.iter().enumerate() {
            let engine = &engine;
            scope.spawn(move || {
                let mut session = engine.session();
                // Stream twice through the same warm session: results must be
                // identical both times and in exact input order.
                for round in 0..2 {
                    let (got, summary) = session.classify_iter(reads.iter().cloned());
                    assert_eq!(&got, want, "session {s} round {round} diverged");
                    assert_eq!(summary.records, reads.len() as u64);
                    assert!(
                        summary.peak_resident_batches
                            <= engine.config().effective_session_in_flight() as u64,
                        "session {s} exceeded its resident-batch bound"
                    );
                }
            });
        }
    });

    let stats = engine.shutdown();
    assert_eq!(stats.sessions_opened, sessions as u64);
    let total: u64 = expected.iter().map(|(r, _)| 2 * r.len() as u64).sum();
    assert_eq!(stats.records_classified, total);
    assert_eq!(stats.worker_panics, 0);
}

/// A sink that panics kills only its own session: concurrent sessions finish
/// with correct results, and the engine accepts new sessions afterwards.
#[test]
fn panicking_sink_does_not_deadlock_other_sessions() {
    let (db, _) = shared_database();
    let engine = ServingEngine::host_with_config(
        Arc::clone(&db),
        EngineConfig {
            workers: 2,
            queue_capacity: 1,
            batch_records: 1, // more batches than credits: the panicking
            // session holds in-flight work when it dies
            session_max_in_flight: 2,
        },
    );
    let reads = mixed_reads(40, 77);
    let expected = Classifier::new(Arc::clone(&db)).classify_batch(&reads);

    std::thread::scope(|scope| {
        // The victim: panics in its sink mid-stream.
        let engine_ref = &engine;
        let reads_ref = &reads;
        let expected_ref = &expected;
        let victim = scope.spawn(move || {
            let mut session = engine_ref.session();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.classify_stream(
                    reads_ref
                        .iter()
                        .cloned()
                        .map(Ok::<_, std::convert::Infallible>),
                    |index, _, _| {
                        if index == 5 {
                            panic!("sink failure");
                        }
                    },
                )
            }));
            assert!(result.is_err(), "sink panic must propagate to its caller");
            // Reusing the SAME session after the caught panic must discard
            // the abandoned stream's in-flight batches — the new stream's
            // results may not be prepended with stale ones.
            let (got, summary) = session.classify_iter(reads_ref.iter().cloned());
            assert_eq!(
                &got, expected_ref,
                "stale batches leaked into reused session"
            );
            assert_eq!(summary.records, reads_ref.len() as u64);
        });
        // Healthy concurrent sessions complete with correct results.
        for _ in 0..3 {
            let expected = &expected;
            scope.spawn(move || {
                let mut session = engine_ref.session();
                let (got, _) = session.classify_iter(reads_ref.iter().cloned());
                assert_eq!(&got, expected);
            });
        }
        victim.join().unwrap();
    });

    // The engine is still healthy for new sessions.
    let mut session = engine.session();
    let (got, _) = session.classify_iter(reads.iter().cloned());
    assert_eq!(got, Classifier::new(Arc::clone(&db)).classify_batch(&reads));
    drop(session);
    engine.shutdown();
}

/// A backend whose workers panic on a marked record — exercises worker
/// replacement and per-session failure reporting through the public trait,
/// over any inner backend (host, sharded, …).
struct FaultInjectingBackend<B> {
    inner: B,
}

struct FaultInjectingWorker<'b> {
    inner: Box<dyn BackendWorker + 'b>,
}

impl<B: Backend> Backend for FaultInjectingBackend<B> {
    fn database(&self) -> &Database {
        self.inner.database()
    }

    fn name(&self) -> &'static str {
        "fault-injecting"
    }

    fn worker(&self) -> Box<dyn BackendWorker + '_> {
        Box::new(FaultInjectingWorker {
            inner: self.inner.worker(),
        })
    }
}

impl BackendWorker for FaultInjectingWorker<'_> {
    fn candidates_each(
        &mut self,
        records: &[SequenceRecord],
        emit: &mut dyn FnMut(&metacache::CandidateList),
    ) {
        if records.iter().any(|r| r.header.starts_with("poison")) {
            panic!("injected backend fault");
        }
        self.inner.candidates_each(records, emit);
    }
}

/// A panicking backend worker is replaced, the failure surfaces in the
/// owning session (as a panic on its thread), other sessions keep working,
/// and the engine records the replacement.
#[test]
fn worker_panic_is_isolated_and_reported() {
    let (db, _) = shared_database();
    let engine = ServingEngine::new(
        FaultInjectingBackend {
            inner: HostBackend::new(Arc::clone(&db)),
        },
        EngineConfig {
            workers: 2,
            queue_capacity: 2,
            batch_records: 4,
            session_max_in_flight: 0,
        },
    );
    let clean = mixed_reads(30, 5);
    let expected = Classifier::new(Arc::clone(&db)).classify_batch(&clean);

    // Suppress the injected panic's default backtrace spam.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    std::thread::scope(|scope| {
        let engine_ref = &engine;
        let clean_ref = &clean;
        let expected_for_victim = &expected;
        scope.spawn(move || {
            let mut session = engine_ref.session();
            let mut poisoned = clean_ref.clone();
            poisoned[12] = SequenceRecord::new("poison", clean_ref[12].sequence.clone());
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.classify_batch(&poisoned)
            }));
            assert!(result.is_err(), "worker fault must surface in its session");
            // The same session recovers: the failed request's leftovers are
            // discarded and a clean request classifies correctly.
            let got = session.classify_batch(clean_ref);
            assert_eq!(
                &got, expected_for_victim,
                "reused session after worker fault returned stale results"
            );
            // The other output kind fails the same way — candidates ride
            // the same loop, so a fault on a candidates batch is caught,
            // flagged and carries no partial lists.
            session
                .try_submit_owned(poisoned[10..14].to_vec(), OutputKind::Candidates)
                .expect("an idle session has credits");
            let done = loop {
                match session.try_drain_owned() {
                    Some(done) => break done,
                    None => std::thread::yield_now(),
                }
            };
            assert!(done.panicked, "candidates batch fault must be flagged");
            assert!(done.candidates.is_empty() && done.classifications.is_empty());
            assert_eq!(done.records, poisoned[10..14]);
        });
        let expected_ref = &expected;
        scope.spawn(move || {
            let mut session = engine_ref.session();
            let (got, _) = session.classify_iter(clean_ref.iter().cloned());
            assert_eq!(
                &got, expected_ref,
                "healthy session affected by worker fault"
            );
        });
    });
    std::panic::set_hook(prev_hook);

    // The pool replaced the worker and keeps serving.
    let mut session = engine.session();
    let (got, _) = session.classify_iter(clean.iter().cloned());
    assert_eq!(got, expected);
    drop(session);
    let stats = engine.shutdown();
    assert!(stats.worker_panics >= 2, "worker replacements not recorded");
}

/// `shutdown()` drains everything already submitted (idle drain): the
/// returned stats account for every record of every completed session.
#[test]
fn shutdown_drains_in_flight_work() {
    let (db, _) = shared_database();
    let engine = ServingEngine::host_with_config(
        Arc::clone(&db),
        EngineConfig {
            workers: 3,
            queue_capacity: 2,
            batch_records: 2,
            session_max_in_flight: 0,
        },
    );
    let reads = mixed_reads(50, 9);
    let expected = Classifier::new(Arc::clone(&db)).classify_batch(&reads);
    let mut session = engine.session();
    let (got, summary) = session.classify_iter(reads.iter().cloned());
    assert_eq!(got, expected);
    drop(session);
    let stats = engine.shutdown();
    assert_eq!(stats.records_classified, reads.len() as u64);
    assert_eq!(stats.batches_classified, summary.batches);
    assert_eq!(stats.workers, 3);
}

/// The GPU backend behind the engine produces the same classifications as
/// the host path, with batches issued round-robin across devices.
#[test]
fn gpu_engine_matches_host_engine_and_classify_batch() {
    let (_, genomes) = shared_database();
    // A GPU-built (partitioned, multi-bucket) database on 2 devices.
    let mut taxonomy = Taxonomy::with_root();
    taxonomy.add_node(10, 1, Rank::Genus, "G").unwrap();
    taxonomy.add_node(100, 10, Rank::Species, "G a").unwrap();
    taxonomy.add_node(101, 10, Rank::Species, "G b").unwrap();
    let system = Arc::new(MultiGpuSystem::dgx1(2));
    let mut builder = GpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy, &system, 200_000)
        .expect("tables fit");
    builder
        .add_target(SequenceRecord::new("refA", genomes[0].clone()), 100)
        .unwrap();
    builder
        .add_target(SequenceRecord::new("refB", genomes[1].clone()), 101)
        .unwrap();
    let db = Arc::new(builder.finish());
    let reads = mixed_reads(45, 123);
    let expected = Classifier::new(Arc::clone(&db)).classify_batch(&reads);

    let engine = ServingEngine::new(
        GpuBackend::new(Arc::clone(&db), Arc::clone(&system)),
        EngineConfig {
            workers: 2,
            queue_capacity: 2,
            batch_records: 6,
            session_max_in_flight: 0,
        },
    );
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let engine = &engine;
            let reads = &reads;
            let expected = &expected;
            scope.spawn(move || {
                let mut session = engine.session();
                let (got, _) = session.classify_iter(reads.iter().cloned());
                assert_eq!(&got, expected);
            });
        }
    });
    assert_eq!(engine.backend_name(), "gpu-sim");
    engine.shutdown();
}

/// Sessions opened with explicit per-session overrides keep their own
/// bounds; many short requests through one session reuse the warm pool.
#[test]
fn per_session_overrides_and_request_reuse() {
    let (db, _) = shared_database();
    let engine = ServingEngine::new(HostBackend::new(Arc::clone(&db)), EngineConfig::default());
    let mut session = engine.session_with(SessionConfig {
        batch_records: 2,
        max_in_flight: 1,
        ..SessionConfig::default()
    });
    let reads = mixed_reads(20, 40);
    let classifier = Classifier::new(Arc::clone(&db));
    for chunk in reads.chunks(6) {
        let got = session.classify_batch(chunk);
        assert_eq!(got, classifier.classify_batch(chunk));
    }
    // max_in_flight 1 serialises batches: peak must be exactly 1.
    let (_, summary) = session.classify_iter(reads.iter().cloned());
    assert_eq!(summary.peak_resident_batches, 1);
}

/// Rebuild the shared fixture database as an owned value (deterministic, so
/// bit-identical to [`shared_database`]'s) — the shard split consumes it.
fn owned_database() -> Database {
    let mut taxonomy = Taxonomy::with_root();
    taxonomy.add_node(10, 1, Rank::Genus, "G").unwrap();
    taxonomy.add_node(100, 10, Rank::Species, "G a").unwrap();
    taxonomy.add_node(101, 10, Rank::Species, "G b").unwrap();
    let (_, genomes) = shared_database();
    let mut builder = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy);
    builder
        .add_target(SequenceRecord::new("refA", genomes[0].clone()), 100)
        .unwrap();
    builder
        .add_target(SequenceRecord::new("refB", genomes[1].clone()), 101)
        .unwrap();
    builder.finish()
}

/// The sharded backend behind the engine mirrors the GPU-parity test: N
/// concurrent sessions over a scatter-gather backend are bit-identical to
/// the unsharded in-process classifier.
#[test]
fn sharded_engine_matches_unsharded_sessions() {
    let (db, _) = shared_database();
    let reads = mixed_reads(45, 321);
    let expected = Classifier::new(Arc::clone(&db)).classify_batch(&reads);
    let split = Arc::new(metacache::ShardedDatabase::round_robin(owned_database(), 2).unwrap());

    let engine = ServingEngine::new(
        HostBackend::new(Arc::clone(&split)),
        EngineConfig {
            workers: 2,
            queue_capacity: 2,
            batch_records: 6,
            session_max_in_flight: 0,
        },
    );
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let engine = &engine;
            let reads = &reads;
            let expected = &expected;
            scope.spawn(move || {
                let mut session = engine.session();
                let (got, _) = session.classify_iter(reads.iter().cloned());
                assert_eq!(&got, expected);
            });
        }
    });
    assert_eq!(engine.backend_name(), "sharded-host");
    // The engine's serving metadata is the table-free view: full targets,
    // no partitions.
    let epoch = engine.pin_epoch();
    assert_eq!(epoch.database().target_count(), 2);
    assert_eq!(epoch.database().partition_count(), 0);
    let stats = engine.shutdown();
    assert_eq!(stats.worker_panics, 0);
}

/// A panicking shard worker is isolated exactly like a panicking host
/// worker: the failure surfaces in the owning session, the worker is
/// replaced, concurrent sessions and later requests are unaffected.
#[test]
fn sharded_worker_panic_is_isolated() {
    let (db, _) = shared_database();
    let clean = mixed_reads(30, 15);
    let expected = Classifier::new(Arc::clone(&db)).classify_batch(&clean);
    let split = Arc::new(metacache::ShardedDatabase::round_robin(owned_database(), 3).unwrap());

    let engine = ServingEngine::new(
        FaultInjectingBackend {
            inner: HostBackend::new(split),
        },
        EngineConfig {
            workers: 2,
            queue_capacity: 2,
            batch_records: 4,
            session_max_in_flight: 0,
        },
    );

    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    std::thread::scope(|scope| {
        let engine_ref = &engine;
        let clean_ref = &clean;
        let expected_for_victim = &expected;
        scope.spawn(move || {
            let mut session = engine_ref.session();
            let mut poisoned = clean_ref.clone();
            poisoned[7] = SequenceRecord::new("poison", clean_ref[7].sequence.clone());
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.classify_batch(&poisoned)
            }));
            assert!(result.is_err(), "shard worker fault must surface");
            let got = session.classify_batch(clean_ref);
            assert_eq!(&got, expected_for_victim, "stale results after fault");
        });
        let expected_ref = &expected;
        scope.spawn(move || {
            let mut session = engine_ref.session();
            let (got, _) = session.classify_iter(clean_ref.iter().cloned());
            assert_eq!(&got, expected_ref, "healthy session affected");
        });
    });
    std::panic::set_hook(prev_hook);

    let mut session = engine.session();
    let (got, _) = session.classify_iter(clean.iter().cloned());
    assert_eq!(got, expected);
    drop(session);
    let stats = engine.shutdown();
    assert!(stats.worker_panics >= 1, "replacement not recorded");
}
