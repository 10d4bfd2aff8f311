//! Integration tests of the streaming query pipeline: equivalence with the
//! materialised path under arbitrary batch-size splits (including output
//! order), bounded memory, degenerate-read handling across all paths, file
//! streaming, and what the resident pool behind `StreamingClassifier` adds
//! (reuse after a panicked stream, concurrent callers, no per-call threads).

use std::sync::Arc;

use proptest::prelude::*;

use mc_gpu_sim::MultiGpuSystem;
use mc_seqio::{BatchQueue, SequenceRecord};
use mc_taxonomy::{Rank, Taxonomy};
use metacache::build::{CpuBuilder, GpuBuilder};
use metacache::gpu::GpuClassifier;
use metacache::pipeline::StreamingClassifier;
use metacache::query::Classifier;
use metacache::serving::EngineConfig;
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

/// One shared two-species database plus its genomes (building per case would
/// dominate the runtime).
fn shared_database() -> (&'static Database, &'static [Vec<u8>]) {
    use std::sync::OnceLock;
    static DB: OnceLock<(Database, Vec<Vec<u8>>)> = OnceLock::new();
    let (db, genomes) = DB.get_or_init(|| {
        let mut taxonomy = Taxonomy::with_root();
        taxonomy.add_node(10, 1, Rank::Genus, "G").unwrap();
        taxonomy.add_node(100, 10, Rank::Species, "G a").unwrap();
        taxonomy.add_node(101, 10, Rank::Species, "G b").unwrap();
        let genomes = vec![make_seq(18_000, 21), make_seq(18_000, 22)];
        let mut builder = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy);
        builder
            .add_target(SequenceRecord::new("refA", genomes[0].clone()), 100)
            .unwrap();
        builder
            .add_target(SequenceRecord::new("refB", genomes[1].clone()), 101)
            .unwrap();
        (builder.finish(), genomes)
    });
    (db, genomes)
}

/// A mixed read set: genome-derived reads, foreign reads, short reads and
/// empty records, deterministically derived from `seed`.
fn mixed_reads(n: usize, seed: u64) -> Vec<SequenceRecord> {
    let (_, genomes) = shared_database();
    let mut state = seed | 1;
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let roll = (state >> 33) % 10;
            match roll {
                // Empty record.
                0 => SequenceRecord::new(format!("empty{i}"), Vec::new()),
                // Shorter than k.
                1 => SequenceRecord::new(format!("tiny{i}"), genomes[0][..6].to_vec()),
                // Foreign (unrelated) read.
                2 => SequenceRecord::new(format!("alien{i}"), make_seq(130, state)),
                // Genome-derived read, alternating species.
                _ => {
                    let genome = &genomes[i % 2];
                    let offset = (state as usize >> 7) % (genome.len() - 150);
                    SequenceRecord::new(format!("r{i}"), genome[offset..offset + 150].to_vec())
                }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance property: any batch-size split of any record stream
    /// produces classifications identical to the materialised path, in the
    /// same order.
    #[test]
    fn streaming_equals_materialised_for_any_split(
        n in 0usize..80,
        seed in any::<u64>(),
        batch_records in 1usize..40,
        queue_capacity in 1usize..5,
        workers in 1usize..5,
    ) {
        let (db, _) = shared_database();
        let reads = mixed_reads(n, seed);
        let materialised = Classifier::new(db).classify_batch(&reads);
        let streaming = StreamingClassifier::with_config(
            db,
            EngineConfig { batch_records, queue_capacity, workers, ..EngineConfig::default() },
        );
        let (streamed, summary) = streaming.classify_iter(reads.iter().cloned());
        prop_assert_eq!(streamed, materialised);
        prop_assert_eq!(summary.records, n as u64);
        prop_assert!(
            summary.peak_resident_batches
                <= streaming.config().effective_session_in_flight() as u64
        );
    }
}

#[test]
fn streaming_holds_at_most_capacity_batches_in_queue() {
    // Strict channel-level bound: with capacity C and no consumer, the C+1-th
    // send blocks, so the queue can never hold more than C batches.
    const CAPACITY: usize = 2;
    let queue = BatchQueue::new(CAPACITY, 4);
    let stats = queue.stats();
    let (tx, rx) = queue.split();
    let producer = std::thread::spawn(move || {
        tx.send_all((0..40).map(|i| SequenceRecord::new(format!("r{i}"), b"ACGT".to_vec())))
            .unwrap();
    });
    while stats.batches_sent() < CAPACITY as u64 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    std::thread::sleep(std::time::Duration::from_millis(20));
    assert!(
        !producer.is_finished(),
        "producer must block once the queue holds `capacity` batches"
    );
    assert_eq!(stats.batches_sent(), CAPACITY as u64);
    let drained: usize = rx.iter().map(|b| b.len()).sum();
    producer.join().unwrap();
    assert_eq!(drained, 40);
}

#[test]
fn streaming_pipeline_memory_stays_bounded() {
    // Pipeline-level bound: over a long stream the credit scheme keeps
    // resident batches at `queue_capacity + workers` even though 100x more
    // batches flow through.
    let (db, _) = shared_database();
    let config = EngineConfig {
        batch_records: 2,
        queue_capacity: 2,
        workers: 3,
        ..EngineConfig::default()
    };
    let streaming = StreamingClassifier::with_config(db, config);
    let reads = mixed_reads(600, 77);
    let (out, summary) = streaming.classify_iter(reads.iter().cloned());
    assert_eq!(out.len(), 600);
    assert_eq!(summary.batches, 300);
    assert!(
        summary.peak_resident_batches <= config.effective_session_in_flight() as u64,
        "peak resident {} exceeds bound {}",
        summary.peak_resident_batches,
        config.effective_session_in_flight()
    );
    assert!(
        summary.peak_queue_batches <= config.queue_capacity as u64,
        "peak queue gauge {} exceeds the fair queue's capacity",
        summary.peak_queue_batches
    );
}

#[test]
fn short_and_empty_reads_classify_identically_on_every_path() {
    // Regression: a read shorter than k (or empty) must be unclassified on
    // the materialised host path, the streaming path and the GPU path alike.
    let (db, genomes) = shared_database();
    let k = db.config.kmer_len as usize;
    let degenerate = vec![
        SequenceRecord::new("empty", Vec::new()),
        SequenceRecord::new("one_base", b"A".to_vec()),
        SequenceRecord::new("k_minus_1", genomes[0][..k - 1].to_vec()),
        // Exactly k: one k-mer, sketchable but far below min_hits.
        SequenceRecord::new("exactly_k", genomes[0][..k].to_vec()),
        // A normal read sandwiched between degenerates to catch off-by-one
        // batching bugs.
        SequenceRecord::new("normal", genomes[0][400..550].to_vec()),
        SequenceRecord::new("empty2", Vec::new()),
    ];

    let materialised = Classifier::new(db).classify_batch(&degenerate);
    for batch_records in [1, 2, 6] {
        let streaming = StreamingClassifier::with_config(
            db,
            EngineConfig {
                batch_records,
                queue_capacity: 2,
                workers: 2,
                ..EngineConfig::default()
            },
        );
        let (streamed, _) = streaming.classify_iter(degenerate.iter().cloned());
        assert_eq!(streamed, materialised, "batch_records={batch_records}");
    }
    for (record, c) in degenerate.iter().zip(&materialised) {
        if record.len() < k {
            assert!(
                !c.is_classified(),
                "read {:?} shorter than k must be unclassified",
                record.header
            );
        }
    }
    assert!(materialised[4].is_classified(), "normal read classifies");

    // The GPU pipeline agrees on the same records.
    let system = MultiGpuSystem::dgx1(2);
    let (gpu, _) = GpuClassifier::new(db, &system).classify_all(&degenerate);
    assert_eq!(gpu, materialised, "GPU path diverges on degenerate reads");
}

#[test]
fn classify_file_streams_fasta_and_fastq() {
    let (db, genomes) = shared_database();
    let dir = std::env::temp_dir().join("metacache_streaming_file_test");
    std::fs::create_dir_all(&dir).unwrap();

    let reads: Vec<SequenceRecord> = (0..30)
        .map(|i| {
            let genome = &genomes[i % 2];
            SequenceRecord::new(format!("r{i}"), genome[200 + i * 31..350 + i * 31].to_vec())
        })
        .collect();
    let materialised = Classifier::new(db).classify_batch(&reads);

    // FASTA.
    let fa_path = dir.join("reads.fa");
    std::fs::write(&fa_path, mc_seqio::fasta::to_string(&reads)).unwrap();
    let streaming = StreamingClassifier::with_config(
        db,
        EngineConfig {
            batch_records: 7,
            queue_capacity: 2,
            workers: 3,
            ..EngineConfig::default()
        },
    );
    let (from_file, summary) = streaming.classify_file(&fa_path).unwrap();
    assert_eq!(from_file, materialised);
    assert_eq!(summary.records, 30);

    // FASTQ (qualities do not affect classification).
    let fq_path = dir.join("reads.fq");
    let fq_records: Vec<SequenceRecord> = reads
        .iter()
        .map(|r| {
            SequenceRecord::with_quality(
                r.header.clone(),
                r.sequence.clone(),
                vec![b'I'; r.sequence.len()],
            )
        })
        .collect();
    std::fs::write(&fq_path, mc_seqio::fastq::to_string(&fq_records)).unwrap();
    let (from_fq, _) = streaming.classify_file(&fq_path).unwrap();
    assert_eq!(from_fq, materialised);

    // A malformed file surfaces the parse error.
    let bad_path = dir.join("bad.fq");
    std::fs::write(&bad_path, "@r1\nACGT\n+\nII\n").unwrap(); // quality length mismatch
    assert!(streaming.classify_file(&bad_path).is_err());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streaming_matches_gpu_built_database() {
    // The streaming pipeline also serves databases built on the simulated
    // devices (the OTF serving scenario).
    let (_, genomes) = shared_database();
    let mut taxonomy = Taxonomy::with_root();
    taxonomy.add_node(10, 1, Rank::Genus, "G").unwrap();
    taxonomy.add_node(100, 10, Rank::Species, "G a").unwrap();
    taxonomy.add_node(101, 10, Rank::Species, "G b").unwrap();
    let system = MultiGpuSystem::dgx1(2);
    let mut builder =
        GpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy, &system, 1 << 16).expect("builder");
    builder
        .add_target(SequenceRecord::new("refA", genomes[0].clone()), 100)
        .unwrap();
    builder
        .add_target(SequenceRecord::new("refB", genomes[1].clone()), 101)
        .unwrap();
    let db = Arc::new(builder.finish());

    let reads = mixed_reads(40, 9);
    let materialised = Classifier::new(Arc::clone(&db)).classify_batch(&reads);
    let streaming = StreamingClassifier::new(db);
    let (streamed, _) = streaming.classify_iter(reads.iter().cloned());
    assert_eq!(streamed, materialised);
}

/// A pipeline shape small enough that a 40-read stream keeps batches queued,
/// on workers and in the reorder buffer all at once.
fn small_pipeline() -> StreamingClassifier {
    let (db, _) = shared_database();
    StreamingClassifier::with_config(
        db,
        EngineConfig {
            batch_records: 3,
            queue_capacity: 2,
            workers: 2,
            ..EngineConfig::default()
        },
    )
}

#[test]
fn classifier_survives_a_sink_panic_and_serves_the_next_stream() {
    let (db, _) = shared_database();
    let reads = mixed_reads(40, 31);
    let materialised = Classifier::new(db).classify_batch(&reads);
    let streaming = small_pipeline();

    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        streaming.classify_stream(
            reads.iter().cloned().map(Ok::<_, std::convert::Infallible>),
            |index, _, _| assert!(index < 5, "sink failure"),
        )
    }));
    assert!(panicked.is_err(), "sink panic must propagate to the caller");
    assert_eq!(
        streaming.engine().live_sessions(),
        0,
        "the abandoned stream's session must be gone"
    );

    // The pool is resident: the same classifier serves the next stream, and
    // nothing of the abandoned one leaks into it.
    let (streamed, summary) = streaming.classify_iter(reads.iter().cloned());
    assert_eq!(streamed, materialised);
    assert_eq!(summary.records, reads.len() as u64);
    assert_eq!(streaming.engine().live_sessions(), 0);
    assert_eq!(streaming.engine().stats().worker_panics, 0);
}

#[test]
fn concurrent_callers_share_one_classifier() {
    let (db, _) = shared_database();
    let streaming = small_pipeline();
    // Both sources stop at the barrier mid-stream, so each caller provably
    // has batches in flight while the other is still submitting.
    let midway = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for seed in [41u64, 42] {
            let (streaming, midway) = (&streaming, &midway);
            scope.spawn(move || {
                let reads = mixed_reads(40, seed);
                let materialised = Classifier::new(db).classify_batch(&reads);
                let source = reads.iter().cloned().enumerate().map(|(i, read)| {
                    if i == 20 {
                        midway.wait();
                    }
                    read
                });
                let (streamed, summary) = streaming.classify_iter(source);
                assert_eq!(streamed, materialised, "seed {seed}");
                assert_eq!(summary.records, reads.len() as u64);
            });
        }
    });
    assert_eq!(streaming.engine().live_sessions(), 0);
}

/// This process's live OS thread count (`Threads:` in /proc/self/status);
/// `None` where procfs is unavailable.
fn process_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn back_to_back_streams_leave_the_thread_count_unchanged() {
    // The count is process-wide, and the harness runs other tests (each
    // spawning pools of its own) beside this one: re-run it alone in a
    // child process, where nothing else starts or stops threads.
    let args: Vec<String> = std::env::args().collect();
    if !(args.iter().any(|a| a == "--exact") && args.iter().any(|a| a == "--test-threads=1")) {
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "back_to_back_streams_leave_the_thread_count_unchanged",
                "--exact",
                "--test-threads=1",
            ])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(
            child.status.success() && stdout.contains("1 passed"),
            "isolated run failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&child.stderr)
        );
        return;
    }

    let (db, _) = shared_database();
    let reads = mixed_reads(40, 51);
    let materialised = Classifier::new(db).classify_batch(&reads);
    let streaming = small_pipeline();
    let Some(before) = process_threads() else {
        return;
    };
    for _ in 0..50 {
        // Sampled from the record source, i.e. while the stream is in
        // flight: a per-call worker pool would show up here.
        let mut midway = None;
        let source = reads.iter().cloned().enumerate().map(|(i, read)| {
            if i == 20 {
                midway = process_threads();
            }
            read
        });
        let (streamed, _) = streaming.classify_iter(source);
        assert_eq!(streamed, materialised);
        assert_eq!(midway, Some(before), "a stream in flight added threads");
    }
    assert_eq!(process_threads(), Some(before));
}
