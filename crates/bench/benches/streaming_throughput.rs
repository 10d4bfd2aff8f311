//! Streaming vs materialised read-classification throughput (reads/sec).
//!
//! Same database and reads as `query_throughput`. Both paths consume the
//! same record *source* (an iterator cloning from a resident corpus — the
//! cheapest source possible, so the comparison isolates the pipelines):
//!
//! * `materialised_classify_batch` — the PR 1 path applied to a stream:
//!   collect the source into a `Vec`, then fan it across rayon workers
//!   ([`metacache::query::Classifier::classify_batch`]). Memory is O(input).
//! * `streaming_pipeline` — the bounded-memory pipeline
//!   ([`metacache::pipeline::StreamingClassifier`]): the calling thread
//!   feeds batches through a resident engine's bounded queue, pool workers
//!   classify with per-worker scratch, results are re-ordered by sequence
//!   number. Memory is
//!   O(batch × (queue_capacity + workers)) — this is the serving-path
//!   configuration, and the acceptance criterion compares it against the
//!   materialised baseline (target: no regression below the PR 1 313k reads/s
//!   floor).
//! * `streaming_small_batches` — the same pipeline at batch size 128, showing
//!   the per-batch overhead amortisation.
//!
//! Run with `BENCH_JSON=BENCH_streaming.json cargo bench -p mc-bench --bench
//! streaming_throughput` to record the measurements.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use mc_datagen::community::{RefSeqLikeSpec, ReferenceCollection};
use mc_datagen::profiles::DatasetProfile;
use mc_datagen::reads::ReadSimulator;
use mc_datagen::taxonomy_gen::TaxonomySpec;
use metacache::build::CpuBuilder;
use metacache::pipeline::StreamingClassifier;
use metacache::query::Classifier;
use metacache::serving::EngineConfig;
use metacache::{Database, MetaCacheConfig};

fn community() -> ReferenceCollection {
    ReferenceCollection::refseq_like(RefSeqLikeSpec {
        taxonomy: TaxonomySpec {
            genera: 6,
            species_per_genus: 3,
            families: 3,
        },
        genome_length: 40_000,
        strains_per_species: 1,
        seed: 2024,
    })
}

fn build_database(collection: &ReferenceCollection) -> Database {
    let mut builder = CpuBuilder::new(MetaCacheConfig::default(), collection.taxonomy.clone());
    for target in &collection.targets {
        builder
            .add_target(target.to_record(), target.taxon)
            .expect("valid targets");
    }
    builder.finish()
}

fn bench_streaming_throughput(c: &mut Criterion) {
    let collection = community();
    let db = Arc::new(build_database(&collection));
    let classifier = Classifier::new(Arc::clone(&db));
    let reads = ReadSimulator::new(DatasetProfile::hiseq(), 2_000)
        .with_seed(7)
        .simulate(&collection)
        .reads;

    let streaming = StreamingClassifier::new(Arc::clone(&db));
    let small_batches = StreamingClassifier::with_config(
        db,
        EngineConfig {
            batch_records: 128,
            ..EngineConfig::default()
        },
    );

    // The streaming path must not change any classification.
    let materialised = classifier.classify_batch(&reads);
    let (streamed, _) = streaming.classify_iter(reads.iter().cloned());
    assert_eq!(
        materialised, streamed,
        "streaming diverged from materialised"
    );

    let mut group = c.benchmark_group("streaming_throughput");
    group.throughput(Throughput::Elements(reads.len() as u64));
    group.bench_function("materialised_classify_batch", |b| {
        b.iter(|| {
            // Materialise the source, then classify the resident slice.
            let collected = reads.to_vec();
            classifier
                .classify_batch(&collected)
                .iter()
                .filter(|c| c.is_classified())
                .count()
        })
    });
    group.bench_function("streaming_pipeline", |b| {
        b.iter(|| {
            let (out, _) = streaming.classify_iter(reads.iter().cloned());
            out.iter().filter(|c| c.is_classified()).count()
        })
    });
    group.bench_function("streaming_small_batches", |b| {
        b.iter(|| {
            let (out, _) = small_batches.classify_iter(reads.iter().cloned());
            out.iter().filter(|c| c.is_classified()).count()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_streaming_throughput
}
criterion_main!(benches);
