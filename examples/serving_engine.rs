//! Serving engine: one resident worker pool, one shared database, many
//! concurrent client sessions.
//!
//! Builds a small reference database, moves it behind an `Arc`, starts a
//! [`metacache::serving::ServingEngine`] and serves four concurrent client
//! threads, each streaming its own requests through a session — the
//! serving-system shape the ROADMAP's north star describes.
//!
//! Run with: `cargo run --release --example serving_engine`

use std::sync::Arc;

use mc_seqio::SequenceRecord;
use mc_taxonomy::{Rank, Taxonomy};
use metacache::build::CpuBuilder;
use metacache::serving::{EngineConfig, ServingEngine};
use metacache::MetaCacheConfig;

fn synthetic_genome(len: usize, seed: u64) -> Vec<u8> {
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

fn main() {
    // 1. Build a two-species database and share it.
    let mut taxonomy = Taxonomy::with_root();
    taxonomy.add_node(10, 1, Rank::Genus, "Exemplar").unwrap();
    taxonomy
        .add_node(100, 10, Rank::Species, "Exemplar alpha")
        .unwrap();
    taxonomy
        .add_node(101, 10, Rank::Species, "Exemplar beta")
        .unwrap();
    let genomes = [synthetic_genome(50_000, 1), synthetic_genome(50_000, 2)];
    let mut builder = CpuBuilder::new(MetaCacheConfig::default(), taxonomy);
    builder
        .add_target(SequenceRecord::new("alpha_ref", genomes[0].clone()), 100)
        .unwrap();
    builder
        .add_target(SequenceRecord::new("beta_ref", genomes[1].clone()), 101)
        .unwrap();
    let database = Arc::new(builder.finish());

    // 2. One resident engine: the worker pool spawns once and serves every
    //    request from the shared database.
    let engine = ServingEngine::host_with_config(
        Arc::clone(&database),
        EngineConfig {
            workers: 4,
            queue_capacity: 4,
            batch_records: 64,
            session_max_in_flight: 0,
        },
    );
    println!(
        "engine up: backend={}, {} workers, db = {} targets / {} bytes of tables",
        engine.backend_name(),
        engine.config().workers,
        database.target_count(),
        database.table_bytes()
    );

    // 3. Four concurrent clients, each with its own session and read stream.
    std::thread::scope(|scope| {
        for client in 0..4usize {
            let engine = &engine;
            let genomes = &genomes;
            scope.spawn(move || {
                let mut session = engine.session();
                let genome = &genomes[client % 2];
                let reads = (0..200).map(|i| {
                    let offset = (client * 997 + i * 211) % (genome.len() - 150);
                    SequenceRecord::new(
                        format!("c{client}_r{i}"),
                        genome[offset..offset + 150].to_vec(),
                    )
                });
                let (classifications, summary) = session.classify_iter(reads);
                let expected = if client % 2 == 0 { 100 } else { 101 };
                let correct = classifications
                    .iter()
                    .filter(|c| c.taxon == expected)
                    .count();
                println!(
                    "client {client}: {}/{} reads to taxon {expected}, \
                     peak resident batches {} (bound {})",
                    correct,
                    summary.records,
                    summary.peak_resident_batches,
                    engine.config().effective_session_in_flight()
                );
            });
        }
    });

    // 4. Graceful shutdown: drain in-flight work, join the pool.
    let stats = engine.shutdown();
    println!(
        "engine down: {} sessions served, {} batches / {} records classified, \
         {} worker panics",
        stats.sessions_opened,
        stats.batches_classified,
        stats.records_classified,
        stats.worker_panics
    );
}
