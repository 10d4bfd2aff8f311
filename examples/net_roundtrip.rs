//! Network serving round-trip: a TCP server over a resident engine, three
//! concurrent clients, results verified bit-identical to the in-process
//! classifier.
//!
//! Builds a small reference database, starts a [`metacache::serving::ServingEngine`]
//! with an [`mc_net::NetServer`] front-end on an ephemeral loopback port,
//! and serves three concurrent [`mc_net::NetClient`]s — the full
//! socket → session → worker-pool → socket path of `docs/SERVING.md`.
//!
//! Run with: `cargo run --release --example net_roundtrip`

use std::sync::Arc;

use mc_net::{NetClient, NetServer};
use mc_seqio::SequenceRecord;
use mc_taxonomy::{Rank, Taxonomy};
use metacache::build::CpuBuilder;
use metacache::query::Classifier;
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
    // 1. Build a two-species database and put a resident engine over it.
    let mut taxonomy = Taxonomy::with_root();
    taxonomy.add_node(10, 1, Rank::Genus, "Exemplar").unwrap();
    taxonomy
        .add_node(100, 10, Rank::Species, "Exemplar alpha")
        .unwrap();
    taxonomy
        .add_node(101, 10, Rank::Species, "Exemplar beta")
        .unwrap();
    let genomes = [synthetic_genome(30_000, 7), synthetic_genome(30_000, 8)];
    let mut builder = CpuBuilder::new(MetaCacheConfig::default(), taxonomy);
    builder
        .add_target(SequenceRecord::new("alpha", genomes[0].clone()), 100)
        .unwrap();
    builder
        .add_target(SequenceRecord::new("beta", genomes[1].clone()), 101)
        .unwrap();
    let db = Arc::new(builder.finish());
    let engine = ServingEngine::host_with_config(
        Arc::clone(&db),
        EngineConfig {
            workers: 2,
            queue_capacity: 4,
            batch_records: 32,
            session_max_in_flight: 0,
        },
    );

    // 2. Bind the TCP front-end on an ephemeral loopback port.
    let server = NetServer::bind(&engine, "127.0.0.1:0").expect("bind loopback");
    let handle = server.handle();
    let addr = handle.local_addr();
    println!("serving on {addr} (backend: {})", engine.backend_name());

    // 3. Three concurrent clients stream their own read sets.
    std::thread::scope(|scope| {
        scope.spawn(|| server.run().expect("server run"));

        let workers: Vec<_> = (0..3)
            .map(|c| {
                let db = Arc::clone(&db);
                let genomes = &genomes;
                scope.spawn(move || {
                    let reads: Vec<SequenceRecord> = (0..300)
                        .map(|i| {
                            let genome = &genomes[(c + i) % 2];
                            let offset = (c * 1000 + i * 83) % (genome.len() - 160);
                            SequenceRecord::new(
                                format!("c{c}_r{i}"),
                                genome[offset..offset + 150].to_vec(),
                            )
                        })
                        .collect();
                    let expected = Classifier::new(db).classify_batch(&reads);

                    let mut client = NetClient::connect(addr).expect("connect");
                    let (got, summary) = client
                        .classify_iter(reads.iter().cloned())
                        .expect("classify over the wire");
                    assert_eq!(got, expected, "network results diverged");
                    let classified = got.iter().filter(|r| r.is_classified()).count();
                    println!(
                        "client {c}: {} reads in {} requests (peak {} in flight, credits {}), \
                         {classified} classified — bit-identical to in-process",
                        summary.reads,
                        summary.requests,
                        summary.peak_in_flight,
                        client.credits()
                    );
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }

        // 4. Graceful drain: server first, then the engine.
        handle.shutdown();
    });
    let stats = engine.shutdown();
    println!(
        "engine drained: {} records over {} sessions, {} worker panics",
        stats.records_classified, stats.sessions_opened, stats.worker_panics
    );
}
