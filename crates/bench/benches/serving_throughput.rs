//! Serving-engine throughput: request-shaped workloads over a resident
//! worker pool vs a pool spawned per request.
//!
//! Same database/read corpus family as `streaming_throughput`, but the
//! workload is *many small requests* (the serving shape) instead of one big
//! stream, measured over a sessions × workers grid:
//!
//! * `spawn_per_request_w{N}` — a fresh `StreamingClassifier` per request:
//!   every request pays an engine's worker-pool spawn/join (~0.2 ms) and
//!   cold worker scratch.
//! * `engine_session_w{N}` — one resident [`ServingEngine`] with `N`
//!   long-lived workers; one warm session submits the same requests. The
//!   spawn overhead is paid once at engine startup and amortised across all
//!   requests.
//! * `engine_sessions{S}_w{N}` — `S` concurrent client sessions on `S`
//!   threads multiplex the same total work over one shared engine and one
//!   shared `Arc<Database>`.
//! * `engine_one_stream_w{N}` — a single big stream through a session, for
//!   direct comparison against `streaming_throughput`'s 317k reads/s floor.
//!
//! A second group, `serving_net`, puts the `mc-net` TCP front-end on top of
//! the same engine and drives the identical request workload over loopback:
//!
//! * `in_process_w{N}` — the engine-session baseline the protocol is
//!   measured against (same path as `engine_session_w{N}`).
//! * `net_loopback_w{N}` — one `NetClient`, one `ClassifyPacked` frame per
//!   request; the delta to `in_process_w{N}` is the full protocol cost
//!   (framing, packing, loopback TCP, the event loop).
//! * `net_stream_w{N}` — the same reads through `NetClient::classify_iter`,
//!   pipelined across the connection's credit window.
//! * `encode_requests_packed` — pure encoding cost of the request frame,
//!   plus `raw_bytes_per_read` / `wire_bytes_per_read_packed` /
//!   `wire_compression_*` gauges recording the packed encoding's
//!   request-bandwidth win over the raw record bytes (≥ 3× on ACGT payloads
//!   is asserted).
//! * `overload_*` gauges — clients offering ~2× the server's
//!   `max_inflight_records` capacity: the shed rate, the latency of served
//!   requests, and the (fast-fail) latency of a `Busy` answer. Records what
//!   load shedding buys over unbounded queueing: the server keeps serving
//!   at capacity and refusals come back in microseconds.
//!
//! A third group, `serving_sharded`, measures the scatter-gather layer over
//! a shards × workers grid:
//!
//! * `sharded_s{S}_w{W}` — the identical request workload through a
//!   [`ShardedBackend`] engine over an `S`-way
//!   [`ShardedDatabase`] split with `W` workers; `s1` is the merge layer's
//!   fixed cost over `engine_session_w{W}`, and larger `S` shows the
//!   scatter-gather overhead staying bounded while the per-shard table
//!   (the `sharded_max_shard_table_bytes_s{S}` gauge — the paper's
//!   per-device memory) shrinks near-linearly.
//!
//! A fourth group, `serving_reload`, records live-reload gauges from the
//! `serving_reload` experiment: the publish latency of each epoch swap
//! (`swap_publish_us_*`) and the throughput dip of a reload phase
//! relative to steady state, with per-generation identity asserted.
//!
//! Run with `BENCH_JSON=BENCH_serving.json cargo bench -p mc-bench --bench
//! serving_throughput` to record the measurements.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mc_net::{protocol, NetClient, NetError, NetServer, ServerConfig};

use mc_datagen::community::{RefSeqLikeSpec, ReferenceCollection};
use mc_datagen::profiles::DatasetProfile;
use mc_datagen::reads::ReadSimulator;
use mc_datagen::taxonomy_gen::TaxonomySpec;
use metacache::build::CpuBuilder;
use metacache::pipeline::StreamingClassifier;
use metacache::query::Classifier;
use metacache::serving::{EngineConfig, ServingEngine};
use metacache::{Database, MetaCacheConfig, ShardedBackend, ShardedDatabase};

const REQUEST_READS: usize = 256;

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

fn build_database(collection: &ReferenceCollection) -> Arc<Database> {
    let mut builder = CpuBuilder::new(MetaCacheConfig::default(), collection.taxonomy.clone());
    for target in &collection.targets {
        builder
            .add_target(target.to_record(), target.taxon)
            .expect("valid targets");
    }
    Arc::new(builder.finish())
}

fn engine_config(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        queue_capacity: 4,
        batch_records: 64,
        session_max_in_flight: 0,
    }
}

fn bench_serving_throughput(c: &mut Criterion) {
    let collection = community();
    let db = build_database(&collection);
    let reads = ReadSimulator::new(DatasetProfile::hiseq(), 2_048)
        .with_seed(7)
        .simulate(&collection)
        .reads;
    let requests: Vec<&[mc_seqio::SequenceRecord]> = reads.chunks(REQUEST_READS).collect();

    // The engine must not change any classification.
    let expected = Classifier::new(Arc::clone(&db)).classify_batch(&reads);
    {
        let engine = ServingEngine::host_with_config(Arc::clone(&db), engine_config(2));
        let mut session = engine.session();
        let (got, _) = session.classify_iter(reads.iter().cloned());
        assert_eq!(got, expected, "engine diverged from classify_batch");
    }

    let worker_counts = [1usize, 2, 4];
    let mut group = c.benchmark_group("serving_throughput");
    group.throughput(Throughput::Elements(reads.len() as u64));

    for &workers in &worker_counts {
        // Per-request engine spawn: the cost a resident pool amortises.
        group.bench_function(format!("spawn_per_request_w{workers}"), |b| {
            b.iter(|| {
                requests
                    .iter()
                    .map(|request| {
                        let streaming = StreamingClassifier::with_config(
                            Arc::clone(&db),
                            engine_config(workers),
                        );
                        let (out, _) = streaming.classify_iter(request.iter().cloned());
                        out.iter().filter(|c| c.is_classified()).count()
                    })
                    .sum::<usize>()
            })
        });

        // Warm engine, one session, same requests.
        let engine = ServingEngine::host_with_config(Arc::clone(&db), engine_config(workers));
        let mut session = engine.session();
        group.bench_function(format!("engine_session_w{workers}"), |b| {
            b.iter(|| {
                requests
                    .iter()
                    .map(|request| {
                        session
                            .classify_batch(request)
                            .iter()
                            .filter(|c| c.is_classified())
                            .count()
                    })
                    .sum::<usize>()
            })
        });
        drop(session);

        // One big stream through a session (streaming_throughput comparison).
        let mut session = engine.session();
        group.bench_function(format!("engine_one_stream_w{workers}"), |b| {
            b.iter(|| {
                let (out, _) = session.classify_iter(reads.iter().cloned());
                out.iter().filter(|c| c.is_classified()).count()
            })
        });
        drop(session);

        // Concurrent sessions multiplexing over the shared pool.
        for sessions in [2usize, 4] {
            group.bench_function(format!("engine_sessions{sessions}_w{workers}"), |b| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = (0..sessions)
                            .map(|s| {
                                let engine = &engine;
                                let requests = &requests;
                                scope.spawn(move || {
                                    let mut session = engine.session();
                                    requests
                                        .iter()
                                        .skip(s)
                                        .step_by(sessions)
                                        .map(|request| {
                                            session
                                                .classify_batch(request)
                                                .iter()
                                                .filter(|c| c.is_classified())
                                                .count()
                                        })
                                        .sum::<usize>()
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().unwrap())
                            .sum::<usize>()
                    })
                })
            });
        }
    }
    group.finish();
}

/// Protocol overhead: the identical request workload through the `mc-net`
/// loopback front-end vs directly through an engine session.
fn bench_serving_net(c: &mut Criterion) {
    let collection = community();
    let db = build_database(&collection);
    let reads = ReadSimulator::new(DatasetProfile::hiseq(), 2_048)
        .with_seed(7)
        .simulate(&collection)
        .reads;
    let requests: Vec<&[mc_seqio::SequenceRecord]> = reads.chunks(REQUEST_READS).collect();
    let expected = Classifier::new(Arc::clone(&db)).classify_batch(&reads);

    let workers = 2;
    let engine = ServingEngine::host_with_config(Arc::clone(&db), engine_config(workers));
    let server = NetServer::bind(&engine, "127.0.0.1:0").expect("bind loopback");
    let handle = server.handle();
    let addr = handle.local_addr();

    let mut group = c.benchmark_group("serving_net");
    group.throughput(Throughput::Elements(reads.len() as u64));

    // In-process baseline: the engine session path the protocol wraps.
    let mut session = engine.session();
    group.bench_function(format!("in_process_w{workers}"), |b| {
        b.iter(|| {
            requests
                .iter()
                .map(|request| {
                    session
                        .classify_batch(request)
                        .iter()
                        .filter(|c| c.is_classified())
                        .count()
                })
                .sum::<usize>()
        })
    });
    drop(session);

    std::thread::scope(|scope| {
        scope.spawn(|| server.run().expect("server run"));
        let mut client = NetClient::connect(addr).expect("connect loopback");

        // The network path may not change a single classification.
        let over_wire = client.classify_batch(&reads).expect("network classify");
        assert_eq!(
            over_wire, expected,
            "network path diverged from classify_batch"
        );

        group.bench_function(format!("net_loopback_w{workers}"), |b| {
            b.iter(|| {
                requests
                    .iter()
                    .map(|request| {
                        client
                            .classify_batch(request)
                            .expect("network classify")
                            .iter()
                            .filter(|c| c.is_classified())
                            .count()
                    })
                    .sum::<usize>()
            })
        });

        group.bench_function(format!("net_stream_w{workers}"), |b| {
            b.iter(|| {
                let (out, _) = client
                    .classify_iter(reads.iter().cloned())
                    .expect("network stream");
                out.iter().filter(|c| c.is_classified()).count()
            })
        });

        drop(client);
        handle.shutdown();
    });

    // --- Encoding cost + wire bytes per read -----------------------------
    // The hiseq request corpus as shipped (long simulated-read headers) and
    // a serving-shaped ACGT corpus (compact ids, 200 bp reads) — the latter
    // is the payload the ≥3× bandwidth target is stated for.
    let raw_bytes = |records: &[mc_seqio::SequenceRecord]| {
        records
            .iter()
            .map(mc_seqio::SequenceRecord::heap_bytes)
            .sum::<usize>()
    };
    let raw_corpus_bytes = raw_bytes(&reads);
    let packed_corpus_bytes: usize = requests
        .iter()
        .map(|r| {
            protocol::encode_classify_packed(0, r)
                .expect("encode")
                .len()
        })
        .sum();

    group.throughput(Throughput::Bytes(packed_corpus_bytes as u64));
    group.bench_function("encode_requests_packed", |b| {
        b.iter(|| {
            requests
                .iter()
                .map(|r| {
                    protocol::encode_classify_packed(0, r)
                        .expect("encode")
                        .len()
                })
                .sum::<usize>()
        })
    });
    group.finish();

    let acgt: Vec<mc_seqio::SequenceRecord> = {
        let genome = &collection.targets[0].sequence;
        (0..1024)
            .map(|i| {
                let offset = (i * 127) % genome.len().saturating_sub(220).max(1);
                mc_seqio::SequenceRecord::new(
                    format!("r{i}"),
                    genome[offset..offset + 200].to_vec(),
                )
            })
            .collect()
    };
    let acgt_raw = raw_bytes(&acgt) as f64;
    let acgt_packed = protocol::encode_classify_packed(0, &acgt)
        .expect("encode")
        .len() as f64;
    let n = acgt.len() as f64;
    criterion::record_gauge(
        "serving_net",
        "raw_bytes_per_read",
        "bytes_per_read",
        acgt_raw / n,
    );
    criterion::record_gauge(
        "serving_net",
        "wire_bytes_per_read_packed",
        "bytes_per_read",
        acgt_packed / n,
    );
    criterion::record_gauge(
        "serving_net",
        "wire_compression_acgt",
        "raw_bytes_over_packed",
        acgt_raw / acgt_packed,
    );
    criterion::record_gauge(
        "serving_net",
        "wire_compression_hiseq_requests",
        "raw_bytes_over_packed",
        raw_corpus_bytes as f64 / packed_corpus_bytes as f64,
    );
    assert!(
        acgt_raw >= 3.0 * acgt_packed,
        "ACGT wire compression regressed below 3x: {acgt_raw} vs {acgt_packed}"
    );

    // --- Overload gauge: Busy shedding at ~2× capacity -------------------
    // Four clients fire full-size requests as fast as they can against a
    // server capped at two requests' worth of in-flight records. The cap
    // turns the excess into fast `Busy` refusals instead of queue growth.
    let overload_engine = ServingEngine::host_with_config(Arc::clone(&db), engine_config(workers));
    let overload_server = NetServer::bind_with(
        &overload_engine,
        "127.0.0.1:0",
        ServerConfig {
            max_inflight_records: 2 * REQUEST_READS,
            retry_after_ms: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind overload loopback");
    let overload_handle = overload_server.handle();
    let overload_addr = overload_handle.local_addr();
    let request = &reads[..REQUEST_READS];
    let expected_request = &expected[..REQUEST_READS];

    // A panic anywhere in the scope (a failed assert in a client thread)
    // must still shut the server down, or the scope's implicit join would
    // wait forever on the acceptor thread.
    struct ShutdownOnDrop(mc_net::ServerHandle);
    impl Drop for ShutdownOnDrop {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }

    let overload_stats = std::thread::scope(|scope| {
        let runner = scope.spawn(|| overload_server.run().expect("overload server run"));
        let _guard = ShutdownOnDrop(overload_handle.clone());
        let clients = 4;
        let served_target = 10u64;
        // (served, served_ns, shed, busy_ns) per client. Each client keeps
        // offering until it has been served `served_target` times, honoring
        // the `retry_after_ms` hint on each shed — `Busy` answers return in
        // microseconds, so an attempt-bounded loop could burn every attempt
        // while the other clients hold the in-flight slots with real work.
        let outcomes: Vec<(u64, u64, u64, u64)> = std::thread::scope(|clients_scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    clients_scope.spawn(move || {
                        let mut client =
                            NetClient::connect(overload_addr).expect("connect overload");
                        let (mut served, mut served_ns, mut shed, mut busy_ns) = (0u64, 0, 0u64, 0);
                        while served < served_target {
                            let start = std::time::Instant::now();
                            match client.classify_batch(request) {
                                Ok(out) => {
                                    served_ns += start.elapsed().as_nanos() as u64;
                                    served += 1;
                                    assert_eq!(
                                        out, expected_request,
                                        "overloaded server corrupted a served request"
                                    );
                                }
                                Err(NetError::Busy { retry_after_ms }) => {
                                    busy_ns += start.elapsed().as_nanos() as u64;
                                    shed += 1;
                                    std::thread::sleep(std::time::Duration::from_millis(
                                        u64::from(retry_after_ms.max(1)),
                                    ));
                                }
                                Err(other) => panic!("unexpected overload error: {other}"),
                            }
                        }
                        (served, served_ns, shed, busy_ns)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let served: u64 = outcomes.iter().map(|o| o.0).sum();
        let served_ns: u64 = outcomes.iter().map(|o| o.1).sum();
        let shed: u64 = outcomes.iter().map(|o| o.2).sum();
        let busy_ns: u64 = outcomes.iter().map(|o| o.3).sum();
        overload_handle.shutdown();
        runner.join().expect("overload server thread");
        (served, served_ns, shed, busy_ns)
    });
    overload_engine.shutdown();
    let (served, served_ns, shed, busy_ns) = overload_stats;
    assert!(shed > 0, "2x overload never tripped the in-flight cap");
    criterion::record_gauge(
        "serving_net",
        "overload_shed_rate_2x",
        "fraction",
        shed as f64 / (served + shed) as f64,
    );
    criterion::record_gauge(
        "serving_net",
        "overload_served_latency_ms",
        "ms",
        served_ns as f64 / served as f64 / 1e6,
    );
    if shed > 0 {
        criterion::record_gauge(
            "serving_net",
            "overload_busy_latency_ms",
            "ms",
            busy_ns as f64 / shed as f64 / 1e6,
        );
    }
}

/// Scatter-gather overhead and per-shard memory over a shards × workers
/// grid: the same request workload as `serving_throughput`, through
/// [`ShardedBackend`] engines over round-robin splits.
fn bench_serving_sharded(c: &mut Criterion) {
    let collection = community();
    let reads = ReadSimulator::new(DatasetProfile::hiseq(), 2_048)
        .with_seed(7)
        .simulate(&collection)
        .reads;
    let requests: Vec<&[mc_seqio::SequenceRecord]> = reads.chunks(REQUEST_READS).collect();
    let expected = {
        let db = build_database(&collection);
        criterion::record_gauge(
            "serving_sharded",
            "unsharded_table_bytes",
            "bytes",
            db.table_bytes() as f64,
        );
        Classifier::new(db).classify_batch(&reads)
    };

    let mut group = c.benchmark_group("serving_sharded");
    group.throughput(Throughput::Elements(reads.len() as u64));

    for &shards in &[1usize, 2, 4] {
        // The split consumes its database, so rebuild one per shard count
        // (deterministic: same collection, same config → identical tables).
        let owned = {
            let mut builder =
                CpuBuilder::new(MetaCacheConfig::default(), collection.taxonomy.clone());
            for target in &collection.targets {
                builder
                    .add_target(target.to_record(), target.taxon)
                    .expect("valid targets");
            }
            builder.finish()
        };
        let split = Arc::new(ShardedDatabase::round_robin(owned, shards).expect("split"));
        let max_shard_bytes = split
            .shards()
            .iter()
            .map(|s| s.table_bytes())
            .max()
            .unwrap_or(0);
        criterion::record_gauge(
            "serving_sharded",
            &format!("max_shard_table_bytes_s{shards}"),
            "bytes",
            max_shard_bytes as f64,
        );
        criterion::record_gauge(
            "serving_sharded",
            &format!("total_table_bytes_s{shards}"),
            "bytes",
            split.table_bytes() as f64,
        );

        for &workers in &[1usize, 2, 4] {
            let engine = ServingEngine::new(
                ShardedBackend::new(Arc::clone(&split)),
                engine_config(workers),
            );
            let mut session = engine.session();
            // Sharding must not change a single classification.
            let (got, _) = session.classify_iter(reads.iter().cloned());
            assert_eq!(got, expected, "sharded engine diverged ({shards} shards)");
            group.bench_function(format!("sharded_s{shards}_w{workers}"), |b| {
                b.iter(|| {
                    requests
                        .iter()
                        .map(|request| {
                            session
                                .classify_batch(request)
                                .iter()
                                .filter(|c| c.is_classified())
                                .count()
                        })
                        .sum::<usize>()
                })
            });
            drop(session);
            engine.shutdown();
        }
    }
    group.finish();
}

/// Live-reload gauges: the `serving_reload` experiment (epoch swaps under
/// continuous session traffic) at default scale, with the swap publish
/// latency and the reload-phase throughput dip recorded into
/// `BENCH_serving.json`. The experiment itself asserts identity per
/// generation; the bench additionally refuses to record gauges for a run
/// that dropped or corrupted a request.
fn bench_serving_reload(_c: &mut Criterion) {
    let result =
        mc_bench::experiments::serving_reload::run(&mc_bench::ExperimentScale::default_scale());
    assert!(
        result.identical && result.failed_requests == 0,
        "reload under traffic failed {} requests",
        result.failed_requests
    );
    // Microseconds: a swap is an Arc publish, and the exporter keeps one
    // decimal — milliseconds would flatten the gauge to 0.0.
    let swaps = result.swap_publish_ms.len().max(1) as f64;
    let mean_us = result.swap_publish_ms.iter().sum::<f64>() * 1e3 / swaps;
    let max_us = result.swap_publish_ms.iter().copied().fold(0.0, f64::max) * 1e3;
    criterion::record_gauge("serving_reload", "swap_publish_us_mean", "us", mean_us);
    criterion::record_gauge("serving_reload", "swap_publish_us_max", "us", max_us);
    criterion::record_gauge(
        "serving_reload",
        "steady_reads_per_sec",
        "reads_per_sec",
        result.steady_reads_per_sec,
    );
    criterion::record_gauge(
        "serving_reload",
        "reload_reads_per_sec",
        "reads_per_sec",
        result.reload_reads_per_sec,
    );
    criterion::record_gauge(
        "serving_reload",
        "throughput_dip",
        "steady_over_reload",
        result.throughput_dip,
    );
    criterion::record_gauge(
        "serving_reload",
        "p99_request_ms_steady",
        "ms",
        result.steady_p99_ms,
    );
    criterion::record_gauge(
        "serving_reload",
        "p99_request_ms_during_reloads",
        "ms",
        result.reload_p99_ms,
    );
}

/// This process's live OS thread count (`Threads:` in /proc/self/status);
/// `None` where procfs is unavailable.
fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
}

/// This process's resident set size in kB (`VmRSS:` in /proc/self/status).
fn resident_kb() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches(" kB").trim().parse().ok())
}

/// Connection scaling: a loopback swarm of mostly-idle clients. For each
/// swarm size, N handshaken-but-idle connections park on the event loop
/// while one active client drives full requests through it; the curve
/// records active-path throughput, p99 request latency, the server-side
/// thread count (must stay O(workers) — connections cost fds, not
/// threads) and process resident memory.
fn bench_connection_scaling(_c: &mut Criterion) {
    let collection = community();
    let db = build_database(&collection);
    let reads = ReadSimulator::new(DatasetProfile::hiseq(), 2_048)
        .with_seed(7)
        .simulate(&collection)
        .reads;
    let request = &reads[..REQUEST_READS];
    let expected = Classifier::new(Arc::clone(&db)).classify_batch(request);
    let workers = 2;

    struct ShutdownOnDrop(mc_net::ServerHandle);
    impl Drop for ShutdownOnDrop {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }

    let hello = protocol::Frame::Hello {
        magic: protocol::MAGIC,
        version: protocol::PROTOCOL_VERSION,
        batch_records: 0,
        max_in_flight: 0,
        auth_token: None,
    }
    .encode()
    .expect("encode hello");

    for swarm in [64usize, 256, 1024] {
        let engine = ServingEngine::host_with_config(Arc::clone(&db), engine_config(workers));
        let server = NetServer::bind(&engine, "127.0.0.1:0").expect("bind swarm loopback");
        let handle = server.handle();
        let addr = handle.local_addr();

        let (threads, rss_kb, reads_per_sec, p99_us) = std::thread::scope(|scope| {
            let runner = scope.spawn(|| server.run().expect("swarm server run"));
            let _guard = ShutdownOnDrop(handle.clone());
            let threads_idle = os_thread_count();

            let mut drones = Vec::with_capacity(swarm);
            for i in 0..swarm {
                use std::io::Write as _;
                let mut drone = std::net::TcpStream::connect(addr)
                    .unwrap_or_else(|e| panic!("swarm connect {i}: {e}"));
                drone
                    .write_all(&hello)
                    .unwrap_or_else(|e| panic!("swarm hello {i}: {e}"));
                match protocol::read_frame(&mut drone) {
                    Ok(Some(protocol::Frame::HelloAck { .. })) => {}
                    other => panic!("swarm handshake {i}: {other:?}"),
                }
                drones.push(drone);
            }

            let threads = os_thread_count();
            if let (Some(idle), Some(with_swarm)) = (threads_idle, threads) {
                assert!(
                    with_swarm <= idle,
                    "{swarm} idle connections grew the thread count {idle} -> {with_swarm}; \
                     the event loop must serve connections without threads"
                );
            }
            let rss_kb = resident_kb();

            // The active path amid the swarm: per-request latencies for the
            // p99, wall clock for throughput.
            let mut client = NetClient::connect(addr).expect("connect amid swarm");
            let iterations = 40;
            let mut latencies_us: Vec<f64> = Vec::with_capacity(iterations);
            let started = std::time::Instant::now();
            for _ in 0..iterations {
                let t0 = std::time::Instant::now();
                let out = client.classify_batch(request).expect("classify amid swarm");
                latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
                assert_eq!(out, expected, "swarm of {swarm} corrupted the active path");
            }
            let elapsed = started.elapsed().as_secs_f64();
            latencies_us.sort_by(|a, b| a.total_cmp(b));
            let p99 = latencies_us[(latencies_us.len() * 99)
                .div_ceil(100)
                .min(latencies_us.len())
                - 1];
            let reads_per_sec = (iterations * REQUEST_READS) as f64 / elapsed;

            drop(client);
            drop(drones);
            handle.shutdown();
            runner.join().expect("swarm server thread");
            (threads, rss_kb, reads_per_sec, p99)
        });
        engine.shutdown();

        criterion::record_gauge(
            "connection_scaling",
            &format!("c{swarm}_reads_per_sec"),
            "reads_per_sec",
            reads_per_sec,
        );
        criterion::record_gauge(
            "connection_scaling",
            &format!("c{swarm}_p99_latency_us"),
            "us",
            p99_us,
        );
        if let Some(threads) = threads {
            criterion::record_gauge(
                "connection_scaling",
                &format!("c{swarm}_server_threads"),
                "threads",
                threads as f64,
            );
        }
        if let Some(rss_kb) = rss_kb {
            criterion::record_gauge(
                "connection_scaling",
                &format!("c{swarm}_resident_mb"),
                "mb",
                rss_kb as f64 / 1024.0,
            );
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_serving_throughput, bench_serving_net, bench_serving_sharded,
        bench_serving_reload, bench_connection_scaling
}
criterion_main!(benches);
