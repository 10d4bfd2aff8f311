//! Integration tests of the `mc-net` TCP front-end: network round-trips are
//! bit-identical (including order) to in-process sessions, concurrent
//! connections map to concurrent sessions without interference, a client
//! disconnect mid-stream is isolated, malformed input is answered with an
//! error frame, and the server's graceful drain composes with
//! `ServingEngine::shutdown`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};

use mc_net::protocol::{self, Frame, MAGIC, PROTOCOL_VERSION};
use mc_net::{ClientConfig, ErrorCode, NetClient, NetError, NetServer, ServerConfig};
use mc_seqio::SequenceRecord;
use mc_taxonomy::{Rank, Taxonomy};
use metacache::build::CpuBuilder;
use metacache::classify::Classification;
use metacache::query::Classifier;
use metacache::serving::{EngineConfig, ServingEngine};
use metacache::{Backend, BackendWorker, Database, HostBackend, MetaCacheConfig, ShardPlan};

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

/// One genus, two species: the taxonomy of every fixture database.
fn fixture_taxonomy() -> Taxonomy {
    let mut taxonomy = Taxonomy::with_root();
    taxonomy.add_node(10, 1, Rank::Genus, "G").unwrap();
    taxonomy.add_node(100, 10, Rank::Species, "G a").unwrap();
    taxonomy.add_node(101, 10, Rank::Species, "G b").unwrap();
    taxonomy
}

/// One shared two-species database plus its genomes.
fn shared_database() -> (Arc<Database>, &'static [Vec<u8>]) {
    use std::sync::OnceLock;
    static DB: OnceLock<(Arc<Database>, Vec<Vec<u8>>)> = OnceLock::new();
    let (db, genomes) = DB.get_or_init(|| {
        let taxonomy = fixture_taxonomy();
        let genomes = vec![make_seq(18_000, 61), make_seq(18_000, 62)];
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

/// A mixed read set (genome reads, foreign reads, short reads, empty
/// records, a paired read) deterministically derived from `seed`.
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
                4 => {
                    // N-laden read: genome bases with an ambiguity run in
                    // the middle (exercises the packed encoding's
                    // exception list end to end).
                    let mut seq = genomes[i % 2][200..350].to_vec();
                    let n_start = 20 + (state as usize >> 9) % 100;
                    let n_len = 1 + (state as usize >> 17) % 25;
                    seq[n_start..n_start + n_len].fill(b'N');
                    SequenceRecord::new(format!("nrun{i}"), seq)
                }
                5 => SequenceRecord::new(format!("alln{i}"), vec![b'N'; 80]),
                3 => {
                    let genome = &genomes[i % 2];
                    let offset = (state as usize >> 7) % (genome.len() - 300);
                    SequenceRecord::new(format!("pair{i}"), genome[offset..offset + 140].to_vec())
                        .with_mate(SequenceRecord::new(
                            format!("pair{i}/2"),
                            genome[offset + 150..offset + 290].to_vec(),
                        ))
                }
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

/// Shuts the server down when dropped, so a panicking assertion inside a
/// `thread::scope` fails the test instead of deadlocking the scope's
/// implicit join on the acceptor thread. `shutdown()` is idempotent.
struct ShutdownOnDrop(mc_net::ServerHandle);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

const TEST_CONFIG: EngineConfig = EngineConfig {
    workers: 3,
    queue_capacity: 4,
    batch_records: 8,
    session_max_in_flight: 0,
};

fn test_engine(db: Arc<Database>) -> ServingEngine {
    ServingEngine::host_with_config(db, TEST_CONFIG)
}

/// The acceptance criterion: `NetClient::classify_batch` over TCP is
/// bit-identical (including order) to an in-process
/// `Session::classify_batch`, while another client disconnects mid-stream.
#[test]
fn loopback_roundtrip_is_bit_identical_and_survives_disconnects() {
    let (db, _) = shared_database();
    let reads = mixed_reads(120, 2024);
    let expected_direct = Classifier::new(Arc::clone(&db)).classify_batch(&reads);

    let engine = test_engine(Arc::clone(&db));
    // The in-process reference: a session on the same engine.
    let in_process = {
        let mut session = engine.session();
        session.classify_batch(&reads)
    };
    assert_eq!(in_process, expected_direct);

    let server = NetServer::bind(&engine, "127.0.0.1:0").unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        scope.spawn(|| server.run().unwrap());
        let _guard = ShutdownOnDrop(handle.clone());

        // A rude client that connects, handshakes, sends half a request and
        // vanishes — concurrently with the well-behaved client.
        let rude = scope.spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let hello = Frame::Hello {
                magic: MAGIC,
                version: PROTOCOL_VERSION,
                batch_records: 0,
                max_in_flight: 0,
                auth_token: None,
            }
            .encode()
            .unwrap();
            stream.write_all(&hello).unwrap();
            let classify = Frame::ClassifyPacked {
                request_id: 0,
                reads: mixed_reads(40, 1),
            }
            .encode()
            .unwrap();
            // Send a truncated frame, then drop the connection entirely.
            stream.write_all(&classify[..classify.len() / 2]).unwrap();
            drop(stream);
        });

        let mut client = NetClient::connect(addr).unwrap();
        // Network round-trip ≡ in-process session, bit for bit and in order.
        let over_network = client.classify_batch(&reads).unwrap();
        assert_eq!(over_network, in_process);
        // Streaming form too, pipelined across the credit window.
        let (streamed, summary) = client.classify_iter(reads.iter().cloned()).unwrap();
        assert_eq!(streamed, in_process);
        assert!(summary.peak_in_flight <= u64::from(client.credits()));
        assert_eq!(summary.reads, reads.len() as u64);

        rude.join().unwrap();
        // The rude client's death did not poison this connection.
        let again = client.classify_batch(&reads[..17]).unwrap();
        assert_eq!(again, in_process[..17]);

        drop(client);
        handle.shutdown();
    });
    let stats = engine.shutdown();
    assert_eq!(stats.worker_panics, 0);
}

/// The satellite criterion: N concurrent clients over N connections get
/// exactly what N in-process sessions get — bit-identical, ordered, no
/// cross-talk.
#[test]
fn n_clients_match_n_in_process_sessions() {
    let (db, _) = shared_database();
    let engine = test_engine(Arc::clone(&db));
    let clients = 5;
    let per_client: Vec<(Vec<SequenceRecord>, Vec<Classification>)> = (0..clients)
        .map(|c| {
            let reads = mixed_reads(50 + c * 11, 3_000 + c as u64);
            // The in-process reference for this client's stream.
            let mut session = engine.session();
            let want = session.classify_batch(&reads);
            (reads, want)
        })
        .collect();

    let server = NetServer::bind(&engine, "127.0.0.1:0").unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    let server_stats = std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run().unwrap());
        let _guard = ShutdownOnDrop(handle.clone());
        let workers: Vec<_> = per_client
            .iter()
            .enumerate()
            .map(|(c, (reads, want))| {
                scope.spawn(move || {
                    let mut client = NetClient::connect_with(
                        addr,
                        ClientConfig {
                            batch_records: 4 + c as u32,
                            max_in_flight: 2,
                            ..ClientConfig::default()
                        },
                    )
                    .unwrap();
                    // Interleave small requests and one streamed pass.
                    for (i, chunk) in reads.chunks(13).enumerate() {
                        let got = client.classify_batch(chunk).unwrap();
                        let start = i * 13;
                        assert_eq!(got, want[start..start + chunk.len()], "client {c} chunk");
                    }
                    let (got, _) = client.classify_iter(reads.iter().cloned()).unwrap();
                    assert_eq!(&got, want, "client {c} stream diverged");
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        handle.shutdown();
        runner.join().unwrap()
    });
    // A clean run: one connection per client, nothing malformed.
    assert_eq!(server_stats.connections, clients as u64);
    assert_eq!(server_stats.protocol_errors, 0);
    let stats = engine.shutdown();
    assert_eq!(stats.worker_panics, 0);
}

/// Malformed input is answered with a typed error frame, and the failure is
/// confined to the offending connection.
#[test]
fn malformed_input_gets_an_error_frame() {
    let (db, _) = shared_database();
    let engine = test_engine(Arc::clone(&db));
    let server = NetServer::bind(&engine, "127.0.0.1:0").unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        scope.spawn(|| server.run().unwrap());
        let _guard = ShutdownOnDrop(handle.clone());

        // Bad magic in the handshake.
        let mut stream = TcpStream::connect(addr).unwrap();
        let bad_hello = Frame::Hello {
            magic: 0xDEAD_BEEF,
            version: PROTOCOL_VERSION,
            batch_records: 0,
            max_in_flight: 0,
            auth_token: None,
        }
        .encode()
        .unwrap();
        stream.write_all(&bad_hello).unwrap();
        match protocol::read_frame(&mut stream).unwrap().unwrap() {
            Frame::Error { code, .. } => assert_eq!(code, ErrorCode::BadMagic),
            other => panic!("expected error frame, got {other:?}"),
        }

        // Garbage after a valid handshake: unknown frame type.
        let mut stream = TcpStream::connect(addr).unwrap();
        let hello = Frame::Hello {
            magic: MAGIC,
            version: PROTOCOL_VERSION,
            batch_records: 0,
            max_in_flight: 0,
            auth_token: None,
        }
        .encode()
        .unwrap();
        stream.write_all(&hello).unwrap();
        match protocol::read_frame(&mut stream).unwrap().unwrap() {
            Frame::HelloAck { .. } => {}
            other => panic!("expected hello ack, got {other:?}"),
        }
        stream.write_all(&[5, 0, 0, 0, 99, 1, 2, 3, 4]).unwrap();
        match protocol::read_frame(&mut stream).unwrap().unwrap() {
            Frame::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownFrameType),
            other => panic!("expected error frame, got {other:?}"),
        }
        // The connection is closed after the error frame.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());

        // Non-monotonic request ids are rejected.
        let mut client = NetClient::connect(addr).unwrap();
        let reads = mixed_reads(4, 9);
        client.classify_batch(&reads).unwrap();
        // Cheat below the public API: replay request id 0 on the raw socket.
        // (NetClient always increments, so craft the frame by hand.)
        drop(client);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&hello).unwrap();
        protocol::read_frame(&mut stream).unwrap().unwrap();
        let req = |id: u64| {
            Frame::ClassifyPacked {
                request_id: id,
                reads: reads.clone(),
            }
            .encode()
            .unwrap()
        };
        stream.write_all(&req(5)).unwrap();
        protocol::read_frame(&mut stream).unwrap().unwrap();
        stream.write_all(&req(5)).unwrap();
        match protocol::read_frame(&mut stream).unwrap().unwrap() {
            Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("expected error frame, got {other:?}"),
        }

        // A healthy client still works after all that abuse.
        let mut client = NetClient::connect(addr).unwrap();
        let got = client.classify_batch(&reads).unwrap();
        assert_eq!(got, Classifier::new(Arc::clone(&db)).classify_batch(&reads));

        drop(client);
        handle.shutdown();
    });
    let stats = engine.shutdown();
    assert_eq!(stats.worker_panics, 0);
}

/// Graceful drain: shutdown lets in-flight requests finish and compose with
/// the engine's own drain; the engine's stats account for every read served.
#[test]
fn shutdown_drains_and_composes_with_engine_shutdown() {
    let (db, _) = shared_database();
    let engine = test_engine(Arc::clone(&db));
    let reads = mixed_reads(60, 4242);
    let expected = Classifier::new(Arc::clone(&db)).classify_batch(&reads);

    let server = NetServer::bind(&engine, "127.0.0.1:0").unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    let server_stats = std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run());
        let _guard = ShutdownOnDrop(handle.clone());
        let mut client = NetClient::connect(addr).unwrap();
        let got = client.classify_batch(&reads).unwrap();
        assert_eq!(got, expected);
        drop(client);
        handle.shutdown();
        // Connecting after shutdown is refused with an error frame or a
        // closed connection — never a hang.
        match NetClient::connect(addr) {
            Ok(_) => panic!("connected to a draining server"),
            Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
            Err(_) => {} // refused / reset: equally fine
        }
        runner.join().unwrap().unwrap()
    });
    assert_eq!(server_stats.reads, reads.len() as u64);
    assert_eq!(server_stats.requests, 1);
    assert!(server_stats.connections >= 1);

    // The engine drain composes: all sessions are gone, stats are complete.
    let stats = engine.shutdown();
    assert_eq!(stats.records_classified, reads.len() as u64);
    assert_eq!(stats.worker_panics, 0);
}

/// A purely local encode failure mid-pipeline (an unencodable read) must
/// not desync or kill the connection: outstanding responses are drained and
/// the next request works.
#[test]
fn local_encode_failure_leaves_connection_usable() {
    let (db, _) = shared_database();
    let engine = test_engine(Arc::clone(&db));
    let reads = mixed_reads(30, 77);
    let expected = Classifier::new(Arc::clone(&db)).classify_batch(&reads);

    let server = NetServer::bind(&engine, "127.0.0.1:0").unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        scope.spawn(|| server.run().unwrap());
        let _guard = ShutdownOnDrop(handle.clone());
        let mut client = NetClient::connect(addr).unwrap();

        // A read whose mate itself has a mate is not representable on the
        // wire; placed late in the stream, it fails encoding after earlier
        // requests are already pipelined.
        let mut nested = SequenceRecord::new("bad", b"ACGT".to_vec());
        nested.mate = Some(Box::new(
            SequenceRecord::new("m1", b"ACGT".to_vec())
                .with_mate(SequenceRecord::new("m2", b"GT".to_vec())),
        ));
        let mut stream_reads = reads.clone();
        stream_reads.push(nested);
        let err = client.classify_iter(stream_reads).unwrap_err();
        assert!(
            matches!(err, NetError::Protocol(_)),
            "expected a local protocol error, got {err:?}"
        );

        // The connection stayed in sync: a well-formed request still gets
        // bit-identical results.
        let got = client.classify_batch(&reads).unwrap();
        assert_eq!(got, expected);

        drop(client);
        handle.shutdown();
    });
    engine.shutdown();
}

/// Client-side handshake knobs shrink the server's defaults but cannot grow
/// past them.
#[test]
fn handshake_negotiates_credits_and_batch_size() {
    let (db, _) = shared_database();
    let engine = test_engine(Arc::clone(&db));
    let server = NetServer::bind_with(&engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();
    let server_credit = engine.config().effective_session_in_flight() as u32;

    std::thread::scope(|scope| {
        scope.spawn(|| server.run().unwrap());
        let _guard = ShutdownOnDrop(handle.clone());

        let defaults = NetClient::connect(addr).unwrap();
        assert_eq!(defaults.credits(), server_credit);
        assert_eq!(defaults.batch_records(), 8);
        assert_eq!(defaults.backend(), "host");

        let small = NetClient::connect_with(
            addr,
            ClientConfig {
                batch_records: 2,
                max_in_flight: 1,
                ..ClientConfig::default()
            },
        )
        .unwrap();
        assert_eq!(small.credits(), 1);
        assert_eq!(small.batch_records(), 2);

        let greedy = NetClient::connect_with(
            addr,
            ClientConfig {
                batch_records: 1_000_000,
                max_in_flight: 1_000_000,
                ..ClientConfig::default()
            },
        )
        .unwrap();
        assert_eq!(greedy.credits(), server_credit, "credits must not grow");
        assert_eq!(greedy.batch_records(), 8, "batch size must not grow");

        drop((defaults, small, greedy));
        handle.shutdown();
    });
    engine.shutdown();
}

/// The wire-encoding acceptance check over the torture corpus (paired
/// reads, `N` runs, all-`N`, empty, short): the packed client ≡ an
/// in-process session ≡ `classify_batch` — the packed encoding changes
/// bandwidth, never results — and the request frame is smaller than the raw
/// records it carries.
#[test]
fn packed_client_is_bit_identical_to_in_process() {
    let (db, _) = shared_database();
    let engine = test_engine(Arc::clone(&db));
    // Mixed reads: genome/foreign/short/empty, paired, N runs, all-N.
    let reads = mixed_reads(90, 555);
    let in_process = {
        let mut session = engine.session();
        session.classify_batch(&reads)
    };
    assert_eq!(
        in_process,
        Classifier::new(Arc::clone(&db)).classify_batch(&reads)
    );

    let server = NetServer::bind(&engine, "127.0.0.1:0").unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        scope.spawn(|| server.run().unwrap());
        let _guard = ShutdownOnDrop(handle.clone());

        let mut client = NetClient::connect(addr).unwrap();
        assert_eq!(client.classify_batch(&reads).unwrap(), in_process);
        let (streamed, _) = client.classify_iter(reads.iter().cloned()).unwrap();
        assert_eq!(streamed, in_process);

        // The frame decodes to the same reads and is smaller than the raw
        // records even on this mixed (partly hostile) read set.
        let packed = protocol::encode_classify_packed(0, &reads).unwrap();
        let mut decoded = Vec::new();
        protocol::decode_classify_into(packed[4], &packed[5..], &mut decoded).unwrap();
        assert_eq!(decoded, reads);
        let raw: usize = reads.iter().map(SequenceRecord::heap_bytes).sum();
        assert!(packed.len() < raw, "packed {} vs raw {raw}", packed.len());

        drop(client);
        handle.shutdown();
    });
    let stats = engine.shutdown();
    assert_eq!(stats.worker_panics, 0);
}

/// Send `hello`-then-`extra` bytes on a raw socket and return every frame
/// the server answers with before it closes the connection.
fn raw_exchange(addr: std::net::SocketAddr, version: u16, extra: &[u8]) -> Vec<Frame> {
    let mut stream = TcpStream::connect(addr).unwrap();
    let hello = Frame::Hello {
        magic: MAGIC,
        version,
        batch_records: 0,
        max_in_flight: 0,
        auth_token: None,
    }
    .encode()
    .unwrap();
    stream.write_all(&hello).unwrap();
    stream.write_all(extra).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut frames = Vec::new();
    while let Some(frame) = protocol::read_frame(&mut stream).unwrap() {
        frames.push(frame);
    }
    frames
}

/// There is one dialect: every announcement below `PROTOCOL_VERSION` is
/// refused with `UnsupportedVersion` (code 2) and the connection closes;
/// every announcement above it is answered with `PROTOCOL_VERSION`.
#[test]
fn handshake_accepts_only_the_current_version() {
    let (db, _) = shared_database();
    let engine = test_engine(Arc::clone(&db));
    let server = NetServer::bind(&engine, "127.0.0.1:0").unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        scope.spawn(|| server.run().unwrap());
        let _guard = ShutdownOnDrop(handle.clone());
        for version in 0..PROTOCOL_VERSION {
            match raw_exchange(addr, version, &[]).as_slice() {
                [Frame::Error { code, .. }] => {
                    assert_eq!(*code as u16, 2, "version {version}");
                    assert_eq!(*code, ErrorCode::UnsupportedVersion);
                }
                other => panic!("version {version}: expected one error frame, got {other:?}"),
            }
        }
        for version in [PROTOCOL_VERSION, PROTOCOL_VERSION + 1, u16::MAX] {
            match raw_exchange(addr, version, &[]).as_slice() {
                [Frame::HelloAck { version: acked, .. }] => {
                    assert_eq!(*acked, 5, "version {version}");
                    assert_eq!(*acked, PROTOCOL_VERSION);
                }
                other => panic!("version {version}: expected HelloAck, got {other:?}"),
            }
        }
        handle.shutdown();
    });
    engine.shutdown();
}

/// Tag 3 — the verbatim `Classify` request of protocol v1 — is retired: sent
/// after a good handshake it is answered with `UnknownFrameType` (code 4)
/// and the connection closes.
#[test]
fn retired_classify_tag_is_an_unknown_frame_type() {
    let (db, _) = shared_database();
    let engine = test_engine(Arc::clone(&db));
    let server = NetServer::bind(&engine, "127.0.0.1:0").unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        scope.spawn(|| server.run().unwrap());
        let _guard = ShutdownOnDrop(handle.clone());
        // A well-formed v1 request: id 0, one read "r" / "ACGT" / no
        // quality / no mate — retagged from the packed frame's envelope.
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&[1, 0, b'r', 4, 0, 0, 0]);
        payload.extend_from_slice(b"ACGT");
        payload.extend_from_slice(&[0, 0, 0, 0, 0]);
        let mut frame = (payload.len() as u32 + 1).to_le_bytes().to_vec();
        frame.push(3);
        frame.extend_from_slice(&payload);
        match raw_exchange(addr, PROTOCOL_VERSION, &frame).as_slice() {
            [Frame::HelloAck { .. }, Frame::Error { code, .. }] => {
                assert_eq!(*code as u16, 4);
                assert_eq!(*code, ErrorCode::UnknownFrameType);
            }
            other => panic!("expected HelloAck then an error frame, got {other:?}"),
        }
        handle.shutdown();
    });
    engine.shutdown();
}

/// Satellite regression: a peer dropping after part of the 4-byte length
/// prefix is a torn connection (`Disconnected`), not a clean EOF — and a
/// server connection fed such a tail tears down without affecting others.
#[test]
fn partial_length_prefix_reads_as_disconnect() {
    let frame = Frame::Goodbye.encode().unwrap();
    for cut in 1..4 {
        let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
        assert!(
            matches!(
                protocol::read_frame(&mut cursor),
                Err(NetError::Disconnected)
            ),
            "{cut} prefix bytes must read as a disconnect, not Ok(None)"
        );
    }
    let mut empty = std::io::Cursor::new(Vec::new());
    assert!(matches!(protocol::read_frame(&mut empty), Ok(None)));

    // Over a real connection: a client vanishing mid-prefix is survived,
    // and a healthy client on the same server is unaffected.
    let (db, _) = shared_database();
    let engine = test_engine(Arc::clone(&db));
    let server = NetServer::bind(&engine, "127.0.0.1:0").unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();
    std::thread::scope(|scope| {
        scope.spawn(|| server.run().unwrap());
        let _guard = ShutdownOnDrop(handle.clone());
        let mut rude = TcpStream::connect(addr).unwrap();
        let hello = Frame::Hello {
            magic: MAGIC,
            version: PROTOCOL_VERSION,
            batch_records: 0,
            max_in_flight: 0,
            auth_token: None,
        }
        .encode()
        .unwrap();
        rude.write_all(&hello).unwrap();
        protocol::read_frame(&mut rude).unwrap().unwrap();
        rude.write_all(&[0x10, 0x00]).unwrap(); // half a length prefix
        drop(rude);

        let mut client = NetClient::connect(addr).unwrap();
        let reads = mixed_reads(12, 99);
        let got = client.classify_batch(&reads).unwrap();
        assert_eq!(got, Classifier::new(Arc::clone(&db)).classify_batch(&reads));
        drop(client);
        handle.shutdown();
    });
    engine.shutdown();
}

/// Regression: engine limits beyond u32 range must saturate in the
/// handshake, not silently wrap to a tiny credit/batch size.
#[cfg(target_pointer_width = "64")]
#[test]
fn oversized_server_limits_saturate_in_handshake() {
    let (db, _) = shared_database();
    let engine = ServingEngine::host_with_config(
        Arc::clone(&db),
        EngineConfig {
            // Would wrap to 2 and 5 under `as u32`.
            batch_records: (u32::MAX as usize) + 3,
            session_max_in_flight: (u32::MAX as usize) + 6,
            ..TEST_CONFIG
        },
    );
    let server = NetServer::bind(&engine, "127.0.0.1:0").unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        scope.spawn(|| server.run().unwrap());
        let _guard = ShutdownOnDrop(handle.clone());
        let client = NetClient::connect(addr).unwrap();
        // Credits are clamped by the engine's in-flight ceiling (the result
        // channel is pre-sized to them); batch size saturates at u32::MAX.
        // Before the fix both wrapped (`as u32`) to 5 and 2 respectively.
        assert_eq!(
            client.credits(),
            metacache::serving::MAX_SESSION_IN_FLIGHT as u32,
            "credits wrapped"
        );
        assert_eq!(client.batch_records(), u32::MAX, "batch size wrapped");
        drop(client);
        handle.shutdown();
    });
    engine.shutdown();
}

/// The in-process candidate oracle: `Classifier::candidates_with` over the
/// unsharded database.
fn oracle_candidates(
    db: &Arc<Database>,
    reads: &[SequenceRecord],
) -> Vec<Vec<metacache::Candidate>> {
    let classifier = Classifier::new(Arc::clone(db));
    let mut scratch = metacache::QueryScratch::new();
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

/// The candidates exchange is bit-identical to in-process candidate
/// queries — every list, entry and ordering matches `candidates_with` on
/// the unsharded database, and the lists carry the serving database's
/// generation — whatever backend the engine runs: `Candidates` frames ride
/// the engine's worker pool like any other request, so they are answered
/// by the backend (sharded, simulated GPU), chunked into `batch_records`,
/// and accounted in `EngineStats`.
#[test]
fn candidates_over_the_wire_match_in_process() {
    let (db, genomes) = shared_database();
    let split = Arc::new(
        db.repartition(&ShardPlan::round_robin(db.target_count(), 2).unwrap())
            .unwrap(),
    );
    // A GPU-built (partitioned) database on 2 devices; its oracle is the
    // host classifier over that same database.
    let system = Arc::new(mc_gpu_sim::MultiGpuSystem::dgx1(2));
    let gpu_db = {
        let taxonomy = fixture_taxonomy();
        let mut builder = metacache::build::GpuBuilder::new(
            MetaCacheConfig::for_tests(),
            taxonomy,
            &system,
            200_000,
        )
        .expect("tables fit");
        builder
            .add_target(SequenceRecord::new("refA", genomes[0].clone()), 100)
            .unwrap();
        builder
            .add_target(SequenceRecord::new("refB", genomes[1].clone()), 101)
            .unwrap();
        Arc::new(builder.finish())
    };
    let cases: Vec<(&str, ServingEngine, Arc<Database>)> = vec![
        ("host", test_engine(Arc::clone(&db)), Arc::clone(&db)),
        (
            "sharded-host",
            ServingEngine::new(HostBackend::new(split), TEST_CONFIG),
            Arc::clone(&db),
        ),
        (
            "gpu-sim",
            ServingEngine::new(
                metacache::GpuBackend::new(Arc::clone(&gpu_db), system),
                TEST_CONFIG,
            ),
            gpu_db,
        ),
    ];

    for (name, engine, oracle_db) in cases {
        let server = NetServer::bind(&engine, "127.0.0.1:0").unwrap();
        let handle = server.handle();
        let addr = handle.local_addr();
        std::thread::scope(|scope| {
            scope.spawn(|| server.run().unwrap());
            let _guard = ShutdownOnDrop(handle.clone());
            // 40 reads over batch_records 8: one request, five engine
            // batches, lists back in read order.
            let reads = mixed_reads(40, 1234);
            let expected = oracle_candidates(&oracle_db, &reads);

            let mut client = NetClient::connect(addr).unwrap();
            assert_eq!(client.backend(), name);
            let before = engine.stats();
            let (got, generation) = client.candidates_batch_tagged(&reads).unwrap();
            assert_eq!(got, expected, "{name}: candidate lists diverged");
            assert_eq!(generation, engine.generation());
            assert_eq!(client.database_generation(), Some(generation));
            // Candidate work is engine work: exactly the request's batches
            // and records, no more (nothing ran beside the pool).
            let after = engine.stats();
            assert_eq!(after.batches_classified - before.batches_classified, 5);
            assert_eq!(after.records_classified - before.records_classified, 40);
            // Interleaving with classification on the same connection works
            // (request ids keep increasing across both frame kinds).
            let classifications = client.classify_batch(&reads).unwrap();
            assert_eq!(
                classifications,
                Classifier::new(Arc::clone(&oracle_db)).classify_batch(&reads),
                "{name}: classifications diverged"
            );
            let before = engine.stats();
            assert_eq!(
                client.candidates_batch_tagged(&reads[..5]).unwrap().0,
                expected[..5]
            );
            let after = engine.stats();
            assert_eq!(after.batches_classified - before.batches_classified, 1);
            assert_eq!(after.records_classified - before.records_classified, 5);
            drop(client);
            handle.shutdown();
        });
        assert_eq!(engine.shutdown().worker_panics, 0);
    }
}

/// Rebuild the shared fixture database as an owned value (the build is
/// deterministic, so it is bit-identical to [`shared_database`]'s) — growing
/// it needs a `Database` of its own.
fn owned_database() -> Database {
    let taxonomy = fixture_taxonomy();
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

/// A routed topology — router process fronting two shard servers — is
/// bit-identical to the unsharded in-process classifier, end to end over
/// the ordinary protocol.
#[test]
fn routed_scatter_gather_matches_unsharded() {
    let (db, _) = shared_database();
    let split = db
        .repartition(&ShardPlan::round_robin(db.target_count(), 2).unwrap())
        .unwrap();

    // Two shard servers, each holding one slice of the table.
    let shard_engines: Vec<ServingEngine> = split
        .into_parts()
        .into_iter()
        .map(|part| test_engine(Arc::new(part)))
        .collect();
    let shard_servers: Vec<NetServer> = shard_engines
        .iter()
        .map(|engine| NetServer::bind(engine, "127.0.0.1:0").unwrap())
        .collect();
    let shard_handles: Vec<mc_net::ServerHandle> =
        shard_servers.iter().map(|s| s.handle()).collect();
    let shard_addrs: Vec<std::net::SocketAddr> =
        shard_handles.iter().map(|h| h.local_addr()).collect();

    // The router: a metadata-only database plus the shard addresses.
    let meta = Arc::new(db.metadata_view());
    let backend = mc_net::RouterBackend::new(
        Arc::clone(&meta),
        &shard_addrs,
        mc_net::RouterConfig::default(),
    )
    .unwrap();
    assert_eq!(backend.shard_count(), 2);
    let router_engine = ServingEngine::new(
        backend,
        EngineConfig {
            workers: 2,
            queue_capacity: 4,
            batch_records: 8,
            session_max_in_flight: 4,
        },
    );
    let router_server = NetServer::bind(&router_engine, "127.0.0.1:0").unwrap();
    let router_handle = router_server.handle();
    let router_addr = router_handle.local_addr();

    std::thread::scope(|scope| {
        let _guards: Vec<ShutdownOnDrop> = shard_handles
            .iter()
            .cloned()
            .map(ShutdownOnDrop)
            .chain(std::iter::once(ShutdownOnDrop(router_handle.clone())))
            .collect();
        for server in shard_servers {
            scope.spawn(move || server.run().unwrap());
        }
        scope.spawn(move || router_server.run().unwrap());

        let reads = mixed_reads(60, 777);
        let expected = Classifier::new(Arc::clone(&db)).classify_batch(&reads);
        let mut client = NetClient::connect(router_addr).unwrap();
        assert_eq!(client.backend(), "router");
        let got = client.classify_batch(&reads).unwrap();
        assert_eq!(got, expected, "routed results diverged from unsharded");
        let (streamed, _) = client.classify_iter(reads.iter().cloned()).unwrap();
        assert_eq!(streamed, expected);
        drop(client);

        // A router is a candidate source like any other backend: asked for
        // candidates it answers with the merged lists — exactly the
        // unsharded table's — so routers nest. (The engine asks the
        // backend; nothing reads the router's table-free database.)
        let mut direct = NetClient::connect(router_addr).unwrap();
        let (lists, generation) = direct.candidates_batch_tagged(&reads).unwrap();
        assert_eq!(lists, oracle_candidates(&db, &reads));
        assert_eq!(generation, router_engine.generation());
        drop(direct);
    });
    router_engine.shutdown();
    for engine in shard_engines {
        engine.shutdown();
    }
}

/// A gate in front of a backend's workers: every batch is logged (its first
/// record's header) the moment it reaches a worker, then the worker blocks
/// until the test opens the gate — so a test decides, without sleeping,
/// what is queued behind what when the pool starts to run.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
    log: Mutex<Vec<String>>,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn log(&self) -> Vec<String> {
        self.log.lock().unwrap().clone()
    }
}

struct GatedBackend<B> {
    inner: B,
    gate: Arc<Gate>,
}

struct GatedWorker<'b> {
    gate: &'b Gate,
    inner: Box<dyn BackendWorker + 'b>,
}

impl<B: Backend> Backend for GatedBackend<B> {
    fn database(&self) -> &Database {
        self.inner.database()
    }

    fn name(&self) -> &'static str {
        "gated"
    }

    fn worker(&self) -> Box<dyn BackendWorker + '_> {
        Box::new(GatedWorker {
            gate: &self.gate,
            inner: self.inner.worker(),
        })
    }
}

impl BackendWorker for GatedWorker<'_> {
    fn candidates_each(
        &mut self,
        records: &[SequenceRecord],
        emit: &mut dyn FnMut(&metacache::CandidateList),
    ) {
        if let Some(first) = records.first() {
            self.gate.log.lock().unwrap().push(first.header.clone());
        }
        let mut open = self.gate.open.lock().unwrap();
        while !*open {
            open = self.gate.opened.wait(open).unwrap();
        }
        drop(open);
        self.inner.candidates_each(records, emit);
    }
}

/// Spin (yielding, never sleeping) until `cond` holds; 20 s is a hang.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "never saw: {what}");
        std::thread::yield_now();
    }
}

/// `n` 150-base reads of genome `g`, headers `{prefix}{i}`.
fn named_reads(prefix: &str, g: usize, n: usize) -> Vec<SequenceRecord> {
    let (_, genomes) = shared_database();
    (0..n)
        .map(|i| {
            let offset = 300 + i * 211;
            SequenceRecord::new(
                format!("{prefix}{i}"),
                genomes[g][offset..offset + 150].to_vec(),
            )
        })
        .collect()
}

/// Candidate requests schedule like any other request: a connection
/// flooding multi-batch `Candidates` requests and a connection's later
/// `ClassifyPacked` request take DRR turns one for one, so the flood cannot
/// hold the classify request behind its backlog. One gated worker; the
/// whole backlog is queued before the pool runs, so the backend call order
/// is exactly the fair queue's.
#[test]
fn bulk_candidates_flood_cannot_hold_interactive_classify_beyond_its_weight() {
    let (db, _) = shared_database();
    let gate = Arc::new(Gate::default());
    // One-record batches and a one-record quantum: every read is one engine
    // batch, and every lane visit buys exactly one.
    let engine = ServingEngine::new(
        GatedBackend {
            inner: HostBackend::new(Arc::clone(&db)),
            gate: Arc::clone(&gate),
        },
        EngineConfig {
            workers: 1,
            queue_capacity: 16,
            batch_records: 1,
            session_max_in_flight: 0,
        },
    );
    let server = NetServer::bind(&engine, "127.0.0.1:0").unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    let bulk_reads = named_reads("bulk", 0, 9);
    let interactive_reads = named_reads("inter", 1, 4);
    std::thread::scope(|scope| {
        let _guard = ShutdownOnDrop(handle.clone());
        // A failed wait must not leave the worker parked behind the gate.
        let _open = OpenOnDrop(&gate);
        scope.spawn(|| server.run().unwrap());

        // The flood: three pipelined three-batch Candidates requests. The
        // gated worker takes `bulk0` and blocks; eight batches queue.
        let flood = scope.spawn(|| {
            let burst: Vec<u8> = bulk_reads
                .chunks(3)
                .enumerate()
                .flat_map(|(i, reads)| {
                    Frame::Candidates {
                        request_id: i as u64 + 1,
                        reads: reads.to_vec(),
                    }
                    .encode()
                    .unwrap()
                })
                .collect();
            raw_exchange(addr, PROTOCOL_VERSION, &burst)
        });
        wait_for("the flood queued behind the gated worker", || {
            gate.log().len() == 1 && engine.stats().peak_queue_batches >= 8
        });
        // The interactive request arrives dead last. 12 queued batches is
        // everything: 13 submitted, one at the gate.
        let interactive = scope.spawn(|| {
            NetClient::connect(addr)
                .unwrap()
                .classify_batch(&interactive_reads)
                .unwrap()
        });
        wait_for("all 13 batches submitted", || {
            engine.stats().peak_queue_batches == 12
        });
        gate.open();

        assert_eq!(
            interactive.join().unwrap(),
            Classifier::new(Arc::clone(&db)).classify_batch(&interactive_reads)
        );
        let expected = oracle_candidates(&db, &bulk_reads);
        let answers = flood.join().unwrap();
        assert_eq!(answers.len(), 4, "HelloAck + three answers: {answers:?}");
        for (i, frame) in answers[1..].iter().enumerate() {
            match frame {
                Frame::CandidateResults {
                    request_id,
                    candidates,
                    generation,
                } => {
                    assert_eq!(*request_id, i as u64 + 1);
                    assert_eq!(candidates[..], expected[i * 3..i * 3 + 3]);
                    assert_eq!(*generation, Some(0));
                }
                other => panic!("expected CandidateResults, got {other:?}"),
            }
        }
        handle.shutdown();
    });

    // Walked by hand: `bulk0` is at the gate; then the flood's lane and the
    // classify lane alternate, one batch per visit, until the classify
    // request is done. A FIFO — or a side pool the fair queue does not
    // govern — would serve all four `inter` batches after the whole flood.
    let expected_order = [
        "bulk0", "bulk1", "inter0", "bulk2", "inter1", "bulk3", "inter2", "bulk4", "inter3",
        "bulk5", "bulk6", "bulk7", "bulk8",
    ];
    assert_eq!(gate.log(), expected_order);
    let stats = engine.shutdown();
    assert_eq!(stats.batches_classified, 13);
    assert_eq!(stats.records_classified, 13);
}

/// Opens the gate when dropped, so a failing assertion cannot leave a
/// worker parked behind it (and the scope's join hanging).
struct OpenOnDrop<'g>(&'g Gate);

impl Drop for OpenOnDrop<'_> {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// The shared two-species database grown by a third target that repeats
/// the first half of genome A: reads from that half gain a candidate, so the
/// two epochs answer `Candidates` differently.
fn grown_database() -> Database {
    let (_, genomes) = shared_database();
    let mut db = owned_database();
    db.insert_target(
        SequenceRecord::new("refC", genomes[0][..9_000].to_vec()),
        100,
    )
    .unwrap();
    db
}

/// A multi-batch `Candidates` request straddling `reload_backend` obeys
/// the one replay rule: its first batch is held at the gate under
/// generation 0 while the engine swaps, the rest run under generation 1,
/// and the server replays the whole request — the answer carries one
/// generation and is bit-identical to that generation's oracle.
#[test]
fn candidates_request_straddling_a_reload_is_replayed_under_one_generation() {
    let (db_a, _) = shared_database();
    let db_b = Arc::new(grown_database());
    let gate = Arc::new(Gate::default());
    let engine = ServingEngine::new(
        GatedBackend {
            inner: HostBackend::new(Arc::clone(&db_a)),
            gate: Arc::clone(&gate),
        },
        EngineConfig {
            workers: 1,
            queue_capacity: 4,
            batch_records: 4,
            session_max_in_flight: 0,
        },
    );
    let server = NetServer::bind(&engine, "127.0.0.1:0").unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();
    // Twelve reads = three engine batches, all inside refC's stretch of
    // genome A.
    let reads = named_reads("straddle", 0, 12);
    let oracle_b = oracle_candidates(&db_b, &reads);
    assert_ne!(
        oracle_candidates(&db_a, &reads),
        oracle_b,
        "the epochs must disagree for the test to mean anything"
    );

    std::thread::scope(|scope| {
        let _guard = ShutdownOnDrop(handle.clone());
        let _open = OpenOnDrop(&gate);
        scope.spawn(|| server.run().unwrap());
        let request = scope.spawn(|| {
            NetClient::connect(addr)
                .unwrap()
                .candidates_batch_tagged(&reads)
                .unwrap()
        });
        // Batch one is on the worker, pinned to generation 0.
        wait_for("the first batch at the gate", || gate.log().len() == 1);
        assert_eq!(
            engine.reload_backend(HostBackend::new(Arc::clone(&db_b))),
            1
        );
        gate.open();
        let (lists, generation) = request.join().unwrap();
        assert_eq!(
            generation, 1,
            "a straddling request answers as the new epoch"
        );
        assert_eq!(lists, oracle_b);
        handle.shutdown();
    });
    // Batch one ran twice: once under generation 0 (discarded), once in
    // the replay.
    let stats = engine.shutdown();
    assert_eq!(stats.batches_classified, 3 + 3);
    assert_eq!(stats.worker_panics, 0);
}
