//! Fault-injection tests of the serving stack: every chaos-proxy fault
//! class (delay, dribble, truncate, stall, reset, half-close, handshake
//! stall) must leave the server serviceable — sessions reclaimed in
//! bounded time, other connections unaffected, stats accounted — and the
//! backoff-retry client must converge to results bit-identical to the
//! in-process engine. Also covers pre-shared-token auth, Ping/Pong
//! keepalive vs idle reaping, and `Busy` load shedding.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mc_net::protocol::{self, frame_type, Frame, MAGIC};
use mc_net::{
    ChaosProxy, ClientConfig, ConnPlan, ErrorCode, Fault, NetClient, NetError, NetServer,
    RetryClient, RetryPolicy, ServerConfig, ServerHandle, PASSTHROUGH,
};
use mc_seqio::SequenceRecord;
use mc_taxonomy::{Rank, Taxonomy};
use metacache::build::CpuBuilder;
use metacache::query::Classifier;
use metacache::serving::{EngineConfig, ServingEngine};
use metacache::{Database, HostBackend, MetaCacheConfig};

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

fn genome_reads(n: usize, seed: u64) -> Vec<SequenceRecord> {
    let (_, genomes) = shared_database();
    let mut state = seed | 1;
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let genome = &genomes[i % 2];
            let offset = (state as usize >> 7) % (genome.len() - 150);
            SequenceRecord::new(
                format!("c{seed}_r{i}"),
                genome[offset..offset + 150].to_vec(),
            )
        })
        .collect()
}

fn test_engine(db: Arc<Database>) -> ServingEngine {
    ServingEngine::host_with_config(
        db,
        EngineConfig {
            workers: 3,
            queue_capacity: 4,
            batch_records: 8,
            session_max_in_flight: 0,
        },
    )
}

/// Tight deadlines so faults are reaped inside test time.
fn fast_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Some(Duration::from_millis(400)),
        idle_timeout: Some(Duration::from_secs(5)),
        handshake_timeout: Some(Duration::from_millis(400)),
        write_timeout: Some(Duration::from_secs(5)),
        ..ServerConfig::default()
    }
}

/// Shuts the server down when dropped, so a failed assertion inside a
/// `thread::scope` unwinds cleanly instead of deadlocking on the join of
/// the still-running acceptor (shutdown is idempotent).
struct ShutdownOnDrop(ServerHandle);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

fn wait_until(mut cond: impl FnMut() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return cond();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn hello_bytes() -> Vec<u8> {
    hello_announcing(protocol::PROTOCOL_VERSION)
}

fn hello_announcing(version: u16) -> Vec<u8> {
    Frame::Hello {
        magic: MAGIC,
        version,
        batch_records: 0,
        max_in_flight: 0,
        auth_token: None,
    }
    .encode()
    .unwrap()
}

/// The tentpole acceptance test: a seeded sweep over every fault class,
/// driven by the retry client, must end bit-identical to the in-process
/// classifier with every session reclaimed.
#[test]
fn retry_client_converges_bit_identical_through_seeded_fault_sweep() {
    let (db, _) = shared_database();
    let reads = genome_reads(60, 31);
    let expected = Classifier::new(Arc::clone(&db)).classify_batch(&reads);

    let engine = test_engine(Arc::clone(&db));
    let server = NetServer::bind_with(&engine, "127.0.0.1:0", fast_config()).unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run().unwrap());
        let _guard = ShutdownOnDrop(handle.clone());
        // Ten scripted connections drawn from the seeded generator (every
        // class appears across these seeds), then verbatim forwarding.
        let plans: Vec<ConnPlan> = (0..10).map(ConnPlan::seeded).collect();
        assert!(
            plans
                .iter()
                .any(|p| p.upstream.is_lossy() || p.downstream.is_lossy()),
            "sweep must contain lossy faults"
        );
        let proxy = ChaosProxy::start(addr, plans).unwrap();
        let mut client = RetryClient::connect_with(
            proxy.local_addr(),
            ClientConfig {
                connect_timeout: Some(Duration::from_secs(1)),
                request_timeout: Some(Duration::from_millis(500)),
                ..ClientConfig::default()
            },
            RetryPolicy {
                max_retries: 30,
                base_delay: Duration::from_millis(2),
                max_delay: Duration::from_millis(20),
                seed: 41,
            },
        )
        .unwrap();
        let (got, summary) = client.classify_iter(reads.iter().cloned()).unwrap();
        assert_eq!(got, expected, "chaos results diverged from in-process");
        assert!(summary.requests >= 8, "60 reads over 8-record chunks");
        assert!(
            client.stats().connects >= 2,
            "the client never had to reconnect — the faults did not bite"
        );
        drop(client);
        proxy.shutdown();

        // The server must still be serviceable on a clean connection …
        let mut direct = NetClient::connect(addr).unwrap();
        assert_eq!(direct.classify_batch(&reads).unwrap(), expected);
        drop(direct);
        // … and every chaos-era session must be reclaimed in bounded time.
        assert!(
            wait_until(|| engine.live_sessions() == 0, Duration::from_secs(5)),
            "sessions leaked after the fault sweep: {}",
            engine.live_sessions()
        );
        handle.shutdown();
        runner.join().unwrap();
    });
    engine.shutdown();
}

/// Satellite: a connection that vanishes mid-stream (chaos reset) must
/// purge its session promptly — not at process exit — while a concurrent
/// session streams on unaffected.
#[test]
fn reset_mid_stream_purges_session_while_others_stream_on() {
    let (db, _) = shared_database();
    let reads = genome_reads(48, 77);
    let expected = Classifier::new(Arc::clone(&db)).classify_batch(&reads);

    let engine = test_engine(Arc::clone(&db));
    let server = NetServer::bind_with(&engine, "127.0.0.1:0", fast_config()).unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run().unwrap());
        let _guard = ShutdownOnDrop(handle.clone());
        // Victim: its upstream direction is cut 40 bytes in — right after
        // the handshake, inside the first classify frame.
        let proxy =
            ChaosProxy::start(addr, vec![ConnPlan::upstream(Fault::Reset { after: 40 })]).unwrap();
        let mut victim = NetClient::connect_with(
            proxy.local_addr(),
            ClientConfig {
                request_timeout: Some(Duration::from_secs(2)),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        assert_eq!(engine.live_sessions(), 1, "victim session registered");
        let victim_result = victim.classify_batch(&reads);
        assert!(
            victim_result.is_err(),
            "reset connection must surface an error"
        );

        // The victim's session must be gone well before process exit.
        assert!(
            wait_until(|| engine.live_sessions() == 0, Duration::from_secs(3)),
            "rude disconnect leaked its session"
        );

        // A well-behaved concurrent client is unaffected.
        let mut good = NetClient::connect(addr).unwrap();
        assert_eq!(good.classify_batch(&reads).unwrap(), expected);
        drop(good);
        drop(victim);
        proxy.shutdown();
        handle.shutdown();
        runner.join().unwrap();
    });
    let stats = engine.shutdown();
    assert!(
        stats.records_classified >= 48,
        "good client's reads classified"
    );
}

/// Satellite: slow-loris and partial-frame stalls are disconnected in
/// bounded time by the per-frame read deadline — a dribbled handshake, a
/// 3-byte length prefix, and a stall inside a ClassifyPacked payload.
#[test]
fn slow_loris_and_partial_frame_stalls_are_reaped_in_bounded_time() {
    let (db, _) = shared_database();
    let engine = test_engine(Arc::clone(&db));
    let server = NetServer::bind_with(&engine, "127.0.0.1:0", fast_config()).unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run());
        let _guard = ShutdownOnDrop(handle.clone());

        // (a) Handshake dribbled one byte per 50 ms: the 400 ms handshake
        // deadline fires long before the Hello completes.
        let started = Instant::now();
        let mut dribbler = TcpStream::connect(addr).unwrap();
        dribbler
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let hello = hello_bytes();
        for byte in &hello {
            std::thread::sleep(Duration::from_millis(50));
            if dribbler.write_all(std::slice::from_ref(byte)).is_err() {
                break; // server already gave up on us — that's the point
            }
        }
        // ~19 bytes × 50 ms ≫ the 400 ms handshake deadline: by now the
        // server has killed the handshake. Read its parting TimedOut error
        // (or the bare close, if the error frame was lost to the reset).
        match protocol::read_frame(&mut dribbler) {
            Ok(Some(Frame::Error { code, .. })) => assert_eq!(code, ErrorCode::TimedOut),
            Ok(Some(other)) => panic!("expected TimedOut error, got {other:?}"),
            Ok(None) | Err(_) => {}
        }
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "dribbled handshake was not reaped in bounded time"
        );
        drop(dribbler);

        // (b) Three bytes of a length prefix, then silence: the frame has
        // started, so the read deadline (not the idle one) must fire.
        let mut stall = TcpStream::connect(addr).unwrap();
        stall
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stall.write_all(&hello).unwrap();
        let ack = protocol::read_frame(&mut stall).unwrap().unwrap();
        assert!(matches!(ack, Frame::HelloAck { .. }));
        assert_eq!(engine.live_sessions(), 1);
        stall.write_all(&[0x40, 0x00, 0x00]).unwrap();
        let started = Instant::now();
        match protocol::read_frame(&mut stall) {
            Ok(Some(Frame::Error { code, .. })) => assert_eq!(code, ErrorCode::TimedOut),
            Ok(Some(other)) => panic!("expected TimedOut error, got {other:?}"),
            Ok(None) | Err(_) => {} // already torn down: fine
        }
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "stalled length prefix was not reaped in bounded time"
        );
        assert!(
            wait_until(|| engine.live_sessions() == 0, Duration::from_secs(3)),
            "stalled connection leaked its session"
        );
        drop(stall);

        // (c) A stall *inside* a ClassifyPacked payload: full handshake,
        // then a frame that announces 600 payload bytes and delivers 10.
        let mut midframe = TcpStream::connect(addr).unwrap();
        midframe
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        midframe.write_all(&hello).unwrap();
        protocol::read_frame(&mut midframe).unwrap().unwrap();
        assert_eq!(engine.live_sessions(), 1);
        let mut partial = 600u32.to_le_bytes().to_vec();
        partial.push(frame_type::CLASSIFY_PACKED);
        partial.extend_from_slice(&[0u8; 10]);
        midframe.write_all(&partial).unwrap();
        let started = Instant::now();
        match protocol::read_frame(&mut midframe) {
            Ok(Some(Frame::Error { code, .. })) => assert_eq!(code, ErrorCode::TimedOut),
            Ok(Some(other)) => panic!("expected TimedOut error, got {other:?}"),
            Ok(None) | Err(_) => {}
        }
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "mid-payload stall was not reaped in bounded time"
        );
        assert!(
            wait_until(|| engine.live_sessions() == 0, Duration::from_secs(3)),
            "mid-payload stall leaked its session"
        );
        drop(midframe);

        handle.shutdown();
        let stats = runner.join().unwrap().unwrap();
        assert!(
            stats.timeouts >= 3,
            "every stalled connection must count a timeout, got {}",
            stats.timeouts
        );
    });
    engine.shutdown();
}

/// v3 liveness: pings reset the idle reaper, so an idle-but-alive client
/// outlives several idle windows; a silent one is reaped.
#[test]
fn pings_keep_idle_connection_alive_until_they_stop() {
    let (db, _) = shared_database();
    let reads = genome_reads(8, 5);
    let expected = Classifier::new(Arc::clone(&db)).classify_batch(&reads);

    let engine = test_engine(Arc::clone(&db));
    let config = ServerConfig {
        idle_timeout: Some(Duration::from_millis(500)),
        read_timeout: Some(Duration::from_secs(2)),
        ..ServerConfig::default()
    };
    let server = NetServer::bind_with(&engine, "127.0.0.1:0", config).unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run());
        let _guard = ShutdownOnDrop(handle.clone());
        let mut client = NetClient::connect(addr).unwrap();
        // 6 × 150 ms of pinging spans ~900 ms — nearly two idle windows.
        for _ in 0..6 {
            std::thread::sleep(Duration::from_millis(150));
            client.ping().expect("ping must keep the connection alive");
        }
        assert_eq!(client.classify_batch(&reads).unwrap(), expected);
        // Now go silent: the idle reaper must claim the connection.
        assert!(
            wait_until(|| engine.live_sessions() == 0, Duration::from_secs(4)),
            "idle connection was never reaped"
        );
        assert!(
            client.classify_batch(&reads).is_err(),
            "reaped connection must error"
        );
        drop(client);
        handle.shutdown();
        let stats = runner.join().unwrap().unwrap();
        assert!(stats.timeouts >= 1, "idle reap must count a timeout");
    });
    engine.shutdown();
}

/// Satellite: pre-shared-token auth — right token in, wrong token out (as
/// a typed Unauthorized frame).
#[test]
fn auth_token_gates_the_handshake() {
    let (db, _) = shared_database();
    let reads = genome_reads(8, 9);
    let expected = Classifier::new(Arc::clone(&db)).classify_batch(&reads);

    let engine = test_engine(Arc::clone(&db));
    let config = ServerConfig {
        auth_token: Some("open sesame".into()),
        ..ServerConfig::default()
    };
    let server = NetServer::bind_with(&engine, "127.0.0.1:0", config).unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run());
        let _guard = ShutdownOnDrop(handle.clone());

        let mut authed = NetClient::connect_with(
            addr,
            ClientConfig {
                auth_token: Some("open sesame".into()),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        assert_eq!(authed.classify_batch(&reads).unwrap(), expected);
        drop(authed);

        for bad in [Some("wrong token".to_string()), None] {
            let err = match NetClient::connect_with(
                addr,
                ClientConfig {
                    auth_token: bad,
                    ..ClientConfig::default()
                },
            ) {
                Err(e) => e,
                Ok(_) => panic!("handshake must be rejected without the right token"),
            };
            match &err {
                NetError::Remote { code, .. } => assert_eq!(*code, ErrorCode::Unauthorized),
                other => panic!("expected Unauthorized, got {other}"),
            }
            assert!(!err.is_retryable(), "auth rejection must not be retried");
        }

        handle.shutdown();
        let stats = runner.join().unwrap().unwrap();
        assert_eq!(stats.auth_failures, 2);
    });
    engine.shutdown();
}

/// Load shedding: past `max_inflight_records`, a request is answered with a
/// request-level Busy (the connection survives) — whatever version the peer
/// announced; no announceable version is served past the cap.
#[test]
fn overload_is_shed_with_busy_frames() {
    let (db, _) = shared_database();
    let small = genome_reads(3, 13);
    let expected_small = Classifier::new(Arc::clone(&db)).classify_batch(&small);
    // Exactly one negotiated request (the engine's batch is 8 records), so
    // it always lands over the 4-record cap in a single Busy answer.
    let big = genome_reads(8, 14);

    let engine = test_engine(Arc::clone(&db));
    let config = ServerConfig {
        max_inflight_records: 4,
        retry_after_ms: 25,
        ..ServerConfig::default()
    };
    let server = NetServer::bind_with(&engine, "127.0.0.1:0", config).unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run());
        let _guard = ShutdownOnDrop(handle.clone());

        // An 8-read request can never fit under the 4-record cap: shed.
        let mut client = NetClient::connect(addr).unwrap();
        match client.classify_batch(&big) {
            Err(NetError::Busy { retry_after_ms }) => assert_eq!(retry_after_ms, 25),
            other => panic!("expected Busy, got {other:?}"),
        }
        // The same connection keeps working for requests under the cap.
        assert_eq!(client.classify_batch(&small).unwrap(), expected_small);
        drop(client);

        // Regression (shed bypass): announcing an old version used to exempt
        // a peer from the cap. Now every announcement either fails the
        // handshake or is shed exactly like the client above.
        let request = protocol::encode_classify_packed(0, &big).unwrap();
        for version in [1u16, 2, protocol::PROTOCOL_VERSION, 6, u16::MAX] {
            let mut peer = TcpStream::connect(addr).unwrap();
            peer.write_all(&hello_announcing(version)).unwrap();
            match protocol::read_frame(&mut peer).unwrap().unwrap() {
                Frame::Error { code, .. } => {
                    assert!(version < protocol::PROTOCOL_VERSION, "version {version}");
                    assert_eq!(code, ErrorCode::UnsupportedVersion, "version {version}");
                    assert_eq!(protocol::read_frame(&mut peer).unwrap(), None);
                    continue;
                }
                Frame::HelloAck { version: acked, .. } => {
                    assert!(version >= protocol::PROTOCOL_VERSION, "version {version}");
                    assert_eq!(acked, protocol::PROTOCOL_VERSION);
                }
                other => panic!("version {version}: unexpected {other:?}"),
            }
            peer.write_all(&request).unwrap();
            match protocol::read_frame(&mut peer).unwrap().unwrap() {
                Frame::Busy {
                    request_id: 0,
                    retry_after_ms: 25,
                } => {}
                other => panic!("version {version}: expected Busy, got {other:?}"),
            }
        }

        // The retry client gives up on a permanently-shed request only
        // after its policy is exhausted.
        let mut retry = RetryClient::connect_with(
            addr,
            ClientConfig::default(),
            RetryPolicy {
                max_retries: 2,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(5),
                seed: 3,
            },
        )
        .unwrap();
        assert!(matches!(
            retry.classify_batch(&big),
            Err(NetError::Busy { .. })
        ));
        assert_eq!(retry.stats().busy_sheds, 3, "initial try + 2 retries");

        handle.shutdown();
        let stats = runner.join().unwrap().unwrap();
        // 1 (client) + 3 (raw peers at or above the floor) + 3 (retry).
        assert_eq!(stats.shed_requests, 7);
    });
    engine.shutdown();
}

/// Connection-level shedding: past `max_connections` the server answers a
/// connection-level Busy at the door; once capacity frees, the same peer
/// gets in.
#[test]
fn connection_cap_refuses_at_the_door_until_capacity_frees() {
    let (db, _) = shared_database();
    let reads = genome_reads(6, 21);
    let expected = Classifier::new(Arc::clone(&db)).classify_batch(&reads);

    let engine = test_engine(Arc::clone(&db));
    let config = ServerConfig {
        max_connections: 1,
        retry_after_ms: 10,
        ..ServerConfig::default()
    };
    let server = NetServer::bind_with(&engine, "127.0.0.1:0", config).unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run());
        let _guard = ShutdownOnDrop(handle.clone());
        let first = NetClient::connect(addr).unwrap();
        let refused = NetClient::connect(addr);
        assert!(
            matches!(refused, Err(NetError::Busy { retry_after_ms: 10 })),
            "second connection must be refused at the door"
        );
        drop(first);
        // Capacity frees once the first connection is torn down; the retry
        // client rides the Busy hint until it gets in.
        let mut retry = RetryClient::connect_with(
            addr,
            ClientConfig::default(),
            RetryPolicy {
                max_retries: 20,
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(50),
                seed: 9,
            },
        )
        .unwrap();
        assert_eq!(retry.classify_batch(&reads).unwrap(), expected);
        handle.shutdown();
        let stats = runner.join().unwrap().unwrap();
        assert!(stats.shed_connections >= 1);
    });
    engine.shutdown();
}

/// Truncated and half-closed connections (the remaining fault classes,
/// pointed at the handshake) are absorbed by the retry client and leave
/// no session behind.
#[test]
fn truncate_and_half_close_faults_are_absorbed_by_retry() {
    let (db, _) = shared_database();
    let reads = genome_reads(24, 55);
    let expected = Classifier::new(Arc::clone(&db)).classify_batch(&reads);

    let engine = test_engine(Arc::clone(&db));
    let server = NetServer::bind_with(&engine, "127.0.0.1:0", fast_config()).unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run().unwrap());
        let _guard = ShutdownOnDrop(handle.clone());
        let plans = vec![
            ConnPlan::upstream(Fault::Truncate { after: 7 }),
            ConnPlan::downstream(Fault::Truncate { after: 12 }),
            ConnPlan::upstream(Fault::HalfClose { after: 25 }),
            ConnPlan::downstream(Fault::Delay(Duration::from_millis(30))),
            PASSTHROUGH,
        ];
        let proxy = ChaosProxy::start(addr, plans).unwrap();
        let mut retry = RetryClient::connect_with(
            proxy.local_addr(),
            ClientConfig {
                connect_timeout: Some(Duration::from_secs(1)),
                request_timeout: Some(Duration::from_millis(500)),
                ..ClientConfig::default()
            },
            RetryPolicy {
                max_retries: 15,
                base_delay: Duration::from_millis(2),
                max_delay: Duration::from_millis(20),
                seed: 77,
            },
        )
        .unwrap();
        assert_eq!(retry.classify_batch(&reads).unwrap(), expected);
        assert!(retry.stats().retries >= 1, "the faults must have bitten");
        drop(retry);
        proxy.shutdown();
        assert!(
            wait_until(|| engine.live_sessions() == 0, Duration::from_secs(5)),
            "faulted connections leaked sessions"
        );
        handle.shutdown();
        runner.join().unwrap();
    });
    engine.shutdown();
}

/// `ServerHandle::shutdown` must complete even while a peer is stalled
/// mid-frame — the drain is bounded by deadlines, not by peer behavior.
#[test]
fn shutdown_is_bounded_with_a_stuck_peer() {
    let (db, _) = shared_database();
    let engine = test_engine(Arc::clone(&db));
    let server = NetServer::bind_with(&engine, "127.0.0.1:0", fast_config()).unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run());
        let _guard = ShutdownOnDrop(handle.clone());
        // A peer that handshakes, then leaves half a frame on the wire and
        // goes silent (but keeps the socket open).
        let mut stuck = TcpStream::connect(addr).unwrap();
        stuck.write_all(&hello_bytes()).unwrap();
        protocol::read_frame(&mut stuck).unwrap().unwrap();
        stuck.write_all(&[0x99, 0x00]).unwrap();

        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        handle.shutdown();
        let stats = runner.join().unwrap().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown blocked on a stuck peer"
        );
        assert_eq!(stats.connections, 1);
        drop(stuck);
    });
    engine.shutdown();
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

/// Routed topology under chaos: a [`ChaosProxy`] sits between the router
/// and one of its two shard servers, feeding the first leg connections
/// truncations and resets. The router's per-leg [`RetryClient`] must absorb
/// the faults and converge to results bit-identical to the unsharded
/// in-process classifier — a flaky shard leg must never corrupt a merge
/// with partial (healthy-shards-only) answers — and every session on every
/// leg must drain to zero afterwards.
#[test]
fn routed_chaos_leg_retries_to_bit_identical_convergence() {
    let (db, _) = shared_database();
    let reads = genome_reads(40, 83);
    let expected = Classifier::new(Arc::clone(&db)).classify_batch(&reads);
    let split = Arc::new(metacache::ShardedDatabase::round_robin(owned_database(), 2).unwrap());

    let shard_engines: Vec<ServingEngine> = split
        .shards()
        .iter()
        .map(|shard| test_engine(Arc::clone(shard)))
        .collect();
    let shard_servers: Vec<NetServer> = shard_engines
        .iter()
        .map(|engine| NetServer::bind_with(engine, "127.0.0.1:0", fast_config()).unwrap())
        .collect();
    let shard_handles: Vec<ServerHandle> = shard_servers.iter().map(|s| s.handle()).collect();

    // Chaos between the router and shard 1 only: the first three leg
    // connections are cut in various ways, then verbatim forwarding.
    let proxy = ChaosProxy::start(
        shard_handles[1].local_addr(),
        vec![
            ConnPlan::upstream(Fault::Truncate { after: 40 }),
            ConnPlan::downstream(Fault::Reset { after: 60 }),
            ConnPlan::downstream(Fault::Truncate { after: 21 }),
        ],
    )
    .unwrap();
    let leg_addrs = vec![shard_handles[0].local_addr(), proxy.local_addr()];
    let backend = mc_net::RouterBackend::new(
        Arc::new(db.metadata_view()),
        &leg_addrs,
        mc_net::RouterConfig {
            client: ClientConfig {
                connect_timeout: Some(Duration::from_secs(1)),
                request_timeout: Some(Duration::from_millis(500)),
                ..ClientConfig::default()
            },
            policy: RetryPolicy {
                max_retries: 15,
                base_delay: Duration::from_millis(2),
                max_delay: Duration::from_millis(20),
                seed: 19,
            },
        },
    )
    .unwrap();
    let router_engine = ServingEngine::new(
        backend,
        EngineConfig {
            workers: 2,
            queue_capacity: 4,
            batch_records: 8,
            session_max_in_flight: 0,
        },
    );
    let router_server = NetServer::bind_with(&router_engine, "127.0.0.1:0", fast_config()).unwrap();
    let router_handle = router_server.handle();
    let router_addr = router_handle.local_addr();

    std::thread::scope(|scope| {
        let _guards: Vec<ShutdownOnDrop> =
            shard_handles.iter().cloned().map(ShutdownOnDrop).collect();
        let _router_guard = ShutdownOnDrop(router_handle.clone());
        for server in shard_servers {
            scope.spawn(move || server.run().unwrap());
        }
        let router_runner = scope.spawn(|| router_server.run().unwrap());

        let mut client = NetClient::connect_with(
            router_addr,
            ClientConfig {
                request_timeout: Some(Duration::from_secs(10)),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        let got = client.classify_batch(&reads).unwrap();
        assert_eq!(got, expected, "chaos on one shard leg corrupted results");
        drop(client);
        proxy.shutdown();

        // Every leg drains: the router's own sessions and both shard
        // servers' sessions (the router workers' leg connections close with
        // the engine shutdown below; chaos-era leg sessions must already be
        // reclaimed by the shard servers' deadlines).
        assert!(
            wait_until(
                || router_engine.live_sessions() == 0,
                Duration::from_secs(5)
            ),
            "router sessions leaked"
        );
        router_handle.shutdown();
        router_runner.join().unwrap();
        for handle in &shard_handles {
            handle.shutdown();
        }
    });
    // The router workers' own leg connections close with the engine
    // shutdown; only then must the shard servers' sessions all be gone.
    router_engine.shutdown();
    for (i, engine) in shard_engines.iter().enumerate() {
        assert!(
            wait_until(|| engine.live_sessions() == 0, Duration::from_secs(5)),
            "shard {i} leaked sessions: {}",
            engine.live_sessions()
        );
    }
    for engine in shard_engines {
        engine.shutdown();
    }
}

/// A shard leg that is down past its retry policy must surface as a *typed*
/// Internal error on the routed session — never as a silently partial
/// merge — while the healthy shard server keeps serving untouched and all
/// sessions drain.
#[test]
fn dead_shard_leg_surfaces_typed_error_without_corrupting_healthy_leg() {
    let (db, _) = shared_database();
    let reads = genome_reads(16, 29);
    let split = Arc::new(metacache::ShardedDatabase::round_robin(owned_database(), 2).unwrap());

    let shard_engines: Vec<ServingEngine> = split
        .shards()
        .iter()
        .map(|shard| test_engine(Arc::clone(shard)))
        .collect();
    let shard_servers: Vec<NetServer> = shard_engines
        .iter()
        .map(|engine| NetServer::bind_with(engine, "127.0.0.1:0", fast_config()).unwrap())
        .collect();
    let shard_handles: Vec<ServerHandle> = shard_servers.iter().map(|s| s.handle()).collect();
    let shard_addrs: Vec<std::net::SocketAddr> =
        shard_handles.iter().map(|h| h.local_addr()).collect();

    let backend = mc_net::RouterBackend::new(
        Arc::new(db.metadata_view()),
        &shard_addrs,
        mc_net::RouterConfig {
            client: ClientConfig {
                connect_timeout: Some(Duration::from_millis(300)),
                request_timeout: Some(Duration::from_millis(400)),
                ..ClientConfig::default()
            },
            policy: RetryPolicy {
                max_retries: 2,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(5),
                seed: 5,
            },
        },
    )
    .unwrap();
    let router_engine = ServingEngine::new(
        backend,
        EngineConfig {
            workers: 2,
            queue_capacity: 4,
            batch_records: 8,
            session_max_in_flight: 0,
        },
    );
    let router_server = NetServer::bind_with(&router_engine, "127.0.0.1:0", fast_config()).unwrap();
    let router_handle = router_server.handle();
    let router_addr = router_handle.local_addr();

    std::thread::scope(|scope| {
        let _guards: Vec<ShutdownOnDrop> =
            shard_handles.iter().cloned().map(ShutdownOnDrop).collect();
        let _router_guard = ShutdownOnDrop(router_handle.clone());
        let mut runners = Vec::new();
        for server in shard_servers {
            runners.push(scope.spawn(move || server.run().unwrap()));
        }
        let router_runner = scope.spawn(|| router_server.run().unwrap());

        // Kill shard 1 before any routed traffic: its leg can never connect.
        shard_handles[1].shutdown();
        runners.pop().unwrap().join().unwrap();

        let patient = ClientConfig {
            request_timeout: Some(Duration::from_secs(10)),
            ..ClientConfig::default()
        };
        let mut victim = NetClient::connect_with(router_addr, patient.clone()).unwrap();
        match victim.classify_batch(&reads) {
            Err(NetError::Remote { code, .. }) => assert_eq!(
                code,
                ErrorCode::Internal,
                "an exhausted shard leg must surface as Internal"
            ),
            other => panic!("expected a typed Internal error, got {other:?}"),
        }
        drop(victim);
        // A candidates request dies the same death on the same path: the
        // router worker panics on the dead leg, the engine flags the batch,
        // the server answers `Internal` — not a hung or torn connection.
        let mut victim = NetClient::connect_with(router_addr, patient).unwrap();
        match victim.candidates_batch_tagged(&reads) {
            Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Internal),
            other => panic!("expected a typed Internal error, got {other:?}"),
        }
        drop(victim);

        // The healthy shard server is untouched: its candidate answers still
        // match its own in-process classifier exactly.
        let mut direct = NetClient::connect(shard_addrs[0]).unwrap();
        let classifier = Classifier::new(Arc::clone(&split.shards()[0]));
        let mut scratch = metacache::QueryScratch::new();
        let expected_cands: Vec<Vec<metacache::Candidate>> = reads
            .iter()
            .map(|r| {
                classifier
                    .candidates_with(r, &mut scratch)
                    .as_slice()
                    .to_vec()
            })
            .collect();
        assert_eq!(
            direct.candidates_batch_tagged(&reads).unwrap().0,
            expected_cands
        );
        drop(direct);

        // Sessions drain on the router and the surviving shard.
        assert!(
            wait_until(
                || router_engine.live_sessions() == 0,
                Duration::from_secs(5)
            ),
            "router sessions leaked after the dead-leg error"
        );
        router_handle.shutdown();
        router_runner.join().unwrap();
        assert!(
            wait_until(
                || shard_engines[0].live_sessions() == 0,
                Duration::from_secs(5)
            ),
            "healthy shard leaked sessions"
        );
        shard_handles[0].shutdown();
        runners.pop().unwrap().join().unwrap();
    });
    router_engine.shutdown();
    for engine in shard_engines {
        engine.shutdown();
    }
}

/// Regression (torn-merge guard): a leg that answers without a generation
/// tag used to "agree with everything", silently switching the router's
/// mixed-epoch check off. A fake shard server — a plain listener speaking
/// hand-encoded frames — that answers `Candidates` with an untagged
/// `CandidateResults`, or `ClassifyPacked` with an untagged `Results`, now
/// gets a typed protocol error from both clients, never `(lists, None)`.
#[test]
fn untagged_answers_are_a_protocol_error_not_an_agreeing_leg() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let reads = genome_reads(3, 71);

    std::thread::scope(|scope| {
        // Serves two connections, one request each, always untagged.
        scope.spawn(|| {
            for _ in 0..2 {
                let (mut peer, _) = listener.accept().unwrap();
                assert!(matches!(
                    protocol::read_frame(&mut peer).unwrap().unwrap(),
                    Frame::Hello { .. }
                ));
                let ack = Frame::HelloAck {
                    version: protocol::PROTOCOL_VERSION,
                    credits: 1,
                    batch_records: 8,
                    backend: "fake shard".into(),
                };
                peer.write_all(&ack.encode().unwrap()).unwrap();
                let answer = match protocol::read_frame(&mut peer).unwrap().unwrap() {
                    Frame::Candidates { request_id, reads } => Frame::CandidateResults {
                        request_id,
                        candidates: vec![Vec::new(); reads.len()],
                        generation: None,
                    },
                    Frame::ClassifyPacked { request_id, reads } => Frame::Results {
                        request_id,
                        entries: vec![
                            protocol::ResultEntry::from_classification(
                                &metacache::Classification::unclassified()
                            );
                            reads.len()
                        ],
                        generation: None,
                    },
                    other => panic!("unexpected request {other:?}"),
                };
                peer.write_all(&answer.encode().unwrap()).unwrap();
            }
        });

        let mut leg = RetryClient::connect(addr).unwrap();
        let err = leg.candidates_batch_tagged(&reads).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "got {err:?}");
        assert_eq!(leg.stats().retries, 0, "a protocol error is not retried");
        drop(leg);

        let mut client = NetClient::connect(addr).unwrap();
        let err = client.classify_batch(&reads).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "got {err:?}");
        assert_eq!(client.database_generation(), None);
    });
}

/// Satellite: slow-reader backpressure. A peer that pipelines requests but
/// never reads its results must be bounded on every axis: the server's
/// outbound buffer stops growing at the high-water mark (the loop stops
/// reading — and admitting — more of its requests, withholding the
/// session's engine credits), the write-stall deadline tears the peer down
/// in bounded time, and a healthy concurrent client classifies untouched
/// throughout.
#[test]
fn stalled_reader_is_bounded_and_torn_down_without_collateral() {
    let (db, _) = shared_database();
    let engine = test_engine(Arc::clone(&db));
    let healthy_reads = genome_reads(30, 91);
    let expected = Classifier::new(Arc::clone(&db)).classify_batch(&healthy_reads);

    let config = ServerConfig {
        // Small pinned kernel buffers + a low high-water mark so the
        // backlog builds (and the gate engages) within test time.
        send_buffer: 8 * 1024,
        outbound_high_water: 16 * 1024,
        write_timeout: Some(Duration::from_millis(700)),
        ..ServerConfig::default()
    };
    let server = NetServer::bind_with(&engine, "127.0.0.1:0", config).unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    // 40 pipelined requests x 500 reads: ~280 KiB of encoded results, far
    // past what the high-water mark plus both kernel buffers can absorb —
    // the gate must engage long before the tail of the burst is parsed.
    let victim_reads = genome_reads(500, 17);
    let total_reads = 40 * victim_reads.len() as u64;

    let server_stats = std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run());
        let _guard = ShutdownOnDrop(handle.clone());

        let victim = TcpStream::connect(addr).unwrap();
        // Shrink the victim's receive window too, so unread results pile
        // up server-side instead of in a roomy client-side kernel buffer.
        let _ = mc_net::poll::set_recv_buffer(&victim, 8 * 1024);
        let victim_reads = &victim_reads;
        let writer = scope.spawn(move || {
            let mut victim = victim;
            victim.write_all(&hello_bytes()).unwrap();
            protocol::read_frame(&mut victim).unwrap().unwrap();
            for id in 1..=40u64 {
                let frame = Frame::ClassifyPacked {
                    request_id: id,
                    reads: victim_reads.clone(),
                }
                .encode()
                .unwrap();
                // The server stops reading once gated; later writes may
                // block until the write-stall teardown resets them.
                if victim.write_all(&frame).is_err() {
                    break;
                }
            }
            // Never read a byte; park until the server tears us down.
            victim
        });

        // While the victim is stalled, a healthy client is unaffected.
        let mut healthy = NetClient::connect(addr).unwrap();
        assert_eq!(healthy.classify_batch(&healthy_reads).unwrap(), expected);
        drop(healthy);

        // The stall deadline must reclaim the victim's session without any
        // help from the peer.
        assert!(
            wait_until(|| engine.live_sessions() == 0, Duration::from_secs(10)),
            "stalled reader's session was not reclaimed"
        );
        drop(writer.join().unwrap());
        handle.shutdown();
        runner.join().unwrap().unwrap()
    });
    assert!(
        server_stats.write_stalls >= 1,
        "the stalled reader must be counted as a write stall: {server_stats:?}"
    );
    assert!(
        server_stats.reads < total_reads,
        "backpressure never engaged: all {total_reads} stalled reads were served"
    );
    engine.shutdown();
}

/// Satellite: cross-request pipelining is bit-identical and correctly
/// delimited. N classify requests (of varying sizes, an empty one and an
/// interleaved Ping among them) written back-to-back in a single burst on
/// one connection come back as exactly one in-order response per request,
/// each carrying precisely its own reads' classifications — equal to the
/// in-process classifier's.
#[test]
fn pipelined_requests_return_bit_identical_per_request_results() {
    let (db, _) = shared_database();
    let engine = test_engine(Arc::clone(&db));
    let server = NetServer::bind(&engine, "127.0.0.1:0").unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();

    let all_reads = genome_reads(120, 7);
    let classifier = Classifier::new(Arc::clone(&db));
    // Uneven request sizes (including one empty request) so any
    // misdelimited boundary shifts every later response.
    let sizes = [5usize, 17, 1, 40, 0, 33, 2, 22];
    assert_eq!(sizes.iter().sum::<usize>(), all_reads.len());

    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run());
        let _guard = ShutdownOnDrop(handle.clone());

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&hello_bytes()).unwrap();
        protocol::read_frame(&mut stream).unwrap().unwrap();

        // One burst: all eight requests plus a Ping wedged mid-pipeline.
        let mut burst = Vec::new();
        let mut offset = 0;
        for (i, &n) in sizes.iter().enumerate() {
            let frame = Frame::ClassifyPacked {
                request_id: (i + 1) as u64,
                reads: all_reads[offset..offset + n].to_vec(),
            };
            burst.extend_from_slice(&frame.encode().unwrap());
            offset += n;
            if i == 3 {
                burst.extend_from_slice(&Frame::Ping { nonce: 0xF00D }.encode().unwrap());
            }
        }
        stream.write_all(&burst).unwrap();

        let mut offset = 0;
        for (i, &n) in sizes.iter().enumerate() {
            let expected: Vec<protocol::ResultEntry> = classifier
                .classify_batch(&all_reads[offset..offset + n])
                .iter()
                .map(protocol::ResultEntry::from_classification)
                .collect();
            offset += n;
            match protocol::read_frame(&mut stream).unwrap().unwrap() {
                Frame::Results {
                    request_id,
                    entries,
                    ..
                } => {
                    assert_eq!(request_id, (i + 1) as u64, "responses out of order");
                    assert_eq!(
                        entries,
                        expected,
                        "request {} results differ from in-process",
                        i + 1
                    );
                }
                other => panic!("expected Results for request {}, got {other:?}", i + 1),
            }
            if i == 3 {
                match protocol::read_frame(&mut stream).unwrap().unwrap() {
                    Frame::Pong { nonce } => assert_eq!(nonce, 0xF00D),
                    other => panic!("expected the interleaved Pong, got {other:?}"),
                }
            }
        }
        drop(stream);
        assert!(
            wait_until(|| engine.live_sessions() == 0, Duration::from_secs(5)),
            "pipelined connection leaked its session"
        );
        handle.shutdown();
        runner.join().unwrap().unwrap();
    });
    engine.shutdown();
}

/// The shared two-species database grown by a third and fourth species —
/// the "next epoch" reference set of the reload tests. Target ids 0 and 1
/// and their taxa are identical to [`shared_database`], so both epochs can
/// classify the same reads (with possibly different answers, which is what
/// the per-generation oracles account for).
fn grown_database() -> Database {
    let mut taxonomy = Taxonomy::with_root();
    taxonomy.add_node(10, 1, Rank::Genus, "G").unwrap();
    taxonomy.add_node(100, 10, Rank::Species, "G a").unwrap();
    taxonomy.add_node(101, 10, Rank::Species, "G b").unwrap();
    taxonomy.add_node(102, 10, Rank::Species, "G c").unwrap();
    taxonomy.add_node(103, 10, Rank::Species, "G d").unwrap();
    let (_, genomes) = shared_database();
    let mut builder = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy);
    builder
        .add_target(SequenceRecord::new("refA", genomes[0].clone()), 100)
        .unwrap();
    builder
        .add_target(SequenceRecord::new("refB", genomes[1].clone()), 101)
        .unwrap();
    builder
        .add_target(SequenceRecord::new("refC", make_seq(18_000, 63)), 102)
        .unwrap();
    builder
        .add_target(SequenceRecord::new("refD", make_seq(18_000, 64)), 103)
        .unwrap();
    builder.finish()
}

/// Satellite: reloads racing rude disconnects. Several peers fire `Reload`
/// and vanish without reading the ack — dropped cold, half-closed, or
/// mid-frame — while a healthy client streams classification requests.
/// The orphaned reload jobs still run (their acks land on dead
/// connections and are discarded), the healthy client stays bit-identical
/// to the single-epoch oracle of every generation it observes, the rude
/// sessions are reclaimed, and an orderly reload afterwards still works.
#[test]
fn reload_racing_rude_disconnects_leaves_server_serviceable() {
    let (db_a, _) = shared_database();
    let db_b = Arc::new(grown_database());
    let engine = test_engine(Arc::clone(&db_a));
    let flips = Arc::new(AtomicUsize::new(0));
    let hook: mc_net::ReloadHook = {
        let db_a = Arc::clone(&db_a);
        let db_b = Arc::clone(&db_b);
        let flips = Arc::clone(&flips);
        Arc::new(move |engine: &ServingEngine| {
            // Alternate the two reference sets: generation g >= 1 serves
            // the grown set when g is odd, the original when even.
            let db = if flips.fetch_add(1, Ordering::Relaxed).is_multiple_of(2) {
                Arc::clone(&db_b)
            } else {
                Arc::clone(&db_a)
            };
            Ok(engine.reload_backend(HostBackend::new(db)))
        })
    };
    let server = NetServer::bind_with(&engine, "127.0.0.1:0", fast_config())
        .unwrap()
        .with_reload(hook);
    let handle = server.handle();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run());
        let _guard = ShutdownOnDrop(handle.clone());

        let rude = scope.spawn(move || {
            for k in 0..3 {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.write_all(&hello_bytes()).unwrap();
                protocol::read_frame(&mut stream).unwrap().unwrap();
                stream.write_all(&Frame::Reload.encode().unwrap()).unwrap();
                match k {
                    0 => {} // dropped cold, the ack never read
                    1 => {
                        // half-close, then vanish
                        let _ = stream.shutdown(std::net::Shutdown::Write);
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        // a torn frame prefix chases the reload out the door
                        let _ = stream.write_all(&[0x4d, 0x43, 0x01]);
                    }
                }
                drop(stream);
            }
        });

        let reads = genome_reads(32, 91);
        let (db_a, db_b) = (Arc::clone(&db_a), Arc::clone(&db_b));
        let healthy = scope.spawn(move || {
            let mut client = NetClient::connect_with(
                addr,
                ClientConfig {
                    request_timeout: Some(Duration::from_secs(10)),
                    ..ClientConfig::default()
                },
            )
            .unwrap();
            for round in 0..6 {
                let got = client.classify_batch(&reads).unwrap();
                let generation = client
                    .database_generation()
                    .expect("a v5 server must tag its results");
                let oracle = if generation % 2 == 1 { &db_b } else { &db_a };
                let want = Classifier::new(Arc::clone(oracle)).classify_batch(&reads);
                assert_eq!(
                    got, want,
                    "round {round} diverged from the generation-{generation} oracle"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        rude.join().unwrap();
        healthy.join().unwrap();

        // The storm is over: an orderly reload still round-trips, and its
        // ack reports the engine's real generation.
        let mut client = NetClient::connect(addr).unwrap();
        let generation = client.reload().unwrap();
        assert_eq!(generation, engine.generation());
        drop(client);
        assert!(
            wait_until(|| engine.live_sessions() == 0, Duration::from_secs(5)),
            "rude reload connections leaked sessions"
        );
        handle.shutdown();
        runner.join().unwrap().unwrap();
    });
    engine.shutdown();
}

/// Satellite: a `Reload` wedged into the middle of a pipelined burst.
/// Responses keep strict submission order, the generation tag flips
/// somewhere around the ack — but **never inside one request**: a request
/// whose engine batches straddle the swap is replayed entirely on the new
/// epoch, so every response is bit-identical to a single-generation
/// oracle.
#[test]
fn reload_mid_pipelined_burst_never_splits_a_request_across_generations() {
    let (db_a, _) = shared_database();
    let db_b = Arc::new(grown_database());
    let engine = test_engine(Arc::clone(&db_a));
    let hook: mc_net::ReloadHook = {
        let db_b = Arc::clone(&db_b);
        Arc::new(move |engine: &ServingEngine| {
            Ok(engine.reload_backend(HostBackend::new(Arc::clone(&db_b))))
        })
    };
    let server = NetServer::bind_with(&engine, "127.0.0.1:0", fast_config())
        .unwrap()
        .with_reload(hook);
    let handle = server.handle();
    let addr = handle.local_addr();

    let all_reads = genome_reads(120, 47);
    // Six requests of 20 reads each: three engine batches per request
    // (batch_records is 8), so a request caught mid-swap *must* replay to
    // come back single-generation.
    let sizes = [20usize; 6];

    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run());
        let _guard = ShutdownOnDrop(handle.clone());

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&hello_bytes()).unwrap();
        protocol::read_frame(&mut stream).unwrap().unwrap();

        // One burst: requests 1-3, the reload, requests 4-6.
        let mut burst = Vec::new();
        let mut offset = 0;
        for (i, &n) in sizes.iter().enumerate() {
            let frame = Frame::ClassifyPacked {
                request_id: (i + 1) as u64,
                reads: all_reads[offset..offset + n].to_vec(),
            };
            burst.extend_from_slice(&frame.encode().unwrap());
            offset += n;
            if i == 2 {
                burst.extend_from_slice(&Frame::Reload.encode().unwrap());
            }
        }
        stream.write_all(&burst).unwrap();

        let mut offset = 0;
        for (i, &n) in sizes.iter().enumerate() {
            let slice = &all_reads[offset..offset + n];
            offset += n;
            match protocol::read_frame(&mut stream).unwrap().unwrap() {
                Frame::Results {
                    request_id,
                    entries,
                    generation,
                } => {
                    assert_eq!(request_id, (i + 1) as u64, "responses out of order");
                    let generation = generation.expect("a v5 response must carry a generation tag");
                    let oracle = match generation {
                        0 => &db_a,
                        1 => &db_b,
                        g => panic!("request {} reported unknown generation {g}", i + 1),
                    };
                    let expected: Vec<protocol::ResultEntry> = Classifier::new(Arc::clone(oracle))
                        .classify_batch(slice)
                        .iter()
                        .map(protocol::ResultEntry::from_classification)
                        .collect();
                    assert_eq!(
                        entries,
                        expected,
                        "request {} is not bit-identical to its generation-{generation} \
                         oracle — torn across the swap?",
                        i + 1
                    );
                }
                other => panic!("expected Results for request {}, got {other:?}", i + 1),
            }
            if i == 2 {
                match protocol::read_frame(&mut stream).unwrap().unwrap() {
                    Frame::ReloadAck { generation } => assert_eq!(generation, 1),
                    other => panic!("expected the pipelined ReloadAck, got {other:?}"),
                }
            }
        }
        drop(stream);
        assert!(
            wait_until(|| engine.live_sessions() == 0, Duration::from_secs(5)),
            "pipelined reload connection leaked its session"
        );
        handle.shutdown();
        runner.join().unwrap().unwrap();
    });
    assert_eq!(engine.generation(), 1);
    engine.shutdown();
}

/// Satellite: a live reference upgrade sweeping a routed topology while
/// one shard leg is wrecked mid-swap. The sweep follows the router-first
/// order (`mc-serve route` reload semantics): router metadata swaps, then
/// each shard server. The wrecked leg's reconnects are cut exactly in the
/// swap window; the router's per-leg retries plus its generation-agreement
/// re-query must converge — and **no read may ever classify as a torn
/// mixed-epoch merge**: every answer is bit-identical to one of the two
/// epoch oracles, and after the sweep the router answers exactly as the
/// new epoch.
#[test]
fn routed_reload_with_wrecked_leg_converges_without_torn_merge() {
    let (db, _) = shared_database();
    let grown = grown_database();
    let meta1 = Arc::new(grown.metadata_view());
    let oracle1_db = Arc::new(grown_database());
    let split0 = Arc::new(metacache::ShardedDatabase::round_robin(owned_database(), 2).unwrap());
    let split1 = Arc::new(metacache::ShardedDatabase::round_robin(grown, 2).unwrap());

    let shard_engines: Vec<ServingEngine> = split0
        .shards()
        .iter()
        .map(|shard| test_engine(Arc::clone(shard)))
        .collect();
    let shard_servers: Vec<NetServer> = shard_engines
        .iter()
        .enumerate()
        .map(|(i, engine)| {
            let next = Arc::clone(&split1.shards()[i]);
            let hook: mc_net::ReloadHook = Arc::new(move |engine: &ServingEngine| {
                Ok(engine.reload_backend(HostBackend::new(Arc::clone(&next))))
            });
            NetServer::bind_with(engine, "127.0.0.1:0", fast_config())
                .unwrap()
                .with_reload(hook)
        })
        .collect();
    let shard_handles: Vec<ServerHandle> = shard_servers.iter().map(|s| s.handle()).collect();

    // Chaos between the router and shard 1: the two initial leg
    // connections (one per router worker) pass through untouched; the
    // *reconnects* — which happen exactly when the router's reload mints
    // new workers mid-swap — are cut, then verbatim forwarding.
    let proxy = ChaosProxy::start(
        shard_handles[1].local_addr(),
        vec![
            PASSTHROUGH,
            PASSTHROUGH,
            ConnPlan::downstream(Fault::Reset { after: 48 }),
            ConnPlan::downstream(Fault::Truncate { after: 25 }),
        ],
    )
    .unwrap();
    let leg_addrs = vec![shard_handles[0].local_addr(), proxy.local_addr()];
    let router_config = mc_net::RouterConfig {
        client: ClientConfig {
            connect_timeout: Some(Duration::from_secs(1)),
            request_timeout: Some(Duration::from_millis(500)),
            ..ClientConfig::default()
        },
        policy: RetryPolicy {
            max_retries: 15,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(20),
            seed: 23,
        },
    };
    let backend = mc_net::RouterBackend::new(
        Arc::new(db.metadata_view()),
        &leg_addrs,
        router_config.clone(),
    )
    .unwrap();
    let router_engine = ServingEngine::new(
        backend,
        EngineConfig {
            workers: 2,
            queue_capacity: 4,
            batch_records: 8,
            session_max_in_flight: 0,
        },
    );
    let router_server = NetServer::bind_with(&router_engine, "127.0.0.1:0", fast_config()).unwrap();
    let router_handle = router_server.handle();
    let router_addr = router_handle.local_addr();

    let reads = genome_reads(24, 53);
    let want0 = Classifier::new(Arc::clone(&db)).classify_batch(&reads);
    let want1 = Classifier::new(Arc::clone(&oracle1_db)).classify_batch(&reads);

    std::thread::scope(|scope| {
        let _guards: Vec<ShutdownOnDrop> =
            shard_handles.iter().cloned().map(ShutdownOnDrop).collect();
        let _router_guard = ShutdownOnDrop(router_handle.clone());
        for server in shard_servers {
            scope.spawn(move || server.run().unwrap());
        }
        let router_runner = scope.spawn(|| router_server.run().unwrap());

        let streamer = {
            let (reads, want0, want1) = (reads.clone(), want0.clone(), want1.clone());
            scope.spawn(move || {
                let connect = || {
                    NetClient::connect_with(
                        router_addr,
                        ClientConfig {
                            request_timeout: Some(Duration::from_secs(10)),
                            ..ClientConfig::default()
                        },
                    )
                    .unwrap()
                };
                let mut client = connect();
                for round in 0..10 {
                    // A routed worker torn down past its retries surfaces a
                    // typed Internal error (PR 6 semantics); tolerate it and
                    // reconnect — but a *wrong answer* is never tolerated.
                    let got = match client.classify_batch(&reads) {
                        Ok(got) => got,
                        Err(_) => {
                            client = connect();
                            continue;
                        }
                    };
                    for (r, got) in got.iter().enumerate() {
                        assert!(
                            *got == want0[r] || *got == want1[r],
                            "round {round} read {r}: torn mixed-epoch merge \
                             (matches neither epoch oracle)"
                        );
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            })
        };

        // Let pre-swap traffic flow, then sweep the reload through the
        // topology in router-first order while the proxy wrecks shard 1's
        // leg reconnects.
        std::thread::sleep(Duration::from_millis(30));
        let new_backend =
            mc_net::RouterBackend::new(Arc::clone(&meta1), &leg_addrs, router_config).unwrap();
        assert_eq!(router_engine.reload_backend(new_backend), 1);
        let mut s0 = NetClient::connect(shard_handles[0].local_addr()).unwrap();
        assert_eq!(s0.reload().unwrap(), 1);
        drop(s0);
        let mut s1 = NetClient::connect(shard_handles[1].local_addr()).unwrap();
        assert_eq!(s1.reload().unwrap(), 1);
        drop(s1);

        streamer.join().unwrap();

        // After the sweep: the routed answer is exactly the new epoch's.
        let mut client = NetClient::connect_with(
            router_addr,
            ClientConfig {
                request_timeout: Some(Duration::from_secs(10)),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            client.classify_batch(&reads).unwrap(),
            want1,
            "router did not converge to the new epoch"
        );
        assert_eq!(client.database_generation(), Some(1));
        drop(client);
        proxy.shutdown();

        assert!(
            wait_until(
                || router_engine.live_sessions() == 0,
                Duration::from_secs(5)
            ),
            "router sessions leaked across the reload sweep"
        );
        router_handle.shutdown();
        router_runner.join().unwrap();
        for handle in &shard_handles {
            handle.shutdown();
        }
    });
    router_engine.shutdown();
    for (i, engine) in shard_engines.iter().enumerate() {
        assert!(
            wait_until(|| engine.live_sessions() == 0, Duration::from_secs(5)),
            "shard {i} leaked sessions: {}",
            engine.live_sessions()
        );
    }
    for engine in shard_engines {
        engine.shutdown();
    }
}
