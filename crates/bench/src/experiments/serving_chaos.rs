//! Fault-tolerance experiment: the serving stack under a seeded fault
//! sweep plus deliberate overload.
//!
//! Two legs, both scored on *convergence* — the retry client must finish
//! with classifications bit-identical to [`Classifier::classify_batch`]
//! despite every injected failure — and on *containment* — the server must
//! end the experiment with zero live sessions and zero protocol errors:
//!
//! 1. **Fault sweep** — a [`ChaosProxy`] sits between a [`RetryClient`]
//!    and the server and torments consecutive connections with seeded
//!    faults (delays, slow-loris dribble, truncation, mid-frame stalls,
//!    resets, half-closes). The sweep is deterministic: a given seed
//!    replays the same fault schedule.
//! 2. **Overload** — more clients than `max_connections`; latecomers are
//!    refused with connection-level `Busy` frames and ride the
//!    `retry_after_ms` hint until a slot frees. Every client must still
//!    converge.
//!
//! `repro -- serving_chaos` runs in CI at tiny scale, making every fault
//! class a regression test.

use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;

use mc_net::{
    ChaosProxy, ClientConfig, ConnPlan, NetServer, RetryClient, RetryPolicy, ServerConfig,
};
use metacache::query::Classifier;
use metacache::serving::{EngineConfig, ServingEngine};
use metacache::MetaCacheConfig;

use crate::scale::ExperimentScale;
use crate::setup::{self, ReferenceSetup, Workloads};

/// One seeded pass of the fault sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosRow {
    /// Seed of this sweep's fault schedule.
    pub sweep: u64,
    /// Scripted chaos connections (later connections pass through).
    pub connections_planned: usize,
    /// How many of those connections carry a lossy fault.
    pub lossy_faults: usize,
    /// Wall-clock seconds for the full corpus through the proxy.
    pub secs: f64,
    /// Connections the retry client established.
    pub connects: u64,
    /// Backoff sleeps the retry client took.
    pub retries: u64,
    /// `Busy` answers the retry client absorbed.
    pub busy_sheds: u64,
    /// Results bit-identical to the in-process classifier.
    pub identical: bool,
}

/// The fault-tolerance experiment result.
#[derive(Debug, Clone, Serialize, Default)]
pub struct ServingChaosResult {
    /// One row per sweep seed.
    pub rows: Vec<ChaosRow>,
    /// Reads pushed through each sweep.
    pub reads: usize,
    /// Connections the chaos server saw (including half-open wrecks).
    pub server_connections: u64,
    /// Connections the chaos server reaped on a deadline.
    pub server_timeouts: u64,
    /// Protocol errors on the chaos server (faults must read as
    /// disconnects or deadline kills, not as protocol violations — except
    /// truncation, which can shear a frame mid-byte).
    pub server_protocol_errors: u64,
    /// The engine ended the sweep with zero live sessions.
    pub sessions_reclaimed: bool,
    /// Clients racing for the overload server's single connection slot.
    pub overload_clients: usize,
    /// Connection-level `Busy` refusals the overload server issued.
    pub overload_shed_connections: u64,
    /// `Busy` answers absorbed across the overload clients.
    pub overload_busy_sheds: u64,
    /// Every overload client converged bit-identically.
    pub overload_identical: bool,
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

/// Tight deadlines: faulted connections must be reaped in test time.
fn chaos_server_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Some(Duration::from_millis(500)),
        handshake_timeout: Some(Duration::from_millis(500)),
        idle_timeout: Some(Duration::from_secs(5)),
        write_timeout: Some(Duration::from_secs(5)),
        retry_after_ms: 5,
        ..ServerConfig::default()
    }
}

fn client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(Duration::from_secs(1)),
        request_timeout: Some(Duration::from_millis(400)),
        ..ClientConfig::default()
    }
}

/// Run the experiment.
pub fn run(scale: &ExperimentScale) -> ServingChaosResult {
    let refs = ReferenceSetup::generate(scale);
    let workloads = Workloads::generate(scale, &refs.refseq, &refs.afs_refseq);
    let built = setup::build_metacache_cpu(MetaCacheConfig::default(), &refs.refseq);
    let db = built.metacache.as_ref().unwrap();
    let classifier = Classifier::new(Arc::clone(db));

    // Chaos is about failure paths, not volume: a few hundred reads give
    // several multi-request windows per connection attempt.
    let reads: Vec<_> = workloads.all()[0]
        .1
        .reads
        .iter()
        .take(192)
        .cloned()
        .collect();
    let expected = classifier.classify_batch(&reads);

    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(4);
    let engine_config = EngineConfig {
        workers,
        queue_capacity: 4,
        batch_records: 32,
        session_max_in_flight: 0,
    };

    let mut result = ServingChaosResult {
        reads: reads.len(),
        ..Default::default()
    };

    // ---- Leg 1: the seeded fault sweep through the chaos proxy ---------
    let engine = ServingEngine::host_with_config(Arc::clone(db), engine_config);
    let server =
        NetServer::bind_with(&engine, "127.0.0.1:0", chaos_server_config()).expect("bind loopback");
    let handle = server.handle();
    let addr = handle.local_addr();

    let server_stats = std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run());

        for sweep in 1..=2u64 {
            // Lossy plans first: connections are scripted by accept order,
            // so a clean first plan would let the whole corpus sail through
            // without ever meeting the faults queued behind it.
            let mut plans: Vec<ConnPlan> =
                (0..12).map(|i| ConnPlan::seeded(sweep * 100 + i)).collect();
            plans.sort_by_key(|p| !(p.upstream.is_lossy() || p.downstream.is_lossy()));
            plans.truncate(6);
            let lossy_faults = plans
                .iter()
                .filter(|p| p.upstream.is_lossy() || p.downstream.is_lossy())
                .count();
            let proxy = ChaosProxy::start(addr, plans.clone()).expect("start chaos proxy");
            let mut client = RetryClient::connect_with(
                proxy.local_addr(),
                client_config(),
                RetryPolicy {
                    max_retries: 30,
                    base_delay: Duration::from_millis(2),
                    max_delay: Duration::from_millis(20),
                    seed: sweep,
                },
            )
            .expect("resolve proxy addr");
            let start = Instant::now();
            let (out, _) = client
                .classify_iter(reads.iter().cloned())
                .expect("retry client must converge through the fault sweep");
            let secs = start.elapsed().as_secs_f64();
            let stats = client.stats();
            result.rows.push(ChaosRow {
                sweep,
                connections_planned: plans.len(),
                lossy_faults,
                secs,
                connects: stats.connects,
                retries: stats.retries,
                busy_sheds: stats.busy_sheds,
                identical: out == expected,
            });
            drop(client);
            proxy.shutdown();
        }

        // Containment: every wrecked connection's session must be gone.
        result.sessions_reclaimed =
            wait_until(|| engine.live_sessions() == 0, Duration::from_secs(5));
        handle.shutdown();
        runner.join().expect("server thread").expect("server stats")
    });
    result.server_connections = server_stats.connections;
    result.server_timeouts = server_stats.timeouts;
    result.server_protocol_errors = server_stats.protocol_errors;
    engine.shutdown();

    // ---- Leg 2: overload — more clients than connection slots ----------
    let engine = ServingEngine::host_with_config(Arc::clone(db), engine_config);
    let overload_config = ServerConfig {
        max_connections: 1,
        retry_after_ms: 5,
        ..ServerConfig::default()
    };
    let server =
        NetServer::bind_with(&engine, "127.0.0.1:0", overload_config).expect("bind loopback");
    let handle = server.handle();
    let addr = handle.local_addr();
    result.overload_clients = 4;

    let server_stats = std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run());
        let outcomes: Vec<(bool, u64)> = std::thread::scope(|clients_scope| {
            let handles: Vec<_> = (0..result.overload_clients)
                .map(|c| {
                    let reads = &reads;
                    let expected = &expected;
                    clients_scope.spawn(move || {
                        let mut client = RetryClient::connect_with(
                            addr,
                            ClientConfig::default(),
                            RetryPolicy {
                                max_retries: 200,
                                base_delay: Duration::from_millis(2),
                                max_delay: Duration::from_millis(25),
                                seed: 1000 + c as u64,
                            },
                        )
                        .expect("resolve server addr");
                        let out = client
                            .classify_batch(reads)
                            .expect("overloaded client must converge");
                        // Dropping the client frees the connection slot for
                        // whoever is riding the Busy hint.
                        let sheds = client.stats().busy_sheds;
                        (out == *expected, sheds)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        result.overload_identical = outcomes.iter().all(|(ok, _)| *ok);
        result.overload_busy_sheds = outcomes.iter().map(|(_, sheds)| sheds).sum();
        handle.shutdown();
        runner.join().expect("server thread").expect("server stats")
    });
    result.overload_shed_connections = server_stats.shed_connections;
    engine.shutdown();

    result
}

/// Render the report.
pub fn render(result: &ServingChaosResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "serving under injected faults ({} reads per sweep, deadlines 0.5 s)\n",
        result.reads
    ));
    out.push_str(&format!(
        "{:<6} {:>6} {:>6} {:>9} {:>9} {:>8} {:>6} {:>10}\n",
        "Sweep", "Conns", "Lossy", "Secs", "Connects", "Retries", "Busy", "Identical"
    ));
    for row in &result.rows {
        out.push_str(&format!(
            "{:<6} {:>6} {:>6} {:>9.2} {:>9} {:>8} {:>6} {:>10}\n",
            row.sweep,
            row.connections_planned,
            row.lossy_faults,
            row.secs,
            row.connects,
            row.retries,
            row.busy_sheds,
            if row.identical { "yes" } else { "NO" }
        ));
    }
    out.push_str(&format!(
        "(chaos server: {} connections, {} deadline kills, {} protocol errors; \
         sessions reclaimed: {})\n",
        result.server_connections,
        result.server_timeouts,
        result.server_protocol_errors,
        if result.sessions_reclaimed {
            "yes"
        } else {
            "NO"
        }
    ));
    out.push_str(&format!(
        "overload: {} clients racing 1 connection slot — {} refusals, \
         {} Busy answers absorbed, all identical: {}\n",
        result.overload_clients,
        result.overload_shed_connections,
        result.overload_busy_sheds,
        if result.overload_identical {
            "yes"
        } else {
            "NO"
        }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_chaos_experiment_converges_at_tiny_scale() {
        let scale = ExperimentScale::tiny();
        let result = run(&scale);
        assert_eq!(result.rows.len(), 2);
        for row in &result.rows {
            assert!(row.identical, "sweep {} diverged", row.sweep);
            assert!(
                row.lossy_faults > 0,
                "sweep {} had no lossy fault",
                row.sweep
            );
            assert!(
                row.connects >= 2,
                "sweep {} never had to reconnect — the faults did not bite",
                row.sweep
            );
        }
        assert!(result.sessions_reclaimed, "sessions leaked under chaos");
        assert!(result.overload_identical, "an overloaded client diverged");
        assert!(render(&result).contains("serving under injected faults"));
    }
}
