//! Sharded serving experiment: scatter-gather classification over a
//! [`Database::repartition`] — in process and routed over loopback TCP —
//! verified bit-identical to the unsharded classifier before timing counts.
//!
//! Two questions, mirroring the paper's database-partitioning story (§4.3)
//! lifted to the serving stack:
//!
//! 1. **What does sharding buy?** Each shard holds only its targets'
//!    buckets, so per-shard table bytes should fall near-linearly with the
//!    shard count (the scale-out premise), and what it costs is one probe
//!    per shard table per read — the read is sketched once and its
//!    locations merged once, whatever the shard count. The `Over unsharded`
//!    column is that cost as a same-run ratio: S-shard reads/min ÷ the
//!    unsharded engine's reads/min measured moments earlier in this run.
//! 2. **What does the wire add?** A `mc-serve route`-shaped topology — a
//!    router process fanning candidate queries out to N shard servers over
//!    TCP — must stay bit-identical to the in-process path while paying
//!    only protocol overhead per leg.
//!
//! Every path (every shard count, and the routed loopback topology) is
//! asserted bit-identical — in process the shards' locations are merged
//! before anything is truncated, over the wire the per-shard candidate
//! lists merge losslessly — which is what CI runs this experiment for.

use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use mc_net::{NetClient, NetServer, RouterBackend, RouterConfig};
use metacache::query::Classifier;
use metacache::serving::{EngineConfig, ServingEngine};
use metacache::{Database, HostBackend, MetaCacheConfig, ShardPlan};

use crate::experiments::{fmt_bytes, fmt_secs, reads_per_minute};
use crate::scale::ExperimentScale;

use crate::setup::{self, ReferenceSetup, Workloads};

/// One shard count's in-process scatter-gather measurement.
#[derive(Debug, Clone, Serialize)]
pub struct ServingShardedRow {
    /// Number of shards the database was split into.
    pub shard_count: usize,
    /// Largest single shard's hash-table bytes — the per-process (per
    /// device, in the paper's terms) memory footprint sharding exists to
    /// shrink.
    pub max_shard_table_bytes: usize,
    /// Sum of all shards' table bytes (splitting must not inflate the
    /// total: equal to the unsharded table up to per-shard bucket headers).
    pub total_table_bytes: usize,
    /// Wall-clock seconds for the read set through a sharded engine
    /// session.
    pub secs: f64,
    /// Reads per minute through the sharded engine.
    pub reads_per_minute: f64,
    /// `reads_per_minute` ÷ the unsharded engine's reads per minute of the
    /// same run (1.0 = sharding is free; comparable across hosts, unlike
    /// either operand).
    pub over_unsharded: f64,
    /// Classifications bit-identical to the unsharded classifier.
    pub identical: bool,
}

/// The sharded serving experiment result.
#[derive(Debug, Clone, Serialize, Default)]
pub struct ServingShardedResult {
    /// One row per shard count.
    pub rows: Vec<ServingShardedRow>,
    /// Reads classified per path.
    pub reads: usize,
    /// Engine worker count.
    pub workers: usize,
    /// The unsharded table bytes (the 1-shard baseline denominator).
    pub unsharded_table_bytes: usize,
    /// Wall-clock seconds for the same reads through an unsharded engine
    /// session.
    pub unsharded_secs: f64,
    /// Shard servers behind the routed loopback topology.
    pub routed_shards: usize,
    /// Wall-clock seconds through router + shard servers over loopback.
    pub routed_secs: f64,
    /// Routed classifications bit-identical to the in-process unsharded
    /// classifier.
    pub routed_identical: bool,
}

/// `db` split round-robin into `shard_count` partitions.
fn split_round_robin(db: &Database, shard_count: usize) -> Database {
    let plan = ShardPlan::round_robin(db.target_count(), shard_count).expect("shard count ≥ 1");
    db.repartition(&plan)
        .expect("the plan assigns every target")
}

/// Run the experiment.
pub fn run(scale: &ExperimentScale) -> ServingShardedResult {
    let refs = ReferenceSetup::generate(scale);
    let workloads = Workloads::generate(scale, &refs.refseq, &refs.afs_refseq);
    let built = setup::build_metacache_cpu(MetaCacheConfig::default(), &refs.refseq);
    let db = built.metacache.as_ref().unwrap();
    let reads = &workloads.all()[0].1.reads;
    let expected = Classifier::new(Arc::clone(db)).classify_batch(reads);

    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(4);
    let engine_config = EngineConfig {
        workers,
        queue_capacity: 4,
        batch_records: 64,
        session_max_in_flight: 0,
    };

    let mut result = ServingShardedResult {
        reads: reads.len(),
        workers,
        unsharded_table_bytes: db.table_bytes(),
        ..Default::default()
    };

    // Baseline: the unsharded engine session.
    let engine = ServingEngine::host_with_config(Arc::clone(db), engine_config);
    let mut session = engine.session();
    let start = Instant::now();
    let (got, _) = session.classify_iter(reads.iter().cloned());
    result.unsharded_secs = start.elapsed().as_secs_f64();
    assert_eq!(got, expected, "unsharded engine diverged from classifier");
    drop(session);
    engine.shutdown();

    // In-process scatter-gather at increasing shard counts.
    for shard_count in [1usize, 2, 4] {
        let split = Arc::new(split_round_robin(db, shard_count));
        let engine = ServingEngine::new(HostBackend::new(Arc::clone(&split)), engine_config);
        let mut session = engine.session();
        let start = Instant::now();
        let (got, _) = session.classify_iter(reads.iter().cloned());
        let secs = start.elapsed().as_secs_f64();
        drop(session);
        engine.shutdown();
        result.rows.push(ServingShardedRow {
            shard_count,
            max_shard_table_bytes: split
                .partitions
                .iter()
                .map(|p| p.bytes())
                .max()
                .unwrap_or(0),
            total_table_bytes: split.table_bytes(),
            secs,
            reads_per_minute: reads_per_minute(reads.len(), secs),
            over_unsharded: result.unsharded_secs / secs,
            identical: got == expected,
        });
    }

    // Routed loopback: two shard servers fronted by a scatter-gather
    // router, driven through the ordinary protocol.
    let parts = split_round_robin(db, 2).into_parts();
    result.routed_shards = parts.len();
    let shard_engines: Vec<ServingEngine> = parts
        .into_iter()
        .map(|part| ServingEngine::host_with_config(Arc::new(part), engine_config))
        .collect();
    let shard_servers: Vec<NetServer> = shard_engines
        .iter()
        .map(|engine| NetServer::bind(engine, "127.0.0.1:0").expect("bind shard server"))
        .collect();
    let shard_handles: Vec<mc_net::ServerHandle> =
        shard_servers.iter().map(|s| s.handle()).collect();
    let shard_addrs: Vec<std::net::SocketAddr> =
        shard_handles.iter().map(|h| h.local_addr()).collect();
    let backend = RouterBackend::new(
        Arc::new(db.metadata_view()),
        &shard_addrs,
        RouterConfig::default(),
    )
    .expect("resolve shard addrs");
    let router_engine = ServingEngine::new(backend, engine_config);
    let router_server = NetServer::bind(&router_engine, "127.0.0.1:0").expect("bind router");
    let router_handle = router_server.handle();
    let router_addr = router_handle.local_addr();

    std::thread::scope(|scope| {
        for server in shard_servers {
            scope.spawn(move || server.run().expect("shard server"));
        }
        scope.spawn(|| router_server.run().expect("router server"));

        let mut client = NetClient::connect(router_addr).expect("connect router");
        let start = Instant::now();
        let (got, _) = client
            .classify_iter(reads.iter().cloned())
            .expect("routed classify");
        result.routed_secs = start.elapsed().as_secs_f64();
        result.routed_identical = got == expected;
        drop(client);

        router_handle.shutdown();
        for handle in &shard_handles {
            handle.shutdown();
        }
    });
    router_engine.shutdown();
    for engine in shard_engines {
        engine.shutdown();
    }
    result
}

/// Render the comparison table.
pub fn render(result: &ServingShardedResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "sharded scatter-gather serving vs unsharded ({} reads, {} workers; \
         unsharded: {} table, {})\n",
        result.reads,
        result.workers,
        fmt_bytes(result.unsharded_table_bytes as u64),
        fmt_secs(result.unsharded_secs),
    ));
    out.push_str(&format!(
        "{:<7} {:>14} {:>14} {:>10} {:>14} {:>15} {:>10}\n",
        "Shards", "Max shard tbl", "Total tbl", "Time", "Reads/min", "Over unsharded", "Identical"
    ));
    for row in &result.rows {
        out.push_str(&format!(
            "{:<7} {:>14} {:>14} {:>10} {:>14.0} {:>15.2} {:>10}\n",
            row.shard_count,
            fmt_bytes(row.max_shard_table_bytes as u64),
            fmt_bytes(row.total_table_bytes as u64),
            fmt_secs(row.secs),
            row.reads_per_minute,
            row.over_unsharded,
            if row.identical { "yes" } else { "NO" }
        ));
    }
    out.push_str(&format!(
        "routed loopback (router + {} shard servers): {}, {}\n",
        result.routed_shards,
        fmt_secs(result.routed_secs),
        if result.routed_identical {
            "bit-identical to in-process"
        } else {
            "DIVERGED"
        }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_sharded_experiment_is_identical_at_tiny_scale() {
        let scale = ExperimentScale::tiny();
        let result = run(&scale);
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            assert!(row.identical, "{} shards diverged", row.shard_count);
        }
        assert!(result.routed_identical, "routed topology diverged");
        assert_eq!(result.routed_shards, 2);
        // The scale-out premise: the biggest shard of a 4-way split holds
        // well under half the unsharded table.
        let four = &result.rows[2];
        assert_eq!(four.shard_count, 4);
        assert!(
            four.max_shard_table_bytes < result.unsharded_table_bytes / 2,
            "4-way split's largest shard ({}) is not well under half the \
             unsharded table ({})",
            four.max_shard_table_bytes,
            result.unsharded_table_bytes
        );
        for row in &result.rows {
            let ratio =
                row.reads_per_minute / reads_per_minute(result.reads, result.unsharded_secs);
            assert!((row.over_unsharded - ratio).abs() < 1e-9 * ratio);
        }
        let table = render(&result);
        assert!(table.contains("Over unsharded"));
        assert!(table.contains("routed loopback"));
    }
}
