//! The served path: a `NetServer` over a `ServingEngine` on a harness
//! thread, and the reload hook that rebuilds the database as `mc-serve` does.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use mc_net::{NetServer, ReloadHook, ServerHandle, ServerStats};
use mc_seqio::SequenceRecord;
use mc_taxonomy::{TaxonId, Taxonomy};
use metacache::serving::{EngineConfig, EngineStats, ServingEngine};
use metacache::{Database, DatabaseDelta, HostBackend};

use crate::config::{ENGINE_WORKERS, QUEUE_CAPACITY, RELOAD_EXTRA_TARGETS, REQUEST_READS};
use crate::data::Inputs;
use crate::lifecycle;
use crate::trace::Tracer;

/// The engine shape of both `serve_*` workloads.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: ENGINE_WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        batch_records: REQUEST_READS,
        ..EngineConfig::default()
    }
}

/// What the reload hook rebuilds from: the reference targets, and the extra
/// strains the odd generations carry.
pub struct ReloadSource {
    targets: Vec<(SequenceRecord, TaxonId)>,
    taxonomy: Taxonomy,
    extra: Vec<(SequenceRecord, TaxonId)>,
}

/// Timings of one database generation's rebuild.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rebuild {
    /// Milliseconds the rebuild took, delta included.
    pub rebuild_ms: f64,
    /// Seconds of `Database::apply_delta` (0 for even generations).
    pub delta_s: f64,
    /// Bases `apply_delta` inserted.
    pub delta_bases: usize,
    /// Microseconds of the `reload_backend` call that published it.
    pub swap_publish_us: f64,
}

impl ReloadSource {
    /// The source of `inputs`: its targets, plus copies of the first
    /// [`RELOAD_EXTRA_TARGETS`] as new strains of their species.
    pub fn new(inputs: &Inputs) -> Self {
        let extra = inputs
            .refs
            .targets
            .iter()
            .take(RELOAD_EXTRA_TARGETS)
            .enumerate()
            .map(|(i, t)| {
                let record = SequenceRecord::new(format!("reload-strain-{i}"), t.sequence.clone());
                (record, t.taxon)
            })
            .collect();
        Self {
            targets: inputs.target_records(),
            taxonomy: inputs.refs.taxonomy.clone(),
            extra,
        }
    }

    /// Build the database of `generation`: the reference set, and for odd
    /// generations the extra strains on top, through `apply_delta`.
    pub fn build(&self, generation: u64) -> (Database, Rebuild) {
        let start = Instant::now();
        let mut tracer = Tracer::new(false);
        let mut db = lifecycle::build(self.targets.clone(), self.taxonomy.clone(), &mut tracer).db;
        let mut rebuild = Rebuild::default();
        if generation % 2 == 1 {
            let mut delta = DatabaseDelta::new();
            for (record, taxon) in &self.extra {
                rebuild.delta_bases += record.sequence.len();
                delta.add_target(record.clone(), *taxon);
            }
            let t0 = Instant::now();
            db.apply_delta(delta)
                .expect("extra strains name taxa the database has");
            rebuild.delta_s = t0.elapsed().as_secs_f64();
        }
        rebuild.rebuild_ms = start.elapsed().as_secs_f64() * 1e3;
        (db, rebuild)
    }
}

/// Rebuilds logged by a reload hook, in generation order.
pub type RebuildLog = Arc<Mutex<Vec<Rebuild>>>;

/// The hook `mc-serve` installs, over generated references: rebuild the
/// database of the next generation and publish it.
pub fn reload_hook(source: Arc<ReloadSource>, log: RebuildLog) -> ReloadHook {
    Arc::new(move |engine: &ServingEngine| {
        let (db, mut rebuild) = source.build(engine.generation() + 1);
        let t0 = Instant::now();
        let generation = engine.reload_backend(HostBackend::new(Arc::new(db)));
        rebuild.swap_publish_us = t0.elapsed().as_secs_f64() * 1e6;
        log.lock().expect("no hook panicked").push(rebuild);
        Ok(generation)
    })
}

/// A `NetServer` running on its own thread, which also owns the engine.
pub struct Server {
    handle: ServerHandle,
    thread: JoinHandle<(ServerStats, EngineStats)>,
}

impl Server {
    /// Start an engine over `db` and serve it on an ephemeral loopback port.
    pub fn start(db: Arc<Database>, hook: Option<ReloadHook>) -> Self {
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let engine = ServingEngine::host_with_config(db, engine_config());
            let mut server = NetServer::bind(&engine, "127.0.0.1:0").expect("loopback port binds");
            if let Some(hook) = hook {
                server = server.with_reload(hook);
            }
            tx.send(server.handle())
                .expect("starter waits for the handle");
            let server_stats = server.run().expect("event loop runs until shutdown");
            (server_stats, engine.shutdown())
        });
        let handle = rx.recv().expect("server thread reports its handle");
        Self { handle, thread }
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    /// Drain, stop and join the server; returns its lifetime counters.
    pub fn stop(self) -> (ServerStats, EngineStats) {
        self.handle.shutdown();
        self.thread.join().expect("server thread ends cleanly")
    }
}
