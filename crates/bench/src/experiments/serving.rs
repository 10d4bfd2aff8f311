//! Serving-engine experiment: request-shaped concurrent traffic over one
//! resident worker pool vs a pool spawned per request.
//!
//! The ROADMAP north star is a serving system for heavy concurrent traffic;
//! this experiment measures the serving shape directly. A read set is split
//! into many small requests and pushed through three paths:
//!
//! 1. **spawn-per-request** — a fresh [`StreamingClassifier`] per request:
//!    every request pays an engine's worker-pool spawn/join and cold
//!    scratch.
//! 2. **engine, one session** — the same requests through one warm
//!    [`ServingEngine`] session: the pool is spawned once, scratch stays hot.
//! 3. **engine, concurrent sessions** — the same total work multiplexed by
//!    `sessions` client threads over the shared pool and one shared
//!    `Arc<Database>`.
//!
//! Every path's classifications are verified bit-identical to
//! [`Classifier::classify_batch`] before timing counts.

use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use metacache::pipeline::StreamingClassifier;
use metacache::query::Classifier;
use metacache::serving::{EngineConfig, ServingEngine};
use metacache::MetaCacheConfig;

use crate::experiments::{fmt_secs, reads_per_minute};
use crate::scale::ExperimentScale;
use crate::setup::{self, ReferenceSetup, Workloads};

/// One dataset's serving comparison.
#[derive(Debug, Clone, Serialize)]
pub struct ServingRow {
    /// Dataset name.
    pub dataset: String,
    /// Number of reads.
    pub reads: usize,
    /// Number of requests the reads were split into.
    pub requests: usize,
    /// Wall-clock seconds: one fresh `StreamingClassifier` per request.
    pub spawn_per_request_secs: f64,
    /// Wall-clock seconds: same requests through one warm engine session.
    pub engine_session_secs: f64,
    /// Wall-clock seconds: same work over `sessions` concurrent sessions.
    pub engine_concurrent_secs: f64,
    /// Engine-session / spawn-per-request throughput ratio (> 1 means the
    /// resident pool wins — the amortised spawn overhead).
    pub amortisation_ratio: f64,
    /// Engine single-session throughput in reads per minute.
    pub engine_reads_per_minute: f64,
    /// All three paths produced classifications identical to
    /// `classify_batch`.
    pub identical: bool,
}

/// The serving experiment result.
#[derive(Debug, Clone, Serialize, Default)]
pub struct ServingResult {
    /// One row per read dataset.
    pub rows: Vec<ServingRow>,
    /// Reads per request.
    pub request_reads: usize,
    /// Engine worker count.
    pub workers: usize,
    /// Concurrent sessions in path 3.
    pub sessions: usize,
    /// Total records classified by the engine (from its shutdown stats).
    pub engine_records_classified: u64,
    /// Backend worker panics observed (must be 0).
    pub engine_worker_panics: u64,
}

/// Run the experiment.
pub fn run(scale: &ExperimentScale) -> ServingResult {
    let refs = ReferenceSetup::generate(scale);
    let workloads = Workloads::generate(scale, &refs.refseq, &refs.afs_refseq);
    let built = setup::build_metacache_cpu(MetaCacheConfig::default(), &refs.refseq);
    let db = built.metacache.as_ref().unwrap();

    let request_reads = 64.max(scale.reads_per_dataset / 32);
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(4);
    let sessions = 4;
    let engine_config = EngineConfig {
        workers,
        queue_capacity: 4,
        batch_records: 64,
        session_max_in_flight: 0,
    };
    let engine = ServingEngine::host_with_config(Arc::clone(db), engine_config);
    let classifier = Classifier::new(Arc::clone(db));

    let mut result = ServingResult {
        request_reads,
        workers,
        sessions,
        ..Default::default()
    };

    for (dataset, reads) in workloads.all() {
        let expected = classifier.classify_batch(&reads.reads);
        let requests: Vec<&[mc_seqio::SequenceRecord]> =
            reads.reads.chunks(request_reads).collect();

        // Path 1: per-request engine spawn.
        let start = Instant::now();
        let mut spawn_out = Vec::with_capacity(reads.len());
        for request in &requests {
            let streaming = StreamingClassifier::with_config(Arc::clone(db), engine_config);
            let (out, _) = streaming.classify_iter(request.iter().cloned());
            spawn_out.extend(out);
        }
        let spawn_per_request_secs = start.elapsed().as_secs_f64();

        // Path 2: one warm engine session.
        let mut session = engine.session();
        let start = Instant::now();
        let mut engine_out = Vec::with_capacity(reads.len());
        for request in &requests {
            engine_out.extend(session.classify_batch(request));
        }
        let engine_session_secs = start.elapsed().as_secs_f64();
        drop(session);

        // Path 3: concurrent sessions striping the requests.
        let start = Instant::now();
        let concurrent_out: Vec<Vec<metacache::Classification>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..sessions)
                .map(|s| {
                    let engine = &engine;
                    let requests = &requests;
                    scope.spawn(move || {
                        let mut session = engine.session();
                        let mut out = Vec::new();
                        for request in requests.iter().skip(s).step_by(sessions) {
                            out.extend(session.classify_batch(request));
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let engine_concurrent_secs = start.elapsed().as_secs_f64();
        // Reassemble the stripes in request order for the identity check.
        let mut striped: Vec<metacache::Classification> = Vec::with_capacity(reads.len());
        let mut cursors: Vec<std::slice::Iter<_>> =
            concurrent_out.iter().map(|v| v.iter()).collect();
        for (r, request) in requests.iter().enumerate() {
            let cursor = &mut cursors[r % sessions];
            striped.extend(cursor.by_ref().take(request.len()).copied());
        }

        let identical = spawn_out == expected && engine_out == expected && striped == expected;
        let spawn_rpm = reads_per_minute(reads.len(), spawn_per_request_secs);
        let engine_rpm = reads_per_minute(reads.len(), engine_session_secs);
        result.rows.push(ServingRow {
            dataset: dataset.into(),
            reads: reads.len(),
            requests: requests.len(),
            spawn_per_request_secs,
            engine_session_secs,
            engine_concurrent_secs,
            amortisation_ratio: if spawn_rpm > 0.0 {
                engine_rpm / spawn_rpm
            } else {
                0.0
            },
            engine_reads_per_minute: engine_rpm,
            identical,
        });
    }

    let stats = engine.shutdown();
    result.engine_records_classified = stats.records_classified;
    result.engine_worker_panics = stats.worker_panics;
    result
}

/// Render the comparison table.
pub fn render(result: &ServingResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Serving engine vs per-request engine spawn \
         ({} reads/request, {} workers, {} concurrent sessions)\n",
        result.request_reads, result.workers, result.sessions
    ));
    out.push_str(&format!(
        "{:<8} {:>8} {:>9} {:>12} {:>12} {:>12} {:>8} {:>10}\n",
        "Dataset", "Reads", "Requests", "Spawn/req", "Engine", "Concurrent", "Ratio", "Identical"
    ));
    for row in &result.rows {
        out.push_str(&format!(
            "{:<8} {:>8} {:>9} {:>12} {:>12} {:>12} {:>7.2}x {:>10}\n",
            row.dataset,
            row.reads,
            row.requests,
            fmt_secs(row.spawn_per_request_secs),
            fmt_secs(row.engine_session_secs),
            fmt_secs(row.engine_concurrent_secs),
            row.amortisation_ratio,
            if row.identical { "yes" } else { "NO" }
        ));
    }
    out.push_str(&format!(
        "(engine classified {} records with {} worker panics; \
         every path bit-identical to classify_batch)\n",
        result.engine_records_classified, result.engine_worker_panics
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_experiment_is_identical_at_tiny_scale() {
        let scale = ExperimentScale::tiny();
        let result = run(&scale);
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            assert!(row.identical, "{}: classifications diverged", row.dataset);
            assert!(row.requests > 1);
        }
        assert_eq!(result.engine_worker_panics, 0);
        let expected: u64 = result
            .rows
            .iter()
            .map(|r| (r.reads * 2) as u64) // engine ran each dataset twice
            .sum();
        assert_eq!(result.engine_records_classified, expected);
        assert!(render(&result).contains("Serving engine"));
    }
}
