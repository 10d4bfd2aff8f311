//! Live-reload experiment: epoch-swapped database reloads under continuous
//! session traffic.
//!
//! The serving engine publishes a new database generation through
//! [`ServingEngine::reload_backend`] while client sessions keep streaming
//! requests. The experiment scores three things:
//!
//! 1. **Identity** — every request's classifications must be bit-identical
//!    to the single-epoch oracle of the generation that served it (the
//!    session's [`database_generation`] after the request; requests are
//!    sized to one engine batch, so each is served by exactly one epoch).
//! 2. **Zero downtime** — no request fails or is dropped across any swap;
//!    the per-request p99 during the reload phase stays bounded.
//! 3. **Cost** — the publish latency of each swap and the throughput dip of
//!    the reload phase relative to steady state, exported as gauges into
//!    `BENCH_serving.json` by the `serving_throughput` bench.
//!
//! The reload flips between the base database and one grown in place via
//! [`DatabaseDelta`] (extra strains of existing species), so the experiment
//! also exercises the incremental-insert path end to end.
//!
//! `repro -- serving_reload` runs in CI at tiny scale, making the
//! zero-downtime contract a regression test.
//!
//! [`database_generation`]: metacache::serving::Session::database_generation

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;

use mc_seqio::SequenceRecord;
use metacache::build::CpuBuilder;
use metacache::query::Classifier;
use metacache::serving::{EngineConfig, ServingEngine};
use metacache::{Classification, Database, DatabaseDelta, HostBackend, MetaCacheConfig};

use crate::scale::ExperimentScale;
use crate::setup::{ReferenceSetup, Workloads};

/// Reads per request — one engine batch, so a request never straddles a
/// generation swap.
const BATCH: usize = 32;

/// The live-reload experiment result.
#[derive(Debug, Clone, Serialize, Default)]
pub struct ServingReloadResult {
    /// Reads in the request corpus (cycled by every session).
    pub reads: usize,
    /// Concurrent client sessions streaming throughout.
    pub sessions: usize,
    /// Generation swaps fired during the reload phase.
    pub reloads: usize,
    /// Wall-clock milliseconds each `reload_backend` call took to publish.
    pub swap_publish_ms: Vec<f64>,
    /// Requests completed during the steady phase.
    pub steady_requests: u64,
    /// Steady-phase throughput.
    pub steady_reads_per_sec: f64,
    /// Steady-phase per-request p99 latency.
    pub steady_p99_ms: f64,
    /// Requests completed during the reload phase.
    pub reload_requests: u64,
    /// Reload-phase throughput (swaps firing mid-phase).
    pub reload_reads_per_sec: f64,
    /// Reload-phase per-request p99 latency (the "stall" bound).
    pub reload_p99_ms: f64,
    /// Steady throughput over reload-phase throughput (≥ 1.0 is a dip).
    pub throughput_dip: f64,
    /// Requests whose output did not match their generation's oracle.
    pub failed_requests: u64,
    /// Every request matched the oracle of the generation that served it.
    pub identical: bool,
    /// Engine generation after the last swap.
    pub final_generation: u64,
}

fn build_owned(refs: &ReferenceSetup) -> Database {
    let mut builder = CpuBuilder::new(MetaCacheConfig::default(), refs.refseq.taxonomy.clone());
    for target in &refs.refseq.targets {
        builder
            .add_target(target.to_record(), target.taxon)
            .expect("valid target");
    }
    builder.finish()
}

fn p99_ms(latencies: &mut [f64]) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    latencies[(latencies.len() * 99).div_ceil(100).min(latencies.len()) - 1]
}

/// One driver phase: `sessions` threads stream single-batch requests until
/// `stop`, checking each answer against the oracle of the generation that
/// served it. Returns (requests, latencies_ms, mismatches).
fn drive_sessions(
    engine: &ServingEngine,
    chunks: &[&[SequenceRecord]],
    expected: &[[Vec<Classification>; 2]],
    sessions: usize,
    stop: &AtomicBool,
    body: impl FnOnce(),
) -> (u64, Vec<f64>, u64, f64) {
    let started = Instant::now();
    let outcomes: Vec<(u64, Vec<f64>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|s| {
                scope.spawn(move || {
                    let mut session = engine.session();
                    let mut latencies = Vec::new();
                    let mut mismatches = 0u64;
                    let mut requests = 0u64;
                    let mut index = s;
                    while !stop.load(Ordering::Relaxed) {
                        let i = index % chunks.len();
                        index += 1;
                        let t0 = Instant::now();
                        let out = session.classify_batch(chunks[i]);
                        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                        requests += 1;
                        // Single-batch request: the session's generation
                        // after the drain is the generation that served it.
                        let generation = session.database_generation() as usize;
                        if out != expected[i][generation % 2] {
                            mismatches += 1;
                        }
                    }
                    (requests, latencies, mismatches)
                })
            })
            .collect();
        body();
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let secs = started.elapsed().as_secs_f64();
    let requests: u64 = outcomes.iter().map(|o| o.0).sum();
    let latencies: Vec<f64> = outcomes.iter().flat_map(|o| o.1.iter().copied()).collect();
    let mismatches: u64 = outcomes.iter().map(|o| o.2).sum();
    (requests, latencies, mismatches, secs)
}

/// Run the experiment.
pub fn run(scale: &ExperimentScale) -> ServingReloadResult {
    let refs = ReferenceSetup::generate(scale);
    let workloads = Workloads::generate(scale, &refs.refseq, &refs.afs_refseq);

    // Generation A: the base database. Generation B: the same reference set
    // grown in place through a delta — two extra strains of existing
    // species — so swaps flip between a database and its incremental
    // extension, the live-update shape the epoch store exists for.
    let db_a = Arc::new(build_owned(&refs));
    let db_b = {
        let mut db = build_owned(&refs);
        let mut delta = DatabaseDelta::new();
        for (i, target) in refs.refseq.targets.iter().take(2).enumerate() {
            delta.add_target(
                SequenceRecord::new(format!("reload-strain-{i}"), target.sequence.clone()),
                target.taxon,
            );
        }
        db.apply_delta(delta).expect("grow database via delta");
        Arc::new(db)
    };

    let reads: Vec<SequenceRecord> = workloads.hiseq.reads.iter().take(384).cloned().collect();
    let chunks: Vec<&[SequenceRecord]> = reads.chunks(BATCH).collect();
    // Per-chunk oracles for both generations: even generations serve db_a,
    // odd generations serve db_b (reloads alternate b, a, b, a, …).
    let oracle_a = Classifier::new(Arc::clone(&db_a));
    let oracle_b = Classifier::new(Arc::clone(&db_b));
    let expected: Vec<[Vec<Classification>; 2]> = chunks
        .iter()
        .map(|c| [oracle_a.classify_batch(c), oracle_b.classify_batch(c)])
        .collect();

    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(4);
    let engine_config = EngineConfig {
        workers,
        queue_capacity: 4,
        batch_records: BATCH,
        session_max_in_flight: 0,
    };
    let engine = ServingEngine::host_with_config(Arc::clone(&db_a), engine_config);

    let sessions = 3;
    let reloads = 4usize;
    let mut result = ServingReloadResult {
        reads: reads.len(),
        sessions,
        reloads,
        ..Default::default()
    };

    // ---- Phase 1: steady state (generation 0 throughout) ---------------
    let stop = AtomicBool::new(false);
    let (requests, mut latencies, mismatches, secs) =
        drive_sessions(&engine, &chunks, &expected, sessions, &stop, || {
            std::thread::sleep(Duration::from_millis(150));
        });
    result.steady_requests = requests;
    result.steady_reads_per_sec = requests as f64 * BATCH as f64 / secs;
    result.steady_p99_ms = p99_ms(&mut latencies);
    result.failed_requests += mismatches;

    // ---- Phase 2: swaps under live traffic -----------------------------
    let stop = AtomicBool::new(false);
    let mut swap_publish_ms = Vec::with_capacity(reloads);
    let (requests, mut latencies, mismatches, secs) =
        drive_sessions(&engine, &chunks, &expected, sessions, &stop, || {
            std::thread::sleep(Duration::from_millis(30));
            for r in 1..=reloads as u64 {
                let next = if r % 2 == 1 { &db_b } else { &db_a };
                let t0 = Instant::now();
                let generation = engine.reload_backend(HostBackend::new(Arc::clone(next)));
                swap_publish_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                assert_eq!(generation, r, "reload published an unexpected generation");
                std::thread::sleep(Duration::from_millis(25));
            }
            std::thread::sleep(Duration::from_millis(30));
        });
    result.reload_requests = requests;
    result.reload_reads_per_sec = requests as f64 * BATCH as f64 / secs;
    result.reload_p99_ms = p99_ms(&mut latencies);
    result.failed_requests += mismatches;
    result.swap_publish_ms = swap_publish_ms;
    result.throughput_dip = if result.reload_reads_per_sec > 0.0 {
        result.steady_reads_per_sec / result.reload_reads_per_sec
    } else {
        f64::INFINITY
    };
    result.identical = result.failed_requests == 0;
    result.final_generation = engine.generation();
    engine.shutdown();
    result
}

/// Render the report.
pub fn render(result: &ServingReloadResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "live reload under traffic ({} sessions x {}-read requests over {} reads, {} swaps)\n",
        result.sessions, BATCH, result.reads, result.reloads
    ));
    out.push_str(&format!(
        "steady : {:>6} requests, {:>10.0} reads/s, p99 {:>6.2} ms\n",
        result.steady_requests, result.steady_reads_per_sec, result.steady_p99_ms
    ));
    out.push_str(&format!(
        "reload : {:>6} requests, {:>10.0} reads/s, p99 {:>6.2} ms\n",
        result.reload_requests, result.reload_reads_per_sec, result.reload_p99_ms
    ));
    let (mean, max) = if result.swap_publish_ms.is_empty() {
        (0.0, 0.0)
    } else {
        (
            result.swap_publish_ms.iter().sum::<f64>() / result.swap_publish_ms.len() as f64,
            result.swap_publish_ms.iter().copied().fold(0.0, f64::max),
        )
    };
    out.push_str(&format!(
        "swap publish: mean {mean:.3} ms, max {max:.3} ms; throughput dip x{:.2}\n",
        result.throughput_dip
    ));
    out.push_str(&format!(
        "identity: {} failed requests, final generation {}, every answer matched \
         its generation's oracle: {}\n",
        result.failed_requests,
        result.final_generation,
        if result.identical { "yes" } else { "NO" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_reload_experiment_is_zero_downtime_at_tiny_scale() {
        let scale = ExperimentScale::tiny();
        let result = run(&scale);
        assert!(
            result.identical,
            "a request diverged from its generation's oracle"
        );
        assert_eq!(result.failed_requests, 0);
        assert_eq!(result.final_generation, result.reloads as u64);
        assert_eq!(result.swap_publish_ms.len(), result.reloads);
        assert!(
            result.steady_requests > 0 && result.reload_requests > 0,
            "both phases must see traffic"
        );
        for (i, ms) in result.swap_publish_ms.iter().enumerate() {
            assert!(*ms < 1_000.0, "swap {i} took {ms:.1} ms to publish");
        }
        // The stall bound: a swap may cost queued work, not a multi-second
        // outage. Generous for CI noise, tight enough to catch a swap that
        // blocks the worker pool.
        assert!(
            result.reload_p99_ms < 2_000.0,
            "p99 during reloads was {:.1} ms",
            result.reload_p99_ms
        );
        assert!(render(&result).contains("live reload under traffic"));
    }
}
