//! Network serving experiment: the `mc-net` TCP front-end over loopback vs
//! the same requests through an in-process session.
//!
//! The serving path's last layer is the wire: this experiment measures what
//! the protocol costs (framing, copies, loopback TCP, the event loop)
//! relative to calling the engine directly, and
//! verifies the network path end to end:
//!
//! 1. **in-process** — request-shaped traffic through one warm
//!    [`ServingEngine`] session (`classify_batch` per request), the PR 3
//!    baseline.
//! 2. **loopback** — the identical requests through a [`NetClient`]
//!    connected to a [`NetServer`] on `127.0.0.1`, one request per
//!    `ClassifyPacked` frame.
//! 3. **concurrent clients** — the same total work striped over several
//!    concurrent connections, each mapping to its own engine session.
//!
//! Every path's classifications are verified bit-identical to
//! [`Classifier::classify_batch`] before timing counts; the acceptance bar
//! is a protocol overhead ≤ 25% (loopback ≥ 0.75× in-process throughput).

use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use mc_net::{protocol, NetClient, NetServer};
use mc_seqio::SequenceRecord;
use metacache::query::Classifier;
use metacache::serving::{EngineConfig, ServingEngine};
use metacache::MetaCacheConfig;

use crate::experiments::{fmt_secs, reads_per_minute};
use crate::scale::ExperimentScale;
use crate::setup::{self, ReferenceSetup, Workloads};

/// One dataset's network-vs-in-process comparison.
#[derive(Debug, Clone, Serialize)]
pub struct ServingNetRow {
    /// Dataset name.
    pub dataset: String,
    /// Number of reads.
    pub reads: usize,
    /// Number of requests the reads were split into.
    pub requests: usize,
    /// Wall-clock seconds: requests through an in-process session.
    pub in_process_secs: f64,
    /// Wall-clock seconds: the same requests over loopback TCP.
    pub net_secs: f64,
    /// Wall-clock seconds: the same work striped over `clients` concurrent
    /// connections.
    pub net_concurrent_secs: f64,
    /// `net_secs / in_process_secs − 1`: the protocol's relative cost
    /// (0.10 = 10% slower than in-process).
    pub protocol_overhead: f64,
    /// Loopback single-connection throughput in reads per minute.
    pub net_reads_per_minute: f64,
    /// All network paths produced classifications identical to
    /// `classify_batch` (including order).
    pub identical: bool,
}

/// The network serving experiment result.
#[derive(Debug, Clone, Serialize, Default)]
pub struct ServingNetResult {
    /// One row per read dataset.
    pub rows: Vec<ServingNetRow>,
    /// Reads per request.
    pub request_reads: usize,
    /// Engine worker count.
    pub workers: usize,
    /// Concurrent connections in path 3.
    pub clients: usize,
    /// Connections the server accepted over the experiment.
    pub server_connections: u64,
    /// Requests the server answered.
    pub server_requests: u64,
    /// Protocol errors observed (must be 0).
    pub server_protocol_errors: u64,
    /// A network client and an in-process session produced bit-identical
    /// classifications on a torture corpus (N runs, all-N reads, paired
    /// reads, empty reads, FASTQ qualities).
    pub packed_identical: bool,
    /// Raw record bytes (header + sequence + quality) per read for an ACGT
    /// read corpus.
    pub raw_bytes_per_read: f64,
    /// `ClassifyPacked` frame bytes per read for the same corpus.
    pub wire_bytes_per_read_packed: f64,
    /// `raw_bytes_per_read / wire_bytes_per_read_packed` — the request
    /// bandwidth reduction of the packed encoding (target ≥ 3×).
    pub wire_compression: f64,
}

/// Run the experiment.
pub fn run(scale: &ExperimentScale) -> ServingNetResult {
    let refs = ReferenceSetup::generate(scale);
    let workloads = Workloads::generate(scale, &refs.refseq, &refs.afs_refseq);
    let built = setup::build_metacache_cpu(MetaCacheConfig::default(), &refs.refseq);
    let db = built.metacache.as_ref().unwrap();

    let request_reads = 64.max(scale.reads_per_dataset / 32);
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(4);
    let clients = 4;
    let engine = ServingEngine::host_with_config(
        Arc::clone(db),
        EngineConfig {
            workers,
            queue_capacity: 4,
            batch_records: 64,
            session_max_in_flight: 0,
        },
    );
    let classifier = Classifier::new(Arc::clone(db));

    let mut result = ServingNetResult {
        request_reads,
        workers,
        clients,
        ..Default::default()
    };

    let server = NetServer::bind(&engine, "127.0.0.1:0").expect("bind loopback");
    let handle = server.handle();
    let addr = handle.local_addr();

    let server_stats = std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run());

        for (dataset, reads) in workloads.all() {
            let expected = classifier.classify_batch(&reads.reads);
            let requests: Vec<&[mc_seqio::SequenceRecord]> =
                reads.reads.chunks(request_reads).collect();

            // Path 1: in-process warm session.
            let mut session = engine.session();
            let start = Instant::now();
            let mut in_process_out = Vec::with_capacity(reads.len());
            for request in &requests {
                in_process_out.extend(session.classify_batch(request));
            }
            let in_process_secs = start.elapsed().as_secs_f64();
            drop(session);

            // Path 2: the same requests over loopback TCP.
            let mut client = NetClient::connect(addr).expect("connect loopback");
            let start = Instant::now();
            let mut net_out = Vec::with_capacity(reads.len());
            for request in &requests {
                net_out.extend(client.classify_batch(request).expect("network classify"));
            }
            let net_secs = start.elapsed().as_secs_f64();
            drop(client);

            // Path 3: concurrent connections striping the requests.
            let start = Instant::now();
            let concurrent_out: Vec<Vec<metacache::Classification>> =
                std::thread::scope(|clients_scope| {
                    let handles: Vec<_> = (0..clients)
                        .map(|c| {
                            let requests = &requests;
                            clients_scope.spawn(move || {
                                let mut client =
                                    NetClient::connect(addr).expect("connect loopback");
                                let mut out = Vec::new();
                                for request in requests.iter().skip(c).step_by(clients) {
                                    out.extend(
                                        client.classify_batch(request).expect("network classify"),
                                    );
                                }
                                out
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
            let net_concurrent_secs = start.elapsed().as_secs_f64();
            // Reassemble the stripes in request order for the identity check.
            let mut striped: Vec<metacache::Classification> = Vec::with_capacity(reads.len());
            let mut cursors: Vec<std::slice::Iter<_>> =
                concurrent_out.iter().map(|v| v.iter()).collect();
            for (r, request) in requests.iter().enumerate() {
                let cursor = &mut cursors[r % clients];
                striped.extend(cursor.by_ref().take(request.len()).copied());
            }

            let identical =
                in_process_out == expected && net_out == expected && striped == expected;
            let in_process_rpm = reads_per_minute(reads.len(), in_process_secs);
            let net_rpm = reads_per_minute(reads.len(), net_secs);
            result.rows.push(ServingNetRow {
                dataset: dataset.into(),
                reads: reads.len(),
                requests: requests.len(),
                in_process_secs,
                net_secs,
                net_concurrent_secs,
                protocol_overhead: if in_process_rpm > 0.0 && net_rpm > 0.0 {
                    in_process_rpm / net_rpm - 1.0
                } else {
                    0.0
                },
                net_reads_per_minute: net_rpm,
                identical,
            });
        }

        // --- Packed wire ≡ in-process bit-identity ----------------------
        // A torture corpus the 2-bit packing must carry byte-exactly: plain
        // ACGT reads, N runs, all-N reads, paired reads, empty reads and
        // FASTQ qualities.
        let torture: Vec<SequenceRecord> = {
            let base = &workloads.all()[0].1.reads;
            let mut reads = Vec::new();
            for (i, read) in base.iter().take(48).enumerate() {
                let mut read = read.clone();
                match i % 6 {
                    1 if read.sequence.len() >= 30 => {
                        let len = read.sequence.len();
                        read.sequence[len / 3..len / 3 + 8].fill(b'N');
                    }
                    2 => read.sequence = vec![b'N'; 64],
                    3 => {
                        let mate_seq: Vec<u8> = read.sequence.iter().rev().copied().collect();
                        read.mate = Some(Box::new(SequenceRecord::new(format!("{i}/2"), mate_seq)));
                    }
                    4 => read.sequence.clear(),
                    5 => read.quality = vec![b'I'; read.sequence.len()],
                    _ => {}
                }
                reads.push(read);
            }
            reads
        };
        let expected = classifier.classify_batch(&torture);
        let mut client = NetClient::connect(addr).expect("connect loopback");
        let over_wire = client.classify_batch(&torture).expect("torture classify");
        result.packed_identical = over_wire == expected;
        drop(client);

        // --- Wire bytes per read, ACGT payload (serving-shaped corpus) ---
        // Compact headers and full-length reads: the request bandwidth the
        // packed encoding exists to cut.
        let genome = &refs.refseq.targets[0].sequence;
        let acgt: Vec<SequenceRecord> = (0..256)
            .map(|i| {
                let offset = (i * 131) % genome.len().saturating_sub(220).max(1);
                SequenceRecord::new(format!("r{i}"), genome[offset..offset + 200].to_vec())
            })
            .collect();
        let raw_bytes: usize = acgt.iter().map(SequenceRecord::heap_bytes).sum();
        let packed_bytes = protocol::encode_classify_packed(0, &acgt)
            .expect("packed encode")
            .len();
        result.raw_bytes_per_read = raw_bytes as f64 / acgt.len() as f64;
        result.wire_bytes_per_read_packed = packed_bytes as f64 / acgt.len() as f64;
        result.wire_compression = raw_bytes as f64 / packed_bytes as f64;

        handle.shutdown();
        runner.join().expect("server thread").expect("server stats")
    });

    result.server_connections = server_stats.connections;
    result.server_requests = server_stats.requests;
    result.server_protocol_errors = server_stats.protocol_errors;
    engine.shutdown();
    result
}

/// Render the comparison table.
pub fn render(result: &ServingNetResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "mc-net loopback vs in-process session \
         ({} reads/request, {} workers, {} concurrent clients)\n",
        result.request_reads, result.workers, result.clients
    ));
    out.push_str(&format!(
        "{:<8} {:>8} {:>9} {:>12} {:>12} {:>12} {:>9} {:>10}\n",
        "Dataset",
        "Reads",
        "Requests",
        "In-process",
        "Loopback",
        "Concurrent",
        "Overhead",
        "Identical"
    ));
    for row in &result.rows {
        out.push_str(&format!(
            "{:<8} {:>8} {:>9} {:>12} {:>12} {:>12} {:>8.1}% {:>10}\n",
            row.dataset,
            row.reads,
            row.requests,
            fmt_secs(row.in_process_secs),
            fmt_secs(row.net_secs),
            fmt_secs(row.net_concurrent_secs),
            row.protocol_overhead * 100.0,
            if row.identical { "yes" } else { "NO" }
        ));
    }
    out.push_str(&format!(
        "(server: {} connections, {} requests, {} protocol errors; \
         every network path bit-identical to classify_batch)\n",
        result.server_connections, result.server_requests, result.server_protocol_errors
    ));
    out.push_str(&format!(
        "packed wire encoding: {} on N-laden/paired/empty/FASTQ torture reads; \
         ACGT payload {:.1} B/read raw vs {:.1} B/read packed ({:.2}x)\n",
        if result.packed_identical {
            "wire ≡ in-process"
        } else {
            "DIVERGED"
        },
        result.raw_bytes_per_read,
        result.wire_bytes_per_read_packed,
        result.wire_compression
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_net_experiment_is_identical_at_tiny_scale() {
        let scale = ExperimentScale::tiny();
        let result = run(&scale);
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            assert!(row.identical, "{}: classifications diverged", row.dataset);
            assert!(row.requests > 1);
        }
        assert_eq!(result.server_protocol_errors, 0);
        // One single-connection client + `clients` concurrent ones per
        // dataset, plus the identity-check client.
        assert_eq!(
            result.server_connections,
            (result.rows.len() * (1 + result.clients) + 1) as u64
        );
        assert!(
            result.packed_identical,
            "packed wire path diverged from in-process"
        );
        assert!(
            result.wire_compression >= 3.0,
            "ACGT wire compression {:.2}x below the 3x bar",
            result.wire_compression
        );
        assert!(render(&result).contains("mc-net loopback"));
    }
}
