//! Streaming vs materialised query pipeline comparison.
//!
//! The paper's throughput rests on pipelining: reads stream from disk through
//! sketching and classification without the whole input ever being resident
//! (§5, Figure 2). This experiment runs the same read sets through
//! [`metacache::query::Classifier::classify_batch`] (fully materialised
//! input) and [`metacache::pipeline::StreamingClassifier`] (one session on a
//! resident engine: bounded batch queue, parse/classify overlap), verifies
//! the classifications are identical, and reports wall-clock throughput plus
//! the pipeline's observed memory bound.

use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use metacache::pipeline::StreamingClassifier;
use metacache::query::Classifier;
use metacache::serving::EngineConfig;
use metacache::MetaCacheConfig;

use crate::experiments::{fmt_secs, reads_per_minute};
use crate::scale::ExperimentScale;
use crate::setup::{self, ReferenceSetup, Workloads};

/// One streaming-vs-materialised comparison row.
#[derive(Debug, Clone, Serialize)]
pub struct StreamingRow {
    /// Dataset name.
    pub dataset: String,
    /// Number of reads.
    pub reads: usize,
    /// Materialised `classify_batch` wall-clock seconds.
    pub materialised_secs: f64,
    /// Streaming pipeline wall-clock seconds.
    pub streaming_secs: f64,
    /// Materialised throughput in reads per minute.
    pub materialised_reads_per_minute: f64,
    /// Streaming throughput in reads per minute.
    pub streaming_reads_per_minute: f64,
    /// Streaming / materialised throughput ratio (≥ 1 means streaming wins).
    pub throughput_ratio: f64,
    /// Peak batches resident anywhere in the streaming pipeline.
    pub peak_resident_batches: u64,
    /// The configured resident-batch bound (`queue_capacity + workers`).
    pub resident_batch_bound: usize,
    /// Whether both paths produced identical classifications.
    pub identical: bool,
}

/// The streaming experiment result.
#[derive(Debug, Clone, Serialize, Default)]
pub struct StreamingResult {
    /// One row per read dataset.
    pub rows: Vec<StreamingRow>,
    /// Pipeline shape used for the streaming rows.
    pub batch_records: usize,
    /// Queue capacity used for the streaming rows.
    pub queue_capacity: usize,
    /// Worker count used for the streaming rows.
    pub workers: usize,
}

/// Run the experiment.
pub fn run(scale: &ExperimentScale) -> StreamingResult {
    let refs = ReferenceSetup::generate(scale);
    let workloads = Workloads::generate(scale, &refs.refseq, &refs.afs_refseq);
    let built = setup::build_metacache_cpu(MetaCacheConfig::default(), &refs.refseq);
    let db = built.metacache.as_ref().unwrap();

    let config = EngineConfig::default();
    let classifier = Classifier::new(Arc::clone(db));
    let streaming = StreamingClassifier::with_config(Arc::clone(db), config);

    let mut result = StreamingResult {
        batch_records: config.batch_records,
        queue_capacity: config.queue_capacity,
        workers: config.workers,
        ..Default::default()
    };

    for (dataset, reads) in workloads.all() {
        let start = Instant::now();
        let materialised = classifier.classify_batch(&reads.reads);
        let materialised_secs = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let (streamed, summary) = streaming.classify_iter(reads.reads.iter().cloned());
        let streaming_secs = start.elapsed().as_secs_f64();

        let materialised_rpm = reads_per_minute(reads.len(), materialised_secs);
        let streaming_rpm = reads_per_minute(reads.len(), streaming_secs);
        result.rows.push(StreamingRow {
            dataset: dataset.into(),
            reads: reads.len(),
            materialised_secs,
            streaming_secs,
            materialised_reads_per_minute: materialised_rpm,
            streaming_reads_per_minute: streaming_rpm,
            throughput_ratio: if materialised_rpm > 0.0 {
                streaming_rpm / materialised_rpm
            } else {
                0.0
            },
            peak_resident_batches: summary.peak_resident_batches,
            resident_batch_bound: config.effective_session_in_flight(),
            identical: streamed == materialised,
        });
    }
    result
}

/// Render the comparison table.
pub fn render(result: &StreamingResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Streaming vs materialised query pipeline (batch={}, queue={}, workers={})\n",
        result.batch_records, result.queue_capacity, result.workers
    ));
    out.push_str(&format!(
        "{:<8} {:>8} {:>14} {:>14} {:>8} {:>16} {:>10}\n",
        "Dataset", "Reads", "Materialised", "Streaming", "Ratio", "Peak batches", "Identical"
    ));
    for row in &result.rows {
        out.push_str(&format!(
            "{:<8} {:>8} {:>14} {:>14} {:>7.2}x {:>10} / {:<3} {:>10}\n",
            row.dataset,
            row.reads,
            fmt_secs(row.materialised_secs),
            fmt_secs(row.streaming_secs),
            row.throughput_ratio,
            row.peak_resident_batches,
            row.resident_batch_bound,
            if row.identical { "yes" } else { "NO" }
        ));
    }
    out.push_str(
        "(streaming overlaps parsing and classification; memory stays at\n \
         batch × peak-batches regardless of input size)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_is_identical_and_bounded_at_tiny_scale() {
        let scale = ExperimentScale::tiny();
        let result = run(&scale);
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            assert!(row.identical, "{}: classifications diverged", row.dataset);
            assert!(
                row.peak_resident_batches <= row.resident_batch_bound as u64,
                "{}: peak {} exceeds bound {}",
                row.dataset,
                row.peak_resident_batches,
                row.resident_batch_bound
            );
        }
        let rendered = render(&result);
        assert!(rendered.contains("Streaming vs materialised"));
    }
}
