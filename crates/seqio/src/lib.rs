//! # mc-seqio — sequence I/O and batched producer–consumer queues
//!
//! MetaCache's build and query phases (paper §4.1, §4.2) are organised around
//! producer threads that parse genome / read files into batches of sequences
//! and consumer threads that process those batches (sketching + hash-table
//! insertion on the device, classification on the host). This crate provides:
//!
//! * [`record::SequenceRecord`] — one parsed sequence (header, bases, optional
//!   qualities, optional mate for paired-end reads),
//! * [`fasta`] / [`fastq`] — streaming parsers and writers for the two
//!   formats used by the paper's datasets (Table 2: FASTA single-end,
//!   FASTQ paired-end),
//! * [`reader`] — format auto-detection, a unified whole-file reader and the
//!   streaming [`reader::RecordStream`] iterator used by the query pipeline,
//! * [`batch`] — the bounded multi-producer / multi-consumer batch queue that
//!   connects parsing threads with processing threads. Its
//!   [`batch::QueueStats`] expose occupancy gauges
//!   ([`batch::QueueStats::in_flight`] / [`batch::QueueStats::peak_in_flight`])
//!   so pipelines can assert their memory bounds.
//!
//! Both phases group parsed records into [`record::SequenceBatch`]es carrying
//! monotone sequence numbers, from which consumers restore input order. The
//! build phase pushes them through a [`BatchQueue`] whose bounded capacity
//! applies backpressure (`metacache::build::CpuBuilder::build_from_queue`);
//! the query phase tags them per session
//! ([`record::SequenceBatch::for_session`]) and submits them to
//! `metacache::serving::ServingEngine`'s fair queue — see
//! `docs/ARCHITECTURE.md` for the end-to-end picture.
//!
//! ## Example
//!
//! ```
//! use mc_seqio::{fasta, record::SequenceRecord};
//!
//! let text = ">seq1 first\nACGTACGT\nACGT\n>seq2\nTTTT\n";
//! let records: Vec<SequenceRecord> = fasta::parse_str(text).unwrap();
//! assert_eq!(records.len(), 2);
//! assert_eq!(records[0].id(), "seq1");
//! assert_eq!(records[0].sequence, b"ACGTACGTACGT");
//! ```

pub mod batch;
pub mod fasta;
pub mod fastq;
pub mod reader;
pub mod record;

pub use batch::{BatchQueue, BatchReceiver, BatchSender, QueueStats};
pub use reader::{detect_format, RecordStream, SequenceFormat, SequenceReader};
pub use record::{SequenceBatch, SequenceRecord};

/// Errors produced while parsing sequence files.
#[derive(Debug)]
pub enum SeqIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally malformed input (message describes the problem).
    Parse(String),
}

impl std::fmt::Display for SeqIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeqIoError::Io(e) => write!(f, "I/O error: {e}"),
            SeqIoError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for SeqIoError {}

impl From<std::io::Error> for SeqIoError {
    fn from(e: std::io::Error) -> Self {
        SeqIoError::Io(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, SeqIoError>;
