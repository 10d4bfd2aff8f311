//! # mc-seqio — sequence I/O
//!
//! MetaCache's build and query phases (paper §4.1, §4.2) start from parsed
//! genome and read files. This crate provides:
//!
//! * [`record::SequenceRecord`] — one parsed sequence (header, bases, optional
//!   qualities, optional mate for paired-end reads),
//! * [`fasta`] / [`fastq`] — streaming parsers and writers for the two
//!   formats used by the paper's datasets (Table 2: FASTA single-end,
//!   FASTQ paired-end),
//! * [`reader`] — format auto-detection, a unified whole-file reader and the
//!   streaming [`reader::RecordStream`] iterator used by the query pipeline.
//!
//! The bounded batch queue between parsing and classification (the paper's
//! Figure 2) is `metacache::serving::ServingEngine`'s fair queue: a session
//! groups records into batches and submits them there — see
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

pub mod fasta;
pub mod fastq;
pub mod reader;
pub mod record;

pub use reader::{detect_format, RecordStream, SequenceFormat, SequenceReader};
pub use record::SequenceRecord;

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
