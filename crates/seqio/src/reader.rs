//! Format auto-detection and a unified sequence reader.

use std::io::{BufReader, Read};
use std::path::Path;

use crate::fasta::FastaReader;
use crate::fastq::FastqReader;
use crate::record::SequenceRecord;
use crate::{fasta, fastq, Result, SeqIoError};

/// The two on-disk sequence formats used by the paper's datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequenceFormat {
    /// `>`-prefixed headers, sequence possibly spanning multiple lines.
    Fasta,
    /// 4-line records with `@` headers and per-base qualities.
    Fastq,
}

/// Detect the format of a sequence document from its first non-whitespace
/// byte (`>` = FASTA, `@` = FASTQ).
pub fn detect_format(bytes: &[u8]) -> Result<SequenceFormat> {
    match bytes.iter().find(|b| !b.is_ascii_whitespace()) {
        Some(b'>') => Ok(SequenceFormat::Fasta),
        Some(b'@') => Ok(SequenceFormat::Fastq),
        Some(b) => Err(SeqIoError::Parse(format!(
            "cannot detect sequence format from leading byte {:?}",
            *b as char
        ))),
        None => Err(SeqIoError::Parse("empty input".into())),
    }
}

/// Detect the format of a file by extension, falling back to content sniffing.
pub fn detect_file_format(path: impl AsRef<Path>) -> Result<SequenceFormat> {
    let path = path.as_ref();
    if let Some(ext) = path.extension().and_then(|e| e.to_str()) {
        match ext.to_ascii_lowercase().as_str() {
            "fa" | "fasta" | "fna" | "ffn" | "faa" => return Ok(SequenceFormat::Fasta),
            "fq" | "fastq" => return Ok(SequenceFormat::Fastq),
            _ => {}
        }
    }
    let mut head = [0u8; 64];
    let n = std::fs::File::open(path)?.read(&mut head)?;
    detect_format(&head[..n])
}

/// A streaming, format-auto-detected iterator of records read from a file.
///
/// Unlike [`SequenceReader::read_file`], which materialises the whole file,
/// this yields one record at a time so arbitrarily large inputs stream
/// through a serving session's bounded batches with O(record) memory — the
/// producer half of the streaming query pipeline.
pub enum RecordStream {
    /// Records streamed from a FASTA file.
    Fasta(FastaReader<BufReader<std::fs::File>>),
    /// Records streamed from a FASTQ file.
    Fastq(FastqReader<BufReader<std::fs::File>>),
}

impl Iterator for RecordStream {
    type Item = Result<SequenceRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            RecordStream::Fasta(r) => r.next(),
            RecordStream::Fastq(r) => r.next(),
        }
    }
}

/// A unified reader that parses either format into [`SequenceRecord`]s.
pub struct SequenceReader;

impl SequenceReader {
    /// Open a file as a streaming record iterator, auto-detecting the format.
    pub fn open(path: impl AsRef<Path>) -> Result<RecordStream> {
        Ok(match detect_file_format(&path)? {
            SequenceFormat::Fasta => RecordStream::Fasta(FastaReader::open(path)?),
            SequenceFormat::Fastq => RecordStream::Fastq(FastqReader::open(path)?),
        })
    }
    /// Parse an in-memory document, auto-detecting the format.
    pub fn parse_bytes(bytes: &[u8]) -> Result<Vec<SequenceRecord>> {
        match detect_format(bytes)? {
            SequenceFormat::Fasta => fasta::parse_bytes(bytes),
            SequenceFormat::Fastq => fastq::parse_bytes(bytes),
        }
    }

    /// Parse a string document, auto-detecting the format.
    pub fn parse_str(text: &str) -> Result<Vec<SequenceRecord>> {
        Self::parse_bytes(text.as_bytes())
    }

    /// Read a file from disk, auto-detecting the format.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Vec<SequenceRecord>> {
        match detect_file_format(&path)? {
            SequenceFormat::Fasta => fasta::read_file(path),
            SequenceFormat::Fastq => fastq::read_file(path),
        }
    }

    /// Read a pair of mate files (`_1` / `_2` convention) and zip them into
    /// paired records.
    pub fn read_paired_files(
        path1: impl AsRef<Path>,
        path2: impl AsRef<Path>,
    ) -> Result<Vec<SequenceRecord>> {
        let m1 = Self::read_file(path1)?;
        let m2 = Self::read_file(path2)?;
        fastq::pair_records(m1, m2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_fasta_and_fastq() {
        assert_eq!(detect_format(b">x\nACGT\n").unwrap(), SequenceFormat::Fasta);
        assert_eq!(
            detect_format(b"@x\nACGT\n+\nIIII\n").unwrap(),
            SequenceFormat::Fastq
        );
        assert_eq!(
            detect_format(b"\n\n  >x\nAC\n").unwrap(),
            SequenceFormat::Fasta
        );
        assert!(detect_format(b"ACGT").is_err());
        assert!(detect_format(b"").is_err());
    }

    #[test]
    fn unified_parse_dispatches() {
        let fa = SequenceReader::parse_str(">a\nACGT\n").unwrap();
        assert_eq!(fa[0].quality.len(), 0);
        let fq = SequenceReader::parse_str("@a\nACGT\n+\nIIII\n").unwrap();
        assert_eq!(fq[0].quality, b"IIII");
    }

    #[test]
    fn file_format_by_extension_and_content() {
        let dir = std::env::temp_dir().join("mc_seqio_reader_test");
        std::fs::create_dir_all(&dir).unwrap();
        let fa = dir.join("g.fna");
        std::fs::write(&fa, ">g\nACGT\n").unwrap();
        assert_eq!(detect_file_format(&fa).unwrap(), SequenceFormat::Fasta);
        let unknown = dir.join("reads.txt");
        std::fs::write(&unknown, "@r\nAC\n+\nII\n").unwrap();
        assert_eq!(detect_file_format(&unknown).unwrap(), SequenceFormat::Fastq);
        let recs = SequenceReader::read_file(&unknown).unwrap();
        assert_eq!(recs.len(), 1);
        std::fs::remove_file(&fa).ok();
        std::fs::remove_file(&unknown).ok();
    }

    #[test]
    fn streaming_open_matches_materialised_read() {
        let dir = std::env::temp_dir().join("mc_seqio_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, contents) in [
            ("s.fa", ">a\nACGT\nAC\n>b\nTTTT\n"),
            ("s.fq", "@a\nACGT\n+\nIIII\n@b\nTT\n+\nII\n"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, contents).unwrap();
            let streamed: Vec<_> = SequenceReader::open(&path)
                .unwrap()
                .collect::<Result<_>>()
                .unwrap();
            let materialised = SequenceReader::read_file(&path).unwrap();
            assert_eq!(streamed, materialised, "{name}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn paired_file_reading() {
        let dir = std::env::temp_dir().join("mc_seqio_paired_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("r_1.fq");
        let p2 = dir.join("r_2.fq");
        std::fs::write(&p1, "@r1/1\nACGT\n+\nIIII\n").unwrap();
        std::fs::write(&p2, "@r1/2\nTTTT\n+\nIIII\n").unwrap();
        let paired = SequenceReader::read_paired_files(&p1, &p2).unwrap();
        assert_eq!(paired.len(), 1);
        assert!(paired[0].is_paired());
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }
}
