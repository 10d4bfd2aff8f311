//! FASTA parsing and writing.
//!
//! Reference genome files (RefSeq / AFS) and the HiSeq / MiSeq read sets of
//! the paper are FASTA. Sequences may span multiple lines; blank lines and
//! carriage returns are tolerated.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::record::SequenceRecord;
use crate::{Result, SeqIoError};

/// Streaming FASTA reader over any [`BufRead`] source.
pub struct FastaReader<R: BufRead> {
    reader: R,
    /// Header of the record currently being accumulated (without `>`).
    pending_header: Option<String>,
    finished: bool,
}

impl<R: BufRead> FastaReader<R> {
    /// Wrap a buffered reader.
    pub fn new(reader: R) -> Self {
        Self {
            reader,
            pending_header: None,
            finished: false,
        }
    }
}

impl FastaReader<BufReader<std::fs::File>> {
    /// Open a FASTA file from disk.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = std::fs::File::open(path)?;
        Ok(Self::new(BufReader::new(file)))
    }
}

impl<R: BufRead> Iterator for FastaReader<R> {
    type Item = Result<SequenceRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        let mut sequence: Vec<u8> = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            let n = match self.reader.read_line(&mut line) {
                Ok(n) => n,
                Err(e) => return Some(Err(e.into())),
            };
            if n == 0 {
                // EOF: emit the last accumulated record, if any.
                self.finished = true;
                return match self.pending_header.take() {
                    Some(header) => Some(Ok(SequenceRecord::new(header, sequence))),
                    None => {
                        if sequence.is_empty() {
                            None
                        } else {
                            Some(Err(SeqIoError::Parse(
                                "sequence data before first FASTA header".into(),
                            )))
                        }
                    }
                };
            }
            let trimmed = line.trim_end_matches(['\n', '\r']);
            if trimmed.is_empty() {
                continue;
            }
            if let Some(header) = trimmed.strip_prefix('>') {
                match self.pending_header.replace(header.to_string()) {
                    Some(prev) => {
                        // A new header terminates the previous record.
                        return Some(Ok(SequenceRecord::new(prev, sequence)));
                    }
                    None => {
                        if !sequence.is_empty() {
                            return Some(Err(SeqIoError::Parse(
                                "sequence data before first FASTA header".into(),
                            )));
                        }
                    }
                }
            } else {
                if self.pending_header.is_none() {
                    return Some(Err(SeqIoError::Parse(format!(
                        "unexpected line outside of a FASTA record: {trimmed:?}"
                    ))));
                }
                sequence.extend(trimmed.bytes().filter(|b| !b.is_ascii_whitespace()));
            }
        }
    }
}

/// Parse a whole FASTA file from memory.
pub fn parse_bytes(bytes: &[u8]) -> Result<Vec<SequenceRecord>> {
    FastaReader::new(BufReader::new(bytes)).collect()
}

/// Parse a whole FASTA document from a string.
pub fn parse_str(text: &str) -> Result<Vec<SequenceRecord>> {
    parse_bytes(text.as_bytes())
}

/// Parse a FASTA file from disk into memory.
pub fn read_file(path: impl AsRef<Path>) -> Result<Vec<SequenceRecord>> {
    let mut buf = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut buf)?;
    parse_bytes(&buf)
}

/// Write records as FASTA with the given line width (0 = single line).
pub fn write<W: Write>(out: &mut W, records: &[SequenceRecord], line_width: usize) -> Result<()> {
    for r in records {
        writeln!(out, ">{}", r.header)?;
        if line_width == 0 {
            out.write_all(&r.sequence)?;
            writeln!(out)?;
        } else {
            for chunk in r.sequence.chunks(line_width) {
                out.write_all(chunk)?;
                writeln!(out)?;
            }
        }
        if let Some(mate) = &r.mate {
            writeln!(out, ">{}", mate.header)?;
            if line_width == 0 {
                out.write_all(&mate.sequence)?;
                writeln!(out)?;
            } else {
                for chunk in mate.sequence.chunks(line_width) {
                    out.write_all(chunk)?;
                    writeln!(out)?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Write `records` and parse the bytes back.
    fn reparse(records: &[SequenceRecord]) -> Vec<SequenceRecord> {
        let mut buf = Vec::new();
        write(&mut buf, records, 70).unwrap();
        parse_bytes(&buf).unwrap()
    }

    #[test]
    fn parses_multiline_records() {
        let text = ">seq1 description here\nACGT\nACGTAC\n\n>seq2\nTTTT\n";
        let recs = parse_str(text).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id(), "seq1");
        assert_eq!(recs[0].header, "seq1 description here");
        assert_eq!(recs[0].sequence, b"ACGTACGTAC");
        assert_eq!(recs[1].sequence, b"TTTT");
    }

    #[test]
    fn handles_crlf_and_missing_trailing_newline() {
        let text = ">a\r\nACGT\r\n>b\r\nGGGG";
        let recs = parse_str(text).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].sequence, b"ACGT");
        assert_eq!(recs[1].sequence, b"GGGG");
    }

    #[test]
    fn empty_input_yields_no_records() {
        assert!(parse_str("").unwrap().is_empty());
        assert!(parse_str("\n\n").unwrap().is_empty());
    }

    #[test]
    fn record_with_empty_sequence_is_kept() {
        let recs = parse_str(">only_header\n>second\nAC\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].sequence.is_empty());
        assert_eq!(recs[1].sequence, b"AC");
    }

    #[test]
    fn data_before_header_is_an_error() {
        assert!(parse_str("ACGT\n>late\nACGT\n").is_err());
    }

    #[test]
    fn write_and_reparse_roundtrip() {
        let records = vec![
            SequenceRecord::new("chr1 synthetic", vec![b'A'; 200]),
            SequenceRecord::new("chr2", b"ACGTACGTNNNACGT".to_vec()),
        ];
        let reparsed = reparse(&records);
        assert_eq!(reparsed.len(), 2);
        assert_eq!(reparsed[0].sequence, records[0].sequence);
        assert_eq!(reparsed[1].sequence, records[1].sequence);
        assert_eq!(reparsed[0].header, records[0].header);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("mc_seqio_fasta_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.fa");
        let records = vec![SequenceRecord::new("x", b"ACGTACGT".to_vec())];
        let mut f = std::fs::File::create(&path).unwrap();
        write(&mut f, &records, 4).unwrap();
        drop(f);
        let back = read_file(&path).unwrap();
        assert_eq!(back, records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn paired_records_written_as_two_entries() {
        let rec = SequenceRecord::new("r1/1", b"ACGT".to_vec())
            .with_mate(SequenceRecord::new("r1/2", b"TTAA".to_vec()));
        let reparsed = reparse(&[rec]);
        assert_eq!(reparsed.len(), 2);
        assert_eq!(reparsed[1].sequence, b"TTAA");
    }
}
