//! FASTQ parsing and writing, including paired-end interleaving.
//!
//! The paper's KAL_D dataset is paired-end FASTQ (Table 2). We support the
//! standard 4-line record layout and a pairing helper that zips two parallel
//! record streams (the `_1` / `_2` file convention) into paired
//! [`SequenceRecord`]s.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::record::SequenceRecord;
use crate::{Result, SeqIoError};

/// Streaming FASTQ reader over any [`BufRead`] source.
pub struct FastqReader<R: BufRead> {
    reader: R,
    line_no: u64,
}

impl<R: BufRead> FastqReader<R> {
    /// Wrap a buffered reader.
    pub fn new(reader: R) -> Self {
        Self { reader, line_no: 0 }
    }

    fn read_line(&mut self) -> Result<Option<String>> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Ok(None);
        }
        self.line_no += 1;
        Ok(Some(line.trim_end_matches(['\n', '\r']).to_string()))
    }
}

impl FastqReader<BufReader<std::fs::File>> {
    /// Open a FASTQ file from disk.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = std::fs::File::open(path)?;
        Ok(Self::new(BufReader::new(file)))
    }
}

impl<R: BufRead> Iterator for FastqReader<R> {
    type Item = Result<SequenceRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        // Skip blank lines between records.
        let header = loop {
            match self.read_line() {
                Ok(Some(l)) if l.is_empty() => continue,
                Ok(Some(l)) => break l,
                Ok(None) => return None,
                Err(e) => return Some(Err(e)),
            }
        };
        let mut parse = || -> Result<SequenceRecord> {
            let header = header
                .strip_prefix('@')
                .ok_or_else(|| {
                    SeqIoError::Parse(format!(
                        "line {}: FASTQ header must start with '@': {header:?}",
                        self.line_no
                    ))
                })?
                .to_string();
            let sequence = self.read_line()?.ok_or_else(|| {
                SeqIoError::Parse("truncated FASTQ record (missing sequence)".into())
            })?;
            let plus = self
                .read_line()?
                .ok_or_else(|| SeqIoError::Parse("truncated FASTQ record (missing '+')".into()))?;
            if !plus.starts_with('+') {
                return Err(SeqIoError::Parse(format!(
                    "line {}: expected '+' separator, found {plus:?}",
                    self.line_no
                )));
            }
            let quality = self.read_line()?.ok_or_else(|| {
                SeqIoError::Parse("truncated FASTQ record (missing quality)".into())
            })?;
            if quality.len() != sequence.len() {
                return Err(SeqIoError::Parse(format!(
                    "line {}: quality length {} does not match sequence length {}",
                    self.line_no,
                    quality.len(),
                    sequence.len()
                )));
            }
            Ok(SequenceRecord::with_quality(
                header,
                sequence.into_bytes(),
                quality.into_bytes(),
            ))
        };
        Some(parse())
    }
}

/// Parse a whole FASTQ document from memory.
pub fn parse_bytes(bytes: &[u8]) -> Result<Vec<SequenceRecord>> {
    FastqReader::new(BufReader::new(bytes)).collect()
}

/// Parse a whole FASTQ document from a string.
pub fn parse_str(text: &str) -> Result<Vec<SequenceRecord>> {
    parse_bytes(text.as_bytes())
}

/// Parse a FASTQ file from disk into memory.
pub fn read_file(path: impl AsRef<Path>) -> Result<Vec<SequenceRecord>> {
    let mut buf = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut buf)?;
    parse_bytes(&buf)
}

/// Write records as FASTQ. Records without qualities get a constant `I`
/// (Phred 40) quality string.
pub fn write<W: Write>(out: &mut W, records: &[SequenceRecord]) -> Result<()> {
    let mut emit = |r: &SequenceRecord| -> Result<()> {
        writeln!(out, "@{}", r.header)?;
        out.write_all(&r.sequence)?;
        writeln!(out)?;
        writeln!(out, "+")?;
        if r.quality.len() == r.sequence.len() && !r.quality.is_empty() {
            out.write_all(&r.quality)?;
        } else {
            out.write_all(&vec![b'I'; r.sequence.len()])?;
        }
        writeln!(out)?;
        Ok(())
    };
    for r in records {
        emit(r)?;
        if let Some(mate) = &r.mate {
            emit(mate)?;
        }
    }
    Ok(())
}

/// Zip two parallel record vectors (mate 1 / mate 2 files) into paired
/// records. Errors if the files have different record counts.
pub fn pair_records(
    mates1: Vec<SequenceRecord>,
    mates2: Vec<SequenceRecord>,
) -> Result<Vec<SequenceRecord>> {
    if mates1.len() != mates2.len() {
        return Err(SeqIoError::Parse(format!(
            "paired-end files differ in record count: {} vs {}",
            mates1.len(),
            mates2.len()
        )));
    }
    Ok(mates1
        .into_iter()
        .zip(mates2)
        .map(|(m1, m2)| m1.with_mate(m2))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Write `records` and parse the bytes back.
    fn reparse(records: &[SequenceRecord]) -> Vec<SequenceRecord> {
        let mut buf = Vec::new();
        write(&mut buf, records).unwrap();
        parse_bytes(&buf).unwrap()
    }

    const SAMPLE: &str = "@read1 desc\nACGTACGT\n+\nIIIIIIII\n@read2\nTTTT\n+read2\n!!!!\n";

    #[test]
    fn parses_standard_records() {
        let recs = parse_str(SAMPLE).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id(), "read1");
        assert_eq!(recs[0].sequence, b"ACGTACGT");
        assert_eq!(recs[0].quality, b"IIIIIIII");
        assert_eq!(recs[1].quality, b"!!!!");
    }

    #[test]
    fn rejects_missing_at_sign() {
        assert!(parse_str("read1\nACGT\n+\nIIII\n").is_err());
    }

    #[test]
    fn rejects_quality_length_mismatch() {
        assert!(parse_str("@r\nACGT\n+\nII\n").is_err());
    }

    #[test]
    fn rejects_truncated_record() {
        assert!(parse_str("@r\nACGT\n").is_err());
        assert!(parse_str("@r\nACGT\n+\n").is_err());
    }

    #[test]
    fn empty_input_is_ok() {
        assert!(parse_str("").unwrap().is_empty());
    }

    #[test]
    fn write_roundtrip() {
        let recs = parse_str(SAMPLE).unwrap();
        let back = reparse(&recs);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].sequence, recs[0].sequence);
        assert_eq!(back[0].quality, recs[0].quality);
    }

    #[test]
    fn write_fills_missing_quality() {
        let rec = SequenceRecord::new("x", b"ACGT".to_vec());
        let back = reparse(&[rec]);
        assert_eq!(back[0].quality, b"IIII");
    }

    #[test]
    fn pairing_zips_mates() {
        let m1 = vec![
            SequenceRecord::new("r1/1", b"AAAA".to_vec()),
            SequenceRecord::new("r2/1", b"CCCC".to_vec()),
        ];
        let m2 = vec![
            SequenceRecord::new("r1/2", b"GGGG".to_vec()),
            SequenceRecord::new("r2/2", b"TTTT".to_vec()),
        ];
        let paired = pair_records(m1, m2).unwrap();
        assert_eq!(paired.len(), 2);
        assert!(paired.iter().all(|r| r.is_paired()));
        assert_eq!(paired[0].mate.as_ref().unwrap().sequence, b"GGGG");
    }

    #[test]
    fn pairing_rejects_length_mismatch() {
        let m1 = vec![SequenceRecord::new("r1/1", b"AAAA".to_vec())];
        assert!(pair_records(m1, vec![]).is_err());
    }

    #[test]
    fn paired_write_interleaves() {
        let rec =
            SequenceRecord::with_quality("p/1", b"ACGT".to_vec(), b"IIII".to_vec()).with_mate(
                SequenceRecord::with_quality("p/2", b"TGCA".to_vec(), b"####".to_vec()),
            );
        let back = reparse(&[rec]);
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].sequence, b"TGCA");
    }
}
