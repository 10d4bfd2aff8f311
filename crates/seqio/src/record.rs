//! Sequence records.

/// One parsed sequence: a reference genome/scaffold in the build phase or a
/// read (optionally with its mate) in the query phase.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SequenceRecord {
    /// Full header line without the leading `>` / `@`.
    pub header: String,
    /// Nucleotide characters (uppercase not enforced; the k-mer layer accepts
    /// both cases).
    pub sequence: Vec<u8>,
    /// Per-base quality string for FASTQ records; empty for FASTA.
    pub quality: Vec<u8>,
    /// Second mate of a paired-end read, if any.
    pub mate: Option<Box<SequenceRecord>>,
}

impl SequenceRecord {
    /// Create a FASTA-style record (no qualities).
    pub fn new(header: impl Into<String>, sequence: impl Into<Vec<u8>>) -> Self {
        Self {
            header: header.into(),
            sequence: sequence.into(),
            quality: Vec::new(),
            mate: None,
        }
    }

    /// Create a FASTQ-style record with qualities.
    pub fn with_quality(
        header: impl Into<String>,
        sequence: impl Into<Vec<u8>>,
        quality: impl Into<Vec<u8>>,
    ) -> Self {
        Self {
            header: header.into(),
            sequence: sequence.into(),
            quality: quality.into(),
            mate: None,
        }
    }

    /// Attach a mate, turning this record into a read pair.
    pub fn with_mate(mut self, mate: SequenceRecord) -> Self {
        self.mate = Some(Box::new(mate));
        self
    }

    /// Empty the record for refilling **without releasing its heap
    /// buffers**: `header`, `sequence` and `quality` are cleared in place
    /// (capacity retained) and the mate box, if any, is detached and
    /// returned so the caller can reuse its allocation too.
    ///
    /// This is the building block of allocation-free decode paths (the
    /// `mc-net` server decodes request frames into recycled records): a
    /// record that has gone through one request already owns buffers of
    /// about the right size for the next one.
    pub fn clear_for_reuse(&mut self) -> Option<Box<SequenceRecord>> {
        self.header.clear();
        self.sequence.clear();
        self.quality.clear();
        self.mate.take()
    }

    /// The sequence identifier: the header up to the first whitespace.
    pub fn id(&self) -> &str {
        self.header
            .split_whitespace()
            .next()
            .unwrap_or(self.header.as_str())
    }

    /// Length of the (first-mate) sequence in bases.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }

    /// Combined length of both mates (equals [`SequenceRecord::len`] for
    /// single-end records).
    pub fn total_len(&self) -> usize {
        self.sequence.len() + self.mate.as_ref().map_or(0, |m| m.sequence.len())
    }

    /// Whether this record carries a mate.
    pub fn is_paired(&self) -> bool {
        self.mate.is_some()
    }

    /// Approximate number of heap bytes held by this record, mate included.
    pub fn heap_bytes(&self) -> usize {
        self.header.len()
            + self.sequence.len()
            + self.quality.len()
            + self.mate.as_ref().map_or(0, |m| m.heap_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_id_strips_description() {
        let r = SequenceRecord::new("NC_000913.3 Escherichia coli K-12", b"ACGT".to_vec());
        assert_eq!(r.id(), "NC_000913.3");
        assert_eq!(r.len(), 4);
        assert!(!r.is_paired());
    }

    #[test]
    fn record_id_of_headerless_record() {
        let r = SequenceRecord::new("", b"ACGT".to_vec());
        assert_eq!(r.id(), "");
    }

    #[test]
    fn paired_record_total_len() {
        let r = SequenceRecord::new("r1", b"ACGTACGT".to_vec())
            .with_mate(SequenceRecord::new("r1/2", b"TTTT".to_vec()));
        assert!(r.is_paired());
        assert_eq!(r.len(), 8);
        assert_eq!(r.total_len(), 12);
    }

    #[test]
    fn clear_for_reuse_keeps_capacity_and_detaches_mate() {
        let mut r = SequenceRecord::with_quality(
            "header with room",
            b"ACGTACGTACGT".to_vec(),
            b"IIIIIIIIIIII".to_vec(),
        )
        .with_mate(SequenceRecord::new("mate", b"TTTT".to_vec()));
        let header_cap = r.header.capacity();
        let seq_cap = r.sequence.capacity();
        let qual_cap = r.quality.capacity();
        let mate = r.clear_for_reuse();
        assert!(r.header.is_empty() && r.sequence.is_empty() && r.quality.is_empty());
        assert!(r.mate.is_none());
        assert_eq!(r.header.capacity(), header_cap);
        assert_eq!(r.sequence.capacity(), seq_cap);
        assert_eq!(r.quality.capacity(), qual_cap);
        assert_eq!(mate.unwrap().header, "mate");
    }
}
