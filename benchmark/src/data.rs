//! Inputs, made from the seed alone: reference sets, read sets and the FASTQ
//! files of the streaming workload. The program under test only ever sees
//! these generated records and files.

use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use mc_datagen::community::{RefSeqLikeSpec, ReferenceCollection};
use mc_datagen::profiles::DatasetProfile;
use mc_datagen::reads::ReadSimulator;
use mc_seqio::SequenceRecord;
use mc_taxonomy::TaxonId;

use crate::config::Scale;

/// Which reference set a workload builds its database from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefSet {
    /// One strain per species: few locations per feature.
    Sparse,
    /// Several strains per species: long location lists.
    Dense,
}

/// Which read profile a workload queries with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// 19–101 bp, mean 92: one window per read.
    HiSeq,
    /// 19–251 bp, mean 157: up to three windows per read.
    MiSeq,
}

/// SplitMix64 finaliser: spreads consecutive seeds over the whole `u64`
/// range, so seed `n` and seed `n + 1` share no generator stream.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generated inputs of one run.
pub struct Inputs {
    /// The reference collection.
    pub refs: ReferenceCollection,
    /// Total reference bases.
    pub ref_bases: usize,
    /// The reads.
    pub reads: Vec<SequenceRecord>,
    /// True species of each read, parallel to `reads`.
    pub truth: Vec<TaxonId>,
    /// Seconds spent generating the references.
    pub refs_s: f64,
    /// Seconds spent simulating the reads.
    pub reads_s: f64,
}

impl Inputs {
    /// Generate the reference set and the read set for `seed`.
    pub fn generate(scale: &Scale, set: RefSet, kind: ReadKind, seed: u64) -> Self {
        let start = Instant::now();
        let refs = ReferenceCollection::refseq_like(RefSeqLikeSpec {
            strains_per_species: match set {
                RefSet::Sparse => scale.sparse.strains_per_species,
                RefSet::Dense => scale.dense_strains,
            },
            seed: mix(seed, 1),
            ..scale.sparse
        });
        let refs_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let (profile, stream) = match kind {
            ReadKind::HiSeq => (DatasetProfile::hiseq(), 2),
            ReadKind::MiSeq => (DatasetProfile::miseq(), 3),
        };
        let simulated = ReadSimulator::new(profile, scale.reads)
            .with_seed(mix(seed, stream))
            .simulate(&refs);
        let reads_s = start.elapsed().as_secs_f64();
        Self {
            ref_bases: refs.total_bases(),
            refs,
            truth: simulated.truth.iter().map(|t| t.taxon).collect(),
            reads: simulated.reads,
            refs_s,
            reads_s,
        }
    }

    /// The reference targets as the records a builder consumes.
    pub fn target_records(&self) -> Vec<(SequenceRecord, TaxonId)> {
        self.refs
            .targets
            .iter()
            .map(|t| (t.to_record(), t.taxon))
            .collect()
    }
}

/// Write `reads` as `files` FASTQ files of equal read counts (the last takes
/// the remainder) under `dir`. Returns each path with its read range.
pub fn write_fastq_files(
    dir: &Path,
    reads: &[SequenceRecord],
    files: usize,
) -> std::io::Result<Vec<(PathBuf, std::ops::Range<usize>)>> {
    let per_file = reads.len().div_ceil(files.max(1)).max(1);
    let mut out = Vec::new();
    for (i, chunk) in reads.chunks(per_file).enumerate() {
        let path = dir.join(format!("reads-{i}.fastq"));
        let mut file = BufWriter::new(std::fs::File::create(&path)?);
        mc_seqio::fastq::write(&mut file, chunk)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        file.flush()?;
        out.push((path, i * per_file..i * per_file + chunk.len()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fastq_bytes(inputs: &Inputs, dir: &Path) -> Vec<u8> {
        std::fs::create_dir_all(dir).unwrap();
        let files = write_fastq_files(dir, &inputs.reads, 1).unwrap();
        assert_eq!(files[0].1, 0..inputs.reads.len());
        std::fs::read(&files[0].0).unwrap()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let scale = Scale::tiny();
        let dir = crate::out_dir().join(format!("test-data-{}", std::process::id()));
        let a = Inputs::generate(&scale, RefSet::Sparse, ReadKind::MiSeq, 5);
        let b = Inputs::generate(&scale, RefSet::Sparse, ReadKind::MiSeq, 5);
        let c = Inputs::generate(&scale, RefSet::Sparse, ReadKind::MiSeq, 6);
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.truth, b.truth);
        assert_ne!(a.reads, c.reads);
        assert_ne!(a.refs.targets[0].sequence, c.refs.targets[0].sequence);
        let bytes_a = fastq_bytes(&a, &dir.join("a"));
        assert_eq!(bytes_a, fastq_bytes(&b, &dir.join("b")));
        assert_ne!(bytes_a, fastq_bytes(&c, &dir.join("c")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dense_has_more_targets_than_sparse() {
        let scale = Scale::tiny();
        let sparse = Inputs::generate(&scale, RefSet::Sparse, ReadKind::HiSeq, 1);
        let dense = Inputs::generate(&scale, RefSet::Dense, ReadKind::HiSeq, 1);
        assert_eq!(
            dense.refs.target_count(),
            sparse.refs.target_count() * scale.dense_strains
        );
        assert_eq!(sparse.reads.len(), scale.reads);
    }
}
