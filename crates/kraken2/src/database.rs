//! The minimizer → LCA database.

use std::collections::HashMap;

use mc_kmer::{MinimizerIter, MinimizerParams};
use mc_seqio::SequenceRecord;
use mc_taxonomy::{LineageCache, TaxonId, Taxonomy};

use crate::Kraken2Error;

/// Configuration of the Kraken2-style baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kraken2Config {
    /// k-mer length (kept equal to MetaCache's 16 in the experiments so both
    /// tools see the same sequence resolution).
    pub kmer_len: u32,
    /// Minimizer window length in k-mers.
    pub minimizer_window: u32,
    /// Minimum number of distinct minimizer hit groups required to classify a
    /// read (Kraken2's `--minimum-hit-groups`).
    pub min_hit_groups: usize,
    /// Confidence threshold: the fraction of a read's minimizers that must
    /// lie on the chosen taxon's root-to-leaf path.
    pub confidence: f64,
}

impl Default for Kraken2Config {
    fn default() -> Self {
        Self {
            kmer_len: 16,
            minimizer_window: 8,
            min_hit_groups: 2,
            confidence: 0.0,
        }
    }
}

impl Kraken2Config {
    /// The minimizer parameters derived from this configuration.
    pub fn minimizer_params(&self) -> Result<MinimizerParams, Kraken2Error> {
        MinimizerParams::new(self.kmer_len, self.minimizer_window)
            .map_err(|e| Kraken2Error::Config(e.to_string()))
    }
}

/// The Kraken2-style database: a minimizer → LCA map plus the taxonomy.
pub struct Kraken2Database {
    /// The configuration used to build the database.
    pub config: Kraken2Config,
    /// Minimizer hash → LCA of every genome containing it.
    pub(crate) table: HashMap<u64, TaxonId>,
    /// The taxonomy.
    pub taxonomy: Taxonomy,
    /// Constant-time LCA cache.
    pub lineages: LineageCache,
    /// Number of reference targets inserted.
    pub target_count: usize,
    /// Total reference bases processed.
    pub total_bases: u64,
}

impl Kraken2Database {
    /// Number of distinct minimizers stored.
    pub fn minimizer_count(&self) -> usize {
        self.table.len()
    }

    /// The stored LCA of a minimizer, if present.
    pub fn lookup(&self, minimizer: u64) -> Option<TaxonId> {
        self.table.get(&minimizer).copied()
    }

    /// Approximate memory footprint of the database in bytes (hash map
    /// entries plus taxonomy metadata) — the analogue of Table 3's "DB size"
    /// column for Kraken2.
    pub fn bytes(&self) -> usize {
        // A HashMap entry stores the key, the value and bucket overhead;
        // Kraken2's compact table packs this much tighter, but the relative
        // comparison only needs consistency.
        self.table.len() * (8 + 4 + 8) + self.taxonomy.heap_bytes() + self.lineages.heap_bytes()
    }
}

/// Builds a [`Kraken2Database`] from reference records.
pub struct Kraken2Builder {
    config: Kraken2Config,
    params: MinimizerParams,
    taxonomy: Taxonomy,
    lineages: LineageCache,
    table: HashMap<u64, TaxonId>,
    target_count: usize,
    total_bases: u64,
}

impl Kraken2Builder {
    /// Create a builder over a taxonomy.
    pub fn new(config: Kraken2Config, taxonomy: Taxonomy) -> Result<Self, Kraken2Error> {
        let params = config.minimizer_params()?;
        let lineages = taxonomy.lineage_cache();
        Ok(Self {
            config,
            params,
            taxonomy,
            lineages,
            table: HashMap::new(),
            target_count: 0,
            total_bases: 0,
        })
    }

    /// Add one reference sequence belonging to `taxon`: every canonical
    /// minimizer of the sequence is folded into the table with
    /// `table[m] = LCA(table[m], taxon)`.
    pub fn add_target(
        &mut self,
        record: &SequenceRecord,
        taxon: TaxonId,
    ) -> Result<(), Kraken2Error> {
        if !self.taxonomy.contains(taxon) {
            return Err(Kraken2Error::UnknownTaxon(taxon));
        }
        for minimizer in MinimizerIter::new(&record.sequence, self.params) {
            self.table
                .entry(minimizer.hash)
                .and_modify(|existing| *existing = self.lineages.lca(*existing, taxon))
                .or_insert(taxon);
        }
        self.target_count += 1;
        self.total_bases += record.sequence.len() as u64;
        Ok(())
    }

    /// Finish the build.
    pub fn finish(self) -> Kraken2Database {
        Kraken2Database {
            config: self.config,
            table: self.table,
            taxonomy: self.taxonomy,
            lineages: self.lineages,
            target_count: self.target_count,
            total_bases: self.total_bases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_taxonomy::Rank;

    fn make_seq(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect()
    }

    fn taxonomy() -> Taxonomy {
        let mut t = Taxonomy::with_root();
        t.add_node(10, 1, Rank::Genus, "G").unwrap();
        t.add_node(100, 10, Rank::Species, "a").unwrap();
        t.add_node(101, 10, Rank::Species, "b").unwrap();
        t
    }

    #[test]
    fn build_collects_minimizers() {
        let mut builder = Kraken2Builder::new(Kraken2Config::default(), taxonomy()).unwrap();
        builder
            .add_target(&SequenceRecord::new("a", make_seq(10_000, 1)), 100)
            .unwrap();
        let db = builder.finish();
        assert!(db.minimizer_count() > 500);
        assert_eq!(db.target_count, 1);
        assert_eq!(db.total_bases, 10_000);
        assert!(db.bytes() > 0);
    }

    #[test]
    fn shared_minimizers_get_lca() {
        // Two targets from different species sharing the same sequence: every
        // shared minimizer must map to their LCA (the genus), while a
        // species-unique region keeps the species label.
        let shared = make_seq(5_000, 7);
        let unique_a = make_seq(5_000, 8);
        let mut seq_a = shared.clone();
        seq_a.extend_from_slice(&unique_a);
        let mut builder = Kraken2Builder::new(Kraken2Config::default(), taxonomy()).unwrap();
        builder
            .add_target(&SequenceRecord::new("a", seq_a), 100)
            .unwrap();
        builder
            .add_target(&SequenceRecord::new("b", shared.clone()), 101)
            .unwrap();
        let db = builder.finish();
        let params = db.config.minimizer_params().unwrap();
        let mut lca_count = 0;
        for m in MinimizerIter::new(&shared, params) {
            if db.lookup(m.hash) == Some(10) {
                lca_count += 1;
            }
        }
        assert!(
            lca_count > 100,
            "shared minimizers should map to the genus LCA"
        );
        let mut species_count = 0;
        for m in MinimizerIter::new(&unique_a, params) {
            if db.lookup(m.hash) == Some(100) {
                species_count += 1;
            }
        }
        assert!(
            species_count > 100,
            "unique minimizers should keep the species"
        );
    }

    #[test]
    fn unknown_taxon_rejected() {
        let mut builder = Kraken2Builder::new(Kraken2Config::default(), taxonomy()).unwrap();
        assert!(builder
            .add_target(&SequenceRecord::new("x", make_seq(1_000, 1)), 999)
            .is_err());
    }

    #[test]
    fn invalid_config_rejected() {
        let config = Kraken2Config {
            kmer_len: 0,
            ..Default::default()
        };
        assert!(Kraken2Builder::new(config, taxonomy()).is_err());
    }
}
