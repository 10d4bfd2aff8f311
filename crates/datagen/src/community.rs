//! Reference collections: synthetic stand-ins for the paper's databases.
//!
//! Table 1 of the paper lists two reference sets: "RefSeq 202" (15,461
//! bacterial/archaeal/fungal/viral species, 74 GB) and "AFS 31 + RefSeq 202"
//! (adds 31 large food-related animal/plant genomes, 151 GB total). This
//! module builds structurally equivalent collections at configurable scale:
//! many small complete genomes for the RefSeq-like part, plus a few much
//! larger, heavily scaffold-fragmented genomes for the AFS-like part.

use mc_seqio::SequenceRecord;
use mc_taxonomy::{TaxonId, Taxonomy};

use crate::genome::{GenomeSpec, MutationModel, SyntheticGenome};
use crate::taxonomy_gen::{ids, TaxonomySpec};

/// One reference target: a sequence plus the taxon it belongs to.
#[derive(Debug, Clone)]
pub struct ReferenceTarget {
    /// FASTA-style header (`accession description`).
    pub header: String,
    /// The sequence data.
    pub sequence: Vec<u8>,
    /// The species-level taxon this target belongs to.
    pub taxon: TaxonId,
}

impl ReferenceTarget {
    /// Convert into a [`SequenceRecord`] for the parsing pipeline.
    pub fn to_record(&self) -> SequenceRecord {
        SequenceRecord::new(self.header.clone(), self.sequence.clone())
    }
}

/// A complete reference collection: targets + taxonomy + name→taxon mapping.
#[derive(Debug, Clone)]
pub struct ReferenceCollection {
    /// All reference targets (genomes or scaffolds).
    pub targets: Vec<ReferenceTarget>,
    /// The taxonomy covering every target's lineage.
    pub taxonomy: Taxonomy,
    /// Human-readable name of the collection (for reports).
    pub name: String,
}

/// Parameters of a RefSeq-like synthetic collection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefSeqLikeSpec {
    /// Taxonomy shape (number of genera / species per genus / families).
    pub taxonomy: TaxonomySpec,
    /// Length of each species' genome in bases.
    pub genome_length: usize,
    /// Number of strain-level sequence variants per species (each becomes its
    /// own reference target).
    pub strains_per_species: usize,
    /// Base random seed.
    pub seed: u64,
}

impl Default for RefSeqLikeSpec {
    fn default() -> Self {
        Self {
            taxonomy: TaxonomySpec::default(),
            genome_length: 40_000,
            strains_per_species: 1,
            seed: 1,
        }
    }
}

/// Parameters of the AFS-like add-on (large scaffolded genomes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AfsLikeSpec {
    /// Number of large food-related genomes.
    pub genomes: usize,
    /// Length of each large genome.
    pub genome_length: usize,
    /// Number of scaffolds each large genome is split into.
    pub scaffolds_per_genome: usize,
    /// Base random seed.
    pub seed: u64,
}

impl Default for AfsLikeSpec {
    fn default() -> Self {
        Self {
            genomes: 4,
            genome_length: 400_000,
            scaffolds_per_genome: 64,
            seed: 9_000,
        }
    }
}

impl ReferenceCollection {
    /// Build a RefSeq-like collection: `genera × species_per_genus` species,
    /// each with `strains_per_species` targets derived from a per-genus
    /// ancestor genome so that related species share sequence similarity.
    pub fn refseq_like(spec: RefSeqLikeSpec) -> Self {
        let taxonomy = spec.taxonomy.generate();
        let mut targets = Vec::new();
        for g in 0..spec.taxonomy.genera {
            // One ancestral genome per genus; species diverge from it.
            let ancestor = SyntheticGenome::generate(GenomeSpec {
                length: spec.genome_length,
                gc_content: 0.45 + 0.01 * (g % 10) as f64,
                scaffolds: 1,
                seed: spec.seed ^ (g as u64 * 7_919),
            });
            for s in 0..spec.taxonomy.species_per_genus {
                let taxon = ids::species(g, s, spec.taxonomy.species_per_genus);
                let species_genome =
                    ancestor.mutate(MutationModel::species(), spec.seed ^ (taxon as u64));
                for strain in 0..spec.strains_per_species.max(1) {
                    let genome = if strain == 0 {
                        species_genome.clone()
                    } else {
                        species_genome.mutate(
                            MutationModel::strain(),
                            spec.seed ^ (taxon as u64) ^ (strain as u64) << 32,
                        )
                    };
                    targets.push(ReferenceTarget {
                        header: format!(
                            "SYN_{taxon}.{strain} Genus{g:03} species{s:03} strain{strain}"
                        ),
                        sequence: genome.sequence,
                        taxon,
                    });
                }
            }
        }
        Self {
            targets,
            taxonomy,
            name: "RefSeq-like".to_string(),
        }
    }

    /// Build an AFS-like collection (large, scaffold-fragmented genomes) and
    /// merge it into an existing RefSeq-like collection, mirroring the
    /// "AFS 31 + RefSeq 202" database. The AFS species get fresh taxa under a
    /// dedicated food-genome genus block.
    pub fn with_afs_like(mut self, spec: AfsLikeSpec) -> Self {
        // Place AFS taxa in an id block far away from the synthetic ones.
        const AFS_GENUS_BASE: TaxonId = 500_000;
        const AFS_SPECIES_BASE: TaxonId = 600_000;
        use mc_taxonomy::Rank;
        for i in 0..spec.genomes {
            let genus = AFS_GENUS_BASE + i as TaxonId;
            let species = AFS_SPECIES_BASE + i as TaxonId;
            self.taxonomy
                .add_node(genus, ids::DOMAIN, Rank::Genus, format!("FoodGenus{i:02}"))
                .ok();
            self.taxonomy
                .add_node(
                    species,
                    genus,
                    Rank::Species,
                    format!("Food species {i:02}"),
                )
                .ok();
            let genome = SyntheticGenome::generate(GenomeSpec {
                length: spec.genome_length,
                gc_content: 0.41,
                scaffolds: spec.scaffolds_per_genome,
                seed: spec.seed ^ (i as u64 * 104_729),
            });
            for sc in 0..genome.scaffold_count() {
                let scaffold = genome.scaffold(sc);
                if scaffold.is_empty() {
                    continue;
                }
                self.targets.push(ReferenceTarget {
                    header: format!("AFS_{i:02}_scaffold{sc:06} Food species {i:02}"),
                    sequence: scaffold.to_vec(),
                    taxon: species,
                });
            }
        }
        self.name = format!("AFS-like + {}", self.name);
        self
    }

    /// Number of reference targets.
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// Number of distinct species across all targets.
    pub fn species_count(&self) -> usize {
        let mut taxa: Vec<TaxonId> = self.targets.iter().map(|t| t.taxon).collect();
        taxa.sort_unstable();
        taxa.dedup();
        taxa.len()
    }

    /// Total bases across all targets (the "size on disk" analogue).
    pub fn total_bases(&self) -> usize {
        self.targets.iter().map(|t| t.sequence.len()).sum()
    }

    /// The species taxon of a target id (index into `targets`).
    pub fn taxon_of_target(&self, target_index: usize) -> Option<TaxonId> {
        self.targets.get(target_index).map(|t| t.taxon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_taxonomy::Rank;

    #[test]
    fn refseq_like_counts() {
        let spec = RefSeqLikeSpec {
            taxonomy: TaxonomySpec {
                genera: 4,
                species_per_genus: 3,
                families: 2,
            },
            genome_length: 10_000,
            strains_per_species: 2,
            seed: 3,
        };
        let coll = ReferenceCollection::refseq_like(spec);
        assert_eq!(coll.target_count(), 4 * 3 * 2);
        assert_eq!(coll.species_count(), 12);
        // Mutation introduces a few indels, so target lengths are only
        // approximately the configured genome length.
        let mean_len = coll.total_bases() as f64 / coll.target_count() as f64;
        assert!(
            (mean_len - 10_000.0).abs() < 100.0,
            "mean target length {mean_len}"
        );
        assert!(coll.taxonomy.validate().is_ok());
        // Every target's taxon must be a species in the taxonomy.
        for t in &coll.targets {
            assert_eq!(coll.taxonomy.rank(t.taxon), Some(Rank::Species));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = RefSeqLikeSpec::default();
        let a = ReferenceCollection::refseq_like(spec);
        let b = ReferenceCollection::refseq_like(spec);
        assert_eq!(a.target_count(), b.target_count());
        assert_eq!(a.targets[0].sequence, b.targets[0].sequence);
        assert_eq!(
            a.targets.last().unwrap().sequence,
            b.targets.last().unwrap().sequence
        );
    }

    #[test]
    fn same_genus_species_are_more_similar_than_cross_genus() {
        let spec = RefSeqLikeSpec {
            taxonomy: TaxonomySpec {
                genera: 2,
                species_per_genus: 2,
                families: 1,
            },
            genome_length: 20_000,
            strains_per_species: 1,
            seed: 11,
        };
        let coll = ReferenceCollection::refseq_like(spec);
        let identity = |a: &[u8], b: &[u8]| {
            let n = a.len().min(b.len()).min(5_000);
            a[..n].iter().zip(&b[..n]).filter(|(x, y)| x == y).count() as f64 / n as f64
        };
        let same_genus = identity(&coll.targets[0].sequence, &coll.targets[1].sequence);
        let cross_genus = identity(&coll.targets[0].sequence, &coll.targets[2].sequence);
        assert!(
            same_genus > cross_genus,
            "same-genus identity {same_genus} should exceed cross-genus {cross_genus}"
        );
    }

    #[test]
    fn afs_like_adds_many_scaffold_targets() {
        let coll = ReferenceCollection::refseq_like(RefSeqLikeSpec {
            taxonomy: TaxonomySpec {
                genera: 2,
                species_per_genus: 2,
                families: 1,
            },
            genome_length: 5_000,
            strains_per_species: 1,
            seed: 1,
        })
        .with_afs_like(AfsLikeSpec {
            genomes: 2,
            genome_length: 50_000,
            scaffolds_per_genome: 25,
            seed: 2,
        });
        assert_eq!(coll.target_count(), 4 + 2 * 25);
        assert_eq!(coll.species_count(), 4 + 2);
        assert!(coll.name.starts_with("AFS-like"));
        assert!(coll.taxonomy.validate().is_ok());
        // AFS scaffolds are much shorter than their genome but share its taxon.
        let afs_targets: Vec<_> = coll
            .targets
            .iter()
            .filter(|t| t.header.starts_with("AFS_"))
            .collect();
        assert_eq!(afs_targets.len(), 50);
        assert!(afs_targets.iter().all(|t| t.sequence.len() <= 2_000 + 1));
    }

    #[test]
    fn records_conversion_preserves_headers() {
        let coll = ReferenceCollection::refseq_like(RefSeqLikeSpec::default());
        let record = coll.targets[0].to_record();
        assert_eq!(record.header, coll.targets[0].header);
        assert_eq!(record.sequence, coll.targets[0].sequence);
    }
}
