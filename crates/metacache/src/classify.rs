//! The classification rule and accuracy evaluation.
//!
//! "If the difference of the highest and second highest count is above a
//! threshold, the read is labeled as belonging to the taxon of the genome
//! corresponding to the maximum count. Otherwise, all targets with counts
//! close to the maximum are considered, the lowest common ancestor of the
//! corresponding taxa is calculated and used to label the read." (§4.2)
//!
//! The evaluation helpers reproduce the precision / sensitivity metrics of
//! Table 6 at arbitrary ranks (the paper reports species and genus).

use mc_kmer::TargetId;
use mc_taxonomy::{Rank, TaxonId, NO_TAXON};

use crate::candidate::CandidateList;
use crate::config::MetaCacheConfig;
use crate::database::Database;

/// The classification of one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classification {
    /// The assigned taxon ([`NO_TAXON`] if the read could not be classified).
    pub taxon: TaxonId,
    /// Rank of the assigned taxon, if any.
    pub rank: Option<Rank>,
    /// The best candidate's target (the mapping location MetaCache can
    /// report for downstream analysis), if any.
    pub best_target: Option<TargetId>,
    /// Hit count of the best candidate.
    pub best_hits: u32,
}

impl Classification {
    /// An unclassified result.
    pub fn unclassified() -> Self {
        Self {
            taxon: NO_TAXON,
            rank: None,
            best_target: None,
            best_hits: 0,
        }
    }

    /// Whether the read received a taxon.
    pub fn is_classified(&self) -> bool {
        self.taxon != NO_TAXON
    }
}

/// Apply the classification rule to a read's candidate list.
pub fn classify_candidates(
    db: &Database,
    config: &MetaCacheConfig,
    candidates: &CandidateList,
) -> Classification {
    let Some(best) = candidates.best() else {
        return Classification::unclassified();
    };
    if best.hits < config.min_hits {
        return Classification::unclassified();
    }
    let best_taxon = db.taxon_of_target(best.target);
    let decided_taxon = match candidates.second() {
        None => best_taxon,
        Some(second) if best.hits.saturating_sub(second.hits) >= config.hit_diff_threshold => {
            best_taxon
        }
        Some(_) => {
            // Ambiguous: take the LCA of all candidates whose hit count is
            // within `lca_hit_window` of the maximum.
            let near_best = candidates
                .as_slice()
                .iter()
                .filter(|c| best.hits - c.hits <= config.lca_hit_window)
                .map(|c| db.taxon_of_target(c.target));
            db.lineages.lca_of_all(near_best)
        }
    };
    if decided_taxon == NO_TAXON {
        return Classification::unclassified();
    }
    Classification {
        taxon: decided_taxon,
        rank: db.lineages.rank_of(decided_taxon),
        best_target: Some(best.target),
        best_hits: best.hits,
    }
}

/// Aggregate precision / sensitivity of a set of classifications at one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankAccuracy {
    /// Reads whose assignment, projected to the rank, matches the truth.
    pub correct: usize,
    /// Reads assigned at (or below) the rank whose projection differs from
    /// the truth.
    pub wrong: usize,
    /// Reads not assigned at the rank (unclassified or assigned above it).
    pub unassigned: usize,
}

impl RankAccuracy {
    /// Precision: correct / (correct + wrong).
    pub fn precision(&self) -> f64 {
        let assigned = self.correct + self.wrong;
        if assigned == 0 {
            0.0
        } else {
            self.correct as f64 / assigned as f64
        }
    }

    /// Sensitivity (recall): correct / all reads.
    pub fn sensitivity(&self) -> f64 {
        let total = self.correct + self.wrong + self.unassigned;
        if total == 0 {
            0.0
        } else {
            self.correct as f64 / total as f64
        }
    }
}

/// Evaluation of classifications against per-read ground truth at the ranks
/// reported in Table 6.
#[derive(Debug, Clone, Default)]
pub struct ClassificationEvaluation {
    /// Accuracy at species level.
    pub species: RankAccuracy,
    /// Accuracy at genus level.
    pub genus: RankAccuracy,
    /// Number of evaluated reads.
    pub total_reads: usize,
    /// Number of classified reads (any rank).
    pub classified_reads: usize,
}

impl ClassificationEvaluation {
    /// Evaluate `classifications` against `truth` (the true species-level
    /// taxon of each read) using the database's lineage cache.
    pub fn evaluate(db: &Database, classifications: &[Classification], truth: &[TaxonId]) -> Self {
        assert_eq!(
            classifications.len(),
            truth.len(),
            "one truth label per classification required"
        );
        let mut eval = Self {
            total_reads: truth.len(),
            ..Default::default()
        };
        for (c, &true_taxon) in classifications.iter().zip(truth) {
            if c.is_classified() {
                eval.classified_reads += 1;
            }
            for (rank, acc) in [
                (Rank::Species, &mut eval.species),
                (Rank::Genus, &mut eval.genus),
            ] {
                let truth_at_rank = db.lineages.ancestor_at(true_taxon, rank);
                let assigned_at_rank = if c.is_classified() {
                    db.lineages.ancestor_at(c.taxon, rank)
                } else {
                    NO_TAXON
                };
                if assigned_at_rank == NO_TAXON || truth_at_rank == NO_TAXON {
                    acc.unassigned += 1;
                } else if assigned_at_rank == truth_at_rank {
                    acc.correct += 1;
                } else {
                    acc.wrong += 1;
                }
            }
        }
        eval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::Candidate;
    use crate::database::{Partition, TargetInfo};
    use mc_taxonomy::Taxonomy;
    use mc_warpcore::HostHashTable;

    /// Database with two genera, three species, four targets.
    fn db() -> Database {
        let mut taxonomy = Taxonomy::with_root();
        taxonomy.add_node(10, 1, Rank::Genus, "GenusA").unwrap();
        taxonomy.add_node(11, 1, Rank::Genus, "GenusB").unwrap();
        taxonomy.add_node(100, 10, Rank::Species, "A one").unwrap();
        taxonomy.add_node(101, 10, Rank::Species, "A two").unwrap();
        taxonomy.add_node(110, 11, Rank::Species, "B one").unwrap();
        let lineages = taxonomy.lineage_cache();
        let targets = vec![(0u32, 100u32), (1, 100), (2, 101), (3, 110)]
            .into_iter()
            .map(|(id, taxon)| TargetInfo {
                id,
                name: format!("t{id}"),
                taxon,
                length: 1000,
                num_windows: 9,
            })
            .collect();
        Database {
            config: MetaCacheConfig::default(),
            targets,
            taxonomy,
            lineages,
            partitions: vec![Partition {
                table: HostHashTable::new(254),
                targets: vec![0, 1, 2, 3],
            }],
        }
    }

    fn candidates(pairs: &[(TargetId, u32)]) -> CandidateList {
        let mut list = CandidateList::new(4);
        for &(target, hits) in pairs {
            list.insert(Candidate {
                target,
                window_begin: 0,
                window_end: 1,
                hits,
            });
        }
        list
    }

    #[test]
    fn clear_winner_gets_its_taxon() {
        let db = db();
        let cfg = MetaCacheConfig::default();
        let c = classify_candidates(&db, &cfg, &candidates(&[(0, 20), (3, 5)]));
        assert_eq!(c.taxon, 100);
        assert_eq!(c.rank, Some(Rank::Species));
        assert_eq!(c.best_target, Some(0));
        assert_eq!(c.best_hits, 20);
    }

    #[test]
    fn ambiguous_same_genus_falls_back_to_genus_lca() {
        let db = db();
        let cfg = MetaCacheConfig::default();
        // Targets 0 (species 100) and 2 (species 101) share genus 10.
        let c = classify_candidates(&db, &cfg, &candidates(&[(0, 10), (2, 9)]));
        assert_eq!(c.taxon, 10);
        assert_eq!(c.rank, Some(Rank::Genus));
    }

    #[test]
    fn ambiguous_cross_genus_goes_to_root() {
        let db = db();
        let cfg = MetaCacheConfig::default();
        let c = classify_candidates(&db, &cfg, &candidates(&[(0, 10), (3, 10)]));
        assert_eq!(c.taxon, 1, "cross-genus ambiguity resolves to the root");
        assert_eq!(c.rank, Some(Rank::Root));
    }

    #[test]
    fn ambiguous_same_species_targets_stay_species() {
        let db = db();
        let cfg = MetaCacheConfig::default();
        // Targets 0 and 1 both belong to species 100.
        let c = classify_candidates(&db, &cfg, &candidates(&[(0, 10), (1, 10)]));
        assert_eq!(c.taxon, 100);
    }

    #[test]
    fn weak_evidence_is_unclassified() {
        let db = db();
        let cfg = MetaCacheConfig::default(); // min_hits = 4
        let c = classify_candidates(&db, &cfg, &candidates(&[(0, 3)]));
        assert!(!c.is_classified());
        let none = classify_candidates(&db, &cfg, &CandidateList::new(4));
        assert!(!none.is_classified());
    }

    #[test]
    fn evaluation_counts_species_and_genus_levels() {
        let db = db();
        let classifications = vec![
            // Correct species.
            Classification {
                taxon: 100,
                rank: Some(Rank::Species),
                best_target: Some(0),
                best_hits: 10,
            },
            // Wrong species, same genus -> wrong at species, correct at genus.
            Classification {
                taxon: 101,
                rank: Some(Rank::Species),
                best_target: Some(2),
                best_hits: 10,
            },
            // Genus-level assignment -> unassigned at species, correct at genus.
            Classification {
                taxon: 10,
                rank: Some(Rank::Genus),
                best_target: None,
                best_hits: 8,
            },
            // Unclassified.
            Classification::unclassified(),
        ];
        let truth = vec![100, 100, 100, 110];
        let eval = ClassificationEvaluation::evaluate(&db, &classifications, &truth);
        assert_eq!(eval.total_reads, 4);
        assert_eq!(eval.classified_reads, 3);
        assert_eq!(eval.species.correct, 1);
        assert_eq!(eval.species.wrong, 1);
        assert_eq!(eval.species.unassigned, 2);
        assert_eq!(eval.genus.correct, 3);
        assert_eq!(eval.genus.wrong, 0);
        assert_eq!(eval.genus.unassigned, 1);
        assert!((eval.species.precision() - 0.5).abs() < 1e-12);
        assert!((eval.species.sensitivity() - 0.25).abs() < 1e-12);
        assert!((eval.genus.precision() - 1.0).abs() < 1e-12);
        assert!((eval.genus.sensitivity() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_evaluation_does_not_divide_by_zero() {
        let acc = RankAccuracy::default();
        assert_eq!(acc.precision(), 0.0);
        assert_eq!(acc.sensitivity(), 0.0);
    }
}
