//! Abundance estimation (paper §6.5).
//!
//! For the KAL_D food sample no per-read ground truth exists — "only the
//! ratio of meat components is known". MetaCache's abundance estimation
//! aggregates the per-read classifications into per-species read fractions;
//! the paper reports the *accumulated deviation* from the true ratios and the
//! *false positive* fraction (reads assigned to species not present in the
//! sample). This module reproduces both metrics.

use std::collections::BTreeMap;

use mc_taxonomy::{Rank, TaxonId, NO_TAXON};

use crate::classify::Classification;
use crate::database::Database;

/// Per-species abundance estimate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AbundanceProfile {
    /// Estimated fraction of (classified) reads per species taxon.
    pub fractions: BTreeMap<TaxonId, f64>,
    /// Number of reads that contributed (classified at species level or
    /// below).
    pub counted_reads: usize,
    /// Number of reads classified only above species level.
    pub above_species: usize,
    /// Number of unclassified reads.
    pub unclassified: usize,
}

impl AbundanceProfile {
    /// Estimate the profile from per-read classifications: every read whose
    /// assignment has a species-level ancestor contributes one count to that
    /// species.
    pub fn estimate(db: &Database, classifications: &[Classification]) -> Self {
        let mut counts: BTreeMap<TaxonId, usize> = BTreeMap::new();
        let mut profile = Self::default();
        for c in classifications {
            if !c.is_classified() {
                profile.unclassified += 1;
                continue;
            }
            let species = db.lineages.ancestor_at(c.taxon, Rank::Species);
            if species == NO_TAXON {
                profile.above_species += 1;
                continue;
            }
            *counts.entry(species).or_default() += 1;
            profile.counted_reads += 1;
        }
        let total = profile.counted_reads.max(1) as f64;
        profile.fractions = counts
            .into_iter()
            .map(|(taxon, n)| (taxon, n as f64 / total))
            .collect();
        profile
    }

    /// Estimated fraction of a species (0 if absent).
    pub fn fraction(&self, taxon: TaxonId) -> f64 {
        self.fractions.get(&taxon).copied().unwrap_or(0.0)
    }

    /// Accumulated absolute deviation from a known truth profile, summed over
    /// the species present in the truth (the paper's "accumulated deviation").
    pub fn deviation_from(&self, truth: &[(TaxonId, f64)]) -> f64 {
        truth
            .iter()
            .map(|(taxon, expected)| (self.fraction(*taxon) - expected).abs())
            .sum()
    }

    /// Fraction of counted reads assigned to species *not* present in the
    /// truth profile (the paper's "false positives").
    pub fn false_positive_fraction(&self, truth: &[(TaxonId, f64)]) -> f64 {
        let truth_taxa: std::collections::HashSet<TaxonId> =
            truth.iter().map(|(t, _)| *t).collect();
        self.fractions
            .iter()
            .filter(|(taxon, _)| !truth_taxa.contains(taxon))
            .map(|(_, fraction)| fraction)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MetaCacheConfig;
    use crate::database::{Partition, TargetInfo};
    use mc_taxonomy::Taxonomy;
    use mc_warpcore::HostHashTable;

    fn db() -> Database {
        let mut taxonomy = Taxonomy::with_root();
        taxonomy.add_node(10, 1, Rank::Genus, "G").unwrap();
        taxonomy.add_node(100, 10, Rank::Species, "beef").unwrap();
        taxonomy.add_node(101, 10, Rank::Species, "pork").unwrap();
        taxonomy.add_node(102, 10, Rank::Species, "horse").unwrap();
        let lineages = taxonomy.lineage_cache();
        Database {
            config: MetaCacheConfig::default(),
            targets: vec![TargetInfo {
                id: 0,
                name: "t".into(),
                taxon: 100,
                length: 100,
                num_windows: 1,
            }],
            taxonomy,
            lineages,
            partitions: vec![Partition {
                table: HostHashTable::new(254),
                targets: vec![0],
            }],
        }
    }

    fn classified(taxon: TaxonId) -> Classification {
        Classification {
            taxon,
            rank: None,
            best_target: Some(0),
            best_hits: 10,
        }
    }

    #[test]
    fn estimates_fractions_from_classifications() {
        let db = db();
        let mut classifications = Vec::new();
        classifications.extend(std::iter::repeat_n(classified(100), 60)); // beef
        classifications.extend(std::iter::repeat_n(classified(101), 30)); // pork
        classifications.extend(std::iter::repeat_n(classified(102), 10)); // horse
        classifications.extend(std::iter::repeat_n(classified(10), 5)); // genus only
        classifications.extend(std::iter::repeat_n(Classification::unclassified(), 5));
        let profile = AbundanceProfile::estimate(&db, &classifications);
        assert_eq!(profile.counted_reads, 100);
        assert_eq!(profile.above_species, 5);
        assert_eq!(profile.unclassified, 5);
        assert!((profile.fraction(100) - 0.6).abs() < 1e-12);
        assert!((profile.fraction(101) - 0.3).abs() < 1e-12);
        assert!((profile.fraction(102) - 0.1).abs() < 1e-12);
        assert_eq!(profile.fraction(999), 0.0);
    }

    #[test]
    fn deviation_and_false_positives() {
        let db = db();
        let mut classifications = Vec::new();
        classifications.extend(std::iter::repeat_n(classified(100), 55));
        classifications.extend(std::iter::repeat_n(classified(101), 35));
        classifications.extend(std::iter::repeat_n(classified(102), 10));
        let profile = AbundanceProfile::estimate(&db, &classifications);
        // Truth: 60% beef, 40% pork, horse not present.
        let truth = vec![(100, 0.6), (101, 0.4)];
        let dev = profile.deviation_from(&truth);
        assert!((dev - (0.05 + 0.05)).abs() < 1e-9, "deviation {dev}");
        let fp = profile.false_positive_fraction(&truth);
        assert!((fp - 0.1).abs() < 1e-9, "false positives {fp}");
        // Perfect truth gives zero deviation and zero false positives.
        let exact = vec![(100, 0.55), (101, 0.35), (102, 0.10)];
        assert!(profile.deviation_from(&exact) < 1e-9);
        assert!(profile.false_positive_fraction(&exact) < 1e-9);
    }

    #[test]
    fn empty_classifications() {
        let db = db();
        let profile = AbundanceProfile::estimate(&db, &[]);
        assert_eq!(profile.counted_reads, 0);
        assert!(profile.fractions.is_empty());
        assert_eq!(profile.deviation_from(&[(100, 1.0)]), 1.0);
    }
}
