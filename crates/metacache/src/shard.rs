//! Sharding: a split database is a [`Database`][crate::Database] whose
//! partitions are the shards.
//!
//! The paper's scale-out story is database partitioning: MetaCache-GPU
//! splits a reference database that exceeds one device's memory across
//! multiple GPUs by *target* ("a single reference sequence will never be
//! distributed across multiple GPUs", §4.1), sketches a read once, lets every
//! database part answer the same features, and runs one segmented sort and
//! one top-candidate scan over what they return (§4.3, §5.4–5.6). The host
//! form of that is
//! [`Database::repartition`][crate::Database::repartition]: given a
//! [`ShardPlan`] it returns a database of the same metadata whose partition
//! `i` holds the buckets of exactly the targets the plan assigns to shard
//! `i`. The one classifier and the one host backend query it like any other
//! database — [`QueryScratch::probe`][crate::query::QueryScratch::probe]
//! asks every partition — so the
//! [`ServingEngine`][crate::serving::ServingEngine], the streaming pipeline
//! and the `mc-net` front-end serve a split database transparently.
//! [`Database::into_parts`][crate::Database::into_parts] hands each
//! partition out as a database of its own, with the full metadata: what a
//! shard server behind `mc_net::RouterBackend` holds.
//!
//! # Why the split query is bit-equivalent to the unsplit one
//!
//! Partition `i` of a repartition holds exactly the locations whose `target`
//! is assigned to shard `i`, so for any feature list the concatenation of
//! all partitions' gathered locations is a *permutation* of the unsplit
//! list. The stage after the probe
//! ([`QueryScratch::accumulate`][crate::query::QueryScratch::accumulate],
//! i.e. [`WindowCounter`][crate::candidate::WindowCounter]) is insensitive
//! to that order: it counts the locations by `(target, window)` key — a sum,
//! which any order of the same multiset gives alike — then sorts the
//! distinct keys and scans them once. From the sorted keys on, the split
//! and the unsplit query run the same code on the same data. Candidates —
//! entries, scores, order — and classifications are therefore identical.
//! `tests/sharding.rs` checks the premise (Σ over `split.partitions` of
//! [`Partition::query_batch_into`][crate::database::Partition::query_batch_into],
//! sorted, ≡ the unsharded probe, sorted) and the conclusion (candidate
//! lists entry for entry) over random reference sets, shard counts, skewed
//! and empty shards and messy reads.
//!
//! A *router* over shard servers (`mc_net::RouterBackend`) cannot use this
//! argument: it receives per-shard candidate lists that were already
//! truncated to the top m, and merges those with
//! [`CandidateList::merge`][crate::candidate::CandidateList::merge].
//! That merge is lossless too, by a longer argument. Window counting and
//! the sliding-window scan never accumulate across targets, so each
//! target's candidate is computed from its own shard alone; the candidate
//! order (hits desc, then target asc, then window asc) is a *total* order
//! over candidates of distinct targets, so a candidate in the global top m
//! ranks at least as high within its own shard and survives the per-shard
//! truncation; and the keep-first-on-equal-hits rule of
//! [`CandidateList::insert`][crate::candidate::CandidateList::insert] only
//! concerns candidates of the *same* target,
//! which cannot span shards. The exhaustive merge oracle lives with
//! [`crate::candidate`]'s tests.
//!
//! # Construction: split one built database
//!
//! [`Database::repartition`][crate::Database::repartition] *splits* a
//! fully built database rather than building shards independently: the
//! global `max_locations_per_feature` cap (254) is applied during the
//! unsplit build, and splitting afterwards
//! guarantees each shard holds exactly the surviving locations of its
//! targets. Building shards independently could retain locations the global
//! build dropped, breaking bit-equivalence. The split keeps the **full**
//! target table and taxonomy with global target ids — only the hash tables
//! are divided — so every location and candidate carries global ids
//! natively: in process the partitions' locations land in one list without
//! remapping, and a remote shard server answers candidate queries in global
//! id space. The split borrows its source, so the unsplit database stays
//! usable beside it.
//!
//! # Live reload of a split database
//!
//! A sharded serving topology swaps epochs (see
//! [`crate::serving::EpochStore`]) at two granularities. **In-process**, one
//! [`ServingEngine::reload_backend`][crate::serving::ServingEngine::reload_backend]
//! call with a fresh `HostBackend::new(split)` replaces *all* partitions
//! atomically — a batch is classified either against the old split or the
//! new one, never a mix, because all partitions are probed inside a single
//! backend worker pinned to one epoch. **Across the wire** (`mc-serve
//! route` fronting shard servers), the router swaps its metadata epoch
//! first and then reloads each shard server in turn; the router workers
//! compare the generation tags on the shard answers and re-query while the
//! sweep is propagating, so no response merges candidate lists from two
//! different reference sets (`mc_net::router` documents the ordering
//! argument).

use mc_kmer::TargetId;

use crate::error::MetaCacheError;

/// An assignment of every target of a database to one of `shard_count`
/// shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shard_count: usize,
    /// `assignment[target_id]` = shard index.
    assignment: Vec<usize>,
}

impl ShardPlan {
    /// Assign `target_count` targets round-robin across `shard_count` shards
    /// (target `t` goes to shard `t % shard_count`) — the same policy the
    /// GPU builder uses to rotate targets over devices.
    pub fn round_robin(target_count: usize, shard_count: usize) -> Result<Self, MetaCacheError> {
        if shard_count == 0 {
            return Err(MetaCacheError::Config(
                "shard count must be at least 1".into(),
            ));
        }
        Ok(Self {
            shard_count,
            assignment: (0..target_count).map(|t| t % shard_count).collect(),
        })
    }

    /// Use an explicit per-target assignment (`assignment[target_id]` =
    /// shard index). Allows skewed plans and shards with zero targets; every
    /// entry must be `< shard_count`.
    pub fn explicit(assignment: Vec<usize>, shard_count: usize) -> Result<Self, MetaCacheError> {
        if shard_count == 0 {
            return Err(MetaCacheError::Config(
                "shard count must be at least 1".into(),
            ));
        }
        if let Some((t, &s)) = assignment
            .iter()
            .enumerate()
            .find(|(_, &s)| s >= shard_count)
        {
            return Err(MetaCacheError::Config(format!(
                "target {t} assigned to shard {s}, but shard count is {shard_count}"
            )));
        }
        Ok(Self {
            shard_count,
            assignment,
        })
    }

    /// Number of shards in the plan.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The shard a target is assigned to.
    pub fn shard_of(&self, target: TargetId) -> Option<usize> {
        self.assignment.get(target as usize).copied()
    }

    /// The full per-target assignment.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::backend::{Backend, HostBackend};
    use crate::build::CpuBuilder;
    use crate::classify::classify_candidates;
    use crate::config::MetaCacheConfig;
    use crate::database::Database;
    use crate::query::{Classifier, QueryScratch};
    use mc_seqio::SequenceRecord;
    use mc_taxonomy::{Rank, Taxonomy};

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

    fn four_target_db() -> (Database, Vec<Vec<u8>>) {
        let mut taxonomy = Taxonomy::with_root();
        taxonomy.add_node(10, 1, Rank::Genus, "G").unwrap();
        for i in 0..4u32 {
            taxonomy
                .add_node(100 + i, 10, Rank::Species, format!("sp{i}"))
                .unwrap();
        }
        let genomes: Vec<Vec<u8>> = (0..4).map(|i| make_seq(12_000, i as u64 + 1)).collect();
        let mut builder = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy);
        for (i, g) in genomes.iter().enumerate() {
            builder
                .add_target(
                    SequenceRecord::new(format!("t{i}"), g.clone()),
                    100 + i as u32,
                )
                .unwrap();
        }
        (builder.finish(), genomes)
    }

    fn reads_from(genomes: &[Vec<u8>]) -> Vec<SequenceRecord> {
        (0..32)
            .map(|i| {
                let g = &genomes[i % genomes.len()];
                SequenceRecord::new(
                    format!("r{i}"),
                    g[100 + i * 29..100 + i * 29 + 120].to_vec(),
                )
            })
            .collect()
    }

    #[test]
    fn round_robin_plan_rotates_targets() {
        let plan = ShardPlan::round_robin(5, 2).unwrap();
        assert_eq!(plan.shard_count(), 2);
        assert_eq!(plan.assignment(), &[0, 1, 0, 1, 0]);
        assert_eq!(plan.shard_of(3), Some(1));
        assert_eq!(plan.shard_of(99), None);
        assert!(ShardPlan::round_robin(5, 0).is_err());
    }

    #[test]
    fn explicit_plan_validates_assignment() {
        assert!(ShardPlan::explicit(vec![0, 1, 2], 3).is_ok());
        assert!(ShardPlan::explicit(vec![0, 3], 3).is_err());
        assert!(ShardPlan::explicit(vec![], 0).is_err());
        // Zero-target shards are allowed.
        let plan = ShardPlan::explicit(vec![0, 0, 0], 2).unwrap();
        assert_eq!(plan.shard_count(), 2);
    }

    #[test]
    fn repartition_rejects_mismatched_plan() {
        let (db, _) = four_target_db();
        let plan = ShardPlan::round_robin(3, 2).unwrap();
        assert!(db.repartition(&plan).is_err());
    }

    #[test]
    fn split_preserves_locations_and_metadata() {
        let (db, _) = four_target_db();
        let plan = ShardPlan::round_robin(db.target_count(), 3).unwrap();
        let split = db.repartition(&plan).unwrap();
        // No locations are lost or duplicated by the split, and the
        // metadata is the source's.
        assert_eq!(split.partition_count(), 3);
        assert_eq!(split.total_locations(), db.total_locations());
        assert_eq!(split.targets, db.targets);
        assert!(split.table_bytes() > 0);
        // Each partition holds only locations of its assigned targets, and
        // lists exactly those targets.
        for (i, partition) in split.partitions.iter().enumerate() {
            assert_eq!(partition.store.kind(), "host");
            let mut locs = Vec::new();
            partition
                .store
                .for_each_bucket(|_, bucket| {
                    locs.extend_from_slice(bucket);
                    Ok::<(), ()>(())
                })
                .unwrap();
            assert!(
                locs.iter().all(|l| plan.shard_of(l.target) == Some(i)),
                "partition {i} holds a foreign target's location"
            );
            assert!(partition
                .targets
                .iter()
                .all(|&t| plan.shard_of(t) == Some(i)));
        }
        // Every part keeps the full metadata with global target ids and
        // exactly one partition.
        let parts = split.into_parts();
        assert_eq!(parts.len(), 3);
        let part_locations: usize = parts.iter().map(|p| p.total_locations()).sum();
        assert_eq!(part_locations, db.total_locations());
        for part in &parts {
            assert_eq!(part.target_count(), db.target_count());
            assert_eq!(part.partition_count(), 1);
        }
    }

    #[test]
    fn sharded_classifier_matches_unsharded() {
        let (db, genomes) = four_target_db();
        let reads = reads_from(&genomes);
        let expected = Classifier::new(&db).classify_batch(&reads);
        for shard_count in [1usize, 2, 3, 4] {
            let plan = ShardPlan::round_robin(db.target_count(), shard_count).unwrap();
            let split = Arc::new(db.repartition(&plan).unwrap());
            let classifier = Classifier::new(Arc::clone(&split));
            assert_eq!(
                classifier.classify_batch(&reads),
                expected,
                "{shard_count} shards"
            );
            // Sequential scratch reuse agrees with the batch path.
            let mut scratch = QueryScratch::new();
            for (read, want) in reads.iter().zip(&expected) {
                assert_eq!(classifier.classify_with(read, &mut scratch), *want);
            }
        }
    }

    #[test]
    fn empty_shard_contributes_nothing() {
        let (db, genomes) = four_target_db();
        let reads = reads_from(&genomes);
        let expected = Classifier::new(&db).classify_batch(&reads);
        // Shard 1 gets no targets at all.
        let plan = ShardPlan::explicit(vec![0, 2, 0, 2], 3).unwrap();
        let split = db.repartition(&plan).unwrap();
        assert_eq!(split.partitions[1].store.as_store().value_count(), 0);
        assert!(split.partitions[1].targets.is_empty());
        let classifier = Classifier::new(&split);
        assert_eq!(classifier.classify_batch(&reads), expected);
        assert_eq!(classifier.database().partition_count(), 3);
        let empty = &split.into_parts()[1];
        assert_eq!(empty.total_locations(), 0);
        assert_eq!(empty.partition_count(), 1);
    }

    #[test]
    fn sharded_backend_worker_matches_classify_batch() {
        let (db, genomes) = four_target_db();
        let reads = reads_from(&genomes);
        let expected = Classifier::new(&db).classify_batch(&reads);
        let plan = ShardPlan::round_robin(db.target_count(), 2).unwrap();
        let backend = HostBackend::new(Arc::new(db.repartition(&plan).unwrap()));
        assert_eq!(backend.name(), "sharded-host");
        assert_eq!(backend.database().partition_count(), 2);
        let mut worker = backend.worker();
        // Two batches through one persistent worker, classified the way
        // the engine does: against the backend's database.
        let db = backend.database();
        let mut out = Vec::new();
        for batch in [&reads[..13], &reads[13..]] {
            worker.candidates_each(batch, &mut |list| {
                out.push(classify_candidates(db, &db.config, list))
            });
        }
        assert_eq!(out, expected);
    }
}
