//! Sharded databases: one more thing the one classifier can query.
//!
//! The paper's scale-out story is database partitioning: MetaCache-GPU
//! splits a reference database that exceeds one device's memory across
//! multiple GPUs, sketches a read once, lets every database part answer the
//! same features, and runs one segmented sort and one top-candidate scan
//! over what they return (§4.3, §5.4–5.6). This module is the serving-stack
//! form of that: a [`ShardedDatabase`] partitions the *targets* of a fully
//! built [`Database`] across N shards — each shard a self-contained
//! `Database` holding only its targets' hash buckets — and implements
//! [`FeatureIndex`] by asking every shard table. There is no sharded
//! classifier and no sharded backend: `Classifier::new(split)` runs the one
//! query pipeline of [`crate::query`] and
//! [`HostBackend::new(split)`][crate::backend::HostBackend] is the one host
//! candidate source, so the [`ServingEngine`][crate::serving::ServingEngine],
//! the streaming pipeline and the `mc-net` front-end serve a sharded
//! database transparently — classifications and `Candidates` answers alike.
//!
//! # Why the sharded query is bit-equivalent to the unsharded one
//!
//! A shard's tables hold exactly the locations whose `target` is assigned
//! to it, so for any feature list the concatenation of all shards' gathered
//! locations is a *permutation* of the unsharded list. The stage after the
//! probe ([`QueryScratch::accumulate`][crate::query::QueryScratch::accumulate])
//! begins by sorting the list by
//! `(target, window)`, and a sort erases the permutation: from there on the
//! sharded and the unsharded query run the same code on the same data.
//! Candidates — entries, scores, order — and classifications are therefore
//! identical. `tests/sharding.rs` checks the premise (Σ over shards of
//! [`Database::query_features_into`], sorted, ≡ unsharded, sorted) and the
//! conclusion (candidate lists entry for entry) over random reference sets,
//! shard counts, skewed and empty shards and messy reads.
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
//! [`ShardedDatabase::from_database`] *splits* a fully built `Database`
//! rather than building shards independently: the global
//! `max_locations_per_feature` cap (254) is applied during the unsharded
//! build, and splitting afterwards guarantees each shard holds exactly the
//! surviving locations of its targets. Building shards independently could
//! retain locations the global build dropped, breaking bit-equivalence.
//! Every shard keeps the **full** target table and taxonomy with global
//! target ids — only the hash tables are subset — so every location and
//! candidate carries global ids natively: in process the shards' locations
//! land in one list without remapping, and a remote shard server answers
//! candidate queries in global id space.
//!
//! # Live reload of a sharded database
//!
//! A sharded serving topology swaps epochs (see
//! [`crate::serving::EpochStore`]) at two granularities. **In-process**, one
//! [`ServingEngine::reload_backend`][crate::serving::ServingEngine::reload_backend]
//! call with a fresh `HostBackend::new(split)` replaces *all* shards
//! atomically — a batch is classified either against the old split or the
//! new one, never a mix, because all shards are probed inside a single
//! backend worker pinned to one epoch. **Across the wire** (`mc-serve
//! route` fronting shard servers), the router swaps its metadata epoch
//! first and then reloads each shard server in turn; the router workers
//! compare the generation tags on the shard answers and re-query while the
//! sweep is propagating, so no response merges candidate lists from two
//! different reference sets (`mc_net::router` documents the ordering
//! argument).

use std::sync::Arc;

use mc_kmer::{Feature, Location, TargetId};
use mc_warpcore::HostHashTable;

use crate::database::{Database, Partition, PartitionStore};
use crate::error::MetaCacheError;
use crate::query::FeatureIndex;

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

/// A database split into N self-contained shards plus a table-free metadata
/// view, queried by scatter-gather (see the module docs for the
/// bit-equivalence argument).
pub struct ShardedDatabase {
    /// Table-free metadata view: full config/targets/taxonomy/lineages, no
    /// partitions. Classification decisions and serving metadata
    /// ([`Backend::database`][crate::backend::Backend::database]) come from
    /// here.
    meta: Arc<Database>,
    /// One self-contained database per shard: full metadata (global target
    /// ids), one packed host-table partition holding only that shard's
    /// buckets.
    shards: Vec<Arc<Database>>,
    plan: ShardPlan,
}

impl ShardedDatabase {
    /// Split a fully built database into shards according to `plan`.
    ///
    /// Consumes the database: its buckets are re-grouped by the owning
    /// target's shard into one packed host table per shard. The plan must
    /// assign exactly the database's targets.
    pub fn from_database(db: Database, plan: ShardPlan) -> Result<Self, MetaCacheError> {
        if plan.assignment.len() != db.target_count() {
            return Err(MetaCacheError::Config(format!(
                "shard plan assigns {} targets, database has {}",
                plan.assignment.len(),
                db.target_count()
            )));
        }
        // Split every bucket of every partition by the owning target's
        // shard. Inserting re-merges features that span source partitions
        // (multi-device builds) into one bucket per feature, which may then
        // be longer than the build's cap allowed any one partition — so the
        // shard tables take the widest cap, and nothing the build kept is
        // dropped here.
        let mut tables: Vec<HostHashTable> = (0..plan.shard_count)
            .map(|_| HostHashTable::new(HostHashTable::MAX_BUCKET_LEN))
            .collect();
        for partition in &db.partitions {
            partition.store.for_each_bucket(|feature, bucket| {
                bucket.iter().try_for_each(|&loc| {
                    tables[plan.assignment[loc.target as usize]].insert(feature, loc)
                })
            })?;
        }

        let meta = Arc::new(db.metadata_view());
        let shards = tables
            .into_iter()
            .enumerate()
            .map(|(shard, mut table)| {
                table.compact();
                let targets: Vec<TargetId> = plan
                    .assignment
                    .iter()
                    .enumerate()
                    .filter(|&(_, &s)| s == shard)
                    .map(|(t, _)| t as TargetId)
                    .collect();
                Arc::new(Database {
                    config: db.config,
                    targets: db.targets.clone(),
                    taxonomy: db.taxonomy.clone(),
                    lineages: db.lineages.clone(),
                    partitions: vec![Partition {
                        store: PartitionStore::Host(table),
                        targets,
                    }],
                })
            })
            .collect();
        Ok(Self { meta, shards, plan })
    }

    /// Split a database round-robin across `shard_count` shards.
    pub fn round_robin(db: Database, shard_count: usize) -> Result<Self, MetaCacheError> {
        let plan = ShardPlan::round_robin(db.target_count(), shard_count)?;
        Self::from_database(db, plan)
    }

    /// The table-free metadata view (full targets/taxonomy, no hash
    /// tables) — what classification decisions and serving metadata use.
    pub fn meta(&self) -> &Arc<Database> {
        &self.meta
    }

    /// The per-shard databases (full metadata, subset tables).
    pub fn shards(&self) -> &[Arc<Database>] {
        &self.shards
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The plan the database was split with.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Total bytes of all shards' hash tables.
    pub fn table_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.table_bytes()).sum()
    }
}

impl FeatureIndex for ShardedDatabase {
    const BACKEND_NAME: &'static str = "sharded-host";

    /// The table-free view: full targets and taxonomy, no partitions.
    fn metadata(&self) -> &Database {
        &self.meta
    }

    /// Every shard's partitions answer the same features into one list.
    #[inline]
    fn locations_into(&self, features: &[Feature], locations: &mut Vec<Location>) {
        for shard in &self.shards {
            shard.query_features_into(features, locations);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, HostBackend};
    use crate::build::CpuBuilder;
    use crate::classify::classify_candidates;
    use crate::config::MetaCacheConfig;
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
    fn from_database_rejects_mismatched_plan() {
        let (db, _) = four_target_db();
        let plan = ShardPlan::round_robin(3, 2).unwrap();
        assert!(ShardedDatabase::from_database(db, plan).is_err());
    }

    #[test]
    fn split_preserves_locations_and_metadata() {
        let (db, _) = four_target_db();
        let total_locations = db.total_locations();
        let targets = db.target_count();
        let kind = db.partitions[0].store.kind();
        let sharded = ShardedDatabase::round_robin(db, 3).unwrap();
        assert_eq!(sharded.shard_count(), 3);
        // No locations are lost or duplicated by the split.
        let shard_locations: usize = sharded.shards().iter().map(|s| s.total_locations()).sum();
        assert_eq!(shard_locations, total_locations);
        // Every shard keeps the full metadata with global target ids; the
        // meta view has no tables at all.
        for shard in sharded.shards() {
            assert_eq!(shard.target_count(), targets);
            assert_eq!(shard.partition_count(), 1);
            assert_eq!(shard.partitions[0].store.kind(), kind);
        }
        assert_eq!(sharded.meta().target_count(), targets);
        assert_eq!(sharded.meta().partition_count(), 0);
        assert_eq!(sharded.meta().total_locations(), 0);
        assert!(sharded.table_bytes() > 0);
        // Each shard's tables only hold locations of its assigned targets.
        for (i, shard) in sharded.shards().iter().enumerate() {
            let mut locs = Vec::new();
            for p in &shard.partitions {
                p.store
                    .for_each_bucket(|_, bucket| {
                        locs.extend_from_slice(bucket);
                        Ok::<(), ()>(())
                    })
                    .unwrap();
            }
            assert_eq!(locs.len(), shard.total_locations());
            assert!(
                locs.iter()
                    .all(|l| sharded.plan().shard_of(l.target) == Some(i)),
                "shard {i} holds a foreign target's location"
            );
        }
    }

    #[test]
    fn sharded_classifier_matches_unsharded() {
        let (db, genomes) = four_target_db();
        let reads = reads_from(&genomes);
        let expected = Classifier::new(&db).classify_batch(&reads);
        for shard_count in [1usize, 2, 3, 4] {
            let (db, _) = four_target_db();
            let sharded = Arc::new(ShardedDatabase::round_robin(db, shard_count).unwrap());
            let classifier = Classifier::new(Arc::clone(&sharded));
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
        let sharded = Arc::new(ShardedDatabase::from_database(db, plan).unwrap());
        assert_eq!(sharded.shards()[1].total_locations(), 0);
        let classifier = Classifier::new(Arc::clone(&sharded));
        assert_eq!(classifier.classify_batch(&reads), expected);
        assert_eq!(classifier.database().shard_count(), 3);
    }

    #[test]
    fn sharded_backend_worker_matches_classify_batch() {
        let (db, genomes) = four_target_db();
        let reads = reads_from(&genomes);
        let expected = Classifier::new(&db).classify_batch(&reads);
        let (db, _) = four_target_db();
        let sharded = Arc::new(ShardedDatabase::round_robin(db, 2).unwrap());
        let backend = HostBackend::new(Arc::clone(&sharded));
        assert_eq!(backend.name(), "sharded-host");
        assert_eq!(backend.database().target_count(), 4);
        assert_eq!(sharded.shard_count(), 2);
        let mut worker = backend.worker();
        // Two batches through one persistent worker, classified the way
        // the engine does: against the table-free metadata view.
        let meta = backend.database();
        let mut out = Vec::new();
        for batch in [&reads[..13], &reads[13..]] {
            worker.candidates_each(batch, &mut |list| {
                out.push(classify_candidates(meta, &meta.config, list))
            });
        }
        assert_eq!(out, expected);
    }
}
