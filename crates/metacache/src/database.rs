//! The reference database: targets, taxonomy and hash-table partitions.

use serde::{Deserialize, Serialize};

use mc_kmer::{Feature, Location, TargetId};
use mc_seqio::SequenceRecord;
use mc_taxonomy::{LineageCache, Rank, TaxonId, Taxonomy};
use mc_warpcore::{
    ConcurrentInsert, FeatureStore, HostHashTable, MultiBucketHashTable, TableError,
};

use crate::build::{sketch_target_into, TargetScratch};
use crate::config::MetaCacheConfig;
use crate::error::MetaCacheError;
use crate::shard::ShardPlan;
use crate::sketch::Sketcher;

/// Metadata of one reference target (a genome or scaffold sequence).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TargetInfo {
    /// The target's id (index into [`Database::targets`]).
    pub id: TargetId,
    /// Accession / name extracted from the FASTA header.
    pub name: String,
    /// The (species-level) taxon this target belongs to.
    pub taxon: TaxonId,
    /// Sequence length in bases.
    pub length: usize,
    /// Number of reference windows the target was split into.
    pub num_windows: u32,
}

/// The hash-table back end of one database partition.
pub enum PartitionStore {
    /// The paper's novel multi-bucket device table (GPU build path).
    MultiBucket(MultiBucketHashTable),
    /// The CPU MetaCache table: what a host build finishes with, what a load
    /// and a shard split produce, all in the same packed state (§4.1, §4.2).
    Host(HostHashTable),
}

impl PartitionStore {
    /// Read the store through the common [`FeatureStore`] interface.
    pub fn as_store(&self) -> &dyn FeatureStore {
        match self {
            PartitionStore::MultiBucket(t) => t,
            PartitionStore::Host(t) => t,
        }
    }

    /// Insert one location for a feature, each table in its own way (the
    /// device table through `&self`, the host table as its one inserter).
    pub fn insert(&mut self, feature: Feature, location: Location) -> Result<(), TableError> {
        match self {
            PartitionStore::MultiBucket(t) => t.insert(feature, location),
            PartitionStore::Host(t) => t.insert(feature, location),
        }
    }

    /// Visit every feature with its whole bucket, in ascending feature order
    /// — the order of the on-disk layout — until the visitor fails.
    pub fn for_each_bucket<E>(
        &self,
        mut f: impl FnMut(Feature, &[Location]) -> Result<(), E>,
    ) -> Result<(), E> {
        match self {
            PartitionStore::Host(t) => t.for_each_bucket(f),
            PartitionStore::MultiBucket(t) => {
                // A key's values are scattered over the slots it occupies; its
                // bucket is what a query of the device table returns for it.
                let mut bucket = Vec::new();
                t.features().into_iter().try_for_each(|feature| {
                    bucket.clear();
                    t.query_into(feature, &mut bucket);
                    f(feature, &bucket)
                })
            }
        }
    }

    /// Short label used in reports.
    pub fn kind(&self) -> &'static str {
        match self {
            PartitionStore::MultiBucket(_) => "multi-bucket",
            PartitionStore::Host(_) => "host",
        }
    }
}

/// One database partition: the hash table plus the ids of the targets whose
/// sketches were inserted into it. In the GPU pipeline each partition lives
/// on one device (§4.1: "a single reference sequence will never be
/// distributed across multiple GPUs").
pub struct Partition {
    /// The feature → location store.
    pub store: PartitionStore,
    /// Targets assigned to this partition.
    pub targets: Vec<TargetId>,
}

impl Partition {
    /// Query a feature against this partition.
    pub fn query_into(&self, feature: Feature, out: &mut Vec<Location>) -> usize {
        self.store.as_store().query_into(feature, out)
    }

    /// Query a whole sketch (feature batch) against this partition — lets
    /// the store amortise per-lookup overhead (see
    /// [`FeatureStore::query_batch_into`]).
    pub fn query_batch_into(&self, features: &[Feature], out: &mut Vec<Location>) -> usize {
        self.store.as_store().query_batch_into(features, out)
    }

    /// Bytes occupied by this partition's table.
    pub fn bytes(&self) -> usize {
        self.store.as_store().bytes()
    }
}

/// A complete reference database.
pub struct Database {
    /// The configuration it was built with.
    pub config: MetaCacheConfig,
    /// All reference targets, indexed by [`TargetId`].
    pub targets: Vec<TargetInfo>,
    /// The taxonomy.
    pub taxonomy: Taxonomy,
    /// The constant-time LCA cache (built once, before querying).
    pub lineages: LineageCache,
    /// The hash-table partitions (one per device in the GPU pipeline).
    pub partitions: Vec<Partition>,
}

impl Database {
    /// Look up a target's metadata.
    pub fn target(&self, id: TargetId) -> Option<&TargetInfo> {
        self.targets.get(id as usize)
    }

    /// The taxon of a target ([`mc_taxonomy::NO_TAXON`] if unknown).
    pub fn taxon_of_target(&self, id: TargetId) -> TaxonId {
        self.target(id).map_or(mc_taxonomy::NO_TAXON, |t| t.taxon)
    }

    /// Number of reference targets.
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Total number of stored (feature, location) pairs across partitions.
    pub fn total_locations(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| p.store.as_store().value_count())
            .sum()
    }

    /// Total number of distinct features across partitions (a feature present
    /// in several partitions is counted once per partition, as on real
    /// multi-GPU deployments).
    pub fn total_features(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| p.store.as_store().key_count())
            .sum()
    }

    /// Total bytes of all partition tables — the "DB size" column of Table 3.
    pub fn table_bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.bytes()).sum()
    }

    /// Approximate host RAM occupied by database metadata (taxonomy, targets,
    /// lineage cache) — the "RAM" column of Table 3 for the GPU version,
    /// where the tables themselves live in device memory.
    pub fn host_metadata_bytes(&self) -> usize {
        let targets: usize = self
            .targets
            .iter()
            .map(|t| std::mem::size_of::<TargetInfo>() + t.name.len())
            .sum();
        targets + self.taxonomy.heap_bytes() + self.lineages.heap_bytes()
    }

    /// A table-free copy of this database: full configuration, target
    /// table, taxonomy and lineage cache, but no partitions. This is what a
    /// router process serves from: candidate *lookup* happens on the shard
    /// servers and only the final
    /// [`crate::classify::classify_candidates`] step runs locally, which
    /// touches targets, taxonomy and lineages but never the hash table.
    pub fn metadata_view(&self) -> Database {
        Database {
            config: self.config,
            targets: self.targets.clone(),
            taxonomy: self.taxonomy.clone(),
            lineages: self.lineages.clone(),
            partitions: Vec::new(),
        }
    }

    /// This database split by target into `plan.shard_count()` partitions:
    /// partition `i` is a packed host table holding exactly the locations of
    /// the targets `plan` assigns to `i`, under their global ids, and the
    /// metadata is this database's. Queries of the result are bit-identical
    /// to queries of `self` (see [`crate::shard`]). The plan must assign
    /// exactly this database's targets.
    pub fn repartition(&self, plan: &ShardPlan) -> Result<Database, MetaCacheError> {
        let assignment = plan.assignment();
        if assignment.len() != self.target_count() {
            return Err(MetaCacheError::Config(format!(
                "shard plan assigns {} targets, database has {}",
                assignment.len(),
                self.target_count()
            )));
        }
        // Split every bucket of every partition by the owning target's
        // shard. Inserting re-merges features that span source partitions
        // (multi-device builds) into one bucket per feature, which may then
        // be longer than the build's cap allowed any one partition — so the
        // shard tables take the widest cap, and nothing the build kept is
        // dropped here.
        let mut tables: Vec<HostHashTable> = (0..plan.shard_count())
            .map(|_| HostHashTable::new(HostHashTable::MAX_BUCKET_LEN))
            .collect();
        for partition in &self.partitions {
            partition.store.for_each_bucket(|feature, bucket| {
                bucket.iter().try_for_each(|&loc| {
                    tables[assignment[loc.target as usize]].insert(feature, loc)
                })
            })?;
        }
        let partitions = tables
            .into_iter()
            .enumerate()
            .map(|(shard, mut table)| {
                table.compact();
                let targets = (0..assignment.len() as TargetId)
                    .filter(|&t| assignment[t as usize] == shard)
                    .collect();
                Partition {
                    store: PartitionStore::Host(table),
                    targets,
                }
            })
            .collect();
        Ok(Database {
            partitions,
            ..self.metadata_view()
        })
    }

    /// One database per partition, each with this database's full metadata
    /// (global target ids) and that one partition — what a shard server
    /// holds of a [`repartition`][Self::repartition].
    pub fn into_parts(mut self) -> Vec<Database> {
        std::mem::take(&mut self.partitions)
            .into_iter()
            .map(|partition| Database {
                partitions: vec![partition],
                ..self.metadata_view()
            })
            .collect()
    }

    /// Query a feature against every partition, appending all hits.
    pub fn query_feature_into(&self, feature: Feature, out: &mut Vec<Location>) -> usize {
        self.partitions
            .iter()
            .map(|p| p.query_into(feature, out))
            .sum()
    }

    /// Query a read's whole feature batch against every partition, appending
    /// all hits partition-major (every feature of partition 0, then every
    /// feature of partition 1, …). The query hot path uses this so each
    /// partition's store amortises its per-lookup overhead across the batch.
    #[inline]
    pub fn query_features_into(&self, features: &[Feature], out: &mut Vec<Location>) -> usize {
        self.partitions
            .iter()
            .map(|p| p.query_batch_into(features, out))
            .sum()
    }

    /// Rebuild the lineage cache (needed if the taxonomy was extended after
    /// construction).
    pub fn refresh_lineages(&mut self) {
        self.lineages = self.taxonomy.lineage_cache();
    }

    /// Insert one reference target into an already-built database — the
    /// incremental-construction path of the warpcore table (§4.1: references
    /// stream in and the index grows without a rebuild).
    ///
    /// The target receives the next global id and is assigned to partition
    /// `id % partition_count`, exactly where a fresh build of the extended
    /// reference set would have placed it (the CPU builder keeps one
    /// partition; the GPU builder assigns targets round-robin). A finished or
    /// loaded host table is packed; it simply takes the insertions (a touched
    /// bucket moves once to the end of the table's location array), and the
    /// global `max_locations_per_feature` cap applies to every one of them,
    /// so the result is bit-identical to building from the extended reference
    /// set in one pass. (A [`repartition`][Self::repartition]'s tables carry
    /// the widest cap instead, so there the identity holds only while no
    /// touched bucket reaches the build's cap.)
    ///
    /// `taxon` must already exist (extend the taxonomy through
    /// [`Database::apply_delta`] to add taxa and targets together).
    pub fn insert_target(
        &mut self,
        record: SequenceRecord,
        taxon: TaxonId,
    ) -> Result<TargetId, MetaCacheError> {
        let sketcher = Sketcher::new(&self.config)?;
        let mut scratch = TargetScratch::new(&self.config);
        let mut stats = DeltaStats::default();
        self.insert_target_inner(&sketcher, &mut scratch, record, taxon, &mut stats)
    }

    /// Apply a batch of updates: new taxonomy nodes first, then new targets
    /// (which may reference the new taxa). The lineage cache is rebuilt once
    /// if taxa were added. See [`Database::insert_target`] for the placement
    /// and capping rules; the returned [`DeltaStats`] mirror the builder's
    /// [`crate::build::BuildStats`] counters for the delta alone.
    pub fn apply_delta(&mut self, delta: DatabaseDelta) -> Result<DeltaStats, MetaCacheError> {
        for node in &delta.taxa {
            self.taxonomy
                .add_node(node.id, node.parent, node.rank, node.name.as_str())?;
        }
        if !delta.taxa.is_empty() {
            self.refresh_lineages();
        }
        let sketcher = Sketcher::new(&self.config)?;
        let mut scratch = TargetScratch::new(&self.config);
        let mut stats = DeltaStats::default();
        for (record, taxon) in delta.targets {
            self.insert_target_inner(&sketcher, &mut scratch, record, taxon, &mut stats)?;
        }
        Ok(stats)
    }

    fn insert_target_inner(
        &mut self,
        sketcher: &Sketcher,
        scratch: &mut TargetScratch,
        record: SequenceRecord,
        taxon: TaxonId,
        stats: &mut DeltaStats,
    ) -> Result<TargetId, MetaCacheError> {
        if !self.taxonomy.contains(taxon) {
            return Err(MetaCacheError::UnknownTaxon(taxon));
        }
        if self.partitions.is_empty() {
            return Err(MetaCacheError::Config(
                "cannot insert targets into a metadata-only database (no partitions)".into(),
            ));
        }
        let target_id = self.targets.len() as TargetId;
        let idx = target_id as usize % self.partitions.len();
        let partition = &mut self.partitions[idx];
        let mut counts = crate::build::SketchCounts::default();
        sketch_target_into(
            sketcher,
            scratch,
            &record,
            target_id,
            |feature, location| partition.store.insert(feature, location),
            &mut counts,
        )?;
        stats.targets_added += 1;
        stats.windows_sketched += counts.windows;
        stats.locations_inserted += counts.inserted;
        stats.locations_dropped += counts.dropped;
        self.targets.push(TargetInfo {
            id: target_id,
            name: record.id().to_string(),
            taxon,
            length: record.sequence.len(),
            num_windows: sketcher.num_windows(record.sequence.len()),
        });
        partition.targets.push(target_id);
        Ok(target_id)
    }
}

/// One new taxonomy node carried by a [`DatabaseDelta`].
#[derive(Debug, Clone)]
struct DeltaTaxon {
    id: TaxonId,
    parent: TaxonId,
    rank: Rank,
    name: String,
}

/// A batch of post-load database updates: new taxonomy nodes plus new
/// reference targets, applied atomically (with respect to the owning
/// `&mut Database`) by [`Database::apply_delta`].
///
/// The delta form exists so a reference-set update lands as *one* new
/// database state: serving layers build the next state with one
/// `apply_delta`, wrap it in an `Arc`, and swap it into an
/// [`crate::serving::EpochStore`] — readers never observe a half-applied
/// update.
#[derive(Debug, Clone, Default)]
pub struct DatabaseDelta {
    taxa: Vec<DeltaTaxon>,
    targets: Vec<(SequenceRecord, TaxonId)>,
}

impl DatabaseDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a new taxonomy node. Nodes are added in queue order, before any
    /// target, so a node may reference an earlier queued node as its parent.
    pub fn add_taxon(
        &mut self,
        id: TaxonId,
        parent: TaxonId,
        rank: Rank,
        name: impl Into<String>,
    ) -> &mut Self {
        self.taxa.push(DeltaTaxon {
            id,
            parent,
            rank,
            name: name.into(),
        });
        self
    }

    /// Queue a new reference target belonging to `taxon` (pre-existing or
    /// queued via [`DatabaseDelta::add_taxon`]).
    pub fn add_target(&mut self, record: SequenceRecord, taxon: TaxonId) -> &mut Self {
        self.targets.push((record, taxon));
        self
    }

    /// Number of queued targets.
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// Number of queued taxonomy nodes.
    pub fn taxon_count(&self) -> usize {
        self.taxa.len()
    }

    /// Whether the delta carries no updates at all.
    pub fn is_empty(&self) -> bool {
        self.taxa.is_empty() && self.targets.is_empty()
    }
}

/// Counters of one applied [`DatabaseDelta`] (the delta's share of what
/// [`crate::build::BuildStats`] counts for a full build).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Targets inserted by the delta.
    pub targets_added: usize,
    /// Reference windows sketched.
    pub windows_sketched: u64,
    /// (feature, location) pairs inserted (after capping).
    pub locations_inserted: u64,
    /// Locations dropped by the per-feature cap.
    pub locations_dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_taxonomy::Rank;

    fn tiny_database() -> Database {
        let mut taxonomy = Taxonomy::with_root();
        taxonomy.add_node(10, 1, Rank::Genus, "G").unwrap();
        taxonomy.add_node(100, 10, Rank::Species, "G a").unwrap();
        taxonomy.add_node(101, 10, Rank::Species, "G b").unwrap();
        let lineages = taxonomy.lineage_cache();
        let mut store = HostHashTable::new(254);
        store.insert(7, Location::new(0, 0)).unwrap();
        store.insert(7, Location::new(1, 2)).unwrap();
        store.insert(9, Location::new(1, 3)).unwrap();
        Database {
            config: MetaCacheConfig::default(),
            targets: vec![
                TargetInfo {
                    id: 0,
                    name: "t0".into(),
                    taxon: 100,
                    length: 1000,
                    num_windows: 9,
                },
                TargetInfo {
                    id: 1,
                    name: "t1".into(),
                    taxon: 101,
                    length: 2000,
                    num_windows: 18,
                },
            ],
            taxonomy,
            lineages,
            partitions: vec![Partition {
                store: PartitionStore::Host(store),
                targets: vec![0, 1],
            }],
        }
    }

    #[test]
    fn target_and_taxon_lookup() {
        let db = tiny_database();
        assert_eq!(db.target_count(), 2);
        assert_eq!(db.target(1).unwrap().name, "t1");
        assert_eq!(db.taxon_of_target(0), 100);
        assert_eq!(db.taxon_of_target(99), mc_taxonomy::NO_TAXON);
    }

    #[test]
    fn query_feature_merges_partitions() {
        let db = tiny_database();
        let mut hits = Vec::new();
        assert_eq!(db.query_feature_into(7, &mut hits), 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(db.total_locations(), 3);
        assert_eq!(db.total_features(), 2);
        assert!(db.table_bytes() > 0);
        assert!(db.host_metadata_bytes() > 0);
    }

    #[test]
    fn insert_target_extends_database() {
        let mut db = tiny_database();
        let record =
            SequenceRecord::new("t2", &b"ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"[..]);
        let before_locations = db.total_locations();
        let id = db.insert_target(record, 101).unwrap();
        assert_eq!(id, 2);
        assert_eq!(db.target_count(), 3);
        assert_eq!(db.taxon_of_target(2), 101);
        assert_eq!(db.target(2).unwrap().name, "t2");
        assert!(db.total_locations() > before_locations);
        assert!(db.partitions[0].targets.contains(&2));
    }

    #[test]
    fn insert_target_rejects_unknown_taxon_and_metadata_only() {
        let mut db = tiny_database();
        let record = SequenceRecord::new("x", &b"ACGTACGTACGTACGTACGT"[..]);
        assert!(matches!(
            db.insert_target(record.clone(), 4242),
            Err(MetaCacheError::UnknownTaxon(4242))
        ));
        let mut meta = db.metadata_view();
        assert!(matches!(
            meta.insert_target(record, 100),
            Err(MetaCacheError::Config(_))
        ));
    }

    #[test]
    fn apply_delta_adds_taxa_then_targets() {
        let mut db = tiny_database();
        let mut delta = DatabaseDelta::new();
        assert!(delta.is_empty());
        delta.add_taxon(11, 1, Rank::Genus, "H");
        delta.add_taxon(110, 11, Rank::Species, "H a");
        delta.add_target(
            SequenceRecord::new("h0", &b"ACGTACGTACGTACGTACGTACGTACGTACGT"[..]),
            110,
        );
        assert_eq!(delta.taxon_count(), 2);
        assert_eq!(delta.target_count(), 1);
        let stats = db.apply_delta(delta).unwrap();
        assert_eq!(stats.targets_added, 1);
        assert!(stats.windows_sketched > 0);
        assert!(db.taxonomy.contains(110));
        assert_eq!(db.taxon_of_target(2), 110);
        // Lineages were refreshed: the new species resolves through the
        // new genus to the root.
        assert_eq!(db.lineages.ancestor_at(110, Rank::Genus), 11);
    }

    /// A feature held by two partitions under a cap of 1 — what a 2-device
    /// build leaves when two targets share it — becomes one bucket of two:
    /// the split applies no cap of its own.
    #[test]
    fn repartition_keeps_merged_buckets_past_the_build_cap() {
        let mut db = tiny_database();
        db.config.max_locations_per_feature = 1;
        let part = |target| {
            let mut table = HostHashTable::new(1);
            table.insert(7, Location::new(target, 0)).unwrap();
            Partition {
                store: PartitionStore::Host(table),
                targets: vec![target],
            }
        };
        db.partitions = vec![part(0), part(1)];
        let merged = db
            .repartition(&ShardPlan::round_robin(2, 1).unwrap())
            .unwrap();
        let mut hits = Vec::new();
        assert_eq!(merged.query_feature_into(7, &mut hits), 2);
        assert_eq!(merged.partitions[0].targets, [0, 1]);
    }

    #[test]
    fn partition_kind_labels() {
        let db = tiny_database();
        assert_eq!(db.partitions[0].store.kind(), "host");
        let device = PartitionStore::MultiBucket(MultiBucketHashTable::new(Default::default()));
        assert_eq!(device.kind(), "multi-bucket");
    }
}
