//! The reference database: targets, taxonomy and hash-table partitions.

use serde::{Deserialize, Serialize};

use mc_kmer::{Feature, Location, TargetId};
use mc_seqio::SequenceRecord;
use mc_taxonomy::{LineageCache, Rank, TaxonId, Taxonomy};
use mc_warpcore::{
    pack_bucket_ref, unpack_bucket_ref, FeatureStore, HostHashTable, HostTableConfig,
    MultiBucketHashTable, SingleValueHashTable, TableError,
};

use crate::build::sketch_target_into;
use crate::config::MetaCacheConfig;
use crate::error::MetaCacheError;
use crate::sketch::{SketchScratch, Sketcher};

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

/// The condensed read-only store used after loading a database from disk:
/// all buckets live in one contiguous location array and a single-value table
/// maps each feature to its (offset, length) bucket reference (§4.2, §5.1).
pub struct CondensedStore {
    index: SingleValueHashTable,
    locations: Vec<Location>,
}

impl CondensedStore {
    /// Build a condensed store from (feature, bucket) pairs.
    pub fn from_buckets(buckets: impl IntoIterator<Item = (Feature, Vec<Location>)>) -> Self {
        let buckets: Vec<(Feature, Vec<Location>)> = buckets.into_iter().collect();
        let total: usize = buckets.iter().map(|(_, b)| b.len()).sum();
        let index = SingleValueHashTable::for_expected_keys(buckets.len().max(1), 0.8);
        let mut locations = Vec::with_capacity(total);
        for (feature, bucket) in buckets {
            let offset = locations.len() as u64;
            let len = bucket.len() as u32;
            locations.extend(bucket);
            index
                .insert(feature, pack_bucket_ref(offset, len))
                .expect("condensed index sized for all keys");
        }
        Self { index, locations }
    }

    /// Number of stored locations.
    pub fn location_count(&self) -> usize {
        self.locations.len()
    }

    /// Visit every (feature, bucket) pair of the condensed layout — used when
    /// re-serialising a loaded database.
    pub fn for_each_bucket(&self, mut f: impl FnMut(Feature, &[Location])) {
        self.index
            .for_each(|feature, packed| f(feature, self.bucket(packed)));
    }

    /// The bucket a packed (offset, length) reference of the index points at.
    #[inline]
    fn bucket(&self, packed: u64) -> &[Location] {
        let (offset, len) = unpack_bucket_ref(packed);
        &self.locations[offset as usize..offset as usize + len as usize]
    }

    /// Convert the condensed layout back into a mutable [`HostHashTable`]
    /// so a loaded database can accept post-load insertions. Every bucket's
    /// location order is preserved, so queries against the thawed table are
    /// bit-identical to queries against the condensed store.
    pub fn thaw(&self, max_locations_per_key: usize) -> HostHashTable {
        let table = HostHashTable::new(HostTableConfig {
            max_locations_per_key,
            ..Default::default()
        });
        self.for_each_bucket(|feature, bucket| {
            for &location in bucket {
                // Buckets were capped at build time, so under the same (or a
                // larger) cap nothing is dropped; a smaller cap re-applies
                // here, exactly as a fresh build with that cap would.
                match table.insert(feature, location) {
                    Ok(()) | Err(TableError::ValueLimitReached) => {}
                    Err(e) => unreachable!("growable host table refused an insert: {e}"),
                }
            }
        });
        table
    }
}

impl FeatureStore for CondensedStore {
    fn insert(&self, _feature: Feature, _location: Location) -> Result<(), TableError> {
        // The condensed layout is read-only (it is produced by loading a
        // database from disk); [`Database::insert_target`] thaws it into a
        // host table before inserting.
        Err(TableError::ReadOnly)
    }

    fn query_into(&self, feature: Feature, out: &mut Vec<Location>) -> usize {
        let bucket = self.index.get(feature).map_or(&[][..], |r| self.bucket(r));
        out.extend_from_slice(bucket);
        bucket.len()
    }

    /// Two phases per [`SingleValueHashTable::PROBE_BATCH`] features: resolve
    /// every bucket reference (the index overlaps the lookups' cache misses,
    /// and three lookups in four miss once the database is sharded), then
    /// copy the buckets into space reserved once for all of them.
    fn query_batch_into(&self, features: &[Feature], out: &mut Vec<Location>) -> usize {
        let before = out.len();
        for features in features.chunks(SingleValueHashTable::PROBE_BATCH) {
            let mut refs = [None; SingleValueHashTable::PROBE_BATCH];
            let refs = &mut refs[..features.len()];
            self.index.get_batch(features, refs);
            let buckets = refs.iter().flatten().map(|&packed| self.bucket(packed));
            out.reserve(buckets.clone().map(<[Location]>::len).sum());
            for bucket in buckets {
                out.extend_from_slice(bucket);
            }
        }
        out.len() - before
    }

    fn key_count(&self) -> usize {
        self.index.len()
    }

    fn value_count(&self) -> usize {
        self.locations.len()
    }

    fn bytes(&self) -> usize {
        self.index.bytes() + self.locations.len() * std::mem::size_of::<Location>()
    }
}

/// The hash-table back end of one database partition.
pub enum PartitionStore {
    /// The paper's novel multi-bucket device table (GPU build path).
    MultiBucket(MultiBucketHashTable),
    /// The CPU MetaCache table (host build path).
    Host(HostHashTable),
    /// The condensed read-only layout used after loading from disk.
    Condensed(CondensedStore),
}

impl PartitionStore {
    /// Access the store through the common [`FeatureStore`] interface.
    pub fn as_store(&self) -> &dyn FeatureStore {
        match self {
            PartitionStore::MultiBucket(t) => t,
            PartitionStore::Host(t) => t,
            PartitionStore::Condensed(t) => t,
        }
    }

    /// Short label used in reports.
    pub fn kind(&self) -> &'static str {
        match self {
            PartitionStore::MultiBucket(_) => "multi-bucket",
            PartitionStore::Host(_) => "host",
            PartitionStore::Condensed(_) => "condensed",
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
    /// table, taxonomy and lineage cache, but no partitions. This is the
    /// shared metadata view of a scatter-gather deployment — the
    /// [`crate::shard::ShardedDatabase`] hands it to merge/classify code
    /// and a router process serves from it — where candidate *lookup*
    /// happens elsewhere (per shard) and only the final
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
    /// partition; the GPU builder assigns targets round-robin). A loaded
    /// (condensed) partition is thawed into a mutable host table first, and
    /// the global `max_locations_per_feature` cap re-applies to every
    /// insertion, so the result is bit-identical to building from the
    /// extended reference set in one pass.
    ///
    /// `taxon` must already exist (extend the taxonomy through
    /// [`Database::apply_delta`] to add taxa and targets together).
    pub fn insert_target(
        &mut self,
        record: SequenceRecord,
        taxon: TaxonId,
    ) -> Result<TargetId, MetaCacheError> {
        let sketcher = Sketcher::new(&self.config)?;
        let mut scratch = SketchScratch::with_capacity(self.config.sketch_size);
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
        let mut scratch = SketchScratch::with_capacity(self.config.sketch_size);
        let mut stats = DeltaStats::default();
        for (record, taxon) in delta.targets {
            self.insert_target_inner(&sketcher, &mut scratch, record, taxon, &mut stats)?;
        }
        Ok(stats)
    }

    fn insert_target_inner(
        &mut self,
        sketcher: &Sketcher,
        scratch: &mut SketchScratch,
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
        if let PartitionStore::Condensed(condensed) = &partition.store {
            partition.store =
                PartitionStore::Host(condensed.thaw(self.config.max_locations_per_feature));
        }
        let mut counts = crate::build::SketchCounts::default();
        sketch_target_into(
            sketcher,
            scratch,
            &record,
            target_id,
            partition.store.as_store(),
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
        let store = HostHashTable::new(Default::default());
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
    fn condensed_store_roundtrip() {
        let buckets = vec![
            (5u32, vec![Location::new(0, 1), Location::new(0, 2)]),
            (9u32, vec![Location::new(3, 7)]),
            (
                1_000_000u32,
                (0..100).map(|w| Location::new(9, w)).collect(),
            ),
        ];
        let store = CondensedStore::from_buckets(buckets.clone());
        assert_eq!(store.location_count(), 103);
        assert_eq!(store.key_count(), 3);
        assert_eq!(store.value_count(), 103);
        for (feature, bucket) in &buckets {
            assert_eq!(&store.query(*feature), bucket);
        }
        assert!(store.query(4242).is_empty());
        // Read-only: inserts are rejected with the typed error, not silently
        // dropped or misreported as a full table (regression for the old
        // `TableError::TableFull` stub).
        assert_eq!(
            store.insert(5, Location::new(0, 0)),
            Err(TableError::ReadOnly)
        );
    }

    #[test]
    fn thaw_preserves_buckets_and_reapplies_cap() {
        let buckets = vec![
            (5u32, vec![Location::new(0, 1), Location::new(0, 2)]),
            (9u32, (0..10).map(|w| Location::new(2, w)).collect()),
        ];
        let store = CondensedStore::from_buckets(buckets.clone());
        // Same cap: everything survives, order preserved.
        let thawed = store.thaw(254);
        for (feature, bucket) in &buckets {
            assert_eq!(&thawed.query(*feature), bucket);
        }
        // Smaller cap: re-applied exactly as a fresh build would.
        let capped = store.thaw(4);
        assert_eq!(capped.query(5).len(), 2);
        assert_eq!(capped.query(9).len(), 4);
        // The thawed table accepts insertions again.
        thawed.insert(5, Location::new(7, 7)).unwrap();
        assert_eq!(thawed.query(5).len(), 3);
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

    #[test]
    fn partition_kind_labels() {
        let db = tiny_database();
        assert_eq!(db.partitions[0].store.kind(), "host");
        let condensed = PartitionStore::Condensed(CondensedStore::from_buckets(Vec::new()));
        assert_eq!(condensed.kind(), "condensed");
    }
}
