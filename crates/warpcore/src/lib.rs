//! # mc-warpcore — WarpCore-style hash tables for k-mer indices
//!
//! The throughput of database construction in MetaCache-GPU is "predominantly
//! governed by the throughput of the underlying hash table implementation"
//! (paper §3). This crate reproduces the hash-table family the paper builds
//! on and the new variant it contributes:
//!
//! * [`SingleValueHashTable`] — one value per key; the index of the host
//!   table, mapping features to bucket references (§5.1),
//! * [`MultiValueHashTable`] — WarpCore's multi-value table where every slot
//!   holds a single key/value pair and a key may occupy many slots,
//! * [`BucketListHashTable`] — WarpCore's bucket-list table where each key
//!   maps to a linked list of geometrically growing buckets,
//! * [`MultiBucketHashTable`] — **the paper's novel variant** (§5.1,
//!   Figure 3): each slot maps a key to a small, fixed number of values and a
//!   key may occupy multiple slots, which fits the highly skewed k-mer
//!   location distributions better and needs ~10% less memory than the other
//!   two variants. It is the GPU build's device table,
//! * [`HostHashTable`] — the CPU MetaCache table (§4.1, §4.2): a
//!   [`SingleValueHashTable`] index over one array of geometrically growing
//!   buckets, with a per-feature location cap (default 254) and a packed
//!   ("condensed") state. It is the one table a database holds at rest:
//!   CPU-built, GPU-built (each device's multi-bucket table is packed into
//!   one when the build finishes), loaded and split databases all hold it.
//!
//! [`MultiValueHashTable`] and [`BucketListHashTable`] hold no database;
//! they stay for the §6 table-memory comparison (`repro tablemem`), the
//! `hashtable` bench and one proptest, and go when that experiment does.
//!
//! All device-style tables ([`MultiValueHashTable`], [`MultiBucketHashTable`],
//! [`BucketListHashTable`], [`SingleValueHashTable`]) support *concurrent*
//! insertion from many threads ([`ConcurrentInsert`]) — this is what the
//! warp-aggregated insertion kernels of the paper map onto; the host table
//! has one inserter — and use the two-stage probing scheme of WarpCore: an
//! outer double-hashing sequence over probing groups combined with an inner
//! group-linear scan (see [`probing`]).
//!
//! ## Example
//!
//! ```
//! use mc_warpcore::{ConcurrentInsert, FeatureStore, MultiBucketConfig, MultiBucketHashTable};
//! use mc_kmer::Location;
//!
//! let table = MultiBucketHashTable::new(MultiBucketConfig {
//!     capacity_slots: 1024,
//!     bucket_size: 4,
//!     ..Default::default()
//! });
//! table.insert(42, Location::new(7, 3)).unwrap();
//! table.insert(42, Location::new(7, 4)).unwrap();
//! let mut hits = Vec::new();
//! table.query_into(42, &mut hits);
//! assert_eq!(hits.len(), 2);
//! ```

pub mod bucket_list;
pub mod host_table;
pub mod multi_bucket;
pub mod multi_value;
pub mod probing;
pub mod single_value;
pub mod stats;

pub use bucket_list::{BucketListConfig, BucketListHashTable};
pub use host_table::HostHashTable;
pub use multi_bucket::{MultiBucketConfig, MultiBucketHashTable};
pub use multi_value::{MultiValueConfig, MultiValueHashTable};
pub use probing::{ProbingConfig, ProbingSequence};
pub use single_value::SingleValueHashTable;
pub use stats::TableStats;

use mc_kmer::{Feature, Location};

/// Hint the CPU to bring the cache line holding `p` into every cache level,
/// so that a later load of it does not wait on memory. A no-op on targets
/// other than x86-64.
#[inline(always)]
pub(crate) fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint that never faults, whatever address it is
    // given, and changes no state the program can observe.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Errors reported by table insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// The probing sequence was exhausted without finding a usable slot; the
    /// table is effectively full for this key.
    TableFull,
    /// The per-key value limit was reached and the value was dropped
    /// (mirrors the paper's 254-locations-per-feature cap).
    ValueLimitReached,
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::TableFull => write!(f, "hash table is full (probing sequence exhausted)"),
            TableError::ValueLimitReached => {
                write!(f, "per-key value limit reached; value dropped")
            }
        }
    }
}

impl std::error::Error for TableError {}

/// The read half every k-mer index table shares: retrieve all locations of a
/// feature, and report size — what the query phase asks of the host table,
/// what the GPU build's pack reads out of the multi-bucket device table, and
/// what the table comparisons measure. Insertion differs: many
/// threads at once on the device tables ([`ConcurrentInsert`]), one inserter
/// on the host table ([`HostHashTable::insert`]).
pub trait FeatureStore: Send + Sync {
    /// Append all stored locations of `feature` to `out`. Returns the number
    /// of locations appended.
    fn query_into(&self, feature: Feature, out: &mut Vec<Location>) -> usize;

    /// Append the locations of every feature of `features` to `out`, in
    /// feature order. Returns the total number appended.
    ///
    /// This is the query-phase hot call: one read looks up its whole sketch
    /// (`s` features per window) at once, so implementations can overlap the
    /// lookups' cache misses — the host table runs one pass per dependent
    /// miss (index keys, bucket reference, bucket head) over a chunk of
    /// features, prefetching for the whole chunk before any of it is waited
    /// on. The default forwards to [`FeatureStore::query_into`] per feature.
    fn query_batch_into(&self, features: &[Feature], out: &mut Vec<Location>) -> usize {
        features.iter().map(|&f| self.query_into(f, out)).sum()
    }

    /// Convenience wrapper returning a fresh vector.
    fn query(&self, feature: Feature) -> Vec<Location> {
        let mut out = Vec::new();
        self.query_into(feature, &mut out);
        out
    }

    /// Number of distinct keys stored.
    fn key_count(&self) -> usize;

    /// Number of stored (feature, location) pairs (after any capping).
    fn value_count(&self) -> usize;

    /// Total bytes of memory occupied by the table's storage arrays. This is
    /// what the paper's "DB size" and GPU-memory comparisons measure.
    fn bytes(&self) -> usize;

    /// Summary statistics snapshot.
    fn stats(&self) -> TableStats {
        TableStats {
            key_count: self.key_count(),
            value_count: self.value_count(),
            bytes: self.bytes(),
            ..Default::default()
        }
    }
}

/// Insertion as the device tables offer it: through `&self`, from many
/// threads at once.
pub trait ConcurrentInsert: FeatureStore {
    /// Insert one location for a feature. Implementations may silently cap
    /// the number of retained locations per feature; they report this with
    /// [`TableError::ValueLimitReached`].
    fn insert(&self, feature: Feature, location: Location) -> Result<(), TableError>;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    /// All FeatureStore implementations must behave identically on a shared
    /// scenario: skewed key distribution with duplicates. `insert` is the
    /// table's own way in (`&self` on the device tables, `&mut self` on the
    /// host table).
    fn exercise<T: FeatureStore>(
        mut store: T,
        insert: impl Fn(&mut T, Feature, Location) -> Result<(), TableError>,
    ) {
        // key 1: a single location; key 2: many locations; key 3: absent.
        insert(&mut store, 1, Location::new(10, 0)).unwrap();
        for w in 0..20 {
            insert(&mut store, 2, Location::new(11, w)).unwrap();
        }
        assert_eq!(store.query(1), vec![Location::new(10, 0)]);
        let mut hits = store.query(2);
        hits.sort();
        assert_eq!(hits.len(), 20);
        assert_eq!(hits[0], Location::new(11, 0));
        assert_eq!(hits[19], Location::new(11, 19));
        assert!(store.query(3).is_empty());
        assert_eq!(store.key_count(), 2);
        assert_eq!(store.value_count(), 21);
        assert!(store.bytes() > 0);
    }

    #[test]
    fn all_variants_agree_on_basic_behaviour() {
        exercise(
            MultiBucketHashTable::new(MultiBucketConfig {
                capacity_slots: 4096,
                bucket_size: 4,
                ..Default::default()
            }),
            |t, f, l| t.insert(f, l),
        );
        exercise(
            MultiValueHashTable::new(MultiValueConfig {
                capacity_slots: 4096,
                ..Default::default()
            }),
            |t, f, l| t.insert(f, l),
        );
        exercise(
            BucketListHashTable::new(BucketListConfig {
                capacity_keys: 1024,
                ..Default::default()
            }),
            |t, f, l| t.insert(f, l),
        );
        exercise(HostHashTable::new(254), |t, f, l| t.insert(f, l));
    }
}
