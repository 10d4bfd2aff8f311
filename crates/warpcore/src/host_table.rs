//! The host (CPU) MetaCache hash table (paper §4.1, §4.2).
//!
//! "Each slot maps a feature to a bucket of reference locations" (§4.1), and
//! the condensed form keeps "all buckets of target locations … in one large
//! contiguous array" (§4.2). One table is both: a [`SingleValueHashTable`]
//! index maps each feature to a packed bucket reference (offset, length,
//! capacity) into one `Vec<Location>` arena. A built, a loaded and a split
//! database hold it in the same packed state, all of them accept further
//! insertions, and every query walks the one division-free probe of
//! [`crate::probing`].
//!
//! Appending to a bucket with room writes in place; a full bucket moves to
//! the arena's end with doubled capacity, leaving a hole;
//! [`HostHashTable::compact`] lays every bucket out at its exact length
//! again, the state in which [`HostHashTable::from_packed`] takes over a
//! loaded arena. Locations per feature are capped (254 by default, §4.1) and
//! the index is rebuilt at twice the size when its load factor passes 0.8 —
//! "the buckets holding the values are preserved".
//!
//! The original CPU table "does not support concurrent insertion", so each
//! table has one writer — insertion takes `&mut self` and queries take
//! `&self` with no lock in between — and a build fuses W of them: W inserter
//! threads each fill a table with the features they own, and
//! [`HostHashTable::fuse`] packs those tables into one.
//!
//! Buckets are append-only and copied whole when they move, so a bucket's
//! locations stay in insertion order: *sorted* by (target, window), because
//! the sketching thread assigns ascending ids. The query phase relies on
//! this for linear-time merging.

use mc_kmer::{Feature, Location};

use crate::single_value::SingleValueHashTable;
use crate::{FeatureStore, TableError};

/// Index slots of an empty table.
const INITIAL_CAPACITY: usize = 1 << 12;
/// Index load factor above which the index is rebuilt at twice the size.
const MAX_LOAD_FACTOR: f64 = 0.8;

/// Keys an index of `capacity` slots holds before it is rebuilt.
fn max_keys(capacity: usize) -> usize {
    (capacity as f64 * MAX_LOAD_FACTOR) as usize
}

/// Bits of a packed bucket reference that hold the arena offset.
const OFFSET_BITS: u32 = 36;
/// Bits that hold the bucket length, and as many again its capacity.
const LEN_BITS: u32 = 14;

/// Where a feature's bucket lives: `arena[offset..offset + len]` are its
/// locations, `arena[offset + len..offset + capacity]` is room to append.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct BucketRef {
    offset: usize,
    len: usize,
    capacity: usize,
}

impl BucketRef {
    /// The reference as one index value: offset in the low 36 bits, then 14
    /// bits of length, then 14 of capacity. [`HostHashTable::insert`] and
    /// [`HostHashTable::from_packed`] bound all three before they pack.
    fn pack(self) -> u64 {
        debug_assert!(self.offset as u64 + self.capacity as u64 <= 1 << OFFSET_BITS);
        debug_assert!(self.len <= self.capacity && self.capacity <= HostHashTable::MAX_BUCKET_LEN);
        self.offset as u64
            | (self.len as u64) << OFFSET_BITS
            | (self.capacity as u64) << (OFFSET_BITS + LEN_BITS)
    }

    fn unpack(packed: u64) -> Self {
        Self {
            offset: (packed & ((1 << OFFSET_BITS) - 1)) as usize,
            len: (packed >> OFFSET_BITS) as usize & HostHashTable::MAX_BUCKET_LEN,
            capacity: (packed >> (OFFSET_BITS + LEN_BITS)) as usize,
        }
    }
}

/// The host (CPU) hash table. See the module documentation.
pub struct HostHashTable {
    /// Feature → packed [`BucketRef`].
    index: SingleValueHashTable,
    /// Every bucket, back to back: locations, room to append, and the holes
    /// that relocated buckets left behind.
    arena: Vec<Location>,
    max_locations_per_key: usize,
    /// Locations in live buckets.
    values: usize,
}

impl HostHashTable {
    /// The longest bucket a packed reference can describe; a larger location
    /// cap is clamped to it.
    pub const MAX_BUCKET_LEN: usize = (1 << LEN_BITS) - 1;

    /// An empty table retaining at most `max_locations_per_key` locations per
    /// feature (paper default: 254).
    pub fn new(max_locations_per_key: usize) -> Self {
        Self::from_packed(max_locations_per_key, &[], Vec::new()).expect("no bucket to refuse")
    }

    /// The packed table a load builds: `arena` holds every bucket back to
    /// back, `buckets` the feature and length of each in that order (one over
    /// the cap is refused). The index gets the size that many insertions would
    /// have grown it to, so the table is laid out like a built and compacted
    /// one. Filling it is a load's only random memory access, hence one tight
    /// loop here, where the misses of consecutive features overlap, and not a
    /// probe walk between two reads of a file, each waiting out its own miss.
    ///
    /// # Panics
    ///
    /// If a bucket is empty, a feature is named twice or the lengths do not
    /// add up to the arena.
    pub fn from_packed(
        max_locations_per_key: usize,
        buckets: &[(Feature, u32)],
        arena: Vec<Location>,
    ) -> Result<Self, TableError> {
        if arena.len() as u64 > 1 << OFFSET_BITS {
            return Err(TableError::TableFull);
        }
        let mut capacity = INITIAL_CAPACITY;
        while buckets.len() > max_keys(capacity) {
            capacity *= 2;
        }
        let mut table = Self {
            index: SingleValueHashTable::new(capacity),
            values: arena.len(),
            arena,
            max_locations_per_key: max_locations_per_key.clamp(1, Self::MAX_BUCKET_LEN),
        };
        let mut offset = 0;
        for &(feature, len) in buckets {
            let len = len as usize;
            if len > table.max_locations_per_key {
                return Err(TableError::ValueLimitReached);
            }
            let slot = table.index.entry(feature)?;
            let new = len != 0 && *slot == SingleValueHashTable::VACANT;
            assert!(new, "feature {feature}: an empty bucket, or named twice");
            *slot = BucketRef {
                offset,
                len,
                capacity: len,
            }
            .pack();
            offset += len;
        }
        assert_eq!(offset, table.values, "bucket lengths add up to the arena");
        Ok(table)
    }

    /// Insert one location for a feature, in one probe walk. A location
    /// beyond the per-feature cap is dropped and reported as
    /// [`TableError::ValueLimitReached`].
    pub fn insert(&mut self, feature: Feature, location: Location) -> Result<(), TableError> {
        // Wherever the bucket lands, a packed reference must reach it.
        if (self.arena.len() + Self::MAX_BUCKET_LEN) as u64 > 1 << OFFSET_BITS {
            return Err(TableError::TableFull);
        }
        if self.index.len() >= max_keys(self.index.capacity()) {
            let mut grown = SingleValueHashTable::new(2 * self.index.capacity());
            let mut moved = Ok(());
            self.index.for_each(|feature, packed| {
                moved = moved.and(grown.entry(feature).map(|slot| *slot = packed));
            });
            moved?;
            self.index = grown;
        }

        let slot = self.index.entry(feature)?;
        let old = match *slot {
            SingleValueHashTable::VACANT => BucketRef::default(),
            packed => BucketRef::unpack(packed),
        };
        if old.len >= self.max_locations_per_key {
            return Err(TableError::ValueLimitReached);
        }
        let mut bucket = BucketRef {
            len: old.len + 1,
            ..old
        };
        if old.len < old.capacity {
            self.arena[old.offset + old.len] = location;
        } else {
            // Move to the arena's end with doubled capacity.
            bucket.offset = self.arena.len();
            bucket.capacity = (2 * old.capacity).clamp(bucket.len, self.max_locations_per_key);
            self.arena
                .extend_from_within(old.offset..old.offset + old.len);
            self.arena.push(location);
            self.arena
                .resize(bucket.offset + bucket.capacity, Location::default());
        }
        *slot = bucket.pack();
        self.values += 1;
        Ok(())
    }

    /// One packed table holding every bucket of `parts`, tables with one cap
    /// and no feature in common: what a build's W inserter threads, each
    /// owning a share of the features, leave behind. Each part's index is
    /// walked once, its buckets appended to one arena, and the arena handed
    /// to [`from_packed`](Self::from_packed); a single part is
    /// [compacted](Self::compact) in place. Bucket contents and order are
    /// unchanged.
    ///
    /// # Panics
    ///
    /// If `parts` is empty or two parts hold the same feature.
    pub fn fuse(parts: Vec<HostHashTable>) -> Result<Self, TableError> {
        let parts = match <[HostHashTable; 1]>::try_from(parts) {
            Ok([mut table]) => {
                table.compact();
                return Ok(table);
            }
            Err(parts) => parts,
        };
        let cap = parts
            .first()
            .expect("a table to fuse")
            .max_locations_per_key;
        let mut buckets = Vec::with_capacity(parts.iter().map(|part| part.index.len()).sum());
        // The parts' summed extent, as `compact` reserves its own: the
        // buckets later insertions move to the end must not reallocate it.
        let mut arena = Vec::with_capacity(parts.iter().map(|part| part.arena.len()).sum());
        for part in parts {
            part.index.for_each(|feature, packed| {
                let bucket = part.bucket(packed);
                buckets.push((feature, bucket.len() as u32));
                arena.extend_from_slice(bucket);
            });
        }
        Self::from_packed(cap, &buckets, arena)
    }

    /// Lay every bucket out at its exact length with no holes in between.
    /// What a one-part [`fuse`](Self::fuse) and a split call; bucket contents
    /// and order are unchanged.
    pub fn compact(&mut self) {
        // The packed arena keeps the room the build had grown into (reserved,
        // not touched): the buckets the next insertions move to its end must
        // not make it reallocate, which would copy the whole of it.
        let mut packed = Vec::with_capacity(self.arena.len());
        let arena = &self.arena;
        self.index.for_each_mut(|_, slot| {
            let BucketRef { offset, len, .. } = BucketRef::unpack(*slot);
            *slot = BucketRef {
                offset: packed.len(),
                len,
                capacity: len,
            }
            .pack();
            packed.extend_from_slice(&arena[offset..offset + len]);
        });
        self.arena = packed;
    }

    /// Apply `f` to every (feature, bucket) pair in ascending feature order —
    /// the order of the on-disk layout — until it fails.
    pub fn for_each_bucket<E>(
        &self,
        mut f: impl FnMut(Feature, &[Location]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut refs = Vec::with_capacity(self.index.len());
        self.index
            .for_each(|feature, packed| refs.push((feature, packed)));
        refs.sort_unstable_by_key(|&(feature, _)| feature);
        refs.into_iter()
            .try_for_each(|(feature, packed)| f(feature, self.bucket(packed)))
    }

    /// The bucket a packed reference of the index points at.
    #[inline]
    fn bucket(&self, packed: u64) -> &[Location] {
        let BucketRef { offset, len, .. } = BucketRef::unpack(packed);
        &self.arena[offset..offset + len]
    }
}

impl FeatureStore for HostHashTable {
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
        self.values
    }

    /// The index plus the arena's whole extent — every bucket's capacity and
    /// every hole, so what a build has not compacted away shows.
    fn bytes(&self) -> usize {
        self.index.bytes() + self.arena.len() * std::mem::size_of::<Location>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_query_roundtrip() {
        let mut t = HostHashTable::new(254);
        t.insert(1, Location::new(0, 0)).unwrap();
        t.insert(1, Location::new(0, 1)).unwrap();
        t.insert(2, Location::new(1, 0)).unwrap();
        assert_eq!(t.query(1), vec![Location::new(0, 0), Location::new(0, 1)]);
        assert_eq!(t.query(2), vec![Location::new(1, 0)]);
        assert!(t.query(3).is_empty());
        assert_eq!(t.key_count(), 2);
        assert_eq!(t.value_count(), 3);
    }

    #[test]
    fn grows_and_rehashes_beyond_initial_capacity() {
        let mut t = HostHashTable::new(254);
        let keys = 5 * INITIAL_CAPACITY as u32;
        for k in 0..keys {
            t.insert(k, Location::new(k, 0)).unwrap();
        }
        assert_eq!(t.index.capacity(), 8 * INITIAL_CAPACITY, "three doublings");
        assert_eq!(t.key_count(), keys as usize);
        for k in (0..keys).step_by(37) {
            assert_eq!(t.query(k), vec![Location::new(k, 0)]);
        }
    }

    #[test]
    fn location_cap_enforced() {
        let mut t = HostHashTable::new(254);
        let mut stored = 0;
        for w in 0..300u32 {
            if t.insert(77, Location::new(0, w)).is_ok() {
                stored += 1;
            }
        }
        assert_eq!(stored, 254);
        assert_eq!(t.query(77).len(), 254);
        // A cap no packed reference could hold is clamped to what one can.
        let mut wide = HostHashTable::new(usize::MAX);
        for w in 0..HostHashTable::MAX_BUCKET_LEN as u32 {
            wide.insert(5, Location::new(0, w)).unwrap();
        }
        assert_eq!(
            wide.insert(5, Location::new(1, 0)),
            Err(TableError::ValueLimitReached)
        );
        assert_eq!(wide.query(5).len(), HostHashTable::MAX_BUCKET_LEN);
    }

    #[test]
    fn from_packed_takes_buckets_in_any_feature_order_and_refuses_one_over_the_cap() {
        let arena: Vec<Location> = (0..5).map(|w| Location::new(0, w)).collect();
        let over = HostHashTable::from_packed(4, &[(1, 5)], arena.clone());
        assert_eq!(over.err(), Some(TableError::ValueLimitReached));
        let mut t = HostHashTable::from_packed(4, &[(9, 4), (2, 1)], arena.clone()).unwrap();
        assert_eq!(
            (t.query(9), t.query(2)),
            (arena[..4].to_vec(), arena[4..].to_vec())
        );
        assert_eq!(t.insert(9, arena[0]), Err(TableError::ValueLimitReached));
        t.insert(2, arena[0]).unwrap();
        assert_eq!(t.query(2), vec![arena[4], arena[0]]);
    }

    #[test]
    #[should_panic(expected = "named twice")]
    fn from_packed_panics_on_a_repeated_feature() {
        let _ = HostHashTable::from_packed(4, &[(7, 1), (7, 1)], vec![Location::default(); 2]);
    }

    #[test]
    fn fused_parts_equal_the_one_table_that_took_every_insertion() {
        // A cap of 3 and hot features, so the cap drops locations.
        let pairs: Vec<(Feature, Location)> = (0..20_000u32)
            .map(|i| ((i * 7919) % 4_001, Location::new(i / 64, i % 64)))
            .collect();
        let mut whole = HostHashTable::new(3);
        let dropped = pairs
            .iter()
            .filter(|&&(feature, location)| whole.insert(feature, location).is_err())
            .count();
        assert!(dropped > 0, "the cap must bite");
        whole.compact();
        let buckets = |t: &HostHashTable| {
            let mut all = Vec::new();
            t.for_each_bucket(|feature, bucket| {
                all.push((feature, bucket.to_vec()));
                Ok::<(), ()>(())
            })
            .unwrap();
            all
        };
        for count in [1, 2, 3, 7] {
            let mut parts: Vec<HostHashTable> = (0..count).map(|_| HostHashTable::new(3)).collect();
            for &(feature, location) in &pairs {
                parts[feature as usize % count]
                    .insert(feature, location)
                    .ok();
            }
            let extent: usize = parts.iter().map(|part| part.arena.len()).sum();
            let fused = HostHashTable::fuse(parts).unwrap();
            assert_eq!(buckets(&fused), buckets(&whole), "{count} parts");
            // Packed, with the index the insertions grew.
            assert_eq!(fused.bytes(), whole.bytes(), "{count} parts");
            assert!(fused.arena.capacity() >= extent, "{count} parts");
        }
    }

    #[test]
    fn buckets_remain_sorted_for_ascending_insertions() {
        let mut t = HostHashTable::new(254);
        for target in 0..10u32 {
            for window in 0..10u32 {
                t.insert(42, Location::new(target, window)).ok();
                t.insert(target % 3, Location::new(target, window)).ok();
            }
        }
        for compacted in [false, true] {
            t.for_each_bucket(|feature, bucket| {
                assert!(bucket.windows(2).all(|w| w[0] <= w[1]), "{feature}");
                Ok::<(), ()>(())
            })
            .unwrap();
            assert_eq!(t.bytes() == packed_bytes(&t), compacted);
            t.compact();
        }
    }

    #[test]
    fn for_each_bucket_visits_all_keys() {
        let mut t = HostHashTable::new(254);
        for k in (0..50u32).rev() {
            t.insert(k, Location::new(k, 1)).unwrap();
            t.insert(k, Location::new(k, 2)).unwrap();
        }
        let mut seen = Vec::new();
        let mut values = 0;
        t.for_each_bucket(|feature, bucket| {
            seen.push(feature);
            values += bucket.len();
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(seen, (0..50).collect::<Vec<u32>>(), "ascending features");
        assert_eq!(values, 100);
        // The visitor's first error ends the walk and is returned.
        let stopped =
            t.for_each_bucket(|feature, _| if feature < 3 { Ok(()) } else { Err(feature) });
        assert_eq!(stopped, Err(3));
    }

    #[test]
    fn bytes_grow_with_content() {
        let mut t = HostHashTable::new(254);
        let before = t.bytes();
        for k in 0..500u32 {
            for w in 0..5 {
                t.insert(k, Location::new(k, w)).unwrap();
            }
        }
        assert!(t.bytes() > before);
    }

    #[test]
    fn bucket_ref_packing_roundtrip() {
        let max = HostHashTable::MAX_BUCKET_LEN;
        for (offset, len, capacity) in [
            (0, 0, 0),
            (1, 1, 1),
            (123_456_789, 254, 254),
            (7, 3, 8),
            ((1 << OFFSET_BITS) - max, max, max),
        ] {
            let bucket = BucketRef {
                offset,
                len,
                capacity,
            };
            assert_eq!(BucketRef::unpack(bucket.pack()), bucket);
            assert_ne!(bucket.pack(), SingleValueHashTable::VACANT);
        }
    }

    /// What a table with no hole and no room to append occupies.
    fn packed_bytes(t: &HostHashTable) -> usize {
        t.index.bytes() + t.value_count() * std::mem::size_of::<Location>()
    }

    /// The table beside a `BTreeMap<Feature, Vec<Location>>` that is driven
    /// through the same insertions.
    struct Checked {
        table: HostHashTable,
        oracle: BTreeMap<Feature, Vec<Location>>,
        cap: usize,
    }

    impl Checked {
        fn insert(&mut self, feature: Feature, location: Location) {
            let bucket = self.oracle.entry(feature).or_default();
            let expected = if bucket.len() < self.cap {
                bucket.push(location);
                Ok(())
            } else {
                Err(TableError::ValueLimitReached) // dropped
            };
            assert_eq!(self.table.insert(feature, location), expected);
            assert_eq!(&self.table.query(feature), bucket, "feature {feature}");
        }

        /// Every bucket equals the oracle's, in order, through every way of
        /// reading the table.
        fn check(&self) {
            let Self { table, oracle, .. } = self;
            assert_eq!(table.key_count(), oracle.len());
            let values: usize = oracle.values().map(Vec::len).sum();
            assert_eq!(table.value_count(), values);

            let mut visited = Vec::new();
            table
                .for_each_bucket(|feature, bucket| {
                    visited.push((feature, bucket.to_vec()));
                    Ok::<(), ()>(())
                })
                .unwrap();
            let expected: Vec<_> = oracle.iter().map(|(f, b)| (*f, b.clone())).collect();
            assert_eq!(visited, expected, "for_each_bucket: ascending, in order");

            // Present and absent features interleaved, several probe batches.
            let features: Vec<Feature> = oracle
                .keys()
                .flat_map(|&f| [f, f ^ 0x8000_0000])
                .chain(0..2 * SingleValueHashTable::PROBE_BATCH as Feature)
                .collect();
            let mut one_by_one = Vec::new();
            for &feature in &features {
                let before = one_by_one.len();
                let n = table.query_into(feature, &mut one_by_one);
                let bucket = oracle.get(&feature).map_or(&[][..], Vec::as_slice);
                assert_eq!(&one_by_one[before..], bucket, "feature {feature}");
                assert_eq!(n, bucket.len());
            }
            let mut batched = Vec::new();
            assert_eq!(
                table.query_batch_into(&features, &mut batched),
                one_by_one.len()
            );
            assert_eq!(batched, one_by_one);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random interleavings of inserts (a few hot keys, many singletons),
        /// index growth and compaction on a bulk-loaded table: after every step
        /// each bucket equals the oracle's in order — not as a multiset.
        #[test]
        fn every_bucket_equals_the_ordered_oracle(
            seed in any::<u64>(),
            cap in prop_oneof![Just(1usize), Just(4), Just(254)],
            bulk_keys in prop_oneof![0u32..1, 1u32..600, 4_000u32..5_000],
            burst in prop_oneof![Just(40usize), Just(1_500)],
        ) {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            // Ascending locations, so that order is visible in every bucket.
            let mut clock = 0u32;
            let mut tick = move || {
                clock += 1;
                Location::new(clock >> 8, clock & 0xff)
            };

            // A bulk-loaded starting state: whole buckets over one arena.
            let mut oracle = BTreeMap::new();
            let (mut buckets, mut arena) = (Vec::new(), Vec::new());
            for feature in (0..bulk_keys).map(|f| f * 3) {
                let bucket: Vec<Location> = (0..1 + next() as usize % cap).map(|_| tick()).collect();
                buckets.push((feature, bucket.len() as u32));
                arena.extend_from_slice(&bucket);
                oracle.insert(feature, bucket);
            }
            let table = HostHashTable::from_packed(cap, &buckets, arena).unwrap();
            let mut checked = Checked { table, oracle, cap };
            checked.check();
            // A bulk-filled table is laid out like a built and compacted one.
            let mut built = HostHashTable::new(cap);
            for (&feature, bucket) in &checked.oracle {
                for &location in bucket {
                    built.insert(feature, location).unwrap();
                }
            }
            built.compact();
            prop_assert_eq!(checked.table.bytes(), packed_bytes(&checked.table));
            prop_assert_eq!(checked.table.bytes(), built.bytes());

            for step in 0..6 {
                if next() % 3 == 0 {
                    checked.table.compact();
                    prop_assert_eq!(checked.table.bytes(), packed_bytes(&checked.table));
                } else {
                    for _ in 0..burst {
                        let feature = match next() % 10 {
                            0..=2 => (next() % 8) as Feature * 3,       // hot
                            3..=4 => (next() % 600) as Feature * 3,     // the bulk keys
                            _ => next() as Feature | 1 << 20,           // singletons
                        };
                        checked.insert(feature, tick());
                    }
                    prop_assert!(checked.table.bytes() >= packed_bytes(&checked.table), "step {}", step);
                }
                checked.check();
            }
            checked.table.compact();
            prop_assert_eq!(checked.table.bytes(), packed_bytes(&checked.table));
            checked.check();
            prop_assert!(checked.table.key_count() <= max_keys(checked.table.index.capacity()));
        }
    }
}
