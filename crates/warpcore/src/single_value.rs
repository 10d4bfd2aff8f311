//! WarpCore's Single Value Hash Table.
//!
//! Maps every key to exactly one 64-bit value. It is the index of the host
//! table ([`crate::HostHashTable`], §4.2/§5.1): all location buckets live in
//! one contiguous array and this table maps each feature to its bucket
//! reference, packed into the value.
//!
//! Lookups are the query-phase hot call (one per sketch feature per table,
//! most of them misses once a database is sharded), so [`get`] scans the
//! key's first probing group in place and touches the double-hashing walk
//! only when that group overflows. A lookup waits on two dependent cache
//! misses, the key's first group and then its slot in the separate `values`
//! array, so [`get_batch`] runs three passes over a chunk of keys: hint every
//! key's first group into the cache, walk every key to its slot and hint
//! that slot's value, then read the values. Each pass issues the misses of
//! the whole chunk before the next waits on any of them. Beside the concurrent
//! [`insert`] (`&self`) stands [`entry`], the one-walk update-or-insert of a
//! single inserter (`&mut self`); an inserter that claims many keys in a row
//! hints each chunk's first groups, keys and values, before it walks any.
//!
//! [`get`]: SingleValueHashTable::get
//! [`get_batch`]: SingleValueHashTable::get_batch
//! [`insert`]: SingleValueHashTable::insert
//! [`entry`]: SingleValueHashTable::entry

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use mc_kmer::Feature;

use crate::probing::{ProbeGeometry, ProbingConfig};
use crate::stats::TableStats;
use crate::{prefetch, TableError};

/// Sentinel marking an unoccupied slot.
const EMPTY: u64 = u64::MAX;

/// The single-value hash table. See the module documentation.
pub struct SingleValueHashTable {
    capacity: usize,
    geometry: ProbeGeometry,
    keys: Vec<AtomicU64>,
    values: Vec<AtomicU64>,
    slots_used: AtomicUsize,
    failed_inserts: AtomicUsize,
}

impl SingleValueHashTable {
    /// Keys that [`Self::get_batch`] carries through each pass together, and
    /// so the most cache misses one pass keeps in flight. A sketch (16
    /// features by default) fits one chunk; a chunk's first groups and slots
    /// take 768 bytes of stack.
    pub const PROBE_BATCH: usize = 32;

    /// What [`Self::entry`] hands out for a key it has just claimed; such a
    /// key reads as absent, so no stored value may equal it.
    pub const VACANT: u64 = EMPTY;

    /// Allocate a table with `capacity` slots and default probing.
    pub fn new(capacity: usize) -> Self {
        Self::with_probing(capacity, ProbingConfig::default())
    }

    /// Allocate a table with `capacity` slots and an explicit probing scheme.
    pub fn with_probing(capacity: usize, probing: ProbingConfig) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            geometry: ProbeGeometry::new(capacity, probing),
            keys: (0..capacity).map(|_| AtomicU64::new(EMPTY)).collect(),
            values: (0..capacity).map(|_| AtomicU64::new(EMPTY)).collect(),
            slots_used: AtomicUsize::new(0),
            failed_inserts: AtomicUsize::new(0),
        }
    }

    /// Insert a key/value pair. Inserting an existing key overwrites its value.
    pub fn insert(&self, feature: Feature, value: u64) -> Result<(), TableError> {
        let key = feature as u64;
        for slot in self.geometry.sequence(feature) {
            let current = self.keys[slot].load(Ordering::Acquire);
            if current == key {
                self.values[slot].store(value, Ordering::Release);
                return Ok(());
            }
            if current == EMPTY {
                match self.keys[slot].compare_exchange(
                    EMPTY,
                    key,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        self.values[slot].store(value, Ordering::Release);
                        self.slots_used.fetch_add(1, Ordering::Relaxed);
                        return Ok(());
                    }
                    Err(actual) if actual == key => {
                        self.values[slot].store(value, Ordering::Release);
                        return Ok(());
                    }
                    Err(_) => continue,
                }
            }
        }
        self.failed_inserts.fetch_add(1, Ordering::Relaxed);
        Err(TableError::TableFull)
    }

    /// The value slot of `feature`, found — or, for a new key, claimed — in
    /// one probe walk: `&mut self` proves there is no concurrent writer, so
    /// an update-or-insert needs neither a compare-and-swap nor two walks. A
    /// claimed slot holds [`Self::VACANT`] until the caller stores through it.
    pub fn entry(&mut self, feature: Feature) -> Result<&mut u64, TableError> {
        let key = feature as u64;
        for slot in self.geometry.sequence(feature) {
            let current = self.keys[slot].get_mut();
            if *current == EMPTY {
                *current = key;
                *self.slots_used.get_mut() += 1;
            }
            if *current == key {
                return Ok(self.values[slot].get_mut());
            }
        }
        *self.failed_inserts.get_mut() += 1;
        Err(TableError::TableFull)
    }

    /// Look up a key's value.
    pub fn get(&self, feature: Feature) -> Option<u64> {
        let slot = self.find(feature, self.geometry.first_group(feature))?;
        self.value_at(slot)
    }

    /// Look up every key of `features`, writing `values[i]` for
    /// `features[i]`. Equivalent to [`Self::get`] per key, but run as three
    /// passes over each [`Self::PROBE_BATCH`]-sized chunk, each of which
    /// issues one cache miss per key before the next pass waits on any:
    /// 1. hash every key to its first group and prefetch that group's keys;
    /// 2. walk every key to its slot, as `get` does, and prefetch the slot's
    ///    value;
    /// 3. read the values.
    ///
    /// # Panics
    ///
    /// If `features` and `values` differ in length.
    pub fn get_batch(&self, features: &[Feature], values: &mut [Option<u64>]) {
        assert_eq!(features.len(), values.len(), "one value slot per key");
        let group_size = self.geometry.group_size();
        let batches = features
            .chunks(Self::PROBE_BATCH)
            .zip(values.chunks_mut(Self::PROBE_BATCH));
        for (features, values) in batches {
            let mut groups = [0usize; Self::PROBE_BATCH];
            for (group, &feature) in groups.iter_mut().zip(features) {
                *group = self.geometry.first_group(feature);
                prefetch(self.keys[*group * group_size].as_ptr());
            }
            let mut slots = [None; Self::PROBE_BATCH];
            for ((slot, &feature), &group) in slots.iter_mut().zip(features).zip(&groups) {
                *slot = self.find(feature, group);
                if let Some(slot) = *slot {
                    prefetch(self.values[slot].as_ptr());
                }
            }
            for (value, slot) in values.iter_mut().zip(&slots) {
                *value = slot.and_then(|slot| self.value_at(slot));
            }
        }
    }

    /// Hint every key's first probing group into the cache: the line of its
    /// keys and the line of its values. A single inserter that claims a run
    /// of slots ([`crate::HostHashTable::from_packed`]) runs this over
    /// [`Self::PROBE_BATCH`] keys before it calls [`Self::entry`] on each,
    /// so that the misses of the whole chunk overlap; [`Self::get_batch`]'s
    /// first pass hints only the keys, as a lookup reads a value only once
    /// it has found the key.
    pub(crate) fn prefetch_first_groups(&self, features: impl IntoIterator<Item = Feature>) {
        let group_size = self.geometry.group_size();
        for feature in features {
            let slot = self.geometry.first_group(feature) * group_size;
            prefetch(self.keys[slot].as_ptr());
            prefetch(self.values[slot].as_ptr());
        }
    }

    /// The slot holding `feature`, found by walking its probing sequence
    /// from `first_group`, which must be the key's `first_group`.
    #[inline]
    fn find(&self, feature: Feature, first_group: usize) -> Option<usize> {
        let key = feature as u64;
        let group_size = self.geometry.group_size();
        let mut slot = first_group * group_size;
        let mut group_end = slot + group_size;
        let mut later_groups = self.geometry.later_groups(feature, first_group);
        loop {
            match self.keys[slot].load(Ordering::Acquire) {
                EMPTY => return None,
                current if current == key => return Some(slot),
                _ => {}
            }
            slot += 1;
            if slot == group_end {
                slot = later_groups.next()?;
                group_end = slot + group_size;
            }
        }
    }

    /// The value stored in `slot`, if one has been.
    #[inline]
    fn value_at(&self, slot: usize) -> Option<u64> {
        match self.values[slot].load(Ordering::Acquire) {
            EMPTY => None,
            value => Some(value),
        }
    }

    /// Whether a key is present.
    pub fn contains(&self, feature: Feature) -> bool {
        self.get(feature).is_some()
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.slots_used.load(Ordering::Relaxed)
    }

    /// Whether the table has no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total bytes of backing storage.
    pub fn bytes(&self) -> usize {
        self.capacity * 16
    }

    /// Visit every stored (key, value) pair in slot order.
    pub fn for_each(&self, mut f: impl FnMut(Feature, u64)) {
        for slot in 0..self.capacity {
            let key = self.keys[slot].load(Ordering::Acquire);
            if key == EMPTY {
                continue;
            }
            let value = self.values[slot].load(Ordering::Acquire);
            if value != EMPTY {
                f(key as Feature, value);
            }
        }
    }

    /// Visit every stored (key, value) pair in slot order, with the value
    /// open to change.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(Feature, &mut u64)) {
        for (key, value) in self.keys.iter_mut().zip(&mut self.values) {
            let (key, value) = (*key.get_mut(), value.get_mut());
            if key != EMPTY && *value != EMPTY {
                f(key as Feature, value);
            }
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TableStats {
        TableStats {
            key_count: self.len(),
            value_count: self.len(),
            slot_count: self.capacity,
            slots_used: self.len(),
            bytes: self.bytes(),
            values_dropped: 0,
            insert_failures: self.failed_inserts.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::Arc;

    #[test]
    fn insert_get_contains() {
        let t = SingleValueHashTable::new(1024);
        assert!(t.is_empty());
        t.insert(10, 111).unwrap();
        t.insert(20, 222).unwrap();
        assert_eq!(t.get(10), Some(111));
        assert_eq!(t.get(20), Some(222));
        assert_eq!(t.get(30), None);
        assert!(t.contains(10));
        assert!(!t.contains(30));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn reinsert_overwrites() {
        let t = SingleValueHashTable::new(256);
        t.insert(5, 1).unwrap();
        t.insert(5, 2).unwrap();
        assert_eq!(t.get(5), Some(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn fills_to_high_load_factor() {
        let t = SingleValueHashTable::new(12_500);
        for k in 0..10_000u32 {
            t.insert(k, k as u64 * 3).unwrap();
        }
        for k in (0..10_000u32).step_by(101) {
            assert_eq!(t.get(k), Some(k as u64 * 3));
        }
        assert!(t.stats().load_factor() > 0.7);
    }

    /// Random insert / overwrite / get (present and absent keys) against a
    /// `HashMap`, with the table filled to `load`.
    fn assert_matches_hash_map(load: f64, probing: ProbingConfig, seed: u64) {
        let capacity = 4_096 + (seed as usize % 61); // not a multiple of the group size
        let mut table = SingleValueHashTable::with_probing(capacity, probing);
        let mut oracle: HashMap<Feature, u64> = HashMap::new();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let distinct = (capacity as f64 * load) as usize;
        while oracle.len() < distinct {
            // One insert in four overwrites a key drawn from a small range.
            let key = if next() % 4 == 0 {
                (next() % 512) as Feature
            } else {
                next() as Feature
            };
            let value = next() >> 1; // never the EMPTY sentinel
            if next() % 2 == 0 {
                table.insert(key, value).unwrap();
            } else {
                // The single-inserter path: the old value, or a claimed slot.
                let slot = table.entry(key).unwrap();
                let old = oracle.get(&key).copied();
                assert_eq!(*slot, old.unwrap_or(SingleValueHashTable::VACANT));
                *slot = value;
            }
            oracle.insert(key, value);
        }
        assert_eq!(table.len(), oracle.len());
        let mut probes: Vec<Feature> = oracle.keys().copied().collect();
        probes.sort_unstable();
        probes.extend((0..distinct).map(|_| next() as Feature)); // mostly absent
        let mut batch = vec![None; probes.len()];
        table.get_batch(&probes, &mut batch);
        for (key, batched) in probes.iter().zip(&batch) {
            let expected = oracle.get(key).copied();
            assert_eq!(table.get(*key), expected, "get({key}) at load {load}");
            assert_eq!(*batched, expected, "get_batch({key}) at load {load}");
        }
        let mut visited = 0;
        table.for_each(|key, value| {
            assert_eq!(oracle.get(&key), Some(&value));
            visited += 1;
        });
        assert_eq!(visited, oracle.len());
        table.for_each_mut(|key, value| {
            assert_eq!(oracle.get(&key), Some(&*value));
            *value ^= 1;
        });
        for (key, value) in &oracle {
            assert_eq!(table.get(*key), Some(value ^ 1));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn matches_hash_map_at_high_load(
            seed in any::<u64>(),
            group_size in prop_oneof![Just(1usize), Just(4), Just(8), Just(32)],
        ) {
            let probing = ProbingConfig { group_size, ..Default::default() };
            assert_matches_hash_map(0.8, probing, seed);
            assert_matches_hash_map(0.95, probing, seed);
        }
    }

    #[test]
    fn concurrent_distinct_key_inserts() {
        let t = Arc::new(SingleValueHashTable::new(1 << 15));
        let handles: Vec<_> = (0..8u32)
            .map(|tid| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..1000u32 {
                        let key = tid * 10_000 + i;
                        t.insert(key, key as u64).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 8000);
        for tid in 0..8u32 {
            for i in (0..1000u32).step_by(111) {
                let key = tid * 10_000 + i;
                assert_eq!(t.get(key), Some(key as u64));
            }
        }
    }
}
