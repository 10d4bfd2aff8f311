//! The Multi Bucket Hash Table — the paper's novel table variant (§5.1, Fig. 3).
//!
//! Each slot maps a key to a *small, fixed number* of values (the slot's
//! bucket). A key may occupy multiple slots, which allows it to be associated
//! with an arbitrary number of values while keeping the layout fully static —
//! no dynamic allocation, no resizing, no pointer chasing. Compared to the
//! multi-value table (one value per slot, key replicated per value) and the
//! bucket-list table (linked buckets), this layout "is a better fit to the
//! various key-value distributions … It consumes less memory than the others,
//! which conversely allows for more data to be stored per GPU."
//!
//! The implementation is an SoA (structure-of-arrays) layout of three flat
//! arrays — keys, fill counters, values — accessed with atomic operations so
//! many threads (the lanes of the simulated warps) can insert concurrently,
//! mirroring the warp-aggregated insertion kernels of the paper.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

use mc_kmer::{Feature, Location};

use crate::probing::{ProbingConfig, ProbingSequence};
use crate::stats::TableStats;
use crate::{ConcurrentInsert, FeatureStore, TableError};

/// Sentinel marking an unoccupied key slot / unwritten value cell.
const EMPTY: u64 = u64::MAX;

/// Configuration of a [`MultiBucketHashTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiBucketConfig {
    /// Number of slots. Each slot stores one key and `bucket_size` values.
    pub capacity_slots: usize,
    /// Number of values per slot (the paper's "small, fixed number").
    pub bucket_size: usize,
    /// Maximum number of locations retained per key (the MetaCache location
    /// cap; 254 by default, matching §4.1).
    pub max_locations_per_key: usize,
    /// Probing scheme parameters.
    pub probing: ProbingConfig,
}

impl Default for MultiBucketConfig {
    fn default() -> Self {
        Self {
            capacity_slots: 1 << 16,
            bucket_size: 4,
            max_locations_per_key: 254,
            probing: ProbingConfig::default(),
        }
    }
}

impl MultiBucketConfig {
    /// Size a table for an expected number of (feature, location) pairs at a
    /// target load factor, keeping all other parameters at their defaults.
    ///
    /// This is the conservative sizing used when the key distribution is
    /// unknown: every value could belong to a distinct key, so one slot per
    /// expected value is reserved. Use [`MultiBucketConfig::for_expected`]
    /// when the number of distinct keys is known (the common case for k-mer
    /// indices, where it allows a much denser layout).
    pub fn for_expected_values(expected_values: usize, load_factor: f64) -> Self {
        Self {
            capacity_slots: ((expected_values as f64 / load_factor.clamp(0.05, 0.95)).ceil()
                as usize)
                .max(64),
            ..Self::default()
        }
    }

    /// Size a table for an expected number of distinct keys and total values:
    /// the slot count must cover both every key's first slot and the spill
    /// slots needed once buckets fill up.
    pub fn for_expected(expected_keys: usize, expected_values: usize, load_factor: f64) -> Self {
        let cfg = Self::default();
        let value_slots = expected_values.div_ceil(cfg.bucket_size);
        let needed = expected_keys.max(value_slots) + value_slots / 2;
        Self {
            capacity_slots: ((needed as f64 / load_factor.clamp(0.05, 0.95)).ceil() as usize)
                .max(64),
            ..cfg
        }
    }
}

/// The multi-bucket hash table. See the module documentation.
pub struct MultiBucketHashTable {
    config: MultiBucketConfig,
    /// Slot keys (EMPTY or the feature widened to u64).
    keys: Vec<AtomicU64>,
    /// Per-slot fill counters (may transiently exceed `bucket_size` under
    /// contention; readers clamp).
    counts: Vec<AtomicU32>,
    /// Slot value cells, `bucket_size` per slot, packed [`Location`]s.
    values: Vec<AtomicU64>,
    /// Number of occupied slots.
    slots_used: AtomicUsize,
    /// Number of distinct keys (exact for serial insertion; may overcount by
    /// a few under concurrent first-insertions of the same new key).
    distinct_keys: AtomicUsize,
    /// Number of successfully stored values.
    stored_values: AtomicUsize,
    /// Number of values dropped due to the per-key cap.
    dropped_values: AtomicUsize,
    /// Number of insertions that failed because probing was exhausted.
    failed_inserts: AtomicUsize,
}

impl MultiBucketHashTable {
    /// Allocate a table with the given configuration.
    pub fn new(config: MultiBucketConfig) -> Self {
        let slots = config.capacity_slots.max(1);
        let bucket = config.bucket_size.max(1);
        let config = MultiBucketConfig {
            capacity_slots: slots,
            bucket_size: bucket,
            ..config
        };
        Self {
            keys: (0..slots).map(|_| AtomicU64::new(EMPTY)).collect(),
            counts: (0..slots).map(|_| AtomicU32::new(0)).collect(),
            values: (0..slots * bucket).map(|_| AtomicU64::new(EMPTY)).collect(),
            slots_used: AtomicUsize::new(0),
            distinct_keys: AtomicUsize::new(0),
            stored_values: AtomicUsize::new(0),
            dropped_values: AtomicUsize::new(0),
            failed_inserts: AtomicUsize::new(0),
            config,
        }
    }

    /// The table's configuration.
    pub fn config(&self) -> &MultiBucketConfig {
        &self.config
    }

    /// Try to append a value to an owned slot, the key's slot after
    /// `full_slots_seen` full ones. The slot takes at most what the key's cap
    /// leaves: `cap − full_slots_seen·bucket_size` values, or its whole
    /// bucket. Returns `Ok(true)` if the value was stored, `Ok(false)` if the
    /// bucket is full and the key may spill into a further slot, and
    /// [`TableError::ValueLimitReached`] (the value dropped) if the cap is
    /// met in this slot.
    fn try_push(
        &self,
        slot: usize,
        full_slots_seen: usize,
        location: Location,
    ) -> Result<bool, TableError> {
        let bucket = self.config.bucket_size;
        let room = bucket.min(
            self.config
                .max_locations_per_key
                .saturating_sub(full_slots_seen * bucket),
        );
        let pos = self.counts[slot].fetch_add(1, Ordering::AcqRel) as usize;
        if pos < room {
            self.values[slot * bucket + pos].store(location.pack(), Ordering::Release);
            self.stored_values.fetch_add(1, Ordering::Relaxed);
            Ok(true)
        } else if room < bucket {
            // Leave the counter past the room; the cells beyond it stay empty
            // and readers skip them.
            self.dropped_values.fetch_add(1, Ordering::Relaxed);
            Err(TableError::ValueLimitReached)
        } else {
            // Leave the counter saturated; readers clamp to `bucket_size`.
            Ok(false)
        }
    }

    /// Whether a key's cap is met by the `full_slots_seen` full slots seen
    /// while probing.
    fn cap_reached(&self, full_slots_seen: usize) -> bool {
        full_slots_seen * self.config.bucket_size >= self.config.max_locations_per_key
    }

    /// Every distinct key the table holds, ascending — with a query per key,
    /// what exports the table (the pack at the end of a GPU build).
    pub fn features(&self) -> BTreeSet<Feature> {
        let keys = self.keys.iter().map(|key| key.load(Ordering::Acquire));
        keys.filter(|&key| key != EMPTY)
            .map(|key| key as Feature)
            .collect()
    }
}

impl ConcurrentInsert for MultiBucketHashTable {
    fn insert(&self, feature: Feature, location: Location) -> Result<(), TableError> {
        let key = feature as u64;
        let mut full_slots_seen = 0usize;
        let mut seen_key_before = false;
        for slot in ProbingSequence::new(feature, self.config.capacity_slots, self.config.probing) {
            let current = self.keys[slot].load(Ordering::Acquire);
            if current == key {
                seen_key_before = true;
                if self.cap_reached(full_slots_seen) {
                    self.dropped_values.fetch_add(1, Ordering::Relaxed);
                    return Err(TableError::ValueLimitReached);
                }
                if self.try_push(slot, full_slots_seen, location)? {
                    return Ok(());
                }
                full_slots_seen += 1;
                continue;
            }
            if current == EMPTY {
                if self.cap_reached(full_slots_seen) {
                    self.dropped_values.fetch_add(1, Ordering::Relaxed);
                    return Err(TableError::ValueLimitReached);
                }
                match self.keys[slot].compare_exchange(
                    EMPTY,
                    key,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        self.slots_used.fetch_add(1, Ordering::Relaxed);
                        if !seen_key_before {
                            self.distinct_keys.fetch_add(1, Ordering::Relaxed);
                            seen_key_before = true;
                        }
                        if self.try_push(slot, full_slots_seen, location)? {
                            return Ok(());
                        }
                        full_slots_seen += 1;
                        continue;
                    }
                    Err(actual) if actual == key => {
                        seen_key_before = true;
                        if self.try_push(slot, full_slots_seen, location)? {
                            return Ok(());
                        }
                        full_slots_seen += 1;
                        continue;
                    }
                    Err(_) => continue,
                }
            }
            // Slot owned by a different key: move on (outer double hashing).
        }
        self.failed_inserts.fetch_add(1, Ordering::Relaxed);
        Err(TableError::TableFull)
    }
}

impl FeatureStore for MultiBucketHashTable {
    fn query_into(&self, feature: Feature, out: &mut Vec<Location>) -> usize {
        let key = feature as u64;
        let bucket = self.config.bucket_size;
        let limit = self.config.max_locations_per_key;
        let mut found = 0usize;
        for slot in ProbingSequence::new(feature, self.config.capacity_slots, self.config.probing) {
            let current = self.keys[slot].load(Ordering::Acquire);
            if current == EMPTY {
                break;
            }
            if current != key {
                continue;
            }
            let count = (self.counts[slot].load(Ordering::Acquire) as usize).min(bucket);
            for i in 0..count {
                let raw = self.values[slot * bucket + i].load(Ordering::Acquire);
                if raw == EMPTY {
                    // A concurrent writer claimed the cell but has not stored
                    // the value yet; skip it.
                    continue;
                }
                out.push(Location::unpack(raw));
                found += 1;
                if found >= limit {
                    return found;
                }
            }
        }
        found
    }

    fn key_count(&self) -> usize {
        self.distinct_keys.load(Ordering::Relaxed)
    }

    fn value_count(&self) -> usize {
        self.stored_values.load(Ordering::Relaxed)
    }

    fn bytes(&self) -> usize {
        self.keys.len() * 8 + self.counts.len() * 4 + self.values.len() * 8
    }

    fn stats(&self) -> TableStats {
        TableStats {
            key_count: self.key_count(),
            value_count: self.value_count(),
            slot_count: self.config.capacity_slots,
            slots_used: self.slots_used.load(Ordering::Relaxed),
            bytes: self.bytes(),
            values_dropped: self.dropped_values.load(Ordering::Relaxed),
            insert_failures: self.failed_inserts.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn small() -> MultiBucketHashTable {
        MultiBucketHashTable::new(MultiBucketConfig {
            capacity_slots: 1024,
            bucket_size: 4,
            max_locations_per_key: 254,
            probing: ProbingConfig::default(),
        })
    }

    #[test]
    fn insert_and_query_single_key() {
        let t = small();
        t.insert(7, Location::new(1, 2)).unwrap();
        assert_eq!(t.query(7), vec![Location::new(1, 2)]);
        assert!(t.query(8).is_empty());
        assert_eq!(t.key_count(), 1);
        assert_eq!(t.value_count(), 1);
    }

    #[test]
    fn key_spills_across_multiple_slots() {
        let t = small();
        // 4 values per slot -> 10 values need 3 slots.
        for w in 0..10 {
            t.insert(42, Location::new(5, w)).unwrap();
        }
        let mut hits = t.query(42);
        hits.sort();
        assert_eq!(hits.len(), 10);
        assert_eq!(
            hits,
            (0..10).map(|w| Location::new(5, w)).collect::<Vec<_>>()
        );
        let stats = t.stats();
        assert_eq!(stats.key_count, 1);
        assert_eq!(stats.value_count, 10);
        assert_eq!(stats.slots_used, 3);
    }

    #[test]
    fn per_key_cap_drops_excess_values() {
        let t = MultiBucketHashTable::new(MultiBucketConfig {
            capacity_slots: 1024,
            bucket_size: 4,
            max_locations_per_key: 8,
            probing: ProbingConfig::default(),
        });
        let mut dropped = 0;
        for w in 0..20 {
            if t.insert(1, Location::new(0, w)) == Err(TableError::ValueLimitReached) {
                dropped += 1;
            }
        }
        assert_eq!(t.query(1).len(), 8);
        assert_eq!(dropped, 12);
        assert_eq!(t.stats().values_dropped, 12);
    }

    /// The cap holds to the value, not to the slot: a key's last slot takes
    /// only what the cap leaves of it, so the inserts that succeed, the
    /// stored-value count and what queries return are one number.
    #[test]
    fn per_key_cap_is_exact_within_a_slot() {
        for cap in [1, 3, 4, 5, 254] {
            let t = MultiBucketHashTable::new(MultiBucketConfig {
                capacity_slots: 1024,
                bucket_size: 4,
                max_locations_per_key: cap,
                probing: ProbingConfig::default(),
            });
            let mut stored = 0;
            let mut dropped = 0;
            for key in 0..6u32 {
                for w in 0..60 * key + 1 {
                    match t.insert(key, Location::new(key, w)) {
                        Ok(()) => stored += 1,
                        Err(TableError::ValueLimitReached) => dropped += 1,
                        Err(e) => panic!("cap {cap}: {e}"),
                    }
                }
            }
            let queried: usize = (0..6).map(|key| t.query(key).len()).sum();
            let expected: usize = (0..6).map(|key| cap.min(60 * key + 1)).sum();
            assert_eq!(
                (stored, t.value_count(), queried),
                (expected, expected, expected),
                "cap {cap}"
            );
            assert_eq!(t.stats().values_dropped, dropped, "cap {cap}");
        }
    }

    #[test]
    fn many_distinct_keys() {
        let t = MultiBucketHashTable::new(MultiBucketConfig {
            capacity_slots: 8192,
            bucket_size: 2,
            ..Default::default()
        });
        for k in 0..4000u32 {
            t.insert(k, Location::new(k, 0)).unwrap();
        }
        assert_eq!(t.key_count(), 4000);
        assert_eq!(t.value_count(), 4000);
        for k in (0..4000u32).step_by(97) {
            assert_eq!(t.query(k), vec![Location::new(k, 0)]);
        }
    }

    #[test]
    fn table_full_reported_when_probing_exhausted() {
        let t = MultiBucketHashTable::new(MultiBucketConfig {
            capacity_slots: 16,
            bucket_size: 1,
            max_locations_per_key: 1000,
            probing: ProbingConfig {
                group_size: 4,
                max_groups: 4,
            },
        });
        let mut full_seen = false;
        for k in 0..64u32 {
            if t.insert(k, Location::new(k, 0)) == Err(TableError::TableFull) {
                full_seen = true;
            }
        }
        assert!(full_seen);
        assert!(t.stats().insert_failures > 0);
    }

    #[test]
    fn concurrent_insertion_preserves_all_values() {
        let t = Arc::new(MultiBucketHashTable::new(MultiBucketConfig {
            capacity_slots: 1 << 15,
            bucket_size: 4,
            max_locations_per_key: 100_000,
            ..Default::default()
        }));
        let threads = 8;
        let per_thread = 2_000u32;
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        // 64 hot keys shared by all threads plus unique cold keys.
                        let key = if i % 2 == 0 {
                            i % 64
                        } else {
                            (tid + 1) * 100_000 + i
                        };
                        t.insert(key, Location::new(tid, i)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.value_count() as u32, threads * per_thread);
        // Every hot key must return one hit per (thread, even i) pair.
        let mut hot_total = 0;
        for key in 0..64u32 {
            hot_total += t.query(key).len();
        }
        assert_eq!(hot_total as u32, threads * per_thread / 2);
    }

    #[test]
    fn memory_accounting_matches_layout() {
        let cfg = MultiBucketConfig {
            capacity_slots: 100,
            bucket_size: 3,
            ..Default::default()
        };
        let t = MultiBucketHashTable::new(cfg);
        assert_eq!(t.bytes(), 100 * 8 + 100 * 4 + 300 * 8);
    }

    #[test]
    fn sizing_helpers_provide_enough_slots() {
        // Conservative sizing: one slot per expected value.
        let cfg = MultiBucketConfig::for_expected_values(1_000_000, 0.8);
        assert!(cfg.capacity_slots as f64 >= 1_000_000.0 / 0.85);
        assert!(cfg.capacity_slots as f64 <= 1_000_000.0 / 0.7);
        // Key-aware sizing: far fewer slots when values share keys.
        let dense = MultiBucketConfig::for_expected(100_000, 1_000_000, 0.8);
        assert!(dense.capacity_slots < cfg.capacity_slots);
        assert!(dense.capacity_slots * dense.bucket_size >= 1_000_000);
    }

    #[test]
    fn key_aware_sizing_accepts_singleton_heavy_distribution() {
        // 10k distinct keys, one value each: the table must still hold them.
        let cfg = MultiBucketConfig::for_expected(10_000, 10_000, 0.8);
        let t = MultiBucketHashTable::new(cfg);
        for k in 0..10_000u32 {
            t.insert(k, Location::new(k, 0)).unwrap();
        }
        assert_eq!(t.value_count(), 10_000);
    }
}
