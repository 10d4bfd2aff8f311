//! WarpCore's Bucket List Hash Table.
//!
//! Each key maps to a linked list of buckets whose capacities grow
//! geometrically. This is the second existing WarpCore layout the paper
//! compares against (§5.1): it handles very frequent keys gracefully but pays
//! for the pointer indirection and for the slack space of partially filled
//! buckets, which is why the multi-bucket table beats it on memory for
//! typical k-mer distributions.
//!
//! The implementation uses a lock-free open-addressing directory for the
//! keys (same two-stage probing as the other tables) and a lock-striped
//! bucket arena for the value storage.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use mc_kmer::{Feature, Location};

use crate::probing::{ProbingConfig, ProbingSequence};
use crate::stats::TableStats;
use crate::{ConcurrentInsert, FeatureStore, TableError};

/// Sentinel marking an unoccupied directory slot.
const EMPTY: u64 = u64::MAX;
/// Sentinel for "no bucket" links.
const NIL: usize = usize::MAX;

/// Configuration of a [`BucketListHashTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketListConfig {
    /// Number of key directory slots.
    pub capacity_keys: usize,
    /// Capacity of the first bucket allocated for a key.
    pub initial_bucket: usize,
    /// Geometric growth factor applied to each subsequent bucket.
    pub growth_factor: usize,
    /// Maximum number of locations retained per key.
    pub max_locations_per_key: usize,
    /// Probing scheme parameters.
    pub probing: ProbingConfig,
}

impl Default for BucketListConfig {
    fn default() -> Self {
        Self {
            capacity_keys: 1 << 16,
            initial_bucket: 4,
            growth_factor: 2,
            max_locations_per_key: 254,
            probing: ProbingConfig::default(),
        }
    }
}

/// One bucket: a fixed-capacity chunk of values plus a link to the next bucket.
struct Bucket {
    values: Vec<u64>,
    next: usize,
}

/// Per-key entry protected by a stripe lock: head/tail bucket indices and the
/// number of stored values.
#[derive(Clone, Copy)]
struct KeyEntry {
    head: usize,
    tail: usize,
    len: usize,
}

impl Default for KeyEntry {
    fn default() -> Self {
        Self {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }
}

/// The bucket-list hash table. See the module documentation.
pub struct BucketListHashTable {
    config: BucketListConfig,
    /// Directory of keys (open addressing).
    keys: Vec<AtomicU64>,
    /// Per-directory-slot entry data, lock-striped.
    entries: Vec<Mutex<KeyEntry>>,
    /// Bucket arena.
    arena: Mutex<Vec<Bucket>>,
    slots_used: AtomicUsize,
    stored_values: AtomicUsize,
    dropped_values: AtomicUsize,
    failed_inserts: AtomicUsize,
    /// Total value capacity allocated across all buckets (for memory accounting).
    allocated_value_cells: AtomicUsize,
}

impl BucketListHashTable {
    /// Allocate a table with the given configuration.
    pub fn new(config: BucketListConfig) -> Self {
        let slots = config.capacity_keys.max(1);
        let config = BucketListConfig {
            capacity_keys: slots,
            initial_bucket: config.initial_bucket.max(1),
            growth_factor: config.growth_factor.max(1),
            ..config
        };
        Self {
            keys: (0..slots).map(|_| AtomicU64::new(EMPTY)).collect(),
            entries: (0..slots)
                .map(|_| Mutex::new(KeyEntry::default()))
                .collect(),
            arena: Mutex::new(Vec::new()),
            slots_used: AtomicUsize::new(0),
            stored_values: AtomicUsize::new(0),
            dropped_values: AtomicUsize::new(0),
            failed_inserts: AtomicUsize::new(0),
            allocated_value_cells: AtomicUsize::new(0),
            config,
        }
    }

    /// The table's configuration.
    pub fn config(&self) -> &BucketListConfig {
        &self.config
    }

    /// Find (or claim) the directory slot of `feature`.
    fn locate_slot(&self, feature: Feature, claim: bool) -> Option<usize> {
        let key = feature as u64;
        for slot in ProbingSequence::new(feature, self.config.capacity_keys, self.config.probing) {
            let current = self.keys[slot].load(Ordering::Acquire);
            if current == key {
                return Some(slot);
            }
            if current == EMPTY {
                if !claim {
                    return None;
                }
                match self.keys[slot].compare_exchange(
                    EMPTY,
                    key,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        self.slots_used.fetch_add(1, Ordering::Relaxed);
                        return Some(slot);
                    }
                    Err(actual) if actual == key => return Some(slot),
                    Err(_) => continue,
                }
            }
        }
        None
    }

    /// Capacity of the `n`-th bucket in a key's chain.
    fn bucket_capacity(&self, chain_index: usize) -> usize {
        let mut cap = self.config.initial_bucket;
        for _ in 0..chain_index {
            cap = cap.saturating_mul(self.config.growth_factor).min(1 << 20);
        }
        cap
    }
}

impl ConcurrentInsert for BucketListHashTable {
    fn insert(&self, feature: Feature, location: Location) -> Result<(), TableError> {
        let Some(slot) = self.locate_slot(feature, true) else {
            self.failed_inserts.fetch_add(1, Ordering::Relaxed);
            return Err(TableError::TableFull);
        };
        let mut entry = self.entries[slot].lock();
        if entry.len >= self.config.max_locations_per_key {
            self.dropped_values.fetch_add(1, Ordering::Relaxed);
            return Err(TableError::ValueLimitReached);
        }
        let mut arena = self.arena.lock();
        // Ensure there is a tail bucket with free space.
        let needs_new_bucket = if entry.tail == NIL {
            true
        } else {
            let tail = &arena[entry.tail];
            tail.values.len() >= tail.values.capacity()
        };
        if needs_new_bucket {
            // Chain index = number of buckets already in the chain.
            let chain_index = {
                let mut n = 0;
                let mut b = entry.head;
                while b != NIL {
                    n += 1;
                    b = arena[b].next;
                }
                n
            };
            let cap = self.bucket_capacity(chain_index);
            self.allocated_value_cells.fetch_add(cap, Ordering::Relaxed);
            arena.push(Bucket {
                values: Vec::with_capacity(cap),
                next: NIL,
            });
            let new_index = arena.len() - 1;
            if entry.tail == NIL {
                entry.head = new_index;
            } else {
                let old_tail = entry.tail;
                arena[old_tail].next = new_index;
            }
            entry.tail = new_index;
        }
        let tail = entry.tail;
        arena[tail].values.push(location.pack());
        entry.len += 1;
        self.stored_values.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl FeatureStore for BucketListHashTable {
    fn query_into(&self, feature: Feature, out: &mut Vec<Location>) -> usize {
        let Some(slot) = self.locate_slot(feature, false) else {
            return 0;
        };
        let entry = *self.entries[slot].lock();
        let arena = self.arena.lock();
        let mut found = 0usize;
        let mut bucket = entry.head;
        while bucket != NIL && found < self.config.max_locations_per_key {
            for &raw in &arena[bucket].values {
                out.push(Location::unpack(raw));
                found += 1;
                if found >= self.config.max_locations_per_key {
                    break;
                }
            }
            bucket = arena[bucket].next;
        }
        found
    }

    fn key_count(&self) -> usize {
        self.slots_used.load(Ordering::Relaxed)
    }

    fn value_count(&self) -> usize {
        self.stored_values.load(Ordering::Relaxed)
    }

    fn bytes(&self) -> usize {
        // Directory: key (8 bytes) + head/tail/len bookkeeping (24 bytes) per slot,
        // plus the allocated value cells and one next-link per bucket.
        let arena_len = self.arena.lock().len();
        self.config.capacity_keys * (8 + 24)
            + self.allocated_value_cells.load(Ordering::Relaxed) * 8
            + arena_len * 8
    }

    fn stats(&self) -> TableStats {
        TableStats {
            key_count: self.key_count(),
            value_count: self.value_count(),
            slot_count: self.config.capacity_keys,
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

    #[test]
    fn insert_and_query_with_chain_growth() {
        let t = BucketListHashTable::new(BucketListConfig {
            capacity_keys: 256,
            initial_bucket: 2,
            growth_factor: 2,
            ..Default::default()
        });
        for w in 0..20 {
            t.insert(5, Location::new(1, w)).unwrap();
        }
        let mut hits = t.query(5);
        hits.sort();
        assert_eq!(
            hits,
            (0..20).map(|w| Location::new(1, w)).collect::<Vec<_>>()
        );
        assert_eq!(t.key_count(), 1);
        assert_eq!(t.value_count(), 20);
        // Chain buckets: 2 + 4 + 8 + 16 = 30 cells allocated for 20 values.
        assert!(t.bytes() >= 20 * 8);
    }

    #[test]
    fn geometric_growth_capacities() {
        let t = BucketListHashTable::new(BucketListConfig {
            initial_bucket: 4,
            growth_factor: 2,
            ..Default::default()
        });
        assert_eq!(t.bucket_capacity(0), 4);
        assert_eq!(t.bucket_capacity(1), 8);
        assert_eq!(t.bucket_capacity(3), 32);
    }

    #[test]
    fn per_key_cap() {
        let t = BucketListHashTable::new(BucketListConfig {
            capacity_keys: 64,
            max_locations_per_key: 5,
            ..Default::default()
        });
        for w in 0..10 {
            let _ = t.insert(3, Location::new(0, w));
        }
        assert_eq!(t.query(3).len(), 5);
        assert_eq!(t.stats().values_dropped, 5);
    }

    #[test]
    fn missing_key_returns_nothing() {
        let t = BucketListHashTable::new(BucketListConfig::default());
        t.insert(1, Location::new(0, 0)).unwrap();
        assert!(t.query(2).is_empty());
    }

    #[test]
    fn concurrent_inserts_preserved() {
        let t = Arc::new(BucketListHashTable::new(BucketListConfig {
            capacity_keys: 1 << 14,
            max_locations_per_key: 1 << 20,
            ..Default::default()
        }));
        let handles: Vec<_> = (0..6u32)
            .map(|tid| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..1000u32 {
                        t.insert(i % 53, Location::new(tid, i)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.value_count(), 6000);
        let total: usize = (0..53u32).map(|k| t.query(k).len()).sum();
        assert_eq!(total, 6000);
    }
}
