//! WarpCore's Multi Value Hash Table.
//!
//! Every slot holds exactly one key/value pair; a key with `n` values
//! occupies `n` slots along its probing sequence. This is one of the two
//! existing WarpCore layouts the paper compares its multi-bucket variant
//! against (§5.1): it is simple and fast but replicates the key once per
//! value, which costs memory for multi-value keys and lengthens probe chains
//! for very frequent keys.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use mc_kmer::{Feature, Location};

use crate::probing::{ProbingConfig, ProbingSequence};
use crate::stats::TableStats;
use crate::{ConcurrentInsert, FeatureStore, TableError};

/// Sentinel marking an unoccupied slot / unwritten value.
const EMPTY: u64 = u64::MAX;

/// Configuration of a [`MultiValueHashTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiValueConfig {
    /// Number of slots (each slot holds one key/value pair).
    pub capacity_slots: usize,
    /// Maximum number of locations retained per key.
    pub max_locations_per_key: usize,
    /// Probing scheme parameters.
    pub probing: ProbingConfig,
}

impl Default for MultiValueConfig {
    fn default() -> Self {
        Self {
            capacity_slots: 1 << 16,
            max_locations_per_key: 254,
            probing: ProbingConfig::default(),
        }
    }
}

impl MultiValueConfig {
    /// Size a table for an expected number of values at a target load factor.
    pub fn for_expected_values(expected_values: usize, load_factor: f64) -> Self {
        Self {
            capacity_slots: ((expected_values as f64 / load_factor.clamp(0.05, 0.95)).ceil()
                as usize)
                .max(64),
            ..Self::default()
        }
    }
}

/// The multi-value hash table. See the module documentation.
pub struct MultiValueHashTable {
    config: MultiValueConfig,
    keys: Vec<AtomicU64>,
    values: Vec<AtomicU64>,
    slots_used: AtomicUsize,
    distinct_keys: AtomicUsize,
    stored_values: AtomicUsize,
    dropped_values: AtomicUsize,
    failed_inserts: AtomicUsize,
}

impl MultiValueHashTable {
    /// Allocate a table with the given configuration.
    pub fn new(config: MultiValueConfig) -> Self {
        let slots = config.capacity_slots.max(1);
        let config = MultiValueConfig {
            capacity_slots: slots,
            ..config
        };
        Self {
            keys: (0..slots).map(|_| AtomicU64::new(EMPTY)).collect(),
            values: (0..slots).map(|_| AtomicU64::new(EMPTY)).collect(),
            slots_used: AtomicUsize::new(0),
            distinct_keys: AtomicUsize::new(0),
            stored_values: AtomicUsize::new(0),
            dropped_values: AtomicUsize::new(0),
            failed_inserts: AtomicUsize::new(0),
            config,
        }
    }

    /// The table's configuration.
    pub fn config(&self) -> &MultiValueConfig {
        &self.config
    }
}

impl ConcurrentInsert for MultiValueHashTable {
    fn insert(&self, feature: Feature, location: Location) -> Result<(), TableError> {
        let key = feature as u64;
        let mut values_of_key_seen = 0usize;
        let mut seen_key_before = false;
        for slot in ProbingSequence::new(feature, self.config.capacity_slots, self.config.probing) {
            let current = self.keys[slot].load(Ordering::Acquire);
            if current == key {
                seen_key_before = true;
                values_of_key_seen += 1;
                if values_of_key_seen >= self.config.max_locations_per_key {
                    self.dropped_values.fetch_add(1, Ordering::Relaxed);
                    return Err(TableError::ValueLimitReached);
                }
                continue;
            }
            if current == EMPTY {
                match self.keys[slot].compare_exchange(
                    EMPTY,
                    key,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        self.values[slot].store(location.pack(), Ordering::Release);
                        self.slots_used.fetch_add(1, Ordering::Relaxed);
                        self.stored_values.fetch_add(1, Ordering::Relaxed);
                        if !seen_key_before {
                            self.distinct_keys.fetch_add(1, Ordering::Relaxed);
                        }
                        return Ok(());
                    }
                    Err(actual) if actual == key => {
                        seen_key_before = true;
                        values_of_key_seen += 1;
                        continue;
                    }
                    Err(_) => continue,
                }
            }
        }
        self.failed_inserts.fetch_add(1, Ordering::Relaxed);
        Err(TableError::TableFull)
    }
}

impl FeatureStore for MultiValueHashTable {
    fn query_into(&self, feature: Feature, out: &mut Vec<Location>) -> usize {
        let key = feature as u64;
        let mut found = 0usize;
        for slot in ProbingSequence::new(feature, self.config.capacity_slots, self.config.probing) {
            let current = self.keys[slot].load(Ordering::Acquire);
            if current == EMPTY {
                break;
            }
            if current != key {
                continue;
            }
            let raw = self.values[slot].load(Ordering::Acquire);
            if raw == EMPTY {
                continue;
            }
            out.push(Location::unpack(raw));
            found += 1;
            if found >= self.config.max_locations_per_key {
                break;
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
        self.keys.len() * 8 + self.values.len() * 8
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

    #[test]
    fn insert_and_query() {
        let t = MultiValueHashTable::new(MultiValueConfig {
            capacity_slots: 1024,
            ..Default::default()
        });
        for w in 0..5 {
            t.insert(9, Location::new(3, w)).unwrap();
        }
        t.insert(10, Location::new(4, 0)).unwrap();
        let mut hits = t.query(9);
        hits.sort();
        assert_eq!(
            hits,
            (0..5).map(|w| Location::new(3, w)).collect::<Vec<_>>()
        );
        assert_eq!(t.query(10).len(), 1);
        assert_eq!(t.key_count(), 2);
        assert_eq!(t.value_count(), 6);
        // One slot per value in this layout.
        assert_eq!(t.stats().slots_used, 6);
    }

    #[test]
    fn per_key_cap() {
        let t = MultiValueHashTable::new(MultiValueConfig {
            capacity_slots: 1024,
            max_locations_per_key: 3,
            ..Default::default()
        });
        let results: Vec<_> = (0..6).map(|w| t.insert(1, Location::new(0, w))).collect();
        assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 3);
        assert_eq!(t.query(1).len(), 3);
    }

    #[test]
    fn memory_is_16_bytes_per_slot() {
        let t = MultiValueHashTable::new(MultiValueConfig {
            capacity_slots: 1000,
            ..Default::default()
        });
        assert_eq!(t.bytes(), 16_000);
    }

    #[test]
    fn concurrent_inserts_are_not_lost() {
        let t = Arc::new(MultiValueHashTable::new(MultiValueConfig {
            capacity_slots: 1 << 15,
            max_locations_per_key: 1 << 20,
            ..Default::default()
        }));
        let handles: Vec<_> = (0..8u32)
            .map(|tid| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..1500u32 {
                        t.insert(i % 97, Location::new(tid, i)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.value_count(), 8 * 1500);
        let total: usize = (0..97u32).map(|k| t.query(k).len()).sum();
        assert_eq!(total, 8 * 1500);
    }

    #[test]
    fn table_full_when_out_of_slots() {
        let t = MultiValueHashTable::new(MultiValueConfig {
            capacity_slots: 32,
            max_locations_per_key: 1 << 20,
            probing: ProbingConfig {
                group_size: 8,
                max_groups: 4,
            },
        });
        let mut errors = 0;
        for i in 0..100u32 {
            if t.insert(i, Location::new(0, i)).is_err() {
                errors += 1;
            }
        }
        assert!(errors > 0);
        assert!(t.stats().insert_failures > 0);
    }
}
