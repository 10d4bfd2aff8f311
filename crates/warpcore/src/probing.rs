//! Two-stage probing scheme.
//!
//! WarpCore's "cooperative probing scheme uses sub-warp tiles … over a hybrid
//! two-stage probing scheme, where an outer double hashing strategy is used
//! to suppress table clustering effects, while an inner group-parallel linear
//! probing scheme ensures coalesced memory access" (paper §3).
//!
//! This module reproduces that scheme on the host: the table is viewed as a
//! sequence of *probing groups* of `group_size` consecutive slots; the outer
//! double-hashing walk selects group starts and every slot of a group is
//! visited before moving to the next group. On the simulated device the
//! `group_size` corresponds to the cooperative-group width used by the
//! insertion/retrieval kernels.
//!
//! # Cost model
//!
//! A lookup that ends in its first group — at load 0.8 with groups of 8,
//! about five misses in six (a miss overflows only a full group, 0.8^8) and
//! more of the hits — costs one `hash32`, one multiply-high pair (the exact
//! fast-mod of [`ProbeGeometry::first_group`]) and a linear scan. Everything
//! that depends only on the table (`group_size`, group count, its
//! power-of-two mask, the fast-mod magic) is computed once per table in
//! [`ProbeGeometry`]; the double-hashing stride (a 64-bit mix) is computed
//! only when a group overflows; and since `group < capacity / group_size`,
//! `group * group_size + i` is a slot index without any reduction. There is
//! no division on the walk.

use std::ops::Range;

use mc_kmer::hash::{hash32, hash32_alt};
use mc_kmer::Feature;

/// Configuration of the probing scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbingConfig {
    /// Width of the inner linear-probing group (cooperative group size).
    pub group_size: usize,
    /// Maximum number of *groups* visited before giving up.
    pub max_groups: usize,
}

impl Default for ProbingConfig {
    /// WarpCore-style defaults: groups of 8 lanes and a generous probe bound.
    fn default() -> Self {
        Self {
            group_size: 8,
            max_groups: 1024,
        }
    }
}

/// The per-table constants of the probing scheme: everything the walk needs
/// that does not depend on the key. Tables compute it once at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeGeometry {
    /// Slots per group (`config.group_size` clamped to `1..=capacity`).
    group_size: usize,
    /// Number of whole groups the table is divided into (slots beyond
    /// `num_groups * group_size` are never probed).
    num_groups: usize,
    /// The group count rounded up to a power of two, minus one. The
    /// double-hashing walk runs in this domain (where any odd stride has full
    /// period) and simply skips positions that fall beyond `num_groups`,
    /// which guarantees every real group is eventually visited regardless of
    /// the table size.
    group_mask: usize,
    /// Groups visited before giving up; 0 for a table without slots.
    max_groups: usize,
    /// The divisor `d` of the start-group reduction: `min(num_groups, 2^32)`.
    /// `hash32` is below 2^32, so reducing by any larger group count is the
    /// identity — as is reducing by 2^32 itself, which keeps `d` in the
    /// fast-mod's exact range.
    start_divisor: u64,
    /// `⌊(2^64 − 1) / d⌋ + 1`: the magic of the exact 32-bit fast-mod in
    /// [`Self::first_group`] (wraps to 0 for `d = 1`, which is still exact).
    start_magic: u64,
}

impl ProbeGeometry {
    /// The geometry of a table with `capacity` slots probed under `config`.
    pub fn new(capacity: usize, config: ProbingConfig) -> Self {
        let group_size = config.group_size.clamp(1, capacity.max(1));
        let num_groups = (capacity / group_size).max(1);
        let start_divisor = (num_groups as u64).min(1 << 32);
        Self {
            group_size,
            num_groups,
            group_mask: num_groups.next_power_of_two() - 1,
            max_groups: if capacity == 0 {
                0
            } else {
                config.max_groups.max(1)
            },
            start_divisor,
            start_magic: (u64::MAX / start_divisor).wrapping_add(1),
        }
    }

    /// The group width used by walks over this table.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The group where the walk of `key` starts: `hash32(key) % num_groups`,
    /// computed without a division (Lemire, Kaser & Kurz, "Faster remainder
    /// by direct computation", 2019 — exact for every 32-bit numerator and
    /// every divisor up to 2^32).
    #[inline]
    pub fn first_group(&self, key: Feature) -> usize {
        let low_bits = self.start_magic.wrapping_mul(hash32(key) as u64);
        ((low_bits as u128 * self.start_divisor as u128) >> 64) as usize
    }

    /// The groups the walk of `key` visits *after* `first_group` (which must
    /// be [`Self::first_group`] of the same key), as start slots.
    #[inline]
    pub fn later_groups(&self, key: Feature, first_group: usize) -> LaterGroups {
        LaterGroups {
            geometry: *self,
            key,
            group: first_group,
            stride: 0,
            remaining: self.max_groups.saturating_sub(1),
        }
    }

    /// The full slot sequence of `key`.
    #[inline]
    pub fn sequence(&self, key: Feature) -> ProbingSequence {
        let first_group = self.first_group(key);
        let first_slot = first_group * self.group_size;
        // A table without slots has no first group either.
        let first_len = if self.max_groups == 0 {
            0
        } else {
            self.group_size
        };
        ProbingSequence {
            slots: first_slot..first_slot + first_len,
            groups: self.later_groups(key, first_group),
        }
    }
}

/// The outer double-hashing walk: start slots of the groups a key visits
/// after its first one. The stride is computed on the first call, so a
/// lookup that ends in its first group never pays for it.
#[derive(Debug, Clone)]
pub struct LaterGroups {
    geometry: ProbeGeometry,
    key: Feature,
    /// Current group index (always `< num_groups`).
    group: usize,
    /// Double-hashing stride in groups (odd, so it is coprime with the
    /// power-of-two domain size); 0 until the first call computes it.
    stride: usize,
    /// Groups still to yield.
    remaining: usize,
}

impl Iterator for LaterGroups {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.stride == 0 {
            self.stride = (hash32_alt(self.key) as usize & self.geometry.group_mask) | 1;
        }
        // Advance to the next position that lies within the real table.
        loop {
            self.group = (self.group + self.stride) & self.geometry.group_mask;
            if self.group < self.geometry.num_groups {
                return Some(self.group * self.geometry.group_size);
            }
        }
    }
}

/// Iterator over slot indices according to the two-stage scheme.
///
/// Yields at most `group_size * max_groups` indices, all in `0..capacity`.
#[derive(Debug, Clone)]
pub struct ProbingSequence {
    /// Unvisited slots of the current group.
    slots: Range<usize>,
    groups: LaterGroups,
}

impl ProbingSequence {
    /// Start a probing sequence for `key` over a table with `capacity` slots.
    /// This derives the table's [`ProbeGeometry`] (two divisions) on every
    /// call; a table on a hot path keeps the geometry and calls
    /// [`ProbeGeometry::sequence`] instead.
    pub fn new(key: Feature, capacity: usize, config: ProbingConfig) -> Self {
        ProbeGeometry::new(capacity, config).sequence(key)
    }
}

impl Iterator for ProbingSequence {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if let Some(slot) = self.slots.next() {
                return Some(slot);
            }
            let start = self.groups.next()?;
            self.slots = start..start + self.groups.geometry.group_size;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The arithmetic this module used before the division-free walk: two
    /// `%` and a stride mix at construction, `% capacity` per slot. Kept as
    /// the oracle of the slot sequence — saved databases and the `for_each`
    /// order of every table depend on the sequence never changing.
    fn oracle_sequence(key: Feature, capacity: usize, config: ProbingConfig) -> Vec<usize> {
        if capacity == 0 {
            return Vec::new();
        }
        let group_size = config.group_size.clamp(1, capacity.max(1));
        let num_groups = (capacity / group_size).max(1);
        let pow2_groups = num_groups.next_power_of_two();
        let mut group = hash32(key) as usize % num_groups;
        let stride = ((hash32_alt(key) as usize % pow2_groups) | 1).max(1);
        let mut slots = Vec::new();
        for _ in 0..config.max_groups.max(1) {
            for in_group in 0..group_size {
                slots.push((group * group_size + in_group) % capacity);
            }
            loop {
                group = (group + stride) & (pow2_groups - 1);
                if group < num_groups {
                    break;
                }
            }
        }
        slots
    }

    proptest! {
        /// The walk yields the oracle's slot sequence, slot for slot, over
        /// capacities that are and are not multiples of the group size,
        /// smaller than one group, and 1.
        #[test]
        fn walk_matches_the_oracle_sequence(
            key in any::<u32>(),
            capacity_shape in 0usize..5,
            raw in any::<u64>(),
            group_size in prop_oneof![Just(1usize), Just(4), Just(8), Just(32)],
            max_groups in prop_oneof![1usize..=2, 3usize..=39, 1024usize..=1024],
        ) {
            let raw = raw as usize;
            let capacity = match capacity_shape {
                0 => 1,
                1 => 1 + raw % 39,
                2 => 40 + raw % 4_960,
                3 => 1 << (3 + raw % 10),
                _ => 1_000_000 + raw % 49_000_000,
            };
            let config = ProbingConfig { group_size, max_groups };
            // A 1024-group walk is compared on its first 64 groups.
            let expected = oracle_sequence(
                key,
                capacity,
                ProbingConfig { group_size, max_groups: max_groups.min(64) },
            );
            let got: Vec<usize> = ProbingSequence::new(key, capacity, config)
                .take(expected.len() + 1)
                .collect();
            if max_groups <= 64 {
                prop_assert_eq!(&got, &expected);
            } else {
                prop_assert_eq!(&got[..expected.len()], &expected[..]);
            }
        }

        /// The fast-mod start group is `hash32 % num_groups` for every group
        /// count, including those at and beyond 2^32 (where it is the
        /// identity).
        #[cfg(target_pointer_width = "64")]
        #[test]
        fn first_group_is_the_exact_remainder(
            key in any::<u32>(),
            num_groups in prop_oneof![
                1usize..1_000,
                1usize..(1 << 32),
                ((1usize << 32) - 2)..((1usize << 32) + 2),
                (1usize << 32)..(1usize << 40),
            ],
        ) {
            let geometry = ProbeGeometry::new(
                num_groups,
                ProbingConfig { group_size: 1, max_groups: 1 },
            );
            prop_assert_eq!(geometry.first_group(key), hash32(key) as usize % num_groups);
        }
    }

    #[test]
    fn probes_stay_in_bounds() {
        let cfg = ProbingConfig::default();
        for key in [0u32, 1, 42, 0xFFFF_FFFF, 123_456_789] {
            for capacity in [8usize, 64, 100, 1024, 4096] {
                for slot in ProbingSequence::new(key, capacity, cfg).take(500) {
                    assert!(slot < capacity, "slot {slot} out of bounds for {capacity}");
                }
            }
        }
    }

    #[test]
    fn sequence_is_deterministic() {
        let cfg = ProbingConfig::default();
        let a: Vec<usize> = ProbingSequence::new(7, 256, cfg).take(64).collect();
        let b: Vec<usize> = ProbingSequence::new(7, 256, cfg).take(64).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn first_group_is_scanned_linearly() {
        let cfg = ProbingConfig {
            group_size: 8,
            max_groups: 16,
        };
        let probes: Vec<usize> = ProbingSequence::new(99, 1024, cfg).take(8).collect();
        for pair in probes.windows(2) {
            assert_eq!(
                pair[1],
                (pair[0] + 1) % 1024,
                "inner probing must be linear"
            );
        }
    }

    #[test]
    fn covers_whole_power_of_two_table() {
        let capacity = 256;
        let cfg = ProbingConfig {
            group_size: 8,
            max_groups: capacity / 8,
        };
        for key in [3u32, 77, 1_000_003] {
            let visited: HashSet<usize> = ProbingSequence::new(key, capacity, cfg).collect();
            assert_eq!(visited.len(), capacity, "key {key} did not cover the table");
        }
    }

    #[test]
    fn different_keys_start_in_different_groups() {
        let cfg = ProbingConfig::default();
        let starts: HashSet<usize> = (0..64u32)
            .map(|k| ProbingSequence::new(k, 4096, cfg).next().unwrap() / cfg.group_size)
            .collect();
        assert!(starts.len() > 32, "group starts should be spread out");
    }

    #[test]
    fn respects_max_groups_bound() {
        let cfg = ProbingConfig {
            group_size: 4,
            max_groups: 3,
        };
        assert_eq!(ProbingSequence::new(5, 1024, cfg).count(), 12);
    }

    #[test]
    fn tiny_tables_do_not_panic() {
        let cfg = ProbingConfig::default();
        assert_eq!(ProbingSequence::new(5, 0, cfg).count(), 0);
        let probes: Vec<usize> = ProbingSequence::new(5, 3, cfg).take(10).collect();
        assert!(probes.iter().all(|&s| s < 3));
    }
}
