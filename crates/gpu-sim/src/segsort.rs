//! The cost model of the segmented key-only sort.
//!
//! Step (6) of the query pipeline "sorts the location list for each read"
//! with "a highly modified key-only version of [Hou et al.]" (§5.5): many
//! independent segments of very different lengths are sorted in one batched
//! operation, with a kernel specialised per segment-size class. Figure 5
//! shows this step dominating the query pipeline (~half the runtime), so the
//! reproduction charges it explicitly from the segment lengths alone:
//!
//! * tiny segments (≤ 32 keys) go to a single warp's in-register bitonic
//!   network,
//! * small segments (≤ 1024 keys) to a padded bitonic sort in shared memory,
//! * large segments to the CUB-style global fallback of the original.
//!
//! Nothing is sorted here: [`SegmentedSortStats`] counts the segments per
//! class and the keys, and its [`cost`][SegmentedSortStats::cost] feeds the
//! Figure 5 breakdown. The host answers the same question without sorting
//! every location (`metacache::candidate::WindowCounter`).

use crate::clock::KernelCost;
use crate::warp::WARP_SIZE;

/// Per-launch statistics of a segmented sort.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentedSortStats {
    /// Number of segments handled by the warp (register bitonic) kernel.
    pub warp_segments: usize,
    /// Number of segments handled by the block (padded bitonic) kernel.
    pub block_segments: usize,
    /// Number of segments handled by the global fallback kernel.
    pub global_segments: usize,
    /// Total number of keys sorted.
    pub total_keys: usize,
}

impl SegmentedSortStats {
    /// Count one segment of `len` keys in its kernel class (an empty one in
    /// none).
    pub fn add_segment(&mut self, len: usize) {
        match len {
            0 => {}
            l if l <= WARP_SIZE => self.warp_segments += 1,
            l if l <= 1024 => self.block_segments += 1,
            _ => self.global_segments += 1,
        }
        self.total_keys += len;
    }

    /// The modelled device cost of this sort: every key is read and written
    /// once per pass and bitonic sorting performs `O(n log^2 n)` compare ops.
    pub fn cost(&self) -> KernelCost {
        let n = self.total_keys as u64;
        let log = (usize::BITS - self.total_keys.leading_zeros()).max(1) as u64;
        KernelCost {
            bytes_read: n * 8,
            bytes_written: n * 8,
            ops: n * log * log,
            launches: 1 + (self.block_segments > 0) as u64 + (self.global_segments > 0) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_of(lengths: &[usize]) -> SegmentedSortStats {
        let mut stats = SegmentedSortStats::default();
        lengths.iter().for_each(|&len| stats.add_segment(len));
        stats
    }

    #[test]
    fn kernel_classes_by_segment_size() {
        let stats = stats_of(&[5, 32, 33, 1024, 1025, 5000]);
        assert_eq!(stats.warp_segments, 2);
        assert_eq!(stats.block_segments, 2);
        assert_eq!(stats.global_segments, 2);
        assert_eq!(stats.total_keys, 5 + 32 + 33 + 1024 + 1025 + 5000);
    }

    #[test]
    fn empty_inputs() {
        // Empty segments count in no class; a sort of nothing still
        // launches once.
        let stats = stats_of(&[0, 0, 0]);
        assert_eq!(stats, SegmentedSortStats::default());
        let cost = stats.cost();
        assert_eq!((cost.bytes_read, cost.ops, cost.launches), (0, 0, 1));
    }

    #[test]
    fn cost_scales_with_key_count() {
        let small = stats_of(&[10; 10]);
        let large = stats_of(&[10_000; 100]);
        assert!(large.cost().bytes_read > small.cost().bytes_read);
        assert!(large.cost().ops > small.cost().ops);
        assert_eq!(large.cost().launches, 2);
    }
}
