//! Segmented key-only sort.
//!
//! Step (6) of the query pipeline "sorts the location list for each read"
//! with "a highly modified key-only version of [Hou et al.]" (§5.5): many
//! independent segments of very different lengths are sorted in one batched
//! operation, with a kernel specialised per segment-size class. Figure 5
//! shows this step dominating the query pipeline (~half the runtime), so the
//! reproduction models it explicitly:
//!
//! * tiny segments (≤ 32 keys) are sorted by a single warp with the
//!   in-register bitonic network,
//! * small segments (≤ 1024 keys) use a padded bitonic sort in "shared
//!   memory" (a stack buffer),
//! * large segments fall back to a comparison sort (the CUB-style global
//!   fallback of the original).
//!
//! Segments are processed in parallel on the rayon pool and the returned
//! [`SegmentedSortStats`] captures the per-class counts plus the modelled
//! cost, which feeds the Figure 5 breakdown.

use rayon::prelude::*;

use crate::clock::KernelCost;
use crate::warp::{Warp, WARP_SIZE};

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

/// Sort each segment of `keys` ascending. `segments` holds the exclusive
/// prefix boundaries: segment `i` spans `segments[i] .. segments[i + 1]`.
/// The final boundary must equal `keys.len()`.
pub fn segmented_sort(keys: &mut [u64], segments: &[usize]) -> SegmentedSortStats {
    if segments.len() < 2 {
        return SegmentedSortStats::default();
    }
    assert!(
        *segments.last().unwrap() == keys.len(),
        "last segment boundary must equal the key count"
    );
    assert!(
        segments.windows(2).all(|w| w[0] <= w[1]),
        "segment boundaries must be non-decreasing"
    );

    let mut stats = SegmentedSortStats {
        total_keys: keys.len(),
        ..Default::default()
    };

    // Split the flat array into per-segment slices.
    let mut slices: Vec<&mut [u64]> = Vec::with_capacity(segments.len() - 1);
    let mut rest = keys;
    let mut consumed = 0usize;
    for window in segments.windows(2) {
        let len = window[1] - window[0];
        // Account for any gap between the previous boundary and this start
        // (boundaries are a prefix cover, so gaps cannot occur, but stay safe).
        let skip = window[0] - consumed;
        let (skipped, tail) = rest.split_at_mut(skip);
        debug_assert!(skipped.is_empty());
        let (seg, tail) = tail.split_at_mut(len);
        slices.push(seg);
        rest = tail;
        consumed = window[1];
    }

    for seg in &slices {
        match seg.len() {
            0 => {}
            l if l <= WARP_SIZE => stats.warp_segments += 1,
            l if l <= 1024 => stats.block_segments += 1,
            _ => stats.global_segments += 1,
        }
    }

    slices.par_iter_mut().for_each(|seg| match seg.len() {
        0 | 1 => {}
        l if l <= WARP_SIZE => warp_sort(seg),
        l if l <= 1024 => padded_bitonic_sort(seg),
        _ => seg.sort_unstable(),
    });

    stats
}

/// Sort a segment of at most [`WARP_SIZE`] keys with the warp's register
/// bitonic network (padding with `u64::MAX`).
fn warp_sort(seg: &mut [u64]) {
    debug_assert!(seg.len() <= WARP_SIZE);
    let warp = Warp::new(0);
    let mut regs = [u64::MAX; WARP_SIZE];
    regs[..seg.len()].copy_from_slice(seg);
    warp.bitonic_sort(&mut regs);
    seg.copy_from_slice(&regs[..seg.len()]);
}

/// Sort a segment of at most 1024 keys with a padded bitonic network — the
/// "shared memory" kernel class.
fn padded_bitonic_sort(seg: &mut [u64]) {
    let n = seg.len().next_power_of_two();
    let mut buf = vec![u64::MAX; n];
    buf[..seg.len()].copy_from_slice(seg);
    let mut k = 2;
    while k <= n {
        let mut j = k / 2;
        while j > 0 {
            for i in 0..n {
                let partner = i ^ j;
                if partner > i {
                    let ascending = (i & k) == 0;
                    if (ascending && buf[i] > buf[partner]) || (!ascending && buf[i] < buf[partner])
                    {
                        buf.swap(i, partner);
                    }
                }
            }
            j /= 2;
        }
        k *= 2;
    }
    seg.copy_from_slice(&buf[..seg.len()]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 11
            })
            .collect()
    }

    #[test]
    fn sorts_every_segment_independently() {
        let mut keys = pseudo_random(100, 3);
        let segments = vec![0usize, 10, 10, 45, 100];
        let reference: Vec<Vec<u64>> = segments
            .windows(2)
            .map(|w| {
                let mut s = keys[w[0]..w[1]].to_vec();
                s.sort_unstable();
                s
            })
            .collect();
        let stats = segmented_sort(&mut keys, &segments);
        for (w, expected) in segments.windows(2).zip(reference) {
            assert_eq!(&keys[w[0]..w[1]], expected.as_slice());
        }
        assert_eq!(stats.total_keys, 100);
        // 10 -> warp class, 0 -> skipped, 35 -> block, 55 -> block
        assert_eq!(stats.warp_segments, 1);
        assert_eq!(stats.block_segments, 2);
        assert_eq!(stats.global_segments, 0);
    }

    #[test]
    fn kernel_classes_by_segment_size() {
        let sizes = [5usize, 32, 33, 1024, 1025, 5000];
        let total: usize = sizes.iter().sum();
        let mut keys = pseudo_random(total, 77);
        let mut segments = vec![0usize];
        for s in sizes {
            segments.push(segments.last().unwrap() + s);
        }
        let stats = segmented_sort(&mut keys, &segments);
        assert_eq!(stats.warp_segments, 2);
        assert_eq!(stats.block_segments, 2);
        assert_eq!(stats.global_segments, 2);
        for w in segments.windows(2) {
            assert!(keys[w[0]..w[1]].windows(2).all(|p| p[0] <= p[1]));
        }
    }

    #[test]
    fn whole_array_as_single_segment_matches_std_sort() {
        let mut keys = pseudo_random(10_000, 11);
        let mut expected = keys.clone();
        expected.sort_unstable();
        segmented_sort(&mut keys, &[0, 10_000]);
        assert_eq!(keys, expected);
    }

    #[test]
    fn empty_inputs() {
        let mut keys: Vec<u64> = Vec::new();
        let stats = segmented_sort(&mut keys, &[0, 0, 0]);
        assert_eq!(stats.total_keys, 0);
        let stats = segmented_sort(&mut keys, &[]);
        assert_eq!(stats, SegmentedSortStats::default());
    }

    #[test]
    #[should_panic(expected = "last segment boundary")]
    fn wrong_final_boundary_panics() {
        let mut keys = vec![3u64, 1, 2];
        segmented_sort(&mut keys, &[0, 2]);
    }

    #[test]
    fn cost_scales_with_key_count() {
        let small = SegmentedSortStats {
            total_keys: 100,
            warp_segments: 10,
            ..Default::default()
        };
        let large = SegmentedSortStats {
            total_keys: 1_000_000,
            block_segments: 100,
            ..Default::default()
        };
        assert!(large.cost().bytes_read > small.cost().bytes_read);
        assert!(large.cost().ops > small.cost().ops);
    }
}
