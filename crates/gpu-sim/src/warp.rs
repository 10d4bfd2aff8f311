//! The warp model: 32 SIMT lanes with an in-register bitonic sort and the
//! duplicate removal that follows it.
//!
//! The paper's kernels are formulated warp-cooperatively: "We employ groups
//! of 32 threads (so-called warps) to tackle the same problem" (§5.2), k-mers
//! are exchanged with XOR shuffles (§5.3), sketches are sorted with "a
//! bitonic sort implementation … which operates only on registers with the
//! help of warp shuffles" (§5.3), and the final top-hit lists are merged
//! "by using warp shuffles to find the highest scores" (§5.6).
//!
//! A [`Warp`] value represents the per-lane registers of one warp as fixed
//! 32-element arrays. Lane-parallel operations are expressed as whole-warp
//! array transformations — semantically identical to the SIMT original, with
//! the warp's lanes executed sequentially by the simulating CPU thread.

/// Number of lanes per warp (fixed by the CUDA architecture).
pub const WARP_SIZE: usize = 32;

/// Handle of one simulated warp: its id within the launch grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Warp {
    /// Index of this warp within the kernel launch.
    pub warp_id: usize,
}

impl Warp {
    /// Create a warp handle (normally done by
    /// [`crate::launch::launch_warps_into`]).
    pub fn new(warp_id: usize) -> Self {
        Self { warp_id }
    }

    /// In-register bitonic sort of one value per lane (ascending), as used to
    /// order k-mer hashes before sketch selection (§5.3).
    ///
    /// The sequence of compare-exchange stages is exactly the power-of-two
    /// bitonic network a warp executes with XOR shuffles; the comparisons are
    /// applied to the whole register array.
    pub fn bitonic_sort(&self, regs: &mut [u64; WARP_SIZE]) {
        let n = WARP_SIZE;
        let mut k = 2;
        while k <= n {
            let mut j = k / 2;
            while j > 0 {
                for i in 0..n {
                    let partner = i ^ j;
                    if partner > i {
                        let ascending = (i & k) == 0;
                        if (ascending && regs[i] > regs[partner])
                            || (!ascending && regs[i] < regs[partner])
                        {
                            regs.swap(i, partner);
                        }
                    }
                }
                j /= 2;
            }
            k *= 2;
        }
    }

    /// Remove duplicates from sorted per-lane registers, compacting unique
    /// values to the front. Returns the number of unique values; remaining
    /// lanes are filled with `u64::MAX`. This is the duplicate-removal step
    /// that precedes sketch selection (§5.3).
    pub fn dedup_sorted(&self, regs: &mut [u64; WARP_SIZE]) -> usize {
        let mut unique = 0usize;
        for i in 0..WARP_SIZE {
            let v = regs[i];
            if v == u64::MAX {
                break;
            }
            if unique == 0 || regs[unique - 1] != v {
                regs[unique] = v;
                unique += 1;
            }
        }
        for r in regs.iter_mut().skip(unique) {
            *r = u64::MAX;
        }
        unique
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warp() -> Warp {
        Warp::new(0)
    }

    #[test]
    fn bitonic_sort_sorts_any_permutation() {
        let w = warp();
        let mut state = 0xABCDu64;
        for _ in 0..50 {
            let mut regs: [u64; WARP_SIZE] = std::array::from_fn(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state >> 16
            });
            let mut expected = regs;
            expected.sort_unstable();
            w.bitonic_sort(&mut regs);
            assert_eq!(regs, expected);
        }
    }

    #[test]
    fn dedup_sorted_compacts_unique_values() {
        let w = warp();
        let mut regs = [u64::MAX; WARP_SIZE];
        let values = [1u64, 1, 2, 3, 3, 3, 7, 9, 9, 10];
        regs[..values.len()].copy_from_slice(&values);
        let unique = w.dedup_sorted(&mut regs);
        assert_eq!(unique, 6);
        assert_eq!(&regs[..6], &[1, 2, 3, 7, 9, 10]);
        assert!(regs[6..].iter().all(|&v| v == u64::MAX));
    }

    #[test]
    fn dedup_of_empty_registers() {
        let w = warp();
        let mut regs = [u64::MAX; WARP_SIZE];
        assert_eq!(w.dedup_sorted(&mut regs), 0);
    }
}
