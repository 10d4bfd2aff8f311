//! Kernel launches: a grid of warps executed in parallel on the host.
//!
//! A CUDA kernel launch maps a grid of thread blocks onto the device; the
//! paper's kernels are warp-centric (one window per warp). [`launch_warps_into`]
//! reproduces this: the caller supplies the number of warps and a closure that
//! receives a [`Warp`] handle plus the warp's slot of one flat output buffer;
//! the warps run on one scoped host thread per core, which models the
//! device's independent warp schedulers (and gives real CPU parallelism for
//! the big experiment runs).

use crate::warp::Warp;

/// Launch `warps` warps that write their per-warp output items into one flat
/// pre-allocated buffer instead of returning owned vectors — the device-style
/// output layout of the paper's kernels, where every warp owns a fixed-stride
/// slot of a global output array.
///
/// `buffer` is resized (never shrunk below the launch's needs, reusing its
/// allocation across launches) to `warps × slots_per_warp` default-initialised
/// slots. Each warp's kernel receives `Warp` plus the exclusive slice
/// `buffer[warp_id × slots_per_warp ..][.. slots_per_warp]` and returns how
/// many slots it filled alongside its per-warp result. The return value is
/// `(filled, result)` per warp in warp order; warp `w`'s output lives in
/// `buffer[w * slots_per_warp .. w * slots_per_warp + filled]`.
pub fn launch_warps_into<T, R, F>(
    warps: usize,
    slots_per_warp: usize,
    buffer: &mut Vec<T>,
    kernel: F,
) -> Vec<(usize, R)>
where
    T: Default + Clone + Send,
    R: Send,
    F: Fn(Warp, &mut [T]) -> (usize, R) + Sync,
{
    let slots = slots_per_warp.max(1);
    buffer.clear();
    buffer.resize(warps * slots, T::default());
    if warps == 0 {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(warps);
    if threads <= 1 {
        return buffer
            .chunks_mut(slots)
            .enumerate()
            .map(|(w, slot)| kernel(Warp::new(w), slot))
            .collect();
    }
    // Partition the flat buffer into contiguous per-thread regions (disjoint
    // borrows), each covering a contiguous range of warp ids.
    let warps_per_thread = warps.div_ceil(threads);
    let mut out = Vec::with_capacity(warps);
    std::thread::scope(|scope| {
        let handles: Vec<_> = buffer
            .chunks_mut(slots * warps_per_thread)
            .enumerate()
            .map(|(chunk_idx, chunk)| {
                let kernel = &kernel;
                scope.spawn(move || {
                    let base = chunk_idx * warps_per_thread;
                    chunk
                        .chunks_mut(slots)
                        .enumerate()
                        .map(|(i, slot)| kernel(Warp::new(base + i), slot))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("warp kernel panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::WARP_SIZE;

    /// The launch as a plain loop over the warps on one thread: the
    /// reference every parallel launch must reproduce.
    fn sequential_launch<T: Default + Clone, R>(
        warps: usize,
        slots: usize,
        kernel: impl Fn(Warp, &mut [T]) -> (usize, R),
    ) -> (Vec<(usize, R)>, Vec<T>) {
        let mut flat = vec![T::default(); warps * slots];
        let spans = flat
            .chunks_mut(slots)
            .enumerate()
            .map(|(w, slot)| kernel(Warp::new(w), slot))
            .collect();
        (spans, flat)
    }

    #[test]
    fn parallel_and_sequential_launches_agree() {
        let lane_sum = |warp: Warp, _: &mut [u64]| {
            let regs: [u64; WARP_SIZE] = std::array::from_fn(|l| (warp.warp_id * 100 + l) as u64);
            (0, regs.iter().sum::<u64>())
        };
        let mut flat = Vec::new();
        let par = launch_warps_into(64, 1, &mut flat, lane_sum);
        assert_eq!(par, sequential_launch(64, 1, lane_sum).0);
        assert_eq!(par.len(), 64);
        assert_eq!(par[0].1, (0..32).sum::<u64>());
    }

    #[test]
    fn empty_launch_returns_nothing() {
        // A buffer that holds an earlier launch's items is emptied too.
        let mut flat = vec![7u32; 12];
        let spans = launch_warps_into(0, 4, &mut flat, |_, _| (0, 1u32));
        assert!(spans.is_empty());
        assert!(flat.is_empty());
    }

    #[test]
    fn results_are_in_warp_order() {
        let mut flat: Vec<u8> = Vec::new();
        let out = launch_warps_into(1000, 1, &mut flat, |w: Warp, _: &mut [u8]| (0, w.warp_id));
        let ids: Vec<usize> = out.into_iter().map(|(_, id)| id).collect();
        assert_eq!(ids, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn flat_buffer_launch_matches_owned_launch() {
        // Each warp writes warp_id copies of its id (capped at the slot
        // count); the flat layout must agree with the sequential loop.
        let slots = 8usize;
        let work = |warp: Warp, out: &mut [u64]| {
            let n = (warp.warp_id % (slots + 1)).min(out.len());
            for s in out.iter_mut().take(n) {
                *s = warp.warp_id as u64;
            }
            (n, warp.warp_id)
        };
        let mut flat = Vec::new();
        let spans = launch_warps_into(100, slots, &mut flat, work);
        let (spans_seq, flat_seq) = sequential_launch(100, slots, work);
        assert_eq!(spans, spans_seq);
        assert_eq!(flat, flat_seq);
        assert_eq!(flat.len(), 100 * slots);
        for (w, &(filled, result)) in spans.iter().enumerate() {
            assert_eq!(result, w);
            assert_eq!(filled, w % (slots + 1));
            assert!(flat[w * slots..w * slots + filled]
                .iter()
                .all(|&v| v == w as u64));
        }
        // The buffer allocation is reused across launches.
        let cap = flat.capacity();
        launch_warps_into(50, slots, &mut flat, work);
        assert_eq!(flat.capacity(), cap);
    }

    #[test]
    fn flat_buffer_empty_launch() {
        let mut flat: Vec<u32> = Vec::new();
        let spans = launch_warps_into(0, 4, &mut flat, |_, _| (0, ()));
        assert!(spans.is_empty());
        assert!(flat.is_empty());
    }
}
