//! The GPU pipeline (paper §5) on the simulated device substrate.
//!
//! This module contains the warp-level kernels and the batched multi-device
//! query pipeline:
//!
//! * [`warp_sketch_window`] — steps (1)–(3) of the pipeline of §5.2/§5.3: a
//!   warp encodes a window, generates and hashes its canonical k-mers (four
//!   k-mer start positions per lane), sorts the hashes with the in-register
//!   bitonic network, removes duplicates and keeps the `s` smallest as the
//!   minhash sketch. The result is bit-identical to the host
//!   [`crate::sketch::Sketcher`] (asserted by tests).
//! * [`GpuClassifier`] — steps (4)–(8): hash-table lookup, location list
//!   compaction, segmented sort, window-count accumulation and warp-level
//!   top-candidate generation, followed by the cross-device top-hit merge of
//!   Figure 2. Per-stage simulated times are recorded in a
//!   [`StageBreakdown`], which is what Figure 5 of the paper plots.
//!
//! The classifications produced by the GPU pipeline are identical to the host
//! query path when run against the same database; only the execution / cost
//! model differs.

use std::ops::Deref;
use std::sync::Arc;

use parking_lot::Mutex;

use mc_gpu_sim::{
    launch_warps_into, segmented_sort, KernelCost, LaunchConfig, MultiGpuSystem, SimDuration,
    Stream, Warp, WARP_SIZE,
};
use mc_kmer::{hash64, Feature, KmerParams, Location};
use mc_seqio::SequenceRecord;

use crate::candidate::{accumulate_locations_into, top_candidates_into, CandidateList};
use crate::classify::{classify_candidates, Classification};
use crate::database::Database;
use crate::sketch::Sketcher;

/// Reusable scratch buffers of the warp sketching kernel — the "device
/// buffers" of §5.3. One scratch per simulated warp scheduler (in practice:
/// per worker thread, see [`with_warp_scratch`]) removes all steady-state
/// heap allocation from warp sketching, mirroring the host
/// [`crate::sketch::SketchScratch`].
#[derive(Debug, Clone, Default)]
pub struct WarpSketchScratch {
    /// Hash of the canonical k-mer at each window position (`u64::MAX` for
    /// positions whose k-mer overlaps an ambiguous base).
    hashes_by_pos: Vec<u64>,
    /// Pool of per-round sorted, deduplicated register contents.
    pool: Vec<u64>,
}

impl WarpSketchScratch {
    /// Create an empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    static WARP_SCRATCH: std::cell::RefCell<WarpSketchScratch> =
        std::cell::RefCell::new(WarpSketchScratch::new());
    /// Flat per-launch feature buffer of the query pipeline's sketch stage,
    /// reused across the batches a thread classifies (serving workers
    /// classify many batches per thread; per-call allocation would undo the
    /// launch buffer's cross-launch reuse).
    static QUERY_FEATURE_BUF: std::cell::RefCell<Vec<Feature>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Run `f` with this thread's reusable [`WarpSketchScratch`] — per-warp
/// scratch reuse inside `launch_warps` closures, which execute on a thread
/// pool and therefore cannot share one mutable scratch.
pub fn with_warp_scratch<R>(f: impl FnOnce(&mut WarpSketchScratch) -> R) -> R {
    WARP_SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

/// Sketch one window with this thread's reusable warp scratch into a slot of
/// a flat pre-allocated feature buffer (the per-launch output array handed
/// out by [`mc_gpu_sim::launch_warps_into`]), returning how many slots were
/// filled plus the kernel cost. Used by both the query pipeline and the GPU
/// builder so the scratch protocol lives in one place; windows no longer
/// allocate an owned `Vec<Feature>` each.
pub fn warp_sketch_to_slot(
    warp: &Warp,
    window: &[u8],
    kmer: KmerParams,
    sketch_size: usize,
    slot: &mut [Feature],
) -> (usize, KernelCost) {
    with_warp_scratch(|scratch| {
        warp_sketch_window_to_slice(warp, window, kmer, sketch_size, scratch, slot)
    })
}

/// Sketch one window with a warp into a caller-owned feature buffer,
/// returning the modelled kernel cost. Appends the sketch's features to
/// `out`; reuses `scratch`, so steady-state execution is allocation-free
/// (apart from `out` growth up to the sketch size).
///
/// Lane `i` is responsible for the k-mers starting at positions
/// `4·i … 4·i + 3` of the window (§5.3); each round sorts one hash per lane
/// with the warp's register bitonic network, then the per-round minima are
/// combined, deduplicated and truncated to the sketch size. The result is
/// bit-identical to the host [`crate::sketch::Sketcher`] (asserted by tests
/// in this module and in `tests/property_tests.rs`).
pub fn warp_sketch_window_into(
    warp: &Warp,
    window: &[u8],
    kmer: KmerParams,
    sketch_size: usize,
    scratch: &mut WarpSketchScratch,
    out: &mut Vec<Feature>,
) -> KernelCost {
    let cost = warp_sketch_window_core(warp, window, kmer, sketch_size, scratch);
    out.extend(scratch.pool.iter().map(|&h| (h >> 32) as Feature));
    cost
}

/// Sketch one window with a warp into a caller-owned feature *slice* (a slot
/// of a flat per-launch buffer), returning how many features were written and
/// the modelled kernel cost. The slice must hold at least `sketch_size`
/// slots. Bit-identical to [`warp_sketch_window_into`].
pub fn warp_sketch_window_to_slice(
    warp: &Warp,
    window: &[u8],
    kmer: KmerParams,
    sketch_size: usize,
    scratch: &mut WarpSketchScratch,
    out: &mut [Feature],
) -> (usize, KernelCost) {
    let cost = warp_sketch_window_core(warp, window, kmer, sketch_size, scratch);
    for (slot, &h) in out.iter_mut().zip(scratch.pool.iter()) {
        *slot = (h >> 32) as Feature;
    }
    (scratch.pool.len(), cost)
}

/// The shared kernel body: leaves the sketch's hashes (sorted, deduplicated,
/// truncated to `sketch_size`) in `scratch.pool` and returns the modelled
/// cost; the public wrappers only differ in how they copy the features out.
fn warp_sketch_window_core(
    warp: &Warp,
    window: &[u8],
    kmer: KmerParams,
    sketch_size: usize,
    scratch: &mut WarpSketchScratch,
) -> KernelCost {
    let k = kmer.k() as usize;
    let positions = window.len().saturating_sub(k.saturating_sub(1));
    // Hash all canonical k-mers once (the lanes' work), keyed by position.
    scratch.hashes_by_pos.clear();
    scratch.hashes_by_pos.resize(positions, u64::MAX);
    {
        let hashes_by_pos = &mut scratch.hashes_by_pos;
        mc_kmer::for_each_canonical_kmer(window, kmer, |offset, packed| {
            if offset < positions {
                hashes_by_pos[offset] = hash64(packed);
            }
        });
    }
    // Rounds of warp-register sorting: each round takes one hash per lane
    // (4 rounds cover 4 positions per lane for the default 127-base window).
    let rounds = positions.div_ceil(WARP_SIZE).max(1);
    scratch.pool.clear();
    for round in 0..rounds {
        let mut regs = [u64::MAX; WARP_SIZE];
        for (lane, reg) in regs.iter_mut().enumerate() {
            let pos = round * WARP_SIZE + lane;
            if pos < positions {
                *reg = scratch.hashes_by_pos[pos];
            }
        }
        warp.bitonic_sort(&mut regs);
        let unique = warp.dedup_sorted(&mut regs);
        scratch.pool.extend_from_slice(&regs[..unique]);
    }
    // Merge the per-round sorted runs, dedup, keep the s smallest.
    scratch.pool.sort_unstable();
    scratch.pool.dedup();
    scratch.pool.truncate(sketch_size);
    let emitted = scratch.pool.len();

    let sort_ops = (rounds * WARP_SIZE * 25) as u64; // 32·log²32 compare-exchanges per round
    KernelCost {
        bytes_read: window.len() as u64,
        bytes_written: (emitted * 4) as u64,
        ops: positions as u64 + sort_ops,
        launches: 0,
    }
}

/// Sketch one window with a warp, returning the sketch features and the
/// modelled kernel cost. Convenience form of [`warp_sketch_window_into`]
/// that allocates its own scratch and output.
pub fn warp_sketch_window(
    warp: &Warp,
    window: &[u8],
    kmer: KmerParams,
    sketch_size: usize,
) -> (Vec<Feature>, KernelCost) {
    let mut scratch = WarpSketchScratch::new();
    let mut features = Vec::with_capacity(sketch_size);
    let cost =
        warp_sketch_window_into(warp, window, kmer, sketch_size, &mut scratch, &mut features);
    (features, cost)
}

/// Simulated time spent in each stage of the GPU query pipeline — the
/// quantities Figure 5 of the paper breaks down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Host → device transfer of the read windows.
    pub transfer: SimDuration,
    /// Sketch generation + hash-table query (steps 1–4).
    pub sketch_query: SimDuration,
    /// Location-list compaction (step 5).
    pub compact: SimDuration,
    /// Segmented sort of the location lists (step 6).
    pub sort: SimDuration,
    /// Window-count accumulation, sliding-window scan, top-hit merge
    /// (steps 7–8 plus the cross-device merge).
    pub top_candidates: SimDuration,
}

impl StageBreakdown {
    /// Total simulated time across all stages.
    pub fn total(&self) -> SimDuration {
        self.transfer + self.sketch_query + self.compact + self.sort + self.top_candidates
    }

    /// Per-stage shares of the total, in the order
    /// (transfer, sketch+query, compact, sort, top-candidates).
    pub fn shares(&self) -> [f64; 5] {
        let total = self.total().as_nanos().max(1) as f64;
        [
            self.transfer.as_nanos() as f64 / total,
            self.sketch_query.as_nanos() as f64 / total,
            self.compact.as_nanos() as f64 / total,
            self.sort.as_nanos() as f64 / total,
            self.top_candidates.as_nanos() as f64 / total,
        ]
    }

    /// Add another breakdown (accumulating over batches).
    pub fn accumulate(&mut self, other: &StageBreakdown) {
        self.transfer = self.transfer + other.transfer;
        self.sketch_query = self.sketch_query + other.sketch_query;
        self.compact = self.compact + other.compact;
        self.sort = self.sort + other.sort;
        self.top_candidates = self.top_candidates + other.top_candidates;
    }
}

/// The batched multi-device query pipeline.
///
/// Like [`crate::query::Classifier`], the classifier is generic over how it
/// holds the database and the device system: borrow both for one-shot use
/// (`GpuClassifier::new(&db, &system)`) or hand it `Arc`s (the default type
/// parameters) so a long-lived serving backend can co-own them.
pub struct GpuClassifier<D = Arc<Database>, S = Arc<MultiGpuSystem>>
where
    D: Deref<Target = Database>,
    S: Deref<Target = MultiGpuSystem>,
{
    db: D,
    system: S,
    sketcher: Sketcher,
    breakdown: Mutex<StageBreakdown>,
}

impl<D, S> GpuClassifier<D, S>
where
    D: Deref<Target = Database>,
    S: Deref<Target = MultiGpuSystem>,
{
    /// Create a GPU classifier for a database whose partitions are resident
    /// on the devices of `system` (partition `i` on device `i % devices`).
    pub fn new(db: D, system: S) -> Self {
        let sketcher = Sketcher::new(&db.config).expect("validated config");
        Self {
            db,
            system,
            sketcher,
            breakdown: Mutex::new(StageBreakdown::default()),
        }
    }

    /// The database this classifier queries.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The simulated device system batches are issued to.
    pub fn system(&self) -> &MultiGpuSystem {
        &self.system
    }

    /// The accumulated per-stage breakdown over all batches classified so far.
    pub fn breakdown(&self) -> StageBreakdown {
        *self.breakdown.lock()
    }

    /// Reset the accumulated breakdown.
    pub fn reset_breakdown(&self) {
        *self.breakdown.lock() = StageBreakdown::default();
    }

    /// Classify a batch of reads, returning one classification per read and
    /// the simulated per-stage times of this batch. Issues on device 0; use
    /// [`GpuClassifier::classify_batch_on`] to rotate the issue device
    /// (copy/compute overlap across concurrent batches).
    pub fn classify_batch(
        &self,
        records: &[SequenceRecord],
    ) -> (Vec<Classification>, StageBreakdown) {
        self.classify_batch_on(records, 0)
    }

    /// Classify a batch of reads with the transfer + sketching stage issued
    /// on `issue_device`: the host-side final step over
    /// [`GpuClassifier::candidates_batch_on`]'s merged lists.
    pub fn classify_batch_on(
        &self,
        records: &[SequenceRecord],
        issue_device: usize,
    ) -> (Vec<Classification>, StageBreakdown) {
        let (lists, breakdown) = self.candidates_batch_on(records, issue_device);
        let classifications = lists
            .iter()
            .map(|cands| classify_candidates(&self.db, &self.db.config, cands))
            .collect();
        (classifications, breakdown)
    }

    /// Run the device pipeline for a batch of reads — transfer + sketching
    /// issued on `issue_device` (wrapped modulo the device count), the
    /// top-hit merge ring starting there — and return each read's merged
    /// top-candidate list. The lists are independent of the issue device —
    /// only the simulated stream occupancy differs — so concurrent callers
    /// (the serving engine's GPU backend) can round-robin batches across
    /// devices to model the paper's per-GPU copy/compute overlap.
    pub fn candidates_batch_on(
        &self,
        records: &[SequenceRecord],
        issue_device: usize,
    ) -> (Vec<CandidateList>, StageBreakdown) {
        let mut batch_breakdown = StageBreakdown::default();
        if records.is_empty() {
            return (Vec::new(), batch_breakdown);
        }
        let devices = self.system.device_count().max(1);
        let issue = issue_device % devices;
        let streams: Vec<Stream> = self.system.streams();
        let first = &streams[issue];

        // --- Stage: host -> device transfer of the read windows (device 0). ---
        let batch_bytes: u64 = records.iter().map(|r| r.total_len() as u64).sum();
        let t0 = first.position();
        first.transfer(batch_bytes);
        batch_breakdown.transfer = diff(first.position(), t0);

        // --- Stage: sketching (device 0) + broadcast of sketches + per-device
        //     hash-table queries. ---
        let kmer = self.sketcher.window_params().kmer();
        let sketch_size = self.sketcher.sketch_size();
        let window_len = self.sketcher.window_params().window_len() as usize;

        // Collect every window of every read (both mates) with its read index.
        let mut read_windows: Vec<(usize, Vec<u8>)> = Vec::new();
        for (read_idx, record) in records.iter().enumerate() {
            for seq in
                std::iter::once(&record.sequence).chain(record.mate.as_ref().map(|m| &m.sequence))
            {
                if seq.len() < kmer.k() as usize {
                    continue;
                }
                if seq.len() <= window_len {
                    read_windows.push((read_idx, seq.clone()));
                } else {
                    let params = self.sketcher.window_params();
                    for w in 0..mc_kmer::window::num_windows(seq.len(), params) {
                        let (start, end) = mc_kmer::window::window_range(w, seq.len(), params);
                        read_windows.push((read_idx, seq[start..end].to_vec()));
                    }
                }
            }
        }

        // Launch one warp per window for sketch generation; each worker
        // thread reuses its warp scratch across the windows it executes, and
        // every warp writes its features into a fixed-stride slot of one flat
        // per-launch buffer (no owned Vec per window). The buffer itself is
        // thread-local so repeated batches on one serving worker reuse its
        // allocation.
        let mut feature_buf: Vec<Feature> =
            QUERY_FEATURE_BUF.with(|b| std::mem::take(&mut *b.borrow_mut()));
        let sketch_spans: Vec<(usize, (usize, KernelCost))> = launch_warps_into(
            LaunchConfig::new(read_windows.len()),
            sketch_size,
            &mut feature_buf,
            |warp: Warp, slot: &mut [Feature]| {
                let (read_idx, window) = &read_windows[warp.warp_id];
                let (filled, cost) = warp_sketch_to_slot(&warp, window, kmer, sketch_size, slot);
                (filled, (*read_idx, cost))
            },
        );
        // Flat (offset, len, read_idx) view of each warp's slot.
        let window_sketch = |w: usize| -> &[Feature] {
            let (filled, _) = sketch_spans[w];
            &feature_buf[w * sketch_size..w * sketch_size + filled]
        };
        let mut sketch_cost = KernelCost {
            launches: 1,
            ..Default::default()
        };
        for (_, (_, c)) in &sketch_spans {
            // Per-warp costs carry no launch overhead of their own; the whole
            // sketching stage counts as a single kernel launch.
            sketch_cost = sketch_cost.merge(*c);
        }
        let t1 = first.position();
        first.launch_kernel(sketch_cost);

        // Broadcast sketches to the other devices along the ring starting at
        // the issue device (ring forwarding, Figure 2).
        let sketch_bytes: u64 = sketch_spans.iter().map(|(f, _)| (*f * 4) as u64).sum();
        for i in 1..devices {
            let src = (issue + i - 1) % devices;
            let dst = (issue + i) % devices;
            self.system.peer_copy(src, dst, sketch_bytes);
        }

        // Per-device hash-table queries: partition p is resident on device
        // p % devices. Collect per-read locations per partition.
        let mut per_read_candidates: Vec<CandidateList> = (0..records.len())
            .map(|_| CandidateList::new(self.db.config.top_candidates))
            .collect();
        let mut query_cost_per_device: Vec<KernelCost> = vec![
            KernelCost {
                launches: 1,
                ..Default::default()
            };
            devices
        ];
        let mut total_locations_per_device: Vec<Vec<(usize, Location)>> = vec![Vec::new(); devices];
        let mut scratch = Vec::new();
        for (p, partition) in self.db.partitions.iter().enumerate() {
            let device = p % devices;
            for (w, (_, (read_idx, _))) in sketch_spans.iter().enumerate() {
                for &feature in window_sketch(w) {
                    scratch.clear();
                    partition.query_into(feature, &mut scratch);
                    query_cost_per_device[device].ops += 8; // probing group traversal
                    query_cost_per_device[device].bytes_read += 8 + scratch.len() as u64 * 8;
                    for &loc in &scratch {
                        total_locations_per_device[device].push((*read_idx, loc));
                    }
                }
            }
        }
        for (d, cost) in query_cost_per_device.iter().enumerate() {
            streams[d].launch_kernel(*cost);
        }
        batch_breakdown.sketch_query = diff(max_position(&streams), t1);

        // --- Stage: compaction (prefix sum + dense copy per device). ---
        let t2 = max_position(&streams);
        for (d, locs) in total_locations_per_device.iter().enumerate() {
            let bytes = locs.len() as u64 * 8;
            streams[d].launch_kernel(KernelCost::memory(bytes, bytes));
        }
        batch_breakdown.compact = diff(max_position(&streams), t2);

        // --- Stage: segmented sort per device (one segment per read). ---
        let t3 = max_position(&streams);
        let mut sorted_per_device: Vec<Vec<(usize, Vec<Location>)>> = Vec::with_capacity(devices);
        for (d, locs) in total_locations_per_device.iter().enumerate() {
            // Group locations by read to form segments.
            let mut by_read: Vec<Vec<u64>> = vec![Vec::new(); records.len()];
            for (read_idx, loc) in locs {
                by_read[*read_idx].push(loc.pack());
            }
            let mut flat: Vec<u64> = Vec::with_capacity(locs.len());
            let mut segments = vec![0usize];
            for keys in &by_read {
                flat.extend_from_slice(keys);
                segments.push(flat.len());
            }
            let stats = segmented_sort(&mut flat, &segments);
            streams[d].launch_kernel(stats.cost());
            // Unflatten back into per-read sorted location lists.
            let mut out = Vec::with_capacity(records.len());
            for (read_idx, window) in segments.windows(2).enumerate() {
                let slice = &flat[window[0]..window[1]];
                out.push((
                    read_idx,
                    slice.iter().map(|&p| Location::unpack(p)).collect(),
                ));
            }
            sorted_per_device.push(out);
        }
        batch_breakdown.sort = diff(max_position(&streams), t3);

        // --- Stage: accumulation + sliding-window top candidates per device,
        //     then ring merge of the per-device top lists. ---
        let t4 = max_position(&streams);
        let mut counts = Vec::new();
        let mut local = CandidateList::new(self.db.config.top_candidates);
        for (d, per_read) in sorted_per_device.iter().enumerate() {
            let mut ops = 0u64;
            for (read_idx, sorted_locations) in per_read {
                if sorted_locations.is_empty() {
                    continue;
                }
                ops += sorted_locations.len() as u64;
                accumulate_locations_into(sorted_locations, &mut counts);
                let sws = self
                    .db
                    .config
                    .sliding_window_size(records[*read_idx].total_len());
                top_candidates_into(&counts, sws, &mut local);
                per_read_candidates[*read_idx].merge(&local);
            }
            streams[d].launch_kernel(KernelCost::compute(ops, ops * 8, 0));
        }
        // Ring merge: each device sends its per-read top lists to the next
        // device along the ring starting at the issue device.
        let top_bytes = (records.len()
            * self.db.config.top_candidates
            * std::mem::size_of::<CandidateList>()) as u64;
        for i in 0..devices.saturating_sub(1) {
            let src = (issue + i) % devices;
            let dst = (issue + i + 1) % devices;
            self.system.peer_copy(src, dst, top_bytes.min(1 << 20));
        }
        // Final top list travels back to the host from the ring's last device.
        streams[(issue + devices - 1) % devices].transfer((records.len() * 32) as u64);
        batch_breakdown.top_candidates = diff(max_position(&streams), t4);

        // Hand the launch buffer back for the thread's next batch.
        QUERY_FEATURE_BUF.with(|b| *b.borrow_mut() = feature_buf);

        self.breakdown.lock().accumulate(&batch_breakdown);
        (per_read_candidates, batch_breakdown)
    }

    /// Classify all reads in batches of the configured batch size, returning
    /// every classification and the accumulated breakdown.
    pub fn classify_all(
        &self,
        records: &[SequenceRecord],
    ) -> (Vec<Classification>, StageBreakdown) {
        let mut all = Vec::with_capacity(records.len());
        let mut breakdown = StageBreakdown::default();
        for chunk in records.chunks(self.db.config.batch_size.max(1)) {
            let (c, b) = self.classify_batch(chunk);
            all.extend(c);
            breakdown.accumulate(&b);
        }
        (all, breakdown)
    }
}

fn diff(now: SimDuration, before: SimDuration) -> SimDuration {
    SimDuration::from_nanos(now.as_nanos().saturating_sub(before.as_nanos()))
}

fn max_position(streams: &[Stream]) -> SimDuration {
    streams
        .iter()
        .map(|s| s.position())
        .max()
        .unwrap_or(SimDuration::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::CpuBuilder;
    use crate::config::MetaCacheConfig;
    use crate::query::Classifier;
    use mc_taxonomy::{Rank, Taxonomy};

    fn make_seq(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect()
    }

    #[test]
    fn warp_sketch_matches_host_sketcher() {
        let config = MetaCacheConfig::default();
        let sketcher = Sketcher::new(&config).unwrap();
        let warp = Warp::new(0);
        let kmer = sketcher.window_params().kmer();
        for seed in 0..20u64 {
            let window = make_seq(127, seed + 1);
            let (gpu_features, cost) = warp_sketch_window(&warp, &window, kmer, config.sketch_size);
            let host = sketcher.sketch_window(&window);
            assert_eq!(gpu_features, host.features(), "seed {seed}");
            assert!(cost.ops > 0 && cost.bytes_read == 127);
        }
    }

    #[test]
    fn warp_scratch_reuse_is_bit_identical_to_host_and_oracle() {
        let config = MetaCacheConfig::default();
        let sketcher = Sketcher::new(&config).unwrap();
        let warp = Warp::new(0);
        let kmer = sketcher.window_params().kmer();
        let mut scratch = WarpSketchScratch::new();
        let mut features = Vec::new();
        for seed in 0..30u64 {
            // Window lengths vary so the scratch shrinks and grows.
            let window = make_seq(60 + (seed as usize * 17) % 120, seed + 1);
            features.clear();
            warp_sketch_window_into(
                &warp,
                &window,
                kmer,
                config.sketch_size,
                &mut scratch,
                &mut features,
            );
            assert_eq!(
                features.as_slice(),
                sketcher.sketch_window(&window).features()
            );
            assert_eq!(
                features.as_slice(),
                sketcher.sketch_window_baseline(&window).features(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn warp_sketch_handles_short_and_ambiguous_windows() {
        let config = MetaCacheConfig::default();
        let sketcher = Sketcher::new(&config).unwrap();
        let warp = Warp::new(0);
        let kmer = sketcher.window_params().kmer();
        let (f, _) = warp_sketch_window(&warp, b"ACGTACGT", kmer, 16);
        assert!(f.is_empty());
        let all_n = vec![b'N'; 127];
        let (f, _) = warp_sketch_window(&warp, &all_n, kmer, 16);
        assert!(f.is_empty());
        let mut mixed = make_seq(127, 5);
        for i in (0..127).step_by(9) {
            mixed[i] = b'N';
        }
        let (f, _) = warp_sketch_window(&warp, &mixed, kmer, 16);
        assert_eq!(f, sketcher.sketch_window(&mixed).features());
    }

    fn small_db() -> (Database, Vec<u8>, Vec<u8>) {
        let mut taxonomy = Taxonomy::with_root();
        taxonomy.add_node(10, 1, Rank::Genus, "G").unwrap();
        taxonomy.add_node(100, 10, Rank::Species, "G a").unwrap();
        taxonomy.add_node(101, 10, Rank::Species, "G b").unwrap();
        let genome_a = make_seq(15_000, 1);
        let genome_b = make_seq(15_000, 2);
        let mut builder = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy);
        builder
            .add_target(SequenceRecord::new("refA", genome_a.clone()), 100)
            .unwrap();
        builder
            .add_target(SequenceRecord::new("refB", genome_b.clone()), 101)
            .unwrap();
        (builder.finish(), genome_a, genome_b)
    }

    #[test]
    fn gpu_and_cpu_classifiers_agree() {
        let (db, genome_a, genome_b) = small_db();
        let system = MultiGpuSystem::dgx1(2);
        let gpu = GpuClassifier::new(&db, &system);
        let cpu = Classifier::new(&db);
        let reads: Vec<SequenceRecord> = (0..30)
            .map(|i| {
                let (g, off) = if i % 2 == 0 {
                    (&genome_a, 200 + 113 * i)
                } else {
                    (&genome_b, 400 + 97 * i)
                };
                SequenceRecord::new(format!("r{i}"), g[off..off + 120].to_vec())
            })
            .collect();
        let (gpu_results, breakdown) = gpu.classify_batch(&reads);
        let cpu_results = cpu.classify_batch(&reads);
        assert_eq!(gpu_results, cpu_results);
        assert!(breakdown.total() > SimDuration::ZERO);
        assert!(breakdown.sort > SimDuration::ZERO);
    }

    #[test]
    fn breakdown_accumulates_over_batches() {
        let (db, genome_a, _) = small_db();
        let system = MultiGpuSystem::dgx1(1);
        let gpu = GpuClassifier::new(&db, &system);
        let reads: Vec<SequenceRecord> = (0..10)
            .map(|i| SequenceRecord::new(format!("r{i}"), genome_a[i * 50..i * 50 + 110].to_vec()))
            .collect();
        let (_, b1) = gpu.classify_batch(&reads);
        let (_, b2) = gpu.classify_batch(&reads);
        let total = gpu.breakdown();
        assert_eq!(
            total.total().as_nanos(),
            (b1.total() + b2.total()).as_nanos()
        );
        let shares = total.shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        gpu.reset_breakdown();
        assert_eq!(gpu.breakdown().total(), SimDuration::ZERO);
    }

    #[test]
    fn issue_device_does_not_change_classifications() {
        let (db, genome_a, genome_b) = small_db();
        let reads: Vec<SequenceRecord> = (0..12)
            .map(|i| {
                let (g, off) = if i % 2 == 0 {
                    (&genome_a, 300 + 101 * i)
                } else {
                    (&genome_b, 500 + 89 * i)
                };
                SequenceRecord::new(format!("r{i}"), g[off..off + 120].to_vec())
            })
            .collect();
        let system = MultiGpuSystem::dgx1(3);
        let gpu = GpuClassifier::new(&db, &system);
        let (on0, _) = gpu.classify_batch_on(&reads, 0);
        let (on1, _) = gpu.classify_batch_on(&reads, 1);
        let (on2, _) = gpu.classify_batch_on(&reads, 2);
        let (wrapped, _) = gpu.classify_batch_on(&reads, 5); // 5 % 3 == 2
        assert_eq!(on0, on1);
        assert_eq!(on1, on2);
        assert_eq!(on2, wrapped);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (db, _, _) = small_db();
        let system = MultiGpuSystem::dgx1(1);
        let gpu = GpuClassifier::new(&db, &system);
        let (results, breakdown) = gpu.classify_batch(&[]);
        assert!(results.is_empty());
        assert_eq!(breakdown.total(), SimDuration::ZERO);
    }
}
