//! The GPU pipeline (paper §5) on the simulated device substrate.
//!
//! This module contains the batched multi-device query pipeline and the
//! cost of the paper's sketching kernel:
//!
//! * Steps (1)–(3) of §5.2/§5.3 — encode a window, hash its canonical
//!   k-mers, sort them with a warp's register bitonic network, drop
//!   duplicates and keep the `s` smallest — are the host's
//!   [`Sketcher::sketch_window_into`]; the GPU build and the GPU query
//!   sketch through it and charge each window's kernel from its length and
//!   feature count (four k-mer positions per lane, one 32-lane sort per
//!   round of 32 positions). The kernel itself is kept, executed, in
//!   `tests/property_tests.rs`, where it is held to the host's sketches.
//! * [`GpuClassifier`] — steps (4)–(8): hash-table lookup, location list
//!   compaction, segmented sort, window-count accumulation and warp-level
//!   top-candidate generation, followed by the cross-device top-hit merge of
//!   Figure 2. These steps execute the host's stages — every partition
//!   answers a read's features into one location list
//!   ([`crate::database::Partition::query_batch_into`]) and the host's
//!   [`WindowCounter`] turns it into the read's candidates — and each
//!   device's kernels are charged from the counts those stages saw: features
//!   probed, locations returned, one sort segment per read. Per-stage
//!   simulated times are recorded in a [`StageBreakdown`], which is what
//!   Figure 5 of the paper plots.
//!
//! The GPU pipeline's sketches and candidate lists are therefore the host
//! query path's by construction; only the cost model differs.

use std::ops::Deref;
use std::sync::Arc;

use mc_gpu_sim::{KernelCost, MultiGpuSystem, SegmentedSortStats, SimDuration, Stream, WARP_SIZE};
use mc_kmer::{Feature, Location};
use mc_seqio::SequenceRecord;

use crate::candidate::{CandidateList, WindowCounter};
use crate::classify::{classify_candidates, Classification};
use crate::database::Database;
use crate::sketch::{SketchScratch, Sketcher};

thread_local! {
    /// The query pipeline's buffers, reused across the batches a thread
    /// issues (serving workers issue many batches per thread).
    static BATCH_SCRATCH: std::cell::RefCell<BatchScratch> =
        std::cell::RefCell::new(BatchScratch::default());
}

/// Buffers of [`GpuClassifier::candidates_batch_on`]; every one is at its
/// high-water mark after the largest batch a thread has issued.
#[derive(Default)]
struct BatchScratch {
    /// The sketch kernel's buffers, the batch's features back to back, and
    /// where each read's features end.
    sketch: SketchScratch,
    features: Vec<Feature>,
    ends: Vec<usize>,
    /// One read's locations, partition-major, and the host's stage 3.
    locations: Vec<Location>,
    counter: WindowCounter,
    candidates: CandidateList,
    /// Per device: the current read's locations, and its sort's segments.
    segment: Vec<usize>,
    sorts: Vec<SegmentedSortStats>,
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

/// The modelled cost of the §5.3 sketching kernel on one window of `len`
/// bases that gives `features` features, for k-mers of `k` bases: every
/// base is read, each k-mer position is hashed, the positions go to the 32
/// lanes in rounds of 32 (at least one round) and each round is sorted by
/// one register bitonic network (32 · log²32 = 800 compare-exchanges), and
/// the features are written. A window's kernel has no launch of its own:
/// the caller charges one launch for all the windows it sketches.
pub(crate) fn window_sketch_cost(k: usize, len: usize, features: usize) -> KernelCost {
    let positions = len.saturating_sub(k.saturating_sub(1));
    let rounds = positions.div_ceil(WARP_SIZE).max(1);
    KernelCost {
        bytes_read: len as u64,
        bytes_written: 4 * features as u64,
        ops: (positions + rounds * WARP_SIZE * 25) as u64,
        launches: 0,
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
    /// on `issue_device`: the host-side final step over each list
    /// [`GpuClassifier::candidates_batch_on`] emits.
    pub fn classify_batch_on(
        &self,
        records: &[SequenceRecord],
        issue_device: usize,
    ) -> (Vec<Classification>, StageBreakdown) {
        let mut classifications = Vec::with_capacity(records.len());
        let breakdown = self.candidates_batch_on(records, issue_device, &mut |cands| {
            classifications.push(classify_candidates(&self.db, &self.db.config, cands))
        });
        (classifications, breakdown)
    }

    /// Run the device pipeline for a batch of reads — transfer + sketching
    /// issued on `issue_device` (wrapped modulo the device count), the
    /// top-hit merge ring starting there — hand each read's top-candidate
    /// list to `emit`, in read order, and return the batch's simulated
    /// per-stage times. The lists are independent of the issue device —
    /// only the simulated stream occupancy differs — so concurrent callers
    /// (the serving engine's GPU backend) can round-robin batches across
    /// devices to model the paper's per-GPU copy/compute overlap.
    pub fn candidates_batch_on(
        &self,
        records: &[SequenceRecord],
        issue_device: usize,
        emit: &mut dyn FnMut(&CandidateList),
    ) -> StageBreakdown {
        let mut batch_breakdown = StageBreakdown::default();
        if records.is_empty() {
            return batch_breakdown;
        }
        let devices = self.system.device_count().max(1);
        let issue = issue_device % devices;
        let streams: Vec<Stream> = self.system.streams();
        let first = &streams[issue];

        // --- Stage: host -> device transfer of the read windows. ---
        let batch_bytes: u64 = records.iter().map(|r| r.total_len() as u64).sum();
        let t0 = first.position();
        first.transfer(batch_bytes);
        batch_breakdown.transfer = diff(first.position(), t0);

        // --- Stage: sketching on the issue device + broadcast of sketches +
        //     per-device hash-table queries. ---
        // Taken, not borrowed: `emit` may start another batch on this thread.
        let mut scratch = BATCH_SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
        let s = &mut scratch;

        // Sketch every window of every read (both mates) — the host query's
        // read split — into one flat feature list, each read's features
        // ending at its entry of `ends`, and charge each window's share of
        // the one sketch kernel.
        let k = self.sketcher.window_params().k() as usize;
        let mut sketch_cost = KernelCost {
            launches: 1,
            ..Default::default()
        };
        s.features.clear();
        s.ends.clear();
        for record in records {
            self.sketcher.for_each_read_window(record, |window| {
                let features =
                    self.sketcher
                        .sketch_window_into(window, &mut s.sketch, &mut s.features);
                sketch_cost = sketch_cost.merge(window_sketch_cost(k, window.len(), features));
            });
            s.ends.push(s.features.len());
        }
        let t1 = first.position();
        first.launch_kernel(sketch_cost);

        // Broadcast sketches to the other devices along the ring starting at
        // the issue device (ring forwarding, Figure 2).
        let sketch_bytes = 4 * s.features.len() as u64;
        for i in 1..devices {
            let src = (issue + i - 1) % devices;
            let dst = (issue + i) % devices;
            self.system.peer_copy(src, dst, sketch_bytes);
        }

        // Per read: every partition answers its features into one list
        // (partition p is resident on device p % devices), the window
        // counter turns it into the read's candidates, and each device's
        // share of the list is one segment of that device's sort.
        s.segment.clear();
        s.segment.resize(devices, 0);
        s.sorts.clear();
        s.sorts.resize(devices, SegmentedSortStats::default());
        let mut start = 0;
        for (record, &end) in records.iter().zip(&s.ends) {
            s.locations.clear();
            for (p, partition) in self.db.partitions.iter().enumerate() {
                s.segment[p % devices] +=
                    partition.query_batch_into(&s.features[start..end], &mut s.locations);
            }
            for (sort, len) in s.sorts.iter_mut().zip(&mut s.segment) {
                sort.add_segment(std::mem::take(len));
            }
            s.candidates.reset(self.db.config.top_candidates);
            let sliding_window = self.db.config.sliding_window_size(record.total_len());
            s.counter
                .top_candidates_into(&s.locations, sliding_window, &mut s.candidates);
            emit(&s.candidates);
            start = end;
        }
        let features = s.features.len() as u64;
        let sorts = &scratch.sorts;

        // Charge the query kernels: a probe (8 ops, 8 bytes) per feature per
        // resident partition, plus the locations returned.
        let partitions = self.db.partitions.len();
        for (d, stream) in streams.iter().enumerate() {
            let probes = features * (d..partitions).step_by(devices).len() as u64;
            stream.launch_kernel(KernelCost {
                ops: 8 * probes,
                bytes_read: 8 * probes + 8 * sorts[d].total_keys as u64,
                bytes_written: 0,
                launches: 1,
            });
        }
        batch_breakdown.sketch_query = diff(max_position(&streams), t1);

        // --- Stage: compaction (prefix sum + dense copy per device). ---
        let t2 = max_position(&streams);
        for (stream, sort) in streams.iter().zip(sorts) {
            let bytes = sort.total_keys as u64 * 8;
            stream.launch_kernel(KernelCost::memory(bytes, bytes));
        }
        batch_breakdown.compact = diff(max_position(&streams), t2);

        // --- Stage: segmented sort per device (one segment per read). ---
        let t3 = max_position(&streams);
        for (stream, sort) in streams.iter().zip(sorts) {
            stream.launch_kernel(sort.cost());
        }
        batch_breakdown.sort = diff(max_position(&streams), t3);

        // --- Stage: accumulation + sliding-window top candidates per device,
        //     then ring merge of the per-device top lists. ---
        let t4 = max_position(&streams);
        for (stream, sort) in streams.iter().zip(sorts) {
            let ops = sort.total_keys as u64;
            stream.launch_kernel(KernelCost::compute(ops, ops * 8, 0));
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

        // Hand the buffers back for the thread's next batch.
        BATCH_SCRATCH.with(|s| *s.borrow_mut() = scratch);
        batch_breakdown
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
    fn window_sketch_cost_is_the_warp_kernels_charge() {
        // A full window: 112 k-mer positions in four rounds of 32 lanes.
        let full = window_sketch_cost(16, 127, 16);
        assert_eq!(
            (full.bytes_read, full.bytes_written, full.ops, full.launches),
            (127, 64, 112 + 4 * 32 * 25, 0)
        );
        // A window under k still runs one round.
        let short = window_sketch_cost(16, 8, 0);
        assert_eq!(
            (short.bytes_read, short.bytes_written, short.ops),
            (8, 0, 800)
        );
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
        let mut total = b1;
        total.accumulate(&b2);
        assert_eq!(
            total.total().as_nanos(),
            (b1.total() + b2.total()).as_nanos()
        );
        let shares = total.shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
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
