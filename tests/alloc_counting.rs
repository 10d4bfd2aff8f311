//! Proof of the zero-allocation query hot path: a counting global allocator
//! measures heap traffic of `sketch_window_into`, `Classifier::classify_with`
//! (fresh, loaded and sharded database) and the serving path's
//! `BackendWorker::candidates_each` (host and sharded) in steady state
//! (scratch reused, buffers at their high-water mark) and asserts **zero**
//! allocations. The GPU model's worker spawns its sketch launch's threads on
//! every batch; its count is asserted not to grow with devices or reads.
//!
//! This is the acceptance check for the scratch-buffer refactor: the sketch
//! kernel's hash buffers, location gathering, the window counter's table and
//! count list, and the candidate list must all live in caller-owned reusable
//! buffers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mc_gpu_sim::MultiGpuSystem;
use mc_seqio::SequenceRecord;
use mc_taxonomy::{Rank, Taxonomy};
use metacache::build::CpuBuilder;
use metacache::classify::classify_candidates;
use metacache::query::{Classifier, QueryScratch};
use metacache::{Backend, GpuBackend, HostBackend, MetaCacheConfig, ShardPlan, SketchScratch};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting every allocation/reallocation.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Measure `work` until an attempt observes zero allocations (up to 5 tries)
/// and return the best attempt's count. The retries filter out rare ambient
/// allocations by libtest's bookkeeping threads: a hot path that really
/// allocates does so on *every* attempt (hundreds of counts per attempt), so
/// the minimum over attempts is the honest per-call signal.
fn min_allocations_over_attempts(mut work: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..5 {
        let before = allocation_count();
        work();
        best = best.min(allocation_count() - before);
        if best == 0 {
            break;
        }
    }
    best
}

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

/// Warm `classify` up over `reads`, then run them five times more: every
/// answer equals `expected` and nothing allocates.
fn assert_steady_state_is_allocation_free(
    label: &str,
    reads: &[SequenceRecord],
    expected: &[metacache::Classification],
    classify: &mut dyn FnMut(&SequenceRecord) -> metacache::Classification,
) {
    let mut pass = || {
        for (read, expected) in reads.iter().zip(expected) {
            assert_eq!(&classify(read), expected);
        }
    };
    pass();
    let allocs = min_allocations_over_attempts(|| (0..5).for_each(|_| pass()));
    assert_eq!(
        allocs,
        0,
        "{label} classify_with allocated {allocs} times over {} steady-state reads",
        5 * reads.len()
    );
}

/// The whole hot path is exercised from one test function so no concurrent
/// test thread can contribute allocations to the global counter.
#[test]
fn steady_state_hot_path_performs_zero_allocations() {
    // --- Part 1: window sketching. -----------------------------------------
    let sketcher = metacache::Sketcher::new(&MetaCacheConfig::default()).unwrap();
    let windows: Vec<Vec<u8>> = (0..64).map(|i| make_seq(127, i + 1)).collect();
    let mut scratch = SketchScratch::new();
    let mut features = Vec::new();

    // Warm-up: every buffer reaches its high-water mark.
    for window in &windows {
        features.clear();
        sketcher.sketch_window_into(window, &mut scratch, &mut features);
    }

    let mut total_features = 0usize;
    let sketch_allocs = min_allocations_over_attempts(|| {
        for _ in 0..10 {
            for window in &windows {
                features.clear();
                total_features += sketcher.sketch_window_into(window, &mut scratch, &mut features);
            }
        }
    });
    assert!(total_features > 0, "sketching must produce features");
    assert_eq!(
        sketch_allocs, 0,
        "sketch_window_into allocated {sketch_allocs} times over 640 steady-state windows"
    );

    // --- Part 2: end-to-end classification. --------------------------------
    let genome_a = make_seq(20_000, 101);
    let genome_b = make_seq(20_000, 102);
    let db = {
        let mut taxonomy = Taxonomy::with_root();
        taxonomy.add_node(10, 1, Rank::Genus, "G").unwrap();
        taxonomy.add_node(100, 10, Rank::Species, "G a").unwrap();
        taxonomy.add_node(101, 10, Rank::Species, "G b").unwrap();
        let mut builder = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy);
        builder
            .add_target(SequenceRecord::new("refA", genome_a.clone()), 100)
            .unwrap();
        builder
            .add_target(SequenceRecord::new("refB", genome_b.clone()), 101)
            .unwrap();
        builder.finish()
    };
    let classifier = Classifier::new(&db);

    // A mixed workload: single-window reads, multi-window reads, paired
    // reads, and a foreign (unclassifiable) read.
    let mut reads: Vec<SequenceRecord> = (0..50)
        .map(|i| {
            let (genome, offset) = if i % 2 == 0 {
                (&genome_a, 130 + i * 71)
            } else {
                (&genome_b, 210 + i * 67)
            };
            let len = if i % 5 == 0 { 260 } else { 120 };
            SequenceRecord::new(format!("r{i}"), genome[offset..offset + len].to_vec())
        })
        .collect();
    reads.push(
        SequenceRecord::new("p/1", genome_a[4_000..4_101].to_vec())
            .with_mate(SequenceRecord::new("p/2", genome_a[4_300..4_401].to_vec())),
    );
    reads.push(SequenceRecord::new("alien", make_seq(150, 999)));

    let mut query_scratch = QueryScratch::new();
    // Warm-up pass over the identical workload.
    let warmup: Vec<_> = reads
        .iter()
        .map(|r| classifier.classify_with(r, &mut query_scratch))
        .collect();

    let classify_allocs = min_allocations_over_attempts(|| {
        for _ in 0..5 {
            for (read, expected) in reads.iter().zip(&warmup) {
                let c = classifier.classify_with(read, &mut query_scratch);
                assert_eq!(&c, expected);
            }
        }
    });
    assert!(
        warmup.iter().filter(|c| c.is_classified()).count() >= 50,
        "most reads must classify"
    );
    assert_eq!(
        classify_allocs,
        0,
        "classify_with allocated {classify_allocs} times over {} steady-state reads",
        5 * reads.len()
    );

    // --- Part 3: the same reads over the loaded copy and over a split. -----
    // A loaded database holds the table a build finishes with, in the same
    // packed state, so this is the same code and the same zero.
    let dir = std::env::temp_dir().join(format!("metacache_alloc_{}", std::process::id()));
    metacache::serialize::save(&db, &dir, "db").unwrap();
    let loaded = metacache::serialize::load(&dir, "db").unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let loaded_classifier = Classifier::new(&*loaded);
    let mut loaded_scratch = QueryScratch::new();
    assert_steady_state_is_allocation_free("loaded", &reads, &warmup, &mut |read| {
        loaded_classifier.classify_with(read, &mut loaded_scratch)
    });

    // One sketch, one probe per shard table (the host table's batched lookup
    // works on the stack), one merge: the same scratch, so the same zero.
    let plan = ShardPlan::round_robin(db.target_count(), 2).unwrap();
    let sharded = db.repartition(&plan).unwrap();
    let sharded_classifier = Classifier::new(&sharded);
    let mut sharded_scratch = QueryScratch::new();
    assert_steady_state_is_allocation_free("sharded", &reads, &warmup, &mut |read| {
        sharded_classifier.classify_with(read, &mut sharded_scratch)
    });

    // --- Part 4: the serving path's worker interface. ----------------------
    // The engine drives every backend through `candidates_each` and turns
    // each borrowed list into an answer in the callback; the callback is a
    // `&mut dyn FnMut`, so nothing is boxed or collected per read.
    let host_backend = HostBackend::new(&db);
    let sharded_backend = HostBackend::new(&sharded);
    let backends: [&dyn Backend; 2] = [&host_backend, &sharded_backend];
    for backend in backends {
        let meta = backend.database();
        let mut worker = backend.worker();
        let mut out = Vec::with_capacity(reads.len());
        let mut run = |out: &mut Vec<_>| {
            out.clear();
            worker.candidates_each(&reads, &mut |list| {
                out.push(classify_candidates(meta, &meta.config, list))
            });
        };
        run(&mut out); // warm-up
        assert_eq!(out, warmup);
        let worker_allocs = min_allocations_over_attempts(|| {
            for _ in 0..5 {
                run(&mut out);
            }
        });
        assert_eq!(out, warmup);
        assert_eq!(
            worker_allocs,
            0,
            "{} worker allocated {worker_allocs} times over {} steady-state reads",
            backend.name(),
            5 * reads.len()
        );
    }

    // --- Part 5: the GPU model's worker. ------------------------------------
    // A batch allocates only for its sketch launch — the launch's threads,
    // their result vectors and the warp scratch each fresh thread fills —
    // and for `MultiGpuSystem::streams()`'s one vector: the same count at
    // any device count, and at most `READS_SLACK` more for four times the
    // reads (a launch thread's buffers may grow once or twice more).
    const READS_SLACK: u64 = 8;
    let four_parts = db
        .repartition(&ShardPlan::round_robin(db.target_count(), 4).unwrap())
        .unwrap();
    let batch = |n: usize| -> Vec<SequenceRecord> {
        (0..n)
            .map(|i| {
                let genome = if i % 2 == 0 { &genome_a } else { &genome_b };
                let (offset, len) = (100 + i * 61, if i % 5 == 0 { 260 } else { 120 });
                let read =
                    SequenceRecord::new(format!("g{i}"), genome[offset..offset + len].to_vec());
                if i % 16 == 3 {
                    let mate = genome[offset + 300..offset + 400].to_vec();
                    read.with_mate(SequenceRecord::new(format!("g{i}/2"), mate))
                } else {
                    read
                }
            })
            .collect()
    };
    let gpu_allocations = |devices: usize, reads: &[SequenceRecord]| -> u64 {
        let expected = Classifier::new(&four_parts).classify_all_sequential(reads);
        let system = MultiGpuSystem::dgx1(devices);
        let backend = GpuBackend::new(&four_parts, &system);
        let mut worker = backend.worker();
        let mut out = Vec::with_capacity(reads.len());
        let mut run = |out: &mut Vec<_>| {
            out.clear();
            worker.candidates_each(reads, &mut |list| {
                out.push(classify_candidates(&four_parts, &four_parts.config, list))
            });
        };
        run(&mut out); // warm-up
        let allocs = min_allocations_over_attempts(|| run(&mut out));
        assert_eq!(out, expected, "{devices} devices, {} reads", reads.len());
        allocs
    };
    let (small, large) = (batch(64), batch(256));
    let counts = [(1, &small), (4, &small), (1, &large), (4, &large)]
        .map(|(devices, reads)| gpu_allocations(devices, reads));
    let [one_small, four_small, one_large, four_large] = counts;
    assert_eq!(
        (one_small, one_large),
        (four_small, four_large),
        "GPU worker allocations grow with devices: {counts:?} \
         (1 and 4 devices × 64 and 256 reads)"
    );
    assert!(
        four_large <= four_small + READS_SLACK,
        "GPU worker allocations grow with reads: {counts:?} \
         (1 and 4 devices × 64 and 256 reads)"
    );
}
