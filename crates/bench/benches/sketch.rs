//! Criterion benchmarks of minhash sketching: the retained collect-sort
//! baseline vs the hash → cut → sort scratch path (host), and the warp-kernel
//! formulation (steps 1–3 of the GPU pipeline, §5.3).
//!
//! `host_baseline` allocates, canonicalises per k-mer and sorts all of a
//! window's hashes; `host_scratch` is the kernel every workload runs
//! (`Sketcher::sketch_window_into`: reused buffers, rolling canonical k-mers,
//! only the hashes under the cut sorted). Same inputs, bit-identical output.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use mc_gpu_sim::Warp;
use metacache::gpu::{warp_sketch_window_into, WarpSketchScratch};
use metacache::{MetaCacheConfig, SketchScratch, Sketcher};

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

fn bench_sketch(c: &mut Criterion) {
    let config = MetaCacheConfig::default();
    let sketcher = Sketcher::new(&config).unwrap();
    let windows: Vec<Vec<u8>> = (0..1000).map(|i| make_seq(127, i as u64 + 1)).collect();
    let total_bases: u64 = windows.iter().map(|w| w.len() as u64).sum();

    let mut group = c.benchmark_group("sketching");
    group.throughput(Throughput::Bytes(total_bases));
    group.bench_function("host_baseline", |b| {
        b.iter(|| {
            windows
                .iter()
                .map(|w| sketcher.sketch_window_baseline(w).len())
                .sum::<usize>()
        })
    });
    group.bench_function("host_scratch", |b| {
        let mut scratch = SketchScratch::with_capacity(config.sketch_size);
        let mut features = Vec::with_capacity(config.sketch_size);
        b.iter(|| {
            windows
                .iter()
                .map(|w| {
                    features.clear();
                    sketcher.sketch_window_into(w, &mut scratch, &mut features)
                })
                .sum::<usize>()
        })
    });
    group.bench_function("warp_kernel", |b| {
        let warp = Warp::new(0);
        let kmer = sketcher.window_params().kmer();
        let mut scratch = WarpSketchScratch::new();
        let mut features = Vec::with_capacity(config.sketch_size);
        b.iter(|| {
            windows
                .iter()
                .map(|w| {
                    features.clear();
                    warp_sketch_window_into(
                        &warp,
                        w,
                        kmer,
                        config.sketch_size,
                        &mut scratch,
                        &mut features,
                    );
                    features.len()
                })
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_reference_sketching(c: &mut Criterion) {
    let config = MetaCacheConfig::default();
    let sketcher = Sketcher::new(&config).unwrap();
    let genome = make_seq(500_000, 7);
    let mut group = c.benchmark_group("reference_sketching");
    group.throughput(Throughput::Bytes(genome.len() as u64));
    group.bench_function("sketch_reference_500kb", |b| {
        b.iter(|| sketcher.sketch_reference(&genome).len())
    });
    group.bench_function("visitor_scratch_500kb", |b| {
        let mut scratch = SketchScratch::with_capacity(config.sketch_size);
        b.iter(|| {
            let mut windows = 0usize;
            sketcher.for_each_window_sketch(&genome, &mut scratch, |_, _| {
                windows += 1;
                std::ops::ControlFlow::Continue(())
            });
            windows
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sketch, bench_reference_sketching
}
criterion_main!(benches);
