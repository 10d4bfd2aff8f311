//! Ablation benchmarks over the design parameters DESIGN.md calls out:
//! sketch size `s`, multi-bucket slot width, and probing group size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mc_kmer::{hash32, Location};
use mc_warpcore::{
    ConcurrentInsert, FeatureStore, MultiBucketConfig, MultiBucketHashTable, ProbingConfig,
};
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

fn bench_sketch_size(c: &mut Criterion) {
    let genome = make_seq(200_000, 5);
    let mut group = c.benchmark_group("ablation_sketch_size");
    for &s in &[4usize, 8, 16, 32] {
        let config = MetaCacheConfig {
            sketch_size: s,
            ..MetaCacheConfig::default()
        };
        let sketcher = Sketcher::new(&config).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(s), &s, |b, _| {
            let mut scratch = SketchScratch::with_capacity(s);
            b.iter(|| {
                let mut features = 0;
                sketcher.for_each_window_sketch(&genome, &mut scratch, |_, sketch| {
                    features += sketch.len();
                    std::ops::ControlFlow::Continue(())
                });
                features
            })
        });
    }
    group.finish();
}

fn bench_bucket_width(c: &mut Criterion) {
    let n = 50_000usize;
    let pairs: Vec<(u32, Location)> = (0..n)
        .map(|i| {
            (
                hash32((i % (n / 4)) as u32),
                Location::new(i as u32 % 16, i as u32),
            )
        })
        .collect();
    let mut group = c.benchmark_group("ablation_bucket_width");
    for &bucket_size in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(bucket_size),
            &bucket_size,
            |b, _| {
                b.iter(|| {
                    let table = MultiBucketHashTable::new(MultiBucketConfig {
                        bucket_size,
                        ..MultiBucketConfig::for_expected_values(n, 0.8)
                    });
                    for (f, l) in &pairs {
                        let _ = table.insert(*f, *l);
                    }
                    table.value_count()
                })
            },
        );
    }
    group.finish();
}

fn bench_probing_group(c: &mut Criterion) {
    let n = 50_000usize;
    let pairs: Vec<(u32, Location)> = (0..n)
        .map(|i| (hash32(i as u32), Location::new(0, i as u32)))
        .collect();
    let mut group = c.benchmark_group("ablation_probing_group");
    for &group_size in &[1usize, 4, 8, 16, 32] {
        group.bench_with_input(
            BenchmarkId::from_parameter(group_size),
            &group_size,
            |b, _| {
                b.iter(|| {
                    let table = MultiBucketHashTable::new(MultiBucketConfig {
                        probing: ProbingConfig {
                            group_size,
                            max_groups: 4096,
                        },
                        ..MultiBucketConfig::for_expected_values(n, 0.8)
                    });
                    for (f, l) in &pairs {
                        let _ = table.insert(*f, *l);
                    }
                    table.value_count()
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sketch_size, bench_bucket_width, bench_probing_group
}
criterion_main!(benches);
