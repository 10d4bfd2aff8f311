//! Criterion benchmarks of the hash-table family (backing Table 3's build
//! throughput and the §6 memory/throughput comparison between the
//! multi-bucket, multi-value and bucket-list variants).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use mc_kmer::{hash32, Location};
use mc_warpcore::{
    BucketListConfig, BucketListHashTable, ConcurrentInsert, FeatureStore, HostHashTable,
    MultiBucketConfig, MultiBucketHashTable, MultiValueConfig, MultiValueHashTable,
};

/// A deterministic, skewed (feature, location) workload: ~70% of features
/// occur once, the rest follow a geometric multiplicity distribution, which
/// is the shape the paper's k-mer indices exhibit.
fn workload(n: usize) -> Vec<(u32, Location)> {
    let mut pairs = Vec::with_capacity(n);
    let mut feature_counter = 0u32;
    let mut i = 0usize;
    while pairs.len() < n {
        feature_counter += 1;
        let feature = hash32(feature_counter);
        let multiplicity = match feature_counter % 10 {
            0 => 16,
            1 | 2 => 4,
            _ => 1,
        };
        for m in 0..multiplicity {
            if pairs.len() >= n {
                break;
            }
            pairs.push((feature, Location::new((i % 64) as u32, m as u32)));
            i += 1;
        }
    }
    pairs
}

fn bench_insert(c: &mut Criterion) {
    let n = 100_000;
    let pairs = workload(n);
    let mut group = c.benchmark_group("hashtable_insert");
    group.throughput(Throughput::Elements(n as u64));

    group.bench_function(BenchmarkId::new("multi_bucket", n), |b| {
        b.iter(|| {
            let table = MultiBucketHashTable::new(MultiBucketConfig::for_expected_values(n, 0.8));
            for (f, l) in &pairs {
                let _ = table.insert(*f, *l);
            }
            table.value_count()
        })
    });
    group.bench_function(BenchmarkId::new("multi_value", n), |b| {
        b.iter(|| {
            let table = MultiValueHashTable::new(MultiValueConfig::for_expected_values(n, 0.8));
            for (f, l) in &pairs {
                let _ = table.insert(*f, *l);
            }
            table.value_count()
        })
    });
    group.bench_function(BenchmarkId::new("bucket_list", n), |b| {
        b.iter(|| {
            let table = BucketListHashTable::new(BucketListConfig {
                capacity_keys: n,
                ..Default::default()
            });
            for (f, l) in &pairs {
                let _ = table.insert(*f, *l);
            }
            table.value_count()
        })
    });
    group.bench_function(BenchmarkId::new("host_table", n), |b| {
        b.iter(|| {
            let mut table = HostHashTable::new(254);
            for (f, l) in &pairs {
                let _ = table.insert(*f, *l);
            }
            table.value_count()
        })
    });
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let n = 100_000;
    let pairs = workload(n);
    let features: Vec<u32> = pairs.iter().map(|(f, _)| *f).step_by(7).collect();

    let multi_bucket = MultiBucketHashTable::new(MultiBucketConfig::for_expected_values(n, 0.8));
    let multi_value = MultiValueHashTable::new(MultiValueConfig::for_expected_values(n, 0.8));
    let mut host = HostHashTable::new(254);
    for (f, l) in &pairs {
        let _ = multi_bucket.insert(*f, *l);
        let _ = multi_value.insert(*f, *l);
        let _ = host.insert(*f, *l);
    }

    let mut group = c.benchmark_group("hashtable_query");
    group.throughput(Throughput::Elements(features.len() as u64));
    let mut scratch = Vec::with_capacity(256);
    group.bench_function("multi_bucket", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for f in &features {
                scratch.clear();
                hits += multi_bucket.query_into(*f, &mut scratch);
            }
            hits
        })
    });
    group.bench_function("multi_value", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for f in &features {
                scratch.clear();
                hits += multi_value.query_into(*f, &mut scratch);
            }
            hits
        })
    });
    group.bench_function("host_table", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for f in &features {
                scratch.clear();
                hits += host.query_into(*f, &mut scratch);
            }
            hits
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_insert, bench_query
}
criterion_main!(benches);
