//! A `CpuBuilder` runs inserter threads for as long as it lives, and a
//! builder dropped before `finish` joins them: a server that rebuilds its
//! database on every reload must not gather threads.
//!
//! The one test of its own binary, because the process's thread count is
//! global state that a test running beside it would move.

use mc_seqio::SequenceRecord;
use mc_taxonomy::{Rank, Taxonomy};
use metacache::build::CpuBuilder;
use metacache::MetaCacheConfig;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .unwrap();
    line.trim().parse().unwrap()
}

fn sequence(len: usize, seed: u64) -> Vec<u8> {
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
#[cfg(target_os = "linux")]
fn dropped_builders_join_their_inserter_threads() {
    let mut taxonomy = Taxonomy::with_root();
    taxonomy.add_node(10, 1, Rank::Species, "S").unwrap();
    let inserters = std::thread::available_parallelism().unwrap().get();
    let baseline = threads();
    for i in 0..20 {
        let mut builder = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy.clone());
        assert_eq!(threads(), baseline + inserters, "builder {i}");
        for t in 0..3 {
            let record = SequenceRecord::new(format!("b{i}t{t}"), sequence(20_000, i * 3 + t));
            builder.add_target(record, 10).unwrap();
        }
        drop(builder);
        assert_eq!(threads(), baseline, "builder {i}");
    }
}
