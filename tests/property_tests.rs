//! Property-based tests (proptest) of the core invariants:
//! encoding round-trips, canonical k-mer strand independence, hash-table
//! insert/query consistency across every variant, segmented-sort correctness,
//! sketch stability, LCA algebra and the window counter against the
//! reference candidate scan.

use proptest::collection::vec;
use proptest::prelude::*;

use mc_gpu_sim::{segmented_sort, Warp};
use mc_kmer::{
    canonical, reverse_complement, CanonicalKmerIter, EncodedSequence, KmerParams, Location,
};
use mc_seqio::SequenceRecord;
use mc_taxonomy::{Rank, Taxonomy};
use mc_warpcore::{
    BucketListConfig, BucketListHashTable, ConcurrentInsert, FeatureStore, HostHashTable,
    MultiBucketConfig, MultiBucketHashTable, MultiValueConfig, MultiValueHashTable,
};
use metacache::build::CpuBuilder;
use metacache::candidate::{accumulate_locations_into, top_candidates_into, WindowCounter};
use metacache::gpu::{warp_sketch_window_into, WarpSketchScratch};
use metacache::query::{Classifier, QueryScratch};
use metacache::{CandidateList, Database, MetaCacheConfig, SketchScratch, Sketcher};

fn dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    vec(
        prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T'), Just(b'N'),],
        0..max_len,
    )
}

fn clean_dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    vec(
        prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')],
        0..max_len,
    )
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

/// A two-species database shared across property cases (building one per
/// case would dominate the test's runtime).
fn shared_database() -> (&'static Database, &'static [Vec<u8>]) {
    use std::sync::OnceLock;
    static DB: OnceLock<(Database, Vec<Vec<u8>>)> = OnceLock::new();
    let (db, genomes) = DB.get_or_init(|| {
        let mut taxonomy = Taxonomy::with_root();
        taxonomy.add_node(10, 1, Rank::Genus, "G").unwrap();
        taxonomy.add_node(100, 10, Rank::Species, "G a").unwrap();
        taxonomy.add_node(101, 10, Rank::Species, "G b").unwrap();
        let genomes = vec![make_seq(18_000, 11), make_seq(18_000, 12)];
        let mut builder = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy);
        builder
            .add_target(SequenceRecord::new("refA", genomes[0].clone()), 100)
            .unwrap();
        builder
            .add_target(SequenceRecord::new("refB", genomes[1].clone()), 101)
            .unwrap();
        (builder.finish(), genomes)
    });
    (db, genomes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encoded_sequence_roundtrips(seq in dna(600)) {
        let encoded = EncodedSequence::from_ascii(&seq);
        prop_assert_eq!(encoded.len(), seq.len());
        prop_assert_eq!(encoded.to_ascii(), seq);
    }

    #[test]
    fn reverse_complement_involution(seq in clean_dna(400)) {
        prop_assert_eq!(reverse_complement(&reverse_complement(&seq)), seq);
    }

    #[test]
    fn canonical_kmers_are_strand_independent(seq in clean_dna(300), k in 2u32..24) {
        let params = KmerParams::new(k).unwrap();
        let fwd: Vec<u64> = CanonicalKmerIter::new(&seq, params).map(|x| x.value()).collect();
        let mut rev: Vec<u64> = CanonicalKmerIter::new(&reverse_complement(&seq), params)
            .map(|x| x.value())
            .collect();
        rev.reverse();
        prop_assert_eq!(fwd, rev);
    }

    #[test]
    fn canonical_is_idempotent(value in any::<u64>(), k in 1u32..=32) {
        let params = KmerParams::new(k).unwrap();
        let c = canonical(value, params);
        prop_assert_eq!(canonical(c, params), c);
    }

    #[test]
    fn every_table_variant_returns_what_was_inserted(
        pairs in vec((0u32..500, 0u32..50, 0u32..1000), 1..300)
    ) {
        // Build the same content in all four variants and compare per-key
        // multisets of locations.
        let n = pairs.len();
        let mb = MultiBucketHashTable::new(MultiBucketConfig {
            max_locations_per_key: usize::MAX >> 1,
            ..MultiBucketConfig::for_expected_values(n, 0.5)
        });
        let mv = MultiValueHashTable::new(MultiValueConfig {
            max_locations_per_key: usize::MAX >> 1,
            ..MultiValueConfig::for_expected_values(n, 0.5)
        });
        let bl = BucketListHashTable::new(BucketListConfig {
            capacity_keys: 2 * n + 64,
            max_locations_per_key: usize::MAX >> 1,
            ..Default::default()
        });
        let mut host = HostHashTable::new(HostHashTable::MAX_BUCKET_LEN);
        let mut expected: std::collections::BTreeMap<u32, Vec<Location>> = Default::default();
        for (key, target, window) in &pairs {
            let loc = Location::new(*target, *window);
            expected.entry(*key).or_default().push(loc);
            mb.insert(*key, loc).unwrap();
            mv.insert(*key, loc).unwrap();
            bl.insert(*key, loc).unwrap();
            host.insert(*key, loc).unwrap();
        }
        for (key, locs) in &expected {
            let mut want = locs.clone();
            want.sort();
            for table in [&mb as &dyn FeatureStore, &mv, &bl, &host] {
                let mut got = table.query(*key);
                got.sort();
                prop_assert_eq!(&got, &want, "key {} mismatch", key);
            }
        }
        // Absent keys return nothing.
        for probe in 1000u32..1010 {
            prop_assert!(mb.query(probe).is_empty());
            prop_assert!(host.query(probe).is_empty());
        }
    }

    #[test]
    fn segmented_sort_sorts_each_segment(
        keys in vec(any::<u64>(), 0..2000),
        cuts in vec(0usize..2000, 0..8)
    ) {
        let n = keys.len();
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c.min(n)).collect();
        bounds.push(0);
        bounds.push(n);
        bounds.sort_unstable();
        let mut data = keys.clone();
        segmented_sort(&mut data, &bounds);
        // Each segment is sorted and is a permutation of the original segment.
        for w in bounds.windows(2) {
            let mut original = keys[w[0]..w[1]].to_vec();
            original.sort_unstable();
            prop_assert_eq!(&data[w[0]..w[1]], original.as_slice());
        }
    }

    #[test]
    fn bounded_selector_is_bit_identical_to_collect_sort_oracle(
        // Windows over the full alphabet including `N` runs, from empty
        // through shorter-than-k up to multi-window lengths.
        window in dna(400),
        n_run_start in 0usize..400,
        n_run_len in 0usize..40,
    ) {
        let mut window = window;
        // Splice an explicit N run so ambiguous stretches are always exercised.
        for i in 0..n_run_len {
            if let Some(base) = window.get_mut(n_run_start + i) {
                *base = b'N';
            }
        }
        let mut scratch = SketchScratch::new();
        let mut features = Vec::new();
        // The acceptance sketch sizes: minimal, paper default, the largest in use.
        for sketch_size in [1usize, 16, 64] {
            let config = MetaCacheConfig { sketch_size, ..MetaCacheConfig::default() };
            let sketcher = Sketcher::new(&config).unwrap();
            features.clear();
            sketcher.sketch_window_into(&window, &mut scratch, &mut features);
            let oracle = sketcher.sketch_window_baseline(&window);
            prop_assert_eq!(&features, oracle.features(), "sketch size {}", sketch_size);
        }
    }

    #[test]
    fn cut_kernel_is_bit_identical_where_the_cut_can_go_wrong(
        seed in any::<u64>(),
        len in 15usize..252,
        period in 1usize..5,
        unit_len in 17usize..60,
        tail_len in 0usize..40,
        gap in 1usize..30,
    ) {
        const K: usize = 16;
        let mut windows: Vec<Vec<u8>> = Vec::new();
        // Homopolymer and short-period windows: one or two distinct hashes
        // (at most 2·period), far fewer than s under any cut → fallback;
        // with a random tail, a handful of distinct hashes beside them.
        let unit = make_seq(period, seed);
        let mut periodic: Vec<u8> = unit.iter().cycle().take(len).copied().collect();
        windows.push(periodic.clone());
        periodic.extend(make_seq(tail_len, seed ^ 1));
        windows.push(periodic);
        // A random unit repeated: every hash occurs several times, on both
        // sides of the cut, so duplicates straddle it and the distinct count
        // under the cut can land either side of s.
        let unit = make_seq(unit_len, seed ^ 2);
        windows.push(unit.iter().cycle().take(len).copied().collect());
        // N runs that leave fewer than s valid k-mers: stretches of
        // k + gap − 1 bases (gap k-mers each) between runs of N.
        let mut broken = vec![b'N'; len];
        for (i, base) in make_seq(len, seed ^ 3).into_iter().enumerate() {
            if i % (K + gap + 7) < K + gap - 1 && i < 3 * (K + gap + 7) {
                broken[i] = base;
            }
        }
        windows.push(broken);
        // Plain reads of every length from 15 (no k-mer) to 251.
        windows.push(make_seq(len, seed ^ 4));

        let mut scratch = SketchScratch::new();
        let mut features = Vec::new();
        for sketch_size in [1usize, 16, 64] {
            let config = MetaCacheConfig { sketch_size, ..MetaCacheConfig::default() };
            let sketcher = Sketcher::new(&config).unwrap();
            // Exactly n k-mers around every edge of the kernel: nothing, one,
            // just under and at s, and either side of the cut's 2s threshold
            // (s = 64 also gives s > n for every other window here).
            let edges = [0, 1, sketch_size - 1, sketch_size, 2 * sketch_size, 2 * sketch_size + 1]
                .map(|n| make_seq(K - 1 + n, seed ^ n as u64));
            for window in windows.iter().chain(&edges) {
                features.clear();
                let appended = sketcher.sketch_window_into(window, &mut scratch, &mut features);
                let oracle = sketcher.sketch_window_baseline(window);
                prop_assert_eq!(appended, oracle.len());
                prop_assert_eq!(
                    &features, oracle.features(),
                    "sketch size {}, window {:?}", sketch_size, String::from_utf8_lossy(window)
                );
            }
            // The same reads through the record path, mate included.
            let record = SequenceRecord::new("r/1", windows[4].clone())
                .with_mate(SequenceRecord::new("r/2", windows[2].clone()));
            features.clear();
            sketcher.sketch_record_into(&record, &mut scratch, &mut features);
            let oracle: Vec<_> = sketcher.sketch_record_baseline(&record).all_features().collect();
            prop_assert_eq!(&features, &oracle, "sketch size {}", sketch_size);
        }
    }

    #[test]
    fn warp_kernel_host_scratch_and_oracle_sketches_agree(
        window in dna(300),
        sketch_size_choice in 0usize..3,
    ) {
        let sketch_size = [1usize, 16, 64][sketch_size_choice];
        let config = MetaCacheConfig { sketch_size, ..MetaCacheConfig::default() };
        let sketcher = Sketcher::new(&config).unwrap();
        let kmer = sketcher.window_params().kmer();
        let mut warp_scratch = WarpSketchScratch::new();
        let mut warp_features = Vec::new();
        warp_sketch_window_into(
            &Warp::new(0), &window, kmer, sketch_size, &mut warp_scratch, &mut warp_features,
        );
        let mut host_scratch = SketchScratch::new();
        let mut host_features = Vec::new();
        sketcher.sketch_window_into(&window, &mut host_scratch, &mut host_features);
        let oracle = sketcher.sketch_window_baseline(&window);
        prop_assert_eq!(&warp_features, &host_features);
        prop_assert_eq!(&warp_features, oracle.features());
    }

    #[test]
    fn classify_batch_with_scratch_reuse_equals_sequential(
        offsets in vec(0usize..17_000, 1..40),
        lengths in vec(20usize..300, 1..40),
    ) {
        let (db, genomes) = shared_database();
        let classifier = Classifier::new(db);
        let reads: Vec<SequenceRecord> = offsets
            .iter()
            .zip(&lengths)
            .enumerate()
            .map(|(i, (&off, &len))| {
                let genome = &genomes[i % genomes.len()];
                let end = (off + len).min(genome.len());
                SequenceRecord::new(format!("r{i}"), genome[off..end].to_vec())
            })
            .collect();
        // classify_batch reuses one QueryScratch per rayon worker,
        // classify_all_sequential reuses a single scratch, and classify()
        // builds a fresh scratch per read: all three must agree exactly.
        let batch = classifier.classify_batch(&reads);
        let sequential = classifier.classify_all_sequential(&reads);
        prop_assert_eq!(&batch, &sequential);
        let mut reused = QueryScratch::new();
        for (read, expected) in reads.iter().zip(&batch) {
            prop_assert_eq!(&classifier.classify(read), expected);
            prop_assert_eq!(&classifier.classify_with(read, &mut reused), expected);
        }
    }

    #[test]
    fn sketches_are_subsets_of_smaller_sketch_sizes(seq in clean_dna(200), s in 1usize..32) {
        // A sketch of size s must be a prefix of the sketch of size s+8 over
        // the same window (monotonicity of "s smallest distinct hashes").
        let small_cfg = MetaCacheConfig { sketch_size: s, ..MetaCacheConfig::default() };
        let large_cfg = MetaCacheConfig { sketch_size: s + 8, ..MetaCacheConfig::default() };
        let small = Sketcher::new(&small_cfg).unwrap().sketch_window(&seq);
        let large = Sketcher::new(&large_cfg).unwrap().sketch_window(&seq);
        prop_assert!(small.len() <= large.len());
        prop_assert_eq!(small.features(), &large.features()[..small.len()]);
    }

    #[test]
    fn lca_is_commutative_and_idempotent(
        a_idx in 0usize..12,
        b_idx in 0usize..12
    ) {
        // Fixed small taxonomy; indices choose taxa.
        let mut taxonomy = Taxonomy::with_root();
        taxonomy.add_node(2, 1, Rank::Domain, "D").unwrap();
        for g in 0..3u32 {
            taxonomy.add_node(10 + g, 2, Rank::Genus, format!("G{g}")).unwrap();
            for s in 0..3u32 {
                taxonomy
                    .add_node(100 + g * 10 + s, 10 + g, Rank::Species, format!("S{g}{s}"))
                    .unwrap();
            }
        }
        let ids: Vec<u32> = taxonomy.iter().map(|n| n.id).collect();
        let a = ids[a_idx % ids.len()];
        let b = ids[b_idx % ids.len()];
        let cache = taxonomy.lineage_cache();
        prop_assert_eq!(cache.lca(a, b), cache.lca(b, a));
        prop_assert_eq!(cache.lca(a, a), a);
        let l = cache.lca(a, b);
        prop_assert_eq!(cache.lca(l, a), l);
        prop_assert_eq!(cache.lca(l, b), l);
        prop_assert_eq!(cache.lca(a, b), taxonomy.lca(a, b));
    }

    #[test]
    fn window_count_statistic_conserves_hits(
        locs in vec((0u32..20, 0u32..100), 0..500)
    ) {
        let mut locations: Vec<Location> =
            locs.iter().map(|(t, w)| Location::new(*t, *w)).collect();
        locations.sort_unstable_by_key(|l| l.pack());
        let mut counts = Vec::new();
        accumulate_locations_into(&locations, &mut counts);
        let total: u32 = counts.iter().map(|(_, c)| *c).sum();
        prop_assert_eq!(total as usize, locations.len());
        // Accumulated locations are strictly increasing.
        prop_assert!(counts.windows(2).all(|w| w[0].0 < w[1].0));
    }
}

/// A location list as stage 3 receives it: `n` locations of one key shape,
/// dealt at random into `runs` runs, each run sorted as a bucket keeps it,
/// the runs concatenated.
fn gathered_locations(seed: u64, n: usize, runs: usize, shape: u32, sliding: u32) -> Vec<Location> {
    let mut state = seed | 1;
    let mut next = |bound: u32| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((state >> 32) * bound as u64) >> 32) as u32
    };
    let mut dealt = vec![Vec::new(); runs];
    for i in 0..n as u32 {
        let location = match shape {
            // Few keys: duplicates within and across runs, ties on hits.
            0 => Location::new(next(6), next(24)),
            // The top of the key space, where `window + sliding` overflows u32.
            1 => Location::new(u32::MAX - next(3), u32::MAX - next(8)),
            // Keys with equal low bits, differing only from bit 20 up.
            2 => Location::new((next(4) << 20) | 0x5A5, (next(8) << 20) | 0x3C3),
            // Windows on the sliding edge: j·sliding, j·sliding + sliding − 1.
            3 => Location::new(next(3), next(6) * sliding + next(2) * (sliding - 1)),
            // Many targets at equal hits: 61 targets, the same two windows.
            _ => Location::new(i % 61, (i / 61) % 2),
        };
        dealt[next(runs as u32) as usize].push(location);
    }
    dealt
        .into_iter()
        .flat_map(|mut run| {
            run.sort_unstable();
            run
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// Stage 3's count → sort distinct → scan equals sorting the locations
    /// and running the reference accumulate and scan, bit for bit, with one
    /// counter reused over a read, its second half and the read again.
    #[test]
    fn window_counter_equals_sort_accumulate_scan(
        (seed, n, runs) in (any::<u64>(), 0usize..=500, 1usize..=300),
        (shape, top_index, sliding) in (0u32..5, 0usize..4, 1u32..=6),
    ) {
        let top = [1usize, 2, 4, 8][top_index];
        let gathered = gathered_locations(seed, n, runs, shape, sliding);
        let mut counter = WindowCounter::new();
        let mut list = CandidateList::new(top);
        for part in [&gathered[..], &gathered[n / 2..], &gathered[..]] {
            let mut sorted = part.to_vec();
            sorted.sort_unstable();
            let mut counts = Vec::new();
            accumulate_locations_into(&sorted, &mut counts);
            let mut expected = CandidateList::new(top);
            top_candidates_into(&counts, sliding as usize, &mut expected);
            counter.top_candidates_into(part, sliding as usize, &mut list);
            prop_assert_eq!(&list, &expected, "shape {} sliding {} top {}", shape, sliding, top);
        }
    }
}
