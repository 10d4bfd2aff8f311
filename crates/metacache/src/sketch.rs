//! Minhash sketching.
//!
//! A window's sketch is the set of the `s` smallest *distinct* hash values of
//! its canonical k-mers (§4.1). Reads are sketched the same way after being
//! split into windows of the database's window length (§4.2). The host
//! implementation here is the reference; the warp-kernel version in
//! [`crate::gpu`] produces identical sketches (asserted by tests) while
//! modelling the device execution of §5.3.
//!
//! # The zero-allocation hot path
//!
//! The paper's GPU pipeline never touches the heap per read: hashes live in
//! warp registers and sketches are written into pre-allocated device buffers
//! (§5.2–§5.3). The host path mirrors that with a two-part API:
//!
//! * [`SketchScratch`] — caller-owned scratch state: a buffer for all of a
//!   window's hashes, a buffer for those that survive the cut, and a
//!   per-window feature buffer. Both hash buffers are sized for a full
//!   window on first use and do not grow afterwards; *reusing* a scratch
//!   costs no allocation.
//! * [`Sketcher::sketch_window_into`] / [`Sketcher::sketch_record_into`] /
//!   [`Sketcher::for_each_window_sketch`] — sketch into caller-owned buffers.
//!   After warm-up these perform **zero heap allocations**.
//!
//! # Hash, cut, sort
//!
//! The kernel follows the order of the paper's warp kernel (§5.3: hash every
//! k-mer, sort, drop duplicates, keep the first `s`) with one step between
//! hashing and sorting that a CPU wants: of a window's `n` hashes only the
//! `s` smallest matter, and for uniformly distributed hashes those lie under
//! `2·s/(n+1)·2⁶⁴` almost always. So one pass writes all `n` hashes, a second
//! keeps those under that cut (≈ `2s` of them, selected without a
//! data-dependent branch), and only the survivors are sorted and
//! de-duplicated. When fewer than `s` distinct hashes survive — a
//! homopolymer, a short-period repeat, an unlucky window — all `n` are
//! sorted instead, so the result is the `s` smallest distinct hashes for
//! every input.
//!
//! The seed's collect→sort→dedup→truncate formulation is retained as
//! [`Sketcher::sketch_window_baseline`]: it is the reference oracle the
//! property tests compare against bit-for-bit, and the baseline the
//! `sketch` criterion bench measures speedups over;
//! [`Sketcher::sketch_record_baseline`] applies it to every window of a read.
//! There is no allocating convenience form of the hot path. A read is split
//! into windows in one place, which the hot path, its oracle and the GPU
//! query pipeline share, so they cannot disagree on a read's windows.

use mc_kmer::window::{num_windows, window_range, WindowParams};
use mc_kmer::{hash64, Feature};

use crate::config::MetaCacheConfig;

/// Reusable scratch state for allocation-free sketching.
///
/// Holds the two hash buffers of the hash → cut → sort kernel and a
/// per-window feature buffer. One scratch serves any number of sequential
/// sketching calls (its buffers are overwritten, not reallocated, between
/// windows); create one per worker thread and reuse it for every read —
/// `rayon`'s `map_init` in [`crate::query::Classifier::classify_batch`] does
/// exactly that via [`crate::query::QueryScratch`].
#[derive(Debug, Clone, Default)]
pub struct SketchScratch {
    /// Every canonical-k-mer hash of the window in progress. Kept at its
    /// high-water length — one slot per k-mer of a full window, sized on
    /// first use — and indexed, never pushed to.
    hashes: Vec<u64>,
    /// The hashes under the cut; same length as `hashes`.
    survivors: Vec<u64>,
    /// Per-window feature buffer used by [`Sketcher::for_each_window_sketch`].
    features: Vec<Feature>,
}

impl SketchScratch {
    /// Create an empty scratch. Buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a scratch pre-sized for sketches of `sketch_size` features.
    /// The hash buffers depend on the window length, which only a
    /// [`Sketcher`] knows: they are sized for a full window on first use.
    pub fn with_capacity(sketch_size: usize) -> Self {
        Self {
            features: Vec::with_capacity(sketch_size),
            ..Self::default()
        }
    }

    /// Make room for `kmers` hashes in both buffers. A no-op once they have
    /// reached that length, so nothing grows in steady state.
    #[inline]
    fn ensure(&mut self, kmers: usize) {
        if self.hashes.len() < kmers {
            self.hashes.resize(kmers, 0);
            self.survivors.resize(kmers, 0);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Windows this thread sketched through the sort-everything fallback.
    static FALLBACKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Sort `hashes` and append its `s` smallest distinct values to `out` as
/// 32-bit features, ascending; returns the number appended.
#[inline]
fn emit_smallest_distinct(hashes: &mut [u64], s: usize, out: &mut Vec<Feature>) -> usize {
    hashes.sort_unstable();
    let mut emitted = 0;
    let mut previous = None;
    for &hash in hashes.iter() {
        if previous == Some(hash) {
            continue;
        }
        if emitted == s {
            break;
        }
        out.push((hash >> 32) as Feature);
        emitted += 1;
        previous = Some(hash);
    }
    emitted
}

/// Sketcher bound to a configuration.
#[derive(Debug, Clone, Copy)]
pub struct Sketcher {
    params: WindowParams,
    sketch_size: usize,
}

impl Sketcher {
    /// Create a sketcher from a validated configuration.
    pub fn new(config: &MetaCacheConfig) -> crate::Result<Self> {
        Ok(Self {
            params: config.window_params()?,
            sketch_size: config.sketch_size,
        })
    }

    /// The window parameters used by this sketcher.
    pub fn window_params(&self) -> WindowParams {
        self.params
    }

    /// The sketch size `s`.
    pub fn sketch_size(&self) -> usize {
        self.sketch_size
    }

    /// Sketch one window into a caller-owned buffer — the allocation-free hot
    /// path. Appends the window's features (ascending, distinct) to `out` and
    /// returns the number appended. Reuses `scratch`; after warm-up this
    /// performs no heap allocation.
    ///
    /// Hash → cut → sort (see the module docs): exactly the `s` smallest
    /// distinct hashes for every input, bit-identical to
    /// [`Self::sketch_window_baseline`].
    pub fn sketch_window_into(
        &self,
        window: &[u8],
        scratch: &mut SketchScratch,
        out: &mut Vec<Feature>,
    ) -> usize {
        let s = self.sketch_size;
        let k = self.params.k() as usize;
        let full_window = self.params.window_len() as usize;
        // One slot per k-mer start; sized for a full window the first time so
        // shorter windows seen first do not cause a second growth.
        scratch.ensure((window.len().max(full_window) + 1).saturating_sub(k));
        let SketchScratch {
            hashes, survivors, ..
        } = scratch;

        // Hash: every canonical k-mer, in sequence order, no selection.
        let mut n = 0;
        mc_kmer::for_each_canonical_kmer(window, self.params.kmer(), |_, packed| {
            hashes[n] = hash64(packed);
            n += 1;
        });
        let hashes = &mut hashes[..n];

        // Cut: with more than 2s hashes, keep those under 2s/(n+1) of the
        // hash range — about 2s of them, and the s smallest are among them
        // unless fewer than s distinct values survive. The write is
        // unconditional and the cursor advances by the comparison's result,
        // so there is no branch to mispredict.
        if n > 2 * s {
            let cut = (u64::MAX / (n as u64 + 1)) * (2 * s as u64);
            let mut kept = 0;
            for &hash in hashes.iter() {
                survivors[kept] = hash;
                kept += usize::from(hash < cut);
            }
            // Sort: the survivors only.
            let start = out.len();
            if emit_smallest_distinct(&mut survivors[..kept], s, out) == s {
                return s;
            }
            out.truncate(start);
            #[cfg(test)]
            FALLBACKS.with(|count| count.set(count.get() + 1));
        }
        emit_smallest_distinct(hashes, s, out)
    }

    /// Reference oracle: sketch one window with the seed implementation,
    /// retained verbatim — per-k-mer canonicalisation (`O(k)` reverse
    /// complement per position) followed by collect → sort → dedup →
    /// truncate (two heap allocations and an `O(n log n)` sort per window).
    ///
    /// Retained for three purposes: the property tests assert the hot path
    /// is bit-identical to it, the `sketch` bench measures the hot
    /// path's speedup against it, and it documents the §4.1 definition
    /// directly.
    pub fn sketch_window_baseline(&self, window: &[u8]) -> Vec<Feature> {
        let mut hashes: Vec<u64> = mc_kmer::KmerIter::new(window, self.params.kmer())
            .map(|k| hash64(k.canonical().value()))
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        hashes.truncate(self.sketch_size);
        hashes.into_iter().map(|h| (h >> 32) as Feature).collect()
    }

    /// Number of windows a reference sequence of `len` bases produces.
    pub fn num_windows(&self, len: usize) -> u32 {
        num_windows(len, self.params)
    }

    /// Visit every non-empty window sketch of a reference sequence: calls
    /// `f(window_id, features)` per window, reusing `scratch` so the whole
    /// reference is sketched without per-window allocation. Returning
    /// [`std::ops::ControlFlow::Break`] from the visitor stops the walk early (e.g. the
    /// build path aborts on a fatal table error without sketching the rest of
    /// the genome). This is the build path of [`crate::build::CpuBuilder`].
    pub fn for_each_window_sketch(
        &self,
        sequence: &[u8],
        scratch: &mut SketchScratch,
        mut f: impl FnMut(u32, &[Feature]) -> std::ops::ControlFlow<()>,
    ) {
        let mut features = std::mem::take(&mut scratch.features);
        for w in 0..self.num_windows(sequence.len()) {
            let (start, end) = window_range(w, sequence.len(), self.params);
            features.clear();
            self.sketch_window_into(&sequence[start..end], scratch, &mut features);
            if !features.is_empty() {
                if let std::ops::ControlFlow::Break(()) = f(w, &features) {
                    break;
                }
            }
        }
        scratch.features = features;
    }

    /// The read split (§4.2): visit the windows a read and, after them, its
    /// mate are queried with. A sequence shorter than `k` gives no window,
    /// one of at most `w` bases gives itself, and a longer one gives the
    /// reference windows of [`num_windows`] / [`window_range`]. The query
    /// hot path, its baseline oracle and the GPU query pipeline all split
    /// reads here.
    pub(crate) fn for_each_read_window<'r>(
        &self,
        record: &'r mc_seqio::SequenceRecord,
        mut f: impl FnMut(&'r [u8]),
    ) {
        let k = self.params.k() as usize;
        let window_len = self.params.window_len() as usize;
        let mut split = |sequence: &'r [u8]| {
            if sequence.len() < k {
                return;
            }
            if sequence.len() <= window_len {
                f(sequence);
                return;
            }
            for w in 0..self.num_windows(sequence.len()) {
                let (start, end) = window_range(w, sequence.len(), self.params);
                f(&sequence[start..end]);
            }
        };
        split(&record.sequence);
        if let Some(mate) = &record.mate {
            split(&mate.sequence);
        }
    }

    /// Sketch a read and (if present) its mate into a caller-owned flat
    /// feature buffer — the query hot path. Features of all windows are
    /// appended to `out` in window order; returns the number of non-empty
    /// windows. Zero heap allocations after warm-up.
    ///
    /// The flat layout is sufficient for classification: candidate generation
    /// consumes the multiset of all window features plus the read's total
    /// length (see [`crate::query::Classifier::candidates`]).
    pub fn sketch_record_into(
        &self,
        record: &mc_seqio::SequenceRecord,
        scratch: &mut SketchScratch,
        out: &mut Vec<Feature>,
    ) -> usize {
        let mut windows = 0;
        self.for_each_read_window(record, |window| {
            if self.sketch_window_into(window, scratch, out) > 0 {
                windows += 1;
            }
        });
        windows
    }

    /// Reference oracle counterpart of [`Self::sketch_record_into`]: the
    /// features of every read window sketched with
    /// [`Self::sketch_window_baseline`], flat and in window order. The
    /// collect-sort baseline `tests/end_to_end.rs` holds the hot path to.
    pub fn sketch_record_baseline(&self, record: &mc_seqio::SequenceRecord) -> Vec<Feature> {
        let mut features = Vec::new();
        self.for_each_read_window(record, |window| {
            features.extend(self.sketch_window_baseline(window));
        });
        features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_kmer::CanonicalKmerIter;
    use mc_seqio::SequenceRecord;

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

    fn sketcher() -> Sketcher {
        Sketcher::new(&MetaCacheConfig::default()).unwrap()
    }

    #[test]
    fn sketch_has_at_most_s_distinct_sorted_features() {
        let s = sketcher();
        let window = make_seq(127, 1);
        let mut f = Vec::new();
        s.sketch_window_into(&window, &mut SketchScratch::new(), &mut f);
        assert!(f.len() <= 16);
        assert!(!f.is_empty());
        assert!(
            f.windows(2).all(|p| p[0] < p[1]),
            "features must be sorted distinct"
        );
    }

    #[test]
    fn sketch_is_smallest_hashes() {
        let s = sketcher();
        let window = make_seq(127, 2);
        let mut sketch = Vec::new();
        s.sketch_window_into(&window, &mut SketchScratch::new(), &mut sketch);
        // Recompute all hashes; the sketch must equal the s smallest distinct,
        // truncated to 32 bits.
        let mut hashes: Vec<u64> = CanonicalKmerIter::new(&window, s.window_params().kmer())
            .map(|k| hash64(k.value()))
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        let expected: Vec<Feature> = hashes
            .iter()
            .take(16)
            .map(|h| (h >> 32) as Feature)
            .collect();
        assert_eq!(sketch, expected);
    }

    #[test]
    fn bounded_selector_matches_baseline_oracle() {
        let s = sketcher();
        let mut scratch = SketchScratch::new();
        let mut features = Vec::new();
        for seed in 0..50u64 {
            let window = make_seq(40 + (seed as usize * 13) % 200, seed + 1);
            features.clear();
            s.sketch_window_into(&window, &mut scratch, &mut features);
            assert_eq!(features, s.sketch_window_baseline(&window), "seed {seed}");
        }
    }

    #[test]
    fn too_few_distinct_survivors_take_the_sort_everything_fallback() {
        let s = sketcher();
        let mut scratch = SketchScratch::new();
        let mut features = Vec::new();
        let fallbacks = || FALLBACKS.with(|count| count.get());

        // Period-2 repeat, 112 k-mers, two distinct hashes: whatever the cut
        // keeps, it is fewer than s distinct values.
        let repeat: Vec<u8> = b"AC".iter().cycle().take(127).copied().collect();
        let before = fallbacks();
        s.sketch_window_into(&repeat, &mut scratch, &mut features);
        assert_eq!(fallbacks(), before + 1, "the fallback branch was not taken");
        assert_eq!(features, s.sketch_window_baseline(&repeat));
        assert!(features.len() <= 2);

        // A random full window keeps ≈ 2s survivors and does not fall back;
        // a window of n ≤ 2s k-mers skips the cut, which is not a fallback.
        for window in [make_seq(127, 5), make_seq(16 + 2 * 16 - 1, 6)] {
            let before = fallbacks();
            features.clear();
            s.sketch_window_into(&window, &mut scratch, &mut features);
            assert_eq!(fallbacks(), before, "window of {} bases", window.len());
            assert_eq!(features.len(), 16);
            assert_eq!(features, s.sketch_window_baseline(&window));
        }
    }

    #[test]
    fn scratch_is_sized_for_a_full_window_by_its_first_use() {
        let s = sketcher();
        let mut scratch = SketchScratch::with_capacity(s.sketch_size());
        let mut features = Vec::new();
        // A 20-base read first: 5 k-mers, yet room for a full window's 112.
        s.sketch_window_into(&make_seq(20, 1), &mut scratch, &mut features);
        let sized = (scratch.hashes.capacity(), scratch.survivors.capacity());
        assert_eq!((scratch.hashes.len(), scratch.survivors.len()), (112, 112));
        for seed in 0..20 {
            s.sketch_window_into(&make_seq(127, seed), &mut scratch, &mut features);
        }
        assert_eq!(
            (scratch.hashes.capacity(), scratch.survivors.capacity()),
            sized
        );
    }

    #[test]
    fn scratch_reuse_does_not_leak_state_between_windows() {
        let s = sketcher();
        let mut scratch = SketchScratch::new();
        let mut features = Vec::new();
        let a = make_seq(127, 3);
        let b = make_seq(127, 4);
        // Sketch a, then b, then a again with the same scratch.
        s.sketch_window_into(&a, &mut scratch, &mut features);
        let first_a = features.clone();
        features.clear();
        s.sketch_window_into(&b, &mut scratch, &mut features);
        features.clear();
        s.sketch_window_into(&a, &mut scratch, &mut features);
        assert_eq!(features, first_a);
        assert_eq!(first_a, s.sketch_window_baseline(&a));
    }

    #[test]
    fn sketch_record_into_is_flat_concatenation_of_window_sketches() {
        let s = sketcher();
        let mut scratch = SketchScratch::new();
        let mut features = Vec::new();
        let read = make_seq(250, 11);
        let mate = make_seq(101, 12);
        let r = SequenceRecord::new("r/1", read.clone())
            .with_mate(SequenceRecord::new("r/2", mate.clone()));
        let windows = s.sketch_record_into(&r, &mut scratch, &mut features);
        // 250 bases at stride 112: the reference windows [0, 127),
        // [112, 239), [224, 250); then the 101-base mate as one window.
        let expected: Vec<Feature> = [&read[0..127], &read[112..239], &read[224..], &mate[..]]
            .into_iter()
            .flat_map(|window| s.sketch_window_baseline(window))
            .collect();
        assert_eq!(windows, 4);
        assert_eq!(features, expected);
        assert_eq!(s.sketch_record_baseline(&r), expected);
    }

    #[test]
    fn identical_windows_share_sketch_mutated_windows_share_some_features() {
        let s = sketcher();
        let a = make_seq(127, 3);
        let mut b = a.clone();
        // Mutate 4 bases.
        for i in [10usize, 40, 80, 120] {
            b[i] = if b[i] == b'A' { b'C' } else { b'A' };
        }
        let mut scratch = SketchScratch::new();
        let [mut sa, mut sb, mut again] = [(); 3].map(|_| Vec::new());
        s.sketch_window_into(&a, &mut scratch, &mut sa);
        s.sketch_window_into(&b, &mut scratch, &mut sb);
        s.sketch_window_into(&a, &mut scratch, &mut again);
        assert_eq!(sa, again);
        let shared = sa.iter().filter(|f| sb.contains(f)).count();
        assert!(shared >= 4, "mutated window shares only {shared} features");
        assert!(shared < 16, "mutation should change some features");
    }

    #[test]
    fn window_shorter_than_k_yields_empty() {
        let s = sketcher();
        let mut scratch = SketchScratch::new();
        let mut features = Vec::new();
        assert!(s.sketch_window_baseline(b"ACGTACGT").is_empty());
        let read = SequenceRecord::new("r", b"ACGTACGT".to_vec());
        assert_eq!(s.sketch_record_into(&read, &mut scratch, &mut features), 0);
        assert_eq!(
            s.sketch_window_into(b"ACGTACGT", &mut scratch, &mut features),
            0
        );
        assert!(features.is_empty());
    }

    #[test]
    fn all_n_window_yields_empty_sketch() {
        let s = sketcher();
        let window = vec![b'N'; 127];
        let mut features = Vec::new();
        s.sketch_window_into(&window, &mut SketchScratch::new(), &mut features);
        assert!(features.is_empty());
        assert!(s.sketch_window_baseline(&window).is_empty());
    }

    #[test]
    fn reference_sketching_covers_all_windows() {
        let s = sketcher();
        let genome = make_seq(10_000, 7);
        let mut ids = Vec::new();
        s.for_each_window_sketch(&genome, &mut SketchScratch::new(), |w, _| {
            ids.push(w);
            std::ops::ControlFlow::Continue(())
        });
        let expected_windows = s.num_windows(genome.len());
        assert_eq!(ids.len(), expected_windows as usize);
        assert_eq!(ids[0], 0);
        assert_eq!(*ids.last().unwrap(), expected_windows - 1);
    }

    #[test]
    fn visitor_and_allocating_reference_sketching_agree() {
        let s = sketcher();
        let genome = make_seq(8_000, 17);
        let mut visited = 0;
        s.for_each_window_sketch(&genome, &mut SketchScratch::new(), |w, features| {
            let (start, end) = window_range(w, genome.len(), s.window_params());
            assert_eq!(features, s.sketch_window_baseline(&genome[start..end]));
            visited += 1;
            std::ops::ControlFlow::Continue(())
        });
        assert_eq!(visited, s.num_windows(genome.len()));
    }

    #[test]
    fn short_read_is_single_window_long_read_splits() {
        let s = sketcher();
        let mut scratch = SketchScratch::new();
        let mut features = Vec::new();
        let short = SequenceRecord::new("short", make_seq(100, 9));
        assert_eq!(s.sketch_record_into(&short, &mut scratch, &mut features), 1);
        let long = SequenceRecord::new("long", make_seq(250, 9));
        // 250 bases at stride 112 -> 3 windows (paper: MiSeq reads split into
        // two or more windows).
        assert!(s.sketch_record_into(&long, &mut scratch, &mut features) >= 2);
    }

    #[test]
    fn paired_record_combines_both_mates() {
        let s = sketcher();
        let r = SequenceRecord::new("r/1", make_seq(101, 11))
            .with_mate(SequenceRecord::new("r/2", make_seq(101, 12)));
        let mut features = Vec::new();
        let windows = s.sketch_record_into(&r, &mut SketchScratch::new(), &mut features);
        assert_eq!(windows, 2);
        assert!(features.len() > 16);
        assert_eq!(features, s.sketch_record_baseline(&r));
    }

    #[test]
    fn read_and_its_source_window_share_features() {
        // The core minhash property the classifier relies on: a read drawn
        // from a reference window shares most sketch features with it.
        let s = sketcher();
        let genome = make_seq(5_000, 21);
        // Aligned with window 10 (stride 112).
        let read = SequenceRecord::new("r", genome[1_120..1_220].to_vec());
        let mut read_sketch = Vec::new();
        let windows = s.sketch_record_into(&read, &mut SketchScratch::new(), &mut read_sketch);
        assert_eq!(windows, 1);
        let mut best_overlap = 0;
        s.for_each_window_sketch(&genome, &mut SketchScratch::new(), |_, sk| {
            let overlap = read_sketch.iter().filter(|f| sk.contains(f)).count();
            best_overlap = best_overlap.max(overlap);
            std::ops::ControlFlow::Continue(())
        });
        assert!(
            best_overlap >= 8,
            "best window overlap only {best_overlap}/16"
        );
    }
}
