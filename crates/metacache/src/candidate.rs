//! Window count statistics and top-candidate generation.
//!
//! After querying a read's sketch features, the retrieved locations are
//! "merged and identical locations are accumulated. This yields a (sparse)
//! histogram of hit counts per window in the reference genomes (window count
//! statistic) … the window count statistic is scanned with a sliding window
//! approach to find target regions with the highest aggregated hit counts in
//! a contiguous window range. The top m counts (top hits) are then used to
//! classify the read." (§4.2, §5.6)
//!
//! Two paths compute the same [`CandidateList`], bit for bit:
//!
//! * [`WindowCounter`] is the host hot path. It counts a read's gathered
//!   locations by key in a reused hash table, sorts only the distinct
//!   locations, and scans them once with a running sum. A long read gathers
//!   several times more locations than it has distinct ones, so counting
//!   before ordering is the host's form of the paper's segmented sort and
//!   window scan (§5.5–5.6).
//! * [`accumulate_locations_into`] + [`top_candidates_into`] over a sorted
//!   location list is the reference path. The GPU model runs it after its
//!   segmented sort, and the tests hold [`WindowCounter`] to it.

use std::cmp::Reverse;

use mc_kmer::{Location, TargetId};

/// One candidate region: a contiguous window range of a target and the
/// number of feature hits accumulated over that range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The reference target.
    pub target: TargetId,
    /// First window of the candidate range (inclusive).
    pub window_begin: u32,
    /// Last window of the candidate range (inclusive).
    pub window_end: u32,
    /// Total hits accumulated over the range.
    pub hits: u32,
}

impl Candidate {
    /// The list order: hits descending, then target ascending, then first
    /// window ascending.
    fn rank(&self) -> (Reverse<u32>, TargetId, u32) {
        (Reverse(self.hits), self.target, self.window_begin)
    }
}

/// A bounded, descending-by-hits list of the best candidates of a read.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CandidateList {
    candidates: Vec<Candidate>,
    capacity: usize,
}

impl CandidateList {
    /// Create an empty list keeping at most `capacity` candidates.
    pub fn new(capacity: usize) -> Self {
        Self {
            candidates: Vec::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
        }
    }

    /// The candidates, best first.
    pub fn as_slice(&self) -> &[Candidate] {
        &self.candidates
    }

    /// The best candidate, if any.
    pub fn best(&self) -> Option<&Candidate> {
        self.candidates.first()
    }

    /// The runner-up candidate, if any.
    pub fn second(&self) -> Option<&Candidate> {
        self.candidates.get(1)
    }

    /// Number of candidates kept.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Clear the list and set a new capacity, retaining the allocation —
    /// used to reuse one list across reads on the query hot path.
    pub fn reset(&mut self, capacity: usize) {
        self.candidates.clear();
        self.capacity = capacity.max(1);
    }

    /// Insert a candidate, keeping at most one candidate per target and at
    /// most `capacity` candidates overall, ordered by hits descending, then
    /// target ascending, then first window ascending. A candidate replaces
    /// its target's incumbent only with strictly more hits, so on a tie the
    /// first one inserted stays.
    pub fn insert(&mut self, candidate: Candidate) {
        let rank = candidate.rank();
        // A full list turns away whatever ranks at or after its last entry
        // with one compare. Such a candidate cannot replace an incumbent of
        // its target either: the incumbent ranks no worse than the last.
        let outranked = self.candidates.len() >= self.capacity
            && self
                .candidates
                .last()
                .is_none_or(|last| last.rank() <= rank);
        if candidate.hits == 0 || outranked {
            return;
        }
        if let Some(i) = self
            .candidates
            .iter()
            .position(|c| c.target == candidate.target)
        {
            if candidate.hits <= self.candidates[i].hits {
                return;
            }
            self.candidates.remove(i);
        }
        let at = self.candidates.partition_point(|c| c.rank() < rank);
        self.candidates.truncate(self.capacity - 1);
        self.candidates.insert(at, candidate);
    }

    /// Insert every candidate of `other`, in order: the top-hit merge of
    /// Figure 2, which a router runs on each read's per-shard lists. Lists
    /// of one capacity over disjoint targets merge, in any order, into the
    /// list of all their candidates (the lemma the tests below check).
    pub fn merge(&mut self, other: impl AsRef<[Candidate]>) {
        for &c in other.as_ref() {
            self.insert(c);
        }
    }
}

impl AsRef<[Candidate]> for CandidateList {
    fn as_ref(&self) -> &[Candidate] {
        &self.candidates
    }
}

/// Accumulate a sorted location list into a caller-owned window count
/// statistic buffer (cleared first): runs of identical (target, window)
/// locations become `(location, count)` pairs, preserving order. The
/// reference path's first step.
pub fn accumulate_locations_into(sorted: &[Location], out: &mut Vec<(Location, u32)>) {
    out.clear();
    for &loc in sorted {
        match out.last_mut() {
            Some((last, count)) if *last == loc => *count += 1,
            _ => out.push((loc, 1)),
        }
    }
}

/// Scan the window count statistic with a sliding window of `sliding_window`
/// reference windows into a caller-owned candidate list (its current
/// capacity is kept; contents are replaced): the best contiguous ranges, at
/// most one per target. The reference path's second step.
///
/// `counts` must be sorted by location (target-major, window-minor), as
/// [`accumulate_locations_into`] leaves it on a sorted location list. Every
/// distinct location anchors one range, and every range is inserted.
pub fn top_candidates_into(
    counts: &[(Location, u32)],
    sliding_window: usize,
    list: &mut CandidateList,
) {
    list.candidates.clear();
    let sliding_window = sliding_window.max(1) as u64;
    let mut start = 0usize;
    while start < counts.len() {
        let (anchor, _) = counts[start];
        // Accumulate all entries of the same target whose window lies within
        // the sliding range starting at the anchor window.
        let mut hits = 0u32;
        let mut end_window = anchor.window;
        let mut i = start;
        while i < counts.len() {
            let (loc, count) = counts[i];
            if loc.target != anchor.target
                || (loc.window as u64) >= anchor.window as u64 + sliding_window
            {
                break;
            }
            hits += count;
            end_window = loc.window;
            i += 1;
        }
        list.insert(Candidate {
            target: anchor.target,
            window_begin: anchor.window,
            window_end: end_window,
            hits,
        });
        start += 1;
    }
}

/// Marks an unused slot of [`WindowCounter`]'s table. Indices into the
/// distinct list stay below it: a read gathers fewer than `u32::MAX`
/// locations.
const FREE: u32 = u32::MAX;

/// The fewest slots [`WindowCounter`]'s table has.
const MIN_SLOTS: usize = 16;

/// Stage 3 of the host query: a read's gathered locations, in any order, to
/// its top candidates — count, sort the distinct few, scan once.
///
/// 1. *Count.* The locations are reduced by packed `(target, window)` key
///    into `(location, count)` pairs in an open-addressing table: a
///    power-of-two number of slots ≥ 2n (at least 16), each holding an index
///    into the distinct list. Only the slots used are freed afterwards.
/// 2. *Sort* the distinct pairs by location.
/// 3. *Scan* each target's pairs with two pointers and a running sum (add on
///    the right, subtract on the left): every distinct location anchors the
///    range of windows `[window, window + sliding_window)`, as in
///    [`top_candidates_into`]. Each target's first best range is offered to
///    the list, in ascending target order.
///
/// The result equals sorting the locations and running
/// [`accumulate_locations_into`] and [`top_candidates_into`], bit for bit.
/// The reference inserts every range, but [`CandidateList::insert`] keeps
/// only a target's first maximum and a new target never displaces an
/// equal-hit incumbent of a lower target, so one offer per target, in target
/// order, leaves the same list. The scratch is reused across reads; after the
/// largest read it no longer allocates.
#[derive(Debug, Clone, Default)]
pub struct WindowCounter {
    /// Slot → index into `counts`, or [`FREE`]; every slot is free between
    /// calls.
    slots: Vec<u32>,
    /// The window count statistic: each distinct location and its count.
    counts: Vec<(Location, u32)>,
}

impl WindowCounter {
    /// Create an empty counter; its buffers size themselves on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace `list`'s contents (its capacity is kept) with the top
    /// candidates of `locations` under a sliding window of `sliding_window`
    /// reference windows.
    pub fn top_candidates_into(
        &mut self,
        locations: &[Location],
        sliding_window: usize,
        list: &mut CandidateList,
    ) {
        self.count(locations);
        self.counts
            .sort_unstable_by_key(|(location, _)| location.pack());
        list.candidates.clear();
        let sliding_window = sliding_window.max(1) as u64;
        let counts = &self.counts[..];
        let (mut end, mut hits) = (0usize, 0u32);
        let mut best = Candidate {
            target: 0,
            window_begin: 0,
            window_end: 0,
            hits: 0,
        };
        for &(anchor, anchor_count) in counts {
            if anchor.target != best.target {
                list.insert(best);
                best = Candidate {
                    target: anchor.target,
                    hits: 0,
                    ..best
                };
            }
            // `end` never trails the anchor: the previous range held its own
            // anchor, so the range always takes at least this one.
            let limit = anchor.window as u64 + sliding_window;
            while let Some(&(location, count)) = counts.get(end) {
                if location.target != anchor.target || location.window as u64 >= limit {
                    break;
                }
                hits += count;
                end += 1;
            }
            if hits > best.hits {
                best = Candidate {
                    target: anchor.target,
                    window_begin: anchor.window,
                    window_end: counts[end - 1].0.window,
                    hits,
                };
            }
            hits -= anchor_count;
        }
        list.insert(best);
    }

    /// Reduce `locations` into `self.counts`, in first-seen order.
    fn count(&mut self, locations: &[Location]) {
        assert!(
            locations.len() < FREE as usize,
            "a read's location list fits u32 indices"
        );
        let size = (2 * locations.len()).next_power_of_two().max(MIN_SLOTS);
        if self.slots.len() < size {
            self.slots.resize(size, FREE);
        }
        let slots = &mut self.slots[..size];
        let (mask, shift) = (size - 1, 64 - size.trailing_zeros());
        self.counts.clear();
        for &location in locations {
            let mut slot = home_slot(location, shift);
            loop {
                match slots[slot] {
                    FREE => {
                        slots[slot] = self.counts.len() as u32;
                        self.counts.push((location, 1));
                        break;
                    }
                    index => {
                        let entry = &mut self.counts[index as usize];
                        if entry.0 == location {
                            entry.1 += 1;
                            break;
                        }
                    }
                }
                slot = (slot + 1) & mask;
            }
        }
        // Free the used slots. Each location's probe from its home slot
        // reaches its own index whatever was freed before it, because the
        // search passes free slots instead of stopping at them.
        for (index, &(location, _)) in self.counts.iter().enumerate() {
            let mut slot = home_slot(location, shift);
            while slots[slot] != index as u32 {
                slot = (slot + 1) & mask;
            }
            slots[slot] = FREE;
        }
    }
}

/// A location's first slot in a table of `2^(64 - shift)` slots: the high
/// bits of its packed key times 2⁶⁴/φ (Fibonacci hashing), so keys that
/// differ only in their low bits spread over the table.
#[inline]
fn home_slot(location: Location, shift: u32) -> usize {
    (location.pack().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(t: u32, w: u32) -> Location {
        Location::new(t, w)
    }

    /// The top `max_candidates` of a window count statistic by the reference
    /// scan, asserted equal to [`WindowCounter`] on the same locations
    /// gathered in reverse order.
    fn top_candidates(
        counts: &[(Location, u32)],
        sliding_window: usize,
        max_candidates: usize,
    ) -> CandidateList {
        let mut list = CandidateList::new(max_candidates);
        top_candidates_into(counts, sliding_window, &mut list);
        let mut gathered: Vec<Location> = counts
            .iter()
            .flat_map(|&(location, count)| std::iter::repeat_n(location, count as usize))
            .collect();
        gathered.reverse();
        let mut counted = CandidateList::new(max_candidates);
        WindowCounter::new().top_candidates_into(&gathered, sliding_window, &mut counted);
        assert_eq!(counted, list, "counts {counts:?}, sliding {sliding_window}");
        list
    }

    #[test]
    fn accumulation_counts_runs() {
        let sorted = vec![
            loc(0, 1),
            loc(0, 1),
            loc(0, 2),
            loc(1, 0),
            loc(1, 0),
            loc(1, 0),
        ];
        let mut counts = vec![(loc(9, 9), 9)];
        accumulate_locations_into(&sorted, &mut counts);
        assert_eq!(counts, vec![(loc(0, 1), 2), (loc(0, 2), 1), (loc(1, 0), 3)]);
        accumulate_locations_into(&[], &mut counts);
        assert!(counts.is_empty());
    }

    /// Locations whose keys share a home slot chain through the table, and
    /// the freed table serves the next read: a reused counter equals the
    /// reference on each of several reads, including an empty one.
    #[test]
    fn counter_handles_colliding_keys_and_reuse() {
        // Eight distinct keys, all with the same home slot in a 16-slot
        // table (the size for up to 8 gathered locations).
        let shift = 64 - MIN_SLOTS.trailing_zeros();
        let home = home_slot(loc(3, 0), shift);
        let colliding: Vec<Location> = (0..u32::MAX)
            .map(|w| loc(3, w))
            .filter(|&l| home_slot(l, shift) == home)
            .take(8)
            .collect();
        let mut counter = WindowCounter::new();
        let mut list = CandidateList::new(4);
        let reads: [Vec<Location>; 4] = [
            colliding.clone(),
            colliding[..4]
                .iter()
                .chain(&colliding[2..6])
                .copied()
                .collect(),
            Vec::new(),
            (0..200).map(|i| loc(i % 7, i % 5)).collect(),
        ];
        for (i, read) in reads.iter().enumerate() {
            for sliding in [1, 3] {
                let mut sorted = read.clone();
                sorted.sort_unstable();
                let mut counts = Vec::new();
                accumulate_locations_into(&sorted, &mut counts);
                let mut expected = CandidateList::new(4);
                top_candidates_into(&counts, sliding, &mut expected);
                counter.top_candidates_into(read, sliding, &mut list);
                assert_eq!(list, expected, "read {i}, sliding {sliding}");
            }
        }
        assert!(counter.slots.iter().all(|&s| s == FREE));
    }

    #[test]
    fn top_candidates_prefers_contiguous_regions() {
        // Target 0 has 3+4 hits in adjacent windows; target 1 has 5 hits in a
        // single window; target 2 has 3+3 hits but in windows too far apart to
        // be covered by a sliding window of 2.
        let counts = vec![
            (loc(0, 10), 3),
            (loc(0, 11), 4),
            (loc(1, 5), 5),
            (loc(2, 0), 3),
            (loc(2, 9), 3),
        ];
        let list = top_candidates(&counts, 2, 4);
        assert_eq!(list.len(), 3);
        let best = list.best().unwrap();
        assert_eq!(best.target, 0);
        assert_eq!(best.hits, 7);
        assert_eq!((best.window_begin, best.window_end), (10, 11));
        assert_eq!(list.second().unwrap().target, 1);
        assert_eq!(list.as_slice()[2].hits, 3);
    }

    #[test]
    fn sliding_window_of_one_counts_single_windows() {
        let counts = vec![(loc(0, 10), 3), (loc(0, 11), 4)];
        let list = top_candidates(&counts, 1, 2);
        assert_eq!(list.best().unwrap().hits, 4);
        assert_eq!(list.best().unwrap().window_begin, 11);
    }

    #[test]
    fn one_candidate_per_target() {
        // Two separate high-scoring regions in the same target must collapse
        // to the better one.
        let counts = vec![(loc(7, 0), 5), (loc(7, 100), 9)];
        let list = top_candidates(&counts, 3, 4);
        assert_eq!(list.len(), 1);
        assert_eq!(list.best().unwrap().hits, 9);
        assert_eq!(list.best().unwrap().window_begin, 100);
    }

    #[test]
    fn capacity_limits_candidates() {
        let counts: Vec<(Location, u32)> = (0..10).map(|t| (loc(t, 0), 10 - t)).collect();
        let list = top_candidates(&counts, 2, 3);
        assert_eq!(list.len(), 3);
        assert_eq!(list.as_slice()[0].hits, 10);
        assert_eq!(list.as_slice()[2].hits, 8);
    }

    #[test]
    fn merge_combines_partition_results() {
        let mut a = CandidateList::new(3);
        a.insert(Candidate {
            target: 0,
            window_begin: 0,
            window_end: 1,
            hits: 10,
        });
        a.insert(Candidate {
            target: 1,
            window_begin: 0,
            window_end: 0,
            hits: 4,
        });
        let mut b = CandidateList::new(3);
        b.insert(Candidate {
            target: 2,
            window_begin: 5,
            window_end: 6,
            hits: 8,
        });
        b.insert(Candidate {
            target: 0,
            window_begin: 7,
            window_end: 8,
            hits: 12,
        });
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.best().unwrap().target, 0);
        assert_eq!(a.best().unwrap().hits, 12);
        assert_eq!(a.second().unwrap().target, 2);
    }

    #[test]
    fn zero_hit_candidates_are_ignored() {
        let mut list = CandidateList::new(2);
        list.insert(Candidate {
            target: 0,
            window_begin: 0,
            window_end: 0,
            hits: 0,
        });
        assert!(list.is_empty());
    }

    /// A default list has capacity 0: it keeps nothing, and a
    /// [`WindowCounter`] filling it does not fail.
    #[test]
    fn default_list_keeps_nothing() {
        let mut list = CandidateList::default();
        list.insert(Candidate {
            target: 1,
            window_begin: 0,
            window_end: 0,
            hits: 5,
        });
        assert!(list.is_empty());
        WindowCounter::new().top_candidates_into(&[loc(1, 0), loc(1, 0)], 2, &mut list);
        assert!(list.is_empty());
    }

    #[test]
    fn deterministic_tie_break_by_target() {
        let counts = vec![(loc(5, 0), 7), (loc(3, 0), 7)];
        let list = top_candidates(&counts, 2, 2);
        assert_eq!(list.best().unwrap().target, 3);
    }

    // ---- merge oracle ------------------------------------------------
    //
    // `merge` is the keystone of scatter-gather classification: the
    // sharded paths (`crate::shard`, `mc-net`'s router) are bit-identical
    // to the unsharded path only if merging per-shard top-m lists
    // reproduces the global top-m list exactly. The tests below pin that
    // lemma exhaustively on small universes against rebuild-from-scratch
    // oracles, so a future optimized merge (e.g. a sorted two-way merge)
    // cannot drift on ties, truncation or duplicate targets.

    fn cand(target: u32, window_begin: u32, hits: u32) -> Candidate {
        Candidate {
            target,
            window_begin,
            window_end: window_begin + 1,
            hits,
        }
    }

    fn list_of(capacity: usize, cands: &[Candidate]) -> CandidateList {
        let mut list = CandidateList::new(capacity);
        for &c in cands {
            list.insert(c);
        }
        list
    }

    /// The oracle of [`CandidateList::insert`]: replace the target's
    /// incumbent on strictly more hits or append, then re-sort the whole
    /// list and truncate it.
    fn insert_by_sort(list: &mut CandidateList, candidate: Candidate) {
        if candidate.hits == 0 {
            return;
        }
        match list
            .candidates
            .iter_mut()
            .find(|c| c.target == candidate.target)
        {
            Some(existing) if candidate.hits > existing.hits => *existing = candidate,
            Some(_) => {}
            None => list.candidates.push(candidate),
        }
        list.candidates.sort_by(|a, b| {
            b.hits
                .cmp(&a.hits)
                .then(a.target.cmp(&b.target))
                .then(a.window_begin.cmp(&b.window_begin))
        });
        list.candidates.truncate(list.capacity);
    }

    fn sorted_list_of(capacity: usize, cands: &[Candidate]) -> CandidateList {
        let mut list = CandidateList::new(capacity);
        for &c in cands {
            insert_by_sort(&mut list, c);
        }
        list
    }

    /// Ordered insertion equals the sort-based oracle on random insert
    /// sequences: ties on hits, on target and on both, zero hits, repeated
    /// candidates and every capacity up to beyond the sequence length.
    #[test]
    fn insert_matches_sort_oracle_on_random_sequences() {
        let mut state = 0x5EED_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % bound) as u32
        };
        for case in 0..4_000 {
            let capacity = 1 + case % 6;
            let len = next(14) as usize;
            let cands: Vec<Candidate> = (0..len).map(|_| cand(next(5), next(3), next(4))).collect();
            let mut list = CandidateList::new(capacity);
            let mut oracle = CandidateList::new(capacity);
            for &c in &cands {
                list.insert(c);
                insert_by_sort(&mut oracle, c);
                assert_eq!(list, oracle, "{cands:?} capacity {capacity}");
            }
        }
    }

    /// `a.merge(&b)` must equal inserting `b`'s entries into `a` one by
    /// one by the sort-based oracle — exhaustively over every pair of
    /// sub-multisets of a small candidate universe and every capacity,
    /// including hit ties and duplicate targets across the two lists.
    #[test]
    fn merge_matches_insert_oracle_exhaustively() {
        // 2 targets × 2 windows × 2 hit values = 8 distinct candidates.
        let universe: Vec<Candidate> = (1..=2u32)
            .flat_map(|t| [0u32, 5].into_iter().map(move |w| (t, w)))
            .flat_map(|(t, w)| [1u32, 2].into_iter().map(move |h| cand(t, w, h)))
            .collect();
        let mut cases = 0usize;
        // Each universe element goes to list A, list B or neither.
        for assignment in 0..3usize.pow(universe.len() as u32) {
            let mut a_items = Vec::new();
            let mut b_items = Vec::new();
            let mut code = assignment;
            for &c in &universe {
                match code % 3 {
                    0 => {}
                    1 => a_items.push(c),
                    _ => b_items.push(c),
                }
                code /= 3;
            }
            for capacity in 1..=3usize {
                let mut merged = list_of(capacity, &a_items);
                let b = list_of(capacity, &b_items);
                merged.merge(&b);
                let mut oracle = sorted_list_of(capacity, &a_items);
                for &c in sorted_list_of(capacity, &b_items).as_slice() {
                    insert_by_sort(&mut oracle, c);
                }
                assert_eq!(merged, oracle, "a={a_items:?} b={b_items:?} cap={capacity}");
                cases += 1;
            }
        }
        assert_eq!(cases, 3usize.pow(8) * 3);
    }

    /// The sharding lemma: when the two lists' target sets are disjoint
    /// (shards partition targets) and both kept the *same* capacity m,
    /// merging the truncated per-shard lists equals building one
    /// capacity-m list from all raw candidates — exhaustively over hit
    /// assignments, so every tie pattern is covered.
    #[test]
    fn disjoint_merge_equals_global_top_m_exhaustively() {
        // One candidate per target (what `top_candidates_into` emits),
        // shard 1 owns targets {1, 2}, shard 2 owns {3, 4}.
        for h1 in 1..=3u32 {
            for h2 in 1..=3u32 {
                for h3 in 1..=3u32 {
                    for h4 in 1..=3u32 {
                        let raw = [
                            cand(1, 2, h1),
                            cand(2, 4, h2),
                            cand(3, 6, h3),
                            cand(4, 8, h4),
                        ];
                        for m in 1..=4usize {
                            let shard1 = list_of(m, &raw[..2]);
                            let shard2 = list_of(m, &raw[2..]);
                            let mut merged = CandidateList::new(m);
                            merged.merge(&shard1);
                            merged.merge(&shard2);
                            let global = sorted_list_of(m, &raw);
                            assert_eq!(merged, global, "hits=({h1},{h2},{h3},{h4}) m={m}");
                            // Merge order must not matter for disjoint
                            // targets (shard reply order is arbitrary).
                            let mut flipped = CandidateList::new(m);
                            flipped.merge(&shard2);
                            flipped.merge(&shard1);
                            assert_eq!(flipped, global);
                        }
                    }
                }
            }
        }
    }

    /// Duplicate targets across merged lists collapse to the best entry;
    /// on an exact hit tie the incumbent wins (`insert` replaces only on
    /// strictly more hits). This keep-first rule is why bit-equivalence
    /// needs disjoint shard targets — same-target ties from *different*
    /// lists would be order-dependent — and shard splits guarantee
    /// exactly that.
    #[test]
    fn duplicate_targets_keep_best_and_incumbent_on_ties() {
        let mut a = list_of(4, &[cand(7, 0, 5)]);
        a.merge(list_of(4, &[cand(7, 9, 8)]));
        assert_eq!(a.as_slice(), &[cand(7, 9, 8)], "higher hits replace");

        let mut tie = list_of(4, &[cand(7, 0, 5)]);
        tie.merge(list_of(4, &[cand(7, 9, 5)]));
        assert_eq!(tie.as_slice(), &[cand(7, 0, 5)], "ties keep incumbent");

        // With distinct hits the collapse is order-independent.
        let mut rev = list_of(4, &[cand(7, 9, 8)]);
        rev.merge(list_of(4, &[cand(7, 0, 5)]));
        assert_eq!(rev.as_slice(), &[cand(7, 9, 8)]);
    }

    /// Merging into a smaller-capacity list truncates to the best m with
    /// the full tie order (hits desc, target asc, window asc) applied
    /// before the cut.
    #[test]
    fn merge_truncates_by_full_tie_order() {
        let big = list_of(
            4,
            &[cand(4, 0, 7), cand(2, 0, 7), cand(3, 0, 9), cand(1, 0, 1)],
        );
        let mut small = CandidateList::new(2);
        small.merge(&big);
        assert_eq!(small.as_slice(), &[cand(3, 0, 9), cand(2, 0, 7)]);
        // The tied target 4 lost to target 2 on the target tie-break.
    }
}
