//! Greedy maximum coverage (Algorithm 1, lines 3–7).
//!
//! Maximum coverage is NP-hard; the greedy algorithm that repeatedly picks
//! the node covering the most still-uncovered sets is a `(1 − 1/e)`
//! approximation (Vazirani \[29\]), and that factor is what Theorem 1's
//! guarantee rests on.
//!
//! The solver counts gains on demand (Minoux's accelerated greedy, as
//! CELF applies it to spread estimation). It keeps no gain table: a
//! node's gain is counted from its posting list against a bitmap of
//! covered sets, and only when the node reaches the front of the queue.
//! Candidates not yet counted stream from the collection's degree order,
//! their degree bounding their gain; counted ones wait in a max-heap
//! keyed by their last count. Coverage gain is submodular (gains only
//! fall), so a front candidate counted in the current round is the
//! round's argmax. Each round picks the largest `(gain, node)` pair, so
//! ties go to the larger node id; once every set is covered, rounds pad
//! with the smallest unselected id. Warm-pool replay in `tim_engine`
//! relies on this order being fixed.
//!
//! The loop counts only the sets `0..end` it is given
//! ([`greedy_max_cover_prefix`]); the other entry points give it the
//! whole collection. A recount cuts each ascending posting list at `end`,
//! so a warm pool answers any θ-prefix in place.

use crate::SetCollection;
use std::collections::BinaryHeap;
use tim_graph::NodeId;

/// Result of a greedy max-coverage run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverResult {
    /// The selected nodes, in selection order.
    pub seeds: Vec<NodeId>,
    /// Marginal number of sets newly covered by each selected node.
    pub marginal: Vec<usize>,
    /// Total number of sets covered by `seeds`.
    pub covered: usize,
}

impl CoverResult {
    /// Fraction of the collection's sets covered by the selection.
    pub fn coverage_fraction(&self, total_sets: usize) -> f64 {
        if total_sets == 0 {
            0.0
        } else {
            self.covered as f64 / total_sets as f64
        }
    }
}

/// Work counters for one greedy run: algorithmic work, not wall-clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Greedy rounds run (selected seeds plus padding rounds).
    pub rounds: usize,
    /// Posting-list recounts: candidates whose gain was counted against
    /// the covered sets.
    pub evals: usize,
    /// Recounted candidates pushed back into the heap at their new count
    /// (those whose count fell to zero are dropped instead).
    pub repushes: usize,
}

/// Greedy max-coverage, counting gains on demand.
///
/// Picks `k` distinct nodes (padding with the smallest unselected ids once
/// every set is covered, so the result always has `min(k, n)` seeds, as
/// Algorithm 1 always returns a size-`k` set).
///
/// ```
/// use tim_coverage::{greedy_max_cover, SetCollection};
///
/// let mut sets = SetCollection::new(5);
/// sets.push(&[0, 1]);
/// sets.push(&[0, 2]);
/// sets.push(&[3]);
/// let cover = greedy_max_cover(&mut sets, 2);
/// assert_eq!(cover.seeds[0], 0); // covers two sets
/// assert_eq!(cover.covered, 3);
/// ```
pub fn greedy_max_cover(collection: &mut SetCollection, k: usize) -> CoverResult {
    collection.ensure_inverted_index();
    greedy_max_cover_indexed(collection, k)
}

/// [`greedy_max_cover`] over a shared (`&`) collection whose inverted
/// index is already built — the same loop serves sampled collections and
/// collections mapped from `.timp` v2 pools.
///
/// The solver never writes the collection's arrays — the `&mut` in
/// [`greedy_max_cover`] exists only to build the lazy index; the first
/// run fills the collection's degree-order cache, once, through `&`.
/// Hot query paths that keep the index warm (e.g. `tim_engine`'s shared
/// pools serving concurrent readers) call this variant directly.
///
/// # Panics
/// Panics if the inverted index is stale
/// ([`SetCollection::has_inverted_index`] is false).
pub fn greedy_max_cover_indexed(collection: &SetCollection, k: usize) -> CoverResult {
    greedy_max_cover_indexed_stats(collection, k).0
}

/// [`greedy_max_cover_indexed`] with its [`EvalStats`] work counters:
/// `evals` counts posting-list recounts, `repushes` the recounted
/// candidates pushed back. The `CoverResult` is the same object the
/// uninstrumented entry point returns.
///
/// # Panics
/// Panics if the inverted index is stale
/// ([`SetCollection::has_inverted_index`] is false).
pub fn greedy_max_cover_indexed_stats(
    collection: &SetCollection,
    k: usize,
) -> (CoverResult, EvalStats) {
    lazy_greedy(collection, collection.len(), k)
}

/// [`greedy_max_cover_indexed`] counting only sets `0..end`: the answer
/// equals greedy on a copy that holds just those sets, so a pool answers
/// the θ-prefix a θ-run would have drawn (see `tim_core::parallel`)
/// without copying it.
///
/// A recount sees only the posting-list entries below `end`, so the loop
/// finds the same `(gain, node)` argmax in every round as over the copy,
/// and picks, marginals and the covered count agree bit for bit.
///
/// ```
/// use tim_coverage::{greedy_max_cover, greedy_max_cover_prefix, SetCollection};
///
/// let mut sets = SetCollection::new(4);
/// for s in [&[2][..], &[2, 3], &[0, 1], &[1]] {
///     sets.push(s);
/// }
/// sets.ensure_inverted_index();
/// // Sets 0..2 alone: node 2 covers both.
/// let cover = greedy_max_cover_prefix(&sets, 2, 1);
/// assert_eq!((cover.seeds[0], cover.covered), (2, 2));
///
/// let mut copy = SetCollection::new(4);
/// copy.push(&[2]);
/// copy.push(&[2, 3]);
/// assert_eq!(greedy_max_cover(&mut copy, 1), cover);
/// ```
///
/// # Panics
/// Panics if the inverted index is stale, or `end` is past
/// [`len`](SetCollection::len).
pub fn greedy_max_cover_prefix(collection: &SetCollection, end: usize, k: usize) -> CoverResult {
    lazy_greedy(collection, end, k).0
}

/// The one greedy loop behind every entry point, over sets `0..end`, with
/// its work counters. The module docs describe how it counts gains.
fn lazy_greedy(collection: &SetCollection, end: usize, k: usize) -> (CoverResult, EvalStats) {
    assert!(
        collection.has_inverted_index(),
        "inverted index is stale; call ensure_inverted_index first"
    );
    let n = collection.universe();
    let k = k.min(n);

    let len = collection.len();
    assert!(end <= len, "prefix end {end} is past the {len} sets held");
    // Posting lists ascend, so one binary search cuts a list at `end`.
    let postings = |v: NodeId| {
        let list = collection.sets_containing(v);
        if end == len {
            list
        } else {
            &list[..list.partition_point(|&s| (s as usize) < end)]
        }
    };
    let mut covered = vec![0u64; end.div_ceil(64)];
    let is_covered = |covered: &[u64], s: u32| covered[s as usize / 64] >> (s % 64) & 1;

    // Candidates as `(bound, node)` packed into one `u64`, so comparing
    // keys compares gains first and breaks ties toward the larger id. A
    // node's degree over the whole collection is its first bound.
    let key = |bound: usize, v: NodeId| (bound as u64) << 32 | u64::from(v);
    let order = collection.degree_order();
    let mut streamed = 0;
    let mut heap = BinaryHeap::new();
    // The round in which each node was last counted (0: never).
    let mut counted_in = vec![0u32; n];

    let mut result = CoverResult {
        seeds: Vec::with_capacity(k),
        marginal: Vec::with_capacity(k),
        covered: 0,
    };
    let mut stats = EvalStats::default();

    while result.seeds.len() < k {
        let round = result.seeds.len() as u32 + 1;
        let best = loop {
            let next = order.get(streamed).map(|&v| key(collection.degree(v), v));
            let front = match (next, heap.peek()) {
                (None, None) => break None,
                (Some(next), top) if top.is_none_or(|&top| next > top) => {
                    streamed += 1;
                    next
                }
                _ => heap.pop().expect("heap has the front"),
            };
            let v = front as NodeId;
            if counted_in[v as usize] == round {
                break Some((v, (front >> 32) as usize));
            }
            counted_in[v as usize] = round;
            stats.evals += 1;
            let gain = postings(v)
                .iter()
                .map(|&s| 1 - is_covered(&covered, s) as usize)
                .sum();
            if gain > 0 {
                heap.push(key(gain, v));
                stats.repushes += 1;
            }
        };
        let Some((v, gain)) = best else { break };
        for &s in postings(v) {
            covered[s as usize / 64] |= 1 << (s % 64);
        }
        result.covered += gain;
        result.seeds.push(v);
        result.marginal.push(gain);
    }

    // Every remaining gain is zero: pad with the smallest unselected ids
    // so |S| = k, as Algorithm 1 requires.
    if result.seeds.len() < k {
        let mut taken = result.seeds.clone();
        taken.sort_unstable();
        let pad = (0..n as NodeId).filter(|v| taken.binary_search(v).is_err());
        result.seeds.extend(pad.take(k - taken.len()));
        result.marginal.resize(k, 0);
    }
    stats.rounds = k;
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collection(sets: &[&[NodeId]], n: usize) -> SetCollection {
        let mut c = SetCollection::new(n);
        for s in sets {
            c.push(s);
        }
        c
    }

    #[test]
    fn picks_the_dominant_node_first() {
        // Node 9 covers 3 sets, others 1 each.
        let mut c = collection(&[&[9, 0], &[9, 1], &[9, 2], &[3]], 10);
        let r = greedy_max_cover(&mut c, 2);
        assert_eq!(r.seeds[0], 9);
        assert_eq!(r.marginal[0], 3);
        assert_eq!(r.seeds[1], 3);
        assert_eq!(r.covered, 4);
    }

    #[test]
    fn marginal_gains_are_non_increasing_in_effect() {
        // Greedy marginals on a coverage instance are non-increasing.
        let mut c = collection(&[&[0, 1], &[0, 2], &[0, 3], &[1, 2], &[4], &[4, 1]], 6);
        let r = greedy_max_cover(&mut c, 4);
        for w in r.marginal.windows(2) {
            assert!(
                w[0] >= w[1],
                "marginals must be non-increasing: {:?}",
                r.marginal
            );
        }
    }

    #[test]
    fn covered_equals_sum_of_marginals_and_matches_fraction() {
        let mut c = collection(&[&[0], &[1], &[2], &[0, 1]], 4);
        let r = greedy_max_cover(&mut c, 3);
        assert_eq!(r.covered, r.marginal.iter().sum::<usize>());
        let frac = r.coverage_fraction(c.len());
        assert_eq!(frac, r.covered as f64 / 4.0);
        assert_eq!(c.count_covered(&r.seeds), r.covered);
    }

    #[test]
    fn greedy_is_optimal_on_small_instances() {
        // Brute-force check of the (1 - 1/e) bound — on tiny instances
        // greedy is usually optimal; we check it is never below the bound.
        let sets: Vec<&[NodeId]> = vec![&[0, 1, 2], &[2, 3], &[3, 4], &[4, 0], &[1, 3]];
        let n = 5;
        for k in 1..=3 {
            let mut c = collection(&sets, n);
            let greedy = greedy_max_cover(&mut c, k);
            // Brute force all k-subsets of the universe.
            let mut best = 0;
            let nodes: Vec<NodeId> = (0..n as NodeId).collect();
            let mut idx = vec![0usize; k];
            fn combos(
                nodes: &[NodeId],
                k: usize,
                start: usize,
                cur: &mut Vec<NodeId>,
                best: &mut usize,
                c: &SetCollection,
            ) {
                if cur.len() == k {
                    *best = (*best).max(c.count_covered(cur));
                    return;
                }
                for i in start..nodes.len() {
                    cur.push(nodes[i]);
                    combos(nodes, k, i + 1, cur, best, c);
                    cur.pop();
                }
            }
            let mut cur = Vec::new();
            combos(&nodes, k, 0, &mut cur, &mut best, &c);
            idx.clear();
            let bound = (1.0 - 1.0 / std::f64::consts::E) * best as f64;
            assert!(
                greedy.covered as f64 >= bound - 1e-9,
                "k={k}: greedy {} below bound {bound} (opt {best})",
                greedy.covered
            );
        }
    }

    #[test]
    fn pads_to_k_seeds_when_everything_is_covered() {
        let mut c = collection(&[&[0]], 5);
        let r = greedy_max_cover(&mut c, 3);
        assert_eq!(r.seeds.len(), 3);
        assert_eq!(r.covered, 1);
        // Padded seeds are the smallest unselected ids and contribute
        // zero marginal.
        assert_eq!(r.seeds, vec![0, 1, 2]);
        assert_eq!(r.marginal[1], 0);
        assert_eq!(r.marginal[2], 0);
    }

    #[test]
    fn k_larger_than_universe_is_clamped() {
        let mut c = collection(&[&[0, 1]], 2);
        let r = greedy_max_cover(&mut c, 10);
        assert_eq!(r.seeds.len(), 2);
    }

    #[test]
    fn seeds_are_distinct() {
        let c = collection(&[&[0, 1], &[1, 2], &[2, 0], &[3, 1]], 4);
        for k in 1..=4 {
            let r = greedy_max_cover(&mut c.clone(), k);
            let mut s = r.seeds.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), r.seeds.len(), "duplicate seeds at k={k}");
        }
    }

    #[test]
    fn indexed_variants_match_the_mutable_entry_points() {
        let mut c = collection(&[&[9, 0], &[9, 1], &[9, 2], &[3], &[1, 2]], 10);
        let want = greedy_max_cover(&mut c.clone(), 3);
        c.ensure_inverted_index();
        let shared: &SetCollection = &c;
        assert_eq!(greedy_max_cover_indexed(shared, 3), want);
    }

    #[test]
    fn stats_variant_counts_lazy_heap_work() {
        let mut c = collection(&[&[9, 0], &[9, 1], &[9, 2], &[3], &[1, 2]], 10);
        c.ensure_inverted_index();
        let (result, stats) = greedy_max_cover_indexed_stats(&c, 3);
        assert_eq!(result, greedy_max_cover_indexed(&c, 3));
        assert_eq!(stats.rounds, 3);
        // Every selected round recounts at least the node it picks.
        assert!(stats.evals >= stats.rounds, "{stats:?}");
        // Padding rounds (everything covered) still count as rounds.
        let mut tiny = collection(&[&[0]], 5);
        tiny.ensure_inverted_index();
        let (r, s) = greedy_max_cover_indexed_stats(&tiny, 4);
        assert_eq!(r.seeds.len(), 4);
        assert_eq!(s.rounds, 4);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn indexed_variant_panics_without_an_index() {
        let c = collection(&[&[0, 1]], 3);
        let _ = greedy_max_cover_indexed(&c, 1);
    }

    #[test]
    #[should_panic(expected = "past the 3 sets held")]
    fn prefix_variant_rejects_an_end_past_the_sets() {
        let mut c = collection(&[&[0], &[1], &[2]], 3);
        c.ensure_inverted_index();
        let _ = greedy_max_cover_prefix(&c, 4, 1);
    }

    #[test]
    fn an_empty_prefix_covers_nothing_and_pads() {
        let mut c = collection(&[&[2], &[1, 2], &[0]], 3);
        c.ensure_inverted_index();
        let empty = greedy_max_cover_prefix(&c, 0, 2);
        assert_eq!((empty.covered, &empty.seeds[..]), (0, &[0, 1][..]));
        assert_eq!(empty.marginal, [0, 0]);
        // The whole collection is the indexed entry point's answer.
        assert_eq!(
            greedy_max_cover_prefix(&c, 3, 2),
            greedy_max_cover_indexed(&c, 2)
        );
    }

    #[test]
    fn empty_collection_still_returns_k_seeds() {
        let mut c = SetCollection::new(4);
        let r = greedy_max_cover(&mut c, 2);
        assert_eq!(r.seeds.len(), 2);
        assert_eq!(r.covered, 0);
    }

    #[test]
    fn variants_agree_on_random_instances() {
        use tim_rng::{RandomSource, Rng};
        let mut rng = Rng::seed_from_u64(42);
        for trial in 0..20 {
            let n = 30;
            let mut c = SetCollection::new(n);
            let sets = 50;
            for _ in 0..sets {
                let size = 1 + rng.next_index(5);
                let members: Vec<NodeId> = {
                    let mut m: Vec<NodeId> =
                        (0..size).map(|_| rng.next_index(n) as NodeId).collect();
                    m.sort_unstable();
                    m.dedup();
                    m
                };
                c.push(&members);
            }
            let k = 1 + rng.next_index(8);
            let a = greedy_max_cover(&mut c, k);
            let (b, stats) = greedy_max_cover_indexed_stats(&c, k);
            assert_eq!(a, b, "trial {trial} k={k}");
            assert_eq!(a, greedy_max_cover_indexed(&c, k), "trial {trial} k={k}");
            assert_eq!(stats.rounds, k, "trial {trial}");
        }
    }
}
