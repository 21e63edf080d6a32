//! Deterministic (optionally parallel) bulk RR-set generation.
//!
//! The paper lists distributing TIM as future work (§8); sampling θ
//! independent RR sets is embarrassingly parallel, so this module provides
//! it as an extension. Determinism is preserved by sharding the work into a
//! fixed number of shards with `jump()`-separated RNG streams: the produced
//! multiset of RR sets is a pure function of `(seed, θ)` and identical for
//! every thread count.

use std::ops::Range;
use tim_coverage::SetCollection;
use tim_diffusion::{DiffusionModel, RrSampler, RrStats};
use tim_graph::Graph;
use tim_rng::Rng;

/// Fixed shard count, chosen so shards are plentiful enough to balance yet
/// results never depend on how many threads execute them.
pub const SHARDS: u64 = 64;

/// Per-shard set counts for a `theta`-set generation run: shard `i`
/// produces `shard_layout(theta)[i]` sets, and the output collection is
/// the shard-order concatenation.
///
/// Two properties make pools **prefix-composable**, which `tim_engine`
/// exploits to serve smaller-θ queries from a larger persisted pool
/// without resampling:
///
/// 1. shard `i`'s RNG stream depends only on `(seed, i)`, never on θ, so
///    shard `i`'s `j`-th set is the same in every run that reaches it;
/// 2. `shard_layout(θ)[i]` is non-decreasing in θ (growing θ by one adds
///    exactly one set to one shard).
///
/// Hence the collection for any `θ' ≤ θ` is recovered exactly by taking
/// the first `shard_layout(θ')[i]` sets of each shard of the θ-run.
pub fn shard_layout(theta: u64) -> Vec<u64> {
    let shards = SHARDS.min(theta.max(1));
    let per = theta / shards;
    let extra = theta % shards;
    (0..shards).map(|i| per + u64::from(i < extra)).collect()
}

/// The set ids a `theta`-set run occupies inside a `pool_theta`-set run
/// on the same stream: one range per shard of `shard_layout(pool_theta)`
/// (64 once `pool_theta ≥ 64`), shard `i`'s range holding its first
/// `shard_layout(theta)[i]` sets (none past the end of that layout).
/// Concatenated in order, the ranges' sets are exactly the `theta`-run's
/// collection, which is what lets a pool answer for any smaller θ in
/// place (`tim_coverage::greedy_max_cover_ranges`).
///
/// # Panics
/// Panics if `theta > pool_theta`: a larger run is not inside the pool,
/// and its ranges would read other shards' sets.
pub fn prefix_ranges(pool_theta: u64, theta: u64) -> Vec<Range<usize>> {
    assert!(
        theta <= pool_theta,
        "prefix_ranges: theta {theta} exceeds the pool's {pool_theta}"
    );
    let want = shard_layout(theta);
    let mut start = 0usize;
    shard_layout(pool_theta)
        .iter()
        .enumerate()
        .map(|(i, &have)| {
            let take = want.get(i).copied().unwrap_or(0) as usize;
            let range = start..start + take;
            start += have as usize;
            range
        })
        .collect()
}

/// Aggregate statistics of a bulk generation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct BulkStats {
    /// Σ w(R) over all generated sets.
    pub total_width: u64,
    /// Σ |R| over all generated sets.
    pub total_nodes: u64,
}

impl BulkStats {
    fn add(&mut self, s: RrStats) {
        self.total_width += s.width;
        self.total_nodes += s.nodes;
    }

    fn merge(&mut self, o: BulkStats) {
        self.total_width += o.total_width;
        self.total_nodes += o.total_nodes;
    }
}

/// Where each of the [`SHARDS`] RNG streams stands after a sampling run:
/// shard `i`'s cursor continues its stream right after the sets the run
/// drew from it. Kept beside a pool, the cursors let the pool grow by
/// drawing only each shard's tail ([`extend_rr_sets`]) instead of
/// redrawing every set.
#[derive(Debug, Clone)]
pub struct ShardCursors {
    theta: u64,
    rngs: Vec<Rng>,
}

impl ShardCursors {
    /// The cursors of an empty run on `seed`'s streams: every shard at
    /// its start. Shard `i`'s stream is the `i`-th `split_off` of the
    /// seed's generator, whatever θ a run reaches.
    pub fn start(seed: u64) -> Self {
        let mut base = Rng::seed_from_u64(seed);
        ShardCursors {
            theta: 0,
            rngs: (0..SHARDS).map(|_| base.split_off()).collect(),
        }
    }

    /// θ of the run the cursors follow.
    pub fn theta(&self) -> u64 {
        self.theta
    }
}

/// Generates `theta` random RR sets into a [`SetCollection`].
///
/// `threads = 1` runs inline; larger values use scoped worker threads. The
/// output is identical for any `threads` value — and whether the graph
/// owns its arrays or maps a v2 snapshot: the shard RNG streams depend
/// only on `(seed, shard)`, so a heap-loaded and a mapped copy of the
/// same snapshot produce bit-identical collections.
///
/// This is [`extend_rr_sets`] from an empty pool.
pub fn generate_rr_sets<M: DiffusionModel + Sync>(
    graph: &Graph,
    model: &M,
    theta: u64,
    seed: u64,
    threads: usize,
) -> (SetCollection, BulkStats) {
    let empty = SetCollection::new(graph.n());
    let (sets, _, stats) = extend_rr_sets(
        graph,
        model,
        &empty,
        &ShardCursors::start(seed),
        theta,
        threads,
    );
    (sets, stats)
}

/// Extends `pool`, the `cursors.theta()`-set run the cursors follow, to
/// the `theta`-set run on the same streams, returning that run, its
/// cursors and the statistics of the sets drawn. Only each shard's tail
/// is drawn: shard `i` keeps its `shard_layout(cursors.theta())[i]` sets
/// from `pool` and draws up to `shard_layout(theta)[i]` from its cursor.
/// By prefix composability the result is byte-identical to
/// [`generate_rr_sets`] at `theta`, for any `threads`.
///
/// # Panics
/// Panics if the graph is empty, if `pool` does not hold
/// `cursors.theta()` sets, or if `theta < cursors.theta()`.
pub fn extend_rr_sets<M: DiffusionModel + Sync>(
    graph: &Graph,
    model: &M,
    pool: &SetCollection,
    cursors: &ShardCursors,
    theta: u64,
    threads: usize,
) -> (SetCollection, ShardCursors, BulkStats) {
    assert!(graph.n() >= 1, "extend_rr_sets: empty graph");
    assert_eq!(
        pool.len() as u64,
        cursors.theta,
        "extend_rr_sets: the pool does not hold the run its cursors follow"
    );
    assert!(
        theta >= cursors.theta,
        "extend_rr_sets: theta {theta} is below the pool's {}",
        cursors.theta
    );
    // Shard i keeps pool sets kept[i] and draws draws[i] more.
    let have = shard_layout(cursors.theta);
    let want = shard_layout(theta);
    let mut start = 0usize;
    let kept: Vec<Range<usize>> = (0..want.len())
        .map(|i| {
            let n = have.get(i).copied().unwrap_or(0) as usize;
            start += n;
            start - n..start
        })
        .collect();
    let draws: Vec<u64> = want
        .iter()
        .zip(&kept)
        .map(|(&w, kept)| w - kept.len() as u64)
        .collect();
    let mut rngs = cursors.rngs.clone();
    let drawn = draws.iter().sum::<u64>() as usize;
    let mut collection =
        SetCollection::with_capacity(graph.n(), theta as usize, pool.total_members() + drawn * 2);
    let mut stats = BulkStats::default();

    // Without the `parallel` feature every request runs the inline path;
    // output is identical either way, only wall-clock differs.
    let threads = if cfg!(feature = "parallel") {
        threads.max(1).min(want.len())
    } else {
        1
    };
    if threads == 1 {
        let mut sampler = RrSampler::new(model);
        let mut buf = Vec::new();
        for ((rng, &count), kept) in rngs.iter_mut().zip(&draws).zip(&kept) {
            collection.extend_from(pool, kept.clone());
            for _ in 0..count {
                let (_, s) = sampler.sample_random(graph, rng, &mut buf);
                stats.add(s);
                collection.push(&buf);
            }
        }
        return (collection, ShardCursors { theta, rngs }, stats);
    }

    // Parallel path: each shard draws its tail into a local collection;
    // merge in shard order so the result is thread-count independent.
    let mut locals: Vec<Option<(SetCollection, BulkStats)>> =
        (0..want.len()).map(|_| None).collect();
    let chunk = want.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for ((rng_chunk, count_chunk), out_chunk) in rngs
            .chunks_mut(chunk)
            .zip(draws.chunks(chunk))
            .zip(locals.chunks_mut(chunk))
        {
            scope.spawn(move || {
                let mut sampler = RrSampler::new(model);
                let mut buf = Vec::new();
                for ((rng, &count), slot) in rng_chunk
                    .iter_mut()
                    .zip(count_chunk)
                    .zip(out_chunk.iter_mut())
                {
                    let mut local =
                        SetCollection::with_capacity(graph.n(), count as usize, count as usize * 2);
                    let mut stats = BulkStats::default();
                    for _ in 0..count {
                        let (_, s) = sampler.sample_random(graph, rng, &mut buf);
                        stats.add(s);
                        local.push(&buf);
                    }
                    *slot = Some((local, stats));
                }
            });
        }
    });

    for (slot, kept) in locals.into_iter().zip(kept) {
        let (local, s) = slot.expect("all shards must complete");
        stats.merge(s);
        collection.extend_from(pool, kept);
        collection.extend_from(&local, 0..local.len());
    }
    (collection, ShardCursors { theta, rngs }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tim_diffusion::IndependentCascade;
    use tim_graph::{gen, weights};

    fn graph() -> Graph {
        let mut g = gen::barabasi_albert(200, 4, 0.0, 1);
        weights::assign_weighted_cascade(&mut g);
        g
    }

    #[test]
    fn generates_exactly_theta_sets() {
        let g = graph();
        let (c, stats) = generate_rr_sets(&g, &IndependentCascade, 500, 2, 1);
        assert_eq!(c.len(), 500);
        assert_eq!(stats.total_nodes as usize, c.total_members());
    }

    #[test]
    fn parallel_output_is_identical_to_serial() {
        let g = graph();
        let (c1, s1) = generate_rr_sets(&g, &IndependentCascade, 300, 3, 1);
        let (c4, s4) = generate_rr_sets(&g, &IndependentCascade, 300, 3, 4);
        assert_eq!(c1.len(), c4.len());
        assert_eq!(s1.total_width, s4.total_width);
        assert_eq!(s1.total_nodes, s4.total_nodes);
        for i in 0..c1.len() {
            assert_eq!(c1.set(i), c4.set(i), "set {i} differs");
        }
    }

    #[test]
    fn different_seeds_give_different_collections() {
        let g = graph();
        let (c1, _) = generate_rr_sets(&g, &IndependentCascade, 100, 4, 2);
        let (c2, _) = generate_rr_sets(&g, &IndependentCascade, 100, 5, 2);
        let same = (0..100).all(|i| c1.set(i) == c2.set(i));
        assert!(!same);
    }

    #[test]
    fn theta_smaller_than_shards_works() {
        let g = graph();
        let (c, _) = generate_rr_sets(&g, &IndependentCascade, 3, 6, 8);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn pools_are_prefix_composable() {
        // The property tim_engine's warm-pool replay rests on: a θ'-run is
        // recovered exactly from a θ-run (θ' <= θ) by taking the first
        // shard_layout(θ')[i] sets of each shard.
        let g = graph();
        let (big, _) = generate_rr_sets(&g, &IndependentCascade, 500, 9, 2);
        for theta in [1u64, 3, 63, 64, 65, 200, 499, 500] {
            let (small, _) = generate_rr_sets(&g, &IndependentCascade, theta, 9, 1);
            let mut idx = 0usize;
            for (i, range) in prefix_ranges(500, theta).into_iter().enumerate() {
                for j in range {
                    assert_eq!(
                        small.set(idx),
                        big.set(j),
                        "theta={theta} shard={i} set={j}"
                    );
                    idx += 1;
                }
            }
            assert_eq!(idx, small.len());
        }
    }

    #[test]
    fn extending_through_cursors_matches_a_fresh_run() {
        // What growth from a kept pool rests on: extending a θa-run through
        // its cursors to θb is byte-identical to drawing the θb-run whole,
        // at any thread count on either side.
        let g = graph();
        let sizes = [0u64, 1, 63, 64, 65, 500];
        for threads in [1usize, 2, 4] {
            for (i, &theta_a) in sizes.iter().enumerate() {
                let start = ShardCursors::start(9);
                let empty = SetCollection::new(g.n());
                let (pool_a, cursors_a, _) =
                    extend_rr_sets(&g, &IndependentCascade, &empty, &start, theta_a, threads);
                assert_eq!(cursors_a.theta(), theta_a);
                for &theta_b in &sizes[i..] {
                    let (pool_b, cursors_b, stats) = extend_rr_sets(
                        &g,
                        &IndependentCascade,
                        &pool_a,
                        &cursors_a,
                        theta_b,
                        threads,
                    );
                    let (fresh, fresh_stats) =
                        generate_rr_sets(&g, &IndependentCascade, theta_b, 9, 1);
                    let case = format!("{theta_a} -> {theta_b}, {threads} threads");
                    assert_eq!(pool_b.raw_offsets(), fresh.raw_offsets(), "{case}");
                    assert_eq!(pool_b.raw_data(), fresh.raw_data(), "{case}");
                    assert_eq!(cursors_b.theta(), theta_b, "{case}");
                    // Only the tails are drawn, so the statistics count the
                    // new sets alone.
                    let drawn = fresh_stats.total_nodes as usize - pool_a.total_members();
                    assert_eq!(stats.total_nodes as usize, drawn, "{case}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not hold the run")]
    fn extending_rejects_cursors_of_another_run() {
        let g = graph();
        let (pool, _) = generate_rr_sets(&g, &IndependentCascade, 10, 9, 1);
        let _ = extend_rr_sets(
            &g,
            &IndependentCascade,
            &pool,
            &ShardCursors::start(9),
            20,
            1,
        );
    }

    #[test]
    fn prefix_ranges_follow_both_layouts() {
        for (pool_theta, theta) in [(0u64, 0u64), (5, 3), (64, 1), (500, 65), (500, 500)] {
            let pool = shard_layout(pool_theta);
            let want = shard_layout(theta);
            let ranges = prefix_ranges(pool_theta, theta);
            assert_eq!(ranges.len(), pool.len(), "({pool_theta}, {theta})");
            let mut start = 0usize;
            for (i, range) in ranges.iter().enumerate() {
                assert_eq!(range.start, start, "({pool_theta}, {theta}) shard {i}");
                let take = want.get(i).copied().unwrap_or(0);
                assert_eq!(
                    range.len() as u64,
                    take,
                    "({pool_theta}, {theta}) shard {i}"
                );
                start += pool[i] as usize;
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the pool")]
    fn prefix_ranges_reject_a_theta_past_the_pool() {
        let _ = prefix_ranges(100, 101);
    }

    #[test]
    fn shard_layout_sums_to_theta_and_is_monotone() {
        let mut prev = shard_layout(0);
        assert_eq!(prev.iter().sum::<u64>(), 0);
        for theta in 1..300u64 {
            let counts = shard_layout(theta);
            assert_eq!(counts.iter().sum::<u64>(), theta);
            assert!(counts.len() as u64 <= SHARDS);
            for (i, &c) in counts.iter().enumerate() {
                let p = prev.get(i).copied().unwrap_or(0);
                assert!(c >= p, "theta={theta} shard={i}: {c} < {p}");
            }
            prev = counts;
        }
    }

    #[test]
    fn zero_theta_yields_empty_collection() {
        let g = graph();
        let (c, stats) = generate_rr_sets(&g, &IndependentCascade, 0, 7, 2);
        assert!(c.is_empty());
        assert_eq!(stats.total_nodes, 0);
    }
}
