//! Deterministic (optionally parallel) bulk RR-set generation.
//!
//! The paper lists distributing TIM as future work (§8); sampling θ
//! independent RR sets is embarrassingly parallel, so this module provides
//! it as an extension. Set `j` of the stream `seed` is drawn from a
//! generator keyed by `(seed, j)` alone, a counter-based stream (Salmon et
//! al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011). Threads
//! take contiguous blocks of set ids and the blocks join in order, so the
//! output is a pure function of `(seed, θ)`, identical for every thread
//! count, and a θ-run is exactly sets `0..θ` of every longer run.

use std::ops::Range;
use tim_coverage::SetCollection;
use tim_diffusion::{DiffusionModel, RrSampler, RrStats};
use tim_graph::Graph;
use tim_rng::{RandomSource, Rng, SplitMix64};

/// The block layout of a `theta`-set run: one block of `theta` sets, set
/// `j` at position `j`. A run at any `θ′ ≤ θ` is the first `θ′` sets of
/// the θ-run.
///
/// It stays public because the benchmark probe carves its reference
/// prefixes through it (`carve` in `perfbench/src/main.rs`).
pub fn shard_layout(theta: u64) -> Vec<u64> {
    vec![theta]
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

/// Sets a worker thread draws into one local collection before it starts
/// the next. The merge frees each local once it is copied; with one local
/// per thread instead, growing a 150k-set pool to 1.5 M sets on the
/// benchmark graph (2 threads, glibc malloc, a 2-vCPU VM) left about
/// 21 MB more resident after the merge.
const CHUNK: u64 = 1 << 14;

/// The generator set `j` of stream `seed` is drawn from. `j` goes through
/// a full SplitMix64 output before it meets the seed: `seed_from_u64`
/// itself expands its seed through SplitMix64, so keys one to three
/// SplitMix64 increments apart would start from overlapping xoshiro
/// states.
fn set_rng(seed: u64, j: u64) -> Rng {
    Rng::seed_from_u64(seed ^ SplitMix64::new(j).next_u64())
}

/// Draws sets `ids` of stream `seed` into `out`, in order.
fn draw<M: DiffusionModel>(
    graph: &Graph,
    model: &M,
    seed: u64,
    ids: Range<u64>,
    out: &mut SetCollection,
) -> BulkStats {
    let mut sampler = RrSampler::new(model);
    let mut buf = Vec::new();
    let mut stats = BulkStats::default();
    for j in ids {
        let (_, s) = sampler.sample_random(graph, &mut set_rng(seed, j), &mut buf);
        stats.add(s);
        out.push(&buf);
    }
    stats
}

/// Generates `theta` random RR sets into a [`SetCollection`].
///
/// `threads = 1` runs inline; larger values use scoped worker threads. The
/// output is identical for any `threads` value — and whether the graph
/// owns its arrays or maps a v2 snapshot: set `j` depends only on
/// `(seed, j)`, so a heap-loaded and a mapped copy of the same snapshot
/// produce bit-identical collections.
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
    extend_rr_sets(graph, model, &empty, seed, theta, threads)
}

/// Extends `pool`, sets `0..pool.len()` of stream `seed`, to the
/// `theta`-set run on that stream: copies `pool` and appends sets
/// `pool.len()..theta`, returning the run and the statistics of the
/// appended sets alone. The result is byte-identical to
/// [`generate_rr_sets`] at `theta`, for any `threads`.
///
/// # Panics
/// Panics if the graph is empty or `theta < pool.len()`.
pub fn extend_rr_sets<M: DiffusionModel + Sync>(
    graph: &Graph,
    model: &M,
    pool: &SetCollection,
    seed: u64,
    theta: u64,
    threads: usize,
) -> (SetCollection, BulkStats) {
    assert!(graph.n() >= 1, "extend_rr_sets: empty graph");
    let start = pool.len() as u64;
    assert!(
        theta >= start,
        "extend_rr_sets: theta {theta} is below the pool's {start}"
    );
    let drawn = theta - start;
    let mut collection = SetCollection::with_capacity(
        graph.n(),
        theta as usize,
        pool.total_members() + drawn as usize * 2,
    );
    collection.extend_from(pool, 0..pool.len());

    // Without the `parallel` feature every request runs the inline path;
    // output is identical either way, only wall-clock differs.
    let threads = if cfg!(feature = "parallel") {
        (threads.max(1) as u64).min(drawn.max(1))
    } else {
        1
    };
    if threads == 1 {
        let stats = draw(graph, model, seed, start..theta, &mut collection);
        return (collection, stats);
    }

    // Parallel path: each thread draws one contiguous block of set ids,
    // CHUNK sets to a local collection; the chunks join in id order.
    let block = drawn.div_ceil(threads);
    let chunks = std::thread::scope(|scope| {
        let workers: Vec<_> = (start..theta)
            .step_by(block as usize)
            .map(|lo| {
                let hi = theta.min(lo + block);
                scope.spawn(move || {
                    (lo..hi)
                        .step_by(CHUNK as usize)
                        .map(|c| {
                            let end = hi.min(c + CHUNK);
                            let count = (end - c) as usize;
                            let mut local =
                                SetCollection::with_capacity(graph.n(), count, count * 2);
                            let stats = draw(graph, model, seed, c..end, &mut local);
                            (local, stats)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect::<Vec<_>>()
    });
    let mut stats = BulkStats::default();
    for (local, s) in chunks {
        stats.merge(s);
        collection.extend_from(&local, 0..local.len());
    }
    (collection, stats)
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
        // Past two chunks, so every thread's block joins chunk by chunk,
        // and from a pool that ends inside a chunk.
        let g = graph();
        let theta = 3 * CHUNK + 300;
        let (c1, s1) = generate_rr_sets(&g, &IndependentCascade, theta, 3, 1);
        let (pool, _) = generate_rr_sets(&g, &IndependentCascade, CHUNK / 2, 3, 1);
        for threads in [2usize, 3] {
            let (c, s) = generate_rr_sets(&g, &IndependentCascade, theta, 3, threads);
            assert_eq!(c.raw_offsets(), c1.raw_offsets(), "{threads} threads");
            assert_eq!(c.raw_data(), c1.raw_data(), "{threads} threads");
            assert_eq!(
                (s.total_width, s.total_nodes),
                (s1.total_width, s1.total_nodes)
            );
            let (grown, _) = extend_rr_sets(&g, &IndependentCascade, &pool, 3, theta, threads);
            assert_eq!(grown.raw_data(), c1.raw_data(), "{threads} threads");
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
        // sets 0..θ' of a θ-run (θ' <= θ), at any thread count.
        let g = graph();
        let (big, _) = generate_rr_sets(&g, &IndependentCascade, 500, 9, 2);
        for theta in [0u64, 1, 3, 63, 64, 65, 200, 499, 500] {
            for threads in [1usize, 3] {
                let (small, _) = generate_rr_sets(&g, &IndependentCascade, theta, 9, threads);
                assert_eq!(small.len() as u64, theta);
                let end = big.raw_offsets()[theta as usize] as usize;
                assert_eq!(small.raw_data(), &big.raw_data()[..end], "theta={theta}");
                assert_eq!(
                    small.raw_offsets(),
                    &big.raw_offsets()[..=theta as usize],
                    "theta={theta}"
                );
            }
        }
    }

    #[test]
    fn extending_a_pool_matches_a_fresh_run() {
        // What growth from a kept pool rests on: extending a θa-run to θb
        // is byte-identical to drawing the θb-run whole, at any thread
        // count on either side.
        let g = graph();
        let sizes = [0u64, 1, 63, 64, 65, 500];
        for threads in [1usize, 2, 4] {
            for (i, &theta_a) in sizes.iter().enumerate() {
                let (pool_a, _) = generate_rr_sets(&g, &IndependentCascade, theta_a, 9, threads);
                for &theta_b in &sizes[i..] {
                    let (pool_b, stats) =
                        extend_rr_sets(&g, &IndependentCascade, &pool_a, 9, theta_b, threads);
                    let (fresh, fresh_stats) =
                        generate_rr_sets(&g, &IndependentCascade, theta_b, 9, 1);
                    let case = format!("{theta_a} -> {theta_b}, {threads} threads");
                    assert_eq!(pool_b.raw_offsets(), fresh.raw_offsets(), "{case}");
                    assert_eq!(pool_b.raw_data(), fresh.raw_data(), "{case}");
                    // Only the new sets are drawn, so the statistics count
                    // them alone.
                    let drawn = fresh_stats.total_nodes as usize - pool_a.total_members();
                    assert_eq!(stats.total_nodes as usize, drawn, "{case}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "is below the pool's 10")]
    fn extending_rejects_a_theta_below_the_pool() {
        let g = graph();
        let (pool, _) = generate_rr_sets(&g, &IndependentCascade, 10, 9, 1);
        let _ = extend_rr_sets(&g, &IndependentCascade, &pool, 9, 9, 1);
    }

    #[test]
    fn zero_theta_yields_empty_collection() {
        let g = graph();
        let (c, stats) = generate_rr_sets(&g, &IndependentCascade, 0, 7, 2);
        assert!(c.is_empty());
        assert_eq!(stats.total_nodes, 0);
    }
}
