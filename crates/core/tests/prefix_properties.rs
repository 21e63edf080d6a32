//! Property tests for the prefix contract of `tim_core::parallel`, which
//! the warm-pool engine, the serving pool caches and the multi-graph
//! catalog all rest on: set `j` of a stream depends only on `(seed, j)`,
//! so a θ′-run is byte for byte sets `0..θ′` of any θ-run (θ′ ≤ θ), and
//! a pool grows by drawing only its new sets — at every thread count.

use proptest::prelude::*;
use tim_core::parallel::{extend_rr_sets, generate_rr_sets, shard_layout};
use tim_diffusion::IndependentCascade;
use tim_graph::{gen, weights, Graph};

/// The thread counts a case picks from.
const THREADS: [usize; 3] = [1, 2, 4];

fn graph() -> Graph {
    let mut g = gen::barabasi_albert(120, 3, 0.0, 5);
    weights::assign_weighted_cascade(&mut g);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_smaller_run_is_a_prefix_of_a_larger_one(
        theta in 1u64..3_000,
        frac in 0.0f64..=1.0,
        seed in 0u64..1_000_000,
        small_threads in 0usize..3,
        big_threads in 0usize..3,
    ) {
        let g = graph();
        let theta_prime = (theta as f64 * frac) as u64;
        let (big, _) = generate_rr_sets(&g, &IndependentCascade, theta, seed, THREADS[big_threads]);
        let (small, _) =
            generate_rr_sets(&g, &IndependentCascade, theta_prime, seed, THREADS[small_threads]);
        let cut = theta_prime as usize;
        prop_assert_eq!(small.raw_offsets(), &big.raw_offsets()[..=cut]);
        let members = big.raw_offsets()[cut] as usize;
        prop_assert_eq!(small.raw_data(), &big.raw_data()[..members]);
    }

    #[test]
    fn extending_a_run_equals_a_fresh_run(
        theta_b in 0u64..3_000,
        frac in 0.0f64..=1.0,
        seed in 0u64..1_000_000,
        threads_a in 0usize..3,
        threads_b in 0usize..3,
    ) {
        let g = graph();
        let theta_a = (theta_b as f64 * frac) as u64;
        let (pool_a, stats_a) =
            generate_rr_sets(&g, &IndependentCascade, theta_a, seed, THREADS[threads_a]);
        let (grown, drawn) =
            extend_rr_sets(&g, &IndependentCascade, &pool_a, seed, theta_b, THREADS[threads_b]);
        let (fresh, fresh_stats) = generate_rr_sets(&g, &IndependentCascade, theta_b, seed, 1);
        prop_assert_eq!(grown.raw_offsets(), fresh.raw_offsets());
        prop_assert_eq!(grown.raw_data(), fresh.raw_data());
        // The statistics count only the θb − θa new sets.
        prop_assert_eq!(drawn.total_nodes, fresh_stats.total_nodes - stats_a.total_nodes);
        prop_assert_eq!(drawn.total_width, fresh_stats.total_width - stats_a.total_width);
        prop_assert_eq!(
            drawn.total_nodes as usize,
            fresh.total_members() - pool_a.total_members()
        );
    }

    #[test]
    fn the_layout_is_one_block(theta in 0u64..5_000_000) {
        prop_assert_eq!(shard_layout(theta), vec![theta]);
    }
}
