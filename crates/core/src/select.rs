//! Algorithm 1 — `NodeSelection`.
//!
//! Samples θ random RR sets and solves the induced maximum-coverage
//! instance greedily. Given θ ≥ λ/OPT (Equation 5), the returned seed set
//! is a `(1 − 1/e − ε)`-approximation with probability `1 − n^(−ℓ)`
//! (Theorem 1).

use crate::parallel::{generate_rr_sets, BulkStats};
use tim_coverage::greedy_max_cover;
use tim_diffusion::DiffusionModel;
use tim_graph::{Graph, NodeId};

/// Output of [`node_selection`].
#[derive(Debug)]
pub struct Selection {
    /// The chosen size-`k` seed set, in greedy order.
    pub seeds: Vec<NodeId>,
    /// `n · F_R(S)`: the coverage-based unbiased estimate of `E[I(S)]`
    /// (Corollary 1).
    pub estimated_spread: f64,
    /// Fraction of RR sets covered by the seeds.
    pub coverage_fraction: f64,
    /// Number of RR sets sampled (θ).
    pub theta: u64,
    /// Peak bytes held by the RR-set arena (Figure 12's dominant term).
    pub rr_memory_bytes: usize,
    /// Aggregate sampling statistics.
    pub stats: BulkStats,
}

/// Runs Algorithm 1: samples `theta` RR sets under `model` and greedily
/// selects `k` nodes. `threads` drives sampling and never changes the
/// answer.
pub fn node_selection<M: DiffusionModel + Sync>(
    graph: &Graph,
    model: &M,
    k: usize,
    theta: u64,
    seed: u64,
    threads: usize,
) -> Selection {
    let (mut collection, stats) = generate_rr_sets(graph, model, theta, seed, threads);
    let rr_memory_bytes = collection.memory_bytes();
    let cover = greedy_max_cover(&mut collection, k);
    let frac = cover.coverage_fraction(collection.len());
    Selection {
        estimated_spread: frac * graph.n() as f64,
        coverage_fraction: frac,
        seeds: cover.seeds,
        theta,
        rr_memory_bytes: rr_memory_bytes.max(collection.memory_bytes()),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tim_diffusion::{IndependentCascade, SpreadEstimator};
    use tim_graph::{gen, weights, GraphBuilder};

    #[test]
    fn selects_k_distinct_seeds() {
        let mut g = gen::barabasi_albert(150, 3, 0.0, 1);
        weights::assign_weighted_cascade(&mut g);
        let sel = node_selection(&g, &IndependentCascade, 10, 2_000, 2, 1);
        assert_eq!(sel.seeds.len(), 10);
        let mut s = sel.seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 10);
        assert!(sel.coverage_fraction > 0.0 && sel.coverage_fraction <= 1.0);
    }

    #[test]
    fn obvious_hub_is_selected_first() {
        // Star: 0 -> everyone with p = 1. RR set of any node contains 0.
        let n = 50;
        let mut b = GraphBuilder::new(n);
        for v in 1..n as u32 {
            b.add_edge_with_probability(0, v, 1.0);
        }
        let g = b.build();
        let sel = node_selection(&g, &IndependentCascade, 1, 500, 3, 1);
        assert_eq!(sel.seeds, vec![0]);
        assert_eq!(sel.coverage_fraction, 1.0);
        assert_eq!(sel.estimated_spread, n as f64);
    }

    #[test]
    fn coverage_estimate_tracks_monte_carlo_spread() {
        let mut g = gen::barabasi_albert(300, 4, 0.0, 4);
        weights::assign_weighted_cascade(&mut g);
        let sel = node_selection(&g, &IndependentCascade, 5, 20_000, 5, 2);
        let mc = SpreadEstimator::new(IndependentCascade)
            .runs(20_000)
            .seed(6)
            .estimate(&g, &sel.seeds);
        let rel = (sel.estimated_spread - mc).abs() / mc;
        assert!(
            rel < 0.1,
            "coverage estimate {} vs MC {} (rel {rel})",
            sel.estimated_spread,
            mc
        );
    }

    #[test]
    fn selection_is_deterministic_across_thread_counts() {
        let mut g = gen::barabasi_albert(150, 3, 0.0, 9);
        weights::assign_weighted_cascade(&mut g);
        let a = node_selection(&g, &IndependentCascade, 5, 3_000, 10, 1);
        for threads in [2, 4, 8] {
            let b = node_selection(&g, &IndependentCascade, 5, 3_000, 10, threads);
            assert_eq!(a.seeds, b.seeds, "threads={threads}");
            assert_eq!(a.estimated_spread, b.estimated_spread);
        }
    }
}
