//! Algorithm 2 — `KptEstimation`: adaptive estimation of KPT.
//!
//! KPT is the expected spread of a seed set formed by `k` draws from the
//! in-degree-proportional distribution `V*`; it satisfies
//! `(n/m)·EPT ≤ KPT ≤ OPT` (Equation 7) and can be measured on RR sets
//! through `κ(R) = 1 − (1 − w(R)/m)^k` (Lemma 5).
//!
//! The estimator runs at most `log₂(n) − 1` doubling iterations. Iteration
//! `i` draws `c_i` RR sets (Equation 9) and stops as soon as the empirical
//! mean of `κ` clears `2^(−i)`, returning half of the scaled mean —
//! guaranteeing `KPT* ∈ [KPT/4, OPT]` with probability `1 − n^(−ℓ)`
//! (Theorem 2).
//!
//! Only the κ statistic and the stopping test depend on `k`: the RR sets
//! each iteration draws come from the RNG alone. [`estimate_kpt`]
//! therefore serves a whole list of `k` from one pass over the
//! iterations, keeping one κ sum per `k` (summed in set order, so each
//! estimate is bit-identical to a run for that `k` alone) and stopping
//! each `k` at its own iteration.

use crate::math::{kappa, kpt_iteration_samples};
use std::sync::Arc;
use tim_coverage::SetCollection;
use tim_diffusion::{DiffusionModel, RrSampler};
use tim_graph::Graph;
use tim_rng::Rng;

/// One `k`'s output of [`estimate_kpt`].
#[derive(Debug, Clone)]
pub struct KptEstimate {
    /// `KPT*`: the lower bound on OPT (at least 1).
    pub kpt_star: f64,
    /// The RR sets generated in the **last** iteration — reused by
    /// Algorithm 3 (`RefineKPT` line 1). Estimates that stopped at the
    /// same iteration share one collection, whose inverted index is
    /// already built.
    pub last_iteration_sets: Arc<SetCollection>,
    /// Iteration at which the estimator stopped (1-based).
    pub iterations: u32,
    /// Total RR sets generated across all iterations.
    pub total_rr_sets: u64,
    /// Total RR-set width generated (Σ w(R)); `width/sets` estimates EPT.
    pub total_width: u64,
}

impl KptEstimate {
    /// Empirical estimate of EPT, the expected RR-set width.
    pub fn ept_estimate(&self) -> f64 {
        if self.total_rr_sets == 0 {
            0.0
        } else {
            self.total_width as f64 / self.total_rr_sets as f64
        }
    }
}

/// Runs Algorithm 2 on `graph` for every seed-set size in `ks`, returning
/// one estimate per entry of `ks`, in order.
///
/// Each estimate equals the one a call with `ks = [k]` returns, bit for
/// bit; the RR sets are drawn once, for the `k` that runs longest.
///
/// # Panics
/// Panics if the graph has no nodes or no edges (KPT is undefined without
/// edges; callers special-case empty graphs).
pub fn estimate_kpt<M: DiffusionModel>(
    graph: &Graph,
    model: &M,
    ks: &[usize],
    ell: f64,
    rng: &mut Rng,
) -> Vec<KptEstimate> {
    let n = graph.n() as u64;
    let m = graph.m() as u64;
    assert!(n >= 2, "estimate_kpt: need at least 2 nodes");
    assert!(m >= 1, "estimate_kpt: need at least 1 edge");

    let mut sampler = RrSampler::new(model);
    let mut buf = Vec::new();
    let mut total_rr_sets = 0u64;
    let mut total_width = 0u64;
    let mut out: Vec<Option<KptEstimate>> = vec![None; ks.len()];
    // Indices into `ks` still iterating, and their κ sums this iteration.
    let mut open: Vec<usize> = (0..ks.len()).collect();
    let mut sums = Vec::with_capacity(ks.len());

    // "for i = 1 to log2(n) - 1" — at least one iteration so that
    // Algorithm 3 always has a non-empty R' to refine.
    let max_iter = ((n as f64).log2().floor() as i64 - 1).max(1) as u32;

    for i in 1..=max_iter {
        if open.is_empty() {
            break;
        }
        let ci = kpt_iteration_samples(n, ell, i);
        let mut sets = SetCollection::with_capacity(graph.n(), ci as usize, ci as usize * 4);
        sums.clear();
        sums.resize(open.len(), 0.0f64);
        for _ in 0..ci {
            let (_, stats) = sampler.sample_random(graph, rng, &mut buf);
            for (sum, &j) in sums.iter_mut().zip(&open) {
                *sum += kappa(stats.width, m, ks[j] as u64);
            }
            total_width += stats.width;
            sets.push(&buf);
        }
        total_rr_sets += ci;
        let threshold = 1.0 / (1u64 << i) as f64;
        let last = i == max_iter;
        if !last && sums.iter().all(|&sum| sum / ci as f64 <= threshold) {
            continue;
        }
        sets.ensure_inverted_index();
        let sets = Arc::new(sets);
        let mut still_open = Vec::with_capacity(open.len());
        for (&sum, &j) in sums.iter().zip(&open) {
            let kpt_star = if sum / ci as f64 > threshold {
                (n as f64 * sum / (2.0 * ci as f64)).max(1.0)
            } else if last {
                // Fell through every iteration: KPT* = 1 (Algorithm 2
                // line 10), but keep the final iteration's sets for
                // RefineKPT.
                1.0
            } else {
                still_open.push(j);
                continue;
            };
            out[j] = Some(KptEstimate {
                kpt_star,
                last_iteration_sets: Arc::clone(&sets),
                iterations: i,
                total_rr_sets,
                total_width,
            });
        }
        open = still_open;
    }
    out.into_iter()
        .map(|e| e.expect("every k stops by the final iteration"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tim_diffusion::{IndependentCascade, LinearThreshold, SpreadEstimator};
    use tim_graph::{gen, weights};

    fn wc_graph(seed: u64) -> Graph {
        let mut g = gen::barabasi_albert(400, 4, 0.0, seed);
        weights::assign_weighted_cascade(&mut g);
        g
    }

    #[test]
    fn kpt_star_is_at_least_one() {
        let g = wc_graph(1);
        let mut rng = Rng::seed_from_u64(2);
        let est = estimate_kpt(&g, &IndependentCascade, &[5], 1.0, &mut rng).remove(0);
        assert!(est.kpt_star >= 1.0);
        assert!(est.iterations >= 1);
        assert!(est.total_rr_sets > 0);
    }

    #[test]
    fn kpt_star_is_below_n() {
        let g = wc_graph(3);
        let mut rng = Rng::seed_from_u64(4);
        let est = estimate_kpt(&g, &IndependentCascade, &[5], 1.0, &mut rng).remove(0);
        assert!(est.kpt_star <= g.n() as f64);
    }

    #[test]
    fn kpt_star_increases_with_k() {
        // KPT is monotone in k (§3.2); the estimate should track that
        // within noise.
        let g = wc_graph(5);
        let mut rng1 = Rng::seed_from_u64(6);
        let mut rng2 = Rng::seed_from_u64(6);
        let small = estimate_kpt(&g, &IndependentCascade, &[1], 1.0, &mut rng1).remove(0);
        let large = estimate_kpt(&g, &IndependentCascade, &[50], 1.0, &mut rng2).remove(0);
        assert!(
            large.kpt_star >= 0.5 * small.kpt_star,
            "KPT*(k=50) = {} unexpectedly far below KPT*(k=1) = {}",
            large.kpt_star,
            small.kpt_star
        );
    }

    #[test]
    fn kpt_star_lower_bounds_a_strong_seed_sets_spread() {
        // KPT* <= OPT w.h.p.; compare against the spread of high-degree
        // seeds, which lower-bounds OPT.
        let g = wc_graph(7);
        let k = 10;
        let mut rng = Rng::seed_from_u64(8);
        let est = estimate_kpt(&g, &IndependentCascade, &[k], 1.0, &mut rng).remove(0);
        let mut by_deg: Vec<u32> = (0..g.n() as u32).collect();
        by_deg.sort_by_key(|&v| std::cmp::Reverse(g.out_degree(v)));
        let seeds: Vec<u32> = by_deg[..k].to_vec();
        let spread = SpreadEstimator::new(IndependentCascade)
            .runs(5_000)
            .seed(9)
            .estimate(&g, &seeds);
        // OPT >= spread; allow slack for the w.h.p. qualifier.
        assert!(
            est.kpt_star <= 1.5 * spread,
            "KPT* = {} vs high-degree spread {}",
            est.kpt_star,
            spread
        );
    }

    #[test]
    fn last_iteration_sets_are_kept() {
        let g = wc_graph(10);
        let mut rng = Rng::seed_from_u64(11);
        let est = estimate_kpt(&g, &IndependentCascade, &[5], 1.0, &mut rng).remove(0);
        assert!(!est.last_iteration_sets.is_empty());
        assert_eq!(est.last_iteration_sets.universe(), g.n());
        // Every stored set is non-empty (contains at least its root).
        for i in 0..est.last_iteration_sets.len() {
            assert!(!est.last_iteration_sets.set(i).is_empty());
        }
    }

    #[test]
    fn estimation_is_seed_deterministic() {
        let g = wc_graph(12);
        let mut r1 = Rng::seed_from_u64(13);
        let mut r2 = Rng::seed_from_u64(13);
        let a = estimate_kpt(&g, &IndependentCascade, &[8], 1.0, &mut r1).remove(0);
        let b = estimate_kpt(&g, &IndependentCascade, &[8], 1.0, &mut r2).remove(0);
        assert_eq!(a.kpt_star, b.kpt_star);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.total_rr_sets, b.total_rr_sets);
    }

    #[test]
    fn batched_estimates_match_lone_runs() {
        // One pass over the iterations serves every k: each estimate is
        // bit-identical to a run for that k alone, in request order.
        let g = wc_graph(12);
        let ks = [8usize, 1, 50, 8, 3];
        let batch = estimate_kpt(
            &g,
            &IndependentCascade,
            &ks,
            1.0,
            &mut Rng::seed_from_u64(13),
        );
        assert_eq!(batch.len(), ks.len());
        for (&k, got) in ks.iter().zip(&batch) {
            let want = estimate_kpt(
                &g,
                &IndependentCascade,
                &[k],
                1.0,
                &mut Rng::seed_from_u64(13),
            )
            .remove(0);
            assert_eq!(got.kpt_star.to_bits(), want.kpt_star.to_bits(), "k={k}");
            assert_eq!(got.iterations, want.iterations, "k={k}");
            assert_eq!(got.total_rr_sets, want.total_rr_sets, "k={k}");
            assert_eq!(got.total_width, want.total_width, "k={k}");
            let (a, b) = (&got.last_iteration_sets, &want.last_iteration_sets);
            assert_eq!(a.len(), b.len(), "k={k}");
            assert!((0..a.len()).all(|i| a.set(i) == b.set(i)), "k={k}");
        }
        // Estimates that stop at the same iteration share their sets.
        for x in &batch {
            for y in &batch {
                let shared = std::sync::Arc::ptr_eq(&x.last_iteration_sets, &y.last_iteration_sets);
                assert_eq!(shared, x.iterations == y.iterations);
            }
        }
        assert!(estimate_kpt(
            &g,
            &IndependentCascade,
            &[],
            1.0,
            &mut Rng::seed_from_u64(13)
        )
        .is_empty());
    }

    #[test]
    fn works_under_lt_model() {
        let mut g = gen::barabasi_albert(300, 4, 0.0, 14);
        weights::assign_lt_normalized(&mut g, 15);
        let mut rng = Rng::seed_from_u64(16);
        let est = estimate_kpt(&g, &LinearThreshold, &[10], 1.0, &mut rng).remove(0);
        assert!(est.kpt_star >= 1.0);
        assert!(est.kpt_star <= g.n() as f64);
        assert!(est.ept_estimate() > 0.0);
    }

    #[test]
    fn low_influence_graph_converges_to_small_kpt() {
        // Near-zero probabilities: RR sets are singletons, KPT ~ 1.
        let mut g = gen::erdos_renyi_gnm(256, 1024, 17);
        weights::assign_constant(&mut g, 0.001);
        let mut rng = Rng::seed_from_u64(18);
        let est = estimate_kpt(&g, &IndependentCascade, &[1], 1.0, &mut rng).remove(0);
        assert!(
            est.kpt_star < 3.0,
            "KPT* = {} should be near 1 on a dead graph",
            est.kpt_star
        );
    }

    #[test]
    fn ept_estimate_reflects_graph_density() {
        let g = wc_graph(19);
        let mut rng = Rng::seed_from_u64(20);
        let est = estimate_kpt(&g, &IndependentCascade, &[5], 1.0, &mut rng).remove(0);
        // EPT is at least the average in-degree of a uniform root's
        // neighbourhood's root itself: every RR set has width >= indeg(root)
        // ... so the average must be positive on this connected-ish graph.
        assert!(est.ept_estimate() > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn rejects_trivial_graph() {
        let g = tim_graph::GraphBuilder::new(1).build();
        let mut rng = Rng::seed_from_u64(21);
        estimate_kpt(&g, &IndependentCascade, &[1], 1.0, &mut rng).remove(0);
    }
}
