//! Algorithm 3 — `RefineKPT`, the heuristic that turns TIM into TIM+.
//!
//! Motivation (§4.1): KPT* is often far below OPT on real graphs, making
//! θ = λ/KPT* wastefully large. RefineKPT reuses the last iteration's RR
//! sets to greedily build a *good* candidate seed set `S'_k`, estimates its
//! spread on θ′ = λ′/KPT* fresh RR sets, and scales the estimate down by
//! `(1 + ε′)` so that `KPT′ ≤ E[I(S'_k)] ≤ OPT` holds with probability
//! `1 − n^(−ℓ)` (Lemma 8). The output `KPT⁺ = max(KPT′, KPT*)` is never
//! worse than KPT* and empirically ~3× tighter (paper Figure 5).

use crate::kpt::KptEstimate;
use crate::math::{epsilon_prime, lambda_prime};
use crate::parallel::generate_rr_sets;
use std::sync::Arc;
use tim_coverage::greedy_max_cover_indexed;
use tim_diffusion::DiffusionModel;
use tim_graph::Graph;
use tim_rng::{RandomSource, Rng};

/// One `k`'s output of [`refine_kpt`].
#[derive(Debug, Clone)]
pub struct Refined {
    /// `KPT⁺ = max(KPT′, KPT*)`: the tightened lower bound on OPT.
    pub kpt_plus: f64,
    /// The intermediate estimate `KPT′ = f·n/(1 + ε′)`.
    pub kpt_prime: f64,
    /// ε′ used (the paper's §4.1 formula unless overridden).
    pub epsilon_prime: f64,
    /// θ′: number of fresh RR sets sampled for the spread estimate.
    pub theta_prime: u64,
}

/// Runs Algorithm 3 for every seed-set size in `ks`, returning one
/// refinement per entry of `ks`, in order.
///
/// `kpts[i]` is the output of [`estimate_kpt`](crate::kpt::estimate_kpt)
/// for `ks[i]` (read for its KPT* and last-iteration RR sets, whose
/// inverted index `estimate_kpt` builds); `eps_prime_override` forces a
/// specific ε′ (`None` uses `5·(ℓ·ε²/(k+ℓ))^(1/3)`).
///
/// Each refinement equals the one a call with `ks = [k]` returns, bit for
/// bit. The θ′ stream depends on `rng` alone, and a θ′-set run is sets
/// `0..θ′` of any longer run on the same stream (see
/// [`crate::parallel`]), so the stream is sampled once, at the largest
/// θ′, and each `k` scores its candidate on its own θ′ prefix.
///
/// # Panics
/// Panics if `ks` and `kpts` differ in length, ε′ is not positive, or an
/// estimate's sets have no inverted index.
#[allow(clippy::too_many_arguments)]
pub fn refine_kpt<M: DiffusionModel + Sync>(
    graph: &Graph,
    model: &M,
    ks: &[usize],
    epsilon: f64,
    ell: f64,
    kpts: &[KptEstimate],
    eps_prime_override: Option<f64>,
    rng: &mut Rng,
    threads: usize,
) -> Vec<Refined> {
    assert_eq!(ks.len(), kpts.len(), "refine_kpt: one KPT estimate per k");
    let n = graph.n() as u64;
    let eps_ps: Vec<f64> = ks
        .iter()
        .map(|&k| {
            eps_prime_override.unwrap_or_else(|| epsilon_prime(epsilon, k.max(1) as u64, ell))
        })
        .collect();
    assert!(
        eps_ps.iter().all(|&e| e > 0.0),
        "refine_kpt: epsilon_prime must be positive"
    );
    let theta_primes: Vec<u64> = eps_ps
        .iter()
        .zip(kpts)
        .map(|(&e, kpt)| (lambda_prime(n, e, ell) / kpt.kpt_star).ceil().max(1.0) as u64)
        .collect();
    let Some(&top) = theta_primes.iter().max() else {
        return Vec::new();
    };

    // Lines 7-9: θ' fresh RR sets, drawn once for the largest θ′.
    let (collection, _) = generate_rr_sets(graph, model, top, rng.next_u64(), threads);

    let mut out: Vec<Option<Refined>> = vec![None; ks.len()];
    for j in 0..ks.len() {
        if out[j].is_some() {
            continue;
        }
        // Lines 2-6: greedy cover on the last iteration's RR sets. The
        // greedy pick order does not depend on k, so one run per shared
        // collection, as deep as its largest k, yields every k's
        // candidate as a prefix; `rank[v]` is v's position in it.
        let sets = &kpts[j].last_iteration_sets;
        let group: Vec<usize> = (j..ks.len())
            .filter(|&i| Arc::ptr_eq(&kpts[i].last_iteration_sets, sets))
            .collect();
        let depth = group.iter().map(|&i| ks[i]).max().unwrap_or(0);
        let mut rank = vec![u32::MAX; graph.n()];
        for (r, &v) in greedy_max_cover_indexed(sets, depth)
            .seeds
            .iter()
            .enumerate()
        {
            rank[v as usize] = r as u32;
        }
        // A set is covered by the first k picks iff its earliest-picked
        // member ranks below k.
        let first_pick: Vec<u32> = (0..collection.len())
            .map(|s| {
                let members = collection.set(s).iter();
                members.map(|&v| rank[v as usize]).min().unwrap_or(u32::MAX)
            })
            .collect();

        // Lines 10-12, each k on its own θ′ prefix.
        for i in group {
            let (k, theta_prime) = (ks[i], theta_primes[i]);
            let covered = first_pick[..theta_prime as usize]
                .iter()
                .filter(|&&r| (r as usize) < k)
                .count();
            let f = covered as f64 / theta_prime as f64;
            let kpt_prime = f * n as f64 / (1.0 + eps_ps[i]);
            out[i] = Some(Refined {
                kpt_plus: kpt_prime.max(kpts[i].kpt_star),
                kpt_prime,
                epsilon_prime: eps_ps[i],
                theta_prime,
            });
        }
    }
    out.into_iter()
        .map(|r| r.expect("every k is refined"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kpt::estimate_kpt;
    use tim_diffusion::{IndependentCascade, SpreadEstimator};
    use tim_graph::{gen, weights};

    fn setup(seed: u64) -> Graph {
        let mut g = gen::barabasi_albert(400, 4, 0.0, seed);
        weights::assign_weighted_cascade(&mut g);
        g
    }

    /// Algorithms 2 and 3 for one `k` on one RNG, as a TIM+ run chains
    /// them: returns KPT* and the refinement.
    fn refine_one(
        g: &Graph,
        k: usize,
        eps_prime: Option<f64>,
        seed: u64,
        threads: usize,
    ) -> (f64, Refined) {
        let mut rng = Rng::seed_from_u64(seed);
        let kpts = estimate_kpt(g, &IndependentCascade, &[k], 1.0, &mut rng);
        let refined = refine_kpt(
            g,
            &IndependentCascade,
            &[k],
            0.5,
            1.0,
            &kpts,
            eps_prime,
            &mut rng,
            threads,
        );
        (kpts[0].kpt_star, refined.into_iter().next().unwrap())
    }

    #[test]
    fn kpt_plus_never_below_kpt_star() {
        let g = setup(1);
        let (star, refined) = refine_one(&g, 10, None, 2, 1);
        assert!(refined.kpt_plus >= star);
        assert!(refined.theta_prime >= 1);
    }

    #[test]
    fn kpt_plus_tightens_the_bound_on_scale_free_graphs() {
        // The paper reports KPT+ >= 3x KPT* on NetHEPT; our BA stand-in
        // should show a clear improvement too (>= 1.2x is conservative).
        let g = setup(3);
        let (star, refined) = refine_one(&g, 20, None, 4, 1);
        assert!(
            refined.kpt_plus >= 1.2 * star,
            "KPT+ = {} vs KPT* = {star}: refinement should tighten",
            refined.kpt_plus
        );
    }

    #[test]
    fn kpt_plus_stays_below_opt_proxy() {
        // KPT+ <= OPT w.h.p. Compare to the MC spread of TIM's own
        // selection with generous theta, a lower bound on OPT.
        let g = setup(5);
        let k = 10;
        let (_, refined) = refine_one(&g, k, None, 6, 1);
        let sel = crate::select::node_selection(&g, &IndependentCascade, k, 20_000, 7, 2);
        let opt_proxy = SpreadEstimator::new(IndependentCascade)
            .runs(20_000)
            .seed(8)
            .estimate(&g, &sel.seeds);
        assert!(
            refined.kpt_plus <= 1.2 * opt_proxy,
            "KPT+ = {} vs OPT proxy {opt_proxy}",
            refined.kpt_plus
        );
    }

    #[test]
    fn epsilon_prime_override_is_respected() {
        let g = setup(9);
        let (_, refined) = refine_one(&g, 5, Some(0.25), 10, 1);
        assert_eq!(refined.epsilon_prime, 0.25);
    }

    #[test]
    fn refinement_is_deterministic() {
        let g = setup(11);
        let run = |seed: u64| refine_one(&g, 8, None, seed, 2).1.kpt_plus;
        assert_eq!(run(12), run(12));
    }

    #[test]
    fn batched_refinements_match_lone_runs() {
        // One θ′ stream and one greedy per shared collection serve every
        // k: each refinement is bit-identical to a run for that k alone.
        // As in a TIM+ plan, the two algorithms draw from separate
        // streams, so the refinement stream does not depend on how long
        // estimation ran.
        let g = setup(13);
        let refine = |ks: &[usize]| {
            let kpts = estimate_kpt(
                &g,
                &IndependentCascade,
                ks,
                1.0,
                &mut Rng::seed_from_u64(14),
            );
            let mut rng = Rng::seed_from_u64(15);
            refine_kpt(
                &g,
                &IndependentCascade,
                ks,
                0.5,
                1.0,
                &kpts,
                None,
                &mut rng,
                2,
            )
        };
        let ks = [12usize, 1, 30, 12, 4, 400];
        let batch = refine(&ks);
        assert_eq!(batch.len(), ks.len());
        for (&k, got) in ks.iter().zip(&batch) {
            let want = refine(&[k]).remove(0);
            assert_eq!(got.kpt_plus.to_bits(), want.kpt_plus.to_bits(), "k={k}");
            assert_eq!(got.kpt_prime.to_bits(), want.kpt_prime.to_bits(), "k={k}");
            assert_eq!(got.epsilon_prime.to_bits(), want.epsilon_prime.to_bits());
            assert_eq!(got.theta_prime, want.theta_prime, "k={k}");
        }
        assert!(refine(&[]).is_empty());
    }
}
