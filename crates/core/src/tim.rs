//! End-to-end TIM and TIM+ drivers (§3.3 and §4.1).
//!
//! - [`Tim`]: `KptEstimation` → θ = λ/KPT* → `NodeSelection`. Expected time
//!   `O((k + ℓ)(m + n) log n / ε²)`; success probability ≥ `1 − n^(−ℓ)`
//!   after the §3.3 ℓ-adjustment (performed internally).
//! - [`TimPlus`]: inserts `RefineKPT` between the phases, sampling
//!   θ = λ/KPT⁺ instead — identical guarantees, up to two orders of
//!   magnitude faster in practice (paper Figures 3 and 6).
//!
//! Both record per-phase wall-clock timings ([`PhaseTimings`]) so the
//! paper's Figure 4 breakdown can be reproduced directly, and the RR-arena
//! footprint for Figure 12.

use crate::kpt::estimate_kpt;
use crate::math::{adjusted_ell, lambda};
use crate::refine::{refine_kpt, Refined};
use crate::select::node_selection;
use std::time::{Duration, Instant};
use tim_diffusion::{DiffusionModel, SAMPLER_REVISION};
use tim_graph::{Graph, NodeId};
use tim_rng::{RandomSource, Rng};

/// Wall-clock time spent in each phase of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Algorithm 2 (`KptEstimation`).
    pub parameter_estimation: Duration,
    /// Algorithm 3 (`RefineKPT`); zero for plain TIM.
    pub refinement: Duration,
    /// Algorithm 1 (`NodeSelection`).
    pub node_selection: Duration,
}

impl PhaseTimings {
    /// Total across phases.
    pub fn total(&self) -> Duration {
        self.parameter_estimation + self.refinement + self.node_selection
    }
}

/// Output of a TIM or TIM+ run.
#[derive(Debug, Clone)]
pub struct TimResult {
    /// The selected size-`k` seed set, in greedy order.
    pub seeds: Vec<NodeId>,
    /// θ: RR sets sampled by the node-selection phase.
    pub theta: u64,
    /// KPT* from Algorithm 2.
    pub kpt_star: f64,
    /// KPT⁺ from Algorithm 3 (TIM+ only).
    pub kpt_plus: Option<f64>,
    /// ε′ used by Algorithm 3 (TIM+ only).
    pub epsilon_prime: Option<f64>,
    /// `n · F_R(S)`: unbiased coverage estimate of the seeds' spread.
    pub estimated_spread: f64,
    /// Fraction of node-selection RR sets covered by the seeds.
    pub coverage_fraction: f64,
    /// RR sets generated across **all** phases.
    pub total_rr_sets: u64,
    /// Peak bytes of the node-selection RR arena (Figure 12).
    pub rr_memory_bytes: usize,
    /// Per-phase wall-clock timings (Figure 4).
    pub phases: PhaseTimings,
}

#[derive(Debug, Clone)]
struct Config {
    epsilon: f64,
    ell: f64,
    seed: u64,
    threads: usize,
    eps_prime_override: Option<f64>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            epsilon: 0.1,
            ell: 1.0,
            seed: 0,
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
            eps_prime_override: None,
        }
    }
}

macro_rules! builder_methods {
    () => {
        /// Sets the approximation slack ε (default 0.1, the paper's
        /// default). Smaller ε means more RR sets: θ scales as ε^(−2).
        #[must_use]
        pub fn epsilon(mut self, epsilon: f64) -> Self {
            assert!(epsilon > 0.0, "epsilon must be positive");
            self.cfg.epsilon = epsilon;
            self
        }

        /// Sets the failure exponent ℓ: success probability ≥ 1 − n^(−ℓ)
        /// (default 1).
        #[must_use]
        pub fn ell(mut self, ell: f64) -> Self {
            assert!(ell > 0.0, "ell must be positive");
            self.cfg.ell = ell;
            self
        }

        /// Sets the RNG seed; runs are deterministic given the seed
        /// regardless of thread count.
        #[must_use]
        pub fn seed(mut self, seed: u64) -> Self {
            self.cfg.seed = seed;
            self
        }

        /// Caps worker threads for RR-set generation (default: all cores).
        #[must_use]
        pub fn threads(mut self, threads: usize) -> Self {
            assert!(threads > 0, "threads must be positive");
            self.cfg.threads = threads;
            self
        }
    };
}

/// Everything the estimation phases determine *before* node selection:
/// the sample size θ, the RNG seed of the selection sampling stream, and
/// the KPT bounds that produced them.
///
/// A plan is a pure function of `(graph, model, ε, ℓ, seed, k)` — two
/// equal plans followed by [`node_selection`] produce byte-identical seed
/// sets. `tim_engine` relies on this to answer queries from a persisted
/// RR-set pool without re-running selection sampling: it re-derives the
/// plan (cheap) and replays only the greedy step over the pool prefix
/// that a fresh run would have sampled.
#[derive(Debug, Clone)]
pub struct SamplingPlan {
    /// Requested seed-set size, clamped to `n`.
    pub k: usize,
    /// θ: RR sets the node-selection phase must sample (Equation 5 with
    /// the KPT⁺ or KPT* bound).
    pub theta: u64,
    /// Seed of the node-selection sampling stream (pure function of the
    /// run seed; see [`select_stream_seed`]).
    pub select_seed: u64,
    /// KPT* from Algorithm 2.
    pub kpt_star: f64,
    /// KPT⁺ from Algorithm 3 (TIM+ plans only).
    pub kpt_plus: Option<f64>,
    /// ε′ used by Algorithm 3 (TIM+ plans only).
    pub epsilon_prime: Option<f64>,
    /// The §3.3/§4.1 union-bound-adjusted ℓ actually used.
    pub ell_eff: f64,
    /// RR sets consumed by the estimation phases themselves.
    pub estimation_rr_sets: u64,
    /// Wall-clock spent planning (`node_selection` component is zero);
    /// for a plan from [`TimPlus::plans`], the whole batch's.
    pub phases: PhaseTimings,
}

/// The seed of the node-selection sampling stream derived from a run seed.
///
/// [`Tim`]/[`TimPlus`] split their RNG into three streams (KPT estimation,
/// refinement, node selection); this exposes the third so that external
/// pool management (`tim_engine`) can label persisted RR-set pools with
/// the exact stream they were drawn from. Pure function of `seed`,
/// independent of `k`, ε, and ℓ.
///
/// The sampler revision ([`SAMPLER_REVISION`]) is XOR-ed in, so a pool
/// drawn by an older sampler carries a select seed that no longer
/// matches its run seed. Revision 0, the identity, is the derivation
/// from before revisions were counted.
pub fn select_stream_seed(seed: u64) -> u64 {
    run_streams(seed).2
}

/// A run seed's three streams: KPT estimation, refinement, and the
/// node-selection seed ([`select_stream_seed`]).
fn run_streams(seed: u64) -> (Rng, Rng, u64) {
    let mut base = Rng::seed_from_u64(seed);
    let kpt_rng = base.split_off();
    let refine_rng = base.split_off();
    (kpt_rng, refine_rng, base.next_u64() ^ SAMPLER_REVISION)
}

/// The TIM algorithm (§3.3): parameter estimation + node selection.
#[derive(Debug, Clone)]
pub struct Tim<M> {
    model: M,
    cfg: Config,
}

impl<M> Tim<M> {
    /// Creates a TIM runner for `model` with the paper's defaults
    /// (ε = 0.1, ℓ = 1).
    pub fn new(model: M) -> Self {
        Self {
            model,
            cfg: Config::default(),
        }
    }

    builder_methods!();

    /// Runs the parameter-estimation phase only, returning the θ and
    /// selection-stream seed a full [`run`](Self::run) would use.
    pub fn plan(&self, graph: &Graph, k: usize) -> SamplingPlan
    where
        M: DiffusionModel + Sync,
    {
        plans_impl(&self.model, &self.cfg, graph, &[k], false).remove(0)
    }

    /// Selects `k` seeds on `graph`.
    ///
    /// ```
    /// use tim_core::Tim;
    /// use tim_diffusion::IndependentCascade;
    /// use tim_graph::{gen, weights};
    ///
    /// let mut g = gen::barabasi_albert(300, 4, 0.1, 1);
    /// weights::assign_weighted_cascade(&mut g);
    /// let result = Tim::new(IndependentCascade)
    ///     .epsilon(0.8)
    ///     .seed(42)
    ///     .run(&g, 3);
    /// assert_eq!(result.seeds.len(), 3);
    /// assert!(result.theta >= 1);
    /// ```
    ///
    /// # Panics
    /// Panics if the graph has fewer than 2 nodes or no edges, or `k == 0`.
    pub fn run(&self, graph: &Graph, k: usize) -> TimResult
    where
        M: DiffusionModel + Sync,
    {
        run_impl(&self.model, &self.cfg, graph, k, false)
    }
}

/// The TIM+ algorithm (§4.1): TIM with the `RefineKPT` intermediate step.
#[derive(Debug, Clone)]
pub struct TimPlus<M> {
    model: M,
    cfg: Config,
}

impl<M> TimPlus<M> {
    /// Creates a TIM+ runner for `model` with the paper's defaults.
    pub fn new(model: M) -> Self {
        Self {
            model,
            cfg: Config::default(),
        }
    }

    builder_methods!();

    /// Overrides ε′ for Algorithm 3 (default: `5·(ℓ·ε²/(k+ℓ))^(1/3)`).
    #[must_use]
    pub fn epsilon_prime(mut self, eps_prime: f64) -> Self {
        assert!(eps_prime > 0.0, "epsilon_prime must be positive");
        self.cfg.eps_prime_override = Some(eps_prime);
        self
    }

    /// Runs the estimation and refinement phases only, returning the θ and
    /// selection-stream seed a full [`run`](Self::run) would use. The
    /// one-element case of [`plans`](Self::plans).
    pub fn plan(&self, graph: &Graph, k: usize) -> SamplingPlan
    where
        M: DiffusionModel + Sync,
    {
        self.plans(graph, &[k]).remove(0)
    }

    /// Plans every seed-set size in `ks` in one batched pass, returning
    /// one plan per entry of `ks`, in order (duplicates allowed, each `k`
    /// clamped to `n` as [`plan`](Self::plan) clamps it).
    ///
    /// Every plan is bit-identical to `plan(graph, k)`. In Algorithms 2
    /// and 3 only the κ statistic, the stopping test, ε′ and λ′ depend on
    /// `k`; the RR streams they read depend on the run seed alone. So the
    /// batch draws Algorithm 2's iterations once, keeping one κ sum per
    /// `k` and stopping each `k` at its own iteration, then samples
    /// Algorithm 3's θ′ stream once, at the largest θ′(k), and scores each
    /// `k`'s greedy candidate on its own θ′(k) prefix, sets `0..θ′(k)`. The
    /// cost is about that of the single most expensive plan, not the sum
    /// of all of them, which is what lets `tim_engine` plan every
    /// `k ≤ k_max` when it warms a pool.
    ///
    /// Each plan's [`phases`](SamplingPlan::phases) holds the whole
    /// batch's estimation and refinement times.
    ///
    /// ```
    /// use tim_core::TimPlus;
    /// use tim_diffusion::IndependentCascade;
    /// use tim_graph::{gen, weights};
    ///
    /// let mut g = gen::barabasi_albert(300, 4, 0.1, 1);
    /// weights::assign_weighted_cascade(&mut g);
    /// let planner = TimPlus::new(IndependentCascade).epsilon(0.8).seed(7);
    /// let plans = planner.plans(&g, &[5, 1, 5]);
    /// assert_eq!(plans.len(), 3);
    /// assert_eq!(plans[1].theta, planner.plan(&g, 1).theta);
    /// assert_eq!(plans[0].kpt_plus, plans[2].kpt_plus);
    /// ```
    ///
    /// # Panics
    /// Panics if any `k == 0`, or the graph has fewer than 2 nodes or no
    /// edges.
    pub fn plans(&self, graph: &Graph, ks: &[usize]) -> Vec<SamplingPlan>
    where
        M: DiffusionModel + Sync,
    {
        plans_impl(&self.model, &self.cfg, graph, ks, true)
    }

    /// Selects `k` seeds on `graph`.
    ///
    /// # Panics
    /// Panics if the graph has fewer than 2 nodes or no edges, or `k == 0`.
    pub fn run(&self, graph: &Graph, k: usize) -> TimResult
    where
        M: DiffusionModel + Sync,
    {
        run_impl(&self.model, &self.cfg, graph, k, true)
    }
}

fn plans_impl<M: DiffusionModel + Sync>(
    model: &M,
    cfg: &Config,
    graph: &Graph,
    ks: &[usize],
    refine: bool,
) -> Vec<SamplingPlan> {
    assert!(ks.iter().all(|&k| k >= 1), "k must be at least 1");
    assert!(graph.n() >= 2, "graph must have at least 2 nodes");
    assert!(graph.m() >= 1, "graph must have at least 1 edge");
    let n = graph.n() as u64;
    // Each distinct k, clamped to n, is planned once.
    let mut distinct: Vec<usize> = ks.iter().map(|&k| k.min(graph.n())).collect();
    distinct.sort_unstable();
    distinct.dedup();

    // §3.3 / §4.1: scale ℓ so the union-bounded success probability over
    // 2 (TIM) or 3 (TIM+) sub-steps is still 1 - n^-ℓ.
    let ell_eff = adjusted_ell(cfg.ell, n, if refine { 3.0 } else { 2.0 });

    let (mut kpt_rng, mut refine_rng, select_seed) = run_streams(cfg.seed);

    let mut phases = PhaseTimings::default();

    // Phase 1: Algorithm 2.
    let t0 = Instant::now();
    let kpts = estimate_kpt(graph, model, &distinct, ell_eff, &mut kpt_rng);
    phases.parameter_estimation = t0.elapsed();

    // Intermediate step: Algorithm 3 (TIM+ only).
    let refined: Vec<Option<Refined>> = if refine {
        let t1 = Instant::now();
        let refined = refine_kpt(
            graph,
            model,
            &distinct,
            cfg.epsilon,
            ell_eff,
            &kpts,
            cfg.eps_prime_override,
            &mut refine_rng,
            cfg.threads,
        );
        phases.refinement = t1.elapsed();
        refined.into_iter().map(Some).collect()
    } else {
        vec![None; distinct.len()]
    };

    let planned: Vec<SamplingPlan> = distinct
        .iter()
        .zip(&kpts)
        .zip(refined)
        .map(|((&k, kpt), refined)| {
            let bound = refined.as_ref().map_or(kpt.kpt_star, |r| r.kpt_plus);
            // θ = λ / bound (Equation 5).
            let lam = lambda(n, k as u64, cfg.epsilon, ell_eff);
            SamplingPlan {
                k,
                theta: (lam / bound).ceil().max(1.0) as u64,
                select_seed,
                kpt_star: kpt.kpt_star,
                kpt_plus: refined.as_ref().map(|r| r.kpt_plus),
                epsilon_prime: refined.as_ref().map(|r| r.epsilon_prime),
                ell_eff,
                estimation_rr_sets: kpt.total_rr_sets + refined.map_or(0, |r| r.theta_prime),
                phases,
            }
        })
        .collect();
    ks.iter()
        .map(|&k| {
            let at = distinct.binary_search(&k.min(graph.n()));
            planned[at.expect("every k was planned")].clone()
        })
        .collect()
}

fn run_impl<M: DiffusionModel + Sync>(
    model: &M,
    cfg: &Config,
    graph: &Graph,
    k: usize,
    refine: bool,
) -> TimResult {
    let plan = plans_impl(model, cfg, graph, &[k], refine).remove(0);
    let mut phases = plan.phases;

    // Phase 2: Algorithm 1 with the planned θ.
    let t2 = Instant::now();
    let sel = node_selection(
        graph,
        model,
        plan.k,
        plan.theta,
        plan.select_seed,
        cfg.threads,
    );
    phases.node_selection = t2.elapsed();

    TimResult {
        seeds: sel.seeds,
        theta: plan.theta,
        kpt_star: plan.kpt_star,
        kpt_plus: plan.kpt_plus,
        epsilon_prime: plan.epsilon_prime,
        estimated_spread: sel.estimated_spread,
        coverage_fraction: sel.coverage_fraction,
        total_rr_sets: plan.estimation_rr_sets + plan.theta,
        rr_memory_bytes: sel.rr_memory_bytes,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tim_diffusion::{IndependentCascade, LinearThreshold, SpreadEstimator};
    use tim_graph::{gen, weights, GraphBuilder};

    fn wc_graph(n: usize, seed: u64) -> Graph {
        let mut g = gen::barabasi_albert(n, 4, 0.0, seed);
        weights::assign_weighted_cascade(&mut g);
        g
    }

    #[test]
    fn tim_returns_k_distinct_seeds() {
        let g = wc_graph(300, 1);
        let r = Tim::new(IndependentCascade).epsilon(0.8).seed(2).run(&g, 7);
        assert_eq!(r.seeds.len(), 7);
        let mut s = r.seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 7);
        assert!(r.kpt_plus.is_none());
        assert!(r.theta >= 1);
    }

    #[test]
    fn tim_plus_uses_tighter_bound_and_fewer_sets() {
        let g = wc_graph(400, 3);
        let tim = Tim::new(IndependentCascade)
            .epsilon(0.6)
            .seed(4)
            .run(&g, 20);
        let timp = TimPlus::new(IndependentCascade)
            .epsilon(0.6)
            .seed(4)
            .run(&g, 20);
        let plus = timp.kpt_plus.unwrap();
        assert!(plus >= timp.kpt_star);
        // Tighter bound => smaller theta (allowing for the different
        // ell-adjustment between the two algorithms).
        assert!(
            timp.theta as f64 <= 1.2 * tim.theta as f64,
            "TIM+ theta {} should not exceed TIM theta {}",
            timp.theta,
            tim.theta
        );
    }

    #[test]
    fn spread_quality_beats_random_seeds() {
        let g = wc_graph(400, 5);
        let k = 10;
        let r = TimPlus::new(IndependentCascade)
            .epsilon(0.5)
            .seed(6)
            .run(&g, k);
        let est = SpreadEstimator::new(IndependentCascade).runs(5_000).seed(7);
        let tim_spread = est.estimate(&g, &r.seeds);
        let random_seeds: Vec<u32> = (100..100 + k as u32).collect();
        let random_spread = est.estimate(&g, &random_seeds);
        assert!(
            tim_spread > random_spread,
            "TIM {tim_spread} should beat random {random_spread}"
        );
    }

    #[test]
    fn runs_are_seed_deterministic() {
        let g = wc_graph(200, 8);
        let a = TimPlus::new(IndependentCascade)
            .epsilon(0.8)
            .seed(9)
            .run(&g, 5);
        let b = TimPlus::new(IndependentCascade)
            .epsilon(0.8)
            .seed(9)
            .run(&g, 5);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.theta, b.theta);
        let c = TimPlus::new(IndependentCascade)
            .epsilon(0.8)
            .seed(10)
            .run(&g, 5);
        // Different seed may still select the same nodes; theta or spread
        // will almost surely differ at the bit level.
        assert!(
            c.theta != a.theta || c.estimated_spread != a.estimated_spread || c.seeds != a.seeds
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let g = wc_graph(200, 11);
        let a = TimPlus::new(IndependentCascade)
            .epsilon(0.8)
            .seed(12)
            .threads(1)
            .run(&g, 5);
        for threads in [2, 4] {
            let b = TimPlus::new(IndependentCascade)
                .epsilon(0.8)
                .seed(12)
                .threads(threads)
                .run(&g, 5);
            assert_eq!(a.seeds, b.seeds, "threads={threads}");
            assert_eq!(a.theta, b.theta);
            assert_eq!(a.estimated_spread, b.estimated_spread);
        }
    }

    #[test]
    fn works_under_lt() {
        let mut g = gen::barabasi_albert(300, 4, 0.0, 13);
        weights::assign_lt_normalized(&mut g, 14);
        let r = TimPlus::new(LinearThreshold)
            .epsilon(0.7)
            .seed(15)
            .run(&g, 8);
        assert_eq!(r.seeds.len(), 8);
        assert!(r.estimated_spread >= 1.0);
    }

    #[test]
    fn theta_grows_as_epsilon_shrinks() {
        let g = wc_graph(250, 16);
        let loose = TimPlus::new(IndependentCascade)
            .epsilon(1.0)
            .seed(17)
            .run(&g, 5);
        let tight = TimPlus::new(IndependentCascade)
            .epsilon(0.5)
            .seed(17)
            .run(&g, 5);
        assert!(
            tight.theta > loose.theta,
            "theta must grow: eps=0.5 gives {}, eps=1.0 gives {}",
            tight.theta,
            loose.theta
        );
    }

    #[test]
    fn phase_timings_are_recorded() {
        let g = wc_graph(200, 18);
        let r = TimPlus::new(IndependentCascade)
            .epsilon(0.8)
            .seed(19)
            .run(&g, 5);
        assert!(r.phases.parameter_estimation > Duration::ZERO);
        assert!(r.phases.refinement > Duration::ZERO);
        assert!(r.phases.node_selection > Duration::ZERO);
        assert_eq!(
            r.phases.total(),
            r.phases.parameter_estimation + r.phases.refinement + r.phases.node_selection
        );
        assert!(r.rr_memory_bytes > 0);
        assert!(r.total_rr_sets >= r.theta);
    }

    #[test]
    fn k_is_clamped_to_n() {
        let mut b = GraphBuilder::new(4);
        b.add_edge_with_probability(0, 1, 1.0);
        b.add_edge_with_probability(1, 2, 1.0);
        b.add_edge_with_probability(2, 3, 1.0);
        let g = b.build();
        let r = Tim::new(IndependentCascade)
            .epsilon(1.0)
            .seed(20)
            .run(&g, 100);
        assert_eq!(r.seeds.len(), 4);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        let g = wc_graph(50, 21);
        Tim::new(IndependentCascade).run(&g, 0);
    }

    #[test]
    fn plan_matches_run() {
        let g = wc_graph(250, 26);
        let runner = TimPlus::new(IndependentCascade).epsilon(0.7).seed(27);
        let plan = runner.plan(&g, 6);
        let result = runner.run(&g, 6);
        assert_eq!(plan.theta, result.theta);
        assert_eq!(plan.kpt_star, result.kpt_star);
        assert_eq!(plan.kpt_plus, result.kpt_plus);
        assert_eq!(plan.estimation_rr_sets + plan.theta, result.total_rr_sets);
        assert_eq!(plan.select_seed, select_stream_seed(27));
    }

    #[test]
    fn select_stream_seed_is_k_and_epsilon_independent() {
        let g = wc_graph(200, 28);
        let a = TimPlus::new(IndependentCascade)
            .epsilon(0.5)
            .seed(29)
            .plan(&g, 3);
        let b = TimPlus::new(IndependentCascade)
            .epsilon(0.9)
            .seed(29)
            .plan(&g, 12);
        assert_eq!(a.select_seed, b.select_seed);
        assert_eq!(a.select_seed, select_stream_seed(29));
    }

    #[test]
    fn epsilon_prime_override_propagates() {
        let g = wc_graph(200, 24);
        let r = TimPlus::new(IndependentCascade)
            .epsilon(0.8)
            .epsilon_prime(0.9)
            .seed(25)
            .run(&g, 5);
        assert_eq!(r.epsilon_prime, Some(0.9));
    }
}
