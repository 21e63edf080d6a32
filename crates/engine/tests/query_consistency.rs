//! The engine's headline guarantee: a warm pool answers any `k ≤ K`
//! byte-identically to a fresh TIM+ run at the same `(seed, ε, ℓ, k)`,
//! and persistence does not change answers.

use tim_core::TimPlus;
use tim_diffusion::{IndependentCascade, LinearThreshold};
use tim_engine::{QueryEngine, RrPool, SharedEngine};
use tim_graph::{gen, weights, Graph};

const K: usize = 20;
const EPS: f64 = 0.6;
const ELL: f64 = 1.0;
const SEED: u64 = 42;

fn ic_graph() -> Graph {
    let mut g = gen::barabasi_albert(400, 4, 0.0, 3);
    weights::assign_weighted_cascade(&mut g);
    g
}

fn warm_engine() -> SharedEngine<IndependentCascade> {
    let mut e = QueryEngine::new(ic_graph(), IndependentCascade, "ic")
        .epsilon(EPS)
        .ell(ELL)
        .seed(SEED)
        .k_max(K);
    e.start_warm();
    let shared = SharedEngine::new(e);
    shared.warm();
    shared
}

#[test]
fn warm_pool_matches_fresh_runs_at_every_k() {
    let g = ic_graph();
    let engine = warm_engine();
    let pool_theta = engine.pool_theta();
    let mut largest = 0;
    for k in 1..=K {
        let fresh = TimPlus::new(IndependentCascade)
            .epsilon(EPS)
            .ell(ELL)
            .seed(SEED)
            .run(&g, k);
        let warm = engine.select(k);
        assert_eq!(
            warm.seeds, fresh.seeds,
            "k={k}: warm-pool seeds differ from a fresh run"
        );
        assert_eq!(warm.theta_used, fresh.theta, "k={k}: theta differs");
        assert!(!warm.resampled, "k={k}: warm pool must not resample");
        assert_eq!(warm.estimated_spread, fresh.estimated_spread);
        largest = largest.max(fresh.theta);
    }
    // The warm pool is exactly as large as the largest plan needs.
    assert_eq!(pool_theta, largest);
    assert_eq!(engine.pool_theta(), pool_theta);
}

#[test]
fn answers_survive_pool_persistence() {
    let engine = warm_engine();
    let mut bytes = Vec::new();
    engine.to_pool().write(&mut bytes).unwrap();

    let pool = RrPool::read(bytes.as_slice()).unwrap();
    let revived = SharedEngine::new(
        QueryEngine::from_pool(ic_graph(), IndependentCascade, "ic", pool).unwrap(),
    );
    let g = ic_graph();
    for k in [1usize, K / 2, K] {
        let fresh = TimPlus::new(IndependentCascade)
            .epsilon(EPS)
            .ell(ELL)
            .seed(SEED)
            .run(&g, k);
        let warm = revived.select(k);
        assert_eq!(warm.seeds, fresh.seeds, "k={k} after pool round trip");
        assert!(!warm.resampled);
    }
}

#[test]
fn resample_happens_exactly_when_theta_demands_it() {
    let engine = warm_engine();
    let warm_theta = engine.pool_theta();

    // Looser epsilon: smaller theta, no resample.
    let loose = engine.select_with(K, Some(EPS * 1.5), None);
    assert!(!loose.resampled);
    assert!(loose.theta_used <= warm_theta);

    // Much tighter epsilon (theta scales as eps^-2, so ~144x): the pool
    // must grow and still match a fresh run at that epsilon.
    let tight_eps = EPS / 12.0;
    let tight = engine.select_with(K, Some(tight_eps), None);
    assert_eq!(tight.resampled, tight.theta_used > warm_theta);
    assert!(tight.resampled, "a 144x theta demand must resample");
    assert!(engine.pool_theta() >= tight.theta_used);
    let fresh = TimPlus::new(IndependentCascade)
        .epsilon(tight_eps)
        .ell(ELL)
        .seed(SEED)
        .run(&ic_graph(), K);
    assert_eq!(tight.seeds, fresh.seeds);

    // The grown pool still answers the original epsilon identically.
    let back = engine.select(K);
    assert!(!back.resampled);
    let fresh_back = TimPlus::new(IndependentCascade)
        .epsilon(EPS)
        .ell(ELL)
        .seed(SEED)
        .run(&ic_graph(), K);
    assert_eq!(back.seeds, fresh_back.seeds);
}

#[test]
fn exactness_holds_under_the_lt_model_too() {
    let mut g = gen::barabasi_albert(300, 4, 0.0, 5);
    weights::assign_lt_normalized(&mut g, 6);
    let engine = SharedEngine::new(
        QueryEngine::new(g.clone(), LinearThreshold, "lt")
            .epsilon(0.7)
            .seed(9)
            .k_max(8),
    );
    engine.warm();
    for k in [1usize, 4, 8] {
        let fresh = TimPlus::new(LinearThreshold)
            .epsilon(0.7)
            .seed(9)
            .run(&g, k);
        assert_eq!(engine.select(k).seeds, fresh.seeds, "LT k={k}");
    }
}

#[test]
fn fast_mode_spread_is_competitive_with_exact_mode() {
    let engine = warm_engine();
    let exact = engine.select(K);
    let fast = engine.select_fast(K);
    assert_eq!(fast.seeds.len(), K);
    // Both are greedy runs over >= the required theta; their coverage
    // estimates must land close to each other.
    let rel = (exact.estimated_spread - fast.estimated_spread).abs() / exact.estimated_spread;
    assert!(
        rel < 0.1,
        "exact spread {} vs fast spread {}",
        exact.estimated_spread,
        fast.estimated_spread
    );
}
