//! Plan regression guard: the sampling plans TIM+ and TIM derive before
//! node selection, pinned bit for bit.
//!
//! A plan fixes θ, and θ fixes which RR sets a run's greedy sees, so a
//! plan that drifts changes `TimPlus::run` answers. The end-to-end
//! benchmark cannot see such a drift, because its server and its
//! reference answers share the planner; these tables can. Each row is
//! `(k, θ, KPT* bits, KPT⁺ bits, ε′ bits, estimation RR sets)` (TIM rows
//! lack the two TIM+ columns). `LT_PLUS` was recorded with the one-`k`
//! planner that predates `TimPlus::plans`. `IC_PLUS` and `IC_TIM` were
//! re-recorded from the lone `plan(k)` when IC reverse sampling moved to
//! subset sampling (`tim_diffusion::SAMPLER_REVISION` 1): the RR-set
//! distribution is unchanged but the sets drawn from a seed are not, so
//! κ, KPT and θ moved once. The θ and KPT⁺ columns of `IC_PLUS` and
//! `LT_PLUS` were re-recorded from the lone `plan(k)` when set j of a
//! stream came to be keyed by `(seed, j)` (revision 2): that moved
//! Algorithm 3's θ′ sample, while Algorithm 2's stream, and with it
//! every other column, stayed. Both `plan(k)` and the batched
//! `plans(ks)` must reproduce every table exactly.

use tim_core::{SamplingPlan, Tim, TimPlus};
use tim_diffusion::{IndependentCascade, LinearThreshold};
use tim_graph::{gen, weights, Graph};

type Row = (usize, u64, u64, u64, u64, u64);

/// TIM+ under IC on [`ic_graph`], ε = 0.5, seed 7.
const IC_PLUS: [Row; 20] = [
    (
        1,
        82783,
        0x3ff0000000000000,
        0x40032b3feffb100a,
        0x40048b7e7920170f,
        16059,
    ),
    (
        2,
        75536,
        0x3ff0000000000000,
        0x400d15b1f7ac7412,
        0x40021e48665744b1,
        16453,
    ),
    (
        3,
        56887,
        0x3ffbe5a99e69515c,
        0x4018424ecfed1376,
        0x40008a9587550e5e,
        15642,
    ),
    (
        4,
        47433,
        0x4002236328817fb3,
        0x402156acfb160220,
        0x3ffecd3031014def,
        15419,
    ),
    (
        5,
        40837,
        0x40062264dbf9e7fa,
        0x402738f33478ebff,
        0x3ffd0ae303e8ac8d,
        15281,
    ),
    (
        6,
        37216,
        0x4009f47ee598a70b,
        0x402cb8e5649fb62f,
        0x3ffba08194d6d10c,
        15187,
    ),
    (
        7,
        34592,
        0x400a5236ec6d312b,
        0x403120e5e6dd9515,
        0x3ffa73d1a281a3d0,
        8145,
    ),
    (
        8,
        35530,
        0x400d837e66e33b76,
        0x4032411dbaf20671,
        0x3ff97483ac22401d,
        8083,
    ),
    (
        9,
        32948,
        0x40104cc5409f4c78,
        0x4035559923759c7a,
        0x3ff897d1878225c8,
        8034,
    ),
    (
        10,
        33943,
        0x4011cb4d6872d2f4,
        0x403643a28aab2cc0,
        0x3ff7d6467bce365c,
        7995,
    ),
    (
        11,
        32372,
        0x40133e5958d18903,
        0x4038ee9f89b50497,
        0x3ff72a87cf5f07b5,
        7962,
    ),
    (
        12,
        31802,
        0x4014a6d01b056c2a,
        0x403af44ccae8ff95,
        0x3ff6909ef4b5fb48,
        7934,
    ),
    (
        13,
        31113,
        0x401605811fc7233c,
        0x403d1f6590d9db56,
        0x3ff60589e564a270,
        7911,
    ),
    (
        14,
        31851,
        0x4019930b5b08d5bc,
        0x403df2f48f4e685a,
        0x3ff586f3aa1ee9e4,
        4261,
    ),
    (
        15,
        31491,
        0x401b021d94e15479,
        0x403fc6e8bfc6c55f,
        0x3ff51304f9b2485a,
        4245,
    ),
    (
        16,
        30709,
        0x401c68a59e2950a5,
        0x404109e05e8a18d3,
        0x3ff4a843dcc790d9,
        4230,
    ),
    (
        17,
        29267,
        0x401dc7335aa63483,
        0x4042a52c9be956ee,
        0x3ff4457d001cbd5c,
        4217,
    ),
    (
        18,
        28974,
        0x401f1e494d70360e,
        0x404397f9e115b786,
        0x3ff3e9b3735177c5,
        4205,
    ),
    (
        19,
        28392,
        0x4020372f017095af,
        0x4044c180bc17ae60,
        0x3ff39414c6e76bf7,
        4195,
    ),
    (
        20,
        28935,
        0x4020dbeea8ebacfa,
        0x404519805c58aa7d,
        0x3ff343f0351df021,
        4185,
    ),
];

/// TIM+ under LT on [`lt_graph`], ε = 0.5, seed 11.
const LT_PLUS: [Row; 20] = [
    (
        1,
        108652,
        0x3ff0000000000000,
        0x3ffd35b6c304aab9,
        0x40048b7e7920170f,
        16059,
    ),
    (
        2,
        65278,
        0x3ff0000000000000,
        0x4010d3ddd2f43bd7,
        0x40021e48665744b1,
        16453,
    ),
    (
        3,
        52898,
        0x3ff0000000000000,
        0x401a168df2f3e6b0,
        0x40008a9587550e5e,
        16793,
    ),
    (
        4,
        49453,
        0x3fffc45a60f48d9d,
        0x4020a1587a10e954,
        0x3ffecd3031014def,
        15607,
    ),
    (
        5,
        45971,
        0x4003762c20b898fb,
        0x4024a10a5f736bdb,
        0x3ffd0ae303e8ac8d,
        15444,
    ),
    (
        6,
        42551,
        0x4006e8bbb9dadd02,
        0x40291f05c587e16c,
        0x3ffba08194d6d10c,
        15332,
    ),
    (
        7,
        41591,
        0x400bd899b7b2c902,
        0x402c7ddfa6613040,
        0x3ffa73d1a281a3d0,
        8082,
    ),
    (
        8,
        39776,
        0x400f33938c7919ee,
        0x40304e58815ab07a,
        0x3ff97483ac22401d,
        8024,
    ),
    (
        9,
        38265,
        0x4011383340f9afc7,
        0x40325eb8185912c9,
        0x3ff897d1878225c8,
        7979,
    ),
    (
        10,
        38859,
        0x4012c8c469835624,
        0x4033729a1b0b0fae,
        0x3ff7d6467bce365c,
        7942,
    ),
    (
        11,
        34955,
        0x40144c99b43fcc02,
        0x4037170d3531283c,
        0x3ff72a87cf5f07b5,
        7912,
    ),
    (
        12,
        34720,
        0x4015c4b4156d3f79,
        0x4038b05b39b74971,
        0x3ff6909ef4b5fb48,
        7886,
    ),
    (
        13,
        35362,
        0x4019098d67dd5596,
        0x40399faf05840bf8,
        0x3ff60589e564a270,
        4249,
    ),
    (
        14,
        34297,
        0x401a877fea0ca2fa,
        0x403bd01f957ba76a,
        0x3ff586f3aa1ee9e4,
        4232,
    ),
    (
        15,
        34602,
        0x401bfb1d96139c91,
        0x403ceb5b4ee0d11d,
        0x3ff51304f9b2485a,
        4217,
    ),
    (
        16,
        34601,
        0x401d65201a10e2c3,
        0x403e3e740e9d0250,
        0x3ff4a843dcc790d9,
        4203,
    ),
    (
        17,
        34155,
        0x401ec6307dbe9642,
        0x403ff403fb965a7f,
        0x3ff4457d001cbd5c,
        4192,
    ),
    (
        18,
        33676,
        0x40200f7460e116b2,
        0x4040db8c07ff14ac,
        0x3ff3e9b3735177c5,
        4181,
    ),
    (
        19,
        33493,
        0x4020b7eaaa6ce371,
        0x4041983dd9b2401e,
        0x3ff39414c6e76bf7,
        4172,
    ),
    (
        20,
        33046,
        0x40215cbb31a3e695,
        0x4042799160d74cbc,
        0x3ff343f0351df021,
        4163,
    ),
];

/// Plain TIM under IC on [`ic_graph`], ε = 0.5, seed 7:
/// `(k, θ, KPT* bits, estimation RR sets)`.
const IC_TIM: [(usize, u64, u64, u64); 20] = [
    (1, 192517, 0x3ff0000000000000, 13479),
    (2, 268777, 0x3ff0000000000000, 13479),
    (3, 196077, 0x3ffbad0685082709, 13479),
    (4, 180265, 0x4001fd6b3213e5a3, 13479),
    (5, 170701, 0x4005f2c20127ed6a, 13479),
    (6, 164351, 0x4009bb367007433f, 13479),
    (7, 175105, 0x400acd7704105e2e, 6688),
    (8, 171006, 0x400e118acf83d810, 6688),
    (9, 167831, 0x40109d29192b570a, 6688),
    (10, 165312, 0x401224fd88295dee, 6688),
    (11, 163274, 0x4013a13d4f67372f, 6688),
    (12, 161598, 0x401512c9e08873b3, 6688),
    (13, 160200, 0x40167a6e519b9b84, 6688),
    (14, 159022, 0x4017d8e1d5c366a5, 6688),
    (15, 152043, 0x401a2c0d196f9315, 3292),
    (16, 151142, 0x401b8a57d3b652be, 3292),
    (17, 150352, 0x401ce1204222cefb, 3292),
    (18, 149654, 0x401e30e040f12b5a, 3292),
    (19, 149032, 0x401f7a0661706d7e, 3292),
    (20, 148475, 0x40205e7b8ecf23be, 3292),
];

/// Weighted-cascade Barabási–Albert graph, n = 400.
fn ic_graph() -> Graph {
    let mut g = gen::barabasi_albert(400, 4, 0.0, 1);
    weights::assign_weighted_cascade(&mut g);
    g
}

/// LT-normalised Barabási–Albert graph, n = 400.
fn lt_graph() -> Graph {
    let mut g = gen::barabasi_albert(400, 4, 0.0, 2);
    weights::assign_lt_normalized(&mut g, 3);
    g
}

fn ic_plus() -> TimPlus<IndependentCascade> {
    TimPlus::new(IndependentCascade)
        .epsilon(0.5)
        .seed(7)
        .threads(2)
}

fn lt_plus() -> TimPlus<LinearThreshold> {
    TimPlus::new(LinearThreshold)
        .epsilon(0.5)
        .seed(11)
        .threads(2)
}

fn row(p: &SamplingPlan) -> Row {
    (
        p.k,
        p.theta,
        p.kpt_star.to_bits(),
        p.kpt_plus.expect("TIM+ plan").to_bits(),
        p.epsilon_prime.expect("TIM+ plan").to_bits(),
        p.estimation_rr_sets,
    )
}

/// Every field a plan carries except its wall-clock timings.
fn same_plan(a: &SamplingPlan, b: &SamplingPlan) -> bool {
    a.k == b.k
        && a.theta == b.theta
        && a.select_seed == b.select_seed
        && a.kpt_star.to_bits() == b.kpt_star.to_bits()
        && a.kpt_plus.map(f64::to_bits) == b.kpt_plus.map(f64::to_bits)
        && a.epsilon_prime.map(f64::to_bits) == b.epsilon_prime.map(f64::to_bits)
        && a.ell_eff.to_bits() == b.ell_eff.to_bits()
        && a.estimation_rr_sets == b.estimation_rr_sets
}

#[test]
fn tim_plus_plans_match_the_ic_golden_table() {
    let g = ic_graph();
    let planner = ic_plus();
    for want in IC_PLUS {
        assert_eq!(row(&planner.plan(&g, want.0)), want, "plan({})", want.0);
    }
    let ks: Vec<usize> = IC_PLUS.iter().map(|r| r.0).collect();
    let batch: Vec<Row> = planner.plans(&g, &ks).iter().map(row).collect();
    assert_eq!(batch, IC_PLUS);
}

#[test]
fn tim_plus_plans_match_the_lt_golden_table() {
    let g = lt_graph();
    let planner = lt_plus();
    for want in LT_PLUS {
        assert_eq!(row(&planner.plan(&g, want.0)), want, "plan({})", want.0);
    }
    let ks: Vec<usize> = LT_PLUS.iter().map(|r| r.0).collect();
    let batch: Vec<Row> = planner.plans(&g, &ks).iter().map(row).collect();
    assert_eq!(batch, LT_PLUS);
}

#[test]
fn tim_plans_match_the_golden_table() {
    let g = ic_graph();
    let planner = Tim::new(IndependentCascade).epsilon(0.5).seed(7).threads(2);
    for want in IC_TIM {
        let p = planner.plan(&g, want.0);
        assert!(p.kpt_plus.is_none() && p.epsilon_prime.is_none());
        let got = (p.k, p.theta, p.kpt_star.to_bits(), p.estimation_rr_sets);
        assert_eq!(got, want, "plan({})", want.0);
    }
}

#[test]
fn batched_plans_equal_separate_plan_calls() {
    // Unsorted, with duplicates, and with k > n (clamped to n = 400).
    let ks = [9usize, 3, 20, 3, 1, 1000, 9, 400, 2];
    let g = ic_graph();
    let planner = ic_plus();
    let batch = planner.plans(&g, &ks);
    assert_eq!(batch.len(), ks.len());
    for (&k, got) in ks.iter().zip(&batch) {
        let want = planner.plan(&g, k);
        assert_eq!(want.k, k.min(g.n()));
        assert!(same_plan(got, &want), "k={k}: {got:?} vs {want:?}");
    }
    assert!(planner.plans(&g, &[]).is_empty());

    let g = lt_graph();
    let planner = lt_plus();
    for (&k, got) in ks.iter().zip(&planner.plans(&g, &ks)) {
        assert!(same_plan(got, &planner.plan(&g, k)), "LT k={k}");
    }
}

#[test]
#[should_panic(expected = "k must be at least 1")]
fn batched_plans_reject_k_zero() {
    ic_plus().plans(&ic_graph(), &[3, 0]);
}
