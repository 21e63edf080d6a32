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
//! κ, KPT and θ moved once. Both `plan(k)` and the batched `plans(ks)`
//! must reproduce every table exactly.

use tim_core::{SamplingPlan, Tim, TimPlus};
use tim_diffusion::{IndependentCascade, LinearThreshold};
use tim_graph::{gen, weights, Graph};

type Row = (usize, u64, u64, u64, u64, u64);

/// TIM+ under IC on [`ic_graph`], ε = 0.5, seed 7.
const IC_PLUS: [Row; 20] = [
    (
        1,
        75584,
        0x3ff0000000000000,
        0x4004fe9b5c2b5ab5,
        0x40048b7e7920170f,
        16059,
    ),
    (
        2,
        68669,
        0x3ff0000000000000,
        0x400ffe43c3a41947,
        0x40021e48665744b1,
        16453,
    ),
    (
        3,
        58512,
        0x3ffbe5a99e69515c,
        0x401795cc9f7bd2ec,
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
        44508,
        0x40062264dbf9e7fa,
        0x40254ea515c0c36a,
        0x3ffd0ae303e8ac8d,
        15281,
    ),
    (
        6,
        36533,
        0x4009f47ee598a70b,
        0x402d425558264925,
        0x3ffba08194d6d10c,
        15187,
    ),
    (
        7,
        35128,
        0x400a5236ec6d312b,
        0x4030ddf3faca90da,
        0x3ffa73d1a281a3d0,
        8145,
    ),
    (
        8,
        34988,
        0x400d837e66e33b76,
        0x403289914abe362b,
        0x3ff97483ac22401d,
        8083,
    ),
    (
        9,
        34669,
        0x40104cc5409f4c78,
        0x403446747c7aaa7e,
        0x3ff897d1878225c8,
        8034,
    ),
    (
        10,
        33226,
        0x4011cb4d6872d2f4,
        0x4036bea60cbd9a61,
        0x3ff7d6467bce365c,
        7995,
    ),
    (
        11,
        33740,
        0x40133e5958d18903,
        0x4037ebde426507de,
        0x3ff72a87cf5f07b5,
        7962,
    ),
    (
        12,
        32656,
        0x4014a6d01b056c2a,
        0x403a3fe6648f3f2d,
        0x3ff6909ef4b5fb48,
        7934,
    ),
    (
        13,
        32334,
        0x401605811fc7233c,
        0x403c060f9eb4a798,
        0x3ff60589e564a270,
        7911,
    ),
    (
        14,
        32997,
        0x4019930b5b08d5bc,
        0x403ce8bdd88d7684,
        0x3ff586f3aa1ee9e4,
        4261,
    ),
    (
        15,
        32592,
        0x401b021d94e15479,
        0x403eb414c722a67d,
        0x3ff51304f9b2485a,
        4245,
    ),
    (
        16,
        32392,
        0x401c68a59e2950a5,
        0x4040274913cf6400,
        0x3ff4a843dcc790d9,
        4230,
    ),
    (
        17,
        31998,
        0x401dc7335aa63483,
        0x40410db549eb4625,
        0x3ff4457d001cbd5c,
        4217,
    ),
    (
        18,
        32236,
        0x401f1e494d70360e,
        0x40419c68367fb5b6,
        0x3ff3e9b3735177c5,
        4205,
    ),
    (
        19,
        31467,
        0x4020372f017095af,
        0x4042ba5e1696d6b7,
        0x3ff39414c6e76bf7,
        4195,
    ),
    (
        20,
        31884,
        0x4020dbeea8ebacfa,
        0x404325f0ca2fe926,
        0x3ff343f0351df021,
        4185,
    ),
];

/// TIM+ under LT on [`lt_graph`], ε = 0.5, seed 11.
const LT_PLUS: [Row; 20] = [
    (
        1,
        115895,
        0x3ff0000000000000,
        0x3ffb625b56d4600d,
        0x40048b7e7920170f,
        16059,
    ),
    (
        2,
        61483,
        0x3ff0000000000000,
        0x4011ddc8c05ef6d8,
        0x40021e48665744b1,
        16453,
    ),
    (
        3,
        51376,
        0x3ff0000000000000,
        0x401adc7005877429,
        0x40008a9587550e5e,
        16793,
    ),
    (
        4,
        48401,
        0x3fffc45a60f48d9d,
        0x4020fde587d9a07c,
        0x3ffecd3031014def,
        15607,
    ),
    (
        5,
        44605,
        0x4003762c20b898fb,
        0x402542b47c7eca96,
        0x3ffd0ae303e8ac8d,
        15444,
    ),
    (
        6,
        41763,
        0x4006e8bbb9dadd02,
        0x4029985cd2eb0c52,
        0x3ffba08194d6d10c,
        15332,
    ),
    (
        7,
        43272,
        0x400bd899b7b2c902,
        0x402b629dcca7fa2f,
        0x3ffa73d1a281a3d0,
        8082,
    ),
    (
        8,
        39059,
        0x400f33938c7919ee,
        0x40309af070f05113,
        0x3ff97483ac22401d,
        8024,
    ),
    (
        9,
        35204,
        0x4011383340f9afc7,
        0x4033f7a6b64a8edb,
        0x3ff897d1878225c8,
        7979,
    ),
    (
        10,
        33855,
        0x4012c8c469835624,
        0x40365291b8a411ff,
        0x3ff7d6467bce365c,
        7942,
    ),
    (
        11,
        33413,
        0x40144c99b43fcc02,
        0x403827de8e4b0e86,
        0x3ff72a87cf5f07b5,
        7912,
    ),
    (
        12,
        33954,
        0x4015c4b4156d3f79,
        0x40393eebb8216fab,
        0x3ff6909ef4b5fb48,
        7886,
    ),
    (
        13,
        39904,
        0x4019098d67dd5596,
        0x4036b50d926a9c4d,
        0x3ff60589e564a270,
        4249,
    ),
    (
        14,
        37494,
        0x401a877fea0ca2fa,
        0x403970fb277f0055,
        0x3ff586f3aa1ee9e4,
        4232,
    ),
    (
        15,
        37176,
        0x401bfb1d96139c91,
        0x403aead10c5f0988,
        0x3ff51304f9b2485a,
        4217,
    ),
    (
        16,
        36249,
        0x401d65201a10e2c3,
        0x403cde860df2f693,
        0x3ff4a843dcc790d9,
        4203,
    ),
    (
        17,
        35732,
        0x401ec6307dbe9642,
        0x403e8b21ecb921cb,
        0x3ff4457d001cbd5c,
        4192,
    ),
    (
        18,
        33918,
        0x40200f7460e116b2,
        0x4040bcb8becbe326,
        0x3ff3e9b3735177c5,
        4181,
    ),
    (
        19,
        33031,
        0x4020b7eaaa6ce371,
        0x4041d73cecda567f,
        0x3ff39414c6e76bf7,
        4172,
    ),
    (
        20,
        32385,
        0x40215cbb31a3e695,
        0x4042da16f51a6331,
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
