//! Plan regression guard: the sampling plans TIM+ and TIM derive before
//! node selection, pinned bit for bit.
//!
//! A plan fixes θ, and θ fixes which RR sets a run's greedy sees, so a
//! plan that drifts changes `TimPlus::run` answers. The end-to-end
//! benchmark cannot see such a drift, because its server and its
//! reference answers share the planner; these tables can. Each row is
//! `(k, θ, KPT* bits, KPT⁺ bits, ε′ bits, estimation RR sets)` (TIM rows
//! lack the two TIM+ columns), recorded with the one-`k` planner that
//! predates `TimPlus::plans`. Both `plan(k)` and the batched `plans(ks)`
//! must reproduce them exactly.

use tim_core::{SamplingPlan, Tim, TimPlus};
use tim_diffusion::{IndependentCascade, LinearThreshold};
use tim_graph::{gen, weights, Graph};

type Row = (usize, u64, u64, u64, u64, u64);

/// TIM+ under IC on [`ic_graph`], ε = 0.5, seed 7.
const IC_PLUS: [Row; 20] = [
    (
        1,
        124174,
        0x3ff0000000000000,
        0x3ff98effeaa41562,
        0x40048b7e7920170f,
        16059,
    ),
    (
        2,
        64482,
        0x3ff0000000000000,
        0x4011090ccf3cc7a4,
        0x40021e48665744b1,
        16453,
    ),
    (
        3,
        57361,
        0x3ff988dcc81cc706,
        0x40180ee4569b54b2,
        0x40008a9587550e5e,
        15785,
    ),
    (
        4,
        47717,
        0x4000a6496e9ac0fe,
        0x40213c4aa709a149,
        0x3ffecd3031014def,
        15538,
    ),
    (
        5,
        46793,
        0x40045fbe814f5af3,
        0x4024444d8066f20a,
        0x3ffd0ae303e8ac8d,
        15384,
    ),
    (
        6,
        42709,
        0x4007f47fc0c71ebe,
        0x40290724db54262c,
        0x3ffba08194d6d10c,
        15278,
    ),
    (
        7,
        44876,
        0x400b1e19c2293cec,
        0x402a67f341009658,
        0x3ffa73d1a281a3d0,
        8111,
    ),
    (
        8,
        45355,
        0x400e6ee5e2aae0fa,
        0x402c99b3944997d1,
        0x3ff97483ac22401d,
        8050,
    ),
    (
        9,
        42084,
        0x4010d1ef04c5743a,
        0x4030b3ee820ea5db,
        0x3ff897d1878225c8,
        8002,
    ),
    (
        10,
        41905,
        0x40125f86572bbf49,
        0x403208cb1bfa5eb0,
        0x3ff7d6467bce365c,
        7963,
    ),
    (
        11,
        40330,
        0x4013e1265447abf5,
        0x40340333b11c9e05,
        0x3ff72a87cf5f07b5,
        7931,
    ),
    (
        12,
        38932,
        0x401557a6f80a19dc,
        0x4036049c1ecb07fe,
        0x3ff6909ef4b5fb48,
        7904,
    ),
    (
        13,
        38593,
        0x4016c3cceedc5c3b,
        0x40377a7a93aa00ef,
        0x3ff60589e564a270,
        7881,
    ),
    (
        14,
        38885,
        0x4018264b7cedaaab,
        0x4038881215611cbd,
        0x3ff586f3aa1ee9e4,
        7861,
    ),
    (
        15,
        36641,
        0x4019a3857948d95b,
        0x403b4f78099d4bd4,
        0x3ff51304f9b2485a,
        4288,
    ),
    (
        16,
        35368,
        0x401af107ca0ac982,
        0x403d96867dae54b6,
        0x3ff4a843dcc790d9,
        4273,
    ),
    (
        17,
        36184,
        0x401c36af623ee027,
        0x403e297526b1c524,
        0x3ff4457d001cbd5c,
        4260,
    ),
    (
        18,
        35216,
        0x401d7506482a7e47,
        0x40401eda04a7e25f,
        0x3ff3e9b3735177c5,
        4248,
    ),
    (
        19,
        35047,
        0x401eac89894cd17f,
        0x4040d094f02c73e4,
        0x3ff39414c6e76bf7,
        4238,
    ),
    (
        20,
        34384,
        0x401fddaa98145d8d,
        0x4041c18f253b89ac,
        0x3ff343f0351df021,
        4228,
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
    (3, 209388, 0x3ff9ea99c8653801, 13479),
    (4, 191970, 0x4000e49ba56d6fe4, 13479),
    (5, 181300, 0x4004aa494f3cd126, 13479),
    (6, 174106, 0x40084a217c5a9e43, 13479),
    (7, 179173, 0x400a31ac182544b6, 6688),
    (8, 174785, 0x400d6b201a4e0da3, 6688),
    (9, 171369, 0x4010455b6df2eeeb, 6688),
    (10, 168646, 0x4011c927df6e7326, 6688),
    (11, 166434, 0x401341cf2c04a9a4, 6688),
    (12, 164609, 0x4014b0176b961df2, 6688),
    (13, 163083, 0x401614b4fb8ef255, 6688),
    (14, 161793, 0x4017704c41abbea9, 6688),
    (15, 151753, 0x401a38e55f983f51, 3292),
    (16, 151102, 0x401b8c2ac8b5203b, 3292),
    (17, 150552, 0x401cd74a39cbeec3, 3292),
    (18, 150082, 0x401e1ad3d2d2eda6, 3292),
    (19, 149678, 0x401f574a2430d8da, 3292),
    (20, 149327, 0x40204691ce3833db, 3292),
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
