//! Property-based tests (proptest) for cross-crate invariants on random
//! graphs and random seed sets.

use proptest::prelude::*;
use tim_influence::coverage::{
    greedy_max_cover, greedy_max_cover_indexed_stats, greedy_max_cover_prefix, SetCollection,
};
use tim_influence::prelude::*;
use tim_influence::rng::Xoshiro256pp as TimRng;

/// Strategy: a random directed graph as (n, edge list with probabilities).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0.0f32..=1.0), 0..(n * 3));
        edges.prop_map(move |es| {
            let mut b = GraphBuilder::new(n);
            for (u, v, p) in es {
                b.add_edge_with_probability(u, v, p);
            }
            b.build()
        })
    })
}

/// A random collection: `sets` sets over universe `n`, each with up to
/// `max_size` distinct members (empty sets included). Deterministic in
/// `seed`.
fn random_collection(seed: u64, n: usize, sets: usize, max_size: usize) -> SetCollection {
    let mut rng = TimRng::seed_from_u64(seed);
    let mut c = SetCollection::new(n);
    for _ in 0..sets {
        let size = rng.next_index(max_size + 1);
        let mut members: Vec<NodeId> = (0..size).map(|_| rng.next_index(n) as NodeId).collect();
        members.sort_unstable();
        members.dedup();
        c.push(&members);
    }
    c.ensure_inverted_index();
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_round_trips_and_validates(g in arb_graph()) {
        prop_assert!(g.validate().is_ok());
        // edges() count matches m, and transpose preserves the multiset.
        prop_assert_eq!(g.edges().count(), g.m());
        let t = g.transpose();
        prop_assert_eq!(t.m(), g.m());
        let mut a: Vec<_> = g.edges().map(|(u, v, p)| (u, v, p.to_bits())).collect();
        let mut b: Vec<_> = t.edges().map(|(u, v, p)| (v, u, p.to_bits())).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn degree_sums_agree(g in arb_graph()) {
        let out_sum: usize = (0..g.n() as u32).map(|v| g.out_degree(v)).sum();
        let in_sum: usize = (0..g.n() as u32).map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_sum, g.m());
        prop_assert_eq!(in_sum, g.m());
    }

    #[test]
    fn rr_sets_contain_root_and_only_ancestors(
        g in arb_graph(),
        root_pick in 0u32..40,
        seed in 0u64..1000,
    ) {
        let root = root_pick % g.n() as u32;
        let mut sampler = RrSampler::new(IndependentCascade);
        let mut rng = TimRng::seed_from_u64(seed);
        let mut out = Vec::new();
        let stats = sampler.sample_for(&g, root, &mut rng, &mut out);
        prop_assert_eq!(out[0], root);
        prop_assert_eq!(stats.nodes as usize, out.len());
        // Every member must reach the root in the full graph (necessary
        // condition for membership in any live-edge RR set).
        let can_reach =
            tim_influence::diffusion::live_edge::reverse_reachable(&g, root);
        for &u in &out {
            prop_assert!(can_reach[u as usize], "node {} cannot reach root", u);
        }
        // Width accounting.
        let w: u64 = out.iter().map(|&v| g.in_degree(v) as u64).sum();
        prop_assert_eq!(stats.width, w);
    }

    #[test]
    fn forward_simulation_respects_reachability(
        g in arb_graph(),
        seed_pick in 0u32..40,
        seed in 0u64..1000,
    ) {
        let s = seed_pick % g.n() as u32;
        let mut ws = SimWorkspace::new();
        let mut rng = TimRng::seed_from_u64(seed);
        let count = IndependentCascade.simulate(&mut ws, &g, &[s], &mut rng);
        // Activated nodes must be reachable from the seed in G.
        let reach = tim_influence::diffusion::live_edge::forward_reachable(&g, &[s]);
        for &v in ws.activated() {
            prop_assert!(reach[v as usize]);
        }
        let max_reach = reach.iter().filter(|&&x| x).count() as u32;
        prop_assert!(count >= 1 && count <= max_reach);
    }

    #[test]
    fn greedy_cover_marginals_decrease_and_match_count(
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0u32..25, 1..6),
            1..40,
        ),
        k in 1usize..26,
    ) {
        let mut c = SetCollection::new(25);
        for s in &sets {
            let members: Vec<NodeId> = s.iter().copied().collect();
            c.push(&members);
        }
        let r = greedy_max_cover(&mut c, k);
        for w in r.marginal.windows(2) {
            prop_assert!(w[0] >= w[1], "marginals increased: {:?}", r.marginal);
        }
        prop_assert_eq!(r.covered, c.count_covered(&r.seeds));
        prop_assert_eq!(r.seeds.len(), k);
    }

    #[test]
    fn spread_estimator_bounds(g in arb_graph(), seed in 0u64..1000) {
        let seeds: Vec<NodeId> = vec![0, (g.n() as u32 - 1).min(3)];
        let est = SpreadEstimator::new(IndependentCascade)
            .runs(200)
            .threads(1)
            .seed(seed);
        let s = est.estimate(&g, &seeds);
        let distinct = {
            let mut d = seeds.clone();
            d.sort_unstable();
            d.dedup();
            d.len()
        };
        prop_assert!(s >= distinct as f64 - 1e-9);
        prop_assert!(s <= g.n() as f64 + 1e-9);
    }

    #[test]
    fn alias_table_sampling_stays_in_range(
        weights in proptest::collection::vec(0.0f64..100.0, 1..50),
        seed in 0u64..1000,
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let table = tim_influence::rng::AliasTable::new(&weights);
        let mut rng = TimRng::seed_from_u64(seed);
        for _ in 0..100 {
            let i = table.sample(&mut rng);
            prop_assert!(i < weights.len());
            prop_assert!(weights[i] > 0.0, "sampled zero-weight index {}", i);
        }
    }
}

proptest! {
    // Every round of the one greedy, over three input shapes: more cases
    // than the properties above.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Replays every round of the lazy greedy against a plain-table
    /// reference greedy written from the contract: the largest
    /// `(gain, node)` wins, and once nothing is left to cover the smallest
    /// unselected id pads. Warm-pool replay relies on exactly this order,
    /// so the seeds and the marginals must both match, padding included.
    /// Both over the whole collection and over a random prefix `0..end`
    /// of its sets, whose answer equals greedy on a copy of just those
    /// sets.
    ///
    /// Three input shapes (`shape`): up to 100 sets over up to 50 nodes;
    /// 120 to 714 sets of which the prefix keeps under a tenth, so degree
    /// bounds sit far above the gains; and many small sets over 2–6
    /// nodes, so candidates tie and the choice between the degree order
    /// and the heap decides picks.
    #[test]
    fn lazy_rounds_match_the_reference_oracle(
        seed in 0u64..1_000_000,
        shape in 0usize..3,
        n in 2usize..50,
        sets in 0usize..100,
        k_frac in 0.0f64..1.0,
        end_frac in 0.0f64..1.0,
    ) {
        let c = match shape {
            0 => random_collection(seed, n, sets, 6),
            1 => random_collection(seed, n, 120 + 6 * sets, 6),
            _ => random_collection(seed, 2 + n % 5, 20 + 2 * sets, 2),
        };
        let n = c.universe();
        let k = 1 + (k_frac * (n - 1) as f64) as usize;
        // Any prefix end in 0..=len; in shape 1, under len/10.
        let cap = if shape == 1 { c.len().div_ceil(10) - 1 } else { c.len() };
        let end = (end_frac * (cap + 1) as f64) as usize;
        let (full, stats) = greedy_max_cover_indexed_stats(&c, k);
        prop_assert_eq!(stats.rounds, k);
        let runs = [(c.len(), full), (end, greedy_max_cover_prefix(&c, end, k))];
        for (end, got) in runs {
            prop_assert_eq!(got.seeds.len(), k);

            // Sets past the prefix count as covered from the start.
            let mut covered: Vec<bool> = (0..c.len()).map(|s| s >= end).collect();
            let mut gain = vec![0usize; n];
            for s in 0..end {
                for &u in c.set(s) {
                    gain[u as usize] += 1;
                }
            }
            let mut selected = vec![false; n];
            for (round, &node) in got.seeds.iter().enumerate() {
                let best = (0..n)
                    .filter(|&v| !selected[v] && gain[v] > 0)
                    .map(|v| (gain[v], v as NodeId))
                    .max();
                let (want, marginal) = match best {
                    Some((g, v)) => (v, g),
                    None => ((0..n).find(|&v| !selected[v]).unwrap() as NodeId, 0),
                };
                prop_assert_eq!(node, want, "round {} of 0..{}", round, end);
                prop_assert_eq!(got.marginal[round], marginal, "round {} of 0..{}", round, end);
                for &s in c.sets_containing(node) {
                    if !covered[s as usize] {
                        covered[s as usize] = true;
                        for &u in c.set(s as usize) {
                            gain[u as usize] -= 1;
                        }
                    }
                }
                selected[node as usize] = true;
            }

            let mut copy = SetCollection::new(n);
            for s in 0..end {
                copy.push(c.set(s));
            }
            prop_assert_eq!(got, greedy_max_cover(&mut copy, k), "0..{}", end);
        }
    }
}
