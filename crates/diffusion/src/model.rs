//! The triggering-model abstraction and its two canonical instances.
//!
//! Reverse sampling spends its time in [`DiffusionModel::sample_triggering_set`].
//! The paper's reverse BFS (§3.1) flips one coin per in-edge, so one RR
//! set costs its width `w(R)`. [`IndependentCascade`] instead draws only
//! the in-edges that can come up live, by subset sampling (Guo, Wang,
//! Wei and Chen, *Influence Maximization Revisited: Efficient Reverse
//! Reachable Set Generation with Bound Tightened* (SUBSIM), SIGMOD 2020):
//! O(1 + d·q) draws at a node of in-degree `d` whose largest
//! in-probability is `q`. Under weighted cascade (`p = 1/d`, so `d·q = 1`)
//! that is O(1) per visited node whatever its degree. The distribution of
//! triggering sets is the paper's; the random stream it consumes is not,
//! which [`SAMPLER_REVISION`](crate::SAMPLER_REVISION) records.

use tim_graph::{Graph, NodeId};
use tim_rng::{RandomSource, Rng};

/// A diffusion model in triggering form (paper §4.2).
///
/// A model is fully specified by, for each node `v`, a distribution `T(v)`
/// over subsets of `v`'s in-neighbours. An influence propagation process
/// samples one triggering set per node; `v` activates at timestamp `i + 1`
/// iff some node in its triggering set is active at timestamp `i`.
///
/// Implementors provide [`sample_triggering_set`]; forward simulation has a
/// generic default in terms of triggering sets, which `IC` and `LT`
/// override with equivalent but faster edge/threshold formulations.
///
/// [`sample_triggering_set`]: DiffusionModel::sample_triggering_set
pub trait DiffusionModel: Sync {
    /// Samples one triggering set for `node`, appending its members
    /// (a subset of `graph.in_neighbors(node)`) to `out`.
    fn sample_triggering_set(
        &self,
        graph: &Graph,
        node: NodeId,
        rng: &mut Rng,
        out: &mut Vec<NodeId>,
    );

    /// Runs one forward propagation from `seeds`, returning the number of
    /// activated nodes (one Monte Carlo sample of `I(S)`).
    ///
    /// The default implementation simulates the triggering process
    /// directly; [`IndependentCascade`] and [`LinearThreshold`] override it
    /// with distribution-equivalent fast paths.
    fn simulate(
        &self,
        ws: &mut crate::forward::SimWorkspace,
        graph: &Graph,
        seeds: &[NodeId],
        rng: &mut Rng,
    ) -> u32 {
        ws.simulate_triggering(self, graph, seeds, rng)
    }

    /// Short human-readable model name for reports.
    fn name(&self) -> &'static str {
        "custom"
    }
}

impl<M: DiffusionModel + ?Sized> DiffusionModel for &M {
    #[inline]
    fn sample_triggering_set(
        &self,
        graph: &Graph,
        node: NodeId,
        rng: &mut Rng,
        out: &mut Vec<NodeId>,
    ) {
        (**self).sample_triggering_set(graph, node, rng, out)
    }

    fn simulate(
        &self,
        ws: &mut crate::forward::SimWorkspace,
        graph: &Graph,
        seeds: &[NodeId],
        rng: &mut Rng,
    ) -> u32 {
        (**self).simulate(ws, graph, seeds, rng)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// The Independent Cascade model (paper §2.1).
///
/// Each edge `e = (u, v)` is live independently with probability `p(e)`;
/// equivalently, `v`'s triggering set contains each in-neighbour `u`
/// independently with probability `p(u, v)`.
///
/// Triggering sets are drawn by subset sampling at `v`'s largest
/// in-probability `q` ([`Graph::max_in_probability`]): geometric jumps
/// visit each in-edge as a candidate with probability `q`, and a
/// candidate of probability `p` is kept with probability `p/q`, so each
/// in-edge is live with probability `p`, independently of the others.
/// A node with a certain in-edge (`q = 1`) flips one coin per in-edge
/// instead; one whose in-edges all have `p = 0` draws nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndependentCascade;

impl DiffusionModel for IndependentCascade {
    #[inline]
    fn sample_triggering_set(
        &self,
        graph: &Graph,
        node: NodeId,
        rng: &mut Rng,
        out: &mut Vec<NodeId>,
    ) {
        let nbrs = graph.in_neighbors(node);
        let probs = graph.in_probabilities(node);
        let q = graph.max_in_probability(node);
        if q >= 1.0 {
            // Every in-edge is a candidate: one coin each.
            for (&u, &p) in nbrs.iter().zip(probs) {
                if rng.bernoulli_f32(p) {
                    out.push(u);
                }
            }
        } else if q > 0.0 {
            subset_sample(nbrs, probs, q, rng, out);
        }
    }

    fn simulate(
        &self,
        ws: &mut crate::forward::SimWorkspace,
        graph: &Graph,
        seeds: &[NodeId],
        rng: &mut Rng,
    ) -> u32 {
        ws.simulate_ic(graph, seeds, rng)
    }

    fn name(&self) -> &'static str {
        "IC"
    }
}

/// Subset sampling of the in-edges `(nbrs, probs)` whose largest
/// probability is `q`, with `0 < q < 1`.
///
/// The gap to the next candidate counts the failures before the next
/// success of a Bernoulli(`q`) sequence, `⌊ln U / ln(1−q)⌋` with `U` in
/// `(0, 1]`, so `P(gap ≥ j) = (1−q)^j`. It is compared in `f64` with the
/// edges left before it is cast: a small `q` can jump past `usize::MAX`.
#[inline]
fn subset_sample(nbrs: &[NodeId], probs: &[f32], q: f32, rng: &mut Rng, out: &mut Vec<NodeId>) {
    let q64 = f64::from(q);
    let ln_miss = (-q64).ln_1p();
    let mut next = 0usize;
    loop {
        let gap = ((1.0 - rng.next_f64()).ln() / ln_miss).floor();
        if gap >= (nbrs.len() - next) as f64 {
            return;
        }
        let at = next + gap as usize;
        let p = probs[at];
        if p == q || rng.next_f64() * q64 < f64::from(p) {
            out.push(nbrs[at]);
        }
        next = at + 1;
    }
}

/// The Linear Threshold model (paper §7.1), in triggering form.
///
/// Every sample from `T(v)` is either empty or a singleton: in-neighbour
/// `u` is chosen with probability `w(u, v)`, and no one is chosen with the
/// leftover probability `1 − Σ w`. The paper's LT setting normalises each
/// node's in-weights to sum to exactly 1
/// ([`assign_lt_normalized`](tim_graph::weights::assign_lt_normalized)),
/// in which case the triggering set is always a singleton.
///
/// Note this consumes **one** random draw per node. The paper's IC
/// sampler flips one coin per in-edge, which is why TIM runs measurably
/// faster under LT in §7.2; [`IndependentCascade`] here draws O(1 + d·q)
/// per node, which narrows that gap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinearThreshold;

impl DiffusionModel for LinearThreshold {
    #[inline]
    fn sample_triggering_set(
        &self,
        graph: &Graph,
        node: NodeId,
        rng: &mut Rng,
        out: &mut Vec<NodeId>,
    ) {
        let nbrs = graph.in_neighbors(node);
        if nbrs.is_empty() {
            return;
        }
        let probs = graph.in_probabilities(node);
        let x = rng.next_f64();
        let mut acc = 0.0f64;
        for (&u, &w) in nbrs.iter().zip(probs) {
            acc += w as f64;
            if x < acc {
                out.push(u);
                return;
            }
        }
        // x >= total weight: the triggering set is empty this time.
    }

    fn simulate(
        &self,
        ws: &mut crate::forward::SimWorkspace,
        graph: &Graph,
        seeds: &[NodeId],
        rng: &mut Rng,
    ) -> u32 {
        ws.simulate_lt(graph, seeds, rng)
    }

    fn name(&self) -> &'static str {
        "LT"
    }
}

/// Either canonical model, selected at runtime.
///
/// Generic code (algorithms, serving catalogs) is parameterized over one
/// `M: DiffusionModel`; a multi-tenant server that hosts IC graphs *and*
/// LT graphs in the same process needs a single type covering both.
/// `ModelKind` delegates every operation to the wrapped model — results
/// are bit-identical to using [`IndependentCascade`] /
/// [`LinearThreshold`] directly, at the cost of one enum dispatch per
/// sampled node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The Independent Cascade model (tag `"ic"`).
    IndependentCascade,
    /// The Linear Threshold model (tag `"lt"`).
    LinearThreshold,
}

impl ModelKind {
    /// Resolves a wire/CLI model tag (`"ic"` / `"lt"`, case-insensitive).
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag.to_ascii_lowercase().as_str() {
            "ic" => Some(ModelKind::IndependentCascade),
            "lt" => Some(ModelKind::LinearThreshold),
            _ => None,
        }
    }

    /// The canonical tag (`"ic"` / `"lt"`) — what pool provenance and
    /// graph specs use.
    pub fn tag(&self) -> &'static str {
        match self {
            ModelKind::IndependentCascade => "ic",
            ModelKind::LinearThreshold => "lt",
        }
    }
}

impl DiffusionModel for ModelKind {
    #[inline]
    fn sample_triggering_set(
        &self,
        graph: &Graph,
        node: NodeId,
        rng: &mut Rng,
        out: &mut Vec<NodeId>,
    ) {
        match self {
            ModelKind::IndependentCascade => {
                IndependentCascade.sample_triggering_set(graph, node, rng, out)
            }
            ModelKind::LinearThreshold => {
                LinearThreshold.sample_triggering_set(graph, node, rng, out)
            }
        }
    }

    fn simulate(
        &self,
        ws: &mut crate::forward::SimWorkspace,
        graph: &Graph,
        seeds: &[NodeId],
        rng: &mut Rng,
    ) -> u32 {
        match self {
            ModelKind::IndependentCascade => IndependentCascade.simulate(ws, graph, seeds, rng),
            ModelKind::LinearThreshold => LinearThreshold.simulate(ws, graph, seeds, rng),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            ModelKind::IndependentCascade => DiffusionModel::name(&IndependentCascade),
            ModelKind::LinearThreshold => DiffusionModel::name(&LinearThreshold),
        }
    }
}

/// Wraps a closure as a triggering distribution, for custom models.
///
/// The closure receives `(graph, node, rng, out)` and must append a subset
/// of `graph.in_neighbors(node)` to `out`. See
/// `examples/model_comparison.rs` for a decaying-attention model built this
/// way.
#[derive(Clone)]
pub struct CustomTriggering<F> {
    f: F,
    name: &'static str,
}

impl<F> CustomTriggering<F>
where
    F: Fn(&Graph, NodeId, &mut Rng, &mut Vec<NodeId>) + Sync,
{
    /// Creates a custom model with a display name.
    pub fn new(name: &'static str, f: F) -> Self {
        Self { f, name }
    }
}

impl<F> DiffusionModel for CustomTriggering<F>
where
    F: Fn(&Graph, NodeId, &mut Rng, &mut Vec<NodeId>) + Sync,
{
    #[inline]
    fn sample_triggering_set(
        &self,
        graph: &Graph,
        node: NodeId,
        rng: &mut Rng,
        out: &mut Vec<NodeId>,
    ) {
        (self.f)(graph, node, rng, out);
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tim_graph::{weights, GraphBuilder};

    /// Star with `leaves -> 0`, all probabilities `p`.
    fn in_star(leaves: u32, p: f32) -> Graph {
        let mut b = GraphBuilder::new(leaves as usize + 1);
        for u in 1..=leaves {
            b.add_edge_with_probability(u, 0, p);
        }
        b.build()
    }

    #[test]
    fn ic_triggering_set_size_matches_binomial_mean() {
        let g = in_star(10, 0.3);
        let mut rng = Rng::seed_from_u64(1);
        let mut buf = Vec::new();
        let trials = 20_000;
        let mut total = 0usize;
        for _ in 0..trials {
            buf.clear();
            IndependentCascade.sample_triggering_set(&g, 0, &mut rng, &mut buf);
            total += buf.len();
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}, expected 3.0");
    }

    #[test]
    fn ic_members_are_in_neighbors() {
        let g = in_star(5, 0.8);
        let mut rng = Rng::seed_from_u64(2);
        let mut buf = Vec::new();
        for _ in 0..100 {
            buf.clear();
            IndependentCascade.sample_triggering_set(&g, 0, &mut rng, &mut buf);
            for &u in &buf {
                assert!(g.in_neighbors(0).contains(&u));
            }
        }
    }

    /// The paper's per-edge IC sampler, one coin per in-edge: the
    /// reference the subset sampler must match in distribution.
    struct PerEdgeCascade;

    impl DiffusionModel for PerEdgeCascade {
        fn sample_triggering_set(
            &self,
            graph: &Graph,
            node: NodeId,
            rng: &mut Rng,
            out: &mut Vec<NodeId>,
        ) {
            let nbrs = graph.in_neighbors(node);
            for (&u, &p) in nbrs.iter().zip(graph.in_probabilities(node)) {
                if rng.bernoulli_f32(p) {
                    out.push(u);
                }
            }
        }
    }

    /// Star whose leaf `i + 1` points at node 0 with probability `probs[i]`.
    fn star_with(probs: &[f32]) -> Graph {
        Graph::from_edges(probs.len() + 1, (1..).zip(probs).map(|(u, &p)| (u, 0, p)))
    }

    /// `|freq − p| ≤ 4σ` for a frequency over `trials` Bernoulli(`p`) draws.
    fn assert_within_4_sigma(hits: u64, trials: u64, p: f64, what: &str) {
        let freq = hits as f64 / trials as f64;
        let sigma = (p * (1.0 - p) / trials as f64).sqrt();
        assert!(
            (freq - p).abs() <= 4.0 * sigma,
            "{what}: frequency {freq} vs p {p} (4σ = {})",
            4.0 * sigma
        );
    }

    /// Samples node 0's triggering set `trials` times and checks each
    /// edge's live frequency and every pair's joint frequency.
    fn check_edge_and_pair_frequencies(g: &Graph, seed: u64) {
        let probs: Vec<f64> = g
            .in_probabilities(0)
            .iter()
            .map(|&p| f64::from(p))
            .collect();
        let d = probs.len();
        let trials = 400_000u64;
        let (mut single, mut pair) = (vec![0u64; d], vec![vec![0u64; d]; d]);
        let mut rng = Rng::seed_from_u64(seed);
        let mut buf = Vec::new();
        for _ in 0..trials {
            buf.clear();
            IndependentCascade.sample_triggering_set(g, 0, &mut rng, &mut buf);
            // Leaf u sits at in-edge u − 1.
            for (a, &u) in buf.iter().enumerate() {
                single[u as usize - 1] += 1;
                for &w in &buf[a + 1..] {
                    pair[u as usize - 1][w as usize - 1] += 1;
                }
            }
        }
        for i in 0..d {
            assert_within_4_sigma(single[i], trials, probs[i], &format!("edge {i}"));
            for j in i + 1..d {
                let both = pair[i][j] + pair[j][i];
                assert_within_4_sigma(both, trials, probs[i] * probs[j], &format!("pair {i},{j}"));
            }
        }
    }

    #[test]
    fn ic_edges_are_live_independently_at_their_own_probability() {
        let probs = [0.0, 1e-4, 0.01, 0.3, 0.3, 1.0];
        // q = 1: one coin per in-edge.
        check_edge_and_pair_frequencies(&star_with(&probs), 21);
        // q = 0.3: geometric jumps, kept with probability p/q.
        check_edge_and_pair_frequencies(&star_with(&probs[..5]), 22);
    }

    #[test]
    fn ic_with_all_zero_in_probabilities_draws_nothing() {
        let g = star_with(&[0.0, 0.0, 0.0]);
        let mut rng = Rng::seed_from_u64(23);
        let before = rng.clone();
        let mut buf = Vec::new();
        IndependentCascade.sample_triggering_set(&g, 0, &mut rng, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(rng.next_u64(), before.clone().next_u64(), "no draw spent");
    }

    /// Mean and variance of `|R|` and `w(R)` over `sets` random RR sets.
    fn rr_moments<M: DiffusionModel>(model: M, g: &Graph, seed: u64, sets: u64) -> [(f64, f64); 2] {
        let mut sampler = crate::RrSampler::new(model);
        let mut rng = Rng::seed_from_u64(seed);
        let mut out = Vec::new();
        let mut sums = [(0.0f64, 0.0f64); 2];
        for _ in 0..sets {
            let (_, st) = sampler.sample_random(g, &mut rng, &mut out);
            for (sum, x) in sums.iter_mut().zip([st.nodes as f64, st.width as f64]) {
                sum.0 += x;
                sum.1 += x * x;
            }
        }
        sums.map(|(s, s2)| {
            let mean = s / sets as f64;
            (mean, s2 / sets as f64 - mean * mean)
        })
    }

    #[test]
    fn ic_rr_sets_match_the_per_edge_reference_in_size_and_width() {
        let sets = 20_000u64;
        let base = tim_graph::gen::symmetrize(&tim_graph::gen::barabasi_albert(3_000, 4, 0.0, 5));
        let mut wc = base.clone();
        weights::assign_weighted_cascade(&mut wc);
        let mut tri = base;
        weights::assign_trivalency(&mut tri, 6);
        for (name, g) in [("weighted cascade", wc), ("trivalency", tri)] {
            let subset = rr_moments(IndependentCascade, &g, 31, sets);
            let per_edge = rr_moments(PerEdgeCascade, &g, 32, sets);
            for (what, (a, va), (b, vb)) in [
                ("|R|", subset[0], per_edge[0]),
                ("width", subset[1], per_edge[1]),
            ] {
                let se = ((va + vb) / sets as f64).sqrt();
                assert!(
                    (a - b).abs() <= 4.0 * se,
                    "{name} mean {what}: subset {a} vs per-edge {b} (4σ = {})",
                    4.0 * se
                );
            }
        }
    }

    #[test]
    fn ic_follows_probabilities_reassigned_after_sampling() {
        let mut g = in_star(8, 0.01);
        let mut rng = Rng::seed_from_u64(33);
        let mut buf = Vec::new();
        IndependentCascade.sample_triggering_set(&g, 0, &mut rng, &mut buf);
        assert_eq!(g.max_in_probability(0), 0.01);
        // A stale bound of 0.01 would keep each edge about 1% of the time.
        weights::assign_constant(&mut g, 0.9);
        let trials = 20_000u64;
        let mut hits = 0u64;
        for _ in 0..trials {
            buf.clear();
            IndependentCascade.sample_triggering_set(&g, 0, &mut rng, &mut buf);
            hits += buf.len() as u64;
        }
        assert_within_4_sigma(hits, trials * 8, 0.9, "reweighted edges");
    }

    #[test]
    fn lt_with_normalized_weights_always_picks_exactly_one() {
        let mut g = in_star(6, 0.0);
        weights::assign_lt_normalized(&mut g, 3);
        let mut rng = Rng::seed_from_u64(3);
        let mut buf = Vec::new();
        for _ in 0..1000 {
            buf.clear();
            LinearThreshold.sample_triggering_set(&g, 0, &mut rng, &mut buf);
            assert_eq!(buf.len(), 1, "normalised LT must pick a singleton");
        }
    }

    #[test]
    fn lt_selection_frequency_tracks_weights() {
        let mut b = GraphBuilder::new(3);
        b.add_edge_with_probability(1, 0, 0.2);
        b.add_edge_with_probability(2, 0, 0.8);
        let g = b.build();
        let mut rng = Rng::seed_from_u64(4);
        let mut buf = Vec::new();
        let mut count2 = 0usize;
        let trials = 50_000;
        for _ in 0..trials {
            buf.clear();
            LinearThreshold.sample_triggering_set(&g, 0, &mut rng, &mut buf);
            assert_eq!(buf.len(), 1);
            if buf[0] == 2 {
                count2 += 1;
            }
        }
        let freq = count2 as f64 / trials as f64;
        assert!((freq - 0.8).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn lt_subnormal_weights_can_pick_nobody() {
        let mut b = GraphBuilder::new(2);
        b.add_edge_with_probability(1, 0, 0.3);
        let g = b.build();
        let mut rng = Rng::seed_from_u64(5);
        let mut buf = Vec::new();
        let mut empties = 0usize;
        let trials = 50_000;
        for _ in 0..trials {
            buf.clear();
            LinearThreshold.sample_triggering_set(&g, 0, &mut rng, &mut buf);
            if buf.is_empty() {
                empties += 1;
            }
        }
        let freq = empties as f64 / trials as f64;
        assert!((freq - 0.7).abs() < 0.01, "empty freq {freq}");
    }

    #[test]
    fn lt_no_in_neighbors_yields_empty_set() {
        let g = in_star(3, 0.5);
        let mut rng = Rng::seed_from_u64(6);
        let mut buf = Vec::new();
        LinearThreshold.sample_triggering_set(&g, 1, &mut rng, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn custom_triggering_dispatches_closure() {
        let g = in_star(4, 1.0);
        // "Always everyone" — the deterministic cascade.
        let model = CustomTriggering::new(
            "all-in",
            |g: &Graph, v, _rng: &mut Rng, out: &mut Vec<NodeId>| {
                out.extend_from_slice(g.in_neighbors(v));
            },
        );
        let mut rng = Rng::seed_from_u64(7);
        let mut buf = Vec::new();
        model.sample_triggering_set(&g, 0, &mut rng, &mut buf);
        assert_eq!(buf.len(), 4);
        assert_eq!(model.name(), "all-in");
    }

    #[test]
    fn model_names() {
        assert_eq!(IndependentCascade.name(), "IC");
        assert_eq!(LinearThreshold.name(), "LT");
    }

    #[test]
    fn model_kind_resolves_tags_and_matches_the_wrapped_models() {
        assert_eq!(
            ModelKind::from_tag("ic"),
            Some(ModelKind::IndependentCascade)
        );
        assert_eq!(ModelKind::from_tag("LT"), Some(ModelKind::LinearThreshold));
        assert_eq!(ModelKind::from_tag("bogus"), None);
        assert_eq!(ModelKind::IndependentCascade.tag(), "ic");
        assert_eq!(ModelKind::LinearThreshold.tag(), "lt");
        assert_eq!(ModelKind::IndependentCascade.name(), "IC");

        // Bit-identical sampling: the enum and the concrete model consume
        // the same randomness and produce the same triggering sets.
        let mut g = in_star(8, 0.0);
        weights::assign_lt_normalized(&mut g, 3);
        for (kind, seed) in [
            (ModelKind::IndependentCascade, 11u64),
            (ModelKind::LinearThreshold, 12),
        ] {
            let mut rng_a = Rng::seed_from_u64(seed);
            let mut rng_b = Rng::seed_from_u64(seed);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for _ in 0..50 {
                a.clear();
                b.clear();
                kind.sample_triggering_set(&g, 0, &mut rng_a, &mut a);
                match kind {
                    ModelKind::IndependentCascade => {
                        IndependentCascade.sample_triggering_set(&g, 0, &mut rng_b, &mut b)
                    }
                    ModelKind::LinearThreshold => {
                        LinearThreshold.sample_triggering_set(&g, 0, &mut rng_b, &mut b)
                    }
                }
                assert_eq!(a, b, "{kind:?}");
            }
        }
    }
}
