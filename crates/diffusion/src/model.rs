//! The triggering-model abstraction and its two canonical instances.

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

    /// Expected number of random draws per visited node during reverse
    /// sampling, used only for cost accounting: IC consumes one draw per
    /// in-edge, LT one draw per node (the §7.2 observation for why LT runs
    /// faster on edge-heavy graphs).
    fn draws_per_node(&self, graph: &Graph, node: NodeId) -> u64 {
        graph.in_degree(node) as u64
    }

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

    #[inline]
    fn draws_per_node(&self, graph: &Graph, node: NodeId) -> u64 {
        (**self).draws_per_node(graph, node)
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
        for (&u, &p) in nbrs.iter().zip(probs) {
            if rng.bernoulli_f32(p) {
                out.push(u);
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
        ws.simulate_ic(graph, seeds, rng)
    }

    fn name(&self) -> &'static str {
        "IC"
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
/// Note this consumes **one** random draw per node, versus one per in-edge
/// for IC — the reason TIM runs measurably faster under LT (§7.2).
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

    fn draws_per_node(&self, _graph: &Graph, _node: NodeId) -> u64 {
        1
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

    #[inline]
    fn draws_per_node(&self, graph: &Graph, node: NodeId) -> u64 {
        match self {
            ModelKind::IndependentCascade => {
                DiffusionModel::draws_per_node(&IndependentCascade, graph, node)
            }
            ModelKind::LinearThreshold => {
                DiffusionModel::draws_per_node(&LinearThreshold, graph, node)
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
    fn draws_per_node_reflects_model_cost() {
        let g = in_star(7, 0.5);
        assert_eq!(IndependentCascade.draws_per_node(&g, 0), 7);
        assert_eq!(LinearThreshold.draws_per_node(&g, 0), 1);
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
        assert_eq!(ModelKind::LinearThreshold.draws_per_node(&g, 0), 1);
        assert_eq!(ModelKind::IndependentCascade.draws_per_node(&g, 0), 8);
    }
}
