//! Random reverse-reachable (RR) set sampling.
//!
//! An RR set for node `v` (Definition 1) is the set of nodes that can reach
//! `v` in a random live-edge graph; a *random* RR set (Definition 2) roots
//! at a uniformly random node. [`RrSampler`] implements the paper's
//! randomised reverse BFS (§3.1 "Implementation" and its §4.2 triggering
//! generalisation): dequeue a node, sample its triggering set, enqueue
//! unvisited members.
//!
//! The paper flips one coin per in-edge of every dequeued node, so a set
//! costs its width `w(R)`. Under IC this crate draws only candidate
//! in-edges by subset sampling (see [`IndependentCascade`]), so a set
//! costs O(|R| + candidate in-edges) draws; its width is still summed
//! from in-degrees, because κ(R) (Algorithm 2) and EPT need it.
//!
//! The sampler owns its scratch memory (epoch-stamped visited array, BFS
//! queue), so generating millions of RR sets performs no allocation beyond
//! the output vector growth.
//!
//! [`IndependentCascade`]: crate::IndependentCascade

use crate::model::DiffusionModel;
use tim_graph::{Graph, NodeId};
use tim_rng::{RandomSource, Rng};

/// Revision of the random stream reverse sampling consumes for a given
/// seed. A change that keeps the RR-set distribution but draws different
/// sets from the same seed bumps it, so sets persisted by an older
/// sampler can be told apart: `tim_core` folds it into every
/// node-selection stream seed, which RR-set pools record. Revision 0 is
/// the paper's one-coin-per-in-edge IC sampler; revision 1 samples IC
/// in-edges by subset sampling; revision 2 draws set j of a stream from
/// a generator keyed by `(seed, j)` (`tim_core::parallel`) instead of
/// from 64 shard streams.
pub const SAMPLER_REVISION: u64 = 2;

/// Cost accounting for one generated RR set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RrStats {
    /// `w(R)` from Equation 1: the number of edges in `G` pointing to nodes
    /// in `R` (Σ in-degree over `R`). Drives `EPT` and `κ(R)`.
    pub width: u64,
    /// `|R|`: number of nodes in the set (root included).
    pub nodes: u64,
}

impl RrStats {
    /// Nodes plus width: what the paper's reverse BFS examines, and the
    /// cost RIS thresholds on (§2.3), whatever this sampler draws.
    #[inline]
    pub fn examined(&self) -> u64 {
        self.nodes + self.width
    }
}

/// Reusable sampler of random RR sets for a diffusion model.
///
/// ```
/// use tim_diffusion::{IndependentCascade, RrSampler};
/// use tim_graph::GraphBuilder;
/// use tim_rng::Rng;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge_with_probability(0, 1, 1.0);
/// b.add_edge_with_probability(1, 2, 1.0);
/// let g = b.build();
///
/// let mut sampler = RrSampler::new(IndependentCascade);
/// let mut rng = Rng::seed_from_u64(7);
/// let mut rr = Vec::new();
/// let stats = sampler.sample_for(&g, 2, &mut rng, &mut rr);
/// // Deterministic edges: the RR set of node 2 is all its ancestors.
/// assert_eq!(rr[0], 2);
/// assert_eq!(stats.nodes, 3);
/// ```
#[derive(Debug)]
pub struct RrSampler<M> {
    model: M,
    /// Epoch stamps marking visited nodes.
    visited: Vec<u32>,
    epoch: u32,
    /// Scratch for triggering-set samples.
    trig: Vec<NodeId>,
}

impl<M> RrSampler<M> {
    /// Creates a sampler; scratch arrays grow to the first graph's size.
    pub fn new(model: M) -> Self {
        Self {
            model,
            visited: Vec::new(),
            epoch: 0,
            trig: Vec::new(),
        }
    }

    /// The wrapped diffusion model.
    pub fn model(&self) -> &M {
        &self.model
    }

    fn begin(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.visited.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// Generates the RR set rooted at `root`, appending its nodes (root
    /// first) to `out`. `out` is cleared first.
    pub fn sample_for(
        &mut self,
        graph: &Graph,
        root: NodeId,
        rng: &mut Rng,
        out: &mut Vec<NodeId>,
    ) -> RrStats
    where
        M: DiffusionModel,
    {
        debug_assert!((root as usize) < graph.n(), "root out of range");
        self.begin(graph.n());
        out.clear();
        let mut stats = RrStats::default();

        self.visited[root as usize] = self.epoch;
        out.push(root);
        stats.nodes = 1;
        stats.width = graph.in_degree(root) as u64;

        // `out` doubles as the BFS queue: nodes are appended in visit order
        // and `head` walks it.
        let mut head = 0usize;
        while head < out.len() {
            let v = out[head];
            head += 1;
            self.trig.clear();
            self.model
                .sample_triggering_set(graph, v, rng, &mut self.trig);
            for i in 0..self.trig.len() {
                let u = self.trig[i];
                debug_assert!((u as usize) < graph.n());
                if self.visited[u as usize] != self.epoch {
                    self.visited[u as usize] = self.epoch;
                    out.push(u);
                    stats.nodes += 1;
                    stats.width += graph.in_degree(u) as u64;
                }
            }
        }
        stats
    }

    /// Generates a random RR set (uniformly random root), appending its
    /// nodes to `out` and returning `(root, stats)`.
    pub fn sample_random(
        &mut self,
        graph: &Graph,
        rng: &mut Rng,
        out: &mut Vec<NodeId>,
    ) -> (NodeId, RrStats)
    where
        M: DiffusionModel,
    {
        assert!(graph.n() > 0, "cannot sample an RR set on an empty graph");
        let root = rng.next_index(graph.n()) as NodeId;
        let stats = self.sample_for(graph, root, rng, out);
        (root, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{IndependentCascade, LinearThreshold};
    use tim_graph::{weights, GraphBuilder};

    fn chain(p: f32) -> Graph {
        // 0 -> 1 -> 2 -> 3
        let mut b = GraphBuilder::new(4);
        for i in 0..3 {
            b.add_edge_with_probability(i, i + 1, p);
        }
        b.build()
    }

    #[test]
    fn rr_set_contains_root_first() {
        let g = chain(1.0);
        let mut s = RrSampler::new(IndependentCascade);
        let mut rng = Rng::seed_from_u64(1);
        let mut out = Vec::new();
        s.sample_for(&g, 2, &mut rng, &mut out);
        assert_eq!(out[0], 2);
    }

    #[test]
    fn deterministic_chain_rr_set_is_all_ancestors() {
        let g = chain(1.0);
        let mut s = RrSampler::new(IndependentCascade);
        let mut rng = Rng::seed_from_u64(2);
        let mut out = Vec::new();
        let stats = s.sample_for(&g, 3, &mut rng, &mut out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        assert_eq!(stats.nodes, 4);
        // Width: each of 1, 2, 3 has in-degree 1; node 0 has 0.
        assert_eq!(stats.width, 3);
    }

    #[test]
    fn zero_probability_rr_set_is_singleton() {
        let g = chain(0.0);
        let mut s = RrSampler::new(IndependentCascade);
        let mut rng = Rng::seed_from_u64(3);
        let mut out = Vec::new();
        let stats = s.sample_for(&g, 3, &mut rng, &mut out);
        assert_eq!(out, vec![3]);
        assert_eq!(stats.nodes, 1);
        assert_eq!(stats.width, 1);
    }

    #[test]
    fn width_equals_sum_of_in_degrees() {
        let mut g = tim_graph::gen::erdos_renyi_gnm(100, 500, 4);
        weights::assign_constant(&mut g, 0.4);
        let mut s = RrSampler::new(IndependentCascade);
        let mut rng = Rng::seed_from_u64(5);
        let mut out = Vec::new();
        for _ in 0..200 {
            let (_, stats) = s.sample_random(&g, &mut rng, &mut out);
            let expect: u64 = out.iter().map(|&v| g.in_degree(v) as u64).sum();
            assert_eq!(stats.width, expect);
            assert_eq!(stats.nodes, out.len() as u64);
        }
    }

    #[test]
    fn rr_set_has_no_duplicates() {
        let mut g = tim_graph::gen::erdos_renyi_gnm(50, 400, 6);
        weights::assign_constant(&mut g, 0.5);
        let mut s = RrSampler::new(IndependentCascade);
        let mut rng = Rng::seed_from_u64(7);
        let mut out = Vec::new();
        for _ in 0..200 {
            s.sample_random(&g, &mut rng, &mut out);
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), out.len(), "duplicates in RR set");
        }
    }

    #[test]
    fn rr_membership_frequency_matches_activation_probability() {
        // Single edge 0 -p-> 1. An RR set for root 1 contains node 0 with
        // probability p (Lemma 2 with S = {0}, v = 1).
        let p = 0.35f32;
        let mut b = GraphBuilder::new(2);
        b.add_edge_with_probability(0, 1, p);
        let g = b.build();
        let mut s = RrSampler::new(IndependentCascade);
        let mut rng = Rng::seed_from_u64(8);
        let mut out = Vec::new();
        let trials = 100_000;
        let mut hits = 0usize;
        for _ in 0..trials {
            s.sample_for(&g, 1, &mut rng, &mut out);
            if out.contains(&0) {
                hits += 1;
            }
        }
        let freq = hits as f64 / trials as f64;
        assert!((freq - p as f64).abs() < 0.01, "freq {freq} vs p {p}");
    }

    #[test]
    fn lt_rr_set_is_a_reverse_walk() {
        // With normalised LT weights every node picks exactly one
        // in-neighbour, so the RR set is a path that stops only at a node
        // with no in-edges or a cycle closure.
        let mut g = tim_graph::gen::erdos_renyi_gnm(40, 200, 9);
        weights::assign_lt_normalized(&mut g, 10);
        let mut s = RrSampler::new(LinearThreshold);
        let mut rng = Rng::seed_from_u64(11);
        let mut out = Vec::new();
        for _ in 0..100 {
            s.sample_random(&g, &mut rng, &mut out);
            // Every non-terminal hop must be a real edge.
            for w in out.windows(2) {
                assert!(
                    g.in_neighbors(w[0]).contains(&w[1]),
                    "walk steps must follow in-edges"
                );
            }
        }
    }

    #[test]
    fn examined_is_nodes_plus_width() {
        let st = RrStats {
            width: 10,
            nodes: 4,
        };
        assert_eq!(st.examined(), 14);
    }

    #[test]
    #[should_panic(expected = "empty graph")]
    fn sampling_empty_graph_panics() {
        let g = GraphBuilder::new(0).build();
        let mut s = RrSampler::new(IndependentCascade);
        let mut rng = Rng::seed_from_u64(14);
        let mut out = Vec::new();
        s.sample_random(&g, &mut rng, &mut out);
    }
}
