//! The CSR graph and its accessors.

use crate::mmap::{Array, Mmap};
use crate::NodeId;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// A directed graph with per-edge propagation probabilities, stored as a
/// pair of CSR adjacency structures (forward and reverse).
///
/// Immutable after construction except for probability reassignment via
/// [`Graph::assign_probabilities`], which keeps both directions consistent
/// and drops the per-node bound [`Graph::max_in_probability`] derives.
///
/// Construct with [`GraphBuilder`](crate::GraphBuilder), the generators in
/// [`gen`](crate::gen), or the loaders in [`io`](crate::io). A snapshot
/// loads zero-copy: [`io::load_graph`](crate::io::load_graph) yields this
/// same type with its six arrays viewing the mapping (see [`Array`]).
/// Offsets are `u64`, as on disk.
///
/// ```
/// use tim_graph::{GraphBuilder, weights};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 2);
/// b.add_edge(1, 2);
/// let mut g = b.build();
/// weights::assign_weighted_cascade(&mut g); // p(e) = 1/indeg(target)
///
/// assert_eq!(g.n(), 3);
/// assert_eq!(g.in_neighbors(2), &[0, 1]);
/// assert_eq!(g.in_probabilities(2), &[0.5, 0.5]);
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    pub(crate) n: usize,
    // Forward direction: out-edges of each node.
    pub(crate) out_offsets: Array<u64>,
    pub(crate) out_targets: Array<NodeId>,
    pub(crate) out_probs: Array<f32>,
    // Reverse direction: in-edges of each node (the transpose G^T).
    pub(crate) in_offsets: Array<u64>,
    pub(crate) in_sources: Array<NodeId>,
    pub(crate) in_probs: Array<f32>,
    /// Each node's largest in-probability, derived on first use (4n heap
    /// bytes whoever owns the arrays above). Every constructor starts it
    /// empty, and so does [`assign_probabilities`](Graph::assign_probabilities).
    pub(crate) in_max: OnceLock<Box<[f32]>>,
}

/// Summary degree statistics, as reported in the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Mean out-degree (equals mean in-degree): m / n.
    pub avg_degree: f64,
    /// Maximum out-degree over all nodes.
    pub max_out_degree: usize,
    /// Maximum in-degree over all nodes.
    pub max_in_degree: usize,
}

impl Graph {
    /// Builds a graph directly from `(src, dst, probability)` triples over
    /// the node universe `0..n` — a one-call convenience over
    /// [`GraphBuilder`](crate::GraphBuilder), with the same semantics
    /// (self-loops dropped, parallel edges merged keeping the highest
    /// probability).
    ///
    /// ```
    /// use tim_graph::Graph;
    ///
    /// let g = Graph::from_edges(3, [(0, 1, 0.5), (1, 2, 1.0), (1, 1, 0.9)]);
    /// assert_eq!(g.n(), 3);
    /// assert_eq!(g.m(), 2); // the self-loop is dropped
    /// assert_eq!(g.out_neighbors(1), &[2]);
    /// ```
    ///
    /// # Panics
    /// Panics if an endpoint is outside `0..n` or a probability is outside
    /// `[0, 1]`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId, f32)>) -> Graph {
        let mut b = crate::GraphBuilder::new(n);
        for (u, v, p) in edges {
            b.add_edge_with_probability(u, v, p);
        }
        b.build()
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of directed edges `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.out_targets.len()
    }

    /// Edge range of `v` in one CSR half, clamped so that `lo <= hi <= m`:
    /// offsets are validated at construction, so the clamp is the
    /// identity, but a racing writer under a mapping then yields a short
    /// slice instead of an out-of-range one. (Two `min`s rather than
    /// `clamp`: measurably cheaper in the RR-sampling loop.)
    #[inline]
    fn range(&self, offsets: &[u64], v: NodeId) -> Range<usize> {
        let v = v as usize;
        let hi = (offsets[v + 1] as usize).min(self.m());
        let lo = (offsets[v] as usize).min(hi);
        lo..hi
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.range(&self.out_offsets, v).len()
    }

    /// In-degree of `v` — the quantity that defines RR-set width `w(R)`
    /// (Equation 1) and the `V*` distribution (Lemma 4).
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.range(&self.in_offsets, v).len()
    }

    /// Targets of `v`'s out-edges.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.out_targets[self.range(&self.out_offsets, v)]
    }

    /// Probabilities aligned with [`out_neighbors`](Self::out_neighbors).
    #[inline]
    pub fn out_probabilities(&self, v: NodeId) -> &[f32] {
        &self.out_probs[self.range(&self.out_offsets, v)]
    }

    /// Sources of `v`'s in-edges.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.in_sources[self.range(&self.in_offsets, v)]
    }

    /// Probabilities aligned with [`in_neighbors`](Self::in_neighbors).
    #[inline]
    pub fn in_probabilities(&self, v: NodeId) -> &[f32] {
        &self.in_probs[self.range(&self.in_offsets, v)]
    }

    /// The largest probability among `v`'s in-edges, 0 when it has none:
    /// the rate at which IC reverse sampling draws candidate in-edges
    /// (`tim_diffusion::IndependentCascade`). The first call derives it
    /// for every node in one O(m) pass; later calls read it.
    #[inline]
    pub fn max_in_probability(&self, v: NodeId) -> f32 {
        let max = self.in_max.get_or_init(|| {
            (0..self.n as NodeId)
                .map(|u| {
                    self.in_probabilities(u)
                        .iter()
                        .fold(0.0f32, |a, &p| a.max(p))
                })
                .collect()
        });
        max[v as usize]
    }

    /// Iterates over all edges as `(src, dst, p)`, grouped by source.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f32)> + '_ {
        (0..self.n as NodeId).flat_map(move |u| {
            self.out_neighbors(u)
                .iter()
                .zip(self.out_probabilities(u))
                .map(move |(&v, &p)| (u, v, p))
        })
    }

    /// Returns the transpose graph `G^T` (all edges reversed). O(1): the two
    /// CSR halves swap roles, probabilities travel with their edges. Its
    /// in-edges are this graph's out-edges, so it derives its own
    /// [`max_in_probability`](Self::max_in_probability).
    pub fn transpose(&self) -> Graph {
        Graph {
            n: self.n,
            out_offsets: self.in_offsets.clone(),
            out_targets: self.in_sources.clone(),
            out_probs: self.in_probs.clone(),
            in_offsets: self.out_offsets.clone(),
            in_sources: self.out_targets.clone(),
            in_probs: self.out_probs.clone(),
            in_max: OnceLock::new(),
        }
    }

    /// Degree statistics for dataset reporting (Table 2).
    pub fn degree_stats(&self) -> DegreeStats {
        let mut max_out = 0;
        let mut max_in = 0;
        for v in 0..self.n as NodeId {
            max_out = max_out.max(self.out_degree(v));
            max_in = max_in.max(self.in_degree(v));
        }
        DegreeStats {
            avg_degree: if self.n == 0 {
                0.0
            } else {
                self.m() as f64 / self.n as f64
            },
            max_out_degree: max_out,
            max_in_degree: max_in,
        }
    }

    /// Reassigns every edge probability as `f(src, dst)`, updating both the
    /// forward and reverse CSR consistently. The next
    /// [`max_in_probability`](Self::max_in_probability) derives the bound
    /// afresh.
    ///
    /// `f` must be a pure function of the edge endpoints: it is invoked once
    /// per edge per direction, and the two invocations must agree. The
    /// weight models in [`weights`](crate::weights) are built this way
    /// (pseudo-random models hash the endpoints instead of drawing from a
    /// stream).
    ///
    /// # Panics
    /// Panics (debug builds) if `f` returns a value outside `[0, 1]`.
    pub fn assign_probabilities(&mut self, mut f: impl FnMut(NodeId, NodeId) -> f32) {
        self.in_max = OnceLock::new();
        let n = self.n;
        let (out_offsets, out_targets) = (&self.out_offsets, &self.out_targets);
        self.out_probs.edit(|probs| {
            for u in 0..n {
                for idx in out_offsets[u] as usize..out_offsets[u + 1] as usize {
                    let p = f(u as NodeId, out_targets[idx]);
                    debug_assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
                    probs[idx] = p;
                }
            }
        });
        let (in_offsets, in_sources) = (&self.in_offsets, &self.in_sources);
        self.in_probs.edit(|probs| {
            for v in 0..n {
                for idx in in_offsets[v] as usize..in_offsets[v + 1] as usize {
                    let p = f(in_sources[idx], v as NodeId);
                    debug_assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
                    probs[idx] = p;
                }
            }
        });
    }

    /// Total heap bytes held by the adjacency arrays (used by the memory
    /// experiment, Figure 12, to report graph-vs-RR-set footprints); 0
    /// for a graph served from a mapped snapshot. The derived
    /// [`max_in_probability`](Self::max_in_probability) bound is not
    /// counted.
    pub fn memory_bytes(&self) -> usize {
        self.out_offsets.heap_bytes()
            + self.in_offsets.heap_bytes()
            + self.out_targets.heap_bytes()
            + self.in_sources.heap_bytes()
            + self.out_probs.heap_bytes()
            + self.in_probs.heap_bytes()
    }

    /// The v2 snapshot mapping this graph's arrays view, or `None` for a
    /// graph held on the heap.
    pub fn mapping(&self) -> Option<&Arc<Mmap>> {
        self.out_offsets.mapping()
    }

    /// Checks every CSR invariant, whichever arrays own the data: offsets
    /// run monotonically from 0 to `m` in both directions, every endpoint
    /// names a node below `n`, and every probability lies in `[0, 1]`.
    /// Afterwards no accessor can panic for `v < n`. Snapshot decoders
    /// and the zero-copy open run it on untrusted bytes.
    pub fn validate(&self) -> Result<(), String> {
        let m = self.m();
        for (what, offsets, endpoints, probs) in [
            ("out", &self.out_offsets, &self.out_targets, &self.out_probs),
            ("in", &self.in_offsets, &self.in_sources, &self.in_probs),
        ] {
            if offsets.len() != self.n + 1 {
                return Err(format!("{what} offsets must have n+1 entries"));
            }
            if offsets[0] != 0 || offsets[self.n] != m as u64 {
                return Err(format!("{what} offsets must run from 0 to the edge count"));
            }
            if offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("{what} offsets must be non-decreasing"));
            }
            if endpoints.len() != m || probs.len() != m {
                return Err(format!("{what} edge arrays must hold m = {m} entries"));
            }
            if let Some(&bad) = endpoints.iter().find(|&&e| e as usize >= self.n) {
                return Err(format!("{what} endpoint {bad} out of range"));
            }
            if let Some(&bad) = probs.iter().find(|&&p| !(0.0..=1.0).contains(&p)) {
                return Err(format!("probability {bad} out of range"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn diamond() -> crate::Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_edge_with_probability(0, 1, 0.5);
        b.add_edge_with_probability(0, 2, 0.25);
        b.add_edge_with_probability(1, 3, 1.0);
        b.add_edge_with_probability(2, 3, 0.75);
        b.build()
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        g.validate().unwrap();
    }

    #[test]
    fn degrees_match_structure() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn neighbors_and_probabilities_align() {
        let g = diamond();
        let nbrs = g.out_neighbors(0);
        let probs = g.out_probabilities(0);
        assert_eq!(nbrs, &[1, 2]);
        assert_eq!(probs, &[0.5, 0.25]);

        let in_nbrs = g.in_neighbors(3);
        let in_probs = g.in_probabilities(3);
        assert_eq!(in_nbrs, &[1, 2]);
        assert_eq!(in_probs, &[1.0, 0.75]);
    }

    #[test]
    fn edges_iterator_covers_all_edges() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&(0, 1, 0.5)));
        assert!(edges.contains(&(2, 3, 0.75)));
    }

    #[test]
    fn transpose_swaps_directions() {
        let g = diamond();
        let t = g.transpose();
        t.validate().unwrap();
        assert_eq!(t.out_degree(3), 2);
        assert_eq!(t.in_degree(3), 0);
        assert_eq!(t.out_neighbors(3), g.in_neighbors(3));
        assert_eq!(t.out_probabilities(3), g.in_probabilities(3));
    }

    #[test]
    fn transpose_is_involution() {
        let g = diamond();
        let tt = g.transpose().transpose();
        let a: Vec<_> = g.edges().collect();
        let b: Vec<_> = tt.edges().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn degree_stats_reports_table2_quantities() {
        let g = diamond();
        let s = g.degree_stats();
        assert!((s.avg_degree - 1.0).abs() < 1e-12);
        assert_eq!(s.max_out_degree, 2);
        assert_eq!(s.max_in_degree, 2);
    }

    #[test]
    fn assign_probabilities_updates_both_directions() {
        let mut g = diamond();
        g.assign_probabilities(|u, v| 1.0 / (u + v + 1) as f32);
        for (u, v, p) in g.edges() {
            assert_eq!(p, 1.0 / (u + v + 1) as f32);
        }
        // Reverse side must agree.
        for v in 0..4u32 {
            for (&u, &p) in g.in_neighbors(v).iter().zip(g.in_probabilities(v)) {
                assert_eq!(p, 1.0 / (u + v + 1) as f32);
            }
        }
        g.validate().unwrap();
    }

    fn max_in(g: &crate::Graph, v: u32) -> f32 {
        g.in_probabilities(v).iter().fold(0.0, |a, &p| a.max(p))
    }

    #[test]
    fn max_in_probability_follows_reweighting_and_transpose() {
        let mut g = diamond();
        assert_eq!(g.max_in_probability(3), 1.0);
        assert_eq!(g.max_in_probability(0), 0.0, "no in-edges");
        // Derived before the reassignment; must not survive it.
        g.assign_probabilities(|u, v| 0.1 * (u + v) as f32);
        for v in 0..4u32 {
            assert_eq!(g.max_in_probability(v), max_in(&g, v), "node {v}");
        }
        // Derived for `g` before transposing; `t`'s in-edges differ.
        let t = g.transpose();
        for v in 0..4u32 {
            assert_eq!(t.max_in_probability(v), max_in(&t, v), "transpose node {v}");
        }
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        g.validate().unwrap();
        assert_eq!(g.degree_stats().avg_degree, 0.0);
    }

    #[test]
    fn memory_bytes_is_positive_for_nonempty() {
        let g = diamond();
        assert!(g.memory_bytes() > 0);
    }
}
