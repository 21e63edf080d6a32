//! Incremental construction of [`Graph`] from an edge list.

use crate::{Graph, GraphError, NodeId};
use std::sync::OnceLock;

/// Accumulates directed edges and produces a [`Graph`].
///
/// Semantics chosen to match the influence-maximization literature:
///
/// - **self-loops are dropped** (a node trivially activates itself);
/// - **parallel edges are merged**, keeping the highest probability (the
///   common convention when crawled datasets contain duplicates);
/// - edges added without a probability default to `1.0` and are expected to
///   be overwritten by a weight model
///   ([`Graph::assign_probabilities`] / [`weights`](crate::weights)).
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId, f32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        assert!(
            n <= u32::MAX as usize,
            "GraphBuilder: node ids are u32; n = {n} too large"
        );
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// Pre-allocates space for `m` edges.
    pub fn with_edge_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Number of edges currently staged (before dedup).
    pub fn staged_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a directed edge `u -> v` with probability 1 (to be overwritten
    /// by a weight model).
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    #[inline]
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.add_edge_with_probability(u, v, 1.0);
    }

    /// Adds a directed edge `u -> v` with propagation probability `p`.
    ///
    /// # Panics
    /// Panics if `u`/`v` is out of range or `p` is not in `[0, 1]`.
    #[inline]
    pub fn add_edge_with_probability(&mut self, u: NodeId, v: NodeId, p: f32) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u}, {v}) out of range for n = {}",
            self.n
        );
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "edge ({u}, {v}): probability {p} must be in [0, 1]"
        );
        if u == v {
            return; // self-loop: no effect on influence propagation
        }
        self.edges.push((u, v, p));
    }

    /// Fallible variant of [`add_edge_with_probability`] for loader code.
    ///
    /// [`add_edge_with_probability`]: Self::add_edge_with_probability
    pub fn try_add_edge(&mut self, u: u64, v: u64, p: f32) -> Result<(), GraphError> {
        if u >= self.n as u64 {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if v >= self.n as u64 {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            return Err(GraphError::InvalidProbability {
                src: u as u32,
                dst: v as u32,
                p,
            });
        }
        if u != v {
            self.edges.push((u as NodeId, v as NodeId, p));
        }
        Ok(())
    }

    /// Also adds the reverse edge; convenience for undirected datasets
    /// (NetHEPT and DBLP in the paper are undirected and are represented as
    /// arc pairs, as in the authors' implementation).
    pub fn add_undirected_edge(&mut self, u: NodeId, v: NodeId) {
        self.add_edge(u, v);
        self.add_edge(v, u);
    }

    /// Builds the CSR graph: sorts, dedups, and lays out both directions.
    pub fn build(mut self) -> Graph {
        let n = self.n;
        // Sort by (src, dst) then merge duplicates keeping max probability.
        self.edges.sort_unstable_by_key(|a| (a.0, a.1));
        self.edges.dedup_by(|next, kept| {
            if next.0 == kept.0 && next.1 == kept.1 {
                kept.2 = kept.2.max(next.2);
                true
            } else {
                false
            }
        });
        let m = self.edges.len();

        // Forward CSR directly from the sorted order.
        let mut out_offsets = vec![0u64; n + 1];
        for &(u, _, _) in &self.edges {
            out_offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = Vec::with_capacity(m);
        let mut out_probs = Vec::with_capacity(m);
        for &(_, v, p) in &self.edges {
            out_targets.push(v);
            out_probs.push(p);
        }

        // Reverse CSR by counting sort on destination.
        let mut in_offsets = vec![0u64; n + 1];
        for &(_, v, _) in &self.edges {
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets.clone();
        let mut in_sources = vec![0 as NodeId; m];
        let mut in_probs = vec![0.0f32; m];
        for &(u, v, p) in &self.edges {
            let slot = cursor[v as usize] as usize;
            in_sources[slot] = u;
            in_probs[slot] = p;
            cursor[v as usize] += 1;
        }

        let g = Graph {
            n,
            out_offsets: out_offsets.into(),
            out_targets: out_targets.into(),
            out_probs: out_probs.into(),
            in_offsets: in_offsets.into(),
            in_sources: in_sources.into(),
            in_probs: in_probs.into(),
            in_max: OnceLock::new(),
        };
        debug_assert!(g.validate().is_ok(), "builder produced invalid CSR");
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_merged_keeping_max_probability() {
        let mut b = GraphBuilder::new(3);
        b.add_edge_with_probability(0, 1, 0.2);
        b.add_edge_with_probability(0, 1, 0.7);
        b.add_edge_with_probability(0, 1, 0.4);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.out_probabilities(0), &[0.7]);
    }

    #[test]
    fn self_loops_are_dropped() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        b.add_edge(1, 1);
        let g = b.build();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn undirected_edge_creates_both_arcs() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected_edge(0, 1);
        let g = b.build();
        assert_eq!(g.m(), 2);
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.out_neighbors(1), &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn invalid_probability_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge_with_probability(0, 1, 1.5);
    }

    #[test]
    fn try_add_edge_reports_errors() {
        let mut b = GraphBuilder::new(2);
        assert!(b.try_add_edge(0, 1, 0.5).is_ok());
        assert!(matches!(
            b.try_add_edge(0, 5, 0.5),
            Err(GraphError::NodeOutOfRange { node: 5, .. })
        ));
        assert!(matches!(
            b.try_add_edge(0, 1, f32::NAN),
            Err(GraphError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn neighbors_come_out_sorted() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 4);
        b.add_edge(0, 1);
        b.add_edge(0, 3);
        let g = b.build();
        assert_eq!(g.out_neighbors(0), &[1, 3, 4]);
    }

    #[test]
    fn staged_edges_counts_before_dedup() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        assert_eq!(b.staged_edges(), 2);
        assert_eq!(b.build().m(), 1);
    }

    #[test]
    fn isolated_nodes_have_empty_adjacency() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        let g = b.build();
        assert!(g.out_neighbors(2).is_empty());
        assert!(g.in_neighbors(3).is_empty());
    }
}
