//! Forward influence-propagation simulation.
//!
//! One simulation run plays out the propagation process of §2.1 from a seed
//! set and returns the number of nodes activated — one Monte Carlo sample
//! of `I(S)`. [`SimWorkspace`] owns all scratch memory so repeated runs
//! (Greedy does millions) allocate nothing.
//!
//! Three engines are provided:
//!
//! - [`simulate_ic`](SimWorkspace::simulate_ic) — per-out-edge coin flips,
//!   the classic IC process;
//! - [`simulate_lt`](SimWorkspace::simulate_lt) — lazily-sampled uniform
//!   thresholds with accumulated in-weights, the classic LT process;
//! - [`simulate_triggering`](SimWorkspace::simulate_triggering) — the
//!   general triggering process: each touched node samples its triggering
//!   set once per run, and activates when an active in-neighbour belongs to
//!   it. Works for any [`DiffusionModel`]; the IC/LT engines are
//!   distribution-equivalent fast paths (verified by tests).

use crate::model::DiffusionModel;
use std::collections::HashMap;
use tim_graph::{Graph, NodeId};
use tim_rng::{RandomSource, Rng};

/// Reusable scratch state for forward simulations.
///
/// Epoch-stamped arrays make per-run initialisation O(|touched|) instead of
/// O(n).
#[derive(Debug, Default)]
pub struct SimWorkspace {
    /// Epoch stamp marking activated nodes.
    active: Vec<u32>,
    /// Epoch stamp marking nodes whose threshold/accumulator is initialised.
    touched: Vec<u32>,
    /// LT: activation threshold per touched node.
    threshold: Vec<f64>,
    /// LT: accumulated active in-weight per touched node.
    acc: Vec<f64>,
    epoch: u32,
    /// BFS frontier (index-advancing queue).
    queue: Vec<NodeId>,
    /// Scratch for triggering-set samples.
    trig: Vec<NodeId>,
}

impl SimWorkspace {
    /// Creates an empty workspace; arrays grow to the first graph's size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Nodes activated by the most recent `simulate_*` call, in activation
    /// order (seeds first). Used by baselines (IRIE) that need per-node
    /// activation probabilities, not just counts.
    pub fn activated(&self) -> &[NodeId] {
        &self.queue
    }

    fn begin(&mut self, n: usize) {
        if self.active.len() < n {
            self.active.resize(n, 0);
            self.touched.resize(n, 0);
            self.threshold.resize(n, 0.0);
            self.acc.resize(n, 0.0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: clear and restart at epoch 1.
            self.active.iter_mut().for_each(|s| *s = 0);
            self.touched.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    #[inline]
    fn activate(&mut self, v: NodeId) -> bool {
        let slot = &mut self.active[v as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            self.queue.push(v);
            true
        }
    }

    /// One IC propagation run; returns the number of activated nodes.
    pub fn simulate_ic(&mut self, graph: &Graph, seeds: &[NodeId], rng: &mut Rng) -> u32 {
        self.begin(graph.n());
        let mut count = 0u32;
        for &s in seeds {
            if self.activate(s) {
                count += 1;
            }
        }
        let mut head = 0usize;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let nbrs = graph.out_neighbors(u);
            let probs = graph.out_probabilities(u);
            for (&v, &p) in nbrs.iter().zip(probs) {
                if self.active[v as usize] != self.epoch && rng.bernoulli_f32(p) {
                    self.active[v as usize] = self.epoch;
                    self.queue.push(v);
                    count += 1;
                }
            }
        }
        count
    }

    /// One LT propagation run; returns the number of activated nodes.
    ///
    /// Thresholds are uniform in `[0, 1)` and sampled lazily on first touch;
    /// a node activates when the total weight of its activated in-neighbours
    /// strictly exceeds its threshold, which matches the singleton
    /// triggering formulation in distribution.
    pub fn simulate_lt(&mut self, graph: &Graph, seeds: &[NodeId], rng: &mut Rng) -> u32 {
        self.begin(graph.n());
        let mut count = 0u32;
        for &s in seeds {
            if self.activate(s) {
                count += 1;
            }
        }
        let mut head = 0usize;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let nbrs = graph.out_neighbors(u);
            let probs = graph.out_probabilities(u);
            for (&v, &w) in nbrs.iter().zip(probs) {
                let vi = v as usize;
                if self.active[vi] == self.epoch {
                    continue;
                }
                if self.touched[vi] != self.epoch {
                    self.touched[vi] = self.epoch;
                    self.threshold[vi] = rng.next_f64();
                    self.acc[vi] = 0.0;
                }
                self.acc[vi] += w as f64;
                if self.acc[vi] > self.threshold[vi] {
                    self.active[vi] = self.epoch;
                    self.queue.push(v);
                    count += 1;
                }
            }
        }
        count
    }

    /// One propagation run under an arbitrary triggering model.
    ///
    /// Each node touched by the frontier samples its triggering set exactly
    /// once per run (cached), so the run is equivalent to propagation on a
    /// fixed live-edge graph, as Definition 2 / Lemma 9 require.
    pub fn simulate_triggering<M: DiffusionModel + ?Sized>(
        &mut self,
        model: &M,
        graph: &Graph,
        seeds: &[NodeId],
        rng: &mut Rng,
    ) -> u32 {
        self.begin(graph.n());
        // Triggering sets are sampled per run; runs touch few nodes relative
        // to n, so a per-run map beats an O(n) arena reset.
        let mut trig_cache: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        let mut count = 0u32;
        for &s in seeds {
            if self.activate(s) {
                count += 1;
            }
        }
        let mut head = 0usize;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let out_nbrs: Vec<NodeId> = graph.out_neighbors(u).to_vec();
            for v in out_nbrs {
                if self.active[v as usize] == self.epoch {
                    continue;
                }
                let set = trig_cache.entry(v).or_insert_with(|| {
                    self.trig.clear();
                    model.sample_triggering_set(graph, v, rng, &mut self.trig);
                    std::mem::take(&mut self.trig)
                });
                if set.contains(&u) {
                    self.active[v as usize] = self.epoch;
                    self.queue.push(v);
                    count += 1;
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{IndependentCascade, LinearThreshold};
    use tim_graph::{weights, Graph, GraphBuilder};

    fn path_graph(len: usize, p: f32) -> Graph {
        let mut b = GraphBuilder::new(len);
        for i in 0..len - 1 {
            b.add_edge_with_probability(i as NodeId, i as NodeId + 1, p);
        }
        b.build()
    }

    #[test]
    fn ic_deterministic_path_activates_everyone() {
        let g = path_graph(10, 1.0);
        let mut ws = SimWorkspace::new();
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(ws.simulate_ic(&g, &[0], &mut rng), 10);
    }

    #[test]
    fn ic_zero_probability_activates_only_seeds() {
        let g = path_graph(10, 0.0);
        let mut ws = SimWorkspace::new();
        let mut rng = Rng::seed_from_u64(2);
        assert_eq!(ws.simulate_ic(&g, &[0, 5], &mut rng), 2);
    }

    #[test]
    fn duplicate_seeds_counted_once() {
        let g = path_graph(5, 0.0);
        let mut ws = SimWorkspace::new();
        let mut rng = Rng::seed_from_u64(3);
        assert_eq!(ws.simulate_ic(&g, &[2, 2, 2], &mut rng), 1);
        assert_eq!(ws.simulate_lt(&g, &[2, 2], &mut rng), 1);
        assert_eq!(
            ws.simulate_triggering(&IndependentCascade, &g, &[2, 2], &mut rng),
            1
        );
    }

    #[test]
    fn empty_seed_set_spreads_nothing() {
        let g = path_graph(5, 1.0);
        let mut ws = SimWorkspace::new();
        let mut rng = Rng::seed_from_u64(4);
        assert_eq!(ws.simulate_ic(&g, &[], &mut rng), 0);
        assert_eq!(ws.simulate_lt(&g, &[], &mut rng), 0);
    }

    #[test]
    fn ic_two_hop_probability_matches_closed_form() {
        // 0 -p-> 1 -p-> 2; E[I({0})] = 1 + p + p^2.
        let p = 0.6f32;
        let g = path_graph(3, p);
        let mut ws = SimWorkspace::new();
        let mut rng = Rng::seed_from_u64(5);
        let trials = 200_000;
        let total: u64 = (0..trials)
            .map(|_| ws.simulate_ic(&g, &[0], &mut rng) as u64)
            .sum();
        let mean = total as f64 / trials as f64;
        let expect = 1.0 + 0.6 + 0.36;
        assert!((mean - expect).abs() < 0.01, "mean {mean}, expect {expect}");
    }

    #[test]
    fn lt_matches_singleton_triggering_distribution() {
        // Star into node 0 with normalised weights; one seed leaf.
        let mut b = GraphBuilder::new(4);
        b.add_edge(1, 0);
        b.add_edge(2, 0);
        b.add_edge(3, 0);
        let mut g = b.build();
        weights::assign_lt_normalized(&mut g, 9);
        let w_from_1 = {
            let idx = g.in_neighbors(0).iter().position(|&u| u == 1).unwrap();
            g.in_probabilities(0)[idx] as f64
        };
        let mut ws = SimWorkspace::new();
        let mut rng = Rng::seed_from_u64(6);
        let trials = 100_000;
        // Fast-path LT engine.
        let hits: u64 = (0..trials)
            .map(|_| (ws.simulate_lt(&g, &[1], &mut rng) - 1) as u64)
            .sum();
        let freq = hits as f64 / trials as f64;
        assert!(
            (freq - w_from_1).abs() < 0.01,
            "lt {freq} vs weight {w_from_1}"
        );
        // Generic triggering engine must agree.
        let hits2: u64 = (0..trials)
            .map(|_| (ws.simulate_triggering(&LinearThreshold, &g, &[1], &mut rng) - 1) as u64)
            .sum();
        let freq2 = hits2 as f64 / trials as f64;
        assert!(
            (freq2 - w_from_1).abs() < 0.01,
            "trig {freq2} vs {w_from_1}"
        );
    }

    #[test]
    fn generic_triggering_agrees_with_ic_fast_path() {
        let mut g = tim_graph::gen::erdos_renyi_gnm(60, 240, 7);
        weights::assign_constant(&mut g, 0.2);
        let mut ws = SimWorkspace::new();
        let mut rng = Rng::seed_from_u64(8);
        let trials = 30_000;
        let mean_fast: f64 = (0..trials)
            .map(|_| ws.simulate_ic(&g, &[0, 1], &mut rng) as f64)
            .sum::<f64>()
            / trials as f64;
        let mean_gen: f64 = (0..trials)
            .map(|_| ws.simulate_triggering(&IndependentCascade, &g, &[0, 1], &mut rng) as f64)
            .sum::<f64>()
            / trials as f64;
        let rel = (mean_fast - mean_gen).abs() / mean_fast;
        assert!(rel < 0.05, "fast {mean_fast} vs generic {mean_gen}");
    }

    #[test]
    fn workspace_is_reusable_across_graphs_of_different_size() {
        let small = path_graph(3, 1.0);
        let big = path_graph(50, 1.0);
        let mut ws = SimWorkspace::new();
        let mut rng = Rng::seed_from_u64(9);
        assert_eq!(ws.simulate_ic(&big, &[0], &mut rng), 50);
        assert_eq!(ws.simulate_ic(&small, &[0], &mut rng), 3);
        assert_eq!(ws.simulate_ic(&big, &[0], &mut rng), 50);
    }

    #[test]
    fn lt_path_with_unit_weights_is_deterministic() {
        // Each node has a single in-edge with weight 1: acc jumps to 1 > θ.
        let g = path_graph(8, 1.0);
        let mut ws = SimWorkspace::new();
        let mut rng = Rng::seed_from_u64(10);
        for _ in 0..50 {
            assert_eq!(ws.simulate_lt(&g, &[0], &mut rng), 8);
        }
    }
}
