//! The warm-pool query engine.
//!
//! An engine's answerable state is one immutable [`State`]: the pool,
//! its θ, `k_max`, the plan cache (each plan with its exact answer once
//! it is asked), the fast cover, the growth epoch and whether the
//! warm-up has finished. Each query has one
//! `&self` answer function on it that returns the answer or the [`Miss`]
//! it lacks, and [`Setup::prepare`] turns a state and a miss into the
//! next state by planning, sampling or running the fast greedy.
//! [`QueryEngine`] builds an engine, attaches a persisted pool to it and
//! persists its pool; [`SharedEngine`](crate::SharedEngine) publishes its
//! state behind a pointer swap and answers every query.

use crate::error::EngineError;
use crate::pool::{PoolMeta, RrPool};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use tim_core::parallel::extend_rr_sets;
use tim_core::{select_stream_seed, SamplingPlan, TimPlus};
use tim_coverage::{greedy_max_cover_indexed, greedy_max_cover_prefix, CoverResult, SetCollection};
use tim_diffusion::DiffusionModel;
use tim_graph::catalog::check_accuracy;
use tim_graph::{Graph, GraphStore, NodeId};

/// Result of one `select` query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The selected seed set (dense ids), in greedy order.
    pub seeds: Vec<NodeId>,
    /// θ the answer was computed over — exactly what a fresh
    /// [`TimPlus::run`] at the same `(seed, ε, ℓ, k)` would sample.
    pub theta_used: u64,
    /// Current pool size (≥ `theta_used`).
    pub pool_theta: u64,
    /// True when this query forced the pool to grow (cold pool, larger
    /// `k`, or a tighter ε/ℓ demanded more sets).
    pub resampled: bool,
    /// `n · F_R(S)`: coverage-based unbiased estimate of the seeds'
    /// expected spread, over the `theta_used` sets.
    pub estimated_spread: f64,
}

/// A plan-cache key: `k` clamped to `n`, as the planner clamps it, and
/// the float parameters by bits.
type PlanKey = (usize, u64, u64);

/// A plan-cache entry: the sampling plan and, once a `select` has asked
/// for it, its exact answer. Every state prepared from the one that
/// cached the plan shares the entry.
#[derive(Debug)]
struct PlanEntry {
    plan: SamplingPlan,
    /// Greedy over the pool's sets `0..θ`, set by the first `select`
    /// that runs it. Set j of a pool depends only on `(seed, j)`, so the
    /// answer holds for every later pool, grown or not.
    answer: OnceLock<CoverResult>,
}

/// One immutable version of an engine's answerable state. States that
/// differ only in plans or fast cover share the pool's `Arc`, and every
/// state prepared from another shares its plan entries. An entry's
/// answer is filled in after the state is published, by the first
/// `select` that asks for it.
#[derive(Debug, Clone)]
pub(crate) struct State {
    /// The RR-set pool, held on the heap or mapped zero-copy from a
    /// `.timp` v2 file, with its inverted index built whenever it holds
    /// sets. Growth replaces it with a heap collection.
    pub(crate) pool: Arc<SetCollection>,
    pub(crate) pool_theta: u64,
    pub(crate) k_max: usize,
    /// False until the warm-up finishes
    /// ([`SharedEngine::warm`](crate::SharedEngine::warm)). An unsettled
    /// state answers exact selects whose plan and θ it holds and nothing
    /// that reads the whole pool, and every prepare from it finishes the
    /// warm-up first.
    pub(crate) settled: bool,
    plans: BTreeMap<PlanKey, Arc<PlanEntry>>,
    /// The fast cover: one greedy run over the whole pool at `k_max`
    /// seeds, which
    /// [`SharedEngine::select_fast`](crate::SharedEngine::select_fast)
    /// answers prefixes of. Built only over a settled pool that holds
    /// θ(`k_max`); a growth or a new `k_max` drops it.
    fast: Option<Arc<CoverResult>>,
    /// How many times the pool grew since the engine was shared.
    pub(crate) epoch: u64,
}

/// What a [`State`] lacks to answer a query.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Miss {
    /// The plan for `k` under `(eps, ell)`, and a pool of its θ.
    Plan { k: usize, eps: f64, ell: f64 },
    /// The warm pool ([`SharedEngine::warm`](crate::SharedEngine::warm)).
    Warm,
    /// A fast cover at depth `max(k_max, k)`, over a pool of that
    /// depth's θ.
    Fast { k: usize },
}

impl State {
    fn cold(n: usize, k_max: usize) -> Self {
        State {
            pool: Arc::new(SetCollection::new(n)),
            pool_theta: 0,
            k_max,
            settled: false,
            plans: BTreeMap::new(),
            fast: None,
            epoch: 0,
        }
    }

    fn n(&self) -> usize {
        self.pool.universe()
    }

    fn plan_key(&self, k: usize, eps: f64, ell: f64) -> PlanKey {
        (k.min(self.n()), eps.to_bits(), ell.to_bits())
    }

    /// Heap plus mapped bytes the pool holds.
    pub(crate) fn pool_bytes(&self) -> u64 {
        (self.pool.memory_bytes() + self.pool.mapped_bytes()) as u64
    }

    /// Exact replay
    /// ([`SharedEngine::select_with`](crate::SharedEngine::select_with))
    /// at resolved `(eps, ell)`: greedy over the plan's θ-prefix, read in
    /// place from the pool, run once per plan. Readers racing on a first
    /// ask each run it and compute the same answer; the first to store it
    /// wins, and none waits on another's greedy.
    pub(crate) fn select(&self, k: usize, eps: f64, ell: f64) -> Result<QueryOutcome, Miss> {
        let miss = Miss::Plan { k, eps, ell };
        let entry = self.plans.get(&self.plan_key(k, eps, ell)).ok_or(miss)?;
        let plan = &entry.plan;
        if plan.theta > self.pool_theta {
            return Err(miss);
        }
        let cover = match entry.answer.get() {
            Some(cover) => cover,
            None => {
                let cover = greedy_max_cover_prefix(&self.pool, plan.theta as usize, plan.k);
                debug_assert_eq!(cover.seeds.len(), plan.k.min(self.n()));
                let _ = entry.answer.set(cover);
                entry.answer.get().expect("the answer was just set")
            }
        };
        let frac = cover.coverage_fraction(plan.theta as usize);
        Ok(QueryOutcome {
            seeds: cover.seeds.clone(),
            theta_used: plan.theta,
            pool_theta: self.pool_theta,
            resampled: false,
            estimated_spread: frac * self.n() as f64,
        })
    }

    /// Prefix answering
    /// ([`SharedEngine::select_fast`](crate::SharedEngine::select_fast)):
    /// the `k`-prefix of the fast cover.
    pub(crate) fn select_fast(&self, k: usize) -> Result<QueryOutcome, Miss> {
        let fast = self
            .fast
            .as_ref()
            .filter(|_| k <= self.k_max)
            .ok_or(Miss::Fast { k })?;
        let k_eff = k.min(fast.seeds.len());
        let covered: usize = fast.marginal[..k_eff].iter().sum();
        let frac = covered as f64 / self.pool_theta as f64;
        Ok(QueryOutcome {
            seeds: fast.seeds[..k_eff].to_vec(),
            theta_used: self.pool_theta,
            pool_theta: self.pool_theta,
            resampled: false,
            estimated_spread: frac * self.n() as f64,
        })
    }

    /// The pool's θ once the warm-up has finished
    /// ([`SharedEngine::warm`](crate::SharedEngine::warm)).
    pub(crate) fn warm_theta(&self) -> Result<u64, Miss> {
        self.settled.then_some(self.pool_theta).ok_or(Miss::Warm)
    }

    /// [`SharedEngine::spread`](crate::SharedEngine::spread) over the
    /// full pool.
    pub(crate) fn spread(&self, seeds: &[NodeId]) -> Result<f64, Miss> {
        self.warm_theta()?;
        Ok(self.pool.coverage_fraction(seeds) * self.n() as f64)
    }

    /// [`SharedEngine::marginal_gain`](crate::SharedEngine::marginal_gain)
    /// over the full pool.
    pub(crate) fn marginal_gain(&self, base: &[NodeId], candidate: NodeId) -> Result<f64, Miss> {
        if base.contains(&candidate) {
            return Ok(0.0);
        }
        self.warm_theta()?;
        let before = self.pool.count_covered(base);
        let mut with: Vec<NodeId> = base.to_vec();
        with.push(candidate);
        let after = self.pool.count_covered(&with);
        let denom = self.pool.len().max(1) as f64;
        Ok((after - before) as f64 / denom * self.n() as f64)
    }
}

/// What an engine answers for: the graph, the model and the run
/// parameters. Fixed once the engine is built; every [`State`] of the
/// engine is prepared from it.
#[derive(Debug)]
pub(crate) struct Setup<M> {
    store: GraphStore,
    model: M,
    model_name: String,
    epsilon: f64,
    ell: f64,
    seed: u64,
    threads: usize,
    select_seed: u64,
}

impl<M: DiffusionModel + Clone> Setup<M> {
    /// `(eps, ell)` with the engine's defaults filled in.
    pub(crate) fn resolve(&self, eps: Option<f64>, ell: Option<f64>) -> (f64, f64) {
        let eps = eps.unwrap_or(self.epsilon);
        let ell = ell.unwrap_or(self.ell);
        assert!(eps > 0.0 && ell > 0.0, "epsilon and ell must be positive");
        (eps, ell)
    }

    /// The provenance header of `state`'s pool.
    pub(crate) fn meta(&self, state: &State) -> PoolMeta {
        PoolMeta {
            graph_checksum: self.store.checksum(),
            model: self.model_name.clone(),
            epsilon: self.epsilon,
            ell: self.ell,
            seed: self.seed,
            k_max: state.k_max as u32,
            theta: state.pool_theta,
            select_seed: self.select_seed,
        }
    }

    /// `state`'s pool with its provenance. A heap pool is copied; a
    /// mapped pool shares its mapping. Only a settled pool is handed out:
    /// an unsettled state is settled first, into a copy.
    pub(crate) fn to_pool(&self, state: &State) -> RrPool {
        if !state.settled {
            return self.to_pool(&self.prepare(state, Miss::Warm));
        }
        RrPool {
            meta: self.meta(state),
            sets: SetCollection::clone(&state.pool),
        }
    }

    /// The next state, which answers what `state` missed: it plans, grows
    /// the pool, or runs the fast greedy, and leaves `state` untouched.
    /// From an unsettled state it finishes the warm-up first.
    pub(crate) fn prepare(&self, state: &State, miss: Miss) -> State {
        let mut next = state.clone();
        if !next.settled {
            self.settle(&mut next);
        }
        let theta = match miss {
            Miss::Plan { k, eps, ell } => self.plan(&mut next, &[k], eps, ell),
            Miss::Warm => 0,
            Miss::Fast { k } => {
                next.k_max = next.k_max.max(k);
                let depth = next.k_max;
                self.plan(&mut next, &[depth], self.epsilon, self.ell)
            }
        };
        if self.grow(&mut next, theta) {
            next.epoch += 1;
        }
        if let Miss::Fast { .. } = miss {
            next.fast = Some(Arc::new(greedy_max_cover_indexed(&next.pool, next.k_max)));
        }
        next
    }

    /// Step one of the warm-up ([`QueryEngine::start_warm`]): plans
    /// `k_max` alone and samples its θ. The state stays unsettled.
    pub(crate) fn first_plan(&self, next: &mut State) {
        let theta = self.plan(next, &[next.k_max], self.epsilon, self.ell);
        if self.grow(next, theta) {
            next.epoch += 1;
        }
    }

    /// Step two of the warm-up, or the whole of it from a cold state:
    /// plans every `k ≤ k_max` not planned yet in one batched pass, tops
    /// the pool up to their largest θ, and settles the state. Every
    /// k > n shares the plan for n (plans clamp k to n), so warming never
    /// plans more than n sizes, whatever `k_max` says. Finishing a
    /// warm-up that step one began is not a growth: only sampling a cold
    /// pool moves the epoch.
    fn settle(&self, next: &mut State) {
        let cold = next.pool_theta == 0;
        let ks: Vec<usize> = (1..=next.k_max.min(self.store.n())).collect();
        let theta = self.plan(next, &ks, self.epsilon, self.ell);
        if self.grow(next, theta) && cold {
            next.epoch += 1;
        }
        next.settled = true;
    }

    /// Grows `next`'s pool to `theta` sets, if it holds fewer, and says
    /// whether it did. The pool holds sets `0..pool_theta` of the
    /// selection stream, whether it was sampled here or attached from a
    /// file, so growth copies it and draws only sets `pool_theta..theta`.
    /// Growth is always heap-side, so a mapped pool is copied onto the
    /// heap, and the next spill persists the grown pool as a fresh v2
    /// file.
    fn grow(&self, next: &mut State, theta: u64) -> bool {
        if theta <= next.pool_theta {
            return false;
        }
        let (mut pool, _) = extend_rr_sets(
            self.store.graph(),
            &self.model,
            &next.pool,
            self.select_seed,
            theta,
            self.threads,
        );
        pool.ensure_inverted_index();
        next.pool = Arc::new(pool);
        next.pool_theta = theta;
        next.fast = None;
        true
    }

    /// Caches the sampling plans for `ks` under `(eps, ell)` — the
    /// uncached ones planned in one batched pass, with no answer yet —
    /// and returns their largest θ.
    fn plan(&self, state: &mut State, ks: &[usize], eps: f64, ell: f64) -> u64 {
        let missing: Vec<usize> = ks
            .iter()
            .copied()
            .filter(|&k| !state.plans.contains_key(&state.plan_key(k, eps, ell)))
            .collect();
        if !missing.is_empty() {
            let planner = TimPlus::new(self.model.clone())
                .epsilon(eps)
                .ell(ell)
                .seed(self.seed)
                .threads(self.threads);
            let planned = planner.plans(self.store.graph(), &missing);
            for (k, plan) in missing.into_iter().zip(planned) {
                let key = state.plan_key(k, eps, ell);
                let answer = OnceLock::new();
                state
                    .plans
                    .insert(key, Arc::new(PlanEntry { plan, answer }));
            }
        }
        ks.iter()
            .map(|&k| state.plans[&state.plan_key(k, eps, ell)].plan.theta)
            .max()
            .unwrap_or(0)
    }
}

/// An influence-query engine before it is shared: it builds a pool,
/// attaches a persisted one and hands its pool out for persistence, and
/// answers nothing.
///
/// TIM+ splits into an expensive sampling phase and a cheap greedy phase;
/// an engine keeps the sampled pool resident (and optionally persisted
/// via [`RrPool`]) so that repeated queries pay only for greedy
/// max-coverage. A `QueryEngine` sets the run parameters, takes the
/// warm-up's first step ([`start_warm`](Self::start_warm)), attaches a
/// pool ([`from_pool`](Self::from_pool)) and snapshots its own
/// ([`to_pool`](Self::to_pool)). Wrapped in a
/// [`SharedEngine`](crate::SharedEngine), it answers every query.
///
/// ```
/// use tim_diffusion::IndependentCascade;
/// use tim_engine::{QueryEngine, SharedEngine};
/// use tim_graph::{gen, weights};
///
/// let mut g = gen::barabasi_albert(300, 4, 0.1, 1);
/// weights::assign_weighted_cascade(&mut g);
/// let engine = QueryEngine::new(g.clone(), IndependentCascade, "ic")
///     .epsilon(0.8)
///     .seed(7)
///     .k_max(10);
/// // The settled pool, warmed for every k <= 10, with its provenance.
/// let pool = engine.to_pool();
///
/// // A later process attaches it and answers without sampling.
/// let restored = QueryEngine::from_pool(g, IndependentCascade, "ic", pool).unwrap();
/// let shared = SharedEngine::new(restored);
/// let five = shared.select(5);
/// assert_eq!(five.seeds.len(), 5);
/// assert!(!five.resampled); // served from the attached pool
/// ```
#[derive(Debug)]
pub struct QueryEngine<M> {
    pub(crate) setup: Setup<M>,
    pub(crate) state: State,
}

impl<M: DiffusionModel + Clone> QueryEngine<M> {
    /// Creates a cold engine (no sets sampled yet) for `graph` under
    /// `model`, with the paper's defaults (ε = 0.1, ℓ = 1, seed 0,
    /// `k_max` 50). `model_name` is the provenance tag persisted with
    /// pools (`"ic"` / `"lt"`).
    ///
    /// Accepts the graph by value or as an [`Arc`] — several engines (e.g.
    /// the entries of a serving pool cache) can share one immutable graph
    /// without copying the CSR arrays. To keep a mapped v2 snapshot's
    /// header checksum, pass its [`GraphStore`] to
    /// [`with_store`](Self::with_store).
    ///
    /// # Panics
    /// Panics if the graph has fewer than 2 nodes or no edges.
    pub fn new(graph: impl Into<Arc<Graph>>, model: M, model_name: impl Into<String>) -> Self {
        Self::with_store(GraphStore::from_arc(graph.into()), model, model_name)
    }

    /// Creates a cold engine over a [`GraphStore`], whose graph may own
    /// its arrays or map a v2 snapshot. Answers do not depend on which:
    /// the same `(seed, ε, ℓ, k)` yields byte-identical seeds either way.
    ///
    /// # Panics
    /// Panics if the graph has fewer than 2 nodes or no edges.
    pub fn with_store(store: GraphStore, model: M, model_name: impl Into<String>) -> Self {
        assert!(store.n() >= 2, "engine needs at least 2 nodes");
        assert!(store.m() >= 1, "engine needs at least 1 edge");
        let state = State::cold(store.n(), 50);
        QueryEngine {
            setup: Setup {
                store,
                model,
                model_name: model_name.into(),
                epsilon: 0.1,
                ell: 1.0,
                seed: 0,
                threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
                select_seed: select_stream_seed(0),
            },
            state,
        }
    }

    /// Sets the approximation slack ε (default 0.1).
    #[must_use]
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        self.setup.epsilon = epsilon;
        self
    }

    /// Sets the failure exponent ℓ (default 1).
    #[must_use]
    pub fn ell(mut self, ell: f64) -> Self {
        assert!(ell > 0.0, "ell must be positive");
        self.setup.ell = ell;
        self
    }

    /// Sets the run seed all queries replicate (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.setup.seed = seed;
        self.setup.select_seed = select_stream_seed(seed);
        self
    }

    /// Caps worker threads for resampling (default: all cores). Thread
    /// count never changes results.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "threads must be positive");
        self.setup.threads = threads;
        self
    }

    /// Sets the seed-set size the pool is warmed for (default 50).
    /// Queries beyond it still work — they grow the pool on demand.
    #[must_use]
    pub fn k_max(mut self, k_max: usize) -> Self {
        assert!(k_max >= 1, "k_max must be at least 1");
        self.state.k_max = k_max;
        self.state.fast = None;
        self
    }

    /// Attaches a persisted pool to a graph, validating the full
    /// provenance chain (graph checksum, model tag, universe size, seed
    /// consistency). The engine adopts the pool's `(ε, ℓ, seed, k_max)`.
    pub fn from_pool(
        graph: impl Into<Arc<Graph>>,
        model: M,
        model_name: impl Into<String>,
        pool: RrPool,
    ) -> Result<Self, EngineError> {
        Self::from_pool_store(GraphStore::from_arc(graph.into()), model, model_name, pool)
    }

    /// [`from_pool`](Self::from_pool) over a [`GraphStore`]. Provenance
    /// validation does not depend on who owns the arrays — the checksum
    /// a heap graph hashes to is the one a v2 snapshot records in its
    /// header — so a pool sampled against a heap graph attaches to the
    /// same graph mapped from a snapshot, and vice versa. A pool mapped
    /// from a `.timp` file ([`RrPool::load`]) stays mapped: no
    /// heap decode, no index rebuild, byte-identical answers; growth (a
    /// tighter ε or a larger `k`) resamples onto the heap.
    pub fn from_pool_store(
        store: GraphStore,
        model: M,
        model_name: impl Into<String>,
        pool: RrPool,
    ) -> Result<Self, EngineError> {
        let model_name = model_name.into();
        let meta = &pool.meta;
        let checksum = store.checksum();
        if meta.graph_checksum != checksum {
            return Err(EngineError::Mismatch(format!(
                "pool was sampled on graph {:#018x}, this graph is {checksum:#018x} \
                 (different edges, probabilities, or weight model)",
                meta.graph_checksum
            )));
        }
        if meta.model != model_name {
            return Err(EngineError::Mismatch(format!(
                "pool was sampled under model '{}', engine uses '{model_name}'",
                meta.model
            )));
        }
        if pool.sets.universe() != store.n() {
            return Err(EngineError::Mismatch(format!(
                "pool universe {} != graph node count {}",
                pool.sets.universe(),
                store.n()
            )));
        }
        if meta.select_seed != select_stream_seed(meta.seed) {
            return Err(EngineError::Mismatch(
                "pool's select seed is not derived from its run seed: it was drawn \
                 by another sampler revision, or it is corrupt"
                    .into(),
            ));
        }
        // f64::from_bits accepts anything, so a structurally valid pool can
        // still carry unusable parameters; reject them here rather than
        // panicking in the builder asserts.
        check_accuracy("pool epsilon", meta.epsilon).map_err(EngineError::Format)?;
        check_accuracy("pool ell", meta.ell).map_err(EngineError::Format)?;
        let mut engine = QueryEngine::with_store(store, model, model_name)
            .epsilon(meta.epsilon)
            .ell(meta.ell)
            .seed(meta.seed)
            .k_max(meta.k_max.max(1) as usize);
        engine.state.pool_theta = pool.meta.theta;
        engine.state.settled = true;
        let mut sets = pool.sets;
        // A state's pool always carries a fresh inverted index, so every
        // answer function is `&self`. (A restored pool brings the one its
        // file persists, so this builds nothing for it.)
        sets.ensure_inverted_index();
        engine.state.pool = Arc::new(sets);
        Ok(engine)
    }

    /// The engine's current provenance header (what
    /// [`to_pool`](Self::to_pool) would persist), without cloning the
    /// sets. Cheap — used e.g. to derive pool-cache keys.
    pub fn pool_meta(&self) -> PoolMeta {
        self.setup.meta(&self.state)
    }

    /// Snapshots the current pool (with provenance) for persistence. A
    /// heap pool is copied; a mapped pool shares its mapping. An engine
    /// between the two warm-up steps ([`start_warm`](Self::start_warm))
    /// hands out the settled pool, finished into a copy: no pool short of
    /// its warm θ is ever persisted.
    pub fn to_pool(&self) -> RrPool {
        self.setup.to_pool(&self.state)
    }

    /// Heap bytes held by the pool (0 when mapped).
    pub fn pool_memory_bytes(&self) -> usize {
        self.state.pool.memory_bytes()
    }

    /// Step one of the warm-up
    /// ([`SharedEngine::warm`](crate::SharedEngine::warm) finishes it),
    /// for a first answer that should not wait on plans it does not use:
    /// plans `k_max` alone, samples θ(`k_max`), builds the index, and
    /// returns that θ.
    ///
    /// Until the warm-up finishes the engine answers an exact
    /// `select k_max` (exact answers do not depend on the pool's size,
    /// since pools are prefix-composable) and nothing that reads the
    /// whole pool. Once wrapped, its next miss or
    /// [`SharedEngine::warm`](crate::SharedEngine::warm) runs step two;
    /// [`to_pool`](Self::to_pool) runs it into a copy.
    pub fn start_warm(&mut self) -> u64 {
        self.setup.first_plan(&mut self.state);
        self.state.pool_theta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedEngine;
    use std::sync::atomic::{AtomicU64, Ordering};
    use tim_diffusion::{CustomTriggering, IndependentCascade};
    use tim_graph::{gen, weights};

    fn wc_graph(n: usize, seed: u64) -> Graph {
        let mut g = gen::barabasi_albert(n, 4, 0.0, seed);
        weights::assign_weighted_cascade(&mut g);
        g
    }

    fn engine(seed: u64) -> QueryEngine<IndependentCascade> {
        QueryEngine::new(wc_graph(300, 1), IndependentCascade, "ic")
            .epsilon(0.8)
            .seed(seed)
            .threads(2)
            .k_max(12)
    }

    /// `engine`, warmed the way a server warms a pool: step one before it
    /// is shared, step two through the shared engine.
    fn warm<M: DiffusionModel + Clone>(mut engine: QueryEngine<M>) -> SharedEngine<M> {
        engine.start_warm();
        let shared = SharedEngine::new(engine);
        shared.warm();
        shared
    }

    /// `engine`, warmed in one step from cold through the shared engine.
    fn warm_cold<M: DiffusionModel + Clone>(engine: QueryEngine<M>) -> SharedEngine<M> {
        let shared = SharedEngine::new(engine);
        shared.warm();
        shared
    }

    fn is_mapped<M: DiffusionModel + Clone>(e: &SharedEngine<M>) -> bool {
        e.current().pool.mapping().is_some()
    }

    #[cfg(unix)]
    #[test]
    fn mmap_backed_engine_answers_identically_to_heap() {
        // The warm-state tenancy story depends on this: a pool sampled on
        // a heap graph must attach to the mmap view of the same snapshot,
        // and every query class must answer byte-identically.
        let g = wc_graph(300, 1);
        let labels: Vec<u64> = (0..g.n() as u64).collect();
        let dir = std::env::temp_dir().join(format!("tim_engine_mmap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.timg");
        tim_graph::snapshot::save_snapshot(&g, &labels, &path).unwrap();

        let heap = QueryEngine::new(g, IndependentCascade, "ic")
            .epsilon(0.8)
            .seed(5)
            .threads(2)
            .k_max(12);
        let (store, _) = GraphStore::load(&path, false, "keep", 0).unwrap();
        assert!(store.is_mmap());
        let mapped = QueryEngine::with_store(store, IndependentCascade, "ic")
            .epsilon(0.8)
            .seed(5)
            .threads(2)
            .k_max(12);
        assert_eq!(heap.pool_meta(), mapped.pool_meta());
        let (heap, mapped) = (warm_cold(heap), warm_cold(mapped));
        assert_eq!(heap.pool_theta(), mapped.pool_theta());
        for k in [1usize, 6, 12] {
            let h = heap.select(k);
            let m = mapped.select(k);
            assert_eq!(h.seeds, m.seeds, "k={k}");
            assert_eq!(h.theta_used, m.theta_used);
            assert_eq!(h.estimated_spread, m.estimated_spread);
        }
        let seeds = heap.select(6).seeds;
        assert_eq!(heap.spread(&seeds), mapped.spread(&seeds));
        assert_eq!(
            heap.marginal_gain(&seeds, 99),
            mapped.marginal_gain(&seeds, 99)
        );
        assert_eq!(heap.select_fast(9).seeds, mapped.select_fast(9).seeds);

        // A pool spilled from the heap engine attaches to the mmap store
        // (identical provenance) and keeps answering identically.
        let pool = heap.to_pool();
        let restored = QueryEngine::from_pool_store(
            GraphStore::load(&path, false, "keep", 0).unwrap().0,
            IndependentCascade,
            "ic",
            pool,
        )
        .expect("heap-sampled pool must attach to the mmap backing");
        let out = SharedEngine::new(restored).select(6);
        assert_eq!(out.seeds, seeds);
        assert!(!out.resampled);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn mapped_pool_engine_answers_identically_to_heap() {
        // The out-of-core pool story: a pool spilled as `.timp` v2 and
        // attached zero-copy must answer every query class — exact
        // replay, fast prefix, spread, marginal gain — byte-identically
        // to the heap pool it was spilled from, with no resample.
        let g = Arc::new(wc_graph(300, 1));
        let on_g = || {
            QueryEngine::new(Arc::clone(&g), IndependentCascade, "ic")
                .epsilon(0.8)
                .seed(5)
                .threads(2)
                .k_max(12)
        };
        let warm_pool = warm(on_g());
        let dir = std::env::temp_dir().join(format!("tim_engine_poolmap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.timp");
        warm_pool.to_pool().save(&path).unwrap();
        let attach = || {
            let mapped = RrPool::load(&path).unwrap();
            QueryEngine::from_pool_store(
                GraphStore::from_arc(Arc::clone(&g)),
                IndependentCascade,
                "ic",
                mapped,
            )
            .expect("spilled pool must re-attach mapped")
            .threads(2)
        };

        let e = attach();
        assert!(e.state.pool.mapping().is_some());
        assert_eq!(e.state.pool_theta, warm_pool.pool_theta());
        assert_eq!(e.pool_memory_bytes(), 0);
        assert!(e.state.pool.mapped_bytes() > 0);
        let e = SharedEngine::new(e);

        let heap = warm(on_g());
        // Every k, so every sub-θ prefix is read in place from the
        // mapping as well as from the heap.
        for k in 1..=12 {
            let h = heap.select(k);
            let m = e.select(k);
            assert_eq!(h.seeds, m.seeds, "k={k}");
            assert_eq!(h.estimated_spread, m.estimated_spread);
            assert!(!m.resampled, "mapped pool must serve without resampling");
        }
        assert!(is_mapped(&e), "selects keep the mapping");
        assert_eq!(heap.select_fast(9).seeds, e.select_fast(9).seeds);
        let seeds = heap.select(6).seeds;
        assert_eq!(heap.spread(&seeds), e.spread(&seeds));
        assert_eq!(heap.marginal_gain(&seeds, 99), e.marginal_gain(&seeds, 99));

        // Growth detaches from the mapping: a tighter ε resamples onto
        // the heap, byte-identically to the same growth on a heap pool.
        let e = SharedEngine::new(attach());
        // θ scales as ε⁻²: 0.8 → 0.1 is a 64× demand, beyond the warm
        // pool's max θ(k).
        let grown = e.select_with(12, Some(0.1), None);
        assert!(grown.resampled);
        assert!(!is_mapped(&e), "growth must move the pool heap-side");
        let reference = warm_pool.select_with(12, Some(0.1), None);
        assert_eq!(grown.seeds, reference.seeds);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn mapped_engine_shares_its_graph_and_pool_without_copies() {
        // One type per artifact: an engine over a mapped snapshot and a
        // mapped pool hands out the mapped graph and respills the mapped
        // pool, neither copied nor rebuilt.
        let g = wc_graph(300, 1);
        let labels: Vec<u64> = (0..g.n() as u64).collect();
        let dir = std::env::temp_dir().join(format!("tim_engine_shared_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (graph_path, pool_path) = (dir.join("g.timg"), dir.join("pool.timp"));
        tim_graph::snapshot::save_snapshot(&g, &labels, &graph_path).unwrap();
        engine(5).to_pool().save(&pool_path).unwrap();

        let (store, _) = GraphStore::load(&graph_path, false, "keep", 0).unwrap();
        let e = QueryEngine::from_pool_store(
            store.clone(),
            IndependentCascade,
            "ic",
            RrPool::load(&pool_path).unwrap(),
        )
        .unwrap();
        let checksum = tim_graph::snapshot::graph_checksum;
        assert_eq!(checksum(e.setup.store.graph()), store.checksum());
        assert_eq!(checksum(&e.setup.store.graph_arc()), store.checksum());
        assert!(e.setup.store.graph().mapping().is_some());

        let pool = e.to_pool();
        assert!(pool.sets.mapped_bytes() > 0, "to_pool keeps the mapping");
        assert_eq!(pool.sets.memory_bytes(), 0, "to_pool copies nothing");
        let respill = dir.join("respill.timp");
        pool.save(&respill).unwrap();
        assert_eq!(
            std::fs::read(&respill).unwrap(),
            std::fs::read(&pool_path).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_pool_select_does_not_resample() {
        let e = warm(engine(5));
        let theta = e.pool_theta();
        assert!(theta > 0);
        for k in [1usize, 6, 12] {
            let out = e.select(k);
            assert_eq!(out.seeds.len(), k);
            assert!(!out.resampled, "k={k} resampled on a warm pool");
            assert!(out.theta_used <= theta);
        }
        assert_eq!(e.pool_theta(), theta);
    }

    #[test]
    fn warm_plans_every_k_and_samples_the_largest_theta() {
        let e = SharedEngine::new(engine(13));
        let theta = e.warm();
        let planner = TimPlus::new(IndependentCascade).epsilon(0.8).seed(13);
        let g = wc_graph(300, 1);
        let thetas: Vec<u64> = (1..=12).map(|k| planner.plan(&g, k).theta).collect();
        // Exactly the largest plan's θ, no more.
        assert_eq!(theta, *thetas.iter().max().unwrap());
        assert_eq!(e.pool_theta(), theta);
        let state = e.current();
        for (k, &want) in (1..=12).zip(&thetas) {
            let out = state.select(k, 0.8, 1.0).unwrap_or_else(|miss| {
                panic!("k={k}: warm-up must cache its plan, missed {miss:?}")
            });
            assert_eq!(out.theta_used, want, "k={k}");
            assert!(!out.resampled);
        }

        // A k_max past n plans only n sizes: every k > n shares the plan
        // for n, and still answers without replanning.
        let e = warm_cold(
            QueryEngine::new(wc_graph(40, 2), IndependentCascade, "ic")
                .epsilon(0.8)
                .seed(13)
                .k_max(usize::MAX),
        );
        let out = e
            .current()
            .select(1 << 40, 0.8, 1.0)
            .expect("k > n shares n's plan");
        assert_eq!(out.seeds.len(), 40);
    }

    #[test]
    fn two_step_warm_matches_a_one_step_warm() {
        let one = warm_cold(engine(13));
        let mut two = engine(13);
        // Step one: θ(12) alone, although θ(1) is larger on this graph.
        assert_eq!(two.start_warm(), 12_433);
        assert!(!two.state.settled);
        let (eps, ell) = (0.8, 1.0);
        let first = two
            .state
            .select(12, eps, ell)
            .expect("step one answers k_max");
        let run = TimPlus::new(IndependentCascade)
            .epsilon(0.8)
            .seed(13)
            .threads(2)
            .run(&wc_graph(300, 1), 12);
        assert_eq!(first.seeds, run.seeds);
        assert_eq!(first.seeds, one.select(12).seeds);
        assert_eq!(first.theta_used, 12_433);
        // Nothing that reads the whole pool answers yet, nor any other k.
        let seeds = first.seeds.clone();
        assert!(matches!(two.state.spread(&seeds), Err(Miss::Warm)));
        assert!(matches!(
            two.state.marginal_gain(&seeds, 99),
            Err(Miss::Warm)
        ));
        assert!(matches!(two.state.select_fast(3), Err(Miss::Fast { k: 3 })));
        assert!(matches!(
            two.state.select(1, eps, ell),
            Err(Miss::Plan { k: 1, .. })
        ));

        // Step two tops the pool up to the one-step pool, byte for byte,
        // without counting as a growth.
        let two = SharedEngine::new(two);
        assert_eq!(two.warm(), 38_800);
        assert!(two.current().settled);
        assert_eq!(two.growth_epoch(), 0);
        let (a, b) = (one.current(), two.current());
        assert_eq!(a.pool.raw_offsets(), b.pool.raw_offsets());
        assert_eq!(a.pool.raw_data(), b.pool.raw_data());
        for k in 1..=12 {
            let (a, b) = (one.select(k), two.select(k));
            assert_eq!(a.seeds, b.seeds, "k={k}");
            assert_eq!((a.theta_used, a.pool_theta), (b.theta_used, b.pool_theta));
            assert_eq!(a.estimated_spread.to_bits(), b.estimated_spread.to_bits());
            assert!(!b.resampled, "k={k}");
            let (a, b) = (one.select_fast(k), two.select_fast(k));
            assert_eq!(a.seeds, b.seeds, "fast k={k}");
            assert_eq!(a.estimated_spread.to_bits(), b.estimated_spread.to_bits());
        }
        assert_eq!(one.spread(&seeds).to_bits(), two.spread(&seeds).to_bits());
        assert_eq!(
            one.marginal_gain(&seeds, 99).to_bits(),
            two.marginal_gain(&seeds, 99).to_bits()
        );
    }

    #[test]
    fn the_first_miss_after_step_one_finishes_the_warm_up() {
        // Any miss from an unsettled state runs step two before it
        // prepares what it lacks, so the answer is the one-step warm's.
        let one = warm_cold(engine(13));
        let step_one = || {
            let mut two = engine(13);
            two.start_warm();
            SharedEngine::new(two)
        };
        let two = step_one();
        let a = one.select(5);
        let b = two.select(5);
        assert_eq!(a.seeds, b.seeds);
        assert!(!b.resampled, "finishing the warm-up is not a growth");
        assert!(two.current().settled);
        assert_eq!(two.pool_theta(), one.pool_theta());

        let two = step_one();
        let seeds = one.select(4).seeds;
        assert_eq!(one.spread(&seeds).to_bits(), two.spread(&seeds).to_bits());
    }

    #[test]
    fn a_pool_persisted_between_the_steps_is_the_settled_one() {
        let one = warm_cold(engine(13));
        let mut two = engine(13);
        two.start_warm();
        // QueryEngine::to_pool settles into a copy; the engine stays
        // between the steps.
        let pool = two.to_pool();
        assert!(!two.state.settled);
        assert_eq!(pool.meta, one.pool_meta());
        assert_eq!(pool.sets.raw_data(), one.current().pool.raw_data());

        // SharedEngine::to_pool settles and publishes, and a spill of it
        // stores the settled pool.
        let dir = std::env::temp_dir().join(format!("tim_engine_settled_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = crate::PoolStore::open(&dir).unwrap();
        let shared = SharedEngine::new(two);
        assert_eq!(shared.pool_theta(), 12_433);
        store.spill(&shared.to_pool()).unwrap();
        assert_eq!(shared.pool_theta(), 38_800);
        let stored = store
            .probe_backed(&crate::PoolId::from_meta(&one.pool_meta()), false)
            .unwrap()
            .expect("the spilled pool is found by its provenance")
            .into_pool();
        assert_eq!(stored.meta, one.pool_meta());
        assert_eq!(stored.sets.raw_offsets(), one.current().pool.raw_offsets());
        assert_eq!(stored.sets.raw_data(), one.current().pool.raw_data());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn heap_restores_keep_the_persisted_index_and_attach_without_a_rebuild() {
        // A heap restore, from a reader or from a store, returns the sets
        // with the index sections the file persists, and attaching the
        // pool adopts that index instead of building one.
        let pool = warm(engine(21)).to_pool();
        let mut bytes = Vec::new();
        pool.write(&mut bytes).unwrap();
        // Index section `i` of the file, straight from its section table.
        let section = |i: usize| {
            let field = |at: usize| {
                let at = crate::POOL_V2_HEADER_BYTES as usize - (4 - i) * 32 + at;
                u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
            };
            &bytes[field(8)..field(8) + field(16)]
        };
        let dir =
            std::env::temp_dir().join(format!("tim_engine_heap_index_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = crate::PoolStore::open(&dir).unwrap();
        store.spill(&pool).unwrap();
        let id = crate::PoolId::from_meta(&pool.meta);
        let Some(crate::ProbedPool::Heap(probed)) = store.probe_backed(&id, false).unwrap() else {
            panic!("a heap probe restores onto the heap");
        };
        for restored in [RrPool::read(bytes.as_slice()).unwrap(), probed] {
            let (inv_offsets, inv_data) = restored
                .sets
                .raw_inverted()
                .expect("a heap restore keeps the persisted index");
            assert_eq!(tim_graph::container::le_bytes(inv_offsets), section(2));
            assert_eq!(tim_graph::container::le_bytes(inv_data), section(3));
            let kept = inv_data.as_ptr();
            let attached =
                QueryEngine::from_pool(wc_graph(300, 1), IndependentCascade, "ic", restored)
                    .unwrap();
            let (_, adopted) = attached.state.pool.raw_inverted().unwrap();
            assert_eq!(adopted.as_ptr(), kept, "attaching builds no index");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Independent Cascade wrapped to count its triggering-set draws in
    /// `calls`.
    fn counting_ic(calls: &Arc<AtomicU64>) -> impl DiffusionModel + Clone + Send {
        let calls = Arc::clone(calls);
        CustomTriggering::new("counting-ic", move |g, v, rng, out| {
            calls.fetch_add(1, Ordering::Relaxed);
            IndependentCascade.sample_triggering_set(g, v, rng, out);
        })
    }

    #[cfg(unix)]
    #[test]
    fn an_attached_pool_grows_by_drawing_only_its_new_sets() {
        // Set j of a pool depends only on (seed, j), so any pool of sets
        // 0..θ grows by drawing sets θ..θ′ alone. A pool restored onto the
        // heap and one mapped from a v2 file make exactly the sampler
        // calls of the engine that sampled it, and all three end as a
        // fresh θ′-run.
        let calls = Arc::new(AtomicU64::new(0));
        let g = Arc::new(wc_graph(300, 1));
        let sampled = warm(
            QueryEngine::new(Arc::clone(&g), counting_ic(&calls), "ic")
                .epsilon(0.8)
                .seed(6)
                .threads(2)
                .k_max(12),
        );
        let dir = std::env::temp_dir().join(format!("tim_engine_grow_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.timp");
        sampled.to_pool().save(&path).unwrap();
        let attach = |pool| {
            let store = GraphStore::from_arc(Arc::clone(&g));
            QueryEngine::from_pool_store(store, counting_ic(&calls), "ic", pool)
                .unwrap()
                .threads(2)
        };
        let heap = attach(RrPool::read(std::fs::read(&path).unwrap().as_slice()).unwrap());
        let mapped = attach(RrPool::load(&path).unwrap());
        assert!(heap.state.pool.mapping().is_none() && mapped.state.pool.mapping().is_some());
        let (heap, mapped) = (SharedEngine::new(heap), SharedEngine::new(mapped));

        let grow = |e: &SharedEngine<_>| {
            let before = calls.load(Ordering::Relaxed);
            let out = e.select_with(12, Some(0.4), None);
            assert!(out.resampled);
            (out.seeds, calls.load(Ordering::Relaxed) - before)
        };
        let (seeds, draws) = grow(&sampled);
        assert_eq!(grow(&heap), (seeds.clone(), draws));
        assert_eq!(grow(&mapped), (seeds, draws));
        assert!(!is_mapped(&mapped), "growth moves the pool heap-side");

        let (fresh, _) = tim_core::parallel::generate_rr_sets(
            &g,
            &counting_ic(&calls),
            sampled.pool_theta(),
            select_stream_seed(6),
            3,
        );
        for e in [&sampled, &heap, &mapped] {
            assert_eq!(e.current().pool.raw_offsets(), fresh.raw_offsets());
            assert_eq!(e.current().pool.raw_data(), fresh.raw_data());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tighter_epsilon_grows_the_pool() {
        let e = warm(engine(6));
        let before = e.pool_theta();
        // theta scales as eps^-2: 0.8 -> 0.1 is a 64x demand, far beyond
        // the warm pool's max theta(k).
        let out = e.select_with(12, Some(0.1), None);
        assert!(out.resampled, "eps 0.8 -> 0.1 must grow theta");
        assert!(out.theta_used > before);
        assert!(e.pool_theta() >= out.theta_used);
        // And the old answers are still served without resampling.
        let again = e.select(12);
        assert!(!again.resampled);
    }

    #[test]
    fn fast_mode_is_a_prefix_of_the_deep_run() {
        let e = warm(engine(7));
        let full = e.select_fast(12);
        for k in [1usize, 4, 9] {
            let out = e.select_fast(k);
            assert_eq!(out.seeds, full.seeds[..k], "fast k={k} is not a prefix");
            assert!(!out.resampled);
            assert!(out.estimated_spread <= full.estimated_spread + 1e-9);
        }
    }

    #[test]
    fn spread_and_marginal_agree_with_pool_coverage() {
        let e = warm(engine(8));
        let out = e.select(4);
        let s = e.spread(&out.seeds);
        assert!((s - out.estimated_spread).abs() / out.estimated_spread < 0.25);
        // Marginal gain of an already-chosen seed is 0.
        assert_eq!(e.marginal_gain(&out.seeds, out.seeds[0]), 0.0);
        // Submodularity: gain on top of seeds <= gain on empty base.
        let cand = (0..300).find(|v| !out.seeds.contains(v)).unwrap();
        let on_seeds = e.marginal_gain(&out.seeds, cand);
        let on_empty = e.marginal_gain(&[], cand);
        assert!(on_seeds <= on_empty + 1e-9);
        assert!(on_empty >= 0.0);
        // A chosen seed on an empty base recovers its full (positive) gain.
        assert!(e.marginal_gain(&[], out.seeds[0]) > 0.0);
    }

    #[test]
    fn pool_round_trip_preserves_answers() {
        let e = warm(engine(9));
        let want = e.select(5).seeds;
        let pool = e.to_pool();
        let mut bytes = Vec::new();
        pool.write(&mut bytes).unwrap();
        let loaded = RrPool::read(bytes.as_slice()).unwrap();
        let e2 =
            QueryEngine::from_pool(wc_graph(300, 1), IndependentCascade, "ic", loaded).unwrap();
        let out = SharedEngine::new(e2).select(5);
        assert_eq!(out.seeds, want);
        assert!(!out.resampled);
    }

    #[test]
    fn state_answers_match_or_report_misses() {
        let e = engine(12);
        let (eps, ell) = (0.8, 1.0);
        // Cold engine, nothing cached: every answer function misses, and
        // says what it lacks.
        let cold = e.state.clone();
        assert!(matches!(
            cold.select(3, eps, ell),
            Err(Miss::Plan { k: 3, .. })
        ));
        assert!(matches!(cold.select_fast(3), Err(Miss::Fast { k: 3 })));
        assert!(matches!(cold.spread(&[0]), Err(Miss::Warm)));
        assert!(matches!(cold.marginal_gain(&[0], 1), Err(Miss::Warm)));
        // An already-included candidate needs no pool at all.
        assert_eq!(cold.marginal_gain(&[4], 4).unwrap(), 0.0);

        let e = warm_cold(e);
        // Warm-up caches every plan up to k_max, so k = 3 answers from
        // the state at once, as the blocking path does.
        let got = e
            .current()
            .select(3, eps, ell)
            .expect("warm-up cached k = 3");
        let want = e.select(3);
        assert_eq!(got.seeds, want.seeds);
        assert_eq!(got.theta_used, want.theta_used);
        assert!(!got.resampled);
        // Past k_max no plan is cached yet: a miss until the blocking
        // path plans it.
        let past = e.warmed_k() + 1;
        assert!(e.current().select(past, eps, ell).is_err());
        let want_past = e.select(past);
        let got_past = e.current().select(past, eps, ell).expect("plan now cached");
        assert_eq!(got_past.seeds, want_past.seeds);

        // The fast cover must exist before the state serves fast answers.
        assert!(e.current().select_fast(2).is_err());
        let want_fast = e.select_fast(2);
        let got_fast = e.current().select_fast(2).expect("fast cover now cached");
        assert_eq!(got_fast.seeds, want_fast.seeds);
        assert!(e.current().select_fast(e.warmed_k() + 1).is_err());

        let s = e.spread(&want.seeds);
        assert_eq!(e.current().spread(&want.seeds).unwrap(), s);
        let m = e.marginal_gain(&want.seeds, 99);
        assert_eq!(e.current().marginal_gain(&want.seeds, 99).unwrap(), m);

        // Preparing never touches the state it starts from, and a state
        // that only gained plans or a fast cover shares its pool.
        let e = engine(12);
        let warm = e.setup.prepare(&e.state, Miss::Warm);
        let next = e.setup.prepare(
            &warm,
            Miss::Plan {
                k: 5,
                eps: 0.9,
                ell,
            },
        );
        assert!(warm.select(5, 0.9, ell).is_err());
        assert!(next.select(5, 0.9, ell).is_ok());
        assert!(Arc::ptr_eq(&warm.pool, &next.pool));
        assert_eq!(next.epoch, warm.epoch);
    }

    /// The plan-cache entry `state` holds for `k` at ε = 0.8, ℓ = 1.
    fn entry(state: &State, k: usize) -> Arc<PlanEntry> {
        Arc::clone(&state.plans[&state.plan_key(k, 0.8, 1.0)])
    }

    #[test]
    fn the_first_select_keeps_its_answer_and_growth_shares_it() {
        let e = warm(engine(5));
        let cell = entry(&e.current(), 6);
        assert!(
            cell.answer.get().is_none(),
            "the warm-up runs no exact greedy"
        );
        let first = e.select(6);
        let kept = cell
            .answer
            .get()
            .expect("the first select keeps its answer");
        assert_eq!(kept.seeds, first.seeds);

        // θ scales as ε⁻²: 0.8 → 0.1 grows the pool far past θ(6).
        let theta = e.pool_theta();
        assert!(e.select_with(12, Some(0.1), None).resampled);
        assert!(e.pool_theta() > theta);
        assert!(
            Arc::ptr_eq(&entry(&e.current(), 6), &cell),
            "growth shares the entry"
        );

        // The kept answer is the grown pool's, and a fresh run's.
        let end = cell.plan.theta as usize;
        let regreedy = greedy_max_cover_prefix(&e.current().pool, end, 6);
        let again = e.select(6);
        assert_eq!(again.seeds, regreedy.seeds);
        let spread = regreedy.coverage_fraction(end) * 300.0;
        assert_eq!(again.estimated_spread.to_bits(), spread.to_bits());
        assert_eq!(
            again.estimated_spread.to_bits(),
            first.estimated_spread.to_bits()
        );
        assert_eq!(
            (again.theta_used, again.resampled),
            (first.theta_used, false)
        );
        assert_eq!(again.pool_theta, e.pool_theta());
        let run = TimPlus::new(IndependentCascade)
            .epsilon(0.8)
            .seed(5)
            .threads(2)
            .run(&wc_graph(300, 1), 6);
        assert_eq!(again.seeds, run.seeds);

        // An answer kept between the warm-up's steps survives step two.
        let mut two = engine(13);
        two.start_warm();
        let two = SharedEngine::new(two);
        let early = two.select(12).seeds;
        let cell = entry(&two.current(), 12);
        assert!(cell.answer.get().is_some());
        two.warm();
        assert!(Arc::ptr_eq(&entry(&two.current(), 12), &cell));
        assert_eq!(two.select(12).seeds, early);
    }

    #[test]
    fn racing_first_asks_on_a_shared_engine_agree() {
        let serial = warm(engine(5));
        let ks = [1usize, 6, 12];
        let want: Vec<QueryOutcome> = ks.iter().map(|&k| serial.select(k)).collect();

        let shared = Arc::new(warm(engine(5)));
        let start = Arc::new(std::sync::Barrier::new(8));
        let racers: Vec<_> = (0..8)
            .map(|_| {
                let (shared, start) = (Arc::clone(&shared), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    ks.map(|k| shared.select(k))
                })
            })
            .collect();
        for racer in racers {
            for (got, want) in racer.join().unwrap().iter().zip(&want) {
                assert_eq!(got.seeds, want.seeds);
                assert_eq!(
                    got.estimated_spread.to_bits(),
                    want.estimated_spread.to_bits()
                );
                assert_eq!(
                    (got.theta_used, got.pool_theta),
                    (want.theta_used, want.pool_theta)
                );
                assert!(!got.resampled);
            }
        }
        let e = Arc::into_inner(shared).unwrap().into_inner();
        for (&k, want) in ks.iter().zip(&want) {
            let kept = entry(&e.state, k);
            assert_eq!(kept.answer.get().expect("kept").seeds, want.seeds, "k={k}");
        }
    }

    #[test]
    fn engines_share_one_graph_through_an_arc() {
        let g = Arc::new(wc_graph(300, 1));
        let on_g = || {
            QueryEngine::new(Arc::clone(&g), IndependentCascade, "ic")
                .epsilon(0.8)
                .seed(5)
                .k_max(4)
        };
        let (a, b) = (on_g(), on_g());
        // Three handles: ours plus one per engine — no CSR copies made.
        assert_eq!(Arc::strong_count(&g), 3);
        let (a, b) = (SharedEngine::new(a), SharedEngine::new(b));
        assert_eq!(a.select(4).seeds, b.select(4).seeds);
        assert_eq!(
            Arc::strong_count(&g),
            3,
            "sharing an engine copies no graph"
        );
    }

    #[test]
    fn from_pool_rejects_unusable_parameters_without_panicking() {
        // f64::from_bits accepts anything, so a decoded pool can carry a
        // zero/negative/NaN epsilon; attaching must error, not panic.
        let warm = engine(11).to_pool();
        for (eps, ell) in [(0.0, 1.0), (-1.0, 1.0), (f64::NAN, 1.0), (0.5, 0.0)] {
            let mut pool = warm.clone();
            pool.meta.epsilon = eps;
            pool.meta.ell = ell;
            assert!(
                matches!(
                    QueryEngine::from_pool(wc_graph(300, 1), IndependentCascade, "ic", pool),
                    Err(EngineError::Format(_))
                ),
                "eps={eps} ell={ell} must be rejected"
            );
        }
    }

    #[test]
    fn from_pool_rejects_wrong_graph_and_model() {
        let pool = engine(10).to_pool();
        assert!(matches!(
            QueryEngine::from_pool(
                wc_graph(300, 2), // different graph
                IndependentCascade,
                "ic",
                pool.clone()
            ),
            Err(EngineError::Mismatch(_))
        ));
        assert!(matches!(
            QueryEngine::from_pool(wc_graph(300, 1), IndependentCascade, "lt", pool.clone()),
            Err(EngineError::Mismatch(_))
        ));
        // Sets drawn before the sampler revision: the select seed derived
        // without it (revision 0) is refused, naming both causes.
        let mut stale = pool;
        stale.meta.select_seed ^= tim_diffusion::SAMPLER_REVISION;
        let err = QueryEngine::from_pool(wc_graph(300, 1), IndependentCascade, "ic", stale)
            .expect_err("a pre-revision pool must not attach");
        assert!(matches!(err, EngineError::Mismatch(_)), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("sampler revision") && msg.contains("corrupt"),
            "{msg}"
        );
    }
}
