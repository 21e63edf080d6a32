//! Concurrent, shareable access to a [`QueryEngine`].
//!
//! A [`QueryEngine`] answers queries through `&mut self` because some of
//! them *may* mutate: a plan-cache miss replays the (cheap) estimation
//! phases, and a θ shortfall resamples the pool. But on a warm engine the
//! overwhelmingly common case is a pure read — run greedy over a
//! θ-prefix of the immutable pool, in place, through its shared inverted
//! index.
//!
//! [`SharedEngine`] turns that split into a concurrency story: every query
//! first tries the engine's read-only `try_*` path under an [`RwLock`]
//! read guard (many threads in parallel), and only on a miss upgrades to
//! the write lock to compute plans or grow the pool. Growth is monotone
//! and the sampling stream fixed, so the handoff never changes any
//! answer: an exact-replay `select` returns byte-identical seeds no matter
//! how many threads interleave with it (see `tim_server`'s concurrent
//! determinism test).

use crate::engine::{QueryEngine, QueryOutcome};
use crate::pool::RrPool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use tim_diffusion::DiffusionModel;
use tim_graph::NodeId;

/// A [`QueryEngine`] behind an [`RwLock`] with a read-mostly fast path.
///
/// Cheap to share (`Arc<SharedEngine<M>>`); all query methods take
/// `&self`. Lock poisoning (a panic inside a write section) is treated as
/// fatal — the engine's invariants can no longer be trusted — and
/// propagates as a panic to every later caller.
///
/// ```
/// use std::sync::Arc;
/// use tim_diffusion::IndependentCascade;
/// use tim_engine::{QueryEngine, SharedEngine};
/// use tim_graph::{gen, weights};
///
/// let mut g = gen::barabasi_albert(200, 4, 0.1, 1);
/// weights::assign_weighted_cascade(&mut g);
/// let mut engine = QueryEngine::new(g, IndependentCascade, "ic")
///     .epsilon(1.0)
///     .seed(7)
///     .k_max(4);
/// engine.warm();
/// let shared = Arc::new(SharedEngine::new(engine));
/// let want = shared.select(3).seeds;
///
/// let workers: Vec<_> = (0..2)
///     .map(|_| {
///         let shared = Arc::clone(&shared);
///         std::thread::spawn(move || shared.select(3).seeds)
///     })
///     .collect();
/// for w in workers {
///     assert_eq!(w.join().unwrap(), want);
/// }
/// ```
#[derive(Debug)]
pub struct SharedEngine<M> {
    inner: RwLock<QueryEngine<M>>,
    /// Bumped every time the pool grows through this wrapper — the
    /// growth hook persistence layers ([`crate::PoolStore`] callers)
    /// compare against their last-spilled epoch to decide whether a
    /// pool has new work worth writing back to disk.
    growth: AtomicU64,
    /// The pool's θ and its heap + mapped bytes, republished at the end
    /// of every write-lock section (the only place the pool changes), so
    /// size reporting reads them without ever waiting on a build or a
    /// growth.
    theta: AtomicU64,
    bytes: AtomicU64,
}

/// Panic message used when a previous writer panicked mid-update.
const POISONED: &str = "engine lock poisoned: a writer panicked mid-update";

impl<M: DiffusionModel + Clone> SharedEngine<M> {
    /// Wraps an engine for shared use. Warm it first
    /// ([`QueryEngine::warm`]) if the first queries should not pay the
    /// sampling cost under the write lock.
    pub fn new(engine: QueryEngine<M>) -> Self {
        let shared = SharedEngine {
            inner: RwLock::new(engine),
            growth: AtomicU64::new(0),
            theta: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        };
        shared.publish(&shared.inner.read().expect(POISONED));
        shared
    }

    /// Runs a blocking (write-lock) engine call, bumps the growth epoch
    /// if the pool grew under it and republishes the pool's size — the
    /// single funnel every mutable query path goes through.
    fn with_growth<T>(&self, f: impl FnOnce(&mut QueryEngine<M>) -> T) -> T {
        let mut guard = self.inner.write().expect(POISONED);
        let before = guard.pool_theta();
        let out = f(&mut guard);
        if guard.pool_theta() > before {
            self.growth.fetch_add(1, Ordering::Release);
        }
        self.publish(&guard);
        out
    }

    fn publish(&self, engine: &QueryEngine<M>) {
        let bytes = engine.pool_memory_bytes() + engine.pool_mapped_bytes();
        self.theta.store(engine.pool_theta(), Ordering::Release);
        self.bytes.store(bytes as u64, Ordering::Release);
    }

    /// How many times the pool has grown (resampled) through this
    /// wrapper since construction. Persistence layers record the epoch
    /// at spill time; a later, larger epoch means the stored file is
    /// stale and the pool is worth spilling again. Monotone; `0` means
    /// the pool is exactly what the engine was constructed with.
    pub fn growth_epoch(&self) -> u64 {
        self.growth.load(Ordering::Acquire)
    }

    /// [`QueryEngine::select`] — read lock when the plan is cached and the
    /// pool suffices, write lock otherwise.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn select(&self, k: usize) -> QueryOutcome {
        self.select_with(k, None, None)
    }

    /// [`QueryEngine::select_with`] with the same read-fast-path /
    /// write-upgrade split as [`select`](Self::select).
    pub fn select_with(&self, k: usize, eps: Option<f64>, ell: Option<f64>) -> QueryOutcome {
        if let Some(out) = self
            .inner
            .read()
            .expect(POISONED)
            .try_select_with(k, eps, ell)
        {
            return out;
        }
        // Upgrade. Another writer may have satisfied the query in between;
        // the mutable path re-checks and is deterministic, so recomputing
        // is correct either way.
        self.with_growth(|e| e.select_with(k, eps, ell))
    }

    /// [`QueryEngine::select_fast`] with the read-fast-path split.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn select_fast(&self, k: usize) -> QueryOutcome {
        if let Some(out) = self.inner.read().expect(POISONED).try_select_fast(k) {
            return out;
        }
        self.with_growth(|e| e.select_fast(k))
    }

    /// [`QueryEngine::spread`] — read lock on a warm pool, write lock
    /// (warming it) on a cold one.
    ///
    /// # Panics
    /// Panics if any seed is outside the graph's node range.
    pub fn spread(&self, seeds: &[NodeId]) -> f64 {
        if let Some(s) = self.inner.read().expect(POISONED).try_spread(seeds) {
            return s;
        }
        self.with_growth(|e| e.spread(seeds))
    }

    /// [`QueryEngine::marginal_gain`] with the read-fast-path split.
    pub fn marginal_gain(&self, base: &[NodeId], candidate: NodeId) -> f64 {
        if let Some(m) = self
            .inner
            .read()
            .expect(POISONED)
            .try_marginal_gain(base, candidate)
        {
            return m;
        }
        self.with_growth(|e| e.marginal_gain(base, candidate))
    }

    /// Current pool size θ (0 when cold), as of the last completed
    /// write-lock section. Reads an atomic, so it never waits on a build
    /// or a growth.
    pub fn pool_theta(&self) -> u64 {
        self.theta.load(Ordering::Acquire)
    }

    /// Bytes the pool holds — heap plus file mapping — as of the last
    /// completed write-lock section. Like [`pool_theta`](Self::pool_theta),
    /// never waits on a build or a growth.
    pub fn pool_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Acquire)
    }

    /// The `k` the pool is warmed for.
    pub fn warmed_k(&self) -> usize {
        self.inner.read().expect(POISONED).warmed_k()
    }

    /// Content checksum of the attached graph.
    pub fn graph_checksum(&self) -> u64 {
        self.inner.read().expect(POISONED).graph_checksum()
    }

    /// Warms the pool ([`QueryEngine::warm`]) under the write lock and
    /// returns the resulting θ.
    pub fn warm(&self) -> u64 {
        self.with_growth(|e| e.warm())
    }

    /// The engine's current provenance header
    /// ([`QueryEngine::pool_meta`]), without cloning the sets.
    pub fn pool_meta(&self) -> crate::PoolMeta {
        self.inner.read().expect(POISONED).pool_meta()
    }

    /// Snapshots the current pool (with provenance) for persistence.
    pub fn to_pool(&self) -> RrPool {
        self.inner.read().expect(POISONED).to_pool()
    }

    /// Unwraps the engine (e.g. to persist it at shutdown).
    pub fn into_inner(self) -> QueryEngine<M> {
        self.inner.into_inner().expect(POISONED)
    }

    /// Acquires the read lock once and returns a handle answering the
    /// engine's read-only `try_*` queries against it — the batch-dispatch
    /// primitive: a `tim/2` `batch` executes its whole run of same-engine
    /// queries under **one** lock acquisition instead of one per line.
    ///
    /// A `try_*` miss (uncached plan, θ shortfall) returns `None`; the
    /// caller must **drop the handle first** and go through the blocking
    /// methods ([`select_with`](Self::select_with), …) — calling them while
    /// holding the handle would self-deadlock on the write lock. Answers
    /// never depend on which path served them.
    pub fn read_handle(&self) -> EngineReadGuard<'_, M> {
        EngineReadGuard {
            guard: self.inner.read().expect(POISONED),
        }
    }
}

/// A read-lock guard over a [`SharedEngine`], exposing the engine's
/// read-only query surface. Created by [`SharedEngine::read_handle`];
/// holding it blocks pool growth (writers), not other readers.
#[derive(Debug)]
pub struct EngineReadGuard<'a, M> {
    guard: std::sync::RwLockReadGuard<'a, QueryEngine<M>>,
}

impl<M: DiffusionModel + Clone> EngineReadGuard<'_, M> {
    /// [`QueryEngine::try_select_with`] under the held read lock.
    pub fn try_select_with(
        &self,
        k: usize,
        eps: Option<f64>,
        ell: Option<f64>,
    ) -> Option<QueryOutcome> {
        self.guard.try_select_with(k, eps, ell)
    }

    /// [`QueryEngine::try_select_fast`] under the held read lock.
    pub fn try_select_fast(&self, k: usize) -> Option<QueryOutcome> {
        self.guard.try_select_fast(k)
    }

    /// [`QueryEngine::try_spread`] under the held read lock.
    pub fn try_spread(&self, seeds: &[NodeId]) -> Option<f64> {
        self.guard.try_spread(seeds)
    }

    /// [`QueryEngine::try_marginal_gain`] under the held read lock.
    pub fn try_marginal_gain(&self, base: &[NodeId], candidate: NodeId) -> Option<f64> {
        self.guard.try_marginal_gain(base, candidate)
    }

    /// Pool size θ at the time the lock was taken.
    pub fn pool_theta(&self) -> u64 {
        self.guard.pool_theta()
    }
}

impl<M: DiffusionModel + Clone> From<QueryEngine<M>> for SharedEngine<M> {
    fn from(engine: QueryEngine<M>) -> Self {
        SharedEngine::new(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tim_diffusion::IndependentCascade;
    use tim_graph::{gen, weights, Graph};

    fn wc_graph(n: usize, seed: u64) -> Graph {
        let mut g = gen::barabasi_albert(n, 4, 0.0, seed);
        weights::assign_weighted_cascade(&mut g);
        g
    }

    fn shared(seed: u64) -> SharedEngine<IndependentCascade> {
        let mut engine = QueryEngine::new(wc_graph(300, 1), IndependentCascade, "ic")
            .epsilon(0.8)
            .seed(seed)
            .threads(2)
            .k_max(8);
        engine.warm();
        SharedEngine::new(engine)
    }

    #[test]
    fn shared_engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedEngine<IndependentCascade>>();
        assert_send_sync::<QueryEngine<IndependentCascade>>();
    }

    #[test]
    fn shared_answers_match_exclusive_answers() {
        let s = shared(3);
        let mut exclusive = QueryEngine::new(wc_graph(300, 1), IndependentCascade, "ic")
            .epsilon(0.8)
            .seed(3)
            .threads(2)
            .k_max(8);
        exclusive.warm();
        for k in [1usize, 4, 8] {
            assert_eq!(s.select(k).seeds, exclusive.select(k).seeds, "k = {k}");
        }
        let seeds = s.select(4).seeds;
        assert_eq!(s.spread(&seeds), exclusive.spread(&seeds));
        assert_eq!(
            s.marginal_gain(&seeds, 99),
            exclusive.marginal_gain(&seeds, 99)
        );
        assert_eq!(s.select_fast(3).seeds, exclusive.select_fast(3).seeds);
        assert_eq!(s.pool_theta(), exclusive.pool_theta());
    }

    #[test]
    fn concurrent_selects_agree_with_serial_answers() {
        let s = Arc::new(shared(5));
        // Serial ground truth, including per-k plan caching.
        let serial: Vec<Vec<u32>> = (1..=8).map(|k| s.select(k).seeds).collect();
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    (1..=8)
                        .map(|k| {
                            // Stagger the order per worker to interleave.
                            let k = (k + w) % 8 + 1;
                            (k, s.select(k).seeds)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for w in workers {
            for (k, seeds) in w.join().unwrap() {
                assert_eq!(seeds, serial[k - 1], "k = {k}");
            }
        }
    }

    #[test]
    fn read_handle_answers_match_blocking_calls() {
        let s = shared(4);
        // Blocking ground truth first: these may take the write lock
        // (plan caching, fast-cover build), which must not happen while a
        // read handle is held.
        let want = s.select(3);
        let fast = s.select_fast(2).seeds;
        let spread = s.spread(&want.seeds);
        let gain = s.marginal_gain(&want.seeds, 9);
        let theta = s.pool_theta();

        let handle = s.read_handle();
        assert_eq!(
            handle.try_select_with(3, None, None).unwrap().seeds,
            want.seeds
        );
        assert_eq!(handle.try_select_fast(2).unwrap().seeds, fast);
        assert_eq!(handle.try_spread(&want.seeds).unwrap(), spread);
        assert_eq!(handle.try_marginal_gain(&want.seeds, 9).unwrap(), gain);
        assert_eq!(handle.pool_theta(), theta);
        // A miss (k beyond the warmed pool) reports None instead of
        // blocking — the caller is expected to drop the handle and retry.
        assert!(handle.try_select_with(64, None, None).is_none());
    }

    #[test]
    fn growth_epoch_tracks_pool_growth_only() {
        let s = shared(6); // warmed before wrapping: epoch starts at 0
        assert_eq!(s.growth_epoch(), 0);
        // Warm-pool queries (reads and write-path plan caching) never
        // bump the epoch.
        s.select(3);
        s.select_fast(2);
        s.spread(&[0, 1]);
        s.marginal_gain(&[0], 5);
        assert_eq!(s.growth_epoch(), 0, "no growth, no epoch bump");
        // A tighter ε forces a resample through the write path.
        let out = s.select_with(3, Some(0.1), None);
        assert!(out.resampled);
        assert_eq!(s.growth_epoch(), 1);
        // The same query again answers from the grown pool.
        s.select_with(3, Some(0.1), None);
        assert_eq!(s.growth_epoch(), 1);
    }

    #[test]
    fn published_pool_size_tracks_the_engine() {
        let read = |s: &SharedEngine<IndependentCascade>| {
            let e = s.inner.read().unwrap();
            let bytes = e.pool_memory_bytes() + e.pool_mapped_bytes();
            (e.pool_theta(), bytes as u64)
        };
        let s = shared(7);
        let (theta, bytes) = read(&s);
        assert!(theta > 0 && bytes > 0);
        assert_eq!((s.pool_theta(), s.pool_bytes()), (theta, bytes));
        // Growth republishes both in the write-lock section it ran in.
        s.select_with(3, Some(0.1), None);
        let (grown_theta, grown_bytes) = read(&s);
        assert!(grown_theta > theta && grown_bytes > bytes);
        assert_eq!((s.pool_theta(), s.pool_bytes()), (grown_theta, grown_bytes));
    }

    #[test]
    fn cold_shared_engine_warms_through_the_write_path() {
        let engine = QueryEngine::new(wc_graph(300, 2), IndependentCascade, "ic")
            .epsilon(0.9)
            .seed(9)
            .threads(2)
            .k_max(4);
        let s = SharedEngine::new(engine); // not warmed
        assert_eq!(s.pool_theta(), 0);
        let out = s.select(2);
        assert!(out.resampled, "cold pool must resample");
        assert!(s.pool_theta() > 0);
        assert!(s.spread(&out.seeds) > 0.0);
        let pool = s.to_pool();
        assert_eq!(pool.meta.theta, s.pool_theta());
    }
}
