//! The query engine that answers: concurrent, shareable access to an
//! engine's warm pool.
//!
//! A [`SharedEngine`] keeps its engine's answerable state — one immutable
//! version of the pool, its θ, `k_max`, the plan cache, the fast cover
//! and the growth epoch — in an `Arc`, behind a lock held only to clone
//! or replace that `Arc` (read-copy-update: McKenney and Slingwine,
//! 1998). A query clones the current state and answers from it with no
//! lock held, so reads run in parallel and never wait on planning or
//! sampling.
//!
//! A query the state cannot answer (an uncached plan, a θ shortfall, a
//! stale fast cover, a cold pool) takes the gate, which runs misses one
//! at a time. Under it the miss re-checks the current state, since the
//! miss ahead of it may have prepared what it needs; otherwise it
//! prepares the next state from the current one and publishes it with
//! one pointer swap. Concurrent misses for one query thus prepare once.
//!
//! A read that arrives during a growth answers from the state before it.
//! Growth is monotone and the sampling stream fixed, so an exact-replay
//! `select` returns byte-identical seeds either side of it, however many
//! threads interleave (see `tim_server`'s concurrent determinism test).
//!
//! An engine wrapped between the two warm-up steps
//! ([`QueryEngine::start_warm`]) publishes an unsettled state: it answers
//! exact selects it holds the plan and θ for, and every other query
//! misses, waits on the gate, and finds the warm-up finished there by
//! whoever ran [`SharedEngine::warm`] or missed first.

use crate::engine::{Miss, QueryEngine, QueryOutcome, Setup, State};
use crate::pool::RrPool;
use std::sync::{Arc, Mutex, PoisonError};
use tim_diffusion::DiffusionModel;
use tim_graph::NodeId;

/// `answer` prepared the state for the query it missed.
const PREPARED: &str = "a prepared state answers the query it missed";

/// The engine every query is answered by: a [`QueryEngine`] whose state
/// is published by pointer swap.
///
/// TIM+ splits into an expensive sampling phase and a cheap greedy
/// phase; the engine keeps the sampled pool resident, so repeated
/// queries pay only for greedy max-coverage. Two answering modes:
///
/// - [`select`](Self::select) — **exact replay**: re-derives the
///   [`SamplingPlan`](tim_core::SamplingPlan) for the queried `k`, runs
///   greedy over just the θ-prefix a fresh run would have sampled, read
///   in place from the pool (see
///   [`greedy_max_cover_prefix`](tim_coverage::greedy_max_cover_prefix)),
///   and returns seed sets **byte-identical** to
///   [`TimPlus::run`](tim_core::TimPlus::run) at the same
///   `(seed, ε, ℓ, k)`. Greedy runs on the first ask of each plan; the
///   plan cache keeps the answer for every repeat, across growths. The
///   pool grows (resamples) only when ε/ℓ/k demand a larger θ than it
///   holds.
/// - [`select_fast`](Self::select_fast) — **prefix answering**: one
///   greedy run over the whole pool at its full θ, answering any `k` as
///   the `k`-prefix of that run (greedy's prefix property). Uses *more*
///   sets than required — θ ≥ λ/OPT still holds, so the
///   `(1 − 1/e − ε)` guarantee is preserved — at near-zero marginal
///   cost per query.
///
/// Spread and marginal-gain queries are answered against the full pool.
///
/// Cheap to share (`Arc<SharedEngine<M>>`); all query methods take
/// `&self`. Neither lock guards anything a panic can leave half-written:
/// the state lock only clones or swaps an `Arc`, and the gate guards no
/// data, so both ignore poisoning. A panic while preparing a state
/// publishes nothing — the previous state keeps serving — and reaches
/// the caller that missed.
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
/// engine.start_warm();
/// let shared = Arc::new(SharedEngine::new(engine));
/// shared.warm();
/// let want = shared.select(3).seeds;
/// assert!(shared.marginal_gain(&want, 99) >= 0.0);
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
    setup: Setup<M>,
    /// The published state.
    current: Mutex<Arc<State>>,
    /// Runs misses one at a time. Taken before the state lock.
    gate: Mutex<()>,
}

impl<M: DiffusionModel + Clone> SharedEngine<M> {
    /// Wraps an engine for shared use. Take the warm-up's first step
    /// ([`QueryEngine::start_warm`]) first and finish it with
    /// [`warm`](Self::warm), before serving or while serving, if the
    /// first queries should not pay the sampling cost.
    pub fn new(engine: QueryEngine<M>) -> Self {
        let QueryEngine { setup, mut state } = engine;
        state.epoch = 0;
        SharedEngine {
            setup,
            current: Mutex::new(Arc::new(state)),
            gate: Mutex::new(()),
        }
    }

    /// The published state.
    pub(crate) fn current(&self) -> Arc<State> {
        Arc::clone(&self.current.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Replaces the published state with `next`. The state it replaces
    /// is dropped after the lock is released.
    fn publish(&self, next: State) -> Arc<State> {
        let next = Arc::new(next);
        let mut current = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        let previous = std::mem::replace(&mut *current, Arc::clone(&next));
        drop(current);
        drop(previous);
        next
    }

    /// Answers `query` from the published state. On a miss it takes the
    /// gate, re-checks the state then current, and otherwise prepares
    /// and publishes the next one; the flag reports whether that grew
    /// the pool.
    fn answer<T>(&self, query: impl Fn(&State) -> Result<T, Miss>) -> (T, bool) {
        if let Ok(answer) = query(&self.current()) {
            return (answer, false);
        }
        let _gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        let state = self.current();
        let miss = match query(&state) {
            Ok(answer) => return (answer, false),
            Err(miss) => miss,
        };
        let next = self.publish(self.setup.prepare(&state, miss));
        (query(&next).expect(PREPARED), next.epoch > state.epoch)
    }

    /// How many times the pool has grown (resampled) through this
    /// wrapper since construction. Finishing the warm-up is not a
    /// growth. Persistence layers record the epoch
    /// at spill time; a later, larger epoch means the stored file is
    /// stale and the pool is worth spilling again. Monotone; `0` means
    /// the pool is exactly what the engine was constructed with. It
    /// changes in the same swap as the grown pool, so it never runs
    /// ahead of [`to_pool`](Self::to_pool).
    pub fn growth_epoch(&self) -> u64 {
        self.current().epoch
    }

    /// Answers a `k`-seed selection **byte-identically** to
    /// [`TimPlus::run`](tim_core::TimPlus::run) at the engine's
    /// `(seed, ε, ℓ)`: the estimation phases are replayed (cheap), and
    /// greedy reads the selection sample's sets in place in the pool
    /// instead of regenerating them (the expensive part). Answers from
    /// the published state, preparing the plan or the growth it lacks
    /// first.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn select(&self, k: usize) -> QueryOutcome {
        self.select_with(k, None, None)
    }

    /// [`select`](Self::select) with per-query ε/ℓ overrides. A tighter
    /// ε or ℓ than the pool was built for may demand a larger θ, which
    /// triggers a resample (reported in
    /// [`QueryOutcome::resampled`]).
    pub fn select_with(&self, k: usize, eps: Option<f64>, ell: Option<f64>) -> QueryOutcome {
        assert!(k >= 1, "k must be at least 1");
        let (eps, ell) = self.setup.resolve(eps, ell);
        let (mut out, grew) = self.answer(|s| s.select(k, eps, ell));
        out.resampled = grew;
        out
    }

    /// Answers a `k`-seed selection as the `k`-prefix of a single cached
    /// greedy run over the **full** pool. Near-zero marginal cost per
    /// query; uses more RR sets than a fresh run would, so the
    /// approximation guarantee is preserved (θ only ever exceeds the
    /// required λ/OPT), but seed sets may differ from
    /// [`select`](Self::select)'s exact replay. A `k` past the warmed
    /// `k_max` raises it. Prepares the fast cover first when it is
    /// missing or stale.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn select_fast(&self, k: usize) -> QueryOutcome {
        assert!(k >= 1, "k must be at least 1");
        let (mut out, grew) = self.answer(|s| s.select_fast(k));
        out.resampled = grew;
        out
    }

    /// Estimates `E[I(seeds)]` as `n · F_R(seeds)` over the full pool
    /// (Corollary 1's unbiased coverage estimator), finishing the
    /// warm-up first if it has not finished.
    ///
    /// # Panics
    /// Panics if any seed is outside the graph's node range.
    pub fn spread(&self, seeds: &[NodeId]) -> f64 {
        self.answer(|s| s.spread(seeds)).0
    }

    /// Estimates the marginal spread gain of adding `candidate` to `base`:
    /// `spread(base ∪ {candidate}) − spread(base)`, both against the full
    /// pool, finishing the warm-up first if it has not finished. Zero
    /// when `candidate` is already in `base`.
    pub fn marginal_gain(&self, base: &[NodeId], candidate: NodeId) -> f64 {
        self.answer(|s| s.marginal_gain(base, candidate)).0
    }

    /// Pool size θ of the published state (0 when cold; θ(`k_max`)
    /// between the two warm-up steps). Never waits on a build or a
    /// growth.
    pub fn pool_theta(&self) -> u64 {
        self.current().pool_theta
    }

    /// Bytes the published state's pool holds — heap plus file mapping.
    /// Like [`pool_theta`](Self::pool_theta), never waits on a build or a
    /// growth.
    pub fn pool_bytes(&self) -> u64 {
        self.current().pool_bytes()
    }

    /// The `k` the pool is warmed for.
    pub fn warmed_k(&self) -> usize {
        self.current().k_max
    }

    /// Warms the pool so that **every** `k ≤ k_max` is answerable without
    /// replanning or resampling, and returns the resulting pool θ.
    ///
    /// θ(k) = λ(k)/KPT⁺(k) is not monotone in `k`: λ grows with `k`, but
    /// so does the KPT⁺ bound. On the 300-node test graphs θ(1) is well
    /// above θ(k_max): θ(1) = 38,800 against θ(12) = 12,433 at ε = 0.8
    /// and run seed 13. On the 50k-node benchmark graph it is the other
    /// way round: θ(1) = 64,987 against θ(50) = 150,757 at ε = 0.3 and
    /// run seed 7. So no one plan bounds the rest. Warming plans every
    /// `k` in `1..=k_max` in one batched pass
    /// ([`TimPlus::plans`](tim_core::TimPlus::plans), which costs about
    /// as much as the most expensive single plan), caches every plan, and
    /// samples exactly
    /// `max θ(k)`: the smallest pool that holds every exact
    /// `select k ≤ k_max`'s θ(k)-prefix.
    ///
    /// The pool is sized up front rather than grown per query because
    /// [`select_fast`](Self::select_fast), [`spread`](Self::spread) and
    /// [`marginal_gain`](Self::marginal_gain) answer over the whole pool:
    /// a pool that grew mid-session to serve an exact `select` would
    /// change their answers.
    ///
    /// After [`QueryEngine::start_warm`] this is the warm-up's second
    /// step: it plans the other sizes and tops the pool up, drawing only
    /// the sets past θ(`k_max`). The pool ends byte-identical to a
    /// warm-up in one call. Queries the unsettled state answers keep
    /// answering meanwhile; the rest wait for it at the gate.
    pub fn warm(&self) -> u64 {
        self.answer(State::warm_theta).0
    }

    /// The published state's provenance header (what
    /// [`to_pool`](Self::to_pool) would persist), without cloning the
    /// sets or waiting on the warm-up.
    pub fn pool_meta(&self) -> crate::PoolMeta {
        self.setup.meta(&self.current())
    }

    /// Snapshots the published pool (with provenance) for persistence,
    /// finishing the warm-up first: no pool short of its warm θ is ever
    /// persisted.
    pub fn to_pool(&self) -> RrPool {
        let settled = |s: &State| s.warm_theta().map(|_| self.setup.to_pool(s));
        self.answer(settled).0
    }

    /// Unwraps the engine (e.g. to persist it at shutdown).
    pub fn into_inner(self) -> QueryEngine<M> {
        let current = self
            .current
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        QueryEngine {
            setup: self.setup,
            state: Arc::unwrap_or_clone(current),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;
    use tim_diffusion::{CustomTriggering, IndependentCascade};
    use tim_graph::{gen, weights, Graph};

    fn wc_graph(n: usize, seed: u64) -> Graph {
        let mut g = gen::barabasi_albert(n, 4, 0.0, seed);
        weights::assign_weighted_cascade(&mut g);
        g
    }

    /// A shared engine warmed the way a server warms a pool: step one
    /// before it is shared, step two through it.
    fn shared(seed: u64) -> SharedEngine<IndependentCascade> {
        let mut engine = QueryEngine::new(wc_graph(300, 1), IndependentCascade, "ic")
            .epsilon(0.8)
            .seed(seed)
            .threads(2)
            .k_max(8);
        engine.start_warm();
        let shared = SharedEngine::new(engine);
        shared.warm();
        shared
    }

    #[test]
    fn shared_engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedEngine<IndependentCascade>>();
        assert_send_sync::<QueryEngine<IndependentCascade>>();
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
    fn published_state_answers_match_blocking_calls() {
        let s = shared(4);
        // Blocking ground truth first: these prepare and publish what the
        // warm state lacks (plan caching, the fast cover).
        let want = s.select(3);
        let fast = s.select_fast(2).seeds;
        let spread = s.spread(&want.seeds);
        let gain = s.marginal_gain(&want.seeds, 9);
        let theta = s.pool_theta();

        let state = s.current();
        let (eps, ell) = s.setup.resolve(None, None);
        assert_eq!(state.select(3, eps, ell).unwrap().seeds, want.seeds);
        assert_eq!(state.select_fast(2).unwrap().seeds, fast);
        assert_eq!(state.spread(&want.seeds).unwrap(), spread);
        assert_eq!(state.marginal_gain(&want.seeds, 9).unwrap(), gain);
        assert_eq!(state.pool_theta, theta);
        // A miss (k beyond the warmed pool) reports what it lacks instead
        // of blocking.
        assert!(matches!(
            state.select(64, eps, ell),
            Err(Miss::Plan { k: 64, .. })
        ));
        // Holding a state blocks nobody: the blocking path prepares and
        // publishes the next one, and the held state never changes.
        let past = s.select(64);
        assert_eq!(s.current().select(64, eps, ell).unwrap().seeds, past.seeds);
        assert!(state.select(64, eps, ell).is_err());
        assert_eq!(state.pool_theta, theta);
    }

    #[test]
    fn growth_epoch_tracks_pool_growth_only() {
        let s = shared(6); // warmed from step one: epoch starts at 0
        assert_eq!(s.growth_epoch(), 0);
        // Warm-pool queries (hits, and misses that only plan or build
        // the fast cover) never bump the epoch.
        s.select(3);
        s.select_fast(2);
        s.spread(&[0, 1]);
        s.marginal_gain(&[0], 5);
        assert_eq!(s.growth_epoch(), 0, "no growth, no epoch bump");
        // A tighter ε forces a resample.
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
            let state = s.current();
            let bytes = state.pool.memory_bytes() + state.pool.mapped_bytes();
            (state.pool_theta, bytes as u64)
        };
        let s = shared(7);
        let (theta, bytes) = read(&s);
        assert!(theta > 0 && bytes > 0);
        assert_eq!((s.pool_theta(), s.pool_bytes()), (theta, bytes));
        // Growth publishes both with the grown pool.
        s.select_with(3, Some(0.1), None);
        let (grown_theta, grown_bytes) = read(&s);
        assert!(grown_theta > theta && grown_bytes > bytes);
        assert_eq!((s.pool_theta(), s.pool_bytes()), (grown_theta, grown_bytes));
        assert_eq!(s.pool_meta().theta, grown_theta);
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

    /// Switches for [`faulty_engine`]'s model.
    #[derive(Debug, Default)]
    struct Faults {
        /// While set, sampling waits until it clears.
        stall: AtomicBool,
        /// Set once sampling has waited.
        stalled: AtomicBool,
        /// While set, sampling panics.
        fail: AtomicBool,
    }

    /// An engine over Independent Cascade wrapped to stall or panic
    /// inside `sample_triggering_set` on demand, shared after the warm-up's
    /// first step. θ(1) = 33,950 exceeds θ(8) = 14,050, so step two tops
    /// the pool up.
    fn faulty_engine(faults: &Arc<Faults>) -> SharedEngine<impl DiffusionModel + Clone + Send> {
        let faults = Arc::clone(faults);
        let model = CustomTriggering::new("faulty-ic", move |g, v, rng, out| {
            assert!(!faults.fail.load(Ordering::Acquire), "sampling failed");
            while faults.stall.load(Ordering::Acquire) {
                faults.stalled.store(true, Ordering::Release);
                std::thread::sleep(Duration::from_millis(1));
            }
            IndependentCascade.sample_triggering_set(g, v, rng, out);
        });
        let mut engine = QueryEngine::new(wc_graph(300, 1), model, "ic")
            .epsilon(0.8)
            .seed(4)
            .threads(2)
            .k_max(8);
        engine.start_warm();
        SharedEngine::new(engine)
    }

    #[test]
    fn select_k_max_answers_while_step_two_stalls() {
        let reference = faulty_engine(&Arc::new(Faults::default()));
        reference.warm();
        let faults = Arc::new(Faults::default());
        let s = Arc::new(faulty_engine(&faults));
        assert_eq!(s.pool_theta(), 14_050);

        // Step two stalls inside its planning or its top-up…
        faults.stall.store(true, Ordering::Release);
        let finisher = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || s.warm())
        };
        while !faults.stalled.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        // …while an exact select 8 answers from step one's state.
        let (tx, rx) = std::sync::mpsc::channel();
        let selector = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || tx.send(s.select(8)).unwrap())
        };
        let got = rx.recv_timeout(Duration::from_secs(20));
        selector.join().unwrap();
        let first = got.expect("select 8 waited on step two");
        let want = reference.select(8);
        assert_eq!(first.seeds, want.seeds);
        assert!(!first.resampled);

        // A spread cannot answer from that state: it waits for step two
        // and answers over the settled pool. It cannot finish while step
        // two stalls, however long it takes to start; the pause only
        // lets it reach the gate first.
        let spreader = {
            let s = Arc::clone(&s);
            let seeds = first.seeds.clone();
            std::thread::spawn(move || s.spread(&seeds))
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !spreader.is_finished(),
            "spread answered an unsettled state"
        );
        assert_eq!(s.pool_theta(), 14_050, "nothing published mid-warm-up");
        faults.stall.store(false, Ordering::Release);
        assert_eq!(finisher.join().unwrap(), 33_950);
        let spread = spreader.join().unwrap();
        assert_eq!(spread.to_bits(), reference.spread(&want.seeds).to_bits());
        assert_eq!(s.pool_theta(), reference.pool_theta());
        assert_eq!(s.growth_epoch(), 0, "finishing the warm-up is not a growth");
    }

    #[test]
    fn reads_never_wait_on_a_prepare() {
        let faults = Arc::new(Faults::default());
        let s = Arc::new(faulty_engine(&faults));
        s.warm();
        let read = |s: &SharedEngine<_>| {
            let seeds = s.select(3).seeds;
            let pool = s.to_pool();
            (
                s.select_fast(2).seeds,
                s.spread(&seeds),
                s.marginal_gain(&seeds, 9),
                s.pool_theta(),
                s.pool_bytes(),
                s.pool_meta(),
                s.growth_epoch(),
                (pool.meta, pool.sets.len()),
                seeds,
            )
        };
        // Pre-growth answers, with every cache the reads use in place.
        let want = read(&s);

        // A growing select stalls inside sampling…
        faults.stall.store(true, Ordering::Release);
        let grower = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || s.select_with(3, Some(0.4), None))
        };
        while !faults.stalled.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        // …while every read answers from the state before it.
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || tx.send(read(&s)).unwrap())
        };
        let got = rx.recv_timeout(Duration::from_secs(20));
        faults.stall.store(false, Ordering::Release);
        reader.join().unwrap();
        assert_eq!(got.expect("a read waited on the growth"), want);

        let grown = grower.join().unwrap();
        assert!(grown.resampled);
        assert_eq!(s.growth_epoch(), 1);
        assert!(s.pool_theta() > want.3, "θ grew");
    }

    #[test]
    fn a_panic_in_prepare_leaves_the_engine_serving() {
        let faults = Arc::new(Faults::default());
        let s = faulty_engine(&faults);
        s.warm();
        let want = s.select(3);
        let (theta, epoch) = (s.pool_theta(), s.growth_epoch());

        faults.fail.store(true, Ordering::Release);
        let grow = || s.select_with(3, Some(0.4), None);
        assert!(catch_unwind(AssertUnwindSafe(grow)).is_err());
        // The previous state keeps serving, unchanged.
        assert_eq!(s.select(3).seeds, want.seeds);
        assert_eq!((s.pool_theta(), s.growth_epoch()), (theta, epoch));

        faults.fail.store(false, Ordering::Release);
        let grown = grow();
        assert!(grown.resampled);
        assert!(s.pool_theta() > theta);
        assert_eq!(s.growth_epoch(), epoch + 1);
    }
}
