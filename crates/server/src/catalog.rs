//! The multi-graph catalog: named graphs, lazy loading, per-graph pool
//! caches and stores, runtime attach/detach, and LRU eviction of idle
//! graphs.
//!
//! A production deployment serves *several* social networks from one
//! process (the paper evaluates across datasets from 16K to 1.4B edges);
//! one process per graph wastes memory on duplicated runtimes and forces
//! clients to know the topology of the fleet. [`GraphCatalog`] maps wire
//! names (`use <graph>`, validated by
//! [`tim_graph::catalog::validate_graph_name`]) to [`GraphState`]s — a
//! graph, its label map, its effective (per-graph) configuration, and its
//! *own* [`PoolCache`] budget — loaded lazily from disk on first use.
//!
//! Since protocol `tim/3` the catalog is **mutable at runtime**:
//! [`attach_path`](GraphCatalog::attach_path) registers a new tenant in a
//! live process and [`detach`](GraphCatalog::detach) removes one with a
//! graceful drain — the name disappears immediately (new `use` is
//! rejected), while sessions already answering from the graph's
//! [`GraphState`] keep their `Arc` and finish undisturbed. Each graph may
//! carry [`GraphOverrides`] (model / ε / ℓ / seed / k / weights) that
//! replace the corresponding global defaults, and with a pool directory
//! configured each graph owns a persistent [`PoolStore`] under
//! `<pool-dir>/<name>/` so its warm pools survive eviction and restarts.
//!
//! Path-backed graphs load through [`GraphStore::load`], so the file
//! picks the backing: a v2 snapshot is mapped, and is served only after
//! every section and content checksum passes; text and v1 files load
//! onto the heap. A served file must be replaced by rename, never
//! rewritten in place.
//!
//! Locking follows the same discipline as [`PoolCache`]:
//!
//! - Each slot has its **own** mutex, held while loading that graph:
//!   concurrent sessions asking for the same cold graph load it once,
//!   and loads of *different* graphs never block each other.
//! - The catalog-level maps (name → slot, LRU marks) are behind their own
//!   short-lived locks — never held across a load, a spill, or an
//!   eviction's slot lock.
//! - Eviction drops the catalog's reference; sessions holding the
//!   `Arc<GraphState>` keep answering against it until they finish, and
//!   the graph reloads deterministically on return (answers are
//!   provenance-determined, so eviction can never change a response).
//!   With persistence on, eviction first spills dirty pools — evicting a
//!   tenant no longer destroys its warm state.

use crate::cache::{CacheStats, PoolCache, PoolKey};
use crate::protocol::LabelMap;
use crate::server::ServerConfig;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};
use tim_diffusion::DiffusionModel;
use tim_engine::{PoolStore, ProbedPool, QueryEngine, SharedEngine, POOL_V2_MODEL_TAG_MAX};
use tim_graph::catalog::GraphOverrides;
use tim_graph::GraphStore;

/// Everything one served graph needs, shared immutably across sessions:
/// the graph, its label map, the model, the effective configuration, and
/// the graph's own pool cache (optionally backed by a persistent
/// [`PoolStore`]). (One `GraphState` is exactly what a single-graph
/// `tim/1` server used to hold as its whole state.)
#[derive(Debug)]
pub struct GraphState<M> {
    name: String,
    store: GraphStore,
    labels: Arc<LabelMap>,
    model: M,
    model_name: String,
    config: Arc<ServerConfig>,
    cache: PoolCache<M>,
    /// Requests on this graph whose answer panicked and was contained
    /// to an `error: internal error` line.
    recoveries: AtomicU64,
}

impl<M: DiffusionModel + Send + Clone + 'static> GraphState<M> {
    /// Builds the per-graph state. `graph` may own its arrays or map a v2
    /// snapshot; every answer (pool provenance keys included) is the same
    /// either way. `config` is the graph's *effective* configuration
    /// (global defaults with any per-graph overrides already applied);
    /// `store`, when given, makes the pool cache
    /// read-through/write-through over that persistent store. Pools are
    /// built lazily on first use; call [`warm_default`](Self::warm_default)
    /// to pay the default pool's sampling cost up front instead of on the
    /// first query.
    ///
    /// # Panics
    /// Panics if `labels` does not cover the graph's nodes, or a config
    /// parameter is out of range (non-positive ε/ℓ, zero `k_max`, zero
    /// `pool_cache`).
    pub fn new(
        name: impl Into<String>,
        graph: impl Into<GraphStore>,
        labels: impl Into<Arc<LabelMap>>,
        model: M,
        model_name: impl Into<String>,
        config: Arc<ServerConfig>,
        store: Option<Arc<PoolStore>>,
    ) -> Self {
        let graph: GraphStore = graph.into();
        let labels: Arc<LabelMap> = labels.into();
        assert_eq!(
            labels.len(),
            graph.n(),
            "label map must cover every graph node"
        );
        assert!(config.epsilon > 0.0, "epsilon must be positive");
        assert!(config.ell > 0.0, "ell must be positive");
        assert!(config.k_max >= 1, "k_max must be at least 1");
        let cache = match store {
            Some(store) => PoolCache::with_store(config.pool_cache, store, config.persist_pools),
            None => PoolCache::new(config.pool_cache),
        };
        GraphState {
            name: name.into(),
            store: graph,
            labels,
            model,
            model_name: model_name.into(),
            cache,
            config,
            recoveries: AtomicU64::new(0),
        }
    }

    /// The catalog name of this graph.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The graph store serving this name.
    pub fn store(&self) -> &GraphStore {
        &self.store
    }

    /// True when this graph is served from a mapped snapshot.
    pub fn is_mmap(&self) -> bool {
        self.store.is_mmap()
    }

    /// The label map sessions answer through.
    pub fn labels(&self) -> &Arc<LabelMap> {
        &self.labels
    }

    /// The effective serving configuration this graph answers under.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Content checksum of the served graph.
    pub fn graph_checksum(&self) -> u64 {
        self.store.checksum()
    }

    /// Pool-cache effectiveness counters for this graph.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of pools currently cached for this graph.
    pub fn cached_pools(&self) -> usize {
        self.cache.len()
    }

    /// The persistent pool store behind this graph's cache, if any.
    pub fn pool_store(&self) -> Option<&Arc<PoolStore>> {
        self.cache.store()
    }

    /// The provenance key for a query at the given ε/ℓ (defaults applied).
    pub fn key_for(&self, eps: Option<f64>, ell: Option<f64>) -> PoolKey {
        PoolKey::new(
            self.store.checksum(),
            self.model_name.clone(),
            self.config.seed,
            eps.unwrap_or(self.config.epsilon),
            ell.unwrap_or(self.config.ell),
        )
    }

    fn build_engine(&self, eps: f64, ell: f64) -> SharedEngine<M> {
        let mut engine = QueryEngine::with_store(
            self.store.clone(),
            self.model.clone(),
            self.model_name.clone(),
        )
        .epsilon(eps)
        .ell(ell)
        .seed(self.config.seed)
        .k_max(self.config.k_max);
        if self.config.sample_threads > 0 {
            engine = engine.threads(self.config.sample_threads);
        }
        // Step one only: the pool answers an exact `select k_max` at
        // once, and its first other miss (or the server's start-up, for
        // the default pool) finishes the warm-up.
        engine.start_warm();
        SharedEngine::new(engine)
    }

    /// Attaches a pool loaded from this graph's store to the graph —
    /// the read-through path, zero-copy mapped (a verified v2 file) or
    /// heap-decoded (a v1 file). A failure (the file matched its name
    /// but not the served graph) is reported to the cache, which
    /// quarantines the file and falls back to a build.
    fn restore_engine(&self, pool: ProbedPool) -> Result<SharedEngine<M>, String> {
        let mut engine = QueryEngine::from_pool_store(
            self.store.clone(),
            self.model.clone(),
            self.model_name.clone(),
            pool.into_pool(),
        )
        .map_err(|e| e.to_string())?;
        if self.config.sample_threads > 0 {
            engine = engine.threads(self.config.sample_threads);
        }
        Ok(SharedEngine::new(engine))
    }

    /// The engine for a query at the given ε/ℓ: a cache hit reuses the
    /// warm pool; a miss probes the graph's pool store (when configured)
    /// and samples from scratch only on a true miss — all without
    /// blocking readers of other pools.
    pub fn engine_for(&self, eps: Option<f64>, ell: Option<f64>) -> Arc<SharedEngine<M>> {
        let eps = eps.unwrap_or(self.config.epsilon);
        let ell = ell.unwrap_or(self.config.ell);
        let key = self.key_for(Some(eps), Some(ell));
        self.cache.get_or_load(
            &key,
            |pool| self.restore_engine(pool),
            || self.build_engine(eps, ell),
        )
    }

    /// The engine serving default-configuration queries.
    pub fn default_engine(&self) -> Arc<SharedEngine<M>> {
        self.engine_for(None, None)
    }

    /// Builds (or reuses) the default pool and finishes its warm-up now,
    /// returning its θ — lets a server pay the sampling cost before
    /// accepting connections. (`tim serve` takes only the first step
    /// before its workers start, through
    /// [`default_engine`](Self::default_engine), and finishes the
    /// warm-up while they serve.)
    pub fn warm_default(&self) -> u64 {
        self.default_engine().warm()
    }

    /// Counts one request on this graph whose answer panicked.
    pub(crate) fn note_recovery(&self) {
        self.recoveries.fetch_add(1, Ordering::Relaxed);
    }

    /// Pre-seeds this graph's cache with an engine restored from
    /// persistent state (e.g. a `.timp` pool file), keyed by its own
    /// provenance.
    pub fn preload(&self, engine: QueryEngine<M>) -> Arc<SharedEngine<M>> {
        let meta = engine.pool_meta();
        let key = PoolKey::new(
            meta.graph_checksum,
            meta.model.clone(),
            meta.seed,
            meta.epsilon,
            meta.ell,
        );
        self.cache.insert(key, SharedEngine::new(engine))
    }

    /// Spills every cached pool whose on-disk copy is absent or stale
    /// into this graph's store (the `persist` admin verb, periodic
    /// session sync, and the pre-eviction flush). Returns how many pools
    /// were written; 0 without a store.
    pub fn sync_pools(&self) -> usize {
        self.cache.spill_dirty()
    }

    /// One deterministic `stats` answer line: static facts only (name,
    /// sizes, checksum, defaults) — never counters or pool sizes, so the
    /// reply is byte-identical under any interleaving.
    pub fn stats_line(&self) -> String {
        format!(
            "stats: graph={} n={} m={} checksum={:016x} model={} eps={} ell={} seed={} k_max={}",
            self.name,
            self.store.n(),
            self.store.m(),
            self.store.checksum(),
            self.model_name,
            self.config.epsilon,
            self.config.ell,
            self.config.seed,
            self.config.k_max,
        )
    }

    /// One `stats pools` answer line: this graph's pool-cache counters
    /// (hit/miss/build/load/spill/evict) plus the store's quarantine and
    /// restore-backing counters (`mmap_opens`/`verifies`/`heap_loads` —
    /// how restores were served: v2 files zero-copy mapped and
    /// checksum-verified, v1 files heap-decoded), then the cached pools'
    /// total `theta` and `pool_bytes` (heap + mapped), read from the
    /// sizes each engine publishes, so the line never waits on a build or
    /// a growth (a pool between its two warm-up steps counts θ(`k_max`)),
    /// and last the `recoveries`: requests whose answer panicked and was
    /// contained. Deliberately **not** deterministic across
    /// interleavings — it reports live effectiveness, which is the
    /// point: the warm-path claim (`builds=0` with `mmap_opens>0` after
    /// a warm restart over v2 spills) is observable, not inferred.
    pub fn pools_line(&self) -> String {
        let s = self.cache.stats();
        let store = self.pool_store().map(|store| store.stats());
        let store = store.unwrap_or_default();
        let (theta, pool_bytes) = self.cache.pool_totals();
        format!(
            "pools: graph={} cached={} hits={} misses={} builds={} loads={} spills={} evictions={} quarantined={} mmap_opens={} verifies={} heap_loads={} theta={theta} pool_bytes={pool_bytes} recoveries={}",
            self.name,
            self.cache.len(),
            s.hits,
            s.misses,
            s.builds,
            s.loads,
            s.spills,
            s.evictions,
            store.quarantined,
            store.mmap_opens,
            store.verifies,
            store.heap_loads,
            self.recoveries.load(Ordering::Relaxed),
        )
    }
}

/// Where a catalog slot's graph comes from.
#[derive(Debug)]
enum GraphSource {
    /// Load lazily from disk through [`GraphStore::load`] (text edge
    /// list or `.timg`, by content), applying the effective config's
    /// weight spec. Evictable.
    Path(PathBuf),
    /// Registered already loaded (single-graph servers, tests), with its
    /// checksum. Pinned: never evicted, and never hashed again.
    Resident(GraphStore, Arc<LabelMap>),
}

#[derive(Debug)]
struct Slot<M> {
    id: u64,
    name: String,
    source: GraphSource,
    overrides: GraphOverrides,
    loaded: Mutex<Option<Arc<GraphState<M>>>>,
}

/// Catalog effectiveness counters (monotone since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// Graphs loaded (or re-loaded after eviction) from their source.
    pub loads: u64,
    /// Loaded graphs dropped to respect `max_loaded`.
    pub evictions: u64,
    /// Graphs attached after construction (runtime `attach`).
    pub attaches: u64,
    /// Graphs detached at runtime.
    pub detaches: u64,
}

/// LRU bookkeeping for one loaded slot. The weak reference keeps the
/// mark from pinning a detached slot alive; dead marks are pruned
/// opportunistically.
#[derive(Debug)]
struct LoadedMark<M> {
    tick: u64,
    slot: Weak<Slot<M>>,
    evictable: bool,
}

#[derive(Debug)]
struct LruInner<M> {
    tick: u64,
    /// Slot id → mark, for every currently loaded slot.
    loaded: HashMap<u64, LoadedMark<M>>,
    stats: CatalogStats,
}

#[derive(Debug)]
struct CatalogInner<M> {
    slots: HashMap<String, Arc<Slot<M>>>,
    next_id: u64,
}

/// A named-graph catalog with lazy loading, runtime attach/detach, and
/// LRU eviction; see the module docs for the locking contract.
#[derive(Debug)]
pub struct GraphCatalog<M> {
    /// Registered diffusion models by tag; per-graph `model=` overrides
    /// resolve here. The default tag is `model_name`.
    models: HashMap<String, M>,
    model_name: String,
    config: Arc<ServerConfig>,
    inner: RwLock<CatalogInner<M>>,
    lru: Mutex<LruInner<M>>,
}

const POISONED: &str = "catalog lru mutex poisoned";
const MAP_POISONED: &str = "catalog map lock poisoned";
const SLOT_POISONED: &str = "catalog slot mutex poisoned";

impl<M: DiffusionModel + Send + Clone + 'static> GraphCatalog<M> {
    /// Creates an empty catalog serving under `config`'s defaults, with
    /// `model` registered under the tag `model_name`.
    ///
    /// # Panics
    /// Panics if a config parameter is out of range (non-positive ε/ℓ,
    /// zero `k_max`, zero `pool_cache`, zero `max_loaded`), or if
    /// [`register_model`](Self::register_model) refuses `model_name`.
    pub fn new(model: M, model_name: impl Into<String>, config: ServerConfig) -> Self {
        assert!(config.epsilon > 0.0, "epsilon must be positive");
        assert!(config.ell > 0.0, "ell must be positive");
        assert!(config.k_max >= 1, "k_max must be at least 1");
        assert!(config.pool_cache >= 1, "pool_cache must be at least 1");
        assert!(config.max_loaded >= 1, "max_loaded must be at least 1");
        let model_name = model_name.into();
        let mut catalog = GraphCatalog {
            models: HashMap::new(),
            model_name: model_name.clone(),
            config: Arc::new(config),
            inner: RwLock::new(CatalogInner {
                slots: HashMap::new(),
                next_id: 0,
            }),
            lru: Mutex::new(LruInner {
                tick: 0,
                loaded: HashMap::new(),
                stats: CatalogStats::default(),
            }),
        };
        catalog.register_model(model_name, model);
        catalog
    }

    /// Registers an additional diffusion model under `tag`, making
    /// `model=<tag>` a valid per-graph override. The CLI registers both
    /// `ic` and `lt` so one catalog can serve graphs under either model.
    ///
    /// # Panics
    /// Panics if `tag` is longer than [`POOL_V2_MODEL_TAG_MAX`] bytes, the
    /// field a pool file records it in: no pool under it could be spilled.
    pub fn register_model(&mut self, tag: impl Into<String>, model: M) {
        let tag = tag.into();
        assert!(
            tag.len() <= POOL_V2_MODEL_TAG_MAX,
            "model tag {tag:?} is longer than the {POOL_V2_MODEL_TAG_MAX} bytes a pool file records"
        );
        self.models.insert(tag, model);
    }

    /// The registered model tags, sorted.
    pub fn model_tags(&self) -> Vec<&str> {
        let mut tags: Vec<&str> = self.models.keys().map(String::as_str).collect();
        tags.sort_unstable();
        tags
    }

    fn add_slot(
        &self,
        name: String,
        source: GraphSource,
        overrides: GraphOverrides,
        runtime: bool,
    ) -> Result<(), String> {
        tim_graph::catalog::validate_graph_name(&name).map_err(|e| e.to_string())?;
        if let Some(tag) = &overrides.model {
            if !self.models.contains_key(tag) {
                return Err(format!(
                    "graph '{name}': unknown model '{tag}' (registered: {})",
                    self.model_tags().join(", ")
                ));
            }
        }
        let mut inner = self.inner.write().expect(MAP_POISONED);
        if inner.slots.contains_key(&name) {
            return Err(format!("duplicate graph name '{name}'"));
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.slots.insert(
            name.clone(),
            Arc::new(Slot {
                id,
                name,
                source,
                overrides,
                loaded: Mutex::new(None),
            }),
        );
        drop(inner);
        if runtime {
            self.lru.lock().expect(POISONED).stats.attaches += 1;
        }
        Ok(())
    }

    /// Registers a graph to be loaded lazily from `path` on first use
    /// (text edge list or `.timg` snapshot, by content, through
    /// [`GraphStore::load`] with the effective config's weight spec).
    pub fn add_path(
        &self,
        name: impl Into<String>,
        path: impl Into<PathBuf>,
    ) -> Result<(), String> {
        self.add_slot(
            name.into(),
            GraphSource::Path(path.into()),
            GraphOverrides::default(),
            false,
        )
    }

    /// Registers a path-backed graph with per-graph overrides
    /// (model / ε / ℓ / seed / k / weights replacing the global
    /// defaults). Override model tags must be registered
    /// ([`register_model`](Self::register_model)).
    pub fn add_path_with(
        &self,
        name: impl Into<String>,
        path: impl Into<PathBuf>,
        overrides: GraphOverrides,
    ) -> Result<(), String> {
        self.add_slot(
            name.into(),
            GraphSource::Path(path.into()),
            overrides,
            false,
        )
    }

    /// Attaches a path-backed graph to a **live** catalog (the `attach`
    /// admin verb): identical to [`add_path_with`](Self::add_path_with),
    /// counted separately in [`stats`](Self::stats). The graph loads
    /// lazily on its first query, so attach itself is O(1).
    pub fn attach_path(
        &self,
        name: impl Into<String>,
        path: impl Into<PathBuf>,
        overrides: GraphOverrides,
    ) -> Result<(), String> {
        self.add_slot(name.into(), GraphSource::Path(path.into()), overrides, true)
    }

    /// Registers an already-loaded graph under `name`, keeping the
    /// store's checksum (a bare graph is hashed here, once). Resident
    /// graphs are pinned: they never count toward `max_loaded` eviction.
    ///
    /// Validates the label map here, at registration — a mismatch must
    /// fail fast at startup, not panic inside a worker thread on the
    /// first query (which would poison the slot for every later session).
    pub fn add_resident(
        &self,
        name: impl Into<String>,
        graph: impl Into<GraphStore>,
        labels: impl Into<Arc<LabelMap>>,
    ) -> Result<(), String> {
        let name = name.into();
        let graph: GraphStore = graph.into();
        let labels: Arc<LabelMap> = labels.into();
        if labels.len() != graph.n() {
            return Err(format!(
                "graph '{name}': label map covers {} nodes but the graph has {}",
                labels.len(),
                graph.n()
            ));
        }
        self.add_slot(
            name,
            GraphSource::Resident(graph, labels),
            GraphOverrides::default(),
            false,
        )
    }

    /// Detaches `name` from the catalog with a graceful drain: the name
    /// disappears immediately (new `use` and fresh loads are rejected),
    /// while sessions already holding the graph's [`GraphState`] keep
    /// answering against it until they finish — answers are
    /// provenance-determined, so the drain can never change a response.
    /// With persistence on, dirty pools are spilled to the graph's store
    /// first, so a detach destroys no warm state.
    pub fn detach(&self, name: &str) -> Result<(), String> {
        let slot = {
            let mut inner = self.inner.write().expect(MAP_POISONED);
            inner
                .slots
                .remove(name)
                .ok_or_else(|| format!("unknown graph '{name}'"))?
        };
        // The name is gone; now drop the catalog's loaded reference (the
        // drain: session-held Arcs keep the state alive) and its LRU mark.
        let state = slot.loaded.lock().expect(SLOT_POISONED).take();
        {
            let mut lru = self.lru.lock().expect(POISONED);
            lru.loaded.remove(&slot.id);
            lru.stats.detaches += 1;
        }
        if let Some(state) = state {
            if self.config.persist_pools {
                state.sync_pools();
            }
        }
        Ok(())
    }

    /// The serving defaults every graph answers under (before per-graph
    /// overrides).
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Number of named graphs (loaded or not).
    pub fn len(&self) -> usize {
        self.inner.read().expect(MAP_POISONED).slots.len()
    }

    /// True when no graphs are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `name` is in the catalog (loaded or not). Never loads.
    pub fn contains(&self, name: &str) -> bool {
        self.inner
            .read()
            .expect(MAP_POISONED)
            .slots
            .contains_key(name)
    }

    /// All graph names, sorted — the deterministic `graphs` answer.
    pub fn names(&self) -> Vec<String> {
        let inner = self.inner.read().expect(MAP_POISONED);
        let mut names: Vec<String> = inner.slots.keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Number of graphs currently loaded.
    pub fn loaded_count(&self) -> usize {
        self.lru
            .lock()
            .expect(POISONED)
            .loaded
            .values()
            .filter(|m| m.slot.strong_count() > 0)
            .count()
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> CatalogStats {
        self.lru.lock().expect(POISONED).stats
    }

    /// Every currently loaded graph state, in name order — the `persist`
    /// admin verb's working set. Never loads anything, and never *waits*
    /// on one either: slots are `try_lock`ed, so a slot busy with a cold
    /// multi-second load is skipped (it has no pools to spill yet)
    /// instead of stalling the caller for the load's duration.
    pub fn loaded_states(&self) -> Vec<Arc<GraphState<M>>> {
        let slots: Vec<Arc<Slot<M>>> = {
            let inner = self.inner.read().expect(MAP_POISONED);
            let mut slots: Vec<_> = inner.slots.values().cloned().collect();
            slots.sort_by(|a, b| a.name.cmp(&b.name));
            slots
        };
        slots
            .iter()
            .filter_map(|slot| slot.loaded.try_lock().ok().and_then(|guard| guard.clone()))
            .collect()
    }

    /// The state for `name`, loading the graph if needed. Loading holds
    /// only this graph's slot lock, so cold loads of different graphs
    /// proceed in parallel and a popular loaded graph is never blocked.
    pub fn get(&self, name: &str) -> Result<Arc<GraphState<M>>, String> {
        let slot = self
            .inner
            .read()
            .expect(MAP_POISONED)
            .slots
            .get(name)
            .cloned()
            .ok_or_else(|| format!("unknown graph '{name}'"))?;
        let state = {
            let mut guard = slot.loaded.lock().expect(SLOT_POISONED);
            match &*guard {
                Some(state) => Arc::clone(state),
                None => {
                    let state = Arc::new(self.load_slot(&slot)?);
                    *guard = Some(Arc::clone(&state));
                    self.lru.lock().expect(POISONED).stats.loads += 1;
                    state
                }
            }
        };
        self.touch_and_evict(&slot);
        Ok(state)
    }

    /// The effective configuration for a slot: the global defaults with
    /// the slot's overrides applied.
    fn effective_config(&self, overrides: &GraphOverrides) -> Arc<ServerConfig> {
        if overrides.is_empty() {
            return Arc::clone(&self.config);
        }
        let mut config = (*self.config).clone();
        if let Some(eps) = overrides.epsilon {
            config.epsilon = eps;
        }
        if let Some(ell) = overrides.ell {
            config.ell = ell;
        }
        if let Some(seed) = overrides.seed {
            config.seed = seed;
        }
        if let Some(k) = overrides.k_max {
            config.k_max = k;
        }
        if let Some(w) = &overrides.weights {
            config.weights = w.clone();
        }
        Arc::new(config)
    }

    fn load_slot(&self, slot: &Slot<M>) -> Result<GraphState<M>, String> {
        let config = self.effective_config(&slot.overrides);
        let tag = slot
            .overrides
            .model
            .as_deref()
            .unwrap_or(&self.model_name)
            .to_string();
        let model = self
            .models
            .get(&tag)
            .cloned()
            .ok_or_else(|| format!("graph '{}': unknown model '{tag}'", slot.name))?;
        let (graph, labels) = match &slot.source {
            GraphSource::Resident(graph, labels) => (graph.clone(), Arc::clone(labels)),
            GraphSource::Path(path) => {
                // A failure (a corrupt v2 file included) leaves the slot
                // unloaded, not poisoned: the next `use` retries.
                let (graph, labels) =
                    GraphStore::load(path, config.undirected, &config.weights, config.seed)
                        .map_err(|e| {
                            format!("graph '{}': loading {}: {e}", slot.name, path.display())
                        })?;
                (graph, Arc::new(LabelMap::new(labels)))
            }
        };
        let store = match &config.pool_dir {
            Some(dir) => Some(Arc::new(
                PoolStore::open(dir.join(&slot.name))
                    .map_err(|e| format!("graph '{}': opening pool store: {e}", slot.name))?,
            )),
            None => None,
        };
        Ok(GraphState::new(
            slot.name.clone(),
            graph,
            labels,
            model,
            tag,
            config,
            store,
        ))
    }

    /// Re-bumps `name`'s LRU tick if it is currently loaded (a no-op
    /// otherwise). Sessions answering from a cached [`GraphState`] handle
    /// call this periodically so a busy graph never becomes the LRU
    /// eviction victim just because its connections are long-lived.
    pub fn touch(&self, name: &str) {
        let slot = self
            .inner
            .read()
            .expect(MAP_POISONED)
            .slots
            .get(name)
            .cloned();
        if let Some(slot) = slot {
            let mut lru = self.lru.lock().expect(POISONED);
            lru.tick += 1;
            let tick = lru.tick;
            if let Some(mark) = lru.loaded.get_mut(&slot.id) {
                mark.tick = tick;
            }
        }
    }

    /// Bumps `slot`'s LRU tick and evicts the least-recently-used
    /// path-backed graph while more than `max_loaded` of them are
    /// resident. Only path-backed graphs count toward the budget —
    /// pinned ([`add_resident`](Self::add_resident)) graphs can neither
    /// be evicted nor starve the budget of the evictable ones. Victim
    /// slots are `try_lock`ed — a slot busy loading is simply skipped
    /// this round (the next `get` retries), so eviction can never
    /// deadlock with a concurrent load.
    fn touch_and_evict(&self, slot: &Arc<Slot<M>>) {
        let victims: Vec<Arc<Slot<M>>> = {
            let mut lru = self.lru.lock().expect(POISONED);
            lru.tick += 1;
            let tick = lru.tick;
            let evictable = matches!(slot.source, GraphSource::Path(_));
            lru.loaded.insert(
                slot.id,
                LoadedMark {
                    tick,
                    slot: Arc::downgrade(slot),
                    evictable,
                },
            );
            // Prune marks for detached slots whose last holder is gone.
            lru.loaded.retain(|_, m| m.slot.strong_count() > 0);
            let loaded_paths = lru.loaded.values().filter(|m| m.evictable).count();
            let excess = loaded_paths.saturating_sub(self.config.max_loaded);
            if excess == 0 {
                return;
            }
            let mut candidates: Vec<(u64, u64)> = lru
                .loaded
                .iter()
                .filter(|&(&id, m)| id != slot.id && m.evictable)
                .map(|(&id, m)| (m.tick, id))
                .collect();
            candidates.sort_unstable();
            candidates.truncate(excess);
            candidates
                .into_iter()
                .filter_map(|(_, id)| lru.loaded.get(&id).and_then(|m| m.slot.upgrade()))
                .collect()
        };
        for victim in victims {
            // try_lock: never wait on a loading slot.
            if let Ok(mut guard) = victim.loaded.try_lock() {
                if let Some(state) = guard.take() {
                    drop(guard);
                    {
                        let mut lru = self.lru.lock().expect(POISONED);
                        lru.loaded.remove(&victim.id);
                        lru.stats.evictions += 1;
                    }
                    // Eviction must not destroy warm state: flush dirty
                    // pools to the graph's store before the last catalog
                    // reference drops (outside every catalog lock).
                    if self.config.persist_pools {
                        state.sync_pools();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tim_diffusion::IndependentCascade;
    use tim_graph::gen;

    fn catalog(max_loaded: usize) -> GraphCatalog<IndependentCascade> {
        GraphCatalog::new(
            IndependentCascade,
            "ic",
            ServerConfig {
                epsilon: 1.0,
                seed: 1,
                k_max: 2,
                sample_threads: 1,
                max_loaded,
                ..ServerConfig::default()
            },
        )
    }

    fn write_graph(dir: &std::path::Path, name: &str, seed: u64) -> std::path::PathBuf {
        let path = dir.join(format!("{name}.txt"));
        let g = gen::barabasi_albert(60, 3, 0.0, seed);
        tim_graph::io::save_edge_list(&g, &path).unwrap();
        path
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("tim_srv_catalog_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn get_loads_once_and_reports_unknown_names() {
        let dir = tmpdir("load");
        let c = catalog(4);
        c.add_path("a", write_graph(&dir, "a", 1)).unwrap();
        assert!(c.contains("a"));
        assert_eq!(c.loaded_count(), 0, "registration does not load");
        let first = c.get("a").unwrap();
        let again = c.get("a").unwrap();
        assert!(Arc::ptr_eq(&first, &again), "hit returns the same state");
        assert_eq!(c.stats().loads, 1);
        assert!(c.get("nope").unwrap_err().contains("unknown graph"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_and_invalid_names_are_rejected() {
        let c = catalog(4);
        c.add_path("a", "/tmp/x.txt").unwrap();
        assert!(c
            .add_path("a", "/tmp/y.txt")
            .unwrap_err()
            .contains("duplicate"));
        assert!(c.add_path("bad name", "/tmp/z.txt").is_err());
        assert_eq!(c.names(), ["a"]);
    }

    #[test]
    fn mismatched_resident_label_map_fails_at_registration() {
        // The mismatch must surface at startup, not as a worker-thread
        // panic (and a poisoned slot) on the first query.
        let c = catalog(4);
        let g = gen::barabasi_albert(60, 3, 0.0, 1);
        let err = c
            .add_resident("bad", g, LabelMap::identity(10))
            .unwrap_err();
        assert!(err.contains("label map covers 10 nodes"), "got: {err}");
        assert!(!c.contains("bad"));
    }

    #[test]
    fn resident_graphs_neither_evict_nor_consume_the_budget() {
        let dir = tmpdir("pin");
        let c = catalog(1);
        let g = gen::barabasi_albert(60, 3, 0.0, 9);
        let n = g.n();
        c.add_resident("pinned", g, LabelMap::identity(n)).unwrap();
        c.add_path("p1", write_graph(&dir, "p1", 1)).unwrap();
        c.add_path("p2", write_graph(&dir, "p2", 2)).unwrap();

        // A loaded resident graph must not shrink the path budget: with
        // max_loaded = 1, touching pinned + p1 repeatedly evicts nothing.
        c.get("pinned").unwrap();
        c.get("p1").unwrap();
        c.get("pinned").unwrap();
        c.get("p1").unwrap();
        assert_eq!(c.stats().evictions, 0, "p1 fits the path budget of 1");
        assert_eq!(c.loaded_count(), 2);

        // A second path graph exceeds the budget: p1 (LRU) is evicted,
        // the pinned resident never is.
        c.get("p2").unwrap();
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.loaded_count(), 2, "pinned + p2");
        // Evicted graphs reload on return (a fresh load, same answers).
        let loads_before = c.stats().loads;
        c.get("p1").unwrap();
        assert_eq!(c.stats().loads, loads_before + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn touch_protects_a_graph_from_eviction() {
        let dir = tmpdir("touch");
        let c = catalog(2);
        for (name, seed) in [("hot", 1u64), ("a", 2), ("b", 3)] {
            c.add_path(name, write_graph(&dir, name, seed)).unwrap();
        }
        c.get("hot").unwrap();
        c.get("a").unwrap(); // LRU order: hot, then a
        c.touch("hot"); // a session re-touches hot: order is now a, hot
        c.get("b").unwrap(); // budget 2 exceeded: victim must be a, not hot
        assert_eq!(c.stats().evictions, 1);
        let loads_before = c.stats().loads;
        c.get("hot").unwrap();
        assert_eq!(c.stats().loads, loads_before, "hot stayed loaded");
        c.get("a").unwrap();
        assert_eq!(c.stats().loads, loads_before + 1, "a was the victim");
        // Touching an unloaded or unknown name is a harmless no-op.
        c.touch("nope");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attach_registers_live_and_detach_drains() {
        let dir = tmpdir("attach");
        let c = catalog(4);
        c.add_path("a", write_graph(&dir, "a", 1)).unwrap();
        let state_a = c.get("a").unwrap();

        // Runtime attach: visible immediately, loaded lazily.
        c.attach_path("b", write_graph(&dir, "b", 2), GraphOverrides::default())
            .unwrap();
        assert_eq!(c.names(), ["a", "b"]);
        assert_eq!(c.stats().attaches, 1);
        let state_b = c.get("b").unwrap();
        assert!(state_b.stats_line().starts_with("stats: graph=b "));

        // Detach removes the name at once; the held Arc keeps answering.
        c.detach("b").unwrap();
        assert!(!c.contains("b"));
        assert_eq!(c.stats().detaches, 1);
        assert!(c.get("b").unwrap_err().contains("unknown graph"));
        assert!(state_b.default_engine().select(2).seeds.len() == 2);
        // The name is reusable after the drain starts.
        c.attach_path("b", write_graph(&dir, "b2", 3), GraphOverrides::default())
            .unwrap();
        assert!(c.contains("b"));
        // Untouched graphs are unaffected throughout.
        assert!(Arc::ptr_eq(&state_a, &c.get("a").unwrap()));
        assert!(c.detach("nope").unwrap_err().contains("unknown graph"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "longer than the 32 bytes")]
    fn register_model_rejects_a_tag_no_pool_file_can_record() {
        let mut c = catalog(4);
        c.register_model("m".repeat(POOL_V2_MODEL_TAG_MAX), IndependentCascade);
        c.register_model("m".repeat(POOL_V2_MODEL_TAG_MAX + 1), IndependentCascade);
    }

    #[test]
    fn per_graph_overrides_change_the_effective_config() {
        let dir = tmpdir("overrides");
        let mut c = catalog(4);
        c.register_model("ic2", IndependentCascade);
        assert_eq!(c.model_tags(), ["ic", "ic2"]);
        let overrides = tim_graph::catalog::GraphOverrides::parse("eps=0.5,seed=9,k=3").unwrap();
        c.add_path_with("tuned", write_graph(&dir, "tuned", 1), overrides)
            .unwrap();
        c.add_path("plain", write_graph(&dir, "plain", 1)).unwrap();

        let tuned = c.get("tuned").unwrap();
        assert_eq!(tuned.config().epsilon, 0.5);
        assert_eq!(tuned.config().seed, 9);
        assert_eq!(tuned.config().k_max, 3);
        assert!(tuned.stats_line().contains("eps=0.5 ell=1 seed=9 k_max=3"));
        let plain = c.get("plain").unwrap();
        assert_eq!(plain.config().epsilon, 1.0);
        assert_eq!(plain.config().seed, 1);

        // Same file, different seed → different pool provenance.
        assert_ne!(
            tuned.key_for(None, None),
            plain.key_for(None, None),
            "overrides are part of the provenance"
        );

        // A model override must name a registered tag.
        let bad = tim_graph::catalog::GraphOverrides::parse("model=nope").unwrap();
        let err = c
            .add_path_with("x", write_graph(&dir, "x", 1), bad)
            .unwrap_err();
        assert!(err.contains("unknown model 'nope'"), "got: {err}");
        // A registered override tag loads fine.
        let ok = tim_graph::catalog::GraphOverrides::parse("model=ic2").unwrap();
        c.add_path_with("y", write_graph(&dir, "y", 2), ok).unwrap();
        let y = c.get("y").unwrap();
        assert!(y.stats_line().contains("model=ic2"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
