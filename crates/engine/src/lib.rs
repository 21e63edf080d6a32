//! **`tim_engine`** — a reusable influence-query engine over persistent
//! RR-set pools.
//!
//! TIM/TIM+ (Tang, Xiao, Shi; SIGMOD 2014) split influence maximization
//! into an expensive sampling phase (θ reverse-reachable sets) and a
//! cheap greedy phase. The rest of this workspace rebuilds both from
//! scratch per invocation; this crate makes the sampled pool a
//! **first-class, persistent asset** so a production service can pay the
//! sampling cost once and answer many queries against it:
//!
//! - [`RrPool`] — a serialized [`tim_coverage::SetCollection`] plus a
//!   provenance header (graph content checksum, model, seed, ε, ℓ, θ)
//!   that the loader validates before the pool may serve a graph;
//! - [`QueryEngine`] — builds an engine for a graph, model and run
//!   parameters, takes the warm-up's first step, attaches a persisted
//!   pool after validating its provenance, and hands its pool out for
//!   persistence. It answers nothing itself;
//! - [`SharedEngine`] — answers every query: seed selection for any `k`
//!   from a warm pool, **byte-identical** to a fresh
//!   [`tim_core::TimPlus`] run at the same `(seed, ε, ℓ, k)` (exact
//!   replay: set j of the sampling stream depends only on `(seed, j)`,
//!   so a run's θ(k) sets are the pool's first θ(k)), or via a single
//!   cached greedy run (prefix answering); plus spread and
//!   marginal-gain estimates against the pool. It resamples only when
//!   ε/ℓ/k demand a larger θ than the pool holds, and then draws only
//!   the sets past the pool's θ, whether the pool was sampled in the
//!   process or attached from a file.
//!
//! Pairs with [`tim_graph::snapshot`] (binary `.timg` graph snapshots) so
//! that a serving process starts without touching a text parser: load
//! snapshot, load pool, answer queries.
//!
//! [`PoolStore`] scales the single-file story to a serving fleet's warm
//! state: a per-tenant directory of provenance-keyed `.timp` files with
//! atomic write-then-rename spills and quarantine of corrupt or foreign
//! files, so every pool a process builds outlives the process. There is
//! one format, the page-aligned `.timp` v2 layout, which persists the
//! inverted index; every writer emits it and replaces files by rename.
//! Every open maps the file zero-copy (`PROT_READ`) as the same
//! [`RrPool`] a heap decode yields, and returns it only after its
//! checksum pass, so restarting a service costs a mapping and one
//! sequential scan instead of a heap decode and an index rebuild — see
//! [`RrPool::load`] and [`PoolStore::probe_backed`]. A file of another
//! version is refused, and a store quarantines it for a rebuild.
//!
//! Each engine keeps its answerable state — pool, θ, `k_max`, plan cache,
//! fast cover and growth epoch — as one immutable version. A query
//! answers from it or names what it lacks, and a miss prepares the next
//! version. [`SharedEngine`] publishes that version in an `Arc` swapped
//! under a lock held only for the swap: hits never wait on planning or
//! sampling, and misses run one at a time off that lock. `tim_server`
//! builds its per-provenance pool cache out of these.

mod engine;
mod error;
mod pool;
mod pool_mmap;
mod shared;
mod store;

pub use engine::{QueryEngine, QueryOutcome};
pub use error::EngineError;
pub use pool::{
    PoolMeta, RrPool, POOL_MAGIC, POOL_V2_ALIGN, POOL_V2_HEADER_BYTES, POOL_V2_MODEL_TAG_MAX,
    POOL_VERSION_V2,
};
pub use shared::SharedEngine;
pub use store::{
    PoolId, PoolStore, ProbedPool, StoreStats, INDEX_FILE, POOL_EXTENSION, QUARANTINE_DIR,
};
