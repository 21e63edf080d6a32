//! **`tim_server`** — a concurrent, multi-graph influence-query server
//! over shared, immutable RR-set pools.
//!
//! TIM/TIM+ (Tang, Xiao, Shi; SIGMOD 2014) splits influence maximization
//! into an expensive sampling phase and a cheap greedy phase; `tim_engine`
//! already makes the sampled pool a persistent, provenance-pinned asset.
//! This crate adds the deployment shape that split makes practical: **one
//! long-lived process answering many simultaneous queries against many
//! named graphs** from pools it builds once and shares read-only.
//!
//! Five layers, each usable on its own:
//!
//! - [`protocol`] — the newline-delimited query protocol (`tim/3`, a
//!   strict superset of `tim/2` and `tim/1`; normative spec:
//!   `docs/PROTOCOL.md`), shared verbatim with `tim query`. Parsing
//!   ([`protocol::parse_request`], one pass per line) is split from
//!   execution ([`protocol::execute`], against the
//!   [`tim_engine::SharedEngine`] that answers every query) so a server
//!   can route a parsed query to the right graph and pool before running
//!   it. The module also owns the 1 MiB line framing
//!   ([`protocol::CappedLineReader`]) both transports share.
//! - [`cache`] — [`cache::PoolCache`], an LRU cache of
//!   [`tim_engine::SharedEngine`]s keyed by pool provenance
//!   `(graph checksum, model, seed, ε, ℓ)`. Distinct query mixes reuse or
//!   lazily build pools; a cold build never holds the cache lock, so it
//!   never blocks readers of other pools.
//! - [`catalog`] — [`catalog::GraphCatalog`], named graphs loaded lazily
//!   behind per-graph locks, each with its own [`cache::PoolCache`]
//!   budget, plus LRU eviction of idle graphs; [`catalog::GraphState`] is
//!   one graph's serving state.
//! - [`session`] — [`session::Session`], the per-connection `tim/3` state
//!   machine: current graph (`use`), cached default-engine handle,
//!   `batch` execution that amortizes IO without changing a single
//!   answer byte, and the `--admin`-gated admin verbs. It is the only
//!   way a protocol line reaches an engine.
//! - [`server`] — [`server::Server`], the serving core: a pool of
//!   worker threads that each accept a connection and serve it to the
//!   end, sharing [`server::ServerState`] (catalog + defaults) via `Arc`,
//!   with `--idle-timeout` reaping through socket timeouts.
//!
//! Plus [`fanin`], the client-side mirror: scripted sessions driven many
//! at a time against one server, used by the `c10k_fanin` bench and the
//! `serve_session` tests to diff fan-in transcripts against serial
//! replays.
//!
//! # Determinism under concurrency
//!
//! Exact-replay `select` answers are pure functions of the pool's
//! provenance and the query — concurrent clients receive byte-identical
//! responses to a serial replay under **any** interleaving. `eval`,
//! `marginal`, and `select … fast` answers are pure functions of the
//! provenance, the query, *and the pool's current θ*; θ only changes when
//! a query demands growth, so sessions whose queries stay within the
//! warmed pool are interleaving-independent too. Graphs are isolated by
//! construction (separate pools, separate caches), so multi-tenant
//! traffic cannot perturb another graph's answers; batching is a pure
//! transport optimization. See ARCHITECTURE.md §"Concurrency
//! guarantees" and the `concurrent_determinism` / `multi_graph`
//! integration tests.

#![forbid(unsafe_code)]

pub mod cache;
pub mod catalog;
pub mod fanin;
pub mod protocol;
pub mod server;
pub mod session;

pub use cache::{CacheStats, PoolCache, PoolKey};
pub use catalog::{CatalogStats, GraphCatalog, GraphState};
pub use fanin::{drive_sessions, latency_stats, FaninReport, LatencyStats, SessionOutcome};
pub use protocol::{
    execute, parse_request, CappedLine, CappedLineReader, LabelMap, ParsedRequest, Query, Reply,
    Request, IDLE_TIMEOUT_REPLY, INTERNAL_ERROR_REPLY, MAX_BATCH, MAX_BATCH_BYTES, MAX_LINE_BYTES,
    OVERSIZED_BATCH_REPLY, OVERSIZED_LINE_REPLY, PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig, ServerHandle, ServerState, DEFAULT_GRAPH_NAME};
pub use session::Session;
