//! The multi-threaded TCP server: shared state + worker accept loops.
//!
//! The design is deliberately boring: `N` worker threads share one
//! [`TcpListener`] (kernel-balanced `accept`) and one immutable
//! [`ServerState`] behind an `Arc`. Each connection is served to
//! completion by the worker that accepted it, through its own
//! [`Session`] (current graph, pending batch) — per-connection state
//! lives in the session, everything heavy (graphs, pools) is shared.
//! With [`ServerConfig::idle_timeout`] a worker closes a connection that
//! stays silent that long, so idle clients cannot hold every worker.
//! Query concurrency *within* a pool is the [`SharedEngine`]'s
//! published state, which reads answer from without waiting; pool *diversity* across query mixes is the per-graph
//! [`PoolCache`](crate::cache::PoolCache); graph *diversity* across
//! tenants is the [`GraphCatalog`].
//!
//! [`SharedEngine`]: tim_engine::SharedEngine

use crate::cache::CacheStats;
use crate::catalog::{CatalogStats, GraphCatalog, GraphState};
use crate::protocol::{
    CappedLine, CappedLineReader, LabelMap, IDLE_TIMEOUT_REPLY, OVERSIZED_LINE_REPLY,
};
use crate::session::Session;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use tim_diffusion::DiffusionModel;
use tim_engine::{QueryEngine, SharedEngine};
use tim_graph::Graph;

pub use crate::protocol::MAX_LINE_BYTES;

/// The catalog name a single-graph server registers its graph under.
pub const DEFAULT_GRAPH_NAME: &str = "default";

/// Server tuning knobs; every field has a serving-friendly default.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads, i.e. connections served concurrently (default 4).
    /// Each worker serves one connection until the client closes it;
    /// connections beyond `threads` wait in the accept backlog until a
    /// worker is free.
    pub threads: usize,
    /// Per-graph pool-cache capacity: distinct `(ε, ℓ)` mixes kept warm
    /// per graph (default 4).
    pub pool_cache: usize,
    /// Default approximation slack ε (default 0.1).
    pub epsilon: f64,
    /// Default failure exponent ℓ (default 1).
    pub ell: f64,
    /// Run seed every query replicates (default 0).
    pub seed: u64,
    /// Seed-set size pools are warmed for (default 50).
    pub k_max: usize,
    /// Sampling threads per pool build; 0 means all cores (default 0).
    pub sample_threads: usize,
    /// Log per-query progress notes to stderr (default false).
    pub verbose: bool,
    /// Weight-model spec applied to lazily loaded catalog graphs
    /// (`tim_graph::weights::apply_spec`; default `"wc"`).
    pub weights: String,
    /// Load lazily loaded catalog graphs as undirected (default false).
    pub undirected: bool,
    /// Most *path-backed* graphs kept loaded at once; the
    /// least-recently-used one is evicted beyond this (default 8).
    /// Resident graphs are pinned and do not consume the budget.
    pub max_loaded: usize,
    /// Root of the persistent warm state: each graph keeps its pools in
    /// a [`tim_engine::PoolStore`] under `<pool_dir>/<graph-name>/`.
    /// `None` (the default) keeps all warm state in memory.
    pub pool_dir: Option<std::path::PathBuf>,
    /// Automatic write-back into the pool stores: spill pools on build,
    /// on eviction when grown, and on periodic session sync. Without it
    /// a configured `pool_dir` is read-through only (plus the explicit
    /// `persist` admin verb). Default false.
    pub persist_pools: bool,
    /// Enable the `tim/3` admin stratum (`attach` / `detach` / `persist`
    /// / `stats pools`). Default false: admin verbs parse but answer
    /// `error: …`.
    pub admin: bool,
    /// Close connections with no socket activity for this long
    /// (best-effort [`IDLE_TIMEOUT_REPLY`] first). It is each
    /// connection's read and write timeout, so an idle or stalled client
    /// frees its worker. `None` (the default) keeps idle connections
    /// forever.
    pub idle_timeout: Option<std::time::Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 4,
            pool_cache: 4,
            epsilon: 0.1,
            ell: 1.0,
            seed: 0,
            k_max: 50,
            sample_threads: 0,
            verbose: false,
            weights: "wc".to_string(),
            undirected: false,
            max_loaded: 8,
            pool_dir: None,
            persist_pools: false,
            admin: false,
            idle_timeout: None,
        }
    }
}

/// Everything connections share: the graph catalog plus the name of the
/// graph sessions start on. Per-connection state (current graph, pending
/// batch) lives in each [`Session`].
///
/// The single-graph constructor ([`new`](Self::new)) covers the common
/// deployment and the whole `tim/1` surface;
/// [`from_catalog`](Self::from_catalog) is the multi-tenant form.
#[derive(Debug)]
pub struct ServerState<M> {
    catalog: GraphCatalog<M>,
    default_graph: String,
}

impl<M: DiffusionModel + Send + Clone + 'static> ServerState<M> {
    /// Builds a single-graph state: `graph` is registered resident (never
    /// evicted) under [`DEFAULT_GRAPH_NAME`]. Pools are built lazily on
    /// first use; call [`warm_default`](Self::warm_default) to pay the
    /// default pool's sampling cost at startup instead.
    ///
    /// # Panics
    /// Panics if `labels` does not cover the graph's nodes, or a config
    /// parameter is out of range (non-positive ε/ℓ, zero `k_max`, zero
    /// `threads`, zero `pool_cache`, zero `max_loaded`).
    pub fn new(
        graph: impl Into<Arc<Graph>>,
        labels: LabelMap,
        model: M,
        model_name: impl Into<String>,
        config: ServerConfig,
    ) -> Self {
        assert!(config.threads >= 1, "threads must be at least 1");
        let catalog = GraphCatalog::new(model, model_name, config);
        // add_resident only fails on a graph/label-map mismatch here (the
        // name is fixed and the catalog empty); that must panic now, at
        // construction, never later inside a worker thread.
        let graph: Arc<Graph> = graph.into();
        if let Err(e) = catalog.add_resident(DEFAULT_GRAPH_NAME, graph, labels) {
            panic!("{e}");
        }
        Self::from_catalog(catalog, DEFAULT_GRAPH_NAME).expect("default graph just registered")
    }

    /// Builds a multi-graph state over `catalog`; sessions start on
    /// `default_graph`, which must be registered.
    pub fn from_catalog(
        catalog: GraphCatalog<M>,
        default_graph: impl Into<String>,
    ) -> Result<Self, String> {
        let default_graph = default_graph.into();
        assert!(catalog.config().threads >= 1, "threads must be at least 1");
        if !catalog.contains(&default_graph) {
            return Err(format!(
                "default graph '{default_graph}' is not in the catalog"
            ));
        }
        Ok(ServerState {
            catalog,
            default_graph,
        })
    }

    /// The graph catalog connections route through.
    pub fn catalog(&self) -> &GraphCatalog<M> {
        &self.catalog
    }

    /// The graph sessions start on.
    pub fn default_graph(&self) -> &str {
        &self.default_graph
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        self.catalog.config()
    }

    /// Catalog effectiveness counters (loads, evictions).
    pub fn catalog_stats(&self) -> CatalogStats {
        self.catalog.stats()
    }

    /// Opens a new protocol session (one per connection).
    pub fn session(&self) -> Session<'_, M> {
        Session::new(self)
    }

    /// The state of the default graph, loading it if needed.
    ///
    /// # Panics
    /// Panics if the default graph fails to load (it cannot: resident
    /// graphs are always loadable, and `from_catalog` checked presence —
    /// a path-backed default with a bad file panics here, which
    /// [`warm_default`](Self::warm_default) surfaces at startup).
    pub fn default_state(&self) -> Arc<GraphState<M>> {
        self.catalog
            .get(&self.default_graph)
            .expect("default graph loads")
    }

    /// Pool-cache effectiveness counters of the default graph.
    pub fn cache_stats(&self) -> CacheStats {
        self.default_state().cache_stats()
    }

    /// The engine serving default-configuration queries on the default
    /// graph.
    pub fn default_engine(&self) -> Arc<SharedEngine<M>> {
        self.default_state().default_engine()
    }

    /// Builds (or reuses) the default graph's default pool now, returning
    /// its θ — lets a server pay the sampling cost before accepting
    /// connections.
    pub fn warm_default(&self) -> u64 {
        self.default_state().warm_default()
    }

    /// Pre-seeds the default graph's cache with an engine restored from
    /// persistent state (e.g. a `.timp` pool file), keyed by its own
    /// provenance.
    pub fn preload(&self, engine: QueryEngine<M>) -> Arc<SharedEngine<M>> {
        self.default_state().preload(engine)
    }

    /// Handles one protocol line in a throwaway session — the one-line
    /// convenience used by tests and simple embeddings. `None` for
    /// blank/comment lines (and for a `batch` header, whose answers
    /// belong to the lines that never follow), otherwise the answer line.
    /// Session state (`use`) does not persist across calls; use
    /// [`session`](Self::session) for stateful interactions.
    pub fn handle(&self, line: &str) -> Option<String> {
        let mut session = self.session();
        let mut answers = session.push_line(line);
        answers.extend(session.finish());
        debug_assert!(answers.len() <= 1, "one line answers at most once");
        answers.into_iter().next()
    }
}

/// A bound (but not yet serving) query server.
#[derive(Debug)]
pub struct Server<M> {
    state: Arc<ServerState<M>>,
    listener: Arc<TcpListener>,
    addr: SocketAddr,
}

impl<M: DiffusionModel + Send + Clone + 'static> Server<M> {
    /// Binds to `addr` (use port 0 for an ephemeral port; the bound
    /// address is [`local_addr`](Self::local_addr)).
    pub fn bind(state: Arc<ServerState<M>>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            state,
            listener: Arc::new(listener),
            addr,
        })
    }

    /// The address the server is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Spawns [`ServerConfig::threads`] workers and starts accepting
    /// connections.
    pub fn start(self) -> ServerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let workers = (0..self.state.config().threads)
            .map(|i| {
                let state = Arc::clone(&self.state);
                let listener = Arc::clone(&self.listener);
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("tim-serve-{i}"))
                    .spawn(move || {
                        loop {
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                            let stream = match listener.accept() {
                                Ok((stream, _)) => stream,
                                Err(e) => {
                                    // Persistent accept errors (EMFILE
                                    // under fd exhaustion, …) return
                                    // immediately; back off instead of
                                    // busy-spinning the core.
                                    eprintln!("accept failed: {e}; retrying");
                                    std::thread::sleep(std::time::Duration::from_millis(50));
                                    continue;
                                }
                            };
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                            // A dropped connection is the client's
                            // problem, not the server's; a panicked one
                            // must not take the worker thread with it.
                            // Sessions answer a panic inside one request
                            // themselves, so this catches only what runs
                            // outside a request, such as the pool flush
                            // at session end.
                            let outcome =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    let _ = serve_connection(&state, stream);
                                }));
                            if outcome.is_err() {
                                eprintln!("connection handler panicked; worker continues");
                            }
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        ServerHandle {
            stop,
            addr: self.addr,
            workers,
        }
    }
}

/// Handle to a running server: keeps it alive, stops it on demand.
#[derive(Debug)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until every worker exits (i.e. forever, unless another
    /// thread calls [`stop`](Self::stop) — the serve-forever mode of
    /// `tim serve`).
    pub fn wait(self) {
        for w in self.workers {
            let _ = w.join();
        }
    }

    /// Stops accepting, wakes blocked workers, and joins them. It waits
    /// for each worker's current connection to end, so a client that
    /// never closes holds `stop` until [`ServerConfig::idle_timeout`]
    /// reaps its connection (without one, forever).
    pub fn stop(self) {
        self.stop.store(true, Ordering::Release);
        // One wake-up connection per worker: each blocked accept consumes
        // exactly one, re-checks the flag, and exits.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Writes a group of answer lines with one flush — the transport half of
/// batch amortization (and a syscall saving for every multi-line answer).
fn write_answers(writer: &mut TcpStream, answers: &[String]) -> std::io::Result<()> {
    if answers.is_empty() {
        return Ok(());
    }
    let mut out = String::with_capacity(answers.iter().map(|a| a.len() + 1).sum());
    for a in answers {
        out.push_str(a);
        out.push('\n');
    }
    writer.write_all(out.as_bytes())?;
    writer.flush()
}

/// True for the error a socket read returns when its timeout expires:
/// `WouldBlock` on unix, `TimedOut` elsewhere.
fn timed_out(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Serves one connection: one session, one answer line per request line,
/// until EOF (a pending batch flushes at EOF). With
/// [`ServerConfig::idle_timeout`], a read that waits longer ends the
/// connection: [`IDLE_TIMEOUT_REPLY`] goes out best-effort, and a
/// pending batch is dropped unanswered. A write that waits longer drops
/// the connection.
fn serve_connection<M: DiffusionModel + Send + Clone + 'static>(
    state: &ServerState<M>,
    stream: TcpStream,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    let idle_timeout = state.config().idle_timeout;
    stream.set_read_timeout(idle_timeout)?;
    stream.set_write_timeout(idle_timeout)?;
    let mut reader = CappedLineReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut session = state.session();
    let mut line = String::new();
    loop {
        let read = match reader.read_line(&mut line) {
            Err(e) if timed_out(&e) => {
                let _ = writer.write_all(format!("{IDLE_TIMEOUT_REPLY}\n").as_bytes());
                let _ = writer.shutdown(std::net::Shutdown::Both);
                return Ok(());
            }
            read => read?,
        };
        match read {
            CappedLine::Eof => break,
            CappedLine::Oversized => {
                writer.write_all(OVERSIZED_LINE_REPLY.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                // Half-close, then drain (bounded) so the close is
                // graceful and the client reliably reads the error line.
                let _ = writer.shutdown(std::net::Shutdown::Write);
                reader.drain(64 * MAX_LINE_BYTES);
                return Ok(());
            }
            CappedLine::Line => {
                write_answers(&mut writer, &session.push_line(&line))?;
                if session.closed() {
                    // Same close discipline as an oversized line: the
                    // error answer is out; half-close and drain so the
                    // client reliably reads it.
                    let _ = writer.shutdown(std::net::Shutdown::Write);
                    reader.drain(64 * MAX_LINE_BYTES);
                    return Ok(());
                }
            }
        }
    }
    write_answers(&mut writer, &session.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use tim_diffusion::IndependentCascade;
    use tim_graph::{gen, weights};

    fn state(pool_cache: usize) -> ServerState<IndependentCascade> {
        let mut g = gen::barabasi_albert(150, 3, 0.0, 1);
        weights::assign_weighted_cascade(&mut g);
        let n = g.n();
        ServerState::new(
            g,
            LabelMap::identity(n),
            IndependentCascade,
            "ic",
            ServerConfig {
                threads: 2,
                pool_cache,
                epsilon: 1.0,
                ell: 1.0,
                seed: 3,
                k_max: 4,
                sample_threads: 1,
                ..ServerConfig::default()
            },
        )
    }

    #[test]
    fn handle_routes_overrides_to_their_own_pool() {
        let s = state(4);
        assert_eq!(s.default_state().cached_pools(), 0);
        assert!(s.handle("select 2").unwrap().starts_with("seeds: "));
        assert_eq!(s.default_state().cached_pools(), 1, "default pool built");
        assert!(s.handle("select 2 eps=0.9").unwrap().starts_with("seeds: "));
        assert_eq!(s.default_state().cached_pools(), 2, "override pool built");
        // Same override again: reuse, not rebuild.
        s.handle("select 2 eps=0.9").unwrap();
        assert_eq!(s.default_state().cached_pools(), 2);
        // eval/marginal/fast go to the default pool.
        assert!(s.handle("eval 0,1").unwrap().starts_with("spread: "));
        assert!(s.handle("marginal 0 1").unwrap().starts_with("marginal: "));
        assert!(s.handle("select 2 fast").unwrap().starts_with("seeds: "));
        assert_eq!(s.default_state().cached_pools(), 2);
    }

    #[test]
    fn handle_answers_ping_without_building_a_pool() {
        let s = state(1);
        assert_eq!(s.handle("ping").unwrap(), "pong tim/3");
        assert_eq!(s.default_state().cached_pools(), 0);
        assert_eq!(s.handle("# comment"), None);
        assert_eq!(s.handle(""), None);
        assert!(s.handle("nonsense").unwrap().starts_with("error: "));
        assert_eq!(s.default_state().cached_pools(), 0);
    }

    #[test]
    fn handle_answers_session_verbs_on_the_default_graph() {
        let s = state(1);
        assert_eq!(s.handle("graphs").unwrap(), "graphs: default");
        assert_eq!(s.handle("use default").unwrap(), "using default");
        assert!(s
            .handle("use nope")
            .unwrap()
            .starts_with("error: use: unknown graph"));
        assert!(s
            .handle("stats")
            .unwrap()
            .starts_with("stats: graph=default n=150 "));
    }

    #[test]
    fn explicit_defaults_share_the_default_pool() {
        let s = state(2);
        s.handle("select 2").unwrap();
        // eps equal to the default maps to the same provenance key.
        s.handle("select 2 eps=1.0").unwrap();
        assert_eq!(s.default_state().cached_pools(), 1);
        assert_eq!(s.cache_stats().misses, 1);
    }

    #[test]
    #[should_panic(expected = "label map covers")]
    fn mismatched_label_map_panics_at_construction() {
        let mut g = gen::barabasi_albert(150, 3, 0.0, 1);
        weights::assign_weighted_cascade(&mut g);
        let _ = ServerState::new(
            g,
            LabelMap::identity(10),
            IndependentCascade,
            "ic",
            ServerConfig::default(),
        );
    }

    #[test]
    fn server_start_and_stop_shut_down_cleanly() {
        let s = Arc::new(state(2));
        let server = Server::bind(Arc::clone(&s), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = server.start();
        // A quick live round trip before shutdown.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"ping\n").unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut buf = String::new();
        BufReader::new(&mut conn).read_line(&mut buf).unwrap();
        assert_eq!(buf.trim_end(), "pong tim/3");
        handle.stop();
    }
}
