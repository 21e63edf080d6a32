//! Per-connection protocol sessions: the `tim/3` state machine.
//!
//! `tim/1` was stateless per line; `tim/2` gives every connection a
//! [`Session`] holding the *current graph* (switched with `use`), a
//! cached handle to that graph's default engine (so steady-state queries
//! skip the pool-cache mutex entirely), and an optional pending `batch`.
//! `tim/3` adds the **admin stratum** (`attach` / `detach` / `persist` /
//! `stats pools`), executed here too but gated by the server's `--admin`
//! switch — without it every admin verb answers `error: …`. One
//! `Session` drives one `tim serve` TCP connection and one `tim query`
//! stdin session — the same code path, which is what keeps the two front
//! ends byte-identical by construction.
//!
//! A panic while answering one request (a plan, a growth, the fast cover
//! or a warm-up the request ran) is contained to that request: it
//! answers [`INTERNAL_ERROR_REPLY`], counts as a recovery on the
//! session's current graph, and the session goes on. The engine it
//! panicked in keeps serving its previous state.
//!
//! Sessions also participate in warm-state persistence: when automatic
//! write-back is on (`--persist-pools`), the periodic catalog re-touch
//! doubles as a pool sync (grown pools flow back to the graph's
//! [`PoolStore`](tim_engine::PoolStore)), and session end flushes the
//! current graph once more.
//!
//! # Batching
//!
//! `batch <n>` announces that the next `n` lines form one unit. The
//! session buffers them, then answers them in order through the same
//! path as unbatched lines and returns all answer lines at once — the
//! transport writes them with a single flush. So answers are
//! byte-identical to sending the same lines unbatched; only the IO is
//! amortized (enforced by the `multi_graph` integration test).

use crate::catalog::GraphState;
use crate::protocol::{
    execute, parse_request, ping_reply, ParsedRequest, Query, Reply, Request, INTERNAL_ERROR_REPLY,
    MAX_BATCH_BYTES, OVERSIZED_BATCH_REPLY,
};
use crate::server::ServerState;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use tim_diffusion::DiffusionModel;
use tim_engine::SharedEngine;

/// A pending `batch <n>`: lines collected so far, with their byte total
/// (bounded by [`MAX_BATCH_BYTES`]).
#[derive(Debug)]
struct BatchCollect {
    expect: usize,
    lines: Vec<String>,
    bytes: usize,
}

/// Cached queries between catalog-LRU re-touches: a session that answers
/// thousands of lines from its cached graph handle still periodically
/// tells the catalog the graph is hot, so a busy tenant is not evicted
/// as "idle" just because its sessions are long-lived.
const TOUCH_EVERY: u32 = 64;

/// One protocol session: current graph, cached default engine, pending
/// batch. Create one per connection ([`ServerState::session`]) and feed
/// it request lines; every returned `Vec` holds the answer lines ready
/// to write (often one, empty for comments, a whole batch at once).
#[derive(Debug)]
pub struct Session<'s, M> {
    state: &'s ServerState<M>,
    current_name: String,
    current: Option<Arc<GraphState<M>>>,
    default_engine: Option<Arc<SharedEngine<M>>>,
    batch: Option<BatchCollect>,
    since_touch: u32,
    closed: bool,
}

impl<'s, M: DiffusionModel + Send + Clone + 'static> Session<'s, M> {
    /// Opens a session on the server's default graph.
    pub fn new(state: &'s ServerState<M>) -> Self {
        Session {
            state,
            current_name: state.default_graph().to_string(),
            current: None,
            default_engine: None,
            batch: None,
            since_touch: 0,
            closed: false,
        }
    }

    /// The name of the session's current graph.
    pub fn current_graph(&self) -> &str {
        &self.current_name
    }

    /// True after a protocol violation (a batch over [`MAX_BATCH_BYTES`])
    /// whose error line has been emitted: the transport must stop reading
    /// and close, exactly as for an oversized request line.
    pub fn closed(&self) -> bool {
        self.closed
    }

    /// Feeds one request line; returns the answer lines that are ready.
    ///
    /// Blank/comment lines and lines buffered into a pending batch return
    /// an empty `Vec`; a completed batch returns all of its answers at
    /// once. Callers must write the returned lines in order.
    pub fn push_line(&mut self, line: &str) -> Vec<String> {
        if self.closed {
            return Vec::new();
        }
        if let Some(batch) = &mut self.batch {
            batch.bytes += line.len();
            if batch.bytes > MAX_BATCH_BYTES {
                // A buffer-bomb batch is a framing violation like an
                // oversized line: answer once and end the session rather
                // than buffer without bound.
                self.batch = None;
                self.closed = true;
                return vec![OVERSIZED_BATCH_REPLY.to_string()];
            }
            batch.lines.push(line.to_string());
            if batch.lines.len() == batch.expect {
                let batch = self.batch.take().expect("batch just checked");
                return self.run_batch(&batch.lines);
            }
            return Vec::new();
        }
        match parse_request(line) {
            ParsedRequest::Request(Request::Batch(n)) => {
                self.batch = Some(BatchCollect {
                    expect: n,
                    lines: Vec::with_capacity(n.min(1024)),
                    bytes: 0,
                });
                Vec::new()
            }
            parsed => self.reply(parsed).into_iter().collect(),
        }
    }

    /// The answer line to one parsed line outside a pending batch, if it
    /// has one. A `batch` here is one nested inside another.
    fn reply(&mut self, parsed: ParsedRequest) -> Option<String> {
        match parsed {
            ParsedRequest::Empty => None,
            ParsedRequest::Malformed(e) => Some(format!("error: {e}")),
            ParsedRequest::Request(req) => Some(self.contained(&req)),
        }
    }

    /// [`answer`](Self::answer), with a panic contained to this request's
    /// line. The session's fields stay consistent across one: its cached
    /// handles are `Arc`s, replaced only whole.
    fn contained(&mut self, req: &Request) -> String {
        catch_unwind(AssertUnwindSafe(|| self.answer(req))).unwrap_or_else(|_| {
            if let Some(graph) = &self.current {
                graph.note_recovery();
            }
            INTERNAL_ERROR_REPLY.to_string()
        })
    }

    /// Answers a completed batch's lines in order, each as if it had
    /// arrived unbatched.
    fn run_batch(&mut self, lines: &[String]) -> Vec<String> {
        lines
            .iter()
            .filter_map(|line| self.reply(parse_request(line)))
            .collect()
    }

    /// Ends the session: a batch still pending at EOF executes with the
    /// lines received so far (so a truncated batch answers exactly like
    /// the same lines sent unbatched). With automatic write-back on, the
    /// current graph's grown pools are flushed to its store. Returns the
    /// final answer lines.
    pub fn finish(&mut self) -> Vec<String> {
        let answers = match self.batch.take() {
            Some(batch) => self.run_batch(&batch.lines),
            None => Vec::new(),
        };
        if self.state.config().persist_pools {
            if let Some(graph) = &self.current {
                graph.sync_pools();
            }
        }
        answers
    }

    /// Answers one non-batch request.
    fn answer(&mut self, req: &Request) -> String {
        match req {
            // Liveness must not load graphs or build pools.
            Request::Query(Query::Ping) => ping_reply(),
            Request::Query(query) => match self.route(query) {
                Ok((graph, engine)) => self.reply_line(execute(&engine, graph.labels(), query)),
                Err(e) => format!("error: {e}"),
            },
            Request::Use(name) => {
                if self.state.catalog().contains(name) {
                    // Always drop the cached handles — even for the
                    // current name. `use` is the re-resolution point: a
                    // graph detached and re-attached under the same name
                    // must be picked up here, not answered forever from
                    // the drained old state.
                    self.release_current();
                    self.current_name = name.clone();
                    format!("using {name}")
                } else {
                    format!("error: use: unknown graph '{name}'")
                }
            }
            Request::Graphs => format!("graphs: {}", self.state.catalog().names().join(" ")),
            Request::Stats => match self.graph_state() {
                Ok(graph) => graph.stats_line(),
                Err(e) => format!("error: {e}"),
            },
            Request::Batch(_) => "error: batch: batches cannot nest".to_string(),
            Request::StatsPools => match self.admin("stats pools") {
                Err(e) => e,
                Ok(()) => match self.graph_state() {
                    Ok(graph) => graph.pools_line(),
                    Err(e) => format!("error: {e}"),
                },
            },
            Request::Attach {
                name,
                path,
                overrides,
            } => {
                match self.admin("attach") {
                    Err(e) => e,
                    Ok(()) => match self.state.catalog().attach_path(
                        name.clone(),
                        path,
                        overrides.clone(),
                    ) {
                        Ok(()) => format!("attached {name}"),
                        Err(e) => format!("error: attach: {e}"),
                    },
                }
            }
            Request::Detach(name) => match self.admin("detach") {
                Err(e) => e,
                Ok(()) => {
                    if name == self.state.default_graph() {
                        format!("error: detach: cannot detach the default graph '{name}'")
                    } else {
                        match self.state.catalog().detach(name) {
                            Ok(()) => format!("detached {name}"),
                            Err(e) => format!("error: detach: {e}"),
                        }
                    }
                }
            },
            Request::Persist => match self.admin("persist") {
                Err(e) => e,
                Ok(()) => {
                    if self.state.config().pool_dir.is_none() {
                        "error: persist: no --pool-dir configured".to_string()
                    } else {
                        let written: usize = self
                            .state
                            .catalog()
                            .loaded_states()
                            .iter()
                            .map(|s| s.sync_pools())
                            .sum();
                        format!("persisted {written} pool(s)")
                    }
                }
            },
        }
    }

    /// Drops the session's cached graph handles, flushing the outgoing
    /// graph's grown pools first (when write-back is on) — a session
    /// switching away must not strand dirty warm state behind a handle
    /// nobody syncs anymore.
    fn release_current(&mut self) {
        if let Some(graph) = self.current.take() {
            if self.state.config().persist_pools {
                graph.sync_pools();
            }
        }
        self.default_engine = None;
        self.since_touch = 0;
    }

    /// Gatekeeper for the `tim/3` admin stratum: `Err` carries the
    /// ready-made error line when the server runs without `--admin`.
    fn admin(&self, verb: &str) -> Result<(), String> {
        if self.state.config().admin {
            Ok(())
        } else {
            Err(format!(
                "error: {verb}: admin commands disabled (start with --admin)"
            ))
        }
    }

    /// The session's current graph state, loading it on first touch. The
    /// cached handle skips the catalog lock on the hot path; every
    /// [`TOUCH_EVERY`] uses the catalog's LRU is re-bumped so a busy
    /// graph behind long-lived sessions is never the eviction victim.
    fn graph_state(&mut self) -> Result<Arc<GraphState<M>>, String> {
        if let Some(graph) = &self.current {
            self.since_touch += 1;
            if self.since_touch >= TOUCH_EVERY {
                self.since_touch = 0;
                self.state.catalog().touch(&self.current_name);
                // The same cadence doubles as the growth hook's flush:
                // pools that resampled since their last spill flow back
                // to the store without waiting for session end.
                if self.state.config().persist_pools {
                    graph.sync_pools();
                }
            }
            return Ok(Arc::clone(graph));
        }
        let graph = self.state.catalog().get(&self.current_name)?;
        self.current = Some(Arc::clone(&graph));
        Ok(graph)
    }

    /// Routes a query to its engine: exact-replay selects with ε/ℓ
    /// overrides get their own provenance pool; everything else answers
    /// from the current graph's default pool, whose handle the session
    /// caches (skipping the pool-cache lock on every later line).
    #[allow(clippy::type_complexity)] // the pair is the routing result
    fn route(
        &mut self,
        query: &Query,
    ) -> Result<(Arc<GraphState<M>>, Arc<SharedEngine<M>>), String> {
        let graph = self.graph_state()?;
        let engine = match query {
            Query::Select {
                fast: false,
                eps,
                ell,
                ..
            } if eps.is_some() || ell.is_some() => graph.engine_for(*eps, *ell),
            _ => {
                if self.default_engine.is_none() {
                    self.default_engine = Some(graph.default_engine());
                }
                Arc::clone(self.default_engine.as_ref().expect("engine just cached"))
            }
        };
        Ok((graph, engine))
    }

    fn reply_line(&self, reply: Reply) -> String {
        if self.state.catalog().config().verbose {
            if let Some(note) = &reply.note {
                eprintln!("{note}");
            }
        }
        reply.line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use crate::{GraphCatalog, LabelMap};
    use tim_diffusion::IndependentCascade;
    use tim_graph::{gen, weights};

    fn two_graph_state() -> ServerState<IndependentCascade> {
        let config = ServerConfig {
            epsilon: 1.0,
            seed: 3,
            k_max: 4,
            sample_threads: 1,
            ..ServerConfig::default()
        };
        let catalog = GraphCatalog::new(IndependentCascade, "ic", config);
        for (name, seed) in [("alpha", 1u64), ("beta", 2u64)] {
            let mut g = gen::barabasi_albert(120, 3, 0.0, seed);
            weights::assign_weighted_cascade(&mut g);
            let n = g.n();
            catalog
                .add_resident(name, g, LabelMap::identity(n))
                .unwrap();
        }
        ServerState::from_catalog(catalog, "alpha").unwrap()
    }

    fn one<M: DiffusionModel + Send + Clone + 'static>(
        session: &mut Session<'_, M>,
        line: &str,
    ) -> String {
        let mut got = session.push_line(line);
        assert_eq!(got.len(), 1, "{line:?} answered {got:?}");
        got.remove(0)
    }

    #[test]
    fn session_verbs_switch_list_and_report() {
        let state = two_graph_state();
        let mut s = state.session();
        assert_eq!(s.current_graph(), "alpha");
        assert_eq!(one(&mut s, "graphs"), "graphs: alpha beta");
        assert_eq!(one(&mut s, "ping"), "pong tim/3");
        assert!(one(&mut s, "stats").starts_with("stats: graph=alpha n=120 m="));
        assert_eq!(one(&mut s, "use beta"), "using beta");
        assert_eq!(s.current_graph(), "beta");
        assert!(one(&mut s, "stats").starts_with("stats: graph=beta "));
        assert_eq!(
            one(&mut s, "use gamma"),
            "error: use: unknown graph 'gamma'"
        );
        assert_eq!(s.current_graph(), "beta", "failed use keeps the graph");
        assert!(s.push_line("# comment").is_empty());
        assert!(s.finish().is_empty());
    }

    #[test]
    fn queries_route_to_the_current_graph() {
        let state = two_graph_state();
        let mut s = state.session();
        let on_alpha = one(&mut s, "select 2");
        one(&mut s, "use beta");
        let on_beta = one(&mut s, "select 2");
        assert_ne!(on_alpha, on_beta, "different graphs, different seeds");
        // Fresh sessions replay the same answers (provenance-determined).
        let mut s2 = state.session();
        assert_eq!(one(&mut s2, "select 2"), on_alpha);
        one(&mut s2, "use beta");
        assert_eq!(one(&mut s2, "select 2"), on_beta);
    }

    #[test]
    fn batch_answers_match_unbatched_lines() {
        let state = two_graph_state();
        let lines = [
            "select 2",
            "eval 0,1",
            "# comment inside batch",
            "use beta",
            "select 2",
            "marginal 0 1",
            "bogus",
            "ping",
        ];
        let mut unbatched = state.session();
        let mut want: Vec<String> = Vec::new();
        for l in &lines {
            want.extend(unbatched.push_line(l));
        }
        want.extend(unbatched.finish());

        let mut batched = state.session();
        assert!(batched
            .push_line(&format!("batch {}", lines.len()))
            .is_empty());
        let mut got: Vec<String> = Vec::new();
        for l in &lines {
            got.extend(batched.push_line(l));
        }
        got.extend(batched.finish());
        assert_eq!(got, want);
        assert_eq!(got.len(), 7, "comment answers nothing");
    }

    #[test]
    fn partial_batch_flushes_at_eof_and_nesting_is_rejected() {
        let state = two_graph_state();
        let mut s = state.session();
        assert!(s.push_line("batch 5").is_empty());
        assert!(s.push_line("ping").is_empty());
        assert!(s.push_line("batch 2").is_empty(), "buffered, not started");
        let got = s.finish();
        assert_eq!(
            got,
            vec![
                "pong tim/3".to_string(),
                "error: batch: batches cannot nest".to_string()
            ]
        );
        // The session survives and keeps answering.
        assert_eq!(one(&mut s, "ping"), "pong tim/3");
    }

    #[test]
    fn batch_over_the_byte_budget_errors_and_closes_the_session() {
        let state = two_graph_state();
        let mut s = state.session();
        assert!(!s.closed());
        assert!(s.push_line("batch 4096").is_empty());
        // ~1 MiB comment lines: the 9th crosses the 8 MiB buffer cap.
        let big = format!("# {}", "x".repeat((1 << 20) - 2));
        let mut answers = Vec::new();
        for _ in 0..9 {
            answers.extend(s.push_line(&big));
        }
        assert_eq!(answers, vec![OVERSIZED_BATCH_REPLY.to_string()]);
        assert!(s.closed(), "buffer-bomb batches end the session");
        assert!(s.push_line("ping").is_empty(), "closed sessions are mute");
        assert!(s.finish().is_empty());
    }

    #[test]
    fn admin_verbs_are_gated_and_mutate_the_catalog() {
        let dir = std::env::temp_dir().join(format!("tim_session_admin_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("extra.txt");
        let g = gen::barabasi_albert(80, 3, 0.0, 5);
        tim_graph::io::save_edge_list(&g, &path).unwrap();
        let spec = format!("extra={}", path.display());

        // Default state: every admin verb answers a gating error.
        let state = two_graph_state();
        let mut s = state.session();
        for verb in [
            format!("attach {spec}"),
            "detach beta".to_string(),
            "persist".to_string(),
            "stats pools".to_string(),
        ] {
            let got = one(&mut s, &verb);
            assert!(got.contains("admin commands disabled"), "{verb}: got {got}");
        }

        // Admin-enabled state: attach/detach work, defaults are protected.
        let config = ServerConfig {
            epsilon: 1.0,
            seed: 3,
            k_max: 4,
            sample_threads: 1,
            admin: true,
            ..ServerConfig::default()
        };
        let catalog = GraphCatalog::new(IndependentCascade, "ic", config);
        let mut g0 = gen::barabasi_albert(120, 3, 0.0, 1);
        weights::assign_weighted_cascade(&mut g0);
        let n = g0.n();
        catalog
            .add_resident("alpha", g0, LabelMap::identity(n))
            .unwrap();
        let state = ServerState::from_catalog(catalog, "alpha").unwrap();
        let mut s = state.session();
        assert_eq!(
            one(&mut s, &format!("attach {spec}::eps=1.0")),
            "attached extra"
        );
        assert_eq!(one(&mut s, "graphs"), "graphs: alpha extra");
        assert_eq!(one(&mut s, "use extra"), "using extra");
        assert!(one(&mut s, "select 2").starts_with("seeds: "));
        let pools = one(&mut s, "stats pools");
        assert!(
            pools.starts_with("pools: graph=extra cached=1 "),
            "got {pools}"
        );
        assert!(pools.contains("builds=1"), "got {pools}");
        // The pool sizes follow: Σ θ and Σ bytes over the cached pools,
        // here extra's one warm pool. The recoveries close the line.
        let engine = state.catalog().get("extra").unwrap().default_engine();
        assert!(engine.pool_theta() > 0 && engine.pool_bytes() > 0);
        let sizes = format!(
            " heap_loads=0 theta={} pool_bytes={} recoveries=0",
            engine.pool_theta(),
            engine.pool_bytes()
        );
        assert!(
            pools.ends_with(&sizes),
            "got {pools}, want it to end in {sizes}"
        );
        // persist without a pool dir is an explicit error.
        assert_eq!(
            one(&mut s, "persist"),
            "error: persist: no --pool-dir configured"
        );
        assert_eq!(
            one(&mut s, "detach alpha"),
            "error: detach: cannot detach the default graph 'alpha'"
        );
        assert_eq!(one(&mut s, "detach extra"), "detached extra");
        // The drained session keeps answering from its held state…
        assert!(one(&mut s, "select 2").starts_with("seeds: "));
        // …while fresh sessions can no longer reach the name.
        let mut s2 = state.session();
        assert_eq!(
            one(&mut s2, "use extra"),
            "error: use: unknown graph 'extra'"
        );

        // Re-attach a *different* graph under the same name: `use` is the
        // re-resolution point, so even the session still sitting on the
        // drained old graph must pick up the replacement.
        let path2 = dir.join("extra2.txt");
        let g2 = gen::barabasi_albert(60, 3, 0.0, 6);
        tim_graph::io::save_edge_list(&g2, &path2).unwrap();
        assert_eq!(
            one(&mut s, &format!("attach extra={}", path2.display())),
            "attached extra"
        );
        assert_eq!(one(&mut s, "use extra"), "using extra");
        assert!(
            one(&mut s, "stats").starts_with("stats: graph=extra n=60 "),
            "same-name use must re-resolve to the re-attached graph"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_panic_answers_its_own_line_and_the_session_goes_on() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use tim_diffusion::CustomTriggering;
        let fail = Arc::new(AtomicBool::new(false));
        let model = {
            let fail = Arc::clone(&fail);
            CustomTriggering::new("faulty-ic", move |g, v, rng, out| {
                assert!(!fail.load(Ordering::Acquire), "sampling failed");
                IndependentCascade.sample_triggering_set(g, v, rng, out);
            })
        };
        let config = ServerConfig {
            epsilon: 1.0,
            seed: 3,
            k_max: 4,
            sample_threads: 1,
            admin: true,
            ..ServerConfig::default()
        };
        let catalog = GraphCatalog::new(model, "ic", config);
        let mut g = gen::barabasi_albert(120, 3, 0.0, 1);
        weights::assign_weighted_cascade(&mut g);
        let n = g.n();
        catalog
            .add_resident("alpha", g, LabelMap::identity(n))
            .unwrap();
        let state = ServerState::from_catalog(catalog, "alpha").unwrap();
        let mut s = state.session();
        // Step one answers select k_max; everything else waits on step two.
        let four = one(&mut s, "select 4");
        assert!(four.starts_with("seeds: "), "{four}");

        fail.store(true, Ordering::Release);
        // The warm-up's second step, run by the first miss, panics; so
        // does the plan for an override pool. Each answers its own line.
        for line in ["select 2", "eval 0,1", "select 2 eps=0.9"] {
            assert_eq!(one(&mut s, line), INTERNAL_ERROR_REPLY, "{line}");
        }
        // The engine keeps serving the state it holds.
        assert_eq!(one(&mut s, "select 4"), four);
        assert!(!s.closed());

        fail.store(false, Ordering::Release);
        assert!(one(&mut s, "select 2").starts_with("seeds: "));
        assert!(one(&mut s, "select 2 eps=0.9").starts_with("seeds: "));
        let pools = one(&mut s, "stats pools");
        assert!(pools.ends_with(" recoveries=3"), "{pools}");
    }

    #[test]
    fn batch_grouping_amortizes_without_changing_answers() {
        let state = two_graph_state();
        // Mixed engines: defaults and an eps override, interleaved so the
        // grouping logic sees several runs.
        let lines = [
            "select 2",
            "select 3",
            "select 2 eps=0.9",
            "select 2",
            "eval 0,1,2",
        ];
        let mut plain = state.session();
        let mut want: Vec<String> = Vec::new();
        for l in &lines {
            want.extend(plain.push_line(l));
        }
        let mut batched = state.session();
        batched.push_line("batch 5");
        let mut got: Vec<String> = Vec::new();
        for l in &lines {
            got.extend(batched.push_line(l));
        }
        assert_eq!(got, want);
    }
}
