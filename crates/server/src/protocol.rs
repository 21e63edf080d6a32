//! The line-delimited influence-query protocol (`tim/3`) shared by
//! `tim query` and `tim serve`.
//!
//! One request per line, one answer line per request; blank lines and `#`
//! comments are ignored (no answer). Malformed requests answer
//! `error: …` and the session continues. The normative grammar, framing,
//! and versioning rules live in `docs/PROTOCOL.md`; this module is the
//! single implementation both front ends use, so they cannot drift apart.
//!
//! [`parse_request`] parses every line, in one pass, into a [`Request`]
//! of one of three strata:
//!
//! - **Engine-scoped queries** ([`Query`], executed by [`execute`]
//!   against a [`SharedEngine`]) — `select` / `eval` / `marginal` /
//!   `ping`, unchanged from `tim/1`.
//! - **Session-scoped requests** — the `tim/2` additions `use` /
//!   `graphs` / `stats` / `batch`, which manipulate per-connection state
//!   (current graph, pending batch) and are executed by
//!   [`Session`](crate::session::Session), not by an engine.
//! - **Admin requests** (new in `tim/3`) — `attach` / `detach` /
//!   `persist` / `stats pools`, which mutate the server's graph catalog
//!   or its persistent warm state. They always *parse*; whether they
//!   *execute* is gated by the server's `--admin` switch (default off:
//!   they answer `error: …`).
//!
//! Parsing is deliberately separate from execution: a concurrent server
//! must inspect a query's ε/ℓ overrides to route it to the right pool
//! *before* running it, and must see a `use` before deciding which graph
//! that pool belongs to.
//!
//! This module also owns the wire framing shared by TCP connections and
//! the `tim query` stdin path: [`CappedLineReader`] enforces the
//! [`MAX_LINE_BYTES`] request-line cap identically on both transports.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use tim_diffusion::DiffusionModel;
use tim_engine::SharedEngine;
use tim_graph::catalog::check_accuracy;
use tim_graph::NodeId;

/// Protocol version implemented by this module (see `docs/PROTOCOL.md`).
/// Reported by the `ping` reply as `pong tim/3`.
pub const PROTOCOL_VERSION: u32 = 3;

/// Largest accepted `batch <n>`: bounds the lines a session buffers.
pub const MAX_BATCH: usize = 4096;

/// Most bytes one batch may buffer across its collected lines. `MAX_BATCH`
/// bounds the line *count*; without a byte bound, 4096 lines of 1 MiB
/// each would let a single connection pin ~4 GiB. Exceeding this answers
/// `error: …` and ends the session (like an oversized line).
pub const MAX_BATCH_BYTES: usize = 8 << 20;

/// The answer line sent when a batch buffers more than [`MAX_BATCH_BYTES`].
pub const OVERSIZED_BATCH_REPLY: &str = "error: batch exceeds the 8 MiB buffer limit";

/// Longest accepted request line (bytes, excluding the newline). Longer
/// lines answer [`OVERSIZED_LINE_REPLY`] and end the session
/// (`docs/PROTOCOL.md` §Framing).
pub const MAX_LINE_BYTES: u64 = 1 << 20;

/// The answer line sent for a request line over [`MAX_LINE_BYTES`].
pub const OVERSIZED_LINE_REPLY: &str = "error: request line exceeds the 1 MiB limit";

/// The answer line sent (best-effort) before a connection idle for
/// longer than `--idle-timeout` is closed, by either serving core.
pub const IDLE_TIMEOUT_REPLY: &str = "error: idle timeout, closing connection";

/// The answer line sent for a request whose answer panicked (a plan, a
/// growth, the fast cover or a warm-up that the request ran). The
/// session goes on, and the graph's `stats pools` line counts it under
/// `recoveries=`.
pub const INTERNAL_ERROR_REPLY: &str = "error: internal error";

/// Parses a comma-separated list of node labels (`17,4,99`). Empty items
/// are skipped, so trailing commas are harmless.
pub fn parse_id_list(s: &str) -> Result<Vec<u64>, String> {
    s.split(',')
        .filter(|t| !t.is_empty())
        .map(|t| {
            t.trim()
                .parse::<u64>()
                .map_err(|_| format!("bad node id '{t}'"))
        })
        .collect()
}

/// Bidirectional node-label map: dense ids `0..n` ↔ original labels.
///
/// Queries and answers speak original labels; engines speak dense ids.
/// Built once per graph and shared read-only across connections.
#[derive(Debug, Clone)]
pub struct LabelMap {
    labels: Vec<u64>,
    to_dense: HashMap<u64, NodeId>,
}

impl LabelMap {
    /// Builds the map from `labels[i]` = original label of dense node `i`
    /// (the `labels` vector of `tim_graph::io::LoadedGraph`).
    pub fn new(labels: Vec<u64>) -> Self {
        let to_dense = labels
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, i as NodeId))
            .collect();
        LabelMap { labels, to_dense }
    }

    /// The identity map over `0..n`, for graphs that never had external
    /// labels (e.g. synthetic generators).
    pub fn identity(n: usize) -> Self {
        Self::new((0..n as u64).collect())
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Original label of dense node `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn label_of(&self, v: NodeId) -> u64 {
        self.labels[v as usize]
    }

    /// Dense id of an original label.
    pub fn to_dense(&self, label: u64) -> Result<NodeId, String> {
        self.to_dense
            .get(&label)
            .copied()
            .ok_or_else(|| format!("label {label} not present in the graph"))
    }

    /// Maps a list of original labels to dense ids.
    pub fn map_all(&self, labels: &[u64]) -> Result<Vec<NodeId>, String> {
        labels.iter().map(|&l| self.to_dense(l)).collect()
    }
}

/// An engine-scoped query, answered by [`execute`].
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `select <k> [fast] [eps=<v>] [ell=<v>]` — seed selection.
    Select {
        /// Seed-set size.
        k: usize,
        /// Prefix answering over the full pool instead of exact replay.
        fast: bool,
        /// Per-query ε override (exact replay only).
        eps: Option<f64>,
        /// Per-query ℓ override (exact replay only).
        ell: Option<f64>,
    },
    /// `eval <id,id,...>` — pool-coverage spread estimate (original
    /// labels).
    Eval {
        /// Seed labels to evaluate.
        seeds: Vec<u64>,
    },
    /// `marginal <id,id,...> <cand>` — marginal gain of adding `cand`
    /// (original labels; the candidate list must map to exactly one id).
    Marginal {
        /// Base seed labels.
        base: Vec<u64>,
        /// Candidate label list (validated to a single id at execution).
        cand: Vec<u64>,
    },
    /// `ping` — liveness/version probe; answers `pong tim/3`.
    Ping,
}

/// A parsed request: an engine-scoped [`Query`] or one of the session
/// or admin verbs, which [`Session`](crate::session::Session) executes.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// An engine-scoped query (the `tim/1` subset plus `ping`).
    Query(Query),
    /// `use <graph>` — switch the session to the named catalog graph.
    Use(
        /// The requested graph name (validated shape, unvalidated existence).
        String,
    ),
    /// `graphs` — list the catalog's graph names.
    Graphs,
    /// `stats` — static facts about the session's current graph.
    Stats,
    /// `batch <n>` — answer the next `n` lines as one unit.
    Batch(
        /// Number of request lines in the batch (1 ..= [`MAX_BATCH`]).
        usize,
    ),
    /// `stats pools` — the current graph's pool-cache counters
    /// (hit/miss/build/load/spill/evict). Admin-gated; the only `stats`
    /// form whose answer is *not* interleaving-deterministic.
    StatsPools,
    /// `attach <name>=<path>[::k=v,…] [k=v …]` — register a new graph in
    /// the live catalog, with optional per-graph overrides. Admin-gated.
    Attach {
        /// The new graph's catalog name (shape-validated).
        name: String,
        /// Path the graph loads from (lazily, on first query).
        path: String,
        /// Per-graph overrides (model / ε / ℓ / seed / k / weights).
        overrides: tim_graph::catalog::GraphOverrides,
    },
    /// `detach <name>` — remove a graph from the live catalog with a
    /// graceful drain (in-flight sessions finish, new `use` rejected).
    /// Admin-gated.
    Detach(
        /// The graph to detach (shape-validated, existence checked at
        /// execution).
        String,
    ),
    /// `persist` — spill every loaded graph's dirty pools into its pool
    /// store now. Admin-gated; requires a configured `--pool-dir`.
    Persist,
}

/// Result of parsing one input line.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedRequest {
    /// Blank line or `#` comment: produces no answer line.
    Empty,
    /// A well-formed request.
    Request(Request),
    /// A malformed request; answer `error: <reason>` and continue.
    Malformed(String),
}

/// Parses one protocol line at the full `tim/3` grammar: engine queries,
/// session verbs and admin verbs, each matched on its first token. Never
/// fails hard — malformed input becomes [`ParsedRequest::Malformed`].
pub fn parse_request(line: &str) -> ParsedRequest {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return ParsedRequest::Empty;
    }
    let mut tokens = trimmed.split_whitespace();
    let Some(verb) = tokens.next() else {
        return ParsedRequest::Empty;
    };
    let parsed: Result<Request, String> = match verb {
        "select" => (|| {
            let k: usize = tokens
                .next()
                .ok_or("select: missing k")?
                .parse()
                .map_err(|_| "select: bad k".to_string())?;
            if k == 0 {
                return Err("select: k must be positive".into());
            }
            let mut fast = false;
            let (mut eps, mut ell) = (None, None);
            for t in tokens.by_ref() {
                if t == "fast" {
                    fast = true;
                } else if let Some(v) = t.strip_prefix("eps=") {
                    eps = Some(v.parse().map_err(|_| format!("select: bad eps '{v}'"))?);
                } else if let Some(v) = t.strip_prefix("ell=") {
                    ell = Some(v.parse().map_err(|_| format!("select: bad ell '{v}'"))?);
                } else {
                    return Err(format!("select: unknown option '{t}'"));
                }
            }
            if fast && (eps.is_some() || ell.is_some()) {
                return Err("select: fast mode uses the pool's eps/ell".into());
            }
            // NaN and infinity must be rejected alongside non-positive
            // values: the engine asserts eps > 0, and planning panics on
            // an infinite ℓ, which would kill the session.
            for (name, value) in [("eps", eps), ("ell", ell)] {
                if let Some(v) = value {
                    check_accuracy(name, v).map_err(|e| format!("select: {e}"))?;
                }
            }
            Ok(Request::Query(Query::Select { k, fast, eps, ell }))
        })(),
        "eval" => (|| {
            let spec = tokens.next().ok_or("eval: missing seed list")?;
            if tokens.next().is_some() {
                return Err("eval: trailing tokens".into());
            }
            let seeds = parse_id_list(spec)?;
            if seeds.is_empty() {
                return Err("eval: empty seed list".into());
            }
            Ok(Request::Query(Query::Eval { seeds }))
        })(),
        "marginal" => (|| {
            let base_spec = tokens.next().ok_or("marginal: missing base seed list")?;
            let cand_spec = tokens.next().ok_or("marginal: missing candidate id")?;
            if tokens.next().is_some() {
                return Err("marginal: trailing tokens".into());
            }
            Ok(Request::Query(Query::Marginal {
                base: parse_id_list(base_spec)?,
                cand: parse_id_list(cand_spec)?,
            }))
        })(),
        "ping" => (|| {
            if tokens.next().is_some() {
                return Err("ping: trailing tokens".into());
            }
            Ok(Request::Query(Query::Ping))
        })(),
        "use" => (|| {
            let name = tokens.next().ok_or("use: missing graph name")?;
            if tokens.next().is_some() {
                return Err("use: trailing tokens".into());
            }
            tim_graph::catalog::validate_graph_name(name).map_err(|e| format!("use: {e}"))?;
            Ok(Request::Use(name.to_string()))
        })(),
        "graphs" => (|| {
            if tokens.next().is_some() {
                return Err("graphs: trailing tokens".into());
            }
            Ok(Request::Graphs)
        })(),
        "stats" => (|| {
            match tokens.next() {
                None => {}
                Some("pools") => {
                    if tokens.next().is_some() {
                        return Err("stats: trailing tokens".into());
                    }
                    return Ok(Request::StatsPools);
                }
                Some(_) => return Err("stats: trailing tokens".into()),
            }
            Ok(Request::Stats)
        })(),
        "attach" => (|| {
            let spec = tokens.next().ok_or("attach: missing name=path spec")?;
            let (name, path, mut overrides) = tim_graph::catalog::parse_graph_spec_full(spec)
                .map_err(|e| format!("attach: {e}"))?;
            for item in tokens {
                overrides
                    .apply_item(item)
                    .map_err(|e| format!("attach: {e}"))?;
            }
            let path = path
                .to_str()
                .ok_or("attach: path is not valid UTF-8")?
                .to_string();
            Ok(Request::Attach {
                name,
                path,
                overrides,
            })
        })(),
        "detach" => (|| {
            let name = tokens.next().ok_or("detach: missing graph name")?;
            if tokens.next().is_some() {
                return Err("detach: trailing tokens".into());
            }
            tim_graph::catalog::validate_graph_name(name).map_err(|e| format!("detach: {e}"))?;
            Ok(Request::Detach(name.to_string()))
        })(),
        "persist" => (|| {
            if tokens.next().is_some() {
                return Err("persist: trailing tokens".into());
            }
            Ok(Request::Persist)
        })(),
        "batch" => (|| {
            let n: usize = tokens
                .next()
                .ok_or("batch: missing line count")?
                .parse()
                .map_err(|_| "batch: bad line count".to_string())?;
            if tokens.next().is_some() {
                return Err("batch: trailing tokens".into());
            }
            if n == 0 {
                return Err("batch: line count must be positive".into());
            }
            if n > MAX_BATCH {
                return Err(format!("batch: line count must be at most {MAX_BATCH}"));
            }
            Ok(Request::Batch(n))
        })(),
        other => Err(format!("unknown query '{other}'")),
    };
    match parsed {
        Ok(r) => ParsedRequest::Request(r),
        Err(e) => ParsedRequest::Malformed(e),
    }
}

/// The `ping` answer line — shared by [`execute`] and sessions so the
/// version string cannot drift.
pub fn ping_reply() -> String {
    format!("pong tim/{PROTOCOL_VERSION}")
}

/// Outcome of one [`CappedLineReader::read_line`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CappedLine {
    /// The input is exhausted.
    Eof,
    /// A line within the cap was read into the buffer.
    Line,
    /// The line exceeds [`MAX_LINE_BYTES`]; the buffer holds a truncated
    /// prefix and the rest of the line may still be unread. Answer
    /// [`OVERSIZED_LINE_REPLY`] and end the session.
    Oversized,
}

/// A buffered line reader enforcing the [`MAX_LINE_BYTES`] request-line
/// cap — the one framing implementation shared by `tim serve` TCP
/// connections and the `tim query` stdin path, so the transports cannot
/// drift (`docs/PROTOCOL.md` §Framing).
#[derive(Debug)]
pub struct CappedLineReader<R> {
    inner: BufReader<R>,
}

impl<R: Read> CappedLineReader<R> {
    /// Wraps a raw byte stream.
    pub fn new(inner: R) -> Self {
        CappedLineReader {
            inner: BufReader::new(inner),
        }
    }

    /// Reads the next line (terminator stripped) into `buf`, blocking
    /// until it is complete. The [`MAX_LINE_BYTES`] cap counts the
    /// content, not the terminator (CRLF and LF alike); a final line
    /// without a terminator keeps any trailing `'\r'` as content. An
    /// error from the stream, such as a socket read timeout, is returned
    /// as is.
    pub fn read_line(&mut self, buf: &mut String) -> std::io::Result<CappedLine> {
        let mut line = Vec::new();
        // Two bytes of headroom: content of exactly the cap plus CRLF
        // must fit, so a read that fills the limit without reaching a
        // '\n' is over the cap however the line ends.
        let read = (&mut self.inner)
            .take(MAX_LINE_BYTES + 2)
            .read_until(b'\n', &mut line)?;
        if read == 0 {
            return Ok(CappedLine::Eof);
        }
        if line.last() == Some(&b'\n') {
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
        }
        if line.len() as u64 > MAX_LINE_BYTES {
            // `buf` gets the longest UTF-8 prefix within the cap (a lossy
            // decode would widen each invalid byte to three, past it).
            let head = &line[..MAX_LINE_BYTES as usize];
            let valid = std::str::from_utf8(head).unwrap_or_else(|e| {
                std::str::from_utf8(&head[..e.valid_up_to()]).expect("valid up to here")
            });
            buf.clear();
            buf.push_str(valid);
            return Ok(CappedLine::Oversized);
        }
        *buf = String::from_utf8(line).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "request line is not valid UTF-8",
            )
        })?;
        Ok(CappedLine::Line)
    }

    /// Reads and discards up to `max_bytes` of remaining input, stopping
    /// early at EOF or on any read error (a read timeout included). A
    /// server calls this after answering a framing violation: closing
    /// with unread bytes in the receive buffer would reset the connection
    /// and may discard the error line before the client reads it.
    pub fn drain(&mut self, max_bytes: u64) {
        let _ = std::io::copy(&mut (&mut self.inner).take(max_bytes), &mut std::io::sink());
    }
}

/// One protocol answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The single machine-readable answer line (no trailing newline).
    /// Failed queries carry their `error: …` line here.
    pub line: String,
    /// Optional human-readable progress note (pool θ, resample flag) —
    /// `tim query` prints it to stderr unless `--quiet`; servers may log
    /// it. Never part of the answer stream.
    pub note: Option<String>,
}

impl Reply {
    fn answer(line: String) -> Self {
        Reply { line, note: None }
    }

    fn error(e: String) -> Self {
        Reply {
            line: format!("error: {e}"),
            note: None,
        }
    }
}

/// Executes a parsed query against an engine, mapping labels both ways.
/// Infallible by design: execution errors (unknown labels, …) become
/// `error: …` answer lines so one bad query never kills a session.
pub fn execute<M: DiffusionModel + Clone>(
    engine: &SharedEngine<M>,
    labels: &LabelMap,
    query: &Query,
) -> Reply {
    match query {
        Query::Select { k, fast, eps, ell } => {
            let outcome = if *fast {
                engine.select_fast(*k)
            } else {
                engine.select_with(*k, *eps, *ell)
            };
            let note = format!(
                "select k={k}: theta = {}{}",
                outcome.theta_used,
                if outcome.resampled {
                    " (resampled)"
                } else {
                    ""
                }
            );
            let label_list: Vec<String> = outcome
                .seeds
                .iter()
                .map(|&v| labels.label_of(v).to_string())
                .collect();
            Reply {
                line: format!("seeds: {}", label_list.join(" ")),
                note: Some(note),
            }
        }
        Query::Eval { seeds } => match labels.map_all(seeds) {
            Ok(dense) => Reply::answer(format!("spread: {:.2}", engine.spread(&dense))),
            Err(e) => Reply::error(e),
        },
        Query::Marginal { base, cand } => {
            let mapped = labels
                .map_all(base)
                .and_then(|b| labels.map_all(cand).map(|c| (b, c)));
            match mapped {
                Ok((base, cand)) => match cand.as_slice() {
                    &[c] => {
                        Reply::answer(format!("marginal: {:.2}", engine.marginal_gain(&base, c)))
                    }
                    _ => Reply::error("marginal: candidate must be a single id".into()),
                },
                Err(e) => Reply::error(e),
            }
        }
        Query::Ping => Reply::answer(ping_reply()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tim_diffusion::IndependentCascade;
    use tim_engine::QueryEngine;
    use tim_graph::{gen, weights};

    fn engine() -> (SharedEngine<IndependentCascade>, LabelMap) {
        let mut g = gen::barabasi_albert(200, 4, 0.0, 1);
        weights::assign_weighted_cascade(&mut g);
        let n = g.n();
        let mut e = QueryEngine::new(g, IndependentCascade, "ic")
            .epsilon(1.0)
            .seed(3)
            .threads(2)
            .k_max(5);
        e.start_warm();
        (SharedEngine::new(e), LabelMap::identity(n))
    }

    /// The engine query `line` parses to.
    fn query(line: &str) -> Query {
        match parse_request(line) {
            ParsedRequest::Request(Request::Query(q)) => q,
            other => panic!("{line:?} is not an engine query: {other:?}"),
        }
    }

    #[test]
    fn parse_covers_grammar_and_errors() {
        assert_eq!(parse_request("  "), ParsedRequest::Empty);
        assert_eq!(parse_request("# comment"), ParsedRequest::Empty);
        assert_eq!(
            query("select 5 fast"),
            Query::Select {
                k: 5,
                fast: true,
                eps: None,
                ell: None
            }
        );
        assert_eq!(
            query("select 3 eps=0.5 ell=2"),
            Query::Select {
                k: 3,
                fast: false,
                eps: Some(0.5),
                ell: Some(2.0)
            }
        );
        assert_eq!(
            query("eval 1,2,3"),
            Query::Eval {
                seeds: vec![1, 2, 3]
            }
        );
        assert_eq!(
            query("marginal 1,2 9"),
            Query::Marginal {
                base: vec![1, 2],
                cand: vec![9]
            }
        );
        assert_eq!(query("ping"), Query::Ping);

        for (line, needle) in [
            ("select", "missing k"),
            ("select x", "bad k"),
            ("select 0", "k must be positive"),
            ("select 2 bogus", "unknown option"),
            ("select 2 eps=z", "bad eps"),
            ("select 2 ell=z", "bad ell"),
            ("select 2 eps=-1", "eps must be positive"),
            ("select 2 ell=0", "ell must be positive"),
            ("select 2 eps=inf", "eps must be positive"),
            ("select 2 ell=inf", "ell must be positive"),
            ("select 2 fast eps=0.5", "fast mode uses the pool's eps/ell"),
            ("eval", "missing seed list"),
            ("eval 1 2", "trailing tokens"),
            ("eval ,", "empty seed list"),
            ("eval 1,x", "bad node id"),
            ("marginal", "missing base seed list"),
            ("marginal 1", "missing candidate id"),
            ("marginal 1 2 3", "trailing tokens"),
            ("ping now", "trailing tokens"),
            ("frobnicate", "unknown query"),
        ] {
            match parse_request(line) {
                ParsedRequest::Malformed(e) => {
                    assert!(e.contains(needle), "{line:?}: {e:?} missing {needle:?}")
                }
                other => panic!("{line:?}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn execute_answers_every_query_kind() {
        let (e, labels) = engine();
        let answer = |line: &str| execute(&e, &labels, &query(line));
        let reply = answer("select 3");
        assert!(reply.line.starts_with("seeds: "));
        assert_eq!(reply.line.split_whitespace().count(), 4);
        assert!(reply.note.as_deref().unwrap().starts_with("select k=3"));

        let fast = answer("select 2 fast");
        assert!(fast.line.starts_with("seeds: "));

        let spread = answer("eval 0,1");
        assert!(spread.line.starts_with("spread: "));

        let marginal = answer("marginal 0 1");
        assert!(marginal.line.starts_with("marginal: "));

        assert_eq!(answer("ping").line, "pong tim/3");
        assert!(answer("eval 99999")
            .line
            .contains("label 99999 not present"));
        assert!(answer("marginal 0 1,2")
            .line
            .contains("candidate must be a single id"));
    }

    #[test]
    fn parse_request_covers_session_verbs_and_delegates_queries() {
        assert_eq!(parse_request("  "), ParsedRequest::Empty);
        assert_eq!(parse_request("# note"), ParsedRequest::Empty);
        assert_eq!(
            parse_request("use net-hept"),
            ParsedRequest::Request(Request::Use("net-hept".into()))
        );
        assert_eq!(
            parse_request("graphs"),
            ParsedRequest::Request(Request::Graphs)
        );
        assert_eq!(
            parse_request("stats"),
            ParsedRequest::Request(Request::Stats)
        );
        assert_eq!(
            parse_request("batch 3"),
            ParsedRequest::Request(Request::Batch(3))
        );
        assert_eq!(
            parse_request("stats pools"),
            ParsedRequest::Request(Request::StatsPools)
        );
        assert_eq!(
            parse_request("detach old"),
            ParsedRequest::Request(Request::Detach("old".into()))
        );
        assert_eq!(
            parse_request("persist"),
            ParsedRequest::Request(Request::Persist)
        );
        // attach accepts overrides both inline (::k=v,…) and as tokens.
        let want_overrides = tim_graph::catalog::GraphOverrides::parse("model=lt,eps=0.2").unwrap();
        for line in [
            "attach ws=data/ws.timg::model=lt,eps=0.2",
            "attach ws=data/ws.timg model=lt eps=0.2",
            "attach ws=data/ws.timg::model=lt eps=0.2",
        ] {
            assert_eq!(
                parse_request(line),
                ParsedRequest::Request(Request::Attach {
                    name: "ws".into(),
                    path: "data/ws.timg".into(),
                    overrides: want_overrides.clone(),
                }),
                "{line}"
            );
        }
        // Every tim/1 line parses to its engine query in the same pass
        // as the session verbs — the compatibility guarantee.
        for (line, want) in [
            (
                "select 5 fast",
                Query::Select {
                    k: 5,
                    fast: true,
                    eps: None,
                    ell: None,
                },
            ),
            ("eval 1,2", Query::Eval { seeds: vec![1, 2] }),
            (
                "marginal 1 2",
                Query::Marginal {
                    base: vec![1],
                    cand: vec![2],
                },
            ),
            ("ping", Query::Ping),
        ] {
            assert_eq!(
                parse_request(line),
                ParsedRequest::Request(Request::Query(want)),
                "{line}"
            );
        }
        for (line, needle) in [
            ("use", "missing graph name"),
            ("use a b", "trailing tokens"),
            ("use -flag", "must start with"),
            ("use a/b", "invalid character"),
            ("graphs now", "trailing tokens"),
            ("stats now", "trailing tokens"),
            ("stats pools now", "trailing tokens"),
            ("batch", "missing line count"),
            ("batch x", "bad line count"),
            ("batch 0", "must be positive"),
            ("batch 5000", "at most 4096"),
            ("batch 2 3", "trailing tokens"),
            ("attach", "missing name=path spec"),
            ("attach nopath", "name=path"),
            ("attach bad name=x", "name=path"),
            ("attach g=p.txt bogus=1", "unknown graph override"),
            ("attach g=p.txt::eps=0", "must be positive"),
            ("attach g=p.txt eps=0.1 eps=0.2", "given twice"),
            ("detach", "missing graph name"),
            ("detach a b", "trailing tokens"),
            ("detach -flag", "must start with"),
            ("persist now", "trailing tokens"),
            ("frobnicate", "unknown query"),
        ] {
            match parse_request(line) {
                ParsedRequest::Malformed(e) => {
                    assert!(e.contains(needle), "{line:?}: {e:?} missing {needle:?}")
                }
                other => panic!("{line:?}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn capped_reader_frames_lines_and_flags_oversized() {
        let input = format!(
            "ping\r\n{}\nselect 2\nno newline at eof",
            "#".repeat(1 << 20)
        );
        let mut r = CappedLineReader::new(input.as_bytes());
        let mut buf = String::new();
        assert_eq!(r.read_line(&mut buf).unwrap(), CappedLine::Line);
        assert_eq!(buf, "ping", "CRLF stripped");
        // Exactly MAX_LINE_BYTES of content passes.
        assert_eq!(r.read_line(&mut buf).unwrap(), CappedLine::Line);
        assert_eq!(buf.len() as u64, MAX_LINE_BYTES);
        assert_eq!(r.read_line(&mut buf).unwrap(), CappedLine::Line);
        assert_eq!(buf, "select 2");
        assert_eq!(r.read_line(&mut buf).unwrap(), CappedLine::Line);
        assert_eq!(buf, "no newline at eof");
        assert_eq!(r.read_line(&mut buf).unwrap(), CappedLine::Eof);
    }

    #[test]
    fn capped_reader_rejects_over_limit_lines() {
        let long = "a".repeat((1 << 20) + 5);
        let mut r = CappedLineReader::new(long.as_bytes());
        let mut buf = String::new();
        assert_eq!(r.read_line(&mut buf).unwrap(), CappedLine::Oversized);
        // The remainder can be drained without blocking.
        r.drain(1 << 22);
        assert_eq!(r.read_line(&mut buf).unwrap(), CappedLine::Eof);
    }

    #[test]
    fn crlf_terminator_is_excluded_from_the_cap() {
        // Exactly MAX_LINE_BYTES of content + CRLF must pass — the cap
        // excludes the terminator for CRLF clients just like LF ones.
        let input = format!("{}\r\nping\r\n", "#".repeat(1 << 20));
        let mut r = CappedLineReader::new(input.as_bytes());
        let mut buf = String::new();
        assert_eq!(r.read_line(&mut buf).unwrap(), CappedLine::Line);
        assert_eq!(buf.len() as u64, MAX_LINE_BYTES);
        assert_eq!(r.read_line(&mut buf).unwrap(), CappedLine::Line);
        assert_eq!(buf, "ping");
        // One byte over the cap is still rejected under CRLF.
        let over = format!("{}\r\n", "a".repeat((1 << 20) + 1));
        let mut r = CappedLineReader::new(over.as_bytes());
        assert_eq!(r.read_line(&mut buf).unwrap(), CappedLine::Oversized);
    }

    /// A reader that replays a fixed schedule of reads: `Ok(bytes)`
    /// delivers a chunk, `Err(e)` fails one read (a socket read timeout
    /// is `WouldBlock`). Past the schedule it reports EOF.
    struct ScriptedReader {
        schedule: std::collections::VecDeque<std::io::Result<Vec<u8>>>,
    }

    impl ScriptedReader {
        fn new(steps: Vec<std::io::Result<Vec<u8>>>) -> Self {
            ScriptedReader {
                schedule: steps.into_iter().collect(),
            }
        }
    }

    impl Read for ScriptedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.schedule.pop_front() {
                None => Ok(0),
                Some(Err(e)) => Err(e),
                Some(Ok(mut chunk)) => {
                    // Chunks larger than the caller's buffer deliver in
                    // pieces, like a real socket would.
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.schedule.push_front(Ok(chunk.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn read_line_survives_byte_at_a_time_delivery() {
        let input = "ping\r\nselect 2\n";
        let steps = input.bytes().map(|b| Ok(vec![b])).collect();
        let mut r = CappedLineReader::new(ScriptedReader::new(steps));
        let mut buf = String::new();
        assert_eq!(r.read_line(&mut buf).unwrap(), CappedLine::Line);
        assert_eq!(buf, "ping");
        assert_eq!(r.read_line(&mut buf).unwrap(), CappedLine::Line);
        assert_eq!(buf, "select 2");
        assert_eq!(r.read_line(&mut buf).unwrap(), CappedLine::Eof);
    }

    #[test]
    fn read_line_joins_a_line_split_across_reads() {
        // The line arrives in three deliveries — including a CRLF split
        // between two of them, the case where a naive implementation
        // strips or keeps the '\r' wrongly.
        let mut r = CappedLineReader::new(ScriptedReader::new(vec![
            Ok(b"sel".to_vec()),
            Ok(b"ect 5\r".to_vec()),
            Ok(b"\nping\n".to_vec()),
        ]));
        let mut buf = String::new();
        assert_eq!(r.read_line(&mut buf).unwrap(), CappedLine::Line);
        assert_eq!(buf, "select 5", "joined line intact, CRLF stripped");
        assert_eq!(r.read_line(&mut buf).unwrap(), CappedLine::Line);
        assert_eq!(buf, "ping");
        assert_eq!(r.read_line(&mut buf).unwrap(), CappedLine::Eof);
    }

    #[test]
    fn read_line_keeps_multibyte_chars_split_across_reads() {
        // 'é' is two UTF-8 bytes; the split lands between them. A reader
        // that validated UTF-8 per delivery would reject the line.
        let mut r = CappedLineReader::new(ScriptedReader::new(vec![
            Ok(vec![b'x', 0xC3]),
            Ok(vec![0xA9, b'\n']),
        ]));
        let mut buf = String::new();
        assert_eq!(r.read_line(&mut buf).unwrap(), CappedLine::Line);
        assert_eq!(buf, "xé");
    }

    #[test]
    fn read_line_enforces_the_cap_across_split_reads() {
        // A client trickling one oversized line in chunks must still be
        // cut off: the cap counts the whole line, not any single
        // delivery.
        let chunk = vec![b'a'; 300 * 1024];
        let mut r = CappedLineReader::new(ScriptedReader::new(vec![
            Ok(chunk.clone()),
            Ok(chunk.clone()),
            Ok(chunk.clone()),
            Ok(chunk.clone()),
            // Never a newline: the reader must not wait for one.
        ]));
        let mut buf = String::new();
        assert_eq!(
            r.read_line(&mut buf).unwrap(),
            CappedLine::Oversized,
            "cap crossed on the fourth chunk, mid-line"
        );
        assert_eq!(buf.len() as u64, MAX_LINE_BYTES, "truncated prefix");
    }

    #[test]
    fn read_line_cap_allows_exactly_max_content_delivered_in_pieces() {
        // Exactly MAX_LINE_BYTES of content + CRLF, delivered in halves:
        // splitting the line must not shrink the allowance.
        let half = vec![b'#'; 1 << 19];
        let mut r = CappedLineReader::new(ScriptedReader::new(vec![
            Ok(half.clone()),
            Ok(half.clone()),
            Ok(b"\r\n".to_vec()),
        ]));
        let mut buf = String::new();
        assert_eq!(r.read_line(&mut buf).unwrap(), CappedLine::Line);
        assert_eq!(buf.len() as u64, MAX_LINE_BYTES);
    }

    #[test]
    fn read_line_returns_a_read_timeout_as_its_error() {
        // A socket read timeout mid-line reaches the caller as the
        // stream's own error, which the server answers with the idle
        // notice.
        let mut r = CappedLineReader::new(ScriptedReader::new(vec![
            Ok(b"sel".to_vec()),
            Err(std::io::ErrorKind::WouldBlock.into()),
        ]));
        let mut buf = String::new();
        let err = r.read_line(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    }

    #[test]
    fn drain_stops_at_its_budget_or_at_eof() {
        let mut r = CappedLineReader::new(ScriptedReader::new(vec![
            Ok(vec![b'x'; 100]),
            Ok(vec![b'y'; 100]),
            Ok(b"\n".to_vec()),
        ]));
        // Budget: 150 bytes go, the last 50 'y's are still there.
        r.drain(150);
        let mut buf = String::new();
        assert_eq!(r.read_line(&mut buf).unwrap(), CappedLine::Line);
        assert_eq!(buf, "y".repeat(50));
        // EOF: a budget larger than what is left stops at the end.
        let mut r = CappedLineReader::new(ScriptedReader::new(vec![Ok(vec![b'z'; 50])]));
        r.drain(1000);
        assert_eq!(r.read_line(&mut buf).unwrap(), CappedLine::Eof);
    }

    #[test]
    fn ping_reply_reports_the_protocol_version() {
        assert_eq!(ping_reply(), "pong tim/3");
        assert_eq!(PROTOCOL_VERSION, 3);
    }

    #[test]
    fn label_map_round_trips_sparse_labels() {
        let m = LabelMap::new(vec![100, 7, 42]);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.label_of(1), 7);
        assert_eq!(m.to_dense(42), Ok(2));
        assert_eq!(m.map_all(&[42, 100]), Ok(vec![2, 0]));
        assert!(m.to_dense(8).unwrap_err().contains("label 8"));
        assert_eq!(LabelMap::identity(3).label_of(2), 2);
    }

    #[test]
    fn id_list_parses_and_rejects() {
        assert_eq!(parse_id_list("1,2, 3").unwrap(), vec![1, 2, 3]);
        assert!(parse_id_list("1,x").is_err());
        assert_eq!(parse_id_list("").unwrap(), Vec::<u64>::new());
    }
}
