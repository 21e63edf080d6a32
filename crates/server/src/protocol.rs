//! The line-delimited influence-query protocol (`tim/3`) shared by
//! `tim query` and `tim serve`.
//!
//! One request per line, one answer line per request; blank lines and `#`
//! comments are ignored (no answer). Malformed requests answer
//! `error: …` and the session continues. The normative grammar, framing,
//! and versioning rules live in `docs/PROTOCOL.md`; this module is the
//! single implementation both front ends use, so they cannot drift apart.
//!
//! The grammar has three strata:
//!
//! - **Engine-scoped queries** ([`Query`], parsed by [`parse_query`],
//!   executed by [`execute`]) — `select` / `eval` / `marginal` / `ping`,
//!   unchanged from `tim/1`. [`QueryBackend`] abstracts the engine access
//!   so the same `execute` serves an exclusive [`QueryEngine`]
//!   (`tim query`) and a [`SharedEngine`] (`tim serve`).
//! - **Session-scoped requests** ([`Request`], parsed by
//!   [`parse_request`]) — the `tim/2` additions `use` / `graphs` /
//!   `stats` / `batch`, which manipulate per-connection state (current
//!   graph, pending batch) and are executed by
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
use tim_engine::{QueryEngine, QueryOutcome, SharedEngine};
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

/// A parsed protocol request.
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

/// Result of parsing one input line.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedLine {
    /// Blank line or `#` comment: produces no answer line.
    Empty,
    /// A well-formed request.
    Query(Query),
    /// A malformed request; answer `error: <reason>` and continue.
    Malformed(String),
}

/// Parses one protocol line. Never fails hard: malformed input becomes
/// [`ParsedLine::Malformed`] so sessions survive bad lines.
pub fn parse_query(line: &str) -> ParsedLine {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return ParsedLine::Empty;
    }
    let mut tokens = trimmed.split_whitespace();
    let parsed = match tokens.next() {
        Some("select") => (|| -> Result<Query, String> {
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
            Ok(Query::Select { k, fast, eps, ell })
        })(),
        Some("eval") => (|| -> Result<Query, String> {
            let spec = tokens.next().ok_or("eval: missing seed list")?;
            if tokens.next().is_some() {
                return Err("eval: trailing tokens".into());
            }
            let seeds = parse_id_list(spec)?;
            if seeds.is_empty() {
                return Err("eval: empty seed list".into());
            }
            Ok(Query::Eval { seeds })
        })(),
        Some("marginal") => (|| -> Result<Query, String> {
            let base_spec = tokens.next().ok_or("marginal: missing base seed list")?;
            let cand_spec = tokens.next().ok_or("marginal: missing candidate id")?;
            if tokens.next().is_some() {
                return Err("marginal: trailing tokens".into());
            }
            Ok(Query::Marginal {
                base: parse_id_list(base_spec)?,
                cand: parse_id_list(cand_spec)?,
            })
        })(),
        Some("ping") => (|| -> Result<Query, String> {
            if tokens.next().is_some() {
                return Err("ping: trailing tokens".into());
            }
            Ok(Query::Ping)
        })(),
        Some(other) => Err(format!("unknown query '{other}'")),
        None => return ParsedLine::Empty,
    };
    match parsed {
        Ok(q) => ParsedLine::Query(q),
        Err(e) => ParsedLine::Malformed(e),
    }
}

/// A parsed `tim/2` request: an engine-scoped [`Query`] or one of the
/// session-scoped verbs. Session verbs are executed by
/// [`Session`](crate::session::Session); handing them to the engine-level
/// [`handle_line`] answers `error: …` instead (no session to act on).
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

/// Result of parsing one input line at the session stratum.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedRequest {
    /// Blank line or `#` comment: produces no answer line.
    Empty,
    /// A well-formed request.
    Request(Request),
    /// A malformed request; answer `error: <reason>` and continue.
    Malformed(String),
}

/// Parses one protocol line at the full `tim/2` grammar: session verbs
/// plus every engine-scoped query [`parse_query`] accepts. Never fails
/// hard — malformed input becomes [`ParsedRequest::Malformed`].
pub fn parse_request(line: &str) -> ParsedRequest {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return ParsedRequest::Empty;
    }
    let mut tokens = trimmed.split_whitespace();
    let parsed: Option<Result<Request, String>> = match tokens.next() {
        Some("use") => Some((|| {
            let name = tokens.next().ok_or("use: missing graph name")?;
            if tokens.next().is_some() {
                return Err("use: trailing tokens".into());
            }
            tim_graph::catalog::validate_graph_name(name).map_err(|e| format!("use: {e}"))?;
            Ok(Request::Use(name.to_string()))
        })()),
        Some("graphs") => Some((|| {
            if tokens.next().is_some() {
                return Err("graphs: trailing tokens".into());
            }
            Ok(Request::Graphs)
        })()),
        Some("stats") => Some((|| {
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
        })()),
        Some("attach") => Some((|| {
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
        })()),
        Some("detach") => Some((|| {
            let name = tokens.next().ok_or("detach: missing graph name")?;
            if tokens.next().is_some() {
                return Err("detach: trailing tokens".into());
            }
            tim_graph::catalog::validate_graph_name(name).map_err(|e| format!("detach: {e}"))?;
            Ok(Request::Detach(name.to_string()))
        })()),
        Some("persist") => Some((|| {
            if tokens.next().is_some() {
                return Err("persist: trailing tokens".into());
            }
            Ok(Request::Persist)
        })()),
        Some("batch") => Some((|| {
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
        })()),
        _ => None,
    };
    match parsed {
        Some(Ok(r)) => ParsedRequest::Request(r),
        Some(Err(e)) => ParsedRequest::Malformed(e),
        None => match parse_query(line) {
            ParsedLine::Empty => ParsedRequest::Empty,
            ParsedLine::Query(q) => ParsedRequest::Request(Request::Query(q)),
            ParsedLine::Malformed(e) => ParsedRequest::Malformed(e),
        },
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
    /// prefix and the rest of the line is still unread. Answer
    /// [`OVERSIZED_LINE_REPLY`] and end the session.
    Oversized,
}

/// Outcome of one [`CappedLineReader::poll_line`] call — [`CappedLine`]
/// plus the readiness case a nonblocking transport needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollLine {
    /// The input is exhausted.
    Eof,
    /// A line within the cap was read into the buffer.
    Line,
    /// The line exceeds [`MAX_LINE_BYTES`]; the buffer holds a truncated
    /// prefix and the rest of the line is still unread. Answer
    /// [`OVERSIZED_LINE_REPLY`] and end the session.
    Oversized,
    /// The underlying stream has no more bytes *right now*
    /// (`WouldBlock`). Any partial line read so far is retained
    /// internally; call again when the stream is readable and the line
    /// resumes where it stopped.
    Pending,
}

/// Outcome of one [`CappedLineReader::poll_discard`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscardOutcome {
    /// The input is exhausted; the connection can close gracefully.
    Eof,
    /// The stream has no more bytes right now (`WouldBlock`); call again
    /// when readable.
    Pending,
    /// The discard budget ran out before EOF — stop being polite and
    /// close anyway.
    BudgetExhausted,
}

/// A buffered line reader enforcing the [`MAX_LINE_BYTES`] request-line
/// cap — the one framing implementation shared by `tim serve` TCP
/// connections (blocking *and* event-loop) and the `tim query` stdin
/// path, so the transports cannot drift (`docs/PROTOCOL.md` §Framing).
///
/// Two entry points over the same state machine:
///
/// - [`read_line`](Self::read_line) — the blocking form: returns only
///   complete results.
/// - [`poll_line`](Self::poll_line) — the readiness-driven form: a read
///   that would block returns [`PollLine::Pending`] and the partial line
///   read so far is kept internally, so the event loop can resume the
///   very same line when epoll reports the socket readable again. The
///   line cap is enforced *across* resumptions: a client cannot evade it
///   by trickling an unbounded line one chunk at a time.
#[derive(Debug)]
pub struct CappedLineReader<R> {
    inner: BufReader<R>,
    /// Bytes of the in-progress line accumulated across `poll_line`
    /// calls (never holds a terminator).
    partial: Vec<u8>,
}

impl<R: Read> CappedLineReader<R> {
    /// Wraps a raw byte stream.
    pub fn new(inner: R) -> Self {
        CappedLineReader {
            inner: BufReader::new(inner),
            partial: Vec::new(),
        }
    }

    /// The underlying stream (e.g. to write answers through the same
    /// socket the reader owns).
    pub fn get_ref(&self) -> &R {
        self.inner.get_ref()
    }

    /// Number of already-read bytes buffered in userspace (decoded
    /// partial line + undecoded buffer). When this is zero, the kernel
    /// socket buffer is the only place input can be waiting — i.e.
    /// readiness notification is sufficient to resume.
    pub fn buffered_len(&self) -> usize {
        self.partial.len() + self.inner.buffer().len()
    }

    /// Reads the next line (terminator stripped) into `buf`, blocking
    /// until it is complete. On a nonblocking stream a would-block read
    /// surfaces as an `Err(WouldBlock)` (use
    /// [`poll_line`](Self::poll_line) instead).
    pub fn read_line(&mut self, buf: &mut String) -> std::io::Result<CappedLine> {
        match self.poll_line(buf)? {
            PollLine::Eof => Ok(CappedLine::Eof),
            PollLine::Line => Ok(CappedLine::Line),
            PollLine::Oversized => Ok(CappedLine::Oversized),
            PollLine::Pending => Err(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "read_line on a nonblocking stream; use poll_line",
            )),
        }
    }

    /// Reads as much of the next line as the stream can deliver without
    /// blocking. Complete results ([`PollLine::Line`], `Oversized`,
    /// `Eof`) leave the reader ready for the next line;
    /// [`PollLine::Pending`] parks the partial line internally until the
    /// next call. The [`MAX_LINE_BYTES`] cap counts the accumulated
    /// content (terminator excluded, CRLF and LF alike), so it holds
    /// across any delivery schedule — byte-at-a-time included.
    pub fn poll_line(&mut self, buf: &mut String) -> std::io::Result<PollLine> {
        loop {
            let available = match self.inner.fill_buf() {
                Ok(a) => a,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(PollLine::Pending)
                }
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                if self.partial.is_empty() {
                    return Ok(PollLine::Eof);
                }
                // Final line without a terminator: everything (including
                // any trailing '\r') is content.
                return self.emit(buf, false);
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    self.partial.extend_from_slice(&available[..i]);
                    self.inner.consume(i + 1);
                    return self.emit(buf, true);
                }
                None => {
                    let n = available.len();
                    self.partial.extend_from_slice(available);
                    self.inner.consume(n);
                    // +1 headroom: a trailing '\r' may still become part
                    // of a CRLF terminator, which the cap excludes. One
                    // byte beyond that is over the cap no matter how the
                    // line ends.
                    if self.partial.len() as u64 > MAX_LINE_BYTES + 1 {
                        return self.emit_oversized(buf);
                    }
                }
            }
        }
    }

    /// Completes the accumulated line into `buf`.
    fn emit(&mut self, buf: &mut String, terminated: bool) -> std::io::Result<PollLine> {
        if terminated && self.partial.last() == Some(&b'\r') {
            self.partial.pop();
        }
        if self.partial.len() as u64 > MAX_LINE_BYTES {
            return self.emit_oversized(buf);
        }
        match String::from_utf8(std::mem::take(&mut self.partial)) {
            Ok(s) => {
                *buf = s;
                Ok(PollLine::Line)
            }
            Err(_) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "request line is not valid UTF-8",
            )),
        }
    }

    /// Reports the over-cap line: `buf` holds its longest UTF-8 prefix
    /// within the cap, the accumulated state is discarded. (A lossy
    /// decode would widen each invalid byte to three, past the cap.)
    fn emit_oversized(&mut self, buf: &mut String) -> std::io::Result<PollLine> {
        let head = &self.partial[..(MAX_LINE_BYTES as usize).min(self.partial.len())];
        let valid = std::str::from_utf8(head).unwrap_or_else(|e| {
            std::str::from_utf8(&head[..e.valid_up_to()]).expect("valid up to here")
        });
        buf.clear();
        buf.push_str(valid);
        self.partial.clear();
        Ok(PollLine::Oversized)
    }

    /// Discards buffered and readable input, up to `budget` bytes
    /// (decremented in place), without blocking. A server calls this
    /// after answering a framing violation: closing with unread bytes in
    /// the receive buffer would RST the connection and may discard the
    /// error line before the client reads it.
    pub fn poll_discard(&mut self, budget: &mut u64) -> std::io::Result<DiscardOutcome> {
        self.partial.clear();
        loop {
            if *budget == 0 {
                return Ok(DiscardOutcome::BudgetExhausted);
            }
            let available = match self.inner.fill_buf() {
                Ok(a) => a,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(DiscardOutcome::Pending)
                }
                // A reset mid-drain means the client is gone: nothing
                // left to be graceful for.
                Err(_) => return Ok(DiscardOutcome::Eof),
            };
            if available.is_empty() {
                return Ok(DiscardOutcome::Eof);
            }
            let n = (available.len() as u64).min(*budget) as usize;
            self.inner.consume(n);
            *budget -= n as u64;
        }
    }

    /// Blocking form of [`poll_discard`](Self::poll_discard): reads and
    /// discards up to `max_bytes` of remaining input, stopping early on
    /// EOF (or on `WouldBlock` for nonblocking streams).
    pub fn drain(&mut self, max_bytes: u64) {
        let mut budget = max_bytes;
        let _ = self.poll_discard(&mut budget);
    }
}

/// Engine access as the protocol needs it — implemented by an exclusive
/// [`QueryEngine`] (`tim query`) and by shared references to a
/// [`SharedEngine`] (`tim serve`), so both front ends execute queries
/// through the very same [`execute`].
pub trait QueryBackend {
    /// Exact-replay seed selection with optional ε/ℓ overrides.
    fn select_with(&mut self, k: usize, eps: Option<f64>, ell: Option<f64>) -> QueryOutcome;
    /// Prefix answering over the full pool.
    fn select_fast(&mut self, k: usize) -> QueryOutcome;
    /// Pool-coverage spread estimate of `seeds` (dense ids).
    fn spread(&mut self, seeds: &[NodeId]) -> f64;
    /// Marginal spread gain of adding `candidate` to `base` (dense ids).
    fn marginal_gain(&mut self, base: &[NodeId], candidate: NodeId) -> f64;
}

impl<M: DiffusionModel + Clone> QueryBackend for QueryEngine<M> {
    fn select_with(&mut self, k: usize, eps: Option<f64>, ell: Option<f64>) -> QueryOutcome {
        QueryEngine::select_with(self, k, eps, ell)
    }
    fn select_fast(&mut self, k: usize) -> QueryOutcome {
        QueryEngine::select_fast(self, k)
    }
    fn spread(&mut self, seeds: &[NodeId]) -> f64 {
        QueryEngine::spread(self, seeds)
    }
    fn marginal_gain(&mut self, base: &[NodeId], candidate: NodeId) -> f64 {
        QueryEngine::marginal_gain(self, base, candidate)
    }
}

impl<M: DiffusionModel + Clone> QueryBackend for &SharedEngine<M> {
    fn select_with(&mut self, k: usize, eps: Option<f64>, ell: Option<f64>) -> QueryOutcome {
        SharedEngine::select_with(self, k, eps, ell)
    }
    fn select_fast(&mut self, k: usize) -> QueryOutcome {
        SharedEngine::select_fast(self, k)
    }
    fn spread(&mut self, seeds: &[NodeId]) -> f64 {
        SharedEngine::spread(self, seeds)
    }
    fn marginal_gain(&mut self, base: &[NodeId], candidate: NodeId) -> f64 {
        SharedEngine::marginal_gain(self, base, candidate)
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

/// Executes a parsed query against a backend, mapping labels both ways.
/// Infallible by design: execution errors (unknown labels, …) become
/// `error: …` answer lines so one bad query never kills a session.
pub fn execute<B: QueryBackend>(backend: &mut B, labels: &LabelMap, query: &Query) -> Reply {
    match query {
        Query::Select { k, fast, eps, ell } => {
            let outcome = if *fast {
                backend.select_fast(*k)
            } else {
                backend.select_with(*k, *eps, *ell)
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
            Ok(dense) => Reply::answer(format!("spread: {:.2}", backend.spread(&dense))),
            Err(e) => Reply::error(e),
        },
        Query::Marginal { base, cand } => {
            let mapped = labels
                .map_all(base)
                .and_then(|b| labels.map_all(cand).map(|c| (b, c)));
            match mapped {
                Ok((base, cand)) => match cand.as_slice() {
                    &[c] => {
                        Reply::answer(format!("marginal: {:.2}", backend.marginal_gain(&base, c)))
                    }
                    _ => Reply::error("marginal: candidate must be a single id".into()),
                },
                Err(e) => Reply::error(e),
            }
        }
        Query::Ping => Reply::answer(ping_reply()),
    }
}

/// Parses and executes one input line: `None` for blank/comment lines
/// (no answer), `Some` otherwise — with malformed input folded into an
/// `error: …` reply. This is the whole per-line behavior of `tim query`
/// and of one `tim serve` connection.
pub fn handle_line<B: QueryBackend>(
    backend: &mut B,
    labels: &LabelMap,
    line: &str,
) -> Option<Reply> {
    match parse_query(line) {
        ParsedLine::Empty => None,
        ParsedLine::Malformed(e) => Some(Reply::error(e)),
        ParsedLine::Query(q) => Some(execute(backend, labels, &q)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tim_diffusion::IndependentCascade;
    use tim_graph::{gen, weights};

    fn backend() -> (QueryEngine<IndependentCascade>, LabelMap) {
        let mut g = gen::barabasi_albert(200, 4, 0.0, 1);
        weights::assign_weighted_cascade(&mut g);
        let n = g.n();
        let mut e = QueryEngine::new(g, IndependentCascade, "ic")
            .epsilon(1.0)
            .seed(3)
            .threads(2)
            .k_max(5);
        e.warm();
        (e, LabelMap::identity(n))
    }

    #[test]
    fn parse_covers_grammar_and_errors() {
        assert_eq!(parse_query("  "), ParsedLine::Empty);
        assert_eq!(parse_query("# comment"), ParsedLine::Empty);
        assert_eq!(
            parse_query("select 5 fast"),
            ParsedLine::Query(Query::Select {
                k: 5,
                fast: true,
                eps: None,
                ell: None
            })
        );
        assert_eq!(
            parse_query("select 3 eps=0.5 ell=2"),
            ParsedLine::Query(Query::Select {
                k: 3,
                fast: false,
                eps: Some(0.5),
                ell: Some(2.0)
            })
        );
        assert_eq!(
            parse_query("eval 1,2,3"),
            ParsedLine::Query(Query::Eval {
                seeds: vec![1, 2, 3]
            })
        );
        assert_eq!(
            parse_query("marginal 1,2 9"),
            ParsedLine::Query(Query::Marginal {
                base: vec![1, 2],
                cand: vec![9]
            })
        );
        assert_eq!(parse_query("ping"), ParsedLine::Query(Query::Ping));

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
            match parse_query(line) {
                ParsedLine::Malformed(e) => {
                    assert!(e.contains(needle), "{line:?}: {e:?} missing {needle:?}")
                }
                other => panic!("{line:?}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn execute_answers_every_query_kind() {
        let (mut e, labels) = backend();
        let reply = handle_line(&mut e, &labels, "select 3").unwrap();
        assert!(reply.line.starts_with("seeds: "));
        assert_eq!(reply.line.split_whitespace().count(), 4);
        assert!(reply.note.as_deref().unwrap().starts_with("select k=3"));

        let fast = handle_line(&mut e, &labels, "select 2 fast").unwrap();
        assert!(fast.line.starts_with("seeds: "));

        let spread = handle_line(&mut e, &labels, "eval 0,1").unwrap();
        assert!(spread.line.starts_with("spread: "));

        let marginal = handle_line(&mut e, &labels, "marginal 0 1").unwrap();
        assert!(marginal.line.starts_with("marginal: "));

        assert_eq!(
            handle_line(&mut e, &labels, "ping").unwrap().line,
            "pong tim/3"
        );
        assert!(handle_line(&mut e, &labels, "# skip").is_none());
        assert!(handle_line(&mut e, &labels, "eval 99999")
            .unwrap()
            .line
            .contains("label 99999 not present"));
        assert!(handle_line(&mut e, &labels, "marginal 0 1,2")
            .unwrap()
            .line
            .contains("candidate must be a single id"));
    }

    #[test]
    fn shared_backend_matches_exclusive_backend() {
        let (mut exclusive, labels) = backend();
        let (engine, _) = backend();
        let shared = SharedEngine::new(engine);
        let mut shared_ref = &shared;
        for line in [
            "select 4",
            "select 2 fast",
            "eval 0,5",
            "marginal 0 7",
            "ping",
        ] {
            let a = handle_line(&mut exclusive, &labels, line).unwrap();
            let b = handle_line(&mut shared_ref, &labels, line).unwrap();
            assert_eq!(a.line, b.line, "{line}");
        }
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
        // Every tim/1 line parses to the same Query through both entry
        // points — the compatibility guarantee.
        for line in ["select 5 fast", "eval 1,2", "marginal 1 2", "ping"] {
            let ParsedLine::Query(q) = parse_query(line) else {
                panic!("{line}: not a query");
            };
            assert_eq!(
                parse_request(line),
                ParsedRequest::Request(Request::Query(q)),
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
    /// delivers a chunk, `Err(WouldBlock)` simulates a drained
    /// nonblocking socket. Past the schedule it reports EOF.
    struct ScriptedReader {
        schedule: std::collections::VecDeque<std::io::Result<Vec<u8>>>,
    }

    impl ScriptedReader {
        fn new(steps: Vec<std::io::Result<Vec<u8>>>) -> Self {
            ScriptedReader {
                schedule: steps.into_iter().collect(),
            }
        }

        fn would_block() -> std::io::Result<Vec<u8>> {
            Err(std::io::ErrorKind::WouldBlock.into())
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
    fn poll_line_survives_byte_at_a_time_delivery() {
        let input = "ping\r\nselect 2\n";
        let steps = input.bytes().map(|b| Ok(vec![b])).collect();
        let mut r = CappedLineReader::new(ScriptedReader::new(steps));
        let mut buf = String::new();
        assert_eq!(r.poll_line(&mut buf).unwrap(), PollLine::Line);
        assert_eq!(buf, "ping");
        assert_eq!(r.poll_line(&mut buf).unwrap(), PollLine::Line);
        assert_eq!(buf, "select 2");
        assert_eq!(r.poll_line(&mut buf).unwrap(), PollLine::Eof);
    }

    #[test]
    fn poll_line_resumes_a_line_split_across_would_block() {
        // The line arrives in three deliveries with socket-drained gaps
        // between them — including a CRLF split across a gap, the case
        // where a naive implementation strips or keeps the '\r' wrongly.
        let mut r = CappedLineReader::new(ScriptedReader::new(vec![
            Ok(b"sel".to_vec()),
            ScriptedReader::would_block(),
            Ok(b"ect 5\r".to_vec()),
            ScriptedReader::would_block(),
            Ok(b"\nping\n".to_vec()),
        ]));
        let mut buf = String::new();
        assert_eq!(r.poll_line(&mut buf).unwrap(), PollLine::Pending);
        assert_eq!(r.buffered_len(), 3, "partial line parked internally");
        assert_eq!(r.poll_line(&mut buf).unwrap(), PollLine::Pending);
        assert_eq!(r.poll_line(&mut buf).unwrap(), PollLine::Line);
        assert_eq!(buf, "select 5", "resumed line intact, CRLF stripped");
        assert_eq!(r.poll_line(&mut buf).unwrap(), PollLine::Line);
        assert_eq!(buf, "ping");
        assert_eq!(r.poll_line(&mut buf).unwrap(), PollLine::Eof);
    }

    #[test]
    fn poll_line_keeps_multibyte_chars_split_across_would_block() {
        // 'é' is two UTF-8 bytes; the gap lands between them. A
        // UTF-8-validating accumulator (like std's read_line) can drop
        // the partial byte here.
        let mut r = CappedLineReader::new(ScriptedReader::new(vec![
            Ok(vec![b'x', 0xC3]),
            ScriptedReader::would_block(),
            Ok(vec![0xA9, b'\n']),
        ]));
        let mut buf = String::new();
        assert_eq!(r.poll_line(&mut buf).unwrap(), PollLine::Pending);
        assert_eq!(r.poll_line(&mut buf).unwrap(), PollLine::Line);
        assert_eq!(buf, "xé");
    }

    #[test]
    fn poll_line_enforces_the_cap_across_resumed_reads() {
        // A client trickling one oversized line in chunks (with drained
        // gaps) must still be cut off: the cap counts the *accumulated*
        // content, not any single delivery.
        let chunk = vec![b'a'; 300 * 1024];
        let mut r = CappedLineReader::new(ScriptedReader::new(vec![
            Ok(chunk.clone()),
            ScriptedReader::would_block(),
            Ok(chunk.clone()),
            ScriptedReader::would_block(),
            Ok(chunk.clone()),
            ScriptedReader::would_block(),
            Ok(chunk.clone()),
            // Never a newline: the reader must not wait for one.
        ]));
        let mut buf = String::new();
        assert_eq!(r.poll_line(&mut buf).unwrap(), PollLine::Pending);
        assert_eq!(r.poll_line(&mut buf).unwrap(), PollLine::Pending);
        assert_eq!(r.poll_line(&mut buf).unwrap(), PollLine::Pending);
        assert_eq!(
            r.poll_line(&mut buf).unwrap(),
            PollLine::Oversized,
            "cap crossed on the fourth chunk, mid-line"
        );
        assert_eq!(buf.len() as u64, MAX_LINE_BYTES, "truncated prefix");
    }

    #[test]
    fn poll_line_cap_allows_exactly_max_content_delivered_in_pieces() {
        // Exactly MAX_LINE_BYTES of content + CRLF, delivered in halves:
        // resumption must not shrink the allowance.
        let half = vec![b'#'; 1 << 19];
        let mut r = CappedLineReader::new(ScriptedReader::new(vec![
            Ok(half.clone()),
            ScriptedReader::would_block(),
            Ok(half.clone()),
            ScriptedReader::would_block(),
            Ok(b"\r\n".to_vec()),
        ]));
        let mut buf = String::new();
        assert_eq!(r.poll_line(&mut buf).unwrap(), PollLine::Pending);
        assert_eq!(r.poll_line(&mut buf).unwrap(), PollLine::Pending);
        assert_eq!(r.poll_line(&mut buf).unwrap(), PollLine::Line);
        assert_eq!(buf.len() as u64, MAX_LINE_BYTES);
    }

    #[test]
    fn poll_discard_distinguishes_pending_from_eof_and_budget() {
        let mut r = CappedLineReader::new(ScriptedReader::new(vec![
            Ok(vec![b'x'; 100]),
            ScriptedReader::would_block(),
            Ok(vec![b'y'; 100]),
        ]));
        let mut budget = 150;
        assert_eq!(
            r.poll_discard(&mut budget).unwrap(),
            DiscardOutcome::Pending
        );
        assert_eq!(budget, 50);
        assert_eq!(
            r.poll_discard(&mut budget).unwrap(),
            DiscardOutcome::BudgetExhausted
        );
        assert_eq!(budget, 0);
        let mut rest = 1000;
        assert_eq!(r.poll_discard(&mut rest).unwrap(), DiscardOutcome::Eof);
        assert_eq!(rest, 1000 - 50, "the leftover 50 bytes were consumed");
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
