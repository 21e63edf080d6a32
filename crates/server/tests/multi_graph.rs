//! The multi-graph serving contract (`tim/2`, unchanged under `tim/3`):
//!
//! - one server instance serves several named graphs: concurrent clients
//!   pinned to different graphs — plus one switching graphs mid-session
//!   via `use` — receive response streams byte-identical to a serial
//!   replay of the same lines through one session on a fresh server
//!   state, and every exact `select` of that replay equals a one-shot
//!   `TimPlus::run` on the graph at the same `(seed, ε, ℓ, k)`;
//! - `batch` sessions are byte-identical to the same lines unbatched;
//! - every `tim/1` request line from docs/PROTOCOL.md works verbatim
//!   against a `tim/2` server;
//! - idle graphs are evicted under `max_loaded` and reload
//!   deterministically.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use tim_core::TimPlus;
use tim_diffusion::IndependentCascade;
use tim_graph::{gen, io, weights, Graph};
use tim_server::{
    parse_request, GraphCatalog, LabelMap, ParsedRequest, Query, Request, Server, ServerConfig,
    ServerHandle, ServerState,
};

fn config() -> ServerConfig {
    ServerConfig {
        threads: 4,
        pool_cache: 4,
        epsilon: 0.8,
        ell: 1.0,
        seed: 7,
        k_max: 8,
        sample_threads: 2,
        ..ServerConfig::default()
    }
}

/// The generated source of catalog graph `i` (before weights).
fn raw_graph(i: u64) -> Graph {
    gen::barabasi_albert(200 + 40 * i as usize, 4, 0.0, i + 1)
}

/// Writes graph `i` as a text edge list and returns the path — the
/// lazily loaded, weight-spec'd path the catalog exercises.
fn graph_file(dir: &std::path::Path, i: u64) -> PathBuf {
    let path = dir.join(format!("g{i}.txt"));
    io::save_edge_list(&raw_graph(i), &path).unwrap();
    path
}

/// A fresh serving state whose catalog holds `g0` resident plus `g1`/`g2`
/// lazily loaded from the files in `dir`; sessions start on `g0`.
fn fresh_state(dir: &std::path::Path, max_loaded: usize) -> ServerState<IndependentCascade> {
    let mut cfg = config();
    cfg.max_loaded = max_loaded;
    let catalog = GraphCatalog::new(IndependentCascade, "ic", cfg);
    let mut g0 = raw_graph(0);
    weights::assign_weighted_cascade(&mut g0);
    let n0 = g0.n();
    catalog
        .add_resident("g0", g0, LabelMap::identity(n0))
        .unwrap();
    for i in [1u64, 2] {
        let path = dir.join(format!("g{i}.txt"));
        if !path.exists() {
            graph_file(dir, i);
        }
        catalog.add_path(format!("g{i}"), path).unwrap();
    }
    ServerState::from_catalog(catalog, "g0").unwrap()
}

/// A server over [`fresh_state`].
fn start_server(
    dir: &std::path::Path,
    max_loaded: usize,
) -> (Arc<ServerState<IndependentCascade>>, ServerHandle) {
    let state = Arc::new(fresh_state(dir, max_loaded));
    let server = Server::bind(Arc::clone(&state), "127.0.0.1:0").unwrap();
    let handle = server.start();
    (state, handle)
}

/// Graph `i` with its labels, built the way the catalog builds it (load
/// plus weight spec for path graphs).
fn weighted_graph(dir: &std::path::Path, i: u64) -> (Graph, LabelMap) {
    if i == 0 {
        let mut g = raw_graph(0);
        weights::assign_weighted_cascade(&mut g);
        let n = g.n();
        (g, LabelMap::identity(n))
    } else {
        let loaded = io::load_graph(dir.join(format!("g{i}.txt")), false).unwrap();
        let mut g = loaded.graph;
        weights::assign_weighted_cascade(&mut g);
        (g, LabelMap::new(loaded.labels))
    }
}

/// The answer a one-shot `TimPlus::run` on graph `i` gives an exact
/// `select` line at the server's seed and ε/ℓ; `None` for every other
/// line.
fn tim_plus_answer(dir: &std::path::Path, i: u64, line: &str) -> Option<String> {
    let ParsedRequest::Request(Request::Query(Query::Select {
        k,
        fast: false,
        eps,
        ell,
    })) = parse_request(line)
    else {
        return None;
    };
    let cfg = config();
    let (graph, labels) = weighted_graph(dir, i);
    let run = TimPlus::new(IndependentCascade)
        .epsilon(eps.unwrap_or(cfg.epsilon))
        .ell(ell.unwrap_or(cfg.ell))
        .seed(cfg.seed)
        .threads(cfg.sample_threads)
        .run(&graph, k);
    let seeds: Vec<String> = run
        .seeds
        .iter()
        .map(|&v| labels.label_of(v).to_string())
        .collect();
    Some(format!("seeds: {}", seeds.join(" ")))
}

/// Serial single-graph ground truth: `use g<i>`, then the same lines in
/// order, through one session on a fresh server state; the answers after
/// `using g<i>`. Each exact `select` is checked against
/// [`tim_plus_answer`] on the way.
fn serial_replay(dir: &std::path::Path, i: u64, lines: &[&str]) -> Vec<String> {
    let state = fresh_state(dir, 8);
    let mut session = state.session();
    assert_eq!(
        session.push_line(&format!("use g{i}")),
        [format!("using g{i}")]
    );
    let mut answers = Vec::new();
    for line in lines {
        let got = session.push_line(line);
        if let Some(want) = tim_plus_answer(dir, i, line) {
            assert_eq!(
                got,
                [want],
                "g{i}: '{line}' differs from a one-shot TIM+ run"
            );
        }
        answers.extend(got);
    }
    answers.extend(session.finish());
    answers
}

/// Sends `lines` over one connection and collects the response lines.
fn run_client(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).unwrap();
    for l in lines {
        stream.write_all(l.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    BufReader::new(stream).lines().map(|l| l.unwrap()).collect()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tim_multi_graph_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Queries that stay within the warmed pool, so every answer (including
/// eval/marginal coverage values) is interleaving-independent.
const SCRIPT: &[&str] = &[
    "select 1",
    "select 4",
    "eval 0,1,2",
    "marginal 0,1 2",
    "select 8",
    "select 3 fast",
    "ping",
    "bogus",
];

#[test]
fn concurrent_clients_on_different_graphs_match_serial_replay() {
    let dir = tmpdir("pinned");
    let (state, handle) = start_server(&dir, 8);
    let addr = handle.addr();

    // Expected stream per pinned client: `using gX` then the replay.
    let expect: Vec<Vec<String>> = (0..3u64)
        .map(|i| {
            let mut want = vec![format!("using g{i}")];
            want.extend(serial_replay(&dir, i, SCRIPT));
            want
        })
        .collect();

    // The switching client: g1 then g2 mid-session, one connection.
    let mut switch_lines: Vec<String> = vec!["use g1".into()];
    switch_lines.extend(SCRIPT.iter().map(|s| s.to_string()));
    switch_lines.push("use g2".into());
    switch_lines.extend(SCRIPT.iter().map(|s| s.to_string()));
    let mut switch_want = vec!["using g1".to_string()];
    switch_want.extend(serial_replay(&dir, 1, SCRIPT));
    switch_want.push("using g2".to_string());
    switch_want.extend(serial_replay(&dir, 2, SCRIPT));

    // 6 pinned clients (2 per graph) + 1 switcher, all concurrent.
    let mut clients = Vec::new();
    for round in 0..2 {
        for i in 0..3u64 {
            let mut lines: Vec<String> = vec![format!("use g{i}")];
            lines.extend(SCRIPT.iter().map(|s| s.to_string()));
            let want = expect[i as usize].clone();
            clients.push(std::thread::spawn(move || {
                let got = run_client(addr, &lines);
                assert_eq!(got, want, "pinned client graph g{i} round {round}");
            }));
        }
    }
    let switcher = std::thread::spawn(move || {
        let got = run_client(addr, &switch_lines);
        assert_eq!(got, switch_want, "switching client");
    });
    for c in clients {
        c.join().unwrap();
    }
    switcher.join().unwrap();

    assert_eq!(state.catalog().len(), 3);
    assert!(state.catalog().stats().loads >= 2, "g1/g2 loaded lazily");
    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batched_sessions_match_line_at_a_time_sessions() {
    let dir = tmpdir("batch");
    let (_state, handle) = start_server(&dir, 8);
    let addr = handle.addr();

    // A batch spanning a `use` switch and an error line, against the
    // same lines sent unbatched.
    let mut body: Vec<String> = SCRIPT.iter().map(|s| s.to_string()).collect();
    body.push("use g1".into());
    body.extend(SCRIPT.iter().map(|s| s.to_string()));
    let unbatched = run_client(addr, &body);

    let mut batched_lines = vec![format!("batch {}", body.len())];
    batched_lines.extend(body.iter().cloned());
    let batched = run_client(addr, &batched_lines);
    assert_eq!(batched, unbatched, "batch is a pure transport optimization");

    // Split across two batches mid-stream: still identical.
    let mut split = vec![format!("batch {}", SCRIPT.len())];
    split.extend(SCRIPT.iter().map(|s| s.to_string()));
    split.push("use g1".into());
    split.push(format!("batch {}", SCRIPT.len()));
    split.extend(SCRIPT.iter().map(|s| s.to_string()));
    assert_eq!(run_client(addr, &split), unbatched);

    // A batch truncated by EOF answers the lines it received.
    let partial = vec![
        "batch 5".to_string(),
        "ping".to_string(),
        "select 2".to_string(),
    ];
    let got = run_client(addr, &partial);
    let want = run_client(addr, &partial[1..]);
    assert_eq!(got, want, "EOF flushes a partial batch");
    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_tim1_request_line_works_verbatim() {
    let dir = tmpdir("tim1");
    let (_state, handle) = start_server(&dir, 8);
    let addr = handle.addr();

    // The complete tim/1 request surface from docs/PROTOCOL.md, verbatim,
    // including framing rules (comments/blank lines answer nothing).
    let lines: Vec<String> = [
        "ping",
        "select 3",
        "select 3 eps=0.5",
        "select 3 ell=2",
        "select 3 eps=0.5 ell=2",
        "select 2 fast",
        "eval 0,1,2",
        "marginal 0,1 2",
        "# comment",
        "",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let got = run_client(addr, &lines);
    assert_eq!(got.len(), 8, "one answer per request, none for comments");
    assert_eq!(
        got[0], "pong tim/3",
        "ping reports the current protocol version"
    );
    for (i, prefix) in [
        (1, "seeds: "),
        (2, "seeds: "),
        (3, "seeds: "),
        (4, "seeds: "),
        (5, "seeds: "),
        (6, "spread: "),
        (7, "marginal: "),
    ] {
        assert!(
            got[i].starts_with(prefix),
            "tim/1 line {:?} answered {:?}",
            lines[i],
            got[i]
        );
    }
    // Unknown verbs still answer the tim/1-specified error shape.
    let err = run_client(addr, &["frobnicate".to_string()]);
    assert_eq!(err, vec!["error: unknown query 'frobnicate'".to_string()]);
    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn idle_graphs_are_evicted_and_reload_deterministically() {
    let dir = tmpdir("evict");
    // max_loaded = 1: with resident g0 pinned, the path graphs g1/g2
    // always exceed the budget once touched, so alternating between them
    // forces eviction + deterministic reload every time.
    let (state, handle) = start_server(&dir, 1);
    let addr = handle.addr();

    let session = |g: &str| {
        run_client(
            addr,
            &[
                format!("use {g}"),
                "select 4".to_string(),
                "eval 0,1".to_string(),
            ],
        )
    };
    let first_g1 = session("g1");
    let first_g2 = session("g2");
    for _ in 0..2 {
        assert_eq!(session("g1"), first_g1, "g1 reloads to identical answers");
        assert_eq!(session("g2"), first_g2, "g2 reloads to identical answers");
    }
    let stats = state.catalog().stats();
    assert!(stats.evictions >= 2, "evictions happened: {stats:?}");
    assert!(
        stats.loads >= 4,
        "graphs reloaded after eviction: {stats:?}"
    );
    assert!(
        state.catalog().loaded_count() <= 2,
        "resident g0 + at most one path graph resident"
    );
    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}
