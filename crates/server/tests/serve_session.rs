//! TCP-level session behavior: framing, error replies, the pool cache's
//! cold-miss/hit/eviction lifecycle, and oversized-line defense.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use tim_diffusion::IndependentCascade;
use tim_graph::{gen, weights};
use tim_server::{LabelMap, Server, ServerConfig, ServerHandle, ServerState};

fn start(pool_cache: usize) -> (Arc<ServerState<IndependentCascade>>, ServerHandle) {
    let mut g = gen::barabasi_albert(150, 3, 0.0, 2);
    weights::assign_weighted_cascade(&mut g);
    let labels = LabelMap::identity(g.n());
    let state = Arc::new(ServerState::new(
        g,
        labels,
        IndependentCascade,
        "ic",
        ServerConfig {
            threads: 2,
            pool_cache,
            epsilon: 1.0,
            ell: 1.0,
            seed: 5,
            k_max: 4,
            sample_threads: 1,
            ..ServerConfig::default()
        },
    ));
    let server = Server::bind(Arc::clone(&state), "127.0.0.1:0").unwrap();
    let handle = server.start();
    (state, handle)
}

fn session(addr: SocketAddr, input: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(input.as_bytes()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    BufReader::new(stream).lines().map(|l| l.unwrap()).collect()
}

#[test]
fn one_answer_line_per_request_line_matches_handle() {
    let (state, handle) = start(4);
    let input = "ping\nselect 2\n# comment\n\neval 0,1\nmarginal 0 1\nnope\n";
    let got = session(handle.addr(), input);
    let want: Vec<String> = input.lines().filter_map(|l| state.handle(l)).collect();
    assert_eq!(got, want);
    assert_eq!(got.len(), 5, "comments and blanks produce no answer");
    assert_eq!(got[0], "pong tim/3");
    assert!(got[4].starts_with("error: unknown query"));
    handle.stop();
}

#[test]
fn cache_lifecycle_over_tcp_cold_miss_hit_evict() {
    let (state, handle) = start(2);
    let addr = handle.addr();
    assert_eq!(state.default_state().cached_pools(), 0);

    // Cold miss: first default query builds the pool.
    session(addr, "select 2\n");
    let s1 = state.cache_stats();
    assert_eq!((s1.misses, s1.evictions), (1, 0));
    assert_eq!(state.default_state().cached_pools(), 1);

    // Hit: a second connection reuses it.
    session(addr, "select 2\nselect 3\n");
    assert_eq!(state.cache_stats().misses, 1);

    // Distinct ε mixes get their own pools; capacity 2 forces the LRU
    // (the default pool, untouched since) out on the third mix.
    session(addr, "select 2 eps=0.9\n");
    assert_eq!(state.default_state().cached_pools(), 2);
    session(addr, "select 2 eps=0.8\n");
    let s2 = state.cache_stats();
    assert_eq!(state.default_state().cached_pools(), 2);
    assert_eq!(s2.evictions, 1);

    // The evicted default pool is a cold miss again — lazily rebuilt,
    // same answers (provenance-determined).
    let a = session(addr, "select 2\n");
    let b = session(addr, "select 2\n");
    assert_eq!(a, b);
    assert!(state.cache_stats().misses >= 4);
    handle.stop();
}

#[test]
fn oversized_line_answers_error_and_closes() {
    let (_state, handle) = start(1);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // 1 MiB + slack of 'a' with no newline.
    let chunk = vec![b'a'; (1 << 20) + 64];
    stream.write_all(&chunk).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let lines: Vec<String> = BufReader::new(stream).lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines.len(), 1);
    assert!(lines[0].starts_with("error: request line exceeds"));
    handle.stop();
}

#[test]
fn line_of_exactly_the_limit_is_served() {
    // The 1 MiB cap excludes the newline: a comment line of exactly
    // 2^20 content bytes must pass, and the session must continue.
    let (_state, handle) = start(1);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut comment = vec![b'#'; 1];
    comment.resize(1 << 20, b'a');
    stream.write_all(&comment).unwrap();
    stream.write_all(b"\nping\n").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let lines: Vec<String> = BufReader::new(stream).lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines, vec!["pong tim/3".to_string()]);
    handle.stop();
}

#[test]
fn many_sequential_connections_are_served() {
    let (_state, handle) = start(1);
    let addr = handle.addr();
    let first = session(addr, "select 3\n");
    for _ in 0..10 {
        assert_eq!(session(addr, "select 3\n"), first);
    }
    handle.stop();
}
