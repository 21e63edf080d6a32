//! TCP-level session behavior: framing, error replies, the pool cache's
//! cold-miss/hit/eviction lifecycle, oversized-line defense, idle
//! reaping, and a thousand fan-in sessions against a serial replay.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use tim_diffusion::IndependentCascade;
use tim_graph::{gen, weights};
use tim_server::{
    fanin, LabelMap, Server, ServerConfig, ServerHandle, ServerState, IDLE_TIMEOUT_REPLY,
};

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

/// Two workers over a warmed pool: every script below stays within the
/// warmed θ, so answers are interleaving-independent (the determinism
/// contract the transcript diff relies on).
fn start_warm(
    idle_timeout: Option<Duration>,
) -> (Arc<ServerState<IndependentCascade>>, ServerHandle) {
    let mut g = gen::barabasi_albert(300, 4, 0.0, 1);
    weights::assign_weighted_cascade(&mut g);
    let labels = LabelMap::identity(g.n());
    let state = Arc::new(ServerState::new(
        g,
        labels,
        IndependentCascade,
        "ic",
        ServerConfig {
            threads: 2,
            pool_cache: 4,
            epsilon: 0.8,
            ell: 1.0,
            seed: 7,
            k_max: 8,
            sample_threads: 1,
            idle_timeout,
            ..ServerConfig::default()
        },
    ));
    state.warm_default();
    let server = Server::bind(Arc::clone(&state), "127.0.0.1:0").unwrap();
    (state, server.start())
}

/// The transcript a script *must* produce: the same lines through the
/// same state's session machinery, serially.
fn serial_replay(state: &ServerState<IndependentCascade>, script: &[&str]) -> Vec<u8> {
    let mut session = state.session();
    let mut out = Vec::new();
    for line in script {
        for a in session.push_line(line) {
            out.extend_from_slice(a.as_bytes());
            out.push(b'\n');
        }
    }
    for a in session.finish() {
        out.extend_from_slice(a.as_bytes());
        out.push(b'\n');
    }
    out
}

fn wire(script: &[&str]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for line in script {
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
    }
    bytes
}

#[test]
fn thousand_concurrent_sessions_match_serial_replay() {
    let (state, handle) = start_warm(None);

    // A rotation of scripts covering the protocol surface: pool queries,
    // session verbs, batches (pipelined: the whole script is written
    // before any answer is read).
    let variants: Vec<Vec<&str>> = vec![
        vec!["ping", "select 3", "eval 0,1"],
        vec!["select 5", "marginal 0 1", "ping"],
        vec!["batch 3", "ping", "select 2", "eval 1,2"],
        vec!["graphs", "use default", "select 4 fast"],
        vec!["# comment", "", "stats", "select 1"],
    ];
    let expected: Vec<Vec<u8>> = variants.iter().map(|s| serial_replay(&state, s)).collect();

    const SESSIONS: usize = 1024;
    let scripts: Vec<Vec<u8>> = (0..SESSIONS)
        .map(|i| wire(&variants[i % variants.len()]))
        .collect();
    // 64 sessions in flight against 2 workers: most of them wait in the
    // accept backlog, as a thread-pool server's clients do.
    let report =
        fanin::drive_sessions(handle.addr(), &scripts, 64, Duration::from_secs(300)).unwrap();
    assert_eq!(report.outcomes.len(), SESSIONS);
    for (i, outcome) in report.outcomes.iter().enumerate() {
        let want = &expected[i % variants.len()];
        assert_eq!(
            &outcome.transcript,
            want,
            "session {i}: fan-in transcript diverged from serial replay\n got: {:?}\nwant: {:?}",
            String::from_utf8_lossy(&outcome.transcript),
            String::from_utf8_lossy(want),
        );
    }
    handle.stop();
}

/// Reads the idle notice and then EOF from a connection that sent
/// nothing.
fn assert_reaped(idle: TcpStream) {
    let mut gone = String::new();
    let mut idle_reader = BufReader::new(idle);
    idle_reader.read_line(&mut gone).unwrap();
    assert_eq!(gone.trim_end(), IDLE_TIMEOUT_REPLY);
    gone.clear();
    assert_eq!(idle_reader.read_line(&mut gone).unwrap(), 0, "then EOF");
}

#[test]
fn idle_connections_are_reaped_without_disturbing_active_ones() {
    let (_state, handle) = start_warm(Some(Duration::from_millis(300)));
    let addr = handle.addr();

    let idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut active = TcpStream::connect(addr).unwrap();
    active
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // Keep the active connection busy well past several idle timeouts.
    let mut active_reader = BufReader::new(active.try_clone().unwrap());
    let mut answer = String::new();
    for _ in 0..10 {
        active.write_all(b"ping\n").unwrap();
        answer.clear();
        active_reader.read_line(&mut answer).unwrap();
        assert_eq!(
            answer.trim_end(),
            "pong tim/3",
            "active session undisturbed"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // ~1s of silence vs a 300ms timeout: the idle connection must be
    // gone, with the best-effort notice first.
    assert_reaped(idle);

    // The active connection still finishes a clean session.
    active.write_all(b"ping\n").unwrap();
    answer.clear();
    active_reader.read_line(&mut answer).unwrap();
    assert_eq!(answer.trim_end(), "pong tim/3");
    drop((active, active_reader));

    // Both workers (threads = 2) held by connections that send nothing:
    // a third client is answered once the timeout frees one of them,
    // well within 2 s.
    let idle: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let started = std::time::Instant::now();
    let mut third = TcpStream::connect(addr).unwrap();
    third
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    third.write_all(b"ping\n").unwrap();
    let mut answer = String::new();
    BufReader::new(third)
        .read_line(&mut answer)
        .expect("the third client is answered within 2 s");
    assert_eq!(answer.trim_end(), "pong tim/3");
    assert!(started.elapsed() < Duration::from_secs(2));
    for conn in idle {
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_reaped(conn);
    }
    handle.stop();
}
