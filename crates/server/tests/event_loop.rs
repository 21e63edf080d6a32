//! Event-loop serving acceptance: thousands of truly concurrent
//! sessions produce byte-identical transcripts vs a serial replay, idle
//! connections are reaped without disturbing active ones (on both
//! serving cores, so idle clients cannot starve the thread pool's
//! workers either), admission control refuses over-cap connections,
//! graceful drain answers what is in flight, and the oversized-line
//! close discipline survives the nonblocking rewrite.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use tim_diffusion::IndependentCascade;
use tim_server::{
    fanin, LabelMap, Server, ServerConfig, ServerHandle, ServerState, AT_CAPACITY_REPLY,
    IDLE_TIMEOUT_REPLY, OVERSIZED_LINE_REPLY,
};

fn config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        pool_cache: 4,
        epsilon: 0.8,
        ell: 1.0,
        seed: 7,
        k_max: 8,
        sample_threads: 1,
        event_loop: true,
        ..ServerConfig::default()
    }
}

fn start(config: ServerConfig) -> (Arc<ServerState<IndependentCascade>>, ServerHandle) {
    let mut g = tim_graph::gen::barabasi_albert(300, 4, 0.0, 1);
    tim_graph::weights::assign_weighted_cascade(&mut g);
    let labels = LabelMap::identity(g.n());
    let state = Arc::new(ServerState::new(
        g,
        labels,
        IndependentCascade,
        "ic",
        config,
    ));
    // Warm the default pool: every script below stays within the warmed
    // θ, so answers are interleaving-independent (the determinism
    // contract the transcript diff relies on).
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
    let (state, handle) = start(config());
    let addr = handle.addr();

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
    // max_in_flight = session count: every session is open at once.
    let report = fanin::drive_sessions(addr, &scripts, SESSIONS, Duration::from_secs(300)).unwrap();
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

/// Idle reaping on one serving core: the epoll event loop, or the
/// thread pool (`event_loop = false`).
fn idle_reaping(event_loop: bool) {
    let mut cfg = config();
    cfg.event_loop = event_loop;
    cfg.idle_timeout = Some(Duration::from_millis(300));
    let (_state, handle) = start(cfg);
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

    if !event_loop {
        // Both workers (threads = 2) held by connections that send
        // nothing: a third client is answered once the timeout frees
        // one of them, well within 2 s.
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
    }
    handle.stop();
}

#[test]
fn idle_connections_are_reaped_without_disturbing_active_ones() {
    idle_reaping(true);
    idle_reaping(false);
}

#[test]
fn max_conns_refuses_and_recovers() {
    let mut cfg = config();
    cfg.max_conns = Some(2);
    let (_state, handle) = start(cfg);
    let addr = handle.addr();

    let ping = |stream: &mut TcpStream| {
        stream.write_all(b"ping\n").unwrap();
        let mut line = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert_eq!(line.trim_end(), "pong tim/3");
    };

    // Fill the admission budget and *confirm* both slots are counted
    // (the pong proves the connection was admitted, not just queued).
    let mut a = TcpStream::connect(addr).unwrap();
    ping(&mut a);
    let mut b = TcpStream::connect(addr).unwrap();
    ping(&mut b);

    // One over: refused with the capacity notice, then EOF.
    let over = TcpStream::connect(addr).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reply = String::new();
    let mut over_reader = BufReader::new(over);
    over_reader.read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), AT_CAPACITY_REPLY);
    reply.clear();
    assert_eq!(over_reader.read_line(&mut reply).unwrap(), 0);

    // Releasing a slot re-opens admission. Refused attempts can see a
    // reset instead of the notice (the refusal is best-effort), so the
    // retry loop tolerates any error and only counts a clean pong.
    drop(a);
    let mut admitted = None;
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(20));
        let Ok(mut c) = TcpStream::connect(addr) else {
            continue;
        };
        c.set_read_timeout(Some(Duration::from_secs(10))).ok();
        if c.write_all(b"ping\n").is_err() {
            continue;
        }
        let Ok(clone) = c.try_clone() else { continue };
        let mut line = String::new();
        if BufReader::new(clone).read_line(&mut line).is_err() {
            continue;
        }
        if line.trim_end() == "pong tim/3" {
            admitted = Some(c);
            break;
        }
    }
    assert!(admitted.is_some(), "slot freed by the close was reusable");
    handle.stop();
}

#[test]
fn graceful_drain_answers_in_flight_queries() {
    let (_state, handle) = start(config());
    let addr = handle.addr();

    // The client pipelines two requests and *never* half-closes: only
    // the drain can end this session.
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    conn.write_all(b"ping\nselect 3\n").unwrap();
    // Let the server take the bytes before stop flips.
    std::thread::sleep(Duration::from_millis(200));
    let stopper = std::thread::spawn(move || handle.stop());

    let mut transcript = String::new();
    BufReader::new(&mut conn)
        .read_to_string(&mut transcript)
        .unwrap();
    let lines: Vec<&str> = transcript.lines().collect();
    assert_eq!(
        lines.len(),
        2,
        "both in-flight requests answered: {lines:?}"
    );
    assert_eq!(lines[0], "pong tim/3");
    assert!(lines[1].starts_with("seeds: "), "got: {}", lines[1]);
    stopper.join().unwrap();
}

#[test]
fn oversized_line_is_answered_then_connection_drains() {
    let (_state, handle) = start(config());
    let addr = handle.addr();

    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // 2 MiB without a newline: over the cap, delivered while the server
    // is already discarding.
    let big = vec![b'a'; 2 << 20];
    conn.write_all(&big).unwrap();
    let mut reply = String::new();
    let mut reader = BufReader::new(conn);
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), OVERSIZED_LINE_REPLY);
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).unwrap(), 0, "half-closed");
    handle.stop();
}

#[test]
fn event_loop_matches_blocking_server_transcripts() {
    // The same scripts through both serving cores must agree byte for
    // byte — the "same state machine" claim, tested end to end.
    let script = [
        "ping", "select 3", "eval 0,1", "batch 2", "ping", "select 2",
    ];
    let run = |event_loop: bool| -> Vec<u8> {
        let mut cfg = config();
        cfg.event_loop = event_loop;
        let (_state, handle) = start(cfg);
        let report =
            fanin::drive_sessions(handle.addr(), &[wire(&script)], 1, Duration::from_secs(60))
                .unwrap();
        handle.stop();
        report.outcomes.into_iter().next().unwrap().transcript
    };
    let ev = run(true);
    let blocking = run(false);
    assert!(!ev.is_empty());
    assert_eq!(ev, blocking);
}
