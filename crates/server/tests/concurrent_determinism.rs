//! The serving determinism contract: N concurrent clients receive
//! responses byte-identical to a serial replay of the same commands
//! through an exclusive `QueryEngine`, for any interleaving.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use tim_diffusion::IndependentCascade;
use tim_engine::QueryEngine;
use tim_graph::{gen, io, weights, Graph};
use tim_server::{protocol, LabelMap, Server, ServerConfig, ServerState};

/// BA(300, 4, p = 0.1), symmetrised as `tim snapshot --undirected` does
/// (an edge-list round trip), with weighted-cascade probabilities. At
/// ε = 0.8 and seed 7, θ(k) rises with k past k_max = 8: θ(1..=8) ≤
/// 4,572 while θ(32) = 5,684, so `select 32` grows a warm pool.
fn wc_graph() -> Graph {
    let g = gen::barabasi_albert(300, 4, 0.1, 1);
    let mut text = Vec::new();
    io::write_edge_list(&g, &mut text).unwrap();
    let mut loaded = io::read_edge_list(text.as_slice(), true).unwrap();
    weights::assign_weighted_cascade(&mut loaded.graph);
    loaded.graph
}

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

/// Serial ground truth: the same lines through an exclusive engine with
/// the same provenance, via the very same protocol implementation.
fn serial_replay(lines: &[String]) -> Vec<String> {
    let g = wc_graph();
    let labels = LabelMap::identity(g.n());
    let cfg = config();
    let mut engine = QueryEngine::new(g, IndependentCascade, "ic")
        .epsilon(cfg.epsilon)
        .ell(cfg.ell)
        .seed(cfg.seed)
        .threads(cfg.sample_threads)
        .k_max(cfg.k_max);
    engine.warm();
    lines
        .iter()
        .filter_map(|l| protocol::handle_line(&mut engine, &labels, l).map(|r| r.line))
        .collect()
}

fn start_server() -> (
    Arc<ServerState<IndependentCascade>>,
    tim_server::ServerHandle,
) {
    let g = wc_graph();
    let labels = LabelMap::identity(g.n());
    let state = Arc::new(ServerState::new(
        g,
        labels,
        IndependentCascade,
        "ic",
        config(),
    ));
    let server = Server::bind(Arc::clone(&state), "127.0.0.1:0").unwrap();
    (state, server.start())
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

#[test]
fn interleaved_clients_get_byte_identical_answers() {
    // Every command stays within the warmed pool, so every answer —
    // including eval/marginal coverage values — is a pure function of
    // provenance + query, independent of interleaving.
    let script: Vec<String> = [
        "# warm-pool session",
        "select 1",
        "select 4",
        "marginal 0 1",
        "select 8",
        "eval 0,1,2",
        "",
        "select 2 fast",
        "marginal 0,1 2",
        "ping",
        "select 5",
        "bogus query",
        "eval 0,5",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let want = serial_replay(&script);
    assert_eq!(want.len(), 11, "9 answers + 1 pong + 1 error");

    let (_state, handle) = start_server();
    let addr = handle.addr();
    let clients: Vec<_> = (0..6)
        .map(|i| {
            let script = script.clone();
            std::thread::spawn(move || {
                // Rotate each client's command order so the worker
                // threads genuinely interleave different queries.
                let mut rotated: Vec<String> = script.clone();
                rotated.rotate_left(i % script.len());
                (rotated.clone(), run_client(addr, &rotated))
            })
        })
        .collect();

    // Answers must match a serial replay of each client's own order.
    for c in clients {
        let (sent, got) = c.join().unwrap();
        assert_eq!(got, serial_replay(&sent));
    }
    handle.stop();
}

#[test]
fn pool_growth_keeps_exact_replay_byte_identical() {
    // k = 32 > k_max = 8 needs θ(32) > max θ(1..=8), so the default pool
    // grows mid-session. Exact-replay selects carve their plan's
    // θ-prefix out of whatever the pool holds, so even clients racing
    // the growth get answers byte-identical to the serial replay.
    let script: Vec<String> = ["select 32", "select 3", "select 8", "select 1"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let want = serial_replay(&script);
    // Cheap reads answer over the whole pool, so a reader racing the
    // growth sees the pool from before it or from after it, line by line.
    let reads: Vec<String> = ["eval 0,1,2", "select 2 fast", "marginal 0,1 2", "select 5"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let reads_before = serial_replay(&reads);
    let grown: Vec<String> = std::iter::once("select 32".to_string())
        .chain(reads.iter().cloned())
        .collect();
    let reads_after = serial_replay(&grown)[1..].to_vec();
    assert_ne!(reads_before, reads_after, "growth must change cheap reads");

    let (state, handle) = start_server();
    let warm_theta = state.default_engine().pool_theta();
    let addr = handle.addr();
    let clients: Vec<_> = (0..4)
        .map(|i| {
            let script = script.clone();
            std::thread::spawn(move || {
                let mut rotated = script.clone();
                rotated.rotate_left(i % script.len());
                (rotated.clone(), run_client(addr, &rotated))
            })
        })
        .collect();
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let reads = reads.clone();
            std::thread::spawn(move || run_client(addr, &reads))
        })
        .collect();
    for c in clients {
        let (sent, got) = c.join().unwrap();
        // Same multiset of answers as the serial replay, in the client's
        // own command order.
        let mut expect: Vec<String> = serial_replay(&sent);
        assert_eq!(got, expect);
        expect.sort();
        let mut sorted_want = want.clone();
        sorted_want.sort();
        assert_eq!(expect, sorted_want);
    }
    for r in readers {
        let got = r.join().unwrap();
        assert_eq!(got.len(), reads.len());
        for (i, line) in got.iter().enumerate() {
            assert!(
                *line == reads_before[i] || *line == reads_after[i],
                "'{}' answered '{line}', neither the pre- nor the post-growth reply",
                reads[i]
            );
        }
    }
    let engine = state.default_engine();
    assert_eq!(
        engine.growth_epoch(),
        1,
        "select 32 must grow the pool once"
    );
    assert!(engine.pool_theta() > warm_theta);
    handle.stop();
}

#[test]
fn racing_first_asks_beside_a_growth_match_a_serial_replay() {
    // A warmed server holds every plan for k ≤ k_max but no answer: the
    // first ask of each k runs greedy and keeps what it found. Eight
    // sessions race on the same first asks (one on an ε override's own
    // pool) while a ninth grows the default pool past k_max. Each session
    // gets what the same lines get, alone, on another fresh server.
    let lines = |l: &[&str]| -> Vec<String> { l.iter().map(|s| s.to_string()).collect() };
    let script = lines(&[
        "select 3",
        "select 6",
        "select 2 eps=0.9",
        "select 8",
        "select 3",
    ]);
    let growth = lines(&["select 32", "select 6"]);
    let alone = |lines: &[String]| {
        let (state, handle) = start_server();
        state.warm_default();
        let got = run_client(handle.addr(), lines);
        handle.stop();
        got
    };
    let (want, want_growth) = (alone(&script), alone(&growth));
    for reply in want.iter().chain(&want_growth) {
        assert!(reply.starts_with("seeds: "), "{reply}");
    }

    let (state, handle) = start_server();
    state.warm_default();
    let addr = handle.addr();
    let start = Arc::new(Barrier::new(9));
    let session = |lines: &Vec<String>| {
        let (lines, start) = (lines.clone(), Arc::clone(&start));
        std::thread::spawn(move || {
            start.wait();
            run_client(addr, &lines)
        })
    };
    let racers: Vec<_> = (0..8).map(|_| session(&script)).collect();
    let grower = session(&growth);
    for racer in racers {
        assert_eq!(racer.join().unwrap(), want);
    }
    assert_eq!(grower.join().unwrap(), want_growth);
    assert_eq!(
        state.default_engine().growth_epoch(),
        1,
        "select 32 grew the pool"
    );
    handle.stop();
}
