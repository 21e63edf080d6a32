//! Multi-graph serving: batched vs unbatched sessions, and 1-graph vs
//! 3-graph catalogs.
//!
//! Every iteration runs one scripted TCP session end-to-end against a
//! running `tim/2` server whose pools are pre-warmed (sampling cost is
//! paid before timing, as in `serve_throughput`). Graphs match the
//! kick-tires shape (BA, `m = 4`, weighted cascade) at 2000 nodes.
//!
//! - `batch/{unbatched,batched}_64q` — the same 64 default-pool queries
//!   sent line-at-a-time vs as one `batch 64` unit, in two flavors: exact
//!   replay (`select k`) and prefix answering (`select k fast`). Both are
//!   µs-cheap per query once warm — an exact select answers from the
//!   answer its plan keeps after the first ask — so the one write and
//!   flush per batch show in both: two runs on a 2-vCPU Intel Xeon VM
//!   measured exact 656.3 → 150.9 and 498.7 → 174.1 µs (≈2.9–4.3×) and
//!   fast 532.9 → 157.7 and 754.8 → 167.9 µs (≈3.4–4.5×). Reads take no
//!   pool lock either way. The responses are byte-identical by contract
//!   either way.
//! - `catalog/graphs_{1,3}` — a session of 48 queries against a 1-graph
//!   catalog vs the same 48 spread round-robin over 3 graphs via `use`,
//!   measuring the cost of multi-tenant routing (per-graph pool caches,
//!   catalog lookups) relative to single-graph serving.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use tim_diffusion::IndependentCascade;
use tim_graph::{gen, weights};
use tim_server::{GraphCatalog, LabelMap, Server, ServerConfig, ServerHandle, ServerState};

fn config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        pool_cache: 2,
        epsilon: 0.5,
        ell: 1.0,
        seed: 7,
        k_max: 10,
        sample_threads: 0,
        ..ServerConfig::default()
    }
}

/// A warmed server over `graphs` kick-tires-shaped BA graphs.
fn start_server(graphs: usize) -> (Arc<ServerState<IndependentCascade>>, ServerHandle) {
    let catalog = GraphCatalog::new(IndependentCascade, "ic", config());
    for i in 0..graphs {
        let mut g = gen::barabasi_albert(2_000, 4, 0.1, i as u64 + 1);
        weights::assign_weighted_cascade(&mut g);
        let n = g.n();
        catalog
            .add_resident(format!("g{i}"), g, LabelMap::identity(n))
            .expect("unique bench graph names");
    }
    let state = Arc::new(ServerState::from_catalog(catalog, "g0").expect("g0 registered"));
    // Pay every graph's sampling cost before timing.
    for i in 0..graphs {
        state
            .catalog()
            .get(&format!("g{i}"))
            .expect("bench graph loads")
            .warm_default();
    }
    let handle = Server::bind(Arc::clone(&state), "127.0.0.1:0")
        .expect("bind")
        .start();
    (state, handle)
}

/// Runs one scripted session and returns the total response bytes.
fn run_session(addr: SocketAddr, lines: &[String]) -> usize {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut payload = String::new();
    for l in lines {
        payload.push_str(l);
        payload.push('\n');
    }
    stream.write_all(payload.as_bytes()).expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|l| l.expect("response line").len())
        .sum()
}

/// `count` warm default-pool queries (k cycling 1..=10), exact replay or
/// prefix answering.
fn query_lines(count: usize, fast: bool) -> Vec<String> {
    let suffix = if fast { " fast" } else { "" };
    (0..count)
        .map(|i| format!("select {}{suffix}", i % 10 + 1))
        .collect()
}

fn bench_batching(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch");
    group.sample_size(10);

    let (_state, handle) = start_server(1);
    let addr = handle.addr();
    for (tag, fast) in [("exact", false), ("fast", true)] {
        let queries = query_lines(64, fast);
        run_session(addr, &queries); // warm plans/covers outside timing
        group.bench_function(format!("unbatched_64q_{tag}"), |b| {
            b.iter(|| black_box(run_session(addr, &queries)));
        });
        let mut batched = vec![format!("batch {}", queries.len())];
        batched.extend(queries.iter().cloned());
        group.bench_function(format!("batched_64q_{tag}"), |b| {
            b.iter(|| black_box(run_session(addr, &batched)));
        });
    }
    handle.stop();
    group.finish();
}

fn bench_catalog_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("catalog");
    group.sample_size(10);

    for graphs in [1usize, 3] {
        let (_state, handle) = start_server(graphs);
        let addr = handle.addr();
        // 48 queries round-robin across the catalog: every 16th line
        // switches graphs in the 3-graph case (the `use` answers add
        // `graphs` lines to the stream; routing is what is measured).
        let mut lines = Vec::new();
        for g in 0..graphs {
            lines.push(format!("use g{g}"));
            lines.extend(query_lines(48 / graphs, false));
        }
        run_session(addr, &lines); // warm plans/covers outside timing
        group.bench_function(format!("graphs_{graphs}"), |b| {
            b.iter(|| black_box(run_session(addr, &lines)));
        });
        handle.stop();
    }
    group.finish();
}

criterion_group!(benches, bench_batching, bench_catalog_size);
criterion_main!(benches);
