//! In-process probe for the end-to-end benchmark in `perfbench/run.py`.
//!
//! ```text
//! perfbench-probe gen --seed S --n N --out graph.timg
//! perfbench-probe oneshot --graph G --k K --eps E --ell L --seed X --threads T --reps R
//! perfbench-probe answers --graph G --eps E --ell L --seed X --threads T --ks 1,2,3
//! perfbench-probe trace --graph G --eps E --ell L --seed X --k-max K --grow-k K2
//!     --threads T --mix mix.txt --cheap cheap.txt
//!     --restart restart.txt --dir D --spans spans.jsonl
//! perfbench-probe load --addr HOST:PORT --scripts s0.txt,s1.txt
//! perfbench-probe reads --addr HOST:PORT --script cheap.txt
//! perfbench-probe check-json report.json
//! perfbench-probe calibrate --bits B --steps S --threads T --reps R
//! ```
//!
//! Every subcommand prints one JSON object on stdout. `gen` writes the
//! benchmark graph the way `tim generate ba` + `tim snapshot --undirected
//! --weights wc` would. `oneshot` is the reference row: `TimPlus::run`
//! timed in-process. `answers` is the reference for many exact selects
//! at once: the `TimPlus::run(k)` answer for each k, from one shared
//! sample. `trace` is the traced per-layer run: it calls the
//! public functions of each layer (`tim_graph`, `tim_core`,
//! `tim_coverage`, `tim_engine`, `tim_server`), records one span per call
//! in memory, and writes the spans out when it ends. The arithmetic over
//! spans (medians, self time) lives in `run.py`, so it has one home.
//! `load` is the warm-mix client: one closed-loop connection and thread
//! per script, so its own overhead and jitter stay far below the cheap
//! verbs it times. `reads` is the cheap-read connection that runs beside
//! a writing connection: a closed loop over its script until stdin
//! closes. `calibrate` times a fixed piece of the benchmark's own work,
//! so `run.py` can tell the host's speed of the moment from the program's.

mod trace;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tim_core::parallel::{generate_rr_sets, shard_layout};
use tim_core::TimPlus;
use tim_coverage::{greedy_max_cover_indexed_stats, SetCollection};
use tim_diffusion::IndependentCascade;
use tim_engine::{PoolId, PoolStore, QueryEngine, SharedEngine};
use tim_graph::{gen, io, snapshot, weights, Graph, GraphStore, NodeId};
use tim_server::{
    parse_request, LabelMap, ParsedRequest, Query, Request, Server, ServerConfig, ServerState,
};
use trace::Tracer;

/// `--key value` flags.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut map = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .unwrap_or_else(|| fail(&format!("unexpected argument '{flag}'")));
            let value = it
                .next()
                .unwrap_or_else(|| fail(&format!("--{key} needs a value")));
            map.insert(key.to_string(), value.clone());
        }
        Args(map)
    }

    fn str(&self, key: &str) -> &str {
        self.0
            .get(key)
            .unwrap_or_else(|| fail(&format!("missing --{key}")))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> T {
        self.str(key)
            .parse()
            .unwrap_or_else(|_| fail(&format!("--{key}: not a number")))
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench-probe: {msg}");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        fail("missing subcommand (gen | oneshot | answers | trace | load | reads | check-json | calibrate)");
    };
    let out = match cmd.as_str() {
        "gen" => gen_graph(&Args::parse(rest)),
        "oneshot" => oneshot(&Args::parse(rest)),
        "trace" => run_trace(&Args::parse(rest)),
        "answers" => answers(&Args::parse(rest)),
        "load" => load_scripts(&Args::parse(rest)),
        "reads" => read_loop(&Args::parse(rest)),
        "check-json" => check_json(rest),
        "calibrate" => calibrate(&Args::parse(rest)),
        other => fail(&format!("unknown subcommand '{other}'")),
    };
    println!("{out}");
}

/// The host-speed probe: a fixed amount of work owned by the benchmark,
/// never by the program under test, timed `--reps` times on `--threads`
/// threads. Each thread takes `--steps` xorshift steps, each a dependent
/// load from a table of 2^`--bits` random links. `run.py` scales its
/// timings by this probe's median so a host that runs everything slower
/// for a minute does not read as a slower program.
fn calibrate(a: &Args) -> String {
    let bits: u32 = a.num("bits");
    let mask = (1u32 << bits) - 1;
    let mut table = vec![0u32; 1 << bits];
    let mut x = 0x9E37_79B9u32;
    for slot in table.iter_mut() {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        *slot = x & mask;
    }
    let steps: u64 = a.num("steps");
    let threads: usize = a.num("threads");
    let table = &table;
    let mut times = Vec::new();
    for _ in 0..a.num::<usize>("reps").max(1) {
        let t = Instant::now();
        std::thread::scope(|scope| {
            for id in 0..threads as u32 {
                scope.spawn(move || {
                    let (mut at, mut rng) = (id, 0x2545_F491u32 ^ id);
                    for _ in 0..steps {
                        rng ^= rng << 13;
                        rng ^= rng >> 17;
                        rng ^= rng << 5;
                        at = table[((at ^ rng) & mask) as usize];
                    }
                    std::hint::black_box(at);
                });
            }
        });
        times.push(t.elapsed().as_secs_f64());
    }
    format!("{{\"times_s\": {}}}", json_list(&times))
}

/// The benchmark graph: a Barabási–Albert graph, symmetrised through the
/// text edge-list loader exactly as `tim snapshot --undirected` does
/// (labels are interned in encounter order), with weighted-cascade IC
/// probabilities, written as a v1 `.timg` snapshot.
fn gen_graph(a: &Args) -> String {
    let g = gen::barabasi_albert(a.num("n"), 4, 0.1, a.num("seed"));
    let mut text = Vec::new();
    io::write_edge_list(&g, &mut text).expect("in-memory edge list");
    let mut loaded = io::read_edge_list(text.as_slice(), true).expect("re-read edge list");
    weights::assign_weighted_cascade(&mut loaded.graph);
    snapshot::save_snapshot(&loaded.graph, &loaded.labels, a.str("out"))
        .unwrap_or_else(|e| fail(&format!("writing snapshot: {e}")));
    format!(
        "{{\"n\": {}, \"m\": {}}}",
        loaded.graph.n(),
        loaded.graph.m()
    )
}

fn load(path: &str) -> (Graph, Vec<u64>) {
    let loaded = io::load_graph(path, false).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    (loaded.graph, loaded.labels)
}

fn tim_plus(a: &Args) -> TimPlus<IndependentCascade> {
    TimPlus::new(IndependentCascade)
        .epsilon(a.num("eps"))
        .ell(a.num("ell"))
        .seed(a.num("seed"))
        .threads(a.num("threads"))
}

/// The `seeds: …` answer line the server writes for seeds with these
/// labels.
fn seeds_line(labels: impl Iterator<Item = u64>) -> String {
    let labels: Vec<String> = labels.map(|l| l.to_string()).collect();
    format!("seeds: {}", labels.join(" "))
}

/// The reference row: `TimPlus::run(k)` timed in-process, `reps` times.
/// Every repetition must answer the same seeds.
fn oneshot(a: &Args) -> String {
    let (g, labels) = load(a.str("graph"));
    let tim = tim_plus(a);
    let k: usize = a.num("k");
    let mut times = Vec::new();
    let mut reply: Option<String> = None;
    for _ in 0..a.num::<usize>("reps").max(1) {
        let t = Instant::now();
        let r = std::hint::black_box(tim.run(&g, k));
        times.push(t.elapsed().as_secs_f64());
        let line = seeds_line(r.seeds.iter().map(|&v| labels[v as usize]));
        if reply.as_ref().is_some_and(|want| *want != line) {
            fail("TimPlus::run answered differently on a repeated run");
        }
        reply = Some(line);
    }
    format!(
        "{{\"times_s\": {}, \"reply\": {}}}",
        json_list(&times),
        json_str(&reply.expect("at least one run"))
    )
}

/// The `TimPlus::run(k)` answer for every k of `--ks`, without a full run
/// per k: every plan, one sample at the largest θ on the selection
/// stream, and greedy on each plan's shard-aligned θ-prefix (the sets a
/// run at that θ draws). Not timed; the reference for exact selects.
fn answers(a: &Args) -> String {
    let (g, labels) = load(a.str("graph"));
    let tim = tim_plus(a);
    let ks: Vec<usize> = a
        .str("ks")
        .split(',')
        .map(|k| {
            k.parse()
                .unwrap_or_else(|_| fail("--ks: not a list of numbers"))
        })
        .collect();
    let plans: Vec<_> = ks.iter().map(|&k| tim.plan(&g, k)).collect();
    let top = plans.iter().map(|p| p.theta).max().unwrap_or(1);
    let (pool, _) = generate_rr_sets(
        &g,
        &IndependentCascade,
        top,
        plans[0].select_seed,
        a.num("threads"),
    );
    let replies: Vec<String> = ks
        .iter()
        .zip(&plans)
        .map(|(&k, plan)| {
            let sub = carve(&pool, top, plan.theta);
            let (cover, _) = greedy_max_cover_indexed_stats(&sub, k);
            let line = seeds_line(cover.seeds.iter().map(|&v| labels[v as usize]));
            format!("\"{k}\": {}", json_str(&line))
        })
        .collect();
    format!("{{\"replies\": {{{}}}}}", replies.join(", "))
}

/// Parses a report with the repo's own JSON reader (`tim_bench::json`).
fn check_json(rest: &[String]) -> String {
    let path = rest
        .first()
        .unwrap_or_else(|| fail("check-json needs a file"));
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    match tim_bench::json::parse(&text) {
        Ok(_) => "{\"parsed\": true}".to_string(),
        Err(e) => fail(&format!("{path} does not parse: {e}")),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list<T: std::fmt::Display>(xs: &[T]) -> String {
    let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn read_lines(path: &str) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("{path}: {e}")))
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect()
}

/// The protocol verb of a request line, as the benchmark names it.
fn verb(query: &Query) -> &'static str {
    match query {
        Query::Select { fast: false, .. } => "select",
        Query::Select { fast: true, .. } => "select_fast",
        Query::Eval { .. } => "eval",
        Query::Marginal { .. } => "marginal",
        Query::Ping => "ping",
    }
}

fn parse_query(line: &str) -> Query {
    match parse_request(line) {
        ParsedRequest::Request(Request::Query(q)) => q,
        _ => fail(&format!("not an engine query: '{line}'")),
    }
}

/// Answers one engine query the way `tim_server`'s session does —
/// route, label mapping, engine call, answer line — with one span per
/// step under the request span `req_span`. `engine_span` names the
/// engine call.
fn traced_answer(
    tr: &mut Tracer,
    state: &ServerState<IndependentCascade>,
    line: &str,
    req_span: usize,
    req: u64,
    engine_span: &str,
) -> String {
    let s = tr.begin("server.parse", req_span, req);
    let query = parse_query(line);
    tr.end(s);

    let s = tr.begin("server.route", req_span, req);
    let graph = state
        .catalog()
        .get(state.default_graph())
        .unwrap_or_else(|e| fail(&e));
    let engine = match &query {
        Query::Select {
            fast: false,
            eps,
            ell,
            ..
        } => graph.engine_for(*eps, *ell),
        _ => graph.engine_for(None, None),
    };
    let labels = graph.labels();
    let dense = |ids: &[u64]| labels.map_all(ids).unwrap_or_else(|e| fail(&e));
    tr.end(s);

    match &query {
        Query::Select { k, fast, eps, ell } => {
            let s = tr.begin(engine_span, req_span, req);
            let out = if *fast {
                engine.select_fast(*k)
            } else {
                engine.select_with(*k, *eps, *ell)
            };
            tr.end(s);
            let s = tr.begin("server.reply", req_span, req);
            let line = seeds_line(out.seeds.iter().map(|&v| labels.label_of(v)));
            tr.end(s);
            line
        }
        Query::Eval { seeds } => {
            let seeds = dense(seeds);
            let s = tr.begin(engine_span, req_span, req);
            let spread = engine.spread(&seeds);
            tr.end(s);
            format!("spread: {spread:.2}")
        }
        Query::Marginal { base, cand } => {
            let (base, cand) = (dense(base), dense(cand));
            let &[cand] = cand.as_slice() else {
                fail("marginal: candidate must be a single id")
            };
            let s = tr.begin(engine_span, req_span, req);
            let gain = engine.marginal_gain(&base, cand);
            tr.end(s);
            format!("marginal: {gain:.2}")
        }
        Query::Ping => fail("ping is not part of any workload"),
    }
}

/// The `θ`-set prefix a fresh run would have sampled, carved out of a
/// pool of `pool_theta` sets (shard-aligned, as `tim_core::parallel`
/// lays them out), with its inverted index built.
fn carve(pool: &SetCollection, pool_theta: u64, theta: u64) -> SetCollection {
    let want = shard_layout(theta);
    let mut sub = SetCollection::with_capacity(pool.universe(), theta as usize, theta as usize * 2);
    let mut start = 0usize;
    for (i, &count) in shard_layout(pool_theta).iter().enumerate() {
        for j in 0..want.get(i).copied().unwrap_or(0) as usize {
            sub.push(pool.set(start + j));
        }
        start += count as usize;
    }
    sub.ensure_inverted_index();
    sub
}

/// A client connection to an in-process server, for timing requests
/// over TCP.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Wire {
    fn connect(addr: std::net::SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect in-process server");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        Wire {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
            buf: String::new(),
        }
    }

    /// Sends one request line; returns the reply and its latency in ns.
    fn ask(&mut self, line: &str) -> (String, u64) {
        let t = Instant::now();
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        self.buf.clear();
        self.reader.read_line(&mut self.buf).expect("read reply");
        (
            self.buf.trim_end().to_string(),
            t.elapsed().as_nanos() as u64,
        )
    }
}

/// Sends each script over its own connection, one thread per script,
/// each a closed loop; returns every reply with its latency in ns, and
/// the wall time from the first request to the last reply.
fn load_scripts(a: &Args) -> String {
    let addr: std::net::SocketAddr = a
        .str("addr")
        .parse()
        .unwrap_or_else(|_| fail("--addr: not HOST:PORT"));
    let scripts: Vec<Vec<String>> = a.str("scripts").split(',').map(read_lines).collect();
    let mut conns: Vec<Wire> = scripts.iter().map(|_| Wire::connect(addr)).collect();
    let t = Instant::now();
    let logs: Vec<Vec<(String, u64)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .zip(&scripts)
            .map(|(conn, script)| scope.spawn(move || script.iter().map(|l| conn.ask(l)).collect()))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread"))
            .collect()
    });
    let wall = t.elapsed().as_secs_f64();
    let conns: Vec<String> = logs.iter().map(|log| json_log(log)).collect();
    format!("{{\"wall_s\": {wall}, \"conns\": [{}]}}", conns.join(", "))
}

/// `[[ns, reply], …]` for one connection's replies.
fn json_log(log: &[(String, u64)]) -> String {
    let items: Vec<String> = log
        .iter()
        .map(|(reply, ns)| format!("[{ns}, {}]", json_str(reply)))
        .collect();
    format!("[{}]", items.join(", "))
}

/// One connection sending the script's lines in order, cycling, as a
/// closed loop, until stdin closes; then the request in flight finishes
/// and every reply is printed as `[start_ns, latency_ns, reply]`, its
/// start counted from the moment `connected` is printed. Prints
/// `connected` on its own line first, once the connection is open.
fn read_loop(a: &Args) -> String {
    let addr: std::net::SocketAddr = a
        .str("addr")
        .parse()
        .unwrap_or_else(|_| fail("--addr: not HOST:PORT"));
    let script = read_lines(a.str("script"));
    if script.is_empty() {
        fail("--script: no lines");
    }
    let mut conn = Wire::connect(addr);
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        flag.store(true, Ordering::Release);
    });
    let t0 = Instant::now();
    println!("connected");
    std::io::stdout().flush().expect("flush stdout");
    let mut log = Vec::new();
    for line in script.iter().cycle() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let start = t0.elapsed().as_nanos();
        let (reply, ns) = conn.ask(line);
        log.push(format!("[{start}, {ns}, {}]", json_str(&reply)));
    }
    format!("{{\"log\": [{}]}}", log.join(", "))
}

fn server_config(a: &Args, pool_dir: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        threads: a.num("threads"),
        epsilon: a.num("eps"),
        ell: a.num("ell"),
        seed: a.num("seed"),
        k_max: a.num("k-max"),
        pool_dir,
        ..ServerConfig::default()
    }
}

/// The traced per-layer run. See the module docs and `perfbench/README.md`
/// for which public call each span times.
fn run_trace(a: &Args) -> String {
    let dir = PathBuf::from(a.str("dir"));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail(&format!("{}: {e}", dir.display())));
    let threads: usize = a.num("threads");
    let k_max: usize = a.num("k-max");
    let grow_k: usize = a.num("grow-k");
    let mut tr = Tracer::new();
    let mut counts: BTreeMap<&str, f64> = BTreeMap::new();
    let mut failures: Vec<String> = Vec::new();
    let root = tr.begin("trace", 0, 0);

    // tim_graph: snapshot load, the server's start-up read.
    let mut loaded = None;
    for _ in 0..3 {
        let s = tr.begin("graph.load", root, 0);
        loaded = Some(load(a.str("graph")));
        tr.end(s);
    }
    let (graph, labels) = loaded.expect("loaded three times");
    let graph = Arc::new(graph);

    // tim_core: the one-shot run (estimation overhead) and every plan.
    let tim = tim_plus(a);
    let s = tr.begin("core.run", root, 0);
    let run = tim.run(&*graph, k_max);
    tr.end(s);
    counts.insert("core.plan_rr_sets", (run.total_rr_sets - run.theta) as f64);
    let reference = seeds_line(run.seeds.iter().map(|&v| labels[v as usize]));
    let mut plans = Vec::new();
    for k in 1..=k_max {
        let s = tr.begin("core.plan", root, 0);
        plans.push(tim.plan(&*graph, k));
        tr.end(s);
    }
    let s = tr.begin("core.plan.grow", root, 0);
    let grow_plan = tim.plan(&*graph, grow_k);
    tr.end(s);
    let theta_top = plans[k_max - 1].theta;

    // tim_core::parallel + tim_diffusion: RR sampling at θ(k_max) and θ(grow).
    for (name, theta) in [
        ("sample.k_max", theta_top),
        ("sample.grow", grow_plan.theta),
    ] {
        let s = tr.begin(name, root, 0);
        let sets = generate_rr_sets(
            &*graph,
            &IndependentCascade,
            theta,
            grow_plan.select_seed,
            threads,
        );
        tr.end(s);
        drop(std::hint::black_box(sets));
    }
    counts.insert("sample.k_max_sets", theta_top as f64);
    counts.insert("sample.grow_sets", grow_plan.theta as f64);

    // tim_engine: warm a fresh engine the way the server builds one.
    let engine = QueryEngine::with_store(
        GraphStore::from_arc(Arc::clone(&graph)),
        IndependentCascade,
        "ic",
    )
    .epsilon(a.num("eps"))
    .ell(a.num("ell"))
    .seed(a.num("seed"))
    .k_max(k_max);
    let shared = SharedEngine::new(engine);
    let s = tr.begin("engine.warm", root, 0);
    let pool_theta = shared.warm();
    tr.end(s);
    let engine = shared.into_inner();
    counts.insert("engine.pool_theta", pool_theta as f64);
    counts.insert("engine.theta_useful", theta_top as f64);
    counts.insert("engine.pool_bytes", engine.pool_memory_bytes() as f64);

    // tim_engine (store): spill the warm pool where a server with
    // `--pool-dir <dir>/pools` keeps its default graph's pools.
    let pool_dir = dir.join("pools");
    let store_root = pool_dir.join(tim_server::DEFAULT_GRAPH_NAME);
    let store = PoolStore::open(&store_root).unwrap_or_else(|e| fail(&e.to_string()));
    let s = tr.begin("engine.spill", root, 0);
    let spilled = store
        .spill(&engine.to_pool())
        .unwrap_or_else(|e| fail(&e.to_string()));
    tr.end(s);
    let file_bytes = std::fs::metadata(&spilled).map_or(0, |m| m.len());
    counts.insert("engine.pool_file_bytes", file_bytes as f64);
    let pool_id = PoolId::from_meta(&engine.pool_meta());
    for _ in 0..3 {
        let s = tr.begin("engine.restore", root, 0);
        let opened = PoolStore::open(&store_root).unwrap_or_else(|e| fail(&e.to_string()));
        let probed = opened
            .probe_backed(&pool_id, false)
            .unwrap_or_else(|e| fail(&e.to_string()));
        let Some(tim_engine::ProbedPool::Heap(pool)) = probed else {
            fail("spilled pool not found in its store");
        };
        let restored = QueryEngine::from_pool(Arc::clone(&graph), IndependentCascade, "ic", pool)
            .unwrap_or_else(|e| fail(&e.to_string()));
        tr.end(s);
        drop(std::hint::black_box(restored));
    }

    // The warm-mix state: the warm engine preloaded, every plan touched
    // once (the workload's set-up), then exact select vs greedy alone on
    // the same θ(k)-prefix.
    let state = Arc::new(ServerState::new(
        Arc::clone(&graph),
        LabelMap::new(labels.clone()),
        IndependentCascade,
        "ic",
        server_config(a, None),
    ));
    let shared = state.preload(engine);
    for k in 1..=k_max {
        let s = tr.begin("engine.replan", root, 0);
        shared.select(k);
        tr.end(s);
    }
    let pool = shared.to_pool();
    let (mut evals, mut rounds) = (0usize, 0usize);
    for (k, plan) in (1..=k_max).zip(&plans) {
        let sub = carve(&pool.sets, pool_theta, plan.theta);
        for _ in 0..3 {
            let s = tr.begin("engine.exact_select", root, 0);
            let exact = shared.select_with(k, None, None);
            tr.end(s);
            let s = tr.begin("coverage.greedy", root, 0);
            let (cover, stats) = greedy_max_cover_indexed_stats(&sub, k);
            tr.end(s);
            if cover.seeds != exact.seeds {
                failures.push(format!(
                    "greedy on the θ({k}) prefix disagrees with select {k}"
                ));
            }
            evals += stats.evals;
            rounds += stats.rounds;
        }
    }
    drop(pool);
    counts.insert("coverage.evals", evals as f64);
    counts.insert("coverage.rounds", rounds as f64);

    // tim_server: the warm-mix stream, untraced through a real session,
    // traced through the same public calls, and over TCP to a server on
    // the same state. The three run line by line in rotating order, so
    // drift and cache warmth fall evenly on each.
    let mix = read_lines(a.str("mix"));
    let handle = Server::bind(Arc::clone(&state), "127.0.0.1:0")
        .expect("bind in-process server")
        .start();
    let mut wire_conn = Wire::connect(handle.addr());
    let mut session = state.session();
    let (mut untraced, mut wire) = (Vec::new(), Vec::new());
    for (i, line) in mix.iter().enumerate() {
        let req = i as u64 + 1;
        let v = verb(&parse_query(line));
        let mut traced = String::new();
        for pass in 0..3 {
            match (i + pass) % 3 {
                0 => {
                    let t = Instant::now();
                    let answer = session.push_line(line).join("\n");
                    untraced.push((answer, t.elapsed().as_nanos() as u64));
                }
                1 => {
                    let r = tr.begin(&format!("request.warm.{v}"), root, req);
                    traced = traced_answer(&mut tr, &state, line, r, req, &format!("engine.{v}"));
                    tr.end(r);
                }
                _ => wire.push(wire_conn.ask(line)),
            }
        }
        let (u, w) = (&untraced[i].0, &wire[i].0);
        if *u != traced || u != w || u.starts_with("error") {
            failures.push(format!(
                "'{line}': session '{u}', traced '{traced}', tcp '{w}'"
            ));
        }
    }
    session.finish();
    drop(wire_conn);
    handle.stop();
    let verbs: Vec<&str> = mix.iter().map(|l| verb(&parse_query(l))).collect();
    drop(shared);
    drop(state);

    // Restart: a server over the spilled store restores on first route,
    // then replans every k and grows, while a second thread keeps reading.
    let state = Arc::new(ServerState::new(
        Arc::clone(&graph),
        LabelMap::new(labels.clone()),
        IndependentCascade,
        "ic",
        server_config(a, Some(pool_dir)),
    ));
    let restart = read_lines(a.str("restart"));
    let cheap = read_lines(a.str("cheap"));
    let writing = AtomicBool::new(true);
    let base = mix.len() as u64 + 1;
    let first = tr.begin("request.restart.select", root, base);
    let first_answer = traced_answer(&mut tr, &state, &restart[0], first, base, "engine.select");
    tr.end(first);
    if first_answer != reference {
        failures.push(format!(
            "restored '{}' != TimPlus::run: '{first_answer}'",
            restart[0]
        ));
    }
    let engine = state.default_engine();
    let dense = |ids: &[u64]| {
        state
            .default_state()
            .labels()
            .map_all(ids)
            .unwrap_or_else(|e| fail(&e))
    };
    let reads: Vec<Read> = cheap
        .iter()
        .map(|line| match parse_query(line) {
            Query::Select { k, fast: true, .. } => Read::Fast(k),
            Query::Eval { seeds } => Read::Eval(dense(&seeds)),
            Query::Marginal { base, cand } => Read::Marginal(dense(&base), dense(&cand)[0]),
            _ => fail(&format!("not a cheap read: '{line}'")),
        })
        .collect();
    let read_spans = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            // A second session's cheap reads, straight at the engine, as
            // a closed loop like the workload's second connection.
            let mut spans = Vec::new();
            let mut i = 0;
            while writing.load(Ordering::Acquire) {
                let start = Instant::now();
                match &reads[i % reads.len()] {
                    Read::Fast(k) => drop(std::hint::black_box(engine.select_fast(*k))),
                    Read::Eval(seeds) => drop(std::hint::black_box(engine.spread(seeds))),
                    Read::Marginal(base, cand) => {
                        std::hint::black_box(engine.marginal_gain(base, *cand));
                    }
                }
                spans.push((start, Instant::now()));
                i += 1;
            }
            spans
        });
        for (i, line) in restart.iter().enumerate().skip(1) {
            let req = base + i as u64;
            let k: usize = match parse_query(line) {
                Query::Select { k, .. } => k,
                _ => fail("restart stream holds exact selects only"),
            };
            let name = if k > k_max {
                "engine.grow"
            } else {
                "engine.replan"
            };
            let r = tr.begin("request.restart.select", root, req);
            traced_answer(&mut tr, &state, line, r, req, name);
            tr.end(r);
        }
        writing.store(false, Ordering::Release);
        reader.join().expect("reader thread")
    });
    for (start, end) in read_spans {
        tr.record("engine.read_during_write", root, 0, start, end);
    }
    let cache = state.cache_stats();
    counts.insert("server.cache.hits", cache.hits as f64);
    counts.insert("server.cache.misses", cache.misses as f64);
    counts.insert("server.cache.builds", cache.builds as f64);
    counts.insert("server.cache.loads", cache.loads as f64);
    tr.end(root);

    tr.write(Path::new(a.str("spans")))
        .unwrap_or_else(|e| fail(&format!("writing spans: {e}")));
    let samples = |xs: &[(String, u64)]| -> String {
        let items: Vec<String> = xs
            .iter()
            .zip(&verbs)
            .map(|((_, ns), v)| format!("[{}, {ns}]", json_str(v)))
            .collect();
        format!("[{}]", items.join(", "))
    };
    let counts: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let failures: Vec<String> = failures.iter().map(|f| json_str(f)).collect();
    format!(
        "{{\"counts\": {{{}}}, \"session_ns\": {}, \"tcp_ns\": {}, \"failures\": [{}], \"replays\": {}}}",
        counts.join(", "),
        samples(&untraced),
        samples(&wire),
        failures.join(", "),
        mix.len() * 3 + restart.len()
    )
}

/// One cheap read of the restart workload's second connection, with its
/// ids already mapped to dense node ids.
enum Read {
    Fast(usize),
    Eval(Vec<NodeId>),
    Marginal(Vec<NodeId>, NodeId),
}
