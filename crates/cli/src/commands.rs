//! The eight subcommands: select, evaluate, stats, generate, snapshot,
//! query, serve, client.

use crate::args::{parse_id_list, Args, Spec};
use std::io::{BufRead, Read, Write};
use std::sync::Arc;
use tim_baselines::{
    celf::CelfGreedy, degree_discount::DegreeDiscount, high_degree::HighDegree, irie::Irie,
    pagerank::PageRank, ris::Ris, simpath::SimPath, SeedSelector,
};
use tim_core::{Imm, Tim, TimPlus};
use tim_diffusion::{
    DiffusionModel, IndependentCascade, LinearThreshold, ModelKind, SpreadEstimator,
};
use tim_engine::{QueryEngine, RrPool};
use tim_eval::Dataset;
use tim_graph::catalog::check_accuracy;
use tim_graph::io::LoadedGraph;
use tim_graph::{analysis, io, snapshot, weights, Graph, GraphStore, NodeId};
use tim_server::{
    CappedLine, CappedLineReader, GraphCatalog, LabelMap, Server, ServerConfig, ServerState,
    DEFAULT_GRAPH_NAME, OVERSIZED_LINE_REPLY,
};

/// Usage text printed on errors.
pub const USAGE: &str = "\
usage:
  tim select   <graph> -k <K> [--algo tim+|tim|imm|ris|celf|celf++|greedy|irie|simpath|degree|degreediscount|pagerank]
               [--model ic|lt] [--weights wc|lt|keep|const:<p>|tri] [--eps 0.1] [--ell 1.0]
               [--seed 0] [--runs 10000] [--undirected] [--quiet]
  tim evaluate <graph> --seeds <id,id,...> [--model ic|lt] [--weights wc|lt|keep|const:<p>|tri]
               [--runs 10000] [--seed 0] [--undirected]
  tim stats    <graph> [--undirected]
  tim generate <ba|gnm|ws|powerlaw|nethept|epinions|dblp|livejournal|twitter>
               --out <path> [--n 10000] [--param 4] [--scale 1.0] [--seed 0]
  tim snapshot <graph> --out <path.timg> [--weights keep|wc|lt|const:<p>|tri]
               [--seed 0] [--undirected]
               (writes the page-aligned, mmap-able v2 layout; --out may
                name the input itself)
  tim query    [<graph>] [--graph <name>=<path>[::<k=v,...>]]... [--graphs <dir>]
               [--default-graph <name>] [--max-loaded 8] [--pool <path.timp>]
               [--pool-dir <dir>] [--persist-pools] [--admin]
               [-k <K=50>] [--model ic|lt] [--weights wc|...] [--eps 0.1] [--ell 1.0]
               [--seed 0] [--pool-cache 4] [--undirected] [--quiet]
               (reads line-delimited tim/3 queries from stdin:
                  select <k> [fast] [eps=<v>] [ell=<v>]
                  eval <id,id,...>
                  marginal <id,id,...> <cand-id>
                  use <graph> | graphs | stats | batch <n> | ping
                  attach <name>=<path>[::<k=v,...>] | detach <name>
                  persist | stats pools         [admin verbs; need --admin])
  tim serve    [<graph>] [--graph <name>=<path>[::<k=v,...>]]... [--graphs <dir>]
               [--default-graph <name>] [--max-loaded 8]
               [--pool-dir <dir>] [--persist-pools] [--admin]
               [--addr 127.0.0.1:7171] [--threads 4] [--pool-cache 4]
               [--event-loop] [--idle-timeout <secs>] [--max-conns <n>]
               [-k <K=50>] [--model ic|lt] [--weights wc|...] [--eps 0.1] [--ell 1.0]
               [--seed 0] [--pool <path.timp>] [--undirected] [--quiet]
               (serves the tim/3 query protocol over TCP; prints
                `listening on <addr>` on stdout when bound — see docs/PROTOCOL.md;
                --idle-timeout closes connections silent that long, on
                either core; --event-loop serves via epoll reactor shards
                instead of thread-per-connection workers: concurrency
                bounded by fds, with --max-conns admission)
  tim client   --addr <host:port> [--timeout <secs>]
               (pipes line-delimited queries from stdin to a running server,
                answers to stdout; exits nonzero if any response is `error: …`;
                --timeout bounds connect, reads, and writes instead of
                hanging forever)

  <graph> is a SNAP-style text edge list or a binary .timg snapshot
  (auto-detected by content, not extension). `query` and `serve` host a
  multi-graph catalog: the positional graph (if given) is named `default`,
  each --graph adds a lazily loaded named graph, and --graphs scans a
  directory of .timg/.txt/.edges files (stems become names). A --graph
  spec may carry per-graph overrides after `::` (model=ic|lt, eps=, ell=,
  seed=, k=, weights=), replacing the global defaults for that graph.
  With --pool-dir every graph keeps its RR-set pools in <dir>/<name>/
  (read on start — a warm restart skips the pool builds); --persist-pools
  additionally writes newly built or grown pools back automatically.
  Binary files (.timg graphs, .timp pools) have one format, v2: it is
  mapped read-only and serves only after every check passes, while text
  graphs load onto the heap; answers are the same either way. An older
  .timg is refused (re-run `tim snapshot` on its text source); an older
  pool in a --pool-dir is quarantined and rebuilt. A served file must be
  replaced by rename (as every `tim` writer does), never rewritten in
  place.";

// The flags each subcommand reads; `dispatch` rejects any other.
const SELECT: Spec = Spec {
    values: &[
        "k", "algo", "model", "weights", "eps", "ell", "seed", "runs",
    ],
    switches: &["undirected", "quiet"],
};
const EVALUATE: Spec = Spec {
    values: &["seeds", "model", "weights", "runs", "seed"],
    switches: &["undirected"],
};
const STATS: Spec = Spec {
    values: &["weights", "seed"],
    switches: &["undirected"],
};
const GENERATE: Spec = Spec {
    values: &["out", "n", "param", "scale", "seed"],
    switches: &[],
};
const SNAPSHOT: Spec = Spec {
    values: &["out", "weights", "seed"],
    switches: &["undirected"],
};
const QUERY: Spec = Spec {
    values: &[
        "graph",
        "graphs",
        "default-graph",
        "max-loaded",
        "pool",
        "pool-dir",
        "pool-cache",
        "k",
        "model",
        "weights",
        "eps",
        "ell",
        "seed",
    ],
    switches: &["persist-pools", "admin", "undirected", "quiet"],
};
const SERVE: Spec = Spec {
    values: &[
        "graph",
        "graphs",
        "default-graph",
        "max-loaded",
        "pool",
        "pool-dir",
        "pool-cache",
        "k",
        "model",
        "weights",
        "eps",
        "ell",
        "seed",
        "addr",
        "threads",
        "idle-timeout",
        "max-conns",
    ],
    switches: &[
        "persist-pools",
        "admin",
        "undirected",
        "quiet",
        "event-loop",
    ],
};
const CLIENT: Spec = Spec {
    values: &["addr", "timeout"],
    switches: &[],
};

/// A subcommand's body, run on its parsed flags.
type Command = fn(&Args) -> Result<(), String>;

/// Entry point: dispatches on the subcommand.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let (cmd, rest) = argv
        .split_first()
        .ok_or_else(|| "missing subcommand".to_string())?;
    let (run, spec): (Command, &Spec) = match cmd.as_str() {
        "select" => (select, &SELECT),
        "evaluate" => (evaluate, &EVALUATE),
        "stats" => (stats, &STATS),
        "generate" => (generate, &GENERATE),
        "snapshot" => (snapshot_cmd, &SNAPSHOT),
        "query" => (query, &QUERY),
        "serve" => (serve, &SERVE),
        "client" => (client, &CLIENT),
        other => return Err(format!("unknown subcommand '{other}'")),
    };
    run(&Args::parse(rest, spec).map_err(|e| format!("{cmd}: {e}"))?)
}

/// Applies a `--weights` spec to a graph. `seed` perturbs the seeded
/// models (lt/tri) exactly as `select`/`evaluate` always have. The spec
/// grammar is owned by `tim_graph::weights::apply_spec` — the same code
/// the server-side graph catalog uses for lazy loads, so the eager CLI
/// path and lazy serving path cannot drift.
fn apply_weights(graph: &mut Graph, spec: &str, seed: u64) -> Result<(), String> {
    weights::apply_spec(graph, spec, seed).map_err(|e| e.to_string())
}

/// Loads the input graph (text or `.timg`, sniffed by content) and applies
/// the requested weight model.
fn load(args: &Args) -> Result<LoadedGraph, String> {
    let path = args.positional(0, "input graph path")?;
    let mut loaded = io::load_graph(path, args.switch("undirected"))
        .map_err(|e| format!("loading {path}: {e}"))?;
    let seed: u64 = args.get_parsed("seed", 0u64)?;
    apply_weights(&mut loaded.graph, args.get("weights").unwrap_or("wc"), seed)?;
    Ok(loaded)
}

#[allow(clippy::too_many_arguments)] // flat plumbing of CLI flags
fn run_selection<M: DiffusionModel + Sync + Clone>(
    algo: &str,
    model: M,
    graph: &Graph,
    k: usize,
    eps: f64,
    ell: f64,
    seed: u64,
    runs: usize,
) -> Result<(Vec<NodeId>, String), String> {
    let seeds = match algo {
        "tim+" => {
            TimPlus::new(model)
                .epsilon(eps)
                .ell(ell)
                .seed(seed)
                .run(graph, k)
                .seeds
        }
        "tim" => {
            Tim::new(model)
                .epsilon(eps)
                .ell(ell)
                .seed(seed)
                .run(graph, k)
                .seeds
        }
        "imm" => {
            Imm::new(model)
                .epsilon(eps)
                .ell(ell)
                .seed(seed)
                .run(graph, k)
                .seeds
        }
        "ris" => Ris::new(model)
            .epsilon(eps.max(0.3))
            .tau_constant(0.1)
            .seed(seed)
            .select(graph, k),
        "celf" => CelfGreedy::new(model)
            .variant(tim_baselines::celf::CelfVariant::Celf)
            .runs(runs)
            .seed(seed)
            .select(graph, k),
        "celf++" => CelfGreedy::new(model)
            .variant(tim_baselines::celf::CelfVariant::CelfPlusPlus)
            .runs(runs)
            .seed(seed)
            .select(graph, k),
        "greedy" => CelfGreedy::new(model)
            .variant(tim_baselines::celf::CelfVariant::Plain)
            .runs(runs)
            .seed(seed)
            .select(graph, k),
        "irie" => Irie::new(model).seed(seed).select(graph, k),
        other => return Err(format!("unknown --algo '{other}'")),
    };
    Ok((seeds, algo.to_string()))
}

fn select(args: &Args) -> Result<(), String> {
    let loaded = load(args)?;
    let g = &loaded.graph;
    let k: usize = args.get_parsed("k", 0usize)?;
    if k == 0 {
        return Err("select: -k <K> is required and must be positive".into());
    }
    let algo = args.get("algo").unwrap_or("tim+").to_lowercase();
    let model_name = args.get("model").unwrap_or("ic").to_lowercase();
    let (eps, ell) = accuracy_flags(args)?;
    let seed: u64 = args.get_parsed("seed", 0u64)?;
    let runs: usize = args.get_parsed("runs", 10_000usize)?;

    // Model-independent heuristics first.
    let seeds = match algo.as_str() {
        "degree" => HighDegree.select(g, k),
        "degreediscount" => DegreeDiscount::new().select(g, k),
        "pagerank" => PageRank::new().select(g, k),
        "simpath" => SimPath::new().select(g, k),
        _ => match model_name.as_str() {
            "ic" => run_selection(&algo, IndependentCascade, g, k, eps, ell, seed, runs)?.0,
            "lt" => run_selection(&algo, LinearThreshold, g, k, eps, ell, seed, runs)?.0,
            other => return Err(format!("unknown --model '{other}'")),
        },
    };

    let labels: Vec<u64> = seeds.iter().map(|&v| loaded.label_of(v)).collect();
    if args.switch("quiet") {
        for l in &labels {
            println!("{l}");
        }
        return Ok(());
    }
    println!(
        "graph: n = {}, m = {} | algo = {algo}, model = {model_name}, k = {k}",
        g.n(),
        g.m()
    );
    println!("seeds (original labels): {labels:?}");
    let spread = match model_name.as_str() {
        "lt" => SpreadEstimator::new(LinearThreshold)
            .runs(runs)
            .seed(seed ^ 0xE)
            .estimate(g, &seeds),
        _ => SpreadEstimator::new(IndependentCascade)
            .runs(runs)
            .seed(seed ^ 0xE)
            .estimate(g, &seeds),
    };
    println!("estimated spread ({runs} MC runs): {spread:.1}");
    Ok(())
}

fn evaluate(args: &Args) -> Result<(), String> {
    let loaded = load(args)?;
    let g = &loaded.graph;
    let wanted = parse_id_list(
        args.get("seeds")
            .ok_or_else(|| "evaluate: --seeds <id,id,...> is required".to_string())?,
    )?;
    if wanted.is_empty() {
        return Err("evaluate: --seeds list is empty".into());
    }
    // Map original labels back to dense ids.
    let mut seeds = Vec::with_capacity(wanted.len());
    for label in &wanted {
        let dense = loaded
            .labels
            .iter()
            .position(|l| l == label)
            .ok_or_else(|| format!("seed label {label} not present in the graph"))?;
        seeds.push(dense as NodeId);
    }
    let runs: usize = args.get_parsed("runs", 10_000usize)?;
    let seed: u64 = args.get_parsed("seed", 0u64)?;
    let (spread, stderr) = match args.get("model").unwrap_or("ic") {
        "lt" => SpreadEstimator::new(LinearThreshold)
            .runs(runs)
            .seed(seed)
            .estimate_with_stderr(g, &seeds),
        "ic" => SpreadEstimator::new(IndependentCascade)
            .runs(runs)
            .seed(seed)
            .estimate_with_stderr(g, &seeds),
        other => return Err(format!("unknown --model '{other}'")),
    };
    println!(
        "E[I(S)] ≈ {spread:.2} ± {:.2} (|S| = {}, {runs} runs)",
        2.0 * stderr,
        seeds.len()
    );
    Ok(())
}

fn stats(args: &Args) -> Result<(), String> {
    let loaded = load(args)?;
    let g = &loaded.graph;
    let ds = g.degree_stats();
    println!("nodes:          {}", g.n());
    println!("arcs:           {}", g.m());
    println!("avg degree:     {:.2}", ds.avg_degree);
    println!("max out-degree: {}", ds.max_out_degree);
    println!("max in-degree:  {}", ds.max_in_degree);
    println!("largest SCC:    {}", analysis::largest_scc_size(g));
    let h = analysis::in_degree_histogram(g);
    for d in [1usize, 10, 100] {
        if d <= h.max_degree() {
            println!("P(indeg >= {d}): {:.4}", h.tail_fraction(d));
        }
    }
    Ok(())
}

fn generate(args: &Args) -> Result<(), String> {
    let kind = args.positional(0, "generator kind")?;
    let out = args
        .get("out")
        .ok_or_else(|| "generate: --out <path> is required".to_string())?;
    let n: usize = args.get_parsed("n", 10_000usize)?;
    let param: f64 = args.get_parsed("param", 4.0f64)?;
    let scale: f64 = args.get_parsed("scale", 1.0f64)?;
    let seed: u64 = args.get_parsed("seed", 0u64)?;

    let dataset = |d: Dataset| d.build(scale, seed);
    let g = match kind {
        "ba" => tim_graph::gen::barabasi_albert(n, param.max(1.0) as usize, 0.1, seed),
        "gnm" => tim_graph::gen::erdos_renyi_gnm(n, (n as f64 * param) as usize, seed),
        "ws" => tim_graph::gen::watts_strogatz(n, param.max(1.0) as usize, 0.1, seed),
        "powerlaw" => tim_graph::gen::powerlaw_configuration(n, 2.5, param, n / 4, seed),
        "nethept" => dataset(Dataset::NetHept),
        "epinions" => dataset(Dataset::Epinions),
        "dblp" => dataset(Dataset::Dblp),
        "livejournal" => dataset(Dataset::LiveJournal),
        "twitter" => dataset(Dataset::Twitter),
        other => return Err(format!("unknown generator '{other}'")),
    };
    io::save_edge_list(&g, out).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {} nodes / {} arcs to {out}", g.n(), g.m());
    Ok(())
}

fn snapshot_cmd(args: &Args) -> Result<(), String> {
    let path = args.positional(0, "input graph path")?;
    let out = args
        .get("out")
        .ok_or_else(|| "snapshot: --out <path.timg> is required".to_string())?;
    let seed: u64 = args.get_parsed("seed", 0u64)?;

    let t0 = std::time::Instant::now();
    let mut loaded = io::load_graph(path, args.switch("undirected"))
        .map_err(|e| format!("loading {path}: {e}"))?;
    let parse_time = t0.elapsed();
    // Default "keep": snapshots preserve the source probabilities so that
    // `select --weights wc` behaves identically on text and snapshot
    // input. Pass --weights explicitly to bake a model in (then query
    // with --weights keep).
    apply_weights(
        &mut loaded.graph,
        args.get("weights").unwrap_or("keep"),
        seed,
    )?;

    // The file is replaced by rename, so `out` may be the input itself,
    // still mapped above.
    snapshot::save_snapshot(&loaded.graph, &loaded.labels, out)
        .map_err(|e| format!("writing {out}: {e}"))?;

    // Reload to verify the round trip and measure the binary path: the
    // loader maps the new file and checks every section.
    let t1 = std::time::Instant::now();
    let reloaded = io::load_graph(out, false).map_err(|e| format!("verifying {out}: {e}"))?;
    let load_time = t1.elapsed();
    if snapshot::graph_checksum(&reloaded.graph) != snapshot::graph_checksum(&loaded.graph)
        || reloaded.labels != loaded.labels
    {
        return Err(format!("round-trip verification failed for {out}"));
    }

    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    println!(
        "wrote {out}: {} nodes / {} arcs ({bytes} bytes)",
        reloaded.graph.n(),
        reloaded.graph.m()
    );
    let ratio = parse_time.as_secs_f64() / load_time.as_secs_f64().max(1e-9);
    println!("source load: {parse_time:.2?}; snapshot load: {load_time:.2?} ({ratio:.1}x)");
    Ok(())
}

/// Checks that an explicitly passed flag agrees with the value a loaded
/// pool was built with (pools pin their configuration; silently ignoring
/// a contradicting flag would be worse than an error).
fn check_pool_flag<T: PartialEq + std::fmt::Display>(
    flag: &str,
    given: Option<T>,
    pool_value: T,
) -> Result<(), String> {
    match given {
        Some(v) if v != pool_value => Err(format!(
            "--{flag} {v} contradicts the pool (built with {flag} = {pool_value}); \
             drop the flag or delete the pool file to rebuild"
        )),
        _ => Ok(()),
    }
}

/// The `--eps`/`--ell` flags, each checked where it enters.
fn accuracy_flags(args: &Args) -> Result<(f64, f64), String> {
    let eps = check_accuracy("--eps", args.get_parsed("eps", 0.1f64)?)?;
    let ell = check_accuracy("--ell", args.get_parsed("ell", 1.0f64)?)?;
    Ok((eps, ell))
}

/// Builds the shared server configuration from `query`/`serve` flags.
fn server_config(args: &Args, quiet: bool) -> Result<ServerConfig, String> {
    let (epsilon, ell) = accuracy_flags(args)?;
    let config = ServerConfig {
        threads: args.get_parsed("threads", 4usize)?,
        pool_cache: args.get_parsed("pool-cache", 4usize)?,
        epsilon,
        ell,
        seed: args.get_parsed("seed", 0u64)?,
        k_max: args.get_parsed("k", 50usize)?,
        sample_threads: 0,
        verbose: !quiet,
        weights: args.get("weights").unwrap_or("wc").to_string(),
        undirected: args.switch("undirected"),
        max_loaded: args.get_parsed("max-loaded", 8usize)?,
        pool_dir: args.get("pool-dir").map(std::path::PathBuf::from),
        persist_pools: args.switch("persist-pools"),
        admin: args.switch("admin"),
        event_loop: args.switch("event-loop"),
        idle_timeout: match args.get("idle-timeout") {
            None => None,
            Some(v) => {
                // try_from_secs_f64 also rejects NaN and out-of-range
                // values that from_secs_f64 would panic on.
                let dur = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .and_then(|s| std::time::Duration::try_from_secs_f64(s).ok())
                    .ok_or_else(|| format!("--idle-timeout '{v}' must be a positive number"))?;
                Some(dur)
            }
        },
        max_conns: match args.get("max-conns") {
            None => None,
            Some(v) => Some(
                v.parse::<usize>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| format!("--max-conns '{v}' must be a positive integer"))?,
            ),
        },
    };
    if config.threads == 0 {
        return Err("--threads must be positive".into());
    }
    if config.pool_cache == 0 {
        return Err("--pool-cache must be positive".into());
    }
    if config.max_loaded == 0 {
        return Err("--max-loaded must be positive".into());
    }
    if config.persist_pools && config.pool_dir.is_none() {
        return Err("--persist-pools requires --pool-dir <dir>".into());
    }
    if config.max_conns.is_some() && !config.event_loop {
        return Err("--max-conns requires --event-loop".into());
    }
    Ok(config)
}

/// Builds the multi-graph catalog state `query` and `serve` share: the
/// positional graph (if given) is loaded now, through the same loader as
/// every path slot ([`GraphStore::load`]: a snapshot mapped and fully
/// checked, text onto the heap), and registered resident as
/// `default` with the loader's checksum; every `--graph name=path[::overrides]` and every file a
/// `--graphs` directory scan finds is registered for lazy loading.
/// Sessions start on `--default-graph`, defaulting to `default` when
/// present, else the first catalog name in sorted order. Both canonical
/// models are registered, so per-graph `model=` overrides can pick either
/// regardless of the global `--model`.
fn build_state(
    model: ModelKind,
    model_name: &str,
    args: &Args,
    config: ServerConfig,
) -> Result<ServerState<ModelKind>, String> {
    let mut catalog = GraphCatalog::new(model, model_name, config);
    for kind in [ModelKind::IndependentCascade, ModelKind::LinearThreshold] {
        if kind.tag() != model_name {
            catalog.register_model(kind.tag(), kind);
        }
    }
    if !args.positional.is_empty() {
        let path = args.positional(0, "input graph path")?;
        let config = catalog.config();
        let (graph, labels) =
            GraphStore::load(path, config.undirected, &config.weights, config.seed)
                .map_err(|e| format!("loading {path}: {e}"))?;
        catalog.add_resident(DEFAULT_GRAPH_NAME, graph, LabelMap::new(labels))?;
    }
    for spec in args.get_all("graph") {
        let (name, path, overrides) =
            tim_graph::catalog::parse_graph_spec_full(spec).map_err(|e| e.to_string())?;
        catalog.add_path_with(name, path, overrides)?;
    }
    if let Some(dir) = args.get("graphs") {
        for (name, path) in tim_graph::catalog::scan_graph_dir(dir).map_err(|e| e.to_string())? {
            catalog.add_path(name, path)?;
        }
    }
    if catalog.is_empty() {
        return Err(
            "no graphs: provide a positional <graph>, --graph name=path, or --graphs <dir>".into(),
        );
    }
    let default_graph = match args.get("default-graph") {
        Some(name) => name.to_string(),
        None if catalog.contains(DEFAULT_GRAPH_NAME) => DEFAULT_GRAPH_NAME.to_string(),
        None => catalog.names()[0].to_string(),
    };
    ServerState::from_catalog(catalog, default_graph)
}

fn query(args: &Args) -> Result<(), String> {
    let tag = args.get("model").unwrap_or("ic").to_lowercase();
    let model = ModelKind::from_tag(&tag).ok_or_else(|| format!("unknown --model '{tag}'"))?;
    query_with(model, &tag, args)
}

fn query_with(model: ModelKind, model_name: &str, args: &Args) -> Result<(), String> {
    let quiet = args.switch("quiet");
    let mut config = server_config(args, quiet)?;
    let pool_path = args.get("pool");
    let multi_graph = !args.get_all("graph").is_empty() || args.get("graphs").is_some();

    // A persisted pool pins its configuration: explicit flags must agree.
    // In the classic single-graph shape, absent flags inherit the pool's
    // values (so the session's default engine *is* the loaded pool). With
    // a multi-graph catalog the config is shared by *every* graph, so
    // inheriting would silently change unrelated graphs' provenance —
    // there the pool's values must be given explicitly.
    let loaded_pool = match pool_path {
        Some(p) if std::path::Path::new(p).exists() => {
            let pool = RrPool::load(p).map_err(|e| format!("loading pool {p}: {e}"))?;
            check_pool_flag(
                "eps",
                args.get("eps").map(|_| config.epsilon),
                pool.meta.epsilon,
            )?;
            check_pool_flag("ell", args.get("ell").map(|_| config.ell), pool.meta.ell)?;
            check_pool_flag(
                "seed",
                args.get("seed").map(|_| config.seed),
                pool.meta.seed,
            )?;
            check_pool_flag(
                "k",
                args.get("k").map(|_| config.k_max),
                pool.meta.k_max as usize,
            )?;
            if multi_graph {
                for (flag, given, pool_value) in [
                    ("eps", config.epsilon, pool.meta.epsilon),
                    ("ell", config.ell, pool.meta.ell),
                    ("seed", config.seed as f64, pool.meta.seed as f64),
                    ("k", config.k_max as f64, pool.meta.k_max as f64),
                ] {
                    if given != pool_value {
                        return Err(format!(
                            "--pool {p} pins {flag} = {pool_value}, but the catalog serves \
                             {flag} = {given}; pass --{flag} {pool_value} explicitly (pool \
                             provenance is not inherited by multi-graph catalogs)"
                        ));
                    }
                }
            } else {
                config.epsilon = pool.meta.epsilon;
                config.ell = pool.meta.ell;
                config.seed = pool.meta.seed;
                config.k_max = pool.meta.k_max as usize;
            }
            Some(pool)
        }
        _ => None,
    };

    let state = build_state(model, model_name, args, config)?;

    // Attach or build-and-save the persistent pool on the default graph —
    // the only case that loads the default graph eagerly; without --pool
    // every graph (the default included) loads lazily on first query.
    let mut watched_engine = None;
    if let Some(p) = pool_path {
        let default_state = state
            .catalog()
            .get(state.default_graph())
            .map_err(|e| format!("query: {e}"))?;
        match loaded_pool {
            Some(pool) => {
                let engine = QueryEngine::from_pool_store(
                    default_state.store().clone(),
                    model,
                    model_name,
                    pool,
                )
                .map_err(|e| format!("attaching pool {p}: {e} (delete the file to rebuild)"))?;
                let shared = default_state.preload(engine);
                if !quiet {
                    eprintln!(
                        "loaded pool {p}: theta = {}, warmed for k <= {}",
                        shared.pool_theta(),
                        shared.warmed_k()
                    );
                }
                watched_engine = Some(shared);
            }
            None => {
                let t0 = std::time::Instant::now();
                let shared = default_state.default_engine();
                // The pool is saved at once, so its warm-up finishes here.
                let theta = shared.warm();
                if !quiet {
                    let cfg = default_state.config();
                    eprintln!(
                        "warmed pool: theta = {theta} in {:.2?} (k <= {}, eps = {}, ell = {})",
                        t0.elapsed(),
                        cfg.k_max,
                        cfg.epsilon,
                        cfg.ell
                    );
                }
                shared
                    .to_pool()
                    .save(p)
                    .map_err(|e| format!("saving pool {p}: {e}"))?;
                if !quiet {
                    eprintln!("saved pool to {p}");
                }
                watched_engine = Some(shared);
            }
        }
    }
    let theta_before = watched_engine.as_ref().map(|e| e.pool_theta());

    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    catalog_query_session(&state, stdin.lock(), &mut stdout)?;

    // Persist growth so the next process benefits from it.
    if let (Some(p), Some(engine), Some(before)) = (pool_path, watched_engine, theta_before) {
        if engine.pool_theta() != before {
            engine
                .to_pool()
                .save(p)
                .map_err(|e| format!("re-saving pool {p}: {e}"))?;
            if !quiet {
                eprintln!("pool grew to theta = {}; re-saved {p}", engine.pool_theta());
            }
        }
    }
    Ok(())
}

/// Runs a `tim/2` session over `input`: one answer line on `out` per
/// request line, through the very same [`tim_server::Session`] machinery that serves
/// `tim serve` connections — so the two front ends cannot drift. The
/// 1 MiB request-line cap applies exactly as on TCP: an over-limit line
/// answers `error: …` and ends the session.
fn catalog_query_session<M: DiffusionModel + Send + Clone + 'static>(
    state: &ServerState<M>,
    input: impl Read,
    out: &mut impl Write,
) -> Result<(), String> {
    let mut reader = CappedLineReader::new(input);
    let mut session = state.session();
    let mut line = String::new();
    loop {
        match reader
            .read_line(&mut line)
            .map_err(|e| format!("reading queries: {e}"))?
        {
            CappedLine::Eof => break,
            CappedLine::Oversized => {
                writeln!(out, "{OVERSIZED_LINE_REPLY}")
                    .map_err(|e| format!("writing answer: {e}"))?;
                return Ok(()); // same contract as TCP: error, session over
            }
            CappedLine::Line => {
                for answer in session.push_line(&line) {
                    writeln!(out, "{answer}").map_err(|e| format!("writing answer: {e}"))?;
                }
                if session.closed() {
                    return Ok(()); // framing violation: error answered, session over
                }
            }
        }
    }
    for answer in session.finish() {
        writeln!(out, "{answer}").map_err(|e| format!("writing answer: {e}"))?;
    }
    Ok(())
}

fn serve(args: &Args) -> Result<(), String> {
    let tag = args.get("model").unwrap_or("ic").to_lowercase();
    let model = ModelKind::from_tag(&tag).ok_or_else(|| format!("unknown --model '{tag}'"))?;
    serve_with(model, &tag, args)
}

fn serve_with(model: ModelKind, model_name: &str, args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7171");
    let quiet = args.switch("quiet");
    let config = server_config(args, quiet).map_err(|e| format!("serve: {e}"))?;
    let state = Arc::new(build_state(model, model_name, args, config)?);

    // Pre-seed the default graph's pool cache from a persisted `.timp`
    // pool (keyed by the pool's own provenance, which need not match the
    // serving defaults). This happens *before* the listening line is
    // printed: a missing or corrupt pool must fail here, not after
    // scripts have already parsed the address and assumed the server is
    // up.
    if let Some(p) = args.get("pool") {
        if !std::path::Path::new(p).exists() {
            return Err(format!("serve: pool file {p} does not exist"));
        }
        let default_state = state
            .catalog()
            .get(state.default_graph())
            .map_err(|e| format!("serve: {e}"))?;
        let pool = RrPool::load(p).map_err(|e| format!("loading pool {p}: {e}"))?;
        let engine =
            QueryEngine::from_pool_store(default_state.store().clone(), model, model_name, pool)
                .map_err(|e| format!("attaching pool {p}: {e}"))?;
        let shared = default_state.preload(engine);
        if !quiet {
            eprintln!(
                "preloaded pool {p}: theta = {}, warmed for k <= {}",
                shared.pool_theta(),
                shared.warmed_k()
            );
        }
    }

    // Bind before the (possibly long) default-pool warm-up: the address
    // is known immediately, and connections queue in the listen backlog
    // until the workers start.
    let server =
        Server::bind(Arc::clone(&state), addr).map_err(|e| format!("binding {addr}: {e}"))?;
    println!("listening on {}", server.local_addr());
    std::io::stdout()
        .flush()
        .map_err(|e| format!("flushing stdout: {e}"))?;

    // Warm-up step one before the workers start: plan k_max alone and
    // sample its θ, so a first `select k_max` answers without waiting on
    // the other plans.
    let t0 = std::time::Instant::now();
    let default_state = state
        .catalog()
        .get(state.default_graph())
        .map_err(|e| format!("serve: {e}"))?;
    let default_engine = default_state.default_engine();
    let theta = default_engine.pool_theta();
    if !quiet {
        let config = state.config();
        eprintln!(
            "first plan ready (k = {}): theta = {theta} in {:.2?} \
             (graph '{}', eps = {}, ell = {}, seed = {})",
            default_engine.warmed_k(),
            t0.elapsed(),
            state.default_graph(),
            config.epsilon,
            config.ell,
            config.seed
        );
        eprintln!(
            "serving {} graph(s) with {} {}, pool cache capacity {} per graph, \
             up to {} graphs loaded",
            state.catalog().len(),
            config.threads,
            if config.event_loop {
                "event-loop shards"
            } else {
                "workers"
            },
            config.pool_cache,
            config.max_loaded
        );
        if config.event_loop {
            eprintln!(
                "event loop: idle timeout {}, connection cap {}",
                match config.idle_timeout {
                    Some(t) => format!("{:.1}s", t.as_secs_f64()),
                    None => "off".to_string(),
                },
                match config.max_conns {
                    Some(n) => n.to_string(),
                    None => "off".to_string(),
                }
            );
        }
        if let Some(dir) = &config.pool_dir {
            eprintln!(
                "warm state in {} ({}); admin verbs {}",
                dir.display(),
                if config.persist_pools {
                    "read-through + write-back"
                } else {
                    "read-through only"
                },
                if config.admin { "enabled" } else { "disabled" }
            );
        }
    }
    let running = server.start();
    // Step two on this thread while the workers serve: plan the other
    // k ≤ k_max and top the pool up. A panic here publishes nothing; the
    // first request that needs the warm pool runs step two again.
    let t1 = std::time::Instant::now();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| default_engine.warm())) {
        Ok(theta) if !quiet => {
            eprintln!("warm-up finished: theta = {theta} in {:.2?}", t1.elapsed());
        }
        Ok(_) => {}
        Err(_) => eprintln!("warm-up failed; the first request that needs it retries"),
    }
    drop(default_engine); // the pool cache alone decides its lifetime
    running.wait();
    Ok(())
}

/// Pipes `input` to a connected server and copies the response stream to
/// `out`, counting `error: …` response lines — the scripted-session core
/// of `tim client`, factored out so tests can drive it without stdin.
fn client_session<I: Read + Send, O: Write>(
    stream: std::net::TcpStream,
    input: I,
    out: &mut O,
) -> Result<u64, String> {
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cloning connection: {e}"))?;
    let mut input = input;
    std::thread::scope(|scope| {
        // Uploader thread: input → server, then half-close so the server
        // sees EOF once our queries are sent; responses keep flowing back.
        let upload = scope.spawn(move || -> Result<(), String> {
            std::io::copy(&mut input, &mut writer).map_err(|e| format!("sending queries: {e}"))?;
            writer
                .shutdown(std::net::Shutdown::Write)
                .map_err(|e| format!("closing send side: {e}"))?;
            Ok(())
        });
        let mut errors = 0u64;
        let mut reader = std::io::BufReader::new(stream);
        let mut line = String::new();
        loop {
            line.clear();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| format!("reading answers: {e}"))?;
            if n == 0 {
                break;
            }
            out.write_all(line.as_bytes())
                .map_err(|e| format!("writing answer: {e}"))?;
            if line.starts_with("error: ") {
                errors += 1;
            }
        }
        out.flush().map_err(|e| format!("flushing answers: {e}"))?;
        upload
            .join()
            .map_err(|_| "uploader panicked".to_string())??;
        Ok(errors)
    })
}

/// Connects to `addr`, bounded by `timeout` when given: a dead or
/// unreachable server fails with a clear error instead of hanging in the
/// kernel's (minutes-long) connect retry.
fn client_connect(
    addr: &str,
    timeout: Option<std::time::Duration>,
) -> Result<std::net::TcpStream, String> {
    use std::net::{TcpStream, ToSocketAddrs};
    let Some(timeout) = timeout else {
        return TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"));
    };
    let resolved: Vec<_> = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolving {addr}: {e}"))?
        .collect();
    let mut last_err = None;
    for a in &resolved {
        match TcpStream::connect_timeout(a, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = Some(e),
        }
    }
    Err(match last_err {
        Some(e) if e.kind() == std::io::ErrorKind::TimedOut => format!(
            "connecting to {addr}: timed out after {:.1}s (server down or unreachable?)",
            timeout.as_secs_f64()
        ),
        Some(e) => format!("connecting to {addr}: {e}"),
        None => format!("resolving {addr}: no addresses"),
    })
}

fn client(args: &Args) -> Result<(), String> {
    let addr = args
        .get("addr")
        .ok_or_else(|| "client: --addr <host:port> is required".to_string())?;
    let timeout = match args.get("timeout") {
        None => None,
        Some(v) => {
            // try_from_secs_f64 also rejects NaN and values too large for
            // a Duration — from_secs_f64 would panic on those.
            let dur = v
                .parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0)
                .and_then(|s| std::time::Duration::try_from_secs_f64(s).ok())
                .ok_or_else(|| format!("client: --timeout '{v}' must be a positive number"))?;
            Some(dur)
        }
    };
    let stream = client_connect(addr, timeout)?;
    if timeout.is_some() {
        // Bound every read the same way: a server that accepts but never
        // answers must not hang a scripted session forever.
        stream
            .set_read_timeout(timeout)
            .map_err(|e| format!("setting read timeout: {e}"))?;
        // And every write: a server that stops *reading* (wedged worker,
        // suspended process) eventually fills the socket buffer, and an
        // unbounded write blocks there forever. Set before the session
        // clones the stream — timeouts live on the shared file
        // description, so the uploader inherits them.
        stream
            .set_write_timeout(timeout)
            .map_err(|e| format!("setting write timeout: {e}"))?;
    }
    let mut stdout = std::io::stdout();
    let errors =
        client_session(stream, std::io::stdin(), &mut stdout).map_err(|e| match timeout {
            Some(t) if e.contains("reading answers") => format!(
                "{e} (no response within {:.1}s — server hung or gone?)",
                t.as_secs_f64()
            ),
            Some(t) if e.contains("sending queries") => format!(
                "{e} (write blocked for {:.1}s — server not reading?)",
                t.as_secs_f64()
            ),
            _ => e,
        })?;
    if errors > 0 {
        // Scripted sessions (kick-tires, CI) must be able to assert clean
        // runs: any `error: …` response line fails the whole session.
        eprintln!("tim client: {errors} error response(s) in session");
        std::process::exit(1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn query_args(s: &str) -> Args {
        Args::parse(&argv(s), &QUERY).unwrap()
    }

    fn serve_args(s: &str) -> Args {
        Args::parse(&argv(s), &SERVE).unwrap()
    }

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("tim_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn dispatch_rejects_unknown_subcommand() {
        assert!(dispatch(&argv("frobnicate")).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn dispatch_rejects_unknown_flags() {
        let err = dispatch(&argv("query g.txt --esp 0.3")).unwrap_err();
        assert_eq!(err, "query: unknown flag --esp");
        // Retired selection flags fail the same way on both front ends.
        for cmd in ["query", "serve"] {
            for flag in [
                concat!("--select-", "threads 4"),
                concat!("--select-", "strategy lazy"),
            ] {
                let err = dispatch(&argv(&format!("{cmd} g.txt {flag}"))).unwrap_err();
                assert!(
                    err.starts_with(&format!("{cmd}: unknown flag --select-")),
                    "{err}"
                );
            }
        }
        // A flag another subcommand reads is still unknown here.
        assert_eq!(
            dispatch(&argv("query g.txt --threads 4")).unwrap_err(),
            "query: unknown flag --threads"
        );
        // Retired backing and format flags are unknown flags now: the
        // file picks the backing, and snapshots are always v2. They are
        // spelled in two parts so a search for the retired names finds
        // only the change history.
        for (cmd, flag) in [
            ("query g.timg", concat!("--mm", "ap")),
            ("serve g.timg", concat!("--mm", "ap")),
            ("query g.timg --pool-dir d", concat!("--mm", "ap-pools")),
            ("serve g.timg --pool-dir d", concat!("--mm", "ap-pools")),
            ("snapshot g.txt --out g.timg", concat!("--for", "mat v2")),
        ] {
            let err = dispatch(&argv(&format!("{cmd} {flag}"))).unwrap_err();
            let name = flag.split_whitespace().next().unwrap();
            let sub = cmd.split_whitespace().next().unwrap();
            assert_eq!(err, format!("{sub}: unknown flag {name}"));
        }
    }

    #[test]
    fn scripted_command_lines_still_parse() {
        // Every flag the smoke script and the end-to-end benchmark pass.
        for (spec, line) in [
            (&GENERATE, "ba --out g.txt --n 2000 --param 4 --seed 1"),
            (
                &SELECT,
                "g.txt -k 10 --algo tim+ --model ic --weights wc --eps 0.3 --seed 7 --quiet",
            ),
            (
                &EVALUATE,
                "g.txt --seeds 1,2 --model ic --weights wc --runs 2000 --seed 7",
            ),
            (&SNAPSHOT, "g.txt --out g.timg --weights wc"),
            (
                &QUERY,
                "g.timg --pool p.timp -k 10 --eps 0.3 --seed 7 --quiet --weights keep",
            ),
            (
                &SERVE,
                "--graph ba=g.timg --addr 127.0.0.1:0 --pool p.timp -k 10 --eps 0.3 --seed 7 \
                 --event-loop --idle-timeout 30 --max-conns 256 --pool-dir d --persist-pools \
                 --admin",
            ),
            (
                &SERVE,
                "g.timg --weights keep --eps 0.3 --ell 1 -k 50 --seed 9 --addr 127.0.0.1:0 \
                 --threads 2 --quiet --admin --pool-dir d --persist-pools",
            ),
            (&CLIENT, "--addr 127.0.0.1:1 --timeout 60"),
        ] {
            Args::parse(&argv(line), spec).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn generate_then_stats_then_select_round_trip() {
        let dir = tmpdir();
        let path = dir.join("ba.txt");
        let path_s = path.to_str().unwrap();
        dispatch(&argv(&format!(
            "generate ba --out {path_s} --n 500 --param 3 --seed 1"
        )))
        .unwrap();
        assert!(path.exists());
        dispatch(&argv(&format!("stats {path_s}"))).unwrap();
        dispatch(&argv(&format!(
            "select {path_s} -k 5 --algo tim+ --eps 0.8 --seed 2 --quiet"
        )))
        .unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn select_requires_k() {
        let dir = tmpdir();
        let path = dir.join("g.txt");
        std::fs::write(&path, "0 1\n1 2\n2 0\n").unwrap();
        let path_s = path.to_str().unwrap();
        assert!(dispatch(&argv(&format!("select {path_s}"))).is_err());
        // An infinite ℓ is refused before planning, not panicked on.
        assert!(dispatch(&argv(&format!("select {path_s} -k 1 --ell inf"))).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn evaluate_maps_labels_and_reports() {
        let dir = tmpdir();
        let path = dir.join("labels.txt");
        // Labels 100 -> 200 -> 300 with p = 1.
        std::fs::write(&path, "100 200 1.0\n200 300 1.0\n").unwrap();
        let path_s = path.to_str().unwrap();
        dispatch(&argv(&format!(
            "evaluate {path_s} --seeds 100 --weights keep --runs 100"
        )))
        .unwrap();
        // Unknown label is an error.
        assert!(dispatch(&argv(&format!(
            "evaluate {path_s} --seeds 999 --weights keep"
        )))
        .is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn select_with_each_cheap_algo_works() {
        let dir = tmpdir();
        let path = dir.join("algos.txt");
        std::fs::write(
            &path,
            (0..50u32)
                .map(|i| format!("{} {}\n", i, (i + 1) % 50))
                .collect::<String>(),
        )
        .unwrap();
        let path_s = path.to_str().unwrap();
        for algo in ["degree", "degreediscount", "pagerank", "simpath", "imm"] {
            dispatch(&argv(&format!(
                "select {path_s} -k 3 --algo {algo} --eps 1.0 --runs 100 --quiet"
            )))
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn generate_rejects_unknown_kind() {
        assert!(dispatch(&argv("generate blah --out /tmp/x.txt")).is_err());
    }

    #[test]
    fn snapshot_round_trip_preserves_select_output() {
        let dir = tmpdir();
        let text = dir.join("snap_src.txt");
        let timg = dir.join("snap_src.timg");
        // Sparse labels exercise the label map through the snapshot.
        std::fs::write(
            &text,
            (0..60u32)
                .map(|i| format!("{} {}\n", i * 10 + 5, ((i + 1) % 60) * 10 + 5))
                .collect::<String>(),
        )
        .unwrap();
        let (text_s, timg_s) = (text.to_str().unwrap(), timg.to_str().unwrap());
        dispatch(&argv(&format!("snapshot {text_s} --out {timg_s}"))).unwrap();
        // `select` on the snapshot goes through the same pipeline (weights
        // re-applied over preserved probabilities) => identical seeds.
        let run = |path: &str| {
            let loaded = io::load_graph(path, false).unwrap();
            let mut g = loaded.graph;
            weights::assign_weighted_cascade(&mut g);
            let r = TimPlus::new(IndependentCascade)
                .epsilon(1.0)
                .seed(3)
                .run(&g, 4);
            r.seeds
                .iter()
                .map(|&v| loaded.labels[v as usize])
                .collect::<Vec<u64>>()
        };
        assert_eq!(run(text_s), run(timg_s));
        // stats and select accept the snapshot transparently.
        dispatch(&argv(&format!("stats {timg_s}"))).unwrap();
        dispatch(&argv(&format!(
            "select {timg_s} -k 2 --eps 1.0 --seed 1 --quiet"
        )))
        .unwrap();
        std::fs::remove_file(&text).ok();
        std::fs::remove_file(&timg).ok();
    }

    #[test]
    fn snapshot_requires_out_flag() {
        let dir = tmpdir();
        let path = dir.join("no_out.txt");
        std::fs::write(&path, "0 1\n").unwrap();
        assert!(dispatch(&argv(&format!("snapshot {}", path.display()))).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_refuses_a_v1_input_and_names_the_fix() {
        // The start of a version 1 snapshot: no writer emits one any more.
        let dir = tmpdir();
        let old = dir.join("old_v1.timg");
        let out = dir.join("old_v1_out.timg");
        std::fs::write(
            &old,
            [&snapshot::MAGIC[..], &1u32.to_le_bytes(), &[0u8; 24]].concat(),
        )
        .unwrap();
        let err = dispatch(&argv(&format!(
            "snapshot {} --out {}",
            old.display(),
            out.display()
        )))
        .unwrap_err();
        assert!(err.contains("version 1"), "{err}");
        assert!(err.contains("tim snapshot"), "{err}");
        assert!(!out.exists(), "nothing is written");
        std::fs::remove_file(&old).ok();
    }

    /// Single-graph catalog state over a parsed edge list, mirroring what
    /// `tim query <graph>` builds.
    fn session_state(
        loaded: LoadedGraph,
        eps: f64,
        seed: u64,
        k_max: usize,
    ) -> ServerState<IndependentCascade> {
        let LoadedGraph { mut graph, labels } = loaded;
        weights::assign_weighted_cascade(&mut graph);
        ServerState::new(
            graph,
            LabelMap::new(labels),
            IndependentCascade,
            "ic",
            ServerConfig {
                epsilon: eps,
                seed,
                k_max,
                sample_threads: 1,
                ..ServerConfig::default()
            },
        )
    }

    fn run_session<M: DiffusionModel + Send + Clone + 'static>(
        state: &ServerState<M>,
        input: &str,
    ) -> Vec<String> {
        let mut out = Vec::new();
        catalog_query_session(state, input.as_bytes(), &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(String::from)
            .collect()
    }

    #[test]
    fn query_session_answers_match_fresh_select() {
        // Sparse labels so the label round trip is exercised.
        let n = 120u64;
        let edges: String = (0..n)
            .flat_map(|i| {
                [
                    format!("{} {}\n", i * 7, ((i + 1) % n) * 7),
                    format!("{} {}\n", i * 7, ((i + 5) % n) * 7),
                ]
            })
            .collect();
        let loaded = io::read_edge_list(edges.as_bytes(), false).unwrap();
        let mut g_fresh = io::read_edge_list(edges.as_bytes(), false).unwrap().graph;
        weights::assign_weighted_cascade(&mut g_fresh);
        let fresh = TimPlus::new(IndependentCascade)
            .epsilon(0.9)
            .seed(11)
            .run(&g_fresh, 5);
        let want: Vec<String> = fresh
            .seeds
            .iter()
            .map(|&v| loaded.labels[v as usize].to_string())
            .collect();

        let state = session_state(loaded, 0.9, 11, 8);
        let input = format!(
            "# comment\n\nselect 5\nselect 3 fast\neval {}\nmarginal {} {}\nbogus\nselect 0\n",
            want.join(","),
            want[0],
            want[1]
        );
        let lines = run_session(&state, &input);
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[0], format!("seeds: {}", want.join(" ")));
        assert!(lines[1].starts_with("seeds: "));
        assert_eq!(lines[1].split_whitespace().count(), 4); // "seeds:" + 3
        assert!(lines[2].starts_with("spread: "));
        assert!(lines[3].starts_with("marginal: "));
        assert!(lines[4].starts_with("error: unknown query"));
        assert!(lines[5].starts_with("error: select"));
    }

    #[test]
    fn query_session_reports_unknown_labels() {
        let loaded = io::read_edge_list("0 1\n1 2\n2 0\n".as_bytes(), false).unwrap();
        let state = session_state(loaded, 1.0, 0, 2);
        let lines = run_session(&state, "eval 999\n");
        assert!(lines[0].contains("label 999"));
    }

    #[test]
    fn query_session_enforces_the_line_cap_like_tcp() {
        let loaded = io::read_edge_list("0 1\n1 2\n2 0\n".as_bytes(), false).unwrap();
        let state = session_state(loaded, 1.0, 0, 2);
        // ping, then an over-limit line, then a query that must NOT run
        // (the session ends at the oversized line, exactly like TCP).
        let input = format!("ping\n{}\nselect 1\n", "a".repeat((1 << 20) + 10));
        let lines = run_session(&state, &input);
        assert_eq!(
            lines,
            vec!["pong tim/3".to_string(), OVERSIZED_LINE_REPLY.to_string()]
        );
        // A line of exactly the cap still answers.
        let comment = format!("#{}", "c".repeat((1 << 20) - 1));
        let lines = run_session(&state, &format!("{comment}\nping\n"));
        assert_eq!(lines, vec!["pong tim/3".to_string()]);
    }

    #[test]
    fn query_session_supports_batch_and_session_verbs() {
        let loaded = io::read_edge_list("0 1\n1 2\n2 0\n".as_bytes(), false).unwrap();
        let state = session_state(loaded, 1.0, 0, 2);
        let plain = run_session(&state, "select 1\neval 0,1\nping\n");
        let batched = run_session(&state, "batch 3\nselect 1\neval 0,1\nping\n");
        assert_eq!(plain, batched, "batch is a pure transport optimization");
        let verbs = run_session(&state, "graphs\nuse default\nstats\n");
        assert_eq!(verbs[0], "graphs: default");
        assert_eq!(verbs[1], "using default");
        assert!(verbs[2].starts_with("stats: graph=default n=3 m=3 "));
    }

    #[test]
    fn pool_provenance_is_not_inherited_by_multi_graph_catalogs() {
        let dir = tmpdir();
        let (g1, g2) = (dir.join("pool_g1.txt"), dir.join("pool_g2.txt"));
        std::fs::write(&g1, "0 1\n1 2\n2 0\n").unwrap();
        std::fs::write(&g2, "0 1\n1 2\n2 3\n3 0\n").unwrap();
        // A pool pinned to a non-default provenance (eps = 0.7, seed = 5).
        let pool = dir.join("prov.timp");
        let loaded = io::load_graph(&g1, false).unwrap();
        let mut graph = loaded.graph;
        weights::assign_weighted_cascade(&mut graph);
        let mut engine = QueryEngine::new(graph, IndependentCascade, "ic")
            .epsilon(0.7)
            .seed(5)
            .k_max(3);
        engine.warm();
        engine.to_pool().save(&pool).unwrap();

        // Multi-graph catalog + absent flags: the pool's provenance must
        // NOT leak into the shared config — explicit flags are required.
        let err = dispatch(&argv(&format!(
            "query {} --graph extra={} --pool {}",
            g1.display(),
            g2.display(),
            pool.display()
        )))
        .unwrap_err();
        assert!(err.contains("not inherited"), "got: {err}");
        // Contradicting explicit flags still fail the single-graph way.
        let err = dispatch(&argv(&format!(
            "query {} --eps 0.2 --pool {}",
            g1.display(),
            pool.display()
        )))
        .unwrap_err();
        assert!(err.contains("contradicts the pool"), "got: {err}");
        for f in [&g1, &g2, &pool] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn client_session_counts_error_responses() {
        let loaded = io::read_edge_list("0 1\n1 2\n2 0\n".as_bytes(), false).unwrap();
        let LoadedGraph { mut graph, labels } = loaded;
        weights::assign_weighted_cascade(&mut graph);
        let state = Arc::new(ServerState::new(
            graph,
            LabelMap::new(labels),
            IndependentCascade,
            "ic",
            ServerConfig {
                threads: 1,
                epsilon: 1.0,
                k_max: 2,
                sample_threads: 1,
                ..ServerConfig::default()
            },
        ));
        let handle = Server::bind(Arc::clone(&state), "127.0.0.1:0")
            .unwrap()
            .start();

        let connect = || std::net::TcpStream::connect(handle.addr()).unwrap();
        let mut out = Vec::new();
        let errors = client_session(
            connect(),
            "ping\nbogus\nselect 1\nnope\n".as_bytes(),
            &mut out,
        )
        .unwrap();
        assert_eq!(errors, 2, "two error responses counted");
        assert!(String::from_utf8(out).unwrap().starts_with("pong tim/3\n"));

        let mut out = Vec::new();
        let errors = client_session(connect(), "ping\nselect 1\n".as_bytes(), &mut out).unwrap();
        assert_eq!(errors, 0, "clean session");
        handle.stop();
    }

    #[test]
    fn serve_rejects_bad_flags_fast() {
        let dir = tmpdir();
        let path = dir.join("srv.txt");
        std::fs::write(&path, "0 1\n1 2\n2 0\n").unwrap();
        let path_s = path.to_str().unwrap();
        // Bind happens before any pool warm-up, so these fail quickly.
        assert!(dispatch(&argv(&format!("serve {path_s} --addr not-an-addr"))).is_err());
        assert!(dispatch(&argv(&format!(
            "serve {path_s} --addr 127.0.0.1:0 --threads 0"
        )))
        .is_err());
        assert!(dispatch(&argv(&format!(
            "serve {path_s} --addr 127.0.0.1:0 --pool-cache 0"
        )))
        .is_err());
        assert!(dispatch(&argv(&format!(
            "serve {path_s} --addr 127.0.0.1:0 --pool /nonexistent.timp"
        )))
        .is_err());
        // ε and ℓ must be finite and positive before anything starts.
        for flag in ["--eps -1", "--eps nan", "--eps inf", "--ell inf"] {
            let args = serve_args(&format!("{path_s} --addr 127.0.0.1:0 {flag}"));
            let err = server_config(&args, true).expect_err(flag);
            assert!(err.contains("must be positive and finite"), "{flag}: {err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn client_requires_addr_and_reports_connect_failure() {
        assert!(dispatch(&argv("client")).is_err());
        // A port nothing listens on: connect must error out, not hang.
        assert!(dispatch(&argv("client --addr 127.0.0.1:1")).is_err());
    }

    #[test]
    fn query_session_answers_ping() {
        let loaded = io::read_edge_list("0 1\n1 2\n2 0\n".as_bytes(), false).unwrap();
        let state = session_state(loaded, 1.0, 0, 2);
        assert_eq!(
            run_session(&state, "ping\n"),
            vec!["pong tim/3".to_string()]
        );
    }

    #[test]
    fn multi_graph_flags_build_a_catalog() {
        let dir = tmpdir();
        let (a, b) = (dir.join("cat_a.txt"), dir.join("cat_b.txt"));
        std::fs::write(&a, "0 1\n1 2\n2 0\n").unwrap();
        std::fs::write(&b, "0 1\n1 2\n2 3\n3 0\n").unwrap();
        let args = query_args(&format!(
            "--graph a={} --graph b={} --eps 1.0 --default-graph a",
            a.display(),
            b.display()
        ));
        let config = server_config(&args, true).unwrap();
        let state = build_state(ModelKind::IndependentCascade, "ic", &args, config).unwrap();
        assert_eq!(state.default_graph(), "a");
        let lines = run_session(&state, "graphs\nstats\nuse b\nstats\nuse nope\n");
        assert_eq!(lines[0], "graphs: a b");
        assert!(lines[1].starts_with("stats: graph=a n=3 "));
        assert_eq!(lines[2], "using b");
        assert!(lines[3].starts_with("stats: graph=b n=4 "));
        assert!(lines[4].starts_with("error: use: unknown graph"));
        // Duplicate names and empty catalogs are rejected.
        let dup = query_args(&format!(
            "--graph a={} --graph a={}",
            a.display(),
            b.display()
        ));
        let config = server_config(&dup, true).unwrap();
        assert!(build_state(ModelKind::IndependentCascade, "ic", &dup, config).is_err());
        let none = query_args("--eps 1.0");
        let config = server_config(&none, true).unwrap();
        assert!(build_state(ModelKind::IndependentCascade, "ic", &none, config).is_err());
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn pool_dir_flags_wire_into_the_config() {
        let args = query_args("g.txt --pool-dir /tmp/pd --persist-pools --admin");
        let config = server_config(&args, true).unwrap();
        assert_eq!(
            config.pool_dir.as_deref(),
            Some(std::path::Path::new("/tmp/pd"))
        );
        assert!(config.persist_pools);
        assert!(config.admin);
        let plain = query_args("g.txt");
        let config = server_config(&plain, true).unwrap();
        assert!(config.pool_dir.is_none() && !config.persist_pools && !config.admin);
        // Write-back without a store location is a config error.
        let bad = query_args("g.txt --persist-pools");
        assert!(server_config(&bad, true)
            .unwrap_err()
            .contains("requires --pool-dir"));
    }

    #[test]
    fn warm_restart_session_reuses_spilled_pools() {
        let dir = tmpdir();
        let graph = dir.join("warm_cli.txt");
        std::fs::write(
            &graph,
            (0..40u32)
                .flat_map(|i| {
                    [
                        format!("{} {}\n", i, (i + 1) % 40),
                        format!("{} {}\n", i, (i + 7) % 40),
                    ]
                })
                .collect::<String>(),
        )
        .unwrap();
        let pool_dir = dir.join("warm_cli_pools");
        std::fs::remove_dir_all(&pool_dir).ok();
        let flags = format!(
            "{} --eps 1.0 --seed 4 -k 3 --pool-dir {}",
            graph.display(),
            pool_dir.display()
        );
        let session = "select 3\nselect 2\neval 0,1\nselect 2 fast\n";

        // Cold run with write-back: builds and spills the default pool.
        let args = query_args(&format!("{flags} --persist-pools"));
        let config = server_config(&args, true).unwrap();
        let cold_state = build_state(ModelKind::IndependentCascade, "ic", &args, config).unwrap();
        let cold = run_session(&cold_state, session);
        let s = cold_state.default_state().cache_stats();
        assert_eq!((s.builds, s.loads), (1, 0), "cold run samples");
        assert!(s.spills >= 1, "cold run spills");
        drop(cold_state);

        // Warm restart (fresh state, same store): the v2 spill is served
        // as a zero-copy mapping — zero pool builds, byte-identical
        // answers.
        let args = query_args(&flags);
        let restart = || {
            let config = server_config(&args, true).unwrap();
            let state = build_state(ModelKind::IndependentCascade, "ic", &args, config).unwrap();
            let answers = run_session(&state, session);
            let s = state.default_state().cache_stats();
            let store = state.default_state().pool_store().unwrap().stats();
            (
                answers,
                (s.builds, s.loads),
                (store.mmap_opens, store.heap_loads, store.quarantined),
            )
        };
        let (mapped, counts, backing) = restart();
        assert_eq!(mapped, cold, "mapped restart answers byte-identical");
        assert_eq!(counts, (0, 1), "warm run opens, never builds");
        assert_eq!(backing, (1, 0, 0), "a v2 spill restores mapped");

        // A v1 pool under the spill's name (the magic, version 1, a few
        // payload bytes; no writer emits one any more) is quarantined and
        // rebuilt: the answers match the cold run byte for byte.
        let spill = std::fs::read_dir(pool_dir.join(DEFAULT_GRAPH_NAME))
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "timp"))
            .unwrap();
        let v1 = [&tim_engine::POOL_MAGIC[..], &1u32.to_le_bytes(), &[0; 32]].concat();
        std::fs::write(&spill, v1).unwrap();
        let (rebuilt, counts, backing) = restart();
        assert_eq!(rebuilt, cold, "rebuilt answers byte-identical");
        assert_eq!(counts, (1, 0), "a v1 file is rebuilt, never loaded");
        assert_eq!(backing, (0, 0, 1), "and quarantined");
        std::fs::remove_file(&graph).ok();
        std::fs::remove_dir_all(&pool_dir).ok();
    }

    #[test]
    fn graph_override_specs_flow_from_the_flag() {
        let dir = tmpdir();
        let path = dir.join("ovr.txt");
        std::fs::write(&path, "0 1\n1 2\n2 0\n").unwrap();
        let args = query_args(&format!(
            "--graph tuned={}::model=lt,eps=0.9,seed=6 --eps 1.0",
            path.display()
        ));
        let config = server_config(&args, true).unwrap();
        let state = build_state(ModelKind::IndependentCascade, "ic", &args, config).unwrap();
        let lines = run_session(&state, "stats\n");
        assert!(
            lines[0].contains("model=lt eps=0.9 ell=1 seed=6"),
            "got {}",
            lines[0]
        );
        // A bad override fails at startup, not at first query.
        let bad = query_args(&format!("--graph tuned={}::model=bogus", path.display()));
        let config = server_config(&bad, true).unwrap();
        assert!(
            build_state(ModelKind::IndependentCascade, "ic", &bad, config)
                .unwrap_err()
                .contains("unknown model 'bogus'")
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn client_timeout_flag_is_validated_and_bounds_connects() {
        // Bad values are rejected up front.
        assert!(dispatch(&argv("client --addr 127.0.0.1:1 --timeout abc"))
            .unwrap_err()
            .contains("--timeout"));
        assert!(dispatch(&argv("client --addr 127.0.0.1:1 --timeout 0"))
            .unwrap_err()
            .contains("--timeout"));
        // A dead port errors out promptly with the timeout set (the
        // refused connect is immediate on loopback either way).
        assert!(dispatch(&argv("client --addr 127.0.0.1:1 --timeout 0.5")).is_err());
    }

    #[test]
    fn client_write_timeout_bounds_blocked_writes() {
        // Regression: a server that accepts but never *reads* eventually
        // fills the socket buffer; without a write timeout the uploader
        // blocks forever in write(2) and the session can never end (the
        // scoped uploader thread pins it even after the read times out).
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            // Accept, then hold the connection open without reading
            // until the test finishes.
            let conn = listener.accept().map(|(c, _)| c);
            let _ = done_rx.recv_timeout(std::time::Duration::from_secs(60));
            drop(conn);
        });
        let timeout = Some(std::time::Duration::from_millis(300));
        let stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(timeout).unwrap();
        stream.set_write_timeout(timeout).unwrap();
        // Far more input than loopback buffering can absorb.
        let input = std::io::repeat(b'#').take(64 << 20);
        let started = std::time::Instant::now();
        let mut out = Vec::new();
        let err = client_session(stream, input, &mut out).unwrap_err();
        assert!(
            err.contains("sending queries") || err.contains("reading answers"),
            "timed out on the stalled session: {err}"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "session ended promptly instead of hanging"
        );
        done_tx.send(()).ok();
        holder.join().unwrap();
    }

    #[test]
    fn serve_event_loop_flags_are_validated() {
        let parse = |s: &str| server_config(&serve_args(s), true);
        let config = parse("g.txt --event-loop --idle-timeout 2.5 --max-conns 100").unwrap();
        assert!(config.event_loop);
        assert_eq!(
            config.idle_timeout,
            Some(std::time::Duration::from_millis(2500))
        );
        assert_eq!(config.max_conns, Some(100));
        let plain = parse("g.txt").unwrap();
        assert!(!plain.event_loop && plain.idle_timeout.is_none() && plain.max_conns.is_none());
        // Both cores reap idle connections, so --idle-timeout stands
        // alone; the connection cap is event-loop semantics, and silently
        // ignoring it on the blocking server would be worse than refusing.
        let pooled = parse("g.txt --idle-timeout 2").unwrap();
        assert!(!pooled.event_loop);
        assert_eq!(pooled.idle_timeout, Some(std::time::Duration::from_secs(2)));
        assert!(parse("g.txt --idle-timeout 0")
            .unwrap_err()
            .contains("--idle-timeout"));
        assert!(parse("g.txt --max-conns 10")
            .unwrap_err()
            .contains("requires --event-loop"));
        assert!(parse("g.txt --event-loop --idle-timeout 0")
            .unwrap_err()
            .contains("--idle-timeout"));
        assert!(parse("g.txt --event-loop --idle-timeout nah")
            .unwrap_err()
            .contains("--idle-timeout"));
        assert!(parse("g.txt --event-loop --max-conns 0")
            .unwrap_err()
            .contains("--max-conns"));
    }

    #[test]
    fn snapshot_writes_a_servable_v2_snapshot() {
        let dir = tmpdir();
        let text = dir.join("fmt_src.txt");
        let v2 = dir.join("fmt_src_v2.timg");
        std::fs::write(
            &text,
            (0..50u32)
                .map(|i| format!("{} {}\n", i, (i + 1) % 50))
                .collect::<String>(),
        )
        .unwrap();
        dispatch(&argv(&format!(
            "snapshot {} --out {} --weights wc",
            text.display(),
            v2.display()
        )))
        .unwrap();
        assert_eq!(snapshot::snapshot_version(&v2).unwrap(), Some(2));
        // The v2 file is transparently loadable by every consumer.
        dispatch(&argv(&format!("stats {}", v2.display()))).unwrap();
        std::fs::remove_file(&text).ok();
        std::fs::remove_file(&v2).ok();
    }

    #[test]
    fn snapshot_may_overwrite_its_own_input() {
        // The input is mapped while the output is written, so the output
        // must replace the file by rename; the reload check then reads
        // the new file, re-weighted.
        let dir = tmpdir();
        let text = dir.join("self_src.txt");
        let snap = dir.join("self_src.timg");
        std::fs::write(
            &text,
            (0..60u32)
                .map(|i| format!("{} {}\n", i, (i + 3) % 60))
                .collect::<String>(),
        )
        .unwrap();
        let snap_s = snap.display().to_string();
        dispatch(&argv(&format!(
            "snapshot {} --out {snap_s}",
            text.display()
        )))
        .unwrap();
        let before = io::load_graph(&snap, false).unwrap();
        dispatch(&argv(&format!(
            "snapshot {snap_s} --out {snap_s} --weights const:0.25"
        )))
        .unwrap();
        let after = io::load_graph(&snap, false).unwrap();
        let mut want = before.graph.clone();
        weights::assign_constant(&mut want, 0.25);
        assert_eq!(
            snapshot::graph_checksum(&after.graph),
            snapshot::graph_checksum(&want)
        );
        assert_eq!(after.labels, before.labels);
        std::fs::remove_file(&text).ok();
        std::fs::remove_file(&snap).ok();
    }

    #[test]
    fn mmap_query_session_answers_match_heap_serving() {
        let dir = tmpdir();
        let text = dir.join("mm_src.txt");
        let v2 = dir.join("mm_src_v2.timg");
        // Sparse labels so the mapped label section is exercised too.
        std::fs::write(
            &text,
            (0..80u64)
                .flat_map(|i| {
                    [
                        format!("{} {}\n", i * 3, ((i + 1) % 80) * 3),
                        format!("{} {}\n", i * 3, ((i + 9) % 80) * 3),
                    ]
                })
                .collect::<String>(),
        )
        .unwrap();
        // Bake WC probabilities into a v2 snapshot.
        dispatch(&argv(&format!(
            "snapshot {} --out {} --weights wc",
            text.display(),
            v2.display()
        )))
        .unwrap();

        let session = "select 3\nselect 2 fast\neval 0,3\nmarginal 0 3\nstats\n";
        let run = |input: &std::path::Path, flags: &str| {
            let args = query_args(&format!(
                "{} --eps 1.0 --seed 7 -k 4 {flags}",
                input.display()
            ));
            let config = server_config(&args, true).unwrap();
            let state = build_state(ModelKind::IndependentCascade, "ic", &args, config).unwrap();
            let mapped = state.default_state().is_mmap();
            (run_session(&state, session), mapped)
        };
        // The text file loads onto the heap and is weighted there; the v2
        // snapshot is served as a zero-copy view with the same weights
        // baked in. Answers must be byte-identical.
        let (heap, heap_mapped) = run(&text, "--weights wc");
        let (mapped, mapped_mapped) = run(&v2, "--weights keep");
        assert!(!heap_mapped && mapped_mapped);
        assert_eq!(heap, mapped, "mmap serving must not change any answer");
        std::fs::remove_file(&text).ok();
        std::fs::remove_file(&v2).ok();
    }

    #[test]
    fn pool_flag_contradiction_is_caught() {
        assert!(check_pool_flag("eps", Some(0.2), 0.1).is_err());
        assert!(check_pool_flag("eps", Some(0.1), 0.1).is_ok());
        assert!(check_pool_flag::<f64>("eps", None, 0.1).is_ok());
    }

    #[test]
    fn weights_flag_variants_parse() {
        let dir = tmpdir();
        let path = dir.join("w.txt");
        std::fs::write(&path, "0 1 0.5\n1 2 0.5\n").unwrap();
        let path_s = path.to_str().unwrap();
        for w in ["wc", "lt", "keep", "const:0.2", "tri"] {
            dispatch(&argv(&format!(
                "select {path_s} -k 1 --weights {w} --eps 1.0 --runs 50 --quiet"
            )))
            .unwrap_or_else(|e| panic!("{w}: {e}"));
        }
        assert!(dispatch(&argv(&format!("select {path_s} -k 1 --weights bogus"))).is_err());
        std::fs::remove_file(&path).ok();
    }
}
