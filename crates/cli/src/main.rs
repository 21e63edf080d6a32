//! `tim` — command-line influence maximization.
//!
//! ```text
//! tim select   <graph> -k 50 [--algo tim+] [--model ic] [--weights wc]
//!              [--eps 0.1] [--ell 1.0] [--seed 0] [--undirected]
//! tim evaluate <graph> --seeds 3,17,42 [--model ic] [--weights wc]
//!              [--runs 10000] [--seed 0] [--undirected]
//! tim stats    <graph> [--undirected]
//! tim generate <ba|gnm|ws|powerlaw|nethept|epinions|dblp|livejournal|twitter>
//!              --out <path> [--n 10000] [--param 4] [--scale 1.0] [--seed 0]
//! tim snapshot <graph> --out <path.timg> [--weights keep] [--undirected]
//! tim query    [<graph>] [--graph name=path[::k=v,...]]... [--graphs <dir>]
//!              [--pool <path.timp>] [--pool-dir <dir>] [--persist-pools]
//!              [--admin] [-k 50] [--model ic]
//!              [--eps 0.1] [--ell 1.0] [--seed 0] [--quiet]
//! tim serve    [<graph>] [--graph name=path[::k=v,...]]... [--graphs <dir>]
//!              [--addr 127.0.0.1:7171] [--threads 4] [--pool-cache 4]
//!              [-k 50] [--model ic] [--eps 0.1] [--seed 0] [--pool <path.timp>]
//!              [--pool-dir <dir>] [--persist-pools] [--admin]
//!              [--default-graph <name>] [--max-loaded 8]
//! tim client   --addr <host:port> [--timeout <secs>]
//! ```
//!
//! `<graph>` is either SNAP-style text (`src dst [prob]`, `#` comments) or
//! a binary `.timg` snapshot (`tim snapshot`), auto-detected by content.
//! The file picks the backing: v2 snapshots and pools are mapped and
//! fully checked before they serve, text and v1 files load onto the heap.
//! Node labels may be arbitrary integers; seeds are printed in original
//! labels.
//!
//! `tim query` keeps an RR-set pool warm (optionally persisted as a
//! `.timp` file) and answers line-delimited `tim/3` queries from stdin
//! (`select` / `eval` / `marginal` / `use` / `graphs` / `stats` /
//! `batch` / `ping`, plus the `--admin`-gated `attach` / `detach` /
//! `persist` / `stats pools`) — `select` answers are byte-identical to a
//! fresh `tim select --algo tim+` at the same `(seed, eps, ell, k)`.
//!
//! `tim serve` answers the same protocol over TCP from multiple worker
//! threads. One process hosts a catalog of named graphs (positional
//! graph = `default`, plus `--graph`/`--graphs` entries, loaded lazily
//! with LRU eviction beyond `--max-loaded`), each with its own
//! provenance-keyed LRU pool cache; `--graph` specs take per-graph
//! `model`/`eps`/`ell`/`seed`/`k`/`weights` overrides after `::`.
//! Sessions switch graphs with `use` and batch requests with
//! `batch <n>`. With `--pool-dir <dir>` each graph keeps its pools in a
//! persistent per-tenant store under `<dir>/<name>/`, so a restart (or a
//! newly attached tenant with existing state) loads its warm pools from
//! disk instead of resampling; `--persist-pools` writes newly built or
//! grown pools back automatically. `tim client` pipes a scripted stdin
//! session to a running server, exits nonzero if any response is
//! `error: …`, and bounds connects/reads with `--timeout` instead of
//! hanging on a dead server. The protocol spec is `docs/PROTOCOL.md`.

mod args;
mod commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            std::process::exit(2);
        }
    }
}
