//! Out-of-core graph loading benchmark: v1 heap parse vs v2 mmap open.
//!
//! ```text
//! cargo run --release -p tim_bench --bin graph_load -- [flags]
//!
//! flags:
//!   --quick        kick-tires scale only (CI artifact)
//!   --out <path>   where to write the JSON report (default BENCH_7.json)
//! ```
//!
//! For each scale the harness snapshots the same weighted graph in both
//! formats and measures the cold-start story end to end: fully decoding
//! the v1 snapshot onto the heap, opening the v2 snapshot zero-copy
//! (`GraphStore::open_mmap`), answering a first influence query through
//! the mapped graph (page faults included), and answering it again warm.
//! The first query is also run on the heap graph and its seed set
//! compared — a mapping that is fast but wrong fails loudly
//! (`answers_match`), as does a backing-dependent provenance checksum
//! (`checksums_match`).
//!
//! The report is machine readable (schema `tim-bench-graph-load/1`);
//! `bench_schema_check` validates it in CI, and the full-scale run —
//! which must show v2 open+first-query beating the v1 full parse by ≥ 5×
//! at the ~1.3M-arc scale — is checked in at the repo root so the
//! trajectory is diffable across PRs.

use std::time::Instant;
use tim_core::select::node_selection;
use tim_diffusion::IndependentCascade;
use tim_graph::{gen, io, snapshot, weights, Graph, GraphStore};

struct Opts {
    quick: bool,
    out: String,
}

/// One benched scale.
struct ScaleReport {
    name: &'static str,
    nodes: usize,
    arcs: usize,
    v1_bytes: u64,
    v2_bytes: u64,
    v1_parse_ms: f64,
    v2_open_ms: f64,
    first_query_ms: f64,
    v2_open_plus_query_ms: f64,
    warm_query_ms: f64,
    speedup: f64,
    answers_match: bool,
    checksums_match: bool,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        quick: false,
        out: "BENCH_7.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--out" => opts.out = it.next().expect("--out requires a value"),
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Median of `runs` timed executions of `f`, in milliseconds.
fn median_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(runs >= 1);
    let mut samples = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        let v = f();
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(v);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    (samples[samples.len() / 2], last.unwrap())
}

/// The first query every backing answers: a deterministic seed selection
/// over `theta` RR sets. Small enough to be a "first query", large enough
/// to walk a representative sample of the CSR pages.
fn query(graph: &Graph, theta: u64) -> Vec<u32> {
    node_selection(
        graph,
        &IndependentCascade,
        10.min(graph.n().saturating_sub(1)),
        theta,
        0xB7,
        1,
    )
    .seeds
}

fn run_scale(
    name: &'static str,
    mut graph: Graph,
    theta: u64,
    dir: &std::path::Path,
) -> ScaleReport {
    weights::assign_weighted_cascade(&mut graph);
    let labels: Vec<u64> = (0..graph.n() as u64).collect();
    let v1_path = dir.join(format!("{name}.v1.timg"));
    let v2_path = dir.join(format!("{name}.v2.timg"));
    let v1_file = std::io::BufWriter::new(std::fs::File::create(&v1_path).expect("create v1"));
    snapshot::write_snapshot_v1(&graph, &labels, v1_file).expect("write v1");
    snapshot::save_snapshot(&graph, &labels, &v2_path).expect("write v2");
    let v1_bytes = std::fs::metadata(&v1_path).map(|m| m.len()).unwrap_or(0);
    let v2_bytes = std::fs::metadata(&v2_path).map(|m| m.len()).unwrap_or(0);

    // v1 cold start: the full decode onto the heap (checksummed, every
    // arc copied into fresh Vecs). Median of 3 over a warm page cache —
    // the same cache the mmap path gets, so the comparison is file-format
    // work, not disk speed.
    let (v1_parse_ms, v1_loaded) = median_ms(3, || io::load_graph(&v1_path, false).expect("v1"));

    // v2 cold start: map + validate the layout (no per-arc work), then
    // answer the first query through the mapping, faulting pages in on
    // demand. A fresh mapping per run keeps the "open" honest; the page
    // cache stays warm, exactly as for v1.
    let (v2_open_ms, _) = median_ms(3, || GraphStore::open_mmap(&v2_path).expect("open v2"));
    let (v2_open_plus_query_ms, (store, mapped_seeds)) = median_ms(3, || {
        let (store, _) = GraphStore::open_mmap(&v2_path).expect("open v2");
        let seeds = query(store.graph(), theta);
        (store, seeds)
    });
    let first_query_ms = (v2_open_plus_query_ms - v2_open_ms).max(0.0);

    // Warm query: same store, pages resident.
    let (warm_query_ms, warm_seeds) = median_ms(3, || query(store.graph(), theta));

    let heap_seeds = query(&v1_loaded.graph, theta);
    let answers_match = heap_seeds == mapped_seeds && warm_seeds == mapped_seeds;
    let checksums_match = snapshot::graph_checksum(&v1_loaded.graph) == store.checksum();

    ScaleReport {
        name,
        nodes: graph.n(),
        arcs: graph.m(),
        v1_bytes,
        v2_bytes,
        v1_parse_ms,
        v2_open_ms,
        first_query_ms,
        v2_open_plus_query_ms,
        warm_query_ms,
        speedup: v1_parse_ms / v2_open_plus_query_ms.max(1e-9),
        answers_match,
        checksums_match,
    }
}

fn emit_json(quick: bool, scales: &[ScaleReport]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"tim-bench-graph-load/1\",\n");
    out.push_str("  \"bench\": \"graph_load\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"scales\": [\n");
    for (i, s) in scales.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"nodes\": {}, \"arcs\": {}, \
             \"v1_bytes\": {}, \"v2_bytes\": {}, \
             \"v1_parse_ms\": {:.3}, \"v2_open_ms\": {:.3}, \
             \"first_query_ms\": {:.3}, \"v2_open_plus_query_ms\": {:.3}, \
             \"warm_query_ms\": {:.3}, \"speedup\": {:.1}, \
             \"answers_match\": {}, \"checksums_match\": {}}}{}\n",
            s.name,
            s.nodes,
            s.arcs,
            s.v1_bytes,
            s.v2_bytes,
            s.v1_parse_ms,
            s.v2_open_ms,
            s.first_query_ms,
            s.v2_open_plus_query_ms,
            s.warm_query_ms,
            s.speedup,
            s.answers_match,
            s.checksums_match,
            if i + 1 < scales.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let opts = parse_opts();
    let dir = std::env::temp_dir().join(format!("tim_graph_load_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");

    let mut scales = Vec::new();

    // The kick-tires graph: the same shape scripts/kick-tires.sh drills.
    eprintln!("graph_load: kick_tires scale");
    let small = gen::barabasi_albert(2_000, 4, 0.0, 1);
    scales.push(run_scale("kick_tires", small, 2_000, &dir));

    if !opts.quick {
        // ~1.3M arcs: the scale the acceptance bar is set at.
        eprintln!("graph_load: paper_1m scale (~1.3M arcs)");
        let big = gen::barabasi_albert(160_000, 8, 0.0, 2);
        scales.push(run_scale("paper_1m", big, 2_000, &dir));
    }

    for s in &scales {
        eprintln!(
            "  {:<10}  {:>9} arcs  v1 parse {:>9.3} ms | v2 open {:>7.3} ms \
             + first query {:>8.3} ms = {:>8.3} ms ({:.1}x) | warm {:>8.3} ms  ok={}",
            s.name,
            s.arcs,
            s.v1_parse_ms,
            s.v2_open_ms,
            s.first_query_ms,
            s.v2_open_plus_query_ms,
            s.speedup,
            s.warm_query_ms,
            s.answers_match && s.checksums_match,
        );
    }

    let json = emit_json(opts.quick, &scales);
    // Self-check the emitter against our own parser before writing: a
    // malformed report should fail here, not in CI.
    tim_bench::json::parse(&json).expect("emitted JSON must parse");
    std::fs::write(&opts.out, &json).expect("write report");
    eprintln!("wrote {}", opts.out);
    std::fs::remove_dir_all(&dir).ok();

    if scales
        .iter()
        .any(|s| !s.answers_match || !s.checksums_match)
    {
        eprintln!("error: mmap answers or checksums diverged from the heap path — see report");
        std::process::exit(1);
    }
}
