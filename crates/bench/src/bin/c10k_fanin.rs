//! Fan-in serving benchmark: thousands of scripted sessions against one
//! thread-pool server, a fixed number in flight.
//!
//! ```text
//! cargo run --release -p tim_bench --bin c10k_fanin -- [flags]
//!
//! flags:
//!   --quick             reduced scale for CI (fewer sessions, smaller graph)
//!   --sessions <n>      override the session count
//!   --out <path>        where to write the JSON report (default BENCH_6.json)
//! ```
//!
//! Every session writes a short pipelined query script, half-closes, and
//! reads to EOF. Transcripts are checked byte-for-byte against a serial
//! replay through the same session machinery — a run that answers fast
//! but wrong fails loudly (`transcripts_ok`). The report is machine
//! readable (schema `tim-bench-fanin/1`), names the host it ran on, and
//! `bench_schema_check` validates it in CI; the full-scale run is
//! checked in at the repo root so the trajectory is diffable across PRs.
//!
//! The server is driven at a fixed offered load, `IN_FLIGHT` (128)
//! sessions at a time, one client thread each. The cap stays inside the
//! listener backlog: beyond it the kernel drops SYNs and the numbers
//! would measure retransmission timers, not the server. First-byte
//! latency runs from connect, so a session's wait in the accept backlog
//! counts too.

use std::sync::Arc;
use std::time::Duration;
use tim_diffusion::IndependentCascade;
use tim_server::{fanin, LabelMap, Server, ServerConfig, ServerState};

/// Sessions in flight at once.
const IN_FLIGHT: usize = 128;

/// Worker threads of the benched server.
const THREADS: usize = 32;

/// The report's name for the one serving core.
const MODE: &str = "thread_pool";

/// One run's numbers.
struct ModeReport {
    sessions: usize,
    wall_ms: f64,
    sessions_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    first_byte_p50_ms: f64,
    first_byte_p99_ms: f64,
    transcripts_ok: bool,
}

struct Opts {
    quick: bool,
    sessions: Option<usize>,
    out: String,
}

/// The query rotation every session draws from. Selections stay
/// within the warmed `k_max` so answers are interleaving-independent
/// (the determinism the transcript check relies on).
const VARIANTS: &[&[&str]] = &[
    &["ping", "select 3", "eval 0,1"],
    &["select 5", "marginal 0 1", "ping"],
    &["batch 3", "ping", "select 2", "eval 1,2"],
    &["graphs", "use default", "select 4 fast"],
    &["stats", "select 1", "ping"],
];

fn parse_opts() -> Opts {
    let mut opts = Opts {
        quick: false,
        sessions: None,
        out: "BENCH_6.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--sessions" => {
                let v = it.next().expect("--sessions requires a value");
                opts.sessions = Some(v.parse().expect("--sessions: not a number"));
            }
            "--out" => opts.out = it.next().expect("--out requires a value"),
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn build_state(quick: bool) -> (Arc<ServerState<IndependentCascade>>, usize, usize) {
    let nodes = if quick { 300 } else { 1000 };
    let mut g = tim_graph::gen::barabasi_albert(nodes, 4, 0.0, 1);
    tim_graph::weights::assign_weighted_cascade(&mut g);
    let arcs = g.m();
    let labels = LabelMap::identity(g.n());
    let config = ServerConfig {
        threads: THREADS,
        pool_cache: 4,
        epsilon: 0.8,
        ell: 1.0,
        seed: 7,
        k_max: 8,
        sample_threads: 1,
        ..ServerConfig::default()
    };
    let state = Arc::new(ServerState::new(
        g,
        labels,
        IndependentCascade,
        "ic",
        config,
    ));
    // Warm the default pool before serving: sessions then never
    // trigger a θ-extension, so transcripts don't depend on which
    // session arrives first.
    state.warm_default();
    (state, nodes, arcs)
}

fn wire(script: &[&str]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for line in script {
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
    }
    bytes
}

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

fn run_mode(sessions: usize, quick: bool) -> (ModeReport, usize, usize) {
    let (state, nodes, arcs) = build_state(quick);
    let expected: Vec<Vec<u8>> = VARIANTS.iter().map(|s| serial_replay(&state, s)).collect();
    let scripts: Vec<Vec<u8>> = (0..sessions)
        .map(|i| wire(VARIANTS[i % VARIANTS.len()]))
        .collect();

    let server = Server::bind(Arc::clone(&state), "127.0.0.1:0").expect("bind");
    let handle = server.start();
    let report =
        fanin::drive_sessions(handle.addr(), &scripts, IN_FLIGHT, Duration::from_secs(900))
            .expect("fan-in run");
    handle.stop();

    let transcripts_ok = report
        .outcomes
        .iter()
        .enumerate()
        .all(|(i, o)| o.transcript == expected[i % VARIANTS.len()]);
    // Session lifetime runs connect → EOF; first-byte, connect → the
    // first answer byte, is the per-session responsiveness number.
    let stats = fanin::latency_stats(&report.outcomes);
    let wall = report.wall.as_secs_f64();
    (
        ModeReport {
            sessions,
            wall_ms: wall * 1e3,
            sessions_per_sec: sessions as f64 / wall,
            p50_ms: stats.p50_ms,
            p99_ms: stats.p99_ms,
            first_byte_p50_ms: stats
                .first_byte_p50_ms
                .expect("every script elicits answer bytes"),
            first_byte_p99_ms: stats
                .first_byte_p99_ms
                .expect("every script elicits answer bytes"),
            transcripts_ok,
        },
        nodes,
        arcs,
    )
}

/// The machine the run measured: CPUs this process may use, the CPU
/// model, and the OS.
fn host() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown CPU".to_string());
    format!("{cpus} CPUs, {model}, {}", std::env::consts::OS).replace('"', "'")
}

fn emit_json(quick: bool, nodes: usize, arcs: usize, m: &ModeReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"tim-bench-fanin/1\",\n");
    out.push_str("  \"bench\": \"c10k_fanin\",\n");
    out.push_str("  \"protocol\": \"tim/3\",\n");
    out.push_str(&format!("  \"host\": \"{}\",\n", host()));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!(
        "  \"graph\": {{\"kind\": \"barabasi_albert\", \"nodes\": {nodes}, \"arcs\": {arcs}}},\n"
    ));
    out.push_str("  \"modes\": [\n");
    out.push_str(&format!(
        "    {{\"mode\": \"{MODE}\", \"threads\": {THREADS}, \"sessions\": {}, \
         \"max_in_flight\": {IN_FLIGHT}, \"wall_ms\": {:.1}, \"sessions_per_sec\": {:.1}, \
         \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
         \"first_byte_p50_ms\": {:.3}, \"first_byte_p99_ms\": {:.3}, \
         \"transcripts_ok\": {}}}\n",
        m.sessions,
        m.wall_ms,
        m.sessions_per_sec,
        m.p50_ms,
        m.p99_ms,
        m.first_byte_p50_ms,
        m.first_byte_p99_ms,
        m.transcripts_ok,
    ));
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let opts = parse_opts();
    let sessions = opts
        .sessions
        .unwrap_or(if opts.quick { 1000 } else { 10_000 });

    eprintln!(
        "c10k_fanin: {sessions} sessions, {IN_FLIGHT} in flight ({})",
        if opts.quick { "quick" } else { "full" }
    );

    let (m, nodes, arcs) = run_mode(sessions, opts.quick);
    eprintln!(
        "  {MODE}: {:.1} sessions/s  p50 {:.3} ms  p99 {:.3} ms  \
         first-byte p50 {:.3} ms  p99 {:.3} ms  ok={}",
        m.sessions_per_sec,
        m.p50_ms,
        m.p99_ms,
        m.first_byte_p50_ms,
        m.first_byte_p99_ms,
        m.transcripts_ok
    );

    let json = emit_json(opts.quick, nodes, arcs, &m);
    // Self-check the emitter against our own parser before writing:
    // a malformed report should fail here, not in CI.
    tim_bench::json::parse(&json).expect("emitted JSON must parse");
    std::fs::write(&opts.out, &json).expect("write report");
    eprintln!("wrote {}", opts.out);

    if !m.transcripts_ok {
        eprintln!("error: transcript divergence — see report");
        std::process::exit(1);
    }
}
