//! Differential transcript suite: the same graph served from the heap
//! and mmap-backed must answer every `tim/3` session byte-identically —
//! selections, fast selections, spreads, marginals, batches, admin
//! stats — and must share pool provenance, so pools spilled by one
//! backing warm-start the other. Registration picks the backing: the
//! heap side is the generated graph registered resident, the mapped side
//! its snapshot attached by path.

use tim_diffusion::IndependentCascade;
use tim_graph::{gen, io, snapshot, weights, Graph, GraphError, GraphStore};
use tim_server::{GraphCatalog, LabelMap, ServerConfig, ServerState};

fn wc_graph(n: usize, seed: u64) -> Graph {
    let mut g = gen::barabasi_albert(n, 3, 0.0, seed);
    weights::assign_weighted_cascade(&mut g);
    g
}

fn config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        epsilon: 1.0,
        seed: 5,
        k_max: 4,
        sample_threads: 1,
        // Every backing serves the probabilities baked into the snapshot,
        // so the runs are a fair differential baseline for each other.
        weights: "keep".to_string(),
        ..ServerConfig::default()
    }
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tim_mmap_vs_heap_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The sparse labels `save_graph` bakes in, so the mapped label section
/// is exercised.
fn labels(n: usize) -> Vec<u64> {
    (0..n as u64).map(|v| v * 10 + 3).collect()
}

/// Writes a weighted graph as a v2 snapshot and returns its path.
fn save_graph(dir: &std::path::Path, name: &str, n: usize, seed: u64) -> std::path::PathBuf {
    let g = wc_graph(n, seed);
    let path = dir.join(format!("{name}.timg"));
    snapshot::save_snapshot(&g, &labels(g.n()), &path).unwrap();
    path
}

/// A single-graph catalog state that attaches `path` by path: a snapshot
/// is served mapped.
fn state_over(path: &std::path::Path, config: ServerConfig) -> ServerState<IndependentCascade> {
    let catalog = GraphCatalog::new(IndependentCascade, "ic", config);
    catalog.add_path("g", path).unwrap();
    ServerState::from_catalog(catalog, "g").unwrap()
}

/// The heap side: the graph `save_graph(_, _, n, seed)` wrote, generated
/// again in memory and registered resident.
fn resident_state(n: usize, seed: u64, config: ServerConfig) -> ServerState<IndependentCascade> {
    let g = wc_graph(n, seed);
    let labels = LabelMap::new(labels(g.n()));
    let catalog = GraphCatalog::new(IndependentCascade, "ic", config);
    catalog
        .add_resident("g", GraphStore::from(g), labels)
        .unwrap();
    ServerState::from_catalog(catalog, "g").unwrap()
}

/// Runs one scripted session and returns its full transcript.
fn run_session(state: &ServerState<IndependentCascade>, lines: &[&str]) -> Vec<String> {
    let mut session = state.session();
    let mut out = Vec::new();
    for l in lines {
        out.extend(session.push_line(l));
    }
    out.extend(session.finish());
    out
}

/// The full query mix the differential contract covers. Labels are the
/// sparse `v*10+3` form `save_graph` bakes in.
const MIX: &[&str] = &[
    "ping",
    "select 4",
    "select 2",
    "select 3 eps=0.5",
    "select 2 fast",
    "eval 3,13,23",
    "marginal 3,13 23",
    "batch 3",
    "select 1",
    "eval 3",
    "ping",
    "graphs",
    "stats",
];

#[test]
fn heap_and_mmap_transcripts_are_byte_identical() {
    let dir = tmpdir("transcripts");
    let path = save_graph(&dir, "g", 150, 1);

    let heap_state = resident_state(150, 1, config());
    let mmap_state = state_over(&path, config());

    let heap = run_session(&heap_state, MIX);
    let mapped = run_session(&mmap_state, MIX);
    assert_eq!(heap, mapped, "transcripts must not depend on the backing");

    // The backing really differs — we compared code paths, not one.
    assert!(!heap_state.catalog().get("g").unwrap().is_mmap());
    assert!(mmap_state.catalog().get("g").unwrap().is_mmap());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pool_provenance_is_backing_independent() {
    let dir = tmpdir("provenance");
    let path = save_graph(&dir, "g", 140, 2);

    let heap_state = resident_state(140, 2, config());
    let mmap_state = state_over(&path, config());
    let heap_g = heap_state.catalog().get("g").unwrap();
    let mmap_g = mmap_state.catalog().get("g").unwrap();

    // The graph checksum — the root of every pool key — must be computed
    // from content, never from the backing.
    assert_eq!(heap_g.graph_checksum(), mmap_g.graph_checksum());
    assert_eq!(heap_g.key_for(None, None), mmap_g.key_for(None, None));
    assert_eq!(
        heap_g.key_for(Some(0.5), None),
        mmap_g.key_for(Some(0.5), None)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pools_spilled_by_heap_serving_warm_start_mmap_serving() {
    let dir = tmpdir("spill");
    let path = save_graph(&dir, "g", 150, 3);
    let pool_dir = dir.join("pools");
    let mix = [
        "select 4",
        "select 3 eps=0.5",
        "select 2 fast",
        "eval 3,13",
        "marginal 3 13",
    ];

    // Cold heap phase: build the default and ε-override pools, spill
    // them through the write-back store.
    let cold_state = resident_state(
        150,
        3,
        ServerConfig {
            pool_dir: Some(pool_dir.clone()),
            persist_pools: true,
            ..config()
        },
    );
    let cold = run_session(&cold_state, &mix);
    let s = cold_state.catalog().get("g").unwrap().cache_stats();
    assert_eq!((s.builds, s.loads), (2, 0), "cold heap run samples");
    assert!(s.spills >= 2, "both pools spilled");
    drop(cold_state);

    // Warm mmap phase: a fresh mmap-backed process image over the same
    // pool store answers byte-identically with ZERO builds — only
    // possible if its pool keys match the heap run's exactly.
    let warm_state = state_over(
        &path,
        ServerConfig {
            pool_dir: Some(pool_dir.clone()),
            persist_pools: false,
            ..config()
        },
    );
    let warm = run_session(&warm_state, &mix);
    assert_eq!(warm, cold, "mmap restart transcript byte-identical");
    let g = warm_state.catalog().get("g").unwrap();
    assert!(g.is_mmap());
    let s = g.cache_stats();
    assert_eq!(
        (s.builds, s.loads),
        (0, 2),
        "warm mmap run loads, never builds"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_v2_attach_fails_without_poisoning_the_slot() {
    let dir = tmpdir("corrupt");
    let path = save_graph(&dir, "g", 120, 9);
    let pristine = std::fs::read(&path).unwrap();

    // Corrupt files attached by path: a count byte flipped under the
    // header checksum, a zero padding byte set, and the start of a
    // version 1 file (no writer emits one any more).
    let mut flipped = pristine.clone();
    flipped[20] ^= 0xFF;
    let mut padding = pristine.clone();
    padding[300] = 1;
    let v1 = [&snapshot::MAGIC[..], &1u32.to_le_bytes(), &[0u8; 24]].concat();
    for bad in [flipped, padding, v1] {
        // The first use must fail cleanly...
        std::fs::write(&path, &bad).unwrap();
        let state = state_over(&path, config());
        let mut session = state.session();
        let answers = session.push_line("select 2");
        assert!(
            answers[0].starts_with("error: "),
            "a corrupt file must answer an error, got {answers:?}"
        );

        // ...and must NOT poison the slot: after the file is repaired in
        // place, the same catalog entry loads and serves normally.
        std::fs::write(&path, &pristine).unwrap();
        let answers = session.push_line("select 2");
        assert!(
            answers[0].starts_with("seeds: "),
            "repaired slot must serve, got {answers:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_probability_section_is_refused_not_served() {
    // A flipped low mantissa bit in the out_probs section leaves a valid
    // probability, so the structural scan passes and only the section
    // checksum can tell. Attaching the file must refuse it, and the slot
    // must stay retryable.
    let dir = tmpdir("corrupt_probs");
    let path = save_graph(&dir, "g", 120, 9);
    let pristine = std::fs::read(&path).unwrap();
    // Section 2 of the table (48 bytes in, 32 per entry) is out_probs.
    let u64_at = |at: usize| u64::from_le_bytes(pristine[at..at + 8].try_into().unwrap());
    let (offset, len) = (
        u64_at(48 + 2 * 32 + 8) as usize,
        u64_at(48 + 2 * 32 + 16) as usize,
    );
    let at = (offset..offset + len)
        .step_by(4)
        .find(|&at| {
            let p = f32::from_le_bytes(pristine[at..at + 4].try_into().unwrap());
            p > 0.0 && p < 1.0
        })
        .expect("a probability below 1");
    let mut bad = pristine.clone();
    bad[at] ^= 0x01;
    let flipped = f32::from_le_bytes(bad[at..at + 4].try_into().unwrap());
    assert!((0.0..=1.0).contains(&flipped), "still a probability");
    std::fs::write(&path, &bad).unwrap();
    // The structure still validates; it is the section checksum that
    // refuses the file.
    match io::load_graph(&path, false) {
        Err(GraphError::Snapshot { message }) => {
            assert!(message.contains("section 2 checksum"), "{message}")
        }
        other => panic!("expected a snapshot error, got {other:?}"),
    }

    let state = state_over(&path, config());
    let mut session = state.session();
    let answers = session.push_line("select 2");
    assert!(
        answers[0].starts_with("error: "),
        "a corrupt section must answer an error, got {answers:?}"
    );
    std::fs::write(&path, &pristine).unwrap();
    let answers = session.push_line("select 2");
    assert!(
        answers[0].starts_with("seeds: "),
        "the repaired slot must serve, got {answers:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_sessions_on_both_backings_stay_identical() {
    // Interleave two sessions per backing (the batch verb included) and
    // check the per-session transcripts pairwise — parallel pool reuse on
    // a mapped graph must not desynchronize anything.
    let dir = tmpdir("interleave");
    let path = save_graph(&dir, "g", 130, 4);
    let a_mix = ["select 3", "eval 3,13", "select 2 fast"];
    let b_mix = ["batch 2", "select 2", "marginal 3 13", "stats"];

    let transcripts = |state: ServerState<IndependentCascade>| -> (Vec<String>, Vec<String>) {
        let mut a = state.session();
        let mut b = state.session();
        let (mut ta, mut tb) = (Vec::new(), Vec::new());
        // Strict alternation: a1 b1 a2 b2 ...
        for i in 0..a_mix.len().max(b_mix.len()) {
            if let Some(l) = a_mix.get(i) {
                ta.extend(a.push_line(l));
            }
            if let Some(l) = b_mix.get(i) {
                tb.extend(b.push_line(l));
            }
        }
        ta.extend(a.finish());
        tb.extend(b.finish());
        (ta, tb)
    };

    let (heap_a, heap_b) = transcripts(resident_state(130, 4, config()));
    let (mmap_a, mmap_b) = transcripts(state_over(&path, config()));
    assert_eq!(heap_a, mmap_a);
    assert_eq!(heap_b, mmap_b);
    std::fs::remove_dir_all(&dir).ok();
}
