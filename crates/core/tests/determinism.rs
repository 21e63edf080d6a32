//! Determinism regression: RR-set generation is a pure function of
//! (graph content, θ, seed) — never of the thread count and never of the
//! graph's backing. Set j of a run depends only on (seed, j), which makes
//! parallel runs byte-identical to serial runs; that must hold when the
//! CSR arrays view a mapped v2 snapshot just as it does on the heap.

use tim_core::parallel::generate_rr_sets;
use tim_core::TimPlus;
use tim_diffusion::IndependentCascade;
use tim_graph::{gen, snapshot, weights, Graph, GraphStore};

fn wc_graph(n: usize, seed: u64) -> Graph {
    let mut g = gen::barabasi_albert(n, 3, 0.0, seed);
    weights::assign_weighted_cascade(&mut g);
    g
}

/// Saves `g` as a v2 snapshot in a fresh temp dir and maps it.
fn mapped(g: &Graph, tag: &str) -> (GraphStore, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("tim_core_det_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.timg");
    let labels: Vec<u64> = (0..g.n() as u64).collect();
    snapshot::save_snapshot(g, &labels, &path).unwrap();
    (GraphStore::open_mmap(&path).unwrap().0, dir)
}

#[test]
fn parallel_rr_sets_over_mmap_match_the_serial_heap_run() {
    let g = wc_graph(200, 3);
    let (view, dir) = mapped(&g, "rr");
    let (theta, seed) = (4_000u64, 17u64);

    // Ground truth: the serial heap run.
    let (heap, heap_stats) = generate_rr_sets(&g, &IndependentCascade, theta, seed, 1);

    for threads in [1usize, 4, 8] {
        let (mm, mm_stats) =
            generate_rr_sets(view.graph(), &IndependentCascade, theta, seed, threads);
        assert_eq!(
            heap.raw_offsets(),
            mm.raw_offsets(),
            "RR-set boundaries diverged over mmap at {threads} threads"
        );
        assert_eq!(
            heap.raw_data(),
            mm.raw_data(),
            "RR-set members diverged over mmap at {threads} threads"
        );
        assert_eq!(heap_stats.total_width, mm_stats.total_width);
        assert_eq!(heap_stats.total_nodes, mm_stats.total_nodes);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_pipeline_over_mmap_matches_heap_across_thread_counts() {
    let g = wc_graph(150, 5);
    let (view, dir) = mapped(&g, "pipeline");

    let run_heap = TimPlus::new(IndependentCascade)
        .epsilon(0.9)
        .seed(11)
        .threads(1)
        .run(&g, 6);
    for threads in [1usize, 4, 8] {
        let run_mm = TimPlus::new(IndependentCascade)
            .epsilon(0.9)
            .seed(11)
            .threads(threads)
            .run(view.graph(), 6);
        assert_eq!(run_heap.seeds, run_mm.seeds, "{threads} threads");
        assert_eq!(run_heap.theta, run_mm.theta, "{threads} threads");
        assert_eq!(
            run_heap.estimated_spread, run_mm.estimated_spread,
            "{threads} threads (must be bit-identical, not just close)"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
