//! Warm-state restart cost: cold pool build vs pool-store load.
//!
//! TIM/TIM+'s cost model is front-loaded into sampling the θ-sized
//! RR-set pool; the `PoolStore` layer exists so a `tim serve` restart
//! (or a newly attached tenant with existing state) pays a disk load
//! instead of that build. This bench measures exactly that conversion on
//! the kick-tires graph shape (2k-node BA, wc weights — what
//! `scripts/kick-tires.sh` generates):
//!
//! - `cold_build` — a cold `SharedEngine` answering one `select`: plan
//!   the θ for `k ≤ k_max` and sample every RR set (the restart cost
//!   without a store);
//! - `store_load` — `PoolStore::probe` + `QueryEngine::from_pool` + one
//!   warm `select`: read the spilled `.timp`, validate checksum and
//!   provenance, rebuild the inverted index, and answer (the heap
//!   restore, which a store falls back to where it cannot map);
//! - `state_restart/{cold,warm}` — the same comparison end-to-end
//!   through a `ServerState` with a store-backed pool cache, i.e. what
//!   the server actually does on its first query after boot; the warm
//!   side restores the spill mapped.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use tim_diffusion::IndependentCascade;
use tim_engine::{PoolId, PoolStore, QueryEngine, SharedEngine};
use tim_graph::{gen, weights, Graph};
use tim_server::{LabelMap, ServerConfig, ServerState};

const K_MAX: usize = 10;
const EPS: f64 = 0.3;
const SEED: u64 = 7;

/// The kick-tires graph shape: 2k-node BA, weighted-cascade weights.
fn bench_graph() -> Graph {
    let mut g = gen::barabasi_albert(2_000, 4, 0.1, 1);
    weights::assign_weighted_cascade(&mut g);
    g
}

fn cold_engine(graph: &Arc<Graph>) -> QueryEngine<IndependentCascade> {
    QueryEngine::new(Arc::clone(graph), IndependentCascade, "ic")
        .epsilon(EPS)
        .seed(SEED)
        .k_max(K_MAX)
}

fn config(pool_dir: Option<std::path::PathBuf>) -> ServerConfig {
    ServerConfig {
        epsilon: EPS,
        seed: SEED,
        k_max: K_MAX,
        pool_dir,
        persist_pools: true,
        ..ServerConfig::default()
    }
}

fn warm_restart(c: &mut Criterion) {
    let mut group = c.benchmark_group("warm_restart");
    group.sample_size(10);

    let graph = Arc::new(bench_graph());
    let dir = std::env::temp_dir().join(format!("tim_bench_warm_restart_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Spill once: the store state every "restart" below loads from.
    let store = Arc::new(PoolStore::open(dir.join("engine")).expect("open store"));
    let warmed = cold_engine(&graph).to_pool();
    store.spill(&warmed).expect("spill");
    let id = PoolId::from_meta(&warmed.meta);
    drop(warmed);

    // The restart cost without a store: plan + sample everything.
    group.bench_function("cold_build", |b| {
        b.iter(|| {
            let engine = SharedEngine::new(cold_engine(&graph));
            black_box(engine.select(K_MAX).seeds.len())
        });
    });

    // The restart cost with a store: read + validate + index + answer.
    group.bench_function("store_load", |b| {
        b.iter(|| {
            let pool = store
                .probe(&id)
                .expect("probe")
                .expect("pool stored for the bench");
            let engine = QueryEngine::from_pool(Arc::clone(&graph), IndependentCascade, "ic", pool)
                .expect("provenance matches");
            black_box(SharedEngine::new(engine).select(K_MAX).seeds.len())
        });
    });

    // End-to-end through the serving stack: a fresh ServerState answering
    // its first query, without vs with warm state on disk.
    let n = graph.n();
    group.bench_function("state_restart/cold", |b| {
        b.iter(|| {
            let fresh = dir.join(format!("cold-{}", black_box(0u8)));
            std::fs::remove_dir_all(&fresh).ok();
            let state = ServerState::new(
                Arc::clone(&graph),
                LabelMap::identity(n),
                IndependentCascade,
                "ic",
                config(Some(fresh)),
            );
            black_box(state.handle("select 10").expect("answer").len())
        });
    });
    // Seed the shared state dir once, then measure restarts against it.
    let state_dir = dir.join("state");
    ServerState::new(
        Arc::clone(&graph),
        LabelMap::identity(n),
        IndependentCascade,
        "ic",
        config(Some(state_dir.clone())),
    )
    .handle("select 10")
    .expect("seed spill");
    group.bench_function("state_restart/warm", |b| {
        b.iter(|| {
            let state = ServerState::new(
                Arc::clone(&graph),
                LabelMap::identity(n),
                IndependentCascade,
                "ic",
                config(Some(state_dir.clone())),
            );
            black_box(state.handle("select 10").expect("answer").len())
        });
    });

    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    targets = warm_restart
);
criterion_main!(benches);
