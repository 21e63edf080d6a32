//! Greedy max-coverage cost: the on-demand greedy of `tim_coverage`
//! (posting-list recounts against a covered-set bitmap, candidates in the
//! collection's cached degree order) over a realistic RR-set collection,
//! timed the way the server runs it. The inverted index and the degree
//! order are built once, outside the timed closures; the prefix rows
//! answer a θ-prefix of the sets in place, as an exact `select` does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tim_bench::{prepare, Model};
use tim_core::parallel::generate_rr_sets;
use tim_coverage::{greedy_max_cover_indexed, greedy_max_cover_prefix, SetCollection};
use tim_diffusion::IndependentCascade;
use tim_eval::Dataset;

const THETA: u64 = 50_000;

fn build_collection() -> SetCollection {
    let g = prepare(Dataset::NetHept, Some(0.2), Model::Ic);
    let (mut c, _) = generate_rr_sets(&g, &IndependentCascade, THETA, 3, 1);
    c.ensure_inverted_index();
    // The first run derives the degree order; later runs reuse it.
    greedy_max_cover_indexed(&c, 1);
    c
}

fn max_cover(c: &mut Criterion) {
    let collection = build_collection();
    let mut group = c.benchmark_group("max_cover_50k_sets");
    group.sample_size(10);
    for k in [1usize, 10, 50] {
        group.bench_with_input(BenchmarkId::new("indexed", k), &k, |b, &k| {
            b.iter(|| black_box(greedy_max_cover_indexed(&collection, k).covered));
        });
    }
    let prefixes = [
        ("tenth", THETA / 10),
        ("third", THETA / 3),
        ("two_thirds", 2 * THETA / 3),
    ];
    for (prefix, theta) in prefixes {
        let end = theta as usize;
        group.bench_with_input(BenchmarkId::new("prefix_k25", prefix), &end, |b, &end| {
            b.iter(|| black_box(greedy_max_cover_prefix(&collection, end, 25).covered));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = max_cover
}
criterion_main!(benches);
