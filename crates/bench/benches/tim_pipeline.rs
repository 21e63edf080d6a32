//! End-to-end TIM vs TIM+ (the Figure 3/4 micro view): full pipeline cost
//! and the per-phase split, on a NetHEPT-shaped graph.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tim_bench::{prepare, Model};
use tim_core::{kpt::estimate_kpt, Tim, TimPlus};
use tim_diffusion::IndependentCascade;
use tim_eval::Dataset;
use tim_rng::Rng;

fn pipeline(c: &mut Criterion) {
    let g = prepare(Dataset::NetHept, Some(0.2), Model::Ic);
    let mut group = c.benchmark_group("pipeline_nethept0.2_eps0.5");
    group.sample_size(10);
    for k in [1usize, 50] {
        group.bench_with_input(BenchmarkId::new("tim", k), &k, |b, &k| {
            b.iter(|| {
                black_box(
                    Tim::new(IndependentCascade)
                        .epsilon(0.5)
                        .seed(9)
                        .threads(1)
                        .run(&g, k)
                        .theta,
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("tim_plus", k), &k, |b, &k| {
            b.iter(|| {
                black_box(
                    TimPlus::new(IndependentCascade)
                        .epsilon(0.5)
                        .seed(9)
                        .threads(1)
                        .run(&g, k)
                        .theta,
                )
            });
        });
    }
    group.finish();
}

fn kpt_phase(c: &mut Criterion) {
    let g = prepare(Dataset::NetHept, Some(0.2), Model::Ic);
    let mut group = c.benchmark_group("kpt_estimation");
    group.sample_size(10);
    for k in [1usize, 50] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                let mut rng = Rng::seed_from_u64(11);
                black_box(estimate_kpt(&g, &IndependentCascade, &[k], 1.0, &mut rng)[0].kpt_star)
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = pipeline, kpt_phase
}
criterion_main!(benches);
