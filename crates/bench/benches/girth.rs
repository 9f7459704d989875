//! Criterion benches for the girth and global-cut pipelines (F3/F4
//! wall-clock counterparts). Every iteration builds a fresh solver, so the
//! substrate build is part of the measured time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use duality_core::PlanarSolver;
use duality_planar::{gen, PlanarGraph, Weight};

fn fresh(g: &PlanarGraph, weights: &[Weight]) -> PlanarSolver {
    PlanarSolver::builder(g)
        .edge_weights(weights)
        .build()
        .unwrap()
}

fn bench_girth(c: &mut Criterion) {
    let mut group = c.benchmark_group("weighted_girth");
    group.sample_size(10);
    for n in [8usize, 12, 16] {
        let g = gen::diag_grid(n, n, 5).unwrap();
        let w = gen::random_edge_weights(g.num_edges(), 1, 50, 9);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n}x{n}")),
            &g,
            |b, g| b.iter(|| fresh(g, &w).girth().unwrap().girth),
        );
    }
    group.finish();
}

fn bench_global_cut(c: &mut Criterion) {
    let mut group = c.benchmark_group("directed_global_min_cut");
    group.sample_size(10);
    for (w, h) in [(6usize, 5usize), (8, 6)] {
        let g = gen::diag_grid(w, h, 5).unwrap();
        let weights = gen::random_edge_weights(g.num_edges(), 1, 30, 9);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{w}x{h}")),
            &g,
            |b, g| b.iter(|| fresh(g, &weights).global_min_cut().unwrap().value),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_girth, bench_global_cut);
criterion_main!(benches);
