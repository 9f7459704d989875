//! Criterion benches for the flow pipelines (experiments F1/F2/T2
//! wall-clock counterparts). Every iteration builds a fresh solver, so the
//! substrate build is part of the measured time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use duality_core::PlanarSolver;
use duality_planar::{gen, PlanarGraph, Weight};

fn fresh(g: &PlanarGraph, caps: &[Weight]) -> PlanarSolver {
    PlanarSolver::builder(g).capacities(caps).build().unwrap()
}

fn bench_exact_flow(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_max_flow");
    group.sample_size(10);
    for (w, h) in [(6usize, 6usize), (10, 6), (14, 6)] {
        let g = gen::diag_grid(w, h, 7).unwrap();
        let caps = gen::random_directed_capacities(g.num_edges(), 1, 8, 3);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{w}x{h}")),
            &g,
            |b, g| {
                b.iter(|| {
                    fresh(g, &caps)
                        .max_flow(0, g.num_vertices() - 1)
                        .unwrap()
                        .value
                })
            },
        );
    }
    group.finish();
}

fn bench_approx_flow(c: &mut Criterion) {
    let mut group = c.benchmark_group("approx_max_flow");
    group.sample_size(10);
    let g = gen::diag_grid(12, 8, 7).unwrap();
    let caps = gen::random_undirected_capacities(g.num_edges(), 1, 20, 3);
    for k in [0u64, 2, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("eps_inv_{k}")),
            &k,
            |b, &k| {
                b.iter(|| {
                    fresh(&g, &caps)
                        .approx_max_flow(0, 11, k)
                        .unwrap()
                        .value_numer
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_exact_flow, bench_approx_flow);
criterion_main!(benches);
