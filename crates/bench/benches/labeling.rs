//! Criterion benches for the dual distance-labeling pipeline (F5 and the
//! per-probe cost inside F1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use duality_congest::{CostLedger, CostModel};
use duality_core::PlanarSolver;
use duality_labeling::DualSsspEngine;
use duality_planar::gen;
use std::sync::Arc;

fn bench_labeling(c: &mut Criterion) {
    let mut group = c.benchmark_group("dual_labels");
    group.sample_size(10);
    for (w, h) in [(8usize, 8usize), (12, 8), (16, 10)] {
        let g = gen::diag_grid(w, h, 11).unwrap();
        let lengths: Vec<i64> = (0..g.num_darts()).map(|i| (i as i64 % 9) + 1).collect();
        let solver = PlanarSolver::builder(&g)
            .capacities(&lengths)
            .build()
            .unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{w}x{h}")),
            solver.labeling_engine(),
            |b, engine| {
                b.iter(|| {
                    let mut l = CostLedger::new();
                    engine.labels(&lengths, &mut l).unwrap();
                    l.total()
                })
            },
        );
    }
    group.finish();
}

fn bench_engine_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_build");
    group.sample_size(10);
    let g = Arc::new(gen::diag_grid(12, 10, 11).unwrap());
    let cm = CostModel::new(g.num_vertices(), g.diameter());
    group.bench_function("12x10", |b| {
        b.iter(|| {
            let mut ledger = CostLedger::new();
            DualSsspEngine::new(Arc::clone(&g), &cm, None, &mut ledger);
            ledger.total()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_labeling, bench_engine_build);
criterion_main!(benches);
