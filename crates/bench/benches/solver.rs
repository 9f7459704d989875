//! Solver-level wall-clock bench: substrate reuse. `N` distinct queries
//! issued against one `PlanarSolver` (the BDD, dual bags and diameter
//! measurement are built once and cached) vs the same `N` queries each on
//! a fresh solver (every query rebuilds the substrate).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use duality_core::{PlanarSolver, Query};
use duality_planar::{gen, PlanarGraph, Weight};

fn query_pairs(g: &PlanarGraph, w: usize) -> [(usize, usize); 4] {
    let n = g.num_vertices();
    [(0, n - 1), (w - 1, n - w), (0, n - w), (w - 1, n - 1)]
}

fn bench_flow_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_flow_batch");
    group.sample_size(10);
    for (w, h) in [(8usize, 6usize), (12, 8)] {
        let g = gen::diag_grid(w, h, 7).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 3);
        let pairs = query_pairs(&g, w);

        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{w}x{h}/cold-4-queries")),
            &g,
            |b, g| {
                b.iter(|| {
                    pairs
                        .iter()
                        .map(|&(s, t)| {
                            let solver = PlanarSolver::builder(g).capacities(&caps).build();
                            solver.unwrap().max_flow(s, t).unwrap().value
                        })
                        .sum::<Weight>()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{w}x{h}/warm-4-queries")),
            &g,
            |b, g| {
                b.iter(|| {
                    let solver = PlanarSolver::builder(g)
                        .capacities(caps.clone())
                        .build()
                        .unwrap();
                    pairs
                        .iter()
                        .map(|&(s, t)| solver.max_flow(s, t).unwrap().value)
                        .sum::<Weight>()
                })
            },
        );
    }
    group.finish();
}

fn bench_mixed_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_mixed_batch");
    group.sample_size(10);
    let (w, h) = (10usize, 8usize);
    let g = gen::diag_grid(w, h, 11).unwrap();
    let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 5);
    let weights = gen::random_edge_weights(g.num_edges(), 1, 9, 9);
    let (s, t) = (0, g.num_vertices() - 1);

    let fresh = || {
        PlanarSolver::builder(&g)
            .capacities(&caps)
            .edge_weights(&weights)
            .build()
            .unwrap()
    };
    group.bench_function("cold: flow+global+girth", |b| {
        b.iter(|| {
            let f = fresh().max_flow(s, t).unwrap().value;
            let c2 = fresh().global_min_cut().unwrap().value;
            let g2 = fresh().girth().unwrap().girth;
            black_box(f + c2 + g2)
        })
    });
    group.bench_function("warm: flow+global+girth", |b| {
        b.iter(|| {
            let solver = PlanarSolver::builder(&g)
                .capacities(caps.clone())
                .edge_weights(weights.clone())
                .build()
                .unwrap();
            let f = solver.max_flow(s, t).unwrap().value;
            let c2 = solver.global_min_cut().unwrap().value;
            let g2 = solver.girth().unwrap().girth;
            black_box(f + c2 + g2)
        })
    });
    group.finish();
}

/// The typed batch path: the same heterogeneous workload through
/// `run_batch_on`, serial (1 thread) vs pooled (4 threads). The CONGEST
/// bills are identical by construction; this measures the wall-clock
/// side of the worker pool — the solver is built and its substrate
/// prewarmed once, outside the timed loop, so the sweep isolates pooled
/// marginal execution rather than serial substrate construction.
fn bench_query_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_query_batch");
    group.sample_size(10);
    let (w, h) = (10usize, 8usize);
    let g = gen::diag_grid(w, h, 11).unwrap();
    let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 5);
    let weights = gen::random_edge_weights(g.num_edges(), 1, 9, 9);
    let mut queries: Vec<Query> = query_pairs(&g, w)
        .iter()
        .map(|&(s, t)| Query::MaxFlow { s, t })
        .collect();
    queries.extend([Query::GlobalMinCut, Query::Girth]);

    let solver = PlanarSolver::builder(&g)
        .capacities(caps)
        .edge_weights(weights)
        .build()
        .unwrap();
    // Warm the substrate so every timed iteration measures query
    // execution only.
    assert!(solver.run_batch_on(&queries, 1).all_ok());

    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("6-queries/{threads}-threads")),
            &threads,
            |b, &threads| {
                b.iter(|| black_box(solver.run_batch_on(&queries, threads).rounds.total()))
            },
        );
    }
    group.finish();
}

/// The respec path: scenario-admission latency for a K-spec capacity
/// sweep. Each scenario is "admitted" by standing up a query-ready solver
/// — substrate forced via `labeling_engine()` — and answering one global
/// min cut. Fresh admission pays the diameter measurement + BDD per spec;
/// `respec_capacities` pays them once per sweep and only rebuilds the
/// weight tier (the instance-length labels). This isolates the tier the
/// two-level substrate exists to amortize — in a query-heavy sweep (see
/// `solver_flow_batch`) the per-query labeling dominates both paths, which
/// is exactly the point: respec removes the fixed cost, not the marginal
/// one. The CONGEST-round face of the same sweep is pinned by
/// `tests/respec_api.rs::topology_rounds_are_charged_once_across_a_respec_sweep`.
fn bench_respec_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_respec");
    group.sample_size(10);
    let (w, h) = (16usize, 12usize);
    let g = gen::diag_grid(w, h, 11).unwrap();
    let specs: Vec<Vec<Weight>> = (0..5u64)
        .map(|k| gen::random_undirected_capacities(g.num_edges(), 1, 9, 31 + k))
        .collect();

    group.bench_function("fresh-5-specs", |b| {
        b.iter(|| {
            specs
                .iter()
                .map(|caps| {
                    let solver = PlanarSolver::builder(&g)
                        .capacities(caps.clone())
                        .build()
                        .unwrap();
                    solver.labeling_engine();
                    solver.global_min_cut().unwrap().value
                })
                .sum::<Weight>()
        })
    });
    group.bench_function("respec-5-specs", |b| {
        b.iter(|| {
            let mut solver = PlanarSolver::builder(&g)
                .capacities(specs[0].clone())
                .build()
                .unwrap();
            solver.labeling_engine();
            let mut total = solver.global_min_cut().unwrap().value;
            for caps in &specs[1..] {
                solver = solver.respec_capacities(caps.clone()).unwrap();
                solver.labeling_engine();
                total += solver.global_min_cut().unwrap().value;
            }
            black_box(total)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_flow_batch,
    bench_mixed_batch,
    bench_query_batch,
    bench_respec_sweep
);
criterion_main!(benches);
