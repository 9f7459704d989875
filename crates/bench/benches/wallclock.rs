//! Wall-clock benches for the two paths the repo benchmark (`flowbench/`)
//! does not time: `run_batch_on`'s thread scaling over one warm solver,
//! and building the face-disjoint graph `Ĝ` (the T5 substrate).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use duality_core::{PlanarSolver, Query};
use duality_overlay::FaceDisjointGraph;
use duality_planar::gen;

/// The typed batch path: one heterogeneous workload through
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
    let n = g.num_vertices();
    let mut queries: Vec<Query> = [(0, n - 1), (w - 1, n - w), (0, n - w), (w - 1, n - 1)]
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

fn bench_face_disjoint_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("face_disjoint_graph");
    for n in [16usize, 24, 32] {
        let g = gen::diag_grid(n, n, 3).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n}x{n}")),
            &g,
            |b, g| b.iter(|| FaceDisjointGraph::new(g).num_face_cycles()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_query_batch, bench_face_disjoint_graph);
criterion_main!(benches);
