//! Wall-clock bench for the one path the repo benchmark (`flowbench/`)
//! does not time: building the face-disjoint graph `Ĝ` (the T5
//! substrate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use duality_overlay::FaceDisjointGraph;
use duality_planar::gen;

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

criterion_group!(benches, bench_face_disjoint_graph);
criterion_main!(benches);
