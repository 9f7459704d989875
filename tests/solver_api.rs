//! Integration tests for the owned, thread-safe solver:
//!
//! (a) `PlanarSolver` / `PlanarInstance` are `Send + Sync` and a solver
//!     outlives the scope that built its graph;
//! (b) the substrate is built exactly once under concurrent queries from
//!     solver clones;
//! (c) many solvers share one instance without copying it.

use duality::planar::{gen, PlanarGraph, Weight};
use duality::{Outcome, PlanarInstance, PlanarSolver, Query};
use std::sync::Arc;

/// (a) Compile-time evidence: the solver and instance cross threads.
#[test]
fn solver_and_instance_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PlanarSolver>();
    assert_send_sync::<PlanarInstance>();
    assert_send_sync::<Query>();
    assert_send_sync::<Outcome>();
}

/// (a) The solver owns its instance: it survives the scope that built the
/// graph and can be moved into a spawned thread.
#[test]
fn solver_outlives_its_construction_scope() {
    let solver = {
        let g = gen::diag_grid(5, 4, 11).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 11);
        PlanarSolver::builder(&g).capacities(caps).build().unwrap()
        // `g` is dropped here; the solver keeps its own copy alive.
    };
    let t = solver.graph().num_vertices() - 1;
    let handle = std::thread::spawn(move || solver.max_flow(0, t).unwrap().value);
    assert!(handle.join().unwrap() > 0);
}

/// A solver over `g` with capacities and edge weights drawn from `seed`.
fn seeded_solver(g: &PlanarGraph, seed: u64) -> PlanarSolver {
    let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, seed);
    let weights = gen::random_edge_weights(g.num_edges(), 1, 9, seed + 1);
    PlanarSolver::builder(g)
        .capacities(caps)
        .edge_weights(weights)
        .build()
        .unwrap()
}

/// (b) Concurrent queries from clones of one solver: the `OnceLock`
/// substrate is built exactly once no matter how many threads race on it.
#[test]
fn substrate_builds_exactly_once_under_concurrency() {
    let g = gen::diag_grid(6, 5, 3).unwrap();
    let solver = seeded_solver(&g, 3);
    let n = g.num_vertices();

    let values: Vec<Weight> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let solver = solver.clone();
                scope.spawn(move || match i % 3 {
                    0 => solver.max_flow(0, n - 1).unwrap().value,
                    1 => solver.global_min_cut().unwrap().value,
                    _ => solver.girth().unwrap().girth,
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // All eight queries answered, one substrate.
    assert_eq!(values.len(), 8);
    let stats = solver.stats();
    assert_eq!(stats.engine_builds, 1, "engine raced but built once");
    assert_eq!(stats.dual_builds, 1, "dual raced but built once");
    assert_eq!(stats.queries, 8);
    // Same-kind answers are identical across threads.
    assert!(values.chunks(3).all(|c| c[0] == values[0]));
}

/// (c) Instance sharing: many solvers (different thresholds) over one
/// `Arc<PlanarInstance>` with zero graph copies.
#[test]
fn one_instance_many_solvers() {
    let g = gen::diag_grid(5, 4, 21).unwrap();
    let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 21);
    let instance = PlanarInstance::new(g, Some(caps), None).unwrap();
    let t = instance.graph().num_vertices() - 1;

    let base = PlanarSolver::from_instance(Arc::clone(&instance));
    let tuned = PlanarSolver::from_instance_with_threshold(Arc::clone(&instance), Some(6)).unwrap();
    assert_eq!(
        base.max_flow(0, t).unwrap().value,
        tuned.max_flow(0, t).unwrap().value
    );
    assert!(Arc::ptr_eq(base.instance(), tuned.instance()));
    // Each solver caches its own substrate (thresholds differ).
    assert_eq!(base.stats().engine_builds, 1);
    assert_eq!(tuned.stats().engine_builds, 1);
}
