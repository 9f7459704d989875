//! Integration tests for the owned, thread-safe solver and the typed
//! Query/Outcome batch API:
//!
//! (a) `PlanarSolver` / `PlanarInstance` are `Send + Sync` and a solver
//!     outlives the scope that built its graph;
//! (b) `run_batch` on ≥ 2 threads agrees bit-for-bit with serial
//!     execution of the same six-query workload;
//! (c) the substrate is built exactly once under a multi-threaded batch
//!     and under concurrent queries from solver clones;
//! (d) duplicate queries are deduplicated;
//! (e) the merged `RoundReport` charges the substrate exactly once.

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

/// The six-query workload: four max-flows between distinct corner
/// pairs, one global min cut, one girth.
fn six_query_workload(g: &PlanarGraph, w: usize) -> Vec<Query> {
    let n = g.num_vertices();
    vec![
        Query::MaxFlow { s: 0, t: n - 1 },
        Query::MaxFlow { s: w - 1, t: n - w },
        Query::MaxFlow { s: 0, t: n - w },
        Query::MaxFlow { s: w - 1, t: n - 1 },
        Query::GlobalMinCut,
        Query::Girth,
    ]
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

/// Every observable piece of an outcome that serial and batched execution
/// must agree on: values, witnesses, and the marginal round bill.
fn fingerprint(o: &Outcome) -> (Vec<Weight>, Vec<usize>, u64) {
    match o {
        Outcome::MaxFlow(r) => (
            std::iter::once(r.value).chain(r.flow.clone()).collect(),
            vec![r.probes as usize],
            r.rounds.query_total(),
        ),
        Outcome::MinStCut(r) => (
            vec![r.value],
            r.cut_darts.iter().map(|d| d.index()).collect(),
            r.rounds.query_total(),
        ),
        Outcome::ApproxMaxFlow(r) => (
            std::iter::once(r.value_numer)
                .chain(std::iter::once(r.denom))
                .chain(r.flow_numer.clone())
                .collect(),
            vec![r.f1.index(), r.f2.index()],
            r.rounds.query_total(),
        ),
        Outcome::ApproxMinStCut(r) => (vec![r.value], r.cut_edges.clone(), r.rounds.query_total()),
        Outcome::GlobalMinCut(r) => (
            std::iter::once(r.value)
                .chain(r.side.iter().map(|&b| Weight::from(b)))
                .collect(),
            r.cut_edges.clone(),
            r.rounds.query_total(),
        ),
        Outcome::Girth(r) => (vec![r.girth], r.cycle_edges.clone(), r.rounds.query_total()),
    }
}

/// (b) Batch-vs-serial agreement, bit for bit, across thread counts.
#[test]
fn batch_agrees_with_serial_on_the_six_query_workload() {
    let g = gen::diag_grid(8, 6, 7).unwrap();
    let queries = six_query_workload(&g, 8);

    // Serial: one solver, queries one at a time through `run`.
    let serial = seeded_solver(&g, 7);
    let serial_outcomes: Vec<Outcome> = queries.iter().map(|&q| serial.run(q).unwrap()).collect();

    for threads in [2usize, 4] {
        let batched = seeded_solver(&g, 7);
        let batch = batched.run_batch_on(&queries, threads);
        assert!(batch.all_ok());
        assert_eq!(batch.threads, threads.min(queries.len()));
        for (s, b) in serial_outcomes.iter().zip(&batch.outcomes) {
            assert_eq!(
                fingerprint(s),
                fingerprint(b.as_ref().unwrap()),
                "batch on {threads} threads diverged from serial"
            );
        }
        // Both paths built the substrate exactly once.
        assert_eq!(batched.stats().engine_builds, 1);
        assert_eq!(batched.stats().dual_builds, 1);
        assert_eq!(
            batched.substrate_rounds().total(),
            serial.substrate_rounds().total(),
            "identical substrate bill"
        );
    }
}

/// (c) Concurrent queries from clones of one solver: the `OnceLock`
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

/// (c+e) A multi-threaded `run_batch` builds the substrate once and its
/// merged report charges it once.
#[test]
fn batch_substrate_once_and_merged_bill() {
    let g = gen::diag_grid(8, 6, 9).unwrap();
    let solver = seeded_solver(&g, 9);
    let queries = six_query_workload(&g, 8);
    let batch = solver.run_batch_on(&queries, 3);

    assert!(batch.all_ok());
    assert_eq!(solver.stats().engine_builds, 1);
    assert_eq!(solver.stats().dual_builds, 1);

    // The merged substrate share equals the solver's one-off ledger…
    let substrate = solver.substrate_rounds().total();
    assert!(substrate > 0);
    assert_eq!(batch.rounds.substrate_total(), substrate);
    // …and the total bills the substrate exactly once: total = substrate
    // + Σ marginal, while naive per-outcome summing would charge it 6×.
    let marginal_sum: u64 = batch
        .outcomes
        .iter()
        .map(|o| o.as_ref().unwrap().rounds().query_total())
        .sum();
    assert_eq!(batch.rounds.total(), substrate + marginal_sum);
    let naive: u64 = batch
        .outcomes
        .iter()
        .map(|o| o.as_ref().unwrap().rounds().total())
        .sum();
    assert_eq!(naive, 6 * substrate + marginal_sum);
}

/// (d) Duplicate queries execute once; every duplicate slot receives the
/// identical outcome.
#[test]
fn duplicates_are_executed_once() {
    let g = gen::diag_grid(5, 5, 13).unwrap();
    let solver = seeded_solver(&g, 13);
    let n = g.num_vertices();
    let q = Query::MaxFlow { s: 0, t: n - 1 };
    let batch = solver.run_batch_on(&[q, Query::Girth, q, q, Query::Girth], 2);

    assert_eq!(batch.unique, 2);
    assert_eq!(batch.duplicates, 3);
    assert_eq!(solver.stats().queries, 2, "duplicates never re-executed");
    let flows: Vec<_> = [0usize, 2, 3]
        .iter()
        .map(|&i| fingerprint(batch.outcomes[i].as_ref().unwrap()))
        .collect();
    assert!(flows.iter().all(|f| *f == flows[0]));
}

/// Instance sharing: many solvers (different thresholds) over one
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
