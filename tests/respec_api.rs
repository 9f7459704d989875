//! Integration tests for the two-tier substrate, the copy-on-write respec
//! API, and the keyed `SolverPool` serving layer:
//!
//! (a) `PlanarSolver::respec` shares the `Arc<TopoSubstrate>` (pointer
//!     equality) while its answers stay bit-for-bit equal to a freshly
//!     built solver over the same data;
//! (b) the topology tier is charged once across a respec sweep, while
//!     every spec pays its own weight tier;
//! (c) `SolverPool` serves re-specced instances by respeccing cached
//!     solvers (respec-reuse), with LRU eviction and correct answers;
//! (d) property test: across all six query kinds, a respecced solver is
//!     indistinguishable from a fresh build on random instances;
//! (e) the substrate is owned data: an engine handle outlives the solver
//!     and instance it came from, and labels outlive the handle.

use duality::bdd::Bdd;
use duality::congest::CostLedger;
use duality::labeling::{DualLabels, DualSsspEngine};
use duality::planar::{dual::DualView, gen, FaceId, Weight};
use duality::{
    InstanceKey, Outcome, PlanarInstance, PlanarSolver, Query, SolverPool, TopoSubstrate,
};
use proptest::prelude::*;
use std::sync::Arc;

/// The six query kinds. The approximate st-planar queries use two
/// top-row corners of the `diag_grid`, which share the outer face.
fn six_queries(w: usize, n: usize) -> Vec<Query> {
    vec![
        Query::MaxFlow { s: 0, t: n - 1 },
        Query::MinStCut { s: 0, t: n - 1 },
        Query::ApproxMaxFlow {
            s: 0,
            t: w - 1,
            eps_inverse: 3,
        },
        Query::ApproxMinStCut {
            s: 0,
            t: w - 1,
            eps_inverse: 3,
        },
        Query::GlobalMinCut,
        Query::Girth,
    ]
}

/// Everything observable about an outcome: values, witnesses, marginal
/// rounds. Two solvers agreeing here are indistinguishable to a caller.
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

/// (a) The respecced solver shares the topology substrate by pointer, and
/// its answers are bit-for-bit those of a freshly built solver over the
/// same `(graph, caps, weights)`.
#[test]
fn respec_shares_topo_pointer_with_bit_for_bit_answers() {
    let (w, h) = (6usize, 5usize);
    let g = gen::diag_grid(w, h, 23).unwrap();
    let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 23);
    let weights = gen::random_edge_weights(g.num_edges(), 1, 9, 24);
    let queries = six_queries(w, g.num_vertices());

    let solver = PlanarSolver::builder(&g)
        .capacities(caps)
        .edge_weights(weights.clone())
        .build()
        .unwrap();
    for &q in &queries {
        assert!(solver.run(q).is_ok(), "warm the original");
    }

    let new_caps = gen::random_undirected_capacities(g.num_edges(), 2, 7, 99);
    let respecced = solver.respec_capacities(new_caps.clone()).unwrap();
    let shared: &Arc<TopoSubstrate> = solver.topo_substrate();
    assert!(
        Arc::ptr_eq(shared, respecced.topo_substrate()),
        "respec must share the Arc<TopoSubstrate>, not rebuild it"
    );

    // A fresh solver over the very same data, from scratch.
    let fresh = PlanarSolver::from_instance(
        PlanarInstance::new(g.clone(), Some(new_caps), Some(weights)).unwrap(),
    );
    assert!(
        !Arc::ptr_eq(shared, fresh.topo_substrate()),
        "the fresh build has its own topology tier"
    );

    for &q in &queries {
        assert_eq!(
            fingerprint(&respecced.run(q).unwrap()),
            fingerprint(&fresh.run(q).unwrap()),
            "respecced solver diverged from a fresh build"
        );
    }
    // Same bill, differently amortized: the respecced solver charged no
    // new topology rounds (they were paid by the original solver), the
    // fresh one paid them itself — yet the final ledgers are identical
    // because the construction is deterministic per embedding. (Each
    // outcome's snapshot is not: the respecced solver saw the original's
    // already-built dual from its first query on.)
    assert_eq!(
        respecced.substrate_rounds().total(),
        fresh.substrate_rounds().total()
    );
    assert_eq!(solver.stats().engine_builds, 1, "one BDD for the pair");
    assert_eq!(respecced.stats().engine_builds, 1, "same shared counter");
    assert_eq!(fresh.stats().engine_builds, 1, "fresh build paid its own");
}

/// (b) Across a K-respec sweep the topology ledger never grows — the
/// substrate_topo share of every report is one constant snapshot — while
/// each spec pays its own weight tier.
#[test]
fn topology_rounds_are_charged_once_across_a_respec_sweep() {
    let g = gen::diag_grid(6, 4, 31).unwrap();
    let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 31);
    let base = PlanarSolver::builder(&g).capacities(caps).build().unwrap();
    let t = g.num_vertices() - 1;
    base.max_flow(0, t).unwrap();
    base.global_min_cut().unwrap();
    let topo_rounds = base.substrate_topo_rounds().total();
    assert!(topo_rounds > 0);

    let mut current = base.clone();
    for k in 1..=4u64 {
        let caps_k = gen::random_undirected_capacities(g.num_edges(), 1, 9, 31 + k);
        current = current.respec_capacities(caps_k).unwrap();
        let flow = current.max_flow(0, t).unwrap();
        let cut = current.global_min_cut().unwrap();
        // The global cut is the cheapest directed cut anywhere, so it can
        // never exceed this particular st-cut (= st-flow).
        assert!(cut.value <= flow.value);
        // The topology ledger is frozen at its original total…
        assert_eq!(current.substrate_topo_rounds().total(), topo_rounds);
        assert_eq!(cut.rounds.substrate_topo.total(), topo_rounds);
        // …while this spec paid its own weight tier.
        assert!(cut.rounds.substrate_weight.total() > 0);
        assert_eq!(current.stats().label_builds, 1);
    }
    // One engine, one dual-diameter measurement for the whole sweep.
    assert_eq!(base.stats().engine_builds, 1);
    assert_eq!(current.stats().engine_builds, 1);
}

/// (c) The pool serves a respec storm off one cached topology: K tariff
/// scenarios on one network are K pool entries sharing one substrate.
#[test]
fn pool_serves_a_respec_sweep_from_one_topology() {
    let g = gen::diag_grid(5, 4, 41).unwrap();
    let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 41);
    let base = PlanarInstance::new(g, Some(caps), None).unwrap();
    let t = base.n() - 1;

    let pool = SolverPool::new(8);
    let first = pool.solver(&base);
    let mut keys = vec![InstanceKey::of(&base)];
    for k in 1..=4u64 {
        let caps_k = gen::random_undirected_capacities(base.m(), 1, 9, 41 + k);
        let spec = base.with_capacities(caps_k).unwrap();
        keys.push(InstanceKey::of(&spec));
        let solver = pool.solver(&spec);
        assert!(
            Arc::ptr_eq(first.topo_substrate(), solver.topo_substrate()),
            "scenario {k} reused the cached topology"
        );
        let flow = pool.run(&spec, Query::MaxFlow { s: 0, t }).unwrap();
        let fresh = PlanarSolver::from_instance(Arc::clone(&spec))
            .max_flow(0, t)
            .unwrap();
        assert_eq!(flow.as_max_flow().unwrap().value, fresh.value);
    }
    let stats = pool.stats();
    assert_eq!(stats.misses, 5, "each spec admitted once");
    assert_eq!(stats.respec_reuses, 4, "every later spec respecced");
    assert_eq!(stats.len, 5);
    assert_eq!(first.stats().engine_builds, 1, "one BDD for five entries");
    // All five keys remain addressable by key alone.
    for key in &keys {
        assert!(pool.contains(key));
        assert!(pool.get(key).unwrap().run(Query::Girth).is_ok());
    }
}

/// (e) An engine handle cloned from a solver outlives the solver and its
/// instance; labels computed at mixed-sign lengths keep their engine alive
/// after the handle drops, and decode every dual distance exactly.
#[test]
fn the_substrate_outlives_its_solver() {
    let g = gen::diag_grid(5, 4, 51).unwrap();
    // Mixed signs, no negative cycle: 1 + π(from) − π(to) telescopes to
    // the (positive) hop count around every dual cycle.
    let pi = |f: FaceId| i64::from(f.0 * 5 % 7);
    let lengths: Vec<Weight> = g
        .darts()
        .map(|d| {
            let (from, to) = g.dual_arc(d);
            1 + pi(from) - pi(to)
        })
        .collect();
    assert!(lengths.iter().any(|&l| l < 0), "some arcs are negative");

    let instance = PlanarInstance::new(g.clone(), None, Some(vec![1; g.num_edges()])).unwrap();
    let solver = PlanarSolver::from_instance(Arc::clone(&instance));
    let engine = Arc::clone(solver.labeling_engine());
    drop(solver);
    drop(instance);

    let labels = engine.labels(&lengths, &mut CostLedger::new()).unwrap();
    drop(engine);

    let view = DualView::new(&g, &lengths, |_| true);
    for src in g.faces() {
        let reference = view.bellman_ford(src).expect("no negative cycle");
        for f in g.faces() {
            assert_eq!(
                labels.decode(src, f),
                Some(reference[f.index()]),
                "dist({src:?} → {f:?})"
            );
        }
    }
}

/// (e) Compile-time evidence: `Bdd`, `DualSsspEngine` and `DualLabels`
/// take no lifetime (a type alias could not name them otherwise), so they
/// can be cached and shared across threads for as long as anyone likes.
#[test]
fn substrate_types_are_owned_send_and_sync() {
    type Substrate = (Bdd, DualSsspEngine, DualLabels);
    fn assert_owned<T: Send + Sync + 'static>() {}
    assert_owned::<Substrate>();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (d) Respec is indistinguishable from a fresh build across all six
    /// query kinds, on random instances and random new capacities.
    #[test]
    fn respec_matches_fresh_build_on_all_six_query_kinds(
        w in 3usize..6,
        h in 3usize..5,
        seed in 0u64..10_000,
        hi in 2i64..10,
    ) {
        let g = gen::diag_grid(w, h, seed).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, hi, seed + 1);
        let weights = gen::random_edge_weights(g.num_edges(), 1, hi, seed + 2);
        let queries = six_queries(w, g.num_vertices());

        let original = PlanarSolver::builder(&g)
            .capacities(caps)
            .edge_weights(weights.clone())
            .build()
            .unwrap();
        // Warm every tier of the original before respeccing, so the test
        // also covers "respec of a fully-built solver".
        for &q in &queries {
            prop_assert!(original.run(q).is_ok());
        }

        let new_caps = gen::random_undirected_capacities(g.num_edges(), 1, hi, seed + 3);
        let respecced = original.respec_capacities(new_caps.clone()).unwrap();
        prop_assert!(Arc::ptr_eq(
            original.topo_substrate(),
            respecced.topo_substrate()
        ));

        let fresh = PlanarSolver::from_instance(
            PlanarInstance::new(g.clone(), Some(new_caps), Some(weights)).unwrap(),
        );
        for &q in &queries {
            let a = respecced.run(q).unwrap();
            let b = fresh.run(q).unwrap();
            prop_assert_eq!(fingerprint(&a), fingerprint(&b), "{} diverged", q);
        }
        // The respec never rebuilt the topology tier.
        prop_assert_eq!(original.stats().engine_builds, 1);
        prop_assert_eq!(original.stats().dual_builds, 1);
    }
}
