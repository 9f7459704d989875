//! Property tests for the `PlanarSolver` façade:
//!
//! (a) solver queries agree with the centralized references of
//!     `duality-baselines` on random `diag_grid` instances;
//! (b) max-flow value equals min-st-cut value (duality) through the solver;
//! (c) repeated queries on one solver reuse the cached substrate (asserted
//!     via the build counters and the substrate ledger).

use duality::baselines::cuts::planar_directed_min_cut_reference;
use duality::baselines::flow::planar_max_flow_reference;
use duality::baselines::girth::planar_weighted_girth;
use duality::core::verify;
use duality::planar::gen;
use duality::PlanarSolver;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) Agreement with the centralized references (Dinic, the dual-cycle
    /// global cut, the planar girth) on random triangulated grids with
    /// random capacities; the flow witness is checked for feasibility.
    #[test]
    fn solver_agrees_with_baseline_references(
        w in 3usize..6,
        h in 3usize..5,
        seed in 0u64..10_000,
        hi in 3i64..12,
    ) {
        let g = gen::diag_grid(w, h, seed).unwrap();
        let caps = gen::random_directed_capacities(g.num_edges(), 0, hi, seed + 1);
        let weights = gen::random_edge_weights(g.num_edges(), 1, hi, seed + 2);
        let (s, t) = (0, g.num_vertices() - 1);
        let solver = PlanarSolver::builder(&g)
            .capacities(caps.clone())
            .edge_weights(weights.clone())
            .build()
            .unwrap();

        let got = solver.max_flow(s, t).unwrap();
        prop_assert_eq!(got.value, planar_max_flow_reference(&g, &caps, s, t));
        verify::assert_valid_flow(&g, &caps, &got.flow, s, t, got.value);

        let gotc = solver.global_min_cut().unwrap();
        prop_assert_eq!(Some(gotc.value), planar_directed_min_cut_reference(&g, &weights));

        let gotg = solver.girth().unwrap();
        prop_assert_eq!(Some(gotg.girth), planar_weighted_girth(&g, &weights));
    }

    /// (b) Max-flow min-cut duality through the façade: the two queries
    /// return the same value and the cut is a genuine certificate.
    #[test]
    fn flow_equals_cut_through_solver(
        w in 3usize..6,
        h in 3usize..5,
        seed in 0u64..10_000,
        hi in 2i64..10,
    ) {
        let g = gen::diag_grid(w, h, seed).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, hi, seed + 3);
        let (s, t) = (0, g.num_vertices() - 1);
        let solver = PlanarSolver::builder(&g).capacities(caps.clone()).build().unwrap();

        let flow = solver.max_flow(s, t).unwrap();
        let cut = solver.min_st_cut(s, t).unwrap();
        prop_assert_eq!(flow.value, cut.value, "max-flow min-cut duality");
        prop_assert!(cut.side[s] && !cut.side[t]);
        prop_assert_eq!(
            verify::directed_cut_capacity(&g, &caps, &cut.side),
            cut.value
        );
        let cut_edges: Vec<usize> = cut.cut_darts.iter().map(|d| d.edge()).collect();
        prop_assert!(verify::cut_separates(&g, &cut_edges, s, t));
    }

    /// (c) Substrate caching: any interleaving of queries on one solver
    /// builds the decomposition at most once and never re-charges the
    /// substrate ledger after it stabilizes.
    #[test]
    fn substrate_is_cached_across_queries(
        w in 3usize..6,
        h in 3usize..5,
        seed in 0u64..10_000,
        order in 0u8..6,
    ) {
        let g = gen::diag_grid(w, h, seed).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, seed + 4);
        let weights = gen::random_edge_weights(g.num_edges(), 1, 9, seed + 5);
        let (s, t) = (0, g.num_vertices() - 1);
        let solver = PlanarSolver::builder(&g)
            .capacities(caps)
            .edge_weights(weights)
            .build()
            .unwrap();

        // Three engine-backed queries in a sample-dependent order, plus a
        // girth (dual-backed) query.
        let run = |i: u8| match i {
            0 => solver.max_flow(s, t).map(|r| r.value).unwrap(),
            1 => solver.min_st_cut(s, t).map(|r| r.value).unwrap(),
            _ => solver.global_min_cut().map(|r| r.value).unwrap(),
        };
        run(order % 3);
        run((order + 1) % 3);
        run((order + 2) % 3);
        solver.girth().unwrap();

        let stats = solver.stats();
        prop_assert_eq!(stats.engine_builds, 1, "one BDD for all engine queries");
        prop_assert_eq!(stats.dual_builds, 1, "one dual graph for girth");
        prop_assert_eq!(stats.queries, 4);

        // The substrate ledger is stable: more queries, no new charges.
        let frozen = solver.substrate_rounds().total();
        prop_assert!(solver.substrate_rounds().phase_total("bdd-build") > 0);
        let again = solver.max_flow(s, t).unwrap();
        prop_assert_eq!(solver.substrate_rounds().total(), frozen);
        prop_assert_eq!(again.rounds.substrate_total(), frozen);
        prop_assert_eq!(again.rounds.query.phase_total("bdd-build"), 0);
    }
}
