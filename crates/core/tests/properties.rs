//! Property-based tests: every headline algorithm, run through the
//! solver, agrees with its centralized reference on randomized planar
//! instances.

use duality_baselines::cuts::planar_directed_min_cut_reference;
use duality_baselines::flow::planar_max_flow_reference;
use duality_baselines::girth::planar_weighted_girth;
use duality_core::{verify, PlanarSolver};
use duality_planar::{gen, PlanarGraph, Weight};
use proptest::prelude::*;

fn with_caps(g: &PlanarGraph, caps: &[Weight]) -> PlanarSolver {
    PlanarSolver::builder(g).capacities(caps).build().unwrap()
}

fn with_weights(g: &PlanarGraph, weights: &[Weight]) -> PlanarSolver {
    PlanarSolver::builder(g)
        .edge_weights(weights)
        .build()
        .unwrap()
}

/// The `k × k` Manhattan grid (`k` even): row `y` points right when `y` is
/// even and left otherwise, and column `x` points toward row 0 when `x` is
/// even and away from it otherwise. It is strongly connected, so under
/// positive weights its directed global min cut is positive. (`gen`'s grids
/// point every edge from the lower index to the higher, so theirs is 0.)
fn manhattan_grid(k: usize) -> PlanarGraph {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "a Manhattan grid needs an even side"
    );
    let mut edges = Vec::new();
    let mut coords = Vec::new();
    for y in 0..k {
        for x in 0..k {
            coords.push((x as f64, y as f64));
            let v = y * k + x;
            if x + 1 < k {
                let right = y.is_multiple_of(2);
                edges.push(if right { (v, v + 1) } else { (v + 1, v) });
            }
            if y + 1 < k {
                let toward_row_0 = x.is_multiple_of(2);
                edges.push(if toward_row_0 { (v + k, v) } else { (v, v + k) });
            }
        }
    }
    PlanarGraph::from_edges_with_coordinates(k * k, &edges, &coords).unwrap()
}

#[test]
fn manhattan_grids_are_strongly_connected() {
    for k in [2, 4, 6, 8] {
        let g = manhattan_grid(k);
        let reach = |forward: bool| {
            let mut seen = vec![false; g.num_vertices()];
            let mut stack = vec![0];
            seen[0] = true;
            while let Some(u) = stack.pop() {
                for e in 0..g.num_edges() {
                    let (a, b) = (g.edge_tail(e), g.edge_head(e));
                    let (from, to) = if forward { (a, b) } else { (b, a) };
                    if from == u && !seen[to] {
                        seen[to] = true;
                        stack.push(to);
                    }
                }
            }
            seen.iter().all(|&x| x)
        };
        assert!(reach(true) && reach(false), "k = {k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exact max flow equals Dinic and the assignment is feasible, for
    /// random capacities (including zeros) on random triangulated grids.
    #[test]
    fn max_flow_matches_dinic(
        w in 3usize..6,
        h in 3usize..5,
        seed in 0u64..10_000,
        lo in 0i64..2,
        hi in 3i64..15,
    ) {
        let g = gen::diag_grid(w, h, seed).unwrap();
        let caps = gen::random_directed_capacities(g.num_edges(), lo, hi, seed + 1);
        let (s, t) = (0, g.num_vertices() - 1);
        let r = with_caps(&g, &caps).max_flow(s, t).unwrap();
        prop_assert_eq!(r.value, planar_max_flow_reference(&g, &caps, s, t));
        verify::assert_valid_flow(&g, &caps, &r.flow, s, t, r.value);
    }

    /// Max flow with both darts capacitated (antiparallel pairs).
    #[test]
    fn max_flow_antiparallel(
        n in 8usize..20,
        seed in 0u64..10_000,
    ) {
        let g = gen::apollonian(n, seed).unwrap();
        let caps = gen::random_edge_weights(2 * g.num_edges(), 0, 9, seed + 2);
        let (s, t) = (0, n - 1);
        let r = with_caps(&g, &caps).max_flow(s, t).unwrap();
        prop_assert_eq!(r.value, planar_max_flow_reference(&g, &caps, s, t));
        verify::assert_valid_flow(&g, &caps, &r.flow, s, t, r.value);
    }

    /// The approximate st-planar flow is always feasible (exact rational
    /// arithmetic) and within its guarantee.
    #[test]
    fn approx_flow_feasible_and_tight(
        w in 4usize..7,
        h in 3usize..5,
        seed in 0u64..10_000,
        k in 1u64..10,
    ) {
        let g = gen::diag_grid(w, h, seed).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 0, 20, seed + 3);
        let (s, t) = (0, w - 1); // two top corners share the outer face
        let r = with_caps(&g, &caps).approx_max_flow(s, t, k).unwrap();
        for d in g.darts() {
            prop_assert_eq!(r.flow_numer[d.index()], -r.flow_numer[d.rev().index()]);
            prop_assert!(r.flow_numer[d.index()] <= caps[d.index()] * r.denom);
        }
        for v in 0..g.num_vertices() {
            let net: Weight = g.out_darts(v).iter().map(|&d| r.flow_numer[d.index()]).sum();
            if v == s {
                prop_assert_eq!(net, r.value_numer);
            } else if v == t {
                prop_assert_eq!(net, -r.value_numer);
            } else {
                prop_assert_eq!(net, 0);
            }
        }
        let exact = planar_max_flow_reference(&g, &caps, s, t);
        let kk = k as Weight;
        prop_assert!(r.value_numer <= exact * r.denom);
        prop_assert!(r.value_numer * (kk + 1) >= exact * r.denom * kk);
    }

    /// Flow value is monotone in capacities (a classic flow invariant the
    /// whole pipeline must preserve).
    #[test]
    fn flow_monotone_in_capacity(
        w in 3usize..5,
        h in 3usize..5,
        seed in 0u64..10_000,
        bump in 1i64..5,
    ) {
        let g = gen::diag_grid(w, h, seed).unwrap();
        let caps = gen::random_directed_capacities(g.num_edges(), 1, 9, seed);
        let more: Vec<Weight> = caps.iter().map(|&c| if c > 0 { c + bump } else { c }).collect();
        let (s, t) = (0, g.num_vertices() - 1);
        let a = with_caps(&g, &caps).max_flow(s, t).unwrap();
        let b = with_caps(&g, &more).max_flow(s, t).unwrap();
        prop_assert!(b.value >= a.value);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Directed global min cut equals the centralized dual-cycle reference
    /// and its bisection pays exactly the reported weight, at the default
    /// leaf threshold and on deeper decompositions. Diag-grids have a
    /// source, so their cut is 0; outerplanar graphs (a directed polygon)
    /// and Manhattan grids are strongly connected, so theirs is positive
    /// whenever the weights are.
    #[test]
    fn global_cut_matches_reference(
        family in 0usize..4,
        w in 3usize..6,
        h in 3usize..5,
        seed in 0u64..10_000,
        wmax in 1i64..20,
        threshold in 0usize..4,
    ) {
        let g = match family {
            0 => gen::diag_grid(w, h, seed).unwrap(),
            1 | 2 => gen::outerplanar(w * h, seed, family == 1).unwrap(),
            _ => manhattan_grid(2 * (w - 1)),
        };
        let weights = gen::random_edge_weights(g.num_edges(), 0, wmax, seed + 5);
        let solver = PlanarSolver::builder(&g)
            .edge_weights(&weights)
            .with_leaf_threshold([None, Some(2), Some(4), Some(8)][threshold])
            .build()
            .unwrap();
        let r = solver.global_min_cut().unwrap();
        prop_assert_eq!(Some(r.value), planar_directed_min_cut_reference(&g, &weights));
        let mut caps = vec![0; g.num_darts()];
        for (e, &x) in weights.iter().enumerate() {
            caps[2 * e] = x;
        }
        prop_assert_eq!(verify::directed_cut_capacity(&g, &caps, &r.side), r.value);
    }

    /// Weighted girth equals the centralized reference and the certificate
    /// cycle has exactly the reported weight, across the generator
    /// families (weights from 1: girth refuses zero weights).
    #[test]
    fn girth_matches_reference(
        family in 0usize..5,
        w in 3usize..7,
        h in 3usize..6,
        seed in 0u64..10_000,
        wmax in 1i64..30,
    ) {
        let g = match family {
            0 => gen::diag_grid(w, h, seed),
            1 => gen::apollonian(w * h, seed),
            2 | 3 => gen::outerplanar(w * h, seed, family == 2),
            _ => gen::sparse_grid(w, h, w * h + w + h, seed),
        }
        .unwrap();
        let weights = gen::random_edge_weights(g.num_edges(), 1, wmax, seed + 7);
        let r = with_weights(&g, &weights).girth().unwrap();
        prop_assert_eq!(Some(r.girth), planar_weighted_girth(&g, &weights));
        let total: Weight = r.cycle_edges.iter().map(|&e| weights[e]).sum();
        prop_assert_eq!(total, r.girth);
    }
}
