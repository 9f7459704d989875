//! Weighted girth in `Õ(D)` rounds (paper, Theorem 1.7).
//!
//! Cycle–cut duality (Fact 3.1): the minimum-weight cycle of an undirected
//! weighted planar graph is the minimum cut of its dual. The pipeline is
//! exactly the paper's: (1) deactivate self-loops and parallel dual edges
//! in the minor-aggregation model, summing parallel weights (Lemma 4.15);
//! (2) run the exact min-cut minor-aggregation algorithm on the simple dual
//! (Ghaffari–Zuzic, Theorem 4.16 — substituted by a centralized sparse
//! maximum-adjacency Stoer–Wagner on the active dual edges, `O(F·m log F)`
//! time and `O(F + m)` memory for `F` faces and `m` edges, charged at the
//! paper's `Õ(1)` minor-aggregation rounds, see `DESIGN.md`);
//! (3) mark the cut edges (Lemma 4.17 machinery) — their primal edges are
//! the minimum cycle.
//!
//! Run it through [`crate::solver::PlanarSolver::girth`] (or
//! [`crate::solver::Query::Girth`]), which caches the dual graph.

use duality_baselines::cuts::stoer_wagner;
use duality_congest::{CostLedger, CostModel};
use duality_minor_agg::{deactivate_parallel_edges, MaEdge, MinorAgg};
use duality_planar::{PlanarGraph, Weight};

/// The cycle–cut-duality pipeline proper, phrased on the embedded dual
/// graph `dual` (dual vertex `i` = face `i` of `g`, dual edge `e` = primal
/// edge `e` — the construction of [`duality_planar::dual::dual_graph`],
/// which the solver caches). Inputs are pre-validated; returns `None` for
/// acyclic instances.
pub(crate) fn run_girth_on_dual(
    g: &PlanarGraph,
    dual: &PlanarGraph,
    cm: &CostModel,
    weights: &[Weight],
    ledger: &mut CostLedger,
) -> Option<(Weight, Vec<usize>)> {
    debug_assert_eq!(dual.num_vertices(), g.num_faces());
    debug_assert_eq!(dual.num_edges(), g.num_edges());
    if g.num_faces() < 2 {
        return None; // acyclic: a single face, no dual cut exists
    }

    // Dual multigraph: one MA edge per dual (= primal) edge.
    let ma_edges: Vec<MaEdge> = (0..dual.num_edges())
        .map(|e| MaEdge {
            u: dual.edge_tail(e),
            v: dual.edge_head(e),
            weight: weights[e],
        })
        .collect();
    let mut ma = MinorAgg::new(dual.num_vertices(), ma_edges.clone());

    // (1) Parallel-edge deactivation with the sum operator (arboricity of
    // the simple dual of a planar graph is 3 — paper, Section 4.2.3).
    let active = deactivate_parallel_edges(&mut ma, 3, |a, b| a + b);

    // (2) Exact min cut of the simple dual (black-box charge), on its
    // active edges.
    let simple: Vec<(usize, usize, Weight)> = active
        .iter()
        .zip(&ma_edges)
        .filter_map(|(a, e)| a.map(|weight| (e.u, e.v, weight)))
        .collect();
    ma.add_black_box_rounds(cm.min_cut_minor_aggregation_rounds());
    let (cut, side) = stoer_wagner(g.num_faces(), &simple);

    // (3) Mark the cut edges: every dual edge (including previously
    // deactivated parallels) crossing the bisection; one consensus round
    // spreads the side bits (the 2-respecting marking of Lemma 4.17 is
    // exercised separately in `duality-minor-agg`).
    ma.add_black_box_rounds(1);
    let cycle_edges: Vec<usize> = (0..g.num_edges())
        .filter(|&e| {
            let me = &ma_edges[e];
            side[me.u] != side[me.v]
        })
        .collect();

    ma.charge(1, cm, ledger, "girth-minor-agg");
    Some((cut, cycle_edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{GirthReport, PlanarSolver};
    use crate::DualityError;
    use duality_baselines::girth::planar_weighted_girth;
    use duality_planar::gen;

    fn girth(g: &PlanarGraph, weights: &[Weight]) -> Result<GirthReport, DualityError> {
        PlanarSolver::builder(g)
            .edge_weights(weights)
            .build()
            .unwrap()
            .girth()
    }

    fn check(g: &PlanarGraph, weights: &[Weight]) {
        let got = girth(g, weights);
        let want = planar_weighted_girth(g, weights);
        match (got, want) {
            (Err(DualityError::Acyclic), None) => {}
            (Ok(r), Some(w)) => {
                assert_eq!(r.girth, w, "girth value");
                // The reported edges form a cycle of exactly that weight:
                // every vertex touched an even number of times, total weight
                // matches, and the edge set is a simple dual cut.
                let total: Weight = r.cycle_edges.iter().map(|&e| weights[e]).sum();
                assert_eq!(total, r.girth, "cycle weight");
                let mut deg = vec![0usize; g.num_vertices()];
                for &e in &r.cycle_edges {
                    deg[g.edge_tail(e)] += 1;
                    deg[g.edge_head(e)] += 1;
                }
                assert!(deg.iter().all(|&d| d % 2 == 0), "even degrees");
                assert!(
                    duality_planar::dual::dual_cut_components(g, &r.cycle_edges).is_some(),
                    "cycle edges form a simple dual cut"
                );
            }
            (got, want) => panic!("mismatch: got {got:?}, want {want:?}"),
        }
    }

    #[test]
    fn unit_grid_girth() {
        let g = gen::grid(5, 4).unwrap();
        check(&g, &vec![1; g.num_edges()]);
    }

    #[test]
    fn random_weights_match_reference() {
        for seed in 0..5u64 {
            let g = gen::diag_grid(5, 4, seed).unwrap();
            let w = gen::random_edge_weights(g.num_edges(), 1, 20, seed + 7);
            check(&g, &w);
        }
    }

    #[test]
    fn apollonian_girth() {
        let g = gen::apollonian(25, 4).unwrap();
        let w = gen::random_edge_weights(g.num_edges(), 1, 10, 3);
        check(&g, &w);
    }

    #[test]
    fn single_cycle_girth_is_total() {
        let g = gen::cycle(7).unwrap();
        let w: Vec<Weight> = (1..=7).collect();
        let r = girth(&g, &w).unwrap();
        assert_eq!(r.girth, 28);
        assert_eq!(r.cycle_edges.len(), 7);
    }

    #[test]
    fn tree_has_no_girth() {
        let g = gen::path(6).unwrap();
        assert_eq!(
            girth(&g, &vec![3; g.num_edges()]).err(),
            Some(DualityError::Acyclic)
        );
    }

    #[test]
    fn rounds_are_otilde_d() {
        let g = gen::grid(6, 6).unwrap();
        let r = girth(&g, &vec![2; g.num_edges()]).unwrap();
        let d = g.diameter() as u64;
        // Õ(D): at most D · polylog³ with our charging constants.
        let logn = (g.num_vertices() as f64).log2().ceil() as u64;
        assert!(r.rounds.total() >= d);
        assert!(r.rounds.total() <= 100 * d * logn.pow(5));
    }

    #[test]
    fn outerplanar_girth() {
        let g = gen::outerplanar(12, 5, true).unwrap();
        let w = gen::random_edge_weights(g.num_edges(), 1, 9, 11);
        check(&g, &w);
    }
}
