//! Minimum st-cut: exact directed (`Õ(D²)`, paper Theorem 6.1) and
//! approximate st-planar (`D·n^{o(1)}`, paper Theorem 6.2).
//!
//! * **Exact**: run the exact max-flow (Theorem 1.2), then find the
//!   vertices reachable from `s` in the residual graph — the paper reduces
//!   this reachability to a primal SSSP computation (Li–Parter, charged as
//!   a black box) over the residual network with 0/∞ weights.
//! * **Approximate** (Reif's duality): an st-separating cycle of the
//!   augmented dual — the shortest `f₁ → f₂` path found by Hassin's
//!   reduction closed up by the artificial edge's dual — is an st-cut in
//!   the primal; its primal edges form a `(1+ε)`-approximate minimum
//!   st-cut.
//!
//! Run them through [`crate::solver::PlanarSolver::min_st_cut`] and
//! [`crate::solver::PlanarSolver::approx_min_st_cut`]; the pipelines
//! below take the solver's validated inputs and cached substrate.

use crate::error::DualityError;
use duality_congest::{CostLedger, CostModel};
use duality_labeling::DualSsspEngine;
use duality_planar::{Dart, PlanarGraph, Weight};
use std::sync::Arc;

/// The exact-cut pipeline proper: max-flow, then residual reachability
/// from `s`. Inputs are pre-validated.
pub(crate) fn run_exact_cut(
    engine: &Arc<DualSsspEngine>,
    cm: &CostModel,
    caps: &[Weight],
    s: usize,
    t: usize,
    ledger: &mut CostLedger,
) -> (Weight, Vec<bool>, Vec<Dart>) {
    let g: &PlanarGraph = &engine.graph;
    let (value, flow, _probes) = crate::max_flow::run_max_flow(engine, cm, caps, s, t, ledger);
    // Residual reachability from s, via the primal SSSP black box of
    // Li–Parter (paper, Theorem 6.1 reduces reachability to SSSP with
    // 0/∞ weights on the residual multigraph).
    ledger.charge("residual-reachability", cm.li_parter_primal_sssp());
    let residual_ok: Vec<bool> = g
        .darts()
        .map(|d| caps[d.index()] - flow[d.index()] > 0)
        .collect();
    let mut side = vec![false; g.num_vertices()];
    side[s] = true;
    let mut stack = vec![s];
    while let Some(u) = stack.pop() {
        for &d in g.out_darts(u) {
            if residual_ok[d.index()] && !side[g.head(d)] {
                side[g.head(d)] = true;
                stack.push(g.head(d));
            }
        }
    }
    let cut_darts: Vec<Dart> = g
        .darts()
        .filter(|&d| side[g.tail(d)] && !side[g.head(d)])
        .collect();
    (value, side, cut_darts)
}

/// Reif's dual-cycle pipeline proper: the Hassin flow setup, then the
/// st-separating cycle walk. Inputs are pre-validated except
/// st-planarity, discovered by the flow stage.
pub(crate) fn run_approx_cut(
    g: &PlanarGraph,
    cm: &CostModel,
    caps: &[Weight],
    s: usize,
    t: usize,
    eps_inverse: u64,
    ledger: &mut CostLedger,
) -> Result<(Weight, Vec<usize>), DualityError> {
    // Reuse the Hassin pipeline for validation of the inputs and charging.
    let approx = crate::approx_flow::run_approx_flow(g, cm, caps, s, t, eps_inverse, ledger)?;

    // The shortest f1 → f2 path under the quantized lengths is a path of
    // the SSSP tree Hassin's pipeline already computed: the distributed
    // algorithm marks it (one aggregation), and we walk the parents back
    // from f2; the path darts' primal edges are the cut.
    ledger.charge("reif-mark-cycle", cm.dual_part_wise_aggregation());
    let mut cut_edges = Vec::new();
    let mut value = 0;
    let mut cur = approx.f2;
    while cur != approx.f1 {
        let d = approx.parent[cur.index()].expect("f2 reachable");
        cut_edges.push(d.edge());
        value += caps[d.index()]; // true (unquantized) capacity
        cur = approx.aug.face_of(d);
    }
    cut_edges.sort_unstable();
    cut_edges.dedup();
    Ok((value, cut_edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::PlanarSolver;
    use crate::verify;
    use duality_baselines::flow::planar_max_flow_reference;
    use duality_planar::gen;

    fn solver(g: &PlanarGraph, caps: &[Weight]) -> PlanarSolver {
        PlanarSolver::builder(g).capacities(caps).build().unwrap()
    }

    #[test]
    fn exact_cut_equals_flow_on_directed_grids() {
        for seed in 0..3u64 {
            let g = gen::grid(4, 4).unwrap();
            let caps = gen::random_directed_capacities(g.num_edges(), 1, 7, seed);
            let r = solver(&g, &caps).min_st_cut(0, 15).unwrap();
            // Max-flow min-cut: the saturated darts' capacity equals the
            // flow value.
            let cut_cap: Weight = r.cut_darts.iter().map(|d| caps[d.index()]).sum();
            assert_eq!(cut_cap, r.value);
            assert!(r.side[0] && !r.side[15]);
            assert_eq!(verify::directed_cut_capacity(&g, &caps, &r.side), r.value);
        }
    }

    #[test]
    fn exact_cut_on_undirected_instance() {
        let g = gen::diag_grid(4, 4, 5).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 5);
        let r = solver(&g, &caps).min_st_cut(0, 15).unwrap();
        assert_eq!(r.value, planar_max_flow_reference(&g, &caps, 0, 15));
        // Removing the cut edges separates t from s.
        let edges: Vec<usize> = r.cut_darts.iter().map(|d| d.edge()).collect();
        assert!(verify::cut_separates(&g, &edges, 0, 15));
    }

    #[test]
    fn approx_cut_separates_and_is_close() {
        for k in [0u64, 2, 5] {
            let g = gen::grid(5, 4).unwrap();
            let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, k + 2);
            let r = solver(&g, &caps).approx_min_st_cut(0, 4, k).unwrap();
            let (value, edges) = (r.value, r.cut_edges);
            assert!(verify::cut_separates(&g, &edges, 0, 4), "k = {k}");
            let exact = planar_max_flow_reference(&g, &caps, 0, 4);
            assert!(value >= exact, "a cut is never below the max flow");
            let kk = k.max(1) as Weight;
            assert!(
                value * kk <= exact * (kk + 1),
                "cut {value} vs (1+1/{kk}) * {exact}"
            );
            if k == 0 {
                assert_eq!(value, exact);
            }
        }
    }

    #[test]
    fn cut_value_zero_when_capacities_zero() {
        let g = gen::grid(3, 3).unwrap();
        let caps = vec![0; g.num_darts()];
        let r = solver(&g, &caps).min_st_cut(0, 8).unwrap();
        assert_eq!(r.value, 0);
        // The crossing darts all carry zero capacity.
        assert_eq!(
            r.cut_darts.iter().map(|d| caps[d.index()]).sum::<Weight>(),
            0
        );
    }

    #[test]
    fn bad_endpoints_rejected_before_work() {
        let g = gen::grid(3, 3).unwrap();
        let unit = solver(&g, &vec![1; g.num_darts()]);
        assert_eq!(
            unit.min_st_cut(4, 4).err(),
            Some(DualityError::BadEndpoints { s: 4, t: 4, n: 9 })
        );
        assert_eq!(
            unit.approx_min_st_cut(0, 99, 2).err(),
            Some(DualityError::BadEndpoints { s: 0, t: 99, n: 9 })
        );
    }
}
