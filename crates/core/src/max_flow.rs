//! Exact maximum st-flow in directed planar graphs, `Õ(D²)` rounds
//! (paper, Theorem 1.2).
//!
//! Miller–Naor reduction: a flow of value `λ` exists iff, after pushing `λ`
//! units along an arbitrary s→t dart path `P` (subtracting `λ` from the
//! capacity of every dart of `P` and adding it to their reversals), the
//! dual graph with arc lengths equal to the residual dart capacities has no
//! negative cycle. A binary search over `λ` with one dual-SSSP (distance
//! labeling) per probe finds the maximum flow value, and the shortest-path
//! potentials of the final feasible probe give the flow assignment:
//! `flow(d) = dist(face(rev d)) − dist(face(d)) (+λ if d ∈ P, −λ if
//! rev(d) ∈ P)`.
//!
//! Run it through [`crate::solver::PlanarSolver::max_flow`] (or
//! [`crate::solver::Query::MaxFlow`]), which caches the labeling engine
//! the probes share.

use duality_congest::{primitives, CostLedger, CostModel};
use duality_labeling::{DualSsspEngine, LabelingError};
use duality_planar::{Dart, PlanarGraph, Weight};
use std::sync::Arc;

/// The Miller–Naor pipeline proper: binary search over λ with one dual
/// labeling per probe on the solver's cached engine. Inputs are
/// pre-validated. Returns `(λ*, per-dart flow, probes)`.
pub(crate) fn run_max_flow(
    engine: &Arc<DualSsspEngine>,
    cm: &CostModel,
    caps: &[Weight],
    s: usize,
    t: usize,
    ledger: &mut CostLedger,
) -> (Weight, Vec<Weight>, u32) {
    let g: &PlanarGraph = &engine.graph;
    let path = primitives::st_dart_path(g, s, t, cm, ledger, "st-path").expect("connected graph");

    // λ is bounded by the capacity leaving s.
    let upper: Weight = g
        .out_darts(s)
        .iter()
        .map(|&d| caps[d.index()])
        .sum::<Weight>();

    let mut probes = 0;
    let mut feasible = |lambda: Weight, ledger: &mut CostLedger| -> bool {
        probes += 1;
        let lengths = residual_lengths(g, caps, &path, lambda);
        match engine.labels(&lengths, ledger) {
            Ok(_) => true,
            Err(LabelingError::NegativeCycle { .. }) => false,
        }
    };

    // Binary search for the largest feasible λ (λ = 0 is always feasible).
    let mut lo: Weight = 0;
    let mut hi: Weight = upper;
    while lo < hi {
        let mid = lo + (hi - lo + 1) / 2;
        if feasible(mid, ledger) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
        // Each vertex learns the current λ via a broadcast.
        ledger.charge("lambda-broadcast", cm.global_aggregate());
    }
    let lambda = lo;

    // Final labeling at λ*: potentials from an arbitrary face.
    let lengths = residual_lengths(g, caps, &path, lambda);
    let labels = engine.labels(&lengths, ledger).expect("λ* is feasible");
    let source = duality_planar::FaceId(0);
    let dist = labels.distances_from(source, ledger);

    let mut flow = vec![0; g.num_darts()];
    let on_path = path_markers(g, &path);
    for d in g.darts() {
        let (from, to) = g.dual_arc(d);
        let base = dist[to.index()].expect("dual of a connected graph is strongly connected")
            - dist[from.index()].expect("reachable");
        flow[d.index()] = base + lambda * on_path[d.index()];
    }

    (lambda, flow, probes)
}

/// Residual dual lengths after pushing `lambda` along `path`.
fn residual_lengths(
    g: &PlanarGraph,
    caps: &[Weight],
    path: &[Dart],
    lambda: Weight,
) -> Vec<Weight> {
    let on_path = path_markers(g, path);
    caps.iter()
        .enumerate()
        .map(|(i, &c)| c - lambda * on_path[i])
        .collect()
}

/// `+1` for darts of the path, `-1` for their reversals, `0` otherwise.
fn path_markers(g: &PlanarGraph, path: &[Dart]) -> Vec<Weight> {
    let mut m = vec![0; g.num_darts()];
    for &d in path {
        m[d.index()] += 1;
        m[d.rev().index()] -= 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{MaxFlowReport, PlanarSolver};
    use crate::{verify, DualityError};
    use duality_baselines::flow::planar_max_flow_reference;
    use duality_planar::gen;

    fn check(g: &PlanarGraph, caps: &[Weight], s: usize, t: usize) -> MaxFlowReport {
        let solver = PlanarSolver::builder(g).capacities(caps).build().unwrap();
        let r = solver.max_flow(s, t).unwrap();
        let want = planar_max_flow_reference(g, caps, s, t);
        assert_eq!(r.value, want, "flow value vs Dinic");
        verify::assert_valid_flow(g, caps, &r.flow, s, t, r.value);
        r
    }

    #[test]
    fn single_square_unit_caps() {
        let g = gen::grid(2, 2).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 1, 0);
        let r = check(&g, &caps, 0, 3);
        assert_eq!(r.value, 2);
    }

    #[test]
    fn directed_grids_match_dinic() {
        for seed in 0..4u64 {
            let g = gen::grid(4, 4).unwrap();
            let caps = gen::random_directed_capacities(g.num_edges(), 0, 7, seed);
            check(&g, &caps, 0, g.num_vertices() - 1);
        }
    }

    #[test]
    fn undirected_diag_grids_match_dinic() {
        for seed in 0..3u64 {
            let g = gen::diag_grid(4, 4, seed).unwrap();
            let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, seed + 50);
            check(&g, &caps, 0, g.num_vertices() - 1);
        }
    }

    #[test]
    fn asymmetric_dart_capacities() {
        let g = gen::apollonian(14, 2).unwrap();
        let caps = gen::random_directed_capacities(g.num_edges(), 1, 6, 9);
        // s, t: outer triangle corners.
        check(&g, &caps, 0, 1);
    }

    #[test]
    fn zero_capacity_cut_gives_zero_flow() {
        let g = gen::grid(3, 3).unwrap();
        let caps = vec![0; g.num_darts()];
        let r = check(&g, &caps, 0, 8);
        assert_eq!(r.value, 0);
    }

    #[test]
    fn bad_endpoints_rejected() {
        let g = gen::grid(3, 3).unwrap();
        let caps = vec![1; g.num_darts()];
        let solver = PlanarSolver::builder(&g).capacities(&caps).build().unwrap();
        assert_eq!(
            solver.max_flow(2, 2).err(),
            Some(DualityError::BadEndpoints { s: 2, t: 2, n: 9 })
        );
        let mut caps2 = caps;
        caps2[3] = -1;
        assert_eq!(
            PlanarSolver::builder(&g).capacities(caps2).build().err(),
            Some(DualityError::NegativeCapacity { dart: 3 })
        );
    }

    #[test]
    fn probe_count_is_logarithmic() {
        let g = gen::grid(4, 4).unwrap();
        let caps = gen::random_directed_capacities(g.num_edges(), 1, 100, 1);
        let r = check(&g, &caps, 0, 15);
        let upper: Weight = g.out_darts(0).iter().map(|&d| caps[d.index()]).sum();
        assert!(u64::from(r.probes) <= 2 + (upper as u64).ilog2() as u64 + 1);
        assert!(r.rounds.phase_total("labeling-broadcast") > 0);
    }
}
