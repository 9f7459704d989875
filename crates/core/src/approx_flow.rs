//! `(1−ε)`-approximate maximum st-flow in undirected *st-planar* graphs in
//! `D·n^{o(1)}` rounds (paper, Theorem 1.3).
//!
//! Hassin's reduction: embed an artificial edge `e = (t, s)` inside a face
//! containing both `s` and `t`, splitting it into faces `f₁, f₂`; then the
//! max st-flow equals `dist(f₁, f₂)` in the dual of `G ∪ {e}` with lengths
//! = capacities, and the shortest-path potentials give a flow assignment
//! `flow(d) = δ(face(rev d)) − δ(face(d))`.
//!
//! The distributed SSSP oracle is `(1+ε)`-approximate, and the assignment
//! needs the approximate distances to be *smooth* (satisfy the triangle
//! inequality within `1+ε` — Rozhoň et al., simulated in the
//! minor-aggregation model per Section 6.1). We realize a genuinely
//! `(1+1/k)`-smooth oracle by rounding every capacity up to
//! `c̃ = c + ⌊c/k⌋` and running the exact oracle on `c̃`: exact distances
//! are 1-smooth w.r.t. `c̃`, hence `(1+1/k)`-smooth w.r.t. `c`. Flows are
//! reported as exact rationals `numer/denom` with `denom = k+1`, making
//! every feasibility check exact integer arithmetic. Zero-capacity edges
//! are handled by the paper's contraction trick (executed for real in the
//! minor-aggregation model).
//!
//! Run it through [`crate::solver::PlanarSolver::approx_max_flow`] (or
//! [`crate::solver::Query::ApproxMaxFlow`]).

use crate::error::DualityError;
use crate::smoothing::quantize;
use duality_congest::{CostLedger, CostModel};
use duality_minor_agg::{MaEdge, MinorAgg};
use duality_planar::{dual::DualView, Dart, FaceId, PlanarGraph, Weight};

/// What Hassin's pipeline computes: a rational flow `flow_numer[d] /
/// denom` per dart, the augmented graph `G ∪ {e}`, the two faces split by
/// the artificial edge, and the parent dart of every face in the shortest
/// path tree from `f1`.
pub(crate) struct ApproxFlowOutcome {
    pub value_numer: Weight,
    pub denom: Weight,
    pub flow_numer: Vec<Weight>,
    pub aug: PlanarGraph,
    pub f1: FaceId,
    pub f2: FaceId,
    pub parent: Vec<Option<Dart>>,
}

/// Hassin's pipeline proper. Inputs are pre-validated (distinct endpoints,
/// symmetric non-negative capacities) except st-planarity, which is
/// discovered here.
pub(crate) fn run_approx_flow(
    g: &PlanarGraph,
    cm: &CostModel,
    caps: &[Weight],
    s: usize,
    t: usize,
    eps_inverse: u64,
    ledger: &mut CostLedger,
) -> Result<ApproxFlowOutcome, DualityError> {
    // Locate a common face of s and t (one PA on Ĝ — paper, Section 6.1).
    ledger.charge("find-common-face", cm.dual_part_wise_aggregation());
    let common = g.faces().find(|&f| {
        let mut has_s = false;
        let mut has_t = false;
        for &d in g.face_darts(f) {
            has_s |= g.tail(d) == s;
            has_t |= g.tail(d) == t;
        }
        has_s && has_t
    });
    let Some(face) = common else {
        return Err(DualityError::NotStPlanar { s, t });
    };

    // Augment: e = (t, s) inside that face.
    let aug = g
        .insert_edge_in_face(t, s, face)
        .expect("both endpoints lie on the face");
    let new_edge = g.num_edges();
    let f1 = aug.face_of(Dart::forward(new_edge));
    let f2 = aug.face_of(Dart::backward(new_edge));
    debug_assert_ne!(f1, f2, "the artificial edge splits its face");

    // Quantized capacities: c̃ = c + ⌊c/k⌋ (k = 0 ⇒ exact), the
    // (1+1/k)-smooth oracle's quantization.
    let k = eps_inverse as Weight;
    let big: Weight = (0..g.num_edges())
        .map(|e| quantize(caps[2 * e], k))
        .sum::<Weight>()
        + 1;
    let mut lengths = vec![0; aug.num_darts()];
    for e in 0..g.num_edges() {
        lengths[2 * e] = quantize(caps[2 * e], k);
        lengths[2 * e + 1] = quantize(caps[2 * e + 1], k);
    }
    lengths[2 * new_edge] = big;
    lengths[2 * new_edge + 1] = big;

    // Minor-aggregation pipeline on (G ∪ {e})*: contract zero-weight dual
    // edges, run the approximate-SSSP oracle (black box), smooth transform
    // wrapper (O(log n) oracle calls — Rozhoň et al.), expand.
    let ma_edges: Vec<MaEdge> = (0..aug.num_edges())
        .map(|e| {
            let d = Dart::forward(e);
            MaEdge {
                u: aug.face_of(d).index(),
                v: aug.face_of(d.rev()).index(),
                weight: lengths[d.index()],
            }
        })
        .collect();
    let mut ma = MinorAgg::new(aug.num_faces(), ma_edges);
    ma.contract(|e| e.weight == 0);
    let oracle = cm.approx_sssp_minor_aggregation_rounds(eps_inverse.max(1));
    ma.add_black_box_rounds((2 * cm.log_n() + 1) * oracle);
    // The artificial-edge reduction adds O(1) virtual nodes (f1, f2):
    // extended-model simulation with β = 2.
    ma.charge(2, cm, ledger, "approx-sssp");

    // Oracle distances: exact Dijkstra on the quantized lengths (1-smooth
    // w.r.t. c̃, hence (1+1/k)-smooth w.r.t. c).
    let dual = DualView::new(&aug, &lengths, |_| true);
    let (dist, parent) = dual.dijkstra(f1);

    // Assignment: numerators k·(δ(face(rev d)) − δ(face(d))) over
    // denominator k+1; exact mode: denominator 1.
    let (mult, denom) = if k > 0 { (k, k + 1) } else { (1, 1) };
    let mut flow_numer = vec![0; g.num_darts()];
    for d in g.darts() {
        let (from, to) = aug.dual_arc(d);
        flow_numer[d.index()] = mult * (dist[to.index()] - dist[from.index()]);
    }
    // Orient the flow from s to t.
    let mut net_s: Weight = g.out_darts(s).iter().map(|&d| flow_numer[d.index()]).sum();
    if net_s < 0 {
        for x in flow_numer.iter_mut() {
            *x = -*x;
        }
        net_s = -net_s;
    }

    Ok(ApproxFlowOutcome {
        value_numer: net_s,
        denom,
        flow_numer,
        aug,
        f1,
        f2,
        parent,
    })
}

#[cfg(test)]
mod tests {
    use crate::solver::{ApproxFlowReport, PlanarSolver};
    use crate::DualityError;
    use duality_baselines::flow::planar_max_flow_reference;
    use duality_planar::{gen, PlanarGraph, Weight};

    fn solver(g: &PlanarGraph, caps: &[Weight]) -> PlanarSolver {
        PlanarSolver::builder(g).capacities(caps).build().unwrap()
    }

    /// Exact rational feasibility + approximation checks.
    fn check(g: &PlanarGraph, caps: &[Weight], s: usize, t: usize, k: u64) -> ApproxFlowReport {
        let r = solver(g, caps).approx_max_flow(s, t, k).unwrap();
        // Antisymmetry + scaled capacity.
        for d in g.darts() {
            assert_eq!(r.flow_numer[d.index()], -r.flow_numer[d.rev().index()]);
            assert!(
                r.flow_numer[d.index()] <= caps[d.index()] * r.denom,
                "capacity at {d:?}: {} > {} * {}",
                r.flow_numer[d.index()],
                caps[d.index()],
                r.denom
            );
        }
        // Conservation everywhere except s, t.
        for v in 0..g.num_vertices() {
            let net: Weight = g
                .out_darts(v)
                .iter()
                .map(|&d| r.flow_numer[d.index()])
                .sum();
            if v == s {
                assert_eq!(net, r.value_numer);
            } else if v == t {
                assert_eq!(net, -r.value_numer);
            } else {
                assert_eq!(net, 0, "conservation at {v}");
            }
        }
        // Approximation guarantee: value ∈ [maxflow·k/(k+1), maxflow], in
        // i128 so that large capacities cannot overflow the check itself.
        let (value, denom) = (i128::from(r.value_numer), i128::from(r.denom));
        let exact = i128::from(planar_max_flow_reference(g, caps, s, t));
        assert!(value <= exact * denom, "value exceeds max flow");
        if k == 0 {
            assert_eq!(value, exact, "exact mode matches Dinic");
        } else {
            let kk = i128::from(k);
            assert!(
                value * (kk + 1) >= exact * denom * kk,
                "value {value}/{denom} below (1-eps) * {exact}"
            );
        }
        r
    }

    #[test]
    fn exact_mode_matches_dinic_on_grids() {
        for seed in 0..4u64 {
            let g = gen::grid(4, 4).unwrap();
            let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, seed);
            // 0 and 12 are both corners on the outer face.
            check(&g, &caps, 0, 12, 0);
        }
    }

    #[test]
    fn approximate_mode_is_feasible_and_close() {
        for k in [1u64, 2, 4, 10] {
            let g = gen::grid(5, 4).unwrap();
            let caps = gen::random_undirected_capacities(g.num_edges(), 1, 20, k);
            check(&g, &caps, 0, 4, k); // both corners of the top row share the outer face
        }
    }

    #[test]
    fn adjacent_st_on_inner_face() {
        let g = gen::grid(4, 4).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 6, 3);
        // 5 and 6 are adjacent interior vertices sharing an inner face.
        check(&g, &caps, 5, 6, 0);
    }

    #[test]
    fn zero_capacities_handled() {
        let g = gen::grid(4, 3).unwrap();
        let mut caps = gen::random_undirected_capacities(g.num_edges(), 1, 5, 7);
        // Zero out a few edges.
        for e in [0usize, 3, 5] {
            caps[2 * e] = 0;
            caps[2 * e + 1] = 0;
        }
        check(&g, &caps, 0, 3, 2);
    }

    #[test]
    fn non_st_planar_rejected() {
        let g = gen::grid(5, 5).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 5, 1);
        // Center (12) and corner (0) share no face in a 5x5 grid.
        assert_eq!(
            solver(&g, &caps).approx_max_flow(0, 12, 0).err(),
            Some(DualityError::NotStPlanar { s: 0, t: 12 })
        );
    }

    #[test]
    fn directed_capacities_rejected() {
        let g = gen::grid(3, 3).unwrap();
        let caps = gen::random_directed_capacities(g.num_edges(), 1, 5, 1);
        assert_eq!(
            solver(&g, &caps).approx_max_flow(0, 2, 0).err(),
            Some(DualityError::NotUndirected)
        );
    }

    #[test]
    fn symmetric_negative_capacities_rejected_without_panicking() {
        // Symmetric but negative: rejected when the instance is built,
        // before any st-planar query can run on it.
        let g = gen::grid(3, 3).unwrap();
        let neg = vec![-1; g.num_darts()];
        assert_eq!(
            PlanarSolver::builder(&g).capacities(neg).build().err(),
            Some(DualityError::NegativeCapacity { dart: 0 })
        );
    }

    #[test]
    fn eps_inverse_past_the_limits_is_refused() {
        use crate::solver::MAX_EPS_INVERSE;
        let g = gen::grid(4, 4).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 3);
        let small = solver(&g, &caps);
        // Unchecked, 2^40 overflows the oracle's round charge, and 2^63
        // casts to a negative k that silently runs exact mode.
        for eps_inverse in [1 << 40, 1 << 63, MAX_EPS_INVERSE + 1] {
            let refused = Some(DualityError::EpsilonTooFine {
                eps_inverse,
                limit: MAX_EPS_INVERSE,
            });
            assert_eq!(small.approx_max_flow(0, 1, eps_inverse).err(), refused);
            assert_eq!(small.approx_min_st_cut(0, 1, eps_inverse).err(), refused);
        }
        check(&g, &caps, 0, 1, MAX_EPS_INVERSE);

        // Large capacities: Hassin's numerators bound 1/ε below the cap.
        let big: Vec<Weight> = caps.iter().map(|&c| c << 40).collect();
        let total: Weight = big.iter().sum();
        let limit = (Weight::MAX / (4 * total + 2)) as u64;
        assert!(limit < MAX_EPS_INVERSE);
        let refused = Some(DualityError::EpsilonTooFine {
            eps_inverse: limit + 1,
            limit,
        });
        assert_eq!(
            solver(&g, &big).approx_max_flow(0, 1, limit + 1).err(),
            refused
        );
        check(&g, &big, 0, 1, limit);
    }

    #[test]
    fn rounds_are_d_times_subpolynomial() {
        let g = gen::grid(6, 6).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 5, 4);
        let r = check(&g, &caps, 0, 5, 0);
        assert!(r.rounds.phase_total("approx-sssp") > 0);
    }
}
