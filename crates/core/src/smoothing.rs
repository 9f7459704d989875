//! Smooth approximate distances (paper, Section 6.1; Rozhoň–Haeupler–
//! Martinsson–Grunau–Zuzic).
//!
//! Hassin's flow assignment sets `flow(d) = δ(face(rev d)) − δ(face(d))`
//! from approximate dual distances `δ`. For the assignment to respect
//! capacities, `δ` must be *`(1+ε)`-smooth*: `δ(v) − δ(u) ≤ (1+ε)·dist(u,v)`
//! for all `u, v` (Definition 4.2 of Rozhoň et al.) — plain approximate
//! distances do **not** satisfy this, and [`is_smooth`]'s test-suite
//! exhibits a non-smooth `(1+ε)`-approximation that violates capacities.
//!
//! This module provides the workspace's realization of a genuinely
//! `(1+1/k)`-smooth approximate oracle, [`smooth_distances_by_quantization`]:
//! run the *exact* oracle on capacities rounded up to `c̃ = c + ⌊c/k⌋`.
//! Exact distances are 1-smooth with respect to `c̃`, hence `(1+1/k)`-smooth
//! with respect to `c`, and `dist_c ≤ d̃ ≤ (1+1/k)·dist_c`. `DESIGN.md` §3
//! documents this as the substitution for the full level-graph transform of
//! Rozhoň et al. (whose distributed implementation cost is charged by
//! `CostModel::approx_sssp_minor_aggregation_rounds`).

use duality_planar::{Weight, INF};

/// A weighted arc list over `n` nodes: `(from, to, weight)`.
pub type Arcs = Vec<(usize, usize, Weight)>;

/// Checks `(1 + 1/k)`-smoothness of `dist` (k = 0 means exactly 1-smooth):
/// for every arc `(u, v, w)`, `k·(dist[v] − dist[u]) ≤ (k+1)·w` — the
/// arc-local form, which by induction along shortest paths implies the
/// pairwise definition.
pub fn is_smooth(n: usize, arcs: &Arcs, dist: &[Weight], k: Weight) -> bool {
    assert_eq!(dist.len(), n);
    let (num, den) = if k > 0 { (k + 1, k) } else { (1, 1) };
    arcs.iter().all(|&(u, v, w)| {
        if dist[u] >= INF / 2 || dist[v] >= INF / 2 {
            return true;
        }
        den * (dist[v] - dist[u]) <= num * w
    })
}

/// Exact Dijkstra over an arc list (the oracle the quantization wraps).
pub fn dijkstra(n: usize, arcs: &Arcs, source: usize) -> Vec<Weight> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut adj = vec![Vec::new(); n];
    for &(u, v, w) in arcs {
        debug_assert!(w >= 0);
        adj[u].push((v, w));
    }
    let mut dist = vec![INF; n];
    let mut heap = BinaryHeap::new();
    dist[source] = 0;
    heap.push(Reverse((0, source)));
    while let Some(Reverse((du, u))) = heap.pop() {
        if du > dist[u] {
            continue;
        }
        for &(v, w) in &adj[u] {
            if du + w < dist[v] {
                dist[v] = du + w;
                heap.push(Reverse((du + w, v)));
            }
        }
    }
    dist
}

/// Produces `(1 + 1/k)`-smooth, `(1 + 1/k)`-approximate distances from
/// `source` by quantizing every weight up to `w + ⌊w/k⌋` and running the
/// exact oracle (`k = 0`: exact distances, trivially smooth).
///
/// Guarantees (tested):
/// * `dist(u) ≤ out[u] ≤ (1 + 1/k)·dist(u)`,
/// * [`is_smooth`]`(…, k)` holds.
pub fn smooth_distances_by_quantization(
    n: usize,
    arcs: &Arcs,
    source: usize,
    k: Weight,
) -> Vec<Weight> {
    assert!(k >= 0);
    let quantized: Arcs = arcs
        .iter()
        .map(|&(u, v, w)| (u, v, quantize(w, k)))
        .collect();
    dijkstra(n, &quantized, source)
}

/// Rounds a weight up to `w + ⌊w/k⌋` (`k = 0`: unchanged), the
/// quantization behind the `(1 + 1/k)`-smooth oracle.
pub fn quantize(w: Weight, k: Weight) -> Weight {
    if k > 0 {
        w + w / k
    } else {
        w
    }
}

/// A deliberately *non-smooth* `(1+α)`-approximation used by the tests to
/// demonstrate why Hassin's assignment needs smoothing: it inflates every
/// distance by the worst-case factor except at odd-indexed nodes.
pub fn adversarial_approximation(exact: &[Weight], num: Weight, den: Weight) -> Vec<Weight> {
    exact
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            if d >= INF / 2 {
                d
            } else if i % 2 == 0 {
                d * num / den
            } else {
                d
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A long path with unit arcs: the classic smoothness counterexample.
    fn unit_path(n: usize) -> Arcs {
        (0..n - 1).map(|i| (i, i + 1, 1)).collect()
    }

    #[test]
    fn exact_distances_are_smooth() {
        let arcs = unit_path(20);
        let d = dijkstra(20, &arcs, 0);
        assert!(is_smooth(20, &arcs, &d, 0));
        assert!(is_smooth(20, &arcs, &d, 5));
    }

    #[test]
    fn adversarial_approximation_is_not_smooth() {
        // 10% inflation on even nodes: each even node sits ~0.1·i above its
        // odd neighbour — across a unit arc this eventually exceeds
        // (1+1/k)·w for any fixed k. This is exactly the paper's example of
        // why an approximate SSSP cannot be used for flow assignment as-is.
        let n = 60;
        let arcs = unit_path(n);
        let exact = dijkstra(n, &arcs, 0);
        let approx = adversarial_approximation(&exact, 11, 10);
        // It *is* a valid (1+0.1)-approximation...
        for (a, e) in approx.iter().zip(&exact) {
            assert!(e <= a && *a * 10 <= e * 11);
        }
        // ...but not smooth at any reasonable k.
        assert!(!is_smooth(n, &arcs, &approx, 5));
        assert!(!is_smooth(n, &arcs, &approx, 2));
    }

    #[test]
    fn quantized_distances_are_smooth_and_close() {
        let n = 40;
        let mut arcs = unit_path(n);
        // Add some heavier shortcuts.
        for i in (0..n - 5).step_by(5) {
            arcs.push((i, i + 5, 4));
        }
        let exact = dijkstra(n, &arcs, 0);
        for k in [1, 2, 4, 8] {
            let smooth = smooth_distances_by_quantization(n, &arcs, 0, k);
            assert!(is_smooth(n, &arcs, &smooth, k), "k = {k}");
            for (s, e) in smooth.iter().zip(&exact) {
                assert!(e <= s, "never below exact");
                assert!(*s * k <= e * (k + 1), "within (1+1/{k})");
            }
        }
    }

    #[test]
    fn smoothness_propagates_to_potential_differences() {
        // The property Hassin's assignment needs: for any arc (u,v,w),
        // k·(δ(v)−δ(u)) ≤ (k+1)·w, i.e. the scaled potential difference
        // respects the scaled capacity.
        let n = 30;
        let arcs: Arcs = (0..n - 1)
            .map(|i| (i, i + 1, (i as Weight % 5) + 1))
            .chain((0..n - 1).map(|i| (i + 1, i, (i as Weight % 5) + 1)))
            .collect();
        let k = 3;
        let d = smooth_distances_by_quantization(n, &arcs, 0, k);
        for &(u, v, w) in &arcs {
            assert!(k * (d[v] - d[u]) <= (k + 1) * w);
        }
    }

    #[test]
    fn unreachable_nodes_stay_infinite() {
        let arcs: Arcs = vec![(0, 1, 3)];
        let d = smooth_distances_by_quantization(3, &arcs, 0, 2);
        assert!(d[2] >= INF / 2);
        assert!(is_smooth(3, &arcs, &d, 2));
    }
}
