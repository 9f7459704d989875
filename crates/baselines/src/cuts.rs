//! Centralized cut references: Stoer–Wagner (undirected global min cut,
//! sparse maximum-adjacency phases), brute-force directed global min cut,
//! and the min *dart-simple* directed dual cycle used to validate the
//! distributed directed-global-min-cut algorithm.

use crate::shortest_paths::Digraph;
use duality_planar::{Dart, PlanarGraph, Weight, INF};

/// Stoer–Wagner minimum cut of an undirected weighted multigraph on
/// vertices `0..n`, given as an edge list `(u, v, weight)` with
/// non-negative weights (parallel edges add up; self-loops cross no cut).
/// Returns `(cut_weight, side)` where `side[v]` is true for one shore.
///
/// Each maximum-adjacency phase grows a set `A` one vertex at a time on
/// per-vertex adjacency lists, keeping the vertices that touch `A` in an
/// indexed max-heap, and contracting the phase's last vertex `t` into the
/// one before it, `s`, merges `t`'s neighbours into `s`'s: `O(n·m log n)`
/// time and `O(n + m)` memory for `m` edges, with no `n × n` matrix. The
/// result is deterministic: every phase starts at the largest live index,
/// the next vertex is the one with the largest weight to `A` (ties to the
/// largest index), `t` merges into `s`, and the best cut changes only on a
/// strictly smaller cut of the phase.
///
/// # Panics
///
/// Panics if the graph has fewer than 2 vertices or a negative weight.
pub fn stoer_wagner(n: usize, edges: &[(usize, usize, Weight)]) -> (Weight, Vec<bool>) {
    assert!(n >= 2, "min cut needs at least two vertices");
    // `adj[v]`: one `(neighbour, total weight)` per neighbour of the live
    // super-vertex `v`; `slot` is all `usize::MAX` between uses.
    let mut adj: Vec<Vec<(usize, Weight)>> = vec![Vec::new(); n];
    let mut slot = vec![usize::MAX; n];
    for &(u, v, w) in edges {
        assert!(w >= 0, "Stoer–Wagner needs non-negative weights");
        if u != v {
            adj[u].push((v, w));
            adj[v].push((u, w));
        }
    }
    for list in &mut adj {
        sum_parallel(list, &mut slot);
    }
    // `members[i]` = original vertices merged into super-vertex i.
    let mut members: Vec<Vec<usize>> = (0..n).map(|v| vec![v]).collect();
    let mut live: Vec<usize> = (0..n).collect();
    let mut in_a = vec![false; n];
    let mut weight_to_a = vec![0 as Weight; n];
    // The vertices outside `A` with a positive weight to `A`.
    let mut touching = MaxHeap::new(n);
    let mut best = (INF, Vec::new());
    while live.len() > 1 {
        // Maximum adjacency (minimum cut phase).
        for &v in &live {
            in_a[v] = false;
            weight_to_a[v] = 0;
        }
        // `live[cursor..]` are all in `A`.
        let mut cursor = live.len();
        let (mut s, mut t) = (usize::MAX, usize::MAX);
        for _ in 0..live.len() {
            let next = match touching.pop(&weight_to_a) {
                Some(v) => v,
                None => {
                    // Every weight to `A` is 0: take the largest live
                    // index outside `A`.
                    cursor -= 1;
                    while in_a[live[cursor]] {
                        cursor -= 1;
                    }
                    live[cursor]
                }
            };
            in_a[next] = true;
            (s, t) = (t, next);
            for &(v, w) in &adj[next] {
                if !in_a[v] && w != 0 {
                    weight_to_a[v] += w;
                    touching.raise(v, &weight_to_a);
                }
            }
        }
        let cut_of_phase = weight_to_a[t];
        if cut_of_phase < best.0 {
            let mut side = vec![false; n];
            for &v in &members[t] {
                side[v] = true;
            }
            best = (cut_of_phase, side);
        }
        // Merge t into s: the s–t edge vanishes, and t's other neighbours
        // become s's.
        let t_members = std::mem::take(&mut members[t]);
        members[s].extend(t_members);
        let t_adj = std::mem::take(&mut adj[t]);
        for &(v, w) in &t_adj {
            if v != s {
                let list = &mut adj[v];
                list.retain(|&(x, _)| x != t);
                list.push((s, w));
                sum_parallel(list, &mut slot);
            }
        }
        adj[s].retain(|&(x, _)| x != t);
        adj[s].extend(t_adj.into_iter().filter(|&(v, _)| v != s));
        sum_parallel(&mut adj[s], &mut slot);
        live.retain(|&v| v != t);
    }
    best
}

/// Sums the entries of an adjacency list that share a neighbour into the
/// first of them. `slot` is all `usize::MAX` on entry and on return.
fn sum_parallel(list: &mut Vec<(usize, Weight)>, slot: &mut [usize]) {
    let mut kept = 0;
    for i in 0..list.len() {
        let (v, w) = list[i];
        if slot[v] == usize::MAX {
            slot[v] = kept;
            list[kept] = (v, w);
            kept += 1;
        } else {
            list[slot[v]].1 += w;
        }
    }
    list.truncate(kept);
    for &(v, _) in list.iter() {
        slot[v] = usize::MAX;
    }
}

/// A binary max-heap of vertices ordered by `(key, index)`, which keeps
/// each member's position so that a raised key sifts up in place.
struct MaxHeap {
    items: Vec<usize>,
    /// `pos[v]`: `v`'s index in `items`, or `usize::MAX` if absent.
    pos: Vec<usize>,
}

impl MaxHeap {
    fn new(n: usize) -> Self {
        MaxHeap {
            items: Vec::new(),
            pos: vec![usize::MAX; n],
        }
    }

    /// Removes and returns the member with the largest `(key, index)`.
    fn pop(&mut self, key: &[Weight]) -> Option<usize> {
        let top = *self.items.first()?;
        self.pos[top] = usize::MAX;
        let last = self.items.pop().expect("non-empty");
        let len = self.items.len();
        if len > 0 {
            let mut i = 0;
            loop {
                let mut c = 2 * i + 1;
                if c >= len {
                    break;
                }
                if c + 1 < len && above(key, self.items[c + 1], self.items[c]) {
                    c += 1;
                }
                if !above(key, self.items[c], last) {
                    break;
                }
                self.items[i] = self.items[c];
                self.pos[self.items[i]] = i;
                i = c;
            }
            self.items[i] = last;
            self.pos[last] = i;
        }
        Some(top)
    }

    /// Inserts `v`, or restores the heap after `key[v]` grew.
    fn raise(&mut self, v: usize, key: &[Weight]) {
        let mut i = self.pos[v];
        if i == usize::MAX {
            i = self.items.len();
            self.items.push(v);
        }
        while i > 0 {
            let parent = self.items[(i - 1) / 2];
            if !above(key, v, parent) {
                break;
            }
            self.items[i] = parent;
            self.pos[parent] = i;
            i = (i - 1) / 2;
        }
        self.items[i] = v;
        self.pos[v] = i;
    }
}

/// Whether `a` comes before `b` in the maximum-adjacency order.
fn above(key: &[Weight], a: usize, b: usize) -> bool {
    (key[a], a) > (key[b], b)
}

/// Brute-force directed global minimum cut: minimum over all bipartitions
/// `(S, V∖S)` with `S ∋ 0` proper and nonempty... every nonempty proper `S`
/// is considered (both orientations arise as `S` and its complement).
/// Weight of a cut = total weight of arcs leaving `S`. Exponential; for
/// validation on graphs with `n ≤ ~16`.
pub fn brute_force_directed_min_cut(g: &Digraph) -> (Weight, Vec<bool>) {
    let n = g.len();
    assert!((2..=20).contains(&n), "brute force only for tiny graphs");
    let mut best = (INF, Vec::new());
    for mask in 1..(1u32 << n) - 1 {
        let in_s = |v: usize| mask >> v & 1 == 1;
        let mut weight = 0;
        for u in 0..n {
            if !in_s(u) {
                continue;
            }
            for &(v, w) in &g.adj[u] {
                if !in_s(v) {
                    weight += w;
                }
            }
        }
        if weight < best.0 {
            best = (weight, (0..n).map(in_s).collect());
        }
    }
    best
}

/// Minimum-weight *dart-simple* directed cycle of the dual `G'*` (each dart
/// `d` contributes the dual arc `face(d) → face(rev d)` with weight
/// `weights[d]`), excluding the degenerate two-cycles `{d*, rev(d)*}`.
///
/// Computed by the per-dart formula proved in `duality-core::global_cut`:
/// `min over darts d of w(d*) + dist(head(d*) → tail(d*))` in the dual with
/// the single arc `rev(d)*` removed. By planar duality this equals the
/// directed global minimum cut of `G` (paper, Theorem 1.5 / Section 7).
///
/// Requires non-negative weights. Bridges of `G` are dual *self-loops*,
/// i.e. valid one-arc cycles (the cut isolating one side of the bridge), so
/// trees have directed min cut 0 via their zero-weight reversal loops.
/// Returns `None` only when `G` has no edges (no bipartition crosses).
pub fn min_dart_simple_dual_cycle(g: &PlanarGraph, weights: &[Weight]) -> Option<Weight> {
    assert_eq!(weights.len(), g.num_darts());
    if g.num_edges() == 0 {
        return None;
    }
    let mut best = INF;
    for d in g.darts() {
        let (from, to) = g.dual_arc(d);
        // Shortest to → from path avoiding the single arc rev(d)* (which is
        // the arc from `to` to `from` crossing rev(d)).
        let mut dist = vec![INF; g.num_faces()];
        dist[to.index()] = 0;
        // Dijkstra over dual arcs with the exclusion.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0, to.index())));
        while let Some(Reverse((du, u))) = heap.pop() {
            if du > dist[u] {
                continue;
            }
            for &dd in g.face_darts(duality_planar::FaceId(u as u32)) {
                if dd == d.rev() {
                    continue; // the excluded reversal arc
                }
                let v = g.face_of(dd.rev()).index();
                let w = weights[dd.index()];
                debug_assert!(w >= 0);
                if du + w < dist[v] {
                    dist[v] = du + w;
                    heap.push(Reverse((du + w, v)));
                }
            }
        }
        if dist[from.index()] < INF {
            best = best.min(weights[d.index()] + dist[from.index()]);
        }
    }
    (best < INF).then_some(best)
}

/// The directed global min cut of a planar instance where forward darts
/// carry `edge_weights[e]` and reversal darts weight 0, computed via
/// [`min_dart_simple_dual_cycle`].
pub fn planar_directed_min_cut_reference(
    g: &PlanarGraph,
    edge_weights: &[Weight],
) -> Option<Weight> {
    let mut dart_w = vec![0; g.num_darts()];
    for (e, &w) in edge_weights.iter().enumerate() {
        dart_w[Dart::forward(e).index()] = w;
    }
    min_dart_simple_dual_cycle(g, &dart_w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use duality_planar::gen;
    use proptest::prelude::*;

    /// The textbook `O(n³)` Stoer–Wagner on a symmetric weight matrix, with
    /// the same four rules as [`stoer_wagner`]: each phase starts at the
    /// largest live index, ties go to the largest index (`max_by_key` over
    /// the ascending live list), `t` merges into `s`, and only a strictly
    /// smaller phase cut replaces the best. The oracle of the sparse one.
    fn dense_stoer_wagner(w: &[Vec<Weight>]) -> (Weight, Vec<bool>) {
        let n = w.len();
        let mut w = w.to_vec();
        let mut members: Vec<Vec<usize>> = (0..n).map(|v| vec![v]).collect();
        let mut active: Vec<usize> = (0..n).collect();
        let mut best = (INF, Vec::new());
        while active.len() > 1 {
            let mut in_a = vec![false; n];
            let mut weight_to_a = vec![0 as Weight; n];
            let mut order = Vec::with_capacity(active.len());
            for _ in 0..active.len() {
                let &next = active
                    .iter()
                    .filter(|&&v| !in_a[v])
                    .max_by_key(|&&v| weight_to_a[v])
                    .expect("active vertex remains");
                in_a[next] = true;
                order.push(next);
                for &v in &active {
                    if !in_a[v] {
                        weight_to_a[v] += w[next][v];
                    }
                }
            }
            let t = *order.last().unwrap();
            let s = order[order.len() - 2];
            let cut_of_phase = weight_to_a[t];
            if cut_of_phase < best.0 {
                let mut side = vec![false; n];
                for &v in &members[t] {
                    side[v] = true;
                }
                best = (cut_of_phase, side);
            }
            let t_members = std::mem::take(&mut members[t]);
            members[s].extend(t_members);
            for &v in &active {
                if v != s && v != t {
                    w[s][v] += w[t][v];
                    w[v][s] = w[s][v];
                }
            }
            active.retain(|&v| v != t);
        }
        best
    }

    /// The weight matrix of an edge list (self-loops dropped).
    fn matrix(n: usize, edges: &[(usize, usize, Weight)]) -> Vec<Vec<Weight>> {
        let mut w = vec![vec![0; n]; n];
        for &(u, v, x) in edges {
            if u != v {
                w[u][v] += x;
                w[v][u] += x;
            }
        }
        w
    }

    #[test]
    fn stoer_wagner_triangle() {
        // Triangle with weights 1, 2, 3: min cut isolates the vertex with
        // the two lightest incident edges.
        let (cut, side) = stoer_wagner(3, &[(0, 1, 1), (0, 2, 2), (1, 2, 3)]);
        assert_eq!(cut, 3); // cut {0} with edges 1 + 2
        let shore: Vec<usize> = (0..3).filter(|&v| side[v]).collect();
        assert!(shore == vec![0] || shore == vec![1, 2]);
    }

    #[test]
    fn stoer_wagner_two_clusters() {
        // Two triangles of weight-10 edges joined by a weight-1 bridge.
        let n = 6;
        let mut edges: Vec<(usize, usize, Weight)> =
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
                .iter()
                .map(|&(a, b)| (a, b, 10))
                .collect();
        edges.push((2, 3, 1));
        let (cut, side) = stoer_wagner(n, &edges);
        assert_eq!(cut, 1);
        let s: Vec<usize> = (0..n).filter(|&v| side[v]).collect();
        assert!(s == vec![0, 1, 2] || s == vec![3, 4, 5]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sparse Stoer–Wagner returns exactly the dense oracle's cut
        /// and shore on random multigraphs: parallel edges, self-loops,
        /// zero weights and disconnected graphs included.
        #[test]
        fn stoer_wagner_matches_the_dense_oracle(
            n in 2usize..41,
            m in 0usize..121,
            wmax in 0i64..10,
            ends in prop::collection::vec(0usize..1_000_000, 240),
            weights in prop::collection::vec(0i64..1_000, 120),
        ) {
            let edges: Vec<(usize, usize, Weight)> = (0..m)
                .map(|i| (ends[2 * i] % n, ends[2 * i + 1] % n, weights[i] % (wmax + 1)))
                .collect();
            prop_assert_eq!(stoer_wagner(n, &edges), dense_stoer_wagner(&matrix(n, &edges)));
        }
    }

    #[test]
    fn brute_force_cut_on_directed_triangle() {
        let mut g = Digraph::new(3);
        g.add_arc(0, 1, 1);
        g.add_arc(1, 2, 1);
        g.add_arc(2, 0, 1);
        // Every singleton S has exactly one leaving arc.
        let (cut, _) = brute_force_directed_min_cut(&g);
        assert_eq!(cut, 1);
    }

    #[test]
    fn brute_force_cut_zero_when_not_strongly_connected() {
        let mut g = Digraph::new(3);
        g.add_arc(0, 1, 5);
        g.add_arc(1, 2, 5);
        let (cut, side) = brute_force_directed_min_cut(&g);
        assert_eq!(cut, 0);
        assert!(side.iter().any(|&b| b) && side.iter().any(|&b| !b));
    }

    #[test]
    fn dual_cycle_equals_brute_force_on_small_planar() {
        for seed in 0..5u64 {
            let g = gen::diag_grid(3, 3, seed).unwrap();
            let ew = gen::random_edge_weights(g.num_edges(), 1, 9, seed + 100);
            // Brute force on the primal digraph (forward direction only).
            let mut dg = Digraph::new(g.num_vertices());
            for (e, &w) in ew.iter().enumerate() {
                dg.add_arc(g.edge_tail(e), g.edge_head(e), w);
            }
            let (bf, _) = brute_force_directed_min_cut(&dg);
            let dual = planar_directed_min_cut_reference(&g, &ew).unwrap();
            assert_eq!(dual, bf, "seed {seed}");
        }
    }

    #[test]
    fn dual_cycle_on_trees_is_zero() {
        // A directed path is not strongly connected: some bipartition has
        // no leaving arc, so the min directed cut is 0 (the reversal
        // self-loop of any bridge).
        let g = gen::path(5).unwrap();
        let ew = vec![3; g.num_edges()];
        assert_eq!(planar_directed_min_cut_reference(&g, &ew), Some(0));
    }

    #[test]
    fn degenerate_pair_not_reported() {
        // Triangle, all weights 1, both directions: the min directed cut is
        // 1 (each singleton has 1 leaving forward arc... actually each
        // vertex has one outgoing forward arc plus reversal darts of weight
        // 0 are free). The degenerate pair {d, rev d} would claim weight 1
        // as well here, so use asymmetric weights to discriminate:
        let g = gen::cycle(3).unwrap();
        let ew = vec![5, 7, 9];
        // Cuts: the cycle is directed 0->1->2->0; singleton {0} leaves via
        // edge (0,1) weight 5 only; {1}: 7; {2}: 9; {0,1}: 7; etc. Min = 5.
        let got = planar_directed_min_cut_reference(&g, &ew).unwrap();
        let mut dg = Digraph::new(3);
        for (e, &w) in ew.iter().enumerate() {
            dg.add_arc(g.edge_tail(e), g.edge_head(e), w);
        }
        let (bf, _) = brute_force_directed_min_cut(&dg);
        assert_eq!(got, bf);
        assert_eq!(got, 5);
    }
}
