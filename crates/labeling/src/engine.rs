//! The labeling engine: bottom-up label computation over the BDD.

use duality_bdd::{dual_bags, Bdd, BddOptions, DualBag};
use duality_congest::{CostLedger, CostModel};
use duality_planar::{Dart, FaceId, PlanarGraph, Weight, INF};
use std::collections::HashMap;
use std::sync::Arc;

/// Errors from the labeling algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LabelingError {
    /// A negative cycle exists in the (weighted) dual graph; it was
    /// detected at the given bag (the leafmost bag containing it —
    /// Lemma 5.19). The Miller–Naor flow search uses this signal.
    NegativeCycle {
        /// Bag where the cycle was detected.
        bag: usize,
    },
}

impl std::fmt::Display for LabelingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabelingError::NegativeCycle { bag } => {
                write!(
                    f,
                    "negative cycle in the dual graph (detected at bag {bag})"
                )
            }
        }
    }
}

impl std::error::Error for LabelingError {}

/// Reusable dual-SSSP machinery: the BDD, dual bags and separators are
/// built once per topology; [`DualSsspEngine::labels`] is then called once
/// per weight assignment (the Miller–Naor binary search re-labels the same
/// engine `O(log λ)` times).
///
/// The engine is owned data: it shares its graph through an `Arc` and
/// borrows nothing, so it can be cached, sent across threads and outlive
/// whoever built it. Labeling takes the engine by `&Arc<Self>` so that
/// every [`DualLabels`] keeps its engine alive.
///
/// # Example
///
/// ```
/// use duality_labeling::DualSsspEngine;
/// use duality_congest::{CostLedger, CostModel};
/// use duality_planar::gen;
/// use std::sync::Arc;
///
/// let g = gen::grid(6, 6).unwrap();
/// let cm = CostModel::new(g.num_vertices(), g.diameter());
/// let mut ledger = CostLedger::new();
/// let lengths = vec![1i64; g.num_darts()];
/// let engine = Arc::new(DualSsspEngine::new(g, &cm, None, &mut ledger));
/// let labels = engine.labels(&lengths, &mut ledger).unwrap();
/// let f0 = duality_planar::FaceId(0);
/// assert_eq!(labels.decode(f0, f0), Some(0));
/// ```
pub struct DualSsspEngine {
    /// The communication graph.
    pub graph: Arc<PlanarGraph>,
    /// The decomposition.
    pub bdd: Bdd,
    /// Dual bag per bag id.
    pub duals: Vec<DualBag>,
    /// `F_X` per bag id (empty for leaves), as face ids.
    pub fx: Vec<Vec<FaceId>>,
    /// `F_X` face → index within `fx[bag]`.
    fx_index: Vec<HashMap<FaceId, usize>>,
    /// For non-leaf bags: which child (index into `children`) wholly
    /// contains each non-`F_X` node.
    child_of_node: Vec<HashMap<FaceId, usize>>,
    /// `S_X` dual arcs per non-leaf bag: `(from, to, dart)`, with both
    /// ends as indices into `fx[bag]`.
    separator_arcs: Vec<Vec<(usize, usize, Dart)>>,
    cm: CostModel,
}

impl DualSsspEngine {
    /// Builds the engine over `g` (an owned graph or a shared `Arc`): BDD
    /// construction (`Õ(D)` rounds per level, charged), dual bags,
    /// separators and edge classification.
    pub fn new(
        g: impl Into<Arc<PlanarGraph>>,
        cm: &CostModel,
        leaf_threshold: Option<usize>,
        ledger: &mut CostLedger,
    ) -> Self {
        let g: Arc<PlanarGraph> = g.into();
        let bdd = Bdd::build(
            &g,
            &BddOptions {
                leaf_threshold,
                ..Default::default()
            },
            cm,
            ledger,
        );
        let duals: Vec<DualBag> = bdd.bags.iter().map(|b| DualBag::of_bag(&g, b)).collect();
        let mut fx = vec![Vec::new(); bdd.bags.len()];
        let mut fx_index = vec![HashMap::new(); bdd.bags.len()];
        let mut child_of_node = vec![HashMap::new(); bdd.bags.len()];
        let mut separator_arcs = vec![Vec::new(); bdd.bags.len()];
        for bag in &bdd.bags {
            if bag.is_leaf() {
                continue;
            }
            let dual = &duals[bag.id];
            let f = dual_bags::dual_separator(&bdd, bag, dual);
            fx_index[bag.id] = f.iter().enumerate().map(|(i, &x)| (x, i)).collect();
            fx[bag.id] = f;
            // Node → wholly-containing child; separator arcs.
            let locus = dual_bags::classify_dual_edges(&bdd, bag);
            let k = |node: usize| fx_index[bag.id][&dual.nodes[node]];
            for arc in &dual.arcs {
                if locus[&arc.dart.edge()] == dual_bags::EdgeLocus::Separator {
                    separator_arcs[bag.id].push((k(arc.from), k(arc.to), arc.dart));
                }
            }
            for &node in &dual.nodes {
                if fx_index[bag.id].contains_key(&node) {
                    continue;
                }
                // A non-F_X node has all its edges in exactly one child; it
                // is a node of that child's dual bag.
                let ci = bag
                    .children
                    .iter()
                    .position(|&c| duals[c].node_index.contains_key(&node))
                    .expect("non-separator node lives in a child");
                child_of_node[bag.id].insert(node, ci);
            }
        }
        DualSsspEngine {
            graph: g,
            bdd,
            duals,
            fx,
            fx_index,
            child_of_node,
            separator_arcs,
            cm: *cm,
        }
    }

    /// The cost model the engine charges against.
    pub fn cost_model(&self) -> &CostModel {
        &self.cm
    }

    /// Computes distance labels for the dual graph under the per-dart
    /// lengths `lengths` (use `>= INF/2` to mark a dart as absent).
    ///
    /// Charges the measured broadcast schedule on `ledger`.
    ///
    /// # Errors
    ///
    /// [`LabelingError::NegativeCycle`] if the weighted dual contains a
    /// negative cycle (the abort broadcast of `O(D)` rounds is charged).
    pub fn labels(
        self: &Arc<Self>,
        lengths: &[Weight],
        ledger: &mut CostLedger,
    ) -> Result<DualLabels, LabelingError> {
        assert_eq!(lengths.len(), self.graph.num_darts(), "one length per dart");
        let nbags = self.bdd.bags.len();
        let mut store = LabelStore {
            to_fx: vec![HashMap::new(); nbags],
            from_fx: vec![HashMap::new(); nbags],
            leaf_apsp: vec![HashMap::new(); nbags],
            label_words: vec![HashMap::new(); nbags],
        };

        // Bottom-up over levels; track the per-level maximum broadcast cost
        // (bags of one level run in parallel; Property 7 bounds the overlap
        // by a factor of 2).
        for level in (0..self.bdd.depth()).rev() {
            let mut level_cost: u64 = 0;
            for &bid in &self.bdd.levels[level] {
                let graph = self.bag_graph(bid, lengths, &store);
                let Some(dist) = apsp(&graph) else {
                    ledger.charge("neg-cycle-abort", self.cm.bfs(self.cm.d));
                    return Err(LabelingError::NegativeCycle { bag: bid });
                };
                let words = if self.bdd.bags[bid].is_leaf() {
                    self.label_leaf(bid, &dist, &mut store)
                } else {
                    self.label_internal(bid, &graph, &dist, &mut store)
                };
                let cost = self.cm.broadcast(self.bdd.bags[bid].bfs_depth, words);
                level_cost = level_cost.max(2 * cost);
            }
            ledger.charge("labeling-broadcast", level_cost);
        }
        Ok(DualLabels {
            engine: Arc::clone(self),
            store,
        })
    }

    /// The graph bag `bid` labels from, at `lengths` (see [`BagGraph`]). A
    /// non-leaf bag reads its children's labels from `store`.
    fn bag_graph(&self, bid: usize, lengths: &[Weight], store: &LabelStore) -> BagGraph {
        let bag = &self.bdd.bags[bid];
        let present = |dart: Dart| {
            let w = lengths[dart.index()];
            (w < INF / 2).then_some(w)
        };
        if bag.is_leaf() {
            let dual = &self.duals[bid];
            let arcs = dual
                .arcs
                .iter()
                .filter_map(|a| Some((a.from, a.to, present(a.dart)?, Some(a.dart))))
                .collect();
            return BagGraph {
                len: dual.len(),
                arcs,
                parts: Vec::new(),
                reps: Vec::new(),
            };
        }

        // Nodes: one part per (child, F_X face present in that child's
        // dual), the parts of a face consecutive; a face absent from every
        // child gets an orphan part.
        let mut parts: Vec<(usize, FaceId)> = Vec::new();
        let mut reps = Vec::with_capacity(self.fx[bid].len());
        for &f in &self.fx[bid] {
            let first = parts.len();
            reps.push(first);
            for (ci, &c) in bag.children.iter().enumerate() {
                if self.duals[c].node_index.contains_key(&f) {
                    parts.push((ci, f));
                }
            }
            if parts.len() == first {
                parts.push((usize::MAX, f));
            }
        }
        let mut arcs = Vec::new();
        // (a) Per-child cliques of label-decoded distances.
        for (i, &(ci, f)) in parts.iter().enumerate() {
            if ci == usize::MAX {
                continue;
            }
            let child = bag.children[ci];
            for (j, &(cj, g)) in parts.iter().enumerate() {
                if cj != ci || i == j {
                    continue;
                }
                let w = self.decode_at(child, f, g, store);
                if w < INF / 2 {
                    arcs.push((i, j, w, None));
                }
            }
        }
        // (b) S_X dual arcs, at the representative part of each end face.
        for &(from, to, dart) in &self.separator_arcs[bid] {
            if let Some(w) = present(dart) {
                arcs.push((reps[from], reps[to], w, Some(dart)));
            }
        }
        // (c) Zero links among the parts of the same face. They join every
        // two parts both ways at no cost, so attaching (b) at one part per
        // face suffices.
        for (k, &first) in reps.iter().enumerate() {
            let end = reps.get(k + 1).copied().unwrap_or(parts.len());
            for a in first..end {
                for b in first..end {
                    if a != b {
                        arcs.push((a, b, 0, None));
                    }
                }
            }
        }
        BagGraph {
            len: parts.len(),
            arcs,
            parts,
            reps,
        }
    }

    /// Leaf bag: every node keeps its row and column of the bag's APSP
    /// matrix `dist`. Returns the number of words broadcast (node ids +
    /// arcs).
    fn label_leaf(&self, bid: usize, dist: &[Vec<Weight>], store: &mut LabelStore) -> u64 {
        let dual = &self.duals[bid];
        let n = dual.len();
        for (i, &f) in dual.nodes.iter().enumerate() {
            let col: Vec<Weight> = dist.iter().map(|row| row[i]).collect();
            store.label_words[bid].insert(f, 2 * n as u64 + 1);
            store.leaf_apsp[bid].insert(f, (dist[i].clone(), col));
        }
        self.bdd.bags[bid].edges.len() as u64 + 2 * dual.arcs.len() as u64
    }

    /// Non-leaf bag: derive every node's distances to/from `F_X` from the
    /// APSP matrix `h` of the bag's DDG `graph`. Returns the number of
    /// words broadcast.
    fn label_internal(
        &self,
        bid: usize,
        graph: &BagGraph,
        h: &[Vec<Weight>],
        store: &mut LabelStore,
    ) -> u64 {
        let bag = &self.bdd.bags[bid];
        let fx = &self.fx[bid];
        let nf = fx.len();
        let reps = &graph.reps;

        // Labels for every node of X*.
        for &node in &self.duals[bid].nodes {
            let (to, from, child_words) = if let Some(&k) = self.fx_index[bid].get(&node) {
                // An F_X face: via representatives (the zero links make
                // every part equivalent).
                let r = reps[k];
                let to: Vec<Weight> = reps.iter().map(|&q| h[r][q]).collect();
                let from: Vec<Weight> = reps.iter().map(|&q| h[q][r]).collect();
                (to, from, 0)
            } else {
                let ci = self.child_of_node[bid][&node];
                let child = bag.children[ci];
                // F_X parts living in this child.
                let parts: Vec<(usize, FaceId)> = graph
                    .parts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &(c, _))| c == ci)
                    .map(|(hid, &(_, p))| (hid, p))
                    .collect();
                let mut to = vec![INF; nf];
                let mut from = vec![INF; nf];
                for (k, &rf) in reps.iter().enumerate() {
                    let mut best_to = INF;
                    let mut best_from = INF;
                    for &(hid, p) in &parts {
                        let g2p = self.decode_at(child, node, p, store);
                        if g2p < INF / 2 && h[hid][rf] < INF / 2 {
                            best_to = best_to.min(g2p + h[hid][rf]);
                        }
                        let p2g = self.decode_at(child, p, node, store);
                        if p2g < INF / 2 && h[rf][hid] < INF / 2 {
                            best_from = best_from.min(h[rf][hid] + p2g);
                        }
                    }
                    to[k] = best_to;
                    from[k] = best_from;
                }
                let child_words = store.label_words[child].get(&node).copied();
                (to, from, child_words.unwrap_or(0))
            };
            store.label_words[bid].insert(node, 2 * nf as u64 + 1 + child_words);
            store.to_fx[bid].insert(node, to);
            store.from_fx[bid].insert(node, from);
        }

        // Broadcast words: the S_X dual arcs plus, for every F_X face, the
        // labels of all its parts computed in the children.
        let mut words = 2 * self.separator_arcs[bid].len() as u64;
        for &f in fx {
            for &c in &bag.children {
                if let Some(w) = store.label_words[c].get(&f) {
                    words += w;
                }
            }
        }
        words
    }

    /// Decodes `dist(f → h)` within bag `bid` from the labels stored so far
    /// (both faces must be nodes of the bag's dual).
    fn decode_at(&self, bid: usize, f: FaceId, h: FaceId, store: &LabelStore) -> Weight {
        if f == h {
            return 0;
        }
        if self.bdd.bags[bid].is_leaf() {
            let (row, _) = &store.leaf_apsp[bid][&f];
            let j = self.duals[bid].node_index[&h];
            return row[j];
        }
        let to = &store.to_fx[bid][&f];
        let from = &store.from_fx[bid][&h];
        let mut best = INF;
        for (a, b) in to.iter().zip(from) {
            if *a < INF / 2 && *b < INF / 2 {
                best = best.min(a + b);
            }
        }
        // Both wholly inside the same child: the shortest path may avoid
        // F_X entirely (Lemma 5.15's other case).
        if let (Some(&cf), Some(&ch)) = (
            self.child_of_node[bid].get(&f),
            self.child_of_node[bid].get(&h),
        ) {
            if cf == ch {
                best = best.min(self.decode_at(self.bdd.bags[bid].children[cf], f, h, store));
            }
        }
        best
    }
}

/// The graph one bag labels from.
///
/// A leaf bag's graph is its dual bag: node `i` is `duals[bag].nodes[i]`,
/// and every arc is a dual dart. A non-leaf bag's graph is its dense
/// distance graph (DDG, Section 5.3): one node per part, that is per
/// (child, `F_X` face) pair with the face in the child's dual, and one
/// orphan node per `F_X` face absent from every child. Its arcs are the
/// per-child cliques of label-decoded distances, the `S_X` dual arcs at
/// each face's first part, and zero links among the parts of a face.
#[derive(Debug)]
pub struct BagGraph {
    /// Number of nodes.
    pub len: usize,
    /// Arcs `(from, to, length, dart)`. Leaf dual arcs and `S_X` arcs
    /// carry their dart; clique arcs and zero links carry `None`. A dart
    /// of length `>= INF/2` (absent) adds no arc.
    pub arcs: Vec<(usize, usize, Weight, Option<Dart>)>,
    /// Non-leaf bags: `(child index, face)` per node (`usize::MAX` for an
    /// orphan), the parts of one `F_X` face consecutive.
    parts: Vec<(usize, FaceId)>,
    /// Non-leaf bags: the node representing each face of `fx[bag]`, its
    /// first part.
    reps: Vec<usize>,
}

/// All-pairs distances of `graph` by Floyd–Warshall, or `None` if it has
/// a negative cycle.
fn apsp(graph: &BagGraph) -> Option<Vec<Vec<Weight>>> {
    let n = graph.len;
    let mut dist = vec![vec![INF; n]; n];
    for (i, row) in dist.iter_mut().enumerate() {
        row[i] = 0;
    }
    for &(a, b, w, _) in &graph.arcs {
        if w < dist[a][b] {
            dist[a][b] = w;
        }
    }
    floyd_warshall_in_place(&mut dist);
    (0..n).all(|i| dist[i][i] >= 0).then_some(dist)
}

/// One APSP row/column pair of a leaf bag's matrix.
type ApspRowCol = (Vec<Weight>, Vec<Weight>);

/// Per-bag label storage.
struct LabelStore {
    /// `to_fx[bag][node][k]` = `dist(node → fx[bag][k])` in `X*`.
    to_fx: Vec<HashMap<FaceId, Vec<Weight>>>,
    /// `from_fx[bag][node][k]` = `dist(fx[bag][k] → node)` in `X*`.
    from_fx: Vec<HashMap<FaceId, Vec<Weight>>>,
    /// Leaf bags: `(row, col)` of the APSP matrix per node.
    leaf_apsp: Vec<HashMap<FaceId, ApspRowCol>>,
    /// Label size in `O(log n)`-bit words per (bag, node) — the measured
    /// quantity behind Lemma 5.17 (`Õ(D)` bits).
    label_words: Vec<HashMap<FaceId, u64>>,
}

/// Computed distance labels for `G*` under one weight assignment. Owned:
/// the labels hold the `Arc` of the engine that computed them.
pub struct DualLabels {
    engine: Arc<DualSsspEngine>,
    store: LabelStore,
}

impl DualLabels {
    /// The engine these labels were computed by.
    pub fn engine(&self) -> &Arc<DualSsspEngine> {
        &self.engine
    }

    /// Decodes the `G*` distance from face `f` to face `h` (labels only —
    /// Lemma 5.16). `None` if `h` is unreachable from `f`.
    pub fn decode(&self, f: FaceId, h: FaceId) -> Option<Weight> {
        let d = self.engine.decode_at(0, f, h, &self.store);
        (d < INF / 2).then_some(d)
    }

    /// The graph bag `bag` was labeled from (see [`BagGraph`]), rebuilt
    /// from these labels at `lengths`, which must be the lengths the
    /// labels were computed at. The directed global min cut (Section 7)
    /// runs its per-dart cycle search on these graphs.
    pub fn bag_graph(&self, bag: usize, lengths: &[Weight]) -> BagGraph {
        assert_eq!(
            lengths.len(),
            self.engine.graph.num_darts(),
            "one length per dart"
        );
        self.engine.bag_graph(bag, lengths, &self.store)
    }

    /// The label size of face `f` in `O(log n)`-bit words (Lemma 5.17:
    /// `Õ(D)`).
    pub fn label_words(&self, f: FaceId) -> u64 {
        self.store.label_words[0].get(&f).copied().unwrap_or(0)
    }

    /// Distances from `source` to every face, by broadcasting the source
    /// label (`D + |label|` rounds, charged) and decoding locally.
    pub fn distances_from(&self, source: FaceId, ledger: &mut CostLedger) -> Vec<Option<Weight>> {
        let cm = &self.engine.cm;
        ledger.charge(
            "sssp-label-broadcast",
            cm.broadcast(cm.d, self.label_words(source)),
        );
        self.engine
            .graph
            .faces()
            .map(|f| self.decode(source, f))
            .collect()
    }
}

fn floyd_warshall_in_place(d: &mut [Vec<Weight>]) {
    // When a negative cycle is present (the Miller–Naor infeasibility
    // signal), Floyd–Warshall entries can compound geometrically downward;
    // clamping at -INF keeps the arithmetic in range while preserving the
    // negative diagonal that the caller checks.
    let n = d.len();
    for k in 0..n {
        for i in 0..n {
            let dik = d[i][k];
            if dik >= INF / 2 {
                continue;
            }
            for j in 0..n {
                let cand = (dik + d[k][j]).max(-INF);
                if d[k][j] < INF / 2 && cand < d[i][j] {
                    d[i][j] = cand;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duality_planar::dual::DualView;
    use duality_planar::gen;

    fn check_against_reference(g: &PlanarGraph, lengths: &[Weight], threshold: Option<usize>) {
        let cm = CostModel::new(g.num_vertices(), g.diameter());
        let mut ledger = CostLedger::new();
        let engine = Arc::new(DualSsspEngine::new(g.clone(), &cm, threshold, &mut ledger));
        let labels = engine
            .labels(lengths, &mut ledger)
            .expect("no negative cycle");
        let view = DualView::new(g, lengths, |d| lengths[d.index()] < INF / 2);
        for src in g.faces() {
            let reference = view.bellman_ford(src).expect("no negative cycle");
            for f in g.faces() {
                let got = labels.decode(src, f);
                let want = (reference[f.index()] < INF / 2).then_some(reference[f.index()]);
                assert_eq!(got, want, "dist({src:?} → {f:?})");
            }
        }
    }

    #[test]
    fn labels_match_bellman_ford_unit_weights() {
        let g = gen::grid(5, 5).unwrap();
        let lengths = vec![1; g.num_darts()];
        check_against_reference(&g, &lengths, Some(6));
    }

    #[test]
    fn labels_match_bellman_ford_random_weights() {
        for seed in 0..4u64 {
            let g = gen::diag_grid(5, 4, seed).unwrap();
            let lengths: Vec<Weight> = (0..g.num_darts())
                .map(|i| ((i as i64 * 31 + seed as i64 * 7) % 17) + 1)
                .collect();
            check_against_reference(&g, &lengths, Some(8));
        }
    }

    #[test]
    fn labels_match_with_negative_lengths() {
        // Random weights, some negative, rejected if they create negative
        // cycles (checked by the reference first).
        for seed in 0..6u64 {
            let g = gen::grid(4, 4).unwrap();
            let lengths: Vec<Weight> = (0..g.num_darts())
                .map(|i| ((i as i64 * 13 + seed as i64 * 5) % 9) - 1)
                .collect();
            let view = DualView::new(&g, &lengths, |_| true);
            if view.bellman_ford(FaceId(0)).is_none() {
                continue; // negative cycle: covered by the detection test
            }
            check_against_reference(&g, &lengths, Some(6));
        }
    }

    #[test]
    fn negative_cycle_detected() {
        let g = gen::grid(4, 4).unwrap();
        let lengths = vec![-1; g.num_darts()];
        let cm = CostModel::new(g.num_vertices(), g.diameter());
        let mut ledger = CostLedger::new();
        let engine = Arc::new(DualSsspEngine::new(g, &cm, Some(6), &mut ledger));
        let err = engine.labels(&lengths, &mut ledger).err();
        assert!(matches!(err, Some(LabelingError::NegativeCycle { .. })));
    }

    #[test]
    fn absent_darts_are_ignored() {
        let g = gen::grid(4, 3).unwrap();
        // Keep only forward darts: the dual becomes a one-arc-per-edge
        // digraph.
        let lengths: Vec<Weight> = g
            .darts()
            .map(|d| if d.is_forward() { 2 } else { INF })
            .collect();
        check_against_reference(&g, &lengths, Some(6));
    }

    #[test]
    fn label_sizes_are_otilde_d() {
        let g = gen::grid(8, 8).unwrap();
        let cm = CostModel::new(g.num_vertices(), g.diameter());
        let mut ledger = CostLedger::new();
        let engine = Arc::new(DualSsspEngine::new(g.clone(), &cm, None, &mut ledger));
        let labels = engine.labels(&vec![1; g.num_darts()], &mut ledger).unwrap();
        let d = g.diameter() as u64;
        let logn = (g.num_vertices() as f64).log2().ceil() as u64;
        for f in g.faces() {
            let w = labels.label_words(f);
            assert!(w > 0);
            assert!(
                w <= 40 * d * logn * logn,
                "label of {f:?} is {w} words (D = {d}, log n = {logn})"
            );
        }
    }

    #[test]
    fn deep_decomposition_still_correct() {
        // Tiny threshold forces many levels.
        let g = gen::diag_grid(6, 6, 3).unwrap();
        let lengths: Vec<Weight> = (0..g.num_darts()).map(|i| (i as i64 % 7) + 1).collect();
        check_against_reference(&g, &lengths, Some(4));
    }

    #[test]
    fn rounds_charged_grow_with_levels() {
        let g = gen::grid(8, 8).unwrap();
        let cm = CostModel::new(g.num_vertices(), g.diameter());
        let mut l1 = CostLedger::new();
        let e1 = Arc::new(DualSsspEngine::new(g.clone(), &cm, Some(1000), &mut l1)); // single leaf
        e1.labels(&vec![1; g.num_darts()], &mut l1).unwrap();
        let mut l2 = CostLedger::new();
        let e2 = Arc::new(DualSsspEngine::new(g.clone(), &cm, Some(8), &mut l2)); // deep
        e2.labels(&vec![1; g.num_darts()], &mut l2).unwrap();
        assert!(l2.phase_total("labeling-broadcast") > 0);
        assert!(l1.phase_total("labeling-broadcast") > 0);
    }
}
