//! Dual bags `X*` and dual separators `F_X` (paper, Section 5.1.2).
//!
//! The dual bag of a bag `X` has one node per face **or face-part** of `G`
//! present in `X`. Because all darts of a given face of `G` inside one bag
//! represent the same (possibly disconnected) face-part (Lemma 5.3's
//! counting), nodes are keyed directly by the `G`-face id: the *same* face
//! id appearing in two different bags denotes two different node-parts,
//! which the labeling DDGs later reconnect with zero-weight links.
//!
//! A primal edge `e` of `X` contributes dual arcs iff **both** of its darts
//! are in `X` (darts on holes have no dual — Lemma 5.5); each dart `d` then
//! yields the arc `face(d) → face(rev d)`.

use crate::tree::{Bag, Bdd};
use duality_planar::{Dart, FaceId, PlanarGraph};
use std::collections::HashMap;

/// A dual arc of a dual bag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DualArc {
    /// Index of the source node within [`DualBag::nodes`].
    pub from: usize,
    /// Index of the target node within [`DualBag::nodes`].
    pub to: usize,
    /// The primal dart this arc crosses (carries the arc's weight).
    pub dart: Dart,
}

/// The dual bag `X*` of a bag `X`.
#[derive(Clone, Debug)]
pub struct DualBag {
    /// The bag this dual belongs to.
    pub bag: crate::tree::BagId,
    /// Sorted `G`-face ids of the nodes (faces and face-parts in `X`).
    pub nodes: Vec<FaceId>,
    /// Inverse of [`DualBag::nodes`].
    pub node_index: HashMap<FaceId, usize>,
    /// All dual arcs (two antiparallel arcs per dual edge, one per dart).
    pub arcs: Vec<DualArc>,
}

/// Where an edge of `X` with a dual in `X*` lives with respect to the
/// children of `X`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeLocus {
    /// The dual edge is entirely contained in child `bag.children[i]`.
    Child(usize),
    /// The edge is an `S_X` edge: its dual is in `X*` but in no child
    /// (it lies on holes in both children — Lemma 5.5).
    Separator,
}

impl DualBag {
    /// Builds the dual bag of `bag`.
    pub fn of_bag(g: &PlanarGraph, bag: &Bag) -> Self {
        let mut nodes: Vec<FaceId> = Vec::new();
        let mut arcs_raw: Vec<(FaceId, FaceId, Dart)> = Vec::new();
        for &e in &bag.edges {
            let d = Dart::forward(e);
            if bag.dart_in.contains(&d) && bag.dart_in.contains(&d.rev()) {
                for dd in [d, d.rev()] {
                    let from = g.face_of(dd);
                    let to = g.face_of(dd.rev());
                    nodes.push(from);
                    nodes.push(to);
                    arcs_raw.push((from, to, dd));
                }
            }
        }
        nodes.sort_unstable();
        nodes.dedup();
        let node_index: HashMap<FaceId, usize> =
            nodes.iter().enumerate().map(|(i, &f)| (f, i)).collect();
        let arcs = arcs_raw
            .into_iter()
            .map(|(from, to, dart)| DualArc {
                from: node_index[&from],
                to: node_index[&to],
                dart,
            })
            .collect();
        DualBag {
            bag: bag.id,
            nodes,
            node_index,
            arcs,
        }
    }

    /// Number of dual nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the dual bag is empty (bag with no two-dart edges).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Out-adjacency lists (`(to, dart)` per node index).
    pub fn adjacency(&self) -> Vec<Vec<(usize, Dart)>> {
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for a in &self.arcs {
            adj[a.from].push((a.to, a.dart));
        }
        adj
    }
}

/// Classifies every dual edge of `X*` (keyed by primal edge id) as living
/// in one child or on the separator (Lemma 5.5 / Property 12: these are the
/// only possibilities).
///
/// # Panics
///
/// Panics if `bag` is a leaf.
pub fn classify_dual_edges(bdd: &Bdd, bag: &Bag) -> HashMap<usize, EdgeLocus> {
    assert!(!bag.is_leaf(), "edge classification is for non-leaf bags");
    let mut locus = HashMap::new();
    for &e in &bag.edges {
        let d = Dart::forward(e);
        if !(bag.dart_in.contains(&d) && bag.dart_in.contains(&d.rev())) {
            continue; // no dual edge in X*
        }
        let mut found = EdgeLocus::Separator;
        for (ci, &c) in bag.children.iter().enumerate() {
            let child = &bdd.bags[c];
            if child.dart_in.contains(&d) && child.dart_in.contains(&d.rev()) {
                found = EdgeLocus::Child(ci);
                break;
            }
        }
        locus.insert(e, found);
    }
    locus
}

/// Computes the dual separator `F_X` of a non-leaf bag: the nodes of `X*`
/// whose incident dual edges are **not** all contained in a single child
/// bag (Lemma 5.8; this includes the endpoints of `S_X` dual edges and the
/// faces/face-parts split between children).
pub fn dual_separator(bdd: &Bdd, bag: &Bag, dual: &DualBag) -> Vec<FaceId> {
    let locus = classify_dual_edges(bdd, bag);
    // For each node: the set of loci of its incident edges.
    let mut node_loci: Vec<Option<EdgeLocus>> = vec![None; dual.len()];
    let mut in_fx = vec![false; dual.len()];
    for arc in &dual.arcs {
        let e = arc.dart.edge();
        let l = locus[&e];
        for end in [arc.from, arc.to] {
            match node_loci[end] {
                None => node_loci[end] = Some(l),
                Some(prev) if prev == l => {}
                Some(_) => in_fx[end] = true,
            }
            if l == EdgeLocus::Separator {
                in_fx[end] = true;
            }
        }
    }
    dual.nodes
        .iter()
        .zip(&in_fx)
        .filter(|(_, &b)| b)
        .map(|(&f, _)| f)
        .collect()
}

/// Property-12-style assembly check: the dual arcs of `X*` are exactly the
/// union of the children's dual arcs plus the `S_X` dual arcs, and every
/// path of `X*` that crosses children intersects `F_X` (Lemma 5.15 checked
/// by a reachability argument), for a bag of `bdd`, the decomposition of
/// `g`. Used by tests and the experiment harness.
pub fn check_assembly(g: &PlanarGraph, bdd: &Bdd, bag: &Bag) -> bool {
    if bag.is_leaf() {
        return true;
    }
    let dual = DualBag::of_bag(g, bag);
    let locus = classify_dual_edges(bdd, bag);
    // (1) Arc sets match: every child dual arc appears in X*, and every X*
    // arc is classified.
    let parent_darts: std::collections::HashSet<Dart> = dual.arcs.iter().map(|a| a.dart).collect();
    for &c in &bag.children {
        let child_dual = DualBag::of_bag(g, &bdd.bags[c]);
        for a in &child_dual.arcs {
            if !parent_darts.contains(&a.dart) {
                return false;
            }
            if !matches!(locus.get(&a.dart.edge()), Some(EdgeLocus::Child(_))) {
                return false;
            }
        }
    }
    // (2) Lemma 5.15: removing F_X nodes disconnects arcs of different
    // children (paths crossing children must intersect F_X). We check that
    // no arc endpoint outside F_X touches arcs of two different loci —
    // exactly the F_X definition — so this is consistency of the
    // construction.
    let fx: std::collections::HashSet<FaceId> =
        dual_separator(bdd, bag, &dual).into_iter().collect();
    let mut seen_locus: HashMap<usize, EdgeLocus> = HashMap::new();
    for arc in &dual.arcs {
        let l = locus[&arc.dart.edge()];
        for end in [arc.from, arc.to] {
            if fx.contains(&dual.nodes[end]) {
                continue;
            }
            match seen_locus.entry(end) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(l);
                }
                std::collections::hash_map::Entry::Occupied(o) => {
                    if *o.get() != l {
                        return false;
                    }
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{Bdd, BddOptions};
    use duality_congest::{CostLedger, CostModel};
    use duality_planar::gen;

    fn build(g: &PlanarGraph, threshold: usize) -> Bdd {
        let cm = CostModel::new(g.num_vertices(), g.diameter());
        let mut ledger = CostLedger::new();
        Bdd::build(
            g,
            &BddOptions {
                leaf_threshold: Some(threshold),
                ..Default::default()
            },
            &cm,
            &mut ledger,
        )
    }

    #[test]
    fn root_dual_is_full_dual() {
        let g = gen::diag_grid(5, 5, 1).unwrap();
        let bdd = build(&g, 10);
        let dual = DualBag::of_bag(&g, bdd.root());
        assert_eq!(dual.len(), g.num_faces());
        assert_eq!(dual.arcs.len(), g.num_darts());
    }

    #[test]
    fn dual_arcs_match_dart_duals() {
        let g = gen::grid(6, 6).unwrap();
        let bdd = build(&g, 8);
        for bag in &bdd.bags {
            let dual = DualBag::of_bag(&g, bag);
            for arc in &dual.arcs {
                assert_eq!(dual.nodes[arc.from], g.face_of(arc.dart));
                assert_eq!(dual.nodes[arc.to], g.face_of(arc.dart.rev()));
            }
        }
    }

    #[test]
    fn classification_covers_every_dual_edge() {
        let g = gen::grid(8, 8).unwrap();
        let bdd = build(&g, 10);
        for bag in bdd.bags.iter().filter(|b| !b.is_leaf()) {
            let dual = DualBag::of_bag(&g, bag);
            let locus = classify_dual_edges(&bdd, bag);
            let dual_edges: std::collections::HashSet<usize> =
                dual.arcs.iter().map(|a| a.dart.edge()).collect();
            assert_eq!(locus.len(), dual_edges.len());
            // Separator-classified edges must be real S_X edges.
            let sx: std::collections::HashSet<usize> = bag
                .separator
                .as_ref()
                .unwrap()
                .real_edges()
                .into_iter()
                .collect();
            for (&e, &l) in &locus {
                if l == EdgeLocus::Separator {
                    assert!(sx.contains(&e), "separator dual edge {e} is an S_X edge");
                }
            }
        }
    }

    #[test]
    fn fx_size_is_otilde_d(/* Lemma 5.8 */) {
        let g = gen::diag_grid(9, 9, 4).unwrap();
        let bdd = build(&g, 12);
        let d = g.diameter() as f64;
        let logn = (g.num_vertices() as f64).log2();
        for bag in bdd.bags.iter().filter(|b| !b.is_leaf()) {
            let dual = DualBag::of_bag(&g, bag);
            let fx = dual_separator(&bdd, bag, &dual);
            assert!(
                (fx.len() as f64) <= 4.0 * d * logn + 8.0,
                "bag {}: |F_X| = {} vs D log n = {}",
                bag.id,
                fx.len(),
                d * logn
            );
        }
    }

    #[test]
    fn assembly_property_holds() {
        for g in [
            gen::grid(8, 8).unwrap(),
            gen::diag_grid(7, 6, 2).unwrap(),
            gen::apollonian(50, 9).unwrap(),
        ] {
            let bdd = build(&g, 10);
            for bag in &bdd.bags {
                assert!(check_assembly(&g, &bdd, bag), "bag {}", bag.id);
            }
        }
    }

    #[test]
    fn leaf_duals_are_small() {
        let g = gen::grid(10, 10).unwrap();
        let bdd = build(&g, 12);
        for leaf in bdd.leaves() {
            let dual = DualBag::of_bag(&g, leaf);
            // Property 10: |X*| = O(D log n); with our threshold the bound
            // is the edge count of the leaf.
            assert!(dual.len() <= leaf.edges.len() + 2);
        }
    }
}
