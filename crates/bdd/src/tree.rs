//! The decomposition tree: recursive bag splitting driven by the cycle
//! separator, with dart-membership tracking (Lemma 5.5).

use crate::separator::{find_cycle_separator, Closing};
use duality_congest::{CostLedger, CostModel};
use duality_planar::{Dart, PlanarGraph};
use std::collections::{HashMap, HashSet};

/// Identifier of a bag within a [`Bdd`].
pub type BagId = usize;

/// The closing edge `e_X` of a bag separator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClosingEdge {
    /// `e_X ∈ E(G)`: a real edge closes the cycle (paper Case I — no face
    /// of `G` is partitioned).
    Real(usize),
    /// `e_X ∉ E(G)`: a virtual edge closes the cycle (paper Case II — the
    /// critical face containing the endpoints is split).
    Virtual,
}

/// The separator `S_X` of a non-leaf bag: a fundamental cycle made of two
/// spanning-tree paths plus a closing edge.
#[derive(Clone, Debug)]
pub struct SeparatorInfo {
    /// Vertices of the cycle (the paper's `S_X` vertex set).
    pub vertices: Vec<usize>,
    /// Tree edges of the cycle.
    pub tree_edges: Vec<usize>,
    /// The closing edge.
    pub closing: ClosingEdge,
    /// Endpoints of the closing edge.
    pub endpoints: (usize, usize),
}

impl SeparatorInfo {
    /// All real edges of `S_X` (tree edges plus the closing edge when it is
    /// real). Their duals are the `S_X` dual edges used by `F_X` and the
    /// DDGs.
    pub fn real_edges(&self) -> Vec<usize> {
        let mut out = self.tree_edges.clone();
        if let ClosingEdge::Real(e) = self.closing {
            out.push(e);
        }
        out
    }
}

/// One bag of the decomposition: a connected subgraph of `G` given by its
/// edge set, plus the darts of those edges that are *in* the bag (darts of
/// ancestor-separator edges stay with one side only and lie on holes of the
/// other — Lemma 5.5).
#[derive(Clone, Debug)]
pub struct Bag {
    /// This bag's id.
    pub id: BagId,
    /// Parent bag (`None` at the root).
    pub parent: Option<BagId>,
    /// Children (empty for leaves).
    pub children: Vec<BagId>,
    /// Depth in the decomposition tree (root = 0).
    pub level: usize,
    /// Edge set of the bag, sorted.
    pub edges: Vec<usize>,
    /// Darts of `X` that are not on holes.
    pub dart_in: HashSet<Dart>,
    /// The separator, for non-leaf bags.
    pub separator: Option<SeparatorInfo>,
    /// BFS eccentricity of the bag from its root vertex — the measured tree
    /// depth used for broadcast cost charging.
    pub bfs_depth: usize,
}

impl Bag {
    /// Whether this bag is a leaf of the decomposition.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Sorted vertex set of the bag.
    pub fn vertices(&self, g: &PlanarGraph) -> Vec<usize> {
        let mut vs: Vec<usize> = self
            .edges
            .iter()
            .flat_map(|&e| [g.edge_tail(e), g.edge_head(e)])
            .collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    }
}

/// Options controlling the decomposition.
#[derive(Clone, Copy, Debug)]
pub struct BddOptions {
    /// Bags with at most this many edges become leaves. `None` picks the
    /// paper's `Θ(D)` default (`4·(D+1)`).
    pub leaf_threshold: Option<usize>,
    /// Hard cap on the recursion depth (safety net; the balance guarantee
    /// makes `O(log n)` levels suffice).
    pub max_levels: usize,
}

impl Default for BddOptions {
    fn default() -> Self {
        BddOptions {
            leaf_threshold: None,
            max_levels: 64,
        }
    }
}

/// The Bounded Diameter Decomposition of an embedded planar graph.
///
/// # Example
///
/// ```
/// use duality_bdd::{Bdd, BddOptions};
/// use duality_congest::{CostLedger, CostModel};
/// use duality_planar::gen;
///
/// let g = gen::grid(8, 8).unwrap();
/// let cm = CostModel::new(g.num_vertices(), g.diameter());
/// let mut ledger = CostLedger::new();
/// let bdd = Bdd::build(&g, &BddOptions::default(), &cm, &mut ledger);
/// assert!(bdd.depth() >= 1);
/// // Property 6: every bag is the union of its children.
/// assert!(bdd.check_children_cover());
/// ```
#[derive(Clone, Debug)]
pub struct Bdd {
    /// All bags; index = [`BagId`]; bag 0 is the root.
    pub bags: Vec<Bag>,
    /// Bags grouped by level.
    pub levels: Vec<Vec<BagId>>,
    /// The leaf threshold that was used.
    pub leaf_threshold: usize,
}

/// The smallest leaf threshold the decomposition can terminate with: a
/// leaf must be allowed to hold at least two edges. [`Bdd::build`] clamps
/// smaller requests up to this; strict front-ends (the solver builder)
/// reject them instead.
pub const MIN_LEAF_THRESHOLD: usize = 2;

impl Bdd {
    /// Builds the decomposition of `g`, charging `Õ(D)` rounds per level
    /// (paper, Lemma 5.1) on `ledger`. The result owns its bags and keeps
    /// no reference to `g`.
    pub fn build(
        g: &PlanarGraph,
        options: &BddOptions,
        cm: &CostModel,
        ledger: &mut CostLedger,
    ) -> Self {
        let threshold = options
            .leaf_threshold
            .unwrap_or(4 * (cm.d + 1))
            .max(MIN_LEAF_THRESHOLD);
        let mut bags: Vec<Bag> = Vec::new();
        let root_edges: Vec<usize> = (0..g.num_edges()).collect();
        let root_darts: HashSet<Dart> = g.darts().collect();
        bags.push(Bag {
            id: 0,
            parent: None,
            children: Vec::new(),
            level: 0,
            edges: root_edges,
            dart_in: root_darts,
            separator: None,
            bfs_depth: 0,
        });

        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(id) = queue.pop_front() {
            let level = bags[id].level;
            let edges = bags[id].edges.clone();
            let edge_set: HashSet<usize> = edges.iter().copied().collect();
            let edge_in = |e: usize| edge_set.contains(&e);

            // Measured bag BFS depth (for broadcast charging) from the
            // minimum vertex of the bag.
            let root_vertex = edges
                .iter()
                .map(|&e| g.edge_tail(e).min(g.edge_head(e)))
                .min()
                .expect("bags are nonempty");
            let (parent_dart, depth) = g.bfs_restricted(root_vertex, &edge_in);
            bags[id].bfs_depth = depth
                .iter()
                .copied()
                .filter(|&d| d != usize::MAX)
                .max()
                .unwrap_or(0);

            if edges.len() <= threshold || level + 1 >= options.max_levels {
                continue; // leaf
            }

            let tree_edges: HashSet<usize> =
                parent_dart.iter().flatten().map(|d| d.edge()).collect();
            let Some(sep) = find_cycle_separator(g, &edges, &edge_in, &|e| tree_edges.contains(&e))
            else {
                continue; // unsplittable: leaf
            };

            // Fundamental cycle: tree paths from both endpoints to their LCA.
            let (u, v) = sep.endpoints;
            let (cycle_vertices, cycle_tree_edges) = tree_path(g, &parent_dart, &depth, u, v);
            let closing = match sep.closing {
                Closing::Real(e) => ClosingEdge::Real(e),
                Closing::Virtual { .. } => ClosingEdge::Virtual,
            };

            // Children: connected components of each side's edge set.
            // An edge belongs to side s when one of its darts lies in a
            // triangle of side s; separator-cycle edges have darts on both
            // sides and therefore join both children (Property 7: each edge
            // is in at most two bags per level).
            // Only darts in `dart_in(X)` decide: a hole edge (one in-dart,
            // i.e. an ancestor-separator edge — Lemma 5.5) goes to exactly
            // one child, which keeps every edge in at most two bags per
            // level (Property 7).
            let mut side_edges: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
            for &e in &edges {
                let mut sides = [false, false];
                for d in [Dart::forward(e), Dart::backward(e)] {
                    if bags[id].dart_in.contains(&d) {
                        sides[sep.dart_side[&d] as usize] = true;
                    }
                }
                debug_assert!(
                    sides[0] || sides[1],
                    "every bag edge has at least one in-dart"
                );
                for (s, &hit) in sides.iter().enumerate() {
                    if hit {
                        side_edges[s].push(e);
                    }
                }
            }

            let mut new_children = Vec::new();
            for (s, side) in side_edges.iter().enumerate() {
                for comp in edge_components(g, side) {
                    let mut dart_in = HashSet::new();
                    for &e in &comp {
                        for d in [Dart::forward(e), Dart::backward(e)] {
                            if bags[id].dart_in.contains(&d) && sep.dart_side[&d] as usize == s {
                                dart_in.insert(d);
                            }
                        }
                    }
                    let child_id = bags.len();
                    bags.push(Bag {
                        id: child_id,
                        parent: Some(id),
                        children: Vec::new(),
                        level: level + 1,
                        edges: comp,
                        dart_in,
                        separator: None,
                        bfs_depth: 0,
                    });
                    new_children.push(child_id);
                }
            }

            // Progress guard: if a child failed to shrink, keep the bag as a
            // leaf instead of recursing forever.
            let shrunk = new_children
                .iter()
                .all(|&c| bags[c].edges.len() < edges.len());
            if new_children.len() < 2 || !shrunk {
                bags.truncate(bags.len() - new_children.len());
                continue;
            }
            bags[id].separator = Some(SeparatorInfo {
                vertices: cycle_vertices,
                tree_edges: cycle_tree_edges,
                closing,
                endpoints: (u, v),
            });
            bags[id].children = new_children.clone();
            queue.extend(new_children);
        }

        // Levels.
        let depth = bags.iter().map(|b| b.level).max().unwrap_or(0) + 1;
        let mut levels = vec![Vec::new(); depth];
        for b in &bags {
            levels[b.level].push(b.id);
        }

        // Charge: Õ(D) per level for separator computation + child/bag and
        // face/face-part identification (paper, Lemma 5.1 + Theorem 5.2).
        for _ in 0..depth {
            ledger.charge("bdd-build", cm.bdd_level());
        }
        ledger.charge("bdd-face-ids", cm.dual_part_wise_aggregation());

        Bdd {
            bags,
            levels,
            leaf_threshold: threshold,
        }
    }

    /// Number of levels of the decomposition.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The root bag.
    pub fn root(&self) -> &Bag {
        &self.bags[0]
    }

    /// Iterator over leaf bags.
    pub fn leaves(&self) -> impl Iterator<Item = &Bag> {
        self.bags.iter().filter(|b| b.is_leaf())
    }

    /// Property 6: every non-leaf bag is the union of its children.
    pub fn check_children_cover(&self) -> bool {
        for bag in &self.bags {
            if bag.is_leaf() {
                continue;
            }
            let mut union: HashSet<usize> = HashSet::new();
            for &c in &bag.children {
                union.extend(self.bags[c].edges.iter().copied());
            }
            let own: HashSet<usize> = bag.edges.iter().copied().collect();
            if union != own {
                return false;
            }
        }
        true
    }

    /// Property 7: each edge appears in at most two bags of the same level.
    pub fn check_edge_multiplicity(&self) -> bool {
        for level in &self.levels {
            let mut count: HashMap<usize, usize> = HashMap::new();
            for &b in level {
                for &e in &self.bags[b].edges {
                    *count.entry(e).or_default() += 1;
                }
            }
            if count.values().any(|&c| c > 2) {
                return false;
            }
        }
        true
    }

    /// Lemma 5.5: each dart is in exactly one bag (`dart_in`) per level,
    /// *modulo* darts whose bags became leaves at earlier levels.
    pub fn check_dart_partition(&self) -> bool {
        for level in &self.levels {
            let mut seen: HashSet<Dart> = HashSet::new();
            for &b in level {
                for &d in &self.bags[b].dart_in {
                    if !seen.insert(d) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Counts the *face-parts* of a bag of this decomposition of `g`: faces
    /// of `G` whose dart set in the bag is a strict nonempty subset of
    /// their darts in `G` (Lemma 5.3: `O(log n)` per bag).
    pub fn face_parts_of(&self, g: &PlanarGraph, bag: &Bag) -> usize {
        let mut darts_of_face: HashMap<u32, usize> = HashMap::new();
        for &d in &bag.dart_in {
            *darts_of_face.entry(g.face_of(d).0).or_default() += 1;
        }
        darts_of_face
            .iter()
            .filter(|(&f, &cnt)| cnt < g.face_darts(duality_planar::FaceId(f)).len())
            .count()
    }
}

/// Tree path between `u` and `v` via BFS parent darts; returns the cycle
/// vertex set (including both endpoints) and the tree edges used.
fn tree_path(
    g: &PlanarGraph,
    parent: &[Option<Dart>],
    depth: &[usize],
    u: usize,
    v: usize,
) -> (Vec<usize>, Vec<usize>) {
    let mut a = u;
    let mut b = v;
    let mut edges = Vec::new();
    let mut verts_a = vec![a];
    let mut verts_b = vec![b];
    while depth[a] > depth[b] {
        let d = parent[a].expect("non-root has parent");
        edges.push(d.edge());
        a = g.tail(d);
        verts_a.push(a);
    }
    while depth[b] > depth[a] {
        let d = parent[b].expect("non-root has parent");
        edges.push(d.edge());
        b = g.tail(d);
        verts_b.push(b);
    }
    while a != b {
        let da = parent[a].expect("non-root has parent");
        let db = parent[b].expect("non-root has parent");
        edges.push(da.edge());
        edges.push(db.edge());
        a = g.tail(da);
        b = g.tail(db);
        verts_a.push(a);
        verts_b.push(b);
    }
    verts_b.pop(); // LCA already in verts_a
    verts_a.extend(verts_b.into_iter().rev());
    verts_a.dedup();
    (verts_a, edges)
}

/// Connected components of the subgraph induced by `edges` (components as
/// sorted edge lists).
fn edge_components(g: &PlanarGraph, edges: &[usize]) -> Vec<Vec<usize>> {
    use duality_planar::util::DisjointSet;
    if edges.is_empty() {
        return Vec::new();
    }
    // Union over shared endpoints, with vertex ids compressed.
    let mut vid: HashMap<usize, usize> = HashMap::new();
    for &e in edges {
        for v in [g.edge_tail(e), g.edge_head(e)] {
            let next = vid.len();
            vid.entry(v).or_insert(next);
        }
    }
    let mut dsu = DisjointSet::new(vid.len());
    for &e in edges {
        dsu.union(vid[&g.edge_tail(e)], vid[&g.edge_head(e)]);
    }
    let mut comps: HashMap<usize, Vec<usize>> = HashMap::new();
    for &e in edges {
        let r = dsu.find(vid[&g.edge_tail(e)]);
        comps.entry(r).or_default().push(e);
    }
    let mut out: Vec<Vec<usize>> = comps.into_values().collect();
    for c in &mut out {
        c.sort_unstable();
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use duality_planar::gen;

    fn build(g: &PlanarGraph, threshold: usize) -> (Bdd, CostLedger) {
        let cm = CostModel::new(g.num_vertices(), g.diameter());
        let mut ledger = CostLedger::new();
        let bdd = Bdd::build(
            g,
            &BddOptions {
                leaf_threshold: Some(threshold),
                ..Default::default()
            },
            &cm,
            &mut ledger,
        );
        (bdd, ledger)
    }

    #[test]
    fn structural_properties_on_grid() {
        let g = gen::grid(9, 9).unwrap();
        let (bdd, ledger) = build(&g, 12);
        assert!(bdd.depth() >= 3);
        assert!(bdd.check_children_cover(), "Property 6");
        assert!(bdd.check_edge_multiplicity(), "Property 7");
        assert!(bdd.check_dart_partition(), "Lemma 5.5");
        assert!(ledger.total() > 0);
        // Leaves can exceed the soft threshold when a bag becomes
        // unsplittable (children would not shrink below the separator
        // size); they stay within a small constant factor.
        for leaf in bdd.leaves() {
            assert!(leaf.edges.len() <= 4 * bdd.leaf_threshold.max(12));
        }
    }

    #[test]
    fn structural_properties_on_triangulations() {
        for seed in [1u64, 2] {
            let g = gen::diag_grid(7, 7, seed).unwrap();
            let (bdd, _) = build(&g, 10);
            assert!(bdd.check_children_cover());
            assert!(bdd.check_edge_multiplicity());
            assert!(bdd.check_dart_partition());
        }
        let g = gen::apollonian(60, 5).unwrap();
        let (bdd, _) = build(&g, 10);
        assert!(bdd.check_children_cover());
        assert!(bdd.check_edge_multiplicity());
        assert!(bdd.check_dart_partition());
    }

    #[test]
    fn depth_is_logarithmic() {
        let g = gen::grid(12, 12).unwrap();
        let (bdd, _) = build(&g, 8);
        let n = g.num_edges() as f64;
        // Balance 2/3 per level ⇒ depth ≤ log_{3/2}(m) + O(1); allow slack 3x.
        let bound = 3.0 * n.log2() + 4.0;
        assert!(
            (bdd.depth() as f64) < bound,
            "depth {} vs bound {bound}",
            bdd.depth()
        );
    }

    #[test]
    fn face_parts_are_few() {
        let g = gen::diag_grid(8, 8, 3).unwrap();
        let (bdd, _) = build(&g, 10);
        let logn = (g.num_vertices() as f64).log2();
        for bag in &bdd.bags {
            let parts = bdd.face_parts_of(&g, bag);
            assert!(
                (parts as f64) <= 4.0 * logn + 4.0,
                "bag {} at level {} has {} face-parts (log n = {logn:.1})",
                bag.id,
                bag.level,
                parts
            );
        }
    }

    #[test]
    fn small_graph_is_single_leaf() {
        let g = gen::cycle(4).unwrap();
        let (bdd, _) = build(&g, 10);
        assert_eq!(bdd.depth(), 1);
        assert!(bdd.root().is_leaf());
    }

    #[test]
    fn separator_is_tree_paths_plus_closing_edge() {
        let g = gen::grid(10, 10).unwrap();
        let (bdd, _) = build(&g, 12);
        for bag in bdd.bags.iter().filter(|b| !b.is_leaf()) {
            let sep = bag.separator.as_ref().unwrap();
            assert!(!sep.vertices.is_empty());
            // Every separator tree edge is an edge of the bag.
            let edge_set: std::collections::HashSet<usize> = bag.edges.iter().copied().collect();
            for e in &sep.tree_edges {
                assert!(edge_set.contains(e));
            }
            if let ClosingEdge::Real(e) = sep.closing {
                assert!(edge_set.contains(&e));
            }
            // Endpoints are on the cycle.
            assert!(sep.vertices.contains(&sep.endpoints.0));
            assert!(sep.vertices.contains(&sep.endpoints.1));
        }
    }

    #[test]
    fn children_are_connected_subgraphs() {
        let g = gen::diag_grid(8, 6, 9).unwrap();
        let (bdd, _) = build(&g, 10);
        for bag in &bdd.bags {
            let comps = edge_components(&g, &bag.edges);
            assert_eq!(comps.len(), 1, "bag {} is connected", bag.id);
        }
    }

    #[test]
    fn bfs_depth_recorded() {
        let g = gen::grid(6, 6).unwrap();
        let (bdd, _) = build(&g, 8);
        assert!(bdd.root().bfs_depth >= g.diameter() / 2);
        for bag in &bdd.bags {
            assert!(bag.bfs_depth <= g.num_vertices());
        }
    }
}
