//! Dual single-source shortest paths (paper, Section 5.4): broadcast the
//! source label, decode distances locally, and mark the SSSP tree arcs with
//! one part-wise aggregation.

use crate::engine::DualLabels;
use duality_congest::CostLedger;
use duality_planar::{Dart, FaceId, Weight, INF};

/// A dual SSSP tree from a source face.
#[derive(Clone, Debug)]
pub struct DualSsspTree {
    /// The source node.
    pub source: FaceId,
    /// `dist[f]` = distance from the source to face `f` (`None` if
    /// unreachable).
    pub dist: Vec<Option<Weight>>,
    /// For each reachable non-source face, the dart whose dual arc enters
    /// it on the shortest-path tree (Lemma 2.2: every vertex knows which of
    /// its incident edges have their dual in the tree).
    pub parent_dart: Vec<Option<Dart>>,
}

/// Computes a dual SSSP tree from `source` given computed labels and the
/// same per-dart lengths used to build them.
///
/// Charges the source-label broadcast plus one dual part-wise aggregation
/// (tree-arc marking).
pub fn dual_sssp(
    labels: &DualLabels,
    lengths: &[Weight],
    source: FaceId,
    ledger: &mut CostLedger,
) -> DualSsspTree {
    let g = &labels.engine().graph;
    let cm = labels.engine().cost_model();
    let dist = labels.distances_from(source, ledger);
    // Tree marking: one PA task over G* (each node picks the incident arc
    // minimizing dist(s, f) + w(f → g)).
    ledger.charge("sssp-mark-tree", cm.dual_part_wise_aggregation());
    let mut parent_dart: Vec<Option<Dart>> = vec![None; g.num_faces()];
    for d in g.darts() {
        let w = lengths[d.index()];
        if w >= INF / 2 {
            continue;
        }
        let (from, to) = g.dual_arc(d);
        if to == source {
            continue;
        }
        let Some(df) = dist[from.index()] else {
            continue;
        };
        let Some(dt) = dist[to.index()] else { continue };
        if df + w == dt {
            let better = match parent_dart[to.index()] {
                None => true,
                Some(prev) => d.index() < prev.index(),
            };
            if better {
                parent_dart[to.index()] = Some(d);
            }
        }
    }
    DualSsspTree {
        source,
        dist,
        parent_dart,
    }
}

impl DualSsspTree {
    /// Checks the SSSP-tree invariant: every reachable face's distance is
    /// its parent's distance plus the parent arc weight.
    pub fn validate(&self, g: &duality_planar::PlanarGraph, lengths: &[Weight]) -> bool {
        for f in g.faces() {
            if f == self.source {
                if self.dist[f.index()] != Some(0) {
                    return false;
                }
                continue;
            }
            match (self.dist[f.index()], self.parent_dart[f.index()]) {
                (None, None) => {}
                (Some(df), Some(d)) => {
                    let (from, to) = g.dual_arc(d);
                    if to != f {
                        return false;
                    }
                    let Some(dp) = self.dist[from.index()] else {
                        return false;
                    };
                    if dp + lengths[d.index()] != df {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DualSsspEngine;
    use duality_congest::{CostLedger, CostModel};
    use duality_planar::gen;
    use std::sync::Arc;

    #[test]
    fn sssp_tree_valid_on_random_weights() {
        for seed in 0..3u64 {
            let g = gen::diag_grid(5, 5, seed).unwrap();
            let lengths: Vec<Weight> = (0..g.num_darts())
                .map(|i| ((i as i64 * 11) % 13) + 1)
                .collect();
            let cm = CostModel::new(g.num_vertices(), g.diameter());
            let mut ledger = CostLedger::new();
            let engine = Arc::new(DualSsspEngine::new(g.clone(), &cm, Some(10), &mut ledger));
            let labels = engine.labels(&lengths, &mut ledger).unwrap();
            let tree = dual_sssp(&labels, &lengths, FaceId(0), &mut ledger);
            assert!(tree.validate(&g, &lengths));
            assert!(ledger.phase_total("sssp-mark-tree") > 0);
        }
    }

    #[test]
    fn sssp_with_negative_lengths_valid() {
        let g = gen::grid(4, 4).unwrap();
        // Mildly negative backward darts, no negative cycles (checked via
        // engine result).
        let lengths: Vec<Weight> = g
            .darts()
            .map(|d| if d.is_forward() { 4 } else { -1 })
            .collect();
        let cm = CostModel::new(g.num_vertices(), g.diameter());
        let mut ledger = CostLedger::new();
        let engine = Arc::new(DualSsspEngine::new(g.clone(), &cm, Some(8), &mut ledger));
        if let Ok(labels) = engine.labels(&lengths, &mut ledger) {
            let tree = dual_sssp(&labels, &lengths, FaceId(0), &mut ledger);
            assert!(tree.validate(&g, &lengths));
        }
    }
}

impl DualSsspTree {
    /// Reconstructs the tree path from the source to `f` as the sequence of
    /// darts whose duals are traversed (empty for the source itself).
    /// Returns `None` if `f` is unreachable.
    ///
    /// Used by the min-cut pipelines to turn SSSP trees into explicit
    /// cut/cycle certificates.
    pub fn path_to(&self, g: &duality_planar::PlanarGraph, f: FaceId) -> Option<Vec<Dart>> {
        self.dist[f.index()]?;
        let mut path = Vec::new();
        let mut cur = f;
        while cur != self.source {
            let d = self.parent_dart[cur.index()]?;
            path.push(d);
            cur = g.face_of(d);
        }
        path.reverse();
        Some(path)
    }
}

#[cfg(test)]
mod path_tests {
    use super::*;
    use crate::DualSsspEngine;
    use duality_congest::{CostLedger, CostModel};
    use duality_planar::gen;
    use std::sync::Arc;

    #[test]
    fn paths_have_matching_lengths() {
        let g = gen::diag_grid(5, 4, 2).unwrap();
        let lengths: Vec<Weight> = (0..g.num_darts()).map(|i| (i as i64 % 5) + 1).collect();
        let cm = CostModel::new(g.num_vertices(), g.diameter());
        let mut ledger = CostLedger::new();
        let engine = Arc::new(DualSsspEngine::new(g.clone(), &cm, Some(8), &mut ledger));
        let labels = engine.labels(&lengths, &mut ledger).unwrap();
        let tree = dual_sssp(&labels, &lengths, FaceId(0), &mut ledger);
        for f in g.faces() {
            let path = tree.path_to(&g, f).expect("dual is strongly connected");
            let total: Weight = path.iter().map(|d| lengths[d.index()]).sum();
            assert_eq!(Some(total), tree.dist[f.index()], "{f:?}");
            // The path is dual-vertex chained.
            let mut cur = FaceId(0);
            for &d in &path {
                assert_eq!(g.face_of(d), cur);
                cur = g.face_of(d.rev());
            }
            assert_eq!(cur, f);
        }
    }

    #[test]
    fn source_path_is_empty() {
        let g = gen::grid(3, 3).unwrap();
        let lengths = vec![1; g.num_darts()];
        let cm = CostModel::new(g.num_vertices(), g.diameter());
        let mut ledger = CostLedger::new();
        let engine = Arc::new(DualSsspEngine::new(g.clone(), &cm, None, &mut ledger));
        let labels = engine.labels(&lengths, &mut ledger).unwrap();
        let tree = dual_sssp(&labels, &lengths, FaceId(2), &mut ledger);
        assert_eq!(tree.path_to(&g, FaceId(2)), Some(Vec::new()));
    }
}
