//! Property-based tests: dual distance labels decode exactly the
//! Bellman–Ford distances of the weighted dual, for arbitrary weights,
//! thresholds and topologies — including negative lengths.

use duality_congest::{CostLedger, CostModel};
use duality_labeling::{DualSsspEngine, LabelingError};
use duality_planar::{dual::DualView, gen, FaceId, Weight, INF};
use proptest::prelude::*;
use std::sync::Arc;

fn check_instance(
    g: &duality_planar::PlanarGraph,
    lengths: &[Weight],
    threshold: usize,
) -> Result<(), TestCaseError> {
    let cm = CostModel::new(g.num_vertices(), g.diameter());
    let mut ledger = CostLedger::new();
    let engine = Arc::new(DualSsspEngine::new(
        g.clone(),
        &cm,
        Some(threshold),
        &mut ledger,
    ));
    let view = DualView::new(g, lengths, |d| lengths[d.index()] < INF / 2);
    let labels = engine.labels(lengths, &mut ledger);
    // Reference from every source.
    let mut any_negative_cycle = false;
    let mut reference = Vec::new();
    for src in g.faces() {
        match view.bellman_ford(src) {
            Some(dist) => reference.push(dist),
            None => {
                any_negative_cycle = true;
                break;
            }
        }
    }
    match labels {
        Err(LabelingError::NegativeCycle { .. }) => {
            prop_assert!(any_negative_cycle, "spurious negative-cycle report");
        }
        Ok(labels) => {
            prop_assert!(!any_negative_cycle, "missed negative cycle");
            for (si, src) in g.faces().enumerate() {
                for f in g.faces() {
                    let want = reference[si][f.index()];
                    let want = (want < INF / 2).then_some(want);
                    prop_assert_eq!(labels.decode(src, f), want);
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Non-negative random weights on random triangulated grids.
    #[test]
    fn labels_match_reference_nonnegative(
        w in 3usize..6,
        h in 3usize..6,
        seed in 0u64..500,
        threshold in 4usize..20,
        weights in prop::collection::vec(0i64..30, 200),
    ) {
        let g = gen::diag_grid(w, h, seed).unwrap();
        let lengths: Vec<Weight> =
            (0..g.num_darts()).map(|i| weights[i % weights.len()]).collect();
        check_instance(&g, &lengths, threshold)?;
    }

    /// Mixed-sign weights: either the labels match Bellman–Ford everywhere
    /// or both agree a negative cycle exists.
    #[test]
    fn labels_match_reference_mixed_sign(
        w in 3usize..5,
        h in 3usize..5,
        seed in 0u64..500,
        threshold in 4usize..16,
        weights in prop::collection::vec(-3i64..12, 200),
    ) {
        let g = gen::diag_grid(w, h, seed).unwrap();
        let lengths: Vec<Weight> =
            (0..g.num_darts()).map(|i| weights[i % weights.len()]).collect();
        check_instance(&g, &lengths, threshold)?;
    }

    /// Sparse duals: only forward darts carry arcs.
    #[test]
    fn labels_match_reference_directed_dual(
        n in 6usize..20,
        seed in 0u64..500,
        threshold in 4usize..16,
        weights in prop::collection::vec(1i64..20, 120),
    ) {
        let g = gen::apollonian(n, seed).unwrap();
        let lengths: Vec<Weight> = g
            .darts()
            .map(|d| {
                if d.is_forward() {
                    weights[d.edge() % weights.len()]
                } else {
                    INF
                }
            })
            .collect();
        check_instance(&g, &lengths, threshold)?;
    }

    /// Label sizes stay Õ(D) regardless of weights (Lemma 5.17).
    #[test]
    fn label_sizes_bounded(w in 4usize..8, h in 3usize..6, seed in 0u64..100) {
        let g = gen::diag_grid(w, h, seed).unwrap();
        let cm = CostModel::new(g.num_vertices(), g.diameter());
        let mut ledger = CostLedger::new();
        let engine = Arc::new(DualSsspEngine::new(g.clone(), &cm, None, &mut ledger));
        let labels = engine.labels(&vec![1; g.num_darts()], &mut ledger).unwrap();
        let d = g.diameter() as u64;
        let logn = (g.num_vertices() as f64).log2().ceil() as u64;
        for f in g.faces() {
            prop_assert!(labels.label_words(FaceId(f.0)) <= 60 * d * logn * logn);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sparse irregular subgraphs (large merged faces, bridges, low
    /// connectivity) stress the face-part machinery: labels still decode
    /// exact distances.
    #[test]
    fn labels_on_sparse_subgraphs(
        w in 4usize..6,
        h in 4usize..6,
        keep_frac in 60usize..95,
        seed in 0u64..300,
        threshold in 4usize..14,
    ) {
        let full = (w - 1) * h + (h - 1) * w + (w - 1) * (h - 1);
        let target = (full * keep_frac / 100).max(w * h - 1);
        let g = gen::sparse_grid(w, h, target, seed).unwrap();
        let lengths: Vec<Weight> =
            (0..g.num_darts()).map(|i| ((i as i64 * 17) % 11) + 1).collect();
        check_instance(&g, &lengths, threshold)?;
    }
}
