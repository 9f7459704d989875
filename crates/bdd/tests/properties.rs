//! Property-based tests of the BDD's structural guarantees (paper,
//! Lemma 5.1 + Theorem 5.2) over randomized topologies and thresholds.

use duality_bdd::{dual_bags, Bdd, BddOptions, DualBag};
use duality_congest::{CostLedger, CostModel};
use duality_planar::gen;
use proptest::prelude::*;

fn build(g: &duality_planar::PlanarGraph, threshold: usize) -> Bdd {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Properties 6 and 7 and the dart partition of Lemma 5.5, on random
    /// triangulated grids with random leaf thresholds.
    #[test]
    fn structural_invariants(
        w in 3usize..8,
        h in 3usize..7,
        seed in 0u64..10_000,
        threshold in 4usize..24,
    ) {
        let g = gen::diag_grid(w, h, seed).unwrap();
        let bdd = build(&g, threshold);
        prop_assert!(bdd.check_children_cover(), "Property 6");
        prop_assert!(bdd.check_edge_multiplicity(), "Property 7");
        prop_assert!(bdd.check_dart_partition(), "Lemma 5.5");
    }

    /// Lemma 5.3: O(log n) face-parts per bag.
    #[test]
    fn few_face_parts(
        w in 4usize..8,
        h in 4usize..7,
        seed in 0u64..10_000,
        threshold in 4usize..16,
    ) {
        let g = gen::diag_grid(w, h, seed).unwrap();
        let bdd = build(&g, threshold);
        let bound = 4.0 * (g.num_vertices() as f64).log2() + 4.0;
        for bag in &bdd.bags {
            prop_assert!((bdd.face_parts_of(&g, bag) as f64) <= bound);
        }
    }

    /// Property-12 assembly + F_X separator consistency on every bag.
    #[test]
    fn dual_assembly(
        n in 10usize..40,
        seed in 0u64..10_000,
        threshold in 4usize..16,
    ) {
        let g = gen::apollonian(n, seed).unwrap();
        let bdd = build(&g, threshold);
        for bag in &bdd.bags {
            prop_assert!(dual_bags::check_assembly(&g, &bdd, bag), "bag {}", bag.id);
        }
    }

    /// Non-F_X nodes of every dual bag live wholly inside one child.
    #[test]
    fn non_separator_nodes_have_unique_child(
        w in 4usize..7,
        h in 3usize..6,
        seed in 0u64..10_000,
    ) {
        let g = gen::diag_grid(w, h, seed).unwrap();
        let bdd = build(&g, 8);
        for bag in bdd.bags.iter().filter(|b| !b.is_leaf()) {
            let dual = DualBag::of_bag(&g, bag);
            let fx: std::collections::HashSet<_> =
                dual_bags::dual_separator(&bdd, bag, &dual).into_iter().collect();
            for &node in &dual.nodes {
                if fx.contains(&node) {
                    continue;
                }
                let holders = bag
                    .children
                    .iter()
                    .filter(|&&c| DualBag::of_bag(&g, &bdd.bags[c]).node_index.contains_key(&node))
                    .count();
                prop_assert!(holders >= 1, "non-separator node lives in a child");
            }
        }
    }

    /// Decomposition depth is logarithmic in the edge count.
    #[test]
    fn logarithmic_depth(
        w in 5usize..9,
        h in 5usize..8,
        seed in 0u64..10_000,
    ) {
        let g = gen::diag_grid(w, h, seed).unwrap();
        let bdd = build(&g, 6);
        let bound = 3.0 * (g.num_edges() as f64).log2() + 4.0;
        prop_assert!((bdd.depth() as f64) < bound);
    }
}
