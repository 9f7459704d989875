//! The paper's core machinery, hands on: dual distance labels (Theorem
//! 2.1) and a dual SSSP tree (Lemma 2.2) with negative edge lengths,
//! accessed through the solver's cached substrate.
//!
//! Run with: `cargo run --release --example dual_sssp_labels`

use duality::congest::CostLedger;
use duality::labeling::sssp::dual_sssp;
use duality::planar::{dual::DualView, gen, FaceId};
use duality::PlanarSolver;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = gen::diag_grid(7, 6, 11)?;
    println!(
        "primal: n = {}, faces (dual nodes) = {}, D = {}",
        g.num_vertices(),
        g.num_faces(),
        g.diameter()
    );

    // Mixed-sign dual arc lengths with no negative cycles by construction:
    // length(d) = 1 + π(face(d)) − π(face(rev d)) for arbitrary face
    // potentials π, so every dual cycle telescopes to its (positive) hop
    // count. Individual arcs still go as low as 1 − max π.
    let pi = |f: FaceId| (f.0 as i64 * 5) % 7;
    let lengths: Vec<i64> = g
        .darts()
        .map(|d| {
            let (from, to) = g.dual_arc(d);
            1 + pi(from) - pi(to)
        })
        .collect();

    // The solver owns the substrate; `labeling_engine()` hands out the
    // cached BDD + dual bags (built once, Õ(D) rounds, charged to the
    // substrate ledger) for custom labelings like this one. The engine is
    // an `Arc`, and the labels it computes hold a clone of it.
    let solver = PlanarSolver::builder(&g)
        .edge_weights(vec![1; g.num_edges()])
        .build()?;
    let engine = solver.labeling_engine();
    let mut ledger = CostLedger::new();
    let labels = engine.labels(&lengths, &mut ledger)?;
    println!(
        "BDD: {} bags over {} levels; labels up to {} words (Õ(D) = Õ({}))",
        engine.bdd.bags.len(),
        engine.bdd.depth(),
        g.faces().map(|f| labels.label_words(f)).max().unwrap(),
        g.diameter()
    );

    // Any two labels decode their dual distance (Lemma 5.16).
    let (a, b) = (FaceId(0), FaceId(g.num_faces() as u32 - 1));
    println!("dist({a:?} → {b:?}) = {:?}", labels.decode(a, b));

    // A full SSSP tree from face 0, validated against Bellman–Ford.
    let tree = dual_sssp(&labels, &lengths, a, &mut ledger);
    assert!(tree.validate(&g, &lengths));
    let reference = DualView::new(&g, &lengths, |_| true)
        .bellman_ford(a)
        .expect("no negative cycle");
    for f in g.faces() {
        assert_eq!(tree.dist[f.index()], Some(reference[f.index()]));
    }
    println!("SSSP tree validated against centralized Bellman–Ford");
    println!(
        "\nsubstrate rounds (one-off):\n{}",
        solver.substrate_rounds()
    );
    println!("labeling rounds (per weight assignment):\n{ledger}");
    Ok(())
}
