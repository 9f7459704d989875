//! Dual distance labeling and dual SSSP (paper, Section 5).
//!
//! Every node of the dual graph `G*` (face of `G`) receives an `Õ(D)`-word
//! *distance label* such that the `G*`-distance between any two nodes can be
//! decoded from their two labels alone (Theorem 2.1). Labels are computed
//! bottom-up over the Bounded Diameter Decomposition:
//!
//! * **leaf bags** collect their whole (small) dual bag and solve APSP
//!   locally;
//! * **non-leaf bags** broadcast the labels of the dual-separator nodes
//!   `F_X` computed in their children plus the `S_X` dual arcs, and every
//!   vertex locally assembles a *dense distance graph* (DDG) — per-child
//!   cliques of label-decoded distances, the `S_X` dual arcs, and
//!   zero-weight links joining the parts of a shattered face — from which
//!   the label distances to `F_X` follow (Section 5.3).
//!
//! One builder assembles each bag's graph, a leaf's dual arcs or a
//! non-leaf bag's DDG, and the same per-bag graph serves the directed
//! global-min-cut scan of Section 7 through [`DualLabels::bag_graph`].
//!
//! Negative edge lengths are supported throughout (the Miller–Naor flow
//! reduction needs them); a negative cycle is detected at the leafmost bag
//! containing it (Lemma 5.19) and reported as an error.
//!
//! Round charges follow the paper's broadcast schedule with *measured*
//! quantities: per level, the charge is the maximum over same-level bags of
//! `bag BFS depth + number of words broadcast` (times 2 for Property 7's
//! constant overhead), summed over levels — so the `Õ(D²)` total is an
//! empirical output of the experiments, not an assumed formula.

mod engine;
pub mod sssp;

pub use engine::{BagGraph, DualLabels, DualSsspEngine, LabelingError};
