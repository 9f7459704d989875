//! The owned, validated problem instance behind the solver.
//!
//! [`PlanarInstance`] bundles everything that defines a problem — the
//! embedded graph, the per-dart capacities and the per-edge weights — into
//! one immutable, `Send + Sync` value that is validated exactly once and
//! then shared by reference counting. A [`crate::solver::PlanarSolver`]
//! holds an `Arc<PlanarInstance>`, so solvers (and their clones) can
//! outlive the stack frame that created the graph and can be queried from
//! many threads.
//!
//! # Copy-on-write respec
//!
//! The graph itself lives behind its own `Arc<PlanarGraph>`, so re-speccing
//! an instance — same road network, new tariffs; same power grid, new line
//! ratings — costs one capacity/weight vector, never a graph copy:
//! [`PlanarInstance::with_capacities`] and
//! [`PlanarInstance::with_edge_weights`] validate the new spec and return a
//! new `Arc<PlanarInstance>` that *shares the graph allocation* with the
//! original. [`crate::solver::PlanarSolver::respec`] recognizes that
//! sharing and reuses the whole topology substrate (dual graph, BDD, dual
//! bags) for the new spec.

use crate::error::DualityError;
use duality_planar::{PlanarGraph, Weight};
use std::sync::Arc;

/// The largest capacity or weight total an instance over `graph` accepts,
/// `2^59 / (num_darts + 1)`. A residual length is at most `c + λ`, with `λ`
/// at most the total, and a dual path has at most `num_darts` arcs, so
/// every dual distance stays below `INF / 2`, where the labeling starts to
/// read a length as an absent dart.
pub(crate) fn max_spec_total(graph: &PlanarGraph) -> Weight {
    (1 << 59) / (graph.num_darts() as Weight + 1)
}

/// An owned, validated `(graph, capacities, weights)` bundle.
///
/// Construction performs the **only** validation pass: vector lengths,
/// non-negativity, totals of at most `2^59 / (num_darts + 1)`, and the
/// capacities ↔ weights derivation (forward darts carry edge weights,
/// reversal darts are free — the paper's `G'` convention). After
/// [`PlanarInstance::new`] succeeds, no query re-validates the instance.
///
/// # Example
///
/// ```
/// use duality_core::instance::PlanarInstance;
/// use duality_planar::gen;
/// use std::sync::Arc;
///
/// let g = gen::grid(3, 3).unwrap();
/// let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 7);
/// let instance = PlanarInstance::new(g, Some(caps), None).unwrap();
/// assert_eq!(instance.edge_weights().len(), instance.m());
///
/// // Copy-on-write respec: new capacities, same shared graph.
/// let respecced = instance.with_capacities(vec![2; instance.graph().num_darts()]).unwrap();
/// assert!(Arc::ptr_eq(instance.graph_arc(), respecced.graph_arc()));
/// ```
#[derive(Debug)]
pub struct PlanarInstance {
    graph: Arc<PlanarGraph>,
    caps: Vec<Weight>,
    weights: Vec<Weight>,
    /// Memoized [`crate::pool::InstanceKey`], computed on first keyed-pool
    /// use so repeat pool lookups skip the `O(n + m)` content hash.
    pub(crate) cached_key: std::sync::OnceLock<crate::pool::InstanceKey>,
}

impl PlanarInstance {
    /// Validates and freezes an instance; the missing side of
    /// `capacities` / `edge_weights` is derived — `weights[e] = caps[2e]`
    /// (forward-dart capacity), or `caps[2e] = weights[e], caps[2e+1] = 0`
    /// (a directed instance).
    ///
    /// # Errors
    ///
    /// [`DualityError::CapacityLengthMismatch`] /
    /// [`DualityError::WeightLengthMismatch`] on wrong vector lengths,
    /// [`DualityError::NegativeCapacity`] / [`DualityError::NegativeWeight`]
    /// on negative entries, [`DualityError::CapacityTotalTooLarge`] /
    /// [`DualityError::WeightTotalTooLarge`] on a total past
    /// `2^59 / (num_darts + 1)`, [`DualityError::MissingInput`] when neither
    /// side was provided.
    pub fn new(
        graph: PlanarGraph,
        capacities: Option<Vec<Weight>>,
        edge_weights: Option<Vec<Weight>>,
    ) -> Result<Arc<Self>, DualityError> {
        Self::from_shared(Arc::new(graph), capacities, edge_weights)
    }

    /// [`PlanarInstance::new`] over an already-shared graph: the instance
    /// keeps the `Arc` (no copy), so many instances — e.g. one per
    /// capacity scenario — can share one graph allocation, and solvers
    /// built over them can share one topology substrate.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PlanarInstance::new`].
    pub fn from_shared(
        graph: Arc<PlanarGraph>,
        capacities: Option<Vec<Weight>>,
        edge_weights: Option<Vec<Weight>>,
    ) -> Result<Arc<Self>, DualityError> {
        if let Some(caps) = &capacities {
            validate_capacities(&graph, caps)?;
        }
        if let Some(w) = &edge_weights {
            validate_weights(&graph, w)?;
        }
        let (caps, weights) = match (capacities, edge_weights) {
            (Some(c), Some(w)) => (c, w),
            (Some(c), None) => {
                let w: Vec<Weight> = (0..graph.num_edges()).map(|e| c[2 * e]).collect();
                (c, w)
            }
            (None, Some(w)) => {
                let mut c = vec![0; graph.num_darts()];
                for (e, &x) in w.iter().enumerate() {
                    c[2 * e] = x;
                }
                (c, w)
            }
            (None, None) => return Err(DualityError::MissingInput),
        };
        Ok(Arc::new(PlanarInstance {
            graph,
            caps,
            weights,
            cached_key: std::sync::OnceLock::new(),
        }))
    }

    /// Copy-on-write respec of the capacity side: a new instance with the
    /// given per-dart capacities, the **same** per-edge weights, and the
    /// same shared graph allocation (no graph copy — `Arc::ptr_eq` holds
    /// between the two instances' [`PlanarInstance::graph_arc`]).
    ///
    /// Note the asymmetry with [`PlanarInstance::new`]: a respec replaces
    /// only the named side. Weights derived from the original capacities
    /// are kept as they are, not re-derived.
    ///
    /// # Errors
    ///
    /// [`DualityError::CapacityLengthMismatch`] /
    /// [`DualityError::NegativeCapacity`] /
    /// [`DualityError::CapacityTotalTooLarge`] on an invalid vector.
    pub fn with_capacities(&self, capacities: Vec<Weight>) -> Result<Arc<Self>, DualityError> {
        validate_capacities(&self.graph, &capacities)?;
        Ok(Arc::new(PlanarInstance {
            graph: Arc::clone(&self.graph),
            caps: capacities,
            weights: self.weights.clone(),
            cached_key: std::sync::OnceLock::new(),
        }))
    }

    /// Copy-on-write respec of the weight side: a new instance with the
    /// given per-edge weights, the **same** per-dart capacities, and the
    /// same shared graph allocation. See [`PlanarInstance::with_capacities`]
    /// for the replace-only-the-named-side contract.
    ///
    /// # Errors
    ///
    /// [`DualityError::WeightLengthMismatch`] /
    /// [`DualityError::NegativeWeight`] /
    /// [`DualityError::WeightTotalTooLarge`] on an invalid vector.
    pub fn with_edge_weights(&self, edge_weights: Vec<Weight>) -> Result<Arc<Self>, DualityError> {
        validate_weights(&self.graph, &edge_weights)?;
        Ok(Arc::new(PlanarInstance {
            graph: Arc::clone(&self.graph),
            caps: self.caps.clone(),
            weights: edge_weights,
            cached_key: std::sync::OnceLock::new(),
        }))
    }

    /// The embedded graph.
    pub fn graph(&self) -> &PlanarGraph {
        &self.graph
    }

    /// The shared graph allocation. Two instances related by
    /// [`PlanarInstance::with_capacities`] /
    /// [`PlanarInstance::with_edge_weights`] compare `Arc::ptr_eq` here —
    /// the witness [`crate::solver::PlanarSolver::respec`] checks before
    /// sharing the topology substrate.
    pub fn graph_arc(&self) -> &Arc<PlanarGraph> {
        &self.graph
    }

    /// Number of vertices of the instance (shorthand for
    /// `graph().num_vertices()`).
    pub fn n(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of edges of the instance (shorthand for
    /// `graph().num_edges()`).
    pub fn m(&self) -> usize {
        self.graph.num_edges()
    }

    /// The validated per-dart capacities (`2 * num_edges` entries).
    pub fn capacities(&self) -> &[Weight] {
        &self.caps
    }

    /// The validated per-edge weights (`num_edges` entries).
    pub fn edge_weights(&self) -> &[Weight] {
        &self.weights
    }
}

impl std::fmt::Display for PlanarInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cap_total: Weight = self.caps.iter().sum();
        let weight_total: Weight = self.weights.iter().sum();
        write!(
            f,
            "planar instance: {} vertices, {} edges, {} faces \
             (total capacity {cap_total}, total weight {weight_total})",
            self.n(),
            self.m(),
            self.graph.num_faces()
        )
    }
}

fn validate_capacities(graph: &PlanarGraph, caps: &[Weight]) -> Result<(), DualityError> {
    if caps.len() != graph.num_darts() {
        return Err(DualityError::CapacityLengthMismatch {
            expected: graph.num_darts(),
            got: caps.len(),
        });
    }
    if let Some(d) = caps.iter().position(|&c| c < 0) {
        return Err(DualityError::NegativeCapacity { dart: d });
    }
    within_total(graph, caps).map_err(|limit| DualityError::CapacityTotalTooLarge { limit })
}

fn validate_weights(graph: &PlanarGraph, weights: &[Weight]) -> Result<(), DualityError> {
    if weights.len() != graph.num_edges() {
        return Err(DualityError::WeightLengthMismatch {
            expected: graph.num_edges(),
            got: weights.len(),
        });
    }
    if let Some(e) = weights.iter().position(|&x| x < 0) {
        return Err(DualityError::NegativeWeight { edge: e });
    }
    within_total(graph, weights).map_err(|limit| DualityError::WeightTotalTooLarge { limit })
}

/// `Err(limit)` if `values` sum past [`max_spec_total`] (summed in `i128`,
/// so the check itself cannot overflow).
fn within_total(graph: &PlanarGraph, values: &[Weight]) -> Result<(), Weight> {
    let limit = max_spec_total(graph);
    let total: i128 = values.iter().map(|&x| i128::from(x)).sum();
    if total > i128::from(limit) {
        return Err(limit);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use duality_planar::gen;

    #[test]
    fn validation_matches_the_builder_contract() {
        let g = gen::grid(3, 3).unwrap();
        assert!(matches!(
            PlanarInstance::new(g.clone(), None, None),
            Err(DualityError::MissingInput)
        ));
        assert!(matches!(
            PlanarInstance::new(g.clone(), Some(vec![1; 3]), None),
            Err(DualityError::CapacityLengthMismatch { .. })
        ));
        assert!(matches!(
            PlanarInstance::new(g.clone(), None, Some(vec![1; 2])),
            Err(DualityError::WeightLengthMismatch { .. })
        ));
        let mut caps = vec![1; g.num_darts()];
        caps[5] = -2;
        assert_eq!(
            PlanarInstance::new(g.clone(), Some(caps), None).err(),
            Some(DualityError::NegativeCapacity { dart: 5 })
        );
        assert_eq!(
            PlanarInstance::new(g.clone(), None, Some(vec![-1; g.num_edges()])).err(),
            Some(DualityError::NegativeWeight { edge: 0 })
        );
    }

    #[test]
    fn derivations_are_bidirectional() {
        let g = gen::grid(3, 3).unwrap();
        let caps = gen::random_directed_capacities(g.num_edges(), 1, 5, 3);
        let i = PlanarInstance::new(g.clone(), Some(caps.clone()), None).unwrap();
        for e in 0..g.num_edges() {
            assert_eq!(i.edge_weights()[e], caps[2 * e]);
        }
        let w = gen::random_edge_weights(g.num_edges(), 1, 5, 4);
        let i = PlanarInstance::new(g.clone(), None, Some(w.clone())).unwrap();
        for e in 0..g.num_edges() {
            assert_eq!(i.capacities()[2 * e], w[e]);
            assert_eq!(i.capacities()[2 * e + 1], 0);
        }
    }

    #[test]
    fn respec_shares_the_graph_and_replaces_one_side() {
        let g = gen::grid(4, 3).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 2);
        let weights = gen::random_edge_weights(g.num_edges(), 1, 9, 3);
        let base = PlanarInstance::new(g, Some(caps.clone()), Some(weights.clone())).unwrap();

        let new_caps = vec![4; base.graph().num_darts()];
        let capped = base.with_capacities(new_caps.clone()).unwrap();
        assert!(Arc::ptr_eq(base.graph_arc(), capped.graph_arc()));
        assert_eq!(capped.capacities(), &new_caps[..]);
        assert_eq!(capped.edge_weights(), &weights[..], "weights kept as-is");

        let new_weights = vec![7; base.m()];
        let weighted = capped.with_edge_weights(new_weights.clone()).unwrap();
        assert!(Arc::ptr_eq(base.graph_arc(), weighted.graph_arc()));
        assert_eq!(weighted.edge_weights(), &new_weights[..]);
        assert_eq!(weighted.capacities(), &new_caps[..], "caps kept as-is");

        // The original is untouched (copy-on-write, not mutation).
        assert_eq!(base.capacities(), &caps[..]);
        assert_eq!(base.edge_weights(), &weights[..]);
    }

    #[test]
    fn respec_validates_like_construction() {
        let g = gen::grid(3, 3).unwrap();
        let base = PlanarInstance::new(g, None, Some(vec![1; 12])).unwrap();
        assert!(matches!(
            base.with_capacities(vec![1; 3]),
            Err(DualityError::CapacityLengthMismatch { .. })
        ));
        let mut caps = vec![1; base.graph().num_darts()];
        caps[3] = -1;
        assert_eq!(
            base.with_capacities(caps).err(),
            Some(DualityError::NegativeCapacity { dart: 3 })
        );
        assert!(matches!(
            base.with_edge_weights(vec![1; 2]),
            Err(DualityError::WeightLengthMismatch { .. })
        ));
        assert_eq!(
            base.with_edge_weights(vec![-2; base.m()]).err(),
            Some(DualityError::NegativeWeight { edge: 0 })
        );
    }

    #[test]
    fn capacity_totals_past_the_limit_are_refused() {
        // Two darts at i64::MAX: unchecked, the sum wraps and max flow
        // 0 → 15 reads 0 where Dinic reads 12.
        let g = gen::diag_grid(4, 4, 1).unwrap();
        let limit = max_spec_total(&g);
        let mut caps = gen::random_directed_capacities(g.num_edges(), 1, 9, 7);
        caps[..2].fill(Weight::MAX);
        let refused = Some(DualityError::CapacityTotalTooLarge { limit });
        assert_eq!(
            PlanarInstance::new(g.clone(), Some(caps.clone()), None).err(),
            refused
        );
        let ones = vec![1; g.num_edges()];
        let base = PlanarInstance::new(g, None, Some(ones)).unwrap();
        assert_eq!(base.with_capacities(caps).err(), refused);
    }

    #[test]
    fn weight_totals_past_the_limit_are_refused() {
        // Five weights at i64::MAX / 4: unchecked, girth reads a negative
        // value.
        let g = gen::diag_grid(4, 4, 1).unwrap();
        let limit = max_spec_total(&g);
        let mut weights = gen::random_edge_weights(g.num_edges(), 1, 9, 3);
        weights[..5].fill(Weight::MAX / 4);
        let refused = Some(DualityError::WeightTotalTooLarge { limit });
        assert_eq!(
            PlanarInstance::new(g.clone(), None, Some(weights.clone())).err(),
            refused
        );
        let ones = vec![1; g.num_edges()];
        let base = PlanarInstance::new(g, None, Some(ones)).unwrap();
        assert_eq!(base.with_edge_weights(weights).err(), refused);
    }

    #[test]
    fn capacities_totalling_the_limit_are_accepted_and_exact() {
        use duality_baselines::flow::planar_max_flow_reference;
        let g = gen::diag_grid(4, 4, 1).unwrap();
        let limit = max_spec_total(&g);
        let base = gen::random_directed_capacities(g.num_edges(), 1, 9, 7);
        let scale = limit / base.iter().sum::<Weight>();
        let mut caps: Vec<Weight> = base.iter().map(|&c| c * scale).collect();
        caps[0] += limit - caps.iter().sum::<Weight>();
        assert_eq!(caps.iter().sum::<Weight>(), limit);
        let solver = crate::PlanarSolver::builder(&g)
            .capacities(&caps)
            .build()
            .unwrap();
        assert_eq!(
            solver.max_flow(0, 15).unwrap().value,
            planar_max_flow_reference(&g, &caps, 0, 15)
        );
    }

    #[test]
    fn shape_accessors_and_display() {
        let g = gen::grid(3, 4).unwrap();
        let i = PlanarInstance::new(g, None, Some(vec![2; 17])).unwrap();
        assert_eq!(i.n(), 12);
        assert_eq!(i.m(), 17);
        let line = i.to_string();
        assert!(line.contains("12 vertices"));
        assert!(line.contains("17 edges"));
        assert!(line.contains("total weight 34"));
    }

    #[test]
    fn instance_is_shareable_across_threads() {
        let g = gen::grid(4, 4).unwrap();
        let i = PlanarInstance::new(g, None, Some(vec![2; 24])).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let i = Arc::clone(&i);
                std::thread::spawn(move || i.graph().num_vertices())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 16);
        }
    }
}
