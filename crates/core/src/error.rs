//! The one error type of the public façade.
//!
//! Every [`crate::solver::PlanarSolver`] query, builder and pool lookup
//! fails with [`DualityError`]. The substrate crates' own errors
//! (`duality_planar::PlanarError`, `duality_labeling::LabelingError`) lift
//! into it through `From`, and `source()` chains back to them.

use duality_labeling::LabelingError;
use duality_planar::{PlanarError, Weight};

/// Any failure of the `duality` façade.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DualityError {
    /// The embedding substrate rejected the input graph or an augmentation.
    Planar(PlanarError),
    /// The labeling engine failed (today: an unexpected negative cycle).
    Labeling(LabelingError),
    /// `s == t` or an endpoint is out of range.
    BadEndpoints {
        /// The requested source.
        s: usize,
        /// The requested sink.
        t: usize,
        /// The number of vertices of the instance.
        n: usize,
    },
    /// A per-dart capacity is negative.
    NegativeCapacity {
        /// The offending dart index.
        dart: usize,
    },
    /// A per-edge weight is negative.
    NegativeWeight {
        /// The offending edge index.
        edge: usize,
    },
    /// A per-edge weight is zero where a positive one is required
    /// (cycle–cut duality needs positive weights).
    NonPositiveWeight {
        /// The offending edge index.
        edge: usize,
    },
    /// The capacity vector length does not match the dart count.
    CapacityLengthMismatch {
        /// `2 * num_edges` of the instance.
        expected: usize,
        /// The provided length.
        got: usize,
    },
    /// The weight vector length does not match the edge count.
    WeightLengthMismatch {
        /// `num_edges` of the instance.
        expected: usize,
        /// The provided length.
        got: usize,
    },
    /// The per-dart capacities sum past `2^59 / (num_darts + 1)`, beyond
    /// which a dual distance can reach the range the labeling reads as an
    /// absent dart.
    CapacityTotalTooLarge {
        /// The largest total this graph accepts.
        limit: Weight,
    },
    /// The per-edge weights sum past `2^59 / (num_darts + 1)`.
    WeightTotalTooLarge {
        /// The largest total this graph accepts.
        limit: Weight,
    },
    /// `eps_inverse` (that is, `1/ε`) is past what the approximate
    /// pipelines can represent on this instance: above `2^16`, where the
    /// oracle's round charge can overflow, or so large that Hassin's flow
    /// numerators could.
    EpsilonTooFine {
        /// The requested `1/ε`.
        eps_inverse: u64,
        /// The largest `1/ε` this instance accepts.
        limit: u64,
    },
    /// The builder was given neither capacities nor edge weights.
    MissingInput,
    /// The requested BDD leaf threshold is below
    /// [`crate::solver::MIN_LEAF_THRESHOLD`]: a leaf must be allowed to
    /// hold at least two edges or the decomposition cannot terminate.
    BadLeafThreshold {
        /// The rejected threshold.
        got: usize,
    },
    /// Capacities are not symmetric per edge: the st-planar pipeline needs
    /// an undirected instance.
    NotUndirected,
    /// `s` and `t` share no face, so Hassin's reduction does not apply.
    NotStPlanar {
        /// The requested source.
        s: usize,
        /// The requested sink.
        t: usize,
    },
    /// The instance is too small for the query (e.g. a global cut of a
    /// single vertex).
    TooSmall {
        /// Vertices the query needs.
        needed: usize,
        /// Vertices the instance has.
        vertices: usize,
    },
    /// The instance is acyclic, so it has no girth.
    Acyclic,
    /// `PlanarSolver::respec` was handed an instance that does not share
    /// the solver's graph allocation: the topology substrate (dual graph,
    /// BDD, dual bags) is only reusable for the *same* shared embedding.
    /// Build the instance with `PlanarInstance::with_capacities` /
    /// `with_edge_weights`, or build a fresh solver.
    TopologyMismatch,
}

impl std::fmt::Display for DualityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DualityError::Planar(e) => write!(f, "planar substrate error: {e}"),
            DualityError::Labeling(e) => write!(f, "labeling error: {e}"),
            DualityError::BadEndpoints { s, t, n } => {
                write!(f, "invalid endpoints s = {s}, t = {t} for {n} vertices")
            }
            DualityError::NegativeCapacity { dart } => {
                write!(f, "negative capacity on dart {dart}")
            }
            DualityError::NegativeWeight { edge } => {
                write!(f, "negative weight on edge {edge}")
            }
            DualityError::NonPositiveWeight { edge } => {
                write!(f, "weight of edge {edge} must be positive for this query")
            }
            DualityError::CapacityLengthMismatch { expected, got } => {
                write!(f, "expected {expected} per-dart capacities, got {got}")
            }
            DualityError::WeightLengthMismatch { expected, got } => {
                write!(f, "expected {expected} per-edge weights, got {got}")
            }
            DualityError::CapacityTotalTooLarge { limit } => {
                write!(f, "capacities sum past {limit}, the limit for this graph")
            }
            DualityError::WeightTotalTooLarge { limit } => {
                write!(f, "edge weights sum past {limit}, the limit for this graph")
            }
            DualityError::EpsilonTooFine { eps_inverse, limit } => {
                write!(
                    f,
                    "1/eps = {eps_inverse} is past {limit}, the limit for this instance"
                )
            }
            DualityError::MissingInput => {
                write!(f, "the solver needs capacities and/or edge weights")
            }
            DualityError::BadLeafThreshold { got } => {
                write!(
                    f,
                    "BDD leaf threshold {got} is invalid: a leaf must be allowed \
                     to hold at least 2 edges"
                )
            }
            DualityError::NotUndirected => {
                write!(f, "capacities must be symmetric and non-negative")
            }
            DualityError::NotStPlanar { s, t } => {
                write!(f, "s = {s} and t = {t} do not share a face")
            }
            DualityError::TooSmall { needed, vertices } => {
                write!(
                    f,
                    "query needs at least {needed} vertices, instance has {vertices}"
                )
            }
            DualityError::Acyclic => write!(f, "the instance is acyclic (no girth)"),
            DualityError::TopologyMismatch => {
                write!(
                    f,
                    "respec requires an instance sharing the solver's graph \
                     allocation (use PlanarInstance::with_capacities / \
                     with_edge_weights)"
                )
            }
        }
    }
}

impl std::error::Error for DualityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DualityError::Planar(e) => Some(e),
            DualityError::Labeling(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanarError> for DualityError {
    fn from(e: PlanarError) -> Self {
        DualityError::Planar(e)
    }
}

impl From<LabelingError> for DualityError {
    fn from(e: LabelingError) -> Self {
        DualityError::Labeling(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(DualityError, &str)> = vec![
            (
                DualityError::BadEndpoints { s: 2, t: 2, n: 9 },
                "invalid endpoints s = 2, t = 2 for 9 vertices",
            ),
            (
                DualityError::NegativeCapacity { dart: 3 },
                "negative capacity on dart 3",
            ),
            (DualityError::Acyclic, "the instance is acyclic (no girth)"),
            (
                DualityError::BadLeafThreshold { got: 1 },
                "BDD leaf threshold 1 is invalid: a leaf must be allowed to hold at least 2 edges",
            ),
            (
                DualityError::TooSmall {
                    needed: 2,
                    vertices: 1,
                },
                "query needs at least 2 vertices, instance has 1",
            ),
            (
                DualityError::CapacityTotalTooLarge { limit: 7 },
                "capacities sum past 7, the limit for this graph",
            ),
            (
                DualityError::WeightTotalTooLarge { limit: 7 },
                "edge weights sum past 7, the limit for this graph",
            ),
            (
                DualityError::EpsilonTooFine {
                    eps_inverse: 1 << 20,
                    limit: 1 << 16,
                },
                "1/eps = 1048576 is past 65536, the limit for this instance",
            ),
        ];
        for (err, msg) in cases {
            assert_eq!(err.to_string(), msg);
        }
    }

    #[test]
    fn source_chains_to_the_underlying_error() {
        use std::error::Error;
        let e = DualityError::from(PlanarError::Disconnected);
        assert!(e.source().is_some());
        assert_eq!(e.source().unwrap().to_string(), "graph is not connected");
        let e = DualityError::from(LabelingError::NegativeCycle { bag: 4 });
        assert!(e.source().is_some());
        assert!(e.to_string().contains("bag 4"));
        assert!(DualityError::Acyclic.source().is_none());
    }
}
