//! The unified `PlanarSolver` façade: one owned instance, five queries,
//! shared thread-safe substrate, and a typed query layer.
//!
//! Every headline result of the paper — exact/approximate max st-flow,
//! exact/approximate min st-cut, directed global min cut, weighted girth —
//! is derived from the same toolkit: the dual graph `G*`, a bounded-
//! diameter branch decomposition, and dual SSSP labelings over the CONGEST
//! substrate. [`PlanarSolver`] is the one entry point to all of them: it
//! builds that toolkit **once** and amortizes it across queries:
//!
//! | artifact | built by | used by |
//! |---|---|---|
//! | hop diameter / [`CostModel`] | first query | everything |
//! | embedded dual graph `G*` | first [`Query::Girth`] | girth |
//! | BDD + dual bags + labeling engine | first flow/cut query | max-flow, min st-cut, global cut |
//!
//! The substrate is **two-tier**. [`TopoSubstrate`] holds everything keyed
//! by the embedding alone — the hop-diameter [`CostModel`], the embedded
//! dual graph, and the BDD + dual bags + separators of the labeling
//! engine. The weight tier holds what is keyed by the current
//! capacities/weights — today, the dual distance labels at the instance
//! lengths that the global-cut pipeline consumes. The split pays off at
//! [`PlanarSolver::respec`]: re-speccing the same network with new
//! capacities or weights returns a new solver that *shares the
//! `Arc<TopoSubstrate>`* and rebuilds only the weight tier, so a K-scenario
//! sweep charges the topology rounds once (auditable in every
//! [`duality_congest::RoundReport`], which now splits `substrate_topo`
//! from `substrate_weight`).
//!
//! The solver owns its instance (an [`Arc<PlanarInstance>`]), is
//! `Send + Sync`, and clones in `O(1)` by sharing the instance **and** the
//! caches. Every artifact is owned data — the labeling engine holds an
//! `Arc` of the graph and the labels hold an `Arc` of their engine — so
//! the caches borrow nothing. Artifacts are memoized behind `OnceLock`s,
//! and the rounds charged while building them accumulate in mutex-guarded
//! per-tier **substrate ledgers** that every query reports alongside its
//! own marginal cost. Build counters ([`PlanarSolver::stats`]) let tests
//! assert that issuing many queries — even concurrently, even across
//! respecs — constructs each artifact exactly once.
//!
//! # The query layer
//!
//! Requests are first-class values: a [`Query`] names one of the six
//! operations, and [`PlanarSolver::run`] executes it and returns the
//! matching [`Outcome`]. The classic inherent methods
//! ([`PlanarSolver::max_flow`], …) remain as thin wrappers over `run`.
//!
//! # Example
//!
//! ```
//! use duality_core::solver::{Outcome, PlanarSolver, Query};
//! use duality_planar::gen;
//!
//! let g = gen::diag_grid(4, 4, 7).unwrap();
//! let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 7);
//! let solver = PlanarSolver::builder(&g).capacities(caps).build().unwrap();
//!
//! // One-at-a-time queries...
//! let flow = solver.max_flow(0, 15).unwrap();
//! let cut = solver.min_st_cut(0, 15).unwrap();
//! assert_eq!(flow.value, cut.value); // max-flow min-cut duality
//!
//! // ...or the same request as a typed `Query`.
//! match solver.run(Query::MaxFlow { s: 0, t: 15 }).unwrap() {
//!     Outcome::MaxFlow(r) => assert_eq!(r.value, flow.value),
//!     _ => unreachable!(),
//! }
//!
//! // The decomposition was built once and shared by every query.
//! assert_eq!(solver.stats().engine_builds, 1);
//! ```

use crate::error::DualityError;
use crate::heap_size::{hash_table_bytes, HeapSize, VEC_HEADER};
use crate::instance::PlanarInstance;
use crate::{approx_flow, girth, global_cut, max_flow, st_cut};
use duality_congest::{CostLedger, CostModel, PhaseTimer, RoundReport};
use duality_labeling::{DualLabels, DualSsspEngine};
use duality_planar::{dual, Dart, FaceId, PlanarGraph, Weight};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Builder for [`PlanarSolver`]: the instance (graph + capacities and/or
/// edge weights) is validated once, up front. `build()` clones the graph
/// into an owned [`PlanarInstance`]; use [`PlanarSolver::from_instance`]
/// to share an already-validated instance without copying.
///
/// At least one of [`SolverBuilder::capacities`] (per-dart) and
/// [`SolverBuilder::edge_weights`] (per-edge) must be provided; the missing
/// side is derived — `weights[e] = caps[2e]` (forward-dart capacity), or
/// `caps[2e] = weights[e], caps[2e+1] = 0` (a directed instance).
#[derive(Clone, Debug)]
pub struct SolverBuilder<'g> {
    graph: &'g PlanarGraph,
    capacities: Option<Cow<'g, [Weight]>>,
    edge_weights: Option<Cow<'g, [Weight]>>,
    leaf_threshold: Option<usize>,
}

impl<'g> SolverBuilder<'g> {
    /// Per-dart capacities for the flow/cut queries (`2 * num_edges`
    /// entries, non-negative). Accepts owned or borrowed data; borrowed
    /// slices are copied only at `build()`.
    pub fn capacities(mut self, caps: impl Into<Cow<'g, [Weight]>>) -> Self {
        self.capacities = Some(caps.into());
        self
    }

    /// Per-edge weights for the global-cut and girth queries (`num_edges`
    /// entries, non-negative). Accepts owned or borrowed data; borrowed
    /// slices are copied only at `build()`.
    pub fn edge_weights(mut self, weights: impl Into<Cow<'g, [Weight]>>) -> Self {
        self.edge_weights = Some(weights.into());
        self
    }

    /// Overrides the BDD leaf threshold (`None`: the paper's `Θ(D)`
    /// default). Validated at `build()`: a leaf must be allowed to hold at
    /// least [`MIN_LEAF_THRESHOLD`] edges.
    pub fn with_leaf_threshold(mut self, threshold: Option<usize>) -> Self {
        self.leaf_threshold = threshold;
        self
    }

    /// Validates the instance and builds the solver. No substrate artifact
    /// is constructed yet — that happens lazily on first use.
    ///
    /// # Errors
    ///
    /// [`DualityError::CapacityLengthMismatch`] /
    /// [`DualityError::WeightLengthMismatch`] on wrong vector lengths,
    /// [`DualityError::NegativeCapacity`] / [`DualityError::NegativeWeight`]
    /// on negative entries, [`DualityError::MissingInput`] when neither
    /// side was provided, [`DualityError::BadLeafThreshold`] on a leaf
    /// threshold below [`MIN_LEAF_THRESHOLD`].
    pub fn build(self) -> Result<PlanarSolver, DualityError> {
        let instance = PlanarInstance::new(
            self.graph.clone(),
            self.capacities.map(Cow::into_owned),
            self.edge_weights.map(Cow::into_owned),
        )?;
        PlanarSolver::from_instance_with_threshold(instance, self.leaf_threshold)
    }
}

/// The smallest accepted BDD leaf threshold: a leaf must be allowed to
/// hold at least two edges, otherwise the decomposition cannot terminate.
/// Re-exported from the decomposition crate so the builder's rejection
/// bound can never drift from `Bdd::build`'s own clamp.
pub const MIN_LEAF_THRESHOLD: usize = duality_bdd::MIN_LEAF_THRESHOLD;

/// The largest `1/ε` the approximate queries accept; above it the
/// oracle's `ε⁻²` round charge can overflow. A smaller, per-instance
/// bound keeps Hassin's flow numerators within `i64`.
pub(crate) const MAX_EPS_INVERSE: u64 = 1 << 16;

/// Snapshot of the solver's build counters, for cache-reuse assertions.
///
/// `engine_builds` and `dual_builds` live in the shared [`TopoSubstrate`],
/// so they stay ≤ 1 across *all* solvers derived from one topology via
/// [`PlanarSolver::respec`]; `label_builds` lives in the per-spec weight
/// tier (≤ 1 per solver, rebuilt on respec); `queries` is per solver.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Times the BDD + dual-bag labeling engine was constructed (≤ 1 per
    /// topology, shared across respecs).
    pub engine_builds: u32,
    /// Times the embedded dual graph was constructed (≤ 1 per topology,
    /// shared across respecs).
    pub dual_builds: u32,
    /// Times the instance-weight dual labels were computed (≤ 1 per spec).
    pub label_builds: u32,
    /// Queries answered so far.
    pub queries: u32,
}

/// Exact max st-flow witness (paper, Theorem 1.2).
#[derive(Clone, Debug)]
pub struct MaxFlowReport {
    /// The maximum flow value `λ*`.
    pub value: Weight,
    /// Net flow per dart (`flow[d] = -flow[rev d]`).
    pub flow: Vec<Weight>,
    /// Dual-SSSP probes of the binary search (`O(log λ*)`).
    pub probes: u32,
    /// Substrate + query round split.
    pub rounds: RoundReport,
}

impl std::fmt::Display for MaxFlowReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "max st-flow = {} ({} dual-SSSP probes, {} rounds: {} substrate + {} query)",
            self.value,
            self.probes,
            self.rounds.total(),
            self.rounds.substrate_total(),
            self.rounds.query_total()
        )
    }
}

/// Exact min st-cut witness (paper, Theorem 6.1).
#[derive(Clone, Debug)]
pub struct MinCutReport {
    /// The cut capacity (equals the max-flow value).
    pub value: Weight,
    /// `side[v]` is `true` on the `s` shore.
    pub side: Vec<bool>,
    /// The saturated darts crossing from the `s` side to the `t` side.
    pub cut_darts: Vec<Dart>,
    /// Substrate + query round split.
    pub rounds: RoundReport,
}

impl std::fmt::Display for MinCutReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "min st-cut = {} ({} cut darts, {} rounds: {} substrate + {} query)",
            self.value,
            self.cut_darts.len(),
            self.rounds.total(),
            self.rounds.substrate_total(),
            self.rounds.query_total()
        )
    }
}

/// Approximate st-planar max-flow witness (paper, Theorem 1.3): a rational
/// flow `flow_numer[d] / denom` per dart.
#[derive(Clone, Debug)]
pub struct ApproxFlowReport {
    /// Flow value numerator (value = `value_numer / denom`).
    pub value_numer: Weight,
    /// Common denominator (`k + 1` for `ε = 1/k`; 1 in exact mode).
    pub denom: Weight,
    /// Per-dart flow numerators (antisymmetric).
    pub flow_numer: Vec<Weight>,
    /// The two dual faces created by Hassin's artificial edge.
    pub f1: FaceId,
    /// See [`ApproxFlowReport::f1`].
    pub f2: FaceId,
    /// Substrate + query round split.
    pub rounds: RoundReport,
}

impl std::fmt::Display for ApproxFlowReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "approx max st-flow = {}/{} ≈ {:.2} ({} rounds)",
            self.value_numer,
            self.denom,
            self.value_numer as f64 / self.denom as f64,
            self.rounds.total()
        )
    }
}

/// Approximate st-planar min-cut witness (paper, Theorem 6.2).
#[derive(Clone, Debug)]
pub struct ApproxCutReport {
    /// The (unquantized) capacity of the cut.
    pub value: Weight,
    /// The cut edges (undirected).
    pub cut_edges: Vec<usize>,
    /// Substrate + query round split.
    pub rounds: RoundReport,
}

impl std::fmt::Display for ApproxCutReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "approx min st-cut = {} ({} cut edges, {} rounds)",
            self.value,
            self.cut_edges.len(),
            self.rounds.total()
        )
    }
}

/// Directed global min-cut witness (paper, Theorem 1.5).
#[derive(Clone, Debug)]
pub struct GlobalCutReport {
    /// The cut weight (edges leaving the `S` side).
    pub value: Weight,
    /// `side[v]` is `true` for vertices of `S`.
    pub side: Vec<bool>,
    /// The primal edges crossing the bisection.
    pub cut_edges: Vec<usize>,
    /// Substrate + query round split.
    pub rounds: RoundReport,
}

impl std::fmt::Display for GlobalCutReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "global min cut = {} ({} cut edges isolate {} vertices, {} rounds)",
            self.value,
            self.cut_edges.len(),
            self.side.iter().filter(|&&b| !b).count(),
            self.rounds.total()
        )
    }
}

/// Weighted-girth witness (paper, Theorem 1.7).
#[derive(Clone, Debug)]
pub struct GirthReport {
    /// The weight of the minimum cycle.
    pub girth: Weight,
    /// The edges of a minimum-weight cycle.
    pub cycle_edges: Vec<usize>,
    /// Substrate + query round split.
    pub rounds: RoundReport,
}

impl std::fmt::Display for GirthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "girth = {} ({}-edge minimum cycle, {} rounds)",
            self.girth,
            self.cycle_edges.len(),
            self.rounds.total()
        )
    }
}

/// One request against a [`PlanarSolver`]: the six operations as plain
/// data, so requests can be stored, deduplicated ([`Hash`]/[`Eq`]) and
/// shipped to [`PlanarSolver::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Query {
    /// Exact maximum st-flow (Theorem 1.2).
    MaxFlow {
        /// Source vertex.
        s: usize,
        /// Sink vertex.
        t: usize,
    },
    /// Exact directed minimum st-cut (Theorem 6.1).
    MinStCut {
        /// Source vertex.
        s: usize,
        /// Sink vertex.
        t: usize,
    },
    /// `(1 − 1/(k+1))`-approximate st-planar max flow (Theorem 1.3);
    /// `eps_inverse = k`, `k = 0` runs the exact-oracle substitution.
    ApproxMaxFlow {
        /// Source vertex.
        s: usize,
        /// Sink vertex.
        t: usize,
        /// `k` of `ε = 1/k` (0: exact oracle).
        eps_inverse: u64,
    },
    /// `(1 + 1/k)`-approximate st-planar min st-cut (Theorem 6.2).
    ApproxMinStCut {
        /// Source vertex.
        s: usize,
        /// Sink vertex.
        t: usize,
        /// `k` of `ε = 1/k` (0: exact oracle).
        eps_inverse: u64,
    },
    /// Directed global minimum cut over the instance weights (Theorem 1.5).
    GlobalMinCut,
    /// Weighted girth over the instance weights (Theorem 1.7).
    Girth,
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Query::MaxFlow { s, t } => write!(f, "max-flow({s} → {t})"),
            Query::MinStCut { s, t } => write!(f, "min-st-cut({s} → {t})"),
            Query::ApproxMaxFlow { s, t, eps_inverse } => {
                write!(f, "approx-max-flow({s} → {t}, 1/ε = {eps_inverse})")
            }
            Query::ApproxMinStCut { s, t, eps_inverse } => {
                write!(f, "approx-min-st-cut({s} → {t}, 1/ε = {eps_inverse})")
            }
            Query::GlobalMinCut => write!(f, "global-min-cut"),
            Query::Girth => write!(f, "girth"),
        }
    }
}

/// The typed result of one [`Query`], wrapping the per-operation report.
/// [`PlanarSolver::run`] always returns the variant matching its query.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Result of [`Query::MaxFlow`].
    MaxFlow(MaxFlowReport),
    /// Result of [`Query::MinStCut`].
    MinStCut(MinCutReport),
    /// Result of [`Query::ApproxMaxFlow`].
    ApproxMaxFlow(ApproxFlowReport),
    /// Result of [`Query::ApproxMinStCut`].
    ApproxMinStCut(ApproxCutReport),
    /// Result of [`Query::GlobalMinCut`].
    GlobalMinCut(GlobalCutReport),
    /// Result of [`Query::Girth`].
    Girth(GirthReport),
}

impl Outcome {
    /// The round split of the wrapped report.
    pub fn rounds(&self) -> &RoundReport {
        match self {
            Outcome::MaxFlow(r) => &r.rounds,
            Outcome::MinStCut(r) => &r.rounds,
            Outcome::ApproxMaxFlow(r) => &r.rounds,
            Outcome::ApproxMinStCut(r) => &r.rounds,
            Outcome::GlobalMinCut(r) => &r.rounds,
            Outcome::Girth(r) => &r.rounds,
        }
    }

    /// The wrapped [`MaxFlowReport`], if this is a max-flow outcome.
    pub fn as_max_flow(&self) -> Option<&MaxFlowReport> {
        match self {
            Outcome::MaxFlow(r) => Some(r),
            _ => None,
        }
    }

    /// The wrapped [`MinCutReport`], if this is a min-st-cut outcome.
    pub fn as_min_st_cut(&self) -> Option<&MinCutReport> {
        match self {
            Outcome::MinStCut(r) => Some(r),
            _ => None,
        }
    }

    /// The wrapped [`ApproxFlowReport`], if this is an approx-flow outcome.
    pub fn as_approx_max_flow(&self) -> Option<&ApproxFlowReport> {
        match self {
            Outcome::ApproxMaxFlow(r) => Some(r),
            _ => None,
        }
    }

    /// The wrapped [`ApproxCutReport`], if this is an approx-cut outcome.
    pub fn as_approx_min_st_cut(&self) -> Option<&ApproxCutReport> {
        match self {
            Outcome::ApproxMinStCut(r) => Some(r),
            _ => None,
        }
    }

    /// The wrapped [`GlobalCutReport`], if this is a global-cut outcome.
    pub fn as_global_min_cut(&self) -> Option<&GlobalCutReport> {
        match self {
            Outcome::GlobalMinCut(r) => Some(r),
            _ => None,
        }
    }

    /// The wrapped [`GirthReport`], if this is a girth outcome.
    pub fn as_girth(&self) -> Option<&GirthReport> {
        match self {
            Outcome::Girth(r) => Some(r),
            _ => None,
        }
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Outcome::MaxFlow(r) => r.fmt(f),
            Outcome::MinStCut(r) => r.fmt(f),
            Outcome::ApproxMaxFlow(r) => r.fmt(f),
            Outcome::ApproxMinStCut(r) => r.fmt(f),
            Outcome::GlobalMinCut(r) => r.fmt(f),
            Outcome::Girth(r) => r.fmt(f),
        }
    }
}

/// The **topology tier** of the substrate: every artifact keyed by the
/// embedding (and the BDD leaf threshold) alone — the hop-diameter
/// [`CostModel`], the embedded dual graph `G*`, and the labeling engine
/// (BDD + dual bags + `F_X`/`S_X` separators). None of these read a
/// capacity or a weight, so *one* `Arc<TopoSubstrate>` serves every spec
/// of the same network: [`PlanarSolver::respec`] shares it (pointer
/// equality, see [`PlanarSolver::topo_substrate`]) and the rounds in its
/// ledger are charged once across the whole respec sweep.
///
/// Thread-safe throughout (`OnceLock` / `Mutex` / atomics); artifacts are
/// built lazily on first use and exactly once.
pub struct TopoSubstrate {
    engine: OnceLock<Arc<DualSsspEngine>>,
    dual: OnceLock<PlanarGraph>,
    cost_model: OnceLock<CostModel>,
    /// Rounds charged while building topology artifacts (one-off per
    /// embedding).
    ledger: Mutex<CostLedger>,
    engine_builds: AtomicU32,
    dual_builds: AtomicU32,
    leaf_threshold: Option<usize>,
    /// The embedding every artifact is built from. The engine shares
    /// this same allocation.
    graph: Arc<PlanarGraph>,
}

impl TopoSubstrate {
    fn new(graph: Arc<PlanarGraph>, leaf_threshold: Option<usize>) -> TopoSubstrate {
        TopoSubstrate {
            engine: OnceLock::new(),
            dual: OnceLock::new(),
            cost_model: OnceLock::new(),
            ledger: Mutex::new(CostLedger::new()),
            engine_builds: AtomicU32::new(0),
            dual_builds: AtomicU32::new(0),
            leaf_threshold,
            graph,
        }
    }

    /// The BDD leaf-threshold override this topology was built with.
    pub fn leaf_threshold(&self) -> Option<usize> {
        self.leaf_threshold
    }

    /// Snapshot of the rounds charged for topology-tier construction.
    pub fn rounds(&self) -> CostLedger {
        self.ledger.lock().expect("topo substrate lock").clone()
    }

    /// The CONGEST cost model (measures the hop diameter on first use; the
    /// BFS-flood charge lands in the topology ledger).
    fn cost_model(&self) -> CostModel {
        *self.cost_model.get_or_init(|| {
            build_phase(&self.ledger, "embed", |ledger| {
                let cm = CostModel::new(self.graph.num_vertices(), self.graph.diameter());
                // Distributedly the diameter estimate is a BFS flood + upcast.
                ledger.charge("substrate-diameter", cm.bfs(cm.d) + cm.global_aggregate());
                cm
            })
        })
    }

    fn engine(&self) -> &Arc<DualSsspEngine> {
        let cm = self.cost_model();
        self.engine.get_or_init(|| {
            self.engine_builds.fetch_add(1, Ordering::Relaxed);
            build_phase(&self.ledger, "bdd", |ledger| {
                Arc::new(DualSsspEngine::new(
                    Arc::clone(&self.graph),
                    &cm,
                    self.leaf_threshold,
                    ledger,
                ))
            })
        })
    }

    fn dual_graph(&self) -> &PlanarGraph {
        let cm = self.cost_model();
        self.dual.get_or_init(|| {
            self.dual_builds.fetch_add(1, Ordering::Relaxed);
            build_phase(&self.ledger, "dual", |ledger| {
                let dual = dual::dual_graph(&self.graph)
                    .expect("the dual of a valid embedding is a valid embedding");
                ledger.charge("substrate-dual", cm.dual_part_wise_aggregation());
                dual
            })
        })
    }
}

/// Runs one substrate build phase against a local ledger, timed under
/// `phase`, then absorbs that ledger into the tier's `ledger` under a
/// short lock. The build never runs with the lock held, so a panicking
/// build cannot poison it: the tier keeps reporting its rounds, and the
/// next build on the same topology or spec retries cleanly. `absorb`
/// appends phases in first-charge order, so totals and the append-only
/// phase order stay what charging in place would give.
fn build_phase<T>(
    ledger: &Mutex<CostLedger>,
    phase: &'static str,
    build: impl FnOnce(&mut CostLedger) -> T,
) -> T {
    let timer = PhaseTimer::start(phase);
    let mut local = CostLedger::new();
    let out = build(&mut local);
    timer.stop(&mut local);
    ledger.lock().expect("substrate ledger lock").absorb(&local);
    out
}

/// The **weight tier** of the substrate: artifacts keyed by the current
/// capacities/weights on top of one topology — today, the dual distance
/// labels at the instance lengths (forward dart = edge weight, reversal
/// free) that the global-cut pipeline consumes. Rebuilt per spec
/// ([`PlanarSolver::respec`] starts a fresh one), amortized across the
/// queries of that spec.
#[derive(Default)]
struct WeightSubstrate {
    labels: OnceLock<DualLabels>,
    /// Rounds charged while building weight-tier artifacts (one-off per
    /// spec).
    ledger: Mutex<CostLedger>,
    label_builds: AtomicU32,
}

impl WeightSubstrate {
    fn rounds(&self) -> CostLedger {
        self.ledger.lock().expect("weight substrate lock").clone()
    }

    /// The cached dual distance labels by `engine` at the instance lengths
    /// (forward dart = edge weight, reversal dart = 0). The labeling
    /// broadcasts are charged to the weight-tier ledger exactly once per
    /// spec.
    fn labels(&self, engine: &Arc<DualSsspEngine>, weights: &[Weight]) -> &DualLabels {
        self.labels.get_or_init(|| {
            self.label_builds.fetch_add(1, Ordering::Relaxed);
            let lengths = build_phase(&self.ledger, "weight-tier", |_| {
                let mut lengths = vec![0; engine.graph.num_darts()];
                for (e, &w) in weights.iter().enumerate() {
                    lengths[Dart::forward(e).index()] = w;
                }
                lengths
            });
            build_phase(&self.ledger, "labeling", |ledger| {
                engine
                    .labels(&lengths, ledger)
                    .expect("non-negative lengths have no negative cycle")
            })
        })
    }
}

/// Estimated heap bytes of a labeling engine: the flat bag/dual vectors
/// are summed exactly from the public fields; the private index maps
/// (`fx_index`, `child_of_node`, separator arcs) are estimated from the
/// node counts they mirror. `O(total bag size)` — proportional to the
/// structure being measured, never to a rebuild.
fn engine_heap_bytes(engine: &DualSsspEngine) -> usize {
    let dart = std::mem::size_of::<Dart>();
    let face = std::mem::size_of::<FaceId>();
    let mut bytes = 0;
    for bag in &engine.bdd.bags {
        bytes += std::mem::size_of_val(bag) + VEC_HEADER;
        bytes += bag.edges.len() * std::mem::size_of::<usize>();
        bytes += bag.children.len() * std::mem::size_of::<usize>();
        bytes += hash_table_bytes(bag.dart_in.len(), dart);
        let dual = &engine.duals[bag.id];
        bytes += std::mem::size_of_val(dual) + VEC_HEADER;
        bytes += dual.nodes.len() * face;
        bytes += hash_table_bytes(dual.node_index.len(), face + std::mem::size_of::<usize>());
        bytes += dual.arcs.len() * std::mem::size_of::<duality_bdd::dual_bags::DualArc>();
        // fx + the fx_index / child_of_node / separator-arc mirrors.
        let fx = engine.fx[bag.id].len();
        bytes += VEC_HEADER + fx * face + hash_table_bytes(fx, face + std::mem::size_of::<usize>());
        bytes += hash_table_bytes(dual.nodes.len(), face + std::mem::size_of::<usize>());
    }
    bytes
}

/// Estimated heap bytes of a built label store, derived from the engine
/// structure the labels mirror: non-leaf bags hold two `|F_X|`-long weight
/// vectors per node, leaf bags hold two `|nodes|`-long APSP rows per node.
fn labels_heap_bytes(engine: &DualSsspEngine) -> usize {
    let w = std::mem::size_of::<Weight>();
    let face = std::mem::size_of::<FaceId>();
    let mut bytes = 0;
    for bag in &engine.bdd.bags {
        let nodes = engine.duals[bag.id].nodes.len();
        if bag.is_leaf() {
            // leaf_apsp: (row, col) weight vectors per node.
            bytes += hash_table_bytes(nodes, face + 2 * VEC_HEADER) + nodes * 2 * nodes * w;
        } else {
            let fx = engine.fx[bag.id].len();
            // to_fx + from_fx: one |F_X|-long vector per node each.
            bytes += 2 * (hash_table_bytes(nodes, face + VEC_HEADER) + nodes * fx * w);
        }
        // label_words: one u64 per node.
        bytes += hash_table_bytes(nodes, face + std::mem::size_of::<u64>());
    }
    bytes
}

impl HeapSize for TopoSubstrate {
    /// The graph (exact; the engine shares this allocation, so it is
    /// billed once) plus whatever topology artifacts have been built so
    /// far: the dual graph (exact) and the labeling engine (estimated —
    /// see [`crate::heap_size`]). Lazily built artifacts that do not exist
    /// yet cost nothing, so a substrate's bill grows as it warms up.
    fn heap_bytes(&self) -> usize {
        let mut bytes = self.graph.heap_bytes();
        if let Some(dual) = self.dual.get() {
            bytes += dual.heap_bytes() + std::mem::size_of::<PlanarGraph>();
        }
        if let Some(engine) = self.engine.get() {
            bytes += engine_heap_bytes(engine);
        }
        bytes
    }
}

impl WeightSubstrate {
    /// Estimated heap bytes of this tier's own artifacts (the label
    /// store); the shared topology tier is billed by its holder.
    fn heap_bytes(&self) -> usize {
        match self.labels.get() {
            Some(labels) => labels_heap_bytes(labels.engine()),
            None => 0,
        }
    }
}

impl HeapSize for PlanarSolver {
    /// The full residency bill of one cached solver: instance + topology
    /// tier + weight tier. Shared structure (the graph `Arc`, a respec'd
    /// `Arc<TopoSubstrate>`) is billed per holder — a deliberate upper
    /// bound; see [`crate::heap_size`].
    fn heap_bytes(&self) -> usize {
        self.shared.instance.heap_bytes()
            + self.shared.topo.heap_bytes()
            + self.shared.weight.heap_bytes()
    }
}

/// The state one solver and all its clones share: the owned instance, the
/// two substrate tiers and the query counter. Thread-safe throughout.
struct SolverShared {
    /// Per-spec weight tier.
    weight: WeightSubstrate,
    /// Shared topology tier — `respec` clones this `Arc` into the new
    /// solver instead of rebuilding.
    topo: Arc<TopoSubstrate>,
    queries: AtomicU32,
    instance: Arc<PlanarInstance>,
}

/// The unified façade over the paper's five results, with the expensive
/// shared substrate built once and cached (see the module docs).
///
/// The solver **owns** its instance ([`Arc<PlanarInstance>`]), is
/// `Send + Sync`, and `Clone` is `O(1)`: clones share the instance, the
/// cached substrate and the build counters, so a solver can be handed to
/// worker threads and queried concurrently — the substrate is still built
/// exactly once.
#[derive(Clone)]
pub struct PlanarSolver {
    shared: Arc<SolverShared>,
}

impl std::fmt::Debug for PlanarSolver {
    // Manual impl: the cached engine holds the whole BDD, which would
    // flood debug output (and does not implement `Debug`); report the
    // instance shape and cache state instead.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanarSolver")
            .field("vertices", &self.graph().num_vertices())
            .field("edges", &self.graph().num_edges())
            .field("leaf_threshold", &self.shared.topo.leaf_threshold)
            .field("engine_cached", &self.shared.topo.engine.get().is_some())
            .field("dual_cached", &self.shared.topo.dual.get().is_some())
            .field("labels_cached", &self.shared.weight.labels.get().is_some())
            .field("stats", &self.stats())
            .finish()
    }
}

impl PlanarSolver {
    /// Starts building a solver over `graph` (cloned into the owned
    /// instance at `build()`).
    pub fn builder(graph: &PlanarGraph) -> SolverBuilder<'_> {
        SolverBuilder {
            graph,
            capacities: None,
            edge_weights: None,
            leaf_threshold: None,
        }
    }

    /// Wraps an already-validated shared instance (no copy, no
    /// re-validation) with the default leaf threshold.
    pub fn from_instance(instance: Arc<PlanarInstance>) -> PlanarSolver {
        Self::new_shared(instance, None)
    }

    /// Wraps an already-validated shared instance with a leaf-threshold
    /// override.
    ///
    /// # Errors
    ///
    /// [`DualityError::BadLeafThreshold`] when the threshold is below
    /// [`MIN_LEAF_THRESHOLD`].
    pub fn from_instance_with_threshold(
        instance: Arc<PlanarInstance>,
        leaf_threshold: Option<usize>,
    ) -> Result<PlanarSolver, DualityError> {
        if let Some(t) = leaf_threshold {
            if t < MIN_LEAF_THRESHOLD {
                return Err(DualityError::BadLeafThreshold { got: t });
            }
        }
        Ok(Self::new_shared(instance, leaf_threshold))
    }

    fn new_shared(instance: Arc<PlanarInstance>, leaf_threshold: Option<usize>) -> PlanarSolver {
        let topo = Arc::new(TopoSubstrate::new(
            Arc::clone(instance.graph_arc()),
            leaf_threshold,
        ));
        Self::over_substrate(instance, topo)
    }

    fn over_substrate(instance: Arc<PlanarInstance>, topo: Arc<TopoSubstrate>) -> PlanarSolver {
        PlanarSolver {
            shared: Arc::new(SolverShared {
                weight: WeightSubstrate::default(),
                topo,
                queries: AtomicU32::new(0),
                instance,
            }),
        }
    }

    /// Re-specs the solver onto `instance` — same topology, new
    /// capacities/weights — returning a new solver that **shares this
    /// solver's `Arc<TopoSubstrate>`** (hop diameter, dual graph, BDD +
    /// dual bags: everything keyed by the embedding) and rebuilds only the
    /// weight tier. Across a K-scenario sweep the topology rounds are
    /// therefore charged once; each report's `substrate_weight` share
    /// carries the per-spec rebuild.
    ///
    /// The instance must share the original graph allocation — build it
    /// with [`PlanarInstance::with_capacities`] /
    /// [`PlanarInstance::with_edge_weights`] (or
    /// [`PlanarInstance::from_shared`] over the same `Arc`).
    ///
    /// # Errors
    ///
    /// [`DualityError::TopologyMismatch`] when `instance` does not share
    /// this solver's graph allocation (`Arc::ptr_eq`): an equal-looking
    /// graph from a different allocation gets a fresh solver, not a shared
    /// substrate.
    ///
    /// # Example
    ///
    /// ```
    /// use duality_core::solver::PlanarSolver;
    /// use duality_planar::gen;
    /// use std::sync::Arc;
    ///
    /// let g = gen::diag_grid(4, 4, 7).unwrap();
    /// let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 7);
    /// let solver = PlanarSolver::builder(&g).capacities(caps).build().unwrap();
    /// let base = solver.max_flow(0, 15).unwrap();
    ///
    /// // Same network, doubled line ratings: the BDD is not rebuilt.
    /// let doubled: Vec<i64> = solver.capacities().iter().map(|&c| 2 * c).collect();
    /// let respecced = solver.respec_capacities(doubled).unwrap();
    /// assert!(Arc::ptr_eq(solver.topo_substrate(), respecced.topo_substrate()));
    /// assert_eq!(respecced.max_flow(0, 15).unwrap().value, 2 * base.value);
    /// assert_eq!(respecced.stats().engine_builds, 1, "shared, not rebuilt");
    /// ```
    pub fn respec(&self, instance: Arc<PlanarInstance>) -> Result<PlanarSolver, DualityError> {
        if !Arc::ptr_eq(instance.graph_arc(), &self.shared.topo.graph) {
            return Err(DualityError::TopologyMismatch);
        }
        Ok(Self::over_substrate(
            instance,
            Arc::clone(&self.shared.topo),
        ))
    }

    /// [`PlanarSolver::respec`] with new per-dart capacities (weights kept
    /// as they are) — copy-on-write via
    /// [`PlanarInstance::with_capacities`].
    ///
    /// # Errors
    ///
    /// [`DualityError::CapacityLengthMismatch`] /
    /// [`DualityError::NegativeCapacity`] on an invalid vector.
    pub fn respec_capacities(&self, capacities: Vec<Weight>) -> Result<PlanarSolver, DualityError> {
        self.respec(self.shared.instance.with_capacities(capacities)?)
    }

    /// [`PlanarSolver::respec`] with new per-edge weights (capacities kept
    /// as they are) — copy-on-write via
    /// [`PlanarInstance::with_edge_weights`].
    ///
    /// # Errors
    ///
    /// [`DualityError::WeightLengthMismatch`] /
    /// [`DualityError::NegativeWeight`] on an invalid vector.
    pub fn respec_edge_weights(&self, weights: Vec<Weight>) -> Result<PlanarSolver, DualityError> {
        self.respec(self.shared.instance.with_edge_weights(weights)?)
    }

    /// The shared topology tier. Two solvers related by
    /// [`PlanarSolver::respec`] return the *same* `Arc` here
    /// (`Arc::ptr_eq`) — the auditable witness that the dual graph, BDD
    /// and dual bags were reused rather than rebuilt.
    pub fn topo_substrate(&self) -> &Arc<TopoSubstrate> {
        &self.shared.topo
    }

    /// The shared instance (graph + capacities + weights).
    pub fn instance(&self) -> &Arc<PlanarInstance> {
        &self.shared.instance
    }

    /// The underlying graph.
    pub fn graph(&self) -> &PlanarGraph {
        self.shared.instance.graph()
    }

    /// The validated per-dart capacities.
    pub fn capacities(&self) -> &[Weight] {
        self.shared.instance.capacities()
    }

    /// The validated per-edge weights.
    pub fn edge_weights(&self) -> &[Weight] {
        self.shared.instance.edge_weights()
    }

    /// Build counters (cache-reuse evidence), shared with every clone;
    /// the engine/dual counters are shared with every respec too.
    pub fn stats(&self) -> SolverStats {
        SolverStats {
            engine_builds: self.shared.topo.engine_builds.load(Ordering::Relaxed),
            dual_builds: self.shared.topo.dual_builds.load(Ordering::Relaxed),
            label_builds: self.shared.weight.label_builds.load(Ordering::Relaxed),
            queries: self.shared.queries.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the rounds charged for substrate construction so far,
    /// both tiers flattened (topology phases first). Use
    /// [`PlanarSolver::substrate_topo_rounds`] /
    /// [`PlanarSolver::substrate_weight_rounds`] for the per-tier split.
    pub fn substrate_rounds(&self) -> CostLedger {
        let mut out = self.shared.topo.rounds();
        out.absorb(&self.shared.weight.rounds());
        out
    }

    /// Snapshot of the topology tier's ledger (charged once per embedding,
    /// shared across respecs).
    pub fn substrate_topo_rounds(&self) -> CostLedger {
        self.shared.topo.rounds()
    }

    /// Snapshot of the weight tier's ledger (charged once per spec,
    /// rebuilt on respec).
    pub fn substrate_weight_rounds(&self) -> CostLedger {
        self.shared.weight.rounds()
    }

    /// The CONGEST cost model (measures the hop diameter on first use; the
    /// BFS-flood charge lands in the topology ledger).
    pub fn cost_model(&self) -> CostModel {
        self.shared.topo.cost_model()
    }

    /// The weight tier's cached dual distance labels at the instance
    /// lengths, built on first use with the labeling broadcasts charged to
    /// the weight ledger (once per spec — the global-cut query's biggest
    /// share, amortized across repeats and rebuilt on respec). The
    /// topology tier is charged first, in build order.
    fn weight_labels(&self) -> &DualLabels {
        self.shared
            .weight
            .labels(self.labeling_engine(), self.edge_weights())
    }

    /// The cached labeling engine (BDD + dual bags + separators), built on
    /// first use with its `Õ(D)`-per-level charges in the topology ledger.
    /// Lets power users run custom dual labelings (e.g.
    /// [`duality_labeling::sssp::dual_sssp`]) against the same substrate
    /// the flow/cut queries amortize. The engine is owned data: clone the
    /// `Arc` to keep it beyond the solver.
    pub fn labeling_engine(&self) -> &Arc<DualSsspEngine> {
        self.shared.topo.engine()
    }

    /// The cached embedded dual graph `G*`.
    pub fn dual_graph(&self) -> &PlanarGraph {
        self.shared.topo.dual_graph()
    }

    fn check_endpoints(&self, s: usize, t: usize) -> Result<(), DualityError> {
        let n = self.graph().num_vertices();
        if s == t || s >= n || t >= n {
            return Err(DualityError::BadEndpoints { s, t, n });
        }
        Ok(())
    }

    fn check_undirected(&self) -> Result<(), DualityError> {
        let caps = self.capacities();
        for e in 0..self.graph().num_edges() {
            if caps[2 * e] != caps[2 * e + 1] {
                return Err(DualityError::NotUndirected);
            }
        }
        Ok(())
    }

    /// `1/ε` at most [`MAX_EPS_INVERSE`], and small enough that
    /// `eps_inverse × (4 × capacity total + 2)`, the bound on Hassin's flow
    /// numerators, stays within `i64`.
    fn check_eps_inverse(&self, eps_inverse: u64) -> Result<(), DualityError> {
        let total: i128 = self.capacities().iter().map(|&c| i128::from(c)).sum();
        let numerators = i128::from(i64::MAX) / (4 * total + 2);
        let limit = u64::try_from(numerators.min(i128::from(MAX_EPS_INVERSE)))
            .expect("capacities are non-negative, so the limit is in 0..=2^16");
        if eps_inverse > limit {
            return Err(DualityError::EpsilonTooFine { eps_inverse, limit });
        }
        Ok(())
    }

    /// The validation preamble of one query, with no substrate side
    /// effects: a query that fails it builds and bills nothing.
    fn precheck(&self, query: Query) -> Result<(), DualityError> {
        match query {
            Query::MaxFlow { s, t } | Query::MinStCut { s, t } => self.check_endpoints(s, t),
            Query::ApproxMaxFlow { s, t, eps_inverse }
            | Query::ApproxMinStCut { s, t, eps_inverse } => {
                self.check_endpoints(s, t)?;
                self.check_undirected()?;
                self.check_eps_inverse(eps_inverse)
            }
            Query::GlobalMinCut => {
                if self.graph().num_vertices() < 2 {
                    return Err(DualityError::TooSmall {
                        needed: 2,
                        vertices: self.graph().num_vertices(),
                    });
                }
                Ok(())
            }
            Query::Girth => {
                if let Some(e) = self.edge_weights().iter().position(|&w| w <= 0) {
                    return Err(DualityError::NonPositiveWeight { edge: e });
                }
                Ok(())
            }
        }
    }

    fn report(&self, query: CostLedger) -> RoundReport {
        self.shared.queries.fetch_add(1, Ordering::Relaxed);
        RoundReport {
            substrate_topo: self.shared.topo.rounds(),
            substrate_weight: self.shared.weight.rounds(),
            query,
        }
    }

    /// Executes one typed [`Query`], returning the matching [`Outcome`]
    /// variant. The classic inherent methods are thin wrappers over this.
    ///
    /// # Errors
    ///
    /// The union of the per-query error conditions — see the individual
    /// methods ([`PlanarSolver::max_flow`], …).
    pub fn run(&self, query: Query) -> Result<Outcome, DualityError> {
        match query {
            Query::MaxFlow { s, t } => self.run_max_flow(s, t).map(Outcome::MaxFlow),
            Query::MinStCut { s, t } => self.run_min_st_cut(s, t).map(Outcome::MinStCut),
            Query::ApproxMaxFlow { s, t, eps_inverse } => self
                .run_approx_max_flow(s, t, eps_inverse)
                .map(Outcome::ApproxMaxFlow),
            Query::ApproxMinStCut { s, t, eps_inverse } => self
                .run_approx_min_st_cut(s, t, eps_inverse)
                .map(Outcome::ApproxMinStCut),
            Query::GlobalMinCut => self.run_global_min_cut().map(Outcome::GlobalMinCut),
            Query::Girth => self.run_girth().map(Outcome::Girth),
        }
    }

    /// Exact maximum st-flow (Theorem 1.2, `Õ(D²)` rounds; the engine
    /// share is amortized). Thin wrapper over [`PlanarSolver::run`].
    ///
    /// # Errors
    ///
    /// [`DualityError::BadEndpoints`] if `s == t` or out of range.
    pub fn max_flow(&self, s: usize, t: usize) -> Result<MaxFlowReport, DualityError> {
        match self.run(Query::MaxFlow { s, t })? {
            Outcome::MaxFlow(r) => Ok(r),
            _ => unreachable!("run(MaxFlow) yields Outcome::MaxFlow"),
        }
    }

    /// Exact directed minimum st-cut (Theorem 6.1). Thin wrapper over
    /// [`PlanarSolver::run`].
    ///
    /// # Errors
    ///
    /// [`DualityError::BadEndpoints`] if `s == t` or out of range.
    pub fn min_st_cut(&self, s: usize, t: usize) -> Result<MinCutReport, DualityError> {
        match self.run(Query::MinStCut { s, t })? {
            Outcome::MinStCut(r) => Ok(r),
            _ => unreachable!("run(MinStCut) yields Outcome::MinStCut"),
        }
    }

    /// `(1 − 1/(k+1))`-approximate max st-flow for undirected st-planar
    /// instances (Theorem 1.3, `D·n^{o(1)}` rounds); `eps_inverse = k`,
    /// `k = 0` runs the exact-oracle substitution. Thin wrapper over
    /// [`PlanarSolver::run`].
    ///
    /// # Errors
    ///
    /// [`DualityError::BadEndpoints`], [`DualityError::NotUndirected`] on
    /// asymmetric capacities, [`DualityError::EpsilonTooFine`] when
    /// `eps_inverse` is past `2^16` or the instance's own bound,
    /// [`DualityError::NotStPlanar`] when `s`, `t` share no face.
    pub fn approx_max_flow(
        &self,
        s: usize,
        t: usize,
        eps_inverse: u64,
    ) -> Result<ApproxFlowReport, DualityError> {
        match self.run(Query::ApproxMaxFlow { s, t, eps_inverse })? {
            Outcome::ApproxMaxFlow(r) => Ok(r),
            _ => unreachable!("run(ApproxMaxFlow) yields Outcome::ApproxMaxFlow"),
        }
    }

    /// `(1+1/k)`-approximate minimum st-cut for undirected st-planar
    /// instances (Theorem 6.2), via Reif's st-separating dual cycle. Thin
    /// wrapper over [`PlanarSolver::run`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`PlanarSolver::approx_max_flow`].
    pub fn approx_min_st_cut(
        &self,
        s: usize,
        t: usize,
        eps_inverse: u64,
    ) -> Result<ApproxCutReport, DualityError> {
        match self.run(Query::ApproxMinStCut { s, t, eps_inverse })? {
            Outcome::ApproxMinStCut(r) => Ok(r),
            _ => unreachable!("run(ApproxMinStCut) yields Outcome::ApproxMinStCut"),
        }
    }

    /// Directed global minimum cut (Theorem 1.5), over the solver's
    /// per-edge weights (reversal darts are free). Thin wrapper over
    /// [`PlanarSolver::run`].
    ///
    /// # Errors
    ///
    /// [`DualityError::TooSmall`] when the graph has fewer than two
    /// vertices.
    pub fn global_min_cut(&self) -> Result<GlobalCutReport, DualityError> {
        match self.run(Query::GlobalMinCut)? {
            Outcome::GlobalMinCut(r) => Ok(r),
            _ => unreachable!("run(GlobalMinCut) yields Outcome::GlobalMinCut"),
        }
    }

    /// Weighted girth (Theorem 1.7, `Õ(D)` rounds), over the solver's
    /// per-edge weights (must be positive). Runs on the cached dual graph.
    /// Thin wrapper over [`PlanarSolver::run`].
    ///
    /// # Errors
    ///
    /// [`DualityError::NonPositiveWeight`] on a zero weight,
    /// [`DualityError::Acyclic`] when the instance has no cycle.
    pub fn girth(&self) -> Result<GirthReport, DualityError> {
        match self.run(Query::Girth)? {
            Outcome::Girth(r) => Ok(r),
            _ => unreachable!("run(Girth) yields Outcome::Girth"),
        }
    }

    fn run_max_flow(&self, s: usize, t: usize) -> Result<MaxFlowReport, DualityError> {
        self.precheck(Query::MaxFlow { s, t })?;
        let cm = self.cost_model();
        let engine = self.labeling_engine();
        let mut query = CostLedger::new();
        let (value, flow, probes) =
            max_flow::run_max_flow(engine, &cm, self.capacities(), s, t, &mut query);
        Ok(MaxFlowReport {
            value,
            flow,
            probes,
            rounds: self.report(query),
        })
    }

    fn run_min_st_cut(&self, s: usize, t: usize) -> Result<MinCutReport, DualityError> {
        self.precheck(Query::MinStCut { s, t })?;
        let cm = self.cost_model();
        let engine = self.labeling_engine();
        let mut query = CostLedger::new();
        let (value, side, cut_darts) =
            st_cut::run_exact_cut(engine, &cm, self.capacities(), s, t, &mut query);
        Ok(MinCutReport {
            value,
            side,
            cut_darts,
            rounds: self.report(query),
        })
    }

    fn run_approx_max_flow(
        &self,
        s: usize,
        t: usize,
        eps_inverse: u64,
    ) -> Result<ApproxFlowReport, DualityError> {
        self.precheck(Query::ApproxMaxFlow { s, t, eps_inverse })?;
        let cm = self.cost_model();
        let mut query = CostLedger::new();
        let out = approx_flow::run_approx_flow(
            self.graph(),
            &cm,
            self.capacities(),
            s,
            t,
            eps_inverse,
            &mut query,
        )?;
        Ok(ApproxFlowReport {
            value_numer: out.value_numer,
            denom: out.denom,
            flow_numer: out.flow_numer,
            f1: out.f1,
            f2: out.f2,
            rounds: self.report(query),
        })
    }

    fn run_approx_min_st_cut(
        &self,
        s: usize,
        t: usize,
        eps_inverse: u64,
    ) -> Result<ApproxCutReport, DualityError> {
        self.precheck(Query::ApproxMinStCut { s, t, eps_inverse })?;
        let cm = self.cost_model();
        let mut query = CostLedger::new();
        let (value, cut_edges) = st_cut::run_approx_cut(
            self.graph(),
            &cm,
            self.capacities(),
            s,
            t,
            eps_inverse,
            &mut query,
        )?;
        Ok(ApproxCutReport {
            value,
            cut_edges,
            rounds: self.report(query),
        })
    }

    fn run_global_min_cut(&self) -> Result<GlobalCutReport, DualityError> {
        self.precheck(Query::GlobalMinCut)?;
        let cm = self.cost_model();
        // The labels at the instance lengths are a weight-tier artifact:
        // computed once per spec (charged there), reused by every repeat
        // of this query, rebuilt on respec.
        let labels = self.weight_labels();
        let mut query = CostLedger::new();
        let (value, side, cut_edges) =
            global_cut::run_global_cut(labels, &cm, self.edge_weights(), &mut query);
        Ok(GlobalCutReport {
            value,
            side,
            cut_edges,
            rounds: self.report(query),
        })
    }

    fn run_girth(&self) -> Result<GirthReport, DualityError> {
        self.precheck(Query::Girth)?;
        let cm = self.cost_model();
        // The girth pipeline is phrased on G*: consume the cached dual.
        let dual = self.dual_graph();
        let mut query = CostLedger::new();
        let (girth, cycle_edges) =
            girth::run_girth_on_dual(self.graph(), dual, &cm, self.edge_weights(), &mut query)
                .ok_or(DualityError::Acyclic)?;
        Ok(GirthReport {
            girth,
            cycle_edges,
            rounds: self.report(query),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duality_baselines::cuts::planar_directed_min_cut_reference;
    use duality_baselines::flow::planar_max_flow_reference;
    use duality_baselines::girth::planar_weighted_girth;
    use duality_planar::gen;

    fn grid_solver(g: &PlanarGraph, seed: u64) -> PlanarSolver {
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, seed);
        PlanarSolver::builder(g).capacities(caps).build().unwrap()
    }

    #[test]
    fn a_panicking_build_leaves_its_ledger_usable() {
        let ledger = Mutex::new(CostLedger::new());
        let failed = std::panic::catch_unwind(|| {
            build_phase(&ledger, "bdd", |local| {
                local.charge("bdd-partial", 5);
                panic!("injected build failure")
            })
        });
        assert!(failed.is_err());
        assert!(!ledger.is_poisoned(), "the build ran outside the lock");
        build_phase(&ledger, "dual", |local| local.charge("substrate-dual", 7));
        let ledger = ledger.lock().unwrap();
        assert_eq!(ledger.total(), 7, "only the completed build is charged");
        assert_eq!(ledger.phase_total("substrate-dual"), 7);
        assert_eq!(ledger.phases_us().len(), 1);
        assert_eq!(ledger.phases_us()[0].0, "dual", "its phase µs are charged");
    }

    #[test]
    fn builder_validates_once() {
        let g = gen::grid(3, 3).unwrap();
        assert!(matches!(
            PlanarSolver::builder(&g).build(),
            Err(DualityError::MissingInput)
        ));
        assert!(matches!(
            PlanarSolver::builder(&g).capacities(vec![1; 3]).build(),
            Err(DualityError::CapacityLengthMismatch { .. })
        ));
        let mut caps = vec![1; g.num_darts()];
        caps[5] = -2;
        assert_eq!(
            PlanarSolver::builder(&g).capacities(caps).build().err(),
            Some(DualityError::NegativeCapacity { dart: 5 })
        );
        assert!(matches!(
            PlanarSolver::builder(&g).edge_weights(vec![1; 2]).build(),
            Err(DualityError::WeightLengthMismatch { .. })
        ));
        assert_eq!(
            PlanarSolver::builder(&g)
                .edge_weights(vec![-1; g.num_edges()])
                .build()
                .err(),
            Some(DualityError::NegativeWeight { edge: 0 })
        );
    }

    #[test]
    fn leaf_threshold_is_validated_at_build() {
        let g = gen::grid(3, 3).unwrap();
        for bad in [0usize, 1] {
            assert_eq!(
                PlanarSolver::builder(&g)
                    .capacities(vec![1; g.num_darts()])
                    .with_leaf_threshold(Some(bad))
                    .build()
                    .err(),
                Some(DualityError::BadLeafThreshold { got: bad })
            );
        }
        // The boundary value and the default pass.
        for ok in [Some(MIN_LEAF_THRESHOLD), None] {
            assert!(PlanarSolver::builder(&g)
                .capacities(vec![1; g.num_darts()])
                .with_leaf_threshold(ok)
                .build()
                .is_ok());
        }
    }

    #[test]
    fn capacities_derive_weights_and_vice_versa() {
        let g = gen::grid(3, 3).unwrap();
        let caps = gen::random_directed_capacities(g.num_edges(), 1, 5, 3);
        let s = PlanarSolver::builder(&g)
            .capacities(caps.clone())
            .build()
            .unwrap();
        for e in 0..g.num_edges() {
            assert_eq!(s.edge_weights()[e], caps[2 * e]);
        }
        let w = gen::random_edge_weights(g.num_edges(), 1, 5, 4);
        let s = PlanarSolver::builder(&g)
            .edge_weights(w.clone())
            .build()
            .unwrap();
        for e in 0..g.num_edges() {
            assert_eq!(s.capacities()[2 * e], w[e]);
            assert_eq!(s.capacities()[2 * e + 1], 0);
        }
    }

    #[test]
    fn substrate_is_built_exactly_once_across_distinct_queries() {
        let g = gen::diag_grid(5, 4, 2).unwrap();
        let solver = grid_solver(&g, 2);
        assert_eq!(solver.stats(), SolverStats::default());

        let t = g.num_vertices() - 1;
        let flow = solver.max_flow(0, t).unwrap();
        let cut = solver.min_st_cut(0, t).unwrap();
        let global = solver.global_min_cut().unwrap();
        let girth = solver.girth().unwrap();
        assert!(flow.value > 0 && cut.value == flow.value);
        assert!(global.value >= 0 && girth.girth > 0);

        let stats = solver.stats();
        assert_eq!(stats.engine_builds, 1, "one BDD for three engine queries");
        assert_eq!(stats.dual_builds, 1, "one dual graph");
        assert_eq!(stats.queries, 4);

        // Substrate charges did not grow after the first engine build…
        let substrate_after = solver.substrate_rounds().total();
        let _ = solver.max_flow(0, t).unwrap();
        assert_eq!(solver.substrate_rounds().total(), substrate_after);
        assert_eq!(solver.stats().engine_builds, 1);
    }

    #[test]
    fn clones_share_instance_and_caches() {
        let g = gen::diag_grid(5, 4, 8).unwrap();
        let solver = grid_solver(&g, 8);
        let clone = solver.clone();
        let t = g.num_vertices() - 1;
        let a = solver.max_flow(0, t).unwrap();
        let b = clone.max_flow(0, t).unwrap();
        assert_eq!(a.value, b.value);
        // One engine across both handles; both queries counted centrally.
        assert_eq!(solver.stats().engine_builds, 1);
        assert_eq!(clone.stats().queries, 2);
        assert!(Arc::ptr_eq(solver.instance(), clone.instance()));
    }

    #[test]
    fn solvers_can_share_one_instance_without_copying() {
        let g = gen::diag_grid(4, 4, 5).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 5);
        let instance = PlanarInstance::new(g, Some(caps), None).unwrap();
        let a = PlanarSolver::from_instance(Arc::clone(&instance));
        let b = PlanarSolver::from_instance_with_threshold(Arc::clone(&instance), Some(8)).unwrap();
        let t = instance.graph().num_vertices() - 1;
        assert_eq!(
            a.max_flow(0, t).unwrap().value,
            b.max_flow(0, t).unwrap().value
        );
        assert_eq!(
            PlanarSolver::from_instance_with_threshold(instance, Some(1)).err(),
            Some(DualityError::BadLeafThreshold { got: 1 })
        );
    }

    #[test]
    fn repeat_queries_pay_only_marginal_rounds() {
        let g = gen::diag_grid(5, 5, 9).unwrap();
        let solver = grid_solver(&g, 9);
        let t = g.num_vertices() - 1;
        let first = solver.max_flow(0, t).unwrap();
        let second = solver.max_flow(0, t).unwrap();
        // Identical marginal cost, identical substrate snapshot.
        assert_eq!(first.rounds.query_total(), second.rounds.query_total());
        assert_eq!(
            first.rounds.substrate_total(),
            second.rounds.substrate_total()
        );
        // The marginal cost excludes the BDD build, which is charged to
        // the topology tier (never the weight tier).
        assert_eq!(second.rounds.query.phase_total("bdd-build"), 0);
        assert!(second.rounds.substrate_topo.phase_total("bdd-build") > 0);
        assert_eq!(second.rounds.substrate_weight.phase_total("bdd-build"), 0);
    }

    #[test]
    fn agrees_with_baseline_references() {
        for seed in 0..3u64 {
            let g = gen::diag_grid(4, 4, seed).unwrap();
            let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, seed + 20);
            let w = gen::random_edge_weights(g.num_edges(), 1, 9, seed + 40);
            let solver = PlanarSolver::builder(&g)
                .capacities(caps.clone())
                .edge_weights(w.clone())
                .build()
                .unwrap();
            let t = g.num_vertices() - 1;

            let got = solver.max_flow(0, t).unwrap();
            assert_eq!(got.value, planar_max_flow_reference(&g, &caps, 0, t));
            crate::verify::assert_valid_flow(&g, &caps, &got.flow, 0, t, got.value);

            let gotc = solver.global_min_cut().unwrap();
            assert_eq!(Some(gotc.value), planar_directed_min_cut_reference(&g, &w));

            let gotg = solver.girth().unwrap();
            assert_eq!(Some(gotg.girth), planar_weighted_girth(&g, &w));
        }
    }

    #[test]
    fn approx_queries_work_and_validate() {
        let g = gen::grid(5, 4).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 3);
        let solver = PlanarSolver::builder(&g).capacities(caps).build().unwrap();
        let r = solver.approx_max_flow(0, 4, 2).unwrap();
        assert!(r.value_numer > 0);
        let c = solver.approx_min_st_cut(0, 4, 2).unwrap();
        // Weak duality, cross-multiplied to stay in exact integers.
        assert!(c.value * r.denom >= r.value_numer);

        // Asymmetric capacities are rejected.
        let dcaps = gen::random_directed_capacities(g.num_edges(), 1, 9, 3);
        let dsolver = PlanarSolver::builder(&g).capacities(dcaps).build().unwrap();
        assert_eq!(
            dsolver.approx_max_flow(0, 4, 2).err(),
            Some(DualityError::NotUndirected)
        );
        // Non-st-planar pairs are rejected with the endpoints attached.
        let g5 = gen::grid(5, 5).unwrap();
        let caps5 = gen::random_undirected_capacities(g5.num_edges(), 1, 9, 1);
        let s5 = PlanarSolver::builder(&g5)
            .capacities(caps5)
            .build()
            .unwrap();
        assert_eq!(
            s5.approx_max_flow(0, 12, 0).err(),
            Some(DualityError::NotStPlanar { s: 0, t: 12 })
        );
    }

    #[test]
    fn endpoint_and_instance_errors() {
        let g = gen::grid(3, 3).unwrap();
        let solver = grid_solver(&g, 1);
        assert_eq!(
            solver.max_flow(2, 2).err(),
            Some(DualityError::BadEndpoints { s: 2, t: 2, n: 9 })
        );
        assert_eq!(
            solver.min_st_cut(0, 100).err(),
            Some(DualityError::BadEndpoints { s: 0, t: 100, n: 9 })
        );
        // Zero weights: girth needs positive ones.
        let zs = PlanarSolver::builder(&g)
            .edge_weights(vec![0; g.num_edges()])
            .build()
            .unwrap();
        assert_eq!(
            zs.girth().err(),
            Some(DualityError::NonPositiveWeight { edge: 0 })
        );
        // Acyclic instance.
        let p = gen::path(5).unwrap();
        let ps = PlanarSolver::builder(&p)
            .edge_weights(vec![3; p.num_edges()])
            .build()
            .unwrap();
        assert_eq!(ps.girth().err(), Some(DualityError::Acyclic));
    }

    #[test]
    fn girth_uses_the_cached_dual() {
        let g = gen::grid(4, 4).unwrap();
        let solver = PlanarSolver::builder(&g)
            .edge_weights(vec![1; g.num_edges()])
            .build()
            .unwrap();
        let a = solver.girth().unwrap();
        let b = solver.girth().unwrap();
        assert_eq!(a.girth, 4);
        assert_eq!(a.girth, b.girth);
        assert_eq!(solver.stats().dual_builds, 1);
        assert_eq!(solver.stats().engine_builds, 0, "girth never needs the BDD");
        // The dual is a real embedded graph with swapped counts.
        let d = solver.dual_graph();
        assert_eq!(d.num_vertices(), g.num_faces());
        assert_eq!(d.num_faces(), g.num_vertices());
    }

    #[test]
    fn run_dispatches_to_the_matching_outcome() {
        let g = gen::diag_grid(4, 4, 6).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 6);
        let solver = PlanarSolver::builder(&g).capacities(caps).build().unwrap();
        let t = g.num_vertices() - 1;
        let queries = [
            Query::MaxFlow { s: 0, t },
            Query::MinStCut { s: 0, t },
            Query::GlobalMinCut,
            Query::Girth,
        ];
        for q in queries {
            let outcome = solver.run(q).unwrap();
            let ok = matches!(
                (q, &outcome),
                (Query::MaxFlow { .. }, Outcome::MaxFlow(_))
                    | (Query::MinStCut { .. }, Outcome::MinStCut(_))
                    | (Query::GlobalMinCut, Outcome::GlobalMinCut(_))
                    | (Query::Girth, Outcome::Girth(_))
            );
            assert!(ok, "{q} produced a mismatched outcome");
            assert!(!outcome.to_string().is_empty());
        }
    }

    #[test]
    fn invalid_queries_build_and_bill_nothing() {
        let g = gen::grid(3, 3).unwrap();
        let solver = grid_solver(&g, 6);
        // A query failing validation builds nothing and bills nothing.
        for q in [
            Query::MaxFlow { s: 0, t: 0 },
            Query::MinStCut { s: 0, t: 99 },
        ] {
            assert!(matches!(
                solver.run(q),
                Err(DualityError::BadEndpoints { .. })
            ));
        }
        assert_eq!(solver.stats(), SolverStats::default(), "nothing built");
        assert_eq!(solver.substrate_rounds().total(), 0, "nothing billed");

        // A valid query then builds only its own substrate: girth needs
        // the dual, never the engine.
        assert!(solver.run(Query::Girth).is_ok());
        assert_eq!(solver.stats().engine_builds, 0, "engine not built");
        assert_eq!(solver.stats().dual_builds, 1);
    }

    #[test]
    fn respec_shares_the_topology_tier_and_rebuilds_the_weight_tier() {
        let g = gen::diag_grid(5, 4, 17).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 17);
        let solver = PlanarSolver::builder(&g)
            .capacities(caps.clone())
            .build()
            .unwrap();
        let t = g.num_vertices() - 1;
        let flow = solver.max_flow(0, t).unwrap();
        let cut = solver.global_min_cut().unwrap();
        assert_eq!(solver.stats().label_builds, 1, "weight labels cached");

        // Respec: same topology Arc, weight tier starts empty.
        let doubled: Vec<Weight> = caps.iter().map(|&c| 2 * c).collect();
        let respecced = solver.respec_capacities(doubled.clone()).unwrap();
        assert!(Arc::ptr_eq(
            solver.topo_substrate(),
            respecced.topo_substrate()
        ));
        assert_eq!(respecced.stats().engine_builds, 1, "shared counter");
        assert_eq!(respecced.stats().label_builds, 0, "weight tier fresh");

        let flow2 = respecced.max_flow(0, t).unwrap();
        assert_eq!(flow2.value, 2 * flow.value);
        // Topology rounds identical (same ledger snapshot — charged once
        // for the pair); the weight tier was rebuilt for the new spec.
        assert_eq!(
            flow2.rounds.substrate_topo.total(),
            flow.rounds.substrate_topo.total()
        );
        let cut2 = respecced.global_min_cut().unwrap();
        assert_eq!(respecced.stats().label_builds, 1, "rebuilt once per spec");
        assert_eq!(cut2.value, cut.value, "weights were kept by the respec");
        assert!(
            cut2.rounds.substrate_weight.total() > 0,
            "per-spec labeling charge"
        );

        // The engine was never rebuilt: one BDD across both solvers.
        assert_eq!(solver.stats().engine_builds, 1);
    }

    #[test]
    fn respec_rejects_a_foreign_topology() {
        let g = gen::diag_grid(4, 4, 3).unwrap();
        let solver = grid_solver(&g, 3);
        // Identical graph content, different allocation: not respecable.
        let other = PlanarInstance::new(
            g.clone(),
            Some(solver.capacities().to_vec()),
            Some(solver.edge_weights().to_vec()),
        )
        .unwrap();
        assert_eq!(
            solver.respec(other).err(),
            Some(DualityError::TopologyMismatch)
        );
        // The happy path: a copy-on-write respec of the solver's own
        // instance shares the allocation and is accepted.
        let cow = solver
            .instance()
            .with_capacities(vec![1; g.num_darts()])
            .unwrap();
        assert!(solver.respec(cow).is_ok());
    }
}
