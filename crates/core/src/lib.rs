//! The paper's headline algorithms: maximum st-flow, minimum st-cut,
//! directed global minimum cut, and weighted girth — all computed by
//! distributed CONGEST algorithms on the planar network `G` that operate on
//! its dual `G*`, with round charges accumulated in a
//! [`duality_congest::CostLedger`].
//!
//! | module (pipeline) | result | paper | rounds |
//! |---|---|---|---|
//! | [`max_flow`] | exact directed max st-flow | Thm 1.2 | `Õ(D²)` |
//! | [`approx_flow`] | `(1−ε)`-approx st-planar max flow | Thm 1.3 | `D·n^{o(1)}` |
//! | [`st_cut`] | exact directed / approx st-planar min st-cut | Thm 6.1/6.2 | `Õ(D²)` / `D·n^{o(1)}` |
//! | [`global_cut`] | directed global min cut | Thm 1.5 | `Õ(D²)` |
//! | [`girth`] | weighted girth | Thm 1.7 | `Õ(D)` |
//!
//! [`verify`] provides the flow/cut validity checkers the test-suite and
//! the experiment harness use.
//!
//! # The `PlanarSolver` façade
//!
//! The modules above hold the pipelines; [`solver::PlanarSolver`] is the
//! one way to run them. Build a solver once: it owns its validated
//! [`instance::PlanarInstance`] (`Arc`-shared, `Send + Sync`), the
//! substrate is cached behind the façade in **two tiers** — a
//! [`solver::TopoSubstrate`] keyed by the embedding alone and a weight
//! tier keyed by the current capacities/weights — every query
//! returns a typed report with a [`duality_congest::RoundReport`] round
//! split (`substrate_topo` / `substrate_weight` / `query`), and all
//! failures surface as the one [`DualityError`] type. Requests are
//! first-class values ([`solver::Query`] / [`solver::Outcome`]), and
//! [`solver::PlanarSolver::run`] executes one.
//!
//! Re-speccing the same network — new tariffs, new line ratings — is
//! copy-on-write end to end: [`instance::PlanarInstance::with_capacities`]
//! / [`instance::PlanarInstance::with_edge_weights`] share the graph
//! allocation, and [`solver::PlanarSolver::respec`] shares the whole
//! topology substrate, rebuilding only the weight tier. The
//! [`pool::SolverPool`] serving layer puts a keyed, LRU-evicting,
//! respec-aware registry of cached solvers in front of all of it.

pub mod approx_flow;
pub mod error;
pub mod girth;
pub mod global_cut;
pub mod heap_size;
pub mod instance;
pub mod max_flow;
pub mod pool;
pub mod smoothing;
pub mod solver;
pub mod st_cut;
pub mod verify;

pub use error::DualityError;
pub use heap_size::HeapSize;
pub use instance::PlanarInstance;
pub use pool::{InstanceKey, PoolBytes, PoolStats, SolverPool};
pub use solver::{Outcome, PlanarSolver, Query, SolverBuilder, SolverStats, TopoSubstrate};
