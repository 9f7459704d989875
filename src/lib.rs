//! # duality — Distributed Maximum Flow in Planar Graphs
//!
//! A reproduction of *"Distributed Maximum Flow in Planar Graphs"*
//! (Abd-Elhaleem, Dory, Parter, Weimann — PODC 2025) as a Rust library.
//!
//! The paper develops a toolkit for running distributed CONGEST algorithms
//! on the **dual** `G*` of a planar network `G` while communicating only
//! over `G`, and uses it to obtain:
//!
//! * exact maximum st-flow in directed planar graphs in `Õ(D²)` rounds,
//! * `(1−o(1))`-approximate max st-flow in undirected st-planar graphs in
//!   `D·n^{o(1)}` rounds,
//! * exact directed minimum st-cut (`Õ(D²)`) and approximate st-planar
//!   minimum st-cut (`D·n^{o(1)}`),
//! * directed global minimum cut in `Õ(D²)` rounds,
//! * weighted girth in `Õ(D)` rounds.
//!
//! All five results are served by one façade, [`PlanarSolver`]: build it
//! once over an instance and the expensive shared substrate is
//! constructed lazily, cached, and amortized across every query — in
//! **two tiers**. The [`TopoSubstrate`] (dual graph, bounded-diameter
//! branch decomposition, distance-labeling engine) is keyed by the
//! embedding alone; the weight tier (instance-length distance labels) is
//! keyed by the current capacities/weights. Re-speccing the same network
//! — new tariffs, new line ratings — is copy-on-write end to end:
//! [`PlanarInstance::with_capacities`] /
//! [`PlanarInstance::with_edge_weights`] share the graph allocation, and
//! [`PlanarSolver::respec`] returns a solver sharing the
//! `Arc<TopoSubstrate>`, rebuilding only the weight tier, so a K-scenario
//! sweep pays the topology rounds once. The solver **owns** its validated
//! instance (an `Arc`-shared [`PlanarInstance`]), is `Send + Sync`, and
//! clones in `O(1)`, so it can serve query traffic from many threads
//! while building each substrate artifact exactly once. Queries are
//! first-class values ([`Query`] → [`Outcome`] via
//! [`PlanarSolver::run`]). Every query returns a typed witness plus a
//! [`RoundReport`](congest::RoundReport) splitting the CONGEST bill into
//! `substrate_topo` / `substrate_weight` / marginal `query` shares;
//! every failure is the single [`DualityError`] type.
//! For serving many instances, [`SolverPool`] maps cheap [`InstanceKey`]s
//! to cached solvers with LRU eviction and respec-reuse — and
//! [`ServiceEngine`] puts a full serving surface on top: instance keys
//! hash-partitioned across independent pool shards, a bounded
//! work-stealing scheduler ([`sched`]: per-worker deques with a global
//! overflow injector) with `Reject`/`Block` admission control, per-job
//! deadlines and cancellation, graceful drain shutdown, and live
//! metrics. The [`workload`] subsystem generates the traffic: seeded
//! [`Scenario`]s expand into replayable [`Trace`]s (versioned JSONL,
//! instance-key-verified) that the load driver feeds through the engine
//! and checks bit-for-bit against serial ground truth. Underneath the
//! engine sits the [`sched`] crate: per-worker bounded stealing deques
//! (owners pop LIFO for cache warmth, thieves steal FIFO batches from
//! the cold end) with a global overflow injector, exact admission
//! accounting, and a parker that wakes exactly one idle worker per
//! submit — dissolving the single-mutex dispatch bottleneck while
//! keeping the bounded-queue admission semantics and the determinism
//! contract intact. The [`telemetry`] spine makes the fleet observable
//! *per tenant*: every engine job emits a compact span (queue-wait vs
//! service-time, tenant topology fingerprint, outcome) into a bounded
//! overwrite-oldest ring, a [`TenantLedger`] folds spans into
//! per-tenant latency histograms and outcome counters, and the
//! versioned [`TelemetrySnapshot`] exports them for operators (JSONL)
//! and names the tenant with the worst attributed p99. The evidence
//! layer is the [`lab`]: a
//! versioned, byte-stable [`LabSpec`] declares an experiment (scenarios
//! × worker/shard grid × run mode), the runner replays it or probes it
//! to saturation ([`mod@workload::ramp`]), the results land in versioned
//! benchmark envelopes, and the lab's regression gate and trajectory
//! report consume those envelopes back. See `DESIGN.md` for the
//! instance → topo substrate → weight substrate → query → pool → sched →
//! engine → workload → telemetry → lab architecture and
//! `EXPERIMENTS.md` for reproducing the measurements.
//!
//! # Quickstart
//!
//! ```
//! use duality::planar::gen;
//! use duality::solver::PlanarSolver;
//!
//! let g = gen::diag_grid(4, 4, 7).unwrap();
//! let caps = gen::random_undirected_capacities(g.num_edges(), 1, 8, 7);
//! let solver = PlanarSolver::builder(&g).capacities(caps).build()?;
//!
//! // Exact max flow and min cut share one cached decomposition.
//! let flow = solver.max_flow(0, g.num_vertices() - 1)?;
//! let cut = solver.min_st_cut(0, g.num_vertices() - 1)?;
//! assert!(flow.value > 0);
//! assert_eq!(flow.value, cut.value); // max-flow min-cut duality
//! assert_eq!(solver.stats().engine_builds, 1);
//!
//! // The round bill separates amortized substrate from marginal query.
//! println!("{}", flow.rounds);
//! # Ok::<(), duality::DualityError>(())
//! ```
//!
//! `PlanarSolver` is the only entry point to the paper's queries.

pub use duality_baselines as baselines;
pub use duality_bdd as bdd;
pub use duality_congest as congest;
pub use duality_core as core;
pub use duality_labeling as labeling;
pub use duality_minor_agg as minor_agg;
pub use duality_overlay as overlay;
pub use duality_planar as planar;

/// The solver subsystem (re-export of [`duality_core::solver`]).
pub use duality_core::solver;

/// The keyed serving layer (re-export of [`duality_core::pool`]).
pub use duality_core::pool;

/// The work-stealing scheduler (re-export of [`duality_sched`]):
/// per-worker bounded stealing deques (LIFO owner pop, FIFO steal) with
/// a global overflow injector, exact depth/high-water admission
/// accounting, one-wakeup-per-submit parking, and a pause/resume and
/// drain-on-close lifecycle.
pub use duality_sched as sched;

/// The sharded serving engine (re-export of [`duality_service`]): shard
/// routing over per-shard pools, a bounded work-stealing scheduler with
/// admission control, per-job deadlines and cancellation, graceful
/// drain shutdown, and live metrics.
pub use duality_service as service;

/// The scenario workload subsystem (re-export of [`duality_workload`]):
/// declarative seeded [`Scenario`]s (tenant fleets, spec-mutation
/// streams, query mixes, arrival schedules), versioned JSONL
/// [`Trace`] record/replay with per-event instance-key verification,
/// and the open-/closed-loop load driver that replays traces through
/// [`ServiceEngine`] and checks them bit-for-bit against serial ground
/// truth.
pub use duality_workload as workload;

/// The telemetry spine (re-export of [`duality_telemetry`]): per-job
/// span records from the engine into a bounded overwrite-oldest ring
/// sink, a [`TenantLedger`] attributing latency (queue-wait vs
/// service-time) and outcomes to tenants, and the versioned JSONL
/// [`TelemetrySnapshot`] with each tenant's attributed p99.
pub use duality_telemetry as telemetry;

/// The experiment subsystem (re-export of [`duality_lab`]): declarative
/// versioned [`LabSpec`]s, the replay/saturation runner, readable +
/// writable benchmark [`Envelope`]s, the row-by-row regression gate
/// with per-metric tolerances, and the markdown trajectory report.
pub use duality_lab as lab;

pub use duality_core::{
    DualityError, HeapSize, InstanceKey, Outcome, PlanarInstance, PlanarSolver, PoolBytes,
    PoolStats, Query, SolverBuilder, SolverPool, SolverStats, TopoSubstrate,
};
pub use duality_lab::{EnvRow, Envelope, LabError, LabSpec, Tolerances};
pub use duality_service::{
    AdmissionPolicy, MetricsSnapshot, ServiceEngine, ServiceError, SubmitError, Ticket,
};
pub use duality_telemetry::{Telemetry, TelemetrySnapshot, TenantLedger};
pub use duality_workload::{
    DriverConfig, RampConfig, RampReport, RunReport, Scenario, Trace, WorkloadError,
};
