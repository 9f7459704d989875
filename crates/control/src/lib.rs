//! Declarative control plane for the duality serving stack: fleet specs
//! in, converged engines out.
//!
//! The serving engine ([`duality_service::ServiceEngine`]) exposes
//! imperative levers — scale workers, flip admission, warm or evict
//! solvers. This crate replaces lever-pulling with a *declared* desired
//! state and a controller that drives the live fleet toward it:
//!
//! * **[`FleetSpec`]** ([`spec`]) — the desired state as one validated
//!   value: engine shape, admission policy, and a tenant roster built on
//!   the workload crate's replayable
//!   [`TenantRecord`](duality_workload::TenantRecord)s, each with
//!   prewarm membership, a capacity derate level, and optional SLOs.
//!   Canonical JSONL serialization (byte-stable round trip) and a
//!   content hash ([`FleetSpec::spec_hash`]) over that canonical form.
//! * **[`Reconciler`]** ([`reconcile`]) — the control loop: observe the
//!   fleet (side-effect-free [`FleetObservation`]), diff against the
//!   spec into a typed [`Plan`] of ordered [`Action`]s, execute through
//!   the engine's public surface with per-action retry, re-observe;
//!   repeat within a bounded convergence budget ([`MAX_RECONCILE_ROUNDS`]).
//!   Derated tenants are realized through the instances' copy-on-write
//!   respec path, anchored to base specs the controller keeps alive, so
//!   a derate shares its tenant's graph allocation and topology
//!   substrate.
//! * **[`StateStore`]** ([`store`]) — crash recovery: converged passes
//!   persist a versioned [`Snapshot`] (atomic write), and
//!   [`Reconciler::resume`] rebuilds a controller from it — refusing
//!   unknown schema versions and snapshots whose spec payload no longer
//!   matches the recorded hash.
//!
//! # Example
//!
//! ```
//! use duality_control::{FleetSpec, Reconciler, TenantDecl};
//! use duality_service::AdmissionPolicy;
//! use duality_workload::{FamilySpec, TenantRecord};
//!
//! let spec = FleetSpec {
//!     name: "docs".into(),
//!     revision: 1,
//!     workers: 2,
//!     shards: 2,
//!     queue_capacity: 16,
//!     pool_capacity: 8,
//!     admission: AdmissionPolicy::Block,
//!     tenants: vec![TenantDecl {
//!         name: "grid".into(),
//!         record: TenantRecord {
//!             family: FamilySpec::DiagGrid { w: 4, h: 4 },
//!             cap_range: (1, 9),
//!             weight_range: (1, 9),
//!             graph_seed: 7,
//!             cap_seed: 8,
//!             weight_seed: 9,
//!         },
//!         prewarm: true,
//!         derate_percent: 100,
//!         slo: None,
//!     }],
//! };
//!
//! let mut fleet = Reconciler::launch(spec).unwrap();
//! let report = fleet.reconcile().unwrap();
//! assert!(report.converged);
//!
//! // The fleet now matches the spec: the tenant's solver is warm.
//! let instance = fleet.instance("grid").cloned().unwrap();
//! let outcome = fleet
//!     .engine()
//!     .run(&instance, duality_core::Query::MaxFlow { s: 0, t: 5 })
//!     .unwrap();
//! assert!(matches!(outcome, duality_core::Outcome::MaxFlow(_)));
//! fleet.shutdown();
//! ```

pub mod error;
pub mod plan;
pub mod reconcile;
pub mod spec;
pub mod store;

pub use error::ControlError;
pub use plan::{Action, Plan};
pub use reconcile::{
    retry, ConvergenceReport, FleetObservation, Reconciler, TenantObservation, MAX_RECONCILE_ROUNDS,
};
pub use spec::{FleetSpec, Slo, TenantDecl, FLEET_SCHEMA_VERSION};
pub use store::{Snapshot, StateStore, SNAPSHOT_SCHEMA_VERSION};
