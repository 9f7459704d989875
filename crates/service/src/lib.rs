//! The sharded serving engine: multi-tenant query traffic over pooled
//! planar solvers.
//!
//! The layers below this crate already amortize everything that can be
//! amortized: a [`duality_core::PlanarSolver`] caches its two-tier
//! substrate, and a [`duality_core::pool::SolverPool`] caches solvers per
//! instance with respec-reuse. What they do not provide is a *serving
//! surface* — every caller still funnels through one pool mutex and
//! executes queries on its own thread. [`ServiceEngine`] is that surface:
//!
//! * **sharding** — instance keys are hash-partitioned by their topology
//!   fingerprint across N independent [`SolverPool`](duality_core::pool::SolverPool)
//!   shards, so there is no global pool lock and respecs of one network
//!   always land on the shard holding their donor solver;
//! * **scheduling** — submissions enter a bounded work-stealing
//!   scheduler ([`duality_sched::Scheduler`]): per-worker stealing
//!   deques with a global overflow injector, drained by a pool of
//!   `std::thread` workers that pop their own deque LIFO and steal from
//!   siblings FIFO, with exactly one idle worker woken per submit;
//!   callers get a typed [`Ticket`] back immediately and collect the
//!   [`Outcome`](duality_core::Outcome) asynchronously;
//! * **admission control** — the queue is bounded, and a full queue
//!   either rejects ([`AdmissionPolicy::Reject`] →
//!   [`SubmitError::QueueFull`]) or applies backpressure by blocking the
//!   submitter ([`AdmissionPolicy::Block`]);
//! * **deadlines and cancellation** — a job can carry a deadline (workers
//!   refuse to start it past-due: [`ServiceError::Expired`]) and a ticket
//!   can be cancelled while the job is still queued
//!   ([`ServiceError::Cancelled`]);
//! * **graceful shutdown** — [`ServiceEngine::shutdown`] stops admission,
//!   drains every queued job, joins the workers and returns the final
//!   metrics snapshot; dropping the engine does the same;
//! * **live metrics** — a lock-light registry of atomic counters
//!   (submitted / completed / failed / rejected / expired / cancelled), a
//!   log-bucketed latency histogram, live queue-depth / running / worker
//!   gauges plus the queue high-water mark (exact: admission maintains
//!   the depth counter itself, across deques *and* injector), scheduler
//!   activity counters ([`SchedStats`]: steals, steal-fails, injector
//!   overflows, parks/unparks), and per-shard pool hit/miss
//!   plus amortized CONGEST round bills, all snapshot as one
//!   [`MetricsSnapshot`] with a human-readable `Display`;
//! * **telemetry spans** — with a sink attached
//!   ([`EngineBuilder::span_sink`](engine::EngineBuilder::span_sink)),
//!   every resolved job emits one [`SpanRecord`] carrying its lifecycle
//!   tick stamps and routing identity, decomposing latency into
//!   queue-wait vs service-time per job (see [`span`]); the
//!   `duality-telemetry` crate provides the ring-buffer sink and the
//!   per-tenant ledger that consume them.
//!
//! Determinism contract: every outcome an engine returns is **bit-for-bit
//! identical** to what a serial [`duality_core::PlanarSolver::run`] would
//! produce for the same instance and query — witnesses and marginal query
//! rounds included — regardless of the worker/shard configuration (the
//! substrate *snapshots* attached to an outcome may differ, because
//! concurrent queries can observe the lazily built substrate at different
//! stages; `tests/service_api.rs` checks the contract across a
//! worker × shard sweep).
//!
//! # Example
//!
//! ```
//! use duality_core::{PlanarInstance, Query};
//! use duality_planar::gen;
//! use duality_service::ServiceEngine;
//!
//! let g = gen::diag_grid(4, 4, 7).unwrap();
//! let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 7);
//! let instance = PlanarInstance::new(g, Some(caps), None).unwrap();
//!
//! let engine = ServiceEngine::builder()
//!     .shards(2)
//!     .workers(2)
//!     .build()
//!     .unwrap();
//!
//! // Submit asynchronously, collect via the ticket…
//! let ticket = engine.submit(&instance, Query::MaxFlow { s: 0, t: 15 }).unwrap();
//! let flow = ticket.wait().unwrap();
//! assert!(flow.as_max_flow().unwrap().value > 0);
//!
//! // …or use the submit-and-wait convenience.
//! let girth = engine.run(&instance, Query::Girth).unwrap();
//! assert!(girth.as_girth().unwrap().girth > 0);
//!
//! let metrics = engine.shutdown();
//! assert_eq!(metrics.completed, 2);
//! println!("{metrics}");
//! ```

pub mod engine;
pub mod metrics;
pub mod span;

pub use duality_sched::{DequeueSource, SchedStats};
pub use engine::{
    AdmissionPolicy, EngineBuilder, ServiceEngine, ServiceError, SubmitError, Ticket,
};
pub use metrics::{LatencySnapshot, MetricsSnapshot, ShardMetrics};
pub use span::{query_kind, PhaseSpan, SpanRecord, SpanSink, SpanState};
