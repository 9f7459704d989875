//! The experiment subsystem: declarative specs in, gated evidence out.
//!
//! The layers below produce behavior — solve ([`duality_core`]), serve
//! ([`duality_service`]), generate traffic ([`duality_workload`]). This
//! crate turns that behavior into *evidence* with a closed loop:
//!
//! * **[`spec`]** — a [`LabSpec`] is a versioned, byte-stable JSONL
//!   document declaring what to measure: scenarios (preset names or
//!   inline tenant/mutation/mix descriptions), a worker × shard sweep
//!   grid, the run mode, and smoke scaling. Unknown schema versions and
//!   line kinds are refused.
//! * **[`runner`]** — [`runner::run_spec`] executes a spec: replay mode
//!   reproduces the S5 bit-for-bit-vs-serial sweep; ramp mode runs the
//!   saturation probe ([`duality_workload::ramp()`]) and reports
//!   `max-sustainable-jps` plus knee-of-curve latency per cell; memory
//!   mode drives the trace through a byte-budgeted engine and reports
//!   per-phase substrate build time and pool bytes. Replay and ramp
//!   derive `scaling-efficiency` so flat worker scaling shows up in
//!   the artifact itself.
//! * **[`envelope`]** — the versioned `BENCH_*.json` artifact, now
//!   readable as well as writable: [`Envelope::parse`] /
//!   [`Envelope::to_json`] round-trip the exact committed layout.
//! * **[`compare`]** — the regression gate: [`compare::compare`] diffs
//!   a fresh envelope against the committed baseline row by row, with
//!   exact checks for determinism contracts and tolerance gates for
//!   wall-clock metrics. Nonzero exit on regression, wired into CI.
//! * **[`report`]** — [`report::render_trajectory`] renders every
//!   committed envelope into `BENCH_TRAJECTORY.md`, the human-readable
//!   performance history.
//! * **[`trace`]** — [`trace::capture_trace`] keeps the *individual*
//!   profiling spans (substrate build phases, job lifecycles) a run
//!   emits and [`trace::to_chrome_json`] writes them as a
//!   chrome://tracing / Perfetto `trace.json`.
//! * **[`dashboard`]** — [`dashboard::render_dashboard`] renders all
//!   committed envelopes plus a live
//!   [`TelemetrySnapshot`](duality_telemetry::TelemetrySnapshot) into
//!   one self-contained `BENCH_DASHBOARD.html` (inline SVG sparklines
//!   and phase bars, per-tenant attribution, memory gauges — zero
//!   external assets).
//!
//! # Example
//!
//! ```
//! use duality_lab::{compare, runner, Envelope, LabSpec, Tolerances};
//!
//! let text = "\
//! {\"kind\": \"lab\", \"schema_version\": 1, \"name\": \"EX\", \"seed\": 3, \"mode\": \"replay\"}
//! {\"kind\": \"cell\", \"workers\": 1, \"shards\": 1, \"smoke\": 1}
//! {\"kind\": \"preset\", \"name\": \"steady-state\", \"smoke\": 1}
//! ";
//! let spec = LabSpec::parse_jsonl(text).unwrap();
//! assert_eq!(spec.to_jsonl(), text, "canonical form is byte-stable");
//!
//! let rows = runner::run_spec(&spec, false, None).unwrap();
//! let envelope = Envelope::from_rows(&spec.name, spec.seed, false, rows);
//! // A fresh envelope always passes the gate against itself.
//! let verdict = compare::compare(&envelope, &envelope, &Tolerances::default()).unwrap();
//! assert!(verdict.passed());
//! ```

pub mod compare;
pub mod dashboard;
pub mod envelope;
pub mod error;
pub mod report;
pub mod runner;
pub mod spec;
pub mod trace;

pub use compare::{CompareReport, Tolerances};
pub use dashboard::render_dashboard;
pub use envelope::{EnvRow, Envelope, BENCH_SCHEMA_VERSION};
pub use error::LabError;
pub use report::render_trajectory;
pub use runner::{run_spec, SUBSTRATE_PHASES};
pub use spec::{
    GridCell, LabSpec, MemorySettings, RampSettings, RunMode, ScenarioRef, LAB_SCHEMA_VERSION,
};
pub use trace::{capture_trace, parse_chrome_json, to_chrome_json, TraceSlice};
