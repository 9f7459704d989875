//! Job lifecycle spans: the engine's per-job telemetry emission surface.
//!
//! Every job the engine resolves — completed, failed, expired, cancelled
//! or rejected at admission — emits exactly one [`SpanRecord`] into the
//! engine's attached [`SpanSink`] (if any). The record carries the
//! job's routing identity (tenant topology fingerprint, spec hash,
//! query kind, shard, worker) and its lifecycle tick stamps in
//! microseconds since the engine's epoch, so a consumer can decompose
//! latency into **queue-wait** ([`SpanRecord::wait_us`]) and
//! **service-time** ([`SpanRecord::service_us`]) per job — the split
//! the aggregate latency histogram cannot provide.
//!
//! The sink contract is *bounded work on the hot path*: the engine calls
//! [`SpanSink::record`] outside every lock it holds, and a sink may hold
//! its own lock only for O(1) work; a sink that cannot keep a span
//! (full) drops it — counted. The engine itself attaches no sink by
//! default; telemetry
//! is strictly opt-in via [`EngineBuilder::span_sink`](crate::EngineBuilder::span_sink)
//! and its absence costs one branch per job.

use duality_core::pool::InstanceKey;
use duality_core::Query;
use duality_sched::DequeueSource;

/// How a job's lifecycle ended — one terminal state per span, mirroring
/// the engine's lifecycle counters exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanState {
    /// Executed and returned an outcome (`completed` counter).
    Completed,
    /// Executed and returned a query error, or the worker panicked
    /// (`failed` counter).
    Failed,
    /// Deadline passed before a worker could start it (`expired`).
    Expired,
    /// Cancelled via `Ticket::cancel` while queued (`cancelled`).
    Cancelled,
    /// Refused at admission by a full queue under
    /// [`AdmissionPolicy::Reject`](crate::AdmissionPolicy::Reject)
    /// (`rejected`) — never entered the queue, so only the submit and
    /// finish stamps are meaningful.
    Rejected,
}

impl SpanState {
    /// Stable short name (used by telemetry serialization and displays).
    pub fn name(self) -> &'static str {
        match self {
            SpanState::Completed => "completed",
            SpanState::Failed => "failed",
            SpanState::Expired => "expired",
            SpanState::Cancelled => "cancelled",
            SpanState::Rejected => "rejected",
        }
    }

    /// Inverse of [`SpanState::name`].
    pub fn parse(name: &str) -> Option<SpanState> {
        Some(match name {
            "completed" => SpanState::Completed,
            "failed" => SpanState::Failed,
            "expired" => SpanState::Expired,
            "cancelled" => SpanState::Cancelled,
            "rejected" => SpanState::Rejected,
            _ => return None,
        })
    }
}

impl std::fmt::Display for SpanState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The stable short name of a query kind — the span field is a kind, not
/// the full parameterized query, so spans stay compact and aggregable.
pub fn query_kind(query: &Query) -> &'static str {
    match query {
        Query::MaxFlow { .. } => "max-flow",
        Query::MinStCut { .. } => "min-st-cut",
        Query::ApproxMaxFlow { .. } => "approx-max-flow",
        Query::ApproxMinStCut { .. } => "approx-min-st-cut",
        Query::GlobalMinCut => "global-min-cut",
        Query::Girth => "girth",
    }
}

/// One job's complete lifecycle record, emitted at its terminal
/// transition. Tick stamps are microseconds since the engine's creation
/// epoch; optional stamps are `None` for phases the job never reached
/// (a rejected job was never admitted, a cancelled job never started).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The tenant identity: the instance's topology fingerprint
    /// ([`InstanceKey::topo_fingerprint`]) — shared by every respec of
    /// one network, which is exactly the per-tenant aggregation grain.
    pub tenant: u64,
    /// The spec hash ([`InstanceKey::spec_hash`]) — distinguishes
    /// respecs within a tenant.
    pub spec: u64,
    /// Query kind short name (see [`query_kind`]).
    pub query: &'static str,
    /// The shard the job routed to.
    pub shard: usize,
    /// The worker that resolved the span; `None` when no worker ever
    /// touched the job (rejected at admission).
    pub worker: Option<usize>,
    /// Terminal state.
    pub state: SpanState,
    /// When the submitter called in.
    pub submitted_us: u64,
    /// When the job entered the queue (after any
    /// [`AdmissionPolicy::Block`](crate::AdmissionPolicy::Block) wait).
    /// `None` for rejected jobs. Stamped by the submitting thread right
    /// after the push; a job resolved faster than that stamp lands
    /// reports `admitted == submitted`.
    pub admitted_us: Option<u64>,
    /// When a worker popped the job off the queue. `None` when no
    /// worker dequeued it (rejected).
    pub dequeued_us: Option<u64>,
    /// When execution began. `None` for jobs that never ran (rejected,
    /// expired, cancelled).
    pub started_us: Option<u64>,
    /// When the terminal state was reached.
    pub finished_us: u64,
    /// Where the resolving worker found the job — its own deque, the
    /// overflow injector, or stolen from a sibling. `None` when no
    /// worker dequeued it (rejected at admission). Keeps dequeue
    /// attribution exact under work stealing.
    pub source: Option<DequeueSource>,
}

impl SpanRecord {
    /// Queue-wait: submit until execution start — or until the terminal
    /// stamp for jobs that never started (their whole life was waiting).
    pub fn wait_us(&self) -> u64 {
        self.started_us
            .unwrap_or(self.finished_us)
            .saturating_sub(self.submitted_us)
    }

    /// Service-time: execution start to finish. `None` for jobs that
    /// never started.
    pub fn service_us(&self) -> Option<u64> {
        self.started_us.map(|s| self.finished_us.saturating_sub(s))
    }

    /// End-to-end latency: submit to terminal state.
    pub fn total_us(&self) -> u64 {
        self.finished_us.saturating_sub(self.submitted_us)
    }

    /// The job's instance key, reassembled from the span fields.
    pub fn key(&self) -> InstanceKey {
        InstanceKey::from_parts(self.tenant, self.spec)
    }
}

impl std::fmt::Display for SpanRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} tenant {:016x} shard {} wait {}µs",
            self.state,
            self.query,
            self.tenant,
            self.shard,
            self.wait_us()
        )?;
        if let Some(service) = self.service_us() {
            write!(f, " service {service}µs")?;
        }
        Ok(())
    }
}

/// One substrate build phase's profiling span, emitted when a worker's
/// completed job is the first to bill that phase of its solver's
/// substrate (the metrics registry's delta-billing guarantees each build
/// is emitted exactly once per shard, no matter how many jobs shared
/// it). `us` is the measured wall-clock build time of the phase; the
/// `finished_us` engine-epoch stamp anchors it on the session timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Tenant topology fingerprint (same grain as [`SpanRecord::tenant`]).
    pub tenant: u64,
    /// Spec hash of the instance whose substrate built.
    pub spec: u64,
    /// Phase name: `embed`, `dual`, `bdd`, `weight-tier` or `labeling`.
    pub phase: String,
    /// The shard whose pool hosts the built substrate.
    pub shard: usize,
    /// The worker whose job first billed the phase.
    pub worker: usize,
    /// Measured wall-clock build time of the phase, in microseconds.
    pub us: u64,
    /// Engine-epoch stamp (µs) of the billing job's completion — when
    /// the phase was *attributed*, an upper bound on when it ran.
    pub finished_us: u64,
}

impl std::fmt::Display for PhaseSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "phase {} {}µs tenant {:016x} shard {}",
            self.phase, self.us, self.tenant, self.shard
        )
    }
}

/// Where the engine delivers spans. Implementations must be lock-light:
/// [`SpanSink::record`] runs on the worker threads (and on submitter
/// threads for rejections) after every job, so any lock it takes must
/// guard O(1) work only, and a span it cannot keep is dropped and
/// counted (see `duality-telemetry`'s ring sink for the reference
/// implementation).
pub trait SpanSink: Send + Sync {
    /// Accepts one span, or drops it (counted) — O(1) work.
    fn record(&self, span: SpanRecord);

    /// Accepts one substrate-build profiling span, or drops it — O(1)
    /// work. Defaults to dropping silently so sinks that only consume
    /// job lifecycles need no change.
    fn record_phase(&self, span: PhaseSpan) {
        let _ = span;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span() -> SpanRecord {
        SpanRecord {
            tenant: 7,
            spec: 9,
            query: "girth",
            shard: 0,
            worker: Some(1),
            state: SpanState::Completed,
            submitted_us: 100,
            admitted_us: Some(110),
            dequeued_us: Some(150),
            started_us: Some(160),
            finished_us: 460,
            source: Some(DequeueSource::Local),
        }
    }

    #[test]
    fn wait_service_decomposition() {
        let s = span();
        assert_eq!(s.wait_us(), 60);
        assert_eq!(s.service_us(), Some(300));
        assert_eq!(s.total_us(), 360);
        assert_eq!(s.key().topo_fingerprint(), 7);
        assert_eq!(s.key().spec_hash(), 9);
        assert!(s.to_string().contains("service 300µs"));
    }

    #[test]
    fn unstarted_jobs_spend_their_whole_life_waiting() {
        let s = SpanRecord {
            started_us: None,
            state: SpanState::Cancelled,
            ..span()
        };
        assert_eq!(s.wait_us(), 360, "wait runs to the terminal stamp");
        assert_eq!(s.service_us(), None);
        assert!(!s.to_string().contains("service"));
    }

    #[test]
    fn states_round_trip_their_names() {
        for state in [
            SpanState::Completed,
            SpanState::Failed,
            SpanState::Expired,
            SpanState::Cancelled,
            SpanState::Rejected,
        ] {
            assert_eq!(SpanState::parse(state.name()), Some(state));
        }
        assert_eq!(SpanState::parse("nope"), None);
    }

    #[test]
    fn query_kinds_are_stable_short_names() {
        assert_eq!(query_kind(&Query::MaxFlow { s: 0, t: 1 }), "max-flow");
        assert_eq!(query_kind(&Query::Girth), "girth");
        assert_eq!(query_kind(&Query::GlobalMinCut), "global-min-cut");
    }
}
