//! The per-tenant attribution ledger: spans in, tenant truth out.
//!
//! [`TenantLedger::fold`] attributes each span to its tenant (the
//! topology fingerprint every respec of one network shares) and
//! maintains, per tenant, lifecycle counters plus three log₂ latency
//! histograms — **queue-wait**, **service-time**, and end-to-end total
//! — so p50/p99/max are available *per tenant and per phase of a job's
//! life*, which the engine's single fleet-wide histogram cannot give.
//! The discipline mirrors the paper's CONGEST cost ledgers: every
//! microsecond a job spends is billed to an explicit account.
//!
//! Histogram semantics follow the engine's: service and total record
//! only executed jobs (completed or failed), exactly the population of
//! `MetricsSnapshot::latency`; wait additionally records expired and
//! cancelled jobs, whose whole queued life was waiting. Rejected
//! submissions never waited in the queue and only count.

use duality_service::span::{PhaseSpan, SpanRecord, SpanState};
use duality_service::LatencySnapshot;
use std::collections::BTreeMap;

/// Merges `from` into `into` (per-bucket sums; max of maxes).
pub(crate) fn merge(into: &mut LatencySnapshot, from: &LatencySnapshot) {
    for (a, b) in into.buckets.iter_mut().zip(from.buckets.iter()) {
        *a += b;
    }
    into.count += from.count;
    into.sum_us += from.sum_us;
    into.max_us = into.max_us.max(from.max_us);
}

/// One tenant's ledger slice: lifecycle counters and the wait / service
/// / total histograms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Jobs that executed and returned an outcome.
    pub completed: u64,
    /// Jobs that executed and returned an error (or panicked).
    pub failed: u64,
    /// Submissions refused at admission.
    pub rejected: u64,
    /// Jobs whose deadline passed before execution.
    pub expired: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
    /// Queue-wait distribution (admitted jobs).
    pub wait: LatencySnapshot,
    /// Service-time distribution (executed jobs).
    pub service: LatencySnapshot,
    /// End-to-end latency distribution (executed jobs — the same
    /// population the engine's fleet-wide histogram records, so a
    /// per-tenant p99 here is directly comparable to an SLO written
    /// against the engine's).
    pub total: LatencySnapshot,
}

impl TenantStats {
    /// Jobs that reached a terminal state (spans folded).
    pub fn spans(&self) -> u64 {
        self.completed + self.failed + self.rejected + self.expired + self.cancelled
    }

    /// Jobs that actually executed.
    pub fn executed(&self) -> u64 {
        self.completed + self.failed
    }
}

/// One recorded control-plane event — autopilot decisions land here so
/// a telemetry snapshot carries *why* the fleet changed shape alongside
/// what the tenants experienced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// Monotone sequence number (assignment order).
    pub seq: u64,
    /// Short machine-readable label (e.g. `scale-up`).
    pub label: String,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for TelemetryEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.seq, self.label, self.detail)
    }
}

/// The fold target: per-tenant stats keyed by topology fingerprint
/// (deterministic iteration order), per-shard executed-job occupancy,
/// optional tenant display names, and the event log.
#[derive(Debug, Default)]
pub struct TenantLedger {
    tenants: BTreeMap<u64, TenantStats>,
    names: BTreeMap<u64, String>,
    shard_jobs: Vec<u64>,
    spans: u64,
    events: Vec<TelemetryEvent>,
    /// Fleet-wide substrate build µs per phase (embed / dual / bdd /
    /// weight-tier / labeling), accumulated from build-phase spans.
    phase_us: BTreeMap<String, u64>,
}

impl TenantLedger {
    /// An empty ledger.
    pub fn new() -> TenantLedger {
        TenantLedger::default()
    }

    /// Attributes one span to its tenant.
    pub fn fold(&mut self, span: &SpanRecord) {
        self.spans += 1;
        let stats = self.tenants.entry(span.tenant).or_default();
        match span.state {
            SpanState::Completed => stats.completed += 1,
            SpanState::Failed => stats.failed += 1,
            SpanState::Expired => stats.expired += 1,
            SpanState::Cancelled => stats.cancelled += 1,
            SpanState::Rejected => {
                stats.rejected += 1;
                return; // never queued: nothing to bill to wait/service
            }
        }
        stats.wait.record(span.wait_us());
        if let Some(service_us) = span.service_us() {
            stats.service.record(service_us);
            stats.total.record(span.total_us());
            if self.shard_jobs.len() <= span.shard {
                self.shard_jobs.resize(span.shard + 1, 0);
            }
            self.shard_jobs[span.shard] += 1;
        }
    }

    /// Accumulates one substrate build-phase span into the fleet-wide
    /// per-phase build-time account. Phase spans are already amortized at
    /// the source (the engine bills each build exactly once), so this is
    /// a plain sum.
    pub fn fold_phase(&mut self, span: &PhaseSpan) {
        *self.phase_us.entry(span.phase.clone()).or_insert(0) += span.us;
    }

    /// Fleet-wide substrate build µs per phase, in phase-name order.
    pub fn phases(&self) -> impl Iterator<Item = (&str, u64)> {
        self.phase_us.iter().map(|(p, &us)| (p.as_str(), us))
    }

    /// Registers a display name for a tenant fingerprint (the control
    /// plane knows which `FleetSpec` tenant owns which topology).
    pub fn name_tenant(&mut self, tenant: u64, name: &str) {
        self.names.insert(tenant, name.to_string());
    }

    /// Appends one event and returns its sequence number.
    pub fn record_event(&mut self, label: &str, detail: String) -> u64 {
        let seq = self.events.len() as u64;
        self.events.push(TelemetryEvent {
            seq,
            label: label.to_string(),
            detail,
        });
        seq
    }

    /// Spans folded so far.
    pub fn spans(&self) -> u64 {
        self.spans
    }

    /// The stats of one tenant, if any span was attributed to it.
    pub fn tenant(&self, fingerprint: u64) -> Option<&TenantStats> {
        self.tenants.get(&fingerprint)
    }

    /// Iterates `(fingerprint, name-if-known, stats)` in fingerprint
    /// order.
    pub fn tenants(&self) -> impl Iterator<Item = (u64, Option<&str>, &TenantStats)> {
        self.tenants
            .iter()
            .map(|(&fp, stats)| (fp, self.names.get(&fp).map(String::as_str), stats))
    }

    /// Executed jobs per shard (index = shard).
    pub fn shard_jobs(&self) -> &[u64] {
        &self.shard_jobs
    }

    /// The recorded events, in sequence order.
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tenant: u64, state: SpanState, wait: u64, service: u64) -> SpanRecord {
        let started = matches!(state, SpanState::Completed | SpanState::Failed);
        SpanRecord {
            tenant,
            spec: tenant,
            query: "girth",
            shard: (tenant % 2) as usize,
            worker: Some(0),
            state,
            submitted_us: 100,
            admitted_us: Some(100),
            dequeued_us: Some(100 + wait),
            started_us: started.then_some(100 + wait),
            finished_us: 100 + wait + if started { service } else { 0 },
            source: Some(duality_service::DequeueSource::Local),
        }
    }

    #[test]
    fn spans_attribute_to_their_tenant_and_phase() {
        let mut ledger = TenantLedger::new();
        ledger.fold(&span(1, SpanState::Completed, 50, 200));
        ledger.fold(&span(1, SpanState::Completed, 70, 400));
        ledger.fold(&span(1, SpanState::Cancelled, 30, 0));
        ledger.fold(&span(2, SpanState::Rejected, 0, 0));
        assert_eq!(ledger.spans(), 4);

        let t1 = ledger.tenant(1).unwrap();
        assert_eq!((t1.completed, t1.cancelled), (2, 1));
        assert_eq!(t1.spans(), 3);
        assert_eq!(t1.wait.count, 3, "cancelled jobs billed their wait");
        assert_eq!(t1.service.count, 2, "only executed jobs have service");
        assert_eq!(t1.total.count, 2);
        assert_eq!(t1.total.sum_us, 50 + 200 + 70 + 400);
        assert_eq!(t1.service.max_us, 400);

        let t2 = ledger.tenant(2).unwrap();
        assert_eq!(t2.rejected, 1);
        assert_eq!(t2.wait.count, 0, "rejections never waited in queue");
        assert!(ledger.tenant(3).is_none());
    }

    #[test]
    fn shard_occupancy_counts_executed_jobs() {
        let mut ledger = TenantLedger::new();
        ledger.fold(&span(2, SpanState::Completed, 1, 1)); // shard 0
        ledger.fold(&span(3, SpanState::Completed, 1, 1)); // shard 1
        ledger.fold(&span(3, SpanState::Failed, 1, 1)); // shard 1
        ledger.fold(&span(3, SpanState::Expired, 1, 0)); // never executed
        assert_eq!(ledger.shard_jobs(), &[1, 2]);
    }

    #[test]
    fn names_and_events_are_kept_in_order() {
        let mut ledger = TenantLedger::new();
        ledger.fold(&span(7, SpanState::Completed, 1, 1));
        ledger.name_tenant(7, "grid-a");
        assert_eq!(ledger.record_event("scale-up", "2 -> 4".into()), 0);
        assert_eq!(ledger.record_event("scale-down", "4 -> 2".into()), 1);
        let rows: Vec<_> = ledger.tenants().collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, Some("grid-a"));
        assert_eq!(ledger.events()[1].label, "scale-down");
        assert!(ledger.events()[0].to_string().contains("scale-up"));
    }

    #[test]
    fn phase_spans_accumulate_per_phase_without_counting_as_jobs() {
        let mut ledger = TenantLedger::new();
        let phase = |name: &str, us: u64| PhaseSpan {
            tenant: 1,
            spec: 1,
            phase: name.to_string(),
            shard: 0,
            worker: 0,
            us,
            finished_us: 0,
        };
        ledger.fold_phase(&phase("embed", 50));
        ledger.fold_phase(&phase("bdd", 200));
        ledger.fold_phase(&phase("embed", 30));
        assert_eq!(ledger.spans(), 0, "phase spans are not job spans");
        let phases: Vec<(String, u64)> =
            ledger.phases().map(|(p, us)| (p.to_string(), us)).collect();
        assert_eq!(
            phases,
            vec![("bdd".to_string(), 200), ("embed".to_string(), 80)],
            "summed per phase, phase-name order"
        );
    }

    #[test]
    fn histogram_merge_sums_buckets() {
        let mut a = LatencySnapshot::default();
        let mut b = LatencySnapshot::default();
        a.record(10);
        b.record(1_000);
        b.record(2_000);
        merge(&mut a, &b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum_us, 3_010);
        assert_eq!(a.max_us, 2_000);
    }
}
