//! Integration tests of the telemetry spine through the public
//! meta-crate:
//!
//! (a) span/counter reconciliation: every admitted job emits exactly one
//!     span, and per-tenant lifecycle counters sum back to the engine's
//!     own metrics even when a cancel storm races the queue;
//! (b) ring overflow is dropped-and-counted, never blocking a worker;
//! (c) attribution: per-tenant p99 diverges from the fleet-wide p99
//!     under skewed tenants, and the worst tenant is identified.

use duality::service::{SpanRecord, SpanState};
use duality::telemetry::TenantStats;
use duality::workload::Scenario;
use duality::{AdmissionPolicy, PlanarInstance, Query, ServiceEngine, Telemetry};
use std::sync::Arc;

fn instance(seed: u64) -> Arc<PlanarInstance> {
    let g = duality::planar::gen::diag_grid(4, 4, seed).unwrap();
    let caps = duality::planar::gen::random_undirected_capacities(g.num_edges(), 1, 9, seed);
    PlanarInstance::new(g, Some(caps), None).unwrap()
}

/// (a) The `cancellation-storm` preset piles a burst deep into a paused
/// queue; a quarter of the tickets are cancelled before the single
/// worker starts. Every admitted job must resolve to exactly one span,
/// and the per-tenant ledger must sum back to the engine's counters —
/// no lost spans, no double counts, on any terminal path.
#[test]
fn spans_reconcile_with_engine_counters_under_a_cancel_storm() {
    let scenario = Scenario::preset("cancellation-storm", 11).unwrap();
    let trace = scenario.record().unwrap();
    let jobs = trace.materialize().unwrap();
    let telemetry = Telemetry::new(jobs.len() * 2 + 16);
    let engine = ServiceEngine::builder()
        .shards(2)
        .workers(1)
        .queue_capacity(jobs.len().max(16))
        .admission(AdmissionPolicy::Block)
        .span_sink(telemetry.sink())
        .start_paused()
        .build()
        .unwrap();

    // Everything queues behind the start gate, so the cancel slice is
    // deterministic: those jobs are still queued, every cancel wins.
    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| engine.submit(&j.instance, j.query).unwrap())
        .collect();
    let to_cancel = tickets.len() / 4;
    let won: usize = tickets
        .iter()
        .rev()
        .take(to_cancel)
        .filter(|t| t.cancel())
        .count();
    assert_eq!(won, to_cancel, "queued jobs always lose to cancel");
    engine.resume();
    for t in tickets {
        let _ = t.wait();
    }
    let m = engine.shutdown();
    let snap = telemetry.snapshot();

    assert_eq!(snap.spans, m.submitted, "one span per admitted job");
    assert_eq!(snap.dropped, 0, "the sized ring loses nothing");
    let sum =
        |pick: fn(&TenantStats) -> u64| snap.tenants.iter().map(|t| pick(&t.stats)).sum::<u64>();
    assert_eq!(sum(|s| s.completed), m.completed);
    assert_eq!(sum(|s| s.cancelled), m.cancelled);
    assert_eq!(sum(|s| s.failed), m.failed);
    assert_eq!(sum(|s| s.expired), m.expired);
    assert_eq!(sum(|s| s.spans()), snap.spans, "no span double-counts");
    assert_eq!(m.cancelled as usize, to_cancel, "each cancel resolves once");
    assert_eq!(
        sum(|s| s.service.count),
        m.completed + m.failed,
        "service time exists only for jobs that actually ran"
    );
    assert_eq!(
        sum(|s| s.wait.count),
        m.submitted,
        "every admitted job waited, even the cancelled ones"
    );
}

/// (a′) The same cancel-storm reconciliation as (a), with the stealing
/// paths in play: the paused backlog spreads round-robin across
/// per-worker deques, so once the fleet resumes, jobs reach workers by
/// local pops, injector drains and steals — and cancels race all three.
/// The ledger must still reconcile exactly, span for span.
///
/// `DUALITY_STRESS_WORKERS` (default 4) sizes the fleet, so CI can
/// re-run this suite as a stress pass at a wider worker count.
#[test]
fn spans_reconcile_while_stealing_workers_race_the_cancel_storm() {
    let workers: usize = std::env::var("DUALITY_STRESS_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let scenario = Scenario::preset("cancellation-storm", 23).unwrap();
    let trace = scenario.record().unwrap();
    let jobs = trace.materialize().unwrap();
    let telemetry = Telemetry::new(jobs.len() * 2 + 16);
    let engine = ServiceEngine::builder()
        .shards(2)
        .workers(workers)
        .queue_capacity(jobs.len().max(16))
        .admission(AdmissionPolicy::Block)
        .span_sink(telemetry.sink())
        .start_paused()
        .build()
        .unwrap();

    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| engine.submit(&j.instance, j.query).unwrap())
        .collect();
    let to_cancel = tickets.len() / 4;
    let won: usize = tickets
        .iter()
        .rev()
        .take(to_cancel)
        .filter(|t| t.cancel())
        .count();
    assert_eq!(won, to_cancel, "paused jobs always lose to cancel");
    engine.resume();
    for t in tickets {
        let _ = t.wait();
    }
    let m = engine.shutdown();
    let snap = telemetry.snapshot();

    assert_eq!(snap.spans, m.submitted, "one span per admitted job");
    assert_eq!(snap.dropped, 0, "the sized ring loses nothing");
    let sum =
        |pick: fn(&TenantStats) -> u64| snap.tenants.iter().map(|t| pick(&t.stats)).sum::<u64>();
    assert_eq!(sum(|s| s.completed), m.completed);
    assert_eq!(sum(|s| s.cancelled), m.cancelled);
    assert_eq!(sum(|s| s.failed), m.failed);
    assert_eq!(sum(|s| s.expired), m.expired);
    assert_eq!(sum(|s| s.spans()), snap.spans, "no span double-counts");
    assert_eq!(m.cancelled as usize, to_cancel, "each cancel resolves once");
    assert_eq!(sum(|s| s.service.count), m.completed + m.failed);
    assert_eq!(sum(|s| s.wait.count), m.submitted);
    // The drain itself must have exercised the scheduler: a worker that
    // empties its own deque while siblings still hold backlog steals,
    // and one that finds the whole engine drained parks.
    assert!(
        m.scheduler.steals + m.scheduler.parks > 0,
        "a multi-worker drain never runs entirely on local pops: {}",
        m.scheduler
    );
}

/// (b) A two-slot ring under five jobs: the engine never blocks, the
/// overflow is counted, and kept + dropped reconciles with everything
/// offered to the sink — job spans and build-phase spans alike.
#[test]
fn ring_overflow_drops_are_counted_never_blocking() {
    let telemetry = Telemetry::new(2);
    let engine = ServiceEngine::builder()
        .workers(1)
        .span_sink(telemetry.sink())
        .build()
        .unwrap();
    let i = instance(5);
    for _ in 0..5 {
        engine.run(&i, Query::Girth).unwrap();
    }
    let m = engine.shutdown();
    assert_eq!(m.completed, 5, "a saturated ring never blocks the engine");

    let snap = telemetry.snapshot();
    assert_eq!(snap.spans, 2, "the ring keeps the newest job spans");
    assert!(
        snap.dropped >= 3,
        "job-span overflow is dropped and counted"
    );
    // The first job's substrate build also emitted phase spans (capped at
    // the same ring capacity); kept + dropped reconciles with offered.
    let phase_kept = snap.phase_us.len() as u64;
    assert!(phase_kept <= 2, "the phase ring obeys the same capacity");
    assert_eq!(
        snap.spans + phase_kept + snap.dropped,
        telemetry.ring().seen()
    );
    // The drop counter is surfaced on the snapshot's display line, so an
    // operator sees span loss without touching the API.
    assert!(snap
        .to_string()
        .contains(&format!("{} dropped", snap.dropped)));
}

/// (c) Nine fast spans for tenant A and one slow span for tenant B: the
/// fleet-wide p99 is pinned by B while A's own p99 stays orders of
/// magnitude lower — the attribution the aggregate histogram cannot
/// make. A tenant that ran no job is attributed no p99 at all.
#[test]
fn per_tenant_p99_diverges_from_the_fleet_under_skew() {
    let telemetry = Telemetry::new(64);
    let sink = telemetry.sink();
    let span = |tenant: u64, total_us: u64| SpanRecord {
        tenant,
        spec: 1,
        query: "girth",
        shard: 0,
        worker: Some(0),
        state: SpanState::Completed,
        submitted_us: 0,
        admitted_us: Some(0),
        dequeued_us: Some(0),
        started_us: Some(0),
        finished_us: total_us,
        source: Some(duality::service::DequeueSource::Local),
    };
    for _ in 0..9 {
        sink.record(span(0xA, 100));
    }
    sink.record(span(0xB, 1_000_000));
    sink.record(SpanRecord {
        state: SpanState::Cancelled,
        started_us: None,
        ..span(0xC, 50)
    });

    let snap = telemetry.snapshot();
    let fleet = snap.fleet_total().quantile_us(0.99).unwrap();
    let a = snap.tenant(0xA).unwrap().p99_total_us().unwrap();
    let b = snap.tenant(0xB).unwrap().p99_total_us().unwrap();
    assert_eq!(fleet, 1_000_000, "the fleet p99 is pinned by the slow job");
    assert_eq!(b, fleet);
    assert!(a <= 128, "the fast tenant's own p99 stays fast: {a}µs");
    assert_eq!(snap.max_tenant_p99_us(), Some((0xB, b)), "B is the worst");
    // C's only job was cancelled in the queue: a row, but no p99. A
    // tenant that never submitted has no row at all.
    let c = snap.tenant(0xC).unwrap();
    assert_eq!((c.stats.cancelled, c.p99_total_us()), (1, None));
    assert!(snap.tenant(0xD).is_none());
}
