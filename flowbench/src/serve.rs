//! Closed-loop clients of a `ServiceEngine`: each client thread submits
//! its next job only after the previous one resolved, and times every
//! op from its own submission to its own completion.

use crate::harness::{Op, SpanLog, SubstrateBill};
use crate::tenants::Tenant;
use duality_core::{InstanceKey, Query};
use duality_service::ServiceEngine;
use duality_workload::fingerprint::outcome_fingerprint;
use std::sync::Mutex;
use std::time::Instant;

/// One job of a client's lane.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    pub tenant: usize,
    pub query: Query,
}

/// One resolved job: the timed op and the outcome fingerprint the
/// determinism check compares (`None` when the job failed).
pub struct Served {
    pub op: Op,
    pub fingerprint: Option<u64>,
}

/// Runs every lane on its own client thread, each a strict submit→wait
/// loop, and returns each lane's results in lane order. With a span log
/// epoch, every op records an `op` span with `service.submit` and
/// `service.wait` children.
pub fn closed_loop(
    engine: &ServiceEngine,
    tenants: &[Tenant],
    lanes: &[Vec<Job>],
    bill: &Mutex<SubstrateBill>,
    trace: Option<Instant>,
) -> (Vec<Vec<Served>>, Vec<SpanLog>) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .enumerate()
            .map(|(lane_id, lane)| {
                scope.spawn(move || client(engine, tenants, lane_id, lane, bill, trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .unzip()
    })
}

fn client(
    engine: &ServiceEngine,
    tenants: &[Tenant],
    lane_id: usize,
    lane: &[Job],
    bill: &Mutex<SubstrateBill>,
    trace: Option<Instant>,
) -> (Vec<Served>, SpanLog) {
    let mut log = SpanLog::new(trace.unwrap_or_else(Instant::now));
    let mut out = Vec::with_capacity(lane.len());
    for (i, job) in lane.iter().enumerate() {
        let instance = &tenants[job.tenant].instance;
        let op_id = ((lane_id as u64) << 32) | i as u64;
        let span = SpanLog::open();
        let start = Instant::now();
        let ticket = if trace.is_some() {
            log.time("service.submit", op_id, Some(span), || {
                engine.submit(instance, job.query)
            })
        } else {
            engine.submit(instance, job.query)
        };
        let result = match ticket {
            Ok(ticket) if trace.is_some() => {
                log.time("service.wait", op_id, Some(span), || ticket.wait())
            }
            Ok(ticket) => ticket.wait(),
            Err(e) => Err(duality_service::ServiceError::NotAdmitted(e)),
        };
        let latency = if trace.is_some() {
            log.close(span, "op", op_id, None, start)
        } else {
            start.elapsed()
        };
        let (ok, rounds, fingerprint) = match &result {
            Ok(outcome) => {
                let rounds = bill
                    .lock()
                    .expect("bill lock poisoned by a panicking client")
                    .charge(InstanceKey::of(instance), outcome.rounds());
                (true, rounds, Some(outcome_fingerprint(outcome)))
            }
            Err(_) => (false, 0, None),
        };
        out.push(Served {
            op: Op {
                latency_us: crate::util::us(latency),
                ok,
                rounds,
            },
            fingerprint,
        });
    }
    (out, log)
}
