//! The load driver: replays a trace against the serving engine (or a
//! serial solver) and harvests outcomes plus metrics.
//!
//! Two entry points:
//!
//! * [`drive`] builds a [`ServiceEngine`] from a [`DriverConfig`],
//!   releases the trace's jobs per its arrival schedule (open loop:
//!   submit everything in release order without waiting; closed loop:
//!   bounded in-flight, harvesting the oldest ticket at the bound), and
//!   returns a [`RunReport`] — outcome fingerprints in release order,
//!   the engine's final [`MetricsSnapshot`], and wall-clock throughput.
//! * [`run_serial`] answers the same jobs one at a time through plain
//!   [`PlanarSolver::run`] — the ground truth the engine's determinism
//!   contract is measured against.
//!
//! For any worker/shard configuration, `drive(...).fingerprints` must
//! equal `run_serial(...).fingerprints` (when no deadline expires a
//! job): that is the record → replay determinism contract.

use crate::error::WorkloadError;
use crate::fingerprint::outcome_fingerprint;
use crate::scenario::Arrival;
use crate::trace::{Trace, TraceJob};
use duality_core::{PlanarInstance, PlanarSolver};
use duality_service::{AdmissionPolicy, MetricsSnapshot, ServiceEngine, SubmitError, Ticket};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine shape and pacing knobs for one [`drive`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DriverConfig {
    /// Worker threads draining the engine queue.
    pub workers: usize,
    /// Independent pool shards.
    pub shards: usize,
    /// Job-queue capacity (the admission bound).
    pub queue_capacity: usize,
    /// Per-shard solver-pool capacity.
    pub pool_capacity: usize,
    /// Full-queue behavior. Under [`AdmissionPolicy::Reject`], shed jobs
    /// are recorded as `None` fingerprints rather than aborting the run.
    pub admission: AdmissionPolicy,
    /// Real-time length of one virtual tick. When set, the driver
    /// *paces* the replay: each job's submission waits until its
    /// recorded virtual timestamp (`start + vt × tick`), and trace
    /// deadlines are armed against the same clock. `None` (the default)
    /// submits in release order as fast as possible and ignores
    /// deadlines — the deterministic-replay mode, since expiry depends
    /// on wall-clock timing.
    pub tick: Option<Duration>,
}

impl Default for DriverConfig {
    fn default() -> DriverConfig {
        DriverConfig {
            workers: 2,
            shards: 2,
            queue_capacity: 64,
            pool_capacity: 16,
            admission: AdmissionPolicy::Block,
            tick: None,
        }
    }
}

/// What one [`drive`] run produced.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Per-job outcome fingerprints, in release order. `None` for jobs
    /// that did not complete (shed by admission, expired, cancelled, or
    /// failed).
    pub fingerprints: Vec<Option<u64>>,
    /// Jobs the trace released (attempted submissions, including shed
    /// ones) — the *offered* load.
    pub offered: usize,
    /// Jobs that resolved to an error (or were shed at admission).
    pub failed: usize,
    /// The engine's final metrics (taken by the shutdown drain).
    pub metrics: MetricsSnapshot,
    /// Wall-clock time from first submission to drained shutdown —
    /// including any pacing sleeps when [`DriverConfig::tick`] is set.
    pub wall: Duration,
    /// Total time the driver spent *sleeping* to honor the arrival
    /// schedule (zero for unpaced replays). Subtracting it from `wall`
    /// gives the busy time the completed work actually occupied.
    pub paced: Duration,
}

impl RunReport {
    /// Wall time minus pacing sleeps: the driver-side busy time. For an
    /// unpaced replay this equals [`wall`](RunReport::wall).
    pub fn busy(&self) -> Duration {
        self.wall.saturating_sub(self.paced)
    }

    /// Completed jobs per wall-clock second — the *paced* rate. Under a
    /// real-time arrival schedule this measures the schedule, not the
    /// engine; use [`completed_jps`](RunReport::completed_jps) (busy
    /// time) and [`offered_jps`](RunReport::offered_jps) for honest
    /// saturation math.
    pub fn throughput_jps(&self) -> f64 {
        per_second(self.metrics.completed as f64, self.wall)
    }

    /// Offered load in jobs per wall-clock second: every release the
    /// trace attempted, shed or not, over the full paced wall time.
    pub fn offered_jps(&self) -> f64 {
        per_second(self.offered as f64, self.wall)
    }

    /// Completed jobs per *busy* second (wall minus pacing sleeps) — the
    /// rate the engine actually served at. Equal to
    /// [`throughput_jps`](RunReport::throughput_jps) when unpaced.
    pub fn completed_jps(&self) -> f64 {
        per_second(self.metrics.completed as f64, self.busy())
    }
}

/// `count / seconds`, zero on a degenerate (sub-measurable) interval.
fn per_second(count: f64, interval: Duration) -> f64 {
    let secs = interval.as_secs_f64();
    if secs > 0.0 {
        count / secs
    } else {
        0.0
    }
}

/// What one [`run_serial`] pass produced.
#[derive(Clone, Debug)]
pub struct SerialReport {
    /// Per-job outcome fingerprints, in release order.
    pub fingerprints: Vec<u64>,
    /// Sum of the jobs' marginal query rounds.
    pub query_rounds: u64,
    /// Sum of the per-spec substrate bills (each distinct spec pays its
    /// own topo + weight tiers — the un-amortized baseline the engine's
    /// pooled bill is compared against).
    pub substrate_rounds: u64,
    /// Distinct specs answered (= solvers built).
    pub solvers: usize,
}

/// Replays `trace` through a [`ServiceEngine`] shaped by `config`. See
/// the [module docs](self) for pacing semantics.
///
/// # Errors
///
/// Materialization errors ([`WorkloadError::KeyMismatch`], rebuild
/// failures), or [`WorkloadError::Submit`] if the engine refuses a
/// submission the driver cannot absorb (shutdown mid-run; a full queue
/// under [`AdmissionPolicy::Reject`] is absorbed as a shed job, not an
/// error).
pub fn drive(trace: &Trace, config: &DriverConfig) -> Result<RunReport, WorkloadError> {
    drive_jobs(&trace.materialize()?, trace.header.arrival, config)
}

/// [`drive`] over pre-materialized jobs: callers replaying one trace
/// against many configurations (the S5 sweep, the determinism tests)
/// materialize once and reuse the jobs, instead of rebuilding every
/// tenant graph per run.
///
/// # Errors
///
/// As [`drive`], minus the materialization failures.
pub fn drive_jobs(
    jobs: &[TraceJob],
    arrival: Arrival,
    config: &DriverConfig,
) -> Result<RunReport, WorkloadError> {
    let engine = ServiceEngine::builder()
        .shards(config.shards)
        .workers(config.workers)
        .queue_capacity(config.queue_capacity)
        .pool_capacity(config.pool_capacity)
        .admission(config.admission)
        .build()?;
    let mut report = drive_jobs_on(&engine, jobs, arrival, config.tick)?;
    // The drained shutdown gives the authoritative final metrics.
    report.metrics = engine.shutdown();
    Ok(report)
}

/// [`drive_jobs`] against a *prebuilt* engine the caller owns — one that
/// carries a telemetry sink or serves several phases of one long run.
/// The engine is left running (no shutdown):
/// [`RunReport::metrics`] is a live snapshot, cumulative across every
/// phase the engine has served.
///
/// # Errors
///
/// As [`drive_jobs`].
pub fn drive_jobs_on(
    engine: &ServiceEngine,
    jobs: &[TraceJob],
    arrival: Arrival,
    tick: Option<Duration>,
) -> Result<RunReport, WorkloadError> {
    let max_in_flight = match arrival {
        Arrival::ClosedLoop { max_in_flight, .. } => Some(max_in_flight.max(1)),
        Arrival::OpenLoop { .. } => None,
    };

    let start = Instant::now();
    let mut in_flight: VecDeque<(usize, Ticket)> = VecDeque::new();
    let mut fingerprints: Vec<Option<u64>> = vec![None; jobs.len()];
    let mut failed = 0usize;
    let harvest =
        |slot: Option<(usize, Ticket)>, fingerprints: &mut Vec<Option<u64>>, failed: &mut usize| {
            if let Some((i, ticket)) = slot {
                match ticket.wait() {
                    Ok(outcome) => fingerprints[i] = Some(outcome_fingerprint(&outcome)),
                    Err(_) => *failed += 1,
                }
            }
        };

    let mut paced = Duration::ZERO;
    for (i, job) in jobs.iter().enumerate() {
        if let Some(tick) = tick {
            // Real-time pacing: hold the job until its virtual release
            // time. The sleep is accounted separately so the report can
            // split schedule time from busy time.
            let due = start + tick * u32::try_from(job.vt).unwrap_or(u32::MAX);
            let wait = due.saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                std::thread::sleep(wait);
                paced += wait;
            }
        }
        let submitted = match (tick, job.deadline) {
            (Some(tick), Some(deadline_vt)) => {
                // Deadlines are armed relative to the driver's own clock:
                // `deadline_vt` ticks after the run started.
                let deadline = start + tick * u32::try_from(deadline_vt).unwrap_or(u32::MAX);
                engine.submit_with_deadline(&job.instance, job.query, deadline)
            }
            _ => engine.submit(&job.instance, job.query),
        };
        match submitted {
            Ok(ticket) => in_flight.push_back((i, ticket)),
            Err(SubmitError::QueueFull) => {
                // Reject-policy shedding is load data, not a driver bug.
                failed += 1;
                continue;
            }
            Err(e @ SubmitError::ShuttingDown) => return Err(WorkloadError::Submit(e)),
        }
        if let Some(bound) = max_in_flight {
            while in_flight.len() >= bound {
                harvest(in_flight.pop_front(), &mut fingerprints, &mut failed);
            }
        }
    }
    while let Some(slot) = in_flight.pop_front() {
        harvest(Some(slot), &mut fingerprints, &mut failed);
    }
    let metrics = engine.metrics();
    let wall = start.elapsed();
    Ok(RunReport {
        fingerprints,
        offered: jobs.len(),
        failed,
        metrics,
        wall,
        paced,
    })
}

/// Answers the trace's jobs serially through [`PlanarSolver::run`], one
/// solver per distinct spec (fresh solvers, no pooling) — the
/// ground-truth baseline for both outcomes and the un-amortized
/// substrate bill.
///
/// # Errors
///
/// Materialization errors, or [`WorkloadError::Query`] if a recorded
/// query fails (a generated trace only records satisfiable queries).
pub fn run_serial(trace: &Trace) -> Result<SerialReport, WorkloadError> {
    run_serial_jobs(&trace.materialize()?)
}

/// [`run_serial`] over pre-materialized jobs (see [`drive_jobs`]).
///
/// # Errors
///
/// As [`run_serial`], minus the materialization failures.
pub fn run_serial_jobs(jobs: &[TraceJob]) -> Result<SerialReport, WorkloadError> {
    // Keyed by spec identity (the materialized Arc), not content: replay
    // hands consecutive jobs of an unmutated tenant the same allocation.
    let mut solvers: HashMap<*const PlanarInstance, PlanarSolver> = HashMap::new();
    let mut fingerprints = Vec::with_capacity(jobs.len());
    let mut query_rounds = 0u64;
    for job in jobs {
        let solver = solvers
            .entry(Arc::as_ptr(&job.instance))
            .or_insert_with(|| PlanarSolver::from_instance(Arc::clone(&job.instance)));
        let outcome = solver
            .run(job.query)
            .map_err(|error| WorkloadError::Query {
                event: job.event,
                error,
            })?;
        query_rounds += outcome.rounds().query_total();
        fingerprints.push(outcome_fingerprint(&outcome));
    }
    let substrate_rounds = solvers.values().map(|s| s.substrate_rounds().total()).sum();
    Ok(SerialReport {
        fingerprints,
        query_rounds,
        substrate_rounds,
        solvers: solvers.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;

    #[test]
    fn drive_matches_serial_on_a_mutating_trace() {
        let trace = Scenario::preset("failover-storm", 21)
            .unwrap()
            .record()
            .unwrap();
        let serial = run_serial(&trace).unwrap();
        assert_eq!(serial.fingerprints.len(), trace.query_count());
        let report = drive(
            &trace,
            &DriverConfig {
                workers: 2,
                shards: 2,
                ..DriverConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.failed, 0);
        let engine_prints: Vec<u64> = report.fingerprints.iter().map(|f| f.unwrap()).collect();
        assert_eq!(engine_prints, serial.fingerprints);
        assert_eq!(report.metrics.completed as usize, trace.query_count());
        // Pooling amortizes what fresh serial solvers pay in full.
        assert!(report.metrics.substrate_rounds() <= serial.substrate_rounds);
        assert!(serial.solvers > 1, "storm traces visit multiple specs");
    }

    #[test]
    fn closed_loop_bounds_in_flight() {
        let trace = Scenario::preset("respec-heavy", 5)
            .unwrap()
            .record()
            .unwrap();
        let bound = match trace.header.arrival {
            crate::scenario::Arrival::ClosedLoop { max_in_flight, .. } => max_in_flight,
            crate::scenario::Arrival::OpenLoop { .. } => panic!("respec-heavy is closed-loop"),
        };
        let report = drive(&trace, &DriverConfig::default()).unwrap();
        assert_eq!(report.failed, 0);
        assert!(
            report.metrics.queue_high_water <= bound,
            "closed loop never queues past its in-flight bound: {} > {bound}",
            report.metrics.queue_high_water
        );
        assert_eq!(
            report.metrics.completed as usize,
            trace.query_count(),
            "every released job completes"
        );
    }

    #[test]
    fn reject_admission_sheds_instead_of_failing_the_run() {
        let trace = Scenario::preset("rush-hour", 2).unwrap().record().unwrap();
        // One worker, a two-slot queue, reject policy: the open-loop
        // burst must shed some jobs, and the driver must absorb that.
        let report = drive(
            &trace,
            &DriverConfig {
                workers: 1,
                shards: 1,
                queue_capacity: 2,
                admission: AdmissionPolicy::Reject,
                ..DriverConfig::default()
            },
        )
        .unwrap();
        let completed = report.fingerprints.iter().flatten().count();
        assert_eq!(completed + report.failed, trace.query_count());
        assert_eq!(
            report.metrics.rejected as usize + report.metrics.completed as usize,
            trace.query_count()
        );
    }
}
