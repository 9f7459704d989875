//! The sharded serving engine: submission, scheduling, execution.
//!
//! See the [crate docs](crate) for the architecture; this module holds
//! the moving parts — [`ServiceEngine`] (shards + queue + workers),
//! [`Ticket`] (the caller's handle on one in-flight job), and the
//! admission/lifecycle types.

use crate::metrics::{MetricsRegistry, MetricsSnapshot, ShardMetrics};
use crate::span::{query_kind, SpanRecord, SpanSink, SpanState};
use duality_core::pool::{InstanceKey, PoolStats, SolverPool};
use duality_core::{DualityError, Outcome, PlanarInstance, PlanarSolver, Query};
use duality_sched::{DequeueSource, PushError, Scheduler};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// What a full queue does to a new submission.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Refuse immediately with [`SubmitError::QueueFull`] — the caller
    /// sees backpressure and decides (shed, retry, degrade).
    Reject,
    /// Park the submitting thread until space frees up — backpressure
    /// propagates upstream by blocking. The default: no work is lost out
    /// of the box.
    #[default]
    Block,
}

/// Why a submission was not admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity ([`AdmissionPolicy::Reject`] only).
    QueueFull,
    /// The engine is shutting down; no new work is admitted.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "job queue is full"),
            SubmitError::ShuttingDown => write!(f, "engine is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a submitted job produced no outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The query executed and failed (the solver's own error).
    Query(DualityError),
    /// The job's deadline passed before a worker could start it.
    Expired,
    /// The job was cancelled via [`Ticket::cancel`] while still queued.
    Cancelled,
    /// The worker executing the job panicked. The panic is contained —
    /// the worker survives and the ticket resolves instead of hanging —
    /// but the shard's state may be degraded (e.g. a poisoned pool lock
    /// failing subsequent jobs the same way).
    ExecutionPanicked,
    /// The submission itself was refused (only surfaced by the
    /// submit-and-wait convenience [`ServiceEngine::run`]).
    NotAdmitted(SubmitError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Query(e) => write!(f, "query failed: {e}"),
            ServiceError::Expired => write!(f, "deadline passed before execution"),
            ServiceError::Cancelled => write!(f, "job was cancelled"),
            ServiceError::ExecutionPanicked => write!(f, "worker panicked executing the job"),
            ServiceError::NotAdmitted(e) => write!(f, "not admitted: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Query(e) => Some(e),
            ServiceError::NotAdmitted(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DualityError> for ServiceError {
    fn from(e: DualityError) -> ServiceError {
        ServiceError::Query(e)
    }
}

/// One job's result slot: the rendezvous between the worker that fills
/// it and the ticket that waits on it.
//
// `Done` dwarfs the other variants, but each `JobState` lives alone
// inside a per-job heap-allocated `JobSlot` — never in a dense
// collection — so boxing the payload would only add a second
// allocation on the resolve path.
#[allow(clippy::large_enum_variant)]
enum JobState {
    /// Queued; a worker has not claimed it (cancellable).
    Pending,
    /// A worker is executing it (no longer cancellable).
    Running,
    /// Resolved — outcome, query error, expiry or cancellation.
    Done(Result<Outcome, ServiceError>),
}

struct JobSlot {
    state: Mutex<JobState>,
    done: Condvar,
    /// The admission tick stamp (µs since engine epoch), stored by the
    /// submitting thread right after the queue push returns — the only
    /// lifecycle stamp the worker cannot take itself (under
    /// [`AdmissionPolicy::Block`] the submitter parks *inside* the push,
    /// so admission can be far later than submission). `u64::MAX` means
    /// "not stamped yet": a job resolved faster than the submitter's
    /// store reports admit = submit in its span.
    admitted_us: AtomicU64,
}

impl JobSlot {
    fn new() -> JobSlot {
        JobSlot {
            state: Mutex::new(JobState::Pending),
            done: Condvar::new(),
            admitted_us: AtomicU64::new(u64::MAX),
        }
    }

    fn resolve(&self, result: Result<Outcome, ServiceError>) {
        *self.state.lock().expect("job slot lock") = JobState::Done(result);
        self.done.notify_all();
    }
}

/// One queued unit of work: `(instance, query)` plus its routing and
/// lifecycle envelope.
struct Job {
    instance: Arc<PlanarInstance>,
    query: Query,
    key: InstanceKey,
    shard: usize,
    deadline: Option<Instant>,
    submitted_at: Instant,
    slot: Arc<JobSlot>,
}

/// The caller's handle on one submitted job. Obtain the outcome with
/// [`Ticket::wait`] (blocking) or poll with [`Ticket::try_result`];
/// cancel a still-queued job with [`Ticket::cancel`]. Dropping a ticket
/// abandons the result but never the job — a submitted job always runs
/// (or expires/cancels) and is always counted.
pub struct Ticket {
    slot: Arc<JobSlot>,
    shared: Arc<EngineShared>,
}

impl Ticket {
    /// Blocks until the job resolves and returns its result.
    pub fn wait(self) -> Result<Outcome, ServiceError> {
        let mut state = self.slot.state.lock().expect("job slot lock");
        loop {
            if let JobState::Done(result) = &*state {
                return result.clone();
            }
            state = self.slot.done.wait(state).expect("job slot lock");
        }
    }

    /// Non-blocking poll: `None` while the job is queued or running.
    pub fn try_result(&self) -> Option<Result<Outcome, ServiceError>> {
        match &*self.slot.state.lock().expect("job slot lock") {
            JobState::Done(result) => Some(result.clone()),
            _ => None,
        }
    }

    /// Cancels the job if it is still queued. `true` when this call won
    /// the race (the job will never execute and [`Ticket::wait`] returns
    /// [`ServiceError::Cancelled`]); `false` when a worker already
    /// claimed or resolved it — cancellation never tears down running
    /// work.
    pub fn cancel(&self) -> bool {
        let mut state = self.slot.state.lock().expect("job slot lock");
        if matches!(*state, JobState::Pending) {
            *state = JobState::Done(Err(ServiceError::Cancelled));
            self.shared
                .metrics
                .cancelled
                .fetch_add(1, Ordering::Relaxed);
            self.slot.done.notify_all();
            true
        } else {
            false
        }
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match &*self.slot.state.lock().expect("job slot lock") {
            JobState::Pending => "pending",
            JobState::Running => "running",
            JobState::Done(Ok(_)) => "done",
            JobState::Done(Err(_)) => "failed",
        };
        f.debug_struct("Ticket").field("state", &state).finish()
    }
}

/// Configures and builds a [`ServiceEngine`]. Obtained from
/// [`ServiceEngine::builder`]; every knob has a serving-sane default.
#[derive(Clone)]
pub struct EngineBuilder {
    shards: usize,
    workers: usize,
    queue_capacity: usize,
    pool_capacity: usize,
    pool_byte_budget: Option<u64>,
    policy: AdmissionPolicy,
    leaf_threshold: Option<usize>,
    start_paused: bool,
    sink: Option<Arc<dyn SpanSink>>,
}

impl Default for EngineBuilder {
    fn default() -> EngineBuilder {
        let workers = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
        EngineBuilder {
            shards: 2,
            workers: workers.min(4),
            queue_capacity: 64,
            pool_capacity: 16,
            pool_byte_budget: None,
            policy: AdmissionPolicy::default(),
            leaf_threshold: None,
            start_paused: false,
            sink: None,
        }
    }
}

impl std::fmt::Debug for EngineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineBuilder")
            .field("shards", &self.shards)
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("pool_capacity", &self.pool_capacity)
            .field("pool_byte_budget", &self.pool_byte_budget)
            .field("policy", &self.policy)
            .field("leaf_threshold", &self.leaf_threshold)
            .field("start_paused", &self.start_paused)
            .field("span_sink", &self.sink.is_some())
            .finish()
    }
}

impl EngineBuilder {
    /// Number of independent pool shards (clamped to ≥ 1). Instances are
    /// hash-partitioned by topology fingerprint, so all specs of one
    /// network share a shard — and its respec-donor solvers.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Number of worker threads draining the queue (clamped to ≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Capacity of the job queue — the admission-control bound (clamped
    /// to ≥ 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Per-shard solver-pool capacity (clamped to ≥ 1 by the pool).
    pub fn pool_capacity(mut self, capacity: usize) -> Self {
        self.pool_capacity = capacity;
        self
    }

    /// Per-shard solver-pool **byte budget**: each shard's pool measures
    /// its resident solvers ([`duality_core::HeapSize`]) and evicts
    /// coldest-first until resident bytes fit the budget, in addition to
    /// the entry-count cap. `None` (the default) disables byte-based
    /// eviction.
    pub fn pool_byte_budget(mut self, budget: Option<u64>) -> Self {
        self.pool_byte_budget = budget;
        self
    }

    /// What a full queue does to a new submission (default:
    /// [`AdmissionPolicy::Block`]).
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// BDD leaf-threshold override applied to every solver the shards
    /// build (default: the paper's `Θ(D)` choice).
    pub fn leaf_threshold(mut self, threshold: Option<usize>) -> Self {
        self.leaf_threshold = threshold;
        self
    }

    /// Starts the engine with dispatch paused: submissions are admitted
    /// (and admission control applies) but no worker picks a job up until
    /// [`ServiceEngine::resume`]. Staged startup — and the lever that
    /// makes queue-depth and rejection tests deterministic.
    pub fn start_paused(mut self) -> Self {
        self.start_paused = true;
        self
    }

    /// Attaches a span sink: every job the engine resolves — completed,
    /// failed, expired, cancelled, or rejected at admission — emits
    /// exactly one [`SpanRecord`] into `sink` (see [`crate::span`] for
    /// the lifecycle-stamp semantics). No sink is attached by default;
    /// without one, span assembly is skipped entirely.
    pub fn span_sink(mut self, sink: Arc<dyn SpanSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Builds the engine and spawns its workers.
    ///
    /// # Errors
    ///
    /// [`DualityError::BadLeafThreshold`] when the leaf-threshold
    /// override is below the decomposition minimum.
    pub fn build(self) -> Result<ServiceEngine, DualityError> {
        let shards: Result<Vec<SolverPool>, DualityError> = (0..self.shards)
            .map(|_| {
                SolverPool::with_limits(
                    self.pool_capacity,
                    self.pool_byte_budget,
                    self.leaf_threshold,
                )
            })
            .collect();
        let shared = Arc::new(EngineShared {
            shards: shards?,
            queue: Scheduler::new(self.workers, self.queue_capacity, !self.start_paused),
            metrics: MetricsRegistry::new(self.shards, self.pool_capacity),
            epoch: Instant::now(),
            sink: self.sink,
        });
        let workers = (0..self.workers)
            .map(|i| spawn_worker(&shared, i))
            .collect();
        Ok(ServiceEngine {
            shared,
            workers,
            policy: self.policy,
        })
    }
}

/// Spawns one worker thread, counting it into the live-worker gauge at
/// the spawn site (so the gauge reads the built worker count as soon as
/// [`EngineBuilder::build`] returns, not only once each thread runs).
fn spawn_worker(shared: &Arc<EngineShared>, id: usize) -> JoinHandle<()> {
    shared.metrics.live_workers.fetch_add(1, Ordering::Relaxed);
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("duality-worker-{id}"))
        .spawn(move || worker_loop(&shared, id))
        .expect("spawn worker thread")
}

/// Everything the workers and tickets share with the engine handle.
struct EngineShared {
    shards: Vec<SolverPool>,
    /// The work-stealing scheduler (still named `queue`: it *is* the
    /// bounded admission queue, just spread over per-worker deques).
    queue: Scheduler<Job>,
    metrics: MetricsRegistry,
    /// The zero point of every span tick stamp (engine creation).
    epoch: Instant,
    /// Where resolved jobs emit their lifecycle span, if anywhere.
    sink: Option<Arc<dyn SpanSink>>,
}

impl EngineShared {
    /// Microseconds since the engine epoch (saturating both ways).
    fn stamp(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_micros()).unwrap_or(u64::MAX)
    }

    /// Assembles and emits the terminal span of `job` — one per job, at
    /// its terminal transition, outside every engine lock. No-op (and no
    /// span assembly) without an attached sink.
    fn emit_job_span(
        &self,
        job: &Job,
        worker: usize,
        state: SpanState,
        source: DequeueSource,
        dequeued_at: Instant,
        started_us: Option<u64>,
    ) {
        let Some(sink) = &self.sink else { return };
        let submitted_us = self.stamp(job.submitted_at);
        let admitted = job.slot.admitted_us.load(Ordering::Relaxed);
        sink.record(SpanRecord {
            tenant: job.key.topo_fingerprint(),
            spec: job.key.spec_hash(),
            query: query_kind(&job.query),
            shard: job.shard,
            worker: Some(worker),
            state,
            submitted_us,
            admitted_us: Some(if admitted == u64::MAX {
                submitted_us
            } else {
                admitted
            }),
            dequeued_us: Some(self.stamp(dequeued_at)),
            started_us,
            finished_us: self.stamp(Instant::now()),
            source: Some(source),
        });
    }
}

/// The sharded serving engine — see the [crate docs](crate) for the full
/// story and the module docs of [`crate::metrics`] for what it measures.
///
/// All entry points are `&self`; the engine is `Send + Sync` and is
/// normally shared behind an `Arc` (or borrowed across a
/// `std::thread::scope`) by every request-handler thread.
pub struct ServiceEngine {
    shared: Arc<EngineShared>,
    /// The worker threads, joined by the shutdown drain.
    workers: Vec<JoinHandle<()>>,
    /// What a full queue does to a submission, fixed at build.
    policy: AdmissionPolicy,
}

impl ServiceEngine {
    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Number of pool shards.
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// The shard a key routes to: `topo_fingerprint mod shards`. Stable
    /// for the lifetime of the engine, and spec-blind on purpose — every
    /// respec of one network lands on the shard that holds its
    /// respec-donor solver.
    pub fn shard_of(&self, key: &InstanceKey) -> usize {
        (key.topo_fingerprint() % self.shared.shards.len() as u64) as usize
    }

    /// Submits one job; the returned [`Ticket`] resolves asynchronously.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under [`AdmissionPolicy::Reject`] on a
    /// full queue; [`SubmitError::ShuttingDown`] after shutdown began.
    pub fn submit(
        &self,
        instance: &Arc<PlanarInstance>,
        query: Query,
    ) -> Result<Ticket, SubmitError> {
        self.submit_job(instance, query, None)
    }

    /// Submits one job with a deadline: if no worker has *started* the
    /// job by `deadline`, it resolves to [`ServiceError::Expired`]
    /// without executing. A job already running at its deadline runs to
    /// completion — started work is never torn down.
    ///
    /// # Errors
    ///
    /// As [`ServiceEngine::submit`].
    pub fn submit_with_deadline(
        &self,
        instance: &Arc<PlanarInstance>,
        query: Query,
        deadline: Instant,
    ) -> Result<Ticket, SubmitError> {
        self.submit_job(instance, query, Some(deadline))
    }

    fn submit_job(
        &self,
        instance: &Arc<PlanarInstance>,
        query: Query,
        deadline: Option<Instant>,
    ) -> Result<Ticket, SubmitError> {
        let key = InstanceKey::of(instance);
        let slot = Arc::new(JobSlot::new());
        let shard = self.shard_of(&key);
        let submitted_at = Instant::now();
        let job = Job {
            instance: Arc::clone(instance),
            query,
            key,
            shard,
            deadline,
            submitted_at,
            slot: Arc::clone(&slot),
        };
        let block = self.policy == AdmissionPolicy::Block;
        // Count the submission *before* the push: the moment the job is in
        // the queue a worker can complete it, and `completed > submitted`
        // must be unobservable even in a snapshot taken right then. A
        // refused push rolls the counter back before returning.
        self.shared
            .metrics
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        match self.shared.queue.push(job, block) {
            Ok(()) => {
                // The admission stamp (post-push: a blocked submitter was
                // parked inside the push). The worker reads it when the
                // job resolves; see `JobSlot::admitted_us` for the race.
                slot.admitted_us
                    .store(self.shared.stamp(Instant::now()), Ordering::Relaxed);
                Ok(Ticket {
                    slot,
                    shared: Arc::clone(&self.shared),
                })
            }
            Err(PushError::Full) => {
                self.shared
                    .metrics
                    .submitted
                    .fetch_sub(1, Ordering::Relaxed);
                self.shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                if let Some(sink) = &self.shared.sink {
                    // Rejected jobs never reach a worker, so the
                    // submitter emits their span.
                    sink.record(SpanRecord {
                        tenant: key.topo_fingerprint(),
                        spec: key.spec_hash(),
                        query: query_kind(&query),
                        shard,
                        worker: None,
                        state: SpanState::Rejected,
                        submitted_us: self.shared.stamp(submitted_at),
                        admitted_us: None,
                        dequeued_us: None,
                        started_us: None,
                        finished_us: self.shared.stamp(Instant::now()),
                        source: None,
                    });
                }
                Err(SubmitError::QueueFull)
            }
            Err(PushError::Closed) => {
                self.shared
                    .metrics
                    .submitted
                    .fetch_sub(1, Ordering::Relaxed);
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// Submit-and-wait convenience: one query through the whole engine
    /// (queue, worker, shard pool), blocking for the outcome.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NotAdmitted`] when admission refused the job;
    /// otherwise whatever the job resolved to.
    pub fn run(
        &self,
        instance: &Arc<PlanarInstance>,
        query: Query,
    ) -> Result<Outcome, ServiceError> {
        self.submit(instance, query)
            .map_err(ServiceError::NotAdmitted)?
            .wait()
    }

    /// The cached solver for `instance` from its home shard (admitting it
    /// on a miss) — the audit hatch: verification code can inspect the
    /// exact solver the engine's workers use, without going through the
    /// queue.
    pub fn solver(&self, instance: &Arc<PlanarInstance>) -> PlanarSolver {
        let shard = self.shard_of(&InstanceKey::of(instance));
        self.shared.shards[shard].solver(instance)
    }

    /// Per-shard pool counters, indexed by shard.
    pub fn shard_stats(&self) -> Vec<PoolStats> {
        self.shared.shards.iter().map(SolverPool::stats).collect()
    }

    /// The per-shard pool counters merged into one fleet-wide line.
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats::merged(&self.shard_stats())
    }

    /// Opens the start gate of a [paused](EngineBuilder::start_paused)
    /// engine. No-op when already running.
    pub fn resume(&self) {
        self.shared.queue.resume();
    }

    /// A point-in-time snapshot of every live metric.
    pub fn metrics(&self) -> MetricsSnapshot {
        let m = &self.shared.metrics;
        MetricsSnapshot {
            submitted: m.submitted.load(Ordering::Relaxed),
            completed: m.completed.load(Ordering::Relaxed),
            failed: m.failed.load(Ordering::Relaxed),
            rejected: m.rejected.load(Ordering::Relaxed),
            expired: m.expired.load(Ordering::Relaxed),
            cancelled: m.cancelled.load(Ordering::Relaxed),
            queue_depth: self.shared.queue.depth(),
            queue_high_water: self.shared.queue.high_water(),
            scheduler: self.shared.queue.stats(),
            running: m.running.load(Ordering::Relaxed),
            workers: usize::try_from(m.live_workers.load(Ordering::Relaxed)).unwrap_or(usize::MAX),
            latency: m.latency_snapshot(),
            shards: self
                .shared
                .shards
                .iter()
                .enumerate()
                .map(|(i, pool)| {
                    let (substrate_rounds, query_rounds) = m.shard_rounds(i);
                    ShardMetrics {
                        shard: i,
                        pool: pool.stats(),
                        substrate_rounds,
                        query_rounds,
                        substrate_phase_us: m.shard_phase_us(i),
                    }
                })
                .collect(),
        }
    }

    /// Graceful shutdown: stops admission, **drains** — every job already
    /// queued still executes (or expires / observes its cancellation) —
    /// joins the workers, and returns the final metrics snapshot.
    /// Dropping the engine performs the same drain implicitly; `shutdown`
    /// exists so callers can sequence after the drain and keep the final
    /// numbers.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.drain();
        self.metrics()
    }

    fn drain(&mut self) {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServiceEngine {
    fn drop(&mut self) {
        self.drain();
    }
}

impl std::fmt::Debug for ServiceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceEngine")
            .field("shards", &self.shared.shards.len())
            .field("workers", &self.workers.len())
            .field("policy", &self.policy)
            .field("queue_depth", &self.shared.queue.depth())
            .finish()
    }
}

/// What the claim block decided about a popped job (the span is emitted
/// after the slot lock is released, never under it).
enum Claim {
    Run,
    Expired,
    Cancelled,
}

/// One worker thread: pop → claim → (expire | execute) → resolve, until
/// the queue closes and drains; the live-worker gauge is decremented on
/// the way out.
///
/// Span emission piggybacks on the drain discipline: every admitted job
/// — including one cancelled while queued — is eventually popped by
/// exactly one worker, so emitting each job's span here (and only here)
/// yields exactly one span per admitted job with no cancel/expire race.
fn worker_loop(shared: &EngineShared, worker: usize) {
    while let Some((job, source)) = shared.queue.pop(worker) {
        let dequeued_at = Instant::now();
        let claim = {
            let mut state = job.slot.state.lock().expect("job slot lock");
            match *state {
                JobState::Pending => {
                    if job.deadline.is_some_and(|d| Instant::now() >= d) {
                        *state = JobState::Done(Err(ServiceError::Expired));
                        shared.metrics.expired.fetch_add(1, Ordering::Relaxed);
                        job.slot.done.notify_all();
                        Claim::Expired
                    } else {
                        *state = JobState::Running;
                        Claim::Run
                    }
                }
                // Cancelled while queued: the waiter was already notified.
                _ => Claim::Cancelled,
            }
        };
        match claim {
            Claim::Expired => {
                shared.emit_job_span(&job, worker, SpanState::Expired, source, dequeued_at, None);
                continue;
            }
            Claim::Cancelled => {
                shared.emit_job_span(
                    &job,
                    worker,
                    SpanState::Cancelled,
                    source,
                    dequeued_at,
                    None,
                );
                continue;
            }
            Claim::Run => {}
        }
        shared.metrics.running.fetch_add(1, Ordering::Relaxed);
        let started_at = Instant::now();
        // Contain panics: an unwinding worker must never leave the slot in
        // `Running` (which would hang the ticket's waiter forever) nor die
        // silently (which would shrink the fleet until shutdown hangs).
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.shards[job.shard].run(&job.instance, job.query)
        }));
        let elapsed_us = u64::try_from(job.submitted_at.elapsed().as_micros()).unwrap_or(u64::MAX);
        shared.metrics.latency.record(elapsed_us);
        let span_state = match &result {
            Ok(Ok(_)) => SpanState::Completed,
            _ => SpanState::Failed,
        };
        let result = match result {
            Ok(Ok(outcome)) => {
                let fresh = shared.metrics.bill(job.shard, job.key, outcome.rounds());
                shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
                // This job was the first to bill one or more substrate
                // build phases: emit their profiling spans (outside
                // every lock — the bill already committed the charge).
                if !fresh.is_empty() {
                    if let Some(sink) = &shared.sink {
                        let finished_us = shared.stamp(Instant::now());
                        for (phase, us) in fresh {
                            sink.record_phase(crate::span::PhaseSpan {
                                tenant: job.key.topo_fingerprint(),
                                spec: job.key.spec_hash(),
                                phase,
                                shard: job.shard,
                                worker,
                                us,
                                finished_us,
                            });
                        }
                    }
                }
                Ok(outcome)
            }
            Ok(Err(e)) => {
                shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Query(e))
            }
            Err(_) => {
                shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::ExecutionPanicked)
            }
        };
        shared.metrics.running.fetch_sub(1, Ordering::Relaxed);
        // Emit the span before resolving the slot so that once a caller
        // observes the job's outcome, its span is already in the sink.
        shared.emit_job_span(
            &job,
            worker,
            span_state,
            source,
            dequeued_at,
            Some(shared.stamp(started_at)),
        );
        job.slot.resolve(result);
    }
    shared.metrics.live_workers.fetch_sub(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use duality_planar::gen;

    fn instance(seed: u64) -> Arc<PlanarInstance> {
        let g = gen::diag_grid(4, 4, seed).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, seed);
        PlanarInstance::new(g, Some(caps), None).unwrap()
    }

    #[test]
    fn engine_is_send_sync_and_clamps_config() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServiceEngine>();
        assert_send_sync::<Ticket>();

        let engine = ServiceEngine::builder()
            .shards(0)
            .workers(0)
            .queue_capacity(0)
            .build()
            .unwrap();
        assert_eq!(engine.shard_count(), 1);
        assert_eq!(engine.metrics().workers, 1, "zero workers clamp to one");
        assert_eq!(engine.shutdown().workers, 0, "shutdown joins it");
        assert!(matches!(
            ServiceEngine::builder().leaf_threshold(Some(1)).build(),
            Err(DualityError::BadLeafThreshold { got: 1 })
        ));
    }

    #[test]
    fn submit_wait_roundtrip_matches_direct_run() {
        let engine = ServiceEngine::builder()
            .shards(2)
            .workers(2)
            .build()
            .unwrap();
        let i = instance(3);
        let t = i.n() - 1;
        let ticket = engine.submit(&i, Query::MaxFlow { s: 0, t }).unwrap();
        let got = ticket.wait().unwrap();
        let want = PlanarSolver::from_instance(Arc::clone(&i))
            .run(Query::MaxFlow { s: 0, t })
            .unwrap();
        assert_eq!(
            got.as_max_flow().unwrap().value,
            want.as_max_flow().unwrap().value
        );
        assert_eq!(
            got.as_max_flow().unwrap().flow,
            want.as_max_flow().unwrap().flow
        );
        let m = engine.shutdown();
        assert_eq!((m.submitted, m.completed), (1, 1));
        assert_eq!(m.latency.count, 1);
        assert!(m.query_rounds() > 0 && m.substrate_rounds() > 0);
    }

    #[test]
    fn query_errors_surface_as_service_errors() {
        let engine = ServiceEngine::builder().workers(1).build().unwrap();
        let i = instance(4);
        let err = engine.run(&i, Query::MaxFlow { s: 0, t: 0 }).unwrap_err();
        assert_eq!(
            err,
            ServiceError::Query(DualityError::BadEndpoints { s: 0, t: 0, n: 16 })
        );
        let m = engine.shutdown();
        assert_eq!((m.completed, m.failed), (0, 1));
        assert_eq!(m.query_rounds(), 0, "failed queries bill nothing");
    }

    #[test]
    fn reject_policy_refuses_beyond_capacity() {
        // Paused: nothing drains, so the third submission must bounce.
        let engine = ServiceEngine::builder()
            .workers(1)
            .queue_capacity(2)
            .admission(AdmissionPolicy::Reject)
            .start_paused()
            .build()
            .unwrap();
        let i = instance(5);
        let a = engine.submit(&i, Query::Girth).unwrap();
        let b = engine.submit(&i, Query::Girth).unwrap();
        assert_eq!(
            engine.submit(&i, Query::Girth).unwrap_err(),
            SubmitError::QueueFull
        );
        engine.resume();
        assert!(a.wait().is_ok() && b.wait().is_ok());
        let m = engine.shutdown();
        assert_eq!((m.submitted, m.completed, m.rejected), (2, 2, 1));
        assert_eq!(m.queue_high_water, 2);
    }

    #[test]
    fn deadlines_expire_unstarted_jobs() {
        let engine = ServiceEngine::builder()
            .workers(1)
            .start_paused()
            .build()
            .unwrap();
        let i = instance(6);
        // Already past due when the worker first sees it.
        let doomed = engine
            .submit_with_deadline(&i, Query::Girth, Instant::now())
            .unwrap();
        // Generous deadline: executes normally.
        let fine = engine
            .submit_with_deadline(
                &i,
                Query::Girth,
                Instant::now() + std::time::Duration::from_secs(600),
            )
            .unwrap();
        engine.resume();
        assert_eq!(doomed.wait().unwrap_err(), ServiceError::Expired);
        assert!(fine.wait().is_ok());
        let m = engine.shutdown();
        assert_eq!((m.expired, m.completed), (1, 1));
    }

    #[test]
    fn cancellation_wins_only_while_queued() {
        let engine = ServiceEngine::builder()
            .workers(1)
            .start_paused()
            .build()
            .unwrap();
        let i = instance(7);
        let ticket = engine.submit(&i, Query::Girth).unwrap();
        assert!(ticket.try_result().is_none(), "still queued");
        assert!(ticket.cancel(), "cancellable while queued");
        assert!(!ticket.cancel(), "second cancel loses");
        assert_eq!(
            ticket.try_result().unwrap().unwrap_err(),
            ServiceError::Cancelled
        );
        let survivor = engine.submit(&i, Query::Girth).unwrap();
        engine.resume();
        // Wait for resolution without consuming the ticket, then check
        // that a resolved ticket can no longer be cancelled.
        while survivor.try_result().is_none() {
            std::thread::yield_now();
        }
        assert!(!survivor.cancel(), "resolved tickets cannot be cancelled");
        assert!(survivor.wait().is_ok());
        let m = engine.shutdown();
        assert_eq!((m.cancelled, m.completed), (1, 1));
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let engine = ServiceEngine::builder()
            .shards(2)
            .workers(2)
            .start_paused()
            .build()
            .unwrap();
        let (a, b) = (instance(8), instance(9));
        let tickets: Vec<Ticket> = (0..6)
            .map(|j| {
                let i = if j % 2 == 0 { &a } else { &b };
                engine.submit(i, Query::Girth).unwrap()
            })
            .collect();
        assert_eq!(engine.metrics().workers, 2, "every built worker is live");
        // Shutdown on a *paused* engine: close releases the gate and the
        // backlog drains before the workers exit.
        let m = engine.shutdown();
        assert_eq!(m.workers, 0, "every worker left its loop");
        assert_eq!(m.running, 0, "nothing executing after the drain");
        assert_eq!((m.submitted, m.completed), (6, 6));
        assert_eq!(m.queue_depth, 0, "nothing left behind");
        assert_eq!(m.queue_high_water, 6);
        for t in tickets {
            assert!(t.wait().is_ok(), "every ticket resolved by the drain");
        }
    }

    #[test]
    fn submissions_after_shutdown_began_are_refused() {
        let engine = ServiceEngine::builder().workers(1).build().unwrap();
        let i = instance(10);
        // Simulate a racing submitter that arrives once shutdown closed
        // admission (the engine handle is still alive here, so this is
        // exactly the post-close, pre-join window).
        engine.shared.queue.close();
        assert_eq!(
            engine.submit(&i, Query::Girth).unwrap_err(),
            SubmitError::ShuttingDown
        );
        assert_eq!(
            engine.run(&i, Query::Girth).unwrap_err(),
            ServiceError::NotAdmitted(SubmitError::ShuttingDown)
        );
        let m = engine.shutdown();
        assert_eq!(m.submitted, 0);
    }

    /// A test sink that never drops: appends every span under a mutex
    /// (contention is irrelevant at test scale).
    #[derive(Default)]
    struct CollectSink(Mutex<Vec<crate::span::SpanRecord>>);

    impl crate::span::SpanSink for CollectSink {
        fn record(&self, span: crate::span::SpanRecord) {
            self.0.lock().expect("collect sink").push(span);
        }
    }

    #[test]
    fn every_terminal_state_emits_exactly_one_span() {
        use crate::span::SpanState;
        let sink = Arc::new(CollectSink::default());
        let engine = ServiceEngine::builder()
            .workers(1)
            .queue_capacity(3)
            .admission(AdmissionPolicy::Reject)
            .start_paused()
            .span_sink(Arc::clone(&sink) as Arc<dyn crate::span::SpanSink>)
            .build()
            .unwrap();
        let i = instance(30);
        let ok = engine.submit(&i, Query::Girth).unwrap();
        let doomed = engine
            .submit_with_deadline(&i, Query::Girth, Instant::now())
            .unwrap();
        let axed = engine.submit(&i, Query::Girth).unwrap();
        assert!(axed.cancel());
        // Queue full (capacity 3, all slots held): rejected at admission.
        assert_eq!(
            engine.submit(&i, Query::Girth).unwrap_err(),
            SubmitError::QueueFull
        );
        engine.resume();
        assert!(ok.wait().is_ok());
        assert_eq!(doomed.wait().unwrap_err(), ServiceError::Expired);
        let m = engine.shutdown();
        assert_eq!(
            (m.submitted, m.completed, m.expired, m.cancelled, m.rejected),
            (3, 1, 1, 1, 1)
        );

        let spans = sink.0.lock().unwrap();
        let count = |s: SpanState| spans.iter().filter(|r| r.state == s).count() as u64;
        // Exactly one span per job; admitted spans reconcile with
        // `submitted`, the rejection with `rejected`.
        assert_eq!(spans.len() as u64, m.submitted + m.rejected);
        assert_eq!(count(SpanState::Completed), m.completed);
        assert_eq!(count(SpanState::Expired), m.expired);
        assert_eq!(count(SpanState::Cancelled), m.cancelled);
        assert_eq!(count(SpanState::Rejected), m.rejected);

        for span in spans.iter() {
            assert_eq!(span.tenant, InstanceKey::of(&i).topo_fingerprint());
            assert_eq!(span.query, "girth");
            assert!(span.finished_us >= span.submitted_us);
            match span.state {
                SpanState::Completed => {
                    assert!(span.worker.is_some() && span.started_us.is_some());
                    let total = span.total_us();
                    assert_eq!(span.wait_us() + span.service_us().unwrap(), total);
                }
                SpanState::Rejected => {
                    assert!(span.worker.is_none() && span.admitted_us.is_none());
                    assert_eq!(span.service_us(), None);
                }
                _ => {
                    assert!(span.worker.is_some());
                    assert_eq!(span.started_us, None, "never executed");
                }
            }
        }
    }

    /// A phase-only sink: ignores job spans, collects build-phase spans.
    #[derive(Default)]
    struct PhaseCollectSink(Mutex<Vec<crate::span::PhaseSpan>>);

    impl crate::span::SpanSink for PhaseCollectSink {
        fn record(&self, _span: crate::span::SpanRecord) {}
        fn record_phase(&self, span: crate::span::PhaseSpan) {
            self.0.lock().expect("phase sink").push(span);
        }
    }

    #[test]
    fn substrate_build_phases_emit_profiling_spans_exactly_once() {
        let sink = Arc::new(PhaseCollectSink::default());
        let engine = ServiceEngine::builder()
            .shards(1)
            .workers(1)
            .span_sink(Arc::clone(&sink) as Arc<dyn crate::span::SpanSink>)
            .build()
            .unwrap();
        let i = instance(50);
        // Two jobs sharing one substrate: the build phases are emitted by
        // whichever job billed them first, and never again.
        let _ = engine.run(&i, Query::Girth).unwrap();
        let _ = engine.run(&i, Query::Girth).unwrap();
        engine.shutdown();
        let spans = sink.0.lock().unwrap();
        assert!(!spans.is_empty(), "the substrate build emitted phase spans");
        let mut names: Vec<&str> = spans.iter().map(|s| s.phase.as_str()).collect();
        names.sort_unstable();
        let mut unique = names.clone();
        unique.dedup();
        assert_eq!(names, unique, "each phase emitted exactly once: {names:?}");
        assert!(names.contains(&"embed"), "the embed phase always runs");
        for span in spans.iter() {
            assert_eq!(span.tenant, InstanceKey::of(&i).topo_fingerprint());
            assert_eq!(span.shard, 0);
            assert!(span
                .to_string()
                .starts_with(&format!("phase {}", span.phase)));
        }
    }

    #[test]
    fn failed_queries_emit_failed_spans_with_service_time() {
        use crate::span::SpanState;
        let sink = Arc::new(CollectSink::default());
        let engine = ServiceEngine::builder()
            .workers(1)
            .span_sink(Arc::clone(&sink) as Arc<dyn crate::span::SpanSink>)
            .build()
            .unwrap();
        let i = instance(31);
        let _ = engine.run(&i, Query::MaxFlow { s: 0, t: 0 }).unwrap_err();
        engine.shutdown();
        let spans = sink.0.lock().unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].state, SpanState::Failed);
        assert_eq!(spans[0].query, "max-flow");
        assert!(spans[0].service_us().is_some(), "it did execute");
    }

    #[test]
    fn sharding_routes_by_topology_and_respecs_stay_home() {
        let engine = ServiceEngine::builder()
            .shards(4)
            .workers(2)
            .build()
            .unwrap();
        let i = instance(11);
        let respec = i.with_capacities(vec![5; i.graph().num_darts()]).unwrap();
        let (k, kr) = (InstanceKey::of(&i), InstanceKey::of(&respec));
        let home = engine.shard_of(&k);
        assert_eq!(
            home,
            engine.shard_of(&kr),
            "spec changes never move an instance across shards"
        );
        let _ = engine.run(&i, Query::Girth).unwrap();
        let _ = engine.run(&respec, Query::Girth).unwrap();
        let m = engine.shutdown();
        assert_eq!(m.pool_total().respec_reuses, 1, "respec found its donor");
        assert_eq!(m.shards[home].pool.len, 2, "both specs cached at home");
        for (idx, shard) in m.shards.iter().enumerate() {
            if idx != home {
                assert_eq!(shard.pool.len, 0, "other shards never touched");
            }
        }
    }

    #[test]
    fn stealing_workers_drain_a_paused_backlog_exactly_once() {
        let engine = ServiceEngine::builder()
            .shards(2)
            .workers(4)
            .queue_capacity(64)
            .start_paused()
            .build()
            .unwrap();
        let (a, b) = (instance(43), instance(44));
        let tickets: Vec<Ticket> = (0..32)
            .map(|j| {
                let i = if j % 2 == 0 { &a } else { &b };
                engine.submit(i, Query::Girth).unwrap()
            })
            .collect();
        assert_eq!(
            engine.metrics().queue_depth,
            32,
            "depth is exact: deques + injector summed at submit time"
        );
        engine.resume();
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        let m = engine.shutdown();
        assert_eq!((m.submitted, m.completed), (32, 32));
        assert_eq!(m.queue_high_water, 32);
        assert_eq!(m.queue_depth, 0);
        // Four workers racing over a 32-job backlog: the idle ones
        // either stole or parked, and the ledger reconciles exactly.
        let s = m.scheduler;
        assert!(
            s.steals + s.parks > 0,
            "a multi-worker drain exercises the scheduler: {s:?}"
        );
    }
}
