//! The work-stealing scheduler: bounded admission over per-worker
//! deques, a global overflow injector, and a parker that wakes exactly
//! one idle worker per submit.
//!
//! # Shape
//!
//! ```text
//!   submit ──admit (depth CAS vs capacity)──▶ round-robin deque push
//!                                               │ full? ──▶ injector
//!                                               ▼
//!   worker w: own deque (LIFO) ─▶ injector (FIFO) ─▶ steal siblings (FIFO)
//! ```
//!
//! Admission is a single atomic depth counter checked against capacity,
//! so `depth`/`high_water` are **exact at submit time** — summed when a
//! job is admitted, not sampled from the deques later. The deques and
//! the injector only decide *where* an already-admitted job waits.
//!
//! # Wakeup protocol
//!
//! Both lifecycle flags (the pause gate's `started`, and `closed`) go
//! from false to true only, under the `gate` mutex before notifying,
//! and waiters re-check them under the same mutex, so lifecycle wakeups
//! cannot be missed.
//! The submit fast path, however, does *not* take the gate: it checks
//! `parked > 0` lock-free and only locks to notify when a worker is
//! actually parked. That check races with a worker deciding to park, so
//! both sides run a Dekker-style handshake through `SeqCst` operations:
//! the parker increments `parked` and *then* re-reads `depth` (under
//! the gate), the submitter increments `depth` and *then* reads
//! `parked`. The total `SeqCst` order guarantees at least one side sees
//! the other — either the submitter locks the gate and its notify lands
//! (the parker is in `wait`, or will re-check `depth` after the gate is
//! released), or the parker sees the new depth and never parks. Blocked
//! pushers and `claim` run the mirrored handshake on `pushers`/`depth`.

use crate::deque::StealDeque;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// How many jobs a thief migrates per successful steal (at most half of
/// the victim's queue): the first is returned, the rest land in the
/// thief's own deque so its next pops stay local.
const STEAL_BATCH: usize = 4;

/// How many injector jobs a worker drains per visit (one returned, the
/// followers shelved locally).
const INJECTOR_BATCH: usize = 4;

/// How long a worker naps when the depth counter shows admitted jobs
/// that are not visible in any deque yet (a submit is mid-flight
/// between admission and its deque push, or a sibling popped a job it
/// has not claimed). The window is nanoseconds-wide in practice; the
/// nap just bounds the rescan spin.
const INFLIGHT_NAP: Duration = Duration::from_micros(200);

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The scheduler is at capacity and the caller declined to block.
    Full,
    /// The scheduler has been closed; no new work is admitted.
    Closed,
}

/// Where a dequeued job came from, stamped into telemetry spans so
/// dequeue attribution stays exact under stealing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DequeueSource {
    /// Popped from the worker's own deque (hot end). Jobs a thief
    /// shelves locally after a batch steal also pop as `Local`.
    Local,
    /// Taken from the global overflow injector.
    Injector,
    /// Stolen from a sibling worker's deque (cold end).
    Stolen,
}

impl DequeueSource {
    /// Stable lowercase name, for logs and serialized spans.
    pub fn name(self) -> &'static str {
        match self {
            DequeueSource::Local => "local",
            DequeueSource::Injector => "injector",
            DequeueSource::Stolen => "stolen",
        }
    }
}

impl fmt::Display for DequeueSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Scheduler activity counters, all monotonic since construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Jobs migrated from a sibling's deque (every job of a batch
    /// steal counts).
    pub steals: u64,
    /// Steal attempts that found the victim's deque empty.
    pub steal_fails: u64,
    /// Jobs routed to the global injector because the target deque was
    /// full.
    pub injector_overflows: u64,
    /// Times a worker parked on the idle condvar.
    pub parks: u64,
    /// Submit-driven single wakeups of a parked worker.
    pub unparks: u64,
}

impl fmt::Display for SchedStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} steals ({} failed), {} injector overflows, {} parks / {} unparks",
            self.steals, self.steal_fails, self.injector_overflows, self.parks, self.unparks
        )
    }
}

#[derive(Debug, Default)]
struct Counters {
    steals: AtomicU64,
    steal_fails: AtomicU64,
    injector_overflows: AtomicU64,
    parks: AtomicU64,
    unparks: AtomicU64,
}

/// A bounded MPMC work-stealing scheduler.
///
/// Semantics mirror a bounded job queue — capacity clamps to ≥ 1,
/// non-blocking pushes refuse with [`PushError::Full`], blocking pushes
/// park until space or close, a pause gate buffers admitted work until
/// [`resume`](Scheduler::resume), and [`close`](Scheduler::close)
/// drains then yields sticky `None` — but dequeues run over per-worker
/// stealing deques instead of one global mutex queue.
#[derive(Debug)]
pub struct Scheduler<T> {
    /// One deque per worker, indexed by worker id; fixed at build.
    deques: Vec<StealDeque<T>>,
    injector: Mutex<VecDeque<T>>,
    /// Jobs admitted and not yet claimed by a worker. The sole
    /// admission authority: pushes CAS this against `capacity`.
    depth: AtomicUsize,
    high_water: AtomicUsize,
    capacity: usize,
    closed: AtomicBool,
    started: AtomicBool,
    gate: Mutex<()>,
    not_empty: Condvar,
    not_full: Condvar,
    /// Workers currently in the idle wait. Incremented only under the
    /// gate mutex; read lock-free by the submit path.
    parked: AtomicUsize,
    /// Pushers currently blocked on `not_full`. Incremented only under
    /// the gate mutex; read lock-free by `claim`.
    pushers: AtomicUsize,
    /// Round-robin cursor for spreading submissions across deques.
    cursor: AtomicUsize,
    counters: Counters,
}

impl<T> Scheduler<T> {
    /// A scheduler for `workers` workers sharing `capacity` admission
    /// slots (both clamped ≥ 1). When `started` is false the pause gate
    /// is closed: pushes are admitted and buffered but no job is handed
    /// to a worker until [`resume`](Scheduler::resume) or
    /// [`close`](Scheduler::close). Per-worker deques default to an
    /// even share of the capacity (at least 8); the injector absorbs
    /// any imbalance.
    pub fn new(workers: usize, capacity: usize, started: bool) -> Scheduler<T> {
        let capacity = capacity.max(1);
        let workers = workers.max(1);
        let deque_capacity = capacity.div_ceil(workers).max(8);
        Scheduler::with_deque_capacity(workers, capacity, deque_capacity, started)
    }

    /// As [`new`](Scheduler::new), with an explicit per-deque bound —
    /// mainly for tests that want to force injector overflow.
    pub fn with_deque_capacity(
        workers: usize,
        capacity: usize,
        deque_capacity: usize,
        started: bool,
    ) -> Scheduler<T> {
        let deques = (0..workers.max(1))
            .map(|_| StealDeque::new(deque_capacity))
            .collect();
        Scheduler {
            deques,
            injector: Mutex::new(VecDeque::new()),
            depth: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
            capacity: capacity.max(1),
            closed: AtomicBool::new(false),
            started: AtomicBool::new(started),
            gate: Mutex::new(()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            parked: AtomicUsize::new(0),
            pushers: AtomicUsize::new(0),
            cursor: AtomicUsize::new(0),
            counters: Counters::default(),
        }
    }

    /// Total admission slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs admitted and not yet claimed by a worker — exact, because
    /// admission itself maintains the counter.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// The maximum `depth` ever reached, recorded at admission time.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// A snapshot of the activity counters.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            steals: self.counters.steals.load(Ordering::Relaxed),
            steal_fails: self.counters.steal_fails.load(Ordering::Relaxed),
            injector_overflows: self.counters.injector_overflows.load(Ordering::Relaxed),
            parks: self.counters.parks.load(Ordering::Relaxed),
            unparks: self.counters.unparks.load(Ordering::Relaxed),
        }
    }

    /// Submits one job. With `block`, parks until an admission slot
    /// frees or the scheduler closes; without, refuses immediately with
    /// [`PushError::Full`]. Exactly one parked worker is woken.
    pub fn push(&self, job: T, block: bool) -> Result<(), PushError> {
        self.admit(block)?;
        self.deliver(job);
        self.wake();
        Ok(())
    }

    /// One worker's dequeue: own deque first (LIFO), then the injector,
    /// then batch-steals from siblings (FIFO). Returns the job with
    /// where it was found. Blocks while the scheduler is paused or
    /// empty; returns `None` (sticky) once the scheduler is closed
    /// *and* drained.
    ///
    /// # Panics
    ///
    /// When `worker` is not below the worker count the scheduler was
    /// built with.
    pub fn pop(&self, worker: usize) -> Option<(T, DequeueSource)> {
        loop {
            // The pause gate holds dispatch until resume or close. A set
            // flag is final, so only a scheduler still paused takes the
            // gate, and it re-checks both flags under it before waiting.
            if !self.dispatching() {
                let mut gate = self.gate.lock().expect("sched gate");
                while !self.dispatching() {
                    gate = self.not_empty.wait(gate).expect("sched gate");
                }
            }
            if let Some(popped) = self.try_dequeue(worker) {
                self.claim();
                return Some(popped);
            }
            // Nothing visible anywhere: decide between ending, parking,
            // and a bounded in-flight nap — under the gate, so lifecycle
            // notifies cannot slip between the checks and the wait.
            let gate = self.gate.lock().expect("sched gate");
            if self.depth.load(Ordering::SeqCst) == 0 {
                if self.closed.load(Ordering::SeqCst) {
                    return None;
                }
                // Dekker handshake with `push`: advertise the park,
                // then re-check depth before actually waiting.
                self.parked.fetch_add(1, Ordering::SeqCst);
                if self.depth.load(Ordering::SeqCst) > 0 {
                    self.parked.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                self.counters.parks.fetch_add(1, Ordering::Relaxed);
                let parked_gate = self.not_empty.wait(gate).expect("sched gate");
                self.parked.fetch_sub(1, Ordering::SeqCst);
                drop(parked_gate);
            } else {
                // Admitted but invisible: a submit is mid-flight or a
                // sibling holds an unclaimed pop. Nap briefly, rescan.
                let (napped_gate, _) = self
                    .not_empty
                    .wait_timeout(gate, INFLIGHT_NAP)
                    .expect("sched gate");
                drop(napped_gate);
            }
        }
    }

    /// Opens the pause gate: buffered and future jobs dispatch.
    pub fn resume(&self) {
        let _gate = self.gate.lock().expect("sched gate");
        self.started.store(true, Ordering::SeqCst);
        self.not_empty.notify_all();
    }

    /// Closes the scheduler: new pushes refuse with
    /// [`PushError::Closed`], blocked pushers are released, workers
    /// drain everything already admitted (the pause gate no longer
    /// holds them), then see sticky `None`.
    pub fn close(&self) {
        let _gate = self.gate.lock().expect("sched gate");
        self.closed.store(true, Ordering::SeqCst);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether the pause gate lets jobs out: resumed, or closed (a
    /// closed scheduler drains even if it was never resumed).
    fn dispatching(&self) -> bool {
        self.started.load(Ordering::SeqCst) || self.closed.load(Ordering::SeqCst)
    }

    /// Reserves one admission slot, parking while full if `block`.
    fn admit(&self, block: bool) -> Result<(), PushError> {
        loop {
            if self.closed.load(Ordering::SeqCst) {
                return Err(PushError::Closed);
            }
            if self.try_admit() {
                return Ok(());
            }
            if !block {
                return Err(PushError::Full);
            }
            self.park_pusher()?;
        }
    }

    /// CAS-reserves one admission slot, recording the exact high-water
    /// mark at success. Returns whether the slot was granted.
    fn try_admit(&self) -> bool {
        let mut depth = self.depth.load(Ordering::SeqCst);
        loop {
            if depth >= self.capacity {
                return false;
            }
            match self.depth.compare_exchange_weak(
                depth,
                depth + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    self.high_water.fetch_max(depth + 1, Ordering::Relaxed);
                    return true;
                }
                Err(current) => depth = current,
            }
        }
    }

    /// Parks the calling pusher until a slot may have freed. Returns
    /// `Ok` to retry admission, `Err` when the scheduler closed. The
    /// mirrored Dekker handshake with `claim`: advertise on `pushers`,
    /// then re-check capacity under the gate before waiting.
    fn park_pusher(&self) -> Result<(), PushError> {
        let gate = self.gate.lock().expect("sched gate");
        if self.closed.load(Ordering::SeqCst) {
            return Err(PushError::Closed);
        }
        self.pushers.fetch_add(1, Ordering::SeqCst);
        if self.depth.load(Ordering::SeqCst) < self.capacity {
            self.pushers.fetch_sub(1, Ordering::SeqCst);
            return Ok(());
        }
        let gate = self.not_full.wait(gate).expect("sched gate");
        self.pushers.fetch_sub(1, Ordering::SeqCst);
        drop(gate);
        Ok(())
    }

    /// Releases one admission slot after a successful dequeue and
    /// notifies a blocked pusher if any is advertised.
    fn claim(&self) {
        self.depth.fetch_sub(1, Ordering::SeqCst);
        if self.pushers.load(Ordering::SeqCst) > 0 {
            let _gate = self.gate.lock().expect("sched gate");
            self.not_full.notify_one();
        }
    }

    /// Places one admitted job: the next deque in round-robin order,
    /// overflowing to the injector when it is full.
    fn deliver(&self, job: T) {
        let next = self.cursor.fetch_add(1, Ordering::Relaxed);
        if let Err(job) = self.deques[next % self.deques.len()].push(job) {
            self.counters
                .injector_overflows
                .fetch_add(1, Ordering::Relaxed);
            self.injector.lock().expect("sched injector").push_back(job);
        }
    }

    /// Wakes one parked worker — never the whole herd. Skips the gate
    /// lock entirely when nobody is parked (the Dekker handshake in `pop`
    /// covers the race).
    fn wake(&self) {
        if self.parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        let _gate = self.gate.lock().expect("sched gate");
        self.not_empty.notify_one();
        self.counters.unparks.fetch_add(1, Ordering::Relaxed);
    }

    /// One full dequeue scan for `worker`: local pop, injector drain,
    /// then batch steals from siblings.
    fn try_dequeue(&self, worker: usize) -> Option<(T, DequeueSource)> {
        let own = &self.deques[worker];
        if let Some(job) = own.pop() {
            return Some((job, DequeueSource::Local));
        }
        if let Some(job) = self.drain_injector(own) {
            return Some((job, DequeueSource::Injector));
        }
        let n = self.deques.len();
        for offset in 1..n {
            let victim = &self.deques[(worker + offset) % n];
            let mut batch = victim.steal_batch(STEAL_BATCH);
            if batch.is_empty() {
                self.counters.steal_fails.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.counters
                .steals
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            let job = batch.remove(0);
            self.shelve(own, batch);
            return Some((job, DequeueSource::Stolen));
        }
        None
    }

    /// Pops one injector job, moving a few followers into the worker's
    /// own deque so its next pops stay local.
    fn drain_injector(&self, own: &StealDeque<T>) -> Option<T> {
        let mut injector = self.injector.lock().expect("sched injector");
        let job = injector.pop_front()?;
        let mut followers = Vec::new();
        while followers.len() + 1 < INJECTOR_BATCH {
            match injector.pop_front() {
                Some(next) => followers.push(next),
                None => break,
            }
        }
        drop(injector);
        self.shelve(own, followers);
        Some(job)
    }

    /// Parks surplus batch jobs in the worker's own deque, overflowing
    /// back to the injector when it is full.
    fn shelve(&self, own: &StealDeque<T>, batch: Vec<T>) {
        let mut overflow = Vec::new();
        for job in batch {
            if let Err(back) = own.push(job) {
                overflow.push(back);
            }
        }
        if !overflow.is_empty() {
            self.counters
                .injector_overflows
                .fetch_add(overflow.len() as u64, Ordering::Relaxed);
            let mut injector = self.injector.lock().expect("sched injector");
            for job in overflow {
                injector.push_back(job);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    /// Drains every job reachable by `worker`, returning the payloads
    /// and sources in pop order. Stops at `None`.
    fn drain_jobs(sched: &Scheduler<u32>, worker: usize) -> Vec<(u32, DequeueSource)> {
        std::iter::from_fn(|| sched.pop(worker)).collect()
    }

    #[test]
    fn owner_pops_lifo_and_accounting_is_exact() {
        let sched: Scheduler<u32> = Scheduler::new(1, 4, true);
        for job in [1, 2, 3] {
            sched.push(job, false).unwrap();
        }
        assert_eq!(sched.depth(), 3);
        assert_eq!(sched.high_water(), 3);
        // One worker, one deque: owner order is LIFO.
        assert_eq!(sched.pop(0), Some((3, DequeueSource::Local)));
        assert_eq!(sched.depth(), 2);
        sched.push(9, false).unwrap();
        assert_eq!(sched.pop(0), Some((9, DequeueSource::Local)));
        assert_eq!(sched.pop(0), Some((2, DequeueSource::Local)));
        assert_eq!(sched.pop(0), Some((1, DequeueSource::Local)));
        assert_eq!(sched.depth(), 0);
        assert_eq!(sched.high_water(), 3, "high water is a running maximum");
    }

    #[test]
    fn nonblocking_push_refuses_when_full() {
        let sched: Scheduler<u32> = Scheduler::new(1, 2, true);
        sched.push(1, false).unwrap();
        sched.push(2, false).unwrap();
        assert_eq!(sched.push(3, false), Err(PushError::Full));
        assert_eq!(sched.depth(), 2);
        assert_eq!(sched.high_water(), 2);
    }

    #[test]
    fn capacity_clamps_to_one() {
        let sched: Scheduler<u32> = Scheduler::new(1, 0, true);
        assert_eq!(sched.capacity(), 1);
        sched.push(1, false).unwrap();
        assert_eq!(sched.push(2, false), Err(PushError::Full));
    }

    #[test]
    fn close_drains_across_workers_then_sticks() {
        let sched: Scheduler<u32> = Scheduler::new(2, 8, true);
        for job in 0..4 {
            sched.push(job, false).unwrap();
        }
        sched.close();
        assert_eq!(sched.push(99, false), Err(PushError::Closed));
        assert_eq!(sched.push(99, true), Err(PushError::Closed));
        // One worker drains everything — its own deque plus steals from
        // the idle sibling's.
        let drained = drain_jobs(&sched, 0);
        let mut jobs: Vec<u32> = drained.iter().map(|(job, _)| *job).collect();
        jobs.sort_unstable();
        assert_eq!(jobs, vec![0, 1, 2, 3], "close drains, loses nothing");
        assert!(
            drained
                .iter()
                .any(|(_, source)| *source == DequeueSource::Stolen),
            "draining a sibling's deque is attributed to stealing"
        );
        assert_eq!(sched.pop(0), None);
        assert_eq!(sched.pop(1), None, "end-of-queue is sticky for everyone");
        assert!(sched.stats().steals >= 1);
    }

    #[test]
    fn paused_scheduler_buffers_until_resume() {
        let sched: Arc<Scheduler<u32>> = Arc::new(Scheduler::new(1, 8, false));
        sched.push(5, false).unwrap();
        let popper = {
            let sched = Arc::clone(&sched);
            thread::spawn(move || sched.pop(0))
        };
        // The popper parks at the gate; buffered work is withheld.
        thread::sleep(Duration::from_millis(30));
        assert!(!popper.is_finished(), "paused scheduler hands out nothing");
        sched.resume();
        assert_eq!(popper.join().unwrap(), Some((5, DequeueSource::Local)));
    }

    #[test]
    fn close_releases_the_pause_gate() {
        let sched: Arc<Scheduler<u32>> = Arc::new(Scheduler::new(1, 8, false));
        sched.push(7, false).unwrap();
        let popper = {
            let sched = Arc::clone(&sched);
            thread::spawn(move || (sched.pop(0), sched.pop(0)))
        };
        thread::sleep(Duration::from_millis(20));
        sched.close();
        let (first, second) = popper.join().unwrap();
        assert_eq!(
            first,
            Some((7, DequeueSource::Local)),
            "close drains buffered work even if never resumed"
        );
        assert_eq!(second, None);
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let sched: Arc<Scheduler<u32>> = Arc::new(Scheduler::new(1, 1, true));
        sched.push(1, true).unwrap();
        let pusher = {
            let sched = Arc::clone(&sched);
            thread::spawn(move || sched.push(2, true))
        };
        thread::sleep(Duration::from_millis(30));
        assert!(!pusher.is_finished(), "full scheduler blocks the pusher");
        assert_eq!(sched.pop(0), Some((1, DequeueSource::Local)));
        assert_eq!(pusher.join().unwrap(), Ok(()));
        assert_eq!(sched.pop(0), Some((2, DequeueSource::Local)));
        assert_eq!(sched.high_water(), 1, "never more than capacity admitted");
    }

    #[test]
    fn close_releases_a_blocked_pusher() {
        let sched: Arc<Scheduler<u32>> = Arc::new(Scheduler::new(1, 1, true));
        sched.push(1, true).unwrap();
        let pusher = {
            let sched = Arc::clone(&sched);
            thread::spawn(move || sched.push(2, true))
        };
        thread::sleep(Duration::from_millis(20));
        sched.close();
        assert_eq!(pusher.join().unwrap(), Err(PushError::Closed));
    }

    #[test]
    fn submissions_spread_and_siblings_steal() {
        let sched: Scheduler<u32> = Scheduler::new(2, 16, true);
        for job in 0..6 {
            sched.push(job, false).unwrap();
        }
        assert_eq!(sched.deques[0].len(), 3, "round-robin spreads evenly");
        assert_eq!(sched.deques[1].len(), 3);
        // Worker 0 drains everything alone: locals first, then steals.
        let drained = drain_jobs_until_empty(&sched, 0);
        assert_eq!(drained.len(), 6);
        let stolen = drained
            .iter()
            .filter(|(_, source)| *source == DequeueSource::Stolen)
            .count();
        assert!(stolen >= 1);
        let stats = sched.stats();
        assert_eq!(stats.steals, 3, "every migrated job counts as a steal");
        assert_eq!(sched.depth(), 0);
    }

    /// Pops exactly while jobs remain admitted (avoids parking forever
    /// on a scheduler that is never closed).
    fn drain_jobs_until_empty(sched: &Scheduler<u32>, worker: usize) -> Vec<(u32, DequeueSource)> {
        let mut out = Vec::new();
        while sched.depth() > 0 {
            out.push(sched.pop(worker).expect("a job while depth > 0"));
        }
        out
    }

    #[test]
    fn full_deque_overflows_to_the_injector() {
        let sched: Scheduler<u32> = Scheduler::with_deque_capacity(1, 8, 2, true);
        for job in 0..5 {
            sched.push(job, false).unwrap();
        }
        assert_eq!(sched.stats().injector_overflows, 3);
        assert_eq!(sched.depth(), 5, "depth spans deques plus injector");
        let drained = drain_jobs_until_empty(&sched, 0);
        assert_eq!(drained.len(), 5, "injector jobs are not lost");
        assert!(drained
            .iter()
            .any(|(_, source)| *source == DequeueSource::Injector));
        let mut jobs: Vec<u32> = drained.iter().map(|(job, _)| *job).collect();
        jobs.sort_unstable();
        assert_eq!(jobs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn concurrent_drain_loses_nothing_and_duplicates_nothing() {
        let sched: Arc<Scheduler<u64>> = Arc::new(Scheduler::new(4, 64, true));
        let total: u64 = 200;
        let poppers: Vec<_> = (0..4)
            .map(|worker| {
                let sched = Arc::clone(&sched);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some((job, _)) = sched.pop(worker) {
                        got.push(job);
                    }
                    got
                })
            })
            .collect();
        for job in 0..total {
            sched.push(job, true).unwrap();
        }
        sched.close();
        let mut all: Vec<u64> = poppers
            .into_iter()
            .flat_map(|popper| popper.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..total).collect::<Vec<_>>());
        assert_eq!(sched.depth(), 0);
    }

    #[test]
    fn stats_display_is_stable() {
        let stats = SchedStats {
            steals: 5,
            steal_fails: 2,
            injector_overflows: 1,
            parks: 7,
            unparks: 6,
        };
        assert_eq!(
            stats.to_string(),
            "5 steals (2 failed), 1 injector overflows, 7 parks / 6 unparks"
        );
    }
}
