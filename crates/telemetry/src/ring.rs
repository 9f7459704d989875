//! The bounded ring-buffer span sink — the only telemetry component on
//! the engine's hot path, so its contract is: **bounded work, no lost
//! spans while there is room**.
//!
//! [`RingSink::record`] takes the buffer lock and holds it for an O(1)
//! push; every other critical section is O(1) too ([`RingSink::drain`]
//! swaps in an empty buffer and converts the old one outside the lock),
//! so a producer waits at most a few pushes. The only way to lose a span
//! is a full ring, which overwrites its oldest span (counted as a drop —
//! the span existed and was lost). A poisoned lock is recovered: the
//! buffer holds plain values that a panicking holder cannot leave torn.

use duality_service::span::{PhaseSpan, SpanRecord, SpanSink};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Fixed-capacity overwrite-oldest span buffer. Cheap to share: hand
/// `Arc<RingSink>` to
/// [`EngineBuilder::span_sink`](duality_service::EngineBuilder::span_sink)
/// and keep a clone for draining.
///
/// Job spans and substrate build-phase spans buffer in **separate
/// rings** (each of `capacity`) so a burst of one kind never evicts the
/// other; both obey the same overwrite-oldest / drop-and-count contract
/// and share the drop counter.
pub struct RingSink {
    capacity: usize,
    ring: Mutex<VecDeque<SpanRecord>>,
    /// Substrate build-phase profiling spans (the rarer kind: one per
    /// phase per build, not one per job).
    phase_ring: Mutex<VecDeque<PhaseSpan>>,
    /// Spans offered to the sink ([`SpanSink::record`] +
    /// [`SpanSink::record_phase`] calls).
    seen: AtomicU64,
    /// Spans lost: overwritten by a later span before any consumer
    /// drained them (either kind).
    dropped: AtomicU64,
}

/// Locks a ring, recovering it if a holder panicked.
fn lock<T>(ring: &Mutex<T>) -> MutexGuard<'_, T> {
    ring.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Pushes `span`, overwriting the oldest one when the ring is full;
/// returns whether a span was overwritten.
fn push<T>(ring: &Mutex<VecDeque<T>>, capacity: usize, span: T) -> bool {
    let mut ring = lock(ring);
    let full = ring.len() == capacity;
    if full {
        ring.pop_front();
    }
    ring.push_back(span);
    full
}

impl RingSink {
    /// A ring holding at most `capacity` spans (clamped to ≥ 1).
    pub fn new(capacity: usize) -> RingSink {
        let capacity = capacity.max(1);
        RingSink {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            phase_ring: Mutex::new(VecDeque::new()),
            seen: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Takes every buffered span, oldest first. The lock is held only to
    /// swap in an empty buffer (allocated before locking).
    pub fn drain(&self) -> Vec<SpanRecord> {
        let fresh = VecDeque::with_capacity(self.capacity);
        let taken = std::mem::replace(&mut *lock(&self.ring), fresh);
        taken.into()
    }

    /// Takes every buffered build-phase span, oldest first (same O(1)
    /// swap as [`RingSink::drain`]).
    pub fn drain_phases(&self) -> Vec<PhaseSpan> {
        let taken = std::mem::take(&mut *lock(&self.phase_ring));
        taken.into()
    }

    /// Spans offered to the sink so far.
    pub fn seen(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }

    /// Spans lost to overwrite. `seen - dropped` is what a prompt consumer
    /// collects.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Spans currently buffered.
    pub fn len(&self) -> usize {
        lock(&self.ring).len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl SpanSink for RingSink {
    fn record(&self, span: SpanRecord) {
        self.seen.fetch_add(1, Ordering::Relaxed);
        if push(&self.ring, self.capacity, span) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn record_phase(&self, span: PhaseSpan) {
        self.seen.fetch_add(1, Ordering::Relaxed);
        if push(&self.phase_ring, self.capacity, span) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duality_service::span::SpanState;

    fn span(i: u64) -> SpanRecord {
        SpanRecord {
            tenant: 1,
            spec: i,
            query: "girth",
            shard: 0,
            worker: Some(0),
            state: SpanState::Completed,
            submitted_us: i,
            admitted_us: Some(i),
            dequeued_us: Some(i + 1),
            started_us: Some(i + 2),
            finished_us: i + 5,
            source: Some(duality_service::DequeueSource::Local),
        }
    }

    #[test]
    fn overflow_overwrites_oldest_and_counts_drops() {
        let ring = RingSink::new(3);
        for i in 0..5 {
            ring.record(span(i));
        }
        assert_eq!(ring.seen(), 5);
        assert_eq!(ring.dropped(), 2, "two oldest overwritten");
        let drained = ring.drain();
        let specs: Vec<u64> = drained.iter().map(|s| s.spec).collect();
        assert_eq!(specs, vec![2, 3, 4], "newest survive, oldest first");
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 2, "drain is not a drop");
    }

    #[test]
    fn concurrent_producers_lose_nothing_while_the_ring_has_room() {
        let ring = RingSink::new(4 * 500);
        let guard = ring.ring.lock().unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..500 {
                        ring.record(span(t * 1000 + i));
                    }
                });
            }
            // Hold the lock until every producer has offered its first
            // span, so each first record meets a contended ring.
            while ring.seen() < 4 {
                std::thread::yield_now();
            }
            drop(guard);
        });
        assert_eq!((ring.seen(), ring.dropped()), (2000, 0));
        assert_eq!(ring.drain().len(), 2000, "every span was buffered");
    }

    #[test]
    fn a_poisoned_ring_keeps_recording() {
        let ring = RingSink::new(4);
        ring.record(span(0));
        let _ = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = ring.ring.lock();
                    panic!("a holder panics");
                })
                .join()
        });
        assert!(ring.ring.is_poisoned());
        ring.record(span(1));
        let specs: Vec<u64> = ring.drain().iter().map(|s| s.spec).collect();
        assert_eq!(specs, vec![0, 1]);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn phase_spans_buffer_separately_with_shared_drop_accounting() {
        let ring = RingSink::new(2);
        let phase = |i: u64| PhaseSpan {
            tenant: 1,
            spec: 1,
            phase: format!("phase-{i}"),
            shard: 0,
            worker: 0,
            us: i,
            finished_us: i,
        };
        for i in 0..3 {
            ring.record_phase(phase(i));
        }
        ring.record(span(9));
        assert_eq!(ring.seen(), 4, "both kinds count as offered");
        assert_eq!(ring.dropped(), 1, "oldest phase span overwritten");
        assert_eq!(ring.len(), 1, "job ring untouched by the phase burst");
        let phases = ring.drain_phases();
        let names: Vec<&str> = phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(names, vec!["phase-1", "phase-2"]);
        assert!(ring.drain_phases().is_empty());
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let ring = RingSink::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.record(span(0));
        ring.record(span(1));
        assert_eq!(ring.drain().len(), 1);
        assert_eq!(ring.dropped(), 1);
    }
}
