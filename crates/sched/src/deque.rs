//! The per-worker bounded stealing deque.
//!
//! Each worker owns exactly one `StealDeque`. The owner operates on the
//! **hot** end (`push`/`pop`, LIFO) so the job it runs next is the one
//! most recently touched — the best cache-locality bet. Thieves operate
//! on the **cold** end (`steal`/`steal_batch`, FIFO) so migration takes
//! the *oldest* work, which preserves rough submission-order fairness
//! and steals the jobs least likely to be warm in the owner's cache.
//!
//! The deque is bounded: `push` hands the job back instead of growing,
//! and the scheduler overflows it to the global injector. Depth
//! accounting lives in [`crate::Scheduler`], not here — this type is a
//! dumb bounded container with two ends.

use std::collections::VecDeque;
use std::sync::Mutex;

/// One worker's bounded deque: LIFO for the owner, FIFO for thieves.
#[derive(Debug)]
pub struct StealDeque<T> {
    jobs: Mutex<VecDeque<T>>,
    capacity: usize,
}

impl<T> StealDeque<T> {
    /// A new empty deque holding at most `capacity` jobs (clamped ≥ 1).
    pub fn new(capacity: usize) -> StealDeque<T> {
        StealDeque {
            jobs: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// The bound this deque was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued jobs.
    pub fn len(&self) -> usize {
        self.jobs.lock().expect("deque lock").len()
    }

    /// Whether the deque currently holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owner push onto the hot end. `Err(job)` hands the job back when
    /// the deque is at capacity; the caller routes it to the injector.
    pub fn push(&self, job: T) -> Result<(), T> {
        let mut jobs = self.jobs.lock().expect("deque lock");
        if jobs.len() >= self.capacity {
            return Err(job);
        }
        jobs.push_back(job);
        Ok(())
    }

    /// Owner pop from the hot end (LIFO): the most recently pushed job,
    /// the one most likely to still be warm.
    pub fn pop(&self) -> Option<T> {
        self.jobs.lock().expect("deque lock").pop_back()
    }

    /// Thief pop from the cold end (FIFO): the oldest queued job.
    pub fn steal(&self) -> Option<T> {
        self.jobs.lock().expect("deque lock").pop_front()
    }

    /// Thief batch pop: takes up to `max` jobs from the cold end, oldest
    /// first, never more than half (rounded up) of what the victim
    /// holds — the owner keeps the warm half.
    pub fn steal_batch(&self, max: usize) -> Vec<T> {
        if max == 0 {
            return Vec::new();
        }
        let mut jobs = self.jobs.lock().expect("deque lock");
        let take = jobs.len().div_ceil(2).min(max);
        jobs.drain(..take).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_pops_lifo_thief_steals_fifo() {
        let deque = StealDeque::new(8);
        for i in 1..=4 {
            deque.push(i).unwrap();
        }
        assert_eq!(deque.pop(), Some(4), "owner takes the hot end");
        assert_eq!(deque.steal(), Some(1), "thief takes the cold end");
        assert_eq!(deque.pop(), Some(3));
        assert_eq!(deque.steal(), Some(2));
        assert_eq!(deque.pop(), None);
        assert!(deque.is_empty());
    }

    #[test]
    fn push_bounces_at_capacity_and_capacity_clamps() {
        let deque = StealDeque::new(2);
        assert_eq!(deque.capacity(), 2);
        deque.push('a').unwrap();
        deque.push('b').unwrap();
        assert_eq!(deque.push('c'), Err('c'), "full deque hands the job back");
        assert_eq!(deque.len(), 2);

        let tiny: StealDeque<u8> = StealDeque::new(0);
        assert_eq!(tiny.capacity(), 1, "capacity clamps to at least one");
    }

    #[test]
    fn steal_batch_takes_at_most_the_cold_half() {
        let deque = StealDeque::new(16);
        for i in 0..7 {
            deque.push(i).unwrap();
        }
        // 7 queued → half rounded up is 4, oldest first.
        assert_eq!(deque.steal_batch(16), vec![0, 1, 2, 3]);
        assert_eq!(deque.len(), 3);
        // `max` caps the batch below the half bound.
        assert_eq!(deque.steal_batch(1), vec![4]);
        assert_eq!(deque.steal_batch(0), Vec::<i32>::new());
        assert_eq!(deque.pop(), Some(6), "owner end is untouched by thieves");
    }
}
