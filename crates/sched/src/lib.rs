//! `duality-sched`: a dependency-free work-stealing scheduler runtime.
//!
//! The serving layer's original job queue was a single
//! `Mutex<VecDeque>` shared by every worker — correct, but a scaling
//! wall: each dequeue serialized the whole fleet through one lock, and
//! each submit could stampede the condvar herd. This crate replaces it
//! with the classic work-stealing shape while keeping the *semantics*
//! of a bounded MPMC queue, so the serving engine migrates without
//! changing its admission, pause/resume, or drain contracts:
//!
//! - **Per-worker stealing deques** ([`StealDeque`]): the owner pushes
//!   and pops the hot end (LIFO, cache locality), thieves take the cold
//!   end (FIFO, rough submission fairness), batch steals move half the
//!   victim's queue at most.
//! - **A global overflow injector**: submissions round-robin across the
//!   deques and overflow to the injector when a deque is full,
//!   so bounded-queue admission (`Full`, blocking backpressure, exact
//!   depth/high-water at admit time) is preserved globally.
//! - **A parker** that wakes exactly one idle worker per submit (no
//!   thundering herd), and a lifecycle gate covering pause/resume and
//!   graceful drain-on-close.
//!
//! Scheduling here is deliberately *orthogonal to results*: the
//! scheduler reorders execution (LIFO pops, stealing) but never
//! influences what a job computes, so a serving engine built on it can
//! keep a bit-for-bit determinism contract versus serial execution.
//!
//! ```
//! use duality_sched::Scheduler;
//!
//! let sched: Scheduler<u32> = Scheduler::new(2, 8, true);
//! sched.push(7, false).unwrap();
//! let (job, source) = sched.pop(0).unwrap();
//! assert_eq!(job, 7);
//! assert_eq!(source.name(), "local");
//! sched.close();
//! assert_eq!(sched.pop(0), None);
//! ```

mod deque;
mod scheduler;

pub use deque::StealDeque;
pub use scheduler::{DequeueSource, PushError, SchedStats, Scheduler};
