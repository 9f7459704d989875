//! Experiment runners behind the `experiments` binary (the `wallclock`
//! criterion bench target lives beside them). Every paper table recorded
//! in `EXPERIMENTS.md` is regenerated by a function in [`experiments`]
//! (see `DESIGN.md` §4 for the experiment index); each returns the lab's
//! [`EnvRow`](duality_lab::EnvRow)s.

pub mod experiments;
pub mod workloads;
