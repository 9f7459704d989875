//! The keyed serving layer: a thread-safe registry of cached solvers.
//!
//! A production deployment serves many instances — one road network per
//! city, one power grid per region — each re-specced over and over as
//! tariffs or line ratings move. [`SolverPool`] is the front door for that
//! workload: it maps a cheap [`InstanceKey`] (graph fingerprint + spec
//! hash) to a cached [`PlanarSolver`], evicts least-recently-used entries
//! beyond its capacity, and — the point of the two-tier substrate — admits
//! a re-specced instance by **respeccing a cached solver of the same
//! shared graph** ([`PlanarSolver::respec`]), so the new entry reuses the
//! existing `Arc<TopoSubstrate>` instead of rebuilding the dual graph and
//! BDD. Hit / miss / respec-reuse / eviction / lock-contention counters
//! ([`SolverPool::stats`]) make the cache behavior auditable.
//!
//! # Example
//!
//! ```
//! use duality_core::pool::SolverPool;
//! use duality_core::{PlanarInstance, Query};
//! use duality_planar::gen;
//!
//! let g = gen::diag_grid(4, 4, 7).unwrap();
//! let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 7);
//! let instance = PlanarInstance::new(g, Some(caps), None).unwrap();
//!
//! let pool = SolverPool::new(8);
//! let flow = pool.run(&instance, Query::MaxFlow { s: 0, t: 15 }).unwrap();
//!
//! // A re-specced scenario reuses the cached topology substrate.
//! let surge = instance.with_capacities(vec![9; instance.graph().num_darts()]).unwrap();
//! let _ = pool.run(&surge, Query::MaxFlow { s: 0, t: 15 }).unwrap();
//!
//! let stats = pool.stats();
//! // Two misses (each spec admitted once), the second served by respec:
//! // the dual graph and BDD were built once for both.
//! assert_eq!((stats.misses, stats.respec_reuses), (2, 1));
//! assert!(flow.as_max_flow().unwrap().value > 0);
//! ```

use crate::error::DualityError;
use crate::heap_size::HeapSize;
use crate::instance::PlanarInstance;
use crate::solver::{Outcome, PlanarSolver, Query};
use duality_planar::PlanarGraph;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

/// A cheap, copyable identity for a `(graph, spec)` pair: a fingerprint of
/// the embedding (vertex count plus the full rotation system) and a hash
/// of the capacity/weight vectors. Keys are `Hash + Eq` so they can index
/// any map — and they name pool entries without holding the instance
/// alive. The hash runs once per instance (memoized on it); copying and
/// comparing keys is `O(1)`.
///
/// The fingerprint is content-based, not allocation-based: the same graph
/// built twice keys identically. It is still a 128-bit *hash* — wherever
/// an instance is available to compare against, the pool treats the key
/// as a lookup accelerator and verifies full content equality before
/// serving a cached solver, and its *respec-reuse* path demands
/// allocation identity (`Arc::ptr_eq`) before sharing a topology
/// substrate, so a collision can never splice two different problems
/// together. Only the by-key lookup ([`SolverPool::get`]) trusts the
/// hash alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct InstanceKey {
    topo: u64,
    spec: u64,
}

impl InstanceKey {
    /// The key of an instance. The `O(n + m)` content hash runs once per
    /// instance and is memoized, so repeat pool lookups are `O(1)`.
    pub fn of(instance: &PlanarInstance) -> InstanceKey {
        *instance.cached_key.get_or_init(|| InstanceKey {
            topo: topo_fingerprint(instance.graph()),
            spec: spec_hash(instance),
        })
    }

    /// The embedding fingerprint: equal for every respec of one graph.
    pub fn topo_fingerprint(&self) -> u64 {
        self.topo
    }

    /// The spec hash (capacities + weights): changes on every respec.
    pub fn spec_hash(&self) -> u64 {
        self.spec
    }

    /// Reassembles a key from recorded fingerprints (telemetry spans and
    /// other durable records carry the two halves separately). Such a
    /// key identifies content for lookups and attribution; it cannot, of
    /// course, admit an instance it was not computed from.
    pub fn from_parts(topo_fingerprint: u64, spec_hash: u64) -> InstanceKey {
        InstanceKey {
            topo: topo_fingerprint,
            spec: spec_hash,
        }
    }
}

impl std::fmt::Display for InstanceKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}/{:016x}", self.topo, self.spec)
    }
}

/// Fingerprints the embedding: vertex count plus, per dart, its tail and
/// its rotation successor — which together determine the rotation system
/// (and hence faces, dual, and BDD) completely.
fn topo_fingerprint(g: &PlanarGraph) -> u64 {
    let mut h = DefaultHasher::new();
    g.num_vertices().hash(&mut h);
    g.num_edges().hash(&mut h);
    for d in g.darts() {
        g.tail(d).hash(&mut h);
        g.next_around_tail(d).index().hash(&mut h);
    }
    h.finish()
}

fn spec_hash(instance: &PlanarInstance) -> u64 {
    let mut h = DefaultHasher::new();
    instance.capacities().hash(&mut h);
    instance.edge_weights().hash(&mut h);
    h.finish()
}

/// Full content equality of two instances — the collision guard behind
/// every hash-keyed hit, so a 128-bit key collision degrades to a miss
/// instead of silently serving another problem's solver. Shared graph
/// `Arc`s short-circuit; otherwise the embedding is compared dart by dart
/// (same `O(n + m)` as the hash itself, paid only on a key match).
fn same_problem(a: &PlanarInstance, b: &PlanarInstance) -> bool {
    a.capacities() == b.capacities()
        && a.edge_weights() == b.edge_weights()
        && same_embedding(a.graph_arc(), b.graph_arc())
}

fn same_embedding(a: &Arc<PlanarGraph>, b: &Arc<PlanarGraph>) -> bool {
    if Arc::ptr_eq(a, b) {
        return true;
    }
    a.num_vertices() == b.num_vertices()
        && a.num_edges() == b.num_edges()
        && a.darts()
            .all(|d| a.tail(d) == b.tail(d) && a.next_around_tail(d) == b.next_around_tail(d))
}

/// The byte gauges of a pool's cached solvers (see [`crate::heap_size`]
/// for the accounting conventions) — the one byte record that the pool,
/// the engine metrics and the telemetry spine all carry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolBytes {
    /// Estimated heap bytes of the cached solvers right now. Refreshed on
    /// every [`SolverPool::stats`] call and admission, so lazily built
    /// substrate growth is observed, not just admission-time size.
    pub resident: u64,
    /// High-water mark of `resident` over the pool's lifetime.
    pub peak: u64,
    /// Cumulative bytes released by evictions (capacity-, budget- and
    /// policy-driven alike).
    pub evicted: u64,
}

impl PoolBytes {
    /// Adds another pool's gauges to these. Peaks sum too, so a merged
    /// peak bounds the combined peak from above (the pools need not have
    /// peaked at the same instant).
    pub fn absorb(&mut self, other: &PoolBytes) {
        self.resident += other.resident;
        self.peak += other.peak;
        self.evicted += other.evicted;
    }
}

impl std::fmt::Display for PoolBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} B resident (peak {} B, evicted {} B)",
            self.resident, self.peak, self.evicted
        )
    }
}

/// Counters of a [`SolverPool`] (see [`SolverPool::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Lookups answered by a cached solver.
    pub hits: u64,
    /// Lookups that had to construct a solver.
    pub misses: u64,
    /// Misses served by respeccing a cached solver of the same shared
    /// graph (topology substrate reused — counted *in addition to* the
    /// miss).
    pub respec_reuses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Lock acquisitions that found the pool mutex held and had to wait
    /// — the shard-contention signal: a sharded serving layer whose
    /// per-shard pools show this climbing needs more shards, not more
    /// workers.
    pub lock_contended: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Maximum entries the pool retains.
    pub capacity: usize,
    /// Resident, peak and evicted heap bytes of the cached solvers.
    pub bytes: PoolBytes,
    /// The byte budget admissions are held to (0 = count-capped only).
    pub byte_budget: u64,
}

impl PoolStats {
    /// Merges the counters of another pool into this one — the shard
    /// aggregation primitive: a sharded serving layer sums its per-shard
    /// stats into one fleet-wide line (`len`/`capacity` sum too, so the
    /// merged ratio still reads "entries cached / entries retainable").
    pub fn absorb(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.respec_reuses += other.respec_reuses;
        self.evictions += other.evictions;
        self.lock_contended += other.lock_contended;
        self.len += other.len;
        self.capacity += other.capacity;
        self.bytes.absorb(&other.bytes);
        self.byte_budget += other.byte_budget;
    }

    /// Sums an iterator of per-shard stats into one merged line.
    pub fn merged<'a>(stats: impl IntoIterator<Item = &'a PoolStats>) -> PoolStats {
        let mut out = PoolStats::default();
        for s in stats {
            out.absorb(s);
        }
        out
    }
}

impl std::fmt::Display for PoolStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pool: {}/{} entries, {} hits, {} misses ({} respec-reuses), {} evictions, {} lock waits, {}",
            self.len,
            self.capacity,
            self.hits,
            self.misses,
            self.respec_reuses,
            self.evictions,
            self.lock_contended,
            self.bytes
        )
    }
}

struct PoolEntry {
    key: InstanceKey,
    solver: PlanarSolver,
    /// Estimated heap bytes of `solver` as of the last remeasure —
    /// substrate tiers build lazily, so this grows after admission.
    bytes: u64,
}

/// Everything behind one lock: the LRU list (most recently used last)
/// and the counters, so a lookup updates both atomically.
#[derive(Default)]
struct PoolInner {
    entries: Vec<PoolEntry>,
    /// The lookup, eviction and byte counters. `bytes.resident` is the
    /// sum of the entries' `bytes`, kept in lockstep with every insert,
    /// eviction and remeasure; the fields that live outside the lock
    /// (`len`, `capacity`, `lock_contended`, `byte_budget`) stay zero
    /// here and are filled in by [`SolverPool::stats`].
    stats: PoolStats,
}

impl PoolInner {
    /// Re-measures every cached solver ([`crate::HeapSize`]) and refreshes
    /// the resident/peak gauges — lazily built substrates grow *after*
    /// admission, so sizes must be observed, not just recorded once.
    /// `O(entries × structure)`; called on admission and on
    /// [`SolverPool::stats`], never on the hit fast path.
    fn remeasure(&mut self) {
        let mut resident = 0;
        for entry in &mut self.entries {
            entry.bytes = entry.solver.heap_bytes() as u64;
            resident += entry.bytes;
        }
        self.stats.bytes.resident = resident;
        self.stats.bytes.peak = self.stats.bytes.peak.max(resident);
    }

    /// Marks the entry at `pos` most recently used (it moves last) and
    /// returns a clone of its solver.
    fn touch(&mut self, pos: usize) -> PlanarSolver {
        let entry = self.entries.remove(pos);
        let solver = entry.solver.clone();
        self.entries.push(entry);
        solver
    }

    /// Removes the entry at `pos` and books the eviction.
    fn evict_at(&mut self, pos: usize) {
        let victim = self.entries.remove(pos);
        self.stats.evictions += 1;
        self.stats.bytes.evicted += victim.bytes;
        self.stats.bytes.resident = self.stats.bytes.resident.saturating_sub(victim.bytes);
    }
}

/// A `Send + Sync` registry of cached solvers, keyed by [`InstanceKey`],
/// with LRU eviction — see the [module docs](self) for the serving story.
///
/// All entry points are `&self`: share one pool across request-handler
/// threads (e.g. behind an `Arc`).
pub struct SolverPool {
    inner: Mutex<PoolInner>,
    /// Lock acquisitions that could not take `inner` uncontended (see
    /// [`PoolStats::lock_contended`]). Outside the mutex so counting a
    /// wait never lengthens it.
    contended: AtomicU64,
    capacity: usize,
    /// Byte budget admissions are held to (`None` = count-capped only).
    /// Enforced by LRU eviction down to — but never below — one entry, so
    /// a single oversized solver still serves rather than thrashing.
    byte_budget: Option<u64>,
    leaf_threshold: Option<usize>,
}

impl SolverPool {
    /// A pool retaining at most `capacity` solvers (clamped to ≥ 1),
    /// building them with the default BDD leaf threshold and no byte
    /// budget.
    pub fn new(capacity: usize) -> SolverPool {
        SolverPool {
            inner: Mutex::default(),
            contended: AtomicU64::new(0),
            capacity: capacity.max(1),
            byte_budget: None,
            leaf_threshold: None,
        }
    }

    /// A size-aware pool: at most `capacity` solvers **and** at most
    /// `byte_budget` estimated resident heap bytes — whichever bound is
    /// hit first evicts the LRU entry (never below one entry). Budgets
    /// are enforced against *measured* sizes: substrates built after
    /// admission are re-measured on the next admission, so a cold entry
    /// that grew large is the first to go.
    pub fn with_byte_budget(capacity: usize, byte_budget: u64) -> SolverPool {
        let mut pool = Self::new(capacity);
        pool.byte_budget = Some(byte_budget);
        pool
    }

    /// A pool whose solvers are built with a BDD leaf-threshold override
    /// (applied to every admitted instance).
    ///
    /// # Errors
    ///
    /// [`DualityError::BadLeafThreshold`] below
    /// [`crate::solver::MIN_LEAF_THRESHOLD`].
    pub fn with_leaf_threshold(
        capacity: usize,
        leaf_threshold: Option<usize>,
    ) -> Result<SolverPool, DualityError> {
        Self::with_limits(capacity, None, leaf_threshold)
    }

    /// The fully general constructor: count cap, optional byte budget,
    /// optional BDD leaf-threshold override.
    ///
    /// # Errors
    ///
    /// [`DualityError::BadLeafThreshold`] below
    /// [`crate::solver::MIN_LEAF_THRESHOLD`].
    pub fn with_limits(
        capacity: usize,
        byte_budget: Option<u64>,
        leaf_threshold: Option<usize>,
    ) -> Result<SolverPool, DualityError> {
        if let Some(t) = leaf_threshold {
            if t < crate::solver::MIN_LEAF_THRESHOLD {
                return Err(DualityError::BadLeafThreshold { got: t });
            }
        }
        let mut pool = Self::new(capacity);
        pool.byte_budget = byte_budget;
        pool.leaf_threshold = leaf_threshold;
        Ok(pool)
    }

    /// Maximum entries the pool retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The byte budget admissions are held to (`None` = count-capped
    /// only).
    pub fn byte_budget(&self) -> Option<u64> {
        self.byte_budget
    }

    /// Takes the pool mutex, counting the acquisition as contended when
    /// the uncontended `try_lock` fast path fails — every lock site goes
    /// through here, so [`PoolStats::lock_contended`] observes the whole
    /// surface.
    fn lock_inner(&self) -> MutexGuard<'_, PoolInner> {
        match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.inner.lock().expect("pool lock")
            }
            Err(TryLockError::Poisoned(_)) => panic!("pool lock poisoned"),
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.lock_inner().entries.len()
    }

    /// `true` when no solver is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the counters. Re-measures the cached solvers first, so
    /// the resident bytes (and the peak high-water) reflect substrate
    /// built since admission, not stale admission-time sizes.
    pub fn stats(&self) -> PoolStats {
        let mut inner = self.lock_inner();
        inner.remeasure();
        PoolStats {
            lock_contended: self.contended.load(Ordering::Relaxed),
            len: inner.entries.len(),
            capacity: self.capacity,
            byte_budget: self.byte_budget.unwrap_or(0),
            ..inner.stats
        }
    }

    /// `true` when a solver is cached under `key` (does not touch recency
    /// or counters).
    pub fn contains(&self, key: &InstanceKey) -> bool {
        self.lock_inner().entries.iter().any(|e| e.key == *key)
    }

    /// The cached solver for `instance`, building (or respec-reusing) and
    /// admitting one on a miss. This is the get-or-insert primitive behind
    /// [`SolverPool::run`]; the returned solver is an `O(1)` clone sharing
    /// the cached substrate, so it stays valid (and keeps amortizing) even
    /// if the entry is evicted later.
    pub fn solver(&self, instance: &Arc<PlanarInstance>) -> PlanarSolver {
        let key = InstanceKey::of(instance);
        // First pass under the lock: serve a hit, or pick a respec donor
        // (an `O(1)` clone) and release the lock before constructing
        // anything — a cold admission must never block other callers.
        //
        // The hit path holds the lock only for the `O(len)` key scan and
        // the recency splice; the `O(n + m)` content-equality guard runs
        // on the candidate clone *after* the lock drops. A mismatch (a
        // 128-bit key collision) demotes the optimistic hit to a miss, so
        // a collision still degrades to a rebuild, never a wrong solver.
        let candidate = Self::lookup(&mut self.lock_inner(), key);
        let demote = match candidate {
            Some(solver) if same_problem(solver.instance(), instance) => return solver,
            Some(_) => true,
            None => false,
        };
        let donor = {
            let mut inner = self.lock_inner();
            if demote {
                inner.stats.hits -= 1; // the optimistic hit was an impostor
            }
            inner.stats.misses += 1;
            // Respec-reuse candidate: a cached solver over the *same
            // shared graph* (same fingerprint and `Arc::ptr_eq` —
            // fingerprint alone is not trusted) donates its topology
            // substrate to the new spec.
            inner
                .entries
                .iter()
                .find(|e| {
                    e.key.topo == key.topo
                        && Arc::ptr_eq(e.solver.instance().graph_arc(), instance.graph_arc())
                })
                .map(|e| e.solver.clone())
        };
        // Construct outside the lock.
        let (solver, respecced) = match donor {
            Some(d) => (
                d.respec(Arc::clone(instance))
                    .expect("ptr_eq-checked topology cannot mismatch"),
                true,
            ),
            None => (
                PlanarSolver::from_instance_with_threshold(
                    Arc::clone(instance),
                    self.leaf_threshold,
                )
                .expect("pool-validated leaf threshold"),
                false,
            ),
        };
        // Size the new solver outside the lock (it reads only the
        // already-built substrate, no pool state).
        let bytes = solver.heap_bytes() as u64;
        // Second pass: another caller may have admitted the same problem
        // while we were building — serve the cached entry so every caller
        // shares one substrate (our build is dropped; the miss already
        // counted stands).
        let mut inner = self.lock_inner();
        if let Some(pos) = inner
            .entries
            .iter()
            .position(|e| e.key == key && same_problem(e.solver.instance(), instance))
        {
            return inner.touch(pos);
        }
        if respecced {
            inner.stats.respec_reuses += 1;
        }
        inner.entries.push(PoolEntry {
            key,
            solver: solver.clone(),
            bytes,
        });
        inner.stats.bytes.resident += bytes;
        inner.stats.bytes.peak = inner.stats.bytes.peak.max(inner.stats.bytes.resident);
        if inner.entries.len() > self.capacity {
            inner.evict_at(0); // least recently used sits first
        }
        if let Some(budget) = self.byte_budget {
            // Budget pressure judges *measured* sizes: entries whose
            // substrate grew after admission must carry their real weight
            // before the LRU picks victims, so every admission re-measures.
            inner.remeasure();
            while inner.stats.bytes.resident > budget && inner.entries.len() > 1 {
                inner.evict_at(0);
            }
        }
        solver
    }

    /// The locked hit path: key scan, recency refresh, hit counter.
    /// `None` on a miss (no counter touched). The key is only a lookup
    /// accelerator — [`SolverPool::solver`] verifies full content
    /// equality on the returned clone with the lock released, and
    /// demotes the hit if the match was a key collision.
    fn lookup(inner: &mut PoolInner, key: InstanceKey) -> Option<PlanarSolver> {
        let pos = inner.entries.iter().position(|e| e.key == key)?;
        inner.stats.hits += 1;
        Some(inner.touch(pos))
    }

    /// The cached solver under `key`, by key alone (marks it most recently
    /// used). `None` when the key was never admitted or has been evicted —
    /// call [`SolverPool::solver`] with the instance to (re)admit it.
    ///
    /// With no instance to compare against, a by-key lookup trusts the
    /// 128-bit content hash; instance-bearing lookups
    /// ([`SolverPool::solver`] / [`SolverPool::run`]) verify full content
    /// equality and are immune to key collisions.
    pub fn get(&self, key: &InstanceKey) -> Option<PlanarSolver> {
        Self::lookup(&mut self.lock_inner(), *key)
    }

    /// Executes one query against the cached solver for `instance`
    /// (admitting it on a miss).
    ///
    /// # Errors
    ///
    /// The per-query conditions of [`PlanarSolver::run`].
    pub fn run(
        &self,
        instance: &Arc<PlanarInstance>,
        query: Query,
    ) -> Result<Outcome, DualityError> {
        self.solver(instance).run(query)
    }
}

impl std::fmt::Debug for SolverPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SolverPool")
            .field("capacity", &self.capacity)
            .field("leaf_threshold", &self.leaf_threshold)
            .field("stats", &stats)
            .finish()
    }
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
    fn keys_are_content_based() {
        let a = instance(3);
        let b = instance(3); // identical build, different allocation
        assert_eq!(InstanceKey::of(&a), InstanceKey::of(&b));
        let c = instance(4);
        assert_ne!(InstanceKey::of(&a), InstanceKey::of(&c));

        // A respec keeps the topology fingerprint, changes the spec hash.
        let respec = a.with_capacities(vec![5; a.graph().num_darts()]).unwrap();
        let (ka, kr) = (InstanceKey::of(&a), InstanceKey::of(&respec));
        assert_eq!(ka.topo_fingerprint(), kr.topo_fingerprint());
        assert_ne!(ka.spec_hash(), kr.spec_hash());
        assert_ne!(ka, kr);
        assert!(ka.to_string().contains('/'));
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let pool = SolverPool::new(4);
        let i = instance(1);
        let a = pool.solver(&i);
        let b = pool.solver(&i);
        // Cached: both handles share one substrate.
        assert!(Arc::ptr_eq(a.topo_substrate(), b.topo_substrate()));
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
        assert!(pool.contains(&InstanceKey::of(&i)));
        assert!(!pool.is_empty());
    }

    #[test]
    fn respec_miss_reuses_the_topology_substrate() {
        let pool = SolverPool::new(4);
        let i = instance(2);
        let base = pool.solver(&i);
        let respec = i.with_capacities(vec![3; i.graph().num_darts()]).unwrap();
        let other = pool.solver(&respec);
        assert!(
            Arc::ptr_eq(base.topo_substrate(), other.topo_substrate()),
            "the respecced entry shares the cached topology tier"
        );
        let stats = pool.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.respec_reuses, 1);
        assert_eq!(stats.len, 2, "both specs stay cached");
    }

    #[test]
    fn equal_but_unshared_graphs_get_fresh_substrates() {
        let pool = SolverPool::new(4);
        let a = instance(5);
        let b = instance(5); // same content, different Arc
        let sa = pool.solver(&a);
        // Same key: `b` is a *hit* for `a`'s entry (content-based), so no
        // new solver is built at all.
        let sb = pool.solver(&b);
        assert!(Arc::ptr_eq(sa.topo_substrate(), sb.topo_substrate()));
        // But a respec of `b` misses and must NOT splice onto `a`'s
        // substrate: the graphs are equal, not shared.
        let respec = b.with_capacities(vec![2; b.graph().num_darts()]).unwrap();
        let sr = pool.solver(&respec);
        assert!(!Arc::ptr_eq(sa.topo_substrate(), sr.topo_substrate()));
        assert_eq!(pool.stats().respec_reuses, 0);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let pool = SolverPool::new(2);
        let (a, b, c) = (instance(1), instance(2), instance(3));
        let (ka, kb, kc) = (
            InstanceKey::of(&a),
            InstanceKey::of(&b),
            InstanceKey::of(&c),
        );
        pool.solver(&a);
        let b_handle = pool.solver(&b);
        pool.solver(&a); // refresh a: b is now coldest
        pool.solver(&c); // evicts b
        assert!(pool.contains(&ka));
        assert!(!pool.contains(&kb));
        assert!(pool.contains(&kc));
        let stats = pool.stats();
        assert_eq!((stats.evictions, stats.len), (1, 2));
        assert!(stats.to_string().contains("1 evictions"));
        // Eviction drops the cache entry, not the handles cloned out of it.
        assert!(b_handle.run(Query::Girth).is_ok());
    }

    #[test]
    fn keyed_lookups_answer_or_reject() {
        let pool = SolverPool::new(2);
        let i = instance(7);
        let key = InstanceKey::of(&i);
        assert!(pool.get(&key).is_none(), "never admitted");
        let t = i.n() - 1;
        let by_instance = pool.run(&i, Query::MaxFlow { s: 0, t }).unwrap();
        let by_key = pool.get(&key).unwrap();
        assert_eq!(
            by_instance.as_max_flow().unwrap().value,
            by_key.max_flow(0, t).unwrap().value
        );
        assert!(by_key.run(Query::Girth).is_ok());
        assert!(pool.get(&InstanceKey::of(&instance(8))).is_none());
    }

    #[test]
    fn pool_is_shared_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SolverPool>();

        let pool = Arc::new(SolverPool::new(4));
        let i = instance(9);
        let t = i.n() - 1;
        let values: Vec<i64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let pool = Arc::clone(&pool);
                    let i = Arc::clone(&i);
                    scope.spawn(move || {
                        pool.run(&i, Query::MaxFlow { s: 0, t })
                            .unwrap()
                            .as_max_flow()
                            .unwrap()
                            .value
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(values.windows(2).all(|w| w[0] == w[1]));
        let stats = pool.stats();
        assert_eq!(stats.hits + stats.misses, 4);
        assert_eq!(stats.len, 1, "one instance, one entry");
    }

    #[test]
    fn concurrent_cold_misses_converge_on_one_entry() {
        // The cold path constructs outside the pool mutex; racing callers
        // may each build, but the insert re-check guarantees exactly one
        // entry per problem and a consistent counter ledger.
        let pool = Arc::new(SolverPool::new(8));
        let i = instance(11);
        let t = i.n() - 1;
        let values: Vec<i64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let pool = Arc::clone(&pool);
                    let i = Arc::clone(&i);
                    scope.spawn(move || {
                        pool.run(&i, Query::MaxFlow { s: 0, t })
                            .unwrap()
                            .as_max_flow()
                            .unwrap()
                            .value
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(values.windows(2).all(|w| w[0] == w[1]));
        let stats = pool.stats();
        assert_eq!(stats.len, 1, "racing misses never duplicate an entry");
        assert_eq!(stats.hits + stats.misses, 8, "every lookup counted once");
        assert!(stats.misses >= 1);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn contended_mixed_workload_keeps_the_pool_consistent() {
        // Distinct instances admitted from many threads at once: cold
        // builds run outside the lock, so no combination of interleavings
        // may corrupt the LRU list or the counters.
        let pool = Arc::new(SolverPool::new(4));
        let instances: Vec<_> = (0..6).map(|s| instance(20 + s)).collect();
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let pool = Arc::clone(&pool);
                let instances = &instances;
                scope.spawn(move || {
                    for round in 0..3 {
                        for (j, i) in instances.iter().enumerate() {
                            if (j + worker + round) % 2 == 0 {
                                let t = i.n() - 1;
                                let _ = pool.run(i, Query::MaxFlow { s: 0, t }).unwrap();
                            } else {
                                let _ = pool.solver(i);
                            }
                        }
                    }
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.hits + stats.misses, 4 * 3 * 6);
        assert!(stats.len <= stats.capacity, "LRU bound holds under races");
        assert!(stats.evictions > 0, "six instances through four slots");
        // Every distinct admitted problem appears at most once.
        let keys: Vec<_> = instances.iter().map(|i| InstanceKey::of(i)).collect();
        let cached = keys.iter().filter(|k| pool.contains(k)).count();
        assert_eq!(cached, stats.len);
    }

    #[test]
    fn contended_locks_are_counted_uncontended_ones_are_not() {
        let pool = Arc::new(SolverPool::new(2));
        let i = instance(40);
        let _ = pool.solver(&i);
        let _ = pool.solver(&i);
        assert_eq!(
            pool.stats().lock_contended,
            0,
            "a single caller always takes the try_lock fast path"
        );

        // Hold the pool mutex while other threads call in: each must fall
        // off the fast path and count its wait. The wait for the count is
        // bounded, so a lock site that bypasses the counter fails here
        // instead of hanging.
        let counted = |want: u64| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while pool.contended.load(Ordering::Relaxed) < want {
                if std::time::Instant::now() > deadline {
                    return false;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            true
        };
        let key = InstanceKey::of(&i);
        let guard = pool.inner.lock().unwrap();
        let probe = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.contains(&key))
        };
        assert!(counted(1), "a contended `contains` is counted");
        let lookup = {
            let pool = Arc::clone(&pool);
            let i = Arc::clone(&i);
            std::thread::spawn(move || pool.solver(&i))
        };
        assert!(counted(2), "a contended `solver` is counted");
        drop(guard);
        assert!(probe.join().unwrap());
        lookup.join().unwrap();
        assert_eq!(pool.stats().lock_contended, 2);
    }

    #[test]
    fn stats_absorb_and_merged_sum_counters() {
        let a = PoolStats {
            hits: 3,
            misses: 2,
            respec_reuses: 1,
            evictions: 0,
            lock_contended: 5,
            len: 2,
            capacity: 4,
            bytes: PoolBytes {
                resident: 1000,
                peak: 1500,
                evicted: 0,
            },
            byte_budget: 4096,
        };
        let b = PoolStats {
            hits: 1,
            misses: 4,
            respec_reuses: 0,
            evictions: 2,
            lock_contended: 1,
            len: 1,
            capacity: 8,
            bytes: PoolBytes {
                resident: 200,
                peak: 700,
                evicted: 500,
            },
            byte_budget: 0,
        };
        let merged = PoolStats::merged([&a, &b]);
        assert_eq!(merged.hits, 4);
        assert_eq!(merged.misses, 6);
        assert_eq!(merged.respec_reuses, 1);
        assert_eq!(merged.evictions, 2);
        assert_eq!(merged.lock_contended, 6);
        assert_eq!((merged.len, merged.capacity), (3, 12));
        assert_eq!(
            merged.bytes,
            PoolBytes {
                resident: 1200,
                peak: 2200,
                evicted: 500
            }
        );
        assert_eq!(merged.byte_budget, 4096);
        assert_eq!(PoolStats::merged([]), PoolStats::default());
        let mut acc = a;
        acc.absorb(&b);
        assert_eq!(acc, merged);
    }

    #[test]
    fn byte_gauges_track_residency_and_growth() {
        let pool = SolverPool::new(4);
        let i = instance(50);
        pool.solver(&i);
        let cold = pool.stats();
        assert!(cold.bytes.resident > 0, "the instance alone has heap bytes");
        assert_eq!(cold.byte_budget, 0, "no budget configured");
        // Run a query: the substrate builds lazily, so the *same* entry
        // must now measure larger — stats() observes growth.
        let t = i.n() - 1;
        pool.run(&i, Query::MaxFlow { s: 0, t }).unwrap();
        let warm = pool.stats();
        assert!(
            warm.bytes.resident > cold.bytes.resident,
            "substrate built after admission is re-measured ({} vs {})",
            warm.bytes.resident,
            cold.bytes.resident
        );
        assert!(warm.bytes.peak >= warm.bytes.resident);
        assert_eq!(warm.bytes.evicted, 0);
        assert!(warm.to_string().contains("B resident"));
    }

    #[test]
    fn byte_budget_evicts_large_cold_entries_before_small_hot_ones() {
        // A budget generous enough for several small warm solvers but not
        // for a large warm one alongside them.
        let small: Vec<_> = (0..3).map(instance).collect();
        let large = {
            let g = gen::diag_grid(9, 9, 99).unwrap();
            let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 99);
            PlanarInstance::new(g, Some(caps), None).unwrap()
        };
        // Find a budget between "all small warm" and "large warm": measure
        // one warm solver of each size through throwaway pools.
        let probe = SolverPool::new(1);
        probe.run(&small[0], Query::Girth).unwrap();
        let small_warm = probe.stats().bytes.resident;
        let probe = SolverPool::new(1);
        let t = large.n() - 1;
        probe.run(&large, Query::MaxFlow { s: 0, t }).unwrap();
        let large_warm = probe.stats().bytes.resident;
        assert!(large_warm > 3 * small_warm, "the large solver dominates");

        let pool = SolverPool::with_byte_budget(16, 4 * small_warm);
        assert_eq!(pool.byte_budget(), Some(4 * small_warm));
        pool.run(&large, Query::MaxFlow { s: 0, t }).unwrap(); // warm + large
        for i in &small {
            pool.run(i, Query::Girth).unwrap(); // each keeps the LRU fresher
        }
        // Admitting one more small entry forces the budget check: the
        // *large cold* entry must go, every small hot one must stay —
        // count-based LRU with capacity 16 would have evicted nothing.
        let extra = instance(7);
        pool.run(&extra, Query::Girth).unwrap();
        assert!(
            !pool.contains(&InstanceKey::of(&large)),
            "the large cold entry is the budget victim"
        );
        for i in &small {
            assert!(pool.contains(&InstanceKey::of(i)), "small hot entries stay");
        }
        assert!(pool.contains(&InstanceKey::of(&extra)));
        let stats = pool.stats();
        assert!(stats.evictions >= 1);
        assert!(
            stats.bytes.evicted >= large_warm / 2,
            "the victim's real weight is booked"
        );
        assert!(stats.bytes.resident <= 4 * small_warm || stats.len == 1);
    }

    #[test]
    fn bad_leaf_threshold_is_rejected_up_front() {
        assert!(matches!(
            SolverPool::with_leaf_threshold(4, Some(1)),
            Err(DualityError::BadLeafThreshold { got: 1 })
        ));
        assert!(SolverPool::with_leaf_threshold(4, Some(8)).is_ok());
        assert_eq!(SolverPool::new(0).capacity(), 1, "capacity clamps to 1");
    }
}
