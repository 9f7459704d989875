//! Lock-light live metrics for the serving engine.
//!
//! The registry is written from every worker on every job, so it must
//! never serialize the fleet: all lifecycle counters and histogram
//! buckets are plain atomics, and the only mutex guards the per-shard
//! substrate-amortization maps — touched once per *completed* job, after
//! the solver work is already done. Reads ([`MetricsSnapshot`]) are
//! relaxed-ordering samples: each counter is exact, cross-counter skew is
//! bounded by whatever is in flight at the instant of the snapshot.

use duality_congest::RoundReport;
use duality_core::pool::{InstanceKey, PoolStats};
use duality_sched::SchedStats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of log₂ latency buckets: bucket `i` holds jobs whose
/// submit-to-completion latency was in `[2^(i−1), 2^i)` microseconds
/// (bucket 0: < 1 µs), so the top bucket covers ≈ 34 s and beyond.
pub const LATENCY_BUCKETS: usize = 26;

/// The log₂ bucket that a latency of `us` microseconds falls in.
fn bucket_of(us: u64) -> usize {
    (64 - us.leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
}

/// The log-bucketed latency histogram, shared by all workers.
pub(crate) struct Histogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    pub fn record(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the latency histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Per-bucket job counts (see [`LATENCY_BUCKETS`] for the geometry).
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Jobs recorded.
    pub count: u64,
    /// Sum of all recorded latencies, in microseconds.
    pub sum_us: u64,
    /// The slowest recorded latency, in microseconds.
    pub max_us: u64,
}

impl LatencySnapshot {
    /// Records one latency of `us` microseconds, in the bucket the
    /// engine's live histogram would use.
    pub fn record(&mut self, us: u64) {
        self.buckets[bucket_of(us)] += 1;
        self.count += 1;
        self.sum_us += us;
        self.max_us = self.max_us.max(us);
    }

    /// An upper bound (bucket ceiling) on the `q`-quantile latency in
    /// microseconds, `q ∈ [0, 1]`. `None` when nothing was recorded.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Bucket i holds latencies < 2^i µs; clamp the ceiling to
                // the observed maximum (also covers the unbounded top
                // bucket) so a quantile never exceeds the real slowest job.
                return Some(if i == LATENCY_BUCKETS - 1 {
                    self.max_us
                } else {
                    (1u64 << i).min(self.max_us)
                });
            }
        }
        Some(self.max_us)
    }

    /// Mean latency in microseconds (`None` when nothing was recorded).
    pub fn mean_us(&self) -> Option<u64> {
        (self.count > 0).then(|| self.sum_us / self.count)
    }

    /// The histogram of everything recorded *after* `earlier` was taken
    /// (per-bucket saturating difference) — how interval consumers like
    /// the saturation ramp get per-round quantiles out of a cumulative
    /// histogram. `max_us` keeps this snapshot's value: the true
    /// interval maximum is not recoverable from two cumulative
    /// snapshots, so the quantile ceilings stay upper bounds.
    pub fn delta(&self, earlier: &LatencySnapshot) -> LatencySnapshot {
        LatencySnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            count: self.count.saturating_sub(earlier.count),
            sum_us: self.sum_us.saturating_sub(earlier.sum_us),
            max_us: self.max_us,
        }
    }
}

/// Formats a microsecond latency for humans.
fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

impl std::fmt::Display for LatencySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.quantile_us(0.5), self.quantile_us(0.99)) {
            (Some(p50), Some(p99)) => write!(
                f,
                "{} jobs, p50 ≤ {}, p99 ≤ {}, max {}",
                self.count,
                fmt_us(p50),
                fmt_us(p99),
                fmt_us(self.max_us)
            ),
            _ => write!(f, "no jobs recorded"),
        }
    }
}

/// The amortized CONGEST bill of one shard. Substrate is billed by
/// content: each topology fingerprint's topo-tier rounds and each
/// instance key's weight-tier rounds are charged **once** per shard (the
/// amortization the pool provides — a respec-reused spec adds no second
/// topo share), while query rounds are the exact sum of the executed
/// jobs' marginal ledgers.
///
/// The billed-content maps are **bounded** to the shard pool's capacity:
/// entries beyond what the pool can cache correspond to solvers the pool
/// has evicted, whose substrate genuinely rebuilds on re-admission — so
/// dropping their amortization record (and re-billing on return) keeps
/// the bill honest while keeping memory `O(live set)` on a long-lived
/// engine instead of `O(every spec ever seen)`.
struct ShardBill {
    query_rounds: AtomicU64,
    substrate_rounds: AtomicU64,
    billed: Mutex<Billed>,
}

#[derive(Default)]
struct Billed {
    /// Topo-tier rounds already billed, per topology fingerprint.
    topo: HashMap<u64, u64>,
    /// Weight-tier rounds already billed, per instance key (spec level).
    weight: HashMap<InstanceKey, u64>,
    /// Timed topo-tier build phases already billed, per topology
    /// fingerprint — the wall-clock twin of `topo`. A phase *count*, not
    /// a µs total: phases append in first-charge order and each is timed
    /// exactly once, so the count pins the fresh suffix even when a
    /// phase measured 0µs.
    topo_us: HashMap<u64, u64>,
    /// Timed weight-tier build phases already billed, per instance key.
    weight_us: HashMap<InstanceKey, u64>,
    /// Shard-wide substrate build µs per phase (embed / dual / bdd /
    /// weight-tier / labeling), accumulated from the freshly billed
    /// deltas. At most a handful of keys — never bounded away.
    phase_us: HashMap<String, u64>,
}

/// The suffix of `phases` past the first `seen` entries. Each substrate
/// phase is timed exactly once per build (`OnceLock`) and the ledger
/// appends in first-charge order, so the already-billed share is always
/// a prefix — the seen *count* identifies where the fresh suffix starts
/// (robust to phases that measured 0µs, unlike a µs watermark).
fn fresh_phases(phases: &[(String, u64)], seen: u64) -> Vec<(String, u64)> {
    phases
        .iter()
        .skip(usize::try_from(seen).unwrap_or(usize::MAX))
        .cloned()
        .collect()
}

/// Caps `map` at `capacity` entries by dropping arbitrary other entries
/// (amortization records, not correctness state — see [`ShardBill`]),
/// keeping `keep` itself.
fn bound_map<K: std::hash::Hash + Eq + Copy>(map: &mut HashMap<K, u64>, keep: K, capacity: usize) {
    while map.len() > capacity {
        let Some(&victim) = map.keys().find(|&&k| k != keep) else {
            break;
        };
        map.remove(&victim);
    }
}

/// The engine-wide registry: lifecycle counters, the latency histogram
/// and the per-shard round bills. One instance per engine, shared by all
/// workers.
pub(crate) struct MetricsRegistry {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub rejected: AtomicU64,
    pub expired: AtomicU64,
    pub cancelled: AtomicU64,
    /// Jobs executing on a worker *right now* (claimed, not yet resolved)
    /// — the instantaneous pressure gauge, as opposed to the derived
    /// [`in_flight`](MetricsSnapshot::in_flight) which also counts the
    /// queued backlog.
    pub running: AtomicU64,
    /// Worker threads currently alive. Incremented at spawn, decremented
    /// as each worker loop exits once the queue has closed and drained.
    pub live_workers: AtomicU64,
    pub latency: Histogram,
    shards: Vec<ShardBill>,
    /// Bound on each billed-content map — the shard pool's capacity.
    billed_capacity: usize,
}

impl MetricsRegistry {
    pub fn new(shards: usize, billed_capacity: usize) -> MetricsRegistry {
        MetricsRegistry {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            running: AtomicU64::new(0),
            live_workers: AtomicU64::new(0),
            latency: Histogram::new(),
            shards: (0..shards)
                .map(|_| ShardBill {
                    query_rounds: AtomicU64::new(0),
                    substrate_rounds: AtomicU64::new(0),
                    billed: Mutex::new(Billed::default()),
                })
                .collect(),
            billed_capacity: billed_capacity.max(1),
        }
    }

    /// Bills one completed job's rounds to its shard: query marginals sum
    /// exactly; substrate is delta-billed per content so it is charged
    /// once per (shard, topology) and once per (shard, spec) no matter
    /// how many jobs share it — and if the lazily built substrate grew
    /// since the last job on the same content (e.g. a girth query added
    /// the dual graph), only the growth is billed.
    ///
    /// Substrate build *microseconds* are delta-billed the same way, per
    /// phase: the returned list holds exactly the phases this job's
    /// report introduced (empty for jobs served off an already-billed
    /// substrate) — ready to emit as profiling spans without
    /// double-counting a build that many jobs shared.
    pub fn bill(&self, shard: usize, key: InstanceKey, rounds: &RoundReport) -> Vec<(String, u64)> {
        let bill = &self.shards[shard];
        bill.query_rounds
            .fetch_add(rounds.query_total(), Ordering::Relaxed);
        let topo_total = rounds.substrate_topo_total();
        let weight_total = rounds.substrate_weight_total();
        let topo_phase_count = rounds.substrate_topo.phases_us().len() as u64;
        let weight_phase_count = rounds.substrate_weight.phases_us().len() as u64;
        let mut billed = bill.billed.lock().expect("bill lock");
        let seen_topo = billed.topo.entry(key.topo_fingerprint()).or_insert(0);
        let delta = topo_total.saturating_sub(*seen_topo);
        *seen_topo = (*seen_topo).max(topo_total);
        let seen_weight = billed.weight.entry(key).or_insert(0);
        let delta = delta + weight_total.saturating_sub(*seen_weight);
        *seen_weight = (*seen_weight).max(weight_total);
        // Wall-clock twin: the seen-phase-count watermark identifies the
        // fresh phase suffix of each tier's timing track.
        let seen_topo_us = billed.topo_us.entry(key.topo_fingerprint()).or_insert(0);
        let mut fresh = fresh_phases(rounds.substrate_topo.phases_us(), *seen_topo_us);
        *seen_topo_us = (*seen_topo_us).max(topo_phase_count);
        let seen_weight_us = billed.weight_us.entry(key).or_insert(0);
        fresh.extend(fresh_phases(
            rounds.substrate_weight.phases_us(),
            *seen_weight_us,
        ));
        *seen_weight_us = (*seen_weight_us).max(weight_phase_count);
        for (phase, us) in &fresh {
            *billed.phase_us.entry(phase.clone()).or_insert(0) += us;
        }
        bound_map(
            &mut billed.topo,
            key.topo_fingerprint(),
            self.billed_capacity,
        );
        bound_map(&mut billed.weight, key, self.billed_capacity);
        bound_map(
            &mut billed.topo_us,
            key.topo_fingerprint(),
            self.billed_capacity,
        );
        bound_map(&mut billed.weight_us, key, self.billed_capacity);
        drop(billed);
        if delta > 0 {
            bill.substrate_rounds.fetch_add(delta, Ordering::Relaxed);
        }
        fresh
    }

    /// The shard's substrate build µs per phase, sorted by phase name for
    /// a deterministic snapshot shape.
    pub fn shard_phase_us(&self, shard: usize) -> Vec<(String, u64)> {
        let billed = self.shards[shard].billed.lock().expect("bill lock");
        let mut out: Vec<(String, u64)> = billed
            .phase_us
            .iter()
            .map(|(p, us)| (p.clone(), *us))
            .collect();
        out.sort();
        out
    }

    /// The per-shard `(substrate_rounds, query_rounds)` pair.
    pub fn shard_rounds(&self, shard: usize) -> (u64, u64) {
        let bill = &self.shards[shard];
        (
            bill.substrate_rounds.load(Ordering::Relaxed),
            bill.query_rounds.load(Ordering::Relaxed),
        )
    }

    pub fn latency_snapshot(&self) -> LatencySnapshot {
        self.latency.snapshot()
    }

    /// Entries in a shard's billed-content maps (bound verification).
    #[cfg(test)]
    fn billed_len(&self, shard: usize) -> (usize, usize) {
        let billed = self.shards[shard].billed.lock().expect("bill lock");
        (billed.topo.len(), billed.weight.len())
    }
}

/// One shard's slice of a [`MetricsSnapshot`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Shard index (also the hash partition: `topo_fingerprint % shards`).
    pub shard: usize,
    /// The shard pool's hit/miss/respec-reuse/eviction counters and byte
    /// gauges (resident / peak / evicted bytes).
    pub pool: PoolStats,
    /// Amortized substrate rounds billed to this shard (topo charged once
    /// per topology, weight once per spec).
    pub substrate_rounds: u64,
    /// Sum of the marginal query rounds of this shard's completed jobs.
    pub query_rounds: u64,
    /// Amortized substrate build µs billed to this shard, per phase
    /// (embed / dual / bdd / weight-tier / labeling), sorted by phase
    /// name. Delta-billed like the rounds: each build charged once no
    /// matter how many jobs shared it.
    pub substrate_phase_us: Vec<(String, u64)>,
}

impl ShardMetrics {
    /// Total substrate build µs billed to this shard.
    pub fn substrate_us(&self) -> u64 {
        self.substrate_phase_us.iter().map(|(_, us)| us).sum()
    }
}

impl std::fmt::Display for ShardMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {}: {}; rounds: {} substrate + {} query; build {}µs",
            self.shard,
            self.pool,
            self.substrate_rounds,
            self.query_rounds,
            self.substrate_us()
        )
    }
}

/// A point-in-time view of a running (or shut-down) engine — every
/// counter the serving layer maintains, in one displayable value.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Jobs admitted to the queue.
    pub submitted: u64,
    /// Jobs that executed and returned an [`Ok` outcome](duality_core::Outcome).
    pub completed: u64,
    /// Jobs that executed and returned a query error.
    pub failed: u64,
    /// Submissions refused by [`AdmissionPolicy::Reject`](crate::AdmissionPolicy::Reject)
    /// on a full queue.
    pub rejected: u64,
    /// Jobs whose deadline passed before a worker could start them.
    pub expired: u64,
    /// Jobs cancelled via [`Ticket::cancel`](crate::Ticket::cancel) while
    /// still queued.
    pub cancelled: u64,
    /// Jobs currently queued (live gauge). Exact across the scheduler's
    /// per-worker deques *and* the overflow injector: admission itself
    /// maintains the counter, so it is summed at submit time rather than
    /// sampled from the containers.
    pub queue_depth: usize,
    /// The deepest the queue has ever been, recorded at admission time.
    pub queue_high_water: usize,
    /// Work-stealing scheduler activity: steals, steal-fails, injector
    /// overflows, parks/unparks (see [`SchedStats`]).
    pub scheduler: SchedStats,
    /// Jobs executing on a worker at the instant of the snapshot (live
    /// gauge; the claimed-but-unresolved slice of
    /// [`in_flight`](MetricsSnapshot::in_flight)).
    pub running: u64,
    /// Worker threads currently alive: the built worker count while the
    /// engine serves, and 0 once
    /// [`ServiceEngine::shutdown`](crate::ServiceEngine::shutdown) returns.
    pub workers: usize,
    /// Submit-to-completion latency distribution of executed jobs.
    pub latency: LatencySnapshot,
    /// Per-shard pool stats and round bills.
    pub shards: Vec<ShardMetrics>,
}

impl MetricsSnapshot {
    /// The per-shard pool counters merged into one fleet-wide line.
    pub fn pool_total(&self) -> PoolStats {
        PoolStats::merged(self.shards.iter().map(|s| &s.pool))
    }

    /// Amortized substrate rounds across all shards.
    pub fn substrate_rounds(&self) -> u64 {
        self.shards.iter().map(|s| s.substrate_rounds).sum()
    }

    /// Marginal query rounds across all shards.
    pub fn query_rounds(&self) -> u64 {
        self.shards.iter().map(|s| s.query_rounds).sum()
    }

    /// The full amortized CONGEST bill (substrate + query).
    pub fn total_rounds(&self) -> u64 {
        self.substrate_rounds() + self.query_rounds()
    }

    /// Fleet-wide substrate build µs per phase (per-shard bills merged,
    /// sorted by phase name).
    pub fn substrate_phase_us(&self) -> Vec<(String, u64)> {
        let mut merged: HashMap<&str, u64> = HashMap::new();
        for shard in &self.shards {
            for (phase, us) in &shard.substrate_phase_us {
                *merged.entry(phase).or_insert(0) += us;
            }
        }
        let mut out: Vec<(String, u64)> = merged
            .into_iter()
            .map(|(p, us)| (p.to_string(), us))
            .collect();
        out.sort();
        out
    }

    /// Fleet-wide substrate build µs (all phases, all shards).
    pub fn substrate_us(&self) -> u64 {
        self.shards.iter().map(ShardMetrics::substrate_us).sum()
    }

    /// Sum of the per-shard peak-residency high-water marks — an upper
    /// bound on fleet-wide peak residency (shards may not have peaked at
    /// the same instant). The fleet's other byte gauges are in
    /// [`MetricsSnapshot::pool_total`]'s `bytes`.
    pub fn peak_resident_bytes(&self) -> u64 {
        self.pool_total().bytes.peak
    }

    /// Jobs admitted but not yet resolved (executing or still queued).
    pub fn in_flight(&self) -> u64 {
        self.submitted
            .saturating_sub(self.completed + self.failed + self.expired + self.cancelled)
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "engine: {} submitted ({} rejected), {} completed, {} failed, {} expired, {} cancelled, {} in flight",
            self.submitted,
            self.rejected,
            self.completed,
            self.failed,
            self.expired,
            self.cancelled,
            self.in_flight()
        )?;
        writeln!(
            f,
            "queue: depth {} (high water {}), {} running; {} worker(s) over {} shard(s)",
            self.queue_depth,
            self.queue_high_water,
            self.running,
            self.workers,
            self.shards.len()
        )?;
        writeln!(f, "sched: {}", self.scheduler)?;
        writeln!(
            f,
            "rounds: {} substrate + {} query = {} total",
            self.substrate_rounds(),
            self.query_rounds(),
            self.total_rounds()
        )?;
        write!(f, "build: {}µs substrate", self.substrate_us())?;
        for (phase, us) in self.substrate_phase_us() {
            write!(f, ", {phase} {us}µs")?;
        }
        writeln!(f)?;
        let pool = self.pool_total();
        writeln!(f, "memory: {}", pool.bytes)?;
        writeln!(f, "latency: {}", self.latency)?;
        writeln!(f, "fleet {pool}")?;
        for shard in &self.shards {
            writeln!(f, "  {shard}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duality_congest::CostLedger;
    use duality_core::pool::PoolBytes;

    fn report(topo: u64, weight: u64, query: u64) -> RoundReport {
        let mut r = RoundReport::default();
        r.substrate_topo.charge("t", topo);
        r.substrate_weight.charge("w", weight);
        r.query.charge("q", query);
        r
    }

    // `InstanceKey`'s only constructor is content-based, so the billing
    // tests key off tiny real instances.
    fn key(topo_seed: u64, spec_seed: u64) -> InstanceKey {
        use duality_core::PlanarInstance;
        use duality_planar::gen;
        let g = gen::diag_grid(3, 3, topo_seed).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, spec_seed);
        let i = PlanarInstance::new(g, Some(caps), None).unwrap();
        InstanceKey::of(&i)
    }

    #[test]
    fn substrate_is_delta_billed_per_content() {
        let m = MetricsRegistry::new(2, 16);
        let k = key(1, 1);
        // First job on the spec: full substrate + query.
        m.bill(0, k, &report(100, 30, 7));
        assert_eq!(m.shard_rounds(0), (130, 7));
        // Second job, same spec, same snapshot: only the query is new.
        m.bill(0, k, &report(100, 30, 5));
        assert_eq!(m.shard_rounds(0), (130, 12));
        // The substrate grew lazily (a girth query built the dual): only
        // the growth is billed.
        m.bill(0, k, &report(140, 30, 2));
        assert_eq!(m.shard_rounds(0), (170, 14));
        // A respec of the same topology bills its weight tier, not the
        // shared topo tier again.
        let k2 = key(1, 2);
        assert_eq!(k.topo_fingerprint(), k2.topo_fingerprint());
        assert_ne!(k, k2);
        m.bill(0, k2, &report(140, 25, 3));
        assert_eq!(m.shard_rounds(0), (195, 17));
        // Shards bill independently.
        assert_eq!(m.shard_rounds(1), (0, 0));
    }

    #[test]
    fn billed_maps_stay_bounded() {
        // Capacity 2: billing many distinct specs never grows the maps
        // past the bound, and an evicted spec re-bills on return (its
        // solver would genuinely rebuild after pool eviction too).
        let m = MetricsRegistry::new(1, 2);
        let keys: Vec<InstanceKey> = (0..5).map(|s| key(10 + s, 10 + s)).collect();
        for k in &keys {
            m.bill(0, *k, &report(100, 10, 1));
        }
        let (topo_len, weight_len) = m.billed_len(0);
        assert!(topo_len <= 2 && weight_len <= 2, "maps bounded");
        assert_eq!(m.shard_rounds(0), (5 * 110, 5), "each spec billed once");
        // Re-billing all five: at least three were evicted from the
        // 2-entry record and re-charge in full — honest, since the pool
        // would have rebuilt their substrate after its own eviction —
        // while any spec still recorded re-bills zero.
        for k in &keys {
            m.bill(0, *k, &report(100, 10, 1));
        }
        let (substrate, query) = m.shard_rounds(0);
        assert_eq!(query, 10);
        assert!(
            (8 * 110..=10 * 110).contains(&substrate),
            "≥ 3 evicted specs re-billed, ≤ 2 recorded ones did not: {substrate}"
        );
    }

    #[test]
    fn substrate_build_us_is_delta_billed_per_phase() {
        let m = MetricsRegistry::new(1, 16);
        let k = key(4, 4);
        let mut r = report(100, 30, 7);
        r.substrate_topo.charge_us("embed", 50);
        r.substrate_topo.charge_us("bdd", 200);
        r.substrate_weight.charge_us("labeling", 80);
        let fresh = m.bill(0, k, &r);
        assert_eq!(
            fresh,
            vec![
                ("embed".to_string(), 50),
                ("bdd".to_string(), 200),
                ("labeling".to_string(), 80)
            ],
            "the first job on a substrate returns every timed phase"
        );
        // The same snapshot again: the build is already billed.
        assert!(m.bill(0, k, &r).is_empty());
        // The substrate grew lazily (the dual built later): exactly the
        // new phase comes back.
        let mut r2 = r.clone();
        r2.substrate_topo.charge_us("dual", 30);
        assert_eq!(m.bill(0, k, &r2), vec![("dual".to_string(), 30)]);
        // The shard aggregate holds each phase once, sorted by name.
        assert_eq!(
            m.shard_phase_us(0),
            vec![
                ("bdd".to_string(), 200),
                ("dual".to_string(), 30),
                ("embed".to_string(), 50),
                ("labeling".to_string(), 80)
            ]
        );
    }

    #[test]
    fn snapshot_surfaces_bytes_and_build_us_fleet_wide() {
        let shard0_bytes = PoolBytes {
            resident: 1_000,
            peak: 1_500,
            evicted: 300,
        };
        let mut shard0 = ShardMetrics {
            shard: 0,
            substrate_phase_us: vec![("bdd".to_string(), 100), ("embed".to_string(), 10)],
            ..Default::default()
        };
        shard0.pool.bytes = shard0_bytes;
        let shard1 = ShardMetrics {
            shard: 1,
            substrate_phase_us: vec![("bdd".to_string(), 50)],
            ..Default::default()
        };
        let snap = MetricsSnapshot {
            shards: vec![shard0, shard1],
            ..Default::default()
        };
        assert_eq!(snap.substrate_us(), 160);
        assert_eq!(
            snap.substrate_phase_us(),
            vec![("bdd".to_string(), 150), ("embed".to_string(), 10)]
        );
        assert_eq!(snap.pool_total().bytes, shard0_bytes);
        assert_eq!(snap.peak_resident_bytes(), 1_500);
        let text = snap.to_string();
        assert!(
            text.contains("build: 160µs substrate, bdd 150µs, embed 10µs"),
            "{text}"
        );
        assert!(
            text.contains("memory: 1000 B resident (peak 1500 B, evicted 300 B)"),
            "{text}"
        );
    }

    #[test]
    fn latency_delta_isolates_an_interval() {
        let h = Histogram::new();
        for us in [10u64, 20, 30] {
            h.record(us);
        }
        let before = h.snapshot();
        for us in [1_000u64, 2_000, 4_000] {
            h.record(us);
        }
        let interval = h.snapshot().delta(&before);
        assert_eq!(interval.count, 3);
        assert_eq!(interval.sum_us, 7_000);
        // The interval's p50 reflects only the later, slower jobs.
        assert!(interval.quantile_us(0.5).unwrap() >= 1_000);
        assert_eq!(before.delta(&before).count, 0);
    }

    #[test]
    fn delta_edge_cases_stay_well_defined() {
        // Empty minus empty: still empty, quantiles still None.
        let empty = LatencySnapshot::default();
        let d = empty.delta(&empty);
        assert_eq!(d, LatencySnapshot::default());
        assert_eq!(d.quantile_us(0.99), None);
        assert_eq!(d.mean_us(), None);

        // Identical non-empty snapshots: a zero-count window whose
        // quantiles are None even though max_us carries over.
        let h = Histogram::new();
        for us in [5u64, 50, 500] {
            h.record(us);
        }
        let s = h.snapshot();
        let d = s.delta(&s);
        assert_eq!(d.count, 0);
        assert_eq!(d.sum_us, 0);
        assert_eq!(d.max_us, s.max_us, "max is not interval-recoverable");
        assert_eq!(d.quantile_us(0.5), None);

        // A window landing entirely in the unbounded top bucket: the
        // quantile ceiling clamps to the observed maximum instead of a
        // power of two.
        let h = Histogram::new();
        let huge = 1u64 << 40; // beyond the last finite bucket boundary
        let before = h.snapshot();
        h.record(huge + 123);
        let d = h.snapshot().delta(&before);
        assert_eq!(d.count, 1);
        assert_eq!(d.buckets[LATENCY_BUCKETS - 1], 1);
        assert_eq!(d.quantile_us(0.99), Some(huge + 123));
        assert_eq!(d.quantile_us(0.0), Some(huge + 123));
    }

    #[test]
    fn histogram_quantiles_and_display() {
        let h = Histogram::new();
        for us in [0u64, 1, 3, 900, 1_500, 40_000] {
            h.record(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.max_us, 40_000);
        assert_eq!(s.mean_us(), Some((1 + 3 + 900 + 1_500 + 40_000) / 6));
        // p50 of six samples = 3rd smallest (3µs) → bucket ceiling 4µs.
        assert_eq!(s.quantile_us(0.5), Some(4));
        assert!(s.quantile_us(1.0).unwrap() >= 40_000);
        assert!(s.to_string().contains("6 jobs"));
        assert_eq!(LatencySnapshot::default().quantile_us(0.5), None);
        assert_eq!(LatencySnapshot::default().to_string(), "no jobs recorded");
        // Sub-second and second formatting.
        assert_eq!(fmt_us(999), "999µs");
        assert_eq!(fmt_us(1_500), "1.5ms");
        assert_eq!(fmt_us(2_000_000), "2.00s");
    }

    #[test]
    fn snapshot_aggregates_across_shards() {
        let snap = MetricsSnapshot {
            submitted: 10,
            completed: 7,
            failed: 1,
            expired: 1,
            cancelled: 1,
            shards: vec![
                ShardMetrics {
                    shard: 0,
                    substrate_rounds: 100,
                    query_rounds: 40,
                    ..Default::default()
                },
                ShardMetrics {
                    shard: 1,
                    substrate_rounds: 50,
                    query_rounds: 10,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert_eq!(snap.substrate_rounds(), 150);
        assert_eq!(snap.query_rounds(), 50);
        assert_eq!(snap.total_rounds(), 200);
        assert_eq!(snap.in_flight(), 0);
        let text = snap.to_string();
        assert!(text.contains("10 submitted"));
        assert!(text.contains("150 substrate + 50 query"));
        assert!(text.contains("shard 1"));
    }

    #[test]
    fn display_renders_the_live_gauges() {
        // Operator dumps must show the live fleet shape, not just the
        // lifetime counters: the running-jobs gauge and the current
        // worker count both render.
        let snap = MetricsSnapshot {
            submitted: 4,
            completed: 1,
            running: 3,
            workers: 5,
            queue_depth: 2,
            queue_high_water: 9,
            ..Default::default()
        };
        let text = snap.to_string();
        assert!(text.contains("3 running"), "{text}");
        assert!(text.contains("5 worker(s)"), "{text}");
        assert!(text.contains("depth 2 (high water 9)"), "{text}");
        assert_eq!(snap.in_flight(), 3);
    }

    #[test]
    fn display_pins_the_scheduler_gauge_line() {
        // The scheduler line is part of the operator-facing format;
        // pin it verbatim so gauge renames are deliberate.
        let snap = MetricsSnapshot {
            submitted: 6,
            completed: 6,
            scheduler: SchedStats {
                steals: 12,
                steal_fails: 3,
                injector_overflows: 2,
                parks: 9,
                unparks: 8,
            },
            ..Default::default()
        };
        let text = snap.to_string();
        assert!(
            text.contains("sched: 12 steals (3 failed), 2 injector overflows, 9 parks / 8 unparks"),
            "{text}"
        );
        // The empty default still renders the line (all zeros).
        let empty = MetricsSnapshot::default().to_string();
        assert!(
            empty.contains("sched: 0 steals (0 failed), 0 injector overflows, 0 parks / 0 unparks"),
            "{empty}"
        );
    }

    #[test]
    fn ledger_shapes_flow_through_bill() {
        // A real multi-phase ledger bills its total, not its phase count.
        let m = MetricsRegistry::new(1, 16);
        let mut r = RoundReport::default();
        let mut q = CostLedger::new();
        q.charge("labeling-broadcast", 11);
        q.charge("candidate-scan", 4);
        r.query = q;
        m.bill(0, key(2, 3), &r);
        assert_eq!(m.shard_rounds(0), (0, 15));
    }
}
