//! The reconciler: drives the live engine toward the spec through
//! observe → diff → plan → execute rounds.
//!
//! The controller never edits engine state ad hoc. Each round it
//! *observes* the fleet ([`FleetObservation`]: live workers, admission,
//! queue pressure, per-shard residency, SLO posture), *diffs* the
//! observation against the [`FleetSpec`] into a typed
//! [`Plan`], *executes* the plan's actions through the engine's public
//! reconfiguration surface (each action retried with backoff), then
//! re-observes — until a round produces an empty plan with the worker
//! fleet settled, or the convergence budget ([`MAX_RECONCILE_ROUNDS`])
//! runs out. Observation is side-effect-free: it never touches pool LRU
//! order, so watching a cold tenant cannot keep it warm.
//!
//! Tenant instances are rebuilt bit for bit from their
//! [`TenantRecord`]s (the trace-replay
//! recipe). A derated tenant serves a copy-on-write respec of its base
//! instance — same graph allocation, new capacity vector — and the
//! reconciler keeps base `Arc`s alive across spec pushes, so every
//! derate lands on the shard that holds its respec-donor solver and
//! reuses its topology substrate.

use crate::error::ControlError;
use crate::plan::{Action, Plan};
use crate::spec::{FleetSpec, TenantDecl};
use crate::store::{Snapshot, StateStore, SNAPSHOT_SCHEMA_VERSION};
use duality_core::{InstanceKey, PlanarInstance, PoolBytes};
use duality_planar::gen;
use duality_service::{AdmissionPolicy, MetricsSnapshot, SchedStats, ServiceEngine};
use duality_telemetry::Telemetry;
use duality_workload::{Mutation, TenantRecord};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Maximum observe/diff/execute rounds of one reconcile pass before it
/// gives up.
pub const MAX_RECONCILE_ROUNDS: usize = 32;

/// Pause between rounds, letting asynchronous effects (worker threads
/// retiring) land before the next observation.
const SETTLE: Duration = Duration::from_millis(2);

/// Attempts per action before the round moves on.
const RETRY_ATTEMPTS: usize = 3;

/// Pause between attempts of one action.
const RETRY_BACKOFF: Duration = Duration::from_millis(1);

/// Runs `op` up to `attempts` times with `backoff` between tries, until
/// it reports success. The retry primitive every plan action goes
/// through.
pub fn retry(attempts: usize, backoff: Duration, mut op: impl FnMut() -> bool) -> bool {
    for attempt in 0..attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(backoff);
        }
        if op() {
            return true;
        }
    }
    false
}

/// What one reconcile pass did and where it ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// Whether the fleet matched the spec when the pass ended.
    pub converged: bool,
    /// Observation rounds taken (a no-op pass takes 1).
    pub rounds: usize,
    /// Every action executed, in order across rounds.
    pub actions: Vec<Action>,
    /// Total per-tenant SLO violations counted across observations.
    pub slo_violations: u64,
}

/// One tenant's observed state, spec side by side with the live pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantObservation {
    /// The tenant's spec name.
    pub name: String,
    /// The key of the instance the spec wants served (the derated spec
    /// when `derate_percent < 100`).
    pub desired_key: InstanceKey,
    /// Whether that solver is resident on its home shard.
    pub resident: bool,
    /// Pool idle age in lookup ticks, when resident.
    pub idle_ticks: Option<u64>,
    /// The tenant's own p99 (µs), attributed from the telemetry spine's
    /// per-tenant ledger. `None` when no telemetry is attached or the
    /// tenant has executed nothing yet.
    pub p99_us: Option<u64>,
    /// Whether the tenant's SLO was violated at observation time. With a
    /// telemetry spine attached the latency bound is judged against the
    /// tenant's *own* p99; without one it falls back to the fleet-wide
    /// p99.
    pub slo_violated: bool,
}

/// A side-effect-free snapshot of the fleet, taken once per round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetObservation {
    /// Worker threads actually alive.
    pub workers_live: usize,
    /// Worker count the engine is currently steering toward.
    pub workers_target: usize,
    /// Admission policy in force.
    pub admission: AdmissionPolicy,
    /// Jobs queued, not yet claimed.
    pub queue_depth: usize,
    /// Jobs claimed by workers, not yet resolved.
    pub running: u64,
    /// The scheduler's cumulative activity ledger (steals, injector
    /// overflows, parks/unparks) — how the fleet is reaching its jobs,
    /// alongside how many jobs there are.
    pub scheduler: SchedStats,
    /// Fleet-wide p99 latency, when any job has completed.
    pub p99_us: Option<u64>,
    /// The fleet's pool byte gauges: resident bytes measured at
    /// observation time via [`duality_core::HeapSize`], the summed peaks,
    /// and the bytes freed by evictions.
    pub pool_bytes: PoolBytes,
    /// Amortized substrate build µs billed across the fleet (each build
    /// charged once, summed over its phases).
    pub substrate_build_us: u64,
    /// Per-tenant observations, in spec order.
    pub tenants: Vec<TenantObservation>,
    /// Resident solvers no spec'd tenant wants: not any tenant's desired
    /// spec, and not a base spec kept as a respec-donor anchor.
    pub strays: Vec<InstanceKey>,
    /// SLO violations counted in this observation.
    pub slo_violations: u64,
}

/// A tenant the reconciler manages: its declaration plus the two
/// instances that realize it — the base build and the (possibly
/// derated) spec the fleet should serve. `base` is held even when
/// derated, as the respec-donor anchor.
struct ManagedTenant {
    decl: TenantDecl,
    base: Arc<PlanarInstance>,
    desired: Arc<PlanarInstance>,
}

impl ManagedTenant {
    /// Builds a managed tenant, reusing `donor`'s base instance when its
    /// record matches (keeps graph-allocation identity across spec
    /// pushes, which the pool's respec-reuse path keys on).
    fn build(
        decl: TenantDecl,
        donor: Option<&ManagedTenant>,
    ) -> Result<ManagedTenant, ControlError> {
        let base = match donor {
            Some(d) if d.decl.record == decl.record => Arc::clone(&d.base),
            _ => build_base(&decl.record)?,
        };
        let desired = if decl.derate_percent == 100 {
            Arc::clone(&base)
        } else {
            Mutation::ScaleCapacities {
                percent: decl.derate_percent,
            }
            .apply(&base, &base)?
        };
        Ok(ManagedTenant {
            decl,
            base,
            desired,
        })
    }
}

/// Rebuilds a tenant's base instance from its record — the same recipe
/// trace replay uses, so a control-plane tenant and its trace twin key
/// identically.
fn build_base(record: &TenantRecord) -> Result<Arc<PlanarInstance>, ControlError> {
    let g = record.family.build(record.graph_seed)?;
    let caps = gen::random_undirected_capacities(
        g.num_edges(),
        record.cap_range.0,
        record.cap_range.1,
        record.cap_seed,
    );
    let weights = gen::random_edge_weights(
        g.num_edges(),
        record.weight_range.0,
        record.weight_range.1,
        record.weight_seed,
    );
    Ok(PlanarInstance::new(g, Some(caps), Some(weights))?)
}

/// The fleet controller — see the [module docs](self).
pub struct Reconciler {
    engine: ServiceEngine,
    spec: FleetSpec,
    tenants: Vec<ManagedTenant>,
    store: Option<StateStore>,
    seq: u64,
    telemetry: Option<Arc<Telemetry>>,
}

impl Reconciler {
    /// Validates `spec`, builds an engine with its shape, and realizes
    /// the tenant roster. The fleet is *not* yet reconciled — call
    /// [`Reconciler::reconcile`] (or push traffic and reconcile later).
    ///
    /// # Errors
    ///
    /// [`ControlError::InvalidSpec`] on a bad spec; build errors from
    /// the graph generators or the engine.
    pub fn launch(spec: FleetSpec) -> Result<Reconciler, ControlError> {
        Reconciler::launch_inner(spec, None)
    }

    /// Like [`Reconciler::launch`], but wires the engine's span stream
    /// into `telemetry` and registers every tenant's name with its
    /// ledger, so observations judge SLOs per tenant.
    ///
    /// # Errors
    ///
    /// As [`Reconciler::launch`].
    pub fn launch_with_telemetry(
        spec: FleetSpec,
        telemetry: Arc<Telemetry>,
    ) -> Result<Reconciler, ControlError> {
        Reconciler::launch_inner(spec, Some(telemetry))
    }

    fn launch_inner(
        spec: FleetSpec,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Result<Reconciler, ControlError> {
        spec.validate()?;
        let mut builder = ServiceEngine::builder()
            .shards(spec.shards)
            .workers(spec.workers)
            .queue_capacity(spec.queue_capacity)
            .pool_capacity(spec.pool_capacity)
            .admission(spec.admission);
        if let Some(tel) = &telemetry {
            builder = builder.span_sink(tel.sink());
        }
        let engine = builder.build()?;
        let tenants = spec
            .tenants
            .iter()
            .map(|decl| ManagedTenant::build(decl.clone(), None))
            .collect::<Result<Vec<_>, _>>()?;
        let r = Reconciler {
            engine,
            spec,
            tenants,
            store: None,
            seq: 0,
            telemetry,
        };
        r.name_tenants();
        Ok(r)
    }

    /// Registers every tenant's spec name with the telemetry ledger,
    /// keyed by topology fingerprint — the base and its derates share
    /// one topology, so one registration covers both.
    fn name_tenants(&self) {
        if let Some(tel) = &self.telemetry {
            for t in &self.tenants {
                tel.name_tenant_key(&InstanceKey::of(&t.base), &t.decl.name);
            }
        }
    }

    /// Rebuilds a controller from the last snapshot in `store` and
    /// attaches the store for future snapshots. The engine starts cold;
    /// the first [`Reconciler::reconcile`] restores warm state.
    ///
    /// # Errors
    ///
    /// [`ControlError::MissingSnapshot`] on an empty store;
    /// [`ControlError::HashMismatch`] / [`ControlError::Parse`] on a
    /// tampered or unreadable snapshot; launch errors as
    /// [`Reconciler::launch`].
    pub fn resume(store: StateStore) -> Result<Reconciler, ControlError> {
        let snapshot = store.load()?.ok_or_else(|| ControlError::MissingSnapshot {
            path: store.path_display(),
        })?;
        let mut r = Reconciler::launch(snapshot.spec)?;
        r.seq = snapshot.seq;
        r.store = Some(store);
        Ok(r)
    }

    /// Attaches a [`StateStore`]; every converged reconcile pass
    /// snapshots into it.
    pub fn attach_store(&mut self, store: StateStore) {
        self.store = Some(store);
    }

    /// The spec currently in force.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// The engine under management — the serving handle callers submit
    /// queries through.
    pub fn engine(&self) -> &ServiceEngine {
        &self.engine
    }

    /// The instance the named tenant should currently be served with
    /// (its derated spec when derated).
    pub fn instance(&self, tenant: &str) -> Option<&Arc<PlanarInstance>> {
        self.tenants
            .iter()
            .find(|t| t.decl.name == tenant)
            .map(|t| &t.desired)
    }

    /// Installs a new spec and reconciles toward it. Engine-shape fields
    /// (`shards`, `queue_capacity`, `pool_capacity`) must match the
    /// running fleet; tenant bases whose records are unchanged keep
    /// their existing graph allocation (respec-donor identity).
    ///
    /// # Errors
    ///
    /// [`ControlError::InvalidSpec`] on a bad spec;
    /// [`ControlError::RequiresRebuild`] when the push changes a
    /// build-time field; build errors for new tenants.
    pub fn push(&mut self, spec: FleetSpec) -> Result<ConvergenceReport, ControlError> {
        spec.validate()?;
        for (field, changed) in [
            ("shards", spec.shards != self.spec.shards),
            (
                "queue_capacity",
                spec.queue_capacity != self.spec.queue_capacity,
            ),
            (
                "pool_capacity",
                spec.pool_capacity != self.spec.pool_capacity,
            ),
        ] {
            if changed {
                return Err(ControlError::RequiresRebuild { field });
            }
        }
        let tenants = spec
            .tenants
            .iter()
            .map(|decl| {
                let donor = self.tenants.iter().find(|t| t.decl.record == decl.record);
                ManagedTenant::build(decl.clone(), donor)
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.tenants = tenants;
        self.spec = spec;
        self.name_tenants();
        self.reconcile()
    }

    /// Takes one side-effect-free observation of the fleet. (Measuring
    /// pool bytes takes the pool locks briefly but never touches LRU
    /// order, so observation still cannot keep a cold tenant warm.)
    pub fn observe(&self) -> FleetObservation {
        let metrics = self.engine.metrics();
        let p99_us = metrics.latency.quantile_us(0.99);
        let pool_bytes = metrics.pool_total().bytes;
        // Push the pulled byte gauges into the telemetry spine, so its
        // exported snapshots carry memory truth alongside attribution.
        if let Some(tel) = &self.telemetry {
            tel.set_pool_bytes(pool_bytes);
        }
        let attribution = self.telemetry.as_ref().map(|t| t.snapshot());
        let residency = self.engine.shard_residency();
        let mut wanted: HashSet<InstanceKey> = HashSet::new();
        for t in &self.tenants {
            wanted.insert(InstanceKey::of(&t.desired));
            // Base specs stay welcome even when derated: they are the
            // respec-donor anchors the derated solvers were built from.
            wanted.insert(InstanceKey::of(&t.base));
        }
        let mut slo_violations = 0u64;
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                let desired_key = InstanceKey::of(&t.desired);
                let shard = self.engine.shard_of(&desired_key);
                let idle_ticks = residency[shard]
                    .iter()
                    .find(|e| e.key == desired_key)
                    .map(|e| e.idle);
                // With telemetry attached, the latency bound is judged
                // against the tenant's own attributed p99; a tenant that
                // executed nothing has no latency to violate. Without
                // telemetry, fall back to the fleet-wide p99.
                let tenant_p99 = attribution.as_ref().map(|snap| {
                    snap.tenant(InstanceKey::of(&t.base).topo_fingerprint())
                        .and_then(|row| row.p99_total_us())
                });
                let effective_p99 = tenant_p99.unwrap_or(p99_us);
                let slo_violated = t.decl.slo.is_some_and(|slo| {
                    slo.max_p99_us
                        .is_some_and(|bound| effective_p99.is_some_and(|p99| p99 > bound))
                        || slo
                            .max_queue_depth
                            .is_some_and(|bound| metrics.queue_depth > bound)
                });
                slo_violations += u64::from(slo_violated);
                TenantObservation {
                    name: t.decl.name.clone(),
                    desired_key,
                    resident: idle_ticks.is_some(),
                    idle_ticks,
                    p99_us: tenant_p99.flatten(),
                    slo_violated,
                }
            })
            .collect();
        let strays = residency
            .iter()
            .flatten()
            .map(|e| e.key)
            .filter(|k| !wanted.contains(k))
            .collect();
        FleetObservation {
            workers_live: metrics.workers,
            workers_target: self.engine.worker_count(),
            admission: self.engine.admission(),
            queue_depth: metrics.queue_depth,
            running: metrics.running,
            scheduler: metrics.scheduler,
            p99_us,
            pool_bytes,
            substrate_build_us: metrics.substrate_us(),
            tenants,
            strays,
            slo_violations,
        }
    }

    /// Diffs an observation against the spec into an ordered [`Plan`].
    /// Pure: no engine access, so diff logic is testable on synthetic
    /// observations.
    pub fn diff(&self, obs: &FleetObservation) -> Plan {
        let mut actions = Vec::new();
        if obs.admission != self.spec.admission {
            actions.push(Action::SetAdmission {
                policy: self.spec.admission,
            });
        }
        if obs.workers_target != self.spec.workers {
            actions.push(Action::ScaleWorkers {
                from: obs.workers_live,
                to: self.spec.workers,
            });
        }
        for (t, o) in self.tenants.iter().zip(&obs.tenants) {
            if t.decl.prewarm && !o.resident {
                actions.push(if t.decl.derate_percent < 100 {
                    Action::DerateRegion {
                        tenant: t.decl.name.clone(),
                        percent: t.decl.derate_percent,
                    }
                } else {
                    Action::PrewarmTenant {
                        tenant: t.decl.name.clone(),
                    }
                });
            }
        }
        for &key in &obs.strays {
            actions.push(Action::EvictTenant { key });
        }
        Plan { actions }
    }

    /// Executes one action against the engine, returning whether its
    /// post-condition now holds.
    fn execute(&self, action: &Action) -> bool {
        match action {
            Action::SetAdmission { policy } => {
                self.engine.set_admission(*policy);
                self.engine.admission() == *policy
            }
            Action::ScaleWorkers { to, .. } => self.engine.scale_workers(*to) == *to,
            Action::PrewarmTenant { tenant } | Action::DerateRegion { tenant, .. } => {
                // Admitting the solver through the audit hatch *is* the
                // prewarm; a derated tenant's desired instance is already
                // the respec, so both actions execute identically.
                match self.instance(tenant) {
                    Some(instance) => {
                        let instance = Arc::clone(instance);
                        drop(self.engine.solver(&instance));
                        self.engine.resident(&InstanceKey::of(&instance))
                    }
                    None => false,
                }
            }
            Action::EvictTenant { key } => {
                self.engine.evict(key);
                !self.engine.resident(key)
            }
        }
    }

    /// Runs observe → diff → execute rounds until converged or the
    /// budget runs out, then (when a store is attached and the pass
    /// converged) snapshots the result.
    ///
    /// Convergence means: an observation produced an empty plan *and*
    /// the live worker count matches the spec (scale-down is
    /// cooperative, so retiring threads may outlive the plan that
    /// retired them by a few rounds).
    ///
    /// # Errors
    ///
    /// [`ControlError::Io`] when the converged snapshot fails to write.
    pub fn reconcile(&mut self) -> Result<ConvergenceReport, ControlError> {
        let mut actions = Vec::new();
        let mut slo_violations = 0u64;
        let mut converged = false;
        let mut rounds = 0usize;
        while rounds < MAX_RECONCILE_ROUNDS {
            rounds += 1;
            let obs = self.observe();
            slo_violations += obs.slo_violations;
            let plan = self.diff(&obs);
            if plan.is_empty() && obs.workers_live == self.spec.workers {
                converged = true;
                break;
            }
            for action in plan.actions {
                retry(RETRY_ATTEMPTS, RETRY_BACKOFF, || self.execute(&action));
                actions.push(action);
            }
            std::thread::sleep(SETTLE);
        }
        let report = ConvergenceReport {
            converged,
            rounds,
            actions,
            slo_violations,
        };
        if converged {
            if let Some(store) = &self.store {
                self.seq += 1;
                store.save(&Snapshot {
                    schema_version: SNAPSHOT_SCHEMA_VERSION,
                    seq: self.seq,
                    spec_hash: self.spec.spec_hash(),
                    converged: true,
                    rounds: report.rounds as u64,
                    actions: report.actions.len() as u64,
                    spec: self.spec.clone(),
                })?;
            }
        }
        Ok(report)
    }

    /// Shuts the fleet down (graceful drain) and returns the final
    /// metrics.
    pub fn shutdown(self) -> MetricsSnapshot {
        self.engine.shutdown()
    }
}

impl std::fmt::Debug for Reconciler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reconciler")
            .field("spec", &format_args!("{}", self.spec))
            .field("seq", &self.seq)
            .field("store", &self.store.as_ref().map(StateStore::path_display))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Slo;
    use duality_workload::FamilySpec;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tenant(name: &str, seed: u64, prewarm: bool) -> TenantDecl {
        TenantDecl {
            name: name.to_string(),
            record: TenantRecord {
                family: FamilySpec::DiagGrid { w: 4, h: 4 },
                cap_range: (1, 9),
                weight_range: (1, 9),
                graph_seed: seed,
                cap_seed: seed + 100,
                weight_seed: seed + 200,
            },
            prewarm,
            derate_percent: 100,
            slo: None,
        }
    }

    fn spec() -> FleetSpec {
        FleetSpec {
            name: "unit".into(),
            revision: 1,
            workers: 2,
            shards: 2,
            queue_capacity: 16,
            pool_capacity: 8,
            admission: AdmissionPolicy::Block,
            tenants: vec![tenant("a", 1, true), tenant("b", 2, true)],
        }
    }

    #[test]
    fn retry_reports_attempts_honestly() {
        let calls = AtomicUsize::new(0);
        assert!(retry(3, Duration::ZERO, || {
            calls.fetch_add(1, Ordering::Relaxed) == 1
        }));
        assert_eq!(calls.load(Ordering::Relaxed), 2, "succeeded on try 2");
        let calls = AtomicUsize::new(0);
        assert!(!retry(3, Duration::ZERO, || {
            calls.fetch_add(1, Ordering::Relaxed);
            false
        }));
        assert_eq!(calls.load(Ordering::Relaxed), 3, "exhausted the budget");
        assert!(retry(0, Duration::ZERO, || true), "attempts clamp to 1");
    }

    #[test]
    fn launch_then_reconcile_prewarms_the_roster() {
        let mut r = Reconciler::launch(spec()).unwrap();
        let cold = r.observe();
        assert!(cold.tenants.iter().all(|t| !t.resident), "launch is cold");
        let report = r.reconcile().unwrap();
        assert!(report.converged, "{report:?}");
        assert!(report
            .actions
            .iter()
            .any(|a| matches!(a, Action::PrewarmTenant { .. })));
        let warm = r.observe();
        assert!(warm.tenants.iter().all(|t| t.resident));
        assert!(warm.strays.is_empty());
        // Converged fleet: a second pass is a single empty round.
        let again = r.reconcile().unwrap();
        assert!(again.converged && again.rounds == 1 && again.actions.is_empty());
        r.shutdown();
    }

    #[test]
    fn push_derates_through_the_cow_respec_path_and_evicts_strays() {
        let mut r = Reconciler::launch(spec()).unwrap();
        r.reconcile().unwrap();
        let base_key = InstanceKey::of(r.instance("a").unwrap());

        let mut derated = r.spec().clone();
        derated.revision += 1;
        derated.tenants[0].derate_percent = 40;
        let report = r.push(derated).unwrap();
        assert!(report.converged, "{report:?}");
        assert!(report
            .actions
            .iter()
            .any(|a| matches!(a, Action::DerateRegion { percent: 40, .. })));

        let t = &r.tenants[0];
        assert!(
            Arc::ptr_eq(t.base.graph_arc(), t.desired.graph_arc()),
            "derate shares the base graph allocation (COW respec)"
        );
        assert_eq!(
            InstanceKey::of(&t.desired).topo_fingerprint(),
            base_key.topo_fingerprint(),
            "same topology, new spec"
        );
        assert!(r.engine().resident(&InstanceKey::of(&t.desired)));

        // Restore to 100%: the derated solver is now a stray and must go.
        let stray_key = InstanceKey::of(&t.desired);
        let mut restored = r.spec().clone();
        restored.revision += 1;
        restored.tenants[0].derate_percent = 100;
        let report = r.push(restored).unwrap();
        assert!(report.converged);
        assert!(report
            .actions
            .iter()
            .any(|a| matches!(a, Action::EvictTenant { key } if *key == stray_key)));
        assert!(!r.engine().resident(&stray_key));
        assert!(r.engine().resident(&base_key), "base spec is back");
        r.shutdown();
    }

    #[test]
    fn push_reconfigures_workers_and_admission_live() {
        let mut r = Reconciler::launch(spec()).unwrap();
        r.reconcile().unwrap();
        let mut next = r.spec().clone();
        next.revision += 1;
        next.workers = 4;
        next.admission = AdmissionPolicy::Reject;
        let report = r.push(next).unwrap();
        assert!(report.converged, "{report:?}");
        assert_eq!(r.engine().admission(), AdmissionPolicy::Reject);
        assert_eq!(r.engine().metrics().workers, 4);

        // And back down: cooperative retire converges within the budget.
        let mut down = r.spec().clone();
        down.revision += 1;
        down.workers = 1;
        down.admission = AdmissionPolicy::Block;
        let report = r.push(down).unwrap();
        assert!(report.converged, "{report:?}");
        assert_eq!(r.engine().metrics().workers, 1);
        r.shutdown();
    }

    #[test]
    fn push_refuses_engine_shape_changes() {
        let mut r = Reconciler::launch(spec()).unwrap();
        for (mutate, field) in [
            (
                Box::new(|s: &mut FleetSpec| s.shards = 4) as Box<dyn Fn(&mut FleetSpec)>,
                "shards",
            ),
            (Box::new(|s| s.queue_capacity = 99), "queue_capacity"),
            (Box::new(|s| s.pool_capacity = 99), "pool_capacity"),
        ] {
            let mut next = r.spec().clone();
            next.revision += 1;
            mutate(&mut next);
            assert_eq!(
                r.push(next).unwrap_err(),
                ControlError::RequiresRebuild { field }
            );
        }
        assert!(r
            .push(FleetSpec {
                name: String::new(),
                ..spec()
            })
            .is_err());
        r.shutdown();
    }

    #[test]
    fn observations_carry_fleet_byte_gauges() {
        let telemetry = Arc::new(Telemetry::new(64));
        let mut r = Reconciler::launch_with_telemetry(spec(), Arc::clone(&telemetry)).unwrap();
        r.reconcile().unwrap();
        let obs = r.observe();
        assert!(
            obs.pool_bytes.resident > 0,
            "prewarmed solvers occupy bytes"
        );
        assert!(obs.pool_bytes.peak >= obs.pool_bytes.resident);
        assert_eq!(obs.pool_bytes.evicted, 0, "nothing evicted yet");
        // A query bills its substrate build; the next observation sees it.
        let instance = Arc::clone(r.instance("a").unwrap());
        r.engine()
            .run(&instance, duality_core::Query::Girth)
            .unwrap();
        let obs = r.observe();
        assert!(obs.substrate_build_us > 0 || !telemetry.snapshot().phase_us.is_empty());
        // With telemetry attached, p99 is attributed per tenant.
        assert!(obs.tenants[0].p99_us.is_some(), "tenant a executed a job");
        assert_eq!(obs.tenants[1].p99_us, None, "tenant b executed nothing");
        // Observing stamped the gauges into the telemetry spine.
        let snap = telemetry.snapshot();
        assert_eq!(snap.pool_bytes.resident, obs.pool_bytes.resident);
        assert!(snap.pool_bytes.peak >= obs.pool_bytes.resident);
        r.shutdown();
    }

    #[test]
    fn slo_violations_are_reported_not_enforced() {
        let mut s = spec();
        // An unsatisfiable p99 bound: any completed job violates it.
        s.tenants[0].slo = Some(Slo {
            max_p99_us: Some(0),
            max_queue_depth: None,
        });
        let mut r = Reconciler::launch(s).unwrap();
        r.reconcile().unwrap();
        let query = duality_core::Query::MaxFlow { s: 0, t: 5 };
        let instance = Arc::clone(r.instance("a").unwrap());
        r.engine().run(&instance, query).unwrap();
        let obs = r.observe();
        assert!(obs.p99_us.is_some());
        assert!(obs.tenants[0].slo_violated && !obs.tenants[1].slo_violated);
        let report = r.reconcile().unwrap();
        assert!(report.converged, "violations never block convergence");
        assert!(report.slo_violations > 0);
        r.shutdown();
    }
}
