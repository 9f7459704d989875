//! Per-layer metrics of a traced run: the sample store, the layer sweep
//! (direct timed calls into every layer on the workload's own tenants)
//! and the engine-side readings (span records, pool, scheduler and sink
//! counters).

use crate::harness::{SpanLog, PER_LAYER};
use crate::tenants::Tenant;
use crate::util::{self, median, quantile, Rng};
use duality_congest::CostLedger;
use duality_core::{InstanceKey, PlanarSolver, Query};
use duality_service::{MetricsSnapshot, SpanRecord};
use std::collections::HashMap;

/// Collects per-layer samples (reported as their median) and single
/// values, then yields every metric of [`PER_LAYER`].
#[derive(Default)]
pub struct Layers {
    samples: HashMap<&'static str, Vec<f64>>,
    values: HashMap<&'static str, f64>,
}

impl Layers {
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn samples(&mut self, name: &'static str, vs: impl IntoIterator<Item = f64>) {
        self.samples.entry(name).or_default().extend(vs);
    }

    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name) || self.samples.get(name).is_some_and(|v| !v.is_empty())
    }

    pub fn value(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// Every per-layer metric: a set value, else the median of its
    /// samples. A metric with neither is a bug in the workload's traced
    /// run and panics.
    pub fn finish(mut self) -> HashMap<&'static str, f64> {
        PER_LAYER
            .iter()
            .map(|&(name, _)| {
                let v = match self.values.remove(name) {
                    Some(v) => v,
                    None => median(
                        self.samples
                            .get(name)
                            .filter(|s| !s.is_empty())
                            .unwrap_or_else(|| panic!("per-layer metric {name} was not measured")),
                    ),
                };
                (name, v)
            })
            .collect()
    }
}

/// The benchmark's span name for a query of this kind.
pub fn core_span(query: &Query) -> &'static str {
    match query {
        Query::MaxFlow { .. } => "core.max_flow",
        Query::MinStCut { .. } => "core.min_st_cut",
        Query::ApproxMaxFlow { .. } | Query::ApproxMinStCut { .. } => "core.approx",
        Query::GlobalMinCut => "core.global_min_cut",
        Query::Girth => "core.girth",
    }
}

/// The core metric a query kind's timings feed.
pub fn core_metric(query: &Query) -> &'static str {
    match query {
        Query::MaxFlow { .. } => "core.max_flow_ms",
        Query::MinStCut { .. } => "core.min_st_cut_ms",
        Query::ApproxMaxFlow { .. } | Query::ApproxMinStCut { .. } => "core.approx_ms",
        Query::GlobalMinCut => "core.global_min_cut_ms",
        Query::Girth => "core.girth_ms",
    }
}

fn core_metric_of_kind(kind: &str) -> &'static str {
    match kind {
        "max-flow" => "core.max_flow_ms",
        "min-st-cut" => "core.min_st_cut_ms",
        "global-min-cut" => "core.global_min_cut_ms",
        "girth" => "core.girth_ms",
        _ => "core.approx_ms",
    }
}

/// The layer sweep: on a fresh solver per tenant, times the first build
/// of each substrate tier, one labeling at the capacity lengths, a
/// copy-on-write respec and its key, and one warm query of every kind
/// the workload's own ops did not already time. Each call is a span in
/// `log`; the timing samples are read back from those spans.
pub fn sweep(tenants: &[Tenant], seed: u64, layers: &mut Layers, log: &mut SpanLog) {
    let mut rng = Rng::stream(seed, 99);
    let missing: Vec<Query> = [
        Query::MaxFlow { s: 0, t: 1 },
        Query::MinStCut { s: 0, t: 1 },
        Query::GlobalMinCut,
        Query::Girth,
        Query::ApproxMaxFlow {
            s: 0,
            t: 1,
            eps_inverse: 1,
        },
    ]
    .into_iter()
    .filter(|q| !layers.has(core_metric(q)))
    .collect();
    // A workload whose max flows ran inside the engine still needs the
    // probe count, which only the report carries.
    let count_probes = !layers.has("core.probes_per_max_flow");
    let time_respec = !layers.has("instance.respec_us");
    for (i, tenant) in tenants.iter().enumerate() {
        let op = (1 << 48) | i as u64;
        let solver = PlanarSolver::from_instance(tenant.instance.clone());
        log.time("substrate.topo_build", op, None, || {
            solver.labeling_engine();
        });
        log.time("substrate.dual", op, None, || {
            solver.dual_graph();
        });
        // The weight tier and its labeling, built by a global min cut.
        let cold = solver
            .run(Query::GlobalMinCut)
            .expect("a diag-grid has a global cut");
        for (phase, us) in cold.rounds().substrate_phases_us() {
            let metric = match phase.as_str() {
                "embed" => "substrate.embed_us",
                "dual" => "substrate.dual_us",
                "bdd" => "substrate.bdd_us",
                "weight-tier" => "substrate.weight_tier_us",
                "labeling" => "substrate.labeling_us",
                _ => continue,
            };
            layers.sample(metric, us as f64);
        }
        layers.sample(
            "substrate.weight_rounds_per_respec",
            cold.rounds().substrate_weight_total() as f64,
        );
        // One labeling at the capacity lengths (one capacity per dart).
        let engine = solver.labeling_engine();
        log.time("labeling.labels", op, None, || {
            let mut ledger = CostLedger::new();
            std::hint::black_box(
                engine
                    .labels(solver.capacities(), &mut ledger)
                    .expect("non-negative lengths have no negative cycle"),
            );
        });
        // A copy-on-write respec and the first hash of its key.
        if time_respec {
            let caps: Vec<i64> = solver.capacities().iter().map(|&c| c + 1).collect();
            let respecced = log.time("instance.respec", op, None, || {
                tenant
                    .instance
                    .with_capacities(caps)
                    .expect("valid capacities")
            });
            log.time("instance.key", op, None, || InstanceKey::of(&respecced));
        }
        if count_probes && !missing.iter().any(|q| matches!(q, Query::MaxFlow { .. })) {
            let out = solver
                .run(tenant.exact_query(&mut rng, true))
                .expect("sweep queries are valid");
            if let Some(r) = out.as_max_flow() {
                layers.sample("core.probes_per_max_flow", f64::from(r.probes));
            }
        }
        // Warm queries of the kinds the workload did not time itself.
        for kind in &missing {
            let query = match kind {
                Query::MaxFlow { .. } => tenant.exact_query(&mut rng, true),
                Query::MinStCut { .. } => tenant.exact_query(&mut rng, false),
                Query::ApproxMaxFlow { .. } => tenant.approx_query(&mut rng, true),
                other => *other,
            };
            let out = log
                .time(core_span(&query), op, None, || solver.run(query))
                .expect("sweep queries are valid");
            if let Some(r) = out.as_max_flow() {
                layers.sample("core.probes_per_max_flow", f64::from(r.probes));
            }
        }
    }
    let ms = |name| log.durations_us(name).into_iter().map(|us| us / 1e3);
    layers.samples("substrate.topo_build_ms", ms("substrate.topo_build"));
    layers.samples("labeling.labels_ms", ms("labeling.labels"));
    for kind in &missing {
        layers.samples(core_metric(kind), ms(core_span(kind)));
    }
    if time_respec {
        layers.samples("instance.respec_us", log.durations_us("instance.respec"));
        layers.samples("instance.key_us", log.durations_us("instance.key"));
    }
}

/// The engine-side layer readings of one traced pass of `ops` jobs:
/// the engine's span records (queue wait, execution, per-kind service
/// time), the client-side op latencies and submit times, pool and
/// scheduler counter deltas, and the sink's drop count.
#[allow(clippy::too_many_arguments)]
pub fn engine_layers(
    layers: &mut Layers,
    records: &[SpanRecord],
    client_latency_us: &[f64],
    submit_us: &[f64],
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    tail_q: f64,
    dropped: u64,
) {
    let ops = client_latency_us.len().max(1) as f64;
    // Query kinds the workload already timed itself keep those samples.
    let timed_kinds: Vec<&'static str> = [
        "core.max_flow_ms",
        "core.min_st_cut_ms",
        "core.global_min_cut_ms",
        "core.girth_ms",
        "core.approx_ms",
    ]
    .into_iter()
    .filter(|m| layers.has(m))
    .collect();
    let mut wait = Vec::new();
    let mut exec = Vec::new();
    let mut total = Vec::new();
    for r in records {
        if let (Some(admitted), Some(dequeued)) = (r.admitted_us, r.dequeued_us) {
            wait.push(dequeued.saturating_sub(admitted) as f64);
        }
        if let Some(service) = r.service_us() {
            exec.push(service as f64 / 1e3);
            let metric = core_metric_of_kind(r.query);
            if !timed_kinds.contains(&metric) {
                layers.sample(metric, service as f64 / 1e3);
            }
        }
        total.push(r.total_us() as f64);
    }
    layers.value("service.queue_wait_us", median(&wait));
    layers.value("service.queue_wait_tail_us", quantile(&wait, tail_q));
    layers.value("service.exec_ms", median(&exec));
    layers.value("service.exec_tail_ms", quantile(&exec, tail_q));
    layers.value(
        "service.handoff_us",
        median(client_latency_us) - median(&total),
    );
    layers.samples("service.submit_us", submit_us.iter().copied());

    let (p0, p1) = (before.pool_total(), after.pool_total());
    let hits = p1.hits - p0.hits;
    let misses = p1.misses - p0.misses;
    layers.value("pool.hits", hits as f64 / ops);
    layers.value("pool.misses", misses as f64 / ops);
    layers.value(
        "pool.respec_reuses",
        (p1.respec_reuses - p0.respec_reuses) as f64 / ops,
    );
    layers.value("pool.evictions", (p1.evictions - p0.evictions) as f64 / ops);
    layers.value(
        "pool.lock_contended",
        (p1.lock_contended - p0.lock_contended) as f64 / ops,
    );
    layers.value(
        "pool.hit_ratio",
        hits as f64 / ((hits + misses) as f64).max(1.0),
    );
    layers.value(
        "pool.peak_resident_mb",
        after.peak_resident_bytes() as f64 / (1024.0 * 1024.0),
    );

    let (s0, s1) = (before.scheduler, after.scheduler);
    layers.value("sched.steals", (s1.steals - s0.steals) as f64 / ops);
    layers.value(
        "sched.steal_fails",
        (s1.steal_fails - s0.steal_fails) as f64 / ops,
    );
    layers.value("sched.parks", (s1.parks - s0.parks) as f64 / ops);
    layers.value("sched.unparks", (s1.unparks - s0.unparks) as f64 / ops);
    layers.value(
        "sched.injector_overflows",
        (s1.injector_overflows - s0.injector_overflows) as f64 / ops,
    );
    layers.value("sched.queue_high_water", after.queue_high_water as f64);
    layers.value("telemetry.dropped_records", dropped as f64);
}

/// The host rows every traced run carries.
pub fn host_layers(layers: &mut Layers, probe_ms: f64) {
    layers.value("host.cores", util::host_cores() as f64);
    layers.value("host.probe_ms", probe_ms);
}

/// `base / other − 1`: how much slower `other` ran than `base`, as a
/// share of `other`'s throughput.
pub fn overhead(base_throughput: f64, other_throughput: f64) -> f64 {
    base_throughput / other_throughput.max(1e-9) - 1.0
}
