//! `respec-write`: one client with one outstanding job through a
//! `ServiceEngine`. Each op re-specs one tenant (weight spikes, edge
//! failures or a capacity rescale, through `PlanarInstance::with_*`) and
//! asks its global min cut. The pool's byte budget holds about one spec
//! per tenant and tenants take turns, so every op is a pool miss served
//! by a respec donor, an eviction of that donor, and one weight-tier
//! labeling on the shared topology.

use crate::harness::{
    self, end_to_end, measure, Args, Op, RunOutput, SpanLog, SubstrateBill, Timed,
};
use crate::layers::{self, Layers};
use crate::tenants::{self, Tenant};
use crate::util::{self, mean, Rng};
use duality_baselines::cuts::planar_directed_min_cut_reference;
use duality_core::{HeapSize, InstanceKey, Outcome, PlanarInstance, PlanarSolver, Query};
use duality_service::{ServiceEngine, ServiceError, SpanSink};
use duality_telemetry::Telemetry;
use std::sync::Arc;
use std::time::Instant;

/// Ops per second the timed phase is sized by (about 40 ms per op on a
/// 2-vCPU host): 750 ops at 30 s.
const NOMINAL_RATE: f64 = 25.0;
/// p90: with 750 ops, the highest percentile with ten samples beyond it;
/// it falls inside the 12×12 tenants' ops.
const TAIL_Q: f64 = 0.90;

struct Shape {
    sizes: &'static [usize],
    per_size: usize,
    setups: usize,
}

fn shape(args: &Args) -> Shape {
    if args.smoke {
        Shape {
            sizes: &[4, 5],
            per_size: 1,
            setups: 2,
        }
    } else {
        // Five tenants, one op in five each: every op's cost is set by its
        // tenant, so the latencies form one cluster per tenant. With five,
        // p50 lands mid-cluster on a 10×10 and p90 mid-cluster on the
        // costlier 12×12, never on the step between two clusters.
        Shape {
            sizes: &[8, 10, 12, 10, 12],
            per_size: 1,
            setups: 9,
        }
    }
}

/// One seeded re-spec of a tenant's base spec. Every op also bumps a
/// "stamp" edge that moves on each round, so a spec never equals the one
/// its tenant still holds in the pool.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    /// Three edges' weights ×8.
    Spike([usize; 3]),
    /// Two edges fail (weight 0).
    Failure([usize; 2]),
    /// Every capacity ×factor.
    Rescale(i64),
}

#[derive(Clone, Copy, Debug)]
struct RespecOp {
    tenant: usize,
    stamp: usize,
    mutation: Mutation,
}

impl RespecOp {
    /// The op's new spec, copy-on-write over the tenant's base instance.
    fn apply(&self, base: &PlanarInstance) -> Arc<PlanarInstance> {
        match self.mutation {
            Mutation::Rescale(factor) => {
                let mut caps: Vec<i64> = base.capacities().iter().map(|&c| c * factor).collect();
                caps[2 * self.stamp] += 1;
                caps[2 * self.stamp + 1] += 1;
                base.with_capacities(caps)
                    .expect("scaled capacities are valid")
            }
            Mutation::Spike(edges) => {
                let mut w = base.edge_weights().to_vec();
                for e in edges {
                    w[e] *= 8;
                }
                w[self.stamp] += 1;
                base.with_edge_weights(w).expect("spiked weights are valid")
            }
            Mutation::Failure(edges) => {
                let mut w = base.edge_weights().to_vec();
                for e in edges {
                    w[e] = 0;
                }
                w[self.stamp] += 1;
                base.with_edge_weights(w).expect("failed weights are valid")
            }
        }
    }
}

/// Tenants take turns and the mutation kinds rotate per round, so the
/// shares are fixed; the edges and factors are seeded.
fn deck(args: &Args, tenants: &[Tenant], ops: usize) -> Vec<RespecOp> {
    let mut rng = Rng::stream(args.seed, 3);
    (0..ops)
        .map(|i| {
            let tenant = i % tenants.len();
            let m = tenants[tenant].instance.m();
            let mutation = match (i / tenants.len() + tenant) % 3 {
                0 => Mutation::Spike([rng.below(m), rng.below(m), rng.below(m)]),
                1 => Mutation::Failure([rng.below(m), rng.below(m)]),
                _ => Mutation::Rescale(2 + rng.below(3) as i64),
            };
            RespecOp {
                tenant,
                stamp: (i / tenants.len()) % m,
                mutation,
            }
        })
        .collect()
}

/// The byte budget that holds one fully built spec per tenant but not
/// one more partial spec: the sum of full sizes plus half the smallest
/// partial size. Sized on standalone solvers, outside the timed set-up.
fn byte_budget(tenants: &[Tenant]) -> u64 {
    let mut full = 0;
    let mut smallest_partial = usize::MAX;
    for t in tenants {
        let solver = PlanarSolver::from_instance(t.instance.clone());
        solver.labeling_engine();
        smallest_partial = smallest_partial.min(solver.heap_bytes());
        solver
            .run(Query::GlobalMinCut)
            .expect("a diag-grid has a global cut");
        full += solver.heap_bytes();
    }
    (full + smallest_partial / 2) as u64
}

struct Warm {
    tenants: Vec<Tenant>,
    engine: ServiceEngine,
    /// The solvers set-up admitted: every respec shares their topology
    /// tier and its build counters.
    solvers: Vec<PlanarSolver>,
}

/// Generates the tenants, starts the engine, admits every base spec and
/// builds both substrate tiers with one direct global min cut per tenant.
fn setup(shape: &Shape, budget: u64, sink: Option<Arc<dyn SpanSink>>) -> (Warm, f64) {
    let start = Instant::now();
    let tenants = tenants::generate(shape.sizes, shape.per_size);
    let mut builder = ServiceEngine::builder()
        .workers(2)
        .shards(1)
        .pool_capacity(tenants.len() + 2)
        .pool_byte_budget(Some(budget));
    if let Some(sink) = sink {
        builder = builder.span_sink(sink);
    }
    let engine = builder.build().expect("default leaf threshold is valid");
    let solvers: Vec<PlanarSolver> = tenants
        .iter()
        .map(|t| {
            let solver = engine.solver(&t.instance);
            solver
                .run(Query::GlobalMinCut)
                .expect("a diag-grid has a global cut");
            solver
        })
        .collect();
    let secs = start.elapsed().as_secs_f64();
    (
        Warm {
            tenants,
            engine,
            solvers,
        },
        secs,
    )
}

/// Runs `deck` through the engine, one outstanding job at a time, and
/// returns each op's latency and result. With a span log, every op
/// records an `op` span with `instance.respec`, `instance.key`,
/// `service.submit` and `service.wait` children.
fn run_ops(
    warm: &Warm,
    deck: &[RespecOp],
    first_op: usize,
    mut log: Option<&mut SpanLog>,
) -> Vec<(f64, Result<Outcome, ServiceError>)> {
    deck.iter()
        .enumerate()
        .map(|(i, op)| {
            let base = &warm.tenants[op.tenant].instance;
            let start = Instant::now();
            let result = match log.as_deref_mut() {
                None => {
                    let spec = op.apply(base);
                    warm.engine
                        .submit(&spec, Query::GlobalMinCut)
                        .map_err(ServiceError::NotAdmitted)
                        .and_then(|t| t.wait())
                }
                Some(log) => {
                    let op_id = (first_op + i) as u64;
                    let span = SpanLog::open();
                    let spec = log.time("instance.respec", op_id, Some(span), || op.apply(base));
                    log.time("instance.key", op_id, Some(span), || InstanceKey::of(&spec));
                    let ticket = log.time("service.submit", op_id, Some(span), || {
                        warm.engine.submit(&spec, Query::GlobalMinCut)
                    });
                    let result = match ticket {
                        Ok(t) => log.time("service.wait", op_id, Some(span), || t.wait()),
                        Err(e) => Err(ServiceError::NotAdmitted(e)),
                    };
                    log.close(span, "op", op_id, None, start);
                    result
                }
            };
            (util::us(start.elapsed()), result)
        })
        .collect()
}

/// Scores ops against the centralized directed min-cut reference on
/// each op's spec, and charges each op its rounds.
fn check(
    tenants: &[Tenant],
    bill: &mut SubstrateBill,
    deck: &[RespecOp],
    results: &[(f64, Result<Outcome, ServiceError>)],
) -> Vec<Op> {
    deck.iter()
        .zip(results)
        .map(|(op, (latency_us, result))| {
            let spec = op.apply(&tenants[op.tenant].instance);
            let (ok, rounds) = match result {
                Ok(Outcome::GlobalMinCut(r)) => {
                    let expected =
                        planar_directed_min_cut_reference(spec.graph(), spec.edge_weights());
                    let rounds = bill.charge(InstanceKey::of(&spec), &r.rounds);
                    (expected == Some(r.value), rounds)
                }
                _ => (false, 0),
            };
            Op {
                latency_us: *latency_us,
                ok,
                rounds,
            }
        })
        .collect()
}

fn paid_bill(warm: &Warm) -> SubstrateBill {
    let mut bill = SubstrateBill::default();
    for (t, s) in warm.tenants.iter().zip(&warm.solvers) {
        bill.absorb(
            InstanceKey::of(&t.instance),
            s.substrate_topo_rounds().total(),
            s.substrate_weight_rounds().total(),
        );
    }
    bill
}

pub fn run(args: &Args) -> RunOutput {
    let shape = shape(args);
    let probe_before = util::host_probe_ms();
    let budget = byte_budget(&tenants::generate(shape.sizes, shape.per_size));
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch);
    // Half the set-ups run before the timed phase (the last stays warm
    // for it), half after it, so their median samples the host across
    // the whole run.
    let before = shape.setups.div_ceil(2);
    let (warm, mut setup_s) = harness::setups(before, &mut log, || setup(&shape, budget, None));
    let ops = args.op_count(NOMINAL_RATE, 8);
    let jobs = deck(args, &warm.tenants, ops);
    let mut notes = vec![harness::tail_note(ops, TAIL_Q)];

    let (layer_metrics, timed) = if args.trace {
        // Blocks rotate among three passes so host drift hits each alike:
        // untraced on the set-up engine, span sink only on a second
        // engine with the telemetry ring attached, and sink plus the
        // benchmark's spans on that second engine. Blocks hold whole
        // rounds of tenant turns, so every op stays a respec miss.
        let telemetry = Telemetry::new(4 * ops + 64);
        let (sunk, _) = setup(&shape, budget, Some(telemetry.sink()));
        let (mut bill_u, mut bill_s) = (paid_bill(&warm), paid_bill(&sunk));
        let turns = warm.tenants.len();
        let chunk = (ops / (3 * harness::ROTATIONS) / turns).max(1) * turns;
        let before = sunk.engine.metrics();
        let mut wall = [0.0; 3];
        let mut count = [0usize; 3];
        let mut all = Vec::with_capacity(ops);
        let mut sunk_ops = Vec::new();
        let mut traced = Vec::new();
        let mut latest = vec![None; turns];
        for (k, block) in jobs.chunks(chunk).enumerate() {
            let first = k * chunk;
            let pass = k % 3;
            let (engine, bill) = if pass == 0 {
                (&warm, &mut bill_u)
            } else {
                (&sunk, &mut bill_s)
            };
            let log = (pass == 2).then_some(&mut log);
            let (results, secs, _) = measure(|| run_ops(engine, block, first, log));
            wall[pass] += secs;
            count[pass] += block.len();
            let checked = check(&engine.tenants, bill, block, &results);
            if pass > 0 {
                sunk_ops.extend(checked.iter().copied());
                for op in block {
                    latest[op.tenant] = Some(*op);
                }
            }
            all.extend(checked);
            if pass == 2 {
                traced.extend(results.into_iter().filter_map(|(_, r)| r.ok()));
            }
        }
        let after = sunk.engine.metrics();
        let records = telemetry.ring().drain();

        let mut layers = Layers::default();
        let latency: Vec<f64> = sunk_ops.iter().map(|o| o.latency_us).collect();
        layers::engine_layers(
            &mut layers,
            &records,
            &latency,
            &log.durations_us("service.submit"),
            &before,
            &after,
            TAIL_Q,
            telemetry.ring().dropped(),
        );
        layers.samples("instance.respec_us", log.durations_us("instance.respec"));
        layers.samples("instance.key_us", log.durations_us("instance.key"));
        let per_op = |f: &dyn Fn(&Outcome) -> u64| {
            mean(&traced.iter().map(|o| f(o) as f64).collect::<Vec<_>>())
        };
        layers.value(
            "core.query_rounds_per_op",
            per_op(&|o| o.rounds().query_total()),
        );
        layers.value(
            "substrate.weight_rounds_per_respec",
            per_op(&|o| o.rounds().substrate_weight_total()),
        );
        // A resident lookup: each tenant's latest spec on the second
        // engine, rebuilt with its key hashed before the timer starts.
        for (i, turn) in latest.iter().flatten().enumerate() {
            let spec = turn.apply(&sunk.tenants[turn.tenant].instance);
            InstanceKey::of(&spec);
            log.time("pool.hit", (1 << 40) | i as u64, None, || {
                std::hint::black_box(sunk.engine.solver(&spec))
            });
        }
        layers.samples("pool.hit_us", log.durations_us("pool.hit"));
        let engine_builds: u32 = sunk.solvers.iter().map(|s| s.stats().engine_builds).sum();
        let label_builds: u32 = sunk.solvers.iter().map(|s| s.stats().label_builds).sum();
        layers.value("substrate.engine_builds", f64::from(engine_builds));
        layers.value(
            "substrate.label_builds",
            f64::from(label_builds) + bill_s.weight_tiers_built as f64,
        );
        let rate = |pass: usize| count[pass] as f64 / wall[pass];
        layers.value(
            "telemetry.sink_overhead",
            layers::overhead(rate(0), rate(1)),
        );
        layers.value("trace.overhead", layers::overhead(rate(0), rate(2)));
        layers::sweep(&sunk.tenants, args.seed, &mut layers, &mut log);
        layers::host_layers(&mut layers, (probe_before + util::host_probe_ms()) / 2.0);
        let timed = Timed {
            ops: all,
            wall_s: wall.iter().sum(),
            cpu_s: 0.0,
        };
        (Some(layers.finish()), timed)
    } else {
        let pool_before = warm.engine.pool_stats();
        let (results, wall_s, cpu_s) = measure(|| run_ops(&warm, &jobs, 0, None));
        let pool_after = warm.engine.pool_stats();
        let mut bill = paid_bill(&warm);
        let timed = Timed {
            ops: check(&warm.tenants, &mut bill, &jobs, &results),
            wall_s,
            cpu_s,
        };
        notes.push(format!(
            "pool: {} misses, {} respec reuses, {} evictions, {} hits over {ops} ops",
            pool_after.misses - pool_before.misses,
            pool_after.respec_reuses - pool_before.respec_reuses,
            pool_after.evictions - pool_before.evictions,
            pool_after.hits - pool_before.hits,
        ));
        drop(warm);
        (None, timed)
    };
    let metrics = layer_metrics.unwrap_or_else(|| {
        let (_, after) = harness::setups(shape.setups - before, &mut log, || {
            setup(&shape, budget, None)
        });
        setup_s.extend(after);
        end_to_end(&setup_s, &timed, TAIL_Q)
    });
    notes.push(harness::setup_note(&setup_s));
    notes.push(harness::host_note(probe_before, util::host_probe_ms()));
    if args.trace {
        match log.write("respec-write", args.seed) {
            Ok(path) => notes.push(format!("spans: {path}")),
            Err(e) => notes.push(format!("spans not written: {e}")),
        }
    }
    let failed = timed.failed();
    RunOutput {
        correct: failed == 0,
        attempted: timed.ops.len() as u64,
        failed,
        metrics,
        notes,
    }
}
