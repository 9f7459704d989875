//! `flow-read`: one client calls `PlanarSolver::run` directly, one op at a
//! time; each op is an exact max flow or min st-cut on a seeded pair of
//! a warm 10×10–12×12 diag-grid. Nearly all the time is dual labeling
//! (one per λ probe plus the final one); the pool, scheduler, engine and
//! telemetry do no work.

use crate::harness::{
    self, end_to_end, measure, Args, Op, RunOutput, SpanLog, SubstrateBill, Timed,
};
use crate::layers::{self, Layers};
use crate::serve::{self, Job};
use crate::tenants::{self, Tenant};
use crate::util::{self, mean, Rng};
use duality_baselines::flow::planar_max_flow_reference;
use duality_core::{DualityError, InstanceKey, Outcome, PlanarSolver, Query};
use duality_service::ServiceEngine;
use duality_telemetry::Telemetry;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Ops per second the timed phase is sized by (about 210 ms per op on a
/// 2-vCPU host): 132 ops at 30 s.
const NOMINAL_RATE: f64 = 4.4;
/// p90: with 132 ops, the highest percentile with ten samples beyond
/// it; it falls inside the 12×12 tenants' ops.
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
        Shape {
            sizes: &[10, 11, 12],
            per_size: 3,
            setups: 21,
        }
    }
}

/// Generates the tenants and builds the topology tier each needs (the
/// labeling engine); returns them with the set-up's wall seconds.
fn setup(shape: &Shape) -> ((Vec<Tenant>, Vec<PlanarSolver>), f64) {
    let start = Instant::now();
    let tenants = tenants::generate(shape.sizes, shape.per_size);
    let solvers: Vec<PlanarSolver> = tenants
        .iter()
        .map(|t| {
            let solver = PlanarSolver::from_instance(t.instance.clone());
            solver.labeling_engine();
            solver
        })
        .collect();
    ((tenants, solvers), start.elapsed().as_secs_f64())
}

/// The seeded op deck: round-robin over tenants, alternating max flow
/// and min st-cut per round, so the size and kind shares are fixed and
/// only the pairs are seeded.
fn deck(args: &Args, tenants: &[Tenant], ops: usize) -> Vec<Job> {
    let mut rng = Rng::stream(args.seed, 2);
    (0..ops)
        .map(|i| {
            let tenant = i % tenants.len();
            let max_flow = (i / tenants.len()).is_multiple_of(2);
            Job {
                tenant,
                query: tenants[tenant].exact_query(&mut rng, max_flow),
            }
        })
        .collect()
}

/// Runs `jobs` serially on the warm solvers, timing each op; a span log
/// records one `core.*` span per op.
fn run_ops(
    solvers: &[PlanarSolver],
    jobs: &[Job],
    first_op: usize,
    mut log: Option<&mut SpanLog>,
) -> Vec<(f64, Result<Outcome, DualityError>)> {
    jobs.iter()
        .enumerate()
        .map(|(i, job)| {
            let id = SpanLog::open();
            let start = Instant::now();
            let result = solvers[job.tenant].run(job.query);
            let latency = match log.as_deref_mut() {
                Some(log) => {
                    let op = (first_op + i) as u64;
                    log.close(id, layers::core_span(&job.query), op, None, start)
                }
                None => start.elapsed(),
            };
            (util::us(latency), result)
        })
        .collect()
}

/// Scores ops against the centralized Dinic: a max flow must equal it
/// and a min st-cut must equal the max flow value.
fn check(
    tenants: &[Tenant],
    bill: &mut SubstrateBill,
    jobs: &[Job],
    results: &[(f64, Result<Outcome, DualityError>)],
) -> Vec<Op> {
    let mut reference: HashMap<(usize, usize, usize), i64> = HashMap::new();
    jobs.iter()
        .zip(results)
        .map(|(job, (latency_us, result))| {
            let tenant = &tenants[job.tenant];
            let (s, t) = match job.query {
                Query::MaxFlow { s, t } | Query::MinStCut { s, t } => (s, t),
                _ => unreachable!("flow-read decks hold exact st-queries only"),
            };
            let expected = *reference.entry((job.tenant, s, t)).or_insert_with(|| {
                planar_max_flow_reference(
                    tenant.instance.graph(),
                    tenant.instance.capacities(),
                    s,
                    t,
                )
            });
            let (ok, rounds) = match result {
                Ok(outcome) => {
                    let value = match outcome {
                        Outcome::MaxFlow(r) => r.value,
                        Outcome::MinStCut(r) => r.value,
                        _ => i64::MIN,
                    };
                    let rounds = bill.charge(InstanceKey::of(&tenant.instance), outcome.rounds());
                    (value == expected, rounds)
                }
                Err(_) => (false, 0),
            };
            Op {
                latency_us: *latency_us,
                ok,
                rounds,
            }
        })
        .collect()
}

fn paid_bill(tenants: &[Tenant], solvers: &[PlanarSolver]) -> SubstrateBill {
    let mut bill = SubstrateBill::default();
    for (t, s) in tenants.iter().zip(solvers) {
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
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch);
    // Half the set-ups run before the timed phase (the last stays warm
    // for it), half after it, so their median samples the host across
    // the whole run.
    let before = shape.setups.div_ceil(2);
    let ((tenants, solvers), mut setup_s) = harness::setups(before, &mut log, || setup(&shape));
    let ops = args.op_count(NOMINAL_RATE, 6);
    let jobs = deck(args, &tenants, ops);
    let mut bill = paid_bill(&tenants, &solvers);
    let mut notes = vec![harness::tail_note(ops, TAIL_Q)];

    let (layer_metrics, timed) = if args.trace {
        // Untraced and traced blocks alternate so host drift hits both
        // alike; their throughput ratio is the tracing overhead.
        let chunk = ops.div_ceil(2 * harness::ROTATIONS);
        let mut wall = [0.0; 2];
        let mut count = [0usize; 2];
        let mut all = Vec::with_capacity(ops);
        let mut layers = Layers::default();
        let (mut rounds, mut probes) = (Vec::new(), Vec::new());
        for (k, block) in jobs.chunks(chunk).enumerate() {
            let pass = k % 2;
            let first = k * chunk;
            let log = (pass == 1).then_some(&mut log);
            let (results, secs, _) = measure(|| run_ops(&solvers, block, first, log));
            wall[pass] += secs;
            count[pass] += block.len();
            all.extend(check(&tenants, &mut bill, block, &results));
            if pass == 1 {
                for (job, (latency_us, result)) in block.iter().zip(&results) {
                    layers.sample(layers::core_metric(&job.query), latency_us / 1e3);
                    if let Ok(outcome) = result {
                        rounds.push(outcome.rounds().query_total() as f64);
                        if let Some(r) = outcome.as_max_flow() {
                            probes.push(f64::from(r.probes));
                        }
                    }
                }
            }
        }
        layers.value("core.query_rounds_per_op", mean(&rounds));
        layers.value("core.probes_per_max_flow", mean(&probes));
        let label_builds: u32 = solvers.iter().map(|s| s.stats().label_builds).sum();
        let engine_builds: u32 = solvers.iter().map(|s| s.stats().engine_builds).sum();
        layers.value("substrate.engine_builds", f64::from(engine_builds));
        layers.value(
            "substrate.label_builds",
            f64::from(label_builds) + bill.weight_tiers_built as f64,
        );
        let rate = |pass: usize| count[pass] as f64 / wall[pass];
        layers.value("trace.overhead", layers::overhead(rate(0), rate(1)));
        layers::sweep(&tenants, args.seed, &mut layers, &mut log);
        engine_sweep(args, &tenants, &jobs, &mut layers, &mut log, epoch);
        // No span sink sits on this workload's path.
        layers.value("telemetry.sink_overhead", 0.0);
        layers::host_layers(&mut layers, (probe_before + util::host_probe_ms()) / 2.0);
        let timed = Timed {
            ops: all,
            wall_s: wall.iter().sum(),
            cpu_s: 0.0,
        };
        (Some(layers.finish()), timed)
    } else {
        let (results, wall_s, cpu_s) = measure(|| run_ops(&solvers, &jobs, 0, None));
        let timed = Timed {
            ops: check(&tenants, &mut bill, &jobs, &results),
            wall_s,
            cpu_s,
        };
        (None, timed)
    };
    drop((tenants, solvers));
    let metrics = layer_metrics.unwrap_or_else(|| {
        let (_, after) = harness::setups(shape.setups - before, &mut log, || setup(&shape));
        setup_s.extend(after);
        end_to_end(&setup_s, &timed, TAIL_Q)
    });
    notes.push(harness::setup_note(&setup_s));
    notes.push(harness::host_note(probe_before, util::host_probe_ms()));
    if args.trace {
        match log.write("flow-read", args.seed) {
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

/// flow-read never touches the engine, so its pool, service and
/// scheduler rows come from a short engine sweep: the same tenants
/// admitted into a 2-worker, 2-shard engine with the telemetry sink, a
/// timed resident lookup per tenant, and two clients running a few of
/// the deck's ops.
fn engine_sweep(
    args: &Args,
    tenants: &[Tenant],
    jobs: &[Job],
    layers: &mut Layers,
    log: &mut SpanLog,
    epoch: Instant,
) {
    let telemetry = Telemetry::new(1 << 12);
    let engine = ServiceEngine::builder()
        .workers(2)
        .shards(2)
        .span_sink(telemetry.sink())
        .build()
        .expect("default leaf threshold is valid");
    for (i, t) in tenants.iter().enumerate() {
        engine.solver(&t.instance).labeling_engine();
        log.time("pool.hit", (1 << 40) | i as u64, None, || {
            std::hint::black_box(engine.solver(&t.instance))
        });
    }
    layers.samples("pool.hit_us", log.durations_us("pool.hit"));
    let per_lane = if args.smoke { 1 } else { 2 };
    let lanes: Vec<Vec<Job>> = (0..2)
        .map(|lane| {
            jobs.iter()
                .skip(lane)
                .step_by(2)
                .take(per_lane)
                .copied()
                .collect()
        })
        .collect();
    let bill = Mutex::new(SubstrateBill::default());
    let before = engine.metrics();
    let (served, logs) = serve::closed_loop(&engine, tenants, &lanes, &bill, Some(epoch));
    let after = engine.metrics();
    let latency: Vec<f64> = served.iter().flatten().map(|s| s.op.latency_us).collect();
    for l in logs {
        log.absorb(l);
    }
    layers::engine_layers(
        layers,
        &telemetry.ring().drain(),
        &latency,
        &log.durations_us("service.submit"),
        &before,
        &after,
        TAIL_Q,
        telemetry.ring().dropped(),
    );
    engine.shutdown();
}
