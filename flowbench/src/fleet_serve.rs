//! `fleet-serve`: two client threads, each a strict submit→wait loop,
//! through a 2-worker, 2-shard `ServiceEngine` over twelve warm tenants
//! of 5×5 to 8×8 that stay resident. Most queries are cheap warm ones
//! (global min cut, girth, approximate flow and cut), so the engine
//! hand-off is a large share of the median; about a quarter are exact
//! st-queries on the six 7×7 tenants (8–30 ms each), which put the tail
//! inside ops that are slow by nature.

use crate::harness::{
    self, end_to_end, measure, Args, Op, RunOutput, SpanLog, SubstrateBill, Timed,
};
use crate::layers::{self, Layers};
use crate::serve::{self, Job, Served};
use crate::tenants::{self, Tenant};
use crate::util::{self, mean, Rng};
use duality_core::{InstanceKey, PlanarSolver, Query};
use duality_service::{ServiceEngine, SpanSink};
use duality_telemetry::Telemetry;
use duality_workload::fingerprint::outcome_fingerprint;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Ops per second the timed phase is sized by: 9,600 ops (100 deck
/// cycles) at 30 s, about 26 s on a 2-vCPU host.
const NOMINAL_RATE: f64 = 320.0;
/// p99: with 9,600 ops, the highest percentile with ten samples beyond
/// it; it falls inside the exact st-queries on the 7×7 tenants.
const TAIL_Q: f64 = 0.99;
const CLIENTS: usize = 2;
/// Exact st-queries per small tenant: each cycle takes the next
/// `EXACT_PER_CYCLE` of them, so every one recurs equally often.
const EXACT_POOL: usize = 48;
const EXACT_PER_CYCLE: usize = 4;

struct Shape {
    sizes: &'static [usize],
    per_size: usize,
    /// Tenants of this side length also serve exact st-queries.
    exact_k: usize,
    setups: usize,
}

fn shape(args: &Args) -> Shape {
    if args.smoke {
        Shape {
            sizes: &[4, 5],
            per_size: 1,
            exact_k: 4,
            setups: 2,
        }
    } else {
        // Twelve tenants: two each of 5×5, 6×6 and 8×8, six of 7×7.
        Shape {
            sizes: &[5, 6, 7, 7, 7, 8],
            per_size: 2,
            exact_k: 7,
            setups: 21,
        }
    }
}

/// The seeded op deck, dealt round-robin into one lane per client. It
/// repeats a cycle with fixed shares, shuffled per cycle: per tenant two
/// global min cuts, two girths and two approximate flows or cuts (taking
/// turns through ε = 1, 1/2, 1/4, 1/8, endpoints on the largest face),
/// and per 7×7 tenant four exact max flows and min st-cuts. Exact,
/// approximate and the two warm cut queries make a quarter, a quarter
/// and a half of the ops, so the median sits inside the warm cut class
/// and the tail inside the exact one. Only the pairs and the order are
/// seeded.
fn deck(args: &Args, shape: &Shape, tenants: &[Tenant], ops: usize) -> Vec<Vec<Job>> {
    let mut rng = Rng::stream(args.seed, 4);
    let exact: Vec<Vec<Query>> = tenants
        .iter()
        .map(|t| {
            (0..EXACT_POOL)
                .map(|i| t.exact_query(&mut rng, i % 2 == 0))
                .collect()
        })
        .collect();
    let approx: Vec<Vec<Query>> = tenants
        .iter()
        .map(|t| {
            [1u64, 2, 4, 8]
                .iter()
                .enumerate()
                .map(|(i, &eps_inverse)| {
                    let (s, t) = rng.pair(&t.boundary);
                    if i % 2 == 0 {
                        Query::ApproxMaxFlow { s, t, eps_inverse }
                    } else {
                        Query::ApproxMinStCut { s, t, eps_inverse }
                    }
                })
                .collect()
        })
        .collect();
    let mut lanes: Vec<Vec<Job>> = (0..CLIENTS)
        .map(|_| Vec::with_capacity(ops / CLIENTS + 1))
        .collect();
    let mut dealt = 0;
    for cycle in 0.. {
        let mut jobs = Vec::new();
        for (tenant, t) in tenants.iter().enumerate() {
            for query in [Query::GlobalMinCut, Query::Girth] {
                jobs.extend([Job { tenant, query }; 2]);
            }
            for j in 0..2 {
                let query = approx[tenant][(cycle * 2 + j) % approx[tenant].len()];
                jobs.push(Job { tenant, query });
            }
            if t.k == shape.exact_k {
                for j in 0..EXACT_PER_CYCLE {
                    let query = exact[tenant][(cycle * EXACT_PER_CYCLE + j) % EXACT_POOL];
                    jobs.push(Job { tenant, query });
                }
            }
        }
        // Fisher–Yates with the seeded generator.
        for i in (1..jobs.len()).rev() {
            jobs.swap(i, rng.below(i + 1));
        }
        for job in jobs {
            if dealt == ops {
                return lanes;
            }
            lanes[dealt % CLIENTS].push(job);
            dealt += 1;
        }
    }
    lanes
}

struct Warm {
    tenants: Vec<Tenant>,
    engine: ServiceEngine,
    solvers: Vec<PlanarSolver>,
}

/// Generates the tenants, starts the engine, admits every tenant and
/// builds every tier the mix needs with direct queries on the admitted
/// solver: a global min cut (topology and weight tiers) and a girth
/// (the dual graph).
fn setup(shape: &Shape, sink: Option<Arc<dyn SpanSink>>) -> (Warm, f64) {
    let start = Instant::now();
    let tenants = tenants::generate(shape.sizes, shape.per_size);
    let mut builder = ServiceEngine::builder().workers(2).shards(2);
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
                .run(Query::Girth)
                .expect("positive weights have a girth");
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

fn paid_bill(warm: &Warm) -> Mutex<SubstrateBill> {
    let mut bill = SubstrateBill::default();
    for (t, s) in warm.tenants.iter().zip(&warm.solvers) {
        bill.absorb(
            InstanceKey::of(&t.instance),
            s.substrate_topo_rounds().total(),
            s.substrate_weight_rounds().total(),
        );
    }
    Mutex::new(bill)
}

/// The determinism check: every served outcome's fingerprint must equal
/// the fingerprint of the same query run serially on a fresh solver.
fn check(tenants: &[Tenant], lanes: &[Vec<Job>], served: &[Vec<Served>]) -> Vec<Op> {
    let fresh: Vec<PlanarSolver> = tenants
        .iter()
        .map(|t| PlanarSolver::from_instance(t.instance.clone()))
        .collect();
    let mut reference: HashMap<(usize, Query), Option<u64>> = HashMap::new();
    let mut ops = Vec::new();
    for (lane, results) in lanes.iter().zip(served) {
        for (job, s) in lane.iter().zip(results) {
            let expected = *reference.entry((job.tenant, job.query)).or_insert_with(|| {
                fresh[job.tenant]
                    .run(job.query)
                    .ok()
                    .map(|o| outcome_fingerprint(&o))
            });
            let mut op = s.op;
            op.ok = s.fingerprint.is_some() && s.fingerprint == expected;
            ops.push(op);
        }
    }
    ops
}

/// Deals `lanes`' jobs `from..to` (by position within each lane).
fn slice(lanes: &[Vec<Job>], from: usize, to: usize) -> Vec<Vec<Job>> {
    lanes
        .iter()
        .map(|l| l[from.min(l.len())..to.min(l.len())].to_vec())
        .collect()
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
    let (warm, mut setup_s) = harness::setups(before, &mut log, || setup(&shape, None));
    let ops = args.op_count(NOMINAL_RATE, 24);
    let lanes = deck(args, &shape, &warm.tenants, ops);
    let mut notes = vec![harness::tail_note(ops, TAIL_Q)];

    let (layer_metrics, timed) = if args.trace {
        // Blocks rotate among three passes so host drift hits each alike:
        // untraced on the set-up engine, span sink only on a second
        // engine with the telemetry ring attached, and sink plus the
        // benchmark's spans on that second engine.
        let telemetry = Telemetry::new(4 * ops + 64);
        let (sunk, _) = setup(&shape, Some(telemetry.sink()));
        let (bill_u, bill_s) = (paid_bill(&warm), paid_bill(&sunk));
        let per_lane = lanes[0].len();
        let chunk = (per_lane / (3 * harness::ROTATIONS)).max(1);
        let before = sunk.engine.metrics();
        let mut wall = [0.0; 3];
        let mut count = [0usize; 3];
        let (mut done_lanes, mut done_served) = (Vec::new(), Vec::new());
        let (mut sunk_latency, mut traced_rounds) = (Vec::new(), Vec::new());
        for (k, from) in (0..per_lane).step_by(chunk).enumerate() {
            let block = slice(&lanes, from, from + chunk);
            let pass = k % 3;
            let (fleet, bill) = if pass == 0 {
                (&warm, &bill_u)
            } else {
                (&sunk, &bill_s)
            };
            let trace = (pass == 2).then_some(epoch);
            let ((served, logs), secs, _) =
                measure(|| serve::closed_loop(&fleet.engine, &fleet.tenants, &block, bill, trace));
            wall[pass] += secs;
            count[pass] += block.iter().map(Vec::len).sum::<usize>();
            for l in logs {
                log.absorb(l);
            }
            let ops = served.iter().flatten().map(|s| s.op);
            if pass > 0 {
                sunk_latency.extend(ops.clone().map(|o| o.latency_us));
            }
            if pass == 2 {
                traced_rounds.extend(ops.map(|o| o.rounds as f64));
            }
            done_lanes.extend(block);
            done_served.extend(served);
        }
        let after = sunk.engine.metrics();
        let records = telemetry.ring().drain();
        let all = check(&warm.tenants, &done_lanes, &done_served);

        let mut layers = Layers::default();
        layers::engine_layers(
            &mut layers,
            &records,
            &sunk_latency,
            &log.durations_us("service.submit"),
            &before,
            &after,
            TAIL_Q,
            telemetry.ring().dropped(),
        );
        layers.value("core.query_rounds_per_op", mean(&traced_rounds));
        for (i, t) in sunk.tenants.iter().enumerate() {
            log.time("pool.hit", (1 << 40) | i as u64, None, || {
                std::hint::black_box(sunk.engine.solver(&t.instance))
            });
        }
        layers.samples("pool.hit_us", log.durations_us("pool.hit"));
        let engine_builds: u32 = sunk.solvers.iter().map(|s| s.stats().engine_builds).sum();
        let label_builds: u32 = sunk.solvers.iter().map(|s| s.stats().label_builds).sum();
        layers.value("substrate.engine_builds", f64::from(engine_builds));
        let built = bill_s.lock().expect("bill lock").weight_tiers_built;
        layers.value(
            "substrate.label_builds",
            f64::from(label_builds) + built as f64,
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
        let bill = paid_bill(&warm);
        let ((served, _), wall_s, cpu_s) =
            measure(|| serve::closed_loop(&warm.engine, &warm.tenants, &lanes, &bill, None));
        let timed = Timed {
            ops: check(&warm.tenants, &lanes, &served),
            wall_s,
            cpu_s,
        };
        drop(warm);
        (None, timed)
    };
    let metrics = layer_metrics.unwrap_or_else(|| {
        let (_, after) = harness::setups(shape.setups - before, &mut log, || setup(&shape, None));
        setup_s.extend(after);
        end_to_end(&setup_s, &timed, TAIL_Q)
    });
    notes.push(harness::setup_note(&setup_s));
    notes.push(harness::host_note(probe_before, util::host_probe_ms()));
    if args.trace {
        match log.write("fleet-serve", args.seed) {
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
