//! Integration tests of the sharded serving engine through the public
//! meta-crate: a concurrent multi-tenant soak, determinism against serial
//! solver execution, and shutdown-drains semantics.

use duality::planar::gen;
use duality::service::Ticket;
use duality::{
    AdmissionPolicy, InstanceKey, Outcome, PlanarInstance, PlanarSolver, Query, ServiceEngine,
};
use std::sync::Arc;

fn instance(w: usize, h: usize, seed: u64) -> Arc<PlanarInstance> {
    let g = gen::diag_grid(w, h, seed).unwrap();
    let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, seed + 100);
    let weights = gen::random_edge_weights(g.num_edges(), 1, 9, seed + 200);
    PlanarInstance::new(g, Some(caps), Some(weights)).unwrap()
}

/// The multi-tenant workload: two networks, each with a respec'd second
/// spec, four query kinds per spec.
fn tenants() -> Vec<Arc<PlanarInstance>> {
    let mut out = Vec::new();
    for seed in [1u64, 2] {
        let base = instance(5, 4, seed);
        let surge: Vec<i64> = base.capacities().iter().map(|&c| 2 * c).collect();
        let respec = base.with_capacities(surge).unwrap();
        out.push(base);
        out.push(respec);
    }
    out
}

fn queries(i: &PlanarInstance) -> Vec<Query> {
    let t = i.n() - 1;
    vec![
        Query::MaxFlow { s: 0, t },
        Query::MinStCut { s: 0, t },
        Query::GlobalMinCut,
        Query::Girth,
    ]
}

/// The determinism contract compares witnesses and marginal query rounds
/// (substrate *snapshots* may legitimately differ under concurrency —
/// see the engine docs).
fn assert_same_outcome(got: &Outcome, want: &Outcome) {
    assert_eq!(got.rounds().query_total(), want.rounds().query_total());
    match (got, want) {
        (Outcome::MaxFlow(g), Outcome::MaxFlow(w)) => {
            assert_eq!(g.value, w.value);
            assert_eq!(g.flow, w.flow);
            assert_eq!(g.probes, w.probes);
        }
        (Outcome::MinStCut(g), Outcome::MinStCut(w)) => {
            assert_eq!(g.value, w.value);
            assert_eq!(g.side, w.side);
            assert_eq!(g.cut_darts, w.cut_darts);
        }
        (Outcome::GlobalMinCut(g), Outcome::GlobalMinCut(w)) => {
            assert_eq!(g.value, w.value);
            assert_eq!(g.side, w.side);
            assert_eq!(g.cut_edges, w.cut_edges);
        }
        (Outcome::Girth(g), Outcome::Girth(w)) => {
            assert_eq!(g.girth, w.girth);
            assert_eq!(g.cycle_edges, w.cycle_edges);
        }
        _ => panic!("outcome variant mismatch"),
    }
}

#[test]
fn soak_concurrent_submitters_match_serial_execution() {
    // Serial ground truth: one fresh solver per spec, queries in order.
    let tenants = tenants();
    let serial: Vec<Vec<Outcome>> = tenants
        .iter()
        .map(|i| {
            let solver = PlanarSolver::from_instance(Arc::clone(i));
            queries(i).iter().map(|&q| solver.run(q).unwrap()).collect()
        })
        .collect();

    let engine = ServiceEngine::builder()
        .shards(3)
        .workers(4)
        .queue_capacity(8) // tighter than the workload: exercises Block backpressure
        .admission(AdmissionPolicy::Block)
        .build()
        .unwrap();

    // Deterministic warmup: admit each tenant in order (base before its
    // respec), so every respec finds its donor and the storm below is
    // all hits — the counter assertions at the end stay exact.
    for i in &tenants {
        let _ = engine.run(i, Query::Girth).unwrap();
    }

    // Four submitter threads hammer the engine concurrently, each
    // replaying the full multi-tenant workload twice, waiting tickets as
    // it goes and checking every outcome against the serial truth.
    const SUBMITTERS: usize = 4;
    const ROUNDS: usize = 2;
    std::thread::scope(|scope| {
        for _ in 0..SUBMITTERS {
            let engine = &engine;
            let tenants = &tenants;
            let serial = &serial;
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    let tickets: Vec<(usize, usize, Ticket)> = tenants
                        .iter()
                        .enumerate()
                        .flat_map(|(ti, i)| {
                            queries(i)
                                .into_iter()
                                .enumerate()
                                .map(move |(qi, q)| (ti, qi, engine.submit(i, q).unwrap()))
                                .collect::<Vec<_>>()
                        })
                        .collect();
                    for (ti, qi, ticket) in tickets {
                        let got = ticket.wait().unwrap();
                        assert_same_outcome(&got, &serial[ti][qi]);
                    }
                }
            });
        }
    });

    let warmup = tenants.len() as u64;
    let jobs = (SUBMITTERS * ROUNDS * tenants.len() * 4) as u64 + warmup;
    let m = engine.shutdown();
    assert_eq!(m.submitted, jobs);
    assert_eq!(m.completed, jobs);
    assert_eq!(
        (m.failed, m.rejected, m.expired, m.cancelled, m.in_flight()),
        (0, 0, 0, 0, 0)
    );
    assert_eq!(m.queue_depth, 0);
    assert!(m.queue_high_water <= 8, "admission bound held");
    assert_eq!(m.latency.count, jobs);

    // The pool layer amortized across the storm: four specs cached by the
    // warmup (each respec admitted via its donor), the storm all hits.
    let pool = m.pool_total();
    assert_eq!(pool.len, 4);
    assert_eq!(pool.misses, warmup, "only the warmup missed");
    assert_eq!(pool.hits, jobs - warmup, "the whole storm hit the cache");
    assert_eq!(pool.respec_reuses, 2, "one per respec'd tenant");
    assert!(m.query_rounds() > 0 && m.substrate_rounds() > 0);
    // Substrate is billed amortized: far below "query count × substrate".
    assert!(m.substrate_rounds() < m.query_rounds());
    // The snapshot pretty-prints, shard lines (PoolStats Display) included.
    let text = m.to_string();
    assert!(text.contains("shard 0: pool:"));
    assert!(text.contains("respec-reuses"));
}

#[test]
fn engine_outcomes_are_identical_across_worker_and_shard_counts() {
    let i = instance(4, 4, 9);
    let qs = queries(&i);
    let solver = PlanarSolver::from_instance(Arc::clone(&i));
    let serial: Vec<Outcome> = qs.iter().map(|&q| solver.run(q).unwrap()).collect();
    let serial_query: u64 = serial.iter().map(|o| o.rounds().query_total()).sum();
    assert!(solver.substrate_rounds().total() > 0);
    for shards in [1usize, 2, 4] {
        for workers in [1usize, 2, 4] {
            let engine = ServiceEngine::builder()
                .shards(shards)
                .workers(workers)
                .build()
                .unwrap();
            let tickets: Vec<Ticket> = qs.iter().map(|&q| engine.submit(&i, q).unwrap()).collect();
            for (ticket, want) in tickets.into_iter().zip(&serial) {
                assert_same_outcome(&ticket.wait().unwrap(), want);
            }
            let m = engine.shutdown();
            assert_eq!(m.completed, qs.len() as u64);
            // The amortized bill: the substrate is charged exactly once
            // (every job that builds an artifact snapshots the ledger
            // after the build, so the delta bill sums to the final
            // ledger), and the query share is the sum of the marginals.
            let config = format!("{workers} workers × {shards} shards");
            assert_eq!(
                m.substrate_rounds(),
                solver.substrate_rounds().total(),
                "{config}"
            );
            assert_eq!(m.query_rounds(), serial_query, "{config}");
        }
    }
}

#[test]
fn shutdown_drains_a_deep_backlog() {
    // A paused engine accumulates a backlog deeper than the worker pool;
    // shutdown must resolve every ticket before returning.
    let engine = ServiceEngine::builder()
        .shards(2)
        .workers(2)
        .queue_capacity(64)
        .start_paused()
        .build()
        .unwrap();
    let tenants = tenants();
    let tickets: Vec<Ticket> = (0..3)
        .flat_map(|_| {
            tenants
                .iter()
                .map(|i| engine.submit(i, Query::Girth).unwrap())
                .collect::<Vec<_>>()
        })
        .collect();
    let jobs = tickets.len() as u64;
    let m = engine.shutdown();
    assert_eq!(m.completed, jobs, "the drain ran every queued job");
    assert_eq!(m.queue_depth, 0);
    assert_eq!(
        m.queue_high_water as u64, jobs,
        "paused backlog peaked at N"
    );
    for ticket in tickets {
        assert!(ticket.wait().is_ok(), "no ticket was abandoned");
    }
}

#[test]
fn cancellation_races_shutdown_without_losing_a_job() {
    // A canceller thread races shutdown's drain over a deep paused
    // backlog. Whatever interleaving happens, the ledger must stay
    // exact: every job either completed or observed its cancellation —
    // never both, never neither.
    use duality::ServiceError;
    let engine = ServiceEngine::builder()
        .shards(2)
        .workers(2)
        .queue_capacity(64)
        .start_paused()
        .build()
        .unwrap();
    let i = instance(4, 4, 21);
    let tickets: Vec<Ticket> = (0..32)
        .map(|_| engine.submit(&i, Query::Girth).unwrap())
        .collect();
    let submitted = tickets.len() as u64;

    let m = std::thread::scope(|scope| {
        let canceller = scope.spawn(|| {
            tickets
                .iter()
                .rev() // back of the queue first: maximize won races
                .filter(|t| t.cancel())
                .count() as u64
        });
        engine.resume();
        let m = engine.shutdown();
        (m, canceller.join().unwrap())
    });
    let (m, cancel_wins) = m;

    assert_eq!(m.cancelled, cancel_wins, "ledger matches won races");
    assert_eq!(
        m.completed + m.cancelled,
        submitted,
        "no job lost or doubled"
    );
    assert_eq!(
        (m.failed, m.rejected, m.expired, m.in_flight()),
        (0, 0, 0, 0)
    );
    // Every ticket resolved consistently with the ledger.
    let mut completed = 0u64;
    let mut cancelled = 0u64;
    for t in tickets {
        match t.wait() {
            Ok(_) => completed += 1,
            Err(ServiceError::Cancelled) => cancelled += 1,
            Err(e) => panic!("unexpected resolution: {e}"),
        }
    }
    assert_eq!((completed, cancelled), (m.completed, m.cancelled));
}

#[test]
fn start_paused_buffers_until_resume() {
    // Pause is a hard gate: admission runs, nothing executes.
    let engine = ServiceEngine::builder()
        .shards(2)
        .workers(3)
        .queue_capacity(32)
        .start_paused()
        .build()
        .unwrap();
    let i = instance(4, 4, 22);
    let tickets: Vec<Ticket> = (0..6)
        .map(|_| engine.submit(&i, Query::Girth).unwrap())
        .collect();
    // Give eager workers every chance to (wrongly) start.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let paused = engine.metrics();
    assert_eq!(paused.completed, 0, "nothing ran while paused");
    assert_eq!(paused.running, 0, "nothing even claimed");
    assert_eq!(paused.queue_depth, tickets.len());
    assert!(tickets.iter().all(|t| t.try_result().is_none()));

    engine.resume();
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    engine.resume(); // idempotent on a running engine
    let m = engine.shutdown();
    assert_eq!(m.completed, 6);
    assert_eq!(m.queue_depth, 0);
}

#[test]
fn respecs_share_their_home_shard_donor() {
    let engine = ServiceEngine::builder()
        .shards(4)
        .workers(2)
        .build()
        .unwrap();
    let base = instance(4, 4, 33);
    let respec = base
        .with_capacities(vec![3; base.graph().num_darts()])
        .unwrap();
    assert_eq!(
        engine.shard_of(&InstanceKey::of(&base)),
        engine.shard_of(&InstanceKey::of(&respec))
    );
    let _ = engine.run(&base, Query::GlobalMinCut).unwrap();
    let _ = engine.run(&respec, Query::GlobalMinCut).unwrap();
    // The audit hatch exposes the very solvers the workers used: they
    // share one topology substrate across the respec.
    let (a, b) = (engine.solver(&base), engine.solver(&respec));
    assert!(Arc::ptr_eq(a.topo_substrate(), b.topo_substrate()));
    assert_eq!(engine.pool_stats().respec_reuses, 1);

    // The engine bills the pair's substrate as fresh-per-spec serial
    // execution of the same query, minus the one topology share the
    // respec reused.
    let fresh = |i: &Arc<PlanarInstance>| {
        let solver = PlanarSolver::from_instance(Arc::clone(i));
        solver.run(Query::GlobalMinCut).unwrap();
        solver
    };
    let (fresh_base, fresh_respec) = (fresh(&base), fresh(&respec));
    let serial = fresh_base.substrate_rounds().total() + fresh_respec.substrate_rounds().total();
    let topo_share = fresh_respec.substrate_topo_rounds().total();
    assert!(topo_share > 0);
    assert_eq!(engine.shutdown().substrate_rounds(), serial - topo_share);
}
