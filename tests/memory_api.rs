//! Integration tests for the byte-accounting surface:
//!
//! (a) a size-aware `SolverPool` enforces its byte budget by evicting
//!     the LRU entry — the eviction *order* follows recency, not
//!     insertion, and the byte gauges reconcile;
//! (b) a budget smaller than any single solver still serves (the pool
//!     never evicts below one entry);
//! (c) property test: `HeapSize` estimates are monotone — under COW
//!     respec the derived instance bills the same topology bytes as its
//!     donor (never more), and a solver's estimate only grows as its
//!     lazy substrate tiers build.

use duality::planar::gen;
use duality::{HeapSize, InstanceKey, PlanarInstance, PlanarSolver, Query, SolverPool};
use proptest::prelude::*;
use std::sync::Arc;

/// A keyed instance: a `w × h` diag grid with seeded capacities.
fn instance(w: usize, h: usize, seed: u64) -> Arc<PlanarInstance> {
    let g = gen::diag_grid(w, h, seed).unwrap();
    let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, seed);
    PlanarInstance::new(g, Some(caps), None).unwrap()
}

/// (a) Byte-budget eviction follows LRU order: with room for two of
/// three solvers, the entry a lookup touched most recently survives the
/// admission that breaches the budget.
#[test]
fn byte_budget_evicts_the_least_recently_used_entry() {
    let a = instance(4, 4, 1);
    let b = instance(5, 4, 2);
    let c = instance(5, 5, 3);
    // Un-queried pool entries hold no substrate, so their measured sizes
    // equal a fresh solver's over the same instance — exact budget math.
    let bytes: u64 = [&a, &b, &c]
        .iter()
        .map(|i| PlanarSolver::from_instance(Arc::clone(i)).heap_bytes() as u64)
        .sum();
    let pool = SolverPool::with_byte_budget(8, bytes - 1);
    assert_eq!(pool.byte_budget(), Some(bytes - 1));

    pool.solver(&a);
    pool.solver(&b);
    assert_eq!(pool.len(), 2, "two solvers fit the budget");
    assert_eq!(pool.stats().evictions, 0);

    // Touch `a`, making `b` the coldest entry…
    assert!(pool.get(&InstanceKey::of(&a)).is_some());
    // …then breach the budget: the third admission must evict `b`.
    pool.solver(&c);
    assert!(
        pool.contains(&InstanceKey::of(&a)),
        "recently touched: kept"
    );
    assert!(!pool.contains(&InstanceKey::of(&b)), "LRU: evicted");
    assert!(pool.contains(&InstanceKey::of(&c)), "just admitted: kept");

    let stats = pool.stats();
    assert_eq!(stats.evictions, 1);
    assert!(stats.bytes.evicted > 0, "the eviction released real bytes");
    assert!(
        stats.bytes.resident < bytes,
        "the gauge sits back under the budget"
    );
    assert!(stats.bytes.peak > stats.bytes.resident);
    assert_eq!(stats.byte_budget, bytes - 1);
}

/// (b) A budget no solver can meet degrades to single-entry residency,
/// not to thrash-to-empty: every lookup still serves correct answers.
#[test]
fn an_unmeetable_budget_still_serves_one_entry() {
    let pool = SolverPool::with_byte_budget(8, 1);
    for seed in 1..=3u64 {
        let i = instance(4, 4, seed);
        let t = i.n() - 1;
        let flow = pool.run(&i, Query::MaxFlow { s: 0, t }).unwrap();
        assert!(flow.as_max_flow().unwrap().value > 0);
        assert_eq!(pool.len(), 1, "never evicted below one entry");
    }
    let stats = pool.stats();
    assert_eq!(stats.evictions, 2, "each admission displaced the last");
    assert!(stats.bytes.resident > 0, "the survivor is still billed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (c) Monotonicity of the estimates, on random instances:
    /// a COW respec shares the donor's graph allocation, so it reports
    /// *exactly* the donor's topology bytes (never more), and a solver's
    /// estimate never shrinks as queries build its substrate tiers.
    #[test]
    fn heap_estimates_are_monotone_under_respec_and_substrate_growth(
        w in 3usize..6,
        h in 3usize..5,
        seed in 0u64..10_000,
    ) {
        let base = instance(w, h, seed);
        let respec = base
            .with_capacities(gen::random_undirected_capacities(
                base.m(), 2, 7, seed + 1,
            ))
            .unwrap();
        let spec_bytes = |i: &PlanarInstance| {
            (i.capacities().len() + i.edge_weights().len())
                * std::mem::size_of::<duality::planar::Weight>()
        };
        // The derived spec's bill is its donor's topology share plus its
        // own flat spec vectors — byte-identical topology, nothing more.
        prop_assert_eq!(
            base.heap_bytes() - spec_bytes(&base),
            respec.heap_bytes() - spec_bytes(&respec),
            "respec billed different topology bytes than its donor"
        );

        // Substrate growth only ever adds bytes.
        let solver = PlanarSolver::from_instance(respec);
        let cold = solver.heap_bytes();
        prop_assert!(cold > 0);
        solver.girth().unwrap();
        let warm = solver.heap_bytes();
        prop_assert!(warm >= cold, "building the weight tier shrank the bill");
        solver.max_flow(0, base.n() - 1).unwrap();
        prop_assert!(
            solver.heap_bytes() >= warm,
            "building the flow substrate shrank the bill"
        );
    }
}
