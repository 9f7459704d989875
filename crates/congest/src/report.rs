//! The unified round report returned by every `PlanarSolver` query.

use crate::{CostLedger, Rounds};

/// CONGEST rounds for one solver query, split by how the work amortizes:
///
/// * **`substrate_topo`** — one-off artifacts keyed by the *embedding*
///   alone (BFS/diameter measurement, the embedded dual graph, the BDD
///   and dual bags). Built once per topology and shared by every solver
///   derived from it via `respec`.
/// * **`substrate_weight`** — one-off artifacts keyed by the current
///   *capacities/weights* (today: the dual distance labels at the
///   instance lengths that the global-cut pipeline consumes). Rebuilt on
///   every respec, but amortized across the queries of one spec.
/// * **`query`** — work charged by this call alone (marginal).
///
/// Both substrate ledgers are snapshots: every query on the same solver
/// reports the same substrate charges, so `query` is the marginal cost of
/// asking again — and across a respec sweep, `substrate_topo` is the part
/// of the bill that is charged exactly once.
///
/// # Example
///
/// ```
/// use duality_congest::{CostLedger, RoundReport};
///
/// let mut topo = CostLedger::new();
/// topo.charge("bdd-build", 120);
/// let mut weight = CostLedger::new();
/// weight.charge("labeling-broadcast", 80);
/// let mut query = CostLedger::new();
/// query.charge("labeling-broadcast", 300);
/// let report = RoundReport { substrate_topo: topo, substrate_weight: weight, query };
/// assert_eq!(report.total(), 500);
/// assert_eq!(report.substrate_total(), 200);
/// assert_eq!(report.query_total(), 300);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RoundReport {
    /// Rounds charged while building the topology tier (amortized across
    /// every spec of the same embedding).
    pub substrate_topo: CostLedger,
    /// Rounds charged while building the weight tier (amortized across
    /// the queries of one spec; rebuilt on respec).
    pub substrate_weight: CostLedger,
    /// Rounds charged by this query alone (marginal).
    pub query: CostLedger,
}

impl RoundReport {
    /// Total rounds: both substrate tiers + query.
    pub fn total(&self) -> Rounds {
        self.substrate_topo.total() + self.substrate_weight.total() + self.query.total()
    }

    /// Rounds charged by this query alone.
    pub fn query_total(&self) -> Rounds {
        self.query.total()
    }

    /// Rounds charged for the shared substrate (both tiers).
    pub fn substrate_total(&self) -> Rounds {
        self.substrate_topo.total() + self.substrate_weight.total()
    }

    /// Rounds charged for the topology tier alone.
    pub fn substrate_topo_total(&self) -> Rounds {
        self.substrate_topo.total()
    }

    /// Rounds charged for the weight tier alone.
    pub fn substrate_weight_total(&self) -> Rounds {
        self.substrate_weight.total()
    }

    /// Wall-clock microseconds spent building the substrate (both tiers),
    /// as measured by the [`crate::PhaseTimer`]s inside the build. Zero
    /// when the build was never timed (e.g. hand-assembled reports).
    pub fn substrate_elapsed_us(&self) -> u64 {
        self.substrate_topo.elapsed_us() + self.substrate_weight.elapsed_us()
    }

    /// The substrate's wall-clock breakdown: topology-tier phases first,
    /// then weight-tier phases, in first-charge order.
    pub fn substrate_phases_us(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self.substrate_topo.phases_us().to_vec();
        for (phase, us) in self.substrate_weight.phases_us() {
            out.push((phase.clone(), *us));
        }
        out
    }

    /// Total rounds charged under `phase` across all three shares.
    pub fn phase_total(&self, phase: &str) -> Rounds {
        self.substrate_topo.phase_total(phase)
            + self.substrate_weight.phase_total(phase)
            + self.query.phase_total(phase)
    }

    /// Merges another report into this one, tier by tier: topology into
    /// topology, weight into weight, query into query. This is the
    /// cross-solver (and cross-shard) aggregation primitive: it sums the
    /// bills of **independent** solvers (different instances, different
    /// pool shards), each of which legitimately paid its own substrate.
    ///
    /// # Example
    ///
    /// ```
    /// use duality_congest::{CostLedger, RoundReport};
    ///
    /// let mut shard0 = RoundReport::default();
    /// shard0.substrate_topo.charge("bdd-build", 120);
    /// shard0.query.charge("labeling-broadcast", 300);
    /// let mut shard1 = RoundReport::default();
    /// shard1.substrate_topo.charge("bdd-build", 80);
    /// shard1.query.charge("labeling-broadcast", 100);
    ///
    /// let mut fleet = shard0;
    /// fleet.absorb(&shard1);
    /// assert_eq!(fleet.substrate_total(), 200);
    /// assert_eq!(fleet.query_total(), 400);
    /// ```
    pub fn absorb(&mut self, other: &RoundReport) {
        self.substrate_topo.absorb(&other.substrate_topo);
        self.substrate_weight.absorb(&other.substrate_weight);
        self.query.absorb(&other.query);
    }
}

impl std::fmt::Display for RoundReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "total rounds: {} (substrate {} = topo {} + weight {}, query {})",
            self.total(),
            self.substrate_total(),
            self.substrate_topo.total(),
            self.substrate_weight.total(),
            self.query.total()
        )?;
        for (phase, rounds) in self.substrate_topo.phases() {
            writeln!(f, "  [topo] {phase}: {rounds}")?;
        }
        for (phase, rounds) in self.substrate_weight.phases() {
            writeln!(f, "  [weight] {phase}: {rounds}")?;
        }
        for (phase, rounds) in self.query.phases() {
            writeln!(f, "  [query] {phase}: {rounds}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RoundReport {
        let mut topo = CostLedger::new();
        topo.charge("bdd-build", 10);
        topo.charge("bdd-face-ids", 5);
        let mut weight = CostLedger::new();
        weight.charge("labeling-broadcast", 7);
        let mut query = CostLedger::new();
        query.charge("labeling-broadcast", 100);
        query.charge("bdd-build", 1);
        RoundReport {
            substrate_topo: topo,
            substrate_weight: weight,
            query,
        }
    }

    #[test]
    fn totals_split_and_merge() {
        let r = report();
        assert_eq!(r.total(), 123);
        assert_eq!(r.substrate_total(), 22);
        assert_eq!(r.substrate_topo_total(), 15);
        assert_eq!(r.substrate_weight_total(), 7);
        assert_eq!(r.query_total(), 101);
        assert_eq!(r.phase_total("bdd-build"), 11);
        assert_eq!(r.phase_total("labeling-broadcast"), 107);
    }

    #[test]
    fn absorb_merges_tier_by_tier() {
        let mut total = report();
        total.absorb(&report());
        assert_eq!(total.substrate_topo_total(), 30, "topo summed");
        assert_eq!(total.substrate_weight_total(), 14, "weight summed");
        assert_eq!(total.query_total(), 202, "query summed");
        assert_eq!(total.phase_total("bdd-build"), 22);
        // Absorbing an empty report is a no-op.
        let before = total.total();
        total.absorb(&RoundReport::default());
        assert_eq!(total.total(), before);
    }

    #[test]
    fn substrate_wall_clock_spans_both_tiers() {
        let mut r = report();
        r.substrate_topo.charge_us("embed", 30);
        r.substrate_topo.charge_us("bdd", 20);
        r.substrate_weight.charge_us("labeling", 9);
        r.query.charge_us("query", 100); // query time is not substrate time
        assert_eq!(r.substrate_elapsed_us(), 59);
        assert_eq!(
            r.substrate_phases_us(),
            vec![
                ("embed".to_string(), 30),
                ("bdd".to_string(), 20),
                ("labeling".to_string(), 9)
            ]
        );
    }

    #[test]
    fn display_shows_all_three_shares() {
        let s = report().to_string();
        assert!(s.contains("substrate 22 = topo 15 + weight 7"));
        assert!(s.contains("[topo] bdd-build: 10"));
        assert!(s.contains("[weight] labeling-broadcast: 7"));
        assert!(s.contains("[query] labeling-broadcast: 100"));
    }
}
