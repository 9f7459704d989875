//! One function per experiment of `DESIGN.md` §4 / `EXPERIMENTS.md`.

use crate::workloads::{self, Instance};
use crate::Row;
use duality_baselines::{cuts, flow as bflow, girth as bgirth, prior};
use duality_congest::{CostLedger, CostModel};
use duality_core::{PlanarSolver, Query};
use duality_overlay::FaceDisjointGraph;
use duality_planar::{gen, PlanarGraph, Weight};

fn cm_of(g: &PlanarGraph) -> (CostModel, usize) {
    let d = g.diameter();
    (CostModel::new(g.num_vertices(), d), d)
}

/// A fresh solver over per-dart capacities: every query on it pays its
/// own substrate, so its round bill is that of one cold query.
fn cap_solver(g: &PlanarGraph, caps: &[Weight]) -> PlanarSolver {
    PlanarSolver::builder(g).capacities(caps).build().unwrap()
}

/// A fresh solver over per-edge weights (see [`cap_solver`]).
fn weight_solver(g: &PlanarGraph, weights: &[Weight]) -> PlanarSolver {
    PlanarSolver::builder(g)
        .edge_weights(weights)
        .build()
        .unwrap()
}

/// T1 — end-to-end correctness of all five theorems against centralized
/// references. One row per (instance, algorithm); `ok = 1` means verified.
pub fn t1_correctness(seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for Instance { name, graph: g } in workloads::correctness_suite(seed) {
        let (_, d) = cm_of(&g);
        let n = g.num_vertices();
        let mut push = |algo: &str, ok: bool, rounds: f64| {
            rows.push(Row {
                experiment: "T1".into(),
                instance: format!("{name} / {algo}"),
                n,
                d,
                values: vec![
                    ("ok".into(), f64::from(u8::from(ok))),
                    ("rounds".into(), rounds),
                ],
            });
        };

        // Exact max flow (Theorem 1.2).
        let caps = gen::random_directed_capacities(g.num_edges(), 0, 9, seed + 11);
        let (s, t) = (0, n - 1);
        let r = cap_solver(&g, &caps).max_flow(s, t).unwrap();
        let want = bflow::planar_max_flow_reference(&g, &caps, s, t);
        duality_core::verify::assert_valid_flow(&g, &caps, &r.flow, s, t, r.value);
        push(
            "max-flow (Thm 1.2)",
            r.value == want,
            r.rounds.total() as f64,
        );

        // Exact min st-cut (Theorem 6.1).
        let c = cap_solver(&g, &caps).min_st_cut(s, t).unwrap();
        let cut_cap: i64 = c.cut_darts.iter().map(|dd| caps[dd.index()]).sum();
        push(
            "min-st-cut (Thm 6.1)",
            c.value == want && cut_cap == want,
            c.rounds.total() as f64,
        );

        // Approximate st-planar flow (Theorem 1.3): s, t on the outer face.
        let ucaps = gen::random_undirected_capacities(g.num_edges(), 1, 9, seed + 13);
        let outer = g.faces().max_by_key(|&f| g.face_darts(f).len()).unwrap();
        let mut on_outer: Vec<usize> = g.face_darts(outer).iter().map(|&dd| g.tail(dd)).collect();
        on_outer.sort_unstable();
        on_outer.dedup();
        let (us, ut) = (on_outer[0], *on_outer.last().unwrap());
        if us != ut {
            let a = cap_solver(&g, &ucaps).approx_max_flow(us, ut, 4).unwrap();
            let exact = bflow::planar_max_flow_reference(&g, &ucaps, us, ut);
            let ok = a.value_numer <= exact * a.denom && a.value_numer * 5 >= exact * a.denom * 4;
            push("approx-flow ε=1/4 (Thm 1.3)", ok, a.rounds.total() as f64);

            let c = cap_solver(&g, &ucaps).approx_min_st_cut(us, ut, 4).unwrap();
            let ok = duality_core::verify::cut_separates(&g, &c.cut_edges, us, ut)
                && c.value >= exact
                && c.value * 4 <= exact * 5;
            push("approx-st-cut ε=1/4 (Thm 6.2)", ok, c.rounds.total() as f64);
        }

        // Directed global min cut (Theorem 1.5).
        let w = gen::random_edge_weights(g.num_edges(), 1, 9, seed + 17);
        let gc = weight_solver(&g, &w).global_min_cut().unwrap();
        let ok = Some(gc.value) == cuts::planar_directed_min_cut_reference(&g, &w);
        push("global-min-cut (Thm 1.5)", ok, gc.rounds.total() as f64);

        // Weighted girth (Theorem 1.7).
        let gr = weight_solver(&g, &w).girth().unwrap();
        let ok = Some(gr.girth) == bgirth::planar_weighted_girth(&g, &w);
        push("girth (Thm 1.7)", ok, gr.rounds.total() as f64);
    }
    rows
}

/// F1 — exact max-flow rounds vs diameter on square grids, where
/// separators are Θ(D) and Theorem 1.2's `Õ(D²)` is tight.
pub fn f1_flow_rounds_vs_d(sides: &[usize], seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for Instance { name, graph: g } in workloads::square_sweep(sides, seed) {
        let (_, d) = cm_of(&g);
        let caps = gen::random_directed_capacities(g.num_edges(), 1, 8, seed + 3);
        let r = cap_solver(&g, &caps)
            .max_flow(0, g.num_vertices() - 1)
            .unwrap();
        let rounds = r.rounds.total() as f64;
        rows.push(Row {
            experiment: "F1".into(),
            instance: name,
            n: g.num_vertices(),
            d,
            values: vec![
                ("rounds".into(), rounds),
                ("rounds/D".into(), rounds / d as f64),
                ("rounds/D^2".into(), rounds / (d * d) as f64),
                (
                    "rounds/(D^2 logn)".into(),
                    rounds / ((d * d) as f64 * (g.num_vertices() as f64).log2()),
                ),
                ("probes".into(), f64::from(r.probes)),
            ],
        });
    }
    rows
}

/// F2 — exact max-flow rounds on skinny grids (small separators): the
/// measured rounds stay far below both the `D²` worst case and the
/// `√n`-type bounds of prior work, demonstrating instance-adaptivity.
pub fn f2_flow_rounds_vs_n(seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for Instance { name, graph: g } in workloads::size_sweep(4, &[20, 30, 45, 60, 80], seed) {
        let (_, d) = cm_of(&g);
        let caps = gen::random_directed_capacities(g.num_edges(), 1, 8, seed + 5);
        let r = cap_solver(&g, &caps)
            .max_flow(0, g.num_vertices() - 1)
            .unwrap();
        let rounds = r.rounds.total() as f64;
        rows.push(Row {
            experiment: "F2".into(),
            instance: name,
            n: g.num_vertices(),
            d,
            values: vec![
                ("rounds".into(), rounds),
                ("rounds/D^2".into(), rounds / (d * d) as f64),
                (
                    "rounds/sqrt(n)D".into(),
                    rounds / ((g.num_vertices() as f64).sqrt() * d as f64),
                ),
            ],
        });
    }
    rows
}

/// F3 — weighted-girth rounds vs diameter (Theorem 1.7's `Õ(D)`) on the
/// constant-`n` family, so the polylog(n) factors are fixed and `rounds/D`
/// is flat — the cleanest empirical witness of the linear-in-D bound.
pub fn f3_girth_rounds_vs_d(target_n: usize, seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for Instance { name, graph: g } in workloads::diameter_sweep(target_n, seed) {
        let (_, d) = cm_of(&g);
        let w = gen::random_edge_weights(g.num_edges(), 1, 50, seed + 7);
        let rounds = weight_solver(&g, &w).girth().unwrap().rounds.total() as f64;
        rows.push(Row {
            experiment: "F3".into(),
            instance: name,
            n: g.num_vertices(),
            d,
            values: vec![
                ("rounds".into(), rounds),
                ("rounds/D".into(), rounds / d as f64),
            ],
        });
    }
    rows
}

/// T2 — approximation quality of the st-planar flow vs `ε = 1/k`
/// (Theorem 1.3): measured ratio to the exact optimum, with the
/// `(1 − 1/(k+1))` guarantee alongside.
pub fn t2_approx_quality(seed: u64) -> Vec<Row> {
    let g = gen::diag_grid(12, 8, seed).unwrap();
    let caps = gen::random_undirected_capacities(g.num_edges(), 1, 50, seed + 9);
    let (s, t) = (0, 11); // two corners of the top row: both on the outer face
    let exact = bflow::planar_max_flow_reference(&g, &caps, s, t);
    let (_, d) = cm_of(&g);
    let mut rows = Vec::new();
    for k in [1u64, 2, 4, 8, 16, 0] {
        let r = cap_solver(&g, &caps).approx_max_flow(s, t, k).unwrap();
        let ratio = r.value_numer as f64 / (r.denom as f64 * exact as f64);
        let guarantee = if k == 0 {
            1.0
        } else {
            k as f64 / (k as f64 + 1.0)
        };
        rows.push(Row {
            experiment: "T2".into(),
            instance: if k == 0 {
                "exact oracle".into()
            } else {
                format!("ε = 1/{k}")
            },
            n: g.num_vertices(),
            d,
            values: vec![
                ("ratio*1000".into(), ratio * 1000.0),
                ("guarantee*1000".into(), guarantee * 1000.0),
                ("rounds".into(), r.rounds.total() as f64),
            ],
        });
    }
    rows
}

/// F4 — directed global min cut: rounds vs diameter + correctness against
/// the centralized dual-cycle reference (Theorem 1.5).
pub fn f4_global_cut(sides: &[usize], seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for Instance { name, graph: g } in workloads::square_sweep(sides, seed) {
        let (_, d) = cm_of(&g);
        let w = gen::random_edge_weights(g.num_edges(), 1, 30, seed + 19);
        let r = weight_solver(&g, &w).global_min_cut().unwrap();
        let ok = Some(r.value) == cuts::planar_directed_min_cut_reference(&g, &w);
        let rounds = r.rounds.total() as f64;
        rows.push(Row {
            experiment: "F4".into(),
            instance: name,
            n: g.num_vertices(),
            d,
            values: vec![
                ("ok".into(), f64::from(u8::from(ok))),
                ("rounds".into(), rounds),
                ("rounds/D^2".into(), rounds / (d * d) as f64),
            ],
        });
    }
    rows
}

/// F5 — label sizes vs diameter (Lemma 5.17's `Õ(D)` words).
pub fn f5_label_sizes(sides: &[usize], seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for Instance { name, graph: g } in workloads::square_sweep(sides, seed) {
        let (_, d) = cm_of(&g);
        let lengths = vec![1; g.num_darts()];
        let solver = cap_solver(&g, &lengths);
        let labels = solver
            .labeling_engine()
            .labels(&lengths, &mut CostLedger::new())
            .unwrap();
        let words: Vec<u64> = g.faces().map(|f| labels.label_words(f)).collect();
        let max = *words.iter().max().unwrap() as f64;
        let avg = words.iter().sum::<u64>() as f64 / words.len() as f64;
        rows.push(Row {
            experiment: "F5".into(),
            instance: name,
            n: g.num_vertices(),
            d,
            values: vec![
                ("max-words".into(), max),
                ("avg-words".into(), avg),
                ("max/D".into(), max / d as f64),
            ],
        });
    }
    rows
}

/// T4 — BDD structural statistics vs theory (Lemmas 5.1, 5.3, 5.8).
pub fn t4_bdd_stats(seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for (w, h) in [(10usize, 10usize), (16, 16), (24, 16), (24, 24)] {
        let g = gen::diag_grid(w, h, seed).unwrap();
        let (_, d) = cm_of(&g);
        // The solver's engine holds the default-threshold BDD and every
        // non-leaf bag's F_X.
        let solver = weight_solver(&g, &vec![1; g.num_edges()]);
        let engine = solver.labeling_engine();
        let bdd = &engine.bdd;
        let mut max_parts = 0usize;
        let mut max_fx = 0usize;
        let mut max_sep = 0usize;
        for bag in &bdd.bags {
            max_parts = max_parts.max(bdd.face_parts_of(&g, bag));
            if !bag.is_leaf() {
                max_fx = max_fx.max(engine.fx[bag.id].len());
                max_sep = max_sep.max(bag.separator.as_ref().unwrap().vertices.len());
            }
        }
        rows.push(Row {
            experiment: "T4".into(),
            instance: format!("diag-grid {w}x{h}"),
            n: g.num_vertices(),
            d,
            values: vec![
                ("depth".into(), bdd.depth() as f64),
                ("log2(m)".into(), (g.num_edges() as f64).log2()),
                ("max-face-parts".into(), max_parts as f64),
                ("max-|F_X|".into(), max_fx as f64),
                ("max-|S_X|".into(), max_sep as f64),
            ],
        });
    }
    rows
}

/// F6 — measured rounds against prior-work analytic bounds (paper,
/// Section 1): the de Vos `D·n^{1/2+o(1)}` planar algorithm and the GKKLP
/// `(√n + D)·n^{o(1)}` general-graph approximation. Absolute values are
/// not comparable (the prior bounds are evaluated with unit constants
/// while our rounds are fully-constanted measurements), so the
/// reproducible signal is the *trend*: `ours/deVos · 1000` falls as `n`
/// grows — our bound has no `√n` factor.
pub fn f6_prior_comparison(seed: u64) -> Vec<Row> {
    f2_flow_rounds_vs_n(seed)
        .into_iter()
        .map(|row| {
            let rounds = row.value("rounds").unwrap();
            let de_vos = prior::de_vos_planar_flow_rounds(row.n, row.d) as f64;
            let gkklp = prior::gkklp_general_flow_rounds(row.n, row.d) as f64;
            Row {
                experiment: "F6".into(),
                instance: row.instance,
                n: row.n,
                d: row.d,
                values: vec![
                    ("ours".into(), rounds),
                    ("deVos".into(), de_vos),
                    ("GKKLP-approx".into(), gkklp),
                    ("ours/deVos*1000".into(), 1000.0 * rounds / de_vos),
                ],
            }
        })
        .collect()
}

/// T5 — the dual simulation substrate: `Ĝ` diameter vs the `3D` bound
/// (Property 2) and the CONGEST cost of one dual minor-aggregation round
/// (Theorem 4.10).
pub fn t5_overlay_stats(seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, g) in [
        ("grid 8x8".to_string(), gen::grid(8, 8).unwrap()),
        (
            "diag-grid 10x6".to_string(),
            gen::diag_grid(10, 6, seed).unwrap(),
        ),
        (
            "apollonian 48".to_string(),
            gen::apollonian(48, seed).unwrap(),
        ),
    ] {
        let (cm, d) = cm_of(&g);
        let hat = FaceDisjointGraph::new(&g);
        rows.push(Row {
            experiment: "T5".into(),
            instance: name,
            n: g.num_vertices(),
            d,
            values: vec![
                ("hat-diameter".into(), hat.diameter() as f64),
                ("3D".into(), (3 * d) as f64),
                (
                    "MA-round-cost".into(),
                    cm.dual_minor_aggregation_round() as f64,
                ),
            ],
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_all_ok_smoke() {
        for row in t1_correctness(3) {
            assert_eq!(row.value("ok"), Some(1.0), "{}", row.instance);
        }
    }

    #[test]
    fn f1_rounds_grow_with_d() {
        let rows = f1_flow_rounds_vs_d(&[6, 9, 12], 1);
        assert!(rows.len() >= 3);
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(last.d > first.d);
        assert!(last.value("rounds").unwrap() > first.value("rounds").unwrap());
    }

    #[test]
    fn t2_ratios_respect_guarantees() {
        for row in t2_approx_quality(5) {
            assert!(
                row.value("ratio*1000").unwrap() >= row.value("guarantee*1000").unwrap() - 1e-6
            );
            assert!(row.value("ratio*1000").unwrap() <= 1000.0 + 1e-6);
        }
    }

    #[test]
    fn t5_hat_diameter_within_bound() {
        for row in t5_overlay_stats(2) {
            assert!(row.value("hat-diameter").unwrap() <= row.value("3D").unwrap() + 3.0);
        }
    }

    #[test]
    fn s2_batched_bill_equals_serial_bill() {
        for row in s2_batch_throughput(6) {
            assert_eq!(row.value("batch=serial"), Some(1.0), "{}", row.instance);
            assert_eq!(row.value("engine-builds"), Some(1.0), "{}", row.instance);
            assert_eq!(row.value("unique"), Some(6.0), "{}", row.instance);
            assert_eq!(row.value("deduped"), Some(1.0), "{}", row.instance);
            assert!(
                row.value("batch-rounds").unwrap() < row.value("cold-rounds").unwrap(),
                "{}: batching must beat cold calls",
                row.instance
            );
        }
    }

    #[test]
    fn s3_topology_charged_once_and_answers_match() {
        for row in s3_respec_reuse(6, true) {
            assert_eq!(row.value("topo-builds"), Some(1.0), "{}", row.instance);
            assert_eq!(row.value("respec=fresh"), Some(1.0), "{}", row.instance);
            assert!(
                row.value("respec-total").unwrap() < row.value("fresh-total").unwrap(),
                "{}: the respec sweep must undercut fresh builds",
                row.instance
            );
            // Fresh pays the topology once per spec; respec exactly once.
            let topo = row.value("topo-rounds").unwrap();
            assert_eq!(
                row.value("fresh-total").unwrap() - row.value("respec-total").unwrap(),
                4.0 * topo,
                "{}: saving is exactly (K-1) topology shares",
                row.instance
            );
        }
    }

    #[test]
    fn s4_engine_is_bit_for_bit_serial_and_amortizes_substrate() {
        for row in s4_service_engine(6, true) {
            assert_eq!(row.value("engine=serial"), Some(1.0), "{}", row.instance);
            assert_eq!(
                row.value("completed"),
                row.value("jobs"),
                "{}",
                row.instance
            );
            assert_eq!(
                row.value("engine-query"),
                row.value("serial-query"),
                "{}: marginal query rounds are thread/shard independent",
                row.instance
            );
            // The engine's amortized substrate undercuts fresh-per-spec
            // serial by exactly the (M−1) topo shares respec-reuse saves.
            assert_eq!(
                row.value("serial-substrate").unwrap() - row.value("engine-substrate").unwrap(),
                row.value("topo-saved").unwrap(),
                "{}",
                row.instance
            );
            assert_eq!(row.value("respec-reuses"), Some(2.0), "{}", row.instance);
        }
    }

    #[test]
    fn s1_warm_batches_beat_cold_batches() {
        for row in s1_substrate_reuse(6) {
            assert_eq!(row.value("engine-builds"), Some(1.0), "{}", row.instance);
            assert!(
                row.value("warm-rounds").unwrap() < row.value("cold-rounds").unwrap(),
                "{}: warm {} vs cold {}",
                row.instance,
                row.value("warm-rounds").unwrap(),
                row.value("cold-rounds").unwrap()
            );
        }
    }
}

/// A1 — ablation of the BDD leaf threshold (the design choice `DESIGN.md`
/// calls out): tiny leaves deepen the decomposition and pay more broadcast
/// levels; huge leaves degenerate to broadcasting the whole dual. The
/// paper's `Θ(D)` default sits between the regimes.
pub fn a1_leaf_threshold_ablation(seed: u64) -> Vec<Row> {
    let g = gen::diag_grid(16, 16, seed).unwrap();
    let (cm, d) = cm_of(&g);
    let caps = gen::random_directed_capacities(g.num_edges(), 1, 8, seed + 23);
    let mut rows = Vec::new();
    let default = 4 * (cm.d + 1);
    for (label, threshold) in [
        ("tiny (8)".to_string(), 8usize),
        ("D".to_string(), cm.d + 1),
        (format!("default 4(D+1) = {default}"), default),
        ("16·D".to_string(), 16 * (cm.d + 1)),
        ("whole graph".to_string(), g.num_edges() + 1),
    ] {
        let solver = PlanarSolver::builder(&g)
            .capacities(&caps)
            .with_leaf_threshold(Some(threshold))
            .build()
            .unwrap();
        let r = solver.max_flow(0, g.num_vertices() - 1).unwrap();
        let engine = solver.labeling_engine();
        rows.push(Row {
            experiment: "A1".into(),
            instance: format!("leaf threshold {label}"),
            n: g.num_vertices(),
            d,
            values: vec![
                ("rounds".into(), r.rounds.total() as f64),
                ("bdd-depth".into(), engine.bdd.depth() as f64),
                ("bags".into(), engine.bdd.bags.len() as f64),
            ],
        });
    }
    rows
}

/// A2 — ablation of the per-probe labeling cost across the binary search:
/// the engine (BDD + dual bags) is built once and re-labeled per probe;
/// this isolates the per-probe `Õ(D²)` from the one-off `Õ(D)` setup.
pub fn a2_probe_cost_split(seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for k in [10usize, 16, 22] {
        let g = gen::diag_grid(k, k, seed).unwrap();
        let (_, d) = cm_of(&g);
        let caps = gen::random_directed_capacities(g.num_edges(), 1, 8, seed + 29);
        let r = cap_solver(&g, &caps)
            .max_flow(0, g.num_vertices() - 1)
            .unwrap();
        let setup = r.rounds.phase_total("bdd-build") + r.rounds.phase_total("bdd-face-ids");
        let labeling = r.rounds.phase_total("labeling-broadcast");
        rows.push(Row {
            experiment: "A2".into(),
            instance: format!("diag-grid {k}x{k}"),
            n: g.num_vertices(),
            d,
            values: vec![
                ("setup-rounds".into(), setup as f64),
                ("labeling-rounds".into(), labeling as f64),
                ("per-probe".into(), labeling as f64 / f64::from(r.probes)),
                ("probes".into(), f64::from(r.probes)),
            ],
        });
    }
    rows
}

/// S1 — substrate reuse through the `PlanarSolver` façade: a batch of
/// distinct queries issued cold (a fresh solver, hence a fresh engine, per
/// query) vs warm (one solver, one cached engine). The reproducible
/// signal: warm total rounds ≈ cold total − (batch−1)·substrate, and the
/// engine is built exactly once.
pub fn s1_substrate_reuse(seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for (w, h) in [(8usize, 6usize), (12, 8), (16, 10)] {
        let g = gen::diag_grid(w, h, seed).unwrap();
        let n = g.num_vertices();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, seed + 31);
        let weights = gen::random_edge_weights(g.num_edges(), 1, 9, seed + 37);
        let pairs = [(0, n - 1), (w - 1, n - w), (0, n - w), (w - 1, n - 1)];

        let cold_rounds = cold_bill(&g, &caps, &weights, &pairs);

        // Warm: one solver, substrate charged once.
        let solver = PlanarSolver::builder(&g)
            .capacities(caps.clone())
            .edge_weights(weights.clone())
            .build()
            .unwrap();
        let mut warm_query_rounds = 0u64;
        for &(s, t) in &pairs {
            warm_query_rounds += solver.max_flow(s, t).unwrap().rounds.query_total();
        }
        warm_query_rounds += solver.global_min_cut().unwrap().rounds.query_total();
        warm_query_rounds += solver.girth().unwrap().rounds.query_total();
        let warm_rounds = warm_query_rounds + solver.substrate_rounds().total();

        rows.push(Row {
            experiment: "S1".into(),
            instance: format!("diag-grid {w}x{h}, 6 queries"),
            n,
            d: g.diameter(),
            values: vec![
                ("cold-rounds".into(), cold_rounds as f64),
                ("warm-rounds".into(), warm_rounds as f64),
                (
                    "substrate-rounds".into(),
                    solver.substrate_rounds().total() as f64,
                ),
                (
                    "saved*1000".into(),
                    1000.0 * (cold_rounds - warm_rounds) as f64 / cold_rounds as f64,
                ),
                (
                    "engine-builds".into(),
                    f64::from(solver.stats().engine_builds),
                ),
            ],
        });
    }
    rows
}

/// S1's cold bill: each of the four max-flows, the global cut and the
/// girth on its own fresh solver, so every query pays its own diameter
/// measurement and substrate.
fn cold_bill(
    g: &PlanarGraph,
    caps: &[Weight],
    weights: &[Weight],
    pairs: &[(usize, usize)],
) -> u64 {
    let mut rounds: u64 = pairs
        .iter()
        .map(|&(s, t)| cap_solver(g, caps).max_flow(s, t).unwrap().rounds.total())
        .sum();
    rounds += weight_solver(g, weights)
        .global_min_cut()
        .unwrap()
        .rounds
        .total();
    rounds + weight_solver(g, weights).girth().unwrap().rounds.total()
}

/// S2 — warm batch throughput through the typed query layer: the
/// six-query S1 workload (four max-flows, one global cut, one girth) plus
/// one duplicate, executed three ways on fresh solvers — **cold** with a
/// fresh solver per query, **warm-serial** via `run(Query)` one at a time,
/// and **warm-batched** via `run_batch_on` across a thread sweep. The
/// reproducible signal: the batched CONGEST bill equals the warm-serial
/// bill on every thread count (substrate charged once, duplicate billed
/// zero marginal rounds), making this row an executable check of the
/// batch-equals-serial acceptance criterion.
pub fn s2_batch_throughput(seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    // Two sizes suffice: S1 already sweeps scale; S2's axis is threads.
    for (w, h) in [(8usize, 6usize), (12, 8)] {
        let g = gen::diag_grid(w, h, seed).unwrap();
        let n = g.num_vertices();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, seed + 31);
        let weights = gen::random_edge_weights(g.num_edges(), 1, 9, seed + 37);
        let pairs = [(0, n - 1), (w - 1, n - w), (0, n - w), (w - 1, n - 1)];
        let mut queries: Vec<Query> = pairs
            .iter()
            .map(|&(s, t)| Query::MaxFlow { s, t })
            .collect();
        queries.extend([Query::GlobalMinCut, Query::Girth]);
        queries.push(queries[0]); // duplicate: deduplicated by the batch
        let fresh_solver = || {
            PlanarSolver::builder(&g)
                .capacities(caps.clone())
                .edge_weights(weights.clone())
                .build()
                .unwrap()
        };

        let cold_rounds = cold_bill(&g, &caps, &weights, &pairs);

        // Warm serial: one solver, one query at a time (duplicate re-run).
        let serial = fresh_solver();
        let serial_marginal: u64 = queries[..6]
            .iter()
            .map(|&q| serial.run(q).unwrap().rounds().query_total())
            .sum();
        let serial_rounds = serial_marginal + serial.substrate_rounds().total();

        // Warm batched: dedup + worker pool, across a thread sweep.
        for threads in [1usize, 2, 4] {
            let solver = fresh_solver();
            let batch = solver.run_batch_on(&queries, threads);
            assert!(batch.all_ok(), "batch workload must succeed");
            rows.push(Row {
                experiment: "S2".into(),
                instance: format!("diag-grid {w}x{h}, 7 queries, {threads} thr"),
                n,
                d: g.diameter(),
                values: vec![
                    ("cold-rounds".into(), cold_rounds as f64),
                    ("serial-warm-rounds".into(), serial_rounds as f64),
                    ("batch-rounds".into(), batch.rounds.total() as f64),
                    (
                        "batch=serial".into(),
                        f64::from(u8::from(batch.rounds.total() == serial_rounds)),
                    ),
                    ("unique".into(), batch.unique as f64),
                    ("deduped".into(), batch.duplicates as f64),
                    (
                        "engine-builds".into(),
                        f64::from(solver.stats().engine_builds),
                    ),
                ],
            });
        }
    }
    rows
}

/// S3 — respec reuse through the two-tier substrate: the same K-scenario
/// capacity sweep (K = 5 specs of one network, each answering one exact
/// max-flow and one global min cut) executed two ways — **fresh** (one
/// solver per spec: every scenario pays the diameter measurement, dual
/// graph and BDD again) and **respec** (`PlanarSolver::respec_capacities`
/// chains the specs over one shared `Arc<TopoSubstrate>`). The
/// reproducible signals: `topo-rounds` is charged **once** across the
/// respec sweep (`topo-builds = 1`), every spec pays only its own weight
/// tier + marginal queries, answers are bit-for-bit identical
/// (`respec=fresh = 1`), and the sweep total undercuts the fresh total by
/// exactly `(K−1) · topo-rounds`.
pub fn s3_respec_reuse(seed: u64, smoke: bool) -> Vec<Row> {
    let sizes: &[(usize, usize)] = if smoke { &[(6, 5)] } else { &[(8, 6), (12, 8)] };
    let specs = 5usize; // K: one base spec + 4 respecs
    let mut rows = Vec::new();
    for &(w, h) in sizes {
        let g = gen::diag_grid(w, h, seed).unwrap();
        let n = g.num_vertices();
        let t = n - 1;
        let spec_caps: Vec<Vec<duality_planar::Weight>> = (0..specs as u64)
            .map(|k| gen::random_undirected_capacities(g.num_edges(), 1, 9, seed + 31 + k))
            .collect();
        // Explicit per-edge weights shared by every spec and both paths:
        // `respec_capacities` keeps the original weights (replace only the
        // named side), so the fresh baseline must run on those same
        // weights — building it from `capacities(caps_k)` alone would
        // re-derive weights from each spec's caps and the two paths would
        // answer the weight-backed global cut on different data.
        let weights = gen::random_edge_weights(g.num_edges(), 1, 9, seed + 97);

        // Fresh: one solver per spec, topology rebuilt every time.
        let mut fresh_total = 0u64;
        let mut fresh_answers = Vec::new();
        for caps in &spec_caps {
            let solver = PlanarSolver::builder(&g)
                .capacities(caps.clone())
                .edge_weights(weights.clone())
                .build()
                .unwrap();
            let flow = solver.max_flow(0, t).unwrap();
            let cut = solver.global_min_cut().unwrap();
            fresh_total += solver.substrate_rounds().total()
                + flow.rounds.query_total()
                + cut.rounds.query_total();
            fresh_answers.push((flow.value, flow.flow, cut.value, cut.cut_edges));
        }

        // Respec: one topology, K weight tiers.
        let base = PlanarSolver::builder(&g)
            .capacities(spec_caps[0].clone())
            .edge_weights(weights.clone())
            .build()
            .unwrap();
        let mut respec_total = 0u64;
        let mut weight_rounds = 0u64;
        let mut answers_match = true;
        let mut solver = base.clone();
        for (k, caps) in spec_caps.iter().enumerate() {
            if k > 0 {
                solver = solver.respec_capacities(caps.clone()).unwrap();
            }
            let flow = solver.max_flow(0, t).unwrap();
            let cut = solver.global_min_cut().unwrap();
            weight_rounds += solver.substrate_weight_rounds().total();
            respec_total += solver.substrate_weight_rounds().total()
                + flow.rounds.query_total()
                + cut.rounds.query_total();
            let want = &fresh_answers[k];
            answers_match &= flow.value == want.0
                && flow.flow == want.1
                && cut.value == want.2
                && cut.cut_edges == want.3;
        }
        let topo_rounds = base.substrate_topo_rounds().total();
        respec_total += topo_rounds; // charged once for the whole sweep

        rows.push(Row {
            experiment: "S3".into(),
            instance: format!("diag-grid {w}x{h}, {specs} specs"),
            n,
            d: g.diameter(),
            values: vec![
                ("topo-rounds".into(), topo_rounds as f64),
                ("weight-rounds".into(), weight_rounds as f64),
                ("respec-total".into(), respec_total as f64),
                ("fresh-total".into(), fresh_total as f64),
                (
                    "saved*1000".into(),
                    1000.0 * (fresh_total - respec_total) as f64 / fresh_total as f64,
                ),
                ("topo-builds".into(), f64::from(base.stats().engine_builds)),
                ("respec=fresh".into(), f64::from(u8::from(answers_match))),
            ],
        });
    }
    rows
}

// The digest the S4/S5 determinism contracts compare: witness data plus
// marginal query rounds (shared with the workload driver, which uses the
// same fingerprint for trace replay).
use duality_workload::outcome_fingerprint;

/// S4 — the sharded serving engine vs serial execution: a multi-tenant
/// workload (K networks × M respec'd specs × four query kinds) replayed
/// through `ServiceEngine` across a {1,2,4}-worker × {1,2,4}-shard sweep.
/// The reproducible signals, per combination: every outcome is
/// **bit-for-bit identical** to serial `PlanarSolver::run` (witnesses and
/// marginal rounds — `engine=serial = 1`), the engine's summed query
/// rounds equal the serial sum exactly, and its amortized substrate bill
/// undercuts the fresh-solver-per-spec serial bill by exactly
/// `(M−1) × Σ topo` (respec-reuse across shards' pools, `respec-reuses =
/// K·(M−1)`).
pub fn s4_service_engine(seed: u64, smoke: bool) -> Vec<Row> {
    use duality_congest::RoundReport;
    use duality_core::{Outcome, PlanarInstance};
    use duality_service::{AdmissionPolicy, ServiceEngine};
    use std::sync::Arc;

    let (w, h, networks) = if smoke {
        (5usize, 4usize, 2usize)
    } else {
        (8, 6, 3)
    };
    let specs_per = 2usize;

    // Tenants: K networks, each with a base spec and a surge respec
    // (copy-on-write, shared graph allocation — the donor relationship
    // the engine's shard routing must preserve).
    let mut tenants: Vec<Arc<PlanarInstance>> = Vec::new();
    for k in 0..networks as u64 {
        let g = gen::diag_grid(w, h, seed + k).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, seed + 10 + k);
        let weights = gen::random_edge_weights(g.num_edges(), 1, 9, seed + 20 + k);
        let base = PlanarInstance::new(g, Some(caps), Some(weights)).unwrap();
        let surge: Vec<i64> = base.capacities().iter().map(|&c| 2 * c).collect();
        let respec = base.with_capacities(surge).unwrap();
        tenants.push(base);
        tenants.push(respec);
    }
    let queries_of = |i: &PlanarInstance| {
        let t = i.n() - 1;
        [
            Query::MaxFlow { s: 0, t },
            Query::MinStCut { s: 0, t },
            Query::GlobalMinCut,
            Query::Girth,
        ]
    };

    // Serial ground truth: one fresh solver per spec, queries in order;
    // per-spec bills merged across tenants with `RoundReport::absorb`
    // (each solver legitimately paid its own substrate).
    let mut serial_bill = RoundReport::default();
    let mut serial_fingerprints: Vec<u64> = Vec::new();
    let mut topo_rounds_per_network = 0u64;
    // The engine sweep below warms each tenant with one girth before its
    // storm; that known extra is subtracted from the engine's query bill.
    // Girth marginals are repeat-invariant, so the serial pass's girth
    // outcomes (last query of each tenant) price the warmup exactly.
    let mut warmup_query = 0u64;
    for (ti, i) in tenants.iter().enumerate() {
        let solver = PlanarSolver::from_instance(Arc::clone(i));
        let outcomes: Vec<Outcome> = queries_of(i)
            .into_iter()
            .map(|q| solver.run(q).unwrap())
            .collect();
        serial_fingerprints.extend(outcomes.iter().map(outcome_fingerprint));
        warmup_query += outcomes.last().unwrap().rounds().query_total();
        serial_bill.absorb(&RoundReport::batched(
            solver.substrate_topo_rounds(),
            solver.substrate_weight_rounds(),
            outcomes.iter().map(|o| &o.rounds().query),
        ));
        if ti % specs_per == 0 {
            topo_rounds_per_network += solver.substrate_topo_rounds().total();
        }
    }

    let mut rows = Vec::new();
    for shard_count in [1usize, 2, 4] {
        for workers in [1usize, 2, 4] {
            let engine = ServiceEngine::builder()
                .shards(shard_count)
                .workers(workers)
                .queue_capacity(32)
                .admission(AdmissionPolicy::Block)
                .build()
                .unwrap();
            // Deterministic warmup: admit every tenant in order (base
            // before its respec) so each respec finds its donor solver.
            for i in &tenants {
                let _ = engine.run(i, Query::Girth).unwrap();
            }
            // The storm: every job submitted up front, outcomes collected
            // asynchronously via tickets, in submission order.
            let tickets: Vec<_> = tenants
                .iter()
                .flat_map(|i| {
                    queries_of(i)
                        .into_iter()
                        .map(|q| engine.submit(i, q).unwrap())
                        .collect::<Vec<_>>()
                })
                .collect();
            let fingerprints: Vec<u64> = tickets
                .into_iter()
                .map(|t| outcome_fingerprint(&t.wait().unwrap()))
                .collect();
            let matches = fingerprints == serial_fingerprints;
            let m = engine.shutdown();
            rows.push(Row {
                experiment: "S4".into(),
                instance: format!(
                    "{networks} nets × {specs_per} specs, {workers} wrk / {shard_count} shd"
                ),
                n: tenants[0].n(),
                d: tenants[0].graph().diameter(),
                values: vec![
                    ("jobs".into(), (tenants.len() * 4) as f64),
                    ("engine=serial".into(), f64::from(u8::from(matches))),
                    (
                        "completed".into(),
                        m.completed as f64 - tenants.len() as f64, // minus warmup
                    ),
                    (
                        "engine-query".into(),
                        (m.query_rounds() - warmup_query) as f64,
                    ),
                    ("serial-query".into(), serial_bill.query_total() as f64),
                    ("engine-substrate".into(), m.substrate_rounds() as f64),
                    (
                        "serial-substrate".into(),
                        serial_bill.substrate_total() as f64,
                    ),
                    (
                        "topo-saved".into(),
                        ((specs_per - 1) as u64 * topo_rounds_per_network) as f64,
                    ),
                    ("respec-reuses".into(), m.pool_total().respec_reuses as f64),
                    (
                        "p99-us".into(),
                        m.latency.quantile_us(0.99).unwrap_or(0) as f64,
                    ),
                ],
            });
        }
    }
    rows
}

/// S5 — the scenario workload sweep: preset scenarios recorded to traces
/// (`duality-workload`), replayed through the serving engine across a
/// worker × shard sweep, and compared against serial ground truth. The
/// reproducible signals, per (scenario, configuration): every replayed
/// outcome is bit-for-bit identical to serial `PlanarSolver::run`
/// (`replay=serial = 1`), the summed marginal query rounds match the
/// serial sum exactly, and the engine's pooled substrate bill never
/// exceeds the fresh-solver-per-spec serial bill. The *measurements* —
/// wall-clock throughput, latency quantiles, and the substrate-reuse
/// bills — are the perf trajectory recorded in `BENCH_S5.json`.
pub fn s5_scenario_sweep(seed: u64, smoke: bool) -> Vec<Row> {
    run_lab_spec(S5_SPEC, seed, smoke)
}

/// The committed declarative spec behind S5 — `experiments run
/// experiments/s5-replay.lab.jsonl` regenerates the same sweep.
pub const S5_SPEC: &str = include_str!("../../../experiments/s5-replay.lab.jsonl");

/// The committed declarative spec behind S7.
pub const S7_SPEC: &str = include_str!("../../../experiments/s7-saturation.lab.jsonl");

/// The committed declarative spec behind S8.
pub const S8_SPEC: &str = include_str!("../../../experiments/s8-autopilot.lab.jsonl");

/// The committed declarative spec behind S9.
pub const S9_SPEC: &str = include_str!("../../../experiments/s9-stealing.lab.jsonl");

/// The committed declarative spec behind S10.
pub const S10_SPEC: &str = include_str!("../../../experiments/s10-memory.lab.jsonl");

/// S7 — the saturation probe: per preset × (workers, shards) cell, the
/// open-loop arrival rate is stepped by `increment_jps` per round until
/// the engine overloads (achieved rate falls under the sustainability
/// margin, or the round p99 passes the spec'd ceiling). The artifact
/// records `max-sustainable-jps` — the capacity the cell can actually
/// serve — and the knee-of-curve p50/p99, the latency just before
/// tip-over. This is the instrument for the worker-scaling wall: if
/// capacity is flat from 1→4 workers, `scaling-efficiency` stays ~1.0
/// in `BENCH_S7.json` and the wall is in evidence, not in anecdotes.
pub fn s7_saturation(seed: u64, smoke: bool) -> Vec<Row> {
    run_lab_spec(S7_SPEC, seed, smoke)
}

/// S8 — the autopilot closed loop: per (scenario, cell), the trace is
/// served phase by phase (calm-in, storm burst, calm-out) through a
/// telemetry-wired reconciler whose autopilot scales the worker fleet on
/// queue and per-tenant p99 pressure, then once more through a *static*
/// fleet sized at the surge ceiling. The reproducible signals: every
/// phase completes all its jobs (exact-gated), the storm phase shows
/// scale-up decisions and a worker peak above the floor, and the
/// calm-out phase retires back to the floor — elastic capacity holding
/// the workload a static peak-sized fleet would hold with idle workers.
pub fn s8_autopilot(seed: u64, smoke: bool) -> Vec<Row> {
    run_lab_spec(S8_SPEC, seed, smoke)
}

/// S9 — the stealing probe: the S7 saturation instrument pointed at the
/// work-stealing scheduler, ramping two compute-bound presets over a
/// 1→8 worker sweep at a fixed two shards. The artifact's
/// `scaling-efficiency` column (capacity at N workers ÷ capacity at 1
/// worker) is the direct witness for the worker-scaling wall this
/// scheduler exists to smash: per-worker deques take the single hot
/// mutex + condvar thundering herd off the dispatch path, so capacity
/// should now climb with the fleet instead of flattening at ~1–2×.
pub fn s9_stealing(seed: u64, smoke: bool) -> Vec<Row> {
    run_lab_spec(S9_SPEC, seed, smoke)
}

/// S10 — the memory/profiling probe: an instance-size ramp (small →
/// medium → large tenant grids) served through a telemetry-wired
/// engine, reporting where the substrate build spends its time
/// (per-phase µs: embed / dual / bdd / weight-tier / labeling, summed
/// as `substrate-build-us`) and what the solver pool holds while doing
/// it (byte-accurate `resident-bytes` / `peak-resident-bytes` /
/// `evicted-bytes` from the `HeapSize` accounting). The reproducible
/// signal is `completed = jobs` (exact-gated, Block admission); the
/// byte and phase gauges are the trajectory `BENCH_S10.json` records —
/// the evidence base for pool budget sizing.
pub fn s10_memory(seed: u64, smoke: bool) -> Vec<Row> {
    run_lab_spec(S10_SPEC, seed, smoke)
}

/// Parses a committed lab spec and runs it with the harness seed.
fn run_lab_spec(text: &str, seed: u64, smoke: bool) -> Vec<Row> {
    let spec = duality_lab::LabSpec::parse_jsonl(text).expect("committed lab specs parse");
    duality_lab::run_spec(&spec, smoke, Some(seed))
        .expect("committed lab specs run")
        .into_iter()
        .map(|r| Row {
            experiment: r.experiment,
            instance: r.instance,
            n: r.n,
            d: r.d,
            values: r.values,
        })
        .collect()
}

#[cfg(test)]
mod workload_tests {
    use super::*;

    #[test]
    fn committed_specs_are_canonical_and_smoke_scaled() {
        use duality_lab::{LabSpec, RunMode};
        for text in [S5_SPEC, S7_SPEC] {
            let spec = LabSpec::parse_jsonl(text).unwrap();
            assert_eq!(spec.to_jsonl(), text, "committed spec is byte-stable");
            assert_eq!(spec.seed, 42, "specs pin the harness seed");
            assert!(
                spec.run_scenarios(true).len() >= 4,
                "smoke keeps the acceptance floor of four scenarios"
            );
            assert_eq!(spec.run_cells(true).len(), 3, "smoke grid is CI-sized");
            assert_eq!(spec.run_cells(false).len(), 9, "full grid is 3x3");
        }
        assert!(matches!(
            LabSpec::parse_jsonl(S5_SPEC).unwrap().mode,
            RunMode::Replay
        ));
        assert!(matches!(
            LabSpec::parse_jsonl(S7_SPEC).unwrap().mode,
            RunMode::Ramp(_)
        ));
    }

    #[test]
    fn s8_spec_is_canonical_and_the_smoke_run_surges() {
        use duality_lab::{LabSpec, RunMode};
        let spec = LabSpec::parse_jsonl(S8_SPEC).unwrap();
        assert_eq!(spec.to_jsonl(), S8_SPEC, "committed spec is byte-stable");
        assert_eq!(spec.seed, 42, "specs pin the harness seed");
        assert!(matches!(spec.mode, RunMode::Autopilot(_)));
        assert_eq!(spec.run_cells(true).len(), 1, "smoke keeps one cell");

        let rows = s8_autopilot(6, true);
        for row in &rows {
            assert_eq!(
                row.value("completed"),
                row.value("jobs"),
                "{}: every phase completes its jobs",
                row.instance
            );
        }
        let by_phase = |p: &str| {
            rows.iter()
                .find(|r| r.instance.contains(p))
                .unwrap_or_else(|| panic!("phase {p}"))
        };
        let storm = by_phase("[storm]");
        assert!(storm.value("scale-ups").unwrap() >= 1.0, "storm surges");
        assert!(storm.value("workers-peak").unwrap() > storm.value("workers-start").unwrap());
        // Fast builds can drain the burst mid-storm, so the retire
        // decisions may land in the storm row rather than calm-out; the
        // elastic claim is that *somewhere* after the surge the fleet
        // stepped back down and ended calm-out on the floor.
        let downs: f64 = rows.iter().filter_map(|r| r.value("scale-downs")).sum();
        assert!(downs >= 1.0, "the surge is retired");
        let out = by_phase("[calm-out]");
        assert_eq!(out.value("workers-end"), Some(2.0), "retired to the floor");
        assert_eq!(by_phase("[static-peak]").value("workers-end"), Some(6.0));
    }

    #[test]
    fn s9_spec_is_canonical_and_sweeps_the_worker_axis() {
        use duality_lab::{LabSpec, RunMode};
        let spec = LabSpec::parse_jsonl(S9_SPEC).unwrap();
        assert_eq!(spec.to_jsonl(), S9_SPEC, "committed spec is byte-stable");
        assert_eq!(spec.seed, 42, "specs pin the harness seed");
        assert!(matches!(spec.mode, RunMode::Ramp(_)));

        let full = spec.run_cells(false);
        assert_eq!(
            full.iter().map(|c| c.workers).collect::<Vec<_>>(),
            [1, 2, 4, 8],
            "the full grid walks the worker axis"
        );
        assert!(
            full.iter().all(|c| c.shards == 2),
            "shards pinned so the sweep isolates the scheduler"
        );
        let smoke = spec.run_cells(true);
        assert_eq!(
            smoke.iter().map(|c| c.workers).collect::<Vec<_>>(),
            [1, 8],
            "smoke keeps the endpoints the efficiency ratio needs"
        );
        assert_eq!(spec.run_scenarios(true).len(), 2, "both presets in smoke");
    }

    #[test]
    fn s10_spec_is_canonical_and_reports_phases_and_bytes() {
        use duality_lab::{LabSpec, RunMode, SUBSTRATE_PHASES};
        let spec = LabSpec::parse_jsonl(S10_SPEC).unwrap();
        assert_eq!(spec.to_jsonl(), S10_SPEC, "committed spec is byte-stable");
        assert_eq!(spec.seed, 42, "specs pin the harness seed");
        assert!(matches!(spec.mode, RunMode::Memory(_)));
        assert_eq!(
            spec.run_scenarios(true).len(),
            2,
            "smoke keeps the small and medium rungs of the ramp"
        );

        let rows = s10_memory(6, true);
        for row in &rows {
            assert_eq!(
                row.value("completed"),
                row.value("jobs"),
                "{}: Block admission completes everything",
                row.instance
            );
            let split: f64 = SUBSTRATE_PHASES
                .iter()
                .filter_map(|p| row.value(&format!("phase-{p}-us")))
                .sum();
            assert_eq!(
                row.value("substrate-build-us"),
                Some(split),
                "{}: the phase split sums to the build total",
                row.instance
            );
            assert!(
                row.value("peak-resident-bytes") >= row.value("resident-bytes"),
                "{}: peak is a high-water mark",
                row.instance
            );
        }
        // The ramp's point: bigger instances, bigger pool footprint.
        let peak = |name: &str| {
            rows.iter()
                .filter(|r| r.instance.starts_with(name))
                .filter_map(|r| r.value("peak-resident-bytes"))
                .fold(0.0, f64::max)
        };
        assert!(
            peak("mem-medium") > peak("mem-small"),
            "the size ramp shows up in the byte gauges"
        );
    }

    #[test]
    fn s5_replay_is_bit_for_bit_serial_and_amortized() {
        let rows = s5_scenario_sweep(6, true);
        assert!(
            rows.iter()
                .map(|r| r.instance.split(',').next().unwrap().to_string())
                .collect::<std::collections::HashSet<_>>()
                .len()
                >= 4,
            "the sweep covers at least four preset scenarios"
        );
        for row in rows {
            assert_eq!(row.value("replay=serial"), Some(1.0), "{}", row.instance);
            assert_eq!(
                row.value("completed"),
                row.value("jobs"),
                "{}: deadline-free replays complete everything",
                row.instance
            );
            assert_eq!(
                row.value("engine-query"),
                row.value("serial-query"),
                "{}: marginal query rounds are config independent",
                row.instance
            );
            assert!(
                row.value("engine-substrate").unwrap() <= row.value("serial-substrate").unwrap(),
                "{}: pooling never bills more substrate than fresh solvers",
                row.instance
            );
        }
    }
}

/// S6 — the control plane operating a fleet through its lifecycle:
/// cold launch, worker scale-up under traffic, a storm derate with SLO
/// pressure, recovery with stray eviction, and a controller restart
/// from a hash-verified snapshot. Each phase is one declarative spec
/// push; the rows record how many observe/diff/execute rounds and
/// actions the reconciler needed and whether it converged — plus, for
/// the restart phase, whether the resumed controller reached the same
/// state and the snapshot round-trips byte-stably.
pub fn s6_control_plane(seed: u64, smoke: bool) -> Vec<Row> {
    use duality_control::{Action, FleetSpec, Reconciler, Slo, StateStore, TenantDecl};
    use duality_core::{InstanceKey, Query};
    use duality_service::AdmissionPolicy;
    use duality_workload::{FamilySpec, TenantRecord};
    use std::sync::Arc;

    let families: Vec<(&str, FamilySpec)> = if smoke {
        vec![
            ("grid", FamilySpec::DiagGrid { w: 4, h: 4 }),
            ("mesh", FamilySpec::Apollonian { n: 8 }),
            ("ring", FamilySpec::Outerplanar { n: 10, full: true }),
        ]
    } else {
        vec![
            ("grid", FamilySpec::DiagGrid { w: 7, h: 6 }),
            ("mesh", FamilySpec::Apollonian { n: 24 }),
            ("ring", FamilySpec::Outerplanar { n: 30, full: true }),
            (
                "sparse",
                FamilySpec::SparseGrid {
                    w: 6,
                    h: 6,
                    target_m: 70,
                },
            ),
        ]
    };
    let surge_workers = if smoke { 2 } else { 4 };
    let spec = FleetSpec {
        name: "s6-fleet".into(),
        revision: 1,
        workers: 1,
        shards: 2,
        queue_capacity: 64,
        pool_capacity: 16,
        admission: AdmissionPolicy::Block,
        tenants: families
            .iter()
            .enumerate()
            .map(|(i, (name, family))| TenantDecl {
                name: (*name).to_string(),
                record: TenantRecord {
                    family: *family,
                    cap_range: (1, 9),
                    weight_range: (1, 9),
                    graph_seed: seed + i as u64,
                    cap_seed: seed + 100 + i as u64,
                    weight_seed: seed + 200 + i as u64,
                },
                prewarm: true,
                derate_percent: 100,
                slo: None,
            })
            .collect(),
    };
    let store_path = std::env::temp_dir().join(format!(
        "duality-bench-s6-{seed}-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store_path);

    let mut rows = Vec::new();
    let mut phase =
        |name: &str, tenant0: &Arc<duality_core::PlanarInstance>, values: Vec<(String, f64)>| {
            rows.push(Row {
                experiment: "S6".into(),
                instance: format!("{name}, {} tenants", families.len()),
                n: tenant0.n(),
                d: tenant0.graph().diameter(),
                values,
            });
        };
    let count = |report: &duality_control::ConvergenceReport, pick: fn(&Action) -> bool| {
        report.actions.iter().filter(|a| pick(a)).count() as f64
    };
    let traffic = |fleet: &Reconciler| {
        for (name, _) in &families {
            let i = Arc::clone(fleet.instance(name).expect("spec'd tenant"));
            let t = i.n() - 1;
            fleet
                .engine()
                .run(&i, Query::MaxFlow { s: 0, t })
                .expect("fleet serves");
            fleet.engine().run(&i, Query::Girth).expect("fleet serves");
        }
    };

    // Phase 1 — cold launch: empty engine to fully warmed roster.
    let mut fleet = Reconciler::launch(spec).expect("valid spec");
    fleet.attach_store(StateStore::new(store_path.clone()));
    let report = fleet.reconcile().expect("reconcile runs");
    let obs = fleet.observe();
    let tenant0 = Arc::clone(fleet.instance(families[0].0).unwrap());
    phase(
        "cold-launch",
        &tenant0,
        vec![
            ("converged".into(), f64::from(u8::from(report.converged))),
            ("rounds".into(), report.rounds as f64),
            ("actions".into(), report.actions.len() as f64),
            (
                "prewarms".into(),
                count(&report, |a| matches!(a, Action::PrewarmTenant { .. })),
            ),
            (
                "resident".into(),
                obs.tenants.iter().filter(|t| t.resident).count() as f64,
            ),
            ("workers".into(), obs.workers_live as f64),
        ],
    );

    // Phase 2 — scale-up: surge the worker fleet under live traffic.
    traffic(&fleet);
    let mut surge = fleet.spec().clone();
    surge.revision += 1;
    surge.workers = surge_workers;
    let report = fleet.push(surge).expect("push converges");
    phase(
        "scale-up",
        &tenant0,
        vec![
            ("converged".into(), f64::from(u8::from(report.converged))),
            ("rounds".into(), report.rounds as f64),
            ("actions".into(), report.actions.len() as f64),
            ("workers".into(), fleet.engine().metrics().workers as f64),
            (
                "completed".into(),
                fleet.engine().metrics().completed as f64,
            ),
        ],
    );

    // Phase 3 — storm: derate every region to 40% through the COW
    // respec path, under an unsatisfiably tight p99 SLO so the pass
    // *reports* violations while still converging.
    let mut storm = fleet.spec().clone();
    storm.revision += 1;
    for t in &mut storm.tenants {
        t.derate_percent = 40;
    }
    storm.tenants[0].slo = Some(Slo {
        max_p99_us: Some(1),
        max_queue_depth: None,
    });
    let report = fleet.push(storm).expect("push converges");
    traffic(&fleet);
    let pool = fleet.engine().pool_stats();
    phase(
        "storm-derate",
        &tenant0,
        vec![
            ("converged".into(), f64::from(u8::from(report.converged))),
            ("rounds".into(), report.rounds as f64),
            ("actions".into(), report.actions.len() as f64),
            (
                "derates".into(),
                count(&report, |a| matches!(a, Action::DerateRegion { .. })),
            ),
            ("slo-violations".into(), report.slo_violations as f64),
            ("respec-reuses".into(), pool.respec_reuses as f64),
        ],
    );

    // Phase 4 — recovery: restore full capacity, drop the last tenant,
    // flip admission. The derated solvers become strays and are evicted.
    let mut recover = fleet.spec().clone();
    recover.revision += 1;
    recover.tenants.pop();
    for t in &mut recover.tenants {
        t.derate_percent = 100;
        t.slo = None;
    }
    recover.admission = AdmissionPolicy::Reject;
    let report = fleet.push(recover).expect("push converges");
    let obs = fleet.observe();
    phase(
        "recover-evict",
        &tenant0,
        vec![
            ("converged".into(), f64::from(u8::from(report.converged))),
            ("rounds".into(), report.rounds as f64),
            ("actions".into(), report.actions.len() as f64),
            (
                "evictions".into(),
                count(&report, |a| matches!(a, Action::EvictTenant { .. })),
            ),
            (
                "resident".into(),
                obs.tenants.iter().filter(|t| t.resident).count() as f64,
            ),
        ],
    );

    // Phase 5 — restart: shut the controller down, resume a new one
    // from the snapshot alone, and verify it converges to the same
    // state (same desired keys, same warm set) from a byte-stable file.
    let keys_before: Vec<(String, InstanceKey, bool)> = obs
        .tenants
        .iter()
        .map(|t| (t.name.clone(), t.desired_key, t.resident))
        .collect();
    fleet.shutdown();
    let text = std::fs::read_to_string(&store_path).expect("snapshot written");
    let byte_stable = duality_control::Snapshot::parse_jsonl(&text)
        .expect("snapshot verifies")
        .to_jsonl()
        == text;
    let mut resumed =
        Reconciler::resume(StateStore::new(store_path.clone())).expect("snapshot resumes");
    let report = resumed.reconcile().expect("reconcile runs");
    let obs = resumed.observe();
    let keys_after: Vec<(String, InstanceKey, bool)> = obs
        .tenants
        .iter()
        .map(|t| (t.name.clone(), t.desired_key, t.resident))
        .collect();
    let state_match = keys_after == keys_before && obs.workers_live == surge_workers;
    phase(
        "snapshot-restart",
        &tenant0,
        vec![
            ("converged".into(), f64::from(u8::from(report.converged))),
            ("rounds".into(), report.rounds as f64),
            ("actions".into(), report.actions.len() as f64),
            ("state-match".into(), f64::from(u8::from(state_match))),
            ("byte-stable".into(), f64::from(u8::from(byte_stable))),
        ],
    );
    resumed.shutdown();
    let _ = std::fs::remove_file(&store_path);
    rows
}

#[cfg(test)]
mod control_tests {
    use super::*;

    #[test]
    fn s6_every_phase_converges_and_restart_matches() {
        let rows = s6_control_plane(6, true);
        assert_eq!(rows.len(), 5, "five lifecycle phases");
        for row in &rows {
            assert_eq!(row.value("converged"), Some(1.0), "{}", row.instance);
        }
        let by_phase = |p: &str| {
            rows.iter()
                .find(|r| r.instance.starts_with(p))
                .unwrap_or_else(|| panic!("phase {p}"))
        };
        assert!(by_phase("cold-launch").value("prewarms").unwrap() >= 3.0);
        assert!(by_phase("scale-up").value("workers").unwrap() >= 2.0);
        let storm = by_phase("storm-derate");
        assert!(storm.value("derates").unwrap() >= 3.0);
        assert!(
            storm.value("slo-violations").unwrap() > 0.0,
            "the tight SLO reports violations"
        );
        assert!(
            storm.value("respec-reuses").unwrap() >= 1.0,
            "derates ride the respec-donor path"
        );
        assert!(by_phase("recover-evict").value("evictions").unwrap() >= 1.0);
        let restart = by_phase("snapshot-restart");
        assert_eq!(restart.value("state-match"), Some(1.0));
        assert_eq!(restart.value("byte-stable"), Some(1.0));
    }
}

/// T6 — calibration of the charged cost formulas against the *executed*
/// message-passing runtime: BFS flooding and pipelined tree broadcast are
/// run as real vertex programs and their exact round counts are compared
/// with the `CostModel` arithmetic used throughout the workspace.
pub fn t6_runtime_calibration(seed: u64) -> Vec<Row> {
    use duality_congest::runtime::{run, BfsProgram, PipelinedBroadcast};
    let mut rows = Vec::new();
    for (name, g) in [
        ("grid 9x5".to_string(), gen::grid(9, 5).unwrap()),
        (
            "diag-grid 8x6".to_string(),
            gen::diag_grid(8, 6, seed).unwrap(),
        ),
        (
            "apollonian 40".to_string(),
            gen::apollonian(40, seed).unwrap(),
        ),
    ] {
        let (cm, d) = cm_of(&g);
        let exec = run(&g, &BfsProgram { root: 0 }, 10_000);
        let charged_bfs = cm.bfs(g.eccentricity(0));
        let (parent, depth) = g.bfs(0);
        let words: Vec<u64> = (0..25).collect();
        let bexec = run(
            &g,
            &PipelinedBroadcast {
                root: 0,
                parent: &parent,
                words: &words,
            },
            10_000,
        );
        let charged_bcast = cm.broadcast(
            depth
                .iter()
                .copied()
                .filter(|&x| x != usize::MAX)
                .max()
                .unwrap(),
            words.len() as u64,
        );
        rows.push(Row {
            experiment: "T6".into(),
            instance: name,
            n: g.num_vertices(),
            d,
            values: vec![
                ("bfs-executed".into(), exec.rounds as f64),
                ("bfs-charged".into(), charged_bfs as f64),
                ("bcast-executed".into(), bexec.rounds as f64),
                ("bcast-charged".into(), charged_bcast as f64),
            ],
        });
    }
    rows
}

#[cfg(test)]
mod calibration_tests {
    use super::*;

    #[test]
    fn executed_rounds_within_one_of_charged() {
        for row in t6_runtime_calibration(4) {
            let eb = row.value("bfs-executed").unwrap();
            let cb = row.value("bfs-charged").unwrap();
            assert!((eb - cb).abs() <= 1.0, "{}: bfs {eb} vs {cb}", row.instance);
            let ex = row.value("bcast-executed").unwrap();
            let cx = row.value("bcast-charged").unwrap();
            assert!(
                (ex - cx).abs() <= 2.0,
                "{}: bcast {ex} vs {cx}",
                row.instance
            );
        }
    }
}
