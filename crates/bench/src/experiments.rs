//! One function per paper table of `DESIGN.md` §4 / `EXPERIMENTS.md`
//! (the T/F/A experiments). The serving-stack S-series are lab specs
//! under `experiments/`, run by `experiments run <spec>`; the tests at
//! the end of this file check the committed ones.

use crate::workloads::{self, Instance};
use duality_baselines::{cuts, flow as bflow, girth as bgirth, prior};
use duality_congest::{CostLedger, CostModel};
use duality_core::PlanarSolver;
use duality_lab::EnvRow;
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
pub fn t1_correctness(seed: u64) -> Vec<EnvRow> {
    let mut rows = Vec::new();
    for Instance { name, graph: g } in workloads::correctness_suite(seed) {
        let (_, d) = cm_of(&g);
        let n = g.num_vertices();
        let mut push = |algo: &str, ok: bool, rounds: f64| {
            rows.push(EnvRow {
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
pub fn f1_flow_rounds_vs_d(sides: &[usize], seed: u64) -> Vec<EnvRow> {
    let mut rows = Vec::new();
    for Instance { name, graph: g } in workloads::square_sweep(sides, seed) {
        let (_, d) = cm_of(&g);
        let caps = gen::random_directed_capacities(g.num_edges(), 1, 8, seed + 3);
        let r = cap_solver(&g, &caps)
            .max_flow(0, g.num_vertices() - 1)
            .unwrap();
        let rounds = r.rounds.total() as f64;
        rows.push(EnvRow {
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
pub fn f2_flow_rounds_vs_n(seed: u64) -> Vec<EnvRow> {
    let mut rows = Vec::new();
    for Instance { name, graph: g } in workloads::size_sweep(4, &[20, 30, 45, 60, 80], seed) {
        let (_, d) = cm_of(&g);
        let caps = gen::random_directed_capacities(g.num_edges(), 1, 8, seed + 5);
        let r = cap_solver(&g, &caps)
            .max_flow(0, g.num_vertices() - 1)
            .unwrap();
        let rounds = r.rounds.total() as f64;
        rows.push(EnvRow {
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
pub fn f3_girth_rounds_vs_d(target_n: usize, seed: u64) -> Vec<EnvRow> {
    let mut rows = Vec::new();
    for Instance { name, graph: g } in workloads::diameter_sweep(target_n, seed) {
        let (_, d) = cm_of(&g);
        let w = gen::random_edge_weights(g.num_edges(), 1, 50, seed + 7);
        let rounds = weight_solver(&g, &w).girth().unwrap().rounds.total() as f64;
        rows.push(EnvRow {
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
pub fn t2_approx_quality(seed: u64) -> Vec<EnvRow> {
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
        rows.push(EnvRow {
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
pub fn f4_global_cut(sides: &[usize], seed: u64) -> Vec<EnvRow> {
    let mut rows = Vec::new();
    for Instance { name, graph: g } in workloads::square_sweep(sides, seed) {
        let (_, d) = cm_of(&g);
        let w = gen::random_edge_weights(g.num_edges(), 1, 30, seed + 19);
        let r = weight_solver(&g, &w).global_min_cut().unwrap();
        let ok = Some(r.value) == cuts::planar_directed_min_cut_reference(&g, &w);
        let rounds = r.rounds.total() as f64;
        rows.push(EnvRow {
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
pub fn f5_label_sizes(sides: &[usize], seed: u64) -> Vec<EnvRow> {
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
        rows.push(EnvRow {
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
pub fn t4_bdd_stats(seed: u64) -> Vec<EnvRow> {
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
        rows.push(EnvRow {
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
pub fn f6_prior_comparison(seed: u64) -> Vec<EnvRow> {
    f2_flow_rounds_vs_n(seed)
        .into_iter()
        .map(|row| {
            let rounds = row.value("rounds").unwrap();
            let de_vos = prior::de_vos_planar_flow_rounds(row.n, row.d) as f64;
            let gkklp = prior::gkklp_general_flow_rounds(row.n, row.d) as f64;
            EnvRow {
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
pub fn t5_overlay_stats(seed: u64) -> Vec<EnvRow> {
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
        rows.push(EnvRow {
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
}

/// A1 — ablation of the BDD leaf threshold (the design choice `DESIGN.md`
/// calls out): tiny leaves deepen the decomposition and pay more broadcast
/// levels; huge leaves degenerate to broadcasting the whole dual. The
/// paper's `Θ(D)` default sits between the regimes.
pub fn a1_leaf_threshold_ablation(seed: u64) -> Vec<EnvRow> {
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
        rows.push(EnvRow {
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
pub fn a2_probe_cost_split(seed: u64) -> Vec<EnvRow> {
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
        rows.push(EnvRow {
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

/// T6 — calibration of the charged cost formulas against the *executed*
/// message-passing runtime: BFS flooding and pipelined tree broadcast are
/// run as real vertex programs and their exact round counts are compared
/// with the `CostModel` arithmetic used throughout the workspace.
pub fn t6_runtime_calibration(seed: u64) -> Vec<EnvRow> {
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
        rows.push(EnvRow {
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

/// The committed lab specs behind the serving-stack experiments S5, S7
/// and S10 (`experiments run experiments/<spec>.lab.jsonl`): their shape,
/// and the contracts of their smoke runs.
#[cfg(test)]
mod spec_tests {
    use duality_lab::{run_spec, EnvRow, LabSpec, RunMode, SUBSTRATE_PHASES};

    const S5_SPEC: &str = include_str!("../../../experiments/s5-replay.lab.jsonl");
    const S7_SPEC: &str = include_str!("../../../experiments/s7-saturation.lab.jsonl");
    const S10_SPEC: &str = include_str!("../../../experiments/s10-memory.lab.jsonl");

    /// Parses a committed spec, which must be canonical and pin the
    /// harness seed.
    fn committed(text: &str) -> LabSpec {
        let spec = LabSpec::parse_jsonl(text).unwrap();
        assert_eq!(spec.to_jsonl(), text, "committed spec is byte-stable");
        assert_eq!(spec.seed, 42, "specs pin the harness seed");
        spec
    }

    /// The smoke run of `spec` at a seed other than the committed one.
    fn smoke_rows(spec: &LabSpec) -> Vec<EnvRow> {
        run_spec(spec, true, Some(6)).unwrap()
    }

    #[test]
    fn committed_specs_are_canonical_and_smoke_scaled() {
        for text in [S5_SPEC, S7_SPEC] {
            let spec = committed(text);
            assert!(
                spec.run_scenarios(true).len() >= 4,
                "smoke keeps the acceptance floor of four scenarios"
            );
            assert_eq!(spec.run_cells(true).len(), 3, "smoke grid is CI-sized");
            assert_eq!(spec.run_cells(false).len(), 9, "full grid is 3x3");
        }
        assert!(matches!(committed(S5_SPEC).mode, RunMode::Replay));
        assert!(matches!(committed(S7_SPEC).mode, RunMode::Ramp(_)));
    }

    #[test]
    fn memory_spec_is_canonical_and_reports_phases_and_bytes() {
        let spec = committed(S10_SPEC);
        assert!(matches!(spec.mode, RunMode::Memory(_)));
        assert_eq!(
            spec.run_scenarios(true).len(),
            2,
            "smoke keeps the small and medium rungs of the ramp"
        );

        let rows = smoke_rows(&spec);
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
    fn replay_spec_is_bit_for_bit_serial_and_amortized() {
        let rows = smoke_rows(&committed(S5_SPEC));
        assert!(
            rows.iter()
                .map(EnvRow::scenario)
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
