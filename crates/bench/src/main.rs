//! `experiments` — regenerates every paper table of `EXPERIMENTS.md`,
//! and fronts the lab subsystem's spec/gate/report tooling.
//!
//! Usage:
//!
//! * `experiments [ids...]` — run the paper's T/F/A tables (default:
//!   all). Unknown ids exit 2. Markdown tables go to stdout; raw rows to
//!   `experiments.json`.
//! * `experiments run <spec-file> [--smoke] [--seed N] [--out FILE]` —
//!   run one declarative lab spec (`experiments/*.lab.jsonl`, the
//!   serving-stack S-series) and write its envelope (default
//!   `BENCH_<NAME>.json`).
//! * `experiments compare <committed> <fresh> | --smoke` — the
//!   regression gate: diff two envelopes row by row (or run the
//!   committed specs' smoke sweeps in-process and gate them against
//!   `smoke/BENCH_S*.json`). Exits 1 on regression.
//!   `--tol-throughput P` / `--tol-p99 P` override the default
//!   tolerances.
//! * `experiments report [files...] [--out FILE]` — render committed
//!   envelopes into the trajectory report (default
//!   `BENCH_TRAJECTORY.md` from all `BENCH_S*.json` in the cwd).
//! * `experiments trace <spec-file> [--smoke] [--seed N] [--out FILE]`
//!   — run a spec's scenarios through a span-wired engine and write the
//!   individual profiling spans (substrate build phases + job
//!   lifecycles) as a chrome://tracing / Perfetto `trace.json`.
//! * `experiments dashboard [files...] [--out FILE]` — render committed
//!   envelopes plus a live telemetry snapshot into the self-contained
//!   `BENCH_DASHBOARD.html` (default: all `BENCH_S*.json` in the cwd).

use duality_bench::experiments;
use duality_lab::{compare, render_trajectory, EnvRow, Envelope, LabSpec, Tolerances};

/// A paper table: id, title, and the function computing its rows from
/// the harness seed.
type Table = (&'static str, &'static str, fn(u64) -> Vec<EnvRow>);

/// The paper's tables in print order: id validation, the usage listing
/// and dispatch all read this one list.
const TABLES: [Table; 13] = [
    (
        "t1",
        "correctness of all five theorems vs centralized references",
        experiments::t1_correctness,
    ),
    (
        "f1",
        "exact max-flow rounds vs diameter (Õ(D²), Thm 1.2)",
        |s| experiments::f1_flow_rounds_vs_d(&[8, 12, 16, 20, 24, 28], s),
    ),
    (
        "f2",
        "exact max-flow rounds vs n at fixed diameter (no √n term)",
        experiments::f2_flow_rounds_vs_n,
    ),
    (
        "f3",
        "weighted-girth rounds vs diameter (Õ(D), Thm 1.7)",
        |s| experiments::f3_girth_rounds_vs_d(700, s),
    ),
    (
        "t2",
        "approximate st-planar flow quality vs ε (Thm 1.3)",
        experiments::t2_approx_quality,
    ),
    (
        "f4",
        "directed global min cut: rounds vs diameter + correctness (Thm 1.5)",
        |s| experiments::f4_global_cut(&[8, 12, 16, 20], s),
    ),
    (
        "f5",
        "distance-label sizes vs diameter (Õ(D) words, Lemma 5.17)",
        |s| experiments::f5_label_sizes(&[8, 12, 16, 20, 24, 28], s),
    ),
    (
        "t4",
        "BDD structure: depth, face-parts, |F_X|, |S_X| (Thm 5.2)",
        experiments::t4_bdd_stats,
    ),
    (
        "f6",
        "measured rounds vs prior-work bounds (de Vos, GKKLP)",
        experiments::f6_prior_comparison,
    ),
    (
        "t6",
        "calibration: executed message-passing rounds vs charged formulas",
        experiments::t6_runtime_calibration,
    ),
    (
        "a1",
        "ablation: BDD leaf threshold (design choice)",
        experiments::a1_leaf_threshold_ablation,
    ),
    (
        "a2",
        "ablation: one-off setup vs per-probe labeling cost",
        experiments::a2_probe_cost_split,
    ),
    (
        "t5",
        "dual-simulation substrate: Ĝ diameter and MA round cost (§4)",
        experiments::t5_overlay_stats,
    ),
];

/// The committed specs the smoke gate reruns, each against its
/// `smoke/BENCH_<NAME>.json` baseline.
const GATED_SPECS: [&str; 5] = [
    "experiments/s5-replay.lab.jsonl",
    "experiments/s7-saturation.lab.jsonl",
    "experiments/s8-autopilot.lab.jsonl",
    "experiments/s9-stealing.lab.jsonl",
    "experiments/s10-memory.lab.jsonl",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("dashboard") => cmd_dashboard(&args[1..]),
        _ => cmd_tables(&args),
    };
    std::process::exit(code);
}

/// `experiments [ids...]`.
fn cmd_tables(args: &[String]) -> i32 {
    let known: Vec<&str> = TABLES.iter().map(|(id, _, _)| *id).collect();
    let mut bad = false;
    for a in args {
        if !known.iter().any(|id| a.eq_ignore_ascii_case(id)) {
            eprintln!("unknown experiment id `{a}` (known: {})", known.join(" "));
            bad = true;
        }
    }
    if bad {
        return 2;
    }
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(id));
    let seed = 42;
    let mut all: Vec<EnvRow> = Vec::new();
    for (id, title, run) in &TABLES {
        if !want(id) {
            continue;
        }
        println!("\n## {} — {title}\n", id.to_uppercase());
        let rows = run(seed);
        print_table(&rows);
        all.extend(rows);
    }
    let body: Vec<String> = all.iter().map(|r| format!("  {}", r.to_json())).collect();
    std::fs::write("experiments.json", format!("[\n{}\n]\n", body.join(",\n")))
        .expect("writable cwd");
    eprintln!("\nwrote {} rows to experiments.json", all.len());
    0
}

fn print_table(rows: &[EnvRow]) {
    println!("| id | instance | n | D | measurements |");
    println!("|----|----------|---|---|--------------|");
    for r in rows {
        println!("{}", r.markdown());
    }
}

/// `experiments run <spec-file> [--smoke] [--seed N] [--out FILE]`.
fn cmd_run(args: &[String]) -> i32 {
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed = match seed_flag(args) {
        Ok(seed) => seed,
        Err(code) => return code,
    };
    let out = flag_value(args, "--out").map(String::from);
    let Some(path) = positional(args).first().copied() else {
        eprintln!("usage: experiments run <spec-file> [--smoke] [--seed N] [--out FILE]");
        return 2;
    };
    let envelope = match run_spec_file(path, smoke, seed) {
        Ok(e) => e,
        Err(code) => return code,
    };
    println!("\n## {} — {path}\n", envelope.experiment);
    print_table(&envelope.rows);
    let artifact = out.unwrap_or_else(|| format!("BENCH_{}.json", envelope.experiment));
    std::fs::write(&artifact, envelope.to_json()).expect("writable artifact path");
    eprintln!("wrote {} rows to {artifact}", envelope.rows.len());
    0
}

/// `experiments compare <committed> <fresh> | --smoke`.
fn cmd_compare(args: &[String]) -> i32 {
    let mut tol = Tolerances::default();
    if let Some(v) = flag_value(args, "--tol-throughput") {
        match v.parse() {
            Ok(p) => tol.max_throughput_drop_percent = p,
            Err(_) => {
                eprintln!("--tol-throughput takes a percentage");
                return 2;
            }
        }
    }
    if let Some(v) = flag_value(args, "--tol-p99") {
        match v.parse() {
            Ok(p) => tol.max_p99_growth_percent = p,
            Err(_) => {
                eprintln!("--tol-p99 takes a percentage");
                return 2;
            }
        }
    }
    let pairs: Vec<(Envelope, Envelope)> = if args.iter().any(|a| a == "--smoke") {
        match smoke_pairs() {
            Ok(pairs) => pairs,
            Err(code) => return code,
        }
    } else {
        let paths = positional(args);
        let [committed, fresh] = paths.as_slice() else {
            eprintln!(
                "usage: experiments compare <committed> <fresh> | --smoke \
                 [--tol-throughput P] [--tol-p99 P]"
            );
            return 2;
        };
        let (a, b) = match (read_envelope(committed), read_envelope(fresh)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(code), _) | (_, Err(code)) => return code,
        };
        vec![(a, b)]
    };
    let mut failed = false;
    for (committed, fresh) in &pairs {
        println!("## {} — committed vs fresh", committed.experiment);
        match compare::compare(committed, fresh, &tol) {
            Ok(report) => {
                print!("{}", report.render());
                failed |= !report.passed();
            }
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    }
    i32::from(failed)
}

/// `experiments report [files...] [--out FILE]`.
fn cmd_report(args: &[String]) -> i32 {
    let out = flag_value(args, "--out").unwrap_or("BENCH_TRAJECTORY.md");
    let envelopes = match read_envelopes(args) {
        Ok(e) => e,
        Err(code) => return code,
    };
    if envelopes.is_empty() {
        eprintln!("no BENCH_S*.json artifacts found");
        return 1;
    }
    std::fs::write(out, render_trajectory(&envelopes)).expect("writable report path");
    eprintln!("rendered {} envelope(s) to {out}", envelopes.len());
    0
}

/// `experiments trace <spec-file> [--smoke] [--seed N] [--out FILE]`.
fn cmd_trace(args: &[String]) -> i32 {
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed = match seed_flag(args) {
        Ok(seed) => seed,
        Err(code) => return code,
    };
    let out = flag_value(args, "--out").unwrap_or("trace.json");
    let Some(path) = positional(args).first().copied() else {
        eprintln!("usage: experiments trace <spec-file> [--smoke] [--seed N] [--out FILE]");
        return 2;
    };
    let spec = match read_spec(path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let slices = match duality_lab::capture_trace(&spec, smoke, seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tracing `{path}` failed: {e}");
            return 1;
        }
    };
    std::fs::write(out, duality_lab::to_chrome_json(&slices)).expect("writable trace path");
    eprintln!(
        "wrote {} slices to {out} (open in chrome://tracing or ui.perfetto.dev)",
        slices.len()
    );
    0
}

/// `experiments dashboard [files...] [--out FILE]`.
fn cmd_dashboard(args: &[String]) -> i32 {
    let out = flag_value(args, "--out").unwrap_or("BENCH_DASHBOARD.html");
    let envelopes = match read_envelopes(args) {
        Ok(e) => e,
        Err(code) => return code,
    };
    let snapshot = live_fleet_snapshot();
    std::fs::write(
        out,
        duality_lab::render_dashboard(&envelopes, Some(&snapshot)),
    )
    .expect("writable dashboard path");
    eprintln!("rendered {} envelope(s) to {out}", envelopes.len());
    0
}

/// A small in-process engine burst, so the dashboard's live-fleet
/// section (memory gauges, phase profile, per-tenant attribution) shows
/// the current build's behavior rather than canned numbers.
fn live_fleet_snapshot() -> duality_telemetry::TelemetrySnapshot {
    use duality_core::{PlanarInstance, Query};
    use duality_planar::gen;

    let telemetry = duality_telemetry::Telemetry::new(256);
    let engine = duality_service::ServiceEngine::builder()
        .workers(2)
        .shards(2)
        .span_sink(telemetry.sink())
        .build()
        .expect("fleet config is static");
    for (i, name) in ["alpha", "beta", "gamma"].iter().enumerate() {
        let side = 4 + i;
        let seed = 7 + i as u64;
        let g = gen::diag_grid(side, side, seed).expect("static grid dims");
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, seed);
        let instance = PlanarInstance::new(g, Some(caps), None).expect("static instance");
        telemetry.name_tenant(&instance, name);
        let t = side * side - 1;
        // All three queries together touch every substrate phase:
        // max-flow (embed/dual/bdd), girth (dual), global cut
        // (weight-tier/labeling).
        for query in [
            Query::MaxFlow { s: 0, t },
            Query::Girth,
            Query::GlobalMinCut,
        ] {
            let _ = engine.run(&instance, query);
        }
    }
    let metrics = engine.shutdown();
    telemetry.set_pool_bytes(
        metrics.resident_bytes(),
        metrics.peak_resident_bytes(),
        metrics.evicted_bytes(),
    );
    telemetry.snapshot()
}

/// Gate mode: runs every gated spec's smoke sweep in-process and pairs
/// it with its committed smoke baseline.
fn smoke_pairs() -> Result<Vec<(Envelope, Envelope)>, i32> {
    GATED_SPECS
        .iter()
        .map(|path| {
            let fresh = run_spec_file(path, true, None)?;
            let committed = read_envelope(&format!("smoke/BENCH_{}.json", fresh.experiment))?;
            Ok((committed, fresh))
        })
        .collect()
}

/// Runs the lab spec at `path` into its envelope.
fn run_spec_file(path: &str, smoke: bool, seed: Option<u64>) -> Result<Envelope, i32> {
    let spec = read_spec(path)?;
    let rows = duality_lab::run_spec(&spec, smoke, seed).map_err(|e| {
        eprintln!("running `{path}` failed: {e}");
        1
    })?;
    Ok(Envelope::from_rows(
        &spec.name,
        seed.unwrap_or(spec.seed),
        smoke,
        rows,
    ))
}

fn read_spec(path: &str) -> Result<LabSpec, i32> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read `{path}`: {e}");
        1
    })?;
    LabSpec::parse_jsonl(&text).map_err(|e| {
        eprintln!("`{path}`: {e}");
        1
    })
}

fn read_envelope(path: &str) -> Result<Envelope, i32> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read `{path}`: {e}");
        1
    })?;
    Envelope::parse(&text).map_err(|e| {
        eprintln!("`{path}`: {e}");
        1
    })
}

/// The envelopes named on the command line; by default every committed
/// `BENCH_S*.json` artifact in the cwd.
fn read_envelopes(args: &[String]) -> Result<Vec<Envelope>, i32> {
    let mut paths: Vec<String> = positional(args).iter().map(|s| s.to_string()).collect();
    if paths.is_empty() {
        paths = std::fs::read_dir(".")
            .map(|dir| {
                dir.filter_map(|e| e.ok())
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .filter(|name| name.starts_with("BENCH_S") && name.ends_with(".json"))
                    .collect()
            })
            .unwrap_or_default();
        paths.sort();
    }
    paths.iter().map(|path| read_envelope(path)).collect()
}

/// The `--seed N` value, if given.
fn seed_flag(args: &[String]) -> Result<Option<u64>, i32> {
    flag_value(args, "--seed")
        .map(|v| {
            v.parse::<u64>().map_err(|_| {
                eprintln!("--seed takes an unsigned integer");
                2
            })
        })
        .transpose()
}

/// The value following `flag`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Arguments that are neither flags nor flag values.
fn positional(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a == "--smoke" {
            continue;
        }
        if a.starts_with("--") {
            skip = true;
            continue;
        }
        out.push(a.as_str());
    }
    out
}
