//! `flowbench`: the end-to-end and per-layer benchmark of the duality
//! stack — solver, pool, scheduler, serving engine and telemetry.
//!
//! ```text
//! flowbench --workload <flow-read|respec-write|fleet-serve|all>
//!           [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! flowbench --self-test
//! ```
//!
//! One run sets up its workload (several times; the median is
//! `setup_s`), runs a fixed op count sized to last about `--seconds`,
//! checks every output against a centralized reference outside the
//! timed phase, and prints one JSON result as its last line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
//! run with `--trace 1`. `--workload all` runs every workload in its own
//! process; `--self-test` runs all of them at smoke size and checks that
//! every metric of `BENCHMARK.json` is printed with its unit.

mod fleet_serve;
mod flow_read;
mod harness;
mod layers;
mod respec_write;
mod serve;
mod tenants;
mod util;

use harness::{Args, RunOutput, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};
use util::{json_num, json_str, Json};

const WORKLOADS: &[&str] = &["flow-read", "respec-write", "fleet-serve"];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--self-test") {
        return self_test();
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("flowbench: {e}");
            eprintln!(
                "usage: flowbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let out = match args.workload.as_str() {
        "flow-read" => flow_read::run(&args),
        "respec-write" => respec_write::run(&args),
        _ => fleet_serve::run(&args),
    };
    print_result(&args, &out);
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "flowbench: {} of {} ops failed their output check",
            out.failed, out.attempted
        );
        ExitCode::FAILURE
    }
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Prints the notes and a metric table, then the JSON result line.
fn print_result(args: &Args, out: &RunOutput) {
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "# {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for &(name, unit) in table {
        println!("#   {name:<36} {:>16.6} {unit}", out.metrics[name]);
    }
    println!(
        "{}",
        result_line(
            out.correct,
            out.attempted,
            out.failed,
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u, out.metrics[n]))
        )
    );
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (String, &'static str, f64)>,
) -> String {
    let body: Vec<String> = metrics
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&name),
                json_num(v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Runs one workload in a child process of this executable, echoing its
/// output, and returns its parsed result line.
fn run_child(args: &Args, workload: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if args.trace { "1" } else { "0" },
    ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines() {
        println!("{line}");
    }
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload}: exited with {}", out.status));
    }
    Ok(result)
}

/// `--workload all`: every workload in its own process (so no workload's
/// set-up or memory leaks into another's), then one combined result
/// line with `<workload>/<metric>` names.
fn run_all(args: &Args) -> ExitCode {
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for &w in WORKLOADS {
        match run_child(args, w) {
            Ok(result) => {
                correct &= result.get("correct") == Some(&Json::Bool(true));
                attempted += result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0) as u64;
                failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                for &(name, unit) in table {
                    let v = result
                        .get("metrics")
                        .and_then(|m| m.get(name))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0);
                    metrics.push((format!("{w}/{name}"), unit, v));
                }
            }
            Err(e) => {
                eprintln!("flowbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{}",
        result_line(correct, attempted, failed, metrics.into_iter())
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload at smoke size, untraced and traced, and checks
/// each result line: exactly the four keys, every metric of the run's
/// table with its unit, `ok_share` of 1, and the tables equal to
/// `BENCHMARK.json` when it is present in the working directory.
fn self_test() -> ExitCode {
    let mut problems = Vec::new();
    if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
        match Json::parse(&text) {
            Ok(spec) => problems.extend(check_spec(&spec)),
            Err(e) => problems.push(format!("BENCHMARK.json: {e}")),
        }
    } else {
        println!("# self-test: no BENCHMARK.json in the working directory; tables unchecked");
    }
    for trace in [false, true] {
        let table = if trace { PER_LAYER } else { END_TO_END };
        for &w in WORKLOADS {
            let args = Args {
                workload: w.to_string(),
                seed: 7,
                seconds: 1.0,
                trace,
                smoke: true,
            };
            let result = match run_child(&args, w) {
                Ok(r) => r,
                Err(e) => {
                    problems.push(e);
                    continue;
                }
            };
            let keys: Vec<&str> = match &result {
                Json::Obj(map) => map.keys().map(String::as_str).collect(),
                _ => Vec::new(),
            };
            if keys != ["attempted", "correct", "failed", "metrics"] {
                problems.push(format!("{w}: result keys {keys:?}"));
            }
            let printed = match result.get("metrics") {
                Some(Json::Obj(m)) => m.len(),
                _ => 0,
            };
            if printed != table.len() {
                problems.push(format!("{w}: {printed} metrics, expected {}", table.len()));
            }
            for &(name, unit) in table {
                let m = result.get("metrics").and_then(|m| m.get(name));
                let got_unit = m.and_then(|m| m.get("unit")).and_then(Json::as_str);
                let value = m.and_then(|m| m.get("value")).and_then(Json::as_f64);
                if got_unit != Some(unit) || value.is_none() {
                    problems.push(format!("{w}: metric {name} missing or not in {unit}"));
                }
            }
            if !trace {
                let ok = result
                    .get("metrics")
                    .and_then(|m| m.get("ok_share"))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64);
                if ok != Some(1.0) {
                    problems.push(format!("{w}: ok_share {ok:?}"));
                }
            }
        }
    }
    if problems.is_empty() {
        println!("# self-test: ok");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("self-test: {p}");
        }
        ExitCode::FAILURE
    }
}

/// Differences between `BENCHMARK.json` and this program's tables.
fn check_spec(spec: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let names = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .map(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let want: Vec<(String, String)> = table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if names(key) != want {
            problems.push(format!(
                "BENCHMARK.json {key} differs from the program's table"
            ));
        }
    }
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    if workloads != WORKLOADS {
        problems.push(format!("BENCHMARK.json workloads {workloads:?}"));
    }
    problems
}
