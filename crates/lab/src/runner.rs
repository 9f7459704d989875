//! Runs a [`LabSpec`]: scenarios × grid cells → measurement rows.
//!
//! Replay mode reproduces the S5 discipline exactly — record the
//! scenario, materialize once, replay through every engine shape, and
//! check each replay bit-for-bit against serial ground truth — so a
//! committed spec file regenerates the same sweep the hard-coded bench
//! used to. Ramp mode runs the saturation probe
//! ([`duality_workload::ramp()`]) per cell and reports the maximum
//! sustainable rate and knee-of-curve latency. Memory mode drives the
//! trace through a byte-budgeted engine and reports per-phase substrate
//! build time and pool bytes.
//!
//! Replay and ramp finish by deriving `scaling-efficiency` — the row's
//! headline rate divided by the same scenario's rate at 1 worker with
//! the same shard count — so flat worker scaling is visible *in the
//! artifact*, not only by eyeballing columns.

use crate::envelope::EnvRow;
use crate::error::LabError;
use crate::spec::{GridCell, LabSpec, MemorySettings, RampSettings, RunMode};
use duality_service::{AdmissionPolicy, ServiceEngine, Ticket};
use duality_telemetry::Telemetry;
use duality_workload::driver::{self, DriverConfig};
use duality_workload::trace::TraceJob;
use duality_workload::{ramp, RampConfig, WorkloadError};

/// Runs every (scenario, cell) pair of `spec` and returns the rows, in
/// scenario-major order. `smoke` keeps only the smoke-flagged scenarios
/// and cells (and applies the ramp smoke overrides); `seed` overrides
/// the spec's seed when given (the bench harness passes its own).
///
/// # Errors
///
/// [`LabError::Schema`] when the spec fails validation;
/// [`LabError::Workload`] when recording or replay fails.
pub fn run_spec(spec: &LabSpec, smoke: bool, seed: Option<u64>) -> Result<Vec<EnvRow>, LabError> {
    spec.validate()?;
    let seed = seed.unwrap_or(spec.seed);
    let cells = spec.run_cells(smoke);
    let mut rows = Vec::new();
    for scenario_ref in spec.run_scenarios(smoke) {
        let scenario = scenario_ref.resolve(seed)?;
        let trace = scenario.record()?;
        // Materialize once and reuse across every cell — the sweep
        // rebuilds no tenant graph.
        let jobs = trace.materialize()?;
        let (n, d) = (jobs[0].instance.n(), jobs[0].instance.graph().diameter());
        match &spec.mode {
            RunMode::Replay => {
                let serial = driver::run_serial_jobs(&jobs)?;
                for cell in &cells {
                    let report = driver::drive_jobs(
                        &jobs,
                        trace.header.arrival,
                        &DriverConfig {
                            workers: cell.workers,
                            shards: cell.shards,
                            ..DriverConfig::default()
                        },
                    )?;
                    let matches = report.fingerprints.len() == serial.fingerprints.len()
                        && report
                            .fingerprints
                            .iter()
                            .zip(&serial.fingerprints)
                            .all(|(got, want)| *got == Some(*want));
                    let m = &report.metrics;
                    let pool = m.pool_total();
                    rows.push(EnvRow {
                        experiment: spec.name.clone(),
                        instance: instance_label(&scenario.name, cell.workers, cell.shards),
                        n,
                        d,
                        values: vec![
                            ("jobs".into(), trace.query_count() as f64),
                            ("respecs".into(), trace.respec_count() as f64),
                            ("replay=serial".into(), f64::from(u8::from(matches))),
                            ("completed".into(), m.completed as f64),
                            ("throughput-jps".into(), report.throughput_jps()),
                            (
                                "p50-us".into(),
                                m.latency.quantile_us(0.5).unwrap_or(0) as f64,
                            ),
                            (
                                "p99-us".into(),
                                m.latency.quantile_us(0.99).unwrap_or(0) as f64,
                            ),
                            ("engine-substrate".into(), m.substrate_rounds() as f64),
                            ("engine-query".into(), m.query_rounds() as f64),
                            ("serial-substrate".into(), serial.substrate_rounds as f64),
                            ("serial-query".into(), serial.query_rounds as f64),
                            ("pool-hits".into(), pool.hits as f64),
                            ("pool-misses".into(), pool.misses as f64),
                            ("respec-reuses".into(), pool.respec_reuses as f64),
                        ],
                    });
                }
            }
            RunMode::Ramp(settings) => {
                let config = ramp_config(settings, smoke);
                for cell in &cells {
                    let report = ramp::ramp(
                        &jobs,
                        &config,
                        &DriverConfig {
                            workers: cell.workers,
                            shards: cell.shards,
                            ..DriverConfig::default()
                        },
                    )?;
                    let saturated = report.rounds.last().is_some_and(|r| r.overloaded);
                    rows.push(EnvRow {
                        experiment: spec.name.clone(),
                        instance: instance_label(&scenario.name, cell.workers, cell.shards),
                        n,
                        d,
                        values: vec![
                            ("rounds".into(), report.rounds.len() as f64),
                            ("max-sustainable-jps".into(), report.max_sustainable_jps),
                            ("knee-p50-us".into(), report.knee_p50_us as f64),
                            ("knee-p99-us".into(), report.knee_p99_us as f64),
                            ("saturated".into(), f64::from(u8::from(saturated))),
                        ],
                    });
                }
            }
            RunMode::Memory(settings) => {
                for cell in &cells {
                    run_memory_cell(
                        spec,
                        &scenario.name,
                        &jobs,
                        *cell,
                        settings,
                        n,
                        d,
                        &mut rows,
                    )?;
                }
            }
        }
    }
    add_scaling_efficiency(&mut rows, headline_metric(&spec.mode));
    Ok(rows)
}

/// The five substrate build phases, in first-charge order. Memory rows
/// report every phase (zero when unexercised) so row shape never
/// drifts with the query mix.
pub const SUBSTRATE_PHASES: [&str; 5] = ["embed", "dual", "bdd", "weight-tier", "labeling"];

/// Runs the S10 discipline for one grid cell: the whole trace is
/// driven through a byte-budgeted, telemetry-wired engine, and the row
/// records where the substrate build time went (per-phase µs from the
/// profiling spans) and what it cost to keep (resident / peak /
/// evicted pool bytes from the size-aware pool).
#[allow(clippy::too_many_arguments)]
fn run_memory_cell(
    spec: &LabSpec,
    scenario: &str,
    jobs: &[TraceJob],
    cell: GridCell,
    settings: &MemorySettings,
    n: usize,
    d: usize,
    rows: &mut Vec<EnvRow>,
) -> Result<(), LabError> {
    // Phase spans arrive in bursts of up to five per substrate build;
    // size the ring so none are dropped and the µs totals stay exact.
    let telemetry = Telemetry::new((jobs.len() * 8 + 64).max(256));
    let budget = (settings.pool_byte_budget > 0).then_some(settings.pool_byte_budget);
    let engine = ServiceEngine::builder()
        .workers(cell.workers)
        .shards(cell.shards)
        .queue_capacity(jobs.len().max(16))
        .admission(AdmissionPolicy::Block)
        .pool_byte_budget(budget)
        .span_sink(telemetry.sink())
        .build()
        .map_err(|e| LabError::Workload(WorkloadError::from(e)))?;
    harvest(submit_all(&engine, jobs)?);
    let m = engine.shutdown();
    let pool = m.pool_total();
    telemetry.set_pool_bytes(pool.bytes);
    let snap = telemetry.snapshot();
    let mut values = vec![
        ("jobs".into(), jobs.len() as f64),
        ("completed".into(), m.completed as f64),
    ];
    for phase in SUBSTRATE_PHASES {
        let us = snap
            .phase_us
            .iter()
            .find(|(p, _)| p == phase)
            .map_or(0, |(_, us)| *us);
        values.push((format!("phase-{phase}-us"), us as f64));
    }
    values.extend([
        (
            "substrate-build-us".into(),
            snap.phase_us.iter().map(|(_, us)| us).sum::<u64>() as f64,
        ),
        ("resident-bytes".into(), pool.bytes.resident as f64),
        ("peak-resident-bytes".into(), pool.bytes.peak as f64),
        ("evicted-bytes".into(), pool.bytes.evicted as f64),
        ("byte-budget".into(), settings.pool_byte_budget as f64),
        ("pool-hits".into(), pool.hits as f64),
        ("pool-misses".into(), pool.misses as f64),
        ("pool-evictions".into(), pool.evictions as f64),
    ]);
    rows.push(EnvRow {
        experiment: spec.name.clone(),
        instance: instance_label(scenario, cell.workers, cell.shards),
        n,
        d,
        values,
    });
    Ok(())
}

/// Submits every job, returning the tickets in submission order. Memory
/// mode admits with `Block` and a queue sized for the whole trace, so a
/// refusal here is a driver bug, not load data.
fn submit_all(engine: &ServiceEngine, jobs: &[TraceJob]) -> Result<Vec<Ticket>, LabError> {
    let mut tickets = Vec::new();
    for job in jobs {
        match engine.submit(&job.instance, job.query) {
            Ok(t) => tickets.push(t),
            Err(e) => return Err(LabError::Workload(WorkloadError::Submit(e))),
        }
    }
    Ok(tickets)
}

/// Waits out every ticket; outcome counting is the metrics layer's job.
fn harvest(tickets: Vec<Ticket>) {
    for ticket in tickets {
        let _ = ticket.wait();
    }
}

/// The `"<scenario>, <workers> wrk / <shards> shd"` row label the S5
/// sweep established; the part before the comma doubles as the
/// envelope's scenario provenance.
pub fn instance_label(scenario: &str, workers: usize, shards: usize) -> String {
    format!("{scenario}, {workers} wrk / {shards} shd")
}

/// The rate metric worker scaling is judged by in each mode. Memory
/// rows carry no rate metric at all, so the efficiency derivation
/// finds no baseline and leaves them untouched.
pub fn headline_metric(mode: &RunMode) -> &'static str {
    match mode {
        RunMode::Replay | RunMode::Memory(_) => "throughput-jps",
        RunMode::Ramp(_) => "max-sustainable-jps",
    }
}

fn ramp_config(s: &RampSettings, smoke: bool) -> RampConfig {
    let round_jobs = match (smoke, s.smoke_round_jobs) {
        (true, Some(j)) => j,
        _ => s.round_jobs,
    };
    let max_rounds = match (smoke, s.smoke_max_rounds) {
        (true, Some(m)) => m,
        _ => s.max_rounds,
    };
    RampConfig {
        initial_jps: s.initial_jps,
        increment_jps: s.increment_jps,
        round_jobs,
        max_rounds,
        p99_ceiling_us: s.p99_ceiling_us,
        margin_percent: s.margin_percent,
    }
}

/// Appends a derived `scaling-efficiency` value — `metric` at this
/// row's cell divided by `metric` at 1 worker with the same scenario
/// and shard count — to every row whose 1-worker baseline exists in
/// `rows` and is nonzero. Perfect scaling reads `workers`; the flat
/// wall reads ~1.0 at every worker count.
pub fn add_scaling_efficiency(rows: &mut [EnvRow], metric: &str) {
    let baselines: Vec<(String, f64)> = rows
        .iter()
        .filter_map(|row| {
            let (scenario, workers, shards) = parse_label(&row.instance)?;
            if workers != 1 {
                return None;
            }
            Some((format!("{scenario}/{shards}"), row.value(metric)?))
        })
        .collect();
    for row in rows.iter_mut() {
        let Some((scenario, _, shards)) = parse_label(&row.instance) else {
            continue;
        };
        let key = format!("{scenario}/{shards}");
        let Some((_, base)) = baselines.iter().find(|(k, _)| *k == key) else {
            continue;
        };
        if *base <= 0.0 {
            continue;
        }
        if let Some(v) = row.value(metric) {
            row.values.push(("scaling-efficiency".into(), v / base));
        }
    }
}

/// Splits an [`instance_label`] back into (scenario, workers, shards);
/// `None` for labels from other conventions.
fn parse_label(instance: &str) -> Option<(&str, usize, usize)> {
    let (scenario, cell) = instance.split_once(',')?;
    let cell = cell.trim();
    let (workers, rest) = cell.split_once(" wrk / ")?;
    let shards = rest.strip_suffix(" shd")?;
    Some((scenario.trim(), workers.parse().ok()?, shards.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{GridCell, ScenarioRef};

    fn replay_spec() -> LabSpec {
        LabSpec {
            name: "SX".into(),
            seed: 6,
            mode: RunMode::Replay,
            cells: vec![
                GridCell {
                    workers: 1,
                    shards: 1,
                    smoke: true,
                },
                GridCell {
                    workers: 2,
                    shards: 1,
                    smoke: true,
                },
            ],
            scenarios: vec![ScenarioRef::Preset {
                name: "steady-state".into(),
                smoke: true,
            }],
        }
    }

    #[test]
    fn replay_mode_reproduces_the_s5_discipline() {
        let rows = run_spec(&replay_spec(), false, None).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.experiment, "SX");
            assert_eq!(row.value("replay=serial"), Some(1.0), "{}", row.instance);
            assert_eq!(row.value("completed"), row.value("jobs"));
            assert_eq!(row.value("engine-query"), row.value("serial-query"));
        }
        assert_eq!(rows[0].instance, "steady-state, 1 wrk / 1 shd");
        // Efficiency is derived against the 1-worker cell: exactly 1.0
        // there, and present on the 2-worker row too.
        assert_eq!(rows[0].value("scaling-efficiency"), Some(1.0));
        assert!(rows[1].value("scaling-efficiency").is_some());
    }

    #[test]
    fn seed_overrides_rewrite_the_sweep() {
        let a = run_spec(&replay_spec(), false, None).unwrap();
        let b = run_spec(&replay_spec(), false, Some(6)).unwrap();
        // Same seed → same deterministic columns.
        assert_eq!(a[0].value("jobs"), b[0].value("jobs"));
        assert_eq!(
            a[0].value("serial-substrate"),
            b[0].value("serial-substrate")
        );
    }

    #[test]
    fn ramp_mode_reports_saturation_columns() {
        let mut spec = replay_spec();
        spec.mode = RunMode::Ramp(RampSettings {
            initial_jps: 100,
            increment_jps: 400,
            round_jobs: 8,
            max_rounds: 2,
            p99_ceiling_us: None,
            margin_percent: 90,
            smoke_round_jobs: Some(4),
            smoke_max_rounds: Some(1),
        });
        spec.cells.truncate(1);
        let rows = run_spec(&spec, true, None).unwrap();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(
            row.value("rounds").unwrap() <= 1.0,
            "smoke override caps rounds"
        );
        assert!(row.value("max-sustainable-jps").is_some());
        assert!(row.value("knee-p99-us").is_some());
        assert!(row.value("saturated").is_some());
    }

    #[test]
    fn memory_mode_reports_phase_splits_and_byte_gauges() {
        let mut spec = replay_spec();
        spec.mode = RunMode::Memory(MemorySettings {
            pool_byte_budget: 0,
        });
        spec.cells.truncate(1);
        let rows = run_spec(&spec, false, None).unwrap();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.value("completed"), row.value("jobs"));
        let phase_sum: f64 = SUBSTRATE_PHASES
            .iter()
            .map(|p| row.value(&format!("phase-{p}-us")).unwrap())
            .sum();
        assert_eq!(
            Some(phase_sum),
            row.value("substrate-build-us"),
            "the five phases account for the whole build"
        );
        assert!(row.value("resident-bytes").unwrap() > 0.0);
        assert!(row.value("peak-resident-bytes").unwrap() >= row.value("resident-bytes").unwrap());
        assert_eq!(
            row.value("evicted-bytes"),
            Some(0.0),
            "unbounded: no evictions"
        );
        assert_eq!(
            row.value("scaling-efficiency"),
            None,
            "memory rows carry no rate metric"
        );

        // A starvation-level byte budget forces size-aware eviction:
        // three tenants through one shard cannot all stay resident.
        spec.mode = RunMode::Memory(MemorySettings {
            pool_byte_budget: 1,
        });
        let tight = run_spec(&spec, false, None).unwrap();
        assert!(tight[0].value("evicted-bytes").unwrap() > 0.0);
        assert_eq!(tight[0].value("completed"), tight[0].value("jobs"));
    }

    #[test]
    fn efficiency_skips_rows_without_a_baseline() {
        let mut rows = vec![EnvRow {
            experiment: "S".into(),
            instance: "lonely, 4 wrk / 2 shd".into(),
            n: 1,
            d: 1,
            values: vec![("throughput-jps".into(), 100.0)],
        }];
        add_scaling_efficiency(&mut rows, "throughput-jps");
        assert_eq!(rows[0].value("scaling-efficiency"), None);
    }
}
