//! The declarative experiment spec: one versioned, byte-stable document
//! that says *what to measure* — scenarios, the worker × shard sweep
//! grid, the run mode, and how a `--smoke` run scales everything down.
//!
//! A [`LabSpec`] replaces the hard-coded preset lists the bench harness
//! grew up with: `experiments run <spec-file>` parses one of these and
//! produces the same versioned `BENCH_*.json` envelope the harness
//! always wrote. Specs serialize to the canonical JSONL codec the trace
//! format uses too ([`duality_workload::jsonl`]):
//! [`LabSpec::to_jsonl`] / [`LabSpec::parse_jsonl`] round-trip
//! **byte-stable**, and parsing refuses unknown schema versions, line
//! kinds, modes, and rules — a spec either means exactly what this
//! version of the code thinks it means, or it is rejected.
//!
//! The line grammar (order matters: tenants and rules attach to the
//! most recent inline scenario):
//!
//! ```text
//! {"kind": "lab", "schema_version": 1, "name": "S5", "seed": 42, "mode": "replay"}
//! {"kind": "cell", "workers": 1, "shards": 1, "smoke": 1}
//! {"kind": "preset", "name": "steady-state", "smoke": 1}
//! {"kind": "scenario", "name": "custom", "smoke": 0, "ticks": 8, ...}
//! {"kind": "tenant", "family": "diag_grid", "w": 6, "h": 5, ...}
//! {"kind": "rule", "rule": "diurnal_wave", "period": 8, "trough_percent": 60}
//! ```

use crate::error::LabError;
use duality_workload::jsonl::{family_fields, line, parse_family, Obj, Val};
use duality_workload::{Arrival, MutationRule, QueryMix, Scenario, TenantSpec};

/// Lab-spec serialization format version; parsing refuses anything
/// else.
pub const LAB_SCHEMA_VERSION: u64 = 1;

/// One cell of the sweep grid: an engine shape to measure, and whether
/// a `--smoke` run keeps it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridCell {
    /// Worker threads.
    pub workers: usize,
    /// Pool shards.
    pub shards: usize,
    /// Keep this cell in smoke runs.
    pub smoke: bool,
}

/// Saturation-probe settings carried by a ramp-mode spec (the
/// [`RampConfig`](duality_workload::RampConfig) knobs, plus smoke
/// overrides so CI probes stay CI-sized).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RampSettings {
    /// Offered rate of round 0, jobs per second.
    pub initial_jps: u64,
    /// Rate step between rounds, jobs per second.
    pub increment_jps: u64,
    /// Jobs offered per round.
    pub round_jobs: usize,
    /// Hard cap on rounds.
    pub max_rounds: usize,
    /// Overload ceiling on the round p99, µs (`None`: rate-only).
    pub p99_ceiling_us: Option<u64>,
    /// Sustainability margin, percent of the offered rate.
    pub margin_percent: u32,
    /// `round_jobs` under `--smoke` (`None`: unchanged).
    pub smoke_round_jobs: Option<usize>,
    /// `max_rounds` under `--smoke` (`None`: unchanged).
    pub smoke_max_rounds: Option<usize>,
}

/// Memory-mode settings: the byte budget handed to the engine's
/// solver pool, so the run exercises size-aware eviction while the
/// telemetry spine reports phase timings and byte gauges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemorySettings {
    /// Byte budget for the solver pool (0 = unbounded: gauges are
    /// still measured, nothing is evicted for size).
    pub pool_byte_budget: u64,
}

/// What the runner does with each (scenario, cell) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// Record the scenario, replay it through the engine, and compare
    /// against serial ground truth (the S5 discipline).
    Replay,
    /// Step the open-loop arrival rate until overload and report the
    /// maximum sustainable rate and knee latency (the S7 discipline).
    Ramp(RampSettings),
    /// Drive the scenario through a byte-budgeted, telemetry-wired
    /// engine and report per-phase substrate build time plus resident
    /// / peak / evicted pool bytes (the S10 discipline).
    Memory(MemorySettings),
}

/// A scenario the spec wants measured: a preset by name, or a fully
/// inline description.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioRef {
    /// One of the built-in presets ([`Scenario::preset`]).
    Preset {
        /// Preset name.
        name: String,
        /// Keep this scenario in smoke runs.
        smoke: bool,
    },
    /// An inline scenario: tenants, mutation rules, query mix, arrival
    /// — everything but the seed, which the spec supplies at run time.
    Inline {
        /// The scenario (its `seed` field is ignored; the spec seed is
        /// substituted when the experiment runs).
        scenario: Scenario,
        /// Keep this scenario in smoke runs.
        smoke: bool,
    },
}

impl ScenarioRef {
    /// The scenario's display name.
    pub fn name(&self) -> &str {
        match self {
            ScenarioRef::Preset { name, .. } => name,
            ScenarioRef::Inline { scenario, .. } => &scenario.name,
        }
    }

    /// Whether smoke runs keep this scenario.
    pub fn smoke(&self) -> bool {
        match self {
            ScenarioRef::Preset { smoke, .. } | ScenarioRef::Inline { smoke, .. } => *smoke,
        }
    }

    /// Resolves to a concrete [`Scenario`] seeded with `seed`.
    ///
    /// # Errors
    ///
    /// [`LabError::Schema`] on an unknown preset name (a validated spec
    /// never hits this).
    pub fn resolve(&self, seed: u64) -> Result<Scenario, LabError> {
        match self {
            ScenarioRef::Preset { name, .. } => Scenario::preset(name, seed)
                .ok_or_else(|| LabError::Schema(format!("unknown preset `{name}`"))),
            ScenarioRef::Inline { scenario, .. } => {
                let mut s = scenario.clone();
                s.seed = seed;
                Ok(s)
            }
        }
    }
}

/// One declarative experiment. See the [module docs](self).
#[derive(Clone, Debug, PartialEq)]
pub struct LabSpec {
    /// Experiment id, stamped on every row and the envelope (e.g.
    /// `"S5"`).
    pub name: String,
    /// Master seed for every scenario in the sweep.
    pub seed: u64,
    /// What the runner does per (scenario, cell).
    pub mode: RunMode,
    /// The sweep grid, in measurement order.
    pub cells: Vec<GridCell>,
    /// The scenarios, in measurement order.
    pub scenarios: Vec<ScenarioRef>,
}

impl LabSpec {
    /// The scenarios a run keeps: all of them, or the smoke-flagged
    /// subset.
    pub fn run_scenarios(&self, smoke: bool) -> Vec<&ScenarioRef> {
        self.scenarios
            .iter()
            .filter(|s| !smoke || s.smoke())
            .collect()
    }

    /// The grid cells a run keeps: all of them, or the smoke-flagged
    /// subset.
    pub fn run_cells(&self, smoke: bool) -> Vec<GridCell> {
        self.cells
            .iter()
            .copied()
            .filter(|c| !smoke || c.smoke)
            .collect()
    }

    /// Checks the spec is runnable.
    ///
    /// # Errors
    ///
    /// [`LabError::Schema`] naming the first problem: empty name, no
    /// scenarios or cells (in full *or* smoke mode), duplicate scenario
    /// names, unknown preset names, inline scenarios without tenants,
    /// zero-sized cells, or ramp knobs that cannot probe (zero rate,
    /// empty rounds, margin over 100%).
    pub fn validate(&self) -> Result<(), LabError> {
        let fail = |reason: String| Err(LabError::Schema(reason));
        if self.name.is_empty() {
            return fail("experiment name is empty".into());
        }
        for smoke in [false, true] {
            let label = if smoke { "smoke" } else { "full" };
            if self.run_scenarios(smoke).is_empty() {
                return fail(format!("no scenarios in {label} mode"));
            }
            if self.run_cells(smoke).is_empty() {
                return fail(format!("no grid cells in {label} mode"));
            }
        }
        let mut names: Vec<&str> = Vec::new();
        for s in &self.scenarios {
            if names.contains(&s.name()) {
                return fail(format!("duplicate scenario name `{}`", s.name()));
            }
            names.push(s.name());
            match s {
                ScenarioRef::Preset { name, .. } => {
                    if Scenario::preset(name, 0).is_none() {
                        return fail(format!("unknown preset `{name}`"));
                    }
                }
                ScenarioRef::Inline { scenario, .. } => {
                    if scenario.tenants.is_empty() {
                        return fail(format!("scenario `{}` has no tenants", scenario.name));
                    }
                    if scenario.ticks == 0 {
                        return fail(format!("scenario `{}` has zero ticks", scenario.name));
                    }
                }
            }
        }
        for c in &self.cells {
            if c.workers == 0 || c.shards == 0 {
                return fail(format!(
                    "grid cell {}x{} has a zero dimension",
                    c.workers, c.shards
                ));
            }
        }
        if let RunMode::Ramp(r) = &self.mode {
            if r.initial_jps == 0 {
                return fail("ramp initial_jps is zero".into());
            }
            if r.round_jobs == 0 || r.max_rounds == 0 {
                return fail("ramp rounds are empty".into());
            }
            if r.margin_percent > 100 {
                return fail(format!("ramp margin {}% exceeds 100%", r.margin_percent));
            }
            if r.smoke_round_jobs == Some(0) || r.smoke_max_rounds == Some(0) {
                return fail("ramp smoke rounds are empty".into());
            }
        }
        Ok(())
    }

    /// Serializes the spec to canonical JSONL (byte-stable round trip
    /// through [`LabSpec::parse_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        line(&mut out, &{
            let mut f = vec![
                ("kind", Val::s("lab")),
                ("schema_version", Val::n(LAB_SCHEMA_VERSION)),
                ("name", Val::S(self.name.clone())),
                ("seed", Val::n(self.seed)),
            ];
            match &self.mode {
                RunMode::Replay => f.push(("mode", Val::s("replay"))),
                RunMode::Ramp(r) => {
                    f.push(("mode", Val::s("ramp")));
                    f.push(("initial_jps", Val::n(r.initial_jps)));
                    f.push(("increment_jps", Val::n(r.increment_jps)));
                    f.push(("round_jobs", Val::n(r.round_jobs as u64)));
                    f.push(("max_rounds", Val::n(r.max_rounds as u64)));
                    f.push(("margin_percent", Val::n(u64::from(r.margin_percent))));
                    if let Some(c) = r.p99_ceiling_us {
                        f.push(("p99_ceiling_us", Val::n(c)));
                    }
                    if let Some(j) = r.smoke_round_jobs {
                        f.push(("smoke_round_jobs", Val::n(j as u64)));
                    }
                    if let Some(m) = r.smoke_max_rounds {
                        f.push(("smoke_max_rounds", Val::n(m as u64)));
                    }
                }
                RunMode::Memory(m) => {
                    f.push(("mode", Val::s("memory")));
                    f.push(("pool_byte_budget", Val::n(m.pool_byte_budget)));
                }
            }
            f
        });
        for c in &self.cells {
            line(
                &mut out,
                &[
                    ("kind", Val::s("cell")),
                    ("workers", Val::n(c.workers as u64)),
                    ("shards", Val::n(c.shards as u64)),
                    ("smoke", Val::n(u64::from(c.smoke))),
                ],
            );
        }
        for s in &self.scenarios {
            match s {
                ScenarioRef::Preset { name, smoke } => line(
                    &mut out,
                    &[
                        ("kind", Val::s("preset")),
                        ("name", Val::S(name.clone())),
                        ("smoke", Val::n(u64::from(*smoke))),
                    ],
                ),
                ScenarioRef::Inline { scenario, smoke } => {
                    write_inline(&mut out, scenario, *smoke);
                }
            }
        }
        out
    }

    /// Parses a canonical-JSONL spec (inverse of [`LabSpec::to_jsonl`];
    /// runs [`LabSpec::validate`] on the result).
    ///
    /// # Errors
    ///
    /// [`LabError::Parse`] with a 1-based line number on malformed
    /// lines, unknown kinds/modes/rules, a wrong schema version, or
    /// structure errors (tenant line before any inline scenario);
    /// [`LabError::Schema`] when the parsed spec fails validation.
    pub fn parse_jsonl(text: &str) -> Result<LabSpec, LabError> {
        let mut header: Option<(String, u64, RunMode)> = None;
        let mut cells = Vec::new();
        let mut scenarios: Vec<ScenarioRef> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let fail = |reason: String| LabError::Parse {
                line: lineno,
                reason,
            };
            if raw.trim().is_empty() {
                continue;
            }
            let obj = Obj::parse(raw).map_err(&fail)?;
            match obj.str("kind").map_err(&fail)? {
                "lab" => {
                    if header.is_some() {
                        return Err(fail("duplicate lab header".into()));
                    }
                    let version = obj.u64("schema_version").map_err(&fail)?;
                    if version != LAB_SCHEMA_VERSION {
                        return Err(fail(format!(
                            "unsupported schema_version {version} (want {LAB_SCHEMA_VERSION})"
                        )));
                    }
                    let mode = match obj.str("mode").map_err(&fail)? {
                        "replay" => RunMode::Replay,
                        "ramp" => RunMode::Ramp(RampSettings {
                            initial_jps: obj.u64("initial_jps").map_err(&fail)?,
                            increment_jps: obj.u64("increment_jps").map_err(&fail)?,
                            round_jobs: obj.u64("round_jobs").map_err(&fail)? as usize,
                            max_rounds: obj.u64("max_rounds").map_err(&fail)? as usize,
                            margin_percent: obj.u32("margin_percent").map_err(&fail)?,
                            p99_ceiling_us: obj.opt_u64("p99_ceiling_us").map_err(&fail)?,
                            smoke_round_jobs: obj
                                .opt_u64("smoke_round_jobs")
                                .map_err(&fail)?
                                .map(|v| v as usize),
                            smoke_max_rounds: obj
                                .opt_u64("smoke_max_rounds")
                                .map_err(&fail)?
                                .map(|v| v as usize),
                        }),
                        "memory" => RunMode::Memory(MemorySettings {
                            pool_byte_budget: obj.u64("pool_byte_budget").map_err(&fail)?,
                        }),
                        other => return Err(fail(format!("unknown mode `{other}`"))),
                    };
                    header = Some((
                        obj.str("name").map_err(&fail)?.to_string(),
                        obj.u64("seed").map_err(&fail)?,
                        mode,
                    ));
                }
                "cell" => cells.push(GridCell {
                    workers: obj.u64("workers").map_err(&fail)? as usize,
                    shards: obj.u64("shards").map_err(&fail)? as usize,
                    smoke: obj.u64("smoke").map_err(&fail)? != 0,
                }),
                "preset" => scenarios.push(ScenarioRef::Preset {
                    name: obj.str("name").map_err(&fail)?.to_string(),
                    smoke: obj.u64("smoke").map_err(&fail)? != 0,
                }),
                "scenario" => scenarios.push(ScenarioRef::Inline {
                    scenario: parse_scenario_line(&obj).map_err(&fail)?,
                    smoke: obj.u64("smoke").map_err(&fail)? != 0,
                }),
                "tenant" => match scenarios.last_mut() {
                    Some(ScenarioRef::Inline { scenario, .. }) => {
                        scenario.tenants.push(TenantSpec {
                            family: parse_family(&obj).map_err(&fail)?,
                            cap_range: (
                                obj.i64("cap_lo").map_err(&fail)?,
                                obj.i64("cap_hi").map_err(&fail)?,
                            ),
                            weight_range: (
                                obj.i64("weight_lo").map_err(&fail)?,
                                obj.i64("weight_hi").map_err(&fail)?,
                            ),
                        });
                    }
                    _ => return Err(fail("tenant line outside an inline scenario".into())),
                },
                "rule" => match scenarios.last_mut() {
                    Some(ScenarioRef::Inline { scenario, .. }) => {
                        scenario.mutations.push(parse_rule(&obj).map_err(&fail)?);
                    }
                    _ => return Err(fail("rule line outside an inline scenario".into())),
                },
                other => return Err(fail(format!("unknown line kind `{other}`"))),
            }
        }
        let (name, seed, mode) = header.ok_or(LabError::Parse {
            line: 0,
            reason: "missing lab header line".into(),
        })?;
        let spec = LabSpec {
            name,
            seed,
            mode,
            cells,
            scenarios,
        };
        spec.validate()?;
        Ok(spec)
    }
}

fn write_inline(out: &mut String, s: &Scenario, smoke: bool) {
    let (arrival, rate, in_flight) = match s.arrival {
        Arrival::OpenLoop { queries_per_tick } => ("open", queries_per_tick, None),
        Arrival::ClosedLoop {
            queries_per_tick,
            max_in_flight,
        } => ("closed", queries_per_tick, Some(max_in_flight as u64)),
    };
    let mut f = vec![
        ("kind", Val::s("scenario")),
        ("name", Val::S(s.name.clone())),
        ("smoke", Val::n(u64::from(smoke))),
        ("ticks", Val::n(s.ticks)),
        ("arrival", Val::s(arrival)),
        ("rate", Val::n(rate)),
    ];
    if let Some(m) = in_flight {
        f.push(("max_in_flight", Val::n(m)));
    }
    f.extend([
        ("mix_max_flow", Val::n(u64::from(s.mix.max_flow))),
        ("mix_min_st_cut", Val::n(u64::from(s.mix.min_st_cut))),
        (
            "mix_approx_max_flow",
            Val::n(u64::from(s.mix.approx_max_flow)),
        ),
        (
            "mix_approx_min_st_cut",
            Val::n(u64::from(s.mix.approx_min_st_cut)),
        ),
        (
            "mix_global_min_cut",
            Val::n(u64::from(s.mix.global_min_cut)),
        ),
        ("mix_girth", Val::n(u64::from(s.mix.girth))),
        ("tenant_skew", Val::n(u64::from(s.tenant_skew))),
    ]);
    if let Some(d) = s.deadline_ticks {
        f.push(("deadline_ticks", Val::n(d)));
    }
    line(out, &f);
    for t in &s.tenants {
        let mut f = vec![("kind", Val::s("tenant"))];
        f.extend(family_fields(&t.family));
        f.extend([
            ("cap_lo", Val::i(t.cap_range.0)),
            ("cap_hi", Val::i(t.cap_range.1)),
            ("weight_lo", Val::i(t.weight_range.0)),
            ("weight_hi", Val::i(t.weight_range.1)),
        ]);
        line(out, &f);
    }
    for rule in &s.mutations {
        line(out, &rule_fields(rule));
    }
}

fn rule_fields(rule: &MutationRule) -> Vec<(&'static str, Val)> {
    match *rule {
        MutationRule::DiurnalWave {
            period,
            trough_percent,
        } => vec![
            ("kind", Val::s("rule")),
            ("rule", Val::s("diurnal_wave")),
            ("period", Val::n(period)),
            ("trough_percent", Val::n(u64::from(trough_percent))),
        ],
        MutationRule::RandomFailures { every, count } => vec![
            ("kind", Val::s("rule")),
            ("rule", Val::s("random_failures")),
            ("every", Val::n(every)),
            ("count", Val::n(count as u64)),
        ],
        MutationRule::RandomWeightSpikes {
            every,
            count,
            factor,
        } => vec![
            ("kind", Val::s("rule")),
            ("rule", Val::s("random_weight_spikes")),
            ("every", Val::n(every)),
            ("count", Val::n(count as u64)),
            ("factor", Val::n(u64::from(factor))),
        ],
        MutationRule::Storm {
            at,
            duration,
            percent,
        } => vec![
            ("kind", Val::s("rule")),
            ("rule", Val::s("storm")),
            ("at", Val::n(at)),
            ("duration", Val::n(duration)),
            ("percent", Val::n(u64::from(percent))),
        ],
    }
}

fn parse_rule(obj: &Obj) -> Result<MutationRule, String> {
    Ok(match obj.str("rule")? {
        "diurnal_wave" => MutationRule::DiurnalWave {
            period: obj.u64("period")?,
            trough_percent: obj.u32("trough_percent")?,
        },
        "random_failures" => MutationRule::RandomFailures {
            every: obj.u64("every")?,
            count: obj.u64("count")? as usize,
        },
        "random_weight_spikes" => MutationRule::RandomWeightSpikes {
            every: obj.u64("every")?,
            count: obj.u64("count")? as usize,
            factor: obj.u32("factor")?,
        },
        "storm" => MutationRule::Storm {
            at: obj.u64("at")?,
            duration: obj.u64("duration")?,
            percent: obj.u32("percent")?,
        },
        other => return Err(format!("unknown rule `{other}`")),
    })
}

fn parse_scenario_line(obj: &Obj) -> Result<Scenario, String> {
    let rate = obj.u64("rate")?;
    let arrival = match obj.str("arrival")? {
        "open" => Arrival::OpenLoop {
            queries_per_tick: rate,
        },
        "closed" => Arrival::ClosedLoop {
            queries_per_tick: rate,
            max_in_flight: obj.u64("max_in_flight")? as usize,
        },
        other => return Err(format!("unknown arrival `{other}`")),
    };
    Ok(Scenario {
        name: obj.str("name")?.to_string(),
        // Placeholder; ScenarioRef::resolve substitutes the spec seed.
        seed: 0,
        tenants: Vec::new(),
        ticks: obj.u64("ticks")?,
        arrival,
        mix: QueryMix {
            max_flow: obj.u32("mix_max_flow")?,
            min_st_cut: obj.u32("mix_min_st_cut")?,
            approx_max_flow: obj.u32("mix_approx_max_flow")?,
            approx_min_st_cut: obj.u32("mix_approx_min_st_cut")?,
            global_min_cut: obj.u32("mix_global_min_cut")?,
            girth: obj.u32("mix_girth")?,
        },
        mutations: Vec::new(),
        tenant_skew: obj.u32("tenant_skew")?,
        deadline_ticks: obj.opt_u64("deadline_ticks")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use duality_workload::FamilySpec;

    fn sample_spec() -> LabSpec {
        let mut inline = Scenario::preset("rush-hour", 0).unwrap();
        inline.name = "custom-rush".into();
        inline.seed = 0;
        inline.tenants.push(TenantSpec {
            family: FamilySpec::Apollonian { n: 16 },
            cap_range: (2, 7),
            weight_range: (1, 5),
        });
        LabSpec {
            name: "SX".into(),
            seed: 42,
            mode: RunMode::Ramp(RampSettings {
                initial_jps: 200,
                increment_jps: 200,
                round_jobs: 48,
                max_rounds: 10,
                p99_ceiling_us: Some(250_000),
                margin_percent: 90,
                smoke_round_jobs: Some(16),
                smoke_max_rounds: Some(4),
            }),
            cells: vec![
                GridCell {
                    workers: 1,
                    shards: 1,
                    smoke: true,
                },
                GridCell {
                    workers: 4,
                    shards: 2,
                    smoke: false,
                },
            ],
            scenarios: vec![
                ScenarioRef::Preset {
                    name: "steady-state".into(),
                    smoke: true,
                },
                ScenarioRef::Inline {
                    scenario: inline,
                    smoke: false,
                },
            ],
        }
    }

    #[test]
    fn specs_round_trip_byte_stably() {
        let spec = sample_spec();
        let text = spec.to_jsonl();
        let parsed = LabSpec::parse_jsonl(&text).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.to_jsonl(), text, "canonical form is byte-stable");
    }

    #[test]
    fn smoke_filters_scenarios_and_cells() {
        let spec = sample_spec();
        assert_eq!(spec.run_scenarios(false).len(), 2);
        assert_eq!(spec.run_cells(false).len(), 2);
        let smoke: Vec<&str> = spec.run_scenarios(true).iter().map(|s| s.name()).collect();
        assert_eq!(smoke, ["steady-state"]);
        assert_eq!(spec.run_cells(true), [spec.cells[0]]);
    }

    #[test]
    fn unknown_versions_kinds_modes_and_rules_are_refused() {
        let spec = sample_spec();
        let good = spec.to_jsonl();
        let future = good.replace("\"schema_version\": 1", "\"schema_version\": 2");
        assert!(matches!(
            LabSpec::parse_jsonl(&future),
            Err(LabError::Parse { line: 1, .. })
        ));
        let bad_kind = format!("{good}{{\"kind\": \"mystery\"}}\n");
        assert!(LabSpec::parse_jsonl(&bad_kind).is_err());
        let bad_mode = good.replace("\"mode\": \"ramp\"", "\"mode\": \"warp\"");
        assert!(LabSpec::parse_jsonl(&bad_mode).is_err());
        let bad_rule = good.replace("\"rule\": \"diurnal_wave\"", "\"rule\": \"earthquake\"");
        assert!(LabSpec::parse_jsonl(&bad_rule).is_err());
        // u32 fields out of range are refused, not wrapped: 2^32 + 90
        // would otherwise read as a valid 90.
        let wrapped = good.replace("\"margin_percent\": 90", "\"margin_percent\": 4294967386");
        assert_ne!(wrapped, good);
        assert!(LabSpec::parse_jsonl(&wrapped).is_err());
        assert!(LabSpec::parse_jsonl("").is_err(), "missing header");
    }

    #[test]
    fn validation_refuses_unrunnable_specs() {
        let mut spec = sample_spec();
        spec.scenarios[0] = ScenarioRef::Preset {
            name: "no-such-preset".into(),
            smoke: true,
        };
        assert!(spec.validate().is_err());

        let mut spec = sample_spec();
        spec.cells.retain(|c| !c.smoke);
        assert!(spec.validate().is_err(), "smoke mode must keep a cell");

        let mut spec = sample_spec();
        if let ScenarioRef::Inline { scenario, .. } = &mut spec.scenarios[1] {
            scenario.name = "steady-state".into();
        }
        assert!(spec.validate().is_err(), "duplicate names are refused");

        let mut spec = sample_spec();
        if let RunMode::Ramp(r) = &mut spec.mode {
            r.margin_percent = 140;
        }
        assert!(spec.validate().is_err());
    }

    #[test]
    fn inline_scenarios_resolve_with_the_spec_seed() {
        let spec = sample_spec();
        let resolved = spec.scenarios[1].resolve(7).unwrap();
        assert_eq!(resolved.seed, 7);
        assert_eq!(resolved.name, "custom-rush");
        assert_eq!(resolved.tenants.len(), 3, "preset tenants plus one");
        // Presets resolve through the library.
        let preset = spec.scenarios[0].resolve(7).unwrap();
        assert_eq!(preset, Scenario::preset("steady-state", 7).unwrap());
    }
}
