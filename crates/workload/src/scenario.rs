//! The declarative scenario model: tenant fleets, mutation streams,
//! query mixes and arrival schedules, all under one seed.
//!
//! A [`Scenario`] is a *description* of traffic, not the traffic itself:
//! calling [`Scenario::record`] expands it — deterministically, from its
//! seed — into a [`Trace`] of timestamped events
//! that can be serialized, replayed and driven through the serving
//! engine. Two records of the same scenario are identical event for
//! event, which is what lets the replay determinism contract extend from
//! single jobs to whole traffic histories.

use crate::error::WorkloadError;
use crate::trace::{TenantRecord, Trace, TraceEvent, TraceHeader};
use duality_core::pool::InstanceKey;
use duality_core::{PlanarInstance, Query};
use duality_planar::{gen, PlanarError, PlanarGraph, Weight};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The trace format version written by [`Scenario::record`] and required
/// by [`Trace::parse_jsonl`](crate::trace::Trace::parse_jsonl).
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// A named planar family with its size parameters — the generator side of
/// `duality_planar::gen`, as plain data so a trace header can name the
/// exact graph a tenant runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FamilySpec {
    /// [`gen::grid`]: a `w × h` grid.
    Grid {
        /// Grid width.
        w: usize,
        /// Grid height.
        h: usize,
    },
    /// [`gen::diag_grid`]: a `w × h` grid with one random diagonal per
    /// cell.
    DiagGrid {
        /// Grid width.
        w: usize,
        /// Grid height.
        h: usize,
    },
    /// [`gen::apollonian`]: a stacked triangulation on `n` vertices.
    Apollonian {
        /// Vertex count (≥ 3).
        n: usize,
    },
    /// [`gen::outerplanar`]: a polygon plus non-crossing chords.
    Outerplanar {
        /// Vertex count (≥ 3).
        n: usize,
        /// Full triangulation (`true`) or a sparser random chord set.
        full: bool,
    },
    /// [`gen::sparse_grid`]: a connected random subgraph of a diagonal
    /// grid thinned to `target_m` edges.
    SparseGrid {
        /// Grid width.
        w: usize,
        /// Grid height.
        h: usize,
        /// Edge count to thin down to (keep ≥ `w*h` so cycles survive
        /// and girth queries stay answerable).
        target_m: usize,
    },
}

impl FamilySpec {
    /// Builds the family member selected by `seed`.
    ///
    /// # Errors
    ///
    /// Propagates the generator's [`PlanarError`] (e.g. an empty grid
    /// dimension).
    pub fn build(&self, seed: u64) -> Result<PlanarGraph, PlanarError> {
        match *self {
            FamilySpec::Grid { w, h } => gen::grid(w, h),
            FamilySpec::DiagGrid { w, h } => gen::diag_grid(w, h, seed),
            FamilySpec::Apollonian { n } => gen::apollonian(n, seed),
            FamilySpec::Outerplanar { n, full } => gen::outerplanar(n, seed, full),
            FamilySpec::SparseGrid { w, h, target_m } => gen::sparse_grid(w, h, target_m, seed),
        }
    }

    /// Human-readable family label (used in trace provenance and rows).
    pub fn label(&self) -> String {
        match *self {
            FamilySpec::Grid { w, h } => format!("grid {w}x{h}"),
            FamilySpec::DiagGrid { w, h } => format!("diag-grid {w}x{h}"),
            FamilySpec::Apollonian { n } => format!("apollonian {n}"),
            FamilySpec::Outerplanar { n, full } => {
                format!("outerplanar {n}{}", if full { " full" } else { "" })
            }
            FamilySpec::SparseGrid { w, h, target_m } => {
                format!("sparse-grid {w}x{h}/{target_m}")
            }
        }
    }
}

/// One tenant of a scenario: a family plus the ranges its base spec is
/// drawn from. The concrete seeds are derived from the scenario seed at
/// record time and written into the trace header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantSpec {
    /// The planar family this tenant's network is drawn from.
    pub family: FamilySpec,
    /// Capacity range `[lo, hi]` of the base spec (undirected draw).
    pub cap_range: (Weight, Weight),
    /// Edge-weight range `[lo, hi]` of the base spec.
    pub weight_range: (Weight, Weight),
}

impl TenantSpec {
    /// A tenant with the default serving ranges (capacities and weights
    /// in `[1, 9]`).
    pub fn of(family: FamilySpec) -> TenantSpec {
        TenantSpec {
            family,
            cap_range: (1, 9),
            weight_range: (1, 9),
        }
    }
}

/// How generated queries arrive at the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// Open loop: `queries_per_tick` jobs are released at each step of
    /// the logical clock regardless of completion — the driver submits
    /// without waiting, so queue depth reflects the offered load.
    OpenLoop {
        /// Jobs released per virtual tick.
        queries_per_tick: u64,
    },
    /// Closed loop: the same logical-clock release order, but the driver
    /// keeps at most `max_in_flight` jobs outstanding, harvesting the
    /// oldest ticket before submitting past the bound.
    ClosedLoop {
        /// Jobs released per virtual tick.
        queries_per_tick: u64,
        /// Bound on outstanding (submitted, unresolved) jobs.
        max_in_flight: usize,
    },
}

impl Arrival {
    /// Jobs released per tick under either schedule.
    pub fn queries_per_tick(&self) -> u64 {
        match *self {
            Arrival::OpenLoop { queries_per_tick }
            | Arrival::ClosedLoop {
                queries_per_tick, ..
            } => queries_per_tick,
        }
    }
}

/// Relative frequencies of the six query kinds (zero disables a kind).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryMix {
    /// Weight of [`Query::MaxFlow`].
    pub max_flow: u32,
    /// Weight of [`Query::MinStCut`].
    pub min_st_cut: u32,
    /// Weight of [`Query::ApproxMaxFlow`] (endpoints on a shared face).
    pub approx_max_flow: u32,
    /// Weight of [`Query::ApproxMinStCut`] (endpoints on a shared face).
    pub approx_min_st_cut: u32,
    /// Weight of [`Query::GlobalMinCut`].
    pub global_min_cut: u32,
    /// Weight of [`Query::Girth`].
    pub girth: u32,
}

impl QueryMix {
    /// All six kinds, equally likely.
    pub fn uniform() -> QueryMix {
        QueryMix {
            max_flow: 1,
            min_st_cut: 1,
            approx_max_flow: 1,
            approx_min_st_cut: 1,
            global_min_cut: 1,
            girth: 1,
        }
    }

    /// Flow/cut-heavy mix (the storm-response profile).
    pub fn flow_heavy() -> QueryMix {
        QueryMix {
            max_flow: 4,
            min_st_cut: 3,
            approx_max_flow: 2,
            approx_min_st_cut: 1,
            global_min_cut: 1,
            girth: 1,
        }
    }

    /// Weight-query-heavy mix (girth + global cut dominate — the respec
    /// stressor, since both live on the weight tier).
    pub fn weight_heavy() -> QueryMix {
        QueryMix {
            max_flow: 1,
            min_st_cut: 1,
            approx_max_flow: 0,
            approx_min_st_cut: 0,
            global_min_cut: 3,
            girth: 4,
        }
    }

    fn total(&self) -> u32 {
        self.max_flow
            + self.min_st_cut
            + self.approx_max_flow
            + self.approx_min_st_cut
            + self.global_min_cut
            + self.girth
    }

    /// Draws one kind index (0..6 in declaration order) from the mix.
    fn pick(&self, rng: &mut StdRng) -> u32 {
        let total = self.total().max(1);
        let mut draw = rng.gen_range(0..total);
        for (i, w) in [
            self.max_flow,
            self.min_st_cut,
            self.approx_max_flow,
            self.approx_min_st_cut,
            self.global_min_cut,
            self.girth,
        ]
        .into_iter()
        .enumerate()
        {
            if draw < w {
                return i as u32;
            }
            draw -= w;
        }
        5 // all-zero mix degenerates to girth
    }
}

/// One concrete spec mutation, as recorded in a trace event. Replay
/// applies the same mutation to the same tenant state, so the rebuilt
/// instance is bit-for-bit the recorded one (checked against the
/// recorded [`InstanceKey`]). All mutations go through the instance's
/// copy-on-write respec path, so every derived spec shares its tenant's
/// graph allocation — and its topology substrate in the pools.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Capacities set to `percent`% of the tenant's **base** spec (the
    /// diurnal wave / storm derate; weights are untouched).
    ScaleCapacities {
        /// Percentage of the base capacities (100 restores the base
        /// capacity side).
        percent: u32,
    },
    /// `count` seeded random edges of the **current** spec fail: both
    /// darts' capacities drop to zero (weights are untouched).
    EdgeFailures {
        /// Edges to fail (draws may repeat; duplicates are harmless).
        count: usize,
        /// Seed of the edge draw, recorded so replay fails the same
        /// edges.
        seed: u64,
    },
    /// `count` seeded random edges of the **current** spec get their
    /// weight multiplied by `factor` (capacities are untouched).
    WeightSpikes {
        /// Edges to spike.
        count: usize,
        /// Multiplier applied to each spiked edge's weight.
        factor: u32,
        /// Seed of the edge draw.
        seed: u64,
    },
    /// Both sides reset to the tenant's base spec (the storm passes).
    Restore,
}

impl Mutation {
    /// Applies the mutation to a tenant's `(base, current)` state and
    /// returns the new current instance (copy-on-write: the graph
    /// allocation is shared throughout).
    ///
    /// # Errors
    ///
    /// Propagates instance validation errors (impossible for the vectors
    /// this method constructs from valid inputs, but typed anyway).
    pub fn apply(
        &self,
        base: &Arc<PlanarInstance>,
        current: &Arc<PlanarInstance>,
    ) -> Result<Arc<PlanarInstance>, duality_core::DualityError> {
        match *self {
            Mutation::ScaleCapacities { percent } => {
                let caps: Vec<Weight> = base
                    .capacities()
                    .iter()
                    .map(|&c| c * Weight::from(percent) / 100)
                    .collect();
                current.with_capacities(caps)
            }
            Mutation::EdgeFailures { count, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut caps = current.capacities().to_vec();
                for _ in 0..count {
                    let e = rng.gen_range(0..current.m());
                    caps[2 * e] = 0;
                    caps[2 * e + 1] = 0;
                }
                current.with_capacities(caps)
            }
            Mutation::WeightSpikes {
                count,
                factor,
                seed,
            } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut weights = current.edge_weights().to_vec();
                for _ in 0..count {
                    let e = rng.gen_range(0..current.m());
                    weights[e] = weights[e].saturating_mul(Weight::from(factor));
                }
                current.with_edge_weights(weights)
            }
            Mutation::Restore => current
                .with_capacities(base.capacities().to_vec())?
                .with_edge_weights(base.edge_weights().to_vec()),
        }
    }
}

/// A rule producing [`Mutation`] events over the logical clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationRule {
    /// Diurnal capacity wave: every quarter period, every tenant's
    /// capacities are rescaled to a triangle wave between 100% and
    /// `trough_percent`% of its base spec.
    DiurnalWave {
        /// Wave period in ticks.
        period: u64,
        /// Capacity floor at the trough, in percent of the base.
        trough_percent: u32,
    },
    /// Every `every` ticks, one randomly chosen tenant loses `count`
    /// random edges (capacities to zero).
    RandomFailures {
        /// Tick interval between failure injections.
        every: u64,
        /// Edges failed per injection.
        count: usize,
    },
    /// Every `every` ticks, one randomly chosen tenant gets `count` edge
    /// weights multiplied by `factor`.
    RandomWeightSpikes {
        /// Tick interval between spike injections.
        every: u64,
        /// Edges spiked per injection.
        count: usize,
        /// Weight multiplier.
        factor: u32,
    },
    /// A storm: at tick `at`, every tenant is derated to `percent`% and
    /// loses two random edges (a respec burst); `duration` ticks later
    /// every tenant is restored to its base spec.
    Storm {
        /// Tick the storm makes landfall.
        at: u64,
        /// Ticks until the restore burst.
        duration: u64,
        /// Derate level during the storm, in percent of the base.
        percent: u32,
    },
}

impl MutationRule {
    /// The mutations this rule emits at `tick`, as `(tenant, mutation)`
    /// pairs (`None` tenant = every tenant). Draws come from the shared
    /// scenario stream, so rule order is part of the recorded identity.
    fn fire(&self, tick: u64, tenants: usize, rng: &mut StdRng) -> Vec<(Option<usize>, Mutation)> {
        match *self {
            MutationRule::DiurnalWave {
                period,
                trough_percent,
            } => {
                let step = (period / 4).max(1);
                if period == 0 || !tick.is_multiple_of(step) {
                    return Vec::new();
                }
                let pos = tick % period;
                let half = (period / 2).max(1);
                let span = u64::from(100 - trough_percent.min(100));
                let drop = if pos <= half {
                    span * pos / half
                } else {
                    span * (period - pos) / half
                };
                vec![(
                    None,
                    Mutation::ScaleCapacities {
                        percent: (100 - drop) as u32,
                    },
                )]
            }
            MutationRule::RandomFailures { every, count } => {
                if every == 0 || tick == 0 || !tick.is_multiple_of(every) {
                    return Vec::new();
                }
                let tenant = rng.gen_range(0..tenants);
                let seed = u64::from(rng.gen_range(0..u32::MAX));
                vec![(Some(tenant), Mutation::EdgeFailures { count, seed })]
            }
            MutationRule::RandomWeightSpikes {
                every,
                count,
                factor,
            } => {
                if every == 0 || tick == 0 || !tick.is_multiple_of(every) {
                    return Vec::new();
                }
                let tenant = rng.gen_range(0..tenants);
                let seed = u64::from(rng.gen_range(0..u32::MAX));
                vec![(
                    Some(tenant),
                    Mutation::WeightSpikes {
                        count,
                        factor,
                        seed,
                    },
                )]
            }
            MutationRule::Storm {
                at,
                duration,
                percent,
            } => {
                if tick == at {
                    let mut out = vec![(None, Mutation::ScaleCapacities { percent })];
                    for t in 0..tenants {
                        let seed = u64::from(rng.gen_range(0..u32::MAX));
                        out.push((Some(t), Mutation::EdgeFailures { count: 2, seed }));
                    }
                    out
                } else if tick == at + duration {
                    vec![(None, Mutation::Restore)]
                } else {
                    Vec::new()
                }
            }
        }
    }
}

/// A declarative, seeded traffic scenario: tenant fleets × mutation
/// stream × query mix × arrival schedule over a logical clock.
///
/// # Example
///
/// ```
/// use duality_workload::Scenario;
///
/// let scenario = Scenario::preset("steady-state", 7).unwrap();
/// let trace = scenario.record().unwrap();
/// // Same seed, same trace — recording is deterministic.
/// assert_eq!(trace, scenario.record().unwrap());
/// assert!(!trace.events.is_empty());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name (preset name, or anything for custom scenarios).
    pub name: String,
    /// The master seed: everything — graphs, specs, event stream — is a
    /// pure function of this value and the scenario description.
    pub seed: u64,
    /// The tenant fleet.
    pub tenants: Vec<TenantSpec>,
    /// Length of the logical clock, in ticks.
    pub ticks: u64,
    /// Arrival schedule (open- or closed-loop).
    pub arrival: Arrival,
    /// Relative frequencies of the six query kinds.
    pub mix: QueryMix,
    /// Spec-mutation rules evaluated at every tick, in order.
    pub mutations: Vec<MutationRule>,
    /// Tenant selection skew: tenant 0 is drawn `tenant_skew`× as often
    /// as each other tenant (1 = uniform).
    pub tenant_skew: u32,
    /// Per-query deadline in ticks after release (`None`: no deadline).
    pub deadline_ticks: Option<u64>,
}

/// Names of the seven preset scenarios, in presentation order.
pub const PRESET_NAMES: [&str; 7] = [
    "steady-state",
    "rush-hour",
    "failover-storm",
    "multi-tenant-skew",
    "cold-start",
    "respec-heavy",
    "cancellation-storm",
];

impl Scenario {
    /// The named preset, or `None` for an unknown name. See
    /// [`PRESET_NAMES`] for the library:
    ///
    /// * `steady-state` — three grid tenants, uniform six-kind mix, no
    ///   mutations: the throughput baseline.
    /// * `rush-hour` — diurnal capacity wave with an elevated open-loop
    ///   rate and deadlines: the peak-load profile.
    /// * `failover-storm` — a storm derate + edge-failure burst followed
    ///   by a restore, over a flow/cut-heavy mix.
    /// * `multi-tenant-skew` — four different families with tenant 0
    ///   drawing 6× the traffic: the hot-shard profile.
    /// * `cold-start` — eight single-visit tenants: every query is a
    ///   pool miss, measuring uncached substrate cost.
    /// * `respec-heavy` — closed-loop weight-query traffic under a fast
    ///   wave plus weight spikes: the respec-reuse stressor.
    /// * `cancellation-storm` — a front-loaded open-loop burst sized to
    ///   pile jobs deep into the queue. The trace schema has no cancel
    ///   event — cancellation is an act on a live
    ///   [`Ticket`](duality_service::Ticket) (its `cancel` method), not
    ///   part of recorded traffic — so this preset supplies the
    ///   adversarial *substrate*:
    ///   drive it, then cancel a slice of the queued tickets mid-flight
    ///   to stress the cancelled terminal path (span emission, metrics
    ///   reconciliation, queue skip-and-drop).
    pub fn preset(name: &str, seed: u64) -> Option<Scenario> {
        let diag = |w, h| TenantSpec::of(FamilySpec::DiagGrid { w, h });
        let s = match name {
            "steady-state" => Scenario {
                name: name.into(),
                seed,
                tenants: vec![diag(6, 5), diag(6, 5), diag(5, 5)],
                ticks: 8,
                arrival: Arrival::OpenLoop {
                    queries_per_tick: 3,
                },
                mix: QueryMix::uniform(),
                mutations: vec![],
                tenant_skew: 1,
                deadline_ticks: None,
            },
            "rush-hour" => Scenario {
                name: name.into(),
                seed,
                tenants: vec![diag(7, 5), diag(6, 5)],
                ticks: 12,
                arrival: Arrival::OpenLoop {
                    queries_per_tick: 4,
                },
                mix: QueryMix::flow_heavy(),
                mutations: vec![MutationRule::DiurnalWave {
                    period: 8,
                    trough_percent: 60,
                }],
                tenant_skew: 1,
                deadline_ticks: Some(8),
            },
            "failover-storm" => Scenario {
                name: name.into(),
                seed,
                tenants: vec![diag(6, 5), diag(6, 5), diag(5, 5)],
                ticks: 12,
                arrival: Arrival::OpenLoop {
                    queries_per_tick: 3,
                },
                mix: QueryMix::flow_heavy(),
                mutations: vec![
                    MutationRule::Storm {
                        at: 4,
                        duration: 4,
                        percent: 40,
                    },
                    MutationRule::RandomFailures { every: 3, count: 2 },
                ],
                tenant_skew: 1,
                deadline_ticks: None,
            },
            "multi-tenant-skew" => Scenario {
                name: name.into(),
                seed,
                tenants: vec![
                    diag(6, 5),
                    TenantSpec::of(FamilySpec::Apollonian { n: 32 }),
                    TenantSpec::of(FamilySpec::Outerplanar { n: 20, full: true }),
                    TenantSpec::of(FamilySpec::SparseGrid {
                        w: 6,
                        h: 5,
                        target_m: 40,
                    }),
                ],
                ticks: 10,
                arrival: Arrival::OpenLoop {
                    queries_per_tick: 4,
                },
                mix: QueryMix::uniform(),
                mutations: vec![],
                tenant_skew: 6,
                deadline_ticks: None,
            },
            "cold-start" => Scenario {
                name: name.into(),
                seed,
                tenants: vec![diag(5, 4); 8],
                ticks: 8,
                arrival: Arrival::OpenLoop {
                    queries_per_tick: 2,
                },
                mix: QueryMix::uniform(),
                mutations: vec![],
                tenant_skew: 1,
                deadline_ticks: None,
            },
            "respec-heavy" => Scenario {
                name: name.into(),
                seed,
                tenants: vec![diag(6, 5), diag(6, 5)],
                ticks: 12,
                arrival: Arrival::ClosedLoop {
                    queries_per_tick: 2,
                    max_in_flight: 4,
                },
                mix: QueryMix::weight_heavy(),
                mutations: vec![
                    MutationRule::DiurnalWave {
                        period: 4,
                        trough_percent: 50,
                    },
                    MutationRule::RandomWeightSpikes {
                        every: 2,
                        count: 3,
                        factor: 5,
                    },
                ],
                tenant_skew: 1,
                deadline_ticks: None,
            },
            "cancellation-storm" => Scenario {
                name: name.into(),
                seed,
                tenants: vec![diag(6, 5), diag(5, 5)],
                ticks: 4,
                arrival: Arrival::OpenLoop {
                    queries_per_tick: 8,
                },
                mix: QueryMix::uniform(),
                mutations: vec![],
                tenant_skew: 1,
                deadline_ticks: None,
            },
            _ => return None,
        };
        Some(s)
    }

    /// All seven presets, in [`PRESET_NAMES`] order.
    pub fn presets(seed: u64) -> Vec<Scenario> {
        PRESET_NAMES
            .iter()
            .map(|name| Scenario::preset(name, seed).expect("preset names are exhaustive"))
            .collect()
    }

    /// Expands the scenario into its event trace — the deterministic
    /// record of every spec mutation and query it generates, with each
    /// event stamped by its virtual timestamp and the [`InstanceKey`] of
    /// the spec it runs against.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Planar`] / [`WorkloadError::Instance`] when a
    /// tenant's family or base spec fails to build (a misconfigured
    /// custom scenario; the presets always build).
    pub fn record(&self) -> Result<Trace, WorkloadError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut tenant_records = Vec::with_capacity(self.tenants.len());
        let mut state = Vec::with_capacity(self.tenants.len());
        for (i, spec) in self.tenants.iter().enumerate() {
            // Seeds are derived, not drawn, so adding rules or mixes to a
            // scenario never reshuffles which graphs its tenants run on.
            let graph_seed = self.seed.wrapping_mul(31).wrapping_add(1 + 3 * i as u64);
            let record = TenantRecord {
                family: spec.family,
                cap_range: spec.cap_range,
                weight_range: spec.weight_range,
                graph_seed,
                cap_seed: graph_seed.wrapping_add(1),
                weight_seed: graph_seed.wrapping_add(2),
            };
            state.push(TenantState::build(&record)?);
            tenant_records.push(record);
        }

        let mut events = Vec::new();
        for tick in 0..self.ticks {
            for rule in &self.mutations {
                for (target, mutation) in rule.fire(tick, state.len(), &mut rng) {
                    let targets: Vec<usize> = match target {
                        Some(t) => vec![t],
                        None => (0..state.len()).collect(),
                    };
                    for t in targets {
                        state[t].apply(&mutation)?;
                        events.push(TraceEvent::Respec {
                            vt: tick,
                            tenant: t,
                            mutation,
                            key: state[t].key(),
                        });
                    }
                }
            }
            for _ in 0..self.arrival.queries_per_tick() {
                let tenant = self.pick_tenant(&mut rng);
                let query = state[tenant].pick_query(&self.mix, &mut rng);
                events.push(TraceEvent::Query {
                    vt: tick,
                    tenant,
                    query,
                    deadline: self.deadline_ticks.map(|d| tick + d),
                    key: state[tenant].key(),
                });
            }
        }

        Ok(Trace {
            header: TraceHeader {
                schema_version: TRACE_SCHEMA_VERSION,
                scenario: self.name.clone(),
                seed: self.seed,
                ticks: self.ticks,
                arrival: self.arrival,
                tenants: tenant_records,
            },
            events,
        })
    }

    fn pick_tenant(&self, rng: &mut StdRng) -> usize {
        let k = self.tenants.len();
        debug_assert!(k > 0, "scenarios need at least one tenant");
        let skew = u64::from(self.tenant_skew.max(1));
        let total = skew + (k as u64 - 1);
        let draw = rng.gen_range(0..total);
        if draw < skew {
            0
        } else {
            (draw - skew + 1) as usize
        }
    }
}

/// The evolving per-tenant state shared by recording and replay: the
/// base instance, the current (possibly mutated) instance, and the
/// vertex set of the largest face (the "outer" boundary the approximate
/// st-planar queries draw their endpoints from).
pub(crate) struct TenantState {
    pub(crate) base: Arc<PlanarInstance>,
    pub(crate) current: Arc<PlanarInstance>,
    boundary: Vec<usize>,
}

impl TenantState {
    pub(crate) fn build(record: &TenantRecord) -> Result<TenantState, WorkloadError> {
        let g = record.family.build(record.graph_seed)?;
        let caps = gen::random_undirected_capacities(
            g.num_edges(),
            record.cap_range.0,
            record.cap_range.1,
            record.cap_seed,
        );
        let weights = gen::random_edge_weights(
            g.num_edges(),
            record.weight_range.0,
            record.weight_range.1,
            record.weight_seed,
        );
        // Largest face as the shared boundary — the same convention the
        // experiment harness uses for st-planar endpoints.
        let outer = g
            .faces()
            .max_by_key(|&f| g.face_darts(f).len())
            .expect("nonempty graphs have faces");
        let mut boundary: Vec<usize> = g.face_darts(outer).iter().map(|&d| g.tail(d)).collect();
        boundary.sort_unstable();
        boundary.dedup();
        let base = PlanarInstance::new(g, Some(caps), Some(weights))?;
        Ok(TenantState {
            current: Arc::clone(&base),
            base,
            boundary,
        })
    }

    pub(crate) fn apply(&mut self, mutation: &Mutation) -> Result<(), WorkloadError> {
        self.current = mutation.apply(&self.base, &self.current)?;
        Ok(())
    }

    pub(crate) fn key(&self) -> String {
        InstanceKey::of(&self.current).to_string()
    }

    /// Draws one query against the current spec. Exact st-queries use
    /// any two distinct vertices; approximate st-planar queries draw
    /// both endpoints from the shared boundary face (falling back to an
    /// exact max flow when the boundary is degenerate).
    fn pick_query(&self, mix: &QueryMix, rng: &mut StdRng) -> Query {
        let n = self.current.n();
        let kind = mix.pick(rng);
        let distinct_pair = |rng: &mut StdRng, pool: &[usize]| {
            let a = pool[rng.gen_range(0..pool.len())];
            loop {
                let b = pool[rng.gen_range(0..pool.len())];
                if b != a {
                    return (a, b);
                }
            }
        };
        let all: Vec<usize> = (0..n).collect();
        match kind {
            0 => {
                let (s, t) = distinct_pair(rng, &all);
                Query::MaxFlow { s, t }
            }
            1 => {
                let (s, t) = distinct_pair(rng, &all);
                Query::MinStCut { s, t }
            }
            2 | 3 => {
                if self.boundary.len() < 2 {
                    let (s, t) = distinct_pair(rng, &all);
                    return Query::MaxFlow { s, t };
                }
                let (s, t) = distinct_pair(rng, &self.boundary);
                let eps_inverse = [1u64, 2, 4, 8][rng.gen_range(0..4usize)];
                if kind == 2 {
                    Query::ApproxMaxFlow { s, t, eps_inverse }
                } else {
                    Query::ApproxMinStCut { s, t, eps_inverse }
                }
            }
            4 => Query::GlobalMinCut,
            _ => Query::Girth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_cover_the_library_and_record_deterministically() {
        assert_eq!(Scenario::presets(3).len(), PRESET_NAMES.len());
        for scenario in Scenario::presets(3) {
            let a = scenario.record().unwrap();
            let b = scenario.record().unwrap();
            assert_eq!(a, b, "{}: record must be deterministic", scenario.name);
            let queries = a
                .events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Query { .. }))
                .count() as u64;
            assert_eq!(
                queries,
                scenario.ticks * scenario.arrival.queries_per_tick(),
                "{}: open/closed loops release rate × ticks queries",
                scenario.name
            );
        }
        assert!(Scenario::preset("no-such-preset", 1).is_none());
    }

    #[test]
    fn rush_hour_stamps_every_query_eight_ticks_out() {
        let scenario = Scenario::preset("rush-hour", 5).unwrap();
        assert_eq!(scenario.deadline_ticks, Some(8));
        let trace = scenario.record().unwrap();
        let mut queries = 0;
        for e in &trace.events {
            if let TraceEvent::Query { vt, deadline, .. } = e {
                assert_eq!(*deadline, Some(vt + 8), "every query is due 8 ticks out");
                queries += 1;
            }
        }
        assert_eq!(queries, 12 * 4, "twelve ticks of four");
    }

    #[test]
    fn seeds_change_the_trace() {
        let a = Scenario::preset("steady-state", 1)
            .unwrap()
            .record()
            .unwrap();
        let b = Scenario::preset("steady-state", 2)
            .unwrap()
            .record()
            .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn mutations_respect_cow_and_restore() {
        let record = TenantRecord {
            family: FamilySpec::DiagGrid { w: 5, h: 4 },
            cap_range: (1, 9),
            weight_range: (1, 9),
            graph_seed: 11,
            cap_seed: 12,
            weight_seed: 13,
        };
        let mut state = TenantState::build(&record).unwrap();
        let base_key = state.key();
        state
            .apply(&Mutation::ScaleCapacities { percent: 50 })
            .unwrap();
        assert_ne!(state.key(), base_key);
        assert!(Arc::ptr_eq(
            state.base.graph_arc(),
            state.current.graph_arc()
        ));
        state
            .apply(&Mutation::EdgeFailures { count: 3, seed: 7 })
            .unwrap();
        assert!(state.current.capacities().contains(&0));
        state
            .apply(&Mutation::WeightSpikes {
                count: 2,
                factor: 5,
                seed: 8,
            })
            .unwrap();
        state.apply(&Mutation::Restore).unwrap();
        assert_eq!(state.key(), base_key, "restore rebuilds the base spec");
        assert_eq!(state.current.capacities(), state.base.capacities());
        assert_eq!(state.current.edge_weights(), state.base.edge_weights());
    }

    #[test]
    fn skew_prefers_tenant_zero() {
        let scenario = Scenario::preset("multi-tenant-skew", 5).unwrap();
        let trace = scenario.record().unwrap();
        let mut counts = vec![0usize; scenario.tenants.len()];
        for e in &trace.events {
            if let TraceEvent::Query { tenant, .. } = e {
                counts[*tenant] += 1;
            }
        }
        let rest: usize = counts[1..].iter().sum();
        assert!(
            counts[0] > rest,
            "tenant 0 should dominate a 6× skew: {counts:?}"
        );
    }

    #[test]
    fn wave_percent_stays_in_band() {
        let rule = MutationRule::DiurnalWave {
            period: 8,
            trough_percent: 60,
        };
        let mut rng = StdRng::seed_from_u64(0);
        for tick in 0..32 {
            for (_, m) in rule.fire(tick, 2, &mut rng) {
                let Mutation::ScaleCapacities { percent } = m else {
                    panic!("waves only rescale");
                };
                assert!((60..=100).contains(&percent), "tick {tick}: {percent}");
            }
        }
    }
}
