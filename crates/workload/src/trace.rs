//! Trace record/replay: the durable form of a scenario's traffic.
//!
//! A [`Trace`] is the full event history one [`Scenario`](crate::Scenario)
//! expansion produced: a header naming the scenario, seed, arrival
//! schedule and every tenant's generator parameters, followed by the
//! timestamped respec and query events. Traces serialize to a
//! **versioned JSONL format** (one flat, hand-rolled JSON object per
//! line — same no-serde discipline as the bench harness) via
//! [`Trace::to_jsonl`], parse back with [`Trace::parse_jsonl`], and
//! rebuild their exact instance states with [`Trace::materialize`].
//!
//! Every event carries the [`InstanceKey`](duality_core::pool::InstanceKey)
//! of the spec it ran against; materialization recomputes the key of the
//! instance it rebuilds and refuses the trace on any mismatch
//! ([`WorkloadError::KeyMismatch`]) — so a replayed trace provably runs
//! the recorded problems, and replaying it against any worker/shard
//! configuration reproduces the recorded run bit for bit (the serving
//! engine's determinism contract, extended to whole traffic histories).

use crate::error::WorkloadError;
use crate::jsonl::{family_fields, line, parse_family, Obj, Val};
use crate::scenario::{Arrival, FamilySpec, Mutation, TenantState, TRACE_SCHEMA_VERSION};
use duality_core::{PlanarInstance, Query};
use duality_planar::Weight;
use std::sync::Arc;

/// One tenant's generator parameters, as recorded in a trace header —
/// everything replay needs to rebuild the tenant's base instance bit for
/// bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantRecord {
    /// The planar family.
    pub family: FamilySpec,
    /// Capacity range `[lo, hi]` of the base spec.
    pub cap_range: (Weight, Weight),
    /// Edge-weight range `[lo, hi]` of the base spec.
    pub weight_range: (Weight, Weight),
    /// Seed the graph was built from.
    pub graph_seed: u64,
    /// Seed of the base capacity draw.
    pub cap_seed: u64,
    /// Seed of the base weight draw.
    pub weight_seed: u64,
}

/// The trace preamble: scenario identity plus the tenant fleet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version ([`TRACE_SCHEMA_VERSION`]); parsing rejects
    /// anything else.
    pub schema_version: u64,
    /// Name of the originating scenario.
    pub scenario: String,
    /// The scenario's master seed.
    pub seed: u64,
    /// Logical-clock length of the recording.
    pub ticks: u64,
    /// Arrival schedule the driver should pace by.
    pub arrival: Arrival,
    /// The tenant fleet, indexed by the events' `tenant` field.
    pub tenants: Vec<TenantRecord>,
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A spec mutation: `tenant`'s current instance was respecced.
    Respec {
        /// Virtual timestamp (tick) of the mutation.
        vt: u64,
        /// Tenant index into the header's fleet.
        tenant: usize,
        /// The mutation that was applied.
        mutation: Mutation,
        /// `InstanceKey` of the tenant's spec *after* the mutation
        /// (replay checkpoint).
        key: String,
    },
    /// A query released against `tenant`'s then-current spec.
    Query {
        /// Virtual timestamp (tick) of the release.
        vt: u64,
        /// Tenant index into the header's fleet.
        tenant: usize,
        /// The query.
        query: Query,
        /// Absolute deadline tick, if the scenario set one.
        deadline: Option<u64>,
        /// `InstanceKey` of the spec the query ran against (replay
        /// checkpoint).
        key: String,
    },
}

impl TraceEvent {
    /// The event's virtual timestamp.
    pub fn vt(&self) -> u64 {
        match self {
            TraceEvent::Respec { vt, .. } | TraceEvent::Query { vt, .. } => *vt,
        }
    }
}

/// A recorded traffic history: header + events. See the
/// [module docs](self) for the format and the replay guarantees.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Scenario identity and tenant fleet.
    pub header: TraceHeader,
    /// The events, in release order (non-decreasing `vt`).
    pub events: Vec<TraceEvent>,
}

/// One materialized query job: the event rebuilt into a live instance,
/// ready to submit.
#[derive(Clone, Debug)]
pub struct TraceJob {
    /// Index of the originating event in [`Trace::events`].
    pub event: usize,
    /// Virtual timestamp of the release.
    pub vt: u64,
    /// Tenant index.
    pub tenant: usize,
    /// The rebuilt (key-verified) instance the query runs against.
    pub instance: Arc<PlanarInstance>,
    /// The query.
    pub query: Query,
    /// Absolute deadline tick, if any.
    pub deadline: Option<u64>,
}

impl Trace {
    /// Number of query events.
    pub fn query_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Query { .. }))
            .count()
    }

    /// Number of respec (spec-mutation) events.
    pub fn respec_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Respec { .. }))
            .count()
    }

    /// Replays the spec-mutation stream and rebuilds every query's
    /// instance, verifying each event's recorded
    /// [`InstanceKey`](duality_core::pool::InstanceKey) along
    /// the way. The returned jobs are in event order; instances of
    /// consecutive queries on an unmutated tenant are the same `Arc`.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::KeyMismatch`] when a rebuilt spec differs from
    /// the recording; [`WorkloadError::Planar`] /
    /// [`WorkloadError::Instance`] when a tenant fails to rebuild;
    /// [`WorkloadError::Parse`] when an event references an unknown
    /// tenant.
    pub fn materialize(&self) -> Result<Vec<TraceJob>, WorkloadError> {
        let mut state: Vec<TenantState> = self
            .header
            .tenants
            .iter()
            .map(TenantState::build)
            .collect::<Result<_, _>>()?;
        let mut jobs = Vec::with_capacity(self.query_count());
        for (idx, event) in self.events.iter().enumerate() {
            let tenant = match event {
                TraceEvent::Respec { tenant, .. } | TraceEvent::Query { tenant, .. } => *tenant,
            };
            if tenant >= state.len() {
                return Err(WorkloadError::Parse {
                    line: idx + 1,
                    reason: format!("event references unknown tenant {tenant}"),
                });
            }
            match event {
                TraceEvent::Respec { mutation, key, .. } => {
                    state[tenant].apply(mutation)?;
                    let rebuilt = state[tenant].key();
                    if rebuilt != *key {
                        return Err(WorkloadError::KeyMismatch {
                            event: idx,
                            recorded: key.clone(),
                            rebuilt,
                        });
                    }
                }
                TraceEvent::Query {
                    vt,
                    query,
                    deadline,
                    key,
                    ..
                } => {
                    let rebuilt = state[tenant].key();
                    if rebuilt != *key {
                        return Err(WorkloadError::KeyMismatch {
                            event: idx,
                            recorded: key.clone(),
                            rebuilt,
                        });
                    }
                    jobs.push(TraceJob {
                        event: idx,
                        vt: *vt,
                        tenant,
                        instance: Arc::clone(&state[tenant].current),
                        query: *query,
                        deadline: *deadline,
                    });
                }
            }
        }
        Ok(jobs)
    }

    /// Serializes the trace to its versioned JSONL form: one header
    /// line, one line per tenant, one line per event.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let h = &self.header;
        // The field set is keyed by the arrival *kind*, never a value:
        // a closed-loop header always carries `max_in_flight` (even 0,
        // which the driver clamps), so every trace parses its own
        // serialization.
        let (arrival, rate, in_flight) = match h.arrival {
            Arrival::OpenLoop { queries_per_tick } => ("open", queries_per_tick, None),
            Arrival::ClosedLoop {
                queries_per_tick,
                max_in_flight,
            } => ("closed", queries_per_tick, Some(max_in_flight as u64)),
        };
        line(&mut out, &{
            let mut f = vec![
                ("kind", Val::s("header")),
                ("schema_version", Val::n(h.schema_version)),
                ("scenario", Val::S(h.scenario.clone())),
                ("seed", Val::n(h.seed)),
                ("ticks", Val::n(h.ticks)),
                ("arrival", Val::s(arrival)),
                ("rate", Val::n(rate)),
            ];
            if let Some(m) = in_flight {
                f.push(("max_in_flight", Val::n(m)));
            }
            f
        });
        for (id, t) in h.tenants.iter().enumerate() {
            let mut f = vec![("kind", Val::s("tenant")), ("id", Val::n(id as u64))];
            f.extend(family_fields(&t.family));
            f.extend([
                ("cap_lo", Val::i(t.cap_range.0)),
                ("cap_hi", Val::i(t.cap_range.1)),
                ("weight_lo", Val::i(t.weight_range.0)),
                ("weight_hi", Val::i(t.weight_range.1)),
                ("graph_seed", Val::n(t.graph_seed)),
                ("cap_seed", Val::n(t.cap_seed)),
                ("weight_seed", Val::n(t.weight_seed)),
            ]);
            line(&mut out, &f);
        }
        for event in &self.events {
            match event {
                TraceEvent::Respec {
                    vt,
                    tenant,
                    mutation,
                    key,
                } => {
                    let mut f = vec![
                        ("kind", Val::s("respec")),
                        ("vt", Val::n(*vt)),
                        ("tenant", Val::n(*tenant as u64)),
                    ];
                    f.extend(mutation_fields(mutation));
                    f.push(("key", Val::S(key.clone())));
                    line(&mut out, &f);
                }
                TraceEvent::Query {
                    vt,
                    tenant,
                    query,
                    deadline,
                    key,
                } => {
                    let mut f = vec![
                        ("kind", Val::s("query")),
                        ("vt", Val::n(*vt)),
                        ("tenant", Val::n(*tenant as u64)),
                    ];
                    f.extend(query_fields(query));
                    if let Some(d) = deadline {
                        f.push(("deadline", Val::n(*d)));
                    }
                    f.push(("key", Val::S(key.clone())));
                    line(&mut out, &f);
                }
            }
        }
        out
    }

    /// Parses a trace back from its JSONL form.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Parse`] with the offending 1-based line number —
    /// on malformed JSON, missing fields, unknown kinds, or a
    /// `schema_version` other than [`TRACE_SCHEMA_VERSION`].
    pub fn parse_jsonl(text: &str) -> Result<Trace, WorkloadError> {
        let mut header: Option<TraceHeader> = None;
        let mut events = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            if raw.trim().is_empty() {
                continue;
            }
            let obj = Obj::parse(raw).map_err(|reason| WorkloadError::Parse {
                line: lineno,
                reason,
            })?;
            let fail = |reason: String| WorkloadError::Parse {
                line: lineno,
                reason,
            };
            match obj.str("kind").map_err(fail)? {
                "header" => {
                    let version = obj.u64("schema_version").map_err(fail)?;
                    if version != TRACE_SCHEMA_VERSION {
                        return Err(fail(format!(
                            "unsupported schema_version {version} (expected {TRACE_SCHEMA_VERSION})"
                        )));
                    }
                    let rate = obj.u64("rate").map_err(fail)?;
                    let arrival = match obj.str("arrival").map_err(fail)? {
                        "open" => Arrival::OpenLoop {
                            queries_per_tick: rate,
                        },
                        "closed" => Arrival::ClosedLoop {
                            queries_per_tick: rate,
                            max_in_flight: obj.u64("max_in_flight").map_err(fail)? as usize,
                        },
                        other => return Err(fail(format!("unknown arrival `{other}`"))),
                    };
                    header = Some(TraceHeader {
                        schema_version: version,
                        scenario: obj.str("scenario").map_err(fail)?.to_string(),
                        seed: obj.u64("seed").map_err(fail)?,
                        ticks: obj.u64("ticks").map_err(fail)?,
                        arrival,
                        tenants: Vec::new(),
                    });
                }
                "tenant" => {
                    let header = header.as_mut().ok_or_else(|| WorkloadError::Parse {
                        line: lineno,
                        reason: "tenant line before header".into(),
                    })?;
                    let id = obj.u64("id").map_err(fail)? as usize;
                    if id != header.tenants.len() {
                        return Err(fail(format!(
                            "tenant id {id} out of order (expected {})",
                            header.tenants.len()
                        )));
                    }
                    header.tenants.push(TenantRecord {
                        family: parse_family(&obj).map_err(fail)?,
                        cap_range: (
                            obj.i64("cap_lo").map_err(fail)?,
                            obj.i64("cap_hi").map_err(fail)?,
                        ),
                        weight_range: (
                            obj.i64("weight_lo").map_err(fail)?,
                            obj.i64("weight_hi").map_err(fail)?,
                        ),
                        graph_seed: obj.u64("graph_seed").map_err(fail)?,
                        cap_seed: obj.u64("cap_seed").map_err(fail)?,
                        weight_seed: obj.u64("weight_seed").map_err(fail)?,
                    });
                }
                "respec" => {
                    events.push(TraceEvent::Respec {
                        vt: obj.u64("vt").map_err(fail)?,
                        tenant: obj.u64("tenant").map_err(fail)? as usize,
                        mutation: parse_mutation(&obj).map_err(fail)?,
                        key: obj.str("key").map_err(fail)?.to_string(),
                    });
                }
                "query" => {
                    events.push(TraceEvent::Query {
                        vt: obj.u64("vt").map_err(fail)?,
                        tenant: obj.u64("tenant").map_err(fail)? as usize,
                        query: parse_query(&obj).map_err(fail)?,
                        deadline: obj.opt_u64("deadline").map_err(fail)?,
                        key: obj.str("key").map_err(fail)?.to_string(),
                    });
                }
                other => return Err(fail(format!("unknown line kind `{other}`"))),
            }
        }
        let header = header.ok_or(WorkloadError::Parse {
            line: 1,
            reason: "empty trace: no header line".into(),
        })?;
        Ok(Trace { header, events })
    }
}

// ---------------------------------------------------------------------
// Field encodings (write side). The shared line codec and the family
// encoding live in [`crate::jsonl`]; the mutation/query encodings are
// trace-specific and stay here.

fn mutation_fields(mutation: &Mutation) -> Vec<(&'static str, Val)> {
    match *mutation {
        Mutation::ScaleCapacities { percent } => vec![
            ("mutation", Val::s("scale_caps")),
            ("percent", Val::n(u64::from(percent))),
        ],
        Mutation::EdgeFailures { count, seed } => vec![
            ("mutation", Val::s("edge_failures")),
            ("count", Val::n(count as u64)),
            ("seed", Val::n(seed)),
        ],
        Mutation::WeightSpikes {
            count,
            factor,
            seed,
        } => vec![
            ("mutation", Val::s("weight_spikes")),
            ("count", Val::n(count as u64)),
            ("factor", Val::n(u64::from(factor))),
            ("seed", Val::n(seed)),
        ],
        Mutation::Restore => vec![("mutation", Val::s("restore"))],
    }
}

fn parse_mutation(obj: &Obj) -> Result<Mutation, String> {
    Ok(match obj.str("mutation")? {
        "scale_caps" => Mutation::ScaleCapacities {
            percent: obj.u32("percent")?,
        },
        "edge_failures" => Mutation::EdgeFailures {
            count: obj.u64("count")? as usize,
            seed: obj.u64("seed")?,
        },
        "weight_spikes" => Mutation::WeightSpikes {
            count: obj.u64("count")? as usize,
            factor: obj.u32("factor")?,
            seed: obj.u64("seed")?,
        },
        "restore" => Mutation::Restore,
        other => return Err(format!("unknown mutation `{other}`")),
    })
}

fn query_fields(query: &Query) -> Vec<(&'static str, Val)> {
    match *query {
        Query::MaxFlow { s, t } => vec![
            ("query", Val::s("max_flow")),
            ("s", Val::n(s as u64)),
            ("t", Val::n(t as u64)),
        ],
        Query::MinStCut { s, t } => vec![
            ("query", Val::s("min_st_cut")),
            ("s", Val::n(s as u64)),
            ("t", Val::n(t as u64)),
        ],
        Query::ApproxMaxFlow { s, t, eps_inverse } => vec![
            ("query", Val::s("approx_max_flow")),
            ("s", Val::n(s as u64)),
            ("t", Val::n(t as u64)),
            ("eps_inverse", Val::n(eps_inverse)),
        ],
        Query::ApproxMinStCut { s, t, eps_inverse } => vec![
            ("query", Val::s("approx_min_st_cut")),
            ("s", Val::n(s as u64)),
            ("t", Val::n(t as u64)),
            ("eps_inverse", Val::n(eps_inverse)),
        ],
        Query::GlobalMinCut => vec![("query", Val::s("global_min_cut"))],
        Query::Girth => vec![("query", Val::s("girth"))],
    }
}

fn parse_query(obj: &Obj) -> Result<Query, String> {
    Ok(match obj.str("query")? {
        "max_flow" => Query::MaxFlow {
            s: obj.u64("s")? as usize,
            t: obj.u64("t")? as usize,
        },
        "min_st_cut" => Query::MinStCut {
            s: obj.u64("s")? as usize,
            t: obj.u64("t")? as usize,
        },
        "approx_max_flow" => Query::ApproxMaxFlow {
            s: obj.u64("s")? as usize,
            t: obj.u64("t")? as usize,
            eps_inverse: obj.u64("eps_inverse")?,
        },
        "approx_min_st_cut" => Query::ApproxMinStCut {
            s: obj.u64("s")? as usize,
            t: obj.u64("t")? as usize,
            eps_inverse: obj.u64("eps_inverse")?,
        },
        "global_min_cut" => Query::GlobalMinCut,
        "girth" => Query::Girth,
        other => return Err(format!("unknown query `{other}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;

    #[test]
    fn every_preset_round_trips_through_jsonl() {
        for scenario in Scenario::presets(11) {
            let trace = scenario.record().unwrap();
            let text = trace.to_jsonl();
            let parsed = Trace::parse_jsonl(&text).unwrap();
            assert_eq!(parsed, trace, "{}", scenario.name);
            // And the re-serialization is byte-identical (stable format).
            assert_eq!(parsed.to_jsonl(), text, "{}", scenario.name);
        }
    }

    #[test]
    fn zero_in_flight_closed_loop_round_trips() {
        // `max_in_flight: 0` is representable (the driver clamps it to
        // 1); its serialization must still parse.
        let mut scenario = Scenario::preset("steady-state", 2).unwrap();
        scenario.arrival = crate::scenario::Arrival::ClosedLoop {
            queries_per_tick: 2,
            max_in_flight: 0,
        };
        let trace = scenario.record().unwrap();
        let parsed = Trace::parse_jsonl(&trace.to_jsonl()).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn parser_rejects_bad_input() {
        let bad_version = "{\"kind\": \"header\", \"schema_version\": 999, \"scenario\": \"x\", \
                           \"seed\": 1, \"ticks\": 1, \"arrival\": \"open\", \"rate\": 1}";
        assert!(matches!(
            Trace::parse_jsonl(bad_version),
            Err(WorkloadError::Parse { line: 1, .. })
        ));
        assert!(Trace::parse_jsonl("").is_err(), "no header");
        assert!(Trace::parse_jsonl("not json").is_err());
        assert!(Trace::parse_jsonl("{\"kind\": \"martian\"}").is_err());
        // Tenant line before any header.
        assert!(Trace::parse_jsonl("{\"kind\": \"tenant\", \"id\": 0}").is_err());
        // u32 fields out of range are refused, not wrapped: 2^32 + 50
        // would otherwise read as a valid 50.
        let trace = Scenario::preset("steady-state", 2)
            .unwrap()
            .record()
            .unwrap()
            .to_jsonl();
        let respec = |mutation: &str| {
            format!(
                "{trace}{{\"kind\": \"respec\", \"vt\": 0, \"tenant\": 0, {mutation}, \"key\": \"k\"}}\n"
            )
        };
        for (field, rest) in [
            ("percent", "\"mutation\": \"scale_caps\""),
            (
                "factor",
                "\"mutation\": \"weight_spikes\", \"count\": 1, \"seed\": 1",
            ),
        ] {
            assert!(Trace::parse_jsonl(&respec(&format!("{rest}, \"{field}\": 50"))).is_ok());
            let wrapped = respec(&format!("{rest}, \"{field}\": 4294967346"));
            assert!(Trace::parse_jsonl(&wrapped).is_err(), "{field}");
        }
    }

    #[test]
    fn materialize_verifies_keys_and_rejects_tampering() {
        let trace = Scenario::preset("failover-storm", 4)
            .unwrap()
            .record()
            .unwrap();
        let jobs = trace.materialize().unwrap();
        assert_eq!(jobs.len(), trace.query_count());
        assert!(trace.respec_count() > 0, "storms mutate specs");

        // Tamper with one respec's mutation: the key check must trip.
        let mut tampered = trace.clone();
        let idx = tampered
            .events
            .iter()
            .position(|e| matches!(e, TraceEvent::Respec { .. }))
            .unwrap();
        if let TraceEvent::Respec { mutation, .. } = &mut tampered.events[idx] {
            *mutation = Mutation::ScaleCapacities { percent: 73 };
        }
        assert!(matches!(
            tampered.materialize(),
            Err(WorkloadError::KeyMismatch { .. })
        ));
    }

    #[test]
    fn consecutive_queries_share_instances_until_a_respec() {
        let trace = Scenario::preset("steady-state", 9)
            .unwrap()
            .record()
            .unwrap();
        let jobs = trace.materialize().unwrap();
        // No mutations in steady-state: every job of one tenant shares
        // one Arc.
        for pair in jobs.windows(2) {
            if pair[0].tenant == pair[1].tenant {
                assert!(Arc::ptr_eq(&pair[0].instance, &pair[1].instance));
            }
        }
    }
}
