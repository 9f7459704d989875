//! The declarative fleet spec: desired serving state as one validated,
//! content-hashed, durable value.
//!
//! A [`FleetSpec`] says what the fleet *should* look like — engine shape
//! (workers, shards, queue and pool capacities, admission policy) and the
//! tenant roster (graph family + spec ranges via
//! [`TenantRecord`], prewarm membership, derate level, per-tenant SLOs).
//! It serializes to the same canonical JSONL the trace format uses
//! ([`FleetSpec::to_jsonl`] / [`FleetSpec::parse_jsonl`], byte-stable
//! round trip), and [`FleetSpec::spec_hash`] fingerprints that canonical
//! form — the hash the [`StateStore`](crate::StateStore) re-derives on
//! load to refuse tampered snapshots.

use crate::error::ControlError;
use duality_service::AdmissionPolicy;
use duality_workload::jsonl::{family_fields, line, parse_family, Obj, Val};
use duality_workload::TenantRecord;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

/// Fleet-spec serialization format version; parsing refuses anything
/// else.
pub const FLEET_SCHEMA_VERSION: u64 = 1;

/// Per-tenant service-level objectives, checked against live metrics on
/// every reconcile observation. A violation never blocks convergence —
/// it is *reported* (counted per observation round in
/// [`ConvergenceReport::slo_violations`](crate::ConvergenceReport)), so
/// operators see pressure without the controller thrashing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slo {
    /// Upper bound on the observed p99 latency, in microseconds.
    pub max_p99_us: Option<u64>,
    /// Upper bound on the observed queue depth.
    pub max_queue_depth: Option<usize>,
}

/// One tenant's desired state: who it is (a replayable
/// [`TenantRecord`]), whether its solver should be kept warm, how far
/// its region is derated, and what service level it is owed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantDecl {
    /// Unique tenant name (the operator-facing handle).
    pub name: String,
    /// Generator parameters — rebuilds the tenant's base instance bit
    /// for bit (same recipe as trace replay).
    pub record: TenantRecord,
    /// Keep this tenant's solver resident in its home shard pool.
    pub prewarm: bool,
    /// Capacity derate in percent of the base spec, `1..=100`; 100 means
    /// the base spec itself. Applied through the copy-on-write respec
    /// path, so a derated spec shares its base's graph allocation and
    /// topology substrate.
    pub derate_percent: u32,
    /// Service-level objectives, if this tenant has any.
    pub slo: Option<Slo>,
}

/// The desired serving state of one fleet. See the [module docs](self).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetSpec {
    /// Fleet name (operator-facing; part of the hashed identity).
    pub name: String,
    /// Operator-chosen revision counter — bump it on every edit so two
    /// specs with identical content but different intent still compare
    /// (and hash) differently.
    pub revision: u64,
    /// Desired worker-thread count.
    pub workers: usize,
    /// Pool shard count. Engine-build-time only: changing it on a live
    /// reconciler is refused with
    /// [`ControlError::RequiresRebuild`].
    pub shards: usize,
    /// Job-queue capacity. Engine-build-time only, like `shards`.
    pub queue_capacity: usize,
    /// Per-shard solver-pool capacity. Engine-build-time only.
    pub pool_capacity: usize,
    /// Desired admission policy.
    pub admission: AdmissionPolicy,
    /// The tenant roster.
    pub tenants: Vec<TenantDecl>,
}

impl FleetSpec {
    /// Checks the spec for internal consistency: nonempty unique names,
    /// positive sizes, derate in `1..=100`, ordered generator ranges,
    /// and SLOs that bound at least one thing.
    ///
    /// # Errors
    ///
    /// [`ControlError::InvalidSpec`] naming the first violation.
    pub fn validate(&self) -> Result<(), ControlError> {
        let fail = |reason: String| Err(ControlError::InvalidSpec { reason });
        if self.name.is_empty() {
            return fail("fleet name is empty".into());
        }
        if self.workers == 0 || self.shards == 0 {
            return fail("workers and shards must be ≥ 1".into());
        }
        if self.queue_capacity == 0 || self.pool_capacity == 0 {
            return fail("queue and pool capacities must be ≥ 1".into());
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if t.name.is_empty() {
                return fail(format!("tenant {i} has an empty name"));
            }
            if self.tenants[..i].iter().any(|u| u.name == t.name) {
                return fail(format!("duplicate tenant name `{}`", t.name));
            }
            if t.derate_percent == 0 || t.derate_percent > 100 {
                return fail(format!(
                    "tenant `{}`: derate_percent {} outside 1..=100",
                    t.name, t.derate_percent
                ));
            }
            let r = &t.record;
            if r.cap_range.0 > r.cap_range.1 || r.weight_range.0 > r.weight_range.1 {
                return fail(format!("tenant `{}`: range lo > hi", t.name));
            }
            if r.cap_range.0 < 1 || r.weight_range.0 < 1 {
                return fail(format!("tenant `{}`: ranges must start ≥ 1", t.name));
            }
            if let Some(slo) = &t.slo {
                if slo.max_p99_us.is_none() && slo.max_queue_depth.is_none() {
                    return fail(format!("tenant `{}`: SLO bounds nothing", t.name));
                }
            }
        }
        Ok(())
    }

    /// The spec's content hash: a fingerprint of its canonical JSONL
    /// form. Deterministic across runs and processes (the canonical form
    /// is byte-stable and the hasher is keyed with constants), so a
    /// snapshot written by one controller run verifies in the next.
    pub fn spec_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        h.write(self.to_jsonl().as_bytes());
        h.finish()
    }

    /// Serializes the spec to canonical JSONL: one fleet line, one line
    /// per tenant. Byte-stable: `parse_jsonl(to_jsonl(s)).to_jsonl() ==
    /// to_jsonl(s)`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        line(
            &mut out,
            &[
                ("kind", Val::s("fleet")),
                ("schema_version", Val::n(FLEET_SCHEMA_VERSION)),
                ("name", Val::S(self.name.clone())),
                ("revision", Val::n(self.revision)),
                ("workers", Val::n(self.workers as u64)),
                ("shards", Val::n(self.shards as u64)),
                ("queue_capacity", Val::n(self.queue_capacity as u64)),
                ("pool_capacity", Val::n(self.pool_capacity as u64)),
                (
                    "admission",
                    Val::s(match self.admission {
                        AdmissionPolicy::Reject => "reject",
                        AdmissionPolicy::Block => "block",
                    }),
                ),
            ],
        );
        for (id, t) in self.tenants.iter().enumerate() {
            let mut f = vec![
                ("kind", Val::s("tenant")),
                ("id", Val::n(id as u64)),
                ("name", Val::S(t.name.clone())),
            ];
            f.extend(family_fields(&t.record.family));
            f.extend([
                ("cap_lo", Val::i(t.record.cap_range.0)),
                ("cap_hi", Val::i(t.record.cap_range.1)),
                ("weight_lo", Val::i(t.record.weight_range.0)),
                ("weight_hi", Val::i(t.record.weight_range.1)),
                ("graph_seed", Val::n(t.record.graph_seed)),
                ("cap_seed", Val::n(t.record.cap_seed)),
                ("weight_seed", Val::n(t.record.weight_seed)),
                ("prewarm", Val::n(u64::from(t.prewarm))),
                ("derate_percent", Val::n(u64::from(t.derate_percent))),
            ]);
            if let Some(slo) = &t.slo {
                if let Some(p99) = slo.max_p99_us {
                    f.push(("slo_p99_us", Val::n(p99)));
                }
                if let Some(depth) = slo.max_queue_depth {
                    f.push(("slo_queue_depth", Val::n(depth as u64)));
                }
            }
            line(&mut out, &f);
        }
        out
    }

    /// Parses a spec back from its JSONL form.
    ///
    /// # Errors
    ///
    /// [`ControlError::Parse`] with the offending 1-based line number —
    /// on malformed JSON, missing fields, unknown kinds, out-of-order
    /// tenant ids, or a `schema_version` other than
    /// [`FLEET_SCHEMA_VERSION`].
    pub fn parse_jsonl(text: &str) -> Result<FleetSpec, ControlError> {
        let mut spec: Option<FleetSpec> = None;
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            if raw.trim().is_empty() {
                continue;
            }
            let obj = Obj::parse(raw).map_err(|reason| ControlError::Parse {
                line: lineno,
                reason,
            })?;
            let fail = |reason: String| ControlError::Parse {
                line: lineno,
                reason,
            };
            match obj.str("kind").map_err(fail)? {
                "fleet" => {
                    let version = obj.u64("schema_version").map_err(fail)?;
                    if version != FLEET_SCHEMA_VERSION {
                        return Err(fail(format!(
                            "unsupported schema_version {version} (expected {FLEET_SCHEMA_VERSION})"
                        )));
                    }
                    spec = Some(FleetSpec {
                        name: obj.str("name").map_err(fail)?.to_string(),
                        revision: obj.u64("revision").map_err(fail)?,
                        workers: obj.u64("workers").map_err(fail)? as usize,
                        shards: obj.u64("shards").map_err(fail)? as usize,
                        queue_capacity: obj.u64("queue_capacity").map_err(fail)? as usize,
                        pool_capacity: obj.u64("pool_capacity").map_err(fail)? as usize,
                        admission: match obj.str("admission").map_err(fail)? {
                            "reject" => AdmissionPolicy::Reject,
                            "block" => AdmissionPolicy::Block,
                            other => return Err(fail(format!("unknown admission `{other}`"))),
                        },
                        tenants: Vec::new(),
                    });
                }
                "tenant" => {
                    let spec = spec.as_mut().ok_or_else(|| ControlError::Parse {
                        line: lineno,
                        reason: "tenant line before fleet header".into(),
                    })?;
                    let id = obj.u64("id").map_err(fail)? as usize;
                    if id != spec.tenants.len() {
                        return Err(fail(format!(
                            "tenant id {id} out of order (expected {})",
                            spec.tenants.len()
                        )));
                    }
                    let slo_p99 = obj.opt_u64("slo_p99_us").map_err(fail)?;
                    let slo_depth = obj.opt_u64("slo_queue_depth").map_err(fail)?;
                    spec.tenants.push(TenantDecl {
                        name: obj.str("name").map_err(fail)?.to_string(),
                        record: TenantRecord {
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
                        },
                        prewarm: obj.u64("prewarm").map_err(fail)? != 0,
                        derate_percent: obj.u32("derate_percent").map_err(fail)?,
                        slo: (slo_p99.is_some() || slo_depth.is_some()).then_some(Slo {
                            max_p99_us: slo_p99,
                            max_queue_depth: slo_depth.map(|d| d as usize),
                        }),
                    });
                }
                other => return Err(fail(format!("unknown line kind `{other}`"))),
            }
        }
        spec.ok_or(ControlError::Parse {
            line: 1,
            reason: "empty spec: no fleet line".into(),
        })
    }
}

impl std::fmt::Display for FleetSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fleet `{}` r{}: {} worker(s) / {} shard(s), queue {}, pool {}, {:?} admission, {} tenant(s)",
            self.name,
            self.revision,
            self.workers,
            self.shards,
            self.queue_capacity,
            self.pool_capacity,
            self.admission,
            self.tenants.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duality_workload::FamilySpec;

    fn tenant(name: &str, seed: u64) -> TenantDecl {
        TenantDecl {
            name: name.to_string(),
            record: TenantRecord {
                family: FamilySpec::DiagGrid { w: 4, h: 4 },
                cap_range: (1, 9),
                weight_range: (1, 9),
                graph_seed: seed,
                cap_seed: seed + 100,
                weight_seed: seed + 200,
            },
            prewarm: true,
            derate_percent: 100,
            slo: None,
        }
    }

    fn spec() -> FleetSpec {
        FleetSpec {
            name: "test-fleet".into(),
            revision: 1,
            workers: 2,
            shards: 2,
            queue_capacity: 16,
            pool_capacity: 8,
            admission: AdmissionPolicy::Block,
            tenants: vec![
                TenantDecl {
                    derate_percent: 60,
                    slo: Some(Slo {
                        max_p99_us: Some(50_000),
                        max_queue_depth: None,
                    }),
                    ..tenant("grid-a", 1)
                },
                tenant("grid-b", 2),
            ],
        }
    }

    #[test]
    fn round_trip_is_byte_stable_and_hash_deterministic() {
        let s = spec();
        s.validate().unwrap();
        let text = s.to_jsonl();
        let parsed = FleetSpec::parse_jsonl(&text).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.to_jsonl(), text, "byte-stable re-serialization");
        assert_eq!(parsed.spec_hash(), s.spec_hash());
        // The hash tracks content: any edit moves it.
        let mut edited = s.clone();
        edited.revision += 1;
        assert_ne!(edited.spec_hash(), s.spec_hash());
        let mut derated = s.clone();
        derated.tenants[1].derate_percent = 40;
        assert_ne!(derated.spec_hash(), s.spec_hash());
        assert!(s.to_string().contains("test-fleet"));
    }

    type Break = Box<dyn Fn(&mut FleetSpec)>;

    #[test]
    fn validation_names_the_violation() {
        let cases: Vec<(Break, &str)> = vec![
            (Box::new(|s| s.name.clear()), "name is empty"),
            (Box::new(|s| s.workers = 0), "workers"),
            (Box::new(|s| s.pool_capacity = 0), "capacities"),
            (
                Box::new(|s| s.tenants[1].name = "grid-a".into()),
                "duplicate tenant",
            ),
            (
                Box::new(|s| s.tenants[0].derate_percent = 0),
                "derate_percent",
            ),
            (
                Box::new(|s| s.tenants[0].derate_percent = 150),
                "derate_percent",
            ),
            (
                Box::new(|s| s.tenants[0].record.cap_range = (9, 1)),
                "lo > hi",
            ),
            (
                Box::new(|s| s.tenants[0].record.weight_range = (0, 5)),
                "≥ 1",
            ),
            (
                Box::new(|s| {
                    s.tenants[0].slo = Some(Slo {
                        max_p99_us: None,
                        max_queue_depth: None,
                    });
                }),
                "bounds nothing",
            ),
        ];
        for (mutate, needle) in cases {
            let mut s = spec();
            mutate(&mut s);
            let err = s.validate().unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn parser_rejects_bad_input() {
        assert!(FleetSpec::parse_jsonl("").is_err(), "no fleet line");
        assert!(FleetSpec::parse_jsonl("not json").is_err());
        assert!(FleetSpec::parse_jsonl("{\"kind\": \"martian\"}").is_err());
        // Tenant before header.
        assert!(FleetSpec::parse_jsonl("{\"kind\": \"tenant\", \"id\": 0}").is_err());
        // Unknown schema version.
        let future =
            spec()
                .to_jsonl()
                .replacen("\"schema_version\": 1", "\"schema_version\": 999", 1);
        let err = FleetSpec::parse_jsonl(&future).unwrap_err();
        assert!(matches!(err, ControlError::Parse { line: 1, .. }), "{err}");
        // Out-of-order tenant ids.
        let shuffled = spec().to_jsonl().replacen("\"id\": 0", "\"id\": 7", 1);
        assert!(FleetSpec::parse_jsonl(&shuffled).is_err());
        // Unknown admission value.
        let weird =
            spec()
                .to_jsonl()
                .replacen("\"admission\": \"block\"", "\"admission\": \"maybe\"", 1);
        assert!(FleetSpec::parse_jsonl(&weird).is_err());
        // An out-of-range percent is refused, not wrapped: 2^32 + 80
        // would otherwise read as a valid 80.
        let wrapped = spec().to_jsonl().replacen(
            "\"derate_percent\": 100",
            "\"derate_percent\": 4294967376",
            1,
        );
        assert!(FleetSpec::parse_jsonl(&wrapped).is_err());
    }

    #[test]
    fn slo_fields_are_optional_and_partial() {
        let mut s = spec();
        s.tenants[1].slo = Some(Slo {
            max_p99_us: None,
            max_queue_depth: Some(4),
        });
        let parsed = FleetSpec::parse_jsonl(&s.to_jsonl()).unwrap();
        assert_eq!(parsed, s);
    }
}
