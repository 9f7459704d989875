//! [`TelemetrySnapshot`]: the ledger's point-in-time export — displayable
//! for operators, serializable as versioned byte-stable JSONL (the
//! shared [`duality_workload::jsonl`] codec) for artifacts and offline
//! analysis.

use crate::ledger::{merge, TenantStats};
use duality_core::pool::PoolBytes;
use duality_service::metrics::LATENCY_BUCKETS;
use duality_service::LatencySnapshot;
use duality_workload::jsonl::{line, Obj, Val};

/// Schema version stamped on every serialized snapshot; parsing refuses
/// other versions.
pub const TELEMETRY_SCHEMA_VERSION: u64 = 1;

/// A telemetry serialization/parse failure (human-readable reason).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryError(pub String);

impl std::fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "telemetry: {}", self.0)
    }
}

impl std::error::Error for TelemetryError {}

/// One tenant's row in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantTelemetry {
    /// The tenant identity (topology fingerprint).
    pub tenant: u64,
    /// Display name, when the caller registered one
    /// ([`crate::Telemetry::name_tenant`]).
    pub name: Option<String>,
    /// Counters and wait/service/total histograms.
    pub stats: TenantStats,
}

impl TenantTelemetry {
    /// The tenant's end-to-end p99 (upper bound), if it executed jobs.
    pub fn p99_total_us(&self) -> Option<u64> {
        self.stats.total.quantile_us(0.99)
    }

    /// The label a human sees: the registered name, else the hex
    /// fingerprint.
    pub fn label(&self) -> String {
        self.name
            .clone()
            .unwrap_or_else(|| format!("{:016x}", self.tenant))
    }
}

/// Everything the telemetry spine knows at one instant: per-tenant
/// attribution, per-shard occupancy, build-phase time, pool bytes and
/// ring accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Spans folded into the ledger.
    pub spans: u64,
    /// Spans the ring sink lost to overwrite when full (job and
    /// build-phase spans alike) — honesty metadata: attribution below is
    /// exact over `spans`, not over every job the engine ever ran.
    pub dropped: u64,
    /// Executed jobs per shard (index = shard).
    pub shard_jobs: Vec<u64>,
    /// Fleet-wide substrate build µs per phase (embed / dual / bdd /
    /// weight-tier / labeling), in phase-name order — aggregated from
    /// build-phase spans, each build billed exactly once.
    pub phase_us: Vec<(String, u64)>,
    /// Fleet-wide solver-pool byte gauges, as last stamped via
    /// [`Telemetry::set_pool_bytes`](crate::Telemetry::set_pool_bytes)
    /// (all 0 until someone stamps them).
    pub pool_bytes: PoolBytes,
    /// Per-tenant rows, in fingerprint order.
    pub tenants: Vec<TenantTelemetry>,
}

impl TelemetrySnapshot {
    /// The row of one tenant fingerprint.
    pub fn tenant(&self, fingerprint: u64) -> Option<&TenantTelemetry> {
        self.tenants.iter().find(|t| t.tenant == fingerprint)
    }

    /// The row of one named tenant.
    pub fn by_name(&self, name: &str) -> Option<&TenantTelemetry> {
        self.tenants
            .iter()
            .find(|t| t.name.as_deref() == Some(name))
    }

    /// All tenants' end-to-end histograms merged (the same population as
    /// the engine's own latency histogram, minus any dropped spans).
    pub fn fleet_total(&self) -> LatencySnapshot {
        let mut out = LatencySnapshot::default();
        for t in &self.tenants {
            merge(&mut out, &t.stats.total);
        }
        out
    }

    /// The worst per-tenant end-to-end p99, with its owner.
    pub fn max_tenant_p99_us(&self) -> Option<(u64, u64)> {
        self.tenants
            .iter()
            .filter_map(|t| t.p99_total_us().map(|p| (t.tenant, p)))
            .max_by_key(|&(_, p)| p)
    }

    /// Serializes to versioned JSONL (byte-stable: parsing and
    /// re-serializing reproduces the exact bytes).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        line(
            &mut out,
            &[
                ("kind", Val::s("telemetry")),
                ("version", Val::n(TELEMETRY_SCHEMA_VERSION)),
                ("spans", Val::n(self.spans)),
                ("dropped", Val::n(self.dropped)),
            ],
        );
        line(
            &mut out,
            &[
                ("kind", Val::s("memory")),
                ("resident_bytes", Val::n(self.pool_bytes.resident)),
                ("peak_bytes", Val::n(self.pool_bytes.peak)),
                ("evicted_bytes", Val::n(self.pool_bytes.evicted)),
            ],
        );
        for (phase, us) in &self.phase_us {
            line(
                &mut out,
                &[
                    ("kind", Val::s("phase")),
                    ("phase", Val::s(phase)),
                    ("us", Val::n(*us)),
                ],
            );
        }
        for (shard, &jobs) in self.shard_jobs.iter().enumerate() {
            line(
                &mut out,
                &[
                    ("kind", Val::s("shard")),
                    ("shard", Val::n(shard as u64)),
                    ("jobs", Val::n(jobs)),
                ],
            );
        }
        for t in &self.tenants {
            let mut fields = vec![("kind", Val::s("tenant")), ("tenant", Val::n(t.tenant))];
            if let Some(name) = &t.name {
                fields.push(("name", Val::s(name)));
            }
            fields.extend([
                ("completed", Val::n(t.stats.completed)),
                ("failed", Val::n(t.stats.failed)),
                ("rejected", Val::n(t.stats.rejected)),
                ("expired", Val::n(t.stats.expired)),
                ("cancelled", Val::n(t.stats.cancelled)),
            ]);
            for (prefix, hist) in [
                ("wait", &t.stats.wait),
                ("service", &t.stats.service),
                ("total", &t.stats.total),
            ] {
                fields.extend(hist_fields(prefix, hist));
            }
            line(&mut out, &fields);
        }
        out
    }

    /// Parses what [`TelemetrySnapshot::to_jsonl`] wrote.
    ///
    /// # Errors
    ///
    /// [`TelemetryError`] on malformed lines, a missing or mismatched
    /// header, or an unknown schema version.
    pub fn parse_jsonl(text: &str) -> Result<TelemetrySnapshot, TelemetryError> {
        let mut snap = TelemetrySnapshot::default();
        let mut saw_header = false;
        for (ln, raw) in text.lines().enumerate() {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let fail = |e: String| TelemetryError(format!("line {}: {e}", ln + 1));
            let obj = Obj::parse(raw).map_err(fail)?;
            match obj.str("kind").map_err(fail)? {
                "telemetry" => {
                    let version = obj.u64("version").map_err(fail)?;
                    if version != TELEMETRY_SCHEMA_VERSION {
                        return Err(fail(format!(
                            "unsupported schema version {version} (expected {TELEMETRY_SCHEMA_VERSION})"
                        )));
                    }
                    snap.spans = obj.u64("spans").map_err(fail)?;
                    snap.dropped = obj.u64("dropped").map_err(fail)?;
                    saw_header = true;
                }
                "memory" => {
                    snap.pool_bytes.resident = obj.u64("resident_bytes").map_err(fail)?;
                    snap.pool_bytes.peak = obj.u64("peak_bytes").map_err(fail)?;
                    snap.pool_bytes.evicted = obj.u64("evicted_bytes").map_err(fail)?;
                }
                "phase" => snap.phase_us.push((
                    obj.str("phase").map_err(fail)?.to_string(),
                    obj.u64("us").map_err(fail)?,
                )),
                "shard" => {
                    // The writer numbers shard lines 0, 1, … in order, so
                    // any other index is a malformed (or hostile) file.
                    let shard = obj.u64("shard").map_err(fail)?;
                    let expected = snap.shard_jobs.len() as u64;
                    if shard != expected {
                        return Err(fail(format!(
                            "shard {shard} out of order (expected {expected})"
                        )));
                    }
                    snap.shard_jobs.push(obj.u64("jobs").map_err(fail)?);
                }
                "tenant" => {
                    let stats = TenantStats {
                        completed: obj.u64("completed").map_err(fail)?,
                        failed: obj.u64("failed").map_err(fail)?,
                        rejected: obj.u64("rejected").map_err(fail)?,
                        expired: obj.u64("expired").map_err(fail)?,
                        cancelled: obj.u64("cancelled").map_err(fail)?,
                        wait: parse_hist(&obj, "wait").map_err(fail)?,
                        service: parse_hist(&obj, "service").map_err(fail)?,
                        total: parse_hist(&obj, "total").map_err(fail)?,
                    };
                    snap.tenants.push(TenantTelemetry {
                        tenant: obj.u64("tenant").map_err(fail)?,
                        name: obj.opt_str("name").map_err(fail)?.map(String::from),
                        stats,
                    });
                }
                other => return Err(fail(format!("unknown line kind `{other}`"))),
            }
        }
        if !saw_header {
            return Err(TelemetryError("missing telemetry header line".into()));
        }
        Ok(snap)
    }
}

/// The canonical field encoding of one histogram under `prefix`: a
/// sparse ascending `idx:count` bucket string plus the three scalars.
fn hist_fields<'a>(prefix: &str, hist: &LatencySnapshot) -> Vec<(&'a str, Val)> {
    let buckets: Vec<String> = hist
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, c)| format!("{i}:{c}"))
        .collect();
    let key = |suffix: &str| -> &'a str {
        // The three prefixes are fixed; map to 'static keys so the
        // shared codec's borrowed-key signature stays simple.
        match (prefix, suffix) {
            ("wait", "hist") => "wait_hist",
            ("wait", "count") => "wait_count",
            ("wait", "sum_us") => "wait_sum_us",
            ("wait", "max_us") => "wait_max_us",
            ("service", "hist") => "service_hist",
            ("service", "count") => "service_count",
            ("service", "sum_us") => "service_sum_us",
            ("service", "max_us") => "service_max_us",
            ("total", "hist") => "total_hist",
            ("total", "count") => "total_count",
            ("total", "sum_us") => "total_sum_us",
            ("total", "max_us") => "total_max_us",
            _ => unreachable!("fixed histogram prefixes"),
        }
    };
    vec![
        (key("hist"), Val::S(buckets.join(","))),
        (key("count"), Val::n(hist.count)),
        (key("sum_us"), Val::n(hist.sum_us)),
        (key("max_us"), Val::n(hist.max_us)),
    ]
}

/// Inverse of [`hist_fields`].
fn parse_hist(obj: &Obj, prefix: &str) -> Result<LatencySnapshot, String> {
    let mut hist = LatencySnapshot {
        count: obj.u64(&format!("{prefix}_count"))?,
        sum_us: obj.u64(&format!("{prefix}_sum_us"))?,
        max_us: obj.u64(&format!("{prefix}_max_us"))?,
        ..LatencySnapshot::default()
    };
    let encoded = obj.str(&format!("{prefix}_hist"))?;
    for pair in encoded.split(',').filter(|p| !p.is_empty()) {
        let (idx, count) = pair
            .split_once(':')
            .ok_or_else(|| format!("bad bucket `{pair}` in `{prefix}_hist`"))?;
        let idx: usize = idx
            .parse()
            .map_err(|_| format!("bad bucket index `{idx}`"))?;
        if idx >= LATENCY_BUCKETS {
            return Err(format!("bucket index {idx} out of range"));
        }
        hist.buckets[idx] = count
            .parse()
            .map_err(|_| format!("bad bucket count `{count}`"))?;
    }
    Ok(hist)
}

impl std::fmt::Display for TelemetrySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "telemetry: {} span(s) attributed, {} dropped; {} tenant(s)",
            self.spans,
            self.dropped,
            self.tenants.len()
        )?;
        if !self.shard_jobs.is_empty() {
            let jobs: Vec<String> = self
                .shard_jobs
                .iter()
                .enumerate()
                .map(|(s, j)| format!("{s}: {j}"))
                .collect();
            writeln!(f, "shard occupancy (executed jobs): {}", jobs.join(", "))?;
        }
        if !self.phase_us.is_empty() {
            let phases: Vec<String> = self
                .phase_us
                .iter()
                .map(|(p, us)| format!("{p} {us}µs"))
                .collect();
            writeln!(f, "substrate build: {}", phases.join(", "))?;
        }
        if self.pool_bytes != PoolBytes::default() {
            writeln!(f, "pool memory: {}", self.pool_bytes)?;
        }
        for t in &self.tenants {
            write!(
                f,
                "  {}: {} ok, {} failed, {} rejected, {} expired, {} cancelled",
                t.label(),
                t.stats.completed,
                t.stats.failed,
                t.stats.rejected,
                t.stats.expired,
                t.stats.cancelled
            )?;
            match (
                t.stats.wait.quantile_us(0.99),
                t.stats.service.quantile_us(0.99),
                t.p99_total_us(),
            ) {
                (Some(w), Some(s), Some(tot)) => {
                    writeln!(f, "; p99 wait ≤ {w}µs, service ≤ {s}µs, total ≤ {tot}µs")?
                }
                _ => writeln!(f)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        let mut wait = LatencySnapshot::default();
        wait.buckets[4] = 3;
        wait.count = 3;
        wait.sum_us = 30;
        wait.max_us = 14;
        let mut service = LatencySnapshot::default();
        service.buckets[11] = 2;
        service.count = 2;
        service.sum_us = 2_400;
        service.max_us = 1_500;
        let mut total = LatencySnapshot::default();
        total.buckets[11] = 2;
        total.count = 2;
        total.sum_us = 2_420;
        total.max_us = 1_512;
        TelemetrySnapshot {
            spans: 4,
            dropped: 1,
            shard_jobs: vec![2, 0],
            phase_us: vec![("bdd".into(), 1_900), ("embed".into(), 120)],
            pool_bytes: PoolBytes {
                resident: 48_000,
                peak: 64_000,
                evicted: 16_000,
            },
            tenants: vec![
                TenantTelemetry {
                    tenant: 0xabcd,
                    name: Some("grid-a".into()),
                    stats: TenantStats {
                        completed: 2,
                        cancelled: 1,
                        wait,
                        service,
                        total,
                        ..TenantStats::default()
                    },
                },
                TenantTelemetry {
                    tenant: 0xff00,
                    name: None,
                    stats: TenantStats {
                        rejected: 1,
                        ..TenantStats::default()
                    },
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trips_byte_stably() {
        let snap = sample();
        let text = snap.to_jsonl();
        let parsed = TelemetrySnapshot::parse_jsonl(&text).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.to_jsonl(), text, "byte-stable re-serialization");
    }

    #[test]
    fn parse_refuses_bad_input() {
        assert!(TelemetrySnapshot::parse_jsonl("").is_err(), "no header");
        assert!(TelemetrySnapshot::parse_jsonl("{\"kind\": \"mystery\"}").is_err());
        let wrong_version = sample()
            .to_jsonl()
            .replace("\"version\": 1", "\"version\": 99");
        let err = TelemetrySnapshot::parse_jsonl(&wrong_version).unwrap_err();
        assert!(err.to_string().contains("unsupported schema version"));
        let bad_bucket = sample()
            .to_jsonl()
            .replace("\"wait_hist\": \"4:3\"", "\"wait_hist\": \"999:3\"");
        assert!(TelemetrySnapshot::parse_jsonl(&bad_bucket).is_err());
        // Shard lines must count up from 0, as the writer numbers them: a
        // lone index 3 would invent three shards, and u64::MAX overflowed
        // the old `shard + 1` resize.
        let header = "{\"kind\": \"telemetry\", \"version\": 1, \"spans\": 0, \"dropped\": 0}\n";
        let event = format!(
            "{header}{{\"kind\": \"event\", \"seq\": 0, \"label\": \"x\", \"detail\": \"y\"}}\n"
        );
        let err = TelemetrySnapshot::parse_jsonl(&event).unwrap_err();
        assert!(err.to_string().contains("unknown line kind `event`"));
        for shard in ["3", "18446744073709551615"] {
            let text =
                format!("{header}{{\"kind\": \"shard\", \"shard\": {shard}, \"jobs\": 1}}\n");
            assert!(
                TelemetrySnapshot::parse_jsonl(&text).is_err(),
                "shard {shard}"
            );
        }
    }

    #[test]
    fn fleet_merges_and_max_p99_attributes() {
        let snap = sample();
        assert_eq!(snap.fleet_total().count, 2);
        let (owner, _) = snap.max_tenant_p99_us().unwrap();
        assert_eq!(owner, 0xabcd, "the only executing tenant owns the p99");
        assert_eq!(snap.by_name("grid-a").unwrap().tenant, 0xabcd);
        assert_eq!(snap.tenant(0xff00).unwrap().label(), "000000000000ff00");
    }

    #[test]
    fn display_is_operator_readable() {
        let text = sample().to_string();
        // The drop counter's surface is pinned: operators (and the drop
        // accounting test in `tests/telemetry_api.rs`) grep this line.
        assert_eq!(
            text.lines().next().unwrap(),
            "telemetry: 4 span(s) attributed, 1 dropped; 2 tenant(s)"
        );
        assert!(text.contains("grid-a: 2 ok"));
        assert!(text.contains("shard occupancy"));
        assert!(text.contains("substrate build: bdd 1900µs, embed 120µs"));
        assert!(text.contains("pool memory: 48000 B resident (peak 64000 B, evicted 16000 B)"));
    }

    #[test]
    fn snapshots_without_memory_or_phase_lines_still_parse() {
        // Pre-profiling artifacts (schema v1 without the new line kinds)
        // must keep parsing: the gauges default to zero.
        let mut old = String::new();
        for l in sample().to_jsonl().lines() {
            if !l.contains("\"memory\"") && !l.contains("\"phase\"") {
                old.push_str(l);
                old.push('\n');
            }
        }
        let parsed = TelemetrySnapshot::parse_jsonl(&old).unwrap();
        assert_eq!(parsed.phase_us, Vec::new());
        assert_eq!(parsed.pool_bytes, PoolBytes::default());
        assert_eq!(parsed.tenants, sample().tenants);
    }
}
