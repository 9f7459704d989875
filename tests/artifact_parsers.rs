//! Truncated artifacts through their parsers: every durable format the
//! repo reads back goes through the one `workload::jsonl` reader, and a
//! file cut short (a crashed writer, a partial copy) must surface as an
//! `Err`, never as a panic or as a silently shorter line.

use duality::control::Snapshot;
use duality::lab::{parse_chrome_json, to_chrome_json, TraceSlice};
use duality::telemetry::{TelemetryEvent, TenantStats, TenantTelemetry};
use duality::workload::{FamilySpec, TenantRecord};
use duality::{
    AdmissionPolicy, FleetSpec, LabSpec, PoolBytes, Scenario, TelemetrySnapshot, TenantDecl, Trace,
};

/// Feeds every char-boundary prefix of `doc` to `parse`: none may panic,
/// and each one that ends inside a line (the empty one included) must be
/// refused.
fn check_prefixes<T, E>(format: &str, doc: &str, parse: impl Fn(&str) -> Result<T, E>) {
    assert!(parse(doc).is_ok(), "{format}: the full document parses");
    for (cut, _) in doc.char_indices() {
        let mid_line = !doc[..cut].ends_with('\n') && !doc[cut..].starts_with('\n');
        let parsed = parse(&doc[..cut]);
        assert!(
            !mid_line || parsed.is_err(),
            "{format}: the {cut}-byte prefix ends inside a line but parsed"
        );
    }
}

#[test]
fn no_truncated_artifact_panics_its_parser() {
    let trace = Scenario::preset("rush-hour", 3).unwrap().record().unwrap();
    check_prefixes("trace", &trace.to_jsonl(), Trace::parse_jsonl);

    let spec = FleetSpec {
        name: "truncation".into(),
        revision: 3,
        workers: 2,
        shards: 2,
        queue_capacity: 16,
        pool_capacity: 4,
        admission: AdmissionPolicy::Reject,
        tenants: vec![TenantDecl {
            name: "grid".into(),
            record: TenantRecord {
                family: FamilySpec::DiagGrid { w: 5, h: 4 },
                cap_range: (1, 9),
                weight_range: (1, 9),
                graph_seed: 1,
                cap_seed: 2,
                weight_seed: 3,
            },
            prewarm: true,
            derate_percent: 80,
            slo: None,
        }],
    };
    check_prefixes("fleet spec", &spec.to_jsonl(), FleetSpec::parse_jsonl);

    let snapshot = Snapshot {
        schema_version: 1,
        seq: 7,
        spec_hash: spec.spec_hash(),
        converged: true,
        rounds: 2,
        actions: 5,
        spec,
    };
    let text = snapshot.to_jsonl();
    check_prefixes("control snapshot", &text, Snapshot::parse_jsonl);

    let lab_spec = include_str!("../experiments/s10-memory.lab.jsonl");
    check_prefixes("lab spec", lab_spec, LabSpec::parse_jsonl);

    let telemetry = TelemetrySnapshot {
        spans: 3,
        shard_jobs: vec![2, 0, 1],
        phase_us: vec![("bdd".into(), 1_900)],
        pool_bytes: PoolBytes {
            resident: 48_000,
            peak: 64_000,
            evicted: 16_000,
        },
        tenants: vec![TenantTelemetry {
            tenant: 0xabcd,
            name: Some("grid".into()),
            stats: TenantStats::default(),
        }],
        events: vec![TelemetryEvent {
            seq: 0,
            label: "scale-up".into(),
            detail: "2 -> 4".into(),
        }],
        ..TelemetrySnapshot::default()
    };
    let text = telemetry.to_jsonl();
    check_prefixes("telemetry snapshot", &text, TelemetrySnapshot::parse_jsonl);

    let slice = |name: &str, cat: &str, ts_us| TraceSlice {
        name: name.into(),
        cat: cat.into(),
        ts_us,
        dur_us: 7,
        pid: 1,
        tid: 0,
    };
    let slices = [slice("embed", "substrate", 0), slice("max-flow", "job", 9)];
    check_prefixes("chrome trace", &to_chrome_json(&slices), parse_chrome_json);
}
