//! Integration tests of the scenario workload subsystem through the
//! `duality` façade: trace round-trip, and the record → replay
//! determinism contract across the worker × shard sweep.

use duality::workload::driver::{self, DriverConfig};
use duality::workload::{Scenario, Trace, TraceEvent, WorkloadError, PRESET_NAMES};

/// The headline contract: one recorded trace, replayed against every
/// worker/shard configuration of the engine, produces outcome
/// fingerprint sequences identical to each other *and* to serial
/// `PlanarSolver::run` ground truth.
#[test]
fn trace_replay_is_deterministic_across_worker_shard_sweep() {
    let trace = Scenario::preset("failover-storm", 13)
        .unwrap()
        .record()
        .unwrap();
    let serial = driver::run_serial(&trace).unwrap();
    assert_eq!(serial.fingerprints.len(), trace.query_count());
    for workers in [1usize, 2, 4] {
        for shards in [1usize, 2, 4] {
            let report = driver::drive(
                &trace,
                &DriverConfig {
                    workers,
                    shards,
                    ..DriverConfig::default()
                },
            )
            .unwrap();
            assert_eq!(report.failed, 0, "{workers}w/{shards}s: nothing fails");
            let replayed: Vec<u64> = report
                .fingerprints
                .iter()
                .map(|f| f.expect("deadline-free replays complete every job"))
                .collect();
            assert_eq!(
                replayed, serial.fingerprints,
                "{workers} workers / {shards} shards must replay bit-for-bit"
            );
            assert_eq!(report.metrics.completed as usize, trace.query_count());
        }
    }
}

/// A replayed trace that went through the JSONL round-trip first is the
/// same traffic: parse(serialize(trace)) drives to the same outcomes.
#[test]
fn serialized_traces_replay_identically() {
    let trace = Scenario::preset("respec-heavy", 29)
        .unwrap()
        .record()
        .unwrap();
    let restored = Trace::parse_jsonl(&trace.to_jsonl()).unwrap();
    assert_eq!(restored, trace);
    let a = driver::run_serial(&trace).unwrap();
    let b = driver::run_serial(&restored).unwrap();
    assert_eq!(a.fingerprints, b.fingerprints);
    assert_eq!(
        (a.query_rounds, a.substrate_rounds, a.solvers),
        (b.query_rounds, b.substrate_rounds, b.solvers)
    );
}

/// Round-trip parse fidelity for every preset, plus the versioning and
/// tamper guards of the format.
#[test]
fn trace_round_trip_and_format_guards() {
    for name in PRESET_NAMES {
        let trace = Scenario::preset(name, 17).unwrap().record().unwrap();
        let text = trace.to_jsonl();
        let parsed = Trace::parse_jsonl(&text).unwrap();
        assert_eq!(parsed, trace, "{name}: lossless round-trip");
        assert_eq!(parsed.to_jsonl(), text, "{name}: stable re-serialization");
        assert!(parsed.materialize().is_ok(), "{name}: keys verify");

        // Version guard: a bumped schema_version is refused.
        let bumped = text.replacen("\"schema_version\": 1", "\"schema_version\": 2", 1);
        assert!(
            matches!(
                Trace::parse_jsonl(&bumped),
                Err(WorkloadError::Parse { line: 1, .. })
            ),
            "{name}: unknown versions are refused"
        );
    }

    // Tamper guard: rewriting a recorded event key breaks materialization.
    let trace = Scenario::preset("failover-storm", 17)
        .unwrap()
        .record()
        .unwrap();
    let mut tampered = trace.clone();
    for event in &mut tampered.events {
        if let TraceEvent::Query { key, .. } = event {
            *key = "0000000000000000/0000000000000000".into();
            break;
        }
    }
    assert!(matches!(
        tampered.materialize(),
        Err(WorkloadError::KeyMismatch { .. })
    ));
}

/// The scenario layer is reachable through the façade re-exports, and
/// recording is a pure function of (description, seed).
#[test]
fn facade_reexports_and_recording_determinism() {
    let scenario: duality::Scenario = Scenario::preset("multi-tenant-skew", 3).unwrap();
    let a: duality::Trace = scenario.record().unwrap();
    let b = scenario.record().unwrap();
    assert_eq!(a, b);
    let _config = duality::DriverConfig::default();
    // All seven presets exist and mix families/mutations as documented.
    assert_eq!(Scenario::presets(3).len(), 7);
}
