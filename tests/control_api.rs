//! Integration tests of the control plane through the public meta-crate:
//! spec round trips, bounded convergence, live reconfiguration, and
//! crash recovery from hash-guarded snapshots.

use duality::control::{Snapshot, FLEET_SCHEMA_VERSION, MAX_RECONCILE_ROUNDS};
use duality::workload::{FamilySpec, TenantRecord};
use duality::{
    Action, AdmissionPolicy, ControlError, FleetSpec, InstanceKey, Query, Reconciler, Slo,
    StateStore, TenantDecl,
};
use std::path::PathBuf;
use std::sync::Arc;

fn tenant(name: &str, family: FamilySpec, seed: u64) -> TenantDecl {
    TenantDecl {
        name: name.to_string(),
        record: TenantRecord {
            family,
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

fn fleet() -> FleetSpec {
    FleetSpec {
        name: "itest".into(),
        revision: 1,
        workers: 2,
        shards: 2,
        queue_capacity: 32,
        pool_capacity: 8,
        admission: AdmissionPolicy::Block,
        tenants: vec![
            tenant("grid", FamilySpec::DiagGrid { w: 5, h: 4 }, 1),
            tenant("mesh", FamilySpec::Apollonian { n: 8 }, 2),
            TenantDecl {
                prewarm: false,
                ..tenant("cold", FamilySpec::Grid { w: 3, h: 3 }, 3)
            },
        ],
    }
}

fn temp_store(tag: &str) -> (StateStore, PathBuf) {
    let path = std::env::temp_dir().join(format!(
        "duality-control-api-{tag}-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    (StateStore::new(path.clone()), path)
}

#[test]
fn spec_round_trip_survives_the_meta_crate_surface() {
    let mut spec = fleet();
    spec.tenants[0].slo = Some(Slo {
        max_p99_us: Some(250_000),
        max_queue_depth: Some(16),
    });
    spec.validate().unwrap();
    assert_eq!(FLEET_SCHEMA_VERSION, 1);
    let text = spec.to_jsonl();
    let parsed = FleetSpec::parse_jsonl(&text).unwrap();
    assert_eq!(parsed, spec);
    assert_eq!(parsed.to_jsonl(), text);
    assert_eq!(parsed.spec_hash(), spec.spec_hash());
}

#[test]
fn a_pushed_spec_converges_within_the_budget() {
    let mut fleet_ctl = Reconciler::launch(fleet()).unwrap();
    let report = fleet_ctl.reconcile().unwrap();
    assert!(report.converged, "{report:?}");
    assert!(report.rounds <= MAX_RECONCILE_ROUNDS, "bounded: {report:?}");

    // Prewarmed tenants answer without a cold build through the queue;
    // the un-prewarmed one stays cold until traffic arrives.
    let obs = fleet_ctl.observe();
    let by_name = |n: &str| obs.tenants.iter().find(|t| t.name == n).unwrap();
    assert!(by_name("grid").resident && by_name("mesh").resident);
    assert!(!by_name("cold").resident);

    let grid = Arc::clone(fleet_ctl.instance("grid").unwrap());
    let outcome = fleet_ctl
        .engine()
        .run(
            &grid,
            Query::MaxFlow {
                s: 0,
                t: grid.n() - 1,
            },
        )
        .unwrap();
    assert!(matches!(outcome, duality::Outcome::MaxFlow(_)));

    // Storm push: derate one region, scale the fleet, flip admission —
    // one declarative edit, one converged pass.
    let mut storm = fleet_ctl.spec().clone();
    storm.revision += 1;
    storm.workers = 4;
    storm.admission = AdmissionPolicy::Reject;
    storm.tenants[0].derate_percent = 50;
    let report = fleet_ctl.push(storm).unwrap();
    assert!(report.converged, "{report:?}");
    assert!(report
        .actions
        .iter()
        .any(|a| matches!(a, Action::DerateRegion { percent: 50, .. })));
    assert_eq!(fleet_ctl.engine().metrics().workers, 4);
    assert_eq!(fleet_ctl.engine().admission(), AdmissionPolicy::Reject);

    // The derated instance really is a COW respec: queries against it
    // reuse the base's topology substrate on its home shard.
    let derated = Arc::clone(fleet_ctl.instance("grid").unwrap());
    assert!(Arc::ptr_eq(grid.graph_arc(), derated.graph_arc()));
    let (a, b) = (
        fleet_ctl.engine().solver(&grid),
        fleet_ctl.engine().solver(&derated),
    );
    assert!(Arc::ptr_eq(a.topo_substrate(), b.topo_substrate()));
    fleet_ctl.shutdown();
}

#[test]
fn restart_from_snapshot_converges_to_the_same_state() {
    let (store, path) = temp_store("restart");
    let mut first = Reconciler::launch(fleet()).unwrap();
    first.attach_store(store);
    let mut spec = first.spec().clone();
    spec.revision += 1;
    spec.workers = 3;
    spec.tenants[1].derate_percent = 70;
    first.push(spec.clone()).unwrap();
    let before: Vec<InstanceKey> = fleet()
        .tenants
        .iter()
        .map(|t| InstanceKey::of(first.instance(&t.name).unwrap()))
        .collect();
    first.shutdown();

    // A new controller process: resume from the snapshot alone.
    let mut second = Reconciler::resume(StateStore::new(path.clone())).unwrap();
    assert_eq!(second.spec(), &spec, "snapshot restored the spec in force");
    let report = second.reconcile().unwrap();
    assert!(report.converged, "{report:?}");

    // Same spec → same desired instances (content-identical keys) and
    // the same warm set.
    let after: Vec<InstanceKey> = fleet()
        .tenants
        .iter()
        .map(|t| InstanceKey::of(second.instance(&t.name).unwrap()))
        .collect();
    assert_eq!(after, before);
    let obs = second.observe();
    assert_eq!(obs.workers_live, 3);
    for t in &obs.tenants {
        let wanted = spec
            .tenants
            .iter()
            .find(|d| d.name == t.name)
            .unwrap()
            .prewarm;
        assert_eq!(t.resident, wanted, "{}", t.name);
    }
    second.shutdown();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn snapshots_are_byte_stable_and_tamper_refused() {
    let (store, path) = temp_store("tamper");
    let mut ctl = Reconciler::launch(fleet()).unwrap();
    ctl.attach_store(store);
    ctl.reconcile().unwrap();
    ctl.shutdown();

    let text = std::fs::read_to_string(&path).unwrap();
    let snap = Snapshot::parse_jsonl(&text).unwrap();
    assert_eq!(snap.to_jsonl(), text, "stored snapshot is canonical");
    assert!(snap.converged && snap.seq == 1);
    assert_eq!(snap.spec_hash, fleet().spec_hash());

    // Tamper with the payload: a quietly edited worker count is refused.
    let tampered = text.replacen("\"workers\": 2", "\"workers\": 8", 1);
    std::fs::write(&path, &tampered).unwrap();
    let err = Reconciler::resume(StateStore::new(path.clone())).unwrap_err();
    assert!(matches!(err, ControlError::HashMismatch { .. }), "{err}");

    // Unknown snapshot schema version is refused before hashing.
    let future = text.replacen("\"schema_version\": 1", "\"schema_version\": 9", 1);
    std::fs::write(&path, &future).unwrap();
    let err = Reconciler::resume(StateStore::new(path.clone())).unwrap_err();
    assert!(matches!(err, ControlError::Parse { .. }), "{err}");

    // And an empty store refuses resume by name.
    std::fs::remove_file(&path).unwrap();
    let err = Reconciler::resume(StateStore::new(path.clone())).unwrap_err();
    assert!(matches!(err, ControlError::MissingSnapshot { .. }), "{err}");
}
