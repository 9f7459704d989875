//! Telemetry spine for the duality serving stack: job lifecycle spans
//! in, per-tenant truth out.
//!
//! The serving engine measures itself in aggregate — one fleet-wide
//! latency histogram, one set of lifecycle counters
//! ([`duality_service::MetricsSnapshot`]). That is enough to see *that*
//! the fleet is slow, and structurally unable to say *who* is slow or
//! *where* the time went. This crate closes both gaps on top of the
//! engine's span emission hooks
//! ([`duality_service::span`]):
//!
//! * **[`RingSink`]** ([`ring`]) — the hot-path buffer: a fixed-capacity
//!   overwrite-oldest ring the engine's workers record
//!   [`SpanRecord`](duality_service::SpanRecord)s into. Every critical
//!   section is O(1), so a worker waits at most a few pushes; only
//!   overflow drops spans (counted, reported in every snapshot), and a
//!   ring with room keeps every span.
//! * **[`TenantLedger`]** ([`ledger`]) — attribution: folds spans into
//!   per-tenant lifecycle counters and three log₂ histograms —
//!   queue-wait, service-time, end-to-end — so p50/p99/max exist per
//!   tenant and per phase of a job's life, plus per-shard occupancy.
//! * **[`TelemetrySnapshot`]** ([`snapshot`]) — the export: displayable,
//!   and serialized as versioned byte-stable JSONL through the shared
//!   [`duality_workload::jsonl`] codec.
//! * **[`Telemetry`]** — the handle tying them together: owns the ring
//!   and the ledger, polls one into the other, and is what the lab
//!   runner attaches to an engine.
//!
//! # Example
//!
//! ```
//! use duality_core::{PlanarInstance, Query};
//! use duality_planar::gen;
//! use duality_service::ServiceEngine;
//! use duality_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::new(1024);
//! let engine = ServiceEngine::builder()
//!     .workers(2)
//!     .span_sink(telemetry.sink())
//!     .build()
//!     .unwrap();
//!
//! let g = gen::diag_grid(4, 4, 7).unwrap();
//! let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 7);
//! let instance = PlanarInstance::new(g, Some(caps), None).unwrap();
//! telemetry.name_tenant(&instance, "demo");
//!
//! engine.run(&instance, Query::Girth).unwrap();
//! engine.shutdown();
//!
//! let snap = telemetry.snapshot();
//! let tenant = snap.by_name("demo").unwrap();
//! assert_eq!(tenant.stats.completed, 1);
//! assert!(tenant.stats.wait.count == 1 && tenant.stats.service.count == 1);
//! println!("{snap}");
//! ```

pub mod ledger;
pub mod ring;
pub mod snapshot;

pub use ledger::{TenantLedger, TenantStats};
pub use ring::RingSink;
pub use snapshot::{TelemetryError, TelemetrySnapshot, TenantTelemetry, TELEMETRY_SCHEMA_VERSION};

use duality_core::pool::{InstanceKey, PoolBytes};
use duality_core::PlanarInstance;
use duality_service::span::SpanSink;
use std::sync::{Arc, Mutex};

/// The telemetry handle: a shareable ring sink (give [`Telemetry::sink`]
/// to the engine builder) plus the ledger it drains into. All methods
/// take `&self`; the ledger sits behind a mutex touched only by
/// telemetry consumers — never by the engine's workers, whose sole
/// telemetry surface is the ring's O(1) record under its buffer lock.
pub struct Telemetry {
    ring: Arc<RingSink>,
    ledger: Mutex<TenantLedger>,
    /// Pool byte gauges, stamped by whoever polls the engine's metrics
    /// ([`Telemetry::set_pool_bytes`]) — the engine pushes spans but the
    /// pool gauges are pulled, so the spine carries them alongside.
    pool_bytes: Mutex<PoolBytes>,
}

impl Telemetry {
    /// A telemetry spine whose ring buffers at most `ring_capacity`
    /// spans between polls. Size it to the burst you expect between
    /// polls: a full ring overwrites its oldest span and counts the drop.
    pub fn new(ring_capacity: usize) -> Telemetry {
        Telemetry {
            ring: Arc::new(RingSink::new(ring_capacity)),
            ledger: Mutex::new(TenantLedger::new()),
            pool_bytes: Mutex::default(),
        }
    }

    /// The sink to attach via
    /// [`EngineBuilder::span_sink`](duality_service::EngineBuilder::span_sink).
    pub fn sink(&self) -> Arc<dyn SpanSink> {
        Arc::clone(&self.ring) as Arc<dyn SpanSink>
    }

    /// The underlying ring (drop accounting, capacity).
    pub fn ring(&self) -> &RingSink {
        &self.ring
    }

    /// Drains both rings into the ledger; returns how many spans (job +
    /// build-phase) were folded. [`Telemetry::snapshot`] polls first.
    pub fn poll(&self) -> usize {
        let spans = self.ring.drain();
        let phases = self.ring.drain_phases();
        let mut ledger = self.ledger.lock().expect("telemetry ledger lock");
        for span in &spans {
            ledger.fold(span);
        }
        for span in &phases {
            ledger.fold_phase(span);
        }
        spans.len() + phases.len()
    }

    /// Stamps the fleet-wide pool byte gauges (typically
    /// [`duality_service::MetricsSnapshot::pool_total`]'s `bytes`) so the
    /// next snapshot exports them. Gauges, not counters: each call
    /// overwrites; the peak is kept monotone across stamps.
    pub fn set_pool_bytes(&self, bytes: PoolBytes) {
        let mut gauges = self.pool_bytes.lock().expect("telemetry gauge lock");
        *gauges = PoolBytes {
            peak: gauges.peak.max(bytes.peak),
            ..bytes
        };
    }

    /// Registers a display name for the tenant owning `instance`'s
    /// topology (every respec shares it).
    pub fn name_tenant(&self, instance: &Arc<PlanarInstance>, name: &str) {
        self.name_tenant_key(&InstanceKey::of(instance), name);
    }

    /// As [`Telemetry::name_tenant`], from an already-computed key.
    pub fn name_tenant_key(&self, key: &InstanceKey, name: &str) {
        self.ledger
            .lock()
            .expect("telemetry ledger lock")
            .name_tenant(key.topo_fingerprint(), name);
    }

    /// Polls the ring, then snapshots the ledger.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.poll();
        let ledger = self.ledger.lock().expect("telemetry ledger lock");
        TelemetrySnapshot {
            spans: ledger.spans(),
            dropped: self.ring.dropped(),
            shard_jobs: ledger.shard_jobs().to_vec(),
            phase_us: ledger.phases().map(|(p, us)| (p.to_string(), us)).collect(),
            pool_bytes: *self.pool_bytes.lock().expect("telemetry gauge lock"),
            tenants: ledger
                .tenants()
                .map(|(tenant, name, stats)| TenantTelemetry {
                    tenant,
                    name: name.map(String::from),
                    stats: stats.clone(),
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("ring_capacity", &self.ring.capacity())
            .field("seen", &self.ring.seen())
            .field("dropped", &self.ring.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duality_core::Query;
    use duality_planar::gen;
    use duality_service::ServiceEngine;

    fn instance(seed: u64) -> Arc<PlanarInstance> {
        let g = gen::diag_grid(4, 4, seed).unwrap();
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, seed);
        PlanarInstance::new(g, Some(caps), None).unwrap()
    }

    #[test]
    fn engine_spans_land_in_the_ledger() {
        let telemetry = Telemetry::new(64);
        let engine = ServiceEngine::builder()
            .shards(2)
            .workers(2)
            .span_sink(telemetry.sink())
            .build()
            .unwrap();
        let (a, b) = (instance(1), instance(2));
        telemetry.name_tenant(&a, "alpha");
        for _ in 0..3 {
            engine.run(&a, Query::Girth).unwrap();
        }
        engine.run(&b, Query::Girth).unwrap();
        let m = engine.shutdown();

        let snap = telemetry.snapshot();
        assert_eq!(snap.spans, m.submitted, "one span per admitted job");
        assert_eq!(snap.dropped, 0);
        assert!(
            !snap.phase_us.is_empty(),
            "the substrate builds emitted phase spans"
        );
        assert_eq!(snap.by_name("alpha").unwrap().stats.completed, 3);
        assert_eq!(snap.tenants.len(), 2);
        assert_eq!(snap.fleet_total().count, m.latency.count);
        assert_eq!(
            snap.shard_jobs.iter().sum::<u64>(),
            m.completed,
            "occupancy covers every executed job"
        );
        // Export round trip.
        let parsed = TelemetrySnapshot::parse_jsonl(&snap.to_jsonl()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn snapshot_is_cumulative_across_polls() {
        let telemetry = Telemetry::new(4);
        let engine = ServiceEngine::builder()
            .workers(1)
            .span_sink(telemetry.sink())
            .build()
            .unwrap();
        let i = instance(3);
        engine.run(&i, Query::Girth).unwrap();
        assert!(
            telemetry.poll() >= 1,
            "first poll folds the job span (plus its build-phase spans)"
        );
        engine.run(&i, Query::Girth).unwrap();
        engine.shutdown();
        let snap = telemetry.snapshot();
        assert_eq!(snap.spans, 2, "second poll added the second span");
    }

    #[test]
    fn pool_byte_gauges_stamp_into_snapshots() {
        let telemetry = Telemetry::new(8);
        telemetry.set_pool_bytes(PoolBytes {
            resident: 1_000,
            peak: 1_500,
            evicted: 0,
        });
        telemetry.set_pool_bytes(PoolBytes {
            resident: 800,
            peak: 1_200,
            evicted: 300,
        });
        let snap = telemetry.snapshot();
        assert_eq!(snap.pool_bytes.resident, 800, "gauge overwrites");
        assert_eq!(snap.pool_bytes.peak, 1_500, "peak stays monotone");
        assert_eq!(snap.pool_bytes.evicted, 300);
    }
}
