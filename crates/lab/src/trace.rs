//! Chrome-trace export: profiling spans → a `trace.json` that
//! chrome://tracing and Perfetto open directly.
//!
//! The telemetry spine aggregates phase spans into per-phase totals —
//! the right shape for gauges and regression rows, the wrong shape for
//! "where did *this* build spend its time". This module keeps the
//! individual spans: [`capture_trace`] drives a lab spec's scenarios
//! through a telemetry-wired engine, drains the raw rings, and flattens
//! both span kinds into [`TraceSlice`]s — substrate build phases in one
//! category, job lifecycles in another — which [`to_chrome_json`]
//! serializes as complete-duration (`"ph": "X"`) events in the Trace
//! Event Format. Timestamps are µs since engine start, the unit the
//! format expects; `pid` carries the shard and `tid` the worker, so the
//! viewer's track layout *is* the fleet layout.
//!
//! [`parse_chrome_json`] reads the document back (through the shared
//! [`duality_workload::jsonl`] reader), so the writer is covered by a
//! round-trip test rather than by eyeballing a browser.

use crate::error::LabError;
use crate::spec::LabSpec;
use duality_service::{AdmissionPolicy, PhaseSpan, ServiceEngine, SpanRecord, SpanSink};
use duality_telemetry::RingSink;
use duality_workload::jsonl::{json_string, Val};
use duality_workload::WorkloadError;
use std::sync::Arc;

/// One complete-duration slice of the exported trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSlice {
    /// Event name: a phase (`embed`, `bdd`, …) or a query kind.
    pub name: String,
    /// Category: `substrate` for build phases, `job` for lifecycles.
    pub cat: String,
    /// Start, µs since engine start.
    pub ts_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Process track — the pool shard.
    pub pid: u64,
    /// Thread track — the worker.
    pub tid: u64,
}

impl TraceSlice {
    fn of_phase(span: &PhaseSpan) -> TraceSlice {
        TraceSlice {
            name: span.phase.clone(),
            cat: "substrate".into(),
            ts_us: span.finished_us.saturating_sub(span.us),
            dur_us: span.us,
            pid: span.shard as u64,
            tid: span.worker as u64,
        }
    }

    fn of_job(span: &SpanRecord) -> TraceSlice {
        let start = span.started_us.unwrap_or(span.submitted_us);
        TraceSlice {
            name: span.query.to_string(),
            cat: "job".into(),
            ts_us: start,
            dur_us: span.finished_us.saturating_sub(start),
            pid: span.shard as u64,
            tid: span.worker.unwrap_or(0) as u64,
        }
    }
}

/// Drives every scenario the spec keeps (its first kept grid cell)
/// through a telemetry-wired engine and returns the raw spans as
/// slices, substrate phases first.
///
/// # Errors
///
/// [`LabError::Schema`] when the spec fails validation;
/// [`LabError::Workload`] when recording, materialization, or the
/// engine fails.
pub fn capture_trace(
    spec: &LabSpec,
    smoke: bool,
    seed: Option<u64>,
) -> Result<Vec<TraceSlice>, LabError> {
    spec.validate()?;
    let seed = seed.unwrap_or(spec.seed);
    let cell = spec.run_cells(smoke)[0];
    let mut slices = Vec::new();
    for scenario_ref in spec.run_scenarios(smoke) {
        let trace = scenario_ref.resolve(seed)?.record()?;
        let jobs = trace.materialize()?;
        // The raw rings, not a Telemetry handle: polling would fold the
        // spans into aggregates and lose the individual slices.
        let ring = Arc::new(RingSink::new(jobs.len() * 8 + 64));
        let engine = ServiceEngine::builder()
            .workers(cell.workers)
            .shards(cell.shards)
            .queue_capacity(jobs.len().max(16))
            .admission(AdmissionPolicy::Block)
            .span_sink(Arc::clone(&ring) as Arc<dyn SpanSink>)
            .build()
            .map_err(|e| LabError::Workload(WorkloadError::from(e)))?;
        for job in &jobs {
            let ticket = engine
                .submit(&job.instance, job.query)
                .map_err(|e| LabError::Workload(WorkloadError::Submit(e)))?;
            let _ = ticket.wait();
        }
        engine.shutdown();
        slices.extend(ring.drain_phases().iter().map(TraceSlice::of_phase));
        slices.extend(ring.drain().iter().map(TraceSlice::of_job));
    }
    Ok(slices)
}

/// Serializes slices as a Trace Event Format document — the layout
/// chrome://tracing and Perfetto load without conversion.
pub fn to_chrome_json(slices: &[TraceSlice]) -> String {
    let events: Vec<String> = slices
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {}, \
                 \"dur\": {}, \"pid\": {}, \"tid\": {}}}",
                json_string(&s.name),
                json_string(&s.cat),
                s.ts_us,
                s.dur_us,
                s.pid,
                s.tid
            )
        })
        .collect();
    format!(
        "{{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n{}\n  ]\n}}\n",
        events.join(",\n")
    )
}

/// Parses a document [`to_chrome_json`] wrote (round-trip validation;
/// also accepts any Trace Event Format file of `"ph": "X"` events).
///
/// # Errors
///
/// [`LabError::Parse`] on malformed JSON, missing fields, an event
/// phase other than `"X"`, a `pid`/`tid` that is not a `u64` integer, or
/// a `ts`/`dur` outside `u64`. The format allows fractional `ts` and
/// `dur`; those round to the nearest microsecond.
pub fn parse_chrome_json(text: &str) -> Result<Vec<TraceSlice>, LabError> {
    let fail = |reason: String| LabError::Parse { line: 0, reason };
    let Val::O(doc) = Val::parse(text).map_err(fail)? else {
        return Err(fail("the trace is not an object".into()));
    };
    let mut slices = Vec::new();
    for event in doc.arr("traceEvents").map_err(fail)? {
        let Val::O(event) = event else {
            return Err(fail("traceEvents entries must be objects".into()));
        };
        let ph = event.str("ph").map_err(fail)?;
        if ph != "X" {
            return Err(fail(format!("unsupported event phase `{ph}` (want X)")));
        }
        // An integer literal reads exactly; a float rounds only inside
        // u64 (`u64::MAX as f64` is 2^64, the exclusive bound).
        let time = |key: &str| {
            event.u64(key).or_else(|_| {
                let v = event.f64(key).map_err(fail)?;
                if (0.0..u64::MAX as f64).contains(&v) {
                    Ok(v.round() as u64)
                } else {
                    Err(fail(format!("field `{key}` out of u64 range")))
                }
            })
        };
        slices.push(TraceSlice {
            name: event.str("name").map_err(fail)?.to_string(),
            cat: event.str("cat").map_err(fail)?.to_string(),
            ts_us: time("ts")?,
            dur_us: time("dur")?,
            pid: event.u64("pid").map_err(fail)?,
            tid: event.u64("tid").map_err(fail)?,
        });
    }
    Ok(slices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{GridCell, RunMode, ScenarioRef};

    fn spec() -> LabSpec {
        LabSpec {
            name: "TRACE".into(),
            seed: 5,
            mode: RunMode::Replay,
            cells: vec![GridCell {
                workers: 2,
                shards: 2,
                smoke: true,
            }],
            scenarios: vec![ScenarioRef::Preset {
                name: "steady-state".into(),
                smoke: true,
            }],
        }
    }

    #[test]
    fn captured_traces_round_trip_through_chrome_json() {
        let slices = capture_trace(&spec(), false, None).unwrap();
        assert!(
            slices.iter().any(|s| s.cat == "substrate"),
            "substrate builds must leave phase slices"
        );
        assert!(
            slices.iter().any(|s| s.cat == "job"),
            "jobs must leave lifecycle slices"
        );
        assert!(
            slices.iter().any(|s| s.name == "embed"),
            "the embed phase is always charged first"
        );
        let text = to_chrome_json(&slices);
        let parsed = parse_chrome_json(&text).unwrap();
        assert_eq!(
            parsed, slices,
            "the writer and reader agree slice for slice"
        );
    }

    #[test]
    fn foreign_phases_and_malformed_documents_are_refused() {
        assert!(parse_chrome_json("").is_err());
        assert!(parse_chrome_json("{\"traceEvents\": [{\"ph\": \"B\"}]}").is_err());
        assert!(parse_chrome_json("{\"other\": []}").is_err());

        // One `X` event whose `field` is `value` and every other number 1.
        let doc = |field: &str, value: &str| {
            let numbers: Vec<String> = ["ts", "dur", "pid", "tid"]
                .iter()
                .map(|&k| format!("\"{k}\": {}", if k == field { value } else { "1" }))
                .collect();
            format!(
                "{{\"traceEvents\": [{{\"name\": \"n\", \"cat\": \"c\", \"ph\": \"X\", {}}}]}}",
                numbers.join(", ")
            )
        };
        for (field, value) in [
            ("pid", "-5"),
            ("pid", "1.5"),
            ("tid", "18446744073709551616"),
            ("ts", "1e30"),
            ("dur", "-3"),
        ] {
            assert!(
                parse_chrome_json(&doc(field, value)).is_err(),
                "`{field}: {value}` must be refused"
            );
        }
        let exact = parse_chrome_json(&doc("ts", "9007199254740993")).unwrap();
        assert_eq!(exact[0].ts_us, 9_007_199_254_740_993, "no f64 detour");
        let fractional = parse_chrome_json(&doc("dur", "2.5")).unwrap();
        assert_eq!(fractional[0].dur_us, 3, "fractional times round");
    }
}
