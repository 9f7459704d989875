//! Damaged artifacts through their parsers: every durable format the
//! repo reads back goes through the one `workload::jsonl` reader. A file
//! cut short (a crashed writer, a partial copy) must surface as an
//! `Err`, never as a panic or as a silently shorter line; a file with
//! garbage written over a few characters must never panic either.

use duality::lab::{parse_chrome_json, to_chrome_json, TraceSlice};
use duality::telemetry::{TenantStats, TenantTelemetry};
use duality::{EnvRow, Envelope, LabSpec, PoolBytes, Scenario, TelemetrySnapshot, Trace};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One sample document of a durable format, with its parser reduced to
/// whether the document parsed.
struct Sample {
    format: &'static str,
    doc: String,
    parses: fn(&str) -> bool,
}

/// One sample per format the repo reads back, built once per test
/// binary.
fn samples() -> &'static [Sample] {
    static SAMPLES: OnceLock<Vec<Sample>> = OnceLock::new();
    SAMPLES.get_or_init(|| {
        let trace = Scenario::preset("rush-hour", 3).unwrap().record().unwrap();

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
            ..TelemetrySnapshot::default()
        };

        let slice = |name: &str, cat: &str, ts_us| TraceSlice {
            name: name.into(),
            cat: cat.into(),
            ts_us,
            dur_us: 7,
            pid: 1,
            tid: 0,
        };
        let slices = [slice("embed", "substrate", 0), slice("max-flow", "job", 9)];

        let envelope = Envelope::from_rows(
            "S5",
            42,
            true,
            vec![EnvRow {
                experiment: "S5".into(),
                instance: "steady-state, 1 wrk / 1 shd".into(),
                n: 30,
                d: 9,
                values: vec![("jobs".into(), 24.0), ("throughput-jps".into(), 1450.25)],
            }],
        );

        vec![
            Sample {
                format: "trace",
                doc: trace.to_jsonl(),
                parses: |t| Trace::parse_jsonl(t).is_ok(),
            },
            Sample {
                format: "lab spec",
                doc: include_str!("../experiments/s10-memory.lab.jsonl").into(),
                parses: |t| LabSpec::parse_jsonl(t).is_ok(),
            },
            Sample {
                format: "telemetry snapshot",
                doc: telemetry.to_jsonl(),
                parses: |t| TelemetrySnapshot::parse_jsonl(t).is_ok(),
            },
            Sample {
                format: "chrome trace",
                doc: to_chrome_json(&slices),
                parses: |t| parse_chrome_json(t).is_ok(),
            },
            Sample {
                format: "envelope",
                doc: envelope.to_json(),
                parses: |t| Envelope::parse(t).is_ok(),
            },
        ]
    })
}

/// Feeds every char-boundary prefix of the sample to its parser: none
/// may panic, and each one that ends inside a line (the empty one
/// included) must be refused.
fn check_prefixes(sample: &Sample) {
    let (format, doc) = (sample.format, sample.doc.as_str());
    assert!((sample.parses)(doc), "{format}: the full document parses");
    for (cut, _) in doc.char_indices() {
        let mid_line = !doc[..cut].ends_with('\n') && !doc[cut..].starts_with('\n');
        assert!(
            !mid_line || !(sample.parses)(&doc[..cut]),
            "{format}: the {cut}-byte prefix ends inside a line but parsed"
        );
    }
}

#[test]
fn no_truncated_artifact_panics_its_parser() {
    for sample in samples() {
        check_prefixes(sample);
    }
}

/// What garbage is drawn from: JSON's structural and numeric
/// characters, the escape character, and the whitespace the line
/// formats split on.
const GARBAGE: [char; 15] = [
    '"', '{', '}', '[', ']', ',', ':', '-', '.', 'e', '0', '9', '\\', ' ', '\n',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Overwriting 1–4 characters of any sample with garbage never
    /// panics its parser: the damaged document parses or is refused.
    #[test]
    fn no_garbled_artifact_panics_its_parser(
        hits in 1usize..5,
        at in prop::collection::vec(0usize..usize::MAX, 4),
        with in prop::collection::vec(0usize..GARBAGE.len(), 4),
    ) {
        for sample in samples() {
            let mut chars: Vec<char> = sample.doc.chars().collect();
            let len = chars.len();
            for (&pos, &g) in at.iter().zip(&with).take(hits) {
                chars[pos % len] = GARBAGE[g];
            }
            let doc: String = chars.into_iter().collect();
            let outcome = std::panic::catch_unwind(|| (sample.parses)(&doc));
            prop_assert!(outcome.is_ok(), "{}: parser panicked on {:?}", sample.format, doc);
        }
    }
}
