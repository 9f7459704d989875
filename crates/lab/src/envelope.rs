//! The versioned `BENCH_*.json` artifact: writer and parser.
//!
//! An envelope is `schema_version` plus provenance (experiment id,
//! seed, smoke flag, scenario list) around an array of measurement
//! rows. [`Envelope::to_json`] is the canonical writer, byte-stable so
//! committed artifacts stay diffable, and [`Envelope::parse`] reads a
//! committed artifact back for the regression gate
//! ([`compare`](crate::compare)) and the trajectory report
//! ([`report`](crate::report)). [`EnvRow`] is also the row type of the
//! paper's T/F/A tables: the `experiments` binary prints it with
//! [`EnvRow::markdown`] and dumps it with [`EnvRow::to_json`].
//!
//! Parsing refuses unknown schema versions: an envelope from a future
//! format is not silently misread as comparable data. Documents are read
//! through the shared [`duality_workload::jsonl`] reader, which refuses
//! nesting deeper than 32 levels, so a hostile file is an `Err`, not a
//! stack overflow.

use crate::error::LabError;
use duality_workload::jsonl::{json_string, Val};

/// Format version of the `BENCH_*.json` artifacts. Bump when the
/// envelope (not the row contents) changes shape, so trajectory tooling
/// can tell comparable points apart.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// One measurement row: experiment id, instance label, instance size,
/// and named values.
#[derive(Clone, Debug, PartialEq)]
pub struct EnvRow {
    /// Experiment id (e.g. `"S5"`).
    pub experiment: String,
    /// Workload description (`"<scenario>, <cell>"` by convention).
    pub instance: String,
    /// Number of vertices.
    pub n: usize,
    /// Hop diameter.
    pub d: usize,
    /// Named measurements, in presentation order.
    pub values: Vec<(String, f64)>,
}

impl EnvRow {
    /// Fetches a named value.
    pub fn value(&self, key: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// The part of the instance label before the first comma — the
    /// scenario name under the row-labeling convention.
    pub fn scenario(&self) -> &str {
        self.instance.split(',').next().unwrap_or("").trim()
    }

    /// The row as one line of the harness's markdown table
    /// (`| id | instance | n | D | measurements |`).
    pub fn markdown(&self) -> String {
        let vals: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("{k}={v:.0}"))
            .collect();
        format!(
            "| {} | {} | {} | {} | {} |",
            self.experiment,
            self.instance,
            self.n,
            self.d,
            vals.join(", ")
        )
    }

    /// Serializes the row as a one-line JSON object.
    pub fn to_json(&self) -> String {
        let values: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_number(*v)))
            .collect();
        format!(
            "{{\"experiment\": {}, \"instance\": {}, \"n\": {}, \"d\": {}, \"values\": {{{}}}}}",
            json_string(&self.experiment),
            json_string(&self.instance),
            self.n,
            self.d,
            values.join(", ")
        )
    }
}

/// One parsed (or to-be-written) benchmark artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Format version ([`BENCH_SCHEMA_VERSION`] for anything this code
    /// writes; parsing refuses others).
    pub schema_version: u64,
    /// Experiment id (e.g. `"S5"`).
    pub experiment: String,
    /// The seed the run used.
    pub seed: u64,
    /// Whether this was a `--smoke` run.
    pub smoke: bool,
    /// Distinct scenario labels the rows cover, first-appearance order.
    pub scenarios: Vec<String>,
    /// The measurement rows.
    pub rows: Vec<EnvRow>,
}

impl Envelope {
    /// Wraps `rows` in a fresh envelope, deriving the scenario list
    /// from the row labels (the part before the first comma).
    pub fn from_rows(experiment: &str, seed: u64, smoke: bool, rows: Vec<EnvRow>) -> Envelope {
        let mut scenarios: Vec<String> = Vec::new();
        for row in &rows {
            let name = row.scenario();
            if !name.is_empty() && !scenarios.iter().any(|s| s == name) {
                scenarios.push(name.to_string());
            }
        }
        Envelope {
            schema_version: BENCH_SCHEMA_VERSION,
            experiment: experiment.to_string(),
            seed,
            smoke,
            scenarios,
            rows,
        }
    }

    /// Serializes the envelope (the canonical `BENCH_*.json` layout).
    pub fn to_json(&self) -> String {
        let scenario_list: Vec<String> = self.scenarios.iter().map(|s| json_string(s)).collect();
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("    {}", r.to_json()))
            .collect();
        format!(
            "{{\n  \"schema_version\": {},\n  \"experiment\": {},\n  \
             \"seed\": {},\n  \"smoke\": {},\n  \"scenarios\": [{}],\n  \"rows\": [\n{}\n  ]\n}}\n",
            self.schema_version,
            json_string(&self.experiment),
            self.seed,
            self.smoke,
            scenario_list.join(", "),
            body.join(",\n")
        )
    }

    /// Parses a `BENCH_*.json` artifact.
    ///
    /// # Errors
    ///
    /// [`LabError::Parse`] on malformed JSON or missing/mistyped
    /// fields; [`LabError::Schema`] on an unknown `schema_version`.
    pub fn parse(text: &str) -> Result<Envelope, LabError> {
        let fail = |reason: String| LabError::Parse { line: 0, reason };
        let Val::O(doc) = Val::parse(text).map_err(fail)? else {
            return Err(fail("the envelope is not an object".into()));
        };
        let version = doc.u64("schema_version").map_err(fail)?;
        if version != BENCH_SCHEMA_VERSION {
            return Err(LabError::Schema(format!(
                "unsupported envelope schema_version {version} (want {BENCH_SCHEMA_VERSION})"
            )));
        }
        let scenarios = doc
            .arr("scenarios")
            .map_err(fail)?
            .iter()
            .map(|v| match v {
                Val::S(s) => Ok(s.clone()),
                _ => Err(fail("scenarios entries must be strings".into())),
            })
            .collect::<Result<Vec<String>, LabError>>()?;
        let mut rows = Vec::new();
        for row in doc.arr("rows").map_err(fail)? {
            let Val::O(row) = row else {
                return Err(fail("rows entries must be objects".into()));
            };
            let values = row
                .obj("values")
                .map_err(fail)?
                .fields()
                .iter()
                .map(|(k, v)| match v {
                    Val::Null => Ok((k.clone(), f64::NAN)),
                    _ => v
                        .as_f64()
                        .map(|x| (k.clone(), x))
                        .ok_or_else(|| fail(format!("value `{k}` is not a number"))),
                })
                .collect::<Result<Vec<(String, f64)>, LabError>>()?;
            rows.push(EnvRow {
                experiment: row.str("experiment").map_err(fail)?.to_string(),
                instance: row.str("instance").map_err(fail)?.to_string(),
                n: row.u64("n").map_err(fail)? as usize,
                d: row.u64("d").map_err(fail)? as usize,
                values,
            });
        }
        Ok(Envelope {
            schema_version: version,
            experiment: doc.str("experiment").map_err(fail)?.to_string(),
            seed: doc.u64("seed").map_err(fail)?,
            smoke: doc.bool("smoke").map_err(fail)?,
            scenarios,
            rows,
        })
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no Infinity/NaN; null keeps the document parseable.
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Envelope {
        Envelope::from_rows(
            "S5",
            42,
            true,
            vec![
                EnvRow {
                    experiment: "S5".into(),
                    instance: "steady-state, 1 wrk / 1 shd".into(),
                    n: 30,
                    d: 9,
                    values: vec![
                        ("jobs".into(), 24.0),
                        ("throughput-jps".into(), 1450.25),
                        ("p99-us".into(), 3200.0),
                    ],
                },
                EnvRow {
                    experiment: "S5".into(),
                    instance: "failover-storm, 2 wrk / 1 shd".into(),
                    n: 30,
                    d: 9,
                    values: vec![("jobs".into(), 36.0), ("replay=serial".into(), 1.0)],
                },
            ],
        )
    }

    #[test]
    fn envelopes_round_trip() {
        let env = sample();
        assert_eq!(env.scenarios, ["steady-state", "failover-storm"]);
        let text = env.to_json();
        let parsed = Envelope::parse(&text).unwrap();
        assert_eq!(parsed, env);
        assert_eq!(parsed.to_json(), text, "writer is canonical");
        // Integers read exactly, past f64's 2^53 as well.
        let big = Envelope {
            seed: 9_007_199_254_740_993,
            ..env
        };
        assert_eq!(Envelope::parse(&big.to_json()).unwrap(), big);
    }

    #[test]
    fn rows_escape_strings_and_print_as_markdown() {
        let row = EnvRow {
            experiment: "T1".into(),
            instance: "grid \"5x5\" \\ tab\t".into(),
            n: 25,
            d: 8,
            values: vec![("ok".into(), 1.0), ("rounds".into(), 1234.25)],
        };
        let json = row.to_json();
        assert!(json.contains(r#""instance": "grid \"5x5\" \\ tab\t""#));
        assert!(json.contains(r#""rounds": 1234.25"#));
        let env = Envelope::from_rows("T1", 3, false, vec![row.clone()]);
        assert_eq!(Envelope::parse(&env.to_json()).unwrap(), env);
        assert_eq!(
            row.markdown(),
            "| T1 | grid \"5x5\" \\ tab\t | 25 | 8 | ok=1, rounds=1234 |"
        );
    }

    #[test]
    fn unknown_envelope_versions_are_refused() {
        let text = sample()
            .to_json()
            .replace("\"schema_version\": 1", "\"schema_version\": 99");
        assert!(matches!(Envelope::parse(&text), Err(LabError::Schema(_))));
    }

    #[test]
    fn malformed_envelopes_report_reasons() {
        assert!(Envelope::parse("").is_err());
        assert!(Envelope::parse("{\"schema_version\": 1}").is_err());
        assert!(Envelope::parse("[1, 2").is_err());
        let text = sample().to_json();
        assert!(Envelope::parse(&format!("{text} trailing")).is_err());
        // Integer fields are never rounded or clamped into range.
        for (from, to) in [
            ("\"seed\": 42", "\"seed\": -5"),
            ("\"seed\": 42", "\"seed\": 1.5"),
            ("\"schema_version\": 1", "\"schema_version\": 0.6"),
            ("\"n\": 30", "\"n\": 30.4"),
            ("\"d\": 9", "\"d\": -9"),
        ] {
            assert!(
                Envelope::parse(&text.replacen(from, to, 1)).is_err(),
                "{to}"
            );
        }
    }

    #[test]
    fn every_truncated_envelope_is_an_error() {
        let text = sample().to_json();
        let doc = text.trim_end();
        for (cut, _) in doc.char_indices() {
            assert!(Envelope::parse(&doc[..cut]).is_err(), "{cut}-byte prefix");
        }
    }

    #[test]
    fn null_values_round_trip_as_nan() {
        let mut env = sample();
        env.rows[0].values.push(("inf".into(), f64::INFINITY));
        let text = env.to_json();
        assert!(text.contains("\"inf\": null"));
        let parsed = Envelope::parse(&text).unwrap();
        assert!(parsed.rows[0].value("inf").unwrap().is_nan());
    }
}
