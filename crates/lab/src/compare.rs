//! The regression gate: row-by-row comparison of two benchmark
//! envelopes with per-metric tolerances.
//!
//! `experiments compare <committed> <fresh>` parses both envelopes and
//! diffs them here. Metrics fall into three classes, because a gate
//! that treats a timing jitter like a correctness break is a gate
//! people turn off:
//!
//! * **exact** — determinism contracts and logical-round counts
//!   (`replay=serial`, `jobs`, round bills). These are machine
//!   independent; any drift is a real behavior change and fails the
//!   gate outright.
//! * **gated** — wall-clock rates and tail latencies. Rates (`*jps`)
//!   fail when they *drop* more than the throughput tolerance; p99
//!   latencies (`*p99-us`) fail when they *grow* more than the p99
//!   tolerance. Improvements never fail.
//! * **informational** — everything else (pool hits, efficiency
//!   ratios, probe round counts, medians): reported, never gating,
//!   because they legitimately vary with scheduling order or machine
//!   speed — p50 especially sits in single-digit-microsecond buckets
//!   where one histogram step is a 100% swing.
//!
//! Shape drift is also a failure: a row or metric present in the
//! committed envelope but missing fresh means the experiment changed
//! without a schema conversation. So is a non-finite exact or gated
//! value on either side (a `null` in the file parses as NaN, which
//! would pass every bound).

use crate::envelope::Envelope;
use crate::error::LabError;

/// Gate thresholds. Defaults: a 10% throughput drop or a 25% p99
/// growth fails. CI smoke gates run on shared machines and pass wider
/// values explicitly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tolerances {
    /// Maximum tolerated drop of a `*jps` metric, in percent.
    pub max_throughput_drop_percent: f64,
    /// Maximum tolerated growth of a `*p99-us` metric, in percent.
    pub max_p99_growth_percent: f64,
}

impl Default for Tolerances {
    fn default() -> Tolerances {
        Tolerances {
            max_throughput_drop_percent: 10.0,
            max_p99_growth_percent: 25.0,
        }
    }
}

/// How the gate treats one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MetricClass {
    Exact,
    RateFloor,
    LatencyCeiling,
    Informational,
}

/// Deterministic, machine-independent metrics: equality required.
const EXACT_METRICS: [&str; 7] = [
    "replay=serial",
    "jobs",
    "respecs",
    "completed",
    "engine-query",
    "serial-query",
    "serial-substrate",
];

fn classify(name: &str) -> MetricClass {
    if EXACT_METRICS.contains(&name) {
        MetricClass::Exact
    } else if name.ends_with("jps") {
        MetricClass::RateFloor
    } else if name.ends_with("p99-us") {
        MetricClass::LatencyCeiling
    } else {
        MetricClass::Informational
    }
}

/// The outcome of one envelope comparison: a human-readable verdict
/// per row, and the regression count that decides the exit code.
#[derive(Clone, Debug)]
pub struct CompareReport {
    /// One verdict line per compared row (plus shape-drift lines).
    pub lines: Vec<String>,
    /// Failed checks across all rows.
    pub regressions: usize,
}

impl CompareReport {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions == 0
    }

    /// The full report as displayable text, ending in a PASS/FAIL
    /// summary line.
    pub fn render(&self) -> String {
        let mut out = self.lines.join("\n");
        out.push('\n');
        if self.passed() {
            out.push_str("PASS: no regressions\n");
        } else {
            out.push_str(&format!("FAIL: {} regression(s)\n", self.regressions));
        }
        out
    }
}

/// Diffs `fresh` against `committed` row by row. See the
/// [module docs](self) for the metric classes.
///
/// # Errors
///
/// [`LabError::Schema`] when the two envelopes are not comparable:
/// different schema versions, experiments, seeds, or smoke flags.
pub fn compare(
    committed: &Envelope,
    fresh: &Envelope,
    tol: &Tolerances,
) -> Result<CompareReport, LabError> {
    let same = [
        (
            "schema_version",
            committed.schema_version == fresh.schema_version,
        ),
        ("experiment", committed.experiment == fresh.experiment),
        ("seed", committed.seed == fresh.seed),
        ("smoke", committed.smoke == fresh.smoke),
    ];
    if let Some((field, _)) = same.iter().find(|(_, ok)| !ok) {
        return Err(LabError::Schema(format!(
            "envelopes are not comparable: `{field}` differs"
        )));
    }
    let mut lines = Vec::new();
    let mut regressions = 0;
    for row in &committed.rows {
        let Some(other) = fresh.rows.iter().find(|r| r.instance == row.instance) else {
            regressions += 1;
            lines.push(format!("FAIL {} — row missing in fresh run", row.instance));
            continue;
        };
        let mut failures = Vec::new();
        let mut notes = Vec::new();
        for (name, want) in &row.values {
            let Some(got) = other.value(name) else {
                failures.push(format!("{name} missing in fresh run"));
                continue;
            };
            let shift = percent_change(*want, got);
            let class = classify(name);
            // NaN compares false against every bound below.
            if class != MetricClass::Informational && !(want.is_finite() && got.is_finite()) {
                failures.push(format!("{name} {want} → {got} (non-finite value)"));
                continue;
            }
            match class {
                MetricClass::Exact => {
                    if got != *want {
                        failures.push(format!("{name} {want} → {got} (exact metric drifted)"));
                    }
                }
                MetricClass::RateFloor => {
                    if got < *want * (1.0 - tol.max_throughput_drop_percent / 100.0) {
                        failures.push(format!(
                            "{name} {want:.1} → {got:.1} ({shift:+.1}%, limit -{:.0}%)",
                            tol.max_throughput_drop_percent
                        ));
                    } else {
                        notes.push(format!("{name} {want:.1} → {got:.1} ({shift:+.1}%)"));
                    }
                }
                MetricClass::LatencyCeiling => {
                    if got > *want * (1.0 + tol.max_p99_growth_percent / 100.0) {
                        failures.push(format!(
                            "{name} {want:.0} → {got:.0} ({shift:+.1}%, limit +{:.0}%)",
                            tol.max_p99_growth_percent
                        ));
                    } else {
                        notes.push(format!("{name} {want:.0} → {got:.0} ({shift:+.1}%)"));
                    }
                }
                MetricClass::Informational => {}
            }
        }
        if failures.is_empty() {
            let detail = if notes.is_empty() {
                "all exact metrics hold".to_string()
            } else {
                notes.join(", ")
            };
            lines.push(format!("ok   {} — {detail}", row.instance));
        } else {
            regressions += failures.len();
            lines.push(format!("FAIL {} — {}", row.instance, failures.join("; ")));
        }
    }
    for row in &fresh.rows {
        if !committed.rows.iter().any(|r| r.instance == row.instance) {
            regressions += 1;
            lines.push(format!(
                "FAIL {} — row absent from committed baseline",
                row.instance
            ));
        }
    }
    Ok(CompareReport { lines, regressions })
}

fn percent_change(want: f64, got: f64) -> f64 {
    if want == 0.0 {
        0.0
    } else {
        (got - want) / want * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::EnvRow;

    fn baseline() -> Envelope {
        Envelope::from_rows(
            "S5",
            42,
            true,
            vec![EnvRow {
                experiment: "S5".into(),
                instance: "steady-state, 1 wrk / 1 shd".into(),
                n: 30,
                d: 9,
                values: vec![
                    ("jobs".into(), 24.0),
                    ("replay=serial".into(), 1.0),
                    ("throughput-jps".into(), 1000.0),
                    ("p99-us".into(), 4000.0),
                    ("pool-hits".into(), 17.0),
                ],
            }],
        )
    }

    #[test]
    fn self_diff_passes() {
        let env = baseline();
        let report = compare(&env, &env, &Tolerances::default()).unwrap();
        assert!(report.passed(), "{}", report.render());
        assert!(report.render().contains("PASS"));
    }

    #[test]
    fn jitter_within_tolerance_passes() {
        let mut fresh = baseline();
        fresh.rows[0].values[2].1 = 950.0; // -5% throughput
        fresh.rows[0].values[3].1 = 4500.0; // +12.5% p99
        fresh.rows[0].values[4].1 = 3.0; // informational churn
        let report = compare(&baseline(), &fresh, &Tolerances::default()).unwrap();
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn synthetic_regression_fails_with_readable_verdicts() {
        let mut fresh = baseline();
        fresh.rows[0].values[2].1 = 800.0; // -20% throughput
        fresh.rows[0].values[3].1 = 6000.0; // +50% p99
        let report = compare(&baseline(), &fresh, &Tolerances::default()).unwrap();
        assert!(!report.passed());
        assert_eq!(report.regressions, 2);
        let text = report.render();
        assert!(text.contains("FAIL steady-state, 1 wrk / 1 shd"));
        assert!(text.contains("throughput-jps 1000.0 → 800.0 (-20.0%, limit -10%)"));
        assert!(text.contains("p99-us 4000 → 6000 (+50.0%, limit +25%)"));
    }

    #[test]
    fn exact_metrics_and_shape_drift_always_fail() {
        let mut fresh = baseline();
        fresh.rows[0].values[1].1 = 0.0; // replay=serial broke
        let report = compare(&baseline(), &fresh, &Tolerances::default()).unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("replay=serial 1 → 0"));

        let mut fresh = baseline();
        fresh.rows[0].instance = "renamed, 1 wrk / 1 shd".into();
        let report = compare(&baseline(), &fresh, &Tolerances::default()).unwrap();
        assert_eq!(
            report.regressions, 2,
            "missing committed row + extra fresh row"
        );

        let mut fresh = baseline();
        fresh.rows[0].values.remove(3);
        let report = compare(&baseline(), &fresh, &Tolerances::default()).unwrap();
        assert!(report.render().contains("p99-us missing"));

        // A `null` in a fresh envelope parses as NaN, and a non-finite
        // value on either side of a gated metric fails.
        let text = baseline()
            .to_json()
            .replace("\"throughput-jps\": 1000", "\"throughput-jps\": null");
        let fresh = Envelope::parse(&text).unwrap();
        let report = compare(&baseline(), &fresh, &Tolerances::default()).unwrap();
        assert_eq!(report.regressions, 1, "{}", report.render());
        assert!(report
            .render()
            .contains("throughput-jps 1000 → NaN (non-finite value)"));
        let report = compare(&fresh, &baseline(), &Tolerances::default()).unwrap();
        assert_eq!(report.regressions, 1, "{}", report.render());
        let mut fresh = baseline();
        fresh.rows[0].values[0].1 = f64::INFINITY; // jobs
        fresh.rows[0].values[3].1 = f64::NAN; // p99-us
        fresh.rows[0].values[4].1 = f64::NAN; // pool-hits: informational
        let report = compare(&baseline(), &fresh, &Tolerances::default()).unwrap();
        assert_eq!(report.regressions, 2, "{}", report.render());
        assert!(report.render().contains("jobs 24 → inf (non-finite value)"));
    }

    #[test]
    fn incomparable_envelopes_are_refused() {
        let mut fresh = baseline();
        fresh.seed = 7;
        assert!(matches!(
            compare(&baseline(), &fresh, &Tolerances::default()),
            Err(LabError::Schema(_))
        ));
        let mut fresh = baseline();
        fresh.smoke = false;
        assert!(compare(&baseline(), &fresh, &Tolerances::default()).is_err());
    }

    #[test]
    fn improvements_never_fail() {
        let mut fresh = baseline();
        fresh.rows[0].values[2].1 = 2000.0; // +100% throughput
        fresh.rows[0].values[3].1 = 100.0; // -97% p99
        let report = compare(&baseline(), &fresh, &Tolerances::default()).unwrap();
        assert!(report.passed(), "{}", report.render());
    }
}
