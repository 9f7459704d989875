//! The trajectory report: committed envelopes → one markdown document.
//!
//! `experiments report` parses every committed `BENCH_*.json` artifact
//! and renders them into `BENCH_TRAJECTORY.md`: per-experiment tables
//! (instance × metrics, in first-appearance order) plus a worker-scaling
//! digest built from the derived `scaling-efficiency` column. Because
//! the envelopes are regenerated and committed as the codebase evolves,
//! the committed report *is* the performance trajectory — re-rendered,
//! never hand-edited.

use crate::envelope::Envelope;

/// Renders `envelopes` (typically every committed `BENCH_*.json`,
/// sorted by experiment id) as one markdown document.
pub fn render_trajectory(envelopes: &[Envelope]) -> String {
    let mut out = String::from(
        "# Benchmark trajectory\n\n\
         Rendered by `experiments report` from the committed `BENCH_*.json`\n\
         envelopes — regenerate with `cargo run --release -p duality-bench --bin\n\
         experiments report`; do not edit by hand. Envelope schema and gating\n\
         policy: see `DESIGN.md` (Lab layer).\n",
    );
    for env in envelopes {
        out.push_str(&format!(
            "\n## {} (seed {}, {} run)\n\nScenarios: {}.\n\n",
            env.experiment,
            env.seed,
            if env.smoke { "smoke" } else { "full" },
            if env.scenarios.is_empty() {
                "—".to_string()
            } else {
                env.scenarios.join(", ")
            },
        ));
        let metrics = metric_union(env);
        out.push_str(&format!("| instance | n | D | {} |\n", metrics.join(" | ")));
        out.push_str(&format!("|---|---|---|{}\n", "---|".repeat(metrics.len())));
        for row in &env.rows {
            let cells: Vec<String> = metrics
                .iter()
                .map(|m| row.value(m).map_or("—".to_string(), fmt_value))
                .collect();
            out.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                row.instance,
                row.n,
                row.d,
                cells.join(" | ")
            ));
        }
    }
    let digest = scaling_digest(envelopes);
    if !digest.is_empty() {
        out.push_str(
            "\n## Worker scaling digest\n\n\
             `scaling-efficiency` = headline rate at N workers ÷ rate at 1 worker\n\
             (same scenario and shard count). Perfect scaling reads N; a flat\n\
             wall reads ~1.0 everywhere.\n\n\
             | experiment | scenario | best cell | best efficiency |\n\
             |---|---|---|---|\n",
        );
        out.push_str(&digest);
    }
    out
}

/// Every metric name across the envelope's rows, first-appearance
/// order — rows of one experiment usually share a schema, but the
/// union keeps mixed-shape envelopes (e.g. S8, whose static-peak row
/// carries fewer columns than its autopilot phases) renderable.
fn metric_union(env: &Envelope) -> Vec<String> {
    let mut metrics: Vec<String> = Vec::new();
    for row in &env.rows {
        for (name, _) in &row.values {
            if !metrics.iter().any(|m| m == name) {
                metrics.push(name.clone());
            }
        }
    }
    metrics
}

fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        "—".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}")
    }
}

fn scaling_digest(envelopes: &[Envelope]) -> String {
    let mut out = String::new();
    for env in envelopes {
        let mut scenarios: Vec<&str> = Vec::new();
        for row in &env.rows {
            let s = row.scenario();
            if row.value("scaling-efficiency").is_some() && !scenarios.contains(&s) {
                scenarios.push(s);
            }
        }
        for scenario in scenarios {
            let best = env
                .rows
                .iter()
                .filter(|r| r.scenario() == scenario)
                .filter_map(|r| Some((r, r.value("scaling-efficiency")?)))
                .max_by(|(_, a), (_, b)| a.total_cmp(b));
            if let Some((row, eff)) = best {
                let cell = row.instance.split_once(',').map_or("", |(_, c)| c.trim());
                out.push_str(&format!(
                    "| {} | {scenario} | {cell} | {eff:.2} |\n",
                    env.experiment
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::EnvRow;

    fn envelope() -> Envelope {
        Envelope::from_rows(
            "S7",
            42,
            false,
            vec![
                EnvRow {
                    experiment: "S7".into(),
                    instance: "steady-state, 1 wrk / 1 shd".into(),
                    n: 30,
                    d: 9,
                    values: vec![
                        ("max-sustainable-jps".into(), 1400.5),
                        ("knee-p99-us".into(), 3000.0),
                        ("scaling-efficiency".into(), 1.0),
                    ],
                },
                EnvRow {
                    experiment: "S7".into(),
                    instance: "steady-state, 4 wrk / 1 shd".into(),
                    n: 30,
                    d: 9,
                    values: vec![
                        ("max-sustainable-jps".into(), 1450.0),
                        ("knee-p99-us".into(), 2900.0),
                        ("scaling-efficiency".into(), 1.04),
                    ],
                },
            ],
        )
    }

    #[test]
    fn the_report_tables_every_row_and_metric() {
        let text = render_trajectory(&[envelope()]);
        assert!(text.contains("## S7 (seed 42, full run)"));
        assert!(text.contains("Scenarios: steady-state."));
        assert!(text.contains(
            "| instance | n | D | max-sustainable-jps | knee-p99-us | scaling-efficiency |"
        ));
        assert!(text.contains("| steady-state, 1 wrk / 1 shd | 30 | 9 | 1400.50 | 3000 | 1 |"));
        assert!(text.contains("| steady-state, 4 wrk / 1 shd | 30 | 9 | 1450 | 2900 | 1.04 |"));
    }

    #[test]
    fn the_digest_surfaces_the_best_scaling_cell() {
        let text = render_trajectory(&[envelope()]);
        assert!(text.contains("## Worker scaling digest"));
        assert!(text.contains("| S7 | steady-state | 4 wrk / 1 shd | 1.04 |"));
    }

    #[test]
    fn rows_without_a_metric_render_a_dash() {
        let mut env = envelope();
        env.rows[1].values.remove(1);
        let text = render_trajectory(&[env]);
        assert!(text.contains("| steady-state, 4 wrk / 1 shd | 30 | 9 | 1450 | — | 1.04 |"));
    }
}
