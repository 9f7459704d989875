//! The fleet dashboard: committed envelopes + one telemetry snapshot →
//! a single self-contained HTML document.
//!
//! `experiments dashboard` renders every committed `BENCH_*.json`
//! artifact and a live [`TelemetrySnapshot`] into
//! `BENCH_DASHBOARD.html`. The document carries **zero external
//! assets** — no scripts, no stylesheets, no fonts, no image files —
//! so the committed artifact renders identically from a repo checkout,
//! a CI artifact download, or a mail attachment, forever:
//!
//! * per-experiment sections mirror the trajectory tables, with inline
//!   SVG sparklines tracing the headline metrics (throughput, p99,
//!   sustainable rate, scaling efficiency) across the rows;
//! * the telemetry section surfaces the pool memory gauges
//!   (resident / peak / evicted bytes), the attributed span count and
//!   the per-tenant job table — who ran what, and how it ended. It shows
//!   no wall-clock figure, so one checkout regenerates the page byte for
//!   byte; per-phase build µs stay in S10's committed rows, and
//!   per-tenant p99 in [`TelemetrySnapshot`].

use crate::envelope::Envelope;
use duality_telemetry::TelemetrySnapshot;

/// Metrics that get a sparkline when present in an envelope's rows, in
/// presentation order.
const SPARK_METRICS: [&str; 4] = [
    "throughput-jps",
    "max-sustainable-jps",
    "p99-us",
    "scaling-efficiency",
];

/// Renders the dashboard. `telemetry` is typically a snapshot from a
/// fresh in-process fleet; `None` omits the live-fleet section.
pub fn render_dashboard(envelopes: &[Envelope], telemetry: Option<&TelemetrySnapshot>) -> String {
    let mut out = String::from(
        "<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>duality fleet dashboard</title>\n<style>\n\
         body{font:14px/1.5 ui-monospace,monospace;margin:2rem auto;max-width:72rem;\
         padding:0 1rem;color:#1a1a2e;background:#fafaf7}\n\
         h1,h2,h3{font-weight:600}\n\
         table{border-collapse:collapse;margin:.75rem 0;width:100%}\n\
         th,td{border:1px solid #d5d5cc;padding:.25rem .5rem;text-align:right}\n\
         th:first-child,td:first-child{text-align:left}\n\
         .spark{display:inline-block;vertical-align:middle;margin-right:1.25rem}\n\
         .gauge{display:inline-block;margin-right:2rem;padding:.5rem .75rem;\
         border:1px solid #d5d5cc;border-radius:4px;background:#fff}\n\
         .gauge b{display:block;font-size:1.2rem}\n\
         .line{fill:none;stroke:#4a6fa5;stroke-width:1.5}\n\
         caption{text-align:left;font-weight:600;padding:.25rem 0}\n\
         </style>\n</head>\n<body>\n<h1>duality fleet dashboard</h1>\n\
         <p>Rendered by <code>experiments dashboard</code> from the committed\n\
         <code>BENCH_*.json</code> envelopes and the counts of a fixed\n\
         in-process fleet burst, with no wall-clock figure, so it\n\
         regenerates byte for byte. Self-contained: no external assets.\n\
         Do not edit by hand.</p>\n",
    );
    if let Some(snap) = telemetry {
        render_telemetry(&mut out, snap);
    }
    for env in envelopes {
        render_envelope(&mut out, env);
    }
    out.push_str("</body>\n</html>\n");
    out
}

fn render_telemetry(out: &mut String, snap: &TelemetrySnapshot) {
    out.push_str("<h2>Live fleet</h2>\n<div>\n");
    for (label, value) in [
        ("resident", snap.pool_bytes.resident),
        ("peak resident", snap.pool_bytes.peak),
        ("evicted", snap.pool_bytes.evicted),
    ] {
        out.push_str(&format!(
            "<span class=\"gauge\"><b>{}</b>pool {label}</span>\n",
            fmt_bytes(value)
        ));
    }
    out.push_str(&format!(
        "<span class=\"gauge\"><b>{}</b>spans attributed ({} dropped)</span>\n</div>\n",
        snap.spans, snap.dropped
    ));

    if !snap.tenants.is_empty() {
        out.push_str(
            "<h3>Per-tenant attribution</h3>\n<table>\n<tr><th>tenant</th>\
             <th>completed</th><th>failed</th><th>cancelled</th><th>expired</th></tr>\n",
        );
        for t in &snap.tenants {
            out.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                escape(&t.label()),
                t.stats.completed,
                t.stats.failed,
                t.stats.cancelled,
                t.stats.expired,
            ));
        }
        out.push_str("</table>\n");
    }
}

fn render_envelope(out: &mut String, env: &Envelope) {
    out.push_str(&format!(
        "<h2>{} <small>(seed {}, {} run)</small></h2>\n",
        escape(&env.experiment),
        env.seed,
        if env.smoke { "smoke" } else { "full" }
    ));
    // Sparklines: each headline metric's trajectory across the rows.
    let mut sparks = String::new();
    for metric in SPARK_METRICS {
        let values: Vec<f64> = env.rows.iter().filter_map(|r| r.value(metric)).collect();
        if values.len() >= 2 {
            sparks.push_str(&format!(
                "<span class=\"spark\">{} {}</span>\n",
                sparkline(&values),
                escape(metric)
            ));
        }
    }
    if !sparks.is_empty() {
        out.push_str("<div>\n");
        out.push_str(&sparks);
        out.push_str("</div>\n");
    }
    // The full table, metric union across rows (mixed-shape safe).
    let mut metrics: Vec<&str> = Vec::new();
    for row in &env.rows {
        for (name, _) in &row.values {
            if !metrics.contains(&name.as_str()) {
                metrics.push(name);
            }
        }
    }
    out.push_str("<table>\n<tr><th>instance</th><th>n</th><th>D</th>");
    for m in &metrics {
        out.push_str(&format!("<th>{}</th>", escape(m)));
    }
    out.push_str("</tr>\n");
    for row in &env.rows {
        out.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td>",
            escape(&row.instance),
            row.n,
            row.d
        ));
        for m in &metrics {
            out.push_str(&format!(
                "<td>{}</td>",
                row.value(m).map_or("—".to_string(), fmt_value)
            ));
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</table>\n");
}

/// An inline SVG sparkline: the values as one polyline, normalized to
/// the [min, max] band.
fn sparkline(values: &[f64]) -> String {
    let (w, h, pad) = (120.0, 28.0, 2.0);
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = if hi > lo { hi - lo } else { 1.0 };
    let step = (w - 2.0 * pad) / (values.len().max(2) - 1) as f64;
    let points: Vec<String> = values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let v = if v.is_finite() { *v } else { lo };
            let x = pad + i as f64 * step;
            let y = h - pad - (v - lo) / span * (h - 2.0 * pad);
            format!("{x:.1},{y:.1}")
        })
        .collect();
    format!(
        "<svg class=\"spark\" width=\"{w:.0}\" height=\"{h:.0}\" viewBox=\"0 0 {w:.0} {h:.0}\" \
         role=\"img\"><polyline class=\"line\" points=\"{}\"/></svg>",
        points.join(" ")
    )
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

fn fmt_bytes(b: u64) -> String {
    match b {
        0..=1023 => format!("{b} B"),
        1024..=1048575 => format!("{:.1} KiB", b as f64 / 1024.0),
        1048576..=1073741823 => format!("{:.1} MiB", b as f64 / 1048576.0),
        _ => format!("{:.2} GiB", b as f64 / 1073741824.0),
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::EnvRow;

    fn envelope(id: &str) -> Envelope {
        Envelope::from_rows(
            id,
            42,
            false,
            vec![
                EnvRow {
                    experiment: id.into(),
                    instance: "steady-state, 1 wrk / 1 shd".into(),
                    n: 30,
                    d: 9,
                    values: vec![("throughput-jps".into(), 1000.0), ("p99-us".into(), 4000.0)],
                },
                EnvRow {
                    experiment: id.into(),
                    instance: "steady-state, 4 wrk / 1 shd".into(),
                    n: 30,
                    d: 9,
                    values: vec![("throughput-jps".into(), 2600.0), ("p99-us".into(), 3100.0)],
                },
            ],
        )
    }

    #[test]
    fn the_dashboard_renders_every_envelope_self_contained() {
        let envs = [envelope("S5"), envelope("S9")];
        let html = render_dashboard(&envs, None);
        for env in &envs {
            assert!(html.contains(&format!("<h2>{} ", env.experiment)));
            for row in &env.rows {
                assert!(html.contains(&row.instance), "{} row missing", row.instance);
            }
        }
        assert!(html.contains("<polyline"), "sparklines are inline SVG");
        // Self-containment: nothing fetches, links, or executes.
        for banned in ["http://", "https://", "<script", "<link", "<img", "url("] {
            assert!(!html.contains(banned), "external asset leak: {banned}");
        }
    }

    #[test]
    fn the_telemetry_section_carries_gauges_and_tenants_reproducibly() {
        use duality_core::Query;
        use duality_planar::gen;
        use duality_service::ServiceEngine;
        use duality_telemetry::Telemetry;

        let render = || {
            let telemetry = Telemetry::new(64);
            let engine = ServiceEngine::builder()
                .workers(1)
                .span_sink(telemetry.sink())
                .build()
                .unwrap();
            let g = gen::diag_grid(4, 4, 7).unwrap();
            let caps = gen::random_undirected_capacities(g.num_edges(), 1, 9, 7);
            let i = duality_core::PlanarInstance::new(g, Some(caps), None).unwrap();
            telemetry.name_tenant(&i, "alpha");
            engine.run(&i, Query::Girth).unwrap();
            let m = engine.shutdown();
            telemetry.set_pool_bytes(m.pool_total().bytes);
            render_dashboard(&[], Some(&telemetry.snapshot()))
        };

        let html = render();
        assert!(html.contains("pool resident"));
        assert!(html.contains("spans attributed"));
        assert!(html.contains("alpha"), "tenant table uses registered names");
        assert!(!html.contains("<script"));
        assert!(!html.contains("µs"), "no wall-clock figure");
        assert_eq!(html, render(), "a second burst renders the same page");
    }
}
