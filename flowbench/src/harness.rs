//! What every workload shares: the run arguments, the metric tables,
//! the timed-phase record, the end-to-end metric derivation, the span
//! log of traced runs and the substrate round bill.

use crate::util::{self, median, quantile};
use duality_congest::RoundReport;
use duality_core::InstanceKey;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The end-to-end metrics every workload reports with `--trace 0`, with
/// their units — kept equal to `BENCHMARK.json` by the self-test.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("congest_rounds_per_op", "rounds"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every workload reports with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.max_flow_ms", "ms"),
    ("core.min_st_cut_ms", "ms"),
    ("core.global_min_cut_ms", "ms"),
    ("core.girth_ms", "ms"),
    ("core.approx_ms", "ms"),
    ("core.probes_per_max_flow", "count"),
    ("core.query_rounds_per_op", "rounds"),
    ("labeling.labels_ms", "ms"),
    ("substrate.topo_build_ms", "ms"),
    ("substrate.embed_us", "us"),
    ("substrate.dual_us", "us"),
    ("substrate.bdd_us", "us"),
    ("substrate.weight_tier_us", "us"),
    ("substrate.labeling_us", "us"),
    ("substrate.weight_rounds_per_respec", "rounds"),
    ("substrate.engine_builds", "count"),
    ("substrate.label_builds", "count"),
    ("instance.respec_us", "us"),
    ("instance.key_us", "us"),
    ("pool.hits", "count/op"),
    ("pool.misses", "count/op"),
    ("pool.respec_reuses", "count/op"),
    ("pool.evictions", "count/op"),
    ("pool.lock_contended", "count/op"),
    ("pool.hit_ratio", "ratio"),
    ("pool.peak_resident_mb", "MiB"),
    ("pool.hit_us", "us"),
    ("service.submit_us", "us"),
    ("service.queue_wait_us", "us"),
    ("service.queue_wait_tail_us", "us"),
    ("service.exec_ms", "ms"),
    ("service.exec_tail_ms", "ms"),
    ("service.handoff_us", "us"),
    ("sched.steals", "count/op"),
    ("sched.steal_fails", "count/op"),
    ("sched.parks", "count/op"),
    ("sched.unparks", "count/op"),
    ("sched.injector_overflows", "count/op"),
    ("sched.queue_high_water", "count"),
    ("telemetry.sink_overhead", "ratio"),
    ("telemetry.dropped_records", "count"),
    ("trace.overhead", "ratio"),
    ("host.cores", "count"),
    ("host.probe_ms", "ms"),
];

/// How many times a traced run rotates through its passes (untraced,
/// sink only, fully traced), so slow host drift lands on each alike.
pub const ROTATIONS: usize = 6;

/// The command-line arguments of one workload run.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny tenants and a handful of ops: the self-test's size.
    pub smoke: bool,
}

impl Args {
    /// The fixed op count of a timed phase: `--seconds` times the
    /// workload's nominal rate, so the phase lasts about `--seconds` on
    /// a 2-vCPU host and every run of one length does the same work.
    pub fn op_count(&self, nominal_rate: f64, smoke_ops: usize) -> usize {
        if self.smoke {
            smoke_ops
        } else {
            ((self.seconds * nominal_rate).round() as usize).max(1)
        }
    }
}

/// The outcome of one workload run: what the last output line reports.
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: HashMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

/// One timed op: its latency, whether it returned `Ok` and passed the
/// output check, and the CONGEST rounds it caused.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub latency_us: f64,
    pub ok: bool,
    pub rounds: u64,
}

/// A timed phase: its ops and the wall and CPU time it took.
pub struct Timed {
    pub ops: Vec<Op>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Timed {
    pub fn throughput(&self) -> f64 {
        self.ops.len() as f64 / self.wall_s.max(1e-9)
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.latency_us / 1e3).collect()
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }
}

/// Runs `body` and returns its result with the wall and CPU seconds it
/// took.
pub fn measure<T>(body: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = util::process_cpu_s();
    let start = Instant::now();
    let out = body();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = match (cpu0, util::process_cpu_s()) {
        (Some(a), Some(b)) => b - a,
        _ => wall_s,
    };
    (out, wall_s, cpu_s)
}

/// Runs `reps` fresh set-ups (at least one), each logged as a `setup`
/// span; returns the last one, still warm, with every set-up's seconds.
/// Each earlier set-up is dropped before the next starts.
pub fn setups<W>(
    reps: usize,
    log: &mut SpanLog,
    mut setup: impl FnMut() -> (W, f64),
) -> (W, Vec<f64>) {
    let mut secs = Vec::with_capacity(reps);
    let mut warm = None;
    for _ in 0..reps.max(1) {
        drop(warm.take());
        let id = SpanLog::open();
        let start = Instant::now();
        let (w, s) = setup();
        log.close(id, "setup", 0, None, start);
        secs.push(s);
        warm = Some(w);
    }
    (warm.expect("at least one set-up ran"), secs)
}

/// Every end-to-end metric of one run, from its set-up times and its
/// timed phase. `tail_q` is the workload's fixed tail percentile.
pub fn end_to_end(setup_s: &[f64], t: &Timed, tail_q: f64) -> HashMap<&'static str, f64> {
    let lat = t.latencies_ms();
    let n = t.ops.len().max(1) as f64;
    let ok = t.ops.iter().filter(|o| o.ok).count() as f64;
    let rounds: u64 = t.ops.iter().map(|o| o.rounds).sum();
    HashMap::from([
        ("setup_s", median(setup_s)),
        ("throughput_ops", t.throughput()),
        ("latency_p50_ms", median(&lat)),
        ("latency_tail_ms", quantile(&lat, tail_q)),
        ("cpu_ms_per_op", t.cpu_s * 1e3 / n),
        ("congest_rounds_per_op", rounds as f64 / n),
        ("ok_share", ok / n),
        ("peak_rss_mb", util::peak_rss_mib().unwrap_or(0.0)),
    ])
}

/// The tail-percentile note: which percentile and how many samples lie
/// beyond it.
pub fn tail_note(ops: usize, q: f64) -> String {
    let beyond = ops - ((q * ops as f64).ceil() as usize).min(ops);
    format!(
        "tail: latency_tail_ms is p{} of {ops} ops ({beyond} beyond it)",
        q * 100.0
    )
}

/// The host line every run prints: core count and the probe kernel's
/// time before and after the workload.
pub fn host_note(before: f64, after: f64) -> String {
    format!(
        "host: cores={} probe_ms before={before:.3} after={after:.3}",
        util::host_cores()
    )
}

/// The set-up line: every repetition's seconds (their median is
/// `setup_s`).
pub fn setup_note(setup_s: &[f64]) -> String {
    let reps: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
    format!("setup: {} reps [{}] s", setup_s.len(), reps.join(" "))
}

/// One span of a traced run: a timed call into a layer, made from the
/// benchmark's own code.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// An in-memory span log, one per recording thread; logs are merged and
/// written once the run ends.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent closes.
    pub fn open() -> u64 {
        NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
    }

    /// Records span `id` over `start..now` and returns its duration.
    pub fn close(
        &mut self,
        id: u64,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        start: Instant,
    ) -> std::time::Duration {
        let end = Instant::now();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_us: util::us(start.saturating_duration_since(self.epoch)),
            end_us: util::us(end.saturating_duration_since(self.epoch)),
        });
        end - start
    }

    /// Times `f` as span `name` (a fresh id) and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = SpanLog::open();
        let start = Instant::now();
        let out = f();
        self.close(id, name, op, parent, start);
        out
    }

    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Durations of every span called `name`, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Writes the spans as JSON lines under the build directory
    /// (`$CARGO_TARGET_DIR`, else `target`) and returns the path.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<String> {
        use std::io::Write;
        let dir = std::path::PathBuf::from(
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()),
        )
        .join("flowbench-traces");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                util::json_str(s.name),
                s.start_us,
                s.end_us
            )?;
        }
        out.flush()?;
        Ok(path.display().to_string())
    }
}

/// Charges each op the substrate rounds it built, the way the engine
/// bills: a topology tier once per network, a weight tier once per spec.
/// The cumulative substrate snapshot every report carries is never
/// summed — only its growth since the last report on the same content.
#[derive(Default)]
pub struct SubstrateBill {
    topo: HashMap<u64, u64>,
    weight: HashMap<InstanceKey, u64>,
    /// Ops that were the first to report a spec's weight tier.
    pub weight_tiers_built: u64,
}

impl SubstrateBill {
    /// Marks substrate already built (by set-up) as paid.
    pub fn absorb(&mut self, key: InstanceKey, topo_total: u64, weight_total: u64) {
        let t = self.topo.entry(key.topo_fingerprint()).or_insert(0);
        *t = (*t).max(topo_total);
        let w = self.weight.entry(key).or_insert(0);
        *w = (*w).max(weight_total);
    }

    /// The rounds an op with report `r` on `key` caused: its query share
    /// plus any substrate growth it is the first to report.
    pub fn charge(&mut self, key: InstanceKey, r: &RoundReport) -> u64 {
        let t = self.topo.entry(key.topo_fingerprint()).or_insert(0);
        let topo = r.substrate_topo_total().saturating_sub(*t);
        *t = (*t).max(r.substrate_topo_total());
        let w = self.weight.entry(key).or_insert(0);
        let weight = r.substrate_weight_total().saturating_sub(*w);
        *w = (*w).max(r.substrate_weight_total());
        if weight > 0 {
            self.weight_tiers_built += 1;
        }
        r.query_total() + topo + weight
    }
}
