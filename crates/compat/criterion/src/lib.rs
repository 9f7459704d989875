//! A vendored, dependency-free stand-in for the subset of the `criterion`
//! API this workspace's benches use: benchmark groups, parameterized
//! benches, and the `criterion_group!` / `criterion_main!` macros.
//!
//! Measurement is intentionally simple — a short warmup followed by
//! ten timed samples of an adaptively chosen batch, reporting
//! min/median/mean per iteration — enough to compare implementations and
//! catch large regressions without the real crate's statistical machinery.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed samples per benchmark.
const SAMPLES: usize = 10;

/// Identifier of one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id carrying only the parameter.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(&self.label)
    }
}

/// The timing driver handed to bench closures.
pub struct Bencher {
    /// Mean/min/median nanoseconds per iteration of the last `iter` call.
    last: Option<(f64, f64, f64)>,
}

impl Bencher {
    /// Times `routine`, storing per-iteration statistics.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warmup + batch sizing: aim for >= 1ms per sample where possible.
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let batch = (Duration::from_millis(1).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u64;

        let mut per_iter: Vec<f64> = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            per_iter.push(start.elapsed().as_nanos() as f64 / batch as f64);
        }
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let min = per_iter[0];
        let median = per_iter[per_iter.len() / 2];
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        self.last = Some((mean, min, median));
    }
}

fn human(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'c> {
    name: String,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Benchmarks `f` with a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher, &I),
    {
        let mut b = Bencher { last: None };
        f(&mut b, input);
        match b.last {
            Some((mean, min, median)) => println!(
                "{}/{id:<24} mean {:>12}   median {:>12}   min {:>12}",
                self.name,
                human(mean),
                human(median),
                human(min)
            ),
            None => println!("{}/{id}: no measurement (iter never called)", self.name),
        }
        self
    }

    /// Ends the group (printing is incremental, so this is cosmetic).
    pub fn finish(&mut self) {}
}

/// The top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== {name} ==");
        BenchmarkGroup {
            name,
            _criterion: self,
        }
    }
}

/// Bundles bench functions into a runnable group, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the given groups, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_statistics() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke");
        group.bench_with_input(BenchmarkId::from_parameter("x"), &21u64, |b, &x| {
            b.iter(|| black_box(x * 2))
        });
        group.finish();
    }

    #[test]
    fn ids_format() {
        assert_eq!(BenchmarkId::from_parameter("8x8").to_string(), "8x8");
    }

    criterion_group!(demo_group, demo_bench);
    fn demo_bench(c: &mut Criterion) {
        c.benchmark_group("demo").bench_with_input(
            BenchmarkId::from_parameter("noop"),
            &(),
            |b, ()| b.iter(|| ()),
        );
    }

    #[test]
    fn group_macro_runs() {
        demo_group();
    }
}
