//! A std-only micro-benchmark harness — the workspace's replacement for
//! Criterion, so benches build offline with zero external dependencies.
//!
//! Protocol per benchmark: run `warmup` untimed iterations, then time
//! `iters` iterations individually and report min / mean / median / p95.
//! Results print as human-readable lines and serialize as JSON-lines
//! records (one object per benchmark), the format the checked-in
//! `BENCH_*.json` files use; see README "Reproducing benchmark numbers".

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;
use td_support::metrics::{json_string, percentile_nearest_rank};

/// Harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Untimed warmup iterations before measurement.
    pub warmup: usize,
    /// Timed iterations.
    pub iters: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            warmup: 3,
            iters: 10,
        }
    }
}

impl BenchConfig {
    /// Quick preset for CI smoke runs.
    pub fn quick() -> Self {
        BenchConfig {
            warmup: 1,
            iters: 3,
        }
    }
}

/// Summary statistics of one benchmark.
#[derive(Clone, Debug)]
pub struct BenchStats {
    /// Benchmark name.
    pub name: String,
    /// Number of timed iterations.
    pub iters: usize,
    /// Fastest iteration, nanoseconds.
    pub min_ns: u128,
    /// Arithmetic mean, nanoseconds.
    pub mean_ns: u128,
    /// Median (50th percentile), nanoseconds.
    pub median_ns: u128,
    /// 90th percentile, nanoseconds.
    pub p90_ns: u128,
    /// 95th percentile, nanoseconds.
    pub p95_ns: u128,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u128,
    /// 99.9th percentile, nanoseconds.
    pub p999_ns: u128,
}

impl BenchStats {
    /// One JSON object on one line — the `BENCH_*.json` record format.
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"name\":{},\"iters\":{},\"min_ns\":{},\"mean_ns\":{},\"median_ns\":{},\
             \"p90_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"p999_ns\":{}}}",
            json_string(&self.name),
            self.iters,
            self.min_ns,
            self.mean_ns,
            self.median_ns,
            self.p90_ns,
            self.p95_ns,
            self.p99_ns,
            self.p999_ns
        );
        out
    }

    /// Human-readable one-line summary.
    pub fn to_display_line(&self) -> String {
        format!(
            "{:<40} median {:>12} ns   p95 {:>12} ns   ({} iters)",
            self.name, self.median_ns, self.p95_ns, self.iters
        )
    }
}

/// Runs one benchmark: `warmup` untimed + `iters` timed calls of `f`.
///
/// Wrap inputs/outputs in [`std::hint::black_box`] inside `f` where the
/// optimizer could otherwise delete the measured work.
pub fn bench<R>(name: &str, config: BenchConfig, mut f: impl FnMut() -> R) -> BenchStats {
    let iters = config.iters.max(1);
    for _ in 0..config.warmup {
        black_box(f());
    }
    let mut samples: Vec<u128> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        black_box(f());
        samples.push(start.elapsed().as_nanos());
    }
    samples.sort_unstable();
    let min_ns = samples[0];
    let mean_ns = samples.iter().sum::<u128>() / samples.len() as u128;
    // Quantile semantics are shared with the metrics histograms: one
    // nearest-rank implementation in `td_support::metrics`, so a `p95`
    // here and a `p95_ns` there mean the same thing (see its docs).
    BenchStats {
        name: name.to_owned(),
        iters,
        min_ns,
        mean_ns,
        median_ns: percentile_nearest_rank(&samples, 50.0),
        p90_ns: percentile_nearest_rank(&samples, 90.0),
        p95_ns: percentile_nearest_rank(&samples, 95.0),
        p99_ns: percentile_nearest_rank(&samples, 99.0),
        p999_ns: percentile_nearest_rank(&samples, 99.9),
    }
}

/// A suite: collects stats and renders both display and JSON-lines output.
#[derive(Debug, Default)]
pub struct BenchSuite {
    config: BenchConfig,
    results: Vec<BenchStats>,
}

impl BenchSuite {
    /// A suite with the given per-benchmark configuration.
    pub fn new(config: BenchConfig) -> Self {
        BenchSuite {
            config,
            results: Vec::new(),
        }
    }

    /// A suite honouring `TD_BENCH_QUICK=1` (CI smoke mode).
    pub fn from_env() -> Self {
        let config = if crate::gate::quick() {
            BenchConfig::quick()
        } else {
            BenchConfig::default()
        };
        Self::new(config)
    }

    /// Runs and records one benchmark, echoing its display line.
    pub fn run<R>(&mut self, name: &str, f: impl FnMut() -> R) -> &BenchStats {
        let stats = bench(name, self.config, f);
        println!("{}", stats.to_display_line());
        self.results.push(stats);
        self.results.last().expect("just pushed")
    }

    /// All recorded results.
    pub fn results(&self) -> &[BenchStats] {
        &self.results
    }

    /// The full suite as JSON lines (one benchmark per line).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for stats in &self.results {
            out.push_str(&stats.to_json_line());
            out.push('\n');
        }
        out
    }

    /// The suite plus one trailing `{"metrics": {...}}` record carrying
    /// this thread's metrics snapshot — per-pass/per-transform timers and
    /// the interpreter statistics (`interp.stats.*`), so `TD_BENCH_JSON`
    /// consumers get execution counters next to the timings.
    pub fn to_json_lines_with_metrics(&self) -> String {
        let mut out = self.to_json_lines();
        let _ = writeln!(
            out,
            "{{\"metrics\":{}}}",
            td_support::metrics::snapshot().to_json()
        );
        out
    }

    /// Writes the JSON-lines report (benchmarks plus the trailing metrics
    /// record) to `path` (e.g. `BENCH_micro.json`).
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_lines_with_metrics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_ordered_stats() {
        let stats = bench(
            "spin",
            BenchConfig {
                warmup: 1,
                iters: 8,
            },
            || {
                let mut acc = 0u64;
                for i in 0..1000u64 {
                    acc = acc.wrapping_add(black_box(i));
                }
                acc
            },
        );
        assert_eq!(stats.iters, 8);
        assert!(stats.min_ns <= stats.median_ns);
        assert!(stats.median_ns <= stats.p95_ns);
        assert!(stats.min_ns > 0, "timed work must be visible");
    }

    #[test]
    fn json_line_is_one_object() {
        let stats = bench("j", BenchConfig::quick(), || 1 + 1);
        let line = stats.to_json_line();
        assert!(line.starts_with("{\"name\":\"j\""));
        assert!(!line.contains('\n'));
        assert!(line.contains("\"median_ns\":"));
    }

    #[test]
    fn suite_collects_results_as_json_lines() {
        let mut suite = BenchSuite::new(BenchConfig::quick());
        suite.run("a", || 1);
        suite.run("b", || 2);
        let report = suite.to_json_lines();
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"a\"") && lines[1].contains("\"b\""));
    }

    #[test]
    fn percentile_matches_shared_nearest_rank_semantics() {
        let sorted = vec![10, 20, 30, 40];
        assert_eq!(percentile_nearest_rank(&sorted, 50.0), 20);
        assert_eq!(percentile_nearest_rank(&sorted, 95.0), 40);
        assert_eq!(percentile_nearest_rank(&[7], 50.0), 7);
    }
}
