//! Batch-level observability: where did the batch's wall-clock go?
//!
//! [`BatchStats`] decomposes a batch into the three quantities a scheduler
//! operator actually tunes against:
//!
//! * **queue wait vs. run time** — per-job latency split into "sat in the
//!   queue behind other jobs" and "executed", each as a log-bucketed
//!   [`Histogram`] with p50/p90/p99/p999 (a growing wait histogram at a
//!   stable run histogram means the pool is undersized, not the jobs
//!   slower);
//! * **worker utilization** — per-worker busy time over batch wall time,
//!   plus the raw dispatch timeline (job start/end offsets from batch
//!   start) for visualizing pool imbalance;
//! * **cache behaviour** — the batch-scoped hit rate alongside the raw
//!   counters.
//!
//! Every worker — the calling thread, as worker 0, included — starts a
//! batch from empty thread-local metrics and hands them back, so the
//! histograms here are exactly batch-scoped; the same samples also flow
//! into the caller's registry via `metrics::absorb`, which is how they
//! reach `metrics::snapshot` / `dump_json`. A cache hit never reaches a worker: the probe
//! records its sample directly ([`BatchStats::observe_job`]), so every job
//! of a batch is in every histogram, while `lanes` describe only the
//! workers that ran misses (none for an all-hit batch).

use crate::cache::CacheStats;
use std::fmt::Write as _;
use td_support::metrics::{Histogram, Metrics};

/// Histogram series names recorded per job on the worker threads.
pub const QUEUE_WAIT_SERIES: &str = "sched.job.queue_wait";
/// See [`QUEUE_WAIT_SERIES`].
pub const RUN_SERIES: &str = "sched.job.run";
/// See [`QUEUE_WAIT_SERIES`].
pub const TOTAL_SERIES: &str = "sched.job.total";

/// One worker's activity during a batch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerLane {
    /// Worker index (0 is the calling thread; trace lane `tid` is this + 1).
    pub worker: usize,
    /// Jobs this worker dispatched (including drained cancellations).
    pub jobs: u64,
    /// Nanoseconds spent running jobs (dispatch to completion).
    pub busy_ns: u128,
    /// Per-job `(start_ns, end_ns)` offsets from batch start — the
    /// utilization timeline. Gaps are idle time (the list ran out).
    pub timeline: Vec<(u128, u128)>,
}

impl WorkerLane {
    /// Busy fraction of `wall_ns` in `[0, 1]`.
    pub fn utilization(&self, wall_ns: u128) -> f64 {
        if wall_ns == 0 {
            0.0
        } else {
            (self.busy_ns.min(wall_ns)) as f64 / wall_ns as f64
        }
    }
}

/// Latency and utilization breakdown of one batch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchStats {
    /// Batch wall-clock in nanoseconds.
    pub wall_ns: u128,
    /// Time from the miss list being complete to a worker claiming the job.
    pub queue_wait: Histogram,
    /// Time jobs spent executing (dispatch to result).
    pub run: Histogram,
    /// Queue wait + run, per job.
    pub total: Histogram,
    /// Cache counter deltas attributable to this batch.
    pub cache: CacheStats,
    /// Per-worker activity, indexed by worker: one lane per thread that ran
    /// the batch's misses, the caller's first.
    pub lanes: Vec<WorkerLane>,
    /// Transactional rollbacks across the batch (the workers'
    /// `interp.rolled_back` counters — includes rollbacks of attempts
    /// that went on to fail, which per-job [`JobOutput`] stats cannot
    /// see).
    ///
    /// [`JobOutput`]: crate::JobOutput
    pub rollbacks: u64,
    /// Undo-log entries recorded inside transactional steps across the
    /// batch (the workers' `interp.txn.undo_entries` counters).
    pub undo_entries: u64,
}

impl BatchStats {
    /// Merges one worker's batch-scoped metrics (the job histograms) and
    /// its lane record into the batch stats.
    pub fn absorb_worker(&mut self, worker_metrics: &Metrics, lane: WorkerLane) {
        for (series, histogram) in [
            (QUEUE_WAIT_SERIES, &mut self.queue_wait),
            (RUN_SERIES, &mut self.run),
            (TOTAL_SERIES, &mut self.total),
        ] {
            if let Some(worker_histogram) = worker_metrics.histogram(series) {
                histogram.merge(worker_histogram);
            }
        }
        self.rollbacks += worker_metrics
            .counter_value("interp.rolled_back")
            .unwrap_or(0);
        self.undo_entries += worker_metrics
            .counter_value("interp.txn.undo_entries")
            .unwrap_or(0);
        self.lanes.push(lane);
    }

    /// Records one job answered on the submitting thread (a cache hit),
    /// which has no worker lane to arrive through.
    pub fn observe_job(&mut self, wait_ns: u128, run_ns: u128) {
        self.queue_wait.observe(wait_ns);
        self.run.observe(run_ns);
        self.total.observe(wait_ns + run_ns);
    }

    /// Mean worker utilization in `[0, 1]`.
    pub fn pool_utilization(&self) -> f64 {
        if self.lanes.is_empty() {
            return 0.0;
        }
        self.lanes
            .iter()
            .map(|lane| lane.utilization(self.wall_ns))
            .sum::<f64>()
            / self.lanes.len() as f64
    }

    /// Human-readable breakdown, appended to batch reports:
    ///
    /// ```text
    /// batch stats: 8 job(s), 1.2ms wall, cache 50.0% hit (4/8)
    ///   queue_wait  p50 12.3µs  p90 40.1µs  p99 41.0µs  p999 41.0µs
    ///   run         p50 0.8ms   p90 1.1ms   p99 1.1ms   p999 1.1ms
    ///   worker 0: 3 job(s), 87.2% busy
    /// ```
    pub fn report_text(&self) -> String {
        let mut out = format!(
            "batch stats: {} job(s), {:.3}ms wall, cache {:.1}% hit ({}/{})\n",
            self.total.count,
            self.wall_ns as f64 / 1e6,
            self.cache.hit_rate() * 100.0,
            self.cache.hits,
            self.cache.hits + self.cache.misses,
        );
        if self.rollbacks > 0 || self.undo_entries > 0 {
            let _ = writeln!(
                out,
                "  txn: {} rollback(s), {} undo entr{}",
                self.rollbacks,
                self.undo_entries,
                if self.undo_entries == 1 { "y" } else { "ies" },
            );
        }
        for (label, histogram) in [
            ("queue_wait", &self.queue_wait),
            ("run", &self.run),
            ("total", &self.total),
        ] {
            let _ = writeln!(
                out,
                "  {label:<10}  p50 {:.3}ms  p90 {:.3}ms  p99 {:.3}ms  p999 {:.3}ms  max {:.3}ms",
                histogram.quantile_ns(0.50) as f64 / 1e6,
                histogram.quantile_ns(0.90) as f64 / 1e6,
                histogram.quantile_ns(0.99) as f64 / 1e6,
                histogram.quantile_ns(0.999) as f64 / 1e6,
                histogram.max_ns as f64 / 1e6,
            );
        }
        for lane in &self.lanes {
            let _ = writeln!(
                out,
                "  worker {}: {} job(s), {:.1}% busy",
                lane.worker,
                lane.jobs,
                lane.utilization(self.wall_ns) * 100.0,
            );
        }
        out
    }

    /// JSON with stable field order; histogram objects carry
    /// `p50_ns`/`p90_ns`/`p99_ns`/`p999_ns` (see `Histogram::to_json`).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"wall_ns\":{},\"jobs\":{},\"workers\":{},",
            self.wall_ns,
            self.total.count,
            self.lanes.len()
        );
        let _ = write!(
            out,
            "\"cache\":{{\"hits\":{},\"misses\":{},\"inserts\":{},\"evictions\":{},\
             \"replacements\":{},\"disk_hits\":{},\"hit_rate\":{:.4},\"disk_hit_rate\":{:.4}}},",
            self.cache.hits,
            self.cache.misses,
            self.cache.inserts,
            self.cache.evictions,
            self.cache.replacements,
            self.cache.disk_hits,
            self.cache.hit_rate(),
            self.cache.disk_hit_rate(),
        );
        let _ = write!(
            out,
            "\"txn\":{{\"rollbacks\":{},\"undo_entries\":{}}},",
            self.rollbacks, self.undo_entries,
        );
        let _ = write!(
            out,
            "\"queue_wait\":{},\"run\":{},\"total\":{},\"pool_utilization\":{:.4},",
            self.queue_wait.to_json(),
            self.run.to_json(),
            self.total.to_json(),
            self.pool_utilization(),
        );
        out.push_str("\"lanes\":[");
        for (i, lane) in self.lanes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"worker\":{},\"jobs\":{},\"busy_ns\":{},\"utilization\":{:.4},\"timeline\":[",
                lane.worker,
                lane.jobs,
                lane.busy_ns,
                lane.utilization(self.wall_ns),
            );
            for (j, (start_ns, end_ns)) in lane.timeline.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{start_ns},{end_ns}]");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_support::trace::validate_json;

    fn worker_metrics(wait: &[u128], run: &[u128]) -> Metrics {
        let mut m = Metrics::new();
        for &w in wait {
            m.observe_ns(QUEUE_WAIT_SERIES, w);
            m.observe_ns(RUN_SERIES, run[0]);
            m.observe_ns(TOTAL_SERIES, w + run[0]);
        }
        m
    }

    #[test]
    fn absorbing_workers_pools_histograms_and_lanes() {
        let mut stats = BatchStats {
            wall_ns: 1_000_000,
            ..BatchStats::default()
        };
        stats.absorb_worker(
            &worker_metrics(&[1_000, 2_000], &[100_000]),
            WorkerLane {
                worker: 0,
                jobs: 2,
                busy_ns: 200_000,
                timeline: vec![(0, 100_000), (150_000, 250_000)],
            },
        );
        stats.absorb_worker(
            &worker_metrics(&[3_000], &[100_000]),
            WorkerLane {
                worker: 1,
                jobs: 1,
                busy_ns: 100_000,
                timeline: vec![(0, 100_000)],
            },
        );
        assert_eq!(stats.queue_wait.count, 3);
        assert_eq!(stats.total.count, 3);
        assert_eq!(stats.lanes.len(), 2);
        let expected = (0.2 + 0.1) / 2.0;
        assert!((stats.pool_utilization() - expected).abs() < 1e-9);
        // A job answered on the submitting thread is a sample, not a lane.
        stats.observe_job(500, 1_000);
        assert_eq!((stats.queue_wait.count, stats.run.count), (4, 4));
        assert_eq!((stats.total.count, stats.total.max_ns), (4, 103_000));
        assert_eq!(stats.lanes.len(), 2);
        assert!((stats.pool_utilization() - expected).abs() < 1e-9);
    }

    #[test]
    fn report_text_names_percentiles_and_workers() {
        let mut stats = BatchStats {
            wall_ns: 500_000,
            ..BatchStats::default()
        };
        stats.absorb_worker(
            &worker_metrics(&[5_000], &[50_000]),
            WorkerLane {
                worker: 0,
                jobs: 1,
                busy_ns: 50_000,
                timeline: vec![(0, 50_000)],
            },
        );
        let text = stats.report_text();
        for needle in ["queue_wait", "p50", "p999", "worker 0: 1 job(s)"] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
    }

    #[test]
    fn json_is_valid_and_carries_percentile_fields() {
        let mut stats = BatchStats {
            wall_ns: 500_000,
            cache: CacheStats {
                hits: 1,
                misses: 3,
                inserts: 3,
                ..CacheStats::default()
            },
            ..BatchStats::default()
        };
        stats.absorb_worker(
            &worker_metrics(&[5_000, 7_000], &[50_000]),
            WorkerLane {
                worker: 0,
                jobs: 2,
                busy_ns: 100_000,
                timeline: vec![(0, 50_000), (60_000, 110_000)],
            },
        );
        let json = stats.to_json();
        validate_json(&json).expect("stats JSON well-formed");
        for field in [
            "\"wall_ns\":500000",
            "\"hit_rate\":0.2500",
            "\"queue_wait\":{\"count\":2",
            "\"p50_ns\":",
            "\"p90_ns\":",
            "\"p99_ns\":",
            "\"p999_ns\":",
            "\"timeline\":[[0,50000],[60000,110000]]",
        ] {
            assert!(json.contains(field), "missing {field}: {json}");
        }
    }

    #[test]
    fn empty_stats_serialize_cleanly() {
        let stats = BatchStats::default();
        validate_json(&stats.to_json()).unwrap();
        assert_eq!(stats.pool_utilization(), 0.0);
        assert!(stats.report_text().contains("0 job(s)"));
    }
}
