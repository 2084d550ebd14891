//! What the four workloads have in common: rounds of a fixed job count, the
//! measured loop over them, and the end-to-end summary.

use crate::stats;
use std::time::Instant;

/// Where the benchmark writes (relative to the repository root, which
/// `run.sh` makes the working directory). Ignored by git.
pub const OUT_DIR: &str = "benchmark/out";

/// Workload names, in ledger order. Later issues cite these.
pub const WORKLOADS: [&str; 4] = ["models_direct", "sweep_engine", "serve_cold", "serve_warm"];

/// Seed used when none is given; the committed golden digests are for it.
pub const DEFAULT_SEED: u64 = 20250301;

/// Worker count *and* client/connection count: `min(nproc, 4)`.
pub fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// Round sizes. Counts, not durations, so a round's job, transform and
/// byte counts repeat exactly; how many rounds run is what `--seconds`
/// decides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Jobs in the serving corpus (K). Above the daemon's 1024-entry
    /// memory level at full scale, so cold rounds evict and warm rounds
    /// read their tail from disk.
    pub corpus: usize,
    /// Zipf draws added to the one-of-each floor of a `serve_warm` round.
    pub warm_draws: usize,
    /// Shapes swept per `sweep_engine` round (× 32 candidates, + 25%
    /// revisits); above 32 the round overflows the 1024-entry cache.
    pub sweep_shapes: usize,
}

impl Scale {
    /// The committed scale every reported number uses.
    pub const FULL: Scale = Scale {
        corpus: 1536,
        warm_draws: 1536,
        sweep_shapes: 40,
    };
    /// The `--check` scale: same code paths, a quarter of the work.
    pub const CHECK: Scale = Scale {
        corpus: 400,
        warm_draws: 400,
        sweep_shapes: 10,
    };
}

/// A fixed slice of a round's job list, timed on its own. Segments are the
/// unit the best-of-rounds statistics are taken over: short enough (a few
/// hundred milliseconds at most) that some round runs each of them while
/// the host is undisturbed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Segment {
    /// Wall nanoseconds from its first submission to its last reply.
    pub wall_ns: u64,
    /// CPU nanoseconds the process under test consumed meanwhile.
    pub cpu_ns: u64,
}

/// One round of a workload.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// The round's segments, the same split in every round.
    pub segments: Vec<Segment>,
    /// Caller-seen latency of every job, by the job's position in the
    /// round's fixed job list.
    pub latencies_ns: Vec<u64>,
    /// Jobs whose outcome differed from the reference.
    pub failed: usize,
    /// `VmHWM` of the process under test at the end of the round.
    pub peak_rss_kb: u64,
    /// Counts that must repeat exactly from round to round.
    pub signature: Vec<u64>,
    /// Bytes of output produced.
    pub output_bytes: u64,
    /// Transform ops executed (as the results report them).
    pub transforms: u64,
    /// Undo-log entries recorded.
    pub undo_entries: u64,
    /// Top-level steps rolled back.
    pub rolled_back: u64,
    /// Cache lookups served, over lookups made.
    pub cache_hit_share: f64,
    /// Cache lookups served from disk, over lookups made.
    pub cache_disk_hit_share: f64,
    /// Memory-cache evictions.
    pub cache_evictions: u64,
}

impl Round {
    /// Jobs attempted.
    pub fn jobs(&self) -> usize {
        self.latencies_ns.len()
    }

    /// Wall nanoseconds of the round's segments together.
    pub fn wall_ns(&self) -> u64 {
        self.segments.iter().map(|s| s.wall_ns).sum()
    }
}

/// Runs `work` as one segment, timing it and the CPU the process under test
/// (`pid`) spends meanwhile.
pub fn timed_segment<R>(pid: u32, work: impl FnOnce() -> R) -> (Segment, R) {
    let cpu = stats::cpu_time_ns(pid);
    let started = Instant::now();
    let result = work();
    let wall_ns = started.elapsed().as_nanos() as u64;
    let cpu_ns = stats::cpu_time_ns(pid) - cpu;
    (Segment { wall_ns, cpu_ns }, result)
}

/// A workload after set-up: something that can run one more round.
pub trait Workload {
    /// Runs one round of the workload's fixed job list.
    fn round(&mut self) -> Round;

    /// Digest of the workload's inputs and reference outputs: what the
    /// committed golden file pins for the default seed.
    fn digest(&self) -> u64;
}

/// The four timed end-to-end statistics of a set of rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timed {
    /// Reference-matching jobs per wall second.
    pub jobs_per_s: f64,
    /// Median caller-seen latency, ms.
    pub job_ms_p50: f64,
    /// 95th percentile (nearest rank) of caller-seen latency, ms.
    pub job_ms_p95: f64,
    /// CPU milliseconds of the process under test per job.
    pub cpu_ms_per_job: f64,
}

/// Best-of-rounds statistics. Every round runs the same jobs in the same
/// segments, so each segment and each job has one sample per round; the best
/// (smallest) of those is the one least disturbed by whatever else the host
/// was doing. Throughput and CPU are taken over the segments' best times,
/// the latency percentiles over the jobs' best latencies (so they remain
/// percentiles over the round's job population, with as many samples as a
/// round has jobs).
///
/// Why not medians over rounds: on the shared 2-core host the baseline was
/// taken on, a fixed spin loop alternates between 3.0 ms and 3.9 ms for
/// seconds at a time; over 25 s windows its median moved 6–9% (IQR) from run
/// to run, the best 0.25–0.5 s stretch 0.3–1.2%.
pub fn best_of<'a>(rounds: impl Iterator<Item = &'a Round> + Clone) -> Timed {
    let Some(first) = rounds.clone().next() else {
        return Timed::default();
    };
    let best_segment = |time: fn(&Segment) -> u64| -> f64 {
        (0..first.segments.len())
            .map(|s| {
                let best = rounds.clone().map(|r| time(&r.segments[s])).min();
                best.expect("at least one round") as f64
            })
            .sum()
    };
    let best_latencies: Vec<u64> = (0..first.jobs())
        .map(|j| {
            let best = rounds.clone().map(|r| r.latencies_ns[j]).min();
            best.expect("at least one round")
        })
        .collect();
    let (job_ms_p50, job_ms_p95) = stats::p50_p95_ms(&best_latencies);
    let jobs = first.jobs() as f64;
    let failed = rounds.clone().map(|r| r.failed).max().unwrap_or(0) as f64;
    Timed {
        jobs_per_s: (jobs - failed) / (best_segment(|s| s.wall_ns) / 1e9),
        job_ms_p50,
        job_ms_p95,
        cpu_ms_per_job: best_segment(|s| s.cpu_ns) / 1e6 / jobs,
    }
}

/// Groups the per-metric spread estimate is taken over.
const SPREAD_GROUPS: usize = 4;

/// End-to-end summary of the measured rounds of one run.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Measured rounds (the warm-up round is not among them).
    pub rounds: usize,
    /// Jobs attempted in measured rounds.
    pub attempted: usize,
    /// Jobs whose outcome differed from the reference.
    pub failed: usize,
    /// [`best_of`] all measured rounds: the reported values.
    pub best: Timed,
    /// [`best_of`] every fourth round, for each of the four offsets: four
    /// weaker estimates of the same quantities whose disagreement says how
    /// far the reported value can be trusted (`compare.sh` calls a metric
    /// unresolved when they disagree by more than its bound).
    pub groups: Vec<Timed>,
    /// `VmHWM` of the process under test after each round, MB.
    pub peak_rss_mb_rounds: Vec<f64>,
    /// Jobs per round: the sample count behind the latency percentiles.
    pub latency_samples: usize,
    /// Mean over measured rounds of a round's summed job latencies, ns:
    /// the caller-seen time the traced pass takes shares of.
    pub round_latency_ns: f64,
    /// Mean over measured rounds of a round's wall time, ns.
    pub round_wall_ns: f64,
    /// Whether every round's signature equalled the first's.
    pub deterministic: bool,
    /// The last round, for its counters.
    pub last: Round,
}

impl Measured {
    /// Peak resident set after the first measured round, MB. A fixed round
    /// rather than the end of the run: how many rounds fit a run depends on
    /// the host's speed, and a peak only ever rises with the work done — the
    /// daemon's because it keeps state per request, and every process's
    /// because sooner or later two large jobs overlap or the heap fragments
    /// (a 3–7 MB step at a random round, in every workload).
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_mb_rounds[0]
    }

    /// Jobs whose outcome differed from the reference, over jobs attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Runs one discarded warm-up round, then measured rounds until they have
/// taken `seconds` (at least `min_rounds`; exactly `min_rounds` when
/// `seconds` is zero). `between` runs before every measured round with the
/// seconds measured so far; what it does is not part of them.
pub fn measure(
    workload: &mut dyn Workload,
    seconds: f64,
    min_rounds: usize,
    between: &mut dyn FnMut(f64),
) -> Measured {
    let warmup = workload.round();
    let mut spent = 0.0;
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < min_rounds || spent < seconds {
        between(spent);
        let started = Instant::now();
        rounds.push(workload.round());
        spent += started.elapsed().as_secs_f64();
    }
    let n = rounds.len() as f64;
    let groups = SPREAD_GROUPS.min(rounds.len());
    Measured {
        rounds: rounds.len(),
        attempted: rounds.iter().map(Round::jobs).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        best: best_of(rounds.iter()),
        groups: (0..groups)
            .map(|g| best_of(rounds.iter().skip(g).step_by(groups)))
            .collect(),
        peak_rss_mb_rounds: rounds
            .iter()
            .map(|r| r.peak_rss_kb as f64 / 1024.0)
            .collect(),
        latency_samples: warmup.jobs(),
        round_latency_ns: rounds
            .iter()
            .map(|r| r.latencies_ns.iter().sum::<u64>() as f64)
            .sum::<f64>()
            / n,
        round_wall_ns: rounds.iter().map(|r| r.wall_ns() as f64).sum::<f64>() / n,
        deterministic: rounds.iter().all(|r| r.signature == warmup.signature),
        last: rounds.pop().expect("at least one measured round"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Two jobs in one segment and one in another; round `n` (1-based,
    /// warm-up included) takes `times[n - 1]` per job.
    struct Fixed {
        round: usize,
        times: Vec<u64>,
    }

    impl Workload for Fixed {
        fn digest(&self) -> u64 {
            0
        }

        fn round(&mut self) -> Round {
            let t = self.times[self.round];
            self.round += 1;
            let segment = |wall_ns, cpu_ns| Segment { wall_ns, cpu_ns };
            Round {
                segments: vec![segment(2 * t, 4 * t), segment(t, t)],
                latencies_ns: vec![t, 2 * t, t],
                failed: usize::from(self.round == 3),
                peak_rss_kb: 2048,
                signature: vec![3, u64::from(self.round == 4)],
                ..Round::default()
            }
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn measure_skips_the_warmup_and_keeps_the_best_of_each_piece() {
        let times = vec![1, 30, 20, 10, 40]
            .into_iter()
            .map(|t| t * MS)
            .collect();
        let mut pauses = 0;
        let m = measure(&mut Fixed { round: 0, times }, 0.0, 4, &mut |_| pauses += 1);
        assert_eq!(pauses, 4, "once before every measured round");
        assert_eq!((m.rounds, m.attempted, m.failed), (4, 12, 1));
        assert_eq!(m.latency_samples, 3);
        // Best round is the third measured one: 10 ms per job, one of the
        // three jobs counted as failed (the worst round's count).
        assert!((m.best.jobs_per_s - 2.0 / 0.030).abs() < 1e-9);
        assert_eq!(m.best.job_ms_p50, 10.0);
        assert_eq!(m.best.job_ms_p95, 20.0);
        assert!((m.best.cpu_ms_per_job - 50.0 / 3.0).abs() < 1e-9);
        // Four groups of one round each.
        let p50s: Vec<f64> = m.groups.iter().map(|g| g.job_ms_p50).collect();
        assert_eq!(p50s, vec![30.0, 20.0, 10.0, 40.0]);
        assert_eq!(m.round_wall_ns, 75.0 * MS as f64);
        assert_eq!(m.round_latency_ns, 100.0 * MS as f64);
        assert_eq!(m.peak_rss_mb(), 2.0);
        assert!((m.failed_share() - 1.0 / 12.0).abs() < 1e-12);
        assert!(!m.deterministic, "round 4 changed its signature");
        let mut steady = Fixed {
            round: 0,
            times: vec![MS; 3],
        };
        assert!(measure(&mut steady, 0.0, 2, &mut |_| {}).deterministic);
    }

    #[test]
    fn best_of_stitches_pieces_from_different_rounds() {
        let round = |a: u64, b: u64| Round {
            segments: vec![
                Segment {
                    wall_ns: a,
                    cpu_ns: a,
                },
                Segment {
                    wall_ns: b,
                    cpu_ns: 2 * b,
                },
            ],
            latencies_ns: vec![a, b],
            ..Round::default()
        };
        let rounds = [round(10 * MS, 50 * MS), round(40 * MS, 20 * MS)];
        let best = best_of(rounds.iter());
        assert!((best.jobs_per_s - 2.0 / 0.030).abs() < 1e-9);
        assert_eq!((best.job_ms_p50, best.job_ms_p95), (10.0, 20.0));
        assert_eq!(best.cpu_ms_per_job, 25.0);
        assert_eq!(best_of([].iter()), Timed::default());
    }

    #[test]
    fn timed_segment_times_the_work() {
        let (segment, value) = timed_segment(std::process::id(), || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(value, 42);
        assert!(segment.wall_ns >= 5 * MS);
    }
}
