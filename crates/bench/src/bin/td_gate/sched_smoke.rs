//! CI smoke check for the td-sched engine: runs the same batch of tiling
//! jobs at 1 worker and at 4 workers and fails on any output divergence
//! (the determinism guarantee), on a cold→warm cache miss (the caching
//! guarantee), or on a merged trace that breaks the lane rule (the
//! observability guarantee — one job span per job, each inside its batch
//! span, on the lane of the worker that ran it: lane = worker + 1, the
//! caller being worker 0).
//!
//! ```text
//! TD_TRACE=target/sched_smoke_trace.json cargo run -p td-bench --bin td_gate -- sched_smoke
//! ```
//!
//! Without `TD_TRACE` the merged trace is validated in memory.

use std::collections::BTreeSet;
use td_bench::gate;
use td_sched::{Engine, EngineConfig, Job};
use td_support::trace::{self, TraceEvent};

const BATCH: usize = 16;

fn batch() -> Vec<Job> {
    let script = gate::tile_schedule("main", 16, Some(2));
    (0..BATCH)
        .map(|i| Job::new(&script, gate::loop_payload(i, 64)))
        .collect()
}

/// One batch's slice of the trace obeys the lane rule: events on exactly
/// lanes 1..=`workers` (the caller's alone when nothing ran), on each the
/// one `workerN` span lane = worker + 1 calls for, one job span per job,
/// and every one of them inside the batch span.
fn check_lanes(what: &str, events: &[TraceEvent], workers: usize) {
    let lanes: BTreeSet<u32> = events.iter().map(|e| e.tid).collect();
    assert!(
        lanes.iter().copied().eq(1..=workers.max(1) as u32),
        "{what}: lanes {lanes:?}"
    );
    let mut worker_spans: Vec<(u32, String)> = events
        .iter()
        .filter(|e| e.name.starts_with("worker"))
        .map(|e| (e.tid, e.name.clone()))
        .collect();
    worker_spans.sort();
    let expected: Vec<_> = (0..workers)
        .map(|w| (w as u32 + 1, format!("worker{w}")))
        .collect();
    assert_eq!(worker_spans, expected, "{what}: worker spans");
    let named = |name: &str| {
        events
            .iter()
            .filter(|e| e.cat == "sched" && e.name == name)
            .collect::<Vec<_>>()
    };
    let [batch_span] = named("batch")[..] else {
        panic!("{what}: expected one batch span");
    };
    let jobs = named("job");
    assert_eq!(jobs.len(), BATCH, "{what}: one job span per job");
    for job in jobs {
        assert!(
            batch_span.start_ns <= job.start_ns && job.end_ns() <= batch_span.end_ns(),
            "{what}: {job:?} outside {batch_span:?}"
        );
    }
}

pub fn run() {
    trace::set_enabled(true);
    trace::reset();
    let recorded_so_far = || trace::snapshot().events().len();

    let single = Engine::new(EngineConfig::standard().with_workers(1).without_cache());
    let pooled = Engine::new(EngineConfig::standard().with_workers(4));

    let report_1 = single.run_batch(batch());
    let after_single = recorded_so_far();
    let report_4 = pooled.run_batch(batch());
    let after_pooled = recorded_so_far();
    assert_eq!(report_1.results.len(), BATCH);
    assert_eq!(
        report_1.ok_count(),
        BATCH,
        "every job must apply: {:?}",
        report_1.results.iter().find(|r| r.is_err())
    );
    for (i, (a, b)) in report_1
        .output_texts()
        .iter()
        .zip(report_4.output_texts())
        .enumerate()
    {
        assert_eq!(
            *a, b,
            "output divergence between 1 and 4 workers at job {i}"
        );
    }

    // Warm re-run on the pooled engine: everything from the cache, still
    // byte-identical to the single-worker cold run.
    let warm = pooled.run_batch(batch());
    assert_eq!(
        warm.cache.hits as usize, BATCH,
        "repeated batch must be fully cache-served, got {:?}",
        warm.cache
    );
    assert!(warm.cache.hit_rate() >= 0.9);
    assert_eq!(
        report_1.output_texts(),
        warm.output_texts(),
        "cached outputs diverge from the cold run"
    );

    // Observability: the merged trace obeys the lane rule by exact count.
    // One worker is the caller alone, so nothing leaves its lane; four
    // workers are lanes 1-4; the warm batch, answered from the cache where
    // it was submitted, runs no worker at all.
    let json = gate::exported_trace();
    let recorded = trace::snapshot();
    let events = recorded.events();
    check_lanes("1 worker", &events[..after_single], 1);
    check_lanes("4 workers", &events[after_single..after_pooled], 4);
    check_lanes("warm", &events[after_pooled..], 0);
    assert_eq!((report_1.workers, report_4.workers), (1, 4));
    assert!(
        warm.workers == 0 && warm.stats.lanes.is_empty(),
        "an all-hit batch runs no worker"
    );
    for expected in ["\"batch\"", "\"worker0\"", "\"tid\":2"] {
        assert!(json.contains(expected), "trace JSON missing {expected}");
    }

    println!(
        "sched smoke OK: {} jobs x 3 batches, {} trace events, warm hit rate {:.0}%",
        BATCH,
        events.len(),
        warm.cache.hit_rate() * 100.0
    );
}
