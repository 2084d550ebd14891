//! CI smoke check for the td-sched engine: runs the same batch of tiling
//! jobs at 1 worker and at 4 workers and fails on any output divergence
//! (the determinism guarantee), on a cold→warm cache miss (the caching
//! guarantee), or on an empty/invalid merged trace (the observability
//! guarantee — one job span per job, worker spans included, must reach
//! the coordinator's export).
//!
//! ```text
//! TD_TRACE=target/sched_smoke_trace.json cargo run -p td-bench --bin sched_smoke
//! ```
//!
//! Without `TD_TRACE` the merged trace is validated in memory.

use td_sched::{Engine, EngineConfig, Job};
use td_support::trace;

const BATCH: usize = 16;

fn payload(i: usize) -> String {
    let extent = 64 * (i + 1);
    format!(
        r#"module {{
  func.func @work{i}(%x: memref<{extent}xf32>) {{
    %lo = arith.constant 0 : index
    %hi = arith.constant {extent} : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {{
      %v = "memref.load"(%x, %i) : (memref<{extent}xf32>, index) -> f32
      %w = "arith.addf"(%v, %v) : (f32, f32) -> f32
      "memref.store"(%w, %x, %i) : (f32, memref<{extent}xf32>, index) -> ()
    }}
    func.return
  }}
}}"#
    )
}

const SCRIPT: &str = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %tiles, %points = "transform.loop.tile"(%loop) {tile_sizes = [16]} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
    %unrolled = "transform.loop.unroll"(%points) {factor = 2} : (!transform.any_op) -> !transform.any_op
  }
}"#;

fn batch() -> Vec<Job> {
    (0..BATCH).map(|i| Job::new(SCRIPT, payload(i))).collect()
}

fn main() {
    trace::set_enabled(true);
    trace::reset();

    let single = Engine::new(EngineConfig::standard().with_workers(1).without_cache());
    let pooled = Engine::new(EngineConfig::standard().with_workers(4));

    let report_1 = single.run_batch(batch());
    let report_4 = pooled.run_batch(batch());
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

    // Observability: the merged trace must carry the coordinator batch
    // spans and exactly one job span per job — the two cold batches on
    // worker lanes (tid >= 2), the warm batch, answered from the cache
    // where it was submitted, on the coordinator lane.
    let json = match trace::write_env_trace().expect("write trace file") {
        Some(path) => {
            println!("wrote {path}");
            std::fs::read_to_string(&path).expect("re-read trace file")
        }
        None => trace::snapshot().to_chrome_json(),
    };
    trace::validate_json(&json).unwrap_or_else(|e| panic!("invalid trace JSON: {e}"));
    let recorded = trace::snapshot();
    assert!(!recorded.is_empty(), "trace event stream must not be empty");
    let job_spans = |on_coordinator: bool| {
        recorded
            .events()
            .iter()
            .filter(|e| e.name == "job" && (e.tid == trace::MAIN_TID) == on_coordinator)
            .count()
    };
    assert_eq!(
        (job_spans(false), job_spans(true)),
        (2 * BATCH, BATCH),
        "expected one job span per job: cold batches on worker lanes, warm batch on the coordinator"
    );
    assert!(
        warm.workers == 0 && warm.stats.lanes.is_empty(),
        "an all-hit batch spawns no worker"
    );
    for expected in ["\"batch\"", "\"worker0\"", "\"tid\":2"] {
        assert!(json.contains(expected), "trace JSON missing {expected}");
    }

    println!(
        "sched smoke OK: {} jobs x 3 batches, {} trace events, warm hit rate {:.0}%",
        BATCH,
        recorded.events().len(),
        warm.cache.hit_rate() * 100.0
    );
}
