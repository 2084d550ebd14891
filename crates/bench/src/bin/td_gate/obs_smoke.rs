//! CI observability smoke check for the telemetry surface. Four gates:
//!
//! 1. **Percentile surface**: a scheduler batch must report latency
//!    histograms with p50/p90/p99/p999 for queue wait, run time, and
//!    total, both in `BatchReport::report_json()` and — via worker
//!    metrics absorption — in the coordinator's `metrics::snapshot()`.
//! 2. **Flight dump**: an injected `TD_FAULT`-style panic plan must leave
//!    a flight-recorder bundle in `TD_FLIGHT_DIR` that is well-formed
//!    JSON and replays the failing step's attribution (transform name,
//!    operand handles, payload fingerprint, failure class).
//! 3. **Profiler**: with `TD_PROFILE` set, applying a schedule must write
//!    a speedscope-compatible collapsed-stack file attributing self time
//!    to the transform ops that ran.
//! 4. **Idle overhead**: the always-on flight recorder must cost < 3%
//!    on a fault-free schedule application, in the median round of
//!    interleaved recorder-off/on applies (see EXPERIMENTS.md "Flight
//!    recorder overhead").
//!
//! ```text
//! cargo run --release -p td-bench --bin td_gate -- obs_smoke
//! ```

use std::path::Path;
use std::time::Instant;
use td_bench::gate;
use td_sched::{Engine, EngineConfig, Job};
use td_support::trace::validate_json;
use td_support::{fault, flight, metrics, trace};
use td_transform::{InterpEnv, Interpreter};

/// The gate's `i`-th payload.
fn payload(i: usize) -> String {
    gate::loop_payload(i, 64)
}

/// Three steps: match (0), tile (1), unroll (2).
fn script() -> String {
    gate::tile_schedule("main", 16, Some(2))
}

/// One clean schedule application in a fresh context (the gate workload).
fn apply_once(i: usize) {
    let env = InterpEnv::standard();
    let (mut ctx, entry, module) = td_bench::parse_schedule(&payload(i), &script(), "main");
    Interpreter::new(&env)
        .apply(&mut ctx, entry, module)
        .unwrap_or_else(|e| panic!("clean apply failed: {}", e.diagnostic()));
}

/// Gate 1: percentile fields in the batch report and the coordinator
/// metrics snapshot.
fn percentile_surface() {
    metrics::reset();
    // Half the batch is already cached, so the report mixes hits
    // (answered on this thread) with misses (run on the two workers).
    let script = script();
    let jobs: Vec<Job> = (0..8).map(|i| Job::new(&script, payload(i))).collect();
    let engine = Engine::new(EngineConfig::standard().with_workers(2));
    engine.run_batch(jobs[..4].to_vec());
    let report = engine.run_batch(jobs);
    assert_eq!(report.err_count(), 0, "clean batch must succeed");
    assert_eq!(report.stats.total.count, 8, "one total sample per job");
    assert_eq!(report.stats.lanes.len(), 2, "one lane per worker");
    assert_eq!(
        (report.stats.cache.hits, report.stats.cache.misses),
        (4, 4),
        "the cached half must hit: {:?}",
        report.stats.cache
    );

    let json = report.report_json();
    validate_json(&json).expect("batch report JSON well-formed");
    for field in [
        "\"stats\":{",
        "\"queue_wait\":{\"count\":8",
        "\"run\":{\"count\":8",
        "\"total\":{\"count\":8",
        "\"p50_ns\":",
        "\"p90_ns\":",
        "\"p99_ns\":",
        "\"p999_ns\":",
        "\"pool_utilization\":",
        "\"hit_rate\":",
    ] {
        assert!(json.contains(field), "report_json missing {field}");
    }
    let text = report.report_text();
    for needle in ["batch stats:", "queue_wait", "p999", "worker 0:"] {
        assert!(text.contains(needle), "report_text missing {needle}");
    }

    // Worker metrics were absorbed into this (coordinator) thread, so its
    // snapshot carries the histograms too.
    let snapshot = metrics::snapshot().to_json();
    for series in ["interp.step", "sched.job.run", "sched.job.queue_wait"] {
        assert!(
            snapshot.contains(&format!("\"{series}\":{{\"count\":")),
            "metrics snapshot missing histogram {series}: {snapshot}"
        );
    }

    println!("obs gate 1 OK: percentile fields in batch report and metrics snapshot");
}

/// Gate 2: an injected panic must produce a flight bundle replaying the
/// failing step's attribution.
fn flight_dump(dir: &Path) {
    flight::reset();
    let dumps_before = flight::dump_count();
    // Panic at step index 1 — the `transform.loop.tile` step.
    fault::set_thread_plan(Some(fault::FaultPlan::parse("panic@step=1").unwrap()));
    fault::set_lane(0);
    let env = InterpEnv::standard();
    let (mut ctx, entry, module) = td_bench::parse_schedule(&payload(0), &script(), "main");
    // The injected panic is contained by the transactional interpreter.
    let err = Interpreter::new(&env)
        .apply(&mut ctx, entry, module)
        .expect_err("injected panic surfaces as an error");
    fault::set_thread_plan(None);
    assert!(!err.is_silenceable(), "contained panic is a definite error");
    assert_eq!(
        flight::dump_count(),
        dumps_before + 1,
        "definite failure must dump exactly one bundle"
    );

    let bundle_path = std::fs::read_dir(dir)
        .expect("flight dir readable")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .max()
        .expect("a flight bundle was written");
    let bundle = std::fs::read_to_string(&bundle_path).expect("bundle readable");
    validate_json(&bundle).expect("flight bundle is well-formed JSON");
    for field in [
        "\"reason\":\"definite-failure\"",
        "\"kind\":\"step.begin\"",
        "\"kind\":\"step.failed\"",
        "\"name\":\"transform.loop.tile\"",
        "\"handles\":",
        "\"fingerprint\":",
        "\"class\":\"definite\"",
        "\"kind\":\"fault.fired\"",
        "\"metrics\":",
        "\"journal_tail\":",
    ] {
        assert!(
            bundle.contains(field),
            "bundle {} missing {field}",
            bundle_path.display()
        );
    }
    println!(
        "obs gate 2 OK: flight bundle {} replays the failing step",
        bundle_path.file_name().unwrap().to_string_lossy()
    );
}

/// Gate 3: `TD_PROFILE` writes a collapsed-stack profile attributing the
/// transform ops that ran.
fn profiler(profile_path: &Path) {
    std::env::set_var("TD_PROFILE", profile_path);
    trace::set_enabled(true);
    let _ = trace::take();
    apply_once(0);
    trace::set_enabled(false);
    std::env::remove_var("TD_PROFILE");

    let collapsed = std::fs::read_to_string(profile_path).expect("TD_PROFILE file written");
    for frame in ["transform.loop.tile", "transform.loop.unroll"] {
        assert!(collapsed.contains(frame), "profile missing {frame}");
    }
    for line in collapsed.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("collapsed line format");
        assert!(
            !stack.is_empty() && weight.parse::<u128>().is_ok(),
            "{line}"
        );
    }
    println!(
        "obs gate 3 OK: TD_PROFILE wrote {} collapsed frame(s)",
        collapsed.lines().count()
    );
}

/// Gate 4: idle flight-recorder overhead < 3%. Methodology (also the
/// EXPERIMENTS.md row): recorder-off and recorder-on applies interleave
/// apply by apply in short rounds ([`gate::paired`]), and the bound reads
/// the median round's on/off ratio.
fn idle_overhead() {
    const ROUNDS: usize = 201;
    const APPLIES: usize = 8;
    // Side 0 has the recorder off, side 1 on, as shipped.
    let run = gate::paired(2, ROUNDS, APPLIES, |on, i| {
        flight::set_enabled(on == 1);
        let started = Instant::now();
        apply_once(i % 4);
        started.elapsed()
    });
    flight::clear_enabled_override();
    let spread = run.ratio(1, 0);
    println!(
        "obs gate 4: {ROUNDS} interleaved rounds of {APPLIES} applies: median on/off {spread}"
    );
    let overhead = spread.median - 1.0;
    assert!(
        overhead < 0.03,
        "idle flight-recorder overhead {:.2}% >= 3%",
        overhead * 100.0
    );
    println!(
        "obs gate 4 OK: idle flight overhead {:.2}% (< 3%)",
        overhead.max(0.0) * 100.0
    );
}

pub fn run() {
    let base = std::env::temp_dir().join(format!("td-obs-smoke-{}", std::process::id()));
    let flight_dir = base.join("flight");
    std::fs::create_dir_all(&flight_dir).expect("temp dir");
    std::env::set_var("TD_FLIGHT_DIR", &flight_dir);

    percentile_surface();
    flight_dump(&flight_dir);
    profiler(&base.join("profile.collapsed"));
    idle_overhead();

    std::env::remove_var("TD_FLIGHT_DIR");
    let _ = std::fs::remove_dir_all(&base);
    println!("obs_smoke OK");
}
