//! `td_profile`: a transform-schedule profiler driver.
//!
//! Applies a schedule under trace collection, folds the spans into
//! per-transform-op self/total time attribution, and prints:
//!
//! * the ranked top-K profile report (self time, total time, call count
//!   per `(category, op)` — see `td_support::profile`);
//! * the batch latency breakdown (queue wait / run / total histograms
//!   with p50/p90/p99/p999, worker utilization, cache hit rate).
//!
//! With `TD_PROFILE=<path>` set, additionally writes the collapsed-stack
//! export (`a;b;c <self_ns>` lines) that speedscope and standard
//! flamegraph tooling load directly.
//!
//! ```text
//! # Built-in demo schedule, 4 jobs across 2 workers:
//! cargo run --release -p td-bench --bin td_profile
//!
//! # Your own schedule:
//! cargo run --release -p td-bench --bin td_profile -- script.mlir payload.mlir [entry]
//! ```

use td_bench::gate;
use td_sched::{Engine, EngineConfig, Job};
use td_support::{profile, trace};

fn jobs_from_args(args: &[String]) -> Result<Vec<Job>, String> {
    match args {
        [] => Ok((0..4)
            .map(|i| {
                Job::new(
                    gate::tile_schedule("main", 16, Some(2)),
                    gate::loop_payload(i, 128),
                )
            })
            .collect()),
        [script_path, payload_path, rest @ ..] => {
            let script = std::fs::read_to_string(script_path)
                .map_err(|e| format!("cannot read script '{script_path}': {e}"))?;
            let payload = std::fs::read_to_string(payload_path)
                .map_err(|e| format!("cannot read payload '{payload_path}': {e}"))?;
            let mut job = Job::new(script, payload);
            if let [entry] = rest {
                job = job.with_entry(entry);
            } else if !rest.is_empty() {
                return Err("usage: td_profile [script.mlir payload.mlir [entry]]".to_owned());
            }
            Ok(vec![job])
        }
        _ => Err("usage: td_profile [script.mlir payload.mlir [entry]]".to_owned()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = match jobs_from_args(&args) {
        Ok(jobs) => jobs,
        Err(message) => {
            eprintln!("td_profile: {message}");
            std::process::exit(2);
        }
    };

    // The profiler folds trace spans, so collect the trace regardless of
    // TD_TRACE; workers inherit this and the coordinator adopts their
    // lanes back, so the fold sees every job.
    trace::set_enabled(true);
    let engine = Engine::new(EngineConfig::standard().with_workers(2));
    let report = engine.run_batch(jobs);
    for (i, result) in report.results.iter().enumerate() {
        if let Err(error) = result {
            eprintln!("td_profile: job {i} failed: {error}");
        }
    }

    let folded = profile::Profile::from_trace(&trace::snapshot());
    print!("{}", folded.to_report_string(10));
    println!();
    print!("{}", report.stats.report_text());

    match profile::write_env_profile() {
        Ok(Some(path)) => println!("collapsed-stack profile written to {path}"),
        Ok(None) => println!("(set TD_PROFILE=<path> to write the collapsed-stack export)"),
        Err(error) => eprintln!("td_profile: {error}"),
    }
    if report.err_count() > 0 {
        std::process::exit(1);
    }
}
