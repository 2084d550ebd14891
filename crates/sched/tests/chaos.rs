//! Chaos tests for the engine: deterministic fault injection across
//! worker counts, retry backoff against transient faults, failure-budget
//! degradation, and `TimedOut` journal attribution for deadline jobs.
//!
//! These tests set the *process-wide* fault plan, so they serialize on
//! [`fault::test_guard`] and clear the plan before releasing it.

use std::time::Duration;
use td_sched::{Engine, EngineConfig, Job, JobError};
use td_support::{fault, journal};

/// A payload module whose text varies with `i` (distinct fingerprints).
fn payload(i: usize) -> String {
    format!(
        "module {{\n  %a = arith.constant {i} : index\n  %b = arith.constant {} : index\n  \
         %s = \"arith.addi\"(%a, %b) : (index, index) -> index\n}}",
        i + 1
    )
}

/// A two-step schedule: match every `arith.addi`, annotate it.
fn annotate_script() -> String {
    r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %adds = "transform.match_op"(%root) {name = "arith.addi", select = "all"}
        : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%adds) {name = "seen"} : (!transform.any_op) -> ()
  }
}"#
    .to_owned()
}

fn batch(n: usize) -> Vec<Job> {
    (0..n)
        .map(|i| Job::new(annotate_script(), payload(i)))
        .collect()
}

/// Collapses a result to a comparable outcome summary.
fn outcome(result: &Result<td_sched::JobOutput, JobError>) -> String {
    match result {
        Ok(output) => format!("ok attempts={}", output.attempts),
        Err(error) => format!("err {error}"),
    }
}

#[test]
fn probabilistic_faults_are_deterministic_across_worker_counts() {
    let _guard = fault::test_guard();
    fault::set_plan(Some(
        fault::FaultPlan::parse("silenceable@p=0.4,seed=7").unwrap(),
    ));
    // Fault lanes are keyed by job index, so the same jobs must fail with
    // the same messages no matter how many workers the batch used.
    let single = Engine::new(EngineConfig::standard().with_workers(1).without_cache());
    let pooled = Engine::new(EngineConfig::standard().with_workers(4).without_cache());
    let report_1 = single.run_batch(batch(12));
    let report_4 = pooled.run_batch(batch(12));
    fault::set_plan(None);

    let outcomes_1: Vec<String> = report_1.results.iter().map(outcome).collect();
    let outcomes_4: Vec<String> = report_4.results.iter().map(outcome).collect();
    assert_eq!(
        outcomes_1, outcomes_4,
        "fault schedule leaked worker timing"
    );
    assert!(
        report_1.ok_count() > 0 && report_1.err_count() > 0,
        "p=0.4 over 12 jobs should mix successes and failures: {outcomes_1:?}"
    );
    for result in &report_1.results {
        if let Err(error) = result {
            assert!(
                error.to_string().contains("injected"),
                "only injected faults should fail this batch: {error}"
            );
        }
    }
}

#[test]
fn transient_faults_are_retried_with_backoff() {
    let _guard = fault::test_guard();
    // `step=1` fires once per lane (the per-lane hit counter keeps
    // counting across attempts), so attempt 1 fails and attempt 2 runs
    // clean — the transient-fault shape retries are for.
    fault::set_plan(Some(fault::FaultPlan::parse("silenceable@step=1").unwrap()));
    let engine = Engine::new(
        EngineConfig::standard()
            .with_workers(2)
            .without_cache()
            .with_max_attempts(3)
            .with_retry_backoff(Duration::from_micros(500), 42),
    );
    let report = engine.run_batch(batch(6));
    fault::set_plan(None);

    assert_eq!(
        report.ok_count(),
        6,
        "retries must absorb the transient fault"
    );
    for (i, result) in report.results.iter().enumerate() {
        let output = result.as_ref().expect("job succeeds on retry");
        assert_eq!(output.attempts, 2, "job {i} should succeed on attempt 2");
        assert!(output.module_text.contains("seen"), "job {i} not annotated");
    }
}

#[test]
fn failure_budget_cancels_the_remaining_queue() {
    let _guard = fault::test_guard();
    // Every executed job fails definitively; with a budget of 2 and one
    // worker (FIFO), jobs 0-1 run and fail, jobs 2+ are drained as
    // cancelled without ever being dispatched.
    fault::set_plan(Some(
        fault::FaultPlan::parse("definite@transform=transform.annotate").unwrap(),
    ));
    let engine = Engine::new(
        EngineConfig::standard()
            .with_workers(1)
            .without_cache()
            .with_failure_budget(2),
    );
    let report = engine.run_batch(batch(6));
    fault::set_plan(None);

    assert!(report.degraded, "the failure budget must trip");
    assert_eq!(report.results.len(), 6, "every slot is still filled");
    for (i, result) in report.results.iter().enumerate() {
        match result {
            Err(JobError::Transform { silenceable, .. }) if i < 2 => {
                assert!(!silenceable, "injected definite failure");
            }
            Err(JobError::Cancelled) if i >= 2 => {}
            other => panic!("job {i}: unexpected outcome {other:?}"),
        }
    }
}

#[test]
fn deadline_exceeded_jobs_journal_timed_out() {
    let _guard = fault::test_guard();
    fault::set_plan(None);
    journal::reset();
    journal::set_enabled(true);
    let engine = Engine::new(
        EngineConfig::standard()
            .with_workers(2)
            .without_cache()
            .with_deadline(Duration::ZERO),
    );
    let report = engine.run_batch(batch(4));
    journal::set_enabled(false);
    journal::reset();

    assert_eq!(report.err_count(), 4);
    for result in &report.results {
        assert_eq!(result.as_ref().err(), Some(&JobError::DeadlineExceeded));
    }
    // Satellite contract: deadline jobs are journaled as TimedOut (slow),
    // never as a generic failure (broken).
    let timed_out: Vec<_> = report
        .journal
        .steps()
        .iter()
        .filter(|step| step.outcome == journal::StepOutcome::TimedOut)
        .collect();
    assert_eq!(timed_out.len(), 4, "one TimedOut step per cancelled job");
    for step in timed_out {
        assert_eq!(step.kind, "job");
        assert_eq!(step.name, "sched.deadline");
        assert!(step.outcome.is_failure());
        assert!(step.message.contains("deadline"), "{}", step.message);
    }
}

#[test]
fn bisection_runs_in_the_jobs_fault_lane_and_is_contained() {
    let _guard = fault::test_guard();
    // Lane 7 fails its second transform; lane 8 panics on its first
    // allocation — inside the bisector's own parse, outside any probe.
    fault::set_plan(Some(
        fault::FaultPlan::parse("definite@job=7,step=1;alloc_pressure@job=8").unwrap(),
    ));
    let engine = Engine::new(EngineConfig::standard().with_workers(1).without_cache());
    journal::set_enabled(true);
    let report = engine.run_batch(vec![
        Job::new(annotate_script(), payload(0)).with_fault_lane(7)
    ]);
    let [(0, failed_job)] = report.failed_jobs.as_slice() else {
        panic!("the injected failure hands the job back: {report:?}");
    };

    // The schedule is sound: outside lane 7 there is nothing to find.
    fault::set_lane(3);
    let unfaulted = failed_job.clone().with_fault_lane(3);
    assert_eq!(engine.bisect(&unfaulted), None);

    // In the job's own lane the fault re-fires on every probe, and the
    // caller gets its lane back.
    let repro = engine.bisect(failed_job).expect("reproduces in lane 7");
    assert!(
        repro.starts_with("failing prefix: 2 of 3 step(s)"),
        "{repro}"
    );
    assert!(repro.contains("injected"), "{repro}");
    assert_eq!(fault::lane(), 3, "caller's lane restored");

    // A fault that brings the bisection itself down is an answer, not a
    // panic in the caller.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let crashed = engine.bisect(&failed_job.clone().with_fault_lane(8));
    std::panic::set_hook(hook);
    let alloc_faults_fired = fault::stats()
        .iter()
        .find(|(point, _)| point == fault::POINT_IR_ALLOC)
        .map_or(0, |(_, row)| row.fired);
    fault::set_plan(None);
    assert!(
        alloc_faults_fired > 0,
        "the bisector's parse must have panicked"
    );
    assert_eq!(crashed, None);
    assert_eq!(fault::lane(), 3, "caller's lane restored after the panic");
    assert!(journal::enabled(), "and its journal switch");
    journal::clear_enabled_override();
}

#[test]
fn a_panicking_job_on_the_callers_thread_is_contained_in_its_slot() {
    let _guard = fault::test_guard();
    // One worker: every job runs on this thread. Without transactions the
    // injected panic unwinds all the way to the worker's per-job boundary.
    fault::set_plan(Some(fault::FaultPlan::parse("panic@job=1").unwrap()));
    fault::set_lane(3);
    let engine = Engine::new(
        EngineConfig::standard()
            .with_workers(1)
            .without_cache()
            .with_txn(td_sched::TxnMode::Never),
    );
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = engine.run_batch(batch(3));
    std::panic::set_hook(hook);

    assert_eq!(report.workers, 1);
    assert!(report.results[0].is_ok(), "{:?}", report.results[0]);
    match &report.results[1] {
        Err(JobError::Panicked { message }) => assert!(message.contains("injected"), "{message}"),
        other => panic!("expected the panic in its own slot, got {other:?}"),
    }
    assert!(report.results[2].is_ok(), "the caller carried on");
    assert_eq!(report.stats.lanes[0].jobs, 3);
    assert_eq!(fault::lane(), 3, "caller's lane restored");

    // And carries on after the batch: the next one runs clean.
    fault::set_plan(None);
    assert_eq!(engine.run_batch(batch(3)).ok_count(), 3);
    fault::set_lane(0);
}
