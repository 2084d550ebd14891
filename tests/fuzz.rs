//! Chaos-fuzz: generated (schedule, payload) pairs executed under
//! injected silenceable faults must *converge* — rollback plus retry has
//! to land every job on the same result it reaches without faults, and
//! the landing must not depend on the worker count.
//!
//! This is the `TD_FAULT` plan grammar exercised programmatically:
//! `silenceable@point=interp.step,step=2` makes the second interpreter
//! step of every job's first attempt fail silenceably. The engine's
//! per-job fault lanes make the plan fire identically whether the batch
//! runs on one worker or four, and the per-lane hit counters keep
//! counting across attempts, so the retry runs clean.

use td_fuzz::{metamorphic, pair_specs, FuzzConfig, Pair};
use td_sched::{Engine, EngineConfig, Job, JobResult};
use td_support::fault::{self, FaultPlan};

fn chaos_pairs() -> Vec<Pair> {
    let config = FuzzConfig {
        budget: 8,
        max_payload_size: 6,
        max_schedule_steps: 6,
        ..FuzzConfig::default()
    };
    pair_specs(&config).iter().map(|s| s.build()).collect()
}

fn jobs(pairs: &[Pair], max_attempts: u32) -> Vec<Job> {
    pairs
        .iter()
        .map(|p| Job::new(p.schedule.clone(), p.payload.clone()).with_max_attempts(max_attempts))
        .collect()
}

/// Collapse a result to what convergence promises: the output text for
/// successes, the error rendering for failures. Attempt counts and cache
/// provenance are allowed to differ between runs; outcomes are not.
fn comparable(results: &[JobResult]) -> Vec<Result<String, String>> {
    results
        .iter()
        .map(|r| match r {
            Ok(output) => Ok(output.module_text.clone()),
            Err(err) => Err(err.to_string()),
        })
        .collect()
}

#[test]
fn silenceable_chaos_converges_across_worker_counts() {
    let _guard = fault::test_guard();
    let pairs = chaos_pairs();

    // Fault-free baseline: what every job should converge to.
    fault::set_plan(None);
    let baseline = Engine::new(EngineConfig::standard().with_workers(2).without_cache())
        .run_batch(jobs(&pairs, 1));

    // Arm the chaos plan; retry budget 3 so the injected first-attempt
    // failure gets rolled back and re-run.
    fault::set_plan(Some(
        FaultPlan::parse("silenceable@point=interp.step,step=2").expect("plan parses"),
    ));
    let chaos_w1 = Engine::new(EngineConfig::standard().with_workers(1).without_cache())
        .run_batch(jobs(&pairs, 3));
    let chaos_w4 = Engine::new(EngineConfig::standard().with_workers(4).without_cache())
        .run_batch(jobs(&pairs, 3));
    fault::set_plan(None);

    assert_eq!(
        comparable(&chaos_w1.results),
        comparable(&chaos_w4.results),
        "chaos outcomes must not depend on the worker count"
    );
    assert_eq!(
        comparable(&chaos_w1.results),
        comparable(&baseline.results),
        "rollback + retry must converge to the fault-free result"
    );

    // The plan actually fired: at least one successful job needed more
    // than one attempt.
    let retried = chaos_w1
        .results
        .iter()
        .filter(|r| matches!(r, Ok(output) if output.attempts > 1))
        .count();
    assert!(
        retried > 0,
        "expected at least one job to succeed only after a faulted attempt"
    );
    // And the batch still does useful work: some jobs succeed outright.
    assert!(
        baseline.ok_count() > 0,
        "baseline batch must not be vacuous"
    );
}

/// `transform.alternatives` as a transaction scope, by metamorphic
/// relation: a first branch that mutates and then fails leaves exactly
/// what the second branch alone leaves (nothing, if it is empty), under
/// both transaction modes and through the engine at 1 and 4 workers.
#[test]
fn alternatives_failed_branches_leave_no_trace() {
    let _guard = fault::test_guard();
    fault::set_plan(None);
    let report = metamorphic::alternatives_family(td_fuzz::DEFAULT_SEED, metamorphic::SEEDS);
    report.verdict().unwrap_or_else(|why| panic!("{why}"));
    assert_eq!(report.checks, metamorphic::SEEDS * 2 * 4);
}

/// Payload groups — one generated payload, several generated schedules,
/// setup failures included — run the engine's shared-payload path in
/// every differential mode (1 and 4 workers, journal, cold and warm
/// cache) against `direct/always`; a batch mixing `TxnMode::Never` jobs
/// with retries, and one under an armed `silenceable@step=1` plan, match
/// the same jobs run alone.
#[test]
fn shared_payload_groups_agree_with_fresh_contexts() {
    let _guard = fault::test_guard();
    fault::set_plan(None);
    let config = FuzzConfig {
        budget: 200,
        max_payload_size: 6,
        max_schedule_steps: 6,
        ..FuzzConfig::default()
    };
    let report = td_fuzz::run_groups(&config);
    assert!(
        report.divergences.is_empty(),
        "{}\n{}",
        report.summary(),
        report.divergences.join("\n---\n")
    );
    assert_eq!(report.groups, 200);
    assert_eq!(report.pairs, 200 * td_fuzz::GROUP_SCHEDULES);
    let outcomes = report.outcomes;
    assert_eq!(outcomes.panics, 0);
    for (class, count) in [
        ("ok", outcomes.ok),
        ("silenceable", outcomes.silenceable),
        ("definite", outcomes.definite),
        ("setup", outcomes.setup_errors),
    ] {
        assert!(count > 0, "no {class} outcome: {}", report.summary());
    }
    assert!(
        report.payload_parses < report.engine_misses,
        "the engine never reused a parsed payload: {}",
        report.summary()
    );
}
