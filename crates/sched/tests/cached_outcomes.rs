//! What the result cache keeps of a job: its output, or the deterministic
//! failure it ended with — never an outcome that describes one execution
//! (a panic, a deadline, a cancellation, anything an injected fault
//! touched).

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;
use td_sched::{BatchReport, Engine, EngineConfig, Job, JobError, JobResult, TxnMode};
use td_support::fault;
use td_transform::{TransformError, TransformOpDef, TransformOpRegistry};

fn payload(i: usize) -> String {
    format!(
        "module {{\n  %a = arith.constant {i} : index\n  %b = arith.constant {} : index\n  \
         %s = \"arith.addi\"(%a, %b) : (index, index) -> index\n}}",
        i + 1
    )
}

/// Annotates every `arith.addi` with `seen`, then runs `then` (a custom
/// op, or nothing).
fn script(then: Option<&str>) -> String {
    let then = then.map_or(String::new(), |op| format!("    \"{op}\"() : () -> ()\n"));
    format!(
        r#"module {{
  transform.named_sequence @main(%root: !transform.any_op) {{
    %adds = "transform.match_op"(%root) {{name = "arith.addi", select = "all"}}
        : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%adds) {{name = "seen"}} : (!transform.any_op) -> ()
{then}  }}
}}"#
    )
}

thread_local! {
    /// Handler invocations of the custom ops below on this thread. A
    /// 1-worker engine runs every job on the thread that calls
    /// `run_batch`, so a test reads only its own jobs' calls, whatever the
    /// tests running beside it do.
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn calls() -> usize {
    CALLS.with(Cell::get)
}

fn count_call() {
    CALLS.with(|c| c.set(c.get() + 1));
}

/// The standard ops plus `test.doomed` (fails definitely), `test.flaky`
/// (fails silenceably) and `test.panic` (panics), each counted in
/// [`CALLS`].
fn test_engine(config: EngineConfig) -> Engine {
    let mut config = config.with_workers(1);
    config.transforms_factory = Arc::new(|| {
        let mut registry = TransformOpRegistry::with_standard_ops();
        registry.register(TransformOpDef::new(
            "test.doomed",
            "fails definitely",
            |_, ctx, _, op| {
                count_call();
                Err(TransformError::definite(
                    ctx.op(op).location.clone(),
                    "payload corrupted",
                ))
            },
        ));
        registry.register(TransformOpDef::new(
            "test.flaky",
            "fails silenceably",
            |_, ctx, _, op| {
                count_call();
                Err(TransformError::silenceable(
                    ctx.op(op).location.clone(),
                    "flaky precondition",
                ))
            },
        ));
        registry.register(TransformOpDef::new("test.panic", "panics", |_, _, _, _| {
            count_call();
            panic!("intentional test panic")
        }));
        registry
    });
    Engine::new(config)
}

fn only(report: &BatchReport) -> (&JobResult, bool) {
    (&report.results[0], report.from_cache[0])
}

/// A result computed while an injected fault fired must never enter the
/// cache. Here the fault hits the first branch of an `alternatives`, and
/// the job succeeds through the empty second branch with the payload
/// unannotated: cached, that output would be served to every later job
/// with these bytes, fault or no fault.
#[test]
fn a_success_computed_while_a_fault_fired_is_not_cached() {
    let script = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    "transform.alternatives"(%root) ({
    ^bb0(%arg: !transform.any_op):
      %adds = "transform.match_op"(%arg) {name = "arith.addi", select = "all"} : (!transform.any_op) -> !transform.any_op
      "transform.annotate"(%adds) {name = "seen"} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }, {
    ^bb1(%arg2: !transform.any_op):
      "transform.yield"() : () -> ()
    }) : (!transform.any_op) -> ()
  }
}"#;
    let engine = Engine::new(EngineConfig::standard().with_workers(1));
    let job = Job::new(script, payload(0));
    // A thread plan reaches the jobs this thread runs: a one-worker
    // engine runs its misses on the caller.
    fault::set_thread_plan(Some(
        fault::FaultPlan::parse("silenceable@transform=annotate").unwrap(),
    ));
    let faulted = engine.run_batch(vec![job.clone()]);
    fault::set_thread_plan(None);
    let faulted_text = &faulted.results[0]
        .as_ref()
        .expect("second branch")
        .module_text;
    assert!(
        !faulted_text.contains("seen"),
        "the fault skipped the annotation"
    );
    assert_eq!(
        faulted.cache.inserts, 0,
        "nothing a fault touched is stored"
    );

    let clean = engine.run_batch(vec![job]);
    let output = clean.results[0].as_ref().expect("clean run succeeds");
    assert!(!output.from_cache, "the clean run executes");
    assert!(
        output.module_text.contains("seen"),
        "{}",
        output.module_text
    );
    assert_eq!(clean.cache.inserts, 1, "and its result is cached");
}

/// Which errors the cache keeps: each case runs once, then its bytes run
/// again under the default policy on the same engine.
#[test]
fn the_cache_keeps_exactly_the_deterministic_failures() {
    struct Case {
        name: &'static str,
        job: Job,
        kind: fn(&JobError) -> bool,
        cached: bool,
    }
    let case = |name, job, kind: fn(&JobError) -> bool, cached| Case {
        name,
        job,
        kind,
        cached,
    };
    let ok = |i| Job::new(script(None), payload(i));
    let cases = [
        case(
            "definite",
            Job::new(script(Some("test.doomed")), payload(1)),
            |e| {
                matches!(
                    e,
                    JobError::Transform {
                        silenceable: false,
                        ..
                    }
                )
            },
            true,
        ),
        case(
            "silenceable after its retries",
            Job::new(script(Some("test.flaky")), payload(2)).with_max_attempts(3),
            |e| {
                matches!(
                    e,
                    JobError::Transform {
                        silenceable: true,
                        ..
                    }
                )
            },
            true,
        ),
        case(
            "panic contained by its transaction",
            Job::new(script(Some("test.panic")), payload(3)),
            |e| matches!(e, JobError::Transform { message, .. } if message.contains("panic")),
            true,
        ),
        case(
            "payload parse",
            Job::new(script(None), "module { not valid ir"),
            |e| {
                matches!(
                    e,
                    JobError::Parse {
                        what: "payload",
                        ..
                    }
                )
            },
            true,
        ),
        case(
            "script parse",
            Job::new("module { not valid", payload(4)),
            |e| matches!(e, JobError::Parse { what: "script", .. }),
            true,
        ),
        case(
            "missing entry",
            ok(5).with_entry("nonexistent"),
            |e| matches!(e, JobError::EntryMissing { .. }),
            true,
        ),
        case(
            "panic past the interpreter",
            Job::new(script(Some("test.panic")), payload(6)).with_txn(TxnMode::Never),
            |e| matches!(e, JobError::Panicked { .. }),
            false,
        ),
        case(
            "deadline",
            ok(7).with_deadline(Duration::ZERO),
            |e| matches!(e, JobError::DeadlineExceeded),
            false,
        ),
    ];
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for Case {
        name,
        job,
        kind,
        cached,
    } in cases
    {
        let engine = test_engine(EngineConfig::standard());
        let first = engine.run_batch(vec![job.clone()]);
        let error = first.results[0].as_ref().expect_err(name);
        assert!(kind(error), "{name}: {error:?}");
        assert_eq!(first.cache.inserts, u64::from(cached), "{name}");

        let before = calls();
        let mut rerun = job.clone();
        rerun.policy = Default::default();
        let again = engine.run_batch(vec![rerun]);
        let (result, from_cache) = only(&again);
        assert_eq!(from_cache, cached, "{name}");
        if cached {
            assert_eq!(
                result, &first.results[0],
                "{name}: the error, byte for byte"
            );
            assert_eq!(
                result.as_ref().unwrap_err().to_string(),
                error.to_string(),
                "{name}"
            );
            assert_eq!(calls(), before, "{name}: nothing ran");
            assert_eq!((again.cache.hits, again.cache.misses), (1, 0), "{name}");
        } else {
            assert_eq!((again.cache.hits, again.cache.misses), (0, 1), "{name}");
        }
    }
    std::panic::set_hook(hook);
    // The handlers ran on this thread, so "nothing ran" above was counted.
    assert!(calls() > 0);

    // A job cancelled by the failure budget never ran, so nothing of it
    // is kept: the same bytes later run and succeed.
    let engine = test_engine(EngineConfig::standard().with_failure_budget(1));
    let report = engine.run_batch(vec![
        Job::new(script(Some("test.doomed")), payload(8)),
        ok(9),
    ]);
    assert_eq!(report.results[1], Err(JobError::Cancelled));
    let again = engine.run_batch(vec![ok(9)]);
    let (result, from_cache) = only(&again);
    assert!(result.is_ok() && !from_cache, "{result:?}");
}

/// The transactional mode is not part of the key: a failure cached under
/// one mode answers the other, with the text either mode prints.
#[test]
fn one_cached_failure_answers_both_transactional_modes() {
    let job = Job::new(script(Some("test.doomed")), payload(20));
    for (first, second) in [
        (TxnMode::Always, TxnMode::Never),
        (TxnMode::Never, TxnMode::Always),
    ] {
        let engine = test_engine(EngineConfig::standard());
        let executed = engine.run_batch(vec![job.clone().with_txn(first)]);
        assert!(!executed.from_cache[0]);
        let cached = engine.run_batch(vec![job.clone().with_txn(second)]);
        assert!(cached.from_cache[0], "{first:?} then {second:?}");
        let fresh = test_engine(EngineConfig::standard().without_cache())
            .run_batch(vec![job.clone().with_txn(second)]);
        assert_eq!(cached.results, fresh.results, "{second:?} prints the same");
        assert_eq!(cached.results, executed.results);
    }
}

/// A cached failure spends the failure budget as an executed one does:
/// the batch trips on the same failure, cache or no cache.
#[test]
fn the_failure_budget_trips_on_a_cached_failure() {
    let batch = || {
        vec![
            Job::new(script(Some("test.doomed")), payload(30)),
            Job::new(script(None), payload(31)),
            Job::new(script(None), payload(32)),
        ]
    };
    let cached = test_engine(EngineConfig::standard().with_failure_budget(1));
    cached.run_batch(vec![batch().remove(0)]);
    let warm = cached.run_batch(batch());
    assert_eq!(warm.from_cache, [true, false, false]);
    let cold = test_engine(
        EngineConfig::standard()
            .without_cache()
            .with_failure_budget(1),
    )
    .run_batch(batch());
    assert!(warm.degraded && cold.degraded);
    assert_eq!(warm.results, cold.results);
    assert_eq!(warm.results[1], Err(JobError::Cancelled));
}

/// A transform failure answered by the probe is handed back for
/// bisection like an executed one, and bisects to the same repro.
#[test]
fn a_cached_transform_failure_bisects_like_an_executed_one() {
    let engine = test_engine(EngineConfig::standard());
    let job = Job::new(script(Some("test.doomed")), payload(40));
    let mut executed = engine.run_batch(vec![job.clone()]);
    let mut cached = engine.run_batch(vec![job]);
    assert_eq!(cached.from_cache, [true]);
    let (executed_index, executed_job) = executed.failed_jobs.pop().expect("handed back");
    let (cached_index, cached_job) = cached.failed_jobs.pop().expect("handed back");
    assert_eq!((executed_index, cached_index), (0, 0));
    let repro = engine.bisect(&executed_job).expect("reproduces");
    assert!(
        repro.starts_with("failing prefix: 3 of 4 step(s)"),
        "{repro}"
    );
    assert_eq!(engine.bisect(&cached_job), Some(repro));
    // Other failures are not bisectable and not handed back.
    let parse = engine.run_batch(vec![Job::new("module {", payload(41))]);
    let parse_again = engine.run_batch(vec![Job::new("module {", payload(41))]);
    assert!(parse.failed_jobs.is_empty() && parse_again.failed_jobs.is_empty());
    assert_eq!(parse_again.from_cache, [true]);
}
