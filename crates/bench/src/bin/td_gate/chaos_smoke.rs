//! CI chaos smoke check for the transactional interpreter and the
//! fault-tolerant td-sched engine. Four gates:
//!
//! 1. **Rollback acceptance**: a failure injected at *every* step index
//!    of the loop-tiling schedule in turn, for every fault kind
//!    (silenceable, definite, panic), must leave the payload
//!    verifier-clean and byte-identical to a clean run of the committed
//!    prefix. So must an `alloc_pressure` panic mid-rewrite (inside the
//!    op-creation hook, not at the step boundary). And an `alternatives`
//!    whose branches all fail before mutating costs nothing: no undo
//!    entries, no ops created.
//! 2. **Chaos determinism**: the `sched_smoke` batch replayed under a
//!    probabilistic silenceable plan and a probabilistic panic plan must
//!    produce *identical per-job outcomes* at 1 and 4 workers, with
//!    nonzero rollback/fired counters and zero invalid output IR; under a
//!    sleep + deadline plan the partial results must stay valid.
//! 3. **Graceful degradation**: with every job failing definitively and a
//!    failure budget of 3, a single-worker batch runs exactly 3 jobs,
//!    cancels the rest, and flags the report as degraded.
//! 4. **Transaction overhead**: with faults disabled, the default
//!    interpreter (`TxnMode::Always`) must cost no more than 1.10× one
//!    with transactions off, as the median ratio over interleaved
//!    never/always rounds (`gate::paired`) — enforced in release builds
//!    (debug builds fingerprint every top-level step to validate
//!    rollbacks). The same comparison is reported end-to-end through a
//!    4-worker td-sched batch, also by rounds. EXPERIMENTS.md records
//!    the numbers.
//!
//! ```text
//! cargo run --release -p td-bench --bin td_gate -- chaos_smoke
//! ```

use std::time::{Duration, Instant};
use td_bench::gate;
use td_sched::{Engine, EngineConfig, Job, JobError, JobPolicy};
use td_support::{fault, metrics};
use td_transform::{InterpEnv, Interpreter, TxnMode};

const BATCH: usize = 16;

/// The `sched_smoke` schedule: three steps (match, tile, unroll) plus the
/// implicit yield (which consumes no fault hit index).
fn script() -> String {
    gate::tile_schedule("main", 16, Some(2))
}

const STEPS: usize = 3;

/// Gate 4's two sides: transactions off (0) and on (1).
const MODES: [TxnMode; 2] = [TxnMode::Never, TxnMode::Always];

/// The gate batch, every job under `policy`.
fn batch_under(policy: JobPolicy) -> Vec<Job> {
    let script = script();
    (0..BATCH)
        .map(|i| Job {
            policy,
            ..Job::new(&script, gate::loop_payload(i, 64))
        })
        .collect()
}

/// Runs the schedule with `plan` armed, expecting a failure; returns the
/// rolled-back payload print (verified clean).
fn faulted_print(env: &InterpEnv<'_>, src: &str, plan: &str) -> String {
    let (mut ctx, entry, module) = td_bench::parse_schedule(src, &script(), "main");
    fault::set_thread_plan(Some(fault::FaultPlan::parse(plan).unwrap()));
    fault::set_lane(0);
    let mut interp = Interpreter::new(env);
    let result = interp.apply(&mut ctx, entry, module);
    fault::set_thread_plan(None);
    assert!(result.is_err(), "{plan}: injected fault must fire");
    assert_eq!(interp.stats.rolled_back, 1, "{plan}");
    td_ir::verify(&ctx, module)
        .unwrap_or_else(|e| panic!("{plan}: payload dirty after rollback: {e:?}"));
    td_ir::print_op(&ctx, module)
}

/// The payload print after a clean run of the first `steps` steps — what
/// a failure at step index `steps` must roll back to.
fn committed_print(env: &InterpEnv<'_>, src: &str, steps: usize) -> String {
    fault::set_thread_plan(None);
    let (mut ctx, entry, module) = td_bench::parse_schedule(src, &script(), "main");
    Interpreter::new(env)
        .apply_prefix(&mut ctx, entry, module, steps)
        .unwrap_or_else(|e| panic!("clean {steps}-step prefix: {}", e.diagnostic()));
    td_ir::print_op(&ctx, module)
}

/// `transform.alternatives` over the payload's loop whose branches each
/// fail at their first op, before touching anything.
const FAILING_ALTERNATIVES: &str = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    "transform.alternatives"(%loop) ({
    ^bb0(%a: !transform.any_op):
      %x = "transform.match_op"(%a) {name = "func.call", select = "first"} : (!transform.any_op) -> !transform.any_op
    }, {
    ^bb1(%b: !transform.any_op):
      %y = "transform.match_op"(%b) {name = "func.call", select = "first"} : (!transform.any_op) -> !transform.any_op
    }) : (!transform.any_op) -> ()
  }
}"#;

/// Gate 1: an injected failure at every step index × every fault kind
/// must restore the committed prefix exactly.
fn rollback_acceptance() {
    let env = InterpEnv::standard();
    let src = gate::loop_payload(0, 64);
    let mut cases = 0;
    for step in 0..STEPS {
        let expected = committed_print(&env, &src, step);
        for kind in ["silenceable", "definite", "panic"] {
            let plan = format!("{kind}@step={step}");
            assert_eq!(
                faulted_print(&env, &src, &plan),
                expected,
                "{plan}: payload differs from the committed prefix"
            );
            cases += 1;
        }
    }

    // alloc_pressure panics mid-rewrite (inside the op-creation hook),
    // not at the step boundary. The match creates nothing, so the tile
    // step is the one that dies; containment must restore its pre-step
    // state exactly.
    assert_eq!(
        faulted_print(&env, &src, "alloc_pressure@p=1"),
        committed_print(&env, &src, 1),
        "alloc_pressure: payload differs from the committed prefix"
    );

    // Branches that fail before mutating cost their failed matches and
    // nothing else: no copy of the target, nothing to unwind.
    let (mut ctx, entry, module) = td_bench::parse_schedule(&src, FAILING_ALTERNATIVES, "main");
    let ops_before = ctx.num_ops();
    let mut interp = Interpreter::new(&env);
    let err = interp
        .apply(&mut ctx, entry, module)
        .expect_err("every branch fails");
    assert!(err.is_silenceable(), "{}", err.diagnostic());
    assert_eq!(interp.stats.suppressed_errors, 2, "both branches ran");
    assert_eq!(interp.stats.undo_entries, 0, "failed matches log nothing");
    assert_eq!(ctx.num_ops(), ops_before, "no dry-run copy of the target");
    println!(
        "chaos gate 1 OK: rollback clean across {cases} (step x kind) cases + alloc_pressure; 2 failing alternatives: 0 undo entries, 0 ops created"
    );
}

/// Every successful output must re-parse and verify in a fresh context.
fn assert_outputs_valid(report: &td_sched::BatchReport, what: &str) {
    for (i, result) in report.results.iter().enumerate() {
        if let Ok(output) = result {
            let mut ctx = td_bench::full_context();
            let module = td_ir::parse_module(&mut ctx, &output.module_text)
                .unwrap_or_else(|e| panic!("{what}: job {i} output does not re-parse: {e}"));
            td_ir::verify(&ctx, module)
                .unwrap_or_else(|e| panic!("{what}: job {i} output invalid: {e:?}"));
        }
    }
}

fn outcome(result: &Result<td_sched::JobOutput, JobError>) -> String {
    match result {
        Ok(output) => format!("ok attempts={}", output.attempts),
        Err(error) => format!("err {error}"),
    }
}

/// Runs `batch_under(policy)` under `plan` at the given worker count,
/// returning the report (cache disabled: a fault-free cached result would
/// mask faults).
fn run_under_plan(plan: &str, workers: usize, policy: JobPolicy) -> td_sched::BatchReport {
    fault::set_plan(Some(fault::FaultPlan::parse(plan).unwrap()));
    let engine = Engine::new(
        EngineConfig::standard()
            .with_workers(workers)
            .without_cache(),
    );
    let report = engine.run_batch(batch_under(policy));
    fault::set_plan(None);
    report
}

/// Gate 2: the batch under silenceable / panic / deadline fault plans.
fn chaos_determinism() {
    metrics::reset();
    fault::reset_stats();

    // The batch under `plan` at 1 and 4 workers, and each run's outcomes.
    let at_1_and_4 = |plan: &str| {
        let runs = [1, 4].map(|workers| run_under_plan(plan, workers, JobPolicy::default()));
        let outcomes = runs.each_ref().map(|r| r.results.iter().map(outcome).collect::<Vec<_>>());
        (runs, outcomes)
    };

    // Silenceable chaos: outcomes must be worker-count independent.
    let ([r1, r4], [o1, o4]) = at_1_and_4("silenceable@p=0.3,seed=11");
    assert_eq!(o1, o4, "silenceable chaos diverged across worker counts");
    assert!(
        r1.ok_count() > 0 && r1.err_count() > 0,
        "p=0.3 should mix outcomes: {o1:?}"
    );
    assert_outputs_valid(&r1, "silenceable chaos");
    assert_outputs_valid(&r4, "silenceable chaos x4");

    // Panic chaos: contained by the transactional interpreter, surfaced
    // as definite errors, still deterministic.
    let ([p1, _], [po1, po4]) = at_1_and_4("panic@p=0.2,seed=3");
    assert_eq!(po1, po4, "panic chaos diverged across worker counts");
    assert!(p1.err_count() > 0, "p=0.2 should panic somewhere: {po1:?}");
    for result in &p1.results {
        if let Err(error) = result {
            let text = error.to_string();
            assert!(
                text.contains("panicked") && text.contains("rolled back"),
                "panic must be contained and rolled back, got: {text}"
            );
        }
    }
    assert_outputs_valid(&p1, "panic chaos");

    // Deadline chaos: job 0 sleeps past the deadline; whatever else the
    // clock allows must be either a clean, valid output or a timeout —
    // never invalid IR. (Which jobs time out is inherently clock-bound,
    // so cross-worker-count equality is not asserted here.)
    let plan = "sleep@job=0,ms=40";
    let d1 = run_under_plan(
        plan,
        2,
        JobPolicy {
            deadline: Some(Duration::from_millis(20)),
            ..JobPolicy::default()
        },
    );
    assert!(
        matches!(d1.results[0], Err(JobError::DeadlineExceeded)),
        "job 0 slept 3x40ms past a 20ms deadline: {:?}",
        d1.results[0]
    );
    for (i, result) in d1.results.iter().enumerate() {
        match result {
            Ok(_) | Err(JobError::DeadlineExceeded) => {}
            other => panic!("deadline chaos job {i}: unexpected outcome {other:?}"),
        }
    }
    assert_outputs_valid(&d1, "deadline chaos");

    // Counters: the workers' metrics were absorbed into this (the
    // coordinator) thread, and the fault stats are process-wide.
    let absorbed = metrics::snapshot();
    let rolled_back = absorbed.counter_value("interp.rolled_back").unwrap_or(0);
    assert!(rolled_back > 0, "no rollbacks counted across chaos batches");
    fault::publish_metrics();
    let fired = fault::stats().iter().map(|(_, s)| s.fired).sum::<u64>();
    assert!(fired > 0, "no faults fired across chaos batches");
    println!(
        "chaos gate 2 OK: {} silenceable / {} panic / {} deadline failures, {rolled_back} rollbacks, {fired} faults fired",
        r1.err_count(),
        p1.err_count(),
        d1.err_count(),
    );
}

/// Gate 3: failure budget trips into graceful degradation.
fn graceful_degradation() {
    fault::set_plan(Some(fault::FaultPlan::parse("definite@p=1").unwrap()));
    let engine = Engine::new(
        EngineConfig::standard()
            .with_workers(1)
            .without_cache()
            .with_failure_budget(3),
    );
    let report = engine.run_batch(batch_under(JobPolicy::default()));
    fault::set_plan(None);
    assert!(report.degraded, "the failure budget must trip");
    let cancelled = report
        .results
        .iter()
        .filter(|r| matches!(r, Err(JobError::Cancelled)))
        .count();
    assert_eq!(cancelled, BATCH - 3, "jobs past the budget are cancelled");
    assert!(report
        .results
        .iter()
        .take(3)
        .all(|r| matches!(r, Err(JobError::Transform { .. }))));
    println!("chaos gate 3 OK: budget of 3 tripped, {cancelled}/{BATCH} jobs cancelled");
}

/// Gate 4: with faults disabled, the default interpreter configuration
/// (`TxnMode::Always`) must not pay meaningfully for transactions —
/// enforced at 1.10× of transactions off.
fn checkpoint_overhead() {
    /// Applies per side of a round: ~8 ms, long enough that timer
    /// resolution is nothing against it.
    const APPLIES: usize = 120;
    const ROUNDS: usize = 15;
    fault::set_thread_plan(None);
    let src = gate::loop_payload(3, 64);
    let script = script();
    let envs = MODES.map(|txn| {
        let mut env = InterpEnv::standard();
        env.config.txn = txn;
        env.config.verify_after_each = false;
        env
    });
    // Side 0 never, side 1 always; each item parses and applies once.
    let run = gate::paired(2, ROUNDS, APPLIES, |mode, _| {
        let started = Instant::now();
        let (mut ctx, entry, module) = td_bench::parse_schedule(&src, &script, "main");
        Interpreter::new(&envs[mode])
            .apply(&mut ctx, entry, module)
            .expect("clean run");
        started.elapsed()
    });
    let spread = run.ratio(1, 0);
    let median = &run.rounds[spread.median_round];
    println!(
        "chaos gate 4: {ROUNDS} interleaved rounds of {APPLIES} applies: median round txn=never {:.3}ms, txn=always {:.3}ms, {spread}",
        median[0].as_secs_f64() * 1e3,
        median[1].as_secs_f64() * 1e3,
    );
    // The enforced bound is a release-performance contract: debug builds
    // fingerprint the payload at every top-level step to validate
    // rollbacks (an O(module) walk), which is paid deliberately there and
    // excused here.
    if cfg!(debug_assertions) {
        println!("chaos gate 4: overhead bound skipped (debug build validates rollbacks)");
    } else {
        assert!(
            spread.median <= 1.10,
            "txn=always costs {:.3}x txn=never in the median round, over the 1.10x bound",
            spread.median
        );
    }

    // End-to-end through the engine: a clean 4-worker batch with
    // transactions on vs. off (reported, not enforced — scheduling noise
    // dominates at this batch size).
    let engine = Engine::new(EngineConfig::standard().with_workers(4).without_cache());
    let run = gate::paired(2, 5, 1, |mode, _| {
        let started = Instant::now();
        let report = engine.run_batch(batch_under(JobPolicy {
            txn: MODES[mode],
            ..JobPolicy::default()
        }));
        assert_eq!(report.err_count(), 0, "clean batch");
        started.elapsed()
    });
    let spread = run.ratio(1, 0);
    let median = &run.rounds[spread.median_round];
    println!(
        "chaos gate 4 OK: sched batch txn=never {:?}, txn=always {:?} ({:+.2}%)",
        median[0],
        median[1],
        100.0 * (spread.median - 1.0),
    );
}

pub fn run() {
    rollback_acceptance();
    chaos_determinism();
    graceful_degradation();
    checkpoint_overhead();
    println!("chaos smoke OK: {BATCH} jobs per batch, {STEPS}-step schedule");
}
