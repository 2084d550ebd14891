//! The differential oracle: run one (schedule, payload) pair through every
//! execution mode the project offers and demand byte-identical results.
//!
//! The equivalence classes compared are:
//!
//! * **direct/always** — a plain [`Interpreter`] with the default
//!   [`TxnMode::Always`] (a transaction around *every* top-level step).
//!   This is the reference the other classes are compared against.
//! * **engine/w1** and **engine/w4** — the `td-sched` engine with one
//!   worker vs. four, caching disabled.
//! * **engine/journal** — the engine with the provenance journal recording.
//! * **engine/cold** and **engine/warm** — one shared engine run twice
//!   over the same batch; the warm run must serve every successful job
//!   from the cache and still print the identical module.
//!
//! Two deliberate exclusions, for soundness of the oracle itself:
//!
//! * [`TxnMode::Never`] is *not* an equivalence class: with rollback
//!   disabled, a failing transform may legitimately leave partial edits
//!   behind, so its output is allowed to differ by design.
//! * Fingerprints are computed by **re-parsing the printed output in a
//!   fresh context**, never on the live context that ran the schedule.
//!   [`td_ir::fingerprint_op`] is context-relative; two contexts that
//!   printed identical text can have different arena histories (a job
//!   that was retried, a step that was rolled back and re-run), so a raw
//!   cross-context fingerprint comparison would report divergences that
//!   no user can observe. Re-parsing makes the fingerprint a pure
//!   function of the printed text while still proving the text round-trips.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use td_ir::{parse_module, print_op};
use td_sched::{Engine, EngineConfig, Job, JobError};
use td_support::{fault, journal, Instrumentation, IrView};
use td_transform::{InterpEnv, Interpreter, TxnMode};

/// One fuzz case: payload module text plus transform script text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pair {
    /// Payload module source.
    pub payload: String,
    /// Transform script source (a module with the entry sequence).
    pub schedule: String,
    /// Entry `transform.named_sequence` symbol, conventionally `main`.
    pub entry: String,
}

impl Pair {
    /// A pair with the conventional entry point `@main`.
    pub fn new(payload: impl Into<String>, schedule: impl Into<String>) -> Pair {
        Pair {
            payload: payload.into(),
            schedule: schedule.into(),
            entry: "main".to_owned(),
        }
    }
}

/// What one execution mode produced for one pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The schedule applied; the payload printed and round-tripped.
    Ok {
        /// Printed payload module after the schedule ran.
        text: String,
        /// [`td_ir::fingerprint_op`] of the re-parsed output.
        fingerprint: u64,
        /// [`td_ir::structural_fingerprint_op`] of the re-parsed output.
        structural: u64,
    },
    /// The schedule applied but its printed output failed to re-parse.
    /// Always a reportable bug, even if every mode agrees on it.
    RoundTrip {
        /// Parser diagnostic for the output text.
        message: String,
    },
    /// The interpreter reported a transform failure.
    Transform {
        /// Whether the failure was silenceable.
        silenceable: bool,
        /// The diagnostic message.
        message: String,
    },
    /// The pair never reached the interpreter (parse error, missing
    /// entry symbol) — a generator bug, not a schedule outcome.
    Setup {
        /// What went wrong.
        message: String,
    },
    /// A transform handler panicked.
    Panic {
        /// The panic payload text.
        message: String,
    },
}

impl Outcome {
    /// True for the successful variant.
    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Ok { .. })
    }

    /// A short one-line description for reports.
    pub fn brief(&self) -> String {
        match self {
            Outcome::Ok {
                fingerprint,
                structural,
                text,
            } => format!(
                "ok fp={fingerprint:016x} sfp={structural:016x} ({} bytes)",
                text.len()
            ),
            Outcome::RoundTrip { message } => format!("round-trip failure: {message}"),
            Outcome::Transform {
                silenceable: true,
                message,
            } => format!("silenceable: {message}"),
            Outcome::Transform {
                silenceable: false,
                message,
            } => format!("definite: {message}"),
            Outcome::Setup { message } => format!("setup: {message}"),
            Outcome::Panic { message } => format!("panic: {message}"),
        }
    }
}

/// A fresh context with every payload dialect plus the transform dialect,
/// and the full pass registry: exactly what the engine's workers build.
pub use td_sched::{standard_context as fresh_context, standard_passes};

/// Re-parse printed output in a fresh context and fingerprint it there.
fn normalize_ok(text: String) -> Outcome {
    let mut ctx = fresh_context();
    match parse_module(&mut ctx, &text) {
        Ok(module) => Outcome::Ok {
            fingerprint: td_ir::fingerprint_op(&ctx, module),
            structural: td_ir::structural_fingerprint_op(&ctx, module),
            text,
        },
        Err(err) => Outcome::RoundTrip {
            message: err.message().to_owned(),
        },
    }
}

/// Run one pair on a plain interpreter under the given transaction mode.
///
/// Parses payload first, then script (the same discipline the engine's
/// workers use, so op ids — and thus printed SSA names — line up).
pub fn run_direct(pair: &Pair, txn: TxnMode) -> Outcome {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut ctx = fresh_context();
        let payload = match parse_module(&mut ctx, &pair.payload) {
            Ok(op) => op,
            Err(err) => {
                return Err(Outcome::Setup {
                    message: format!("payload failed to parse: {}", err.message()),
                })
            }
        };
        let script = match parse_module(&mut ctx, &pair.schedule) {
            Ok(op) => op,
            Err(err) => {
                return Err(Outcome::Setup {
                    message: format!("script failed to parse: {}", err.message()),
                })
            }
        };
        let Some(entry) = ctx.lookup_symbol(script, &pair.entry) else {
            return Err(Outcome::Setup {
                message: format!("script has no entry sequence named '{}'", pair.entry),
            });
        };
        let passes = standard_passes();
        let mut env = InterpEnv::standard();
        env.passes = Some(&passes);
        env.config.txn = txn;
        let mut interp = Interpreter::new(&env);
        match interp.apply_reentrant(&mut ctx, entry, payload) {
            Ok(()) => Ok(print_op(&ctx, payload)),
            Err(err) => Err(Outcome::Transform {
                silenceable: err.is_silenceable(),
                message: err.diagnostic().message().to_owned(),
            }),
        }
    }));
    match result {
        Ok(Ok(text)) => normalize_ok(text),
        Ok(Err(outcome)) => outcome,
        Err(payload) => Outcome::Panic {
            message: fault::panic_text(payload.as_ref()),
        },
    }
}

/// Outcomes of one engine batch, plus which results were cache hits.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// Per-pair outcomes, in submission order.
    pub outcomes: Vec<Outcome>,
    /// Whether each result — success or cached failure — came from the
    /// result cache.
    pub from_cache: Vec<bool>,
}

fn jobs_for(pairs: &[Pair]) -> Vec<Job> {
    pairs
        .iter()
        .map(|p| Job::new(p.schedule.clone(), p.payload.clone()).with_entry(p.entry.clone()))
        .collect()
}

fn engine_outcome(result: &td_sched::JobResult) -> Outcome {
    match result {
        Ok(output) => normalize_ok(output.module_text.clone()),
        Err(JobError::Transform {
            message,
            silenceable,
        }) => Outcome::Transform {
            silenceable: *silenceable,
            message: message.clone(),
        },
        Err(JobError::Panicked { message }) => Outcome::Panic {
            message: message.clone(),
        },
        // Parse/EntryMissing format via Display so the string matches
        // run_direct's setup messages byte-for-byte.
        Err(err) => Outcome::Setup {
            message: err.to_string(),
        },
    }
}

/// Run all pairs as one batch on a fresh, uncached engine of `workers`.
pub fn run_engine(pairs: &[Pair], workers: usize) -> EngineRun {
    let engine = Engine::new(
        EngineConfig::standard()
            .with_workers(workers)
            .without_cache(),
    );
    run_on_engine(&engine, pairs)
}

/// Run all pairs as one batch on an existing engine (for cache reuse).
pub fn run_on_engine(engine: &Engine, pairs: &[Pair]) -> EngineRun {
    let report = engine.run_batch(jobs_for(pairs));
    EngineRun {
        outcomes: report.results.iter().map(engine_outcome).collect(),
        from_cache: report.from_cache,
    }
}

/// Labels of the modes [`differential`] compares, in order.
pub const MODES: &[&str] = &[
    "direct/always",
    "engine/w1",
    "engine/w4",
    "engine/journal",
    "engine/cold",
    "engine/warm",
];

/// All modes' outcomes for one pair.
#[derive(Clone, Debug)]
pub struct CaseReport {
    /// `(mode label, outcome)` in [`MODES`] order.
    pub outcomes: Vec<(&'static str, Outcome)>,
    /// True when the warm cache pass re-ran the job instead of hitting.
    pub cache_missed_warm: bool,
}

impl CaseReport {
    /// The reference outcome (direct/always).
    pub fn reference(&self) -> &Outcome {
        &self.outcomes[0].1
    }

    /// `Some(description)` if this case diverged, `None` when all modes
    /// agree (and Ok outcomes round-trip and warm hits the cache).
    pub fn failure(&self) -> Option<String> {
        let (ref_mode, reference) = &self.outcomes[0];
        if let Outcome::RoundTrip { message } = reference {
            return Some(format!("{ref_mode}: output failed to re-parse: {message}"));
        }
        for (mode, outcome) in &self.outcomes[1..] {
            if let Outcome::RoundTrip { message } = outcome {
                return Some(format!("{mode}: output failed to re-parse: {message}"));
            }
            if outcome != reference {
                return Some(format!(
                    "{mode} diverged from {ref_mode}:\n  {ref_mode}: {}\n  {mode}: {}",
                    reference.brief(),
                    outcome.brief()
                ));
            }
        }
        if self.cache_missed_warm && reference.is_ok() {
            return Some("engine/warm: successful job was not served from cache".to_owned());
        }
        None
    }
}

/// Run every pair through every mode and collect per-pair reports.
///
/// Direct modes set the fault-injection lane to the pair's index, matching
/// what the engine's workers do, so a `TD_FAULT` plan with per-lane step
/// counters fires identically in every mode.
pub fn differential(pairs: &[Pair]) -> Vec<CaseReport> {
    let mut direct_always = Vec::with_capacity(pairs.len());
    for (index, pair) in pairs.iter().enumerate() {
        fault::set_lane(index as u64);
        direct_always.push(run_direct(pair, TxnMode::Always));
    }

    let engine_w1 = run_engine(pairs, 1);
    let engine_w4 = run_engine(pairs, 4);

    let journal_was_on = journal::enabled();
    journal::set_enabled(true);
    let engine_journal = run_engine(pairs, 2);
    journal::set_enabled(journal_was_on);

    let cached = Engine::new(
        EngineConfig::standard()
            .with_workers(2)
            .with_cache_capacity(pairs.len().max(1)),
    );
    let engine_cold = run_on_engine(&cached, pairs);
    let engine_warm = run_on_engine(&cached, pairs);

    let mut reports = Vec::with_capacity(pairs.len());
    for index in 0..pairs.len() {
        let outcomes = vec![
            (MODES[0], direct_always[index].clone()),
            (MODES[1], engine_w1.outcomes[index].clone()),
            (MODES[2], engine_w4.outcomes[index].clone()),
            (MODES[3], engine_journal.outcomes[index].clone()),
            (MODES[4], engine_cold.outcomes[index].clone()),
            (MODES[5], engine_warm.outcomes[index].clone()),
        ];
        reports.push(CaseReport {
            outcomes,
            cache_missed_warm: !engine_warm.from_cache[index],
        });
    }
    reports
}

/// The fault plan of [`single_job_agreement`]'s armed batch: the second
/// interpreter step of every job's first attempt fails silenceably.
pub const GROUP_FAULT: &str = "silenceable@step=1";

/// Holds two batches over `pairs` on `workers` to the results of the same
/// jobs run alone, as one-job batches (which never share a payload): one
/// batch where every third job runs under [`TxnMode::Never`] and all have
/// two attempts, and one under the process-wide [`GROUP_FAULT`] plan,
/// which keeps every job on a fresh context. Each job carries its index as
/// its fault lane, so the plan fires alike in the batch and alone. Returns
/// a description of every job whose results differ.
pub fn single_job_agreement(pairs: &[Pair], workers: usize) -> Vec<String> {
    let mixed: Vec<Job> = jobs_for(pairs)
        .into_iter()
        .enumerate()
        .map(|(index, job)| {
            let txn = if index % 3 == 1 {
                TxnMode::Never
            } else {
                TxnMode::Always
            };
            job.with_txn(txn)
                .with_max_attempts(2)
                .with_fault_lane(index as u64)
        })
        .collect();
    let mut divergences = batch_against_alone(&mixed, workers, "mixed-policy batch");
    fault::set_plan(Some(
        fault::FaultPlan::parse(GROUP_FAULT).expect("group fault plan parses"),
    ));
    let armed: Vec<Job> = mixed
        .into_iter()
        .map(|job| job.with_txn(TxnMode::Always))
        .collect();
    divergences.extend(batch_against_alone(&armed, workers, GROUP_FAULT));
    fault::set_plan(None);
    divergences
}

/// Runs `jobs` as one batch on an uncached engine of `workers`, then each
/// alone, and describes every job whose two results differ.
fn batch_against_alone(jobs: &[Job], workers: usize, what: &str) -> Vec<String> {
    let batch = Engine::new(
        EngineConfig::standard()
            .with_workers(workers)
            .without_cache(),
    )
    .run_batch(jobs.to_vec());
    let single = Engine::new(EngineConfig::standard().with_workers(1).without_cache());
    jobs.iter()
        .zip(&batch.results)
        .enumerate()
        .filter_map(|(index, (job, batched))| {
            let alone = &single.run_batch(vec![job.clone()]).results[0];
            (alone != batched).then(|| {
                format!(
                    "{what} at {workers} worker(s), job {index}:\n  in the batch: {batched:?}\n  alone: {alone:?}"
                )
            })
        })
        .collect()
}

/// Convenience: the failure description for a single pair, if any.
pub fn differential_failure(pair: &Pair) -> Option<String> {
    differential(std::slice::from_ref(pair)).remove(0).failure()
}

// ---------------------------------------------------------------------
// Undo-log equivalence: a rolled-back step must be indistinguishable from
// a step that never ran — clean and at every injected fault point.
// ---------------------------------------------------------------------

/// What one journaled, possibly fault-armed run observed.
struct SweptRun {
    /// The outcome (Ok text is left empty — `post_print` carries it).
    outcome: Outcome,
    /// Payload print after the run returned — the post-rollback state on
    /// failure, the final module on success.
    post_print: String,
    /// Transform steps that committed.
    executed: usize,
    /// Top-level steps that committed before the run ended.
    committed: usize,
    /// Live-context [`td_ir::fingerprint_op`] of the payload before the
    /// top-level step the run ended in — the state a failing run's
    /// transaction must restore — or after it, when it committed. `None`
    /// when no step was recorded.
    pre_step_fp: Option<u64>,
    /// Live-context [`td_ir::fingerprint_op`] of the payload after the
    /// run returned.
    post_fp: u64,
}

/// Live-context payload fingerprints around the transforms of one run:
/// before each transform, in execution order (nested ones included, so
/// index `i` belongs to the run's `i`-th journaled transform step), and
/// after the latest one that succeeded.
#[derive(Default)]
struct StepFingerprints {
    before: Vec<u64>,
    after_latest: Option<u64>,
}

/// The [`Instrumentation`] that fills a shared [`StepFingerprints`].
struct FingerprintHook(Rc<RefCell<StepFingerprints>>);

impl Instrumentation for FingerprintHook {
    fn before_transform(&mut self, _name: &str, ir: &IrView<'_>) {
        self.0.borrow_mut().before.push(ir.fingerprint());
    }

    fn after_transform(&mut self, _name: &str, ir: &IrView<'_>) {
        self.0.borrow_mut().after_latest = Some(ir.fingerprint());
    }
}

/// One instrumented run under `TxnMode::Always`: journal on (for the
/// step records) and a [`FingerprintHook`] (for the payload fingerprints
/// around each step), optionally with a silenceable fault armed at hit
/// index `fault_step` of the interpreter's step fault point, optionally
/// cut off after the first `limit` top-level steps.
fn swept_run(pair: &Pair, fault_step: Option<usize>, limit: Option<usize>) -> SweptRun {
    match fault_step {
        Some(step) => {
            fault::set_thread_plan(Some(
                fault::FaultPlan::parse(&format!("silenceable@step={step}"))
                    .expect("sweep plan parses"),
            ));
            fault::reset_counters();
            fault::set_lane(0);
        }
        None => fault::set_thread_plan(None),
    }
    let journal_was_on = journal::enabled();
    journal::set_enabled(true);
    journal::reset();
    let fingerprints = Rc::new(RefCell::new(StepFingerprints::default()));
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut ctx = fresh_context();
        let payload = match parse_module(&mut ctx, &pair.payload) {
            Ok(op) => op,
            Err(err) => {
                return Err(format!("payload failed to parse: {}", err.message()));
            }
        };
        let script = match parse_module(&mut ctx, &pair.schedule) {
            Ok(op) => op,
            Err(err) => {
                return Err(format!("script failed to parse: {}", err.message()));
            }
        };
        let Some(entry) = ctx.lookup_symbol(script, &pair.entry) else {
            return Err(format!(
                "script has no entry sequence named '{}'",
                pair.entry
            ));
        };
        let passes = standard_passes();
        let mut env = InterpEnv::standard();
        env.passes = Some(&passes);
        env.config.txn = TxnMode::Always;
        let mut interp = Interpreter::new(&env);
        interp.add_instrumentation(Box::new(FingerprintHook(Rc::clone(&fingerprints))));
        let applied = match limit {
            Some(limit) => interp.apply_prefix(&mut ctx, entry, payload, limit),
            None => interp.apply_reentrant(&mut ctx, entry, payload),
        };
        let outcome = match applied {
            Ok(()) => Outcome::Ok {
                text: String::new(),
                fingerprint: 0,
                structural: 0,
            },
            Err(err) => Outcome::Transform {
                silenceable: err.is_silenceable(),
                message: err.diagnostic().message().to_owned(),
            },
        };
        Ok((
            outcome,
            print_op(&ctx, payload),
            interp.stats.transforms_executed,
            td_ir::fingerprint_op(&ctx, payload),
        ))
    }));
    fault::set_thread_plan(None);
    let recorded = journal::take();
    journal::set_enabled(journal_was_on);
    // The top-level steps are the minimal-depth transform records (the
    // rollback's own `txn` record is not a step). A failing run ends in
    // the last of them — unless that one is `Ok`, in which case the
    // failing step was refused before it was journaled (a use of an
    // invalidated handle) and every recorded step committed. Failures at
    // deeper records may have been suppressed by an enclosing construct,
    // so the fault's hit index does not identify the failing step.
    // The hook saw the same transforms the journal recorded, in the same
    // order: the i-th journaled transform step ran on `before[i]`.
    let base_depth = recorded.steps().iter().map(|s| s.depth).min();
    let top_level: Vec<_> = recorded
        .steps()
        .iter()
        .filter(|s| s.kind == "transform")
        .enumerate()
        .filter(|(_, s)| Some(s.depth) == base_depth)
        .collect();
    let fingerprints = fingerprints.take();
    let (committed, pre_step_fp) = match top_level.last() {
        Some(&(i, last)) if last.outcome.is_failure() => {
            (top_level.len() - 1, fingerprints.before.get(i).copied())
        }
        Some(_) => (top_level.len(), fingerprints.after_latest),
        None => (0, None),
    };
    // A run that never reached the interpreter, or brought it down.
    let aborted = |outcome| SweptRun {
        outcome,
        post_print: String::new(),
        executed: 0,
        committed: 0,
        pre_step_fp: None,
        post_fp: 0,
    };
    match result {
        Ok(Ok((outcome, post_print, executed, post_fp))) => SweptRun {
            outcome,
            post_print,
            executed,
            committed,
            pre_step_fp,
            post_fp,
        },
        Ok(Err(message)) => aborted(Outcome::Setup { message }),
        Err(payload) => aborted(Outcome::Panic {
            message: fault::panic_text(payload.as_ref()),
        }),
    }
}

/// Checks one swept run against the rollback contract; `what` labels it
/// in the violation text.
fn check_swept(
    pair: &Pair,
    run: SweptRun,
    fault_step: Option<usize>,
    what: &str,
) -> Option<String> {
    if let Outcome::Panic { message } = &run.outcome {
        return Some(format!("{what}: run panicked: {message}"));
    }
    if matches!(run.outcome, Outcome::Transform { .. }) {
        // The reference: the committed top-level steps alone, in a fresh
        // context, under the same fault plan (a fault suppressed inside a
        // committed step fires identically; one at the failing step is
        // never reached). It ends before the failing step starts, so no
        // top-level transaction of the reference is ever unwound.
        let prefix = swept_run(pair, fault_step, Some(run.committed));
        if !prefix.outcome.is_ok() {
            return Some(format!(
                "{what}: the {} committed step(s) do not apply on their own: {}",
                run.committed,
                prefix.outcome.brief()
            ));
        }
        if run.post_print != prefix.post_print {
            return Some(format!(
                "{what}: post-rollback payload differs from the {} committed step(s)\n--- rolled back ---\n{}\n--- committed prefix ---\n{}",
                run.committed, run.post_print, prefix.post_print
            ));
        }
        if let Some(expected) = run.pre_step_fp {
            if run.post_fp != expected {
                return Some(format!(
                    "{what}: rollback fingerprint {:016x} != pre-step {expected:016x}",
                    run.post_fp
                ));
            }
        }
    }
    if let Outcome::RoundTrip { message } = normalize_ok(run.post_print) {
        return Some(format!(
            "{what}: final payload failed to re-parse: {message}"
        ));
    }
    None
}

/// Sweeps one pair for rollback exactness, clean and at every fault
/// point: rollback must be indistinguishable from never having run the
/// step.
///
/// The pair runs under `TxnMode::Always` once clean and once per step
/// index of the clean run with a silenceable fault injected there (a
/// fault at hit k fails the k-th step *before* its handler runs). Every
/// run that ends in a transform failure must satisfy:
///
/// 1. **Prefix equivalence** — the payload it leaves prints
///    byte-identically to a run of just its committed top-level steps
///    ([`Interpreter::apply_prefix`]) in a fresh context: a reference in
///    which the failing step never started and nothing was rolled back.
/// 2. **Fingerprint restoration** — the post-rollback
///    [`td_ir::fingerprint_op`] equals the one an
///    [`Instrumentation::before_transform`] hook took before the failing
///    step, in the *same* context. The undo log restores freed
///    entities under their original generational ids, so even the
///    id-sensitive fingerprint must come back exact.
///
/// and every run, failed or not, must leave a payload that
///
/// 3. **round-trips** — its print re-parses in a fresh context.
///
/// Returns `Some(description)` on the first violation. Pairs that never
/// reach the interpreter vacuously pass — generator bugs are
/// [`differential`]'s department.
pub fn undo_equivalence(pair: &Pair) -> Option<String> {
    let clean = swept_run(pair, None, None);
    if matches!(clean.outcome, Outcome::Setup { .. }) {
        return None;
    }
    let steps = clean.executed;
    if let Some(violation) = check_swept(pair, clean, None, "clean run") {
        return Some(violation);
    }
    (0..steps).find_map(|step| {
        let run = swept_run(pair, Some(step), None);
        check_swept(pair, run, Some(step), &format!("fault@step={step}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAYLOAD: &str = r#"module {
  func.func @main() {
    %c0 = arith.constant 0 : index
    %c4 = arith.constant 4 : index
    %c1 = arith.constant 1 : index
    scf.for %i = %c0 to %c4 step %c1 {
    }
    func.return
  }
}
"#;

    const SCHEDULE: &str = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %loops = "transform.match_op"(%root) {name = "scf.for"} : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%loops) {name = "fuzz.seen"} : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }
}
"#;

    /// A top-level step whose nested annotate commits before a nested
    /// step fails: its transaction replays a real edit, which the sweep
    /// must see undone in print and in the hook's pre-step fingerprint.
    /// (The generated pairs fail their top-level steps before any edit.)
    #[test]
    fn the_sweep_checks_a_rollback_that_replays_an_edit() {
        let _guard = fault::test_guard();
        let schedule = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %loops = "transform.match_op"(%root) {name = "scf.for"} : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%loops) {name = "fuzz.first"} : (!transform.any_op) -> ()
    "transform.sequence"(%loops) ({
    ^bb0(%arg: !transform.any_op):
      "transform.annotate"(%arg) {name = "fuzz.nested"} : (!transform.any_op) -> ()
      %none = "transform.match_op"(%arg) {name = "fuzz.absent", select = "first"} : (!transform.any_op) -> !transform.any_op
      "transform.yield"() : () -> ()
    }) : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }
}
"#;
        let pair = Pair::new(PAYLOAD, schedule);
        let run = swept_run(&pair, None, None);
        assert!(
            matches!(run.outcome, Outcome::Transform { .. }),
            "{:?}",
            run.outcome
        );
        assert_eq!(run.committed, 2, "the match and the first annotate commit");
        assert!(run.post_print.contains("fuzz.first"), "{}", run.post_print);
        assert!(
            !run.post_print.contains("fuzz.nested"),
            "{}",
            run.post_print
        );
        assert_eq!(run.pre_step_fp, Some(run.post_fp));
        assert_eq!(undo_equivalence(&pair), None);
    }

    #[test]
    fn all_modes_agree_on_a_simple_pair() {
        let _guard = fault::test_guard();
        let pair = Pair::new(PAYLOAD, SCHEDULE);
        let report = differential(std::slice::from_ref(&pair)).remove(0);
        assert!(report.failure().is_none(), "{:?}", report.failure());
        assert!(report.reference().is_ok());
    }

    #[test]
    fn silenceable_failures_agree_across_modes() {
        let _guard = fault::test_guard();
        let schedule = SCHEDULE.replace("scf.for", "fuzz.absent");
        let pair = Pair::new(PAYLOAD, schedule);
        let report = differential(std::slice::from_ref(&pair)).remove(0);
        assert!(report.failure().is_none(), "{:?}", report.failure());
        assert!(
            matches!(
                report.reference(),
                Outcome::Transform {
                    silenceable: true,
                    ..
                }
            ),
            "{:?}",
            report.reference()
        );
    }

    #[test]
    fn rollback_is_exact_on_a_simple_pair() {
        let _guard = fault::test_guard();
        let pair = Pair::new(PAYLOAD, SCHEDULE);
        let verdict = undo_equivalence(&pair);
        assert!(verdict.is_none(), "{verdict:?}");
    }

    #[test]
    fn undo_sweep_covers_failing_pairs_too() {
        let _guard = fault::test_guard();
        // The schedule fails silenceably at its first step; the sweep must
        // hold the clean (failing) run to the empty committed prefix and
        // not report a divergence.
        let schedule = SCHEDULE.replace("scf.for", "fuzz.absent");
        let pair = Pair::new(PAYLOAD, schedule);
        let verdict = undo_equivalence(&pair);
        assert!(verdict.is_none(), "{verdict:?}");
    }

    #[test]
    fn undo_sweep_vacuously_passes_setup_errors() {
        let _guard = fault::test_guard();
        let pair = Pair::new("not mlir at all", SCHEDULE);
        assert!(undo_equivalence(&pair).is_none());
    }

    #[test]
    fn an_armed_fault_in_one_mode_is_a_divergence() {
        let _guard = fault::test_guard();
        let pair = Pair::new(PAYLOAD, SCHEDULE);
        assert!(differential_failure(&pair).is_none());

        // Arm a silenceable fault for transform.annotate and re-check a
        // single direct mode: the fault makes direct/always fail while the
        // unarmed reference run succeeded — exactly what the oracle's
        // divergence report is for.
        fault::set_thread_plan(Some(
            fault::FaultPlan::parse("silenceable@transform=transform.annotate").unwrap(),
        ));
        fault::reset_counters();
        let faulted = run_direct(&pair, TxnMode::Always);
        fault::set_thread_plan(None);
        assert!(
            matches!(
                faulted,
                Outcome::Transform {
                    silenceable: true,
                    ..
                }
            ),
            "{faulted:?}"
        );
    }
}
