//! The differential oracle: run one (schedule, payload) pair through every
//! execution mode the project offers and demand byte-identical results.
//!
//! The equivalence classes compared are:
//!
//! * **direct/auto** — a plain [`Interpreter`] with [`TxnMode::Auto`]
//!   (checkpoints only around consuming transforms).
//! * **direct/always** — the same interpreter with [`TxnMode::Always`]
//!   (a checkpoint around *every* step).
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
//!   printed identical text can have different arena histories (e.g.
//!   `Always` mode allocates checkpoint clones `Auto` never makes), so a
//!   raw cross-context fingerprint comparison would report divergences
//!   that no user can observe. Re-parsing makes the fingerprint a pure
//!   function of the printed text while still proving the text round-trips.

use std::panic::{catch_unwind, AssertUnwindSafe};

use td_ir::{parse_module, print_op, CheckpointBackend, Context, PassRegistry};
use td_sched::{Engine, EngineConfig, Job, JobError};
use td_support::{fault, journal};
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

/// A fresh context with every payload dialect plus the transform dialect.
pub fn fresh_context() -> Context {
    let mut ctx = Context::new();
    td_dialects::register_all_dialects(&mut ctx);
    td_transform::register_transform_dialect(&mut ctx);
    ctx
}

/// The full pass registry, as the engine's workers build it.
pub fn standard_passes() -> PassRegistry {
    let mut registry = PassRegistry::new();
    td_dialects::passes::register_all_passes(&mut registry);
    registry
}

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
    run_direct_on(pair, txn, CheckpointBackend::default())
}

/// [`run_direct`] with an explicit checkpoint backend, set on the context
/// itself rather than through `TD_TXN_BACKEND` so concurrent tests never
/// race on process environment.
pub fn run_direct_on(pair: &Pair, txn: TxnMode, backend: CheckpointBackend) -> Outcome {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut ctx = fresh_context();
        ctx.set_txn_backend(backend);
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
    /// Whether each successful result came from the result cache.
    pub from_cache: Vec<bool>,
}

fn jobs_for(pairs: &[Pair]) -> Vec<Job> {
    pairs
        .iter()
        .map(|p| Job::new(p.schedule.clone(), p.payload.clone()).with_entry(p.entry.clone()))
        .collect()
}

fn engine_outcome(result: &td_sched::JobResult) -> (Outcome, bool) {
    match result {
        Ok(output) => (normalize_ok(output.module_text.clone()), output.from_cache),
        Err(JobError::Transform {
            message,
            silenceable,
        }) => (
            Outcome::Transform {
                silenceable: *silenceable,
                message: message.clone(),
            },
            false,
        ),
        Err(JobError::Panicked { message }) => (
            Outcome::Panic {
                message: message.clone(),
            },
            false,
        ),
        // Parse/EntryMissing format via Display so the string matches
        // run_direct's setup messages byte-for-byte.
        Err(err) => (
            Outcome::Setup {
                message: err.to_string(),
            },
            false,
        ),
    }
}

/// Run all pairs as one engine batch under the given config.
pub fn run_engine(pairs: &[Pair], config: EngineConfig) -> EngineRun {
    let engine = Engine::new(config);
    run_on_engine(&engine, pairs)
}

/// Run all pairs as one batch on an existing engine (for cache reuse).
pub fn run_on_engine(engine: &Engine, pairs: &[Pair]) -> EngineRun {
    let report = engine.run_batch(jobs_for(pairs));
    let (outcomes, from_cache) = report.results.iter().map(engine_outcome).unzip();
    EngineRun {
        outcomes,
        from_cache,
    }
}

/// Base engine config for oracle runs: retries off so every mode performs
/// exactly one interpreter attempt per job.
fn oracle_engine(workers: usize) -> EngineConfig {
    EngineConfig::standard()
        .with_workers(workers)
        .with_max_attempts(1)
}

/// Labels of the modes [`differential`] compares, in order.
pub const MODES: &[&str] = &[
    "direct/auto",
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
    /// The reference outcome (direct/auto).
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
    let mut direct_auto = Vec::with_capacity(pairs.len());
    let mut direct_always = Vec::with_capacity(pairs.len());
    for (index, pair) in pairs.iter().enumerate() {
        fault::set_lane(index as u64);
        direct_auto.push(run_direct(pair, TxnMode::Auto));
        fault::set_lane(index as u64);
        direct_always.push(run_direct(pair, TxnMode::Always));
    }

    let engine_w1 = run_engine(pairs, oracle_engine(1).without_cache());
    let engine_w4 = run_engine(pairs, oracle_engine(4).without_cache());

    let journal_was_on = journal::enabled();
    journal::set_enabled(true);
    let engine_journal = run_engine(pairs, oracle_engine(2).without_cache());
    journal::set_enabled(journal_was_on);

    let cached = Engine::new(oracle_engine(2).with_cache_capacity(pairs.len().max(1)));
    let engine_cold = run_on_engine(&cached, pairs);
    let engine_warm = run_on_engine(&cached, pairs);

    let mut reports = Vec::with_capacity(pairs.len());
    for index in 0..pairs.len() {
        let outcomes = vec![
            (MODES[0], direct_auto[index].clone()),
            (MODES[1], direct_always[index].clone()),
            (MODES[2], engine_w1.outcomes[index].clone()),
            (MODES[3], engine_w4.outcomes[index].clone()),
            (MODES[4], engine_journal.outcomes[index].clone()),
            (MODES[5], engine_cold.outcomes[index].clone()),
            (MODES[6], engine_warm.outcomes[index].clone()),
        ];
        reports.push(CaseReport {
            outcomes,
            cache_missed_warm: !engine_warm.from_cache[index],
        });
    }
    reports
}

/// Convenience: the failure description for a single pair, if any.
pub fn differential_failure(pair: &Pair) -> Option<String> {
    differential(std::slice::from_ref(pair)).remove(0).failure()
}

// ---------------------------------------------------------------------
// Undo-log equivalence: the incremental undo-log checkpoint backend vs.
// the full-clone backend, clean and at every injected fault point.
// ---------------------------------------------------------------------

/// What one journaled, possibly fault-armed run observed.
struct SweptRun {
    /// The outcome (Ok text is *not* normalized — raw equality suffices
    /// because both backends print in a freshly parsed context).
    outcome: Outcome,
    /// Payload print after `apply` returned — the post-rollback state on
    /// failure, the final module on success.
    post_print: String,
    /// Transform steps that committed.
    executed: usize,
    /// `fp_before` of the last *top-level* (minimal-depth) journal step —
    /// the state a failing run's transaction must restore. `None` when no
    /// step was recorded.
    pre_step_fp: Option<u64>,
    /// Live-context [`td_ir::fingerprint_op`] of the payload after
    /// `apply` returned.
    post_fp: u64,
}

/// One instrumented run under `TxnMode::Always`: journal on (for per-step
/// fingerprints), optionally with a silenceable fault armed at hit index
/// `fault_step` of the interpreter's step fault point.
fn swept_run(pair: &Pair, fault_step: Option<usize>, backend: CheckpointBackend) -> SweptRun {
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
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut ctx = fresh_context();
        ctx.set_txn_backend(backend);
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
        let outcome = match interp.apply_reentrant(&mut ctx, entry, payload) {
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
    // When a run fails, the top-level transaction restores the state
    // before the failing *top-level* step — which is the last
    // minimal-depth record (its committed predecessors all ran to
    // completion, and no later top-level step began). Failures at deeper
    // records may have been suppressed (e.g. by an alternatives-style
    // construct), so neither "first failing record" nor the fault's hit
    // index identifies the restored state in general.
    let base_depth = recorded.steps().iter().map(|s| s.depth).min();
    let pre_step_fp = base_depth.and_then(|base| {
        recorded
            .steps()
            .iter()
            .filter(|s| s.depth == base)
            .next_back()
            .map(|s| s.fp_before)
    });
    match result {
        Ok(Ok((outcome, post_print, executed, post_fp))) => SweptRun {
            outcome,
            post_print,
            executed,
            pre_step_fp,
            post_fp,
        },
        Ok(Err(message)) => SweptRun {
            outcome: Outcome::Setup { message },
            post_print: String::new(),
            executed: 0,
            pre_step_fp: None,
            post_fp: 0,
        },
        Err(payload) => SweptRun {
            outcome: Outcome::Panic {
                message: fault::panic_text(payload.as_ref()),
            },
            post_print: String::new(),
            executed: 0,
            pre_step_fp: None,
            post_fp: 0,
        },
    }
}

/// Differential check of the undo-log checkpoint backend against the
/// full-clone backend for one pair, clean and at every fault point.
///
/// Under `TxnMode::Always` the two backends must be observationally
/// identical. The sweep demands:
///
/// 1. **Clean equivalence** — byte-identical final payload prints (or the
///    identical error) with no faults armed.
/// 2. **Per-step rollback equivalence** — with a silenceable fault
///    injected at every step index of the clean run in turn, both
///    backends report the same outcome and print byte-identical
///    post-rollback payloads.
/// 3. **Fingerprint restoration** (undo backend) — the post-rollback
///    [`td_ir::fingerprint_op`] equals the failing step's journaled
///    `fp_before`, in the *same* context. The undo log restores freed
///    entities under their original generational ids, so even the
///    id-sensitive fingerprint must come back exact. (The clone backend
///    is exempt: a restored clone has fresh ids by construction; print
///    identity is its contract.)
/// 4. **Round-trip** — every post-rollback print re-parses in a fresh
///    context.
///
/// Returns `Some(description)` on the first violation. Pairs that never
/// reach the interpreter vacuously pass — generator bugs are
/// [`differential`]'s department.
pub fn undo_equivalence(pair: &Pair) -> Option<String> {
    let clone_clean = swept_run(pair, None, CheckpointBackend::Clone);
    if matches!(clone_clean.outcome, Outcome::Setup { .. }) {
        return None;
    }
    let undo_clean = swept_run(pair, None, CheckpointBackend::Undo);
    if undo_clean.outcome != clone_clean.outcome || undo_clean.post_print != clone_clean.post_print
    {
        return Some(format!(
            "undo/clone clean runs diverge:\n  clone: {}\n  undo: {}\n--- clone print ---\n{}\n--- undo print ---\n{}",
            clone_clean.outcome.brief(),
            undo_clean.outcome.brief(),
            clone_clean.post_print,
            undo_clean.post_print
        ));
    }

    // Fault at every step index the clean run executed. A silenceable
    // fault at hit k fails the k-th step *before* its handler runs, so
    // the post-rollback state must be exactly the k-step committed state.
    for step in 0..clone_clean.executed {
        let clone_run = swept_run(pair, Some(step), CheckpointBackend::Clone);
        let undo_run = swept_run(pair, Some(step), CheckpointBackend::Undo);
        if undo_run.outcome != clone_run.outcome {
            return Some(format!(
                "fault@step={step}: outcomes diverge:\n  clone: {}\n  undo: {}",
                clone_run.outcome.brief(),
                undo_run.outcome.brief()
            ));
        }
        if undo_run.post_print != clone_run.post_print {
            return Some(format!(
                "fault@step={step}: post-rollback payloads diverge\n--- clone ---\n{}\n--- undo ---\n{}",
                clone_run.post_print, undo_run.post_print
            ));
        }
        // Fingerprint restoration is only a theorem when the run actually
        // failed — a suppressed fault (alternatives-style recovery) leaves
        // the run to succeed with whatever state the recovery built.
        if matches!(undo_run.outcome, Outcome::Transform { .. }) {
            if let Some(expected) = undo_run.pre_step_fp {
                if undo_run.post_fp != expected {
                    return Some(format!(
                        "fault@step={step}: undo rollback fingerprint {:016x} != pre-step {expected:016x}",
                        undo_run.post_fp
                    ));
                }
            }
        }
        if let Outcome::RoundTrip { message } = normalize_ok(undo_run.post_print) {
            return Some(format!(
                "fault@step={step}: post-rollback payload failed to re-parse: {message}"
            ));
        }
    }
    None
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
    fn undo_and_clone_backends_are_equivalent_on_a_simple_pair() {
        let _guard = fault::test_guard();
        let pair = Pair::new(PAYLOAD, SCHEDULE);
        let verdict = undo_equivalence(&pair);
        assert!(verdict.is_none(), "{verdict:?}");
    }

    #[test]
    fn undo_sweep_covers_failing_pairs_too() {
        let _guard = fault::test_guard();
        // The schedule fails silenceably at its first step; the sweep must
        // still agree across backends on the clean (failing) run and not
        // report a divergence.
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
        // single direct mode: the fault makes direct/auto fail while the
        // unarmed reference run succeeded — exactly what the oracle's
        // divergence report is for.
        fault::set_thread_plan(Some(
            fault::FaultPlan::parse("silenceable@transform=transform.annotate").unwrap(),
        ));
        fault::reset_counters();
        let faulted = run_direct(&pair, TxnMode::Auto);
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
