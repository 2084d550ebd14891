//! The pass infrastructure: [`Pass`], [`PassManager`], and the by-name
//! [`PassRegistry`].
//!
//! Passes are the *coarse-grained* control mechanism the paper contrasts
//! the Transform dialect with (§1, §2.1). The registry is what makes
//! `transform.apply_registered_pass` possible: transforms look passes up by
//! name and run them on precisely targeted payload ops instead of the whole
//! module.
//!
//! The manager is fully instrumented (the MLIR `PassInstrumentation`
//! analogue): every run opens a trace span per pass, calls
//! [`Instrumentation`] hooks before/after each pass and after each
//! verifier run, and reports failures. Per-pass wall-clock time is
//! measured exactly once and fans out to the trace stream, the metrics
//! registry, and [`PassManager::timings`] — the three reports share one
//! clock and can never disagree. Setting `TD_PRINT_IR_BEFORE` /
//! `TD_PRINT_IR_AFTER` (values: pass names, `all`, `changed`) attaches the
//! IR-snapshot instrumentation automatically, no call-site changes needed.

use crate::fingerprint::fingerprint_op;
use crate::ir::{Context, OpId};
use crate::print::print_op;
use crate::verify::verify;
use std::collections::HashMap;
use std::time::Duration;
use td_support::journal::{self, RawId};
use td_support::trace::{self, Instrumentation, IrView, PrintIr};
use td_support::{metrics, Diagnostic, Location};

/// A compiler pass anchored at one operation.
pub trait Pass {
    /// Registry name (e.g. `"convert-scf-to-cf"`).
    fn name(&self) -> &str;

    /// Runs the pass on `target` (usually a module or function).
    ///
    /// # Errors
    /// Returns a diagnostic if the pass fails; the IR may be partially
    /// transformed in that case, as in MLIR.
    fn run(&self, ctx: &mut Context, target: OpId) -> Result<(), Diagnostic>;
}

/// Timing record for one executed pass.
#[derive(Clone, Debug)]
pub struct PassTiming {
    /// Pass name.
    pub name: String,
    /// Wall-clock duration of the pass.
    pub duration: Duration,
}

/// Runs a sequence of passes, optionally verifying between them.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    verify_each: bool,
    timings: Vec<PassTiming>,
    instrumentations: Vec<Box<dyn Instrumentation>>,
    env_instrumentation_checked: bool,
}

impl PassManager {
    /// Creates an empty pass manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a pass.
    pub fn add(&mut self, pass: Box<dyn Pass>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// Enables verification after every pass.
    pub fn enable_verifier(&mut self) -> &mut Self {
        self.verify_each = true;
        self
    }

    /// Attaches an instrumentation; hooks fire in attachment order.
    pub fn add_instrumentation(&mut self, instrumentation: Box<dyn Instrumentation>) -> &mut Self {
        self.instrumentations.push(instrumentation);
        self
    }

    /// Names of the scheduled passes in order.
    pub fn pass_names(&self) -> Vec<&str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Per-pass timings of the most recent [`PassManager::run`]. Derived
    /// from the same single measurement that feeds the trace span and the
    /// `pass.<name>` metrics timer.
    pub fn timings(&self) -> &[PassTiming] {
        &self.timings
    }

    /// Attaches env-driven instrumentation (`TD_PRINT_IR_BEFORE/AFTER`)
    /// once per manager, so plain `PassManager::run` callers get IR
    /// snapshots without plumbing.
    fn attach_env_instrumentation(&mut self) {
        if self.env_instrumentation_checked {
            return;
        }
        self.env_instrumentation_checked = true;
        if let Some(print_ir) = PrintIr::from_env() {
            self.instrumentations.push(Box::new(print_ir));
        }
    }

    /// Runs all passes on `target` in order.
    ///
    /// # Errors
    /// Stops at the first failing pass or verification failure.
    pub fn run(&mut self, ctx: &mut Context, target: OpId) -> Result<(), Diagnostic> {
        let result = self.run_inner(ctx, target);
        // Flush after the root span has closed, so `TD_TRACE` works for
        // plain PassManager callers without any plumbing.
        if let Err(e) = trace::write_env_trace() {
            eprintln!("warning: failed to write TD_TRACE file: {e}");
        }
        result
    }

    fn run_inner(&mut self, ctx: &mut Context, target: OpId) -> Result<(), Diagnostic> {
        self.timings.clear();
        self.attach_env_instrumentation();
        let _run_span = trace::span("pass_manager", "run");
        let _run_metric = metrics::span("pass_manager.run");
        metrics::counter("pass_manager.runs", 1);
        for pass in &self.passes {
            let name = pass.name().to_owned();
            {
                let print = || print_op(ctx, target);
                let fp = || fingerprint_op(ctx, target);
                let view = IrView::new(&print, &fp);
                for instr in &mut self.instrumentations {
                    instr.before_pass(&name, &view);
                }
            }
            // Provenance step frame: payload changes made by the pass
            // (through `Context::create_op`/`erase_op`) attribute to it.
            let journal_step = journal::begin_step("pass", pass.name(), None, [], ctx.edit_count());
            let mut span = trace::span("pass", name.clone());
            let result = pass.run(ctx, target);
            if let Err(diag) = &result {
                span.arg("failed", diag.message().to_owned());
            }
            // The single instrumented clock: this one measurement feeds the
            // trace span (recorded on `end`), the metrics timer, and the
            // PassTiming entry.
            let duration = span.end();
            metrics::timer_ns(&format!("pass.{name}"), duration.as_nanos());
            metrics::counter("pass_manager.passes_run", 1);
            self.timings.push(PassTiming {
                name: name.clone(),
                duration,
            });
            let close_step = |ctx: &Context, outcome: journal::StepOutcome, message: &str| {
                if journal_step.is_some() {
                    let root = Some((RawId::of(target), ctx.op(target).name));
                    let (edits, ns) = (ctx.edit_count(), duration.as_nanos());
                    journal::end_step(journal_step, edits, ns, outcome, message, root);
                }
            };
            if let Err(diag) = result {
                close_step(ctx, journal::StepOutcome::Failed, diag.message());
                trace::instant("pass", "pass.failed", &[("pass", name.clone())]);
                return Err(diag);
            }
            {
                let print = || print_op(ctx, target);
                let fp = || fingerprint_op(ctx, target);
                let view = IrView::new(&print, &fp);
                for instr in &mut self.instrumentations {
                    instr.after_pass(&name, &view);
                }
            }
            if self.verify_each {
                metrics::counter("pass_manager.verifies", 1);
                let verify_span = trace::span("verify", format!("verify after {name}"));
                let outcome = verify(ctx, target);
                metrics::timer_ns("pass_manager.verify", verify_span.end().as_nanos());
                if let Err(mut diags) = outcome {
                    let first = diags.remove(0);
                    let diag = Diagnostic::error(
                        first.location().clone(),
                        format!(
                            "IR verification failed after pass '{}': {}",
                            name,
                            first.message()
                        ),
                    );
                    close_step(ctx, journal::StepOutcome::Failed, diag.message());
                    return Err(diag);
                }
            }
            close_step(ctx, journal::StepOutcome::Ok, "");
        }
        Ok(())
    }
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassManager")
            .field("passes", &self.pass_names())
            .field("verify_each", &self.verify_each)
            .finish()
    }
}

/// Factory producing a fresh pass instance.
pub type PassFactory = fn() -> Box<dyn Pass>;

/// A registry of passes by name, used to parse textual pipelines and to back
/// `transform.apply_registered_pass`.
#[derive(Default)]
pub struct PassRegistry {
    factories: HashMap<String, PassFactory>,
}

impl PassRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a pass factory under `name`.
    pub fn register(&mut self, name: &str, factory: PassFactory) {
        self.factories.insert(name.to_owned(), factory);
    }

    /// Instantiates a pass by name.
    pub fn create(&self, name: &str) -> Option<Box<dyn Pass>> {
        self.factories.get(name).map(|f| f())
    }

    /// Whether a pass with this name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.factories.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Builds a [`PassManager`] from a comma-separated pipeline description,
    /// e.g. `"convert-scf-to-cf,convert-arith-to-llvm"`.
    ///
    /// # Errors
    /// Returns a diagnostic naming the first unknown pass.
    pub fn parse_pipeline(&self, pipeline: &str) -> Result<PassManager, Diagnostic> {
        let mut pm = PassManager::new();
        for name in pipeline.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match self.create(name) {
                Some(pass) => {
                    pm.add(pass);
                }
                None => {
                    return Err(Diagnostic::error(
                        Location::unknown(),
                        format!("unknown pass '{name}' in pipeline"),
                    ))
                }
            }
        }
        Ok(pm)
    }
}

impl std::fmt::Debug for PassRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_support::Location;

    struct CountOps;
    impl Pass for CountOps {
        fn name(&self) -> &str {
            "count-ops"
        }
        fn run(&self, ctx: &mut Context, target: OpId) -> Result<(), Diagnostic> {
            let n = ctx.walk_nested(target).len() as i64;
            ctx.set_attr(target, "test.op_count", crate::attrs::Attribute::Int(n));
            Ok(())
        }
    }

    struct AlwaysFails;
    impl Pass for AlwaysFails {
        fn name(&self) -> &str {
            "always-fails"
        }
        fn run(&self, _ctx: &mut Context, _target: OpId) -> Result<(), Diagnostic> {
            Err(Diagnostic::error(Location::unknown(), "boom"))
        }
    }

    #[test]
    fn manager_runs_passes_in_order() {
        let mut ctx = Context::new();
        let module = ctx.create_module(Location::unknown());
        let mut pm = PassManager::new();
        pm.add(Box::new(CountOps));
        pm.run(&mut ctx, module).unwrap();
        assert_eq!(
            ctx.op(module).attr("test.op_count"),
            Some(&crate::attrs::Attribute::Int(0))
        );
        assert_eq!(pm.timings().len(), 1);
        assert_eq!(pm.timings()[0].name, "count-ops");
    }

    #[test]
    fn manager_stops_on_failure() {
        let mut ctx = Context::new();
        let module = ctx.create_module(Location::unknown());
        let mut pm = PassManager::new();
        pm.add(Box::new(AlwaysFails));
        pm.add(Box::new(CountOps));
        assert!(pm.run(&mut ctx, module).is_err());
        assert_eq!(
            ctx.op(module).attr("test.op_count"),
            None,
            "second pass must not run"
        );
    }

    #[test]
    fn registry_parses_pipelines() {
        let mut registry = PassRegistry::new();
        registry.register("count-ops", || Box::new(CountOps));
        let pm = registry.parse_pipeline("count-ops, count-ops").unwrap();
        assert_eq!(pm.pass_names(), vec!["count-ops", "count-ops"]);
        let err = registry.parse_pipeline("count-ops,nope").unwrap_err();
        assert!(err.message().contains("unknown pass 'nope'"));
    }

    #[test]
    fn run_emits_metrics_json() {
        metrics::reset();
        let mut ctx = Context::new();
        let module = ctx.create_module(Location::unknown());
        let mut pm = PassManager::new();
        pm.add(Box::new(CountOps));
        pm.add(Box::new(CountOps));
        pm.run(&mut ctx, module).unwrap();
        let snapshot = metrics::snapshot();
        assert_eq!(snapshot.counter_value("pass_manager.runs"), Some(1));
        assert_eq!(snapshot.counter_value("pass_manager.passes_run"), Some(2));
        let stat = snapshot
            .timer_stat("pass.count-ops")
            .expect("per-pass timer recorded");
        assert_eq!(stat.count, 2);
        let json = snapshot.to_json();
        assert!(json.contains("\"pass.count-ops\""), "dump: {json}");
        assert!(json.contains("\"pass_manager.runs\":1"), "dump: {json}");
    }

    /// Instrumentation hooks fire in order around every pass; a failed
    /// pass gets no after-pass hook.
    #[test]
    fn instrumentation_hooks_fire_in_order() {
        use std::sync::{Arc, Mutex};
        struct Recorder(Arc<Mutex<Vec<String>>>);
        impl Instrumentation for Recorder {
            fn before_pass(&mut self, pass: &str, _ir: &IrView<'_>) {
                self.0.lock().unwrap().push(format!("before:{pass}"));
            }
            fn after_pass(&mut self, pass: &str, _ir: &IrView<'_>) {
                self.0.lock().unwrap().push(format!("after:{pass}"));
            }
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut ctx = Context::new();
        let module = ctx.create_module(Location::unknown());
        let mut pm = PassManager::new();
        pm.add(Box::new(CountOps));
        pm.enable_verifier();
        pm.add_instrumentation(Box::new(Recorder(Arc::clone(&log))));
        pm.run(&mut ctx, module).unwrap();
        assert_eq!(
            *log.lock().unwrap(),
            vec!["before:count-ops", "after:count-ops"]
        );

        log.lock().unwrap().clear();
        let mut pm = PassManager::new();
        pm.add(Box::new(AlwaysFails));
        pm.add_instrumentation(Box::new(Recorder(Arc::clone(&log))));
        assert!(pm.run(&mut ctx, module).is_err());
        assert_eq!(*log.lock().unwrap(), vec!["before:always-fails"]);
    }

    /// The print-ir instrumentation with the on-change filter prints IR
    /// only for passes whose fingerprint changed (acceptance criterion).
    #[test]
    fn print_ir_on_change_skips_no_op_passes() {
        use std::sync::{Arc, Mutex};
        use td_support::PrintFilter;
        struct NoOp;
        impl Pass for NoOp {
            fn name(&self) -> &str {
                "no-op"
            }
            fn run(&self, _ctx: &mut Context, _target: OpId) -> Result<(), Diagnostic> {
                Ok(())
            }
        }
        let buffer = Arc::new(Mutex::new(String::new()));
        let mut ctx = Context::new();
        let module = ctx.create_module(Location::unknown());
        let mut pm = PassManager::new();
        // count-ops mutates (sets an attribute); no-op does not.
        pm.add(Box::new(CountOps));
        pm.add(Box::new(NoOp));
        pm.add(Box::new(NoOp));
        pm.add_instrumentation(Box::new(PrintIr::with_buffer(
            PrintFilter::default(),
            PrintFilter::parse("all,changed"),
            Arc::clone(&buffer),
        )));
        pm.run(&mut ctx, module).unwrap();
        let output = buffer.lock().unwrap().clone();
        assert!(
            output.contains("IR Dump After count-ops"),
            "output: {output}"
        );
        assert!(!output.contains("IR Dump After no-op"), "output: {output}");
    }

    /// The trace span, the metrics timer, and the PassTiming report all
    /// derive from one measurement (the unified-clock satellite): totals
    /// agree exactly.
    #[test]
    fn trace_metrics_and_timings_share_one_clock() {
        metrics::reset();
        trace::reset();
        trace::set_enabled(true);
        let mut ctx = Context::new();
        let module = ctx.create_module(Location::unknown());
        let mut pm = PassManager::new();
        pm.add(Box::new(CountOps));
        pm.add(Box::new(CountOps));
        pm.run(&mut ctx, module).unwrap();
        trace::set_enabled(false);
        trace::clear_enabled_override();

        let metric = metrics::snapshot().timer_stat("pass.count-ops").unwrap();
        let timing_total: u128 = pm.timings().iter().map(|t| t.duration.as_nanos()).sum();
        assert_eq!(metric.count, 2);
        assert_eq!(metric.total_ns, timing_total, "metrics vs timings");

        let traced: Vec<_> = trace::take()
            .events()
            .iter()
            .filter(|e| e.cat == "pass" && e.name == "count-ops")
            .map(|e| match e.kind {
                td_support::trace::EventKind::Span { dur_ns } => dur_ns,
                td_support::trace::EventKind::Instant => 0,
            })
            .collect();
        assert_eq!(traced.len(), 2);
        assert_eq!(
            traced.iter().sum::<u128>(),
            timing_total,
            "trace vs timings"
        );
    }

    #[test]
    fn registry_lists_names_sorted() {
        let mut registry = PassRegistry::new();
        registry.register("b-pass", || Box::new(CountOps));
        registry.register("a-pass", || Box::new(CountOps));
        assert_eq!(registry.names(), vec!["a-pass", "b-pass"]);
        assert!(registry.contains("a-pass"));
        assert!(!registry.contains("c-pass"));
    }
}
