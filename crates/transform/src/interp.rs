//! The transform interpreter (§3): executes a Transform script against a
//! payload program, maintaining the handle association table and enforcing
//! handle invalidation.
//!
//! The interpreter is fully observable: every transform op executes inside
//! a trace span, handle allocation/invalidation surface as instant events,
//! suppressed silenceable errors and condition-check outcomes become
//! optimization remarks, and [`Instrumentation`] hooks fire around each
//! transform (including IR snapshots via `TD_PRINT_IR_BEFORE/AFTER`). All
//! of it is off — and costs nothing beyond a branch — unless tracing,
//! remarks, or an instrumentation is active.

use crate::error::{TransformError, TransformResult};
use crate::registry::{LibraryResolver, NamedPatternRegistry, TransformOpRegistry};
use crate::state::TransformState;
use std::panic::{catch_unwind, AssertUnwindSafe};
use td_ir::{BlockId, Context, OpId, PassRegistry, ValueId, Watermark};
use td_support::diag::{self, Remark};
use td_support::journal::{self, RawId};
use td_support::trace::{self, Instrumentation, IrView, PrintIr};
use td_support::{fault, flight, metrics, profile, Diagnostic, Location};

/// Whether the interpreter wraps top-level steps in payload transactions
/// (undo-log watermark before, roll back on failure).
///
/// `transform.alternatives` is a transaction scope under both values: a
/// branch that fails must leave the payload as if it never ran, which is
/// the construct's meaning, not a robustness option.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TxnMode {
    /// Every top-level step is a transaction. The default: opening one is
    /// a watermark push, so transactional application is nearly free and
    /// a mid-step panic can never poison the payload.
    #[default]
    Always,
    /// No top-level transactions (a failing step leaves whatever the
    /// transform left, and a handler panic is not contained).
    Never,
}

impl TxnMode {
    /// Parses `always` / `never` (the td-serve tenant-spec and
    /// SUBMIT-field grammar).
    pub fn parse(text: &str) -> Result<TxnMode, String> {
        match text {
            "always" => Ok(TxnMode::Always),
            "never" => Ok(TxnMode::Never),
            other => Err(format!(
                "invalid txn_mode '{other}' (expected always|never)"
            )),
        }
    }

    /// Stable lowercase name (`always` / `never`).
    pub fn name(self) -> &'static str {
        match self {
            TxnMode::Always => "always",
            TxnMode::Never => "never",
        }
    }
}

/// Interpreter configuration.
#[derive(Clone, Copy, Debug)]
pub struct InterpConfig {
    /// Check, before every transform, that none of its operand handles maps
    /// to erased payload ops (catches invalidation bugs early, at a cost).
    pub expensive_checks: bool,
    /// Dynamically check declared post-conditions (§3.3): after a transform
    /// with a declared `post` op-set runs, scan the affected payload and
    /// report (as a definite error) any op it introduced that the
    /// declaration does not cover. Catches *wrong declarations*, which the
    /// static checker cannot.
    pub check_conditions: bool,
    /// Transactional application of top-level steps (see [`TxnMode`]).
    pub txn: TxnMode,
    /// Run the IR verifier on the payload after every top-level step; a
    /// verifier failure rolls the step back and aborts with a definite
    /// error. Defaults to the presence of `TD_VERIFY_EACH`.
    pub verify_after_each: bool,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig {
            expensive_checks: true,
            check_conditions: false,
            txn: TxnMode::Always,
            verify_after_each: env_verify_each(),
        }
    }
}

/// Cached truthiness of `TD_VERIFY_EACH` (`0` and empty mean off).
fn env_verify_each() -> bool {
    static CACHE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("TD_VERIFY_EACH")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// The interpreter's environment: every registry a transform might need.
///
/// Kept separate from the interpreter so handlers can recurse through
/// `&mut Interpreter` while the environment stays immutably borrowed.
pub struct InterpEnv<'a> {
    /// Transform op definitions.
    pub transforms: TransformOpRegistry,
    /// Pass registry backing `transform.apply_registered_pass`.
    pub passes: Option<&'a PassRegistry>,
    /// Named patterns backing `transform.apply_patterns`.
    pub patterns: Option<&'a NamedPatternRegistry>,
    /// Library resolver backing `transform.to_library`.
    pub library: Option<&'a dyn LibraryResolver>,
    /// Configuration.
    pub config: InterpConfig,
}

impl<'a> InterpEnv<'a> {
    /// Environment with standard transform ops and nothing else wired up.
    pub fn standard() -> InterpEnv<'a> {
        InterpEnv {
            transforms: TransformOpRegistry::with_standard_ops(),
            passes: None,
            patterns: None,
            library: None,
            config: InterpConfig::default(),
        }
    }
}

impl std::fmt::Debug for InterpEnv<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InterpEnv")
            .field("transforms", &self.transforms.names().len())
            .field("has_passes", &self.passes.is_some())
            .field("has_patterns", &self.patterns.is_some())
            .field("has_library", &self.library.is_some())
            .finish()
    }
}

/// Execution statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct InterpStats {
    /// Number of transform ops executed.
    pub transforms_executed: usize,
    /// Number of silenceable errors suppressed by enclosing constructs.
    pub suppressed_errors: usize,
    /// Number of top-level steps rolled back to their pre-step state.
    pub rolled_back: usize,
    /// Total undo-log entries top-level transactions held when they
    /// closed (committed or unwound). Entries a nested scope already
    /// rolled back — a failed step, a failed `alternatives` branch — are
    /// gone by then and not counted.
    pub undo_entries: usize,
}

impl InterpStats {
    /// Mirrors the final stats into the metrics registry (cross-checking
    /// the live counters), so `metrics::snapshot()` / `dump_json()`
    /// readers see interpreter statistics without reading this struct.
    pub fn publish_to_metrics(&self) {
        metrics::high_watermark(
            "interp.stats.transforms_executed",
            self.transforms_executed as u64,
        );
        metrics::high_watermark(
            "interp.stats.suppressed_errors",
            self.suppressed_errors as u64,
        );
        metrics::high_watermark("interp.stats.rolled_back", self.rolled_back as u64);
        metrics::high_watermark("interp.stats.undo_entries", self.undo_entries as u64);
    }
}

/// The transform interpreter.
///
/// # Examples
///
/// ```
/// use td_transform::{InterpEnv, Interpreter};
/// let mut ctx = td_ir::Context::new();
/// td_dialects::register_all_dialects(&mut ctx);
/// td_transform::register_transform_dialect(&mut ctx);
/// let payload = td_ir::parse_module(&mut ctx, r#"module {
///   %c = arith.constant 1 : index
/// }"#).map_err(|e| e.to_string())?;
/// let script = td_ir::parse_module(&mut ctx, r#"module {
///   transform.named_sequence @main(%root: !transform.any_op) {
///     %consts = "transform.match_op"(%root) {name = "arith.constant", select = "all"}
///         : (!transform.any_op) -> !transform.any_op
///     "transform.annotate"(%consts) {name = "seen"} : (!transform.any_op) -> ()
///   }
/// }"#).map_err(|e| e.to_string())?;
/// let entry = ctx.lookup_symbol(script, "main").expect("entry point");
/// let env = InterpEnv::standard();
/// Interpreter::new(&env).apply(&mut ctx, entry, payload).map_err(|e| e.to_string())?;
/// # Ok::<(), String>(())
/// ```
pub struct Interpreter<'e> {
    /// The environment (registries and configuration).
    pub env: &'e InterpEnv<'e>,
    /// Statistics of the current run.
    pub stats: InterpStats,
    /// Attached instrumentations (env-driven print-ir plus any explicit).
    instrumentations: Vec<Box<dyn Instrumentation>>,
    /// The payload root of the current apply, for IR snapshot hooks.
    payload_root: Option<OpId>,
    /// Whether any observability channel is active for this run.
    observing: bool,
}

impl std::fmt::Debug for Interpreter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interpreter")
            .field("env", &self.env)
            .field("stats", &self.stats)
            .field("instrumentations", &self.instrumentations.len())
            .finish()
    }
}

impl<'e> Interpreter<'e> {
    /// Creates an interpreter over `env`. If `TD_PRINT_IR_BEFORE` /
    /// `TD_PRINT_IR_AFTER` are set, the IR-snapshot instrumentation is
    /// attached automatically (filters also match transform-op names here).
    pub fn new(env: &'e InterpEnv<'e>) -> Self {
        let mut interp = Interpreter {
            env,
            stats: InterpStats::default(),
            instrumentations: Vec::new(),
            payload_root: None,
            observing: false,
        };
        if let Some(print_ir) = PrintIr::from_env() {
            interp.instrumentations.push(Box::new(print_ir));
        }
        interp
    }

    /// Attaches an instrumentation; hooks fire in attachment order.
    pub fn add_instrumentation(&mut self, instrumentation: Box<dyn Instrumentation>) -> &mut Self {
        self.instrumentations.push(instrumentation);
        self
    }

    /// Notes a suppressed silenceable error: counted in [`InterpStats`]
    /// and the metrics registry, surfaced as a missed-optimization remark
    /// (exactly once per suppression), and reported to instrumentations.
    /// Called by the enclosing constructs (`transform.sequence` with
    /// suppress mode, `transform.alternatives`) that swallow the error.
    pub fn suppress(&mut self, origin: &str, diag: &Diagnostic) {
        self.stats.suppressed_errors += 1;
        metrics::counter("interp.suppressed_errors", 1);
        if self.observing {
            trace::instant(
                "transform",
                "error.suppressed",
                &[
                    ("origin", origin.to_owned()),
                    ("message", diag.message().to_owned()),
                ],
            );
            diag::emit_remark(Remark::missed(
                origin,
                diag.location().clone(),
                format!("suppressed silenceable error: {}", diag.message()),
            ));
            for instr in &mut self.instrumentations {
                instr.error_suppressed(diag.message());
            }
        }
    }

    /// Forwards logged handle lifecycle events to the trace stream and the
    /// instrumentation hooks.
    fn drain_handle_events(&mut self, state: &mut TransformState) {
        if !self.observing {
            return;
        }
        for event in state.take_handle_events() {
            trace::instant("handle", event.name(), &event.args());
            for instr in &mut self.instrumentations {
                instr.handle_event(&event);
            }
        }
    }

    /// Calls the before/after-transform snapshot hooks with a lazy view of
    /// the payload root.
    fn notify_transform_hooks(&mut self, ctx: &Context, name: &str, before: bool) {
        if self.instrumentations.is_empty() {
            return;
        }
        let Some(root) = self.payload_root else {
            return;
        };
        if !ctx.is_live(root) {
            return;
        }
        let print = || td_ir::print_op(ctx, root);
        let fp = || td_ir::fingerprint_op(ctx, root);
        let view = IrView::new(&print, &fp);
        for instr in &mut self.instrumentations {
            if before {
                instr.before_transform(name, &view);
            } else {
                instr.after_transform(name, &view);
            }
        }
    }

    /// Applies the transform script rooted at `entry` (a
    /// `transform.named_sequence` or `transform.sequence` whose entry block
    /// argument receives the payload root) to `payload`.
    ///
    /// # Errors
    /// Propagates definite errors and unsuppressed silenceable errors.
    pub fn apply(&mut self, ctx: &mut Context, entry: OpId, payload: OpId) -> TransformResult {
        let mut state = TransformState::new();
        self.apply_with_state(ctx, &mut state, entry, payload)
    }

    /// Re-entrant variant of [`Interpreter::apply`] for concurrent drivers
    /// (`td-sched` workers): behaves identically except that it does *not*
    /// flush the `TD_TRACE` Chrome-trace file after the run. The
    /// convenience flush in [`Interpreter::apply_with_state`] is a
    /// process-global side effect — concurrent workers would each
    /// overwrite the file with only their own thread-local events — so an
    /// engine that runs many applies merges worker traces itself
    /// (`td_support::trace::adopt`) and writes the combined file once.
    ///
    /// # Errors
    /// Propagates definite errors and unsuppressed silenceable errors.
    pub fn apply_reentrant(
        &mut self,
        ctx: &mut Context,
        entry: OpId,
        payload: OpId,
    ) -> TransformResult {
        let mut state = TransformState::new();
        self.apply_inner(ctx, &mut state, entry, payload)
    }

    /// Like [`Interpreter::apply`] but against caller-provided state
    /// (useful for inspecting mappings afterwards).
    pub fn apply_with_state(
        &mut self,
        ctx: &mut Context,
        state: &mut TransformState,
        entry: OpId,
        payload: OpId,
    ) -> TransformResult {
        let result = self.apply_inner(ctx, state, entry, payload);
        // Flush after the apply span has closed, so a bare `TD_TRACE=...`
        // on any schedule-running binary produces the trace file without
        // call-site plumbing. Same deal for `TD_JOURNAL=...`.
        if let Err(e) = trace::write_env_trace() {
            eprintln!("warning: failed to write TD_TRACE file: {e}");
        }
        if let Err(e) = journal::write_env_journal() {
            eprintln!("warning: failed to write TD_JOURNAL file: {e}");
        }
        if let Err(e) = profile::write_env_profile() {
            eprintln!("warning: failed to write TD_PROFILE file: {e}");
        }
        result
    }

    /// Applies only the first `limit` top-level ops of the entry block —
    /// the probe primitive of the failure bisector (see
    /// [`crate::bisect`]): re-running ever shorter prefixes against fresh
    /// payloads locates the shortest failing schedule.
    ///
    /// # Errors
    /// Propagates definite errors and unsuppressed silenceable errors,
    /// exactly like [`Interpreter::apply_reentrant`] (no env flushes).
    pub fn apply_prefix(
        &mut self,
        ctx: &mut Context,
        entry: OpId,
        payload: OpId,
        limit: usize,
    ) -> TransformResult {
        let mut state = TransformState::new();
        self.apply_bounded(ctx, &mut state, entry, payload, Some(limit))
    }

    fn apply_inner(
        &mut self,
        ctx: &mut Context,
        state: &mut TransformState,
        entry: OpId,
        payload: OpId,
    ) -> TransformResult {
        self.apply_bounded(ctx, state, entry, payload, None)
    }

    fn apply_bounded(
        &mut self,
        ctx: &mut Context,
        state: &mut TransformState,
        entry: OpId,
        payload: OpId,
        limit: Option<usize>,
    ) -> TransformResult {
        let _apply_span = metrics::span("interp.apply");
        let _apply_trace = trace::span("interp", "apply");
        metrics::counter("interp.applies", 1);
        // One flag decides whether any observability work happens per op.
        self.observing = !self.instrumentations.is_empty()
            || trace::enabled()
            || diag::remark_filter().is_active();
        state.set_observe(self.observing);
        self.payload_root = Some(payload);
        let name = ctx.op(entry).name.as_str();
        if name != "transform.named_sequence" && name != "transform.sequence" {
            return Err(TransformError::definite(
                ctx.op(entry).location.clone(),
                format!("expected a transform entry point, found '{name}'"),
            ));
        }
        let region = ctx.op(entry).regions().first().copied().ok_or_else(|| {
            TransformError::definite(ctx.op(entry).location.clone(), "entry point has no region")
        })?;
        let block = ctx
            .region(region)
            .blocks()
            .first()
            .copied()
            .ok_or_else(|| {
                TransformError::definite(ctx.op(entry).location.clone(), "entry point has no block")
            })?;
        if let Some(&arg) = ctx.block(block).args().first() {
            state.set_ops(arg, vec![payload]);
        }
        self.drain_handle_events(state);
        // Top-level steps are the transaction boundary: each one runs
        // inside its own watermark when transactions are on.
        let transactional = self.env.config.txn == TxnMode::Always;
        let ops = ctx.block_ops(block).collect::<Vec<_>>();
        let take = limit.unwrap_or(ops.len());
        let mut result = Ok(());
        for op in ops.into_iter().take(take) {
            let step_name = ctx.op(op).name.as_str().to_owned();
            flight::record("step.begin", &[("name", step_name.clone())]);
            let started = std::time::Instant::now();
            let step = if transactional {
                self.execute_transactional(ctx, state, op)
            } else {
                self.execute(ctx, state, op)
            };
            let step_ns = started.elapsed().as_nanos();
            metrics::observe("interp.step", step_ns);
            match step {
                Ok(()) => flight::record(
                    "step.end",
                    &[("name", step_name), ("dur_ns", step_ns.to_string())],
                ),
                Err(e) => {
                    // The failing step's full attribution — name, operand
                    // handles, post-failure payload fingerprint — goes into
                    // the ring, so a flight dump replays what died and on
                    // what. Cost is fine here: this path ends the apply.
                    let handles: Vec<String> = ctx
                        .op(op)
                        .operands()
                        .iter()
                        .map(|v| format!("{v:?}"))
                        .collect();
                    let fingerprint = self
                        .payload_root
                        .filter(|&root| ctx.is_live(root))
                        .map_or(0, |root| td_ir::fingerprint_op(ctx, root));
                    let attribution = [
                        ("name", step_name),
                        ("handles", handles.join(",")),
                        ("fingerprint", fingerprint.to_string()),
                        ("error", e.diagnostic().message().to_owned()),
                        (
                            "class",
                            if e.is_silenceable() {
                                "silenceable".to_owned()
                            } else {
                                "definite".to_owned()
                            },
                        ),
                    ];
                    flight::record("step.failed", &attribution);
                    // Dump only for definite failures (panics are contained
                    // into definite errors by the transaction layer):
                    // silenceable errors are routinely injected in chaos
                    // runs and retried by td-sched.
                    if !e.is_silenceable() {
                        flight::dump("definite-failure", &attribution);
                    }
                    result = Err(e);
                    break;
                }
            }
        }
        self.drain_handle_events(state);
        self.stats.publish_to_metrics();
        if fault::active() {
            fault::publish_metrics();
        }
        result
    }

    /// Executes one top-level transform step as a transaction: an undo-log
    /// watermark is opened first, and any failure — silenceable, definite,
    /// verifier (with [`InterpConfig::verify_after_each`]), or a contained
    /// panic — rolls the payload back to it before the error propagates.
    /// The error still propagates: per the paper's semantics the
    /// *enclosing* construct decides whether to suppress, and the
    /// transaction's job is only to guarantee the payload it inspects
    /// afterwards is the valid pre-step one.
    ///
    /// Handles are *not* rolled back: handles minted by the failed step
    /// die with the propagating error, which terminates the apply. The
    /// rollback resurrects erased payload ops under their *original* ids,
    /// so handles from earlier steps stay valid.
    ///
    /// # Errors
    /// The step's own failure; a panicking handler becomes a definite
    /// error. A rollback that fails its validation is also definite.
    pub fn execute_transactional(
        &mut self,
        ctx: &mut Context,
        state: &mut TransformState,
        op: OpId,
    ) -> TransformResult {
        let Some(root) = self.payload_root.filter(|&r| ctx.is_live(r)) else {
            return self.execute(ctx, state, op);
        };
        let name = ctx.op(op).name;
        let location = ctx.op(op).location.clone();
        let watermark = ctx.begin_watermark(Some(root));
        metrics::counter("interp.checkpoints", 1);
        let outcome = catch_unwind(AssertUnwindSafe(|| self.execute(ctx, state, op)));
        match outcome {
            Ok(Ok(())) => {
                if self.env.config.verify_after_each {
                    if let Err(diags) = td_ir::verify(ctx, root) {
                        let detail = diags
                            .first()
                            .map(|d| d.message().to_owned())
                            .unwrap_or_default();
                        let why = format!("payload verifier failed after '{name}': {detail}");
                        self.rollback(ctx, watermark, &location, &why)?;
                        return Err(TransformError::definite(location, why));
                    }
                }
                self.stats.undo_entries += ctx.undo_entries_since(&watermark);
                ctx.commit_watermark(watermark);
                Ok(())
            }
            Ok(Err(err)) => {
                let why = format!(
                    "rolled back '{name}' after {} error: {}",
                    if err.is_silenceable() {
                        "silenceable"
                    } else {
                        "definite"
                    },
                    err.diagnostic().message()
                );
                self.rollback(ctx, watermark, &location, &why)?;
                Err(err)
            }
            Err(panic_payload) => {
                // The handler never reached its end_step: close its journal
                // frame(s) before the rollback writes its own record.
                let text = fault::panic_text(panic_payload.as_ref());
                journal::unwind_open_steps(
                    journal::StepOutcome::Failed,
                    &format!("panicked: {text}"),
                );
                let why = format!("rolled back '{name}' after panic: {text}");
                self.rollback(ctx, watermark, &location, &why)?;
                Err(TransformError::definite(
                    location,
                    format!("transform '{name}' panicked: {text} (payload rolled back)"),
                ))
            }
        }
    }

    /// Rolls a top-level transaction back and records it in stats,
    /// metrics, the journal (a `txn` step with the
    /// [`journal::StepOutcome::RolledBack`] outcome), the trace stream,
    /// and — when observing — an analysis remark.
    fn rollback(
        &mut self,
        ctx: &mut Context,
        watermark: Watermark,
        location: &Location,
        why: &str,
    ) -> TransformResult {
        let dirty_edits = ctx.edit_count();
        let undo_entries = ctx.undo_entries_since(&watermark);
        let undo_depth = ctx.undo_depth();
        let started = std::time::Instant::now();
        ctx.rollback_watermark(watermark)
            .map_err(|e| rollback_failed(location, e))?;
        self.stats.rolled_back += 1;
        self.stats.undo_entries += undo_entries;
        metrics::counter("interp.rolled_back", 1);
        metrics::counter("interp.txn.undo_entries", undo_entries as u64);
        // Flight bundles show how much was unwound, not just that a
        // rollback happened.
        flight::record(
            "rollback",
            &[
                ("reason", why.to_owned()),
                ("undo_entries", undo_entries.to_string()),
                ("undo_depth", undo_depth.to_string()),
            ],
        );
        let token = journal::begin_step("txn", "interp.rollback", Some(location), [], dirty_edits);
        self.close_journal_step(
            ctx,
            token,
            started.elapsed().as_nanos(),
            journal::StepOutcome::RolledBack,
            &format!("{why} [undo_entries={undo_entries} undo_depth={undo_depth}]"),
        );
        if self.observing {
            trace::instant(
                "transform",
                "txn.rolled_back",
                &[("reason", why.to_owned())],
            );
            diag::emit_remark(Remark::analysis(
                "interp.txn",
                location.clone(),
                format!("{why}; payload restored to pre-step checkpoint"),
            ));
        }
        Ok(())
    }

    /// Rolls back a scope nested inside a step (a failed step below the
    /// top level, a failed `transform.alternatives` branch), counted as
    /// `interp.step_rollbacks` — [`InterpStats::rolled_back`] counts
    /// top-level transactions only. A failed validation is definite.
    pub(crate) fn rollback_nested(
        &mut self,
        ctx: &mut Context,
        watermark: Watermark,
        location: &Location,
    ) -> TransformResult {
        metrics::counter("interp.step_rollbacks", 1);
        ctx.rollback_watermark(watermark)
            .map_err(|e| rollback_failed(location, e))
    }

    /// Executes every transform op in `block`, in order.
    ///
    /// # Errors
    /// Stops at (and returns) the first error.
    pub fn run_block(
        &mut self,
        ctx: &mut Context,
        state: &mut TransformState,
        block: BlockId,
    ) -> TransformResult {
        let ops = ctx.block_ops(block).collect::<Vec<_>>();
        for op in ops {
            self.execute(ctx, state, op)?;
        }
        Ok(())
    }

    /// Executes a single transform op.
    ///
    /// # Errors
    /// Definite error for unregistered transform ops; otherwise whatever
    /// the handler reports.
    pub fn execute(
        &mut self,
        ctx: &mut Context,
        state: &mut TransformState,
        op: OpId,
    ) -> TransformResult {
        let name = ctx.op(op).name;
        if name.as_str() == "transform.yield" {
            return Ok(());
        }
        let Some(def) = self.env.transforms.def(name) else {
            return Err(TransformError::definite(
                ctx.op(op).location.clone(),
                format!("unregistered transform op '{name}'"),
            ));
        };

        // Expensive checks: every op-handle operand must map to live ops.
        if self.env.config.expensive_checks {
            let location = ctx.op(op).location.clone();
            for &operand in ctx.op(op).operands() {
                if let Ok(ops) = state.ops(operand, &location) {
                    if let Some(&dead) = ops.iter().find(|&&o| !ctx.is_live(o)) {
                        return Err(TransformError::definite(
                            location,
                            format!(
                                "operand handle maps to erased payload op {dead:?} \
                                 (missing invalidation?)"
                            ),
                        ));
                    }
                }
            }
        }

        // Snapshot the affected payload scope for dynamic condition checks.
        let condition_scope: Option<(OpId, Vec<String>)> =
            if self.env.config.check_conditions && !def.post.is_empty() {
                self.payload_scope(ctx, state, op)
                    .map(|scope| (scope, crate::conditions::scan_payload_ops(ctx, scope, None)))
            } else {
                None
            };

        // Capture invalidation sets for consumed operands before mutation.
        let mut to_invalidate: Vec<(ValueId, String)> = Vec::new();
        for &index in &def.consumed_operands {
            let Some(&operand) = ctx.op(op).operands().get(index) else {
                continue;
            };
            // Reading an already-invalidated handle is an error (detected
            // dynamically here; the static analysis catches it offline).
            let location = ctx.op(op).location.clone();
            let _ = state.ops(operand, &location)?;
            for handle in state.aliasing_handles(ctx, operand) {
                to_invalidate.push((handle, format!("consumed by '{}' at {location}", name)));
            }
        }

        let location = ctx.op(op).location.clone();
        self.notify_transform_hooks(ctx, name.as_str(), true);

        // Provenance step frame: payload ops created/erased while the
        // handler runs attribute to this transform in the journal.
        let journal_step = journal::begin_step(
            "transform",
            name,
            Some(&location),
            ctx.op(op).operands().iter().map(|&v| RawId::of(v)),
            ctx.edit_count(),
        );

        // Nested transaction scope: inside an open transaction (a
        // top-level step, an `alternatives` branch), every step — however
        // deeply nested — gets its own watermark, so a failing step's
        // partial mutations are unwound before the error reaches the
        // enclosing construct. Outside one (`TxnMode::Never`) steps run
        // untracked. A panicking handler abandons the watermark
        // mid-unwind; the enclosing transaction's rollback adopts and
        // unwinds it.
        let step_txn = (ctx.undo_depth() > 0).then(|| ctx.begin_watermark(None));

        // The trace span is the single clock: its measured duration also
        // feeds the per-transform metrics timer, so the two never disagree.
        let mut span = trace::span("transform", name.as_str().to_owned());
        let result = match self.injected_fault(name.as_str(), &location) {
            Some(err) => Err(err),
            None => (def.handler)(self, ctx, state, op),
        };
        if let Err(err) = &result {
            span.arg("failed", err.diagnostic().message().to_owned());
        }
        let duration = span.end();
        metrics::timer_ns(&format!("transform.{name}"), duration.as_nanos());
        if let Err(err) = result {
            if let Some(watermark) = step_txn {
                self.rollback_nested(ctx, watermark, &location)?;
            }
            let outcome = if err.is_silenceable() {
                journal::StepOutcome::FailedSilenceable
            } else {
                journal::StepOutcome::Failed
            };
            self.close_journal_step(
                ctx,
                journal_step,
                duration.as_nanos(),
                outcome,
                err.diagnostic().message(),
            );
            if self.observing {
                for instr in &mut self.instrumentations {
                    instr.transform_failed(
                        name.as_str(),
                        err.diagnostic().message(),
                        err.is_silenceable(),
                    );
                }
            }
            return Err(err);
        }
        metrics::counter("interp.transforms_executed", 1);
        metrics::high_watermark("interp.live_handles_peak", state.num_mappings() as u64);
        self.stats.transforms_executed += 1;

        for (handle, reason) in to_invalidate {
            state.invalidate(handle, reason);
        }
        self.drain_handle_events(state);

        // Dynamic post-condition verification (§3.3).
        if let Some((scope, before)) = condition_scope {
            if ctx.is_live(scope) {
                let after = crate::conditions::scan_payload_ops(ctx, scope, None);
                let post = crate::conditions::OpSet::of(def.post.iter());
                let check =
                    crate::conditions::verify_transition(name.as_str(), &before, &after, &post);
                if self.observing {
                    let passed = check.is_ok();
                    let detail = match &check {
                        Ok(()) => "post-condition check passed".to_owned(),
                        Err(diag) => format!("post-condition check failed: {}", diag.message()),
                    };
                    for instr in &mut self.instrumentations {
                        instr.condition_check(name.as_str(), passed, &detail);
                    }
                    diag::emit_remark(Remark::analysis(name.as_str(), location.clone(), detail));
                }
                if let Err(diag) = check {
                    if let Some(watermark) = step_txn {
                        self.rollback_nested(ctx, watermark, &location)?;
                    }
                    self.close_journal_step(
                        ctx,
                        journal_step,
                        duration.as_nanos(),
                        journal::StepOutcome::Failed,
                        diag.message(),
                    );
                    return Err(TransformError::Definite(diag));
                }
            }
        }

        if let Some(watermark) = step_txn {
            ctx.commit_watermark(watermark);
        }
        self.close_journal_step(
            ctx,
            journal_step,
            duration.as_nanos(),
            journal::StepOutcome::Ok,
            "",
        );
        if self.observing {
            diag::emit_remark(Remark::applied(name.as_str(), location, "applied"));
        }
        self.notify_transform_hooks(ctx, name.as_str(), false);
        Ok(())
    }

    /// Evaluates the `interp.step` faultpoint for the transform about to
    /// run. Sleep faults are served in place (inside the step's trace
    /// span); panic faults unwind from here and are contained by
    /// [`Interpreter::execute_transactional`]; error faults are returned
    /// and flow through the exact failure path a real handler error takes.
    fn injected_fault(&self, name: &str, location: &Location) -> Option<TransformError> {
        if !fault::active() {
            return None;
        }
        match fault::check(fault::POINT_INTERP_STEP, name)? {
            fault::Fault::Sleep(duration) => {
                std::thread::sleep(duration);
                None
            }
            fault::Fault::Silenceable => Some(TransformError::silenceable(
                location.clone(),
                format!("injected silenceable failure at '{name}'"),
            )),
            fault::Fault::Definite => Some(TransformError::definite(
                location.clone(),
                format!("injected definite failure at '{name}'"),
            )),
            fault::Fault::Panic => panic!("injected panic at '{name}'"),
        }
    }

    /// Closes a journal step frame at the payload's current edit count,
    /// naming the payload root for a `Modified` record.
    fn close_journal_step(
        &self,
        ctx: &Context,
        token: Option<journal::StepToken>,
        duration_ns: u128,
        outcome: journal::StepOutcome,
        message: &str,
    ) {
        let root = self
            .payload_root
            .filter(|&root| ctx.is_live(root))
            .map(|root| (RawId::of(root), ctx.op(root).name));
        let edits = ctx.edit_count();
        journal::end_step(token, edits, duration_ns, outcome, message, root);
    }

    /// The payload scope a transform affects, for dynamic condition
    /// checks: the common enclosing op of the first operand's payload (its
    /// parent, so newly created siblings are visible to the scan).
    fn payload_scope(&self, ctx: &Context, state: &TransformState, op: OpId) -> Option<OpId> {
        let &operand = ctx.op(op).operands().first()?;
        let location = ctx.op(op).location.clone();
        let targets = state.ops(operand, &location).ok()?;
        let &first = targets.first()?;
        ctx.parent_op(first).or(Some(first))
    }
}

fn rollback_failed(location: &Location, why: String) -> TransformError {
    TransformError::definite(location.clone(), format!("rollback failed: {why}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_support::diag::RemarkKind;

    const LOOP_PAYLOAD: &str = r#"module {
  func.func @f(%m: memref<256xf32>) {
    %lo = arith.constant 0 : index
    %hi = arith.constant 256 : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {
      %v = "memref.load"(%m, %i) : (memref<256xf32>, index) -> f32
      "test.use"(%v) : (f32) -> ()
    }
    func.return
  }
}"#;

    fn setup(payload_src: &str, script_src: &str) -> (Context, OpId, OpId) {
        let mut ctx = Context::new();
        td_dialects::register_all_dialects(&mut ctx);
        crate::register_transform_dialect(&mut ctx);
        let payload = td_ir::parse_module(&mut ctx, payload_src).unwrap();
        let script = td_ir::parse_module(&mut ctx, script_src).unwrap();
        let entry = ctx.lookup_symbol(script, "main").unwrap();
        (ctx, payload, entry)
    }

    /// The acceptance scenario: with tracing on, a schedule run produces
    /// transform-op spans nested under the interpreter's apply span,
    /// handle-invalidation instant events, and applied remarks — and the
    /// Chrome export of all of it is valid JSON.
    #[test]
    fn tracing_captures_nested_spans_and_handle_events() {
        trace::reset();
        trace::set_enabled(true);
        diag::reset_remarks();
        diag::set_remark_filter(diag::RemarkFilter::all());
        let script = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %tiles, %points = "transform.loop.tile"(%loop) {tile_sizes = [32]} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
  }
}"#;
        let (mut ctx, payload, entry) = setup(LOOP_PAYLOAD, script);
        let env = InterpEnv::standard();
        let mut interp = Interpreter::new(&env);
        interp.apply(&mut ctx, entry, payload).unwrap();
        let recorded = trace::take();
        let remarks = diag::take_remarks();
        trace::clear_enabled_override();
        diag::clear_remark_filter_override();

        let apply = recorded
            .events()
            .iter()
            .find(|e| e.cat == "interp" && e.name == "apply")
            .expect("interp apply span");
        let tile = recorded
            .events()
            .iter()
            .find(|e| e.cat == "transform" && e.name == "transform.loop.tile")
            .expect("transform span");
        assert!(
            tile.depth > apply.depth,
            "transform span nests under the apply span"
        );
        assert!(
            recorded
                .events()
                .iter()
                .any(|e| e.cat == "handle" && e.name == "handle.invalidated"),
            "tile consumes %loop, so an invalidation instant must appear:\n{}",
            recorded.to_tree_string()
        );
        let json = recorded.to_chrome_json();
        trace::validate_json(&json).unwrap();
        assert!(json.contains("\"handle.invalidated\""));
        assert!(remarks
            .iter()
            .any(|r| r.kind == RemarkKind::Applied && r.origin == "transform.loop.tile"));
    }

    /// A silenceable error swallowed by a suppressing sequence surfaces as
    /// exactly one missed-optimization remark.
    #[test]
    fn suppressed_silenceable_error_surfaces_one_missed_remark() {
        diag::reset_remarks();
        diag::set_remark_filter(diag::RemarkFilter::parse("missed"));
        let script = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    "transform.sequence"(%root) ({
    ^bb0(%arg: !transform.any_op):
      %missing = "transform.match_op"(%arg) {name = "nonexistent.op", select = "first"} : (!transform.any_op) -> !transform.any_op
      "transform.yield"() : () -> ()
    }) {failure_propagation_mode = "suppress"} : (!transform.any_op) -> ()
  }
}"#;
        let (mut ctx, payload, entry) = setup(LOOP_PAYLOAD, script);
        let env = InterpEnv::standard();
        let mut interp = Interpreter::new(&env);
        interp.apply(&mut ctx, entry, payload).unwrap();
        let remarks = diag::take_remarks();
        diag::clear_remark_filter_override();

        assert_eq!(interp.stats.suppressed_errors, 1);
        let missed: Vec<_> = remarks
            .iter()
            .filter(|r| r.kind == RemarkKind::Missed)
            .collect();
        assert_eq!(missed.len(), 1, "one suppression, one remark: {remarks:?}");
        assert!(missed[0].message.contains("suppressed silenceable error"));
        assert_eq!(missed[0].origin, "transform.sequence");
    }

    /// Three-step flat schedule over [`LOOP_PAYLOAD`]: match, annotate,
    /// tile. Chaos tests inject at the tile step and expect the committed
    /// annotate to survive while the tile rolls back.
    const TILE_SCRIPT: &str = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%loop) {name = "tagged"} : (!transform.any_op) -> ()
    %tiles, %points = "transform.loop.tile"(%loop) {tile_sizes = [16]} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
  }
}"#;

    fn loop_count(ctx: &Context, payload: OpId) -> usize {
        ctx.walk_nested(payload)
            .into_iter()
            .filter(|&o| ctx.op(o).name.as_str() == "scf.for")
            .count()
    }

    #[test]
    fn injected_silenceable_failure_rolls_back_the_step() {
        let (mut ctx, payload, entry) = setup(LOOP_PAYLOAD, TILE_SCRIPT);
        fault::set_thread_plan(Some(
            fault::FaultPlan::parse("silenceable@transform=loop.tile").unwrap(),
        ));
        fault::set_lane(0);
        let env = InterpEnv::standard();
        let mut interp = Interpreter::new(&env);
        let err = interp
            .apply(&mut ctx, entry, payload)
            .expect_err("the injected fault fires");
        fault::set_thread_plan(None);
        assert!(err.is_silenceable());
        assert!(err.diagnostic().message().contains("injected"));
        assert_eq!(interp.stats.rolled_back, 1);
        td_ir::verify(&ctx, payload).expect("payload is verifier-clean after rollback");
        let printed = td_ir::print_op(&ctx, payload);
        assert!(
            printed.contains("tagged"),
            "committed steps stay:\n{printed}"
        );
        assert_eq!(
            loop_count(&ctx, payload),
            1,
            "the tile step rolled back — still exactly one loop:\n{printed}"
        );
    }

    #[test]
    fn injected_panic_is_contained_and_rolled_back() {
        let (mut ctx, payload, entry) = setup(LOOP_PAYLOAD, TILE_SCRIPT);
        fault::set_thread_plan(Some(
            fault::FaultPlan::parse("panic@transform=loop.tile").unwrap(),
        ));
        fault::set_lane(0);
        let env = InterpEnv::standard();
        let mut interp = Interpreter::new(&env);
        let err = interp
            .apply(&mut ctx, entry, payload)
            .expect_err("the injected panic is contained, not propagated");
        fault::set_thread_plan(None);
        assert!(
            !err.is_silenceable(),
            "a panic surfaces as a definite error"
        );
        let message = err.diagnostic().message().to_owned();
        assert!(message.contains("panicked"), "{message}");
        assert!(message.contains("payload rolled back"), "{message}");
        assert_eq!(interp.stats.rolled_back, 1);
        td_ir::verify(&ctx, payload).expect("payload is verifier-clean after panic rollback");
        assert_eq!(loop_count(&ctx, payload), 1);
    }

    #[test]
    fn alloc_pressure_mid_rewrite_is_contained_and_rolled_back() {
        let (mut ctx, payload, entry) = setup(LOOP_PAYLOAD, TILE_SCRIPT);
        // Every payload-op creation panics: the tile handler dies halfway
        // through its rewrite, the worst case for payload validity.
        fault::set_thread_plan(Some(fault::FaultPlan::parse("alloc_pressure@p=1").unwrap()));
        fault::set_lane(0);
        let env = InterpEnv::standard();
        let mut interp = Interpreter::new(&env);
        let err = interp
            .apply(&mut ctx, entry, payload)
            .expect_err("allocation pressure kills the rewrite");
        fault::set_thread_plan(None);
        assert!(err.diagnostic().message().contains("ir.create_op"));
        assert_eq!(interp.stats.rolled_back, 1);
        td_ir::verify(&ctx, payload)
            .expect("a rewrite killed mid-flight must not leave invalid IR");
        assert_eq!(loop_count(&ctx, payload), 1);
    }

    #[test]
    fn txn_never_opts_out_of_rollback() {
        let (mut ctx, payload, entry) = setup(LOOP_PAYLOAD, TILE_SCRIPT);
        fault::set_thread_plan(Some(
            fault::FaultPlan::parse("silenceable@transform=loop.tile").unwrap(),
        ));
        fault::set_lane(0);
        let mut env = InterpEnv::standard();
        env.config.txn = TxnMode::Never;
        let mut interp = Interpreter::new(&env);
        let err = interp.apply(&mut ctx, entry, payload);
        fault::set_thread_plan(None);
        assert!(err.is_err());
        assert_eq!(interp.stats.rolled_back, 0, "Never means no transactions");
    }

    #[test]
    fn verify_after_each_rolls_back_a_corrupting_transform() {
        let script = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    "test.corrupt"(%root) : (!transform.any_op) -> ()
  }
}"#;
        let (mut ctx, payload, entry) = setup(LOOP_PAYLOAD, script);
        let mut env = InterpEnv::standard();
        env.config.verify_after_each = true;
        // A transform that silently corrupts the payload (erases the
        // function terminator) and reports success anyway.
        env.transforms
            .register(crate::registry::TransformOpDef::new(
                "test.corrupt",
                "erases the function terminator",
                |_, ctx, state, op| {
                    let operand = ctx.op(op).operands()[0];
                    let location = ctx.op(op).location.clone();
                    let roots = state.ops(operand, &location)?.to_vec();
                    let victim = ctx
                        .walk_nested(roots[0])
                        .into_iter()
                        .find(|&o| ctx.op(o).name.as_str() == "func.return")
                        .expect("payload has a return");
                    ctx.erase_op(victim);
                    Ok(())
                },
            ));
        let mut interp = Interpreter::new(&env);
        let err = interp
            .apply(&mut ctx, entry, payload)
            .expect_err("the verifier catches the corruption");
        assert!(
            err.diagnostic().message().contains("verifier failed"),
            "{}",
            err.diagnostic().message()
        );
        assert_eq!(interp.stats.rolled_back, 1);
        td_ir::verify(&ctx, payload).expect("rollback restored the valid payload");
        let printed = td_ir::print_op(&ctx, payload);
        assert!(printed.contains("func.return"), "{printed}");
    }

    /// Per-transform timing, execution counters, and the live-handle
    /// high-watermark all land in the metrics registry, and the JSON dump
    /// carries them.
    #[test]
    fn interpreter_emits_metrics_json() {
        metrics::reset();
        let mut ctx = Context::new();
        td_dialects::register_all_dialects(&mut ctx);
        crate::register_transform_dialect(&mut ctx);
        let payload = td_ir::parse_module(
            &mut ctx,
            r#"module {
  %a = arith.constant 1 : index
  %b = arith.constant 2 : index
}"#,
        )
        .unwrap();
        let script = td_ir::parse_module(
            &mut ctx,
            r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %consts = "transform.match_op"(%root) {name = "arith.constant", select = "all"}
        : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%consts) {name = "seen"} : (!transform.any_op) -> ()
    "transform.annotate"(%consts) {name = "seen_again"} : (!transform.any_op) -> ()
  }
}"#,
        )
        .unwrap();
        let entry = ctx.lookup_symbol(script, "main").unwrap();
        let env = InterpEnv::standard();
        let mut interp = Interpreter::new(&env);
        let mut state = TransformState::new();
        interp
            .apply_with_state(&mut ctx, &mut state, entry, payload)
            .unwrap();

        let snapshot = metrics::snapshot();
        assert_eq!(snapshot.counter_value("interp.applies"), Some(1));
        assert_eq!(
            snapshot.counter_value("interp.transforms_executed"),
            Some(interp.stats.transforms_executed as u64)
        );
        // %root plus %consts were live at once.
        assert!(snapshot.counter_value("interp.live_handles_peak") >= Some(2));
        let annotate = snapshot
            .timer_stat("transform.transform.annotate")
            .expect("per-transform timer recorded");
        assert_eq!(annotate.count, 2);
        assert!(
            snapshot.timer_stat("interp.apply").is_some(),
            "span recorded on drop"
        );
        let json = snapshot.to_json();
        assert!(
            json.contains("\"transform.transform.match_op\""),
            "dump: {json}"
        );
        assert!(json.contains("\"interp.applies\":1"), "dump: {json}");
    }
}
