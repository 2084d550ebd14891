//! The transform provenance journal: a structured, append-only record of
//! *which transform (or pass) produced which payload change*.
//!
//! The trace stream (see [`crate::trace`]) can say *that* a schedule ran;
//! the journal closes the attribution gap the paper's debugging story
//! (§6) asks for: every payload op created, replaced, erased, or modified
//! is stamped with the responsible transform op — its name, location, and
//! the handle(s) involved — plus before/after payload fingerprints. On top
//! of the raw record the journal answers attribution queries ("which
//! transform erased op X?"), ranks transforms for batch reports, and
//! carries diagnostic artifacts such as the minimized repro schedules the
//! failure bisector produces.
//!
//! Like the trace and metrics stores, the collector is thread-local and
//! env-driven: setting `TD_JOURNAL=journal.json` enables recording, and
//! drivers flush the JSON report with [`write_env_journal`]. When the
//! journal is off (the default), every hook call is a single thread-local
//! boolean read.
//!
//! Structure of a recording:
//!
//! * a [`StepRecord`] per executed transform op / pass, with location,
//!   operand handles, before/after fingerprint, duration, and outcome;
//! * a [`ChangeRecord`] per payload-op change, attributed to the step that
//!   was executing when the change happened (steps nest: a pass run by
//!   `transform.apply_registered_pass` attributes the changes it makes);
//! * optional [`Artifact`]s (e.g. a minimized failing schedule).
//!
//! ```
//! use td_support::journal::{self, ChangeKind};
//! journal::reset();
//! journal::set_enabled(true);
//! let step = journal::begin_step("transform", "transform.loop.tile", "script.mlir:3:5",
//!                                vec!["#7v0".into()], 101);
//! journal::record_change(ChangeKind::Erased, "#3v0", "scf.for", "");
//! journal::end_step(step, 202, 1_000, journal::StepOutcome::Ok, "", "#0v0", "builtin.module");
//! let journal = journal::take();
//! journal::clear_enabled_override();
//! assert_eq!(journal.who_erased("#3v0").unwrap().name, "transform.loop.tile");
//! ```

use crate::metrics::json_string;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// What happened to a payload op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChangeKind {
    /// The op was created.
    Created,
    /// The op was erased without replacement.
    Erased,
    /// The op was replaced (its uses were rewired, then it was erased).
    Replaced,
    /// The step changed the payload without a structural op event
    /// (attribute edits, operand rewiring): detected by fingerprint.
    Modified,
}

impl ChangeKind {
    /// Lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ChangeKind::Created => "created",
            ChangeKind::Erased => "erased",
            ChangeKind::Replaced => "replaced",
            ChangeKind::Modified => "modified",
        }
    }
}

/// One payload-op change, attributed to the step executing when it
/// happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChangeRecord {
    /// Global sequence number (total order across the journal).
    pub seq: u64,
    /// Index of the responsible [`StepRecord`].
    pub step: usize,
    /// What happened.
    pub kind: ChangeKind,
    /// Printed payload-op id (e.g. `#12v0`) — stable as a map key even
    /// after erasure, like the generational arena ids it comes from.
    pub op: String,
    /// Payload op name (e.g. `scf.for`).
    pub op_name: String,
    /// Extra context (replacement arity, pattern name, ...).
    pub detail: String,
}

/// How a step ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// Still executing (only visible in mid-run snapshots).
    Open,
    /// Completed successfully.
    Ok,
    /// Failed with a definite error (verifier, precondition, hard error).
    Failed,
    /// Failed with a silenceable error (§3 error model).
    FailedSilenceable,
    /// Failed (really or by injection) and the payload was rolled back to
    /// the pre-step checkpoint by the transactional interpreter.
    RolledBack,
    /// Exceeded its deadline (a `td-sched` job outcome): slow, not broken.
    TimedOut,
}

impl StepOutcome {
    /// Lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            StepOutcome::Open => "open",
            StepOutcome::Ok => "ok",
            StepOutcome::Failed => "failed",
            StepOutcome::FailedSilenceable => "failed-silenceable",
            StepOutcome::RolledBack => "rolled-back",
            StepOutcome::TimedOut => "timed-out",
        }
    }

    /// Whether this is one of the failure outcomes.
    pub fn is_failure(self) -> bool {
        matches!(
            self,
            StepOutcome::Failed
                | StepOutcome::FailedSilenceable
                | StepOutcome::RolledBack
                | StepOutcome::TimedOut
        )
    }
}

/// One executed transform op or pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepRecord {
    /// Index in [`Journal::steps`] (changes refer to it).
    pub index: usize,
    /// `"transform"` or `"pass"`.
    pub kind: &'static str,
    /// Transform-op or pass name.
    pub name: String,
    /// Source location of the transform op (empty for passes).
    pub location: String,
    /// Printed operand handles involved (e.g. `#7v0`).
    pub handles: Vec<String>,
    /// Nesting depth at begin time (a pass inside
    /// `transform.apply_registered_pass` is deeper than the transform).
    pub depth: usize,
    /// Batch job index, when running under `td-sched`.
    pub job: Option<usize>,
    /// Service request id, when running under td-serve (empty otherwise).
    /// Serialized only when non-empty, so journals recorded outside the
    /// service keep their exact historical shape.
    pub request: String,
    /// Payload fingerprint before the step.
    pub fp_before: u64,
    /// Payload fingerprint after the step.
    pub fp_after: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u128,
    /// How the step ended.
    pub outcome: StepOutcome,
    /// Failure message, when the outcome is a failure.
    pub message: String,
    /// Number of change records attributed to this step.
    pub changes: usize,
}

/// A diagnostic artifact attached to the journal (e.g. the minimized
/// repro schedule the failure bisector emits).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Artifact {
    /// Artifact kind (`"bisect"`, ...).
    pub kind: String,
    /// Label (e.g. `job3`).
    pub label: String,
    /// The artifact body (e.g. a printed transform script).
    pub content: String,
}

/// Aggregate row of the batch report: one transform/pass name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransformSummary {
    /// Transform-op or pass name.
    pub name: String,
    /// Steps executed under this name.
    pub steps: u64,
    /// Payload ops touched (change records attributed).
    pub ops_touched: u64,
    /// Total wall-clock nanoseconds.
    pub total_ns: u128,
    /// Steps that ended in a failure outcome.
    pub failures: u64,
}

// ---------------------------------------------------------------------------
// The journal
// ---------------------------------------------------------------------------

/// An append-only provenance journal: steps, changes, artifacts, and the
/// queries/reports built on them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Journal {
    steps: Vec<StepRecord>,
    changes: Vec<ChangeRecord>,
    artifacts: Vec<Artifact>,
    next_seq: u64,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// The executed steps, in begin order.
    pub fn steps(&self) -> &[StepRecord] {
        &self.steps
    }

    /// The payload changes, in occurrence order.
    pub fn changes(&self) -> &[ChangeRecord] {
        &self.changes
    }

    /// Attached artifacts.
    pub fn artifacts(&self) -> &[Artifact] {
        &self.artifacts
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty() && self.changes.is_empty() && self.artifacts.is_empty()
    }

    /// Appends `other`, re-basing its step indices and sequence numbers so
    /// cross-references stay valid. Worker pools use this (via [`absorb`])
    /// to merge per-worker journals into one batch journal, the way worker
    /// traces merge via `trace::adopt`.
    pub fn merge(&mut self, other: &Journal) {
        let step_base = self.steps.len();
        let seq_base = self.next_seq;
        for step in &other.steps {
            let mut step = step.clone();
            step.index += step_base;
            self.steps.push(step);
        }
        for change in &other.changes {
            let mut change = change.clone();
            change.step += step_base;
            change.seq += seq_base;
            self.changes.push(change);
        }
        self.artifacts.extend(other.artifacts.iter().cloned());
        self.next_seq = seq_base + other.next_seq;
    }

    /// Attaches a diagnostic artifact.
    pub fn add_artifact(
        &mut self,
        kind: impl Into<String>,
        label: impl Into<String>,
        content: impl Into<String>,
    ) {
        self.artifacts.push(Artifact {
            kind: kind.into(),
            label: label.into(),
            content: content.into(),
        });
    }

    // ----- attribution queries -------------------------------------------

    /// The last change record mentioning payload op `op` (by printed id),
    /// with its responsible step — "which transform last touched op X".
    pub fn last_touch(&self, op: &str) -> Option<(&ChangeRecord, &StepRecord)> {
        self.changes
            .iter()
            .rev()
            .find(|c| c.op == op)
            .map(|c| (c, &self.steps[c.step]))
    }

    /// The step responsible for erasing payload op `op` (by printed id) —
    /// "which transform erased op Y". Replacement counts as erasure.
    pub fn who_erased(&self, op: &str) -> Option<&StepRecord> {
        self.changes
            .iter()
            .rev()
            .find(|c| c.op == op && matches!(c.kind, ChangeKind::Erased | ChangeKind::Replaced))
            .map(|c| &self.steps[c.step])
    }

    /// The step responsible for creating payload op `op` (by printed id).
    pub fn who_created(&self, op: &str) -> Option<&StepRecord> {
        self.changes
            .iter()
            .rev()
            .find(|c| c.op == op && c.kind == ChangeKind::Created)
            .map(|c| &self.steps[c.step])
    }

    /// All erasures of payload ops with the given *op name* (e.g. every
    /// `scf.for` that disappeared), oldest first.
    pub fn erasures_of(&self, op_name: &str) -> Vec<(&ChangeRecord, &StepRecord)> {
        self.changes
            .iter()
            .filter(|c| {
                c.op_name == op_name && matches!(c.kind, ChangeKind::Erased | ChangeKind::Replaced)
            })
            .map(|c| (c, &self.steps[c.step]))
            .collect()
    }

    /// The first step that ended in a failure outcome, if any — the
    /// bisector's starting hint.
    pub fn first_failure(&self) -> Option<&StepRecord> {
        self.steps.iter().find(|s| s.outcome.is_failure())
    }

    // ----- reports --------------------------------------------------------

    /// Aggregates steps by transform/pass name, ranked by payload ops
    /// touched, then total time, then failure count (all descending).
    pub fn summarize(&self) -> Vec<TransformSummary> {
        let mut by_name: BTreeMap<&str, TransformSummary> = BTreeMap::new();
        for step in &self.steps {
            let row = by_name
                .entry(step.name.as_str())
                .or_insert_with(|| TransformSummary {
                    name: step.name.clone(),
                    steps: 0,
                    ops_touched: 0,
                    total_ns: 0,
                    failures: 0,
                });
            row.steps += 1;
            row.ops_touched += step.changes as u64;
            row.total_ns += step.duration_ns;
            row.failures += u64::from(step.outcome.is_failure());
        }
        let mut rows: Vec<TransformSummary> = by_name.into_values().collect();
        rows.sort_by(|a, b| {
            (b.ops_touched, b.total_ns, b.failures)
                .cmp(&(a.ops_touched, a.total_ns, a.failures))
                .then_with(|| a.name.cmp(&b.name))
        });
        rows
    }

    /// Serializes the whole journal — steps, changes, artifacts, and the
    /// ranked summary — as one JSON object. Validates against
    /// [`crate::trace::validate_json`]; all strings go through the
    /// escaping of [`json_string`].
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"steps\":[");
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&Self::step_json(step));
        }
        out.push_str("],\"changes\":[");
        for (i, change) in self.changes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&Self::change_json(change));
        }
        out.push_str("],\"artifacts\":[");
        for (i, artifact) in self.artifacts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&Self::artifact_json(artifact));
        }
        out.push_str("],\"summary\":[");
        for (i, row) in self.summarize().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"steps\":{},\"ops_touched\":{},\"total_ns\":{},\"failures\":{}}}",
                json_string(&row.name),
                row.steps,
                row.ops_touched,
                row.total_ns,
                row.failures,
            );
        }
        out.push_str("]}");
        out
    }

    fn step_json(step: &StepRecord) -> String {
        let mut out = format!(
            "{{\"index\":{},\"kind\":{},\"name\":{},\"location\":{},\"handles\":[",
            step.index,
            json_string(step.kind),
            json_string(&step.name),
            json_string(&step.location),
        );
        for (j, handle) in step.handles.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&json_string(handle));
        }
        let _ = write!(
            out,
            "],\"depth\":{},\"job\":{}",
            step.depth,
            step.job.map_or("null".to_owned(), |j| j.to_string()),
        );
        if !step.request.is_empty() {
            let _ = write!(out, ",\"request\":{}", json_string(&step.request));
        }
        let _ = write!(
            out,
            ",\"fp_before\":{},\"fp_after\":{},\
             \"duration_ns\":{},\"outcome\":{},\"message\":{},\"changes\":{}}}",
            step.fp_before,
            step.fp_after,
            step.duration_ns,
            json_string(step.outcome.name()),
            json_string(&step.message),
            step.changes,
        );
        out
    }

    fn change_json(change: &ChangeRecord) -> String {
        format!(
            "{{\"seq\":{},\"step\":{},\"kind\":{},\"op\":{},\"op_name\":{},\"detail\":{}}}",
            change.seq,
            change.step,
            json_string(change.kind.name()),
            json_string(&change.op),
            json_string(&change.op_name),
            json_string(&change.detail),
        )
    }

    fn artifact_json(artifact: &Artifact) -> String {
        format!(
            "{{\"kind\":{},\"label\":{},\"content\":{}}}",
            json_string(&artifact.kind),
            json_string(&artifact.label),
            json_string(&artifact.content),
        )
    }

    /// Serializes only the *tail* of the journal — the last `k` steps,
    /// changes, and artifacts — for the flight recorder's post-mortem
    /// bundle, where the full journal would dwarf the ring buffer it
    /// accompanies. Field shapes match [`Journal::to_json`] exactly so
    /// tooling parses both with one schema.
    pub fn tail_json(&self, k: usize) -> String {
        let tail = |len: usize| len.saturating_sub(k);
        let mut out = String::from("{\"steps\":[");
        for (i, step) in self.steps[tail(self.steps.len())..].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&Self::step_json(step));
        }
        out.push_str("],\"changes\":[");
        for (i, change) in self.changes[tail(self.changes.len())..].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&Self::change_json(change));
        }
        out.push_str("],\"artifacts\":[");
        for (i, artifact) in self.artifacts[tail(self.artifacts.len())..]
            .iter()
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&Self::artifact_json(artifact));
        }
        out.push_str("]}");
        out
    }

    /// Renders the batch report as human-readable text: the ranked
    /// transform table, per-step provenance lines, and artifacts.
    pub fn report_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "provenance journal: {} step(s), {} change(s), {} artifact(s)",
            self.steps.len(),
            self.changes.len(),
            self.artifacts.len()
        );
        let summary = self.summarize();
        if !summary.is_empty() {
            let _ = writeln!(
                out,
                "{:<40} {:>6} {:>10} {:>12} {:>9}",
                "transform", "steps", "ops", "total_ms", "failures"
            );
            for row in &summary {
                let _ = writeln!(
                    out,
                    "{:<40} {:>6} {:>10} {:>12.3} {:>9}",
                    row.name,
                    row.steps,
                    row.ops_touched,
                    row.total_ns as f64 / 1e6,
                    row.failures
                );
            }
        }
        for step in &self.steps {
            let job = step.job.map_or(String::new(), |j| format!("job{j} "));
            let _ = writeln!(
                out,
                "{}{:indent$}[{}] {} {} ({} change(s), {:.3}ms){}{}",
                job,
                "",
                step.outcome.name(),
                step.kind,
                step.name,
                step.changes,
                step.duration_ns as f64 / 1e6,
                if step.location.is_empty() { "" } else { " at " },
                step.location,
                indent = step.depth * 2,
            );
            if step.outcome.is_failure() && !step.message.is_empty() {
                let _ = writeln!(out, "{}  ! {}", job, step.message);
            }
        }
        for artifact in &self.artifacts {
            let _ = writeln!(out, "artifact [{}] {}:", artifact.kind, artifact.label);
            for line in artifact.content.lines() {
                let _ = writeln!(out, "  | {line}");
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Thread-local collector
// ---------------------------------------------------------------------------

struct Collector {
    journal: Journal,
    /// Indices of open steps (innermost last); changes attribute to the top.
    stack: Vec<usize>,
    /// Job index stamped onto steps begun while set.
    job: Option<usize>,
    /// Service request id stamped onto steps begun while non-empty.
    request: String,
}

impl Collector {
    fn new() -> Self {
        Collector {
            journal: Journal::new(),
            stack: Vec::new(),
            job: None,
            request: String::new(),
        }
    }
}

thread_local! {
    static COLLECTOR: RefCell<Collector> = RefCell::new(Collector::new());
    /// Thread-local override of the env-derived enablement.
    static ENABLED_OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };
    /// Cached `TD_JOURNAL` presence (the lookup sits on hot paths).
    static ENV_ENABLED: Cell<Option<bool>> = const { Cell::new(None) };
    /// Fast path for the IR-mutation hooks: enabled AND a step is open.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
}

/// The path in `TD_JOURNAL`, if set (also the enablement signal).
pub fn env_journal_path() -> Option<String> {
    std::env::var("TD_JOURNAL").ok().filter(|p| !p.is_empty())
}

/// Whether journaling is enabled on this thread (explicit [`set_enabled`]
/// override, else the presence of `TD_JOURNAL`).
pub fn enabled() -> bool {
    if let Some(explicit) = ENABLED_OVERRIDE.with(Cell::get) {
        return explicit;
    }
    ENV_ENABLED.with(|cache| match cache.get() {
        Some(enabled) => enabled,
        None => {
            let enabled = env_journal_path().is_some();
            cache.set(Some(enabled));
            enabled
        }
    })
}

/// Enables or disables journaling on this thread, overriding `TD_JOURNAL`.
pub fn set_enabled(enabled: bool) {
    ENABLED_OVERRIDE.with(|o| o.set(Some(enabled)));
    if !enabled {
        RECORDING.with(|r| r.set(false));
    }
}

/// Clears the thread-local enablement override (back to env-driven).
pub fn clear_enabled_override() {
    ENABLED_OVERRIDE.with(|o| o.set(None));
}

/// Whether a change record would be accepted right now: journaling is on
/// and a step frame is open. The IR-mutation hooks check this
/// thread-local read before formatting any arguments, which is what keeps
/// the journal-off cost of `Context::create_op`/`erase_op` near one branch.
pub fn recording() -> bool {
    RECORDING.with(Cell::get)
}

/// Force-closes every open step frame on this thread, stamping frames
/// still [`StepOutcome::Open`] with `outcome` and `message`. Returns the
/// number of frames closed. The panic-containment path uses this: a
/// panicking transform handler never reaches its `end_step`, so before
/// rolling the payload back the interpreter unwinds the journal stack —
/// otherwise the rollback's own bookkeeping would attribute to a frame
/// that no longer corresponds to running code.
pub fn unwind_open_steps(outcome: StepOutcome, message: &str) -> usize {
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let mut closed = 0;
        while let Some(index) = c.stack.pop() {
            if let Some(step) = c.journal.steps.get_mut(index) {
                if step.outcome == StepOutcome::Open {
                    step.outcome = outcome;
                    step.message = message.to_owned();
                    closed += 1;
                }
            }
        }
        RECORDING.with(|r| r.set(false));
        closed
    })
}

/// Token returned by [`begin_step`]; hand it back to [`end_step`].
#[derive(Clone, Copy, Debug)]
pub struct StepToken(usize);

/// Opens a step frame for a transform op or pass. Returns `None` (and
/// records nothing) when journaling is disabled. `fp_before` is the
/// payload fingerprint at entry.
pub fn begin_step(
    kind: &'static str,
    name: &str,
    location: &str,
    handles: Vec<String>,
    fp_before: u64,
) -> Option<StepToken> {
    if !enabled() {
        return None;
    }
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let index = c.journal.steps.len();
        let depth = c.stack.len();
        let job = c.job;
        let request = c.request.clone();
        c.journal.steps.push(StepRecord {
            index,
            kind,
            name: name.to_owned(),
            location: location.to_owned(),
            handles,
            depth,
            job,
            request,
            fp_before,
            fp_after: fp_before,
            duration_ns: 0,
            outcome: StepOutcome::Open,
            message: String::new(),
            changes: 0,
        });
        c.stack.push(index);
        RECORDING.with(|r| r.set(true));
        Some(StepToken(index))
    })
}

/// Closes a step frame: records the after-fingerprint, duration, and
/// outcome. When the fingerprint changed but no structural change was
/// attributed, a synthetic [`ChangeKind::Modified`] record for the payload
/// root (`root`/`root_name`) is appended so in-place edits (attributes,
/// operand rewiring) still show up in attribution queries. No-op when
/// `token` is `None`.
pub fn end_step(
    token: Option<StepToken>,
    fp_after: u64,
    duration_ns: u128,
    outcome: StepOutcome,
    message: &str,
    root: &str,
    root_name: &str,
) {
    let Some(StepToken(index)) = token else {
        return;
    };
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        // Pop the frame (tolerate mismatched tokens from panicking
        // handlers: pop until this frame is gone).
        while let Some(top) = c.stack.pop() {
            if top == index {
                break;
            }
        }
        if c.stack.is_empty() {
            RECORDING.with(|r| r.set(false));
        }
        let fp_changed = {
            let Some(step) = c.journal.steps.get_mut(index) else {
                return;
            };
            step.fp_after = fp_after;
            step.duration_ns = duration_ns;
            step.outcome = outcome;
            step.message = message.to_owned();
            step.fp_before != fp_after && step.changes == 0
        };
        if fp_changed {
            let seq = c.journal.next_seq;
            c.journal.next_seq += 1;
            c.journal.changes.push(ChangeRecord {
                seq,
                step: index,
                kind: ChangeKind::Modified,
                op: root.to_owned(),
                op_name: root_name.to_owned(),
                detail: "fingerprint changed without structural events".to_owned(),
            });
            c.journal.steps[index].changes += 1;
        }
    });
}

/// Records a payload change, attributed to the innermost open step.
/// No-op (after one boolean check) unless [`recording`].
pub fn record_change(kind: ChangeKind, op: &str, op_name: &str, detail: &str) {
    if !recording() {
        return;
    }
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let Some(&step) = c.stack.last() else {
            return;
        };
        let seq = c.journal.next_seq;
        c.journal.next_seq += 1;
        c.journal.changes.push(ChangeRecord {
            seq,
            step,
            kind,
            op: op.to_owned(),
            op_name: op_name.to_owned(),
            detail: detail.to_owned(),
        });
        c.journal.steps[step].changes += 1;
    });
}

/// Attaches an artifact to this thread's journal (works outside step
/// frames; gated only on [`enabled`]).
pub fn add_artifact(kind: &str, label: &str, content: &str) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| c.borrow_mut().journal.add_artifact(kind, label, content));
}

/// Stamps subsequently begun steps with a batch job index (`td-sched`
/// workers set this per job so the merged batch journal attributes steps
/// to jobs).
pub fn set_job(job: Option<usize>) {
    COLLECTOR.with(|c| c.borrow_mut().job = job);
}

/// Stamps subsequently begun steps with a service request id (td-serve
/// workers set this per job so journal steps — and thus batch reports and
/// flight-bundle journal tails — correlate back to the originating
/// `SUBMIT`). Pass an empty string to clear.
pub fn set_request(request: impl Into<String>) {
    COLLECTOR.with(|c| c.borrow_mut().request = request.into());
}

/// A copy of this thread's journal.
pub fn snapshot() -> Journal {
    COLLECTOR.with(|c| c.borrow().journal.clone())
}

/// Takes (returns and clears) this thread's journal. Open frames are
/// discarded.
pub fn take() -> Journal {
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        c.stack.clear();
        RECORDING.with(|r| r.set(false));
        std::mem::take(&mut c.journal)
    })
}

/// Clears this thread's journal and any open frames.
pub fn reset() {
    COLLECTOR.with(|c| *c.borrow_mut() = Collector::new());
    RECORDING.with(|r| r.set(false));
}

/// Merges a journal recorded on another thread into this thread's
/// collector (the `metrics::absorb` analogue for worker pools).
pub fn absorb(other: &Journal) {
    COLLECTOR.with(|c| c.borrow_mut().journal.merge(other));
}

/// A thread's whole collector — journal, open step frames, job and
/// request stamps — set aside by [`lend`] until [`reclaim`].
pub struct Lent(Collector);

/// Sets this thread's collector aside and starts an empty one, for a
/// thread about to run work that journals as if on a thread of its own.
pub fn lend() -> Lent {
    RECORDING.with(|r| r.set(false));
    Lent(COLLECTOR.with(|c| c.replace(Collector::new())))
}

/// Puts a lent collector back as [`lend`] found it and returns the journal
/// recorded in the meantime (open frames are discarded, as in [`take`]).
pub fn reclaim(lent: Lent) -> Journal {
    RECORDING.with(|r| r.set(enabled() && !lent.0.stack.is_empty()));
    COLLECTOR.with(|c| c.replace(lent.0).journal)
}

/// Writes this thread's journal as JSON to the path in `TD_JOURNAL`, if
/// set. Returns the path written to.
///
/// # Errors
/// I/O failures are reported with the offending path in the message (not
/// as a bare `io::Error`), mirroring [`crate::trace::write_env_trace`].
pub fn write_env_journal() -> std::io::Result<Option<String>> {
    let Some(path) = env_journal_path() else {
        return Ok(None);
    };
    write_journal_to(&path)?;
    Ok(Some(path))
}

/// Writes this thread's journal as JSON to `path`, with the offending path
/// included in any I/O error message.
///
/// # Errors
/// See [`write_env_journal`].
pub fn write_journal_to(path: &str) -> std::io::Result<()> {
    std::fs::write(path, snapshot().to_json()).map_err(|e| {
        std::io::Error::new(
            e.kind(),
            format!("cannot write TD_JOURNAL journal to '{path}': {e}"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::validate_json;

    fn with_journal<R>(f: impl FnOnce() -> R) -> (R, Journal) {
        reset();
        set_enabled(true);
        let result = f();
        let journal = take();
        clear_enabled_override();
        (result, journal)
    }

    #[test]
    fn disabled_journal_records_nothing() {
        reset();
        set_enabled(false);
        assert!(begin_step("transform", "t", "", vec![], 1).is_none());
        record_change(ChangeKind::Created, "#1v0", "test.op", "");
        assert!(!recording());
        assert!(snapshot().is_empty());
        clear_enabled_override();
    }

    #[test]
    fn changes_attribute_to_innermost_open_step() {
        let ((), journal) = with_journal(|| {
            let outer = begin_step(
                "transform",
                "transform.apply_registered_pass",
                "s:1:1",
                vec!["#9v0".into()],
                10,
            );
            record_change(ChangeKind::Created, "#1v0", "arith.constant", "");
            let inner = begin_step("pass", "canonicalize", "", vec![], 11);
            record_change(ChangeKind::Erased, "#1v0", "arith.constant", "");
            end_step(inner, 12, 5, StepOutcome::Ok, "", "#0v0", "builtin.module");
            end_step(outer, 12, 9, StepOutcome::Ok, "", "#0v0", "builtin.module");
        });
        assert_eq!(journal.steps().len(), 2);
        assert_eq!(journal.steps()[1].depth, 1);
        assert_eq!(journal.changes().len(), 2);
        assert_eq!(journal.changes()[0].step, 0, "outer owns the creation");
        assert_eq!(journal.changes()[1].step, 1, "inner pass owns the erasure");
        let erased_by = journal.who_erased("#1v0").unwrap();
        assert_eq!(erased_by.name, "canonicalize");
        let created_by = journal.who_created("#1v0").unwrap();
        assert_eq!(created_by.name, "transform.apply_registered_pass");
        let (last, step) = journal.last_touch("#1v0").unwrap();
        assert_eq!(last.kind, ChangeKind::Erased);
        assert_eq!(step.name, "canonicalize");
    }

    #[test]
    fn fingerprint_only_steps_synthesize_modified_record() {
        let ((), journal) = with_journal(|| {
            let step = begin_step(
                "transform",
                "transform.annotate",
                "s:2:3",
                vec!["#4v0".into()],
                100,
            );
            end_step(step, 200, 7, StepOutcome::Ok, "", "#0v0", "builtin.module");
            // Unchanged fingerprint: no synthetic record.
            let quiet = begin_step("transform", "transform.match_op", "s:3:3", vec![], 200);
            end_step(quiet, 200, 3, StepOutcome::Ok, "", "#0v0", "builtin.module");
        });
        assert_eq!(journal.changes().len(), 1);
        assert_eq!(journal.changes()[0].kind, ChangeKind::Modified);
        assert_eq!(journal.changes()[0].op_name, "builtin.module");
        assert_eq!(journal.steps()[0].changes, 1);
        assert_eq!(journal.steps()[1].changes, 0);
    }

    #[test]
    fn merge_rebases_indices_and_sequences() {
        let ((), a) = with_journal(|| {
            let s = begin_step("transform", "a", "", vec![], 1);
            record_change(ChangeKind::Created, "#1v0", "x", "");
            end_step(s, 2, 1, StepOutcome::Ok, "", "", "");
        });
        let ((), b) = with_journal(|| {
            let s = begin_step("transform", "b", "", vec![], 1);
            record_change(ChangeKind::Erased, "#2v0", "y", "");
            end_step(s, 3, 1, StepOutcome::Failed, "boom", "", "");
        });
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.steps().len(), 2);
        assert_eq!(merged.changes().len(), 2);
        assert_eq!(merged.changes()[1].step, 1, "rebased step reference");
        assert!(merged.changes()[1].seq > merged.changes()[0].seq);
        assert_eq!(merged.who_erased("#2v0").unwrap().name, "b");
        assert_eq!(merged.first_failure().unwrap().name, "b");
    }

    #[test]
    fn summary_ranks_by_ops_touched() {
        let ((), journal) = with_journal(|| {
            for _ in 0..2 {
                let s = begin_step("transform", "busy", "", vec![], 1);
                record_change(ChangeKind::Created, "#1v0", "x", "");
                record_change(ChangeKind::Created, "#2v0", "x", "");
                end_step(s, 2, 10, StepOutcome::Ok, "", "", "");
            }
            let s = begin_step("transform", "quiet", "", vec![], 2);
            end_step(s, 2, 100, StepOutcome::Failed, "nope", "", "");
        });
        let summary = journal.summarize();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].name, "busy");
        assert_eq!(summary[0].ops_touched, 4);
        assert_eq!(summary[0].steps, 2);
        assert_eq!(summary[1].name, "quiet");
        assert_eq!(summary[1].failures, 1);
    }

    #[test]
    fn json_report_is_valid_and_escaped() {
        let ((), mut journal) = with_journal(|| {
            let s = begin_step(
                "transform",
                "name\"with\nweird\u{1}chars",
                "loc:1:1",
                vec!["#1v0".into()],
                5,
            );
            record_change(ChangeKind::Replaced, "#2v0", "scf.for", "-> 2 values");
            end_step(
                s,
                6,
                42,
                StepOutcome::FailedSilenceable,
                "msg\twith\ttabs",
                "",
                "",
            );
        });
        journal.add_artifact("bisect", "job0", "module {\n}\n");
        let json = journal.to_json();
        validate_json(&json).expect("journal JSON is well-formed");
        assert!(json.contains("\"failed-silenceable\""));
        assert!(json.contains("\"summary\""));
        assert!(json.contains("\\u0001"));
        let text = journal.report_text();
        assert!(text.contains("artifact [bisect] job0"));
        assert!(text.contains("scf.for") || text.contains("1 change"));
    }

    #[test]
    fn unwritable_journal_path_reports_the_path() {
        let path = "/definitely/not/a/writable/dir/journal.json";
        let err = write_journal_to(path).unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains(path),
            "diagnostic names the path: {message}"
        );
        assert!(
            message.contains("TD_JOURNAL"),
            "names the env var: {message}"
        );
    }

    #[test]
    fn unwind_closes_open_frames_with_outcome() {
        let ((), journal) = with_journal(|| {
            let _outer = begin_step("transform", "outer", "", vec![], 1);
            let _inner = begin_step("transform", "inner", "", vec![], 2);
            let closed = unwind_open_steps(StepOutcome::Failed, "panicked: boom");
            assert_eq!(closed, 2);
            assert!(!recording());
        });
        assert_eq!(journal.steps().len(), 2);
        for step in journal.steps() {
            assert_eq!(step.outcome, StepOutcome::Failed);
            assert_eq!(step.message, "panicked: boom");
        }
    }

    #[test]
    fn rolled_back_and_timed_out_are_failures_with_names() {
        assert!(StepOutcome::RolledBack.is_failure());
        assert!(StepOutcome::TimedOut.is_failure());
        assert_eq!(StepOutcome::RolledBack.name(), "rolled-back");
        assert_eq!(StepOutcome::TimedOut.name(), "timed-out");
        let ((), journal) = with_journal(|| {
            let s = begin_step("transform", "t", "", vec![], 1);
            end_step(s, 1, 1, StepOutcome::RolledBack, "rolled back", "", "");
        });
        assert_eq!(journal.first_failure().unwrap().name, "t");
        assert!(journal.to_json().contains("\"rolled-back\""));
    }

    #[test]
    fn job_stamp_lands_on_steps() {
        let ((), journal) = with_journal(|| {
            set_job(Some(3));
            let s = begin_step("transform", "t", "", vec![], 1);
            end_step(s, 1, 1, StepOutcome::Ok, "", "", "");
            set_job(None);
        });
        assert_eq!(journal.steps()[0].job, Some(3));
    }

    #[test]
    fn a_lent_collector_comes_back_with_its_open_frame_and_stamps() {
        let ((), journal) = with_journal(|| {
            set_job(Some(3));
            let outer = begin_step("transform", "outer", "", vec![], 1);
            let lent = lend();
            assert!(!recording(), "the stand-in starts with no frame open");
            let inner = begin_step("transform", "inner", "", vec![], 1);
            end_step(inner, 1, 1, StepOutcome::Ok, "", "", "");
            let meanwhile = reclaim(lent);
            assert_eq!(meanwhile.steps().len(), 1);
            assert_eq!(meanwhile.steps()[0].job, None, "stamps are lent too");
            assert!(recording(), "the open frame is back");
            end_step(outer, 1, 1, StepOutcome::Ok, "", "", "");
        });
        let [outer] = journal.steps() else {
            panic!("only the caller's own step: {:?}", journal.steps());
        };
        assert_eq!((outer.name.as_str(), outer.job), ("outer", Some(3)));
        assert_eq!(outer.outcome, StepOutcome::Ok);
    }
}
