//! The transform provenance journal: a structured, append-only record of
//! *which transform (or pass) produced which payload change*.
//!
//! The trace stream (see [`crate::trace`]) can say *that* a schedule ran;
//! the journal closes the attribution gap the paper's debugging story
//! (§6) asks for: every payload op created, replaced, erased, or modified
//! is stamped with the responsible transform op — its name, location, and
//! the handle(s) involved. On top of the raw record the journal answers
//! attribution queries ("which transform erased op X?"), ranks transforms
//! for batch reports, and carries diagnostic artifacts such as the
//! minimized repro schedules the failure bisector produces.
//!
//! Like the trace and metrics stores, the collector is thread-local and
//! env-driven: setting `TD_JOURNAL=journal.json` enables recording, and
//! drivers flush the JSON report with [`write_env_journal`]. When the
//! journal is off (the default), every hook call is a single thread-local
//! boolean read.
//!
//! Structure of a recording — ids ([`RawId`], [`Symbol`]), not text, which
//! is rendered only when the journal is fetched or queried by printed id:
//!
//! * a [`StepRecord`] per executed transform op / pass, with location,
//!   operand handles, duration, and outcome;
//! * a [`ChangeRecord`] per payload-op change, attributed to the step that
//!   was executing when the change happened (steps nest: a pass run by
//!   `transform.apply_registered_pass` attributes the changes it makes);
//!   `Modified` comes from the payload's edit count that callers pass
//!   [`begin_step`] and [`end_step`], not from walking the payload;
//! * optional [`Artifact`]s (e.g. a minimized failing schedule).
//!
//! ```
//! use td_support::journal::{self, ChangeKind, RawId};
//! use td_support::{Location, Symbol};
//! journal::reset();
//! journal::set_enabled(true);
//! let step = journal::begin_step("transform", "transform.loop.tile",
//!                                Some(&Location::file("script.mlir", 3, 5)),
//!                                [RawId { index: 7, generation: 0 }], 101);
//! let op = RawId { index: 3, generation: 0 };
//! journal::record_change(ChangeKind::Erased, op, Symbol::new("scf.for"), 0);
//! journal::end_step(step, 102, 1_000, journal::StepOutcome::Ok, "", None);
//! let journal = journal::take();
//! journal::clear_enabled_override();
//! assert_eq!(journal.who_erased("#3v0").unwrap().name, "transform.loop.tile");
//! ```

use crate::arena::{Idx, InlineVec};
use crate::interner::Symbol;
use crate::location::Location;
use crate::metrics::json_string;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;

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
    /// The step edited the payload without a structural op event
    /// (attribute edits, operand rewiring): detected by the edit count.
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

/// A payload entity as the journal records it: the slot and generation
/// of its arena id, printed `#<index>v<generation>` like the id itself —
/// stable as a map key even after erasure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RawId {
    /// Arena slot.
    pub index: u32,
    /// Generation of the slot.
    pub generation: u32,
}

impl RawId {
    /// The raw parts of an arena id (an op, or a value for handles).
    pub fn of<T>(id: Idx<T>) -> RawId {
        let (index, generation) = (id.index(), id.generation());
        RawId { index, generation }
    }

    /// Parses a printed id (`#12v0`).
    pub fn parse(text: &str) -> Option<RawId> {
        let (index, generation) = text.strip_prefix('#')?.split_once('v')?;
        let (index, generation) = (index.parse().ok()?, generation.parse().ok()?);
        Some(RawId { index, generation })
    }
}

impl fmt::Display for RawId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}v{}", self.index, self.generation)
    }
}

/// One payload-op change, attributed to the step executing when it
/// happened. Its position in [`Journal::changes`] is its sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChangeRecord {
    /// The payload op.
    pub op: RawId,
    /// Payload op name (e.g. `scf.for`).
    pub op_name: Symbol,
    /// Index of the responsible [`StepRecord`].
    pub step: u32,
    /// What happened.
    pub kind: ChangeKind,
    /// Replacement value count of a [`ChangeKind::Replaced`] record (0
    /// otherwise).
    pub arity: u32,
}

const _: () = assert!(std::mem::size_of::<ChangeRecord>() <= 24);

impl ChangeRecord {
    /// The record's extra context as reports print it.
    pub fn detail(&self) -> String {
        match self.kind {
            ChangeKind::Created | ChangeKind::Erased => String::new(),
            ChangeKind::Replaced => format!("-> {} value(s)", self.arity),
            ChangeKind::Modified => "payload edited without structural events".to_owned(),
        }
    }
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
    pub name: Symbol,
    /// Source location of the transform op (`None` for passes and jobs,
    /// printed empty).
    pub location: Option<Location>,
    /// Operand handles involved (value ids, printed `#7v0`; transform ops
    /// rarely take more than two).
    pub handles: InlineVec<RawId, 2>,
    /// Nesting depth at begin time (a pass inside
    /// `transform.apply_registered_pass` is deeper than the transform).
    pub depth: usize,
    /// Batch job index, when running under `td-sched`.
    pub job: Option<usize>,
    /// Service request id, when running under td-serve, shared by every
    /// step of the job. Serialized only when present, so journals
    /// recorded outside the service keep their exact historical shape.
    pub request: Option<Arc<str>>,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u128,
    /// How the step ended.
    pub outcome: StepOutcome,
    /// Failure message, when the outcome is a failure.
    pub message: String,
    /// Number of change records attributed to this step.
    pub changes: usize,
}

impl StepRecord {
    /// The location as reports print it (empty when there is none).
    pub fn location_text(&self) -> String {
        self.location
            .as_ref()
            .map_or_else(String::new, ToString::to_string)
    }
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

    /// Appends `other`, re-basing its step indices so cross-references
    /// stay valid. Worker pools use this (via [`absorb`]) to merge
    /// per-worker journals into one batch journal, the way worker traces
    /// merge via `trace::adopt`.
    pub fn merge(&mut self, other: &Journal) {
        let step_base = self.steps.len();
        for step in &other.steps {
            let mut step = step.clone();
            step.index += step_base;
            self.steps.push(step);
        }
        self.changes
            .extend(other.changes.iter().map(|&change| ChangeRecord {
                step: change.step + step_base as u32,
                ..change
            }));
        self.artifacts.extend(other.artifacts.iter().cloned());
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

    /// The latest change record of payload op `op` (by printed id) that
    /// passes `accept`, with its responsible step.
    fn latest(
        &self,
        op: &str,
        accept: impl Fn(ChangeKind) -> bool,
    ) -> Option<(&ChangeRecord, &StepRecord)> {
        let op = RawId::parse(op)?;
        self.changes
            .iter()
            .rev()
            .find(|c| c.op == op && accept(c.kind))
            .map(|c| (c, &self.steps[c.step as usize]))
    }

    /// The last change record mentioning payload op `op` (by printed id),
    /// with its responsible step — "which transform last touched op X".
    pub fn last_touch(&self, op: &str) -> Option<(&ChangeRecord, &StepRecord)> {
        self.latest(op, |_| true)
    }

    /// The step responsible for erasing payload op `op` (by printed id) —
    /// "which transform erased op Y". Replacement counts as erasure.
    pub fn who_erased(&self, op: &str) -> Option<&StepRecord> {
        self.latest(op, |kind| {
            matches!(kind, ChangeKind::Erased | ChangeKind::Replaced)
        })
        .map(|(_, step)| step)
    }

    /// The step responsible for creating payload op `op` (by printed id).
    pub fn who_created(&self, op: &str) -> Option<&StepRecord> {
        self.latest(op, |kind| kind == ChangeKind::Created)
            .map(|(_, step)| step)
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
                    name: step.name.as_str().to_owned(),
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
        let mut out = self.records_json(usize::MAX);
        out.pop();
        out.push_str(",\"summary\":[");
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

    /// The last `k` steps, changes and artifacts as one JSON object.
    fn records_json(&self, k: usize) -> String {
        let from = |len: usize| len.saturating_sub(k);
        let mut out = String::from("{\"steps\":[");
        for (i, step) in self.steps[from(self.steps.len())..].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            Self::step_json(&mut out, step);
        }
        out.push_str("],\"changes\":[");
        let first = from(self.changes.len());
        for (i, change) in self.changes[first..].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"seq\":{},\"step\":{},\"kind\":{},\"op\":\"{}\",\"op_name\":{},\"detail\":{}}}",
                first + i,
                change.step,
                json_string(change.kind.name()),
                change.op,
                json_string(change.op_name.as_str()),
                json_string(&change.detail()),
            );
        }
        out.push_str("],\"artifacts\":[");
        for (i, artifact) in self.artifacts[from(self.artifacts.len())..]
            .iter()
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"kind\":{},\"label\":{},\"content\":{}}}",
                json_string(&artifact.kind),
                json_string(&artifact.label),
                json_string(&artifact.content),
            );
        }
        out.push_str("]}");
        out
    }

    fn step_json(out: &mut String, step: &StepRecord) {
        let _ = write!(
            out,
            "{{\"index\":{},\"kind\":{},\"name\":{},\"location\":{},\"handles\":[",
            step.index,
            json_string(step.kind),
            json_string(step.name.as_str()),
            json_string(&step.location_text()),
        );
        for (j, handle) in step.handles.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{handle}\"");
        }
        let job = step.job.map_or("null".to_owned(), |j| j.to_string());
        let _ = write!(out, "],\"depth\":{},\"job\":{job}", step.depth);
        if let Some(request) = &step.request {
            let _ = write!(out, ",\"request\":{}", json_string(request));
        }
        let _ = write!(
            out,
            ",\"duration_ns\":{},\"outcome\":{},\"message\":{},\"changes\":{}}}",
            step.duration_ns,
            json_string(step.outcome.name()),
            json_string(&step.message),
            step.changes,
        );
    }

    /// Serializes only the *tail* of the journal — the last `k` steps,
    /// changes, and artifacts — for the flight recorder's post-mortem
    /// bundle, where the full journal would dwarf the ring buffer it
    /// accompanies. Field shapes match [`Journal::to_json`] exactly so
    /// tooling parses both with one schema.
    pub fn tail_json(&self, k: usize) -> String {
        self.records_json(k)
    }
}

// ---------------------------------------------------------------------------
// Thread-local collector
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Collector {
    journal: Journal,
    /// Open steps (innermost last) with the edit count each began at;
    /// changes attribute to the top.
    stack: Vec<(usize, u64)>,
    /// Job index stamped onto steps begun while set.
    job: Option<usize>,
    /// Service request id stamped onto steps begun while set.
    request: Option<Arc<str>>,
}

impl Collector {
    /// Appends a change record attributed to step `step`, into the
    /// thread's [`SPARE`] buffer when this journal has none yet.
    fn record(&mut self, step: usize, kind: ChangeKind, op: RawId, op_name: Symbol, arity: u32) {
        if self.journal.changes.capacity() == 0 {
            self.journal.changes = SPARE.take();
        }
        let record = ChangeRecord {
            op,
            op_name,
            step: step as u32,
            kind,
            arity,
        };
        self.journal.changes.push(record);
        self.journal.steps[step].changes += 1;
    }
}

/// A journal leaving this thread's collector takes an exact-size copy of
/// its changes; the grown buffer stays behind as the [`SPARE`], because
/// regrowing it from empty on every job cost more than the records.
fn handed_off(mut journal: Journal) -> Journal {
    let mut buffer = std::mem::take(&mut journal.changes);
    journal.changes = buffer.clone();
    buffer.clear();
    if buffer.capacity() > 0 {
        SPARE.set(buffer);
    }
    journal
}

thread_local! {
    static COLLECTOR: RefCell<Collector> = RefCell::new(Collector::default());
    /// Thread-local override of the env-derived enablement.
    static ENABLED_OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };
    /// Cached `TD_JOURNAL` presence (the lookup sits on hot paths).
    static ENV_ENABLED: Cell<Option<bool>> = const { Cell::new(None) };
    /// Fast path for the IR-mutation hooks: enabled AND a step is open.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    /// Change-record capacity kept between this thread's journals (see
    /// [`handed_off`]).
    static SPARE: Cell<Vec<ChangeRecord>> = const { Cell::new(Vec::new()) };
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
/// thread-local read first, which is what keeps the journal-off cost of
/// `Context::create_op`/`erase_op` near one branch.
#[inline]
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
        while let Some((index, _)) = c.stack.pop() {
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
/// records nothing) when journaling is disabled. `edits` is the payload's
/// edit count at entry (see [`end_step`]).
pub fn begin_step(
    kind: &'static str,
    name: impl Into<Symbol>,
    location: Option<&Location>,
    handles: impl IntoIterator<Item = RawId>,
    edits: u64,
) -> Option<StepToken> {
    if !enabled() {
        return None;
    }
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let index = c.journal.steps.len();
        let step = StepRecord {
            index,
            kind,
            name: name.into(),
            location: location.cloned(),
            handles: handles.into_iter().collect(),
            depth: c.stack.len(),
            job: c.job,
            request: c.request.clone(),
            duration_ns: 0,
            outcome: StepOutcome::Open,
            message: String::new(),
            changes: 0,
        };
        c.journal.steps.push(step);
        c.stack.push((index, edits));
        RECORDING.with(|r| r.set(true));
        Some(StepToken(index))
    })
}

/// Closes a step frame: records the duration and outcome. When the edit
/// count `edits` differs from the one the step began at but no structural
/// change was attributed, a synthetic [`ChangeKind::Modified`] record for
/// the payload root `root` (id and op name) is appended, so in-place
/// edits (attributes, operand rewiring) still show up in attribution
/// queries. A rollback winds the count back, so a step whose edits were
/// rolled back inside its frame records nothing. No-op when `token` is
/// `None`.
pub fn end_step(
    token: Option<StepToken>,
    edits: u64,
    duration_ns: u128,
    outcome: StepOutcome,
    message: &str,
    root: Option<(RawId, Symbol)>,
) {
    let Some(StepToken(index)) = token else {
        return;
    };
    COLLECTOR.with(|c| {
        let c = &mut *c.borrow_mut();
        // Pop the frame (tolerate mismatched tokens from panicking
        // handlers: pop until this frame is gone).
        let mut began_at = None;
        while let Some((top, edits)) = c.stack.pop() {
            if top == index {
                began_at = Some(edits);
                break;
            }
        }
        if c.stack.is_empty() {
            RECORDING.with(|r| r.set(false));
        }
        let Some(step) = c.journal.steps.get_mut(index) else {
            return;
        };
        step.duration_ns = duration_ns;
        step.outcome = outcome;
        step.message = message.to_owned();
        let modified = began_at.is_some_and(|began| began != edits) && step.changes == 0;
        if let (true, Some((op, op_name))) = (modified, root) {
            c.record(index, ChangeKind::Modified, op, op_name, 0);
        }
    });
}

/// Records a payload change, attributed to the innermost open step
/// (`arity` is the replacement value count of a [`ChangeKind::Replaced`]
/// record). No-op (after one boolean check) unless [`recording`].
#[inline]
pub fn record_change(kind: ChangeKind, op: RawId, op_name: Symbol, arity: u32) {
    if !recording() {
        return;
    }
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        if let Some(&(step, _)) = c.stack.last() {
            c.record(step, kind, op, op_name, arity);
        }
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
/// `SUBMIT`). The steps share one copy of it. Pass an empty string to
/// clear.
pub fn set_request(request: &str) {
    let request = (!request.is_empty()).then(|| Arc::from(request));
    COLLECTOR.with(|c| c.borrow_mut().request = request);
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
        handed_off(std::mem::take(&mut c.journal))
    })
}

/// Clears this thread's journal and any open frames.
pub fn reset() {
    COLLECTOR.with(|c| *c.borrow_mut() = Collector::default());
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
    Lent(COLLECTOR.with(|c| c.replace(Collector::default())))
}

/// Puts a lent collector back as [`lend`] found it and returns the journal
/// recorded in the meantime (open frames are discarded, as in [`take`]).
pub fn reclaim(lent: Lent) -> Journal {
    RECORDING.with(|r| r.set(enabled() && !lent.0.stack.is_empty()));
    handed_off(COLLECTOR.with(|c| c.replace(lent.0).journal))
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

    fn id(index: u32) -> RawId {
        RawId {
            index,
            generation: 0,
        }
    }

    fn sym(name: &str) -> Symbol {
        Symbol::new(name)
    }

    fn module() -> Option<(RawId, Symbol)> {
        Some((id(0), sym("builtin.module")))
    }

    #[test]
    fn disabled_journal_records_nothing() {
        reset();
        set_enabled(false);
        assert!(begin_step("transform", "t", None, [], 1).is_none());
        record_change(ChangeKind::Created, id(1), sym("test.op"), 0);
        assert!(!recording());
        assert!(snapshot().is_empty());
        clear_enabled_override();
    }

    #[test]
    fn raw_ids_print_and_parse_like_arena_ids() {
        let op = RawId::of(Idx::<()>::from_raw(12, 3));
        assert_eq!(op.to_string(), format!("{:?}", Idx::<()>::from_raw(12, 3)));
        assert_eq!(RawId::parse("#12v3"), Some(op));
        for bad in ["", "12v3", "#12", "#v3", "#12v", "#-1v0", "#1v0x"] {
            assert_eq!(RawId::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn changes_attribute_to_innermost_open_step() {
        let ((), journal) = with_journal(|| {
            let outer = begin_step(
                "transform",
                "transform.apply_registered_pass",
                Some(&Location::file("s", 1, 1)),
                [id(9)],
                10,
            );
            record_change(ChangeKind::Created, id(1), sym("arith.constant"), 0);
            let inner = begin_step("pass", "canonicalize", None, [], 11);
            record_change(ChangeKind::Erased, id(1), sym("arith.constant"), 0);
            end_step(inner, 12, 5, StepOutcome::Ok, "", module());
            end_step(outer, 12, 9, StepOutcome::Ok, "", module());
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
        assert!(journal.who_created("not an id").is_none());
    }

    #[test]
    fn edit_only_steps_synthesize_modified_record() {
        let ((), journal) = with_journal(|| {
            let step = begin_step(
                "transform",
                "transform.annotate",
                Some(&Location::file("s", 2, 3)),
                [id(4)],
                100,
            );
            end_step(step, 101, 7, StepOutcome::Ok, "", module());
            // Unchanged edit count: no synthetic record.
            let quiet = begin_step("transform", "transform.match_op", None, [], 101);
            end_step(quiet, 101, 3, StepOutcome::Ok, "", module());
            // A count wound back by a rollback still moved.
            let undone = begin_step("txn", "interp.rollback", None, [], 101);
            end_step(undone, 96, 3, StepOutcome::RolledBack, "", module());
        });
        assert_eq!(journal.changes().len(), 2);
        assert_eq!(journal.changes()[0].kind, ChangeKind::Modified);
        assert_eq!(journal.changes()[0].op_name, "builtin.module");
        assert_eq!(journal.steps()[0].changes, 1);
        assert_eq!(journal.steps()[1].changes, 0);
        assert_eq!(journal.changes()[1].step, 2);
    }

    #[test]
    fn merge_rebases_step_indices() {
        let ((), a) = with_journal(|| {
            let s = begin_step("transform", "a", None, [], 1);
            record_change(ChangeKind::Created, id(1), sym("x"), 0);
            end_step(s, 2, 1, StepOutcome::Ok, "", None);
        });
        let ((), b) = with_journal(|| {
            let s = begin_step("transform", "b", None, [], 1);
            record_change(ChangeKind::Erased, id(2), sym("y"), 0);
            end_step(s, 3, 1, StepOutcome::Failed, "boom", None);
        });
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.steps().len(), 2);
        assert_eq!(merged.changes().len(), 2);
        assert_eq!(merged.changes()[1].step, 1, "rebased step reference");
        assert!(merged.to_json().contains("{\"seq\":1,\"step\":1,"));
        assert_eq!(merged.who_erased("#2v0").unwrap().name, "b");
        assert_eq!(merged.first_failure().unwrap().name, "b");
    }

    #[test]
    fn summary_ranks_by_ops_touched() {
        let ((), journal) = with_journal(|| {
            for _ in 0..2 {
                let s = begin_step("transform", "busy", None, [], 1);
                record_change(ChangeKind::Created, id(1), sym("x"), 0);
                record_change(ChangeKind::Created, id(2), sym("x"), 0);
                end_step(s, 2, 10, StepOutcome::Ok, "", None);
            }
            let s = begin_step("transform", "quiet", None, [], 2);
            end_step(s, 2, 100, StepOutcome::Failed, "nope", None);
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
                Some(&Location::file("loc", 1, 1)),
                [id(1)],
                5,
            );
            record_change(ChangeKind::Replaced, id(2), sym("scf.for"), 2);
            end_step(
                s,
                6,
                42,
                StepOutcome::FailedSilenceable,
                "msg\twith\ttabs",
                None,
            );
        });
        journal.add_artifact("bisect", "job0", "module {\n}\n");
        let json = journal.to_json();
        validate_json(&json).expect("journal JSON is well-formed");
        assert!(json.contains("\"failed-silenceable\""));
        assert!(json.contains("\"summary\""));
        assert!(json.contains("\\u0001"));
        assert!(json.contains(
            "\"changes\":[{\"seq\":0,\"step\":0,\"kind\":\"replaced\",\"op\":\"#2v0\",\
             \"op_name\":\"scf.for\",\"detail\":\"-> 2 value(s)\"}]"
        ));
        assert!(json.contains("\"location\":\"loc:1:1\",\"handles\":[\"#1v0\"],\"depth\":0"));
        assert!(json.contains("\"message\":\"msg\\twith\\ttabs\",\"changes\":1}"));
        assert!(json.contains("\"artifacts\":[{\"kind\":\"bisect\",\"label\":\"job0\","));
    }

    #[test]
    fn tail_json_keeps_the_last_records_with_their_sequence_numbers() {
        let ((), journal) = with_journal(|| {
            for name in ["a", "b", "c"] {
                let s = begin_step("pass", name, None, [], 0);
                record_change(ChangeKind::Created, id(1), sym(name), 0);
                end_step(s, 1, 1, StepOutcome::Ok, "", None);
            }
        });
        let tail = journal.tail_json(2);
        validate_json(&tail).expect("tail JSON is well-formed");
        assert!(!tail.contains("\"name\":\"a\""));
        assert!(tail.contains("{\"seq\":1,\"step\":1,"));
        assert!(tail.contains("\"location\":\"\""));
        assert_eq!(
            journal.tail_json(0),
            "{\"steps\":[],\"changes\":[],\"artifacts\":[]}"
        );
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
            let _outer = begin_step("transform", "outer", None, [], 1);
            let _inner = begin_step("transform", "inner", None, [], 2);
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
            let s = begin_step("transform", "t", None, [], 1);
            end_step(s, 1, 1, StepOutcome::RolledBack, "rolled back", None);
        });
        assert_eq!(journal.first_failure().unwrap().name, "t");
        assert!(journal.to_json().contains("\"rolled-back\""));
    }

    #[test]
    fn job_and_request_stamps_land_on_steps() {
        let ((), journal) = with_journal(|| {
            set_job(Some(3));
            set_request("ci/run-1");
            for _ in 0..2 {
                let s = begin_step("transform", "t", None, [], 1);
                end_step(s, 1, 1, StepOutcome::Ok, "", None);
            }
            set_job(None);
            set_request("");
            let s = begin_step("transform", "t", None, [], 1);
            end_step(s, 1, 1, StepOutcome::Ok, "", None);
        });
        let [first, second, third] = journal.steps() else {
            panic!("three steps: {:?}", journal.steps());
        };
        assert_eq!(first.job, Some(3));
        assert_eq!(first.request.as_deref(), Some("ci/run-1"));
        let (a, b) = (first.request.as_ref(), second.request.as_ref());
        assert!(Arc::ptr_eq(a.unwrap(), b.unwrap()), "one shared copy");
        assert_eq!((third.job, third.request.as_deref()), (None, None));
        let json = journal.to_json();
        assert_eq!(json.matches("\"request\":\"ci/run-1\"").count(), 2);
    }

    #[test]
    fn a_taken_journal_leaves_its_grown_buffer_for_the_next_one() {
        let record = |n: u32| {
            let s = begin_step("pass", "p", None, [], 0);
            for i in 0..n {
                record_change(ChangeKind::Created, id(i), sym("x"), 0);
            }
            end_step(s, 0, 1, StepOutcome::Ok, "", None);
        };
        let ((), first) = with_journal(|| record(100));
        assert_eq!(first.changes().len(), 100);
        assert_eq!(first.changes()[99].op, id(99));
        let spare = SPARE.take();
        assert!(
            spare.is_empty() && spare.capacity() >= 100,
            "{}",
            spare.capacity()
        );
        SPARE.set(spare);
        let ((), second) = with_journal(|| {
            record(3);
            assert_eq!(SPARE.take().capacity(), 0, "the buffer is in use");
        });
        assert_eq!(second.changes().len(), 3);
        assert!(SPARE.take().capacity() >= 100, "and back after the take");
    }

    #[test]
    fn a_lent_collector_comes_back_with_its_open_frame_and_stamps() {
        let ((), journal) = with_journal(|| {
            set_job(Some(3));
            let outer = begin_step("transform", "outer", None, [], 1);
            let lent = lend();
            assert!(!recording(), "the stand-in starts with no frame open");
            let inner = begin_step("transform", "inner", None, [], 1);
            end_step(inner, 1, 1, StepOutcome::Ok, "", None);
            let meanwhile = reclaim(lent);
            assert_eq!(meanwhile.steps().len(), 1);
            assert_eq!(meanwhile.steps()[0].job, None, "stamps are lent too");
            assert!(recording(), "the open frame is back");
            end_step(outer, 1, 1, StepOutcome::Ok, "", None);
        });
        let [outer] = journal.steps() else {
            panic!("only the caller's own step: {:?}", journal.steps());
        };
        assert_eq!((outer.name.as_str(), outer.job), ("outer", Some(3)));
        assert_eq!(outer.outcome, StepOutcome::Ok);
    }
}
