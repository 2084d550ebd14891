//! Structured tracing: hierarchical spans with key/value events, exportable
//! as a human-readable tree or as Chrome `trace_event` JSON (loadable in
//! `chrome://tracing` and Perfetto), plus the [`Instrumentation`] hook trait
//! that the pass manager and the transform interpreter call into.
//!
//! The design mirrors upstream MLIR's observability stack: spans play the
//! role of the pass-timing tree, instant events carry the interpreter's
//! handle lifecycle (allocation, consumption, invalidation), and the
//! [`PrintIr`] instrumentation reproduces `-mlir-print-ir-before/after`
//! including the print-only-on-change mode backed by a cheap IR fingerprint.
//!
//! Everything is driven by environment variables so call sites need no
//! plumbing:
//!
//! * `TD_TRACE=out.json` — enable tracing; drivers flush the Chrome trace
//!   to that path via [`write_env_trace`];
//! * `TD_PRINT_IR_BEFORE` / `TD_PRINT_IR_AFTER` — comma-separated pass (or
//!   transform-op) names, `all`, and/or `changed` (fingerprint-gated);
//! * `TD_REMARKS` — see [`crate::diag`]'s remark stream.
//!
//! The collector is thread-local (like [`crate::metrics`]): parallel tests
//! never mix streams and nothing locks on hot paths. When tracing is
//! disabled, span guards still measure wall-clock time — the pass manager
//! reuses that single measurement for its own timing report and for the
//! metrics registry, so the three clocks can never disagree.
//!
//! ```
//! use td_support::trace;
//! trace::reset();
//! trace::set_enabled(true);
//! {
//!     let _outer = trace::span("pass", "canonicalize");
//!     trace::instant("handle", "handle.invalidated", &[("reason", "consumed".into())]);
//! }
//! let snapshot = trace::snapshot();
//! assert_eq!(snapshot.events().len(), 2);
//! assert!(snapshot.to_chrome_json().contains("\"canonicalize\""));
//! trace::set_enabled(false);
//! ```

use crate::diag::Remark;
use crate::metrics::json_string;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Events and the thread-local collector
// ---------------------------------------------------------------------------

/// What kind of trace event a record is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A duration span (Chrome `ph: "X"` complete event).
    Span {
        /// Duration in nanoseconds.
        dur_ns: u128,
    },
    /// A point-in-time event (Chrome `ph: "i"` instant event).
    Instant,
}

/// One recorded trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Category (`pass`, `transform`, `rewrite`, `handle`, `remark`, ...).
    pub cat: String,
    /// Event name.
    pub name: String,
    /// Start time in nanoseconds relative to the trace epoch.
    pub start_ns: u128,
    /// Nesting depth at the time the event began (0 = top level).
    pub depth: usize,
    /// Logical thread lane in the Chrome export (1 = the recording thread;
    /// worker traces merged via [`adopt`] get their own lanes).
    pub tid: u32,
    /// Span or instant.
    pub kind: EventKind,
    /// Structured key/value arguments.
    pub args: Vec<(String, String)>,
}

impl TraceEvent {
    /// When the event ended, on its trace's clock (its start, for an instant).
    pub fn end_ns(&self) -> u128 {
        match self.kind {
            EventKind::Span { dur_ns } => self.start_ns + dur_ns,
            EventKind::Instant => self.start_ns,
        }
    }
}

/// The default thread lane for events recorded on the current thread.
pub const MAIN_TID: u32 = 1;

/// An immutable snapshot of a trace stream with its exporters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Builds a trace from explicit events (deterministic tests, replay).
    pub fn from_events(events: Vec<TraceEvent>) -> Trace {
        Trace { events }
    }

    /// The recorded events. Spans are recorded when they *end*, so the
    /// vector is not in start order; exporters sort as needed.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events sorted by thread lane then start time, parents before their
    /// children within a lane.
    pub fn ordered(&self) -> Vec<&TraceEvent> {
        let mut out: Vec<&TraceEvent> = self.events.iter().collect();
        out.sort_by_key(|e| (e.tid, e.start_ns, e.depth));
        out
    }

    /// Appends all of `other`'s events to this trace, preserving their
    /// thread lanes. Exporters interleave lanes by `tid`.
    pub fn merge(&mut self, other: &Trace) {
        self.events.extend(other.events.iter().cloned());
    }

    /// Appends `other`'s events retagged onto thread lane `tid`. This is
    /// how a worker thread's span buffer joins the parent trace: the
    /// worker records into its own thread-local collector, hands the
    /// [`take`]n trace back, and the coordinator adopts it under a worker
    /// lane so the Chrome export shows one track per worker.
    pub fn merge_as_thread(&mut self, other: &Trace, tid: u32) {
        self.events
            .extend(other.events.iter().cloned().map(|mut e| {
                e.tid = tid;
                e
            }));
    }

    /// Serializes as Chrome `trace_event` JSON:
    /// `{"traceEvents": [...]}` with `ph: "X"` complete events for spans
    /// (microsecond timestamps, as the format requires) and `ph: "i"`
    /// thread-scoped instant events. Load the file in `chrome://tracing`
    /// or <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, event) in self.ordered().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts_us = event.start_ns as f64 / 1_000.0;
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"pid\":1,\"tid\":{},\"ts\":{ts_us:.3}",
                json_string(&event.name),
                json_string(&event.cat),
                event.tid,
            );
            match event.kind {
                EventKind::Span { dur_ns } => {
                    let dur_us = dur_ns as f64 / 1_000.0;
                    let _ = write!(out, ",\"ph\":\"X\",\"dur\":{dur_us:.3}");
                }
                EventKind::Instant => out.push_str(",\"ph\":\"i\",\"s\":\"t\""),
            }
            out.push_str(",\"args\":{");
            for (j, (key, value)) in event.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_string(key), json_string(value));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Renders a human-readable tree: spans indented by nesting depth with
    /// durations, instant events marked `!`.
    ///
    /// ```text
    /// • pass canonicalize [1.203ms]
    ///   • rewrite greedy [1.100ms]
    ///   ! handle.invalidated {handle=#3v0, reason=consumed by ...}
    /// ```
    pub fn to_tree_string(&self) -> String {
        let mut out = String::new();
        for event in self.ordered() {
            if event.tid != MAIN_TID {
                let _ = write!(out, "t{} ", event.tid);
            }
            for _ in 0..event.depth {
                out.push_str("  ");
            }
            match event.kind {
                EventKind::Span { dur_ns } => {
                    let _ = write!(out, "• {} {}", event.cat, event.name);
                    let _ = write!(out, " [{:.3}ms]", dur_ns as f64 / 1e6);
                }
                EventKind::Instant => {
                    let _ = write!(out, "! {}", event.name);
                }
            }
            if !event.args.is_empty() {
                out.push_str(" {");
                for (j, (key, value)) in event.args.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{key}={value}");
                }
                out.push('}');
            }
            out.push('\n');
        }
        out
    }
}

struct Collector {
    epoch: Instant,
    events: Vec<TraceEvent>,
    depth: usize,
}

impl Collector {
    fn new(epoch: Instant) -> Self {
        Collector {
            epoch,
            events: Vec::new(),
            depth: 0,
        }
    }
}

thread_local! {
    static COLLECTOR: RefCell<Collector> = RefCell::new(Collector::new(Instant::now()));
    /// Thread-local override of the env-derived enablement.
    static ENABLED_OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };
    /// Cached `TD_TRACE` presence: `enabled()` sits on per-transform-op hot
    /// paths, so the env lookup happens once per thread. Changing the env
    /// var mid-process does not retarget a thread that already traced; use
    /// [`set_enabled`] for dynamic control.
    static ENV_ENABLED: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Whether the `TD_TRACE` environment variable requests tracing.
pub fn env_trace_path() -> Option<String> {
    std::env::var("TD_TRACE").ok().filter(|p| !p.is_empty())
}

/// Whether tracing is enabled on this thread (explicit
/// [`set_enabled`] override, else the presence of `TD_TRACE` or
/// `TD_PROFILE` — the profiler folds trace spans, so asking for a
/// profile implies collecting the trace).
pub fn enabled() -> bool {
    if let Some(explicit) = ENABLED_OVERRIDE.with(Cell::get) {
        return explicit;
    }
    ENV_ENABLED.with(|cache| match cache.get() {
        Some(enabled) => enabled,
        None => {
            let enabled =
                env_trace_path().is_some() || crate::profile::env_profile_path().is_some();
            cache.set(Some(enabled));
            enabled
        }
    })
}

/// Enables or disables tracing on this thread, overriding `TD_TRACE`.
pub fn set_enabled(enabled: bool) {
    ENABLED_OVERRIDE.with(|o| o.set(Some(enabled)));
}

/// Clears the thread-local enablement override (back to env-driven).
pub fn clear_enabled_override() {
    ENABLED_OVERRIDE.with(|o| o.set(None));
}

/// A span guard: measures wall-clock time from construction, and — when
/// tracing was enabled at construction — records a span event when ended
/// (explicitly via [`SpanGuard::end`] or on drop).
#[must_use = "dropping immediately records a zero-length span"]
pub struct SpanGuard {
    cat: &'static str,
    name: String,
    args: Vec<(String, String)>,
    start: Instant,
    start_ns: u128,
    depth: usize,
    /// Whether this guard owns a slot in the thread-local collector.
    active: bool,
    finished: bool,
}

impl SpanGuard {
    /// Ends the span, recording it if active, and returns its duration.
    /// The duration is measured exactly once — callers that also feed a
    /// metrics timer or a timing report reuse this value, which is what
    /// keeps the trace, the metrics registry, and `PassManager::timings`
    /// consistent by construction.
    pub fn end(mut self) -> Duration {
        self.finish()
    }

    /// Attaches a key/value argument to the span (recorded at end).
    pub fn arg(&mut self, key: &str, value: impl Into<String>) {
        self.args.push((key.to_owned(), value.into()));
    }

    fn finish(&mut self) -> Duration {
        let elapsed = self.start.elapsed();
        if self.finished {
            return elapsed;
        }
        self.finished = true;
        if self.active {
            COLLECTOR.with(|c| {
                let mut c = c.borrow_mut();
                c.depth = c.depth.saturating_sub(1);
                let event = TraceEvent {
                    cat: self.cat.to_owned(),
                    name: std::mem::take(&mut self.name),
                    start_ns: self.start_ns,
                    depth: self.depth,
                    tid: MAIN_TID,
                    kind: EventKind::Span {
                        dur_ns: elapsed.as_nanos(),
                    },
                    args: std::mem::take(&mut self.args),
                };
                c.events.push(event);
            });
        }
        elapsed
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Opens a span in category `cat` named `name`. Always measures time;
/// records into the trace only when [`enabled`].
pub fn span(cat: &'static str, name: impl Into<String>) -> SpanGuard {
    let active = enabled();
    // One clock read: the recorded start and the measured duration both
    // derive from `start`, so a span cannot seem to end before one it
    // encloses, however long the name conversion takes.
    let name = name.into();
    let start = Instant::now();
    let (start_ns, depth) = if active {
        COLLECTOR.with(|c| {
            let mut c = c.borrow_mut();
            let start_ns = start.saturating_duration_since(c.epoch).as_nanos();
            let depth = c.depth;
            c.depth += 1;
            (start_ns, depth)
        })
    } else {
        (0, 0)
    };
    SpanGuard {
        cat,
        name,
        args: Vec::new(),
        start,
        start_ns,
        depth,
        active,
        finished: false,
    }
}

/// Records a span retroactively: a duration event of length `dur` ending
/// *now*, at the current nesting depth. This is for phases whose start
/// predates the recording thread — td-serve's queue-wait span starts when
/// a job is admitted (on the connection thread) but is recorded by the
/// worker that finally dequeues it, so a live [`span`] guard cannot
/// bracket it. No-op when tracing is disabled.
pub fn complete(
    cat: &'static str,
    name: impl Into<String>,
    dur: Duration,
    args: &[(&str, String)],
) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let now_ns = c.epoch.elapsed().as_nanos();
        let depth = c.depth;
        c.events.push(TraceEvent {
            cat: cat.to_owned(),
            name: name.into(),
            start_ns: now_ns.saturating_sub(dur.as_nanos()),
            depth,
            tid: MAIN_TID,
            kind: EventKind::Span {
                dur_ns: dur.as_nanos(),
            },
            args: args
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        });
    });
}

/// Records an instant event (no duration) at the current nesting depth.
/// No-op when tracing is disabled.
pub fn instant(cat: &'static str, name: &str, args: &[(&str, String)]) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let start_ns = c.epoch.elapsed().as_nanos();
        let depth = c.depth;
        c.events.push(TraceEvent {
            cat: cat.to_owned(),
            name: name.to_owned(),
            start_ns,
            depth,
            tid: MAIN_TID,
            kind: EventKind::Instant,
            args: args
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        });
    });
}

/// A copy of this thread's trace.
pub fn snapshot() -> Trace {
    COLLECTOR.with(|c| Trace {
        events: c.borrow().events.clone(),
    })
}

/// Takes (returns and clears) this thread's trace.
pub fn take() -> Trace {
    COLLECTOR.with(|c| Trace {
        events: std::mem::take(&mut c.borrow_mut().events),
    })
}

/// Clears this thread's trace and restarts its epoch.
pub fn reset() {
    reset_at(Instant::now());
}

/// The instant this thread's timestamps count from.
pub fn epoch() -> Instant {
    COLLECTOR.with(|c| c.borrow().epoch)
}

/// Clears this thread's trace and sets its epoch: a worker passes the
/// [`epoch`] of the thread that will [`adopt`] it, so both read one clock.
pub fn reset_at(epoch: Instant) {
    COLLECTOR.with(|c| *c.borrow_mut() = Collector::new(epoch));
}

/// Adopts a trace recorded on another thread into this thread's collector,
/// retagged onto lane `tid` (use a value > [`MAIN_TID`]). Without this,
/// spans recorded off the main thread die with their thread-local buffer
/// and never reach the Chrome export written by [`write_env_trace`].
///
/// Timestamps are not rebased: they stay relative to the epoch of the
/// collector that recorded them, which is a fresh one per thread unless
/// the worker started with [`reset_at`] on the adopter's [`epoch`].
pub fn adopt(other: &Trace, tid: u32) {
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        c.events.extend(other.events.iter().cloned().map(|mut e| {
            e.tid = tid;
            e
        }));
    });
}

/// Writes this thread's trace as Chrome `trace_event` JSON to the path in
/// `TD_TRACE`, if set. Returns the path written to. Drivers (benches, the
/// smoke binary) call this once before exiting.
///
/// # Errors
/// I/O failures are reported with the offending `TD_TRACE` path in the
/// message (a bare `io::Error` would leave the user guessing which file
/// the driver tried to write).
pub fn write_env_trace() -> std::io::Result<Option<String>> {
    let Some(path) = env_trace_path() else {
        return Ok(None);
    };
    write_trace_to(&path)?;
    Ok(Some(path))
}

/// Writes this thread's trace as Chrome `trace_event` JSON to `path`.
///
/// # Errors
/// I/O failures carry the offending path in the message (see
/// [`write_env_trace`]).
pub fn write_trace_to(path: &str) -> std::io::Result<()> {
    std::fs::write(path, snapshot().to_chrome_json()).map_err(|e| {
        std::io::Error::new(
            e.kind(),
            format!("cannot write TD_TRACE trace to '{path}': {e}"),
        )
    })
}

// ---------------------------------------------------------------------------
// Minimal JSON validation (std-only, for CI trace-file checks)
// ---------------------------------------------------------------------------

/// Validates that `input` is one well-formed JSON value (object, array,
/// string, number, bool, or null) with nothing but whitespace after it.
/// This is a *validator*, not a parser — CI uses it to check emitted trace
/// files without any external JSON dependency.
///
/// # Errors
/// Returns a byte offset and message for the first syntax error.
pub fn validate_json(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    validate_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn validate_value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'{') => {
            *pos += 1;
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(bytes, pos);
                validate_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                validate_value(bytes, pos)?;
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                validate_value(bytes, pos)?;
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => validate_string(bytes, pos),
        Some(b't') => validate_literal(bytes, pos, "true"),
        Some(b'f') => validate_literal(bytes, pos, "false"),
        Some(b'n') => validate_literal(bytes, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => validate_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte '{}' at {pos}", *c as char)),
    }
}

fn validate_string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !bytes.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {pos}"));
                            }
                            *pos += 1;
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control character at byte {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_owned())
}

fn validate_literal(bytes: &[u8], pos: &mut usize, literal: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn validate_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |bytes: &[u8], pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    if !digits(bytes, pos) {
        return Err(format!("bad number at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(bytes, pos) {
            return Err(format!("bad number at byte {start}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(bytes, pos) {
            return Err(format!("bad number at byte {start}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The Instrumentation trait
// ---------------------------------------------------------------------------

/// A lazily printed / fingerprinted view of the IR at a hook point.
///
/// Printing a module is expensive, so hook callers hand instrumentations
/// closures instead of strings; nothing is computed unless a hook asks.
/// Fingerprints are context-relative structural hashes — equal before/after
/// a pass iff the pass left the IR untouched.
pub struct IrView<'a> {
    print: &'a dyn Fn() -> String,
    fingerprint: &'a dyn Fn() -> u64,
    cached_fingerprint: Cell<Option<u64>>,
}

impl<'a> IrView<'a> {
    /// Wraps lazy print and fingerprint closures.
    pub fn new(print: &'a dyn Fn() -> String, fingerprint: &'a dyn Fn() -> u64) -> Self {
        IrView {
            print,
            fingerprint,
            cached_fingerprint: Cell::new(None),
        }
    }

    /// Prints the IR (computed on demand).
    pub fn print(&self) -> String {
        (self.print)()
    }

    /// The IR's structural fingerprint (computed once, then cached).
    pub fn fingerprint(&self) -> u64 {
        if let Some(fp) = self.cached_fingerprint.get() {
            return fp;
        }
        let fp = (self.fingerprint)();
        self.cached_fingerprint.set(Some(fp));
        fp
    }
}

impl std::fmt::Debug for IrView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IrView").finish_non_exhaustive()
    }
}

/// A handle lifecycle event reported by the transform interpreter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HandleEvent {
    /// A handle was associated with payload ops or parameters.
    Allocated {
        /// Printed handle id (e.g. `#7v0`).
        handle: String,
        /// Number of payload entities mapped.
        num_entities: usize,
        /// `"ops"` or `"params"`.
        kind: &'static str,
    },
    /// A handle was invalidated (consumed, or aliased a consumed handle).
    Invalidated {
        /// Printed handle id.
        handle: String,
        /// Why (includes the consuming transform and location).
        reason: String,
    },
}

impl HandleEvent {
    /// The event's name in trace streams.
    pub fn name(&self) -> &'static str {
        match self {
            HandleEvent::Allocated { .. } => "handle.allocated",
            HandleEvent::Invalidated { .. } => "handle.invalidated",
        }
    }

    /// The event as trace-instant key/value args.
    pub fn args(&self) -> Vec<(&'static str, String)> {
        match self {
            HandleEvent::Allocated {
                handle,
                num_entities,
                kind,
            } => vec![
                ("handle", handle.clone()),
                ("n", num_entities.to_string()),
                ("kind", (*kind).to_owned()),
            ],
            HandleEvent::Invalidated { handle, reason } => {
                vec![("handle", handle.clone()), ("reason", reason.clone())]
            }
        }
    }
}

/// Hook points called by `PassManager::run` and the transform interpreter.
/// All methods default to no-ops; implement the ones you need.
///
/// The built-in implementation is [`PrintIr`]; the trace and remark streams
/// are fed directly by the callers (they are always-on channels, gated by
/// their own env config), so an `Instrumentation` only needs to exist for
/// *additional* behavior.
#[allow(unused_variables)]
pub trait Instrumentation {
    /// Before a pass runs on some root op.
    fn before_pass(&mut self, pass: &str, ir: &IrView<'_>) {}
    /// After a pass ran successfully.
    fn after_pass(&mut self, pass: &str, ir: &IrView<'_>) {}
    /// After a pass failed.
    fn pass_failed(&mut self, pass: &str, message: &str) {}
    /// After a post-pass verifier run (`ok` = verified clean).
    fn after_verify(&mut self, pass: &str, ok: bool) {}
    /// Before a transform op executes.
    fn before_transform(&mut self, name: &str, ir: &IrView<'_>) {}
    /// After a transform op executed successfully.
    fn after_transform(&mut self, name: &str, ir: &IrView<'_>) {}
    /// After a transform op failed (`silenceable` per the §3 error model).
    fn transform_failed(&mut self, name: &str, message: &str, silenceable: bool) {}
    /// A handle was allocated or invalidated.
    fn handle_event(&mut self, event: &HandleEvent) {}
    /// A silenceable error was suppressed by an enclosing construct.
    fn error_suppressed(&mut self, message: &str) {}
    /// A dynamic pre/post-condition check concluded.
    fn condition_check(&mut self, transform: &str, ok: bool, detail: &str) {}
    /// An optimization remark was emitted.
    fn remark(&mut self, remark: &Remark) {}
}

// ---------------------------------------------------------------------------
// PrintIr: IR snapshots before/after passes and transforms
// ---------------------------------------------------------------------------

/// Which hook points a [`PrintIr`] filter matches.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrintFilter {
    /// Match every pass/transform name.
    all: bool,
    /// Print only when the IR fingerprint changed since the last snapshot
    /// taken at the same side (before/after).
    only_on_change: bool,
    /// Explicit names to match (when `all` is false).
    names: Vec<String>,
}

impl PrintFilter {
    /// Parses a filter spec: comma-separated tokens where `all` matches
    /// everything, `changed` switches on the on-change gate, and any other
    /// token is a pass/transform name. `changed` alone implies `all`.
    pub fn parse(spec: &str) -> PrintFilter {
        let mut filter = PrintFilter::default();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            match token {
                "all" => filter.all = true,
                "changed" => filter.only_on_change = true,
                name => filter.names.push(name.to_owned()),
            }
        }
        if filter.only_on_change && filter.names.is_empty() {
            filter.all = true;
        }
        filter
    }

    /// Whether a spec was provided at all.
    pub fn is_active(&self) -> bool {
        self.all || !self.names.is_empty()
    }

    /// Whether this filter selects `name` (ignoring the on-change gate).
    pub fn matches(&self, name: &str) -> bool {
        self.all || self.names.iter().any(|n| n == name)
    }

    /// Whether the on-change gate is enabled.
    pub fn only_on_change(&self) -> bool {
        self.only_on_change
    }
}

/// Where [`PrintIr`] writes its snapshots.
enum PrintSink {
    Stderr,
    Buffer(std::sync::Arc<std::sync::Mutex<String>>),
}

/// The IR-snapshot instrumentation: reproduces MLIR's
/// `-mlir-print-ir-before/after` with per-pass filters and a
/// print-only-on-change mode backed by the IR fingerprint.
///
/// Construct [`PrintIr::from_env`] for `TD_PRINT_IR_BEFORE` /
/// `TD_PRINT_IR_AFTER` driven behavior (written to stderr), or
/// [`PrintIr::with_buffer`] to capture snapshots in tests.
pub struct PrintIr {
    before: PrintFilter,
    after: PrintFilter,
    sink: PrintSink,
    /// Fingerprint of the IR at the last *after* snapshot point, for the
    /// on-change gate. Keyed implicitly by time: compares the incoming
    /// fingerprint against the previous observation.
    last_fingerprint: Option<u64>,
}

impl PrintIr {
    /// Snapshots to stderr with the given before/after filters.
    pub fn new(before: PrintFilter, after: PrintFilter) -> Self {
        PrintIr {
            before,
            after,
            sink: PrintSink::Stderr,
            last_fingerprint: None,
        }
    }

    /// Snapshots into a shared string buffer (for tests and golden files).
    pub fn with_buffer(
        before: PrintFilter,
        after: PrintFilter,
        buffer: std::sync::Arc<std::sync::Mutex<String>>,
    ) -> Self {
        PrintIr {
            before,
            after,
            sink: PrintSink::Buffer(buffer),
            last_fingerprint: None,
        }
    }

    /// Builds from `TD_PRINT_IR_BEFORE` / `TD_PRINT_IR_AFTER`, or `None`
    /// when neither is set.
    pub fn from_env() -> Option<Self> {
        let before = std::env::var("TD_PRINT_IR_BEFORE")
            .map(|s| PrintFilter::parse(&s))
            .unwrap_or_default();
        let after = std::env::var("TD_PRINT_IR_AFTER")
            .map(|s| PrintFilter::parse(&s))
            .unwrap_or_default();
        if !before.is_active() && !after.is_active() {
            return None;
        }
        Some(PrintIr::new(before, after))
    }

    fn write(&self, text: &str) {
        match &self.sink {
            PrintSink::Stderr => eprint!("{text}"),
            PrintSink::Buffer(buffer) => {
                buffer
                    .lock()
                    .expect("print-ir buffer poisoned")
                    .push_str(text);
            }
        }
    }

    fn snapshot(&mut self, side: &str, name: &str, ir: &IrView<'_>, filter_side: Side) {
        let filter = match filter_side {
            Side::Before => &self.before,
            Side::After => &self.after,
        };
        if !filter.is_active() || !filter.matches(name) {
            return;
        }
        let fingerprint = ir.fingerprint();
        if filter.only_on_change() && self.last_fingerprint == Some(fingerprint) {
            self.last_fingerprint = Some(fingerprint);
            return;
        }
        self.last_fingerprint = Some(fingerprint);
        let header = format!("// -----// IR Dump {side} {name} //----- //\n");
        self.write(&format!("{header}{}\n", ir.print()));
    }
}

#[derive(Clone, Copy)]
enum Side {
    Before,
    After,
}

impl Instrumentation for PrintIr {
    fn before_pass(&mut self, pass: &str, ir: &IrView<'_>) {
        self.snapshot("Before", pass, ir, Side::Before);
    }
    fn after_pass(&mut self, pass: &str, ir: &IrView<'_>) {
        self.snapshot("After", pass, ir, Side::After);
    }
    fn before_transform(&mut self, name: &str, ir: &IrView<'_>) {
        self.snapshot("Before", name, ir, Side::Before);
    }
    fn after_transform(&mut self, name: &str, ir: &IrView<'_>) {
        self.snapshot("After", name, ir, Side::After);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        reset();
        set_enabled(true);
        let result = f();
        set_enabled(false);
        clear_enabled_override();
        result
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let trace = with_tracing(|| {
            let outer = span("pass", "outer");
            {
                let _inner = span("transform", "inner");
                instant("handle", "handle.invalidated", &[("handle", "#1v0".into())]);
            }
            let dur = outer.end();
            assert!(dur.as_nanos() > 0);
            take()
        });
        let ordered = trace.ordered();
        assert_eq!(ordered.len(), 3);
        assert_eq!(ordered[0].name, "outer");
        assert_eq!(ordered[0].depth, 0);
        assert_eq!(ordered[1].name, "inner");
        assert_eq!(ordered[1].depth, 1);
        assert_eq!(ordered[2].name, "handle.invalidated");
        assert_eq!(ordered[2].depth, 2);
        assert!(matches!(ordered[2].kind, EventKind::Instant));
    }

    /// A name whose conversion to `String` takes 5 ms.
    struct SlowName;

    impl From<SlowName> for String {
        fn from(_: SlowName) -> String {
            std::thread::sleep(Duration::from_millis(5));
            "slow".to_owned()
        }
    }

    #[test]
    fn a_span_ends_no_earlier_than_the_spans_it_encloses() {
        let trace = with_tracing(|| {
            let outer = span("pass", SlowName);
            drop(span("pass", "inner"));
            drop(outer);
            take()
        });
        let ordered = trace.ordered();
        let (outer, inner) = (&ordered[0], &ordered[1]);
        assert_eq!(
            (outer.name.as_str(), inner.name.as_str()),
            ("slow", "inner")
        );
        assert!(
            outer.end_ns() >= inner.end_ns(),
            "outer ends at {} ns, before the inner span it encloses ({} ns)",
            outer.end_ns(),
            inner.end_ns()
        );
    }

    #[test]
    fn disabled_spans_still_measure_but_record_nothing() {
        reset();
        set_enabled(false);
        let guard = span("pass", "quiet");
        let dur = guard.end();
        assert!(dur.as_nanos() > 0);
        assert!(snapshot().is_empty());
        clear_enabled_override();
    }

    #[test]
    fn chrome_json_is_valid_and_carries_args() {
        let trace = with_tracing(|| {
            let mut s = span("pass", "canonicalize");
            s.arg("root", "module");
            drop(s);
            instant("remark", "applied", &[("origin", "loop.tile".into())]);
            take()
        });
        let json = trace.to_chrome_json();
        validate_json(&json).expect("chrome export is well-formed JSON");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"root\":\"module\""));
        assert!(json.contains("\"origin\":\"loop.tile\""));
    }

    #[test]
    fn tree_export_indents_by_depth() {
        let trace = with_tracing(|| {
            let outer = span("pass", "outer");
            {
                let _inner = span("rewrite", "greedy");
            }
            drop(outer);
            take()
        });
        let tree = trace.to_tree_string();
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("• pass outer ["));
        assert!(lines[1].starts_with("  • rewrite greedy ["));
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        validate_json("{\"a\":[1,2.5,-3e2,true,null,\"x\\n\"]}").unwrap();
        validate_json("  {} ").unwrap();
        assert!(validate_json("").is_err());
        assert!(validate_json("{").is_err());
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("{} trailing").is_err());
        assert!(validate_json("\"unterminated").is_err());
    }

    #[test]
    fn print_filter_parses_specs() {
        let all = PrintFilter::parse("all");
        assert!(all.is_active() && all.matches("anything") && !all.only_on_change());
        let changed = PrintFilter::parse("changed");
        assert!(changed.is_active() && changed.matches("x") && changed.only_on_change());
        let named = PrintFilter::parse("canonicalize, cse");
        assert!(named.matches("cse") && !named.matches("other"));
        assert!(!PrintFilter::parse("").is_active());
    }

    #[test]
    fn print_ir_on_change_elides_unchanged_snapshots() {
        let buffer = Arc::new(Mutex::new(String::new()));
        let mut print_ir = PrintIr::with_buffer(
            PrintFilter::default(),
            PrintFilter::parse("all,changed"),
            Arc::clone(&buffer),
        );
        let print_a = || "ir-state-a".to_owned();
        let fp_a = || 1u64;
        let fp_b = || 2u64;
        let view_a1 = IrView::new(&print_a, &fp_a);
        let view_a2 = IrView::new(&print_a, &fp_a);
        let view_b = IrView::new(&print_a, &fp_b);
        print_ir.after_pass("p1", &view_a1);
        print_ir.after_pass("p2", &view_a2); // unchanged: elided
        print_ir.after_pass("p3", &view_b);
        let output = buffer.lock().unwrap().clone();
        assert!(output.contains("IR Dump After p1"));
        assert!(!output.contains("IR Dump After p2"), "output: {output}");
        assert!(output.contains("IR Dump After p3"));
    }

    #[test]
    fn adopt_merges_worker_thread_events_into_parent_export() {
        let trace = with_tracing(|| {
            // An epoch well in the past: a worker on a clock of its own
            // would stamp its first span near zero.
            reset_at(Instant::now() - Duration::from_millis(50));
            let clock = epoch();
            let coordinator = span("sched", "batch");
            // A worker thread records into its own collector, on the
            // coordinator's clock, and hands the trace back; without
            // adopt() these events would be dropped.
            let worker_trace = std::thread::spawn(move || {
                reset_at(clock);
                set_enabled(true);
                {
                    let _s = span("sched.job", "job-0");
                }
                take()
            })
            .join()
            .unwrap();
            adopt(&worker_trace, 2);
            drop(coordinator);
            take()
        });
        let json = trace.to_chrome_json();
        validate_json(&json).unwrap();
        assert!(json.contains("\"tid\":1"), "coordinator lane: {json}");
        assert!(json.contains("\"tid\":2"), "worker lane: {json}");
        assert!(json.contains("\"job-0\""));
        let tree = trace.to_tree_string();
        assert!(tree.contains("t2 "), "worker lane marked in tree: {tree}");
        let start_of = |name: &str| {
            let event = trace.events().iter().find(|e| e.name == name);
            event.expect("span recorded").start_ns
        };
        assert!(
            start_of("batch") <= start_of("job-0"),
            "the worker's lane reads the coordinator's clock"
        );
    }

    #[test]
    fn trace_merge_preserves_and_retags_lanes() {
        let a = with_tracing(|| {
            {
                let _s = span("pass", "main-side");
            }
            take()
        });
        let b = with_tracing(|| {
            {
                let _s = span("pass", "worker-side");
            }
            take()
        });
        let mut merged = a.clone();
        merged.merge_as_thread(&b, 3);
        assert_eq!(merged.events().len(), 2);
        assert!(merged.events().iter().any(|e| e.tid == MAIN_TID));
        assert!(merged
            .events()
            .iter()
            .any(|e| e.tid == 3 && e.name == "worker-side"));
        let mut plain = a;
        plain.merge(&b);
        assert!(plain.events().iter().all(|e| e.tid == MAIN_TID));
    }

    #[test]
    fn ir_view_caches_fingerprint() {
        use std::cell::Cell;
        let calls = Cell::new(0u32);
        let print = || String::new();
        let fp = || {
            calls.set(calls.get() + 1);
            42u64
        };
        let view = IrView::new(&print, &fp);
        assert_eq!(view.fingerprint(), 42);
        assert_eq!(view.fingerprint(), 42);
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn unwritable_trace_path_reports_the_path() {
        let path = "/definitely/not/a/writable/dir/trace.json";
        let err = write_trace_to(path).unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains(path),
            "diagnostic names the offending path: {message}"
        );
        assert!(
            message.contains("TD_TRACE"),
            "diagnostic names the env var: {message}"
        );
    }
}
