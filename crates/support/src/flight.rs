//! The crash flight recorder: an always-on, fixed-size ring buffer of
//! recent structured events that turns "the job died" into a post-mortem
//! you can read.
//!
//! Aviation flight recorders keep only the last few minutes — that is the
//! entire design here too. Recording appends a small struct to a
//! thread-local ring of [`RING_CAPACITY`] slots and never allocates beyond
//! it, so the recorder stays enabled in production (the overhead budget is
//! "within measurement noise", enforced by the `obs_smoke` CI gate). When
//! something goes definitively wrong — a contained panic, a definite
//! transform failure, a deadline expiry — [`dump`] writes a self-contained
//! artifact bundle to `TD_FLIGHT_DIR`:
//!
//! * the ring's events, oldest first (step begin/end, rollbacks, faults
//!   fired, cache hits/misses, deadline expiries);
//! * the thread's metrics registry (counters, timers, histograms);
//! * the tail of the provenance journal (when `TD_JOURNAL` recording is
//!   on) including any minimized-repro bisect artifacts a caller attached
//!   to it, plus a `repro` pointer naming the most recent one — `null`
//!   when there is none, which is every td-serve job: the daemon bisects
//!   a failed job only when asked, so its repro is not in the bundle but
//!   one request away, `ARTIFACT kind=bisect` for the same job;
//! * the caller's `extra` attribution (failing transform name, handles,
//!   payload fingerprint).
//!
//! The ring is per thread, so a bundle replays the thread that captures
//! it: td-serve's `flight` artifact, captured by a pool worker once the
//! engine returns ([`capture`]) and rendered by the first request for it
//! ([`Captured::render`]), holds the failed job's steps because td-sched
//! runs a single-miss batch on the thread that submitted it.
//!
//! Without `TD_FLIGHT_DIR` the dump is a no-op, so the recorder costs one
//! branch plus a ring write per event. Dumps are capped process-wide
//! ([`DUMP_CAP`]) so a pathological batch cannot fill a disk, and
//! [`suppressed`] turns the recorder off around code that fails *on
//! purpose* (the failure bisector's probes).

use crate::metrics::json_string;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Ring size: enough to replay the recent schedule around a failure
/// (a step contributes 2 events) without the bundle outgrowing a screen.
pub const RING_CAPACITY: usize = 256;

/// Process-wide cap on dump files: chaos batches fail by design, and a
/// bounded artifact directory beats a full disk.
pub const DUMP_CAP: u64 = 16;

/// How many journal steps/changes/artifacts the bundle's tail keeps.
pub const JOURNAL_TAIL: usize = 32;

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic per-thread sequence number (never resets on ring wrap, so
    /// a dump shows how many events were dropped before the window).
    pub seq: u64,
    /// Nanoseconds since the thread's recorder epoch.
    pub t_ns: u128,
    /// Event kind: `step.begin`, `step.end`, `step.failed`, `rollback`,
    /// `fault.fired`, `cache.hit`, `cache.miss`, `deadline.expired`, ...
    pub kind: &'static str,
    /// Structured attribution (transform name, handles, fingerprints...).
    pub args: Vec<(&'static str, String)>,
}

struct Recorder {
    epoch: Instant,
    ring: Vec<FlightEvent>,
    /// Next write position in `ring` once it reaches capacity.
    head: usize,
    seq: u64,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            ring: Vec::new(),
            head: 0,
            seq: 0,
        }
    }

    fn push(&mut self, kind: &'static str, args: Vec<(&'static str, String)>) {
        let event = FlightEvent {
            seq: self.seq,
            t_ns: self.epoch.elapsed().as_nanos(),
            kind,
            args,
        };
        self.seq += 1;
        if self.ring.len() < RING_CAPACITY {
            self.ring.push(event);
        } else {
            self.ring[self.head] = event;
            self.head = (self.head + 1) % RING_CAPACITY;
        }
    }

    /// Events oldest-first (unwraps the ring).
    fn ordered(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::new());
    /// Depth of nested [`suppressed`] scopes (0 = recording).
    static SUPPRESS: Cell<u32> = const { Cell::new(0) };
    /// Thread-local enablement override (None = always on).
    static ENABLED_OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Dumps written so far, process-wide (also numbers the dump files).
static DUMPS: AtomicU64 = AtomicU64::new(0);

/// Whether the recorder is on for this thread. The recorder is always-on
/// by default; [`set_enabled`] exists for overhead measurement and
/// [`suppressed`] for intentionally-failing probes.
pub fn enabled() -> bool {
    if SUPPRESS.with(Cell::get) > 0 {
        return false;
    }
    ENABLED_OVERRIDE.with(Cell::get).unwrap_or(true)
}

/// Overrides the always-on default for this thread.
pub fn set_enabled(enabled: bool) {
    ENABLED_OVERRIDE.with(|o| o.set(Some(enabled)));
}

/// Clears the [`set_enabled`] override (back to always-on).
pub fn clear_enabled_override() {
    ENABLED_OVERRIDE.with(|o| o.set(None));
}

/// Runs `f` with the recorder suppressed: no events are recorded and no
/// dumps are written. The failure bisector wraps its probes in this —
/// each probe *intentionally* reproduces the failure, and a bisection
/// would otherwise burn the whole [`DUMP_CAP`] re-dumping one crash.
pub fn suppressed<R>(f: impl FnOnce() -> R) -> R {
    SUPPRESS.with(|s| s.set(s.get() + 1));
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SUPPRESS.with(|s| s.set(s.get().saturating_sub(1)));
        }
    }
    let _guard = Guard;
    f()
}

/// Records an event into this thread's ring. Near-zero cost: one branch
/// when suppressed/disabled, a bounded ring write otherwise.
pub fn record(kind: &'static str, args: &[(&'static str, String)]) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| r.borrow_mut().push(kind, args.to_vec()));
}

/// This thread's recent events, oldest first.
pub fn snapshot_events() -> Vec<FlightEvent> {
    RECORDER.with(|r| r.borrow().ordered())
}

/// Total events ever recorded on this thread (including ones the ring has
/// since dropped).
pub fn recorded_total() -> u64 {
    RECORDER.with(|r| r.borrow().seq)
}

/// Clears this thread's ring and restarts its epoch.
pub fn reset() {
    RECORDER.with(|r| *r.borrow_mut() = Recorder::new());
}

/// The `TD_FLIGHT_DIR` dump directory, if set.
pub fn env_flight_dir() -> Option<String> {
    std::env::var("TD_FLIGHT_DIR")
        .ok()
        .filter(|p| !p.is_empty())
}

/// Serializes one event with stable field order.
fn event_json(event: &FlightEvent) -> String {
    let mut out = format!(
        "{{\"seq\":{},\"t_ns\":{},\"kind\":{},\"args\":{{",
        event.seq,
        event.t_ns,
        json_string(event.kind)
    );
    for (i, (key, value)) in event.args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_string(key), json_string(value));
    }
    out.push_str("}}");
    out
}

/// Builds the self-contained bundle JSON (also used by tests, which
/// validate it without touching the filesystem): [`capture`] rendered at
/// once. The `repro` key is always present: the label of the last `bisect`
/// artifact in this thread's journal, or `null` (see the module docs for
/// where a td-serve job's repro lives).
pub fn bundle_json(reason: &str, extra: &[(&str, String)]) -> String {
    capture(reason, extra).render()
}

/// A bundle's material, copied off this thread: the ring's events, the
/// metrics registry and the journal as they stand, with the caller's
/// `reason` and `extra` attribution. Capturing copies and renders nothing
/// else; [`Captured::render`] produces, on any thread and at any later
/// time, the text [`bundle_json`] would have produced here and now.
/// td-serve captures a failed job's bundle on the worker when the job
/// completes and renders it only if an `ARTIFACT kind=flight` asks.
pub fn capture(reason: &str, extra: &[(&str, String)]) -> Captured {
    Captured {
        reason: reason.to_owned(),
        extra: extra
            .iter()
            .map(|(key, value)| ((*key).to_owned(), value.clone()))
            .collect(),
        recorded_total: recorded_total(),
        events: snapshot_events(),
        metrics: crate::metrics::snapshot(),
        journal: crate::journal::snapshot(),
    }
}

/// A flight bundle captured by [`capture`], not yet rendered.
#[derive(Debug)]
pub struct Captured {
    reason: String,
    extra: Vec<(String, String)>,
    recorded_total: u64,
    events: Vec<FlightEvent>,
    metrics: crate::metrics::Metrics,
    journal: crate::journal::Journal,
}

impl Captured {
    /// The bundle JSON, with stable field order.
    pub fn render(&self) -> String {
        let mut out = format!("{{\"reason\":{},\"extra\":{{", json_string(&self.reason));
        for (i, (key, value)) in self.extra.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(key), json_string(value));
        }
        let _ = write!(
            out,
            "}},\"recorded_total\":{},\"events\":[",
            self.recorded_total
        );
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&event_json(event));
        }
        out.push_str("],\"metrics\":");
        out.push_str(&self.metrics.to_json());
        let repro = self
            .journal
            .artifacts()
            .iter()
            .rev()
            .find(|a| a.kind == "bisect")
            .map_or("null".to_owned(), |a| json_string(&a.label));
        let _ = write!(out, ",\"repro\":{repro},\"journal_tail\":");
        out.push_str(&self.journal.tail_json(JOURNAL_TAIL));
        out.push('}');
        out
    }
}

/// Dumps the bundle to `TD_FLIGHT_DIR/flight-<n>-<reason>.json` and
/// returns the path, or `None` when the recorder is suppressed/disabled,
/// `TD_FLIGHT_DIR` is unset, the process hit [`DUMP_CAP`], or the write
/// failed (a flight recorder must never turn a crash into a different
/// crash, so I/O errors are reported to stderr and swallowed).
pub fn dump(reason: &str, extra: &[(&str, String)]) -> Option<String> {
    if !enabled() {
        return None;
    }
    let dir = env_flight_dir()?;
    let n = DUMPS.fetch_add(1, Ordering::Relaxed);
    if n >= DUMP_CAP {
        return None;
    }
    let slug: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let path = format!("{dir}/flight-{n:03}-{slug}.json");
    let bundle = bundle_json(reason, extra);
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, bundle)) {
        eprintln!("flight recorder: cannot write TD_FLIGHT_DIR dump to '{path}': {e}");
        return None;
    }
    Some(path)
}

/// Number of dumps written so far, process-wide.
pub fn dump_count() -> u64 {
    DUMPS.load(Ordering::Relaxed).min(DUMP_CAP)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::validate_json;

    #[test]
    fn ring_keeps_the_most_recent_events_in_order() {
        reset();
        for i in 0..(RING_CAPACITY + 10) {
            record("step.begin", &[("i", i.to_string())]);
        }
        let events = snapshot_events();
        assert_eq!(events.len(), RING_CAPACITY);
        assert_eq!(events[0].seq, 10, "oldest surviving event");
        assert_eq!(events.last().unwrap().seq, (RING_CAPACITY + 10 - 1) as u64);
        assert!(
            events.windows(2).all(|w| w[0].seq + 1 == w[1].seq),
            "ring unwraps oldest-first"
        );
        assert_eq!(recorded_total(), (RING_CAPACITY + 10) as u64);
        reset();
        assert!(snapshot_events().is_empty());
    }

    #[test]
    fn suppression_nests_and_restores() {
        reset();
        record("cache.hit", &[]);
        suppressed(|| {
            record("cache.miss", &[]);
            suppressed(|| record("rollback", &[]));
            record("fault.fired", &[]);
        });
        record("step.end", &[]);
        let kinds: Vec<&str> = snapshot_events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["cache.hit", "step.end"]);
        assert!(enabled(), "suppression ended");
        reset();
    }

    #[test]
    fn set_enabled_false_drops_events() {
        reset();
        set_enabled(false);
        record("step.begin", &[]);
        assert!(snapshot_events().is_empty());
        clear_enabled_override();
        record("step.begin", &[]);
        assert_eq!(snapshot_events().len(), 1);
        reset();
    }

    #[test]
    fn bundle_is_valid_json_with_stable_sections() {
        reset();
        record(
            "step.failed",
            &[
                ("name", "transform.loop.tile".to_owned()),
                ("handles", "#1v0".to_owned()),
                ("fingerprint", "12345".to_owned()),
            ],
        );
        let bundle = bundle_json("panic", &[("job", "3".to_owned())]);
        validate_json(&bundle).expect("bundle is well-formed JSON");
        for section in [
            "{\"reason\":\"panic\",\"extra\":{\"job\":\"3\"},",
            "\"recorded_total\":1,\"events\":[",
            "\"kind\":\"step.failed\"",
            "\"name\":\"transform.loop.tile\"",
            "\"metrics\":",
            "\"repro\":null",
            "\"journal_tail\":{\"steps\":[",
        ] {
            assert!(bundle.contains(section), "missing {section}: {bundle}");
        }
        reset();
    }

    #[test]
    fn a_capture_renders_later_what_the_bundle_was_when_captured() {
        reset();
        record("cache.hit", &[("script_fp", "7".to_owned())]);
        crate::metrics::counter("flight.test.captured", 1);
        let extra = [("job", "4".to_owned()), ("request", "r-4".to_owned())];
        let captured = capture("serve.job.failed", &extra);
        assert_eq!(captured.render(), bundle_json("serve.job.failed", &extra));
        let expected = captured.render();
        // The thread moves on; the capture does not.
        record("step.begin", &[]);
        crate::metrics::counter("flight.test.captured", 1);
        assert_ne!(bundle_json("serve.job.failed", &extra), expected);
        let elsewhere = std::thread::spawn(move || captured.render());
        assert_eq!(elsewhere.join().unwrap(), expected);
        reset();
    }

    #[test]
    fn dump_without_flight_dir_is_a_noop() {
        // Test processes never set TD_FLIGHT_DIR; the cap counter must not
        // advance on the early-out path.
        reset();
        record("deadline.expired", &[]);
        if env_flight_dir().is_none() {
            let before = dump_count();
            assert_eq!(dump("deadline", &[]), None);
            assert_eq!(dump_count(), before);
        }
        reset();
    }

    #[test]
    fn event_json_escapes_hostile_args() {
        let event = FlightEvent {
            seq: 0,
            t_ns: 1,
            kind: "step.begin",
            args: vec![("name", "quote\" \\ \n newline".to_owned())],
        };
        let json = format!("[{}]", event_json(&event));
        validate_json(&json).expect("escaped: {json}");
    }
}
