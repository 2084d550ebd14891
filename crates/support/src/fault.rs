//! Deterministic fault injection: the chaos harness under the
//! transactional transform-application layer.
//!
//! A *fault plan* is a list of clauses, each arming one named *faultpoint*
//! with a fault kind and a set of selectors. Instrumented code asks the
//! plan, at well-known points, whether a fault should fire *here, now* —
//! and the answer is a pure function of the plan, the current *lane*, and
//! the per-lane hit counter of the point, so a chaos run is exactly
//! reproducible regardless of thread count or scheduling.
//!
//! # Fault-spec grammar (`TD_FAULT`)
//!
//! ```text
//! plan   := clause (';' clause)*
//! clause := kind ('@' param (',' param)*)?
//! kind   := 'silenceable' | 'definite' | 'panic' | 'sleep' | 'alloc_pressure'
//! param  := 'step=' N        -- fire at the N-th hit (0-based) of the point in a lane
//!         | 'transform=' S   -- fire only when the point label contains S
//!         | 'label=' S       -- alias of transform=
//!         | 'job=' N         -- fire only in lane N (td-sched: the job index)
//!         | 'p=' F           -- fire with probability F (deterministic, seeded)
//!         | 'seed=' N        -- seed of the probability draws (default 0)
//!         | 'ms=' N          -- sleep duration for the sleep kind (default 1)
//!         | 'point=' S       -- override the faultpoint the clause arms
//! ```
//!
//! Defaults: every kind arms [`POINT_INTERP_STEP`] (the transform
//! interpreter's per-step boundary) except `alloc_pressure`, which is
//! sugar for a `panic` armed at [`POINT_IR_ALLOC`] (`Context::create_op`)
//! — simulated allocation failure in the middle of a rewrite. Examples:
//!
//! ```text
//! TD_FAULT='silenceable@step=3'                 # 4th transform step fails silenceably
//! TD_FAULT='panic@transform=tile'               # every tiling transform panics
//! TD_FAULT='alloc_pressure@p=0.05,seed=42'      # 5% of op creations abort
//! TD_FAULT='sleep@transform=unroll,ms=50;silenceable@job=3'   # two clauses
//! ```
//!
//! # Determinism and lanes
//!
//! Hit counters are kept per thread and reset by [`set_lane`]; `td-sched`
//! sets the lane to the *job index* before running a job, so every job
//! sees the same fault schedule no matter which worker runs it or how
//! many workers exist. Probability draws hash `(seed, lane, hit)` through
//! SplitMix64 — no global RNG state, so concurrent lanes cannot perturb
//! each other. Counters deliberately survive across interpreter attempts
//! within a lane: a `step=N` clause fires once per lane, which is what
//! models a *transient* fault that a retry (against a fresh context)
//! recovers from. A `transform=`/`p=`-selected clause keeps firing and
//! models a *persistent* fault.
//!
//! # Cost when idle
//!
//! [`active`] is a thread-local flag read plus one relaxed atomic load;
//! instrumented hot paths (`Context::create_op`, the interpreter step
//! loop) check it first and do nothing else when no plan is armed.

use crate::rng::{derive_seed, SplitMix64};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Duration;

/// Faultpoint at the transform interpreter's per-step boundary; the label
/// is the transform-op name about to execute.
pub const POINT_INTERP_STEP: &str = "interp.step";
/// Faultpoint inside `Context::create_op`; the label is the payload-op
/// name being created (`alloc_pressure` fires here, mid-rewrite).
pub const POINT_IR_ALLOC: &str = "ir.create_op";

/// What kind of fault a clause injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A silenceable transform error (§3 error model).
    Silenceable,
    /// A definite transform error.
    Definite,
    /// A panic (unwind) at the faultpoint.
    Panic,
    /// A delay, for deadline/timeout chaos.
    Sleep,
}

impl FaultKind {
    /// Lowercase spec name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Silenceable => "silenceable",
            FaultKind::Definite => "definite",
            FaultKind::Panic => "panic",
            FaultKind::Sleep => "sleep",
        }
    }
}

/// A fault that fired: what the instrumented site should do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Report a silenceable error.
    Silenceable,
    /// Report a definite error.
    Definite,
    /// Panic.
    Panic,
    /// Sleep for the given duration, then proceed normally.
    Sleep(Duration),
}

/// One armed clause of a fault plan.
#[derive(Clone, Debug, PartialEq)]
pub struct Clause {
    /// Fault kind to inject.
    pub kind: FaultKind,
    /// Faultpoint this clause arms.
    pub point: String,
    /// Fire only at this per-lane hit index of the point (0-based).
    pub step: Option<u64>,
    /// Fire only when the point label contains this substring.
    pub label: Option<String>,
    /// Fire only in this lane (td-sched job index; default lane is 0).
    pub job: Option<u64>,
    /// Fire with this probability (deterministic draw from `seed`).
    pub probability: Option<f64>,
    /// Seed of the probability draws.
    pub seed: u64,
    /// Sleep duration in milliseconds (sleep kind only).
    pub sleep_ms: u64,
}

impl Clause {
    fn matches(&self, lane: u64, hit: u64, label: &str) -> bool {
        if let Some(job) = self.job {
            if job != lane {
                return false;
            }
        }
        if let Some(step) = self.step {
            if step != hit {
                return false;
            }
        }
        if let Some(want) = &self.label {
            if !label.contains(want.as_str()) {
                return false;
            }
        }
        if let Some(p) = self.probability {
            // Stateless deterministic draw: a function of (seed, lane, hit)
            // only, so thread interleaving cannot perturb it.
            let mut mix = SplitMix64::new(derive_seed(self.seed, lane) ^ hit);
            let draw = (mix.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            if draw >= p {
                return false;
            }
        }
        true
    }

    fn fault(&self) -> Fault {
        match self.kind {
            FaultKind::Silenceable => Fault::Silenceable,
            FaultKind::Definite => Fault::Definite,
            FaultKind::Panic => Fault::Panic,
            FaultKind::Sleep => Fault::Sleep(Duration::from_millis(self.sleep_ms)),
        }
    }
}

/// A parsed fault plan: the clause list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Armed clauses, evaluated in order; the first match fires.
    pub clauses: Vec<Clause>,
}

impl FaultPlan {
    /// Parses a fault spec (see the module docs for the grammar).
    ///
    /// # Errors
    /// Returns a message naming the offending clause or parameter.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut clauses = Vec::new();
        for raw in spec.split(';') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let (kind_str, params) = match raw.split_once('@') {
                Some((k, p)) => (k.trim(), p),
                None => (raw, ""),
            };
            let (kind, mut point) = match kind_str {
                "silenceable" => (FaultKind::Silenceable, POINT_INTERP_STEP),
                "definite" => (FaultKind::Definite, POINT_INTERP_STEP),
                "panic" => (FaultKind::Panic, POINT_INTERP_STEP),
                "sleep" => (FaultKind::Sleep, POINT_INTERP_STEP),
                "alloc_pressure" => (FaultKind::Panic, POINT_IR_ALLOC),
                other => return Err(format!("unknown fault kind '{other}' in clause '{raw}'")),
            };
            let mut clause = Clause {
                kind,
                point: String::new(),
                step: None,
                label: None,
                job: None,
                probability: None,
                seed: 0,
                sleep_ms: 1,
            };
            let mut point_override = None;
            for param in params.split(',') {
                let param = param.trim();
                if param.is_empty() {
                    continue;
                }
                let Some((key, value)) = param.split_once('=') else {
                    return Err(format!(
                        "parameter '{param}' in clause '{raw}' is not key=value"
                    ));
                };
                let (key, value) = (key.trim(), value.trim());
                let bad = |what: &str| format!("invalid {what} '{value}' in clause '{raw}'");
                match key {
                    "step" => clause.step = Some(value.parse().map_err(|_| bad("step"))?),
                    "transform" | "label" => clause.label = Some(value.to_owned()),
                    "job" => clause.job = Some(value.parse().map_err(|_| bad("job"))?),
                    "p" => {
                        let p: f64 = value.parse().map_err(|_| bad("probability"))?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(bad("probability"));
                        }
                        clause.probability = Some(p);
                    }
                    "seed" => clause.seed = value.parse().map_err(|_| bad("seed"))?,
                    "ms" => clause.sleep_ms = value.parse().map_err(|_| bad("ms"))?,
                    "point" => point_override = Some(value.to_owned()),
                    other => {
                        return Err(format!("unknown parameter '{other}' in clause '{raw}'"));
                    }
                }
            }
            if let Some(p) = &point_override {
                point = p;
            }
            clause.point = point.to_owned();
            clauses.push(clause);
        }
        Ok(FaultPlan { clauses })
    }

    /// Whether any clause arms `point`.
    pub fn arms(&self, point: &str) -> bool {
        self.clauses.iter().any(|c| c.point == point)
    }
}

/// Per-faultpoint counters (process-wide, across all lanes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PointStats {
    /// Times the point was evaluated against an armed plan.
    pub hits: u64,
    /// Clauses currently arming the point.
    pub armed: u64,
    /// Faults injected at the point.
    pub fired: u64,
}

// ---------------------------------------------------------------------------
// Process-wide plan + stats
// ---------------------------------------------------------------------------

static GLOBAL_ACTIVE: AtomicBool = AtomicBool::new(false);
static ENV_CHECKED: AtomicBool = AtomicBool::new(false);

fn plan_slot() -> &'static RwLock<Option<Arc<FaultPlan>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<FaultPlan>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

fn stats_slot() -> &'static Mutex<BTreeMap<String, PointStats>> {
    static SLOT: OnceLock<Mutex<BTreeMap<String, PointStats>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(BTreeMap::new()))
}

thread_local! {
    /// Thread-local plan override (tests); checked before the global plan.
    static THREAD_PLAN: RefCell<Option<Arc<FaultPlan>>> = const { RefCell::new(None) };
    static THREAD_PLAN_SET: Cell<bool> = const { Cell::new(false) };
    /// The current lane (td-sched: the job index; 0 by default).
    static LANE: Cell<u64> = const { Cell::new(0) };
    /// Per-lane hit counters, keyed by faultpoint name.
    static COUNTERS: RefCell<BTreeMap<&'static str, u64>> = RefCell::new(BTreeMap::new());
    /// Faults fired on this thread, ever (see [`fired_count`]).
    static FIRED: Cell<u64> = const { Cell::new(0) };
}

/// The spec in `TD_FAULT`, if set.
pub fn env_fault_spec() -> Option<String> {
    std::env::var("TD_FAULT").ok().filter(|s| !s.is_empty())
}

fn init_from_env() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        if let Some(spec) = env_fault_spec() {
            match FaultPlan::parse(&spec) {
                Ok(plan) => install_global(Some(plan)),
                Err(e) => {
                    eprintln!("warning: ignoring invalid TD_FAULT spec: {e}");
                }
            }
        }
        ENV_CHECKED.store(true, Ordering::Release);
    });
}

fn install_global(plan: Option<FaultPlan>) {
    let armed: Vec<(String, u64)> = plan
        .as_ref()
        .map(|p| {
            let mut by_point: BTreeMap<String, u64> = BTreeMap::new();
            for clause in &p.clauses {
                *by_point.entry(clause.point.clone()).or_insert(0) += 1;
            }
            by_point.into_iter().collect()
        })
        .unwrap_or_default();
    {
        let mut stats = stats_slot().lock().unwrap_or_else(|e| e.into_inner());
        for row in stats.values_mut() {
            row.armed = 0;
        }
        for (point, count) in armed {
            stats.entry(point).or_default().armed = count;
        }
    }
    let active = plan.as_ref().is_some_and(|p| !p.clauses.is_empty());
    *plan_slot().write().unwrap_or_else(|e| e.into_inner()) = plan.map(Arc::new);
    GLOBAL_ACTIVE.store(active, Ordering::Release);
}

/// Installs (or clears, with `None`) the process-wide fault plan,
/// overriding `TD_FAULT`. Worker threads spawned afterwards all see it.
pub fn set_plan(plan: Option<FaultPlan>) {
    init_from_env(); // pin env handling so it cannot race a later override
    install_global(plan);
}

/// Overrides the plan for the *current thread only* (unit tests that must
/// not leak faults into concurrently running tests). `None` clears it.
/// Of an engine batch it reaches only the jobs this thread runs itself.
pub fn set_thread_plan(plan: Option<FaultPlan>) {
    THREAD_PLAN_SET.with(|s| s.set(plan.is_some()));
    THREAD_PLAN.with(|p| *p.borrow_mut() = plan.map(Arc::new));
}

/// Whether any fault plan is armed for this thread (thread-local override
/// or the process-wide plan). Cheap: instrumented hot paths gate on this.
pub fn active() -> bool {
    if THREAD_PLAN_SET.with(Cell::get) {
        return true;
    }
    if !ENV_CHECKED.load(Ordering::Acquire) {
        init_from_env();
    }
    GLOBAL_ACTIVE.load(Ordering::Relaxed)
}

fn current_plan() -> Option<Arc<FaultPlan>> {
    if THREAD_PLAN_SET.with(Cell::get) {
        return THREAD_PLAN.with(|p| p.borrow().clone());
    }
    plan_slot()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// Sets this thread's fault lane (td-sched: the job index) and resets the
/// per-lane hit counters, making the lane's fault schedule start fresh.
pub fn set_lane(lane: u64) {
    LANE.with(|l| l.set(lane));
    reset_counters();
}

/// The current lane.
pub fn lane() -> u64 {
    LANE.with(Cell::get)
}

/// Sets this thread's lane and its hit counters aside, for a thread about
/// to run another lane's work; the counters start empty, as after
/// [`set_lane`]. [`restore_lane`] puts both back.
pub fn take_lane() -> (u64, BTreeMap<&'static str, u64>) {
    (lane(), COUNTERS.with(|c| c.take()))
}

/// Puts back what [`take_lane`] set aside.
pub fn restore_lane((lane, counters): (u64, BTreeMap<&'static str, u64>)) {
    LANE.with(|l| l.set(lane));
    COUNTERS.with(|c| c.replace(counters));
}

/// Resets this thread's per-lane hit counters without changing the lane
/// (the failure bisector does this before each probe so deterministic
/// clauses re-fire and the probe reproduces the original schedule).
pub fn reset_counters() {
    COUNTERS.with(|c| c.borrow_mut().clear());
}

/// Evaluates the faultpoint `point` with the given label. Returns the
/// fault to inject, if one fires. Increments the per-lane hit counter and
/// the process-wide [`PointStats`] either way (when a plan is active).
pub fn check(point: &'static str, label: &str) -> Option<Fault> {
    if !active() {
        return None;
    }
    let plan = current_plan()?;
    if !plan.arms(point) {
        return None;
    }
    let lane = LANE.with(Cell::get);
    let hit = COUNTERS.with(|c| {
        let mut counters = c.borrow_mut();
        let slot = counters.entry(point).or_insert(0);
        let hit = *slot;
        *slot += 1;
        hit
    });
    let fired = plan
        .clauses
        .iter()
        .find(|clause| clause.point == point && clause.matches(lane, hit, label))
        .map(Clause::fault);
    {
        let mut stats = stats_slot().lock().unwrap_or_else(|e| e.into_inner());
        let row = stats.entry(point.to_owned()).or_default();
        row.hits += 1;
        row.fired += u64::from(fired.is_some());
    }
    if let Some(fault) = fired {
        FIRED.with(|f| f.set(f.get() + 1));
        crate::flight::record(
            "fault.fired",
            &[
                ("point", point.to_owned()),
                ("label", label.to_owned()),
                ("kind", format!("{fault:?}")),
                ("lane", lane.to_string()),
                ("hit", hit.to_string()),
            ],
        );
    }
    fired
}

/// Faults fired on the calling thread since it started, whatever the
/// plan, lane or point. Never reset: a caller compares two readings to
/// learn whether a fault fired in between (td-sched caches a job's outcome
/// only when none did). Unlike [`active`], it cannot be moved by a plan
/// another thread arms concurrently.
pub fn fired_count() -> u64 {
    FIRED.with(Cell::get)
}

/// A snapshot of the process-wide per-point counters.
pub fn stats() -> Vec<(String, PointStats)> {
    stats_slot()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Clears the process-wide per-point counters (armed counts are re-derived
/// from the installed plan).
pub fn reset_stats() {
    let mut stats = stats_slot().lock().unwrap_or_else(|e| e.into_inner());
    for row in stats.values_mut() {
        row.hits = 0;
        row.fired = 0;
    }
}

/// Mirrors the per-point counters into this thread's metrics registry as
/// `fault.<point>.{hits,armed,fired}` high-watermark gauges, so chaos
/// binaries surface injection activity in the same JSON dump as
/// everything else.
pub fn publish_metrics() {
    for (point, row) in stats() {
        crate::metrics::high_watermark(&format!("fault.{point}.hits"), row.hits);
        crate::metrics::high_watermark(&format!("fault.{point}.armed"), row.armed);
        crate::metrics::high_watermark(&format!("fault.{point}.fired"), row.fired);
    }
}

/// Serializes tests that install a process-wide plan: hold the guard for
/// the duration of the test so parallel fault tests cannot interleave.
pub fn test_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Best-effort extraction of a panic payload's message (shared by every
/// `catch_unwind` containment boundary in the workspace).
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_thread_plan<R>(spec: &str, f: impl FnOnce() -> R) -> R {
        set_thread_plan(Some(FaultPlan::parse(spec).expect("spec parses")));
        set_lane(0);
        let result = f();
        set_thread_plan(None);
        result
    }

    #[test]
    fn parse_accepts_the_documented_grammar() {
        let plan = FaultPlan::parse(
            "silenceable@step=3; panic@transform=tile ; alloc_pressure@p=0.05,seed=42; \
             sleep@ms=50,job=2",
        )
        .unwrap();
        assert_eq!(plan.clauses.len(), 4);
        assert_eq!(plan.clauses[0].kind, FaultKind::Silenceable);
        assert_eq!(plan.clauses[0].step, Some(3));
        assert_eq!(plan.clauses[0].point, POINT_INTERP_STEP);
        assert_eq!(plan.clauses[1].label.as_deref(), Some("tile"));
        assert_eq!(plan.clauses[2].kind, FaultKind::Panic);
        assert_eq!(plan.clauses[2].point, POINT_IR_ALLOC);
        assert_eq!(plan.clauses[2].probability, Some(0.05));
        assert_eq!(plan.clauses[2].seed, 42);
        assert_eq!(plan.clauses[3].sleep_ms, 50);
        assert_eq!(plan.clauses[3].job, Some(2));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("explode@step=1").is_err());
        assert!(FaultPlan::parse("panic@step").is_err());
        assert!(FaultPlan::parse("panic@wat=1").is_err());
        assert!(FaultPlan::parse("silenceable@p=1.5").is_err());
        assert!(FaultPlan::parse("").unwrap().clauses.is_empty());
    }

    #[test]
    fn step_clause_fires_exactly_once_per_lane() {
        with_thread_plan("silenceable@step=2", || {
            assert_eq!(check(POINT_INTERP_STEP, "a"), None);
            assert_eq!(check(POINT_INTERP_STEP, "b"), None);
            assert_eq!(check(POINT_INTERP_STEP, "c"), Some(Fault::Silenceable));
            assert_eq!(check(POINT_INTERP_STEP, "d"), None);
            // New lane: the schedule restarts.
            set_lane(1);
            assert_eq!(check(POINT_INTERP_STEP, "a"), None);
            assert_eq!(check(POINT_INTERP_STEP, "b"), None);
            assert_eq!(check(POINT_INTERP_STEP, "c"), Some(Fault::Silenceable));
        });
    }

    #[test]
    fn a_lane_set_aside_comes_back_with_its_hit_counters() {
        with_thread_plan("silenceable@step=2", || {
            set_lane(4);
            assert_eq!(check(POINT_INTERP_STEP, "a"), None);
            assert_eq!(check(POINT_INTERP_STEP, "b"), None);
            let mine = take_lane();
            // Someone else's lane, counted from its own first hit.
            set_lane(9);
            assert_eq!(check(POINT_INTERP_STEP, "a"), None);
            restore_lane(mine);
            assert_eq!(lane(), 4);
            assert_eq!(
                check(POINT_INTERP_STEP, "c"),
                Some(Fault::Silenceable),
                "lane 4 resumes at its third hit"
            );
        });
    }

    #[test]
    fn label_and_job_selectors_filter() {
        with_thread_plan("panic@transform=tile,job=1", || {
            assert_eq!(check(POINT_INTERP_STEP, "transform.loop.tile"), None);
            set_lane(1);
            assert_eq!(check(POINT_INTERP_STEP, "transform.match_op"), None);
            assert_eq!(
                check(POINT_INTERP_STEP, "transform.loop.tile"),
                Some(Fault::Panic)
            );
        });
    }

    #[test]
    fn probability_draws_are_deterministic_per_lane_and_hit() {
        let outcomes = |lane| {
            with_thread_plan("silenceable@p=0.5,seed=7", || {
                set_lane(lane);
                (0..64)
                    .map(|_| check(POINT_INTERP_STEP, "x").is_some())
                    .collect::<Vec<bool>>()
            })
        };
        let a = outcomes(3);
        let b = outcomes(3);
        assert_eq!(a, b, "same lane, same schedule");
        assert!(a.iter().any(|&f| f), "p=0.5 fires somewhere in 64 hits");
        assert!(!a.iter().all(|&f| f), "p=0.5 skips somewhere in 64 hits");
        let c = outcomes(4);
        assert_ne!(a, c, "different lanes draw independent schedules");
    }

    #[test]
    fn fired_count_moves_only_when_a_fault_fires_on_this_thread() {
        let before = fired_count();
        with_thread_plan("silenceable@step=1", || {
            check(POINT_INTERP_STEP, "a");
            assert_eq!(fired_count(), before, "a hit that does not fire");
            check(POINT_INTERP_STEP, "b");
            assert_eq!(fired_count(), before + 1);
        });
        let other = std::thread::spawn(|| {
            with_thread_plan("definite", || check(POINT_INTERP_STEP, "x"));
            fired_count()
        });
        assert_eq!(
            other.join().unwrap(),
            1,
            "counted on the thread it fired on"
        );
        assert_eq!(fired_count(), before + 1);
    }

    #[test]
    fn sleep_clause_carries_duration() {
        with_thread_plan("sleep@ms=25", || {
            assert_eq!(
                check(POINT_INTERP_STEP, "x"),
                Some(Fault::Sleep(Duration::from_millis(25)))
            );
        });
    }

    #[test]
    fn stats_track_hits_and_fired() {
        let _guard = test_guard();
        reset_stats();
        with_thread_plan("silenceable@step=1", || {
            check(POINT_INTERP_STEP, "a");
            check(POINT_INTERP_STEP, "b");
        });
        let stats = stats();
        let row = stats
            .iter()
            .find(|(p, _)| p == POINT_INTERP_STEP)
            .map(|(_, r)| *r)
            .unwrap();
        assert!(row.hits >= 2);
        assert!(row.fired >= 1);
    }

    #[test]
    fn panic_text_extracts_strings() {
        assert_eq!(panic_text(&"boom"), "boom");
        assert_eq!(panic_text(&String::from("kaboom")), "kaboom");
        assert_eq!(panic_text(&42_u32), "non-string panic payload");
    }
}
