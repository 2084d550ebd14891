#![warn(missing_docs)]

//! `td-fuzz`: generative differential fuzzing for the transform dialect.
//!
//! The pipeline is:
//!
//! 1. `td-modelgen` generates a (payload, schedule) [`Pair`] as a pure
//!    function of a seed and two size knobs ([`PairSpec`]).
//! 2. The [`oracle`] runs the pair through every execution mode the
//!    project offers — the direct interpreter, the `td-sched` engine with
//!    1 and 4 workers, with the provenance journal on, and cached
//!    cold/warm — and demands byte-identical printed modules and re-parse
//!    fingerprints (or the identical error) from all of them. A second
//!    sweep ([`undo_equivalence`]) holds rollback to "as if the step never
//!    ran": clean and with a silenceable fault injected at every step
//!    index in turn, the post-rollback payload must print identically to
//!    a fresh run of just the committed steps, and its fingerprint must
//!    be restored exactly. A third ([`metamorphic`]) holds
//!    `transform.alternatives` to the same standard per branch. Payload
//!    groups ([`run_groups`]: one payload, several schedules) put the
//!    engine's shared-payload path through the same oracle, and hold
//!    batches of mixed policies and under an armed fault plan to the
//!    results of the same jobs run alone.
//! 3. Divergences are shrunk by [`minimize`] (knob shrinking plus
//!    schedule bisection via `bisect_schedule_failure`) and written to the
//!    [`corpus`] as committed `.mlir` repro files replayed by the golden
//!    tests.
//!
//! The [`driver`] module glues the three together for CI's `fuzz_smoke`
//! and the `tests/fuzz.rs` suite.

pub mod corpus;
pub mod driver;
pub mod metamorphic;
pub mod minimize;
pub mod oracle;

pub use driver::{
    group_pairs, pair_specs, run_fuzz, run_groups, shrink_divergence, Divergence, FuzzConfig,
    FuzzReport, GroupReport, OutcomeCounts, PairSpec, BUDGET_ENV, DEFAULT_SEED, GROUP_SCHEDULES,
    SEED_ENV,
};
pub use minimize::{bisect_schedule, shrink_pair, Shrunk};
pub use oracle::{
    differential, differential_failure, fresh_context, run_direct, run_engine,
    single_job_agreement, undo_equivalence, CaseReport, EngineRun, Outcome, Pair, MODES,
};
