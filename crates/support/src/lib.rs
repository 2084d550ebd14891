#![warn(missing_docs)]

//! Foundation utilities for the Transform-dialect reproduction: generational
//! arenas, string interning, source locations, and diagnostics.
//!
//! Everything in the IR stack (`td-ir` and above) builds on these few types:
//!
//! * [`arena::Arena`] / [`arena::Idx`] — storage with stale-index detection,
//!   the mechanical basis of handle invalidation;
//! * [`interner::Symbol`] — interned identifiers (operation names, attribute
//!   keys);
//! * [`location::Location`] and [`diag::Diagnostic`] — the error-reporting
//!   vocabulary shared by the verifier, the pass manager, and the transform
//!   interpreter;
//! * [`rng`] — vendored deterministic PRNGs (SplitMix64, xoshiro256++), so
//!   the workspace needs no external `rand`;
//! * [`proptest`] — a minimal in-tree property-testing harness (seeded
//!   generation, shrinking by halving, failure-seed replay);
//! * [`metrics`] — counters, timers, and scoped spans with a JSON dump,
//!   reported into by the pass manager, the rewrite driver, and the
//!   transform interpreter;
//! * [`trace`] — hierarchical structured tracing (Chrome `trace_event`
//!   JSON + human-readable tree), the [`trace::Instrumentation`] hook
//!   trait, and the `print-ir-before/after` snapshot instrumentation;
//!   [`diag`] additionally hosts the optimization-remarks channel;
//! * [`journal`] — the transform provenance journal: payload-change
//!   attribution ("which transform erased op X"), batch reports, and the
//!   store the failure bisector writes minimized repro schedules into;
//! * [`fault`] — deterministic fault injection (`TD_FAULT` plans, named
//!   faultpoints, seeded per-lane schedules), the chaos harness driving
//!   the transactional transform-application layer;
//! * [`flight`] — the crash flight recorder: a fixed-size ring buffer of
//!   recent structured events dumped as a post-mortem artifact bundle to
//!   `TD_FLIGHT_DIR` on panic, definite failure, or deadline expiry;
//! * [`filecheck`] — a FileCheck-lite substring-check DSL backing the
//!   golden-file tests.

pub mod arena;
pub mod diag;
pub mod fault;
pub mod filecheck;
pub mod flight;
pub mod interner;
pub mod journal;
pub mod location;
pub mod metrics;
pub mod proptest;
pub mod rng;
pub mod trace;

pub use arena::{Arena, Idx, InlineVec};
pub use diag::{Diagnostic, DiagnosticEngine, Remark, RemarkFilter, RemarkKind, Severity};
pub use interner::Symbol;
pub use location::Location;
pub use trace::{HandleEvent, Instrumentation, IrView, PrintFilter, PrintIr};
