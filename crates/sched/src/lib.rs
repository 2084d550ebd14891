#![warn(missing_docs)]

//! `td-sched`: a concurrent schedule-application engine.
//!
//! The Transform dialect makes a schedule a *value* — a script that can be
//! stored, compared, and applied to any payload. This crate exploits that:
//! it applies batches of `(transform script, payload module)` jobs across
//! the calling thread and the workers it spawns beside itself (std threads
//! only; the workspace is hermetic), one [`td_ir::Context`] per job, with:
//!
//! * a **result cache** keyed by the request's bytes, probed on the
//!   submitting thread before any job runs, with LRU eviction and
//!   hit/miss/eviction counters ([`cache`]);
//! * **per-job robustness**: panics inside a transform handler are caught
//!   and mapped to definite job errors; each job carries its own
//!   [`JobPolicy`] — an optional deadline with graceful cancellation, an
//!   attempt budget that retries silenceable failures against a fresh
//!   context, its transactional mode and its fault lane — so one engine
//!   runs any mix of policies ([`job`], [`engine`]);
//! * **deterministic output**: a batch returns results in job order and
//!   the result *values* are independent of the worker count — workers
//!   never share mutable payload state, so scheduling order cannot leak
//!   into outputs ([`engine::Engine::run_batch`]);
//! * full **observability**: every job runs inside trace spans on the lane
//!   of the thread that ran it (the caller is worker 0; spawned workers get
//!   lanes of their own, `td_support::trace::adopt`), and per-worker
//!   metrics are merged back into it (`td_support::metrics::absorb`).
//!
//! The [`autotune`] module wires the `td-autotune` search loop onto the
//! engine: candidate schedules rendered from configurations are evaluated
//! as jobs, so re-proposed configurations hit the result cache and
//! exhaustive sweeps fan out across the pool.
//!
//! # Cache-key soundness
//!
//! A [`CacheKey`] is three 64-bit FNV-1a hashes: the script's bytes, the
//! payload's bytes (each with its length folded in) and the entry symbol
//! (one script module can hold several named sequences). A job's output
//! is a pure function of those three strings, so equal keys mean equal
//! inputs and a cached output is what re-running would print — up to two
//! different texts colliding on 64 bits (FNV is not cryptographic; tenants
//! are assumed not to craft collisions). The key is format-sensitive:
//! callers wanting format-insensitive reuse submit printed text.
//!
//! ```
//! use td_sched::{Engine, EngineConfig, Job};
//! let engine = Engine::new(EngineConfig::standard().with_workers(2));
//! let payload = "module {\n  %c = arith.constant 1 : index\n  %s = \"arith.addi\"(%c, %c) : (index, index) -> index\n}";
//! let script = r#"module {
//!   transform.named_sequence @main(%root: !transform.any_op) {
//!     %adds = "transform.match_op"(%root) {name = "arith.addi", select = "all"}
//!         : (!transform.any_op) -> !transform.any_op
//!     "transform.annotate"(%adds) {name = "seen"} : (!transform.any_op) -> ()
//!   }
//! }"#;
//! let report = engine.run_batch(vec![Job::new(script, payload)]);
//! let output = report.results[0].as_ref().expect("job succeeds");
//! assert!(output.module_text.contains("seen"));
//! // The same job again is served from the cache, byte-identically.
//! let again = engine.run_batch(vec![Job::new(script, payload)]);
//! let cached = again.results[0].as_ref().expect("job succeeds");
//! assert!(cached.from_cache);
//! assert_eq!(cached.module_text, output.module_text);
//! ```

pub mod autotune;
pub mod cache;
pub mod engine;
pub mod job;
pub mod stats;

pub use autotune::{sweep_schedules, tune_schedules, SweepOutcome, SweepResult};
pub use cache::{CacheKey, CachePersist, CacheStats, CachedResult, ResultCache};
pub use engine::{
    standard_context, standard_passes, BatchReport, Engine, EngineConfig, TransformsFactory,
};
pub use job::{Job, JobError, JobOutput, JobPolicy, JobResult};
pub use stats::{BatchStats, WorkerLane};
// Re-exported so engine embedders (td-serve) can name a job policy's
// transactional mode without a direct td-transform dependency edge.
pub use td_transform::TxnMode;
