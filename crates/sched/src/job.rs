//! Jobs and their outcomes: the unit of work the engine schedules. A job
//! carries its own [`JobPolicy`] — deadline, attempts, transactional mode
//! and fault lane — so one engine runs jobs under different policies side
//! by side, in one batch or across batches.

use std::time::{Duration, Instant};
use td_transform::TxnMode;

/// One unit of work: apply a transform script to a payload module.
///
/// Both sides are carried as *source text*, not as in-context ids — each
/// job (and each retry attempt) parses into its own fresh
/// [`td_ir::Context`], which is what makes jobs freely movable across
/// worker threads; the cache key is a hash of the texts themselves (see
/// the crate docs on cache-key soundness).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    /// Transform script source (a module containing the entry sequence).
    pub script: String,
    /// Payload module source.
    pub payload: String,
    /// Symbol name of the entry `transform.named_sequence` in the script.
    pub entry: String,
    /// Free-form owner tag (td-serve: the tenant name; empty when unused).
    /// Carried into trace spans and flight-recorder attributions so a
    /// multi-tenant batch report says *whose* job did what. Deliberately
    /// not part of the cache key: two tenants submitting identical inputs
    /// share the cached result.
    pub tag: String,
    /// Service request id (td-serve; empty when unused). Threaded into the
    /// job's trace span, journal steps, and flight-recorder attributions so
    /// one id stitches every artifact of a submission together. Like
    /// [`Job::tag`], deliberately not part of the cache key.
    pub request: String,
    /// How the engine runs this job (td-serve: the submitting tenant's
    /// policy, with the request's own `txn_mode` applied).
    pub policy: JobPolicy,
}

impl Job {
    /// A job with the conventional entry point `@main` and the default
    /// [`JobPolicy`].
    pub fn new(script: impl Into<String>, payload: impl Into<String>) -> Self {
        Job {
            script: script.into(),
            payload: payload.into(),
            entry: "main".to_owned(),
            tag: String::new(),
            request: String::new(),
            policy: JobPolicy::default(),
        }
    }

    /// Overrides the entry-point symbol name (builder-style).
    pub fn with_entry(mut self, entry: impl Into<String>) -> Self {
        self.entry = entry.into();
        self
    }

    /// Sets the owner tag (builder-style; td-serve: the tenant name).
    pub fn with_tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = tag.into();
        self
    }

    /// Sets the service request id (builder-style); see [`Job::request`].
    pub fn with_request(mut self, request: impl Into<String>) -> Self {
        self.request = request.into();
        self
    }

    /// Sets the job's deadline (builder-style); see [`JobPolicy::deadline`].
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.policy.deadline = Some(deadline);
        self
    }

    /// Sets the job's interpreter attempts (builder-style; minimum 1); see
    /// [`JobPolicy::max_attempts`].
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.policy.max_attempts = attempts.max(1);
        self
    }

    /// Sets the job's transactional mode (builder-style); see
    /// [`JobPolicy::txn`].
    pub fn with_txn(mut self, txn: TxnMode) -> Self {
        self.policy.txn = txn;
        self
    }

    /// Pins the job's fault-injection lane (builder-style); see
    /// [`JobPolicy::fault_lane`].
    pub fn with_fault_lane(mut self, lane: u64) -> Self {
        self.policy.fault_lane = Some(lane);
        self
    }
}

/// How the engine runs one job. Not part of the cache key: a policy
/// decides whether and when a job's outcome arrives, never what it is —
/// transactionality only changes how a *failure* is contained (the error
/// is the same, and a failure cached under one mode answers the other),
/// and a late output is still cached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobPolicy {
    /// Deadline, measured from the start of the job's batch (td-serve: the
    /// moment the worker that popped the job starts it). A job still listed
    /// when it elapses is cancelled without running; a job that finishes
    /// past it reports [`JobError::DeadlineExceeded`] (its output is still
    /// cached — it is correct, merely late).
    pub deadline: Option<Duration>,
    /// Interpreter attempts (minimum 1). Attempts beyond the first happen
    /// only for *silenceable* failures, immediately, each against a
    /// completely fresh context so no partial mutation leaks between
    /// attempts.
    pub max_attempts: u32,
    /// Transactional application of top-level steps. [`TxnMode::Always`]
    /// by default: every failure leaves the payload exactly as the last
    /// committed step printed it.
    pub txn: TxnMode,
    /// Fault-injection lane. `None` (the default) uses the job's batch
    /// index, so fault schedules are worker-count-independent; a service
    /// multiplexing many tenants through single-job batches pins a
    /// per-tenant lane instead, so a `TD_FAULT` `job=N` selector targets
    /// one tenant without touching the others.
    pub fault_lane: Option<u64>,
}

impl Default for JobPolicy {
    /// No deadline, one attempt, transactions on, the batch index as lane.
    fn default() -> Self {
        JobPolicy {
            deadline: None,
            max_attempts: 1,
            txn: TxnMode::Always,
            fault_lane: None,
        }
    }
}

impl JobPolicy {
    /// Whether the deadline, counted from `batch_start`, has elapsed.
    pub(crate) fn deadline_elapsed(&self, batch_start: Instant) -> bool {
        self.deadline
            .is_some_and(|deadline| batch_start.elapsed() >= deadline)
    }
}

/// Successful outcome of a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobOutput {
    /// The transformed payload module, printed.
    pub module_text: String,
    /// Transform ops executed by the interpreter (0 for cache hits).
    pub transforms_executed: usize,
    /// Interpreter attempts consumed (0 for cache hits, 1 for a first-try
    /// success, more when silenceable failures were retried).
    pub attempts: u32,
    /// Whether the result was served from the result cache.
    pub from_cache: bool,
    /// Top-level steps rolled back to their checkpoint during the
    /// *successful* attempt (silenceable failures inside suppressing
    /// sequences). 0 for cache hits — rollbacks describe an execution,
    /// not a result, so they are not cached.
    pub rolled_back: usize,
    /// Undo-log entries recorded inside the successful attempt's
    /// transactional steps (0 for cache hits).
    pub undo_entries: usize,
}

/// Why a job failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The payload or script text did not parse.
    Parse {
        /// Which input failed: `"payload"` or `"script"`.
        what: &'static str,
        /// The parser diagnostic.
        message: String,
    },
    /// The script parsed but does not contain the entry symbol.
    EntryMissing {
        /// The symbol that was looked up.
        name: String,
    },
    /// The interpreter reported an error (after exhausting any retries).
    Transform {
        /// The diagnostic message.
        message: String,
        /// Whether the final error was silenceable. Even silenceable
        /// errors are definite from the engine's point of view once the
        /// retry budget is spent.
        silenceable: bool,
    },
    /// A transform handler panicked. The job's context is discarded, the
    /// worker and all other jobs are unaffected, and the panic is never
    /// retried (a panic is a definite error by construction).
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The job's deadline elapsed before it produced a usable result —
    /// either it was cancelled while still queued, or it finished past the
    /// deadline and the (still correct, still cached) output was dropped.
    DeadlineExceeded,
    /// The batch's failure budget tripped before this job ran: the engine
    /// degraded gracefully, draining the queue without dispatching. The
    /// job itself was never attempted, so nothing about it is cached.
    Cancelled,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Parse { what, message } => write!(f, "{what} failed to parse: {message}"),
            JobError::EntryMissing { name } => {
                write!(f, "script has no entry sequence named '{name}'")
            }
            JobError::Transform {
                message,
                silenceable,
            } => {
                let kind = if *silenceable {
                    "silenceable"
                } else {
                    "definite"
                };
                write!(f, "{kind} transform failure: {message}")
            }
            JobError::Panicked { message } => write!(f, "transform panicked: {message}"),
            JobError::DeadlineExceeded => write!(f, "deadline exceeded"),
            JobError::Cancelled => write!(f, "cancelled by the batch failure budget"),
        }
    }
}

impl std::error::Error for JobError {}

/// Shorthand for per-job results.
pub type JobResult = Result<JobOutput, JobError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_builder_defaults_to_main() {
        let job = Job::new("s", "p");
        assert_eq!(job.entry, "main");
        assert_eq!(Job::new("s", "p").with_entry("other").entry, "other");
        assert_eq!(job.policy, JobPolicy::default());
        assert_eq!(job.policy.max_attempts, 1);
        assert_eq!(job.policy.txn, TxnMode::Always);
        let job = job
            .with_deadline(Duration::ZERO)
            .with_max_attempts(0)
            .with_txn(TxnMode::Never)
            .with_fault_lane(7);
        assert_eq!(
            job.policy,
            JobPolicy {
                deadline: Some(Duration::ZERO),
                max_attempts: 1,
                txn: TxnMode::Never,
                fault_lane: Some(7),
            }
        );
    }

    #[test]
    fn errors_display_their_kind() {
        let e = JobError::Transform {
            message: "no match".into(),
            silenceable: true,
        };
        assert!(e.to_string().contains("silenceable"));
        assert!(JobError::DeadlineExceeded.to_string().contains("deadline"));
        assert!(JobError::Cancelled.to_string().contains("failure budget"));
        let p = JobError::Parse {
            what: "payload",
            message: "bad token".into(),
        };
        assert!(p.to_string().contains("payload"));
    }
}
