//! The engine: cache probe on the submitting thread, then that thread and
//! the scoped threads it spawns run the misses off one list; per-worker
//! interpreter environments, result collection in job order.
//!
//! # Determinism
//!
//! `run_batch` is deterministic in its *results* regardless of worker
//! count: no job observes another job's state, so the only thing
//! scheduling can change is timing. A job parses its own texts into a
//! fresh context, except that a job whose payload text another miss of the
//! batch also carries (a sweep: many schedules, one payload) may run on
//! the payload its worker parsed for an earlier job. It runs there inside
//! an undo-log watermark that is rolled back once its output is printed,
//! so it starts from the payload exactly as parsed and leaves it so: the
//! same printed bytes, counters and errors as a fresh context, whichever
//! worker parsed it (DESIGN.md "Sweep by rollback" gives the conditions).
//! What is context-relative may differ — the ids transforms allocate, and
//! with them the op ids the journal's change records name.
//!
//! Results are reported back as `(job index, result)` pairs and placed
//! into their slot, so the returned vector is in submission order even
//! when workers finish out of order. The result cache cannot break this:
//! every job is probed before any job of the batch runs, so which jobs are
//! hits — and with it every cache counter and `from_cache` flag — depends
//! only on the batch and the cache state it found. (Two equal jobs in one
//! batch both miss; the second insert is a replacement.) A hit may be a
//! failure: the cache keeps a job's deterministic failure as it keeps a
//! success (see the crate docs on what is cached), and answers it with the
//! error the job ended with, byte for byte.
//!
//! # Observability
//!
//! The batch runs inside a `sched`/`batch` trace span; each job gets one
//! `sched`/`job` span annotated with its cache outcome, on the lane of the
//! thread that ran it: lane = worker + 1, the caller being worker 0 — so
//! hits and worker 0's misses are on the caller's lane, spawned worker *w*
//! on lane *w* + 1, all on the caller's clock. Every worker records its
//! jobs into metrics and journal stores of its own and hands them back
//! when it finishes; the caller merges them (`trace::adopt`,
//! `metrics::absorb`, `journal::absorb`), so a single `TD_TRACE` /
//! `TD_JOURNAL` file shows the whole pool. The merged journal also rides on
//! the [`BatchReport`], whose [`BatchReport::report_text`] /
//! [`BatchReport::report_json`] rank transforms by payload ops touched,
//! time, and failures. Flight-recorder events stay in the ring of the
//! thread that ran the job — the caller's, for a single-miss batch.
//!
//! A failing schedule is a cheap, ordinary outcome (it is how a search
//! loop rejects a candidate), so the engine never diagnoses one unasked:
//! a job that fails with a transform error — executed or answered from
//! the cache — is handed back in [`BatchReport::failed_jobs`], and
//! [`Engine::bisect`] computes its minimized repro schedule when — and on
//! whichever thread — a caller wants it.
//!
//! # Policy
//!
//! The engine holds only what it is built from and how wide it runs
//! ([`EngineConfig`]: workers, cache capacity, the per-batch failure
//! budget, the transform-op factory). How one job runs — its deadline,
//! attempts, transactional mode and fault lane — is the
//! [`JobPolicy`](crate::JobPolicy) the job carries, read by whichever
//! worker runs it. One engine therefore serves jobs under any mix of
//! policies (td-serve: every tenant's jobs, on one engine per service).

use crate::cache::{CacheKey, CacheStats, CachedFailure, CachedOutcome, CachedResult, ResultCache};
use crate::job::{Job, JobError, JobOutput, JobResult};
use crate::stats::{BatchStats, WorkerLane, QUEUE_WAIT_SERIES, RUN_SERIES, TOTAL_SERIES};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use td_ir::{Context, OpId, PassRegistry};
use td_support::{fault, flight, journal, metrics, trace};
use td_transform::{InterpConfig, InterpEnv, Interpreter, TransformOpRegistry, TxnMode};

/// Builds the engine's transform-op registry, once, at construction (the
/// extension point used by tests and downstream transform libraries).
pub type TransformsFactory = Arc<dyn Fn() -> TransformOpRegistry + Send + Sync>;

/// Engine configuration: what the engine is built from and how wide it
/// runs. How each job runs is the job's own [`JobPolicy`](crate::JobPolicy).
#[derive(Clone)]
pub struct EngineConfig {
    /// Most workers a batch's misses run on (minimum 1), the calling thread
    /// first: one per cache miss up to this, none for an all-hit batch.
    pub workers: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Failed jobs tolerated per batch before graceful degradation: once
    /// the count of failures — executed, or answered from the cache —
    /// reaches this, workers stop dispatching and drain the remaining
    /// queue as [`JobError::Cancelled`], and the batch reports
    /// [`BatchReport::degraded`]. Cached failures are counted at the probe,
    /// before any miss runs, so a batch trips on the same number of
    /// failures whatever the cache holds. `None` never degrades. In-flight
    /// jobs finish normally; nothing is aborted mid-step.
    pub failure_budget: Option<usize>,
    /// Transform-op registry builder.
    pub transforms_factory: TransformsFactory,
}

/// A fresh context with every payload dialect plus the transform dialect
/// registered: what each job attempt parses into.
pub fn standard_context() -> Context {
    let mut ctx = Context::new();
    td_dialects::register_all_dialects(&mut ctx);
    td_transform::register_transform_dialect(&mut ctx);
    ctx
}

/// The full pass registry (backing `transform.apply_registered_pass`),
/// built once per engine.
pub fn standard_passes() -> PassRegistry {
    let mut registry = PassRegistry::new();
    td_dialects::passes::register_all_passes(&mut registry);
    registry
}

impl EngineConfig {
    /// The standard configuration: the standard transform ops, one worker
    /// per available core, a 1024-entry cache, no failure budget. Every
    /// engine parses into [`standard_context`] and applies passes from
    /// [`standard_passes`].
    pub fn standard() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cache_capacity: 1024,
            failure_budget: None,
            transforms_factory: Arc::new(TransformOpRegistry::with_standard_ops),
        }
    }

    /// Sets the worker count (builder-style).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the result-cache capacity (builder-style); 0 disables it.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Disables the result cache (builder-style).
    pub fn without_cache(self) -> Self {
        self.with_cache_capacity(0)
    }

    /// Sets the per-batch failure budget (builder-style).
    pub fn with_failure_budget(mut self, budget: usize) -> Self {
        self.failure_budget = Some(budget);
        self
    }
}

impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("workers", &self.workers)
            .field("cache_capacity", &self.cache_capacity)
            .field("failure_budget", &self.failure_budget)
            .finish_non_exhaustive()
    }
}

/// Outcome of one [`Engine::run_batch`] call.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-job results, in submission order.
    pub results: Vec<JobResult>,
    /// Whether each job's result — success or failure — was answered by
    /// the cache probe, in submission order. For a success it equals
    /// [`JobOutput::from_cache`].
    pub from_cache: Vec<bool>,
    /// Cache counter deltas attributable to this batch.
    pub cache: CacheStats,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Workers that ran misses, the calling thread included (0: all hits).
    pub workers: usize,
    /// Whether the batch degraded gracefully: the failure budget
    /// ([`EngineConfig::failure_budget`]) tripped and the remaining queue
    /// was drained as [`JobError::Cancelled`] instead of being run. The
    /// results are *partial* but every slot is filled and every completed
    /// job's result is exactly what a non-degraded run would have
    /// produced.
    pub degraded: bool,
    /// The merged provenance journal of the batch: every worker's journal
    /// (steps stamped with their job index), rebased into one store. Empty
    /// unless journaling was enabled (`TD_JOURNAL` or
    /// `journal::set_enabled`) when the batch ran. It carries no bisection
    /// artifacts: a caller that wants a failed job's repro in a journal
    /// asks [`Engine::bisect`] for it and attaches the text itself.
    pub journal: journal::Journal,
    /// The jobs that failed with [`JobError::Transform`], executed or
    /// answered from the cache, as `(batch index, job)` in index order —
    /// moved back out of the batch, so a caller can hand one to
    /// [`Engine::bisect`] later without having kept a copy of it.
    pub failed_jobs: Vec<(usize, Job)>,
    /// Latency and utilization breakdown: queue-wait vs. run-time
    /// histograms (p50/p90/p99/p999), per-worker utilization timeline, and
    /// the batch-scoped cache hit rate. Always populated — workers record
    /// these unconditionally (histogram observation is not env-gated).
    pub stats: BatchStats,
}

impl BatchReport {
    /// Number of successful jobs.
    pub fn ok_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Number of failed jobs.
    pub fn err_count(&self) -> usize {
        self.results.len() - self.ok_count()
    }

    /// The output module texts of successful jobs, `None` for failures —
    /// the value two runs of the same batch must agree on.
    pub fn output_texts(&self) -> Vec<Option<&str>> {
        self.results
            .iter()
            .map(|r| r.as_ref().ok().map(|o| o.module_text.as_str()))
            .collect()
    }

    /// Human-readable batch report: the latency/utilization breakdown
    /// ([`BatchStats::report_text`]) followed by the ranked transform
    /// provenance table (empty-ish when journaling was off).
    pub fn report_text(&self) -> String {
        format!("{}{}", self.stats.report_text(), self.journal.report_text())
    }

    /// The batch report as one JSON object:
    /// `{"stats":{...},"journal":{...}}` — latency percentiles, worker
    /// utilization, and cache hit rate under `stats`; steps, changes,
    /// artifacts, and the ranked summary under `journal`. Validates with
    /// `td_support::trace::validate_json`.
    pub fn report_json(&self) -> String {
        format!(
            "{{\"stats\":{},\"journal\":{}}}",
            self.stats.to_json(),
            self.journal.to_json()
        )
    }
}

/// The schedule-application engine: a worker count and failure budget, the
/// transform/pass registries its workers share, and the result cache that
/// persists across batches. Per-job policy rides on each [`Job`].
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    cache: Arc<ResultCache>,
    transforms: TransformOpRegistry,
    passes: PassRegistry,
}

impl Engine {
    /// Creates an engine; the result cache is sized from the config and
    /// lives as long as the engine (batches share it).
    pub fn new(config: EngineConfig) -> Self {
        let cache = Arc::new(ResultCache::new(config.cache_capacity));
        Engine::with_shared_cache(config, cache)
    }

    /// Creates an engine over a caller-owned result cache (`td-serve`: a
    /// memory cache with a disk layer behind it); `config.cache_capacity`
    /// is not read, the cache is sized by its owner. Results are
    /// content-addressed, so one cache is safe to share across tenants and
    /// across engines by construction.
    pub fn with_shared_cache(config: EngineConfig, cache: Arc<ResultCache>) -> Self {
        let transforms = (config.transforms_factory)();
        Engine {
            config,
            cache,
            transforms,
            passes: standard_passes(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine's result cache (shared across batches; possibly across
    /// engines — see [`Engine::with_shared_cache`]).
    pub fn cache(&self) -> &Arc<ResultCache> {
        &self.cache
    }

    /// Cumulative cache counters across all batches.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Applies every job in `jobs` and returns the results in submission
    /// order: cache hits are answered on the calling thread, which then
    /// runs the misses itself beside up to `workers - 1` threads spawned for
    /// the batch (at most one worker per miss). See the module docs for the
    /// determinism and observability contracts.
    pub fn run_batch(&self, jobs: Vec<Job>) -> BatchReport {
        let started = Instant::now();
        let job_count = jobs.len();
        let stats_before = self.cache.stats();
        let mut batch_span = trace::span("sched", "batch");
        batch_span.arg("jobs", job_count.to_string());
        metrics::counter("sched.batches", 1);
        metrics::counter("sched.jobs", job_count as u64);

        let mut batch_journal = journal::Journal::new();
        let mut batch_stats = BatchStats::default();
        let mut slots: Vec<Option<JobResult>> = Vec::new();
        slots.resize_with(job_count, || None);
        let mut from_cache = vec![false; job_count];
        let mut misses = Vec::new();
        // Transform failures answered by the probe, for `failed_jobs`, and
        // every failure it answered, for the failure budget.
        let (mut failed_jobs, mut cached_failures) = (Vec::new(), 0);
        for (index, job) in jobs.into_iter().enumerate() {
            let key = CacheKey::of(&job.script, &job.payload, &job.entry);
            match self.probe(&job, key, started, &mut batch_stats) {
                Some(result) => {
                    from_cache[index] = true;
                    if let Err(error) = &result {
                        cached_failures += 1;
                        if matches!(error, JobError::Transform { .. }) {
                            failed_jobs.push((index, job));
                        }
                    }
                    slots[index] = Some(result);
                }
                None => misses.push((index, job, key)),
            }
        }
        let mut degraded = self.budget_spent(cached_failures);
        if degraded {
            note_degraded(cached_failures);
        }
        let workers = self.config.workers.max(1).min(misses.len());
        batch_span.arg("workers", workers.to_string());
        if workers > 0 {
            let (tripped, failed_misses) = self.run_misses(
                misses,
                workers,
                started,
                cached_failures,
                &mut slots,
                &mut batch_stats,
                &mut batch_journal,
            );
            degraded = tripped;
            failed_jobs.extend(failed_misses);
            failed_jobs.sort_unstable_by_key(|(index, _)| *index);
        }

        let results = slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    Err(JobError::Panicked {
                        message: "worker terminated before reporting a result".to_owned(),
                    })
                })
            })
            .collect();
        drop(batch_span);
        // Chaos analyzability: when a fault plan is armed, the batch's
        // metrics (and so `metrics::snapshot` and flight bundles) carry the
        // per-point fault.* hit/armed/fired counters.
        if fault::active() {
            fault::publish_metrics();
        }
        let wall = started.elapsed();
        let cache = self.cache.stats().since(&stats_before);
        batch_stats.wall_ns = wall.as_nanos();
        batch_stats.cache = cache;
        metrics::observe("sched.batch.wall", wall.as_nanos());
        BatchReport {
            results,
            from_cache,
            cache,
            wall,
            workers,
            degraded,
            journal: batch_journal,
            failed_jobs,
            stats: batch_stats,
        }
    }

    /// Deadline pre-check, then the cache lookup, on the submitting
    /// thread. `Some` is a hit — a cached output or a cached failure —
    /// fully accounted for (its `sched`/`job` span and one sample per
    /// latency series). `None` puts the job on the miss list: a miss, or a
    /// job whose deadline has already elapsed, which the worker that claims
    /// it cancels like any job that expired while listed.
    fn probe(
        &self,
        job: &Job,
        key: CacheKey,
        batch_start: Instant,
        stats: &mut BatchStats,
    ) -> Option<JobResult> {
        if job.policy.deadline_elapsed(batch_start) {
            return None;
        }
        let wait_ns = batch_start.elapsed().as_nanos();
        let probe_started = Instant::now();
        let hit = self.cache.lookup(&key)?;
        let run = probe_started.elapsed();
        if trace::enabled() {
            let mut args = job_span_args(job);
            args.push(("cache", "hit".to_owned()));
            trace::complete("sched", "job", run, &args);
        }
        stats.observe_job(wait_ns, run.as_nanos());
        observe_job_latency(wait_ns, run.as_nanos());
        Some(match hit {
            Ok(hit) => Ok(JobOutput {
                module_text: hit.module_text,
                transforms_executed: hit.transforms_executed,
                attempts: 0,
                from_cache: true,
                rolled_back: 0,
                undo_entries: 0,
            }),
            Err(failure) => Err(failure.into_error()),
        })
    }

    /// Whether `failures` failures spend the batch's failure budget.
    fn budget_spent(&self, failures: usize) -> bool {
        failures > 0
            && self
                .config
                .failure_budget
                .is_some_and(|budget| failures >= budget)
    }

    /// Runs the batch's misses on the calling thread and `workers - 1` scoped
    /// threads, fills their slots, and merges what each worker recorded into
    /// the batch and the calling thread's stores. `failed` failures, the
    /// probe's, count toward the budget already. Returns whether the budget
    /// has tripped, and the misses that failed with a transform error.
    #[allow(clippy::too_many_arguments)]
    fn run_misses(
        &self,
        misses: Vec<(usize, Job, CacheKey)>,
        workers: usize,
        started: Instant,
        failed: usize,
        slots: &mut [Option<JobResult>],
        batch_stats: &mut BatchStats,
        batch_journal: &mut journal::Journal,
    ) -> (bool, Vec<(usize, Job)>) {
        // The list is complete before any worker starts: workers claim from
        // it through a cursor, and queue wait is measured from here.
        let listed = Instant::now();
        let cursor = AtomicUsize::new(0);
        let shared = shared_payloads(&misses);
        let (trace_on, journal_on, epoch) = (trace::enabled(), journal::enabled(), trace::epoch());
        // Failure-budget state, shared across workers: failures so far,
        // and whether the batch has tripped into drain mode.
        let failures = AtomicUsize::new(failed);
        let degraded = AtomicBool::new(self.budget_spent(failed));

        // One worker, whichever thread it is on: claims jobs until the list
        // runs out and hands its results and lane record back.
        let work = |worker_index: usize| {
            let mut lane = WorkerLane {
                worker: worker_index,
                ..WorkerLane::default()
            };
            let mut results = Vec::new();
            let _worker_span = trace::span("sched", format!("worker{worker_index}"));
            let mut env = self.interp_env();
            // The payload this worker parsed last, kept for the next shared
            // job that carries the same text.
            let mut slot: Option<PayloadSlot> = None;
            loop {
                // Relaxed: the cursor hands out indices and publishes no data.
                let position = cursor.fetch_add(1, Ordering::Relaxed);
                let Some((index, job, key)) = misses.get(position) else {
                    break;
                };
                let (index, key) = (*index, *key);
                // The env is this worker's own, so setting the job's
                // transactional mode is job-local: nothing carries over to
                // the next job it runs.
                env.config.txn = job.policy.txn;
                let wait_ns = listed.elapsed().as_nanos();
                let dispatched_at = started.elapsed().as_nanos();
                let run_started = Instant::now();
                // Journal steps recorded during this job carry its index
                // (and, under td-serve, the service request id), so the
                // merged batch journal stays attributable per job.
                journal::set_job(Some(index));
                journal::set_request(&job.request);
                // Fault-injection lanes are keyed by *job* index, not worker
                // index: a fault plan fires identically no matter which
                // worker (or how many workers) the job lands on. `set_lane`
                // also resets the per-lane hit counters, so `step=N` clauses
                // count from this job's first faultpoint hit. Jobs carrying
                // an explicit lane (td-serve: the tenant's lane) keep it, so
                // a `job=N` selector targets one tenant.
                fault::set_lane(job.policy.fault_lane.unwrap_or(index as u64));
                let result = if degraded.load(Ordering::Acquire) {
                    // Budget tripped: drain without dispatching. Every
                    // remaining slot still gets filled, just with
                    // `Cancelled`.
                    metrics::counter("sched.cancelled", 1);
                    journal::end_step(
                        journal::begin_step("job", "sched.cancel", None, [], 0),
                        0,
                        0,
                        journal::StepOutcome::Failed,
                        "cancelled: batch failure budget exhausted",
                        None,
                    );
                    Err(JobError::Cancelled)
                } else {
                    // Only a transactional job may run on the shared
                    // payload (see `Engine::attempt_on_slot`), and only
                    // with no fault plan armed: faultpoints hit while
                    // parsing must count in the job that parsed.
                    let reuse =
                        shared[position] && job.policy.txn == TxnMode::Always && !fault::active();
                    // The catch_unwind is the panic-isolation boundary: a
                    // panicking transform handler unwinds out of its job
                    // (dropping that job's context) and the worker keeps
                    // serving.
                    catch_unwind(AssertUnwindSafe(|| {
                        let slot = reuse.then_some(&mut slot);
                        self.run_job(&env, job, key, index, started, slot)
                    }))
                    .unwrap_or_else(|payload| {
                        // The unwind may have left the slot's context
                        // mid-job, watermark open: parse afresh next time.
                        slot = None;
                        metrics::counter("sched.panics", 1);
                        journal::unwind_open_steps(
                            journal::StepOutcome::Failed,
                            "panicked: job unwound to the worker boundary",
                        );
                        Err(JobError::Panicked {
                            message: fault::panic_text(payload.as_ref()),
                        })
                    })
                };
                if let Err(error) = &result {
                    if !matches!(error, JobError::Cancelled) {
                        let failed = failures.fetch_add(1, Ordering::AcqRel) + 1;
                        if self.budget_spent(failed) && !degraded.swap(true, Ordering::AcqRel) {
                            note_degraded(failed);
                        }
                    }
                }
                journal::set_job(None);
                journal::set_request("");
                let run_ns = run_started.elapsed().as_nanos();
                observe_job_latency(wait_ns, run_ns);
                lane.jobs += 1;
                lane.busy_ns += run_ns;
                lane.timeline
                    .push((dispatched_at, started.elapsed().as_nanos()));
                results.push((index, result));
            }
            (results, lane)
        };

        std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers)
                .map(|worker_index| {
                    let work = &work;
                    scope.spawn(move || {
                        // A new thread's stores are empty; it takes the
                        // caller's switches and clock.
                        trace::reset_at(epoch);
                        trace::set_enabled(trace_on);
                        journal::set_enabled(journal_on);
                        let output = work(worker_index);
                        (output, trace::take(), metrics::take(), journal::take())
                    })
                })
                .collect();
            // Worker 0 is the calling thread, lent: its metrics, journal and
            // fault lane are set aside, so the worker's samples come back
            // batch-scoped like any other's, and the catch_unwind stands
            // where `join` does for the rest (the caller may be a pool
            // thread with no guard of its own). Its spans stay put.
            let (callers_metrics, callers_journal) = (metrics::take(), journal::lend());
            let callers_lane = fault::take_lane();
            let output = catch_unwind(AssertUnwindSafe(|| work(0)));
            fault::restore_lane(callers_lane);
            let own_metrics = metrics::replace(callers_metrics);
            let own_journal = journal::reclaim(callers_journal);
            let first =
                output.map(|output| (output, trace::Trace::default(), own_metrics, own_journal));
            // A worker that died reports nothing and costs nobody else's
            // results; `run_batch` fills the slot of the job it held.
            let finished =
                std::iter::once(first).chain(spawned.into_iter().map(|handle| handle.join()));
            for ((results, lane), worker_trace, worker_metrics, worker_journal) in
                finished.flatten()
            {
                for (index, result) in results {
                    slots[index] = Some(result);
                }
                trace::adopt(&worker_trace, lane.worker as u32 + 1);
                // Every worker started from empty metrics, so these are
                // exactly batch-scoped: the stats histograms pool them per
                // batch, the absorb sends the same samples on to the
                // caller's registry (and thus `metrics::snapshot`).
                batch_stats.absorb_worker(&worker_metrics, lane);
                metrics::absorb(&worker_metrics);
                // Journals merge twice on purpose: into the report
                // (batch-scoped) and into the caller's thread-local store
                // (so `write_env_journal` covers the pool the way
                // `TD_TRACE` does).
                batch_journal.merge(&worker_journal);
                journal::absorb(&worker_journal);
            }
        });
        // A job that failed with a transform error goes back to the caller
        // for a later `Engine::bisect`; the batch is done with it.
        let failed_jobs = misses
            .into_iter()
            .filter(|(index, ..)| matches!(slots[*index], Some(Err(JobError::Transform { .. }))))
            .map(|(index, job, _)| (index, job))
            .collect();
        (degraded.load(Ordering::Acquire), failed_jobs)
    }

    /// Bisects a job that failed with a transform error: finds the
    /// shortest failing prefix of its schedule with
    /// [`td_transform::bisect_schedule_failure`] — a handful of fresh-context
    /// parse+interpret probes on the calling thread, each into a
    /// [`standard_context`], under this engine's registries and the job's
    /// own transactional mode — and renders the minimized repro:
    ///
    /// ```text
    /// failing prefix: P of N step(s) (K probe(s))
    /// failure: <message of the minimized repro>
    /// <the schedule truncated to its failing prefix>
    /// ```
    ///
    /// `None` when the failure does not reproduce from the job's texts (or
    /// they do not parse, or the bisection itself is brought down by an
    /// injected fault — contained here like a panicking job is, so a
    /// caller serving requests can ask without a guard of its own).
    ///
    /// The probes run in the job's fault lane ([`JobPolicy::fault_lane`](crate::JobPolicy::fault_lane); a
    /// job without one keeps the caller's), so a fault plan fires in them as
    /// it fired in the job; the caller's lane is restored afterwards. They
    /// record nothing in the journal or the flight recorder. Each
    /// successful call bumps the `sched.bisections` counter on the calling
    /// thread.
    pub fn bisect(&self, job: &Job) -> Option<String> {
        let mut env = self.interp_env();
        env.config.txn = job.policy.txn;
        let callers_lane = fault::take_lane();
        if let Some(lane) = job.policy.fault_lane {
            fault::set_lane(lane);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            td_transform::bisect_schedule_failure(
                &env,
                &standard_context,
                &job.script,
                &job.payload,
                &job.entry,
            )
        }));
        fault::restore_lane(callers_lane);
        let outcome = outcome.ok().flatten()?;
        metrics::counter("sched.bisections", 1);
        if trace::enabled() {
            let mut args = job_span_args(job);
            args.push(("failing_prefix", outcome.failing_prefix.to_string()));
            args.push(("probes", outcome.probes.to_string()));
            trace::instant("sched", "bisect", &args);
        }
        Some(format!(
            "failing prefix: {} of {} step(s) ({} probe(s))\nfailure: {}\n{}",
            outcome.failing_prefix,
            outcome.total_steps,
            outcome.probes,
            outcome.message,
            outcome.minimized_script,
        ))
    }

    /// An interpreter environment over the engine's registries; callers
    /// set `config.txn` for the job at hand.
    fn interp_env(&self) -> InterpEnv<'_> {
        InterpEnv {
            transforms: self.transforms.clone(),
            passes: Some(&self.passes),
            patterns: None,
            library: None,
            config: InterpConfig::default(),
        }
    }

    /// Runs one job the probe did not answer, on the calling worker
    /// thread: deadline pre-check, then up to the job's `max_attempts`
    /// interpreter attempts — on the worker's payload `slot` when the job
    /// may share one, else each in a fresh context. Its outcome, a success
    /// or a cacheable failure ([`CachedFailure::of`]), is stored under
    /// `key` unless an injected fault fired on this thread while it ran.
    fn run_job(
        &self,
        env: &InterpEnv<'_>,
        job: &Job,
        key: CacheKey,
        index: usize,
        batch_start: Instant,
        mut slot: Option<&mut Option<PayloadSlot>>,
    ) -> JobResult {
        let mut job_span = trace::span("sched", "job");
        for (name, value) in job_span_args(job) {
            job_span.arg(name, value);
        }
        let policy = &job.policy;
        if policy.deadline_elapsed(batch_start) {
            job_span.arg("outcome", "cancelled");
            metrics::counter("sched.deadline_cancelled", 1);
            return expire(
                job,
                index,
                "queued",
                "cancelled while queued: batch deadline elapsed before dispatch",
            );
        }
        job_span.arg("cache", "miss");

        // A fault that fires while the job runs makes its outcome a fact
        // about this execution, not about the request: it is not cached.
        let fired = fault::fired_count();
        let remember = |outcome: CachedOutcome| {
            if fault::fired_count() == fired {
                self.cache.insert_outcome(key, outcome);
            }
        };
        let max_attempts = policy.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            match self.attempt(env, job, slot.as_deref_mut()) {
                Ok(output) => {
                    remember(Ok(CachedResult {
                        module_text: output.module_text.clone(),
                        transforms_executed: output.transforms_executed,
                    }));
                    if policy.deadline_elapsed(batch_start) {
                        job_span.arg("outcome", "expired");
                        metrics::counter("sched.deadline_expired", 1);
                        return expire(
                            job,
                            index,
                            "ran",
                            "finished past the batch deadline: output cached but dropped",
                        );
                    }
                    return Ok(JobOutput {
                        module_text: output.module_text,
                        transforms_executed: output.transforms_executed,
                        attempts: attempt,
                        from_cache: false,
                        rolled_back: output.rolled_back,
                        undo_entries: output.undo_entries,
                    });
                }
                Err(JobError::Transform {
                    message,
                    silenceable: true,
                }) if attempt < max_attempts && !policy.deadline_elapsed(batch_start) => {
                    metrics::counter("sched.retries", 1);
                    trace::instant(
                        "sched",
                        "retry",
                        &[("attempt", attempt.to_string()), ("reason", message)],
                    );
                }
                Err(error) => {
                    if let Some(failure) = CachedFailure::of(&error) {
                        remember(Err(failure));
                    }
                    return Err(error);
                }
            }
        }
    }

    /// One interpreter attempt. Without a slot, against a completely
    /// fresh context; with one, on the worker's parsed payload
    /// ([`Engine::attempt_on_slot`]). On success returns the printed module
    /// plus the attempt's interpreter stats (transform count, rollbacks,
    /// undo-log volume).
    fn attempt(
        &self,
        env: &InterpEnv<'_>,
        job: &Job,
        slot: Option<&mut Option<PayloadSlot>>,
    ) -> Result<AttemptOutput, JobError> {
        if let Some(slot) = slot {
            return self.attempt_on_slot(env, job, slot);
        }
        let mut ctx = standard_context();
        let payload = parse_payload(&mut ctx, job)?;
        apply_script(env, &mut ctx, payload, job)
    }

    /// One attempt on the worker's parsed payload: the slot is re-parsed
    /// only if it holds another payload's text, then the script is parsed,
    /// applied and the payload printed inside one undo-log watermark, and
    /// the rollback returns the slot to the payload as parsed — the
    /// script's ops freed too. The job runs under [`TxnMode::Always`], so
    /// every step already opens its own watermark; the enclosing one
    /// changes no step's outcome or statistics.
    ///
    /// The rollback is checked in every build: O(1) invariants (live
    /// entity counts, the root's op count, the undo side stacks) after
    /// every job, and the payload's full structural fingerprint after the
    /// slot's first job and every [`SLOT_FINGERPRINT_EVERY`]-th after it.
    /// A failed check means the slot no longer holds the payload as
    /// parsed, so its output is not trusted either: the slot is dropped,
    /// counted in `sched.slot_discards`, and the job re-runs on a fresh
    /// context. A defective undo arm costs time, never a wrong result.
    fn attempt_on_slot(
        &self,
        env: &InterpEnv<'_>,
        job: &Job,
        slot: &mut Option<PayloadSlot>,
    ) -> Result<AttemptOutput, JobError> {
        let parsed = match slot.take() {
            Some(held) if held.payload == job.payload => held,
            // The old context is dropped before the new one is built: one
            // context per worker at a time.
            _ => {
                let mut ctx = standard_context();
                let root = parse_payload(&mut ctx, job)?;
                PayloadSlot {
                    payload: job.payload.clone(),
                    ctx,
                    root,
                    runs: 0,
                }
            }
        };
        let PayloadSlot {
            ctx, root, runs, ..
        } = slot.insert(parsed);
        let root = *root;
        let watermark = if *runs % SLOT_FINGERPRINT_EVERY == 0 {
            ctx.begin_watermark_fingerprinted(root)
        } else {
            ctx.begin_watermark(Some(root))
        };
        *runs += 1;
        let output = apply_script(env, ctx, root, job);
        if let Err(message) = ctx.rollback_watermark(watermark) {
            *slot = None;
            metrics::counter("sched.slot_discards", 1);
            trace::instant("sched", "slot_discard", &[("reason", message)]);
            return self.attempt(env, job, None);
        }
        output
    }
}

/// How often a reused payload slot's rollback is checked against the
/// payload's full structural fingerprint, in jobs (the first job on a slot
/// always is). The walk is O(op); the O(1) checks run after every job.
const SLOT_FINGERPRINT_EVERY: u64 = 16;

/// One worker's parsed payload, kept across the shared jobs it runs: the
/// text it was parsed from, the context it lives in, its module op and how
/// many jobs have run on it.
struct PayloadSlot {
    payload: String,
    ctx: Context,
    root: OpId,
    runs: u64,
}

/// Whether each miss's payload text occurs in at least one other miss of
/// the batch.
fn shared_payloads(misses: &[(usize, Job, CacheKey)]) -> Vec<bool> {
    let mut counts: HashMap<PayloadText, usize> = HashMap::new();
    for miss in misses {
        *counts.entry(PayloadText::of(miss)).or_insert(0) += 1;
    }
    misses
        .iter()
        .map(|miss| counts[&PayloadText::of(miss)] >= 2)
        .collect()
}

/// A payload text as a map key: it hashes as the payload hash its cache
/// key already holds, so the text is read only to compare it.
struct PayloadText<'a> {
    hash: u64,
    text: &'a str,
}

impl PayloadText<'_> {
    fn of((_, job, key): &(usize, Job, CacheKey)) -> PayloadText<'_> {
        PayloadText {
            hash: key.payload_fp,
            text: &job.payload,
        }
    }
}

impl Hash for PayloadText<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialEq for PayloadText<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text
    }
}

impl Eq for PayloadText<'_> {}

/// Parses the job's script into `ctx`, where its payload already is,
/// applies the entry sequence to `payload` and prints the result.
fn apply_script(
    env: &InterpEnv<'_>,
    ctx: &mut Context,
    payload: OpId,
    job: &Job,
) -> Result<AttemptOutput, JobError> {
    let script = parse(ctx, &job.script, "script")?;
    let entry = ctx
        .lookup_symbol(script, &job.entry)
        .ok_or_else(|| JobError::EntryMissing {
            name: job.entry.clone(),
        })?;
    let mut interp = Interpreter::new(env);
    match interp.apply_reentrant(ctx, entry, payload) {
        Ok(()) => Ok(AttemptOutput {
            module_text: td_ir::print_op(ctx, payload),
            transforms_executed: interp.stats.transforms_executed,
            rolled_back: interp.stats.rolled_back,
            undo_entries: interp.stats.undo_entries,
        }),
        Err(error) => Err(JobError::Transform {
            message: error.diagnostic().message().to_owned(),
            silenceable: error.is_silenceable(),
        }),
    }
}

/// A job past its deadline: journaled as a synthetic `job`-kind step with
/// [`StepOutcome::TimedOut`], so batch provenance reports distinguish *slow*
/// jobs from *broken* ones (transform steps the job did run are already in
/// the journal with their own outcomes), then recorded and dumped by the
/// flight recorder under `phase` (`queued` or `ran`).
///
/// [`StepOutcome::TimedOut`]: journal::StepOutcome::TimedOut
fn expire(job: &Job, index: usize, phase: &str, message: &str) -> JobResult {
    journal::end_step(
        journal::begin_step("job", "sched.deadline", None, [], 0),
        0,
        0,
        journal::StepOutcome::TimedOut,
        message,
        None,
    );
    let attribution = [
        ("job", index.to_string()),
        ("entry", job.entry.clone()),
        ("tenant", job.tag.clone()),
        ("request", job.request.clone()),
        ("phase", phase.to_owned()),
    ];
    flight::record("deadline.expired", &attribution);
    flight::dump("deadline", &attribution);
    Err(JobError::DeadlineExceeded)
}

/// The successful result of one interpreter attempt (see
/// [`Engine::attempt`]).
struct AttemptOutput {
    module_text: String,
    transforms_executed: usize,
    rolled_back: usize,
    undo_entries: usize,
}

/// Counts and traces the batch tripping its failure budget at `failures`.
fn note_degraded(failures: usize) {
    metrics::counter("sched.degraded", 1);
    trace::instant("sched", "degraded", &[("failures", failures.to_string())]);
}

/// The arguments every `sched`/`job` span carries, hit or miss.
fn job_span_args(job: &Job) -> Vec<(&'static str, String)> {
    let mut args = vec![("entry", job.entry.clone())];
    if !job.tag.is_empty() {
        args.push(("tenant", job.tag.clone()));
    }
    if !job.request.is_empty() {
        args.push(("request", job.request.clone()));
    }
    args
}

/// One job's samples in the three latency series, on the calling thread's
/// metrics registry.
fn observe_job_latency(wait_ns: u128, run_ns: u128) {
    metrics::observe(QUEUE_WAIT_SERIES, wait_ns);
    metrics::observe(RUN_SERIES, run_ns);
    metrics::observe(TOTAL_SERIES, wait_ns + run_ns);
}

/// Parses the job's payload into `ctx`, counted in `sched.payload_parses`.
fn parse_payload(ctx: &mut Context, job: &Job) -> Result<OpId, JobError> {
    metrics::counter("sched.payload_parses", 1);
    parse(ctx, &job.payload, "payload")
}

fn parse(ctx: &mut Context, source: &str, what: &'static str) -> Result<OpId, JobError> {
    td_ir::parse_module(ctx, source).map_err(|diag| JobError::Parse {
        what,
        message: diag.message().to_owned(),
    })
}
