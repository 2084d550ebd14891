//! The service core: admission control, the weighted-fair queue, the
//! persistent worker pool that pulls from it, and per-job
//! completion/artifact delivery.
//!
//! # Architecture
//!
//! ```text
//! submit() ──admission──▶ FairQueue (per-tenant FIFOs, WFQ)
//!                              │ N worker threads, each popping the
//!                              ▼ fairest job when it falls idle
//!                  the one td_sched::Engine (1-job batch,
//!                              │   run on the worker that popped it)
//!                              │
//!            completions map + condvar ──▶ wait(job_id)
//!                              │
//!                  ArtifactStore (report / bisect / flight)
//!                              │ ARTIFACT request, connection thread
//!                              ▼
//!          render the report / bisect the failed job, once
//! ```
//!
//! One engine, policy on the job: the service holds one [`Engine`] over
//! one [`ResultCache`] (memory + optional [`DiskStore`]), its registries
//! built once, and stamps each admitted job with its tenant's
//! [`td_sched::JobPolicy`] (deadline, attempts, transactional mode, chaos
//! lane). The cache is shared because results are content-addressed.
//! Tenant isolation is therefore structural:
//!
//! * a tenant's policy reaches only its own jobs ([`td_sched::Job::policy`]);
//! * a tenant's faults can only fire in its own fault lane
//!   ([`td_sched::JobPolicy::fault_lane`] = the tenant's configured lane);
//! * a tenant's failures only advance its own failure budget (per-tenant
//!   counters; admission fuses off *that* tenant only);
//! * a tenant's load can only delay, never change, another tenant's
//!   results (workers never share payload state — the engine's
//!   determinism contract).
//!
//! # Diagnostics on demand
//!
//! A worker pays for no diagnostic nobody has asked for. What it leaves in
//! the [`ArtifactStore`] for a job is the material — the batch report as
//! the engine returned it, and for a job that failed with a transform
//! error the job itself, policy included — and the text is computed by the
//! first `ARTIFACT` request for it ([`Service::artifact`]), on that
//! connection's thread, outside the worker pool: `report` is rendered to
//! JSON, `bisect` runs [`Engine::bisect`] (milliseconds of interpreter
//! probes, under the job's own transactional mode and lane). The result is
//! memoised and evicted with the job. Only the `flight` bundle is captured
//! eagerly, because it snapshots a ring that moves on — the ring of the
//! worker that ran the job, so the bundle replays the job's own steps
//! (behind whatever that worker ran before it).
//!
//! # Drain
//!
//! [`Service::drain`] closes admission and wakes the workers, which keep
//! popping until the fair queue is empty and then exit; it joins them and
//! merges their thread-local metrics/trace lanes into the caller. No
//! admitted job is ever dropped: every `submit` that returned a job id has
//! a completion waiting after `drain` returns.

use crate::artifacts::ArtifactStore;
use crate::diskcache::DiskStore;
use crate::eventlog::EventLog;
use crate::exposition::{Exposition, MetricType};
use crate::scheduler::FairQueue;
use crate::tenant::TenantConfig;
use crate::timeseries::{slo_reading, SeriesRegistry};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use td_sched::{BatchReport, Engine, EngineConfig, Job, JobError, JobResult, ResultCache, TxnMode};
use td_support::{flight, journal, metrics, trace};

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The tenants allowed to submit (at least one).
    pub tenants: Vec<TenantConfig>,
    /// Worker threads in the pool.
    pub workers: usize,
    /// In-memory result-cache entries shared by all tenants.
    pub cache_capacity: usize,
    /// On-disk persistent cache directory (`None` = memory only).
    pub cache_dir: Option<PathBuf>,
    /// Jobs whose artifacts are retained (FIFO eviction beyond this).
    pub artifact_capacity: usize,
    /// Size cap for the on-disk cache (`TD_SERVE_CACHE_MAX_BYTES`); when
    /// the store grows past this, oldest-mtime entries are evicted.
    /// `None` = unbounded.
    pub cache_max_bytes: Option<u64>,
    /// Structured event-log path (`TD_SERVE_LOG`); `None` disables.
    pub event_log: Option<PathBuf>,
    /// Whether the observability plane (request time series, event log,
    /// per-job metric flush, queue-wait spans) is active. On by default;
    /// the overhead gate in CI compares against `false`.
    pub observe: bool,
}

impl ServiceConfig {
    /// A service for the given tenants with defaults: 4 workers, 1024
    /// cache entries, no disk cache.
    pub fn new(tenants: Vec<TenantConfig>) -> Self {
        ServiceConfig {
            tenants,
            workers: 4,
            cache_capacity: 1024,
            cache_dir: None,
            artifact_capacity: 256,
            cache_max_bytes: None,
            event_log: None,
            observe: true,
        }
    }

    /// Sets the worker count (builder-style).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the persistent cache directory (builder-style).
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Sets the in-memory cache capacity (builder-style).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Caps the on-disk cache size (builder-style).
    pub fn with_cache_max_bytes(mut self, bytes: u64) -> Self {
        self.cache_max_bytes = Some(bytes);
        self
    }

    /// Enables the structured event log at `path` (builder-style).
    pub fn with_event_log(mut self, path: impl Into<PathBuf>) -> Self {
        self.event_log = Some(path.into());
        self
    }

    /// Turns the observability plane off (builder-style) — the baseline
    /// half of the CI overhead comparison.
    pub fn without_observability(mut self) -> Self {
        self.observe = false;
        self
    }
}

/// Why a submission was refused at admission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The `tenant` field names no configured tenant.
    UnknownTenant(String),
    /// The tenant's pending cap ([`TenantConfig::max_pending`]) is full.
    QueueFull,
    /// The tenant's cumulative failure budget is exhausted; it is fused
    /// off until the daemon restarts.
    BudgetExhausted,
    /// The service is draining and admits nothing new.
    Draining,
    /// The client-supplied `request=` id is malformed (charset
    /// `[A-Za-z0-9._:/-]`, 1–64 bytes).
    BadRequestId(String),
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::UnknownTenant(name) => write!(f, "unknown tenant '{name}'"),
            AdmitError::QueueFull => write!(f, "tenant queue full"),
            AdmitError::BudgetExhausted => write!(f, "tenant failure budget exhausted"),
            AdmitError::Draining => write!(f, "service is draining"),
            AdmitError::BadRequestId(id) => write!(f, "invalid request id '{id}'"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// A completed job as delivered to the submitter.
#[derive(Clone, Debug)]
pub struct ServeResult {
    /// The service-assigned job id (artifact retrieval key).
    pub job_id: u64,
    /// The request id: client-supplied at SUBMIT or minted at admission.
    /// The same id appears in the job's trace spans, journal steps,
    /// flight-recorder attributions, and event-log entries.
    pub request: String,
    /// The owning tenant.
    pub tenant: String,
    /// The engine's result.
    pub result: JobResult,
    /// Dispatch-to-completion wall time.
    pub wall: Duration,
}

/// Summary returned by [`Service::drain`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DrainSummary {
    /// Jobs completed over the service's lifetime.
    pub jobs: u64,
    /// Worker threads joined.
    pub workers: usize,
}

struct TenantRuntime {
    config: TenantConfig,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    in_flight: AtomicU64,
    deadline_missed: AtomicU64,
    /// Transactional rollbacks across the tenant's jobs (includes
    /// rollbacks inside attempts that went on to fail).
    rollbacks: AtomicU64,
    /// Undo-log entries recorded inside the tenant's transactional steps.
    undo_entries: AtomicU64,
}

impl TenantRuntime {
    fn fused(&self) -> bool {
        self.config
            .failure_budget
            .is_some_and(|budget| self.failed.load(Ordering::Acquire) as usize >= budget)
    }
}

struct Dispatched {
    id: u64,
    tenant: usize,
    request: String,
    /// When admission accepted the job — the queue-wait span's start.
    admitted: Instant,
    job: Job,
}

/// Bounded request-id → job-id index (FIFO eviction), serving `ARTIFACT`
/// and `RESULT` lookups by request id.
#[derive(Default)]
struct RequestIndex {
    by_request: HashMap<String, u64>,
    order: VecDeque<String>,
}

impl RequestIndex {
    fn insert(&mut self, request: String, job: u64, capacity: usize) {
        if self.by_request.insert(request.clone(), job).is_none() {
            self.order.push_back(request);
            while self.order.len() > capacity.max(1) {
                if let Some(evicted) = self.order.pop_front() {
                    self.by_request.remove(&evicted);
                }
            }
        }
    }
}

/// What a deferred artifact's text is computed from, on first retrieval
/// (see [`Inner::render`]).
enum Deferred {
    /// `report`: the job's batch report, rendered with
    /// [`BatchReport::report_json`].
    Report(Box<BatchReport>),
    /// `bisect`: a job that failed with a transform error. Its policy is
    /// what it ran under, so the bisection probes do the same.
    Bisect(Job),
}

struct PendState {
    fair: FairQueue<Dispatched>,
    draining: bool,
}

struct Inner {
    /// Runs every tenant's jobs; each carries its tenant's policy.
    engine: Engine,
    tenants: Vec<TenantRuntime>,
    by_name: HashMap<String, usize>,
    pending: Mutex<PendState>,
    pending_cv: Condvar,
    completions: Mutex<HashMap<u64, ServeResult>>,
    completions_cv: Condvar,
    next_job: AtomicU64,
    jobs_completed: AtomicU64,
    rejected: AtomicU64,
    artifacts: ArtifactStore<Deferred>,
    cache: Arc<ResultCache>,
    disk: Option<Arc<DiskStore>>,
    draining: AtomicBool,
    /// Observability plane (gated by [`ServiceConfig::observe`]).
    observe: bool,
    series: SeriesRegistry,
    events: EventLog,
    /// Per-job worker metrics flushed here so a live `METRICS` scrape sees
    /// engine/fault/cache counters mid-flight, not only after drain.
    live_metrics: Mutex<metrics::Metrics>,
    requests: Mutex<RequestIndex>,
    request_capacity: usize,
    started: Instant,
    /// Short random-ish token distinguishing daemon incarnations; the
    /// prefix of minted request ids and a PONG field.
    instance: String,
}

/// The long-lived multi-tenant schedule-compilation service.
pub struct Service {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<(trace::Trace, metrics::Metrics)>>>,
    worker_count: usize,
}

impl Service {
    /// Starts the service: opens the disk cache (if configured), builds
    /// the engine over it, and spawns the worker threads.
    ///
    /// # Errors
    /// Propagates a disk-cache directory that cannot be created.
    pub fn start(config: ServiceConfig) -> std::io::Result<Service> {
        assert!(!config.tenants.is_empty(), "a service needs tenants");
        let disk = match &config.cache_dir {
            Some(dir) => Some(Arc::new(DiskStore::open_with_limit(
                dir,
                config.cache_max_bytes,
            )?)),
            None => None,
        };
        let events = match &config.event_log {
            Some(path) => EventLog::to_path(path)?,
            None => EventLog::disabled(),
        };
        let cache = Arc::new(match &disk {
            Some(store) => ResultCache::with_persistence(
                config.cache_capacity,
                Arc::clone(store) as Arc<dyn td_sched::CachePersist>,
            ),
            None => ResultCache::new(config.cache_capacity),
        });
        // Every job is a one-job batch on the worker that popped it. The
        // engine's failure budget stays off; the service fuses per tenant
        // at admission instead, across batches.
        let engine =
            Engine::with_shared_cache(EngineConfig::standard().with_workers(1), Arc::clone(&cache));
        let mut tenants = Vec::with_capacity(config.tenants.len());
        let mut by_name = HashMap::new();
        for tenant in &config.tenants {
            by_name.insert(tenant.name.clone(), tenants.len());
            tenants.push(TenantRuntime {
                config: tenant.clone(),
                submitted: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                failed: AtomicU64::new(0),
                in_flight: AtomicU64::new(0),
                deadline_missed: AtomicU64::new(0),
                rollbacks: AtomicU64::new(0),
                undo_entries: AtomicU64::new(0),
            });
        }
        // Instance token: wall-clock nanos xor pid, truncated. Not a
        // security boundary — just enough to tell two daemon incarnations
        // (and their minted request ids) apart in merged logs.
        let instance = {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::SystemTime::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            format!(
                "{:08x}",
                (nanos ^ (u64::from(std::process::id()) << 32)) as u32
            )
        };
        let tenant_count = config.tenants.len();
        let weights: Vec<u32> = config.tenants.iter().map(|t| t.weight).collect();
        let inner = Arc::new(Inner {
            engine,
            tenants,
            by_name,
            pending: Mutex::new(PendState {
                fair: FairQueue::new(&weights),
                draining: false,
            }),
            pending_cv: Condvar::new(),
            completions: Mutex::new(HashMap::new()),
            completions_cv: Condvar::new(),
            next_job: AtomicU64::new(1),
            jobs_completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            artifacts: ArtifactStore::new(config.artifact_capacity),
            cache,
            disk,
            draining: AtomicBool::new(false),
            observe: config.observe,
            series: SeriesRegistry::new(tenant_count),
            events,
            live_metrics: Mutex::new(metrics::Metrics::new()),
            requests: Mutex::new(RequestIndex::default()),
            request_capacity: config.artifact_capacity.max(256),
            started: Instant::now(),
            instance,
        });

        let trace_on = trace::enabled();
        let workers = (0..config.workers.max(1))
            .map(|worker_index| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || inner.worker_loop(worker_index, trace_on))
            })
            .collect();

        metrics::counter("serve.starts", 1);
        Ok(Service {
            inner,
            workers: Mutex::new(workers),
            worker_count: config.workers.max(1),
        })
    }

    /// Admits one job for `tenant` and returns its job id. The job runs
    /// asynchronously; retrieve the outcome with [`Service::wait`].
    ///
    /// # Errors
    /// The [`AdmitError`] explaining the refusal; a refused job costs the
    /// tenant nothing.
    pub fn submit(
        &self,
        tenant: &str,
        script: impl Into<String>,
        payload: impl Into<String>,
        entry: &str,
    ) -> Result<u64, AdmitError> {
        self.submit_with_request(tenant, script, payload, entry, None)
            .map(|(id, _)| id)
    }

    /// [`Service::submit`] with an explicit request id: `request` is the
    /// client-supplied id to honor, or `None` to mint one
    /// (`r<instance>-<job>`). Returns `(job_id, request_id)`; the request
    /// id is threaded through the job's trace spans, journal, flight
    /// attributions, event log, and the `ARTIFACT`-by-request index.
    ///
    /// # Errors
    /// The [`AdmitError`] explaining the refusal, including
    /// [`AdmitError::BadRequestId`] for malformed client-supplied ids.
    pub fn submit_with_request(
        &self,
        tenant: &str,
        script: impl Into<String>,
        payload: impl Into<String>,
        entry: &str,
        request: Option<&str>,
    ) -> Result<(u64, String), AdmitError> {
        self.submit_with_options(tenant, script, payload, entry, request, None)
    }

    /// [`Service::submit_with_request`] plus a per-request transactional
    /// override: `txn` replaces the transactional mode of the tenant's
    /// [`TenantConfig::policy`] for this one job (`None` keeps it).
    ///
    /// # Errors
    /// As [`Service::submit_with_request`].
    pub fn submit_with_options(
        &self,
        tenant: &str,
        script: impl Into<String>,
        payload: impl Into<String>,
        entry: &str,
        request: Option<&str>,
        txn: Option<TxnMode>,
    ) -> Result<(u64, String), AdmitError> {
        let inner = &self.inner;
        if let Some(id) = request {
            if !valid_request_id(id) {
                inner.rejected.fetch_add(1, Ordering::Relaxed);
                metrics::counter("serve.rejected.bad_request_id", 1);
                inner.refusal_event(tenant, id, "bad_request_id");
                return Err(AdmitError::BadRequestId(id.to_owned()));
            }
        }
        let Some(&tenant_index) = inner.by_name.get(tenant) else {
            inner.rejected.fetch_add(1, Ordering::Relaxed);
            metrics::counter("serve.rejected.unknown_tenant", 1);
            inner.refusal_event(tenant, request.unwrap_or(""), "unknown_tenant");
            return Err(AdmitError::UnknownTenant(tenant.to_owned()));
        };
        let runtime = &inner.tenants[tenant_index];
        let refuse = |reason: &'static str, counter: &'static str| {
            inner.rejected.fetch_add(1, Ordering::Relaxed);
            metrics::counter(counter, 1);
            inner.refusal_event(tenant, request.unwrap_or(""), reason);
        };
        if runtime.fused() {
            refuse("budget_exhausted", "serve.rejected.budget");
            return Err(AdmitError::BudgetExhausted);
        }
        // Reserve an in-flight slot; undone on any later refusal.
        let reserved = runtime
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < runtime.config.max_pending as u64).then_some(n + 1)
            })
            .is_ok();
        if !reserved {
            refuse("queue_full", "serve.rejected.queue_full");
            return Err(AdmitError::QueueFull);
        }
        let id = inner.next_job.fetch_add(1, Ordering::Relaxed);
        let request = match request {
            Some(r) => r.to_owned(),
            None => format!("r{}-{id}", inner.instance),
        };
        let mut job = Job::new(script, payload)
            .with_entry(entry)
            .with_tag(&runtime.config.name)
            .with_request(&request);
        job.policy = runtime.config.policy;
        if let Some(txn) = txn {
            job.policy.txn = txn;
        }
        {
            let mut pending = inner.pending.lock().unwrap_or_else(|e| e.into_inner());
            if pending.draining {
                drop(pending);
                runtime.in_flight.fetch_sub(1, Ordering::AcqRel);
                refuse("draining", "serve.rejected.draining");
                return Err(AdmitError::Draining);
            }
            pending.fair.push(
                tenant_index,
                Dispatched {
                    id,
                    tenant: tenant_index,
                    request: request.clone(),
                    admitted: Instant::now(),
                    job,
                },
            );
        }
        inner.pending_cv.notify_one();
        runtime.submitted.fetch_add(1, Ordering::Relaxed);
        metrics::counter("serve.submitted", 1);
        if inner.observe {
            let depth = runtime.in_flight.load(Ordering::Relaxed);
            inner.series.record(tenant_index, |bucket| {
                bucket.submits += 1;
                bucket.queue_depth_max = bucket.queue_depth_max.max(depth);
            });
            inner
                .requests
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(request.clone(), id, inner.request_capacity);
            inner.events.log(
                "admit",
                &[
                    ("tenant", tenant.to_owned()),
                    ("request", request.clone()),
                    ("job", id.to_string()),
                ],
            );
        }
        Ok((id, request))
    }

    /// The job id behind a request id, while the bounded index retains it.
    pub fn job_for_request(&self, request: &str) -> Option<u64> {
        self.inner
            .requests
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .by_request
            .get(request)
            .copied()
    }

    /// Blocks until job `id` completes and takes its result. Waiting on an
    /// id that was never admitted blocks forever — callers hold ids from
    /// [`Service::submit`] only.
    pub fn wait(&self, id: u64) -> ServeResult {
        let inner = &self.inner;
        let mut completions = inner.completions.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = completions.remove(&id) {
                return result;
            }
            completions = inner
                .completions_cv
                .wait(completions)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// [`Service::submit`] + [`Service::wait`] in one call.
    pub fn submit_wait(
        &self,
        tenant: &str,
        script: impl Into<String>,
        payload: impl Into<String>,
        entry: &str,
    ) -> Result<ServeResult, AdmitError> {
        let id = self.submit(tenant, script, payload, entry)?;
        Ok(self.wait(id))
    }

    /// Takes job `id`'s result if it has completed (non-blocking).
    pub fn try_take(&self, id: u64) -> Option<ServeResult> {
        self.inner
            .completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&id)
    }

    /// Retrieves a retained artifact (`report` / `bisect` / `flight`).
    /// `report` and `bisect` are computed by the first call that asks for
    /// them, on the calling thread, and memoised: the first `bisect`
    /// retrieval of a job costs a bisection (see [`Engine::bisect`]), and
    /// answers `None` when the failure does not reproduce.
    pub fn artifact(&self, job: u64, kind: &str) -> Option<String> {
        let inner = &self.inner;
        inner
            .artifacts
            .get(job, kind, |deferred| inner.render(deferred))
    }

    /// Artifact kinds retained for `job`: `report` for every job, then
    /// `bisect` for one that failed with a transform error, then `flight`
    /// for one that failed at all.
    pub fn artifact_kinds(&self, job: u64) -> Vec<String> {
        self.inner.artifacts.kinds(job)
    }

    /// The shared result cache's cumulative counters (includes
    /// `disk_hits` — the warm-start signal).
    pub fn cache_stats(&self) -> td_sched::CacheStats {
        self.inner.cache.stats()
    }

    /// Service counters as one JSON object (the `STATS` response body):
    /// global and per-tenant admission/completion counts, WFQ dispatch
    /// counts, the shared cache counters (memory + disk), and the disk
    /// store's own counters.
    pub fn stats_json(&self) -> String {
        use std::fmt::Write as _;
        let inner = &self.inner;
        let cache = inner.cache.stats();
        let dispatched: Vec<u64> = {
            let pending = inner.pending.lock().unwrap_or_else(|e| e.into_inner());
            pending.fair.dispatched.clone()
        };
        let mut out = format!(
            "{{\"jobs_completed\":{},\"rejected\":{},\"draining\":{},\
             \"uptime_ms\":{},\"instance\":{},",
            inner.jobs_completed.load(Ordering::Relaxed),
            inner.rejected.load(Ordering::Relaxed),
            inner.draining.load(Ordering::Acquire),
            inner.started.elapsed().as_millis(),
            metrics::json_string(&inner.instance),
        );
        let _ = write!(
            out,
            "\"cache\":{{\"hits\":{},\"misses\":{},\"inserts\":{},\"evictions\":{},\
             \"replacements\":{},\"disk_hits\":{},\"hit_rate\":{:.4},\"disk_hit_rate\":{:.4}}},",
            cache.hits,
            cache.misses,
            cache.inserts,
            cache.evictions,
            cache.replacements,
            cache.disk_hits,
            cache.hit_rate(),
            cache.disk_hit_rate(),
        );
        match &inner.disk {
            Some(store) => {
                let _ = write!(out, "\"disk\":{},", store.stats_json());
            }
            None => out.push_str("\"disk\":null,"),
        }
        out.push_str("\"tenants\":[");
        for (i, tenant) in inner.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"weight\":{},\"submitted\":{},\"dispatched\":{},\
                 \"completed\":{},\"failed\":{},\"deadline_missed\":{},\"in_flight\":{},\
                 \"fused\":{},\"lane\":{},\"txn_mode\":{},\"rollbacks\":{},\
                 \"undo_entries\":{}",
                metrics::json_string(&tenant.config.name),
                tenant.config.weight,
                tenant.submitted.load(Ordering::Relaxed),
                dispatched.get(i).copied().unwrap_or(0),
                tenant.completed.load(Ordering::Relaxed),
                tenant.failed.load(Ordering::Relaxed),
                tenant.deadline_missed.load(Ordering::Relaxed),
                tenant.in_flight.load(Ordering::Relaxed),
                tenant.fused(),
                // A policy without a lane runs in its one-job batch's
                // index, 0.
                tenant.config.policy.fault_lane.unwrap_or(0),
                metrics::json_string(tenant.config.policy.txn.name()),
                tenant.rollbacks.load(Ordering::Relaxed),
                tenant.undo_entries.load(Ordering::Relaxed),
            );
            if inner.observe {
                let window = inner.series.window(i, 60);
                let seconds = 60.0f64;
                let hit_rate = if window.completions > 0 {
                    window.cache_hits as f64 / window.completions as f64
                } else {
                    0.0
                };
                let _ = write!(
                    out,
                    ",\"window\":{{\"seconds\":60,\"submits\":{},\"completions\":{},\
                     \"errors\":{},\"deadline_misses\":{},\"rate\":{:.4},\
                     \"cache_hit_rate\":{:.4},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\
                     \"queue_depth_max\":{}}}",
                    window.submits,
                    window.completions,
                    window.errors,
                    window.deadline_misses,
                    window.completions as f64 / seconds,
                    hit_rate,
                    window.latency.quantile_ns(0.50) as f64 / 1e6,
                    window.latency.quantile_ns(0.99) as f64 / 1e6,
                    window.queue_depth_max,
                );
                match slo_reading(
                    &window,
                    tenant.config.slo_ms.map(|_| tenant.config.slo_target),
                ) {
                    Some(slo) => {
                        let _ = write!(
                            out,
                            ",\"slo\":{{\"slo_ms\":{},\"target\":{},\"violations\":{},\
                             \"burn\":{:.4},\"health\":{}}}",
                            tenant.config.slo_ms.unwrap_or(0),
                            tenant.config.slo_target,
                            slo.violations,
                            slo.burn,
                            metrics::json_string(slo.health.name()),
                        );
                    }
                    None => out.push_str(",\"slo\":null"),
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Daemon uptime in milliseconds (a PONG field).
    pub fn uptime_ms(&self) -> u64 {
        self.inner.started.elapsed().as_millis() as u64
    }

    /// The daemon's instance token (a PONG field; the prefix of minted
    /// request ids).
    pub fn instance(&self) -> &str {
        &self.inner.instance
    }

    /// Renders the `METRICS` response body: Prometheus text exposition of
    /// the per-tenant windowed time series and SLO readings, the global
    /// admission/cache counters, and the live internal metric registry
    /// (engine, fault, disk-cache counters flushed per job), each internal
    /// series prefixed `td_internal_`.
    pub fn metrics_exposition(&self) -> String {
        let inner = &self.inner;
        let mut expo = Exposition::new();
        let names: Vec<&str> = inner
            .tenants
            .iter()
            .map(|t| t.config.name.as_str())
            .collect();
        let gather = |load: &dyn Fn(&TenantRuntime) -> f64| -> Vec<(Vec<(&str, &str)>, f64)> {
            inner
                .tenants
                .iter()
                .enumerate()
                .map(|(i, t)| (vec![("tenant", names[i])], load(t)))
                .collect()
        };
        expo.family(
            "td_serve_tenant_submitted_total",
            "Jobs admitted per tenant over the daemon lifetime.",
            MetricType::Counter,
            &gather(&|t| t.submitted.load(Ordering::Relaxed) as f64),
        );
        expo.family(
            "td_serve_tenant_completed_total",
            "Jobs completed per tenant over the daemon lifetime.",
            MetricType::Counter,
            &gather(&|t| t.completed.load(Ordering::Relaxed) as f64),
        );
        expo.family(
            "td_serve_tenant_failed_total",
            "Jobs failed per tenant over the daemon lifetime.",
            MetricType::Counter,
            &gather(&|t| t.failed.load(Ordering::Relaxed) as f64),
        );
        expo.family(
            "td_serve_tenant_deadline_missed_total",
            "Jobs that exceeded their per-tenant deadline.",
            MetricType::Counter,
            &gather(&|t| t.deadline_missed.load(Ordering::Relaxed) as f64),
        );
        expo.family(
            "td_serve_tenant_in_flight",
            "Jobs admitted and not yet completed, per tenant.",
            MetricType::Gauge,
            &gather(&|t| t.in_flight.load(Ordering::Relaxed) as f64),
        );
        expo.family(
            "td_serve_tenant_fused",
            "Whether the tenant's failure budget has fused it off (0/1).",
            MetricType::Gauge,
            &gather(&|t| f64::from(u8::from(t.fused()))),
        );
        expo.family(
            "td_txn_rollbacks_total",
            "Transactional step rollbacks per tenant over the daemon lifetime.",
            MetricType::Counter,
            &gather(&|t| t.rollbacks.load(Ordering::Relaxed) as f64),
        );
        expo.family(
            "td_txn_undo_entries",
            "Undo-log entries recorded in transactional steps per tenant.",
            MetricType::Counter,
            &gather(&|t| t.undo_entries.load(Ordering::Relaxed) as f64),
        );
        if inner.observe {
            let windows: Vec<crate::timeseries::Bucket> = (0..inner.tenants.len())
                .map(|i| inner.series.window(i, 60))
                .collect();
            expo.family(
                "td_serve_tenant_rate",
                "Completions per second over the trailing 60s window.",
                MetricType::Gauge,
                &windows
                    .iter()
                    .enumerate()
                    .map(|(i, w)| (vec![("tenant", names[i])], w.completions as f64 / 60.0))
                    .collect::<Vec<_>>(),
            );
            expo.family(
                "td_serve_tenant_cache_hit_rate",
                "Result-cache hit rate over the trailing 60s window.",
                MetricType::Gauge,
                &windows
                    .iter()
                    .enumerate()
                    .map(|(i, w)| {
                        let rate = if w.completions > 0 {
                            w.cache_hits as f64 / w.completions as f64
                        } else {
                            0.0
                        };
                        (vec![("tenant", names[i])], rate)
                    })
                    .collect::<Vec<_>>(),
            );
            for (i, window) in windows.iter().enumerate() {
                if window.latency.count > 0 {
                    expo.summary(
                        "td_serve_tenant_latency_ms",
                        "Completion latency over the trailing 60s window.",
                        &[("tenant", names[i])],
                        &[
                            (0.5, window.latency.quantile_ns(0.50) as f64 / 1e6),
                            (0.99, window.latency.quantile_ns(0.99) as f64 / 1e6),
                        ],
                        window.latency.total_ns as f64 / 1e6,
                        window.latency.count,
                    );
                }
            }
            let mut burns = Vec::new();
            let mut healths = Vec::new();
            for (i, (tenant, window)) in inner.tenants.iter().zip(&windows).enumerate() {
                let target = tenant.config.slo_ms.map(|_| tenant.config.slo_target);
                if let Some(slo) = slo_reading(window, target) {
                    burns.push((vec![("tenant", names[i])], slo.burn));
                    healths.push((vec![("tenant", names[i])], slo.health.as_gauge() as f64));
                }
            }
            expo.family(
                "td_serve_tenant_slo_burn",
                "Error-budget burn rate over the trailing 60s window (1.0 = \
                 burning exactly the budget).",
                MetricType::Gauge,
                &burns,
            );
            expo.family(
                "td_serve_tenant_health",
                "Derived SLO health: 0 ok, 1 warn, 2 burning.",
                MetricType::Gauge,
                &healths,
            );
        }
        // Global service counters.
        expo.family(
            "td_serve_jobs_completed_total",
            "Jobs completed across all tenants.",
            MetricType::Counter,
            &[(vec![], inner.jobs_completed.load(Ordering::Relaxed) as f64)],
        );
        expo.family(
            "td_serve_rejected_total",
            "Submissions refused at admission.",
            MetricType::Counter,
            &[(vec![], inner.rejected.load(Ordering::Relaxed) as f64)],
        );
        expo.family(
            "td_serve_uptime_seconds",
            "Daemon uptime.",
            MetricType::Gauge,
            &[(vec![], inner.started.elapsed().as_secs_f64())],
        );
        expo.family(
            "td_serve_draining",
            "Whether the service is draining (0/1).",
            MetricType::Gauge,
            &[(
                vec![],
                f64::from(u8::from(inner.draining.load(Ordering::Acquire))),
            )],
        );
        let cache = inner.cache.stats();
        expo.family(
            "td_serve_cache_hits_total",
            "Shared result-cache hits (memory).",
            MetricType::Counter,
            &[(vec![], cache.hits as f64)],
        );
        expo.family(
            "td_serve_cache_misses_total",
            "Shared result-cache misses.",
            MetricType::Counter,
            &[(vec![], cache.misses as f64)],
        );
        expo.family(
            "td_serve_cache_disk_hits_total",
            "Result-cache hits served from the disk layer.",
            MetricType::Counter,
            &[(vec![], cache.disk_hits as f64)],
        );
        if let Some(disk) = &inner.disk {
            let counters = disk.counter_values();
            for (name, help, value) in [
                (
                    "td_serve_disk_loads_total",
                    "Disk-cache load attempts.",
                    counters.loads,
                ),
                (
                    "td_serve_disk_hits_total",
                    "Disk-cache load hits.",
                    counters.hits,
                ),
                (
                    "td_serve_disk_stores_total",
                    "Disk-cache stores.",
                    counters.stores,
                ),
                (
                    "td_serve_disk_evicted_total",
                    "Disk-cache entries evicted by the size cap.",
                    counters.evicted,
                ),
                (
                    "td_serve_disk_evicted_bytes_total",
                    "Bytes reclaimed by disk-cache eviction.",
                    counters.evicted_bytes,
                ),
            ] {
                expo.family(name, help, MetricType::Counter, &[(vec![], value as f64)]);
            }
            expo.family(
                "td_serve_disk_bytes",
                "Current disk-cache footprint in bytes.",
                MetricType::Gauge,
                &[(vec![], counters.bytes as f64)],
            );
        }
        // Pass through the live internal registry (engine, fault, cache
        // counters flushed per job) under a distinct prefix so names never
        // collide with the curated series above.
        let live = inner
            .live_metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        for (name, value) in live.counters() {
            expo.family(
                &format!(
                    "td_internal_{}_total",
                    crate::exposition::sanitize_name(name)
                ),
                "Internal counter (see td-support metrics).",
                MetricType::Counter,
                &[(vec![], value as f64)],
            );
        }
        for (name, stat) in live.timers() {
            let base = format!("td_internal_{}", crate::exposition::sanitize_name(name));
            expo.family(
                &format!("{base}_ns_total"),
                "Internal timer: cumulative nanoseconds.",
                MetricType::Counter,
                &[(vec![], stat.total_ns as f64)],
            );
            expo.family(
                &format!("{base}_count"),
                "Internal timer: intervals recorded.",
                MetricType::Counter,
                &[(vec![], stat.count as f64)],
            );
        }
        for (name, histogram) in live.histograms() {
            if histogram.count > 0 {
                expo.summary(
                    &format!("td_internal_{}_ns", crate::exposition::sanitize_name(name)),
                    "Internal histogram (nanoseconds).",
                    &[],
                    &[
                        (0.5, histogram.quantile_ns(0.50) as f64),
                        (0.99, histogram.quantile_ns(0.99) as f64),
                    ],
                    histogram.total_ns as f64,
                    histogram.count,
                );
            }
        }
        expo.finish()
    }

    /// Whether the service has begun draining.
    pub fn draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// Drains and stops the pool: admission closes, the workers run every
    /// already-admitted job and exit when the fair queue is empty, and they
    /// are joined with their metrics and trace lanes merged into the
    /// calling thread. Idempotent; the second call is a no-op returning the
    /// same totals.
    pub fn drain(&self) -> DrainSummary {
        let inner = &self.inner;
        {
            let mut pending = inner.pending.lock().unwrap_or_else(|e| e.into_inner());
            pending.draining = true;
            inner.draining.store(true, Ordering::Release);
        }
        inner.pending_cv.notify_all();
        // Held to the end, so a concurrent second drain returns only once
        // the first has joined the pool.
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        if !workers.is_empty() {
            for (worker_index, handle) in workers.drain(..).enumerate() {
                if let Ok((worker_trace, worker_metrics)) = handle.join() {
                    trace::adopt(&worker_trace, worker_index as u32 + 2);
                    metrics::absorb(&worker_metrics);
                }
            }
            // Workers also flushed per-job metrics into the live snapshot;
            // move those into the caller too so nothing is counted twice
            // or lost.
            let flushed =
                std::mem::take(&mut *inner.live_metrics.lock().unwrap_or_else(|e| e.into_inner()));
            metrics::absorb(&flushed);
            metrics::counter("serve.drains", 1);
            if inner.observe {
                inner.events.log(
                    "drain",
                    &[(
                        "jobs",
                        inner.jobs_completed.load(Ordering::Relaxed).to_string(),
                    )],
                );
            }
        }
        DrainSummary {
            jobs: inner.jobs_completed.load(Ordering::Relaxed),
            workers: self.worker_count,
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // A dropped service must not leak blocked threads.
        self.drain();
    }
}

impl Inner {
    /// Blocks until the fair queue has a job for the calling worker: the
    /// fairness decision is made at the moment a worker falls idle, so
    /// every admitted job stays under WFQ until it runs. `None` once the
    /// service is draining and the queue is empty.
    fn next_job(&self) -> Option<Dispatched> {
        let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(queued) = pending.fair.pop() {
                return Some(queued.item);
            }
            if pending.draining {
                return None;
            }
            pending = self
                .pending_cv
                .wait(pending)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// One worker: pops jobs off the fair queue, runs them through the
    /// engine as single-job batches — on this thread, as the engine's
    /// worker 0 — and records completions and artifacts.
    /// Exits when the service is draining and the queue is empty.
    fn worker_loop(&self, worker_index: usize, trace_on: bool) -> (trace::Trace, metrics::Metrics) {
        trace::reset();
        trace::set_enabled(trace_on);
        metrics::reset();
        journal::reset();
        journal::set_enabled(true);
        let _worker_span = trace::span("serve", format!("worker{worker_index}"));
        while let Some(dispatched) = self.next_job() {
            let Dispatched {
                id,
                tenant,
                request,
                admitted,
                job,
            } = dispatched;
            let runtime = &self.tenants[tenant];
            let started = Instant::now();
            if self.observe {
                // The queue-wait span starts on the connection thread but
                // is only known here; record it retroactively.
                let wait = admitted.elapsed();
                trace::complete(
                    "serve",
                    "queue_wait",
                    wait,
                    &[
                        ("job", id.to_string()),
                        ("tenant", runtime.config.name.clone()),
                        ("request", request.clone()),
                    ],
                );
                metrics::observe("serve.queue_wait", wait.as_nanos());
            }
            // Fresh journal per job so the batch report and artifacts are
            // exactly job-scoped (the engine absorbs the batch's journal
            // into this thread).
            journal::reset();
            let mut report = self.engine.run_batch(vec![job]);
            let result = report.results.pop().unwrap_or_else(|| {
                Err(JobError::Panicked {
                    message: "engine returned no result slot".to_owned(),
                })
            });
            let wall = started.elapsed();
            // Batch-level txn counters (not JobOutput's) so rollbacks
            // inside attempts that went on to fail are counted too — and
            // nothing else: a later bisection's probes are not the
            // tenant's work and never reach these.
            runtime
                .rollbacks
                .fetch_add(report.stats.rollbacks, Ordering::Relaxed);
            runtime
                .undo_entries
                .fetch_add(report.stats.undo_entries, Ordering::Relaxed);
            let failed = result.is_err();
            let deadline_missed = matches!(result, Err(JobError::DeadlineExceeded));
            if deadline_missed {
                runtime.deadline_missed.fetch_add(1, Ordering::Relaxed);
                if self.observe {
                    self.events.log(
                        "deadline",
                        &[
                            ("tenant", runtime.config.name.clone()),
                            ("request", request.clone()),
                            ("job", id.to_string()),
                        ],
                    );
                }
            }
            if failed {
                runtime.failed.fetch_add(1, Ordering::AcqRel);
                metrics::counter("serve.jobs.failed", 1);
                if runtime.fused() {
                    metrics::counter("serve.tenant.fused", 1);
                    flight::record("serve.fused", &[("tenant", runtime.config.name.clone())]);
                    if self.observe {
                        self.events.log(
                            "fuse",
                            &[
                                ("tenant", runtime.config.name.clone()),
                                ("request", request.clone()),
                                ("job", id.to_string()),
                            ],
                        );
                    }
                }
            }
            let failed_job = report.failed_jobs.pop();
            self.artifacts
                .put_deferred(id, "report", Deferred::Report(Box::new(report)));
            if let Some((_, job)) = failed_job {
                self.artifacts
                    .put_deferred(id, "bisect", Deferred::Bisect(job));
            }
            if failed {
                let bundle = flight::bundle_json(
                    "serve.job.failed",
                    &[
                        ("job", id.to_string()),
                        ("tenant", runtime.config.name.clone()),
                        ("request", request.clone()),
                    ],
                );
                self.artifacts.put(id, "flight", bundle);
            }
            if self.observe {
                let cached = matches!(&result, Ok(output) if output.from_cache);
                let slo_violation = runtime
                    .config
                    .slo_ms
                    .is_some_and(|slo| wall.as_millis() as u64 > slo);
                let depth = runtime.in_flight.load(Ordering::Relaxed);
                self.series.record(tenant, |bucket| {
                    bucket.completions += 1;
                    bucket.errors += u64::from(failed);
                    bucket.deadline_misses += u64::from(deadline_missed);
                    bucket.cache_hits += u64::from(cached);
                    bucket.slo_violations += u64::from(slo_violation);
                    bucket.queue_depth_max = bucket.queue_depth_max.max(depth);
                    bucket.latency.observe(wall.as_nanos());
                });
            }
            runtime.completed.fetch_add(1, Ordering::Relaxed);
            runtime.in_flight.fetch_sub(1, Ordering::AcqRel);
            self.jobs_completed.fetch_add(1, Ordering::Relaxed);
            metrics::counter("serve.jobs.completed", 1);
            {
                let mut completions = self.completions.lock().unwrap_or_else(|e| e.into_inner());
                completions.insert(
                    id,
                    ServeResult {
                        job_id: id,
                        request,
                        tenant: runtime.config.name.clone(),
                        result,
                        wall,
                    },
                );
            }
            self.completions_cv.notify_all();
            if self.observe {
                // Flush this worker's thread-local metrics (including the
                // engine's absorbed fault/cache counters) into the shared
                // snapshot so a live METRICS scrape sees them.
                let flushed = metrics::take();
                self.live_metrics
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .merge(&flushed);
            }
        }
        (trace::take(), metrics::take())
    }

    /// Computes a deferred artifact's text on the calling (connection)
    /// thread. A bisection's probes count into the live metrics snapshot
    /// — `sched.bisections` and the interpreter counters, as when a worker
    /// flushes a job's — and not into the caller's registry or any
    /// tenant's counters.
    fn render(&self, deferred: Deferred) -> Option<String> {
        match deferred {
            Deferred::Report(report) => Some(report.report_json()),
            Deferred::Bisect(job) => {
                let callers = metrics::take();
                let text = self.engine.bisect(&job);
                let probes = metrics::replace(callers);
                self.live_metrics
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .merge(&probes);
                text
            }
        }
    }

    /// Logs a refusal to the event log (no-op when logging is off).
    fn refusal_event(&self, tenant: &str, request: &str, reason: &'static str) {
        if self.observe {
            self.events.log(
                "refuse",
                &[
                    ("tenant", tenant.to_owned()),
                    ("request", request.to_owned()),
                    ("reason", reason.to_owned()),
                ],
            );
        }
    }
}

/// Request ids travel in protocol fields, artifact keys, JSON bodies, and
/// log greps — keep them to a boring charset.
fn valid_request_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b':' | b'/' | b'-'))
}
