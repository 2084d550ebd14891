//! The traced pass: a job's life replayed through public functions, one
//! span per call.
//!
//! In `models_direct` the harness is the direct caller of every layer, so
//! these spans wrap the real calls of the measured workload. In
//! `sweep_engine` and `serve_*` the layers sit behind `run_batch` or the
//! socket; there a round's jobs are replayed in job-life order — encode →
//! frame → decode → admit → context → parse → fingerprint → cache get → on a
//! miss: context → parse → interp → print → cache insert (→ disk store) →
//! encode → frame — against a real `ResultCache` (and `DiskStore`) prepared
//! the way the workload prepares its own, so hits, disk hits and misses fall
//! where they do in the workload.

use crate::reference::{self, Expected};
use crate::trace::Tracer;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use td_ir::{Context, PassRegistry};
use td_sched::{CacheKey, CachePersist, CachedResult, Engine, EngineConfig, JobError, ResultCache};
use td_serve::{protocol, read_frame, write_frame, DiskStore, FairQueue, Message};
use td_transform::{InterpEnv, Interpreter};

/// Work counts the per-layer rates are derived from.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Jobs replayed.
    pub jobs: u64,
    /// Contexts built (and dialects registered).
    pub contexts: u64,
    /// Bytes of payload and script text parsed.
    pub parse_bytes: u64,
    /// Ops in the parsed payload and script modules.
    pub parse_ops: u64,
    /// Ops fingerprinted / verified.
    pub fingerprint_ops: u64,
    /// See [`Counters::fingerprint_ops`].
    pub verify_ops: u64,
    /// Interpreter attempts.
    pub interp_jobs: u64,
    /// Transform ops executed.
    pub transforms: u64,
    /// Top-level steps rolled back.
    pub rolled_back: u64,
    /// Undo-log entries recorded.
    pub undo_entries: u64,
    /// Interpreter attempts on Fig. 8 schedules, and their time.
    pub loop_jobs: u64,
    /// See [`Counters::loop_jobs`].
    pub loop_interp_ns: u64,
    /// Bytes of module text printed.
    pub print_bytes: u64,
    /// Modules printed.
    pub prints: u64,
    /// Frames written and read back.
    pub frames: u64,
    /// Payload bytes of those frames.
    pub frame_bytes: u64,
    /// Messages encoded / decoded.
    pub encodes: u64,
    /// See [`Counters::encodes`].
    pub decodes: u64,
    /// Fair-queue push+pop pairs.
    pub admissions: u64,
    /// Cache lookups that hit memory, hit disk, missed.
    pub memory_hits: u64,
    /// See [`Counters::memory_hits`].
    pub disk_hits: u64,
    /// See [`Counters::memory_hits`].
    pub misses: u64,
    /// Cache inserts.
    pub inserts: u64,
    /// Time inside `ResultCache::get` by disposition, and inside `insert`,
    /// net of the disk store's own time.
    pub get_hit_ns: u64,
    /// See [`Counters::get_hit_ns`].
    pub get_miss_ns: u64,
    /// See [`Counters::get_hit_ns`].
    pub insert_ns: u64,
    /// Disk loads that found an entry / stores, and their time.
    pub disk_loads: u64,
    /// See [`Counters::disk_loads`].
    pub disk_load_ns: u64,
    /// See [`Counters::disk_loads`].
    pub disk_stores: u64,
    /// See [`Counters::disk_loads`].
    pub disk_store_ns: u64,
    /// Replayed jobs whose outcome differed from the reference.
    pub failed: u64,
}

/// A `CachePersist` that forwards to a [`DiskStore`] and remembers when
/// each call ran, so the replayer can record it as a child span of the
/// cache call that caused it.
struct TimedDisk {
    inner: DiskStore,
    calls: Mutex<Vec<(Instant, Instant, bool, bool)>>,
}

impl CachePersist for TimedDisk {
    fn load(&self, key: &CacheKey) -> Option<CachedResult> {
        let start = Instant::now();
        let value = self.inner.load(key);
        self.calls.lock().expect("no panic while recording").push((
            start,
            Instant::now(),
            false,
            value.is_some(),
        ));
        value
    }

    fn store(&self, key: &CacheKey, value: &CachedResult) {
        let start = Instant::now();
        self.inner.store(key, value);
        self.calls.lock().expect("no panic while recording").push((
            start,
            Instant::now(),
            true,
            true,
        ));
    }
}

/// The cache a replay runs against: memory only (the engine's) or memory
/// over a disk store (the service's).
pub struct ReplayCache {
    cache: ResultCache,
    disk: Option<Arc<TimedDisk>>,
}

impl ReplayCache {
    /// A fresh 1024-entry memory cache, as `Engine::new` builds.
    pub fn memory() -> ReplayCache {
        ReplayCache {
            cache: ResultCache::new(EngineConfig::standard().cache_capacity),
            disk: None,
        }
    }

    /// A fresh 1024-entry memory cache over the disk store at `dir`, as
    /// `Service::start` builds. Reopening the same directory is a restart.
    pub fn over_disk(dir: &std::path::Path) -> ReplayCache {
        let disk = Arc::new(TimedDisk {
            inner: DiskStore::open(dir).expect("open replay disk store"),
            calls: Mutex::new(Vec::new()),
        });
        ReplayCache {
            cache: ResultCache::with_persistence(
                EngineConfig::standard().cache_capacity,
                Arc::clone(&disk) as Arc<dyn CachePersist>,
            ),
            disk: Some(disk),
        }
    }
}

/// How much of the job's life surrounds the engine path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// `sweep_engine`: the engine's per-job path only.
    Engine,
    /// `serve_*`: protocol, framing and admission around it, and failure
    /// bisection after it (the daemon journals, so failed jobs are
    /// bisected).
    Serve,
}

/// One job to replay.
#[derive(Clone, Copy, Debug)]
pub struct ReplayJob<'a> {
    /// Script text.
    pub script: &'a str,
    /// Payload text.
    pub payload: &'a str,
    /// Entry symbol.
    pub entry: &'a str,
    /// Whether the script is a Fig. 8 loop schedule.
    pub fig8: bool,
    /// The reference outcome.
    pub expected: &'a Expected,
}

/// Replays jobs with spans.
pub struct Replayer {
    /// The recorded spans (empty while `tracing` is off).
    pub tracer: Tracer,
    /// Whether spans are being recorded.
    pub tracing: bool,
    /// Work counts (only advanced while tracing).
    pub counters: Counters,
    passes: Rc<PassRegistry>,
    fair: FairQueue<u32>,
    fixed_engine: Engine,
    next_job: u32,
}

impl Replayer {
    /// A replayer whose fixed-cost engine has `workers` workers (1 for the
    /// service, which runs single-job batches on one-worker engines).
    pub fn new(workers: usize) -> Replayer {
        Replayer {
            tracer: Tracer::new(),
            tracing: true,
            counters: Counters::default(),
            passes: Rc::new(reference::full_passes()),
            fair: FairQueue::new(&[2, 1]),
            fixed_engine: Engine::new(EngineConfig::standard().with_workers(workers)),
            next_job: 0,
        }
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, u64) {
        if !self.tracing {
            return (f(self), 0);
        }
        let id = self.tracer.begin(name, self.next_job);
        let result = f(self);
        (result, self.tracer.end(id))
    }

    /// The per-batch fixed cost: a batch of zero jobs still spawns the
    /// scoped workers, builds each worker's registries and joins.
    pub fn batch_fixed(&mut self) {
        self.span("engine_fixed", |r| {
            r.fixed_engine.run_batch(Vec::new());
        });
    }

    /// `models_direct`'s job: context → parse → verify → interp (shipped
    /// defaults) → print → drop, returning the text and interpreter stats.
    pub fn direct(&mut self, script: &str, payload: &str) -> (String, td_transform::InterpStats) {
        let root = self
            .tracing
            .then(|| self.tracer.begin("job", self.next_job));
        let (mut ctx, _) = self.span("context", |_| reference::fresh_context());
        let ((payload_op, script_op), _) = self.span("parse", |_| {
            let payload = td_ir::parse_module(&mut ctx, payload).expect("model text parses");
            let script = td_ir::parse_module(&mut ctx, script).expect("script text parses");
            (payload, script)
        });
        // Counted before the interpreter rewrites the payload.
        let verify_ops_before = self.counters.verify_ops;
        if self.tracing {
            self.counters.verify_ops += ctx.walk_nested(payload_op).len() as u64;
        }
        self.span("verify", |_| {
            td_ir::verify(&ctx, payload_op).expect("model verifies");
        });
        let (stats, _) = self.span("interp", |r| {
            let entry = td_transform::transform_main(&ctx, script_op).expect("entry exists");
            let passes = Rc::clone(&r.passes);
            let mut env = InterpEnv::standard();
            env.passes = Some(&passes);
            let mut interp = Interpreter::new(&env);
            interp
                .apply(&mut ctx, entry, payload_op)
                .expect("the pipeline script applies");
            interp.stats
        });
        let (text, _) = self.span("print", |_| td_ir::print_op(&ctx, payload_op));
        if self.tracing {
            self.counters.jobs += 1;
            self.counters.contexts += 1;
            self.counters.parse_bytes += (payload.len() + script.len()) as u64;
            self.counters.parse_ops += (self.counters.verify_ops - verify_ops_before)
                + ctx.walk_nested(script_op).len() as u64;
            self.count_interp(&stats, false, 0);
            self.counters.prints += 1;
            self.counters.print_bytes += text.len() as u64;
        }
        // Tearing the context down is part of the job's wall time.
        self.span("drop", |_| drop(ctx));
        if let Some(root) = root {
            self.tracer.end(root);
        }
        self.next_job += 1;
        (text, stats)
    }

    fn count_interp(&mut self, stats: &td_transform::InterpStats, fig8: bool, ns: u64) {
        self.counters.interp_jobs += 1;
        self.counters.transforms += stats.transforms_executed as u64;
        self.counters.rolled_back += stats.rolled_back as u64;
        self.counters.undo_entries += stats.undo_entries as u64;
        if fig8 {
            self.counters.loop_jobs += 1;
            self.counters.loop_interp_ns += ns;
        }
    }

    /// Parses both texts into a fresh context, payload first.
    fn parse_both(&mut self, job: &ReplayJob<'_>) -> (Context, td_ir::OpId, td_ir::OpId, u64) {
        let (mut ctx, _) = self.span("context", |_| reference::fresh_context());
        let ((payload, script), _) = self.span("parse", |_| {
            let payload = td_ir::parse_module(&mut ctx, job.payload).expect("payload parses");
            let script = td_ir::parse_module(&mut ctx, job.script).expect("script parses");
            (payload, script)
        });
        let mut ops = 0;
        if self.tracing {
            ops = (ctx.walk_nested(payload).len() + ctx.walk_nested(script).len()) as u64;
            self.counters.contexts += 1;
            self.counters.parse_bytes += (job.payload.len() + job.script.len()) as u64;
            self.counters.parse_ops += ops;
        }
        (ctx, payload, script, ops)
    }

    /// Records the disk calls a cache call caused as its child spans.
    fn drain_disk(&mut self, cache: &ReplayCache) -> u64 {
        let Some(disk) = &cache.disk else { return 0 };
        let calls = std::mem::take(&mut *disk.calls.lock().expect("no panic while recording"));
        let mut total = 0;
        for (start, end, is_store, found) in calls {
            if !self.tracing {
                continue;
            }
            let ns = self
                .tracer
                .push_closed("diskcache", self.next_job, start, end);
            total += ns;
            if is_store {
                self.counters.disk_stores += 1;
                self.counters.disk_store_ns += ns;
            } else if found {
                self.counters.disk_loads += 1;
                self.counters.disk_load_ns += ns;
            }
        }
        total
    }

    /// The engine's per-job path (`Engine::run_job` + `attempt`), against
    /// `cache`.
    fn engine_job(
        &mut self,
        job: &ReplayJob<'_>,
        cache: &ReplayCache,
        bisect: bool,
    ) -> Result<String, String> {
        let (ctx, payload, script, ops) = self.parse_both(job);
        self.counters.fingerprint_ops += ops;
        let (key, _) = self.span("fingerprint", |_| CacheKey {
            script_fp: td_ir::fingerprint_op(&ctx, script),
            payload_fp: td_ir::fingerprint_op(&ctx, payload),
            entry_fp: td_sched::cache::fnv1a(job.entry.as_bytes()),
        });
        self.span("drop", |_| drop(ctx));
        let disk_hits_before = cache.cache.stats().disk_hits;
        let mut disk_ns = 0;
        let (hit, get_ns) = self.span("cache", |r| {
            let hit = cache.cache.get(&key);
            disk_ns = r.drain_disk(cache);
            hit
        });
        if self.tracing {
            let from_disk = cache.cache.stats().disk_hits > disk_hits_before;
            match (&hit, from_disk) {
                (Some(_), true) => self.counters.disk_hits += 1,
                (Some(_), false) => {
                    self.counters.memory_hits += 1;
                    self.counters.get_hit_ns += get_ns;
                }
                (None, _) => {
                    self.counters.misses += 1;
                    self.counters.get_miss_ns += get_ns - disk_ns;
                }
            }
        }
        if let Some(hit) = hit {
            return Ok(hit.module_text);
        }

        let (mut ctx, payload, script, _) = self.parse_both(job);
        let entry = ctx
            .lookup_symbol(script, job.entry)
            .expect("entry sequence exists");
        let passes = Rc::clone(&self.passes);
        let mut env = InterpEnv::standard();
        env.passes = Some(&passes);
        let ((applied, stats), interp_ns) = self.span("interp", |_| {
            let mut interp = Interpreter::new(&env);
            let applied = interp.apply_reentrant(&mut ctx, entry, payload);
            (applied, interp.stats)
        });
        if self.tracing {
            self.count_interp(&stats, job.fig8, interp_ns);
        }
        let result = match applied {
            Ok(()) => {
                let (text, _) = self.span("print", |_| td_ir::print_op(&ctx, payload));
                if self.tracing {
                    self.counters.prints += 1;
                    self.counters.print_bytes += text.len() as u64;
                }
                let mut disk_ns = 0;
                let (_, insert_ns) = self.span("cache", |r| {
                    cache.cache.insert(
                        key,
                        CachedResult {
                            module_text: text.clone(),
                            transforms_executed: stats.transforms_executed,
                        },
                    );
                    disk_ns = r.drain_disk(cache);
                });
                if self.tracing {
                    self.counters.inserts += 1;
                    self.counters.insert_ns += insert_ns - disk_ns;
                }
                Ok(text)
            }
            Err(error) => {
                let rendered = JobError::Transform {
                    message: error.diagnostic().message().to_owned(),
                    silenceable: error.is_silenceable(),
                }
                .to_string();
                if bisect {
                    // With artifacts on, the daemon journals every job and
                    // the engine bisects each failed schedule.
                    self.span("bisect", |_| {
                        td_transform::bisect_schedule_failure(
                            &env,
                            &reference::fresh_context,
                            job.script,
                            job.payload,
                            job.entry,
                        )
                    });
                }
                Err(rendered)
            }
        };
        self.span("drop", |_| drop(ctx));
        result
    }

    /// Replays one job along `path` against `cache` and checks the outcome
    /// against the job's reference.
    pub fn job(&mut self, job: &ReplayJob<'_>, cache: &ReplayCache, path: Path) {
        let root = self
            .tracing
            .then(|| self.tracer.begin("job", self.next_job));
        let result = match path {
            Path::Engine => self.engine_job(job, cache, false),
            Path::Serve => {
                let (wire, _) = self.span("encode", |_| {
                    Message::new(protocol::VERB_SUBMIT)
                        .field("tenant", "alpha")
                        .field("entry", job.entry)
                        .blob("script", job.script.as_bytes().to_vec())
                        .blob("payload", job.payload.as_bytes().to_vec())
                        .encode()
                });
                let framed = self.frame(&wire);
                let ((script, payload, entry), _) = self.span("decode", |_| {
                    let request = Message::decode(&framed).expect("own encoding decodes");
                    (
                        request.get_blob_text("script").expect("script blob"),
                        request.get_blob_text("payload").expect("payload blob"),
                        request.get_field("entry").expect("entry field").to_owned(),
                    )
                });
                let tenant = (self.next_job % 2) as usize;
                self.span("scheduler", |r| {
                    r.fair.push(tenant, r.next_job);
                    r.fair.pop().expect("just pushed");
                });
                // The service runs every job as a single-job batch.
                self.batch_fixed();
                let served = ReplayJob {
                    script: &script,
                    payload: &payload,
                    entry: &entry,
                    ..*job
                };
                let result = self.engine_job(&served, cache, true);
                let (wire, _) = self.span("encode", |_| {
                    let base = Message::new(protocol::VERB_RESULT)
                        .field("job", "1")
                        .field("request", "r-00000000-1")
                        .field("tenant", "alpha")
                        .field("wall_us", "1000");
                    match &result {
                        Ok(text) => base
                            .field("ok", "true")
                            .field("cached", "false")
                            .field("attempts", "1")
                            .field("transforms", "1")
                            .blob("module", text.as_bytes().to_vec()),
                        Err(error) => base
                            .field("ok", "false")
                            .blob("error", error.as_bytes().to_vec()),
                    }
                    .encode()
                });
                let framed = self.frame(&wire);
                self.span("decode", |_| {
                    Message::decode(&framed).expect("own encoding decodes");
                });
                if self.tracing {
                    self.counters.encodes += 2;
                    self.counters.decodes += 2;
                    self.counters.admissions += 1;
                }
                result
            }
        };
        if let Some(root) = root {
            self.tracer.end(root);
        }
        if self.tracing {
            self.counters.jobs += 1;
            let seen = Expected::of(result.as_deref().map_err(String::as_str));
            self.counters.failed += u64::from(seen != *job.expected);
        }
        self.next_job += 1;
    }

    /// Writes `payload` as one frame into memory and reads it back.
    fn frame(&mut self, payload: &[u8]) -> Vec<u8> {
        let (framed, _) = self.span("framing", |_| {
            let mut wire = Vec::with_capacity(payload.len() + 4);
            write_frame(&mut wire, payload).expect("in-memory write");
            read_frame(&mut wire.as_slice())
                .expect("in-memory read")
                .expect("one frame")
        });
        if self.tracing {
            self.counters.frames += 1;
            self.counters.frame_bytes += payload.len() as u64;
        }
        framed
    }
}
