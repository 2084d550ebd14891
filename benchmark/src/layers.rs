//! The per-layer ledger: metric names, what the replay's spans say about
//! each layer, the share-of-wall fold, and the few micro-measurements of
//! calls that are not separate spans of a job's life.

use crate::gen::{self, ModelJob};
use crate::reference;
use crate::replay::Replayer;
use crate::stats;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use td_sched::{CacheKey, CachePersist, CachedResult, Engine, EngineConfig, Job, ResultCache};
use td_serve::{DiskStore, Service, ServiceConfig, TenantConfig};
use td_transform::{InterpEnv, Interpreter, TxnMode};

/// Per-layer values of one traced run, by metric name.
pub type Layers = BTreeMap<String, f64>;

/// Layers a share of wall time is reported for; `share.<layer>`.
pub const SHARE_LAYERS: [&str; 13] = [
    "context",
    "parse",
    "fingerprint",
    "verify",
    "cache",
    "interp",
    "print",
    "bisect",
    "framing",
    "protocol",
    "diskcache",
    "engine_fixed",
    "service",
];

/// The stages of `TOSA_PIPELINE`, as `NN-<pass>`.
pub fn pipeline_stages() -> Vec<String> {
    td_dialects::passes::TOSA_PIPELINE
        .split(',')
        .enumerate()
        .map(|(i, pass)| format!("{:02}-{}", i + 1, pass.trim()))
        .collect()
}

/// Every per-layer metric: `(name, unit, better)`. `BENCHMARK.json` lists
/// exactly these; a traced run prints exactly these. A layer the workload
/// does not touch reads 0.
pub fn metric_table() -> Vec<(String, &'static str, &'static str)> {
    let mut table: Vec<(String, &'static str, &'static str)> = [
        ("ir.context.build_us", "us", "lower"),
        ("ir.parse.us_per_job", "us", "lower"),
        ("ir.parse.mb_per_s", "MB/s", "higher"),
        ("ir.parse.ops_per_s", "1/s", "higher"),
        ("ir.fingerprint.ns_per_op", "ns", "lower"),
        ("ir.verify.ns_per_op", "ns", "lower"),
        ("ir.print.mb_per_s", "MB/s", "higher"),
        ("ir.print.us_per_job", "us", "lower"),
        ("ir.pass.pipeline_ms", "ms", "lower"),
        ("ir.undo.always_over_never", "ratio", "lower"),
        ("transform.interp.us_per_job", "us", "lower"),
        ("transform.interp.us_per_transform", "us", "lower"),
        ("transform.interp.transforms", "count", "lower"),
        ("transform.interp.rolled_back", "count", "lower"),
        ("transform.interp.undo_entries", "count", "lower"),
        ("transform.interp.overhead_pct", "%", "lower"),
        ("transform.loop.us_per_job", "us", "lower"),
        ("machine.sim.ns_per_iter", "ns", "lower"),
        ("machine.sim.checksum_ok", "count", "higher"),
        ("sched.cache.get_hit_ns", "ns", "lower"),
        ("sched.cache.get_miss_ns", "ns", "lower"),
        ("sched.cache.insert_ns", "ns", "lower"),
        ("sched.cache.insert_evict_ns", "ns", "lower"),
        ("sched.cache.hit_share", "share", "higher"),
        ("sched.cache.disk_hit_share", "share", "lower"),
        ("sched.cache.evictions", "count", "lower"),
        ("sched.engine.batch1_us", "us", "lower"),
        ("sched.engine.batchN_us_per_job", "us", "lower"),
        ("sched.engine.hit_us_per_job", "us", "lower"),
        ("sched.engine.miss_us_per_job", "us", "lower"),
        ("sched.engine.pool_utilization", "share", "higher"),
        ("sched.engine.queue_wait_us_p50", "us", "lower"),
        ("serve.framing.ns_per_frame", "ns", "lower"),
        ("serve.framing.mb_per_s", "MB/s", "higher"),
        ("serve.protocol.encode_ns", "ns", "lower"),
        ("serve.protocol.decode_ns", "ns", "lower"),
        ("serve.scheduler.ns_per_op", "ns", "lower"),
        ("serve.diskcache.store_us", "us", "lower"),
        ("serve.diskcache.load_us", "us", "lower"),
        ("serve.diskcache.miss_us", "us", "lower"),
        ("serve.service.submit_wait_us", "us", "lower"),
        ("serve.service.overhead_us", "us", "lower"),
        ("serve.client.ping_rtt_us", "us", "lower"),
        ("ledger.trace_overhead_pct", "%", "lower"),
    ]
    .into_iter()
    .map(|(name, unit, better)| (name.to_owned(), unit, better))
    .collect();
    for model in gen::MODEL_NAMES {
        table.push((format!("models.{model}.compile_ms"), "ms", "lower"));
    }
    for stage in pipeline_stages() {
        table.push((format!("dialects.pass.{stage}.ms"), "ms", "lower"));
        table.push((format!("dialects.pass.{stage}.ops_after"), "count", "lower"));
    }
    for layer in SHARE_LAYERS.iter().chain(&["unattributed"]) {
        table.push((format!("share.{layer}"), "share", "lower"));
    }
    table
}

/// All metrics at 0 — the starting point of a traced run.
pub fn zeroed() -> Layers {
    metric_table()
        .into_iter()
        .map(|(name, _, _)| (name, 0.0))
        .collect()
}

fn set(layers: &mut Layers, name: &str, value: f64) {
    let slot = layers
        .get_mut(name)
        .unwrap_or_else(|| panic!("'{name}' is not in the metric table"));
    *slot = if value.is_finite() { value } else { 0.0 };
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// What the replay's spans and counters say about each layer.
pub fn from_replay(layers: &mut Layers, replayer: &Replayer) {
    let self_ns = replayer.tracer.self_time_ns();
    let ns = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    let c = &replayer.counters;
    let f = |n: u64| n as f64;
    set(
        layers,
        "ir.context.build_us",
        ratio(ns("context"), f(c.contexts)) / 1e3,
    );
    set(
        layers,
        "ir.parse.us_per_job",
        ratio(ns("parse"), f(c.jobs)) / 1e3,
    );
    set(
        layers,
        "ir.parse.mb_per_s",
        ratio(f(c.parse_bytes), ns("parse")) * 1e3,
    );
    set(
        layers,
        "ir.parse.ops_per_s",
        ratio(f(c.parse_ops), ns("parse")) * 1e9,
    );
    set(
        layers,
        "ir.fingerprint.ns_per_op",
        ratio(ns("fingerprint"), f(c.fingerprint_ops)),
    );
    set(
        layers,
        "ir.verify.ns_per_op",
        ratio(ns("verify"), f(c.verify_ops)),
    );
    set(
        layers,
        "ir.print.mb_per_s",
        ratio(f(c.print_bytes), ns("print")) * 1e3,
    );
    set(
        layers,
        "ir.print.us_per_job",
        ratio(ns("print"), f(c.prints)) / 1e3,
    );
    set(
        layers,
        "transform.interp.us_per_job",
        ratio(ns("interp"), f(c.interp_jobs)) / 1e3,
    );
    set(
        layers,
        "transform.interp.us_per_transform",
        ratio(ns("interp"), f(c.transforms)) / 1e3,
    );
    set(layers, "transform.interp.transforms", f(c.transforms));
    set(layers, "transform.interp.rolled_back", f(c.rolled_back));
    set(layers, "transform.interp.undo_entries", f(c.undo_entries));
    set(
        layers,
        "transform.loop.us_per_job",
        ratio(f(c.loop_interp_ns), f(c.loop_jobs)) / 1e3,
    );
    set(
        layers,
        "sched.cache.get_hit_ns",
        ratio(f(c.get_hit_ns), f(c.memory_hits)),
    );
    set(
        layers,
        "sched.cache.get_miss_ns",
        ratio(f(c.get_miss_ns), f(c.misses)),
    );
    set(
        layers,
        "sched.cache.insert_ns",
        ratio(f(c.insert_ns), f(c.inserts)),
    );
    set(
        layers,
        "serve.framing.ns_per_frame",
        ratio(ns("framing"), f(c.frames)),
    );
    set(
        layers,
        "serve.framing.mb_per_s",
        ratio(f(c.frame_bytes), ns("framing")) * 1e3,
    );
    set(
        layers,
        "serve.protocol.encode_ns",
        ratio(ns("encode"), f(c.encodes)),
    );
    set(
        layers,
        "serve.protocol.decode_ns",
        ratio(ns("decode"), f(c.decodes)),
    );
    set(
        layers,
        "serve.scheduler.ns_per_op",
        ratio(ns("scheduler"), f(c.admissions)),
    );
    set(
        layers,
        "serve.diskcache.store_us",
        ratio(f(c.disk_store_ns), f(c.disk_stores)) / 1e3,
    );
    set(
        layers,
        "serve.diskcache.load_us",
        ratio(f(c.disk_load_ns), f(c.disk_loads)) / 1e3,
    );
}

/// Folds the replay's self times into `share.*` over `total_ns`, the
/// caller-seen time of the same jobs in the untraced rounds. `service_ns`
/// is the one share that is not a span: the service's own per-request cost
/// (measured in process, see [`bench_service`]) times the requests.
pub fn fold(layers: &mut Layers, replayer: &Replayer, total_ns: f64, service_ns: f64) {
    let self_ns = replayer.tracer.self_time_ns();
    let ns = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    let per_layer: Vec<(String, f64)> = SHARE_LAYERS
        .iter()
        .map(|&layer| {
            let time = match layer {
                // Building a context and tearing it down are one cost.
                "context" => ns("context") + ns("drop"),
                "protocol" => ns("encode") + ns("decode"),
                // Admission is part of what the service adds.
                "service" => service_ns + ns("scheduler"),
                other => ns(other),
            };
            (layer.to_owned(), time)
        })
        .collect();
    for (layer, share) in stats::fold_shares(&per_layer, total_ns) {
        set(layers, &format!("share.{layer}"), share);
    }
}

/// Median of `runs` timings of `f`, in nanoseconds.
fn median_ns(runs: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..runs)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&times)
}

/// `sched.cache.insert_evict_ns`: insert into a full cache, where every new
/// key scans for the LRU victim.
pub fn bench_cache_evict(layers: &mut Layers) {
    let capacity = EngineConfig::standard().cache_capacity;
    let cache = ResultCache::new(capacity);
    let key = |i: u64| CacheKey {
        script_fp: i,
        payload_fp: !i,
        entry_fp: 1,
    };
    let value = || CachedResult {
        module_text: "module {}".to_owned(),
        transforms_executed: 1,
    };
    for i in 0..capacity as u64 {
        cache.insert(key(i), value());
    }
    let inserts = 2000u64;
    let started = Instant::now();
    for i in 0..inserts {
        cache.insert(key(capacity as u64 + i), value());
    }
    let ns = started.elapsed().as_nanos() as f64;
    assert_eq!(cache.stats().evictions, inserts);
    set(layers, "sched.cache.insert_evict_ns", ns / inserts as f64);
}

/// `sched.engine.*`: the engine on a sample of the workload's own jobs.
/// `batch1_us` is one small job as a single-job batch on `batch1_workers`
/// workers (1 in the service); the batch-of-N numbers use `workers`.
/// Returns `batch1_us`.
pub fn bench_engine(
    layers: &mut Layers,
    small: &Job,
    sample: &[Job],
    workers: usize,
    batch1_workers: usize,
) -> f64 {
    let single = Engine::new(EngineConfig::standard().with_workers(batch1_workers));
    single.run_batch(vec![small.clone()]);
    let batch1_us = median_ns(200, || {
        black_box(single.run_batch(vec![small.clone()]));
    }) / 1e3;
    set(layers, "sched.engine.batch1_us", batch1_us);

    let n = sample.len() as f64;
    let (mut cold_wall, mut miss, mut hit, mut utilization, mut wait) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let engine = Engine::new(EngineConfig::standard().with_workers(workers));
        let cold = engine.run_batch(sample.to_vec());
        let warm = engine.run_batch(sample.to_vec());
        assert_eq!(warm.cache.hits, cold.cache.inserts, "every cached job hits");
        cold_wall.push(cold.wall.as_nanos() as f64 / n / 1e3);
        miss.push(cold.stats.run.mean_ns() as f64 / 1e3);
        hit.push(warm.stats.run.mean_ns() as f64 / 1e3);
        utilization.push(cold.stats.pool_utilization());
        wait.push(cold.stats.queue_wait.quantile_ns(0.5) as f64 / 1e3);
    }
    set(
        layers,
        "sched.engine.batchN_us_per_job",
        stats::median(&cold_wall),
    );
    set(layers, "sched.engine.miss_us_per_job", stats::median(&miss));
    set(layers, "sched.engine.hit_us_per_job", stats::median(&hit));
    set(
        layers,
        "sched.engine.pool_utilization",
        stats::median(&utilization),
    );
    set(
        layers,
        "sched.engine.queue_wait_us_p50",
        stats::median(&wait),
    );
    batch1_us
}

/// `serve.service.*`: one small job through an in-process `Service` with
/// the daemon's configuration, against the same job as a bare single-job
/// batch. Returns the service's own per-request cost in nanoseconds.
pub fn bench_service(layers: &mut Layers, small: &Job, workers: usize, batch1_us: f64) -> f64 {
    let tenants = vec![
        TenantConfig::new("alpha").with_weight(2),
        TenantConfig::new("beta"),
    ];
    let service =
        Service::start(ServiceConfig::new(tenants).with_workers(workers)).expect("service starts");
    let submit = || {
        service
            .submit_wait(
                "alpha",
                small.script.as_str(),
                small.payload.as_str(),
                &small.entry,
            )
            .expect("admitted")
            .result
            .expect("the small job succeeds")
    };
    submit();
    let submit_wait_us = median_ns(200, || {
        black_box(submit());
    }) / 1e3;
    service.drain();
    set(layers, "serve.service.submit_wait_us", submit_wait_us);
    let overhead_us = (submit_wait_us - batch1_us).max(0.0);
    set(layers, "serve.service.overhead_us", overhead_us);
    overhead_us * 1e3
}

/// `serve.diskcache.miss_us`: a load of a key that is not on disk.
pub fn bench_disk_miss(layers: &mut Layers, dir: &std::path::Path) {
    let store = DiskStore::open(dir).expect("open disk store");
    let mut i = 0u64;
    let ns = median_ns(500, || {
        i += 1;
        black_box(store.load(&CacheKey {
            script_fp: i,
            payload_fp: 0xdead,
            entry_fp: 0xbeef,
        }));
    });
    set(layers, "serve.diskcache.miss_us", ns / 1e3);
}

/// `serve.client.ping_rtt_us`: PING → PONG over the daemon's socket.
pub fn bench_ping(layers: &mut Layers, daemon: &crate::serve::Daemon) {
    let mut client = daemon.connect();
    let ns = median_ns(500, || {
        client.ping().expect("PING answers");
    });
    set(layers, "serve.client.ping_rtt_us", ns / 1e3);
}

/// The Table 1 quantities, on the five models: the pass-manager pipeline,
/// the interpreter under `TxnMode::Always` and `Never`, the per-model
/// compile time, and the ten pipeline stages one by one on GPT-2. Each
/// timing is the minimum of three runs, as `table1_overhead` reports them.
pub fn bench_models(layers: &mut Layers, models: &[ModelJob], script: &str) {
    let passes = reference::full_passes();
    let min_ms = |f: &mut dyn FnMut() -> f64| (0..3).map(|_| f()).fold(f64::INFINITY, f64::min);

    let pass_manager = |payload: &str| {
        let mut ctx = reference::fresh_context();
        let module = td_ir::parse_module(&mut ctx, payload).expect("model text parses");
        let mut pm = passes
            .parse_pipeline(td_dialects::passes::TOSA_PIPELINE)
            .expect("pipeline parses");
        let started = Instant::now();
        pm.run(&mut ctx, module).expect("pipeline succeeds");
        started.elapsed().as_secs_f64() * 1e3
    };
    let interpret = |payload: &str, txn: TxnMode, expensive_checks: bool| {
        let mut ctx = reference::fresh_context();
        let module = td_ir::parse_module(&mut ctx, payload).expect("model text parses");
        let script = td_ir::parse_module(&mut ctx, script).expect("script text parses");
        let entry = td_transform::transform_main(&ctx, script).expect("entry exists");
        let mut env = InterpEnv::standard();
        env.passes = Some(&passes);
        env.config.txn = txn;
        env.config.expensive_checks = expensive_checks;
        let started = Instant::now();
        Interpreter::new(&env)
            .apply(&mut ctx, entry, module)
            .expect("script succeeds");
        started.elapsed().as_secs_f64() * 1e3
    };

    let (mut pm_ms, mut plain_ms, mut always_ms, mut never_ms) = (0.0, 0.0, 0.0, 0.0);
    for model in models {
        pm_ms += min_ms(&mut || pass_manager(&model.payload));
        // Table 1's methodology: checks and transactions off, so only the
        // interpreter's dispatch is compared with the pass manager.
        plain_ms += min_ms(&mut || interpret(&model.payload, TxnMode::Never, false));
        let always = min_ms(&mut || interpret(&model.payload, TxnMode::Always, true));
        never_ms += min_ms(&mut || interpret(&model.payload, TxnMode::Never, true));
        always_ms += always;
        set(layers, &format!("models.{}.compile_ms", model.name), always);
    }
    set(layers, "ir.pass.pipeline_ms", pm_ms);
    set(
        layers,
        "transform.interp.overhead_pct",
        (ratio(plain_ms, pm_ms) - 1.0) * 100.0,
    );
    set(
        layers,
        "ir.undo.always_over_never",
        ratio(always_ms, never_ms),
    );

    let gpt2 = models
        .iter()
        .find(|m| m.name == "gpt2")
        .expect("GPT-2 is a Table 1 model");
    let stages = pipeline_stages();
    let mut stage_ms = vec![f64::INFINITY; stages.len()];
    for _ in 0..3 {
        let mut ctx = reference::fresh_context();
        let module = td_ir::parse_module(&mut ctx, &gpt2.payload).expect("model text parses");
        for (i, pass) in td_dialects::passes::TOSA_PIPELINE.split(',').enumerate() {
            let mut pm = passes.parse_pipeline(pass.trim()).expect("stage parses");
            let started = Instant::now();
            pm.run(&mut ctx, module).expect("stage succeeds");
            stage_ms[i] = stage_ms[i].min(started.elapsed().as_secs_f64() * 1e3);
            let ops = ctx.walk_nested(module).len() as f64;
            set(
                layers,
                &format!("dialects.pass.{}.ops_after", stages[i]),
                ops,
            );
        }
    }
    for (stage, ms) in stages.iter().zip(stage_ms) {
        set(layers, &format!("dialects.pass.{stage}.ms"), ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_fit_the_manifest_rules() {
        let table = metric_table();
        assert!(table.len() <= 128, "{} per-layer metrics", table.len());
        let mut names: Vec<&str> = table.iter().map(|(n, _, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), table.len(), "names are unique");
        for (name, unit, better) in &table {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(*better, "lower" | "higher"));
        }
        assert_eq!(zeroed().len(), table.len());
    }

    #[test]
    fn pipeline_has_ten_numbered_stages() {
        let stages = pipeline_stages();
        assert_eq!(stages.len(), 10);
        assert_eq!(stages[1], "02-canonicalize");
        assert_eq!(stages[6], "07-canonicalize");
    }
}
