//! The traced pass of each workload: untraced rounds for the caller-seen
//! time, one replayed round with spans, and the layer micro-measurements.

use crate::gen::{Family, JobSpec};
use crate::layers::{self, Layers};
use crate::models::ModelsDirect;
use crate::replay::{Path, ReplayCache, ReplayJob, Replayer};
use crate::serve::{Daemon, Scratch, ServeCold, ServeWarm};
use crate::sweep::{self, SweepEngine};
use crate::workload::{best_of, measure, parallelism, Measured, Round, Scale, Workload};
use td_sched::Job;

/// What a traced run produced.
pub struct TracedRun {
    /// The untraced rounds the shares are taken over.
    pub measured: Measured,
    /// Every per-layer metric.
    pub layers: Layers,
    /// Replayed jobs whose outcome differed from the reference.
    pub replay_failed: u64,
    /// The spans, as JSON.
    pub trace_json: String,
}

impl JobSpec {
    fn replay(&self) -> ReplayJob<'_> {
        ReplayJob {
            script: &self.script,
            payload: &self.payload,
            entry: &self.entry,
            fig8: self.family == Family::MmFig8,
            expected: &self.expected,
        }
    }

    fn engine_job(&self) -> Job {
        Job::new(self.script.as_str(), self.payload.as_str()).with_entry(self.entry.as_str())
    }
}

fn cache_counters(layers: &mut Layers, measured: &Measured) {
    let last = &measured.last;
    layers.insert("sched.cache.hit_share".into(), last.cache_hit_share);
    layers.insert(
        "sched.cache.disk_hit_share".into(),
        last.cache_disk_hit_share,
    );
    layers.insert("sched.cache.evictions".into(), last.cache_evictions as f64);
}

fn finish(measured: Measured, layers: Layers, replayer: &Replayer) -> TracedRun {
    TracedRun {
        measured,
        layers,
        replay_failed: replayer.counters.failed,
        trace_json: replayer.tracer.to_json(),
    }
}

/// Runs every `models_direct` round twice, untraced then traced, so drift
/// in the machine's speed hits both sides alike. The untraced round is the
/// one reported; the traced one is kept on the side.
struct Alternating {
    inner: ModelsDirect,
    traced: Vec<Round>,
}

impl Workload for Alternating {
    fn digest(&self) -> u64 {
        self.inner.digest()
    }

    fn round(&mut self) -> Round {
        let untraced = self.inner.round();
        self.inner.replayer.tracing = true;
        let traced = self.inner.round();
        self.inner.replayer.tracing = false;
        self.traced.push(traced);
        untraced
    }
}

/// `models_direct`: the harness calls every layer itself, so the traced
/// rounds *are* the workload with spans on; the untraced rounds next to
/// them give the tracing overhead.
fn models_direct(seed: u64, seconds: f64) -> TracedRun {
    let mut w = Alternating {
        inner: ModelsDirect::setup(seed),
        traced: Vec::new(),
    };
    let measured = measure(&mut w, seconds * 0.5, 2, &mut |_| {});
    let traced_rounds = w.traced.len() as f64;
    let traced_jobs_per_s = best_of(w.traced[1..].iter()).jobs_per_s; // [0] is the warm-up
    let replayer = &mut w.inner.replayer;
    replayer.counters.failed += w.traced.iter().map(|r| r.failed as u64).sum::<u64>();

    let mut layers = layers::zeroed();
    layers::from_replay(&mut layers, replayer);
    // The harness's own root spans are the jobs' wall time.
    let total_ns: u64 = replayer.tracer.self_time_ns().values().sum();
    layers::fold(&mut layers, replayer, total_ns as f64, 0.0);
    layers::bench_models(&mut layers, &w.inner.models, &w.inner.script);
    layers.insert(
        "ledger.trace_overhead_pct".into(),
        (measured.best.jobs_per_s / traced_jobs_per_s - 1.0) * 100.0,
    );
    // A round's counts, not the sum over however many rounds fitted.
    for name in ["transforms", "rolled_back", "undo_entries"] {
        *layers
            .get_mut(&format!("transform.interp.{name}"))
            .expect("in the table") /= traced_rounds;
    }
    finish(measured, layers, &w.inner.replayer)
}

fn sweep_engine(seed: u64, scale: &Scale, seconds: f64) -> TracedRun {
    let workers = parallelism();
    let mut w = SweepEngine::setup(seed, scale, workers);
    let measured = measure(&mut w, seconds * 0.4, 2, &mut |_| {});

    // One round in job-life order: per shape a batch of the whole grid,
    // then each revisit as a single-job batch.
    let mut replayer = Replayer::new(workers);
    let cache = ReplayCache::memory();
    let scripts: Vec<String> = w.configs.iter().map(sweep::render).collect();
    for (shape, expected) in w.shapes.iter().zip(&w.expected) {
        let job = |index: usize| ReplayJob {
            script: &scripts[index],
            payload: &shape.payload,
            entry: "main",
            fig8: true,
            expected: &expected[index],
        };
        replayer.batch_fixed();
        for index in 0..scripts.len() {
            replayer.job(&job(index), &cache, Path::Engine);
        }
        for &index in &shape.revisit {
            replayer.batch_fixed();
            replayer.job(&job(index), &cache, Path::Engine);
        }
    }

    let mut layers = layers::zeroed();
    layers::from_replay(&mut layers, &replayer);
    // The round's wall on every worker: what the layers' CPU time is a
    // share of when the batch fans out perfectly.
    layers::fold(
        &mut layers,
        &replayer,
        workers as f64 * measured.round_wall_ns,
        0.0,
    );
    cache_counters(&mut layers, &measured);
    layers::bench_cache_evict(&mut layers);
    let sample: Vec<Job> = scripts
        .iter()
        .flat_map(|script| {
            w.shapes[..2]
                .iter()
                .map(move |shape| Job::new(script.as_str(), shape.payload.as_str()))
        })
        .collect();
    layers::bench_engine(&mut layers, &sample[0], &sample, workers, workers);
    layers.insert("machine.sim.ns_per_iter".into(), w.machine.ns_per_iter);
    layers.insert(
        "machine.sim.checksum_ok".into(),
        f64::from(u8::from(w.machine.checksum_ok)),
    );
    finish(measured, layers, &replayer)
}

/// The measurements both serving workloads share once their round has been
/// replayed.
fn serve_layers(
    measured: &Measured,
    replayer: &Replayer,
    corpus: &[JobSpec],
    daemon: &Daemon,
    scratch: &Scratch,
) -> Layers {
    let workers = parallelism();
    let mut layers = layers::zeroed();
    layers::from_replay(&mut layers, replayer);
    cache_counters(&mut layers, measured);
    layers::bench_cache_evict(&mut layers);
    let small = corpus[0].engine_job();
    let stride = (corpus.len() / 64).max(1);
    let sample: Vec<Job> = corpus
        .iter()
        .step_by(stride)
        .map(JobSpec::engine_job)
        .collect();
    // The service runs single-job batches on one-worker engines.
    let batch1_us = layers::bench_engine(&mut layers, &small, &sample, workers, 1);
    let service_ns = layers::bench_service(&mut layers, &small, workers, batch1_us);
    layers::bench_disk_miss(&mut layers, &scratch.join("empty"));
    layers::bench_ping(&mut layers, daemon);
    layers::fold(
        &mut layers,
        replayer,
        measured.round_latency_ns,
        service_ns * measured.latency_samples as f64,
    );
    layers
}

fn serve_cold(seed: u64, scale: &Scale, seconds: f64) -> TracedRun {
    let mut w = ServeCold::setup(seed, scale, parallelism());
    let measured = measure(&mut w, seconds * 0.4, 1, &mut |_| {});

    let scratch = Scratch::new();
    let mut replayer = Replayer::new(1);
    let cache = ReplayCache::over_disk(&scratch.join("replay"));
    for job in w.corpus() {
        replayer.job(&job.replay(), &cache, Path::Serve);
    }
    let daemon = Daemon::spawn(&scratch, &scratch.join("cache"), parallelism());
    let layers = serve_layers(&measured, &replayer, w.corpus(), &daemon, &scratch);
    daemon.shutdown();
    finish(measured, layers, &replayer)
}

fn serve_warm(seed: u64, scale: &Scale, seconds: f64) -> TracedRun {
    let mut w = ServeWarm::setup(seed, scale, parallelism());
    let measured = measure(&mut w, seconds * 0.4, 1, &mut |_| {});

    // Prepared the way the workload prepares its daemon: a cold pass fills
    // the disk store, a restart empties the memory level, an unmeasured
    // round warms it; then the round is replayed with spans.
    let scratch = Scratch::new();
    let dir = scratch.join("replay");
    let mut replayer = Replayer::new(1);
    replayer.tracing = false;
    let prefill = ReplayCache::over_disk(&dir);
    for job in w.corpus() {
        replayer.job(&job.replay(), &prefill, Path::Serve);
    }
    drop(prefill);
    let cache = ReplayCache::over_disk(&dir);
    for tracing in [false, true] {
        replayer.tracing = tracing;
        for &index in w.requests() {
            replayer.job(&w.corpus()[index].replay(), &cache, Path::Serve);
        }
    }
    let layers = serve_layers(&measured, &replayer, w.corpus(), w.daemon(), &scratch);
    finish(measured, layers, &replayer)
}

/// Runs the traced pass of workload `name`, spending about `seconds` on
/// measured work.
///
/// # Panics
/// Panics on an unknown workload name.
pub fn run(name: &str, seed: u64, scale: &Scale, seconds: f64) -> TracedRun {
    match name {
        "models_direct" => models_direct(seed, seconds),
        "sweep_engine" => sweep_engine(seed, scale, seconds),
        "serve_cold" => serve_cold(seed, scale, seconds),
        "serve_warm" => serve_warm(seed, scale, seconds),
        other => panic!("unknown workload '{other}'"),
    }
}
