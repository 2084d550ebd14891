//! `sweep_engine`: an autotuning sweep of the CS4 matmul nest through
//! `td_sched::sweep_schedules`, with the searcher-revisit pattern on top.

use crate::gen::{self, SweepShape, SWEEP_TILES};
use crate::reference::{self, Expected};
use crate::stats;
use crate::workload::{timed_segment, Round, Scale, Workload};
use std::time::Instant;
use td_autotune::{Config, ParamDomain, ParamSpace};
use td_machine::{run_function_with_buffers, ArgBuilder, ExecConfig};
use td_sched::{sweep_schedules, Engine, EngineConfig, Job};
use td_support::rng::{derive_seed, Xoshiro256pp};

/// The Fig. 8 grid: `TILE_I × TILE_J × LIBRARY`, 32 candidates per shape.
pub fn sweep_space() -> ParamSpace {
    ParamSpace::new()
        .param("TILE_I", ParamDomain::Ordinal(SWEEP_TILES.to_vec()))
        .param("TILE_J", ParamDomain::Ordinal(SWEEP_TILES.to_vec()))
        .param("LIBRARY", ParamDomain::Bool)
}

/// Renders one grid point into its schedule text.
pub fn render(config: &Config) -> String {
    gen::fig8_script(
        config[0].as_int().expect("TILE_I is ordinal"),
        config[1].as_int().expect("TILE_J is ordinal"),
        config[2].as_bool().expect("LIBRARY is boolean"),
    )
}

/// What the simulated machine said about the set-up-time checksum sample.
#[derive(Clone, Copy, Debug, Default)]
pub struct MachineCheck {
    /// Candidates executed.
    pub candidates: usize,
    /// Whether every candidate reproduced the untransformed checksum.
    pub checksum_ok: bool,
    /// Wall nanoseconds per simulated operation.
    pub ns_per_iter: f64,
}

/// Executes `@mm` of `module_text` on td-machine with fixed inputs and
/// returns a checksum of `C` plus the operations executed.
fn simulate(module_text: &str, shape: gen::MmShape) -> (f64, u64) {
    let mut ctx = reference::fresh_context();
    let module = td_ir::parse_module(&mut ctx, module_text).expect("candidate output parses");
    let mut args = ArgBuilder::new();
    let fill = |len: i64, modulus: i64, scale: f64| -> Vec<f64> {
        (0..len)
            .map(|i| ((i % modulus) as f64 - (modulus / 2) as f64) * scale)
            .collect()
    };
    let a = args.buffer(fill(shape.m * shape.k, 13, 0.25));
    let b = args.buffer(fill(shape.k * shape.n, 7, 0.5));
    let c = args.buffer(vec![0.0; (shape.m * shape.n) as usize]);
    let (_, buffers, report) = run_function_with_buffers(
        &ctx,
        module,
        "mm",
        vec![a, b, c],
        args.into_buffers(),
        ExecConfig::default(),
        None,
    )
    .expect("candidate executes");
    let checksum = buffers[2]
        .iter()
        .enumerate()
        .map(|(i, v)| v * ((i % 17) as f64))
        .sum();
    (checksum, report.instructions)
}

/// The workload after set-up.
pub struct SweepEngine {
    /// The seeded shapes.
    pub shapes: Vec<SweepShape>,
    /// The candidate grid, enumerated once.
    pub configs: Vec<Config>,
    space: ParamSpace,
    /// Reference outcome per shape and grid point.
    pub expected: Vec<Vec<Expected>>,
    workers: usize,
    /// Result of the set-up-time td-machine sample.
    pub machine: MachineCheck,
}

impl SweepEngine {
    /// Generates the shapes, computes every candidate's reference on a
    /// direct interpreter, and executes a seeded sample of reference
    /// outputs on td-machine against the untransformed nest.
    ///
    /// # Panics
    /// Panics if a candidate's reference run fails: every grid point
    /// applies to every shape by construction.
    pub fn setup(seed: u64, scale: &Scale, workers: usize) -> SweepEngine {
        let space = sweep_space();
        let configs = space.enumerate();
        let shapes = gen::sweep_shapes(seed, scale.sweep_shapes, configs.len());
        let mut outputs_of_first = Vec::new();
        let expected = shapes
            .iter()
            .enumerate()
            .map(|(s, shape)| {
                configs
                    .iter()
                    .map(|config| {
                        let outcome = reference::run(&render(config), &shape.payload, "main");
                        let reference::Outcome::Ok { text, .. } = &outcome else {
                            panic!("sweep candidate {config:?} fails on {:?}", shape.shape);
                        };
                        if s == 0 {
                            outputs_of_first.push(text.clone());
                        }
                        outcome.expected()
                    })
                    .collect()
            })
            .collect();

        let first = &shapes[0];
        let (baseline, _) = simulate(&first.payload, first.shape);
        let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(seed, 0x51e));
        let mut machine = MachineCheck {
            checksum_ok: true,
            ..MachineCheck::default()
        };
        let (mut sim_ns, mut sim_ops) = (0u128, 0u64);
        for _ in 0..4 {
            let text = rng.choose(&outputs_of_first);
            let started = Instant::now();
            let (checksum, ops) = simulate(text, first.shape);
            sim_ns += started.elapsed().as_nanos();
            sim_ops += ops;
            machine.candidates += 1;
            machine.checksum_ok &= (checksum - baseline).abs() <= 1e-6 * baseline.abs().max(1.0);
        }
        machine.ns_per_iter = sim_ns as f64 / sim_ops.max(1) as f64;

        SweepEngine {
            shapes,
            configs,
            space,
            expected,
            workers,
            machine,
        }
    }
}

impl Workload for SweepEngine {
    fn digest(&self) -> u64 {
        reference::fold_digests(self.shapes.iter().zip(&self.expected).flat_map(
            |(shape, expected)| {
                std::iter::once(reference::digest(&[&shape.payload]))
                    .chain(expected.iter().map(|e| e.digest))
            },
        ))
    }

    fn round(&mut self) -> Round {
        let me = std::process::id();
        let engine = Engine::new(EngineConfig::standard().with_workers(self.workers));
        let mut round = Round::default();
        let check =
            |round: &mut Round, result: &td_sched::JobResult, want: &Expected, hit: bool| {
                let seen = match result {
                    Ok(output) => {
                        round.transforms += output.transforms_executed as u64;
                        round.undo_entries += output.undo_entries as u64;
                        round.rolled_back += output.rolled_back as u64;
                        // A revisit must come from the memory cache; a first
                        // evaluation must not.
                        if output.from_cache == hit {
                            Expected::of(Ok(&output.module_text))
                        } else {
                            Expected::of(Err("wrong cache disposition"))
                        }
                    }
                    Err(error) => Expected::of(Err(&error.to_string())),
                };
                round.failed += usize::from(seen != *want);
                round.output_bytes += seen.bytes as u64;
            };
        for (shape, expected) in self.shapes.iter().zip(&self.expected) {
            // A shape is a segment: its sweep, then its revisits. Outcomes
            // are checked after the clock stops.
            let (segment, (sweep, sweep_ns, revisits)) = timed_segment(me, || {
                let sent = Instant::now();
                let sweep = sweep_schedules(&engine, &shape.payload, &self.space, render, |out| {
                    Some(out.module_text.len() as f64)
                });
                let sweep_ns = sent.elapsed().as_nanos() as u64;
                // The searcher-revisit pattern of `tune_schedules`: a
                // re-proposed configuration is a single-job batch.
                let revisits: Vec<_> = shape
                    .revisit
                    .iter()
                    .map(|&index| {
                        let job = Job::new(render(&self.configs[index]), shape.payload.as_str());
                        let sent = Instant::now();
                        let report = engine.run_batch(vec![job]);
                        (sent.elapsed().as_nanos() as u64, report)
                    })
                    .collect();
                (sweep, sweep_ns, revisits)
            });
            round.segments.push(segment);
            // Results of a batch arrive together: each job's caller-seen
            // latency is the wall time of the batch that carried it.
            for (outcome, want) in sweep.outcomes.iter().zip(expected) {
                round.latencies_ns.push(sweep_ns);
                check(&mut round, &outcome.result, want, false);
            }
            for (&index, (ns, report)) in shape.revisit.iter().zip(&revisits) {
                round.latencies_ns.push(*ns);
                check(&mut round, &report.results[0], &expected[index], true);
            }
        }
        let cache = engine.cache_stats();
        round.peak_rss_kb = stats::peak_rss_kb(me);
        round.cache_hit_share = cache.hit_rate();
        round.cache_evictions = cache.evictions;
        round.signature = vec![
            round.jobs() as u64,
            round.output_bytes,
            round.transforms,
            round.undo_entries,
            round.rolled_back,
            cache.hits,
            cache.misses,
            cache.inserts,
            cache.evictions,
        ];
        round
    }
}
