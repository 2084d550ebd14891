//! Seeded input generation: the serving corpus, the sweep family, the
//! Table 1 model texts and the Zipf request sampler.
//!
//! Everything here is a pure function of the seed. The seed picks names,
//! extents, shapes, tile constants, generated programs and request order;
//! it does *not* pick how much work a run contains. Family shares, size
//! grids and the family sitting at each popularity rank are fixed, so two
//! seeds give different texts but statistically the same load — which is
//! what lets runs at different seeds be compared against one bound.

use crate::reference::{self, Expected};
use td_modelgen::{build_model, paper_models, ModelKind, ModelSpec};
use td_support::rng::{derive_seed, Xoshiro256pp};

/// Input family of a corpus job (fixed shares, see [`FAMILY_PATTERN`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// serve_smoke's 1-D loop × `loop.tile` with tile 4, 8 or 16.
    Loop1d,
    /// The CS4 matmul nest × the Fig. 8 script with seeded tile sizes.
    MmFig8,
    /// td-modelgen payload × generated schedule whose reference succeeds.
    GenOk,
    /// Generated pair whose reference outcome is a transform failure; the
    /// expected result *is* that error.
    GenFail,
    /// 64–192-op TOSA graph × the Table 1 pipeline script.
    TosaSmall,
}

impl Family {
    /// Stable name used in the ledger.
    pub fn name(self) -> &'static str {
        match self {
            Family::Loop1d => "loop1d",
            Family::MmFig8 => "mm_fig8",
            Family::GenOk => "gen_ok",
            Family::GenFail => "gen_fail",
            Family::TosaSmall => "tosa_small",
        }
    }
}

/// One compile job as the program under test sees it, plus what the
/// reference run said it must produce.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Input family.
    pub family: Family,
    /// Transform script text.
    pub script: String,
    /// Payload module text.
    pub payload: String,
    /// Entry sequence symbol.
    pub entry: String,
    /// Reference outcome (set-up-time direct interpreter run).
    pub expected: Expected,
}

/// Family at each corpus position, repeated: 8 loop1d, 4 mm_fig8, 5 gen_ok,
/// 2 gen_fail, 1 tosa_small per 20 (40/20/25/10/5%). Corpus position is
/// also Zipf popularity rank in `serve_warm`, so the request mass each
/// family receives does not depend on the seed.
const FAMILY_PATTERN: [Family; 20] = {
    use Family::*;
    [
        Loop1d, MmFig8, GenOk, Loop1d, GenOk, MmFig8, Loop1d, GenFail, Loop1d, GenOk, MmFig8,
        Loop1d, GenOk, Loop1d, TosaSmall, MmFig8, Loop1d, GenOk, GenFail, Loop1d,
    ]
};

/// The most popular ranks hold only the two families whose cost does not
/// depend on the seed, so one expensive generated job landing on rank 1
/// cannot swing a whole run.
const HEAD_RANKS: usize = 40;

/// Family of the job at corpus position `index`.
pub fn family_at(index: usize) -> Family {
    if index < HEAD_RANKS {
        if index % 3 == 2 {
            Family::MmFig8
        } else {
            Family::Loop1d
        }
    } else {
        FAMILY_PATTERN[(index - HEAD_RANKS) % FAMILY_PATTERN.len()]
    }
}

const LOOP_TILES: [i64; 3] = [4, 8, 16];
const MM_TILES: [i64; 4] = [4, 8, 16, 32];

fn loop1d_payload(name: u64, extent: i64) -> String {
    format!(
        r#"module {{
  func.func @work{name}(%x: memref<{extent}xf32>) {{
    %lo = arith.constant 0 : index
    %hi = arith.constant {extent} : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {{
      %v = "memref.load"(%x, %i) : (memref<{extent}xf32>, index) -> f32
      %w = "arith.addf"(%v, %v) : (f32, f32) -> f32
      "memref.store"(%w, %x, %i) : (f32, memref<{extent}xf32>, index) -> ()
    }}
    func.return
  }}
}}"#
    )
}

fn loop1d_script(tile: i64) -> String {
    format!(
        r#"module {{
  transform.named_sequence @main(%root: !transform.any_op) {{
    %loop = "transform.match_op"(%root) {{name = "scf.for", select = "first"}} : (!transform.any_op) -> !transform.any_op
    %tiles, %points = "transform.loop.tile"(%loop) {{tile_sizes = [{tile}]}} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
  }}
}}"#
    )
}

/// Shape of the CS4 nest `C[i,j] += A[i,k] * B[k,j]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MmShape {
    /// Rows; `m % tile_i` is the remainder loop the script fully unrolls.
    pub m: i64,
    /// Columns.
    pub n: i64,
    /// Reduction length.
    pub k: i64,
}

/// The CS4 payload: `func @mm` with the canonical three-loop nest.
pub fn mm_payload(shape: MmShape) -> String {
    let MmShape { m, n, k } = shape;
    format!(
        r#"module {{
  func.func @mm(%a: memref<{m}x{k}xf32>, %b: memref<{k}x{n}xf32>, %c: memref<{m}x{n}xf32>) {{
    %lo = arith.constant 0 : index
    %m = arith.constant {m} : index
    %n = arith.constant {n} : index
    %k = arith.constant {k} : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %m step %st {{
      scf.for %j = %lo to %n step %st {{
        scf.for %kk = %lo to %k step %st {{
          %av = "memref.load"(%a, %i, %kk) : (memref<{m}x{k}xf32>, index, index) -> f32
          %bv = "memref.load"(%b, %kk, %j) : (memref<{k}x{n}xf32>, index, index) -> f32
          %cv = "memref.load"(%c, %i, %j) : (memref<{m}x{n}xf32>, index, index) -> f32
          %p = "arith.mulf"(%av, %bv) : (f32, f32) -> f32
          %s = "arith.addf"(%cv, %p) : (f32, f32) -> f32
          "memref.store"(%s, %c, %i, %j) : (f32, memref<{m}x{n}xf32>, index, index) -> ()
        }}
      }}
    }}
    func.return
  }}
}}"#
    )
}

/// The Fig. 8 schedule: split the non-divisible loop, tile the main part,
/// optionally try a replacement of the inner tile under `alternatives`,
/// fully unroll the remainder. The engine offers no way to attach a library
/// resolver (without one `to_library` is a definite error, not an
/// alternative), so the first alternative here looks for a call that is not
/// there: a silenceable failure, after which `alternatives` discards its
/// dry-run clone and takes the empty second branch — the control flow of
/// Fig. 8 lines 6–8. The failing branch must not mutate first: a branch
/// that tiles its clone and *then* fails leaves the tiled clone in the
/// payload (the nest runs twice; td-machine's checksum doubles), which is a
/// defect of `transform.alternatives`, not something to benchmark.
pub fn fig8_script(tile_i: i64, tile_j: i64, with_library: bool) -> String {
    let library_part = if with_library {
        r#"
    %kernel = "transform.select_op"(%points) {index = 0} : (!transform.any_op) -> !transform.any_op
    "transform.alternatives"(%kernel) ({
    ^bb0(%arg: !transform.any_op):
      %call = "transform.match_op"(%arg) {name = "func.call", select = "first"} : (!transform.any_op) -> !transform.any_op
      "transform.yield"() : () -> ()
    }, {
    ^bb1(%arg2: !transform.any_op):
      "transform.yield"() : () -> ()
    }) : (!transform.any_op) -> ()"#
    } else {
        ""
    };
    format!(
        r#"module {{
  transform.named_sequence @main(%root: !transform.any_op) {{
    %func = "transform.match_op"(%root) {{name = "func.func", select = "first"}} : (!transform.any_op) -> !transform.any_op
    %i = "transform.match_op"(%func) {{name = "scf.for", select = "first"}} : (!transform.any_op) -> !transform.any_op
    %main, %rest = "transform.loop.split"(%i) {{div_by = {tile_i}}} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
    %tiles, %points = "transform.loop.tile"(%main) {{tile_sizes = [{tile_i}, {tile_j}]}} : (!transform.any_op) -> (!transform.any_op, !transform.any_op){library_part}
    %unrolled = "transform.loop.unroll"(%rest) {{full}} : (!transform.any_op) -> !transform.any_op
  }}
}}"#
    )
}

/// The ways to split a factor of 8 among `m`, `n` and `k`.
const SPLITS: [[i64; 3]; 10] = [
    [1, 1, 8],
    [1, 8, 1],
    [8, 1, 1],
    [1, 2, 4],
    [1, 4, 2],
    [2, 1, 4],
    [2, 4, 1],
    [4, 1, 2],
    [4, 2, 1],
    [2, 2, 2],
];

/// A matmul shape whose `m` leaves remainder `rem` modulo 32 (and so a
/// fixed remainder modulo every tile size in [`MM_TILES`]). The seed picks
/// how a fixed iteration count (8192, plus the remainder rows) is split
/// among the three extents, so executing a shape on td-machine costs the
/// same at every seed; the remainder — the only part of the shape the
/// schedule's cost depends on — is the caller's, from a fixed grid.
fn mm_shape(rng: &mut Xoshiro256pp, rem: i64) -> MmShape {
    let [a, b, c] = *rng.choose(&SPLITS);
    MmShape {
        m: 32 * a + rem,
        n: 8 * b,
        k: 4 * c,
    }
}

/// The TOSA pipeline as a transform script (one `apply_registered_pass`
/// per stage), printed once; entry [`td_transform::TRANSFORM_MAIN`].
pub fn tosa_pipeline_script() -> String {
    let mut ctx = reference::fresh_context();
    let script = td_transform::pipeline_to_script(&mut ctx, td_dialects::passes::TOSA_PIPELINE)
        .expect("the Table 1 pipeline is not empty");
    td_ir::print_op(&ctx, script)
}

fn model_text(spec: &ModelSpec) -> String {
    let mut ctx = reference::fresh_context();
    let module = build_model(&mut ctx, spec);
    td_ir::print_op(&ctx, module)
}

/// One Table 1 model as text, with its reference output.
#[derive(Clone, Debug)]
pub struct ModelJob {
    /// Ledger-safe model name (`gpt2`, `mobilebert`, …).
    pub name: &'static str,
    /// Payload module text.
    pub payload: String,
    /// What `print_op` gives after the pass-manager route.
    pub expected: String,
}

/// Ledger-safe names of the five Table 1 models, in `paper_models` order.
pub const MODEL_NAMES: [&str; 5] = ["squeezenet", "gpt2", "mobilebert", "whisper", "bert"];

/// The five Table 1 models as texts, each with the pass-manager route's
/// output as its reference. The models themselves do not depend on the
/// seed: they stand in for five fixed real networks.
pub fn table1_models() -> Vec<ModelJob> {
    paper_models()
        .iter()
        .zip(MODEL_NAMES)
        .map(|(spec, name)| {
            let payload = model_text(spec);
            let expected = reference::run_pass_manager(&payload);
            ModelJob {
                name,
                payload,
                expected,
            }
        })
        .collect()
}

/// Generates the `k`-job serving corpus for `seed`. Position in the
/// returned vector is the job's Zipf popularity rank.
///
/// # Panics
/// Panics if the generated jobs are not pairwise distinct, or if a
/// hand-written family's reference run fails (both are harness bugs).
pub fn corpus(seed: u64, k: usize) -> Vec<JobSpec> {
    let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(seed, 0xc0_4915));
    let pipeline = tosa_pipeline_script();
    let mut generated = GeneratedPairs::new(seed);
    let mut per_family = [0usize; 5];
    let mut jobs = Vec::with_capacity(k);
    for index in 0..k {
        let family = family_at(index);
        let nth = per_family[family as usize];
        per_family[family as usize] += 1;
        let (script, payload, entry) = match family {
            Family::Loop1d => {
                // The unique number keeps same-extent jobs distinct.
                let name = rng.below(1 << 20) * 4096 + index as u64;
                let extent = 32 * rng.range_i64(1, 65);
                (
                    loop1d_script(LOOP_TILES[nth % 3]),
                    loop1d_payload(name, extent),
                    "main",
                )
            }
            Family::MmFig8 => {
                // x is a bijection of nth on 0..1024 whose mixed-radix
                // digits are (library, tile_i, tile_j, remainder): the
                // first 1024 mm jobs are distinct by construction, whatever
                // the seeded multiples are, and every digit is well spread
                // over any prefix.
                let x = nth * 397 % 1024;
                let with_library = x % 2 == 1;
                let tile_i = MM_TILES[x / 2 % 4];
                let tile_j = MM_TILES[x / 8 % 4];
                let rem = (x / 32) as i64;
                (
                    fig8_script(tile_i, tile_j, with_library),
                    mm_payload(mm_shape(&mut rng, rem)),
                    "main",
                )
            }
            Family::GenOk | Family::GenFail => {
                let job = generated.take(family);
                jobs.push(job);
                continue;
            }
            Family::TosaSmall => {
                // Sizes walk 64..=192 in steps coprime to the range, so the
                // first 129 graphs differ in op count and any prefix covers
                // the range evenly. Width stays fixed: `fingerprint_op`
                // hashes interned type ids, so two graphs that differ only
                // inside a tensor type would share a cache key, and the
                // service would answer one with the other's result.
                let spec = ModelSpec {
                    name: "tosa_small",
                    kind: [
                        ModelKind::TransformerDecoder,
                        ModelKind::Cnn,
                        ModelKind::TransformerEncoder,
                    ][nth % 3],
                    target_ops: 64 + nth * 37 % 129,
                    hidden: 8,
                };
                (
                    pipeline.clone(),
                    model_text(&spec),
                    td_transform::TRANSFORM_MAIN,
                )
            }
        };
        let expected = reference::run(&script, &payload, entry).expected();
        assert!(
            expected.ok,
            "{} job {index} must succeed in the reference run",
            family.name()
        );
        jobs.push(JobSpec {
            family,
            script,
            payload,
            entry: entry.to_owned(),
            expected,
        });
    }
    let mut keys: Vec<u64> = jobs
        .iter()
        .map(|j| reference::digest(&[&j.script, &j.payload, &j.entry]))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), k, "corpus jobs must be pairwise distinct");
    jobs
}

/// Rejection sampler over td-modelgen pairs: builds pairs from derived
/// seeds, runs the reference on each, and hands them out by outcome class.
struct GeneratedPairs {
    seed: u64,
    next: u64,
    ok: Vec<JobSpec>,
    fail: Vec<JobSpec>,
}

impl GeneratedPairs {
    fn new(seed: u64) -> Self {
        GeneratedPairs {
            seed,
            next: 0,
            ok: Vec::new(),
            fail: Vec::new(),
        }
    }

    fn take(&mut self, family: Family) -> JobSpec {
        loop {
            let pool = if family == Family::GenOk {
                &mut self.ok
            } else {
                &mut self.fail
            };
            if let Some(job) = pool.pop() {
                return job;
            }
            let i = self.next;
            self.next += 1;
            let pair = td_fuzz::PairSpec {
                seed: derive_seed(self.seed, 0x6e_0000 + i),
                // Sizes walk 8..=40 and steps 3..=10 on fixed grids.
                payload_size: 8 + (i * 5 % 33) as u32,
                schedule_steps: 3 + (i % 8) as u32,
            }
            .build();
            let outcome = reference::run(&pair.schedule, &pair.payload, &pair.entry);
            let family = match outcome {
                reference::Outcome::Ok { .. } => Family::GenOk,
                reference::Outcome::Transform { .. } => Family::GenFail,
                // A pair that never reaches the interpreter is a generator
                // bug, not a workload; skip it.
                reference::Outcome::Setup(_) => continue,
            };
            let job = JobSpec {
                family,
                expected: outcome.expected(),
                script: pair.schedule,
                payload: pair.payload,
                entry: pair.entry,
            };
            match family {
                Family::GenOk => self.ok.push(job),
                _ => self.fail.push(job),
            }
        }
    }
}

/// One shape of the autotuning sweep: the shared payload and the grid of
/// candidate schedules evaluated on it.
#[derive(Clone, Debug)]
pub struct SweepShape {
    /// The nest's shape.
    pub shape: MmShape,
    /// Payload text shared by every candidate of this shape.
    pub payload: String,
    /// Indices (into the enumerated grid) re-proposed after the sweep.
    pub revisit: Vec<usize>,
}

/// Tile sizes of the sweep grid: `TILE_I × TILE_J × LIBRARY`, 32 points.
pub const SWEEP_TILES: [i64; 4] = MM_TILES;

/// The seeded family of sweep shapes: `count` shapes whose remainders walk
/// the fixed grid 0..32, each with a seeded quarter of its grid marked for
/// revisiting.
pub fn sweep_shapes(seed: u64, count: usize, grid: usize) -> Vec<SweepShape> {
    let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(seed, 0x5_3ee9));
    (0..count)
        .map(|s| {
            let mut shape = mm_shape(&mut rng, (s * 5 % 32) as i64);
            // Distinct shapes give distinct payload fingerprints, so no
            // candidate of one shape can hit another shape's cache entry.
            shape.n += 64 * s as i64;
            let mut order: Vec<usize> = (0..grid).collect();
            for i in (1..grid).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            order.truncate(grid / 4);
            SweepShape {
                shape,
                payload: mm_payload(shape),
                revisit: order,
            }
        })
        .collect()
}

/// Zipf(`s`) sampler over ranks `0..n` by inverse CDF.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precomputes the cumulative distribution `P(rank ≤ i) ∝ Σ 1/(j+1)^s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The `serve_warm` request order for a `k`-job corpus: every job once
/// (so the round's working set is `k`, larger than the daemon's 1024-entry
/// memory level, and the unpopular tail reliably reads from disk) plus
/// `draws` Zipf(1.1) picks, shuffled together.
pub fn warm_requests(seed: u64, k: usize, draws: usize) -> Vec<usize> {
    let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(seed, 0x21_bf));
    let zipf = Zipf::new(k, 1.1);
    let mut order: Vec<usize> = (0..k).collect();
    order.extend((0..draws).map(|_| zipf.sample(&mut rng)));
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_shares_are_fixed() {
        let k = 2040;
        let mut counts = [0usize; 5];
        for index in 0..k {
            counts[family_at(index) as usize] += 1;
        }
        // 40 head ranks (27 loop1d, 13 mm) + 100 patterns of 20.
        assert_eq!(counts, [827, 413, 500, 200, 100]);
        assert!((0..HEAD_RANKS).all(|i| matches!(family_at(i), Family::Loop1d | Family::MmFig8)));
    }

    #[test]
    fn corpus_is_a_pure_function_of_the_seed() {
        let a = corpus(7, 120);
        let b = corpus(7, 120);
        let c = corpus(8, 120);
        let texts = |jobs: &[JobSpec]| -> Vec<String> {
            jobs.iter()
                .map(|j| format!("{}\n{}\n{}", j.script, j.payload, j.entry))
                .collect()
        };
        assert_eq!(texts(&a), texts(&b));
        assert_ne!(texts(&a), texts(&c));
        for (index, job) in a.iter().enumerate() {
            assert_eq!(job.family, family_at(index));
            assert_eq!(job.expected.ok, job.family != Family::GenFail);
        }
    }

    #[test]
    fn zipf_mass_follows_the_power_law() {
        let zipf = Zipf::new(1000, 1.1);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut counts = vec![0u32; 1000];
        let draws = 200_000;
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // p(1)/p(2) = 2^1.1 and p(1)/p(10) = 10^1.1, within sampling noise.
        let ratio = |a: usize, b: usize| f64::from(counts[a]) / f64::from(counts[b]);
        assert!(
            (ratio(0, 1) - 2f64.powf(1.1)).abs() < 0.1,
            "{}",
            ratio(0, 1)
        );
        assert!(
            (ratio(0, 9) - 10f64.powf(1.1)).abs() < 1.0,
            "{}",
            ratio(0, 9)
        );
        assert!(counts.iter().sum::<u32>() == draws);
    }

    #[test]
    fn warm_requests_cover_the_corpus_and_repeat_per_seed() {
        let order = warm_requests(3, 500, 700);
        assert_eq!(order.len(), 1200);
        let mut seen = vec![false; 500];
        for &i in &order {
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(order, warm_requests(3, 500, 700));
        assert_ne!(order, warm_requests(4, 500, 700));
    }

    #[test]
    fn sweep_shapes_are_distinct_and_revisit_a_quarter() {
        let shapes = sweep_shapes(5, 12, 32);
        for (i, a) in shapes.iter().enumerate() {
            assert_eq!(a.revisit.len(), 8);
            assert_eq!(a.shape.m % 32, (i * 5 % 32) as i64);
            for b in &shapes[..i] {
                assert_ne!(a.payload, b.payload);
            }
        }
    }
}
