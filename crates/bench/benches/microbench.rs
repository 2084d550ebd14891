//! Micro-benchmarks for the infrastructure itself, on the in-tree std-only
//! harness (`td_bench::harness`): transform interpreter dispatch overhead,
//! parsing and printing a Table 1 model, greedy pattern application, the
//! cache simulator, the Table 1 compile-time comparison on the smallest
//! model, a 32-candidate sweep on one shared payload against the same
//! candidates on distinct payloads, block-size scaling of op-list edits and
//! verification, and the undo log's per-entry cost.
//!
//! ```text
//! cargo bench --bench microbench              # full run
//! TD_BENCH_QUICK=1 cargo bench ...            # CI smoke run
//! TD_BENCH_JSON=BENCH_micro.json cargo bench  # also write JSON lines
//! ```

use td_bench::{full_context, full_pass_registry, BenchSuite};
use td_machine::{CacheConfig, CacheSim};
use td_modelgen::{build_model, paper_models};
use td_transform::{pipeline_to_script, transform_main, InterpEnv, Interpreter};

fn bench_parser(suite: &mut BenchSuite) {
    let src = r#"module {
  func.func @f(%m: memref<196x256xf32>) {
    %lo = arith.constant 0 : index
    %hi = arith.constant 196 : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {
      scf.for %j = %lo to %hi step %st {
        %v = "memref.load"(%m, %i, %j) : (memref<196x256xf32>, index, index) -> f32
        "test.use"(%v) : (f32) -> ()
      }
    }
    func.return
  }
}"#;
    suite.run("parse_loop_nest", || {
        let mut ctx = full_context();
        std::hint::black_box(td_ir::parse_module(&mut ctx, src).unwrap());
    });
}

/// Parse and print at the sizes a `models_direct` job sees: Mobile BERT's
/// model text in (the parse row includes building and dropping the context
/// it parses into), its lowered module out.
fn bench_model_text(suite: &mut BenchSuite) {
    let spec = paper_models()
        .into_iter()
        .find(|m| m.name == "Mobile BERT")
        .expect("Mobile BERT is a Table 1 model");
    let mut ctx = full_context();
    let module = build_model(&mut ctx, &spec);
    let text = td_ir::print_op(&ctx, module);
    suite.run("ir.parse.mobilebert", || {
        let mut ctx = full_context();
        std::hint::black_box(td_ir::parse_module(&mut ctx, &text).unwrap());
    });
    full_pass_registry()
        .parse_pipeline(td_dialects::passes::TOSA_PIPELINE)
        .unwrap()
        .run(&mut ctx, module)
        .unwrap();
    suite.run("ir.print.lowered_mobilebert", || {
        td_ir::print_op(&ctx, module)
    });
}

fn bench_interpreter_dispatch(suite: &mut BenchSuite) {
    // Overhead of executing one trivial transform op, amortized over a
    // script of 100 annotates.
    let mut script =
        String::from("module {\n  transform.named_sequence @main(%root: !transform.any_op) {\n");
    for _ in 0..100 {
        script.push_str(
            "    \"transform.annotate\"(%root) {name = \"x\"} : (!transform.any_op) -> ()\n",
        );
    }
    script.push_str("  }\n}");
    suite.run("transform_dispatch_100_ops", || {
        let mut ctx = full_context();
        let payload = ctx.create_module(td_support::Location::unknown());
        let script_module = td_ir::parse_module(&mut ctx, &script).unwrap();
        let entry = ctx.lookup_symbol(script_module, "main").unwrap();
        let env = InterpEnv::standard();
        Interpreter::new(&env)
            .apply(&mut ctx, entry, payload)
            .unwrap();
    });
}

fn bench_cache_sim(suite: &mut BenchSuite) {
    suite.run("cache_sim_100k_accesses", || {
        let mut sim = CacheSim::new(CacheConfig::default());
        let mut total = 0.0;
        for i in 0..100_000u64 {
            total += sim.access((i * 37) % 262_144);
        }
        std::hint::black_box(total)
    });
}

fn bench_table1_smallest(suite: &mut BenchSuite) {
    let spec = paper_models().into_iter().next().unwrap(); // Squeezenet
    let registry = full_pass_registry();
    suite.run("table1_squeezenet_pass_manager", || {
        let mut ctx = full_context();
        let module = build_model(&mut ctx, &spec);
        let mut pm = registry
            .parse_pipeline(td_dialects::passes::TOSA_PIPELINE)
            .unwrap();
        pm.run(&mut ctx, module).unwrap();
    });
    suite.run("table1_squeezenet_transform", || {
        let mut ctx = full_context();
        let module = build_model(&mut ctx, &spec);
        let script = pipeline_to_script(&mut ctx, td_dialects::passes::TOSA_PIPELINE).unwrap();
        let entry = transform_main(&ctx, script).unwrap();
        let mut env = InterpEnv::standard();
        env.passes = Some(&registry);
        env.config.expensive_checks = false;
        Interpreter::new(&env)
            .apply(&mut ctx, entry, module)
            .unwrap();
    });
}

fn bench_greedy_patterns(suite: &mut BenchSuite) {
    suite.run("greedy_pattern_sweep_cs3_payload", || {
        let names = td_machine::pattern_names();
        std::hint::black_box(td_bench::cs3::cost_with_patterns(1, &names))
    });
}

fn bench_sched_engine(suite: &mut BenchSuite) {
    use td_sched::{Engine, EngineConfig, Job};
    let script = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %c = "transform.match_op"(%root) {name = "arith.constant", select = "all"}
        : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%c) {name = "seen"} : (!transform.any_op) -> ()
  }
}"#;
    let batch = |n: usize| -> Vec<Job> {
        (0..n)
            .map(|i| {
                Job::new(
                    script,
                    format!("module {{\n  %c = arith.constant {i} : index\n}}"),
                )
            })
            .collect()
    };
    for workers in [1usize, 4] {
        let engine = Engine::new(
            EngineConfig::standard()
                .with_workers(workers)
                .without_cache(),
        );
        suite.run(&format!("sched.batch16.workers{workers}"), || {
            let report = engine.run_batch(batch(16));
            assert_eq!(report.ok_count(), 16);
            std::hint::black_box(report)
        });
    }
    let cached = Engine::new(EngineConfig::standard().with_workers(1));
    cached.run_batch(batch(16));
    suite.run("sched.batch16.warm_cache", || {
        let report = cached.run_batch(batch(16));
        assert_eq!(report.cache.hits, 16);
        std::hint::black_box(report)
    });
    // The engine's fixed cost per batch, as td-serve pays it on every
    // miss: a single-job batch whose payload does not parse is a context
    // build and a failed parse and nothing else, so what it costs beyond
    // the same work done inline is the hand-off. 1000 per sample: one is
    // tens of microseconds.
    const BROKEN: &str = "module { not valid ir";
    let engine = Engine::new(EngineConfig::standard().with_workers(1).without_cache());
    suite.run("sched.batch1.parse_fail_x1000", || {
        for _ in 0..1000 {
            let report = engine.run_batch(vec![Job::new(script, BROKEN)]);
            assert_eq!(report.err_count(), 1);
            std::hint::black_box(report);
        }
    });
    suite.run("sched.batch1.parse_fail_inline_x1000", || {
        for _ in 0..1000 {
            let mut ctx = full_context();
            let parsed = td_ir::parse_module(&mut ctx, std::hint::black_box(BROKEN));
            assert!(std::hint::black_box(parsed).is_err());
        }
    });
}

/// One candidate of a Fig. 8-style sweep over the CS4 nest: split the
/// outer loop by `tile_i`, tile the divisible part by `[tile_i, tile_j]`,
/// and, with `annotate`, mark the tiled points.
fn sweep_candidate(tile_i: i64, tile_j: i64, annotate: bool) -> String {
    let mark = if annotate {
        "\n    \"transform.annotate\"(%points) {name = \"candidate\"} : (!transform.any_op) -> ()"
    } else {
        ""
    };
    format!(
        r#"module {{
  transform.named_sequence @main(%root: !transform.any_op) {{
    %func = "transform.match_op"(%root) {{name = "func.func", select = "first"}} : (!transform.any_op) -> !transform.any_op
    %i = "transform.match_op"(%func) {{name = "scf.for", select = "first"}} : (!transform.any_op) -> !transform.any_op
    %main, %rest = "transform.loop.split"(%i) {{div_by = {tile_i}}} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
    %tiles, %points = "transform.loop.tile"(%main) {{tile_sizes = [{tile_i}, {tile_j}]}} : (!transform.any_op) -> (!transform.any_op, !transform.any_op){mark}
  }}
}}"#
    )
}

/// A sweep as `sweep_engine` runs one: 32 candidate schedules for the CS4
/// nest in one single-worker batch. The `shared` row submits one payload
/// text 32 times, so the worker parses it once and runs every candidate on
/// it inside an undo-log watermark; the `unshared` row gives each
/// candidate its own byte-distinct copy (trailing newlines), so each
/// parses into a fresh context. The gap is what sweep-by-rollback saves.
fn bench_sched_sweep(suite: &mut BenchSuite) {
    use td_sched::{Engine, EngineConfig, Job};
    let payload = {
        let mut ctx = full_context();
        let module = td_bench::cs4::build_payload(&mut ctx, td_bench::cs4::Cs4Config::default());
        td_ir::print_op(&ctx, module)
    };
    let tiles = [2i64, 4, 8, 16];
    let candidates: Vec<String> = tiles
        .iter()
        .flat_map(|&i| tiles.iter().map(move |&j| (i, j)))
        .flat_map(|(i, j)| [false, true].map(|annotate| sweep_candidate(i, j, annotate)))
        .collect();
    let engine = Engine::new(EngineConfig::standard().with_workers(1).without_cache());
    for (row, distinct) in [
        ("sched.sweep32.shared", false),
        ("sched.sweep32.unshared", true),
    ] {
        let jobs: Vec<Job> = candidates
            .iter()
            .enumerate()
            .map(|(copy, script)| {
                let newlines = if distinct { copy } else { 0 };
                Job::new(
                    script.as_str(),
                    format!("{payload}{}", "\n".repeat(newlines)),
                )
            })
            .collect();
        suite.run(row, || {
            let report = engine.run_batch(jobs.clone());
            assert_eq!(report.ok_count(), 32, "{:?}", report.results[0]);
            std::hint::black_box(report)
        });
    }
}

/// Every block-scaling row does the same `BLOCK_TOTAL` ops of work split
/// into blocks of the size it names, so flat rows mean a constant per-op
/// cost and a row that grows with its block size means something rescans
/// the block. The 16-op row is the small-block case the engine's sweeps
/// edit.
const BLOCK_TOTAL: usize = 16 * 1024;
const BLOCK_SIZES: [(&str, usize); 3] = [("16", 16), ("1k", 1024), ("16k", BLOCK_TOTAL)];

fn bench_block_scaling(suite: &mut BenchSuite) {
    use td_support::Location;
    // The lowering passes' pattern: insert before anchor k, erase it, go on
    // to anchor k + 1.
    for (label, size) in BLOCK_SIZES {
        suite.run(&format!("ir.block.insert_before_{label}"), || {
            let mut ctx = td_ir::Context::new();
            let module = ctx.create_module(Location::unknown());
            let body = ctx.sole_block(module, 0);
            for _ in 0..BLOCK_TOTAL / size {
                let holder =
                    ctx.create_op(Location::unknown(), "test.block", vec![], vec![], vec![], 1);
                ctx.append_op(body, holder);
                let region = ctx.op(holder).regions()[0];
                let block = ctx.append_block(region, &[]);
                let anchors: Vec<td_ir::OpId> = (0..size)
                    .map(|_| {
                        let op =
                            ctx.create_op(Location::unknown(), "test.a", vec![], vec![], vec![], 0);
                        ctx.append_op(block, op);
                        op
                    })
                    .collect();
                for anchor in anchors {
                    td_ir::OpBuilder::before(&mut ctx, anchor)
                        .op("test.b")
                        .build();
                    ctx.erase_op(anchor);
                }
            }
        });
    }
    // Def-before-use ordering on every operand: functions of `size` chained
    // adds, `BLOCK_TOTAL` adds in all.
    for (label, size) in BLOCK_SIZES.into_iter().skip(1) {
        let mut src = String::from("module {\n");
        for f in 0..BLOCK_TOTAL / size {
            src.push_str(&format!("  func.func @f{f}(%a: i64) {{\n"));
            src.push_str("    %v0 = \"arith.addi\"(%a, %a) : (i64, i64) -> i64\n");
            for i in 1..size {
                src.push_str(&format!(
                    "    %v{i} = \"arith.addi\"(%v{}, %a) : (i64, i64) -> i64\n",
                    i - 1
                ));
            }
            src.push_str("    func.return\n  }\n");
        }
        src.push('}');
        let mut ctx = full_context();
        let module = td_ir::parse_module(&mut ctx, &src).unwrap();
        suite.run(&format!("ir.verify.block_{label}"), || {
            td_ir::verify::verify(&ctx, module).unwrap();
        });
    }
}

/// The undo log's cost per entry, without a ledger: a chain of
/// `BLOCK_TOTAL` ops (each reading the previous result) created and
/// appended, then erased from the end, inside one watermark that commits —
/// about six entries per op — against the same work with no watermark open.
fn bench_undo_log(suite: &mut BenchSuite) {
    use td_support::Location;
    for (label, logged) in [
        ("ir.undo.create_erase_16k", true),
        ("ir.undo.create_erase_16k_unlogged", false),
    ] {
        suite.run(label, || {
            let mut ctx = td_ir::Context::new();
            let module = ctx.create_module(Location::unknown());
            let body = ctx.sole_block(module, 0);
            let i64t = ctx.i64_type();
            let watermark = logged.then(|| ctx.begin_watermark(None));
            let mut operands = vec![];
            for _ in 0..BLOCK_TOTAL {
                let op = ctx.create_op(Location::unknown(), "test.a", operands, [i64t], vec![], 0);
                ctx.append_op(body, op);
                operands = vec![ctx.op(op).results()[0]];
            }
            while let Some(op) = ctx.block(body).last_op() {
                ctx.erase_op(op);
            }
            if let Some(watermark) = watermark {
                ctx.commit_watermark(watermark);
            }
        });
    }
}

fn main() {
    let mut suite = BenchSuite::from_env();
    bench_parser(&mut suite);
    bench_model_text(&mut suite);
    bench_interpreter_dispatch(&mut suite);
    bench_cache_sim(&mut suite);
    bench_table1_smallest(&mut suite);
    bench_greedy_patterns(&mut suite);
    bench_sched_engine(&mut suite);
    bench_sched_sweep(&mut suite);
    bench_block_scaling(&mut suite);
    bench_undo_log(&mut suite);
    if let Ok(path) = std::env::var("TD_BENCH_JSON") {
        suite.write_json(&path).expect("write JSON report");
        println!("wrote {path}");
    }
    if let Some(path) = td_support::trace::write_env_trace().expect("write trace") {
        println!("wrote {path}");
    }
}
