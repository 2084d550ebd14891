//! Ablation studies over the design choices DESIGN.md calls out:
//!
//! 1. **Cache set indexing** (hashed vs. plain modulo): the Case Study 4
//!    matrices have power-of-two leading dimensions, so plain-modulo
//!    indexing aliases pathologically and masks the capacity effects tiling
//!    exploits.
//! 2. **Interpreter expensive checks** (per-transform liveness validation
//!    of every handle): their compile-time cost on the largest Table 1
//!    model.
//! 3. **Greedy-driver folding** (running registered folders alongside
//!    patterns): applications performed and outcome with folding disabled.
//!
//! ```text
//! cargo run -p td-bench --release --bin ablation
//! ```

use td_bench::cs4::{apply_variant, build_payload, cs4_exec_config, Cs4Config, Variant};
use td_bench::full_context;
use td_bench::table1::compile_with_transform;
use td_machine::{run_function_with_buffers, ArgBuilder};
use td_transform::TxnMode;

fn cs4_cycles(variant: Variant, hashed: bool) -> f64 {
    let config = Cs4Config::default();
    let mut ctx = full_context();
    let module = build_payload(&mut ctx, config);
    apply_variant(&mut ctx, module, variant);
    let mut exec = cs4_exec_config();
    exec.cache.hashed_indexing = hashed;
    let mut args = ArgBuilder::new();
    let a = args.buffer(vec![0.5; (config.m * config.k) as usize]);
    let b = args.buffer(vec![0.25; (config.k * config.n) as usize]);
    let c = args.buffer(vec![0.0; (config.m * config.n) as usize]);
    let buffers = args.into_buffers();
    let (_, _, report) =
        run_function_with_buffers(&ctx, module, "mm", vec![a, b, c], buffers, exec, None).unwrap();
    report.cycles
}

fn main() {
    // ----- 1. cache indexing ------------------------------------------------
    println!("Ablation 1: cache set indexing (Case Study 4 nest, cycles)\n");
    let mut rows = Vec::new();
    for hashed in [true, false] {
        let baseline = cs4_cycles(Variant::Baseline, hashed);
        let tiled = cs4_cycles(Variant::OpenMpTile, hashed);
        rows.push(vec![
            if hashed {
                "hashed (default)"
            } else {
                "plain modulo"
            }
            .to_owned(),
            format!("{baseline:.0}"),
            format!("{tiled:.0}"),
            format!("{:.2}x", baseline / tiled),
        ]);
    }
    print!(
        "{}",
        td_bench::render_table(
            &[
                "Set indexing",
                "Baseline cycles",
                "Tiled(32,32) cycles",
                "Tiling speedup"
            ],
            &rows
        )
    );
    println!(
        "\nWith plain modulo, the power-of-two strides alias into a handful of sets,\n\
         conflict misses dominate, and tiling shows (almost) no benefit — the\n\
         hashed-indexing choice is what lets capacity effects through.\n"
    );

    // ----- 2. interpreter expensive checks ----------------------------------
    println!("Ablation 2: interpreter expensive checks (Mobile BERT, Table 1 pipeline)\n");
    let spec = td_modelgen::paper_models()
        .into_iter()
        .find(|s| s.target_ops == 4134)
        .unwrap();
    // Side 0 checks off, side 1 on, under the default `TxnMode::Always`:
    // 5 rounds of one compile each.
    let run = td_bench::gate::paired(2, 5, 1, |expensive, _| {
        compile_with_transform(&spec, TxnMode::Always, expensive == 1)
    });
    let median = &run.rounds[run.ratio(1, 0).median_round];
    let ms = |side: usize| format!("{:.1}", median[side].as_secs_f64() * 1e3);
    let rows = vec![vec!["off".to_owned(), ms(0)], vec!["on".to_owned(), ms(1)]];
    print!(
        "{}",
        td_bench::render_table(
            &["Expensive checks", "Compile (ms, median round of 5)"],
            &rows
        )
    );
    println!(
        "\nPer-transform handle-liveness validation is cheap for pipeline-shaped\n\
         scripts (one chained handle); it is kept on by default everywhere except\n\
         the Table 1 overhead measurement, which mirrors MLIR's default.\n"
    );

    // ----- 3. greedy-driver folding -----------------------------------------
    println!("Ablation 3: greedy driver with and without registered folders\n");
    use td_ir::rewrite::{apply_patterns_greedily, GreedyConfig, PatternSet};
    let src = r#"module {
  func.func @f() -> i64 {
    %a = arith.constant 3 : i64
    %b = arith.constant 4 : i64
    %c = "arith.addi"(%a, %b) : (i64, i64) -> i64
    %d = "arith.muli"(%c, %c) : (i64, i64) -> i64
    %z = arith.constant 0 : i64
    %e = "arith.addi"(%d, %z) : (i64, i64) -> i64
    func.return %e : i64
  }
}"#;
    let mut rows = Vec::new();
    for fold in [true, false] {
        let mut ctx = full_context();
        let module = td_ir::parse_module(&mut ctx, src).unwrap();
        let outcome = apply_patterns_greedily(
            &mut ctx,
            module,
            &PatternSet::new(),
            GreedyConfig {
                max_iterations: 10,
                fold,
            },
        )
        .unwrap();
        let remaining = ctx
            .walk_nested(module)
            .iter()
            .filter(|&&o| ctx.op(o).name.as_str().starts_with("arith."))
            .count();
        rows.push(vec![
            if fold { "on (default)" } else { "off" }.to_owned(),
            outcome.applications.to_string(),
            remaining.to_string(),
        ]);
    }
    print!(
        "{}",
        td_bench::render_table(&["Folding", "Applications", "arith ops remaining"], &rows)
    );
    println!(
        "\nWithout folders the driver is a pure pattern engine (0 applications here);\n\
         with them, constant DAGs collapse — the behaviour canonicalize builds on."
    );
}
