//! Golden-file tests: run the transform schedules from `examples/` and
//! check the printed IR against `.expected` files with the FileCheck-lite
//! DSL (`td_support::filecheck` — ordered `CHECK:` substrings plus
//! `CHECK-NOT:` exclusions scoped to the gap before the next match).
//!
//! The `.expected` files live in `tests/golden/` and deliberately check op
//! names, attributes, and structure — never SSA value numbers — so the
//! printer is free to renumber.

use td_support::filecheck;
use td_transform::{InterpEnv, Interpreter};

fn assert_checks(name: &str, output: &str, spec: &str) {
    if let Err(report) = filecheck::check(output, spec) {
        panic!("golden check '{name}' failed: {report}\n=== full output ===\n{output}");
    }
}

/// The quickstart schedule (tile by 64, unroll by 4) against its golden
/// file. Payload and script are the ones from `examples/quickstart.rs`.
#[test]
fn quickstart_tile_unroll_matches_golden() {
    let payload_src = r#"module {
  func.func @saxpy(%x: memref<1024xf32>, %y: memref<1024xf32>) {
    %lo = arith.constant 0 : index
    %hi = arith.constant 1024 : index
    %st = arith.constant 1 : index
    %a = arith.constant 2.0 : f32
    scf.for %i = %lo to %hi step %st {
      %xv = "memref.load"(%x, %i) : (memref<1024xf32>, index) -> f32
      %yv = "memref.load"(%y, %i) : (memref<1024xf32>, index) -> f32
      %ax = "arith.mulf"(%a, %xv) : (f32, f32) -> f32
      %s = "arith.addf"(%ax, %yv) : (f32, f32) -> f32
      "memref.store"(%s, %y, %i) : (f32, memref<1024xf32>, index) -> ()
    }
    func.return
  }
}"#;
    let script_src = r#"module {
  transform.named_sequence @optimize(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %tiles, %points = "transform.loop.tile"(%loop) {tile_sizes = [64]} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
    %unrolled = "transform.loop.unroll"(%points) {factor = 4} : (!transform.any_op) -> !transform.any_op
  }
}"#;
    let mut ctx = td_ir::Context::new();
    td_dialects::register_all_dialects(&mut ctx);
    td_transform::register_transform_dialect(&mut ctx);
    let payload = td_ir::parse_module(&mut ctx, payload_src).unwrap();
    let script = td_ir::parse_module(&mut ctx, script_src).unwrap();
    let entry = ctx.lookup_symbol(script, "optimize").unwrap();
    let env = InterpEnv::standard();
    Interpreter::new(&env)
        .apply(&mut ctx, entry, payload)
        .unwrap();
    td_ir::verify::verify(&ctx, payload).unwrap();
    assert_checks(
        "quickstart_tile_unroll",
        &td_ir::print_op(&ctx, payload),
        include_str!("golden/quickstart_tile_unroll.expected"),
    );
}

/// The quickstart schedule again, this time with every observability
/// channel on — the programmatic equivalents of `TD_PRINT_IR_AFTER=all`,
/// `TD_REMARKS=applied`, and `TD_TRACE` — and the combined transcript
/// (IR snapshots, then remarks, then the trace tree) checked against a
/// golden file: snapshot headers per transform op, the known applied
/// remarks, and the handle-invalidation events from consumed handles.
#[test]
fn quickstart_observability_matches_golden() {
    use std::fmt::Write as _;
    use std::sync::{Arc, Mutex};
    use td_support::trace::{self, PrintFilter, PrintIr};
    use td_support::{diag, RemarkFilter};

    let payload_src = r#"module {
  func.func @saxpy(%x: memref<1024xf32>, %y: memref<1024xf32>) {
    %lo = arith.constant 0 : index
    %hi = arith.constant 1024 : index
    %st = arith.constant 1 : index
    %a = arith.constant 2.0 : f32
    scf.for %i = %lo to %hi step %st {
      %xv = "memref.load"(%x, %i) : (memref<1024xf32>, index) -> f32
      %yv = "memref.load"(%y, %i) : (memref<1024xf32>, index) -> f32
      %ax = "arith.mulf"(%a, %xv) : (f32, f32) -> f32
      %s = "arith.addf"(%ax, %yv) : (f32, f32) -> f32
      "memref.store"(%s, %y, %i) : (f32, memref<1024xf32>, index) -> ()
    }
    func.return
  }
}"#;
    let script_src = r#"module {
  transform.named_sequence @optimize(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %tiles, %points = "transform.loop.tile"(%loop) {tile_sizes = [64]} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
    %unrolled = "transform.loop.unroll"(%points) {factor = 4} : (!transform.any_op) -> !transform.any_op
  }
}"#;
    trace::reset();
    trace::set_enabled(true);
    diag::reset_remarks();
    diag::set_remark_filter(RemarkFilter::parse("applied"));
    let snapshots = Arc::new(Mutex::new(String::new()));

    let mut ctx = td_ir::Context::new();
    td_dialects::register_all_dialects(&mut ctx);
    td_transform::register_transform_dialect(&mut ctx);
    let payload = td_ir::parse_module(&mut ctx, payload_src).unwrap();
    let script = td_ir::parse_module(&mut ctx, script_src).unwrap();
    let entry = ctx.lookup_symbol(script, "optimize").unwrap();
    let env = InterpEnv::standard();
    let mut interp = Interpreter::new(&env);
    interp.add_instrumentation(Box::new(PrintIr::with_buffer(
        PrintFilter::default(),
        PrintFilter::parse("all"),
        Arc::clone(&snapshots),
    )));
    interp.apply(&mut ctx, entry, payload).unwrap();

    let mut transcript = snapshots.lock().unwrap().clone();
    for remark in diag::take_remarks() {
        let _ = writeln!(transcript, "{remark}");
    }
    transcript.push_str(&trace::take().to_tree_string());
    trace::clear_enabled_override();
    diag::clear_remark_filter_override();

    assert_checks(
        "quickstart_observability",
        &transcript,
        include_str!("golden/quickstart_observability.expected"),
    );
}

/// The two failure channels that must keep their remark shape while the
/// provenance journal observes them: a suppressed silenceable error (one
/// missed remark from the suppressing sequence) and a failed dynamic
/// condition check (one analysis remark naming the undeclared op).
#[test]
fn failure_remarks_match_golden() {
    use std::fmt::Write as _;
    use td_support::{diag, Location, RemarkFilter};
    use td_transform::TransformOpDef;

    let payload_src = r#"module {
  func.func @f(%m: memref<256xf32>) {
    %lo = arith.constant 0 : index
    %hi = arith.constant 256 : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {
      %v = "memref.load"(%m, %i) : (memref<256xf32>, index) -> f32
      "test.use"(%v) : (f32) -> ()
    }
    func.return
  }
}"#;
    diag::reset_remarks();
    diag::set_remark_filter(RemarkFilter::parse("missed,analysis"));

    // Channel 1: a silenceable error swallowed by a suppressing sequence.
    {
        let script_src = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    "transform.sequence"(%root) ({
    ^bb0(%arg: !transform.any_op):
      %missing = "transform.match_op"(%arg) {name = "nonexistent.op", select = "first"} : (!transform.any_op) -> !transform.any_op
      "transform.yield"() : () -> ()
    }) {failure_propagation_mode = "suppress"} : (!transform.any_op) -> ()
  }
}"#;
        let mut ctx = td_bench::full_context();
        let payload = td_ir::parse_module(&mut ctx, payload_src).unwrap();
        let script = td_ir::parse_module(&mut ctx, script_src).unwrap();
        let entry = ctx.lookup_symbol(script, "main").unwrap();
        let env = InterpEnv::standard();
        Interpreter::new(&env)
            .apply(&mut ctx, entry, payload)
            .unwrap();
    }

    // Channel 2: a transform whose declaration lies (introduces
    // test.surprise, declares arith.constant) under dynamic checking.
    {
        let script_src = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    "transform.misdeclared"(%loop) : (!transform.any_op) -> ()
  }
}"#;
        let mut ctx = td_bench::full_context();
        ctx.registry.register(td_ir::OpSpec::new(
            "transform.misdeclared",
            "buggy extension",
        ));
        let payload = td_ir::parse_module(&mut ctx, payload_src).unwrap();
        let script = td_ir::parse_module(&mut ctx, script_src).unwrap();
        let entry = ctx.lookup_symbol(script, "main").unwrap();
        let mut env = InterpEnv::standard();
        env.config.check_conditions = true;
        env.transforms.register(
            TransformOpDef::new(
                "transform.misdeclared",
                "declares wrong post",
                |_, ctx, state, op| {
                    let handle = ctx.op(op).operands()[0];
                    let location = ctx.op(op).location.clone();
                    let targets = state.ops(handle, &location)?;
                    let mut b = td_ir::OpBuilder::before(ctx, targets[0]);
                    b.set_location(Location::name("surprise"));
                    b.op("test.surprise").build();
                    Ok(())
                },
            )
            .with_conditions([], ["arith.constant"]),
        );
        Interpreter::new(&env)
            .apply(&mut ctx, entry, payload)
            .unwrap_err();
    }

    let mut transcript = String::new();
    for remark in diag::take_remarks() {
        let _ = writeln!(transcript, "{remark}");
    }
    diag::clear_remark_filter_override();

    assert_checks(
        "failure_remarks",
        &transcript,
        include_str!("golden/failure_remarks.expected"),
    );
}

/// Script-on-script optimization against its golden file: the include is
/// inlined, the parameter propagated, and the no-op unroll removed. The
/// script is the one from `examples/transform_script_optimization.rs`.
#[test]
fn script_optimization_matches_golden() {
    use td_transform::script_opt::{inline_includes, propagate_params, simplify};
    let script_src = r#"module {
  transform.named_sequence @tile_by(%loop: !transform.any_op, %size: !transform.param) {
    %t0, %t1 = "transform.loop.tile"(%loop, %size) : (!transform.any_op, !transform.param) -> (!transform.any_op, !transform.any_op)
  }
  transform.named_sequence @main(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %noop = "transform.loop.unroll"(%loop) {factor = 1} : (!transform.any_op) -> !transform.any_op
    %size = "transform.param.constant"() {value = 32} : () -> !transform.param
    "transform.include"(%noop, %size) {target = @tile_by} : (!transform.any_op, !transform.param) -> ()
  }
}"#;
    let mut ctx = td_bench::full_context();
    let script = td_ir::parse_module(&mut ctx, script_src).unwrap();
    assert_eq!(
        inline_includes(&mut ctx, script).unwrap(),
        1,
        "one include inlined"
    );
    assert_eq!(
        propagate_params(&mut ctx, script),
        1,
        "one parameter propagated"
    );
    assert_eq!(simplify(&mut ctx, script), 1, "one no-op removed");
    assert_checks(
        "script_optimization",
        &td_ir::print_op(&ctx, script),
        include_str!("golden/script_optimization.expected"),
    );
}

/// The committed fuzz regression corpus (`tests/golden/fuzz/`) replays
/// clean through the full differential oracle: every repro pair must
/// produce identical results across direct Auto/Always interpretation,
/// 1-vs-4 engine workers, journaling, and cold/warm cache runs.
#[test]
fn fuzz_corpus_replays_clean() {
    let _guard = td_support::fault::test_guard();
    let dir = td_fuzz::corpus::default_corpus_dir();
    let replayed = td_fuzz::corpus::replay(&dir).unwrap_or_else(|err| panic!("{err}"));
    assert!(
        replayed >= 5,
        "expected at least 5 committed fuzz repros in {}, found {replayed}",
        dir.display()
    );
}

/// A flight-recorder bundle after an injected panic (the `TD_FAULT`
/// grammar's `panic@step=1` plan, set programmatically so parallel tests
/// never race on the environment): the ring replays the failing step's
/// attribution and the bundle passes the std-only JSON validator with
/// corpus-stable field ordering.
#[test]
fn flight_recorder_bundle_matches_golden() {
    let payload_src = r#"module {
  func.func @work(%m: memref<64xf32>) {
    %lo = arith.constant 0 : index
    %hi = arith.constant 64 : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {
      %v = "memref.load"(%m, %i) : (memref<64xf32>, index) -> f32
      "test.use"(%v) : (f32) -> ()
    }
    func.return
  }
}"#;
    let script_src = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %tiles, %points = "transform.loop.tile"(%loop) {tile_sizes = [16]} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
  }
}"#;
    let mut ctx = td_ir::Context::new();
    td_dialects::register_all_dialects(&mut ctx);
    td_transform::register_transform_dialect(&mut ctx);
    let payload = td_ir::parse_module(&mut ctx, payload_src).unwrap();
    let script = td_ir::parse_module(&mut ctx, script_src).unwrap();
    let entry = ctx.lookup_symbol(script, "main").unwrap();

    td_support::flight::reset();
    td_support::fault::set_thread_plan(Some(
        td_support::fault::FaultPlan::parse("panic@step=1").unwrap(),
    ));
    td_support::fault::set_lane(0);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let err = Interpreter::new(&InterpEnv::standard())
        .apply(&mut ctx, entry, payload)
        .expect_err("injected panic must surface");
    std::panic::set_hook(hook);
    td_support::fault::set_thread_plan(None);
    assert!(!err.is_silenceable(), "contained panic is definite");

    let bundle =
        td_support::flight::bundle_json("definite-failure", &[("source", "golden".to_owned())]);
    td_support::trace::validate_json(&bundle).expect("flight bundle well-formed");
    assert_checks(
        "flight_recorder_bundle",
        &bundle,
        include_str!("golden/flight_recorder_bundle.expected"),
    );
}
