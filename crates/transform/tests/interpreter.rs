//! End-to-end interpreter tests: Transform scripts written in the textual
//! format, parsed and applied to payload IR — including the Figure 1
//! scenario (hoist + split + tile + unroll, and the deliberate
//! use-after-consume error).

use td_dialects::scf;
use td_ir::verify::verify;
use td_ir::{parse_module, Context, OpId};
use td_support::fault;
use td_transform::{InterpEnv, Interpreter, TransformError, TransformState, TxnMode};

fn setup(payload_src: &str, script_src: &str) -> (Context, OpId, OpId) {
    let mut ctx = Context::new();
    td_dialects::register_all_dialects(&mut ctx);
    td_transform::register_transform_dialect(&mut ctx);
    let payload = parse_module(&mut ctx, payload_src).expect("payload parses");
    let script_module = parse_module(&mut ctx, script_src).expect("script parses");
    let entry = ctx
        .walk_nested(script_module)
        .into_iter()
        .find(|&op| ctx.op(op).name.as_str() == "transform.named_sequence")
        .expect("script has an entry point");
    (ctx, payload, entry)
}

/// The Figure 1 payload: an outer loop over j, an inner loop over i with a
/// trip count (2042) not divisible by 8, and loop-invariant constants.
const FIG1_PAYLOAD: &str = r#"module {
  func.func @myFunc(%values: memref<4096x4096xf32>) {
    %lo = arith.constant 0 : index
    %n = arith.constant 4096 : index
    %ni = arith.constant 2042 : index
    %st = arith.constant 1 : index
    scf.for %j = %lo to %n step %st {
      scf.for %i = %lo to %ni step %st {
        %c1 = arith.constant 1 : index
        %v = "memref.load"(%values, %c1, %i) : (memref<4096x4096xf32>, index, index) -> f32
        "func.call"(%v) {callee = @use} : (f32) -> ()
      }
    }
    func.return
  }
}"#;

/// The Figure 1a script, without the deliberate error.
const FIG1_SCRIPT: &str = r#"module {
  transform.named_sequence @split_then_tile_and_unroll(%func: !transform.any_op) {
    %outer = "transform.match_op"(%func) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %inner = "transform.match_op"(%outer) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %hoisted = "transform.loop.hoist"(%inner) : (!transform.any_op) -> !transform.any_op
    %param = "transform.param.constant"() {value = 8} : () -> !transform.param
    %part0, %part1 = "transform.loop.split"(%inner, %param) : (!transform.any_op, !transform.param) -> (!transform.any_op, !transform.any_op)
    %tiled0, %tiled1 = "transform.loop.tile"(%part0, %param) : (!transform.any_op, !transform.param) -> (!transform.any_op, !transform.any_op)
    %unrolled = "transform.loop.unroll"(%part1) {full} : (!transform.any_op) -> !transform.any_op
  }
}"#;

#[test]
fn fig1_script_transforms_payload() {
    let (mut ctx, payload, entry) = setup(FIG1_PAYLOAD, FIG1_SCRIPT);
    let env = InterpEnv::standard();
    let mut interp = Interpreter::new(&env);
    interp
        .apply(&mut ctx, entry, payload)
        .expect("script applies");
    assert!(verify(&ctx, payload).is_ok(), "{:?}", verify(&ctx, payload));

    // The inner loop (2042 iterations) was split at 2040, the main part
    // tiled by 8 (tile + point loops), and the 2-iteration remainder fully
    // unrolled. Loops remaining: outer j + tile + point = 3.
    let loops = scf::collect_loops(&ctx, payload);
    assert_eq!(loops.len(), 3, "outer, tile, and point loops remain");
    // The hoisted constant now lives directly in the outer loop's body.
    let text = td_ir::print_op(&ctx, payload);
    assert!(text.contains("memref.load"), "{text}");
    // Remainder unrolled: two loads outside any i-loop... count loads: one
    // in the tiled body + 2 unrolled copies.
    let loads = ctx
        .walk_nested(payload)
        .into_iter()
        .filter(|&op| ctx.op(op).name.as_str() == "memref.load")
        .count();
    assert_eq!(loads, 3);
    assert!(interp.stats.transforms_executed >= 7);
}

#[test]
fn fig1_double_unroll_is_a_definite_error() {
    // Line 11 of Fig. 1a: unrolling the same (consumed) handle again.
    let script = FIG1_SCRIPT.replace(
        "%unrolled = \"transform.loop.unroll\"(%part1) {full} : (!transform.any_op) -> !transform.any_op",
        "%unrolled = \"transform.loop.unroll\"(%part1) {full} : (!transform.any_op) -> !transform.any_op\n    %unrolled2 = \"transform.loop.unroll\"(%part1) {full} : (!transform.any_op) -> !transform.any_op",
    );
    let (mut ctx, payload, entry) = setup(FIG1_PAYLOAD, &script);
    let env = InterpEnv::standard();
    let mut interp = Interpreter::new(&env);
    let err = interp.apply(&mut ctx, entry, payload).unwrap_err();
    assert!(!err.is_silenceable(), "use-after-consume is definite");
    assert!(
        err.diagnostic().message().contains("invalidated handle"),
        "got: {}",
        err.diagnostic()
    );
    assert!(
        err.diagnostic().message().contains("loop.unroll"),
        "the reason names the consumer: {}",
        err.diagnostic()
    );
}

#[test]
fn consuming_nested_handle_invalidates_descendants_only() {
    // Consuming the outer loop invalidates the handle to the inner loop,
    // but consuming the inner loop leaves the outer handle usable.
    let script = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %outer = "transform.match_op"(%root) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %inner = "transform.match_op"(%outer) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %u = "transform.loop.unroll"(%inner) {factor = 2} : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%outer) {name = "still_valid"} : (!transform.any_op) -> ()
  }
}"#;
    // Use a 4-trip inner loop so factor-2 unrolling divides evenly.
    let payload = FIG1_PAYLOAD.replace("2042", "4");
    let (mut ctx, payload, entry) = setup(&payload, script);
    let env = InterpEnv::standard();
    let mut interp = Interpreter::new(&env);
    interp
        .apply(&mut ctx, entry, payload)
        .expect("outer handle stays valid");
}

#[test]
fn alternatives_falls_back_to_empty_region() {
    // First alternative fails (tiling deeper than the nest); the empty
    // second alternative leaves the payload unchanged — Fig. 8's pattern.
    let script = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "last"} : (!transform.any_op) -> !transform.any_op
    "transform.alternatives"(%loop) ({
    ^bb0(%arg: !transform.any_op):
      %t0, %t1 = "transform.loop.tile"(%arg) {tile_sizes = [8, 8, 8]} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
      "transform.yield"() : () -> ()
    }, {
    ^bb1(%arg2: !transform.any_op):
      "transform.yield"() : () -> ()
    }) : (!transform.any_op) -> ()
  }
}"#;
    let (mut ctx, payload, entry) = setup(FIG1_PAYLOAD, script);
    let before = ctx.walk_nested(payload).len();
    let env = InterpEnv::standard();
    let mut interp = Interpreter::new(&env);
    interp
        .apply(&mut ctx, entry, payload)
        .expect("fallback succeeds");
    assert_eq!(ctx.walk_nested(payload).len(), before, "payload unchanged");
    assert!(interp.stats.suppressed_errors >= 1);
    assert!(verify(&ctx, payload).is_ok());
}

#[test]
fn alternatives_commits_first_success() {
    let script = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "last"} : (!transform.any_op) -> !transform.any_op
    "transform.alternatives"(%loop) ({
    ^bb0(%arg: !transform.any_op):
      %t0, %t1 = "transform.loop.tile"(%arg) {tile_sizes = [8]} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
      "transform.yield"() : () -> ()
    }, {
    ^bb1(%arg2: !transform.any_op):
      "transform.yield"() : () -> ()
    }) : (!transform.any_op) -> ()
  }
}"#;
    let payload = FIG1_PAYLOAD.replace("2042", "64");
    let (mut ctx, payload, entry) = setup(&payload, script);
    let env = InterpEnv::standard();
    let mut interp = Interpreter::new(&env);
    interp
        .apply(&mut ctx, entry, payload)
        .expect("first alternative succeeds");
    assert!(verify(&ctx, payload).is_ok(), "{:?}", verify(&ctx, payload));
    // Tiling the inner loop adds one loop level: j, tile, point.
    assert_eq!(scf::collect_loops(&ctx, payload).len(), 3);
}

/// One half (`payload` / `schedule`) of the committed corpus entry
/// `tests/golden/fuzz/alternatives-mutate-then-fail`.
fn mutate_then_fail_entry(half: &str) -> String {
    let path = format!(
        "{}/../../tests/golden/fuzz/alternatives-mutate-then-fail.{half}.mlir",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The corpus entry: the first branch tiles its target and *then* fails,
/// the second is empty. A failed branch must leave the payload as if it
/// never ran.
#[test]
fn alternatives_branch_that_mutates_then_fails_leaves_no_trace() {
    let (mut ctx, payload, entry) = setup(
        &mutate_then_fail_entry("payload"),
        &mutate_then_fail_entry("schedule"),
    );
    let before = td_ir::print_op(&ctx, payload);
    let env = InterpEnv::standard();
    let mut interp = Interpreter::new(&env);
    interp
        .apply(&mut ctx, entry, payload)
        .expect("the empty second alternative succeeds");
    assert_eq!(td_ir::print_op(&ctx, payload), before);
    assert!(interp.stats.suppressed_errors >= 1);
}

/// Branch bodies for [`alternatives_over_inner`]; `$` becomes the branch
/// index so value names stay distinct across regions.
const TILE_THEN_FAIL: &str = r#"%t$, %p$ = "transform.loop.tile"(%arg$) {tile_sizes = [4]} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
      %doomed$ = "transform.match_op"(%p$) {name = "fuzz.absent", select = "first"} : (!transform.any_op) -> !transform.any_op"#;
const UNROLL: &str = r#"%u$ = "transform.loop.unroll"(%arg$) {factor = 2} : (!transform.any_op) -> !transform.any_op"#;
const TILE: &str = r#"%t$, %p$ = "transform.loop.tile"(%arg$) {tile_sizes = [4]} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)"#;

/// A script matching the corpus payload's outer and inner loops as
/// `%outer` / `%inner`, then `transform.alternatives` on `%inner` with
/// one region per body, then `tail`.
fn alternatives_over_inner(bodies: &[&str], tail: &str) -> String {
    let regions: Vec<String> = bodies
        .iter()
        .enumerate()
        .map(|(i, body)| {
            format!(
                "{{\n    ^bb{i}(%arg{i}: !transform.any_op):\n      {}\n      \"transform.yield\"() : () -> ()\n    }}",
                body.replace('$', &i.to_string())
            )
        })
        .collect();
    format!(
        r#"module {{
  transform.named_sequence @main(%root: !transform.any_op) {{
    %outer = "transform.match_op"(%root) {{name = "scf.for", select = "first"}} : (!transform.any_op) -> !transform.any_op
    %inner = "transform.match_op"(%root) {{name = "scf.for", select = "last"}} : (!transform.any_op) -> !transform.any_op
    "transform.alternatives"(%inner) ({}) : (!transform.any_op) -> ()
    {tail}
  }}
}}"#,
        regions.join(", ")
    )
}

/// Applies `script` to the corpus payload under `txn`; returns the
/// result, the payload print afterwards and the interpreter's stats.
fn run_on_corpus_payload(
    script: &str,
    txn: TxnMode,
) -> (
    Result<(), TransformError>,
    String,
    td_transform::InterpStats,
) {
    let (mut ctx, payload, entry) = setup(&mutate_then_fail_entry("payload"), script);
    let mut env = InterpEnv::standard();
    env.config.txn = txn;
    let mut interp = Interpreter::new(&env);
    let result = interp.apply(&mut ctx, entry, payload);
    verify(&ctx, payload).expect("payload verifies");
    (result, td_ir::print_op(&ctx, payload), interp.stats)
}

fn corpus_payload_print() -> String {
    let (ctx, payload, _) = setup(
        &mutate_then_fail_entry("payload"),
        &mutate_then_fail_entry("schedule"),
    );
    td_ir::print_op(&ctx, payload)
}

/// A branch is a transaction scope whatever the top-level mode: after a
/// mutate-then-fail first branch, a mutating second branch leaves exactly
/// what it leaves when it is the only branch.
#[test]
fn alternatives_failed_branch_then_mutating_branch_equals_that_branch_alone() {
    for txn in [TxnMode::Always, TxnMode::Never] {
        let (both, with_failed_first, stats) =
            run_on_corpus_payload(&alternatives_over_inner(&[TILE_THEN_FAIL, UNROLL], ""), txn);
        both.unwrap_or_else(|e| panic!("{txn:?}: {}", e.diagnostic()));
        let (alone, unroll_only, _) =
            run_on_corpus_payload(&alternatives_over_inner(&[UNROLL], ""), txn);
        alone.unwrap_or_else(|e| panic!("{txn:?}: {}", e.diagnostic()));
        assert_eq!(with_failed_first, unroll_only, "{txn:?}");
        assert_ne!(unroll_only, corpus_payload_print(), "the branch mutates");
        assert_eq!(stats.suppressed_errors, 1, "{txn:?}");
        assert_eq!(stats.rolled_back, 0, "{txn:?}: no top-level rollback");
    }
}

#[test]
fn alternatives_all_branches_fail_is_silenceable_and_leaves_the_payload_untouched() {
    // Under `Never` no top-level transaction cleans up behind the
    // branches, so an untouched payload is the branches' own doing.
    for txn in [TxnMode::Always, TxnMode::Never] {
        let script = alternatives_over_inner(&[TILE_THEN_FAIL, TILE_THEN_FAIL], "");
        let (result, print, stats) = run_on_corpus_payload(&script, txn);
        let err = result.expect_err("every branch fails");
        assert!(err.is_silenceable(), "{txn:?}");
        assert!(
            err.diagnostic()
                .message()
                .contains("all alternatives failed"),
            "{txn:?}: {}",
            err.diagnostic()
        );
        assert_eq!(print, corpus_payload_print(), "{txn:?}");
        assert_eq!(stats.suppressed_errors, 2, "{txn:?}");
    }
}

#[test]
fn alternatives_definite_error_in_a_branch_propagates_and_the_step_rolls_back() {
    // Tile consumes the branch argument; unrolling it afterwards is a
    // definite use-after-consume. The second branch must not be tried.
    let use_after_consume = format!("{TILE}\n      {}", UNROLL.replace("%u$", "%v$"));
    let script = alternatives_over_inner(&[&use_after_consume, UNROLL], "");
    let (result, print, stats) = run_on_corpus_payload(&script, TxnMode::Always);
    let err = result.expect_err("the definite error propagates");
    assert!(!err.is_silenceable());
    assert!(
        err.diagnostic().message().contains("invalidated handle"),
        "{}",
        err.diagnostic()
    );
    assert_eq!(
        print,
        corpus_payload_print(),
        "the top-level step rolled back"
    );
    assert_eq!(
        stats.suppressed_errors, 0,
        "definite errors are not suppressed"
    );
    assert_eq!(stats.rolled_back, 1);
}

#[test]
fn alternatives_panic_in_a_branch_is_contained_and_rolled_back() {
    fault::set_thread_plan(Some(
        fault::FaultPlan::parse("panic@transform=transform.loop.tile").unwrap(),
    ));
    fault::set_lane(0);
    let (result, print, stats) =
        run_on_corpus_payload(&alternatives_over_inner(&[TILE, ""], ""), TxnMode::Always);
    fault::set_thread_plan(None);
    let err = result.expect_err("the panic surfaces as an error");
    assert!(!err.is_silenceable());
    let message = err.diagnostic().message();
    assert!(message.contains("panicked"), "{message}");
    assert!(message.contains("payload rolled back"), "{message}");
    assert_eq!(print, corpus_payload_print());
    assert_eq!(stats.rolled_back, 1);
}

/// Rolling a branch back restores the handle table with the payload: the
/// first branch consumes `%outer` (invalidating `%inner` and its own
/// argument with it) and then fails; the second branch and the rest of
/// the script use all of them.
#[test]
fn alternatives_handles_consumed_in_a_failed_branch_are_usable_afterwards() {
    let consume_outer_then_fail = r#"%u$ = "transform.loop.unroll"(%outer) {factor = 2} : (!transform.any_op) -> !transform.any_op
      %doomed$ = "transform.match_op"(%root) {name = "fuzz.absent", select = "first"} : (!transform.any_op) -> !transform.any_op"#;
    let use_both = r#""transform.annotate"(%outer) {name = "outer_in_branch"} : (!transform.any_op) -> ()
      "transform.annotate"(%arg$) {name = "inner_in_branch"} : (!transform.any_op) -> ()"#;
    let tail = r#""transform.annotate"(%outer) {name = "outer_after"} : (!transform.any_op) -> ()"#;
    for txn in [TxnMode::Always, TxnMode::Never] {
        let (both, with_failed_first, stats) = run_on_corpus_payload(
            &alternatives_over_inner(&[consume_outer_then_fail, use_both], tail),
            txn,
        );
        both.unwrap_or_else(|e| panic!("{txn:?}: {}", e.diagnostic()));
        assert_eq!(stats.suppressed_errors, 1, "{txn:?}");
        let (alone, second_only, _) =
            run_on_corpus_payload(&alternatives_over_inner(&[use_both], tail), txn);
        alone.unwrap_or_else(|e| panic!("{txn:?}: {}", e.diagnostic()));
        assert_eq!(with_failed_first, second_only, "{txn:?}");
        for name in ["outer_in_branch", "inner_in_branch", "outer_after"] {
            assert!(second_only.contains(name), "{txn:?}: {name}\n{second_only}");
        }
    }
}

#[test]
fn foreach_visits_every_match() {
    let script = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %loops = "transform.match_op"(%root) {name = "scf.for", select = "all"} : (!transform.any_op) -> !transform.any_op
    "transform.foreach"(%loops) ({
    ^bb0(%arg: !transform.any_op):
      "transform.annotate"(%arg) {name = "visited"} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) : (!transform.any_op) -> ()
  }
}"#;
    let (mut ctx, payload, entry) = setup(FIG1_PAYLOAD, script);
    let env = InterpEnv::standard();
    Interpreter::new(&env)
        .apply(&mut ctx, entry, payload)
        .unwrap();
    let annotated = ctx
        .walk_nested(payload)
        .into_iter()
        .filter(|&op| ctx.op(op).attr("visited").is_some())
        .count();
    assert_eq!(annotated, 2, "both loops annotated");
}

#[test]
fn include_expands_named_sequences() {
    let script = r#"module {
  transform.named_sequence @tile_it(%loop: !transform.any_op) {
    %t0, %t1 = "transform.loop.tile"(%loop) {tile_sizes = [8]} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
  }
  transform.named_sequence @main(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "last"} : (!transform.any_op) -> !transform.any_op
    "transform.include"(%loop) {target = @tile_it} : (!transform.any_op) -> ()
  }
}"#;
    let payload = FIG1_PAYLOAD.replace("2042", "64");
    let mut ctx = Context::new();
    td_dialects::register_all_dialects(&mut ctx);
    td_transform::register_transform_dialect(&mut ctx);
    let payload = parse_module(&mut ctx, &payload).unwrap();
    let script_module = parse_module(&mut ctx, script).unwrap();
    let entry = ctx.lookup_symbol(script_module, "main").unwrap();
    let env = InterpEnv::standard();
    Interpreter::new(&env)
        .apply(&mut ctx, entry, payload)
        .unwrap();
    assert_eq!(scf::collect_loops(&ctx, payload).len(), 3);
}

#[test]
fn sequence_suppresses_silenceable_failures() {
    let script = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    "transform.sequence"(%root) ({
    ^bb0(%arg: !transform.any_op):
      %missing = "transform.match_op"(%arg) {name = "nonexistent.op", select = "first"} : (!transform.any_op) -> !transform.any_op
      "transform.yield"() : () -> ()
    }) {failure_propagation_mode = "suppress"} : (!transform.any_op) -> ()
    %loops = "transform.match_op"(%root) {name = "scf.for", select = "all"} : (!transform.any_op) -> !transform.any_op
  }
}"#;
    let (mut ctx, payload, entry) = setup(FIG1_PAYLOAD, script);
    let env = InterpEnv::standard();
    let mut interp = Interpreter::new(&env);
    interp.apply(&mut ctx, entry, payload).expect("suppressed");
    assert_eq!(interp.stats.suppressed_errors, 1);
}

#[test]
fn match_failure_is_silenceable() {
    let script = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %missing = "transform.match_op"(%root) {name = "nonexistent.op", select = "first"} : (!transform.any_op) -> !transform.any_op
  }
}"#;
    let (mut ctx, payload, entry) = setup(FIG1_PAYLOAD, script);
    let env = InterpEnv::standard();
    let err = Interpreter::new(&env)
        .apply(&mut ctx, entry, payload)
        .unwrap_err();
    assert!(matches!(err, TransformError::Silenceable(_)));
}

#[test]
fn apply_registered_pass_runs_passes_on_targets() {
    let script = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %func = "transform.match_op"(%root) {name = "func.func", select = "first"} : (!transform.any_op) -> !transform.any_op
    %after = "transform.apply_registered_pass"(%func) {pass_name = "canonicalize"} : (!transform.any_op) -> !transform.any_op
  }
}"#;
    let payload = r#"module {
  func.func @f() {
    %a = arith.constant 2 : i64
    %b = arith.constant 3 : i64
    %c = "arith.addi"(%a, %b) : (i64, i64) -> i64
    "test.use"(%c) : (i64) -> ()
    func.return
  }
}"#;
    let (mut ctx, payload, entry) = setup(payload, script);
    let mut passes = td_ir::PassRegistry::new();
    td_dialects::passes::register_all_passes(&mut passes);
    let mut env = InterpEnv::standard();
    env.passes = Some(&passes);
    Interpreter::new(&env)
        .apply(&mut ctx, entry, payload)
        .unwrap();
    let names: Vec<&str> = ctx
        .walk_nested(payload)
        .iter()
        .map(|&o| ctx.op(o).name.as_str())
        .collect();
    assert!(
        !names.contains(&"arith.addi"),
        "canonicalize folded the add: {names:?}"
    );
}

#[test]
fn param_and_state_inspection() {
    let script = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %p = "transform.param.constant"() {value = 32} : () -> !transform.param
    %loops = "transform.match_op"(%root) {name = "scf.for", select = "all"} : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%loops, %p) {name = "tile_hint"} : (!transform.any_op, !transform.param) -> ()
  }
}"#;
    let (mut ctx, payload, entry) = setup(FIG1_PAYLOAD, script);
    let env = InterpEnv::standard();
    let mut state = TransformState::new();
    Interpreter::new(&env)
        .apply_with_state(&mut ctx, &mut state, entry, payload)
        .unwrap();
    let hinted = ctx
        .walk_nested(payload)
        .into_iter()
        .filter(|&op| ctx.op(op).attr("tile_hint") == Some(&td_ir::Attribute::Int(32)))
        .count();
    assert_eq!(hinted, 2);
}
