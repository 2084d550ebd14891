//! Regenerates the **Figure 1** demonstration: the
//! hoist + split + tile + unroll Transform script applied to the payload,
//! and the *static* detection of the deliberate error (unrolling a
//! consumed handle a second time, Fig. 1a line 11) — no payload needed for
//! the detection.
//!
//! ```text
//! cargo run -p td-bench --release --bin fig1_invalidation
//! ```

use td_transform::{analyze_invalidation, InterpEnv, Interpreter, TransformOpRegistry};

const PAYLOAD: &str = r#"module {
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

fn script(with_error: bool) -> String {
    let error_line = if with_error {
        "\n    %unrolled2 = \"transform.loop.unroll\"(%part1) {full} : (!transform.any_op) -> !transform.any_op"
    } else {
        ""
    };
    format!(
        r#"module {{
  transform.named_sequence @split_then_tile_and_unroll(%func: !transform.any_op) {{
    %outer = "transform.match_op"(%func) {{name = "scf.for", select = "first"}} : (!transform.any_op) -> !transform.any_op
    %inner = "transform.match_op"(%outer) {{name = "scf.for", select = "first"}} : (!transform.any_op) -> !transform.any_op
    %hoisted = "transform.loop.hoist"(%inner) : (!transform.any_op) -> !transform.any_op
    %param = "transform.param.constant"() {{value = 8}} : () -> !transform.param
    %part0, %part1 = "transform.loop.split"(%inner, %param) : (!transform.any_op, !transform.param) -> (!transform.any_op, !transform.any_op)
    %tiled0, %tiled1 = "transform.loop.tile"(%part0, %param) : (!transform.any_op, !transform.param) -> (!transform.any_op, !transform.any_op)
    %unrolled = "transform.loop.unroll"(%part1) {{full}} : (!transform.any_op) -> !transform.any_op{error_line}
  }}
}}"#
    )
}

fn main() {
    // ----- static analysis of the erroneous script -------------------------
    println!("Fig. 1a with the deliberate line-11 error, checked STATICALLY");
    println!("(use-after-free dataflow over the script, no payload involved):\n");
    let mut ctx = td_bench::full_context();
    let script_module = td_ir::parse_module(&mut ctx, &script(true)).expect("script parses");
    let entry = ctx
        .lookup_symbol(script_module, "split_then_tile_and_unroll")
        .expect("entry");
    let registry = TransformOpRegistry::with_standard_ops();
    let diagnostics = analyze_invalidation(&ctx, &registry, entry);
    for diag in &diagnostics {
        println!("  error: {}", diag.message());
        for (_, note) in diag.notes() {
            println!("    note: {note}");
        }
    }
    assert_eq!(diagnostics.len(), 1, "exactly the line-11 error");

    // ----- applying the correct script --------------------------------------
    println!("\nThe corrected script applied to the Fig. 1b payload:");
    let (mut ctx, entry, payload) =
        td_bench::parse_schedule(PAYLOAD, &script(false), "split_then_tile_and_unroll");
    let diagnostics = analyze_invalidation(&ctx, &registry, entry);
    assert!(diagnostics.is_empty(), "corrected script is clean");
    println!("  static check: clean");
    let env = InterpEnv::standard();
    let mut interp = Interpreter::new(&env);
    interp
        .apply(&mut ctx, entry, payload)
        .expect("script applies");
    td_ir::verify::verify(&ctx, payload).expect("transformed payload verifies");
    println!(
        "  applied {} transforms; transformed payload:",
        interp.stats.transforms_executed
    );
    println!();
    for line in td_ir::print_op(&ctx, payload).lines() {
        println!("  {line}");
    }
}
