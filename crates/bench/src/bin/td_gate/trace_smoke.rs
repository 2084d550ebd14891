//! CI smoke check for the tracing subsystem: runs the quickstart schedule
//! (tile by 64, unroll by 4) with tracing on, writes the Chrome
//! `trace_event` JSON file, reads it back, validates the JSON with the
//! std-only validator, and fails if the event stream is empty or missing
//! the expected span/instant structure.
//!
//! ```text
//! TD_TRACE=target/trace_smoke.json cargo run -p td-bench --bin td_gate -- trace_smoke
//! ```
//!
//! Without `TD_TRACE` the trace is kept in memory and validated there.

use td_bench::gate;
use td_support::trace;
use td_transform::{InterpEnv, Interpreter};

const PAYLOAD: &str = r#"module {
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

pub fn run() {
    trace::set_enabled(true);
    trace::reset();

    let script = gate::tile_schedule("optimize", 64, Some(4));
    let (mut ctx, entry, payload) = td_bench::parse_schedule(PAYLOAD, &script, "optimize");
    let env = InterpEnv::standard();
    Interpreter::new(&env)
        .apply(&mut ctx, entry, payload)
        .expect("schedule applies");

    // Export: through the TD_TRACE file when set (the CI path), else from
    // the in-memory snapshot.
    let json = gate::exported_trace();
    let recorded = trace::snapshot();
    assert!(!recorded.is_empty(), "trace event stream must not be empty");
    for expected in [
        "\"apply\"",               // interpreter root span
        "\"transform.loop.tile\"", // transform-op span
        "\"handle.invalidated\"",  // instant event from handle consumption
    ] {
        assert!(
            json.contains(expected),
            "trace JSON is missing {expected}:\n{}",
            recorded.to_tree_string()
        );
    }
    println!(
        "trace smoke OK: {} events, tree:\n{}",
        recorded.events().len(),
        recorded.to_tree_string()
    );
}
