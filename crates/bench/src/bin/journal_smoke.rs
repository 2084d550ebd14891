//! CI smoke check for the provenance journal: exercises all three layers
//! the journal promises —
//!
//! 1. **attribution**: a tiled-matmul schedule runs with journaling on and
//!    the journal answers "which transform erased the original loop?";
//! 2. **failure bisection**: a known-failing pipeline bisects to a
//!    non-empty minimized repro schedule;
//! 3. **batch reports**: a 4-worker `td-sched` batch (with one failing
//!    job) merges per-worker journals into one report whose JSON passes
//!    the std-only validator; the failed job comes back with the report
//!    and `Engine::bisect` produces its repro on demand.
//!
//! ```text
//! TD_JOURNAL=target/journal_smoke.json cargo run -p td-bench --bin journal_smoke
//! ```
//!
//! Without `TD_JOURNAL` everything is validated in memory.

use td_sched::{Engine, EngineConfig, Job};
use td_support::{journal, trace};
use td_transform::{InterpEnv, Interpreter};

const MATMUL_PAYLOAD: &str = r#"module {
  func.func @matmul(%a: memref<128x128xf32>, %b: memref<128x128xf32>, %c: memref<128x128xf32>) {
    %lo = arith.constant 0 : index
    %hi = arith.constant 128 : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {
      scf.for %j = %lo to %hi step %st {
        scf.for %k = %lo to %hi step %st {
          %av = "memref.load"(%a, %i, %k) : (memref<128x128xf32>, index, index) -> f32
          %bv = "memref.load"(%b, %k, %j) : (memref<128x128xf32>, index, index) -> f32
          %cv = "memref.load"(%c, %i, %j) : (memref<128x128xf32>, index, index) -> f32
          %p = "arith.mulf"(%av, %bv) : (f32, f32) -> f32
          %s = "arith.addf"(%cv, %p) : (f32, f32) -> f32
          "memref.store"(%s, %c, %i, %j) : (f32, memref<128x128xf32>, index, index) -> ()
        }
      }
    }
    func.return
  }
}"#;

const TILE_SCRIPT: &str = r#"module {
  transform.named_sequence @optimize(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %tiles, %points = "transform.loop.tile"(%loop) {tile_sizes = [32]} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
  }
}"#;

/// Step 2 of this schedule fails: the payload has no `nonexistent.op`.
/// The trailing annotate is the innocent suffix bisection must drop.
const FAILING_SCRIPT: &str = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    "transform.annotate"(%root) {name = "started"} : (!transform.any_op) -> ()
    %missing = "transform.match_op"(%root) {name = "nonexistent.op", select = "first"} : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%root) {name = "never_reached"} : (!transform.any_op) -> ()
  }
}"#;

fn tile_by(size: u32) -> String {
    format!(
        r#"module {{
  transform.named_sequence @main(%root: !transform.any_op) {{
    %loop = "transform.match_op"(%root) {{name = "scf.for", select = "first"}} : (!transform.any_op) -> !transform.any_op
    %tiles, %points = "transform.loop.tile"(%loop) {{tile_sizes = [{size}]}} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
  }}
}}"#
    )
}

fn main() {
    journal::set_enabled(true);
    journal::reset();

    // ----- 1. attribution on the tiled-matmul schedule ------------------
    let mut ctx = td_bench::full_context();
    let payload = td_ir::parse_module(&mut ctx, MATMUL_PAYLOAD).expect("payload parses");
    let script = td_ir::parse_module(&mut ctx, TILE_SCRIPT).expect("script parses");
    let entry = ctx.lookup_symbol(script, "optimize").expect("entry point");
    let original_loop = *td_dialects::scf::collect_loops(&ctx, payload)
        .first()
        .expect("matmul has loops");
    let loop_id = format!("{original_loop:?}");
    let env = InterpEnv::standard();
    Interpreter::new(&env)
        .apply_reentrant(&mut ctx, entry, payload)
        .expect("schedule applies");
    let attribution = journal::take();
    let eraser = attribution
        .who_erased(&loop_id)
        .unwrap_or_else(|| panic!("journal must know who erased {loop_id}"));
    assert_eq!(
        eraser.name, "transform.loop.tile",
        "tiling replaces the original loop, so it must own the erasure"
    );
    let (last_change, last_step) = attribution
        .last_touch(&loop_id)
        .expect("last_touch agrees with who_erased");
    assert_eq!(last_step.name, "transform.loop.tile");
    println!(
        "attribution OK: {} {} {} (step {} at {})",
        last_step.name,
        last_change.kind.name(),
        loop_id,
        last_step.index,
        last_step.location
    );

    // ----- 2. failure bisection on the known-failing pipeline -----------
    let make_ctx = td_bench::full_context;
    let outcome = td_transform::bisect_schedule_failure(
        &env,
        &make_ctx,
        FAILING_SCRIPT,
        MATMUL_PAYLOAD,
        "main",
    )
    .expect("failing pipeline must bisect");
    assert!(
        !outcome.minimized_script.is_empty(),
        "bisection must emit a non-empty minimized schedule"
    );
    assert_eq!(outcome.failing_prefix, 2, "the bad match_op is step 2");
    assert!(
        !outcome.minimized_script.contains("never_reached"),
        "minimized schedule drops the innocent suffix:\n{}",
        outcome.minimized_script
    );
    println!(
        "bisection OK: prefix {}/{} in {} probes; repro is {} line(s)",
        outcome.failing_prefix,
        outcome.total_steps,
        outcome.probes,
        outcome.minimized_script.lines().count()
    );

    // ----- 3. merged batch report from a 4-worker pool -------------------
    journal::reset();
    let engine = Engine::new(EngineConfig::standard().with_workers(4).without_cache());
    let mut jobs: Vec<Job> = (0..7)
        .map(|i| Job::new(tile_by(4 << i), MATMUL_PAYLOAD))
        .collect();
    jobs.push(Job::new(FAILING_SCRIPT, MATMUL_PAYLOAD));
    let report = engine.run_batch(jobs);
    assert_eq!(report.ok_count(), 7);
    assert_eq!(report.err_count(), 1);

    let json = report.report_json();
    trace::validate_json(&json).unwrap_or_else(|e| panic!("invalid report JSON: {e}"));
    assert!(
        report.journal.steps().iter().any(|s| s.job.is_some()),
        "batch journal steps carry job indices"
    );
    assert!(
        report
            .journal
            .summarize()
            .iter()
            .any(|row| row.name == "transform.loop.tile" && row.ops_touched > 0),
        "report ranks the tile transform by payload ops touched"
    );
    // The batch bisects nothing unasked; the failed job comes back with
    // the report, and its repro joins the journal when we ask for it.
    assert!(
        report.journal.artifacts().is_empty(),
        "a batch report carries no bisection of its own"
    );
    let [(index, failed_job)] = report.failed_jobs.as_slice() else {
        panic!("the failing job is handed back: {:?}", report.failed_jobs);
    };
    let repro = engine
        .bisect(failed_job)
        .expect("failing job bisects on demand");
    assert!(
        repro.contains("transform.named_sequence"),
        "bisect artifact carries the minimized schedule:\n{repro}"
    );
    journal::add_artifact("bisect", &format!("job{index}"), &repro);
    println!("batch report:\n{}", report.report_text());

    // Flush the coordinator's merged journal (workers were absorbed into
    // it) to the TD_JOURNAL file for the CI validation step.
    match journal::write_env_journal().expect("write journal file") {
        Some(path) => {
            let reread = std::fs::read_to_string(&path).expect("re-read journal file");
            trace::validate_json(&reread)
                .unwrap_or_else(|e| panic!("invalid journal file JSON: {e}"));
            println!("wrote {path}");
        }
        None => println!("TD_JOURNAL not set; validated in memory only"),
    }
    println!("journal smoke OK");
}
