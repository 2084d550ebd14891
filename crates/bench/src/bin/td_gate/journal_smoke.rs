//! CI smoke check for the provenance journal: exercises the three layers
//! the journal promises, then what it costs —
//!
//! 1. **attribution**: a tiled-matmul schedule runs with journaling on and
//!    the journal answers "which transform erased the original loop?";
//! 2. **failure bisection**: a known-failing pipeline bisects to a
//!    non-empty minimized repro schedule;
//! 3. **batch reports**: a 4-worker `td-sched` batch (with one failing
//!    job) merges per-worker journals into one report whose JSON passes
//!    the std-only validator; the failed job comes back with the report
//!    and `Engine::bisect` produces its repro on demand;
//! 4. **cost**: journal-on against journal-off apply of the TOSA pipeline
//!    script, in `gate::paired` rounds, on `tosa_small`-sized payloads of
//!    the three model kinds and on GPT-2. Every row is reported; the
//!    decoder's median round must stay at or under 1.25x.
//!
//! ```text
//! TD_JOURNAL=target/journal_smoke.json cargo run -p td-bench --bin td_gate -- journal_smoke
//! ```
//!
//! Without `TD_JOURNAL` everything is validated in memory.

use std::time::Instant;
use td_bench::gate;
use td_modelgen::{ModelKind, ModelSpec};
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

pub fn run() {
    journal::set_enabled(true);
    journal::reset();

    // ----- 1. attribution on the tiled-matmul schedule ------------------
    let script = gate::tile_schedule("optimize", 32, None);
    let (mut ctx, entry, payload) = td_bench::parse_schedule(MATMUL_PAYLOAD, &script, "optimize");
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
        last_step.location_text()
    );

    // ----- 2. failure bisection on the known-failing pipeline -----------
    let outcome = td_transform::bisect_schedule_failure(
        &env,
        &td_bench::full_context,
        gate::FAILING_SCRIPT,
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
        .map(|i| Job::new(gate::tile_schedule("main", 4 << i, None), MATMUL_PAYLOAD))
        .collect();
    jobs.push(Job::new(gate::FAILING_SCRIPT, MATMUL_PAYLOAD));
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

    // ----- 4. what journaling costs --------------------------------------
    journal_cost();
    println!("journal smoke OK");
}

/// Act 4: the TOSA pipeline script applied with the journal on (side 1)
/// and off (side 0), parse and teardown untimed, in 15 rounds each.
fn journal_cost() {
    let small = |kind| ModelSpec {
        name: "tosa_small",
        kind,
        target_ops: 128,
        hidden: 8,
    };
    let gpt2 = td_modelgen::paper_models()
        .into_iter()
        .find(|spec| spec.name == "GPT-2")
        .expect("GPT-2 is a Table 1 model");
    // (label, payload, applies per side of a round): rounds of ~10 ms.
    let payloads = [
        ("tosa_small decoder", small(ModelKind::TransformerDecoder), 8),
        ("tosa_small cnn", small(ModelKind::Cnn), 6),
        ("tosa_small encoder", small(ModelKind::TransformerEncoder), 8),
        ("GPT-2", gpt2, 1),
    ];
    let registry = td_bench::full_pass_registry();
    let mut env = InterpEnv::standard();
    env.passes = Some(&registry);
    let script = {
        let mut ctx = td_bench::full_context();
        let script = td_transform::pipeline_to_script(&mut ctx, td_dialects::passes::TOSA_PIPELINE)
            .expect("the pipeline is not empty");
        td_ir::print_op(&ctx, script)
    };
    let mut gated = None;
    for (label, spec, applies) in payloads {
        let payload = {
            let mut ctx = td_bench::full_context();
            let module = td_modelgen::build_model(&mut ctx, &spec);
            td_ir::print_op(&ctx, module)
        };
        let mut records = 0;
        let run = gate::paired(2, 15, applies, |on, _| {
            let (mut ctx, entry, module) =
                td_bench::parse_schedule(&payload, &script, td_transform::TRANSFORM_MAIN);
            journal::reset();
            journal::set_enabled(on == 1);
            let started = Instant::now();
            Interpreter::new(&env)
                .apply_reentrant(&mut ctx, entry, module)
                .expect("the pipeline applies");
            let elapsed = started.elapsed();
            records = records.max(journal::take().changes().len());
            elapsed
        });
        let spread = run.ratio(1, 0);
        let median = &run.rounds[spread.median_round];
        println!(
            "journal cost: {label}: {records} change records; median round off {:.3}ms, on {:.3}ms per apply, {spread}",
            median[0].as_secs_f64() * 1e3 / applies as f64,
            median[1].as_secs_f64() * 1e3 / applies as f64,
        );
        gated.get_or_insert(spread.median);
    }
    journal::set_enabled(true);
    let ratio = gated.expect("at least one payload");
    assert!(
        ratio <= 1.25,
        "journaling costs {ratio:.3}x the apply in the decoder's median round, over the 1.25x bound"
    );
    println!("journal cost OK: decoder median round {ratio:.3}x (bound 1.25x)");
}
