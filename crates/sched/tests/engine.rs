//! Integration tests for the schedule-application engine: determinism
//! across worker counts, cache behaviour, panic isolation, deadlines,
//! retries, and observability merging.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use td_sched::{Engine, EngineConfig, Job, JobError, TxnMode};
use td_support::trace;
use td_transform::{TransformError, TransformOpDef, TransformOpRegistry};

/// A payload module whose text varies with `i` (distinct fingerprints).
fn payload(i: usize) -> String {
    format!(
        "module {{\n  %a = arith.constant {i} : index\n  %b = arith.constant {} : index\n  \
         %s = \"arith.addi\"(%a, %b) : (index, index) -> index\n}}",
        i + 1
    )
}

/// A script that annotates every `arith.addi` with `marker` (addi prints
/// generically, so the annotation is visible in the output text).
fn annotate_script(marker: &str) -> String {
    format!(
        r#"module {{
  transform.named_sequence @main(%root: !transform.any_op) {{
    %adds = "transform.match_op"(%root) {{name = "arith.addi", select = "all"}}
        : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%adds) {{name = "{marker}"}} : (!transform.any_op) -> ()
  }}
}}"#
    )
}

/// A script whose body is a single custom transform op (used with
/// registries extended by `test.panic` / `test.flaky` handlers).
fn custom_op_script(op: &str) -> String {
    format!(
        r#"module {{
  transform.named_sequence @main(%root: !transform.any_op) {{
    "{op}"() : () -> ()
  }}
}}"#
    )
}

fn batch(n: usize, marker: &str) -> Vec<Job> {
    (0..n)
        .map(|i| Job::new(annotate_script(marker), payload(i)))
        .collect()
}

#[test]
fn one_and_four_workers_produce_identical_outputs() {
    let single = Engine::new(EngineConfig::standard().with_workers(1).without_cache());
    let pooled = Engine::new(EngineConfig::standard().with_workers(4).without_cache());
    let report_1 = single.run_batch(batch(12, "seen"));
    let report_4 = pooled.run_batch(batch(12, "seen"));
    assert_eq!(report_1.ok_count(), 12);
    assert_eq!(report_1.output_texts(), report_4.output_texts());
    // Outputs really were transformed (order-sensitive slot placement
    // can't be confused with echoing the input back).
    for (i, text) in report_1.output_texts().into_iter().enumerate() {
        let text = text.expect("job succeeded");
        assert!(text.contains("seen"), "job {i} output was not annotated");
        assert!(text.contains(&format!("constant {i}")), "job {i} misplaced");
    }
}

#[test]
fn repeated_batch_is_served_from_cache_with_identical_output() {
    let engine = Engine::new(EngineConfig::standard().with_workers(2));
    let cold = engine.run_batch(batch(8, "seen"));
    assert_eq!(cold.ok_count(), 8);
    assert_eq!(cold.cache.hits, 0);
    assert_eq!(cold.cache.inserts, 8);

    let warm = engine.run_batch(batch(8, "seen"));
    assert_eq!(warm.ok_count(), 8);
    assert_eq!(warm.cache.hits, 8, "every repeated job must hit the cache");
    assert!(warm.cache.hit_rate() >= 0.9);
    assert_eq!(cold.output_texts(), warm.output_texts());
    for result in &warm.results {
        let output = result.as_ref().expect("job succeeded");
        assert!(output.from_cache);
        assert_eq!(output.attempts, 0);
    }
}

#[test]
fn the_cache_key_is_the_request_bytes() {
    let engine = Engine::new(EngineConfig::standard().with_workers(1));
    let script = annotate_script("seen");
    let a = "module {\n  %a = arith.constant 7 : index\n  %s = \"arith.addi\"(%a, %a) : (index, index) -> index\n}";
    let b = "module   {\n      %a = arith.constant 7 : index\n      %s = \"arith.addi\"(%a,%a) : (index, index) -> index\n\n}";
    let first = engine.run_batch(vec![Job::new(&script, a)]);
    assert_eq!((first.cache.hits, first.cache.inserts), (0, 1));

    // Byte-identical resubmission hits.
    let again = engine.run_batch(vec![Job::new(&script, a)]);
    assert_eq!((again.cache.hits, again.cache.misses), (1, 0));
    assert!(again.results[0].as_ref().unwrap().from_cache);

    // A reformatted payload is a distinct entry; it parses to the same
    // module, so its output is byte-identical all the same.
    let reformatted = engine.run_batch(vec![Job::new(&script, b)]);
    assert_eq!(
        (reformatted.cache.hits, reformatted.cache.inserts),
        (0, 1),
        "different bytes, different key"
    );
    assert!(!reformatted.results[0].as_ref().unwrap().from_cache);
    assert_eq!(first.output_texts(), reformatted.output_texts());
    assert_eq!(first.output_texts(), again.output_texts());
}

/// Regression: the old structural key hashed interned type *ids*, so two
/// payloads differing only inside a type shared a key and the second
/// tenant got the first tenant's module back.
#[test]
fn payloads_differing_only_inside_a_type_do_not_collide() {
    let payload = |cols: usize| {
        format!(
            "module {{\n  func.func @f(%t: tensor<8x{cols}xf32>) {{\n    \
             %a = arith.constant 1 : index\n    \
             %s = \"arith.addi\"(%a, %a) : (index, index) -> index\n    func.return\n  }}\n}}"
        )
    };
    let engine = Engine::new(EngineConfig::standard().with_workers(1));
    let script = annotate_script("seen");
    let narrow = engine.run_batch(vec![Job::new(&script, payload(8))]);
    let wide = engine.run_batch(vec![Job::new(&script, payload(16))]);
    assert_eq!(wide.cache.hits, 0, "a different payload must miss");
    let narrow = &narrow.results[0]
        .as_ref()
        .expect("job succeeds")
        .module_text;
    let wide = wide.results[0].as_ref().expect("job succeeds");
    assert!(!wide.from_cache);
    assert!(narrow.contains("tensor<8x8xf32>"), "{narrow}");
    assert!(
        wide.module_text.contains("tensor<8x16xf32>"),
        "the second job must get its own module back:\n{}",
        wide.module_text
    );
}

#[test]
fn in_batch_duplicates_have_one_disposition_at_any_worker_count() {
    // Every job is probed before any job runs, so a duplicate inside one
    // batch is a second miss (and a replacement), never a racy hit.
    let run = |workers: usize| {
        let engine = Engine::new(EngineConfig::standard().with_workers(workers));
        let mut jobs = batch(3, "seen");
        jobs.extend(batch(3, "seen"));
        let cold = engine.run_batch(jobs.clone());
        let warm = engine.run_batch(jobs);
        [cold, warm].map(|report| {
            let from_cache: Vec<bool> = report
                .results
                .iter()
                .map(|r| r.as_ref().expect("job succeeds").from_cache)
                .collect();
            (report.cache, from_cache, report.workers)
        })
    };
    let [cold_1, warm_1] = run(1);
    let [cold_4, warm_4] = run(4);
    assert_eq!((cold_1.0, &cold_1.1), (cold_4.0, &cold_4.1));
    assert_eq!((warm_1.0, &warm_1.1), (warm_4.0, &warm_4.1));
    let cold = cold_4.0;
    assert_eq!(
        (cold.hits, cold.misses, cold.inserts, cold.replacements),
        (0, 6, 3, 3)
    );
    assert_eq!(cold_4.1, [false; 6]);
    assert_eq!((warm_4.0.hits, warm_4.0.misses), (6, 0));
    assert_eq!(warm_4.1, [true; 6]);
    // One thread per miss at most; none for the all-hit batch.
    assert_eq!((cold_1.2, cold_4.2, warm_4.2), (1, 4, 0));
}

/// Telemetry stays whole on the hit path: one `sched`/`job` span and one
/// sample per latency histogram for every job. The `cache` argument says
/// which it was; the lane says which thread ran it — hits on the
/// submitting thread, each miss under the `workerN` span of its worker.
#[test]
fn hits_are_answered_on_the_submitting_thread_with_full_telemetry() {
    trace::reset();
    trace::set_enabled(true);
    let engine = Engine::new(EngineConfig::standard().with_workers(2));
    let cold = engine.run_batch(batch(4, "seen"));
    let mut mixed_jobs = batch(4, "seen");
    mixed_jobs.extend(batch(2, "other"));
    let mixed = engine.run_batch(mixed_jobs);
    let warm = engine.run_batch(batch(4, "seen"));
    let recorded = trace::take();
    trace::clear_enabled_override();

    for (report, jobs) in [(&cold, 4), (&mixed, 6), (&warm, 4)] {
        assert_eq!(report.ok_count(), jobs);
        for histogram in [
            &report.stats.queue_wait,
            &report.stats.run,
            &report.stats.total,
        ] {
            assert_eq!(histogram.count, jobs as u64, "one sample per job");
        }
    }
    assert_eq!((mixed.cache.hits, mixed.cache.misses), (4, 2));
    assert_eq!(mixed.stats.lanes.len(), 2);
    assert_eq!(mixed.stats.lanes.iter().map(|l| l.jobs).sum::<u64>(), 2);
    assert_eq!(warm.workers, 0, "an all-hit batch spawns nothing");
    assert!(warm.stats.lanes.is_empty());
    assert!(warm.journal.is_empty());

    let job_spans: Vec<_> = recorded
        .events()
        .iter()
        .filter(|e| e.cat == "sched" && e.name == "job")
        .collect();
    assert_eq!(job_spans.len(), 14, "exactly one job span per job");
    let with_cache = |outcome: &str| -> Vec<&trace::TraceEvent> {
        job_spans
            .iter()
            .copied()
            .filter(|e| e.args.iter().any(|(k, v)| k == "cache" && v == outcome))
            .collect()
    };
    let (hits, misses) = (with_cache("hit"), with_cache("miss"));
    assert_eq!((hits.len(), misses.len()), (8, 6));
    for span in &job_spans {
        assert!(span.args.iter().any(|(k, v)| k == "entry" && v == "main"));
    }
    for hit in hits {
        assert_eq!(hit.tid, trace::MAIN_TID, "{hit:?}");
    }
    let worker_spans: Vec<_> = recorded
        .events()
        .iter()
        .filter(|e| e.cat == "sched" && e.name.starts_with("worker"))
        .collect();
    for miss in misses {
        let parents = worker_spans
            .iter()
            .filter(|w| w.tid == miss.tid && w.depth + 1 == miss.depth && within(miss, w))
            .count();
        assert_eq!(parents, 1, "{miss:?} nests under one worker span");
    }
}

/// Whether span `inner` lies within span `outer` on the trace's clock.
fn within(inner: &trace::TraceEvent, outer: &trace::TraceEvent) -> bool {
    outer.start_ns <= inner.start_ns && inner.end_ns() <= outer.end_ns()
}

/// Every `sched`/`job` span lies inside its batch's `sched`/`batch` span,
/// whichever lane it is on — on an engine's *second* batch too, when a
/// spawned worker's clock is no longer accidentally close to the caller's.
#[test]
fn job_spans_lie_within_their_batch_span_on_every_lane() {
    for workers in [1, 4] {
        trace::reset();
        trace::set_enabled(true);
        let engine = Engine::new(
            EngineConfig::standard()
                .with_workers(workers)
                .without_cache(),
        );
        engine.run_batch(batch(8, "first"));
        // Long enough on this clock that a lane timed from its own thread's
        // start would put the second batch's jobs back near zero.
        std::thread::sleep(Duration::from_millis(20));
        let first = trace::take();
        engine.run_batch(batch(8, "second"));
        let second = trace::take();
        trace::clear_enabled_override();

        for recorded in [&first, &second] {
            let [batch_span] = recorded
                .events()
                .iter()
                .filter(|e| e.cat == "sched" && e.name == "batch")
                .collect::<Vec<_>>()[..]
            else {
                panic!("one batch span per batch");
            };
            let jobs: Vec<_> = recorded
                .events()
                .iter()
                .filter(|e| e.cat == "sched" && e.name == "job")
                .collect();
            assert_eq!(jobs.len(), 8);
            for job in jobs {
                assert!(
                    within(job, batch_span),
                    "{workers} worker(s): {job:?} outside {batch_span:?}"
                );
            }
        }
    }
}

#[test]
fn panic_is_isolated_to_its_job() {
    let transforms: td_sched::engine::TransformsFactory = Arc::new(|| {
        let mut registry = TransformOpRegistry::with_standard_ops();
        registry.register(TransformOpDef::new(
            "test.panic",
            "always panics",
            |_, _, _, _| panic!("intentional test panic"),
        ));
        registry
    });
    let mut config = EngineConfig::standard().with_workers(2).without_cache();
    config.transforms_factory = transforms;
    let engine = Engine::new(config);

    // Under the default TxnMode::Always the interpreter's transactional
    // wrapper contains the panic at the step boundary: the job fails with
    // a *definite transform error* (payload rolled back), not a raw
    // panic, and neighbours are untouched. Opting the panicking job out
    // of transactions (txn=never) restores the raw unwind, which the
    // worker's catch_unwind boundary maps to JobError::Panicked.
    let jobs = vec![
        Job::new(annotate_script("seen"), payload(0)),
        Job::new(custom_op_script("test.panic"), payload(1)),
        Job::new(annotate_script("seen"), payload(2)),
        Job::new(custom_op_script("test.panic"), payload(3)).with_txn(TxnMode::Never),
    ];
    let report = engine.run_batch(jobs);
    assert_eq!(report.results.len(), 4);
    assert!(report.results[0].is_ok(), "job before the panic unaffected");
    match &report.results[1] {
        Err(JobError::Transform {
            message,
            silenceable: false,
        }) => {
            assert!(message.contains("intentional test panic"), "{message}");
            assert!(message.contains("rolled back"), "{message}");
        }
        other => panic!("expected a contained definite error, got {other:?}"),
    }
    assert!(report.results[2].is_ok(), "job after the panic unaffected");
    match &report.results[3] {
        Err(JobError::Panicked { message }) => {
            assert!(message.contains("intentional test panic"))
        }
        other => panic!("expected a panic error under txn=never, got {other:?}"),
    }
}

#[test]
fn silenceable_failures_retry_against_fresh_context() {
    // Fails silenceably on the first handler invocation, succeeds after —
    // so attempt 1 fails and attempt 2 (fresh context) succeeds.
    let calls = Arc::new(AtomicUsize::new(0));
    let calls_in_handler = Arc::clone(&calls);
    let transforms: td_sched::engine::TransformsFactory = Arc::new(move || {
        let calls = Arc::clone(&calls_in_handler);
        let mut registry = TransformOpRegistry::with_standard_ops();
        registry.register(TransformOpDef::new(
            "test.flaky",
            "fails silenceably once",
            move |_, ctx, _, op| {
                if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    Err(TransformError::silenceable(
                        ctx.op(op).location.clone(),
                        "flaky precondition",
                    ))
                } else {
                    Ok(())
                }
            },
        ));
        registry
    });
    let mut config = EngineConfig::standard().with_workers(1).without_cache();
    config.transforms_factory = transforms;
    let engine = Engine::new(config);

    let report = engine.run_batch(vec![
        Job::new(custom_op_script("test.flaky"), payload(0)).with_max_attempts(3)
    ]);
    let output = report.results[0].as_ref().expect("retry succeeds");
    assert_eq!(output.attempts, 2);
    assert_eq!(calls.load(Ordering::SeqCst), 2);
}

#[test]
fn retry_budget_of_one_surfaces_the_silenceable_error() {
    let transforms: td_sched::engine::TransformsFactory = Arc::new(|| {
        let mut registry = TransformOpRegistry::with_standard_ops();
        registry.register(TransformOpDef::new(
            "test.flaky",
            "always fails silenceably",
            |_, ctx, _, op| {
                Err(TransformError::silenceable(
                    ctx.op(op).location.clone(),
                    "flaky precondition",
                ))
            },
        ));
        registry
    });
    let mut config = EngineConfig::standard().with_workers(1).without_cache();
    config.transforms_factory = transforms;
    let engine = Engine::new(config);

    let report = engine.run_batch(vec![Job::new(custom_op_script("test.flaky"), payload(0))]);
    match &report.results[0] {
        Err(JobError::Transform {
            silenceable: true, ..
        }) => {}
        other => panic!("expected a silenceable transform error, got {other:?}"),
    }
}

#[test]
fn definite_failures_are_not_retried() {
    let calls = Arc::new(AtomicUsize::new(0));
    let calls_in_handler = Arc::clone(&calls);
    let transforms: td_sched::engine::TransformsFactory = Arc::new(move || {
        let calls = Arc::clone(&calls_in_handler);
        let mut registry = TransformOpRegistry::with_standard_ops();
        registry.register(TransformOpDef::new(
            "test.doomed",
            "always fails definitely",
            move |_, ctx, _, op| {
                calls.fetch_add(1, Ordering::SeqCst);
                Err(TransformError::definite(
                    ctx.op(op).location.clone(),
                    "payload corrupted",
                ))
            },
        ));
        registry
    });
    let mut config = EngineConfig::standard().with_workers(1).without_cache();
    config.transforms_factory = transforms;
    let engine = Engine::new(config);

    let report = engine.run_batch(vec![
        Job::new(custom_op_script("test.doomed"), payload(0)).with_max_attempts(5)
    ]);
    match &report.results[0] {
        Err(JobError::Transform {
            silenceable: false, ..
        }) => {}
        other => panic!("expected a definite transform error, got {other:?}"),
    }
    assert_eq!(
        calls.load(Ordering::SeqCst),
        1,
        "definite errors never retry"
    );
}

#[test]
fn zero_deadline_cancels_every_job() {
    let engine = Engine::new(EngineConfig::standard().with_workers(2));
    let jobs = batch(4, "seen").into_iter();
    let report = engine.run_batch(jobs.map(|job| job.with_deadline(Duration::ZERO)).collect());
    for result in &report.results {
        assert_eq!(result.as_ref().unwrap_err(), &JobError::DeadlineExceeded);
    }
}

#[test]
fn parse_and_entry_errors_are_reported_per_job() {
    let engine = Engine::new(EngineConfig::standard().with_workers(1));
    let jobs = vec![
        Job::new(annotate_script("seen"), "module { not valid ir"),
        Job::new("module { also not valid", payload(0)),
        Job::new(annotate_script("seen"), payload(1)).with_entry("nonexistent"),
    ];
    let report = engine.run_batch(jobs);
    match &report.results[0] {
        Err(JobError::Parse { what, .. }) => assert_eq!(*what, "payload"),
        other => panic!("expected a payload parse error, got {other:?}"),
    }
    match &report.results[1] {
        Err(JobError::Parse { what, .. }) => assert_eq!(*what, "script"),
        other => panic!("expected a script parse error, got {other:?}"),
    }
    match &report.results[2] {
        Err(JobError::EntryMissing { name }) => assert_eq!(name, "nonexistent"),
        other => panic!("expected a missing-entry error, got {other:?}"),
    }
}

#[test]
fn worker_spans_merge_into_the_coordinator_trace() {
    trace::reset();
    trace::set_enabled(true);
    let engine = Engine::new(EngineConfig::standard().with_workers(2).without_cache());
    let report = engine.run_batch(batch(6, "seen"));
    assert_eq!(report.ok_count(), 6);
    let recorded = trace::take();
    trace::clear_enabled_override();

    let batch_spans = recorded
        .events()
        .iter()
        .filter(|e| e.name == "batch" && e.tid == trace::MAIN_TID)
        .count();
    assert_eq!(batch_spans, 1, "batch span on the coordinator lane");
    // Lane = worker + 1: the caller is worker 0 on its own lane, the one
    // spawned worker is on lane 2.
    let worker_lanes: Vec<(u32, &str)> = recorded
        .ordered()
        .into_iter()
        .filter(|e| e.cat == "sched" && e.name.starts_with("worker"))
        .map(|e| (e.tid, e.name.as_str()))
        .collect();
    assert_eq!(worker_lanes, [(1, "worker0"), (2, "worker1")]);
    let job_lanes: std::collections::BTreeSet<u32> = recorded
        .events()
        .iter()
        .filter(|e| e.name == "job")
        .map(|e| e.tid)
        .collect();
    assert!(
        job_lanes.iter().all(|tid| [1, 2].contains(tid)),
        "job spans live on the lanes of the workers that ran them, got {job_lanes:?}"
    );
    let json = recorded.to_chrome_json();
    trace::validate_json(&json).expect("merged trace is valid Chrome JSON");
    assert!(json.contains("\"tid\":2"), "worker lane visible in export");
}

#[test]
fn worker_journals_merge_into_one_batch_report() {
    use td_support::journal;
    journal::reset();
    journal::set_enabled(true);
    let engine = Engine::new(EngineConfig::standard().with_workers(4).without_cache());
    let mut jobs = batch(6, "seen");
    // One failing job: its schedule matches an op the payload lacks, with
    // an innocent trailing step bisection must shave off.
    jobs.push(Job::new(
        r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %missing = "transform.match_op"(%root) {name = "nonexistent.op", select = "first"} : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%root) {name = "never"} : (!transform.any_op) -> ()
  }
}"#,
        payload(99),
    ));
    let report = engine.run_batch(jobs);
    let thread_local_merged = journal::take();
    journal::clear_enabled_override();

    assert_eq!(report.ok_count(), 6);
    assert_eq!(report.err_count(), 1);

    // Steps from every job landed in the merged journal, stamped with
    // their job index; the summary ranks the annotate transform.
    let stamped: std::collections::BTreeSet<usize> = report
        .journal
        .steps()
        .iter()
        .filter_map(|s| s.job)
        .collect();
    assert_eq!(stamped.len(), 7, "all jobs contributed steps: {stamped:?}");
    assert!(report
        .journal
        .summarize()
        .iter()
        .any(|row| row.name == "transform.annotate" && row.ops_touched > 0));
    let failed = report
        .journal
        .first_failure()
        .expect("failing job recorded a failed step");
    assert_eq!(failed.name, "transform.match_op");

    // The failing job came back with the report, and its bisected,
    // minimized repro is computed when asked for — never by the batch.
    assert!(
        report.journal.artifacts().is_empty(),
        "the batch itself bisects nothing"
    );
    let registry = td_support::metrics::snapshot();
    assert_eq!(registry.counter_value("sched.bisections"), None);
    let [(index, failed_job)] = report.failed_jobs.as_slice() else {
        panic!("one job handed back, got {:?}", report.failed_jobs);
    };
    assert_eq!(*index, 6);
    let repro = engine.bisect(failed_job).expect("the failure reproduces");
    assert!(
        repro.starts_with("failing prefix: 1 of 3 step(s) ("),
        "{repro}"
    );
    assert!(repro.contains("\nfailure: "), "{repro}");
    assert!(repro.contains("nonexistent.op"));
    assert!(
        !repro.contains("\"never\""),
        "repro drops the innocent trailing step:\n{repro}"
    );
    assert_eq!(engine.bisect(failed_job), Some(repro), "deterministic");
    let registry = td_support::metrics::snapshot();
    assert_eq!(registry.counter_value("sched.bisections"), Some(2));
    // A job that succeeds has nothing to bisect.
    assert_eq!(
        engine.bisect(&Job::new(annotate_script("seen"), payload(0))),
        None
    );

    // The JSON report validates and ranks the batch's transform.
    let json = report.report_json();
    trace::validate_json(&json).expect("report JSON validates");
    let summary = &json[json.find("\"summary\":[").expect("summary")..];
    assert!(
        summary.contains("{\"name\":\"transform.annotate\","),
        "{summary}"
    );

    // The coordinator's thread-local journal absorbed the same steps, so
    // a TD_JOURNAL flush covers the pool.
    assert_eq!(
        thread_local_merged.steps().len(),
        report.journal.steps().len()
    );
}

#[test]
fn journal_off_batches_record_nothing() {
    use td_support::journal;
    journal::reset();
    journal::set_enabled(false);
    let engine = Engine::new(EngineConfig::standard().with_workers(2).without_cache());
    let report = engine.run_batch(batch(3, "seen"));
    journal::clear_enabled_override();
    assert_eq!(report.ok_count(), 3);
    assert!(report.journal.is_empty(), "journaling off: empty journal");
}

/// An engine config whose registry has a `test.whereami` op: it records
/// the thread it runs on and then waits at `rendezvous`, so a batch's jobs
/// are spread over exactly as many threads as the barrier has parties.
fn thread_recording_config(
    workers: usize,
    seen: &Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>,
    rendezvous: &Arc<std::sync::Barrier>,
) -> EngineConfig {
    let (seen, rendezvous) = (Arc::clone(seen), Arc::clone(rendezvous));
    let mut config = EngineConfig::standard()
        .with_workers(workers)
        .without_cache();
    config.transforms_factory = Arc::new(move || {
        let (seen, rendezvous) = (Arc::clone(&seen), Arc::clone(&rendezvous));
        let mut registry = TransformOpRegistry::with_standard_ops();
        registry.register(TransformOpDef::new(
            "test.whereami",
            "records the current thread",
            move |_, _, _, _| {
                seen.lock().unwrap().push(std::thread::current().id());
                rendezvous.wait();
                Ok(())
            },
        ));
        registry
    });
    config
}

#[test]
fn the_caller_is_the_first_worker() {
    use std::collections::BTreeSet;
    use std::sync::{Barrier, Mutex};
    let whereami = |n: usize| -> Vec<Job> {
        (0..n)
            .map(|i| Job::new(custom_op_script("test.whereami"), payload(i)))
            .collect()
    };
    let me = std::thread::current().id();

    // One worker, or one miss: nothing is spawned, the caller runs it all.
    for (workers, misses) in [(1, 5), (4, 1)] {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let engine = Engine::new(thread_recording_config(
            workers,
            &seen,
            &Arc::new(Barrier::new(1)),
        ));
        let report = engine.run_batch(whereami(misses));
        assert_eq!((report.ok_count(), report.workers), (misses, 1));
        assert_eq!(*seen.lock().unwrap(), vec![me; misses]);
    }

    // N workers, M misses: min(N, M) threads, the caller among them. The
    // barrier holds every job until that many threads are each inside one,
    // so no thread can run ahead and do a neighbour's share.
    for (workers, misses, threads) in [(4, 8, 4), (4, 2, 2), (2, 6, 2)] {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let engine = Engine::new(thread_recording_config(
            workers,
            &seen,
            &Arc::new(Barrier::new(threads)),
        ));
        let report = engine.run_batch(whereami(misses));
        assert_eq!((report.ok_count(), report.workers), (misses, threads));
        assert_eq!(report.stats.lanes.len(), threads);
        assert_eq!(report.stats.lanes[0].worker, 0);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), misses);
        let distinct: BTreeSet<String> = seen.iter().map(|id| format!("{id:?}")).collect();
        assert_eq!(
            distinct.len(),
            threads,
            "{workers} workers, {misses} misses"
        );
        assert!(seen.contains(&me), "the caller is one of the workers");
    }
}

#[test]
fn the_caller_gets_its_thread_back_as_it_left_it() {
    use td_support::{fault, journal, metrics};
    trace::reset();
    trace::set_enabled(true);
    journal::reset();
    journal::set_enabled(true);
    metrics::reset();
    metrics::counter("callers.own", 3);
    fault::set_lane(5);
    journal::set_job(Some(41));
    journal::set_request("outer");
    let outer_step = journal::begin_step("job", "callers.step", None, [], 0);
    let outer_span = trace::span("test", "outer");

    let engine = Engine::new(EngineConfig::standard().with_workers(1).without_cache());
    let report = engine.run_batch(batch(3, "seen"));
    assert_eq!((report.ok_count(), report.workers), (3, 1));

    // Fault lane, trace depth, journal stamps and the open frame.
    assert_eq!(fault::lane(), 5);
    trace::instant("test", "inside", &[]);
    drop(outer_span);
    trace::instant("test", "outside", &[]);
    let depth_of = |name: &str| {
        let recorded = trace::snapshot();
        let event = recorded.events().iter().find(|e| e.name == name);
        event.expect("instant recorded").depth
    };
    assert_eq!((depth_of("inside"), depth_of("outside")), (1, 0));
    assert!(trace::enabled() && journal::enabled(), "switches untouched");
    assert!(journal::recording(), "the caller's step is still open");
    journal::end_step(outer_step, 0, 0, journal::StepOutcome::Ok, "", None);
    let after = journal::begin_step("job", "callers.next", None, [], 0);
    journal::end_step(after, 0, 0, journal::StepOutcome::Ok, "", None);

    // The caller's stores hold what they held plus exactly the batch.
    let mine = journal::take();
    let own: Vec<_> = mine
        .steps()
        .iter()
        .filter(|s| s.name.as_str().starts_with("callers."))
        .collect();
    assert_eq!(own.len(), 2);
    for step in own {
        assert_eq!(
            (step.job, step.request.as_deref()),
            (Some(41), Some("outer"))
        );
        assert_eq!(step.outcome, journal::StepOutcome::Ok);
    }
    assert_eq!(mine.steps().len(), 2 + report.journal.steps().len());
    assert!(!report.journal.is_empty());
    let registry = metrics::take();
    assert_eq!(registry.counter_value("callers.own"), Some(3));
    assert_eq!(registry.counter_value("sched.jobs"), Some(3));
    assert_eq!(
        registry.histogram("sched.job.total"),
        Some(&report.stats.total),
        "the batch's samples, once"
    );
    assert_eq!(
        registry.counter_value("interp.transforms_executed"),
        Some(6)
    );

    trace::reset();
    trace::clear_enabled_override();
    journal::reset();
    journal::clear_enabled_override();
    fault::set_lane(0);
}

/// Two test transforms for the shared-payload tests: `test.panic` panics
/// inside its step, where the interpreter contains it and rolls the step
/// back; `test.erase_root` erases the payload module its operand maps to,
/// so printing the result panics past the interpreter, at the worker
/// boundary.
fn panicking_transforms() -> td_sched::engine::TransformsFactory {
    Arc::new(|| {
        let mut registry = TransformOpRegistry::with_standard_ops();
        registry.register(TransformOpDef::new(
            "test.panic",
            "always panics",
            |_, _, _, _| panic!("intentional test panic"),
        ));
        registry.register(TransformOpDef::new(
            "test.erase_root",
            "erases the payload module",
            |_, ctx, state, op| {
                let location = ctx.op(op).location.clone();
                let handle = ctx.op(op).operands()[0];
                for root in state.ops(handle, &location)? {
                    ctx.erase_op(root);
                }
                Ok(())
            },
        ));
        registry
    })
}

/// 32 candidates for one payload: mostly annotations with distinct
/// markers (each mutates the payload, so a leaked mutation shows in a
/// later candidate's text), plus one whose transform panics inside its
/// step, one whose print panics at the worker boundary, one naming a
/// missing entry and one whose script does not parse.
fn shared_candidates() -> Vec<Job> {
    let shared = payload(0);
    (0..32)
        .map(|i| match i {
            5 => Job::new(custom_op_script("test.panic"), shared.clone()),
            11 => Job::new(
                r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    "test.erase_root"(%root) : (!transform.any_op) -> ()
  }
}"#,
                shared.clone(),
            ),
            17 => Job::new(annotate_script("never"), shared.clone()).with_entry("absent"),
            23 => Job::new("module { not valid ir", shared.clone()),
            _ => Job::new(annotate_script(&format!("candidate{i}")), shared.clone()),
        })
        .collect()
}

/// This thread's `sched.payload_parses` counter (the engine merges its
/// workers' counters into the caller's).
fn payload_parses() -> u64 {
    td_support::metrics::snapshot()
        .counter_value("sched.payload_parses")
        .unwrap_or(0)
}

#[test]
fn shared_payload_candidates_match_fresh_contexts_around_panics() {
    let engine_of = |workers: usize| {
        let mut config = EngineConfig::standard()
            .with_workers(workers)
            .without_cache();
        config.transforms_factory = panicking_transforms();
        Engine::new(config)
    };
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    // The reference: every candidate alone, as a one-job batch, which
    // never shares a payload and so parses into a fresh context.
    let alone = engine_of(1);
    let fresh: Vec<_> = shared_candidates()
        .into_iter()
        .map(|job| alone.run_batch(vec![job]).results.remove(0))
        .collect();
    let mut parses = Vec::new();
    let mut reports = Vec::new();
    for workers in [1, 4] {
        let before = payload_parses();
        reports.push(engine_of(workers).run_batch(shared_candidates()));
        parses.push(payload_parses() - before);
    }
    std::panic::set_hook(hook);

    match &fresh[5] {
        Err(JobError::Transform {
            message,
            silenceable: false,
        }) => assert!(message.contains("intentional test panic"), "{message}"),
        other => panic!("expected a contained panic, got {other:?}"),
    }
    assert!(
        matches!(&fresh[11], Err(JobError::Panicked { .. })),
        "{:?}",
        fresh[11]
    );
    assert!(matches!(&fresh[17], Err(JobError::EntryMissing { .. })));
    assert!(matches!(
        &fresh[23],
        Err(JobError::Parse { what: "script", .. })
    ));
    assert_eq!(fresh.iter().filter(|r| r.is_ok()).count(), 28);
    for (report, workers) in reports.iter().zip([1, 4]) {
        for (index, (shared, fresh)) in report.results.iter().zip(&fresh).enumerate() {
            assert_eq!(
                shared, fresh,
                "candidate {index} at {workers} worker(s) differs from a fresh context"
            );
        }
    }
    // One worker parses the payload once, and once more after the panic
    // at its boundary dropped the parsed payload.
    assert_eq!(parses[0], 2);
    assert!(parses[1] <= 4 + 1, "{} parses at 4 workers", parses[1]);
}

/// Armed, the next `test.unlogged` writes an attribute on its payload
/// root behind the undo log's back, once.
static UNLOGGED_ARMED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

#[test]
fn a_slot_whose_rollback_fails_its_check_is_dropped_and_the_job_rerun_fresh() {
    let engine = || {
        let mut config = EngineConfig::standard().with_workers(1).without_cache();
        config.transforms_factory = Arc::new(|| {
            let mut registry = TransformOpRegistry::with_standard_ops();
            registry.register(TransformOpDef::new(
                "test.unlogged",
                "corrupts the payload root once, unlogged, when armed",
                |_, ctx, state, op| {
                    let location = ctx.op(op).location.clone();
                    let handle = ctx.op(op).operands()[0];
                    if UNLOGGED_ARMED.swap(false, Ordering::SeqCst) {
                        for root in state.ops(handle, &location)? {
                            ctx.corrupt_attr_unlogged(root, "corrupted", td_ir::Attribute::Unit);
                        }
                    }
                    Ok(())
                },
            ));
            registry
        });
        Engine::new(config)
    };
    let script = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    "test.unlogged"(%root) : (!transform.any_op) -> ()
  }
}"#;
    let jobs = || -> Vec<Job> {
        let mut jobs = vec![Job::new(script, payload(0))];
        jobs.extend((0..3).map(|i| Job::new(annotate_script(&format!("c{i}")), payload(0))));
        jobs
    };
    // The reference: each job alone, on a fresh context, unarmed.
    let fresh: Vec<_> = jobs()
        .into_iter()
        .map(|job| engine().run_batch(vec![job]).results.remove(0))
        .collect();
    let discards = || {
        td_support::metrics::snapshot()
            .counter_value("sched.slot_discards")
            .unwrap_or(0)
    };
    let before = discards();
    UNLOGGED_ARMED.store(true, Ordering::SeqCst);
    let shared = engine().run_batch(jobs());
    assert!(!UNLOGGED_ARMED.load(Ordering::SeqCst), "the corruption ran");
    assert_eq!(discards() - before, 1, "the damaged slot is dropped once");
    assert_eq!(
        shared.results, fresh,
        "every job returns its fresh-context result"
    );
}

#[test]
fn payload_parses_count_one_per_worker_on_a_shared_batch() {
    let shared = |n: usize| -> Vec<Job> {
        (0..n)
            .map(|i| Job::new(annotate_script(&format!("c{i}")), payload(0)))
            .collect()
    };
    let parses_of = |workers: usize, batches: Vec<Vec<Job>>| -> u64 {
        let engine = Engine::new(
            EngineConfig::standard()
                .with_workers(workers)
                .without_cache(),
        );
        let before = payload_parses();
        for jobs in batches {
            let count = jobs.len();
            assert_eq!(engine.run_batch(jobs).ok_count(), count);
        }
        payload_parses() - before
    };
    assert_eq!(parses_of(1, vec![shared(32)]), 1);
    assert!(parses_of(4, vec![shared(32)]) <= 4);
    // Single-job batches share nothing, so each job parses.
    let singles = shared(32).into_iter().map(|job| vec![job]).collect();
    assert_eq!(parses_of(1, singles), 32);
    // Jobs without transactions run on fresh contexts.
    let never = shared(32)
        .into_iter()
        .map(|job| job.with_txn(TxnMode::Never))
        .collect();
    assert_eq!(parses_of(1, vec![never]), 32);
    // So does every job while a fault plan is armed (on this thread, which
    // a one-worker engine runs every job on), even one that never fires.
    td_support::fault::set_thread_plan(Some(
        td_support::fault::FaultPlan::parse("silenceable@transform=test.absent").unwrap(),
    ));
    let armed = parses_of(1, vec![shared(32)]);
    td_support::fault::set_thread_plan(None);
    assert_eq!(armed, 32);
}

/// Why `TxnMode::Never` jobs never run on a shared payload: under `Never`
/// a step that mutates and then fails inside a suppressing sequence keeps
/// its partial edit, but inside a job watermark every step would get a
/// scope of its own and the edit would be rolled back. Each job of a
/// shared `Never` batch must keep the edit, exactly as alone.
#[test]
fn never_jobs_in_a_shared_batch_keep_partial_edits() {
    let mut config = EngineConfig::standard().with_workers(1).without_cache();
    config.transforms_factory = Arc::new(|| {
        let mut registry = TransformOpRegistry::with_standard_ops();
        registry.register(TransformOpDef::new(
            "test.mutate_then_fail",
            "marks its targets, then fails silenceably",
            |_, ctx, state, op| {
                let location = ctx.op(op).location.clone();
                let handle = ctx.op(op).operands()[0];
                for target in state.ops(handle, &location)? {
                    ctx.set_attr(target, "partial", td_ir::Attribute::Unit);
                }
                Err(TransformError::silenceable(
                    location,
                    "failed after mutating",
                ))
            },
        ));
        registry
    });
    let script = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    "transform.sequence"(%root) ({
    ^bb0(%arg: !transform.any_op):
      %adds = "transform.match_op"(%arg) {name = "arith.addi", select = "all"} : (!transform.any_op) -> !transform.any_op
      "test.mutate_then_fail"(%adds) : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {failure_propagation_mode = "suppress"} : (!transform.any_op) -> ()
  }
}"#;
    let engine = Engine::new(config);
    let never = || Job::new(script, payload(0)).with_txn(TxnMode::Never);
    let alone = engine.run_batch(vec![never()]).results.remove(0);
    let text = &alone
        .as_ref()
        .expect("the failure is suppressed")
        .module_text;
    assert!(text.contains("partial"), "{text}");
    let shared = engine.run_batch((0..4).map(|_| never()).collect());
    for result in &shared.results {
        assert_eq!(result, &alone);
    }
}

/// Why jobs run on fresh contexts while a fault plan is armed: the
/// `ir.alloc` faultpoint counts the ops each job creates, the payload's
/// included, so a job that skipped its payload parse would meet a
/// `step=N` fault at another op, or not at all. Here the fault lands in
/// job 1's script parse, in the batch as alone.
#[test]
fn fault_armed_shared_batches_meet_faults_as_alone() {
    let engine = Engine::new(EngineConfig::standard().with_workers(1).without_cache());
    let jobs = || -> Vec<Job> {
        (0..4)
            .map(|i| {
                Job::new(annotate_script(&format!("c{i}")), payload(0)).with_fault_lane(i as u64)
            })
            .collect()
    };
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    // The payload creates 4 ops (hits 0–3), so hit 5 is in the script.
    td_support::fault::set_thread_plan(Some(
        td_support::fault::FaultPlan::parse("alloc_pressure@job=1,step=5").unwrap(),
    ));
    let alone: Vec<_> = jobs()
        .into_iter()
        .map(|job| engine.run_batch(vec![job]).results.remove(0))
        .collect();
    let batch = engine.run_batch(jobs());
    td_support::fault::set_thread_plan(None);
    std::panic::set_hook(hook);
    assert!(
        matches!(&alone[1], Err(JobError::Panicked { message }) if message.contains("ir.create_op")),
        "{:?}",
        alone[1]
    );
    assert_eq!(alone.iter().filter(|r| r.is_ok()).count(), 3);
    assert_eq!(batch.results, alone);
}
